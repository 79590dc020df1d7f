//! Modified Nodal Analysis: unknown layout and stamp primitives.
//!
//! "This system of equations can be, for example, generated from a network
//! using the Modified Nodal Analysis method" (paper §3, O7). The MNA
//! unknown vector is `[node voltages (ground eliminated) | branch
//! currents]`, where voltage-defined elements (voltage sources, inductors,
//! VCVS, CCVS) each contribute one branch-current unknown. All three
//! solvers (DC, transient, AC) share this layout and these stamps; only
//! the element models differ per analysis.

use crate::assembly::Stamp;
use crate::{Circuit, ElementId, NodeId};
use ams_math::Scalar;

/// The unknown layout shared by every analysis of one circuit.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Number of nodes including ground.
    pub n_nodes: usize,
    /// Per-element branch unknown index (absolute, already offset past the
    /// node voltages), if the element is voltage-defined.
    pub branch_of: Vec<Option<usize>>,
    /// Total unknowns: `(n_nodes − 1) + branches`.
    pub n_unknowns: usize,
}

impl MnaLayout {
    /// Builds the layout for a circuit.
    pub fn build(ckt: &Circuit) -> Self {
        let n_nodes = ckt.node_count();
        let mut branch_of = Vec::with_capacity(ckt.element_count());
        let mut next = n_nodes - 1;
        for e in ckt.elements() {
            if e.has_branch_current() {
                branch_of.push(Some(next));
                next += 1;
            } else {
                branch_of.push(None);
            }
        }
        MnaLayout {
            n_nodes,
            branch_of,
            n_unknowns: next,
        }
    }

    /// Index of a node voltage unknown; `None` for ground.
    pub fn node_var(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Index of an element's branch-current unknown.
    pub fn branch_var(&self, elem: ElementId) -> Option<usize> {
        self.branch_of[elem.index()]
    }
}

/// Stamps a conductance `g` between nodes `p` and `n`.
pub(crate) fn stamp_conductance<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    p: NodeId,
    n: NodeId,
    g: T,
) {
    let vp = layout.node_var(p);
    let vn = layout.node_var(n);
    if let Some(i) = vp {
        st.mat(i, i, g);
    }
    if let Some(j) = vn {
        st.mat(j, j, g);
    }
    if let (Some(i), Some(j)) = (vp, vn) {
        st.mat(i, j, -g);
        st.mat(j, i, -g);
    }
}

/// Stamps a current `i` flowing from `p` through the source to `n`
/// (i.e. extracted from node `p`, injected into node `n`).
pub(crate) fn stamp_current<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    p: NodeId,
    n: NodeId,
    i: T,
) {
    if let Some(ip) = layout.node_var(p) {
        st.rhs(ip, -i);
    }
    if let Some(in_) = layout.node_var(n) {
        st.rhs(in_, i);
    }
}

/// Stamps the KCL coupling of a branch current `ib` (unknown column
/// `branch`): current `ib` leaves node `p` and enters node `n`.
pub(crate) fn stamp_branch_kcl<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    p: NodeId,
    n: NodeId,
    branch: usize,
) {
    if let Some(ip) = layout.node_var(p) {
        st.mat(ip, branch, T::ONE);
    }
    if let Some(in_) = layout.node_var(n) {
        st.mat(in_, branch, -T::ONE);
    }
}

/// Stamps the branch voltage row: coefficient `+c` on `V(p)` and `−c` on
/// `V(n)` in equation `row`.
pub(crate) fn stamp_branch_voltage<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    row: usize,
    p: NodeId,
    n: NodeId,
    c: T,
) {
    if let Some(ip) = layout.node_var(p) {
        st.mat(row, ip, c);
    }
    if let Some(in_) = layout.node_var(n) {
        st.mat(row, in_, -c);
    }
}

/// Stamps a transconductance: current `gm·V(cp,cn)` flowing from `p` to
/// `n`.
pub(crate) fn stamp_vccs<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    p: NodeId,
    n: NodeId,
    cp: NodeId,
    cn: NodeId,
    gm: T,
) {
    let rows = [(layout.node_var(p), T::ONE), (layout.node_var(n), -T::ONE)];
    let cols = [
        (layout.node_var(cp), T::ONE),
        (layout.node_var(cn), -T::ONE),
    ];
    for (r, rs) in rows {
        if let Some(ri) = r {
            for (c, cs) in cols {
                if let Some(ci) = c {
                    st.mat(ri, ci, gm * rs * cs);
                }
            }
        }
    }
}

/// Stamps the linearized three-terminal MOS current (drain `d` → source
/// `s`, gate `g`): `i ≈ i₀ + a_g·v_g + a_d·v_d + a_s·v_s` with the
/// equivalent current source folded into the RHS.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_mos<T: Scalar>(
    layout: &MnaLayout,
    st: &mut dyn Stamp<T>,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    op: &crate::devices::NmosOp<T>,
    vg: T,
    vd: T,
    vs: T,
) {
    let cols = [
        (layout.node_var(g), op.a_g),
        (layout.node_var(d), op.a_d),
        (layout.node_var(s), op.a_s),
    ];
    for (row_node, sign) in [(d, 1.0), (s, -1.0)] {
        if let Some(r) = layout.node_var(row_node) {
            for (col, a) in cols {
                if let Some(cc) = col {
                    st.mat(r, cc, T::from_f64(sign) * a);
                }
            }
        }
    }
    let ieq = op.id - op.a_g * vg - op.a_d * vd - op.a_s * vs;
    stamp_current(layout, st, d, s, ieq);
}

/// Complex variant for AC analysis (the linearization is real; only the
/// matrix is complex).
pub(crate) fn stamp_mos_ac(
    layout: &MnaLayout,
    st: &mut dyn Stamp<ams_math::Complex64>,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    op: &crate::devices::NmosOp,
) {
    use ams_math::Complex64;
    let cols = [
        (layout.node_var(g), op.a_g),
        (layout.node_var(d), op.a_d),
        (layout.node_var(s), op.a_s),
    ];
    for (row_node, sign) in [(d, 1.0), (s, -1.0)] {
        if let Some(r) = layout.node_var(row_node) {
            for (col, a) in cols {
                if let Some(cc) = col {
                    st.mat(r, cc, Complex64::from_real(sign * a));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::DenseStamp;
    use crate::Circuit;
    use ams_math::{DMat, DVec};

    #[test]
    fn layout_counts_branches() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let r = ckt.resistor("R", a, b, 1.0).unwrap();
        let v = ckt.voltage_source("V", a, Circuit::GROUND, 1.0).unwrap();
        let l = ckt.inductor("L", b, Circuit::GROUND, 1.0).unwrap();
        let layout = MnaLayout::build(&ckt);
        assert_eq!(layout.n_nodes, 3);
        assert_eq!(layout.n_unknowns, 2 + 2); // 2 node voltages + V + L
        assert_eq!(layout.branch_var(r), None);
        assert_eq!(layout.branch_var(v), Some(2));
        assert_eq!(layout.branch_var(l), Some(3));
        assert_eq!(layout.node_var(Circuit::GROUND), None);
        assert_eq!(layout.node_var(a), Some(0));
    }

    #[test]
    fn conductance_stamp_pattern() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let layout = MnaLayout::build(&ckt);
        let mut m: DMat<f64> = DMat::zeros(2, 2);
        let mut rhs: DVec<f64> = DVec::zeros(2);
        let mut st = DenseStamp {
            mat: &mut m,
            rhs: &mut rhs,
        };
        stamp_conductance(&layout, &mut st, a, b, 0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], -0.5);
        assert_eq!(m[(1, 0)], -0.5);
        // Grounded stamp only touches the diagonal.
        let mut m2: DMat<f64> = DMat::zeros(2, 2);
        let mut rhs2: DVec<f64> = DVec::zeros(2);
        let mut st2 = DenseStamp {
            mat: &mut m2,
            rhs: &mut rhs2,
        };
        stamp_conductance(&layout, &mut st2, a, Circuit::GROUND, 2.0);
        assert_eq!(m2[(0, 0)], 2.0);
        assert_eq!(m2[(0, 1)], 0.0);
    }

    #[test]
    fn current_stamp_direction() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let layout = MnaLayout::build(&ckt);
        let mut m: DMat<f64> = DMat::zeros(1, 1);
        let mut rhs: DVec<f64> = DVec::zeros(1);
        let mut st = DenseStamp {
            mat: &mut m,
            rhs: &mut rhs,
        };
        // 1 A from ground into node a (p = ground, n = a).
        stamp_current(&layout, &mut st, Circuit::GROUND, a, 1.0);
        assert_eq!(rhs[0], 1.0);
    }

    #[test]
    fn vccs_stamp_signs() {
        let mut ckt = Circuit::new();
        let p = ckt.node("p");
        let cp = ckt.node("cp");
        let layout = MnaLayout::build(&ckt);
        let mut m: DMat<f64> = DMat::zeros(2, 2);
        let mut rhs: DVec<f64> = DVec::zeros(2);
        let mut st = DenseStamp {
            mat: &mut m,
            rhs: &mut rhs,
        };
        stamp_vccs(
            &layout,
            &mut st,
            p,
            Circuit::GROUND,
            cp,
            Circuit::GROUND,
            0.1,
        );
        // I(p→gnd) = gm·V(cp): row p gets +gm at column cp.
        assert_eq!(m[(0, 1)], 0.1);
        assert_eq!(m[(1, 0)], 0.0);
    }
}
