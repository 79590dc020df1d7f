//! Modified Nodal Analysis: the unknown layout, the stamp primitives
//! and the one real-valued element walk.
//!
//! "This system of equations can be, for example, generated from a network
//! using the Modified Nodal Analysis method" (paper §3, O7). The MNA
//! unknown vector is `[node voltages (ground eliminated) | branch
//! currents]`, where voltage-defined elements (voltage sources, inductors,
//! VCVS, CCVS) each contribute one branch-current unknown. Every analysis
//! shares this layout and these stamps, and matches each element kind in
//! one of two walks:
//!
//! * [`RealWalk`] assembles the DC operating point and every transient
//!   step, at `f64` or at a lane bundle, and the matrices
//!   [`Circuit::stamp_matrix`] hands out in any number field, intervals
//!   included. The analysis supplies only what differs: where element
//!   values come from ([`ElementValues`]), the energy-storage models
//!   ([`Storage`]), the source values ([`Sources`]), the junction gmin,
//!   and whether the matrix is stamped at all (the linear fast path
//!   replays the right-hand side only).
//! * [`assemble_ac`](crate::ac::assemble_ac) assembles the complex
//!   small-signal system of AC and noise analysis, stimulus included.
//!
//! [`element_current`] reads an element's current back out of a real
//! solution, for the DC point and every lane of a transient.

use crate::assembly::Stamp;
use crate::dcop::{diode_iv, GMIN};
use crate::devices::{nmos_linearize, NmosOp};
use crate::{Circuit, ElementId, ElementKind, NetError, NodeId};
use ams_math::{DVec, Lanes, Scalar};

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

    /// Index of an element's branch-current unknown; `None` when the
    /// element has none or is not an element of this layout's circuit.
    pub fn branch_var(&self, elem: ElementId) -> Option<usize> {
        self.branch_of.get(elem.index()).copied().flatten()
    }
}

/// Stamps a conductance `g` between nodes `p` and `n`.
#[inline]
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
#[inline]
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
#[inline]
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
#[inline]
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

/// The history of one capacitor or inductor: its voltage and current at
/// the last accepted step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnergyState<T> {
    pub v: T,
    pub i: T,
}

/// How capacitors and inductors enter a [`RealWalk`].
#[derive(Clone, Copy)]
pub(crate) enum Storage<'a, T: Scalar> {
    /// The DC point: a capacitor is open but for a `GMIN` leak, an
    /// inductor a short (`V(p) − V(n) = 0`, no diagonal entry).
    Dc,
    /// One integration step: the companion conductance per element
    /// (`2C/h` or `C/h`, `2L/h` or `L/h`) and the history it acts on.
    Step {
        companion: &'a [T],
        history: &'a [EnergyState<T>],
        /// Backward Euler (else trapezoidal).
        be: bool,
    },
}

/// What the independent sources are worth in a [`RealWalk`].
#[derive(Clone, Copy)]
pub(crate) enum Sources<'a> {
    /// The DC point: `scale × dc_value(ext)` (source stepping ramps
    /// `scale` up to 1).
    Dc { scale: f64, ext: &'a [f64] },
    /// A step ending at `t`: each lane's waveform with that lane's
    /// external inputs, `ext[l]`.
    At { t: f64, ext: &'a [Vec<f64>] },
}

/// Where a [`RealWalk`] reads element values: the lane circuits of a
/// solve (`&[Circuit]`), or one optional value per element of a
/// template ([`Overrides`]). Everything else in the walk is shared.
pub(crate) trait ElementValues<T: Scalar>: Copy {
    /// The circuit whose elements are walked (lane 0's).
    fn template(&self) -> &Circuit;

    /// A value of element `idx`: `v0` is the template's, and `pick`
    /// reads the same field of another lane's element.
    fn param(&self, idx: usize, v0: f64, pick: impl Fn(&ElementKind) -> f64) -> T;

    /// Independent source `idx`'s value; `wave0` is the template's
    /// waveform.
    fn source(&self, idx: usize, wave0: &crate::Waveform, sources: Sources<'_>) -> T;

    /// Diode `idx`'s current and conductance at junction voltage `v`.
    fn diode(&self, idx: usize, v: T) -> (T, T);

    /// MOSFET `idx` linearized at gate, drain and source voltages.
    fn nmos(&self, idx: usize, vg: T, vd: T, vs: T) -> NmosOp<T>;
}

/// Field `$field` of the `$kind` element at `$idx`, read through
/// `$values`; `$v0` is the value the caller already destructured from
/// the template element.
macro_rules! param {
    ($values:expr, $idx:expr, $v0:expr, $kind:ident, $field:ident) => {
        $values.param($idx, $v0, |k| match k {
            ElementKind::$kind { $field, .. } => *$field,
            _ => unreachable!("lane circuits share one topology"),
        })
    };
}

/// One circuit per lane, topology-identical: every value is bundled
/// across the lanes, and lane 0 takes the template's, so the one-lane
/// instance never re-matches.
impl<T: Lanes> ElementValues<T> for &[Circuit] {
    fn template(&self) -> &Circuit {
        &self[0]
    }

    #[inline(always)]
    fn param(&self, idx: usize, v0: f64, pick: impl Fn(&ElementKind) -> f64) -> T {
        T::from_fn(|l| {
            if l == 0 {
                v0
            } else {
                pick(&self[l].elements()[idx].kind)
            }
        })
    }

    #[inline(always)]
    fn source(&self, idx: usize, wave0: &crate::Waveform, sources: Sources<'_>) -> T {
        let wave = |l: usize| {
            if l == 0 {
                wave0
            } else {
                match &self[l].elements()[idx].kind {
                    ElementKind::VoltageSource { wave, .. }
                    | ElementKind::CurrentSource { wave, .. } => wave,
                    _ => unreachable!("lane circuits share one topology"),
                }
            }
        };
        match sources {
            Sources::Dc { scale, ext } => T::from_fn(|l| scale * wave(l).dc_value(ext)),
            Sources::At { t, ext } => T::from_fn(|l| wave(l).value_at(t, &ext[l])),
        }
    }

    /// The exponential is inherently scalar: each lane is linearized at
    /// its own bias.
    #[inline]
    fn diode(&self, idx: usize, v: T) -> (T, T) {
        let (mut i, mut g) = (T::ZERO, T::ZERO);
        for (l, ckt) in self[..T::LANES].iter().enumerate() {
            if let ElementKind::Diode { is_sat, n } = ckt.elements()[idx].kind {
                let (il, gl) = diode_iv(v.lane(l), is_sat, n);
                i.set_lane(l, il);
                g.set_lane(l, gl);
            }
        }
        (i, g)
    }

    #[inline]
    fn nmos(&self, idx: usize, vg: T, vd: T, vs: T) -> NmosOp<T> {
        let mut op = NmosOp::<T>::default();
        for (l, ckt) in self[..T::LANES].iter().enumerate() {
            if let ElementKind::Nmos { kp, vt, lambda, .. } = ckt.elements()[idx].kind {
                let o = nmos_linearize(vg.lane(l), vd.lane(l), vs.lane(l), kp, vt, lambda);
                op.id.set_lane(l, o.id);
                op.a_g.set_lane(l, o.a_g);
                op.a_d.set_lane(l, o.a_d);
                op.a_s.set_lane(l, o.a_s);
            }
        }
        op
    }
}

/// A template whose element `i` takes `values[i]` when that is `Some`
/// (a missing entry is `None`), in any number field: what
/// [`Circuit::stamp_matrix`] walks. Sources read zero, and junctions
/// are linearized at zero bias.
#[derive(Clone, Copy)]
pub(crate) struct Overrides<'a, T> {
    pub circuit: &'a Circuit,
    pub values: &'a [Option<T>],
}

impl<T: Scalar> ElementValues<T> for Overrides<'_, T> {
    fn template(&self) -> &Circuit {
        self.circuit
    }

    fn param(&self, idx: usize, v0: f64, _pick: impl Fn(&ElementKind) -> f64) -> T {
        match self.values.get(idx) {
            Some(&Some(v)) => v,
            _ => T::from_f64(v0),
        }
    }

    fn source(&self, _idx: usize, _wave0: &crate::Waveform, _sources: Sources<'_>) -> T {
        T::ZERO
    }

    fn diode(&self, idx: usize, _v: T) -> (T, T) {
        let (i, g) = std::slice::from_ref(self.circuit).diode(idx, 0.0);
        (T::from_f64(i), T::from_f64(g))
    }

    fn nmos(&self, idx: usize, _vg: T, _vd: T, _vs: T) -> NmosOp<T> {
        let o: NmosOp = std::slice::from_ref(self.circuit).nmos(idx, 0.0, 0.0, 0.0);
        NmosOp {
            id: T::from_f64(o.id),
            a_g: T::from_f64(o.a_g),
            a_d: T::from_f64(o.a_d),
            a_s: T::from_f64(o.a_s),
        }
    }
}

/// Writes each capacitor's companion conductance and each inductor's
/// companion resistance over a step of `h` into `out[idx]`: `C/h` and
/// `L/h` under backward Euler (`be`), `2C/h` and `2L/h` under the
/// trapezoidal rule. Other entries are left as they are.
pub(crate) fn fill_companions<T: Scalar>(
    values: impl ElementValues<T>,
    h: f64,
    be: bool,
    out: &mut [T],
) {
    let hh = T::from_f64(h);
    let two = T::from_f64(2.0);
    for (idx, e) in values.template().elements().iter().enumerate() {
        let v = match &e.kind {
            ElementKind::Capacitor { farads, .. } => {
                param!(values, idx, *farads, Capacitor, farads)
            }
            ElementKind::Inductor { henries, .. } => {
                param!(values, idx, *henries, Inductor, henries)
            }
            _ => continue,
        };
        out[idx] = if be { v / hh } else { two * v / hh };
    }
}

/// The one real-valued assembly: every element of the template stamped
/// once, in element order, with the values `values` gives.
///
/// [`RealWalk::stamp`] stamps the whole system; [`RealWalk::stamp_rhs`]
/// replays the right-hand side only, over factors already cached (the
/// linear fast path, so never over a diode or MOSFET), and computes no
/// matrix entry. The stamp-call sequence depends only on the topology —
/// not on the values, the iterate, the time, the step, the switch
/// states, the sources, the lane or the number field — so the sparse
/// pattern and stamp pointers recorded from one walk serve every later
/// one, at DC and in every step, and so does an adopted symbolic factor.
#[derive(Clone, Copy)]
pub(crate) struct RealWalk<'a, T: Scalar, V = &'a [Circuit]> {
    /// Where element values come from (see [`ElementValues`]).
    pub values: V,
    pub layout: &'a MnaLayout,
    /// The point diodes and MOSFETs are linearized at.
    pub x: &'a DVec<T>,
    /// Switch states by element index; a missing entry is open.
    pub switches: &'a [bool],
    pub storage: Storage<'a, T>,
    pub sources: Sources<'a>,
    /// Conductance across each junction: stepped at DC, `GMIN` in a
    /// step.
    pub gmin: f64,
}

impl<T: Scalar, V: ElementValues<T>> RealWalk<'_, T, V> {
    /// Stamps every element's matrix and right-hand-side entries.
    pub fn stamp(&self, st: &mut dyn Stamp<T>) {
        self.walk::<true>(st);
    }

    /// Stamps the right-hand side only.
    pub fn stamp_rhs(&self, st: &mut dyn Stamp<T>) {
        self.walk::<false>(st);
    }

    #[inline]
    fn walk<const MATRIX: bool>(&self, st: &mut dyn Stamp<T>) {
        let (values, layout, x) = (self.values, self.layout, self.x);
        for (idx, e) in values.template().elements().iter().enumerate() {
            let eid = ElementId(idx);
            match &e.kind {
                // A right-hand-side replay skips what stamps only the
                // matrix (it never runs on a nonlinear circuit).
                ElementKind::Resistor { .. }
                | ElementKind::Vcvs { .. }
                | ElementKind::Vccs { .. }
                | ElementKind::Cccs { .. }
                | ElementKind::Ccvs { .. }
                | ElementKind::Switch { .. }
                | ElementKind::Diode { .. }
                | ElementKind::Nmos { .. }
                    if !MATRIX => {}
                ElementKind::Resistor { ohms } => {
                    let r = param!(values, idx, *ohms, Resistor, ohms);
                    stamp_conductance(layout, st, e.p, e.n, T::ONE / r);
                }
                ElementKind::Capacitor { .. } => match self.storage {
                    Storage::Dc => {
                        if MATRIX {
                            stamp_conductance(layout, st, e.p, e.n, T::from_f64(GMIN));
                        }
                    }
                    Storage::Step {
                        companion,
                        history,
                        be,
                    } => {
                        let geq = companion[idx];
                        let es = history[idx];
                        let ieq = if be { geq * es.v } else { geq * es.v + es.i };
                        if MATRIX {
                            stamp_conductance(layout, st, e.p, e.n, geq);
                        }
                        // Norton source injecting Ieq into p.
                        stamp_current(layout, st, e.n, e.p, ieq);
                    }
                },
                ElementKind::Inductor { .. } => {
                    let b = layout.branch_var(eid).expect("inductor branch");
                    if MATRIX {
                        stamp_branch_kcl(layout, st, e.p, e.n, b);
                        stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    }
                    if let Storage::Step {
                        companion,
                        history,
                        be,
                    } = self.storage
                    {
                        let es = history[idx];
                        let req = companion[idx];
                        if MATRIX {
                            st.mat(b, b, -req);
                        }
                        if be {
                            st.rhs(b, -req * es.i);
                        } else {
                            st.rhs(b, -req * es.i - es.v);
                        }
                    }
                }
                ElementKind::VoltageSource { wave, .. } => {
                    let b = layout.branch_var(eid).expect("vsource branch");
                    if MATRIX {
                        stamp_branch_kcl(layout, st, e.p, e.n, b);
                        stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    }
                    st.rhs(b, values.source(idx, wave, self.sources));
                }
                ElementKind::CurrentSource { wave, .. } => {
                    stamp_current(layout, st, e.p, e.n, values.source(idx, wave, self.sources));
                }
                ElementKind::Vcvs { cp, cn, gain } => {
                    let gain = param!(values, idx, *gain, Vcvs, gain);
                    let b = layout.branch_var(eid).expect("vcvs branch");
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    stamp_branch_voltage(layout, st, b, *cp, *cn, -gain);
                }
                ElementKind::Vccs { cp, cn, gm } => {
                    let gm = param!(values, idx, *gm, Vccs, gm);
                    stamp_vccs(layout, st, e.p, e.n, *cp, *cn, gm);
                }
                ElementKind::Cccs { ctrl, gain } => {
                    let gain = param!(values, idx, *gain, Cccs, gain);
                    let cb = layout.branch_var(*ctrl).expect("validated control");
                    if let Some(ip) = layout.node_var(e.p) {
                        st.mat(ip, cb, gain);
                    }
                    if let Some(in_) = layout.node_var(e.n) {
                        st.mat(in_, cb, -gain);
                    }
                }
                ElementKind::Ccvs { ctrl, r } => {
                    let r = param!(values, idx, *r, Ccvs, r);
                    let b = layout.branch_var(eid).expect("ccvs branch");
                    let cb = layout.branch_var(*ctrl).expect("validated control");
                    stamp_branch_kcl(layout, st, e.p, e.n, b);
                    stamp_branch_voltage(layout, st, b, e.p, e.n, T::ONE);
                    st.mat(b, cb, -r);
                }
                ElementKind::Diode { .. } => {
                    let v = node_value(layout, x, e.p) - node_value(layout, x, e.n);
                    let (i, g) = values.diode(idx, v);
                    // Companion: i ≈ g·v + (i₀ − g·v₀).
                    stamp_conductance(layout, st, e.p, e.n, g + T::from_f64(self.gmin));
                    stamp_current(layout, st, e.p, e.n, i - g * v);
                }
                ElementKind::Nmos { gate, .. } => {
                    let vg = node_value(layout, x, *gate);
                    let vd = node_value(layout, x, e.p);
                    let vs = node_value(layout, x, e.n);
                    let op = values.nmos(idx, vg, vd, vs);
                    stamp_mos(layout, st, e.p, *gate, e.n, &op, vg, vd, vs);
                    stamp_conductance(layout, st, e.p, e.n, T::from_f64(self.gmin));
                }
                ElementKind::Switch { r_on, r_off, .. } => {
                    let r = if self.switches.get(idx).copied().unwrap_or(false) {
                        param!(values, idx, *r_on, Switch, r_on)
                    } else {
                        param!(values, idx, *r_off, Switch, r_off)
                    };
                    stamp_conductance(layout, st, e.p, e.n, T::ONE / r);
                }
            }
        }
    }
}

/// Value of `node` in solution `x` (zero for ground).
#[inline]
pub(crate) fn node_value<T: Scalar>(layout: &MnaLayout, x: &DVec<T>, node: NodeId) -> T {
    layout.node_var(node).map_or(T::ZERO, |i| x[i])
}

/// The current through element `elem` in one lane of a real solution:
/// the branch unknown of a voltage-defined element, `v/R` of a resistor
/// or of a switch in its state `switches[elem]`, `cap_current(elem)` of
/// a capacitor, or a diode's or NMOS's current with its `GMIN` leak.
/// `circuit` is the lane's circuit and `x(i)` the lane's unknown `i`.
///
/// # Errors
///
/// [`NetError::UnknownElement`] for a handle outside the circuit or a
/// kind without a computable current (current sources).
pub(crate) fn element_current(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: impl Fn(usize) -> f64,
    switches: &[bool],
    cap_current: impl FnOnce(usize) -> f64,
    elem: ElementId,
) -> Result<f64, NetError> {
    let e = circuit
        .elements()
        .get(elem.index())
        .ok_or(NetError::UnknownElement {
            index: elem.index(),
            what: "current",
        })?;
    if let Some(b) = layout.branch_var(elem) {
        return Ok(x(b));
    }
    let volt = |node: NodeId| layout.node_var(node).map_or(0.0, &x);
    let v = volt(e.p) - volt(e.n);
    match &e.kind {
        ElementKind::Resistor { ohms } => Ok(v / ohms),
        ElementKind::Capacitor { .. } => Ok(cap_current(elem.index())),
        ElementKind::Switch { r_on, r_off, .. } => {
            let r = if switches[elem.index()] {
                *r_on
            } else {
                *r_off
            };
            Ok(v / r)
        }
        ElementKind::Diode { is_sat, n } => Ok(diode_iv(v, *is_sat, *n).0 + GMIN * v),
        ElementKind::Nmos {
            gate,
            kp,
            vt,
            lambda,
        } => {
            let op = nmos_linearize(volt(*gate), volt(e.p), volt(e.n), *kp, *vt, *lambda);
            Ok(op.id + GMIN * v)
        }
        _ => Err(NetError::UnknownElement {
            index: elem.index(),
            what: "computable branch current",
        }),
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
