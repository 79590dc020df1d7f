//! Public views of the MNA matrix for static analyses, which need it
//! without solving anything: [`Circuit::stamp_matrix`] hands out the
//! solver's own matrix writes in any number field (the sweep-space
//! proof runs it over intervals), and [`Circuit::dc_stamp_pattern`]
//! their coordinates, the structural pattern of every DC assembly, since
//! the walk's stamp-call sequence is data-independent.

use crate::assembly::MatrixWrites;
use crate::dcop::GMIN;
use crate::mna::{fill_companions, EnergyState, MnaLayout, Overrides, RealWalk, Sources, Storage};
use crate::Circuit;
use ams_math::{DVec, Scalar};

/// The structural (symbolic) pattern of a circuit's DC-linearized MNA
/// matrix: unknown count, human-readable unknown names, and the matrix
/// coordinate sequence recorded from one assembly run.
#[derive(Debug, Clone)]
pub struct StampPattern {
    n_unknowns: usize,
    names: Vec<String>,
    coords: Vec<(usize, usize)>,
}

impl StampPattern {
    /// Number of MNA unknowns: `(nodes − 1)` voltages plus one branch
    /// current per voltage-defined element.
    pub fn n_unknowns(&self) -> usize {
        self.n_unknowns
    }

    /// The recorded `(row, col)` coordinate sequence. Duplicates are
    /// meaningful to stamp replay but harmless to structural analysis.
    pub fn coords(&self) -> &[(usize, usize)] {
        &self.coords
    }

    /// Human-readable name of an unknown: `V(node)` for node voltages,
    /// `I(element)` for branch currents.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_unknowns()`.
    pub fn unknown_name(&self, idx: usize) -> &str {
        &self.names[idx]
    }
}

impl Circuit {
    /// Walks the MNA matrix the solver assembles, handing each write
    /// `(row, col, value)` to `write` in the solver's stamp order, and
    /// returns the number of unknowns. Summed into a zero matrix, the
    /// writes give the solver's matrix bit for bit; their sequence
    /// depends only on the topology and on whether `h` is given.
    ///
    /// `h = None` walks the DC operating point's matrix, `Some(h)` one
    /// backward-Euler step of `h` (a trapezoidal step of `h` factors
    /// that of `h/2`). Element `i` takes `values[i]` when that is
    /// `Some` (its resistance, capacitance, inductance, gain,
    /// transconductance or transresistance, or a switch's resistance in
    /// either state) and its own value otherwise; a short `values` pads
    /// with `None`. Switches stand in their initial states, and diodes
    /// and MOSFETs are linearized at zero bias.
    pub fn stamp_matrix<T: Scalar>(
        &self,
        values: &[Option<T>],
        h: Option<f64>,
        write: impl FnMut(usize, usize, T),
    ) -> usize {
        let layout = MnaLayout::build(self);
        let values = Overrides {
            circuit: self,
            values,
        };
        let m = self.element_count();
        let (mut companion, history);
        let storage = match h {
            None => Storage::Dc,
            Some(h) => {
                companion = vec![T::ZERO; m];
                fill_companions(values, h, true, &mut companion);
                let zero = EnergyState {
                    v: T::ZERO,
                    i: T::ZERO,
                };
                history = vec![zero; m];
                Storage::Step {
                    companion: &companion,
                    history: &history,
                    be: true,
                }
            }
        };
        RealWalk {
            values,
            layout: &layout,
            x: &DVec::zeros(layout.n_unknowns),
            switches: &self.initial_switch_states(),
            storage,
            sources: Sources::Dc {
                scale: 0.0,
                ext: &[],
            },
            gmin: GMIN,
        }
        .stamp(&mut MatrixWrites(write));
        layout.n_unknowns
    }

    /// Records the structural pattern of the DC-linearized MNA system.
    ///
    /// All sources are treated at zero, all nonlinear elements at a zero
    /// iterate, switches in their initial states — none of which changes
    /// the pattern, since the stamp sequence is data-independent.
    pub fn dc_stamp_pattern(&self) -> StampPattern {
        let mut coords = Vec::new();
        let n_unknowns = self.stamp_matrix::<f64>(&[], None, |i, j, _| coords.push((i, j)));
        let mut names = Vec::with_capacity(n_unknowns);
        for node in 1..self.node_count() {
            names.push(format!("V({})", self.node_names[node]));
        }
        // Branch unknowns are allocated in element order; reproduce it.
        for e in self.elements() {
            if e.has_branch_current() {
                names.push(format!("I({})", e.name));
            }
        }
        debug_assert_eq!(names.len(), n_unknowns);
        StampPattern {
            n_unknowns,
            names,
            coords,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divider_pattern_names_and_coords() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let p = ckt.dc_stamp_pattern();
        assert_eq!(p.n_unknowns(), 3);
        assert_eq!(p.unknown_name(0), "V(in)");
        assert_eq!(p.unknown_name(1), "V(out)");
        assert_eq!(p.unknown_name(2), "I(V1)");
        // Every coordinate is in range; the diagonal of both node rows
        // appears (conductance stamps).
        assert!(p.coords().iter().all(|&(i, j)| i < 3 && j < 3));
        assert!(p.coords().contains(&(0, 0)));
        assert!(p.coords().contains(&(1, 1)));
    }

    /// One circuit with every linear kind and a switch. The inductor and
    /// step are chosen so that `L·(1/h)` and `L/h` round differently.
    fn every_linear_kind() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let d = ckt.node("d");
        let v = ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, b, 1.3e3).unwrap();
        ckt.capacitor("C1", b, Circuit::GROUND, 3.3e-9).unwrap();
        let l = ckt.inductor("L1", b, c, 4.7e-6).unwrap();
        ckt.resistor("R2", c, Circuit::GROUND, 470.0).unwrap();
        ckt.vcvs("E1", d, Circuit::GROUND, b, c, 2.2).unwrap();
        ckt.vccs("G1", c, Circuit::GROUND, a, b, 1.7e-3).unwrap();
        ckt.cccs("F1", d, Circuit::GROUND, v, 0.3).unwrap();
        ckt.ccvs("H1", a, d, l, 33.0).unwrap();
        ckt.switch("S1", c, d, 0.7, 1.1e6, true).unwrap();
        ckt.resistor("R3", d, Circuit::GROUND, 2.2e3).unwrap();
        ckt
    }

    #[test]
    fn interval_stamps_at_template_values_are_the_f64_stamps() {
        use ams_math::Interval;
        let ckt = every_linear_kind();
        for h in [None, Some(1.1e-7)] {
            let mut real = Vec::new();
            let n = ckt.stamp_matrix::<f64>(&[], h, |i, j, v| real.push((i, j, v)));
            let mut boxed = Vec::new();
            let m = ckt.stamp_matrix::<Interval>(&[], h, |i, j, v| boxed.push((i, j, v)));
            assert_eq!((n, real.len()), (m, boxed.len()), "h = {h:?}");
            for (&(i, j, v), &(bi, bj, iv)) in real.iter().zip(&boxed) {
                assert_eq!((i, j), (bi, bj), "h = {h:?}");
                assert_eq!(
                    (iv.lo.to_bits(), iv.hi.to_bits()),
                    (v.to_bits(), v.to_bits()),
                    "h = {h:?}: entry ({i}, {j}) is {iv}, the f64 walk wrote {v:e}"
                );
            }
        }
    }

    #[test]
    fn stamp_matrix_at_dc_is_the_operating_point_matrix() {
        use crate::assembly::DenseStamp;
        use crate::dcop::dc_walk;
        use ams_math::DMat;
        let mut ckt = every_linear_kind();
        let a = ckt.find_node("a").unwrap();
        ckt.diode("D1", a, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let layout = MnaLayout::build(&ckt);
        let n = layout.n_unknowns;
        let (x, ext, switches) = (DVec::zeros(n), Vec::new(), ckt.initial_switch_states());
        let (mut solver, mut rhs) = (DMat::zeros(n, n), DVec::zeros(n));
        dc_walk(&ckt, &layout, &x, &ext, &switches, 1.0, GMIN).stamp(&mut DenseStamp {
            mat: &mut solver,
            rhs: &mut rhs,
        });
        let mut summed: DMat<f64> = DMat::zeros(n, n);
        assert_eq!(
            ckt.stamp_matrix::<f64>(&[], None, |i, j, v| summed[(i, j)] += v),
            n
        );
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    summed[(i, j)].to_bits(),
                    solver[(i, j)].to_bits(),
                    "({i}, {j})"
                );
            }
        }
        // An override replaces the element's value: V(b)'s diagonal is
        // R1's conductance plus C1's leak.
        let r1 = ckt.elements().iter().position(|e| e.name == "R1").unwrap();
        let mut values = vec![None; r1 + 1];
        values[r1] = Some(2.0e3);
        let mut g = 0.0;
        ckt.stamp_matrix(&values, None, |i, j, v| {
            if (i, j) == (1, 1) {
                g += v;
            }
        });
        assert_eq!(solver[(1, 1)], 1.0 / 1.3e3 + GMIN);
        assert_eq!(g, 1.0 / 2.0e3 + GMIN);
    }

    #[test]
    fn pattern_is_iterate_independent() {
        // A nonlinear circuit still yields one fixed pattern.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, 5.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let p1 = ckt.dc_stamp_pattern();
        let p2 = ckt.dc_stamp_pattern();
        assert_eq!(p1.coords(), p2.coords());
    }
}
