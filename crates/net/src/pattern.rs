//! Public structural view of the MNA system: the stamp pattern.
//!
//! Static analyses (notably `ams-lint`'s structural-rank check) need the
//! *shape* of the MNA matrix without solving anything. Because the real
//! walk has a data-independent stamp-call sequence, running its DC form
//! once against a [`PatternStamp`](crate::assembly) with a zero iterate
//! yields the exact coordinate multiset of every later DC assembly — the
//! structural pattern of the Jacobian, valid for all operating points,
//! gmin values and source scales.

use crate::assembly::PatternStamp;
use crate::dcop::{dc_walk, GMIN};
use crate::mna::MnaLayout;
use crate::Circuit;
use ams_math::DVec;

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
    /// Records the structural pattern of the DC-linearized MNA system.
    ///
    /// All sources are treated at zero, all nonlinear elements at a zero
    /// iterate, switches in their initial states — none of which changes
    /// the pattern, since the stamp sequence is data-independent.
    pub fn dc_stamp_pattern(&self) -> StampPattern {
        let layout = MnaLayout::build(self);
        let x = DVec::zeros(layout.n_unknowns);
        let ext = vec![0.0; self.external_input_count()];
        let switches = self.initial_switch_states();
        let mut coords = Vec::new();
        dc_walk(self, &layout, &x, &ext, &switches, 1.0, GMIN).stamp(&mut PatternStamp {
            coords: &mut coords,
        });
        let mut names = Vec::with_capacity(layout.n_unknowns);
        for node in 1..layout.n_nodes {
            names.push(format!("V({})", self.node_names[node]));
        }
        // Branch unknowns are allocated in element order; reproduce it.
        for e in self.elements() {
            if e.has_branch_current() {
                names.push(format!("I({})", e.name));
            }
        }
        debug_assert_eq!(names.len(), layout.n_unknowns);
        StampPattern {
            n_unknowns: layout.n_unknowns,
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
