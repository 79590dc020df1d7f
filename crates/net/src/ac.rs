//! Small-signal AC analysis.
//!
//! "SystemC-AMS will also have to support at least small-signal linear
//! frequency-domain analysis, as the frequency-domain characteristics of a
//! system is also important" (paper §3, O3). The netlist is linearized at
//! the DC operating point (diodes → their small-signal conductance,
//! switches in the states the point was solved at), the complex MNA
//! system is assembled per frequency by the one complex walk
//! ([`assemble_ac`], shared with noise analysis), and AC-designated
//! sources provide the stimulus — no extra language elements, exactly as
//! the paper requires: the frequency-domain model derives from the same
//! time-domain description.

use crate::assembly::{MnaSystem, SolverBackend, Stamp};
use crate::dcop::{diode_iv, DcSolution, GMIN};
use crate::devices::nmos_linearize;
use crate::mna::{
    node_value, stamp_branch_kcl, stamp_branch_voltage, stamp_conductance, stamp_current,
    stamp_mos_ac, stamp_vccs, MnaLayout,
};
use crate::{Circuit, ElementId, ElementKind, NetError, NodeId};
use ams_math::{Complex64, DVec};

/// The complex solution of one AC frequency point.
#[derive(Debug, Clone)]
pub struct AcSolution {
    pub(crate) layout: MnaLayout,
    pub(crate) x: DVec<Complex64>,
    /// The angular frequency (rad/s) this point was solved at.
    pub omega: f64,
}

impl AcSolution {
    /// The complex node voltage phasor.
    ///
    /// # Panics
    ///
    /// Panics for nodes outside the circuit.
    pub fn voltage(&self, node: NodeId) -> Complex64 {
        assert!(node.index() < self.layout.n_nodes, "node out of range");
        node_value(&self.layout, &self.x, node)
    }

    /// The complex branch current of a voltage-defined element.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownElement`] if the element carries no
    /// branch unknown or is not an element of the analyzed circuit.
    pub fn branch_current(&self, elem: ElementId) -> Result<Complex64, NetError> {
        self.layout
            .branch_var(elem)
            .map(|b| self.x[b])
            .ok_or(NetError::UnknownElement {
                index: elem.index(),
                what: "branch current",
            })
    }
}

/// The one complex walk: assembles the MNA system at angular frequency
/// `omega`, linearized at the operating point `op` (its device
/// linearizations and switch states), with the stimulus of every source
/// that carries an AC magnitude on the right-hand side. AC and noise
/// analysis both assemble through it; noise solves against its own
/// right-hand side.
///
/// The stamp sequence is topology-determined (independent of `omega`),
/// so the sparse pattern recorded at one frequency serves the entire
/// sweep and every later factorization is a numeric refactor.
pub(crate) fn assemble_ac(
    ckt: &Circuit,
    layout: &MnaLayout,
    op: &DcSolution,
    omega: f64,
    st: &mut dyn Stamp<Complex64>,
) {
    let jw = Complex64::new(0.0, omega);
    for (idx, e) in ckt.elements().iter().enumerate() {
        let eid = ElementId(idx);
        match &e.kind {
            ElementKind::Resistor { ohms } => {
                stamp_conductance(layout, st, e.p, e.n, Complex64::from_real(1.0 / ohms));
            }
            ElementKind::Capacitor { farads, .. } => {
                stamp_conductance(layout, st, e.p, e.n, jw * *farads);
            }
            ElementKind::Inductor { henries, .. } => {
                let b = layout.branch_var(eid).expect("inductor branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, Complex64::ONE);
                st.mat(b, b, -(jw * *henries));
            }
            ElementKind::VoltageSource { ac_mag, .. } => {
                let b = layout.branch_var(eid).expect("vsource branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, Complex64::ONE);
                if *ac_mag != 0.0 {
                    st.rhs(b, Complex64::from_real(*ac_mag));
                }
            }
            ElementKind::CurrentSource { ac_mag, .. } => {
                // Open in AC; an AC magnitude is a stimulus.
                if *ac_mag != 0.0 {
                    stamp_current(layout, st, e.p, e.n, Complex64::from_real(*ac_mag));
                }
            }
            ElementKind::Vcvs { cp, cn, gain } => {
                let b = layout.branch_var(eid).expect("vcvs branch");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, Complex64::ONE);
                stamp_branch_voltage(layout, st, b, *cp, *cn, Complex64::from_real(-*gain));
            }
            ElementKind::Vccs { cp, cn, gm } => {
                stamp_vccs(layout, st, e.p, e.n, *cp, *cn, Complex64::from_real(*gm));
            }
            ElementKind::Cccs { ctrl, gain } => {
                let cb = layout.branch_var(*ctrl).expect("validated control");
                if let Some(ip) = layout.node_var(e.p) {
                    st.mat(ip, cb, Complex64::from_real(*gain));
                }
                if let Some(in_) = layout.node_var(e.n) {
                    st.mat(in_, cb, Complex64::from_real(-*gain));
                }
            }
            ElementKind::Ccvs { ctrl, r } => {
                let b = layout.branch_var(eid).expect("ccvs branch");
                let cb = layout.branch_var(*ctrl).expect("validated control");
                stamp_branch_kcl(layout, st, e.p, e.n, b);
                stamp_branch_voltage(layout, st, b, e.p, e.n, Complex64::ONE);
                st.mat(b, cb, Complex64::from_real(-*r));
            }
            ElementKind::Diode { is_sat, n } => {
                let (_, g) = diode_iv(op.voltage(e.p) - op.voltage(e.n), *is_sat, *n);
                stamp_conductance(layout, st, e.p, e.n, Complex64::from_real(g + GMIN));
            }
            ElementKind::Nmos {
                gate,
                kp,
                vt,
                lambda,
            } => {
                let (vg, vd, vs) = (op.voltage(*gate), op.voltage(e.p), op.voltage(e.n));
                let mos = nmos_linearize(vg, vd, vs, *kp, *vt, *lambda);
                stamp_mos_ac(layout, st, e.p, *gate, e.n, &mos);
                stamp_conductance(layout, st, e.p, e.n, Complex64::from_real(GMIN));
            }
            ElementKind::Switch { r_on, r_off, .. } => {
                let r = if op.switches[idx] { *r_on } else { *r_off };
                stamp_conductance(layout, st, e.p, e.n, Complex64::from_real(1.0 / r));
            }
        }
    }
}

impl Circuit {
    /// Runs an AC sweep over the given frequencies (Hz), linearizing at
    /// the provided operating point, switches included. The stimulus
    /// comes from sources with a non-zero `ac_mag` (see
    /// [`Circuit::voltage_source_ac`]).
    ///
    /// # Errors
    ///
    /// * [`NetError::Singular`] for unsolvable topologies.
    /// * Propagates factorization failures.
    pub fn ac_sweep(&self, op: &DcSolution, freqs_hz: &[f64]) -> Result<Vec<AcSolution>, NetError> {
        self.ac_sweep_with(op, freqs_hz, SolverBackend::Auto)
    }

    /// [`Circuit::ac_sweep`] with an explicit linear-solver backend. On
    /// the sparse backend the symbolic analysis runs once for the whole
    /// sweep; every frequency point is a numeric refactor over the cached
    /// pattern.
    ///
    /// # Errors
    ///
    /// See [`Circuit::ac_sweep`].
    pub fn ac_sweep_with(
        &self,
        op: &DcSolution,
        freqs_hz: &[f64],
        backend: SolverBackend,
    ) -> Result<Vec<AcSolution>, NetError> {
        let layout = MnaLayout::build(self);
        let n = layout.n_unknowns;
        let mut out = Vec::with_capacity(freqs_hz.len());
        let mut sys = MnaSystem::<Complex64>::new(n, backend.use_sparse(n), |st| {
            assemble_ac(self, &layout, op, 1.0, st)
        });
        for &f in freqs_hz {
            let omega = 2.0 * std::f64::consts::PI * f;
            sys.assemble(|st| assemble_ac(self, &layout, op, omega, st));
            sys.factor(true)?;
            let x = sys.solve_rhs()?.clone();
            out.push(AcSolution {
                layout: layout.clone(),
                x,
                omega,
            });
        }
        Ok(out)
    }

    /// Convenience: AC transfer function from the AC stimulus to one
    /// output node, over a list of frequencies.
    ///
    /// # Errors
    ///
    /// See [`Circuit::ac_sweep`].
    pub fn ac_transfer(
        &self,
        op: &DcSolution,
        output: NodeId,
        freqs_hz: &[f64],
    ) -> Result<Vec<Complex64>, NetError> {
        Ok(self
            .ac_sweep(op, freqs_hz)?
            .iter()
            .map(|s| s.voltage(output))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_low_pass_ac() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", a, Circuit::GROUND, 0.0, 1.0)
            .unwrap();
        ckt.resistor("R1", a, out, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e-3); // ≈ 159 Hz
        let h = ckt.ac_transfer(&op, out, &[1.0, f0, 100.0 * f0]).unwrap();
        assert!((h[0].abs() - 1.0).abs() < 1e-3);
        assert!((h[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!(h[2].abs() < 0.011);
        // Phase at cutoff is −45°.
        assert!((h[1].arg().to_degrees() + 45.0).abs() < 0.1);
    }

    #[test]
    fn rlc_resonance() {
        // Series RLC, output across C: peak near f₀ with gain ≈ Q.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", a, Circuit::GROUND, 0.0, 1.0)
            .unwrap();
        ckt.resistor("R1", a, b, 10.0).unwrap();
        ckt.inductor("L1", b, out, 1e-3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-6).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        let q = (1e-3f64 / 1e-6).sqrt() / 10.0; // √(L/C)/R ≈ 3.16
        let h = ckt.ac_transfer(&op, out, &[f0]).unwrap();
        assert!(
            (h[0].abs() - q).abs() / q < 0.01,
            "peak {} vs Q {q}",
            h[0].abs()
        );
    }

    #[test]
    fn diode_small_signal_resistance() {
        // Diode biased at ~1 mA has r_d = nVt/I ≈ 26 Ω; an AC divider with
        // a series resistor confirms the linearized conductance.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source_ac("V1", a, Circuit::GROUND, 5.0, 1.0)
            .unwrap();
        ckt.resistor("R1", a, d, 4.3e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let id = (5.0 - op.voltage(d)) / 4.3e3;
        let rd = 0.02585 / id;
        let h = ckt.ac_transfer(&op, d, &[1.0]).unwrap();
        let expected = rd / (rd + 4.3e3);
        assert!(
            (h[0].abs() - expected).abs() / expected < 0.01,
            "{} vs {expected}",
            h[0].abs()
        );
    }

    #[test]
    fn current_source_stimulus() {
        // A current source with no AC magnitude is no stimulus: the
        // sweep reads zero. `current_source_ac_magnitude_is_a_stimulus`
        // covers a source that has one.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.current_source("I1", Circuit::GROUND, a, 0.0).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 2e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let h = ckt.ac_transfer(&op, a, &[100.0]).unwrap();
        assert_eq!(h[0].abs(), 0.0);
    }

    #[test]
    fn current_source_ac_magnitude_is_a_stimulus() {
        // 1 mA of AC current from ground into a 2 kΩ load: 2 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let input = ckt.external_input();
        ckt.current_source_wave("I1", Circuit::GROUND, a, crate::Waveform::External(input))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 2e3).unwrap();
        assert_eq!(ckt.set_external_ac_magnitude(input, 1e-3), 1);
        let op = ckt.dc_operating_point().unwrap();
        let h = ckt.ac_transfer(&op, a, &[100.0]).unwrap();
        assert!(
            (h[0].re - 2.0).abs() < 1e-12 && h[0].im.abs() < 1e-12,
            "{h:?}"
        );
    }

    /// A 10 V source with a unit AC magnitude, a 1 Ω / 1 GΩ switch
    /// (initially on) and a 1 kΩ load.
    fn switched_load() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", a, Circuit::GROUND, 10.0, 1.0)
            .unwrap();
        ckt.switch("S1", a, out, 1.0, 1e9, true).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        (ckt, out)
    }

    #[test]
    fn ac_linearizes_at_the_solved_switch_states() {
        let (ckt, out) = switched_load();
        let on = ckt.dc_operating_point().unwrap();
        let h_on = ckt.ac_transfer(&on, out, &[1e3]).unwrap()[0];
        assert!((h_on.abs() - 1e3 / 1001.0).abs() < 1e-12, "{h_on:?}");
        let off = ckt
            .dc_operating_point_with(&[], &[false, false, false])
            .unwrap();
        let h_off = ckt.ac_transfer(&off, out, &[1e3]).unwrap()[0];
        assert!((h_off.abs() - 1e3 / (1e9 + 1e3)).abs() < 1e-18, "{h_off:?}");
    }

    #[test]
    fn branch_current_of_a_foreign_element_is_an_error() {
        let mut big = Circuit::new();
        let a = big.node("a");
        for k in 0..5 {
            big.resistor(format!("R{k}"), a, Circuit::GROUND, 1e3)
                .unwrap();
        }
        let foreign = big.voltage_source("V", a, Circuit::GROUND, 1.0).unwrap();
        let (ckt, _) = switched_load();
        let op = ckt.dc_operating_point().unwrap();
        let sol = &ckt.ac_sweep(&op, &[1e3]).unwrap()[0];
        assert!(matches!(
            sol.branch_current(foreign),
            Err(NetError::UnknownElement { index: 5, .. })
        ));
    }

    #[test]
    fn vcvs_in_ac() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", inp, Circuit::GROUND, 0.0, 1.0)
            .unwrap();
        ckt.vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, -10.0)
            .unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let h = ckt.ac_transfer(&op, out, &[1e3]).unwrap();
        assert!((h[0].re + 10.0).abs() < 1e-9);
        assert!(h[0].im.abs() < 1e-9);
    }

    #[test]
    fn inductor_blocks_high_frequencies() {
        // RL high-pass: output across L... actually L in shunt blocks lows.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", a, Circuit::GROUND, 0.0, 1.0)
            .unwrap();
        ckt.resistor("R1", a, out, 100.0).unwrap();
        ckt.inductor("L1", out, Circuit::GROUND, 1e-3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let fc = 100.0 / (2.0 * std::f64::consts::PI * 1e-3); // R/(2πL)
        let h = ckt
            .ac_transfer(&op, out, &[fc / 100.0, fc, fc * 100.0])
            .unwrap();
        assert!(h[0].abs() < 0.02); // low f: inductor shorts output
        assert!((h[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        assert!(h[2].abs() > 0.99); // high f: inductor open
    }
}
