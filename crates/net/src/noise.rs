//! Small-signal noise analysis.
//!
//! Phase 1 of the paper includes "transient, small-signal AC **and noise**
//! simulation". Each resistive element contributes thermal noise
//! (`4kT/R` A²/Hz as a parallel current source) and each diode shot noise
//! (`2qI_D`). The output noise spectral density is computed with the
//! adjoint (transpose) method: one factorization of `Aᵀ` per frequency
//! yields the transfer from *every* noise injection point to the output in
//! a single solve.

use crate::ac::assemble_ac;
use crate::assembly::{MnaSystem, SolverBackend};
use crate::dcop::{diode_iv, DcSolution};
use crate::devices::nmos_linearize;
use crate::mna::MnaLayout;
use crate::{Circuit, ElementKind, NetError, NodeId};
use ams_math::{Complex64, DVec};

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;
/// Elementary charge (C).
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;
/// Analysis temperature (K).
pub const NOISE_TEMP: f64 = 300.0;

/// Noise contribution of one element at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseContribution {
    /// Element name.
    pub element: String,
    /// Contribution to the output noise voltage PSD, V²/Hz.
    pub output_psd: f64,
}

/// Output-referred noise at one frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisePoint {
    /// Frequency in Hz.
    pub freq_hz: f64,
    /// Total output noise voltage PSD, V²/Hz.
    pub total_psd: f64,
    /// Per-element breakdown (same order as circuit elements that
    /// generate noise).
    pub contributions: Vec<NoiseContribution>,
}

impl NoisePoint {
    /// Output noise voltage spectral density, V/√Hz.
    pub fn density(&self) -> f64 {
        self.total_psd.sqrt()
    }
}

/// Result of a noise sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseAnalysis {
    /// One point per analysis frequency.
    pub points: Vec<NoisePoint>,
}

impl NoiseAnalysis {
    /// Integrates the total output noise power over the analysis band
    /// using trapezoidal integration, returning RMS volts.
    pub fn integrated_rms(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let mut power = 0.0;
        for w in self.points.windows(2) {
            let df = w[1].freq_hz - w[0].freq_hz;
            power += 0.5 * (w[0].total_psd + w[1].total_psd) * df;
        }
        power.sqrt()
    }
}

impl Circuit {
    /// Computes the output-referred noise voltage PSD at `output` over the
    /// given frequencies, linearized at the operating point `op`.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] if `output` is ground or out of range.
    /// * [`NetError::Singular`] for unsolvable topologies.
    pub fn noise_analysis(
        &self,
        op: &DcSolution,
        output: NodeId,
        freqs_hz: &[f64],
    ) -> Result<NoiseAnalysis, NetError> {
        self.noise_analysis_with(op, output, freqs_hz, SolverBackend::Auto)
    }

    /// [`Circuit::noise_analysis`] with an explicit linear-solver
    /// backend. The sparse backend solves the adjoint system directly
    /// over the factors of `A` (a transpose solve) — the matrix is never
    /// explicitly transposed and the symbolic analysis is shared by the
    /// whole sweep.
    ///
    /// # Errors
    ///
    /// See [`Circuit::noise_analysis`].
    pub fn noise_analysis_with(
        &self,
        op: &DcSolution,
        output: NodeId,
        freqs_hz: &[f64],
        backend: SolverBackend,
    ) -> Result<NoiseAnalysis, NetError> {
        let layout = MnaLayout::build(self);
        let out_var = layout.node_var(output).ok_or(NetError::UnknownNode {
            index: output.index(),
        })?;
        if output.index() >= layout.n_nodes {
            return Err(NetError::UnknownNode {
                index: output.index(),
            });
        }
        let n = layout.n_unknowns;

        // Collect noise generators: (element index, p, n, PSD in A²/Hz).
        let mut generators = Vec::new();
        for (idx, e) in self.elements().iter().enumerate() {
            match &e.kind {
                ElementKind::Resistor { ohms } => {
                    generators.push((idx, e.p, e.n, 4.0 * BOLTZMANN * NOISE_TEMP / ohms));
                }
                ElementKind::Switch { r_on, r_off, .. } => {
                    let r = if op.switches[idx] { *r_on } else { *r_off };
                    generators.push((idx, e.p, e.n, 4.0 * BOLTZMANN * NOISE_TEMP / r));
                }
                ElementKind::Diode { is_sat, n } => {
                    let (i, _) = diode_iv(op.voltage(e.p) - op.voltage(e.n), *is_sat, *n);
                    generators.push((idx, e.p, e.n, 2.0 * ELEMENTARY_CHARGE * i.abs()));
                }
                ElementKind::Nmos {
                    gate,
                    kp,
                    vt,
                    lambda,
                } => {
                    // Channel thermal noise: 8kT·gm/3 in saturation.
                    let (vg, vd, vs) = (op.voltage(*gate), op.voltage(e.p), op.voltage(e.n));
                    let gm = nmos_linearize(vg, vd, vs, *kp, *vt, *lambda).a_g.abs();
                    generators.push((idx, e.p, e.n, 8.0 / 3.0 * BOLTZMANN * NOISE_TEMP * gm));
                }
                _ => {}
            }
        }

        let mut points = Vec::with_capacity(freqs_hz.len());
        let mut sys = MnaSystem::<Complex64>::new(n, backend.use_sparse(n), |st| {
            assemble_ac(self, &layout, op, 1.0, st)
        });
        let mut e_out = DVec::<Complex64>::zeros(n);
        e_out[out_var] = Complex64::ONE;
        for &f in freqs_hz {
            let omega = 2.0 * std::f64::consts::PI * f;
            sys.assemble(|st| assemble_ac(self, &layout, op, omega, st));
            sys.factor(true)?;
            // Adjoint: solve Aᵀ·y = e_out; the transfer impedance from a
            // unit current injected from p→n to V(out) is y(n) − y(p).
            let y = sys.solve_transpose(&e_out)?;

            let mut total = 0.0;
            let mut contributions = Vec::with_capacity(generators.len());
            for &(idx, p, nn, psd) in &generators {
                let yp = layout.node_var(p).map_or(Complex64::ZERO, |i| y[i]);
                let yn = layout.node_var(nn).map_or(Complex64::ZERO, |i| y[i]);
                let z = yn - yp;
                let contrib = z.norm_sqr() * psd;
                total += contrib;
                contributions.push(NoiseContribution {
                    element: self.elements()[idx].name.clone(),
                    output_psd: contrib,
                });
            }
            points.push(NoisePoint {
                freq_hz: f,
                total_psd: total,
                contributions,
            });
        }
        Ok(NoiseAnalysis { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistor_thermal_noise_floor() {
        // A 1 kΩ resistor to ground, driven by an ideal source through a
        // 0-impedance: the output node sees only R's own noise with the
        // source shorting it… instead use an open R to ground: V_out PSD =
        // 4kTR.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        // A large capacitor? No: plain R needs a defined node — R to
        // ground alone gives V(out) = 0 DC and PSD = 4kTR·|Z|²/R²  with
        // Z = R: PSD = 4kTR.
        let op = ckt.dc_operating_point().unwrap();
        let na = ckt.noise_analysis(&op, out, &[1e3]).unwrap();
        let expected = 4.0 * BOLTZMANN * NOISE_TEMP * 1e3; // ≈ 1.66e-17 V²/Hz
        assert!(
            (na.points[0].total_psd - expected).abs() / expected < 1e-9,
            "{} vs {expected}",
            na.points[0].total_psd
        );
    }

    #[test]
    fn divider_noise_is_parallel_resistance() {
        // Two resistors forming a divider from an ideal (noiseless) source:
        // output noise = 4kT·(R1 ∥ R2).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, out, 2e3).unwrap();
        ckt.resistor("R2", out, Circuit::GROUND, 2e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let na = ckt.noise_analysis(&op, out, &[1e3]).unwrap();
        let r_par = 1e3;
        let expected = 4.0 * BOLTZMANN * NOISE_TEMP * r_par;
        assert!(
            (na.points[0].total_psd - expected).abs() / expected < 1e-9,
            "{} vs {expected}",
            na.points[0].total_psd
        );
        // Both resistors contribute equally.
        let c = &na.points[0].contributions;
        assert_eq!(c.len(), 2);
        assert!((c[0].output_psd - c[1].output_psd).abs() / c[0].output_psd < 1e-9);
    }

    #[test]
    fn rc_filter_shapes_noise_and_integrates_to_kt_over_c() {
        // The classic kT/C result: total integrated noise of an RC filter
        // is √(kT/C), independent of R.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        ckt.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        // Integrate from near-DC to far beyond the corner (159 kHz).
        let freqs: Vec<f64> = (0..2000).map(|i| 10.0 * 1.01f64.powi(i)).collect();
        let na = ckt.noise_analysis(&op, out, &freqs).unwrap();
        let rms = na.integrated_rms();
        let expected = (BOLTZMANN * NOISE_TEMP / 1e-9).sqrt(); // ≈ 2.03 µV
        assert!(
            (rms - expected).abs() / expected < 0.05,
            "rms {rms} vs kT/C {expected}"
        );
    }

    #[test]
    fn diode_shot_noise_present_when_biased() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, 5.0).unwrap();
        ckt.resistor("R1", a, d, 4.3e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        let na = ckt.noise_analysis(&op, d, &[1e3]).unwrap();
        let shot = na.points[0]
            .contributions
            .iter()
            .find(|c| c.element == "D1")
            .unwrap();
        assert!(shot.output_psd > 0.0);
        // Shot noise through r_d ∥ R: sanity-check the order of magnitude.
        let id = (5.0 - op.voltage(d)) / 4.3e3;
        let rd = 0.02585 / id;
        let r_eff = rd * 4.3e3 / (rd + 4.3e3);
        let expected = 2.0 * ELEMENTARY_CHARGE * id * r_eff * r_eff;
        assert!(
            (shot.output_psd - expected).abs() / expected < 0.05,
            "{} vs {expected}",
            shot.output_psd
        );
    }

    #[test]
    fn noise_sees_the_solved_switch_states() {
        // 1 V source, 1 Ω / 1 GΩ switch (initially on), 1 kΩ load: the
        // output sees the switch's thermal noise in parallel with the
        // load's, so 4kT·(R_switch ∥ R_load) at either state.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.switch("S1", a, out, 1.0, 1e9, true).unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let psd =
            |op: &DcSolution| ckt.noise_analysis(op, out, &[1e3]).unwrap().points[0].total_psd;
        let expected = |r: f64| 4.0 * BOLTZMANN * NOISE_TEMP * (r * 1e3 / (r + 1e3));
        let on = ckt.dc_operating_point().unwrap();
        let off = ckt
            .dc_operating_point_with(&[], &[false, false, false])
            .unwrap();
        for (op, r) in [(&on, 1.0), (&off, 1e9)] {
            let (got, want) = (psd(op), expected(r));
            assert!((got - want).abs() / want < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn ground_output_rejected() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let op = ckt.dc_operating_point().unwrap();
        assert!(ckt.noise_analysis(&op, Circuit::GROUND, &[1e3]).is_err());
    }

    #[test]
    fn empty_band_integrates_to_zero() {
        let na = NoiseAnalysis { points: vec![] };
        assert_eq!(na.integrated_rms(), 0.0);
    }
}
