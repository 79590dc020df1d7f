//! Filter blocks: continuous-time LTI filters embedded per the paper's
//! phase-1 execution model, and discrete FIR filters for the dataflow
//! (DSP) side of Figure 1.

use ams_core::{AcIo, CoreError, CtSolver, LtiCtSolver, TdfIn, TdfIo, TdfModule, TdfOut, TdfSetup};
use ams_kernel::SimTime;
use ams_lti::{Discretization, TransferFunction};
use ams_math::Complex64;
use std::collections::VecDeque;

/// A continuous-time LTI filter defined by a Laplace transfer function,
/// executed with one fixed step per TDF sample (the "predefined linear
/// operator" of phase 1). Contributes its exact `H(jω)` in AC analysis.
pub struct LtiFilter {
    inp: TdfIn,
    out: TdfOut,
    tf: TransferFunction,
    solver: LtiCtSolver,
    timestep: Option<SimTime>,
}

impl LtiFilter {
    /// Creates a filter from a (proper) transfer function.
    ///
    /// # Errors
    ///
    /// Fails for improper transfer functions.
    pub fn new(
        inp: TdfIn,
        out: TdfOut,
        tf: TransferFunction,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let solver = LtiCtSolver::from_transfer_function(&tf, Discretization::Bilinear)?;
        Ok(LtiFilter {
            inp,
            out,
            tf,
            solver,
            timestep,
        })
    }

    /// Convenience: first-order low-pass with cutoff `f_hz`.
    ///
    /// # Errors
    ///
    /// Fails for a non-positive cutoff.
    pub fn low_pass1(
        inp: TdfIn,
        out: TdfOut,
        f_hz: f64,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let tf = TransferFunction::low_pass1(2.0 * std::f64::consts::PI * f_hz)
            .map_err(|e| CoreError::solver("low_pass1", e))?;
        LtiFilter::new(inp, out, tf, timestep)
    }

    /// Convenience: second-order low-pass (biquad).
    ///
    /// # Errors
    ///
    /// Fails for non-positive parameters.
    pub fn biquad_low_pass(
        inp: TdfIn,
        out: TdfOut,
        f_hz: f64,
        q: f64,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let tf = TransferFunction::low_pass2(2.0 * std::f64::consts::PI * f_hz, q)
            .map_err(|e| CoreError::solver("biquad_low_pass", e))?;
        LtiFilter::new(inp, out, tf, timestep)
    }

    /// Convenience: second-order band-pass.
    ///
    /// # Errors
    ///
    /// Fails for non-positive parameters.
    pub fn biquad_band_pass(
        inp: TdfIn,
        out: TdfOut,
        f_hz: f64,
        q: f64,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let tf = TransferFunction::band_pass2(2.0 * std::f64::consts::PI * f_hz, q)
            .map_err(|e| CoreError::solver("biquad_band_pass", e))?;
        LtiFilter::new(inp, out, tf, timestep)
    }

    /// Convenience: Butterworth low-pass of arbitrary order.
    ///
    /// # Errors
    ///
    /// Fails for order 0 or a non-positive cutoff.
    pub fn butterworth(
        inp: TdfIn,
        out: TdfOut,
        order: usize,
        f_hz: f64,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let zp = ams_lti::ZeroPole::butterworth(order, 2.0 * std::f64::consts::PI * f_hz)
            .map_err(|e| CoreError::solver("butterworth", e))?;
        let tf = zp
            .to_transfer_function()
            .map_err(|e| CoreError::solver("butterworth", e))?;
        LtiFilter::new(inp, out, tf, timestep)
    }

    /// Convenience: Chebyshev type-I low-pass with `ripple_db` passband
    /// ripple.
    ///
    /// # Errors
    ///
    /// Fails for order 0, a non-positive cutoff, or non-positive ripple.
    pub fn chebyshev1(
        inp: TdfIn,
        out: TdfOut,
        order: usize,
        f_hz: f64,
        ripple_db: f64,
        timestep: Option<SimTime>,
    ) -> Result<Self, CoreError> {
        let zp = ams_lti::ZeroPole::chebyshev1(order, 2.0 * std::f64::consts::PI * f_hz, ripple_db)
            .map_err(|e| CoreError::solver("chebyshev1", e))?;
        let tf = zp
            .to_transfer_function()
            .map_err(|e| CoreError::solver("chebyshev1", e))?;
        LtiFilter::new(inp, out, tf, timestep)
    }

    /// The underlying transfer function.
    pub fn transfer_function(&self) -> &TransferFunction {
        &self.tf
    }
}

impl TdfModule for LtiFilter {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
        if let Some(ts) = self.timestep {
            cfg.set_timestep(ts);
        }
    }
    fn initialize(&mut self, _init: &mut ams_core::TdfInit<'_>) -> Result<(), CoreError> {
        self.solver.initialize(&[0.0])
    }
    fn reset(&mut self) {
        self.solver
            .initialize(&[0.0])
            .expect("lti solver re-initialization");
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let u = io.read1(self.inp);
        let mut y = [0.0];
        let step = io.timestep_exact();
        self.solver
            .advance_to(io.time_exact() + step, step, &[u], &mut y)?;
        io.write1(self.out, y[0]);
        Ok(())
    }
    fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
        ac.set_gain(self.inp, self.out, self.tf.freq_response(ac.omega()));
    }
}

impl std::fmt::Debug for LtiFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LtiFilter({})", self.tf)
    }
}

/// A discrete-time FIR filter `y[n] = Σ taps[k]·x[n−k]` — a dataflow DSP
/// block (the "digital filters" of Figure 1).
#[derive(Debug, Clone)]
pub struct FirFilter {
    inp: TdfIn,
    out: TdfOut,
    taps: Vec<f64>,
    line: VecDeque<f64>,
}

impl FirFilter {
    /// Creates a FIR filter with the given impulse response.
    ///
    /// # Panics
    ///
    /// Panics on an empty tap list.
    pub fn new(inp: TdfIn, out: TdfOut, taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "fir filter needs at least one tap");
        let line = VecDeque::from(vec![0.0; taps.len()]);
        FirFilter {
            inp,
            out,
            taps,
            line,
        }
    }

    /// A moving-average filter of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn moving_average(inp: TdfIn, out: TdfOut, n: usize) -> Self {
        assert!(n > 0, "moving average length must be at least 1");
        FirFilter::new(inp, out, vec![1.0 / n as f64; n])
    }

    /// Windowed-sinc low-pass design: `n` taps, cutoff as a fraction of
    /// the sampling rate (0 < `fc_norm` < 0.5), Hamming window.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range parameters.
    pub fn lowpass_design(inp: TdfIn, out: TdfOut, n: usize, fc_norm: f64) -> Self {
        assert!(n >= 3, "need at least 3 taps");
        assert!(
            fc_norm > 0.0 && fc_norm < 0.5,
            "normalized cutoff must be in (0, 0.5)"
        );
        let m = (n - 1) as f64;
        let mut taps = Vec::with_capacity(n);
        for i in 0..n {
            let x = i as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * fc_norm
            } else {
                (2.0 * std::f64::consts::PI * fc_norm * x).sin() / (std::f64::consts::PI * x)
            };
            let window = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / m).cos();
            taps.push(sinc * window);
        }
        // Normalize DC gain to 1.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        FirFilter::new(inp, out, taps)
    }

    /// The filter's impulse response.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }
}

impl TdfModule for FirFilter {
    fn setup(&mut self, cfg: &mut TdfSetup) {
        cfg.input(self.inp);
        cfg.output(self.out);
    }
    fn reset(&mut self) {
        self.line.iter_mut().for_each(|v| *v = 0.0);
    }

    fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
        let x = io.read1(self.inp);
        self.line.pop_back();
        self.line.push_front(x);
        let y: f64 = self
            .taps
            .iter()
            .zip(self.line.iter())
            .map(|(t, v)| t * v)
            .sum();
        io.write1(self.out, y);
        Ok(())
    }
    fn ac_processing(&mut self, ac: &mut AcIo<'_>) {
        // Discrete response at the module's sample rate is not known at
        // stamp time without the timestep; approximate with the DC gain
        // for ω → 0 only if the caller sweeps well below Nyquist. We
        // stamp the exact DTFT using the timestep captured at setup —
        // unavailable here — so we conservatively stamp the DC gain.
        let dc: f64 = self.taps.iter().sum();
        ac.set_gain(self.inp, self.out, Complex64::from_real(dc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{ConstSource, SineSource};
    use ams_core::TdfGraph;

    #[test]
    fn lti_filter_settles_to_dc_gain() {
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "src",
            ConstSource::new(x.writer(), 2.0, Some(SimTime::from_us(10))),
        );
        g.add_module(
            "lp",
            LtiFilter::low_pass1(x.reader(), y.writer(), 100.0, None).unwrap(),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(10_000).unwrap(); // 100 ms ≫ τ = 1.6 ms
        let last = *probe.values().last().unwrap();
        assert!((last - 2.0).abs() < 1e-6, "settled to {last}");
    }

    #[test]
    fn lti_filter_attenuates_above_cutoff() {
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        let probe = g.probe(y);
        // 10 kHz sine through a 100 Hz low-pass: ~100× attenuation.
        g.add_module(
            "src",
            SineSource::new(x.writer(), 10_000.0, 1.0, Some(SimTime::from_us(1))),
        );
        g.add_module(
            "lp",
            LtiFilter::low_pass1(x.reader(), y.writer(), 100.0, None).unwrap(),
        );
        let mut c = g.elaborate().unwrap();
        c.run_standalone(20_000).unwrap(); // 20 ms
        let tail: Vec<f64> = probe.values().split_off(10_000);
        let peak = tail.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(peak < 0.02, "peak {peak}");
    }

    #[test]
    fn butterworth_ac_shape() {
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        g.add_module(
            "src",
            SineSource::new(x.writer(), 1.0, 1.0, Some(SimTime::from_us(1))).with_ac_magnitude(1.0),
        );
        g.add_module(
            "bw",
            LtiFilter::butterworth(x.reader(), y.writer(), 4, 1000.0, None).unwrap(),
        );
        let mut c = g.elaborate().unwrap();
        let ac = c.ac_analysis(&[100.0, 1000.0, 10_000.0]).unwrap();
        let resp = ac.response(y);
        assert!((resp[0].abs() - 1.0).abs() < 1e-3); // passband
        assert!((resp[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6); // cutoff
        let att_db = -20.0 * resp[2].abs().log10();
        assert!((att_db - 80.0).abs() < 1.0, "4th order: {att_db} dB/decade");
    }

    #[test]
    fn fir_moving_average_smooths() {
        struct Alt {
            out: TdfOut,
            v: f64,
        }
        impl TdfModule for Alt {
            fn setup(&mut self, cfg: &mut TdfSetup) {
                cfg.output(self.out);
                cfg.set_timestep(SimTime::from_us(1));
            }
            fn processing(&mut self, io: &mut TdfIo<'_>) -> Result<(), CoreError> {
                io.write1(self.out, self.v);
                self.v = -self.v;
                Ok(())
            }
        }
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "alt",
            Alt {
                out: x.writer(),
                v: 1.0,
            },
        );
        g.add_module("ma", FirFilter::moving_average(x.reader(), y.writer(), 2));
        let mut c = g.elaborate().unwrap();
        c.run_standalone(10).unwrap();
        // After warm-up, (+1 −1)/2 = 0.
        assert!(probe.values()[2..].iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn fir_lowpass_design_dc_gain_unity() {
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        let probe = g.probe(y);
        g.add_module(
            "one",
            ConstSource::new(x.writer(), 1.0, Some(SimTime::from_us(1))),
        );
        let fir = FirFilter::lowpass_design(x.reader(), y.writer(), 31, 0.1);
        assert!((fir.taps().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        g.add_module("fir", fir);
        let mut c = g.elaborate().unwrap();
        c.run_standalone(100).unwrap();
        assert!((probe.values().last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_fir_panics() {
        let mut g = TdfGraph::new("t");
        let x = g.signal("x");
        let y = g.signal("y");
        let _ = FirFilter::new(x.reader(), y.writer(), vec![]);
    }
}
