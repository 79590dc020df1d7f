//! The fixed-step LTI time-domain solver.
//!
//! [`LtiSolver`] wraps a discretized state-space model so a TDF module can
//! advance its embedded continuous dynamics by exactly one sample period
//! per `processing()` call — the paper's phase-1 execution model
//! ("continuous behaviour encapsulated in static dataflow modules",
//! fixed-timestep integration "synchronized with the rate at which samples
//! are handled by the SDF model").

use crate::{discretize, DiscreteSystem, Discretization, StateSpace};
use ams_math::MathError;

/// A stepping solver for one linear time-invariant block.
///
/// # Example
///
/// A unity-gain RC low-pass driven by a unit step:
///
/// ```
/// use ams_lti::{Discretization, LtiSolver, TransferFunction};
///
/// # fn main() -> Result<(), ams_math::MathError> {
/// let tf = TransferFunction::low_pass1(1.0)?; // τ = 1 s
/// let mut solver = LtiSolver::from_transfer_function(&tf, 0.001, Discretization::Zoh)?;
/// let mut y = 0.0;
/// for _ in 0..1000 {
///     y = solver.step(&[1.0])[0]; // 1 simulated second
/// }
/// assert!((y - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LtiSolver {
    ss: StateSpace,
    disc: DiscreteSystem,
    x: Vec<f64>,
    /// Scratch for the next state, swapped with `x` after each step.
    x_next: Vec<f64>,
    y: Vec<f64>,
    steps_taken: u64,
}

impl LtiSolver {
    /// Creates a solver for a state-space model with step `h`.
    ///
    /// # Errors
    ///
    /// Propagates discretization failures (invalid step, singular
    /// implicit matrix).
    pub fn new(ss: StateSpace, h: f64, method: Discretization) -> Result<Self, MathError> {
        let disc = discretize(&ss, h, method)?;
        let n = ss.order();
        let p = ss.outputs();
        Ok(LtiSolver {
            ss,
            disc,
            x: vec![0.0; n],
            x_next: vec![0.0; n],
            y: vec![0.0; p],
            steps_taken: 0,
        })
    }

    /// Creates a solver from a SISO transfer function.
    ///
    /// # Errors
    ///
    /// Propagates conversion (improper transfer function) and
    /// discretization failures.
    pub fn from_transfer_function(
        tf: &crate::TransferFunction,
        h: f64,
        method: Discretization,
    ) -> Result<Self, MathError> {
        LtiSolver::new(tf.to_state_space()?, h, method)
    }

    /// The underlying continuous model.
    pub fn state_space(&self) -> &StateSpace {
        &self.ss
    }

    /// The current step size.
    pub fn step_size(&self) -> f64 {
        self.disc.h
    }

    /// The discretization rule in use.
    pub fn method(&self) -> Discretization {
        self.disc.method
    }

    /// Number of steps taken since creation or the last reset.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Current state vector.
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Overwrites the state (e.g. to apply a DC operating point before
    /// transient simulation — the paper's "consistent initial state").
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the model order.
    pub fn set_state(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.x.len(), "state length mismatch");
        self.x.copy_from_slice(x);
    }

    /// Re-discretizes for a new step size, preserving the state.
    ///
    /// # Errors
    ///
    /// Propagates discretization failures.
    pub fn set_step_size(&mut self, h: f64) -> Result<(), MathError> {
        self.disc = discretize(&self.ss, h, self.disc.method)?;
        Ok(())
    }

    /// Initializes the state to the DC equilibrium for a constant input
    /// `u` (solves `A·x = −B·u`), so transient simulation starts from the
    /// quiescent point.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::SingularMatrix`] for systems with poles at the
    /// origin (no unique equilibrium).
    pub fn initialize_dc(&mut self, u: &[f64]) -> Result<(), MathError> {
        let n = self.ss.order();
        if n == 0 {
            return Ok(());
        }
        let lu = ams_math::Lu::factor(self.ss.a())?;
        // rhs = -B·u
        let mut rhs = ams_math::DVec::zeros(n);
        for i in 0..n {
            let mut acc = 0.0;
            for (j, &uj) in u.iter().enumerate() {
                acc += self.ss.b()[(i, j)] * uj;
            }
            rhs[i] = -acc;
        }
        let x = lu.solve(&rhs)?;
        self.x.copy_from_slice(x.as_slice());
        Ok(())
    }

    /// Advances the model one step with input `u` (held for the step) and
    /// returns the outputs at the new time.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` differs from the model's input count.
    #[allow(clippy::needless_range_loop)]
    pub fn step(&mut self, u: &[f64]) -> &[f64] {
        let n = self.x.len();
        let m = self.ss.inputs();
        assert_eq!(u.len(), m, "input length mismatch");
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += self.disc.f[(i, j)] * self.x[j];
            }
            for j in 0..m {
                acc += self.disc.g[(i, j)] * u[j];
            }
            self.x_next[i] = acc;
        }
        std::mem::swap(&mut self.x, &mut self.x_next);
        // y = C·x⁺ + D·u
        for i in 0..self.y.len() {
            let mut acc = 0.0;
            for j in 0..n {
                acc += self.disc.c[(i, j)] * self.x[j];
            }
            for j in 0..m {
                acc += self.disc.d[(i, j)] * u[j];
            }
            self.y[i] = acc;
        }
        self.steps_taken += 1;
        &self.y
    }

    /// Resets state and step counter to zero.
    pub fn reset(&mut self) {
        self.x.iter_mut().for_each(|v| *v = 0.0);
        self.y.iter_mut().for_each(|v| *v = 0.0);
        self.steps_taken = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransferFunction;

    #[test]
    fn rc_step_response() {
        let tf = TransferFunction::low_pass1(10.0).unwrap();
        let mut s = LtiSolver::from_transfer_function(&tf, 1e-4, Discretization::Bilinear).unwrap();
        let mut y = 0.0;
        for _ in 0..10_000 {
            y = s.step(&[1.0])[0]; // 1 s total, τ = 0.1 s
        }
        assert!((y - 1.0).abs() < 1e-4);
        assert_eq!(s.steps_taken(), 10_000);
    }

    #[test]
    fn resonator_rings_at_natural_frequency() {
        // Underdamped 2nd order (ω₀ = 2π·10 Hz, Q = 20), impulse-ish kick.
        let w0 = 2.0 * std::f64::consts::PI * 10.0;
        let tf = TransferFunction::low_pass2(w0, 20.0).unwrap();
        let h = 1e-4;
        let mut s = LtiSolver::from_transfer_function(&tf, h, Discretization::Zoh).unwrap();
        // Drive with a short pulse then observe zero crossings.
        let mut samples = Vec::new();
        for k in 0..20_000 {
            let u = if k < 10 { 100.0 } else { 0.0 };
            samples.push(s.step(&[u])[0]);
        }
        // Count zero crossings in the free-ringing tail → frequency.
        let tail = &samples[1000..];
        let crossings = tail
            .windows(2)
            .filter(|w| w[0] < 0.0 && w[1] >= 0.0)
            .count();
        let duration = tail.len() as f64 * h;
        let freq = crossings as f64 / duration;
        assert!((freq - 10.0).abs() < 0.5, "ring frequency {freq} Hz");
    }

    #[test]
    fn dc_initialization_removes_startup_transient() {
        let tf = TransferFunction::low_pass1(100.0).unwrap();
        let mut s = LtiSolver::from_transfer_function(&tf, 1e-5, Discretization::Bilinear).unwrap();
        s.initialize_dc(&[2.0]).unwrap();
        // Already at equilibrium: output stays at 2.0 from the first step.
        for _ in 0..100 {
            let y = s.step(&[2.0])[0];
            assert!((y - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn set_step_size_preserves_state() {
        let tf = TransferFunction::low_pass1(1.0).unwrap();
        let mut s = LtiSolver::from_transfer_function(&tf, 1e-3, Discretization::Bilinear).unwrap();
        for _ in 0..500 {
            s.step(&[1.0]);
        }
        let x_before = s.state().to_vec();
        s.set_step_size(1e-4).unwrap();
        assert_eq!(s.state(), x_before.as_slice());
        assert_eq!(s.step_size(), 1e-4);
    }

    #[test]
    fn reset_zeroes_everything() {
        let tf = TransferFunction::low_pass1(1.0).unwrap();
        let mut s = LtiSolver::from_transfer_function(&tf, 0.01, Discretization::Zoh).unwrap();
        s.step(&[5.0]);
        s.reset();
        assert_eq!(s.state(), &[0.0]);
        assert_eq!(s.steps_taken(), 0);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_input_length_panics() {
        let tf = TransferFunction::low_pass1(1.0).unwrap();
        let mut s = LtiSolver::from_transfer_function(&tf, 0.01, Discretization::Zoh).unwrap();
        let _ = s.step(&[1.0, 2.0]);
    }
}
