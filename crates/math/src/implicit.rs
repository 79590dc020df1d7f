//! Implicit integrators for stiff systems `ẋ = f(t, x)`.
//!
//! Power-electronics and automotive models "usually lead to stiff
//! nonlinear models that exhibit time constants whose values differ by
//! several orders of magnitude. This property imposes strong numerical
//! constraints to simulation algorithms" (paper §2). Explicit methods are
//! unstable on such systems unless the step tracks the *fastest* time
//! constant; the A-stable methods here (backward Euler, trapezoidal, BDF2)
//! remain stable at steps governed only by accuracy.
//!
//! Each step solves the implicit relation with the damped Newton engine
//! from [`crate::newton`]. A simple local-truncation-error controller
//! provides the variable-step mode required by the paper's phase 2.

use crate::newton::{self, NewtonOptions, NewtonWorkspace, NonlinearSystem};
use crate::ode::OdeRhs;
use crate::MathError;

/// The implicit discretization formulas available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImplicitMethod {
    /// Backward Euler — first order, L-stable, strongly damping.
    BackwardEuler,
    /// Trapezoidal rule — second order, A-stable, energy preserving
    /// (SPICE's default).
    #[default]
    Trapezoidal,
    /// Second-order backward differentiation formula — stiffly stable.
    Bdf2,
}

impl ImplicitMethod {
    /// The order of accuracy.
    pub fn order(self) -> u32 {
        match self {
            ImplicitMethod::BackwardEuler => 1,
            ImplicitMethod::Trapezoidal | ImplicitMethod::Bdf2 => 2,
        }
    }
}

/// Residual adapter: turns "advance one implicit step" into `F(x) = 0`
/// for the Newton solver.
struct StepResidual<'a> {
    f: &'a mut dyn OdeRhs,
    method: ImplicitMethod,
    t_new: f64,
    h: f64,
    x_prev: &'a [f64],
    /// For BDF2: the state one step before `x_prev` (same spacing `h`).
    x_prev2: Option<&'a [f64]>,
    /// For trapezoidal: f(t_prev, x_prev).
    f_prev: &'a [f64],
    scratch: Vec<f64>,
}

impl NonlinearSystem for StepResidual<'_> {
    fn dim(&self) -> usize {
        self.x_prev.len()
    }

    fn residual(&mut self, x: &[f64], out: &mut [f64]) {
        let n = self.dim();
        self.f.eval(self.t_new, x, &mut self.scratch);
        match self.method {
            ImplicitMethod::BackwardEuler => {
                for i in 0..n {
                    out[i] = x[i] - self.x_prev[i] - self.h * self.scratch[i];
                }
            }
            ImplicitMethod::Trapezoidal => {
                for i in 0..n {
                    out[i] =
                        x[i] - self.x_prev[i] - 0.5 * self.h * (self.scratch[i] + self.f_prev[i]);
                }
            }
            ImplicitMethod::Bdf2 => {
                let xp2 = self
                    .x_prev2
                    .expect("bdf2 residual requires two history states");
                for i in 0..n {
                    out[i] = x[i] - 4.0 / 3.0 * self.x_prev[i] + 1.0 / 3.0 * xp2[i]
                        - 2.0 / 3.0 * self.h * self.scratch[i];
                }
            }
        }
    }

    fn jacobian_key(&self) -> u64 {
        // FNV-1a over the quantities the step Jacobian depends on besides
        // `x`: step size, evaluation time, and the discretization formula.
        let mut k = 0xcbf2_9ce4_8422_2325u64;
        for bits in [self.h.to_bits(), self.t_new.to_bits(), self.method as u64] {
            k ^= bits;
            k = k.wrapping_mul(0x0000_0100_0000_01b3);
        }
        k
    }
}

/// A fixed-step implicit integrator.
///
/// BDF2 starts itself with one backward-Euler step and requires a uniform
/// step size thereafter.
#[derive(Debug)]
pub struct ImplicitStepper {
    method: ImplicitMethod,
    h: f64,
    newton: NewtonOptions,
    workspace: NewtonWorkspace,
    x_prev2: Option<Vec<f64>>,
    f_prev: Vec<f64>,
    have_f_prev: bool,
}

impl ImplicitStepper {
    /// Creates a stepper with step size `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not strictly positive and finite.
    pub fn new(method: ImplicitMethod, h: f64) -> Self {
        assert!(
            h > 0.0 && h.is_finite(),
            "step size must be positive and finite"
        );
        ImplicitStepper {
            method,
            h,
            newton: NewtonOptions::default(),
            workspace: NewtonWorkspace::new(),
            x_prev2: None,
            f_prev: Vec::new(),
            have_f_prev: false,
        }
    }

    /// The configured step size.
    pub fn step_size(&self) -> f64 {
        self.h
    }

    /// Resets the multistep history (call when the state jumps
    /// discontinuously, e.g. at a DE event).
    pub fn reset_history(&mut self) {
        self.x_prev2 = None;
        self.have_f_prev = false;
    }

    /// Advances `x` from `*t` to `*t + h` in place.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures ([`MathError::NoConvergence`],
    /// [`MathError::SingularMatrix`]).
    pub fn step(&mut self, f: &mut dyn OdeRhs, t: &mut f64, x: &mut [f64]) -> crate::Result<()> {
        let n = x.len();
        if self.f_prev.len() != n {
            self.f_prev = vec![0.0; n];
            self.have_f_prev = false;
            self.x_prev2 = None;
            self.workspace.reset();
        }
        if matches!(self.method, ImplicitMethod::Trapezoidal) && !self.have_f_prev {
            f.eval(*t, x, &mut self.f_prev);
            self.have_f_prev = true;
        }
        let x_prev = x.to_vec();

        // BDF2 needs two history points; bootstrap with backward Euler.
        let effective = match self.method {
            ImplicitMethod::Bdf2 if self.x_prev2.is_none() => ImplicitMethod::BackwardEuler,
            m => m,
        };

        let mut res = StepResidual {
            f,
            method: effective,
            t_new: *t + self.h,
            h: self.h,
            x_prev: &x_prev,
            x_prev2: self.x_prev2.as_deref(),
            f_prev: &self.f_prev,
            scratch: vec![0.0; n],
        };
        newton::solve_with(&mut res, x, &self.newton, &mut self.workspace)?;

        if matches!(self.method, ImplicitMethod::Trapezoidal) {
            f.eval(*t + self.h, x, &mut self.f_prev);
        }
        if matches!(self.method, ImplicitMethod::Bdf2) {
            self.x_prev2 = Some(x_prev);
        }
        *t += self.h;
        Ok(())
    }

    /// Integrates from `t0` to `t1`, returning the number of steps.
    ///
    /// The final step is shortened to land exactly on `t1` (the multistep
    /// history is reset for that step).
    ///
    /// # Errors
    ///
    /// Propagates step failures.
    pub fn integrate(
        &mut self,
        f: &mut dyn OdeRhs,
        t0: f64,
        t1: f64,
        x: &mut [f64],
    ) -> crate::Result<usize> {
        let mut t = t0;
        let mut steps = 0;
        let saved_h = self.h;
        while t < t1 {
            if t + self.h > t1 {
                self.h = t1 - t;
                self.reset_history();
                if self.h <= 0.0 {
                    break;
                }
            }
            self.step(f, &mut t, x)?;
            steps += 1;
        }
        self.h = saved_h;
        Ok(steps)
    }
}

/// Options for the variable-step stiff integrator.
#[derive(Debug, Clone, Copy)]
pub struct VariableStepOptions {
    /// Relative local-error tolerance.
    pub rel_tol: f64,
    /// Absolute local-error tolerance.
    pub abs_tol: f64,
    /// Minimum step before underflow is reported.
    pub min_step: f64,
    /// Maximum step.
    pub max_step: f64,
    /// Initial step.
    pub initial_step: f64,
}

impl Default for VariableStepOptions {
    fn default() -> Self {
        VariableStepOptions {
            rel_tol: 1e-4,
            abs_tol: 1e-7,
            min_step: 1e-15,
            max_step: f64::INFINITY,
            initial_step: 1e-6,
        }
    }
}

/// Statistics from a variable-step integration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VariableStepStats {
    /// Accepted steps.
    pub accepted: usize,
    /// Rejected steps (error too large, retried smaller).
    pub rejected: usize,
}

/// Variable-step stiff integration using step-doubling error control on
/// backward Euler.
///
/// Each accepted interval is computed twice — once with step `h`, once as
/// two steps of `h/2` — and the difference drives a first-order error
/// controller. This is the simplest robust LTE controller and realizes the
/// paper's phase-2 requirement of "simulation using variable time steps"
/// for stiff systems. (Experiment E3 benchmarks this against fixed-step
/// integration.)
///
/// # Errors
///
/// * [`MathError::StepSizeUnderflow`] when the controller cannot meet the
///   tolerance above `min_step`.
/// * Newton failures are handled by halving the step; persistent failure
///   surfaces as underflow.
pub fn integrate_variable(
    f: &mut dyn OdeRhs,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    opts: &VariableStepOptions,
) -> crate::Result<VariableStepStats> {
    if t1 < t0 {
        return Err(MathError::invalid("t1 must be >= t0"));
    }
    let n = x.len();
    let mut stats = VariableStepStats::default();
    let mut t = t0;
    let mut h = opts.initial_step.min((t1 - t0).max(opts.min_step));
    let newton = NewtonOptions::default();

    let mut x_full = vec![0.0; n];
    let mut x_half = vec![0.0; n];
    // One workspace across every step: a Jacobian factored for a rejected
    // step is reused on the retry when nothing changed.
    let mut ws = NewtonWorkspace::new();

    while t < t1 {
        if t + h > t1 {
            h = t1 - t;
        }
        // One full step.
        x_full.copy_from_slice(x);
        let ok_full = be_step(f, t, h, &mut x_full, &newton, &mut ws).is_ok();
        // Two half steps.
        x_half.copy_from_slice(x);
        let ok_half = be_step(f, t, h / 2.0, &mut x_half, &newton, &mut ws).is_ok()
            && be_step(f, t + h / 2.0, h / 2.0, &mut x_half, &newton, &mut ws).is_ok();

        if !(ok_full && ok_half) {
            h *= 0.25;
            stats.rejected += 1;
            if h < opts.min_step {
                return Err(MathError::StepSizeUnderflow { time: t, step: h });
            }
            continue;
        }

        // Error estimate: BE is first order, so err ≈ x_half - x_full.
        let mut err = 0.0f64;
        for i in 0..n {
            let scale = opts.abs_tol + opts.rel_tol * x_half[i].abs().max(x[i].abs());
            err = err.max(((x_half[i] - x_full[i]) / scale).abs());
        }

        if err <= 1.0 {
            // Accept: use the more accurate half-step solution with local
            // extrapolation (2·x_half − x_full is second-order accurate).
            for i in 0..n {
                x[i] = 2.0 * x_half[i] - x_full[i];
            }
            t += h;
            stats.accepted += 1;
            let grow = if err > 0.0 { (0.8 / err).min(4.0) } else { 4.0 };
            h = (h * grow).clamp(opts.min_step, opts.max_step);
        } else {
            stats.rejected += 1;
            h = (h * (0.8 / err).max(0.1)).max(opts.min_step);
            if h <= opts.min_step {
                return Err(MathError::StepSizeUnderflow { time: t, step: h });
            }
        }
    }
    Ok(stats)
}

/// Single backward-Euler step helper used by the variable-step controller.
fn be_step(
    f: &mut dyn OdeRhs,
    t: f64,
    h: f64,
    x: &mut [f64],
    newton: &NewtonOptions,
    ws: &mut NewtonWorkspace,
) -> crate::Result<()> {
    let x_prev = x.to_vec();
    let mut res = StepResidual {
        f,
        method: ImplicitMethod::BackwardEuler,
        t_new: t + h,
        h,
        x_prev: &x_prev,
        x_prev2: None,
        f_prev: &[],
        scratch: vec![0.0; x_prev.len()],
    };
    newton::solve_with(&mut res, x, newton, ws)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay(_t: f64, x: &[f64], dx: &mut [f64]) {
        dx[0] = -x[0];
    }

    /// Classic stiff test: ẋ = -1000(x - cos t) - sin t; exact x = cos t
    /// for x(0) = 1.
    fn stiff(t: f64, x: &[f64], dx: &mut [f64]) {
        dx[0] = -1000.0 * (x[0] - t.cos()) - t.sin();
    }

    #[test]
    fn backward_euler_is_stable_on_stiff_system_with_large_step() {
        // h·λ = 50 ≫ explicit stability limit (~2/1000); BE stays bounded.
        let mut x = vec![1.0];
        let mut s = ImplicitStepper::new(ImplicitMethod::BackwardEuler, 0.05);
        s.integrate(&mut stiff, 0.0, 1.0, &mut x).unwrap();
        assert!((x[0] - 1.0f64.cos()).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn trapezoidal_second_order() {
        let run = |h: f64| {
            let mut x = vec![1.0];
            let mut s = ImplicitStepper::new(ImplicitMethod::Trapezoidal, h);
            s.integrate(&mut decay, 0.0, 1.0, &mut x).unwrap();
            (x[0] - (-1.0f64).exp()).abs()
        };
        let ratio = run(1e-2) / run(5e-3);
        assert!((3.3..4.7).contains(&ratio), "trap order ratio {ratio}");
    }

    #[test]
    fn bdf2_second_order() {
        let run = |h: f64| {
            let mut x = vec![1.0];
            let mut s = ImplicitStepper::new(ImplicitMethod::Bdf2, h);
            s.integrate(&mut decay, 0.0, 1.0, &mut x).unwrap();
            (x[0] - (-1.0f64).exp()).abs()
        };
        let ratio = run(1e-2) / run(5e-3);
        assert!((3.0..5.0).contains(&ratio), "bdf2 order ratio {ratio}");
    }

    #[test]
    fn bdf2_stable_on_stiff() {
        let mut x = vec![1.0];
        let mut s = ImplicitStepper::new(ImplicitMethod::Bdf2, 0.02);
        s.integrate(&mut stiff, 0.0, 2.0, &mut x).unwrap();
        assert!((x[0] - 2.0f64.cos()).abs() < 0.02, "x = {}", x[0]);
    }

    #[test]
    fn variable_step_meets_tolerance_with_few_steps() {
        let mut x = vec![1.0];
        let stats = integrate_variable(
            &mut stiff,
            0.0,
            2.0,
            &mut x,
            &VariableStepOptions {
                rel_tol: 1e-5,
                abs_tol: 1e-8,
                initial_step: 1e-6,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((x[0] - 2.0f64.cos()).abs() < 1e-3, "x = {}", x[0]);
        // A fixed step resolving the λ=1000 boundary layer over [0,2] at
        // the accuracy-dictated step would need ≥ 20k steps; the controller
        // should need orders of magnitude fewer.
        assert!(
            stats.accepted < 3000,
            "too many accepted steps: {}",
            stats.accepted
        );
    }

    #[test]
    fn variable_step_rejects_reverse_time() {
        let mut x = vec![1.0];
        assert!(integrate_variable(&mut decay, 1.0, 0.0, &mut x, &Default::default()).is_err());
    }

    #[test]
    fn linear_system_two_states() {
        // Coupled: ẋ0 = x1, ẋ1 = -x0 (harmonic); trapezoid preserves amplitude.
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -x[0];
        };
        let mut x = vec![1.0, 0.0];
        let mut s = ImplicitStepper::new(ImplicitMethod::Trapezoidal, 1e-2);
        s.integrate(&mut f, 0.0, 2.0 * std::f64::consts::PI, &mut x)
            .unwrap();
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-4, "energy {energy}");
    }

    #[test]
    fn integrate_lands_on_endpoint() {
        let mut x = vec![1.0];
        let mut s = ImplicitStepper::new(ImplicitMethod::BackwardEuler, 0.4);
        let steps = s.integrate(&mut decay, 0.0, 1.0, &mut x).unwrap();
        assert_eq!(steps, 3); // 0.4, 0.4, 0.2
        assert_eq!(s.step_size(), 0.4);
    }

    #[test]
    fn reset_history_allows_state_jump() {
        let mut x = vec![1.0];
        let mut s = ImplicitStepper::new(ImplicitMethod::Bdf2, 0.01);
        let mut t = 0.0;
        for _ in 0..5 {
            s.step(&mut decay, &mut t, &mut x).unwrap();
        }
        // Discontinuity (e.g. a DE event forced the state).
        x[0] = 5.0;
        s.reset_history();
        for _ in 0..5 {
            s.step(&mut decay, &mut t, &mut x).unwrap();
        }
        assert!(x[0] > 0.0 && x[0] < 5.0);
    }
}
