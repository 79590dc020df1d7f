//! Numerics substrate for the SystemC-AMS reproduction.
//!
//! This crate provides every numerical kernel the rest of the workspace
//! builds on, implemented from scratch:
//!
//! * [`Complex64`] — complex arithmetic for AC/noise analysis and FFTs.
//! * [`DMat`] / [`DVec`] — dense matrices and vectors over any [`Scalar`]
//!   field (`f64` or [`Complex64`]).
//! * [`Lu`] — LU factorization with partial pivoting, the linear-solve
//!   workhorse behind MNA and implicit integration.
//! * [`sparse`] — CSR matrices and [`SparseLu`], a fill-reducing sparse
//!   LU with a cached symbolic phase for fast per-step refactorization.
//! * [`lanes`] — [`F64xK`] lane bundles: `K` parameter corners packed
//!   into one [`Scalar`] so assembly, LU, and Newton run `K` scenarios
//!   in lockstep per instruction stream (auto-vectorized, no
//!   intrinsics).
//! * [`Poly`] — polynomial arithmetic and root finding (Durand–Kerner),
//!   used by transfer-function and zero-pole models.
//! * [`ode`] — explicit integrators (Euler, Heun, RK4, adaptive RKF45).
//! * [`implicit`] — implicit integrators (backward Euler, trapezoidal,
//!   BDF2) with Newton iteration for stiff systems.
//! * [`newton`] — damped Newton–Raphson with numeric Jacobians.
//! * [`fft`] — radix-2 FFT, windows and spectral helpers.
//! * [`Rational`] — exact rational arithmetic for SDF balance equations.
//! * [`Interval`] — closed-interval arithmetic, a [`Scalar`] that is
//!   stamped but never factored, backing the sweep-space abstract
//!   interpretation in `ams-lint::space`.
//! * [`interp`] / [`stats`] — interpolation and running statistics.
//!
//! # Example
//!
//! Solving a small linear system:
//!
//! ```
//! use ams_math::{DMat, DVec, Lu};
//!
//! # fn main() -> Result<(), ams_math::MathError> {
//! let a = DMat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&DVec::from(vec![3.0, 4.0]))?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod error;
pub mod fft;
pub mod implicit;
pub mod interp;
pub mod interval;
pub mod lanes;
mod lu;
mod matrix;
pub mod newton;
pub mod ode;
mod poly;
mod rational;
mod scalar;
pub mod sparse;
pub mod stats;

pub use complex::Complex64;
pub use error::MathError;
pub use interval::Interval;
pub use lanes::{F64x16, F64x4, F64x8, F64xK, Lanes};
pub use lu::{solve_dense, Lu};
pub use matrix::{DMat, DVec};
pub use poly::Poly;
pub use rational::{common_denominator, gcd, lcm, Rational};
pub use scalar::Scalar;
pub use sparse::{solve_sparse, CsrMat, SolveStats, SparseLu, Triplets};

/// Convenient result alias for fallible numerical routines.
pub type Result<T> = std::result::Result<T, MathError>;
