//! Lane-bundled scalars: `K` independent `f64` corners per value.
//!
//! [`F64xK`] packs `K` real numbers into one [`Scalar`] so that the
//! generic dense/sparse linear algebra — and everything stacked on top
//! of it (MNA assembly, `SparseLu` refactorization, Newton iteration) —
//! simulates `K` parameter corners in lockstep per instruction stream.
//! The representation is a plain `[f64; K]` structure-of-arrays element
//! and every operation is a straight elementwise loop, so LLVM
//! auto-vectorizes the hot paths without any unstable SIMD intrinsics.
//!
//! # Semantics
//!
//! * Arithmetic is strictly lanewise: lane `l` of a result depends only
//!   on lane `l` of the operands. A NaN or overflow in one corner can
//!   never leak into its neighbours — per-lane divergence isolation is a
//!   property of the arithmetic, not of bookkeeping.
//! * [`Scalar::modulus`] is the **maximum** of the per-lane magnitudes
//!   (NaN lanes are ignored, as `f64::max` discards NaN). Pivot and
//!   convergence guards therefore act on the worst *live* corner: a
//!   pivot is accepted when at least one lane can support it, and dead
//!   (NaN) lanes neither veto nor enable a pivot.
//! * [`Scalar::is_finite`] is true only when **all** lanes are finite.
//!   Callers that tolerate partial divergence should inspect lanes
//!   individually instead ([`F64xK::lane`], [`F64xK::finite_mask`]).
//!
//! The pivot *sequence* of the sparse LU is pattern-determined (see
//! `SparseLu`), so a lane bundle refactored on a shared symbolic factor
//! performs the exact same operation sequence per lane as `K` scalar
//! refactorizations — lane-vs-scalar parity is an op-for-op argument,
//! not just a tolerance claim.

use crate::Scalar;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A bundle of `K` independent `f64` lanes behaving as one [`Scalar`].
///
/// `K` is a const generic; the supported widths are re-exported as
/// [`F64x4`], [`F64x8`] and [`F64x16`]. Width 4 matches one AVX2
/// register of doubles, 8 matches AVX-512 (or two AVX2 ops), 16 trades
/// register pressure for fewer loop iterations.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F64xK<const K: usize>(pub [f64; K]);

/// Four-lane bundle (one AVX2 register of doubles).
pub type F64x4 = F64xK<4>;
/// Eight-lane bundle (one AVX-512 register, or two AVX2 ops).
pub type F64x8 = F64xK<8>;
/// Sixteen-lane bundle (fewer loop iterations, more register pressure).
pub type F64x16 = F64xK<16>;

impl<const K: usize> F64xK<K> {
    /// The same value in every lane.
    #[inline]
    pub fn splat(x: f64) -> Self {
        F64xK([x; K])
    }

    /// Builds a bundle lane by lane.
    #[inline]
    pub fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        let mut out = [0.0; K];
        for (l, slot) in out.iter_mut().enumerate() {
            *slot = f(l);
        }
        F64xK(out)
    }

    /// Packs the first `K` values of `xs` into a bundle.
    ///
    /// # Panics
    /// Panics when `xs` holds fewer than `K` values.
    #[inline]
    pub fn from_slice(xs: &[f64]) -> Self {
        Self::from_fn(|l| xs[l])
    }

    /// Value of lane `l`.
    #[inline]
    pub fn lane(self, l: usize) -> f64 {
        self.0[l]
    }

    /// Overwrites lane `l`.
    #[inline]
    pub fn set_lane(&mut self, l: usize, x: f64) {
        self.0[l] = x;
    }

    /// The lanes as a slice, lane 0 first.
    #[inline]
    pub fn lanes(&self) -> &[f64; K] {
        &self.0
    }

    /// Per-lane finiteness: `mask[l]` is true when lane `l` is finite.
    #[inline]
    pub fn finite_mask(self) -> [bool; K] {
        let mut m = [false; K];
        for (l, slot) in m.iter_mut().enumerate() {
            *slot = self.0[l].is_finite();
        }
        m
    }

    /// Largest per-lane magnitude, ignoring NaN lanes (returns `0.0`
    /// when every lane is NaN). This is the [`Scalar::modulus`] of the
    /// bundle, exposed inherently for guard code that already holds a
    /// concrete bundle.
    #[inline]
    pub fn max_abs(self) -> f64 {
        let mut m = 0.0f64;
        for l in 0..K {
            // f64::max ignores NaN operands, so dead lanes do not
            // poison pivot or convergence guards.
            m = m.max(self.0[l].abs());
        }
        m
    }

    /// Per-lane absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self::from_fn(|l| self.0[l].abs())
    }
}

macro_rules! lanewise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const K: usize> $trait for F64xK<K> {
            type Output = F64xK<K>;

            #[inline]
            fn $method(self, rhs: F64xK<K>) -> F64xK<K> {
                let mut out = self.0;
                for l in 0..K {
                    out[l] $op rhs.0[l];
                }
                F64xK(out)
            }
        }
    };
}

macro_rules! lanewise_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const K: usize> $trait for F64xK<K> {
            #[inline]
            fn $method(&mut self, rhs: F64xK<K>) {
                for l in 0..K {
                    self.0[l] $op rhs.0[l];
                }
            }
        }
    };
}

lanewise_binop!(Add, add, +=);
lanewise_binop!(Sub, sub, -=);
lanewise_binop!(Mul, mul, *=);
lanewise_binop!(Div, div, /=);
lanewise_assign!(AddAssign, add_assign, +=);
lanewise_assign!(SubAssign, sub_assign, -=);
lanewise_assign!(MulAssign, mul_assign, *=);
lanewise_assign!(DivAssign, div_assign, /=);

impl<const K: usize> Neg for F64xK<K> {
    type Output = F64xK<K>;

    #[inline]
    fn neg(self) -> F64xK<K> {
        let mut out = self.0;
        for v in &mut out {
            *v = -*v;
        }
        F64xK(out)
    }
}

impl<const K: usize> Default for F64xK<K> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const K: usize> Scalar for F64xK<K> {
    const ZERO: Self = F64xK([0.0; K]);
    const ONE: Self = F64xK([1.0; K]);

    #[inline]
    fn modulus(self) -> f64 {
        self.max_abs()
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        Self::splat(x)
    }

    #[inline]
    fn is_finite(self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

/// A real scalar made of independent `f64` lanes: `f64` is one lane,
/// [`F64xK`] is `K`. Code written once against this trait (the
/// `ams-net` transient engine) runs a single circuit on `f64` with
/// plain `f64` arithmetic and a lane bundle on `F64xK` — the lane loops
/// of the one-lane instance are a single iteration the compiler folds
/// away.
pub trait Lanes: Scalar + Default + Send + Sync {
    /// Number of lanes.
    const LANES: usize;

    /// Builds a value lane by lane.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;

    /// Value of lane `l`.
    fn lane(self, l: usize) -> f64;

    /// Overwrites lane `l`.
    fn set_lane(&mut self, l: usize, x: f64);
}

impl Lanes for f64 {
    const LANES: usize = 1;

    #[inline]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }

    #[inline]
    fn lane(self, l: usize) -> f64 {
        debug_assert_eq!(l, 0, "f64 has one lane");
        self
    }

    #[inline]
    fn set_lane(&mut self, l: usize, x: f64) {
        debug_assert_eq!(l, 0, "f64 has one lane");
        *self = x;
    }
}

impl<const K: usize> Lanes for F64xK<K> {
    const LANES: usize = K;

    #[inline]
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        F64xK::from_fn(f)
    }

    #[inline]
    fn lane(self, l: usize) -> f64 {
        self.0[l]
    }

    #[inline]
    fn set_lane(&mut self, l: usize, x: f64) {
        self.0[l] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_dense, DMat, DVec};

    #[test]
    fn lanewise_arithmetic_is_isolated() {
        let a = F64x4::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).lanes(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!((b / a).lanes(), &[10.0, 10.0, 10.0, 10.0]);
        assert_eq!((-a).lanes(), &[-1.0, -2.0, -3.0, -4.0]);
        let mut c = a;
        c *= b;
        assert_eq!(c.lanes(), &[10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn nan_lane_does_not_leak() {
        let mut a = F64x4::splat(2.0);
        a.set_lane(1, f64::NAN);
        let b = a * F64x4::splat(3.0);
        assert_eq!(b.lane(0), 6.0);
        assert!(b.lane(1).is_nan());
        assert_eq!(b.lane(2), 6.0);
        assert_eq!(b.finite_mask(), [true, false, true, true]);
    }

    #[test]
    fn modulus_is_max_across_lanes_and_ignores_nan() {
        let mut a = F64x4::from_slice(&[1.0, -5.0, 2.0, 0.5]);
        assert_eq!(a.modulus(), 5.0);
        a.set_lane(1, f64::NAN);
        assert_eq!(a.modulus(), 2.0);
        assert_eq!(F64x4::splat(f64::NAN).modulus(), 0.0);
        assert!(!a.is_finite());
        assert!(F64x4::splat(1.0).is_finite());
    }

    #[test]
    fn scalar_constants_and_embedding() {
        assert_eq!(F64x8::ZERO.lanes(), &[0.0; 8]);
        assert_eq!(F64x8::ONE.lanes(), &[1.0; 8]);
        assert_eq!(F64x8::from_f64(2.5).lanes(), &[2.5; 8]);
    }

    #[test]
    fn lanes_trait_views_f64_as_one_lane() {
        fn sum<T: Lanes>(x: T) -> f64 {
            (0..T::LANES).map(|l| x.lane(l)).sum()
        }
        assert_eq!(<f64 as Lanes>::LANES, 1);
        assert_eq!(sum(2.5f64), 2.5);
        assert_eq!(sum(F64x4::from_slice(&[1.0, 2.0, 3.0, 4.0])), 10.0);
        let mut x = <f64 as Lanes>::from_fn(|l| l as f64 + 7.0);
        assert_eq!(x, 7.0);
        x.set_lane(0, 1.5);
        assert_eq!(x, 1.5);
    }

    /// The generic dense LU over a lane bundle must match four scalar
    /// solves lane for lane — same elimination order, same arithmetic,
    /// just wider values.
    #[test]
    fn dense_solve_matches_scalar_per_lane() {
        let deltas = [0.0, 0.1, -0.2, 0.3];
        let a = DMat::<F64x4>::from_fn(2, 2, |i, j| {
            F64x4::from_fn(|l| [[2.0, 1.0], [1.0, 3.0]][i][j] + deltas[l] * (i + j) as f64)
        });
        let b = DVec::from(vec![F64x4::splat(3.0), F64x4::splat(4.0)]);
        let x = solve_dense(&a, &b).unwrap();
        for (l, &d) in deltas.iter().enumerate() {
            let a_l = DMat::<f64>::from_fn(2, 2, |i, j| {
                [[2.0, 1.0], [1.0, 3.0]][i][j] + d * (i + j) as f64
            });
            let b_l = DVec::from(vec![3.0, 4.0]);
            let x_l = solve_dense(&a_l, &b_l).unwrap();
            for i in 0..2 {
                assert!(
                    (x[i].lane(l) - x_l[i]).abs() < 1e-12,
                    "lane {l} row {i}: {} vs {}",
                    x[i].lane(l),
                    x_l[i]
                );
            }
        }
    }
}
