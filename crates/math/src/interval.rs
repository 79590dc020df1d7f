//! Closed-interval arithmetic for abstract interpretation.
//!
//! An [`Interval`] `[lo, hi]` over-approximates the set of values a
//! quantity can take anywhere in a parameter box. The operators are the
//! standard outward-rounding-free interval extensions (this crate does
//! not chase the last ULP — the consumers in `ams-lint::space` only use
//! the intervals to *prove* facts with strict inequalities, so a
//! slightly loose bound weakens a proof but never unsounds it, provided
//! every operation over-approximates the true range, which these do in
//! real arithmetic).
//!
//! `Interval` is a [`Scalar`] that is stamped but never factored: the
//! space pass runs `ams-net`'s real walk (`Circuit::stamp_matrix`) over
//! it. On points it computes what `f64` computes, bit for bit (a
//! nonzero point divisor divides the bounds, not by a reciprocal).
//!
//! Division by an interval containing zero yields the whole real line
//! `[-∞, +∞]` — the sound "I know nothing" answer — rather than
//! panicking, so transfer functions can be written without case splits.

use crate::Scalar;
use std::ops::{AddAssign, DivAssign, MulAssign, SubAssign};

/// A closed interval `[lo, hi]` with `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// The interval `[lo, hi]`; bounds are reordered if given backwards.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The whole real line `[-∞, +∞]`.
    pub fn entire() -> Interval {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// The smallest interval containing both `self` and `other`.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Width `hi - lo` (0 for a point, +∞ for unbounded intervals).
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// The midpoint `(lo + hi) / 2`, computed overflow-safely.
    pub fn midpoint(self) -> f64 {
        self.lo + (self.hi - self.lo) * 0.5
    }

    /// Whether `v` lies in the closed interval.
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval contains zero.
    pub fn contains_zero(self) -> bool {
        self.contains(0.0)
    }

    /// Whether the interval is a single point.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// Splits at the midpoint into `([lo, mid], [mid, hi])`.
    pub fn bisect(self) -> (Interval, Interval) {
        let mid = self.midpoint();
        (
            Interval {
                lo: self.lo,
                hi: mid,
            },
            Interval {
                lo: mid,
                hi: self.hi,
            },
        )
    }

    /// Magnitude range `|x| for x in [lo, hi]` — always non-negative.
    pub fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            Interval {
                lo: -self.hi,
                hi: -self.lo,
            }
        } else {
            Interval {
                lo: 0.0,
                hi: self.lo.abs().max(self.hi.abs()),
            }
        }
    }

    /// Multiplicative inverse `1/x`. For an interval containing zero the
    /// true range is unbounded; this returns [`Interval::entire`].
    pub fn recip(self) -> Interval {
        if self.contains_zero() {
            Interval::entire()
        } else {
            Interval::new(1.0 / self.hi, 1.0 / self.lo)
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl std::ops::Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo + rhs.lo,
            hi: self.hi + rhs.hi,
        }
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        }
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        let c = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        // NaN can only arise from 0·∞ corner products of already-entire
        // operands; fold it away so the result stays a valid interval.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in c {
            if v.is_nan() {
                return Interval::entire();
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval { lo, hi }
    }
}

impl std::ops::Div for Interval {
    type Output = Interval;
    // A nonzero point divisor divides the bounds, so `[c, c] / [h, h]`
    // is the `f64` quotient `c / h`; any other divisor multiplies by
    // the reciprocal hull, and recip() handles the zero-crossing cases.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Interval) -> Interval {
        if rhs.is_point() && rhs.lo != 0.0 {
            Interval::new(self.lo / rhs.lo, self.hi / rhs.lo)
        } else {
            self * rhs.recip()
        }
    }
}

macro_rules! assign_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Interval {
            fn $method(&mut self, rhs: Interval) {
                *self = *self $op rhs;
            }
        }
    };
}

assign_op!(AddAssign, add_assign, +);
assign_op!(SubAssign, sub_assign, -);
assign_op!(MulAssign, mul_assign, *);
assign_op!(DivAssign, div_assign, /);

impl Scalar for Interval {
    const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };
    const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// The largest magnitude in the interval.
    fn modulus(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// The point `[x, x]`.
    fn from_f64(x: f64) -> Interval {
        Interval::point(x)
    }

    fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

impl std::ops::Mul<f64> for Interval {
    type Output = Interval;
    fn mul(self, rhs: f64) -> Interval {
        self * Interval::point(rhs)
    }
}

impl std::ops::Add<f64> for Interval {
    type Output = Interval;
    fn add(self, rhs: f64) -> Interval {
        Interval {
            lo: self.lo + rhs,
            hi: self.hi + rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalize_and_classify() {
        let i = Interval::new(3.0, -1.0);
        assert_eq!(i, Interval::new(-1.0, 3.0));
        assert!(i.contains_zero());
        assert!(!i.is_point());
        assert!(Interval::point(2.0).is_point());
        assert_eq!(i.width(), 4.0);
        assert_eq!(i.midpoint(), 1.0);
    }

    #[test]
    fn arithmetic_encloses_samples() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(0.5, 4.0);
        for &x in &[-2.0, -0.3, 0.0, 1.7, 3.0] {
            for &y in &[0.5, 1.0, 2.5, 4.0] {
                assert!((a + b).contains(x + y), "{x}+{y}");
                assert!((a - b).contains(x - y), "{x}-{y}");
                assert!((a * b).contains(x * y), "{x}*{y}");
                assert!((a / b).contains(x / y), "{x}/{y}");
                assert!((-a).contains(-x));
                assert!(a.abs().contains(x.abs()));
            }
        }
    }

    #[test]
    fn recip_of_zero_crossing_is_entire() {
        assert_eq!(Interval::new(-1.0, 2.0).recip(), Interval::entire());
        let r = Interval::new(2.0, 4.0).recip();
        assert_eq!(r, Interval::new(0.25, 0.5));
        // Negative intervals invert with order preserved.
        let n = Interval::new(-4.0, -2.0).recip();
        assert_eq!(n, Interval::new(-0.5, -0.25));
    }

    #[test]
    fn bisect_covers_and_meets_at_midpoint() {
        let (l, r) = Interval::new(0.0, 8.0).bisect();
        assert_eq!(l, Interval::new(0.0, 4.0));
        assert_eq!(r, Interval::new(4.0, 8.0));
        assert_eq!(l.hull(r), Interval::new(0.0, 8.0));
    }

    #[test]
    fn point_operations_are_the_f64_operations() {
        // 4.7e-6 · (1/1.1e-7) rounds differently from 4.7e-6 / 1.1e-7.
        let (c, h) = (4.7e-6, 1.1e-7);
        assert_ne!(c * (1.0 / h), c / h);
        let p = |v: f64| Interval::point(v);
        assert_eq!(p(c) / p(h), p(c / h));
        assert_eq!(p(2.0) * p(c) / p(h), p(2.0 * c / h));
        assert_eq!(p(1.0) / p(-3.0), p(1.0 / -3.0));
        assert_eq!(Interval::new(1.0, 2.0) / p(-2.0), Interval::new(-1.0, -0.5));
        let mut acc = Interval::ZERO;
        acc += p(0.1);
        acc += p(0.2);
        assert_eq!(acc, p(0.1 + 0.2));
        acc -= p(0.3);
        acc *= p(3.0);
        acc /= p(7.0);
        assert_eq!(acc, p((0.1 + 0.2 - 0.3) * 3.0 / 7.0));
    }

    #[test]
    fn scalar_constants_modulus_and_finiteness() {
        assert_eq!(Interval::ONE, Interval::point(1.0));
        assert_eq!(Interval::from_f64(2.5), Interval::point(2.5));
        assert_eq!(Interval::new(-3.0, 2.0).modulus(), 3.0);
        assert!(Interval::new(-3.0, 2.0).is_finite());
        assert!(!Interval::entire().is_finite());
    }

    #[test]
    fn entire_absorbs_multiplication() {
        let e = Interval::entire();
        assert_eq!(e * Interval::point(0.0), Interval::entire());
        assert_eq!(Interval::new(1.0, 2.0) / Interval::new(-1.0, 1.0), e);
    }
}
