use crate::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A field scalar usable by the generic dense linear algebra.
///
/// Implemented for three families that are factored: `f64` (DC,
/// transient), [`Complex64`] (AC, noise), and [`crate::lanes::F64xK`]
/// (lane-bundled batch transient — K parameter corners in lockstep),
/// so one LU factorization routine serves real, complex, and bundled
/// Modified Nodal Analysis. A fourth, [`crate::Interval`], is stamped
/// but never factored: the sweep-space proof runs the real stamp walk
/// over parameter boxes. The trait is sealed by convention: these
/// implementors are the supported set, and downstream code should not
/// add scalar types. Note that `Display` is deliberately *not* a
/// supertrait — lane bundles have no natural scalar rendering — so
/// generic code must format through `Debug` or `modulus()`.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Magnitude used for pivot selection and convergence checks.
    fn modulus(self) -> f64;

    /// Embeds a real number into the field.
    fn from_f64(x: f64) -> Self;

    /// Returns `true` when all components are finite.
    fn is_finite(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn from_f64(x: f64) -> f64 {
        x
    }

    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn from_f64(x: f64) -> Complex64 {
        Complex64::from_real(x)
    }

    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<T: Scalar>(xs: &[T]) -> T {
        xs.iter().fold(T::ZERO, |a, &b| a + b)
    }

    #[test]
    fn works_for_f64() {
        assert_eq!(generic_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(f64::from_f64(2.5), 2.5);
        assert_eq!(2.0f64.modulus(), 2.0);
        assert_eq!((-2.0f64).modulus(), 2.0);
    }

    #[test]
    fn works_for_complex() {
        let s = generic_sum(&[Complex64::ONE, Complex64::J]);
        assert_eq!(s, Complex64::new(1.0, 1.0));
        assert!((Complex64::new(3.0, 4.0).modulus() - 5.0).abs() < 1e-12);
    }
}
