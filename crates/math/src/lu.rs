use crate::error::check_len;
use crate::{DMat, DVec, MathError, Scalar};

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// This is the linear-solve workhorse behind DC operating points,
/// transient companion-model solves, complex AC analysis and implicit
/// integration. The factorization is computed once and can then be reused
/// for many right-hand sides — the "dedicated algorithm" property that
/// experiment E5 benchmarks (factor once, resolve per timestep).
///
/// # Example
///
/// ```
/// use ams_math::{DMat, DVec, Lu};
///
/// # fn main() -> Result<(), ams_math::MathError> {
/// let a = DMat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&DVec::from(vec![10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T: Scalar = f64> {
    /// Combined L (below diagonal, unit diagonal implied) and U (upper).
    lu: DMat<T>,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]`.
    perm: Vec<usize>,
    /// Sign of the permutation, `+1.0` or `-1.0` (used for determinants).
    perm_sign: f64,
}

/// Relative pivot threshold below which a matrix is declared singular.
const PIVOT_REL_TOL: f64 = 1e-13;

impl<T: Scalar> Lu<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `a` is not square.
    /// * [`MathError::SingularMatrix`] if no acceptable pivot exists in
    ///   some column (relative to the largest entry of the matrix).
    pub fn factor(a: &DMat<T>) -> crate::Result<Lu<T>> {
        if !a.is_square() {
            return Err(MathError::dims(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        // Per-column scale references for the singularity test: a pivot is
        // acceptable relative to its own column's magnitude, so badly
        // scaled but regular matrices (common in companion forms and MNA)
        // are not misdiagnosed as singular.
        let col_scale: Vec<f64> = (0..n)
            .map(|j| {
                (0..n)
                    .map(|i| a[(i, j)].modulus())
                    .fold(f64::MIN_POSITIVE, f64::max)
            })
            .collect();

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut pmax = lu[(k, k)].modulus();
            for i in (k + 1)..n {
                let m = lu[(i, k)].modulus();
                if m > pmax {
                    pmax = m;
                    p = i;
                }
            }
            // NaN pivots must also be rejected, hence partial_cmp.
            let threshold = col_scale[k] * PIVOT_REL_TOL;
            if pmax.partial_cmp(&threshold) != Some(std::cmp::Ordering::Greater) {
                return Err(MathError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == T::ZERO {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &DVec<T>) -> crate::Result<DVec<T>> {
        let mut x = DVec::zeros(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into `x` without allocating. Every entry of `x`
    /// is overwritten before it is read, so a reused buffer gives the
    /// bits [`Lu::solve`] gives.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `b` and `x` both
    /// have length `self.dim()`.
    pub fn solve_into(&self, b: &DVec<T>, x: &mut DVec<T>) -> crate::Result<()> {
        let n = self.dim();
        check_len("rhs", n, b.len())?;
        check_len("solution", n, x.len())?;
        // Apply permutation.
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        // Forward substitution (unit lower-triangular).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `B.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &DMat<T>) -> crate::Result<DMat<T>> {
        let n = self.dim();
        if b.rows() != n {
            return Err(MathError::dims(
                format!("rhs with {n} rows"),
                format!("{} rows", b.rows()),
            ));
        }
        let mut x = DMat::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col: DVec<T> = (0..n).map(|i| b[(i, j)]).collect();
            let sol = self.solve(&col)?;
            for i in 0..n {
                x[(i, j)] = sol[i];
            }
        }
        Ok(x)
    }

    /// Computes the determinant from the factorization.
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Computes the matrix inverse (solves against the identity).
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a valid factorization).
    pub fn inverse(&self) -> crate::Result<DMat<T>> {
        self.solve_mat(&DMat::identity(self.dim()))
    }
}

/// Convenience: factor-and-solve in one call.
///
/// Prefer constructing an [`Lu`] when solving repeatedly against the same
/// matrix.
///
/// # Errors
///
/// See [`Lu::factor`] and [`Lu::solve`].
pub fn solve_dense<T: Scalar>(a: &DMat<T>, b: &DVec<T>) -> crate::Result<DVec<T>> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn solves_3x3() {
        let a = DMat::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = DVec::from(vec![8.0, -11.0, -3.0]);
        let x = solve_dense(&a, &b).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expect.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve_dense(&a, &DVec::from(vec![2.0, 3.0])).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match Lu::factor(&a) {
            Err(MathError::SingularMatrix { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a: DMat<f64> = DMat::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
        let b = DMat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((Lu::factor(&b).unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DMat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        let i: DMat<f64> = DMat::identity(2);
        assert!((&prod - &i).norm_inf() < 1e-12);
    }

    #[test]
    fn complex_solve() {
        let j = Complex64::J;
        // (1+j)·x = 2  =>  x = 1 - j
        let a = DMat::from_rows(&[&[Complex64::ONE + j]]);
        let b = DVec::from(vec![Complex64::from_real(2.0)]);
        let x = solve_dense(&a, &b).unwrap();
        assert!((x[0] - Complex64::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn reuse_factorization_for_many_rhs() {
        let a = DMat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = Lu::factor(&a).unwrap();
        for k in 1..5 {
            let b = DVec::from(vec![k as f64, 2.0 * k as f64]);
            let x = lu.solve(&b).unwrap();
            let r = &a.mul_vec(&x).unwrap() - &b;
            assert!(r.norm_inf() < 1e-12);
        }
    }
}
