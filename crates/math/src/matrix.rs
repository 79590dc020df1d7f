use crate::{MathError, Scalar};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix over a [`Scalar`] field.
///
/// This is the shared container for MNA system matrices, state-space
/// matrices and Jacobians. It favors clarity and robustness over raw
/// performance; sizes in this workspace stay in the hundreds, where dense
/// LU is perfectly adequate (and is itself one of the benchmarked
/// "dedicated algorithms", see experiment E5).
///
/// # Example
///
/// ```
/// use ams_math::DMat;
///
/// let i: DMat<f64> = DMat::identity(3);
/// let a = DMat::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
/// assert_eq!(&a * &i, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMat<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DMat<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        DMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = DMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let mut m = DMat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(i, j)`, or `None` if out of range.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i < self.rows && j < self.cols {
            self.data.get(i * self.cols + j)
        } else {
            None
        }
    }

    /// Returns a borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index {i} out of range ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DMat<T> {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &DVec<T>) -> crate::Result<DVec<T>> {
        if x.len() != self.cols {
            return Err(MathError::dims(
                format!("vector of length {}", self.cols),
                format!("length {}", x.len()),
            ));
        }
        let mut y = DVec::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = T::ZERO;
            let row = self.row(i);
            for (a, &xj) in row.iter().zip(x.iter()) {
                acc += *a * xj;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if inner dimensions differ.
    pub fn mul_mat(&self, b: &DMat<T>) -> crate::Result<DMat<T>> {
        if self.cols != b.rows {
            return Err(MathError::dims(
                format!("{}x* (inner dim {})", self.rows, self.cols),
                format!("{}x{}", b.rows, b.cols),
            ));
        }
        let mut c = DMat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == T::ZERO {
                    continue;
                }
                for j in 0..b.cols {
                    c[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        Ok(c)
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: T) -> DMat<T> {
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Maximum absolute row sum (the induced ∞-norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.modulus()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for x in &mut self.data {
            *x = T::ZERO;
        }
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maps every entry through `f`, producing a matrix over another field.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> DMat<U> {
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Flat access to the underlying row-major data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Scalar> Index<(usize, usize)> for DMat<T> {
    type Output = T;
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DMat<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> Add for &DMat<T> {
    type Output = DMat<T>;
    fn add(self, rhs: &DMat<T>) -> DMat<T> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl<T: Scalar> Sub for &DMat<T> {
    type Output = DMat<T>;
    fn sub(self, rhs: &DMat<T>) -> DMat<T> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl<T: Scalar> Mul for &DMat<T> {
    type Output = DMat<T>;
    fn mul(self, rhs: &DMat<T>) -> DMat<T> {
        self.mul_mat(rhs)
            .expect("shape mismatch in matrix multiply")
    }
}

impl<T: Scalar> fmt::Debug for DMat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

/// A dense vector over a [`Scalar`] field.
///
/// # Example
///
/// ```
/// use ams_math::DVec;
///
/// let v = DVec::from(vec![3.0, 4.0]);
/// assert!((v.norm2() - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq)]
pub struct DVec<T: Scalar = f64> {
    data: Vec<T>,
}

impl<T: Scalar> DVec<T> {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        DVec {
            data: vec![T::ZERO; n],
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iteration over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Borrow as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.data
            .iter()
            .map(|x| x.modulus() * x.modulus())
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().map(|x| x.modulus()).fold(0.0, f64::max)
    }

    /// Dot product (no conjugation; use `conj` entries for Hermitian forms).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] on length mismatch.
    pub fn dot(&self, rhs: &DVec<T>) -> crate::Result<T> {
        if self.len() != rhs.len() {
            return Err(MathError::dims(
                format!("length {}", self.len()),
                format!("length {}", rhs.len()),
            ));
        }
        Ok(self
            .iter()
            .zip(rhs.iter())
            .fold(T::ZERO, |acc, (&a, &b)| acc + a * b))
    }

    /// In-place `self += k · rhs` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn axpy(&mut self, k: T, rhs: &DVec<T>) {
        assert_eq!(self.len(), rhs.len(), "length mismatch in axpy");
        for (a, &b) in self.data.iter_mut().zip(rhs.iter()) {
            *a += k * b;
        }
    }

    /// Scales every entry by `k`.
    pub fn scale(&self, k: T) -> DVec<T> {
        DVec {
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for x in &mut self.data {
            *x = T::ZERO;
        }
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maps every entry through `f`, producing a vector over another field.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> DVec<U> {
        DVec {
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl<T: Scalar> From<Vec<T>> for DVec<T> {
    fn from(data: Vec<T>) -> Self {
        DVec { data }
    }
}

impl<T: Scalar> FromIterator<T> for DVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        DVec {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T: Scalar> Index<usize> for DVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Scalar> IndexMut<usize> for DVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: Scalar> Add for &DVec<T> {
    type Output = DVec<T>;
    fn add(self, rhs: &DVec<T>) -> DVec<T> {
        assert_eq!(self.len(), rhs.len(), "length mismatch in add");
        self.iter().zip(rhs.iter()).map(|(&a, &b)| a + b).collect()
    }
}

impl<T: Scalar> Sub for &DVec<T> {
    type Output = DVec<T>;
    fn sub(self, rhs: &DVec<T>) -> DVec<T> {
        assert_eq!(self.len(), rhs.len(), "length mismatch in sub");
        self.iter().zip(rhs.iter()).map(|(&a, &b)| a - b).collect()
    }
}

impl<T: Scalar> fmt::Debug for DVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DVec[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i: DMat<f64> = DMat::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = DVec::from(vec![5.0, 6.0]);
        let y = a.mul_vec(&x).unwrap();
        assert_eq!(y.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn mul_vec_rejects_bad_shape() {
        let a: DMat<f64> = DMat::zeros(2, 3);
        let x = DVec::from(vec![1.0, 2.0]);
        assert!(matches!(
            a.mul_vec(&x),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn complex_matrix_works() {
        let j = Complex64::J;
        let a = DMat::from_rows(&[&[Complex64::ONE, j], &[-j, Complex64::ONE]]);
        let prod = a.mul_mat(&a).unwrap();
        // [[1, j], [-j, 1]]² = [[2, 2j], [-2j, 2]]
        assert!((prod[(0, 0)] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        assert!((prod[(0, 1)] - Complex64::new(0.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let v = DVec::from(vec![3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-12);
        assert_eq!(v.norm_inf(), 4.0);
        let m = DMat::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(m.norm_inf(), 7.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut v = DVec::from(vec![1.0, 2.0]);
        let w = DVec::from(vec![10.0, 20.0]);
        v.axpy(0.5, &w);
        assert_eq!(v.as_slice(), &[6.0, 12.0]);
        assert_eq!(v.scale(2.0).as_slice(), &[12.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let m: DMat<f64> = DMat::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn from_diag_and_map() {
        let d = DMat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        let c = d.map(Complex64::from_real);
        assert_eq!(c[(2, 2)], Complex64::from_real(3.0));
    }
}
