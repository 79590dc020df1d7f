//! Sparse matrices and a symbolic-reuse sparse LU factorization.
//!
//! MNA matrices are overwhelmingly sparse at realistic network sizes
//! (a ladder of N sections has O(N) nonzeros in an N×N system), so the
//! dense [`Lu`](crate::Lu) path wastes O(n²) memory and O(n³) work. This
//! module provides the "efficient dedicated algorithms" of the paper's
//! O3/O5 rationale:
//!
//! * [`Triplets`] — a coordinate (COO) builder that sums duplicates;
//! * [`CsrMat`] — compressed sparse row storage, generic over [`Scalar`]
//!   so one implementation serves real (DC/transient) and complex
//!   (AC/noise) analyses;
//! * [`SparseLu`] — a left-looking (Gilbert–Peierls) LU with threshold
//!   partial pivoting and a Markowitz-style minimum-degree column
//!   pre-ordering. The factorization is split into a **symbolic phase**
//!   (fill-reducing ordering, pivot sequence and fill pattern, computed
//!   once per sparsity pattern by [`SparseLu::factor`]) and a **numeric
//!   phase** ([`SparseLu::refactor`], which replays the cached pattern
//!   with new values — the KLU/SPICE trick that makes per-timestep
//!   refactorization O(flops of the factors) instead of O(n³));
//! * [`SolveStats`] — counters surfaced through the solver/instrumentation
//!   chain (`ams-net` → `ams-core` → `ams-exec`).
//!
//! # Example
//!
//! ```
//! use ams_math::{DVec, SparseLu, Triplets};
//!
//! # fn main() -> Result<(), ams_math::MathError> {
//! let mut t = Triplets::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 3.0);
//! t.push(1, 0, 6.0);
//! t.push(1, 1, 3.0);
//! let a = t.build();
//! let mut lu = SparseLu::factor(&a)?;
//! let x = lu.solve(&DVec::from(vec![10.0, 12.0]))?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! // New values, same pattern: numeric-only refactorization.
//! let mut a2 = a.clone();
//! a2.values_mut().copy_from_slice(&[8.0, 6.0, 12.0, 6.0]);
//! lu.refactor(&a2)?;
//! let x2 = lu.solve(&DVec::from(vec![20.0, 24.0]))?;
//! assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::error::check_len;
use crate::{DMat, DVec, Lanes, MathError, Scalar};

/// Relative pivot threshold below which a matrix is declared singular
/// (matches the dense [`Lu`](crate::Lu) tolerance).
const PIVOT_REL_TOL: f64 = 1e-13;

/// Threshold-pivoting preference: the structural diagonal is kept as the
/// pivot whenever its magnitude is at least this fraction of the largest
/// candidate, which stabilizes the cached pivot sequence across numeric
/// refactorizations.
const DIAG_PIVOT_THRESHOLD: f64 = 0.1;

/// Counters of the sparse direct-solve path, surfaced through
/// `TransientStats` → `ClusterStats` → `ExecStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full factorizations including symbolic analysis (ordering + fill
    /// pattern + pivot sequence).
    pub symbolic_analyses: u64,
    /// Numeric-only refactorizations reusing a cached pattern.
    pub numeric_refactors: u64,
    /// Structural nonzeros of the assembled system matrix (gauge: the
    /// largest system observed).
    pub nnz: u64,
    /// Fill-in: nonzeros of the L+U factors beyond those of the matrix
    /// itself (gauge: the largest system observed).
    pub fill_in: u64,
    /// Factorizations skipped entirely because the matrix values were
    /// bit-identical to the previously factored ones (reused Jacobian).
    pub jacobian_reused: u64,
}

impl SolveStats {
    /// Folds another set of counters into this one: counting fields are
    /// summed, gauge fields (`nnz`, `fill_in`) take the maximum.
    pub fn merge(&mut self, other: &SolveStats) {
        self.symbolic_analyses += other.symbolic_analyses;
        self.numeric_refactors += other.numeric_refactors;
        self.jacobian_reused += other.jacobian_reused;
        self.nnz = self.nnz.max(other.nnz);
        self.fill_in = self.fill_in.max(other.fill_in);
    }
}

/// Coordinate-format (COO) builder for [`CsrMat`].
///
/// Duplicate coordinates are summed on [`Triplets::build`], which is
/// exactly the MNA stamping semantic.
#[derive(Debug, Clone)]
pub struct Triplets<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "triplet out of range");
        self.entries.push((i, j, v));
    }

    /// Number of raw (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the CSR matrix, summing duplicates. Entries that sum to
    /// zero are kept (they are structural positions — important for
    /// pattern reuse).
    pub fn build(mut self) -> CsrMat<T> {
        self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut vals = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        let mut cur_row = 0usize;
        for (i, j, v) in self.entries {
            while cur_row < i {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            if col_idx.len() > row_ptr[cur_row] && *col_idx.last().expect("nonempty") == j {
                let last = vals.len() - 1;
                vals[last] += v;
            } else {
                col_idx.push(j);
                vals.push(v);
            }
        }
        while cur_row < self.rows {
            row_ptr.push(col_idx.len());
            cur_row += 1;
        }
        CsrMat {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// A compressed-sparse-row matrix over any [`Scalar`] field.
///
/// Column indices are sorted within each row; structural (explicitly
/// stored) zeros are allowed and preserved, so a pattern can be built
/// once and re-filled with [`CsrMat::values_mut`] every assembly.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMat<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMat<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored (structural) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Builds from a dense matrix, storing every nonzero entry.
    pub fn from_dense(a: &DMat<T>) -> Self {
        let mut t = Triplets::new(a.rows(), a.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if a[(i, j)] != T::ZERO {
                    t.push(i, j, a[(i, j)]);
                }
            }
        }
        t.build()
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DMat<T> {
        let mut d = DMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                d[(i, self.col_idx[p])] += self.vals[p];
            }
        }
        d
    }

    /// The stored value at `(i, j)`, or zero when the position is not in
    /// the pattern.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn get(&self, i: usize, j: usize) -> T {
        self.position(i, j).map_or(T::ZERO, |p| self.vals[p])
    }

    /// The index into [`CsrMat::values`] of the stored entry at `(i, j)`,
    /// or `None` when the position is not in the pattern. This is the
    /// primitive behind stamp pointers: resolve once, then write by flat
    /// index forever after.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn position(&self, i: usize, j: usize) -> Option<usize> {
        assert!(i < self.rows && j < self.cols, "position out of range");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .binary_search(&j)
            .ok()
            .map(|off| lo + off)
    }

    /// The stored values, in row-major pattern order.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable access to the stored values (the pattern is immutable).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// A matrix with the identical sparsity pattern whose values are
    /// `f` applied entrywise — the pattern-preserving re-typing used to
    /// widen a scalar matrix into a lane bundle (or narrow one back).
    pub fn map_values<U: Scalar>(&self, f: impl FnMut(&T) -> U) -> CsrMat<U> {
        CsrMat {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: self.vals.iter().map(f).collect(),
        }
    }

    /// Overwrites the stored values with the entries of `d` at the
    /// pattern's positions; entries of `d` outside the pattern are
    /// ignored. Used to route a dense-evaluated Jacobian into a sparse
    /// factorization.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn set_from_dense(&mut self, d: &DMat<T>) {
        assert!(
            d.rows() == self.rows && d.cols() == self.cols,
            "set_from_dense dimension mismatch"
        );
        for i in 0..self.rows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                self.vals[p] = d[(i, self.col_idx[p])];
            }
        }
    }

    /// Resets every stored value to zero, keeping the pattern.
    pub fn set_values_zero(&mut self) {
        for v in &mut self.vals {
            *v = T::ZERO;
        }
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let range = self.row_range(i);
        (&self.col_idx[range.clone()], &self.vals[range])
    }

    /// The positions in [`CsrMat::values`] of row `i`'s stored entries,
    /// so a caller can keep values of another type slot for slot with
    /// the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `x.len() != cols`.
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
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[p] * x[self.col_idx[p]];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> CsrMat<T> {
        let (colptr, rows_idx, map) = self.to_csc();
        let vals = map.iter().map(|&p| self.vals[p]).collect();
        CsrMat {
            rows: self.cols,
            cols: self.rows,
            row_ptr: colptr,
            col_idx: rows_idx,
            vals,
        }
    }

    /// Compressed-sparse-column view of the pattern: returns
    /// `(col_ptr, row_idx, csr_pos)` where `csr_pos[p]` maps each CSC
    /// slot back to its position in [`CsrMat::values`].
    fn to_csc(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let mut colptr = vec![0usize; self.cols + 1];
        for &j in &self.col_idx {
            colptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            colptr[j + 1] += colptr[j];
        }
        let mut next = colptr.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut map = vec![0usize; self.nnz()];
        for i in 0..self.rows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[p];
                let slot = next[j];
                next[j] += 1;
                row_idx[slot] = i;
                map[slot] = p;
            }
        }
        (colptr, row_idx, map)
    }
}

/// Minimum-degree column pre-ordering on the symmetrized pattern
/// `A + Aᵀ` — the Markowitz-style fill-reducing half of the symbolic
/// phase. Falls back to the natural order for tiny or dense-ish inputs,
/// where reordering cannot pay for itself.
fn min_degree_order<T: Scalar>(a: &CsrMat<T>) -> Vec<usize> {
    let n = a.rows;
    if n <= 4 || a.nnz() * 4 > n * n {
        return (0..n).collect();
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let mut alive = vec![true; n];
    let mut mark = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut v = usize::MAX;
        let mut best = usize::MAX;
        for (u, au) in adj.iter().enumerate() {
            if alive[u] && au.len() < best {
                best = au.len();
                v = u;
            }
        }
        alive[v] = false;
        order.push(v);
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| alive[u]).collect();
        for &u in &nbrs {
            // New adjacency of u: (adj[u] ∪ clique) \ {u, v}.
            adj[u].retain(|&w| w != v);
            for &w in &adj[u] {
                mark[w] = true;
            }
            mark[u] = true;
            let mut au = std::mem::take(&mut adj[u]);
            for &w in &nbrs {
                if !mark[w] {
                    au.push(w);
                }
            }
            for &w in &au {
                mark[w] = false;
            }
            mark[u] = false;
            adj[u] = au;
        }
        adj[v] = Vec::new();
    }
    order
}

/// Sparse LU factorization `P·A·Q = L·U` with cached symbolic analysis.
///
/// [`SparseLu::factor`] performs the full symbolic + numeric
/// factorization: a minimum-degree column ordering `Q`, Gilbert–Peierls
/// left-looking elimination with threshold partial pivoting `P`, and the
/// resulting fill pattern of `L`/`U`. [`SparseLu::refactor`] then reuses
/// all of it for a matrix with the same pattern but new values, doing
/// only the numeric replay. [`SparseLu::solve`] (or the allocation-free
/// [`SparseLu::solve_into`]) and [`SparseLu::solve_transpose`] (for
/// adjoint noise analysis) run over the cached factors.
///
/// Every row index the factorization keeps is an *elimination step*
/// (row `r` of `P·A` is stored as the step `k` that pivoted on it), so
/// the numeric replay and the solves index their step-ordered vectors
/// with one load per nonzero.
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar = f64> {
    n: usize,
    /// `colperm[k]` = original column eliminated at step `k` (the `Q`).
    colperm: Vec<usize>,
    /// `rowperm[k]` = original row chosen as pivot at step `k` (the `P`).
    rowperm: Vec<usize>,
    /// Unit lower-triangular factor, stored per elimination step
    /// (column) with elimination-step row indices.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    /// Strictly-upper factor, stored per elimination step (column) with
    /// ascending elimination-step row indices (a valid topological
    /// order, so the numeric refactor can replay without any search).
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<T>,
    u_diag: Vec<T>,
    /// CSC view of the factored pattern (per original column, with
    /// elimination-step row indices), with a map back into CSR value
    /// positions so refactor can gather values without re-sorting.
    csc_colptr: Vec<usize>,
    csc_rows: Vec<usize>,
    csc_map: Vec<usize>,
    /// The factored sparsity pattern, kept to validate refactor inputs.
    pat_row_ptr: Vec<usize>,
    pat_col_idx: Vec<usize>,
    a_nnz: usize,
    /// Dense scatter workspace (indexed by elimination step) reused
    /// across refactorizations; all zero between them.
    work: Vec<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Full symbolic + numeric factorization.
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `a` is not square.
    /// * [`MathError::SingularMatrix`] if no acceptable pivot exists at
    ///   some elimination step (relative to the column's magnitude).
    pub fn factor(a: &CsrMat<T>) -> crate::Result<SparseLu<T>> {
        if !a.is_square() {
            return Err(MathError::dims(
                "square matrix",
                format!("{}x{}", a.rows, a.cols),
            ));
        }
        let n = a.rows;
        let (csc_colptr, mut csc_rows, csc_map) = a.to_csc();
        let colperm = min_degree_order(a);

        let mut pinv = vec![usize::MAX; n];
        let mut rowperm = Vec::with_capacity(n);
        let mut l_colptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_colptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();
        let mut u_diag = Vec::with_capacity(n);

        let mut x = vec![T::ZERO; n];
        let mut visited = vec![usize::MAX; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut steps: Vec<usize> = Vec::new();
        let mut work: Vec<usize> = Vec::new();
        let mut cands: Vec<usize> = Vec::new();

        for (k, &j) in colperm.iter().enumerate() {
            touched.clear();
            steps.clear();
            cands.clear();
            work.clear();
            // Reachable set of A(:,j) through the columns of L built so
            // far — the structural (value-independent) fill of column k.
            for &r in &csc_rows[csc_colptr[j]..csc_colptr[j + 1]] {
                if visited[r] != k {
                    visited[r] = k;
                    work.push(r);
                    touched.push(r);
                }
            }
            while let Some(i) = work.pop() {
                let t = pinv[i];
                if t != usize::MAX {
                    steps.push(t);
                    for &r in &l_rows[l_colptr[t]..l_colptr[t + 1]] {
                        if visited[r] != k {
                            visited[r] = k;
                            work.push(r);
                            touched.push(r);
                        }
                    }
                }
            }
            // Ascending elimination order is always topologically valid:
            // step t only updates rows that pivot later than t.
            steps.sort_unstable();

            // Numeric scatter of A(:,j) plus the column scale reference
            // for the relative singularity test.
            let mut col_scale = f64::MIN_POSITIVE;
            for p in csc_colptr[j]..csc_colptr[j + 1] {
                let v = a.vals[csc_map[p]];
                x[csc_rows[p]] = v;
                col_scale = col_scale.max(v.modulus());
            }
            // Left-looking elimination: x ← L⁻¹·A(:,j) restricted to the
            // reach, recording the U column on the way.
            for &t in &steps {
                let xt = x[rowperm[t]];
                u_rows.push(t);
                u_vals.push(xt);
                if xt != T::ZERO {
                    for q in l_colptr[t]..l_colptr[t + 1] {
                        let lv = l_vals[q];
                        x[l_rows[q]] -= lv * xt;
                    }
                }
            }
            u_colptr.push(u_rows.len());

            // Pivot among not-yet-pivotal rows; sorted for determinism.
            for &r in &touched {
                if pinv[r] == usize::MAX {
                    cands.push(r);
                }
            }
            cands.sort_unstable();
            let mut piv = usize::MAX;
            let mut pmax = -1.0f64;
            for &r in &cands {
                let m = x[r].modulus();
                if m > pmax {
                    pmax = m;
                    piv = r;
                }
            }
            // Keep the structural diagonal when it is strong enough —
            // this stabilizes the pivot sequence for later refactors.
            if pinv[j] == usize::MAX && visited[j] == k {
                let mj = x[j].modulus();
                if mj >= DIAG_PIVOT_THRESHOLD * pmax {
                    piv = j;
                    pmax = mj;
                }
            }
            let threshold = col_scale * PIVOT_REL_TOL;
            if piv == usize::MAX
                || pmax.partial_cmp(&threshold) != Some(std::cmp::Ordering::Greater)
            {
                return Err(MathError::SingularMatrix { pivot: k });
            }
            pinv[piv] = k;
            rowperm.push(piv);
            let d = x[piv];
            u_diag.push(d);
            for &r in &cands {
                if r != piv {
                    l_rows.push(r);
                    l_vals.push(x[r] / d);
                }
            }
            l_colptr.push(l_rows.len());
            for &r in &touched {
                x[r] = T::ZERO;
            }
        }
        // Every row has its pivot step now: re-index the factor and the
        // pattern by step, so nothing after this pass needs `pinv`.
        for r in l_rows.iter_mut().chain(csc_rows.iter_mut()) {
            *r = pinv[*r];
        }

        Ok(SparseLu {
            n,
            colperm,
            rowperm,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            csc_colptr,
            csc_rows,
            csc_map,
            pat_row_ptr: a.row_ptr.clone(),
            pat_col_idx: a.col_idx.clone(),
            a_nnz: a.nnz(),
            work: x,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzeros of the computed factors (L below the diagonal, U above,
    /// plus the n pivots).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Fill-in: factor nonzeros beyond those of the factored matrix.
    pub fn fill_in(&self) -> usize {
        self.factor_nnz().saturating_sub(self.a_nnz)
    }

    /// Approximate resident bytes of this factorization: index arrays,
    /// permutations, and the value/workspace arrays at `size_of::<T>()`
    /// per entry. Scales with the scalar width, so a lane-bundle factor
    /// (`F64xK`) reports `K×` the value bytes of its scalar twin —
    /// cache byte budgets stay honest across scalar families.
    pub fn approx_bytes(&self) -> usize {
        let usz = std::mem::size_of::<usize>();
        let val = std::mem::size_of::<T>();
        let values = self.l_vals.len() + self.u_vals.len() + self.u_diag.len() + self.work.len();
        let indices = self.colperm.len()
            + self.rowperm.len()
            + self.l_colptr.len()
            + self.l_rows.len()
            + self.u_colptr.len()
            + self.u_rows.len()
            + self.csc_colptr.len()
            + self.csc_rows.len()
            + self.csc_map.len()
            + self.pat_row_ptr.len()
            + self.pat_col_idx.len();
        values * val + indices * usz
    }

    /// Re-types the *symbolic* analysis over a different scalar: the
    /// column ordering, pivot sequence, fill pattern, and CSC maps are
    /// cloned verbatim while every value array is reset to `U::ZERO`.
    /// [`SparseLu::into_symbolic`] is the same re-typing without the
    /// clone.
    ///
    /// The result is not yet a factorization — it must be completed by
    /// [`SparseLu::refactor`] (which overwrites every value slot) with a
    /// matrix of the same pattern over `U`. This is the lane-widening
    /// primitive: one scalar symbolic analysis serves `f64`,
    /// [`crate::Complex64`], and [`crate::lanes::F64xK`] numeric
    /// refactorizations alike, because the pivot sequence is
    /// pattern-determined and patterns do not depend on the scalar.
    pub fn cast_symbolic<U: Scalar>(&self) -> SparseLu<U> {
        self.clone().into_symbolic()
    }

    /// [`SparseLu::cast_symbolic`] by value: the index arrays move into
    /// the result instead of being copied, and only the value arrays are
    /// allocated anew (zeroed, at `U`'s width).
    pub fn into_symbolic<U: Scalar>(self) -> SparseLu<U> {
        SparseLu {
            l_vals: vec![U::ZERO; self.l_rows.len()],
            u_vals: vec![U::ZERO; self.u_rows.len()],
            u_diag: vec![U::ZERO; self.n],
            work: vec![U::ZERO; self.n],
            n: self.n,
            colperm: self.colperm,
            rowperm: self.rowperm,
            l_colptr: self.l_colptr,
            l_rows: self.l_rows,
            u_colptr: self.u_colptr,
            u_rows: self.u_rows,
            csc_colptr: self.csc_colptr,
            csc_rows: self.csc_rows,
            csc_map: self.csc_map,
            pat_row_ptr: self.pat_row_ptr,
            pat_col_idx: self.pat_col_idx,
            a_nnz: self.a_nnz,
        }
    }

    /// Whether `a` has the exact sparsity pattern this factorization was
    /// computed for (the precondition of [`SparseLu::refactor`] and
    /// [`SparseLu::refactored`]).
    pub fn matches_pattern(&self, a: &CsrMat<T>) -> bool {
        a.rows == self.n
            && a.cols == self.n
            && a.row_ptr == self.pat_row_ptr
            && a.col_idx == self.pat_col_idx
    }

    /// Clones the symbolic analysis (column ordering, pivot sequence and
    /// fill pattern) and numerically refactors the clone for `a`.
    ///
    /// This is the batched-scenario primitive: run one symbolic
    /// [`SparseLu::factor`] on the first matrix of a structurally
    /// identical family, then derive an independent factorization per
    /// family member at numeric-refactor cost. The clone shares no
    /// mutable state with `self`, so derived factorizations can live on
    /// different threads.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::refactor`].
    pub fn refactored(&self, a: &CsrMat<T>) -> crate::Result<SparseLu<T>> {
        let mut lu = self.clone();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Numeric-only refactorization: replays the cached elimination
    /// (ordering, pivot sequence, fill pattern) with the values of `a`.
    ///
    /// # Errors
    ///
    /// * [`MathError::InvalidArgument`] if `a` does not have the exact
    ///   sparsity pattern this factorization was computed for.
    /// * [`MathError::SingularMatrix`] if a cached pivot has become
    ///   numerically unacceptable for the new values — the caller should
    ///   fall back to a fresh [`SparseLu::factor`] (new symbolic
    ///   analysis).
    pub fn refactor(&mut self, a: &CsrMat<T>) -> crate::Result<()> {
        if !self.matches_pattern(a) {
            return Err(MathError::invalid(
                "refactor requires the exact pattern of the original factorization",
            ));
        }
        let work = &mut self.work;
        for k in 0..self.n {
            let j = self.colperm[k];
            let mut col_scale = f64::MIN_POSITIVE;
            for p in self.csc_colptr[j]..self.csc_colptr[j + 1] {
                let v = a.vals[self.csc_map[p]];
                work[self.csc_rows[p]] = v;
                col_scale = col_scale.max(v.modulus());
            }
            let u_col = self.u_colptr[k]..self.u_colptr[k + 1];
            for idx in u_col.clone() {
                let t = self.u_rows[idx];
                let xt = work[t];
                self.u_vals[idx] = xt;
                if xt != T::ZERO {
                    for q in self.l_colptr[t]..self.l_colptr[t + 1] {
                        let lv = self.l_vals[q];
                        work[self.l_rows[q]] -= lv * xt;
                    }
                }
            }
            let d = work[k];
            let threshold = col_scale * PIVOT_REL_TOL;
            if d.modulus().partial_cmp(&threshold) != Some(std::cmp::Ordering::Greater) {
                // Leave the workspace clean before bailing out.
                work.fill(T::ZERO);
                return Err(MathError::SingularMatrix { pivot: k });
            }
            self.u_diag[k] = d;
            let l_col = self.l_colptr[k]..self.l_colptr[k + 1];
            for q in l_col.clone() {
                self.l_vals[q] = work[self.l_rows[q]] / d;
            }
            // Clear exactly the column's pattern (it covers every
            // scattered A entry by construction).
            for idx in u_col {
                work[self.u_rows[idx]] = T::ZERO;
            }
            work[k] = T::ZERO;
            for q in l_col {
                work[self.l_rows[q]] = T::ZERO;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` over the cached factors.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &DVec<T>) -> crate::Result<DVec<T>> {
        let mut z = DVec::zeros(self.n);
        let mut x = DVec::zeros(self.n);
        self.solve_into(b, &mut z, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` over the cached factors into `x`, with `z` as
    /// the step-ordered scratch, without allocating. Every entry of both
    /// buffers is overwritten before it is read, so reused buffers give
    /// the bits [`SparseLu::solve`] gives.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `b`, `z` and `x`
    /// all have length `dim()`.
    pub fn solve_into(&self, b: &DVec<T>, z: &mut DVec<T>, x: &mut DVec<T>) -> crate::Result<()> {
        let n = self.n;
        check_len("rhs", n, b.len())?;
        check_len("scratch", n, z.len())?;
        check_len("solution", n, x.len())?;
        // z = P·b, then forward solve L·z = P·b (column-oriented).
        for (zk, &r) in z.iter_mut().zip(&self.rowperm) {
            *zk = b[r];
        }
        for k in 0..n {
            let zk = z[k];
            if zk != T::ZERO {
                for q in self.l_colptr[k]..self.l_colptr[k + 1] {
                    let lv = self.l_vals[q];
                    z[self.l_rows[q]] -= lv * zk;
                }
            }
        }
        // Backward solve U·w = z (column-oriented).
        for k in (0..n).rev() {
            let wk = z[k] / self.u_diag[k];
            z[k] = wk;
            if wk != T::ZERO {
                for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                    let uv = self.u_vals[idx];
                    z[self.u_rows[idx]] -= uv * wk;
                }
            }
        }
        // x = Q·w.
        for (k, &j) in self.colperm.iter().enumerate() {
            x[j] = z[k];
        }
        Ok(())
    }

    /// Solves `Aᵀ·y = b` over the same cached factors — the adjoint
    /// solve used by noise analysis, with no explicit transposition:
    /// `Aᵀ = Q·Uᵀ·Lᵀ·P`, so a forward sweep over `Uᵀ` and a backward
    /// sweep over `Lᵀ` (both natural dot-product loops over the stored
    /// columns) do the job.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &DVec<T>) -> crate::Result<DVec<T>> {
        let mut v = DVec::zeros(self.n);
        let mut y = DVec::zeros(self.n);
        self.solve_transpose_into(b, &mut v, &mut y)?;
        Ok(y)
    }

    /// Solves `Aᵀ·y = b` into `y`, with `v` as the step-ordered scratch,
    /// without allocating: [`SparseLu::solve_transpose`] over reused
    /// buffers, with the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] unless `b`, `v` and `y`
    /// all have length `dim()`.
    pub fn solve_transpose_into(
        &self,
        b: &DVec<T>,
        v: &mut DVec<T>,
        y: &mut DVec<T>,
    ) -> crate::Result<()> {
        let n = self.n;
        check_len("rhs", n, b.len())?;
        check_len("scratch", n, v.len())?;
        check_len("solution", n, y.len())?;
        // c = Qᵀ·b, then Uᵀ·v = c: lower-triangular forward sweep where
        // row k of Uᵀ is the stored column k of U.
        for (vk, &j) in v.iter_mut().zip(&self.colperm) {
            *vk = b[j];
        }
        for k in 0..n {
            let mut acc = v[k];
            for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                let uv = self.u_vals[idx];
                acc -= uv * v[self.u_rows[idx]];
            }
            v[k] = acc / self.u_diag[k];
        }
        // Lᵀ·w = v: unit upper-triangular backward sweep.
        for k in (0..n).rev() {
            let mut acc = v[k];
            for q in self.l_colptr[k]..self.l_colptr[k + 1] {
                let lv = self.l_vals[q];
                acc -= lv * v[self.l_rows[q]];
            }
            v[k] = acc;
        }
        // y = Pᵀ·w.
        for (k, &r) in self.rowperm.iter().enumerate() {
            y[r] = v[k];
        }
        Ok(())
    }
}

/// Convenience: factor-and-solve in one call. Prefer keeping the
/// [`SparseLu`] when solving repeatedly against the same matrix or
/// pattern.
///
/// # Errors
///
/// See [`SparseLu::factor`] and [`SparseLu::solve`].
pub fn solve_sparse<T: Scalar>(a: &CsrMat<T>, b: &DVec<T>) -> crate::Result<DVec<T>> {
    SparseLu::factor(a)?.solve(b)
}

impl<T: Lanes> SparseLu<T> {
    /// Full factorization of a lane bundle whose symbolic analysis is
    /// lane 0's: the ordering, pivot sequence and fill pattern come from
    /// a one-lane [`SparseLu::factor`] of lane 0's values, widened with
    /// [`SparseLu::into_symbolic`] and refactored on the whole bundle.
    ///
    /// Every lane then replays exactly the elimination a scalar run
    /// over lane 0's matrix would pick — a lane sweep whose first
    /// scenario sits in lane 0 repeats the width-1 sweep's pivots and
    /// operations. Picking pivots by the largest magnitude over *all*
    /// lanes (a plain [`SparseLu::factor`] of the bundle) can choose
    /// others. When lane 0 alone cannot be factored, or its pivots are
    /// unacceptable for the bundle, this falls back to exactly that
    /// bundle-wide factorization. One lane is a plain
    /// [`SparseLu::factor`].
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factor`] of the bundle.
    pub fn factor_from_lane0(a: &CsrMat<T>) -> crate::Result<SparseLu<T>> {
        if T::LANES > 1 {
            if let Ok(lane0) = SparseLu::factor(&a.map_values(|v| v.lane(0))) {
                let mut lu = lane0.into_symbolic();
                if lu.refactor(a).is_ok() {
                    return Ok(lu);
                }
            }
        }
        SparseLu::factor(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex64, Lu};

    fn ladder_csr(n: usize) -> CsrMat<f64> {
        // Tridiagonal conductance ladder plus a voltage-source branch on
        // the first node: the archetypal MNA pattern with a structural
        // zero at the branch diagonal.
        let dim = n + 1;
        let mut t = Triplets::new(dim, dim);
        for i in 0..n {
            t.push(i, i, 2.1 + (i as f64) * 0.01);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.push(0, n, 1.0);
        t.push(n, 0, 1.0);
        t.build()
    }

    #[test]
    fn triplets_sum_duplicates_and_keep_structural_zeros() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(1, 1, 5.0);
        t.push(1, 1, -5.0);
        t.push(1, 0, 4.0);
        let a = t.build();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 0.0); // structural zero retained
        assert!(a.position(1, 1).is_some());
        assert_eq!(a.position(0, 1), None);
    }

    #[test]
    fn dense_round_trip() {
        let d = DMat::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]]);
        let s = CsrMat::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert!((&s.to_dense() - &d).norm_inf() < 1e-15);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = ladder_csr(6);
        let d = a.to_dense();
        let x: DVec<f64> = (0..a.cols()).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let ys = a.mul_vec(&x).unwrap();
        let yd = d.mul_vec(&x).unwrap();
        assert!((&ys - &yd).norm_inf() < 1e-14);
    }

    #[test]
    fn transpose_matches_dense() {
        let a = ladder_csr(5);
        let t = a.transpose();
        assert!((&t.to_dense() - &a.to_dense().transpose()).norm_inf() < 1e-15);
    }

    #[test]
    fn solve_matches_dense_on_mna_pattern() {
        let a = ladder_csr(12);
        let b: DVec<f64> = (0..a.rows()).map(|i| (i as f64).sin() + 0.5).collect();
        let xs = solve_sparse(&a, &b).unwrap();
        let xd = Lu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        assert!((&xs - &xd).norm_inf() < 1e-10);
        // Residual check too.
        let r = &a.mul_vec(&xs).unwrap() - &b;
        assert!(r.norm_inf() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.build();
        let x = solve_sparse(&a, &DVec::from(vec![2.0, 3.0])).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let a = t.build();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(MathError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn structurally_singular_reports_error() {
        // Empty column/row: no pivot candidates at some step.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 2, 1.0);
        t.push(0, 2, 1.0);
        let a = t.build();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(MathError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a: CsrMat<f64> = Triplets::new(2, 3).build();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_reuses_pattern() {
        let a = ladder_csr(10);
        let mut lu = SparseLu::factor(&a).unwrap();
        let before = (lu.factor_nnz(), lu.fill_in());

        // Same pattern, scaled values (as a new timestep would produce).
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.5;
        }
        lu.refactor(&a2).unwrap();
        assert_eq!((lu.factor_nnz(), lu.fill_in()), before);
        let b: DVec<f64> = (0..a.rows()).map(|i| i as f64 + 1.0).collect();
        let xs = lu.solve(&b).unwrap();
        let xd = Lu::factor(&a2.to_dense()).unwrap().solve(&b).unwrap();
        assert!((&xs - &xd).norm_inf() < 1e-10);
    }

    #[test]
    fn refactored_clones_share_the_symbolic_analysis() {
        let a = ladder_csr(12);
        let base = SparseLu::factor(&a).unwrap();
        let b: DVec<f64> = (0..a.rows()).map(|i| (i as f64) * 0.5 - 2.0).collect();
        // A family of scaled variants: each clone must solve its own
        // matrix with the shared ordering/pivot sequence.
        for scale in [0.5, 1.0, 7.25] {
            let mut ak = a.clone();
            for v in ak.values_mut() {
                *v *= scale;
            }
            assert!(base.matches_pattern(&ak));
            let lu = base.refactored(&ak).unwrap();
            assert_eq!(lu.factor_nnz(), base.factor_nnz());
            let xs = lu.solve(&b).unwrap();
            let xd = Lu::factor(&ak.to_dense()).unwrap().solve(&b).unwrap();
            assert!((&xs - &xd).norm_inf() < 1e-10, "scale {scale}");
        }
        // The base factorization is untouched by the derived clones.
        let xs = base.solve(&b).unwrap();
        let xd = Lu::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        assert!((&xs - &xd).norm_inf() < 1e-10);
    }

    #[test]
    fn refactored_rejects_different_pattern() {
        let a = ladder_csr(4);
        let lu = SparseLu::factor(&a).unwrap();
        let other = ladder_csr(5);
        assert!(!lu.matches_pattern(&other));
        assert!(matches!(
            lu.refactored(&other),
            Err(MathError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = ladder_csr(4);
        let mut lu = SparseLu::factor(&a).unwrap();
        let other = ladder_csr(5);
        assert!(matches!(
            lu.refactor(&other),
            Err(MathError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn refactor_detects_new_singularity() {
        let a = ladder_csr(4);
        let mut lu = SparseLu::factor(&a).unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v = 0.0;
        }
        assert!(matches!(
            lu.refactor(&a2),
            Err(MathError::SingularMatrix { .. })
        ));
        // The factorization object stays usable for a clean refactor.
        lu.refactor(&a).unwrap();
        let b: DVec<f64> = (0..a.rows()).map(|_| 1.0).collect();
        let r = &a.mul_vec(&lu.solve(&b).unwrap()).unwrap() - &b;
        assert!(r.norm_inf() < 1e-10);
    }

    #[test]
    fn solve_transpose_matches_dense() {
        let a = ladder_csr(9);
        let lu = SparseLu::factor(&a).unwrap();
        let b: DVec<f64> = (0..a.rows()).map(|i| (i as f64) - 2.0).collect();
        let ys = lu.solve_transpose(&b).unwrap();
        let yd = Lu::factor(&a.to_dense().transpose())
            .unwrap()
            .solve(&b)
            .unwrap();
        assert!((&ys - &yd).norm_inf() < 1e-10);
    }

    #[test]
    fn complex_solve_and_transpose() {
        let j = Complex64::J;
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, Complex64::from_real(2.0) + j);
        t.push(0, 1, Complex64::from_real(-1.0));
        t.push(1, 0, Complex64::from_real(-1.0));
        t.push(1, 1, Complex64::from_real(3.0) - j);
        t.push(1, 2, j);
        t.push(2, 1, j);
        t.push(2, 2, Complex64::from_real(1.5));
        let a = t.build();
        let b = DVec::from(vec![
            Complex64::ONE,
            Complex64::J,
            Complex64::from_real(2.0),
        ]);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = &a.mul_vec(&x).unwrap() - &b;
        assert!(r.norm_inf() < 1e-12);
        let y = lu.solve_transpose(&b).unwrap();
        let rt = &a.transpose().mul_vec(&y).unwrap() - &b;
        assert!(rt.norm_inf() < 1e-12);
    }

    #[test]
    fn min_degree_avoids_arrow_fill() {
        // Arrow matrix: dense first row/column. Natural order fills the
        // whole matrix; minimum-degree eliminates the leaves first and
        // produces zero fill.
        let n = 20;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        let a = t.build();
        let lu = SparseLu::factor(&a).unwrap();
        assert_eq!(lu.fill_in(), 0, "fill = {}", lu.fill_in());
        let b: DVec<f64> = (0..n).map(|i| i as f64).collect();
        let x = lu.solve(&b).unwrap();
        let r = &a.mul_vec(&x).unwrap() - &b;
        assert!(r.norm_inf() < 1e-10);
    }

    #[test]
    fn stats_merge_sums_counts_and_maxes_gauges() {
        let mut a = SolveStats {
            symbolic_analyses: 1,
            numeric_refactors: 5,
            nnz: 100,
            fill_in: 10,
            jacobian_reused: 2,
        };
        let b = SolveStats {
            symbolic_analyses: 2,
            numeric_refactors: 1,
            nnz: 50,
            fill_in: 20,
            jacobian_reused: 0,
        };
        a.merge(&b);
        assert_eq!(a.symbolic_analyses, 3);
        assert_eq!(a.numeric_refactors, 6);
        assert_eq!(a.jacobian_reused, 2);
        assert_eq!(a.nnz, 100);
        assert_eq!(a.fill_in, 20);
    }

    /// Perturbed copy of `ladder_csr(n)`: same pattern, lane-dependent
    /// values.
    fn ladder_csr_lane(n: usize, delta: f64) -> CsrMat<f64> {
        let mut a = ladder_csr(n);
        for v in a.values_mut() {
            if *v != 1.0 && *v != -1.0 {
                *v += delta;
            }
        }
        a
    }

    #[test]
    fn cast_symbolic_lane_refactor_matches_scalar_per_lane() {
        use crate::lanes::F64x4;
        let n = 12;
        let deltas = [0.0, 0.05, -0.07, 0.11];
        let scalar_lu = SparseLu::factor(&ladder_csr(n)).unwrap();

        // Widen the scalar symbolic analysis and refactor with a bundle
        // matrix whose lane l carries the delta-perturbed values.
        let scalars: Vec<CsrMat<f64>> = deltas.iter().map(|&d| ladder_csr_lane(n, d)).collect();
        let mut wide = ladder_csr(n).map_values(|_| F64x4::ZERO);
        for (p, v) in wide.values_mut().iter_mut().enumerate() {
            *v = F64x4::from_fn(|l| scalars[l].values()[p]);
        }
        let wide_lu = scalar_lu
            .cast_symbolic::<F64x4>()
            .refactored(&wide)
            .unwrap();

        let b: DVec<F64x4> = (0..wide.rows()).map(|i| F64x4::splat(i as f64)).collect();
        let x = wide_lu.solve(&b).unwrap();
        for (l, s) in scalars.iter().enumerate() {
            let b_l: DVec<f64> = (0..s.rows()).map(|i| i as f64).collect();
            let x_l = scalar_lu.refactored(s).unwrap().solve(&b_l).unwrap();
            for i in 0..s.rows() {
                assert!(
                    (x[i].lane(l) - x_l[i]).abs() <= 1e-9 * x_l[i].abs().max(1.0),
                    "lane {l} row {i}: {} vs {}",
                    x[i].lane(l),
                    x_l[i]
                );
            }
        }
    }

    /// A dense 2×2 bundle `[[a, b], [c, d]]` whose lane `l` holds
    /// `vals[l] = [a, b, c, d]` (CSR order).
    fn dense2_bundle(vals: [[f64; 4]; 4]) -> CsrMat<crate::lanes::F64x4> {
        use crate::lanes::F64x4;
        let mut t = Triplets::new(2, 2);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            t.push(r, c, 1.0);
        }
        let mut a = t.build().map_values(|_| F64x4::ZERO);
        for (p, v) in a.values_mut().iter_mut().enumerate() {
            *v = F64x4::from_fn(|l| vals[l][p]);
        }
        a
    }

    #[test]
    fn factor_from_lane0_pivots_like_lane_0_alone() {
        use crate::lanes::F64x4;
        // Lane 0 keeps its diagonal pivot; lane 1's first column is
        // dominated by the off-diagonal, so pivoting by the largest
        // magnitude over all lanes takes row 1 first.
        let a = dense2_bundle([
            [1.0, 1.0, 0.5, 1.0],
            [0.01, 1.0, 100.0, 1.0],
            [2.0, 1.0, 0.5, 3.0],
            [1.0, -1.0, 0.5, 1.0],
        ]);
        let lane0 = SparseLu::factor(&a.map_values(|v| v.lane(0))).unwrap();
        assert_ne!(SparseLu::factor(&a).unwrap().rowperm, lane0.rowperm);

        let lu = SparseLu::factor_from_lane0(&a).unwrap();
        assert_eq!(lu.colperm, lane0.colperm);
        assert_eq!(lu.rowperm, lane0.rowperm);
        // Every lane replays lane 0's elimination: bit for bit what a
        // scalar refactor on lane 0's analysis computes.
        let b: DVec<_> = [1.0, -2.0].iter().map(|&v| F64x4::splat(v)).collect();
        let x = lu.solve(&b).unwrap();
        for l in 0..4 {
            let x_l = lane0
                .refactored(&a.map_values(|v| v.lane(l)))
                .unwrap()
                .solve(&[1.0, -2.0].into_iter().collect())
                .unwrap();
            for i in 0..2 {
                assert_eq!(x[i].lane(l).to_bits(), x_l[i].to_bits(), "lane {l} row {i}");
            }
        }
    }

    #[test]
    fn factor_from_lane0_falls_back_to_the_bundle_pivots() {
        use crate::lanes::F64x4;
        let fine = [1.0, 1.0, 0.5, 1.0];
        // Lane 0 alone is singular (every entry zero).
        let singular = dense2_bundle([[0.0; 4], fine, fine, fine]);
        assert!(SparseLu::factor(&singular.map_values(|v| v.lane(0))).is_err());
        // Lane 0 factors alone, but lane 1's first column is 1e14
        // larger, so lane 0's pivot fails the bundle's guard.
        let rejected = dense2_bundle([fine, [0.0, 1.0, 1e14, 1.0], fine, fine]);
        let lane0 = SparseLu::factor(&rejected.map_values(|v| v.lane(0))).unwrap();
        let mut widened = lane0.cast_symbolic::<F64x4>();
        assert!(widened.refactor(&rejected).is_err());
        assert_ne!(SparseLu::factor(&rejected).unwrap().rowperm, lane0.rowperm);

        for a in [singular, rejected] {
            let bundle = SparseLu::factor(&a).unwrap();
            let lu = SparseLu::factor_from_lane0(&a).unwrap();
            assert_eq!(lu.colperm, bundle.colperm);
            assert_eq!(lu.rowperm, bundle.rowperm);
        }
    }

    #[test]
    fn approx_bytes_scales_with_lane_width() {
        use crate::lanes::{F64x16, F64x8};
        let lu = SparseLu::factor(&ladder_csr(16)).unwrap();
        let b1 = lu.approx_bytes();
        let b8 = lu.cast_symbolic::<F64x8>().approx_bytes();
        let b16 = lu.cast_symbolic::<F64x16>().approx_bytes();
        // Index bytes are shared; value bytes scale exactly K×.
        assert!(b8 > b1);
        assert!(b16 > b8);
        let value_bytes = |k: usize| {
            (lu.l_vals.len() + lu.u_vals.len() + lu.u_diag.len() + lu.work.len()) * 8 * k
        };
        let index_bytes = b1 - value_bytes(1);
        assert_eq!(b8, index_bytes + value_bytes(8));
        assert_eq!(b16, index_bytes + value_bytes(16));
    }
}
