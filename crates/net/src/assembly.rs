//! Backend-independent MNA assembly: stamp sinks, stamp pointers, and
//! the dense/sparse linear-system state shared by every analysis.
//!
//! All element stamping in this crate is written against the [`Stamp`]
//! sink trait, so one assembly routine per analysis serves three uses:
//!
//! * [`DenseStamp`] writes into a dense `DMat` (the original path, still
//!   the right choice for small systems);
//! * [`MatrixWrites`] hands each matrix write to a closure — run once
//!   per (circuit, analysis) to record the coordinate sequence and so
//!   the sparsity pattern, which is valid forever because the
//!   stamp-call sequence of an assembly routine is data-independent
//!   (element loops and branch structure never depend on the state or
//!   time), and by `Circuit::stamp_matrix` to hand the values out;
//! * [`CsrStamp`] replays that sequence through **stamp pointers**:
//!   precomputed flat indices into the CSR value array, making per-step
//!   assembly a `values.fill(0)` plus indexed adds with no hashing,
//!   searching, or allocation.
//!
//! [`MnaSystem`] bundles the matrix storage, the right-hand side, the
//! cached factorization ([`ams_math::Lu`] or [`ams_math::SparseLu`] with
//! symbolic reuse), the solve's scratch and output vectors and the
//! [`SolveStats`] counters behind one API used by DC, transient, AC and
//! noise analyses.

use crate::NetError;
use ams_math::{CsrMat, DMat, DVec, Lu, MathError, Scalar, SolveStats, SparseLu, Triplets};

/// System size at and above which [`SolverBackend::Auto`] picks the
/// sparse backend. Below it the dense factorization's cache behavior
/// wins; above it the O(n³)/O(n²) dense costs take over quickly.
pub(crate) const SPARSE_CROSSOVER: usize = 48;

/// Selects the linear-solver backend used by the network analyses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverBackend {
    /// Sparse at and above a small-system crossover (currently 48
    /// unknowns), dense below it.
    #[default]
    Auto,
    /// Always the dense `Lu` path.
    Dense,
    /// Always the sparse `SparseLu` path.
    Sparse,
}

impl SolverBackend {
    /// Whether a system of `n` unknowns should use the sparse backend.
    pub(crate) fn use_sparse(self, n: usize) -> bool {
        match self {
            SolverBackend::Auto => n >= SPARSE_CROSSOVER,
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
        }
    }
}

/// Sink for MNA stamps: every assembly routine writes its matrix and
/// right-hand-side contributions through this trait.
pub(crate) trait Stamp<T: Scalar> {
    /// Adds `v` to matrix entry `(i, j)`.
    fn mat(&mut self, i: usize, j: usize, v: T);
    /// Adds `v` to right-hand-side entry `i`.
    fn rhs(&mut self, i: usize, v: T);
}

/// Stamps into a dense matrix and RHS vector.
pub(crate) struct DenseStamp<'a, T: Scalar> {
    pub mat: &'a mut DMat<T>,
    pub rhs: &'a mut DVec<T>,
}

impl<T: Scalar> Stamp<T> for DenseStamp<'_, T> {
    fn mat(&mut self, i: usize, j: usize, v: T) {
        self.mat[(i, j)] += v;
    }
    fn rhs(&mut self, i: usize, v: T) {
        self.rhs[i] += v;
    }
}

/// Hands each matrix write `(i, j, v)` of an assembly run to a closure;
/// RHS writes are discarded.
pub(crate) struct MatrixWrites<F>(pub F);

impl<T: Scalar, F: FnMut(usize, usize, T)> Stamp<T> for MatrixWrites<F> {
    fn mat(&mut self, i: usize, j: usize, v: T) {
        (self.0)(i, j, v);
    }
    fn rhs(&mut self, _i: usize, _v: T) {}
}

/// Replays a recorded assembly through stamp pointers: the `k`-th matrix
/// write of the run lands at `vals[ptrs[k]]`.
pub(crate) struct CsrStamp<'a, T: Scalar> {
    pub vals: &'a mut [T],
    pub ptrs: &'a [usize],
    pub cursor: usize,
    pub rhs: &'a mut DVec<T>,
}

impl<T: Scalar> Stamp<T> for CsrStamp<'_, T> {
    fn mat(&mut self, _i: usize, _j: usize, v: T) {
        self.vals[self.ptrs[self.cursor]] += v;
        self.cursor += 1;
    }
    fn rhs(&mut self, i: usize, v: T) {
        self.rhs[i] += v;
    }
}

/// RHS-only sink (matrix writes are rejected) for routines that refresh
/// sources without touching the factored matrix.
pub(crate) struct RhsOnlyStamp<'a, T: Scalar> {
    pub rhs: &'a mut DVec<T>,
}

impl<T: Scalar> Stamp<T> for RhsOnlyStamp<'_, T> {
    fn mat(&mut self, _i: usize, _j: usize, _v: T) {
        debug_assert!(false, "matrix write through an RHS-only stamp");
    }
    fn rhs(&mut self, i: usize, v: T) {
        self.rhs[i] += v;
    }
}

// One instance per solver, always heap-backed internally — the variant
// size difference is irrelevant here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum BackendState<T: Scalar> {
    Dense {
        mat: DMat<T>,
        lu: Option<Lu<T>>,
    },
    Sparse {
        csr: CsrMat<T>,
        ptrs: Vec<usize>,
        lu: Option<SparseLu<T>>,
        /// The sparse solve's step-ordered scratch vector.
        scratch: DVec<T>,
    },
}

/// The assembled linear system of one analysis: matrix storage (dense or
/// sparse with stamp pointers), RHS, cached factorization, solve buffers
/// and counters.
///
/// The pattern is recorded once at construction; [`MnaSystem::assemble`]
/// then zeroes the values and replays the caller's assembly closure,
/// [`MnaSystem::factor`] factors (or provably reuses / numerically
/// refactors) the result, and [`MnaSystem::solve_rhs`] solves into the
/// system's own buffers. Assembly, a sparse numeric refactor and the
/// solve allocate nothing; a dense factor builds a fresh `Lu`.
#[derive(Debug, Clone)]
pub(crate) struct MnaSystem<T: Scalar> {
    rhs: DVec<T>,
    /// The output of [`MnaSystem::solve_rhs`], lent to the caller.
    solution: DVec<T>,
    backend: BackendState<T>,
    /// Values of the last factored matrix, for bitwise reuse detection.
    snapshot: Vec<T>,
    stats: SolveStats,
    /// The sparse backend's fresh symbolic analysis (see
    /// [`MnaSystem::with_analysis`]).
    analyze: Analysis<T>,
}

/// A full sparse factorization: symbolic analysis plus numeric values.
pub(crate) type Analysis<T> = fn(&CsrMat<T>) -> ams_math::Result<SparseLu<T>>;

impl<T: Scalar> MnaSystem<T> {
    /// Creates the system state for `n` unknowns. When `sparse`, the
    /// `record` closure is run once against a [`MatrixWrites`] sink to
    /// discover the sparsity pattern and resolve the stamp pointers; the
    /// same closure's stamp sequence must be replayed by every later
    /// [`MnaSystem::assemble`].
    pub fn new(n: usize, sparse: bool, record: impl FnOnce(&mut dyn Stamp<T>)) -> Self {
        let backend = if sparse {
            let mut coords = Vec::new();
            record(&mut MatrixWrites(|i, j, _: T| coords.push((i, j))));
            let mut t = Triplets::new(n, n);
            for &(i, j) in &coords {
                t.push(i, j, T::ZERO);
            }
            let csr = t.build();
            let ptrs = coords
                .iter()
                .map(|&(i, j)| csr.position(i, j).expect("recorded coordinate in pattern"))
                .collect();
            BackendState::Sparse {
                csr,
                ptrs,
                lu: None,
                scratch: DVec::zeros(n),
            }
        } else {
            BackendState::Dense {
                mat: DMat::zeros(n, n),
                lu: None,
            }
        };
        MnaSystem {
            rhs: DVec::zeros(n),
            solution: DVec::zeros(n),
            backend,
            snapshot: Vec::new(),
            stats: SolveStats::default(),
            analyze: SparseLu::factor,
        }
    }

    /// Replaces [`SparseLu::factor`] as the sparse backend's fresh
    /// symbolic analysis — the lane engine passes
    /// [`SparseLu::factor_from_lane0`]. It still counts as one
    /// [`SolveStats::symbolic_analyses`].
    pub fn with_analysis(mut self, analyze: Analysis<T>) -> Self {
        self.analyze = analyze;
        self
    }

    /// Whether this system uses the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, BackendState::Sparse { .. })
    }

    /// The accumulated solver counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Zeroes matrix and RHS, then runs the assembly closure against the
    /// backend's stamp sink.
    pub fn assemble(&mut self, f: impl FnOnce(&mut dyn Stamp<T>)) {
        self.rhs.fill_zero();
        match &mut self.backend {
            BackendState::Dense { mat, .. } => {
                mat.fill_zero();
                f(&mut DenseStamp {
                    mat,
                    rhs: &mut self.rhs,
                });
            }
            BackendState::Sparse { csr, ptrs, .. } => {
                csr.set_values_zero();
                let expected = ptrs.len();
                let mut st = CsrStamp {
                    vals: csr.values_mut(),
                    ptrs,
                    cursor: 0,
                    rhs: &mut self.rhs,
                };
                f(&mut st);
                debug_assert_eq!(
                    st.cursor, expected,
                    "assembly replay diverged from the recorded stamp sequence"
                );
            }
        }
    }

    /// Re-runs only the RHS part of an assembly (the factored matrix is
    /// untouched).
    pub fn assemble_rhs(&mut self, f: impl FnOnce(&mut dyn Stamp<T>)) {
        self.rhs.fill_zero();
        f(&mut RhsOnlyStamp { rhs: &mut self.rhs });
    }

    /// Factors the assembled matrix. Returns `true` when a factorization
    /// (full or numeric-refactor) actually happened, `false` when the
    /// cached factors were provably reusable (`allow_reuse` and bitwise
    /// identical values), which is counted in
    /// [`SolveStats::jacobian_reused`].
    ///
    /// On the sparse backend the first factorization performs the
    /// symbolic analysis; later ones replay it as numeric refactors,
    /// falling back to a fresh symbolic factorization only if the cached
    /// pivot sequence becomes numerically unacceptable.
    pub fn factor(&mut self, allow_reuse: bool) -> Result<bool, NetError> {
        match &mut self.backend {
            BackendState::Dense { mat, lu } => {
                if allow_reuse && lu.is_some() && self.snapshot.as_slice() == mat.as_slice() {
                    self.stats.jacobian_reused += 1;
                    return Ok(false);
                }
                *lu = Some(Lu::factor(mat)?);
                self.snapshot.clear();
                self.snapshot.extend_from_slice(mat.as_slice());
                Ok(true)
            }
            BackendState::Sparse { csr, lu, .. } => {
                if allow_reuse && lu.is_some() && self.snapshot.as_slice() == csr.values() {
                    self.stats.jacobian_reused += 1;
                    return Ok(false);
                }
                let refactored = match lu.as_mut() {
                    Some(f) => match f.refactor(csr) {
                        Ok(()) => true,
                        Err(MathError::SingularMatrix { .. }) => false,
                        Err(e) => return Err(e.into()),
                    },
                    None => false,
                };
                if refactored {
                    self.stats.numeric_refactors += 1;
                } else {
                    let f = (self.analyze)(csr)?;
                    self.stats.symbolic_analyses += 1;
                    self.stats.nnz = self.stats.nnz.max(csr.nnz() as u64);
                    self.stats.fill_in = self.stats.fill_in.max(f.fill_in() as u64);
                    *lu = Some(f);
                }
                self.snapshot.clear();
                self.snapshot.extend_from_slice(csr.values());
                Ok(true)
            }
        }
    }

    /// A clone of the cached sparse factorization — `None` on the dense
    /// backend or before the first successful [`MnaSystem::factor`].
    pub fn export_sparse_factor(&self) -> Option<SparseLu<T>> {
        match &self.backend {
            BackendState::Sparse { lu, .. } => lu.clone(),
            BackendState::Dense { .. } => None,
        }
    }

    /// Seeds the sparse backend with a factorization computed on a
    /// structurally identical sibling system: the next
    /// [`MnaSystem::factor`] replays its symbolic analysis as a numeric
    /// refactor instead of running a fresh one. Returns `false` (and
    /// changes nothing) on the dense backend or when the imported
    /// pattern does not match this system's matrix.
    pub fn import_sparse_factor(&mut self, imported: SparseLu<T>) -> bool {
        match &mut self.backend {
            BackendState::Sparse { csr, lu, .. } if imported.matches_pattern(csr) => {
                *lu = Some(imported);
                // The imported numeric values are foreign: forget the
                // snapshot so bitwise reuse cannot trigger spuriously.
                self.snapshot.clear();
                true
            }
            _ => false,
        }
    }

    /// Solves against the assembled RHS with the cached factorization,
    /// into the system's own solution vector, and lends that vector
    /// out. A caller that keeps the solution swaps it with a vector of
    /// the same length instead of copying; the solve overwrites every
    /// entry, so whatever it swapped in is never read.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`MnaSystem::factor`].
    pub fn solve_rhs(&mut self) -> Result<&mut DVec<T>, NetError> {
        match &mut self.backend {
            BackendState::Dense { lu, .. } => lu
                .as_ref()
                .expect("factor before solve")
                .solve_into(&self.rhs, &mut self.solution)?,
            BackendState::Sparse { lu, scratch, .. } => {
                lu.as_ref().expect("factor before solve").solve_into(
                    &self.rhs,
                    scratch,
                    &mut self.solution,
                )?
            }
        }
        Ok(&mut self.solution)
    }

    /// Solves `Aᵀ·y = b` (the adjoint system of noise analysis). The
    /// sparse backend reuses the cached factors directly; the dense
    /// backend factors the explicit transpose.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`MnaSystem::factor`] (the
    /// matrix values are those of the last [`MnaSystem::assemble`]).
    pub fn solve_transpose(&self, b: &DVec<T>) -> Result<DVec<T>, NetError> {
        match &self.backend {
            BackendState::Dense { mat, .. } => Ok(Lu::factor(&mat.transpose())?.solve(b)?),
            BackendState::Sparse { lu, .. } => Ok(lu
                .as_ref()
                .expect("factor before solve_transpose")
                .solve_transpose(b)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_assembly(st: &mut dyn Stamp<f64>, g: f64) {
        // 2×2 conductance + a source, written twice to exercise the
        // duplicate-summing of stamp pointers.
        st.mat(0, 0, g);
        st.mat(1, 1, g);
        st.mat(0, 1, -g);
        st.mat(1, 0, -g);
        st.mat(0, 0, 1.0);
        st.rhs(0, 1.0);
    }

    #[test]
    fn dense_and_sparse_agree() {
        let mut d = MnaSystem::<f64>::new(2, false, |st| toy_assembly(st, 2.0));
        let mut s = MnaSystem::<f64>::new(2, true, |st| toy_assembly(st, 2.0));
        assert!(!d.is_sparse() && s.is_sparse());
        d.assemble(|st| toy_assembly(st, 2.0));
        s.assemble(|st| toy_assembly(st, 2.0));
        assert!(d.factor(true).unwrap());
        assert!(s.factor(true).unwrap());
        let xd = d.solve_rhs().unwrap();
        let xs = s.solve_rhs().unwrap();
        assert!((xd[0] - xs[0]).abs() < 1e-14 && (xd[1] - xs[1]).abs() < 1e-14);
    }

    #[test]
    fn factor_reuse_and_refactor_counters() {
        let mut s = MnaSystem::<f64>::new(2, true, |st| toy_assembly(st, 2.0));
        s.assemble(|st| toy_assembly(st, 2.0));
        assert!(s.factor(true).unwrap());
        assert_eq!(s.stats().symbolic_analyses, 1);
        // Identical reassembly: factor is provably reusable.
        s.assemble(|st| toy_assembly(st, 2.0));
        assert!(!s.factor(true).unwrap());
        assert_eq!(s.stats().jacobian_reused, 1);
        // Same values but reuse disallowed: numeric refactor.
        s.assemble(|st| toy_assembly(st, 2.0));
        assert!(s.factor(false).unwrap());
        assert_eq!(s.stats().numeric_refactors, 1);
        // New values: numeric refactor, no new symbolic analysis.
        s.assemble(|st| toy_assembly(st, 5.0));
        assert!(s.factor(true).unwrap());
        assert_eq!(s.stats().numeric_refactors, 2);
        assert_eq!(s.stats().symbolic_analyses, 1);
    }

    #[test]
    fn imported_factor_turns_first_factor_into_a_refactor() {
        let mut first = MnaSystem::<f64>::new(2, true, |st| toy_assembly(st, 2.0));
        first.assemble(|st| toy_assembly(st, 2.0));
        first.factor(true).unwrap();
        assert_eq!(first.stats().symbolic_analyses, 1);
        let exported = first.export_sparse_factor().expect("sparse factor");

        // A sibling system with the same pattern but different values:
        // adopting the export replaces its symbolic analysis with a
        // numeric refactor.
        let mut sib = MnaSystem::<f64>::new(2, true, |st| toy_assembly(st, 7.0));
        assert!(sib.import_sparse_factor(exported));
        sib.assemble(|st| toy_assembly(st, 7.0));
        sib.factor(true).unwrap();
        assert_eq!(sib.stats().symbolic_analyses, 0);
        assert_eq!(sib.stats().numeric_refactors, 1);
        let x = sib.solve_rhs().unwrap();
        // Reference solution from an independent dense system.
        let mut d = MnaSystem::<f64>::new(2, false, |st| toy_assembly(st, 7.0));
        d.assemble(|st| toy_assembly(st, 7.0));
        d.factor(true).unwrap();
        let xd = d.solve_rhs().unwrap();
        assert!((x[0] - xd[0]).abs() < 1e-14 && (x[1] - xd[1]).abs() < 1e-14);
    }

    #[test]
    fn import_rejects_dense_backend_and_foreign_patterns() {
        let mut sparse = MnaSystem::<f64>::new(2, true, |st| toy_assembly(st, 2.0));
        sparse.assemble(|st| toy_assembly(st, 2.0));
        sparse.factor(true).unwrap();
        let exported = sparse.export_sparse_factor().unwrap();

        let mut dense = MnaSystem::<f64>::new(2, false, |st| toy_assembly(st, 2.0));
        assert!(dense.export_sparse_factor().is_none());
        assert!(!dense.import_sparse_factor(exported.clone()));

        // Different pattern (3 unknowns): rejected, fresh analysis runs.
        let tri = |st: &mut dyn Stamp<f64>| {
            st.mat(0, 0, 1.0);
            st.mat(1, 1, 1.0);
            st.mat(2, 2, 1.0);
            st.rhs(0, 1.0);
        };
        let mut other = MnaSystem::<f64>::new(3, true, tri);
        assert!(!other.import_sparse_factor(exported));
        other.assemble(tri);
        other.factor(true).unwrap();
        assert_eq!(other.stats().symbolic_analyses, 1);
    }

    #[test]
    fn transpose_solve_matches_between_backends() {
        let asym = |st: &mut dyn Stamp<f64>| {
            st.mat(0, 0, 2.0);
            st.mat(0, 1, 1.0);
            st.mat(1, 1, 3.0);
        };
        let mut d = MnaSystem::<f64>::new(2, false, asym);
        let mut s = MnaSystem::<f64>::new(2, true, asym);
        d.assemble(asym);
        s.assemble(asym);
        d.factor(true).unwrap();
        s.factor(true).unwrap();
        let b = DVec::from(vec![1.0, 1.0]);
        let yd = d.solve_transpose(&b).unwrap();
        let ys = s.solve_transpose(&b).unwrap();
        assert!((yd[0] - ys[0]).abs() < 1e-14 && (yd[1] - ys[1]).abs() < 1e-14);
    }

    #[test]
    fn auto_backend_crossover() {
        assert!(!SolverBackend::Auto.use_sparse(SPARSE_CROSSOVER - 1));
        assert!(SolverBackend::Auto.use_sparse(SPARSE_CROSSOVER));
        assert!(!SolverBackend::Dense.use_sparse(10_000));
        assert!(SolverBackend::Sparse.use_sparse(2));
    }
}
