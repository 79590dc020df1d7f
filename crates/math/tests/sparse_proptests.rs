//! Property-based parity tests: the sparse path (`Triplets` →
//! [`CsrMat`] → [`SparseLu`]) must agree with the dense reference
//! (`DMat` → [`Lu`]) on assembly, matrix–vector products, solves and
//! singularity detection, over randomized diagonally dominant systems.
//! Two properties are bitwise instead: a same-value refactor reproduces
//! the fresh factor's solves, and the in-place solves reproduce the
//! allocating ones.

use ams_math::{CsrMat, DMat, DVec, F64x4, Lu, MathError, Scalar, SparseLu, Triplets};
use proptest::prelude::*;

const N_MAX: usize = 16;

/// Builds the dense and sparse assemblies of the same randomized system
/// of `n` unknowns. Raw coordinates are reduced modulo `n`; duplicates
/// are intended (MNA stamping sums them). The diagonal is set to (row
/// absolute sum) + margin after the off-diagonal stamps, making the
/// matrix strictly diagonally dominant and therefore nonsingular.
fn assemble(n: usize, off: &[(usize, usize, f64)], margin: &[f64]) -> (DMat<f64>, CsrMat<f64>) {
    let mut dense = DMat::<f64>::zeros(n, n);
    let mut trip = Triplets::new(n, n);
    for &(i, j, v) in off {
        let (i, j) = (i % n, j % n);
        if i != j {
            dense[(i, j)] += v;
            trip.push(i, j, v);
        }
    }
    for i in 0..n {
        let row_sum: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| dense[(i, j)].abs())
            .sum();
        let d = row_sum + margin[i];
        dense[(i, i)] += d;
        trip.push(i, i, d);
    }
    (dense, trip.build())
}

/// The system of [`assemble`] with rows `i` and `i + 1` exchanged for
/// every even `i` that `swaps` flags, keeping a structural (possibly
/// zero) entry on every diagonal position: still nonsingular, but the
/// pivots of the swapped rows have to leave the diagonal.
fn assemble_swapped(
    n: usize,
    off: &[(usize, usize, f64)],
    margin: &[f64],
    swaps: &[usize],
) -> CsrMat<f64> {
    let (dense, _) = assemble(n, off, margin);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (0..n - 1).step_by(2) {
        if swaps[i] == 1 {
            perm.swap(i, i + 1);
        }
    }
    let mut trip = Triplets::new(n, n);
    for (i, &src) in perm.iter().enumerate() {
        for j in 0..n {
            let v = dense[(src, j)];
            if v != 0.0 || i == j {
                trip.push(i, j, v);
            }
        }
    }
    trip.build()
}

fn bits(x: &DVec<f64>) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn lane_bits(x: &DVec<F64x4>) -> Vec<[u64; 4]> {
    x.iter().map(|v| v.0.map(f64::to_bits)).collect()
}

/// Solves into buffers that start as NaN and are then reused for a
/// second right-hand side; both results must be `solve`'s, bit for bit,
/// and the transpose solves `solve_transpose`'s.
fn solve_into_matches_solve<T: Scalar>(
    lu: &SparseLu<T>,
    rhs: [&DVec<T>; 2],
    same: impl Fn(&DVec<T>, &DVec<T>) -> bool,
) -> bool {
    let nan = T::from_f64(f64::NAN);
    let n = lu.dim();
    let mut z = DVec::from(vec![nan; n]);
    let mut x = DVec::from(vec![nan; n]);
    let mut zt = DVec::from(vec![nan; n]);
    let mut xt = DVec::from(vec![nan; n]);
    rhs.iter().all(|b| {
        lu.solve_into(b, &mut z, &mut x).unwrap();
        lu.solve_transpose_into(b, &mut zt, &mut xt).unwrap();
        same(&x, &lu.solve(b).unwrap()) && same(&xt, &lu.solve_transpose(b).unwrap())
    })
}

proptest! {
    #[test]
    fn same_value_refactor_is_bitwise_the_fresh_factor(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
        swaps in proptest::collection::vec(0usize..2, N_MAX),
        b in proptest::collection::vec(-10.0f64..10.0, N_MAX),
        scale in 0.25f64..4.0,
    ) {
        let a = assemble_swapped(n, &off, &margin, &swaps);
        let fresh = SparseLu::factor(&a).unwrap();
        // Visit other values first, so every factor slot and the
        // workspace have been written since the fresh factorization.
        let mut scaled = a.clone();
        for v in scaled.values_mut() {
            *v *= scale;
        }
        let mut re = fresh.clone();
        re.refactor(&scaled).unwrap();
        re.refactor(&a).unwrap();
        let rhs = DVec::from(b[..n].to_vec());
        prop_assert_eq!(bits(&re.solve(&rhs).unwrap()), bits(&fresh.solve(&rhs).unwrap()));
        prop_assert_eq!(
            bits(&re.solve_transpose(&rhs).unwrap()),
            bits(&fresh.solve_transpose(&rhs).unwrap())
        );
    }

    #[test]
    fn in_place_solves_are_bitwise_the_allocating_ones(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
        swaps in proptest::collection::vec(0usize..2, N_MAX),
        b in proptest::collection::vec(-10.0f64..10.0, 2 * N_MAX),
    ) {
        let a = assemble_swapped(n, &off, &margin, &swaps);
        let rhs = [DVec::from(b[..n].to_vec()), DVec::from(b[N_MAX..N_MAX + n].to_vec())];
        let lu = SparseLu::factor(&a).unwrap();
        prop_assert!(solve_into_matches_solve(&lu, [&rhs[0], &rhs[1]], |x, y| bits(x) == bits(y)));

        let dense = Lu::factor(&a.to_dense()).unwrap();
        let mut x = DVec::from(vec![f64::NAN; n]);
        for r in &rhs {
            dense.solve_into(r, &mut x).unwrap();
            prop_assert_eq!(bits(&x), bits(&dense.solve(r).unwrap()));
        }

        // Four lanes on the scalar symbolic analysis: lane l scales row
        // i by 1 + ((i + l) mod 4) / 4. Row scaling keeps the pattern
        // and leaves every pivot of the shared sequence nonzero.
        let mut wide = a.map_values(|_| F64x4::ZERO);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = wide.position(i, j).unwrap();
                wide.values_mut()[p] = F64x4::from_fn(|l| v * (1.0 + ((i + l) % 4) as f64 / 4.0));
            }
        }
        let mut wide_lu = lu.cast_symbolic::<F64x4>();
        wide_lu.refactor(&wide).unwrap();
        let wide_rhs = rhs.clone().map(|r| r.map(|v| F64x4::from_fn(|l| v + l as f64)));
        prop_assert!(solve_into_matches_solve(
            &wide_lu,
            [&wide_rhs[0], &wide_rhs[1]],
            |x, y| lane_bits(x) == lane_bits(y),
        ));
    }

    #[test]
    fn csr_round_trips_through_dense(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
    ) {
        let (dense, csr) = assemble(n, &off, &margin);
        // Triplet assembly ≡ dense assembly. Duplicate coordinates may be
        // summed in a different order than the dense `+=` loop, so allow
        // rounding at the last ulp instead of demanding bitwise equality.
        let expanded = csr.to_dense();
        for (a, b) in expanded.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{} vs {}", a, b);
        }
        // Dense → CSR → dense round-trip.
        let back = CsrMat::from_dense(&dense).to_dense();
        prop_assert_eq!(back.as_slice(), dense.as_slice());
    }

    #[test]
    fn sparse_mat_vec_matches_dense(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
        b in proptest::collection::vec(-10.0f64..10.0, N_MAX),
    ) {
        let (dense, csr) = assemble(n, &off, &margin);
        let x = DVec::from(b[..n].to_vec());
        let yd = dense.mul_vec(&x).unwrap();
        let ys = csr.mul_vec(&x).unwrap();
        for i in 0..n {
            prop_assert!((yd[i] - ys[i]).abs() <= 1e-10 * (1.0 + yd[i].abs()));
        }
    }

    #[test]
    fn sparse_solve_matches_dense_lu(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
        b in proptest::collection::vec(-10.0f64..10.0, N_MAX),
    ) {
        let (dense, csr) = assemble(n, &off, &margin);
        let rhs = DVec::from(b[..n].to_vec());
        let xd = Lu::factor(&dense).unwrap().solve(&rhs).unwrap();
        let xs = SparseLu::factor(&csr).unwrap().solve(&rhs).unwrap();
        for i in 0..n {
            prop_assert!(
                (xd[i] - xs[i]).abs() <= 1e-10 * (1.0 + xd[i].abs()),
                "row {}: dense {} vs sparse {}", i, xd[i], xs[i]
            );
        }
    }

    #[test]
    fn refactor_matches_fresh_factor(
        n in 2usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
        b in proptest::collection::vec(-10.0f64..10.0, N_MAX),
        scale in 0.25f64..4.0,
    ) {
        let (_, csr) = assemble(n, &off, &margin);
        let mut lu = SparseLu::factor(&csr).unwrap();
        // Same pattern, scaled values: a numeric refactor must agree with
        // a from-scratch factorization.
        let mut scaled = csr.clone();
        for v in scaled.values_mut() {
            *v *= scale;
        }
        lu.refactor(&scaled).unwrap();
        let rhs = DVec::from(b[..n].to_vec());
        let x_re = lu.solve(&rhs).unwrap();
        let x_fresh = SparseLu::factor(&scaled).unwrap().solve(&rhs).unwrap();
        for i in 0..n {
            prop_assert!((x_re[i] - x_fresh[i]).abs() <= 1e-10 * (1.0 + x_fresh[i].abs()));
        }
    }

    #[test]
    fn singular_detection_parity(
        n in 2usize..N_MAX,
        row in 0usize..N_MAX,
        off in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -5.0f64..5.0), 0..4 * N_MAX),
        margin in proptest::collection::vec(0.5f64..4.0, N_MAX),
    ) {
        // Take a nonsingular system and zero out one row: both backends
        // must report a singular matrix.
        let row = row % n;
        let (mut dense, _) = assemble(n, &off, &margin);
        for j in 0..n {
            dense[(row, j)] = 0.0;
        }
        let csr = CsrMat::from_dense(&dense);
        let dense_singular = matches!(
            Lu::factor(&dense).err(),
            Some(MathError::SingularMatrix { .. })
        );
        let sparse_singular = matches!(
            SparseLu::factor(&csr).err(),
            Some(MathError::SingularMatrix { .. })
        );
        prop_assert!(dense_singular);
        prop_assert!(sparse_singular);
    }
}
