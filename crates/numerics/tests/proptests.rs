//! Property-based tests for the numerical kernels.

use proptest::prelude::*;
use rfsim_numerics::complex::{cdot, cnorm2};
use rfsim_numerics::dense::Mat;
use rfsim_numerics::fft::{dft, fft_pow2, idft, ifft_pow2};
use rfsim_numerics::krylov::{gmres, IdentityPrecond, KrylovOptions};
use rfsim_numerics::sparse::{Csr, SparseLu, Triplets};
use rfsim_numerics::svd::Svd;
use rfsim_numerics::{Complex, Scalar};
use std::collections::BTreeMap;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e3f64..1e3).prop_filter("nonzero-ish", |x| x.abs() > 1e-9 || *x == 0.0)
}

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec((finite_f64(), finite_f64()), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

/// Well-conditioned matrix: diagonally dominant with bounded off-diagonals.
fn dd_matrix(n: usize) -> impl Strategy<Value = Mat<f64>> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        let mut m = Mat::from_fn(n, n, |i, j| v[i * n + j]);
        for i in 0..n {
            m[(i, i)] = n as f64 + 1.0 + v[i * n + i];
        }
        m
    })
}

/// A nonsingular `n × n` sparse matrix with an all-zero diagonal: the
/// rows of a strictly diagonally dominant matrix shifted cyclically by
/// `shift` (in `1..n`), so every column's dominant entry sits off the
/// diagonal.
fn zero_diagonal_matrix() -> impl Strategy<Value = Csr<f64>> {
    (2usize..30).prop_flat_map(|n| {
        (
            Just(n),
            1..n,
            proptest::collection::vec(1.0f64..2.0, n),
            proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..3 * n),
        )
            .prop_map(|(n, shift, mut diag, offdiag)| {
                let mut t = Triplets::new(n, n);
                // Row i of the dominant matrix becomes row (i − shift) mod n;
                // entries that would land on the diagonal are dropped.
                let row_of = |i: usize| (i + n - shift) % n;
                for &(i, j, v) in &offdiag {
                    if i != j && row_of(i) != j {
                        t.push(row_of(i), j, v);
                        diag[i] += v.abs();
                    }
                }
                for (j, d) in diag.iter().enumerate() {
                    t.push(row_of(j), j, *d);
                }
                t.to_csr()
            })
    })
}

/// [`zero_diagonal_matrix`] with small integer entries: off-diagonals
/// from {±1, ±2}, dominant entries 1 + Σ|off-diagonal| of their row.
/// Eliminating such a matrix cancels entries of L to exact zeros, which
/// real-valued draws never do.
fn cancelling_zero_diagonal_matrix() -> impl Strategy<Value = Csr<f64>> {
    const OFF: [f64; 4] = [-2.0, -1.0, 1.0, 2.0];
    (2usize..30).prop_flat_map(|n| {
        (Just(n), 1..n, proptest::collection::vec((0..n, 0..n, 0usize..4), 0..3 * n)).prop_map(
            |(n, shift, offdiag)| {
                let mut t = Triplets::new(n, n);
                let mut diag = vec![1.0; n];
                let row_of = |i: usize| (i + n - shift) % n;
                for &(i, j, v) in &offdiag {
                    if i != j && row_of(i) != j {
                        t.push(row_of(i), j, OFF[v]);
                        diag[i] += OFF[v].abs();
                    }
                }
                for (j, d) in diag.iter().enumerate() {
                    t.push(row_of(j), j, *d);
                }
                t.to_csr()
            },
        )
    })
}

/// `vals` stored at `positions` of an `n × n` matrix, every position
/// kept (exact zeros included), after the diagonal is scaled by
/// `diag_scale` and the entry of column `j` in row `dominant(j)` is set
/// to 1 + Σ|the column's other entries|: a nonsingular matrix whose
/// elimination with those pivots never loses column dominance.
fn dominant_draw(
    n: usize,
    positions: &[(usize, usize)],
    vals: &[Complex],
    diag_scale: f64,
    dominant: impl Fn(usize) -> usize,
) -> Csr<Complex> {
    let mut v: Vec<Complex> = positions
        .iter()
        .zip(vals)
        .map(|(&(i, j), &z)| if i == j { z.scale(diag_scale) } else { z })
        .collect();
    let mut others = vec![0.0; n];
    for (&(i, j), z) in positions.iter().zip(&v) {
        if i != dominant(j) {
            others[j] += z.abs();
        }
    }
    let mut t = Triplets::new(n, n);
    for (&(i, j), z) in positions.iter().zip(&mut v) {
        if i == dominant(j) {
            *z = Complex::new(1.0 + others[j], z.im);
        }
        t.push(i, j, *z);
    }
    t.to_pattern()
}

/// One complex sparse pattern — the diagonal, the cyclic superdiagonal
/// `(i, i + 1 mod n)` and random extra positions — and three value draws
/// on it: `a`, dominant on the diagonal, with each flagged extra position
/// exactly zero; `b`, dominant on the diagonal, with no zero; `c`,
/// dominant on the superdiagonal, with a diagonal that is zero or 10⁻⁶ of
/// its draw.
fn shared_pattern_draws() -> impl Strategy<Value = [Csr<Complex>; 3]> {
    (2usize..25).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0usize..2), 0..3 * n),
            proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 15 * n),
            0usize..2,
        )
            .prop_map(|(n, extra, vals, tiny)| {
                let mut zeroed = BTreeMap::new();
                for i in 0..n {
                    zeroed.insert((i, i), false);
                    zeroed.insert((i, (i + 1) % n), false);
                }
                for &(i, j, flag) in &extra {
                    zeroed.entry((i, j)).or_insert(flag == 1);
                }
                let positions: Vec<(usize, usize)> = zeroed.keys().copied().collect();
                let vals: Vec<Complex> =
                    vals.iter().map(|&(re, im)| Complex::new(re, im)).collect();
                let m = positions.len();
                let a_vals: Vec<Complex> = zeroed
                    .values()
                    .zip(&vals)
                    .map(|(&z, &v)| if z { Complex::ZERO } else { v })
                    .collect();
                let diag = |j: usize| j;
                let superdiag = |j: usize| (j + n - 1) % n;
                [
                    dominant_draw(n, &positions, &a_vals, 1.0, diag),
                    dominant_draw(n, &positions, &vals[m..2 * m], 1.0, diag),
                    dominant_draw(n, &positions, &vals[2 * m..], 1e-6 * tiny as f64, superdiag),
                ]
            })
    })
}

/// Checks `solve` and `solve_transposed` of `lu` against the dense LU of
/// `a` and of `aᵀ`.
fn agrees_with_dense(lu: &SparseLu<Complex>, a: &Csr<Complex>) -> Result<(), String> {
    let n = a.rows();
    let b: Vec<Complex> = (0..n).map(|i| Complex::new((i as f64 * 0.61).cos(), 0.5)).collect();
    let pairs = [
        (lu.solve(&b).unwrap(), a.to_dense().solve(&b).unwrap()),
        (lu.solve_transposed(&b).unwrap(), a.transpose().to_dense().solve(&b).unwrap()),
    ];
    for (got, want) in &pairs {
        for (g, w) in got.iter().zip(want) {
            prop_assert!((*g - *w).abs() < 1e-9 * (1.0 + w.abs()), "{g:?} vs dense {w:?}");
        }
    }
    Ok(())
}

/// Triplet values whose sums cancel exactly or round differently by
/// order, with both signed zeros.
const TRIPLET_VALUES: [f64; 8] = [-0.0, 0.0, 0.1, 0.2, 0.3, -0.3, 1.0, -1.0];

/// Checks `to_pattern` and `to_csr` against duplicates summed in push
/// order from zero: the pattern keeps every stamped position, and
/// `to_csr` is that pattern without its exact zeros, bit for bit.
fn check_triplet_sums<T: Scalar>(
    t: &Triplets<T>,
    bits: impl Fn(T) -> (u64, u64),
) -> Result<(), String> {
    let mut sums = BTreeMap::new();
    for &(i, j, v) in t.entries() {
        *sums.entry((i, j)).or_insert(T::ZERO) += v;
    }
    let pattern: Vec<_> = t.to_pattern().iter().map(|(i, j, v)| (i, j, bits(v))).collect();
    let expect: Vec<_> = sums.iter().map(|(&(i, j), &v)| (i, j, bits(v))).collect();
    prop_assert_eq!(pattern, expect);
    let csr: Vec<_> = t.to_csr().iter().map(|(i, j, v)| (i, j, bits(v))).collect();
    let nonzero: Vec<_> =
        sums.iter().filter(|(_, &v)| v != T::ZERO).map(|(&(i, j), &v)| (i, j, bits(v))).collect();
    prop_assert_eq!(csr, nonzero);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Real and complex triplet sets with duplicates, signed zeros and
    /// sums that cancel.
    #[test]
    fn to_csr_is_the_pattern_without_exact_zeros(
        entries in proptest::collection::vec((0usize..6, 0usize..6, 0usize..8, 0usize..8), 0..60),
    ) {
        let mut real = Triplets::new(6, 6);
        let mut complex = Triplets::new(6, 6);
        for &(i, j, a, b) in &entries {
            real.push(i, j, TRIPLET_VALUES[a]);
            complex.push(i, j, Complex::new(TRIPLET_VALUES[a], TRIPLET_VALUES[b]));
        }
        check_triplet_sums(&real, |v| (v.to_bits(), 0))?;
        check_triplet_sums(&complex, |v| (v.re.to_bits(), v.im.to_bits()))?;
    }

    /// Factors refactored on another draw's analysis solve as a fresh
    /// factorization and the dense LU do: `b` reuses `a`'s analysis
    /// although some of its positions are exactly zero in `a`, and `c`,
    /// whose pivots fail the threshold, falls back to an analysis of
    /// its own.
    #[test]
    fn refactored_sparse_lu_matches_fresh_and_dense([a, b, c] in shared_pattern_draws()) {
        let lu = a.lu().map_err(|e| format!("analysis: {e}"))?;
        agrees_with_dense(&lu, &a)?;
        let refactored = lu.refactor(&b).map_err(|e| format!("refactor: {e}"))?;
        prop_assert!(refactored.shares_analysis(&lu), "a column-dominant draw fell back");
        agrees_with_dense(&refactored, &b)?;
        agrees_with_dense(&b.lu().unwrap(), &b)?;
        let fallback = lu.refactor(&c).map_err(|e| format!("fallback: {e}"))?;
        prop_assert!(!fallback.shares_analysis(&lu), "a failing pivot was kept");
        agrees_with_dense(&fallback, &c)?;
    }

    /// Exact cancellation leaves zeros in L's structure; the factors must
    /// still solve with `A` and `Aᵀ` as the dense LU does.
    #[test]
    fn sparse_lu_survives_exact_cancellation(a in cancelling_zero_diagonal_matrix()) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let lu = a.lu().map_err(|e| format!("sparse lu: {e}"))?;
        let xs = lu.solve(&b).unwrap();
        let xd = a.to_dense().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-9 * (1.0 + d.abs()), "solve {s} vs dense {d}");
        }
        let xt = lu.solve_transposed(&b).unwrap();
        let xr = a.transpose().to_dense().solve(&b).unwrap();
        for (t, r) in xt.iter().zip(&xr) {
            prop_assert!((t - r).abs() < 1e-9 * (1.0 + r.abs()), "transposed {t} vs dense {r}");
        }
    }
}

proptest! {
    #[test]
    fn complex_mul_commutes(a in (finite_f64(), finite_f64()), b in (finite_f64(), finite_f64())) {
        let x = Complex::new(a.0, a.1);
        let y = Complex::new(b.0, b.1);
        let d = x * y - y * x;
        prop_assert!(d.abs() <= 1e-9 * (x.abs() * y.abs()).max(1.0));
    }

    #[test]
    fn complex_abs_triangle_inequality(a in (finite_f64(), finite_f64()), b in (finite_f64(), finite_f64())) {
        let x = Complex::new(a.0, a.1);
        let y = Complex::new(b.0, b.1);
        prop_assert!((x + y).abs() <= x.abs() + y.abs() + 1e-9);
    }

    #[test]
    fn lu_solve_residual_small(m in dd_matrix(8), b in proptest::collection::vec(-10.0f64..10.0, 8)) {
        let x = m.solve(&b).unwrap();
        let ax = m.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in dd_matrix(5), b in dd_matrix(5)) {
        let dab = a.matmul(&b).det();
        let dadb = a.det() * b.det();
        prop_assert!((dab - dadb).abs() <= 1e-6 * dadb.abs().max(1.0));
    }

    #[test]
    fn dft_linearity(x in complex_vec(24), y in complex_vec(24), s in finite_f64()) {
        let combined: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + b.scale(s)).collect();
        let lhs = dft(&combined);
        let fx = dft(&x);
        let fy = dft(&y);
        for k in 0..24 {
            let rhs = fx[k] + fy[k].scale(s);
            prop_assert!((lhs[k] - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
        }
    }

    #[test]
    fn dft_parseval(x in complex_vec(20)) {
        let f = dft(&x);
        let et: f64 = x.iter().map(|z| z.abs_sq()).sum();
        let ef: f64 = f.iter().map(|z| z.abs_sq()).sum::<f64>() / 20.0;
        prop_assert!((et - ef).abs() <= 1e-6 * et.max(1.0));
    }

    #[test]
    fn idft_inverts_dft(x in complex_vec(17)) {
        let back = idft(&dft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn fft_pow2_round_trip(x in complex_vec(32)) {
        let mut data = x.clone();
        fft_pow2(&mut data);
        ifft_pow2(&mut data);
        for (a, b) in data.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn fft_pow2_matches_dft(x in complex_vec(16)) {
        let mut fast = x.clone();
        fft_pow2(&mut fast);
        let slow = dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn complex_lu_solve_residual_small(
        vals in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 36),
        rhs in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 6),
    ) {
        // Diagonally dominant complex system.
        let n = 6;
        let mut m = Mat::from_fn(n, n, |i, j| {
            let (re, im) = vals[i * n + j];
            Complex::new(re, im)
        });
        for i in 0..n {
            m[(i, i)] += Complex::new(n as f64 + 1.0, 0.0);
        }
        let b: Vec<Complex> = rhs.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let lu = m.lu().unwrap();
        let x = lu.solve(&b).unwrap();
        // Residual ‖Mx − b‖∞ small relative to ‖b‖∞.
        let bnorm = b.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1.0);
        for i in 0..n {
            let mut ax = Complex::ZERO;
            for j in 0..n {
                ax += m[(i, j)] * x[j];
            }
            prop_assert!((ax - b[i]).abs() < 1e-9 * bnorm);
        }
    }

    #[test]
    fn svd_values_nonnegative_sorted(vals in proptest::collection::vec(-5.0f64..5.0, 12)) {
        let m = Mat::from_fn(4, 3, |i, j| vals[i * 3 + j]);
        let svd = Svd::new(&m).unwrap();
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for s in &svd.sigma {
            prop_assert!(*s >= 0.0);
        }
        // Frobenius norm equals the 2-norm of the singular values.
        let fro2: f64 = svd.sigma.iter().map(|s| s * s).sum();
        prop_assert!((fro2 - m.norm_fro().powi(2)).abs() < 1e-8 * fro2.max(1.0));
    }

    #[test]
    fn gmres_matches_lu(m in dd_matrix(10), b in proptest::collection::vec(-5.0f64..5.0, 10)) {
        let xd = m.solve(&b).unwrap();
        let (xi, _) = gmres(&m, &b, None, &IdentityPrecond, &KrylovOptions::default()).unwrap();
        for (a, c) in xi.iter().zip(&xd) {
            prop_assert!((a - c).abs() < 1e-6 * (1.0 + c.abs()));
        }
    }

    #[test]
    fn sparse_matvec_matches_dense(entries in proptest::collection::vec((0usize..12, 0usize..12, -3.0f64..3.0), 1..60)) {
        let mut t = Triplets::new(12, 12);
        for &(i, j, v) in &entries {
            t.push(i, j, v);
        }
        let a = t.to_csr();
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin()).collect();
        let ys = a.matvec(&x);
        let yd = a.to_dense().matvec(&x);
        for (s, d) in ys.iter().zip(&yd) {
            prop_assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn ordered_sparse_lu_matches_dense(a in zero_diagonal_matrix()) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let lu = a.lu().unwrap();
        let xs = lu.solve(&b).unwrap();
        let xd = a.to_dense().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-9 * (1.0 + d.abs()), "solve {s} vs dense {d}");
        }
        let xt = lu.solve_transposed(&b).unwrap();
        let xr = a.transpose().lu().unwrap().solve(&b).unwrap();
        for (t, r) in xt.iter().zip(&xr) {
            prop_assert!((t - r).abs() < 1e-9 * (1.0 + r.abs()), "transposed {t} vs {r}");
        }
    }

    #[test]
    fn cdot_conjugate_symmetry(x in complex_vec(9), y in complex_vec(9)) {
        let a = cdot(&x, &y);
        let b = cdot(&y, &x).conj();
        prop_assert!((a - b).abs() <= 1e-9 * (cnorm2(&x) * cnorm2(&y)).max(1.0));
    }

    // Lengths 1..=64 cover the trivial, power-of-two, and Bluestein
    // (composite and prime, e.g. 61) plan kinds.
    #[test]
    fn planned_dft_matches_reference_bitwise(x in (1usize..65).prop_flat_map(complex_vec)) {
        let p = dft(&x);
        let r = rfsim_numerics::fft::reference::dft(&x);
        for (a, b) in p.iter().zip(&r) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn planned_idft_matches_reference_bitwise(x in (1usize..65).prop_flat_map(complex_vec)) {
        let p = idft(&x);
        let r = rfsim_numerics::fft::reference::idft(&x);
        for (a, b) in p.iter().zip(&r) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    // Bitwise under scalar dispatch (the gather loop transforms the lines
    // one by one); within kernel tolerance under SIMD dispatch (the
    // batched executor runs FMA butterflies across the batch axis).
    #[test]
    fn strided_batch_matches_per_line(
        (ns, count, field, inverse) in (1usize..25, 1usize..7, 0usize..2)
            .prop_flat_map(|(ns, count, inv)| {
                (Just(ns), Just(count), complex_vec(ns * count), Just(inv == 1))
            })
    ) {
        let plan = rfsim_numerics::fft::plan(ns);
        let mut scratch = rfsim_numerics::fft::FftScratch::new();
        let mut batched = field.clone();
        if inverse {
            plan.inverse_strided(&mut batched, count, count, &mut scratch);
        } else {
            plan.forward_strided(&mut batched, count, count, &mut scratch);
        }
        let simd = rfsim_numerics::kernels::simd_active();
        for i in 0..count {
            let mut line: Vec<Complex> = (0..ns).map(|s| field[s * count + i]).collect();
            if inverse {
                plan.inverse(&mut line, &mut scratch);
            } else {
                plan.forward(&mut line, &mut scratch);
            }
            for (s, v) in line.iter().enumerate() {
                let w = batched[s * count + i];
                if simd {
                    let scale = v.abs().max(1.0);
                    prop_assert!((*v - w).abs() <= 1e-12 * scale,
                        "line {} sample {}: {} vs {}", i, s, v, w);
                } else {
                    prop_assert_eq!(v.re.to_bits(), w.re.to_bits());
                    prop_assert_eq!(v.im.to_bits(), w.im.to_bits());
                }
            }
        }
    }

    // A warm workspace must not leak state between solves: the second
    // solve with a reused workspace is bitwise the cold-start solution.
    // So is a solve through an empty, disabled recycle space.
    #[test]
    fn gmres_workspace_reuse_is_bitwise(
        m in dd_matrix(10),
        b1 in proptest::collection::vec(-5.0f64..5.0, 10),
        b2 in proptest::collection::vec(-5.0f64..5.0, 10),
    ) {
        use rfsim_numerics::krylov::{gmres_with, GmresWorkspace, RecycleSpace};
        let opts = KrylovOptions::default();
        let mut ws = GmresWorkspace::new();
        gmres_with(&m, &b1, None, &IdentityPrecond, &opts, &mut ws, None).unwrap();
        let (warm, _) = gmres_with(&m, &b2, None, &IdentityPrecond, &opts, &mut ws, None).unwrap();
        let (cold, _) = gmres(&m, &b2, None, &IdentityPrecond, &opts).unwrap();
        let mut rec = RecycleSpace::new(0);
        let (recycled, _) =
            gmres_with(&m, &b2, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        for ((a, r), c) in warm.iter().zip(&recycled).zip(&cold) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
            prop_assert_eq!(r.to_bits(), c.to_bits());
        }
    }
}
