//! Agreement suite for the dispatched numerics kernels.
//!
//! Every kernel in `rfsim_numerics::kernels` has two implementations:
//! the AVX2+FMA fast path and the scalar reference. This suite pins the
//! contract between them:
//!
//! * **Scalar dispatch is the bitwise reference.** When `simd_active()`
//!   is false (no AVX2, not x86-64, or `RFSIM_SIMD=off`), each kernel
//!   must reproduce the naive evaluation order exactly — asserted here
//!   bit for bit.
//! * **SIMD dispatch agrees within reassociation error.** The vector
//!   paths split reductions across lanes, so results may differ from
//!   the reference by normal floating-point reassociation — bounded
//!   here relative to the sum of term magnitudes.
//!
//! The suite is dispatch-agnostic: run under the default build it checks
//! the SIMD tolerance arm, run with `RFSIM_SIMD=off` (the CI matrix does
//! both) it checks bitwise equality. One subprocess test additionally
//! forces the kill-switch regardless of how the parent was invoked, so
//! the scalar contract is exercised even in a SIMD-only environment.

use proptest::prelude::*;
use rfsim_numerics::kernels;
use rfsim_numerics::Complex;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e3f64..1e3
}

fn f64_vec(n: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f64>> {
    n.prop_flat_map(|len| proptest::collection::vec(finite_f64(), len))
}

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec((finite_f64(), finite_f64()), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

/// Lengths spanning empty, sub-lane, and multi-lane-plus-remainder
/// cases, so every kernel's vector tail handling is exercised.
fn len_strategy() -> impl Strategy<Value = usize> {
    0usize..40
}

/// Reassociation bound for a reduction over terms of magnitude `mag`.
fn tol(mag: f64) -> f64 {
    1e-12 * mag.max(1.0)
}

fn check_f64(simd: bool, got: f64, reference: f64, mag: f64) -> Result<(), String> {
    if simd {
        prop_assert!(
            (got - reference).abs() <= tol(mag),
            "simd {got} vs scalar {reference} (mag {mag})"
        );
    } else {
        prop_assert_eq!(got.to_bits(), reference.to_bits());
    }
    Ok(())
}

fn check_complex(simd: bool, got: Complex, reference: Complex, mag: f64) -> Result<(), String> {
    check_f64(simd, got.re, reference.re, mag)?;
    check_f64(simd, got.im, reference.im, mag)
}

proptest! {
    #[test]
    fn dot_f64_agrees((a, b) in len_strategy().prop_flat_map(|n| (f64_vec(Just(n)), f64_vec(Just(n))))) {
        let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let mag: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        check_f64(kernels::simd_active(), kernels::dot_f64(&a, &b), reference, mag)?;
    }

    #[test]
    fn norm2_sq_f64_agrees(v in f64_vec(len_strategy())) {
        let reference: f64 = v.iter().map(|x| x * x).sum();
        check_f64(kernels::simd_active(), kernels::norm2_sq_f64(&v), reference, reference.abs())?;
    }

    #[test]
    fn axpy_f64_agrees(
        alpha in finite_f64(),
        (x, y) in len_strategy().prop_flat_map(|n| (f64_vec(Just(n)), f64_vec(Just(n)))),
    ) {
        let mut got = y.clone();
        kernels::axpy_f64(alpha, &x, &mut got);
        for i in 0..x.len() {
            let reference = alpha.mul_add(x[i], y[i]);
            // FMA on both paths; the scalar fallback uses mul_add too, so
            // elementwise updates are bitwise on every dispatch.
            let loose = alpha * x[i] + y[i];
            let mag = (alpha * x[i]).abs() + y[i].abs();
            prop_assert!(
                got[i].to_bits() == reference.to_bits() || (got[i] - loose).abs() <= tol(mag),
                "axpy[{i}]: {} vs {reference}", got[i]
            );
        }
    }

    #[test]
    fn scale_f64_agrees(s in finite_f64(), v in f64_vec(len_strategy())) {
        let mut got = v.clone();
        kernels::scale_f64(&mut got, s);
        for i in 0..v.len() {
            prop_assert_eq!(got[i].to_bits(), (v[i] * s).to_bits());
        }
    }

    #[test]
    fn cdot_agrees((a, b) in len_strategy().prop_flat_map(|n| (complex_vec(n), complex_vec(n)))) {
        let reference = a.iter().zip(&b).fold(Complex::ZERO, |acc, (x, y)| acc + x.conj() * *y);
        let mag: f64 = a.iter().zip(&b).map(|(x, y)| x.abs() * y.abs()).sum();
        check_complex(kernels::simd_active(), kernels::cdot(&a, &b), reference, mag)?;
    }

    #[test]
    fn cdotu_agrees((a, b) in len_strategy().prop_flat_map(|n| (complex_vec(n), complex_vec(n)))) {
        let reference = a.iter().zip(&b).fold(Complex::ZERO, |acc, (x, y)| acc + *x * *y);
        let mag: f64 = a.iter().zip(&b).map(|(x, y)| x.abs() * y.abs()).sum();
        check_complex(kernels::simd_active(), kernels::cdotu(&a, &b), reference, mag)?;
    }

    #[test]
    fn cnorm2_sq_agrees(v in (0usize..40).prop_flat_map(complex_vec)) {
        let reference: f64 = v.iter().map(|z| z.re * z.re + z.im * z.im).sum();
        check_f64(kernels::simd_active(), kernels::cnorm2_sq(&v), reference, reference.abs())?;
    }

    #[test]
    fn caxpy_agrees(
        alpha in (finite_f64(), finite_f64()).prop_map(|(re, im)| Complex::new(re, im)),
        (x, y) in len_strategy().prop_flat_map(|n| (complex_vec(n), complex_vec(n))),
    ) {
        let mut got = y.clone();
        kernels::caxpy(alpha, &x, &mut got);
        let simd = kernels::simd_active();
        for i in 0..x.len() {
            let reference = y[i] + alpha * x[i];
            let mag = alpha.abs() * x[i].abs() + y[i].abs();
            if simd {
                prop_assert!((got[i] - reference).abs() <= tol(mag),
                    "caxpy[{i}]: {} vs {reference}", got[i]);
            } else {
                prop_assert_eq!(got[i].re.to_bits(), reference.re.to_bits());
                prop_assert_eq!(got[i].im.to_bits(), reference.im.to_bits());
            }
        }
    }

    #[test]
    fn cscale_agrees(s in finite_f64(), v in (0usize..40).prop_flat_map(complex_vec)) {
        let mut got = v.clone();
        kernels::cscale(&mut got, s);
        for i in 0..v.len() {
            prop_assert_eq!(got[i].re.to_bits(), (v[i].re * s).to_bits());
            prop_assert_eq!(got[i].im.to_bits(), (v[i].im * s).to_bits());
        }
    }

    #[test]
    fn asinh_slice_agrees(v in f64_vec(len_strategy())) {
        let mut got = v.clone();
        kernels::asinh_slice(&mut got);
        let simd = kernels::simd_active();
        for i in 0..v.len() {
            let reference = v[i].asinh();
            if simd {
                // The vector path evaluates via log1p algebra — agree to a
                // few ULP, checked relatively.
                prop_assert!((got[i] - reference).abs() <= 1e-14 * reference.abs().max(1.0),
                    "asinh({}) = {} vs {reference}", v[i], got[i]);
            } else {
                prop_assert_eq!(got[i].to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn atan_slice_agrees(v in f64_vec(len_strategy())) {
        let mut got = v.clone();
        kernels::atan_slice(&mut got);
        let simd = kernels::simd_active();
        for i in 0..v.len() {
            let reference = v[i].atan();
            if simd {
                prop_assert!((got[i] - reference).abs() <= 1e-14 * reference.abs().max(1.0),
                    "atan({}) = {} vs {reference}", v[i], got[i]);
            } else {
                prop_assert_eq!(got[i].to_bits(), reference.to_bits());
            }
        }
    }
}

/// Forces the kill-switch in a subprocess (dispatch is resolved once per
/// process) and checks that a canonical computation matches the naive
/// reference bit for bit — the scalar contract, independent of how the
/// parent suite was invoked.
#[test]
fn simd_off_subprocess_is_bitwise_reference() {
    const CHILD_VAR: &str = "RFSIM_KERNEL_AGREEMENT_CHILD";
    if std::env::var(CHILD_VAR).is_ok() {
        assert_eq!(kernels::dispatch_label(), "scalar", "RFSIM_SIMD=off must select scalar");
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).cos() * 2.0).collect();
        let ca: Vec<Complex> = a.iter().zip(&b).map(|(&re, &im)| Complex::new(re, im)).collect();
        let cb: Vec<Complex> = b.iter().zip(&a).map(|(&re, &im)| Complex::new(re, im)).collect();
        println!("REF dot {:016x}", kernels::dot_f64(&a, &b).to_bits());
        let d = kernels::cdotu(&ca, &cb);
        println!("REF cdotu {:016x} {:016x}", d.re.to_bits(), d.im.to_bits());
        return;
    }
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "simd_off_subprocess_is_bitwise_reference",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CHILD_VAR, "1")
        .env("RFSIM_SIMD", "off")
        .output()
        .expect("spawn child");
    assert!(out.status.success(), "child failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Naive references, computed in-process.
    let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
    let b: Vec<f64> = (0..37).map(|i| (i as f64 * 1.3).cos() * 2.0).collect();
    let ca: Vec<Complex> = a.iter().zip(&b).map(|(&re, &im)| Complex::new(re, im)).collect();
    let cb: Vec<Complex> = b.iter().zip(&a).map(|(&re, &im)| Complex::new(re, im)).collect();
    let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    let cdotu = ca.iter().zip(&cb).fold(Complex::ZERO, |acc, (x, y)| acc + *x * *y);
    let expect_dot = format!("REF dot {:016x}", dot.to_bits());
    let expect_cdotu = format!("REF cdotu {:016x} {:016x}", cdotu.re.to_bits(), cdotu.im.to_bits());
    assert!(
        stdout.lines().any(|l| l.contains(&expect_dot)),
        "scalar dot is not the bitwise reference:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.contains(&expect_cdotu)),
        "scalar cdotu is not the bitwise reference:\n{stdout}"
    );
}
