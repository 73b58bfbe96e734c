//! E14 — numerics kernel microbenchmarks for the SIMD dispatch layer.
//!
//! Times the four kernel families the runtime dispatcher accelerates —
//! complex axpy/dot, the planned FFT butterfly pass, blocked dense LU
//! factor + triangular solves, and the IES³ compressed matvec — at three
//! sizes each. CI runs this twice (RFSIM_SIMD=off as the baseline, then
//! the default dispatch) and gates the rows through `rfsim-report
//! --min-speedup`; the recorded `simd.dispatch.*` counters prove which
//! path each run took.
//!
//! Label policy: only compute-bound rows where AVX2 reliably clears 2×
//! carry the `kernel:` prefix (L1-resident axpy/dot, triangular solves at
//! n ≥ 128). Memory-bound rows — streaming axpy/dot, the blocked LU
//! factor (DRAM-bandwidth-limited trailing updates), the compressed
//! matvec — and the in-between FFT rows keep bare family labels and are
//! tracked against the checked-in baseline only.

use rfsim::em::geom::mesh_parallel_plates;
use rfsim::em::ies3::{CompressedMatrix, Ies3Options};
use rfsim::em::mom::MomProblem;
use rfsim::em::GreenFn;
use rfsim::numerics::complex::{caxpy, cdot};
use rfsim::numerics::dense::Mat;
use rfsim::numerics::fft::{self, FftScratch};
use rfsim::numerics::kernels;
use rfsim::numerics::Complex;
use rfsim_bench::heading;
use rfsim_observe::Harness;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut h = Harness::new("e14");
    match run(&mut h) {
        Ok(()) => h.finish(),
        Err(e) => h.abort(&e),
    }
}

/// Deterministic full-period xorshift values in `(-1, 1)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn cvec(n: usize, seed: u64) -> Vec<Complex> {
    let mut r = Rng(seed | 1);
    (0..n).map(|_| Complex::new(r.next(), r.next())).collect()
}

/// Element-op budget per sweep point: large enough that the scalar
/// baseline clears the report's 50 ms jitter floor on every row.
const BUDGET: usize = 1 << 26;

fn run(h: &mut Harness) -> Result<(), String> {
    println!("E14: numerics kernel microbenchmarks ({})", kernels::dispatch_label());

    heading("complex axpy / dot (GMRES orthogonalization primitives)");
    println!("{:>9} {:>10} {:>14} {:>14}", "n", "reps", "axpy (s)", "dot (s)");
    for (n, pfx) in [(512usize, "kernel:"), (1024, "kernel:"), (8192, "")] {
        let reps = BUDGET / n;
        let x = cvec(n, 0x9e37);
        let alpha = Complex::new(1e-3, -2e-3);
        let mut y = cvec(n, 0x85eb);
        let ta = h.sweep_point(
            &format!("{pfx}caxpy n={n}"),
            &[("n", n as f64), ("reps", reps as f64)],
            |pm| {
                kernels::note_dispatch(reps as u64);
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    caxpy(alpha, &x, &mut y);
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_element", t * 1e9 / (n * reps) as f64);
                t
            },
        );
        let mut acc = Complex::ZERO;
        let td = h.sweep_point(
            &format!("{pfx}cdot n={n}"),
            &[("n", n as f64), ("reps", reps as f64)],
            |pm| {
                kernels::note_dispatch(reps as u64);
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    acc += cdot(&x, &y);
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_element", t * 1e9 / (n * reps) as f64);
                t
            },
        );
        println!("{n:>9} {reps:>10} {ta:>14.3} {td:>14.3}");
        // Keep the accumulators observable so the loops cannot be elided.
        if !(acc.abs().is_finite() && y[0].abs().is_finite()) {
            return Err("kernel produced non-finite values".into());
        }
    }

    heading("planned FFT butterfly passes (HB spectral transforms)");
    println!("{:>9} {:>10} {:>14}", "n", "reps", "fwd+inv (s)");
    for n in [256usize, 1024, 4096] {
        let reps = BUDGET / n / 8;
        let plan = fft::plan(n);
        let mut scratch = FftScratch::new();
        let mut data = cvec(n, 0xc2b2);
        // Round-trip keeps magnitudes bounded across repetitions (a bare
        // unnormalized forward overflows after a few thousand passes).
        let t =
            h.sweep_point(&format!("fft n={n}"), &[("n", n as f64), ("reps", reps as f64)], |pm| {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    plan.forward(&mut data, &mut scratch);
                    plan.inverse(&mut data, &mut scratch);
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_element", t * 1e9 / (2 * n * reps) as f64);
                t
            });
        println!("{n:>9} {reps:>10} {t:>14.3}");
        if !data[0].abs().is_finite() {
            return Err("fft produced non-finite values".into());
        }
    }

    heading("blocked dense LU factor + triangular solves (MoM, shooting, PSS and ROM solves)");
    println!("{:>9} {:>10} {:>14} {:>14}", "n", "reps", "factor (s)", "solve (s)");
    for (n, spfx) in [(64usize, ""), (128, "kernel:"), (256, "kernel:")] {
        let freps = (24 * BUDGET / (n * n * n)).max(1);
        let mut r = Rng(0x51ed * n as u64);
        let a = Mat::from_fn(n, n, |i, j| r.next() + if i == j { 8.0 } else { 0.0 });
        let tf = h.sweep_point(
            &format!("lu_factor n={n}"),
            &[("n", n as f64), ("reps", freps as f64)],
            |pm| {
                let t0 = std::time::Instant::now();
                for _ in 0..freps {
                    a.clone().lu().expect("diagonally dominant");
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_n3", t * 1e9 / (n * n * n * freps) as f64);
                t
            },
        );
        let lu = a.lu().expect("diagonally dominant");
        let sreps = (3 * BUDGET / (n * n)).max(1);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut out = vec![0.0; n];
        let ts = h.sweep_point(
            &format!("{spfx}lu_solve n={n}"),
            &[("n", n as f64), ("reps", sreps as f64)],
            |pm| {
                let t0 = std::time::Instant::now();
                for _ in 0..sreps {
                    lu.solve_into(&b, &mut out).expect("nonsingular");
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_n2", t * 1e9 / (n * n * sreps) as f64);
                t
            },
        );
        println!("{n:>9} {freps:>10} {tf:>14.3} {ts:>14.3}");
        if !out[0].is_finite() {
            return Err("lu solve produced non-finite values".into());
        }
    }

    heading("IES³ compressed matvec (MoM iterative operator)");
    println!("{:>9} {:>10} {:>14}", "panels", "reps", "matvec (s)");
    for n_side in [12usize, 16, 24] {
        let panels = mesh_parallel_plates(1e-3, 1e-4, n_side);
        let p = MomProblem::new(panels, GreenFn::FreeSpace { eps_r: 1.0 })
            .map_err(|e| format!("MoM setup (n_side {n_side}): {e}"))?;
        let cm = CompressedMatrix::build(&p.panels, &p.green, &Ies3Options::default())
            .map_err(|e| format!("IES³ build (n_side {n_side}): {e}"))?;
        let n = p.len();
        let reps = (BUDGET / (64 * n)).max(1);
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut y = vec![0.0; n];
        let t = h.sweep_point(
            &format!("cmatvec n={n}"),
            &[("n", n as f64), ("reps", reps as f64)],
            |pm| {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    cm.matvec_into(&x, &mut y);
                }
                let t = t0.elapsed().as_secs_f64();
                pm.metric("ns_per_matvec", t * 1e9 / reps as f64);
                t
            },
        );
        println!("{n:>9} {reps:>10} {t:>14.3}");
        if !y[0].is_finite() {
            return Err("compressed matvec produced non-finite values".into());
        }
    }

    Ok(())
}
