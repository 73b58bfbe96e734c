//! Determinism harness for the parallel kernels: `RFSIM_THREADS=1` and
//! `RFSIM_THREADS=4` must produce **bitwise identical** results.
//!
//! The thread count is read once per process, so (like the telemetry
//! env-sink tests) each test re-executes the test binary with the variable
//! set. The child branch runs every parallelized kernel and prints one
//! `DET <kernel> <fnv-hash-of-f64-bits>` line per result vector; the
//! parent compares the serial and 4-thread transcripts line by line.
//!
//! The matrix runs under both SIMD dispatch modes: the default AVX2 path
//! and `RFSIM_SIMD=off`. The two modes legitimately differ from each
//! other (vector reductions reassociate), but *within* each mode the
//! thread count must not change a single bit.

use rfsim::em::geom::{mesh_parallel_plates, mesh_plate};
use rfsim::em::ies3::{CompressedMatrix, Ies3Options};
use rfsim::em::kernel::GreenFn;
use rfsim::em::mom::MomProblem;
use rfsim::phasenoise::pss::{oscillator_pss, PssOptions};
use rfsim::phasenoise::{monte_carlo_ensemble, McOptions, VanDerPol};
use rfsim::steady::{solve_hb, HbOptions, HbSweep, SpectralGrid};
use std::process::Command;

const CHILD_VAR: &str = "RFSIM_PARALLEL_TEST_CHILD";

/// FNV-1a over the exact bit patterns — any ULP difference changes it.
fn hash_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn emit(kernel: &str, values: &[f64]) {
    println!("DET {kernel} {:016x}", hash_bits(values));
}

/// Runs every parallel kernel on a fixed workload and prints hashes.
fn child_workload() {
    println!("THREADS {}", rfsim::parallel::thread_count());

    // MoM dense assembly (row-parallel fill).
    let panels = mesh_plate(0.0, 0.0, 0.0, 1e-3, 1e-3, 10, 10, 0);
    let p = MomProblem::new(panels, GreenFn::FreeSpace { eps_r: 1.0 }).expect("mom problem");
    let a = p.assemble_dense();
    let flat: Vec<f64> = (0..p.len())
        .flat_map(|i| (0..p.len()).map(move |j| (i, j)))
        .map(|(i, j)| a[(i, j)])
        .collect();
    emit("mom_assemble_dense", &flat);

    // IES³ build + compressed matvec (parallel block compression, parallel
    // contributions merged in block order).
    let panels = mesh_parallel_plates(1e-3, 5e-5, 8);
    let p = MomProblem::new(panels, GreenFn::FreeSpace { eps_r: 1.0 }).expect("mom problem");
    let cm = CompressedMatrix::build(&p.panels, &p.green, &Ies3Options::default()).expect("ies3");
    let x: Vec<f64> = (0..p.len()).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
    emit("ies3_matvec", &cm.matvec(&x));
    emit("ies3_bytes", &[cm.memory_bytes() as f64, cm.low_rank_blocks() as f64]);

    // Block multi-RHS GMRES: every conductor excitation solves together
    // against the shared compressed operator (joint block×column parallel
    // matvec, per-column accumulation pinned to block order).
    let (c, _) = rfsim::em::capacitance_matrix_iterative(
        &p,
        &cm,
        &rfsim::numerics::krylov::KrylovOptions::default(),
    )
    .expect("block capacitance");
    let c = &c;
    let flat: Vec<f64> = (0..2).flat_map(|i| (0..2).map(move |j| c[(i, j)])).collect();
    emit("block_capacitance", &flat);

    // Harmonic balance with the block preconditioner (parallel per-bin LU
    // factoring + batched bin solves inside every GMRES iteration).
    use rfsim::circuit::prelude::*;
    let clipper = |amp: f64| {
        let mut ckt = rfsim::circuit::Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", inp, rfsim::circuit::Circuit::GROUND, 0.0, amp, 1e6));
        ckt.add(Resistor::new("R1", inp, out, 1e3));
        ckt.add(Diode::new("D1", out, rfsim::circuit::Circuit::GROUND, 1e-13));
        ckt.add(Capacitor::new("C1", out, rfsim::circuit::Circuit::GROUND, 2e-10));
        ckt.into_dae().expect("netlist")
    };
    let dae = clipper(1.0);
    let grid = SpectralGrid::single_tone(1e6, 10).expect("grid");
    let sol =
        solve_hb(&dae, &grid, &HbOptions { source_steps: 2, ..Default::default() }).expect("hb");
    emit("hb_precond_solution", &sol.x);

    // A clipper ladder of 4,182 HB unknowns. Under SIMD dispatch every
    // thread count must route through the same batched FFT executor —
    // this case would catch a per-line fallback or a thread-dependent
    // path on a large system.
    let ladder = {
        let mut ckt = rfsim::circuit::Circuit::new();
        let mut prev = ckt.node("in");
        ckt.add(VSource::sine("V1", prev, rfsim::circuit::Circuit::GROUND, 0.0, 1.0, 1e6));
        for k in 0..100 {
            let cur = ckt.node(&format!("n{k}"));
            ckt.add(Resistor::new(&format!("R{k}"), prev, cur, 1e3));
            ckt.add(Diode::new(&format!("D{k}"), cur, rfsim::circuit::Circuit::GROUND, 1e-13));
            ckt.add(Capacitor::new(&format!("C{k}"), cur, rfsim::circuit::Circuit::GROUND, 2e-10));
            prev = cur;
        }
        ckt.into_dae().expect("ladder netlist")
    };
    let big_grid = SpectralGrid::single_tone(1e6, 20).expect("grid");
    let sol = solve_hb(&ladder, &big_grid, &HbOptions::default()).expect("hb ladder");
    emit("hb_ladder_solution", &sol.x);

    // Warm-started HB amplitude sweep (carried preconditioner factors and
    // recycled Krylov directions must not break bitwise determinism).
    let mut sweep = HbSweep::new(&grid, &HbOptions::default());
    let all: Vec<f64> = [0.6, 0.8, 1.0, 1.2]
        .iter()
        .flat_map(|&a| sweep.solve(&clipper(a)).expect("hb sweep").x)
        .collect();
    emit("hb_sweep_solution", &all);

    // Monte Carlo jitter ensemble (parallel trajectories, per-trajectory
    // seeded RNG).
    let osc = VanDerPol::new(1.0, 1e-5);
    let pss = oscillator_pss(&osc, osc.initial_guess(), &PssOptions::default()).expect("pss");
    let mc = monte_carlo_ensemble(
        &osc,
        &pss.x0,
        pss.period,
        &McOptions { ensemble: 8, periods: 8, ..Default::default() },
    )
    .expect("mc");
    let jit: Vec<f64> =
        mc.jitter.iter().flat_map(|&(t, v)| [t, v]).chain([mc.c_estimate]).collect();
    emit("mc_jitter", &jit);
}

fn run_child(test_name: &str, threads: &str) -> Vec<String> {
    run_child_simd(test_name, threads, None)
}

fn run_child_simd(test_name: &str, threads: &str, simd: Option<&str>) -> Vec<String> {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", test_name, "--nocapture", "--test-threads", "1"])
        .env(CHILD_VAR, "1")
        .env(rfsim::parallel::ENV_VAR, threads);
    if let Some(mode) = simd {
        cmd.env("RFSIM_SIMD", mode);
    }
    let out = cmd.output().expect("spawn child test process");
    assert!(
        out.status.success(),
        "child (RFSIM_THREADS={threads}, RFSIM_SIMD={simd:?}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest prints `test <name> ... ` without a newline before the test
    // body runs, so the first marker can be glued to it — search anywhere
    // in the line.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            l.find("DET ").or_else(|| l.find("THREADS ")).map(|pos| l[pos..].to_owned())
        })
        .collect()
}

#[test]
fn parallel_and_serial_runs_are_bitwise_identical() {
    if std::env::var(CHILD_VAR).is_ok() {
        child_workload();
        return;
    }
    let serial = run_child("parallel_and_serial_runs_are_bitwise_identical", "1");
    let parallel = run_child("parallel_and_serial_runs_are_bitwise_identical", "4");
    // Sanity: the children actually saw different pool widths.
    assert!(serial.contains(&"THREADS 1".to_string()), "serial child: {serial:?}");
    assert!(parallel.contains(&"THREADS 4".to_string()), "parallel child: {parallel:?}");
    // Per-kernel hashes must match exactly.
    let dets = |lines: &[String]| -> Vec<String> {
        lines.iter().filter(|l| l.starts_with("DET ")).cloned().collect()
    };
    let (s, p) = (dets(&serial), dets(&parallel));
    assert!(!s.is_empty(), "child produced no DET lines");
    assert_eq!(s, p, "serial and 4-thread kernel hashes diverge");
}

#[test]
fn scalar_dispatch_runs_are_bitwise_identical_across_threads() {
    if std::env::var(CHILD_VAR).is_ok() {
        child_workload();
        return;
    }
    // Same matrix with the SIMD kill-switch thrown: the scalar reference
    // kernels must also be thread-count invariant. (The scalar and SIMD
    // transcripts differ from *each other* — reductions reassociate —
    // which is exactly why each mode is checked against itself.)
    let name = "scalar_dispatch_runs_are_bitwise_identical_across_threads";
    let serial = run_child_simd(name, "1", Some("off"));
    let parallel = run_child_simd(name, "4", Some("off"));
    assert!(serial.contains(&"THREADS 1".to_string()), "serial child: {serial:?}");
    assert!(parallel.contains(&"THREADS 4".to_string()), "parallel child: {parallel:?}");
    let dets = |lines: &[String]| -> Vec<String> {
        lines.iter().filter(|l| l.starts_with("DET ")).cloned().collect()
    };
    let (s, p) = (dets(&serial), dets(&parallel));
    assert!(!s.is_empty(), "child produced no DET lines");
    assert_eq!(s, p, "serial and 4-thread hashes diverge under RFSIM_SIMD=off");
}

#[test]
fn invalid_thread_env_falls_back_serially() {
    if std::env::var(CHILD_VAR).is_ok() {
        child_workload();
        return;
    }
    // Garbage in RFSIM_THREADS must not crash — the pool falls back to a
    // sane width and results still match the serial transcript.
    let serial = run_child("invalid_thread_env_falls_back_serially", "1");
    let garbage = run_child("invalid_thread_env_falls_back_serially", "not-a-number");
    let dets = |lines: &[String]| -> Vec<String> {
        lines.iter().filter(|l| l.starts_with("DET ")).cloned().collect()
    };
    assert_eq!(dets(&serial), dets(&garbage));
}
