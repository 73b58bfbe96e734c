//! E2 — §2.1 cost claims: HB vs conventional transient as the time-scale
//! separation grows.
//!
//! The paper: "The large range in driving frequencies [80 KHz and 1.62
//! GHz] would require a conventional transient analysis to run for
//! several hundred thousand cycles" while HB cost is set by the harmonic
//! counts only. We sweep the carrier/baseband ratio and measure both.
//! Also runs the HB linear-solver ablation (`--ablate`): direct dense vs
//! GMRES with/without the per-harmonic preconditioner.

use rfsim::circuit::transient::{transient, TranOptions};
use rfsim::steady::{solve_hb, HbOptions, HbSolver, SpectralGrid, ToneAxis};
use rfsim_bench::{ablate, heading, modulator_chain, quadrature_modulator, timed, ModulatorSpec};
use rfsim_observe::Harness;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut h = Harness::new("e02");
    match run(&mut h) {
        Ok(()) => h.finish(),
        Err(e) => h.abort(&e),
    }
}

fn run(h: &mut Harness) -> Result<(), String> {
    println!("E2: HB vs transient cost vs time-scale separation (§2.1)");
    heading("cost sweep (fixed carrier 100 MHz, shrinking baseband)");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "ratio", "tran steps", "tran (s)", "hb unknowns", "hb (s)"
    );
    for ratio in [100.0, 300.0, 1000.0] {
        let f_lo = 100e6;
        let f_bb = f_lo / ratio;
        let spec = ModulatorSpec { f_bb, f_lo, ..Default::default() };
        let (dae, _) = quadrature_modulator(&spec);
        let label = format!("ratio={ratio:.0}");
        h.sweep_point(&label, &[("ratio", ratio)], |pm| {
            // Transient must cover one full baseband period at carrier
            // resolution: steps ∝ ratio.
            let dt = 1.0 / (f_lo * 30.0);
            let (tran, t_tr) = timed(|| {
                transient(&dae, 0.0, 1.0 / f_bb, &TranOptions { dt, ..Default::default() })
            });
            let tran = tran.map_err(|e| format!("transient at ratio {ratio}: {e}"))?;
            // HB cost: independent of the ratio.
            let grid = SpectralGrid::two_tone(ToneAxis::new(f_bb, 3), ToneAxis::new(f_lo, 3))
                .map_err(|e| format!("spectral grid: {e}"))?;
            let (sol, t_hb) = timed(|| solve_hb(&dae, &grid, &HbOptions::default()));
            let sol = sol.map_err(|e| format!("harmonic balance at ratio {ratio}: {e}"))?;
            pm.metric("tran_steps", tran.times.len() as f64);
            pm.metric("tran_seconds", t_tr);
            pm.metric("hb_unknowns", sol.stats.unknowns as f64);
            pm.metric("hb_seconds", t_hb);
            println!(
                "{:>10.0} {:>12} {:>12.3} {:>14} {:>12.3}",
                ratio,
                tran.times.len(),
                t_tr,
                sol.stats.unknowns,
                t_hb
            );
            Ok::<_, String>(())
        })?;
    }
    println!(
        "\nshape: transient cost grows ∝ ratio (paper: 'several hundred thousand\n\
         cycles' at ratio 2×10⁴); HB cost is flat — set by harmonics, not ratio."
    );

    heading("HB wall on the mixer ladder (kernel-dominated: sparse block LU + GMRES + FFT)");
    println!("{:>10} {:>12} {:>10} {:>12}", "stages", "unknowns", "reps", "wall (s)");
    for (stages, reps) in [(128usize, 2usize), (144, 2)] {
        let spec = ModulatorSpec { f_bb: 1e6, f_lo: 100e6, ..Default::default() };
        let (dae, _) = modulator_chain(&spec, stages);
        let grid = SpectralGrid::two_tone(ToneAxis::new(spec.f_bb, 5), ToneAxis::new(spec.f_lo, 5))
            .map_err(|e| format!("spectral grid (ladder, {stages} stages): {e}"))?;
        let label = format!("hb:ladder stages={stages}");
        h.sweep_point(&label, &[("stages", stages as f64), ("reps", reps as f64)], |pm| {
            let mut unknowns = 0usize;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                let sol = solve_hb(&dae, &grid, &HbOptions::default())
                    .map_err(|e| format!("HB ladder ({stages} stages): {e}"))?;
                unknowns = sol.stats.unknowns;
            }
            let t = t0.elapsed().as_secs_f64();
            pm.metric("hb_unknowns", unknowns as f64);
            pm.metric("seconds_per_solve", t / reps as f64);
            println!("{:>10} {:>12} {:>10} {:>12.3}", stages, unknowns, reps, t);
            Ok::<_, String>(())
        })?;
    }

    if ablate() {
        heading("HB linear-solver ablation (direct vs GMRES ± preconditioner)");
        let spec = ModulatorSpec { f_bb: 1e6, f_lo: 100e6, ..Default::default() };
        let (dae, _) = quadrature_modulator(&spec);
        let grid = SpectralGrid::two_tone(ToneAxis::new(spec.f_bb, 3), ToneAxis::new(spec.f_lo, 3))
            .map_err(|e| format!("spectral grid: {e}"))?;
        println!(
            "{:>28} {:>10} {:>12} {:>14} {:>12}",
            "solver", "time (s)", "lin iters", "matvecs", "bytes"
        );
        for (name, solver) in [
            ("gmres + block precond", HbSolver::Gmres { precondition: true }),
            ("gmres (no precond)", HbSolver::Gmres { precondition: false }),
            ("direct dense", HbSolver::Direct),
        ] {
            let opts = HbOptions { solver, ..Default::default() };
            let (sol, t) = timed(|| solve_hb(&dae, &grid, &opts));
            let sol = sol.map_err(|e| format!("HB ablation '{name}': {e}"))?;
            println!(
                "{:>28} {:>10.3} {:>12} {:>14} {:>12}",
                name, t, sol.stats.linear_iterations, sol.stats.matvecs, sol.stats.solver_bytes
            );
        }
    } else {
        println!("\n(pass --ablate for the HB linear-solver ablation)");
    }
    Ok(())
}
