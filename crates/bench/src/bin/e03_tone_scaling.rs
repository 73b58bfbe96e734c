//! E3 — §2.1 bullets: HB memory/time growth with the number of tones.
//!
//! "The memory and time required for Harmonic Balance simulation increase
//! rapidly as more 'tones' are added … predicting the intermodulation
//! distortion of the entire modulator chain would require … four tones;
//! such a simulation would probably exceed available memory." We measure
//! one- and two-tone runs on the same circuit and extrapolate the
//! unknown-count/memory model (`n·Π(2Hᵢ+1)`) to 3 and 4 tones; transient
//! cost, by contrast, is tone-count-insensitive.

use rfsim::circuit::transient::{transient, TranOptions};
use rfsim::steady::{solve_hb, HbOptions, HbSweep, SpectralGrid, ToneAxis};
use rfsim_bench::{heading, switching_mixer, timed, MixerSpec};
use rfsim_observe::{Harness, SweepMode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut h = Harness::new("e03");
    match run(&mut h) {
        Ok(()) => h.finish(),
        Err(e) => h.abort(&e),
    }
}

fn run(harness: &mut Harness) -> Result<(), String> {
    println!("E3: HB cost vs number of tones (§2.1)");
    let spec = MixerSpec { f_rf: 1e6, f_lo: 100e6, ..Default::default() };
    let (dae, _) = switching_mixer(&spec);
    let n = {
        use rfsim::circuit::dae::Dae as _;
        dae.dim()
    };
    let h = 4usize; // harmonics per tone

    heading("measured");
    println!("{:>7} {:>12} {:>12} {:>12}", "tones", "unknowns", "memory (B)", "time (s)");
    // 1 tone: LO only (RF source amplitude effectively a perturbation —
    // single-tone analysis at the LO).
    harness.sweep_point("tones=1", &[("tones", 1.0)], |pm| {
        let grid1 =
            SpectralGrid::single_tone(spec.f_lo, h).map_err(|e| format!("1-tone grid: {e}"))?;
        let (sol, t) = timed(|| solve_hb(&dae, &grid1, &HbOptions::default()));
        let sol = sol.map_err(|e| format!("1-tone HB: {e}"))?;
        pm.metric("unknowns", sol.stats.unknowns as f64);
        pm.metric("solver_bytes", sol.stats.solver_bytes as f64);
        println!("{:>7} {:>12} {:>12} {:>12.3}", 1, sol.stats.unknowns, sol.stats.solver_bytes, t);
        Ok::<_, String>(())
    })?;
    // 2 tones.
    let (sol2, t2) = harness.sweep_point("tones=2", &[("tones", 2.0)], |pm| {
        let grid2 =
            SpectralGrid::two_tone(ToneAxis::new(spec.f_rf, h), ToneAxis::new(spec.f_lo, h))
                .map_err(|e| format!("2-tone grid: {e}"))?;
        let (sol, t) = timed(|| solve_hb(&dae, &grid2, &HbOptions::default()));
        let sol = sol.map_err(|e| format!("2-tone HB: {e}"))?;
        pm.metric("unknowns", sol.stats.unknowns as f64);
        pm.metric("solver_bytes", sol.stats.solver_bytes as f64);
        println!("{:>7} {:>12} {:>12} {:>12.3}", 2, sol.stats.unknowns, sol.stats.solver_bytes, t);
        Ok::<_, String>((sol, t))
    })?;

    heading("extrapolated (unknowns = n·(2H+1)^tones, memory/time models)");
    let per_axis = 2 * h + 1;
    let mem_per_unknown = sol2.stats.solver_bytes as f64 / sol2.stats.unknowns as f64;
    let time_per_unknown = t2 / sol2.stats.unknowns as f64;
    println!("{:>7} {:>12} {:>12} {:>12}", "tones", "unknowns", "memory (B)", "time (s)");
    for tones in 3..=4 {
        let unknowns = n * per_axis.pow(tones);
        // Memory model: preconditioner blocks scale with bins·n²; basis
        // with unknowns — both linear in the bin count, so scale linearly;
        // the *direct* (traditional) solver would scale quadratically.
        let mem = mem_per_unknown * unknowns as f64;
        let mem_direct = (unknowns as f64).powi(2) * 8.0;
        let t = time_per_unknown * unknowns as f64;
        println!(
            "{:>7} {:>12} {:>12.0} {:>12.3}   (traditional direct: {:.1e} B)",
            tones, unknowns, mem, t, mem_direct
        );
    }
    println!(
        "\npaper's point: at 4 tones the traditional dense-Jacobian HB 'would\n\
         probably exceed available memory' — the quadratic column above."
    );

    // --- Warm-started continuation: the two-tone analysis repeated
    // across an RF drive-level sweep (the IP3 / compression workload).
    // Warm mode carries the previous point's solution, the factored
    // harmonic-block preconditioner, and the recycled Krylov subspace
    // across points; RFSIM_SWEEP_MODE=cold reruns every point from
    // scratch so CI can gate the speedup.
    let cold = SweepMode::from_env() == SweepMode::Cold;
    heading(if cold {
        "RF drive-level sweep — COLD (every point from scratch)"
    } else {
        "RF drive-level sweep — warm-started continuation"
    });
    let amps: Vec<f64> = (0..8).map(|i| 0.05 + 0.05 * i as f64).collect();
    let grid2 = SpectralGrid::two_tone(ToneAxis::new(spec.f_rf, h), ToneAxis::new(spec.f_lo, h))
        .map_err(|e| format!("sweep grid: {e}"))?;
    // Strong drive needs globalization when solved in isolation: the cold
    // path ramps the sources at every point, the warm path rides the
    // sweep's own continuation instead.
    let sweep_opts = HbOptions { source_steps: 4, ..Default::default() };
    let n_amps = amps.len();
    let (sols, t_sweep) = harness.sweep_point(
        "recycle:amps",
        &[("points", n_amps as f64), ("cold", if cold { 1.0 } else { 0.0 })],
        |pm| {
            let daes: Vec<_> = amps
                .iter()
                .map(|&a| switching_mixer(&MixerSpec { rf_amplitude: a, ..spec }).0)
                .collect();
            let (sols, t) = timed(|| -> Result<_, String> {
                if cold {
                    daes.iter()
                        .map(|dae| {
                            solve_hb(dae, &grid2, &sweep_opts)
                                .map_err(|e| format!("cold sweep point: {e}"))
                        })
                        .collect::<Result<Vec<_>, _>>()
                } else {
                    let mut sweep = HbSweep::new(&grid2, &sweep_opts);
                    daes.iter()
                        .map(|dae| sweep.solve(dae).map_err(|e| format!("warm sweep: {e}")))
                        .collect::<Result<Vec<_>, _>>()
                }
            });
            let sols = sols?;
            let newton: usize = sols.iter().map(|s| s.stats.newton_iterations).sum();
            let linear: usize = sols.iter().map(|s| s.stats.linear_iterations).sum();
            let factorizations: usize = sols.iter().map(|s| s.stats.precond_factorizations).sum();
            pm.metric("newton_iterations", newton as f64);
            pm.metric("linear_iterations", linear as f64);
            pm.metric("precond_factorizations", factorizations as f64);
            Ok::<_, String>((sols, t))
        },
    )?;
    println!("{:>10} {:>10} {:>10} {:>10}", "A_rf (V)", "newton", "linear", "factor");
    for (a, s) in amps.iter().zip(&sols) {
        println!(
            "{:>10.2} {:>10} {:>10} {:>10}",
            a, s.stats.newton_iterations, s.stats.linear_iterations, s.stats.precond_factorizations
        );
    }
    println!(
        "{n_amps} points in {t_sweep:.3} s — {} carries x, the preconditioner\n\
         factors, and the recycled Krylov space across points.",
        if cold { "cold mode discards what warm mode" } else { "continuation" }
    );

    heading("transient insensitivity to tone count");
    let dt = 1.0 / (spec.f_lo * 30.0);
    let t_end = 20.0 / spec.f_lo;
    let (r1, tt1) = harness.phase("transient", || {
        let (r, t) =
            timed(|| transient(&dae, 0.0, t_end, &TranOptions { dt, ..Default::default() }));
        r.map(|r| (r, t)).map_err(|e| format!("transient: {e}"))
    })?;
    println!("1-or-N-tone transient: {} steps in {:.3} s (cost set by the", r1.times.len(), tt1);
    println!("fastest tone and the observation window, not by the tone count).");
    Ok(())
}
