//! e02's HB ladder under preconditioned GMRES: no capacitance on the
//! ladder varies over the period, so the fused operator's Δ product runs
//! no derivative transform, and each correction's GMRES cycle starts
//! from the preconditioned residual it already holds, one operator
//! application per iteration. The counters are process-global, hence a
//! test binary of its own.

use rfsim::steady::{solve_hb, HbOptions, SpectralGrid, ToneAxis};
use rfsim::telemetry;
use rfsim_bench::{modulator_chain, ModulatorSpec};

#[test]
fn ladder_solve_runs_no_delta_transform() {
    let spec = ModulatorSpec { f_bb: 1e6, f_lo: 100e6, ..Default::default() };
    let (dae, _) = modulator_chain(&spec, 32);
    let grid =
        SpectralGrid::two_tone(ToneAxis::new(spec.f_bb, 5), ToneAxis::new(spec.f_lo, 5)).unwrap();

    telemetry::set_mode(telemetry::Mode::Report);
    telemetry::reset();
    let (sol, counters) = telemetry::counted(|| solve_hb(&dae, &grid, &HbOptions::default()));
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    let sol = sol.expect("ladder converges");
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("hb.matvec.transforms"), 0, "{counters:?}");
    assert!(count("krylov.gmres.iterations") > 0, "{counters:?}");
    assert_eq!(count("krylov.gmres.matvecs"), count("krylov.gmres.iterations"), "{counters:?}");
    assert_eq!(sol.stats.matvecs, sol.stats.linear_iterations);
}
