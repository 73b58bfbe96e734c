//! e02's HB ladder: each harmonic block preconditioner build is one
//! sparse analysis plus refactorizations of the rest of the non-negative
//! half of the bins, with no dense block LU. The counters are
//! process-global, hence a test binary of its own.

use rfsim::steady::{HbHotPath, SpectralGrid, ToneAxis};
use rfsim::telemetry;
use rfsim_bench::{modulator_chain, ModulatorSpec};

#[test]
fn ladder_precond_build_is_one_sparse_analysis() {
    let spec = ModulatorSpec { f_bb: 1e6, f_lo: 100e6, ..Default::default() };
    let (dae, _) = modulator_chain(&spec, 144);
    let grid =
        SpectralGrid::two_tone(ToneAxis::new(spec.f_bb, 5), ToneAxis::new(spec.f_lo, 5)).unwrap();

    telemetry::set_mode(telemetry::Mode::Report);
    telemetry::reset();
    let (hot, counters) = telemetry::counted(|| HbHotPath::prepare(&dae, &grid));
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    hot.expect("ladder preconditioner builds");
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("hb.precond.factorizations"), 1, "{counters:?}");
    assert_eq!(count("lu.sparse.factorizations"), 1, "{counters:?}");
    // The half-spectrum: 61 of the 121 bins, one analysed and 60 refactored.
    assert_eq!(grid.samples(), 121);
    assert_eq!(count("lu.sparse.refactorizations"), 60);
    assert_eq!(count("lu.dense.factorizations"), 0, "{counters:?}");
}
