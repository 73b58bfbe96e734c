//! Allocation regression test for the HB hot path: after warmup, ten
//! consecutive Jacobian matvecs and preconditioner applies, and ten
//! applies of the fused operator preconditioned GMRES runs, must perform
//! zero heap allocations.
//!
//! This lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. Telemetry stays inactive (recording
//! counters allocates). The thread count is left at its default: the hot
//! path runs on the calling thread at every thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rfsim_circuit::prelude::*;
use rfsim_circuit::Circuit;
use rfsim_steady::{solve_hb, HbHotPath, HbOptions, SpectralGrid};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Diode clipper: a stiff nonlinear circuit exercising both the spectral
/// differentiation (capacitor) and resistive coupling in the Jacobian.
fn clipper() -> (rfsim_circuit::dae::CircuitDae, SpectralGrid) {
    let f0 = 1e6;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
    ckt.add(Resistor::new("R1", a, out, 1e3));
    ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
    ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
    let dae = ckt.into_dae().unwrap();
    let grid = SpectralGrid::single_tone(f0, 15).unwrap();
    (dae, grid)
}

/// A diode and a varactor at one node, driven at 1 ± 0.9 V: over the
/// period both the conductance and the capacitance vary, so `ΔG` and
/// `ΔC` are non-empty at the converged solution.
fn varactor_clipper() -> (rfsim_circuit::dae::CircuitDae, SpectralGrid) {
    let f0 = 1e6;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", a, Circuit::GROUND, 1.0, 0.9, f0));
    ckt.add(Resistor::new("R1", a, out, 1e3));
    ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
    ckt.add(Varactor::new("CV", Circuit::GROUND, out, 1e-9));
    let dae = ckt.into_dae().unwrap();
    let grid = SpectralGrid::single_tone(f0, 15).unwrap();
    (dae, grid)
}

#[test]
fn hb_matvec_and_precond_are_alloc_free_after_warmup() {
    let (dae, grid) = clipper();
    let mut hot = HbHotPath::prepare(&dae, &grid).unwrap();
    let n = hot.unknowns();

    let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];

    // Warmup: the first rounds grow the workspace buffers to capacity.
    for _ in 0..2 {
        hot.matvec(&v, &mut y);
        hot.precond_apply(&y, &mut z).unwrap();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10 {
        hot.matvec(&v, &mut y);
        hot.precond_apply(&y, &mut z).unwrap();
    }
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "HB hot path made {delta} heap allocations across 10 matvec+precond rounds"
    );

    // The fused operator, at a linearization where it runs the Δ product
    // with its derivative transform and then the preconditioner. One test
    // function: the allocation count is process-wide.
    let (dae, grid) = varactor_clipper();
    let sol = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
    let mut hot = HbHotPath::prepare_at(&dae, &grid, &sol.x).unwrap();
    let v: Vec<f64> = (0..hot.unknowns()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; v.len()];
    for _ in 0..2 {
        hot.fused_apply(&v, &mut y).unwrap();
    }
    let moved = v.iter().zip(&y).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
    assert!(moved > 1e-6, "Δ is empty at the converged solution");
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10 {
        hot.fused_apply(&v, &mut y).unwrap();
    }
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(delta, 0, "fused HB operator made {delta} heap allocations across 10 applies");
}
