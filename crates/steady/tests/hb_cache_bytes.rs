//! `HbSweep::state_bytes` is the weight `rfsim-serve`'s warm HB cache
//! evicts by, so it must count what a resident sweep really holds. This
//! test keeps several warm sweeps of the service's `clipper` circuit at
//! the harmonic count the serve benchmark uses, and compares the heap
//! bytes they hold, measured by a counting `#[global_allocator]` (hence a
//! test binary of its own), with the sum of their `state_bytes()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use rfsim_circuit::dae::CircuitDae;
use rfsim_circuit::prelude::*;
use rfsim_circuit::Circuit;
use rfsim_steady::{HbOptions, HbSweep, SpectralGrid};

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Harmonics of the serve benchmark's `hb` requests.
const HARMONICS: usize = 24;

/// The service's `clipper`: a sine source through 1 kΩ into
/// anti-parallel diodes.
fn clipper(f0: f64, amp: f64) -> CircuitDae {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", inp, Circuit::GROUND, 0.0, amp, f0));
    ckt.add(Resistor::new("R1", inp, out, 1e3));
    ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
    ckt.add(Diode::new("D2", Circuit::GROUND, out, 1e-14));
    ckt.into_dae().unwrap()
}

/// A sweep at `f0` after a cold point and two warm steps in amplitude.
fn warm_sweep(f0: f64, daes: &[CircuitDae]) -> HbSweep {
    let grid = SpectralGrid::single_tone(f0, HARMONICS).unwrap();
    let mut sweep = HbSweep::new(&grid, &HbOptions::default());
    for dae in daes {
        sweep.solve(dae).unwrap();
    }
    assert!(sweep.is_warm());
    sweep
}

#[test]
fn warm_clipper_sweeps_hold_their_state_bytes() {
    let freqs = [0.7e6, 1.3e6, 2.2e6, 3.1e6, 4.4e6];
    let daes: Vec<Vec<CircuitDae>> = freqs
        .iter()
        .map(|&f0| [1.0, 1.02, 1.04].iter().map(|&amp| clipper(f0, amp)).collect())
        .collect();
    // One sweep first, dropped, so process-wide state (the FFT plan
    // cache, thread-locals) is in place before the count starts.
    drop(warm_sweep(freqs[0], &daes[0]));

    let mut sweeps = Vec::with_capacity(freqs.len());
    let before = LIVE.load(Ordering::SeqCst);
    for (&f0, points) in freqs.iter().zip(&daes) {
        sweeps.push(warm_sweep(f0, points));
    }
    let held = (LIVE.load(Ordering::SeqCst) - before) as f64;
    let counted = sweeps.iter().map(HbSweep::state_bytes).sum::<usize>() as f64;
    let ratio = held / counted;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "{} warm sweeps hold {held} B but count {counted} B (ratio {ratio:.2})",
        sweeps.len()
    );
}
