//! Allocation regression test for the GMRES loop: on a warm workspace a
//! `gmres_with` solve allocates only the solution it returns, however
//! many iterations and restarts it runs, and a `block_gmres` solve, which
//! reserves its workspace up front, allocates as much for a short solve
//! as for a long one.
//!
//! This lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. Telemetry is switched off (recording
//! counters allocates).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rfsim_numerics::krylov::{
    block_gmres, gmres_with, FnOperator, GmresWorkspace, JacobiPrecond, KrylovOptions,
};

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

/// Order of the test operator.
const N: usize = 200;

/// Diagonal of the test operator.
fn diagonal(i: usize) -> f64 {
    2.5 + (i % 7) as f64 * 0.1
}

/// Runs `f`, returning its result and the heap allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    (r, ALLOCS.load(Ordering::SeqCst) - before)
}

#[test]
fn gmres_loop_allocates_nothing_per_iteration() {
    rfsim_telemetry::set_mode(rfsim_telemetry::Mode::Off);
    // A nonsymmetric tridiagonal operator applied in place, so the
    // operator itself allocates nothing.
    let op = FnOperator::new(N, |x: &[f64], y: &mut [f64]| {
        for i in 0..N {
            let left = if i > 0 { -1.2 * x[i - 1] } else { 0.0 };
            let right = if i + 1 < N { -0.8 * x[i + 1] } else { 0.0 };
            y[i] = diagonal(i) * x[i] + left + right;
        }
    });
    let diag: Vec<f64> = (0..N).map(diagonal).collect();
    let pc = JacobiPrecond::from_diagonal(&diag);
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let short = KrylovOptions { tol: 1e-2, max_iters: 2000, restart: 30 };
    let long = KrylovOptions { tol: 1e-12, ..short };

    // Warm-up: the long solve grows the workspace to its full basis.
    let mut ws = GmresWorkspace::new();
    gmres_with(&op, &b, None, &pc, &long, &mut ws, None).unwrap();
    let ((_, s_short), a_short) =
        counted(|| gmres_with(&op, &b, None, &pc, &short, &mut ws, None).unwrap());
    let ((_, s_long), a_long) =
        counted(|| gmres_with(&op, &b, None, &pc, &long, &mut ws, None).unwrap());
    // The long solve restarts; the short one ends inside its first cycle.
    assert!(
        s_long.iterations > long.restart && s_long.iterations > 3 * s_short.iterations,
        "long {} vs short {} iterations",
        s_long.iterations,
        s_short.iterations
    );
    assert_eq!(
        (a_short, a_long),
        (1, 1),
        "gmres_with on a warm workspace: {a_short} allocations in {} iterations, {a_long} in {}",
        s_short.iterations,
        s_long.iterations
    );

    let bs: Vec<Vec<f64>> =
        (0..3).map(|j| (0..N).map(|i| ((i * (j + 2)) as f64 * 0.11).cos()).collect()).collect();
    let ((_, s_short), a_short) = counted(|| block_gmres(&op, &bs, None, &pc, &short).unwrap());
    let ((_, s_long), a_long) = counted(|| block_gmres(&op, &bs, None, &pc, &long).unwrap());
    assert!(
        s_long.iterations > long.restart && s_long.iterations > 3 * s_short.iterations,
        "block: long {} vs short {} iterations",
        s_long.iterations,
        s_short.iterations
    );
    assert_eq!(
        a_short, a_long,
        "block_gmres: {a_short} allocations in {} iterations, {a_long} in {}",
        s_short.iterations, s_long.iterations
    );
}
