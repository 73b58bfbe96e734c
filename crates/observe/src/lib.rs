#![warn(missing_docs)]
//! `rfsim-observe` — machine-readable benchmark artifacts and
//! regression reporting on top of `rfsim-telemetry`.
//!
//! Every experiment bin (`e01`–`e12`) wraps its run in a [`Harness`],
//! which times phases and problem-size sweep points, captures per-point
//! telemetry counter deltas, and writes a schema-versioned
//! `BENCH_<id>.json` artifact at exit — including the full telemetry
//! snapshot (span tree, counters, convergence traces, health events),
//! thread count, and git SHA. The `rfsim-report` bin diffs two artifact
//! sets and fails past configurable regression thresholds, which is how
//! CI turns the paper's scaling claims into tracked numbers.
//!
//! # Example
//!
//! ```no_run
//! use rfsim_observe::Harness;
//!
//! fn run(h: &mut Harness) -> Result<(), String> {
//!     h.phase("warmup", || { /* ... */ });
//!     for n in [64usize, 256, 1024] {
//!         h.sweep_point(&format!("n={n}"), &[("n", n as f64)], |pm| {
//!             pm.metric("memory_bytes", (n * n) as f64);
//!         });
//!     }
//!     Ok(())
//! }
//!
//! fn main() -> std::process::ExitCode {
//!     let mut h = Harness::new("e99");
//!     match run(&mut h) {
//!         Ok(()) => h.finish(),
//!         Err(e) => h.abort(&e),
//!     }
//! }
//! ```

pub mod artifact;
pub mod harness;
pub mod report;

pub use artifact::{git_sha, BenchArtifact, Phase, SweepPoint, SCHEMA_VERSION};
pub use harness::{Harness, PointMetrics, SweepMode, BENCH_DIR_VAR};
pub use report::{
    compare, compare_sets, load_set, Comparison, CountRatioGate, MetricDelta, SpeedupGate,
    Thresholds,
};
