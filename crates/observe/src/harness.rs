//! The shared bench harness: wraps one experiment run, times its
//! phases and sweep points, and writes the `BENCH_<id>.json` artifact
//! on exit — whatever `RFSIM_TELEMETRY` says. The env var still picks
//! an *additional* sink (stderr report, raw snapshot JSON, Chrome
//! trace); the artifact is unconditional so the perf trajectory is
//! always captured.

use crate::artifact::{git_sha, BenchArtifact, Phase, SweepPoint, SCHEMA_VERSION};
use rfsim_telemetry as telemetry;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Directory override for the artifact (default: current directory,
/// i.e. the repo root under `cargo run`).
pub const BENCH_DIR_VAR: &str = "RFSIM_BENCH_DIR";

const SWEEP_MODE_VAR: &str = "RFSIM_SWEEP_MODE";

/// How sweep phases solve their points, selected by `RFSIM_SWEEP_MODE`.
/// The experiment bins and `rfsim-serve` both read it through
/// [`SweepMode::from_env`], so they agree on its grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Warm continuation: each point reuses the previous point's
    /// solution, factorizations and recycled Krylov space (the default).
    #[default]
    Warm,
    /// Every point from scratch, with no reuse: the baseline CI gates the
    /// warm path against.
    Cold,
    /// Surrogate-driven: true solves only where the fitted rational model
    /// is uncertain, the remaining points read from the fit.
    Adaptive,
}

impl SweepMode {
    /// Parses an `RFSIM_SWEEP_MODE` value, ignoring ASCII case; empty
    /// means warm. Returns `None` for unrecognized input.
    pub fn parse(value: &str) -> Option<SweepMode> {
        match value.to_ascii_lowercase().as_str() {
            "" | "warm" => Some(SweepMode::Warm),
            "cold" => Some(SweepMode::Cold),
            "adaptive" => Some(SweepMode::Adaptive),
            _ => None,
        }
    }

    /// The mode `RFSIM_SWEEP_MODE` selects: warm when unset, and warm
    /// with a warning on stderr when the value is unrecognized.
    pub fn from_env() -> SweepMode {
        let Ok(value) = std::env::var(SWEEP_MODE_VAR) else { return SweepMode::default() };
        SweepMode::parse(&value).unwrap_or_else(|| {
            eprintln!(
                "rfsim-observe: ignoring unrecognized {SWEEP_MODE_VAR}={value:?} \
                 (expected warm | cold | adaptive)"
            );
            SweepMode::default()
        })
    }
}

/// Metric recorder handed to a sweep-point closure.
#[derive(Debug, Default)]
pub struct PointMetrics {
    metrics: BTreeMap<String, f64>,
}

impl PointMetrics {
    /// Records one measured output of the point.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Per-run harness used by every `e01`–`e12` bin.
///
/// Construction isolates the run: telemetry is [`telemetry::reset`] so
/// counters, spans, traces, and health events belong to this run alone,
/// and recording is forced on (silently, in [`telemetry::Mode::Report`])
/// when the environment selected no sink, so the artifact always has a
/// populated snapshot.
#[derive(Debug)]
pub struct Harness {
    id: String,
    t0: Instant,
    env_sink: bool,
    failure: Option<String>,
    phases: Vec<Phase>,
    sweep: Vec<SweepPoint>,
}

impl Harness {
    /// Starts a run for experiment `id` (e.g. `"e08"`).
    pub fn new(id: &str) -> Self {
        let env_sink = telemetry::mode() != telemetry::Mode::Off;
        if !env_sink {
            telemetry::set_mode(telemetry::Mode::Report);
        }
        telemetry::reset();
        telemetry::gauge_set("pool.threads", rfsim_parallel::thread_count() as f64);
        Harness {
            id: id.to_string(),
            t0: Instant::now(),
            env_sink,
            failure: None,
            phases: Vec::new(),
            sweep: Vec::new(),
        }
    }

    /// Runs and times one named top-level phase.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = telemetry::span_dyn(format!("bench.phase.{name}"));
        let t0 = Instant::now();
        let out = f();
        let wall_seconds = t0.elapsed().as_secs_f64();
        drop(span);
        self.phases.push(Phase { name: name.to_string(), wall_seconds });
        out
    }

    /// Runs one sweep point, capturing its wall clock and the telemetry
    /// counter deltas it alone produced ([`telemetry::counted`]). The
    /// closure records further metrics through the [`PointMetrics`]
    /// handle.
    pub fn sweep_point<T>(
        &mut self,
        label: &str,
        params: &[(&str, f64)],
        f: impl FnOnce(&mut PointMetrics) -> T,
    ) -> T {
        let mut pm = PointMetrics::default();
        // The clock runs inside the counted scope, so the two counter
        // reads stay out of `wall_seconds`.
        let ((out, wall_seconds), counters) = telemetry::counted(|| {
            let _span = telemetry::span_dyn(format!("bench.sweep.{label}"));
            let t0 = Instant::now();
            let out = f(&mut pm);
            (out, t0.elapsed().as_secs_f64())
        });
        pm.metrics.insert("wall_seconds".to_string(), wall_seconds);
        self.sweep.push(SweepPoint {
            label: label.to_string(),
            params: params.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            metrics: pm.metrics,
            counters,
        });
        out
    }

    /// Marks the run failed without ending it (the artifact is still
    /// written by [`Harness::finish`], which then exits nonzero).
    pub fn fail(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("{}: FAILED: {msg}", self.id);
        self.failure.get_or_insert(msg);
    }

    /// Ends a failed run: records the error, writes the artifact, exits
    /// nonzero.
    pub fn abort(mut self, err: &str) -> ExitCode {
        self.fail(err);
        self.finish()
    }

    /// Ends the run: flushes the env-selected sink (if any), writes
    /// `BENCH_<id>.json`, and returns the process exit code — nonzero
    /// if any failure was recorded or the artifact could not be written.
    pub fn finish(self) -> ExitCode {
        let wall_seconds = self.t0.elapsed().as_secs_f64();
        if self.env_sink {
            let default = format!("{}.telemetry.json", self.id);
            match telemetry::flush(Some(&default)) {
                Ok(Some(path)) => eprintln!("telemetry: wrote {}", path.display()),
                Ok(None) => {}
                Err(e) => {
                    let target = match telemetry::mode() {
                        telemetry::Mode::Json { path } => path.unwrap_or(default),
                        telemetry::Mode::Chrome { path } => {
                            path.unwrap_or_else(|| "rfsim-trace.json".into())
                        }
                        _ => default,
                    };
                    eprintln!("telemetry: flush to {target} failed: {e}");
                }
            }
        }
        let artifact = BenchArtifact {
            schema_version: SCHEMA_VERSION,
            id: self.id.clone(),
            git_sha: git_sha(),
            threads: rfsim_parallel::thread_count(),
            wall_seconds,
            failure: self.failure.clone(),
            phases: self.phases,
            sweep: self.sweep,
            telemetry: telemetry::snapshot().to_json(),
        };
        let dir = std::env::var(BENCH_DIR_VAR).unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(BenchArtifact::file_name(&self.id));
        let written = match std::fs::write(&path, artifact.to_json().to_string_pretty()) {
            Ok(()) => {
                eprintln!("bench: wrote {}", path.display());
                true
            }
            Err(e) => {
                eprintln!("bench: failed to write {}: {e}", path.display());
                false
            }
        };
        if written && self.failure.is_none() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_mode_grammar() {
        // Unset selects the default; the empty value parses to the same.
        assert_eq!(SweepMode::default(), SweepMode::Warm);
        assert_eq!(SweepMode::parse(""), Some(SweepMode::Warm));
        assert_eq!(SweepMode::parse("Warm"), Some(SweepMode::Warm));
        assert_eq!(SweepMode::parse("COLD"), Some(SweepMode::Cold));
        assert_eq!(SweepMode::parse("cOlD"), Some(SweepMode::Cold));
        assert_eq!(SweepMode::parse("Adaptive"), Some(SweepMode::Adaptive));
        assert_eq!(SweepMode::parse("bogus"), None);
    }
}
