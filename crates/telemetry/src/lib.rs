#![warn(missing_docs)]
//! `rfsim-telemetry` — the observability substrate for the rfsim
//! workspace: hierarchical spans, solver metrics, and convergence
//! traces, exported as a human-readable report or machine-readable
//! JSON.
//!
//! The RF CAD algorithms in this workspace win or lose on a handful of
//! internal quantities — HB Newton residual trajectories, GMRES inner
//! iteration counts and matvecs, IES³ compression ratios, Padé moment
//! counts. This crate makes those observable with near-zero cost:
//!
//! - **Spans** ([`span`]): RAII wall-clock scopes aggregated into a
//!   process-global tree (`solve_hb` → `newton` → `gmres`).
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`]):
//!   named solver counters and distributions; [`counted`] attributes
//!   counter deltas to one scope (a sweep point, a served job).
//! - **Convergence traces** ([`TraceBuf`], [`record_trace`]): per-
//!   iteration residual trajectories of every Newton/Krylov engine.
//! - **Health monitors** ([`health`]): stagnation / divergence /
//!   NaN-Inf detectors emitting structured [`HealthEvent`]s.
//! - **Sinks**: `RFSIM_TELEMETRY=off|report|json[:path]|chrome[:path]`
//!   selects no output (default), a report on stderr, a JSON artifact,
//!   or a Chrome trace-event timeline (Perfetto / `chrome://tracing`).
//!
//! When telemetry is off every instrumentation call is a single branch
//! on a relaxed atomic — no clock reads, no locks, no allocation — so
//! instrumented hot loops cost nothing in production runs.
//!
//! # Example
//!
//! ```
//! use rfsim_telemetry as telemetry;
//!
//! telemetry::set_mode(telemetry::Mode::Report);
//! {
//!     let _solve = telemetry::span("demo.solve");
//!     telemetry::counter_add("demo.iterations", 12);
//!     let mut t = telemetry::TraceBuf::new("demo.newton");
//!     for k in 0..4 {
//!         t.push(10f64.powi(-k));
//!     }
//!     t.commit(true);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["demo.iterations"], 12);
//! assert_eq!(snap.traces[0].residuals.len(), 4);
//! telemetry::set_mode(telemetry::Mode::Off);
//! telemetry::reset();
//! ```

pub mod chrome;
pub mod health;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use health::{record_health, HealthEvent, HealthStatus, ResidualMonitor, MAX_HEALTH_EVENTS};
pub use json::Json;
pub use metrics::{
    counted, counter_add, gauge_set, histogram_record, Histogram, NUM_BUCKETS, SUB_BUCKETS,
};
pub use span::{span, span_dyn, SpanGuard, SpanNode};
pub use trace::{record_trace, ConvergenceTrace, TraceBuf, MAX_TRACES};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, Once};

/// Telemetry operating mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Mode {
    /// No recording; all instrumentation is a single branch.
    #[default]
    Off,
    /// Record, and [`flush`] prints a human-readable report to stderr.
    Report,
    /// Record, and [`flush`] writes a JSON artifact.
    Json {
        /// Output path; `None` uses the flusher's default.
        path: Option<String>,
    },
    /// Record, and [`flush`] writes a Chrome trace-event timeline
    /// (loadable by Perfetto or `chrome://tracing`).
    Chrome {
        /// Output path; `None` uses `rfsim-trace.json`.
        path: Option<String>,
    },
}

const MODE_OFF: u8 = 0;
const MODE_REPORT: u8 = 1;
const MODE_JSON: u8 = 2;
const MODE_CHROME: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);
static JSON_PATH: Mutex<Option<String>> = Mutex::new(None);
static INIT: Once = Once::new();

/// Environment variable selecting the mode: `off` (default), `report`,
/// `json`, `json:/some/path.json`, `chrome`, or `chrome:/trace.json`.
pub const ENV_VAR: &str = "RFSIM_TELEMETRY";

fn ensure_init() {
    INIT.call_once(|| {
        let Ok(value) = std::env::var(ENV_VAR) else { return };
        match parse_mode(&value) {
            Some(mode) => apply_mode(mode),
            None => eprintln!(
                "rfsim-telemetry: ignoring unrecognized {ENV_VAR}={value:?} \
                 (expected off | report | json[:path] | chrome[:path])"
            ),
        }
    });
}

/// Parses an `RFSIM_TELEMETRY` value. Returns `None` for unrecognized
/// input.
pub fn parse_mode(value: &str) -> Option<Mode> {
    match value {
        "" | "off" | "0" | "none" => Some(Mode::Off),
        "report" => Some(Mode::Report),
        "json" => Some(Mode::Json { path: None }),
        "chrome" => Some(Mode::Chrome { path: None }),
        _ => {
            if let Some(p) = value.strip_prefix("json:").filter(|p| !p.is_empty()) {
                Some(Mode::Json { path: Some(p.to_string()) })
            } else {
                value
                    .strip_prefix("chrome:")
                    .filter(|p| !p.is_empty())
                    .map(|p| Mode::Chrome { path: Some(p.to_string()) })
            }
        }
    }
}

fn apply_mode(mode: Mode) {
    let (tag, path) = match mode {
        Mode::Off => (MODE_OFF, None),
        Mode::Report => (MODE_REPORT, None),
        Mode::Json { path } => (MODE_JSON, path),
        Mode::Chrome { path } => {
            // Anchor the trace epoch before any span starts recording.
            let _ = chrome::epoch();
            (MODE_CHROME, path)
        }
    };
    *JSON_PATH.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = path;
    MODE.store(tag, Ordering::Release);
}

/// Overrides the mode programmatically (wins over the environment).
pub fn set_mode(mode: Mode) {
    // Mark the env as consumed so a later lazy init cannot undo this.
    INIT.call_once(|| {});
    apply_mode(mode);
}

/// The current mode.
pub fn mode() -> Mode {
    ensure_init();
    match MODE.load(Ordering::Acquire) {
        MODE_REPORT => Mode::Report,
        MODE_JSON => Mode::Json {
            path: JSON_PATH.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        },
        MODE_CHROME => Mode::Chrome {
            path: JSON_PATH.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        },
        _ => Mode::Off,
    }
}

/// Fast check used by every instrumentation point.
#[inline]
pub fn enabled() -> bool {
    ensure_init();
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// Whether the Chrome trace exporter is active (checked on span drop).
#[inline]
pub(crate) fn chrome_enabled() -> bool {
    MODE.load(Ordering::Relaxed) == MODE_CHROME
}

/// A point-in-time copy of everything recorded so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Aggregated span tree (the root is an unnamed container).
    pub spans: SpanNode,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions.
    pub histograms: BTreeMap<String, Histogram>,
    /// Recorded convergence traces, in recording order.
    pub traces: Vec<ConvergenceTrace>,
    /// Traces discarded after [`MAX_TRACES`] was reached.
    pub dropped_traces: u64,
    /// Structured health events, in recording order.
    pub health: Vec<HealthEvent>,
    /// Health events discarded after [`MAX_HEALTH_EVENTS`] was reached.
    pub dropped_health: u64,
}

/// Captures a snapshot of all recorded telemetry.
pub fn snapshot() -> Snapshot {
    Snapshot {
        spans: span::tree(),
        counters: metrics::counters(),
        gauges: metrics::gauges(),
        histograms: metrics::histograms(),
        traces: trace::traces(),
        dropped_traces: trace::dropped(),
        health: health::events(),
        dropped_health: health::dropped(),
    }
}

/// Clears all recorded telemetry (mode is unchanged).
pub fn reset() {
    span::reset();
    metrics::reset();
    trace::reset();
    health::reset();
    chrome::reset();
}

impl Snapshot {
    /// Serializes the snapshot as a JSON value.
    pub fn to_json(&self) -> Json {
        fn span_json(node: &SpanNode) -> Json {
            Json::obj([
                ("count", Json::Num(node.count as f64)),
                ("total_seconds", Json::Num(node.seconds())),
                (
                    "children",
                    Json::Obj(
                        node.children.iter().map(|(k, v)| (k.clone(), span_json(v))).collect(),
                    ),
                ),
            ])
        }
        let histograms = self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect();
        let traces = self
            .traces
            .iter()
            .map(|t| {
                Json::obj([
                    ("solver", Json::Str(t.solver.clone())),
                    ("label", Json::Str(t.label.clone())),
                    ("converged", Json::Bool(t.converged)),
                    ("iterations", Json::Num(t.residuals.len() as f64)),
                    ("residuals", Json::nums(t.residuals.iter().copied())),
                ])
            })
            .collect();
        Json::obj([
            ("spans", span_json(&self.spans)),
            (
                "counters",
                Json::Obj(
                    self.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(self.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
            ),
            ("histograms", Json::Obj(histograms)),
            ("traces", Json::Arr(traces)),
            ("dropped_traces", Json::Num(self.dropped_traces as f64)),
            (
                "health",
                Json::Arr(
                    self.health
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("monitor", Json::Str(h.monitor.clone())),
                                ("solver", Json::Str(h.solver.clone())),
                                ("detail", Json::Str(h.detail.clone())),
                                ("value", Json::Num(h.value)),
                                ("iteration", Json::Num(h.iteration as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("dropped_health", Json::Num(self.dropped_health as f64)),
        ])
    }

    /// Rebuilds the histograms of a snapshot from its JSON
    /// serialization. Tolerates both the current bucketed shape and the
    /// pre-quantile moments-only shape (see [`Histogram::from_json`]).
    pub fn histograms_from_json(value: &Json) -> Option<BTreeMap<String, Histogram>> {
        let Json::Obj(m) = value.get("histograms")? else { return None };
        m.iter().map(|(k, h)| Some((k.clone(), Histogram::from_json(h)?))).collect()
    }

    /// Rebuilds the traces of a snapshot from its JSON serialization
    /// (spans/metrics are aggregate-only and not reconstructed).
    pub fn traces_from_json(value: &Json) -> Option<Vec<ConvergenceTrace>> {
        let arr = value.get("traces")?.as_arr()?;
        let mut out = Vec::with_capacity(arr.len());
        for t in arr {
            out.push(ConvergenceTrace {
                solver: t.get("solver")?.as_str()?.to_string(),
                label: t.get("label")?.as_str()?.to_string(),
                converged: matches!(t.get("converged")?, Json::Bool(true)),
                residuals: t
                    .get("residuals")?
                    .as_arr()?
                    .iter()
                    .map(|r| r.as_f64())
                    .collect::<Option<Vec<f64>>>()?,
            });
        }
        Some(out)
    }

    /// Renders the metrics sections (counters, gauges, histograms) in
    /// the Prometheus text exposition format. Dots and other
    /// non-identifier characters become underscores under an `rfsim_`
    /// prefix; histograms render as summaries with
    /// `quantile="0.5|0.9|0.99|0.999"` series plus `_sum`/`_count`.
    /// Spans, traces, and health events have no Prometheus equivalent
    /// and are omitted.
    pub fn render_prometheus(&self) -> String {
        fn prom_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("rfsim_");
            out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
            out
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }

    /// Renders the human-readable report.
    pub fn render_report(&self) -> String {
        fn walk(out: &mut String, name: &str, node: &SpanNode, depth: usize) {
            let _ = writeln!(
                out,
                "  {:indent$}{name:<w$} {:>8}x {:>12.6}s",
                "",
                node.count,
                node.seconds(),
                indent = depth * 2,
                w = 36usize.saturating_sub(depth * 2),
            );
            for (child, sub) in &node.children {
                walk(out, child, sub, depth + 1);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== rfsim telemetry ==");
        if self.spans.children.is_empty() {
            let _ = writeln!(out, "spans: (none)");
        } else {
            let _ = writeln!(out, "spans (count, total):");
            for (name, node) in &self.spans.children {
                walk(&mut out, name, node, 0);
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<44} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, v) in &self.gauges {
                // Fixed-point truncates tiny values (oscillator periods in
                // ns) to 0.000000; fall back to scientific below 1e-3.
                let _ = if *v == 0.0 || v.abs() >= 1e-3 {
                    writeln!(out, "  {k:<44} {v:>12.6}")
                } else {
                    writeln!(out, "  {k:<44} {v:>12.6e}")
                };
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / p50 / p95 / p99 / min / max):");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<44} {:>8} / {:.3} / {:.3} / {:.3} / {:.3} / {:.3} / {:.3}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.min,
                    h.max
                );
            }
        }
        if !self.traces.is_empty() {
            let _ = writeln!(out, "convergence traces:");
            for t in &self.traces {
                let first = t.residuals.first().copied().unwrap_or(f64::NAN);
                let last = t.residuals.last().copied().unwrap_or(f64::NAN);
                let _ = writeln!(
                    out,
                    "  {:<28} {:<24} {:>4} iters  {first:.3e} -> {last:.3e}  {}",
                    t.solver,
                    t.label,
                    t.residuals.len(),
                    if t.converged { "converged" } else { "FAILED" },
                );
            }
        }
        if self.dropped_traces > 0 {
            let _ = writeln!(
                out,
                "note: {} trace(s) dropped after the {MAX_TRACES}-trace cap",
                self.dropped_traces
            );
        }
        if !self.health.is_empty() {
            let _ = writeln!(out, "health events:");
            for h in &self.health {
                let _ = writeln!(
                    out,
                    "  {:<16} {:<28} iter {:>4}  {}",
                    h.monitor, h.solver, h.iteration, h.detail,
                );
            }
        }
        if self.dropped_health > 0 {
            let _ = writeln!(
                out,
                "note: {} health event(s) dropped after the {MAX_HEALTH_EVENTS}-event cap",
                self.dropped_health
            );
        }
        out
    }
}

/// Flushes recorded telemetry according to the current mode.
///
/// - `Off`: does nothing.
/// - `Report`: prints [`Snapshot::render_report`] to stderr.
/// - `Json { path }`: writes pretty-printed JSON to `path`, falling
///   back to `default_json_path`, then `rfsim-telemetry.json`.
/// - `Chrome { path }`: writes the trace-event timeline to `path`,
///   falling back to `rfsim-trace.json`.
///
/// Returns the path written in JSON or Chrome mode.
///
/// # Errors
/// Propagates I/O failures from the file write.
pub fn flush(default_json_path: Option<&str>) -> std::io::Result<Option<std::path::PathBuf>> {
    match mode() {
        Mode::Off => Ok(None),
        Mode::Report => {
            eprint!("{}", snapshot().render_report());
            Ok(None)
        }
        Mode::Json { path } => {
            let path = std::path::PathBuf::from(
                path.as_deref().or(default_json_path).unwrap_or("rfsim-telemetry.json"),
            );
            std::fs::write(&path, snapshot().to_json().to_string_pretty())?;
            Ok(Some(path))
        }
        Mode::Chrome { path } => {
            let path = std::path::PathBuf::from(path.as_deref().unwrap_or("rfsim-trace.json"));
            std::fs::write(&path, chrome::to_json().to_string_compact())?;
            Ok(Some(path))
        }
    }
}

/// Serializes the unit tests that set the mode or read or reset the
/// recorded state: both are process-global, and libtest runs tests on
/// parallel threads. Survives a test that panicked while holding it.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mode_grammar() {
        assert_eq!(parse_mode("off"), Some(Mode::Off));
        assert_eq!(parse_mode(""), Some(Mode::Off));
        assert_eq!(parse_mode("report"), Some(Mode::Report));
        assert_eq!(parse_mode("json"), Some(Mode::Json { path: None }));
        assert_eq!(
            parse_mode("json:/tmp/x.json"),
            Some(Mode::Json { path: Some("/tmp/x.json".into()) })
        );
        assert_eq!(parse_mode("json:"), None);
        assert_eq!(parse_mode("chrome"), Some(Mode::Chrome { path: None }));
        assert_eq!(
            parse_mode("chrome:trace.json"),
            Some(Mode::Chrome { path: Some("trace.json".into()) })
        );
        assert_eq!(parse_mode("chrome:"), None);
        assert_eq!(parse_mode("bogus"), None);
    }

    #[test]
    fn snapshot_json_has_sections() {
        let snap = Snapshot {
            spans: SpanNode::default(),
            counters: [("a.b".to_string(), 3u64)].into_iter().collect(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            traces: vec![ConvergenceTrace {
                solver: "s".into(),
                label: "l".into(),
                residuals: vec![1.0, 0.1],
                converged: true,
            }],
            dropped_traces: 0,
            health: vec![HealthEvent {
                monitor: "stagnation".into(),
                solver: "krylov.gmres".into(),
                detail: "stalled".into(),
                value: 0.5,
                iteration: 30,
            }],
            dropped_health: 0,
        };
        let j = snap.to_json();
        assert_eq!(j.get("counters").unwrap().get("a.b").unwrap().as_f64(), Some(3.0));
        let traces = Snapshot::traces_from_json(&j).unwrap();
        assert_eq!(traces, snap.traces);
        let report = snap.render_report();
        assert!(report.contains("health events:"));
        assert!(report.contains("stagnation"));
    }
}
