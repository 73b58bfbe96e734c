//! Integration tests against the real process-global telemetry state.
//!
//! The registry is deliberately global, so tests that touch it serialize
//! on a local mutex (the cargo test harness runs tests concurrently).

use rfsim_telemetry as telemetry;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn with_clean_state<T>(f: impl FnOnce() -> T) -> T {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_mode(telemetry::Mode::Report);
    telemetry::reset();
    let out = f();
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    out
}

#[test]
fn concurrent_spans_and_counters_aggregate() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    with_clean_state(|| {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let _outer = telemetry::span("test.outer");
                        let _inner = telemetry::span("test.inner");
                        telemetry::counter_add("test.counter", 1);
                        telemetry::histogram_record("test.histogram", (t * i) as f64);
                    }
                    telemetry::gauge_set("test.gauge", t as f64);
                });
            }
        });
        let snap = telemetry::snapshot();
        assert_eq!(snap.counters["test.counter"], (THREADS * PER_THREAD) as u64);
        let outer = snap.spans.descend(&["test.outer"]).expect("outer span");
        assert_eq!(outer.count, (THREADS * PER_THREAD) as u64);
        // Nesting is per-thread: every inner span sits under the outer.
        let inner = snap.spans.descend(&["test.outer", "test.inner"]).expect("nested span");
        assert_eq!(inner.count, (THREADS * PER_THREAD) as u64);
        assert!(snap.spans.descend(&["test.inner"]).is_none(), "inner must not appear at root");
        assert_eq!(snap.histograms["test.histogram"].count, (THREADS * PER_THREAD) as u64);
        assert!(snap.gauges["test.gauge"] < THREADS as f64);
    });
}

#[test]
fn convergence_trace_round_trips_through_json() {
    with_clean_state(|| {
        let residuals = [1.0, 0.25, 3.1e-4, 7.7e-9, 2.0e-13];
        telemetry::record_trace("hb.newton", "roundtrip circuit", &residuals, true);
        telemetry::record_trace("krylov.gmres", "stalled", &[0.9, 0.8, 0.79], false);

        let snap = telemetry::snapshot();
        let text = snap.to_json().to_string_pretty();
        let parsed = telemetry::Json::parse(&text).expect("valid JSON");
        let traces = telemetry::Snapshot::traces_from_json(&parsed).expect("traces section");
        assert_eq!(traces, snap.traces);
        assert_eq!(traces[0].solver, "hb.newton");
        assert_eq!(traces[0].residuals, residuals);
        assert!(traces[0].converged);
        assert!(!traces[1].converged);
    });
}

#[test]
fn trace_cap_counts_dropped() {
    with_clean_state(|| {
        for i in 0..telemetry::MAX_TRACES + 5 {
            telemetry::record_trace("t", &format!("{i}"), &[1.0], true);
        }
        let snap = telemetry::snapshot();
        assert_eq!(snap.traces.len(), telemetry::MAX_TRACES);
        assert_eq!(snap.dropped_traces, 5);
    });
}

#[test]
fn counted_returns_exactly_the_deltas_of_its_scope() {
    with_clean_state(|| {
        telemetry::counter_add("counted.before_only", 5);
        telemetry::counter_add("counted.both", 2);
        let (out, deltas) = telemetry::counted(|| {
            telemetry::counter_add("counted.both", 3);
            telemetry::counter_add("counted.inside", 7);
            "result"
        });
        assert_eq!(out, "result");
        assert_eq!(deltas.get("counted.inside"), Some(&7));
        assert_eq!(deltas.get("counted.both"), Some(&3));
        assert!(!deltas.contains_key("counted.before_only"), "{deltas:?}");
    });
}

#[test]
fn off_mode_records_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    {
        let _span = telemetry::span("off.span");
        telemetry::counter_add("off.counter", 3);
        telemetry::gauge_set("off.gauge", 1.0);
        telemetry::histogram_record("off.histogram", 1.0);
        let mut t = telemetry::TraceBuf::new("off.newton");
        assert!(!t.is_active());
        t.push(1.0);
        assert!(t.is_empty());
        t.commit(true);
        telemetry::record_trace("off.trace", "", &[1.0], true);
        // Health monitors follow the same contract: enabled() is sampled
        // once at construction, every observe() is a single branch, and
        // nothing is recorded — not even for NaN residuals.
        let mut m = telemetry::ResidualMonitor::new("off.monitor");
        assert!(!m.is_active());
        assert_eq!(m.observe(f64::NAN), telemetry::HealthStatus::Ok);
        assert_eq!(m.observe(1e6), telemetry::HealthStatus::Ok);
        telemetry::record_health("stagnation", "off.solver", "ignored", 1.0, 1);
    }
    let snap = telemetry::snapshot();
    assert!(snap.spans.children.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.traces.is_empty());
    assert!(snap.health.is_empty());
}

#[test]
fn flush_honors_explicit_json_path() {
    with_clean_state(|| {
        telemetry::counter_add("flush.counter", 11);
        let path = std::env::temp_dir().join("rfsim-telemetry-flush-test.json");
        telemetry::set_mode(telemetry::Mode::Json {
            path: Some(path.to_string_lossy().into_owned()),
        });
        let written = telemetry::flush(Some("ignored-default.json")).expect("flush");
        assert_eq!(written.as_deref(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).expect("artifact exists");
        let parsed = telemetry::Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("flush.counter")).and_then(|v| v.as_f64()),
            Some(11.0)
        );
        let _ = std::fs::remove_file(&path);
    });
}
