//! Chrome trace-event exporter: turns completed spans into a timeline
//! loadable by `chrome://tracing` or Perfetto (<https://ui.perfetto.dev>).
//!
//! Selected with `RFSIM_TELEMETRY=chrome[:path]`. Every span drop in
//! this mode appends one complete ("X") trace event with the span's
//! start offset and duration in microseconds relative to a process-wide
//! epoch, tagged with a stable per-thread `tid` so the parallel pool's
//! worker threads render as distinct tracks.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events; beyond this, events are counted in
/// [`dropped`] instead of stored (a runaway sweep must not OOM the
/// process it is observing).
pub const MAX_CHROME_EVENTS: usize = 1 << 20;

/// One complete ("X") trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Leaf span name (nesting is reconstructed by the viewer from
    /// timestamp containment within a track).
    pub name: String,
    /// Microseconds since the trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Per-thread track id (stable for the lifetime of the thread).
    pub tid: u64,
}

static EVENTS: Mutex<Vec<ChromeEvent>> = Mutex::new(Vec::new());
static THREADS: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = register_thread();
}

fn register_thread() -> u64 {
    let name = std::thread::current().name().map(String::from);
    let mut threads = THREADS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // A repeated thread name reuses its track: the worker pool spawns a
    // fresh OS thread per parallel region, and keying the track by name
    // ("rfsim-worker-1", …) keeps each worker on one stable timeline
    // instead of accumulating a new track per region.
    if let Some(n) = &name {
        if let Some(&(tid, _)) = threads.iter().find(|(_, existing)| existing == n) {
            return tid;
        }
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    threads.push((tid, name.unwrap_or_else(|| format!("thread-{tid}"))));
    tid
}

/// The process-wide trace epoch. Initialized the first time chrome mode
/// needs it (mode switch or first recorded span, whichever comes
/// first); all `ts` values are offsets from this instant.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Stable track id of the calling thread.
pub(crate) fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Records one completed span as an "X" event.
pub(crate) fn record(name: &str, start: Instant, end: Instant) {
    let e = epoch();
    let ts_us = start.saturating_duration_since(e).as_nanos() as f64 / 1e3;
    let dur_us = end.saturating_duration_since(start).as_nanos() as f64 / 1e3;
    let mut events = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if events.len() >= MAX_CHROME_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(ChromeEvent { name: name.to_string(), ts_us, dur_us, tid: tid() });
}

/// Copies the buffered events, sorted by start timestamp.
pub fn events() -> Vec<ChromeEvent> {
    let mut out = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    out.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then_with(|| a.tid.cmp(&b.tid)));
    out
}

/// Events discarded after [`MAX_CHROME_EVENTS`] was reached.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears all buffered events and the dropped counter (thread ids and
/// the epoch are process-lifetime and persist).
pub(crate) fn reset() {
    EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Serializes the buffered events as a Trace Event Format JSON array:
/// one "M" thread-name metadata record per thread seen, then the "X"
/// events in timestamp order.
pub fn to_json() -> Json {
    let mut arr = Vec::new();
    let threads = THREADS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    for (tid, name) in threads {
        arr.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj([("name", Json::Str(name))])),
        ]));
    }
    for ev in events() {
        arr.push(Json::obj([
            ("name", Json::Str(ev.name)),
            ("cat", Json::Str("span".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(ev.ts_us)),
            ("dur", Json::Num(ev.dur_us)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(ev.tid as f64)),
        ]));
    }
    Json::Arr(arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_sort() {
        // Direct unit check of the buffer; mode-driven integration lives
        // in tests/chrome_trace.rs.
        let _lock = crate::test_lock();
        reset();
        let e = epoch();
        record(
            "later",
            e + std::time::Duration::from_micros(50),
            e + std::time::Duration::from_micros(70),
        );
        record(
            "earlier",
            e + std::time::Duration::from_micros(10),
            e + std::time::Duration::from_micros(20),
        );
        let evs = events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "earlier");
        assert!(evs[0].ts_us <= evs[1].ts_us);
        assert!(evs.iter().all(|ev| ev.dur_us > 0.0));
        reset();
        assert!(events().is_empty());
    }
}
