//! Hierarchical wall-clock spans with an RAII guard API.
//!
//! Each thread keeps a stack of active span names; completed spans are
//! aggregated into a process-global tree keyed by the name path, so
//! repeated solves fold into one node with a call count and total time.
//! When telemetry is off, [`span`] returns an inert guard: no clock
//! read, no allocation, no lock.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregated timing node: one per distinct span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Completed spans at this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
    /// Child spans keyed by name.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    const fn empty() -> Self {
        SpanNode { count: 0, total_ns: 0, children: BTreeMap::new() }
    }

    /// Total seconds at this node.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Looks up a descendant by path segments.
    pub fn descend(&self, path: &[&str]) -> Option<&SpanNode> {
        let mut cur = self;
        for seg in path {
            cur = cur.children.get(*seg)?;
        }
        Some(cur)
    }
}

impl Default for SpanNode {
    fn default() -> Self {
        SpanNode::empty()
    }
}

static ROOT: Mutex<SpanNode> = Mutex::new(SpanNode::empty());

thread_local! {
    static STACK: RefCell<Vec<Cow<'static, str>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard: the span runs from construction to drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span named `name` under the innermost open span of this
/// thread. Returns an inert guard when telemetry is off.
pub fn span(name: &'static str) -> SpanGuard {
    open(Cow::Borrowed(name))
}

/// Opens a span with a runtime-constructed name.
pub fn span_dyn(name: String) -> SpanGuard {
    open(Cow::Owned(name))
}

fn open(name: Cow<'static, str>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard { start: Some(Instant::now()) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let ns = end.saturating_duration_since(start).as_nanos().min(u64::MAX as u128) as u64;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if crate::chrome_enabled() {
                if let Some(name) = stack.last() {
                    crate::chrome::record(name, start, end);
                }
            }
            record(&stack, ns);
            stack.pop();
        });
    }
}

/// Folds one completed span (the last element of `path`) into the tree.
fn record(path: &[Cow<'static, str>], ns: u64) {
    let mut root = ROOT.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut cur = &mut *root;
    for seg in path {
        cur = cur.children.entry(seg.to_string()).or_default();
    }
    cur.count += 1;
    cur.total_ns += ns;
}

/// Clones the aggregated span tree.
pub(crate) fn tree() -> SpanNode {
    ROOT.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Clears the aggregated span tree.
pub(crate) fn reset() {
    *ROOT.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = SpanNode::empty();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_guard_when_off() {
        let _lock = crate::test_lock();
        crate::set_mode(crate::Mode::Off);
        let g = span("should-not-record");
        drop(g);
        assert!(tree().children.is_empty() || !tree().children.contains_key("should-not-record"));
    }
}
