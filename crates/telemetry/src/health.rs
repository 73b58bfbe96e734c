//! Numerical-health monitors: structured events for residual
//! stagnation, divergence, and non-finite values in the iterative
//! engines, plus the [`ResidualMonitor`] state machine the solvers
//! embed next to their [`crate::TraceBuf`].
//!
//! Monitors follow the same zero-cost contract as the rest of the
//! crate: [`ResidualMonitor::new`] samples [`crate::enabled`] once
//! (one relaxed atomic load) and every subsequent
//! [`ResidualMonitor::observe`] is a single branch on the captured
//! flag when telemetry is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hard cap on stored health events.
pub const MAX_HEALTH_EVENTS: usize = 1024;

/// One structured health event.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Detector kind: `stagnation`, `divergence`, `nonfinite`, or
    /// `precond_degraded`.
    pub monitor: String,
    /// Emitting solver, e.g. `krylov.gmres` or `hb.newton`.
    pub solver: String,
    /// Human-readable detail.
    pub detail: String,
    /// The offending value (residual, ratio, ...).
    pub value: f64,
    /// Iteration at which the condition was detected (1-based).
    pub iteration: usize,
}

static EVENTS: Mutex<Vec<HealthEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Records a health event (no-op when telemetry is off).
pub fn record_health(monitor: &str, solver: &str, detail: &str, value: f64, iteration: usize) {
    if !crate::enabled() {
        return;
    }
    let mut events = EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if events.len() >= MAX_HEALTH_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(HealthEvent {
        monitor: monitor.to_string(),
        solver: solver.to_string(),
        detail: detail.to_string(),
        value,
        iteration,
    });
}

pub(crate) fn events() -> Vec<HealthEvent> {
    EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

pub(crate) fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn reset() {
    EVENTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Outcome of one [`ResidualMonitor::observe`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Nothing noteworthy (or telemetry off).
    Ok,
    /// The residual is NaN or infinite.
    NonFinite,
    /// No meaningful improvement for a full stagnation window.
    Stagnating,
    /// The residual blew up well past its best value.
    Diverging,
}

/// Streaming residual-health detector; one per solve, fed each
/// iteration's residual norm alongside the convergence trace.
///
/// Detection rules (thresholds documented in DESIGN §10):
/// - **nonfinite** — residual is NaN/±Inf.
/// - **stagnation** — `window` consecutive iterations without improving
///   the running best residual by at least a factor of
///   `1 - REL_IMPROVEMENT`.
/// - **divergence** — residual exceeds `divergence_factor ×` the
///   running best (after the first iteration established a baseline).
///
/// Each condition fires at most one event per monitor.
#[derive(Debug)]
pub struct ResidualMonitor {
    solver: &'static str,
    active: bool,
    iter: usize,
    best: f64,
    best_iter: usize,
    window: usize,
    divergence_factor: f64,
    flagged_stagnation: bool,
    flagged_divergence: bool,
    flagged_nonfinite: bool,
}

/// Minimum relative improvement per window for progress to count.
const REL_IMPROVEMENT: f64 = 1e-3;

impl ResidualMonitor {
    /// Krylov-flavored monitor: stagnation window of 25 inner
    /// iterations, divergence at 1e4× the best residual.
    pub fn new(solver: &'static str) -> Self {
        Self::with(solver, 25, 1e4)
    }

    /// Newton-flavored monitor: outer loops run tens of iterations, so
    /// the stagnation window shrinks to 8 and divergence trips at 1e3×.
    pub fn newton(solver: &'static str) -> Self {
        Self::with(solver, 8, 1e3)
    }

    /// Monitor with explicit thresholds.
    pub fn with(solver: &'static str, window: usize, divergence_factor: f64) -> Self {
        ResidualMonitor {
            solver,
            active: crate::enabled(),
            iter: 0,
            best: f64::INFINITY,
            best_iter: 0,
            window,
            divergence_factor,
            flagged_stagnation: false,
            flagged_divergence: false,
            flagged_nonfinite: false,
        }
    }

    /// Whether this monitor records anything (telemetry was on at
    /// construction).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Feeds one iteration's residual norm. Single branch when
    /// inactive.
    #[inline]
    pub fn observe(&mut self, residual: f64) -> HealthStatus {
        if !self.active {
            return HealthStatus::Ok;
        }
        self.observe_slow(residual)
    }

    fn observe_slow(&mut self, residual: f64) -> HealthStatus {
        self.iter += 1;
        if !residual.is_finite() {
            if !self.flagged_nonfinite {
                self.flagged_nonfinite = true;
                record_health(
                    "nonfinite",
                    self.solver,
                    &format!("residual became {residual} at iteration {}", self.iter),
                    residual,
                    self.iter,
                );
            }
            return HealthStatus::NonFinite;
        }
        if residual < self.best * (1.0 - REL_IMPROVEMENT) {
            self.best = residual;
            self.best_iter = self.iter;
            return HealthStatus::Ok;
        }
        if !self.flagged_divergence
            && self.best.is_finite()
            && residual > self.best * self.divergence_factor
        {
            self.flagged_divergence = true;
            record_health(
                "divergence",
                self.solver,
                &format!(
                    "residual {residual:.3e} exceeds {:.0e}x the best seen ({:.3e})",
                    self.divergence_factor, self.best
                ),
                residual,
                self.iter,
            );
            return HealthStatus::Diverging;
        }
        if !self.flagged_stagnation && self.iter - self.best_iter >= self.window {
            self.flagged_stagnation = true;
            record_health(
                "stagnation",
                self.solver,
                &format!(
                    "no {REL_IMPROVEMENT:.0e} relative improvement in {} iterations (best {:.3e} at iteration {})",
                    self.window, self.best, self.best_iter
                ),
                residual,
                self.iter,
            );
            return HealthStatus::Stagnating;
        }
        HealthStatus::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
        let _lock = crate::test_lock();
        crate::set_mode(crate::Mode::Report);
        crate::reset();
        let out = f();
        crate::set_mode(crate::Mode::Off);
        crate::reset();
        out
    }

    #[test]
    fn inactive_monitor_records_nothing() {
        let _lock = crate::test_lock();
        crate::set_mode(crate::Mode::Off);
        crate::reset();
        let mut m = ResidualMonitor::new("test.off");
        for _ in 0..100 {
            assert_eq!(m.observe(f64::NAN), HealthStatus::Ok);
        }
        assert!(events().is_empty());
    }

    #[test]
    fn nonfinite_fires_once() {
        with_telemetry(|| {
            let mut m = ResidualMonitor::new("test.nan");
            assert_eq!(m.observe(1.0), HealthStatus::Ok);
            assert_eq!(m.observe(f64::NAN), HealthStatus::NonFinite);
            assert_eq!(m.observe(f64::NAN), HealthStatus::NonFinite);
            let evs = events();
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].monitor, "nonfinite");
            assert_eq!(evs[0].solver, "test.nan");
            assert_eq!(evs[0].iteration, 2);
        });
    }

    #[test]
    fn stagnation_after_window() {
        with_telemetry(|| {
            let mut m = ResidualMonitor::with("test.stall", 10, 1e4);
            assert_eq!(m.observe(1.0), HealthStatus::Ok);
            for _ in 0..9 {
                assert_eq!(m.observe(0.9999), HealthStatus::Ok);
            }
            assert_eq!(m.observe(0.9999), HealthStatus::Stagnating);
            // Fires only once.
            assert_eq!(m.observe(0.9999), HealthStatus::Ok);
            let evs = events();
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].monitor, "stagnation");
        });
    }

    #[test]
    fn divergence_on_blowup() {
        with_telemetry(|| {
            let mut m = ResidualMonitor::with("test.blowup", 25, 1e3);
            assert_eq!(m.observe(1e-6), HealthStatus::Ok);
            assert_eq!(m.observe(1e-2), HealthStatus::Diverging);
            let evs = events();
            assert_eq!(evs.len(), 1);
            assert_eq!(evs[0].monitor, "divergence");
        });
    }

    #[test]
    fn steady_progress_stays_healthy() {
        with_telemetry(|| {
            let mut m = ResidualMonitor::new("test.good");
            let mut r = 1.0;
            for _ in 0..200 {
                assert_eq!(m.observe(r), HealthStatus::Ok);
                r *= 0.9;
            }
            assert!(events().is_empty());
        });
    }
}
