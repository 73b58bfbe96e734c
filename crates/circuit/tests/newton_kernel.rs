//! The Newton kernel's factorization counts and pattern growth. The
//! counters are process-global, hence a test binary of its own, and
//! every test here holds `SERIAL` while it runs the kernel.

use rfsim_circuit::dae::{Dae, TwoTime};
use rfsim_circuit::prelude::*;
use rfsim_circuit::{Circuit, CircuitDae};
use rfsim_numerics::sparse::Triplets;
use rfsim_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` with telemetry on and returns its counter deltas and the
/// convergence traces it recorded.
fn traced<T>(
    f: impl FnOnce() -> T,
) -> (T, BTreeMap<String, u64>, Vec<telemetry::ConvergenceTrace>) {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::set_mode(telemetry::Mode::Report);
    telemetry::reset();
    let (out, counters) = telemetry::counted(f);
    let traces = telemetry::snapshot().traces;
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    (out, counters, traces)
}

fn count(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    counters.get(name).copied().unwrap_or(0)
}

/// A sine on a 0.5 V offset through 1 kΩ into a diode ∥ 10 nF: the DC
/// point is off zero, so the DC solve factors too.
fn diode_rc() -> CircuitDae {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.5, 1.0, 1e5));
    ckt.add(Resistor::new("R1", a, out, 1e3));
    ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
    ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 10e-9));
    ckt.into_dae().unwrap()
}

/// A transient analyses its Jacobian once for all its steps, and its
/// DC point once: every other Newton correction is a refactorization.
#[test]
fn diode_rc_transient_analyses_once() {
    let dae = diode_rc();
    let opts = TranOptions { dt: 1e-7, ..Default::default() };
    let (res, counters, _) = traced(|| transient(&dae, 0.0, 2e-5, &opts));
    let res = res.unwrap();
    assert_eq!(res.times.len(), 201);
    let corrections = count(&counters, "dc.newton.iterations") + res.newton_iterations as u64;
    assert!(count(&counters, "dc.newton.iterations") > 0, "{counters:?}");
    assert!(res.newton_iterations > 200, "{counters:?}");
    assert_eq!(count(&counters, "lu.sparse.factorizations"), 2, "{counters:?}");
    assert_eq!(count(&counters, "lu.sparse.refactorizations"), corrections - 2, "{counters:?}");
}

/// A diode forward-biased from 5 V through 1 kΩ, a DC solve that plain
/// Newton from zero finishes only in more than a few iterations.
fn diode_bias() -> CircuitDae {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add(VSource::dc("V1", a, Circuit::GROUND, 5.0));
    ckt.add(Resistor::new("R1", a, d, 1e3));
    ckt.add(Diode::new("D1", d, Circuit::GROUND, 1e-14));
    ckt.into_dae().unwrap()
}

/// Too few iterations for plain Newton send the DC solve to gmin
/// stepping, whose conductance adds the source branch's diagonal to the
/// pattern mid-solve: the kernel re-analyses, and every gmin step after
/// refactors, to the point a fresh solve from zero reaches.
#[test]
fn gmin_stepping_grows_the_pattern() {
    let dae = diode_bias();
    let short = DcOptions { max_iters: 6, ..Default::default() };
    let (stepped, counters, traces) = traced(|| dc_operating_point(&dae, &short));
    let stepped = stepped.unwrap();
    let solves: Vec<_> = traces.iter().filter(|t| t.solver == "dc.newton").collect();
    assert!(!solves[0].converged, "plain Newton should run out of iterations");
    assert_eq!(solves.len(), 1 + short.gmin_steps + 1, "plain Newton, then every gmin step");
    assert!(solves[1..].iter().all(|t| t.converged));
    let full = count(&counters, "lu.sparse.factorizations");
    assert!(full >= 2, "the grown pattern is analysed afresh: {counters:?}");
    assert!(count(&counters, "lu.sparse.refactorizations") > full, "{counters:?}");

    let (fresh, _, _) = traced(|| dc_operating_point(&dae, &DcOptions::default()));
    for (s, f) in stepped.x.iter().zip(&fresh.unwrap().x) {
        assert!((s - f).abs() < 1e-12, "gmin-stepped {s} vs fresh {f}");
    }
}

/// Adds a conductance from `out` to ground that stamps only while
/// `v(out)` exceeds `v_on`, or always (as zero below it) when `always`.
struct Clamp {
    inner: CircuitDae,
    out: usize,
    v_on: f64,
    always: bool,
}

impl Dae for Clamp {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(
        &self,
        x: &[f64],
        f: &mut [f64],
        q: &mut [f64],
        g: &mut Triplets<f64>,
        c: &mut Triplets<f64>,
    ) {
        self.inner.eval(x, f, q, g, c);
        let over = x[self.out] - self.v_on;
        if over > 0.0 || self.always {
            let gc = if over > 0.0 { 1e-3 } else { 0.0 };
            f[self.out] += gc * over;
            g.push(self.out, self.out, gc);
            // A position no other stamp holds: the source branch's column.
            g.push(self.out, self.dim() - 1, 0.0);
        }
    }

    fn eval_b(&self, t: TwoTime, b: &mut [f64]) {
        self.inner.eval_b(t, b);
    }
}

/// A transient whose evaluation stamps a position its pattern lacks
/// partway through grows the pattern and re-analyses once, and lands on
/// the trajectory of a run whose pattern held that position from the
/// start.
#[test]
fn a_new_stamp_mid_transient_grows_the_pattern() {
    let rc = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, 1e5));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        let dae = ckt.into_dae().unwrap();
        let oi = dae.node_index(out).unwrap();
        (dae, oi)
    };
    let ((inner, oi), (inner2, _)) = (rc(), rc());
    let opts = TranOptions { dt: 1e-7, ..Default::default() };
    let growing = Clamp { inner, out: oi, v_on: 0.5, always: false };
    let complete = Clamp { inner: inner2, out: oi, v_on: 0.5, always: true };
    let (grown, counters, _) = traced(|| transient(&growing, 0.0, 1e-5, &opts));
    let (fresh, fresh_counters, _) = traced(|| transient(&complete, 0.0, 1e-5, &opts));
    let (grown, fresh) = (grown.unwrap(), fresh.unwrap());
    assert!(grown.unknown(oi).iter().any(|&v| v > 0.6), "the clamp should switch on");
    assert_eq!(
        count(&counters, "lu.sparse.factorizations"),
        count(&fresh_counters, "lu.sparse.factorizations") + 1,
        "{counters:?} vs {fresh_counters:?}"
    );
    for (g, f) in grown.states.iter().flatten().zip(fresh.states.iter().flatten()) {
        assert!((g - f).abs() < 1e-12, "grown {g} vs fresh {f}");
    }
}
