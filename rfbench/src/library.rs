//! The closed loop shared by the library workloads: one caller,
//! one op at a time, each op's inputs drawn from the seed before its
//! timer starts. The untraced run measures the end-to-end metrics with
//! telemetry off; the traced run alternates untraced and traced chunks
//! and reads the per-layer metrics from the traced ones.

use crate::host;
use crate::layers::{Layers, Recorded, Samples};
use crate::pace::Pace;
use crate::stats::{mean, min_samples, percentile};
use crate::{Args, Metric, Outcome};
use rfsim_telemetry::{self as telemetry, Json};
use std::time::Instant;

/// Traced ops whose counts are reported exactly (their per-op mean).
/// A fixed number of leading ops, so the counts do not depend on how
/// many ops the time budget allowed.
pub const EXACT_OPS: usize = 8;

/// One library workload: seeded inputs, an op that calls into the
/// layers (each call inside its `bench.*` span), an output check that
/// can fail, and a probe the traced run applies after each op.
pub trait Workload: Sized {
    /// The inputs of one op.
    type Input;
    /// What one op returns for checking and probing.
    type Output;
    /// The `bench.*` spans `run` opens, one per layer call.
    const LAYER_SPANS: &'static [&'static str];
    /// Passes of random reads in the workload's pace kernel (see
    /// [`crate::pace`]).
    const PACE_READ_PASSES: usize;

    /// Set-up: draws the inputs of `seed` and builds what every op shares.
    fn new(seed: u64) -> Self;

    /// Inputs of op `i` (ops cycle through the drawn inputs).
    fn input(&self, i: usize) -> &Self::Input;

    /// Runs one op.
    ///
    /// # Errors
    /// Any layer error, as text.
    fn run(&self, input: &Self::Input) -> Result<Self::Output, String>;

    /// Checks an op's output against what the physics says it must be.
    ///
    /// # Errors
    /// What was wrong, as text.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Result<(), String>;

    /// Traced run only, outside the op's timing: re-runs whatever the
    /// per-layer split needs and, when `exact` (the leading
    /// [`EXACT_OPS`] ops), records the op's exact counts.
    ///
    /// # Errors
    /// A failing re-run, as text.
    fn probe(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        exact: bool,
        s: &mut Samples,
    ) -> Result<(), String>;
}

/// What a phase does besides timing its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The untraced run: ops and their checks only.
    Plain,
    /// A traced run's untraced chunk: every op is probed too, with
    /// telemetry off and nothing kept, so the next op finds the process
    /// (allocator, caches) as it would in a traced chunk. Without that,
    /// `fd_extract`'s traced ops ran about 12% faster than its untraced
    /// ones, an effect of the probe's re-run, not of telemetry.
    Probed,
    /// A traced run's traced chunk, telemetry on: every op is probed and
    /// the phase's leading [`EXACT_OPS`] ops record counter deltas.
    Traced,
}

/// What one timed phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the whole phase (s).
    pub wall_s: f64,
    /// Wall latency of every op that passed its check (ms): the op's
    /// own calls, not the check.
    pub latencies_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored or failed their check.
    pub failed: u64,
    /// Per-op exact counts and probe results (traced phase only).
    pub samples: Samples,
    /// The host pace, sampled between ops ([`Phase::paced`] only).
    pace: Option<Pace>,
    /// With a pace, per passing op: the midpoint of its timed calls on
    /// the pace's clock (s).
    mid_s: Vec<f64>,
    /// With a pace, per attempted op: its midpoint (s) and the wall time
    /// from its start to the end of its check (ms).
    cycles: Vec<(f64, f64)>,
}

/// Counters whose per-op deltas are exact, with the metric they feed.
const EXACT_COUNTERS: [(&str, &str); 2] = [
    ("lu.dense.factorizations", "numerics.dense.factorizations"),
    ("lu.sparse.factorizations", "numerics.sparse.factorizations"),
];

impl Phase {
    /// A phase that samples the host pace between its ops, for the
    /// end-to-end metrics (see [`crate::pace`]).
    pub fn paced(read_passes: usize) -> Phase {
        Phase { pace: Some(Pace::new(read_passes)), ..Phase::default() }
    }

    /// Completed ops per second of phase wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }

    /// The passing ops' latencies at the reference pace (ms); empty
    /// without a pace.
    pub fn paced_latencies(&self) -> Vec<f64> {
        let Some(pace) = &self.pace else { return Vec::new() };
        self.latencies_ms.iter().zip(&self.mid_s).map(|(ms, &t)| ms * pace.factor(t)).collect()
    }

    /// Completed ops per second of the phase's op-and-check time at the
    /// reference pace; the pace samples between ops are left out. 0
    /// without a pace.
    pub fn paced_ops_per_s(&self) -> f64 {
        let Some(pace) = &self.pace else { return 0.0 };
        let ms: f64 = self.cycles.iter().map(|&(t, ms)| ms * pace.factor(t)).sum();
        self.latencies_ms.len() as f64 / (ms / 1e3)
    }

    /// Median time (ms) of the pace's samples, 0 without a pace.
    pub fn pace_ms(&self) -> f64 {
        self.pace.as_ref().map_or(0.0, Pace::median_ms)
    }

    /// Runs ops back to back for at least `seconds` and until `min_ops`
    /// ops were attempted, appending to this phase; op indices continue
    /// from the ops already in it. [`Mode::Traced`] needs telemetry on.
    pub fn extend<W: Workload>(&mut self, w: &W, seconds: f64, mode: Mode, min_ops: u64) {
        let start = Instant::now();
        let first = self.attempted;
        while start.elapsed().as_secs_f64() < seconds || self.attempted - first < min_ops {
            let i = self.attempted as usize;
            let input = w.input(i);
            let exact = mode == Mode::Traced && i < EXACT_OPS;
            let before = exact.then(|| telemetry::snapshot().counters);
            let at = self.pace.as_ref().map(Pace::now);
            let t0 = Instant::now();
            let result = w.run(input);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = result.and_then(|out| w.check(input, &out).map(|()| out));
            self.attempted += 1;
            if let (Some(pace), Some(at)) = (&mut self.pace, at) {
                let mid = at + ms / 2e3;
                self.cycles.push((mid, t0.elapsed().as_secs_f64() * 1e3));
                if result.is_ok() {
                    self.mid_s.push(mid);
                }
                pace.tick();
            }
            match result {
                Ok(out) => {
                    self.latencies_ms.push(ms);
                    if let Some(before) = before {
                        let after = telemetry::snapshot().counters;
                        for (counter, metric) in EXACT_COUNTERS {
                            let d = after.get(counter).copied().unwrap_or(0)
                                - before.get(counter).copied().unwrap_or(0);
                            self.samples.push(metric, d as f64);
                        }
                    }
                    if mode != Mode::Plain {
                        if let Err(e) = w.probe(input, &out, exact, &mut self.samples) {
                            eprintln!("op {i}: probe failed: {e}");
                            self.failed += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("op {i}: {e}");
                    self.failed += 1;
                }
            }
        }
        self.wall_s += start.elapsed().as_secs_f64();
    }
}

/// Set-up: input generation plus one untimed, checked warm-up op (FFT
/// plans, SIMD dispatch, allocator). `setup_s` times it on fresh
/// processes (see [`crate::setup`]).
///
/// # Errors
/// A failing warm-up op.
pub fn setup<W: Workload>(seed: u64) -> Result<W, String> {
    let w = W::new(seed);
    let input = w.input(0);
    let out = w.run(input).map_err(|e| format!("warm-up op: {e}"))?;
    w.check(input, &out).map_err(|e| format!("warm-up op: {e}"))?;
    Ok(w)
}

/// The whole run of a library workload; `setup_s` is the untraced
/// run's measured set-up time.
///
/// # Errors
/// Set-up failures and unsupported percentiles.
pub fn run<W: Workload>(args: &Args, setup_s: Option<f64>) -> Result<Outcome, String> {
    let w = setup::<W>(args.seed)?;
    let h0 = host::Sample::now();
    if let Some(setup_s) = setup_s {
        let mut phase = Phase::paced(W::PACE_READ_PASSES);
        phase.extend(&w, args.seconds, Mode::Plain, min_samples(0.9) as u64);
        let metrics = end_to_end(&phase, setup_s)?;
        let host = host::with_pace(
            host::describe(h0, host::Sample::now()),
            phase.pace_ms(),
            phase.ops_per_s(),
        );
        let samples = Json::obj([("ops", Json::Num(phase.latencies_ms.len() as f64))]);
        return Ok(Outcome {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics,
            host,
            samples,
        });
    }
    let (mut untraced, mut traced, mut recorded) =
        (Phase::default(), Phase::default(), Recorded::default());
    let misses_before = rfsim_numerics::fft::plan_cache_stats().misses;
    for traced_chunk in chunk_order() {
        let seconds = args.seconds / TRACE_CHUNKS as f64;
        if traced_chunk {
            telemetry::set_mode(telemetry::Mode::Json { path: None });
            let before = telemetry::snapshot();
            // The exact counts need the leading EXACT_OPS traced ops.
            let min_ops = (EXACT_OPS as u64).saturating_sub(traced.attempted);
            traced.extend(&w, seconds, Mode::Traced, min_ops);
            recorded.add(&before, &telemetry::snapshot());
            telemetry::set_mode(telemetry::Mode::Off);
        } else {
            untraced.extend(&w, seconds, Mode::Probed, 0);
        }
    }
    let plan_misses = rfsim_numerics::fft::plan_cache_stats().misses - misses_before;
    let host = host::describe(h0, host::Sample::now());

    let ops = traced.latencies_ms.len();
    let mut layers = Layers::from_recorded(&recorded, ops);
    layers.take_samples(&traced.samples);
    layers.set("numerics.fft.plan_misses", plan_misses as f64);
    // Untraced ÷ traced throughput of ops' own time: probes and counter
    // snapshots run outside each op's timer, and both kinds of chunk
    // probe. Means, not medians: on a shared host single ops fall into a
    // fast and a slow mode, and a median jumps between them.
    let slowdown = mean(&traced.latencies_ms) / mean(&untraced.latencies_ms);
    layers.set("telemetry.overhead_pct", (slowdown - 1.0) * 100.0);
    let layer_ms: f64 =
        W::LAYER_SPANS.iter().map(|s| crate::layers::span_total(&recorded.spans, s).0).sum();
    let op_ms: f64 = traced.latencies_ms.iter().sum();
    layers.set("bench.layer_coverage_pct", layer_ms / op_ms * 100.0);
    let samples = Json::obj([
        ("untraced_ops", Json::Num(untraced.latencies_ms.len() as f64)),
        ("traced_ops", Json::Num(ops as f64)),
    ]);
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: layers.into_metrics(),
        host,
        samples,
    })
}

/// Chunks a traced run's time is cut into, alternating untraced and
/// traced, so host drift over the run hits both sides alike. About a
/// second each in a 30 s run: a shared host's speed swings over
/// seconds, and with 8 chunks `serve_loop`'s `telemetry.overhead_pct`
/// read 1% and 32% in two runs of one seed.
pub const TRACE_CHUNKS: usize = 32;

/// Whether each chunk is traced: pairs in alternating order (traced
/// first, then untraced first, ...), so a linear drift cancels. The run
/// opens with a traced chunk, so its leading ops, whose counts are
/// reported exactly, follow the set-up directly.
pub fn chunk_order() -> impl Iterator<Item = bool> {
    (0..TRACE_CHUNKS).map(|c| (c % 2 == 0) != (c / 2 % 2 == 1))
}

/// The end-to-end metrics of a paced untraced phase, at the reference
/// pace. A library op is its own single class, so the class metrics
/// repeat the op percentiles (see the benchmark's README).
fn end_to_end(phase: &Phase, setup_s: f64) -> Result<Vec<Metric>, String> {
    let latencies = phase.paced_latencies();
    let p50 = percentile(&latencies, 0.5, "op latency")?;
    let p90 = percentile(&latencies, 0.9, "op latency")?;
    Ok(crate::end_to_end_metrics(crate::EndToEnd {
        setup_s,
        ops_per_s: phase.paced_ops_per_s(),
        op_p50_ms: p50,
        op_p90_ms: p90,
        peak_rss_mb: host::peak_rss_mib()?,
        hb_warm: (p50, p90),
        hb_cold_p50_ms: p50,
        extract_warm: (p50, p90),
        extract_cold_p50_ms: p50,
    }))
}
