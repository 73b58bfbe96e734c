//! `rfbench` — the rfsim benchmark: three seeded single-process
//! workloads measured end to end with tracing off, and a traced run
//! that splits the cost by layer. See `README.md` beside this crate.
//!
//! ```text
//! rfbench --workload <hb_chain|fd_extract|serve_loop> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The exit code is 0 when every op passed its output check, 1 when
//! some op failed, and 2 when the run could not be measured at all (no
//! result line is printed then).

mod fd_extract;
mod hb_chain;
mod host;
mod layers;
mod library;
mod pace;
mod rng;
#[cfg(test)]
mod selftest;
mod serve_loop;
mod setup;
mod stats;

use rfsim_telemetry::Json;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["hb_chain", "fd_extract", "serve_loop"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase (s).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set-up probe: set up, report readiness and exit (see [`setup`]).
    pub setup_probe: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_probe = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                setup::PROBE_FLAG => setup_probe = value == "1",
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?} (have {WORKLOADS:?})"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            setup_probe,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host metadata of the run.
    pub host: Json,
    /// How many samples the reported figures rest on.
    pub samples: Json,
}

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("hb_warm_p50_ms", "ms"),
    ("hb_warm_p90_ms", "ms"),
    ("hb_cold_p50_ms", "ms"),
    ("extract_warm_p50_ms", "ms"),
    ("extract_warm_p90_ms", "ms"),
    ("extract_cold_p50_ms", "ms"),
];

/// The end-to-end figures of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
    pub peak_rss_mb: f64,
    /// `(p50, p90)` of warm `hb` requests.
    pub hb_warm: (f64, f64),
    pub hb_cold_p50_ms: f64,
    /// `(p50, p90)` of warm `extract` requests.
    pub extract_warm: (f64, f64),
    pub extract_cold_p50_ms: f64,
}

/// [`EndToEnd`] as metrics in [`END_TO_END`] order.
pub fn end_to_end_metrics(e: EndToEnd) -> Vec<Metric> {
    let values = [
        e.setup_s,
        e.ops_per_s,
        e.op_p50_ms,
        e.op_p90_ms,
        e.peak_rss_mb,
        e.hb_warm.0,
        e.hb_warm.1,
        e.hb_cold_p50_ms,
        e.extract_warm.0,
        e.extract_warm.1,
        e.extract_cold_p50_ms,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// The process settings every run and every set-up probe measures
/// under.
fn measurement_settings() {
    // One thread per caller: pool fan-out on this class of host spreads
    // a solve's time far more than it saves (see README, noise rules).
    rfsim_parallel::set_thread_count(1);
    // Untraced runs measure with telemetry off, whatever the environment
    // says. (`serve_loop` turns it back on: `Server::spawn` forces it.)
    rfsim_telemetry::set_mode(rfsim_telemetry::Mode::Off);
}

fn run(args: &Args) -> Result<Outcome, String> {
    use library::Workload;
    let read_passes = match args.workload.as_str() {
        "hb_chain" => hb_chain::HbChain::PACE_READ_PASSES,
        "fd_extract" => fd_extract::FdExtract::PACE_READ_PASSES,
        "serve_loop" => serve_loop::PACE_READ_PASSES,
        other => return Err(format!("unknown workload {other:?}")),
    };
    // The untraced run's set-up time, from fresh processes; the traced
    // run does not report it.
    let setup_s = if args.trace { None } else { Some(setup::measure(args, read_passes)?) };
    measurement_settings();
    match args.workload.as_str() {
        "hb_chain" => library::run::<hb_chain::HbChain>(args, setup_s),
        "fd_extract" => library::run::<fd_extract::FdExtract>(args, setup_s),
        "serve_loop" => serve_loop::run(args, setup_s),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A set-up probe: the workload's set-up, then the ready line.
fn probe(args: &Args) -> Result<(), String> {
    measurement_settings();
    match args.workload.as_str() {
        "hb_chain" => library::setup::<hb_chain::HbChain>(args.seed).map(|_| setup::ready()),
        "fd_extract" => library::setup::<fd_extract::FdExtract>(args.seed).map(|_| setup::ready()),
        "serve_loop" => serve_loop::probe(args.seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: every value with all its digits (Rust's shortest
/// round-trip form), units as declared.
fn result_line(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(o.metrics.len());
    for m in &o.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("rfbench: pinning to one CPU: {e}");
        return ExitCode::from(2);
    }
    if args.setup_probe {
        return match probe(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rfbench: {}: set-up probe: {e}", args.workload);
                ExitCode::from(2)
            }
        };
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let line = match result_line(&outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("host {}", outcome.host.to_string_compact());
    println!("samples {}", outcome.samples.to_string_compact());
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rfbench: {}: {} of {} ops failed",
            args.workload, outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
