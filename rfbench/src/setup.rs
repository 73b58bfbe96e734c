//! `setup_s`: process start to the first timed op, measured on fresh
//! processes. An untraced run starts [`PROBES`] copies of this binary in
//! probe mode, one after another. Each probe does the workload's set-up
//! and prints [`READY`] where a run would start its first timed op; the
//! parent times each from spawn to that line and reports the median.
//! Every probe pays what a fresh process pays (loading, FFT plans, SIMD
//! dispatch detection, allocator first touch), which a set-up repeated
//! inside one process would not. Like the other timings, each probe's
//! time is converted to the reference pace, from pace samples the parent
//! takes just before and just after it (see [`crate::pace`]).

use crate::pace::Pace;
use crate::stats::median;
use crate::Args;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-up probes per untraced run; `setup_s` is their median.
pub const PROBES: usize = 5;

/// The flag that runs the binary as a set-up probe (value `1`).
pub const PROBE_FLAG: &str = "--setup-probe";

/// What a probe prints once it would start its first timed op.
const READY: &str = "rfbench: set up";

/// Prints the ready line (probe mode).
pub fn ready() {
    let mut out = std::io::stdout().lock();
    // A lost line fails the probe in the parent, which reads for it.
    let _ = writeln!(out, "{READY}").and_then(|()| out.flush());
}

/// The median set-up time (s), at the reference pace of a kernel with
/// `read_passes` (see [`Pace::new`]), of [`PROBES`] fresh probes of
/// `args`'s workload and seed.
///
/// # Errors
/// A probe that cannot start, fails, or never reports ready.
pub fn measure(args: &Args, read_passes: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let seed = args.seed.to_string();
    let mut times = Vec::with_capacity(PROBES);
    let mut pace = Pace::new(read_passes);
    for _ in 0..PROBES {
        let before = pace.sample();
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed, "--seconds", "1"])
            .args(["--trace", "0", PROBE_FLAG, "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting a set-up probe: {e}"))?;
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line).map_err(|e| e.to_string()),
            None => Err("probe has no stdout".into()),
        };
        let seconds = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("waiting for a set-up probe: {e}"))?;
        read?;
        if !status.success() || line.trim_end() != READY {
            return Err(format!("set-up probe failed ({status}, said {line:?})"));
        }
        let after = pace.sample();
        times.push(seconds * pace.reference_ms() / (0.5 * (before + after)));
    }
    Ok(median(&times))
}
