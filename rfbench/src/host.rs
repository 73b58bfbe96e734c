//! Host state recorded with every run as metadata, not metrics: enough
//! to tell host contention (steal time, a changed CPU) apart from
//! benchmark noise when two sets of runs disagree. Also the pinning to
//! one CPU that every run measures under.

use rfsim_telemetry::Json;

/// Linux's fixed user-visible clock tick for `/proc` CPU times.
const USER_HZ: f64 = 100.0;

/// CPUs a `cpu_set_t` holds (glibc's `CPU_SETSIZE`).
const CPU_SETSIZE: usize = 1024;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU the calling thread is running on.
fn current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// Pins the calling thread, and every thread and process it starts
/// afterwards (they inherit its mask), to the CPU it is running on.
/// Called first thing, it holds the whole run on one CPU: `serve_loop`'s
/// client and server threads then hand each request over on one CPU
/// instead of waking an idle vCPU, whose wake-up latency on a shared
/// host follows the host's load (see README, noise rules).
///
/// # Errors
/// The CPU cannot be read or the mask cannot be set.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let cpu = current_cpu().filter(|&c| c < CPU_SETSIZE).ok_or("sched_getcpu failed")?;
    let mut mask = [0u64; CPU_SETSIZE / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()))
    }
}

/// Counters sampled at the edges of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    steal_jiffies: u64,
    cpu_seconds: f64,
}

impl Sample {
    /// Reads the host-wide steal time and this process's CPU time.
    pub fn now() -> Sample {
        Sample { steal_jiffies: steal_jiffies(), cpu_seconds: process_cpu_seconds() }
    }
}

/// Host metadata for one run: static facts plus the deltas of `start`
/// to `end` over the timed phase.
pub fn describe(start: Sample, end: Sample) -> Json {
    let cache = |level: &str| Json::Str(cache_size(level).unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("nproc", Json::Num(online_cpus() as f64)),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(|| "unknown".into()))),
        ("l2", cache("2")),
        ("l3", cache("3")),
        ("simd_dispatch", Json::Str(rfsim_numerics::kernels::dispatch_label().to_string())),
        ("pool_threads", Json::Num(rfsim_parallel::thread_count() as f64)),
        ("cpu", current_cpu().map_or(Json::Null, |c| Json::Num(c as f64))),
        ("steal_jiffies", Json::Num(end.steal_jiffies.saturating_sub(start.steal_jiffies) as f64)),
        ("process_cpu_s", Json::Num(end.cpu_seconds - start.cpu_seconds)),
    ])
}

/// `host` (an object from [`describe`]) with a paced phase's median pace
/// sample (ms, see [`crate::pace`]) and its throughput in wall time.
pub fn with_pace(mut host: Json, pace_ms: f64, wall_ops_per_s: f64) -> Json {
    if let Json::Obj(map) = &mut host {
        map.insert("pace_ms".into(), Json::Num(pace_ms));
        map.insert("wall_ops_per_s".into(), Json::Num(wall_ops_per_s));
    }
    host
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// CPUs the host has online, whatever this process's affinity mask.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |info| info.lines().filter(|l| l.starts_with("processor")).count())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// Size of the unified or data cache at `level`, as the kernel prints it.
fn cache_size(level: &str) -> Option<String> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8).find_map(|i| {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let kind = read("type")?;
        (read("level")?.trim() == level && kind.trim() != "Instruction")
            .then(|| read("size"))
            .flatten()
            .map(|s| s.trim().to_string())
    })
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// User plus system CPU seconds of this process (`/proc/self/stat`
/// fields 14 and 15).
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name may contain spaces; fields restart after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3 (state), so field 14 is index 11.
    (ticks(11) + ticks(12)) / USER_HZ
}
