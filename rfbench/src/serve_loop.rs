//! `serve_loop`: the iterative redesign loop `rfsim-serve` keeps solver
//! state warm for. An in-process server with two workers is driven over
//! TCP by one designer with its own designs. Each designer iteration
//! sends one `hb` request and one `extract` request for the same design:
//! most iterations step a resident design (warm requests read its
//! `HbSweep` carry, IES³ operators and surrogate), and a fixed share
//! start a new design, which builds, inserts and eventually evicts state
//! (cold requests).

use crate::host;
use crate::layers::{span, span_total, Layers, Recorded, Samples};
use crate::library::{chunk_order, EXACT_OPS, TRACE_CHUNKS};
use crate::pace::Pace;
use crate::rng::Rng;
use crate::stats::{mean, min_samples, percentile};
use crate::{Args, EndToEnd, Outcome};
use rfsim_em::adaptive::EXTRACT_SURROGATE_TOL;
use rfsim_serve::{CacheStats, Client, Server, ServerConfig};
use rfsim_telemetry::{self as telemetry, Histogram, Json};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured client connections, one designer each. One, not two: on a
/// 2-vCPU guest two concurrent jobs contend for the telemetry mutexes
/// that every job's snapshot holds while it copies megabytes, and when
/// the hypervisor preempts the holder the other worker stalls too. That
/// amplified host steal into 30–60% run-to-run spreads on every serve
/// metric; one designer measures the same layers without it.
pub const CONNECTIONS: usize = 1;
/// Throwaway connections that burn a server in (see [`burn_in`]).
const BURN_IN_CONNECTIONS: usize = 2;
/// Iterations each burn-in connection runs. About 1,000 iterations in
/// all filled the convergence-trace buffer and about 1,300 made the HB
/// cache evict; 1,700 leave a margin. A fixed count, so the burn-in ends
/// whatever the program keeps or evicts.
const BURN_IN_ITERATIONS: usize = 850;
/// How far past `--seconds` a timed phase may run to reach the class
/// counts its percentiles need. A phase still short of them then ends,
/// and the run fails on the unsupported percentile instead of waiting
/// for requests that never come (warm hits, say).
const MAX_EXTRA_S: f64 = 60.0;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Designs each designer keeps resident.
pub const RESIDENT: usize = 6;
/// One iteration in this many starts a new design. Few enough that the
/// iteration p90 lies inside the warm iterations' tail (at their 96th
/// percentile), clear of the warm/cold gap: with one in 8 it sat 2.5
/// points into the cold mode and spread 28–38% over ten runs, against
/// 7–19% for the warm class p90s.
pub const NEW_DESIGN_EVERY: usize = 16;
const HB_CIRCUIT: &str = "clipper";
const HB_HARMONICS: usize = 24;
const TURNS: usize = 8;
/// MoM panels per trace segment: the service's default. With 8 turns
/// that is 64 panels, about 65 KB of resident operators per design.
const PANELS_PER_SEG: usize = 2;
const NQ: usize = 4;
/// Largest relative amplitude step of a warm `hb` iteration. About 1%
/// of warm starts still fall back to `HbSweep`'s cold redo; the traced
/// run counts them in `steady.hb.sweep.cold_starts`.
const AMP_STEP: f64 = 0.02;
/// Frequency step of a warm `extract` iteration. Designers alternately
/// extend their band up and down, so every warm extraction is a true,
/// warm-started solve plus a surrogate refit (one latency mode), never
/// a mix of those and model hits.
const FREQ_STEP: f64 = 1.02;
/// Warm-cache budget, split evenly between HB and extraction. Each half
/// holds about 30 entries' worth of accounted bytes, several times the
/// designer's 6 resident designs, so retired designs are evicted while
/// resident ones stay; and both halves fill within the burn-in.
pub const CACHE_BUDGET: usize = 4 << 20;
/// Passes of random reads in the pace kernel (see [`crate::pace`]):
/// request handling and the daemon's telemetry copies slow far more in
/// a busy stretch than the dense loops do.
pub const PACE_READ_PASSES: usize = 6;
/// Every this many iterations a connection keeps its warm replies for
/// the cold-server agreement check.
const SAMPLE_EVERY: u64 = 64;
/// Warm replies per kind and connection checked against a fresh server.
const SAMPLES_PER_KIND: usize = 4;
/// Warm-vs-cold agreement of extraction answers the serve warm-cache
/// tests pin (GMRES runs at 1e-12).
const EXTRACT_AGREE_TOL: f64 = 1e-10;
/// Warm-vs-cold agreement of clipper HB answers (V): the bound
/// `tests/sweep_consistency.rs` pins for a warm-started clipper. HB
/// stops on a 1e-9 A residual, which through the 1 kΩ source resistor
/// leaves up to about 1e-6 V; a warm start from the wrong state misses
/// by the amplitude step, four orders more.
const HB_AGREE_V: f64 = 1e-6;

/// Request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `op:"hb"`.
    Hb,
    /// `op:"extract"`.
    Extract,
}

/// One design: a circuit drive and a spiral geometry.
#[derive(Debug, Clone, PartialEq)]
struct Design {
    f0: f64,
    amp: f64,
    outer: f64,
    width: f64,
    spacing: f64,
    f_up: f64,
    f_down: f64,
    next_up: bool,
}

impl Design {
    fn draw(rng: &mut Rng) -> Design {
        let f = rng.log_range(1e9, 3e9);
        Design {
            f0: rng.log_range(0.5e6, 5e6),
            amp: rng.range(0.8, 1.5),
            outer: rng.range(300e-6, 400e-6),
            width: rng.range(6e-6, 10e-6),
            spacing: rng.range(3e-6, 5e-6),
            f_up: f,
            f_down: f,
            next_up: true,
        }
    }

    fn hb(&self) -> Json {
        Json::obj([
            ("op", Json::Str("hb".into())),
            ("circuit", Json::Str(HB_CIRCUIT.into())),
            ("f0", Json::Num(self.f0)),
            ("harmonics", Json::Num(HB_HARMONICS as f64)),
            ("amp", Json::Num(self.amp)),
        ])
    }

    fn extract(&self, freq: f64) -> Json {
        Json::obj([
            ("op", Json::Str("extract".into())),
            (
                "geometry",
                Json::obj([
                    ("outer", Json::Num(self.outer)),
                    ("turns", Json::Num(TURNS as f64)),
                    ("width", Json::Num(self.width)),
                    ("spacing", Json::Num(self.spacing)),
                ]),
            ),
            ("panels_per_seg", Json::Num(PANELS_PER_SEG as f64)),
            ("nq", Json::Num(NQ as f64)),
            ("freq", Json::Num(freq)),
        ])
    }

    /// Steps the design: a new amplitude and the next band-edge frequency.
    fn step(&mut self, rng: &mut Rng) -> (Json, Json) {
        self.amp = (self.amp * (1.0 + AMP_STEP * rng.range(-1.0, 1.0))).clamp(0.5, 2.0);
        let freq = if self.next_up {
            self.f_up *= FREQ_STEP;
            self.f_up
        } else {
            self.f_down /= FREQ_STEP;
            self.f_down
        };
        self.next_up = !self.next_up;
        (self.hb(), self.extract(freq))
    }
}

/// One designer's seeded request stream.
#[derive(Debug, Clone)]
pub struct Designer {
    rng: Rng,
    designs: Vec<Design>,
    /// The slot the next new design replaces.
    oldest: usize,
    iter: u64,
    new_at: u64,
}

/// One iteration's two requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    /// The `hb` request.
    pub hb: Json,
    /// The `extract` request.
    pub extract: Json,
    /// Whether this iteration starts a new design.
    pub new_design: bool,
}

impl Designer {
    /// Designer `conn` of `seed`, with its resident designs drawn.
    pub fn new(seed: u64, conn: usize) -> Designer {
        let mut rng = Rng::new(seed, 1 + conn as u64);
        let designs = (0..RESIDENT).map(|_| Design::draw(&mut rng)).collect();
        Designer { rng, designs, oldest: 0, iter: 0, new_at: 0 }
    }

    /// The requests that make every resident design resident: its cold
    /// first pair, then one warm step.
    pub fn population(&mut self) -> Vec<Json> {
        let mut out = Vec::with_capacity(4 * RESIDENT);
        for d in &mut self.designs {
            out.push(d.hb());
            out.push(d.extract(d.f_up));
            let (hb, ex) = d.step(&mut self.rng);
            out.push(hb);
            out.push(ex);
        }
        out
    }

    /// The next iteration. Exactly one iteration in every block of
    /// [`NEW_DESIGN_EVERY`] (at a seeded position) starts a new design,
    /// which replaces the oldest one; the rest step a random resident
    /// design. Replacing the oldest bounds every design's life to
    /// `RESIDENT × NEW_DESIGN_EVERY` iterations, so the state a design
    /// accumulates (surrogate samples) and the cost of its warm requests
    /// do not grow with the length of the run.
    pub fn next_iteration(&mut self) -> Iteration {
        let pos = self.iter % NEW_DESIGN_EVERY as u64;
        if pos == 0 {
            self.new_at = self.rng.below(NEW_DESIGN_EVERY) as u64;
        }
        self.iter += 1;
        if pos == self.new_at {
            let d = Design::draw(&mut self.rng);
            let it = Iteration { hb: d.hb(), extract: d.extract(d.f_up), new_design: true };
            self.designs[self.oldest] = d;
            self.oldest = (self.oldest + 1) % RESIDENT;
            it
        } else {
            let slot = self.rng.below(RESIDENT);
            let (hb, extract) = self.designs[slot].step(&mut self.rng);
            Iteration { hb, extract, new_design: false }
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct RequestLog {
    kind: Kind,
    warm: bool,
    ms: f64,
    /// Midpoint of the request on its connection's pace clock (s); 0
    /// without a pace.
    at: f64,
    req: Option<u64>,
    ok: bool,
    newton_iterations: f64,
    linear_iterations: f64,
}

/// A warm reply kept for the cold-server agreement check.
#[derive(Debug, Clone)]
struct AgreementSample {
    kind: Kind,
    request: Json,
    reply: Json,
    conn: usize,
    iteration: usize,
}

/// One connection's record of a timed phase.
#[derive(Debug, Default)]
struct ConnLog {
    requests: Vec<RequestLog>,
    /// Per iteration: whether both requests passed. Its latency is the
    /// sum of its two requests'.
    iterations: Vec<bool>,
    samples: Vec<AgreementSample>,
    /// The host pace, sampled between iterations (the untraced run's
    /// timed phase only).
    pace: Option<Pace>,
    /// With a pace, per iteration: its midpoint (s) and its wall time
    /// from start to end, client work and checks included (ms).
    cycles: Vec<(f64, f64)>,
}

/// What a whole timed phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    wall_s: f64,
    conns: Vec<ConnLog>,
    /// Iterations failing the cold-server agreement check: `(conn, iteration)`.
    disagreements: Vec<(usize, usize)>,
}

impl Phase {
    /// A phase whose `connections` sample the host pace between
    /// iterations, for the end-to-end metrics (see [`crate::pace`]).
    fn paced(connections: usize) -> Phase {
        let log = || ConnLog { pace: Some(Pace::new(PACE_READ_PASSES)), ..ConnLog::default() };
        Phase { conns: (0..connections).map(|_| log()).collect(), ..Phase::default() }
    }

    /// The factor converting a time measured on connection `conn` around
    /// `at` to the reference pace: 1 without a pace.
    fn factor(&self, conn: usize, at: f64) -> f64 {
        self.conns[conn].pace.as_ref().map_or(1.0, |p| p.factor(at))
    }

    fn iteration_ok(&self, conn: usize, i: usize) -> bool {
        self.conns[conn].iterations[i] && !self.disagreements.contains(&(conn, i))
    }

    fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.iterations.len() as u64).sum()
    }

    fn failed(&self) -> u64 {
        (0..self.conns.len())
            .flat_map(|c| (0..self.conns[c].iterations.len()).map(move |i| (c, i)))
            .filter(|&(c, i)| !self.iteration_ok(c, i))
            .count() as u64
    }

    /// Latencies of passing iterations (ms), each the sum of its two
    /// requests' latencies; at the reference pace in a paced phase.
    fn iteration_latencies(&self) -> Vec<f64> {
        let mut v = Vec::new();
        for (c, log) in self.conns.iter().enumerate() {
            for (i, pair) in log.requests.chunks_exact(2).enumerate() {
                if self.iteration_ok(c, i) {
                    v.push(pair.iter().map(|r| r.ms * self.factor(c, r.at)).sum());
                }
            }
        }
        v
    }

    /// Latencies of passing requests of one class; at the reference pace
    /// in a paced phase.
    fn class(&self, kind: Kind, warm: bool) -> Vec<f64> {
        let mut v = Vec::new();
        for (c, log) in self.conns.iter().enumerate() {
            for r in log.requests.iter().filter(|r| r.ok && r.kind == kind && r.warm == warm) {
                v.push(r.ms * self.factor(c, r.at));
            }
        }
        v
    }

    /// Completed iterations per second of phase wall time.
    fn ops_per_s(&self) -> f64 {
        self.iteration_latencies().len() as f64 / self.wall_s
    }

    /// Completed iterations per second of the iterations' own wall time
    /// (client work and checks included, pace samples left out) at the
    /// reference pace. Only for a paced phase.
    fn paced_ops_per_s(&self) -> f64 {
        let mut ms = 0.0;
        for (c, log) in self.conns.iter().enumerate() {
            ms += log.cycles.iter().map(|&(t, cycle)| cycle * self.factor(c, t)).sum::<f64>();
        }
        self.iteration_latencies().len() as f64 / (ms / 1e3)
    }

    /// Median pace sample (ms) of the first connection; 0 without a pace.
    fn pace_ms(&self) -> f64 {
        self.conns.first().and_then(|c| c.pace.as_ref()).map_or(0.0, Pace::median_ms)
    }
}

/// Requests per class each connection must complete, so the pooled
/// classes support the percentiles reported on them.
fn class_minimum(warm: bool) -> usize {
    let q = if warm { 0.9 } else { 0.5 };
    min_samples(q).div_ceil(CONNECTIONS)
}

fn counts_met(log: &ConnLog) -> bool {
    let count =
        |kind, warm| log.requests.iter().filter(|r| r.kind == kind && r.warm == warm).count();
    let iters = min_samples(0.9).div_ceil(CONNECTIONS);
    log.iterations.len() >= iters
        && [Kind::Hb, Kind::Extract].iter().all(|&k| {
            count(k, true) >= class_minimum(true) && count(k, false) >= class_minimum(false)
        })
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn result_num(reply: &Json, name: &str) -> f64 {
    num(reply.get("result").and_then(|r| r.get(name)))
}

/// A reply's `ok` flag and physical bounds for its kind: a clipper's
/// output never exceeds its drive, and a spiral's π-model elements are
/// positive and of on-chip magnitude.
fn check_reply(kind: Kind, request: &Json, reply: &Json) -> Result<(), String> {
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("reply not ok: {}", reply.to_string_compact()));
    }
    let within = |name: &str, lo: f64, hi: f64| {
        let v = result_num(reply, name);
        if v.is_finite() && v > lo && v <= hi {
            Ok(())
        } else {
            Err(format!("{name} = {v:e} outside ({lo:e}, {hi:e}]"))
        }
    };
    match kind {
        Kind::Hb => {
            let amp = num(request.get("amp"));
            within("vout_h1", 0.0, amp)?;
            within("vout_dc", -amp, amp)?;
            within("vout_h2", -amp, amp)?;
            within("newton_iterations", -1.0, 1e3)?;
            within("unknowns", 0.0, 1e6)
        }
        Kind::Extract => {
            within("l_series", 0.0, 1e-6)?;
            within("r_dc", 0.0, 1e3)?;
            within("c_ox", 0.0, 1e-10)?;
            within("r_sub", 0.0, 1e9)?;
            within("f_skin", 0.0, 1e15)
        }
    }
}

/// Compares a warm reply with a fresh server's cold answer to the same
/// request: HB voltages to [`HB_AGREE_V`]; extraction values to
/// [`EXTRACT_AGREE_TOL`] relative, or the surrogate tolerance when the
/// surrogate served the warm answer.
fn agrees(kind: Kind, warm: &Json, cold: &Json) -> Result<(), String> {
    let (fields, tol): (&[&str], f64) = match kind {
        Kind::Hb => (&["vout_dc", "vout_h1", "vout_h2"], HB_AGREE_V),
        Kind::Extract => {
            let hits = num(warm
                .get("telemetry")
                .and_then(|t| t.get("sweep"))
                .and_then(Json::as_arr)
                .and_then(|s| s.first())
                .and_then(|p| p.get("counters"))
                .and_then(|c| c.get("surrogate.hits")));
            let tol = if hits > 0.0 { EXTRACT_SURROGATE_TOL } else { EXTRACT_AGREE_TOL };
            (&["l_series", "r_dc", "c_ox", "r_sub", "f_skin"], tol)
        }
    };
    for name in fields {
        let (w, c) = (result_num(warm, name), result_num(cold, name));
        // HB bounds are absolute volts; extraction bounds are relative.
        let scale = match kind {
            Kind::Hb => 1.0,
            Kind::Extract => c.abs().max(f64::MIN_POSITIVE),
        };
        let err = (w - c).abs();
        if err.is_nan() || err > tol * scale {
            return Err(format!("{name}: warm {w:e} vs cold {c:e} (tol {tol:e})"));
        }
    }
    Ok(())
}

fn call(client: &mut Client, request: &Json) -> Result<Json, String> {
    client.call(request).map_err(|e| e.to_string())
}

fn kind_of(request: &Json) -> Kind {
    if request.get("op").and_then(Json::as_str) == Some("hb") {
        Kind::Hb
    } else {
        Kind::Extract
    }
}

/// Spawns a server with this workload's configuration.
fn spawn(access_log: Option<PathBuf>) -> Result<Server, String> {
    Server::spawn(ServerConfig {
        workers: WORKERS,
        cache_budget_bytes: CACHE_BUDGET,
        access_log,
        ..Default::default()
    })
    .map_err(|e| format!("spawning server: {e}"))
}

/// Makes the resident designs of `count` designers resident on `addr`,
/// one connection per designer, and returns the designers ready to
/// iterate.
fn populate(addr: SocketAddr, seed: u64, count: usize) -> Result<Vec<Designer>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..count)
            .map(|conn| {
                s.spawn(move || -> Result<Designer, String> {
                    let mut designer = Designer::new(seed, conn);
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for request in designer.population() {
                        let reply = call(&mut client, &request)?;
                        check_reply(kind_of(&request), &request, &reply)
                            .map_err(|e| format!("population: {e}"))?;
                    }
                    Ok(designer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("population thread panicked")).collect()
    })
}

/// How long a connection keeps iterating.
#[derive(Debug, Clone, Copy)]
struct Until {
    seconds: f64,
    /// Also until the class counts support the reported percentiles.
    counts: bool,
    /// Also until the connection's log holds this many iterations.
    iterations: usize,
}

impl Until {
    fn running(&self, start: Instant, log: &ConnLog) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed < self.seconds
            || (self.counts && !counts_met(log) && elapsed < self.seconds + MAX_EXTRA_S)
            || log.iterations.len() < self.iterations
    }
}

/// One connection's closed loop, appending to `log`.
fn drive(
    addr: SocketAddr,
    designer: &mut Designer,
    log: &mut ConnLog,
    conn: usize,
    until: Until,
    traced: bool,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let start = Instant::now();
    while until.running(start, log) {
        let it = designer.next_iteration();
        let index = log.iterations.len();
        let keep = (index as u64).is_multiple_of(SAMPLE_EVERY);
        let mut all_ok = true;
        let began = (Instant::now(), log.pace.as_ref().map_or(0.0, Pace::now));
        for request in [&it.hb, &it.extract] {
            let kind = kind_of(request);
            let at = log.pace.as_ref().map_or(0.0, Pace::now);
            let t0 = Instant::now();
            let reply = {
                let _s = traced.then(|| {
                    telemetry::span(if kind == Kind::Hb {
                        span::SERVE_HB
                    } else {
                        span::SERVE_EXTRACT
                    })
                });
                call(&mut client, request)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            // A transport error leaves the connection unusable.
            let reply = reply.map_err(|e| format!("connection {conn} iteration {index}: {e}"))?;
            let ok = match check_reply(kind, request, &reply) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("connection {conn} iteration {index}: {e}");
                    false
                }
            };
            all_ok &= ok;
            let warm = reply.get("warm") == Some(&Json::Bool(true));
            if keep && ok && warm {
                let kept = log.samples.iter().filter(|s| s.kind == kind).count();
                if kept < SAMPLES_PER_KIND {
                    log.samples.push(AgreementSample {
                        kind,
                        request: request.clone(),
                        reply: reply.clone(),
                        conn,
                        iteration: index,
                    });
                }
            }
            log.requests.push(RequestLog {
                kind,
                warm,
                ms,
                at: at + ms / 2e3,
                req: reply.get("req").and_then(Json::as_f64).map(|r| r as u64),
                ok,
                newton_iterations: result_num(&reply, "newton_iterations"),
                linear_iterations: result_num(&reply, "linear_iterations"),
            });
        }
        log.iterations.push(all_ok);
        if let Some(pace) = &mut log.pace {
            let cycle_ms = began.0.elapsed().as_secs_f64() * 1e3;
            log.cycles.push((began.1 + cycle_ms / 2e3, cycle_ms));
            pace.tick();
        }
    }
    Ok(())
}

impl Phase {
    /// Runs one connection per designer against `server`, appending to
    /// this phase.
    fn run_chunk(
        &mut self,
        server: &Server,
        designers: &mut [Designer],
        until: Until,
        traced: bool,
    ) -> Result<(), String> {
        let addr = server.addr();
        self.conns.resize_with(designers.len(), ConnLog::default);
        let start = Instant::now();
        let done: Result<(), String> = std::thread::scope(|s| {
            let handles: Vec<_> = designers
                .iter_mut()
                .zip(self.conns.iter_mut())
                .enumerate()
                .map(|(conn, (d, log))| s.spawn(move || drive(addr, d, log, conn, until, traced)))
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("client thread panicked"))
        });
        self.wall_s += start.elapsed().as_secs_f64();
        done
    }

    /// Checks every kept warm reply against a fresh server's cold answer
    /// to the same request; a disagreement fails its iteration.
    fn verify(&mut self) -> Result<(), String> {
        let samples: Vec<AgreementSample> =
            self.conns.iter().flat_map(|c| c.samples.clone()).collect();
        for sample in samples {
            let fresh = Server::spawn(ServerConfig { workers: 1, ..Default::default() })
                .map_err(|e| format!("spawning verification server: {e}"))?;
            let mut client = Client::connect(fresh.addr()).map_err(|e| e.to_string())?;
            let cold = call(&mut client, &sample.request)?;
            drop(client);
            fresh.shutdown();
            if let Err(e) = check_reply(sample.kind, &sample.request, &cold)
                .and_then(|()| agrees(sample.kind, &sample.reply, &cold))
            {
                eprintln!(
                    "connection {} iteration {}: warm reply disagrees with a cold server: {e}",
                    sample.conn, sample.iteration
                );
                self.disagreements.push((sample.conn, sample.iteration));
            }
        }
        Ok(())
    }
}

/// Set-up: server spawn (with `access_log` on traced runs), the burn-in
/// (see [`burn_in`]), then the population of every resident design and
/// one warm step of each.
fn setup(seed: u64, access_log: Option<PathBuf>) -> Result<(Server, Vec<Designer>), String> {
    let server = spawn(access_log)?;
    match burn_in(&server, !seed).and_then(|()| populate(server.addr(), seed, CONNECTIONS)) {
        Ok(designers) => Ok((server, designers)),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// A set-up probe: server spawn and population, as [`setup`] does them.
/// The burn-in is left out: it is not set-up a user pays, only the
/// benchmark's way to bring the daemon to a long-running one's state.
///
/// # Errors
/// A failing population request.
pub fn probe(seed: u64) -> Result<(), String> {
    let server = spawn(None)?;
    let populated = populate(server.addr(), seed, CONNECTIONS);
    if populated.is_ok() {
        crate::setup::ready();
    }
    server.shutdown();
    populated.map(drop)
}

/// Runs [`BURN_IN_ITERATIONS`] iterations of throwaway designers (drawn
/// from `seed`) against `server`, which fills the process's
/// convergence-trace buffer to its cap of `MAX_TRACES` and makes both
/// warm caches evict. The daemon snapshots all recorded telemetry around
/// every job, so each job costs more as the buffer fills: warm
/// extractions take about 2 ms on a fresh process and about 10 ms once
/// it is full. Likewise memory grows until the caches are full. A
/// long-running daemon is past both; the timed phase measures that
/// state, not the fill.
fn burn_in(server: &Server, seed: u64) -> Result<(), String> {
    let mut designers = populate(server.addr(), seed, BURN_IN_CONNECTIONS)?;
    let mut phase = Phase::default();
    let until = Until { seconds: 0.0, counts: false, iterations: BURN_IN_ITERATIONS };
    phase.run_chunk(server, &mut designers, until, false)?;
    match phase.failed() {
        0 => Ok(()),
        n => Err(format!("{n} burn-in iterations failed")),
    }
}

/// The whole run of `serve_loop`; `setup_s` is the untraced run's
/// measured set-up time.
///
/// # Errors
/// Set-up or transport failures and unsupported percentiles.
pub fn run(args: &Args, setup_s: Option<f64>) -> Result<Outcome, String> {
    match setup_s {
        Some(setup_s) => untraced(args, setup_s),
        None => traced(args),
    }
}

fn untraced(args: &Args, setup_s: f64) -> Result<Outcome, String> {
    let (server, mut designers) = setup(args.seed, None)?;
    let h0 = host::Sample::now();
    let mut phase = Phase::paced(designers.len());
    let outcome = phase
        .run_chunk(
            &server,
            &mut designers,
            Until { seconds: args.seconds, counts: true, iterations: 0 },
            false,
        )
        .and_then(|()| phase.verify())
        .and_then(|()| {
            let host = host::with_pace(
                host::describe(h0, host::Sample::now()),
                phase.pace_ms(),
                phase.ops_per_s(),
            );
            let metrics = end_to_end(&phase, setup_s)?;
            let n = |kind, warm| Json::Num(phase.class(kind, warm).len() as f64);
            let samples = Json::obj([
                ("iterations", Json::Num(phase.iteration_latencies().len() as f64)),
                ("hb_warm", n(Kind::Hb, true)),
                ("hb_cold", n(Kind::Hb, false)),
                ("extract_warm", n(Kind::Extract, true)),
                ("extract_cold", n(Kind::Extract, false)),
            ]);
            Ok(Outcome {
                attempted: phase.attempted(),
                failed: phase.failed(),
                metrics,
                host,
                samples,
            })
        });
    server.shutdown();
    outcome
}

/// The traced run, on a set-up server whose access log is on.
fn traced(args: &Args) -> Result<Outcome, String> {
    let log_path = access_log_path();
    let measured = setup(args.seed, Some(log_path.clone())).and_then(|(server, mut designers)| {
        let h0 = host::Sample::now();
        let run = TracedRun::measure(args.seconds, &server, &mut designers);
        server.shutdown();
        run.map(|run| (run, host::describe(h0, host::Sample::now())))
    });
    let access = std::fs::read_to_string(&log_path)
        .map_err(|e| format!("reading {}: {e}", log_path.display()));
    let _ = std::fs::remove_file(&log_path);
    // Leaves no trace in the checkout once no other run is using it.
    if let Some(dir) = log_path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
    let (mut t, host) = measured?;
    t.layers.set("serve.wire_ms_p50", wire_p50(&t.phase, &access?)?);
    Ok(Outcome {
        attempted: t.untraced.attempted() + t.phase.attempted(),
        failed: t.untraced.failed() + t.phase.failed(),
        samples: Json::obj([
            ("untraced_iterations", Json::Num(t.untraced.iteration_latencies().len() as f64)),
            ("traced_iterations", Json::Num(t.phase.iteration_latencies().len() as f64)),
        ]),
        metrics: t.layers.into_metrics(),
        host,
    })
}

/// The end-to-end metrics of a paced untraced phase, at the reference
/// pace.
fn end_to_end(phase: &Phase, setup_s: f64) -> Result<Vec<crate::Metric>, String> {
    let iters = phase.iteration_latencies();
    let class = |kind, warm, q, what| percentile(&phase.class(kind, warm), q, what);
    Ok(crate::end_to_end_metrics(EndToEnd {
        setup_s,
        ops_per_s: phase.paced_ops_per_s(),
        op_p50_ms: percentile(&iters, 0.5, "iteration latency")?,
        op_p90_ms: percentile(&iters, 0.9, "iteration latency")?,
        peak_rss_mb: host::peak_rss_mib()?,
        hb_warm: (class(Kind::Hb, true, 0.5, "hb warm")?, class(Kind::Hb, true, 0.9, "hb warm")?),
        hb_cold_p50_ms: class(Kind::Hb, false, 0.5, "hb cold")?,
        extract_warm: (
            class(Kind::Extract, true, 0.5, "extract warm")?,
            class(Kind::Extract, true, 0.9, "extract warm")?,
        ),
        extract_cold_p50_ms: class(Kind::Extract, false, 0.5, "extract cold")?,
    }))
}

/// A traced run: on one server, untraced chunks alternate with traced
/// chunks, which open the benchmark's client spans around each request.
/// Telemetry and the access log record throughout (`Server::spawn`
/// forces telemetry on); only the traced chunks' share is read.
pub struct TracedRun {
    untraced: Phase,
    phase: Phase,
    layers: Layers,
    /// Per-class request counts over each connection's leading
    /// [`EXACT_OPS`] traced iterations: `(kind, warm) → count`. The
    /// self-tests compare them across runs.
    #[cfg_attr(not(test), allow(dead_code))]
    leading_classes: ClassCounts,
}

/// Requests per `(kind, warm)` class.
pub type ClassCounts = BTreeMap<(Kind, bool), usize>;

/// A small traced run's exact figures: the per-class counts of each
/// connection's leading iterations, and their mean HB Newton and GMRES
/// iterations.
#[cfg(test)]
pub fn leading_counts(seed: u64, seconds: f64) -> Result<(ClassCounts, f64, f64), String> {
    let server = spawn(None)?;
    let mut designers = populate(server.addr(), seed, CONNECTIONS)?;
    let run = TracedRun::measure(seconds, &server, &mut designers);
    server.shutdown();
    let run = run?;
    let newton = run.layers.get("steady.hb.newton_iters");
    let gmres = run.layers.get("steady.hb.gmres_iters");
    Ok((run.leading_classes, newton, gmres))
}

impl TracedRun {
    /// Runs `seconds` of alternating chunks of `designers` on `server`.
    ///
    /// # Errors
    /// Transport failures, an unreadable `metrics` reply.
    pub fn measure(
        seconds: f64,
        server: &Server,
        designers: &mut [Designer],
    ) -> Result<TracedRun, String> {
        let (mut untraced, mut phase) = (Phase::default(), Phase::default());
        let mut recorded = Recorded::default();
        let mut hist: BTreeMap<String, Histogram> = BTreeMap::new();
        let (mut hb, mut em) = (CacheStats::default(), CacheStats::default());
        let misses0 = rfsim_numerics::fft::plan_cache_stats().misses;
        for traced_chunk in chunk_order() {
            let chunk =
                Until { seconds: seconds / TRACE_CHUNKS as f64, counts: false, iterations: 0 };
            if !traced_chunk {
                untraced.run_chunk(server, designers, chunk, false)?;
                continue;
            }
            let before = telemetry::snapshot();
            let h_before = metrics_histograms(server)?;
            let (hb0, em0) = server.cache_stats();
            // The exact counts need the designer's leading iterations,
            // which the first (traced) chunk runs.
            let chunk = Until { iterations: EXACT_OPS, ..chunk };
            phase.run_chunk(server, designers, chunk, true)?;
            let (hb1, em1) = server.cache_stats();
            let h_after = metrics_histograms(server)?;
            recorded.add(&before, &telemetry::snapshot());
            for (name, h) in &h_after {
                let d = h_before.get(name).map_or_else(|| h.clone(), |b| h.delta(b));
                hist.entry(name.clone()).or_default().merge(&d);
            }
            add_cache_delta(&mut hb, hb0, hb1);
            add_cache_delta(&mut em, em0, em1);
        }
        let plan_misses = rfsim_numerics::fft::plan_cache_stats().misses - misses0;
        untraced.verify()?;
        phase.verify()?;

        let iterations = phase.iteration_latencies().len();
        let mut layers = Layers::from_recorded(&recorded, iterations);
        let hist_p50 = |name: &str| hist.get(name).map_or(0.0, Histogram::p50);
        layers.set("serve.queue_ms_p50", hist_p50("serve.latency.queue_ms"));
        layers.set("serve.exec_ms_p50", hist_p50("serve.latency.exec_ms"));
        let ratio = |c: CacheStats| c.hits as f64 / ((c.hits + c.misses) as f64).max(1.0);
        layers.set("serve.cache.hb.hit_ratio", ratio(hb));
        layers.set("serve.cache.em.hit_ratio", ratio(em));
        layers.set("serve.cache.evictions", (hb.evictions + em.evictions) as f64);
        layers.set("numerics.fft.plan_misses", plan_misses as f64);
        // As on the library workloads: means of the iterations' own time.
        let slowdown = mean(&phase.iteration_latencies()) / mean(&untraced.iteration_latencies());
        layers.set("telemetry.overhead_pct", (slowdown - 1.0) * 100.0);

        // Exact counts: the designer's leading iterations, which it
        // issues in a fixed order.
        let mut samples = Samples::default();
        let mut leading_classes = BTreeMap::new();
        for log in &phase.conns {
            for r in log.requests.iter().take(2 * EXACT_OPS) {
                *leading_classes.entry((r.kind, r.warm)).or_insert(0) += 1;
                if r.kind == Kind::Hb {
                    samples.push("steady.hb.newton_iters", r.newton_iterations);
                    samples.push("steady.hb.gmres_iters", r.linear_iterations);
                }
            }
        }
        layers.take_samples(&samples);
        let iteration_ms: f64 = phase.iteration_latencies().iter().sum();
        let client_ms = span_total(&recorded.spans, span::SERVE_HB).0
            + span_total(&recorded.spans, span::SERVE_EXTRACT).0;
        layers.set("bench.layer_coverage_pct", client_ms / iteration_ms * 100.0);
        Ok(TracedRun { untraced, phase, layers, leading_classes })
    }
}

/// Adds the counts `before` to `after` to `acc`.
fn add_cache_delta(acc: &mut CacheStats, before: CacheStats, after: CacheStats) {
    acc.hits += after.hits - before.hits;
    acc.misses += after.misses - before.misses;
    acc.evictions += after.evictions - before.evictions;
}

/// Where the traced run's server writes its access log: inside this
/// crate's directory, unique per process.
fn access_log_path() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".runs");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("access-{}.jsonl", std::process::id()))
}

/// The daemon's histograms, read through its `metrics` op.
fn metrics_histograms(server: &Server) -> Result<BTreeMap<String, Histogram>, String> {
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let reply = call(&mut client, &Json::obj([("op", Json::Str("metrics".into()))]))?;
    let result = reply.get("result").ok_or("metrics reply has no result")?;
    telemetry::Snapshot::histograms_from_json(result)
        .ok_or_else(|| "unparseable metrics histograms".into())
}

/// Median of client latency minus the server's `total_ms` for the same
/// request, joined on the server-assigned request id.
fn wire_p50(phase: &Phase, access_log: &str) -> Result<f64, String> {
    let mut total_ms = BTreeMap::new();
    for line in access_log.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("access log line {line:?}: {e:?}"))?;
        if let (Some(req), Some(t)) =
            (rec.get("req").and_then(Json::as_f64), rec.get("total_ms").and_then(Json::as_f64))
        {
            total_ms.insert(req as u64, t);
        }
    }
    let wire: Vec<f64> = phase
        .conns
        .iter()
        .flat_map(|c| &c.requests)
        .filter_map(|r| r.req.and_then(|id| total_ms.get(&id)).map(|t| r.ms - t))
        .collect();
    percentile(&wire, 0.5, "wire time")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designers_repeat_per_seed_and_differ_across_seeds() {
        let stream = |seed, conn| {
            let mut d = Designer::new(seed, conn);
            let mut v = d.population();
            for _ in 0..40 {
                let it = d.next_iteration();
                v.push(it.hb);
                v.push(it.extract);
            }
            v
        };
        assert_eq!(stream(11, 0), stream(11, 0));
        assert_ne!(stream(11, 0), stream(11, 1));
        assert_ne!(stream(11, 0), stream(12, 0));
        let mut d = Designer::new(11, 0);
        let new = (0..8 * NEW_DESIGN_EVERY).filter(|_| d.next_iteration().new_design).count();
        assert_eq!(new, 8, "exactly one new design per block");
    }

    #[test]
    fn corrupted_replies_fail_the_checks() {
        let design = Design::draw(&mut Rng::new(1, 1));
        let request = design.hb();
        let reply = Json::parse(
            r#"{"ok":true,"warm":true,"result":{"vout_dc":1e-12,"vout_h1":0.6,"vout_h2":2e-13,
               "newton_iterations":3,"linear_iterations":9,"unknowns":147}}"#,
        )
        .unwrap();
        assert!(check_reply(Kind::Hb, &request, &reply).is_ok());
        let too_big = Json::parse(
            r#"{"ok":true,"result":{"vout_dc":0,"vout_h1":9.0,"vout_h2":0,
               "newton_iterations":3,"unknowns":147}}"#,
        )
        .unwrap();
        assert!(check_reply(Kind::Hb, &request, &too_big).is_err());
        let not_ok = Json::parse(r#"{"ok":false,"error":{"kind":"solver"}}"#).unwrap();
        assert!(check_reply(Kind::Hb, &request, &not_ok).is_err());
        let mut drifted = reply.clone();
        if let Some(Json::Obj(r)) = match &mut drifted {
            Json::Obj(m) => m.get_mut("result"),
            _ => None,
        } {
            r.insert("vout_h1".into(), Json::Num(0.6 + 1e-5));
        }
        assert!(agrees(Kind::Hb, &reply, &reply).is_ok());
        assert!(agrees(Kind::Hb, &drifted, &reply).is_err());
    }
}
