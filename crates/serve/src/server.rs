//! The TCP front of the service (DESIGN.md §13.1): one accept loop,
//! one thread per connection, jobs funneled through the bounded
//! [`Scheduler`] into the shared [`Engine`]. Requests on a connection
//! are answered in order; clients wanting concurrency open more
//! connections (the load generator does exactly that).

use crate::engine::{Engine, JobOutcome};
use crate::observability::{unix_ms_now, AccessLog, FlightRecorder, RequestRecord};
use crate::protocol::{error_response, ok_response, parse_request, Envelope, ErrorKind, Request};
use crate::scheduler::{Reject, Scheduler, SchedulerStats};
use crate::wire::{read_frame, write_frame, FrameError, MAX_JSON_DEPTH};
use rfsim_observe::SweepMode;
use rfsim_telemetry::{self as telemetry, Json};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long teardown waits, once the job queue has drained, for replies
/// still being written. The bound keeps a client that goes on sending
/// frames during teardown from holding the server open.
const REPLY_DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the default, for tests).
    pub addr: String,
    /// Worker threads; 0 means the `RFSIM_THREADS` resolution.
    pub workers: usize,
    /// Admission limit: queued (not yet running) jobs beyond this are
    /// rejected with `overloaded`.
    pub queue_capacity: usize,
    /// Combined warm-cache byte budget (split across the caches).
    pub cache_budget_bytes: usize,
    /// If set, every job's telemetry artifact is also written here as
    /// `job-<req>.json` (the response carries it regardless).
    pub artifact_dir: Option<PathBuf>,
    /// If set, every request is appended as one JSON line (the
    /// [`RequestRecord`] shape) to this file.
    pub access_log: Option<PathBuf>,
    /// Flight-recorder depth: the last N request records retained in
    /// memory for the `dump` op and the automatic panic dump.
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_budget_bytes: 64 << 20,
            artifact_dir: None,
            access_log: None,
            flight_capacity: 128,
        }
    }
}

struct Shared {
    engine: Engine,
    scheduler: Scheduler,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    artifact_dir: Option<PathBuf>,
    flight: FlightRecorder,
    access: Option<AccessLog>,
    req_seq: AtomicU64,
    stopping: AtomicBool,
    /// Set the moment an `op:"shutdown"` request parses — strictly
    /// before its reply is written, unlike `stop` (see `handle_conn`).
    shutdown_seen: AtomicBool,
    /// Frames in hand: counted from `read_frame` returning a frame until
    /// `write_frame` returns its reply, so teardown can wait for drained
    /// jobs' replies to reach the wire before it closes the sockets.
    frames_in_flight: AtomicUsize,
}

/// A running service instance. Spawn with [`Server::spawn`], stop with
/// [`Server::shutdown`] (drains accepted jobs before returning).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns.
    /// Forces telemetry on (`Report`) when it is off, as the counters
    /// in job artifacts are part of the protocol contract.
    ///
    /// # Errors
    /// Socket bind or access-log open failures.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        if telemetry::mode() == telemetry::Mode::Off {
            telemetry::set_mode(telemetry::Mode::Report);
        }
        let cold = SweepMode::from_env() == SweepMode::Cold;
        let workers =
            if config.workers == 0 { rfsim_parallel::thread_count() } else { config.workers };
        let access = config.access_log.as_deref().map(AccessLog::open).transpose()?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Engine::new(config.cache_budget_bytes, cold),
            scheduler: Scheduler::new(workers, config.queue_capacity),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            artifact_dir: config.artifact_dir,
            flight: FlightRecorder::new(config.flight_capacity),
            access,
            req_seq: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            shutdown_seen: AtomicBool::new(false),
            frames_in_flight: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rfsim-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server { addr, shared, accept: Some(accept) })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scheduler statistics (queue depth, rejections, ...).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.shared.scheduler.stats()
    }

    /// Cache statistics: (harmonic balance, extraction).
    pub fn cache_stats(&self) -> (crate::cache::CacheStats, crate::cache::CacheStats) {
        self.shared.engine.cache_stats()
    }

    /// Whether a client asked the server to stop (`op:"shutdown"`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_seen.load(Ordering::Acquire) || *lock(&self.shared.stop)
    }

    /// Parks until a client requests shutdown, then tears down. The
    /// daemon binary's main loop.
    pub fn run_until_shutdown(self) {
        {
            let mut stop = lock(&self.shared.stop);
            while !*stop {
                stop = self
                    .shared
                    .stop_cv
                    .wait(stop)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.shutdown();
    }

    /// Orderly teardown: stop accepting connections, stop admitting
    /// jobs, drain every accepted job, then close connections and join
    /// all threads. Accepted jobs are never lost.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        *lock(&self.shared.stop) = true;
        self.shared.stop_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Drain: everything admitted runs to completion and its
        // connection thread gets to write the response. A job is done
        // when its closure returns, before the reply is written, so also
        // wait (bounded) until no frame is left unanswered.
        self.shared.scheduler.shutdown();
        let deadline = Instant::now() + REPLY_DRAIN_TIMEOUT;
        while self.shared.frames_in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Now unblock connection threads parked in read_frame.
        for s in lock(&self.shared.conns).drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = lock(&self.shared.conn_threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).push(clone);
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("rfsim-serve-conn".to_string())
            .spawn(move || handle_conn(stream, &conn_shared));
        match handle {
            Ok(h) => lock(&shared.conn_threads).push(h),
            Err(e) => eprintln!("rfsim-serve: spawn connection thread: {e}"),
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        match read_frame(&mut stream) {
            Ok(None) => break, // clean EOF
            Ok(Some(payload)) => {
                shared.frames_in_flight.fetch_add(1, Ordering::SeqCst);
                telemetry::counter_add("serve.requests", 1);
                let (reply, close) = process_frame(shared, &payload);
                let written = write_frame(&mut stream, reply.to_string_compact().as_bytes());
                shared.frames_in_flight.fetch_sub(1, Ordering::SeqCst);
                if written.is_err() {
                    break;
                }
                if close {
                    // A `shutdown` request: its reply is on the wire,
                    // so it is now safe to wake `run_until_shutdown`
                    // and let teardown close the sockets.
                    *lock(&shared.stop) = true;
                    shared.stop_cv.notify_all();
                    break;
                }
            }
            Err(FrameError::Oversized { announced }) => {
                // Protocol violation: answer, then drop the connection —
                // the framing can no longer be trusted.
                let reply = error_response(
                    None,
                    ErrorKind::BadRequest,
                    &format!("oversized frame ({announced} bytes)"),
                );
                let _ = write_frame(&mut stream, reply.to_string_compact().as_bytes());
                break;
            }
            Err(_) => break, // truncated stream or socket error
        }
    }
    // The accept loop keeps a clone of this stream for shutdown; an
    // explicit shutdown here (not just the drop) is what delivers the
    // clean EOF the client is promised.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Turns one frame into (reply, close-connection?). Never panics on
/// attacker-controlled payloads: every malformation maps to
/// `bad_request` and the connection survives.
fn process_frame(shared: &Arc<Shared>, payload: &[u8]) -> (Json, bool) {
    let t_recv = Instant::now();
    let Ok(text) = std::str::from_utf8(payload) else {
        return (error_response(None, ErrorKind::BadRequest, "frame is not UTF-8"), false);
    };
    if !crate::wire::depth_within(payload, MAX_JSON_DEPTH) {
        let msg = format!("JSON nesting exceeds {MAX_JSON_DEPTH} levels");
        return (error_response(None, ErrorKind::BadRequest, &msg), false);
    }
    let value = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            let msg = format!("invalid JSON: {e:?}");
            return (error_response(None, ErrorKind::BadRequest, &msg), false);
        }
    };
    // Pull the id out even when the request is otherwise invalid, so
    // pipelining clients can correlate the failure.
    let id = value.get("id").and_then(Json::as_f64);
    let env = match parse_request(&value) {
        Ok(env) => env,
        Err(msg) => return (error_response(id, ErrorKind::BadRequest, &msg), false),
    };
    let req_id = shared.req_seq.fetch_add(1, Ordering::Relaxed);
    let op = op_name(&env.req);
    let (mut reply, close, timing) = match env.req {
        Request::Ping => (
            ok_response(env.id, "ping", false, Json::obj([("pong", Json::Bool(true))]), Json::Null),
            false,
            None,
        ),
        Request::Stats => (stats_response(shared, &env), false, None),
        Request::Metrics => (metrics_response(shared, &env), false, None),
        Request::Dump => {
            let result = shared.flight.to_json();
            (ok_response(env.id, "dump", false, result, Json::Null), false, None)
        }
        Request::Shutdown => {
            // Only record the request here; the stop condvar is
            // signalled by the connection loop AFTER this reply is on
            // the wire — signalling now would race teardown's socket
            // shutdown against our own write and could cut the reply
            // off.
            shared.shutdown_seen.store(true, Ordering::Release);
            let result = Json::obj([("stopping", Json::Bool(true))]);
            (ok_response(env.id, "shutdown", false, result, Json::Null), true, None)
        }
        ref
        req @ (Request::Sleep { .. } | Request::Hb(_) | Request::Extract(_) | Request::Panic) => {
            let (reply, timing) = run_job(shared, req_id, env.id, req);
            (reply, false, Some(timing))
        }
    };
    finish_request(shared, req_id, env.id, op, t_recv, timing, &mut reply);
    (reply, close)
}

fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Dump => "dump",
        Request::Panic => "panic",
        Request::Shutdown => "shutdown",
        Request::Sleep { .. } => "sleep",
        Request::Hb(_) => "hb",
        Request::Extract(_) => "extract",
    }
}

/// Queue/exec latency split of a completed job (inline ops have none:
/// their execution is the whole request).
struct Timing {
    queue_ms: f64,
    exec_ms: f64,
}

/// What a worker hands back over the response channel.
enum WorkerResult {
    Done { outcome: JobOutcome, queue_ms: f64 },
    Panicked { queue_ms: f64, exec_ms: f64 },
}

fn run_job(shared: &Arc<Shared>, req_id: u64, id: Option<f64>, req: &Request) -> (Json, Timing) {
    let op = op_name(req);
    let (tx, rx) = mpsc::channel::<WorkerResult>();
    let job_shared = Arc::clone(shared);
    let job_req = req.clone();
    let enqueued = Instant::now();
    let submitted = shared.scheduler.submit(Box::new(move || {
        let queue_ms = enqueued.elapsed().as_secs_f64() * 1e3;
        let t_exec = Instant::now();
        // Contain worker panics: the worker thread survives, the client
        // gets a structured `solver` error, and the flight recorder is
        // dumped so the requests leading up to the crash are preserved.
        let ran = catch_unwind(AssertUnwindSafe(|| job_shared.engine.execute(&job_req)));
        let result = match ran {
            Ok(outcome) => {
                if let Some(dir) = &job_shared.artifact_dir {
                    let path = dir.join(format!("job-{req_id:06}.json"));
                    if let Err(e) = std::fs::write(&path, outcome.artifact.to_string_pretty()) {
                        eprintln!("rfsim-serve: writing {}: {e}", path.display());
                    }
                }
                WorkerResult::Done { outcome, queue_ms }
            }
            Err(_) => {
                telemetry::counter_add("serve.worker.panics", 1);
                let dir = job_shared.artifact_dir.clone().unwrap_or_else(|| PathBuf::from("."));
                let path = dir.join(format!("flight-panic-{req_id:06}.json"));
                match job_shared.flight.dump_to(&path) {
                    Ok(()) => eprintln!(
                        "rfsim-serve: worker panicked on req {req_id}; flight recorder dumped \
                         to {}",
                        path.display()
                    ),
                    Err(e) => eprintln!(
                        "rfsim-serve: worker panicked on req {req_id}; flight dump to {} \
                         failed: {e}",
                        path.display()
                    ),
                }
                WorkerResult::Panicked { queue_ms, exec_ms: t_exec.elapsed().as_secs_f64() * 1e3 }
            }
        };
        // The connection may have died while we ran; that only loses
        // the response, never the job.
        let _ = tx.send(result);
    }));
    let zero = Timing { queue_ms: 0.0, exec_ms: 0.0 };
    match submitted {
        Err(Reject::Overloaded) => {
            (error_response(id, ErrorKind::Overloaded, "job queue is full, retry later"), zero)
        }
        Err(Reject::ShuttingDown) => {
            (error_response(id, ErrorKind::ShuttingDown, "server is draining"), zero)
        }
        Ok(()) => match rx.recv() {
            Ok(WorkerResult::Done { outcome, queue_ms }) => {
                let timing = Timing { queue_ms, exec_ms: outcome.exec_seconds * 1e3 };
                let reply = match outcome.result {
                    Ok(result) => ok_response(id, op, outcome.warm, result, outcome.artifact),
                    Err((kind, msg)) => error_response(id, kind, &msg),
                };
                (reply, timing)
            }
            Ok(WorkerResult::Panicked { queue_ms, exec_ms }) => (
                error_response(
                    id,
                    ErrorKind::Solver,
                    "worker panicked executing the job (flight recorder dumped)",
                ),
                Timing { queue_ms, exec_ms },
            ),
            // Unreachable in practice: accepted jobs always run.
            Err(_) => {
                (error_response(id, ErrorKind::ShuttingDown, "job dropped during shutdown"), zero)
            }
        },
    }
}

/// Per-op latency histogram names (`histogram_record` wants `'static`).
fn op_latency_histogram(op: &str) -> Option<&'static str> {
    match op {
        "hb" => Some("serve.latency.hb.total_ms"),
        "extract" => Some("serve.latency.extract.total_ms"),
        "sleep" => Some("serve.latency.sleep.total_ms"),
        "panic" => Some("serve.latency.panic.total_ms"),
        _ => None,
    }
}

/// Closes out one request: stamps the request id into the reply,
/// records the latency histograms (job ops only — inline introspection
/// must not pollute the job latency distribution), and appends the
/// [`RequestRecord`] to the flight recorder and the access log.
fn finish_request(
    shared: &Arc<Shared>,
    req_id: u64,
    client_id: Option<f64>,
    op: &str,
    t_recv: Instant,
    timing: Option<Timing>,
    reply: &mut Json,
) {
    if let Json::Obj(m) = reply {
        m.insert("req".to_string(), Json::Num(req_id as f64));
    }
    let total_ms = t_recv.elapsed().as_secs_f64() * 1e3;
    let (queue_ms, exec_ms) = match &timing {
        Some(t) => (t.queue_ms, t.exec_ms),
        // Inline ops never queue; their execution is the whole request.
        None => (0.0, total_ms),
    };
    if timing.is_some() {
        telemetry::histogram_record("serve.latency.queue_ms", queue_ms);
        telemetry::histogram_record("serve.latency.exec_ms", exec_ms);
        telemetry::histogram_record("serve.latency.total_ms", total_ms);
        if let Some(name) = op_latency_histogram(op) {
            telemetry::histogram_record(name, total_ms);
        }
    }
    let outcome = match reply.get("ok") {
        Some(Json::Bool(true)) => "ok".to_string(),
        _ => reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("error")
            .to_string(),
    };
    let warm = matches!(reply.get("warm"), Some(Json::Bool(true)));
    let record = RequestRecord {
        req_id,
        client_id,
        op: op.to_string(),
        unix_ms: unix_ms_now(),
        queue_ms,
        exec_ms,
        total_ms,
        warm,
        outcome,
    };
    if let Some(log) = &shared.access {
        log.write(&record);
    }
    shared.flight.record(record);
}

/// The `metrics` op: refreshes the live serve gauges, then returns the
/// full counters/gauges/histograms snapshot alongside a Prometheus
/// text rendering of the same data.
fn metrics_response(shared: &Arc<Shared>, env: &Envelope) -> Json {
    let q = shared.scheduler.stats();
    telemetry::gauge_set("serve.queue.depth", q.depth as f64);
    telemetry::gauge_set("serve.inflight", q.active as f64);
    let snap = telemetry::snapshot();
    let result = Json::obj([
        (
            "counters",
            Json::Obj(
                snap.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(snap.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ),
        (
            "histograms",
            Json::Obj(snap.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
        ),
        ("prometheus", Json::Str(snap.render_prometheus())),
    ]);
    ok_response(env.id, "metrics", false, result, Json::Null)
}

fn cache_stats_json(s: crate::cache::CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("evictions", Json::Num(s.evictions as f64)),
        ("entries", Json::Num(s.entries as f64)),
        ("resident_bytes", Json::Num(s.resident_bytes as f64)),
    ])
}

fn stats_response(shared: &Arc<Shared>, env: &Envelope) -> Json {
    let q = shared.scheduler.stats();
    let (hb, em) = shared.engine.cache_stats();
    let (sur_entries, sur_bytes) = shared.engine.surrogate_stats();
    let fft = rfsim_numerics::fft::plan_cache_stats();
    let result = Json::obj([
        (
            "queue",
            Json::obj([
                ("depth", Json::Num(q.depth as f64)),
                ("peak_depth", Json::Num(q.peak_depth as f64)),
                ("active", Json::Num(q.active as f64)),
                ("accepted", Json::Num(q.accepted as f64)),
                ("rejected", Json::Num(q.rejected as f64)),
                ("completed", Json::Num(q.completed as f64)),
                ("capacity", Json::Num(q.capacity as f64)),
                ("workers", Json::Num(q.workers as f64)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hb", cache_stats_json(hb)),
                ("em", cache_stats_json(em)),
                // Fitted surrogates nested inside the resident em
                // entries: the state that answers repeat extraction
                // traffic with zero true solves (DESIGN.md §16).
                (
                    "surrogate",
                    Json::obj([
                        ("entries", Json::Num(sur_entries as f64)),
                        ("resident_bytes", Json::Num(sur_bytes as f64)),
                    ]),
                ),
            ]),
        ),
        (
            "fft",
            Json::obj([
                ("plan_hits", Json::Num(fft.hits as f64)),
                ("plan_misses", Json::Num(fft.misses as f64)),
                ("plans", Json::Num(fft.plans as f64)),
            ]),
        ),
    ]);
    ok_response(env.id, "stats", false, result, Json::Null)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
