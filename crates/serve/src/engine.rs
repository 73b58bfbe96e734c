//! Job execution against the resident warm state (DESIGN.md §13.3).
//!
//! The engine owns the two warm caches — harmonic-balance sweeps keyed
//! by circuit/grid identity, extraction operators keyed by geometry
//! hash — and turns each queued request into a result plus a per-job
//! telemetry artifact in the `rfsim-observe` schema. The process-wide
//! `FftPlan` cache is the third reuse layer; it needs no entry here
//! because `rfsim_numerics::fft::plan` already shares plans globally,
//! and its `fft.plan_hits` counter lands in every job's artifact.

use crate::cache::{CacheStats, CacheWeight, WarmCache};
use crate::protocol::{ErrorKind, ExtractJob, HbJob, Request};
use rfsim_circuit::prelude::*;
use rfsim_em::adaptive::{AdaptiveSweep, SurrogateOptions, EXTRACT_SURROGATE_TOL};
use rfsim_em::inductor::SweptExtractor;
use rfsim_observe::{git_sha, BenchArtifact, SweepPoint, SCHEMA_VERSION};
use rfsim_steady::{HbOptions, HbSweep, SpectralGrid};
use rfsim_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

struct HbEntry {
    sweep: HbSweep,
}

impl CacheWeight for HbEntry {
    fn weight_bytes(&self) -> usize {
        // A not-yet-warm sweep reports zero resident bytes; floor it so
        // bookkeeping never divides by or evicts on zero.
        self.sweep.state_bytes().max(1024)
    }
}

/// A resident extraction sweep: the warm operators plus the fitted
/// rational surrogate, so repeat queries on a known geometry are
/// answered from the model with zero true solves (DESIGN.md §16).
struct ExtractEntry {
    sweep: AdaptiveSweep,
}

impl CacheWeight for ExtractEntry {
    fn weight_bytes(&self) -> usize {
        self.sweep.memory_bytes().max(1024)
    }
}

/// What one executed job produced.
pub struct JobOutcome {
    /// Result payload, or a structured error.
    pub result: Result<Json, (ErrorKind, String)>,
    /// Whether resident warm state served this job.
    pub warm: bool,
    /// Wall-clock execution time on the worker.
    pub exec_seconds: f64,
    /// Per-job `rfsim-observe` artifact (JSON form).
    pub artifact: Json,
}

/// The warm-state holder and job runner. One per server; shared by all
/// workers.
pub struct Engine {
    hb: WarmCache<HbEntry>,
    extract: WarmCache<ExtractEntry>,
    cold: bool,
}

impl Engine {
    /// An engine whose two caches share `cache_budget_bytes` evenly.
    /// `cold` disables both caches: every job rebuilds from scratch, the
    /// cold leg of e13's warm-vs-cold comparison
    /// ([`rfsim_observe::SweepMode::Cold`]).
    pub fn new(cache_budget_bytes: usize, cold: bool) -> Self {
        let half = (cache_budget_bytes / 2).max(1);
        Engine {
            hb: WarmCache::new(
                ["serve.cache.hb.hits", "serve.cache.hb.misses", "serve.cache.hb.evictions"],
                ["serve.cache.hb.bytes", "serve.cache.hb.entries"],
                half,
            ),
            extract: WarmCache::new(
                ["serve.cache.em.hits", "serve.cache.em.misses", "serve.cache.em.evictions"],
                ["serve.cache.em.bytes", "serve.cache.em.entries"],
                half,
            ),
            cold,
        }
    }

    /// Cache statistics: (harmonic balance, extraction).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats) {
        (self.hb.stats(), self.extract.stats())
    }

    /// Surrogate residency across the resident extraction entries:
    /// `(entries holding at least one fitted sample, summed surrogate
    /// bytes)`.
    pub fn surrogate_stats(&self) -> (usize, usize) {
        self.extract.aggregate(|e| {
            let s = e.sweep.surrogate();
            (!s.is_empty()).then(|| s.memory_bytes())
        })
    }

    /// Runs one queued job, timing it and attributing telemetry counter
    /// deltas to it ([`rfsim_telemetry::counted`]). Deltas are exact when
    /// jobs run one at a time (the integration tests pin `workers = 1`);
    /// under concurrency they are a superposition across workers — still
    /// monotone evidence of warm-state reuse, just not per-job-exact.
    pub fn execute(&self, req: &Request) -> JobOutcome {
        // The clock starts inside the counted scope, so the two counter
        // reads stay out of `exec_seconds`.
        let ((op, params, outcome, wall), mut counters) = rfsim_telemetry::counted(|| {
            let start = Instant::now();
            let (op, params, outcome) = match req {
                Request::Sleep { ms } => {
                    let _span = rfsim_telemetry::span("serve.exec.sleep");
                    std::thread::sleep(std::time::Duration::from_millis(*ms));
                    (
                        "sleep",
                        vec![("ms".to_string(), *ms as f64)],
                        Ok((Json::Obj(BTreeMap::new()), false)),
                    )
                }
                Request::Hb(job) => {
                    let _span = rfsim_telemetry::span("serve.exec.hb");
                    ("hb", hb_params(job), self.run_hb(job))
                }
                Request::Extract(job) => {
                    let _span = rfsim_telemetry::span("serve.exec.extract");
                    ("extract", extract_params(job), self.run_extract(job))
                }
                // The crash-test op: the server's worker harness catches
                // this, dumps the flight recorder, and answers `solver`.
                Request::Panic => panic!("deliberate panic requested by op:\"panic\""),
                // Ping/stats/metrics/dump/shutdown are answered inline by
                // the server and never reach a worker.
                _ => ("noop", Vec::new(), Ok((Json::Obj(BTreeMap::new()), false))),
            };
            (op, params, outcome, start.elapsed().as_secs_f64())
        });
        let (result, warm) = match outcome {
            Ok((json, warm)) => (Ok(json), warm),
            Err(e) => (Err(e), false),
        };
        counters.insert("serve.job.warm".to_string(), u64::from(warm));
        let artifact = job_artifact(op, params, wall, &result, counters);
        JobOutcome { result, warm, exec_seconds: wall, artifact }
    }

    fn run_hb(&self, job: &HbJob) -> Result<(Json, bool), (ErrorKind, String)> {
        let grid = SpectralGrid::single_tone(job.f0, job.harmonics)
            .map_err(|e| (ErrorKind::BadRequest, e.to_string()))?;
        let (dae, out) =
            build_circuit(&job.circuit, job.f0, job.amp).map_err(|e| (ErrorKind::BadRequest, e))?;
        let key = job.cache_key();
        let mut entry = if self.cold { None } else { self.hb.checkout(&key) };
        let warm = entry.as_ref().is_some_and(|e| e.sweep.is_warm());
        let mut entry = entry
            .take()
            .unwrap_or_else(|| HbEntry { sweep: HbSweep::new(&grid, &HbOptions::default()) });
        let sol = entry.sweep.solve(&dae).map_err(|e| (ErrorKind::Solver, e.to_string()))?;
        if !self.cold {
            self.hb.checkin(key, entry);
        }
        let result = Json::obj([
            ("vout_dc", Json::Num(sol.amplitude(out, &[0]))),
            ("vout_h1", Json::Num(sol.amplitude(out, &[1]))),
            ("vout_h2", Json::Num(sol.amplitude(out, &[2]))),
            ("newton_iterations", Json::Num(sol.stats.newton_iterations as f64)),
            ("linear_iterations", Json::Num(sol.stats.linear_iterations as f64)),
            ("unknowns", Json::Num(sol.stats.unknowns as f64)),
        ]);
        Ok((result, warm))
    }

    fn run_extract(&self, job: &ExtractJob) -> Result<(Json, bool), (ErrorKind, String)> {
        let key = job.cache_key();
        let entry = if self.cold { None } else { self.extract.checkout(&key) };
        let warm = entry.as_ref().is_some_and(|e| e.sweep.is_warm());
        let mut entry = match entry {
            Some(e) => e,
            None => ExtractEntry {
                sweep: AdaptiveSweep::from_extractor(
                    SweptExtractor::with_tolerance(
                        &job.geometry,
                        job.panels_per_seg,
                        job.nq,
                        job.tol,
                    )
                    .map_err(|e| (ErrorKind::Solver, e.to_string()))?,
                    SurrogateOptions { rel_tol: EXTRACT_SURROGATE_TOL, ..Default::default() },
                ),
            },
        };
        // Model-first: a repeat frequency on a resident geometry is
        // answered bit-for-bit from the surrogate's stored solve and a
        // trusted fit answers any in-band frequency — only genuinely
        // new queries reach the EM solver (`surrogate.{hits,rejected}`
        // and `em.true_solves` record the split per job).
        let model =
            entry.sweep.extract_at(job.freq).map_err(|e| (ErrorKind::Solver, e.to_string()))?;
        let panels = entry.sweep.engine().panels();
        if !self.cold {
            self.extract.checkin(key, entry);
            let (entries, bytes) = self.surrogate_stats();
            rfsim_telemetry::gauge_set("serve.cache.surrogate.entries", entries as f64);
            rfsim_telemetry::gauge_set("serve.cache.surrogate.bytes", bytes as f64);
        }
        let result = Json::obj([
            ("l_series", Json::Num(model.l_series)),
            ("r_dc", Json::Num(model.r_dc)),
            ("f_skin", Json::Num(model.f_skin)),
            ("c_ox", Json::Num(model.c_ox)),
            ("r_sub", Json::Num(model.r_sub)),
            ("segments", Json::Num(model.segments as f64)),
            ("panels", Json::Num(panels as f64)),
        ]);
        Ok((result, warm))
    }
}

/// The built-in circuit registry served by `op:"hb"`: small nonlinear
/// (and one linear) one-source circuits exercising the HB path.
pub const CIRCUITS: [&str; 3] = ["rectifier", "clipper", "lowpass"];

fn build_circuit(name: &str, f0: f64, amp: f64) -> Result<(CircuitDae, usize), String> {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", inp, Circuit::GROUND, 0.0, amp, f0));
    ckt.add(Resistor::new("R1", inp, out, 1e3));
    match name {
        "rectifier" => {
            ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
        }
        "clipper" => {
            ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
            ckt.add(Diode::new("D2", Circuit::GROUND, out, 1e-14));
        }
        "lowpass" => {
            // First-order RC with the corner at the drive fundamental.
            let c = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * f0);
            ckt.add(Capacitor::new("C1", out, Circuit::GROUND, c));
        }
        other => {
            return Err(format!("unknown circuit {other:?} (have {CIRCUITS:?})"));
        }
    }
    let dae = ckt.into_dae().map_err(|e| e.to_string())?;
    let out = dae.node_index(out).ok_or("output node is ground")?;
    Ok((dae, out))
}

fn hb_params(job: &HbJob) -> Vec<(String, f64)> {
    vec![
        ("f0".to_string(), job.f0),
        ("harmonics".to_string(), job.harmonics as f64),
        ("amp".to_string(), job.amp),
    ]
}

fn extract_params(job: &ExtractJob) -> Vec<(String, f64)> {
    vec![
        ("freq".to_string(), job.freq),
        ("panels_per_seg".to_string(), job.panels_per_seg as f64),
        ("nq".to_string(), job.nq as f64),
        ("tol".to_string(), job.tol),
    ]
}

/// Builds the per-job artifact: one sweep point, the job's counter
/// deltas, no embedded full snapshot (jobs are too frequent for that).
fn job_artifact(
    op: &str,
    params: Vec<(String, f64)>,
    wall: f64,
    result: &Result<Json, (ErrorKind, String)>,
    counters: BTreeMap<String, u64>,
) -> Json {
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_seconds".to_string(), wall);
    let artifact = BenchArtifact {
        schema_version: SCHEMA_VERSION,
        id: format!("serve-{op}"),
        git_sha: git_sha(),
        threads: rfsim_parallel::thread_count(),
        wall_seconds: wall,
        failure: result.as_ref().err().map(|(k, m)| format!("{}: {m}", k.as_str())),
        phases: Vec::new(),
        sweep: vec![SweepPoint {
            label: format!("serve:{op}"),
            params: params.into_iter().collect(),
            metrics,
            counters,
        }],
        telemetry: Json::Null,
    };
    artifact.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn hb_req() -> Request {
        Request::Hb(HbJob { circuit: "rectifier".to_string(), f0: 1e6, harmonics: 5, amp: 1.0 })
    }

    #[test]
    fn repeat_hb_job_reports_warm() {
        rfsim_telemetry::set_mode(rfsim_telemetry::Mode::Report);
        let engine = Engine::new(64 << 20, false);
        let cold = engine.execute(&hb_req());
        assert!(cold.result.is_ok());
        assert!(!cold.warm);
        let warm = engine.execute(&hb_req());
        assert!(warm.warm, "second identical job must find the resident sweep");
        // Bitwise-identical answers: the warm start is already converged.
        let v = |o: &JobOutcome| o.result.as_ref().unwrap().get("vout_dc").unwrap().as_f64();
        assert_eq!(v(&cold), v(&warm));
    }

    #[test]
    fn cold_mode_never_reuses() {
        rfsim_telemetry::set_mode(rfsim_telemetry::Mode::Report);
        let engine = Engine::new(64 << 20, true);
        engine.execute(&hb_req());
        let second = engine.execute(&hb_req());
        assert!(!second.warm);
        assert_eq!(engine.cache_stats().0.entries, 0);
    }

    #[test]
    fn artifact_is_schema_parseable() {
        rfsim_telemetry::set_mode(rfsim_telemetry::Mode::Report);
        let engine = Engine::new(64 << 20, false);
        let out = engine.execute(&Request::Sleep { ms: 0 });
        let parsed = BenchArtifact::parse(&out.artifact.to_string_compact()).unwrap();
        assert_eq!(parsed.sweep.len(), 1);
        assert_eq!(parsed.sweep[0].label, "serve:sleep");
    }

    #[test]
    fn unknown_circuit_is_a_bad_request() {
        let engine = Engine::new(1 << 20, false);
        let req = Request::Hb(HbJob {
            circuit: "warp-core".to_string(),
            f0: 1e6,
            harmonics: 3,
            amp: 1.0,
        });
        let out = engine.execute(&req);
        let (kind, _) = out.result.unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
    }
}
