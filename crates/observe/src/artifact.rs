//! The schema-versioned `BENCH_<id>.json` artifact each experiment
//! harness emits: per-phase wall clocks, problem-size sweep points with
//! counter deltas, thread count, git SHA, and the full telemetry
//! snapshot (span tree, counters, convergence traces, health events).

use rfsim_telemetry::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Version stamped into every artifact; bump on breaking layout change.
pub const SCHEMA_VERSION: u64 = 1;

/// One timed top-level phase of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, e.g. `size sweep` or `ablation`.
    pub name: String,
    /// Wall-clock duration of the phase.
    pub wall_seconds: f64,
}

/// One problem-size (or parameter) point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Point label, e.g. `n=1024`.
    pub label: String,
    /// Input parameters (problem size, tolerance, ...).
    pub params: BTreeMap<String, f64>,
    /// Measured outputs; always includes `wall_seconds`.
    pub metrics: BTreeMap<String, f64>,
    /// Telemetry counter deltas attributable to this point alone.
    pub counters: BTreeMap<String, u64>,
}

/// A complete benchmark artifact (`BENCH_<id>.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Artifact layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Experiment id, e.g. `e08`.
    pub id: String,
    /// Git commit the binary was built from (`unknown` outside a repo).
    pub git_sha: String,
    /// Worker-pool width the run used (`RFSIM_THREADS` resolution).
    pub threads: usize,
    /// End-to-end wall clock of the run.
    pub wall_seconds: f64,
    /// Error message if the run failed (solver divergence, bad setup).
    pub failure: Option<String>,
    /// Timed phases, in execution order.
    pub phases: Vec<Phase>,
    /// Sweep points, in execution order.
    pub sweep: Vec<SweepPoint>,
    /// Full telemetry snapshot (`Snapshot::to_json` layout).
    pub telemetry: Json,
}

fn num_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

fn count_map(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect())
}

fn parse_num_map(v: Option<&Json>) -> Option<BTreeMap<String, f64>> {
    let Json::Obj(m) = v? else { return None };
    m.iter().map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
}

impl BenchArtifact {
    /// Conventional file name for an experiment id.
    pub fn file_name(id: &str) -> String {
        format!("BENCH_{id}.json")
    }

    /// Number of health events recorded in the embedded telemetry.
    pub fn health_events(&self) -> usize {
        self.telemetry.get("health").and_then(Json::as_arr).map_or(0, <[Json]>::len)
    }

    /// Serializes as a JSON value.
    pub fn to_json(&self) -> Json {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::obj([
                    ("name", Json::Str(p.name.clone())),
                    ("wall_seconds", Json::Num(p.wall_seconds)),
                ])
            })
            .collect();
        let sweep = self
            .sweep
            .iter()
            .map(|s| {
                Json::obj([
                    ("label", Json::Str(s.label.clone())),
                    ("params", num_map(&s.params)),
                    ("metrics", num_map(&s.metrics)),
                    ("counters", count_map(&s.counters)),
                ])
            })
            .collect();
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("id", Json::Str(self.id.clone())),
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("threads", Json::Num(self.threads as f64)),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("failure", self.failure.as_ref().map_or(Json::Null, |f| Json::Str(f.clone()))),
            ("phases", Json::Arr(phases)),
            ("sweep", Json::Arr(sweep)),
            ("telemetry", self.telemetry.clone()),
        ])
    }

    /// Rebuilds an artifact from its JSON value.
    pub fn from_json(v: &Json) -> Option<Self> {
        let schema_version = v.get("schema_version")?.as_f64()? as u64;
        let mut phases = Vec::new();
        for p in v.get("phases")?.as_arr()? {
            phases.push(Phase {
                name: p.get("name")?.as_str()?.to_string(),
                wall_seconds: p.get("wall_seconds")?.as_f64()?,
            });
        }
        let mut sweep = Vec::new();
        for s in v.get("sweep")?.as_arr()? {
            let counters = match s.get("counters")? {
                Json::Obj(m) => m
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                    .collect::<Option<_>>()?,
                _ => return None,
            };
            sweep.push(SweepPoint {
                label: s.get("label")?.as_str()?.to_string(),
                params: parse_num_map(s.get("params"))?,
                metrics: parse_num_map(s.get("metrics"))?,
                counters,
            });
        }
        Some(BenchArtifact {
            schema_version,
            id: v.get("id")?.as_str()?.to_string(),
            git_sha: v.get("git_sha")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_f64()? as usize,
            wall_seconds: v.get("wall_seconds")?.as_f64()?,
            failure: v.get("failure").and_then(|f| f.as_str().map(String::from)),
            phases,
            sweep,
            telemetry: v.get("telemetry")?.clone(),
        })
    }

    /// Parses an artifact from JSON text.
    ///
    /// # Errors
    /// Malformed JSON, missing fields, or an unsupported schema version.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let artifact = Self::from_json(&v).ok_or("not a BENCH artifact (missing fields)")?;
        if artifact.schema_version > SCHEMA_VERSION {
            return Err(format!(
                "artifact schema v{} is newer than supported v{SCHEMA_VERSION}",
                artifact.schema_version
            ));
        }
        Ok(artifact)
    }
}

/// Best-effort git commit of the working directory: walks up to the
/// nearest `.git/HEAD` and resolves it. Resolved once per process.
/// Returns `"unknown"` outside a repository, or when `HEAD` names a ref
/// that resolves nowhere.
pub fn git_sha() -> String {
    static SHA: OnceLock<String> = OnceLock::new();
    SHA.get_or_init(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        cwd.ancestors()
            .find_map(|dir| head_sha(&dir.join(".git")))
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

/// Resolves `HEAD` inside the git directory `git_dir`: a detached SHA
/// as is, a `ref:` through its loose file or else `packed-refs` (where
/// `git gc` moves it), and `"unknown"` if it resolves nowhere. `None`
/// when `git_dir` has no readable `HEAD`.
fn head_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    let loose = std::fs::read_to_string(git_dir.join(name)).ok().map(|s| s.trim().to_string());
    let sha = loose.or_else(|| {
        std::fs::read_to_string(git_dir.join("packed-refs")).ok()?.lines().find_map(|line| {
            let (sha, r) = line.split_once(' ')?;
            (r == name).then(|| sha.to_string())
        })
    });
    Some(sha.unwrap_or_else(|| "unknown".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_resolves_loose_packed_and_detached_refs() {
        const SHA: &str = "0123456789abcdef0123456789abcdef01234567";
        let git = std::env::temp_dir().join(format!("rfsim-observe-head-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&git);
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let write = |file: &str, text: &str| std::fs::write(git.join(file), text).unwrap();
        write("HEAD", "ref: refs/heads/loose\n");
        write("refs/heads/loose", &format!("{SHA}\n"));
        assert_eq!(head_sha(&git).as_deref(), Some(SHA));
        write("HEAD", "ref: refs/heads/packed\n");
        write(
            "packed-refs",
            &format!("# pack-refs with: peeled fully-peeled sorted\n{SHA} refs/heads/packed\n"),
        );
        assert_eq!(head_sha(&git).as_deref(), Some(SHA));
        write("HEAD", &format!("{SHA}\n"));
        assert_eq!(head_sha(&git).as_deref(), Some(SHA));
        write("HEAD", "ref: refs/heads/missing\n");
        assert_eq!(head_sha(&git).as_deref(), Some("unknown"));
        std::fs::remove_dir_all(&git).unwrap();
        assert_eq!(head_sha(&git), None);
    }
}
