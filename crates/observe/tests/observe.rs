//! Harness + artifact + report integration tests. The harness drives
//! the process-global telemetry registry, so tests serialize on a local
//! mutex and pin the artifact directory through `RFSIM_BENCH_DIR`.

use rfsim_observe::{
    compare_sets, load_set, BenchArtifact, Harness, Thresholds, BENCH_DIR_VAR, SCHEMA_VERSION,
};
use rfsim_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn in_temp_bench_dir<T>(tag: &str, f: impl FnOnce(&std::path::Path) -> T) -> T {
    let _guard = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("rfsim-observe-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp bench dir");
    std::env::set_var(BENCH_DIR_VAR, &dir);
    telemetry::set_mode(telemetry::Mode::Off);
    let out = f(&dir);
    std::env::remove_var(BENCH_DIR_VAR);
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn sample_artifact(id: &str, wall: f64) -> BenchArtifact {
    BenchArtifact {
        schema_version: SCHEMA_VERSION,
        id: id.to_string(),
        git_sha: "deadbeef".to_string(),
        threads: 4,
        wall_seconds: wall,
        failure: None,
        phases: vec![rfsim_observe::Phase { name: "sweep".into(), wall_seconds: wall * 0.8 }],
        sweep: vec![rfsim_observe::SweepPoint {
            label: "n=64".into(),
            params: [("n".to_string(), 64.0)].into_iter().collect(),
            metrics: [("wall_seconds".to_string(), wall * 0.4)].into_iter().collect(),
            counters: [("gmres.iterations".to_string(), 120u64)].into_iter().collect(),
        }],
        telemetry: telemetry::snapshot().to_json(),
    }
}

#[test]
fn artifact_round_trips_through_json() {
    let a = sample_artifact("e42", 1.5);
    let text = a.to_json().to_string_pretty();
    let b = BenchArtifact::parse(&text).expect("parse back");
    assert_eq!(a, b);
    assert_eq!(b.health_events(), 0);
}

#[test]
fn artifact_rejects_newer_schema() {
    let mut a = sample_artifact("e42", 1.0);
    a.schema_version = SCHEMA_VERSION + 1;
    let err = BenchArtifact::parse(&a.to_json().to_string_pretty()).unwrap_err();
    assert!(err.contains("newer than supported"), "{err}");
}

#[test]
fn harness_writes_schema_valid_artifact() {
    in_temp_bench_dir("basic", |dir| {
        let mut h = Harness::new("e97");
        h.phase("setup", || std::thread::sleep(std::time::Duration::from_millis(1)));
        h.sweep_point("n=8", &[("n", 8.0)], |pm| {
            let _s = telemetry::span("test.solve");
            telemetry::counter_add("test.iterations", 17);
            pm.metric("residual", 1e-9);
        });
        let code = h.finish();
        assert_eq!(code, std::process::ExitCode::SUCCESS);

        let text = std::fs::read_to_string(dir.join("BENCH_e97.json")).expect("artifact file");
        let a = BenchArtifact::parse(&text).expect("schema-valid artifact");
        assert_eq!(a.schema_version, SCHEMA_VERSION);
        assert_eq!(a.id, "e97");
        assert!(a.failure.is_none());
        assert!(a.threads >= 1);
        assert!(a.wall_seconds > 0.0);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].name, "setup");
        assert_eq!(a.sweep.len(), 1);
        assert_eq!(a.sweep[0].params["n"], 8.0);
        assert_eq!(a.sweep[0].metrics["residual"], 1e-9);
        assert!(a.sweep[0].metrics["wall_seconds"] >= 0.0);
        assert_eq!(a.sweep[0].counters["test.iterations"], 17);
        // The embedded snapshot has the span tree and counters sections.
        let spans = a.telemetry.get("spans").and_then(|s| s.get("children")).expect("span tree");
        assert!(spans.get("bench.phase.setup").is_some());
        assert!(spans.get("bench.sweep.n=8").is_some());
        assert_eq!(
            a.telemetry
                .get("counters")
                .and_then(|c| c.get("test.iterations"))
                .and_then(|v| v.as_f64()),
            Some(17.0)
        );
    });
}

#[test]
fn identical_sweep_points_report_identical_counter_deltas() {
    // Satellite regression test: back-to-back points must not accumulate
    // counters — each point sees only its own deltas.
    in_temp_bench_dir("deltas", |dir| {
        let workload = || {
            telemetry::counter_add("delta.iterations", 31);
            telemetry::counter_add("delta.matvecs", 7);
        };
        let mut h = Harness::new("e96");
        h.sweep_point("p1", &[], |_| workload());
        h.sweep_point("p2", &[], |_| workload());
        h.finish();

        let a = BenchArtifact::parse(
            &std::fs::read_to_string(dir.join("BENCH_e96.json")).expect("artifact"),
        )
        .expect("parse");
        assert_eq!(a.sweep.len(), 2);
        assert_eq!(a.sweep[0].counters, a.sweep[1].counters);
        assert_eq!(a.sweep[0].counters["delta.iterations"], 31);
        assert_eq!(a.sweep[0].counters["delta.matvecs"], 7);
    });
}

#[test]
fn harness_reset_isolates_back_to_back_runs() {
    in_temp_bench_dir("isolation", |dir| {
        for run in ["e95", "e95b"] {
            let mut h = Harness::new(run);
            h.sweep_point("p", &[], |_| telemetry::counter_add("iso.count", 5));
            h.finish();
        }
        for run in ["e95", "e95b"] {
            let a = BenchArtifact::parse(
                &std::fs::read_to_string(dir.join(format!("BENCH_{run}.json"))).expect("artifact"),
            )
            .expect("parse");
            // Without the reset the second run would report 10.
            assert_eq!(
                a.telemetry
                    .get("counters")
                    .and_then(|c| c.get("iso.count"))
                    .and_then(|v| v.as_f64()),
                Some(5.0),
                "run {run} leaked counters from a previous run"
            );
        }
    });
}

#[test]
fn failed_run_exits_nonzero_but_still_writes_artifact() {
    in_temp_bench_dir("failure", |dir| {
        let h = Harness::new("e94");
        let code = h.abort("solver diverged at n=1024");
        assert_eq!(code, std::process::ExitCode::FAILURE);
        let a = BenchArtifact::parse(
            &std::fs::read_to_string(dir.join("BENCH_e94.json")).expect("artifact"),
        )
        .expect("parse");
        assert_eq!(a.failure.as_deref(), Some("solver diverged at n=1024"));
    });
}

#[test]
fn unwritable_artifact_exits_nonzero() {
    in_temp_bench_dir("unwritable", |dir| {
        let missing = dir.join("missing");
        std::env::set_var(BENCH_DIR_VAR, &missing);
        let code = Harness::new("e95").finish();
        assert_eq!(code, std::process::ExitCode::FAILURE);
        assert!(!missing.join("BENCH_e95.json").exists());
    });
}

#[test]
fn report_flags_wall_regression_past_threshold() {
    let thresholds = Thresholds::default();
    let old = vec![sample_artifact("e01", 1.0)];
    // +20% is under the default 25% threshold; +60% is over.
    let ok = compare_sets(&old, &[sample_artifact("e01", 1.2)], &thresholds);
    assert_eq!(ok.regressions(), 0);
    assert!(!ok.failed(&thresholds));

    let bad = compare_sets(&old, &[sample_artifact("e01", 1.6)], &thresholds);
    assert!(bad.regressions() > 0);
    assert!(bad.failed(&thresholds));
    let table = bad.render(&thresholds);
    assert!(table.contains("REGRESSED"), "{table}");
    assert!(table.contains("wall_seconds"), "{table}");

    // A looser threshold accepts the same pair.
    let loose = Thresholds { wall_regression: 1.0, ..thresholds };
    assert!(!compare_sets(&old, &[sample_artifact("e01", 1.6)], &loose).failed(&loose));
}

#[test]
fn report_fails_on_missing_id_failure_and_health() {
    let thresholds = Thresholds::default();
    let old = vec![sample_artifact("e01", 1.0)];

    // Missing id.
    let cmp = compare_sets(&old, &[], &thresholds);
    assert_eq!(cmp.missing, vec!["e01".to_string()]);
    assert!(cmp.failed(&thresholds));

    // Failed run.
    let mut failed = sample_artifact("e01", 1.0);
    failed.failure = Some("diverged".into());
    assert!(compare_sets(&old, &[failed], &thresholds).failed(&thresholds));

    // Health event in the new set.
    let mut unhealthy = sample_artifact("e01", 1.0);
    let health = rfsim_telemetry::Json::Arr(vec![rfsim_telemetry::Json::obj([
        ("monitor", rfsim_telemetry::Json::Str("stagnation".into())),
        ("solver", rfsim_telemetry::Json::Str("krylov.gmres".into())),
        ("detail", rfsim_telemetry::Json::Str("stalled".into())),
        ("value", rfsim_telemetry::Json::Num(0.5)),
        ("iteration", rfsim_telemetry::Json::Num(30.0)),
    ])]);
    let mut t = match unhealthy.telemetry.clone() {
        rfsim_telemetry::Json::Obj(m) => m,
        _ => BTreeMap::new(),
    };
    t.insert("health".to_string(), health);
    unhealthy.telemetry = rfsim_telemetry::Json::Obj(t);
    assert_eq!(unhealthy.health_events(), 1);
    let cmp = compare_sets(&old, &[unhealthy.clone()], &thresholds);
    assert!(cmp.failed(&thresholds));
    assert!(cmp.render(&thresholds).contains("health event in e01"));
    // ... unless health events are explicitly allowed.
    let lenient = Thresholds { fail_on_health: false, ..thresholds };
    assert!(!compare_sets(&old, &[unhealthy], &lenient).failed(&lenient));
}

#[test]
fn load_set_scans_directories_and_single_files() {
    in_temp_bench_dir("loadset", |dir| {
        for (id, wall) in [("e01", 1.0), ("e02", 2.0)] {
            std::fs::write(
                dir.join(BenchArtifact::file_name(id)),
                sample_artifact(id, wall).to_json().to_string_pretty(),
            )
            .expect("write artifact");
        }
        std::fs::write(dir.join("unrelated.json"), "{}").expect("write decoy");
        let set = load_set(dir).expect("load dir");
        assert_eq!(set.len(), 2, "decoy must be ignored");
        assert_eq!(set[0].id, "e01");
        assert_eq!(set[1].id, "e02");
        let single = load_set(&dir.join("BENCH_e02.json")).expect("load single file");
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].id, "e02");
    });
}
