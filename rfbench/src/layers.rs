//! The per-layer metrics of a traced run: their names and units, and
//! how they are read from the program's own spans and counters
//! (`rfsim_telemetry::snapshot()`) plus the benchmark's `bench.*` spans
//! around each call it makes into a layer.

use rfsim_telemetry::{Snapshot, SpanNode};
use std::collections::BTreeMap;

/// Telemetry recorded inside chosen windows of a run (the traced
/// chunks), summed over the windows: counters and the span tree.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Counter increments.
    pub counters: BTreeMap<String, u64>,
    /// Span time and calls, by path.
    pub spans: SpanNode,
}

impl Recorded {
    /// Adds what was recorded between the snapshots `before` and `after`.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for (k, v) in &after.counters {
            let d = v - before.counters.get(k).copied().unwrap_or(0);
            *self.counters.entry(k.clone()).or_insert(0) += d;
        }
        add_span_delta(&mut self.spans, &after.spans, Some(&before.spans));
    }
}

fn add_span_delta(acc: &mut SpanNode, after: &SpanNode, before: Option<&SpanNode>) {
    acc.count += after.count - before.map_or(0, |b| b.count);
    acc.total_ns += after.total_ns - before.map_or(0, |b| b.total_ns);
    for (k, child) in &after.children {
        let prior = before.and_then(|b| b.children.get(k));
        add_span_delta(acc.children.entry(k.clone()).or_default(), child, prior);
    }
}

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.build_ms", "ms"),
    ("numerics.sparse.factor_ms", "ms"),
    ("numerics.sparse.solve_ms", "ms"),
    ("numerics.sparse.fill_ratio", "ratio"),
    ("numerics.sparse.factorizations", "count/op"),
    ("em.fd.solve_ms", "ms"),
    ("em.fd.assemble_ms", "ms"),
    ("em.fd.energy_ms", "ms"),
    ("em.build_ms", "ms"),
    ("em.true_solves", "count/op"),
    ("rom.surrogate.hit_ratio", "ratio"),
    ("rom.surrogate.fits", "count/op"),
    ("steady.hb_ms", "ms"),
    ("steady.hb.newton_iters", "count/op"),
    ("steady.hb.gmres_iters", "count/op"),
    ("steady.hb.matvecs", "count/op"),
    ("steady.hb.precond_factorizations", "count/op"),
    ("steady.hb.assemble_ms", "ms"),
    ("steady.hb.matvec_ms", "ms"),
    ("steady.hb.precond_ms", "ms"),
    ("steady.hb.sweep.warm_starts", "count/op"),
    ("steady.hb.sweep.cold_starts", "count/op"),
    ("numerics.dense.factorizations", "count/op"),
    ("numerics.dense.trsv_ms", "ms"),
    ("numerics.fft_ms", "ms"),
    ("numerics.fft.plan_misses", "count"),
    ("numerics.krylov.gmres_ms", "ms"),
    ("numerics.krylov.warm_starts", "count/op"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.cache.hb.hit_ratio", "ratio"),
    ("serve.cache.em.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("telemetry.overhead_pct", "%"),
    ("bench.layer_coverage_pct", "%"),
];

/// Benchmark spans around the calls it makes into each layer. Each op's
/// layer calls are top-level spans, so their sum against the op's wall
/// time is the share of the op the layers account for.
pub mod span {
    pub const CIRCUIT_BUILD: &str = "bench.circuit.build";
    pub const STEADY_HB: &str = "bench.steady.solve_hb";
    pub const EM_FD_SOLVE: &str = "bench.em.fd_solve";
    pub const EM_FD_ENERGY: &str = "bench.em.field_energy";
    /// The probe's re-run of the op's FD solve, next to its re-run
    /// factorization: not an op span.
    pub const EM_FD_SOLVE_PROBE: &str = "bench.em.fd_solve_probe";
    pub const SPARSE_LU: &str = "bench.numerics.sparse.lu";
    pub const SPARSE_SOLVE: &str = "bench.numerics.sparse.solve";
    pub const SERVE_HB: &str = "bench.serve.hb";
    pub const SERVE_EXTRACT: &str = "bench.serve.extract";
}

/// Inclusive time (ms) and call count of every span node named `name`,
/// wherever it sits in the tree.
pub fn span_total(root: &SpanNode, name: &str) -> (f64, u64) {
    let mut acc = (0.0, 0);
    for (k, child) in &root.children {
        if k == name {
            acc.0 += child.total_ns as f64 / 1e6;
            acc.1 += child.count;
        }
        let (ms, n) = span_total(child, name);
        acc.0 += ms;
        acc.1 += n;
    }
    acc
}

/// Per-op values recorded by the traced loop: the exact counts of its
/// leading ops.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one op's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The mean of `name`, if any op recorded it.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| crate::stats::mean(v))
    }
}

/// The per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every metric from the span tree and counters of `rec`, taken over
    /// traced windows holding `ops` ops. Time metrics are per op, except
    /// the sparse re-runs and the extractor build (per call).
    pub fn from_recorded(rec: &Recorded, ops: usize) -> Layers {
        let mut l = Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect());
        let ops = ops.max(1) as f64;
        let per_op = |span: &str| span_total(&rec.spans, span).0 / ops;
        let per_call = |span: &str| {
            let (ms, n) = span_total(&rec.spans, span);
            if n == 0 {
                0.0
            } else {
                ms / n as f64
            }
        };
        let counter = |name: &str| rec.counters.get(name).copied().unwrap_or(0) as f64;
        l.set("circuit.build_ms", per_op(span::CIRCUIT_BUILD));
        l.set("numerics.sparse.factor_ms", per_call(span::SPARSE_LU));
        l.set("numerics.sparse.solve_ms", per_call(span::SPARSE_SOLVE));
        l.set("numerics.sparse.factorizations", counter("lu.sparse.factorizations") / ops);
        l.set("em.fd.solve_ms", per_op(span::EM_FD_SOLVE));
        let fd_rerun = per_call(span::EM_FD_SOLVE_PROBE);
        if fd_rerun > 0.0 {
            // One factorization and one sparse solve per FD solve; the
            // rest is assembly. All three are re-run side by side, so the
            // difference compares like with like.
            let rest =
                fd_rerun - l.get("numerics.sparse.factor_ms") - l.get("numerics.sparse.solve_ms");
            l.set("em.fd.assemble_ms", rest);
        }
        l.set("em.fd.energy_ms", per_op(span::EM_FD_ENERGY));
        l.set("em.build_ms", per_call("em.inductor.sweep.build"));
        l.set("em.true_solves", counter("em.true_solves") / ops);
        let (hits, misses) = (counter("surrogate.hits"), counter("surrogate.true_solves"));
        if hits + misses > 0.0 {
            l.set("rom.surrogate.hit_ratio", hits / (hits + misses));
        }
        l.set("rom.surrogate.fits", counter("surrogate.fits") / ops);
        l.set("steady.hb_ms", per_op("hb.solve"));
        l.set("steady.hb.newton_iters", counter("hb.newton.iterations") / ops);
        l.set("steady.hb.gmres_iters", counter("hb.gmres.iterations") / ops);
        l.set("steady.hb.matvecs", counter("hb.matvecs") / ops);
        l.set("steady.hb.precond_factorizations", counter("hb.precond.factorizations") / ops);
        l.set("steady.hb.assemble_ms", per_op("hb.assemble"));
        l.set("steady.hb.matvec_ms", per_op("hb.matvec"));
        l.set("steady.hb.precond_ms", per_op("hb.precond.apply"));
        l.set("steady.hb.sweep.warm_starts", counter("hb.sweep.warm_starts") / ops);
        l.set("steady.hb.sweep.cold_starts", counter("hb.sweep.cold_starts") / ops);
        l.set("numerics.dense.factorizations", counter("lu.dense.factorizations") / ops);
        l.set("numerics.dense.trsv_ms", per_op("hb.precond.trsv"));
        l.set("numerics.fft_ms", per_op("hb.precond.fft_fwd") + per_op("hb.precond.fft_inv"));
        l.set("numerics.krylov.gmres_ms", per_op("krylov.gmres"));
        l.set("numerics.krylov.warm_starts", counter("krylov.warm_starts") / ops);
        l
    }

    /// Overrides each metric the traced loop recorded exact per-op
    /// counts for with their mean.
    pub fn take_samples(&mut self, samples: &Samples) {
        for &(name, _) in PER_LAYER {
            if let Some(v) = samples.mean(name) {
                self.set(name, v);
            }
        }
    }

    /// Sets one metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// The current value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The metrics in [`PER_LAYER`] order, with units.
    pub fn into_metrics(self) -> Vec<crate::Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| crate::Metric { name, value: self.0[name], unit })
            .collect()
    }
}
