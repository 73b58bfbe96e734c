//! Solver-level counters, gauges, and histograms.
//!
//! Names are dot-separated and lowercase by convention
//! (`krylov.gmres.iterations`, `serve.latency.total_ms`). All update
//! functions are single-branch no-ops when telemetry is off.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Log-spaced sub-buckets per octave (power of two). 16 gives a bucket
/// width of 2^(1/16) ≈ 4.4%, so quantile estimates (taken at the
/// geometric bucket midpoint) carry a relative error of at most
/// 2^(1/32) − 1 ≈ 2.2% — the bound the property tests assert.
pub const SUB_BUCKETS: usize = 16;
/// Smallest resolvable exponent: values below 2^-32 land in the
/// underflow bucket (index 0), alongside zero and negatives.
const MIN_EXP: i32 = -32;
/// Largest resolvable exponent: values at or above 2^32 land in the
/// open-ended overflow bucket.
const MAX_EXP: i32 = 32;
/// Total bucket count: underflow + 64 octaves × [`SUB_BUCKETS`] +
/// overflow.
pub const NUM_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS + 2;

/// Log-bucketed (HDR-style) histogram with exact count/sum/min/max and
/// bounded-relative-error quantiles.
///
/// Values are assigned to geometrically spaced buckets ([`SUB_BUCKETS`]
/// per octave over 2^-32..2^32, plus underflow/overflow), so p50/p99
/// estimates are within ~2.2% of the exact sorted-sample quantile at a
/// fixed 8 KiB of state — no sample retention, O(1) record, mergeable
/// across threads and subtractable across snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || v.is_nan() {
        return 0; // zero, negative, NaN: underflow bucket
    }
    let e = v.log2();
    if e < f64::from(MIN_EXP) {
        return 0;
    }
    if e >= f64::from(MAX_EXP) {
        return NUM_BUCKETS - 1;
    }
    let off = ((e - f64::from(MIN_EXP)) * SUB_BUCKETS as f64).floor() as usize;
    (1 + off).min(NUM_BUCKETS - 2)
}

/// `[lo, hi)` value range of a bucket.
fn bucket_bounds(idx: usize) -> (f64, f64) {
    if idx == 0 {
        return (0.0, f64::from(MIN_EXP).exp2());
    }
    if idx == NUM_BUCKETS - 1 {
        return (f64::from(MAX_EXP).exp2(), f64::INFINITY);
    }
    let lo = (f64::from(MIN_EXP) + (idx - 1) as f64 / SUB_BUCKETS as f64).exp2();
    (lo, lo * (1.0 / SUB_BUCKETS as f64).exp2())
}

/// Representative value reported for a bucket: the geometric midpoint
/// (midpoint of the log-spaced range), clamped by the caller to the
/// exact observed min/max.
fn bucket_mid(idx: usize) -> f64 {
    let (lo, hi) = bucket_bounds(idx);
    if idx == 0 {
        hi * 0.5
    } else if idx == NUM_BUCKETS - 1 {
        lo * 2.0
    } else {
        (lo * hi).sqrt()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`. The estimate is
    /// the geometric midpoint of the bucket holding the q-th ranked
    /// sample, clamped to the exact `[min, max]`, so its relative error
    /// is bounded by the bucket width (≈2.2% at [`SUB_BUCKETS`] = 16).
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; no need to estimate.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        // Bucket data absent (a histogram re-read from an old-shape
        // artifact): the max is the only honest upper estimate left.
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Folds `other` into `self`. Bucket counts, count, min, and max
    /// merge exactly; the sum is a floating-point accumulation.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// The observations recorded after `earlier` was snapshotted:
    /// bucket counts and count subtract exactly, so interval quantiles
    /// (e.g. "p99 over the last 2 s" in `rfsim-top`) are as accurate as
    /// cumulative ones. Interval min/max are not recoverable from
    /// cumulative extremes; they are approximated by the outermost
    /// nonzero delta buckets.
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        d.count = self.count.saturating_sub(earlier.count);
        if d.count == 0 {
            return d;
        }
        d.sum = self.sum - earlier.sum;
        for (i, (now, was)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            let n = now.saturating_sub(*was);
            d.buckets[i] = n;
            if n > 0 {
                let (lo, hi) = bucket_bounds(i);
                d.min = d.min.min(lo.max(self.min));
                d.max = d.max.max(hi.min(self.max));
            }
        }
        d
    }

    /// Nonzero buckets as `(index, count)` pairs (the sparse form the
    /// JSON serialization uses).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, n)| **n > 0).map(|(i, n)| (i, *n))
    }

    /// Serializes as a JSON object: the legacy `count/sum/min/max/mean`
    /// fields (unchanged layout, so old readers keep working), plus
    /// quantile estimates and the sparse bucket array new readers use.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .map(|(i, n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
            .collect();
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::Num(self.p50())),
            ("p90", Json::Num(self.p90())),
            ("p95", Json::Num(self.p95())),
            ("p99", Json::Num(self.p99())),
            ("p999", Json::Num(self.p999())),
            ("buckets", Json::Arr(buckets)),
        ])
    }

    /// Rebuilds a histogram from its JSON form. Accepts both the
    /// current shape (with `buckets`) and the pre-quantile shape
    /// (count/sum/min/max/mean only) — old-shape histograms keep their
    /// exact moments but degrade quantiles to the max (see
    /// [`Histogram::quantile`]).
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let count = v.get("count")?.as_f64()? as u64;
        let mut h = Histogram::new();
        if count == 0 {
            return Some(h);
        }
        h.count = count;
        h.sum = v.get("sum")?.as_f64()?;
        // Empty-histogram extremes serialize as null (JSON has no
        // infinities); nonempty ones are finite numbers.
        h.min = v.get("min")?.as_f64()?;
        h.max = v.get("max")?.as_f64()?;
        if let Some(buckets) = v.get("buckets").and_then(Json::as_arr) {
            for pair in buckets {
                let pair = pair.as_arr()?;
                let [idx, n] = pair else { return None };
                let idx = idx.as_f64()? as usize;
                if idx >= NUM_BUCKETS {
                    return None;
                }
                h.buckets[idx] = n.as_f64()? as u64;
            }
        }
        Some(h)
    }
}

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());

fn lock<T>(m: &'static Mutex<T>) -> std::sync::MutexGuard<'static, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Adds `delta` to the named monotonic counter.
pub fn counter_add(name: &'static str, delta: u64) {
    if !crate::enabled() || delta == 0 {
        return;
    }
    *lock(&COUNTERS).entry(name.to_string()).or_insert(0) += delta;
}

/// Sets the named gauge to its latest observed value.
pub fn gauge_set(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    lock(&GAUGES).insert(name.to_string(), value);
}

/// Records one observation into the named histogram.
pub fn histogram_record(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    lock(&HISTOGRAMS).entry(name.to_string()).or_default().record(value);
}

/// Runs `f` and returns its result with the counters that grew while it
/// ran (saturating deltas, zeros dropped). Only the counter map is read,
/// before and after `f`, so the cost does not grow with recorded spans,
/// histograms or traces. The registry is process-global: counters other
/// threads bump while `f` runs are attributed to `f` as well.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let before = counters();
    let out = f();
    let deltas = counters()
        .into_iter()
        .filter_map(|(k, v)| {
            let d = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
            (d > 0).then_some((k, d))
        })
        .collect();
    (out, deltas)
}

pub(crate) fn counters() -> BTreeMap<String, u64> {
    lock(&COUNTERS).clone()
}

pub(crate) fn gauges() -> BTreeMap<String, f64> {
    lock(&GAUGES).clone()
}

pub(crate) fn histograms() -> BTreeMap<String, Histogram> {
    lock(&HISTOGRAMS).clone()
}

pub(crate) fn reset() {
    lock(&COUNTERS).clear();
    lock(&GAUGES).clear();
    lock(&HISTOGRAMS).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_moments_are_exact() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 3.0, 4.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 21.7).abs() < 1e-12);
    }

    #[test]
    fn quantiles_track_sorted_samples() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0), (0.999, 999.0)] {
            let est = h.quantile(q);
            let rel = (est / exact).ln().abs();
            assert!(rel <= (1.0f64 / SUB_BUCKETS as f64).exp2().ln() + 1e-9, "q={q}: {est}");
        }
        // Extremes are exact thanks to the min/max clamp.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn underflow_and_overflow_are_absorbed() {
        let mut h = Histogram::new();
        for v in [0.0, -3.0, 1e-200, 1e200, f64::NAN] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.nonzero_buckets().map(|(_, n)| n).sum::<u64>(), 5);
        let (first, _) = h.nonzero_buckets().next().unwrap();
        assert_eq!(first, 0);
        let (last, _) = h.nonzero_buckets().last().unwrap();
        assert_eq!(last, NUM_BUCKETS - 1);
    }

    #[test]
    fn merge_is_exact_on_buckets() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..100 {
            let v = 1.5f64.powi(i % 17) * 0.01;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, all.count);
        assert_eq!(a.min, all.min);
        assert_eq!(a.max, all.max);
        assert!(a.nonzero_buckets().eq(all.nonzero_buckets()));
    }

    #[test]
    fn delta_recovers_interval_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(1.0);
        }
        let snap = h.clone();
        for _ in 0..50 {
            h.record(1000.0);
        }
        let d = h.delta(&snap);
        assert_eq!(d.count, 50);
        let p50 = d.p50();
        assert!((p50 / 1000.0).ln().abs() < 0.05, "interval p50 = {p50}");
        // The cumulative p50 straddles both phases instead.
        assert!(h.p50() < 2.0);
    }

    #[test]
    fn json_round_trips_and_tolerates_old_shape() {
        let mut h = Histogram::new();
        for v in [0.25, 3.0, 3.1, 700.0] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Old artifacts carry only the moment fields.
        let old = Json::obj([
            ("count", Json::Num(4.0)),
            ("sum", Json::Num(706.35)),
            ("min", Json::Num(0.25)),
            ("max", Json::Num(700.0)),
            ("mean", Json::Num(176.5875)),
        ]);
        let h = Histogram::from_json(&old).unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 700.0);
        // No bucket data: quantiles degrade to the max, not a panic.
        assert_eq!(h.p99(), 700.0);
    }
}
