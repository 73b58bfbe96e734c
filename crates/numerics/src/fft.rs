//! Discrete Fourier transforms: radix-2 FFT, Bluestein's algorithm for
//! arbitrary lengths, 2-D transforms, and spectrum utilities (dBc scaling,
//! windows).
//!
//! Harmonic balance shuttles waveforms between the time grid and the
//! harmonic domain every Newton iteration (the Γ/Γ⁻¹ operators); the MPDE
//! engines use the 2-D transform; the transient-vs-HB dynamic-range study
//! (Fig 1 / §2.1) uses the windowed spectrum utilities.
//!
//! # Planned transforms
//!
//! The hot paths go through an [`FftPlan`]: a per-length cache of the
//! radix-2 twiddle factors and, for non-power-of-two lengths, the
//! Bluestein chirp vectors together with the pre-FFT'd chirp kernel.
//! Plans are immutable, shared through a global cache ([`plan`]), and
//! execute in place against a caller-owned [`FftScratch`], so repeated
//! transforms of the same length allocate nothing. The batched
//! [`FftPlan::forward_strided`] / [`FftPlan::inverse_strided`] forms
//! transform many interleaved lines (one per circuit unknown) through a
//! single gather buffer.
//!
//! Every planned execution replays the exact floating-point operation
//! sequence of the unplanned loops (the twiddle tables are built with the
//! same `w *= wlen` recurrence the direct code uses), so planned and
//! unplanned results are bitwise identical — the property the parallel
//! determinism suite relies on. The pre-plan implementations survive in
//! the hidden [`reference`] module as the oracle for that equivalence.

use crate::Complex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// In-place radix-2 decimation-in-time FFT.
///
/// Builds the per-stage twiddles with the same `w ← w·wlen` recurrence
/// the cached [`FftPlan`] tables use and runs the shared butterfly
/// executor, so this unplanned entry point stays bitwise-identical to the
/// planned path under **both** kernel dispatch modes (scalar and AVX2).
///
/// # Panics
/// Panics if `data.len()` is not a power of two (use [`dft`] for arbitrary
/// lengths).
pub fn fft_pow2(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft_pow2: length must be a power of two");
    rfsim_telemetry::counter_add("fft.calls", 1);
    if n <= 1 {
        return;
    }
    Pow2Tables::build(n).forward(data);
}

/// In-place inverse radix-2 FFT (normalized by 1/n).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn ifft_pow2(data: &mut [Complex]) {
    let n = data.len();
    for z in data.iter_mut() {
        *z = z.conj();
    }
    fft_pow2(data);
    let scale = 1.0 / n as f64;
    for z in data.iter_mut() {
        *z = z.conj().scale(scale);
    }
}

/// Cached per-stage twiddle factors for the radix-2 butterfly: the
/// concatenation, stage by stage (`len = 2, 4, …, n`), of the `len/2`
/// values the recurrence `w ← w·wlen` produces. Every butterfly block of
/// a stage replays the same sequence, so one table per stage reproduces
/// [`fft_pow2`] bit for bit.
#[derive(Debug)]
struct Pow2Tables {
    n: usize,
    twiddles: Vec<Complex>,
}

impl Pow2Tables {
    fn build(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_polar(1.0, ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        Pow2Tables { n, twiddles }
    }

    /// In-place forward FFT from the cached tables; bitwise identical to
    /// [`fft_pow2`].
    fn forward(&self, data: &mut [Complex]) {
        let n = self.n;
        debug_assert_eq!(data.len(), n);
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        // Shared butterfly executor: scalar loop replays the historical
        // staged butterflies bitwise; the AVX2 arm packs two butterflies
        // per vector (tolerance-gated reassociation via FMA).
        crate::kernels::fft_stages(data, &self.twiddles);
    }

    /// In-place inverse FFT (normalized by 1/n); bitwise identical to
    /// [`ifft_pow2`].
    fn inverse(&self, data: &mut [Complex]) {
        let n = self.n;
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward(data);
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }

    /// Forward-transforms `count` interleaved lines directly on the
    /// strided layout (line `i` keeps sample `s` at `field[s·stride + i]`):
    /// row-swap bit reversal, then each butterfly runs across the batch
    /// axis, which is contiguous — no gather/scatter, one broadcast
    /// twiddle per butterfly. Per line this performs the same staged
    /// butterflies as [`Pow2Tables::forward`]; the SIMD complex product
    /// uses FMA, so results sit within kernel tolerance of the gathered
    /// path rather than bitwise on it.
    fn forward_strided_batch(&self, field: &mut [Complex], count: usize, stride: usize) {
        let n = self.n;
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                let (lo, hi) = row_pair_mut(field, stride, count, i, j);
                lo.swap_with_slice(hi);
            }
        }
        let mut off = 0usize;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let tw = &self.twiddles[off..off + half];
            let mut base = 0usize;
            while base < n {
                for k in 0..half {
                    let (lo, hi) = row_pair_mut(field, stride, count, base + k, base + k + half);
                    crate::kernels::cbutterfly_rows(lo, hi, tw[k]);
                }
                base += len;
            }
            off += half;
            len <<= 1;
        }
    }

    /// Inverse counterpart of [`Pow2Tables::forward_strided_batch`]
    /// (conjugate rows, forward, conjugate-and-scale by 1/n — the same
    /// structure as [`Pow2Tables::inverse`]).
    fn inverse_strided_batch(&self, field: &mut [Complex], count: usize, stride: usize) {
        let n = self.n;
        for s in 0..n {
            crate::kernels::cconj_scale(&mut field[s * stride..s * stride + count], 1.0);
        }
        self.forward_strided_batch(field, count, stride);
        let scale = 1.0 / n as f64;
        for s in 0..n {
            crate::kernels::cconj_scale(&mut field[s * stride..s * stride + count], scale);
        }
    }
}

/// Two disjoint row views (`r1 < r2`, first `count` entries each) of a
/// sample-major strided field.
fn row_pair_mut(
    field: &mut [Complex],
    stride: usize,
    count: usize,
    r1: usize,
    r2: usize,
) -> (&mut [Complex], &mut [Complex]) {
    debug_assert!(r1 < r2);
    let (a, b) = field.split_at_mut(r2 * stride);
    (&mut a[r1 * stride..r1 * stride + count], &mut b[..count])
}

/// Cached Bluestein machinery for one non-power-of-two length `n`: the
/// forward and inverse chirp vectors `w_k = exp(∓jπk²/n)` and the
/// frequency-domain chirp kernels (the FFT of the `b` sequence), computed
/// once, plus the shared radix-2 tables for the convolution length `m`.
#[derive(Debug)]
struct BluesteinTables {
    m: usize,
    pow2: Pow2Tables,
    chirp_fwd: Vec<Complex>,
    kernel_fwd: Vec<Complex>,
    chirp_inv: Vec<Complex>,
    kernel_inv: Vec<Complex>,
    /// Dense n-th root twiddles for small lengths (`n ≤ SMALL_DENSE_MAX`):
    /// `dense_fwd[j] = exp(−2πij/n)` and `dense_inv[j] = conj(·)/n` with
    /// the inverse normalization folded in. The batched strided executor
    /// applies these as a direct n×n matrix — for lengths this small that
    /// is fewer operations (and far less traffic) than the Bluestein
    /// convolution through two padded power-of-two FFTs.
    dense_fwd: Option<Vec<Complex>>,
    dense_inv: Option<Vec<Complex>>,
}

/// Largest length executed as a dense twiddle matrix by the batched
/// strided path. At `n` points the dense apply costs `n²` multiply-adds
/// per line versus roughly `m·log₂m + 3m` (with `m = 2^⌈log₂(2n−1)⌉`)
/// for Bluestein, so the dense form wins comfortably through every odd
/// harmonic-balance axis (`2h+1 ≤ 15` for `h ≤ 7`).
const SMALL_DENSE_MAX: usize = 16;

impl BluesteinTables {
    fn build(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let pow2 = Pow2Tables::build(m);
        let (chirp_fwd, kernel_fwd) = Self::chirp_and_kernel(n, m, &pow2, false);
        let (chirp_inv, kernel_inv) = Self::chirp_and_kernel(n, m, &pow2, true);
        let (dense_fwd, dense_inv) = if n <= SMALL_DENSE_MAX {
            let fwd: Vec<Complex> = (0..n)
                .map(|j| {
                    Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * j as f64 / n as f64)
                })
                .collect();
            let inv = fwd.iter().map(|w| w.conj().scale(1.0 / n as f64)).collect();
            (Some(fwd), Some(inv))
        } else {
            (None, None)
        };
        BluesteinTables {
            m,
            pow2,
            chirp_fwd,
            kernel_fwd,
            chirp_inv,
            kernel_inv,
            dense_fwd,
            dense_inv,
        }
    }

    fn chirp_and_kernel(
        n: usize,
        m: usize,
        pow2: &Pow2Tables,
        inverse: bool,
    ) -> (Vec<Complex>, Vec<Complex>) {
        let sign = if inverse { 1.0 } else { -1.0 };
        // Chirp w_k = exp(sign·jπk²/n); k² mod 2n avoids precision loss.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let kk = (k as u128 * k as u128) % (2 * n as u128);
                Complex::from_polar(1.0, sign * std::f64::consts::PI * kk as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        pow2.forward(&mut b);
        (chirp, b)
    }

    /// Unnormalized chirp-z transform of `data` in place; bitwise
    /// identical to the unplanned [`reference`] path.
    fn execute(&self, data: &mut [Complex], work: &mut Vec<Complex>, inverse: bool) {
        let n = data.len();
        let (chirp, kernel) = if inverse {
            (&self.chirp_inv, &self.kernel_inv)
        } else {
            (&self.chirp_fwd, &self.kernel_fwd)
        };
        work.clear();
        work.resize(self.m, Complex::ZERO);
        for k in 0..n {
            work[k] = data[k] * chirp[k];
        }
        self.pow2.forward(work);
        for (a, b) in work.iter_mut().zip(kernel) {
            *a *= *b;
        }
        self.pow2.inverse(work);
        for k in 0..n {
            data[k] = work[k] * chirp[k];
        }
    }

    /// Batched chirp-z transform of `count` interleaved lines: the chirp
    /// and kernel rows apply one constant per sample row, and both inner
    /// power-of-two convolution FFTs run through the batched strided
    /// executor. `work` holds the `m × count` convolution field.
    fn execute_strided_batch(
        &self,
        field: &mut [Complex],
        count: usize,
        stride: usize,
        work: &mut Vec<Complex>,
        inverse: bool,
    ) {
        let n = field.len() / stride;
        let (chirp, kernel) = if inverse {
            (&self.chirp_inv, &self.kernel_inv)
        } else {
            (&self.chirp_fwd, &self.kernel_fwd)
        };
        work.clear();
        work.resize(self.m * count, Complex::ZERO);
        for k in 0..n {
            crate::kernels::cmul_rows(
                &mut work[k * count..(k + 1) * count],
                &field[k * stride..k * stride + count],
                chirp[k],
            );
        }
        self.pow2.forward_strided_batch(work, count, count);
        for (s, &w) in kernel.iter().enumerate() {
            crate::kernels::cmul_row_inplace(&mut work[s * count..(s + 1) * count], w);
        }
        self.pow2.inverse_strided_batch(work, count, count);
        for k in 0..n {
            crate::kernels::cmul_rows(
                &mut field[k * stride..k * stride + count],
                &work[k * count..(k + 1) * count],
                chirp[k],
            );
        }
    }

    /// Batched direct DFT across `count` interleaved lines for small
    /// lengths: output row `k` is `Σₛ w^{ks}·(input row s)`, applied with
    /// contiguous row kernels over the batch axis. Returns `false` (and
    /// touches nothing) when the plan length is above [`SMALL_DENSE_MAX`].
    /// Inverse normalization is already folded into the twiddle table.
    fn dense_strided_batch(
        &self,
        field: &mut [Complex],
        count: usize,
        stride: usize,
        work: &mut Vec<Complex>,
        inverse: bool,
    ) -> bool {
        let Some(tw) = (if inverse { self.dense_inv.as_ref() } else { self.dense_fwd.as_ref() })
        else {
            return false;
        };
        let n = tw.len();
        work.clear();
        for s in 0..n {
            work.extend_from_slice(&field[s * stride..s * stride + count]);
        }
        for k in 0..n {
            let row = &mut field[k * stride..k * stride + count];
            crate::kernels::cmul_rows(row, &work[..count], tw[0]);
            for s in 1..n {
                crate::kernels::caxpy(tw[k * s % n], &work[s * count..(s + 1) * count], row);
            }
        }
        true
    }
}

#[derive(Debug)]
enum PlanKind {
    /// Length 0 or 1: the transform is the identity.
    Trivial,
    Pow2(Pow2Tables),
    Bluestein(Box<BluesteinTables>),
}

/// Reusable scratch for planned transforms: the Bluestein convolution
/// buffer and the gather buffer for strided batch execution. One scratch
/// serves plans of any length (buffers grow to the largest length seen
/// and are then reused allocation-free).
#[derive(Debug, Default)]
pub struct FftScratch {
    work: Vec<Complex>,
    line: Vec<Complex>,
}

impl FftScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the scratch holds, by capacity.
    pub fn bytes(&self) -> usize {
        (self.work.capacity() + self.line.capacity()) * std::mem::size_of::<Complex>()
    }
}

/// An execution plan for DFTs of one fixed length: cached twiddle
/// factors (and, for non-power-of-two lengths, Bluestein chirps plus the
/// pre-FFT'd chirp kernel) with in-place and strided/batched execute
/// methods. Obtain shared plans through [`plan`]; results are bitwise
/// identical to the unplanned [`dft`]/[`idft`] path.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

impl FftPlan {
    /// Builds a plan for length `n` without consulting the global cache.
    pub fn new(n: usize) -> Self {
        let kind = if n <= 1 {
            PlanKind::Trivial
        } else if n.is_power_of_two() {
            PlanKind::Pow2(Pow2Tables::build(n))
        } else {
            PlanKind::Bluestein(Box::new(BluesteinTables::build(n)))
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan executes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the empty transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT (unnormalized).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex], scratch: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "FftPlan::forward: length mismatch");
        rfsim_telemetry::counter_add("fft.calls", 1);
        crate::kernels::note_dispatch(1);
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Pow2(t) => t.forward(data),
            PlanKind::Bluestein(t) => t.execute(data, &mut scratch.work, false),
        }
    }

    /// In-place inverse DFT (normalized by 1/n).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex], scratch: &mut FftScratch) {
        assert_eq!(data.len(), self.n, "FftPlan::inverse: length mismatch");
        rfsim_telemetry::counter_add("fft.calls", 1);
        crate::kernels::note_dispatch(1);
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Pow2(t) => t.inverse(data),
            PlanKind::Bluestein(t) => {
                t.execute(data, &mut scratch.work, true);
                let scale = 1.0 / self.n as f64;
                for z in data.iter_mut() {
                    *z = z.scale(scale);
                }
            }
        }
    }

    /// Forward-transforms `count` interleaved lines of a sample-major
    /// field in place: line `i` has its sample `s` at `field[s·stride + i]`
    /// (so `field.len() == self.len()·stride` and `count ≤ stride`).
    /// Under scalar dispatch each line is gathered into scratch,
    /// transformed, and scattered back — bitwise identical to transforming
    /// the lines one by one. Under SIMD dispatch the butterflies run
    /// directly on the strided layout across the contiguous batch axis
    /// (within kernel tolerance of the per-line result, like every other
    /// SIMD kernel path).
    pub fn forward_strided(
        &self,
        field: &mut [Complex],
        count: usize,
        stride: usize,
        scratch: &mut FftScratch,
    ) {
        self.strided(field, count, stride, scratch, false);
    }

    /// Inverse counterpart of [`FftPlan::forward_strided`] (each line
    /// normalized by 1/n).
    pub fn inverse_strided(
        &self,
        field: &mut [Complex],
        count: usize,
        stride: usize,
        scratch: &mut FftScratch,
    ) {
        self.strided(field, count, stride, scratch, true);
    }

    fn strided(
        &self,
        field: &mut [Complex],
        count: usize,
        stride: usize,
        scratch: &mut FftScratch,
        inverse: bool,
    ) {
        assert!(count <= stride, "FftPlan: batch count {count} exceeds stride {stride}");
        assert_eq!(field.len(), self.n * stride, "FftPlan: strided field length mismatch");
        // Batched direct execution on the strided layout: butterflies and
        // chirp rows run across the contiguous batch axis instead of
        // gathering each line (which re-streams the whole field per line).
        // SIMD-path only — the scalar arm keeps the historical gather loop
        // and with it the bitwise reference behaviour.
        if crate::kernels::simd_active() && count > 1 {
            rfsim_telemetry::counter_add("fft.calls", count as u64);
            crate::kernels::note_dispatch(count as u64);
            match &self.kind {
                PlanKind::Trivial => {}
                PlanKind::Pow2(t) => {
                    if inverse {
                        t.inverse_strided_batch(field, count, stride);
                    } else {
                        t.forward_strided_batch(field, count, stride);
                    }
                }
                PlanKind::Bluestein(t) => {
                    if !t.dense_strided_batch(field, count, stride, &mut scratch.work, inverse) {
                        t.execute_strided_batch(field, count, stride, &mut scratch.work, inverse);
                        if inverse {
                            let scale = 1.0 / self.n as f64;
                            for s in 0..self.n {
                                crate::kernels::cscale(
                                    &mut field[s * stride..s * stride + count],
                                    scale,
                                );
                            }
                        }
                    }
                }
            }
            return;
        }
        // The line buffer leaves the scratch while the transform may use
        // the scratch's Bluestein buffer.
        let mut line = std::mem::take(&mut scratch.line);
        line.clear();
        line.resize(self.n, Complex::ZERO);
        for i in 0..count {
            for s in 0..self.n {
                line[s] = field[s * stride + i];
            }
            if inverse {
                self.inverse(&mut line, scratch);
            } else {
                self.forward(&mut line, scratch);
            }
            for s in 0..self.n {
                field[s * stride + i] = line[s];
            }
        }
        scratch.line = line;
    }
}

static PLAN_CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time view of the process-wide [`plan`] cache, for callers
/// (the `rfsim-serve` daemon, warm-cache tests) that need hit/miss state
/// without scraping telemetry counters. Unlike the `fft.plan_hits` /
/// `fft.plan_misses` telemetry counters, these totals accumulate whether
/// or not a telemetry sink is active, and they survive
/// `rfsim_telemetry::reset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache since process start.
    pub hits: u64,
    /// Lookups that had to build a new plan.
    pub misses: u64,
    /// Distinct transform lengths currently cached.
    pub plans: usize,
}

/// Returns the current [`plan`] cache statistics.
pub fn plan_cache_stats() -> PlanCacheStats {
    let plans =
        PLAN_CACHE.get().map_or(0, |c| c.lock().unwrap_or_else(PoisonError::into_inner).len());
    PlanCacheStats {
        hits: PLAN_HITS.load(Ordering::Relaxed),
        misses: PLAN_MISSES.load(Ordering::Relaxed),
        plans,
    }
}

/// Returns the shared transform plan for length `n`, building and caching
/// it on first use (keyed by length alone — a plan serves forward and
/// inverse, plain and strided execution). Lookups are counted as
/// `fft.plan_hits` / `fft.plan_misses` and in [`plan_cache_stats`]. Pair
/// the plan with a per-caller [`FftScratch`]; the plan itself is
/// immutable and thread-safe.
pub fn plan(n: usize) -> Arc<FftPlan> {
    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = map.get(&n) {
        PLAN_HITS.fetch_add(1, Ordering::Relaxed);
        rfsim_telemetry::counter_add("fft.plan_hits", 1);
        return Arc::clone(p);
    }
    PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
    rfsim_telemetry::counter_add("fft.plan_misses", 1);
    let p = Arc::new(FftPlan::new(n));
    map.insert(n, Arc::clone(&p));
    p
}

thread_local! {
    static TL_SCRATCH: RefCell<FftScratch> = RefCell::new(FftScratch::new());
}

fn with_scratch<R>(f: impl FnOnce(&mut FftScratch) -> R) -> R {
    TL_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Forward DFT of arbitrary length: radix-2 FFT when possible, otherwise
/// Bluestein's chirp-z algorithm (O(n log n)). Convenience wrapper over
/// the cached [`plan`] for the given length.
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    let p = plan(input.len());
    let mut out = input.to_vec();
    with_scratch(|s| p.forward(&mut out, s));
    out
}

/// Inverse DFT of arbitrary length (normalized by 1/n).
pub fn idft(input: &[Complex]) -> Vec<Complex> {
    let p = plan(input.len());
    let mut out = input.to_vec();
    with_scratch(|s| p.inverse(&mut out, s));
    out
}

/// Forward DFT of a real signal; returns the full complex spectrum. The
/// output buffer doubles as the transform workspace — the samples are
/// complexified directly into it and transformed in place, with no
/// intermediate collection.
pub fn dft_real(input: &[f64]) -> Vec<Complex> {
    let p = plan(input.len());
    let mut out: Vec<Complex> = input.iter().map(|&x| Complex::from_re(x)).collect();
    with_scratch(|s| p.forward(&mut out, s));
    out
}

/// In-place row–column 2-D DFT of a `rows × cols` row-major grid, given
/// the two plans (`row_plan` transforms each length-`cols` row,
/// `col_plan` each length-`rows` column).
///
/// # Panics
/// Panics on any shape/plan mismatch.
pub fn dft2_inplace(
    data: &mut [Complex],
    rows: usize,
    cols: usize,
    row_plan: &FftPlan,
    col_plan: &FftPlan,
    scratch: &mut FftScratch,
) {
    assert_eq!(data.len(), rows * cols, "dft2: size mismatch");
    assert_eq!(row_plan.len(), cols, "dft2: row plan length mismatch");
    assert_eq!(col_plan.len(), rows, "dft2: column plan length mismatch");
    for r in 0..rows {
        row_plan.forward(&mut data[r * cols..(r + 1) * cols], scratch);
    }
    col_plan.forward_strided(data, cols, cols, scratch);
}

/// Hann window of length `n` (periodic form, for spectral estimation).
pub fn hann_window(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.5 * (1.0 - (2.0 * std::f64::consts::PI * i as f64 / n as f64).cos())).collect()
}

/// Single-sided amplitude spectrum of a real signal (windowless), returning
/// `(frequency_bin_index, amplitude)` pairs for bins `0..n/2`.
///
/// Amplitudes are scaled so a pure tone `A·cos` reports `A`.
pub fn amplitude_spectrum(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let spec = dft_real(signal);
    let half = n / 2 + 1;
    (0..half)
        .map(|k| {
            let scale = if k == 0 || (n.is_multiple_of(2) && k == n / 2) { 1.0 } else { 2.0 };
            spec[k].abs() * scale / n as f64
        })
        .collect()
}

/// Converts an amplitude ratio to dB relative to a carrier amplitude
/// ("dBc"): `20·log₁₀(a / carrier)`. Returns `-inf` dB for zero amplitude.
pub fn dbc(amplitude: f64, carrier: f64) -> f64 {
    if amplitude <= 0.0 {
        f64::NEG_INFINITY
    } else {
        20.0 * (amplitude / carrier).log10()
    }
}

/// Unplanned reference implementations — the pre-plan code paths, kept
/// verbatim as the oracle for the planned-vs-unplanned equivalence tests.
#[doc(hidden)]
pub mod reference {
    use super::{fft_pow2, ifft_pow2, Complex};

    /// Forward DFT, recomputing twiddles and chirps on every call.
    pub fn dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        if n.is_power_of_two() {
            let mut d = input.to_vec();
            fft_pow2(&mut d);
            return d;
        }
        bluestein(input, false)
    }

    /// Inverse DFT (normalized by 1/n), recomputing per call.
    pub fn idft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        if n.is_power_of_two() {
            let mut d = input.to_vec();
            ifft_pow2(&mut d);
            return d;
        }
        let mut out = bluestein(input, true);
        let scale = 1.0 / n as f64;
        for z in &mut out {
            *z = z.scale(scale);
        }
        out
    }

    /// Bluestein chirp-z transform; `inverse` flips the twiddle sign
    /// (unnormalized).
    fn bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let m = (2 * n - 1).next_power_of_two();
        // Chirp w_k = exp(sign·jπk²/n); k² mod 2n avoids precision loss.
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let kk = (k as u128 * k as u128) % (2 * n as u128);
                Complex::from_polar(1.0, sign * std::f64::consts::PI * kk as f64 / n as f64)
            })
            .collect();
        let mut a = vec![Complex::ZERO; m];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
        }
        let mut b = vec![Complex::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        fft_pow2(&mut a);
        fft_pow2(&mut b);
        for k in 0..m {
            a[k] *= b[k];
        }
        ifft_pow2(&mut a);
        (0..n).map(|k| a[k] * chirp[k]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    fn assert_bitwise(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "bitwise mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// O(n²) reference DFT.
    fn slow_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Complex::from_polar(
                            1.0,
                            -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn fft_matches_slow_dft_pow2() {
        let x: Vec<Complex> =
            (0..16).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos())).collect();
        let fast = dft(&x);
        let slow = slow_dft(&x);
        assert_close(&fast, &slow, 1e-10);
    }

    #[test]
    fn bluestein_matches_slow_dft_odd_lengths() {
        for n in [3usize, 5, 7, 9, 15, 21, 33] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let fast = dft(&x);
            let slow = slow_dft(&x);
            assert_close(&fast, &slow, 1e-9);
        }
    }

    #[test]
    fn roundtrip_all_lengths() {
        for n in [1usize, 2, 3, 4, 5, 8, 12, 17, 32, 63] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, -(i as f64) * 0.25)).collect();
            let back = idft(&dft(&x));
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn planned_is_bitwise_identical_to_reference() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 21, 27, 31, 32, 63, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 1.3).cos()))
                .collect();
            assert_bitwise(&dft(&x), &reference::dft(&x));
            assert_bitwise(&idft(&x), &reference::idft(&x));
        }
    }

    #[test]
    fn strided_matches_per_line() {
        let (ns, count, stride) = (9usize, 3usize, 4usize);
        let p = plan(ns);
        let mut scratch = FftScratch::new();
        let field: Vec<Complex> = (0..ns * stride)
            .map(|i| Complex::new((i as f64 * 0.61).sin(), (i as f64 * 0.23).cos()))
            .collect();
        let mut batched = field.clone();
        p.forward_strided(&mut batched, count, stride, &mut scratch);
        for i in 0..stride {
            let line: Vec<Complex> = (0..ns).map(|s| field[s * stride + i]).collect();
            let expect = if i < count { reference::dft(&line) } else { line };
            let got: Vec<Complex> = (0..ns).map(|s| batched[s * stride + i]).collect();
            if crate::kernels::simd_active() && i < count {
                // The batched SIMD executor is tolerance-level against the
                // per-line path (FMA butterflies), like every SIMD kernel.
                assert_close(&got, &expect, 1e-12);
            } else {
                // Scalar dispatch gathers line by line: bitwise contract.
                assert_bitwise(&got, &expect);
            }
        }
    }

    #[test]
    fn plan_cache_returns_shared_plan() {
        let a = plan(37);
        let b = plan(37);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 37);
    }

    #[test]
    fn plan_cache_stats_track_hits_and_misses() {
        // A length no other test uses, so the first lookup is a miss
        // regardless of test ordering within the process.
        let before = plan_cache_stats();
        let _ = plan(4099);
        let mid = plan_cache_stats();
        assert!(mid.misses > before.misses, "first lookup must miss");
        let _ = plan(4099);
        let after = plan_cache_stats();
        assert!(after.hits > mid.hits, "second lookup must hit");
        assert!(after.plans >= 1);
    }

    #[test]
    fn pure_tone_lands_in_single_bin() {
        let n = 64;
        let f = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f as f64 * i as f64 / n as f64).cos())
            .collect();
        let amp = amplitude_spectrum(&x);
        assert!((amp[f] - 1.0).abs() < 1e-10);
        for (k, a) in amp.iter().enumerate() {
            if k != f {
                assert!(*a < 1e-10, "leakage at bin {k}: {a}");
            }
        }
    }

    #[test]
    fn dft2_matches_nested_1d() {
        let (r, c) = (4, 6);
        let grid: Vec<Complex> =
            (0..r * c).map(|i| Complex::new((i as f64 * 0.37).sin(), 0.0)).collect();
        let mut f2 = grid.clone();
        with_scratch(|s| dft2_inplace(&mut f2, r, c, &plan(c), &plan(r), s));
        // Rows, then columns, each by the 1-D reference DFT.
        let rows: Vec<Complex> = grid.chunks(c).flat_map(dft).collect();
        for col in 0..c {
            let line: Vec<Complex> = (0..r).map(|row| rows[row * c + col]).collect();
            let want = dft(&line);
            let got: Vec<Complex> = (0..r).map(|row| f2[row * c + col]).collect();
            assert_close(&got, &want, 1e-9);
        }
        // Parseval for the 2-D transform.
        let energy_t: f64 = grid.iter().map(|z| z.abs_sq()).sum();
        let energy_f: f64 = f2.iter().map(|z| z.abs_sq()).sum::<f64>() / (r * c) as f64;
        assert!((energy_t - energy_f).abs() < 1e-9);
    }

    #[test]
    fn parseval_1d() {
        let x: Vec<Complex> = (0..40).map(|i| Complex::new((i as f64).cos(), 0.0)).collect();
        let f = dft(&x);
        let et: f64 = x.iter().map(|z| z.abs_sq()).sum();
        let ef: f64 = f.iter().map(|z| z.abs_sq()).sum::<f64>() / 40.0;
        assert!((et - ef).abs() < 1e-9);
    }

    #[test]
    fn dbc_scaling() {
        assert!((dbc(0.1, 1.0) + 20.0).abs() < 1e-12);
        assert!((dbc(1.0, 1.0)).abs() < 1e-12);
        assert_eq!(dbc(0.0, 1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn hann_window_endpoints() {
        let w = hann_window(8);
        assert!(w[0].abs() < 1e-15);
        assert!((w[4] - 1.0).abs() < 1e-15);
    }
}
