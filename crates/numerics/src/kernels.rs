//! Runtime-dispatched SIMD slice kernels.
//!
//! This module is the single funnel through which the numerics hot loops
//! (GMRES orthogonalization, FFT butterflies, dense LU, IES³ low-rank
//! matvec, MoM panel quadrature) reach vectorized arithmetic. Dispatch is
//! resolved **once per process** into a cached table:
//!
//! * the CPU must report AVX2 + FMA at runtime (never true off x86-64,
//!   where the AVX2 module is not compiled at all), and
//! * the `RFSIM_SIMD` environment variable must not be `off`/`0`/`scalar`
//!   (the kill-switch for bitwise-reproducible runs).
//!
//! When either fails, every kernel falls back to a **portable scalar
//! loop that is bitwise-identical to the historical implementation**, so
//! the `RFSIM_THREADS` determinism harness keeps its guarantees under
//! `RFSIM_SIMD=off`. The SIMD paths reassociate reductions (multiple
//! accumulators, fused multiply-add) and are therefore held to the
//! tolerance-based agreement suite instead of bitwise equality.
//!
//! Call sites record which path they used through [`note_dispatch`],
//! which feeds the `simd.dispatch.{avx2,scalar}` telemetry counters at
//! op granularity (one count per plan execution / factorization / solver
//! entry, never per element).

use crate::Complex;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

/// The resolved kernel dispatch decision for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Whether the AVX2 + FMA fast path is active.
    pub simd: bool,
    /// Stable label for telemetry/artifacts: `"avx2"` or `"scalar"`.
    pub label: &'static str,
}

static DISPATCH: OnceLock<Dispatch> = OnceLock::new();

fn resolve_dispatch() -> Dispatch {
    let env_off = std::env::var("RFSIM_SIMD")
        .map(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "scalar"))
        .unwrap_or(false);
    let simd = !env_off && cpu_has_simd();
    Dispatch { simd, label: if simd { "avx2" } else { "scalar" } }
}

#[cfg(target_arch = "x86_64")]
fn cpu_has_simd() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has_simd() -> bool {
    false
}

/// Returns the cached dispatch table entry (resolving it on first use).
#[inline]
pub fn dispatch() -> Dispatch {
    *DISPATCH.get_or_init(resolve_dispatch)
}

/// True when the AVX2 + FMA fast path is selected for this process.
#[inline]
pub fn simd_active() -> bool {
    dispatch().simd
}

/// Telemetry counter label for the active path (`"avx2"` / `"scalar"`).
#[inline]
pub fn dispatch_label() -> &'static str {
    dispatch().label
}

/// Records `ops` kernel dispatches on the active path's telemetry
/// counter. Called once per high-level operation (an FFT execution, an
/// LU factorization, a solver entry, an assembly pass) — not per element.
#[inline]
pub fn note_dispatch(ops: u64) {
    if simd_active() {
        rfsim_telemetry::counter_add("simd.dispatch.avx2", ops);
    } else {
        rfsim_telemetry::counter_add("simd.dispatch.scalar", ops);
    }
}

// ----------------------------------------------------------------------
// Real (f64) kernels
// ----------------------------------------------------------------------

/// `Σ aᵢ·bᵢ`. Scalar fallback matches the historical `numerics::dot`
/// evaluation order bitwise.
#[inline]
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        return unsafe { avx2::dot_f64(a, b) };
    }
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `Σ vᵢ²` (squared 2-norm, no square root). Scalar fallback matches the
/// historical `numerics::norm2` accumulation bitwise.
#[inline]
pub fn norm2_sq_f64(v: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        return unsafe { avx2::norm2_sq_f64(v) };
    }
    v.iter().map(|x| x * x).sum()
}

/// `y ← y + α·x`. Scalar fallback is the historical `numerics::axpy`
/// loop bitwise.
#[inline]
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::axpy_f64(alpha, x, y) };
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// `v ← s·v`. Element-wise multiply; both paths agree bitwise (no
/// reassociation), but the scalar loop is kept as the reference.
#[inline]
pub fn scale_f64(v: &mut [f64], s: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::scale_f64(v, s) };
        return;
    }
    for x in v.iter_mut() {
        *x *= s;
    }
}

// ----------------------------------------------------------------------
// Complex kernels
// ----------------------------------------------------------------------

/// Conjugated dot product `Σ conj(aᵢ)·bᵢ`. Scalar fallback matches the
/// historical `complex::cdot` / `scalar::gdot` loop bitwise.
#[inline]
pub fn cdot(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        return unsafe { avx2::cdot(a, b) };
    }
    let mut acc = Complex::ZERO;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x.conj() * *y;
    }
    acc
}

/// Unconjugated dot product `Σ aᵢ·bᵢ` (dense matvec / triangular-solve
/// row kernel). Scalar fallback matches the historical `Mat::matvec_into`
/// accumulation bitwise.
#[inline]
pub fn cdotu(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdotu length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        return unsafe { avx2::cdotu(a, b) };
    }
    let mut acc = Complex::ZERO;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += *x * *y;
    }
    acc
}

/// `Σ (reᵢ² + imᵢ²)` (squared 2-norm, no square root). Scalar fallback
/// matches the historical `complex::cnorm2` accumulation bitwise.
#[inline]
pub fn cnorm2_sq(v: &[Complex]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        return unsafe { avx2::cnorm2_sq(v) };
    }
    v.iter().map(|z| z.abs_sq()).sum()
}

/// `y ← y + α·x` over complex slices. Scalar fallback matches the
/// historical `complex::caxpy` loop bitwise.
#[inline]
pub fn caxpy(alpha: Complex, x: &[Complex], y: &mut [Complex]) {
    assert_eq!(x.len(), y.len(), "caxpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::caxpy(alpha, x, y) };
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * *xi;
    }
}

/// `v ← s·v` (real scale of a complex slice, the MGS normalization step).
#[inline]
pub fn cscale(v: &mut [Complex], s: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::cscale(v, s) };
        return;
    }
    for z in v.iter_mut() {
        z.re *= s;
        z.im *= s;
    }
}

// ----------------------------------------------------------------------
// FFT butterfly stages
// ----------------------------------------------------------------------

/// Runs every radix-2 butterfly stage over bit-reversed `data` using the
/// per-stage concatenated twiddle layout produced by `Pow2Tables::build`.
/// Shared by the planned FFT path and `fft_pow2` so that planned and
/// reference transforms stay bitwise-identical to each other in *both*
/// dispatch modes. The scalar loop is the historical staged butterfly
/// bitwise.
#[inline]
pub(crate) fn fft_stages(data: &mut [Complex], twiddles: &[Complex]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::fft_stages(data, twiddles) };
        return;
    }
    let n = data.len();
    let mut off = 0usize;
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let tw = &twiddles[off..off + half];
        let mut base = 0usize;
        while base < n {
            let (lo, hi) = data[base..base + len].split_at_mut(half);
            for k in 0..half {
                let u = lo[k];
                let v = hi[k] * tw[k];
                lo[k] = u + v;
                hi[k] = u - v;
            }
            base += len;
        }
        off += half;
        len <<= 1;
    }
}

/// One radix-2 butterfly across two disjoint rows of a strided field with
/// a shared twiddle (`v = w·hi[i]; hi[i] = lo[i] − v; lo[i] += v`). Used
/// by the batched strided FFT execute path, where the batch axis is
/// contiguous in memory.
#[inline]
pub(crate) fn cbutterfly_rows(lo: &mut [Complex], hi: &mut [Complex], w: Complex) {
    debug_assert_eq!(lo.len(), hi.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::cbutterfly_rows(lo, hi, w) };
        return;
    }
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let v = *h * w;
        let u = *l;
        *l = u + v;
        *h = u - v;
    }
}

/// `dst[i] = w·src[i]` with a single constant complex factor (Bluestein
/// chirp/kernel row application).
#[inline]
pub(crate) fn cmul_rows(dst: &mut [Complex], src: &[Complex], w: Complex) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime; the two
        // slices are distinct borrows, hence non-overlapping.
        unsafe { avx2::cmul_rows(dst.as_mut_ptr(), src.as_ptr(), dst.len(), w) };
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = *s * w;
    }
}

/// In-place `row[i] ← w·row[i]` with one constant complex factor.
#[inline]
pub(crate) fn cmul_row_inplace(row: &mut [Complex], w: Complex) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime; src == dst
        // is full (not partial) overlap, which the kernel's load-compute-
        // store per chunk handles.
        unsafe { avx2::cmul_rows(row.as_mut_ptr(), row.as_ptr(), row.len(), w) };
        return;
    }
    for z in row.iter_mut() {
        *z *= w;
    }
}

/// `v[i] ← conj(v[i])·s` — the conjugate-and-scale passes bracketing an
/// inverse FFT run through the forward butterflies (`s = 1` for the
/// prologue conjugation).
#[inline]
pub(crate) fn cconj_scale(v: &mut [Complex], s: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::cconj_scale(v, s) };
        return;
    }
    for z in v.iter_mut() {
        *z = z.conj().scale(s);
    }
}

// ----------------------------------------------------------------------
// Vector transcendentals (MoM panel-quadrature tiles)
// ----------------------------------------------------------------------

/// In-place `asinh` over a slice. SIMD path is a four-lane ln/artanh
/// evaluation (~2 ulp); scalar path is `f64::asinh`.
#[inline]
pub fn asinh_slice(v: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::asinh_slice(v) };
        return;
    }
    for x in v.iter_mut() {
        *x = x.asinh();
    }
}

/// In-place `atan` over a slice. SIMD path is a four-lane Cephes-style
/// rational evaluation (~1 ulp); scalar path is `f64::atan`.
#[inline]
pub fn atan_slice(v: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` verified AVX2 + FMA at runtime.
        unsafe { avx2::atan_slice(v) };
        return;
    }
    for x in v.iter_mut() {
        *x = x.atan();
    }
}
