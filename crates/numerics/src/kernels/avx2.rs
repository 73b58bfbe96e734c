//! AVX2 + FMA implementations of the hot slice kernels.
//!
//! Everything here is `unsafe` and gated on `#[target_feature]`: callers
//! must only reach these functions through the dispatch layer in
//! [`crate::kernels`], which verifies AVX2 + FMA availability at runtime
//! (and honours the `RFSIM_SIMD` kill-switch) before selecting this path.
//!
//! `Complex` is `#[repr(C)]` with `re` before `im`, so a `&[Complex]` is
//! an interleaved `[re, im, re, im, …]` `f64` sequence — each 256-bit
//! vector holds two complex numbers. Reductions use multiple independent
//! accumulators to hide FMA latency; lane sums reassociate relative to
//! the scalar loops, which is exactly why this whole module sits behind
//! the tolerance-gated `simd` dispatch and never runs when bitwise
//! reproduction of the scalar path is requested.

use crate::Complex;
use core::arch::x86_64::*;

/// Horizontal sum of the four lanes.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let s = _mm_add_pd(lo, hi);
    _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
}

/// Reduces a `[re₀, im₀, re₁, im₁]` accumulator to one complex number.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_complex(v: __m256d) -> Complex {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let s = _mm_add_pd(lo, hi);
    Complex::new(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)))
}

/// `Σ aᵢ·bᵢ` over real slices (also serves `Σ conj(a)·b` for reals).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
        acc1 =
            _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i + 4)), _mm256_loadu_pd(pb.add(i + 4)), acc1);
        acc2 =
            _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i + 8)), _mm256_loadu_pd(pb.add(i + 8)), acc2);
        acc3 =
            _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i + 12)), _mm256_loadu_pd(pb.add(i + 12)), acc3);
        i += 16;
    }
    while i + 4 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
        i += 4;
    }
    let mut s = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
    while i < n {
        s += *pa.add(i) * *pb.add(i);
        i += 1;
    }
    s
}

/// `Σ vᵢ²` over a real slice (no square root).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn norm2_sq_f64(v: &[f64]) -> f64 {
    let n = v.len();
    let p = v.as_ptr();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 8 <= n {
        let x0 = _mm256_loadu_pd(p.add(i));
        let x1 = _mm256_loadu_pd(p.add(i + 4));
        acc0 = _mm256_fmadd_pd(x0, x0, acc0);
        acc1 = _mm256_fmadd_pd(x1, x1, acc1);
        i += 8;
    }
    while i + 4 <= n {
        let x = _mm256_loadu_pd(p.add(i));
        acc0 = _mm256_fmadd_pd(x, x, acc0);
        i += 4;
    }
    let mut s = hsum(_mm256_add_pd(acc0, acc1));
    while i < n {
        let x = *p.add(i);
        s += x * x;
        i += 1;
    }
    s
}

/// `y ← y + α·x` over real slices.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0usize;
    while i + 8 <= n {
        let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        let y1 =
            _mm256_fmadd_pd(av, _mm256_loadu_pd(px.add(i + 4)), _mm256_loadu_pd(py.add(i + 4)));
        _mm256_storeu_pd(py.add(i), y0);
        _mm256_storeu_pd(py.add(i + 4), y1);
        i += 8;
    }
    while i + 4 <= n {
        let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
        _mm256_storeu_pd(py.add(i), y0);
        i += 4;
    }
    while i < n {
        *py.add(i) += alpha * *px.add(i);
        i += 1;
    }
}

/// `v ← s·v` over a real slice.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn scale_f64(v: &mut [f64], s: f64) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let sv = _mm256_set1_pd(s);
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(p.add(i), _mm256_mul_pd(sv, _mm256_loadu_pd(p.add(i))));
        i += 4;
    }
    while i < n {
        *p.add(i) *= s;
        i += 1;
    }
}

/// Conjugated complex dot product `Σ conj(aᵢ)·bᵢ`.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cdot(a: &[Complex], b: &[Complex]) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr() as *const f64;
    let pb = b.as_ptr() as *const f64;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0usize; // complex index
    while i + 4 <= n {
        let av0 = _mm256_loadu_pd(pa.add(2 * i));
        let bv0 = _mm256_loadu_pd(pb.add(2 * i));
        let av1 = _mm256_loadu_pd(pa.add(2 * i + 4));
        let bv1 = _mm256_loadu_pd(pb.add(2 * i + 4));
        // conj(a)·b: re = ar·br + ai·bi (even lanes, +), im = ar·bi − ai·br
        // (odd lanes, −) → fmsubadd(a_re, b, a_im·b_swap).
        let t0 = _mm256_mul_pd(_mm256_permute_pd(av0, 0xF), _mm256_permute_pd(bv0, 0x5));
        let t1 = _mm256_mul_pd(_mm256_permute_pd(av1, 0xF), _mm256_permute_pd(bv1, 0x5));
        acc0 = _mm256_add_pd(acc0, _mm256_fmsubadd_pd(_mm256_movedup_pd(av0), bv0, t0));
        acc1 = _mm256_add_pd(acc1, _mm256_fmsubadd_pd(_mm256_movedup_pd(av1), bv1, t1));
        i += 4;
    }
    while i + 2 <= n {
        let av = _mm256_loadu_pd(pa.add(2 * i));
        let bv = _mm256_loadu_pd(pb.add(2 * i));
        let t = _mm256_mul_pd(_mm256_permute_pd(av, 0xF), _mm256_permute_pd(bv, 0x5));
        acc0 = _mm256_add_pd(acc0, _mm256_fmsubadd_pd(_mm256_movedup_pd(av), bv, t));
        i += 2;
    }
    let mut s = hsum_complex(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += (*a.get_unchecked(i)).conj() * *b.get_unchecked(i);
        i += 1;
    }
    s
}

/// Unconjugated complex dot product `Σ aᵢ·bᵢ` (matvec / triangular-solve
/// row kernel).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cdotu(a: &[Complex], b: &[Complex]) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr() as *const f64;
    let pb = b.as_ptr() as *const f64;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 4 <= n {
        let av0 = _mm256_loadu_pd(pa.add(2 * i));
        let bv0 = _mm256_loadu_pd(pb.add(2 * i));
        let av1 = _mm256_loadu_pd(pa.add(2 * i + 4));
        let bv1 = _mm256_loadu_pd(pb.add(2 * i + 4));
        // a·b: re = ar·br − ai·bi (even, −), im = ar·bi + ai·br (odd, +)
        // → fmaddsub(a_re, b, a_im·b_swap).
        let t0 = _mm256_mul_pd(_mm256_permute_pd(av0, 0xF), _mm256_permute_pd(bv0, 0x5));
        let t1 = _mm256_mul_pd(_mm256_permute_pd(av1, 0xF), _mm256_permute_pd(bv1, 0x5));
        acc0 = _mm256_add_pd(acc0, _mm256_fmaddsub_pd(_mm256_movedup_pd(av0), bv0, t0));
        acc1 = _mm256_add_pd(acc1, _mm256_fmaddsub_pd(_mm256_movedup_pd(av1), bv1, t1));
        i += 4;
    }
    while i + 2 <= n {
        let av = _mm256_loadu_pd(pa.add(2 * i));
        let bv = _mm256_loadu_pd(pb.add(2 * i));
        let t = _mm256_mul_pd(_mm256_permute_pd(av, 0xF), _mm256_permute_pd(bv, 0x5));
        acc0 = _mm256_add_pd(acc0, _mm256_fmaddsub_pd(_mm256_movedup_pd(av), bv, t));
        i += 2;
    }
    let mut s = hsum_complex(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += *a.get_unchecked(i) * *b.get_unchecked(i);
        i += 1;
    }
    s
}

/// `y ← y + α·x` over complex slices.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn caxpy(alpha: Complex, x: &[Complex], y: &mut [Complex]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let px = x.as_ptr() as *const f64;
    let py = y.as_mut_ptr() as *mut f64;
    let ar = _mm256_set1_pd(alpha.re);
    let ai = _mm256_set1_pd(alpha.im);
    let mut i = 0usize;
    while i + 4 <= n {
        let xv0 = _mm256_loadu_pd(px.add(2 * i));
        let xv1 = _mm256_loadu_pd(px.add(2 * i + 4));
        let t0 = _mm256_mul_pd(ai, _mm256_permute_pd(xv0, 0x5));
        let t1 = _mm256_mul_pd(ai, _mm256_permute_pd(xv1, 0x5));
        // α·x: re = αr·xr − αi·xi (even, −), im = αr·xi + αi·xr (odd, +).
        let p0 = _mm256_fmaddsub_pd(ar, xv0, t0);
        let p1 = _mm256_fmaddsub_pd(ar, xv1, t1);
        _mm256_storeu_pd(py.add(2 * i), _mm256_add_pd(_mm256_loadu_pd(py.add(2 * i)), p0));
        _mm256_storeu_pd(py.add(2 * i + 4), _mm256_add_pd(_mm256_loadu_pd(py.add(2 * i + 4)), p1));
        i += 4;
    }
    while i + 2 <= n {
        let xv = _mm256_loadu_pd(px.add(2 * i));
        let t = _mm256_mul_pd(ai, _mm256_permute_pd(xv, 0x5));
        let prod = _mm256_fmaddsub_pd(ar, xv, t);
        _mm256_storeu_pd(py.add(2 * i), _mm256_add_pd(_mm256_loadu_pd(py.add(2 * i)), prod));
        i += 2;
    }
    while i < n {
        *y.get_unchecked_mut(i) += alpha * *x.get_unchecked(i);
        i += 1;
    }
}

/// `v ← s·v` (real scale) over a complex slice.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cscale(v: &mut [Complex], s: f64) {
    let doubled =
        core::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut f64, v.len().wrapping_mul(2));
    scale_f64(doubled, s);
}

/// `Σ (reᵢ² + imᵢ²)` over a complex slice.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cnorm2_sq(v: &[Complex]) -> f64 {
    let doubled = core::slice::from_raw_parts(v.as_ptr() as *const f64, v.len().wrapping_mul(2));
    norm2_sq_f64(doubled)
}

/// Complex lane product `v·t` for two packed complexes per register.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn cmul(v: __m256d, t: __m256d) -> __m256d {
    let im = _mm256_mul_pd(_mm256_permute_pd(v, 0xF), _mm256_permute_pd(t, 0x5));
    _mm256_fmaddsub_pd(_mm256_movedup_pd(v), t, im)
}

/// Runs every radix-2 butterfly stage over bit-reversed `data`, using the
/// per-stage concatenated twiddles laid out exactly as
/// `Pow2Tables::build` produces them. Two butterflies per 256-bit vector;
/// the first stage (unit twiddle) runs as a shuffled add/sub pass.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn fft_stages(data: &mut [Complex], twiddles: &[Complex]) {
    let n = data.len();
    let pd = data.as_mut_ptr() as *mut f64;
    // Stage len = 2: tw = [1], butterflies on adjacent pairs. Processes two
    // butterflies (four complexes) per iteration via 128-bit lane shuffles.
    let mut i = 0usize;
    while i + 4 <= n {
        let a = _mm256_loadu_pd(pd.add(2 * i)); // [d0, d1]
        let b = _mm256_loadu_pd(pd.add(2 * i + 4)); // [d2, d3]
        let u = _mm256_permute2f128_pd(a, b, 0x20); // [d0, d2]
        let v = _mm256_permute2f128_pd(a, b, 0x31); // [d1, d3]
        let s = _mm256_add_pd(u, v);
        let d = _mm256_sub_pd(u, v);
        _mm256_storeu_pd(pd.add(2 * i), _mm256_permute2f128_pd(s, d, 0x20));
        _mm256_storeu_pd(pd.add(2 * i + 4), _mm256_permute2f128_pd(s, d, 0x31));
        i += 4;
    }
    if i + 2 <= n {
        let u = *data.get_unchecked(i);
        let v = *data.get_unchecked(i + 1);
        *data.get_unchecked_mut(i) = u + v;
        *data.get_unchecked_mut(i + 1) = u - v;
    }
    // Remaining stages: len = 4, 8, …, n. half = len/2 ≥ 2 complexes, so
    // the vector loop covers the whole butterfly range with no tail.
    let mut off = 1usize; // skip the len = 2 stage's single twiddle
    let mut len = 4usize;
    while len <= n {
        let half = len / 2;
        let ptw = twiddles.as_ptr().add(off) as *const f64;
        let mut base = 0usize;
        while base < n {
            let plo = pd.add(2 * base);
            let phi = pd.add(2 * (base + half));
            let mut k = 0usize;
            while k < half {
                let u = _mm256_loadu_pd(plo.add(2 * k));
                let v = _mm256_loadu_pd(phi.add(2 * k));
                let tw = _mm256_loadu_pd(ptw.add(2 * k));
                let vt = cmul(v, tw);
                _mm256_storeu_pd(plo.add(2 * k), _mm256_add_pd(u, vt));
                _mm256_storeu_pd(phi.add(2 * k), _mm256_sub_pd(u, vt));
                k += 2;
            }
            base += len;
        }
        off += half;
        len <<= 1;
    }
}

/// One radix-2 butterfly applied across two disjoint rows of a strided
/// field with a single shared twiddle: `v = w·hi[i]; hi[i] = lo[i] − v;
/// lo[i] = lo[i] + v`. The batch axis is contiguous, so this needs no
/// shuffles beyond the constant-twiddle complex product.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cbutterfly_rows(lo: &mut [Complex], hi: &mut [Complex], w: Complex) {
    debug_assert_eq!(lo.len(), hi.len());
    let n = lo.len();
    let plo = lo.as_mut_ptr() as *mut f64;
    let phi = hi.as_mut_ptr() as *mut f64;
    let wr = _mm256_set1_pd(w.re);
    let wi = _mm256_set1_pd(w.im);
    let mut i = 0usize;
    while i + 4 <= n {
        let h0 = _mm256_loadu_pd(phi.add(2 * i));
        let h1 = _mm256_loadu_pd(phi.add(2 * i + 4));
        let v0 = _mm256_fmaddsub_pd(wr, h0, _mm256_mul_pd(wi, _mm256_permute_pd(h0, 0x5)));
        let v1 = _mm256_fmaddsub_pd(wr, h1, _mm256_mul_pd(wi, _mm256_permute_pd(h1, 0x5)));
        let u0 = _mm256_loadu_pd(plo.add(2 * i));
        let u1 = _mm256_loadu_pd(plo.add(2 * i + 4));
        _mm256_storeu_pd(plo.add(2 * i), _mm256_add_pd(u0, v0));
        _mm256_storeu_pd(plo.add(2 * i + 4), _mm256_add_pd(u1, v1));
        _mm256_storeu_pd(phi.add(2 * i), _mm256_sub_pd(u0, v0));
        _mm256_storeu_pd(phi.add(2 * i + 4), _mm256_sub_pd(u1, v1));
        i += 4;
    }
    while i + 2 <= n {
        let h = _mm256_loadu_pd(phi.add(2 * i));
        let v = _mm256_fmaddsub_pd(wr, h, _mm256_mul_pd(wi, _mm256_permute_pd(h, 0x5)));
        let u = _mm256_loadu_pd(plo.add(2 * i));
        _mm256_storeu_pd(plo.add(2 * i), _mm256_add_pd(u, v));
        _mm256_storeu_pd(phi.add(2 * i), _mm256_sub_pd(u, v));
        i += 2;
    }
    while i < n {
        let v = w * *hi.get_unchecked(i);
        let u = *lo.get_unchecked(i);
        *lo.get_unchecked_mut(i) = u + v;
        *hi.get_unchecked_mut(i) = u - v;
        i += 1;
    }
}

/// `dst[i] = w·src[i]` with one constant complex factor (Bluestein chirp
/// and kernel rows). `dst` and `src` may be the same row via
/// [`cmul_row_inplace`]'s raw-pointer call, never partially overlapping.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cmul_rows(dst: *mut Complex, src: *const Complex, n: usize, w: Complex) {
    let pd = dst as *mut f64;
    let ps = src as *const f64;
    let wr = _mm256_set1_pd(w.re);
    let wi = _mm256_set1_pd(w.im);
    let mut i = 0usize;
    while i + 2 <= n {
        let s = _mm256_loadu_pd(ps.add(2 * i));
        let p = _mm256_fmaddsub_pd(wr, s, _mm256_mul_pd(wi, _mm256_permute_pd(s, 0x5)));
        _mm256_storeu_pd(pd.add(2 * i), p);
        i += 2;
    }
    while i < n {
        *dst.add(i) = w * *src.add(i);
        i += 1;
    }
}

/// `v[i] ← conj(v[i])·s` (the inverse-FFT epilogue); `s = 1` gives the
/// bare conjugation of the prologue.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn cconj_scale(v: &mut [Complex], s: f64) {
    let n = v.len();
    let pv = v.as_mut_ptr() as *mut f64;
    let flip = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); // negates im lanes
    let sv = _mm256_set1_pd(s);
    let mut i = 0usize;
    while i + 2 <= n {
        let x = _mm256_xor_pd(_mm256_loadu_pd(pv.add(2 * i)), flip);
        _mm256_storeu_pd(pv.add(2 * i), _mm256_mul_pd(x, sv));
        i += 2;
    }
    while i < n {
        let z = *v.get_unchecked(i);
        *v.get_unchecked_mut(i) = z.conj().scale(s);
        i += 1;
    }
}

// --- Vector transcendentals for the panel-quadrature tiles -------------
//
// `asinh` and `atan` dominate the analytic rectangle integral behind MoM
// assembly. These are classic Cephes/fdlibm-style evaluations lifted to
// four lanes: ln() via exponent/mantissa split plus an artanh polynomial,
// atan() via the three-interval rational reduction.

const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LN2: f64 = std::f64::consts::LN_2;
const SQRT2: f64 = std::f64::consts::SQRT_2;

/// `2·artanh(z)` by odd Taylor polynomial, accurate to ~1 ulp for
/// `|z| ≤ 0.24` (covers both the ln mantissa range and the small-asinh
/// reduction).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn artanh2(z: __m256d) -> __m256d {
    let w = _mm256_mul_pd(z, z);
    let mut p = _mm256_set1_pd(1.0 / 25.0);
    for c in [
        1.0 / 23.0,
        1.0 / 21.0,
        1.0 / 19.0,
        1.0 / 17.0,
        1.0 / 15.0,
        1.0 / 13.0,
        1.0 / 11.0,
        1.0 / 9.0,
        1.0 / 7.0,
        1.0 / 5.0,
        1.0 / 3.0,
    ] {
        p = _mm256_fmadd_pd(p, w, _mm256_set1_pd(c));
    }
    let z2 = _mm256_add_pd(z, z);
    // 2·artanh(z) = 2z + (2z·w)·P(w), one rounding on the outer sum.
    _mm256_fmadd_pd(_mm256_mul_pd(z2, w), p, z2)
}

/// Natural log, four lanes. Valid for normal, positive, finite inputs
/// (all this module's callers guarantee that); ~1–2 ulp.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn ln_pd(x: __m256d) -> __m256d {
    let xi = _mm256_castpd_si256(x);
    let e_raw = _mm256_and_si256(_mm256_srli_epi64(xi, 52), _mm256_set1_epi64x(0x7ff));
    // int64 → f64 via the 2⁵²+2⁵¹ magic-constant trick (|e| « 2⁵¹).
    let magic = _mm256_set1_epi64x(0x4338_0000_0000_0000);
    let e_biased = _mm256_add_epi64(_mm256_sub_epi64(e_raw, _mm256_set1_epi64x(1023)), magic);
    let mut e = _mm256_sub_pd(_mm256_castsi256_pd(e_biased), _mm256_set1_pd(6755399441055744.0));
    // Mantissa remapped to [1, 2), then folded into [√½·√2 bounds].
    let mant = _mm256_or_si256(
        _mm256_and_si256(xi, _mm256_set1_epi64x(0x000f_ffff_ffff_ffff)),
        _mm256_set1_epi64x(0x3ff0_0000_0000_0000),
    );
    let mut m = _mm256_castsi256_pd(mant);
    let fold = _mm256_cmp_pd::<_CMP_GT_OQ>(m, _mm256_set1_pd(SQRT2));
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
    e = _mm256_add_pd(e, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));
    let one = _mm256_set1_pd(1.0);
    let z = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
    let r = artanh2(z);
    _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_HI), _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_LO), r))
}

/// Four-lane `asinh`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn asinh_pd(t: __m256d) -> __m256d {
    let sign_bit = _mm256_set1_pd(-0.0);
    let sign = _mm256_and_pd(t, sign_bit);
    let u = _mm256_andnot_pd(sign_bit, t);
    let one = _mm256_set1_pd(1.0);
    let big = _mm256_cmp_pd::<_CMP_GT_OQ>(u, _mm256_set1_pd(268_435_456.0)); // 2²⁸
    let small = _mm256_cmp_pd::<_CMP_LT_OQ>(u, _mm256_set1_pd(0.5));
    let u2 = _mm256_mul_pd(u, u);
    let sq = _mm256_sqrt_pd(_mm256_add_pd(u2, one));
    // ln branch: asinh(u) = ln(u + √(u²+1)), or ln(u) + ln2 for huge u
    // (where u² would overflow).
    let ln_arg = _mm256_blendv_pd(_mm256_add_pd(u, sq), u, big);
    let r_ln = _mm256_add_pd(ln_pd(ln_arg), _mm256_and_pd(big, _mm256_set1_pd(LN2)));
    // Small branch (u < 0.5): log1p without cancellation —
    // s = u + u²/(1+√(1+u²)), asinh = ln(1+s) = 2·artanh(s/(2+s)).
    let s = _mm256_add_pd(u, _mm256_div_pd(u2, _mm256_add_pd(one, sq)));
    let z = _mm256_div_pd(s, _mm256_add_pd(_mm256_set1_pd(2.0), s));
    let r_small = artanh2(z);
    _mm256_or_pd(_mm256_blendv_pd(r_ln, r_small, small), sign)
}

// Cephes (atan.c) rational coefficients for double-precision atan.
const ATAN_P: [f64; 5] = [
    -8.750_608_600_031_904e-1,
    -1.615_753_718_733_365e1,
    -7.500_855_792_314_705e1,
    -1.228_866_684_490_136_2e2,
    -6.485_021_904_942_025e1,
];
const ATAN_Q: [f64; 5] = [
    2.485_846_490_142_306_3e1,
    1.650_270_098_316_988_5e2,
    4.328_810_604_912_903e2,
    4.853_903_996_359_137e2,
    1.945_506_571_482_614e2,
];
const T3P8: f64 = 2.414_213_562_373_095_f64;
const MOREBITS: f64 = 6.123_233_995_736_766e-17;

/// Four-lane `atan`, Cephes three-interval reduction, ~1 ulp.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn atan_pd(t: __m256d) -> __m256d {
    let sign_bit = _mm256_set1_pd(-0.0);
    let sign = _mm256_and_pd(t, sign_bit);
    let u = _mm256_andnot_pd(sign_bit, t);
    let one = _mm256_set1_pd(1.0);
    let big = _mm256_cmp_pd::<_CMP_GT_OQ>(u, _mm256_set1_pd(T3P8));
    let mid = _mm256_andnot_pd(big, _mm256_cmp_pd::<_CMP_GT_OQ>(u, _mm256_set1_pd(0.66)));
    // One blended division serves all three reductions:
    //   base:  x = u            mid: x = (u−1)/(u+1)   big: x = −1/u
    let num = _mm256_blendv_pd(
        _mm256_blendv_pd(u, _mm256_sub_pd(u, one), mid),
        _mm256_set1_pd(-1.0),
        big,
    );
    let den = _mm256_blendv_pd(_mm256_blendv_pd(one, _mm256_add_pd(u, one), mid), u, big);
    let x = _mm256_div_pd(num, den);
    let y_base = _mm256_blendv_pd(
        _mm256_blendv_pd(_mm256_setzero_pd(), _mm256_set1_pd(std::f64::consts::FRAC_PI_4), mid),
        _mm256_set1_pd(std::f64::consts::FRAC_PI_2),
        big,
    );
    let extra = _mm256_blendv_pd(
        _mm256_blendv_pd(_mm256_setzero_pd(), _mm256_set1_pd(0.5 * MOREBITS), mid),
        _mm256_set1_pd(MOREBITS),
        big,
    );
    let z = _mm256_mul_pd(x, x);
    let mut p = _mm256_set1_pd(ATAN_P[0]);
    for c in &ATAN_P[1..] {
        p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(*c));
    }
    let mut q = _mm256_add_pd(z, _mm256_set1_pd(ATAN_Q[0]));
    for c in &ATAN_Q[1..] {
        q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(*c));
    }
    let zz = _mm256_div_pd(_mm256_mul_pd(z, p), q);
    let r = _mm256_add_pd(_mm256_fmadd_pd(x, zz, x), extra);
    _mm256_or_pd(_mm256_add_pd(y_base, r), sign)
}

/// In-place `asinh` over a slice; scalar `f64::asinh` tail.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn asinh_slice(v: &mut [f64]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(p.add(i), asinh_pd(_mm256_loadu_pd(p.add(i))));
        i += 4;
    }
    while i < n {
        *p.add(i) = (*p.add(i)).asinh();
        i += 1;
    }
}

/// In-place `atan` over a slice; scalar `f64::atan` tail.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn atan_slice(v: &mut [f64]) {
    let n = v.len();
    let p = v.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_storeu_pd(p.add(i), atan_pd(_mm256_loadu_pd(p.add(i))));
        i += 4;
    }
    while i < n {
        *p.add(i) = (*p.add(i)).atan();
        i += 1;
    }
}
