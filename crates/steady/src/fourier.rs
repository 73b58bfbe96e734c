//! Spectral grids for harmonic balance: collocation samples along one or
//! more periodic time axes, spectral differentiation, and harmonic
//! extraction.
//!
//! A [`SpectralGrid`] with one axis underlies single-tone HB; two axes give
//! the multi-tone (quasi-periodic) analysis, equivalent to representing the
//! waveforms in their bivariate MPDE form (paper, §2.2) and applying the
//! `∂/∂t₁ + ∂/∂t₂` operator spectrally. Axis sizes are odd so the sample
//! count per axis is `2·H + 1` for `H` harmonics, with no ambiguous Nyquist
//! term.

use crate::{Error, Result};
use rfsim_circuit::dae::TwoTime;
use rfsim_numerics::fft::{self, FftPlan, FftScratch};
use rfsim_numerics::{AlignedVec, Complex};
use std::cell::RefCell;
use std::sync::Arc;

/// One periodic analysis axis: a fundamental frequency and a harmonic
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToneAxis {
    /// Fundamental frequency in Hz.
    pub freq: f64,
    /// Number of harmonics `H` retained (`2H + 1` samples).
    pub harmonics: usize,
}

impl ToneAxis {
    /// Creates an axis.
    pub fn new(freq: f64, harmonics: usize) -> Self {
        ToneAxis { freq, harmonics }
    }

    /// Samples along this axis.
    pub fn samples(&self) -> usize {
        2 * self.harmonics + 1
    }

    /// Period in seconds.
    pub fn period(&self) -> f64 {
        1.0 / self.freq
    }
}

/// A collocation grid over one or two periodic time axes.
///
/// Sample layout is row-major over axes (axis 0 slowest), with the DAE's
/// `n` unknowns contiguous at each sample: `x[s·n + i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralGrid {
    axes: Vec<ToneAxis>,
}

impl SpectralGrid {
    /// Single-tone grid: `harmonics` harmonics of `freq`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidSetup`] for a non-positive frequency.
    pub fn single_tone(freq: f64, harmonics: usize) -> Result<Self> {
        if freq <= 0.0 {
            return Err(Error::InvalidSetup("tone frequency must be positive".into()));
        }
        Ok(SpectralGrid { axes: vec![ToneAxis::new(freq, harmonics)] })
    }

    /// Two-tone quasi-periodic grid. Axis 0 is the slow tone (`t₁`), axis 1
    /// the fast tone (`t₂`).
    ///
    /// # Errors
    /// Returns [`Error::InvalidSetup`] for non-positive frequencies.
    pub fn two_tone(slow: ToneAxis, fast: ToneAxis) -> Result<Self> {
        if slow.freq <= 0.0 || fast.freq <= 0.0 {
            return Err(Error::InvalidSetup("tone frequencies must be positive".into()));
        }
        Ok(SpectralGrid { axes: vec![slow, fast] })
    }

    /// The analysis axes.
    pub fn axes(&self) -> &[ToneAxis] {
        &self.axes
    }

    /// Total collocation samples (product over axes).
    pub fn samples(&self) -> usize {
        self.axes.iter().map(ToneAxis::samples).product()
    }

    /// Total HB unknowns for a DAE of dimension `n`.
    pub fn unknowns(&self, n: usize) -> usize {
        self.samples() * n
    }

    /// The (possibly bivariate) evaluation time of sample `s`.
    pub fn time(&self, s: usize) -> TwoTime {
        match self.axes.len() {
            1 => {
                let ax = &self.axes[0];
                TwoTime::uni(s as f64 * ax.period() / ax.samples() as f64)
            }
            2 => {
                let n1 = self.axes[1].samples();
                let i0 = s / n1;
                let i1 = s % n1;
                TwoTime::new(
                    i0 as f64 * self.axes[0].period() / self.axes[0].samples() as f64,
                    i1 as f64 * self.axes[1].period() / n1 as f64,
                )
            }
            _ => unreachable!("grids have 1 or 2 axes"),
        }
    }

    /// Builds a reusable [`GridWorkspace`] for repeated spectral
    /// operations on this grid (see [`SpectralGrid::add_dt_with`]).
    pub fn workspace(&self) -> GridWorkspace {
        let (slow, fast) = match self.axes.as_slice() {
            [ax] => (None, ax),
            [a0, a1] => (Some(a0), a1),
            _ => unreachable!("grids have 1 or 2 axes"),
        };
        GridWorkspace {
            shape: (slow.map_or(1, ToneAxis::samples), fast.samples()),
            slow: slow.map(|ax| fft::plan(ax.samples())),
            fast: fft::plan(fast.samples()),
            time: AlignedVec::new(),
            spec: AlignedVec::new(),
            scratch: FftScratch::new(),
        }
    }

    /// Applies the spectral time-derivative operator to a sample-major
    /// field of `n` unknowns: `out[s·n+i] += Σ_axes (∂/∂t_axis field)`.
    ///
    /// The field is real and the operator `D` is real and linear, so two
    /// unknowns share one complex transform (Numerical Recipes §12.3):
    /// the workspace packs unknowns `i` and `i + ⌈n/2⌉` of each sample as
    /// `a + j·b`, and `D(a + j·b) = D(a) + j·D(b)`. One 2-D forward
    /// transform, a scale of each bin by `j(k₀ω₀ + k₁ω₁)` and one inverse
    /// transform differentiate every unknown. A warm workspace performs
    /// zero heap allocation.
    ///
    /// # Panics
    /// Panics if the slice lengths do not equal `samples()·n` or the
    /// workspace was built for a different grid shape.
    pub fn add_dt_with(&self, field: &[f64], out: &mut [f64], n: usize, ws: &mut GridWorkspace) {
        let total = self.samples();
        assert_eq!(field.len(), total * n, "add_dt: field length");
        assert_eq!(out.len(), total * n, "add_dt: out length");
        assert_eq!(ws.shape.0 * ws.shape.1, total, "add_dt: workspace grid mismatch");
        ws.pack(field, n);
        ws.forward();
        let width = packed_width(n);
        let spec = ws.spectrum_mut();
        for bin in 0..total {
            let w = self.bin_omega(bin);
            for c in &mut spec[bin * width..(bin + 1) * width] {
                *c = Complex::new(-w * c.im, w * c.re);
            }
        }
        ws.inverse();
        ws.unpack(out, n, |o, v| *o += v);
    }

    /// Angular frequency `2π·Σ k_axis·f_axis` of the flat spectral bin
    /// `bin`. Bins are row-major over axes, like the samples; bin `b` of
    /// an axis holds harmonic `b` for `b ≤ H`, else `b − (2H+1)`.
    pub(crate) fn bin_omega(&self, bin: usize) -> f64 {
        let mut stride = self.samples();
        let mut freq = 0.0;
        for ax in &self.axes {
            let ns = ax.samples();
            stride /= ns;
            freq += signed_harmonic(bin / stride % ns, ns) as f64 * ax.freq;
        }
        2.0 * std::f64::consts::PI * freq
    }

    /// The flat bin of harmonic `−k` when `bin` holds `k`. A real field's
    /// coefficient there is the conjugate of its coefficient at `bin`.
    pub(crate) fn conj_bin(&self, bin: usize) -> usize {
        let mut stride = self.samples();
        let mut conj = 0;
        for ax in &self.axes {
            let ns = ax.samples();
            stride /= ns;
            conj += (ns - bin / stride % ns) % ns * stride;
        }
        conj
    }

    /// The non-negative half of the spectrum: every bin `k` whose flat
    /// index is at most that of `−k`, paired with the bin of `−k`. Axis
    /// sizes are odd, so DC is the only self-conjugate bin and the half
    /// holds `(samples() + 1)/2` bins.
    pub(crate) fn half_spectrum(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.samples()).map(|bin| (bin, self.conj_bin(bin))).filter(|&(k, kc)| k <= kc)
    }

    /// Fourier coefficient of one unknown's waveform at the mix index
    /// `k` (one entry per axis, each in `-H..=H`). For a real waveform the
    /// coefficient at `-k` is the conjugate.
    ///
    /// The returned value is the complex amplitude `c_k` in
    /// `x(t) = Σ c_k·e^{j2π(k·f)·t}`; a real cosine of amplitude `A` at a
    /// nonzero mix has `|c_k| = A/2`.
    ///
    /// # Panics
    /// Panics if `field.len() != samples()·n`, `i ≥ n`, or `k` is out of
    /// range.
    pub fn coefficient(&self, field: &[f64], n: usize, i: usize, k: &[i32]) -> Complex {
        assert_eq!(field.len(), self.samples() * n, "coefficient: field length");
        assert_eq!(k.len(), self.axes.len(), "coefficient: mix index arity");
        assert!(i < n, "coefficient: unknown index");
        COEFF_SCRATCH.with(|cell| {
            let (buf, scratch) = &mut *cell.borrow_mut();
            match self.axes.len() {
                1 => {
                    let ns = self.axes[0].samples();
                    buf.clear();
                    buf.extend((0..ns).map(|s| Complex::from_re(field[s * n + i])));
                    fft::plan(ns).forward(buf, scratch);
                    pick_bin(buf, k[0], ns)
                }
                2 => {
                    let (n0, n1) = (self.axes[0].samples(), self.axes[1].samples());
                    // 2-D DFT of this unknown's grid.
                    buf.clear();
                    buf.extend((0..n0 * n1).map(|s| Complex::from_re(field[s * n + i])));
                    fft::dft2_inplace(buf, n0, n1, &fft::plan(n1), &fft::plan(n0), scratch);
                    let b0 = bin_of(k[0], n0);
                    let b1 = bin_of(k[1], n1);
                    buf[b0 * n1 + b1].scale(1.0 / (n0 * n1) as f64)
                }
                _ => unreachable!(),
            }
        })
    }

    /// Amplitude (peak, not RMS) of the real sinusoid at mix index `k`:
    /// `2·|c_k|` for nonzero mixes, `|c_0|` for DC.
    pub fn amplitude(&self, field: &[f64], n: usize, i: usize, k: &[i32]) -> f64 {
        let c = self.coefficient(field, n, i, k);
        if k.iter().all(|&x| x == 0) {
            c.abs()
        } else {
            2.0 * c.abs()
        }
    }

    /// The frequency (Hz) of mix index `k`.
    pub fn mix_freq(&self, k: &[i32]) -> f64 {
        k.iter().zip(&self.axes).map(|(&ki, ax)| ki as f64 * ax.freq).sum()
    }
}

/// Reusable planned-transform workspace for one grid shape: the per-axis
/// [`FftPlan`]s, the real-packed field and its spectrum, and the
/// transform scratch. Build once via [`SpectralGrid::workspace`] and
/// reuse across [`SpectralGrid::add_dt_with`] calls; the buffers are
/// sized on first use and never reallocated afterwards.
///
/// A sample-major real field of `n` unknowns packs into `⌈n/2⌉` complex
/// columns: column `i` of sample `s` is `x[s·n+i] + j·x[s·n+i+⌈n/2⌉]`. For
/// odd `n` the last column's imaginary part belongs to no unknown; it is
/// packed as zero and never read back.
///
/// Each axis transforms as one strided batch. The time-domain field
/// keeps the fast axis outermost (row `s₁·n₀ + s₀` holds sample
/// `(s₀, s₁)`), so the fast axis runs over rows of all `n₀·⌈n/2⌉`
/// columns at once; one transpose between the axes then leaves the
/// spectrum row-major over axes, the slow axis outermost, where the slow
/// axis runs the same way. A one-axis grid is the fast axis alone
/// (`n₀ = 1`), and its transformed field is the spectrum as it stands.
#[derive(Debug)]
pub struct GridWorkspace {
    /// Samples along the slow and the fast axis.
    shape: (usize, usize),
    slow: Option<Arc<FftPlan>>,
    fast: Arc<FftPlan>,
    /// The packed time-domain field, fast axis outermost; 32-byte
    /// aligned, like `spec`, for the SIMD transform kernels.
    time: AlignedVec<Complex>,
    /// The packed spectrum, one row per flat bin.
    spec: AlignedVec<Complex>,
    scratch: FftScratch,
}

impl GridWorkspace {
    /// Packs the sample-major real `field` of `n` unknowns.
    pub(crate) fn pack(&mut self, field: &[f64], n: usize) {
        let width = packed_width(n);
        let (n0, n1) = self.shape;
        self.time.resize(n0 * n1 * width, Complex::ZERO);
        self.spec.resize(n0 * n1 * width, Complex::ZERO);
        for (s0, s1) in (0..n0).flat_map(|s0| (0..n1).map(move |s1| (s0, s1))) {
            let s = s0 * n1 + s1;
            let (a, b) = field[s * n..(s + 1) * n].split_at(width);
            let at = (s1 * n0 + s0) * width;
            for (i, c) in self.time[at..at + width].iter_mut().enumerate() {
                *c = Complex::new(a[i], b.get(i).copied().unwrap_or(0.0));
            }
        }
    }

    /// Unpacks into the sample-major real `out` of `n` unknowns, combining
    /// each unknown's value `v` into its slot `o` by `put(o, v)`.
    pub(crate) fn unpack(&self, out: &mut [f64], n: usize, put: impl Fn(&mut f64, f64)) {
        let width = packed_width(n);
        let (n0, n1) = self.shape;
        for (s0, s1) in (0..n0).flat_map(|s0| (0..n1).map(move |s1| (s0, s1))) {
            let s = s0 * n1 + s1;
            let (a, b) = out[s * n..(s + 1) * n].split_at_mut(width);
            let at = (s1 * n0 + s0) * width;
            let row = &self.time[at..at + width];
            for (o, c) in a.iter_mut().zip(row) {
                put(o, c.re);
            }
            for (o, c) in b.iter_mut().zip(row) {
                put(o, c.im);
            }
        }
    }

    /// Forward transform of the packed field into the spectrum.
    pub(crate) fn forward(&mut self) {
        let (n0, n1) = self.shape;
        let width = self.time.len() / (n0 * n1);
        self.fast.forward_strided(&mut self.time, n0 * width, n0 * width, &mut self.scratch);
        match &self.slow {
            Some(slow) => {
                transpose_blocks(&self.time, &mut self.spec, n1, n0, width);
                slow.forward_strided(&mut self.spec, n1 * width, n1 * width, &mut self.scratch);
            }
            // One axis: the fast-axis spectrum already is the spectrum.
            None => std::mem::swap(&mut self.time, &mut self.spec),
        }
    }

    /// Inverse transform of the spectrum back into the packed field.
    pub(crate) fn inverse(&mut self) {
        let (n0, n1) = self.shape;
        let width = self.spec.len() / (n0 * n1);
        match &self.slow {
            Some(slow) => {
                slow.inverse_strided(&mut self.spec, n1 * width, n1 * width, &mut self.scratch);
                transpose_blocks(&self.spec, &mut self.time, n0, n1, width);
            }
            None => std::mem::swap(&mut self.time, &mut self.spec),
        }
        self.fast.inverse_strided(&mut self.time, n0 * width, n0 * width, &mut self.scratch);
    }

    /// The packed spectrum: after [`GridWorkspace::forward`] row `b` holds
    /// flat bin `b` (see [`SpectralGrid::bin_omega`]), and
    /// [`GridWorkspace::inverse`] reads it back from here.
    pub(crate) fn spectrum_mut(&mut self) -> &mut [Complex] {
        &mut self.spec
    }

    /// Heap bytes the workspace holds, by capacity. The plans are shared
    /// process-wide and not counted.
    pub(crate) fn bytes(&self) -> usize {
        (self.time.capacity() + self.spec.capacity()) * std::mem::size_of::<Complex>()
            + self.scratch.bytes()
    }
}

/// Copies `src`, a `rows × cols` grid of blocks of `width` values, into
/// `dst` transposed: block `(r, c)` lands at block `(c, r)`.
fn transpose_blocks(src: &[Complex], dst: &mut [Complex], rows: usize, cols: usize, width: usize) {
    for r in 0..rows {
        for c in 0..cols {
            let (from, to) = ((r * cols + c) * width, (c * rows + r) * width);
            dst[to..to + width].copy_from_slice(&src[from..from + width]);
        }
    }
}

/// Complex columns of the packed form of `n` real unknowns: `⌈n/2⌉`.
pub(crate) fn packed_width(n: usize) -> usize {
    n.div_ceil(2)
}

/// Harmonic of bin `b` on an axis of `ns` (odd) samples.
fn signed_harmonic(b: usize, ns: usize) -> i64 {
    if b <= ns / 2 {
        b as i64
    } else {
        b as i64 - ns as i64
    }
}

thread_local! {
    /// Gather buffer + transform scratch for [`SpectralGrid::coefficient`],
    /// so harmonic extraction after a solve allocates nothing in steady
    /// state.
    static COEFF_SCRATCH: RefCell<(Vec<Complex>, FftScratch)> =
        RefCell::new((Vec::new(), FftScratch::default()));
}

fn bin_of(k: i32, ns: usize) -> usize {
    if k >= 0 {
        k as usize
    } else {
        (ns as i32 + k) as usize
    }
}

fn pick_bin(spec: &[Complex], k: i32, ns: usize) -> Complex {
    spec[bin_of(k, ns)].scale(1.0 / ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tone_sample_times() {
        let g = SpectralGrid::single_tone(100.0, 2).unwrap();
        assert_eq!(g.samples(), 5);
        let t1 = g.time(1);
        assert!((t1.t1 - 0.01 / 5.0).abs() < 1e-15);
        assert_eq!(t1.t1, t1.t2);
    }

    #[test]
    fn spectral_derivative_of_sine_is_cosine() {
        let f0 = 50.0;
        let g = SpectralGrid::single_tone(f0, 4).unwrap();
        let ns = g.samples();
        let omega = 2.0 * std::f64::consts::PI * f0;
        // Field with n = 1 unknown: sin(ωt).
        let field: Vec<f64> = (0..ns).map(|s| (omega * g.time(s).t1).sin()).collect();
        let mut out = vec![0.0; ns];
        g.add_dt_with(&field, &mut out, 1, &mut g.workspace());
        for s in 0..ns {
            let expect = omega * (omega * g.time(s).t1).cos();
            assert!((out[s] - expect).abs() < 1e-6 * omega, "s={s}: {} vs {expect}", out[s]);
        }
    }

    #[test]
    fn coefficient_extraction_single() {
        let f0 = 10.0;
        let g = SpectralGrid::single_tone(f0, 3).unwrap();
        let ns = g.samples();
        // x(t) = 0.5 + 2cos(ωt) + 0.3 sin(2ωt)
        let field: Vec<f64> = (0..ns)
            .map(|s| {
                let t = g.time(s).t1;
                let w = 2.0 * std::f64::consts::PI * f0;
                0.5 + 2.0 * (w * t).cos() + 0.3 * (2.0 * w * t).sin()
            })
            .collect();
        assert!((g.amplitude(&field, 1, 0, &[0]) - 0.5).abs() < 1e-12);
        assert!((g.amplitude(&field, 1, 0, &[1]) - 2.0).abs() < 1e-12);
        assert!((g.amplitude(&field, 1, 0, &[2]) - 0.3).abs() < 1e-12);
        assert!(g.amplitude(&field, 1, 0, &[3]) < 1e-12);
        assert!((g.mix_freq(&[2]) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn two_tone_grid_and_mixes() {
        let slow = ToneAxis::new(1.0, 2);
        let fast = ToneAxis::new(100.0, 3);
        let g = SpectralGrid::two_tone(slow, fast).unwrap();
        assert_eq!(g.samples(), 5 * 7);
        // Product waveform sin(2πt₁)·cos(2π·100·t₂) has mixes (±1, ±1)
        // with |c| = 1/4 each.
        let field: Vec<f64> = (0..g.samples())
            .map(|s| {
                let t = g.time(s);
                (2.0 * std::f64::consts::PI * t.t1).sin()
                    * (2.0 * std::f64::consts::PI * 100.0 * t.t2).cos()
            })
            .collect();
        let c11 = g.coefficient(&field, 1, 0, &[1, 1]);
        assert!((c11.abs() - 0.25).abs() < 1e-10, "c11 = {c11}");
        assert!((g.mix_freq(&[1, 1]) - 101.0).abs() < 1e-12);
        assert!((g.mix_freq(&[-1, 1]) - 99.0).abs() < 1e-12);
        // No energy at (2, 1).
        assert!(g.coefficient(&field, 1, 0, &[2, 1]).abs() < 1e-10);
    }

    #[test]
    fn two_tone_derivative_matches_analytic() {
        // x̂(t1,t2) = sin(2πf1·t1)·sin(2πf2·t2):
        // (∂1+∂2)x̂ = 2πf1 cos(·)sin(·) + 2πf2 sin(·)cos(·).
        let (f1, f2) = (2.0, 30.0);
        let g = SpectralGrid::two_tone(ToneAxis::new(f1, 3), ToneAxis::new(f2, 3)).unwrap();
        let w1 = 2.0 * std::f64::consts::PI * f1;
        let w2 = 2.0 * std::f64::consts::PI * f2;
        let field: Vec<f64> = (0..g.samples())
            .map(|s| {
                let t = g.time(s);
                (w1 * t.t1).sin() * (w2 * t.t2).sin()
            })
            .collect();
        let mut out = vec![0.0; g.samples()];
        g.add_dt_with(&field, &mut out, 1, &mut g.workspace());
        for s in 0..g.samples() {
            let t = g.time(s);
            let expect = w1 * (w1 * t.t1).cos() * (w2 * t.t2).sin()
                + w2 * (w1 * t.t1).sin() * (w2 * t.t2).cos();
            assert!((out[s] - expect).abs() < 1e-6 * w2, "s={s}");
        }
    }

    /// Amplitude of unknown `i` in the packing tests: pairs of the
    /// packed form hold lines up to nine decades apart.
    const AMPS: [f64; 5] = [1e3, 1e-2, 1e-6, 1.0, 1e-4];

    /// Checks `add_dt_with` on `n` unknowns, each its own waveform
    /// `x_i` with derivative `dx_i` (both at the sample's time), against
    /// `out` preloaded with ones, so the result must be accumulated.
    ///
    /// The bound: unknown `i` shares a complex transform with unknown
    /// `i ± ⌈n/2⌉`, and rounding in that transform is relative to the
    /// larger of the two lines. So each unknown must match its analytic
    /// derivative within `1e-12·Ω·max(A_i, A_pair)`, where `A` is the
    /// lines' amplitude and `Ω` the grid's top angular frequency.
    fn check_packed_derivative(
        g: &SpectralGrid,
        n: usize,
        x: impl Fn(usize, TwoTime) -> f64,
        dx: impl Fn(usize, TwoTime) -> f64,
    ) {
        let total = g.samples();
        let top: f64 = g
            .axes()
            .iter()
            .map(|ax| 2.0 * std::f64::consts::PI * ax.freq * ax.harmonics as f64)
            .sum();
        let mut field = vec![0.0; total * n];
        for s in 0..total {
            for i in 0..n {
                field[s * n + i] = x(i, g.time(s));
            }
        }
        let mut out = vec![1.0; total * n];
        let mut ws = g.workspace();
        // Twice through one workspace: a warm workspace gives the same.
        for round in 0..2 {
            out.fill(1.0);
            g.add_dt_with(&field, &mut out, n, &mut ws);
            let h = packed_width(n);
            for i in 0..n {
                let pair = if i < h { i + h } else { i - h };
                let scale = if pair < n { AMPS[i].max(AMPS[pair]) } else { AMPS[i] };
                for s in 0..total {
                    let (got, want) = (out[s * n + i] - 1.0, dx(i, g.time(s)));
                    assert!(
                        (got - want).abs() <= 1e-12 * top * scale,
                        "n={n} i={i} s={s} round {round}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_derivative_single_tone_every_pairing() {
        let f0 = 3e6;
        let g = SpectralGrid::single_tone(f0, 6).unwrap();
        let w = 2.0 * std::f64::consts::PI * f0;
        // Unknown i: A_i·(0.3 + sin(k_i·ωt + φ_i)), k_i = 1 + i mod 6.
        let k = |i: usize| (1 + i % 6) as f64;
        let phi = |i: usize| 0.7 * i as f64;
        for n in 1..=5 {
            check_packed_derivative(
                &g,
                n,
                |i, t| AMPS[i] * (0.3 + (k(i) * w * t.t1 + phi(i)).sin()),
                |i, t| AMPS[i] * k(i) * w * (k(i) * w * t.t1 + phi(i)).cos(),
            );
        }
    }

    #[test]
    fn packed_derivative_two_tone_every_pairing() {
        let (f1, f2) = (1e5, 4e7);
        let g = SpectralGrid::two_tone(ToneAxis::new(f1, 3), ToneAxis::new(f2, 2)).unwrap();
        let (w1, w2) = (2.0 * std::f64::consts::PI * f1, 2.0 * std::f64::consts::PI * f2);
        // Unknown i: A_i·(0.5 + sin(p_i·ω₁t₁ + φ_i)·cos(q_i·ω₂t₂)).
        let p = |i: usize| (1 + i % 3) as f64;
        let q = |i: usize| (i % 3) as f64;
        let phi = |i: usize| 0.4 + 0.9 * i as f64;
        for n in 1..=5 {
            check_packed_derivative(
                &g,
                n,
                |i, t| {
                    AMPS[i] * (0.5 + (p(i) * w1 * t.t1 + phi(i)).sin() * (q(i) * w2 * t.t2).cos())
                },
                |i, t| {
                    let (a, b) = (p(i) * w1 * t.t1 + phi(i), q(i) * w2 * t.t2);
                    AMPS[i] * (p(i) * w1 * a.cos() * b.cos() - q(i) * w2 * a.sin() * b.sin())
                },
            );
        }
    }

    #[test]
    fn conjugate_bins_pair_up() {
        let g = SpectralGrid::two_tone(ToneAxis::new(1.0, 2), ToneAxis::new(10.0, 3)).unwrap();
        let half: Vec<_> = g.half_spectrum().collect();
        assert_eq!(half.len(), g.samples().div_ceil(2));
        assert_eq!(half[0], (0, 0), "DC is its own conjugate");
        for &(k, kc) in &half {
            assert_eq!(g.conj_bin(kc), k);
            assert_eq!(g.bin_omega(kc), -g.bin_omega(k));
        }
    }

    #[test]
    fn invalid_setup_rejected() {
        assert!(SpectralGrid::single_tone(0.0, 3).is_err());
        assert!(SpectralGrid::two_tone(ToneAxis::new(1.0, 1), ToneAxis::new(-1.0, 1)).is_err());
    }
}
