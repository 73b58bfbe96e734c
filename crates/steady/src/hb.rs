//! Harmonic balance: Newton iteration on the spectral collocation system
//!
//! ```text
//!     R(X) = D·q(X) + f(X) − B = 0
//! ```
//!
//! where `D` is the (multi-axis) spectral differentiation operator of a
//! [`SpectralGrid`]. Two linear-solver backends reproduce the paper's
//! contrast:
//!
//! - [`HbSolver::Direct`]: assemble the full HB Jacobian densely and LU it —
//!   the "traditional implementation" whose memory/time explodes with
//!   circuit size and tone count;
//! - [`HbSolver::Gmres`]: matrix-implicit Krylov solution with a
//!   per-harmonic block-diagonal preconditioner — the approach of
//!   refs [10, 31] that scales to full RF chips. The preconditioner `M`
//!   is the time-invariant part of the Jacobian `J`, so GMRES iterates
//!   on `M⁻¹J = I + M⁻¹Δ` and applies only `Δ = J − M`, the entries
//!   that vary over the period.

use crate::fourier::{packed_width, GridWorkspace, SpectralGrid};
use crate::{Error, Result};
use rfsim_circuit::dae::Dae;
use rfsim_circuit::dc::{dc_operating_point, DcOptions};
use rfsim_numerics::dense::Mat;
use rfsim_numerics::krylov::{
    gmres_with, FnOperator, GmresWorkspace, IdentityPrecond, IterStats, KrylovOptions, RecycleSpace,
};
use rfsim_numerics::sparse::{Csr, SparseLu, Triplets};
use rfsim_numerics::{norm_inf, AlignedVec, Complex, ResidualTail};
use rfsim_telemetry as telemetry;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Linear solver used for the Newton corrections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbSolver {
    /// Dense assembly + LU (traditional; O((nN)²) memory, O((nN)³) time).
    Direct,
    /// Matrix-free GMRES; `precondition` enables the per-harmonic
    /// block-diagonal preconditioner.
    Gmres {
        /// Apply the averaged-Jacobian block preconditioner.
        precondition: bool,
    },
}

/// When the harmonic block preconditioner is re-factored during a
/// Newton iteration (Gmres backend with `precondition: true`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecondRefresh {
    /// Re-factor on every Newton iteration: `(samples() + 1)/2` complex
    /// sparse LU factorizations per step, one per bin of the non-negative
    /// half-spectrum. Always tracks the current linearization.
    EveryIteration,
    /// Keep the factored blocks across Newton iterations and re-factor
    /// only when the `precond_degraded` signal fires: the inner GMRES
    /// iteration count grows past `growth ×` the count observed right
    /// after the last refresh (floored at 4 iterations, so noise on
    /// near-instant solves never triggers). A refresh also happens as a
    /// rescue when GMRES fails outright under a kept factor.
    Adaptive {
        /// Inner-iteration growth factor that triggers a re-factor.
        growth: f64,
    },
}

impl Default for PrecondRefresh {
    fn default() -> Self {
        PrecondRefresh::Adaptive { growth: 3.0 }
    }
}

/// Options for [`solve_hb`].
#[derive(Debug, Clone)]
pub struct HbOptions {
    /// Residual infinity-norm tolerance.
    pub tol: f64,
    /// Maximum Newton iterations (per continuation step).
    pub max_newton: usize,
    /// Linear solver backend.
    pub solver: HbSolver,
    /// Krylov options (GMRES backend).
    pub krylov: KrylovOptions,
    /// Preconditioner refresh policy (GMRES backend).
    pub precond_refresh: PrecondRefresh,
    /// Source-stepping continuation steps (1 = no continuation).
    pub source_steps: usize,
    /// Options for the initial DC operating point.
    pub dc: DcOptions,
}

impl Default for HbOptions {
    fn default() -> Self {
        HbOptions {
            tol: 1e-9,
            max_newton: 50,
            solver: HbSolver::Gmres { precondition: true },
            krylov: KrylovOptions { tol: 1e-10, max_iters: 4000, restart: 80 },
            precond_refresh: PrecondRefresh::default(),
            source_steps: 1,
            dc: DcOptions::default(),
        }
    }
}

/// Work/memory accounting for the HB run (feeds the paper's cost studies).
#[derive(Debug, Clone, Default)]
pub struct HbStats {
    /// Total Newton iterations.
    pub newton_iterations: usize,
    /// Total inner linear-solver iterations.
    pub linear_iterations: usize,
    /// Operator applications performed: products with the Jacobian `J`,
    /// or with `M⁻¹J` under the block preconditioner.
    pub matvecs: usize,
    /// HB unknowns `n·N`.
    pub unknowns: usize,
    /// Estimated peak bytes for the linear solver
    /// (dense Jacobian vs Krylov basis + preconditioner factors).
    pub solver_bytes: usize,
    /// Harmonic-block preconditioner factorizations performed (each one
    /// analyses one bin's sparse block and refactors the rest of the
    /// non-negative half-spectrum, `(samples() + 1)/2 − 1` bins, on that
    /// analysis).
    pub precond_factorizations: usize,
}

/// A converged harmonic-balance solution.
#[derive(Debug, Clone)]
pub struct HbSolution {
    /// The analysis grid.
    pub grid: SpectralGrid,
    /// DAE dimension.
    pub n: usize,
    /// Sample-major solution (`x[s·n + i]`).
    pub x: Vec<f64>,
    /// Run statistics.
    pub stats: HbStats,
}

impl HbSolution {
    /// Time samples of unknown `i` over the collocation grid.
    pub fn waveform(&self, i: usize) -> Vec<f64> {
        (0..self.grid.samples()).map(|s| self.x[s * self.n + i]).collect()
    }

    /// Complex Fourier coefficient of unknown `i` at mix index `k`.
    pub fn coefficient(&self, i: usize, k: &[i32]) -> Complex {
        self.grid.coefficient(&self.x, self.n, i, k)
    }

    /// Peak amplitude of the sinusoid at mix `k` (DC returns `|c₀|`).
    pub fn amplitude(&self, i: usize, k: &[i32]) -> f64 {
        self.grid.amplitude(&self.x, self.n, i, k)
    }

    /// Amplitude in dB relative to a carrier amplitude.
    pub fn dbc(&self, i: usize, k: &[i32], carrier_amplitude: f64) -> f64 {
        rfsim_numerics::fft::dbc(self.amplitude(i, k), carrier_amplitude)
    }
}

/// A position `(i, j)` and its slot in a stamp pattern.
type Stamp = (usize, usize, usize);

/// Every sample's `G = ∂f/∂x` and `C = ∂q/∂x` at one Newton point, on
/// one shared stamp pattern: the positions of `G` and `C` together, a
/// [`Triplets::to_pattern`] matrix whose own values go unused. Sample
/// `s` holds `g[s·nnz..(s + 1)·nnz]` and likewise `c`; a position that
/// only one of the two stamps holds an explicit zero in the other.
struct Linearization {
    pattern: Arc<Csr<f64>>,
    samples: usize,
    g: Vec<f64>,
    c: Vec<f64>,
}

impl Default for Linearization {
    fn default() -> Self {
        let pattern = Arc::new(Triplets::new(0, 0).to_pattern());
        Linearization { pattern, samples: 0, g: Vec::new(), c: Vec::new() }
    }
}

impl Linearization {
    /// Sizes the values for `samples` samples on `pattern`, reusing the
    /// buffers; every sample is restamped after.
    fn reset(&mut self, pattern: &Arc<Csr<f64>>, samples: usize) {
        if !Arc::ptr_eq(&self.pattern, pattern) {
            self.pattern = Arc::clone(pattern);
        }
        self.samples = samples;
        self.g.resize(samples * pattern.nnz(), 0.0);
        self.c.resize(samples * pattern.nnz(), 0.0);
    }

    /// Sample `s`'s `G` and `C` values.
    fn sample(&self, s: usize) -> (&[f64], &[f64]) {
        let at = s * self.pattern.nnz()..(s + 1) * self.pattern.nnz();
        (&self.g[at.clone()], &self.c[at])
    }

    fn sample_mut(&mut self, s: usize) -> (&mut [f64], &mut [f64]) {
        let at = s * self.pattern.nnz()..(s + 1) * self.pattern.nnz();
        (&mut self.g[at.clone()], &mut self.c[at])
    }
}

/// Per-position means of `vals`, `samples` rows of `nnz` values. An entry
/// equal at every sample averages to itself exactly, so a time-invariant
/// entry of the Jacobian lands wholly in `M` and not in `Δ`: a plain
/// mean would round it (121 equal summands scaled by 1/121 need not give
/// the value back).
fn position_means(vals: &[f64], samples: usize, nnz: usize) -> Vec<f64> {
    let first = &vals[..nnz];
    let mut sum = vec![0.0; nnz];
    let mut same = vec![true; nnz];
    for row in (0..samples).map(|s| &vals[s * nnz..(s + 1) * nnz]) {
        for (p, &v) in row.iter().enumerate() {
            sum[p] += v;
            same[p] &= v == first[p];
        }
    }
    let scale = 1.0 / samples as f64;
    (0..nnz).map(|p| if same[p] { first[p] } else { sum[p] * scale }).collect()
}

/// The residual and the per-sample linearization at one Newton point.
#[derive(Default)]
struct Assembly {
    r: Vec<f64>,
    lin: Linearization,
}

/// Evaluates the residual and the per-sample linearization at `x` into
/// `out`, reusing its buffers, on the workspace's stamp pattern (grown,
/// and every sample restamped, when a sample stamps a position it lacks).
fn assemble(
    dae: &dyn Dae,
    grid: &SpectralGrid,
    x: &[f64],
    b: &[f64],
    ws: &mut HbWorkspace,
    out: &mut Assembly,
) {
    let _span = telemetry::span("hb.assemble");
    let n = dae.dim();
    let total = grid.samples();
    let HbWorkspace { pattern, qall, grid_ws, .. } = ws;
    let Assembly { r, lin } = out;
    r.resize(total * n, 0.0);
    qall.resize(total * n, 0.0);
    lin.reset(pattern, total);
    let mut gt = Triplets::new(n, n);
    let mut ct = Triplets::new(n, n);
    let mut s = 0;
    while s < total {
        let at = s * n..(s + 1) * n;
        dae.eval(&x[at.clone()], &mut r[at.clone()], &mut qall[at], &mut gt, &mut ct);
        let (gv, cv) = lin.sample_mut(s);
        if pattern.scatter(&gt, gv) && pattern.scatter(&ct, cv) {
            s += 1;
        } else {
            *pattern = Arc::new(pattern.grown(&gt).grown(&ct));
            lin.reset(pattern, total);
            s = 0;
        }
    }
    // R = D·q + f − b.
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri -= bi;
    }
    grid.add_dt_with(qall, r, n, grid_ws);
}

/// `Δ = J − M` at one Newton point: the entries of `G_s − Ḡ` and
/// `C_s − C̄` at the positions where some sample differs from the
/// averages `Ḡ`, `C̄` of the factor in use. A circuit's linear elements
/// leave no entry here, and on the ladders no capacitance varies, so `ΔC`
/// is empty and the Δ product runs no transform.
#[derive(Debug, Default)]
struct Deviation {
    /// `(i, j)` and the pattern slot of each position of `ΔG`, and every
    /// sample's values at them (sample-major).
    g_at: Vec<Stamp>,
    g: Vec<f64>,
    c_at: Vec<Stamp>,
    c: Vec<f64>,
}

impl Deviation {
    /// Recomputes `Δ` for `lin` against the averages of `precond`, which
    /// was built on `lin`'s pattern. Reuses the buffers.
    fn set(&mut self, lin: &Linearization, precond: &HarmonicBlockPrecond) {
        let pattern = &lin.pattern;
        deviations(pattern, lin.samples, &lin.g, &precond.gbar, &mut self.g_at, &mut self.g);
        deviations(pattern, lin.samples, &lin.c, &precond.cbar, &mut self.c_at, &mut self.c);
    }

    fn is_empty(&self) -> bool {
        self.g_at.is_empty() && self.c_at.is_empty()
    }

    /// `w ← Δ·v`: per sample `ΔG_s·v_s + D·(ΔC_s·v_s)`, where the
    /// derivative transform runs only when `ΔC` holds an entry. `cv` is
    /// scratch for the `ΔC_s·v_s` samples.
    fn apply(
        &self,
        grid: &SpectralGrid,
        n: usize,
        v: &[f64],
        w: &mut [f64],
        cv: &mut [f64],
        grid_ws: &mut GridWorkspace,
    ) {
        let _span = telemetry::span("hb.matvec");
        sample_products(&self.g_at, &self.g, n, v, w);
        if !self.c_at.is_empty() {
            sample_products(&self.c_at, &self.c, n, v, cv);
            let _span_fft = telemetry::span("hb.matvec.fft");
            telemetry::counter_add("hb.matvec.transforms", 1);
            grid.add_dt_with(cv, w, n, grid_ws);
        }
    }

    /// Heap bytes held, by capacity.
    fn bytes(&self) -> usize {
        (self.g_at.capacity() + self.c_at.capacity()) * std::mem::size_of::<Stamp>()
            + (self.g.capacity() + self.c.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Collects into `at` the positions where some sample of `vals` differs
/// from `mean`, and into `dev` every sample's deviation there.
fn deviations(
    pattern: &Csr<f64>,
    samples: usize,
    vals: &[f64],
    mean: &[f64],
    at: &mut Vec<Stamp>,
    dev: &mut Vec<f64>,
) {
    let nnz = pattern.nnz();
    at.clear();
    at.extend(
        pattern
            .iter()
            .enumerate()
            .filter(|&(p, _)| (0..samples).any(|s| vals[s * nnz + p] != mean[p]))
            .map(|(p, (i, j, _))| (i, j, p)),
    );
    dev.clear();
    dev.extend(
        (0..samples).flat_map(|s| at.iter().map(move |&(_, _, p)| vals[s * nnz + p] - mean[p])),
    );
}

/// `w_s ← A_s·v_s` for every sample `s`, where `A_s` holds the values
/// `vals[s·|at|..]` at the positions `at`.
fn sample_products(at: &[Stamp], vals: &[f64], n: usize, v: &[f64], w: &mut [f64]) {
    w.fill(0.0);
    if at.is_empty() {
        return;
    }
    for ((vs, ws), dev) in
        v.chunks_exact(n).zip(w.chunks_exact_mut(n)).zip(vals.chunks_exact(at.len()))
    {
        for (&(i, j, _), &d) in at.iter().zip(dev) {
            ws[i] += d * vs[j];
        }
    }
}

/// Preallocated buffers for the HB hot path, one instance for a whole
/// [`solve_hb`] run (or a whole sweep), so every operator application
/// after the first performs zero heap allocation: the stamp pattern
/// every linearization shares, `Δ` and the Δ product's samples, GMRES's
/// right-hand side `M⁻¹·r`, and the spectral-derivative workspace, which
/// the residual's transform shares.
#[derive(Debug)]
struct HbWorkspace {
    pattern: Arc<Csr<f64>>,
    delta: Deviation,
    /// `C·v` (or `ΔC·v`) samples; 32-byte aligned, like `dv`, so the SIMD
    /// kernels see aligned rows.
    cv: AlignedVec<f64>,
    /// `Δ·v`, the preconditioner's input.
    dv: AlignedVec<f64>,
    rhs: Vec<f64>,
    /// The charges `q` of every sample, which the residual differentiates.
    qall: Vec<f64>,
    grid_ws: GridWorkspace,
}

impl HbWorkspace {
    fn new(grid: &SpectralGrid, n: usize) -> Self {
        let mut cv = AlignedVec::new();
        cv.resize(grid.samples() * n, 0.0);
        let dv = cv.clone();
        HbWorkspace {
            pattern: Arc::new(Triplets::new(n, n).to_pattern()),
            delta: Deviation::default(),
            cv,
            dv,
            rhs: Vec::new(),
            qall: Vec::new(),
            grid_ws: grid.workspace(),
        }
    }

    /// Heap bytes held, by capacity.
    fn bytes(&self) -> usize {
        self.pattern.bytes()
            + self.delta.bytes()
            + (self.cv.capacity() + self.dv.capacity() + self.rhs.capacity() + self.qall.capacity())
                * std::mem::size_of::<f64>()
            + self.grid_ws.bytes()
    }
}

/// Matrix-free HB Jacobian application: `y = D·(C·v) + G·v`. The
/// preconditioned GMRES path applies only `Δ` (see [`apply_fused`]); this
/// full product serves the direct and the unpreconditioned solves.
fn apply_jacobian(
    grid: &SpectralGrid,
    lin: &Linearization,
    v: &[f64],
    y: &mut [f64],
    ws: &mut HbWorkspace,
) {
    let _span = telemetry::span("hb.matvec");
    let n = lin.pattern.rows();
    for s in 0..lin.samples {
        let (g, c) = lin.sample(s);
        let at = s * n..(s + 1) * n;
        lin.pattern.matvec_with(c, &v[at.clone()], &mut ws.cv[at.clone()]);
        lin.pattern.matvec_with(g, &v[at.clone()], &mut y[at]);
    }
    let _span_fft = telemetry::span("hb.matvec.fft");
    grid.add_dt_with(&ws.cv, y, n, &mut ws.grid_ws);
}

/// `y ← M⁻¹J·v = v + M⁻¹·(Δ·v)`: the HB Jacobian preconditioned by
/// `precond`, with `ws.delta` taken against it. `M = Ḡ + D·C̄` is the
/// time-invariant part of `J`, so only `Δ`'s entries are applied, and
/// `M⁻¹` runs the only transform pair. With `Δ` empty this is `v`.
fn apply_fused(
    grid: &SpectralGrid,
    precond: &HarmonicBlockPrecond,
    v: &[f64],
    y: &mut [f64],
    ws: &mut HbWorkspace,
) -> rfsim_numerics::Result<()> {
    y.copy_from_slice(v);
    if ws.delta.is_empty() {
        return Ok(());
    }
    let HbWorkspace { delta, cv, dv, grid_ws, .. } = ws;
    delta.apply(grid, precond.n, v, dv, cv, grid_ws);
    precond.solve(dv, y, |o, z| *o += z)
}

/// Per-harmonic block-diagonal preconditioner: solves
/// `(Ḡ + jω_k·C̄)·ẑ_k = r̂_k` in the frequency domain using the
/// per-position sample averages of the linearization.
///
/// The residual is real, so its coefficient at `−k` is the conjugate of
/// that at `k`, and so is the solution's: only the non-negative half of
/// the spectrum is factored and solved, `(samples() + 1)/2` blocks. Every
/// block has the linearization's stamp pattern, so one bin is analysed
/// by a sparse LU and the others are refactored on that analysis, sharing
/// its order, pivot sequence and factor pattern.
struct HarmonicBlockPrecond {
    n: usize,
    /// The half-spectrum: each bin `k` with the bin of `−k` (row-major
    /// over axes), beside `blocks`.
    bins: Vec<(usize, usize)>,
    /// The factored complex block of each bin `k` in `bins`.
    blocks: Vec<SparseLu<Complex>>,
    /// Resident bytes of `blocks`: every bin's values, each analysis once.
    factor_bytes: usize,
    /// The pattern the blocks were built on, and `Ḡ`, `C̄` in its slot
    /// order: `Δ` is taken against these.
    pattern: Arc<Csr<f64>>,
    gbar: Vec<f64>,
    cbar: Vec<f64>,
    /// Reusable apply buffers. The solve takes `&self`, so interior
    /// mutability is required; one GMRES solve applies a preconditioner
    /// at a time.
    scratch: RefCell<PrecondScratch>,
}

/// Buffers for [`HarmonicBlockPrecond`]'s solve: the real-packed
/// transform workspace, and one bin's right-hand side and solution.
#[derive(Debug)]
struct PrecondScratch {
    grid: GridWorkspace,
    rhs: AlignedVec<Complex>,
    sol: AlignedVec<Complex>,
}

impl HarmonicBlockPrecond {
    fn new(grid: &SpectralGrid, lin: &Linearization) -> Result<Self> {
        // Average G and C over the samples (the DC Fourier component of the
        // time-varying linearization).
        let pattern = Arc::clone(&lin.pattern);
        let (n, nnz) = (pattern.rows(), pattern.nnz());
        let gbar = position_means(&lin.g, lin.samples, nnz);
        let cbar = position_means(&lin.c, lin.samples, nnz);
        let mut t = Triplets::new(n, n);
        for (i, j, _) in pattern.iter() {
            t.push(i, j, Complex::ZERO);
        }
        // Positions are unique and in CSR order, so the block's value
        // order is the pattern's slot order.
        let mut block = t.to_pattern();
        let set_bin = |block: &mut Csr<Complex>, bin: usize| {
            let omega = grid.bin_omega(bin);
            for ((v, &g), &c) in block.vals_mut().iter_mut().zip(&gbar).zip(&cbar) {
                *v = Complex::new(g, omega * c);
            }
        };
        let bins: Vec<(usize, usize)> = grid.half_spectrum().collect();
        // Analyse the first bin with ω ≠ 0. At DC an inductor's branch row
        // has a zero diagonal, and an analysis pivoting around it would
        // fail every other bin's pivots; this way DC alone falls back.
        let anchor = bins.iter().position(|&(k, _)| grid.bin_omega(k) != 0.0).unwrap_or(0);
        set_bin(&mut block, bins[anchor].0);
        let analysed = block.lu().map_err(Error::Numerics)?;
        let mut blocks = Vec::with_capacity(bins.len());
        for (at, &(k, _)) in bins.iter().enumerate() {
            blocks.push(if at == anchor {
                analysed.clone()
            } else {
                set_bin(&mut block, k);
                analysed.refactor(&block).map_err(Error::Numerics)?
            });
        }
        let factor_bytes = analysed.analysis_bytes()
            + blocks
                .iter()
                .map(|lu| {
                    let own = if lu.shares_analysis(&analysed) { 0 } else { lu.analysis_bytes() };
                    lu.value_bytes() + own
                })
                .sum::<usize>();
        telemetry::counter_add("hb.precond.factorizations", 1);
        let mut rhs = AlignedVec::new();
        rhs.resize(n, Complex::ZERO);
        let mut sol = AlignedVec::new();
        sol.resize(n, Complex::ZERO);
        Ok(HarmonicBlockPrecond {
            n,
            bins,
            blocks,
            factor_bytes,
            pattern,
            gbar,
            cbar,
            scratch: RefCell::new(PrecondScratch { grid: grid.workspace(), rhs, sol }),
        })
    }

    /// Whether `Δ` can be taken against this factor: it was built on
    /// `lin`'s stamp pattern.
    fn fits(&self, lin: &Linearization) -> bool {
        Arc::ptr_eq(&self.pattern, &lin.pattern)
    }

    /// Heap bytes held, by capacity: the factors, the averages and the
    /// apply buffers. The pattern is the workspace's, counted there.
    fn bytes(&self) -> usize {
        let ws = self.scratch.borrow();
        self.factor_bytes
            + self.bins.capacity() * std::mem::size_of::<(usize, usize)>()
            + (self.gbar.capacity() + self.cbar.capacity()) * std::mem::size_of::<f64>()
            + ws.grid.bytes()
            + (ws.rhs.capacity() + ws.sol.capacity()) * std::mem::size_of::<Complex>()
    }

    /// `z ← M⁻¹·r`, each unknown combined into its slot by `put(o, z_i)`.
    ///
    /// Packs `r` as in [`SpectralGrid::add_dt_with`] (unknowns `i` and
    /// `i + h`, `h = ⌈n/2⌉`, as `a + j·b`) and transforms it once. Bin `k`
    /// of the packed spectrum is `Z_k = A_k + j·B_k`, and since `a` and
    /// `b` are real, `A_k = (Z_k + conj Z₋ₖ)/2` and
    /// `B_k = (Z_k − conj Z₋ₖ)/2j`. Each half-spectrum block solves for
    /// `X_k`; `X_a + j·X_b` goes to bin `k` and its conjugate pair to
    /// `−k`, and one inverse transform returns `z` packed.
    fn solve(
        &self,
        r: &[f64],
        z: &mut [f64],
        put: impl Fn(&mut f64, f64),
    ) -> rfsim_numerics::Result<()> {
        let _span = telemetry::span("hb.precond.apply");
        let n = self.n;
        let h = packed_width(n);
        let PrecondScratch { grid, rhs, sol } = &mut *self.scratch.borrow_mut();
        grid.pack(r, n);
        let span_fwd = telemetry::span("hb.precond.fft_fwd");
        grid.forward();
        drop(span_fwd);
        let span_trsv = telemetry::span("hb.precond.trsv");
        let spec = grid.spectrum_mut();
        for (&(k, kc), lu) in self.bins.iter().zip(&self.blocks) {
            let (zk, zc) = (&spec[k * h..(k + 1) * h], &spec[kc * h..(kc + 1) * h]);
            let (ra, rb) = rhs.split_at_mut(h);
            for (i, (&p, &q)) in zk.iter().zip(zc).enumerate() {
                ra[i] = Complex::new(0.5 * (p.re + q.re), 0.5 * (p.im - q.im));
                if let Some(b) = rb.get_mut(i) {
                    *b = Complex::new(0.5 * (p.im + q.im), 0.5 * (q.re - p.re));
                }
            }
            lu.solve_into(rhs, sol)?;
            // The conjugate first: at the self-conjugate DC bin the
            // write at `k` then stands.
            let (xa, xb) = sol.split_at(h);
            for i in 0..h {
                let (a, b) = (xa[i], xb.get(i).copied().unwrap_or(Complex::ZERO));
                spec[kc * h + i] = Complex::new(a.re + b.im, b.re - a.im);
                spec[k * h + i] = Complex::new(a.re - b.im, a.im + b.re);
            }
        }
        drop(span_trsv);
        let _span_inv = telemetry::span("hb.precond.fft_inv");
        grid.inverse();
        grid.unpack(z, n, put);
        Ok(())
    }
}

/// Newton-loop state that outlives a single [`newton_hb`] call: the
/// factored harmonic block preconditioner (and the inner-iteration
/// baseline its lazy-refresh test compares against) plus the Krylov
/// recycle space. Inside one solve it spans source-stepping levels; in a
/// sweep ([`HbSweep`]) it spans the sweep points, which is what extends
/// [`PrecondRefresh::Adaptive`] across point boundaries — a factor is
/// kept until the growth test or a rescue re-factor says otherwise, no
/// matter which continuation level or sweep point produced it.
pub(crate) struct NewtonCarry {
    precond: Option<HarmonicBlockPrecond>,
    /// Inner-iteration count right after the last factorization.
    base_inner: Option<usize>,
    recycle: RecycleSpace<f64>,
}

impl NewtonCarry {
    /// A cold carry whose recycle space keeps up to `recycle_dim`
    /// deflation directions (0 disables recycling).
    fn new(recycle_dim: usize) -> Self {
        NewtonCarry { precond: None, base_inner: None, recycle: RecycleSpace::new(recycle_dim) }
    }

    /// Drops everything carried — the next correction starts cold.
    fn reset(&mut self) {
        self.precond = None;
        self.base_inner = None;
        self.recycle.clear();
    }

    /// Resident bytes of the carried preconditioner, factors and apply
    /// buffers (the recycle space's share is counted by its owner, which
    /// knows the operator dimension).
    fn bytes(&self) -> usize {
        self.precond.as_ref().map_or(0, HarmonicBlockPrecond::bytes)
    }
}

/// Solves the periodic (or quasi-periodic) steady state of `dae` on `grid`.
///
/// # Errors
/// [`Error::NoConvergence`] if Newton stalls, and propagated numerical
/// errors from factorization/GMRES.
pub fn solve_hb(dae: &dyn Dae, grid: &SpectralGrid, opts: &HbOptions) -> Result<HbSolution> {
    let n = dae.dim();
    let ws = RefCell::new(HbWorkspace::new(grid, n));
    let mut gws = GmresWorkspace::new();
    let mut carry = NewtonCarry::new(0);
    solve_hb_with(dae, grid, opts, None, &ws, &mut gws, &mut carry)
}

/// The full HB solve with caller-owned hot-path state: workspace, GMRES
/// basis, and the Newton carry (preconditioner + recycle space). With
/// `warm_x` the solve starts from a previous solution at full excitation
/// (no source stepping); without it the initial guess is the DC operating
/// point broadcast over the grid, refined through `opts.source_steps`.
fn solve_hb_with(
    dae: &dyn Dae,
    grid: &SpectralGrid,
    opts: &HbOptions,
    warm_x: Option<&[f64]>,
    ws: &RefCell<HbWorkspace>,
    gws: &mut GmresWorkspace<f64>,
    carry: &mut NewtonCarry,
) -> Result<HbSolution> {
    let _span = telemetry::span("hb.solve");
    let n = dae.dim();
    let total = grid.samples();
    let nun = total * n;
    telemetry::counter_add("hb.solves", 1);
    telemetry::gauge_set("hb.unknowns", nun as f64);
    // Initial guess: the warm start, or the DC operating point broadcast
    // over the grid.
    let mut x = match warm_x {
        Some(xs) => xs.to_vec(),
        None => {
            let op = dc_operating_point(dae, &opts.dc)?;
            let mut x = vec![0.0; nun];
            for s in 0..total {
                x[s * n..(s + 1) * n].copy_from_slice(&op.x);
            }
            x
        }
    };
    // Excitation samples and their DC average (for source stepping).
    let mut b_full = vec![0.0; nun];
    {
        let mut bs = vec![0.0; n];
        for s in 0..total {
            dae.eval_b(grid.time(s), &mut bs);
            b_full[s * n..(s + 1) * n].copy_from_slice(&bs);
        }
    }
    let mut b_dc = vec![0.0; n];
    for s in 0..total {
        for i in 0..n {
            b_dc[i] += b_full[s * n + i];
        }
    }
    for v in &mut b_dc {
        *v /= total as f64;
    }

    let mut stats = HbStats { unknowns: nun, ..Default::default() };
    // A warm start sits near the full-excitation solution already; source
    // stepping from the DC average would walk away from it.
    let steps = if warm_x.is_some() { 1 } else { opts.source_steps.max(1) };
    for step in 1..=steps {
        let alpha = step as f64 / steps as f64;
        let b: Vec<f64> = (0..nun)
            .map(|si| {
                let i = si % n;
                b_dc[i] + alpha * (b_full[si] - b_dc[i])
            })
            .collect();
        newton_hb(dae, grid, &mut x, &b, opts, &mut stats, ws, gws, carry)?;
    }
    telemetry::counter_add("hb.newton.iterations", stats.newton_iterations as u64);
    telemetry::counter_add("hb.gmres.iterations", stats.linear_iterations as u64);
    telemetry::counter_add("hb.matvecs", stats.matvecs as u64);
    telemetry::gauge_set("hb.solver_bytes", stats.solver_bytes as f64);
    Ok(HbSolution { grid: grid.clone(), n, x, stats })
}

#[allow(clippy::too_many_arguments)]
fn newton_hb(
    dae: &dyn Dae,
    grid: &SpectralGrid,
    x: &mut Vec<f64>,
    b: &[f64],
    opts: &HbOptions,
    stats: &mut HbStats,
    ws: &RefCell<HbWorkspace>,
    gws: &mut GmresWorkspace<f64>,
    carry: &mut NewtonCarry,
) -> Result<()> {
    let nun = x.len();
    let _span = telemetry::span("hb.newton");
    let mut trace = telemetry::TraceBuf::new("hb.newton");
    if trace.is_active() {
        trace.set_label(format!("{nun} unknowns, {} samples", grid.samples()));
    }
    let mut tail = ResidualTail::new();
    let mut monitor = telemetry::ResidualMonitor::newton("hb.newton");
    let mut first_inner: Option<usize> = None;
    let mut flagged_precond = false;
    let mut last_res = f64::INFINITY;
    // `cur` holds the residual and linearization at `x` when the line
    // search already assembled them (`assemble` is a pure function of
    // `x`); the two buffers swap as the line search accepts a trial.
    let (mut cur, mut trial) = (Assembly::default(), Assembly::default());
    let mut assembled = false;
    for it in 0..opts.max_newton {
        if !std::mem::take(&mut assembled) {
            assemble(dae, grid, x, b, &mut ws.borrow_mut(), &mut cur);
        }
        let Assembly { r, lin: lins } = &cur;
        let res = norm_inf(r);
        last_res = res;
        trace.push(res);
        monitor.observe(res);
        tail.push(res);
        if !res.is_finite() {
            // A NaN/Inf residual cannot recover; abort instead of
            // iterating on poisoned values.
            trace.commit(false);
            return Err(Error::NoConvergence {
                iterations: it,
                residual: res,
                residual_tail: tail.to_vec(),
            });
        }
        if res < opts.tol {
            trace.commit(true);
            return Ok(());
        }
        stats.newton_iterations += 1;
        let dx = match opts.solver {
            HbSolver::Direct => {
                // Dense assembly by probing the operator with unit vectors.
                let mut jac = Mat::zeros(nun, nun);
                let mut e = vec![0.0; nun];
                let mut col = vec![0.0; nun];
                for j in 0..nun {
                    e[j] = 1.0;
                    apply_jacobian(grid, lins, &e, &mut col, &mut ws.borrow_mut());
                    stats.matvecs += 1;
                    for i in 0..nun {
                        jac[(i, j)] = col[i];
                    }
                    e[j] = 0.0;
                }
                stats.solver_bytes = stats.solver_bytes.max(nun * nun * 8);
                jac.solve(r).map_err(Error::Numerics)?
            }
            HbSolver::Gmres { precondition } => {
                let matvecs = Cell::new(0usize);
                let basis = (opts.krylov.restart.min(nun) + 1) * nun * 8;
                // The Jacobian moved since the last correction, so the
                // recycled directions' images are stale: deflating costs a
                // refresh (`dim` matvecs) to re-establish C = A·U against
                // the current operator. That only pays when inner solves
                // are long relative to the space; with the block
                // preconditioner healthy (a handful of iterations per
                // correction) the space is pure overhead, so gate on the
                // measured baseline count.
                let recycling = carry.recycle.capacity() > 0
                    && carry.base_inner.is_some_and(|b| b >= 3 * carry.recycle.capacity().max(1));
                let result = if precondition {
                    // A kept factor serves only the pattern it was built on.
                    let mut refactor = !carry.precond.as_ref().is_some_and(|p| p.fits(lins));
                    loop {
                        if refactor {
                            carry.precond = Some(HarmonicBlockPrecond::new(grid, lins)?);
                            stats.precond_factorizations += 1;
                            carry.base_inner = None;
                        }
                        let precond = carry.precond.as_ref().expect("factored above");
                        stats.solver_bytes = stats.solver_bytes.max(precond.bytes() + basis);
                        match gmres_fused(
                            grid,
                            lins,
                            precond,
                            r,
                            &opts.krylov,
                            ws,
                            gws,
                            recycling.then_some(&mut carry.recycle),
                            &matvecs,
                        ) {
                            // A kept factor from an earlier linearization
                            // can stall GMRES outright; re-factor at the
                            // current point and retry once before failing.
                            Err(rfsim_numerics::Error::NoConvergence { .. }) if !refactor => {
                                refactor = true;
                            }
                            other => break other,
                        }
                    }
                } else {
                    let op = FnOperator::new(nun, |v: &[f64], y: &mut [f64]| {
                        apply_jacobian(grid, lins, v, y, &mut ws.borrow_mut());
                        matvecs.set(matvecs.get() + 1);
                    });
                    stats.solver_bytes = stats.solver_bytes.max(basis);
                    gmres_with(&op, r, None, &IdentityPrecond, &opts.krylov, gws, None)
                };
                let (dx, st) = result.map_err(Error::Numerics)?;
                telemetry::histogram_record("hb.gmres.iterations_per_newton", st.iterations as f64);
                // Preconditioner-quality trend: a sharp rise in inner
                // iterations per Newton step means the block
                // preconditioner stopped matching the Jacobian. The
                // refresh decision compares against the count right after
                // the last factorization and is independent of telemetry.
                let first = *first_inner.get_or_insert(st.iterations);
                let base = *carry.base_inner.get_or_insert(st.iterations);
                let refresh_due = precondition
                    && match opts.precond_refresh {
                        PrecondRefresh::EveryIteration => true,
                        PrecondRefresh::Adaptive { growth } => {
                            (st.iterations as f64) > growth * (base.max(4) as f64)
                        }
                    };
                if monitor.is_active() {
                    telemetry::gauge_set("hb.precond.inner_per_newton", st.iterations as f64);
                    let degraded = st.iterations > 3 * first.max(4)
                        || (refresh_due && opts.precond_refresh != PrecondRefresh::EveryIteration);
                    if !flagged_precond && degraded {
                        flagged_precond = true;
                        telemetry::record_health(
                            "precond_degraded",
                            "hb.newton",
                            &format!(
                                "inner GMRES iterations rose from {first} to {} per Newton step",
                                st.iterations
                            ),
                            st.iterations as f64,
                            stats.newton_iterations,
                        );
                    }
                }
                if refresh_due {
                    // Drop the factor; the next correction re-factors at
                    // its own linearization point.
                    carry.precond = None;
                }
                stats.linear_iterations += st.iterations;
                stats.matvecs += matvecs.get();
                dx
            }
        };
        // Damped update.
        let mut alpha = 1.0;
        let mut improved = false;
        for _ in 0..8 {
            let xt: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi - alpha * di).collect();
            assemble(dae, grid, &xt, b, &mut ws.borrow_mut(), &mut trial);
            if norm_inf(&trial.r).is_finite() && norm_inf(&trial.r) < res {
                *x = xt;
                std::mem::swap(&mut cur, &mut trial);
                assembled = true;
                improved = true;
                break;
            }
            alpha *= 0.5;
        }
        if !improved {
            // Accept the smallest step anyway; Newton may still recover.
            let xt: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi - alpha * di).collect();
            *x = xt;
        }
    }
    // Final check.
    if !assembled {
        assemble(dae, grid, x, b, &mut ws.borrow_mut(), &mut cur);
    }
    let final_res = norm_inf(&cur.r);
    trace.push(final_res);
    monitor.observe(final_res);
    tail.push(final_res);
    if final_res < opts.tol {
        trace.commit(true);
        Ok(())
    } else {
        trace.commit(false);
        Err(Error::NoConvergence {
            iterations: opts.max_newton,
            residual: last_res,
            residual_tail: tail.to_vec(),
        })
    }
}

/// Solves the Newton correction `J·dx = r` by GMRES on the
/// preconditioned operator `M⁻¹J = I + M⁻¹Δ` (see [`apply_fused`]), with
/// right-hand side `M⁻¹·r` and no further preconditioner: the Krylov
/// space and the stopping test of left-preconditioned GMRES on `J`, at
/// one preconditioner solve per iteration. `Δ` is taken against
/// `precond`'s averages, and the recycle space, if any, is refreshed
/// against this operator. Every operator application counts in
/// `matvecs`.
#[allow(clippy::too_many_arguments)]
fn gmres_fused(
    grid: &SpectralGrid,
    lin: &Linearization,
    precond: &HarmonicBlockPrecond,
    r: &[f64],
    krylov: &KrylovOptions,
    ws: &RefCell<HbWorkspace>,
    gws: &mut GmresWorkspace<f64>,
    mut recycle: Option<&mut RecycleSpace<f64>>,
    matvecs: &Cell<usize>,
) -> rfsim_numerics::Result<(Vec<f64>, IterStats)> {
    // GMRES borrows the right-hand side while the operator borrows the
    // workspace, so it leaves the workspace for the solve.
    let mut rhs = {
        let mut w = ws.borrow_mut();
        w.delta.set(lin, precond);
        std::mem::take(&mut w.rhs)
    };
    rhs.resize(r.len(), 0.0);
    precond.solve(r, &mut rhs, |o, z| *o = z)?;
    // `LinearOperator::apply` returns nothing: a failed preconditioner
    // solve is kept here, and the operator returns zero, which ends GMRES
    // at once (a happy breakdown) so the error can replace its result.
    let failed = Cell::new(None);
    let op = FnOperator::new(r.len(), |v: &[f64], y: &mut [f64]| {
        matvecs.set(matvecs.get() + 1);
        if let Err(e) = apply_fused(grid, precond, v, y, &mut ws.borrow_mut()) {
            y.fill(0.0);
            let first = failed.take();
            failed.set(first.or(Some(e)));
        }
    });
    if let Some(space) = recycle.as_deref_mut() {
        space.refresh(&op);
    }
    let result = gmres_with(&op, &rhs, None, &IdentityPrecond, krylov, gws, recycle);
    ws.borrow_mut().rhs = rhs;
    match failed.take() {
        Some(e) => Err(e),
        None => result,
    }
}

/// Recycle directions carried across sweep points: successive Newton
/// corrections of neighboring points share dominant directions, and the
/// refresh cost (`dim` matvecs per correction) stays negligible at this
/// size.
const HB_SWEEP_RECYCLE_DIM: usize = 4;

/// Per-sweep state deferred until the first point fixes the DAE
/// dimension.
struct SweepState {
    n: usize,
    /// Converged solution of the previous point — the next warm start.
    x: Vec<f64>,
    ws: RefCell<HbWorkspace>,
    gws: GmresWorkspace<f64>,
    carry: NewtonCarry,
}

/// Warm-started continuation driver for a sweep of related HB problems
/// on one grid (amplitude sweeps, parameter steps, tone-power curves).
///
/// The first point solves cold — DC initial guess plus source stepping —
/// and every later point starts Newton from the previous converged
/// solution at full excitation, carrying the hot-path workspace (with the
/// stamp pattern every linearization shares), the GMRES
/// basis, the cached FFT plans (inside the factored preconditioner's
/// scratch), the factored harmonic block preconditioner (so
/// [`PrecondRefresh::Adaptive`] extends across point boundaries), and
/// the Krylov recycle space. Every point converges to the same
/// `opts.tol` as a cold [`solve_hb`]; a warm start that fails to
/// converge (a fold in the continuation path) is automatically redone
/// cold before the error would surface. Counters
/// `hb.sweep.warm_starts` / `hb.sweep.cold_starts` record the split.
pub struct HbSweep {
    grid: SpectralGrid,
    opts: HbOptions,
    state: Option<SweepState>,
}

impl HbSweep {
    /// A sweep over `grid` with shared solver options.
    pub fn new(grid: &SpectralGrid, opts: &HbOptions) -> Self {
        HbSweep { grid: grid.clone(), opts: opts.clone(), state: None }
    }

    /// Whether the sweep holds a converged previous point, i.e. the next
    /// [`HbSweep::solve`] of a same-dimension DAE will start warm.
    pub fn is_warm(&self) -> bool {
        self.state.is_some()
    }

    /// Resident heap bytes of the warm state, by capacity: previous
    /// solution, hot-path workspace (stamp pattern, `Δ`, GMRES's right-hand
    /// side, transform buffers), GMRES workspace, preconditioner factors,
    /// averages and buffers, and recycle space. What a cache eviction
    /// would actually free — used by `rfsim-serve` to keep resident
    /// sweeps under a memory budget.
    pub fn state_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |st| {
            // The recycle space holds U and C, `dim` vectors each.
            let recycle = 2 * st.carry.recycle.dim() * st.x.len() * std::mem::size_of::<f64>();
            st.x.capacity() * std::mem::size_of::<f64>()
                + st.ws.borrow().bytes()
                + st.gws.bytes()
                + recycle
                + st.carry.bytes()
        })
    }

    /// Solves the next sweep point. Consecutive calls expect DAEs of the
    /// same dimension (the same circuit with stepped parameters); a
    /// dimension change restarts the sweep cold.
    ///
    /// # Errors
    /// [`Error::NoConvergence`] if both the warm start and the cold redo
    /// fail, plus propagated numerical errors.
    pub fn solve(&mut self, dae: &dyn Dae) -> Result<HbSolution> {
        let n = dae.dim();
        if let Some(st) = self.state.as_mut().filter(|st| st.n == n) {
            telemetry::counter_add("hb.sweep.warm_starts", 1);
            let warm = solve_hb_with(
                dae,
                &self.grid,
                &self.opts,
                Some(&st.x),
                &st.ws,
                &mut st.gws,
                &mut st.carry,
            );
            return match warm {
                Ok(sol) => {
                    st.x.copy_from_slice(&sol.x);
                    Ok(sol)
                }
                Err(Error::NoConvergence { .. }) => {
                    // The previous solution attracted Newton to a stall;
                    // redo this point cold with everything carried dropped.
                    telemetry::counter_add("hb.sweep.cold_starts", 1);
                    st.carry.reset();
                    let sol = solve_hb_with(
                        dae,
                        &self.grid,
                        &self.opts,
                        None,
                        &st.ws,
                        &mut st.gws,
                        &mut st.carry,
                    )?;
                    st.x.copy_from_slice(&sol.x);
                    Ok(sol)
                }
                Err(e) => Err(e),
            };
        }
        telemetry::counter_add("hb.sweep.cold_starts", 1);
        let ws = RefCell::new(HbWorkspace::new(&self.grid, n));
        let mut gws = GmresWorkspace::new();
        let mut carry = NewtonCarry::new(HB_SWEEP_RECYCLE_DIM);
        let sol = solve_hb_with(dae, &self.grid, &self.opts, None, &ws, &mut gws, &mut carry)?;
        self.state = Some(SweepState { n, x: sol.x.clone(), ws, gws, carry });
        Ok(sol)
    }
}

/// The HB hot path frozen at one linearization point: the matrix-free
/// Jacobian application, the factored harmonic block preconditioner, and
/// the fused preconditioned operator built from the two, with every
/// buffer preallocated. Each GMRES iteration of [`solve_hb`] runs exactly
/// [`HbHotPath::fused_apply`]; the handle exists so the
/// allocation-regression test, the operator tests and profiling
/// harnesses can exercise that loop directly.
pub struct HbHotPath {
    grid: SpectralGrid,
    lin: Linearization,
    precond: HarmonicBlockPrecond,
    ws: HbWorkspace,
}

impl HbHotPath {
    /// Prepares the hot path at the DC operating point broadcast over the
    /// grid, where every sample linearizes alike and `Δ` is empty.
    ///
    /// # Errors
    /// Propagates DC-solve and factorization failures.
    pub fn prepare(dae: &dyn Dae, grid: &SpectralGrid) -> Result<Self> {
        let op = dc_operating_point(dae, &DcOptions::default())?;
        let x: Vec<f64> = (0..grid.samples()).flat_map(|_| op.x.iter().copied()).collect();
        Self::prepare_at(dae, grid, &x)
    }

    /// Assembles the linearization at the sample-major `x` (`x[s·n + i]`,
    /// for example an [`HbSolution`]'s), factors the block preconditioner
    /// on its averages, and takes `Δ` against them.
    ///
    /// # Errors
    /// [`Error::InvalidSetup`] when `x` is not `samples()·n` long, and
    /// factorization failures.
    pub fn prepare_at(dae: &dyn Dae, grid: &SpectralGrid, x: &[f64]) -> Result<Self> {
        let n = dae.dim();
        if x.len() != grid.unknowns(n) {
            return Err(Error::InvalidSetup(format!(
                "HB hot path: {} values for {} unknowns",
                x.len(),
                grid.unknowns(n)
            )));
        }
        let mut ws = HbWorkspace::new(grid, n);
        let mut at = Assembly::default();
        assemble(dae, grid, x, &vec![0.0; x.len()], &mut ws, &mut at);
        let precond = HarmonicBlockPrecond::new(grid, &at.lin)?;
        ws.delta.set(&at.lin, &precond);
        Ok(HbHotPath { grid: grid.clone(), lin: at.lin, precond, ws })
    }

    /// Total HB unknowns (`samples()·n`).
    pub fn unknowns(&self) -> usize {
        self.lin.samples * self.precond.n
    }

    /// `y ← J·v` through the matrix-free HB Jacobian. Zero heap
    /// allocation once the workspace is warm.
    pub fn matvec(&mut self, v: &[f64], y: &mut [f64]) {
        apply_jacobian(&self.grid, &self.lin, v, y, &mut self.ws);
    }

    /// `z ← M⁻¹·r` through the harmonic block preconditioner.
    ///
    /// # Errors
    /// Propagates block-solve failures.
    pub fn precond_apply(&self, r: &[f64], z: &mut [f64]) -> Result<()> {
        self.precond.solve(r, z, |o, v| *o = v).map_err(Error::Numerics)
    }

    /// `y ← M⁻¹J·v = v + M⁻¹·(Δ·v)`, the operator preconditioned GMRES
    /// iterates on: equal to `precond_apply` after `matvec`, but it
    /// applies only `Δ = J − M`, and its one transform pair is
    /// `M⁻¹`'s (the Δ product adds a pair only when some capacitance
    /// varies over the period). Zero heap allocation once warm.
    ///
    /// # Errors
    /// Propagates block-solve failures.
    pub fn fused_apply(&mut self, v: &[f64], y: &mut [f64]) -> Result<()> {
        apply_fused(&self.grid, &self.precond, v, y, &mut self.ws).map_err(Error::Numerics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fourier::ToneAxis;
    use rfsim_circuit::prelude::*;
    use rfsim_circuit::Circuit;

    /// RC low-pass driven by a sine: HB must match the analytic AC answer.
    #[test]
    fn linear_rc_matches_ac_theory() {
        let f0 = 1e6;
        let (r, c) = (1e3, 1e-9);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
        ckt.add(Resistor::new("R1", a, out, r));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, c));
        let dae = ckt.into_dae().unwrap();
        let grid = SpectralGrid::single_tone(f0, 5).unwrap();
        let sol = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
        let out_idx = dae.node_index(out).unwrap();
        let gain = 1.0 / (1.0 + (2.0 * std::f64::consts::PI * f0 * r * c).powi(2)).sqrt();
        let amp = sol.amplitude(out_idx, &[1]);
        assert!((amp - gain).abs() < 1e-6, "amp {amp} vs gain {gain}");
        // No spurious harmonics in a linear circuit.
        assert!(sol.amplitude(out_idx, &[2]) < 1e-9);
        assert!(sol.amplitude(out_idx, &[3]) < 1e-9);
    }

    /// Diode rectifier: strongly nonlinear; DC component must appear.
    #[test]
    fn diode_rectifier_generates_dc_and_harmonics() {
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
        ckt.add(Diode::new("D1", a, out, 1e-14));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 10e3));
        ckt.add(Capacitor::new("CL", out, Circuit::GROUND, 20e-9));
        let dae = ckt.into_dae().unwrap();
        let grid = SpectralGrid::single_tone(f0, 15).unwrap();
        let opts = HbOptions { source_steps: 4, ..Default::default() };
        let sol = solve_hb(&dae, &grid, &opts).unwrap();
        let out_idx = dae.node_index(out).unwrap();
        let dc = sol.amplitude(out_idx, &[0]);
        // Peak rectifier with big RC: DC out a large fraction of (1 − V_diode).
        assert!(dc > 0.15, "dc = {dc}");
        // Ripple at f0 smaller than DC.
        assert!(sol.amplitude(out_idx, &[1]) < dc);
    }

    /// Mixer two-tone test: a multiplier driven by f1 (slow) and f2 (fast)
    /// must produce energy exactly at f2 ± f1.
    #[test]
    fn multiplier_mixes_two_tones() {
        let (f1, f2) = (1e5, 9e8);
        let mut ckt = Circuit::new();
        let rf = ckt.node("rf");
        let lo = ckt.node("lo");
        let out = ckt.node("out");
        ckt.add(VSource::sine("VRF", rf, Circuit::GROUND, 0.0, 0.1, f1));
        ckt.add(VSource::sine_fast("VLO", lo, Circuit::GROUND, 0.0, 1.0, f2));
        ckt.add(Multiplier::new(
            "MIX",
            out,
            Circuit::GROUND,
            rf,
            Circuit::GROUND,
            lo,
            Circuit::GROUND,
            1e-3,
        ));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3).noiseless());
        let dae = ckt.into_dae().unwrap();
        let grid = SpectralGrid::two_tone(ToneAxis::new(f1, 2), ToneAxis::new(f2, 2)).unwrap();
        let sol = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
        let out_idx = dae.node_index(out).unwrap();
        // i = gain·v_rf·v_lo = 1e-3·0.1·1.0·sin·sin → products at f2±f1
        // each of amplitude (1e-3·0.1·1/2)·R = 0.05 V.
        let up = sol.amplitude(out_idx, &[1, 1]);
        let dn = sol.amplitude(out_idx, &[-1, 1]);
        assert!((up - 0.05).abs() < 1e-6, "up = {up}");
        assert!((dn - 0.05).abs() < 1e-6, "dn = {dn}");
        // Nothing at the LO itself (ideal multiplier, no feedthrough).
        assert!(sol.amplitude(out_idx, &[0, 1]) < 1e-9);
    }

    /// Direct and GMRES backends agree.
    #[test]
    fn direct_and_gmres_agree() {
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 0.8, f0));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-12));
        let dae = ckt.into_dae().unwrap();
        let grid = SpectralGrid::single_tone(f0, 7).unwrap();
        // Fixed (small) restart so the Krylov memory model is linear in the
        // unknown count.
        let krylov = KrylovOptions { restart: 20, ..Default::default() };
        let gm = solve_hb(&dae, &grid, &HbOptions { krylov, ..Default::default() }).unwrap();
        let di =
            solve_hb(&dae, &grid, &HbOptions { solver: HbSolver::Direct, ..Default::default() })
                .unwrap();
        let oi = dae.node_index(out).unwrap();
        for k in 0..5 {
            let a1 = gm.amplitude(oi, &[k]);
            let a2 = di.amplitude(oi, &[k]);
            assert!((a1 - a2).abs() < 1e-7, "k={k}: {a1} vs {a2}");
        }
        // Direct memory grows quadratically with harmonic count; the
        // Krylov backend's grows linearly (the paper's §2.1 cost claim).
        let big = SpectralGrid::single_tone(1e6, 21).unwrap();
        let gm_big = solve_hb(&dae, &big, &HbOptions { krylov, ..Default::default() }).unwrap();
        let di_big =
            solve_hb(&dae, &big, &HbOptions { solver: HbSolver::Direct, ..Default::default() })
                .unwrap();
        let di_growth = di_big.stats.solver_bytes as f64 / di.stats.solver_bytes as f64;
        let gm_growth = gm_big.stats.solver_bytes as f64 / gm.stats.solver_bytes as f64;
        assert!(
            di_growth > 2.0 * gm_growth,
            "direct growth {di_growth:.1} vs gmres growth {gm_growth:.1}"
        );
    }

    /// A diode clipper at a given drive amplitude.
    fn clipper(amp: f64) -> rfsim_circuit::dae::CircuitDae {
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, amp, f0));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        ckt.into_dae().unwrap()
    }

    /// Warm-started sweep solutions match independent cold solves within
    /// the solver tolerance, point for point.
    #[test]
    fn sweep_matches_cold_solves() {
        let grid = SpectralGrid::single_tone(1e6, 11).unwrap();
        let opts = HbOptions { source_steps: 3, ..Default::default() };
        let amps = [0.4, 0.5, 0.6, 0.7, 0.8];
        let daes: Vec<_> = amps.iter().map(|&a| clipper(a)).collect();
        let mut sweep = HbSweep::new(&grid, &opts);
        for dae in &daes {
            let w = sweep.solve(dae).unwrap();
            let cold = solve_hb(dae, &grid, &opts).unwrap();
            // Both converged to residual ∞-norm < tol on the same
            // problem; the iterates themselves agree to a looser bound
            // set by the Newton tolerance.
            for (a, b) in w.x.iter().zip(&cold.x) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    /// The sweep's warm starts spend fewer Newton iterations per point
    /// than cold solves.
    #[test]
    fn sweep_warm_starts_save_newton_iterations() {
        let grid = SpectralGrid::single_tone(1e6, 11).unwrap();
        let opts = HbOptions { source_steps: 4, ..Default::default() };
        let amps = [0.5, 0.55, 0.6, 0.65, 0.7];
        let daes: Vec<_> = amps.iter().map(|&a| clipper(a)).collect();
        let mut sweep = HbSweep::new(&grid, &opts);
        let warm: Vec<_> = daes.iter().map(|d| sweep.solve(d).unwrap()).collect();
        let warm_newton: usize = warm[1..].iter().map(|s| s.stats.newton_iterations).sum();
        let cold_newton: usize = daes[1..]
            .iter()
            .map(|d| solve_hb(d, &grid, &opts).unwrap().stats.newton_iterations)
            .sum();
        assert!(warm_newton < cold_newton, "warm {warm_newton} !< cold {cold_newton}");
    }

    /// A dimension change mid-sweep falls back to a cold start rather
    /// than panicking on mismatched buffers.
    #[test]
    fn sweep_restarts_on_dimension_change() {
        let grid = SpectralGrid::single_tone(1e6, 7).unwrap();
        let mut sweep = HbSweep::new(&grid, &HbOptions::default());
        let d1 = clipper(0.5);
        sweep.solve(&d1).unwrap();
        // A different circuit with more nodes.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 0.5, 1e6));
        ckt.add(Resistor::new("R1", a, m, 500.0));
        ckt.add(Resistor::new("R2", m, out, 500.0));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
        let d2 = ckt.into_dae().unwrap();
        let sol = sweep.solve(&d2).unwrap();
        assert_eq!(sol.n, 4);
    }

    /// The stamp pattern lands each value at its own `(i, j)`: a sample
    /// that stamps the same positions in another order (with a duplicate)
    /// sums them where they belong, and one that stamps a new position
    /// fails until the pattern grows, after which the earlier stamps
    /// scatter onto it too.
    #[test]
    fn stamp_pattern_is_keyed_on_positions() {
        let stamps = |entries: &[(usize, usize, f64)]| {
            let mut t = Triplets::new(2, 2);
            for &(i, j, v) in entries {
                t.push(i, j, v);
            }
            t
        };
        let g = stamps(&[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let c = stamps(&[(1, 1, 0.5)]);
        let empty = Triplets::new(2, 2).to_pattern();
        assert!(!empty.scatter(&g, &mut []), "the empty pattern holds nothing");
        let pattern = empty.grown(&g).grown(&c);
        let (mut gv, mut cv) = (vec![0.0; 3], vec![0.0; 3]);
        assert!(pattern.scatter(&g, &mut gv) && pattern.scatter(&c, &mut cv));
        assert_eq!(
            (gv.as_slice(), cv.as_slice()),
            ([1.0, 2.0, 3.0].as_slice(), [0.0, 0.0, 0.5].as_slice())
        );

        let swapped = stamps(&[(1, 1, 5.0), (0, 1, 4.0), (0, 0, 6.0), (1, 1, 1.0)]);
        assert!(pattern.scatter(&swapped, &mut gv));
        assert_eq!(gv, [6.0, 4.0, 6.0]);

        let grown = stamps(&[(1, 0, 7.0), (0, 0, 1.0)]);
        assert!(!pattern.scatter(&grown, &mut gv));
        let pattern = pattern.grown(&grown);
        let mut gv = vec![0.0; 4];
        assert!(pattern.scatter(&g, &mut gv));
        assert_eq!(gv, [1.0, 2.0, 0.0, 3.0]);
        assert!(pattern.scatter(&grown, &mut gv));
        assert_eq!(gv, [1.0, 0.0, 7.0, 0.0]);
    }

    /// A sweep point whose circuit stamps a position the earlier points
    /// did not grows the shared pattern; the carried factor, built on
    /// the old pattern, is refactored rather than used for `Δ`.
    #[test]
    fn sweep_refactors_when_the_pattern_grows() {
        let grid = SpectralGrid::single_tone(1e6, 7).unwrap();
        let opts = HbOptions::default();
        // Three unknowns like the clipper's, without its (a, out) position.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 0.5, 1e6));
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1e3));
        ckt.add(Vccs::new("G1", out, Circuit::GROUND, a, Circuit::GROUND, 1e-4));
        ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1e3));
        ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
        let first = ckt.into_dae().unwrap();
        let second = clipper(0.8);
        assert_eq!(first.dim(), second.dim());
        let mut sweep = HbSweep::new(&grid, &opts);
        sweep.solve(&first).unwrap();
        let warm = sweep.solve(&second).unwrap();
        assert!(warm.stats.precond_factorizations >= 1);
        let cold = solve_hb(&second, &grid, &opts).unwrap();
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-6, "{w} vs {c}");
        }
    }

    /// The preconditioner pays for itself on a stiff linear problem.
    #[test]
    fn preconditioner_reduces_iterations() {
        let f0 = 1e6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        let out = ckt.node("out");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
        ckt.add(Resistor::new("R1", a, m, 50.0));
        ckt.add(Inductor::new("L1", m, out, 1e-5));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1e4));
        let dae = ckt.into_dae().unwrap();
        let grid = SpectralGrid::single_tone(f0, 10).unwrap();
        let with = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
        let without = solve_hb(
            &dae,
            &grid,
            &HbOptions { solver: HbSolver::Gmres { precondition: false }, ..Default::default() },
        )
        .unwrap();
        assert!(
            with.stats.linear_iterations < without.stats.linear_iterations,
            "with {} !< without {}",
            with.stats.linear_iterations,
            without.stats.linear_iterations
        );
    }
}
