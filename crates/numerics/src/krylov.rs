//! Krylov-subspace iterative solvers: one restarted block GMRES loop,
//! which single right-hand-side GMRES runs at `p = 1`, generic over
//! real/complex scalars, with pluggable preconditioning.
//!
//! These are the "iterative linear algebra techniques" (\[12\] in the paper)
//! that let harmonic balance "handle integrated designs containing many more
//! nonlinear components than traditional implementations": the HB Jacobian
//! is never formed — only its action on a vector — and GMRES solves the
//! Newton correction through a [`LinearOperator`].

use crate::aligned::AlignedVec;
use crate::scalar::{gdot, gnorm2, Scalar};
use crate::{Error, ResidualTail, Result};
use rfsim_telemetry as telemetry;

/// Abstract linear operator `y = A·x` for matrix-free Krylov methods.
///
/// Implemented by dense matrices, sparse matrices, the HB Jacobian
/// (FFT-based application), and the IES³ compressed MoM matrix.
pub trait LinearOperator<T: Scalar> {
    /// Operator dimension (square).
    fn dim(&self) -> usize;
    /// Applies the operator: `y ← A·x`. `y` is pre-sized to `dim()`.
    fn apply(&self, x: &[T], y: &mut [T]);
    /// Applies the operator to a block of vectors: `ys[j] ← A·xs[j]`.
    ///
    /// The default loops over [`LinearOperator::apply`]; operators with
    /// per-application traversal overhead (the IES³ compressed matrix
    /// walks its block tree once per call) override this to amortize the
    /// traversal across the whole block — the multi-RHS path block GMRES
    /// drives.
    fn apply_block(&self, xs: &[Vec<T>], ys: &mut [Vec<T>]) {
        for (x, y) in xs.iter().zip(ys.iter_mut()) {
            self.apply(x, y);
        }
    }
}

impl<T: Scalar> LinearOperator<T> for crate::dense::Mat<T> {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(&self.matvec(x));
    }
}

impl<T: Scalar> LinearOperator<T> for crate::sparse::Csr<T> {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(&self.matvec(x));
    }
}

/// A function wrapper implementing [`LinearOperator`].
pub struct FnOperator<F> {
    dim: usize,
    f: F,
}

impl<F> FnOperator<F> {
    /// Wraps a closure `f(x, y)` computing `y = A·x` for vectors of length
    /// `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnOperator { dim, f }
    }
}

impl<T: Scalar, F: Fn(&[T], &mut [T])> LinearOperator<T> for FnOperator<F> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn apply(&self, x: &[T], y: &mut [T]) {
        (self.f)(x, y)
    }
}

/// Left preconditioner `z = M⁻¹·r`.
pub trait Preconditioner<T: Scalar> {
    /// Applies the preconditioner: `z ← M⁻¹ r`. `z` is pre-sized.
    ///
    /// # Errors
    /// Factored preconditioners propagate solve failures (e.g.
    /// [`Error::Singular`]) instead of panicking mid-iteration; the Krylov
    /// drivers forward the error to their caller.
    fn apply(&self, r: &[T], z: &mut [T]) -> Result<()>;
}

/// Identity (no) preconditioning.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl<T: Scalar> Preconditioner<T> for IdentityPrecond {
    fn apply(&self, r: &[T], z: &mut [T]) -> Result<()> {
        z.copy_from_slice(r);
        Ok(())
    }
}

/// Jacobi (diagonal) preconditioning.
#[derive(Debug, Clone)]
pub struct JacobiPrecond<T> {
    inv_diag: Vec<T>,
}

impl<T: Scalar> JacobiPrecond<T> {
    /// Builds from a diagonal; zero entries are treated as 1 (no scaling).
    pub fn from_diagonal(diag: &[T]) -> Self {
        let inv_diag =
            diag.iter().map(|&d| if d == T::ZERO { T::ONE } else { T::ONE / d }).collect();
        JacobiPrecond { inv_diag }
    }
}

impl<T: Scalar> Preconditioner<T> for JacobiPrecond<T> {
    fn apply(&self, r: &[T], z: &mut [T]) -> Result<()> {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = *ri * *di;
        }
        Ok(())
    }
}

/// Convergence/diagnostic report from an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterStats {
    /// Iterations performed (total inner iterations for GMRES).
    pub iterations: usize,
    /// Final preconditioned residual norm.
    pub residual: f64,
    /// Number of operator applications.
    pub matvecs: usize,
}

/// Options controlling the iterative solvers.
#[derive(Debug, Clone, Copy)]
pub struct KrylovOptions {
    /// Relative residual target (‖r‖/‖b‖).
    pub tol: f64,
    /// Maximum total iterations.
    pub max_iters: usize,
    /// GMRES restart length.
    pub restart: usize,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        KrylovOptions { tol: 1e-10, max_iters: 2000, restart: 60 }
    }
}

/// Reusable buffers for the GMRES loop behind [`gmres_with`] and
/// [`block_gmres`]: the Krylov basis, the Hessenberg columns, the Givens
/// rotations, the rotated projected right-hand sides and the operator's
/// products. A workspace survives restart cycles and repeated solves, so
/// an outer Newton loop pays the basis allocation once instead of per
/// correction. Basis vectors are sized on first use and every buffer
/// grows to the largest solve seen; on a warm workspace no iteration
/// allocates, at any number of right-hand sides.
#[derive(Debug)]
pub struct GmresWorkspace<T: Copy> {
    // The basis lives in 32-byte [`AlignedVec`] storage so the AVX2
    // kernels see aligned loads. A GMRES(m) solve on p right-hand sides
    // keeps m Hessenberg columns in `h` and p projected right-hand sides
    // in `g`, each m + p rows long, and p rotations per column.
    v: Vec<AlignedVec<T>>,
    ax: Vec<Vec<T>>,
    h: Vec<T>,
    cs: Vec<T>,
    sn: Vec<T>,
    g: Vec<T>,
    y: Vec<T>,
    bnorms: Vec<f64>,
}

impl<T: Copy> Default for GmresWorkspace<T> {
    fn default() -> Self {
        GmresWorkspace {
            v: Vec::new(),
            ax: Vec::new(),
            h: Vec::new(),
            cs: Vec::new(),
            sn: Vec::new(),
            g: Vec::new(),
            y: Vec::new(),
            bnorms: Vec::new(),
        }
    }
}

impl<T: Copy> GmresWorkspace<T> {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the workspace holds, by capacity: what dropping it
    /// frees. A warm GMRES(m) workspace of dimension `n` for p
    /// right-hand sides holds up to `m + p` basis vectors, p operator
    /// products, and m Hessenberg columns of `m + p` rows.
    pub fn bytes(&self) -> usize {
        let vectors = self.v.iter().map(AlignedVec::capacity).sum::<usize>()
            + self.ax.iter().map(Vec::capacity).sum::<usize>();
        let small: usize =
            [&self.h, &self.cs, &self.sn, &self.g, &self.y].map(Vec::capacity).iter().sum();
        (vectors + small) * std::mem::size_of::<T>()
            + self.bnorms.capacity() * std::mem::size_of::<f64>()
            + self.v.capacity() * std::mem::size_of::<AlignedVec<T>>()
            + self.ax.capacity() * std::mem::size_of::<Vec<T>>()
    }
}

/// Zero-fills `buf` at length `n`, reusing its allocation.
fn reset_buf<T: Scalar>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    buf.resize(n, T::ZERO);
}

/// Restarted GMRES(m) with left preconditioning.
///
/// Solves `A·x = b`, returning the solution and iteration statistics.
///
/// # Errors
/// Returns [`Error::NoConvergence`] if the iteration budget is exhausted
/// before the tolerance is met.
pub fn gmres<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    precond: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
) -> Result<(Vec<T>, IterStats)> {
    gmres_with(a, b, x0, precond, opts, &mut GmresWorkspace::new(), None)
}

/// [`gmres`] against a caller-owned [`GmresWorkspace`]: identical
/// arithmetic and results, but the Krylov basis, Hessenberg, and Givens
/// buffers are reused across calls instead of reallocated. Only the
/// returned solution vector is allocated once the workspace is warm.
///
/// With `recycle`, the solve is wrapped in subspace recycling: the
/// residual is first deflated through the space (a warm start in the span
/// of previous solves), GMRES then finishes from the improved iterate
/// under the **same** convergence test as a cold solve, and the converged
/// solution direction is harvested back into the space. Counters
/// `krylov.warm_starts` and `krylov.recycle_dim` record how much the
/// sweep reused. The caller is responsible for [`RecycleSpace::refresh`]
/// when the operator changed since the space was last used; the
/// projection is only optimal while `C = A·U` holds.
///
/// # Errors
/// Returns [`Error::NoConvergence`] if the iteration budget is exhausted
/// before the tolerance is met.
pub fn gmres_with<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    precond: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    ws: &mut GmresWorkspace<T>,
    mut recycle: Option<&mut RecycleSpace<T>>,
) -> Result<(Vec<T>, IterStats)> {
    let n = a.dim();
    if b.len() != n {
        return Err(Error::DimensionMismatch { expected: n, found: b.len() });
    }
    let mut x = x0.map_or_else(|| vec![T::ZERO; n], <[T]>::to_vec);
    // A recycled solve starts from its projection: its first cycle
    // applies `A`, even while the space is still empty.
    let from_zero = x0.is_none() && recycle.is_none();
    let mut extra_matvecs = 0usize;
    if let Some(recycle) = recycle.as_deref_mut().filter(|r| r.dim() > 0) {
        let mut r = vec![T::ZERO; n];
        a.apply(&x, &mut r);
        extra_matvecs += 1;
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = *bi - *ri;
        }
        let used = recycle.project(&mut x, &mut r);
        if used > 0 {
            telemetry::counter_add("krylov.warm_starts", 1);
            telemetry::counter_add("krylov.recycle_dim", used as u64);
        }
    }
    let mut stats = cycles(
        a,
        std::slice::from_ref(&b),
        std::slice::from_mut(&mut x),
        from_zero,
        precond,
        opts,
        ws,
        false,
    )?;
    if let Some(recycle) = recycle {
        stats.matvecs += extra_matvecs + 1; // +1 for the harvest below
        recycle.harvest(a, &x);
    }
    Ok((x, stats))
}

/// A recycled (deflation) subspace shared across a sweep of related
/// solves — the GCRO-DR lineage specialized to the sweep workloads here:
/// frequency/continuation sweeps where consecutive operators and
/// right-hand sides differ only slightly.
///
/// The space maintains the pair `(U, C)` with `C = A·U` and `CᴴC = I`.
/// Before a solve, [`RecycleSpace::project`] computes the optimal
/// correction in `span(U)` — `x ← x + U·Cᴴr`, `r ← r − C·Cᴴr` — which
/// removes the components of the residual that previous solves already
/// learned how to invert. After a converged solve,
/// [`RecycleSpace::harvest`] folds the new solution direction into the
/// space (oldest direction evicted beyond `max_dim`). When the operator
/// itself changes between sweep points, [`RecycleSpace::refresh`]
/// recomputes `C = A·U` against the new operator so the invariant — and
/// therefore the optimality of the projection — is restored.
#[derive(Debug, Default)]
pub struct RecycleSpace<T> {
    u: Vec<Vec<T>>,
    c: Vec<Vec<T>>,
    max_dim: usize,
}

impl<T: Scalar> RecycleSpace<T> {
    /// An empty space holding at most `max_dim` deflation directions.
    pub fn new(max_dim: usize) -> Self {
        RecycleSpace { u: Vec::new(), c: Vec::new(), max_dim }
    }

    /// Current number of deflation directions.
    pub fn dim(&self) -> usize {
        self.u.len()
    }

    /// Maximum number of directions the space will hold (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.max_dim
    }

    /// Drops every stored direction.
    pub fn clear(&mut self) {
        self.u.clear();
        self.c.clear();
    }

    /// Folds the direction `w` (typically a converged solution) into the
    /// space: `c = A·w` is orthogonalized against the stored `C`, the
    /// matching combination is removed from `w`, and the normalized pair
    /// is appended. Near-dependent directions (nothing new to learn) are
    /// discarded; beyond `max_dim` the oldest pair is evicted.
    pub fn harvest(&mut self, a: &dyn LinearOperator<T>, w: &[T]) {
        if self.max_dim == 0 || gnorm2(w) < 1e-300 {
            return;
        }
        let mut c = vec![T::ZERO; a.dim()];
        a.apply(w, &mut c);
        let mut u = w.to_vec();
        let scale = gnorm2(&c);
        for (ui, ci) in self.u.iter().zip(&self.c) {
            let alpha = gdot(ci, &c);
            T::slice_axpy(-alpha, ci, &mut c);
            T::slice_axpy(-alpha, ui, &mut u);
        }
        let nrm = gnorm2(&c);
        if nrm <= 1e-10 * scale.max(1e-300) {
            return; // already represented
        }
        T::slice_scale(&mut c, 1.0 / nrm);
        T::slice_scale(&mut u, 1.0 / nrm);
        if self.u.len() == self.max_dim {
            self.u.remove(0);
            self.c.remove(0);
        }
        self.u.push(u);
        self.c.push(c);
    }

    /// Re-establishes `C = A·U` (orthonormal) against a **new** operator:
    /// the sweep moved to the next frequency/parameter point, so the
    /// stored images are stale. Costs `dim()` operator applications;
    /// directions that became dependent under the new operator are
    /// dropped.
    pub fn refresh(&mut self, a: &dyn LinearOperator<T>) {
        let n = a.dim();
        let us = std::mem::take(&mut self.u);
        self.c.clear();
        let mut c = vec![T::ZERO; n];
        for u in us {
            if u.len() != n {
                continue; // stale dimension from a different problem
            }
            a.apply(&u, &mut c);
            let mut cu = c.clone();
            let mut uu = u;
            let scale = gnorm2(&cu);
            for (ui, ci) in self.u.iter().zip(&self.c) {
                let alpha = gdot(ci, &cu);
                T::slice_axpy(-alpha, ci, &mut cu);
                T::slice_axpy(-alpha, ui, &mut uu);
            }
            let nrm = gnorm2(&cu);
            if nrm <= 1e-10 * scale.max(1e-300) {
                continue;
            }
            T::slice_scale(&mut cu, 1.0 / nrm);
            T::slice_scale(&mut uu, 1.0 / nrm);
            self.u.push(uu);
            self.c.push(cu);
        }
    }

    /// Applies the deflation: given the current residual `r = b − A·x`,
    /// moves `x` by the optimal correction in `span(U)` and removes the
    /// matching components from `r`. Returns the space dimension used.
    pub fn project(&self, x: &mut [T], r: &mut [T]) -> usize {
        for (ui, ci) in self.u.iter().zip(&self.c) {
            if ui.len() != x.len() {
                return 0;
            }
            let y = gdot(ci, r);
            T::slice_axpy(y, ui, x);
            T::slice_axpy(-y, ci, r);
        }
        self.dim()
    }
}

/// Block GMRES for multi-RHS systems `A·x_j = b_j`, sharing one Krylov
/// space across all right-hand sides (restarted, left-preconditioned).
///
/// All `p` right-hand sides expand a single block-Krylov basis, so a
/// matrix that costs per-application overhead (IES³ tree traversal, HB
/// FFT setup) is amortized via [`LinearOperator::apply_block`] and the
/// shared basis typically converges in far fewer total iterations than
/// `p` independent solves — this is the multi-conductor capacitance
/// extraction path of the paper's §4 workloads. The small projected
/// problem is a band-Hessenberg least squares (bandwidth `p`) eliminated
/// by Givens rotations; [`gmres`] runs the same loop at `p = 1`.
///
/// `opts.restart` bounds the basis **columns** per cycle and
/// `opts.max_iters` the total columns; [`IterStats::iterations`] counts
/// columns, so per-RHS cost is `iterations / p`. A solve from zero
/// applies the operator once per column; each restart adds one block
/// product of `p` applications.
///
/// # Errors
/// [`Error::NoConvergence`] when any right-hand side misses the
/// tolerance within the budget; dimension mismatches are rejected up
/// front.
pub fn block_gmres<T: Scalar>(
    a: &dyn LinearOperator<T>,
    bs: &[Vec<T>],
    x0: Option<&[Vec<T>]>,
    precond: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
) -> Result<(Vec<Vec<T>>, IterStats)> {
    let n = a.dim();
    let p = bs.len();
    if p == 0 {
        return Ok((Vec::new(), IterStats { iterations: 0, residual: 0.0, matvecs: 0 }));
    }
    if let Some(v) = bs.iter().chain(x0.into_iter().flatten()).find(|v| v.len() != n) {
        return Err(Error::DimensionMismatch { expected: n, found: v.len() });
    }
    if let Some(xs) = x0.filter(|xs| xs.len() != p) {
        return Err(Error::DimensionMismatch { expected: p, found: xs.len() });
    }
    let mut xs = x0.map_or_else(|| vec![vec![T::ZERO; n]; p], <[Vec<T>]>::to_vec);
    // A one-shot solve reserves a whole cycle's basis, so no iteration
    // allocates.
    let mut ws = GmresWorkspace::new();
    ws.v.resize_with(opts.restart.max(1).min(n.max(1)) + p, || AlignedVec::with_capacity(n));
    let stats = cycles(a, bs, &mut xs, x0.is_none(), precond, opts, &mut ws, true)?;
    Ok((xs, stats))
}

/// The one restarted GMRES(m) loop: block GMRES on the `p = bs.len()`
/// right-hand sides, which [`gmres_with`] runs at `p = 1` and
/// [`block_gmres`] at any `p`, timed and counted as `krylov.gmres` or, for
/// a `block`, `krylov.block_gmres`. Every `xs[j]` is updated in place.
/// With `from_zero` (every `xs[j]` is zero) the first cycle starts from
/// the preconditioned right-hand sides instead of applying `A` to zero.
#[allow(clippy::too_many_arguments)]
fn cycles<T: Scalar, B: AsRef<[T]>>(
    a: &dyn LinearOperator<T>,
    bs: &[B],
    xs: &mut [Vec<T>],
    mut from_zero: bool,
    precond: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    ws: &mut GmresWorkspace<T>,
    block: bool,
) -> Result<IterStats> {
    let name = if block { "krylov.block_gmres" } else { "krylov.gmres" };
    let _span = telemetry::span(name);
    crate::kernels::note_dispatch(1);
    let mut trace = telemetry::TraceBuf::new(name);
    let mut monitor = telemetry::ResidualMonitor::new(name);
    let mut tail = ResidualTail::new();
    let (n, p) = (a.dim(), bs.len());
    let m = opts.restart.max(1).min(n.max(1));
    // Rows of one Hessenberg column and of one projected right-hand side.
    let stride = m + p;
    if ws.v.len() < stride {
        ws.v.resize_with(stride, AlignedVec::new);
    }
    if ws.ax.len() < p {
        ws.ax.resize_with(p, Vec::new);
    }
    for y in &mut ws.ax[..p] {
        y.resize(n, T::ZERO);
    }
    reset_buf(&mut ws.h, m * stride);
    reset_buf(&mut ws.cs, m * p);
    reset_buf(&mut ws.sn, m * p);
    reset_buf(&mut ws.y, m);
    // Preconditioned right-hand-side norms for the per-RHS relative
    // stopping test. From x = 0 the first residual block M⁻¹(b − A·0) is
    // M⁻¹b, which the first p basis vectors now hold.
    ws.bnorms.clear();
    for (b, v) in bs.iter().zip(&mut ws.v) {
        v.resize(n, T::ZERO);
        precond.apply(b.as_ref(), v)?;
        ws.bnorms.push(gnorm2(v).max(1e-300));
    }
    let (mut matvecs, mut total) = (0usize, 0usize);
    let mut resid = f64::INFINITY;
    let mut converged = false;
    while !converged && total < opts.max_iters {
        if !std::mem::take(&mut from_zero) {
            // Residual block R_j = M⁻¹(b_j − A·x_j), through the block apply.
            a.apply_block(xs, &mut ws.ax[..p]);
            matvecs += p;
            for ((r, b), v) in ws.ax.iter_mut().zip(bs).zip(&mut ws.v) {
                for (ri, bi) in r.iter_mut().zip(b.as_ref()) {
                    *ri = *bi - *ri;
                }
                precond.apply(r, v)?;
            }
        }
        // Orthonormalize R into the first p basis vectors: column j of its
        // triangular factor starts the projected right-hand side g_j.
        reset_buf(&mut ws.g, p * stride);
        for (j, gj) in ws.g.chunks_mut(stride).enumerate() {
            let (done, rest) = ws.v.split_at_mut(j);
            let nrm = orthogonalize(done, &mut rest[0], gj);
            gj[j] = T::from_f64(nrm);
            normalize(&mut rest[0], nrm);
        }
        resid = resid_max(&ws.g, stride, 0, &ws.bnorms);
        if resid <= opts.tol {
            converged = true;
            break;
        }
        let mut k_used = 0;
        for k in 0..m {
            if total >= opts.max_iters {
                break;
            }
            total += 1;
            a.apply(&ws.v[k], &mut ws.ax[0]);
            matvecs += 1;
            let (basis, rest) = ws.v.split_at_mut(k + p);
            let w = &mut rest[0];
            w.resize(n, T::ZERO);
            precond.apply(&ws.ax[0], w)?;
            let col = &mut ws.h[k * stride..(k + 1) * stride];
            let nrm = orthogonalize(basis, w, col);
            // Reduce the column with every earlier rotation (rotation
            // k'·p + t acts on rows k' + p − 1 − t and the one below),
            // then eliminate its band bottom-up with p new ones, mirrored
            // onto every projected right-hand side. The entry below the
            // row being eliminated, `sub`, is real.
            for (r, (&c, &s)) in ws.cs[..k * p].iter().zip(&ws.sn).enumerate() {
                rotate(col, r / p + p - 1 - r % p, c, s);
            }
            let mut sub = nrm;
            for t in 0..p {
                let row = k + p - 1 - t;
                let denom = (col[row].modulus().powi(2) + sub * sub).sqrt();
                let (c, s) = if denom == 0.0 {
                    (T::ONE, T::ZERO)
                } else {
                    (col[row].scale_by(1.0 / denom), T::from_f64(sub / denom))
                };
                col[row] = T::from_f64(denom);
                sub = denom;
                (ws.cs[k * p + t], ws.sn[k * p + t]) = (c, s);
                for gj in ws.g.chunks_mut(stride) {
                    rotate(gj, row, c, s);
                }
            }
            k_used = k + 1;
            resid = resid_max(&ws.g, stride, k + 1, &ws.bnorms);
            trace.push(resid);
            monitor.observe(resid);
            tail.push(resid);
            if resid <= opts.tol {
                converged = true;
                break;
            }
            // A vanishing vector at p = 1 is a happy breakdown: the
            // solution lies in the current space. In a block it is a
            // dependent column, kept as a zero vector.
            if normalize(w, nrm) && p == 1 {
                break;
            }
        }
        // Back-substitute R·y_j = g_j[..k_used] and update every x_j.
        for (gj, x) in ws.g.chunks(stride).zip(xs.iter_mut()) {
            for i in (0..k_used).rev() {
                let mut acc = gj[i];
                for c in i + 1..k_used {
                    acc -= ws.h[c * stride + i] * ws.y[c];
                }
                let d = ws.h[i * stride + i];
                ws.y[i] = if d == T::ZERO { T::ZERO } else { acc / d };
            }
            for (yc, vc) in ws.y[..k_used].iter().zip(&ws.v) {
                T::slice_axpy(*yc, vc, x);
            }
        }
    }
    let stats = IterStats { iterations: total, residual: resid, matvecs };
    note(block, trace, &stats, p, converged);
    if converged {
        Ok(stats)
    } else {
        Err(Error::NoConvergence {
            iterations: total,
            residual: resid,
            residual_tail: tail.to_vec(),
        })
    }
}

/// Modified Gram–Schmidt of `w` against `basis` through the dispatched
/// slice kernels, writing the coefficients to `coef`; returns the norm of
/// what is left.
fn orthogonalize<T: Scalar>(basis: &[AlignedVec<T>], w: &mut [T], coef: &mut [T]) -> f64 {
    for (vi, ci) in basis.iter().zip(coef) {
        *ci = gdot(vi, w);
        T::slice_axpy(-*ci, vi, w);
    }
    gnorm2(w)
}

/// Scales `w`, of norm `nrm`, to unit norm, or zeroes it when the norm
/// vanished (a zero basis vector drops out of every inner product).
/// Returns whether it vanished.
fn normalize<T: Scalar>(w: &mut [T], nrm: f64) -> bool {
    let vanished = nrm <= 1e-300;
    if vanished {
        w.fill(T::ZERO);
    } else {
        T::slice_scale(w, 1.0 / nrm);
    }
    vanished
}

/// Applies the Givens rotation `(c, s)` to rows `row` and `row + 1`:
/// top ← c̄·top + s̄·bottom and bottom ← −s·top + c·bottom. With
/// `c = a/r`, `s = b/r` for the pair (a, b) it sends (a, b) to (r, 0) and
/// is unitary.
fn rotate<T: Scalar>(col: &mut [T], row: usize, c: T, s: T) {
    let (top, bot) = (col[row], col[row + 1]);
    col[row] = c.conj() * top + s.conj() * bot;
    col[row + 1] = -s * top + c * bot;
}

/// The largest relative residual over the right-hand sides: the norm of
/// rows `lo..lo + p` of each rotated projected right-hand side, over its
/// preconditioned right-hand-side norm. A NaN propagates.
fn resid_max<T: Scalar>(g: &[T], stride: usize, lo: usize, bnorms: &[f64]) -> f64 {
    let rows = lo..lo + bnorms.len();
    g.chunks(stride)
        .zip(bnorms)
        .map(|(gj, bn)| gj[rows.clone()].iter().fold(0.0, |s: f64, e| s.hypot(e.modulus())) / bn)
        .fold(0.0, |m, r| if r.is_nan() || r > m { r } else { m })
}

/// Emits the iteration statistics of one solve into telemetry.
fn note(block: bool, trace: telemetry::TraceBuf, stats: &IterStats, p: usize, converged: bool) {
    trace.commit(converged);
    let [solves, iterations, matvecs, per_solve] = if block {
        [
            "krylov.block_gmres.solves",
            "krylov.block_gmres.iterations",
            "krylov.block_gmres.matvecs",
            "krylov.block_gmres.iterations_per_solve",
        ]
    } else {
        [
            "krylov.gmres.solves",
            "krylov.gmres.iterations",
            "krylov.gmres.matvecs",
            "krylov.gmres.iterations_per_solve",
        ]
    };
    telemetry::counter_add(solves, 1);
    telemetry::counter_add(iterations, stats.iterations as u64);
    telemetry::counter_add(matvecs, stats.matvecs as u64);
    telemetry::histogram_record(per_solve, stats.iterations as f64);
    if block {
        telemetry::counter_add("krylov.block_gmres.rhs", p as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use crate::Complex;

    fn spd_system(n: usize) -> (Mat<f64>, Vec<f64>, Vec<f64>) {
        // Diagonally dominant SPD-ish system with known solution.
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                4.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let b = a.matvec(&xref);
        (a, b, xref)
    }

    #[test]
    fn gmres_solves_real() {
        let (a, b, xref) = spd_system(40);
        let (x, stats) = gmres(&a, &b, None, &IdentityPrecond, &KrylovOptions::default()).unwrap();
        assert!(stats.residual <= 1e-10);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-8);
        }
    }

    #[test]
    fn gmres_with_jacobi_converges_faster() {
        // Badly scaled diagonal: Jacobi should cut iterations dramatically.
        let n = 50;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                10.0_f64.powi((i % 5) as i32)
            } else if i.abs_diff(j) == 1 {
                0.1
            } else {
                0.0
            }
        });
        let xref: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.05)).collect();
        let b = a.matvec(&xref);
        let opts = KrylovOptions { restart: 50, ..Default::default() };
        let (_, s_plain) = gmres(&a, &b, None, &IdentityPrecond, &opts).unwrap();
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let pc = JacobiPrecond::from_diagonal(&diag);
        let (x, s_pc) = gmres(&a, &b, None, &pc, &opts).unwrap();
        assert!(
            s_pc.iterations < s_plain.iterations,
            "{} !< {}",
            s_pc.iterations,
            s_plain.iterations
        );
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-6);
        }
    }

    #[test]
    fn gmres_complex_system() {
        let n = 20;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                Complex::new(3.0, 1.0)
            } else if i.abs_diff(j) == 1 {
                Complex::new(-0.5, 0.2)
            } else {
                Complex::ZERO
            }
        });
        let xref: Vec<Complex> = (0..n).map(|i| Complex::from_polar(1.0, i as f64 * 0.3)).collect();
        let b = a.matvec(&xref);
        let (x, _) = gmres(&a, &b, None, &IdentityPrecond, &KrylovOptions::default()).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((*xi - *ri).abs() < 1e-8);
        }
    }

    #[test]
    fn gmres_matrix_free_operator() {
        // Operator defined purely as a closure (like the HB Jacobian).
        let n = 16;
        let op = FnOperator::new(n, move |x: &[f64], y: &mut [f64]| {
            for i in 0..n {
                y[i] = 2.0 * x[i] - if i > 0 { 0.5 * x[i - 1] } else { 0.0 };
            }
        });
        let b = vec![1.0; n];
        let (x, _) = gmres(&op, &b, None, &IdentityPrecond, &KrylovOptions::default()).unwrap();
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for (yi, bi) in y.iter().zip(&b) {
            assert!((yi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn gmres_restart_still_converges() {
        let (a, b, xref) = spd_system(60);
        let opts = KrylovOptions { restart: 5, max_iters: 5000, ..Default::default() };
        let (x, _) = gmres(&a, &b, None, &IdentityPrecond, &opts).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-7);
        }
    }

    #[test]
    fn gmres_from_zero_skips_the_first_residual_product() {
        // One cycle (restart ≥ iterations) from `None` starts from the
        // preconditioned right-hand side it already holds: one operator
        // application per iteration, and the iterates of a start from an
        // explicit zero vector, bit for bit.
        let (a, b, _) = spd_system(30);
        let diag: Vec<f64> = (0..30).map(|i| a[(i, i)]).collect();
        let pc = JacobiPrecond::from_diagonal(&diag);
        let opts = KrylovOptions { restart: 30, ..Default::default() };
        let (x, s) = gmres(&a, &b, None, &pc, &opts).unwrap();
        let (x0, s0) = gmres(&a, &b, Some(&[0.0; 30]), &pc, &opts).unwrap();
        assert_eq!(s.matvecs, s.iterations);
        assert_eq!(s0.matvecs, s0.iterations + 1);
        assert_eq!(s.iterations, s0.iterations);
        assert_eq!(s.residual.to_bits(), s0.residual.to_bits());
        for (xi, yi) in x.iter().zip(&x0) {
            assert_eq!(xi.to_bits(), yi.to_bits());
        }
    }

    #[test]
    fn precond_failure_propagates_not_panics() {
        // A preconditioner whose inner solve fails must surface the error
        // through gmres instead of panicking mid-iteration.
        struct FailingPrecond;
        impl Preconditioner<f64> for FailingPrecond {
            fn apply(&self, _r: &[f64], _z: &mut [f64]) -> crate::Result<()> {
                Err(Error::Singular(7))
            }
        }
        let (a, b, _) = spd_system(12);
        assert!(matches!(
            gmres(&a, &b, None, &FailingPrecond, &KrylovOptions::default()),
            Err(Error::Singular(7))
        ));
    }

    #[test]
    fn no_convergence_reports_error() {
        let (a, b, _) = spd_system(30);
        let opts = KrylovOptions { tol: 1e-14, max_iters: 2, ..Default::default() };
        match gmres(&a, &b, None, &IdentityPrecond, &opts) {
            Err(Error::NoConvergence { iterations, .. }) => assert!(iterations <= 2),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn block_gmres_matches_per_rhs_real() {
        let (a, _, _) = spd_system(40);
        let opts = KrylovOptions::default();
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|j| (0..40).map(|i| ((i * 7 + j * 13) % 11) as f64 - 5.0).collect())
            .collect();
        let (xs, stats) = block_gmres(&a, &bs, None, &IdentityPrecond, &opts).unwrap();
        assert!(stats.residual <= opts.tol);
        for (x, b) in xs.iter().zip(&bs) {
            let (xref, _) = gmres(&a, b, None, &IdentityPrecond, &opts).unwrap();
            for (xi, ri) in x.iter().zip(&xref) {
                assert!((xi - ri).abs() < 1e-7, "{xi} vs {ri}");
            }
        }
    }

    #[test]
    fn block_gmres_matches_per_rhs_complex() {
        let n = 24;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                Complex::new(3.0, 0.7)
            } else if i.abs_diff(j) == 1 {
                Complex::new(-0.4, 0.3)
            } else {
                Complex::ZERO
            }
        });
        let opts = KrylovOptions::default();
        let bs: Vec<Vec<Complex>> = (0..4)
            .map(|j| (0..n).map(|i| Complex::from_polar(1.0, (i + j * 5) as f64 * 0.21)).collect())
            .collect();
        let (xs, _) = block_gmres(&a, &bs, None, &IdentityPrecond, &opts).unwrap();
        for (x, b) in xs.iter().zip(&bs) {
            let (xref, _) = gmres(&a, b, None, &IdentityPrecond, &opts).unwrap();
            for (xi, ri) in x.iter().zip(&xref) {
                assert!((*xi - *ri).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn block_gmres_single_rhs_matches_gmres() {
        // One loop: at p = 1 the block solve is GMRES, bit for bit, across
        // restarts and from an explicit start.
        let (a, b, _) = spd_system(30);
        let diag: Vec<f64> = (0..30).map(|i| a[(i, i)]).collect();
        let pc = JacobiPrecond::from_diagonal(&diag);
        let opts = KrylovOptions { restart: 4, ..Default::default() };
        let x0 = vec![0.5; 30];
        for start in [None, Some(&x0)] {
            let (xs, s) = block_gmres(
                &a,
                std::slice::from_ref(&b),
                start.map(std::slice::from_ref),
                &pc,
                &opts,
            )
            .unwrap();
            let (xref, sref) = gmres(&a, &b, start.map(Vec::as_slice), &pc, &opts).unwrap();
            assert_eq!(s, sref);
            for (xi, ri) in xs[0].iter().zip(&xref) {
                assert_eq!(xi.to_bits(), ri.to_bits());
            }
        }
    }

    #[test]
    fn block_gmres_from_zero_skips_the_first_residual_products() {
        // A block solve from `None` starts from the preconditioned
        // right-hand sides: p fewer operator applications than a start
        // from explicit zeros, and the same iterates.
        let (a, b, _) = spd_system(30);
        let b2: Vec<f64> = b.iter().enumerate().map(|(i, v)| v * (i as f64 * 0.3).cos()).collect();
        let bs = vec![b, b2];
        let opts = KrylovOptions { restart: 60, ..Default::default() };
        let (xs, s) = block_gmres(&a, &bs, None, &IdentityPrecond, &opts).unwrap();
        let zeros = vec![vec![0.0; 30]; 2];
        let (xz, sz) = block_gmres(&a, &bs, Some(&zeros), &IdentityPrecond, &opts).unwrap();
        assert_eq!(s.matvecs, s.iterations);
        assert_eq!(sz.matvecs, sz.iterations + 2);
        assert_eq!(s.iterations, sz.iterations);
        assert_eq!(xs, xz);
    }

    #[test]
    fn vanishing_arnoldi_vector_ends_the_cycle() {
        // A = 2·I keeps span{b} invariant, so the first Arnoldi vector
        // vanishes exactly. Under an unreachable tolerance each cycle then
        // stops after one column and restarts, instead of iterating on a
        // zero vector: one product per column plus one per restart.
        let calls = std::cell::Cell::new(0);
        let op = FnOperator::new(8, |x: &[f64], y: &mut [f64]| {
            calls.set(calls.get() + 1);
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 2.0 * xi;
            }
        });
        let mut b = vec![0.0; 8];
        b[0] = 1.0;
        let opts = KrylovOptions { tol: -1.0, max_iters: 4, restart: 8 };
        let err = gmres(&op, &b, None, &IdentityPrecond, &opts).unwrap_err();
        assert!(matches!(err, Error::NoConvergence { iterations: 4, .. }), "{err:?}");
        assert_eq!(calls.get(), 4 + 3);
    }

    #[test]
    fn block_gmres_shares_the_space_across_rhs() {
        // Right-hand sides spanning overlapping directions: the block
        // solve must need fewer total columns than p independent solves.
        let (a, b, _) = spd_system(50);
        let b2: Vec<f64> = b.iter().enumerate().map(|(i, v)| v + 0.01 * (i as f64)).collect();
        let b3: Vec<f64> = b.iter().enumerate().map(|(i, v)| v - 0.02 * (i as f64)).collect();
        let bs = vec![b.clone(), b2.clone(), b3.clone()];
        let opts = KrylovOptions { restart: 80, ..Default::default() };
        let (_, blk) = block_gmres(&a, &bs, None, &IdentityPrecond, &opts).unwrap();
        let mut per_rhs = 0;
        for bj in &bs {
            let (_, s) = gmres(&a, bj, None, &IdentityPrecond, &opts).unwrap();
            per_rhs += s.iterations;
        }
        assert!(blk.iterations < per_rhs, "block {} !< per-rhs {}", blk.iterations, per_rhs);
    }

    #[test]
    fn block_gmres_restarted_converges() {
        let (a, _, _) = spd_system(40);
        let opts = KrylovOptions { restart: 7, max_iters: 5000, ..Default::default() };
        let bs: Vec<Vec<f64>> =
            (0..2).map(|j| (0..40).map(|i| ((i + j) % 5) as f64 - 2.0).collect()).collect();
        let (xs, _) = block_gmres(&a, &bs, None, &IdentityPrecond, &opts).unwrap();
        for (x, b) in xs.iter().zip(&bs) {
            let ax = a.matvec(x);
            for (l, r) in ax.iter().zip(b) {
                assert!((l - r).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn block_gmres_handles_dependent_rhs() {
        // Second RHS is a scalar multiple of the first: the residual block
        // is rank-deficient and the dependent column must not derail the
        // iteration.
        let (a, b, _) = spd_system(30);
        let b2: Vec<f64> = b.iter().map(|v| 2.5 * v).collect();
        let bs = vec![b.clone(), b2.clone()];
        let (xs, _) =
            block_gmres(&a, &bs, None, &IdentityPrecond, &KrylovOptions::default()).unwrap();
        for (x, bj) in xs.iter().zip(&bs) {
            let ax = a.matvec(x);
            for (l, r) in ax.iter().zip(bj) {
                assert!((l - r).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn recycle_space_warm_start_cuts_iterations() {
        // A sweep of slightly perturbed right-hand sides: with recycling,
        // later solves should start closer and converge in fewer columns.
        let (a, b, _) = spd_system(60);
        let opts = KrylovOptions { restart: 60, ..Default::default() };
        let mut ws = GmresWorkspace::new();
        let mut rec = RecycleSpace::new(8);
        let (_, cold) =
            gmres_with(&a, &b, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        let mut warm_iters = 0;
        for k in 1..4 {
            let bk: Vec<f64> =
                b.iter().enumerate().map(|(i, v)| v + 0.001 * ((i + k) as f64).sin()).collect();
            let (x, s) =
                gmres_with(&a, &bk, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec))
                    .unwrap();
            warm_iters = s.iterations;
            let ax = a.matvec(&x);
            for (l, r) in ax.iter().zip(&bk) {
                assert!((l - r).abs() < 1e-7);
            }
        }
        assert!(warm_iters < cold.iterations, "warm {} !< cold {}", warm_iters, cold.iterations);
        assert!(rec.dim() > 0);
    }

    #[test]
    fn recycle_space_warm_matches_cold_solution() {
        let (a, b, xref) = spd_system(45);
        let opts = KrylovOptions::default();
        let mut ws = GmresWorkspace::new();
        let mut rec = RecycleSpace::new(6);
        // Prime the space on a related system, then solve the target.
        let b0: Vec<f64> = b.iter().map(|v| 0.9 * v + 0.05).collect();
        gmres_with(&a, &b0, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        let (warm, _) =
            gmres_with(&a, &b, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        for (wi, ri) in warm.iter().zip(&xref) {
            assert!((wi - ri).abs() < 1e-7, "{wi} vs {ri}");
        }
    }

    #[test]
    fn recycle_space_refresh_restores_invariant_after_operator_change() {
        let (a, b, _) = spd_system(40);
        let a2 = Mat::from_fn(40, 40, |i, j| {
            if i == j {
                4.5
            } else if i.abs_diff(j) == 1 {
                -1.1
            } else {
                0.0
            }
        });
        let opts = KrylovOptions::default();
        let mut ws = GmresWorkspace::new();
        let mut rec = RecycleSpace::new(6);
        gmres_with(&a, &b, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        rec.refresh(&a2);
        // The invariant C = A₂·U must hold again: projection may not hurt
        // the solution on the new operator.
        let (x, _) =
            gmres_with(&a2, &b, None, &IdentityPrecond, &opts, &mut ws, Some(&mut rec)).unwrap();
        let ax = a2.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn recycle_space_evicts_beyond_max_dim() {
        let (a, b, _) = spd_system(20);
        let mut rec = RecycleSpace::new(3);
        for k in 0..6 {
            let w: Vec<f64> = b.iter().enumerate().map(|(i, v)| v + (i * k) as f64 * 0.1).collect();
            rec.harvest(&a, &w);
        }
        assert!(rec.dim() <= 3);
        rec.clear();
        assert_eq!(rec.dim(), 0);
    }

    #[test]
    fn recycle_space_ignores_mismatched_dimensions() {
        let (a, b, _) = spd_system(20);
        let (a2, b2, _) = spd_system(30);
        let mut rec = RecycleSpace::new(4);
        rec.harvest(&a, &b);
        // Projecting a different-size problem is a no-op, and refresh
        // against the new operator drops the stale directions.
        let mut x = vec![0.0; 30];
        let mut r = b2.clone();
        assert_eq!(rec.project(&mut x, &mut r), 0);
        assert!(x.iter().all(|v| *v == 0.0));
        rec.refresh(&a2);
        assert_eq!(rec.dim(), 0);
    }

    #[test]
    fn apply_block_default_matches_apply() {
        let (a, b, _) = spd_system(25);
        let b2: Vec<f64> = b.iter().map(|v| -0.5 * v).collect();
        let xs = vec![b.clone(), b2.clone()];
        let mut ys = vec![vec![0.0; 25]; 2];
        a.apply_block(&xs, &mut ys);
        for (x, y) in xs.iter().zip(&ys) {
            let mut yref = vec![0.0; 25];
            a.apply(x, &mut yref);
            assert_eq!(y, &yref);
        }
    }
}
