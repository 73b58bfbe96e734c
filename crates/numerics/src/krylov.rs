//! Krylov-subspace iterative solvers: restarted GMRES and block GMRES,
//! generic over real/complex scalars, with pluggable preconditioning.
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

/// Incomplete LU factorization with zero fill-in (ILU(0)): the classic
/// preconditioner for the sparse differential-formulation matrices of
/// Table 1 (FD/FE volume discretizations), where the exact factors would
/// fill in but the no-fill approximation already clusters the spectrum.
pub struct Ilu0<T> {
    /// Row-major storage mirroring the input pattern: strictly-lower
    /// entries hold L (unit diagonal implicit), diagonal + upper hold U.
    rows: Vec<Vec<(usize, T)>>,
    n: usize,
}

impl<T: Scalar> Ilu0<T> {
    /// Computes the ILU(0) factorization of a sparse matrix.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] when a zero pivot appears (the
    /// factorization exists only for matrices with a nonzero diagonal).
    pub fn new(a: &crate::sparse::Csr<T>) -> Result<Self> {
        let n = a.rows();
        let mut rows: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        for (i, j, v) in a.iter() {
            rows[i].push((j, v));
        }
        for r in &mut rows {
            r.sort_by_key(|&(j, _)| j);
        }
        // IKJ-variant incomplete elimination restricted to the pattern.
        for i in 0..n {
            // Work on a copy of row i to avoid aliasing issues.
            let mut row_i = rows[i].clone();
            for idx in 0..row_i.len() {
                let (k, _) = row_i[idx];
                if k >= i {
                    break;
                }
                // Pivot U[k][k].
                let pivot =
                    rows[k].iter().find(|&&(j, _)| j == k).map(|&(_, v)| v).unwrap_or(T::ZERO);
                if pivot.modulus() < 1e-300 {
                    return Err(Error::Singular(k));
                }
                let lik = row_i[idx].1 / pivot;
                row_i[idx].1 = lik;
                // row_i ← row_i − lik·U_row(k), restricted to the pattern.
                for &(j, ukj) in &rows[k] {
                    if j <= k {
                        continue;
                    }
                    if let Ok(pos) = row_i.binary_search_by_key(&j, |&(c, _)| c) {
                        let delta = lik * ukj;
                        row_i[pos].1 -= delta;
                    }
                }
            }
            rows[i] = row_i;
        }
        // Verify diagonals exist.
        for (i, r) in rows.iter().enumerate() {
            let ok = r.iter().any(|&(j, v)| j == i && v.modulus() > 1e-300);
            if !ok {
                return Err(Error::Singular(i));
            }
        }
        Ok(Ilu0 { rows, n })
    }

    /// Applies `(LU)⁻¹` to a vector.
    fn solve_into(&self, r: &[T], z: &mut [T]) {
        z.copy_from_slice(r);
        // Forward: L z = r (unit diagonal).
        for i in 0..self.n {
            let mut acc = z[i];
            for &(j, v) in &self.rows[i] {
                if j >= i {
                    break;
                }
                acc -= v * z[j];
            }
            z[i] = acc;
        }
        // Backward: U z = y.
        for i in (0..self.n).rev() {
            let mut acc = z[i];
            let mut diag = T::ONE;
            for &(j, v) in &self.rows[i] {
                if j < i {
                    continue;
                }
                if j == i {
                    diag = v;
                } else {
                    acc -= v * z[j];
                }
            }
            z[i] = acc / diag;
        }
    }
}

impl<T: Scalar> Preconditioner<T> for Ilu0<T> {
    fn apply(&self, r: &[T], z: &mut [T]) -> Result<()> {
        self.solve_into(r, z);
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

/// Reusable buffers for [`gmres_with`]: the Krylov basis, Hessenberg
/// columns, Givens rotation arrays, and residual/work vectors. A
/// workspace survives restart cycles and repeated solves, so an outer
/// Newton loop pays the basis allocation once instead of per correction.
/// Buffers grow to the largest problem seen and are then reused
/// allocation-free; results are bitwise identical to [`gmres`].
#[derive(Debug)]
pub struct GmresWorkspace<T: Copy> {
    // The n-length arena buffers live in 32-byte [`AlignedVec`] storage so
    // the AVX2 kernels see aligned loads; the O(m) Givens/Hessenberg
    // arrays stay in plain `Vec`s.
    v: Vec<AlignedVec<T>>,
    h: Vec<Vec<T>>,
    cs: Vec<T>,
    sn: Vec<T>,
    g: Vec<T>,
    y: Vec<T>,
    zb: AlignedVec<T>,
    work: AlignedVec<T>,
    r: AlignedVec<T>,
    z: AlignedVec<T>,
    w: AlignedVec<T>,
}

impl<T: Copy> Default for GmresWorkspace<T> {
    fn default() -> Self {
        GmresWorkspace {
            v: Vec::new(),
            h: Vec::new(),
            cs: Vec::new(),
            sn: Vec::new(),
            g: Vec::new(),
            y: Vec::new(),
            zb: AlignedVec::new(),
            work: AlignedVec::new(),
            r: AlignedVec::new(),
            z: AlignedVec::new(),
            w: AlignedVec::new(),
        }
    }
}

impl<T: Copy> GmresWorkspace<T> {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the workspace holds, by capacity: what dropping it
    /// frees. A warm GMRES(m) workspace of dimension `n` holds up to
    /// `m + 1` basis vectors and an `(m + 1) × m` Hessenberg matrix.
    pub fn bytes(&self) -> usize {
        let arena = [&self.zb, &self.work, &self.r, &self.z, &self.w]
            .into_iter()
            .chain(&self.v)
            .map(AlignedVec::capacity)
            .sum::<usize>();
        let small = [&self.cs, &self.sn, &self.g, &self.y]
            .into_iter()
            .chain(&self.h)
            .map(Vec::capacity)
            .sum::<usize>();
        (arena + small) * std::mem::size_of::<T>()
            + self.v.capacity() * std::mem::size_of::<AlignedVec<T>>()
            + self.h.capacity() * std::mem::size_of::<Vec<T>>()
    }
}

/// Zero-fills `buf` at length `n`, reusing its allocation.
fn reset_buf<T: Scalar>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    buf.resize(n, T::ZERO);
}

/// [`reset_buf`] for the 32-byte-aligned arena buffers.
fn reset_avec<T: Scalar>(buf: &mut AlignedVec<T>, n: usize) {
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
    recycle: Option<&mut RecycleSpace<T>>,
) -> Result<(Vec<T>, IterStats)> {
    let Some(recycle) = recycle else {
        return gmres_cycles(a, b, x0, precond, opts, ws);
    };
    let n = a.dim();
    if b.len() != n {
        return Err(Error::DimensionMismatch { expected: n, found: b.len() });
    }
    let mut x = x0.map_or_else(|| vec![T::ZERO; n], <[T]>::to_vec);
    let mut extra_matvecs = 0usize;
    if recycle.dim() > 0 {
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
    let (x, mut stats) = gmres_cycles(a, b, Some(&x), precond, opts, ws)?;
    stats.matvecs += extra_matvecs + 1; // +1 for the harvest below
    recycle.harvest(a, &x);
    Ok((x, stats))
}

/// The restarted GMRES(m) cycles behind [`gmres_with`], timed as the
/// `krylov.gmres` span (a recycled solve's projection and harvest stay
/// outside it).
fn gmres_cycles<T: Scalar>(
    a: &dyn LinearOperator<T>,
    b: &[T],
    x0: Option<&[T]>,
    precond: &dyn Preconditioner<T>,
    opts: &KrylovOptions,
    ws: &mut GmresWorkspace<T>,
) -> Result<(Vec<T>, IterStats)> {
    let n = a.dim();
    if b.len() != n {
        return Err(Error::DimensionMismatch { expected: n, found: b.len() });
    }
    let _span = telemetry::span("krylov.gmres");
    crate::kernels::note_dispatch(1);
    let mut trace = telemetry::TraceBuf::new("krylov.gmres");
    let mut monitor = telemetry::ResidualMonitor::new("krylov.gmres");
    let mut tail = ResidualTail::new();
    let m = opts.restart.max(1).min(n.max(1));
    let mut x = x0.map_or_else(|| vec![T::ZERO; n], <[T]>::to_vec);
    let mut matvecs = 0usize;
    let mut total_iters = 0usize;

    // Preconditioned RHS norm for the relative stopping test.
    reset_avec(&mut ws.zb, n);
    precond.apply(b, &mut ws.zb)?;
    let bnorm = gnorm2(&ws.zb).max(1e-300);

    reset_avec(&mut ws.work, n);
    reset_avec(&mut ws.r, n);
    reset_avec(&mut ws.z, n);
    reset_avec(&mut ws.w, n);
    if ws.v.len() < m + 1 {
        ws.v.resize_with(m + 1, AlignedVec::new);
    }
    if ws.h.len() < m + 1 {
        ws.h.resize_with(m + 1, Vec::new);
    }
    let mut resid_norm = f64::INFINITY;
    // From x = 0 the first residual M⁻¹(b − A·0) is M⁻¹b, which `zb`
    // already holds.
    let mut from_zero = x0.is_none();
    while total_iters < opts.max_iters {
        if std::mem::take(&mut from_zero) {
            ws.z.copy_from_slice(&ws.zb);
        } else {
            // r = M⁻¹(b − A·x)
            a.apply(&x, &mut ws.work);
            matvecs += 1;
            for i in 0..n {
                ws.r[i] = b[i] - ws.work[i];
            }
            precond.apply(&ws.r, &mut ws.z)?;
        }
        let beta = gnorm2(&ws.z);
        resid_norm = beta / bnorm;
        if resid_norm <= opts.tol {
            let stats = IterStats { iterations: total_iters, residual: resid_norm, matvecs };
            note_gmres(trace, &stats, true);
            return Ok((x, stats));
        }
        // Arnoldi with Givens-rotated Hessenberg least squares.
        for row in ws.h.iter_mut().take(m + 1) {
            reset_buf(row, m);
        }
        reset_buf(&mut ws.cs, m);
        reset_buf(&mut ws.sn, m);
        reset_buf(&mut ws.g, m + 1);
        ws.g[0] = T::from_f64(beta);
        reset_avec(&mut ws.v[0], n);
        ws.v[0].copy_from_slice(&ws.z);
        T::slice_scale(&mut ws.v[0], 1.0 / beta);
        let mut k_used = 0;
        for k in 0..m {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            a.apply(&ws.v[k], &mut ws.work);
            matvecs += 1;
            precond.apply(&ws.work, &mut ws.w)?;
            // Modified Gram–Schmidt via the dispatched slice kernels.
            for i in 0..=k {
                let hik = gdot(&ws.v[i], &ws.w);
                ws.h[i][k] = hik;
                T::slice_axpy(-hik, &ws.v[i], &mut ws.w);
            }
            let hk1 = gnorm2(&ws.w);
            ws.h[k + 1][k] = T::from_f64(hk1);
            // Apply accumulated Givens rotations to the new column.
            for i in 0..k {
                let t = ws.cs[i].conj() * ws.h[i][k] + ws.sn[i].conj() * ws.h[i + 1][k];
                ws.h[i + 1][k] = -ws.sn[i] * ws.h[i][k] + ws.cs[i] * ws.h[i + 1][k];
                ws.h[i][k] = t;
            }
            // New rotation eliminating h[k+1][k]. Convention: with
            // c = a/r, s = b/r for the pair (a, b), the rotation maps
            // top ← c̄·top + s̄·bottom and bottom ← −s·top + c·bottom,
            // which sends (a, b) to (r, 0) and is unitary.
            let denom = (ws.h[k][k].modulus().powi(2) + hk1 * hk1).sqrt();
            if denom == 0.0 {
                ws.cs[k] = T::ONE;
                ws.sn[k] = T::ZERO;
            } else {
                ws.cs[k] = ws.h[k][k].scale_by(1.0 / denom);
                ws.sn[k] = T::from_f64(hk1 / denom);
                ws.h[k][k] = T::from_f64(denom);
                ws.h[k + 1][k] = T::ZERO;
            }
            let gk = ws.g[k];
            ws.g[k] = ws.cs[k].conj() * gk;
            ws.g[k + 1] = -ws.sn[k] * gk;
            k_used = k + 1;
            resid_norm = ws.g[k + 1].modulus() / bnorm;
            trace.push(resid_norm);
            monitor.observe(resid_norm);
            tail.push(resid_norm);
            if hk1 < 1e-300 {
                // Happy breakdown: exact solution in the current space.
                break;
            }
            if resid_norm <= opts.tol {
                break;
            }
            reset_avec(&mut ws.v[k + 1], n);
            ws.v[k + 1].copy_from_slice(&ws.w);
            T::slice_scale(&mut ws.v[k + 1], 1.0 / hk1);
        }
        // Solve the small triangular system h[0..k_used][..]·y = g.
        reset_buf(&mut ws.y, k_used);
        for i in (0..k_used).rev() {
            let mut acc = ws.g[i];
            for j in i + 1..k_used {
                acc -= ws.h[i][j] * ws.y[j];
            }
            if ws.h[i][i] == T::ZERO {
                ws.y[i] = T::ZERO;
            } else {
                ws.y[i] = acc / ws.h[i][i];
            }
        }
        for (j, yj) in ws.y.iter().enumerate() {
            T::slice_axpy(*yj, &ws.v[j], &mut x);
        }
        if resid_norm <= opts.tol {
            let stats = IterStats { iterations: total_iters, residual: resid_norm, matvecs };
            note_gmres(trace, &stats, true);
            return Ok((x, stats));
        }
    }
    let stats = IterStats { iterations: total_iters, residual: resid_norm, matvecs };
    note_gmres(trace, &stats, false);
    Err(Error::NoConvergence {
        iterations: total_iters,
        residual: resid_norm,
        residual_tail: tail.to_vec(),
    })
}

/// Emits the iteration statistics of one GMRES solve into telemetry.
fn note_gmres(trace: telemetry::TraceBuf, stats: &IterStats, converged: bool) {
    trace.commit(converged);
    telemetry::counter_add("krylov.gmres.solves", 1);
    telemetry::counter_add("krylov.gmres.iterations", stats.iterations as u64);
    telemetry::counter_add("krylov.gmres.matvecs", stats.matvecs as u64);
    telemetry::histogram_record("krylov.gmres.iterations_per_solve", stats.iterations as f64);
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

/// One Givens rotation of the band-Hessenberg least squares inside
/// [`block_gmres`], acting on the row pair `(row, row + 1)`.
struct BlockRotation<T> {
    row: usize,
    cs: T,
    sn: T,
}

impl<T: Scalar> BlockRotation<T> {
    /// Builds the rotation sending `(a, b)` to `(√(|a|²+|b|²), 0)`.
    fn eliminate(a: T, b: T) -> (Self, T) {
        let denom = (a.modulus().powi(2) + b.modulus().powi(2)).sqrt();
        if denom == 0.0 {
            (BlockRotation { row: 0, cs: T::ONE, sn: T::ZERO }, T::ZERO)
        } else {
            (
                BlockRotation { row: 0, cs: a.scale_by(1.0 / denom), sn: b.scale_by(1.0 / denom) },
                T::from_f64(denom),
            )
        }
    }

    /// Applies the rotation to `col[row]`/`col[row + 1]` (if in range).
    fn apply(&self, col: &mut [T]) {
        if self.row + 1 >= col.len() {
            return;
        }
        let top = col[self.row];
        let bot = col[self.row + 1];
        col[self.row] = self.cs.conj() * top + self.sn.conj() * bot;
        col[self.row + 1] = -self.sn * top + self.cs * bot;
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
/// by Givens rotations, exactly generalizing the single-RHS GMRES above;
/// `p = 1` reproduces its arithmetic.
///
/// `opts.restart` bounds the basis **columns** per cycle and
/// `opts.max_iters` the total columns; [`IterStats::iterations`] counts
/// columns (= operator applications), so per-RHS cost is
/// `iterations / p`.
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
    for b in bs {
        if b.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: b.len() });
        }
    }
    if let Some(xs) = x0 {
        if xs.len() != p {
            return Err(Error::DimensionMismatch { expected: p, found: xs.len() });
        }
        for x in xs {
            if x.len() != n {
                return Err(Error::DimensionMismatch { expected: n, found: x.len() });
            }
        }
    }
    let _span = telemetry::span("krylov.block_gmres");
    crate::kernels::note_dispatch(1);
    let mut trace = telemetry::TraceBuf::new("krylov.block_gmres");
    let mut monitor = telemetry::ResidualMonitor::new("krylov.block_gmres");
    let mut tail = ResidualTail::new();
    let mut xs: Vec<Vec<T>> = x0.map_or_else(|| vec![vec![T::ZERO; n]; p], <[Vec<T>]>::to_vec);
    // Preconditioned RHS norms for the per-RHS relative stopping test.
    let mut zb = vec![T::ZERO; n];
    let mut bnorms = Vec::with_capacity(p);
    for b in bs {
        precond.apply(b, &mut zb)?;
        bnorms.push(gnorm2(&zb).max(1e-300));
    }
    let m = opts.restart.max(1).min(n.max(1));
    let mut matvecs = 0usize;
    let mut total_cols = 0usize;
    let mut ys: Vec<Vec<T>> = vec![vec![T::ZERO; n]; p];
    let mut work = vec![T::ZERO; n];
    let mut resid_max = f64::INFINITY;
    while total_cols < opts.max_iters {
        // Residual block R_j = M⁻¹(b_j − A·x_j), through the block apply.
        a.apply_block(&xs, &mut ys);
        matvecs += p;
        let mut rblock: Vec<Vec<T>> = Vec::with_capacity(p);
        for j in 0..p {
            for i in 0..n {
                work[i] = bs[j][i] - ys[j][i];
            }
            let mut z = vec![T::ZERO; n];
            precond.apply(&work, &mut z)?;
            rblock.push(z);
        }
        resid_max = rblock.iter().zip(&bnorms).map(|(r, bn)| gnorm2(r) / bn).fold(0.0f64, f64::max);
        if resid_max <= opts.tol {
            let stats = IterStats { iterations: total_cols, residual: resid_max, matvecs };
            note_block_gmres(trace, &stats, p, true);
            return Ok((xs, stats));
        }
        // Block orthonormalization of R into the first p basis vectors;
        // `g[j]` holds the rotated projected RHS for column j of the block.
        let mut v: Vec<Vec<T>> = Vec::with_capacity(m + p);
        let mut g: Vec<Vec<T>> = vec![Vec::new(); p];
        let mut s = vec![vec![T::ZERO; p]; p]; // S[i][j], upper triangular
        for (j, mut w) in rblock.into_iter().enumerate() {
            for i in 0..j {
                let sij = gdot(&v[i], &w);
                s[i][j] = sij;
                T::slice_axpy(-sij, &v[i], &mut w);
            }
            let nrm = gnorm2(&w);
            s[j][j] = T::from_f64(nrm);
            if nrm > 1e-300 {
                T::slice_scale(&mut w, 1.0 / nrm);
                v.push(w);
            } else {
                // Dependent residual column: a zero basis vector keeps the
                // indexing intact and drops out of every inner product.
                v.push(vec![T::ZERO; n]);
            }
        }
        for j in 0..p {
            g[j] = (0..p).map(|i| s[i][j]).collect();
        }
        let mut hcols: Vec<Vec<T>> = Vec::with_capacity(m);
        let mut rotations: Vec<BlockRotation<T>> = Vec::with_capacity(m * p);
        let mut k_used = 0usize;
        let mut converged = false;
        for k in 0..m {
            if total_cols >= opts.max_iters {
                break;
            }
            total_cols += 1;
            a.apply(&v[k], &mut work);
            matvecs += 1;
            let mut w = vec![T::ZERO; n];
            precond.apply(&work, &mut w)?;
            // Modified Gram–Schmidt against every existing basis vector.
            let mut col = vec![T::ZERO; k + p + 1];
            for i in 0..k + p {
                let hik = gdot(&v[i], &w);
                col[i] = hik;
                T::slice_axpy(-hik, &v[i], &mut w);
            }
            let nrm = gnorm2(&w);
            col[k + p] = T::from_f64(nrm);
            if nrm > 1e-300 {
                T::slice_scale(&mut w, 1.0 / nrm);
                v.push(w);
            } else {
                v.push(vec![T::ZERO; n]);
            }
            // Reduce the new column with all prior rotations, then
            // eliminate its band (rows k+p … k+1, bottom-up) with p new
            // ones, mirrored onto every projected RHS.
            for rot in &rotations {
                rot.apply(&mut col);
            }
            for j in 0..p {
                g[j].push(T::ZERO);
            }
            for t in 0..p {
                let row = k + p - 1 - t;
                let (mut rot, rnew) = BlockRotation::eliminate(col[row], col[row + 1]);
                rot.row = row;
                col[row] = rnew;
                col[row + 1] = T::ZERO;
                for gj in g.iter_mut() {
                    rot.apply(gj);
                }
                rotations.push(rot);
            }
            col.truncate(k + 1);
            hcols.push(col);
            k_used = k + 1;
            // Per-RHS residual: the un-eliminated tail of g_j.
            resid_max = 0.0;
            for (gj, bn) in g.iter().zip(&bnorms) {
                let t2: f64 = gj[k + 1..].iter().map(|e| e.modulus().powi(2)).sum();
                resid_max = resid_max.max(t2.sqrt() / bn);
            }
            trace.push(resid_max);
            monitor.observe(resid_max);
            tail.push(resid_max);
            if resid_max <= opts.tol {
                converged = true;
                break;
            }
        }
        // Back-substitute R·y_j = g_j[0..k_used] and update every RHS.
        for (j, gj) in g.iter().enumerate() {
            let mut y = vec![T::ZERO; k_used];
            for i in (0..k_used).rev() {
                let mut acc = gj[i];
                for c in i + 1..k_used {
                    acc -= hcols[c][i] * y[c];
                }
                if hcols[i][i] == T::ZERO {
                    y[i] = T::ZERO;
                } else {
                    y[i] = acc / hcols[i][i];
                }
            }
            for (c, yc) in y.iter().enumerate() {
                T::slice_axpy(*yc, &v[c], &mut xs[j]);
            }
        }
        if converged {
            let stats = IterStats { iterations: total_cols, residual: resid_max, matvecs };
            note_block_gmres(trace, &stats, p, true);
            return Ok((xs, stats));
        }
    }
    let stats = IterStats { iterations: total_cols, residual: resid_max, matvecs };
    note_block_gmres(trace, &stats, p, false);
    Err(Error::NoConvergence {
        iterations: total_cols,
        residual: resid_max,
        residual_tail: tail.to_vec(),
    })
}

/// Emits the iteration statistics of one block-GMRES solve.
fn note_block_gmres(trace: telemetry::TraceBuf, stats: &IterStats, rhs: usize, converged: bool) {
    trace.commit(converged);
    telemetry::counter_add("krylov.block_gmres.solves", 1);
    telemetry::counter_add("krylov.block_gmres.rhs", rhs as u64);
    telemetry::counter_add("krylov.block_gmres.iterations", stats.iterations as u64);
    telemetry::counter_add("krylov.block_gmres.matvecs", stats.matvecs as u64);
    telemetry::histogram_record("krylov.block_gmres.iterations_per_solve", stats.iterations as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use crate::sparse::Triplets;
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
    fn ilu0_exact_for_no_fill_patterns() {
        // A tridiagonal matrix factors with no fill, so ILU(0) is the
        // exact LU and GMRES converges in one iteration.
        let n = 60;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let pc = Ilu0::new(&a).unwrap();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let b = a.matvec(&xref);
        let (x, stats) = gmres(&a, &b, None, &pc, &KrylovOptions::default()).unwrap();
        assert!(stats.iterations <= 2, "iterations = {}", stats.iterations);
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-9);
        }
    }

    #[test]
    fn ilu0_accelerates_grid_laplacian() {
        // 2-D Laplacian has fill, so ILU(0) is inexact but still cuts the
        // iteration count well below unpreconditioned GMRES.
        let m = 14;
        let n = m * m;
        let mut t = Triplets::new(n, n);
        for i in 0..m {
            for j in 0..m {
                let r = i * m + j;
                t.push(r, r, 4.0);
                if i > 0 {
                    t.push(r, r - m, -1.0);
                }
                if i + 1 < m {
                    t.push(r, r + m, -1.0);
                }
                if j > 0 {
                    t.push(r, r - 1, -1.0);
                }
                if j + 1 < m {
                    t.push(r, r + 1, -1.0);
                }
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let opts = KrylovOptions { tol: 1e-9, ..Default::default() };
        let (_, plain) = gmres(&a, &b, None, &IdentityPrecond, &opts).unwrap();
        let pc = Ilu0::new(&a).unwrap();
        let (x, with) = gmres(&a, &b, None, &pc, &opts).unwrap();
        assert!(
            with.iterations * 2 < plain.iterations,
            "ilu0 {} vs plain {}",
            with.iterations,
            plain.iterations
        );
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn ilu0_rejects_zero_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        assert!(matches!(Ilu0::new(&a), Err(Error::Singular(_))));
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
        let (a, b, _) = spd_system(30);
        let opts = KrylovOptions::default();
        let (xs, _) =
            block_gmres(&a, std::slice::from_ref(&b), None, &IdentityPrecond, &opts).unwrap();
        let (xref, _) = gmres(&a, &b, None, &IdentityPrecond, &opts).unwrap();
        for (xi, ri) in xs[0].iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-9);
        }
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
