#![warn(missing_docs)]
// Index-based loops are deliberate throughout: they mirror the
// subscripted linear-algebra notation of the algorithms implemented.
#![allow(clippy::needless_range_loop)]
//! Numerical foundation for the `rfsim` RF IC design toolkit.
//!
//! The RF CAD algorithms reproduced from the DAC'98 Bell Labs paper —
//! harmonic balance, multi-rate PDE methods, phase-noise characterisation,
//! method-of-moments extraction with IES³ compression, and Krylov-subspace
//! reduced-order modeling — all sit on the same small set of numerical
//! kernels. This crate provides those kernels from scratch:
//!
//! - [`Complex`] arithmetic ([`complex`]),
//! - dense real/complex matrices with LU, QR, SVD and eigenvalue
//!   decompositions ([`dense`], [`svd`], [`eig`]),
//! - sparse matrices (triplet/CSR) with a Gilbert–Peierls sparse LU that
//!   factors on an approximate minimum degree column order, pivots on the
//!   diagonal unless it is below 0.1× its column's largest candidate,
//!   prunes its reachability search symmetrically, and solves with `A`
//!   or `Aᵀ` from one factorization; `L` and `U` keep their structural
//!   zeros, so a factorization's analysis (order, pivots, patterns) is
//!   shared by numeric refactorizations of matrices with the same
//!   pattern, such as the frequency bins of the HB preconditioner
//!   ([`sparse`]),
//! - Krylov-subspace iterative solvers (GMRES, block GMRES) with pluggable
//!   preconditioners ([`krylov`]),
//! - FFT/DFT (radix-2 + Bluestein) and spectrum utilities ([`fft`]),
//! - interpolation helpers ([`interp`]).
//!
//! # Example
//!
//! ```
//! use rfsim_numerics::dense::Mat;
//!
//! # fn main() -> Result<(), rfsim_numerics::Error> {
//! let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod aligned;
pub mod complex;
pub mod dense;
pub mod eig;
pub mod fft;
pub mod interp;
pub mod kernels;
pub mod krylov;
pub mod scalar;
pub mod sparse;
pub mod svd;

pub use aligned::AlignedVec;
pub use complex::Complex;
pub use dense::Mat;
pub use scalar::Scalar;

/// Errors produced by the numerical kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A factorization encountered an (numerically) singular matrix.
    /// Carries the pivot index at which breakdown occurred.
    Singular(usize),
    /// Dimensions of the operands do not agree.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension found.
        found: usize,
    },
    /// An iterative method failed to converge within its iteration budget.
    /// Carries the final residual norm achieved and the tail of the
    /// residual history for post-mortem diagnosis.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
        /// Last few residual norms (at most [`RESIDUAL_TAIL_LEN`]),
        /// oldest first, ending with `residual`. Empty when the solver
        /// does not track a history.
        residual_tail: Vec<f64>,
    },
    /// A Krylov process broke down (e.g. Lanczos serious breakdown).
    Breakdown(&'static str),
    /// Invalid argument (empty matrix, non-square where square required, …).
    InvalidArgument(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Singular(k) => write!(f, "matrix is singular at pivot {k}"),
            Error::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            Error::NoConvergence { iterations, residual, residual_tail } => {
                write!(f, "no convergence after {iterations} iterations (residual {residual:.3e}")?;
                if !residual_tail.is_empty() {
                    write!(f, ", tail")?;
                    for r in residual_tail {
                        write!(f, " {r:.3e}")?;
                    }
                }
                write!(f, ")")
            }
            Error::Breakdown(what) => write!(f, "numerical breakdown: {what}"),
            Error::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Maximum number of trailing residuals kept in
/// [`Error::NoConvergence::residual_tail`].
pub const RESIDUAL_TAIL_LEN: usize = 8;

/// Clips a residual history to its last [`RESIDUAL_TAIL_LEN`] entries
/// for embedding in a [`Error::NoConvergence`].
pub fn residual_tail(history: &[f64]) -> Vec<f64> {
    history[history.len().saturating_sub(RESIDUAL_TAIL_LEN)..].to_vec()
}

/// Fixed-capacity ring buffer holding the last [`RESIDUAL_TAIL_LEN`]
/// residual norms of an iteration, for embedding in
/// [`Error::NoConvergence`] without allocating in the solver loop.
#[derive(Debug, Clone)]
pub struct ResidualTail {
    buf: [f64; RESIDUAL_TAIL_LEN],
    len: usize,
    head: usize,
}

impl ResidualTail {
    /// An empty tail.
    pub const fn new() -> Self {
        ResidualTail { buf: [0.0; RESIDUAL_TAIL_LEN], len: 0, head: 0 }
    }

    /// Appends a residual, evicting the oldest once full.
    #[inline]
    pub fn push(&mut self, r: f64) {
        self.buf[self.head] = r;
        self.head = (self.head + 1) % RESIDUAL_TAIL_LEN;
        self.len = (self.len + 1).min(RESIDUAL_TAIL_LEN);
    }

    /// The recorded residuals, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let start = (self.head + RESIDUAL_TAIL_LEN - self.len) % RESIDUAL_TAIL_LEN;
        (0..self.len).map(|i| self.buf[(start + i) % RESIDUAL_TAIL_LEN]).collect()
    }
}

impl Default for ResidualTail {
    fn default() -> Self {
        ResidualTail::new()
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Euclidean norm of a real vector.
///
/// ```
/// assert_eq!(rfsim_numerics::norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(v: &[f64]) -> f64 {
    kernels::norm2_sq_f64(v).sqrt()
}

/// Infinity norm of a real vector (0 for the empty vector).
///
/// NaN entries propagate: `f64::max` would silently drop them, which
/// let a poisoned residual report a finite norm and hid divergence from
/// the convergence checks.
pub fn norm_inf(v: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for x in v {
        let a = x.abs();
        if a > m || a.is_nan() {
            m = a;
        }
    }
    m
}

/// Dot product of two real vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    kernels::dot_f64(a, b)
}

/// `y ← y + alpha * x` for real vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    kernels::axpy_f64(alpha, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_dot() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(norm_inf(&[-2.0, 1.0]), 2.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn residual_tail_keeps_last_entries() {
        let hist: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(residual_tail(&hist), (4..12).map(f64::from).collect::<Vec<_>>());
        assert_eq!(residual_tail(&hist[..3]), vec![0.0, 1.0, 2.0]);

        let mut ring = ResidualTail::new();
        assert!(ring.to_vec().is_empty());
        for v in &hist {
            ring.push(*v);
        }
        assert_eq!(ring.to_vec(), residual_tail(&hist));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            Error::Singular(3),
            Error::DimensionMismatch { expected: 2, found: 5 },
            Error::NoConvergence { iterations: 7, residual: 1e-3, residual_tail: vec![1e-2, 1e-3] },
            Error::Breakdown("lanczos"),
            Error::InvalidArgument("empty"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
