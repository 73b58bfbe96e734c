#![warn(missing_docs)]
// Index-based loops are deliberate throughout: they mirror the
// subscripted linear-algebra notation of the algorithms implemented.
#![allow(clippy::needless_range_loop)]
//! Steady-state analysis engines: harmonic balance and shooting
//! (paper, Section 2.1).
//!
//! Harmonic balance (HB) "represents all circuit waveforms in the frequency
//! domain" and is "particularly natural in the case of incommensurate
//! multi-tone drive". The implementation here follows the paper's key
//! insight for RF ICs: the HB Jacobian is never formed — GMRES solves each
//! Newton correction through a matrix-free operator, with a per-harmonic
//! block-diagonal preconditioner built from the time-averaged circuit
//! linearization. That is what lets HB "handle integrated designs
//! containing many more nonlinear components than traditional
//! implementations".
//!
//! The module also provides the classic univariate [`shooting()`] method,
//! both as the baseline the paper compares MMFT against (Fig. 5) and as the
//! periodic-steady-state substrate for phase-noise analysis.

pub mod fourier;
pub mod hb;
pub mod shooting;

pub use fourier::{GridWorkspace, SpectralGrid, ToneAxis};
pub use hb::{
    solve_hb, HbHotPath, HbOptions, HbSolution, HbSolver, HbStats, HbSweep, PrecondRefresh,
};
pub use shooting::{shooting, ShootingOptions, ShootingResult};

/// Errors from the steady-state engines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Newton iteration on the boundary-value system failed.
    NoConvergence {
        /// Newton iterations performed.
        iterations: usize,
        /// Final residual infinity-norm.
        residual: f64,
        /// Last few residual norms (oldest first, ending with
        /// `residual`) for post-mortem diagnosis of the stall.
        residual_tail: Vec<f64>,
    },
    /// Underlying circuit error (DC solve, transient step, …).
    Circuit(rfsim_circuit::Error),
    /// Underlying linear-algebra error.
    Numerics(rfsim_numerics::Error),
    /// Invalid analysis setup (no tones, even grid size, …).
    InvalidSetup(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoConvergence { iterations, residual, residual_tail } => {
                write!(
                    f,
                    "steady-state newton failed after {iterations} iterations \
                     (residual {residual:.3e}"
                )?;
                if !residual_tail.is_empty() {
                    write!(f, ", tail")?;
                    for r in residual_tail {
                        write!(f, " {r:.3e}")?;
                    }
                }
                write!(f, ")")
            }
            Error::Circuit(e) => write!(f, "circuit error: {e}"),
            Error::Numerics(e) => write!(f, "numerics error: {e}"),
            Error::InvalidSetup(msg) => write!(f, "invalid setup: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Circuit(e) => Some(e),
            Error::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rfsim_circuit::Error> for Error {
    fn from(e: rfsim_circuit::Error) -> Self {
        Error::Circuit(e)
    }
}

impl From<rfsim_numerics::Error> for Error {
    fn from(e: rfsim_numerics::Error) -> Self {
        Error::Numerics(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
