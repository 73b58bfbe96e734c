#![warn(missing_docs)]
// Index-based loops are deliberate throughout: they mirror the
// subscripted linear-algebra notation of the algorithms implemented.
#![allow(clippy::needless_range_loop)]
//! Electromagnetic extraction of passive structures (paper, Section 4).
//!
//! "Extracting compact, accurate linear models for packages, interconnect,
//! and components plays a significant role in modern RF designs." This
//! crate implements both classes of Table 1:
//!
//! | | differential ([`fd`]) | integral ([`mom`]) |
//! |---|---|---|
//! | matrix | sparse | dense |
//! | discretization | volume | surface |
//! | conditioning | poor | good |
//!
//! plus the paper's own contribution, **IES³** ([`ies3`]): a
//! kernel-independent compression of the dense integral-equation matrix —
//! "the matrix is recursively decomposed and compressed using the singular
//! value decomposition; the interaction between well-separated groups of
//! discretization elements is represented using a low-rank outer product" —
//! giving near-linear storage and matvec, solved with Krylov iteration.
//!
//! [`inductor`] builds quasi-static spiral-inductor models on a lossy
//! substrate (Fig 7), and [`adaptive`] drives frequency sweeps through a
//! rational surrogate so true solves are only issued where the model is
//! uncertain.

pub mod adaptive;
pub mod fd;
pub mod geom;
pub mod ies3;
pub mod inductor;
pub mod kernel;
pub mod mom;

pub use adaptive::AdaptiveSweep;
pub use geom::{Panel, Point3};
pub use ies3::{CompressedMatrix, Ies3Options};
pub use kernel::GreenFn;
pub use mom::{capacitance_matrix, capacitance_matrix_iterative, MomProblem};

/// Vacuum permittivity (F/m).
pub const EPS0: f64 = 8.8541878128e-12;
/// Vacuum permeability (H/m).
pub const MU0: f64 = 1.25663706212e-6;

/// Errors from the extraction engines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Underlying linear-algebra failure.
    Numerics(rfsim_numerics::Error),
    /// Geometry problem (empty mesh, degenerate panel, …).
    Geometry(String),
    /// Invalid options.
    InvalidSetup(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Numerics(e) => write!(f, "numerics error: {e}"),
            Error::Geometry(msg) => write!(f, "geometry error: {msg}"),
            Error::InvalidSetup(msg) => write!(f, "invalid setup: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rfsim_numerics::Error> for Error {
    fn from(e: rfsim_numerics::Error) -> Self {
        Error::Numerics(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
