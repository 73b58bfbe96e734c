#![warn(missing_docs)]
//! Transistor-level circuit simulation substrate for `rfsim`.
//!
//! This crate provides the "SPICE-type" foundation the paper's Section 2
//! builds on: a netlist of devices stamped through modified nodal analysis
//! (MNA) into the differential-algebraic equation
//!
//! ```text
//!     q̇(x) + f(x) = b(t)          (paper, Eq. 3)
//! ```
//!
//! where `x` collects node voltages and branch currents, `q` the
//! charge/flux terms, `f` the resistive terms, and `b` the excitations.
//! Every analysis engine in the workspace — DC, transient, AC, noise here;
//! harmonic balance and shooting in `rfsim-steady`; the MPDE family in
//! `rfsim-mpde`; phase noise in `rfsim-phasenoise` — consumes the [`Dae`]
//! trait exported from this crate.
//!
//! # Quickstart
//!
//! ```
//! use rfsim_circuit::prelude::*;
//!
//! # fn main() -> Result<(), rfsim_circuit::Error> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add(VSource::dc("V1", vin, Circuit::GROUND, 5.0));
//! ckt.add(Resistor::new("R1", vin, vout, 1e3));
//! ckt.add(Resistor::new("R2", vout, Circuit::GROUND, 1e3));
//! let dae = ckt.into_dae()?;
//! let op = dc_operating_point(&dae, &DcOptions::default())?;
//! let v = op.voltage(vout);
//! assert!((v - 2.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod dae;
pub mod dc;
pub mod devices;
pub mod netlist;
pub mod newton;
pub mod noise;
pub mod parser;
pub mod transient;
pub mod waveform;

pub use dae::{CircuitDae, Dae, LoadCtx, SrcCtx};
pub use dc::{dc_operating_point, DcOptions, OperatingPoint};
pub use netlist::{Circuit, NodeId};
pub use transient::{transient, Integrator, TranOptions, TranResult};

/// Convenient glob import for building and simulating circuits.
pub mod prelude {
    pub use crate::ac::{ac_sweep, AcResult};
    pub use crate::dae::{CircuitDae, Dae};
    pub use crate::dc::{dc_operating_point, DcOptions, OperatingPoint};
    pub use crate::devices::{
        Bjt, Capacitor, Cccs, Ccvs, CoupledInductors, CurrentProbe, Diode, ISource, Inductor,
        Mosfet, Multiplier, NonlinearConductance, Resistor, VSource, Varactor, Vccs, Vcvs,
    };
    pub use crate::netlist::{Circuit, NodeId};
    pub use crate::transient::{transient, Integrator, TranOptions, TranResult};
    pub use crate::waveform::{Stimulus, TimeScale, Tone};
}

/// Errors raised while building or simulating circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The Newton iteration did not converge.
    NewtonNoConvergence {
        /// Newton iterations performed.
        iterations: usize,
        /// Final residual infinity-norm.
        residual: f64,
    },
    /// An underlying linear-algebra failure (singular Jacobian etc.).
    Numerics(rfsim_numerics::Error),
    /// Netlist construction problem (duplicate names, bad node, …).
    Netlist(String),
    /// Netlist text parsing problem, with line number.
    Parse {
        /// 1-based line number of the offending card.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An analysis was asked of a circuit that does not support it.
    Unsupported(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NewtonNoConvergence { iterations, residual } => write!(
                f,
                "newton iteration failed to converge after {iterations} steps (residual {residual:.3e})"
            ),
            Error::Numerics(e) => write!(f, "numerical failure: {e}"),
            Error::Netlist(msg) => write!(f, "netlist error: {msg}"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::Unsupported(what) => write!(f, "unsupported analysis: {what}"),
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

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380649e-23;
/// Elementary charge (C).
pub const Q_ELECTRON: f64 = 1.602176634e-19;
/// Thermal voltage kT/q at 300 K (V).
pub const VT_300K: f64 = BOLTZMANN * 300.0 / Q_ELECTRON;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_sane() {
        assert!((VT_300K - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn error_display() {
        let e = Error::Netlist("node not found".into());
        assert!(e.to_string().contains("node not found"));
        let e: Error = rfsim_numerics::Error::Singular(2).into();
        assert!(e.to_string().contains("singular"));
    }
}
