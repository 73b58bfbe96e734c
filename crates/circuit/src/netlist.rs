//! Netlist construction: nodes, the [`Device`] trait, and the [`Circuit`]
//! builder that assembles devices into a [`CircuitDae`].

use crate::dae::{CircuitDae, LoadCtx, NoiseSource, SrcCtx};
use crate::{Error, Result};

/// Identifies a circuit node. Node 0 is always ground.
///
/// Obtain ids from [`Circuit::node`]; they are only meaningful within the
/// circuit that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// Raw index (0 = ground). Mostly useful for diagnostics.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A circuit device that knows how to stamp itself into the MNA system.
///
/// Implementations provide resistive/reactive contributions through
/// [`Device::load`] and excitations through [`Device::source`]. Devices with
/// internal noise generators additionally override [`Device::noise`].
pub trait Device: Send + Sync {
    /// Instance name (unique within a circuit).
    fn name(&self) -> &str;

    /// Number of extra branch-current unknowns this device introduces
    /// (e.g. 1 for an inductor or voltage source).
    fn branch_count(&self) -> usize {
        0
    }

    /// Stamps `f(x)`, `q(x)` and their Jacobians `G`, `C` at the solution
    /// in `ctx`. Called every Newton iteration.
    fn load(&self, ctx: &mut LoadCtx<'_>);

    /// Stamps the excitation vector `b(t)`. `ctx.time()` carries both MPDE
    /// time arguments; univariate analyses set them equal.
    fn source(&self, _ctx: &mut SrcCtx<'_>) {}

    /// Returns `true` if the device's `load` depends nonlinearly on `x`.
    /// Linear circuits let analyses skip Newton re-evaluation.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Small-signal noise generators at the operating point `x`.
    fn noise(&self, _x_op: &[f64], _ctx: &crate::dae::NoiseCtx<'_>) -> Vec<NoiseSource> {
        Vec::new()
    }
}

/// A circuit under construction: a set of named nodes plus devices.
///
/// See the [crate-level example](crate) for typical use.
pub struct Circuit {
    node_names: Vec<String>,
    devices: Vec<Box<dyn Device>>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Circuit({} nodes, {} devices)", self.node_names.len(), self.devices.len())
    }
}

impl Circuit {
    /// The ground (reference) node, present in every circuit.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit { node_names: vec!["0".to_string()], devices: Vec::new() }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"GND"` alias the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            return NodeId(i);
        }
        self.node_names.push(name.to_string());
        NodeId(self.node_names.len() - 1)
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Self::GROUND);
        }
        self.node_names.iter().position(|n| n == name).map(NodeId)
    }

    /// Adds a device to the circuit.
    pub fn add(&mut self, device: impl Device + 'static) {
        self.devices.push(Box::new(device));
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over the devices.
    pub fn devices(&self) -> impl Iterator<Item = &dyn Device> {
        self.devices.iter().map(AsRef::as_ref)
    }

    /// Finalizes the circuit into a [`CircuitDae`] ready for analysis.
    ///
    /// # Errors
    /// Returns [`Error::Netlist`] for duplicate device names or an empty
    /// circuit.
    pub fn into_dae(self) -> Result<CircuitDae> {
        if self.devices.is_empty() {
            return Err(Error::Netlist("circuit has no devices".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for d in &self.devices {
            if !seen.insert(d.name().to_string()) {
                return Err(Error::Netlist(format!("duplicate device name `{}`", d.name())));
            }
        }
        Ok(CircuitDae::build(self.node_names, self.devices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Resistor;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert!(Circuit::GROUND.is_ground());
    }

    #[test]
    fn node_identity_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new();
        assert!(matches!(c.into_dae(), Err(Error::Netlist(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        c.add(Resistor::new("R1", a, Circuit::GROUND, 2.0));
        assert!(matches!(c.into_dae(), Err(Error::Netlist(_))));
    }
}
