//! Linear passive devices: resistor, capacitor, inductor, coupled inductors
//! and the zero-volt current probe.

use crate::dae::{LoadCtx, NoiseCtx, NoiseSource, Psd, SrcCtx, Var};
use crate::netlist::{Device, NodeId};
use crate::BOLTZMANN;

/// A linear resistor between two nodes, with thermal (Johnson) noise
/// `S_i = 4kT/R`.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    resistance: f64,
    temperature: f64,
    noiseless: bool,
}

impl Resistor {
    /// Creates a resistor of `resistance` ohms at 300 K.
    ///
    /// # Panics
    /// Panics if `resistance` is not positive and finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, resistance: f64) -> Self {
        assert!(
            resistance.is_finite() && resistance > 0.0,
            "resistor {name}: resistance must be positive"
        );
        Resistor { name: name.into(), a, b, resistance, temperature: 300.0, noiseless: false }
    }

    /// Disables the thermal noise generator (ideal resistor).
    pub fn noiseless(mut self) -> Self {
        self.noiseless = true;
        self
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        self.resistance
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let g = 1.0 / self.resistance;
        let v = ctx.v(self.a) - ctx.v(self.b);
        ctx.add_f(Var::Node(self.a), g * v);
        ctx.add_f(Var::Node(self.b), -g * v);
        ctx.add_g(Var::Node(self.a), Var::Node(self.a), g);
        ctx.add_g(Var::Node(self.a), Var::Node(self.b), -g);
        ctx.add_g(Var::Node(self.b), Var::Node(self.a), -g);
        ctx.add_g(Var::Node(self.b), Var::Node(self.b), g);
    }

    fn noise(&self, _x_op: &[f64], ctx: &NoiseCtx<'_>) -> Vec<NoiseSource> {
        if self.noiseless {
            return Vec::new();
        }
        vec![NoiseSource {
            label: format!("{} thermal", self.name),
            from: ctx.index(Var::Node(self.a)),
            to: ctx.index(Var::Node(self.b)),
            psd: Psd::White(4.0 * BOLTZMANN * self.temperature / self.resistance),
        }]
    }
}

/// A linear capacitor between two nodes.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    capacitance: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` farads.
    ///
    /// # Panics
    /// Panics if `capacitance` is not positive and finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, capacitance: f64) -> Self {
        assert!(
            capacitance.is_finite() && capacitance > 0.0,
            "capacitor {name}: capacitance must be positive"
        );
        Capacitor { name: name.into(), a, b, capacitance }
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let v = ctx.v(self.a) - ctx.v(self.b);
        let qv = self.capacitance * v;
        ctx.add_q(Var::Node(self.a), qv);
        ctx.add_q(Var::Node(self.b), -qv);
        ctx.add_c(Var::Node(self.a), Var::Node(self.a), self.capacitance);
        ctx.add_c(Var::Node(self.a), Var::Node(self.b), -self.capacitance);
        ctx.add_c(Var::Node(self.b), Var::Node(self.a), -self.capacitance);
        ctx.add_c(Var::Node(self.b), Var::Node(self.b), self.capacitance);
    }
}

/// A linear inductor between two nodes (one branch-current unknown).
///
/// Branch equation: `L·di/dt + (v_b − v_a) = 0`; KCL sees the branch
/// current flowing `a → b`.
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    inductance: f64,
}

impl Inductor {
    /// Creates an inductor of `inductance` henries.
    ///
    /// # Panics
    /// Panics if `inductance` is not positive and finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, inductance: f64) -> Self {
        assert!(
            inductance.is_finite() && inductance > 0.0,
            "inductor {name}: inductance must be positive"
        );
        Inductor { name: name.into(), a, b, inductance }
    }

    /// Inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.inductance
    }
}

impl Device for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let i = ctx.branch_current(0);
        // KCL: current i leaves a, enters b.
        ctx.add_f(Var::Node(self.a), i);
        ctx.add_f(Var::Node(self.b), -i);
        ctx.add_g(Var::Node(self.a), Var::Branch(0), 1.0);
        ctx.add_g(Var::Node(self.b), Var::Branch(0), -1.0);
        // Branch: L·di/dt = v_a − v_b  ⇒  q_br = L·i, f_br = v_b − v_a.
        ctx.add_q(Var::Branch(0), self.inductance * i);
        ctx.add_c(Var::Branch(0), Var::Branch(0), self.inductance);
        ctx.add_f(Var::Branch(0), ctx.v(self.b) - ctx.v(self.a));
        ctx.add_g(Var::Branch(0), Var::Node(self.b), 1.0);
        ctx.add_g(Var::Branch(0), Var::Node(self.a), -1.0);
    }
}

/// Two magnetically coupled inductors (a 1:n transformer model).
///
/// Branch 0 carries the primary current (`a1 → b1`), branch 1 the secondary
/// (`a2 → b2`). Flux equations:
///
/// ```text
/// λ₁ = L₁·i₁ + M·i₂,   λ₂ = M·i₁ + L₂·i₂,   M = k·√(L₁L₂)
/// ```
#[derive(Debug, Clone)]
pub struct CoupledInductors {
    name: String,
    a1: NodeId,
    b1: NodeId,
    a2: NodeId,
    b2: NodeId,
    l1: f64,
    l2: f64,
    k: f64,
}

impl CoupledInductors {
    /// Creates a coupled pair with coupling coefficient `k ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics for non-positive inductances or `|k| ≥ 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        a1: NodeId,
        b1: NodeId,
        a2: NodeId,
        b2: NodeId,
        l1: f64,
        l2: f64,
        k: f64,
    ) -> Self {
        assert!(l1 > 0.0 && l2 > 0.0, "coupled inductors {name}: inductances must be positive");
        assert!(k.abs() < 1.0, "coupled inductors {name}: |k| must be < 1");
        CoupledInductors { name: name.into(), a1, b1, a2, b2, l1, l2, k }
    }

    /// Mutual inductance `M = k·√(L₁L₂)`.
    pub fn mutual(&self) -> f64 {
        self.k * (self.l1 * self.l2).sqrt()
    }
}

impl Device for CoupledInductors {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        2
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let m = self.mutual();
        let i1 = ctx.branch_current(0);
        let i2 = ctx.branch_current(1);
        // KCL.
        ctx.add_f(Var::Node(self.a1), i1);
        ctx.add_f(Var::Node(self.b1), -i1);
        ctx.add_g(Var::Node(self.a1), Var::Branch(0), 1.0);
        ctx.add_g(Var::Node(self.b1), Var::Branch(0), -1.0);
        ctx.add_f(Var::Node(self.a2), i2);
        ctx.add_f(Var::Node(self.b2), -i2);
        ctx.add_g(Var::Node(self.a2), Var::Branch(1), 1.0);
        ctx.add_g(Var::Node(self.b2), Var::Branch(1), -1.0);
        // Flux equations.
        ctx.add_q(Var::Branch(0), self.l1 * i1 + m * i2);
        ctx.add_c(Var::Branch(0), Var::Branch(0), self.l1);
        ctx.add_c(Var::Branch(0), Var::Branch(1), m);
        ctx.add_f(Var::Branch(0), ctx.v(self.b1) - ctx.v(self.a1));
        ctx.add_g(Var::Branch(0), Var::Node(self.b1), 1.0);
        ctx.add_g(Var::Branch(0), Var::Node(self.a1), -1.0);
        ctx.add_q(Var::Branch(1), m * i1 + self.l2 * i2);
        ctx.add_c(Var::Branch(1), Var::Branch(0), m);
        ctx.add_c(Var::Branch(1), Var::Branch(1), self.l2);
        ctx.add_f(Var::Branch(1), ctx.v(self.b2) - ctx.v(self.a2));
        ctx.add_g(Var::Branch(1), Var::Node(self.b2), 1.0);
        ctx.add_g(Var::Branch(1), Var::Node(self.a2), -1.0);
    }
}

/// A zero-volt source used to measure a branch current (ammeter). Its
/// single branch unknown carries the current flowing `a → b`.
#[derive(Debug, Clone)]
pub struct CurrentProbe {
    name: String,
    a: NodeId,
    b: NodeId,
}

impl CurrentProbe {
    /// Creates a probe between `a` and `b`.
    pub fn new(name: &str, a: NodeId, b: NodeId) -> Self {
        CurrentProbe { name: name.into(), a, b }
    }
}

impl Device for CurrentProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let i = ctx.branch_current(0);
        ctx.add_f(Var::Node(self.a), i);
        ctx.add_f(Var::Node(self.b), -i);
        ctx.add_g(Var::Node(self.a), Var::Branch(0), 1.0);
        ctx.add_g(Var::Node(self.b), Var::Branch(0), -1.0);
        // Branch equation: v_a − v_b = 0.
        ctx.add_f(Var::Branch(0), ctx.v(self.a) - ctx.v(self.b));
        ctx.add_g(Var::Branch(0), Var::Node(self.a), 1.0);
        ctx.add_g(Var::Branch(0), Var::Node(self.b), -1.0);
    }

    fn source(&self, _ctx: &mut SrcCtx<'_>) {}
}
