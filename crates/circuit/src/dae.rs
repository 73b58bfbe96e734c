//! The circuit differential-algebraic equation: the [`Dae`] trait consumed
//! by every analysis engine, and [`CircuitDae`], the MNA-assembled
//! implementation built from a [`Circuit`](crate::Circuit).
//!
//! The system solved throughout the workspace is the paper's Eq. (3),
//!
//! ```text
//!     d/dt q(x) + f(x) = b(t)
//! ```
//!
//! and its bivariate MPDE generalization Eq. (4),
//!
//! ```text
//!     ∂q(x̂)/∂t₁ + ∂q(x̂)/∂t₂ + f(x̂) = b̂(t₁, t₂),
//! ```
//!
//! which is why excitations are evaluated at a [`TwoTime`]: univariate
//! analyses pass `t₁ = t₂ = t`, while the MPDE engines separate the slow
//! (`t₁`) and fast (`t₂`) arguments.

use crate::netlist::{Device, NodeId};
use crate::waveform::TimeScale;
use rfsim_numerics::sparse::{Csr, Triplets};

/// A pair of time arguments `(t₁ slow, t₂ fast)` for bivariate excitation
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTime {
    /// Slow time scale argument.
    pub t1: f64,
    /// Fast time scale argument.
    pub t2: f64,
}

impl TwoTime {
    /// Univariate time: both arguments equal (`b(t) = b̂(t, t)`).
    pub fn uni(t: f64) -> Self {
        TwoTime { t1: t, t2: t }
    }

    /// Bivariate time.
    pub fn new(t1: f64, t2: f64) -> Self {
        TwoTime { t1, t2 }
    }

    /// Selects the argument matching a stimulus time scale.
    pub fn select(&self, scale: TimeScale) -> f64 {
        match scale {
            TimeScale::Slow => self.t1,
            TimeScale::Fast => self.t2,
        }
    }
}

/// A differential-algebraic system `q̇(x) + f(x) = b(t)`.
///
/// Implemented by [`CircuitDae`] (MNA circuits) and by analytic ODE systems
/// (e.g. the oscillator models in `rfsim-phasenoise`).
pub trait Dae: Send + Sync {
    /// Number of unknowns.
    fn dim(&self) -> usize;

    /// Evaluates `f(x)`, `q(x)` and their Jacobians `G = ∂f/∂x`,
    /// `C = ∂q/∂x`. All outputs are cleared by the callee before stamping.
    fn eval(
        &self,
        x: &[f64],
        f: &mut [f64],
        q: &mut [f64],
        g: &mut Triplets<f64>,
        c: &mut Triplets<f64>,
    );

    /// Evaluates the excitation `b̂(t₁, t₂)` into `b` (cleared first).
    fn eval_b(&self, t: TwoTime, b: &mut [f64]);

    /// Whether `f`/`q` depend nonlinearly on `x`.
    fn is_nonlinear(&self) -> bool {
        true
    }

    /// Human-readable name of unknown `i` (diagnostics).
    fn unknown_name(&self, i: usize) -> String {
        format!("x{i}")
    }

    /// Small-signal noise generators at the operating point (empty when the
    /// system is noiseless).
    fn noise_sources(&self, _x_op: &[f64]) -> Vec<NoiseSource> {
        Vec::new()
    }
}

/// Addresses an MNA unknown from a device's point of view: one of its nodes
/// or one of its own branch currents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Var {
    /// A circuit node (ground contributes nothing).
    Node(NodeId),
    /// The device's `k`-th branch-current unknown.
    Branch(usize),
}

/// Stamping context passed to [`Device::load`]: read the candidate solution
/// and accumulate `f`, `q`, `G`, `C` contributions.
pub struct LoadCtx<'a> {
    pub(crate) x: &'a [f64],
    pub(crate) nn: usize,
    pub(crate) branch0: usize,
    pub(crate) f: &'a mut [f64],
    pub(crate) q: &'a mut [f64],
    pub(crate) g: &'a mut Triplets<f64>,
    pub(crate) c: &'a mut Triplets<f64>,
}

impl LoadCtx<'_> {
    fn idx(&self, v: Var) -> Option<usize> {
        match v {
            Var::Node(n) if n.is_ground() => None,
            Var::Node(n) => Some(n.0 - 1),
            Var::Branch(k) => {
                debug_assert!(self.branch0 + k < self.x.len(), "branch index out of range");
                Some(self.branch0 + k)
            }
        }
    }

    /// Voltage of a node at the current solution (0 for ground).
    pub fn v(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            0.0
        } else {
            self.x[n.0 - 1]
        }
    }

    /// Current through the device's `k`-th branch unknown.
    pub fn branch_current(&self, k: usize) -> f64 {
        self.x[self.branch0 + k]
    }

    /// Adds to the resistive term of an equation.
    pub fn add_f(&mut self, eq: Var, val: f64) {
        if let Some(i) = self.idx(eq) {
            self.f[i] += val;
        }
    }

    /// Adds to the charge/flux term of an equation.
    pub fn add_q(&mut self, eq: Var, val: f64) {
        if let Some(i) = self.idx(eq) {
            self.q[i] += val;
        }
    }

    /// Adds to `G[eq, var] = ∂f_eq/∂x_var`.
    pub fn add_g(&mut self, eq: Var, var: Var, val: f64) {
        if let (Some(i), Some(j)) = (self.idx(eq), self.idx(var)) {
            self.g.push(i, j, val);
        }
    }

    /// Adds to `C[eq, var] = ∂q_eq/∂x_var`.
    pub fn add_c(&mut self, eq: Var, var: Var, val: f64) {
        if let (Some(i), Some(j)) = (self.idx(eq), self.idx(var)) {
            self.c.push(i, j, val);
        }
    }

    /// Number of node-voltage unknowns (excludes ground).
    pub fn node_unknowns(&self) -> usize {
        self.nn
    }
}

/// Context passed to [`Device::source`] for stamping `b(t)`.
pub struct SrcCtx<'a> {
    pub(crate) t: TwoTime,
    pub(crate) branch0: usize,
    pub(crate) b: &'a mut [f64],
}

impl SrcCtx<'_> {
    /// The (possibly bivariate) evaluation time.
    pub fn time(&self) -> TwoTime {
        self.t
    }

    /// Adds to the excitation entry of a node equation.
    pub fn add_b(&mut self, n: NodeId, val: f64) {
        if !n.is_ground() {
            self.b[n.0 - 1] += val;
        }
    }

    /// Adds to the excitation entry of the device's `k`-th branch equation.
    pub fn add_b_branch(&mut self, k: usize, val: f64) {
        self.b[self.branch0 + k] += val;
    }
}

/// Resolves device-local variables to global unknown indices when
/// enumerating noise sources.
pub struct NoiseCtx<'a> {
    nn: usize,
    branch0: usize,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl NoiseCtx<'_> {
    /// Global unknown index of a variable (`None` for ground).
    pub fn index(&self, v: Var) -> Option<usize> {
        match v {
            Var::Node(n) if n.is_ground() => None,
            Var::Node(n) => Some(n.0 - 1),
            Var::Branch(k) => Some(self.branch0 + k),
        }
    }

    /// Number of node unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.nn
    }
}

/// Power spectral density model of a device noise generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Psd {
    /// Frequency-independent PSD (thermal, shot) in A²/Hz.
    White(f64),
    /// White plus 1/f: `S(f) = white·(1 + fc/f)` with corner `fc` in Hz.
    Flicker {
        /// White floor in A²/Hz.
        white: f64,
        /// Flicker corner frequency in Hz.
        corner: f64,
    },
}

impl Psd {
    /// Evaluates the PSD at frequency `f` (Hz). 1/f noise diverges as
    /// `f → 0`; callers clamp the evaluation band.
    pub fn at(&self, f: f64) -> f64 {
        match *self {
            Psd::White(s) => s,
            Psd::Flicker { white, corner } => white * (1.0 + corner / f.max(1e-12)),
        }
    }
}

/// A small-signal noise current source between two unknowns.
///
/// The stochastic excitation enters the DAE as `B·ξ(t)` with one column per
/// source: `+√S` at `from`, `−√S` at `to` (`None` = ground).
#[derive(Debug, Clone)]
pub struct NoiseSource {
    /// Label (`"R1 thermal"`, `"Q3 shot"`, …).
    pub label: String,
    /// Unknown receiving `+`.
    pub from: Option<usize>,
    /// Unknown receiving `−`.
    pub to: Option<usize>,
    /// PSD model (single-sided, A²/Hz).
    pub psd: Psd,
}

impl NoiseSource {
    /// Scatters this source's unit-intensity column into a dense vector
    /// scaled by `√S(f)`.
    pub fn column(&self, dim: usize, f: f64) -> Vec<f64> {
        let mut col = vec![0.0; dim];
        let s = self.psd.at(f).sqrt();
        if let Some(i) = self.from {
            col[i] += s;
        }
        if let Some(i) = self.to {
            col[i] -= s;
        }
        col
    }
}

/// The MNA-assembled DAE of a circuit.
///
/// Unknown layout: node voltages for nodes `1..n` (ground excluded) followed
/// by device branch currents in device insertion order.
pub struct CircuitDae {
    node_names: Vec<String>,
    devices: Vec<Box<dyn Device>>,
    branch_offsets: Vec<usize>,
    nn: usize,
    dim: usize,
    nonlinear: bool,
}

impl std::fmt::Debug for CircuitDae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CircuitDae(dim = {}, nodes = {}, devices = {})",
            self.dim,
            self.nn,
            self.devices.len()
        )
    }
}

impl CircuitDae {
    pub(crate) fn build(node_names: Vec<String>, devices: Vec<Box<dyn Device>>) -> Self {
        let nn = node_names.len() - 1;
        let mut branch_offsets = Vec::with_capacity(devices.len());
        let mut nb = 0;
        for d in &devices {
            branch_offsets.push(nn + nb);
            nb += d.branch_count();
        }
        let nonlinear = devices.iter().any(|d| d.is_nonlinear());
        CircuitDae { node_names, devices, branch_offsets, nn, dim: nn + nb, nonlinear }
    }

    /// Unknown index of a node's voltage (`None` for ground).
    pub fn node_index(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    /// Voltage of `n` in the solution vector `x` (0 for ground).
    ///
    /// # Panics
    /// Panics if `x` is shorter than the node-unknown count.
    pub fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_index(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Unknown index of the `k`-th branch current of the named device.
    pub fn branch_index(&self, device: &str, k: usize) -> Option<usize> {
        self.devices.iter().position(|d| d.name() == device).map(|di| self.branch_offsets[di] + k)
    }

    /// Number of node-voltage unknowns.
    pub fn node_unknowns(&self) -> usize {
        self.nn
    }

    /// Assembled `G`, `C` Jacobians at `x` as CSR matrices.
    pub fn linearize(&self, x: &[f64]) -> (Csr<f64>, Csr<f64>) {
        let mut f = vec![0.0; self.dim];
        let mut q = vec![0.0; self.dim];
        let mut g = Triplets::new(self.dim, self.dim);
        let mut c = Triplets::new(self.dim, self.dim);
        self.eval(x, &mut f, &mut q, &mut g, &mut c);
        (g.to_csr(), c.to_csr())
    }
}

impl Dae for CircuitDae {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(
        &self,
        x: &[f64],
        f: &mut [f64],
        q: &mut [f64],
        g: &mut Triplets<f64>,
        c: &mut Triplets<f64>,
    ) {
        assert_eq!(x.len(), self.dim, "eval: solution length mismatch");
        f.fill(0.0);
        q.fill(0.0);
        g.reset(self.dim, self.dim);
        c.reset(self.dim, self.dim);
        for (di, d) in self.devices.iter().enumerate() {
            let mut ctx = LoadCtx { x, nn: self.nn, branch0: self.branch_offsets[di], f, q, g, c };
            d.load(&mut ctx);
        }
    }

    fn eval_b(&self, t: TwoTime, b: &mut [f64]) {
        b.fill(0.0);
        for (di, d) in self.devices.iter().enumerate() {
            let mut ctx = SrcCtx { t, branch0: self.branch_offsets[di], b };
            d.source(&mut ctx);
        }
    }

    fn is_nonlinear(&self) -> bool {
        self.nonlinear
    }

    fn unknown_name(&self, i: usize) -> String {
        if i < self.nn {
            format!("v({})", self.node_names[i + 1])
        } else {
            // Find the owning device.
            for (di, d) in self.devices.iter().enumerate() {
                let lo = self.branch_offsets[di];
                let hi = lo + d.branch_count();
                if i >= lo && i < hi {
                    return format!("i({},{})", d.name(), i - lo);
                }
            }
            format!("x{i}")
        }
    }

    fn noise_sources(&self, x_op: &[f64]) -> Vec<NoiseSource> {
        let mut out = Vec::new();
        for (di, d) in self.devices.iter().enumerate() {
            let ctx = NoiseCtx {
                nn: self.nn,
                branch0: self.branch_offsets[di],
                _marker: std::marker::PhantomData,
            };
            out.extend(d.noise(x_op, &ctx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Resistor, VSource};
    use crate::netlist::Circuit;

    fn divider() -> CircuitDae {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, 2.0));
        ckt.add(Resistor::new("R1", a, b, 100.0));
        ckt.add(Resistor::new("R2", b, Circuit::GROUND, 100.0));
        ckt.into_dae().unwrap()
    }

    #[test]
    fn dimension_and_names() {
        let dae = divider();
        // 2 node voltages + 1 vsource branch.
        assert_eq!(dae.dim(), 3);
        assert_eq!(dae.unknown_name(0), "v(a)");
        assert_eq!(dae.unknown_name(1), "v(b)");
        assert_eq!(dae.unknown_name(2), "i(V1,0)");
        assert!(!dae.is_nonlinear());
    }

    #[test]
    fn b_vector_carries_source() {
        let dae = divider();
        let mut b = vec![0.0; dae.dim()];
        dae.eval_b(TwoTime::uni(0.0), &mut b);
        // VSource branch equation RHS = 2.0.
        assert_eq!(b[2], 2.0);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn linearize_shapes() {
        let dae = divider();
        let x = vec![0.0; dae.dim()];
        let (g, c) = dae.linearize(&x);
        assert_eq!(g.rows(), 3);
        assert_eq!(c.rows(), 3);
        // Conductance stamps present; no capacitors.
        assert!(g.nnz() > 0);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn two_time_selection() {
        let t = TwoTime::new(1.0, 2.0);
        assert_eq!(t.select(TimeScale::Slow), 1.0);
        assert_eq!(t.select(TimeScale::Fast), 2.0);
        assert_eq!(TwoTime::uni(3.0), TwoTime::new(3.0, 3.0));
    }

    #[test]
    fn psd_models() {
        let w = Psd::White(4e-21);
        assert_eq!(w.at(1.0), w.at(1e9));
        let fl = Psd::Flicker { white: 1e-20, corner: 1e3 };
        assert!(fl.at(10.0) > fl.at(1e6));
        assert!((fl.at(1e3) - 2e-20).abs() < 1e-30);
    }

    #[test]
    fn noise_source_column() {
        let ns =
            NoiseSource { label: "test".into(), from: Some(0), to: Some(2), psd: Psd::White(4.0) };
        let col = ns.column(3, 1.0);
        assert_eq!(col, vec![2.0, 0.0, -2.0]);
    }
}
