//! Additional devices: current-controlled sources (self-contained — each
//! carries its own zero-volt sense branch, like SPICE's F/H sources use a
//! named V source) and the junction varactor that RF VCO work needs.

use crate::dae::{LoadCtx, Var};
use crate::netlist::{Device, NodeId};

/// Current-controlled current source:
/// `i(out+ → out−) = gain·i_sense`, where `i_sense` flows through the
/// device's internal zero-volt branch from `sense+` to `sense−`.
#[derive(Debug, Clone)]
pub struct Cccs {
    name: String,
    out_p: NodeId,
    out_n: NodeId,
    sense_p: NodeId,
    sense_n: NodeId,
    gain: f64,
}

impl Cccs {
    /// Creates a CCCS with the given current gain.
    pub fn new(
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        sense_p: NodeId,
        sense_n: NodeId,
        gain: f64,
    ) -> Self {
        Cccs { name: name.into(), out_p, out_n, sense_p, sense_n, gain }
    }
}

impl Device for Cccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let i_s = ctx.branch_current(0);
        // Sense branch: zero-volt source between sense+ and sense−.
        ctx.add_f(Var::Node(self.sense_p), i_s);
        ctx.add_f(Var::Node(self.sense_n), -i_s);
        ctx.add_g(Var::Node(self.sense_p), Var::Branch(0), 1.0);
        ctx.add_g(Var::Node(self.sense_n), Var::Branch(0), -1.0);
        ctx.add_f(Var::Branch(0), ctx.v(self.sense_p) - ctx.v(self.sense_n));
        ctx.add_g(Var::Branch(0), Var::Node(self.sense_p), 1.0);
        ctx.add_g(Var::Branch(0), Var::Node(self.sense_n), -1.0);
        // Controlled output current.
        let i_out = self.gain * i_s;
        ctx.add_f(Var::Node(self.out_p), i_out);
        ctx.add_f(Var::Node(self.out_n), -i_out);
        ctx.add_g(Var::Node(self.out_p), Var::Branch(0), self.gain);
        ctx.add_g(Var::Node(self.out_n), Var::Branch(0), -self.gain);
    }
}

/// Current-controlled voltage source:
/// `v(out+) − v(out−) = r_trans·i_sense` (transresistance), with an
/// internal zero-volt sense branch and an output branch.
#[derive(Debug, Clone)]
pub struct Ccvs {
    name: String,
    out_p: NodeId,
    out_n: NodeId,
    sense_p: NodeId,
    sense_n: NodeId,
    r_trans: f64,
}

impl Ccvs {
    /// Creates a CCVS with transresistance `r_trans` (Ω).
    pub fn new(
        name: &str,
        out_p: NodeId,
        out_n: NodeId,
        sense_p: NodeId,
        sense_n: NodeId,
        r_trans: f64,
    ) -> Self {
        Ccvs { name: name.into(), out_p, out_n, sense_p, sense_n, r_trans }
    }
}

impl Device for Ccvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn branch_count(&self) -> usize {
        2 // 0: sense, 1: output
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let i_s = ctx.branch_current(0);
        let i_o = ctx.branch_current(1);
        // Sense branch (0 V).
        ctx.add_f(Var::Node(self.sense_p), i_s);
        ctx.add_f(Var::Node(self.sense_n), -i_s);
        ctx.add_g(Var::Node(self.sense_p), Var::Branch(0), 1.0);
        ctx.add_g(Var::Node(self.sense_n), Var::Branch(0), -1.0);
        ctx.add_f(Var::Branch(0), ctx.v(self.sense_p) - ctx.v(self.sense_n));
        ctx.add_g(Var::Branch(0), Var::Node(self.sense_p), 1.0);
        ctx.add_g(Var::Branch(0), Var::Node(self.sense_n), -1.0);
        // Output branch: v_out − r·i_sense = 0.
        ctx.add_f(Var::Node(self.out_p), i_o);
        ctx.add_f(Var::Node(self.out_n), -i_o);
        ctx.add_g(Var::Node(self.out_p), Var::Branch(1), 1.0);
        ctx.add_g(Var::Node(self.out_n), Var::Branch(1), -1.0);
        ctx.add_f(Var::Branch(1), ctx.v(self.out_p) - ctx.v(self.out_n) - self.r_trans * i_s);
        ctx.add_g(Var::Branch(1), Var::Node(self.out_p), 1.0);
        ctx.add_g(Var::Branch(1), Var::Node(self.out_n), -1.0);
        ctx.add_g(Var::Branch(1), Var::Branch(0), -self.r_trans);
    }
}

/// A reverse-biased junction varactor: voltage-dependent capacitance
/// `C(v) = C₀ / (1 + v_r/Φ)^γ` for reverse voltage `v_r = v_cathode −
/// v_anode ≥ 0`, with the charge integrated in closed form and a linear
/// extension into (unintended) forward bias.
///
/// This is the tuning element of RF VCOs — the standard application of
/// the paper's §3 oscillators.
#[derive(Debug, Clone)]
pub struct Varactor {
    name: String,
    anode: NodeId,
    cathode: NodeId,
    c0: f64,
    phi: f64,
    gamma: f64,
}

impl Varactor {
    /// Creates a varactor with zero-bias capacitance `c0`, built-in
    /// potential 0.7 V and grading coefficient 0.5 (abrupt junction).
    ///
    /// # Panics
    /// Panics for non-positive `c0`.
    pub fn new(name: &str, anode: NodeId, cathode: NodeId, c0: f64) -> Self {
        assert!(c0 > 0.0, "varactor {name}: c0 must be positive");
        Varactor { name: name.into(), anode, cathode, c0, phi: 0.7, gamma: 0.5 }
    }

    /// Charge and capacitance at reverse voltage `vr` (cathode − anode).
    /// Charge is measured on the cathode.
    pub fn qc(&self, vr: f64) -> (f64, f64) {
        if vr > -self.phi / 2.0 {
            // q(vr) = ∫C dv = C₀·Φ/(1−γ)·[(1 + vr/Φ)^{1−γ} − 1]
            let u = 1.0 + vr / self.phi;
            let q = self.c0 * self.phi / (1.0 - self.gamma) * (u.powf(1.0 - self.gamma) - 1.0);
            let c = self.c0 / u.powf(self.gamma);
            (q, c)
        } else {
            // Deep forward bias: linear extension at the edge capacitance.
            let edge = -self.phi / 2.0;
            let (q_edge, c_edge) = self.qc(edge + 1e-12);
            (q_edge + c_edge * (vr - edge), c_edge)
        }
    }

    /// Small-signal capacitance at reverse bias `vr`.
    pub fn capacitance(&self, vr: f64) -> f64 {
        self.qc(vr).1
    }
}

impl Device for Varactor {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let vr = ctx.v(self.cathode) - ctx.v(self.anode);
        let (q, c) = self.qc(vr);
        // Charge +q on the cathode, −q on the anode.
        ctx.add_q(Var::Node(self.cathode), q);
        ctx.add_q(Var::Node(self.anode), -q);
        ctx.add_c(Var::Node(self.cathode), Var::Node(self.cathode), c);
        ctx.add_c(Var::Node(self.cathode), Var::Node(self.anode), -c);
        ctx.add_c(Var::Node(self.anode), Var::Node(self.cathode), -c);
        ctx.add_c(Var::Node(self.anode), Var::Node(self.anode), c);
    }
}

/// A cubic nonlinear conductance `i(a → b) = g1·v + g3·v³` with
/// `v = v_a − v_b`.
///
/// With `g1 < 0 < g3` this is the classic negative-resistance element that
/// sustains LC oscillation and limits its amplitude at
/// `v̂ = 2√(−g1/(3·g3))` — the active core of the §3 oscillator studies at
/// circuit level. An optional white noise current source models the
/// element's electronic noise.
#[derive(Debug, Clone)]
pub struct NonlinearConductance {
    name: String,
    a: NodeId,
    b: NodeId,
    g1: f64,
    g3: f64,
    noise_psd: f64,
}

impl NonlinearConductance {
    /// Creates the element. `g1` may be negative (active).
    pub fn new(name: &str, a: NodeId, b: NodeId, g1: f64, g3: f64) -> Self {
        NonlinearConductance { name: name.into(), a, b, g1, g3, noise_psd: 0.0 }
    }

    /// Attaches a white current-noise generator of the given PSD (A²/Hz).
    pub fn with_noise(mut self, psd: f64) -> Self {
        self.noise_psd = psd;
        self
    }
}

impl Device for NonlinearConductance {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let v = ctx.v(self.a) - ctx.v(self.b);
        let i = self.g1 * v + self.g3 * v * v * v;
        let g = self.g1 + 3.0 * self.g3 * v * v;
        ctx.add_f(Var::Node(self.a), i);
        ctx.add_f(Var::Node(self.b), -i);
        ctx.add_g(Var::Node(self.a), Var::Node(self.a), g);
        ctx.add_g(Var::Node(self.a), Var::Node(self.b), -g);
        ctx.add_g(Var::Node(self.b), Var::Node(self.a), -g);
        ctx.add_g(Var::Node(self.b), Var::Node(self.b), g);
    }

    fn noise(&self, _x_op: &[f64], ctx: &crate::dae::NoiseCtx<'_>) -> Vec<crate::dae::NoiseSource> {
        if self.noise_psd <= 0.0 {
            return Vec::new();
        }
        vec![crate::dae::NoiseSource {
            label: format!("{} noise", self.name),
            from: ctx.index(Var::Node(self.a)),
            to: ctx.index(Var::Node(self.b)),
            psd: crate::dae::Psd::White(self.noise_psd),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::Circuit;

    #[test]
    fn cccs_mirrors_current() {
        // 1 mA through the sense path; CCCS gain 2 drives a 1 kΩ load.
        let mut ckt = Circuit::new();
        let s = ckt.node("s");
        let o = ckt.node("o");
        ckt.add(ISource::dc("I1", Circuit::GROUND, s, 1e-3));
        ckt.add(Cccs::new("F1", Circuit::GROUND, o, s, Circuit::GROUND, 2.0));
        ckt.add(Resistor::new("RL", o, Circuit::GROUND, 1e3));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        // Output current 2 mA into the load (through out−=o): v_o = +2 V.
        assert!((op.voltage(o) - 2.0).abs() < 1e-9, "v_o = {}", op.voltage(o));
        // The sense path is a perfect short: v_s = 0.
        assert!(op.voltage(s).abs() < 1e-12);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut ckt = Circuit::new();
        let s = ckt.node("s");
        let o = ckt.node("o");
        ckt.add(ISource::dc("I1", Circuit::GROUND, s, 2e-3));
        ckt.add(Ccvs::new("H1", o, Circuit::GROUND, s, Circuit::GROUND, 500.0));
        ckt.add(Resistor::new("RL", o, Circuit::GROUND, 1e3));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(o) - 1.0).abs() < 1e-9, "v_o = {}", op.voltage(o));
    }

    #[test]
    fn varactor_capacitance_tunes_down_with_reverse_bias() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = Varactor::new("CV1", a, Circuit::GROUND, 1e-12);
        let c0 = v.capacitance(0.0);
        let c5 = v.capacitance(5.0);
        assert!((c0 - 1e-12).abs() < 1e-18);
        // C(5 V) = C0/√(1+5/0.7) ≈ C0/2.85.
        assert!((c5 - 1e-12 / (1.0f64 + 5.0 / 0.7).sqrt()).abs() < 1e-18);
        assert!(c5 < c0 / 2.0);
    }

    #[test]
    fn varactor_charge_consistent_with_capacitance() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = Varactor { gamma: 0.4, ..Varactor::new("CV1", a, Circuit::GROUND, 2e-12) };
        // dq/dv ≈ C by finite difference across the bias range.
        for vr in [-0.2, 0.0, 1.0, 3.0, 10.0] {
            let eps = 1e-6;
            let (qp, _) = v.qc(vr + eps);
            let (qm, _) = v.qc(vr - eps);
            let fd = (qp - qm) / (2.0 * eps);
            let (_, c) = v.qc(vr);
            assert!((fd - c).abs() / c < 1e-5, "vr = {vr}: fd {fd:.3e} vs c {c:.3e}");
        }
    }

    #[test]
    fn varactor_shifts_rc_corner_with_bias() {
        // Varactor as the C of an RC filter: more reverse bias → smaller C
        // → higher corner (a VCO's tuning mechanism in filter form).
        let corner_of = |bias: f64| {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            let vb = ckt.node("vb");
            ckt.add(VSource::dc("V1", inp, Circuit::GROUND, 0.0));
            ckt.add(VSource::dc("VB", vb, Circuit::GROUND, bias));
            ckt.add(Resistor::new("R1", inp, out, 1e3).noiseless());
            ckt.add(Varactor::new("CV1", out, vb, 10e-12));
            // Bias resistor keeps DC defined at `out`.
            ckt.add(Resistor::new("RB", out, Circuit::GROUND, 1e9).noiseless());
            let dae = ckt.into_dae().unwrap();
            let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
            let mut b_ac = vec![0.0; rfsim_numerics_dim(&dae)];
            b_ac[dae.branch_index("V1", 0).unwrap()] = 1.0;
            // Find the −3 dB point by bisection over a coarse grid.
            let freqs: Vec<f64> = (0..60).map(|i| 1e6 * 10f64.powf(i as f64 / 20.0)).collect();
            let res = crate::ac::ac_sweep(&dae, &op.x, &b_ac, &freqs).unwrap();
            let g = res.gain_db(out);
            let idx = g.iter().position(|&v| v < -3.0103).unwrap_or(freqs.len() - 1);
            freqs[idx]
        };
        let f_low_bias = corner_of(0.0);
        let f_high_bias = corner_of(10.0);
        assert!(
            f_high_bias > 1.5 * f_low_bias,
            "corner did not tune: {f_low_bias:.3e} → {f_high_bias:.3e}"
        );
    }

    fn rfsim_numerics_dim(dae: &crate::CircuitDae) -> usize {
        use crate::dae::Dae as _;
        dae.dim()
    }
}
