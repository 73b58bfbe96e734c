//! Nonlinear semiconductor devices: Shockley diode, Ebers–Moll BJT and a
//! level-1 MOSFET, each with shot/thermal/flicker noise generators.
//!
//! "Sophisticated semiconductor device equations require nonlinear modeling
//! of the majority of components" in RF ICs (paper, §2.1) — these models
//! supply that nonlinear population for the HB and MPDE studies.

use super::{limited_exp, GMIN};
use crate::dae::{LoadCtx, NoiseCtx, NoiseSource, Psd, Var};
use crate::netlist::{Device, NodeId};
use crate::{BOLTZMANN, Q_ELECTRON, VT_300K};

/// Shockley diode `i = Is·(exp(v/(n·Vt)) − 1) + gmin·v` from anode to
/// cathode, with shot noise `2qI` and an optional 1/f corner.
#[derive(Debug, Clone)]
pub struct Diode {
    name: String,
    anode: NodeId,
    cathode: NodeId,
    is: f64,
    n: f64,
    flicker_corner: f64,
}

impl Diode {
    /// Creates a diode with saturation current `is` (A) and ideality 1.
    pub fn new(name: &str, anode: NodeId, cathode: NodeId, is: f64) -> Self {
        assert!(is > 0.0, "diode {name}: saturation current must be positive");
        Diode { name: name.into(), anode, cathode, is, n: 1.0, flicker_corner: 0.0 }
    }

    /// Sets the ideality factor.
    pub fn with_ideality(mut self, n: f64) -> Self {
        self.n = n;
        self
    }

    /// Adds a 1/f noise corner frequency (Hz).
    pub fn with_flicker_corner(mut self, corner: f64) -> Self {
        self.flicker_corner = corner;
        self
    }

    /// Current and conductance at junction voltage `v`.
    pub fn iv(&self, v: f64) -> (f64, f64) {
        let nvt = self.n * VT_300K;
        let (e, de) = limited_exp(v / nvt);
        let i = self.is * (e - 1.0) + GMIN * v;
        let g = self.is * de / nvt + GMIN;
        (i, g)
    }
}

impl Device for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let v = ctx.v(self.anode) - ctx.v(self.cathode);
        let (i, g) = self.iv(v);
        ctx.add_f(Var::Node(self.anode), i);
        ctx.add_f(Var::Node(self.cathode), -i);
        ctx.add_g(Var::Node(self.anode), Var::Node(self.anode), g);
        ctx.add_g(Var::Node(self.anode), Var::Node(self.cathode), -g);
        ctx.add_g(Var::Node(self.cathode), Var::Node(self.anode), -g);
        ctx.add_g(Var::Node(self.cathode), Var::Node(self.cathode), g);
    }

    fn noise(&self, x_op: &[f64], ctx: &NoiseCtx<'_>) -> Vec<NoiseSource> {
        let va = ctx.index(Var::Node(self.anode)).map_or(0.0, |i| x_op[i]);
        let vc = ctx.index(Var::Node(self.cathode)).map_or(0.0, |i| x_op[i]);
        let (i, _) = self.iv(va - vc);
        let shot = 2.0 * Q_ELECTRON * i.abs();
        let psd = if self.flicker_corner > 0.0 {
            Psd::Flicker { white: shot, corner: self.flicker_corner }
        } else {
            Psd::White(shot)
        };
        vec![NoiseSource {
            label: format!("{} shot", self.name),
            from: ctx.index(Var::Node(self.anode)),
            to: ctx.index(Var::Node(self.cathode)),
            psd,
        }]
    }
}

/// BJT polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BjtPolarity {
    /// NPN transistor.
    #[default]
    Npn,
    /// PNP transistor.
    Pnp,
}

/// Ebers–Moll (transport form) bipolar junction transistor.
///
/// Terminal currents for an NPN (into the device):
///
/// ```text
/// Icc = Is·(exp(v_be/Vt) − exp(v_bc/Vt))
/// Ic  = Icc − (Is/βr)·(exp(v_bc/Vt) − 1)
/// Ib  = (Is/βf)·(exp(v_be/Vt) − 1) + (Is/βr)·(exp(v_bc/Vt) − 1)
/// Ie  = −(Ic + Ib)
/// ```
#[derive(Debug, Clone)]
pub struct Bjt {
    name: String,
    collector: NodeId,
    base: NodeId,
    emitter: NodeId,
    is: f64,
    beta_f: f64,
    beta_r: f64,
    polarity: BjtPolarity,
    flicker_corner: f64,
}

impl Bjt {
    /// Creates an NPN transistor with saturation current `is` and forward
    /// beta `beta_f` (reverse beta defaults to 1).
    pub fn npn(
        name: &str,
        collector: NodeId,
        base: NodeId,
        emitter: NodeId,
        is: f64,
        beta_f: f64,
    ) -> Self {
        Bjt {
            name: name.into(),
            collector,
            base,
            emitter,
            is,
            beta_f,
            beta_r: 1.0,
            polarity: BjtPolarity::Npn,
            flicker_corner: 0.0,
        }
    }

    /// Creates a PNP transistor.
    pub fn pnp(
        name: &str,
        collector: NodeId,
        base: NodeId,
        emitter: NodeId,
        is: f64,
        beta_f: f64,
    ) -> Self {
        Bjt { polarity: BjtPolarity::Pnp, ..Self::npn(name, collector, base, emitter, is, beta_f) }
    }

    /// Adds a base-current 1/f noise corner (Hz).
    pub fn with_flicker_corner(mut self, corner: f64) -> Self {
        self.flicker_corner = corner;
        self
    }

    /// Computes `(ic, ib, and partial derivatives)` at junction voltages
    /// `(v_be, v_bc)` in polarity-normalized coordinates.
    fn currents(&self, vbe: f64, vbc: f64) -> BjtOp {
        let vt = VT_300K;
        let (ebe, debe) = limited_exp(vbe / vt);
        let (ebc, debc) = limited_exp(vbc / vt);
        let icc = self.is * (ebe - ebc);
        let ic = icc - (self.is / self.beta_r) * (ebc - 1.0) + GMIN * (vbe - vbc);
        let ib = (self.is / self.beta_f) * (ebe - 1.0)
            + (self.is / self.beta_r) * (ebc - 1.0)
            + GMIN * vbe;
        BjtOp {
            ic,
            ib,
            dic_dvbe: self.is * debe / vt + GMIN,
            dic_dvbc: -self.is * debc / vt - (self.is / self.beta_r) * debc / vt - GMIN,
            dib_dvbe: (self.is / self.beta_f) * debe / vt + GMIN,
            dib_dvbc: (self.is / self.beta_r) * debc / vt,
        }
    }
}

struct BjtOp {
    ic: f64,
    ib: f64,
    dic_dvbe: f64,
    dic_dvbc: f64,
    dib_dvbe: f64,
    dib_dvbc: f64,
}

impl Device for Bjt {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let sgn = match self.polarity {
            BjtPolarity::Npn => 1.0,
            BjtPolarity::Pnp => -1.0,
        };
        let vb = ctx.v(self.base);
        let vc = ctx.v(self.collector);
        let ve = ctx.v(self.emitter);
        let op = self.currents(sgn * (vb - ve), sgn * (vb - vc));
        let ic = sgn * op.ic;
        let ib = sgn * op.ib;
        let ie = -(ic + ib);
        ctx.add_f(Var::Node(self.collector), ic);
        ctx.add_f(Var::Node(self.base), ib);
        ctx.add_f(Var::Node(self.emitter), ie);
        // Chain rule: v_be = sgn(vb−ve), v_bc = sgn(vb−vc); derivative of a
        // polarity-flipped current w.r.t. raw node voltage picks up sgn².
        // d ic / d vb = dic_dvbe + dic_dvbc, etc. (sgn² = 1).
        let dic_db = op.dic_dvbe + op.dic_dvbc;
        let dic_de = -op.dic_dvbe;
        let dic_dc = -op.dic_dvbc;
        let dib_db = op.dib_dvbe + op.dib_dvbc;
        let dib_de = -op.dib_dvbe;
        let dib_dc = -op.dib_dvbc;
        let stamps = [
            (self.collector, dic_dc, dic_db, dic_de),
            (self.base, dib_dc, dib_db, dib_de),
            (self.emitter, -(dic_dc + dib_dc), -(dic_db + dib_db), -(dic_de + dib_de)),
        ];
        for (eq, dc, db, de) in stamps {
            ctx.add_g(Var::Node(eq), Var::Node(self.collector), dc);
            ctx.add_g(Var::Node(eq), Var::Node(self.base), db);
            ctx.add_g(Var::Node(eq), Var::Node(self.emitter), de);
        }
    }

    fn noise(&self, x_op: &[f64], ctx: &NoiseCtx<'_>) -> Vec<NoiseSource> {
        let v_of = |n: NodeId| ctx.index(Var::Node(n)).map_or(0.0, |i| x_op[i]);
        let sgn = match self.polarity {
            BjtPolarity::Npn => 1.0,
            BjtPolarity::Pnp => -1.0,
        };
        let op = self.currents(
            sgn * (v_of(self.base) - v_of(self.emitter)),
            sgn * (v_of(self.base) - v_of(self.collector)),
        );
        let base_psd = {
            let shot = 2.0 * Q_ELECTRON * op.ib.abs();
            if self.flicker_corner > 0.0 {
                Psd::Flicker { white: shot, corner: self.flicker_corner }
            } else {
                Psd::White(shot)
            }
        };
        vec![
            NoiseSource {
                label: format!("{} collector shot", self.name),
                from: ctx.index(Var::Node(self.collector)),
                to: ctx.index(Var::Node(self.emitter)),
                psd: Psd::White(2.0 * Q_ELECTRON * op.ic.abs()),
            },
            NoiseSource {
                label: format!("{} base shot", self.name),
                from: ctx.index(Var::Node(self.base)),
                to: ctx.index(Var::Node(self.emitter)),
                psd: base_psd,
            },
        ]
    }
}

/// MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MosPolarity {
    /// N-channel.
    #[default]
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 (square-law) MOSFET with channel-length modulation.
///
/// ```text
/// triode:     id = kp·((v_gs − Vt)·v_ds − v_ds²/2)·(1 + λ·v_ds)
/// saturation: id = (kp/2)·(v_gs − Vt)²·(1 + λ·v_ds)
/// ```
///
/// Drain/source are swapped internally for `v_ds < 0` so the model is
/// symmetric.
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    vto: f64,
    kp: f64,
    lambda: f64,
    polarity: MosPolarity,
    flicker_corner: f64,
}

impl Mosfet {
    /// Creates an NMOS with threshold `vto` (V) and transconductance factor
    /// `kp = μCox·W/L` (A/V²).
    pub fn nmos(
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        vto: f64,
        kp: f64,
    ) -> Self {
        Mosfet {
            name: name.into(),
            drain,
            gate,
            source,
            vto,
            kp,
            lambda: 0.0,
            polarity: MosPolarity::Nmos,
            flicker_corner: 0.0,
        }
    }

    /// Creates a PMOS. The model normalizes polarity internally, so pass
    /// the threshold magnitude (e.g. `0.7` for a −0.7 V PMOS threshold).
    pub fn pmos(
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        vto: f64,
        kp: f64,
    ) -> Self {
        Mosfet { polarity: MosPolarity::Pmos, ..Self::nmos(name, drain, gate, source, vto, kp) }
    }

    /// Sets channel-length modulation λ (1/V).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Adds a drain-current 1/f noise corner (Hz).
    pub fn with_flicker_corner(mut self, corner: f64) -> Self {
        self.flicker_corner = corner;
        self
    }

    /// Normalized (NMOS, v_ds ≥ 0) drain current and derivatives
    /// `(id, gm, gds)`.
    fn id_normalized(&self, vgs: f64, vds: f64) -> (f64, f64, f64) {
        let vov = vgs - self.vto;
        if vov <= 0.0 {
            // Cut-off: leakage only.
            return (GMIN * vds, 0.0, GMIN);
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let id = self.kp * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = self.kp * vds * clm;
            let gds =
                self.kp * (vov - vds) * clm + self.kp * (vov * vds - 0.5 * vds * vds) * self.lambda;
            (id + GMIN * vds, gm, gds + GMIN)
        } else {
            // Saturation.
            let id = 0.5 * self.kp * vov * vov * clm;
            let gm = self.kp * vov * clm;
            let gds = 0.5 * self.kp * vov * vov * self.lambda;
            (id + GMIN * vds, gm, gds + GMIN)
        }
    }

    /// Full signed operating point `(id, gm, gds)` in raw node coordinates,
    /// with drain/source swap and polarity handled. `id` flows drain →
    /// source for positive values.
    pub fn op(&self, vd: f64, vg: f64, vs: f64) -> (f64, f64, f64) {
        let sgn = match self.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        let (vd_n, vg_n, vs_n) = (sgn * vd, sgn * vg, sgn * vs);
        if vd_n >= vs_n {
            let (id, gm, gds) = self.id_normalized(vg_n - vs_n, vd_n - vs_n);
            (sgn * id, gm, gds)
        } else {
            // Swap roles of drain and source.
            let (id, gm, gds) = self.id_normalized(vg_n - vd_n, vs_n - vd_n);
            (-sgn * id, gm, gds)
        }
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&self, ctx: &mut LoadCtx<'_>) {
        let vd = ctx.v(self.drain);
        let vg = ctx.v(self.gate);
        let vs = ctx.v(self.source);
        // Compute current by finite structure: we need derivatives w.r.t.
        // raw node voltages; handle the swap case by re-deriving.
        let sgn = match self.polarity {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        };
        let (vd_n, vg_n, vs_n) = (sgn * vd, sgn * vg, sgn * vs);
        let swapped = vd_n < vs_n;
        let (deff, seff) = if swapped { (vs_n, vd_n) } else { (vd_n, vs_n) };
        let (id_n, gm, gds) = self.id_normalized(vg_n - seff, deff - seff);
        // In normalized/swapped coordinates, current flows deff → seff.
        // Map back: d(id)/d(vg_raw) = sgn·gm·sgn = gm, etc. — polarity signs
        // cancel for conductances; only current direction flips.
        let id = if swapped { -sgn * id_n } else { sgn * id_n };
        let (dnode, snode) =
            if swapped { (self.source, self.drain) } else { (self.drain, self.source) };
        // id_n depends on (vg_n − v_seff) and (v_deff − v_seff):
        //   ∂id_n/∂vg_n = gm, ∂id_n/∂v_deff = gds, ∂id_n/∂v_seff = −gm − gds.
        // f at raw drain node = ±id; work in effective nodes then assign.
        ctx.add_f(Var::Node(self.drain), id);
        ctx.add_f(Var::Node(self.source), -id);
        // Conductance stamps in effective (normalized) orientation: current
        // i_eff = id_n flows dnode → snode; its derivatives w.r.t. raw
        // voltages: chain through sgn twice → net sgn·sgn = 1, except the
        // current itself is re-signed, giving:
        let s_eff = if swapped { -sgn } else { sgn }; // d(id)/d(id_n)
        let dg = s_eff * sgn; // derivative of id w.r.t. raw voltage of each terminal
        let stamps = [(self.gate, gm), (dnode, gds), (snode, -gm - gds)];
        for (var, val) in stamps {
            ctx.add_g(Var::Node(self.drain), Var::Node(var), dg * val);
            ctx.add_g(Var::Node(self.source), Var::Node(var), -dg * val);
        }
    }

    fn noise(&self, x_op: &[f64], ctx: &NoiseCtx<'_>) -> Vec<NoiseSource> {
        let v_of = |n: NodeId| ctx.index(Var::Node(n)).map_or(0.0, |i| x_op[i]);
        let (_, gm, _) = self.op(v_of(self.drain), v_of(self.gate), v_of(self.source));
        // Channel thermal noise 4kT·(2/3)·gm.
        let white = 4.0 * BOLTZMANN * 300.0 * (2.0 / 3.0) * gm.abs();
        let psd = if self.flicker_corner > 0.0 {
            Psd::Flicker { white, corner: self.flicker_corner }
        } else {
            Psd::White(white)
        };
        vec![NoiseSource {
            label: format!("{} channel", self.name),
            from: ctx.index(Var::Node(self.drain)),
            to: ctx.index(Var::Node(self.source)),
            psd,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diode_iv_monotone_and_limited() {
        let mut c = crate::Circuit::new();
        let a = c.node("a");
        let d = Diode::new("D1", a, crate::Circuit::GROUND, 1e-14);
        let (i1, g1) = d.iv(0.6);
        let (i2, _) = d.iv(0.7);
        assert!(i2 > i1 && i1 > 0.0 && g1 > 0.0);
        let (i_huge, g_huge) = d.iv(100.0);
        assert!(i_huge.is_finite() && g_huge.is_finite());
        // Reverse bias saturates at −Is.
        let (ir, _) = d.iv(-5.0);
        assert!((ir + 1e-14 + GMIN * 5.0).abs() < 1e-13);
    }

    #[test]
    fn mosfet_regions() {
        let mut c = crate::Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let m = Mosfet::nmos("M1", d, g, s, 0.7, 2e-3);
        // Cut-off.
        let (id, gm, _) = m.op(1.0, 0.0, 0.0);
        assert!(id.abs() < 1e-9 && gm == 0.0);
        // Saturation: vgs=1.7, vds=2 > vov=1.
        let (id_sat, gm_sat, _) = m.op(2.0, 1.7, 0.0);
        assert!((id_sat - 0.5 * 2e-3).abs() < 1e-6);
        assert!((gm_sat - 2e-3).abs() < 1e-9);
        // Triode: vds=0.2 < vov=1.
        let (id_tri, _, gds_tri) = m.op(0.2, 1.7, 0.0);
        assert!(id_tri < id_sat);
        assert!(gds_tri > 0.0);
        // Symmetry: swapping drain/source flips the current sign.
        let (id_fwd, _, _) = m.op(0.2, 1.7, 0.0);
        let (id_rev, _, _) = m.op(0.0, 1.7, 0.2);
        assert!((id_fwd + id_rev).abs() < 1e-12);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let mut c = crate::Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let n = Mosfet::nmos("MN", d, g, s, 0.7, 1e-3);
        let p = Mosfet::pmos("MP", d, g, s, 0.7, 1e-3);
        let (idn, _, _) = n.op(2.0, 1.7, 0.0);
        let (idp, _, _) = p.op(-2.0, -1.7, 0.0);
        assert!((idn + idp).abs() < 1e-12);
    }
}
