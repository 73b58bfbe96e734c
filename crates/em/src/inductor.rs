//! Quasi-static spiral-inductor extraction on a lossy substrate (Fig 7):
//! partial self/mutual inductances of the trace segments, series
//! resistance with skin effect, oxide capacitance and substrate loss from
//! the MoM solver, assembled into a one-port model yielding `L(f)`,
//! `Q(f)` and `S₁₁(f)`.

use crate::geom::{spiral_panels, spiral_segments, Segment};
use crate::ies3::{CompressedMatrix, Ies3Options};
use crate::kernel::GreenFn;
use crate::mom::{capacitance_matrix, MomProblem};
use crate::{Result, EPS0, MU0};
use rfsim_numerics::krylov::{
    gmres_with, GmresWorkspace, JacobiPrecond, KrylovOptions, LinearOperator, RecycleSpace,
};
use rfsim_numerics::Complex;
use rfsim_telemetry as telemetry;
use std::sync::Mutex;

/// Relative permittivity of the silicon substrate under the oxide.
const EPS_SI: f64 = 11.9;

/// Geometry + material description of a planar spiral inductor.
#[derive(Debug, Clone, PartialEq)]
pub struct SpiralInductor {
    /// Outer dimension (m).
    pub outer: f64,
    /// Number of turns.
    pub turns: usize,
    /// Trace width (m).
    pub width: f64,
    /// Turn spacing (m).
    pub spacing: f64,
    /// Metal thickness (m).
    pub thickness: f64,
    /// Metal conductivity (S/m).
    pub sigma: f64,
    /// Oxide thickness to substrate (m).
    pub oxide: f64,
    /// Oxide relative permittivity.
    pub eps_ox: f64,
    /// Substrate resistivity (Ω·m) — the "lossy substrate" of Fig 7.
    /// Mid-1990s CMOS used heavily doped epi substrates (~0.01 Ω·cm =
    /// 1e-4 Ω·m); the default is slightly lighter doping so both the loss
    /// and the self-resonance are visible in the extracted curves.
    pub rho_sub: f64,
}

impl Default for SpiralInductor {
    fn default() -> Self {
        // A mid-1990s CMOS spiral: 3.5 turns, 200 µm outer, 10 µm wide.
        SpiralInductor {
            outer: 200e-6,
            turns: 4,
            width: 10e-6,
            spacing: 5e-6,
            thickness: 1e-6,
            sigma: 3.5e7,
            oxide: 1e-6,
            eps_ox: 3.9,
            rho_sub: 1e-3,
        }
    }
}

/// Extracted lumped model of the spiral (π-model values).
#[derive(Debug, Clone)]
pub struct SpiralModel {
    /// Series inductance (H).
    pub l_series: f64,
    /// DC series resistance (Ω).
    pub r_dc: f64,
    /// Skin-effect corner frequency (Hz).
    pub f_skin: f64,
    /// Oxide (trace-to-substrate) capacitance, per end (F).
    pub c_ox: f64,
    /// Substrate shunt resistance, per end (Ω).
    pub r_sub: f64,
    /// Number of segments used.
    pub segments: usize,
}

/// Self partial inductance of a straight rectangular-cross-section segment
/// (Rosa/Grover): `L = (μ₀l/2π)(ln(2l/(w+t)) + 0.5 + (w+t)/(3l))`.
pub fn self_inductance(seg: &Segment) -> f64 {
    let l = seg.length();
    let wt = seg.width + seg.thickness;
    MU0 * l / (2.0 * std::f64::consts::PI) * ((2.0 * l / wt).ln() + 0.5 + wt / (3.0 * l))
}

/// Mutual partial inductance between two segments by the Neumann double
/// integral with midpoint quadrature (`nq` points per segment).
pub fn mutual_inductance(a: &Segment, b: &Segment, nq: usize) -> f64 {
    let (la, lb) = (a.length(), b.length());
    let da = a.direction();
    let db = b.direction();
    let dot = da.x * db.x + da.y * db.y + da.z * db.z;
    if dot.abs() < 1e-12 {
        return 0.0; // perpendicular segments do not couple
    }
    let mut acc = 0.0;
    for i in 0..nq {
        let ta = (i as f64 + 0.5) / nq as f64;
        let pa = crate::geom::Point3::new(
            a.start.x + da.x * la * ta,
            a.start.y + da.y * la * ta,
            a.start.z + da.z * la * ta,
        );
        for j in 0..nq {
            let tb = (j as f64 + 0.5) / nq as f64;
            let pb = crate::geom::Point3::new(
                b.start.x + db.x * lb * tb,
                b.start.y + db.y * lb * tb,
                b.start.z + db.z * lb * tb,
            );
            // Regularize by the geometric mean distance of the traces.
            let r = pa.distance(&pb).max((a.width + b.width) / 4.0);
            acc += 1.0 / r;
        }
    }
    MU0 / (4.0 * std::f64::consts::PI) * dot * (la / nq as f64) * (lb / nq as f64) * acc
}

/// The half-space operator at one sweep point, composed from the two
/// frequency-independent compressed matrices of the decomposition
/// `A(k) = A_free − k·A_image`: sweeping the substrate image coefficient
/// `k(f)` costs two compressed matvecs per application and **zero**
/// re-assembly or re-compression.
struct HalfSpaceSweepOp<'a> {
    free: &'a CompressedMatrix,
    image: &'a CompressedMatrix,
    k: f64,
    /// Image-term buffer; `Mutex` because `apply` takes `&self`
    /// (uncontended — GMRES applies are sequential).
    scratch: Mutex<Vec<f64>>,
}

impl LinearOperator<f64> for HalfSpaceSweepOp<'_> {
    fn dim(&self) -> usize {
        self.free.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.free.matvec_into(x, y);
        let mut s = self.scratch.lock().expect("sweep scratch poisoned");
        s.resize(y.len(), 0.0);
        self.image.matvec_into(x, &mut s);
        for (yi, si) in y.iter_mut().zip(s.iter()) {
            *yi -= self.k * *si;
        }
    }
}

impl SpiralInductor {
    /// The trace segments of this spiral.
    pub fn segments(&self) -> Vec<Segment> {
        spiral_segments(
            self.outer,
            self.turns,
            self.width,
            self.spacing,
            self.thickness,
            self.oxide,
        )
    }

    /// Extracts the lumped model. `panels_per_seg` controls the MoM mesh
    /// for the substrate capacitance, `nq` the inductance quadrature —
    /// refining both is how the "measurement" reference of the Fig 7
    /// experiment is produced.
    ///
    /// # Errors
    /// Propagates MoM failures.
    pub fn extract(&self, panels_per_seg: usize, nq: usize) -> Result<SpiralModel> {
        let segs = self.segments();
        // Inductance: L = Σ self + Σ mutual (signed by direction dot).
        let mut l = 0.0;
        for (i, s) in segs.iter().enumerate() {
            l += self_inductance(s);
            for (j, t) in segs.iter().enumerate() {
                if i != j {
                    l += mutual_inductance(s, t, nq);
                }
            }
        }
        // Series resistance.
        let total_len: f64 = segs.iter().map(Segment::length).sum();
        let r_dc = total_len / (self.sigma * self.width * self.thickness);
        // Skin-effect corner: δ(f) = thickness ⇒ f_skin = 1/(πμσt²).
        let f_skin = 1.0 / (std::f64::consts::PI * MU0 * self.sigma * self.thickness.powi(2));
        // Substrate capacitance via MoM with the half-space image kernel.
        let panels = spiral_panels(&segs, panels_per_seg, 0);
        let green = GreenFn::GroundPlane { eps_r: self.eps_ox, z0: 0.0 };
        let problem = MomProblem::new(panels, green)?;
        let c_total = capacitance_matrix(&problem)?[(0, 0)];
        // Substrate spreading resistance under the coil footprint.
        let area: f64 = segs.iter().map(|s| s.length() * s.width).sum();
        let r_sub = self.rho_sub / area.sqrt();
        Ok(SpiralModel {
            l_series: l,
            r_dc,
            f_skin,
            c_ox: c_total / 2.0,
            r_sub,
            segments: segs.len(),
        })
    }

    /// Frequency-dependent substrate image coefficient `k(f)`. A lossy
    /// silicon substrate relaxes from conductor-like behavior (perfect
    /// image, `k → 1`) below its dielectric relaxation frequency
    /// `f_relax = 1/(2π·ρ_sub·ε_si)` to a plain dielectric image
    /// `k_∞ = (ε_si − ε_ox)/(ε_si + ε_ox)` well above it — this is what
    /// makes the substrate capacitance (and through it `L(f)`, `Q(f)`)
    /// genuinely frequency-dependent in the Fig 7 extraction.
    pub fn substrate_image_coefficient(&self, f: f64) -> f64 {
        // Counted so the sweep paths can prove k(f) is hoisted: exactly
        // one evaluation per solved frequency point, never one per
        // GMRES iteration (see the regression test in
        // `tests/adaptive_sweep.rs`).
        telemetry::counter_add("em.inductor.k_evals", 1);
        let k_inf = (EPS_SI - self.eps_ox) / (EPS_SI + self.eps_ox);
        let f_relax = 1.0 / (2.0 * std::f64::consts::PI * self.rho_sub * EPS_SI * EPS0);
        k_inf + (1.0 - k_inf) / (1.0 + (f / f_relax).powi(2))
    }

    /// Extracts the lumped model across a frequency sweep through the
    /// IES³ + Krylov-recycling fast path: the free-space and image-term
    /// compressed matrices build **once**, and every frequency point
    /// solves the substrate capacitance at its own image coefficient
    /// `k(f)` with a warm-started, subspace-recycled GMRES — previous
    /// points' solutions seed and deflate the next solve. Results match
    /// a cold per-point extraction to the solver tolerance; only the
    /// work is shared. Convenience wrapper over [`SweptExtractor`].
    ///
    /// # Errors
    /// Propagates geometry, compression, and GMRES failures.
    pub fn extract_swept(
        &self,
        panels_per_seg: usize,
        nq: usize,
        freqs: &[f64],
    ) -> Result<Vec<SpiralModel>> {
        let mut engine = SweptExtractor::new(self, panels_per_seg, nq)?;
        freqs.iter().map(|&f| engine.extract_at(f)).collect()
    }
}

/// The resident warm state of a swept extraction: the compressed
/// free-space and image-term IES³ operators (built once per geometry),
/// the self-term diagonals feeding each point's Jacobi preconditioner,
/// and the GMRES workspace / recycle space / previous solution that
/// warm-start every further frequency point.
///
/// [`SpiralInductor::extract_swept`] drives this for a fixed frequency
/// list; the type is public so a long-running caller (the `rfsim-serve`
/// daemon) can keep one extractor per geometry resident across requests
/// — a second request at the same or a nearby frequency reuses the
/// built operators and the recycled Krylov subspace instead of paying a
/// cold build. Every point still converges to the configured GMRES
/// tolerance, so warm answers agree with cold ones to that tolerance.
pub struct SweptExtractor {
    spiral: SpiralInductor,
    /// Frequency-independent model values, with `c_ox` left at the last
    /// solved point (overwritten per [`SweptExtractor::extract_at`]).
    base: SpiralModel,
    a_free: CompressedMatrix,
    a_image: CompressedMatrix,
    diag_free: Vec<f64>,
    diag_image: Vec<f64>,
    kopts: KrylovOptions,
    gws: GmresWorkspace<f64>,
    recycle: RecycleSpace<f64>,
    prev_q: Option<Vec<f64>>,
    points_solved: u64,
}

impl SweptExtractor {
    /// Builds the sweep state for `spiral` at the default 1e-9 GMRES
    /// tolerance (the [`SpiralInductor::extract_swept`] setting).
    ///
    /// # Errors
    /// Propagates geometry and compression failures.
    pub fn new(spiral: &SpiralInductor, panels_per_seg: usize, nq: usize) -> Result<Self> {
        Self::with_tolerance(spiral, panels_per_seg, nq, 1e-9)
    }

    /// [`SweptExtractor::new`] with an explicit GMRES relative tolerance.
    /// Tightening it tightens the warm-vs-cold agreement of the answers
    /// (the serve warm-cache tests run at 1e-12).
    ///
    /// # Errors
    /// Propagates geometry and compression failures.
    pub fn with_tolerance(
        spiral: &SpiralInductor,
        panels_per_seg: usize,
        nq: usize,
        tol: f64,
    ) -> Result<Self> {
        let _span = telemetry::span("em.inductor.sweep.build");
        let segs = spiral.segments();
        let mut l = 0.0;
        for (i, s) in segs.iter().enumerate() {
            l += self_inductance(s);
            for (j, t) in segs.iter().enumerate() {
                if i != j {
                    l += mutual_inductance(s, t, nq);
                }
            }
        }
        let total_len: f64 = segs.iter().map(Segment::length).sum();
        let r_dc = total_len / (spiral.sigma * spiral.width * spiral.thickness);
        let f_skin = 1.0 / (std::f64::consts::PI * MU0 * spiral.sigma * spiral.thickness.powi(2));
        let area: f64 = segs.iter().map(|s| s.length() * s.width).sum();
        let r_sub = spiral.rho_sub / area.sqrt();
        // Compress the two kernel halves once for the whole sweep.
        let panels = spiral_panels(&segs, panels_per_seg, 0);
        let problem = MomProblem::new(panels, GreenFn::FreeSpace { eps_r: spiral.eps_ox })?;
        let image_green = GreenFn::ImageOnly { eps_r: spiral.eps_ox, z0: 0.0 };
        let opts = Ies3Options::default();
        let a_free = CompressedMatrix::build(&problem.panels, &problem.green, &opts)?;
        let a_image = CompressedMatrix::build(&problem.panels, &image_green, &opts)?;
        let n = problem.len();
        // Self-term diagonals of both halves, combined per point into the
        // Jacobi preconditioner for that point's k.
        let diag_free: Vec<f64> = (0..n)
            .map(|i| problem.green.coefficient(&problem.panels[i], &problem.panels[i], i, i))
            .collect();
        let diag_image: Vec<f64> = (0..n)
            .map(|i| image_green.coefficient(&problem.panels[i], &problem.panels[i], i, i))
            .collect();
        Ok(SweptExtractor {
            spiral: spiral.clone(),
            base: SpiralModel { l_series: l, r_dc, f_skin, c_ox: 0.0, r_sub, segments: segs.len() },
            a_free,
            a_image,
            diag_free,
            diag_image,
            kopts: KrylovOptions { tol, ..Default::default() },
            gws: GmresWorkspace::new(),
            recycle: RecycleSpace::new(8),
            prev_q: None,
            points_solved: 0,
        })
    }

    /// Solves one frequency point, warm-started from every point solved
    /// before it (on this extractor, in any order).
    ///
    /// # Errors
    /// Propagates GMRES failures.
    pub fn extract_at(&mut self, f: f64) -> Result<SpiralModel> {
        let c_total = self.solve_c_total(f)?;
        Ok(self.model_from_c_total(c_total))
    }

    /// One true EM solve: the total substrate capacitance at `f`. The
    /// image coefficient `k(f)` is loop-invariant across the GMRES
    /// iterations of a point, so it is hoisted here — evaluated exactly
    /// once per frequency point and passed by value into the sweep
    /// operator, the Jacobi diagonal, and the recycle refresh. Every
    /// call is counted under `em.true_solves`; this is the quantity the
    /// adaptive sweep exists to minimize.
    ///
    /// # Errors
    /// Propagates GMRES failures.
    pub fn solve_c_total(&mut self, f: f64) -> Result<f64> {
        let _span = telemetry::span("em.inductor.sweep");
        telemetry::counter_add("em.true_solves", 1);
        let k = self.spiral.substrate_image_coefficient(f);
        let op = HalfSpaceSweepOp {
            free: &self.a_free,
            image: &self.a_image,
            k,
            scratch: Mutex::new(Vec::new()),
        };
        let diag: Vec<f64> =
            self.diag_free.iter().zip(&self.diag_image).map(|(d, m)| d - k * m).collect();
        let pc = JacobiPrecond::from_diagonal(&diag);
        // The operator moved with k: restore C = A·U before deflating.
        self.recycle.refresh(&op);
        let v = vec![1.0; self.a_free.len()]; // single conductor at 1 V
        let (q, _) = gmres_with(
            &op,
            &v,
            self.prev_q.as_deref(),
            &pc,
            &self.kopts,
            &mut self.gws,
            Some(&mut self.recycle),
        )?;
        let c_total: f64 = q.iter().sum();
        self.prev_q = Some(q);
        self.points_solved += 1;
        Ok(c_total)
    }

    /// Assembles the lumped model from a total substrate capacitance —
    /// every other model value is frequency-independent and shared. Both
    /// the true-solve path ([`SweptExtractor::extract_at`]) and the
    /// surrogate path (`AdaptiveSweep`, which gets `c_total` from the
    /// fitted model instead of a solve) go through here.
    pub fn model_from_c_total(&self, c_total: f64) -> SpiralModel {
        SpiralModel { c_ox: c_total / 2.0, ..self.base.clone() }
    }

    /// Number of panels in the MoM discretization.
    pub fn panels(&self) -> usize {
        self.a_free.len()
    }

    /// Whether a previous solution exists to warm-start the next point.
    pub fn is_warm(&self) -> bool {
        self.prev_q.is_some()
    }

    /// Frequency points solved on this extractor so far.
    pub fn points_solved(&self) -> u64 {
        self.points_solved
    }

    /// Approximate resident bytes: the two compressed operators plus the
    /// diagonals, recycle space, and previous solution. What an eviction
    /// would free — used by `rfsim-serve` for its cache budget.
    pub fn memory_bytes(&self) -> usize {
        let n = self.a_free.len();
        let vectors = 2 * n // diagonals
            + self.prev_q.as_ref().map_or(0, Vec::len)
            + 2 * self.recycle.dim() * n; // U and C blocks
        self.a_free.memory_bytes() + self.a_image.memory_bytes() + vectors * 8
    }
}

impl SpiralModel {
    /// Series impedance at `f`, with √f skin-effect resistance growth.
    pub fn z_series(&self, f: f64) -> Complex {
        let r = self.r_dc * (1.0 + (f / self.f_skin).sqrt());
        Complex::new(r, 2.0 * std::f64::consts::PI * f * self.l_series)
    }

    /// Shunt (one end) admittance at `f`: oxide C in series with
    /// substrate R.
    pub fn y_shunt(&self, f: f64) -> Complex {
        let w = 2.0 * std::f64::consts::PI * f;
        let zc = Complex::new(0.0, -1.0 / (w * self.c_ox));
        let z = zc + Complex::from_re(self.r_sub);
        z.recip()
    }

    /// One-port input impedance with the far end grounded.
    pub fn z_in(&self, f: f64) -> Complex {
        // Series branch in parallel with nothing at the near end except
        // its own shunt; far end grounded shorts the far shunt.
        let z_series = self.z_series(f);
        let y_near = self.y_shunt(f);
        // Zin = (1/Znear_shunt ∥ series) … series to ground directly:
        (y_near + z_series.recip()).recip()
    }

    /// Effective inductance `Im(Z_in)/ω` at `f` (what an impedance
    /// analyzer reports — this is the Fig 7 `L(f)` curve, which rises
    /// toward self-resonance then collapses).
    pub fn l_eff(&self, f: f64) -> f64 {
        self.z_in(f).im / (2.0 * std::f64::consts::PI * f)
    }

    /// Quality factor `Q = Im(Z_in)/Re(Z_in)`.
    pub fn q(&self, f: f64) -> f64 {
        let z = self.z_in(f);
        z.im / z.re
    }

    /// Self-resonant frequency estimate `1/(2π√(L·C_ox))`.
    pub fn self_resonance(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.l_series * self.c_ox).sqrt())
    }

    /// `S₁₁` in a `z0` system at `f`.
    pub fn s11(&self, f: f64, z0: f64) -> Complex {
        let z = self.z_in(f);
        (z - Complex::from_re(z0)) / (z + Complex::from_re(z0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_inductance_scales_with_length() {
        let mk = |l: f64| Segment {
            start: crate::geom::Point3::new(0.0, 0.0, 0.0),
            end: crate::geom::Point3::new(l, 0.0, 0.0),
            width: 10e-6,
            thickness: 1e-6,
        };
        let l1 = self_inductance(&mk(100e-6));
        let l2 = self_inductance(&mk(200e-6));
        // Slightly superlinear (log term).
        assert!(l2 > 2.0 * l1 && l2 < 3.0 * l1, "{l1} {l2}");
    }

    #[test]
    fn mutual_sign_and_orthogonality() {
        let a = Segment {
            start: crate::geom::Point3::new(0.0, 0.0, 0.0),
            end: crate::geom::Point3::new(100e-6, 0.0, 0.0),
            width: 10e-6,
            thickness: 1e-6,
        };
        // Parallel, same direction: positive coupling.
        let b = Segment {
            start: crate::geom::Point3::new(0.0, 20e-6, 0.0),
            end: crate::geom::Point3::new(100e-6, 20e-6, 0.0),
            ..a
        };
        assert!(mutual_inductance(&a, &b, 16) > 0.0);
        // Anti-parallel: negative.
        let c = Segment { start: b.end, end: b.start, ..b };
        assert!(mutual_inductance(&a, &c, 16) < 0.0);
        // Perpendicular: zero.
        let d = Segment {
            start: crate::geom::Point3::new(0.0, 0.0, 0.0),
            end: crate::geom::Point3::new(0.0, 100e-6, 0.0),
            ..a
        };
        assert_eq!(mutual_inductance(&a, &d, 16), 0.0);
    }

    #[test]
    fn image_coefficient_relaxes_from_ground_to_dielectric() {
        let sp = SpiralInductor::default();
        let k_inf = (11.9 - sp.eps_ox) / (11.9 + sp.eps_ox);
        let lo = sp.substrate_image_coefficient(1.0);
        let hi = sp.substrate_image_coefficient(1e15);
        assert!((lo - 1.0).abs() < 1e-6, "conductor-like at DC: {lo}");
        assert!((hi - k_inf).abs() < 1e-3, "dielectric image at high f: {hi} vs {k_inf}");
        // Monotone decrease in between.
        let mid1 = sp.substrate_image_coefficient(1e9);
        let mid2 = sp.substrate_image_coefficient(5e9);
        assert!(lo >= mid1 && mid1 >= mid2 && mid2 >= hi);
    }

    #[test]
    fn swept_extraction_matches_cold_per_point() {
        use crate::ies3::{CompressedMatrix, Ies3Options};
        use rfsim_numerics::krylov::KrylovOptions;
        let sp = SpiralInductor::default();
        let freqs = [0.5e9, 2e9, 8e9];
        let swept = sp.extract_swept(2, 6, &freqs).unwrap();
        // Cold reference: rebuild the half-space compressed matrix and
        // solve from scratch at every point.
        let segs = sp.segments();
        let panels = crate::geom::spiral_panels(&segs, 2, 0);
        for (&f, model) in freqs.iter().zip(&swept) {
            let k = sp.substrate_image_coefficient(f);
            let green = GreenFn::HalfSpace { eps_r: sp.eps_ox, z0: 0.0, k };
            let p = MomProblem::new(panels.clone(), green).unwrap();
            let cm = CompressedMatrix::build(&p.panels, &p.green, &Ies3Options::default()).unwrap();
            let (q, _) = p
                .solve_iterative(&cm, &[1.0], &KrylovOptions { tol: 1e-9, ..Default::default() })
                .unwrap();
            let c_cold: f64 = q.iter().sum::<f64>() / 2.0;
            assert!(
                (model.c_ox - c_cold).abs() < 1e-4 * c_cold.abs(),
                "f = {f}: warm {} vs cold {c_cold}",
                model.c_ox
            );
        }
        // The substrate relaxation must make C_ox fall with frequency.
        assert!(swept[0].c_ox > swept[2].c_ox);
    }

    #[test]
    fn extracted_model_plausible_nh_range() {
        let sp = SpiralInductor::default();
        let model = sp.extract(2, 6).unwrap();
        // A 200 µm 3–4 turn spiral is a few nH.
        assert!(model.l_series > 0.5e-9 && model.l_series < 20e-9, "L = {:.3e}", model.l_series);
        assert!(model.r_dc > 0.1 && model.r_dc < 100.0, "R = {}", model.r_dc);
        assert!(model.c_ox > 1e-15 && model.c_ox < 1e-11, "C = {:.3e}", model.c_ox);
    }

    #[test]
    fn l_eff_rises_to_self_resonance_then_collapses() {
        let sp = SpiralInductor::default();
        let model = sp.extract(2, 6).unwrap();
        let fsr = model.self_resonance();
        let l_low = model.l_eff(fsr / 100.0);
        let l_mid = model.l_eff(fsr / 2.0);
        let l_high = model.l_eff(fsr * 2.0);
        assert!((l_low - model.l_series).abs() / model.l_series < 0.2);
        assert!(l_mid > l_low, "L rises toward resonance: {l_mid} > {l_low}");
        assert!(l_high < 0.0, "above SRF the reactance is capacitive: {l_high}");
    }

    #[test]
    fn q_peaks_midband() {
        let sp = SpiralInductor::default();
        let model = sp.extract(2, 6).unwrap();
        let fsr = model.self_resonance();
        let q_low = model.q(fsr / 1000.0);
        let q_mid = model.q(fsr / 4.0);
        assert!(q_mid > q_low, "Q rises with f initially: {q_mid} > {q_low}");
        // Near resonance Q collapses through 0.
        assert!(model.q(fsr * 1.5) < 0.0);
    }

    #[test]
    fn s11_passive_magnitude() {
        let sp = SpiralInductor::default();
        let model = sp.extract(2, 6).unwrap();
        for f in [1e8, 1e9, 5e9] {
            let s = model.s11(f, 50.0);
            assert!(s.abs() <= 1.0 + 1e-9, "|S11| = {} at {f}", s.abs());
        }
    }
}
