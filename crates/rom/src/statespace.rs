//! Descriptor-form linear systems `(G + sC)·x = b·u`, `y = lᵀx`, their
//! transfer functions and moments, plus generators for the benchmark
//! interconnect structures (RC lines, RLC ladders, coupled buses).

use crate::{Error, Result};
use rfsim_numerics::dense::Mat;
use rfsim_numerics::sparse::{Csr, Triplets};
use rfsim_numerics::Complex;

/// Anything that evaluates a (scalar) transfer function.
pub trait TransferFunction {
    /// Evaluates `H(s)` at a complex frequency.
    fn eval(&self, s: Complex) -> Complex;

    /// Magnitude response over a frequency grid (Hz).
    fn gain(&self, freqs: &[f64]) -> Vec<f64> {
        freqs
            .iter()
            .map(|&f| self.eval(Complex::new(0.0, 2.0 * std::f64::consts::PI * f)).abs())
            .collect()
    }
}

/// A sparse descriptor system: `(G + s·C)x = b`, `y = lᵀx`.
#[derive(Debug, Clone)]
pub struct DescriptorSystem {
    /// Conductance-like matrix.
    pub g: Csr<f64>,
    /// Capacitance-like matrix.
    pub c: Csr<f64>,
    /// Input vector.
    pub b: Vec<f64>,
    /// Output vector.
    pub l: Vec<f64>,
}

impl DescriptorSystem {
    /// System order.
    pub fn order(&self) -> usize {
        self.g.rows()
    }

    /// Krylov ingredients at expansion point `s0`:
    /// `A = −(G + s0·C)⁻¹·C`, `r = (G + s0·C)⁻¹·b` — returned as the
    /// factored matrix plus `r` so callers apply `A` matrix-free. The same
    /// factors apply `Aᵀ` (for two-sided Lanczos).
    ///
    /// # Errors
    /// Propagates factorization failures.
    pub fn krylov_setup(&self, s0: f64) -> Result<(KrylovOps<'_>, Vec<f64>)> {
        let shifted = self.g.add_scaled(1.0, &self.c, s0);
        let lu = shifted.lu()?;
        let r = lu.solve(&self.b)?;
        Ok((KrylovOps { lu, c: &self.c }, r))
    }

    /// Moments `m_j = lᵀ·Aʲ·r` for `j = 0..count` about `s0`.
    ///
    /// # Errors
    /// Propagates factorization failures.
    pub fn moments(&self, s0: f64, count: usize) -> Result<Vec<f64>> {
        let (ops, r) = self.krylov_setup(s0)?;
        let mut v = r;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.l.iter().zip(&v).map(|(a, b)| a * b).sum());
            v = ops.apply(&v)?;
        }
        Ok(out)
    }
}

/// The matrix-free operator `A·v = −(G + s0·C)⁻¹·(C·v)` and its transpose.
pub struct KrylovOps<'a> {
    lu: rfsim_numerics::sparse::SparseLu<f64>,
    c: &'a Csr<f64>,
}

impl KrylovOps<'_> {
    /// Applies the operator.
    ///
    /// # Errors
    /// Propagates solve failures.
    pub fn apply(&self, v: &[f64]) -> Result<Vec<f64>> {
        let cv = self.c.matvec(v);
        let mut x = self.lu.solve(&cv)?;
        for e in &mut x {
            *e = -*e;
        }
        Ok(x)
    }

    /// Applies the transpose: `Aᵀ·w = −Cᵀ·(G + s0·C)⁻ᵀ·w`.
    ///
    /// # Errors
    /// Propagates solve failures.
    pub fn apply_transposed(&self, w: &[f64]) -> Result<Vec<f64>> {
        let z = self.lu.solve_transposed(w)?;
        let mut out = self.c.matvec_transposed(&z);
        for e in &mut out {
            *e = -*e;
        }
        Ok(out)
    }
}

impl TransferFunction for DescriptorSystem {
    fn eval(&self, s: Complex) -> Complex {
        let n = self.order();
        let mut t = Triplets::new(n, n);
        for (i, j, v) in self.g.iter() {
            t.push(i, j, Complex::from_re(v));
        }
        for (i, j, v) in self.c.iter() {
            t.push(i, j, s * v);
        }
        let a = t.to_csr();
        let b: Vec<Complex> = self.b.iter().map(|&v| Complex::from_re(v)).collect();
        match a.solve(&b) {
            Ok(x) => self.l.iter().zip(&x).map(|(&li, &xi)| xi.scale(li)).sum(),
            Err(_) => Complex::from_re(f64::NAN),
        }
    }
}

/// A projection-form reduced model about `s0`:
/// `H(s0 + σ) ≈ l_rᵀ·(I − σ·A_r)⁻¹·r_r`.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Reduced operator (q × q).
    pub a_r: Mat<f64>,
    /// Reduced input.
    pub r_r: Vec<f64>,
    /// Reduced output.
    pub l_r: Vec<f64>,
    /// Expansion point.
    pub s0: f64,
}

impl ReducedModel {
    /// Reduced order.
    pub fn order(&self) -> usize {
        self.a_r.rows()
    }

    /// Moments `m_j = l_rᵀ·A_rʲ·r_r` of the reduced model.
    pub fn moments(&self, count: usize) -> Vec<f64> {
        let mut v = self.r_r.clone();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.l_r.iter().zip(&v).map(|(a, b)| a * b).sum());
            v = self.a_r.matvec(&v);
        }
        out
    }

    /// Poles in the `s` plane: `s = s0 + 1/λ` for eigenvalues `λ` of
    /// `A_r` (λ = 0 maps to infinity and is skipped).
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn poles(&self) -> Result<Vec<Complex>> {
        let eigs = rfsim_numerics::eig::eigenvalues(&self.a_r)?;
        Ok(eigs
            .into_iter()
            .filter(|z| z.abs() > 1e-14)
            .map(|z| Complex::from_re(self.s0) + z.recip())
            .collect())
    }
}

impl TransferFunction for ReducedModel {
    fn eval(&self, s: Complex) -> Complex {
        let sigma = s - Complex::from_re(self.s0);
        let q = self.order();
        let m = Mat::from_fn(q, q, |i, j| {
            let a = Complex::from_re(self.a_r[(i, j)]) * (-sigma);
            if i == j {
                Complex::ONE + a
            } else {
                a
            }
        });
        let rhs: Vec<Complex> = self.r_r.iter().map(|&v| Complex::from_re(v)).collect();
        match m.solve(&rhs) {
            Ok(x) => self.l_r.iter().zip(&x).map(|(&li, &xi)| xi.scale(li)).sum(),
            Err(_) => Complex::from_re(f64::NAN),
        }
    }
}

/// A pole/residue model `H(s0 + σ) = Σ k_i/(1 − σ·λ_i) + d`.
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    /// Reciprocal-pole locations λ (σ-plane poles at 1/λ).
    pub lambdas: Vec<Complex>,
    /// Residues.
    pub residues: Vec<Complex>,
    /// Direct (constant) term.
    pub direct: f64,
    /// Expansion point.
    pub s0: f64,
}

impl PoleResidueModel {
    /// Poles in the `s` plane.
    pub fn poles(&self) -> Vec<Complex> {
        self.lambdas
            .iter()
            .filter(|z| z.abs() > 1e-14)
            .map(|z| Complex::from_re(self.s0) + z.recip())
            .collect()
    }
}

impl TransferFunction for PoleResidueModel {
    fn eval(&self, s: Complex) -> Complex {
        let sigma = s - Complex::from_re(self.s0);
        let mut acc = Complex::from_re(self.direct);
        for (l, k) in self.lambdas.iter().zip(&self.residues) {
            acc += *k / (Complex::ONE - sigma * *l);
        }
        acc
    }
}

/// Builds a uniform RC transmission line of `n` nodes: series `r_per`
/// between nodes, shunt `c_per` at each node; input current source at node
/// 0, output voltage at the last node.
pub fn rc_line(n: usize, r_per: f64, c_per: f64) -> DescriptorSystem {
    let mut g = Triplets::new(n, n);
    let mut c = Triplets::new(n, n);
    let gs = 1.0 / r_per;
    for i in 0..n {
        c.push(i, i, c_per);
        if i + 1 < n {
            g.push(i, i, gs);
            g.push(i + 1, i + 1, gs);
            g.push(i, i + 1, -gs);
            g.push(i + 1, i, -gs);
        }
    }
    // Grounding resistor at the input so G is nonsingular at DC.
    g.push(0, 0, gs);
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    let mut l = vec![0.0; n];
    l[n - 1] = 1.0;
    DescriptorSystem { g: g.to_csr(), c: c.to_csr(), b, l }
}

/// Builds an RLC ladder in MNA form (`n` LC sections, node voltages then
/// inductor currents): series L and R between nodes, shunt C at each node.
/// Input current at node 0, output voltage at the last node.
pub fn rlc_ladder(sections: usize, r: f64, l_val: f64, c_val: f64) -> DescriptorSystem {
    let nn = sections + 1; // node voltages
    let n = nn + sections; // plus inductor currents
    let mut g = Triplets::new(n, n);
    let mut c = Triplets::new(n, n);
    for i in 0..nn {
        c.push(i, i, c_val);
    }
    // Input termination keeps DC nonsingular.
    g.push(0, 0, 1.0 / r.max(1e-3));
    for k in 0..sections {
        let br = nn + k;
        let (a, b2) = (k, k + 1);
        // KCL: branch current leaves a, enters b.
        g.push(a, br, 1.0);
        g.push(b2, br, -1.0);
        // Branch: L·di/dt + R·i + v_b − v_a = 0.
        c.push(br, br, l_val);
        g.push(br, br, r);
        g.push(br, b2, 1.0);
        g.push(br, a, -1.0);
    }
    let mut b = vec![0.0; n];
    b[0] = 1.0;
    let mut l = vec![0.0; n];
    l[nn - 1] = 1.0;
    DescriptorSystem { g: g.to_csr(), c: c.to_csr(), b, l }
}

/// Relative error of a reduced model against the full system over a
/// frequency grid: `max |H_r − H| / max |H|`.
pub fn relative_error(
    full: &dyn TransferFunction,
    reduced: &dyn TransferFunction,
    freqs: &[f64],
) -> f64 {
    let mut scale = 0.0f64;
    let mut err = 0.0f64;
    for &f in freqs {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        let hf = full.eval(s);
        let hr = reduced.eval(s);
        scale = scale.max(hf.abs());
        err = err.max((hf - hr).abs());
    }
    if scale == 0.0 {
        err
    } else {
        err / scale
    }
}

/// Logarithmic frequency grid helper re-exported for benches.
pub fn log_freqs(f_lo: f64, f_hi: f64, points: usize) -> Vec<f64> {
    let l0 = f_lo.ln();
    let l1 = f_hi.ln();
    (0..points).map(|i| (l0 + (l1 - l0) * i as f64 / (points - 1).max(1) as f64).exp()).collect()
}

/// Validates a requested reduction order.
pub(crate) fn check_order(q: usize, n: usize) -> Result<()> {
    if q == 0 {
        return Err(Error::InvalidSetup("reduction order must be nonzero".into()));
    }
    if q > n {
        return Err(Error::InvalidSetup(format!("order {q} exceeds system dimension {n}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_line_dc_gain() {
        // At DC: input 1 A into the grounding resistor network: voltage at
        // far end = voltage everywhere = I·R_ground = r_per (no shunt
        // path elsewhere).
        let sys = rc_line(20, 10.0, 1e-12);
        let h0 = sys.eval(Complex::ZERO);
        assert!((h0.re - 10.0).abs() < 1e-9, "H(0) = {h0}");
        assert!(h0.im.abs() < 1e-12);
    }

    #[test]
    fn rc_line_lowpass_rolloff() {
        let sys = rc_line(30, 100.0, 1e-12);
        let g = sys.gain(&[1e3, 1e9, 1e11]);
        assert!(g[0] > g[1] && g[1] > g[2], "{g:?}");
    }

    #[test]
    fn moments_match_taylor_of_transfer() {
        // Verify m₀, m₁ against finite differences of H(s) at s0 = 0.
        let sys = rc_line(12, 50.0, 2e-12);
        let m = sys.moments(0.0, 3).unwrap();
        let h0 = sys.eval(Complex::ZERO).re;
        assert!((m[0] - h0).abs() < 1e-9);
        let ds = 1e3;
        let hp = sys.eval(Complex::from_re(ds)).re;
        let hm = sys.eval(Complex::from_re(-ds)).re;
        let d1 = (hp - hm) / (2.0 * ds);
        assert!((m[1] - d1).abs() / d1.abs() < 1e-4, "m1 {} vs fd {}", m[1], d1);
    }

    #[test]
    fn rlc_ladder_resonates() {
        let sys = rlc_ladder(3, 1.0, 1e-9, 1e-12);
        // Around the section resonance there should be a gain peak
        // relative to far above it.
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-9f64 * 1e-12).sqrt());
        let g = sys.gain(&[f0 / 10.0, f0 * 10.0]);
        assert!(g[0] > g[1]);
    }

    #[test]
    fn reduced_model_eval_and_moments() {
        // Hand-built 1st-order reduced model: H(σ) = 2/(1 − σ·(−3)).
        let rm = ReducedModel {
            a_r: Mat::from_rows(&[&[-3.0]]),
            r_r: vec![2.0],
            l_r: vec![1.0],
            s0: 0.0,
        };
        let m = rm.moments(3);
        assert_eq!(m, vec![2.0, -6.0, 18.0]);
        let h = rm.eval(Complex::from_re(1.0));
        assert!((h.re - 0.5).abs() < 1e-12);
        let poles = rm.poles().unwrap();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn order_validation() {
        assert!(check_order(0, 10).is_err());
        assert!(check_order(11, 10).is_err());
        assert!(check_order(5, 10).is_ok());
    }
}
