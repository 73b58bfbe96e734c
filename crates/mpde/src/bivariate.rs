//! Bivariate waveform storage: the `x̂(t₁, t₂)` representation of Figs 2–3.
//!
//! A quasi-periodic signal with widely separated time scales is expensive
//! to sample univariately — `O(T₁/T₂)` fast periods must be resolved before
//! the waveform repeats — but cheap bivariately: the sample count
//! `N₁ × N₂` "does not depend on the separation of the two time scales".
//! [`BivariateWaveform::samples_univariate_equivalent`] quantifies exactly
//! that comparison for the E4 experiment.

use rfsim_numerics::interp::bilinear_periodic;

/// A biperiodic sampled waveform `x̂(t₁, t₂)` for `n` unknowns on an
/// `n1 × n2` grid (row-major over `t₁` then `t₂`).
#[derive(Debug, Clone, PartialEq)]
pub struct BivariateWaveform {
    /// Slow period `T₁` (s).
    pub t1_period: f64,
    /// Fast period `T₂` (s).
    pub t2_period: f64,
    /// Samples along `t₁`.
    pub n1: usize,
    /// Samples along `t₂`.
    pub n2: usize,
    /// Unknowns per grid point.
    pub n: usize,
    /// Sample data: `data[(i1·n2 + i2)·n + k]`.
    pub data: Vec<f64>,
}

impl BivariateWaveform {
    /// Allocates a zero waveform.
    ///
    /// # Panics
    /// Panics on zero sizes or non-positive periods.
    pub fn zeros(t1_period: f64, t2_period: f64, n1: usize, n2: usize, n: usize) -> Self {
        assert!(t1_period > 0.0 && t2_period > 0.0, "periods must be positive");
        assert!(n1 > 0 && n2 > 0 && n > 0, "sizes must be nonzero");
        BivariateWaveform { t1_period, t2_period, n1, n2, n, data: vec![0.0; n1 * n2 * n] }
    }

    /// Builds by sampling a bivariate function `f(t1, t2) -> value` for a
    /// single unknown (`n = 1`).
    pub fn from_fn(
        t1_period: f64,
        t2_period: f64,
        n1: usize,
        n2: usize,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Self {
        let mut w = Self::zeros(t1_period, t2_period, n1, n2, 1);
        for i1 in 0..n1 {
            for i2 in 0..n2 {
                let t1 = i1 as f64 * t1_period / n1 as f64;
                let t2 = i2 as f64 * t2_period / n2 as f64;
                w.data[i1 * n2 + i2] = f(t1, t2);
            }
        }
        w
    }

    /// Grid value of unknown `k` at indices `(i1, i2)`.
    pub fn at(&self, i1: usize, i2: usize, k: usize) -> f64 {
        self.data[(i1 * self.n2 + i2) * self.n + k]
    }

    /// Evaluates unknown `k` at arbitrary `(t1, t2)` with biperiodic
    /// bilinear interpolation.
    pub fn eval(&self, t1: f64, t2: f64, k: usize) -> f64 {
        // Extract unknown k's scalar grid lazily (cheap for small grids;
        // for hot loops use `eval_diagonal_series`).
        let grid: Vec<f64> = (0..self.n1 * self.n2).map(|s| self.data[s * self.n + k]).collect();
        bilinear_periodic(&grid, self.n1, self.n2, t1 / self.t1_period, t2 / self.t2_period)
    }

    /// The univariate waveform `x(t) = x̂(t, t)` of unknown `k`, sampled at
    /// `m` uniform points over `[0, t_end]`.
    pub fn eval_diagonal_series(&self, k: usize, t_end: f64, m: usize) -> Vec<f64> {
        let grid: Vec<f64> = (0..self.n1 * self.n2).map(|s| self.data[s * self.n + k]).collect();
        (0..m)
            .map(|j| {
                let t = t_end * j as f64 / m as f64;
                bilinear_periodic(&grid, self.n1, self.n2, t / self.t1_period, t / self.t2_period)
            })
            .collect()
    }

    /// Number of stored samples (`n1·n2`, per unknown).
    pub fn samples(&self) -> usize {
        self.n1 * self.n2
    }

    /// Number of samples a univariate representation would need at the same
    /// per-period resolution: `n2` samples per fast period over the
    /// `T₁/T₂` fast periods contained in one slow period.
    ///
    /// This is the Figs 2–3 comparison: the ratio
    /// `samples_univariate_equivalent() / samples()` is the time-scale
    /// separation `T₁/(T₂·n1)` — it grows without bound while the bivariate
    /// cost stays fixed.
    pub fn samples_univariate_equivalent(&self) -> f64 {
        (self.t1_period / self.t2_period) * self.n2 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(t: f64) -> f64 {
        // Smooth periodic pulse on [0,1): raised-cosine edges, duty ~30%.
        let x = t.rem_euclid(1.0);
        if x < 0.3 {
            0.5 * (1.0 - (2.0 * std::f64::consts::PI * x / 0.3).cos())
        } else {
            0.0
        }
    }

    #[test]
    fn reconstructs_quasi_periodic_signal() {
        // y(t) = sin(2πt)·pulse(t/T2) with T2 = 1/50 (scaled, like Fig 2).
        let t2 = 1.0 / 50.0;
        let w = BivariateWaveform::from_fn(1.0, t2, 32, 64, |a, b| {
            (2.0 * std::f64::consts::PI * a).sin() * pulse(b / t2)
        });
        // Compare x̂(t,t) against y(t) at off-grid times.
        let m = 997;
        let series = w.eval_diagonal_series(0, 1.0, m);
        let mut max_err = 0.0f64;
        for (j, v) in series.iter().enumerate() {
            let t = j as f64 / m as f64;
            let exact = (2.0 * std::f64::consts::PI * t).sin() * pulse(t / t2);
            max_err = max_err.max((v - exact).abs());
        }
        assert!(max_err < 0.05, "max_err = {max_err}");
    }

    #[test]
    fn sample_count_independent_of_separation() {
        // The punchline of Figs 2–3.
        let close = BivariateWaveform::zeros(1.0, 1e-2, 32, 64, 1);
        let far = BivariateWaveform::zeros(1.0, 1e-9, 32, 64, 1);
        assert_eq!(close.samples(), far.samples());
        assert!(far.samples_univariate_equivalent() > 1e10);
        assert!(close.samples_univariate_equivalent() < 1e4);
    }

    #[test]
    fn grid_accessors() {
        let mut w = BivariateWaveform::zeros(1.0, 0.1, 2, 3, 2);
        w.data[(3 + 2) * 2 + 1] = 7.0;
        assert_eq!(w.at(1, 2, 1), 7.0);
        assert_eq!(w.at(0, 0, 0), 0.0);
        assert_eq!(w.samples(), 6);
    }

    #[test]
    fn eval_periodic_wrap() {
        let w = BivariateWaveform::from_fn(2.0, 0.5, 8, 8, |a, b| a + 10.0 * b);
        // One full period shift in each argument returns the same value.
        let v0 = w.eval(0.3, 0.1, 0);
        let v1 = w.eval(0.3 + 2.0, 0.1 + 0.5, 0);
        assert!((v0 - v1).abs() < 1e-12);
    }
}
