//! `fd_extract`: finite-difference Laplace capacitance of a two-plate
//! layout — Table 1's sparse differential class (paper §4). Nearly all of
//! an op is one sparse LU of the 7-point Laplacian; plates move per op,
//! so the pattern changes while the unknown count stays fixed.

use crate::layers::{span, Samples};
use crate::library::Workload;
use crate::rng::Rng;
use rfsim_em::fd::{FdConductor, FdProblem, FdSolution};
use rfsim_em::EPS0;
use rfsim_telemetry as telemetry;

/// Cells per axis: 1,000 unknowns.
pub const GRID: usize = 10;
/// Grid spacing (m).
const H: f64 = 1e-5;
/// Plate side, in cells.
const PLATE: usize = 6;
/// Plate separation, in cells.
const GAP: usize = 3;
/// Distinct drawn layouts; ops cycle through them.
const INPUTS: usize = 64;
/// Relative residual `‖Aφ − b‖∞ / ‖b‖∞` a direct solve must meet.
const RESIDUAL_TOL: f64 = 1e-10;
/// Band of `C / (εA/d)` a two-plate layout must fall in. Fringing and
/// the grounded box only add to the parallel-plate value; on this grid
/// every layout lands between 3.1× and 3.4×, so a capacitance outside
/// 2×–5× is a wrong answer, not a different layout.
const C_BAND: (f64, f64) = (2.0, 5.0);

/// One drawn layout: the problem and its excitation (plate 0 at 1 V,
/// plate 1 grounded).
#[derive(Debug, Clone)]
pub struct Layout {
    /// The FD problem.
    pub problem: FdProblem,
}

impl Layout {
    fn volts() -> [f64; 2] {
        [1.0, 0.0]
    }

    /// The right-hand side `FdProblem::solve` builds: conductor cells at
    /// their potential, all others 0.
    fn rhs(&self) -> Vec<f64> {
        let p = &self.problem;
        let mut b = vec![0.0; p.nx * p.ny * p.nz];
        for (c, v) in p.conductors.iter().zip(Self::volts()) {
            for i in c.x.0..c.x.1 {
                for j in c.y.0..c.y.1 {
                    for k in c.z.0..c.z.1 {
                        b[(i * p.ny + j) * p.nz + k] = v;
                    }
                }
            }
        }
        b
    }

    /// The ideal parallel-plate capacitance `εA/d`.
    fn ideal_c(&self) -> f64 {
        let side = PLATE as f64 * H;
        EPS0 * self.problem.eps_r * side * side / (GAP as f64 * H)
    }
}

/// What one op returns.
pub struct FdOutput {
    /// The FD solve, including its assembled matrix.
    pub sol: FdSolution,
    /// Extracted capacitance of plate 0 (F).
    pub c: f64,
}

/// The workload: the drawn layouts.
pub struct FdExtract {
    inputs: Vec<Layout>,
    /// Alternates the probe's order from op to op.
    flip: std::cell::Cell<bool>,
}

impl Workload for FdExtract {
    type Input = Layout;
    type Output = FdOutput;
    const LAYER_SPANS: &'static [&'static str] = &[span::EM_FD_SOLVE, span::EM_FD_ENERGY];
    /// A sparse LU, whose indexed loads slow a little more than dense
    /// loops do.
    const PACE_READ_PASSES: usize = 1;

    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0);
        let inputs = (0..INPUTS)
            .map(|_| {
                // Keep one free cell between every plate and the box.
                let x0 = 1 + rng.below(GRID - PLATE - 1);
                let y0 = 1 + rng.below(GRID - PLATE - 1);
                let z0 = 1 + rng.below(GRID - GAP - 2);
                let plate =
                    |z| FdConductor { x: (x0, x0 + PLATE), y: (y0, y0 + PLATE), z: (z, z + 1) };
                Layout {
                    problem: FdProblem {
                        nx: GRID,
                        ny: GRID,
                        nz: GRID,
                        h: H,
                        eps_r: rng.range(1.0, 4.0),
                        conductors: vec![plate(z0), plate(z0 + GAP)],
                    },
                }
            })
            .collect();
        FdExtract { inputs, flip: std::cell::Cell::new(false) }
    }

    fn input(&self, i: usize) -> &Layout {
        &self.inputs[i % self.inputs.len()]
    }

    fn run(&self, input: &Layout) -> Result<FdOutput, String> {
        let sol = {
            let _s = telemetry::span(span::EM_FD_SOLVE);
            input.problem.solve(&Layout::volts()).map_err(|e| e.to_string())?
        };
        let energy = {
            let _s = telemetry::span(span::EM_FD_ENERGY);
            input.problem.field_energy(&sol.phi)
        };
        Ok(FdOutput { sol, c: 2.0 * energy })
    }

    fn check(&self, input: &Layout, out: &FdOutput) -> Result<(), String> {
        check_solution(input, &out.sol.phi, &out.sol, out.c)
    }

    fn probe(
        &self,
        input: &Layout,
        out: &FdOutput,
        exact: bool,
        s: &mut Samples,
    ) -> Result<(), String> {
        // The FD solve again, then its factorization and sparse solve
        // alone; alternating which goes first cancels any order effect
        // in the assembly estimate (their difference).
        let b = input.rhs();
        let a = &out.sol.matrix;
        let rerun_solve = || -> Result<(), String> {
            let _s = telemetry::span(span::EM_FD_SOLVE_PROBE);
            input.problem.solve(&Layout::volts()).map_err(|e| e.to_string()).map(drop)
        };
        self.flip.set(!self.flip.get());
        if self.flip.get() {
            rerun_solve()?;
        }
        let lu = {
            let _s = telemetry::span(span::SPARSE_LU);
            a.lu().map_err(|e| e.to_string())?
        };
        {
            let _s = telemetry::span(span::SPARSE_SOLVE);
            lu.solve(&b).map_err(|e| e.to_string())?;
        }
        if !self.flip.get() {
            rerun_solve()?;
        }
        if exact {
            s.push("numerics.sparse.fill_ratio", lu.factor_nnz() as f64 / a.nnz() as f64);
        }
        Ok(())
    }
}

/// The residual of `phi` in the returned system, and `c` against the
/// parallel-plate band.
fn check_solution(input: &Layout, phi: &[f64], sol: &FdSolution, c: f64) -> Result<(), String> {
    let b = input.rhs();
    let r = sol.matrix.matvec(phi);
    let res = r.iter().zip(&b).map(|(ri, bi)| (ri - bi).abs()).fold(0.0, f64::max);
    if res.is_nan() || res > RESIDUAL_TOL {
        return Err(format!("FD residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}"));
    }
    let ratio = c / input.ideal_c();
    if !(C_BAND.0..=C_BAND.1).contains(&ratio) {
        return Err(format!("C = {c:.4e} F is {ratio:.3}× εA/d, outside {C_BAND:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_potential_fails_the_check() {
        let _g = crate::selftest::lock();
        let w = FdExtract::new(3);
        let input = w.input(0);
        let out = w.run(input).unwrap();
        assert!(check_solution(input, &out.sol.phi, &out.sol, out.c).is_ok());
        let mut phi = out.sol.phi.clone();
        phi[GRID * GRID * GRID / 2] += 1e-3;
        assert!(check_solution(input, &phi, &out.sol, out.c).is_err());
        assert!(check_solution(input, &out.sol.phi, &out.sol, 0.5 * input.ideal_c()).is_err());
    }
}
