//! Finite-difference Laplace solver: the differential-equation class of
//! Table 1 — sparse matrix, **volume** discretization, poorer conditioning.
//!
//! A uniform 3-D grid discretizes the Laplacian with the 7-point stencil;
//! conductor cells carry Dirichlet potentials and the outer boundary is
//! grounded (truncated open domain). Capacitance is extracted from the
//! field energy: `C = 2·W` for a 1 V excitation.

use crate::{Error, Result};
use rfsim_numerics::sparse::{Csr, SparseLu, Triplets};

/// A rectangular conductor region on the FD grid (cell index ranges,
/// inclusive lo, exclusive hi).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdConductor {
    /// x cell range.
    pub x: (usize, usize),
    /// y cell range.
    pub y: (usize, usize),
    /// z cell range.
    pub z: (usize, usize),
}

/// A finite-difference electrostatics problem on an
/// `nx × ny × nz` grid of spacing `h`.
#[derive(Debug, Clone)]
pub struct FdProblem {
    /// Cells per axis.
    pub nx: usize,
    /// Cells per axis.
    pub ny: usize,
    /// Cells per axis.
    pub nz: usize,
    /// Grid spacing (m).
    pub h: f64,
    /// Relative permittivity of the medium.
    pub eps_r: f64,
    /// Conductor regions.
    pub conductors: Vec<FdConductor>,
}

/// Result of an FD solve.
#[derive(Debug, Clone)]
pub struct FdSolution {
    /// Potential at every grid cell (row-major x, y, z).
    pub phi: Vec<f64>,
    /// The assembled system matrix (for conditioning studies).
    pub matrix: Csr<f64>,
    /// Number of volume unknowns.
    pub unknowns: usize,
}

impl FdProblem {
    fn index(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.ny + j) * self.nz + k
    }

    fn conductor_of(&self, i: usize, j: usize, k: usize) -> Option<usize> {
        self.conductors.iter().position(|c| {
            i >= c.x.0 && i < c.x.1 && j >= c.y.0 && j < c.y.1 && k >= c.z.0 && k < c.z.1
        })
    }

    /// Solves the Laplace problem with the given conductor potentials.
    ///
    /// # Errors
    /// [`Error::InvalidSetup`] if potentials don't match conductor count;
    /// propagates sparse-LU failures.
    pub fn solve(&self, volts: &[f64]) -> Result<FdSolution> {
        self.solve_factored(volts).map(|(sol, _)| sol)
    }

    /// [`FdProblem::solve`], also returning the sparse LU of the system
    /// matrix, for a study that needs it again ([`cond2_estimate`]) and
    /// would otherwise factor the matrix anew.
    ///
    /// # Errors
    /// As [`FdProblem::solve`].
    pub fn solve_factored(&self, volts: &[f64]) -> Result<(FdSolution, SparseLu<f64>)> {
        if volts.len() != self.conductors.len() {
            return Err(Error::InvalidSetup("potentials/conductors mismatch".into()));
        }
        let n = self.nx * self.ny * self.nz;
        let mut t = Triplets::new(n, n);
        let mut rhs = vec![0.0; n];
        for i in 0..self.nx {
            for j in 0..self.ny {
                for k in 0..self.nz {
                    let row = self.index(i, j, k);
                    if let Some(c) = self.conductor_of(i, j, k) {
                        t.push(row, row, 1.0);
                        rhs[row] = volts[c];
                        continue;
                    }
                    // 7-point Laplacian; outer boundary cells couple to an
                    // implicit grounded halo (term simply dropped, which is
                    // a Dirichlet-0 boundary).
                    t.push(row, row, 6.0);
                    let neighbors = [
                        (i.wrapping_sub(1), j, k, i > 0),
                        (i + 1, j, k, i + 1 < self.nx),
                        (i, j.wrapping_sub(1), k, j > 0),
                        (i, j + 1, k, j + 1 < self.ny),
                        (i, j, k.wrapping_sub(1), k > 0),
                        (i, j, k + 1, k + 1 < self.nz),
                    ];
                    for (ni, nj, nk, ok) in neighbors {
                        if ok {
                            t.push(row, self.index(ni, nj, nk), -1.0);
                        }
                    }
                }
            }
        }
        let a = t.to_csr();
        let lu = a.lu()?;
        let phi = lu.solve(&rhs)?;
        Ok((FdSolution { phi, matrix: a, unknowns: n }, lu))
    }

    /// Field energy `W = (ε/2)·Σ|∇φ|²·h³`; for a single conductor at 1 V
    /// against ground, `C = 2W`.
    pub fn field_energy(&self, phi: &[f64]) -> f64 {
        let eps = crate::EPS0 * self.eps_r;
        let mut acc = 0.0;
        for i in 0..self.nx.saturating_sub(1) {
            for j in 0..self.ny.saturating_sub(1) {
                for k in 0..self.nz.saturating_sub(1) {
                    let p = phi[self.index(i, j, k)];
                    let ex = (phi[self.index(i + 1, j, k)] - p) / self.h;
                    let ey = (phi[self.index(i, j + 1, k)] - p) / self.h;
                    let ez = (phi[self.index(i, j, k + 1)] - p) / self.h;
                    acc += ex * ex + ey * ey + ez * ez;
                }
            }
        }
        0.5 * eps * acc * self.h.powi(3)
    }

    /// Convenience: capacitance of conductor 0 at 1 V (others grounded),
    /// via field energy.
    ///
    /// # Errors
    /// Propagates solve failures.
    pub fn capacitance(&self) -> Result<f64> {
        let mut volts = vec![0.0; self.conductors.len()];
        volts[0] = 1.0;
        let sol = self.solve(&volts)?;
        Ok(2.0 * self.field_energy(&sol.phi))
    }
}

/// 2-norm condition estimate of a sparse matrix by power iteration on
/// `AᵀA` (for σ₁) and inverse power iteration through `lu`, the sparse
/// LU of `a` (for σₙ). Much cheaper than a dense SVD for grid-sized
/// matrices.
///
/// # Errors
/// [`Error::Numerics`] when `lu` is not of `a`'s order.
pub fn cond2_estimate(a: &Csr<f64>, lu: &SparseLu<f64>, iters: usize) -> Result<f64> {
    let n = a.rows();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
    let mut sigma_max = 0.0;
    for _ in 0..iters {
        let av = a.matvec(&v);
        let atav = a.matvec_transposed(&av);
        let nrm = rfsim_numerics::norm2(&atav);
        if nrm == 0.0 {
            break;
        }
        sigma_max = rfsim_numerics::norm2(&av);
        for (x, y) in v.iter_mut().zip(&atav) {
            *x = y / nrm;
        }
    }
    // Inverse power iteration on AᵀA: z = A⁻¹·A⁻ᵀ·w converges to the
    // right singular direction of σ_min; the growth per step is 1/σ_min².
    let mut w: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64 * 0.3).cos()).collect();
    {
        let nrm = rfsim_numerics::norm2(&w);
        for x in &mut w {
            *x /= nrm;
        }
    }
    let mut sigma_min = f64::INFINITY;
    for _ in 0..iters {
        let y = lu.solve_transposed(&w)?;
        let z = lu.solve(&y)?;
        let nrm = rfsim_numerics::norm2(&z);
        if nrm == 0.0 {
            break;
        }
        sigma_min = (1.0 / nrm).sqrt();
        for (x, v) in w.iter_mut().zip(&z) {
            *x = v / nrm;
        }
    }
    Ok(sigma_max / sigma_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EPS0;

    /// Parallel plates inside the FD domain: C ≈ εA/d.
    #[test]
    fn fd_parallel_plate_capacitance() {
        let n = 16;
        let h = 1e-4 / n as f64; // 100 µm domain
        let prob = FdProblem {
            nx: n,
            ny: n,
            nz: n,
            h,
            eps_r: 1.0,
            conductors: vec![
                FdConductor { x: (3, 13), y: (3, 13), z: (6, 7) },
                FdConductor { x: (3, 13), y: (3, 13), z: (9, 10) },
            ],
        };
        let mut volts = vec![1.0, 0.0];
        let sol = prob.solve(&volts).unwrap();
        // Energy method with both excitations for the mutual term:
        // C ≈ εA/d with A = (12h)², d = 3h (plate separation gap cells
        // 9..12).
        volts[1] = 0.0;
        let c = 2.0 * prob.field_energy(&sol.phi);
        let ideal = EPS0 * (10.0 * h) * (10.0 * h) / (2.0 * h);
        // FD with fringing and the grounded box: within 2x but same order
        // (the grounded boundary adds plate-to-wall capacitance).
        assert!(c > ideal && c < 4.0 * ideal, "C = {c:.3e}, ideal = {ideal:.3e}");
    }

    #[test]
    fn matrix_is_sparse_and_worse_conditioned_than_mom() {
        // Table 1's contrast on our own implementations.
        let n = 12;
        let prob = FdProblem {
            nx: n,
            ny: n,
            nz: n,
            h: 1e-5,
            eps_r: 1.0,
            conductors: vec![FdConductor { x: (3, 5), y: (3, 5), z: (3, 5) }],
        };
        let (sol, lu) = prob.solve_factored(&[1.0]).unwrap();
        // Sparse: ~7 entries per row.
        let density = sol.matrix.density();
        assert!(density < 0.02, "density {density}");
        let cond_fd = cond2_estimate(&sol.matrix, &lu, 60).unwrap();
        // MoM matrix for a comparable-size problem.
        let panels = crate::geom::mesh_plate(0.0, 0.0, 0.0, 1e-3, 1e-3, 8, 8, 0);
        let p =
            crate::mom::MomProblem::new(panels, crate::GreenFn::FreeSpace { eps_r: 1.0 }).unwrap();
        let cond_mom = rfsim_numerics::svd::Svd::new(&p.assemble_dense()).unwrap().cond2();
        assert!(cond_fd > 2.0 * cond_mom, "cond FD {cond_fd:.1} vs MoM {cond_mom:.1}");
    }

    #[test]
    fn fd_condition_number_grows_with_refinement() {
        // Poor conditioning worsens as the volume grid refines (h → 0) in
        // all three dimensions, unlike the integral formulation.
        let cond_of = |n: usize| {
            let prob = FdProblem {
                nx: n,
                ny: n,
                nz: n,
                h: 1e-5,
                eps_r: 1.0,
                conductors: vec![FdConductor { x: (0, 1), y: (0, 1), z: (0, 1) }],
            };
            let (sol, lu) = prob.solve_factored(&[1.0]).unwrap();
            cond2_estimate(&sol.matrix, &lu, 60).unwrap()
        };
        let c1 = cond_of(6);
        let c2 = cond_of(12);
        assert!(c2 > 2.0 * c1, "cond {c1:.1} → {c2:.1}");
    }

    #[test]
    fn cond_estimate_tracks_dense_svd() {
        // Cross-check the power-iteration estimator against the exact SVD
        // condition number on a small grid.
        let prob = FdProblem {
            nx: 5,
            ny: 5,
            nz: 5,
            h: 1e-5,
            eps_r: 1.0,
            conductors: vec![FdConductor { x: (2, 3), y: (2, 3), z: (2, 3) }],
        };
        let (sol, lu) = prob.solve_factored(&[1.0]).unwrap();
        let est = cond2_estimate(&sol.matrix, &lu, 120).unwrap();
        let exact = rfsim_numerics::svd::Svd::new(&sol.matrix.to_dense()).unwrap().cond2();
        assert!((est / exact - 1.0).abs() < 0.3, "estimate {est:.1} vs exact {exact:.1}");
    }

    #[test]
    fn ordered_factorization_fills_little() {
        // The two-plate layout of the `fd_extract` benchmark: a 10³ grid,
        // 6×6 plates 3 cells apart. Factored in natural column order, L + U
        // would hold 28× the matrix's nonzeros.
        let plate = |z| FdConductor { x: (2, 8), y: (2, 8), z: (z, z + 1) };
        let prob = FdProblem {
            nx: 10,
            ny: 10,
            nz: 10,
            h: 1e-5,
            eps_r: 1.0,
            conductors: vec![plate(3), plate(6)],
        };
        let (FdSolution { matrix: a, .. }, lu) = prob.solve_factored(&[1.0, 0.0]).unwrap();
        assert!(
            lu.factor_nnz() <= 12 * a.nnz(),
            "fill {} / {} = {:.1}×",
            lu.factor_nnz(),
            a.nnz(),
            lu.factor_nnz() as f64 / a.nnz() as f64
        );
    }

    #[test]
    fn potentials_bounded_by_excitation() {
        // Discrete maximum principle.
        let prob = FdProblem {
            nx: 10,
            ny: 10,
            nz: 10,
            h: 1e-5,
            eps_r: 1.0,
            conductors: vec![FdConductor { x: (4, 6), y: (4, 6), z: (4, 6) }],
        };
        let sol = prob.solve(&[1.0]).unwrap();
        for &p in &sol.phi {
            assert!((-1e-12..=1.0 + 1e-12).contains(&p), "phi = {p}");
        }
    }
}
