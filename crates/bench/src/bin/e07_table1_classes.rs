//! E7 — Table 1: measured characteristics of the differential (FD) vs
//! integral (MoM) simulation classes.
//!
//! |                      | differential | integral |
//! |----------------------|--------------|----------|
//! | Matrix type          | sparse       | dense    |
//! | Discretization       | volume       | surface  |
//! | Matrix conditioning  | poor         | good     |
//!
//! We extract the same parallel-plate structure with both classes and
//! measure every row of the table on the actual matrices.

use rfsim::em::fd::{cond2_estimate, FdConductor, FdProblem};
use rfsim::em::geom::mesh_parallel_plates;
use rfsim::em::mom::{capacitance_matrix, MomProblem};
use rfsim::em::GreenFn;
use rfsim::numerics::svd::Svd;
use rfsim_bench::{heading, timed};
use rfsim_observe::Harness;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut h = Harness::new("e07");
    match run(&mut h) {
        Ok(()) => h.finish(),
        Err(e) => h.abort(&e),
    }
}

fn run(h: &mut Harness) -> Result<(), String> {
    println!("E7: Table 1 — differential vs integral formulations, measured");

    // The structure: parallel plates, 60 µm square, 12 µm apart.
    let side = 60e-6;
    let gap = 12e-6;

    // --- Integral class: MoM surface discretization. ---
    let (n_mom, cond_mom, c_mom, t_asm, t_solve) =
        h.sweep_point("mom", &[("side_um", side * 1e6), ("gap_um", gap * 1e6)], |pm| {
            let panels = mesh_parallel_plates(side, gap, 10);
            let n_mom = panels.len();
            let mom = MomProblem::new(panels, GreenFn::FreeSpace { eps_r: 1.0 })
                .map_err(|e| format!("MoM setup: {e}"))?;
            let (a_mom, t_asm) = timed(|| mom.assemble_dense());
            let cond_mom = Svd::new(&a_mom).map_err(|e| format!("MoM svd: {e}"))?.cond2();
            let (c_mom, t_solve) = timed(|| capacitance_matrix(&mom));
            let c_mom = c_mom.map_err(|e| format!("MoM capacitance: {e}"))?;
            pm.metric("panels", n_mom as f64);
            pm.metric("cond2", cond_mom);
            Ok::<_, String>((n_mom, cond_mom, c_mom, t_asm, t_solve))
        })?;

    let c12 = -c_mom[(0, 1)];

    // --- Differential class: FD volume discretization of the same box.
    // Domain 3× the plate extent; grid chosen so the plates resolve.
    let (sol, cap_fd, cond_fd, t_fd) = h.sweep_point("fd", &[("grid", 24.0)], |pm| {
        let nf = 24;
        let hstep = 3.0 * side / nf as f64;
        let cell_of = |x: f64| ((x + 1.5 * side) / hstep).round() as usize;
        let zlo = cell_of(-gap / 2.0);
        let zhi = cell_of(gap / 2.0);
        let (plo, phi) = (cell_of(-side / 2.0), cell_of(side / 2.0));
        let fd = FdProblem {
            nx: nf,
            ny: nf,
            nz: nf,
            h: hstep,
            eps_r: 1.0,
            conductors: vec![
                FdConductor { x: (plo, phi), y: (plo, phi), z: (zlo, zlo + 1) },
                FdConductor { x: (plo, phi), y: (plo, phi), z: (zhi, zhi + 1) },
            ],
        };
        let (fd_out, t_fd) = timed(|| {
            let (s, lu) = fd.solve_factored(&[1.0, 0.0]).map_err(|e| format!("FD solve: {e}"))?;
            let c = 2.0 * fd.field_energy(&s.phi);
            Ok::<_, String>((s, lu, c))
        });
        let (sol, lu, cap_fd) = fd_out?;
        let cond_fd =
            cond2_estimate(&sol.matrix, &lu, 60).map_err(|e| format!("FD conditioning: {e}"))?;
        pm.metric("unknowns", sol.unknowns as f64);
        pm.metric("cond2", cond_fd);
        pm.metric("c_ratio", cap_fd / c12);
        Ok::<_, String>((sol, cap_fd, cond_fd, t_fd))
    })?;

    heading("Table 1, measured");
    println!("{:<22} {:>18} {:>18}", "", "differential (FD)", "integral (MoM)");
    println!(
        "{:<22} {:>18} {:>18}",
        "matrix type",
        format!("sparse ({:.2}% nnz)", sol.matrix.density() * 100.0),
        "dense (100% nnz)"
    );
    println!(
        "{:<22} {:>18} {:>18}",
        "discretization",
        format!("volume ({} cells)", sol.unknowns),
        format!("surface ({n_mom} panels)")
    );
    println!(
        "{:<22} {:>18} {:>18}",
        "matrix conditioning",
        format!("poor (κ≈{cond_fd:.0})"),
        format!("good (κ≈{cond_mom:.1})")
    );

    heading("cross-check: both classes extract the same capacitance");
    println!(
        "MoM plate-to-plate C: {:.3e} F ({:.3} s assemble + {:.3} s solve)",
        c12, t_asm, t_solve
    );
    println!("FD  energy-method C:  {:.3e} F ({:.3} s)", cap_fd, t_fd);
    println!(
        "ratio FD/MoM: {:.2} (FD includes plate-to-wall fringing of the\n\
         grounded truncation box; same order = both solvers healthy)",
        cap_fd / c12
    );
    println!(
        "\nproblem-size reduction: the surface mesh needs {}× fewer unknowns\n\
         than the volume mesh — §4's 'orders of magnitude' once 3-D structures\n\
         grow (the gap widens as (size/h)³ vs (size/h)²).",
        sol.unknowns / n_mom
    );
    Ok(())
}
