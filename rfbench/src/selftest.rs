//! Self-tests of the benchmark itself: seeded inputs repeat, exact
//! counts repeat, and a corrupted output is counted as a failed op.
//! Telemetry is process-global, so every test that runs a solver holds
//! [`LOCK`].

use crate::fd_extract::{FdExtract, FdOutput, Layout};
use crate::hb_chain::HbChain;
use crate::layers::Samples;
use crate::library::{Mode, Phase, Workload, EXACT_OPS};
use crate::serve_loop::{self, Designer};
use rfsim_telemetry as telemetry;
use std::sync::Mutex;

/// Serializes the tests that run solvers, so one test's work never
/// lands in another's telemetry.
pub static LOCK: Mutex<()> = Mutex::new(());

/// Takes [`LOCK`], surviving a test that panicked while holding it.
pub fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn inputs<W: Workload>(seed: u64) -> String
where
    W::Input: std::fmt::Debug,
{
    let w = W::new(seed);
    format!("{:?}", (0..EXACT_OPS).map(|i| w.input(i)).collect::<Vec<_>>())
}

/// The exact counts of a traced phase of [`EXACT_OPS`] ops.
fn exact_counts<W: Workload>(seed: u64) -> Samples {
    telemetry::set_mode(telemetry::Mode::Json { path: None });
    let mut phase = Phase::default();
    phase.extend(&W::new(seed), 0.0, Mode::Traced, EXACT_OPS as u64);
    telemetry::set_mode(telemetry::Mode::Off);
    assert_eq!(phase.failed, 0, "self-test ops must pass their checks");
    phase.samples
}

fn repeats<W: Workload>(expect: &[&str])
where
    W::Input: std::fmt::Debug,
{
    assert_eq!(inputs::<W>(21), inputs::<W>(21), "one seed, one set of inputs");
    assert_ne!(inputs::<W>(21), inputs::<W>(22), "another seed, other inputs");
    let (a, b) = (exact_counts::<W>(21), exact_counts::<W>(21));
    assert_eq!(a, b, "exact counts must repeat for one seed");
    for name in expect {
        assert!(a.mean(name).is_some(), "{name} was not recorded");
    }
}

#[test]
fn hb_chain_inputs_and_counts_repeat() {
    let _g = lock();
    repeats::<HbChain>(&[
        "steady.hb.newton_iters",
        "steady.hb.gmres_iters",
        "steady.hb.matvecs",
        "steady.hb.precond_factorizations",
        "numerics.dense.factorizations",
    ]);
}

#[test]
fn fd_extract_inputs_and_counts_repeat() {
    let _g = lock();
    repeats::<FdExtract>(&["numerics.sparse.fill_ratio", "numerics.sparse.factorizations"]);
    assert_eq!(exact_counts::<FdExtract>(21).mean("numerics.sparse.factorizations"), Some(1.0));
}

#[test]
fn serve_loop_inputs_and_class_counts_repeat() {
    let _g = lock();
    let stream = |seed| {
        let mut d = Designer::new(seed, 0);
        let mut v = d.population();
        v.extend((0..EXACT_OPS).flat_map(|_| {
            let it = d.next_iteration();
            [it.hb, it.extract]
        }));
        format!("{v:?}")
    };
    assert_eq!(stream(21), stream(21));
    assert_ne!(stream(21), stream(22));
    let leading = || serve_loop::leading_counts(21, 0.2).expect("small traced serve run");
    let (a, b) = (leading(), leading());
    assert_eq!(a, b, "per-class warm/cold counts and HB iterations must repeat");
}

/// `fd_extract` with its potential corrupted after the solve.
struct Corrupted(FdExtract);

impl Workload for Corrupted {
    type Input = Layout;
    type Output = FdOutput;
    const LAYER_SPANS: &'static [&'static str] = FdExtract::LAYER_SPANS;
    const PACE_READ_PASSES: usize = FdExtract::PACE_READ_PASSES;

    fn new(seed: u64) -> Self {
        Corrupted(FdExtract::new(seed))
    }

    fn input(&self, i: usize) -> &Layout {
        self.0.input(i)
    }

    fn run(&self, input: &Layout) -> Result<FdOutput, String> {
        let mut out = self.0.run(input)?;
        let mid = out.sol.phi.len() / 2;
        out.sol.phi[mid] += 1e-3;
        Ok(out)
    }

    fn check(&self, input: &Layout, out: &FdOutput) -> Result<(), String> {
        self.0.check(input, out)
    }

    fn probe(&self, i: &Layout, o: &FdOutput, e: bool, s: &mut Samples) -> Result<(), String> {
        self.0.probe(i, o, e, s)
    }
}

#[test]
fn corrupted_output_counts_as_failed_op() {
    let _g = lock();
    let mut phase = Phase::paced(Corrupted::PACE_READ_PASSES);
    phase.extend(&Corrupted::new(4), 0.0, Mode::Plain, 3);
    assert_eq!((phase.attempted, phase.failed), (3, 3));
    assert!(phase.paced_latencies().is_empty(), "failed ops carry no latency");
    let mut good = Phase::paced(FdExtract::PACE_READ_PASSES);
    good.extend(&FdExtract::new(4), 0.0, Mode::Plain, 3);
    assert_eq!((good.attempted, good.failed), (3, 0));
    assert_eq!(good.paced_latencies().len(), 3);
}
