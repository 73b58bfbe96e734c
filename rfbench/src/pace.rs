//! Host pace: how fast the CPU a run is pinned to executes a fixed
//! reference kernel of the benchmark's own, sampled between ops, and
//! the factor that converts an op's wall time to what it would have
//! been at the reference pace.
//!
//! On a shared host the same op runs up to 1.5–2× slower while a
//! neighbour loads the physical core, for stretches of seconds to
//! minutes, with the process still getting its full CPU time. The kernel
//! is plain Rust that calls no rfsim code, so no change to the program
//! changes it. Every sample first touches the kernel's data, so the
//! sample does not depend on what the op before it left in the caches.
//!
//! Code slows by different amounts in a busy stretch, so the kernel
//! mixes the kinds of work the workload's op does. Over one busy minute
//! on a 2-vCPU Xeon guest, timed beside each op in 5 s windows, a dense
//! matrix product and a dense LU slowed about as much as an `hb_chain`
//! op (1.24–1.61× against 1.38–1.50×), random reads of an L2-sized
//! table slowed far more (1.65–2.8×), a dependent FMA chain hardly
//! (1.08–1.16×). `fd_extract` (a sparse LU: indexed loads) slowed a
//! little more than the dense loops, `serve_loop` (request handling and
//! telemetry copies besides its solves) up to 1.9× while they slowed
//! 1.45×. So every kernel runs the dense loops, and the workloads add
//! passes of random reads in proportion: none for `hb_chain`, one for
//! `fd_extract` (about 13% of the kernel's time), six for `serve_loop`
//! (nearly half).

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Time (ms) of the dense loops at the reference pace: their median on
/// a quiet 2-vCPU Intel Xeon guest (2 MiB L2), the host class the
/// benchmark was tuned on. Paced times read as wall milliseconds of that
/// host when quiet.
const DENSE_MS: f64 = 0.53;
/// Time (ms) of one pass of random reads at the reference pace, on the
/// same host.
const READ_PASS_MS: f64 = 0.078;

/// Least time between two samples (s). Busy and quiet stretches last
/// seconds, so a sample every 50 ms resolves them at a few percent of
/// the run's time.
const EVERY_S: f64 = 0.05;

/// An op's pace is the median of the samples within this many seconds
/// of its midpoint.
const WINDOW_S: f64 = 0.25;

/// Order of the matrix product.
const MM: usize = 64;
/// Order of the dense LU.
const LU: usize = 96;
/// Entries of the random-read table: 1 MiB of `f64`, inside a 2 MiB L2.
const TABLE: usize = 1 << 17;
/// Random reads per pass.
const READS: usize = 1 << 16;

/// The reference kernel's data and the samples taken so far.
pub struct Pace {
    /// Passes of random reads after the dense loops.
    read_passes: usize,
    start: Instant,
    /// `(seconds since start, kernel ms)` per sample, in time order.
    samples: Vec<(f64, f64)>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    lu: Vec<f64>,
    table: Vec<f64>,
    index: Vec<u32>,
}

impl std::fmt::Debug for Pace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pace").field("samples", &self.samples.len()).finish_non_exhaustive()
    }
}

impl Pace {
    /// A pace whose kernel runs the dense loops and then `read_passes`
    /// passes of random reads; no samples yet, and its clock starts now.
    pub fn new(read_passes: usize) -> Pace {
        let fill = |n: usize, k: f64| (0..n).map(|i| (i as f64 * k).sin()).collect::<Vec<f64>>();
        // A fixed xorshift sequence: the reads are the same on every run.
        let mut x = 0x9E37_79B9_u32;
        let index = (0..READS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x % TABLE as u32
            })
            .collect();
        Pace {
            read_passes,
            start: Instant::now(),
            samples: Vec::new(),
            a: fill(MM * MM, 0.37),
            b: fill(MM * MM, 0.11),
            c: vec![0.0; MM * MM],
            lu: vec![0.0; LU * LU],
            table: fill(TABLE, 0.013),
            index,
        }
    }

    /// Seconds since this pace started: the clock ops are placed on.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Takes a sample if [`EVERY_S`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|&(t, _)| self.now() - t >= EVERY_S) {
            self.sample();
        }
    }

    /// Takes a sample now and returns the kernel's time (ms).
    pub fn sample(&mut self) -> f64 {
        let t = self.now();
        self.touch();
        let t0 = Instant::now();
        self.kernel();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push((t, ms));
        ms
    }

    /// The kernel's time (ms) at the reference pace.
    pub fn reference_ms(&self) -> f64 {
        DENSE_MS + self.read_passes as f64 * READ_PASS_MS
    }

    /// Converts a wall time measured around `t` (seconds on this pace's
    /// clock) to the reference pace: [`Pace::reference_ms`] over the
    /// median sample within [`WINDOW_S`] of `t`, or over the nearest
    /// sample if none is that close.
    ///
    /// # Panics
    /// If no sample was taken.
    pub fn factor(&self, t: f64) -> f64 {
        assert!(!self.samples.is_empty(), "pace factor before any sample");
        let lo = self.samples.partition_point(|&(s, _)| s < t - WINDOW_S);
        let hi = self.samples.partition_point(|&(s, _)| s <= t + WINDOW_S);
        let ms = if lo < hi {
            median(&self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
        } else {
            // Between two distant samples: the closer one.
            let after = self.samples.get(hi);
            let before = hi.checked_sub(1).map(|i| &self.samples[i]);
            match (before, after) {
                (Some(b), Some(a)) if a.0 - t < t - b.0 => a.1,
                (Some(b), _) => b.1,
                (None, Some(a)) => a.1,
                (None, None) => unreachable!("samples are not empty"),
            }
        };
        self.reference_ms() / ms
    }

    /// Median kernel time (ms) of the samples so far, 0 without any.
    pub fn median_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        median(&self.samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    /// Reads every byte of the kernel's data into the caches.
    #[inline(never)]
    fn touch(&self) {
        let sum: f64 = [&self.a, &self.b, &self.c, &self.lu, &self.table]
            .iter()
            .map(|v| v.iter().sum::<f64>())
            .sum();
        let idx: u64 = self.index.iter().map(|&i| u64::from(i)).sum();
        black_box((sum, idx));
    }

    /// The reference kernel. Each loop is kept out of line, so its
    /// machine code depends on nothing around it.
    fn kernel(&mut self) {
        product(&self.a, &self.b, &mut self.c);
        factor(&self.a, &mut self.lu);
        for _ in 0..self.read_passes {
            black_box(read_table(&self.table, &self.index));
        }
    }
}

/// `c = a·b` for `MM`×`MM` row-major matrices, i-k-j order: streams
/// rows through L1.
#[inline(never)]
fn product(a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for _ in 0..3 {
        for (i, row_c) in c.chunks_exact_mut(MM).enumerate() {
            for (k, row_b) in b.chunks_exact(MM).enumerate() {
                let aik = a[i * MM + k];
                for (x, y) in row_c.iter_mut().zip(row_b) {
                    *x += aik * y;
                }
            }
        }
    }
    black_box(c);
}

/// LU without pivoting of a diagonally dominant `LU`×`LU` matrix built
/// from `a`, four times.
#[inline(never)]
fn factor(a: &[f64], lu: &mut [f64]) {
    for _ in 0..4 {
        for (i, row) in lu.chunks_exact_mut(LU).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                let diagonal = if i == j { 2.0 * LU as f64 } else { 0.0 };
                *x = a[(i * LU + j) % a.len()] + diagonal;
            }
        }
        for k in 0..LU {
            let (top, bottom) = lu.split_at_mut((k + 1) * LU);
            let pivot_row = &top[k * LU + k..];
            for row in bottom.chunks_exact_mut(LU) {
                let f = row[k] / pivot_row[0];
                for (x, y) in row[k..].iter_mut().zip(pivot_row) {
                    *x -= f * y;
                }
            }
        }
    }
    black_box(lu);
}

/// One pass of random reads of `table` into four independent sums, so
/// the loads overlap.
#[inline(never)]
fn read_table(table: &[f64], index: &[u32]) -> [f64; 4] {
    let mut acc = [0.0; 4];
    for (j, &i) in index.iter().enumerate() {
        acc[j % 4] += table[i as usize];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reads_the_samples_near_an_op() {
        let mut p = Pace::new(1);
        let reference = DENSE_MS + READ_PASS_MS;
        assert_eq!(p.reference_ms(), reference);
        p.samples = vec![(0.0, 1.0), (0.1, 2.0), (0.2, 2.0), (1.0, 4.0)];
        // Within the window of 0.1 s: 1.0, 2.0 and 2.0.
        assert_eq!(p.factor(0.1), reference / 2.0);
        // 0.6 s has no sample within 0.25 s; 1.0 s is nearer than 0.2 s.
        assert_eq!(p.factor(0.65), reference / 4.0);
        assert_eq!(p.factor(0.55), reference / 2.0);
        assert!(p.sample() > 0.0);
    }
}
