//! Seeded input generation: a SplitMix64 stream per (seed, stream) pair,
//! so every workload draws the same inputs for the same `--seed` no
//! matter how many ops a run gets through.

/// A deterministic pseudo-random stream (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream `stream` of seed `seed`. Distinct streams of one seed
    /// are independent for the purposes of input generation.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng { state: seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) };
        // Discard the first output so nearby seeds decorrelate.
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`; both must be positive.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (self.range(lo.ln(), hi.ln())).exp()
    }

    /// Uniform integer in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        assert_ne!(draw(7, 3), draw(8, 3));
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(6) < 6);
        }
    }
}
