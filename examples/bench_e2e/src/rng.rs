//! The benchmark's own random numbers: SplitMix64 and a Zipf sampler.
//!
//! Workload inputs must depend on `--seed` and on nothing else, so the
//! benchmark does not draw from the repository's `rand` stand-in: a
//! later change to that shim must not move every committed number.

/// SplitMix64 (Steele, Lea, Flood 2014): one `u64` of state, full
/// period, and good enough for shuffles and literal draws.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `alpha`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-alpha)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
