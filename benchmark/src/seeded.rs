//! Everything random in the benchmark is a pure function of `--seed`:
//! a SplitMix64 stream, a Zipf sampler over it, and seeded permutations.
//! Kept local (not the vendored `rand`) so op order can never drift with
//! a library's stream.

/// SplitMix64: tiny, statistically fine for choosing ops, and stable.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from `seed + 1` by `stream`
    /// (callers give each thread or purpose its own stream number).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be nonzero. The modulo bias is below
    /// 2^-40 for every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf over ranks `0..n`: P(rank k) ∝ 1 / (k + 1)^s.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative distribution.
    ///
    /// # Panics
    /// Panics when `n` is 0.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = SplitMix64::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn zipf_draws_repeat_for_a_seed_and_favour_low_ranks() {
        let z = Zipf::new(2000, 0.8);
        let draws = |seed| {
            let mut r = SplitMix64::new(seed, 3);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draws(42);
        assert_eq!(a, draws(42));
        assert_ne!(a, draws(43));
        assert!(a.iter().all(|&k| k < 2000));
        let head = a.iter().filter(|&&k| k < 200).count();
        let tail = a.iter().filter(|&&k| k >= 1800).count();
        // Zipf(0.8) over 2000 ranks puts ~54% of mass on the first tenth
        // and ~3% on the last
        assert!(head > 10_000 && head < 11_700, "head={head}");
        assert!(tail > 300 && tail < 1_000, "tail={tail}");
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(500, &mut SplitMix64::new(9, 0));
        assert_eq!(p, permutation(500, &mut SplitMix64::new(9, 0)));
        assert_ne!(p, permutation(500, &mut SplitMix64::new(10, 0)));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
    }
}
