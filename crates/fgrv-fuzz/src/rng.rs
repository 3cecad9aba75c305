//! Deterministic pseudo-randomness for the mutation engine.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast,
//! well-mixed 64-bit generator whose entire state is one word, so a
//! fuzzing schedule is reproducible from a single printed seed. The
//! harness does not borrow the simulator's `SimRng`, because its
//! randomness must not depend on the code under test, and cryptographic
//! quality is irrelevant here — only determinism and reasonable
//! dispersion are.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator. Any seed is valid, including zero.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (`n` must be non-zero). Modulo bias
    /// is irrelevant for mutation scheduling.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) has no value to return");
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// One pseudo-random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 32) as u8
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_dispersed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
        // All eight outputs distinct — the stream is not degenerate.
        let mut sorted = first.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(7);
        for n in 1..64 {
            for _ in 0..16 {
                assert!(rng.below(n) < n);
            }
        }
    }
}
