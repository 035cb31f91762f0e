//! A small deterministic PRNG (PCG-XSH-RR 32) for workload input
//! generation and property tests.
//!
//! The container this workspace builds in has no network access, so the
//! `rand` crate is not available; seeded workload inputs and randomized
//! test programs use this generator instead. Streams are stable across
//! platforms and releases — workload checksums depend on that.

/// A PCG32 generator (O'Neill's PCG-XSH-RR 64/32).
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
}

const MULT: u64 = 6364136223846793005;
const INC: u64 = 1442695040888963407;

impl Pcg32 {
    /// Seeds the generator; equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: seed.wrapping_add(INC),
        };
        rng.next_u32();
        rng
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(MULT).wrapping_add(INC);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// A uniform value in `range` (debiased by rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range(&mut self, range: std::ops::Range<u32>) -> u32 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Lemire's multiply-shift with rejection of the biased zone.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u32();
            let m = (x as u64) * (span as u64);
            if (m as u32) >= threshold {
                return range.start + (m >> 32) as u32;
            }
        }
    }

    /// A uniform `usize` below `bound` (handy for index picking).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero or exceeds `u32::MAX`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.random_range(0..u32::try_from(bound).expect("bound fits u32")) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = Pcg32::seed_from_u64(43);
        assert_ne!(a.next_u32(), c.next_u32());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Pcg32::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(10..20);
            assert!((10..20).contains(&v));
        }
        for _ in 0..1000 {
            assert!(r.below(3) < 3);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Pcg32::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.random_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
