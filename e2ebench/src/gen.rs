//! Seeded input generation.
//!
//! Every schedule, site set, inversion choice, pack content and launch
//! seed of a run is drawn from one SplitMix64 stream keyed by `--seed`;
//! the program under test only ever sees the generated values.

use dimmunix_rt::AcquisitionSite;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x6a09_e667_f3bc_c909,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// An independent stream for one sub-part of the inputs (a round, a
    /// thread), so adding draws to one part never shifts another.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// A seeded acquisition site `<scope>.<tag>` in `<file>` at a seeded line.
/// Sites are made once per run, so leaking their names is bounded.
pub fn site(rng: &mut Rng, scope: &str, tag: usize, file: &'static str) -> AcquisitionSite {
    let name: &'static str = Box::leak(format!("{scope}.{tag}").into_boxed_str());
    AcquisitionSite::new(name, file, 10 + rng.below(5_000) as u32)
}
