//! Uniform random search — the sanity baseline.

use crate::tuner::Tuner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedule::{Config, ConfigSpace, IndexSet};

/// Samples unvisited configurations uniformly at random.
pub struct RandomTuner<'s> {
    space: &'s ConfigSpace,
    visited: IndexSet,
    rng: StdRng,
}

impl<'s> RandomTuner<'s> {
    /// Creates a random tuner over `space`.
    #[must_use]
    pub fn new(space: &'s ConfigSpace, seed: u64) -> Self {
        RandomTuner { space, visited: IndexSet::default(), rng: StdRng::seed_from_u64(seed) }
    }
}

impl Tuner for RandomTuner<'_> {
    fn next_batch(&mut self, n: usize) -> Vec<Config> {
        let mut out = Vec::with_capacity(n);
        let space_len = self.space.len();
        let mut attempts = 0u64;
        while out.len() < n && (self.visited.len() as u64) < space_len {
            attempts += 1;
            if attempts > 100 * n as u64 + 1000 {
                break; // space nearly exhausted
            }
            let idx = self.rng.gen_range(0..space_len);
            if self.visited.insert(idx) {
                // aal-lint: allow(unwrap, reason = "sampled index is drawn from 0..space.len()")
                out.push(self.space.config(idx).expect("sampled index in range"));
            }
        }
        out
    }

    fn update(&mut self, _results: &[(Config, f64)]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedule::Knob;

    #[test]
    fn batches_are_distinct_across_calls() {
        let space = ConfigSpace::new("t", vec![Knob::split("a", 4096, 3)]);
        let mut t = RandomTuner::new(&space, 0);
        let a = t.next_batch(20);
        let b = t.next_batch(20);
        let mut all: Vec<u64> = a.iter().chain(&b).map(|c| c.index).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn exhausts_small_spaces() {
        let space = ConfigSpace::new("t", vec![Knob::choice("a", vec![0, 1, 2, 3])]);
        let mut t = RandomTuner::new(&space, 1);
        let a = t.next_batch(10);
        assert_eq!(a.len(), 4);
        assert!(t.next_batch(10).is_empty());
    }
}
