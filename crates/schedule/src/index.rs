//! Sets and maps keyed by configuration index.
//!
//! Tuners track the configurations they have proposed or measured by
//! [`crate::Config::index`], and probe those sets on every proposal: SA
//! checks each of its walkers' moves against the measured set and its
//! top-k, and the samplers reject repeats. The keys are plain `u64`s
//! drawn by the tuner itself, never iterated in an order that reaches an
//! artifact, so neither a B-tree's ordering nor SipHash's flooding
//! resistance buys anything there; [`IndexSet`] and [`IndexMap`] hash
//! with one multiply and a fold instead.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A set of configuration indices.
pub type IndexSet = HashSet<u64, BuildHasherDefault<IndexHasher>>;

/// A map from configuration index to `V`.
pub type IndexMap<V> = HashMap<u64, V, BuildHasherDefault<IndexHasher>>;

/// The hasher of [`IndexSet`] and [`IndexMap`]: a multiply, then the high
/// bits folded down. It has no per-process seed, so a table's layout (and
/// any iteration over it) is the same in every run.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // Fold the high bits down: a table's bucket is the low bits.
        self.0 ^ (self.0 >> 32)
    }
}
