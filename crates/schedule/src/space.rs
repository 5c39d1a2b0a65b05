//! The configuration space of one tuning task.

use crate::error::ScheduleError;
use crate::index::IndexSet;
use crate::knob::{Knob, KnobValue};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One deployment configuration: a choice index per knob plus its flat index
/// (Definition 1 in the paper — "all of the deployment settings … encoded as
/// the attributes of a feature vector").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    /// Flat index into the space (mixed-radix encoding of `choices`).
    pub index: u64,
    /// Per-knob candidate indices.
    pub choices: Vec<usize>,
}

/// The set of all deployment configurations of one task.
///
/// Knob choice indices are encoded into a flat `u64` with a mixed-radix
/// codec: knob 0 is the fastest-varying digit.
///
/// # Example
///
/// ```
/// use schedule::{ConfigSpace, Knob};
///
/// let space = ConfigSpace::new("demo", vec![
///     Knob::split("tile", 8, 2),
///     Knob::choice("unroll", vec![0, 512]),
/// ]);
/// assert_eq!(space.len(), 8); // 4 factorizations x 2 choices
/// let cfg = space.config(5).unwrap();
/// assert_eq!(space.index_of(&cfg.choices), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Name of the owning task (diagnostics only).
    pub task_name: String,
    knobs: Vec<Knob>,
    /// Cumulative radix products: `strides[i]` = product of cardinalities of
    /// knobs `0..i`.
    strides: Vec<u64>,
    len: u64,
}

impl ConfigSpace {
    /// Builds a space from knobs.
    ///
    /// # Panics
    ///
    /// Panics if `knobs` is empty or the space size overflows `u64`.
    #[must_use]
    pub fn new(task_name: impl Into<String>, knobs: Vec<Knob>) -> Self {
        assert!(!knobs.is_empty(), "a config space needs at least one knob");
        let mut strides = Vec::with_capacity(knobs.len());
        let mut len: u64 = 1;
        for k in &knobs {
            strides.push(len);
            // aal-lint: allow(unwrap, reason = "deliberate hard stop: a space larger than u64 cannot be indexed")
            len = len.checked_mul(k.cardinality() as u64).expect("config space size overflows u64");
        }
        ConfigSpace { task_name: task_name.into(), knobs, strides, len }
    }

    /// The knobs, in digit order.
    #[must_use]
    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// Number of knobs (the dimensionality of the space).
    #[must_use]
    pub fn num_knobs(&self) -> usize {
        self.knobs.len()
    }

    /// Total number of configurations.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a space is never empty by construction
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Decodes a flat index into a [`Config`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::IndexOutOfRange`] if `index >= self.len()`.
    pub fn config(&self, index: u64) -> Result<Config, ScheduleError> {
        if index >= self.len {
            return Err(ScheduleError::IndexOutOfRange { index, len: self.len });
        }
        let mut rem = index;
        let choices = self
            .knobs
            .iter()
            .map(|k| {
                let card = k.cardinality() as u64;
                let c = (rem % card) as usize;
                rem /= card;
                c
            })
            .collect();
        Ok(Config { index, choices })
    }

    /// Encodes per-knob choice indices into the flat index.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or a choice is out of range.
    #[must_use]
    pub fn index_of(&self, choices: &[usize]) -> u64 {
        assert_eq!(choices.len(), self.knobs.len(), "choice vector length mismatch");
        choices
            .iter()
            .zip(&self.knobs)
            .zip(&self.strides)
            .map(|((&c, k), &stride)| {
                assert!(c < k.cardinality(), "choice {c} out of range for {}", k.name());
                c as u64 * stride
            })
            .sum()
    }

    /// The concrete knob values of a configuration, in knob order.
    #[must_use]
    pub fn values(&self, config: &Config) -> Vec<KnobValue> {
        config.choices.iter().zip(&self.knobs).map(|(&c, k)| k.value(c)).collect()
    }

    /// The value of the knob named `name` in `config`, if such a knob exists.
    #[must_use]
    pub fn value_of(&self, config: &Config, name: &str) -> Option<KnobValue> {
        self.knobs
            .iter()
            .position(|k| k.name() == name)
            .map(|i| self.knobs[i].value(config.choices[i]))
    }

    /// Maps per-knob choice indices from *another* space of the same
    /// template family into this one, clipping each choice to this space's
    /// knob cardinality. Returns `None` when the knob counts differ —
    /// mapping only makes sense between spaces of the same family.
    ///
    /// This is the core of configuration transfer (AutoTVM's log-based
    /// warm start and the tuning database's cross-task seeding).
    #[must_use]
    pub fn map_choices(&self, choices: &[usize]) -> Option<Config> {
        if choices.len() != self.knobs.len() {
            return None;
        }
        let clipped: Vec<usize> =
            choices.iter().zip(&self.knobs).map(|(&c, k)| c.min(k.cardinality() - 1)).collect();
        let index = self.index_of(&clipped);
        Some(Config { index, choices: clipped })
    }

    /// Uniformly samples one configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Config {
        let index = rng.gen_range(0..self.len);
        // aal-lint: allow(unwrap, reason = "sampled index is drawn from 0..len")
        self.config(index).expect("sampled index is in range")
    }

    /// Uniformly samples `n` configurations **without replacement** (when
    /// `n` exceeds the space size, every configuration is returned once).
    pub fn sample_distinct<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Config> {
        if (n as u64) >= self.len {
            return (0..self.len)
                // aal-lint: allow(unwrap, reason = "enumeration covers exactly 0..len")
                .map(|i| self.config(i).expect("exhaustive enumeration"))
                .collect();
        }
        let mut seen = IndexSet::with_capacity_and_hasher(n, Default::default());
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let idx = rng.gen_range(0..self.len);
            if seen.insert(idx) {
                // aal-lint: allow(unwrap, reason = "sampled index is drawn from 0..len")
                out.push(self.config(idx).expect("sampled index is in range"));
            }
        }
        out
    }
}

impl fmt::Display for ConfigSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ConfigSpace[{}] ({} points):", self.task_name, self.len)?;
        for k in &self.knobs {
            writeln!(f, "  {k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_space() -> ConfigSpace {
        ConfigSpace::new(
            "t",
            vec![
                Knob::split("a", 4, 2), // 3 candidates
                Knob::choice("b", vec![0, 1]),
                Knob::split("c", 6, 2), // 4 candidates
            ],
        )
    }

    #[test]
    fn len_is_product() {
        assert_eq!(small_space().len(), 3 * 2 * 4);
    }

    #[test]
    fn codec_round_trips_every_index() {
        let s = small_space();
        for i in 0..s.len() {
            let cfg = s.config(i).unwrap();
            assert_eq!(s.index_of(&cfg.choices), i);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let s = small_space();
        assert!(matches!(s.config(s.len()), Err(ScheduleError::IndexOutOfRange { .. })));
    }

    #[test]
    fn values_materialize() {
        let s = small_space();
        let cfg = s.config(0).unwrap();
        let vals = s.values(&cfg);
        assert_eq!(vals[0], KnobValue::Split(vec![1, 4]));
        assert_eq!(vals[1], KnobValue::Choice(0));
    }

    #[test]
    fn value_of_by_name() {
        let s = small_space();
        let cfg = s.config(3).unwrap(); // a=0 wraps: 3 % 3 = 0, b = 1
        assert_eq!(s.value_of(&cfg, "b"), Some(KnobValue::Choice(1)));
        assert_eq!(s.value_of(&cfg, "missing"), None);
    }

    #[test]
    fn map_choices_clips_and_rejects_mismatched_arity() {
        let big = ConfigSpace::new(
            "big",
            vec![Knob::split("a", 64, 2), Knob::choice("b", vec![0, 1]), Knob::split("c", 64, 2)],
        );
        let small = small_space(); // a: 3 candidates, b: 2, c: 4
        let last = big.config(big.len() - 1).unwrap();
        let mapped = small.map_choices(&last.choices).unwrap();
        for (&c, k) in mapped.choices.iter().zip(small.knobs()) {
            assert!(c < k.cardinality());
        }
        assert_eq!(small.index_of(&mapped.choices), mapped.index);
        // In-range choices map unchanged.
        let id = small.map_choices(&[1, 1, 2]).unwrap();
        assert_eq!(id.choices, vec![1, 1, 2]);
        // Arity mismatch maps nothing.
        assert!(small.map_choices(&[0, 0]).is_none());
    }

    #[test]
    fn sample_distinct_no_duplicates() {
        let s = small_space();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let got = s.sample_distinct(&mut rng, 10);
        let mut idxs: Vec<u64> = got.iter().map(|c| c.index).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), 10);
    }

    #[test]
    fn sample_distinct_exhausts_small_space() {
        let s = ConfigSpace::new("t", vec![Knob::choice("b", vec![0, 1, 2])]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        assert_eq!(s.sample_distinct(&mut rng, 99).len(), 3);
    }
}
