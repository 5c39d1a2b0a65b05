//! The original scope sampler, kept as a test oracle.
//!
//! Every elementary move clones the knob's factor tuple and binary-searches
//! the candidate list, and every attempt clones the center's choices. It is
//! slow but plainly follows the move rules, and the table-driven sampler
//! must reproduce its members, its feature rows and its RNG draws bit for
//! bit.

use crate::feature::{features, features_into, sq_distance};
use crate::knob::{Knob, KnobValue};
use crate::space::{Config, ConfigSpace};
use rand::Rng;
use std::collections::HashSet;

/// One elementary schedule move applied in place to `choices`. Returns
/// `false` if the chosen knob admits no move.
pub(crate) fn elementary_move<R: Rng + ?Sized>(
    space: &ConfigSpace,
    choices: &mut [usize],
    rng: &mut R,
) -> bool {
    let k = rng.gen_range(0..choices.len());
    match &space.knobs()[k] {
        Knob::Split { candidates, num_outputs, .. } => {
            let KnobValue::Split(mut factors) = space.knobs()[k].value(choices[k]) else {
                unreachable!("split knob yields split value")
            };
            let n = *num_outputs;
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            let f = factors[from];
            if f == 1 {
                return false;
            }
            // aal-lint: allow(unwrap, reason = "every integer greater than 1 has a prime factor")
            let p = (2..).find(|d| f % d == 0).expect("f > 1 has a prime factor");
            factors[from] /= p;
            factors[to] *= p;
            let Ok(pos) = candidates.binary_search(&factors) else {
                return false;
            };
            choices[k] = pos;
            true
        }
        Knob::Choice { values, .. } => {
            if values.len() < 2 {
                return false;
            }
            let c = choices[k];
            let next = if c == 0 {
                1
            } else if c == values.len() - 1 || rng.gen_bool(0.5) {
                c - 1
            } else {
                c + 1
            };
            choices[k] = next;
            true
        }
    }
}

/// [`super::NeighborhoodSampler::sample`] as it was before the move table.
pub(crate) fn sample_feature_neighborhood<R: Rng + ?Sized>(
    space: &ConfigSpace,
    center: &Config,
    radius: f64,
    n: usize,
    rng: &mut R,
    rows: &mut Vec<f64>,
) -> Vec<Config> {
    let center_feat = features(space, center);
    let r2 = radius * radius;
    let max_moves = ((radius / std::f64::consts::SQRT_2).ceil() as usize + 1).max(2);
    let mut seen: HashSet<u64> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let max_attempts = n.saturating_mul(8).max(1024);
    for _ in 0..max_attempts {
        if out.len() >= n {
            break;
        }
        let mut choices = center.choices.clone();
        let moves = rng.gen_range(1..=max_moves);
        let mut moved = false;
        for _ in 0..moves {
            moved |= elementary_move(space, &mut choices, rng);
        }
        if !moved || choices == center.choices {
            continue;
        }
        let index = space.index_of(&choices);
        if seen.contains(&index) {
            continue;
        }
        let cand = Config { index, choices };
        let start = rows.len();
        features_into(space, &cand, rows);
        if sq_distance(&center_feat, &rows[start..]) > r2 {
            rows.truncate(start);
            continue;
        }
        seen.insert(index);
        out.push(cand);
    }
    out
}
