//! Seeded dataset splitting: train/test and group holdouts.
//!
//! The paper evaluates with three hold-out strategies (§6.2): random
//! observation hold-outs, hold-outs restricted to FCC-adjudicated challenges
//! and whole-state hold-outs. The first two are row-level splits; the last is
//! a group holdout where the group is the observation's state.

use std::collections::HashSet;
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Split `n` row indices into `(train, test)` with `test_fraction` of rows in
/// the test set, shuffled with `seed`.
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!((0.0..=1.0).contains(&test_fraction));
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

/// Group holdout: rows whose group is in `held_out` become the test set, all
/// other rows the training set. Used for the state-level holdout (§6.2.2) and
/// the JCC case study's "hold out all bordering states" strategy (§6.3).
pub fn group_holdout<G: Eq + Hash>(
    groups: &[G],
    held_out: &HashSet<G>,
) -> (Vec<usize>, Vec<usize>) {
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        if held_out.contains(g) {
            test.push(i);
        } else {
            train.push(i);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_disjoint_and_complete() {
        let (train, test) = train_test_split(100, 0.1, 42);
        assert_eq!(train.len(), 90);
        assert_eq!(test.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        assert_eq!(train_test_split(50, 0.2, 7), train_test_split(50, 0.2, 7));
        assert_ne!(
            train_test_split(50, 0.2, 7).1,
            train_test_split(50, 0.2, 8).1
        );
    }

    #[test]
    fn group_holdout_respects_groups() {
        let groups = vec!["VA", "NE", "VA", "GA", "NE"];
        let held: HashSet<&str> = ["NE"].into();
        let (train, test) = group_holdout(&groups, &held);
        assert_eq!(test, vec![1, 4]);
        assert_eq!(train, vec![0, 2, 3]);
    }

    #[test]
    fn empty_holdout_set_keeps_everything_in_train() {
        let groups = vec![1, 2, 3];
        let (train, test) = group_holdout(&groups, &HashSet::new());
        assert_eq!(train.len(), 3);
        assert!(test.is_empty());
    }
}
