//! The naive random-guessing baseline the paper compares its classifier
//! against (§6.2: "we employ an evaluation strategy that compares our models'
//! performance to a naive 'random guessing' approach").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// A baseline that assigns uniformly random scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomBaseline {
    seed: u64,
}

impl RandomBaseline {
    /// A baseline drawing its scores from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Uniformly random scores for every row of a dataset; expected ROC AUC
    /// is 0.5.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..data.n_rows())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;

    fn data(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            d.push_row(&[i as f32], if i % 3 == 0 { 1.0 } else { 0.0 });
        }
        d
    }

    #[test]
    fn auc_close_to_half() {
        let d = data(2000);
        let baseline = RandomBaseline::new(9);
        let scores = baseline.predict_dataset(&d);
        let auc = roc_auc(d.labels(), &scores);
        assert!((auc - 0.5).abs() < 0.05, "baseline AUC {auc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let d = data(100);
        let a = RandomBaseline::new(1).predict_dataset(&d);
        let b = RandomBaseline::new(1).predict_dataset(&d);
        assert_eq!(a, b);
    }
}
