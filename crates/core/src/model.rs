//! Model training and the paper's hold-out evaluation strategies (§6.2).

use std::collections::HashSet;

use ml::metrics::classification_report;
use ml::{
    f1_score, group_holdout, roc_auc, roc_curve, train_test_split, GbdtModel, GbdtParams,
    RandomBaseline,
};
use serde::{Deserialize, Serialize};

use crate::features::FeatureMatrix;
use crate::labels::LabelSource;

/// Evaluation of a model on a hold-out set, together with the naive
/// random-guessing baseline the paper compares against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluationResult {
    /// ROC AUC of the model.
    pub auc: f64,
    /// F1 of the positive (suspicious/unserved) class at threshold 0.5.
    pub f1: f64,
    /// Full precision/recall/F1/confusion report at threshold 0.5.
    pub report: ml::ClassificationReport,
    /// ROC curve points (FPR, TPR).
    pub roc: Vec<(f64, f64)>,
    /// ROC AUC of the random baseline on the same hold-out.
    pub baseline_auc: f64,
    /// Number of hold-out rows.
    pub support: usize,
}

/// The hold-out strategies of §6.2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HoldoutStrategy {
    /// A random fraction of observations (§6.2.1).
    RandomObservations { fraction: f64 },
    /// A random fraction of observations labelled by FCC-adjudicated
    /// challenges only (§6.2.1, second evaluation).
    AdjudicatedOnly { fraction: f64 },
    /// Whole states held out of training (§6.2.2).
    States(Vec<String>),
}

/// Outcome of training under a hold-out strategy.
pub struct HoldoutOutcome {
    /// The trained model.
    pub model: GbdtModel,
    /// Evaluation on the held-out rows.
    pub evaluation: EvaluationResult,
    /// Row indices (into the feature matrix) of the held-out set.
    pub test_rows: Vec<usize>,
}

/// Default GBDT hyper-parameters used throughout the experiments; mirrors
/// XGBoost's "standard hyperparameters" at a scale that trains in seconds on
/// the synthetic world.
pub fn default_params(seed: u64) -> GbdtParams {
    GbdtParams {
        n_estimators: 60,
        learning_rate: 0.15,
        max_depth: 5,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 1.0,
        subsample: 0.9,
        colsample_bytree: 0.8,
        max_bins: 64,
        seed,
        early_stopping_rounds: None,
    }
}

/// Evaluate a trained model against a hold-out subset of the matrix.
pub fn evaluate(
    model: &GbdtModel,
    matrix: &FeatureMatrix,
    rows: &[usize],
    seed: u64,
) -> EvaluationResult {
    let test = matrix.dataset.subset(rows);
    let probs = model.predict_dataset(&test);
    let baseline = RandomBaseline::new(seed).predict_dataset(&test);
    EvaluationResult {
        auc: roc_auc(test.labels(), &probs),
        f1: f1_score(test.labels(), &probs, 0.5),
        report: classification_report(test.labels(), &probs, 0.5),
        roc: roc_curve(test.labels(), &probs),
        baseline_auc: roc_auc(test.labels(), &baseline),
        support: rows.len(),
    }
}

/// Train under a hold-out strategy and evaluate on the held-out rows.
pub fn run_holdout(
    matrix: &FeatureMatrix,
    strategy: &HoldoutStrategy,
    params: GbdtParams,
) -> HoldoutOutcome {
    let n = matrix.dataset.n_rows();
    let (train_rows, test_rows) = match strategy {
        HoldoutStrategy::RandomObservations { fraction } => {
            train_test_split(n, *fraction, params.seed)
        }
        HoldoutStrategy::AdjudicatedOnly { fraction } => {
            // Hold out a fraction of the FCC-adjudicated observations; train
            // on everything else.
            let adjudicated: Vec<usize> = matrix
                .rows_where(|o| matches!(o.source, LabelSource::Challenge { adjudicated: true }));
            let (_, held) = train_test_split(adjudicated.len(), *fraction, params.seed);
            let held: HashSet<usize> = held.into_iter().map(|i| adjudicated[i]).collect();
            let train: Vec<usize> = (0..n).filter(|i| !held.contains(i)).collect();
            let mut test: Vec<usize> = held.into_iter().collect();
            test.sort_unstable();
            (train, test)
        }
        HoldoutStrategy::States(states) => {
            let held: HashSet<String> = states.iter().cloned().collect();
            group_holdout(&matrix.states(), &held)
        }
    };
    let train = matrix.dataset.subset(&train_rows);
    let model = GbdtModel::fit(&train, params);
    let evaluation = evaluate(&model, matrix, &test_rows, params.seed);
    HoldoutOutcome {
        model,
        evaluation,
        test_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::labels::LabelingOptions;
    use crate::pipeline::PipelineEngine;
    use obs::Telemetry;
    use synth::{SynthConfig, SynthUs};

    // Seed re-pinned when world generation moved to sharded RNG streams.
    fn matrix() -> FeatureMatrix {
        let world = SynthUs::generate(&SynthConfig::tiny(9));
        PipelineEngine
            .run_to_dataset_with(
                &world,
                &LabelingOptions::default(),
                &FeatureConfig::default(),
                &Telemetry::disabled(),
            )
            .matrix
    }

    #[test]
    fn random_observation_holdout_beats_baseline() {
        let m = matrix();
        let outcome = run_holdout(
            &m,
            &HoldoutStrategy::RandomObservations { fraction: 0.1 },
            default_params(1),
        );
        let e = &outcome.evaluation;
        assert!(e.auc > 0.85, "model AUC {}", e.auc);
        assert!(e.auc > e.baseline_auc + 0.2);
        assert!(e.f1 > 0.6, "F1 {}", e.f1);
        assert_eq!(e.support, outcome.test_rows.len());
    }

    #[test]
    fn state_holdout_generalises() {
        let m = matrix();
        let outcome = run_holdout(
            &m,
            &HoldoutStrategy::States(vec!["NE".into(), "GA".into(), "OK".into()]),
            default_params(2),
        );
        assert!(!outcome.test_rows.is_empty());
        // Every held-out row belongs to a held-out state.
        for &r in &outcome.test_rows {
            assert!(["NE", "GA", "OK"].contains(&m.observations[r].state.as_str()));
        }
        assert!(
            outcome.evaluation.auc > 0.8,
            "state-holdout AUC {}",
            outcome.evaluation.auc
        );
    }

    #[test]
    fn adjudicated_holdout_contains_only_adjudicated_rows() {
        let m = matrix();
        let outcome = run_holdout(
            &m,
            &HoldoutStrategy::AdjudicatedOnly { fraction: 0.3 },
            default_params(3),
        );
        for &r in &outcome.test_rows {
            assert!(matches!(
                m.observations[r].source,
                LabelSource::Challenge { adjudicated: true }
            ));
        }
        // The adjudicated subset is small and carries genuine label noise
        // (claims the FCC could not find enough evidence against); the paper
        // also reports degraded performance here. The model must still beat
        // chance clearly.
        assert!(
            outcome.evaluation.auc > 0.55,
            "auc {}",
            outcome.evaluation.auc
        );
    }
}
