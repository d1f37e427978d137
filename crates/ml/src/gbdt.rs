//! Gradient boosting with logistic loss — the XGBoost-substitute classifier.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::flat::FlatForest;
use crate::metrics::log_loss;
use crate::tree::{
    grow, sample_features, sample_rows, split_workers, Binner, FitContext, RegressionTree,
    TreeParams,
};

/// Hyper-parameters of the boosted ensemble. Defaults follow XGBoost's
/// conventional settings ("standard hyperparameters" per §5.2 of the paper).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum loss reduction to split.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Fraction of rows sampled per tree.
    pub subsample: f64,
    /// Fraction of features sampled per tree.
    pub colsample_bytree: f64,
    /// Number of histogram bins for split finding.
    pub max_bins: usize,
    /// RNG seed controlling subsampling.
    pub seed: u64,
    /// Stop after this many rounds without validation-loss improvement
    /// (only active when a validation set is supplied).
    pub early_stopping_rounds: Option<usize>,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            max_bins: 64,
            seed: 42,
            early_stopping_rounds: None,
        }
    }
}

impl GbdtParams {
    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            lambda: self.lambda,
            gamma: self.gamma,
            min_child_weight: self.min_child_weight,
        }
    }
}

/// Logistic-loss gradients and hessians of every row at the current margins.
fn logistic_gradients(train: &Dataset, margins: &[f64], grad: &mut [f32], hess: &mut [f32]) {
    for (i, &margin) in margins.iter().enumerate() {
        let p = sigmoid(margin);
        grad[i] = (p - train.label(i) as f64) as f32;
        hess[i] = (p * (1.0 - p)).max(1e-8) as f32;
    }
}

/// A fitted gradient-boosted tree ensemble for binary classification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtModel {
    params: GbdtParams,
    base_margin: f64,
    trees: Vec<RegressionTree>,
    feature_names: Vec<String>,
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl GbdtModel {
    /// Fit a model on the training dataset.
    ///
    /// # Panics
    /// Panics when the training set is empty.
    pub fn fit(train: &Dataset, params: GbdtParams) -> Self {
        Self::fit_with_validation(train, None, params)
    }

    /// Fit with an optional validation set used for early stopping.
    pub fn fit_with_validation(
        train: &Dataset,
        validation: Option<&Dataset>,
        params: GbdtParams,
    ) -> Self {
        assert!(!train.is_empty(), "cannot fit on an empty dataset");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = train.n_rows();

        // Base margin: log-odds of the training positive rate, clipped so a
        // single-class dataset still yields finite margins.
        let pos_rate = train.positive_rate().clamp(1e-6, 1.0 - 1e-6);
        let base_margin = (pos_rate / (1.0 - pos_rate)).ln();

        let binner = Binner::fit(train, &(0..n).collect::<Vec<_>>(), params.max_bins);
        let binned = binner.bin_matrix(train);

        let mut margins = vec![base_margin; n];
        let mut val_margins = validation.map(|v| vec![base_margin; v.n_rows()]);
        let mut best_val_loss = f64::INFINITY;
        let mut rounds_since_best = 0usize;

        let mut trees: Vec<RegressionTree> = Vec::with_capacity(params.n_estimators);
        let mut grad = vec![0.0f32; n];
        let mut hess = vec![0.0f32; n];
        let workers = split_workers();
        for _round in 0..params.n_estimators {
            logistic_gradients(train, &margins, &mut grad, &mut hess);
            let rows = sample_rows(n, params.subsample, &mut rng);
            let features = sample_features(train.n_features(), params.colsample_bytree, &mut rng);
            let ctx = FitContext {
                binned: &binned,
                n_features: train.n_features(),
                grad: &grad,
                hess: &hess,
                binner: &binner,
                params: params.tree_params(),
            };
            let (mut tree, leaf_of) = grow(&ctx, &rows, &features, workers);
            tree.scale_values(params.learning_rate);
            // A grown row's binned route reaches the leaf its raw values
            // would (`bin <= b` exactly when `v <= cuts[b]`), so only the
            // rows subsampling left out walk the tree.
            for (r, (margin, leaf)) in margins.iter_mut().zip(&leaf_of).enumerate() {
                *margin += match *leaf {
                    Some(leaf) => tree.nodes()[leaf].value(),
                    None => tree.predict_row(train.row(r)),
                };
            }
            if let (Some(val), Some(vm)) = (validation, val_margins.as_mut()) {
                for (i, margin) in vm.iter_mut().enumerate().take(val.n_rows()) {
                    *margin += tree.predict_row(val.row(i));
                }
            }
            trees.push(tree);

            // Early stopping on validation log-loss.
            if let (Some(val), Some(vm), Some(patience)) = (
                validation,
                val_margins.as_ref(),
                params.early_stopping_rounds,
            ) {
                let probs: Vec<f64> = vm.iter().map(|&m| sigmoid(m)).collect();
                let loss = log_loss(val.labels(), &probs);
                if loss + 1e-9 < best_val_loss {
                    best_val_loss = loss;
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                    if rounds_since_best >= patience {
                        break;
                    }
                }
            }
        }

        Self {
            params,
            base_margin,
            trees,
            feature_names: train.feature_names().to_vec(),
        }
    }

    /// Reassemble a model from its parts — the deserialisation counterpart
    /// of the accessors below, used by the `redsus_serve` artifact reader.
    ///
    /// # Panics
    /// Panics when `feature_names` is empty (a model must know its row
    /// width). Tree topology is the caller's responsibility (see
    /// [`RegressionTree::from_nodes`]).
    pub fn from_parts(
        params: GbdtParams,
        base_margin: f64,
        trees: Vec<RegressionTree>,
        feature_names: Vec<String>,
    ) -> Self {
        assert!(
            !feature_names.is_empty(),
            "a model needs at least one feature"
        );
        Self {
            params,
            base_margin,
            trees,
            feature_names,
        }
    }

    /// Test oracle: the raw additive margin (log-odds) of one row, walked
    /// tree by tree through the recursive node arrays.
    #[cfg(test)]
    pub(crate) fn predict_margin(&self, row: &[f32]) -> f64 {
        self.base_margin + self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Test oracle: `sigmoid` of [`GbdtModel::predict_margin`].
    #[cfg(test)]
    pub(crate) fn predict_proba(&self, row: &[f32]) -> f64 {
        sigmoid(self.predict_margin(row))
    }

    /// Probability of the positive class (the claim is suspicious / likely
    /// unserved) for every row of a dataset: the model is lowered once into
    /// a [`FlatForest`] and the dataset's row-major matrix is scored by its
    /// block-batched kernel, the one the score server runs.
    ///
    /// # Panics
    /// Panics when the dataset width differs from the model's feature count.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<f64> {
        assert_eq!(
            data.n_features(),
            self.feature_names.len(),
            "dataset width does not match the model schema"
        );
        let mut scores = vec![0.0f64; data.n_rows()];
        FlatForest::from_model(self).predict_margin_rows_into(data.data(), &mut scores);
        for s in &mut scores {
            *s = sigmoid(*s);
        }
        scores
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The trees.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// The constant margin the ensemble starts from.
    pub fn base_margin(&self) -> f64 {
        self.base_margin
    }

    /// Names of the features the model was trained on.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The hyper-parameters used for training.
    pub fn params(&self) -> &GbdtParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use crate::tree::grow_recursively;
    use crate::tree::tests::mixed_columns;

    /// Replays the rounds of `model`, fitted on `train` with `params`: each
    /// round takes the fit's row and feature samples and the gradients at
    /// the replay's own margins, grows a tree with `grow_round`, scales it by
    /// the learning rate and adds every row's walked prediction to the
    /// margins. Returns the scaled trees.
    fn replay_fit(
        model: &GbdtModel,
        train: &Dataset,
        params: GbdtParams,
        mut grow_round: impl FnMut(&FitContext<'_>, &[usize], &[usize]) -> RegressionTree,
    ) -> Vec<RegressionTree> {
        let n = train.n_rows();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let binner = Binner::fit(train, &(0..n).collect::<Vec<_>>(), params.max_bins);
        let binned = binner.bin_matrix(train);
        let (mut grad, mut hess) = (vec![0.0f32; n], vec![0.0f32; n]);
        let mut margins = vec![model.base_margin(); n];
        let mut trees = Vec::with_capacity(model.n_trees());
        for _ in 0..model.n_trees() {
            logistic_gradients(train, &margins, &mut grad, &mut hess);
            let rows = sample_rows(n, params.subsample, &mut rng);
            let features = sample_features(train.n_features(), params.colsample_bytree, &mut rng);
            let ctx = FitContext {
                binned: &binned,
                n_features: train.n_features(),
                grad: &grad,
                hess: &hess,
                binner: &binner,
                params: params.tree_params(),
            };
            let mut tree = grow_round(&ctx, &rows, &features);
            tree.scale_values(params.learning_rate);
            for (r, margin) in margins.iter_mut().enumerate() {
                *margin += tree.predict_row(train.row(r));
            }
            trees.push(tree);
        }
        trees
    }

    /// Routing grown rows' margins by their recorded leaf must equal walking
    /// every row through the tree. The test replays a subsampled fit with
    /// the walk: every recorded leaf must end the row's raw decision path
    /// with the walked value's bits, and the replay must grow the fitted
    /// model's trees.
    #[test]
    fn leaf_routing_matches_the_tree_walk() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(12);
        let mut train = Dataset::new(vec!["x0".into(), "x1".into(), "noise".into()]);
        for _ in 0..400 {
            let mut row = [0.0f32; 3];
            for v in &mut row {
                *v = if rng.gen_range(0.0..1.0) < 0.15 {
                    f32::NAN
                } else {
                    rng.gen_range(0.0..1.0)
                };
            }
            let label = (row[0] > 0.6 && (row[1].is_nan() || row[1] >= 0.3)) || row[1] > 0.85;
            train.push_row(&row, label as u8 as f32);
        }
        let params = GbdtParams {
            n_estimators: 20,
            max_depth: 4,
            subsample: 0.7,
            ..quick_params()
        };
        let model = GbdtModel::fit(&train, params);

        let mut routes = Vec::new();
        let replayed = replay_fit(&model, &train, params, |ctx, rows, features| {
            let (tree, leaf_of) = grow(ctx, rows, features, 1);
            assert_eq!(leaf_of.iter().flatten().count(), rows.len());
            routes.push(leaf_of);
            tree
        });
        let mut routed = 0;
        for (round, ((tree, leaf_of), fitted)) in
            replayed.iter().zip(&routes).zip(model.trees()).enumerate()
        {
            assert_eq!(format!("{tree:?}"), format!("{fitted:?}"), "round {round}");
            for (r, leaf) in leaf_of.iter().enumerate() {
                if let Some(leaf) = *leaf {
                    let walked = tree.predict_row(train.row(r));
                    assert_eq!(tree.decision_path(train.row(r)).last(), Some(&leaf));
                    assert_eq!(tree.nodes()[leaf].value().to_bits(), walked.to_bits());
                    routed += 1;
                }
            }
        }
        assert_eq!(model.n_trees(), 20);
        assert!(routed > 0);
    }

    /// A fit shaped like the paper's preset — 60 rounds at depth 5,
    /// subsample 0.9 and colsample 0.8 of 96 mixed columns, so the split
    /// search fans out on a host with two or more CPUs — must grow, round
    /// for round, the trees the recursive direct-sum builder grows from the
    /// same gradients: histogram subtraction must not move a split.
    #[test]
    fn fit_matches_the_direct_sum_reference() {
        let mut rng = StdRng::seed_from_u64(0xd5);
        let train = mixed_columns(&mut rng, 1500, 96).d;
        let params = GbdtParams {
            n_estimators: 60,
            learning_rate: 0.15,
            max_depth: 5,
            subsample: 0.9,
            colsample_bytree: 0.8,
            ..GbdtParams::default()
        };
        let model = GbdtModel::fit(&train, params);
        let replayed = replay_fit(&model, &train, params, |ctx, rows, features| {
            let mut nodes = Vec::new();
            grow_recursively(ctx, &mut nodes, rows.to_vec(), features, 0);
            RegressionTree::from_nodes(nodes)
        });
        assert_eq!(model.n_trees(), 60);
        for (round, (fitted, reference)) in model.trees().iter().zip(&replayed).enumerate() {
            assert_eq!(
                format!("{fitted:?}"),
                format!("{reference:?}"),
                "round {round}"
            );
        }
    }

    /// Two informative features plus one noise feature; labels depend on a
    /// non-linear interaction so the test exercises depth > 1.
    fn make_data(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "noise".into()]);
        for _ in 0..n {
            let x0: f32 = rng.gen_range(0.0..1.0);
            let x1: f32 = rng.gen_range(0.0..1.0);
            let noise: f32 = rng.gen_range(0.0..1.0);
            let label = if (x0 > 0.6 && x1 > 0.3) || x1 > 0.85 {
                1.0
            } else {
                0.0
            };
            d.push_row(&[x0, x1, noise], label);
        }
        d
    }

    fn quick_params() -> GbdtParams {
        GbdtParams {
            n_estimators: 30,
            max_depth: 3,
            learning_rate: 0.3,
            ..GbdtParams::default()
        }
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let train = make_data(600, 1);
        let test = make_data(200, 2);
        let model = GbdtModel::fit(&train, quick_params());
        let probs = model.predict_dataset(&test);
        let auc = roc_auc(test.labels(), &probs);
        assert!(auc > 0.95, "test AUC was {auc}");
    }

    #[test]
    fn beats_base_rate_on_training_data() {
        let train = make_data(300, 3);
        let model = GbdtModel::fit(&train, quick_params());
        let probs = model.predict_dataset(&train);
        let auc = roc_auc(train.labels(), &probs);
        assert!(auc > 0.98, "train AUC was {auc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let train = make_data(200, 4);
        let a = GbdtModel::fit(&train, quick_params());
        let b = GbdtModel::fit(&train, quick_params());
        let row = train.row(0);
        assert_eq!(a.predict_proba(row), b.predict_proba(row));
    }

    #[test]
    fn base_margin_matches_class_balance() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            d.push_row(&[i as f32], if i < 25 { 1.0 } else { 0.0 });
        }
        let model = GbdtModel::fit(
            &d,
            GbdtParams {
                n_estimators: 1,
                ..quick_params()
            },
        );
        // log-odds of 0.25 = ln(1/3).
        assert!((model.base_margin() - (0.25f64 / 0.75).ln()).abs() < 1e-9);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let train = make_data(200, 5);
        let model = GbdtModel::fit(&train, quick_params());
        for p in model.predict_dataset(&train) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn early_stopping_reduces_tree_count() {
        let train = make_data(400, 6);
        let valid = make_data(150, 7);
        let params = GbdtParams {
            n_estimators: 200,
            early_stopping_rounds: Some(5),
            ..quick_params()
        };
        let model = GbdtModel::fit_with_validation(&train, Some(&valid), params);
        assert!(
            model.n_trees() < 200,
            "expected early stop, got {}",
            model.n_trees()
        );
        assert!(model.n_trees() >= 5);
    }

    #[test]
    fn subsampling_still_learns() {
        let train = make_data(600, 8);
        let params = GbdtParams {
            subsample: 0.5,
            colsample_bytree: 0.7,
            ..quick_params()
        };
        let model = GbdtModel::fit(&train, params);
        let probs = model.predict_dataset(&train);
        assert!(roc_auc(train.labels(), &probs) > 0.9);
    }

    #[test]
    fn handles_missing_features_at_predict_time() {
        let train = make_data(300, 9);
        let model = GbdtModel::fit(&train, quick_params());
        let p = model.predict_proba(&[f32::NAN, f32::NAN, f32::NAN]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn single_class_training_does_not_blow_up() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push_row(&[i as f32], 0.0);
        }
        let model = GbdtModel::fit(&d, quick_params());
        let p = model.predict_proba(&[10.0]);
        assert!(
            p < 0.05,
            "all-negative training should predict near zero, got {p}"
        );
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let d = Dataset::new(vec!["x".into()]);
        let _ = GbdtModel::fit(&d, GbdtParams::default());
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }
}
