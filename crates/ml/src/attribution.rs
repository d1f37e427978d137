//! Per-prediction feature attributions and global feature-importance
//! summaries (the paper's Appendix E analysis, Figures 10 and 11).
//!
//! For every tree, walking the decision path from root to leaf and crediting
//! each split's change in expected value to the split feature yields a set of
//! per-feature contributions that sum *exactly* to the prediction margin minus
//! the model's expected margin. This is the Saabas path-attribution scheme —
//! the fast, exact-additivity approximation of TreeSHAP used here in place of
//! the full SHAP algorithm: it costs one root-to-leaf walk per tree and its
//! attributions still sum exactly to the margin. The downstream uses (ranking
//! top features, a per-prediction waterfall, direction-of-effect analysis) are
//! identical.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::flat::FlatForest;
use crate::gbdt::GbdtModel;

/// The attribution of one prediction to its features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Explanation {
    /// The expected margin of the model (base margin plus each tree's root
    /// expectation) — the point contributions are measured from.
    pub base_value: f64,
    /// Per-feature contribution to the margin, aligned with the model's
    /// feature order.
    pub contributions: Vec<f64>,
    /// The full prediction margin (`base_value + Σ contributions`).
    pub margin: f64,
    /// The predicted probability.
    pub probability: f64,
}

impl Explanation {
    /// The features sorted by descending absolute contribution, as
    /// `(feature_index, contribution)` pairs — the rows of a waterfall plot.
    pub fn ranked(&self) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self.contributions.iter().copied().enumerate().collect();
        v.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
        v
    }
}

/// Attribute a single row's prediction to the model's features.
///
/// Convenience wrapper that lowers the model once; callers attributing many
/// rows should lower once themselves and use [`explain_with_forest`] (as
/// [`summarize_attributions`] does).
pub fn explain_row(model: &GbdtModel, row: &[f32]) -> Explanation {
    explain_with_forest(&FlatForest::from_model(model), row)
}

/// Attribute a single row's prediction by walking the shared [`FlatForest`]
/// decision-path structure — the same flattened traversal the serving
/// scorers use, so attribution can never drift from prediction.
pub fn explain_with_forest(forest: &FlatForest, row: &[f32]) -> Explanation {
    let n_features = forest.n_features();
    let mut contributions = vec![0.0f64; n_features];
    let mut base_value = forest.base_margin();
    // The margin folds each path's leaf in tree order from 0.0 and adds the
    // base margin last, as the batched kernel does.
    let mut leaf_sum = 0.0f64;
    for tree in 0..forest.n_trees() {
        let path = forest.decision_path(tree, row);
        base_value += forest.node(path[0]).value;
        leaf_sum += forest.node(path[path.len() - 1]).value;
        for w in path.windows(2) {
            let parent = forest.node(w[0]);
            let child = forest.node(w[1]);
            if let Some(feature) = parent.split_feature() {
                contributions[feature] += child.value - parent.value;
            }
        }
    }
    let margin = forest.base_margin() + leaf_sum;
    Explanation {
        base_value,
        contributions,
        margin,
        probability: crate::gbdt::sigmoid(margin),
    }
}

/// Global importance of one feature aggregated over a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Feature index in the model's feature order.
    pub feature: usize,
    /// Feature name.
    pub name: String,
    /// Mean absolute contribution over the summarised rows.
    pub mean_abs_contribution: f64,
    /// Mean signed contribution over the summarised rows.
    pub mean_contribution: f64,
    /// Pearson correlation between the feature's value and its contribution;
    /// positive means "higher value pushes towards the suspicious class",
    /// which is how Figure 10's colour gradient reads.
    pub value_contribution_correlation: f64,
}

/// Summarise attributions over (up to `max_rows` of) a dataset and return the
/// features sorted by descending mean absolute contribution — the content of
/// the paper's SHAP summary plot (Figure 10).
pub fn summarize_attributions(
    model: &GbdtModel,
    data: &Dataset,
    max_rows: usize,
) -> Vec<FeatureImportance> {
    let forest = FlatForest::from_model(model);
    let n_rows = data.n_rows().min(max_rows);
    let n_features = model.feature_names().len();
    let mut abs_sum = vec![0.0f64; n_features];
    let mut sum = vec![0.0f64; n_features];
    // Accumulators for the value/contribution correlation.
    let mut v_sum = vec![0.0f64; n_features];
    let mut v_sq = vec![0.0f64; n_features];
    let mut c_sq = vec![0.0f64; n_features];
    let mut vc_sum = vec![0.0f64; n_features];
    let mut present = vec![0usize; n_features];

    for r in 0..n_rows {
        let row = data.row(r);
        let exp = explain_with_forest(&forest, row);
        for f in 0..n_features {
            let c = exp.contributions[f];
            abs_sum[f] += c.abs();
            sum[f] += c;
            let v = row[f];
            if !v.is_nan() {
                present[f] += 1;
                v_sum[f] += v as f64;
                v_sq[f] += (v as f64) * (v as f64);
                c_sq[f] += c * c;
                vc_sum[f] += v as f64 * c;
            }
        }
    }

    let mut out: Vec<FeatureImportance> = (0..n_features)
        .map(|f| {
            let n = n_rows.max(1) as f64;
            let np = present[f] as f64;
            let correlation = if present[f] < 2 {
                0.0
            } else {
                let mean_v = v_sum[f] / np;
                let mean_c = sum[f] / n; // contribution mean over all rows ~ fine
                let cov = vc_sum[f] / np - mean_v * mean_c;
                let var_v = (v_sq[f] / np - mean_v * mean_v).max(0.0);
                let var_c = (c_sq[f] / np - mean_c * mean_c).max(0.0);
                if var_v <= 1e-18 || var_c <= 1e-18 {
                    0.0
                } else {
                    (cov / (var_v.sqrt() * var_c.sqrt())).clamp(-1.0, 1.0)
                }
            };
            FeatureImportance {
                feature: f,
                name: model.feature_names()[f].clone(),
                mean_abs_contribution: abs_sum[f] / n_rows.max(1) as f64,
                mean_contribution: sum[f] / n_rows.max(1) as f64,
                value_contribution_correlation: correlation,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.mean_abs_contribution
            .partial_cmp(&a.mean_abs_contribution)
            .unwrap()
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn make_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["signal".into(), "weak".into(), "noise".into()]);
        for _ in 0..n {
            let signal: f32 = rng.gen_range(0.0..1.0);
            let weak: f32 = rng.gen_range(0.0..1.0);
            let noise: f32 = rng.gen_range(0.0..1.0);
            let p = 0.85 * signal + 0.15 * weak;
            let label = if p > 0.5 { 1.0 } else { 0.0 };
            d.push_row(&[signal, weak, noise], label);
        }
        d
    }

    fn model_and_data() -> (GbdtModel, Dataset) {
        let d = make_data(500, 11);
        let model = GbdtModel::fit(
            &d,
            GbdtParams {
                n_estimators: 40,
                max_depth: 3,
                learning_rate: 0.2,
                ..GbdtParams::default()
            },
        );
        (model, d)
    }

    #[test]
    fn contributions_sum_to_margin() {
        let (model, d) = model_and_data();
        for r in (0..d.n_rows()).step_by(37) {
            let exp = explain_row(&model, d.row(r));
            let reconstructed = exp.base_value + exp.contributions.iter().sum::<f64>();
            assert!(
                (reconstructed - exp.margin).abs() < 1e-6,
                "additivity violated: {reconstructed} vs {exp:?}"
            );
        }
    }

    #[test]
    fn signal_feature_dominates_importance() {
        let (model, d) = model_and_data();
        let summary = summarize_attributions(&model, &d, 300);
        assert_eq!(summary[0].name, "signal");
        assert!(summary[0].mean_abs_contribution > summary.last().unwrap().mean_abs_contribution);
    }

    #[test]
    fn signal_direction_is_positive() {
        let (model, d) = model_and_data();
        let summary = summarize_attributions(&model, &d, 300);
        let signal = summary.iter().find(|f| f.name == "signal").unwrap();
        assert!(
            signal.value_contribution_correlation > 0.5,
            "correlation {}",
            signal.value_contribution_correlation
        );
    }

    #[test]
    fn ranked_is_sorted_by_magnitude() {
        let (model, d) = model_and_data();
        let exp = explain_row(&model, d.row(0));
        let ranked = exp.ranked();
        for w in ranked.windows(2) {
            assert!(w[0].1.abs() >= w[1].1.abs());
        }
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn probability_matches_model() {
        let (model, d) = model_and_data();
        let exp = explain_row(&model, d.row(5));
        assert!((exp.probability - model.predict_proba(d.row(5))).abs() < 1e-12);
    }

    /// The shared FlatForest walk must reproduce, bit for bit, what the old
    /// recursive descent computed: same decision paths, same per-feature
    /// credits, same base value. The recursive reference is kept inline here
    /// as ground truth.
    #[test]
    fn flat_walk_matches_recursive_reference() {
        use crate::tree::Node;
        let (model, d) = model_and_data();
        let forest = FlatForest::from_model(&model);
        for r in (0..d.n_rows()).step_by(29) {
            let row = d.row(r);
            let n_features = model.feature_names().len();
            let mut contributions = vec![0.0f64; n_features];
            let mut base_value = model.base_margin();
            for (t, tree) in model.trees().iter().enumerate() {
                let path = tree.decision_path(row);
                // Identical decision paths, node for node. Flat nodes live
                // in breadth-first order, so compare node content (value
                // bits) along the walk rather than raw indices.
                let flat_path = forest.decision_path(t, row);
                assert_eq!(
                    flat_path.len(),
                    path.len(),
                    "tree {t} path drift at row {r}"
                );
                let nodes_ref = tree.nodes();
                for (step, (&fi, &ri)) in flat_path.iter().zip(&path).enumerate() {
                    assert_eq!(
                        forest.node(fi).value.to_bits(),
                        nodes_ref[ri].value().to_bits(),
                        "tree {t} path node drift at row {r} step {step}"
                    );
                }
                let nodes = tree.nodes();
                base_value += nodes[path[0]].value();
                for w in path.windows(2) {
                    if let Node::Split { feature, .. } = &nodes[w[0]] {
                        contributions[*feature] += nodes[w[1]].value() - nodes[w[0]].value();
                    }
                }
            }
            let exp = explain_with_forest(&forest, row);
            assert_eq!(exp.base_value.to_bits(), base_value.to_bits());
            assert_eq!(exp.margin.to_bits(), model.predict_margin(row).to_bits());
            for (f, (flat, reference)) in exp.contributions.iter().zip(&contributions).enumerate() {
                assert_eq!(
                    flat.to_bits(),
                    reference.to_bits(),
                    "contribution drift for feature {f} at row {r}"
                );
            }
        }
    }

    #[test]
    fn summary_handles_small_row_cap() {
        let (model, d) = model_and_data();
        let summary = summarize_attributions(&model, &d, 10);
        assert_eq!(summary.len(), 3);
    }
}
