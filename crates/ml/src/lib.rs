//! From-scratch gradient-boosted decision trees and supporting ML machinery —
//! the XGBoost substitute used by the `red_is_sus` pipeline.
//!
//! The paper trains an XGBoost binary classifier over ~750k observations to
//! predict which NBM availability claims would fail a challenge (§5.2), tunes
//! it with Bayesian hyper-parameter optimisation, evaluates it with ROC-AUC /
//! F1 on several hold-out strategies (§6.2) and interprets it with SHAP
//! (Appendix E). This crate reimplements that stack natively:
//!
//! * [`dataset`] — dense feature matrices with missing values (NaN),
//! * [`tree`] — histogram-based regression trees with second-order gradient
//!   splits, L2 regularisation, minimum-split-loss (γ) pruning and learned
//!   default directions for missing values, grown one depth at a time with
//!   one split-search fan-out per depth. Each split builds its smaller
//!   child's histograms from its rows and derives the larger child's as
//!   parent − smaller: equal to the direct row sums up to rounding (to the
//!   bit on the paper's fits), with exact ties kept and nothing depending on
//!   the worker count,
//! * [`gbdt`] — the boosting loop with logistic loss, learning-rate shrinkage,
//!   row/column subsampling and optional early stopping,
//! * [`metrics`] — ROC curves/AUC, precision/recall/F1, confusion matrices,
//!   log-loss,
//! * [`split`] — seeded train/test, stratified and group-holdout splitting and
//!   k-fold cross-validation,
//! * [`hyperopt`] — random search plus a coarse-to-fine successive-refinement
//!   search standing in for Bayesian optimisation,
//! * [`attribution`] — per-prediction feature contributions (Saabas-style
//!   path attribution, the fast TreeSHAP approximation; contributions sum
//!   exactly to the prediction margin) powering the paper's Figure 10/11
//!   analyses,
//! * [`flat`] — the recursive trees lowered into breadth-first contiguous
//!   node arrays ([`FlatForest`]) with a block-batched level-synchronous
//!   traversal kernel, proven bit-identical to
//!   [`GbdtModel::predict_margin`] and shared by the attribution walk and
//!   the `redsus_serve` scorers,
//! * [`quant`] — the flat forest with thresholds quantised to u16 bin
//!   ranks ([`QuantForest`]): exact by a rank-ordering argument, verified
//!   at construction, falling back per-tree when a tree cannot be
//!   quantised exactly,
//! * [`baseline`] — the random-guessing baseline the paper compares against.

pub mod attribution;
pub mod baseline;
pub mod dataset;
pub mod flat;
pub mod gbdt;
pub mod hyperopt;
pub mod metrics;
pub mod quant;
pub mod split;
pub mod tree;

pub use attribution::{
    explain_row, explain_with_forest, summarize_attributions, Explanation, FeatureImportance,
};
pub use baseline::RandomBaseline;
pub use dataset::Dataset;
pub use flat::{FlatForest, FlatNode};
pub use gbdt::{GbdtModel, GbdtParams};
pub use metrics::{
    accuracy, confusion_matrix, f1_score, log_loss, precision_recall_f1, roc_auc, roc_curve,
    ClassMetrics, ClassificationReport, ConfusionMatrix,
};
pub use quant::QuantForest;
pub use split::{group_holdout, stratified_kfold, stratified_split, train_test_split};
pub use tree::{RegressionTree, TreeParams};
