//! Dense datasets for supervised binary classification.
//!
//! Rows are stored row-major as `f32`; missing values are encoded as `NaN`
//! (the trees learn a default direction for them, like XGBoost's sparsity-aware
//! splits). Labels are 0.0 / 1.0.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A dense feature matrix with binary labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    feature_names: Vec<String>,
    /// Name → column index, precomputed at construction: serving resolves
    /// feature names per request, so the lookup must not scan all names.
    /// Derived from `feature_names`, so it is skipped on the wire and
    /// rebuilt by the constructor (the `NbmRelease::claim_index` pattern).
    #[serde(skip)]
    name_index: HashMap<String, usize>,
    n_features: usize,
    data: Vec<f32>,
    labels: Vec<f32>,
}

impl Dataset {
    /// Create an empty dataset with the given feature names.
    ///
    /// # Panics
    /// Panics when no features are given.
    pub fn new(feature_names: Vec<String>) -> Self {
        assert!(!feature_names.is_empty(), "a dataset needs features");
        let n_features = feature_names.len();
        let name_index = crate::flat::build_name_index(&feature_names);
        Self {
            feature_names,
            name_index,
            n_features,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the row length does not match the feature count or the
    /// label is not 0 or 1.
    pub fn push_row(&mut self, row: &[f32], label: f32) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!(label == 0.0 || label == 1.0, "labels must be 0 or 1");
        self.data.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Index of a feature by name — O(1) via the precomputed map (duplicate
    /// names resolve to the first occurrence, matching the old linear scan).
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.name_index.get(name).copied()
    }

    /// The whole feature matrix as one contiguous row-major slice
    /// (`n_rows × n_features`) — what the block-batched scoring kernels
    /// consume without per-row copies.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A row as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// One cell.
    pub fn get(&self, row: usize, feature: usize) -> f32 {
        self.data[row * self.n_features + feature]
    }

    /// All labels.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Label of one row.
    pub fn label(&self, i: usize) -> f32 {
        self.labels[i]
    }

    /// Number of positive (label 1) rows.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l == 1.0).count()
    }

    /// Fraction of positive rows (0 when empty).
    pub fn positive_rate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.positives() as f64 / self.n_rows() as f64
        }
    }

    /// Append every row of another dataset.
    ///
    /// This is the shard-assembly primitive: feature engineering builds row
    /// shards on scoped workers and folds them back in shard order, so the
    /// assembled dataset is byte-identical to a sequential build.
    ///
    /// # Panics
    /// Panics when the shard's feature schema (names, and therefore width)
    /// does not match.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(
            other.feature_names, self.feature_names,
            "shard schema mismatch"
        );
        self.data.extend_from_slice(&other.data);
        self.labels.extend_from_slice(&other.labels);
    }

    /// Assemble a dataset from shards produced in parallel, concatenated in
    /// shard order. Every shard must carry exactly `feature_names` as its
    /// schema (checked by [`Dataset::extend_from`]); an empty shard list
    /// yields an empty dataset with that schema.
    pub fn from_shards(
        feature_names: Vec<String>,
        shards: impl IntoIterator<Item = Dataset>,
    ) -> Dataset {
        let mut out = Dataset::new(feature_names);
        for shard in shards {
            out.extend_from(&shard);
        }
        out
    }

    /// A new dataset containing only the given row indices (in order).
    ///
    /// Consecutive index runs are copied as one contiguous chunk instead of
    /// going through the per-row `push_row` assertions — holdout splits are
    /// mostly sorted ranges, so the copy is a handful of `memcpy`s.
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        let nf = self.n_features;
        let mut data = Vec::with_capacity(rows.len() * nf);
        let mut labels = Vec::with_capacity(rows.len());
        let mut i = 0;
        while i < rows.len() {
            let start = rows[i];
            let mut end = i + 1;
            while end < rows.len() && rows[end] == rows[end - 1] + 1 {
                end += 1;
            }
            let stop = rows[end - 1] + 1;
            data.extend_from_slice(&self.data[start * nf..stop * nf]);
            labels.extend_from_slice(&self.labels[start..stop]);
            i = end;
        }
        Dataset {
            feature_names: self.feature_names.clone(),
            name_index: self.name_index.clone(),
            n_features: nf,
            data,
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        d.push_row(&[1.0, 2.0], 0.0);
        d.push_row(&[3.0, f32::NAN], 1.0);
        d.push_row(&[5.0, 6.0], 1.0);
        d
    }

    #[test]
    fn shape_and_access() {
        let d = toy();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1)[0], 3.0);
        assert!(d.get(1, 1).is_nan());
        assert_eq!(d.label(2), 1.0);
        assert_eq!(d.feature_index("b"), Some(1));
        assert_eq!(d.feature_index("zzz"), None);
    }

    #[test]
    fn class_counts() {
        let d = toy();
        assert_eq!(d.positives(), 2);
        assert!((d.positive_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn subset_preserves_rows() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0)[0], 5.0);
        assert_eq!(s.label(1), 0.0);
    }

    #[test]
    fn subset_chunk_copy_matches_per_row_copy() {
        // Mixed consecutive runs, repeats and reversals must all reproduce
        // exactly what the old per-row push_row loop produced.
        let d = toy();
        for rows in [
            vec![0usize, 1, 2],
            vec![1, 2],
            vec![2, 1, 0],
            vec![0, 0, 2, 2],
            vec![1],
            vec![],
        ] {
            let s = d.subset(&rows);
            assert_eq!(s.n_rows(), rows.len(), "rows {rows:?}");
            assert_eq!(s.feature_names(), d.feature_names());
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(
                    s.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    d.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
                assert_eq!(s.label(i), d.label(r));
            }
            // The copy keeps the name index intact.
            assert_eq!(s.feature_index("b"), Some(1));
        }
    }

    #[test]
    fn extend_from_appends_shards_in_order() {
        let names = vec!["a".to_string(), "b".to_string()];
        let mut base = Dataset::new(names.clone());
        base.push_row(&[1.0, 2.0], 0.0);
        let mut shard = Dataset::new(names.clone());
        shard.push_row(&[3.0, f32::NAN], 1.0);
        shard.push_row(&[5.0, 6.0], 1.0);
        base.extend_from(&shard);
        let direct = toy();
        assert_eq!(base.n_rows(), direct.n_rows());
        for r in 0..direct.n_rows() {
            assert_eq!(
                base.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                direct
                    .row(r)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(base.label(r), direct.label(r));
        }
    }

    #[test]
    fn from_shards_assembles_and_checks_schema() {
        let names = vec!["a".to_string(), "b".to_string()];
        let mut s1 = Dataset::new(names.clone());
        s1.push_row(&[1.0, 2.0], 0.0);
        let mut s2 = Dataset::new(names.clone());
        s2.push_row(&[3.0, 4.0], 1.0);
        let d = Dataset::from_shards(names.clone(), [s1, s2]);
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.get(1, 1), 4.0);
        // No shards: empty dataset with the schema intact.
        let empty = Dataset::from_shards(names, std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(empty.n_features(), 2);
    }

    #[test]
    #[should_panic(expected = "shard schema mismatch")]
    fn extend_from_rejects_mismatched_schema() {
        let mut base = Dataset::new(vec!["a".into(), "b".into()]);
        let shard = Dataset::new(vec!["a".into(), "c".into()]);
        base.extend_from(&shard);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let mut d = Dataset::new(vec!["a".into()]);
        d.push_row(&[1.0, 2.0], 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_label_panics() {
        let mut d = Dataset::new(vec!["a".into()]);
        d.push_row(&[1.0], 0.5);
    }

    #[test]
    fn feature_index_is_first_wins_for_duplicates() {
        // The precomputed map must preserve the old linear scan's semantics:
        // the first column with a given name wins.
        let d = Dataset::new(vec!["a".into(), "b".into(), "a".into()]);
        assert_eq!(d.feature_index("a"), Some(0));
        assert_eq!(d.feature_index("b"), Some(1));
    }

    #[test]
    fn empty_dataset_positive_rate_zero() {
        let d = Dataset::new(vec!["a".into()]);
        assert_eq!(d.positive_rate(), 0.0);
        assert!(d.is_empty());
    }
}
