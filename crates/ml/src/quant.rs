//! Quantised forest inference: split thresholds lowered to u16 bin ranks so
//! a traversal compares two small integers instead of two floats, and a
//! cache line holds more than twice the nodes of the f32 layout.
//!
//! The quantisation is **rank-based and exact by construction**. For every
//! feature, the distinct thresholds the forest actually splits on are
//! sorted; each split node stores the *rank* of its threshold in that list,
//! and a scoring row is quantised once per feature to
//! `rank(v) = #{thresholds t : t < v}`. Then for any threshold with rank
//! `k`,
//!
//! ```text
//! v <= t_k   ⇔   rank(v) <= k
//! ```
//!
//! because the thresholds before index `rank(v)` are exactly those strictly
//! below `v` under the same IEEE `<` the f32 compare uses (−0.0/0.0
//! duplicates are benign: IEEE orders them equal, so routing agrees either
//! way). The u16 compare therefore reproduces the f32 comparison bit for
//! bit — no approximation, no epsilon.
//!
//! The guarantee is still *verified*, not assumed, at construction: every
//! split's threshold must round-trip through the bin table bitwise, the
//! table must fit u16 ranks (≤ 65534 distinct thresholds per feature, the
//! last rank reserved for the NaN sentinel), and thresholds must be
//! orderable (non-NaN). Any tree that fails a check is marked inexact and
//! **falls back per-tree** to the [`FlatForest`] f32 walk — predictions
//! stay byte-identical to [`GbdtModel::predict_margin`] no matter what,
//! which the seeded-loop tests and the served-scores golden pin.

use crate::flat::{FlatForest, BLOCK_ROWS, LEAF_FEATURE};
use crate::gbdt::{sigmoid, GbdtModel};

/// Quantised row value reserved for missing (NaN) features; real ranks are
/// capped below it at construction time.
pub const QUANT_MISSING: u16 = u16::MAX;

/// Most distinct thresholds one feature may carry: ranks run `0..=len`, and
/// the top code point is the NaN sentinel.
const MAX_CUTS_PER_FEATURE: usize = u16::MAX as usize - 1;

/// One quantised node: the [`crate::flat::FlatNode`] routing fields with the
/// f32 threshold replaced by its u16 rank. 24 bytes against the flat node's
/// 32, and the hot compare is integer.
#[derive(Debug, Clone, Copy)]
struct QuantNode {
    /// Split feature index, or [`LEAF_FEATURE`] for a leaf.
    feature: u32,
    /// Rank of the split threshold among the feature's sorted cuts:
    /// `rank(v) <= bin` goes left.
    bin: u16,
    /// Where missing values (NaN) are routed.
    default_left: bool,
    /// Absolute child indices in the forest's node array (same indexing as
    /// the flat forest).
    left: u32,
    right: u32,
    /// The leaf weight (split nodes keep 0.0 here; attribution reads values
    /// off the flat forest, which stays the source of truth).
    value: f64,
}

/// A [`FlatForest`] with thresholds quantised to u16 ranks, plus the flat
/// forest itself for per-tree fallback, schema access and attribution.
#[derive(Debug, Clone)]
pub struct QuantForest {
    flat: FlatForest,
    /// Quantised mirror of the flat node array (identical indexing).
    nodes: Vec<QuantNode>,
    /// Per-feature sorted distinct thresholds (the bin boundaries).
    cuts: Vec<Vec<f32>>,
    /// Per-tree: true when every split in the tree passed the exactness
    /// checks and routes through the quantised compare.
    exact: Vec<bool>,
}

impl QuantForest {
    /// Lower a trained model: flatten, then quantise.
    pub fn from_model(model: &GbdtModel) -> Self {
        Self::from_forest(FlatForest::from_model(model))
    }

    /// Quantise a flattened forest, taking ownership of it for fallback and
    /// schema access.
    pub fn from_forest(flat: FlatForest) -> Self {
        let n_features = flat.n_features();
        // Distinct split thresholds per feature, sorted; dedup by bit
        // pattern so the round-trip check below is exact.
        let mut cuts: Vec<Vec<f32>> = vec![Vec::new(); n_features];
        for i in 0..flat.n_nodes() as u32 {
            let n = flat.node(i);
            if !n.is_leaf() && !n.threshold.is_nan() {
                cuts[n.feature as usize].push(n.threshold);
            }
        }
        for feature_cuts in &mut cuts {
            feature_cuts.sort_unstable_by(f32::total_cmp);
            feature_cuts.dedup_by(|a, b| a.to_bits() == b.to_bits());
        }

        let mut nodes = Vec::with_capacity(flat.n_nodes());
        let mut exact = Vec::with_capacity(flat.n_trees());
        for tree in 0..flat.n_trees() {
            let start = flat.tree_root(tree);
            let end = start + tree_len(&flat, tree);
            let mut tree_exact = true;
            for i in start..end {
                let n = flat.node(i);
                let mut bin = 0u16;
                if !n.is_leaf() {
                    match quantised_bin(&cuts[n.feature as usize], n.threshold) {
                        Some(b) => bin = b,
                        None => tree_exact = false,
                    }
                }
                nodes.push(QuantNode {
                    feature: n.feature,
                    bin,
                    default_left: n.default_left,
                    left: n.left,
                    right: n.right,
                    value: if n.is_leaf() { n.value } else { 0.0 },
                });
            }
            exact.push(tree_exact);
        }
        Self {
            flat,
            nodes,
            cuts,
            exact,
        }
    }

    /// The flat forest behind the quantised one — fallback path, schema,
    /// attribution walks.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.flat.n_trees()
    }

    /// Number of features a scoring row must have.
    pub fn n_features(&self) -> usize {
        self.flat.n_features()
    }

    /// Trees whose routing is proven exact under the quantised compare.
    pub fn n_exact_trees(&self) -> usize {
        self.exact.iter().filter(|&&e| e).count()
    }

    /// True when every tree routes through the quantised compare (the
    /// normal case; false only for forests with unorderable thresholds or
    /// more than 65534 distinct thresholds on one feature).
    pub fn is_fully_quantised(&self) -> bool {
        self.exact.iter().all(|&e| e)
    }

    /// Distinct bin boundaries of one feature.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// Quantise one row into per-feature ranks ([`QUANT_MISSING`] for NaN).
    pub fn quantise_row_into(&self, row: &[f32], out: &mut [u16]) {
        for (f, (&v, slot)) in row.iter().zip(out.iter_mut()).enumerate() {
            *slot = if v.is_nan() {
                QUANT_MISSING
            } else {
                self.cuts[f].partition_point(|&t| t < v) as u16
            };
        }
    }

    /// The leaf weight one tree contributes for a quantised row (callers
    /// guarantee the tree is exact).
    #[inline]
    fn tree_leaf_value_quantised(&self, tree: usize, qrow: &[u16]) -> f64 {
        let mut i = self.flat.tree_root(tree) as usize;
        loop {
            let n = &self.nodes[i];
            if n.feature == LEAF_FEATURE {
                return n.value;
            }
            let q = qrow[n.feature as usize];
            let go_left = if q == QUANT_MISSING {
                n.default_left
            } else {
                q <= n.bin
            };
            i = if go_left { n.left } else { n.right } as usize;
        }
    }

    /// Raw additive margin for one row — bit-identical to
    /// [`GbdtModel::predict_margin`]: exact trees route through the
    /// quantised compare, inexact trees fall back to the flat f32 walk, and
    /// the per-row fold order (trees left to right from `0.0`, base margin
    /// last) never changes.
    pub fn predict_margin(&self, row: &[f32]) -> f64 {
        let mut qrow = vec![0u16; self.n_features()];
        self.quantise_row_into(row, &mut qrow);
        let mut sum = 0.0f64;
        for tree in 0..self.n_trees() {
            sum += if self.exact[tree] {
                self.tree_leaf_value_quantised(tree, &qrow)
            } else {
                self.flat.tree_leaf_value(tree, row)
            };
        }
        self.flat.base_margin() + sum
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, row: &[f32]) -> f64 {
        sigmoid(self.predict_margin(row))
    }

    /// Batched margins for a row-major block, written into `out` — the
    /// quantised counterpart of [`FlatForest::predict_margin_rows_into`]
    /// and bit-identical to it (and so to the recursive model). Each block
    /// is quantised once (one binary search per cell), then every tree
    /// level-synchronously descends the whole block on u16 compares.
    ///
    /// # Panics
    /// Panics when `data` is not a whole number of rows or `out` does not
    /// hold exactly one slot per row.
    pub fn predict_margin_rows_into(&self, data: &[f32], out: &mut [f64]) {
        let width = self.n_features();
        assert_eq!(
            data.len() % width,
            0,
            "row-major block length {} is not a multiple of the feature width {width}",
            data.len()
        );
        assert_eq!(out.len(), data.len() / width, "one output slot per row");
        let mut cursors = [0u32; BLOCK_ROWS];
        let mut qblock = vec![0u16; BLOCK_ROWS * width];
        for (block, out_chunk) in out.chunks_mut(BLOCK_ROWS).enumerate() {
            let n = out_chunk.len();
            let start = block * BLOCK_ROWS;
            let rows = &data[start * width..(start + n) * width];
            // Feature-major quantisation: one feature's cut slice stays hot
            // while the whole block binary-searches against it, instead of
            // cycling through every feature's cuts per row.
            for (f, cuts) in self.cuts.iter().enumerate() {
                for r in 0..n {
                    let v = rows[r * width + f];
                    qblock[r * width + f] = if v.is_nan() {
                        QUANT_MISSING
                    } else {
                        cuts.partition_point(|&t| t < v) as u16
                    };
                }
            }
            self.margin_block(rows, &qblock[..n * width], out_chunk, &mut cursors[..n]);
        }
    }

    fn margin_block(&self, rows: &[f32], qrows: &[u16], out: &mut [f64], cursors: &mut [u32]) {
        let width = self.n_features();
        out.fill(0.0);
        for tree in 0..self.n_trees() {
            if self.exact[tree] {
                let root = self.flat.tree_root(tree);
                cursors.fill(root);
                for _ in 0..self.flat.tree_depth(tree) {
                    for (cur, qrow) in cursors.iter_mut().zip(qrows.chunks_exact(width)) {
                        let n = &self.nodes[*cur as usize];
                        if n.feature == LEAF_FEATURE {
                            continue;
                        }
                        let q = qrow[n.feature as usize];
                        let go_left = if q == QUANT_MISSING {
                            n.default_left
                        } else {
                            q <= n.bin
                        };
                        *cur = if go_left { n.left } else { n.right };
                    }
                }
                for (o, &cur) in out.iter_mut().zip(cursors.iter()) {
                    *o += self.nodes[cur as usize].value;
                }
            } else {
                // Per-tree fallback: the flat f32 walk, row by row.
                for (i, o) in out.iter_mut().enumerate() {
                    *o += self
                        .flat
                        .tree_leaf_value(tree, &rows[i * width..(i + 1) * width]);
                }
            }
        }
        for o in out.iter_mut() {
            *o += self.flat.base_margin();
        }
    }
}

/// Number of nodes in one tree of a flat forest.
fn tree_len(flat: &FlatForest, tree: usize) -> u32 {
    let next = if tree + 1 < flat.n_trees() {
        flat.tree_root(tree + 1)
    } else {
        flat.n_nodes() as u32
    };
    next - flat.tree_root(tree)
}

/// The u16 rank of `threshold` in the feature's sorted cuts, verified to
/// round-trip bitwise — `None` marks the owning tree inexact (NaN
/// threshold, overflow past the sentinel, or a boundary that does not
/// reproduce the value).
fn quantised_bin(cuts: &[f32], threshold: f32) -> Option<u16> {
    if threshold.is_nan() || cuts.len() > MAX_CUTS_PER_FEATURE {
        return None;
    }
    let k = cuts
        .binary_search_by(|t| t.total_cmp(&threshold))
        .ok()
        .filter(|&k| cuts[k].to_bits() == threshold.to_bits())?;
    Some(k as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::gbdt::GbdtParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(rng: &mut StdRng, n_rows: usize, n_features: usize) -> Dataset {
        let names: Vec<String> = (0..n_features).map(|f| format!("f{f}")).collect();
        let mut d = Dataset::new(names);
        for _ in 0..n_rows {
            let row: Vec<f32> = (0..n_features)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.06 {
                        f32::NAN
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let signal = if row[0].is_nan() { 0.0 } else { row[0] };
            let label = if signal + rng.gen_range(-0.3..0.3) > 0.0 {
                1.0
            } else {
                0.0
            };
            d.push_row(&row, label);
        }
        d
    }

    /// The tentpole exactness property: quantised scalar and batched
    /// margins equal the recursive model bit for bit over random forests
    /// (random depths, NaNs, single-leaf trees) and the row counts that
    /// stress the 64-row chunking.
    #[test]
    fn quantised_margins_bit_identical_to_recursive() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(0x9a47 + seed);
            let n_features = rng.gen_range(2..6usize);
            let n_rows = 256;
            let data = random_dataset(&mut rng, n_rows, n_features);
            let model = GbdtModel::fit(
                &data,
                GbdtParams {
                    n_estimators: 12,
                    max_depth: (seed as usize) % 5,
                    learning_rate: 0.3,
                    subsample: 0.85,
                    seed,
                    ..GbdtParams::default()
                },
            );
            let quant = QuantForest::from_model(&model);
            assert!(
                quant.is_fully_quantised(),
                "fitted forests must quantise exactly (seed {seed})"
            );
            let mut block: Vec<f32> = Vec::with_capacity(n_rows * n_features);
            for r in 0..n_rows {
                block.extend_from_slice(data.row(r));
            }
            for v in block.iter_mut().step_by(11) {
                *v = f32::NAN;
            }
            let expected: Vec<f64> = (0..n_rows)
                .map(|r| model.predict_margin(&block[r * n_features..(r + 1) * n_features]))
                .collect();
            for (r, want) in expected.iter().enumerate() {
                let row = &block[r * n_features..(r + 1) * n_features];
                assert_eq!(
                    quant.predict_margin(row).to_bits(),
                    want.to_bits(),
                    "scalar quant drift at seed {seed} row {r}"
                );
            }
            for rows in [1usize, 63, 64, 65, 129, 256] {
                let mut out = vec![0.0f64; rows];
                quant.predict_margin_rows_into(&block[..rows * n_features], &mut out);
                for (r, (a, b)) in out.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "batched quant drift at seed {seed} row {r} of {rows}"
                    );
                }
            }
        }
    }

    /// Rank quantisation must agree with the f32 compare on every
    /// (value, threshold) pair the forest can see — including values exactly
    /// on a boundary, ±0.0 and the neighbours one ULP away.
    #[test]
    fn rank_compare_reproduces_f32_compare_on_boundaries() {
        let mut rng = StdRng::seed_from_u64(0xc0de);
        let data = random_dataset(&mut rng, 260, 3);
        let model = GbdtModel::fit(
            &data,
            GbdtParams {
                n_estimators: 20,
                max_depth: 4,
                ..GbdtParams::default()
            },
        );
        let quant = QuantForest::from_model(&model);
        for f in 0..quant.n_features() {
            let cuts = quant.cuts[f].clone();
            let mut probes: Vec<f32> = vec![0.0, -0.0, 1.5, -1.5, f32::MIN, f32::MAX];
            for &t in &cuts {
                probes.push(t);
                probes.push(f32::from_bits(t.to_bits().wrapping_add(1)));
                probes.push(f32::from_bits(t.to_bits().wrapping_sub(1)));
            }
            for v in probes {
                if v.is_nan() {
                    continue;
                }
                let rank = cuts.partition_point(|&t| t < v) as u16;
                for (k, &t) in cuts.iter().enumerate() {
                    assert_eq!(
                        v <= t,
                        rank <= k as u16,
                        "rank compare drift: v={v} t={t} rank={rank} k={k}"
                    );
                }
            }
        }
    }

    /// A feature with a NaN threshold cannot be rank-ordered; the owning
    /// tree must be marked inexact and fall back to the flat walk, leaving
    /// predictions identical to the flat forest.
    #[test]
    fn unorderable_threshold_falls_back_per_tree() {
        use crate::tree::{Node, RegressionTree};
        let trees = vec![
            // Tree 0: a NaN threshold (v <= NaN is always false → right).
            RegressionTree::from_nodes(vec![
                Node::Split {
                    feature: 0,
                    threshold: f32::NAN,
                    default_left: true,
                    left: 1,
                    right: 2,
                    value: 0.0,
                    cover: 1.0,
                },
                Node::Leaf {
                    value: -1.0,
                    cover: 1.0,
                },
                Node::Leaf {
                    value: 2.0,
                    cover: 1.0,
                },
            ]),
            // Tree 1: a normal split, quantisable.
            RegressionTree::from_nodes(vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.5,
                    default_left: false,
                    left: 1,
                    right: 2,
                    value: 0.0,
                    cover: 1.0,
                },
                Node::Leaf {
                    value: 10.0,
                    cover: 1.0,
                },
                Node::Leaf {
                    value: 20.0,
                    cover: 1.0,
                },
            ]),
        ];
        let model = GbdtModel::from_parts(GbdtParams::default(), 0.25, trees, vec!["x".into()]);
        let quant = QuantForest::from_model(&model);
        assert!(!quant.is_fully_quantised());
        assert_eq!(quant.n_exact_trees(), 1);
        for v in [-3.0f32, 0.0, 0.5, 0.7, f32::NAN] {
            let row = [v];
            assert_eq!(
                quant.predict_margin(&row).to_bits(),
                model.predict_margin(&row).to_bits(),
                "fallback drift at v={v}"
            );
            let mut out = [0.0f64];
            quant.predict_margin_rows_into(&row, &mut out);
            assert_eq!(out[0].to_bits(), model.predict_margin(&row).to_bits());
        }
    }

    #[test]
    fn bin_tables_are_small_and_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_dataset(&mut rng, 200, 4);
        let model = GbdtModel::fit(
            &data,
            GbdtParams {
                n_estimators: 15,
                max_depth: 4,
                ..GbdtParams::default()
            },
        );
        let quant = QuantForest::from_model(&model);
        assert!(quant.is_fully_quantised());
        assert_eq!(quant.n_exact_trees(), quant.n_trees());
        for f in 0..quant.n_features() {
            // Every boundary is a real threshold of the forest, sorted
            // strictly by bit-distinct value.
            let cuts = &quant.cuts[f];
            assert!(quant.n_bins(f) <= u16::MAX as usize);
            for w in cuts.windows(2) {
                assert!(w[0].to_bits() != w[1].to_bits());
                assert!(w[0] <= w[1]);
            }
        }
    }
}
