//! Flattened forest inference: the recursive
//! [`RegressionTree`](crate::RegressionTree) boxes lowered into one
//! contiguous node array, and the one production scoring kernel over it.
//!
//! A fitted tree is a `Vec<Node>` walked through an enum match — fine for
//! fitting, but scoring wants a branch-predictable loop over a flat
//! struct-of-fields node. [`FlatForest`] stores every tree's nodes
//! back-to-back (absolute child indices, leaves tagged with a sentinel
//! feature), so a whole model is two allocations and a prediction never
//! chases a discriminant.
//!
//! [`FlatForest::predict_margin_rows_into`] scores everything that scores:
//! [`GbdtModel::predict_dataset`] (and so every hold-out AUC), the
//! experiments' tables and figures, and the `redsus_serve` scorers. The
//! load-bearing contract: **it is bit-identical to the recursive walk.**
//! Same node semantics (`NaN` follows `default_left`, otherwise
//! `v <= threshold` goes left), same left-to-right tree order, same `f64`
//! summation order. The recursive per-row walk survives only as the test
//! oracle the kernel is pinned against, and the attribution module walks the
//! same flat paths.
//!
//! Two layout/traversal decisions target the hot path specifically:
//!
//! * **Breadth-first node order.** `from_model` permutes each tree's nodes
//!   level by level (children stay absolute u32 indices), so the top of every
//!   tree — the levels every row visits — packs into the fewest cache lines.
//!   A pure index permutation: per-row predictions, leaf values and path
//!   *contents* are untouched, which the bit-identity tests pin.
//! * **Block-batched traversal.** The kernel descends 64-row blocks through
//!   each tree level-synchronously, giving the CPU a block's worth of
//!   independent node-fetch chains instead of one serial pointer chase per
//!   row. Each row's margin is still folded tree-by-tree in model order from
//!   `0.0` with the base margin added last, so batched output is
//!   bit-identical to the per-row walk.

use std::collections::{HashMap, VecDeque};

use crate::gbdt::GbdtModel;
use crate::tree::Node;

/// Sentinel value of [`FlatNode::feature`] marking a leaf.
pub const LEAF_FEATURE: u32 = u32::MAX;

/// Rows per traversal block of the batched kernels: big enough to keep many
/// independent descent chains in flight, small enough that the per-row
/// cursor state stays in registers/L1.
pub(crate) const BLOCK_ROWS: usize = 64;

/// One lowered tree node. Splits carry the routing fields; leaves carry only
/// `value` and tag `feature` with [`LEAF_FEATURE`].
#[derive(Debug, Clone, Copy)]
pub struct FlatNode {
    /// Split feature index, or [`LEAF_FEATURE`] for a leaf.
    pub feature: u32,
    /// Raw-value threshold: `v <= threshold` goes left.
    pub threshold: f32,
    /// Where missing values (NaN) are routed.
    pub default_left: bool,
    /// Absolute index of the left child in the forest's node array.
    pub left: u32,
    /// Absolute index of the right child in the forest's node array.
    pub right: u32,
    /// The node's weight: the leaf weight, or the weight the split would
    /// have as a leaf (`-G/(H+λ)`, scaled by the learning rate) — what the
    /// Saabas attribution walk reads off the decision path.
    pub value: f64,
}

impl FlatNode {
    /// True when the node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.feature == LEAF_FEATURE
    }

    /// The split feature as a usize, or `None` for a leaf.
    #[inline]
    pub fn split_feature(&self) -> Option<usize> {
        if self.is_leaf() {
            None
        } else {
            Some(self.feature as usize)
        }
    }
}

/// A [`GbdtModel`] lowered into contiguous node arrays.
///
/// Construction preserves everything prediction and attribution need (base
/// margin, node values, feature names); hyper-parameters and covers stay on
/// the source model / artifact.
#[derive(Debug, Clone)]
pub struct FlatForest {
    base_margin: f64,
    /// Every tree's nodes, back to back in breadth-first order per tree,
    /// children as absolute indices.
    nodes: Vec<FlatNode>,
    /// Start of each tree in `nodes`, plus one trailing end sentinel.
    tree_offsets: Vec<u32>,
    /// Absolute root index of each tree, precomputed at flatten time so
    /// traversal, attribution and decision-path walks never re-derive it
    /// from the offsets table inside their per-tree loops.
    tree_roots: Vec<u32>,
    /// Maximum root-to-leaf edge count of each tree — the exact number of
    /// level-synchronous sweeps the batched kernels need, so they never pay
    /// a trailing all-leaf discovery sweep.
    tree_depths: Vec<u32>,
    feature_names: Vec<String>,
    /// Feature name → column index, precomputed for per-request resolution.
    name_index: HashMap<String, usize>,
}

impl FlatForest {
    /// Lower a trained model into the flat representation.
    pub fn from_model(model: &GbdtModel) -> Self {
        let total: usize = model.trees().iter().map(|t| t.nodes().len()).sum();
        assert!(
            total < LEAF_FEATURE as usize,
            "forest too large for u32 node indices"
        );
        let mut nodes = Vec::with_capacity(total);
        let mut tree_offsets = Vec::with_capacity(model.n_trees() + 1);
        let mut tree_roots = Vec::with_capacity(model.n_trees());
        let mut tree_depths = Vec::with_capacity(model.n_trees());
        for tree in model.trees() {
            let off = nodes.len() as u32;
            tree_offsets.push(off);
            tree_roots.push(off);
            let src = tree.nodes();
            // Breadth-first emission order over the source nodes. Any node a
            // traversal can't reach (possible only in hand-built node arrays,
            // never in fitted trees) is appended after the reachable ones in
            // source order, so the node count — and every accessor built on
            // it — is preserved.
            let order = breadth_first_order(src);
            let mut new_index = vec![0u32; src.len()];
            for (k, &i) in order.iter().enumerate() {
                new_index[i] = off + k as u32;
            }
            // Longest root-to-leaf edge count: children always carry a
            // higher source index than their parent (the `from_nodes`
            // invariant), so an ascending pass with a max-rule settles
            // every node's deepest distance from the root — the sweep
            // count the batched kernels run.
            let mut depths = vec![0u32; src.len()];
            let mut max_depth = 0u32;
            for i in 0..src.len() {
                if let Node::Split { left, right, .. } = &src[i] {
                    let d = depths[i] + 1;
                    depths[*left] = depths[*left].max(d);
                    depths[*right] = depths[*right].max(d);
                    max_depth = max_depth.max(d);
                }
            }
            tree_depths.push(max_depth);
            for &i in &order {
                nodes.push(match &src[i] {
                    Node::Leaf { value, .. } => FlatNode {
                        feature: LEAF_FEATURE,
                        threshold: 0.0,
                        default_left: false,
                        left: 0,
                        right: 0,
                        value: *value,
                    },
                    Node::Split {
                        feature,
                        threshold,
                        default_left,
                        left,
                        right,
                        value,
                        ..
                    } => FlatNode {
                        feature: *feature as u32,
                        threshold: *threshold,
                        default_left: *default_left,
                        left: new_index[*left],
                        right: new_index[*right],
                        value: *value,
                    },
                });
            }
        }
        tree_offsets.push(nodes.len() as u32);
        let feature_names = model.feature_names().to_vec();
        let name_index = build_name_index(&feature_names);
        Self {
            base_margin: model.base_margin(),
            nodes,
            tree_offsets,
            tree_roots,
            tree_depths,
            feature_names,
            name_index,
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.tree_offsets.len() - 1
    }

    /// Number of features a scoring row must have.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Total node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant margin the ensemble starts from.
    pub fn base_margin(&self) -> f64 {
        self.base_margin
    }

    /// Names of the features, in model column order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Column index of a feature by name (O(1)).
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.name_index.get(name).copied()
    }

    /// A node by absolute index.
    pub fn node(&self, i: u32) -> &FlatNode {
        &self.nodes[i as usize]
    }

    /// Absolute index of a tree's root node (precomputed at flatten time).
    pub fn tree_root(&self, tree: usize) -> u32 {
        self.tree_roots[tree]
    }

    /// Maximum root-to-leaf edge count of one tree (0 for a single-leaf
    /// tree) — the exact sweep count a level-synchronous descent needs.
    pub fn tree_depth(&self, tree: usize) -> u32 {
        self.tree_depths[tree]
    }

    /// The leaf weight one tree contributes for a row: the quantised
    /// kernel's fallback for a tree it cannot quantise exactly.
    #[inline]
    pub(crate) fn tree_leaf_value(&self, tree: usize, row: &[f32]) -> f64 {
        let mut i = self.tree_roots[tree] as usize;
        loop {
            let n = &self.nodes[i];
            if n.feature == LEAF_FEATURE {
                return n.value;
            }
            let v = row[n.feature as usize];
            let go_left = if v.is_nan() {
                n.default_left
            } else {
                v <= n.threshold
            };
            i = if go_left { n.left } else { n.right } as usize;
        }
    }

    /// Raw additive margins (log-odds) for a row-major block of rows,
    /// written into `out` — bit-identical to the recursive per-row walk.
    ///
    /// Rows are processed in 64-row blocks that descend each tree
    /// level-synchronously: one sweep advances every still-descending row
    /// in the block by one level, so the block's node fetches are
    /// independent loads the CPU can overlap instead of one serial chain
    /// per row. Per row, leaf values are still accumulated tree-by-tree in
    /// model order from `0.0`; the base margin joins by one final add,
    /// which IEEE addition commutes bit-exactly with the recursive walk's
    /// `base + sum`.
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
        for (block, out_chunk) in out.chunks_mut(BLOCK_ROWS).enumerate() {
            let start = block * BLOCK_ROWS;
            let rows = &data[start * width..(start + out_chunk.len()) * width];
            self.margin_block(rows, out_chunk, &mut cursors[..out_chunk.len()]);
        }
    }

    /// One block's level-synchronous descent. `cursors` carries the current
    /// node of every row; a sweep over the block advances each non-leaf row
    /// one level, until the whole block rests on leaves.
    fn margin_block(&self, rows: &[f32], out: &mut [f64], cursors: &mut [u32]) {
        let width = self.n_features();
        out.fill(0.0);
        for (t, &root) in self.tree_roots.iter().enumerate() {
            cursors.fill(root);
            // Exactly `tree_depth` sweeps settle every cursor on a leaf —
            // no discovery sweep needed. Rows that reach a shallow leaf
            // early just skip through the remaining sweeps.
            for _ in 0..self.tree_depths[t] {
                for (cur, row) in cursors.iter_mut().zip(rows.chunks_exact(width)) {
                    let n = &self.nodes[*cur as usize];
                    if n.feature == LEAF_FEATURE {
                        continue;
                    }
                    let v = row[n.feature as usize];
                    let go_left = if v.is_nan() {
                        n.default_left
                    } else {
                        v <= n.threshold
                    };
                    *cur = if go_left { n.left } else { n.right };
                }
            }
            for (o, &cur) in out.iter_mut().zip(cursors.iter()) {
                *o += self.nodes[cur as usize].value;
            }
        }
        for o in out.iter_mut() {
            *o += self.base_margin;
        }
    }

    /// The absolute node indices one tree visits for a row, root to leaf —
    /// the path structure the attribution module walks. It visits the nodes
    /// the recursive tree walk visits, step for step.
    pub fn decision_path(&self, tree: usize, row: &[f32]) -> Vec<u32> {
        let mut path = Vec::new();
        let mut i = self.tree_roots[tree];
        loop {
            path.push(i);
            let n = &self.nodes[i as usize];
            if n.feature == LEAF_FEATURE {
                return path;
            }
            let v = row[n.feature as usize];
            let go_left = if v.is_nan() {
                n.default_left
            } else {
                v <= n.threshold
            };
            i = if go_left { n.left } else { n.right };
        }
    }
}

/// Breadth-first order of a tree's node indices, root first, each split's
/// left child enqueued before its right. Nodes unreachable from the root are
/// appended afterwards in source order so the permutation is total.
fn breadth_first_order(src: &[Node]) -> Vec<usize> {
    if src.is_empty() {
        return Vec::new();
    }
    let mut order = Vec::with_capacity(src.len());
    let mut seen = vec![false; src.len()];
    let mut queue = VecDeque::with_capacity(src.len());
    queue.push_back(0usize);
    seen[0] = true;
    while let Some(i) = queue.pop_front() {
        order.push(i);
        if let Node::Split { left, right, .. } = &src[i] {
            for child in [*left, *right] {
                if !seen[child] {
                    seen[child] = true;
                    queue.push_back(child);
                }
            }
        }
    }
    for (i, s) in seen.into_iter().enumerate() {
        if !s {
            order.push(i);
        }
    }
    order
}

/// Name → index map preserving first-wins semantics for duplicate names
/// (matching `Iterator::position` on the name list). Shared by
/// [`FlatForest`], `Dataset` and the serving layer's per-request column
/// resolution, so name lookup is O(1) on every path.
pub fn build_name_index(names: &[String]) -> HashMap<String, usize> {
    let mut map = HashMap::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        map.entry(name.clone()).or_insert(i);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::gbdt::{sigmoid, GbdtParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(rng: &mut StdRng, n_rows: usize, n_features: usize) -> Dataset {
        let names: Vec<String> = (0..n_features).map(|f| format!("f{f}")).collect();
        let mut d = Dataset::new(names);
        for _ in 0..n_rows {
            let row: Vec<f32> = (0..n_features)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.05 {
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

    /// Seeded-loop property test: for random models and random rows
    /// (including NaNs), the flat per-tree walk — the quantised kernel's
    /// fallback — reproduces the recursive tree's leaf value bit for bit.
    #[test]
    fn flat_predictions_bit_identical_to_recursive() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xf1a7 + seed);
            let n_features = rng.gen_range(2..7usize);
            let data = random_dataset(&mut rng, 160, n_features);
            let model = GbdtModel::fit(
                &data,
                GbdtParams {
                    n_estimators: 12,
                    max_depth: rng.gen_range(1..5usize),
                    learning_rate: 0.3,
                    subsample: 0.8,
                    colsample_bytree: 0.8,
                    seed,
                    ..GbdtParams::default()
                },
            );
            let forest = FlatForest::from_model(&model);
            assert_eq!(forest.n_trees(), model.n_trees());
            assert_eq!(forest.n_features(), model.feature_names().len());
            // All-missing rows exercise every default direction.
            let missing = vec![f32::NAN; n_features];
            for row in (0..data.n_rows())
                .map(|r| data.row(r))
                .chain([&missing[..]])
            {
                for (t, tree) in model.trees().iter().enumerate() {
                    assert_eq!(
                        forest.tree_leaf_value(t, row).to_bits(),
                        tree.predict_row(row).to_bits(),
                        "tree {t} drift at seed {seed} on row {row:?}"
                    );
                }
            }
        }
    }

    /// The flat decision path visits the same nodes as the recursive
    /// decision path, step for step. Indices differ (the flat layout is
    /// breadth-first), so the comparison is by node *content*: split
    /// feature, threshold bits and node value bits at every step.
    #[test]
    fn flat_paths_match_recursive_paths() {
        use crate::tree::Node;
        let mut rng = StdRng::seed_from_u64(0xbeef);
        let data = random_dataset(&mut rng, 200, 4);
        let model = GbdtModel::fit(
            &data,
            GbdtParams {
                n_estimators: 10,
                max_depth: 4,
                learning_rate: 0.2,
                ..GbdtParams::default()
            },
        );
        let forest = FlatForest::from_model(&model);
        for r in (0..data.n_rows()).step_by(17) {
            let row = data.row(r);
            for (t, tree) in model.trees().iter().enumerate() {
                let flat_path = forest.decision_path(t, row);
                let rec_path = tree.decision_path(row);
                assert_eq!(flat_path.len(), rec_path.len(), "path length in tree {t}");
                for (step, (&fi, &ri)) in flat_path.iter().zip(&rec_path).enumerate() {
                    let f = forest.node(fi);
                    match &tree.nodes()[ri] {
                        Node::Leaf { value, .. } => {
                            assert!(f.is_leaf(), "tree {t} step {step}");
                            assert_eq!(f.value.to_bits(), value.to_bits());
                        }
                        Node::Split {
                            feature,
                            threshold,
                            value,
                            ..
                        } => {
                            assert_eq!(f.split_feature(), Some(*feature), "tree {t} step {step}");
                            assert_eq!(f.threshold.to_bits(), threshold.to_bits());
                            assert_eq!(f.value.to_bits(), value.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// The flatten-time permutation is breadth-first: within a tree, node
    /// depth never decreases along the index range, and every child of the
    /// node at depth d sits at depth d + 1.
    #[test]
    fn flat_layout_is_breadth_first() {
        let mut rng = StdRng::seed_from_u64(0xbf5);
        let data = random_dataset(&mut rng, 200, 5);
        let model = GbdtModel::fit(
            &data,
            GbdtParams {
                n_estimators: 8,
                max_depth: 5,
                learning_rate: 0.2,
                ..GbdtParams::default()
            },
        );
        let forest = FlatForest::from_model(&model);
        for t in 0..forest.n_trees() {
            let start = forest.tree_root(t);
            let end = forest.tree_offsets[t + 1];
            let mut depth = vec![usize::MAX; (end - start) as usize];
            depth[0] = 0;
            for i in start..end {
                let d = depth[(i - start) as usize];
                assert_ne!(d, usize::MAX, "node {i} unreachable in a fitted tree");
                let n = forest.node(i);
                if !n.is_leaf() {
                    depth[(n.left - start) as usize] = d + 1;
                    depth[(n.right - start) as usize] = d + 1;
                }
            }
            for w in depth.windows(2) {
                assert!(w[0] <= w[1], "depth decreased along BFS order in tree {t}");
            }
        }
    }

    /// Seeded-loop property test of the one production kernel: the
    /// block-batched margins ≡ the recursive oracle, and
    /// [`GbdtModel::predict_dataset`] ≡ `sigmoid` of it, bit for bit, over
    /// random forests (random depths incl. degenerate single-leaf trees, NaN
    /// feature values) and the row counts that stress the 64-row chunking:
    /// 1, 63, 64, 65, 129 and 256.
    #[test]
    fn batched_margins_and_predict_dataset_bit_identical_to_recursive() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(0xb10c + seed);
            let n_features = rng.gen_range(2..6usize);
            let n_rows = 256;
            let data = random_dataset(&mut rng, n_rows, n_features);
            let model = GbdtModel::fit(
                &data,
                GbdtParams {
                    n_estimators: 10,
                    // seed 0 exercises max_depth 0: every tree one leaf.
                    max_depth: (seed as usize) % 4,
                    learning_rate: 0.3,
                    subsample: 0.9,
                    seed,
                    ..GbdtParams::default()
                },
            );
            let forest = FlatForest::from_model(&model);
            // Row-major block with extra NaNs sprinkled in.
            let mut block = data.data().to_vec();
            for v in block.iter_mut().step_by(13) {
                *v = f32::NAN;
            }
            let expected: Vec<f64> = block
                .chunks_exact(n_features)
                .map(|row| model.predict_margin(row))
                .collect();
            for rows in [1usize, 63, 64, 65, 129, 256] {
                let mut out = vec![0.0f64; rows];
                forest.predict_margin_rows_into(&block[..rows * n_features], &mut out);
                let mut dataset = Dataset::new(data.feature_names().to_vec());
                for row in block.chunks_exact(n_features).take(rows) {
                    dataset.push_row(row, 0.0);
                }
                let probs = model.predict_dataset(&dataset);
                assert_eq!(probs.len(), rows);
                for (r, ((a, p), b)) in out.iter().zip(&probs).zip(&expected).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "batched drift at seed {seed} row {r} of {rows}"
                    );
                    assert_eq!(
                        p.to_bits(),
                        sigmoid(*b).to_bits(),
                        "predict_dataset drift at seed {seed} row {r} of {rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_layout_is_contiguous_and_self_contained() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_dataset(&mut rng, 120, 3);
        let model = GbdtModel::fit(
            &data,
            GbdtParams {
                n_estimators: 5,
                max_depth: 3,
                ..GbdtParams::default()
            },
        );
        let forest = FlatForest::from_model(&model);
        let expected: usize = model.trees().iter().map(|t| t.nodes().len()).sum();
        assert_eq!(forest.n_nodes(), expected);
        // Children stay inside their own tree's node range and strictly
        // after their parent (the builder emits children after parents), so
        // traversal always terminates.
        for t in 0..forest.n_trees() {
            let start = forest.tree_root(t);
            let end = forest.tree_offsets[t + 1];
            for i in start..end {
                let n = forest.node(i);
                if !n.is_leaf() {
                    assert!(n.left > i && n.left < end);
                    assert!(n.right > i && n.right < end);
                    assert!((n.feature as usize) < forest.n_features());
                }
            }
        }
    }

    #[test]
    fn feature_index_resolves_names() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = random_dataset(&mut rng, 80, 3);
        let model = GbdtModel::fit(&data, GbdtParams::default());
        let forest = FlatForest::from_model(&model);
        assert_eq!(forest.feature_index("f0"), Some(0));
        assert_eq!(forest.feature_index("f2"), Some(2));
        assert_eq!(forest.feature_index("missing"), None);
    }
}
