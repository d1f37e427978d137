//! Histogram-based regression trees trained on first/second-order gradients —
//! the building block of the gradient-boosting model.
//!
//! The implementation mirrors XGBoost's tree learner: feature values are
//! quantile-binned once per training run, each node accumulates per-bin
//! gradient/hessian histograms, and the split with the best regularised gain
//!
//! ```text
//! gain = 1/2 ( G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ) − γ
//! ```
//!
//! is chosen. Missing values (NaN) are routed to whichever side yields the
//! higher gain ("sparsity-aware" default directions). Leaf weights are
//! `-G/(H+λ)`.
//!
//! Trees grow one depth at a time. Every node of a depth is split-searched in
//! one fan-out: each worker owns one contiguous chunk of the candidate
//! features and makes that chunk's histograms for every node of the level,
//! so a tree opens at most `max_depth` thread scopes, not one per node. Each
//! node's chunk winners are reduced in feature order with a strict `>`, so a
//! gain tie goes to the lowest feature. The finished nodes are numbered in
//! depth-first pre-order (root, left subtree, right subtree).
//!
//! Histograms are made by subtraction. A node's histograms over one chunk
//! are one flat buffer of `[g, h]` slots, each feature's bins followed by its
//! missing bucket, laid out once per tree. The root's are built from its
//! rows. At each split, the child with fewer rows (the left child on a tie)
//! is built from its rows, and the larger child is derived in place from its
//! parent's buffer as parent − built, so below the root a level's builds
//! read at most half of its rows. A split node's buffers are kept only when
//! its larger child will be searched.
//!
//! A derived slot equals the larger child's row-order sum up to rounding,
//! and in practice to the bit: an f64 sum of f32 gradients is exact unless
//! the slot's values span many binary orders of magnitude. Leaf weights and
//! covers still come from row-order sums, so a derived histogram can change
//! a tree only when two candidate gains fall within rounding of each other.
//! Exact ties survive: identical columns go through identical operations,
//! and a slot the larger child has no rows in derives to exactly 0.0
//! whenever its parent's slot is exact, as the root's always are. No slot
//! depends on the chunking — each sums the same rows in the same order
//! whichever worker holds its feature — so every worker count grows the same
//! tree.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;

/// Bin index reserved for missing values.
pub const MISSING_BIN: u8 = u8::MAX;

/// Hyper-parameters of a single tree.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularisation on leaf weights (XGBoost's `lambda`).
    pub lambda: f64,
    /// Minimum loss reduction required to make a split (XGBoost's `gamma`).
    pub gamma: f64,
    /// Minimum sum of hessians in each child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

/// Quantile binner mapping raw feature values to small bin indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Binner {
    /// Per-feature sorted cut values; bin `b` holds `cuts[b-1] < v <= cuts[b]`,
    /// the last bin holds everything above the final cut.
    cuts: Vec<Vec<f32>>,
}

impl Binner {
    /// Fit cut points from (a subset of) the dataset's rows.
    pub fn fit(data: &Dataset, rows: &[usize], max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(2, 254);
        let mut cuts = Vec::with_capacity(data.n_features());
        for f in 0..data.n_features() {
            let mut values: Vec<f32> = rows
                .iter()
                .map(|&r| data.get(r, f))
                .filter(|v| !v.is_nan())
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            values.dedup();
            let feature_cuts = if values.len() <= max_bins {
                // Few distinct values: every value (except the max) is a cut.
                if values.len() <= 1 {
                    Vec::new()
                } else {
                    values[..values.len() - 1].to_vec()
                }
            } else {
                // Quantile cuts.
                let mut c: Vec<f32> = (1..max_bins)
                    .map(|i| {
                        let pos = i * (values.len() - 1) / max_bins;
                        values[pos]
                    })
                    .collect();
                c.dedup();
                c
            };
            cuts.push(feature_cuts);
        }
        Self { cuts }
    }

    /// Number of bins for a feature (excluding the missing bin).
    pub fn n_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// Bin index of a raw value ([`MISSING_BIN`] for NaN).
    pub fn bin(&self, feature: usize, v: f32) -> u8 {
        if v.is_nan() {
            return MISSING_BIN;
        }
        let cuts = &self.cuts[feature];
        // First cut >= v gives the bin.
        let b = cuts.partition_point(|&c| c < v);
        b as u8
    }

    /// The raw-value threshold corresponding to "bin <= b".
    pub fn threshold(&self, feature: usize, bin: usize) -> f32 {
        self.cuts[feature][bin]
    }

    /// Pre-bin the whole dataset (row-major `n_rows × n_features`).
    pub fn bin_matrix(&self, data: &Dataset) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.n_rows() * data.n_features());
        for r in 0..data.n_rows() {
            let row = data.row(r);
            for (f, &v) in row.iter().enumerate() {
                out.push(self.bin(f, v));
            }
        }
        out
    }
}

/// A node of the regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// An internal split node.
    Split {
        feature: usize,
        /// Raw-value threshold: `v <= threshold` goes left.
        threshold: f32,
        /// Where missing values go.
        default_left: bool,
        left: usize,
        right: usize,
        /// The weight this node would have as a leaf (`-G/(H+λ)`); used by the
        /// attribution module.
        value: f64,
        /// Sum of hessians reaching the node ("cover").
        cover: f64,
    },
    /// A terminal leaf carrying the weight added to the margin.
    Leaf { value: f64, cover: f64 },
}

impl Node {
    /// The node's weight value.
    pub fn value(&self) -> f64 {
        match self {
            Node::Split { value, .. } => *value,
            Node::Leaf { value, .. } => *value,
        }
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// What one tree fit reads: the pre-binned training matrix (row-major,
/// `n_features` bins per row), the round's per-row gradients and hessians,
/// and the tree's hyper-parameters.
pub(crate) struct FitContext<'a> {
    pub(crate) binned: &'a [u8],
    pub(crate) n_features: usize,
    pub(crate) grad: &'a [f32],
    pub(crate) hess: &'a [f32],
    pub(crate) binner: &'a Binner,
    pub(crate) params: TreeParams,
}

#[derive(Clone, Copy)]
struct SplitCandidate {
    feature: usize,
    bin: usize,
    gain: f64,
    missing_left: bool,
    gl: f64,
    hl: f64,
    gr: f64,
    hr: f64,
}

impl RegressionTree {
    /// Reassemble a tree from its node array (node 0 is the root) — the
    /// deserialisation counterpart of [`RegressionTree::nodes`], used by the
    /// model-artifact reader.
    ///
    /// Callers are expected to have validated the topology (the
    /// `redsus_serve` artifact reader rejects malformed node arrays with
    /// typed errors before constructing); this constructor only
    /// debug-asserts the invariants traversal relies on.
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        debug_assert!(!nodes.is_empty(), "a tree needs at least one node");
        debug_assert!(nodes.iter().enumerate().all(|(i, n)| match n {
            Node::Leaf { .. } => true,
            Node::Split { left, right, .. } => {
                *left > i && *left < nodes.len() && *right > i && *right < nodes.len()
            }
        }));
        Self { nodes }
    }

    /// The tree's nodes (node 0 is the root).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Multiply every node value by `scale` (the boosting learning rate), so
    /// that predictions and attributions include shrinkage.
    pub fn scale_values(&mut self, scale: f64) {
        for node in &mut self.nodes {
            match node {
                Node::Leaf { value, .. } => *value *= scale,
                Node::Split { value, .. } => *value *= scale,
            }
        }
    }

    /// The weight of the leaf a raw feature row reaches. Fitting walks the
    /// rows subsampling left out and the validation rows through it;
    /// scoring goes through [`crate::FlatForest`].
    pub(crate) fn predict_row(&self, row: &[f32]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    default_left,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature];
                    let go_left = if v.is_nan() {
                        *default_left
                    } else {
                        v <= *threshold
                    };
                    i = if go_left { *left } else { *right };
                }
            }
        }
    }

    /// Test oracle: the indices of the nodes visited for a row, root to
    /// leaf, which [`crate::FlatForest::decision_path`] must reproduce.
    #[cfg(test)]
    pub(crate) fn decision_path(&self, row: &[f32]) -> Vec<usize> {
        let mut path = Vec::new();
        let mut i = 0;
        loop {
            path.push(i);
            match &self.nodes[i] {
                Node::Leaf { .. } => return path,
                Node::Split {
                    feature,
                    threshold,
                    default_left,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature];
                    let go_left = if v.is_nan() {
                        *default_left
                    } else {
                        v <= *threshold
                    };
                    i = if go_left { *left } else { *right };
                }
            }
        }
    }
}

/// Feature count from which split search fans out across workers: below it,
/// a thread scope costs more than the histograms it would share out.
const PARALLEL_THRESHOLD: usize = 64;

/// Worker count for split search: the host's parallelism, capped at 8.
pub(crate) fn split_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One histogram slot: the gradient and hessian sums, in row order, of a
/// node's rows that fall in one bin of one feature.
type Slot = [f64; 2];

/// Where one chunk of candidate features keeps its histograms in a flat
/// [`Slot`] buffer: every feature that has something to split on (two or
/// more bins), in chunk order, with the offset of its first slot and its bin
/// count. A feature owns `n_bins + 1` slots, the last its missing bucket.
struct ChunkLayout {
    features: Vec<(usize, usize, usize)>,
    slots: usize,
}

impl ChunkLayout {
    fn new(binner: &Binner, chunk: &[usize]) -> Self {
        let mut slots = 0;
        let features = chunk
            .iter()
            .filter(|&&f| binner.n_bins(f) >= 2)
            .map(|&f| {
                let n_bins = binner.n_bins(f);
                let entry = (f, slots, n_bins);
                slots += n_bins + 1;
                entry
            })
            .collect();
        Self { features, slots }
    }

    /// The histogram kernel's build half: a single contiguous pass over the
    /// rows accumulates every feature of the chunk at once — each row's bins
    /// are adjacent bytes and its gradient/hessian are read once.
    fn build(&self, ctx: &FitContext<'_>, rows: &[usize]) -> Vec<Slot> {
        let mut hist = vec![[0.0; 2]; self.slots];
        for &r in rows {
            let row_bins = &ctx.binned[r * ctx.n_features..(r + 1) * ctx.n_features];
            let g = ctx.grad[r] as f64;
            let h = ctx.hess[r] as f64;
            for &(feature, offset, n_bins) in &self.features {
                let bin = row_bins[feature];
                let slot = if bin == MISSING_BIN {
                    n_bins
                } else {
                    bin as usize
                };
                let sums = &mut hist[offset + slot];
                sums[0] += g;
                sums[1] += h;
            }
        }
        hist
    }

    /// The kernel's scan half: the best split over the chunk of a node whose
    /// histograms are `hist` and whose sums are `g_total`, `h_total`.
    fn scan(
        &self,
        ctx: &FitContext<'_>,
        hist: &[Slot],
        g_total: f64,
        h_total: f64,
    ) -> Option<SplitCandidate> {
        let mut best = None;
        for &(feature, offset, n_bins) in &self.features {
            scan_histogram(
                ctx,
                (g_total, h_total),
                feature,
                &hist[offset..=offset + n_bins],
                &mut best,
            );
        }
        best
    }
}

/// A node of the level being grown: its rows, in the order its parent held
/// them, and their gradient/hessian sums.
struct OpenNode {
    /// Index in creation (breadth-first) order.
    id: usize,
    rows: Vec<usize>,
    g: f64,
    h: f64,
}

impl OpenNode {
    /// Sum the rows' gradients and hessians in row order and append the node
    /// to `nodes` as a leaf carrying its weight `-G/(H+λ)`.
    fn open(ctx: &FitContext<'_>, nodes: &mut Vec<Node>, rows: Vec<usize>) -> Self {
        let g: f64 = rows.iter().map(|&r| ctx.grad[r] as f64).sum();
        let h: f64 = rows.iter().map(|&r| ctx.hess[r] as f64).sum();
        nodes.push(Node::Leaf {
            value: -g / (h + ctx.params.lambda),
            cover: h,
        });
        Self {
            id: nodes.len() - 1,
            rows,
            g,
            h,
        }
    }
}

/// A node whose histograms one level makes, and how.
struct LevelNode {
    node: OpenNode,
    /// `None` when the histograms are built from the node's rows: the root,
    /// or the child of a split with fewer rows (the left child on a tie).
    /// `Some(p)` for the larger child: parent buffer `p` minus the histograms
    /// of its sibling, which the level lists just before it.
    parent: Option<usize>,
    /// Whether the node's split is searched. A one-row smaller child is not;
    /// it is built only so that its sibling can be derived.
    searched: bool,
}

/// Grow one tree depth by depth over `rows`, splitting on `features` with up
/// to `workers` split-search threads per level.
///
/// Returns the tree, its nodes numbered depth-first, and for every row index
/// of the matrix the leaf that row ended in (`None` for rows not in `rows`).
pub(crate) fn grow(
    ctx: &FitContext<'_>,
    rows: &[usize],
    features: &[usize],
    workers: usize,
) -> (RegressionTree, Vec<Option<usize>>) {
    let layouts: Vec<ChunkLayout> = if features.len() < PARALLEL_THRESHOLD || workers < 2 {
        vec![ChunkLayout::new(ctx.binner, features)]
    } else {
        features
            .chunks(features.len().div_ceil(workers))
            .map(|chunk| ChunkLayout::new(ctx.binner, chunk))
            .collect()
    };
    let searchable =
        |depth: usize, node: &OpenNode| depth < ctx.params.max_depth && node.rows.len() >= 2;
    // Nodes in creation (breadth-first) order.
    let mut nodes = Vec::new();
    let mut leaf_of = vec![None; ctx.grad.len()];
    let mut settle = |node: &OpenNode| {
        for &r in &node.rows {
            leaf_of[r] = Some(node.id);
        }
    };
    let root = OpenNode::open(ctx, &mut nodes, rows.to_vec());
    let mut level = Vec::new();
    if searchable(0, &root) {
        level.push(LevelNode {
            node: root,
            parent: None,
            searched: true,
        });
    } else {
        settle(&root);
    }
    // Per chunk, the kept histograms of the split nodes the level's larger
    // children derive from.
    let mut parents: Vec<Vec<Vec<Slot>>> = vec![Vec::new(); layouts.len()];
    let mut depth = 0;
    while !level.is_empty() {
        let per_chunk = search_level(ctx, &layouts, &level, parents);
        let (winners, mut hists): (Vec<_>, Vec<_>) = per_chunk.into_iter().unzip();
        parents = vec![Vec::new(); layouts.len()];
        let mut next = Vec::with_capacity(2 * level.len());
        for (i, LevelNode { node, .. }) in level.into_iter().enumerate() {
            let best = reduce_chunk_winners(winners.iter().map(|w: &Vec<_>| w[i]));
            if let Some(b) = best {
                // Sanity: children partition the parent's gradient mass.
                debug_assert!((b.gl + b.gr - node.g).abs() < 1e-6 * (1.0 + node.g.abs()));
                debug_assert!((b.hl + b.hr - node.h).abs() < 1e-6 * (1.0 + node.h.abs()));
            }
            let Some(best) = best.filter(|b| b.gain > 0.0) else {
                settle(&node);
                continue;
            };
            let (left_rows, right_rows) = partition(ctx, &node.rows, &best);
            if left_rows.is_empty() || right_rows.is_empty() {
                settle(&node);
                continue;
            }
            let left = OpenNode::open(ctx, &mut nodes, left_rows);
            let right = OpenNode::open(ctx, &mut nodes, right_rows);
            nodes[node.id] = Node::Split {
                feature: best.feature,
                threshold: ctx.binner.threshold(best.feature, best.bin),
                default_left: best.missing_left,
                left: left.id,
                right: right.id,
                value: nodes[node.id].value(),
                cover: node.h,
            };
            let (smaller, larger) = if left.rows.len() <= right.rows.len() {
                (left, right)
            } else {
                (right, left)
            };
            // The smaller child is searched only if the larger one is, so
            // the node's histograms are kept exactly when the larger child
            // will be derived from them.
            if !searchable(depth + 1, &larger) {
                settle(&smaller);
                settle(&larger);
                continue;
            }
            let parent = parents[0].len();
            for (kept, chunk_hists) in parents.iter_mut().zip(&mut hists) {
                kept.push(std::mem::take(&mut chunk_hists[i]));
            }
            next.push(LevelNode {
                searched: searchable(depth + 1, &smaller),
                node: smaller,
                parent: None,
            });
            next.push(LevelNode {
                node: larger,
                parent: Some(parent),
                searched: true,
            });
        }
        level = next;
        depth += 1;
    }

    // Renumber depth-first (root, left subtree, right subtree), the order a
    // recursive builder creates nodes in, so node arrays, artifacts and flat
    // layouts do not depend on the growth order.
    let mut order = Vec::with_capacity(nodes.len());
    let mut stack = vec![0];
    while let Some(i) = stack.pop() {
        order.push(i);
        if let Node::Split { left, right, .. } = nodes[i] {
            stack.push(right);
            stack.push(left);
        }
    }
    let mut renumbered = vec![0; nodes.len()];
    for (new, &old) in order.iter().enumerate() {
        renumbered[old] = new;
    }
    let nodes = order
        .iter()
        .map(|&old| {
            let mut node = nodes[old].clone();
            if let Node::Split { left, right, .. } = &mut node {
                *left = renumbered[*left];
                *right = renumbered[*right];
            }
            node
        })
        .collect();
    for leaf in leaf_of.iter_mut().flatten() {
        *leaf = renumbered[*leaf];
    }
    (RegressionTree { nodes }, leaf_of)
}

/// Split `rows` stably into the rows `best` sends left and right.
fn partition(
    ctx: &FitContext<'_>,
    rows: &[usize],
    best: &SplitCandidate,
) -> (Vec<usize>, Vec<usize>) {
    let mut left = Vec::with_capacity(rows.len() / 2);
    let mut right = Vec::with_capacity(rows.len() / 2);
    for &r in rows {
        let bin = ctx.binned[r * ctx.n_features + best.feature];
        let go_left = if bin == MISSING_BIN {
            best.missing_left
        } else {
            (bin as usize) <= best.bin
        };
        if go_left {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

/// One level's split search, in one fan-out when there is more than one
/// chunk: each worker makes one chunk's histograms for every node of the
/// level, and the calling thread takes the first chunk. `parents` holds each
/// chunk's retained parent buffers. Returns, per chunk, every level node's
/// best split in the chunk and its histograms.
fn search_level(
    ctx: &FitContext<'_>,
    layouts: &[ChunkLayout],
    level: &[LevelNode],
    parents: Vec<Vec<Vec<Slot>>>,
) -> Vec<ChunkResult> {
    let mut jobs = layouts.iter().zip(parents);
    let (first, first_parents) = jobs.next().expect("a tree has at least one feature chunk");
    if layouts.len() == 1 {
        return vec![search_chunk(ctx, first, level, first_parents)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .map(|(layout, parents)| scope.spawn(move || search_chunk(ctx, layout, level, parents)))
            .collect();
        let mut per_chunk = vec![search_chunk(ctx, first, level, first_parents)];
        per_chunk.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("split worker panicked")),
        );
        per_chunk
    })
}

/// One chunk's share of a level: every level node's best split in the chunk
/// (`None` for a node that is not searched) and its histograms.
type ChunkResult = (Vec<Option<SplitCandidate>>, Vec<Vec<Slot>>);

/// Make one chunk's histograms for every node of the level, in level order,
/// and scan the searched ones. A built node accumulates its rows; a larger
/// child takes its parent's buffer and subtracts its sibling's, slot by
/// slot, in place.
fn search_chunk(
    ctx: &FitContext<'_>,
    layout: &ChunkLayout,
    level: &[LevelNode],
    mut parents: Vec<Vec<Slot>>,
) -> ChunkResult {
    let mut winners = Vec::with_capacity(level.len());
    let mut hists: Vec<Vec<Slot>> = Vec::with_capacity(level.len());
    for entry in level {
        let hist = match entry.parent {
            None => layout.build(ctx, &entry.node.rows),
            Some(p) => {
                let mut hist = std::mem::take(&mut parents[p]);
                derive(
                    &mut hist,
                    hists.last().expect("a derived child follows its sibling"),
                );
                hist
            }
        };
        winners.push(if entry.searched {
            layout.scan(ctx, &hist, entry.node.g, entry.node.h)
        } else {
            None
        });
        hists.push(hist);
    }
    (winners, hists)
}

/// Turn a parent's histograms into its larger child's: the parent's minus
/// the smaller child's, slot by slot. A slot the larger child has no rows in
/// held the same row-order sum in both buffers, so it derives to exactly
/// 0.0 when the parent's buffer was built from its rows.
fn derive(parent: &mut [Slot], smaller: &[Slot]) {
    for (sums, built) in parent.iter_mut().zip(smaller) {
        sums[0] -= built[0];
        sums[1] -= built[1];
    }
}

/// Reduce one node's chunk winners in chunk order with a strict `>`, so a
/// tie keeps the earlier chunk and goes to the lowest feature, as in one
/// sequential scan.
fn reduce_chunk_winners(
    winners: impl Iterator<Item = Option<SplitCandidate>>,
) -> Option<SplitCandidate> {
    winners
        .flatten()
        .fold(None, |acc: Option<SplitCandidate>, cand| match acc {
            Some(best) if cand.gain <= best.gain => Some(best),
            _ => Some(cand),
        })
}

/// Cumulative left-to-right scan of one feature's finished histogram (its
/// bins, then its missing bucket), trying both missing-value directions at
/// every bin boundary. A candidate replaces `best` only on a strictly higher
/// gain, so ties keep the earlier feature and bin.
fn scan_histogram(
    ctx: &FitContext<'_>,
    (g_total, h_total): (f64, f64),
    feature: usize,
    hist: &[Slot],
    best: &mut Option<SplitCandidate>,
) {
    let (bins, missing) = hist.split_at(hist.len() - 1);
    let [g_missing, h_missing] = missing[0];
    let parent_score = g_total * g_total / (h_total + ctx.params.lambda);
    let mut gl = 0.0f64;
    let mut hl = 0.0f64;
    for (bin, &[g, h]) in bins[..bins.len() - 1].iter().enumerate() {
        gl += g;
        hl += h;
        for missing_left in [false, true] {
            let (gl_eff, hl_eff) = if missing_left {
                (gl + g_missing, hl + h_missing)
            } else {
                (gl, hl)
            };
            let gr_eff = g_total - gl_eff;
            let hr_eff = h_total - hl_eff;
            if hl_eff < ctx.params.min_child_weight || hr_eff < ctx.params.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl_eff * gl_eff / (hl_eff + ctx.params.lambda)
                    + gr_eff * gr_eff / (hr_eff + ctx.params.lambda)
                    - parent_score)
                - ctx.params.gamma;
            if best.map(|b| gain > b.gain).unwrap_or(gain > 0.0) {
                *best = Some(SplitCandidate {
                    feature,
                    bin,
                    gain,
                    missing_left,
                    gl: gl_eff,
                    hl: hl_eff,
                    gr: gr_eff,
                    hr: hr_eff,
                });
            }
        }
    }
}

/// The direct kernel: one node's best split over `features`, from
/// histograms built from its own rows. [`grow`] builds only the root and
/// the smaller child of each split this way.
#[cfg(test)]
fn best_split_direct(
    ctx: &FitContext<'_>,
    rows: &[usize],
    features: &[usize],
    g_total: f64,
    h_total: f64,
) -> Option<SplitCandidate> {
    let layout = ChunkLayout::new(ctx.binner, features);
    layout.scan(ctx, &layout.build(ctx, rows), g_total, h_total)
}

/// The column scan the histogram kernel replaced, kept as its oracle: one
/// strided pass over the row-major bin matrix per feature, re-reading each
/// row's gradient/hessian once per feature. It feeds every `(feature, bin)`
/// accumulator the same values in the same row order as the kernel, so the
/// two must agree to the bit.
#[cfg(test)]
fn best_split_column_scan(
    ctx: &FitContext<'_>,
    rows: &[usize],
    features: &[usize],
    g_total: f64,
    h_total: f64,
) -> Option<SplitCandidate> {
    let mut best = None;
    for &feature in features {
        let n_bins = ctx.binner.n_bins(feature);
        if n_bins < 2 {
            continue;
        }
        // Bins, then the missing bucket.
        let mut hist = vec![[0.0f64; 2]; n_bins + 1];
        for &r in rows {
            let bin = ctx.binned[r * ctx.n_features + feature];
            let slot = if bin == MISSING_BIN {
                n_bins
            } else {
                bin as usize
            };
            hist[slot][0] += ctx.grad[r] as f64;
            hist[slot][1] += ctx.hess[r] as f64;
        }
        scan_histogram(ctx, (g_total, h_total), feature, &hist, &mut best);
    }
    best
}

/// The recursive builder [`grow`] replaced, kept as its reference: one
/// sequential split search per node, from histograms summed directly over
/// the node's rows, numbering nodes in creation order, which is depth-first.
/// Returns the node's index in `nodes`.
#[cfg(test)]
pub(crate) fn grow_recursively(
    ctx: &FitContext<'_>,
    nodes: &mut Vec<Node>,
    rows: Vec<usize>,
    features: &[usize],
    depth: usize,
) -> usize {
    let node = OpenNode::open(ctx, nodes, rows);
    if depth >= ctx.params.max_depth || node.rows.len() < 2 {
        return node.id;
    }
    let Some(best) = best_split_direct(ctx, &node.rows, features, node.g, node.h) else {
        return node.id;
    };
    if best.gain <= 0.0 {
        return node.id;
    }
    let (left_rows, right_rows) = partition(ctx, &node.rows, &best);
    if left_rows.is_empty() || right_rows.is_empty() {
        return node.id;
    }
    let value = nodes[node.id].value();
    let left = grow_recursively(ctx, nodes, left_rows, features, depth + 1);
    let right = grow_recursively(ctx, nodes, right_rows, features, depth + 1);
    nodes[node.id] = Node::Split {
        feature: best.feature,
        threshold: ctx.binner.threshold(best.feature, best.bin),
        default_left: best.missing_left,
        left,
        right,
        value,
        cover: node.h,
    };
    node.id
}

/// Sample `k` distinct feature indices out of `n` (column subsampling).
pub(crate) fn sample_features(n: usize, fraction: f64, rng: &mut StdRng) -> Vec<usize> {
    let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    if k < n {
        idx.shuffle(rng);
        idx.truncate(k);
        idx.sort_unstable();
    }
    idx
}

/// Sample row indices with the given fraction (without replacement).
pub(crate) fn sample_rows(n: usize, fraction: f64, rng: &mut StdRng) -> Vec<usize> {
    let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    if k < n {
        idx.shuffle(rng);
        idx.truncate(k);
        idx.sort_unstable();
    }
    idx
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A dataset where feature 0 separates the classes perfectly.
    fn separable() -> (Dataset, Vec<f32>, Vec<f32>) {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]);
        for i in 0..100 {
            let x = i as f32 / 100.0;
            let label = if x > 0.5 { 1.0 } else { 0.0 };
            d.push_row(&[x, (i % 7) as f32], label);
        }
        // Gradients of logistic loss at p = 0.5: g = 0.5 - y, h = 0.25.
        let grad: Vec<f32> = d.labels().iter().map(|&y| 0.5 - y).collect();
        let hess = vec![0.25f32; d.n_rows()];
        (d, grad, hess)
    }

    /// Grow one tree over every row and feature of `d`, binned into at most
    /// `max_bins` bins.
    fn fit_all(
        d: &Dataset,
        grad: &[f32],
        hess: &[f32],
        max_bins: usize,
        params: TreeParams,
    ) -> RegressionTree {
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let features: Vec<usize> = (0..d.n_features()).collect();
        let binner = Binner::fit(d, &rows, max_bins);
        let binned = binner.bin_matrix(d);
        let ctx = context(d, &binner, &binned, grad, hess, params);
        grow(&ctx, &rows, &features, split_workers()).0
    }

    fn fit_default(d: &Dataset, grad: &[f32], hess: &[f32]) -> RegressionTree {
        fit_all(d, grad, hess, 32, TreeParams::default())
    }

    #[test]
    fn binner_round_trip_consistency() {
        let (d, _, _) = separable();
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let binner = Binner::fit(&d, &rows, 16);
        // bin(v) <= b  iff  v <= threshold(b) for in-range bins.
        for r in 0..d.n_rows() {
            let v = d.get(r, 0);
            let b = binner.bin(0, v) as usize;
            if b < binner.n_bins(0) - 1 {
                assert!(v <= binner.threshold(0, b));
            }
            if b > 0 {
                assert!(v > binner.threshold(0, b - 1));
            }
        }
        assert_eq!(binner.bin(0, f32::NAN), MISSING_BIN);
    }

    #[test]
    fn tree_learns_separable_data() {
        let (d, grad, hess) = separable();
        let tree = fit_default(&d, &grad, &hess);
        assert!(tree.depth() >= 1);
        // Positive rows should get positive leaf weights and vice versa.
        let pos_pred = tree.predict_row(&[0.9, 0.0]);
        let neg_pred = tree.predict_row(&[0.1, 0.0]);
        assert!(pos_pred > 0.0, "positive side weight {pos_pred}");
        assert!(neg_pred < 0.0, "negative side weight {neg_pred}");
    }

    #[test]
    fn missing_values_follow_default_direction() {
        let (d, grad, hess) = separable();
        let tree = fit_default(&d, &grad, &hess);
        // Prediction for a missing feature 0 must equal one of the two sides.
        let miss = tree.predict_row(&[f32::NAN, 0.0]);
        let lo = tree.predict_row(&[0.1, 0.0]);
        let hi = tree.predict_row(&[0.9, 0.0]);
        assert!((miss - lo).abs() < 1e-9 || (miss - hi).abs() < 1e-9);
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let (d, grad, hess) = separable();
        let params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        let tree = fit_all(&d, &grad, &hess, 16, params);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let (d, grad, hess) = separable();
        let params = TreeParams {
            gamma: 1.0e9,
            ..TreeParams::default()
        };
        let tree = fit_all(&d, &grad, &hess, 16, params);
        assert_eq!(tree.n_leaves(), 1, "a huge gamma must prevent any split");
    }

    #[test]
    fn scale_values_scales_predictions() {
        let (d, grad, hess) = separable();
        let mut tree = fit_default(&d, &grad, &hess);
        let before = tree.predict_row(&[0.9, 0.0]);
        tree.scale_values(0.1);
        let after = tree.predict_row(&[0.9, 0.0]);
        assert!((after - before * 0.1).abs() < 1e-9);
    }

    #[test]
    fn decision_path_starts_at_root_and_ends_at_leaf() {
        let (d, grad, hess) = separable();
        let tree = fit_default(&d, &grad, &hess);
        let path = tree.decision_path(&[0.9, 0.0]);
        assert_eq!(path[0], 0);
        assert!(matches!(
            tree.nodes()[*path.last().unwrap()],
            Node::Leaf { .. }
        ));
        assert!(path.len() >= 2);
    }

    #[test]
    fn sampling_helpers_are_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = sample_features(10, 0.3, &mut rng);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|&i| i < 10));
        let r = sample_rows(10, 1.0, &mut rng);
        assert_eq!(r.len(), 10);
        let one = sample_features(5, 0.0, &mut rng);
        assert_eq!(one.len(), 1);
    }

    /// A context over a dataset's full bin matrix.
    fn context<'a>(
        d: &Dataset,
        binner: &'a Binner,
        binned: &'a [u8],
        grad: &'a [f32],
        hess: &'a [f32],
        params: TreeParams,
    ) -> FitContext<'a> {
        FitContext {
            binned,
            n_features: d.n_features(),
            grad,
            hess,
            binner,
            params,
        }
    }

    pub(crate) struct MixedColumns {
        pub(crate) d: Dataset,
        grad: Vec<f32>,
        hess: Vec<f32>,
        binner: Binner,
        binned: Vec<u8>,
    }

    /// Seeded data with every column shape split search must handle. Column
    /// `f` is, by `f % 9`: 4 constant (a single bin), 5 two-valued with
    /// missing values, 6 all missing (a single bin), 7 a copy of column 0 or
    /// 1 (exact gain ties, spread over the feature range), 8 uniform with no
    /// missing values, and otherwise uniform with 10% missing. Labels follow
    /// columns 0 and 1; gradients and hessians are logistic at a random
    /// margin.
    pub(crate) fn mixed_columns(
        rng: &mut StdRng,
        n_rows: usize,
        n_features: usize,
    ) -> MixedColumns {
        use rand::Rng;
        let mut d = Dataset::new((0..n_features).map(|f| format!("x{f}")).collect());
        let mut grad = Vec::with_capacity(n_rows);
        let mut hess = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut row = vec![0.0f32; n_features];
            for f in 0..n_features {
                row[f] = match f % 9 {
                    4 => 1.0,
                    5 if rng.gen_range(0.0..1.0) < 0.1 => f32::NAN,
                    5 => (rng.gen_range(0.0..1.0) < 0.5) as u8 as f32,
                    6 => f32::NAN,
                    7 => row[(f / 9) % 2],
                    8 => rng.gen_range(-1.0..1.0),
                    _ if rng.gen_range(0.0..1.0) < 0.1 => f32::NAN,
                    _ => rng.gen_range(-1.0..1.0),
                };
            }
            let signal = row[0] > -0.2 && (row[1].is_nan() || row[1] >= 0.4);
            let label = if signal ^ (rng.gen_range(0.0..1.0) < 0.1) {
                1.0
            } else {
                0.0
            };
            d.push_row(&row, label);
            let p: f64 = 1.0 / (1.0 + (-rng.gen_range(-2.0..2.0f64)).exp());
            grad.push((p - label as f64) as f32);
            hess.push((p * (1.0 - p)) as f32);
        }
        let rows: Vec<usize> = (0..n_rows).collect();
        let binner = Binner::fit(&d, &rows, 32);
        let binned = binner.bin_matrix(&d);
        MixedColumns {
            d,
            grad,
            hess,
            binner,
            binned,
        }
    }

    /// The histogram kernel must pick exactly the column scan's split (same
    /// feature, bin, missing direction and gain bits) on random nodes with
    /// missing values, tied columns and single-bin features.
    #[test]
    fn histogram_kernel_matches_the_column_scan() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5ca1);
        let mut splits = 0;
        for case in 0..60 {
            let n_rows = rng.gen_range(20..300);
            let n_features = rng.gen_range(2..30);
            let m = mixed_columns(&mut rng, n_rows, n_features);
            let params = TreeParams {
                min_child_weight: rng.gen_range(0.0..3.0),
                lambda: rng.gen_range(0.0..2.0),
                ..TreeParams::default()
            };
            let ctx = context(&m.d, &m.binner, &m.binned, &m.grad, &m.hess, params);
            let rows = sample_rows(n_rows, rng.gen_range(0.1..1.0), &mut rng);
            let features = sample_features(n_features, rng.gen_range(0.3..1.0), &mut rng);
            let g: f64 = rows.iter().map(|&r| m.grad[r] as f64).sum();
            let h: f64 = rows.iter().map(|&r| m.hess[r] as f64).sum();
            let key = |c: Option<SplitCandidate>| {
                c.map(|c| (c.feature, c.bin, c.missing_left, c.gain.to_bits()))
            };
            let kernel = key(best_split_direct(&ctx, &rows, &features, g, h));
            let oracle = key(best_split_column_scan(&ctx, &rows, &features, g, h));
            assert_eq!(kernel, oracle, "case {case}");
            splits += kernel.is_some() as usize;
        }
        assert!(splits >= 40, "only {splits} of 60 nodes split");
    }

    /// Histogram subtraction on its own: on random stable partitions of
    /// random row sets, the parent's buffer minus the smaller child's must
    /// match the larger child's directly built buffer within
    /// `1e-9·(1 + parent mass)` in every slot, and be exactly 0.0 wherever
    /// the larger child has no rows: an empty bin, or the missing bucket of a
    /// NaN-free column. Gradients and hessians are spread over 40 binary
    /// orders of magnitude so that the f64 sums round, as logistic ones
    /// rarely make them.
    #[test]
    fn derived_histograms_match_direct_sums() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xd1ff);
        let (mut empty_bins, mut empty_missing, mut rounded) = (0, 0, 0);
        for case in 0..40 {
            let n_rows = rng.gen_range(20..400);
            let n_features = rng.gen_range(64..100);
            let mut m = mixed_columns(&mut rng, n_rows, n_features);
            for v in m.grad.iter_mut().chain(&mut m.hess) {
                *v *= 2f32.powi(-rng.gen_range(0..40));
            }
            let params = TreeParams::default();
            let ctx = context(&m.d, &m.binner, &m.binned, &m.grad, &m.hess, params);
            // Unit gradients and hessians make a histogram of row counts.
            let ones = vec![1.0f32; n_rows];
            let counter = context(&m.d, &m.binner, &m.binned, &ones, &ones, params);
            let layout = ChunkLayout::new(&m.binner, &(0..n_features).collect::<Vec<_>>());
            let parent = sample_rows(n_rows, rng.gen_range(0.1..1.0), &mut rng);
            // Even cases cut on one feature's bin, as a split does; odd ones
            // send each row left with one random probability.
            let (left, right): (Vec<usize>, Vec<usize>) = if case % 2 == 0 {
                let feature = rng.gen_range(0..n_features);
                let bin = rng.gen_range(0..m.binner.n_bins(feature)) as u8;
                let missing_left = rng.gen_range(0.0..1.0) < 0.5;
                parent
                    .iter()
                    .partition(|&&r| match m.binned[r * n_features + feature] {
                        MISSING_BIN => missing_left,
                        b => b <= bin,
                    })
            } else {
                let p_left = rng.gen_range(0.0..1.0);
                parent
                    .iter()
                    .partition(|_| rng.gen_range(0.0..1.0) < p_left)
            };
            let (smaller, larger) = if left.len() <= right.len() {
                (left, right)
            } else {
                (right, left)
            };
            let mut derived = layout.build(&ctx, &parent);
            derive(&mut derived, &layout.build(&ctx, &smaller));
            let direct = layout.build(&ctx, &larger);
            let counts = layout.build(&counter, &larger);
            let mass: f64 = parent
                .iter()
                .map(|&r| (m.grad[r].abs() + m.hess[r]) as f64)
                .sum();
            for &(feature, offset, n_bins) in &layout.features {
                for slot in offset..=offset + n_bins {
                    let at = format!("case {case}, feature {feature}, slot {}", slot - offset);
                    if counts[slot][0] == 0.0 {
                        assert_eq!(derived[slot].map(f64::to_bits), [0; 2], "{at}");
                        if slot == offset + n_bins {
                            empty_missing += 1;
                        } else {
                            empty_bins += 1;
                        }
                    } else {
                        for k in 0..2 {
                            let error = (derived[slot][k] - direct[slot][k]).abs();
                            assert!(error <= 1e-9 * (1.0 + mass), "{at}: off by {error}");
                            rounded += (error > 0.0) as usize;
                        }
                    }
                }
            }
        }
        assert!(empty_bins > 0 && empty_missing > 0 && rounded > 0);
    }

    /// How many splits of a tree take the shapes histogram subtraction
    /// treats specially. Each counted split has a searched larger child,
    /// which is derived from the split node's histograms.
    #[derive(Debug, Default)]
    struct SplitShapes {
        /// The smaller child has one row: it is built but never searched.
        one_row_settled: usize,
        /// The smaller child was searched, found no split and settled.
        searched_settled: usize,
        /// The children have as many rows each; the left one is built.
        equal: usize,
    }

    impl SplitShapes {
        fn count(&mut self, tree: &RegressionTree, d: &Dataset, rows: &[usize], max_depth: usize) {
            let nodes = tree.nodes();
            let mut reached = vec![0usize; nodes.len()];
            let mut depth = vec![0usize; nodes.len()];
            for &r in rows {
                for (level, i) in tree.decision_path(d.row(r)).into_iter().enumerate() {
                    reached[i] += 1;
                    depth[i] = level;
                }
            }
            let searched = |i: usize| depth[i] < max_depth && reached[i] >= 2;
            for node in nodes {
                let Node::Split { left, right, .. } = *node else {
                    continue;
                };
                let (smaller, larger) = if reached[left] <= reached[right] {
                    (left, right)
                } else {
                    (right, left)
                };
                if !searched(larger) {
                    continue;
                }
                let settled = matches!(nodes[smaller], Node::Leaf { .. });
                if reached[smaller] == 1 {
                    self.one_row_settled += 1;
                } else if settled {
                    self.searched_settled += 1;
                }
                if reached[left] == reached[right] {
                    self.equal += 1;
                }
            }
        }
    }

    /// Level-wise growth with histogram subtraction must give the recursive
    /// direct-sum builder's tree node for node at every worker count: at
    /// least `PARALLEL_THRESHOLD` features so the fan-out runs, missing
    /// values, tied and one- or two-valued columns, a subsampled row list,
    /// and stops from `max_depth` and `min_child_weight` (with a zero weight
    /// bound, single rows split off). The reference trees must hold each
    /// split shape subtraction treats specially: a smaller child that
    /// settles beside a searched sibling, with one row or after a search,
    /// and children of equal size.
    #[test]
    fn grow_matches_the_recursive_builder() {
        let mut rng = StdRng::seed_from_u64(0x1e7e1);
        let n_features = 72;
        let m = mixed_columns(&mut rng, 600, n_features);
        let rows = sample_rows(600, 0.7, &mut rng);
        let features: Vec<usize> = (0..n_features).collect();
        let depth_stopped = TreeParams {
            max_depth: 4,
            ..TreeParams::default()
        };
        let weight_stopped = TreeParams {
            max_depth: 12,
            min_child_weight: 4.0,
            ..TreeParams::default()
        };
        let unweighted = TreeParams {
            max_depth: 8,
            min_child_weight: 0.0,
            ..TreeParams::default()
        };
        let mut shapes = SplitShapes::default();
        for params in [depth_stopped, weight_stopped, unweighted] {
            let ctx = context(&m.d, &m.binner, &m.binned, &m.grad, &m.hess, params);
            let mut nodes = Vec::new();
            grow_recursively(&ctx, &mut nodes, rows.clone(), &features, 0);
            let reference = RegressionTree { nodes };
            if params.max_depth == 12 {
                assert!(reference.depth() < 12, "min_child_weight must stop growth");
            } else {
                assert_eq!(
                    reference.depth(),
                    params.max_depth,
                    "max_depth must stop growth"
                );
            }
            assert!(reference.n_leaves() >= 8);
            shapes.count(&reference, &m.d, &rows, params.max_depth);
            for workers in [1, 2, 3, 7] {
                let (tree, _) = grow(&ctx, &rows, &features, workers);
                assert_eq!(tree.nodes().len(), reference.nodes().len());
                for (i, (a, b)) in tree.nodes().iter().zip(reference.nodes()).enumerate() {
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{workers} workers, node {i}"
                    );
                }
            }
        }
        assert!(
            shapes.one_row_settled > 0 && shapes.searched_settled > 0 && shapes.equal > 0,
            "{shapes:?}"
        );
    }

    /// 70 identical copies of a column tie bit for bit at every node, so
    /// every split must use feature 0 whatever the worker count: the level
    /// fan-out hands later feature chunks to other workers, and the
    /// reduction must keep the earliest chunk's winner. The labels alternate
    /// by quarter, so each level has more than one node to split.
    #[test]
    fn parallel_split_ties_resolve_to_lowest_feature() {
        let n_features = 70;
        let names: Vec<String> = (0..n_features).map(|f| format!("x{f}")).collect();
        let mut d = Dataset::new(names);
        for i in 0..200 {
            let x = i as f32 / 200.0;
            d.push_row(&vec![x; n_features], ((i / 50) % 2) as f32);
        }
        let grad: Vec<f32> = d.labels().iter().map(|&y| 0.5 - y).collect();
        let hess = vec![0.25f32; d.n_rows()];
        let rows: Vec<usize> = (0..d.n_rows()).collect();
        let features: Vec<usize> = (0..n_features).collect();
        let binner = Binner::fit(&d, &rows, 32);
        let binned = binner.bin_matrix(&d);
        let ctx = context(&d, &binner, &binned, &grad, &hess, TreeParams::default());
        for workers in [1, 2, 4, 7] {
            let (tree, _) = grow(&ctx, &rows, &features, workers);
            assert!(tree.depth() >= 2, "{workers} workers");
            for (i, node) in tree.nodes().iter().enumerate() {
                if let Node::Split { feature, .. } = node {
                    assert_eq!(*feature, 0, "{workers} workers, node {i}");
                }
            }
        }
    }

    #[test]
    fn constant_feature_never_splits() {
        let mut d = Dataset::new(vec!["const".into()]);
        for i in 0..50 {
            d.push_row(&[1.0], (i % 2) as f32);
        }
        let grad: Vec<f32> = d.labels().iter().map(|&y| 0.5 - y).collect();
        let hess = vec![0.25f32; d.n_rows()];
        let tree = fit_default(&d, &grad, &hess);
        assert_eq!(tree.n_leaves(), 1);
    }
}
