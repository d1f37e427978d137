//! Batch scoring: fan a block of feature rows across scoped workers under
//! the workspace's bit-identical-parallelism contract.
//!
//! Rows are cut into fixed [`SCORE_SHARD_ROWS`]-row shards *independently of
//! the worker count*, and each shard is a pure function of its rows, so
//! [`map_shards`] reassembling the per-shard score vectors in shard order
//! yields the same bits under `Sequential`, `Parallel` or `Threads(n)` —
//! exactly the `GenMode`/`DiffMode` contract the generator and the dataset
//! stages already honour. [`ScoreMode`] *is* that shared enum.
//!
//! Inside a shard, rows run through the **block-batched** traversal kernel
//! ([`FlatForest::predict_margin_rows_into`]); its margins are bit-identical
//! to the per-row walk, and so are those of the [`QuantForest`] counterpart
//! behind [`score_rows_quantised`]. Inputs that fit a single shard, or
//! schedules with one effective worker, **short-circuit** past the
//! shard/worker machinery entirely: spawning is pure overhead unless there
//! are both multiple shards and multiple workers. Even then it barely pays
//! on small inputs: on a 2-CPU host, scoring a 1,214-row dataset (two
//! shards, the second 190 rows) took 1.22 ms sequential against 1.38 ms
//! under `Threads(2)` and 1.32 ms under `Threads(4)`.

use bdc::stream::map_shards;
use ml::gbdt::sigmoid;
use ml::{Dataset, FlatForest, QuantForest};

/// The scheduling mode of a batch scoring call — the workspace's shared
/// scheduling enum (`bdc::stream::DiffMode`, re-exported by the generator as
/// `GenMode`): worker count is a scheduling decision, never a semantic one.
pub use bdc::stream::DiffMode as ScoreMode;

/// Rows per scoring shard. Fixed (not derived from the worker count) so the
/// shard boundaries — and therefore the output bits — are schedule-invariant.
pub const SCORE_SHARD_ROWS: usize = 1024;

/// What a scoring call returns per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreOutput {
    /// Probability of the positive (suspicious / likely-unserved) class.
    #[default]
    Probability,
    /// The raw additive margin (log-odds).
    Margin,
}

impl ScoreOutput {
    /// Stable name, used by the HTTP endpoint and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ScoreOutput::Probability => "probability",
            ScoreOutput::Margin => "margin",
        }
    }

    /// Inverse of [`ScoreOutput::name`] — how the HTTP `?output=` selector
    /// and the CLI parse the caller's choice. `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "probability" => Some(ScoreOutput::Probability),
            "margin" => Some(ScoreOutput::Margin),
            _ => None,
        }
    }
}

/// The traversal kernel a served model scores on, reported by the HTTP
/// endpoint and the quickstart example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreKernel {
    /// Block-batched level-synchronous traversal of the flat forest.
    Batched,
}

impl ScoreKernel {
    /// Stable name, used by the HTTP endpoint and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ScoreKernel::Batched => "batched",
        }
    }
}

/// Score a row-major block of feature rows (width = the forest's feature
/// count).
///
/// # Panics
/// Panics when `data.len()` is not a multiple of the forest's feature count
/// — callers (the CLI and HTTP endpoint) validate row width against the
/// model schema before scoring and report malformed inputs as typed errors.
pub fn score_rows(
    forest: &FlatForest,
    data: &[f32],
    output: ScoreOutput,
    mode: ScoreMode,
) -> Vec<f64> {
    score_rows_with(forest.n_features(), data, output, mode, |rows, out| {
        forest.predict_margin_rows_into(rows, out)
    })
}

/// [`score_rows`] on the quantised kernel: identical output bits (the
/// quantised compare is exact by construction, with per-tree fallback),
/// fewer bytes touched per node, but slower than [`score_rows`] on the
/// pipeline's 60-tree depth-5 forests (`BENCH_infer.json`).
///
/// # Panics
/// Panics when `data.len()` is not a multiple of the forest's feature count.
pub fn score_rows_quantised(
    forest: &QuantForest,
    data: &[f32],
    output: ScoreOutput,
    mode: ScoreMode,
) -> Vec<f64> {
    score_rows_with(forest.n_features(), data, output, mode, |rows, out| {
        forest.predict_margin_rows_into(rows, out)
    })
}

/// Score every row of a dataset (labels ignored) — the in-process
/// counterpart the end-to-end equivalence tests compare the served path
/// against.
///
/// # Panics
/// Panics when the dataset width differs from the forest's feature count.
pub fn score_dataset(
    forest: &FlatForest,
    data: &Dataset,
    output: ScoreOutput,
    mode: ScoreMode,
) -> Vec<f64> {
    assert_eq!(
        data.n_features(),
        forest.n_features(),
        "dataset width does not match the model schema"
    );
    // The dataset's matrix is already contiguous row-major — score it as
    // one block, no per-row copies.
    score_rows(forest, data.data(), output, mode)
}

/// The shared scoring skeleton: validate the block, shard it (or
/// short-circuit), run `margins_into` per shard, then apply the output
/// transform element-wise. `margins_into` fills raw margins for a row-major
/// slice; because the block kernels are bit-identical at any block size,
/// shard boundaries never show in the output bits.
fn score_rows_with<F>(
    width: usize,
    data: &[f32],
    output: ScoreOutput,
    mode: ScoreMode,
    margins_into: F,
) -> Vec<f64>
where
    F: Fn(&[f32], &mut [f64]) + Sync,
{
    assert_eq!(
        data.len() % width,
        0,
        "row-major block length {} is not a multiple of the feature width {width}",
        data.len()
    );
    let n_rows = data.len() / width;
    let mut scores = if n_rows <= SCORE_SHARD_ROWS || mode.worker_count() <= 1 {
        // Short-circuit: one shard or one worker — the sharded fan-out
        // could only add spawn/collect overhead, not throughput.
        let mut out = vec![0.0f64; n_rows];
        margins_into(data, &mut out);
        out
    } else {
        let shards: Vec<std::ops::Range<usize>> = (0..n_rows)
            .step_by(SCORE_SHARD_ROWS.max(1))
            .map(|start| start..(start + SCORE_SHARD_ROWS).min(n_rows))
            .collect();
        map_shards(mode.worker_count(), &shards, |_, range| {
            let mut out = vec![0.0f64; range.len()];
            margins_into(&data[range.start * width..range.end * width], &mut out);
            out
        })
        .into_iter()
        .flatten()
        .collect()
    };
    if let ScoreOutput::Probability = output {
        for s in &mut scores {
            *s = sigmoid(*s);
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::{GbdtModel, GbdtParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model_and_rows(seed: u64, n_rows: usize) -> (GbdtModel, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for _ in 0..200 {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            let c: f32 = rng.gen_range(0.0..1.0);
            d.push_row(&[a, b, c], if a + 0.2 * b > 0.6 { 1.0 } else { 0.0 });
        }
        let model = GbdtModel::fit(
            &d,
            GbdtParams {
                n_estimators: 8,
                max_depth: 3,
                ..GbdtParams::default()
            },
        );
        let rows: Vec<f32> = (0..n_rows * 3)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.03 {
                    f32::NAN
                } else {
                    rng.gen_range(-0.5..1.5)
                }
            })
            .collect();
        (model, rows)
    }

    /// The acceptance contract: batch scoring is bit-identical across every
    /// schedule, including shard counts that don't divide evenly.
    #[test]
    fn schedules_are_bit_identical() {
        // 2500 rows → three shards (1024/1024/452).
        let (model, rows) = model_and_rows(1, 2500);
        let forest = FlatForest::from_model(&model);
        for output in [ScoreOutput::Probability, ScoreOutput::Margin] {
            let seq = score_rows(&forest, &rows, output, ScoreMode::Sequential);
            assert_eq!(seq.len(), 2500);
            for mode in [
                ScoreMode::Parallel,
                ScoreMode::Threads(2),
                ScoreMode::Threads(3),
                ScoreMode::Threads(7),
            ] {
                let other = score_rows(&forest, &rows, output, mode);
                assert_eq!(seq.len(), other.len());
                for (i, (a, b)) in seq.iter().zip(&other).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row {i} drifted under {mode:?} ({output:?})"
                    );
                }
            }
        }
    }

    /// Shard fan-out must agree with the model's own per-row predictions.
    #[test]
    fn matches_per_row_model_predictions() {
        let (model, rows) = model_and_rows(2, 100);
        let forest = FlatForest::from_model(&model);
        let probs = score_rows(
            &forest,
            &rows,
            ScoreOutput::Probability,
            ScoreMode::Parallel,
        );
        let margins = score_rows(&forest, &rows, ScoreOutput::Margin, ScoreMode::Parallel);
        for i in 0..100 {
            let row = &rows[i * 3..(i + 1) * 3];
            assert_eq!(probs[i].to_bits(), model.predict_proba(row).to_bits());
            assert_eq!(margins[i].to_bits(), model.predict_margin(row).to_bits());
        }
    }

    /// The quantised kernel is a drop-in: bit-identical to the flat batched
    /// scorer (and therefore to the recursive model) under every schedule.
    #[test]
    fn quantised_kernel_is_bit_identical_across_schedules() {
        let (model, rows) = model_and_rows(5, 2500);
        let forest = FlatForest::from_model(&model);
        let quant = QuantForest::from_model(&model);
        assert!(quant.is_fully_quantised());
        for output in [ScoreOutput::Probability, ScoreOutput::Margin] {
            let flat = score_rows(&forest, &rows, output, ScoreMode::Sequential);
            for mode in [
                ScoreMode::Sequential,
                ScoreMode::Parallel,
                ScoreMode::Threads(2),
                ScoreMode::Threads(7),
            ] {
                let q = score_rows_quantised(&quant, &rows, output, mode);
                assert_eq!(flat.len(), q.len());
                for (i, (a, b)) in flat.iter().zip(&q).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "row {i} drifted under {mode:?} ({output:?})"
                    );
                }
            }
        }
    }

    /// Inputs that fit one shard short-circuit past the worker fan-out; the
    /// result must still be bit-identical to every scheduled mode and to the
    /// model's own predictions.
    #[test]
    fn single_shard_short_circuit_is_bit_identical() {
        let (model, rows) = model_and_rows(6, SCORE_SHARD_ROWS / 2);
        let forest = FlatForest::from_model(&model);
        let seq = score_rows(
            &forest,
            &rows,
            ScoreOutput::Probability,
            ScoreMode::Sequential,
        );
        for mode in [ScoreMode::Parallel, ScoreMode::Threads(4)] {
            let other = score_rows(&forest, &rows, ScoreOutput::Probability, mode);
            for (a, b) in seq.iter().zip(&other) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for (i, s) in seq.iter().enumerate() {
            let row = &rows[i * 3..(i + 1) * 3];
            assert_eq!(s.to_bits(), model.predict_proba(row).to_bits());
        }
    }

    #[test]
    fn empty_block_scores_to_nothing() {
        let (model, _) = model_and_rows(3, 0);
        let forest = FlatForest::from_model(&model);
        assert!(score_rows(&forest, &[], ScoreOutput::Probability, ScoreMode::Parallel).is_empty());
    }

    #[test]
    #[should_panic]
    fn ragged_block_panics() {
        let (model, _) = model_and_rows(4, 0);
        let forest = FlatForest::from_model(&model);
        let _ = score_rows(
            &forest,
            &[1.0, 2.0],
            ScoreOutput::Probability,
            ScoreMode::Sequential,
        );
    }
}
