//! Sharded, deterministic execution of the world generator.
//!
//! Every random quantity in the synthetic world is drawn from a stream that
//! is a pure function of `(master seed, stage, shard key)` — never from a
//! single global generator threaded through the stages. That makes each
//! shard's output independent of every other shard, so shards can be fanned
//! across `std::thread::scope` workers in any order and still produce a
//! bit-identical world: thread count is purely a scheduling decision, exactly
//! like the `redsus_core::PipelineEngine` contract for the analysis half.
//!
//! The pieces:
//!
//! * [`SynthStage`] names the generator's random streams (towns, fabric,
//!   providers, challenges, …): the stage tag of the stream derivation.
//! * [`stream_seed`]/[`shard_rng`] derive an independent seeded [`StdRng`]
//!   per `(seed, stage, shard)` via two rounds of SplitMix64 mixing.
//! * [`GenMode`] selects the schedule: sequential, parallel (one worker per
//!   available core) or a forced worker count for determinism tests.
//! * [`map_shards`] fans a shard list across scoped workers and reassembles
//!   the results in shard order, degrading to a plain sequential map when
//!   only one worker is available.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The generator's random streams, one per stage that draws. Each stage draws
/// only from streams tagged with its own discriminant, so inserting draws into
/// one stage can never shift the streams of another. Stages that draw nothing
/// (the claim scan, the per-hex fold, the release and ground-truth assembly)
/// have no tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SynthStage {
    /// Town centres placed per state (sharded by state index).
    Towns,
    /// BSLs scattered around each town (sharded by town index).
    Fabric,
    /// Provider population and footprints (sharded by provider sequence).
    Providers,
    /// The challenge wave against the initial release (sharded by provider).
    Challenges,
    /// The later, much smaller wave (sharded by fixed-size challenge chunks).
    LaterChallenges,
    /// Silent corrections in minor releases (sharded by provider).
    Corrections,
    /// FRN registrations and WHOIS (sharded by provider, assembled in order).
    Registrations,
    /// Ookla open-data tiles (sharded by occupied-hex index).
    Ookla,
    /// MLab NDT7 tests (sharded by provider).
    Mlab,
}

impl SynthStage {
    /// Every stream, in generation order.
    #[cfg(test)]
    const ALL: [SynthStage; 9] = [
        SynthStage::Towns,
        SynthStage::Fabric,
        SynthStage::Providers,
        SynthStage::Challenges,
        SynthStage::LaterChallenges,
        SynthStage::Corrections,
        SynthStage::Registrations,
        SynthStage::Ookla,
        SynthStage::Mlab,
    ];

    /// The stage's stream tag: fixed per variant, so neither reordering nor
    /// removing a variant moves another stage's streams.
    fn tag(self) -> u64 {
        match self {
            SynthStage::Towns => 0x01,
            SynthStage::Fabric => 0x02,
            SynthStage::Providers => 0x03,
            SynthStage::Challenges => 0x06,
            SynthStage::LaterChallenges => 0x07,
            SynthStage::Corrections => 0x08,
            SynthStage::Registrations => 0x0a,
            SynthStage::Ookla => 0x0b,
            SynthStage::Mlab => 0x0c,
        }
    }
}

/// A stable 64-bit FNV-1a hasher for canonical fingerprints.
///
/// `std`'s `DefaultHasher` is explicitly unstable across Rust releases, so
/// fingerprints folded through it cannot be pinned as golden constants. This
/// hasher freezes the algorithm in-repo and normalises the integer writes
/// (little-endian byte order, `usize`/`isize` widened to 64 bits) so the
/// same value stream hashes identically on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }
    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }
    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }
    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }
    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_i8(&mut self, n: i8) {
        self.write_u8(n as u8);
    }
    fn write_i16(&mut self, n: i16) {
        self.write_u16(n as u16);
    }
    fn write_i32(&mut self, n: i32) {
        self.write_u32(n as u32);
    }
    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
    fn write_i128(&mut self, n: i128) {
        self.write_u128(n as u128);
    }
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Derive the seed of the independent stream for `(master, stage, shard)`.
///
/// Two chained SplitMix64 rounds: the first folds the stage tag into the
/// master seed, the second folds the shard key into the stage seed. Both
/// rounds are bijections, so distinct `(stage, shard)` pairs yield distinct,
/// well-mixed stream seeds for any master seed.
pub fn stream_seed(master: u64, stage: SynthStage, shard: u64) -> u64 {
    splitmix(splitmix(master ^ stage.tag().wrapping_mul(0xa0761d6478bd642f)) ^ shard)
}

/// The seeded RNG of one shard of one stage.
pub fn shard_rng(master: u64, stage: SynthStage, shard: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(master, stage, shard))
}

/// How the generator schedules shard fan-out: `Sequential`, `Parallel` (one
/// worker per core, degrading to sequential on single-core hosts) or
/// `Threads(n)` (forced worker counts, the knob the determinism tests use).
///
/// The enum is the workspace's shared scheduling mode, defined once in
/// `bdc::stream` as `DiffMode` — one `worker_count` resolution for every
/// sharded stage.
pub use bdc::stream::DiffMode as GenMode;

/// Map `f` over `items`, fanning contiguous chunks across `workers` scoped
/// threads, and return the results in item order.
///
/// `f` receives `(shard_index, &item)` where `shard_index` is the item's
/// position in `items` — the same values in every schedule, so as long as
/// `f` is pure the output is bit-identical for any worker count.
///
/// The implementation is the workspace's shared fan-out primitive in
/// `bdc::stream`, re-exported here as the generator's historical home.
pub use bdc::stream::map_shards;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_seeds_are_distinct_across_stages_and_shards() {
        let mut seen = std::collections::BTreeSet::new();
        for stage in SynthStage::ALL {
            for shard in 0..64u64 {
                assert!(
                    seen.insert(stream_seed(42, stage, shard)),
                    "collision at {stage:?}/{shard}"
                );
            }
        }
    }

    #[test]
    fn stream_seed_depends_on_master_seed() {
        assert_ne!(
            stream_seed(1, SynthStage::Towns, 0),
            stream_seed(2, SynthStage::Towns, 0)
        );
    }

    #[test]
    fn shard_rng_streams_are_reproducible() {
        let mut a = shard_rng(7, SynthStage::Ookla, 13);
        let mut b = shard_rng(7, SynthStage::Ookla, 13);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn map_shards_preserves_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..101).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 7, 64, 200] {
            let got = map_shards(workers, &items, |i, x| {
                assert_eq!(items[i], *x, "shard index must match item position");
                x * 3
            });
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_shards_handles_empty_input() {
        let out: Vec<u64> = map_shards(4, &[] as &[u64], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_counts_resolve_sanely() {
        assert_eq!(GenMode::Sequential.worker_count(), 1);
        assert_eq!(GenMode::Threads(0).worker_count(), 1);
        assert_eq!(GenMode::Threads(5).worker_count(), 5);
        assert!(GenMode::Parallel.worker_count() >= 1);
    }

    #[test]
    fn stable_hasher_is_frozen() {
        use std::hash::{Hash, Hasher};
        // Pinned outputs: this hasher backs golden fingerprint constants, so
        // any change to its algorithm must show up here first.
        let mut h = StableHasher::new();
        h.write(b"red is sus");
        assert_eq!(h.finish(), 0x6c5e_c25c_c687_0619);
        let mut h = StableHasher::new();
        (42u64, "fingerprint", -7i32).hash(&mut h);
        let pinned = h.finish();
        let mut h2 = StableHasher::new();
        (42u64, "fingerprint", -7i32).hash(&mut h2);
        assert_eq!(h2.finish(), pinned);
        // usize hashes exactly like the same value as u64 (width-normalised).
        let mut a = StableHasher::new();
        a.write_usize(123);
        let mut b = StableHasher::new();
        b.write_u64(123);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn stage_tags_are_unique() {
        let tags: std::collections::BTreeSet<_> = SynthStage::ALL.iter().map(|s| s.tag()).collect();
        assert_eq!(tags.len(), SynthStage::ALL.len());
    }
}
