//! The synthetic world's release timeline after the initial release.
//!
//! The world materialises only the initial NBM release. Every later release
//! is read from a [`ReleaseEmitter`]: it keeps **one** compact copy of the
//! initial claims (sorted by claim key) plus the removal *schedule* (which
//! claim disappears in which minor release), and emits any release's claims
//! as claim-key-ordered chunks on demand. Holding dozens of full record
//! vectors at national scale (~115M BSLs × dozens of releases) is never
//! needed.
//!
//! The emitter implements `bdc`'s [`ShardableRelease`], so
//! [`bdc::diff_releases`] and [`bdc::DiffChain`] can walk the whole release
//! timeline holding at most one chunk per stream. Each [`EmittedRelease`]
//! also answers its publication date and whether it still carries a given
//! claim, which is all Figure 1 and the world fingerprint need. The unit
//! tests pin the emitter against a materialising oracle.

use std::collections::BTreeMap;

use bdc::stream::{ClaimEntry, ReleaseStream, ShardableRelease};
use bdc::{Challenge, ClaimKey, DayStamp, Filing, ProviderId, ReleaseVersion};

/// Publication date of minor release `k` (`k >= 1`): minor releases are
/// spaced through the challenge window (Feb–Nov 2023).
fn minor_release_published(k: usize) -> DayStamp {
    DayStamp::from_ymd(2023, 2, 1).plus_days((k as u32) * 45)
}

/// The removal schedule alone: which claim disappears in which minor
/// release, derivable from the regulatory record without materialising a
/// single release. [`ReleaseEmitter::new`] builds one internally; the
/// streaming world builds one incrementally (per-provider) and reads its
/// keys back as the diff chain's removal evidence, since the schedule only
/// ever removes claims — it never restores them.
#[derive(Debug, Clone)]
pub struct RemovalSchedule {
    /// Publication dates of the minor releases, in order.
    published: Vec<DayStamp>,
    n_minor_releases: usize,
    /// Earliest release index at which a claim is absent (only claims that
    /// are ever removed appear; everything else survives the timeline).
    removed_from: BTreeMap<ClaimKey, usize>,
}

impl RemovalSchedule {
    pub fn new(n_minor_releases: usize) -> Self {
        Self {
            published: (1..=n_minor_releases)
                .map(minor_release_published)
                .collect(),
            n_minor_releases,
            removed_from: BTreeMap::new(),
        }
    }

    fn note(&mut self, key: ClaimKey, k: usize) {
        self.removed_from
            .entry(key)
            .and_modify(|existing| *existing = (*existing).min(k))
            .or_insert(k);
    }

    /// A successful challenge removes the claim in the first minor release
    /// published on or after its resolution; anything else is ignored.
    pub fn note_challenge(&mut self, c: &Challenge) {
        if !c.is_successful() {
            return;
        }
        if let Some(k) = self.published.iter().position(|p| c.resolved <= *p) {
            self.note((c.provider, c.location, c.technology), k + 1);
        }
    }

    /// A claim corrected at index `idx` is absent from every minor release
    /// `k >= idx`: an index of 0 means "removed from the first minor release
    /// on", and an index past the last minor release never takes effect.
    pub fn note_correction(
        &mut self,
        provider: ProviderId,
        location: bdc::LocationId,
        technology: bdc::Technology,
        idx: usize,
    ) {
        if idx <= self.n_minor_releases {
            self.note((provider, location, technology), idx.max(1));
        }
    }

    /// Number of claims scheduled for removal.
    pub fn len(&self) -> usize {
        self.removed_from.len()
    }

    pub fn is_empty(&self) -> bool {
        self.removed_from.is_empty()
    }

    /// Scheduled removals in ascending claim-key order.
    pub fn keys(&self) -> impl Iterator<Item = &ClaimKey> {
        self.removed_from.keys()
    }

    pub fn into_removed_from(self) -> BTreeMap<ClaimKey, usize> {
        self.removed_from
    }
}

/// The removal schedule and sorted claim base of a release timeline: enough
/// to stream every release, a fraction of the memory of materialising them.
#[derive(Debug, Clone)]
pub struct ReleaseEmitter {
    /// Initial-release claims in ascending claim-key order.
    base: Vec<ClaimEntry>,
    /// `base[start..end]` per provider, ascending by provider id.
    provider_ranges: Vec<(ProviderId, usize, usize)>,
    /// Earliest release index at which a claim is absent (only claims that
    /// are ever removed appear; everything else survives the timeline).
    removed_from: BTreeMap<ClaimKey, usize>,
    /// Total number of releases (the initial one plus the minor releases).
    n_releases: usize,
}

impl ReleaseEmitter {
    /// Build the emitter from the regulatory record: the initial filings,
    /// the challenge outcomes and the silent-correction schedule. A
    /// successful challenge removes its claim from the first minor release
    /// published on or after its resolution; a correction from the minor
    /// release it names.
    pub fn new(
        n_minor_releases: usize,
        filings: &[Filing],
        challenges: &[Challenge],
        corrections: &[(ProviderId, bdc::LocationId, bdc::Technology, usize)],
    ) -> Self {
        let mut base: Vec<ClaimEntry> = filings
            .iter()
            .flat_map(|f| f.records.iter().map(ClaimEntry::from_record))
            .collect();
        base.sort_by_key(|e| e.key);

        let mut provider_ranges: Vec<(ProviderId, usize, usize)> = Vec::new();
        for (i, entry) in base.iter().enumerate() {
            match provider_ranges.last_mut() {
                Some((provider, _, end)) if *provider == entry.key.0 => *end = i + 1,
                _ => provider_ranges.push((entry.key.0, i, i + 1)),
            }
        }

        let mut schedule = RemovalSchedule::new(n_minor_releases);
        for c in challenges {
            schedule.note_challenge(c);
        }
        for (p, l, t, idx) in corrections {
            schedule.note_correction(*p, *l, *t, *idx);
        }

        Self {
            base,
            provider_ranges,
            removed_from: schedule.into_removed_from(),
            n_releases: n_minor_releases + 1,
        }
    }

    /// Number of releases the emitter can stream (initial + minors).
    pub fn n_releases(&self) -> usize {
        self.n_releases
    }

    /// Number of claims in the initial release.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of claims scheduled for removal at some point in the timeline.
    pub fn scheduled_removals(&self) -> usize {
        self.removed_from.len()
    }

    /// A lightweight view of release `index` (0 = initial) implementing
    /// [`ShardableRelease`].
    ///
    /// # Panics
    /// Panics when `index >= n_releases()`.
    pub fn release(&self, index: usize) -> EmittedRelease<'_> {
        assert!(
            index < self.n_releases,
            "release index {index} out of range (timeline has {} releases)",
            self.n_releases
        );
        EmittedRelease {
            emitter: self,
            index,
        }
    }

    /// True when the claim identified by `key` is present in release `index`.
    fn alive_at(&self, key: &ClaimKey, index: usize) -> bool {
        self.removed_from.get(key).is_none_or(|&k| index < k)
    }

    fn version(&self, index: usize) -> ReleaseVersion {
        ReleaseVersion {
            major: 1,
            minor: index as u32,
        }
    }
}

/// One release of the timeline, viewed through the emitter. Copyable and
/// borrow-cheap: all state lives on the [`ReleaseEmitter`].
#[derive(Debug, Clone, Copy)]
pub struct EmittedRelease<'a> {
    emitter: &'a ReleaseEmitter,
    index: usize,
}

impl EmittedRelease<'_> {
    /// The release's publication date: the initial NBM release date for
    /// index 0; minor release `k` follows 1 February 2023 by `45 k` days.
    pub fn published(&self) -> DayStamp {
        match self.index {
            0 => DayStamp::initial_nbm_release(),
            k => minor_release_published(k),
        }
    }

    /// True unless the removal schedule has dropped the claim `key` by this
    /// release. Filtering the initial release's records with it yields this
    /// release's records, in the same order.
    pub fn is_live(&self, key: &ClaimKey) -> bool {
        self.emitter.alive_at(key, self.index)
    }

    /// Count the claims present in this release (walks the schedule; does
    /// not materialise anything).
    pub fn live_claims(&self) -> usize {
        self.emitter
            .base
            .iter()
            .filter(|e| self.emitter.alive_at(&e.key, self.index))
            .count()
    }
}

impl<'a> ShardableRelease for EmittedRelease<'a> {
    type Stream = EmitterStream<'a>;

    fn version(&self) -> ReleaseVersion {
        self.emitter.version(self.index)
    }

    fn providers(&self) -> Vec<ProviderId> {
        self.emitter
            .provider_ranges
            .iter()
            .map(|(p, _, _)| *p)
            .collect()
    }

    fn full_stream(&self, chunk_size: usize) -> EmitterStream<'a> {
        EmitterStream {
            emitter: self.emitter,
            release: self.index,
            pos: 0,
            end: self.emitter.base.len(),
            chunk_size: chunk_size.max(1),
        }
    }

    fn provider_stream(&self, provider: ProviderId, chunk_size: usize) -> EmitterStream<'a> {
        let (pos, end) = self
            .emitter
            .provider_ranges
            .binary_search_by_key(&provider, |(p, _, _)| *p)
            .map(|i| {
                let (_, start, end) = self.emitter.provider_ranges[i];
                (start, end)
            })
            .unwrap_or((0, 0));
        EmitterStream {
            emitter: self.emitter,
            release: self.index,
            pos,
            end,
            chunk_size: chunk_size.max(1),
        }
    }
}

/// A claim-key-ordered chunk stream over one emitted release: walks the
/// shared base, skipping claims already removed by this release. Holds no
/// entry storage of its own — the chunk it returns is the only allocation.
#[derive(Debug)]
pub struct EmitterStream<'a> {
    emitter: &'a ReleaseEmitter,
    release: usize,
    pos: usize,
    end: usize,
    chunk_size: usize,
}

impl ReleaseStream for EmitterStream<'_> {
    fn version(&self) -> ReleaseVersion {
        self.emitter.version(self.release)
    }

    fn next_chunk(&mut self) -> Option<Vec<ClaimEntry>> {
        let mut chunk = Vec::with_capacity(self.chunk_size.min(self.end - self.pos));
        while self.pos < self.end && chunk.len() < self.chunk_size {
            let entry = self.emitter.base[self.pos];
            self.pos += 1;
            if self.emitter.alive_at(&entry.key, self.release) {
                chunk.push(entry);
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(chunk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity_gen::{build_filings, generate_challenges, generate_corrections};
    use crate::config::SynthConfig;
    use crate::fabric_gen::{generate_fabric, generate_towns};
    use crate::providers_gen::{compute_all_claims, generate_providers};
    use crate::shard::map_shards;
    use bdc::stream::{diff_releases, DiffMode};
    use bdc::{AvailabilityRecord, Fabric, LocationId, MapDiff, NbmRelease, Technology};
    use std::collections::BTreeSet;

    /// The oracle: build the initial release plus `n_minor_releases` minor
    /// releases, removing successfully-challenged claims (once resolved) and
    /// silent corrections over time. Draws no randomness; each release is an
    /// independent shard.
    fn build_releases(
        config: &SynthConfig,
        filings: &[Filing],
        fabric: &Fabric,
        challenges: &[Challenge],
        corrections: &[(ProviderId, LocationId, Technology, usize)],
        workers: usize,
    ) -> Vec<NbmRelease> {
        let initial_records: Vec<AvailabilityRecord> = filings
            .iter()
            .flat_map(|f| f.records.iter().cloned())
            .collect();
        let release_indices: Vec<usize> = (0..=config.n_minor_releases).collect();
        map_shards(workers, &release_indices, |_, &k| {
            let mut version = ReleaseVersion::initial();
            for _ in 0..k {
                version = version.next_minor();
            }
            if k == 0 {
                return NbmRelease::from_records(
                    version,
                    DayStamp::initial_nbm_release(),
                    initial_records.clone(),
                    fabric,
                );
            }
            let published = minor_release_published(k);
            let mut removed: BTreeSet<(ProviderId, LocationId, Technology)> = BTreeSet::new();
            for c in challenges {
                if c.is_successful() && c.resolved <= published {
                    removed.insert((c.provider, c.location, c.technology));
                }
            }
            for (p, l, t, idx) in corrections {
                if *idx <= k {
                    removed.insert((*p, *l, *t));
                }
            }
            let records: Vec<AvailabilityRecord> = initial_records
                .iter()
                .filter(|r| !removed.contains(&r.claim_key()))
                .cloned()
                .collect();
            NbmRelease::from_records(version, published, records, fabric)
        })
    }

    struct Timeline {
        emitter: ReleaseEmitter,
        releases: Vec<NbmRelease>,
    }

    fn timeline(config: &SynthConfig) -> Timeline {
        let towns = generate_towns(config, 1);
        let fabric = generate_fabric(config, &towns, 1);
        let profiles = generate_providers(config, &towns, 1);
        let claims = compute_all_claims(&profiles, &towns, &fabric, config, 1);
        let filings = build_filings(&profiles, &claims);
        let challenges = generate_challenges(config, &fabric, &claims, 1);
        let challenged: BTreeSet<_> = challenges
            .iter()
            .map(|c| (c.provider, c.location, c.technology))
            .collect();
        let corrections = generate_corrections(config, &claims, &challenged, 1);
        let releases = build_releases(config, &filings, &fabric, &challenges, &corrections, 1);
        let emitter =
            ReleaseEmitter::new(config.n_minor_releases, &filings, &challenges, &corrections);
        Timeline { emitter, releases }
    }

    /// The claim multiset of a release, from its records.
    fn claim_set(release: &NbmRelease) -> Vec<bdc::ClaimKey> {
        let mut keys: Vec<_> = release.records().iter().map(|r| r.claim_key()).collect();
        keys.sort_unstable();
        keys
    }

    /// The claim multiset of an emitted release, drained through the stream.
    fn emitted_set(emitter: &ReleaseEmitter, index: usize, chunk: usize) -> Vec<bdc::ClaimKey> {
        let release = emitter.release(index);
        let mut stream = release.full_stream(chunk);
        let mut keys = Vec::new();
        while let Some(chunk) = stream.next_chunk() {
            keys.extend(chunk.iter().map(|e| e.key));
        }
        keys
    }

    #[test]
    fn emitted_releases_match_materialised_releases() {
        // Seeded loop over the timeline's degenerate corners: no, one or six
        // minor releases; no or total silent correction; no or heavy
        // challenges of false claims.
        let corners = [0, 1, 6].into_iter().flat_map(|minors| {
            [0.0, 1.0].into_iter().flat_map(move |correction| {
                [0.0, 0.6].map(|challenge| (minors, correction, challenge))
            })
        });
        let mut removal_counts = BTreeSet::new();
        for (i, (n_minor_releases, correction_rate, challenge_rate_false)) in corners.enumerate() {
            let seed = 22 + i as u64;
            let config = SynthConfig {
                n_minor_releases,
                correction_rate,
                challenge_rate_false,
                ..SynthConfig::tiny(seed)
            };
            let case = format!(
                "seed {seed}, {n_minor_releases} minors, correction {correction_rate}, \
                 challenge {challenge_rate_false}"
            );
            let t = timeline(&config);
            assert_eq!(t.emitter.n_releases(), t.releases.len(), "{case}");
            removal_counts.insert(t.emitter.scheduled_removals().min(1));
            let initial = t.releases[0].records();
            for (k, release) in t.releases.iter().enumerate() {
                let emitted = t.emitter.release(k);
                let live: Vec<&AvailabilityRecord> = initial
                    .iter()
                    .filter(|r| emitted.is_live(&r.claim_key()))
                    .collect();
                let expected: Vec<&AvailabilityRecord> = release.records().iter().collect();
                assert_eq!(live, expected, "{case}: release {k} records");
                assert_eq!(emitted.live_claims(), expected.len(), "{case}: release {k}");
                assert_eq!(emitted.version(), release.version, "{case}: release {k}");
                assert_eq!(
                    emitted.published(),
                    release.published,
                    "{case}: release {k}"
                );
                for chunk in [7, 4096] {
                    assert_eq!(
                        emitted_set(&t.emitter, k, chunk),
                        claim_set(release),
                        "{case}: release {k} differs at chunk size {chunk}"
                    );
                }
            }
        }
        assert_eq!(
            removal_counts,
            BTreeSet::from([0, 1]),
            "the corners must include timelines with and without removals"
        );
    }

    #[test]
    fn releases_shrink_over_time() {
        let t = timeline(&SynthConfig::tiny(21));
        let last = t.emitter.n_releases() - 1;
        assert!(t.emitter.release(last).live_claims() < t.emitter.release(0).live_claims());
        for k in 1..=last {
            let (prev, next) = (t.emitter.release(k - 1), t.emitter.release(k));
            assert!(prev.published() < next.published(), "release {k}");
            let minor = k as u32;
            assert_eq!(next.version(), ReleaseVersion { major: 1, minor });
        }
    }

    #[test]
    fn emitter_diffs_match_batch_diffs_between_any_releases() {
        let t = timeline(&SynthConfig::tiny(33));
        let last = t.releases.len() - 1;
        for (a, b) in [(0, 1), (0, last), (1, last.min(2))] {
            let batch = MapDiff::between(&t.releases[a], &t.releases[b]);
            let mut batch_changes = batch.changes().to_vec();
            batch_changes.sort_unstable();
            for mode in [DiffMode::Sequential, DiffMode::Threads(3)] {
                let streamed =
                    diff_releases(&t.emitter.release(a), &t.emitter.release(b), 64, mode);
                let mut streamed_changes = streamed.changes.clone();
                streamed_changes.sort_unstable();
                assert_eq!(
                    streamed_changes, batch_changes,
                    "diff {a}->{b} differs under {mode:?}"
                );
            }
        }
    }

    #[test]
    fn provider_streams_partition_the_release() {
        let t = timeline(&SynthConfig::tiny(21));
        let release = t.emitter.release(1);
        let mut via_providers = Vec::new();
        for provider in release.providers() {
            let mut stream = release.provider_stream(provider, 32);
            while let Some(chunk) = stream.next_chunk() {
                via_providers.extend(chunk.iter().map(|e| e.key));
            }
        }
        assert_eq!(via_providers, emitted_set(&t.emitter, 1, 32));
        // An unknown provider streams nothing.
        let mut empty = release.provider_stream(ProviderId(u32::MAX), 32);
        assert!(empty.next_chunk().is_none());
    }

    #[test]
    fn correction_index_zero_removes_from_every_minor_release() {
        // Regression: the oracle removes an idx-0 correction from every minor
        // release (`idx <= k`); the emitter used to drop it entirely.
        use bdc::ServiceType;
        let one_claim_filing = || {
            let mut f = Filing::new(ProviderId(1), DayStamp::initial_filing_deadline(), "m");
            f.records.push(
                AvailabilityRecord::new(
                    ProviderId(1),
                    LocationId(7),
                    Technology::Cable,
                    100.0,
                    10.0,
                    true,
                    ServiceType::Both,
                )
                .unwrap(),
            );
            f
        };
        let correction_at =
            |idx: usize| vec![(ProviderId(1), LocationId(7), Technology::Cable, idx)];
        let emitter = ReleaseEmitter::new(2, &[one_claim_filing()], &[], &correction_at(0));
        assert_eq!(emitter.scheduled_removals(), 1);
        assert_eq!(emitter.release(0).live_claims(), 1);
        assert_eq!(emitter.release(1).live_claims(), 0);
        assert_eq!(emitter.release(2).live_claims(), 0);
        // An index past the last minor release never takes effect.
        let emitter = ReleaseEmitter::new(2, &[one_claim_filing()], &[], &correction_at(3));
        assert_eq!(emitter.scheduled_removals(), 0);
        assert_eq!(emitter.release(2).live_claims(), 1);
    }

    #[test]
    fn release_index_out_of_range_panics() {
        let t = timeline(&SynthConfig::tiny(21));
        let n = t.emitter.n_releases();
        assert!(std::panic::catch_unwind(|| t.emitter.release(n)).is_err());
    }
}
