//! The synthetic world's release timeline after the initial release.
//!
//! The world materialises only the initial NBM release. Every later release
//! is read from a [`ReleaseEmitter`]: the initial release's claim keys plus
//! the [`RemovalSchedule`], which says in which minor release each removed
//! claim disappears. Each [`EmittedRelease`] answers its version, its
//! publication date and whether it still carries a given claim, which is all
//! Figure 1 and the world fingerprint need.
//!
//! The timeline only ever removes claims, and every scheduled removal takes
//! effect by the last minor release. Its map-change evidence, the initial
//! claims absent from the latest release, is therefore exactly the
//! schedule's keys: [`RemovalSchedule::diff_chain`] reads it off without
//! diffing a release, for the materialised world and the streaming world
//! alike. The unit tests pin the emitter and that chain against a
//! materialising oracle.

use std::collections::BTreeMap;

use bdc::{Challenge, ClaimKey, DayStamp, DiffChain, Filing, ProviderId, ReleaseVersion};

/// Publication date of minor release `k` (`k >= 1`): minor releases are
/// spaced through the challenge window (Feb–Nov 2023).
fn minor_release_published(k: usize) -> DayStamp {
    DayStamp::from_ymd(2023, 2, 1).plus_days((k as u32) * 45)
}

/// Version of release `index` of the timeline (0 = initial).
fn release_version(index: usize) -> ReleaseVersion {
    ReleaseVersion {
        major: 1,
        minor: index as u32,
    }
}

/// The removal schedule alone: which claim disappears in which minor
/// release, derivable from the regulatory record without materialising a
/// single release. [`RemovalSchedule::build`] reads it off a world's
/// challenges and corrections; the streaming world notes them provider by
/// provider instead. Either way [`RemovalSchedule::diff_chain`] turns it into
/// the timeline's removal evidence.
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
    /// An empty schedule for a timeline of `n_minor_releases` minor releases.
    pub fn new(n_minor_releases: usize) -> Self {
        Self {
            published: (1..=n_minor_releases)
                .map(minor_release_published)
                .collect(),
            n_minor_releases,
            removed_from: BTreeMap::new(),
        }
    }

    /// The schedule of a regulatory record: every challenge and every
    /// silent correction noted in turn (see
    /// [`RemovalSchedule::note_challenge`] and
    /// [`RemovalSchedule::note_correction`]).
    pub fn build(
        n_minor_releases: usize,
        challenges: &[Challenge],
        corrections: &[(ProviderId, bdc::LocationId, bdc::Technology, usize)],
    ) -> Self {
        let mut schedule = Self::new(n_minor_releases);
        for c in challenges {
            schedule.note_challenge(c);
        }
        for (p, l, t, idx) in corrections {
            schedule.note_correction(*p, *l, *t, *idx);
        }
        schedule
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

    /// The timeline's removal evidence, from the initial release to the last
    /// minor release: every scheduled claim, since each is gone by then and
    /// none comes back.
    pub fn diff_chain(&self) -> DiffChain {
        DiffChain::from_removed(
            ReleaseVersion::initial(),
            release_version(self.n_minor_releases),
            self.keys().copied(),
        )
    }
}

/// The release timeline: the initial release's claim keys and the removal
/// schedule, enough to answer for every release without materialising any.
#[derive(Debug, Clone)]
pub struct ReleaseEmitter {
    /// Initial-release claim keys, in filing order.
    base: Vec<ClaimKey>,
    schedule: RemovalSchedule,
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
        let base = filings
            .iter()
            .flat_map(|f| f.records.iter().map(|r| r.claim_key()))
            .collect();
        Self {
            base,
            schedule: RemovalSchedule::build(n_minor_releases, challenges, corrections),
            n_releases: n_minor_releases + 1,
        }
    }

    /// Number of releases in the timeline (initial + minors).
    pub fn n_releases(&self) -> usize {
        self.n_releases
    }

    /// Number of claims scheduled for removal at some point in the timeline.
    pub fn scheduled_removals(&self) -> usize {
        self.schedule.len()
    }

    /// A lightweight view of release `index` (0 = initial).
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
        self.schedule
            .removed_from
            .get(key)
            .is_none_or(|&k| index < k)
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
    /// The release's version: major 1, minor = its index in the timeline.
    pub fn version(&self) -> ReleaseVersion {
        release_version(self.index)
    }

    /// The release's publication date: the initial NBM release date for
    /// index 0; minor release `k` follows 1 February 2023 by `45 k` days.
    pub fn published(&self) -> DayStamp {
        match self.index {
            0 => DayStamp::initial_nbm_release(),
            k => minor_release_published(k),
        }
    }

    /// True unless the removal schedule has dropped the claim `key` by this
    /// release. Filtering the filed records (the initial release's) with it
    /// yields this release's records, in the same order.
    pub fn is_live(&self, key: &ClaimKey) -> bool {
        self.emitter.alive_at(key, self.index)
    }

    /// Count the claims present in this release (walks the schedule; does
    /// not materialise anything).
    pub fn live_claims(&self) -> usize {
        self.emitter
            .base
            .iter()
            .filter(|key| self.emitter.alive_at(key, self.index))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::SynthUs;
    use bdc::{AvailabilityRecord, ClaimChange, LocationId, MapDiff, Technology};
    use std::collections::BTreeSet;

    /// One release of the oracle timeline: its version, publication date and
    /// the filed records it keeps.
    struct OracleRelease {
        version: ReleaseVersion,
        published: DayStamp,
        records: Vec<AvailabilityRecord>,
    }

    /// The oracle: the initial release plus `n_minor_releases` minor
    /// releases as record sets, filtering successfully-challenged claims
    /// (once resolved) and silent corrections out of the filed records.
    /// Draws no randomness.
    fn build_releases(
        config: &SynthConfig,
        filings: &[Filing],
        challenges: &[Challenge],
        corrections: &[(ProviderId, LocationId, Technology, usize)],
    ) -> Vec<OracleRelease> {
        let filed = || filings.iter().flat_map(|f| &f.records);
        (0..=config.n_minor_releases)
            .map(|k| {
                let mut version = ReleaseVersion::initial();
                for _ in 0..k {
                    version = version.next_minor();
                }
                if k == 0 {
                    let published = DayStamp::initial_nbm_release();
                    let records = filed().cloned().collect();
                    return OracleRelease {
                        version,
                        published,
                        records,
                    };
                }
                let published = minor_release_published(k);
                let mut removed: BTreeSet<ClaimKey> = BTreeSet::new();
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
                let kept = filed().filter(|r| !removed.contains(&r.claim_key()));
                OracleRelease {
                    version,
                    published,
                    records: kept.cloned().collect(),
                }
            })
            .collect()
    }

    struct Timeline {
        emitter: ReleaseEmitter,
        chain: DiffChain,
        releases: Vec<OracleRelease>,
    }

    /// A generated world's timeline: its emitter, its schedule's chain and
    /// the oracle's releases from its regulatory record.
    fn timeline(config: &SynthConfig) -> Timeline {
        let w = SynthUs::generate(config);
        Timeline {
            emitter: w.release_emitter(),
            chain: w.removal_schedule().diff_chain(),
            releases: build_releases(config, &w.filings, &w.challenges, &w.corrections),
        }
    }

    #[test]
    fn emitter_and_schedule_chain_match_materialised_releases() {
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
            let initial = &t.releases[0];
            for (k, release) in t.releases.iter().enumerate() {
                let emitted = t.emitter.release(k);
                let live: Vec<&AvailabilityRecord> = initial
                    .records
                    .iter()
                    .filter(|r| emitted.is_live(&r.claim_key()))
                    .collect();
                let expected: Vec<&AvailabilityRecord> = release.records.iter().collect();
                assert_eq!(live, expected, "{case}: release {k} records");
                assert_eq!(emitted.live_claims(), expected.len(), "{case}: release {k}");
                assert_eq!(emitted.version(), release.version, "{case}: release {k}");
                assert_eq!(
                    emitted.published(),
                    release.published,
                    "{case}: release {k}"
                );
            }
            // The schedule-built chain is the batch diff of the two ends.
            let latest = t.releases.last().unwrap();
            let batch = MapDiff::between(
                (initial.version, &initial.records),
                (latest.version, &latest.records),
            );
            let batch_removed: Vec<ClaimChange> = batch.removed().copied().collect();
            assert_eq!(t.chain.removal_evidence(), batch_removed, "{case}");
            assert_eq!(
                batch.counts().0,
                0,
                "{case}: the timeline never adds claims"
            );
            assert_eq!(t.chain.from_version(), initial.version, "{case}");
            assert_eq!(t.chain.to_version(), latest.version, "{case}");
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
        let chain = RemovalSchedule::build(2, &[], &correction_at(0)).diff_chain();
        assert_eq!(chain.removal_count(), 1);
        // An index past the last minor release never takes effect.
        let emitter = ReleaseEmitter::new(2, &[one_claim_filing()], &[], &correction_at(3));
        assert_eq!(emitter.scheduled_removals(), 0);
        assert_eq!(emitter.release(2).live_claims(), 1);
        let chain = RemovalSchedule::build(2, &[], &correction_at(3)).diff_chain();
        assert_eq!(chain.removal_count(), 0);
    }

    #[test]
    fn release_index_out_of_range_panics() {
        let t = timeline(&SynthConfig::tiny(21));
        let n = t.emitter.n_releases();
        assert!(std::panic::catch_unwind(|| t.emitter.release(n)).is_err());
    }
}
