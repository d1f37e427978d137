//! The "map diff" engine: recovering non-archived changes between NBM
//! releases (§4.1.3 of the paper).
//!
//! The FCC only archives the outcome of formal challenges, but providers also
//! silently amend their filings — either after an FCC-initiated data-quality
//! check or because a challenge exposed a methodological error affecting more
//! locations than the challenged ones. The paper captured every bi-weekly
//! minor release and computed the difference between each provider's initial
//! claims and the latest map; locations *removed* from a claim are treated as
//! additional "unserved" evidence.
//!
//! A diff compares record sets, not [`NbmRelease`](crate::NbmRelease)s: a
//! release is only the per-hex view, while the changes live at location
//! level. Each side of a diff is a release's version and the
//! [`AvailabilityRecord`]s it carries, borrowed from whoever owns them.
//! [`MapDiff::between`] is the one comparison of two such sets: a
//! merge-join over both sides' claims sorted by claim key. [`DiffChain`]
//! keeps what labelling needs of a timeline, the claims of the initial
//! release absent from the latest one. Intermediate releases never reach
//! that evidence: a claim removed and later restored is not evidence, and
//! neither is one added and removed again.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::filing::AvailabilityRecord;
use crate::ids::{LocationId, ProviderId};
use crate::nbm::{ClaimKey, ReleaseVersion};
use crate::stream::ClaimEntry;
use crate::tech::Technology;

/// How a location-level claim changed between two releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClaimChangeKind {
    /// The claim is present in the newer release but not the older one.
    Added,
    /// The claim was present in the older release and is gone from the newer
    /// one — the signal the paper uses as an inferred successful challenge.
    Removed,
    /// The claim is present in both but its reported speeds changed.
    Modified,
}

/// A single location-level change between two releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClaimChange {
    pub provider: ProviderId,
    pub location: LocationId,
    pub technology: Technology,
    pub kind: ClaimChangeKind,
}

impl ClaimChange {
    /// A change of `kind` to the claim `key`.
    pub fn new(key: ClaimKey, kind: ClaimChangeKind) -> Self {
        let (provider, location, technology) = key;
        Self {
            provider,
            location,
            technology,
            kind,
        }
    }

    /// The claim key the change is about.
    pub fn claim_key(&self) -> (ProviderId, LocationId, Technology) {
        (self.provider, self.location, self.technology)
    }
}

/// The difference between the record sets of two NBM releases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapDiff {
    /// Version of the older release.
    pub from: ReleaseVersion,
    /// Version of the newer release.
    pub to: ReleaseVersion,
    changes: Vec<ClaimChange>,
}

/// A record set's claims as one canonical entry per claim key, in ascending
/// key order: each run of duplicate keys collapses to its
/// [`ClaimEntry::wins_over`] winner. Records come grouped by provider in long
/// ascending runs, which the stable sort merges instead of re-partitioning.
fn canonical_entries<'a>(
    records: impl IntoIterator<Item = &'a AvailabilityRecord>,
) -> Vec<ClaimEntry> {
    let mut entries: Vec<ClaimEntry> = records.into_iter().map(ClaimEntry::from_record).collect();
    entries.sort_by_key(|e| e.key);
    entries.dedup_by(|next, kept| {
        let duplicate = next.key == kept.key;
        if duplicate && next.wins_over(kept) {
            *kept = *next;
        }
        duplicate
    });
    entries
}

impl MapDiff {
    /// Compute the difference between two releases, each given as its
    /// version and the records it carries.
    ///
    /// Duplicate claim keys within one record set are canonicalised
    /// deterministically (the record with the lexicographically greatest
    /// `(down, up)` pair wins), and speeds are compared by exact bit pattern
    /// — so a NaN speed equals an identical NaN instead of flagging the
    /// claim `Modified` on every diff. Changes come out in ascending
    /// claim-key order, one per key.
    pub fn between<'a, 'b>(
        (from, old): (
            ReleaseVersion,
            impl IntoIterator<Item = &'a AvailabilityRecord>,
        ),
        (to, new): (
            ReleaseVersion,
            impl IntoIterator<Item = &'b AvailabilityRecord>,
        ),
    ) -> Self {
        let (olds, news) = (canonical_entries(old), canonical_entries(new));
        let (mut i, mut j) = (0, 0);
        let mut changes = Vec::new();
        while i < olds.len() || j < news.len() {
            let order = match (olds.get(i), news.get(j)) {
                (Some(a), Some(b)) => a.key.cmp(&b.key),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                Ordering::Less => {
                    changes.push(ClaimChange::new(olds[i].key, ClaimChangeKind::Removed));
                    i += 1;
                }
                Ordering::Greater => {
                    changes.push(ClaimChange::new(news[j].key, ClaimChangeKind::Added));
                    j += 1;
                }
                Ordering::Equal => {
                    if olds[i].speed_bits() != news[j].speed_bits() {
                        changes.push(ClaimChange::new(olds[i].key, ClaimChangeKind::Modified));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Self { from, to, changes }
    }

    /// All changes.
    pub fn changes(&self) -> &[ClaimChange] {
        &self.changes
    }

    /// Only the removals — the changes the labelling pipeline consumes.
    pub fn removed(&self) -> impl Iterator<Item = &ClaimChange> {
        self.changes
            .iter()
            .filter(|c| c.kind == ClaimChangeKind::Removed)
    }

    /// Count of changes of each kind, as `(added, removed, modified)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut added = 0;
        let mut removed = 0;
        let mut modified = 0;
        for c in &self.changes {
            match c.kind {
                ClaimChangeKind::Added => added += 1,
                ClaimChangeKind::Removed => removed += 1,
                ClaimChangeKind::Modified => modified += 1,
            }
        }
        (added, removed, modified)
    }

    /// True when nothing changed between the releases.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// The map-change evidence of a release timeline: the claim keys of its
/// initial release absent from its latest one, and the keys the latest
/// release added. Only the two ends of the timeline count, so a claim
/// removed and later restored is not evidence, and neither is one added and
/// removed again.
#[derive(Debug, Clone)]
pub struct DiffChain {
    from: ReleaseVersion,
    to: ReleaseVersion,
    /// Claims of the initial release absent from the latest, ascending.
    removed: Vec<ClaimKey>,
    /// Claims of the latest release absent from the initial, ascending.
    added: Vec<ClaimKey>,
}

impl DiffChain {
    /// The evidence between a timeline's `initial` and `latest` releases,
    /// each given as its version and records: one [`MapDiff::between`] of
    /// the two.
    pub fn between<'a, 'b>(
        initial: (
            ReleaseVersion,
            impl IntoIterator<Item = &'a AvailabilityRecord>,
        ),
        latest: (
            ReleaseVersion,
            impl IntoIterator<Item = &'b AvailabilityRecord>,
        ),
    ) -> Self {
        let diff = MapDiff::between(initial, latest);
        let keys = |kind: ClaimChangeKind| {
            diff.changes()
                .iter()
                .filter(|c| c.kind == kind)
                .map(ClaimChange::claim_key)
                .collect()
        };
        Self {
            from: diff.from,
            to: diff.to,
            removed: keys(ClaimChangeKind::Removed),
            added: keys(ClaimChangeKind::Added),
        }
    }

    /// The evidence of a timeline from `from` to `to` that only ever removes
    /// claims: `removed` lists the initial claims gone by `to`, in any order.
    pub fn from_removed(
        from: ReleaseVersion,
        to: ReleaseVersion,
        removed: impl IntoIterator<Item = ClaimKey>,
    ) -> Self {
        let mut removed: Vec<ClaimKey> = removed.into_iter().collect();
        removed.sort_unstable();
        removed.dedup();
        Self {
            from,
            to,
            removed,
            added: Vec::new(),
        }
    }

    /// Version of the timeline's initial release.
    pub fn from_version(&self) -> ReleaseVersion {
        self.from
    }

    /// Version of the timeline's latest release.
    pub fn to_version(&self) -> ReleaseVersion {
        self.to
    }

    /// The removal evidence in ascending claim-key order: one `Removed`
    /// change per claim of the initial release absent from the latest.
    pub fn removal_evidence(&self) -> Vec<ClaimChange> {
        self.removed
            .iter()
            .map(|&key| ClaimChange::new(key, ClaimChangeKind::Removed))
            .collect()
    }

    /// Number of removed claims.
    pub fn removal_count(&self) -> usize {
        self.removed.len()
    }

    /// Fold the chain's identity and evidence into a hasher, for pinning
    /// golden fingerprints: `(from, to)`, then the removed count and keys,
    /// then the added count and keys, keys in ascending order.
    pub fn fold_evidence_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        (self.from, self.to).hash(h);
        for keys in [&self.removed, &self.added] {
            keys.len().hash(h);
            for key in keys {
                key.hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filing::ServiceType;

    fn rec(loc: u64, down: f64) -> AvailabilityRecord {
        AvailabilityRecord {
            provider: ProviderId(1),
            location: LocationId(loc),
            technology: Technology::Cable,
            max_down_mbps: down,
            max_up_mbps: down / 10.0,
            low_latency: true,
            service_type: ServiceType::Both,
        }
    }

    /// A release of the timeline as a diff side: its version and records.
    type Release = (ReleaseVersion, Vec<AvailabilityRecord>);

    fn release(records: Vec<AvailabilityRecord>, minor: u32) -> Release {
        (ReleaseVersion { major: 1, minor }, records)
    }

    fn side(release: &Release) -> (ReleaseVersion, &[AvailabilityRecord]) {
        (release.0, &release.1)
    }

    #[test]
    fn detects_removals_additions_and_modifications() {
        let old = release(vec![rec(0, 100.0), rec(1, 100.0), rec(2, 100.0)], 0);
        let new = release(vec![rec(0, 100.0), rec(2, 300.0), rec(3, 100.0)], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        let (added, removed, modified) = diff.counts();
        assert_eq!(added, 1);
        assert_eq!(removed, 1);
        assert_eq!(modified, 1);
        assert_eq!(diff.removed().count(), 1);
        assert_eq!(diff.removed().next().unwrap().location, LocationId(1));
    }

    #[test]
    fn identical_releases_produce_empty_diff() {
        let old = release(vec![rec(0, 100.0), rec(1, 100.0)], 0);
        let new = release(vec![rec(0, 100.0), rec(1, 100.0)], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        assert!(diff.is_empty());
    }

    #[test]
    fn diff_records_versions() {
        let old = release(vec![rec(0, 100.0)], 0);
        let new = release(vec![rec(0, 100.0)], 3);
        let diff = MapDiff::between(side(&old), side(&new));
        assert_eq!(diff.from.minor, 0);
        assert_eq!(diff.to.minor, 3);
    }

    #[test]
    fn duplicate_claim_keys_canonicalise_instead_of_last_writer_wins() {
        // The same claim filed twice with the records in opposite orders on
        // the two sides used to diff as Modified (last writer won the index).
        let old = release(vec![rec(0, 10.0), rec(0, 100.0)], 0);
        let new = release(vec![rec(0, 100.0), rec(0, 10.0)], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        assert!(diff.is_empty(), "{:?}", diff.changes());
    }

    #[test]
    fn nan_speeds_do_not_flag_modified_forever() {
        let old = release(vec![rec(0, f64::NAN)], 0);
        let new = release(vec![rec(0, f64::NAN)], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        assert!(
            diff.is_empty(),
            "identical NaN speeds must compare equal by bit pattern"
        );
        // A NaN appearing (or clearing) is still a modification.
        let cleared = release(vec![rec(0, 100.0)], 2);
        let diff = MapDiff::between(side(&new), side(&cleared));
        let (_, _, modified) = diff.counts();
        assert_eq!(modified, 1);
    }

    #[test]
    fn technology_is_part_of_claim_identity() {
        let mut fiber = rec(0, 500.0);
        fiber.technology = Technology::Fiber;
        let old = release(vec![rec(0, 100.0), fiber.clone()], 0);
        let new = release(vec![fiber], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        let (_, removed, _) = diff.counts();
        assert_eq!(removed, 1);
        assert_eq!(diff.removed().next().unwrap().technology, Technology::Cable);
    }

    #[test]
    fn chain_between_keeps_initial_minus_latest() {
        let initial = release(vec![rec(0, 100.0), rec(1, 100.0), rec(2, 100.0)], 0);
        let latest = release(vec![rec(0, 100.0), rec(2, 300.0), rec(3, 100.0)], 4);
        let chain = DiffChain::between(side(&initial), side(&latest));
        assert_eq!(chain.from_version(), initial.0);
        assert_eq!(chain.to_version(), latest.0);
        assert_eq!(chain.removal_count(), 1);
        let evidence = chain.removal_evidence();
        assert_eq!(evidence.len(), 1);
        assert_eq!(evidence[0].location, LocationId(1));
        assert_eq!(evidence[0].kind, ClaimChangeKind::Removed);
    }

    #[test]
    fn chain_from_removed_keys_folds_like_the_diffed_chain() {
        // A timeline that only removes claims: the chain built from its
        // removed keys (unsorted, with a repeat) hashes the same bytes as the
        // chain diffed from its two ends.
        let initial = release(vec![rec(0, 100.0), rec(1, 100.0), rec(2, 100.0)], 0);
        let latest = release(vec![rec(1, 100.0)], 2);
        let key = |loc: u64| (ProviderId(1), LocationId(loc), Technology::Cable);
        let scheduled = DiffChain::from_removed(initial.0, latest.0, [key(2), key(0), key(2)]);
        let diffed = DiffChain::between(side(&initial), side(&latest));
        assert_eq!(scheduled.removal_evidence(), diffed.removal_evidence());
        let fold = |chain: &DiffChain| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            chain.fold_evidence_into(&mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(fold(&scheduled), fold(&diffed));
    }

    #[test]
    fn changes_come_out_in_ascending_claim_key_order() {
        let old = release(vec![rec(4, 100.0), rec(1, 100.0), rec(2, 100.0)], 0);
        let new = release(vec![rec(3, 100.0), rec(2, 300.0), rec(0, 100.0)], 1);
        let diff = MapDiff::between(side(&old), side(&new));
        let locations: Vec<u64> = diff.changes().iter().map(|c| c.location.0).collect();
        assert_eq!(locations, [0, 1, 2, 3, 4]);
    }
}
