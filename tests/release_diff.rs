//! The release diff's contract, end to end:
//!
//! * `MapDiff::between`, a merge-join over two record sets' sorted claims,
//!   produces exactly the changes of a `BTreeMap` oracle for random release
//!   pairs (including duplicate claim keys, empty releases and disjoint
//!   provider sets), in ascending claim-key order,
//! * and a synthetic world's schedule-built evidence
//!   (`RemovalSchedule::diff_chain`, what the `release_diff` stage returns)
//!   equals the batch diff of its filed records against the records its
//!   latest release keeps, release by release of the timeline.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_is_sus::bdc::{
    AvailabilityRecord, ClaimChange, ClaimChangeKind, ClaimEntry, ClaimKey, DiffMode, LocationId,
    MapDiff, ProviderId, ReleaseVersion, ServiceType, Technology,
};
use red_is_sus::core::pipeline::{stage_release_diff, AnalysisContext};
use red_is_sus::synth::{EmittedRelease, SynthConfig, SynthUs};

const N_LOCATIONS: u64 = 60;

const TECHS: [Technology; 3] = [
    Technology::Cable,
    Technology::Fiber,
    Technology::UnlicensedFixedWireless,
];

/// A random record set: `n` records drawn over a provider/location/technology
/// grid small enough that duplicate claim keys occur regularly.
fn random_records(rng: &mut StdRng, n: usize, providers: &[u32]) -> Vec<AvailabilityRecord> {
    (0..n)
        .map(|_| {
            let provider = providers[rng.gen_range(0..providers.len())];
            AvailabilityRecord {
                provider: ProviderId(provider),
                location: LocationId(rng.gen_range(0..N_LOCATIONS)),
                technology: TECHS[rng.gen_range(0..TECHS.len())],
                max_down_mbps: [0.0, 25.0, 100.0, 940.0][rng.gen_range(0..4)],
                max_up_mbps: [0.0, 3.0, 20.0, 35.0][rng.gen_range(0..4)],
                low_latency: rng.gen_bool(0.8),
                service_type: ServiceType::Both,
            }
        })
        .collect()
}

/// One side of a diff: a release's version and the records it carries.
type Release = (ReleaseVersion, Vec<AvailabilityRecord>);

fn release(records: Vec<AvailabilityRecord>, minor: u32) -> Release {
    (ReleaseVersion { major: 1, minor }, records)
}

fn side(release: &Release) -> (ReleaseVersion, &[AvailabilityRecord]) {
    (release.0, &release.1)
}

fn claim_keys(release: &Release) -> BTreeSet<ClaimKey> {
    release
        .1
        .iter()
        .map(AvailabilityRecord::claim_key)
        .collect()
}

/// The oracle: index each release by claim key in a `BTreeMap` (duplicates
/// resolved by `ClaimEntry::wins_over` in record order), report every
/// removal and modification in key order, then every addition.
fn oracle_changes(old: &Release, new: &Release) -> Vec<ClaimChange> {
    fn canonical_speeds(release: &Release) -> BTreeMap<ClaimKey, ClaimEntry> {
        let mut out: BTreeMap<ClaimKey, ClaimEntry> = BTreeMap::new();
        for r in &release.1 {
            let entry = ClaimEntry::from_record(r);
            out.entry(r.claim_key())
                .and_modify(|best| {
                    if entry.wins_over(best) {
                        *best = entry;
                    }
                })
                .or_insert(entry);
        }
        out
    }
    let old_speeds = canonical_speeds(old);
    let new_speeds = canonical_speeds(new);
    let mut changes = Vec::new();
    for (key, old_entry) in &old_speeds {
        match new_speeds.get(key) {
            None => changes.push(ClaimChange::new(*key, ClaimChangeKind::Removed)),
            Some(new_entry) if new_entry.speed_bits() != old_entry.speed_bits() => {
                changes.push(ClaimChange::new(*key, ClaimChangeKind::Modified))
            }
            Some(_) => {}
        }
    }
    for key in new_speeds.keys() {
        if !old_speeds.contains_key(key) {
            changes.push(ClaimChange::new(*key, ClaimChangeKind::Added));
        }
    }
    changes
}

/// Assert the merge-join equals the oracle for one release pair: the same
/// changes, emitted in ascending claim-key order.
fn assert_matches_oracle(old: &Release, new: &Release, label: &str) -> MapDiff {
    let diff = MapDiff::between(side(old), side(new));
    let mut want = oracle_changes(old, new);
    want.sort_unstable_by_key(ClaimChange::claim_key);
    assert_eq!(diff.changes(), want, "{label}: merge-join != oracle");
    assert_eq!((diff.from, diff.to), (old.0, new.0), "{label}");
    diff
}

#[test]
fn map_diff_equals_oracle_on_random_release_pairs() {
    // Seeded-loop property test (the repo's stand-in for proptest): random
    // pairs with overlapping claim grids and frequent duplicate keys.
    let mut saw_duplicates = false;
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xd1ff + seed);
        let providers: Vec<u32> = (1..=rng.gen_range(1..5u32)).collect();
        let n_old = rng.gen_range(0..300);
        let n_new = rng.gen_range(0..300);
        let old_records = random_records(&mut rng, n_old, &providers);
        let new_records = random_records(&mut rng, n_new, &providers);
        let old = release(old_records, 0);
        let new = release(new_records, 1);
        saw_duplicates |= claim_keys(&old).len() < old.1.len();
        assert_matches_oracle(&old, &new, &format!("seed {seed}"));
    }
    assert!(saw_duplicates, "no seed drew a duplicate claim key");
}

#[test]
fn map_diff_handles_empty_and_disjoint_releases() {
    let mut rng = StdRng::seed_from_u64(99);
    let some = random_records(&mut rng, 150, &[1, 2]);
    let disjoint = random_records(&mut rng, 150, &[7, 8]);

    let empty_old = release(vec![], 0);
    let empty_new = release(vec![], 1);
    assert!(assert_matches_oracle(&empty_old, &empty_new, "both empty").is_empty());

    let full_new = release(some.clone(), 1);
    assert_matches_oracle(&empty_old, &full_new, "empty -> full");

    let full_old = release(some, 0);
    assert_matches_oracle(&full_old, &empty_new, "full -> empty");

    // Disjoint provider sets: everything removed, everything added.
    let other = release(disjoint, 1);
    let diff = assert_matches_oracle(&full_old, &other, "disjoint providers");
    let (added, removed, modified) = diff.counts();
    assert_eq!(removed, claim_keys(&full_old).len());
    assert_eq!(added, claim_keys(&other).len());
    assert_eq!(modified, 0);
}

/// A generated world's filed records, in filing order: the initial
/// release's records.
fn filed(world: &SynthUs) -> impl Iterator<Item = &AvailabilityRecord> {
    world.filings.iter().flat_map(|f| &f.records)
}

/// The records one emitted release of a generated world keeps: its filed
/// records still live in that release, in filing order.
fn live_records<'w>(world: &'w SynthUs, release: &EmittedRelease) -> Vec<&'w AvailabilityRecord> {
    filed(world)
        .filter(|r| release.is_live(&r.claim_key()))
        .collect()
}

#[test]
fn schedule_chain_equals_batch_initial_vs_latest() {
    let world = SynthUs::generate(&SynthConfig::tiny(21));
    let emitter = world.release_emitter();
    let latest = emitter.release(emitter.n_releases() - 1);
    let initial_version = world.initial_release().version;
    let batch = MapDiff::between(
        (initial_version, filed(&world)),
        (latest.version(), live_records(&world, &latest)),
    );
    let batch_removed: Vec<ClaimChange> = batch.removed().copied().collect();
    assert!(!batch_removed.is_empty(), "tiny world has no removals");
    assert_eq!(
        batch.counts().0,
        0,
        "the synthetic timeline never adds claims"
    );
    let chain = stage_release_diff(&world, DiffMode::Sequential);
    assert_eq!(
        chain.removal_evidence(),
        batch_removed,
        "schedule-built evidence != batch initial-vs-latest removals"
    );
    assert_eq!(chain.from_version(), initial_version);
    assert_eq!(chain.to_version(), latest.version());
    // The same evidence the prepared pipeline context carries.
    let ctx = AnalysisContext::prepare(&world);
    assert_eq!(ctx.diff_chain.removal_evidence(), batch_removed);
}

#[test]
fn each_emitted_release_diffs_to_its_scheduled_removals() {
    // Every release of the timeline, as the records it keeps, differs from
    // the initial release by exactly the claims the emitter reports gone by
    // then, and the evidence only grows along the timeline.
    let world = SynthUs::generate(&SynthConfig::tiny(33));
    let emitter = world.release_emitter();
    let initial_version = world.initial_release().version;
    let initial_keys: BTreeSet<ClaimKey> = filed(&world).map(|r| r.claim_key()).collect();
    let mut previous = 0;
    for k in 0..emitter.n_releases() {
        let emitted = emitter.release(k);
        let kept = live_records(&world, &emitted);
        assert_eq!(kept.len(), emitted.live_claims(), "{k}");
        let diff = MapDiff::between((initial_version, filed(&world)), (emitted.version(), kept));
        let gone: Vec<ClaimKey> = initial_keys
            .iter()
            .copied()
            .filter(|key| !emitted.is_live(key))
            .collect();
        let removed: Vec<ClaimKey> = diff.removed().map(ClaimChange::claim_key).collect();
        assert_eq!(removed, gone, "release {k}");
        assert!(removed.len() >= previous, "release {k} restored a claim");
        previous = removed.len();
    }
    assert_eq!(previous, world.removal_schedule().len());
}
