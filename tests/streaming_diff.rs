//! The streaming diff engine's equivalence contract, end to end:
//!
//! * `StreamingDiff`/`diff_releases` produce the same change set as the
//!   batch `MapDiff::between` for random release pairs (including duplicate
//!   claim keys, empty releases and disjoint provider sets), at every chunk
//!   size and worker count,
//! * the synth world's `ReleaseEmitter` streams every release bit-identically
//!   to that release materialised from the initial records it keeps (the
//!   emitter's own unit tests pin those against a materialising oracle),
//! * `DiffChain` folded over the whole timeline nets out to exactly the
//!   batch initial-vs-latest removals the labelling pipeline used to
//!   compute,
//! * and the bounded-memory claim is asserted, not assumed: the sequential
//!   merge never holds more than one chunk per stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_is_sus::bdc::stream::{diff_releases, DiffChain, DiffMode};
use red_is_sus::bdc::DayStamp;
use red_is_sus::bdc::{
    AvailabilityRecord, Bsl, ClaimChange, Fabric, LocationId, MapDiff, NbmRelease, ProviderId,
    ReleaseVersion, ServiceType, ShardableRelease, Technology,
};
use red_is_sus::geoprim::LatLng;
use red_is_sus::synth::{EmittedRelease, SynthConfig, SynthUs};

const N_LOCATIONS: u64 = 60;

fn fabric() -> Fabric {
    let bsls = (0..N_LOCATIONS)
        .map(|i| {
            Bsl::new(
                LocationId(i),
                LatLng::new(37.0 + i as f64 * 0.01, -80.0 - (i % 7) as f64 * 0.01),
                1,
                false,
                "VA",
            )
        })
        .collect();
    Fabric::new(bsls)
}

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

fn release(records: Vec<AvailabilityRecord>, minor: u32, fabric: &Fabric) -> NbmRelease {
    NbmRelease::from_records(
        ReleaseVersion { major: 1, minor },
        DayStamp::initial_nbm_release().plus_days(14 * minor),
        records,
        fabric,
    )
}

fn sorted(mut changes: Vec<ClaimChange>) -> Vec<ClaimChange> {
    changes.sort_unstable();
    changes
}

/// Assert the streaming engine equals the batch engine for one release pair,
/// across chunk sizes and schedules.
fn assert_stream_matches_batch(old: &NbmRelease, new: &NbmRelease, label: &str) {
    let batch = sorted(MapDiff::between(old, new).changes().to_vec());
    for chunk in [1, 3, 64, 100_000] {
        for mode in [
            DiffMode::Sequential,
            DiffMode::Threads(2),
            DiffMode::Threads(5),
        ] {
            let outcome = diff_releases(old, new, chunk, mode);
            assert_eq!(
                sorted(outcome.changes.clone()),
                batch,
                "{label}: streaming (chunk {chunk}, {mode:?}) != batch"
            );
            if mode == DiffMode::Sequential {
                // The NbmRelease adapter owns full sorted copies of both
                // releases and the stats admit it: the peak is the backing
                // storage plus at most one in-flight chunk per stream. (The
                // strict two-chunk bound holds for genuinely streaming
                // sources — see the DiffChain-over-emitter test below.)
                let backing = old.records().len() + new.records().len();
                assert!(
                    outcome.stats.peak_resident_entries <= backing + 2 * chunk,
                    "{label}: peak {} exceeds backing {backing} + two chunks of {chunk}",
                    outcome.stats.peak_resident_entries
                );
                assert!(
                    outcome.stats.peak_resident_entries >= backing.min(1),
                    "{label}: peak must count the in-memory adapter's backing"
                );
            }
        }
    }
}

#[test]
fn streaming_diff_equals_batch_on_random_release_pairs() {
    // Seeded-loop property test (the repo's stand-in for proptest): random
    // pairs with overlapping claim grids and frequent duplicate keys.
    let f = fabric();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xd1ff + seed);
        let providers: Vec<u32> = (1..=rng.gen_range(1..5u32)).collect();
        let n_old = rng.gen_range(0..300);
        let n_new = rng.gen_range(0..300);
        let old_records = random_records(&mut rng, n_old, &providers);
        let new_records = random_records(&mut rng, n_new, &providers);
        let old = release(old_records, 0, &f);
        let new = release(new_records, 1, &f);
        assert_stream_matches_batch(&old, &new, &format!("seed {seed}"));
    }
}

#[test]
fn streaming_diff_handles_empty_and_disjoint_releases() {
    let f = fabric();
    let mut rng = StdRng::seed_from_u64(99);
    let some = random_records(&mut rng, 150, &[1, 2]);
    let disjoint = random_records(&mut rng, 150, &[7, 8]);

    let empty_old = release(vec![], 0, &f);
    let empty_new = release(vec![], 1, &f);
    assert_stream_matches_batch(&empty_old, &empty_new, "both empty");

    let full_new = release(some.clone(), 1, &f);
    assert_stream_matches_batch(&empty_old, &full_new, "empty -> full");

    let full_old = release(some.clone(), 0, &f);
    assert_stream_matches_batch(&full_old, &empty_new, "full -> empty");

    // Disjoint provider sets: everything removed, everything added.
    let other = release(disjoint, 1, &f);
    assert_stream_matches_batch(&full_old, &other, "disjoint providers");
    let outcome = diff_releases(&full_old, &other, 64, DiffMode::Sequential);
    let keys_old: std::collections::BTreeSet<_> =
        full_old.records().iter().map(|r| r.claim_key()).collect();
    let keys_new: std::collections::BTreeSet<_> =
        other.records().iter().map(|r| r.claim_key()).collect();
    let (added, removed, modified) = outcome.counts();
    assert_eq!(removed, keys_old.len());
    assert_eq!(added, keys_new.len());
    assert_eq!(modified, 0);
}

/// Materialise one emitted release of a generated world the batch way: the
/// initial release's records it keeps, aggregated into a full `NbmRelease`.
fn materialise(world: &SynthUs, release: &EmittedRelease) -> NbmRelease {
    let initial = world.initial_release().records();
    let records = initial.iter().filter(|r| release.is_live(&r.claim_key()));
    let (version, published) = (release.version(), release.published());
    NbmRelease::from_records(
        version,
        published,
        records.cloned().collect(),
        &world.fabric,
    )
}

#[test]
fn emitter_streams_match_materialised_releases_in_a_generated_world() {
    let world = SynthUs::generate(&SynthConfig::tiny(21));
    let emitter = world.release_emitter();
    assert_eq!(emitter.n_releases(), world.config.n_minor_releases + 1);
    for k in 0..emitter.n_releases() {
        // Stream-diff the emitted view against the materialised release:
        // bit-identical claims mean an empty diff.
        let materialised = materialise(&world, &emitter.release(k));
        let outcome = diff_releases(
            &emitter.release(k),
            &materialised,
            128,
            DiffMode::Sequential,
        );
        assert!(
            outcome.changes.is_empty(),
            "release {k}: emitted view differs from materialised release: {:?}",
            &outcome.changes[..outcome.changes.len().min(5)]
        );
    }
}

#[test]
fn diff_chain_over_emitter_equals_batch_initial_vs_latest() {
    let world = SynthUs::generate(&SynthConfig::tiny(21));
    let emitter = world.release_emitter();
    let mut chain = DiffChain::new(ShardableRelease::version(&emitter.release(0)));
    for k in 0..emitter.n_releases() - 1 {
        chain.extend_with(
            &emitter.release(k),
            &emitter.release(k + 1),
            256,
            DiffMode::Sequential,
        );
    }
    let latest = materialise(&world, &emitter.release(emitter.n_releases() - 1));
    let batch = MapDiff::between(world.initial_release(), &latest);
    let batch_removed: Vec<ClaimChange> = batch.removed().copied().collect();
    assert!(!batch_removed.is_empty(), "tiny world has no removals");
    assert_eq!(
        chain.removal_evidence(),
        batch_removed,
        "chained streaming evidence != batch initial-vs-latest removals"
    );
    // The same evidence the prepared pipeline context carries.
    let ctx = red_is_sus::core::pipeline::AnalysisContext::prepare(&world);
    assert_eq!(ctx.diff_chain.removal_evidence(), batch_removed);
    // Bounded memory: the chain never held more than one chunk per stream.
    assert!(chain.peak_resident_entries() <= 2 * 256);
}

#[test]
fn chain_worker_count_is_a_pure_scheduling_decision() {
    let world = SynthUs::generate(&SynthConfig::tiny(33));
    let emitter = world.release_emitter();
    let run = |mode: DiffMode| {
        let mut chain = DiffChain::new(ShardableRelease::version(&emitter.release(0)));
        for k in 0..emitter.n_releases() - 1 {
            chain.extend_with(&emitter.release(k), &emitter.release(k + 1), 128, mode);
        }
        chain.removal_evidence()
    };
    let base = run(DiffMode::Sequential);
    for mode in [
        DiffMode::Parallel,
        DiffMode::Threads(2),
        DiffMode::Threads(7),
    ] {
        assert_eq!(run(mode), base, "evidence differs under {mode:?}");
    }
}
