//! The sharded world generator's determinism contract, end to end:
//!
//! * the fingerprint of a world is stable across repeated runs,
//! * sequential, parallel and forced-thread-count schedules are
//!   bit-identical for every config preset (`tiny`, `experiment`, `large`),
//! * distinct seeds produce distinct worlds,
//! * and randomized (including degenerate) configurations either fail
//!   validation cleanly or generate a structurally valid world — generation
//!   never panics beyond the documented invalid-config panic of
//!   [`SynthUs::generate`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_is_sus::synth::{GenMode, SynthConfig, SynthUs};

fn fingerprint(config: &SynthConfig, mode: GenMode) -> u64 {
    let (world, _) = SynthUs::generate_with(config, mode).expect("valid config");
    world.canonical_fingerprint()
}

/// Every schedule must produce the same bits: the parallel default, the
/// sequential degradation, and worker counts forced past the host's cores.
fn assert_modes_bit_identical(config: &SynthConfig) {
    let base = fingerprint(config, GenMode::Sequential);
    for mode in [GenMode::Parallel, GenMode::Threads(3)] {
        assert_eq!(
            fingerprint(config, mode),
            base,
            "{mode:?} generation differs from sequential (seed {})",
            config.seed
        );
    }
}

#[test]
fn tiny_fingerprint_is_stable_across_three_runs() {
    let config = SynthConfig::tiny(2024);
    let first = fingerprint(&config, GenMode::Parallel);
    for run in 1..3 {
        assert_eq!(
            fingerprint(&config, GenMode::Parallel),
            first,
            "fingerprint drifted on run {run}"
        );
    }
}

#[test]
fn tiny_schedules_are_bit_identical() {
    let config = SynthConfig::tiny(2024);
    assert_modes_bit_identical(&config);
    // Extra worker counts beyond the shared battery: oversubscribed and odd.
    let base = fingerprint(&config, GenMode::Sequential);
    for workers in [2, 5, 16] {
        assert_eq!(
            fingerprint(&config, GenMode::Threads(workers)),
            base,
            "Threads({workers}) differs from sequential"
        );
    }
}

#[test]
fn experiment_schedules_are_bit_identical() {
    assert_modes_bit_identical(&SynthConfig::experiment(2024));
}

#[test]
fn large_schedules_are_bit_identical() {
    assert_modes_bit_identical(&SynthConfig::large(2024));
}

#[test]
fn distinct_seeds_produce_distinct_fingerprints() {
    let mut prints = std::collections::BTreeSet::new();
    for seed in [1u64, 2, 3, 2024, u64::MAX] {
        assert!(
            prints.insert(fingerprint(&SynthConfig::tiny(seed), GenMode::Parallel)),
            "fingerprint collision at seed {seed}"
        );
    }
}

/// A world that generated successfully must be structurally sound, whatever
/// the config said.
fn assert_structurally_valid(config: &SynthConfig, world: &SynthUs) {
    assert!(!world.fabric.is_empty(), "fabric empty");
    assert_eq!(world.providers.len(), config.n_providers);
    assert_eq!(world.filings.len(), config.n_providers);
    assert_eq!(
        world.release_emitter().n_releases(),
        config.n_minor_releases + 1
    );
    assert_eq!(world.registrations.len(), config.n_providers);
    // Ground truth only references providers that exist.
    for (provider, _, _) in world.ground_truth.keys() {
        assert!(world.providers.get(*provider).is_some());
    }
    // Every matched provider's ASNs are real WHOIS entries.
    let known: std::collections::BTreeSet<u32> = world.whois.asns.iter().map(|a| a.asn).collect();
    for asns in world.true_provider_asns.values() {
        for asn in asns {
            assert!(known.contains(&asn.value()), "unknown ASN {asn:?}");
        }
    }
}

#[test]
fn randomized_configs_error_cleanly_or_generate_valid_worlds() {
    // Seeded-loop property test: throw structured noise at the config,
    // including degenerate values, and require a clean Err or a valid world.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut valid = 0usize;
    let mut invalid = 0usize;
    for case in 0..40 {
        let n_providers = rng.gen_range(0..12usize);
        let config = SynthConfig {
            seed: rng.gen::<u64>(),
            n_bsls: rng.gen_range(0..1200usize),
            n_providers,
            n_major_providers: rng.gen_range(0..6usize),
            bsls_per_town: rng.gen_range(0..300usize),
            overclaim_fraction: rng.gen_range(-0.2..1.2),
            challenge_rate_false: rng.gen_range(-0.2..1.2),
            challenge_rate_true: rng.gen_range(-0.2..1.2),
            correction_rate: rng.gen_range(-0.2..1.2),
            ookla_devices_per_served_bsl: rng.gen_range(-1.0..4.0),
            mlab_tests_per_served_hex: rng.gen_range(-1.0..6.0),
            asn_match_rate: rng.gen_range(-0.2..1.2),
            include_jcc: rng.gen_bool(0.5),
            n_minor_releases: rng.gen_range(0..4usize),
            // Sometimes set a (possibly under-floor) residency budget so the
            // budget-validation arm is part of the property sweep.
            max_resident_entries: if rng.gen_bool(0.25) {
                Some(rng.gen_range(0..50_000usize))
            } else {
                None
            },
        };
        match SynthUs::generate_with(&config, GenMode::Threads(2)) {
            Err(msg) => {
                invalid += 1;
                assert_eq!(
                    msg,
                    config.validate().unwrap_err(),
                    "generate_with must surface the validation message verbatim (case {case})"
                );
            }
            Ok((world, _)) => {
                valid += 1;
                assert!(config.validate().is_ok(), "case {case} should have failed");
                assert_structurally_valid(&config, &world);
            }
        }
    }
    // The noise ranges are tuned so the loop genuinely exercises both arms.
    assert!(valid > 0, "property loop never generated a world");
    assert!(invalid > 0, "property loop never hit an invalid config");
}

#[test]
fn degenerate_edge_configs_behave_as_documented() {
    let base = SynthConfig::tiny(3);

    // Zero quantities fail validation with a clean error.
    for (label, config) in [
        ("n_bsls", SynthConfig { n_bsls: 0, ..base }),
        (
            "n_providers",
            SynthConfig {
                n_providers: 0,
                ..base
            },
        ),
        (
            "bsls_per_town",
            SynthConfig {
                bsls_per_town: 0,
                ..base
            },
        ),
    ] {
        assert!(
            SynthUs::generate_with(&config, GenMode::Parallel).is_err(),
            "{label} = 0 must be rejected"
        );
    }

    // Degenerate speed-test rates: NaN and negative are rejected...
    for bad in [f64::NAN, f64::INFINITY, -0.5] {
        let config = SynthConfig {
            ookla_devices_per_served_bsl: bad,
            ..base
        };
        assert!(SynthUs::generate_with(&config, GenMode::Parallel).is_err());
        let config = SynthConfig {
            mlab_tests_per_served_hex: bad,
            ..base
        };
        assert!(SynthUs::generate_with(&config, GenMode::Parallel).is_err());
    }
    // ...while zero rates are allowed and produce a valid (quiet) world.
    let config = SynthConfig {
        n_bsls: 800,
        ookla_devices_per_served_bsl: 0.0,
        mlab_tests_per_served_hex: 0.0,
        ..base
    };
    let (world, _) = SynthUs::generate_with(&config, GenMode::Parallel).unwrap();
    assert_structurally_valid(&config, &world);
    assert!(
        world.mlab.is_empty(),
        "zero rate must generate no MLab tests"
    );

    // A national budget of a handful of BSLs still generates (single-town
    // fallback) rather than panicking.
    let config = SynthConfig {
        n_bsls: 3,
        n_providers: 2,
        n_major_providers: 1,
        ..base
    };
    let (world, _) = SynthUs::generate_with(&config, GenMode::Parallel).unwrap();
    assert_structurally_valid(&config, &world);
    assert_eq!(world.fabric.len(), 3);
}
