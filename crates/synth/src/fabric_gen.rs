//! Generating the synthetic Broadband Serviceable Location Fabric.
//!
//! BSLs are clustered into "towns": each state gets a number of towns
//! proportional to its population weight, and BSLs scatter around each town
//! centre with a roughly Gaussian radial profile plus a thin rural tail. The
//! clustering constant is tuned so the median number of BSLs per occupied
//! resolution-8 hex lands near the paper's reported value of 4 (Figure 9).
//!
//! Both generators are sharded: towns draw from one stream per *state*
//! ([`SynthStage::Towns`]), BSLs from one stream per *town*
//! ([`SynthStage::Fabric`]), with location ids assigned from per-town offsets
//! computed by prefix sum — so the fabric is bit-identical for any worker
//! count.

use bdc::{Bsl, Fabric, LocationId};
use geoprim::LatLng;
use rand::Rng;

use crate::config::SynthConfig;
use crate::shard::{map_shards, shard_rng, SynthStage};
use crate::states::{total_population_weight, STATES};

/// A population cluster that providers build networks around.
#[derive(Debug, Clone)]
pub struct Town {
    /// Index of the state in [`STATES`].
    pub state_index: usize,
    /// Two-letter state code (denormalised for convenience).
    pub state: String,
    /// Town centre.
    pub center: LatLng,
    /// Number of BSLs generated around the town.
    pub n_bsls: usize,
}

/// Generate town centres for every state, fanning one shard per state across
/// `workers` threads.
///
/// Degenerate configs (a handful of BSLs nationally) can round every state's
/// share to zero; the generator then falls back to a single town holding the
/// whole budget in the most populous state, so downstream stages always see
/// at least one town.
pub fn generate_towns(config: &SynthConfig, workers: usize) -> Vec<Town> {
    let total_weight = total_population_weight();
    let state_indices: Vec<usize> = (0..STATES.len()).collect();
    let towns: Vec<Town> = map_shards(workers, &state_indices, |_, &state_index| {
        let state = &STATES[state_index];
        let state_bsls =
            ((config.n_bsls as f64) * state.population_weight / total_weight).round() as usize;
        if state_bsls == 0 {
            return Vec::new();
        }
        let mut rng = shard_rng(config.seed, SynthStage::Towns, state_index as u64);
        let n_towns = (state_bsls / config.bsls_per_town).max(1);
        let bbox = state.bounding_box();
        // Shrink the sampling box slightly so towns (and their scatter) stay
        // well inside the state's bounding box.
        (0..n_towns)
            .map(|t| {
                let u = rng.gen_range(0.1..0.9);
                let v = rng.gen_range(0.1..0.9);
                let center = bbox.lerp(u, v);
                let mut n = state_bsls / n_towns;
                if t == 0 {
                    n += state_bsls % n_towns;
                }
                Town {
                    state_index,
                    state: state.code.to_string(),
                    center,
                    n_bsls: n,
                }
            })
            .collect::<Vec<Town>>()
    })
    .into_iter()
    .flatten()
    .collect();
    if !towns.is_empty() {
        return towns;
    }
    // Fallback for degenerate budgets: one town, all BSLs, biggest state.
    let (state_index, state) = STATES
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.population_weight
                .partial_cmp(&b.population_weight)
                .expect("population weights are finite")
        })
        .expect("STATES is non-empty");
    let mut rng = shard_rng(config.seed, SynthStage::Towns, state_index as u64);
    let u = rng.gen_range(0.1..0.9);
    let v = rng.gen_range(0.1..0.9);
    vec![Town {
        state_index,
        state: state.code.to_string(),
        center: state.bounding_box().lerp(u, v),
        n_bsls: config.n_bsls,
    }]
}

/// Per-town id offsets: town `i`'s BSLs get ids `offset[i]+1 .. offset[i+1]`.
///
/// All arithmetic is checked u64 — at 115M BSLs the ids are far past what a
/// u32 could hold, and a config that somehow overflows u64 (impossible after
/// [`SynthConfig::validate`], which caps `n_bsls`) fails loudly here instead
/// of silently wrapping into duplicate ids.
pub fn town_offsets(towns: &[Town]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(towns.len());
    let mut acc: u64 = 0;
    for town in towns {
        offsets.push(acc);
        acc = acc
            .checked_add(town.n_bsls as u64)
            .expect("fabric location-id space overflowed u64; SynthConfig::validate caps n_bsls");
    }
    offsets
}

/// Scatter one town's BSLs, drawing from the town's own RNG stream
/// ([`SynthStage::Fabric`], keyed by town index) with ids starting at
/// `first_id`. This is the single generation kernel shared by the
/// materialised path ([`generate_fabric`]) and the streaming world's town
/// blocks — equivalence between the two is by construction.
pub fn town_bsls(config: &SynthConfig, town_index: usize, town: &Town, first_id: u64) -> Vec<Bsl> {
    let mut rng = shard_rng(config.seed, SynthStage::Fabric, town_index as u64);
    let mut next_id = first_id;
    (0..town.n_bsls)
        .map(|_| {
            // Radial profile: most structures spread uniformly over a
            // compact town disc (giving a few BSLs per res-8 hex, as in
            // Figure 9), plus a thin rural tail.
            let town_radius_km = 3.8;
            let distance_km = if rng.gen_bool(0.92) {
                // Uniform areal density inside the town disc.
                town_radius_km * rng.gen_range(0.0..1.0f64).sqrt()
            } else {
                rng.gen_range(town_radius_km..10.0)
            };
            let bearing = rng.gen_range(0.0..360.0);
            let position = town.center.destination(bearing, distance_km * 1000.0);
            let unit_count = if rng.gen_bool(0.06) {
                rng.gen_range(2..40)
            } else {
                1
            };
            let community_anchor = rng.gen_bool(0.01);
            let bsl = Bsl::new(
                LocationId(next_id),
                position,
                unit_count,
                community_anchor,
                town.state.clone(),
            );
            next_id = next_id
                .checked_add(1)
                .expect("fabric location ids overflowed u64");
            bsl
        })
        .collect()
}

/// Generate the fabric by scattering BSLs around every town, one shard per
/// town. Location ids are assigned from per-town offsets (prefix sums of
/// `n_bsls`), so ids are dense, unique and independent of scheduling.
pub fn generate_fabric(config: &SynthConfig, towns: &[Town], workers: usize) -> Fabric {
    let offsets = town_offsets(towns);
    let bsls = map_shards(workers, towns, |i, town| {
        town_bsls(config, i, town, offsets[i] + 1)
    });
    Fabric::new(bsls.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> (Vec<Town>, Fabric) {
        let config = SynthConfig::tiny(7);
        let towns = generate_towns(&config, 1);
        let fabric = generate_fabric(&config, &towns, 1);
        (towns, fabric)
    }

    #[test]
    fn bsl_count_close_to_requested() {
        let config = SynthConfig::tiny(7);
        let (_, fabric) = small_world();
        let n = fabric.len() as f64;
        let target = config.n_bsls as f64;
        assert!(
            (n - target).abs() / target < 0.05,
            "generated {n} vs target {target}"
        );
    }

    #[test]
    fn every_state_with_weight_gets_towns() {
        let (towns, _) = small_world();
        let states_with_towns: std::collections::HashSet<&str> =
            towns.iter().map(|t| t.state.as_str()).collect();
        // At tiny scale small territories may round to zero BSLs, but the big
        // states must all be present.
        for code in ["CA", "TX", "NY", "VA", "NE"] {
            assert!(states_with_towns.contains(code), "missing {code}");
        }
    }

    #[test]
    fn bsls_stay_reasonably_near_their_town() {
        let (towns, fabric) = small_world();
        // Spot-check: every BSL is within 25 km of *some* town centre.
        for bsl in fabric.bsls().iter().step_by(97) {
            let nearest = towns
                .iter()
                .map(|t| t.center.haversine_km(&bsl.position))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 25.0,
                "BSL {} was {nearest} km from any town",
                bsl.id
            );
        }
    }

    #[test]
    fn median_bsls_per_hex_in_paper_range() {
        // The paper reports a median of 4 BSLs per occupied res-8 hex; the
        // generator should land in the same ballpark.
        let config = SynthConfig::experiment(11);
        let towns = generate_towns(&config, 1);
        let fabric = generate_fabric(&config, &towns, 1);
        let median = fabric.median_bsls_per_hex();
        assert!(
            (2..=9).contains(&median),
            "median BSLs per hex was {median}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let gen = |seed| {
            let config = SynthConfig::tiny(seed);
            let towns = generate_towns(&config, 1);
            let fabric = generate_fabric(&config, &towns, 1);
            fabric.bsls().iter().map(|b| b.hex).collect::<Vec<_>>()
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
    }

    #[test]
    fn worker_count_does_not_change_the_fabric() {
        let config = SynthConfig::tiny(7);
        let base_towns = generate_towns(&config, 1);
        let base: Vec<(u64, u64)> = generate_fabric(&config, &base_towns, 1)
            .bsls()
            .iter()
            .map(|b| {
                (
                    b.id.value(),
                    b.position.lat.to_bits() ^ b.position.lng.to_bits(),
                )
            })
            .collect();
        for workers in [2, 3, 8] {
            let towns = generate_towns(&config, workers);
            assert_eq!(towns.len(), base_towns.len());
            let got: Vec<(u64, u64)> = generate_fabric(&config, &towns, workers)
                .bsls()
                .iter()
                .map(|b| {
                    (
                        b.id.value(),
                        b.position.lat.to_bits() ^ b.position.lng.to_bits(),
                    )
                })
                .collect();
            assert_eq!(got, base, "fabric differs at {workers} workers");
        }
    }

    #[test]
    fn location_ids_are_unique_and_positive() {
        let (_, fabric) = small_world();
        let mut ids: Vec<u64> = fabric.bsls().iter().map(|b| b.id.value()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert!(ids[0] >= 1);
    }
}
