//! The Broadband Serviceable Location Fabric.
//!
//! The Fabric is the universe of structures that could be served by broadband;
//! ISPs may only claim service at locations present in it. The real Fabric is
//! licensed from CostQuest and cannot be redistributed; the paper (and this
//! reproduction) therefore works with the H3-level public view plus, here, a
//! synthetic fabric generated by the `synth` crate. Figure 9 of the paper
//! reports a median of four BSLs per resolution-8 hex, which the generator is
//! tuned to reproduce and [`Fabric::median_bsls_per_hex`] measures.

use std::collections::{BTreeMap, HashMap};

use geoprim::LatLng;
use hexgrid::{HexCell, NBM_RESOLUTION};
use serde::{Deserialize, Serialize};

use crate::ids::LocationId;

/// One Broadband Serviceable Location: a structure that could subscribe to
/// mass-market broadband.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bsl {
    /// Stable location id.
    pub id: LocationId,
    /// Geographic position of the structure.
    pub position: LatLng,
    /// Number of dwelling units (1 for single-family homes, >1 for MDUs).
    pub unit_count: u32,
    /// Community anchor institutions (schools, libraries, hospitals) are
    /// tracked separately by the BDC and excluded from mass-market analysis.
    pub community_anchor: bool,
    /// Two-letter state/territory code the location belongs to.
    pub state: String,
    /// The resolution-8 hex the location falls in (the public NBM exposes
    /// exactly this association).
    pub hex: HexCell,
}

impl Bsl {
    /// Construct a BSL, deriving its hex cell from the position.
    pub fn new(
        id: LocationId,
        position: LatLng,
        unit_count: u32,
        community_anchor: bool,
        state: impl Into<String>,
    ) -> Self {
        Self {
            id,
            position,
            unit_count,
            community_anchor,
            state: state.into(),
            hex: HexCell::containing(&position, NBM_RESOLUTION),
        }
    }
}

/// The fabric queries the downstream pipeline actually needs — location→hex,
/// per-hex BSL counts and per-hex state tallies — abstracted from the storage
/// so a fully materialised [`Fabric`] and a bounded-memory streaming hex
/// table (the synth crate's national-scale world) can serve them
/// interchangeably. Label construction and feature engineering consume
/// `&dyn FabricView`; `Sync` is part of the contract because every consumer
/// fans the view across scoped shard workers.
pub trait FabricView: Sync {
    /// The hex a location falls in, `None` when the location is unknown.
    fn hex_of(&self, id: LocationId) -> Option<HexCell>;

    /// Number of BSLs in a hex (0 when unoccupied).
    fn bsl_count_in_hex(&self, hex: &HexCell) -> usize;

    /// BSL counts per state code in a hex, ascending by code (the input to
    /// majority-state resolution). Empty when the hex holds no BSLs.
    fn hex_state_counts(&self, hex: &HexCell) -> BTreeMap<String, usize>;
}

impl FabricView for Fabric {
    fn hex_of(&self, id: LocationId) -> Option<HexCell> {
        self.get(id).map(|b| b.hex)
    }

    fn bsl_count_in_hex(&self, hex: &HexCell) -> usize {
        Fabric::bsl_count_in_hex(self, hex)
    }

    fn hex_state_counts(&self, hex: &HexCell) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for id in self.locations_in_hex(hex) {
            if let Some(bsl) = self.get(*id) {
                *counts.entry(bsl.state.clone()).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// The full fabric with lookup indices by hex and by location id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Fabric {
    bsls: Vec<Bsl>,
    by_hex: HashMap<HexCell, Vec<LocationId>>,
    by_id: HashMap<LocationId, usize>,
}

impl Fabric {
    /// Build a fabric from a list of BSLs.
    pub fn new(bsls: Vec<Bsl>) -> Self {
        let mut by_hex: HashMap<HexCell, Vec<LocationId>> = HashMap::new();
        let mut by_id = HashMap::with_capacity(bsls.len());
        for (i, bsl) in bsls.iter().enumerate() {
            by_hex.entry(bsl.hex).or_default().push(bsl.id);
            by_id.insert(bsl.id, i);
        }
        Self {
            bsls,
            by_hex,
            by_id,
        }
    }

    /// All BSLs.
    pub fn bsls(&self) -> &[Bsl] {
        &self.bsls
    }

    /// Number of locations in the fabric.
    pub fn len(&self) -> usize {
        self.bsls.len()
    }

    /// True when the fabric holds no locations.
    pub fn is_empty(&self) -> bool {
        self.bsls.is_empty()
    }

    /// Look a BSL up by id.
    pub fn get(&self, id: LocationId) -> Option<&Bsl> {
        self.by_id.get(&id).map(|&i| &self.bsls[i])
    }

    /// Location ids in a given hex cell.
    pub fn locations_in_hex(&self, hex: &HexCell) -> &[LocationId] {
        self.by_hex.get(hex).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of BSLs in a given hex cell.
    pub fn bsl_count_in_hex(&self, hex: &HexCell) -> usize {
        self.locations_in_hex(hex).len()
    }

    /// All hex cells that contain at least one BSL.
    pub fn hexes(&self) -> impl Iterator<Item = &HexCell> {
        self.by_hex.keys()
    }

    /// Distribution of BSL counts per occupied hex (sorted ascending).
    pub fn bsls_per_hex_distribution(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.by_hex.values().map(Vec::len).collect();
        counts.sort_unstable();
        counts
    }

    /// Median number of BSLs per occupied hex (Figure 9 of the paper reports
    /// this to be 4 for the real fabric). Returns 0 for an empty fabric.
    pub fn median_bsls_per_hex(&self) -> usize {
        let counts = self.bsls_per_hex_distribution();
        if counts.is_empty() {
            0
        } else {
            counts[counts.len() / 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fabric() -> Fabric {
        let base = LatLng::new(37.2296, -80.4139);
        let bsls = (0..20)
            .map(|i| {
                let p = LatLng::new(base.lat + (i as f64) * 0.001, base.lng + (i as f64) * 0.001);
                Bsl::new(LocationId(i), p, 1 + (i % 3) as u32, i % 10 == 0, "VA")
            })
            .collect();
        Fabric::new(bsls)
    }

    #[test]
    fn lookup_by_id() {
        let f = small_fabric();
        assert_eq!(f.len(), 20);
        assert!(f.get(LocationId(5)).is_some());
        assert!(f.get(LocationId(99)).is_none());
    }

    #[test]
    fn hex_index_covers_all_locations() {
        let f = small_fabric();
        let total: usize = f.hexes().map(|h| f.bsl_count_in_hex(h)).sum();
        assert_eq!(total, f.len());
    }

    #[test]
    fn bsl_hex_matches_position() {
        let f = small_fabric();
        for b in f.bsls() {
            assert_eq!(b.hex, HexCell::containing(&b.position, NBM_RESOLUTION));
        }
    }

    #[test]
    fn median_of_empty_fabric_is_zero() {
        assert_eq!(Fabric::new(vec![]).median_bsls_per_hex(), 0);
        assert!(Fabric::new(vec![]).is_empty());
    }

    #[test]
    fn median_counts_occupied_hexes_only() {
        let f = small_fabric();
        assert!(f.median_bsls_per_hex() >= 1);
    }
}
