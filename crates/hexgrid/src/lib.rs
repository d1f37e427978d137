//! A hierarchical hexagonal discrete global grid and the Web-Mercator quadkey
//! tile system.
//!
//! The National Broadband Map publishes provider availability claims at the
//! granularity of **H3 resolution-8 hexagons** (~0.7 km² cells), and the public
//! Ookla speed-test dataset is aggregated on **Bing-Maps quadkey tiles**
//! (~500 m at zoom 16). The `red_is_sus` pipeline therefore needs both grid
//! systems and a way to re-project one onto the other (Appendix D of the
//! paper).
//!
//! Licensing prevents us from shipping Uber's H3 library or CostQuest data, so
//! this crate implements a **substitute discrete global grid**: an aperture-7
//! hierarchy of pointy-top hexagons laid out on a Lambert cylindrical
//! equal-area projection. Like H3 it provides
//!
//! * 64-bit cell indices that pack a resolution and a lattice position,
//! * 16 resolutions with aperture-7 scaling (each resolution has 7× the cells
//!   of the previous one); resolution 8 cells cover ≈ 0.73 km², matching H3's
//!   0.737 km² average,
//! * cell ↔ centroid ↔ boundary conversions, k-ring neighbourhoods
//!   (`grid_disk`), and approximate parent/child navigation.
//!
//! The workspace builds without registry dependencies, so no H3 binding is
//! available. The pipeline only relies on the grid being a deterministic,
//! near-equal-area tiling with stable ids and local neighbourhood queries; it
//! never depends on H3's exact icosahedral geometry, so this substitution
//! preserves every downstream behaviour.

pub mod cell;
pub mod grid;
pub mod quadkey;
pub mod reproject;

pub use cell::HexCell;
pub use grid::{Resolution, MAX_RESOLUTION, NBM_RESOLUTION};
pub use quadkey::{QuadTile, OOKLA_ZOOM};
pub use reproject::{cover_tile_with_hexes, reproject_to_hexes};

#[cfg(test)]
mod proptests {
    //! Property-style tests over seeded random inputs. The environment has no
    //! registry access for the real `proptest`, so each property is checked
    //! over a deterministic sample of the input space instead of a shrinking
    //! search; the invariants are unchanged.

    use super::*;
    use geoprim::LatLng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: usize = 250;

    /// Latitude range where the US (including Alaska) lives; the grid is only
    /// exercised there by the pipeline.
    fn us_latlng(rng: &mut StdRng) -> LatLng {
        LatLng::new(rng.gen_range(18.0..71.5), rng.gen_range(-179.0..-65.0))
    }

    /// A cell's centroid must map back to the same cell at the same
    /// resolution — the fundamental round-trip invariant of any DGGS.
    #[test]
    fn centroid_round_trips() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let res = Resolution::new(rng.gen_range(0..=10u8)).unwrap();
            let cell = HexCell::containing(&p, res);
            let back = HexCell::containing(&cell.center(), res);
            assert_eq!(cell, back, "centroid of {cell:?} left the cell");
        }
    }

    /// Packing and unpacking a cell index is lossless.
    #[test]
    fn index_round_trips() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let res = Resolution::new(rng.gen_range(0..=12u8)).unwrap();
            let cell = HexCell::containing(&p, res);
            let reconstructed = HexCell::from_index(cell.index()).unwrap();
            assert_eq!(cell, reconstructed);
            assert_eq!(reconstructed.resolution(), res);
        }
    }

    /// The generating point is always inside (or on the boundary of) the
    /// cell's hexagonal boundary polygon, within a small tolerance ring.
    #[test]
    fn point_near_boundary_center() {
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let cell = HexCell::containing(&p, NBM_RESOLUTION);
            let d = cell.center().haversine_km(&p);
            // Circumradius of a res-8 cell is ~0.53 km; allow slack for the
            // projection distortion at high latitude.
            assert!(d < 1.6, "point {p:?} was {d} km from centroid");
        }
    }

    /// grid_disk(k) always contains the origin cell and grows with k.
    #[test]
    fn grid_disk_contains_origin() {
        let mut rng = StdRng::seed_from_u64(0xD15C);
        for _ in 0..60 {
            let p = us_latlng(&mut rng);
            let k = rng.gen_range(0..4usize);
            let cell = HexCell::containing(&p, NBM_RESOLUTION);
            let disk = cell.grid_disk(k);
            assert!(disk.contains(&cell));
            let bigger = cell.grid_disk(k + 1);
            assert!(bigger.len() > disk.len());
            for c in &disk {
                assert!(bigger.contains(c));
            }
        }
    }

    /// The parent of a cell is the cell at the coarser resolution that
    /// contains the child's centroid.
    #[test]
    fn parent_contains_child_centroid() {
        let mut rng = StdRng::seed_from_u64(0xAB1E);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let res = Resolution::new(rng.gen_range(1..=10u8)).unwrap();
            let cell = HexCell::containing(&p, res);
            let parent = cell.parent().unwrap();
            assert_eq!(parent.resolution().level(), res.level() - 1);
            let expected = HexCell::containing(&cell.center(), parent.resolution());
            assert_eq!(parent, expected);
        }
    }

    /// Quadkey string encode/decode round-trips.
    #[test]
    fn quadkey_string_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x9E0);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let zoom = rng.gen_range(1..=20u8);
            let tile = QuadTile::containing(&p, zoom);
            let key = tile.quadkey();
            assert_eq!(key.len(), zoom as usize);
            let back = QuadTile::from_quadkey(&key).unwrap();
            assert_eq!(tile, back);
        }
    }

    /// A tile's centre is inside its own bounds, and the containing tile of
    /// the centre is the tile itself.
    #[test]
    fn quadtile_center_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x7EA);
        for _ in 0..CASES {
            let p = us_latlng(&mut rng);
            let zoom = rng.gen_range(1..=20u8);
            let tile = QuadTile::containing(&p, zoom);
            let c = tile.center();
            assert!(tile.bounds().contains(&c));
            assert_eq!(QuadTile::containing(&c, zoom), tile);
        }
    }
}
