//! 64-bit hexagonal cell indices.

use geoprim::{LatLng, Polygon};
use serde::{Deserialize, Serialize};

use crate::grid::{
    axial_to_plane, from_plane_km, plane_to_axial, to_plane_km, Axial, Resolution, HEX_DIRECTIONS,
};

/// Number of bits used for each axial coordinate in the packed index.
const COORD_BITS: u64 = 29;
/// Bias added to axial coordinates so they pack as unsigned values.
const COORD_BIAS: i64 = 1 << (COORD_BITS - 1);
const COORD_MASK: u64 = (1 << COORD_BITS) - 1;
/// Bit position of the 5-bit resolution field (values above 15 are invalid,
/// which lets [`HexCell::from_index`] reject corrupted indices).
const RES_SHIFT: u64 = 2 * COORD_BITS;

/// A cell of the hexagonal discrete global grid, identified by a packed 64-bit
/// index (4 bits of resolution, 30 bits per axial coordinate).
///
/// This is the unit of spatial analysis in the whole pipeline: the public NBM
/// reports provider claims per resolution-8 cell, challenges are applied per
/// cell, and the model's observations are `(provider, technology, cell)`
/// triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HexCell(u64);

impl HexCell {
    /// The cell containing geographic point `p` at resolution `res`.
    pub fn containing(p: &LatLng, res: Resolution) -> Self {
        let (x, y) = to_plane_km(p);
        let axial = plane_to_axial(x, y, res);
        Self::from_parts(res, axial)
    }

    fn from_parts(res: Resolution, a: Axial) -> Self {
        let q = (a.q + COORD_BIAS) as u64 & COORD_MASK;
        let r = (a.r + COORD_BIAS) as u64 & COORD_MASK;
        HexCell(((res.level() as u64) << RES_SHIFT) | (q << COORD_BITS) | r)
    }

    /// Reconstruct a cell from its packed index. Returns `None` when the
    /// resolution field is invalid.
    pub fn from_index(index: u64) -> Option<Self> {
        let res = (index >> RES_SHIFT) as u8;
        Resolution::new(res)?;
        Some(HexCell(index))
    }

    /// The packed 64-bit index (stable across runs and platforms).
    pub fn index(&self) -> u64 {
        self.0
    }

    /// The resolution encoded in the index.
    pub fn resolution(&self) -> Resolution {
        Resolution::new((self.0 >> RES_SHIFT) as u8)
            .expect("index always stores a valid resolution")
    }

    fn axial(&self) -> Axial {
        let q = ((self.0 >> COORD_BITS) & COORD_MASK) as i64 - COORD_BIAS;
        let r = (self.0 & COORD_MASK) as i64 - COORD_BIAS;
        Axial { q, r }
    }

    /// Centroid of the cell in geographic coordinates. The paper uses the hex
    /// centroid as a model feature ("Location" in Table 4).
    pub fn center(&self) -> LatLng {
        let (x, y) = axial_to_plane(self.axial(), self.resolution());
        from_plane_km(x, y)
    }

    /// Average cell area at this cell's resolution in square kilometres.
    pub fn area_km2(&self) -> f64 {
        self.resolution().avg_cell_area_km2()
    }

    /// The hexagonal boundary as a six-vertex polygon.
    pub fn boundary(&self) -> Polygon {
        let res = self.resolution();
        let s = res.hex_size_km();
        let (cx, cy) = axial_to_plane(self.axial(), res);
        let vertices = (0..6)
            .map(|i| {
                // Pointy-top hexagon: vertices at 30, 90, ..., 330 degrees.
                let angle = std::f64::consts::PI / 180.0 * (60.0 * i as f64 + 30.0);
                from_plane_km(cx + s * angle.cos(), cy + s * angle.sin())
            })
            .collect();
        Polygon::new(vertices)
    }

    /// The six cells sharing an edge with this cell.
    pub fn neighbors(&self) -> Vec<HexCell> {
        let a = self.axial();
        let res = self.resolution();
        HEX_DIRECTIONS
            .iter()
            .map(|&(dq, dr)| {
                Self::from_parts(
                    res,
                    Axial {
                        q: a.q + dq,
                        r: a.r + dr,
                    },
                )
            })
            .collect()
    }

    /// All cells within `k` grid steps of this cell (including itself) — the
    /// analogue of H3's `gridDisk`. Contains `1 + 3k(k+1)` cells.
    pub fn grid_disk(&self, k: usize) -> Vec<HexCell> {
        let a = self.axial();
        let res = self.resolution();
        let k = k as i64;
        let mut out = Vec::with_capacity((1 + 3 * k * (k + 1)) as usize);
        for dq in -k..=k {
            let (lo, hi) = disk_column(k, dq);
            for dr in lo..=hi {
                out.push(Self::from_parts(
                    res,
                    Axial {
                        q: a.q + dq,
                        r: a.r + dr,
                    },
                ));
            }
        }
        out
    }

    /// [`grid_disk`](Self::grid_disk)`(k)` as one inclusive `(first, last)`
    /// cell pair per axial column, in ascending index order: concatenated,
    /// the columns are exactly `grid_disk(k)`, cell for cell and in the same
    /// order. Cells order by their packed `(res, q, r)` index, so each column
    /// is one contiguous range of an ordered cell set (`set.range(first..=last)`).
    pub fn grid_disk_columns(&self, k: usize) -> impl Iterator<Item = (HexCell, HexCell)> {
        let a = self.axial();
        let res = self.resolution();
        let k = k as i64;
        (-k..=k).map(move |dq| {
            let (lo, hi) = disk_column(k, dq);
            let cell = |dr| {
                Self::from_parts(
                    res,
                    Axial {
                        q: a.q + dq,
                        r: a.r + dr,
                    },
                )
            };
            (cell(lo), cell(hi))
        })
    }

    /// Grid distance (number of hex steps) to another cell of the same
    /// resolution. Returns `None` when the resolutions differ.
    pub fn grid_distance(&self, other: &HexCell) -> Option<u64> {
        if self.resolution() != other.resolution() {
            return None;
        }
        let a = self.axial();
        let b = other.axial();
        let dq = (a.q - b.q).abs();
        let dr = (a.r - b.r).abs();
        let ds = ((a.q + a.r) - (b.q + b.r)).abs();
        Some(((dq + dr + ds) / 2) as u64)
    }

    /// The cell at the next coarser resolution containing this cell's
    /// centroid. Like H3's `cellToParent` this is a centroid-based hierarchy;
    /// child cells are not geometrically nested inside their parent.
    pub fn parent(&self) -> Option<HexCell> {
        let coarser = self.resolution().coarser()?;
        Some(HexCell::containing(&self.center(), coarser))
    }

    /// Cells at the next finer resolution whose centroids fall inside this
    /// cell's boundary (approximately 7 cells, mirroring the aperture).
    pub fn children(&self) -> Option<Vec<HexCell>> {
        let finer = self.resolution().finer()?;
        let center_child = HexCell::containing(&self.center(), finer);
        let boundary = self.boundary();
        let mut out: Vec<HexCell> = center_child
            .grid_disk(2)
            .into_iter()
            .filter(|c| boundary.contains(&c.center()))
            .collect();
        out.sort();
        out.dedup();
        Some(out)
    }
}

/// The `dr` offsets `(lo, hi)` of column `dq` of a radius-`k` disk.
fn disk_column(k: i64, dq: i64) -> (i64, i64) {
    ((-k).max(-dq - k), k.min(-dq + k))
}

impl std::fmt::Display for HexCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::NBM_RESOLUTION;
    use std::collections::BTreeSet;

    fn dc() -> LatLng {
        LatLng::new(38.9072, -77.0369)
    }

    #[test]
    fn containing_is_deterministic() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let b = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert_eq!(a, b);
    }

    #[test]
    fn different_resolutions_give_different_cells() {
        let a = HexCell::containing(&dc(), Resolution::new(7).unwrap());
        let b = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert_ne!(a, b);
        assert_eq!(a.resolution().level(), 7);
        assert_eq!(b.resolution().level(), 8);
    }

    #[test]
    fn index_round_trip() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert_eq!(HexCell::from_index(a.index()), Some(a));
    }

    #[test]
    fn invalid_resolution_rejected() {
        assert!(HexCell::from_index(0xFFFF_FFFF_FFFF_FFFF).is_none());
    }

    #[test]
    fn neighbors_are_six_distinct_adjacent_cells() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let n = a.neighbors();
        assert_eq!(n.len(), 6);
        let mut unique = n.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 6);
        for c in &n {
            assert_eq!(a.grid_distance(c), Some(1));
            assert_ne!(*c, a);
        }
    }

    #[test]
    fn grid_disk_sizes() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert_eq!(a.grid_disk(0).len(), 1);
        assert_eq!(a.grid_disk(1).len(), 7);
        assert_eq!(a.grid_disk(2).len(), 19);
        assert_eq!(a.grid_disk(3).len(), 37);
    }

    /// Concatenated, the columns are `grid_disk(k)` cell for cell: each is
    /// a run of consecutive packed indices, and a range query over a larger
    /// cell set returns exactly that run. The disks hold cells of both signs
    /// of both axial coordinates (the plane's origin is at 180°W on the south
    /// pole, so negative `q` lies west of the line `x = y/√3` and negative
    /// `r` only south of the pole's row).
    #[test]
    fn grid_disk_columns_flatten_to_grid_disk() {
        let centres = [
            dc(),
            LatLng::new(52.0, -179.0),
            LatLng::new(0.0, -146.92),
            LatLng::new(-89.99, 20.0),
        ];
        let cells: Vec<HexCell> = centres
            .iter()
            .map(|p| HexCell::containing(p, NBM_RESOLUTION))
            .collect();
        let signs: BTreeSet<(bool, bool)> = cells
            .iter()
            .flat_map(|c| c.grid_disk(25))
            .flat_map(|c| [(true, c.axial().q < 0), (false, c.axial().r < 0)])
            .collect();
        assert_eq!(signs.len(), 4, "a sign of an axial coordinate is missing");
        for cell in cells {
            let around: BTreeSet<HexCell> = cell.grid_disk(27).into_iter().collect();
            for k in 0..=25 {
                let mut by_index = Vec::new();
                let mut by_range = Vec::new();
                for (first, last) in cell.grid_disk_columns(k) {
                    assert!(first <= last, "k = {k} at {cell}: {first} > {last}");
                    by_index.extend(
                        (first.index()..=last.index()).map(|i| HexCell::from_index(i).unwrap()),
                    );
                    by_range.extend(around.range(first..=last).copied());
                }
                let disk = cell.grid_disk(k);
                assert_eq!(by_index, disk, "k = {k} at {cell}");
                assert_eq!(by_range, disk, "k = {k} at {cell}");
            }
        }
    }

    #[test]
    fn grid_distance_symmetric() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let b = HexCell::containing(&LatLng::new(38.95, -77.10), NBM_RESOLUTION);
        assert_eq!(a.grid_distance(&b), b.grid_distance(&a));
        assert!(a.grid_distance(&b).unwrap() > 0);
    }

    #[test]
    fn grid_distance_requires_same_resolution() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let b = HexCell::containing(&dc(), Resolution::new(7).unwrap());
        assert_eq!(a.grid_distance(&b), None);
    }

    #[test]
    fn boundary_contains_center() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert!(a.boundary().contains(&a.center()));
    }

    #[test]
    fn boundary_area_close_to_nominal() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let poly_area = a.boundary().area_km2();
        let nominal = a.area_km2();
        // Projection distortion at 39N stretches the planar hexagon; accept
        // a generous factor-of-two window — the pipeline only uses nominal
        // areas, never polygon areas.
        assert!(
            poly_area > nominal * 0.5 && poly_area < nominal * 2.0,
            "poly {poly_area} vs nominal {nominal}"
        );
    }

    #[test]
    fn parent_is_coarser_and_near() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let p = a.parent().unwrap();
        assert_eq!(p.resolution().level(), 7);
        assert!(p.center().haversine_km(&a.center()) < 3.0);
    }

    #[test]
    fn res0_has_no_parent() {
        let a = HexCell::containing(&dc(), Resolution::new(0).unwrap());
        assert!(a.parent().is_none());
    }

    #[test]
    fn children_count_close_to_aperture() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        let kids = a.children().unwrap();
        assert!(
            (5..=9).contains(&kids.len()),
            "expected ~7 children, got {}",
            kids.len()
        );
        for k in &kids {
            assert_eq!(k.resolution().level(), 9);
        }
    }

    #[test]
    fn res15_has_no_children() {
        let a = HexCell::containing(&dc(), Resolution::new(15).unwrap());
        assert!(a.children().is_none());
    }

    #[test]
    fn display_is_hex_string() {
        let a = HexCell::containing(&dc(), NBM_RESOLUTION);
        assert_eq!(format!("{a}").len(), 16);
    }

    #[test]
    fn nearby_points_share_cell_far_points_do_not() {
        let p = dc();
        let near = LatLng::new(p.lat + 0.0005, p.lng + 0.0005);
        let far = LatLng::new(p.lat + 0.5, p.lng + 0.5);
        let a = HexCell::containing(&p, NBM_RESOLUTION);
        // 50 m away is *usually* the same cell; allow it to differ only if on
        // a boundary — but the far point must always differ.
        let _ = HexCell::containing(&near, NBM_RESOLUTION);
        assert_ne!(a, HexCell::containing(&far, NBM_RESOLUTION));
    }
}
