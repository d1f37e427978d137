//! Lattice math for the hexagonal grid: resolutions, cell sizes and the
//! axial-coordinate plane.
//!
//! The grid lives on a Lambert cylindrical equal-area projection scaled to
//! kilometres, so the plane is `W ≈ 40,030 km` wide (the equatorial
//! circumference) and `H ≈ 12,742 km` tall (the Earth's diameter); its total
//! area equals the Earth's surface area, which makes planar hexagon areas equal
//! to ground areas. Cells are pointy-top hexagons in axial coordinates
//! `(q, r)`.

use geoprim::{EqualAreaProjection, LatLng, EARTH_AREA_KM2, EARTH_RADIUS_M};
use serde::{Deserialize, Serialize};

/// Number of resolution-0 base cells. Chosen to match H3's 122 base cells so
/// per-resolution cell areas line up with the published H3 resolution table.
pub const BASE_CELLS: f64 = 122.0;

/// The aperture of the hierarchy: each finer resolution has 7× more cells.
pub const APERTURE: f64 = 7.0;

/// Maximum supported resolution level (same as H3).
pub const MAX_RESOLUTION: u8 = 15;

/// Width of the projected plane in kilometres (equatorial circumference).
pub(crate) const PLANE_WIDTH_KM: f64 = 2.0 * std::f64::consts::PI * EARTH_RADIUS_M / 1000.0;

/// Height of the projected plane in kilometres (Earth diameter). With the
/// equal-area projection, `PLANE_WIDTH_KM * PLANE_HEIGHT_KM == EARTH_AREA_KM2`.
pub(crate) const PLANE_HEIGHT_KM: f64 = 2.0 * EARTH_RADIUS_M / 1000.0;

/// A validated grid resolution level in `0..=15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Resolution(u8);

/// The resolution at which the public National Broadband Map reports provider
/// claims (H3 resolution 8, ~0.7 km² cells).
pub const NBM_RESOLUTION: Resolution = Resolution(8);

impl Resolution {
    /// Construct a resolution, returning `None` when `level > 15`.
    pub fn new(level: u8) -> Option<Self> {
        (level <= MAX_RESOLUTION).then_some(Self(level))
    }

    /// The numeric level.
    pub fn level(&self) -> u8 {
        self.0
    }

    /// Average cell area at this resolution in square kilometres.
    pub fn avg_cell_area_km2(&self) -> f64 {
        EARTH_AREA_KM2 / (BASE_CELLS * APERTURE.powi(self.0 as i32))
    }

    /// Hexagon circumradius ("size") in kilometres in the projected plane.
    ///
    /// A regular hexagon with circumradius `s` has area `(3√3/2)·s²`.
    pub fn hex_size_km(&self) -> f64 {
        (2.0 * self.avg_cell_area_km2() / (3.0 * 3.0_f64.sqrt())).sqrt()
    }

    /// The next coarser resolution, or `None` at level 0.
    pub fn coarser(&self) -> Option<Resolution> {
        self.0.checked_sub(1).map(Resolution)
    }

    /// The next finer resolution, or `None` at level 15.
    pub fn finer(&self) -> Option<Resolution> {
        Resolution::new(self.0 + 1)
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "res{}", self.0)
    }
}

/// Axial coordinates of a hexagon in the projected plane at some resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Axial {
    pub q: i64,
    pub r: i64,
}

/// Project a geographic coordinate into the kilometre plane.
pub(crate) fn to_plane_km(p: &LatLng) -> (f64, f64) {
    let (x, y) = EqualAreaProjection.project(p);
    (x * PLANE_WIDTH_KM, y * PLANE_HEIGHT_KM)
}

/// Inverse of [`to_plane_km`].
pub(crate) fn from_plane_km(x_km: f64, y_km: f64) -> LatLng {
    EqualAreaProjection.unproject(x_km / PLANE_WIDTH_KM, y_km / PLANE_HEIGHT_KM)
}

/// Convert a plane position to the axial coordinates of the hexagon containing
/// it at the given resolution (pointy-top layout with cube rounding).
pub(crate) fn plane_to_axial(x_km: f64, y_km: f64, res: Resolution) -> Axial {
    let s = res.hex_size_km();
    let qf = (3.0_f64.sqrt() / 3.0 * x_km - y_km / 3.0) / s;
    let rf = (2.0 / 3.0 * y_km) / s;
    cube_round(qf, rf)
}

/// Centre of the hexagon with axial coordinates `(q, r)` in the plane.
pub(crate) fn axial_to_plane(a: Axial, res: Resolution) -> (f64, f64) {
    let s = res.hex_size_km();
    let x = s * 3.0_f64.sqrt() * (a.q as f64 + a.r as f64 / 2.0);
    let y = s * 1.5 * a.r as f64;
    (x, y)
}

/// Round fractional axial coordinates to the nearest hexagon using cube
/// coordinate rounding (the standard technique from Amit Patel's hex guide).
fn cube_round(qf: f64, rf: f64) -> Axial {
    let sf = -qf - rf;
    let mut q = qf.round();
    let mut r = rf.round();
    let s = sf.round();
    let dq = (q - qf).abs();
    let dr = (r - rf).abs();
    let ds = (s - sf).abs();
    if dq > dr && dq > ds {
        q = -r - s;
    } else if dr > ds {
        r = -q - s;
    }
    Axial {
        q: q as i64,
        r: r as i64,
    }
}

/// The six axial direction offsets, in counter-clockwise order starting east.
pub(crate) const HEX_DIRECTIONS: [(i64, i64); 6] =
    [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_bounds() {
        assert!(Resolution::new(0).is_some());
        assert!(Resolution::new(15).is_some());
        assert!(Resolution::new(16).is_none());
    }

    #[test]
    fn res8_area_close_to_h3() {
        // H3 res 8 average hexagon area is 0.737 km^2; ours should be within
        // a few percent because we use the same base-cell count and aperture.
        let a = NBM_RESOLUTION.avg_cell_area_km2();
        assert!((a - 0.737).abs() < 0.05, "area {a}");
    }

    #[test]
    fn aperture_seven_scaling() {
        let a7 = Resolution::new(7).unwrap().avg_cell_area_km2();
        let a8 = Resolution::new(8).unwrap().avg_cell_area_km2();
        assert!((a7 / a8 - 7.0).abs() < 1e-9);
    }

    #[test]
    fn plane_dimensions_cover_earth_area() {
        assert!((PLANE_WIDTH_KM * PLANE_HEIGHT_KM - EARTH_AREA_KM2).abs() < 1.0);
    }

    #[test]
    fn plane_round_trip() {
        let p = LatLng::new(37.23, -80.41);
        let (x, y) = to_plane_km(&p);
        let q = from_plane_km(x, y);
        assert!(p.approx_eq(&q, 1e-9));
    }

    #[test]
    fn axial_round_trip_via_center() {
        let res = NBM_RESOLUTION;
        let p = LatLng::new(38.9, -77.0);
        let (x, y) = to_plane_km(&p);
        let a = plane_to_axial(x, y, res);
        let (cx, cy) = axial_to_plane(a, res);
        let a2 = plane_to_axial(cx, cy, res);
        assert_eq!(a, a2);
    }

    #[test]
    fn cube_round_prefers_nearest() {
        let a = cube_round(0.1, 0.1);
        assert_eq!(a, Axial { q: 0, r: 0 });
        let b = cube_round(0.9, 0.1);
        assert_eq!(b, Axial { q: 1, r: 0 });
    }

    #[test]
    fn coarser_and_finer_navigation() {
        let r8 = NBM_RESOLUTION;
        assert_eq!(r8.coarser().unwrap().level(), 7);
        assert_eq!(r8.finer().unwrap().level(), 9);
        assert!(Resolution::new(0).unwrap().coarser().is_none());
        assert!(Resolution::new(15).unwrap().finer().is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{NBM_RESOLUTION}"), "res8");
    }
}
