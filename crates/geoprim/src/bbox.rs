//! Axis-aligned geographic bounding boxes.
//!
//! State and county extents in the synthetic United States are modelled as
//! lat/lng bounding boxes; the generator samples Broadband Serviceable
//! Locations inside them and the experiments slice observations by state.

use serde::{Deserialize, Serialize};

use crate::LatLng;

/// An axis-aligned box in latitude/longitude space.
///
/// Boxes never cross the antimeridian: `min_lng <= max_lng` always holds.
/// This is sufficient for the continental US, Alaska east of the antimeridian,
/// Hawaii and the Atlantic/Caribbean territories modelled by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    pub min_lat: f64,
    pub min_lng: f64,
    pub max_lat: f64,
    pub max_lng: f64,
}

impl BoundingBox {
    /// Create a bounding box from two corners (any order).
    pub fn new(lat_a: f64, lng_a: f64, lat_b: f64, lng_b: f64) -> Self {
        Self {
            min_lat: lat_a.min(lat_b),
            min_lng: lng_a.min(lng_b),
            max_lat: lat_a.max(lat_b),
            max_lng: lng_a.max(lng_b),
        }
    }

    /// The degenerate box containing exactly one point.
    pub fn from_point(p: LatLng) -> Self {
        Self::new(p.lat, p.lng, p.lat, p.lng)
    }

    /// Smallest box containing every point in `points`. Returns `None` for an
    /// empty slice.
    pub fn from_points(points: &[LatLng]) -> Option<Self> {
        let first = points.first()?;
        let mut bbox = Self::from_point(*first);
        for p in &points[1..] {
            bbox.extend(*p);
        }
        Some(bbox)
    }

    /// Grow the box so it contains `p`.
    pub fn extend(&mut self, p: LatLng) {
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lat = self.max_lat.max(p.lat);
        self.min_lng = self.min_lng.min(p.lng);
        self.max_lng = self.max_lng.max(p.lng);
    }

    /// True when `p` lies inside or on the boundary of the box.
    pub fn contains(&self, p: &LatLng) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lng >= self.min_lng
            && p.lng <= self.max_lng
    }

    /// True when the two boxes share any point.
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lat <= other.max_lat
            && self.max_lat >= other.min_lat
            && self.min_lng <= other.max_lng
            && self.max_lng >= other.min_lng
    }

    /// Centre of the box.
    pub fn center(&self) -> LatLng {
        LatLng::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lng + self.max_lng) / 2.0,
        )
    }

    /// Expand the box by `margin_deg` degrees on every side (clamped/normalised
    /// by the [`LatLng`] constructor when later used as coordinates).
    pub fn expanded(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat - margin_deg,
            min_lng: self.min_lng - margin_deg,
            max_lat: self.max_lat + margin_deg,
            max_lng: self.max_lng + margin_deg,
        }
    }

    /// Approximate area in square kilometres, treating the box as a band on a
    /// sphere (exact in latitude, exact in longitude fraction).
    pub fn area_km2(&self) -> f64 {
        let r_km = crate::EARTH_RADIUS_M / 1000.0;
        let lat1 = self.min_lat.to_radians();
        let lat2 = self.max_lat.to_radians();
        let dlng = (self.max_lng - self.min_lng).to_radians();
        (r_km * r_km * dlng * (lat2.sin() - lat1.sin())).abs()
    }

    /// Interpolate a point inside the box: `u`, `v` in `[0,1]` map linearly to
    /// longitude and latitude respectively. Used by the synthetic generator to
    /// turn uniform random numbers into coordinates without owning an RNG here.
    pub fn lerp(&self, u: f64, v: f64) -> LatLng {
        LatLng::new(
            self.min_lat + v.clamp(0.0, 1.0) * (self.max_lat - self.min_lat),
            self.min_lng + u.clamp(0.0, 1.0) * (self.max_lng - self.min_lng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vabox() -> BoundingBox {
        // Roughly Virginia.
        BoundingBox::new(36.5, -83.7, 39.5, -75.2)
    }

    #[test]
    fn contains_interior_point() {
        assert!(vabox().contains(&LatLng::new(37.2, -80.4)));
    }

    #[test]
    fn excludes_exterior_point() {
        assert!(!vabox().contains(&LatLng::new(41.0, -80.4)));
    }

    #[test]
    fn corners_any_order() {
        let a = BoundingBox::new(39.5, -75.2, 36.5, -83.7);
        assert_eq!(a, vabox());
    }

    #[test]
    fn extend_grows_box() {
        let mut b = BoundingBox::from_point(LatLng::new(10.0, 10.0));
        b.extend(LatLng::new(12.0, 8.0));
        assert!(b.contains(&LatLng::new(11.0, 9.0)));
    }

    #[test]
    fn from_points_matches_manual_extend() {
        let pts = vec![
            LatLng::new(10.0, 10.0),
            LatLng::new(12.0, 8.0),
            LatLng::new(11.0, 14.0),
        ];
        let b = BoundingBox::from_points(&pts).unwrap();
        assert_eq!(b.min_lat, 10.0);
        assert_eq!(b.max_lat, 12.0);
        assert_eq!(b.min_lng, 8.0);
        assert_eq!(b.max_lng, 14.0);
        assert!(BoundingBox::from_points(&[]).is_none());
    }

    #[test]
    fn intersection_detection() {
        let a = vabox();
        let b = BoundingBox::new(38.0, -78.0, 40.0, -70.0);
        let c = BoundingBox::new(45.0, -78.0, 47.0, -70.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn center_is_inside() {
        let b = vabox();
        assert!(b.contains(&b.center()));
    }

    #[test]
    fn lerp_corners() {
        let b = vabox();
        let sw = b.lerp(0.0, 0.0);
        let ne = b.lerp(1.0, 1.0);
        assert!((sw.lat - 36.5).abs() < 1e-9 && (sw.lng - (-83.7)).abs() < 1e-9);
        assert!((ne.lat - 39.5).abs() < 1e-9 && (ne.lng - (-75.2)).abs() < 1e-9);
    }

    #[test]
    fn area_positive_and_plausible() {
        // Virginia is ~110,000 km^2; our box is generous so expect bigger, but
        // in the right order of magnitude.
        let a = vabox().area_km2();
        assert!(a > 100_000.0 && a < 400_000.0, "area {a}");
    }
}
