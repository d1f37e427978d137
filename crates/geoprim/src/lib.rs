//! Geometry primitives used across the `red_is_sus` reproduction.
//!
//! The National Broadband Map pipeline reasons about geography at several
//! layers: Broadband Serviceable Locations are points, provider footprints and
//! IP-geolocation uncertainty are circles/polygons, the Ookla open dataset is
//! tiled on a Web-Mercator grid and our hexagonal grid lives on an equal-area
//! cylindrical projection. This crate provides the shared, dependency-free
//! building blocks: geodetic coordinates, great-circle math, bounding boxes,
//! simple polygons and the two map projections.
//!
//! All angles are degrees at the API surface and radians internally; all
//! distances are metres unless a function name says otherwise.

pub mod bbox;
pub mod latlng;
pub mod polygon;
pub mod projection;

pub use bbox::BoundingBox;
pub use latlng::{LatLng, PreparedLatLng};
pub use polygon::Polygon;
pub use projection::{EqualAreaProjection, WebMercator};

/// Mean Earth radius in metres (IUGG mean radius R1).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Earth's surface area in square kilometres, derived from [`EARTH_RADIUS_M`].
pub const EARTH_AREA_KM2: f64 =
    4.0 * std::f64::consts::PI * (EARTH_RADIUS_M / 1000.0) * (EARTH_RADIUS_M / 1000.0);

/// Normalise a longitude in degrees into the interval `[-180, 180)`.
pub fn normalize_lng(lng: f64) -> f64 {
    let mut l = (lng + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

/// Clamp a latitude in degrees into the interval `[-90, 90]`.
pub fn clamp_lat(lat: f64) -> f64 {
    lat.clamp(-90.0, 90.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lng_wraps_east() {
        assert!((normalize_lng(190.0) - (-170.0)).abs() < 1e-9);
    }

    #[test]
    fn normalize_lng_wraps_west() {
        assert!((normalize_lng(-190.0) - 170.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_lng_identity_in_range() {
        assert!((normalize_lng(-77.3) - (-77.3)).abs() < 1e-12);
    }

    #[test]
    fn normalize_lng_boundary() {
        // +180 maps to -180 by convention (half-open interval).
        assert!((normalize_lng(180.0) - (-180.0)).abs() < 1e-9);
    }

    #[test]
    fn clamp_lat_bounds() {
        assert_eq!(clamp_lat(95.0), 90.0);
        assert_eq!(clamp_lat(-95.0), -90.0);
        assert_eq!(clamp_lat(42.0), 42.0);
    }

    #[test]
    fn earth_area_sane() {
        // The textbook value is ~510 million km^2.
        assert!((EARTH_AREA_KM2 - 510_000_000.0).abs() < 1_000_000.0);
    }
}
