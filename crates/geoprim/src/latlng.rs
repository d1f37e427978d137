//! Geodetic coordinates and great-circle math.

use serde::{Deserialize, Serialize};

use crate::{clamp_lat, normalize_lng, EARTH_RADIUS_M};

/// A point on the Earth's surface expressed as latitude/longitude in degrees
/// (WGS-84 datum is assumed but never needed at the precision of this work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLng {
    /// Latitude in degrees, positive north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east, in `[-180, 180)`.
    pub lng: f64,
}

impl LatLng {
    /// Create a coordinate, normalising longitude and clamping latitude.
    pub fn new(lat: f64, lng: f64) -> Self {
        Self {
            lat: clamp_lat(lat),
            lng: normalize_lng(lng),
        }
    }

    /// This point with its haversine trigonometry done: see
    /// [`PreparedLatLng`].
    pub fn prepare(&self) -> PreparedLatLng {
        let lat = self.lat.to_radians();
        PreparedLatLng {
            lat,
            lng: self.lng.to_radians(),
            cos_lat: lat.cos(),
        }
    }

    /// Great-circle distance to `other` in metres: the haversine formula of
    /// [`PreparedLatLng::haversine_m`], over both points prepared here.
    pub fn haversine_m(&self, other: &LatLng) -> f64 {
        self.prepare().haversine_m(&other.prepare())
    }

    /// Great-circle distance to `other` in kilometres.
    pub fn haversine_km(&self, other: &LatLng) -> f64 {
        self.haversine_m(other) / 1000.0
    }

    /// Initial bearing from this point towards `other`, in degrees clockwise
    /// from true north, in `[0, 360)`.
    pub fn bearing_deg(&self, other: &LatLng) -> f64 {
        let (lat1, lng1) = (self.lat.to_radians(), self.lng.to_radians());
        let (lat2, lng2) = (other.lat.to_radians(), other.lng.to_radians());
        let dlng = lng2 - lng1;
        let y = dlng.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlng.cos();
        let b = y.atan2(x).to_degrees();
        (b + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_m` metres from this point on
    /// the initial bearing `bearing_deg` (degrees clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> LatLng {
        let delta = distance_m / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lng1 = self.lng.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lng2 = lng1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        LatLng::new(lat2.to_degrees(), lng2.to_degrees())
    }

    /// Spherical midpoint between this point and `other`.
    pub fn midpoint(&self, other: &LatLng) -> LatLng {
        let lat1 = self.lat.to_radians();
        let lng1 = self.lng.to_radians();
        let lat2 = other.lat.to_radians();
        let dlng = (other.lng - self.lng).to_radians();
        let bx = lat2.cos() * dlng.cos();
        let by = lat2.cos() * dlng.sin();
        let lat3 = (lat1.sin() + lat2.sin()).atan2(((lat1.cos() + bx).powi(2) + by * by).sqrt());
        let lng3 = lng1 + by.atan2(lat1.cos() + bx);
        LatLng::new(lat3.to_degrees(), lng3.to_degrees())
    }

    /// True when both coordinates differ by less than `eps` degrees.
    pub fn approx_eq(&self, other: &LatLng, eps: f64) -> bool {
        (self.lat - other.lat).abs() < eps && (self.lng - other.lng).abs() < eps
    }
}

/// A point prepared for great-circle distances: latitude and longitude in
/// radians and the latitude's cosine, computed once by [`LatLng::prepare`].
///
/// This is the workspace's one haversine formula; [`LatLng::haversine_m`]
/// prepares both points and calls it. A caller that measures many distances
/// between the same points (a footprint's centroids against a test centre)
/// prepares each point once and gets the same bits as `LatLng::haversine_m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedLatLng {
    lat: f64,
    lng: f64,
    cos_lat: f64,
}

impl PreparedLatLng {
    /// Great-circle distance to `other` in metres (haversine formula).
    pub fn haversine_m(&self, other: &PreparedLatLng) -> f64 {
        let dlat = other.lat - self.lat;
        let dlng = other.lng - self.lng;
        let a =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlng / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Great-circle distance to `other` in kilometres.
    pub fn haversine_km(&self, other: &PreparedLatLng) -> f64 {
        self.haversine_m(other) / 1000.0
    }
}

impl std::fmt::Display for LatLng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blacksburg() -> LatLng {
        LatLng::new(37.2296, -80.4139)
    }

    fn madrid() -> LatLng {
        LatLng::new(40.4168, -3.7038)
    }

    /// The haversine formula as it stood before [`PreparedLatLng`], kept
    /// verbatim as the oracle for the prepared form.
    fn haversine_m_oracle(a: &LatLng, b: &LatLng) -> f64 {
        let (lat1, lng1) = (a.lat.to_radians(), a.lng.to_radians());
        let (lat2, lng2) = (b.lat.to_radians(), b.lng.to_radians());
        let dlat = lat2 - lat1;
        let dlng = lng2 - lng1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// `LatLng::haversine_m` and the prepared form return the oracle's bits
    /// on 1.05M seeded pairs: uniform over the sphere, within 0.5° of each
    /// other, identical, at a pole, and across the antimeridian.
    #[test]
    fn prepared_haversine_matches_the_oracle_bit_for_bit() {
        // A seeded SplitMix64 stream of uniforms in [0, 1).
        let mut state = 0x4A7E_5135u64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        };
        // Uniform over the sphere: latitude by inverse sine.
        fn globe(u: &mut impl FnMut() -> f64) -> LatLng {
            LatLng::new((2.0 * u() - 1.0).asin().to_degrees(), 360.0 * u() - 180.0)
        }
        const PER_KIND: usize = 210_000;
        for kind in 0..5 {
            for _ in 0..PER_KIND {
                let (a, b) = match kind {
                    0 => (globe(&mut uniform), globe(&mut uniform)),
                    1 => {
                        let a = globe(&mut uniform);
                        let b = LatLng::new(a.lat + uniform() - 0.5, a.lng + uniform() - 0.5);
                        (a, b)
                    }
                    2 => {
                        let a = globe(&mut uniform);
                        (a, a)
                    }
                    3 => {
                        let pole = if uniform() < 0.5 { 90.0 } else { -90.0 };
                        let a = LatLng::new(pole, 360.0 * uniform() - 180.0);
                        let b = if uniform() < 0.25 {
                            LatLng::new(-pole, 360.0 * uniform() - 180.0)
                        } else {
                            globe(&mut uniform)
                        };
                        (a, b)
                    }
                    _ => (
                        LatLng::new(180.0 * uniform() - 90.0, 179.5 + 0.5 * uniform()),
                        LatLng::new(180.0 * uniform() - 90.0, -180.0 + 0.5 * uniform()),
                    ),
                };
                let want = haversine_m_oracle(&a, &b).to_bits();
                assert_eq!(a.haversine_m(&b).to_bits(), want, "{a} -> {b}");
                let (pa, pb) = (a.prepare(), b.prepare());
                assert_eq!(pa.haversine_m(&pb).to_bits(), want, "{a} -> {b}");
                assert_eq!(
                    pa.haversine_km(&pb).to_bits(),
                    a.haversine_km(&b).to_bits(),
                    "{a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = blacksburg();
        assert!(p.haversine_m(&p) < 1e-6);
    }

    #[test]
    fn haversine_blacksburg_to_madrid() {
        // Roughly 6,400-6,500 km (IMC 2024 venue!). Allow slack for the
        // spherical approximation.
        let d = blacksburg().haversine_km(&madrid());
        assert!((6300.0..6600.0).contains(&d), "distance was {d} km");
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = blacksburg();
        let b = madrid();
        assert!((a.haversine_m(&b) - b.haversine_m(&a)).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trip() {
        let start = blacksburg();
        let dest = start.destination(73.0, 12_345.0);
        assert!((start.haversine_m(&dest) - 12_345.0).abs() < 1.0);
    }

    #[test]
    fn bearing_due_north() {
        let a = LatLng::new(10.0, 20.0);
        let b = LatLng::new(11.0, 20.0);
        assert!(a.bearing_deg(&b).abs() < 1e-6);
    }

    #[test]
    fn bearing_due_east_near_equator() {
        let a = LatLng::new(0.0, 20.0);
        let b = LatLng::new(0.0, 21.0);
        assert!((a.bearing_deg(&b) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn midpoint_lies_between() {
        let a = blacksburg();
        let b = madrid();
        let m = a.midpoint(&b);
        let total = a.haversine_m(&b);
        let via = a.haversine_m(&m) + m.haversine_m(&b);
        assert!((via - total).abs() < 1.0);
    }

    #[test]
    fn constructor_normalises() {
        let p = LatLng::new(95.0, 200.0);
        assert_eq!(p.lat, 90.0);
        assert!((p.lng - (-160.0)).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        let p = LatLng::new(1.0, 2.0);
        assert_eq!(format!("{p}"), "(1.000000, 2.000000)");
    }
}
