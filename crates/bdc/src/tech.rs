//! Broadband access technologies as reported in BDC filings.

use serde::{Deserialize, Serialize};

/// Access technology categories used by the BDC, with the FCC's numeric
/// technology codes. The full BDC fixed-broadband code table is carried
/// (0/10/40/50/60/61/70/71/72) so real CSV rows map without a lossy shim;
/// the paper's Table 7 breaks results down by the five terrestrial
/// technologies it models (codes 10/40/50/70/71, see [`Technology::TERRESTRIAL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Technology {
    /// Copper (DSL) — code 10.
    Copper,
    /// Hybrid-fibre coax cable — code 40.
    Cable,
    /// Fibre to the premises — code 50.
    Fiber,
    /// Geostationary satellite — code 60.
    GsoSatellite,
    /// Non-geostationary satellite — code 61.
    NgsoSatellite,
    /// Unlicensed fixed wireless — code 70.
    UnlicensedFixedWireless,
    /// Licensed fixed wireless — code 71.
    LicensedFixedWireless,
    /// Licensed-by-rule fixed wireless (CBRS etc.) — code 72.
    ///
    /// Appended after the original seven so existing claim-key orderings
    /// (which sort by variant position) are untouched.
    LicensedByRuleFixedWireless,
    /// Other technology — code 0.
    Other,
}

impl Technology {
    /// All technology categories.
    pub const ALL: [Technology; 9] = [
        Technology::Copper,
        Technology::Cable,
        Technology::Fiber,
        Technology::GsoSatellite,
        Technology::NgsoSatellite,
        Technology::UnlicensedFixedWireless,
        Technology::LicensedFixedWireless,
        Technology::LicensedByRuleFixedWireless,
        Technology::Other,
    ];

    /// The terrestrial technologies considered by the model (satellite
    /// providers are excluded from the paper's observations, §5.1; the
    /// long-tail codes 72 and 0 are ingested but not modelled in Table 7).
    pub const TERRESTRIAL: [Technology; 5] = [
        Technology::Copper,
        Technology::Cable,
        Technology::Fiber,
        Technology::UnlicensedFixedWireless,
        Technology::LicensedFixedWireless,
    ];

    /// The FCC technology code.
    pub fn code(&self) -> u8 {
        match self {
            Technology::Copper => 10,
            Technology::Cable => 40,
            Technology::Fiber => 50,
            Technology::GsoSatellite => 60,
            Technology::NgsoSatellite => 61,
            Technology::UnlicensedFixedWireless => 70,
            Technology::LicensedFixedWireless => 71,
            Technology::LicensedByRuleFixedWireless => 72,
            Technology::Other => 0,
        }
    }

    /// Look a technology up by its FCC code.
    pub fn from_code(code: u8) -> Option<Technology> {
        Technology::ALL.iter().copied().find(|t| t.code() == code)
    }

    /// True for technologies delivered by terrestrial infrastructure.
    pub fn is_terrestrial(&self) -> bool {
        !matches!(self, Technology::GsoSatellite | Technology::NgsoSatellite)
    }

    /// Short label used in tables (matches the paper's Table 7 labels).
    pub fn label(&self) -> &'static str {
        match self {
            Technology::Copper => "Copper (10)",
            Technology::Cable => "Cable (40)",
            Technology::Fiber => "Fiber (50)",
            Technology::GsoSatellite => "GSO Satellite (60)",
            Technology::NgsoSatellite => "NGSO Satellite (61)",
            Technology::UnlicensedFixedWireless => "ULFW (70)",
            Technology::LicensedFixedWireless => "LFW (71)",
            Technology::LicensedByRuleFixedWireless => "LBR FW (72)",
            Technology::Other => "Other (0)",
        }
    }

    /// Typical maximum advertised download speed in Mbps for the technology,
    /// used by the synthetic generator to draw plausible speed tiers.
    pub fn typical_max_down_mbps(&self) -> f64 {
        match self {
            Technology::Copper => 100.0,
            Technology::Cable => 1200.0,
            Technology::Fiber => 5000.0,
            Technology::GsoSatellite => 100.0,
            Technology::NgsoSatellite => 250.0,
            Technology::UnlicensedFixedWireless => 100.0,
            Technology::LicensedFixedWireless => 300.0,
            Technology::LicensedByRuleFixedWireless => 100.0,
            Technology::Other => 50.0,
        }
    }
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for t in Technology::ALL {
            assert_eq!(Technology::from_code(t.code()), Some(t));
        }
    }

    #[test]
    fn unknown_code_rejected() {
        assert_eq!(Technology::from_code(99), None);
        assert_eq!(Technology::from_code(1), None);
        assert_eq!(Technology::from_code(73), None);
    }

    #[test]
    fn real_bdc_codes_present() {
        assert_eq!(
            Technology::from_code(72),
            Some(Technology::LicensedByRuleFixedWireless)
        );
        assert_eq!(Technology::from_code(0), Some(Technology::Other));
        assert_eq!(Technology::LicensedByRuleFixedWireless.code(), 72);
        assert_eq!(Technology::Other.code(), 0);
    }

    #[test]
    fn codes_are_distinct() {
        let mut codes: Vec<u8> = Technology::ALL.iter().map(|t| t.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Technology::ALL.len());
    }

    #[test]
    fn terrestrial_partition() {
        let terrestrial: Vec<_> = Technology::ALL
            .iter()
            .filter(|t| t.is_terrestrial())
            .collect();
        // All non-satellite codes are terrestrial (7 of 9); the model's
        // TERRESTRIAL set is the paper's five-technology subset of them.
        assert_eq!(terrestrial.len(), Technology::ALL.len() - 2);
        for t in Technology::TERRESTRIAL {
            assert!(t.is_terrestrial());
        }
        assert!(!Technology::GsoSatellite.is_terrestrial());
        assert!(!Technology::NgsoSatellite.is_terrestrial());
        assert!(Technology::Fiber.is_terrestrial());
        assert!(Technology::LicensedByRuleFixedWireless.is_terrestrial());
        assert!(Technology::Other.is_terrestrial());
    }

    #[test]
    fn labels_contain_codes() {
        assert!(Technology::LicensedFixedWireless.label().contains("71"));
        assert!(Technology::LicensedByRuleFixedWireless
            .label()
            .contains("72"));
        assert!(Technology::Copper.label().contains("10"));
        assert!(Technology::Other.label().contains('0'));
    }

    #[test]
    fn fiber_fastest_typical_speed() {
        let max = Technology::ALL
            .iter()
            .map(|t| t.typical_max_down_mbps())
            .fold(f64::MIN, f64::max);
        assert_eq!(max, Technology::Fiber.typical_max_down_mbps());
    }
}
