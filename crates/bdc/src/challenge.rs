//! The BDC challenge process: outcomes, reasons and per-challenge records.
//!
//! Individuals and organisations can dispute a provider's availability claim.
//! The FCC publishes outcomes monthly; Table 2 of the paper categorises them
//! into five primary outcomes (three successful, two failed) and Table 3 lists
//! the reasons challengers give.

use std::collections::BTreeMap;

use hexgrid::HexCell;
use serde::{Deserialize, Serialize};

use crate::ids::{LocationId, ProviderId};
use crate::tech::Technology;
use crate::time::DayStamp;

/// Primary outcome of a resolved challenge (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChallengeOutcome {
    /// The provider conceded the challenge (successful).
    ProviderConceded,
    /// The provider changed the reported service in response (successful).
    ServiceChanged,
    /// The FCC reviewed evidence and upheld the challenge (successful).
    FccUpheld,
    /// The challenger withdrew the challenge (failed).
    ChallengeWithdrawn,
    /// The FCC reviewed evidence and overturned the challenge (failed).
    FccOverturned,
}

impl ChallengeOutcome {
    /// All outcomes in the order Table 2 lists them.
    pub const ALL: [ChallengeOutcome; 5] = [
        ChallengeOutcome::ProviderConceded,
        ChallengeOutcome::ServiceChanged,
        ChallengeOutcome::FccUpheld,
        ChallengeOutcome::ChallengeWithdrawn,
        ChallengeOutcome::FccOverturned,
    ];

    /// A successful challenge removed or modified the provider's claim,
    /// i.e. the original claim was incorrect.
    pub fn is_successful(&self) -> bool {
        matches!(
            self,
            ChallengeOutcome::ProviderConceded
                | ChallengeOutcome::ServiceChanged
                | ChallengeOutcome::FccUpheld
        )
    }

    /// Challenges adjudicated by the FCC itself (rather than resolved between
    /// the parties); §6.2.1 evaluates on this homogeneous subset separately.
    pub fn is_fcc_adjudicated(&self) -> bool {
        matches!(
            self,
            ChallengeOutcome::FccUpheld | ChallengeOutcome::FccOverturned
        )
    }

    /// Human-readable label matching Table 2.
    pub fn label(&self) -> &'static str {
        match self {
            ChallengeOutcome::ProviderConceded => "Provider Conceded",
            ChallengeOutcome::ServiceChanged => "Service Changed",
            ChallengeOutcome::FccUpheld => "FCC Upheld",
            ChallengeOutcome::ChallengeWithdrawn => "Challenge Withdrawn",
            ChallengeOutcome::FccOverturned => "FCC Overturned",
        }
    }
}

impl std::fmt::Display for ChallengeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Reason the challenger gave for disputing the claim (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChallengeReason {
    /// The reported network infrastructure is not available at the location.
    TechnologyUnavailable,
    /// The provider does not offer the claimed speeds at the location.
    SpeedsUnavailable,
    /// The provider refused a service request.
    ServiceRequestDenied,
    /// No wireless signal at the location.
    NoSignal,
    /// The provider demanded a connection fee above its standard charge.
    HigherConnectionFee,
    /// The provider failed to provide service within ten business days.
    FailedWithinTenDays,
    /// The provider was not ready to serve (awaiting new equipment).
    ProviderNotReady,
    /// The provider failed to install within its own committed timeline.
    FailedInstallTimeline,
}

impl ChallengeReason {
    /// All reasons in Table 3's order (most to least common).
    pub const ALL: [ChallengeReason; 8] = [
        ChallengeReason::TechnologyUnavailable,
        ChallengeReason::SpeedsUnavailable,
        ChallengeReason::ServiceRequestDenied,
        ChallengeReason::NoSignal,
        ChallengeReason::HigherConnectionFee,
        ChallengeReason::FailedWithinTenDays,
        ChallengeReason::ProviderNotReady,
        ChallengeReason::FailedInstallTimeline,
    ];

    /// Human-readable label matching Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            ChallengeReason::TechnologyUnavailable => "Technology Unavailable",
            ChallengeReason::SpeedsUnavailable => "Speed(s) Unavailable",
            ChallengeReason::ServiceRequestDenied => "Service Request Denied",
            ChallengeReason::NoSignal => "No Signal",
            ChallengeReason::HigherConnectionFee => "Asked Higher than Standard Connection Fee",
            ChallengeReason::FailedWithinTenDays => "Failed to Provide Service within 10 Biz-days",
            ChallengeReason::ProviderNotReady => "Provider not Ready",
            ChallengeReason::FailedInstallTimeline => "Failed to Install Service within Timeline",
        }
    }
}

impl std::fmt::Display for ChallengeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One resolved availability challenge against a provider's claim at a BSL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Challenge {
    /// The provider whose claim is disputed.
    pub provider: ProviderId,
    /// The challenged location.
    pub location: LocationId,
    /// The resolution-8 hex the location falls in. The paper treats an entire
    /// hex as challenged when any BSL inside it is.
    pub hex: HexCell,
    /// The technology of the disputed claim.
    pub technology: Technology,
    /// State the location belongs to (drives Figure 2's state breakdown).
    pub state: String,
    /// Reason the challenger gave.
    pub reason: ChallengeReason,
    /// Final outcome.
    pub outcome: ChallengeOutcome,
    /// Day the challenge was filed.
    pub filed: DayStamp,
    /// Day the challenge was resolved.
    pub resolved: DayStamp,
}

impl Challenge {
    /// True when the challenge succeeded, i.e. the provider's original claim
    /// was shown to be incorrect.
    pub fn is_successful(&self) -> bool {
        self.outcome.is_successful()
    }

    /// True when the FCC itself adjudicated the challenge.
    pub fn is_fcc_adjudicated(&self) -> bool {
        self.outcome.is_fcc_adjudicated()
    }

    /// The observation key the challenge maps onto.
    pub fn observation_key(&self) -> (ProviderId, HexCell, Technology) {
        (self.provider, self.hex, self.technology)
    }
}

/// Count challenges by outcome (Table 2's rows).
pub fn outcome_distribution(challenges: &[Challenge]) -> BTreeMap<ChallengeOutcome, usize> {
    let mut out = BTreeMap::new();
    for c in challenges {
        *out.entry(c.outcome).or_insert(0) += 1;
    }
    out
}

/// Count challenges by reason (Table 3's rows).
pub fn reason_distribution(challenges: &[Challenge]) -> BTreeMap<ChallengeReason, usize> {
    let mut out = BTreeMap::new();
    for c in challenges {
        *out.entry(c.reason).or_insert(0) += 1;
    }
    out
}

/// Count challenges by state (Figure 2).
pub fn state_distribution(challenges: &[Challenge]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for c in challenges {
        *out.entry(c.state.clone()).or_insert(0) += 1;
    }
    out
}

/// Fraction of challenges that succeeded.
pub fn success_rate(challenges: &[Challenge]) -> f64 {
    if challenges.is_empty() {
        return 0.0;
    }
    challenges.iter().filter(|c| c.is_successful()).count() as f64 / challenges.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoprim::LatLng;
    use hexgrid::NBM_RESOLUTION;

    fn challenge(outcome: ChallengeOutcome, state: &str) -> Challenge {
        Challenge {
            provider: ProviderId(1),
            location: LocationId(7),
            hex: HexCell::containing(&LatLng::new(37.0, -80.0), NBM_RESOLUTION),
            technology: Technology::Cable,
            state: state.into(),
            reason: ChallengeReason::TechnologyUnavailable,
            outcome,
            filed: DayStamp::from_ymd(2023, 2, 1),
            resolved: DayStamp::from_ymd(2023, 4, 1),
        }
    }

    #[test]
    fn successful_outcomes() {
        assert!(ChallengeOutcome::ProviderConceded.is_successful());
        assert!(ChallengeOutcome::ServiceChanged.is_successful());
        assert!(ChallengeOutcome::FccUpheld.is_successful());
        assert!(!ChallengeOutcome::ChallengeWithdrawn.is_successful());
        assert!(!ChallengeOutcome::FccOverturned.is_successful());
    }

    #[test]
    fn adjudicated_outcomes() {
        let adjudicated: Vec<_> = ChallengeOutcome::ALL
            .iter()
            .filter(|o| o.is_fcc_adjudicated())
            .collect();
        assert_eq!(adjudicated.len(), 2);
    }

    #[test]
    fn distributions_count_correctly() {
        let cs = vec![
            challenge(ChallengeOutcome::ProviderConceded, "NE"),
            challenge(ChallengeOutcome::ProviderConceded, "NE"),
            challenge(ChallengeOutcome::FccOverturned, "VA"),
        ];
        let by_outcome = outcome_distribution(&cs);
        assert_eq!(by_outcome[&ChallengeOutcome::ProviderConceded], 2);
        assert_eq!(by_outcome[&ChallengeOutcome::FccOverturned], 1);
        let by_state = state_distribution(&cs);
        assert_eq!(by_state["NE"], 2);
        assert!((success_rate(&cs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_success_rate_is_zero() {
        assert_eq!(success_rate(&[]), 0.0);
    }

    #[test]
    fn fcc_upheld_is_fcc_adjudicated() {
        let c = challenge(ChallengeOutcome::FccUpheld, "VA");
        assert!(c.is_fcc_adjudicated());
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(ChallengeOutcome::FccUpheld.label(), "FCC Upheld");
        assert_eq!(
            ChallengeReason::TechnologyUnavailable.label(),
            "Technology Unavailable"
        );
        assert_eq!(ChallengeReason::ALL.len(), 8);
    }
}
