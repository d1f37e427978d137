//! A minimal calendar for the BDC timeline.
//!
//! The pipeline only needs to order events (filings, releases, challenges,
//! speed tests) and bucket them by month, so dates are represented as whole
//! days since 2021-01-01 — early enough to cover the October 2021 start of the
//! paper's speed-test window.

use serde::{Deserialize, Serialize};

/// Days in each month of a non-leap year (2021-2023 are non-leap).
const DAYS_PER_MONTH: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A day counted from 2021-01-01 (day 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct DayStamp(pub u32);

impl DayStamp {
    /// Construct from a calendar date. Years before 2021 clamp to day 0;
    /// out-of-range months/days are clamped into range.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        let years = (year - 2021).max(0) as u32;
        let month = month.clamp(1, 12);
        let mut days = years * 365;
        days += DAYS_PER_MONTH[..(month - 1) as usize].iter().sum::<u32>();
        let dim = DAYS_PER_MONTH[(month - 1) as usize];
        days += day.clamp(1, dim) - 1;
        DayStamp(days)
    }

    /// The BDC's first filing deadline: deployments as of 2022-06-30.
    pub fn initial_filing_deadline() -> Self {
        DayStamp::from_ymd(2022, 6, 30)
    }

    /// The initial public release of the National Broadband Map (Nov 2022).
    pub fn initial_nbm_release() -> Self {
        DayStamp::from_ymd(2022, 11, 18)
    }

    /// Raw day count since 2021-01-01.
    pub fn days(&self) -> u32 {
        self.0
    }

    /// `(year, month)` of this day, for monthly bucketing of challenge
    /// outcomes (the FCC publishes them monthly).
    pub fn year_month(&self) -> (i32, u32) {
        let mut remaining = self.0;
        let mut year = 2021;
        loop {
            if remaining < 365 {
                break;
            }
            remaining -= 365;
            year += 1;
        }
        let mut month = 1;
        for (i, dim) in DAYS_PER_MONTH.iter().enumerate() {
            if remaining < *dim {
                month = i as u32 + 1;
                break;
            }
            remaining -= dim;
            month = i as u32 + 2;
        }
        (year, month.min(12))
    }

    /// The stamp `n` days later.
    pub fn plus_days(&self, n: u32) -> DayStamp {
        DayStamp(self.0 + n)
    }
}

impl std::fmt::Display for DayStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, m) = self.year_month();
        write!(f, "{y}-{m:02} (day {})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(DayStamp::from_ymd(2021, 1, 1).days(), 0);
    }

    #[test]
    fn known_dates() {
        assert_eq!(DayStamp::from_ymd(2021, 2, 1).days(), 31);
        assert_eq!(DayStamp::from_ymd(2022, 1, 1).days(), 365);
        assert_eq!(DayStamp::from_ymd(2022, 6, 30).days(), 545);
        assert_eq!(DayStamp::from_ymd(2023, 1, 1).days(), 730);
    }

    #[test]
    fn year_month_round_trip() {
        for (y, m) in [
            (2021, 10),
            (2022, 1),
            (2022, 6),
            (2022, 12),
            (2023, 2),
            (2023, 11),
        ] {
            let d = DayStamp::from_ymd(y, m, 15);
            assert_eq!(d.year_month(), (y, m), "date {y}-{m}");
        }
    }

    #[test]
    fn ordering_and_difference() {
        let filing = DayStamp::initial_filing_deadline();
        let release = DayStamp::initial_nbm_release();
        assert!(filing < release);
        // The NBM appeared roughly 4-5 months after the filing deadline.
        let gap = release.days() - filing.days();
        assert!((120..165).contains(&gap), "gap {gap}");
    }

    #[test]
    fn plus_days_advances() {
        let d = DayStamp::from_ymd(2022, 11, 18).plus_days(14);
        assert_eq!(d.year_month(), (2022, 12));
    }

    #[test]
    fn clamps_out_of_range_input() {
        assert_eq!(DayStamp::from_ymd(2019, 1, 1).days(), 0);
        assert_eq!(DayStamp::from_ymd(2022, 13, 1).year_month(), (2022, 12));
    }
}
