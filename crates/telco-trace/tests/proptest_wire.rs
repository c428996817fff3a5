//! Property tests for the civil calendar. (The snapshot wire format's
//! are in `parser_differential.rs`.)

use proptest::prelude::*;
use telco_trace::time::{days_in_month, is_leap, CivilTime, EpochId, EPOCHS_PER_DAY};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn civil_time_is_monotone_and_consistent(epoch in 0u32..(20 * 366 * EPOCHS_PER_DAY)) {
        let id = EpochId(epoch);
        let c = id.civil();
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!((1..=days_in_month(c.year, c.month)).contains(&c.day));
        prop_assert!(c.hour < 24 && c.minute < 60);
        // The compact form parses back to the same civil time.
        prop_assert_eq!(CivilTime::parse_compact(&c.compact()), Some(c));
        // Next epoch never goes backwards.
        let n = EpochId(epoch + 1).civil();
        prop_assert!(n >= c, "{c:?} -> {n:?}");
    }

    #[test]
    fn leap_year_days_sum_correctly(year in 1900u32..2400) {
        let days: u32 = (1..=12).map(|m| days_in_month(year, m)).sum();
        prop_assert_eq!(days, if is_leap(year) { 366 } else { 365 });
    }
}
