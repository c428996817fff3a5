//! Civil time for the trace: 30-minute ingestion epochs, day periods and
//! weekdays, anchored at the paper's trace start (January 2016).
//!
//! The paper partitions its week-long trace two ways (§VII-C):
//! * by *day period* — Morning 05:00–12:00, Afternoon 12:00–17:00,
//!   Evening 17:00–21:00, Night 21:00–05:00 (Figs. 7–8);
//! * by *weekday* — Monday through Sunday (Figs. 9–10).

/// Minutes per ingestion cycle ("epoch"): snapshots arrive every 30 minutes.
pub const EPOCH_MINUTES: u32 = 30;
/// 48 snapshots per day.
pub const EPOCHS_PER_DAY: u32 = 24 * 60 / EPOCH_MINUTES;

/// The trace timeline starts Monday 2016-01-18 00:00 (the paper's trace was
/// collected in January 2016; starting on a Monday makes weekday partitions
/// align with whole trace days).
pub const TRACE_START_YEAR: u32 = 2016;
pub const TRACE_START_MONTH: u32 = 1;
pub const TRACE_START_DAY: u32 = 18;

/// Index of a 30-minute ingestion cycle since the trace start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(pub u32);

/// The paper's four day-period partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DayPeriod {
    /// 05:00 – 12:00
    Morning,
    /// 12:00 – 17:00
    Afternoon,
    /// 17:00 – 21:00
    Evening,
    /// 21:00 – 05:00
    Night,
}

impl DayPeriod {
    pub const ALL: [DayPeriod; 4] = [
        DayPeriod::Morning,
        DayPeriod::Afternoon,
        DayPeriod::Evening,
        DayPeriod::Night,
    ];

    pub fn label(self) -> &'static str {
        match self {
            DayPeriod::Morning => "Morning",
            DayPeriod::Afternoon => "Afternoon",
            DayPeriod::Evening => "Evening",
            DayPeriod::Night => "Night",
        }
    }

    /// Classify an hour of day (0–23).
    pub fn of_hour(hour: u32) -> Self {
        match hour {
            5..=11 => DayPeriod::Morning,
            12..=16 => DayPeriod::Afternoon,
            17..=20 => DayPeriod::Evening,
            _ => DayPeriod::Night,
        }
    }
}

/// Days of the week, Monday first (paper Figs. 9–10 order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weekday {
    Mon,
    Tue,
    Wed,
    Thu,
    Fri,
    Sat,
    Sun,
}

impl Weekday {
    pub const ALL: [Weekday; 7] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
        Weekday::Sun,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
            Weekday::Sun => "Sun",
        }
    }

    fn from_index(i: u32) -> Self {
        Self::ALL[(i % 7) as usize]
    }
}

/// Gregorian leap-year rule.
pub fn is_leap(year: u32) -> bool {
    (year.is_multiple_of(4) && !year.is_multiple_of(100)) || year.is_multiple_of(400)
}

/// Days in a civil month.
pub fn days_in_month(year: u32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month {month}"),
    }
}

/// The day index of the first of `month` (1–12) in `year`, negative
/// before the trace start: the inverse of [`EpochId::civil`] at month
/// resolution.
pub fn month_start_day(year: u32, month: u32) -> i64 {
    days_from_origin(year, month)
        - days_from_origin(TRACE_START_YEAR, TRACE_START_MONTH)
        - i64::from(TRACE_START_DAY - 1)
}

/// Days from 1 January of the proleptic Gregorian year 0 to the first of
/// `month` (1–12) in `year`.
fn days_from_origin(year: u32, month: u32) -> i64 {
    let y = i64::from(year);
    let leap_years_before = (y + 3) / 4 - (y + 99) / 100 + (y + 399) / 400;
    let months: i64 = (1..month).map(|m| i64::from(days_in_month(year, m))).sum();
    365 * y + leap_years_before + months
}

/// A broken-down civil timestamp within the trace calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilTime {
    pub year: u32,
    pub month: u32,
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
}

impl CivilTime {
    /// Compact `YYYYMMDDhhmm` form, the timestamp format the paper's task
    /// queries use (e.g. `ts="201601221530"`).
    pub fn compact(&self) -> String {
        format!(
            "{:04}{:02}{:02}{:02}{:02}",
            self.year, self.month, self.day, self.hour, self.minute
        )
    }

    /// Parse a compact timestamp. Accepts prefixes (`"2016"`, `"201601"`,
    /// …), filling missing fields with their minimum — handy for range
    /// predicates like `ts >= "2015"`.
    pub fn parse_compact(s: &str) -> Option<Self> {
        if s.is_empty() || s.len() > 12 || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let field = |range: std::ops::Range<usize>, default: u32| -> u32 {
            if s.len() >= range.end {
                s[range].parse().unwrap_or(default)
            } else {
                default
            }
        };
        Some(Self {
            year: field(0..4, 0),
            month: field(4..6, 1),
            day: field(6..8, 1),
            hour: field(8..10, 0),
            minute: field(10..12, 0),
        })
    }
}

impl EpochId {
    /// Day index since trace start.
    pub fn day_index(self) -> u32 {
        self.0 / EPOCHS_PER_DAY
    }

    /// Epoch within its day (0–47).
    pub fn epoch_in_day(self) -> u32 {
        self.0 % EPOCHS_PER_DAY
    }

    pub fn hour(self) -> u32 {
        self.epoch_in_day() * EPOCH_MINUTES / 60
    }

    pub fn minute(self) -> u32 {
        self.epoch_in_day() * EPOCH_MINUTES % 60
    }

    pub fn day_period(self) -> DayPeriod {
        DayPeriod::of_hour(self.hour())
    }

    /// The trace starts on a Monday, so weekday is just day-index mod 7.
    pub fn weekday(self) -> Weekday {
        Weekday::from_index(self.day_index())
    }

    /// Civil timestamp of the epoch's start: the day's date in closed
    /// form, from the same proleptic-Gregorian day count as
    /// [`month_start_day`], counted in years that start on 1 March so that
    /// the leap day ends each one.
    pub fn civil(self) -> CivilTime {
        // 0000-03-01 is day 60 of year 0, a leap year.
        let start =
            days_from_origin(TRACE_START_YEAR, TRACE_START_MONTH) + i64::from(TRACE_START_DAY - 1);
        let days = start - 60 + i64::from(self.day_index());
        // 146 097 days to 400 years; 36 524 to a century but the fourth;
        // 1 460 to four years.
        let (era, day_of_era) = (days / 146_097, days % 146_097);
        let year_of_era =
            (day_of_era - day_of_era / 1460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
        let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
        // Months from March: 31, 30, 31, 30, 31 days, and again.
        let march_month = (5 * day_of_year + 2) / 153;
        let day = day_of_year - (153 * march_month + 2) / 5 + 1;
        let month = if march_month < 10 {
            march_month + 3
        } else {
            march_month - 9
        };
        let year = era * 400 + year_of_era + i64::from(month <= 2);
        CivilTime {
            year: year as u32,
            month: month as u32,
            day: day as u32,
            hour: self.hour(),
            minute: self.minute(),
        }
    }

    /// Minutes since the trace start.
    pub fn start_minutes(self) -> u64 {
        u64::from(self.0) * u64::from(EPOCH_MINUTES)
    }

    /// The epoch covering a given minute offset from trace start.
    pub fn from_minutes(minutes: u64) -> Self {
        EpochId((minutes / u64::from(EPOCH_MINUTES)) as u32)
    }

    /// The file of this epoch in a warehouse's temporal hierarchy (§IV):
    /// `<root>/<yyyy>/<mm>/<dd>/<epoch:010><suffix>`. Every file a store
    /// keeps per epoch is filed by this one rule.
    pub fn leaf_path(self, root: &str, suffix: &str) -> String {
        let c = self.civil();
        let (y, m, d, e) = (c.year, c.month, c.day, self.0);
        format!("{root}/{y:04}/{m:02}/{d:02}/{e:010}{suffix}")
    }

    /// The inverse of [`Self::leaf_path`] under any root: the epoch whose
    /// `suffix` file `path` is, or `None`.
    pub fn of_leaf_path(path: &str, suffix: &str) -> Option<EpochId> {
        let name = path.rsplit('/').next()?.strip_suffix(suffix)?;
        let digits = name.len() == 10 && name.bytes().all(|b| b.is_ascii_digit());
        let epoch = EpochId(name.parse().ok().filter(|_| digits)?);
        path.ends_with(&epoch.leaf_path("", suffix))
            .then_some(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_period_boundaries_match_the_paper() {
        assert_eq!(DayPeriod::of_hour(5), DayPeriod::Morning);
        assert_eq!(DayPeriod::of_hour(11), DayPeriod::Morning);
        assert_eq!(DayPeriod::of_hour(12), DayPeriod::Afternoon);
        assert_eq!(DayPeriod::of_hour(16), DayPeriod::Afternoon);
        assert_eq!(DayPeriod::of_hour(17), DayPeriod::Evening);
        assert_eq!(DayPeriod::of_hour(20), DayPeriod::Evening);
        assert_eq!(DayPeriod::of_hour(21), DayPeriod::Night);
        assert_eq!(DayPeriod::of_hour(0), DayPeriod::Night);
        assert_eq!(DayPeriod::of_hour(4), DayPeriod::Night);
    }

    #[test]
    fn period_epoch_counts_per_day() {
        // 14 morning + 10 afternoon + 8 evening + 16 night = 48 epochs.
        let mut counts = [0u32; 4];
        for e in 0..EPOCHS_PER_DAY {
            let p = EpochId(e).day_period();
            counts[DayPeriod::ALL.iter().position(|&q| q == p).unwrap()] += 1;
        }
        assert_eq!(counts, [14, 10, 8, 16]);
    }

    #[test]
    fn weekdays_cycle_from_monday() {
        assert_eq!(EpochId(0).weekday(), Weekday::Mon);
        assert_eq!(EpochId(EPOCHS_PER_DAY - 1).weekday(), Weekday::Mon);
        assert_eq!(EpochId(EPOCHS_PER_DAY).weekday(), Weekday::Tue);
        assert_eq!(EpochId(6 * EPOCHS_PER_DAY).weekday(), Weekday::Sun);
        assert_eq!(EpochId(7 * EPOCHS_PER_DAY).weekday(), Weekday::Mon);
    }

    #[test]
    fn civil_time_advances_across_months_and_years() {
        let start = EpochId(0).civil();
        assert_eq!((start.year, start.month, start.day), (2016, 1, 18));
        assert_eq!((start.hour, start.minute), (0, 0));

        // 14 days later: Feb 1.
        let feb = EpochId(14 * EPOCHS_PER_DAY).civil();
        assert_eq!((feb.year, feb.month, feb.day), (2016, 2, 1));

        // 2016 is a leap year: Jan 18 + 42 days = Feb 29.
        let leap = EpochId(42 * EPOCHS_PER_DAY).civil();
        assert_eq!((leap.year, leap.month, leap.day), (2016, 2, 29));

        // 366 days later lands on Jan 18, 2017.
        let next_year = EpochId(366 * EPOCHS_PER_DAY).civil();
        assert_eq!(
            (next_year.year, next_year.month, next_year.day),
            (2017, 1, 18)
        );
    }

    #[test]
    fn compact_format_and_parse() {
        let e = EpochId(31); // day 0, epoch 31 → 15:30
        let c = e.civil();
        assert_eq!(c.compact(), "201601181530");
        assert_eq!(CivilTime::parse_compact("201601181530"), Some(c));
        // Prefix parsing fills minima.
        let y = CivilTime::parse_compact("2016").unwrap();
        assert_eq!(
            (y.year, y.month, y.day, y.hour, y.minute),
            (2016, 1, 1, 0, 0)
        );
        assert!(CivilTime::parse_compact("20x6").is_none());
        assert!(CivilTime::parse_compact("").is_none());
    }

    #[test]
    fn minutes_round_trip() {
        for e in [0u32, 1, 47, 48, 12345] {
            let id = EpochId(e);
            assert_eq!(EpochId::from_minutes(id.start_minutes()), id);
            assert_eq!(EpochId::from_minutes(id.start_minutes() + 29), id);
            assert_ne!(EpochId::from_minutes(id.start_minutes() + 30), id);
        }
    }

    #[test]
    fn leaf_paths_follow_the_temporal_hierarchy_and_read_back() {
        // Epoch 31 on day 0 → 2016-01-18; day 14 → 2016-02-01.
        assert_eq!(
            EpochId(31).leaf_path("/spate", ".snap"),
            "/spate/2016/01/18/0000000031.snap"
        );
        assert_eq!(
            EpochId(14 * EPOCHS_PER_DAY).leaf_path("/cas", ".pk"),
            "/cas/2016/02/01/0000000672.pk"
        );
        for e in [0u32, 31, 48, 672, 366 * EPOCHS_PER_DAY + 5] {
            for suffix in [".snap", ".mf", ".pk"] {
                let path = EpochId(e).leaf_path("/a/b", suffix);
                assert_eq!(EpochId::of_leaf_path(&path, suffix), Some(EpochId(e)));
            }
        }
        let not_a_leaf = [
            "/spate/2016/01/18/0000000031.snap.tmp",
            "/spate/2016/01/18/0000000031.mf",
            "/spate/2016/01/19/0000000031.snap",
            "/spate/2016/01/18/31.snap",
            "/spate/2016/01/18/+000000031.snap",
            "/spate/_index.img",
            "0000000031.snap",
        ];
        for path in not_a_leaf {
            assert_eq!(EpochId::of_leaf_path(path, ".snap"), None, "{path}");
        }
    }

    /// The calendar walked one day at a time from the trace start: what
    /// `civil` computed before it was closed-form.
    fn next_day((year, month, day): (u32, u32, u32)) -> (u32, u32, u32) {
        if day < days_in_month(year, month) {
            (year, month, day + 1)
        } else if month == 12 {
            (year + 1, 1, 1)
        } else {
            (year, month + 1, 1)
        }
    }

    fn civil_by_walk(day_index: u32) -> (u32, u32, u32) {
        let start = (TRACE_START_YEAR, TRACE_START_MONTH, TRACE_START_DAY);
        (0..day_index).fold(start, |date, _| next_day(date))
    }

    /// Every day of the first 40 001, and both sides of every month
    /// boundary among them, against the walk.
    #[test]
    fn closed_form_civil_equals_the_walk() {
        let date = |day: u32| {
            let c = EpochId(day * EPOCHS_PER_DAY + 47).civil();
            assert_eq!((c.hour, c.minute), (23, 30));
            (c.year, c.month, c.day)
        };
        let mut walked = civil_by_walk(0);
        let mut boundaries = 0;
        for day in 0..=40_000 {
            assert_eq!(date(day), walked, "day {day}");
            let next = next_day(walked);
            if next.2 == 1 {
                assert_eq!((date(day), date(day + 1)), (walked, next), "day {day}");
                boundaries += 1;
            }
            walked = next;
        }
        assert_eq!(boundaries, 1314, "months in 40 001 days");
        for day in [0, 13, 14, 365, 3_650, 36_500] {
            assert_eq!(date(day), civil_by_walk(day), "day {day}");
        }
        assert_eq!(date(40_000), (2125, 7, 25));
    }

    #[test]
    fn month_start_day_inverts_civil() {
        assert_eq!(month_start_day(2016, 1), -17);
        assert_eq!(month_start_day(2016, 2), 14);
        for day in 0..1500 {
            let c = EpochId(day * EPOCHS_PER_DAY).civil();
            let back = month_start_day(c.year, c.month) + i64::from(c.day) - 1;
            assert_eq!(back, i64::from(day), "{c:?}");
        }
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2016));
        assert!(!is_leap(2017));
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
    }
}
