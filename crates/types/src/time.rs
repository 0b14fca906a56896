//! Time: millisecond-epoch timestamps, half-open ranges, and the paper's
//! repeated-time privacy-rule condition.
//!
//! The paper's Table 1 time conditions are either a continuous range
//! ("from Feb. 2011 to Mar. 2011") or a repeated window ("3–6pm on every
//! Wednesday"). Repeated windows need a civil-time view of a timestamp
//! (weekday, hour, minute); we derive that from the epoch directly rather
//! than pulling in a date-time crate. All civil math is in UTC — the
//! simulator and the rules agree on the zone, which is what matters for
//! reproducing the paper's semantics.

/// Milliseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

pub(crate) const MS_PER_SEC: i64 = 1_000;
pub(crate) const MS_PER_MIN: i64 = 60 * MS_PER_SEC;
pub(crate) const MS_PER_HOUR: i64 = 60 * MS_PER_MIN;
pub(crate) const MS_PER_DAY: i64 = 24 * MS_PER_HOUR;

impl Timestamp {
    /// Constructs from milliseconds since the epoch.
    pub fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// The raw millisecond value.
    pub fn millis(self) -> i64 {
        self.0
    }

    /// Adds a (possibly fractional) number of seconds.
    pub fn plus_secs_f64(self, secs: f64) -> Timestamp {
        Timestamp(self.0 + (secs * 1_000.0).round() as i64)
    }

    /// Adds whole milliseconds.
    pub fn plus_millis(self, ms: i64) -> Timestamp {
        Timestamp(self.0 + ms)
    }

    /// Difference `self - other` in milliseconds.
    pub fn delta_millis(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }

    /// The weekday of this instant (UTC). The Unix epoch (1970-01-01) was
    /// a Thursday.
    pub fn weekday(self) -> Weekday {
        let days = self.0.div_euclid(MS_PER_DAY);
        // Thursday is day 0 of the epoch; index into a Mon-based week.
        let idx = (days + 3).rem_euclid(7); // 0 = Monday
        Weekday::from_index(idx as u8).expect("rem_euclid(7) is in 0..7")
    }

    /// The time of day (UTC) of this instant.
    pub fn time_of_day(self) -> TimeOfDay {
        let ms = self.0.rem_euclid(MS_PER_DAY);
        TimeOfDay {
            hour: (ms / MS_PER_HOUR) as u8,
            minute: ((ms % MS_PER_HOUR) / MS_PER_MIN) as u8,
        }
    }

    /// Truncates to midnight (UTC) of the same day.
    pub fn start_of_day(self) -> Timestamp {
        Timestamp(self.0.div_euclid(MS_PER_DAY) * MS_PER_DAY)
    }

    /// Truncates to a multiple of `granularity_ms` — the time-abstraction
    /// ladder of Table 1(b) (hour / day / month / year buckets).
    pub fn truncate_to(self, granularity_ms: i64) -> Timestamp {
        assert!(granularity_ms > 0, "granularity must be positive");
        Timestamp(self.0.div_euclid(granularity_ms) * granularity_ms)
    }

    /// The proleptic-Gregorian civil date (year, month 1..=12, day 1..=31)
    /// of this instant in UTC. Uses Howard Hinnant's `civil_from_days`
    /// algorithm.
    pub fn civil_date(self) -> (i32, u8, u8) {
        let z = self.0.div_euclid(MS_PER_DAY) + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // day of era [0, 146096]
        let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    /// Midnight UTC of the given civil date (`days_from_civil`).
    pub fn from_civil(year: i32, month: u8, day: u8) -> Timestamp {
        assert!((1..=12).contains(&month), "month out of range");
        assert!((1..=31).contains(&day), "day out of range");
        let y = if month <= 2 {
            year as i64 - 1
        } else {
            year as i64
        };
        let era = y.div_euclid(400);
        let yoe = y.rem_euclid(400);
        let mp = if month > 2 {
            month as i64 - 3
        } else {
            month as i64 + 9
        };
        let doy = (153 * mp + 2) / 5 + day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        let days = era * 146_097 + doe - 719_468;
        Timestamp(days * MS_PER_DAY)
    }

    /// Truncates to the first instant of this instant's UTC month.
    pub fn start_of_month(self) -> Timestamp {
        let (y, m, _) = self.civil_date();
        Timestamp::from_civil(y, m, 1)
    }

    /// Truncates to the first instant of this instant's UTC year.
    pub fn start_of_year(self) -> Timestamp {
        let (y, _, _) = self.civil_date();
        Timestamp::from_civil(y, 1, 1)
    }
}

/// A day of the week (paper's repeat-time "Day" attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weekday {
    /// Monday
    Mon,
    /// Tuesday
    Tue,
    /// Wednesday
    Wed,
    /// Thursday
    Thu,
    /// Friday
    Fri,
    /// Saturday
    Sat,
    /// Sunday
    Sun,
}

impl Weekday {
    /// All weekdays Monday-first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
        Weekday::Sun,
    ];

    /// Monday–Friday, the paper's Fig. 4 "Weekdays".
    pub const WORKDAYS: [Weekday; 5] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
    ];

    /// From a Monday-based index 0..7.
    pub fn from_index(idx: u8) -> Option<Weekday> {
        Weekday::ALL.get(idx as usize).copied()
    }

    /// The three-letter wire name used in rule JSON (`"Mon"`, … Fig. 4).
    pub fn as_str(self) -> &'static str {
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

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Weekday> {
        Weekday::ALL.iter().copied().find(|d| d.as_str() == s)
    }
}

/// A wall-clock time of day (UTC), minute resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeOfDay {
    /// 0..24
    pub hour: u8,
    /// 0..60
    pub minute: u8,
}

impl TimeOfDay {
    /// Constructs, panicking on out-of-range components.
    pub fn new(hour: u8, minute: u8) -> TimeOfDay {
        assert!(hour < 24 && minute < 60, "invalid time of day");
        TimeOfDay { hour, minute }
    }

    /// Minutes since midnight.
    pub fn minutes(self) -> u16 {
        self.hour as u16 * 60 + self.minute as u16
    }

    /// Parses `"9:00am"` / `"6:00pm"` / `"18:30"` (the paper's rule JSON
    /// uses the am/pm form, the web UI the 24-hour form).
    pub fn parse(s: &str) -> Option<TimeOfDay> {
        let lower = s.trim().to_ascii_lowercase();
        let (body, pm) = if let Some(stripped) = lower.strip_suffix("am") {
            (stripped.trim_end(), Some(false))
        } else if let Some(stripped) = lower.strip_suffix("pm") {
            (stripped.trim_end(), Some(true))
        } else {
            (lower.as_str(), None)
        };
        let (h, m) = match body.split_once(':') {
            Some((h, m)) => (h.parse::<u8>().ok()?, m.parse::<u8>().ok()?),
            None => (body.parse::<u8>().ok()?, 0),
        };
        let hour = match pm {
            None => h,
            Some(is_pm) => {
                if h == 0 || h > 12 {
                    return None;
                }
                match (h, is_pm) {
                    (12, false) => 0,
                    (12, true) => 12,
                    (h, false) => h,
                    (h, true) => h + 12,
                }
            }
        };
        if hour >= 24 || m >= 60 {
            return None;
        }
        Some(TimeOfDay::new(hour, m))
    }

    /// Renders in am/pm wire form (`"9:00am"`).
    pub fn to_wire(self) -> String {
        let (h12, suffix) = match self.hour {
            0 => (12, "am"),
            h @ 1..=11 => (h, "am"),
            12 => (12, "pm"),
            h => (h - 12, "pm"),
        };
        format!("{}:{:02}{}", h12, self.minute, suffix)
    }
}

/// A half-open time range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl TimeRange {
    /// Constructs; panics if `end < start` (empty ranges are allowed).
    pub fn new(start: Timestamp, end: Timestamp) -> TimeRange {
        assert!(end >= start, "time range end before start");
        TimeRange { start, end }
    }

    /// Range covering all of time.
    pub fn all() -> TimeRange {
        TimeRange {
            start: Timestamp(i64::MIN),
            end: Timestamp(i64::MAX),
        }
    }

    /// Duration in milliseconds.
    pub fn duration_millis(&self) -> i64 {
        self.end.0 - self.start.0
    }

    /// True if the instant falls inside the range.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// True if the two ranges share any instant — exactly when
    /// [`TimeRange::intersect`] is `Some`. An empty range holds no
    /// instant, so it overlaps nothing, not even a range around it.
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start.max(other.start) < self.end.min(other.end)
    }

    /// The overlapping part of two ranges, if any.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(TimeRange { start, end })
    }

    /// True for zero-duration ranges.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The paper's repeated-time condition: a set of weekdays and a daily
/// `[from, to)` window ("3-6pm on every Wednesday"; Fig. 4 uses
/// `{'Day': ['Mon',...], 'HourMin': ['9:00am','6:00pm']}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatTime {
    /// Weekdays the window applies to. Empty means every day.
    pub days: Vec<Weekday>,
    /// Daily window start (inclusive).
    pub from: TimeOfDay,
    /// Daily window end (exclusive). If `to <= from` the window wraps past
    /// midnight (e.g. 10pm–6am); the weekday test applies to the day the
    /// window *started*.
    pub to: TimeOfDay,
}

impl RepeatTime {
    /// A window on specific days.
    pub fn new(days: Vec<Weekday>, from: TimeOfDay, to: TimeOfDay) -> RepeatTime {
        RepeatTime { days, from, to }
    }

    /// The paper's Fig. 4 window: weekdays 9am–6pm.
    pub fn weekdays_nine_to_six() -> RepeatTime {
        RepeatTime::new(
            Weekday::WORKDAYS.to_vec(),
            TimeOfDay::new(9, 0),
            TimeOfDay::new(18, 0),
        )
    }

    fn day_matches(&self, day: Weekday) -> bool {
        self.days.is_empty() || self.days.contains(&day)
    }

    /// True if the instant falls inside the repeated window.
    pub fn contains(&self, t: Timestamp) -> bool {
        let tod = t.time_of_day().minutes();
        let from = self.from.minutes();
        let to = self.to.minutes();
        if from < to {
            self.day_matches(t.weekday()) && tod >= from && tod < to
        } else if from > to {
            // Wrapping window: [from, midnight) belongs to today,
            // [midnight, to) belongs to yesterday's window.
            if tod >= from {
                self.day_matches(t.weekday())
            } else if tod < to {
                let prev =
                    Weekday::from_index(((t.weekday() as u8) + 6) % 7).expect("mod 7 in range");
                self.day_matches(prev)
            } else {
                false
            }
        } else {
            false // zero-length window
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2011-07-24 (a Sunday) 19:26:38.327 UTC.
    const PAPER_TS: i64 = 1_311_535_598_327;

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(Timestamp(0).weekday(), Weekday::Thu);
        assert_eq!(Timestamp(MS_PER_DAY).weekday(), Weekday::Fri);
        assert_eq!(Timestamp(-1).weekday(), Weekday::Wed);
        assert_eq!(Timestamp(-MS_PER_DAY).weekday(), Weekday::Wed);
    }

    #[test]
    fn paper_timestamp_civil_time() {
        let t = Timestamp(PAPER_TS);
        assert_eq!(t.weekday(), Weekday::Sun);
        assert_eq!(t.time_of_day(), TimeOfDay::new(19, 26));
    }

    #[test]
    fn time_of_day_and_start_of_day() {
        let t = Timestamp(MS_PER_DAY * 10 + MS_PER_HOUR * 13 + MS_PER_MIN * 45 + 500);
        assert_eq!(t.time_of_day(), TimeOfDay::new(13, 45));
        assert_eq!(t.start_of_day(), Timestamp(MS_PER_DAY * 10));
        assert_eq!(Timestamp(-1).start_of_day(), Timestamp(-MS_PER_DAY));
    }

    #[test]
    fn truncate_to_buckets() {
        let t = Timestamp(MS_PER_HOUR * 5 + 123_456);
        assert_eq!(t.truncate_to(MS_PER_HOUR), Timestamp(MS_PER_HOUR * 5));
        assert_eq!(t.truncate_to(MS_PER_DAY), Timestamp(0));
        assert_eq!(
            Timestamp(-1).truncate_to(MS_PER_DAY),
            Timestamp(-MS_PER_DAY)
        );
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn truncate_rejects_zero() {
        let _ = Timestamp(0).truncate_to(0);
    }

    #[test]
    fn weekday_wire_names() {
        for d in Weekday::ALL {
            assert_eq!(Weekday::parse(d.as_str()), Some(d));
        }
        assert_eq!(Weekday::parse("Monday"), None);
    }

    #[test]
    fn time_of_day_parsing() {
        assert_eq!(TimeOfDay::parse("9:00am"), Some(TimeOfDay::new(9, 0)));
        assert_eq!(TimeOfDay::parse("6:00pm"), Some(TimeOfDay::new(18, 0)));
        assert_eq!(TimeOfDay::parse("12:00am"), Some(TimeOfDay::new(0, 0)));
        assert_eq!(TimeOfDay::parse("12:30pm"), Some(TimeOfDay::new(12, 30)));
        assert_eq!(TimeOfDay::parse("18:30"), Some(TimeOfDay::new(18, 30)));
        assert_eq!(TimeOfDay::parse("7pm"), Some(TimeOfDay::new(19, 0)));
        assert_eq!(TimeOfDay::parse("0:05"), Some(TimeOfDay::new(0, 5)));
        assert_eq!(TimeOfDay::parse("25:00"), None);
        assert_eq!(TimeOfDay::parse("13:00pm"), None);
        assert_eq!(TimeOfDay::parse("0:00pm"), None);
        assert_eq!(TimeOfDay::parse("nonsense"), None);
        assert_eq!(TimeOfDay::parse("9:60"), None);
    }

    #[test]
    fn time_of_day_wire_roundtrip() {
        for (h, m) in [
            (0, 0),
            (0, 5),
            (9, 0),
            (11, 59),
            (12, 0),
            (12, 1),
            (18, 0),
            (23, 59),
        ] {
            let tod = TimeOfDay::new(h, m);
            assert_eq!(TimeOfDay::parse(&tod.to_wire()), Some(tod), "{tod:?}");
        }
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = TimeRange::new(Timestamp(10), Timestamp(20));
        assert!(r.contains(Timestamp(10)));
        assert!(r.contains(Timestamp(19)));
        assert!(!r.contains(Timestamp(20)));
        assert!(!r.contains(Timestamp(9)));
        let s = TimeRange::new(Timestamp(19), Timestamp(30));
        assert!(r.overlaps(&s));
        assert_eq!(
            r.intersect(&s),
            Some(TimeRange::new(Timestamp(19), Timestamp(20)))
        );
        let t = TimeRange::new(Timestamp(20), Timestamp(30));
        assert!(!r.overlaps(&t)); // half-open: touching ranges don't overlap
        assert_eq!(r.intersect(&t), None);
    }

    #[test]
    fn empty_range() {
        let e = TimeRange::new(Timestamp(5), Timestamp(5));
        assert!(e.is_empty());
        assert!(!e.contains(Timestamp(5)));
        // It holds no instant, so it overlaps nothing — not the range
        // around it, not itself — and `intersect` agrees both ways round.
        let around = TimeRange::new(Timestamp(0), Timestamp(10));
        for (a, b) in [(&e, &around), (&around, &e), (&e, &e)] {
            assert!(!a.overlaps(b));
            assert_eq!(a.intersect(b), None);
        }
    }

    #[test]
    fn repeat_time_weekday_window() {
        let r = RepeatTime::weekdays_nine_to_six();
        // PAPER_TS is Sunday 18:06 — outside.
        assert!(!r.contains(Timestamp(PAPER_TS)));
        // Move to Monday 10:00.
        let monday_ten = Timestamp(PAPER_TS)
            .start_of_day()
            .plus_millis(MS_PER_DAY + 10 * MS_PER_HOUR);
        assert_eq!(monday_ten.weekday(), Weekday::Mon);
        assert!(r.contains(monday_ten));
        // Monday 08:59 — before the window.
        let early = monday_ten.plus_millis(-(MS_PER_HOUR + MS_PER_MIN));
        assert!(!r.contains(early));
        // Monday 18:00 — window end is exclusive.
        let at_six = monday_ten.plus_millis(8 * MS_PER_HOUR);
        assert!(!r.contains(at_six));
    }

    #[test]
    fn repeat_time_empty_days_means_every_day() {
        let r = RepeatTime::new(vec![], TimeOfDay::new(0, 0), TimeOfDay::new(23, 59));
        assert!(r.contains(Timestamp(PAPER_TS))); // Sunday
        assert!(r.contains(Timestamp(0))); // Thursday
    }

    #[test]
    fn repeat_time_wrapping_window() {
        // 10pm–6am starting on Fridays (i.e. Friday night into Saturday
        // morning).
        let r = RepeatTime::new(
            vec![Weekday::Fri],
            TimeOfDay::new(22, 0),
            TimeOfDay::new(6, 0),
        );
        // Epoch day 1 is Friday.
        let friday = Timestamp(MS_PER_DAY);
        assert!(r.contains(friday.plus_millis(23 * MS_PER_HOUR))); // Fri 23:00
        assert!(r.contains(friday.plus_millis(24 * MS_PER_HOUR + 3 * MS_PER_HOUR))); // Sat 03:00
        assert!(!r.contains(friday.plus_millis(24 * MS_PER_HOUR + 7 * MS_PER_HOUR))); // Sat 07:00
        assert!(!r.contains(friday.plus_millis(12 * MS_PER_HOUR))); // Fri noon
                                                                    // Thursday 23:00 — right day-of-week boundary: window starts
                                                                    // Friday, so Thursday night is out.
        assert!(!r.contains(Timestamp(23 * MS_PER_HOUR)));
    }

    #[test]
    fn repeat_time_zero_window_matches_nothing() {
        let r = RepeatTime::new(vec![], TimeOfDay::new(9, 0), TimeOfDay::new(9, 0));
        assert!(!r.contains(Timestamp(9 * MS_PER_HOUR)));
    }

    #[test]
    fn civil_date_known_values() {
        assert_eq!(Timestamp(0).civil_date(), (1970, 1, 1));
        assert_eq!(Timestamp(PAPER_TS).civil_date(), (2011, 7, 24));
        assert_eq!(Timestamp(-MS_PER_DAY).civil_date(), (1969, 12, 31));
        // Leap day 2000-02-29.
        let leap = Timestamp::from_civil(2000, 2, 29);
        assert_eq!(leap.civil_date(), (2000, 2, 29));
        assert_eq!(leap.plus_millis(MS_PER_DAY).civil_date(), (2000, 3, 1));
        // 1900 is not a leap year.
        let feb28_1900 = Timestamp::from_civil(1900, 2, 28);
        assert_eq!(
            feb28_1900.plus_millis(MS_PER_DAY).civil_date(),
            (1900, 3, 1)
        );
    }

    #[test]
    fn civil_roundtrip_range() {
        // Round-trip every 37th day across ±50 years.
        let mut day = -18_263i64; // ~1920
        while day < 18_263 {
            let t = Timestamp(day * MS_PER_DAY);
            let (y, m, d) = t.civil_date();
            assert_eq!(Timestamp::from_civil(y, m, d), t, "day {day}");
            day += 37;
        }
    }

    #[test]
    fn start_of_month_and_year() {
        let t = Timestamp(PAPER_TS);
        assert_eq!(t.start_of_month().civil_date(), (2011, 7, 1));
        assert_eq!(t.start_of_year().civil_date(), (2011, 1, 1));
        assert_eq!(t.start_of_month().time_of_day(), TimeOfDay::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn from_civil_rejects_bad_month() {
        let _ = Timestamp::from_civil(2020, 13, 1);
    }

    #[test]
    fn plus_secs_rounds() {
        assert_eq!(Timestamp(0).plus_secs_f64(0.02), Timestamp(20));
        assert_eq!(Timestamp(0).plus_secs_f64(1.0 / 3.0), Timestamp(333));
        assert_eq!(Timestamp(100).plus_secs_f64(-0.05), Timestamp(50));
    }
}
