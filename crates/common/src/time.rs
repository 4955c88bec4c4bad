//! Event-time utilities.
//!
//! The paper treats event time as "just a field in the data" (§4.3.1);
//! these helpers provide the supporting arithmetic: human-friendly
//! duration parsing (`"10 seconds"`, `"1 hour"`, `"5 min"`) used by
//! `window()` and `with_watermark()`, and the tumbling/sliding window
//! bucketing math used by the window expression.
//!
//! All timestamps and durations are microseconds (`i64`), matching Spark
//! SQL's timestamp resolution.

use crate::error::{Result, SsError};

/// Microseconds per second.
pub const MICROS_PER_SEC: i64 = 1_000_000;
/// Microseconds per millisecond.
pub const MICROS_PER_MILLI: i64 = 1_000;
/// Microseconds per minute.
pub const MICROS_PER_MIN: i64 = 60 * MICROS_PER_SEC;
/// Microseconds per hour.
pub const MICROS_PER_HOUR: i64 = 60 * MICROS_PER_MIN;
/// Microseconds per day.
pub const MICROS_PER_DAY: i64 = 24 * MICROS_PER_HOUR;

/// Shorthand constructors for durations in microseconds.
pub fn secs(n: i64) -> i64 {
    n * MICROS_PER_SEC
}
pub fn minutes(n: i64) -> i64 {
    n * MICROS_PER_MIN
}
pub fn hours(n: i64) -> i64 {
    n * MICROS_PER_HOUR
}

/// Current wall-clock time as microseconds since the Unix epoch.
pub fn now_us() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as i64)
        .unwrap_or(0)
}

/// Parse a human-readable duration like `"10 seconds"`, `"30s"`,
/// `"5 min"`, `"1 hour"`, `"250 ms"`, `"2 days"` into microseconds.
///
/// Accepted units (singular/plural/abbreviated):
/// `us|microsecond(s)`, `ms|millisecond(s)`, `s|sec(s)|second(s)`,
/// `m|min(s)|minute(s)`, `h|hour(s)`, `d|day(s)`.
pub fn parse_duration(s: &str) -> Result<i64> {
    let s = s.trim();
    let split = s
        .find(|c: char| !c.is_ascii_digit())
        .ok_or_else(|| SsError::Parse(format!("duration `{s}` is missing a unit")))?;
    let (num, unit) = s.split_at(split);
    let n: i64 = num
        .trim()
        .parse()
        .map_err(|e| SsError::Parse(format!("bad duration `{s}`: {e}")))?;
    let mult = match unit.trim().to_ascii_lowercase().as_str() {
        "us" | "microsecond" | "microseconds" => 1,
        "ms" | "millisecond" | "milliseconds" => MICROS_PER_MILLI,
        "s" | "sec" | "secs" | "second" | "seconds" => MICROS_PER_SEC,
        "m" | "min" | "mins" | "minute" | "minutes" => MICROS_PER_MIN,
        "h" | "hour" | "hours" => MICROS_PER_HOUR,
        "d" | "day" | "days" => MICROS_PER_DAY,
        other => {
            return Err(SsError::Parse(format!(
                "unknown duration unit `{other}` in `{s}`"
            )))
        }
    };
    n.checked_mul(mult)
        .ok_or_else(|| SsError::Parse(format!("duration `{s}` overflows")))
}

/// Format a microsecond timestamp as `1970-01-01T00:00:00.000000Z`-style
/// UTC text (proleptic Gregorian; no external time crate needed).
pub fn format_timestamp(micros: i64) -> String {
    let (days, mut rem) = (micros.div_euclid(MICROS_PER_DAY), micros.rem_euclid(MICROS_PER_DAY));
    let (y, m, d) = civil_from_days(days);
    let hour = rem / MICROS_PER_HOUR;
    rem %= MICROS_PER_HOUR;
    let min = rem / MICROS_PER_MIN;
    rem %= MICROS_PER_MIN;
    let sec = rem / MICROS_PER_SEC;
    let micro = rem % MICROS_PER_SEC;
    format!("{y:04}-{m:02}-{d:02}T{hour:02}:{min:02}:{sec:02}.{micro:06}Z")
}

/// Days-since-epoch -> (year, month, day). Howard Hinnant's algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The start of the tumbling window of width `size` containing `ts`
/// (windows are aligned to the epoch plus `offset`).
pub fn window_start(ts: i64, size: i64, offset: i64) -> i64 {
    assert!(size > 0, "window size must be positive");
    (ts - offset).div_euclid(size) * size + offset
}

/// All `[start, end)` windows of width `size`, sliding by `slide`, that
/// contain `ts`. For tumbling windows (`slide == size`) this yields one
/// window; for sliding windows it yields `size / slide` windows (the same
/// assignment Spark's `window()` expression produces).
pub fn windows_for(ts: i64, size: i64, slide: i64) -> Vec<(i64, i64)> {
    assert!(size > 0 && slide > 0, "window size and slide must be positive");
    assert!(slide <= size, "slide must be <= size");
    // Last window start that is <= ts.
    let last_start = window_start(ts, slide, 0);
    let mut out = Vec::with_capacity((size / slide) as usize);
    let mut start = last_start;
    while start > ts - size {
        out.push((start, start + size));
        start -= slide;
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_units() {
        assert_eq!(parse_duration("10 seconds").unwrap(), secs(10));
        assert_eq!(parse_duration("30s").unwrap(), secs(30));
        assert_eq!(parse_duration("5 min").unwrap(), minutes(5));
        assert_eq!(parse_duration("1 hour").unwrap(), hours(1));
        assert_eq!(parse_duration("250 ms").unwrap(), 250 * MICROS_PER_MILLI);
        assert_eq!(parse_duration("2 days").unwrap(), 2 * MICROS_PER_DAY);
        assert_eq!(parse_duration(" 7 us ").unwrap(), 7);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_duration("ten seconds").is_err());
        assert!(parse_duration("10 fortnights").is_err());
        assert!(parse_duration("10").is_err());
        assert!(parse_duration("99999999999999999 hours").is_err());
    }

    #[test]
    fn tumbling_window_start() {
        assert_eq!(window_start(secs(25), secs(10), 0), secs(20));
        assert_eq!(window_start(secs(20), secs(10), 0), secs(20));
        // Negative timestamps floor correctly.
        assert_eq!(window_start(-1, secs(10), 0), -secs(10));
        // Offset shifts alignment.
        assert_eq!(window_start(secs(25), secs(10), secs(3)), secs(23));
    }

    #[test]
    fn tumbling_assignment_is_single_window() {
        let w = windows_for(secs(25), secs(10), secs(10));
        assert_eq!(w, vec![(secs(20), secs(30))]);
    }

    #[test]
    fn sliding_assignment_yields_size_over_slide_windows() {
        // 1h windows sliding every 5min -> each event in 12 windows.
        let w = windows_for(hours(2), hours(1), minutes(5));
        assert_eq!(w.len(), 12);
        // All windows contain the timestamp.
        for (s, e) in &w {
            assert!(*s <= hours(2) && hours(2) < *e, "({s},{e})");
        }
        // Windows are sorted ascending and spaced by the slide.
        for pair in w.windows(2) {
            assert_eq!(pair[1].0 - pair[0].0, minutes(5));
        }
    }

    #[test]
    fn boundary_event_belongs_to_window_starting_at_it() {
        let w = windows_for(secs(30), secs(10), secs(5));
        assert!(w.contains(&(secs(30), secs(40))));
        assert!(w.contains(&(secs(25), secs(35))));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn timestamp_formatting() {
        assert_eq!(format_timestamp(0), "1970-01-01T00:00:00.000000Z");
        assert_eq!(
            format_timestamp(secs(86_400) + secs(3661) + 5),
            "1970-01-02T01:01:01.000005Z"
        );
        // A date far in the future and one before the epoch.
        assert_eq!(format_timestamp(1_600_000_000 * MICROS_PER_SEC),
            "2020-09-13T12:26:40.000000Z");
        assert_eq!(format_timestamp(-MICROS_PER_SEC), "1969-12-31T23:59:59.000000Z");
    }
}
