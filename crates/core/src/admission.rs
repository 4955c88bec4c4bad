//! Admission control: PID-based rate estimation and backlog-
//! proportional budget apportionment.
//!
//! Overload in a micro-batch engine shows up as *scheduling delay*:
//! each epoch takes longer than the trigger interval, so the next one
//! starts late, backlog accumulates, and per-epoch latency diverges.
//! The fix (§6.1's rate limiting, implemented in Spark as
//! `PIDRateEstimator`) is to bound how many rows an epoch may admit,
//! steering the admission rate toward the measured processing rate and
//! draining accumulated delay.
//!
//! [`PidRateController`] produces a rate in rows/second from the last
//! epoch's observations; the trigger loop converts it to a row budget
//! for the next epoch and `admit` cuts each source's offset range out
//! of its backlog: [`apportion`]ed across sources proportionally to
//! backlog, then spread over a source's partitions. A configured
//! minimum rate keeps a pathologically slow epoch from driving the
//! budget to zero and starving the query
//! ([`RateControllerConfig::min_rate`]).

use std::collections::BTreeMap;

use ss_common::{OffsetRange, PartitionOffsets};

/// Gains and bounds for the [`PidRateController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateControllerConfig {
    /// Weight on the instantaneous error (admitted rate − processing
    /// rate). Spark's default: 1.0.
    pub proportional: f64,
    /// Weight on the accumulated error, measured as the rows of backlog
    /// implied by the current scheduling delay. Spark's default: 0.2.
    pub integral: f64,
    /// Weight on the error's rate of change. Spark's default: 0.0.
    pub derivative: f64,
    /// Floor on the produced rate (rows/second). The self-starvation
    /// guard: one catastrophic epoch cannot drive admission to zero.
    pub min_rate: f64,
    /// The trigger interval the controller steers against; also the
    /// horizon over which a rate converts to a per-epoch row budget.
    pub batch_interval_us: u64,
}

impl Default for RateControllerConfig {
    fn default() -> RateControllerConfig {
        RateControllerConfig {
            proportional: 1.0,
            integral: 0.2,
            derivative: 0.0,
            min_rate: 100.0,
            batch_interval_us: 100_000,
        }
    }
}

/// PID estimator for the admission rate, after Spark's
/// `PIDRateEstimator`.
///
/// Feed it each completed epoch's observations via [`update`]; it
/// returns the rate (rows/second) the *next* epoch should admit at, or
/// `None` until it has enough history (the first useful epoch seeds
/// the latest-rate term).
///
/// [`update`]: PidRateController::update
#[derive(Debug, Clone)]
pub struct PidRateController {
    config: RateControllerConfig,
    latest_time_us: i64,
    latest_rate: f64,
    latest_error: f64,
    seeded: bool,
}

impl PidRateController {
    pub fn new(config: RateControllerConfig) -> PidRateController {
        PidRateController {
            config,
            latest_time_us: -1,
            latest_rate: -1.0,
            latest_error: -1.0,
            seeded: false,
        }
    }

    pub fn config(&self) -> &RateControllerConfig {
        &self.config
    }

    /// The most recent rate estimate (rows/second), if any.
    pub fn rate(&self) -> Option<f64> {
        self.seeded.then_some(self.latest_rate)
    }

    /// Convert the current rate into a row budget for one epoch.
    pub fn budget_rows(&self) -> Option<u64> {
        self.rate()
            .map(|r| (r * self.config.batch_interval_us as f64 / 1e6).max(1.0) as u64)
    }

    /// Ingest one completed epoch: its end time, rows processed, time
    /// spent processing, and the scheduling delay it started with.
    /// Returns the new rate when the controller has enough history;
    /// epochs with no rows or no measured processing time are ignored
    /// (they carry no rate signal).
    pub fn update(
        &mut self,
        time_us: i64,
        rows: u64,
        processing_time_us: u64,
        scheduling_delay_us: u64,
    ) -> Option<f64> {
        if time_us <= self.latest_time_us || rows == 0 || processing_time_us == 0 {
            return None;
        }
        // Rows/second the engine actually sustained this epoch.
        let processing_rate = rows as f64 / processing_time_us as f64 * 1e6;
        if !self.seeded {
            // First observation: adopt the measured rate as-is.
            self.latest_time_us = time_us;
            self.latest_rate = processing_rate;
            self.latest_error = 0.0;
            self.seeded = true;
            return None;
        }
        let delay_since_update_s = (time_us - self.latest_time_us) as f64 / 1e6;
        // How far the admitted rate overshot what was sustainable.
        let error = self.latest_rate - processing_rate;
        // The integral term: scheduling delay re-expressed as the rows
        // of backlog it represents, amortized over one interval.
        let historical_error = scheduling_delay_us as f64 * processing_rate
            / self.config.batch_interval_us as f64;
        let d_error = (error - self.latest_error) / delay_since_update_s;
        let new_rate = (self.latest_rate
            - self.config.proportional * error
            - self.config.integral * historical_error
            - self.config.derivative * d_error)
            .max(self.config.min_rate);
        self.latest_time_us = time_us;
        self.latest_rate = new_rate;
        self.latest_error = error;
        Some(new_rate)
    }
}

/// Split a total row budget across sources proportionally to their
/// backlog, using the largest-remainder method so the shares sum to
/// exactly `min(budget, total backlog)` and no source with backlog is
/// rounded to zero while budget remains. Deterministic: ties break by
/// source name (the `BTreeMap` order).
pub fn apportion(budget: u64, backlogs: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let total: u64 = backlogs.values().sum();
    if total <= budget {
        // No contention: everyone gets their whole backlog.
        return backlogs.clone();
    }
    let mut shares: BTreeMap<String, u64> = BTreeMap::new();
    let mut remainders: Vec<(f64, &String)> = Vec::new();
    let mut assigned = 0u64;
    for (name, &backlog) in backlogs {
        let exact = budget as f64 * backlog as f64 / total as f64;
        let floor = exact.floor() as u64;
        assigned += floor;
        shares.insert(name.clone(), floor);
        remainders.push((exact - floor as f64, name));
    }
    // Hand the leftover rows to the largest fractional shares; on equal
    // fractions the earlier (smaller) name wins.
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(b.1)));
    let mut leftover = budget - assigned;
    for (_, name) in remainders {
        if leftover == 0 {
            break;
        }
        // Never hand a source more than its backlog.
        let share = shares.get_mut(name).expect("share exists");
        if *share < backlogs[name] {
            *share += 1;
            leftover -= 1;
        }
    }
    shares
}

/// Where a source's next epoch starts: the previous epoch's end
/// (`position`; offset 0 of every partition for a source never read),
/// moved up to the source's `earliest` retained offsets. A bounded
/// topic with a drop-oldest policy may have shed records the query
/// never read; the data is gone by declared policy, and the clamped
/// start is what gets logged to the WAL, so recovery replays a range
/// that still exists.
pub(crate) fn resume_from(
    position: Option<&PartitionOffsets>,
    earliest: &PartitionOffsets,
    latest: &PartitionOffsets,
) -> PartitionOffsets {
    let mut start = position
        .cloned()
        .unwrap_or_else(|| latest.keys().map(|&p| (p, 0)).collect());
    for (&p, &e) in earliest {
        let slot = start.entry(p).or_insert(0);
        *slot = (*slot).max(e);
    }
    start
}

/// Cut an epoch's offset range out of each source's `available` range
/// (resume point to latest offsets) under a total row `budget`: the
/// budget is [`apportion`]ed across sources by backlog, and a source
/// that cannot take everything spreads its share over its partitions,
/// each of the remaining partitions getting a proportional cut.
pub(crate) fn admit(
    budget: u64,
    available: &BTreeMap<String, OffsetRange>,
) -> BTreeMap<String, OffsetRange> {
    let backlogs = available
        .iter()
        .map(|(name, r)| (name.clone(), r.num_records()))
        .collect();
    let shares = apportion(budget, &backlogs);
    let mut ranges = BTreeMap::new();
    for (name, OffsetRange { start, end: latest }) in available {
        let take = shares.get(name).copied().unwrap_or(0);
        let end = if take >= backlogs[name] {
            latest.clone()
        } else {
            let mut end = PartitionOffsets::new();
            let mut remaining = take;
            let n_parts = latest.len() as u64;
            for (i, (&p, &lat)) in latest.iter().enumerate() {
                let s = *start.get(&p).unwrap_or(&0);
                let avail = lat.saturating_sub(s);
                let share = remaining.div_ceil(n_parts - i as u64);
                let n = avail.min(share).min(remaining);
                end.insert(p, s + n);
                remaining -= n;
            }
            end
        };
        let start = start.clone();
        ranges.insert(name.clone(), OffsetRange { start, end });
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(min_rate: f64) -> RateControllerConfig {
        RateControllerConfig {
            min_rate,
            batch_interval_us: 100_000,
            ..RateControllerConfig::default()
        }
    }

    #[test]
    fn first_epoch_seeds_without_estimate() {
        let mut c = PidRateController::new(config(1.0));
        assert_eq!(c.rate(), None);
        assert_eq!(c.budget_rows(), None);
        // 1000 rows in 100ms → 10_000 rows/s seeds the controller.
        assert_eq!(c.update(100_000, 1000, 100_000, 0), None);
        assert_eq!(c.rate(), Some(10_000.0));
        assert_eq!(c.budget_rows(), Some(1000));
    }

    #[test]
    fn overload_reduces_rate_and_recovery_raises_it() {
        let mut c = PidRateController::new(config(1.0));
        c.update(100_000, 1000, 100_000, 0);
        // Next epoch only sustains 5000 rows/s and sits on 200ms of
        // scheduling delay: the rate must drop below the seed.
        let slow = c.update(300_000, 1000, 200_000, 200_000).unwrap();
        assert!(slow < 10_000.0, "rate should fall under overload, got {slow}");
        // Load lifts: processing is fast again and delay drains; the
        // controller steers back up.
        let fast = c.update(400_000, 1000, 50_000, 0).unwrap();
        assert!(fast > slow, "rate should recover, got {fast} <= {slow}");
    }

    #[test]
    fn min_rate_floor_survives_pathological_epoch() {
        // Satellite: a catastrophically slow epoch must not drive the
        // budget below the configured minimum rate.
        let mut c = PidRateController::new(config(50.0));
        c.update(100_000, 1000, 100_000, 0);
        // 10 rows in 30 seconds of processing with a huge delay: the
        // raw PID output is deeply negative.
        let rate = c.update(31_000_000, 10, 30_000_000, 60_000_000).unwrap();
        assert_eq!(rate, 50.0);
        // And it stays floored on repeat, never reaching zero.
        let rate = c.update(62_000_000, 10, 30_000_000, 120_000_000).unwrap();
        assert_eq!(rate, 50.0);
        assert!(c.budget_rows().unwrap() >= 1);
    }

    #[test]
    fn empty_and_stale_epochs_carry_no_signal() {
        let mut c = PidRateController::new(config(1.0));
        c.update(100_000, 1000, 100_000, 0);
        assert_eq!(c.update(200_000, 0, 100_000, 0), None);
        assert_eq!(c.update(200_001, 10, 0, 0), None);
        // Non-advancing clock is ignored too.
        assert_eq!(c.update(100_000, 10, 10, 0), None);
        assert_eq!(c.rate(), Some(10_000.0));
    }

    fn backlogs(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(n, b)| (n.to_string(), *b)).collect()
    }

    #[test]
    fn apportion_under_budget_grants_all() {
        let b = backlogs(&[("a", 10), ("b", 5)]);
        assert_eq!(apportion(100, &b), b);
        assert_eq!(apportion(15, &b), b);
    }

    #[test]
    fn apportion_splits_proportionally_and_exactly() {
        let b = backlogs(&[("a", 300), ("b", 100)]);
        let shares = apportion(100, &b);
        assert_eq!(shares["a"], 75);
        assert_eq!(shares["b"], 25);
        assert_eq!(shares.values().sum::<u64>(), 100);
    }

    #[test]
    fn apportion_distributes_remainder_deterministically() {
        // 10 rows across three equal backlogs: 3/3/3 plus one leftover,
        // which goes to the lexicographically first source.
        let b = backlogs(&[("a", 7), ("b", 7), ("c", 7)]);
        let shares = apportion(10, &b);
        assert_eq!(shares.values().sum::<u64>(), 10);
        assert_eq!(shares["a"], 4);
        assert_eq!(shares["b"], 3);
        assert_eq!(shares["c"], 3);
    }

    #[test]
    fn apportion_never_exceeds_a_sources_backlog() {
        let b = backlogs(&[("a", 1), ("b", 1000)]);
        let shares = apportion(500, &b);
        assert!(shares["a"] <= 1);
        assert_eq!(shares.values().sum::<u64>(), 500);
    }

    fn offsets(pairs: &[(u32, u64)]) -> PartitionOffsets {
        pairs.iter().copied().collect()
    }

    /// `(source, start offsets, latest offsets)`.
    type Backlog<'a> = (&'a str, &'a [(u32, u64)], &'a [(u32, u64)]);

    fn available(sources: &[Backlog]) -> BTreeMap<String, OffsetRange> {
        sources
            .iter()
            .map(|(name, start, latest)| {
                let range = OffsetRange { start: offsets(start), end: offsets(latest) };
                (name.to_string(), range)
            })
            .collect()
    }

    #[test]
    fn admit_uncapped_takes_every_source_to_its_latest() {
        let avail = available(&[
            ("a", &[(0, 5), (1, 0)], &[(0, 9), (1, 3)]),
            ("b", &[(0, 2)], &[(0, 2)]),
        ]);
        let ranges = admit(u64::MAX, &avail);
        assert_eq!(ranges, avail);
        // A budget of exactly the backlog is still "everything".
        assert_eq!(admit(7, &avail), avail);
    }

    #[test]
    fn admit_capped_spreads_a_share_over_partitions() {
        // 300 + 100 rows of backlog under a budget of 100: 75 and 25
        // across sources; `a`'s 75 go 25 / 25 / 25 over its partitions,
        // except that partition 1 only holds 10, so the rest moves on.
        let avail = available(&[
            ("a", &[(0, 100), (1, 0), (2, 50)], &[(0, 240), (1, 10), (2, 200)]),
            ("b", &[(0, 0)], &[(0, 100)]),
        ]);
        let ranges = admit(100, &avail);
        assert_eq!(ranges["a"].start, avail["a"].start);
        assert_eq!(ranges["a"].end, offsets(&[(0, 125), (1, 10), (2, 90)]));
        assert_eq!(ranges["b"].end, offsets(&[(0, 25)]));
        assert_eq!(ranges.values().map(OffsetRange::num_records).sum::<u64>(), 100);
        // Never past what a partition holds.
        for (name, r) in &ranges {
            for (p, e) in &r.end {
                assert!(e <= &avail[name].end[p]);
            }
        }
    }

    #[test]
    fn admit_with_zero_backlog_or_zero_budget_admits_nothing() {
        let caught_up = available(&[("a", &[(0, 4), (1, 4)], &[(0, 4), (1, 4)])]);
        let ranges = admit(10, &caught_up);
        assert!(ranges["a"].is_empty());
        assert_eq!(ranges["a"].end, ranges["a"].start);
        let backlogged = available(&[("a", &[(0, 0)], &[(0, 9)])]);
        assert!(admit(0, &backlogged)["a"].is_empty());
        assert!(admit(5, &BTreeMap::new()).is_empty());
    }

    #[test]
    fn resume_from_clamps_to_the_retention_horizon() {
        let latest = offsets(&[(0, 50), (1, 50)]);
        // Never read: every partition starts at 0 ...
        assert_eq!(resume_from(None, &offsets(&[]), &latest), offsets(&[(0, 0), (1, 0)]));
        // ... or at the horizon, if the topic already shed its head.
        assert_eq!(
            resume_from(None, &offsets(&[(0, 7)]), &latest),
            offsets(&[(0, 7), (1, 0)])
        );
        // A position behind the horizon skips forward; one ahead stays.
        let position = offsets(&[(0, 10), (1, 30)]);
        let start = resume_from(Some(&position), &offsets(&[(0, 20), (1, 20)]), &latest);
        assert_eq!(start, offsets(&[(0, 20), (1, 30)]));
        // The backlog is counted from the clamped start.
        let range = OffsetRange { start, end: latest };
        assert_eq!(range.num_records(), 30 + 20);
    }
}
