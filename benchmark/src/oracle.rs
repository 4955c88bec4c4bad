//! Reference results, computed from the generators' plain fields with
//! `HashMap`s and nothing of the engine's: no plan, no expression, no
//! batch. Every workload compares what its sinks hold against these.

use std::collections::HashMap;

use crate::gen::{Lateness, Sessions, Yahoo};

pub const YAHOO_WINDOW_US: i64 = 10_000_000;
pub const AD_TYPE_WINDOW_US: i64 = 60_000_000;

/// What the Yahoo queries must produce over `partitions × per_partition`
/// events.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct YahooOracle {
    /// `(window_start, campaign_id) → views` on 10 s windows.
    pub by_campaign: HashMap<(i64, i64), i64>,
    /// `(window_start, ad_type index) → views` on 1 min windows.
    pub by_ad_type: HashMap<(i64, usize), i64>,
    /// The map-only projection of the views: row count and wrapping
    /// sums of `ad_id` and `event_time`.
    pub views: u64,
    pub ad_id_sum: u64,
    pub event_time_sum: u64,
}

pub fn yahoo(gen: &Yahoo, partitions: u32, per_partition: u64) -> YahooOracle {
    let mut o = YahooOracle::default();
    for p in 0..partitions {
        for offset in 0..per_partition {
            let f = gen.fields(p, offset);
            if f.event_type != 0 {
                continue;
            }
            let w10 = f.event_time.div_euclid(YAHOO_WINDOW_US) * YAHOO_WINDOW_US;
            let w60 = f.event_time.div_euclid(AD_TYPE_WINDOW_US) * AD_TYPE_WINDOW_US;
            *o.by_campaign
                .entry((w10, Yahoo::campaign_of(f.ad_id)))
                .or_insert(0) += 1;
            *o.by_ad_type.entry((w60, f.ad_type)).or_insert(0) += 1;
            o.views += 1;
            o.ad_id_sum = o.ad_id_sum.wrapping_add(f.ad_id as u64);
            o.event_time_sum = o.event_time_sum.wrapping_add(f.event_time as u64);
        }
    }
    o
}

/// One `(window, user)` group of the sessions query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionAgg {
    pub count: i64,
    pub bytes: i64,
    pub max_created_us: i64,
}

#[derive(Debug, Default, PartialEq, Eq)]
pub struct SessionsOracle {
    /// `(window_start, user_id) → aggregate` over every event that is
    /// not of the dropped-late class.
    pub table: HashMap<(i64, i64), SessionAgg>,
    pub dropped_late: u64,
}

/// `created_us(partition, offset)` is the stamp the generator thread
/// put on the event (0 for preloaded topics).
pub fn sessions(
    gen: &Sessions,
    partitions: u32,
    per_partition: u64,
    created_us: impl Fn(u32, u64) -> i64,
) -> SessionsOracle {
    let mut o = SessionsOracle::default();
    for p in 0..partitions {
        for offset in 0..per_partition {
            let f = gen.fields(p, offset);
            if f.lateness == Lateness::LateDropped {
                o.dropped_late += 1;
                continue;
            }
            let window = f.event_time.div_euclid(Sessions::WINDOW_US) * Sessions::WINDOW_US;
            let agg = o.table.entry((window, f.user_id)).or_insert(SessionAgg {
                max_created_us: i64::MIN,
                ..SessionAgg::default()
            });
            agg.count += 1;
            agg.bytes += f.bytes;
            agg.max_created_us = agg.max_created_us.max(created_us(p, offset));
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yahoo_oracle_counts_every_view_once() {
        let o = yahoo(&Yahoo::new(3), 2, 4_000);
        assert_eq!(o.by_campaign.values().sum::<i64>() as u64, o.views);
        assert_eq!(o.by_ad_type.values().sum::<i64>() as u64, o.views);
        assert!(o
            .by_campaign
            .keys()
            .all(|&(w, c)| w % YAHOO_WINDOW_US == 0 && c < 100));
    }

    #[test]
    fn sessions_oracle_drops_exactly_the_dropped_class() {
        let gen = Sessions::new(9);
        let per_partition = 120_000;
        let o = sessions(&gen, 2, per_partition, |_, offset| offset as i64);
        let counted: i64 = o.table.values().map(|a| a.count).sum();
        assert_eq!(counted as u64 + o.dropped_late, 2 * per_partition);
        assert!(o.dropped_late > 0);
        assert!(o
            .table
            .values()
            .all(|a| a.max_created_us >= 0 && a.bytes >= 64 * a.count));
    }
}
