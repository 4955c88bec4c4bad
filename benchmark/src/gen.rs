//! Seeded input generators.
//!
//! Every event is a pure function of `(seed, partition, offset)`: the
//! engine only ever sees the rows, the oracles (`oracle.rs`) re-derive
//! the plain fields, and two runs with one seed read identical input.
//! The open-loop workloads additionally stamp `created_us` (the time
//! the event was due) at append time; it is not part of the pure
//! fields and never takes part in an oracle's key.

use ss_common::{DataType, Field, RecordBatch, Row, Schema, SchemaRef, Value};

/// SplitMix64 finalizer over `(seed, a, b)`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const EVENT_TYPES: [&str; 3] = ["view", "click", "purchase"];
pub const AD_TYPES: [&str; 5] = ["banner", "modal", "sponsored-search", "mail", "mobile"];

/// The plain fields of one Yahoo ad event (what the oracle reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YahooFields {
    pub user_id: i64,
    pub page_id: i64,
    pub ad_id: i64,
    pub ad_type: usize,
    pub event_type: usize,
    pub event_time: i64,
    /// Index into the generator's 256 interned addresses.
    pub ip: u8,
}

/// Yahoo! Streaming Benchmark events (§9.1): ~1/3 are views, ads map
/// 10:1 onto 100 campaigns, event time advances with the offset.
#[derive(Clone)]
pub struct Yahoo {
    seed: u64,
    event_types: [Value; 3],
    ad_types: [Value; 5],
    /// 256 client addresses, interned: building a fresh string per
    /// event would cost the open-loop generator more than all other
    /// fields together.
    ip_addresses: Vec<Value>,
}

impl Yahoo {
    pub const TOPIC: &'static str = "events";
    pub const CAMPAIGNS: i64 = 100;
    pub const ADS_PER_CAMPAIGN: i64 = 10;
    /// Offsets per simulated second of event time, per partition.
    pub const EVENTS_PER_SECOND: i64 = 5_000;

    pub fn new(seed: u64) -> Yahoo {
        Yahoo {
            seed,
            event_types: EVENT_TYPES.map(Value::str),
            ad_types: AD_TYPES.map(Value::str),
            ip_addresses: (0..256u64)
                .map(|i| {
                    let h = mix(seed, 0x1b, i);
                    Value::str(format!("10.{}.{}.{i}", h as u8, (h >> 8) as u8))
                })
                .collect(),
        }
    }

    pub fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("user_id", DataType::Int64),
            Field::new("page_id", DataType::Int64),
            Field::new("ad_id", DataType::Int64),
            Field::new("ad_type", DataType::Utf8),
            Field::new("event_type", DataType::Utf8),
            Field::new("event_time", DataType::Timestamp),
            Field::new("ip_address", DataType::Utf8),
            Field::new("created_us", DataType::Int64),
        ])
    }

    pub fn campaign_of(ad_id: i64) -> i64 {
        ad_id / Self::ADS_PER_CAMPAIGN
    }

    /// The static `campaigns(c_ad_id, campaign_id)` table.
    pub fn campaign_batch() -> RecordBatch {
        let schema = Schema::of(vec![
            Field::new("c_ad_id", DataType::Int64),
            Field::new("campaign_id", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..Self::CAMPAIGNS * Self::ADS_PER_CAMPAIGN)
            .map(|ad| Row::new(vec![Value::Int64(ad), Value::Int64(Self::campaign_of(ad))]))
            .collect();
        RecordBatch::from_rows(schema, &rows).expect("static campaign table")
    }

    pub fn fields(&self, partition: u32, offset: u64) -> YahooFields {
        let h = mix(self.seed, u64::from(partition), offset);
        YahooFields {
            user_id: (h >> 7) as i64 & 0xffff,
            page_id: (h >> 11) as i64 & 0xffff,
            ad_id: (h % (Self::CAMPAIGNS * Self::ADS_PER_CAMPAIGN) as u64) as i64,
            ad_type: ((h >> 23) % 5) as usize,
            event_type: ((h >> 17) % 3) as usize,
            event_time: (offset as i64 / Self::EVENTS_PER_SECOND) * 1_000_000
                + ((h >> 33) % 1_000_000) as i64,
            ip: (h >> 40) as u8,
        }
    }

    pub fn event(&self, partition: u32, offset: u64, created_us: i64) -> Row {
        let f = self.fields(partition, offset);
        Row::new(vec![
            Value::Int64(f.user_id),
            Value::Int64(f.page_id),
            Value::Int64(f.ad_id),
            self.ad_types[f.ad_type].clone(),
            self.event_types[f.event_type].clone(),
            Value::Timestamp(f.event_time),
            self.ip_addresses[usize::from(f.ip)].clone(),
            Value::Int64(created_us),
        ])
    }
}

/// How a sessions event relates to the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lateness {
    /// Out of order by at most [`Sessions::JITTER_US`].
    OnTime,
    /// Late by at most a further [`Sessions::LATE_KEPT_US`]: inside the
    /// 5 s watermark delay whatever the epoch boundaries, so counted.
    LateKept,
    /// Late by at least [`Sessions::LATE_DROPPED_MIN_US`]: behind the
    /// watermark whatever the epoch boundaries, so dropped.
    LateDropped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionFields {
    pub user_id: i64,
    pub bytes: i64,
    pub event_time: i64,
    pub lateness: Lateness,
}

/// Session traffic: Zipf(1.0) users, out-of-order event times and two
/// late classes, grouped by 10 s window × user under a 5 s watermark.
#[derive(Clone)]
pub struct Sessions {
    seed: u64,
}

impl Sessions {
    pub const TOPIC: &'static str = "sessions";
    pub const USERS: u64 = 200_000;
    pub const WINDOW_US: i64 = 10_000_000;
    /// Event time advanced per offset, per partition: 6 250 offsets of
    /// each partition fill one 10 s window.
    pub const STEP_US: i64 = 1_600;
    pub const JITTER_US: u64 = 500_000;
    pub const LATE_KEPT_US: u64 = 2_500_000;
    pub const LATE_DROPPED_MIN_US: i64 = 20_000_000;
    /// Dropped-late events only occur once event time has passed this,
    /// so their own event time stays positive and the watermark has
    /// long left its initial value.
    pub const LATE_DROPPED_FROM_US: i64 = 35_000_000;

    pub fn new(seed: u64) -> Sessions {
        Sessions { seed }
    }

    pub fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("user_id", DataType::Int64),
            Field::new("bytes", DataType::Int64),
            Field::new("event_time", DataType::Timestamp),
            Field::new("created_us", DataType::Int64),
        ])
    }

    /// Zipf(s = 1.0) rank over `USERS` keys by inverting the continuous
    /// CDF `ln(k) / ln(N)`: P(rank = k) ∝ 1/k.
    fn zipf_user(u: f64) -> i64 {
        let k = ((Self::USERS as f64 + 1.0).ln() * u).exp() as u64;
        k.clamp(1, Self::USERS) as i64 - 1
    }

    pub fn fields(&self, partition: u32, offset: u64) -> SessionFields {
        let h = mix(self.seed, u64::from(partition), offset);
        let h2 = mix(self.seed ^ 0x5e55_1045, offset, u64::from(partition));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let base = offset as i64 * Self::STEP_US;
        let class = h2 % 100;
        let (lateness, late_us) = if class == 0 && base >= Self::LATE_DROPPED_FROM_US {
            (
                Lateness::LateDropped,
                Self::LATE_DROPPED_MIN_US + ((h2 >> 8) % 10_000_000) as i64,
            )
        } else if (1..=4).contains(&class) {
            (
                Lateness::LateKept,
                1 + ((h2 >> 8) % Self::LATE_KEPT_US) as i64,
            )
        } else {
            (Lateness::OnTime, 0)
        };
        SessionFields {
            user_id: Self::zipf_user(u),
            bytes: 64 + (h2 >> 40) as i64 % 1_400,
            event_time: base + Self::JITTER_US as i64
                - ((h2 >> 20) % Self::JITTER_US) as i64
                - late_us,
            lateness,
        }
    }

    pub fn event(&self, partition: u32, offset: u64, created_us: i64) -> Row {
        let f = self.fields(partition, offset);
        Row::new(vec![
            Value::Int64(f.user_id),
            Value::Int64(f.bytes),
            Value::Timestamp(f.event_time),
            Value::Int64(created_us),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_seed_partition_offset() {
        let (a, b) = (Yahoo::new(7), Yahoo::new(7));
        let (s, t) = (Sessions::new(7), Sessions::new(7));
        for o in 0..2_000 {
            assert_eq!(a.event(3, o, 0), b.event(3, o, 0));
            assert_eq!(s.event(1, o, 0), t.event(1, o, 0));
        }
    }

    #[test]
    fn seeds_partitions_and_offsets_diverge() {
        let differing = |f: &dyn Fn(u64, u32, u64) -> Row| {
            let base: Vec<Row> = (0..500).map(|o| f(1, 0, o)).collect();
            let other_seed = (0..500).filter(|&o| f(2, 0, o) != base[o as usize]).count();
            let other_part = (0..500).filter(|&o| f(1, 1, o) != base[o as usize]).count();
            (other_seed, other_part)
        };
        let (seed, part) = differing(&|s, p, o| Yahoo::new(s).event(p, o, 0));
        assert!(seed > 490 && part > 490, "yahoo {seed} {part}");
        let (seed, part) = differing(&|s, p, o| Sessions::new(s).event(p, o, 0));
        assert!(seed > 490 && part > 490, "sessions {seed} {part}");
    }

    #[test]
    fn yahoo_fields_are_well_formed() {
        let y = Yahoo::new(11);
        let views = (0..9_000)
            .filter(|&o| {
                let f = y.fields(0, o);
                assert!((0..1_000).contains(&f.ad_id));
                f.event_type == 0
            })
            .count();
        assert!((2_700..3_300).contains(&views), "{views} views of 9000");
    }

    #[test]
    fn session_late_classes_keep_their_margins() {
        let s = Sessions::new(5);
        let (mut kept, mut dropped, mut users) = (0, 0, std::collections::HashSet::new());
        for o in 0..200_000u64 {
            let f = s.fields(2, o);
            let base = o as i64 * Sessions::STEP_US;
            let behind = base + Sessions::JITTER_US as i64 - f.event_time;
            users.insert(f.user_id);
            assert!((0..Sessions::USERS as i64).contains(&f.user_id));
            match f.lateness {
                Lateness::OnTime => assert!((0..=500_000).contains(&behind)),
                Lateness::LateKept => {
                    kept += 1;
                    assert!(behind <= 3_000_000);
                }
                Lateness::LateDropped => {
                    dropped += 1;
                    assert!(behind >= 20_000_000 && f.event_time > 0);
                    assert!(base >= Sessions::LATE_DROPPED_FROM_US);
                }
            }
        }
        assert!((7_000..9_000).contains(&kept), "{kept} kept-late of 200k");
        assert!(
            (1_400..2_100).contains(&dropped),
            "{dropped} dropped-late of 200k"
        );
        assert!(users.len() > 20_000, "{} distinct users", users.len());
    }
}
