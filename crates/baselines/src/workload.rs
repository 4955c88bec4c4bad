//! The Yahoo! Streaming Benchmark workload (§9.1).
//!
//! "This benchmark requires systems to read ad click events, join them
//! against a static table of ad campaigns by campaign ID, and output
//! counts by campaign on 10-second event-time windows."
//!
//! The generator is deterministic (event *i* of partition *p* is a pure
//! function of *(p, i)*), so every engine consumes identical input and
//! results can be compared exactly. Like the original benchmark, ~1/3
//! of events are `view`s (the rest are filtered out), ads map 10:1 to
//! campaigns, and event time advances at a configurable rate.

use std::collections::BTreeMap;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use ss_common::time::secs;
use ss_common::{DataType, Field, RecordBatch, Row, Schema, SchemaRef, Value};

/// `(campaign_id, window_start_us) → count`: the benchmark's result
/// table, in a canonical comparable form.
pub type BenchCounts = BTreeMap<(i64, i64), i64>;

/// The benchmark configuration and generator.
#[derive(Debug, Clone)]
pub struct YahooWorkload {
    /// Number of ad campaigns (the original uses 100).
    pub num_campaigns: i64,
    /// Ads per campaign (the original uses 10).
    pub ads_per_campaign: i64,
    /// Window size in µs (the benchmark uses 10 s).
    pub window_us: i64,
    /// Events per simulated second of event time, per partition.
    pub events_per_second: i64,
}

impl Default for YahooWorkload {
    fn default() -> Self {
        YahooWorkload {
            num_campaigns: 100,
            ads_per_campaign: 10,
            window_us: secs(10),
            events_per_second: 10_000,
        }
    }
}

const EVENT_TYPES: [&str; 3] = ["view", "click", "purchase"];
const AD_TYPES: [&str; 5] = ["banner", "modal", "sponsored-search", "mail", "mobile"];

impl YahooWorkload {
    /// Schema of the ad-event stream.
    pub fn event_schema(&self) -> SchemaRef {
        Schema::of(vec![
            Field::new("user_id", DataType::Int64),
            Field::new("page_id", DataType::Int64),
            Field::new("ad_id", DataType::Int64),
            Field::new("ad_type", DataType::Utf8),
            Field::new("event_type", DataType::Utf8),
            Field::new("event_time", DataType::Timestamp),
            Field::new("ip_address", DataType::Utf8),
        ])
    }

    /// Schema of the static campaign table.
    pub fn campaign_schema(&self) -> SchemaRef {
        Schema::of(vec![
            Field::new("c_ad_id", DataType::Int64),
            Field::new("campaign_id", DataType::Int64),
        ])
    }

    pub fn num_ads(&self) -> i64 {
        self.num_campaigns * self.ads_per_campaign
    }

    /// The campaign of an ad (the static-table mapping).
    pub fn campaign_of(&self, ad_id: i64) -> i64 {
        ad_id / self.ads_per_campaign
    }

    /// The static campaign table as rows.
    pub fn campaign_rows(&self) -> Vec<Row> {
        (0..self.num_ads())
            .map(|ad| Row::new(vec![Value::Int64(ad), Value::Int64(self.campaign_of(ad))]))
            .collect()
    }

    /// The static campaign table as a batch.
    pub fn campaign_batch(&self) -> RecordBatch {
        RecordBatch::from_rows(self.campaign_schema(), &self.campaign_rows())
            .expect("static campaign table")
    }

    /// The campaign table as a hash map (what the baselines hold in
    /// memory, like the KTable / hash-map replacement for Redis the
    /// paper describes).
    pub fn campaign_map(&self) -> FxHashMap<i64, i64> {
        (0..self.num_ads())
            .map(|ad| (ad, self.campaign_of(ad)))
            .collect()
    }

    /// Deterministic event generator: event `offset` of `partition`.
    /// A cheap splittable hash drives the fields; event time advances
    /// `events_per_second` per simulated second within each partition.
    pub fn event(&self, partition: u32, offset: u64) -> Row {
        let h = mix(partition as u64, offset);
        let ad_id = (h % self.num_ads() as u64) as i64;
        let event_type = EVENT_TYPES[((h >> 17) % 3) as usize];
        let ad_type = AD_TYPES[((h >> 23) % 5) as usize];
        let event_time = (offset as i64 / self.events_per_second) * 1_000_000
            + ((h >> 33) % 1_000_000) as i64;
        Row::new(vec![
            Value::Int64((h >> 7) as i64 & 0xffff),
            Value::Int64((h >> 11) as i64 & 0xffff),
            Value::Int64(ad_id),
            Value::str(ad_type),
            Value::str(event_type),
            Value::Timestamp(event_time),
            Value::str(format!(
                "10.{}.{}.{}",
                (h >> 40) & 0xff,
                (h >> 48) & 0xff,
                (h >> 56) & 0xff
            )),
        ])
    }

    /// A generator closure for [`ss_bus::GeneratorSource`].
    pub fn generator(&self) -> Arc<dyn Fn(u32, u64) -> Row + Send + Sync> {
        let w = self.clone();
        Arc::new(move |p, o| w.event(p, o))
    }

    /// Reference result: windowed view-counts per campaign, computed
    /// directly (the oracle the engines are validated against).
    pub fn reference_counts(&self, partitions: u32, events_per_partition: u64) -> BenchCounts {
        let mut counts = BenchCounts::new();
        for p in 0..partitions {
            for o in 0..events_per_partition {
                let row = self.event(p, o);
                if row.get(4).as_str().unwrap() == Some("view") {
                    let ad = row.get(2).as_i64().unwrap().unwrap();
                    let t = row.get(5).as_i64().unwrap().unwrap();
                    let window = t.div_euclid(self.window_us) * self.window_us;
                    *counts
                        .entry((self.campaign_of(ad), window))
                        .or_insert(0) += 1;
                }
            }
        }
        counts
    }
}

/// SplitMix64-style mixer.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let w = YahooWorkload::default();
        assert_eq!(w.event(0, 42), w.event(0, 42));
        assert_ne!(w.event(0, 42), w.event(0, 43));
        assert_ne!(w.event(0, 42), w.event(1, 42));
    }

    #[test]
    fn event_fields_are_well_formed() {
        let w = YahooWorkload::default();
        let schema = w.event_schema();
        for o in 0..500 {
            let r = w.event(0, o);
            assert_eq!(r.len(), schema.len());
            let ad = r.get(2).as_i64().unwrap().unwrap();
            assert!((0..w.num_ads()).contains(&ad));
            let et = r.get(4).as_str().unwrap().unwrap();
            assert!(EVENT_TYPES.contains(&et));
        }
    }

    #[test]
    fn event_types_roughly_uniform() {
        let w = YahooWorkload::default();
        let views = (0..30_000)
            .filter(|&o| w.event(0, o).get(4).as_str().unwrap() == Some("view"))
            .count();
        let frac = views as f64 / 30_000.0;
        assert!((0.30..0.37).contains(&frac), "view fraction {frac}");
    }

    #[test]
    fn event_time_advances() {
        let w = YahooWorkload::default();
        let t0 = w.event(0, 0).get(5).as_i64().unwrap().unwrap();
        let t_late = w
            .event(0, (w.events_per_second * 25) as u64)
            .get(5)
            .as_i64()
            .unwrap()
            .unwrap();
        assert!(t_late - t0 > secs(20));
    }

    #[test]
    fn campaign_table_maps_ten_to_one() {
        let w = YahooWorkload::default();
        assert_eq!(w.num_ads(), 1000);
        assert_eq!(w.campaign_of(0), 0);
        assert_eq!(w.campaign_of(9), 0);
        assert_eq!(w.campaign_of(10), 1);
        assert_eq!(w.campaign_batch().num_rows(), 1000);
        assert_eq!(w.campaign_map().len(), 1000);
    }

    #[test]
    fn reference_counts_cover_all_views() {
        let w = YahooWorkload::default();
        let counts = w.reference_counts(2, 5_000);
        let total: i64 = counts.values().sum();
        let views = (0..2u32)
            .flat_map(|p| (0..5_000u64).map(move |o| (p, o)))
            .filter(|&(p, o)| w.event(p, o).get(4).as_str().unwrap() == Some("view"))
            .count() as i64;
        assert_eq!(total, views);
        // Every key is a valid campaign and window-aligned.
        for &(c, win) in counts.keys() {
            assert!((0..w.num_campaigns).contains(&c));
            assert_eq!(win % w.window_us, 0);
        }
    }
}
