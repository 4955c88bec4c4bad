//! Source offset types, shared by the message bus, the sources, and the
//! write-ahead log.
//!
//! The paper's epoch protocol (§6.1) identifies every epoch by the
//! offset ranges it covers in each replayable source partition; these
//! types are that identification.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Per-partition offsets within one source: partition id → offset.
/// Offsets count records from the beginning of the partition, Kafka
/// style.
pub type PartitionOffsets = BTreeMap<u32, u64>;

/// The offset range one source contributes to an epoch:
/// `[start, end)` per partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OffsetRange {
    pub start: PartitionOffsets,
    pub end: PartitionOffsets,
}

impl OffsetRange {
    /// Total records covered by the range.
    pub fn num_records(&self) -> u64 {
        self.end
            .iter()
            .map(|(p, e)| e.saturating_sub(*self.start.get(p).unwrap_or(&0)))
            .sum()
    }

    /// True if the range covers no records.
    pub fn is_empty(&self) -> bool {
        self.num_records() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_records_sums_partitions() {
        let r = OffsetRange {
            start: BTreeMap::from([(0, 5), (1, 0)]),
            end: BTreeMap::from([(0, 15), (1, 7)]),
        };
        assert_eq!(r.num_records(), 17);
        assert!(!r.is_empty());
        assert!(OffsetRange::default().is_empty());
    }

    #[test]
    fn missing_start_partition_counts_from_zero() {
        let r = OffsetRange {
            start: BTreeMap::new(),
            end: BTreeMap::from([(0, 4)]),
        };
        assert_eq!(r.num_records(), 4);
    }
}
