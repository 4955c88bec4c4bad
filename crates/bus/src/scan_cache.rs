//! Shared source scans for multi-query execution.
//!
//! When N queries subscribe to the same topic, each one's epoch reads
//! the same `(topic, offset-range)` slice of the bus. A [`ScanCache`]
//! turns those N reads into one: the first subscriber to ask for a
//! range pays the bus read and parks the materialized batch (anyone
//! asking for the same range meanwhile waits for it rather than reading
//! the bus too); the remaining subscribers copy their own projection
//! out of the shared batch at fan-out. Entries are reference-counted
//! by subscriber: an entry is dropped as soon as every registered
//! subscriber of the source has read it, so steady-state residency is
//! one in-flight epoch per topic, not a history.
//!
//! Subscribers whose offset ranges diverge (different admission caps,
//! different start times) simply miss — the cache never changes what a
//! query reads, only whether the bus is touched to read it. A bounded
//! FIFO capacity evicts ranges that a lagging subscriber never came
//! back for.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

use parking_lot::Mutex;

use ss_common::{OffsetRange, PartitionOffsets, RecordBatch, Result, SchemaRef};

use crate::bus::MessageBus;
use crate::source::Source;

/// Counters describing how much bus work the cache absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCacheStats {
    /// Range reads served from a cached batch (no bus touch).
    pub hits: u64,
    /// Range reads that went through to the underlying source.
    pub misses: u64,
    /// Entries dropped: fully consumed by all subscribers, or pushed
    /// out by the capacity bound.
    pub evictions: u64,
    /// Rows read from the underlying sources (the cost that stays
    /// ~O(1) in the number of identical queries).
    pub underlying_rows: u64,
    /// Rows handed out of the cache to subscribers (hits only).
    pub fanned_rows: u64,
}

struct Entry {
    batch: Arc<RecordBatch>,
    /// Registered subscribers (other than the one that populated the
    /// entry) still expected to read this range.
    remaining: usize,
}

#[derive(Default)]
struct CacheInner {
    /// Cached batches keyed by `(source, range)` (rendered as text —
    /// `PartitionOffsets` is a BTreeMap, so the rendering is canonical).
    entries: HashMap<String, Entry>,
    /// Insertion order, for the capacity bound.
    order: VecDeque<String>,
    /// Keys some reader is fetching from the underlying source right now.
    loading: HashSet<String>,
    /// Live subscriber count per source name.
    subscribers: HashMap<String, usize>,
}

/// A ref-counted cache of materialized `(source, offset-range)` scans,
/// shared by every [`SharedScanSource`] of a multi-query engine.
pub struct ScanCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever a key leaves `loading`. (The vendored
    /// `parking_lot` shim's `MutexGuard` is `std`'s.)
    loaded: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    underlying_rows: AtomicU64,
    fanned_rows: AtomicU64,
}

impl ScanCache {
    /// A cache holding at most `capacity` materialized ranges (across
    /// all sources). Capacity 0 disables caching entirely — every read
    /// passes through.
    pub fn new(capacity: usize) -> Arc<ScanCache> {
        Arc::new(ScanCache {
            inner: Mutex::new(CacheInner::default()),
            loaded: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            underlying_rows: AtomicU64::new(0),
            fanned_rows: AtomicU64::new(0),
        })
    }

    /// Register one more reader of `source`. Future cache entries for
    /// the source expect one more visit before self-evicting.
    pub fn subscribe(&self, source: &str) {
        *self
            .inner
            .lock()
            .subscribers
            .entry(source.to_string())
            .or_insert(0) += 1;
    }

    /// Deregister a reader (query stopped or detached). Entries the
    /// departed reader never consumed age out via the capacity bound.
    pub fn unsubscribe(&self, source: &str) {
        let mut inner = self.inner.lock();
        if let Some(n) = inner.subscribers.get_mut(source) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.subscribers.remove(source);
            }
        }
    }

    /// Current reader count for a source.
    pub fn subscriber_count(&self, source: &str) -> usize {
        self.inner.lock().subscribers.get(source).copied().unwrap_or(0)
    }

    pub fn stats(&self) -> ScanCacheStats {
        ScanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            underlying_rows: self.underlying_rows.load(Ordering::Relaxed),
            fanned_rows: self.fanned_rows.load(Ordering::Relaxed),
        }
    }

    fn key(source: &str, range: &OffsetRange) -> String {
        let fmt = |m: &PartitionOffsets| {
            m.iter()
                .map(|(p, o)| format!("{p}:{o}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("{source}|{}|{}", fmt(&range.start), fmt(&range.end))
    }

    /// Serve a full-range read for `source`, consulting the cache.
    /// The cached batch is always unprojected; `projection` is applied
    /// at fan-out so subscribers with different column sets still
    /// share one bus read. Misses are single-flight per key: a reader
    /// that finds the range being fetched waits for that fetch.
    pub fn read_through(
        &self,
        source: &dyn Source,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let key = Self::key(source.name(), range);
        let mut inner = self.inner.lock();
        loop {
            if let Some(entry) = inner.entries.get_mut(&key) {
                let batch = entry.batch.clone();
                entry.remaining = entry.remaining.saturating_sub(1);
                if entry.remaining == 0 {
                    inner.entries.remove(&key);
                    inner.order.retain(|k| k != &key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.fanned_rows
                    .fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
                return fan_out(batch, projection);
            }
            if !inner.loading.contains(&key) {
                break;
            }
            inner = self
                .loaded
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        inner.loading.insert(key.clone());
        drop(inner);
        // Miss: one read of the *full* row (unprojected), outside the
        // lock — a long bus read must not serialize other sources.
        let in_flight = InFlight { cache: self, key };
        let batch = Arc::new(source.read_all_projected(range, None)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.underlying_rows
            .fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
        {
            let mut inner = self.inner.lock();
            let others = inner
                .subscribers
                .get(source.name())
                .copied()
                .unwrap_or(1)
                .saturating_sub(1);
            if others > 0 && self.capacity > 0 && !inner.entries.contains_key(&in_flight.key) {
                inner.entries.insert(
                    in_flight.key.clone(),
                    Entry {
                        batch: batch.clone(),
                        remaining: others,
                    },
                );
                inner.order.push_back(in_flight.key.clone());
                while inner.order.len() > self.capacity {
                    if let Some(old) = inner.order.pop_front() {
                        inner.entries.remove(&old);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(in_flight); // wakes the waiters, who now hit the entry
        fan_out(batch, projection)
    }
}

/// A subscriber's copy of a shared batch: its projected columns, or the
/// batch itself (cloned only if the cache still holds it).
fn fan_out(batch: Arc<RecordBatch>, projection: Option<&[usize]>) -> Result<RecordBatch> {
    match projection {
        Some(idx) => batch.project(idx),
        None => Ok(Arc::unwrap_or_clone(batch)),
    }
}

/// The marker of one underlying read in progress. Dropping it — also
/// when the read fails or panics — clears the marker and wakes the
/// readers waiting on the key; finding no entry, one of them reads.
struct InFlight<'a> {
    cache: &'a ScanCache,
    key: String,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.cache.inner.lock().loading.remove(&self.key);
        self.cache.loaded.notify_all();
    }
}

/// A [`Source`] decorator that routes whole-range reads through a
/// shared [`ScanCache`]. Everything else — offsets, schema, partition
/// metadata — delegates to the wrapped source, so the engine's epoch
/// protocol is unchanged; only the bytes-moved accounting differs.
pub struct SharedScanSource {
    inner: Arc<dyn Source>,
    cache: Arc<ScanCache>,
}

impl SharedScanSource {
    /// Wrap `inner` and register as one subscriber of it.
    pub fn new(inner: Arc<dyn Source>, cache: Arc<ScanCache>) -> Arc<SharedScanSource> {
        cache.subscribe(inner.name());
        Arc::new(SharedScanSource { inner, cache })
    }

    pub fn cache(&self) -> &Arc<ScanCache> {
        &self.cache
    }
}

impl Drop for SharedScanSource {
    fn drop(&mut self) {
        self.cache.unsubscribe(self.inner.name());
    }
}

impl Source for SharedScanSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn num_partitions(&self) -> u32 {
        self.inner.num_partitions()
    }

    fn latest_offsets(&self) -> Result<PartitionOffsets> {
        self.inner.latest_offsets()
    }

    fn earliest_offsets(&self) -> Result<PartitionOffsets> {
        self.inner.earliest_offsets()
    }

    fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
        self.inner.read_partition(partition, start, end)
    }

    fn bus_binding(&self) -> Option<(Arc<MessageBus>, String)> {
        self.inner.bus_binding()
    }

    fn ingest_bounds(&self, range: &OffsetRange) -> Result<Option<(i64, i64)>> {
        self.inner.ingest_bounds(range)
    }

    fn read_all_projected(
        &self,
        range: &OffsetRange,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        self.cache.read_through(self.inner.as_ref(), range, projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::BusSource;
    use ss_common::{row, DataType, Field, Schema};

    fn mk_bus(rows: u64) -> Arc<MessageBus> {
        let bus = Arc::new(MessageBus::new());
        bus.create_topic("t", 2).unwrap();
        for i in 0..rows {
            bus.append("t", (i % 2) as u32, vec![row![format!("k{i}"), i as i64]])
                .unwrap();
        }
        bus
    }

    fn schema() -> SchemaRef {
        Schema::of(vec![
            Field::new("k", DataType::Utf8),
            Field::new("n", DataType::Int64),
        ])
    }

    fn full_range(src: &dyn Source) -> OffsetRange {
        OffsetRange {
            start: PartitionOffsets::new(),
            end: src.latest_offsets().unwrap(),
        }
    }

    #[test]
    fn second_subscriber_hits_and_entry_self_evicts() {
        let bus = mk_bus(10);
        let inner: Arc<dyn Source> = Arc::new(BusSource::new(bus, "t", schema()).unwrap());
        let cache = ScanCache::new(16);
        let a = SharedScanSource::new(inner.clone(), cache.clone());
        let b = SharedScanSource::new(inner.clone(), cache.clone());
        let range = full_range(inner.as_ref());

        let ba = a.read_all_projected(&range, None).unwrap();
        let bb = b.read_all_projected(&range, None).unwrap();
        assert_eq!(ba.to_rows(), bb.to_rows());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.underlying_rows, 10);
        assert_eq!(stats.fanned_rows, 10);
        // Fully consumed: the entry is gone (self-evicted).
        assert_eq!(stats.evictions, 1);

        // A third read of the same range misses again (nothing cached,
        // and with both subscribers already served nothing should be).
        let _ = a.read_all_projected(&range, None).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    /// Delegates to a [`BusSource`]; the first whole-range read of a
    /// round announces itself, then waits (bounded) for a second one to
    /// reach the source — which only a cache that lets two readers miss
    /// the same range together ever produces.
    struct GatedSource {
        inner: BusSource,
        calls: AtomicU64,
        first_in: std::sync::mpsc::Sender<()>,
        second_in: (std::sync::Mutex<bool>, Condvar),
    }

    impl Source for GatedSource {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> SchemaRef {
            self.inner.schema()
        }
        fn num_partitions(&self) -> u32 {
            self.inner.num_partitions()
        }
        fn latest_offsets(&self) -> Result<PartitionOffsets> {
            self.inner.latest_offsets()
        }
        fn read_partition(&self, partition: u32, start: u64, end: u64) -> Result<RecordBatch> {
            self.inner.read_partition(partition, start, end)
        }
        fn read_all_projected(
            &self,
            range: &OffsetRange,
            projection: Option<&[usize]>,
        ) -> Result<RecordBatch> {
            let (second, arrived) = &self.second_in;
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                self.first_in.send(()).unwrap();
                let wait = std::time::Duration::from_millis(100);
                drop(arrived.wait_timeout_while(second.lock().unwrap(), wait, |s| !*s).unwrap());
            } else {
                *second.lock().unwrap() = true;
                arrived.notify_all();
            }
            self.inner.read_all_projected(range, projection)
        }
    }

    #[test]
    fn concurrent_misses_of_one_range_read_the_bus_once() {
        let bus = mk_bus(10);
        let (first_in, first_seen) = std::sync::mpsc::channel();
        let gated = Arc::new(GatedSource {
            inner: BusSource::new(bus, "t", schema()).unwrap(),
            calls: AtomicU64::new(0),
            first_in,
            second_in: (std::sync::Mutex::new(false), Condvar::new()),
        });
        let cache = ScanCache::new(16);
        let a = SharedScanSource::new(gated.clone(), cache.clone());
        let b = SharedScanSource::new(gated.clone(), cache.clone());
        let whole = full_range(gated.as_ref());
        let mut half = whole.clone();
        half.end = half.end.iter().map(|(&p, &o)| (p, o / 2)).collect();
        for (round, range) in [(1, &half), (2, &whole)] {
            gated.calls.store(0, Ordering::SeqCst);
            *gated.second_in.0.lock().unwrap() = false;
            std::thread::scope(|s| {
                let first = s.spawn(|| a.read_all_projected(range, Some(&[1])).unwrap());
                // `a` is inside the underlying read when `b` asks.
                first_seen.recv().unwrap();
                let second = s.spawn(|| b.read_all_projected(range, Some(&[1])).unwrap());
                assert_eq!(first.join().unwrap(), second.join().unwrap());
            });
            assert_eq!(gated.calls.load(Ordering::SeqCst), 1, "one bus read per range");
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.hits), (round, round));
        }
        // Every record of either range came off the bus exactly once.
        assert_eq!(cache.stats().underlying_rows, half.num_records() + whole.num_records());
    }

    #[test]
    fn projection_is_applied_at_fanout_over_one_read() {
        let bus = mk_bus(6);
        let inner: Arc<dyn Source> = Arc::new(BusSource::new(bus, "t", schema()).unwrap());
        let cache = ScanCache::new(16);
        let a = SharedScanSource::new(inner.clone(), cache.clone());
        let b = SharedScanSource::new(inner.clone(), cache.clone());
        let range = full_range(inner.as_ref());

        let ba = a.read_all_projected(&range, Some(&[1])).unwrap();
        let bb = b.read_all_projected(&range, Some(&[0])).unwrap();
        assert_eq!(ba.schema().fields().len(), 1);
        assert_eq!(ba.schema().field(0).name, "n");
        assert_eq!(bb.schema().field(0).name, "k");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn single_subscriber_never_caches() {
        let bus = mk_bus(4);
        let inner: Arc<dyn Source> = Arc::new(BusSource::new(bus, "t", schema()).unwrap());
        let cache = ScanCache::new(16);
        let a = SharedScanSource::new(inner.clone(), cache.clone());
        let range = full_range(inner.as_ref());
        let _ = a.read_all_projected(&range, None).unwrap();
        let _ = a.read_all_projected(&range, None).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let bus = mk_bus(8);
        let inner: Arc<dyn Source> = Arc::new(BusSource::new(bus, "t", schema()).unwrap());
        let cache = ScanCache::new(1);
        let a = SharedScanSource::new(inner.clone(), cache.clone());
        let _b = SharedScanSource::new(inner.clone(), cache.clone());
        // Two distinct ranges from subscriber a; capacity 1 keeps only
        // the later one.
        let mut r1 = full_range(inner.as_ref());
        r1.end = r1.end.iter().map(|(&p, _)| (p, 1)).collect();
        let r2 = full_range(inner.as_ref());
        let _ = a.read_all_projected(&r1, None).unwrap();
        let _ = a.read_all_projected(&r2, None).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.inner.lock().entries.len(), 1);
    }

    #[test]
    fn unsubscribe_drops_subscriber_count() {
        let bus = mk_bus(2);
        let inner: Arc<dyn Source> = Arc::new(BusSource::new(bus, "t", schema()).unwrap());
        let cache = ScanCache::new(4);
        let a = SharedScanSource::new(inner.clone(), cache.clone());
        let b = SharedScanSource::new(inner.clone(), cache.clone());
        assert_eq!(cache.subscriber_count("t"), 2);
        drop(a);
        assert_eq!(cache.subscriber_count("t"), 1);
        drop(b);
        assert_eq!(cache.subscriber_count("t"), 0);
    }
}
