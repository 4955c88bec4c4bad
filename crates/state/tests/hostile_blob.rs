//! Hostile checkpoint blobs: a blob that passes its CRC is still parsed
//! defensively, in both section forms (a map's entries and a group
//! table's columnar runs). Every truncation of a valid body and every single-byte
//! flip (re-framed, so the CRC is right) goes through the public
//! `restore` path under a counting allocator: truncations are
//! `Corruption`, flips are `Corruption` or a well-formed decode, nothing
//! panics, and no length field read from the blob ever sizes an
//! allocation beyond what the bytes behind it could fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ss_common::codec::{put_row, put_varint};
use ss_common::{frame, row, Result, Row, Value};
use ss_state::section::{put_header, put_ints, put_run_head, KeyForm, SlotForm};
use ss_state::{CheckpointBackend, MemoryBackend, StateEntry, StateStore, TypedTable};

/// Largest single allocation requested since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers to `System` unchanged; only records the size requested.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KEY: &str = "state/chk-00000000000000000001-full.bin";
/// Offset of the version byte (after the 4-byte magic).
const VERSION_AT: usize = 4;

/// A declared table whose section is group runs, built with the section
/// writer: a NULL key, negative keys and window starts, a typed slot
/// with NULLs, a state-row (`Any`) slot, and a removed key.
#[derive(Debug)]
struct Runs;

impl TypedTable for Runs {
    fn num_keys(&self) -> usize {
        4
    }
    fn approx_bytes(&self) -> usize {
        0
    }
    fn is_clean(&self) -> bool {
        true
    }
    fn encode(&self, _full: bool, out: &mut Vec<u8>) {
        let key = KeyForm::Int { timestamp: false, window: true };
        put_header(out, key, &[SlotForm::Count, SlotForm::Int, SlotForm::State]);
        put_varint(out, 2);
        put_run_head(out, -10_000_000, 3);
        put_ints(out, [None, Some(-3), Some(300)].into_iter());
        put_ints(out, [Some(4), Some(1), Some(200)].into_iter());
        put_ints(out, [Some(-7), None, Some(i64::MIN)].into_iter());
        for state in [row![2.5, 4i64], row![Value::Null, 0i64], row!["näme", 1i64]] {
            put_row(out, &state);
        }
        put_run_head(out, 0, 1);
        put_ints(out, [Some(-1)].into_iter());
        put_ints(out, [Some(1)].into_iter());
        put_ints(out, [None].into_iter());
        put_row(out, &row![1.0, 1i64]);
        put_varint(out, 1);
        put_run_head(out, -20_000_000, 1);
        put_ints(out, [Some(9)].into_iter());
    }
    fn clear_tracking(&mut self) {}
    fn take_counts(&mut self) -> (u64, u64) {
        (0, 0)
    }
    fn restore_entry(&mut self, _key: Row, _entry: StateEntry) -> Result<()> {
        unreachable!("only written")
    }
    fn clear(&mut self) {}
}

fn valid_body() -> Vec<u8> {
    let backend = Arc::new(MemoryBackend::new());
    let mut s = StateStore::new(backend.clone());
    let op = s.operator("agg");
    op.put(
        row![Value::Timestamp(10_000_000), 7i64],
        StateEntry::new(vec![row![1i64], row![2.5], row![Value::Null, "näme", true]]),
    );
    let mut timed = StateEntry::new(vec![Row::empty()]);
    timed.timeout_at = Some(99);
    op.put(row!["user"], timed);
    s.operator("empty");
    s.operator("runs").table(|| Runs);
    s.checkpoint(1).unwrap();
    frame::decode(&backend.read(KEY).unwrap().unwrap()).unwrap().to_vec()
}

/// Restore from `body` re-framed under a correct CRC; returns the
/// error category (or "ok") and the largest allocation it made.
fn restore(body: &[u8]) -> (&'static str, usize) {
    let backend = Arc::new(MemoryBackend::new());
    backend.write_atomic(KEY, &frame::encode(body)).unwrap();
    let mut s = StateStore::new(backend);
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = match s.restore(1) {
        Ok(()) => "ok",
        Err(e) => e.category(),
    };
    (outcome, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn truncated_and_flipped_bodies_never_panic_or_over_allocate() {
    let body = valid_body();
    // Decoded state is wider than its encoding (a 24-byte `Value` per
    // one-byte NULL, a 64-byte entry per three encoded bytes at least),
    // so "no larger than the input" means: within that fixed factor of
    // the bytes present, whatever a count field claims.
    let limit = body.len() * 32 + 4096;
    assert_eq!(restore(&body).0, "ok");
    // The group runs expand into the entries they stand for.
    let backend = Arc::new(MemoryBackend::new());
    backend.write_atomic(KEY, &frame::encode(&body)).unwrap();
    let mut s = StateStore::new(backend);
    s.restore(1).unwrap();
    let ts = Value::Timestamp;
    let mut runs: Vec<_> = s.operator("runs").iter().map(|(k, e)| (k.clone(), e.clone())).collect();
    runs.sort_by(|a, b| a.0.cmp(&b.0));
    let entry = |rows: Vec<Row>| StateEntry::new(rows);
    assert_eq!(
        runs,
        vec![
            (row![ts(-10_000_000), Value::Null], entry(vec![row![4i64], row![-7i64], row![2.5, 4i64]])),
            (row![ts(-10_000_000), -3i64], entry(vec![row![1i64], row![Value::Null], row![Value::Null, 0i64]])),
            (row![ts(-10_000_000), 300i64], entry(vec![row![200i64], row![i64::MIN], row!["näme", 1i64]])),
            (row![ts(0), -1i64], entry(vec![row![1i64], row![Value::Null], row![1.0, 1i64]])),
        ]
    );

    for cut in 0..body.len() {
        let (outcome, largest) = restore(&body[..cut]);
        assert_eq!(outcome, "corruption", "cut at {cut}");
        assert!(largest <= limit, "cut at {cut} allocated {largest}");
    }
    for i in 0..body.len() {
        for mask in [0x01u8, 0x10, 0x80, 0xff] {
            let mut bad = body.clone();
            bad[i] ^= mask;
            let (outcome, largest) = restore(&bad);
            let allowed: &[&str] = if i == VERSION_AT {
                &["corruption", "unsupported"]
            } else {
                &["corruption", "ok"]
            };
            assert!(allowed.contains(&outcome), "flip {mask:#x} at {i}: {outcome}");
            assert!(largest <= limit, "flip {mask:#x} at {i} allocated {largest}");
        }
    }

    // A count of four billion is refused, not allocated. The first
    // operator's entry count (one varint byte) follows the header
    // (magic, version, kind, epoch), the operator count, "agg" and its
    // form byte.
    let at = 4 + 1 + 1 + 8 + 1 + 1 + "agg".len() + 1;
    let mut bad = body.clone();
    bad.splice(at..at + 1, [0xff, 0xff, 0xff, 0xff, 0x0f]);
    let (outcome, largest) = restore(&bad);
    assert_eq!(outcome, "corruption");
    assert!(largest <= limit, "allocated {largest}");
}
