//! Epoch-scoped trace spans, dumpable as a `chrome://tracing` /
//! Perfetto-compatible JSON event log.
//!
//! The trace is derived from the two records an epoch writes, never
//! written beside them: the engine's one phase helper opens a
//! **B**egin/**E**nd span under each profile phase's own name (`wal`,
//! `source-read`, `execute`, `sink-commit`, `state-commit`) inside the
//! `epoch` span, the incremental plan adds one **X** (complete) event
//! per operator, and the [`EventLog`](crate::EventLog) built over the
//! trace mirrors every lifecycle event as an **i**nstant named after
//! its kind.
//!
//! [`TraceLog`] is a clonable handle around a shared, bounded event
//! buffer; recording is a short mutex-protected push, cheap relative to
//! the phases being traced (which are all I/O- or batch-sized). When
//! the buffer is full new events are dropped and counted rather than
//! blocking the query.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Content, Serialize};

use crate::metrics::Counter;

/// Default maximum number of buffered events before dropping.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One trace event in the chrome://tracing "trace event format".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name, e.g. `"epoch"` or `"sink-commit"`.
    pub name: String,
    /// Phase: `'B'` (begin), `'E'` (end), `'X'` (complete), `'i'` (instant).
    pub ph: char,
    /// Timestamp in µs relative to the log's origin.
    pub ts_us: u64,
    /// Duration in µs; only present for `'X'` events.
    pub dur_us: Option<u64>,
    /// Thread id (a stable per-thread hash).
    pub tid: u64,
    /// Extra key/value context rendered into the event's `args`.
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
struct TraceInner {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    /// Optional registry counter mirroring `dropped`, so silent span
    /// loss shows up as `ss_trace_dropped_total` in `/metrics`.
    drop_counter: Mutex<Option<Counter>>,
}

/// A shared, bounded trace-event log. Clones share the buffer.
#[derive(Debug, Clone)]
pub struct TraceLog {
    inner: Arc<TraceInner>,
}

impl Default for TraceLog {
    fn default() -> TraceLog {
        TraceLog::new()
    }
}

fn current_tid() -> u64 {
    // ThreadId has no stable numeric accessor; hash its Debug repr.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() % 1_000_000
}

impl TraceLog {
    pub fn new() -> TraceLog {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> TraceLog {
        TraceLog {
            inner: Arc::new(TraceInner {
                origin: Instant::now(),
                events: Mutex::new(Vec::new()),
                capacity,
                dropped: AtomicU64::new(0),
                drop_counter: Mutex::new(None),
            }),
        }
    }

    /// Mirror future buffer-full drops into `counter` (typically the
    /// registry's `ss_trace_dropped_total`). Drops that already
    /// happened are credited immediately so the counter never
    /// understates [`TraceLog::dropped`].
    pub fn attach_drop_counter(&self, counter: Counter) {
        let already = self.inner.dropped.load(Ordering::Relaxed);
        if already > counter.get() {
            counter.add(already - counter.get());
        }
        *self.inner.drop_counter.lock() = Some(counter);
    }

    /// Microseconds since this log was created.
    pub fn now_us(&self) -> u64 {
        self.inner.origin.elapsed().as_micros() as u64
    }

    fn push(&self, ev: TraceEvent) {
        let mut events = self.inner.events.lock();
        if events.len() >= self.inner.capacity {
            drop(events);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.inner.drop_counter.lock().as_ref() {
                c.inc();
            }
            return;
        }
        events.push(ev);
    }

    fn args_vec(args: &[(&str, &str)]) -> Vec<(String, String)> {
        args.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Record a span begin (`ph: "B"`).
    pub fn begin(&self, name: &str, args: &[(&str, &str)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            ph: 'B',
            ts_us: self.now_us(),
            dur_us: None,
            tid: current_tid(),
            args: Self::args_vec(args),
        });
    }

    /// Record a span end (`ph: "E"`).
    pub fn end(&self, name: &str) {
        self.push(TraceEvent {
            name: name.to_string(),
            ph: 'E',
            ts_us: self.now_us(),
            dur_us: None,
            tid: current_tid(),
            args: Vec::new(),
        });
    }

    /// Record a complete event (`ph: "X"`) that started `ts_us` into
    /// the log and lasted `dur_us`.
    pub fn complete(&self, name: &str, ts_us: u64, dur_us: u64, args: &[(&str, &str)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            ph: 'X',
            ts_us,
            dur_us: Some(dur_us),
            tid: current_tid(),
            args: Self::args_vec(args),
        });
    }

    /// Record an instant event (`ph: "i"`); the event log's mirror.
    pub fn instant(&self, name: &str, args: Vec<(String, String)>) {
        self.push(TraceEvent {
            name: name.to_string(),
            ph: 'i',
            ts_us: self.now_us(),
            dur_us: None,
            tid: current_tid(),
            args,
        });
    }

    /// Begin a span and return a guard that ends it on drop.
    pub fn span(&self, name: &str, args: &[(&str, &str)]) -> TraceSpan {
        self.begin(name, args);
        TraceSpan {
            log: self.clone(),
            name: name.to_string(),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A copy of all buffered events, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().clone()
    }

    pub fn clear(&self) {
        self.inner.events.lock().clear();
        self.inner.dropped.store(0, Ordering::Relaxed);
    }

    /// This log as a chrome://tracing document, all events under pid 1.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.chrome_events(1))
    }

    /// This log's events placed under process `pid`. The introspection
    /// server merges several queries into one trace, one pid per query.
    pub fn chrome_events(&self, pid: u64) -> Vec<ChromeEvent> {
        let events = self.inner.events.lock();
        events.iter().map(|event| ChromeEvent { pid, event: event.clone() }).collect()
    }
}

/// A [`TraceEvent`] under a chrome://tracing process id.
#[derive(Debug)]
pub struct ChromeEvent {
    pid: u64,
    event: TraceEvent,
}

impl ChromeEvent {
    /// The metadata event naming process `pid` in the trace viewer.
    pub fn process_name(pid: u64, name: &str) -> ChromeEvent {
        let event = TraceEvent {
            name: "process_name".into(),
            ph: 'M',
            ts_us: 0,
            dur_us: None,
            tid: 0,
            args: vec![("name".into(), name.into())],
        };
        ChromeEvent { pid, event }
    }
}

// Hand-written: metadata (`M`) events have no `ts`, only `X` events a
// `dur`, instant events a scope `s`, and `args` is an object present
// only when non-empty.
impl Serialize for ChromeEvent {
    fn ser(&self) -> Content {
        let k = |s: &str| Content::Str(s.into());
        let ev = &self.event;
        let mut map = vec![(k("name"), ev.name.ser()), (k("ph"), ev.ph.ser())];
        if ev.ph != 'M' {
            map.push((k("ts"), ev.ts_us.ser()));
        }
        map.extend([(k("pid"), self.pid.ser()), (k("tid"), ev.tid.ser())]);
        if let Some(dur) = ev.dur_us {
            map.push((k("dur"), dur.ser()));
        }
        if ev.ph == 'i' {
            // "t" = thread-scoped.
            map.push((k("s"), k("t")));
        }
        if !ev.args.is_empty() {
            let args = ev.args.iter().map(|(a, v)| (k(a), k(v))).collect();
            map.push((k("args"), Content::Map(args)));
        }
        Content::Map(map)
    }
}

/// The chrome://tracing JSON object format, `{"traceEvents":[...]}`.
/// Load it via `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    crate::to_json(&BTreeMap::from([("traceEvents", events)]))
}

/// Guard returned by [`TraceLog::span`]; records the matching end
/// event when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    log: TraceLog,
    name: String,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.log.end(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_emits_begin_and_end() {
        let log = TraceLog::new();
        {
            let _s = log.span("epoch", &[("epoch", "3")]);
            log.instant("offsets-written", Vec::new());
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].ph, events[0].name.as_str()), ('B', "epoch"));
        assert_eq!(events[0].args, vec![("epoch".to_string(), "3".to_string())]);
        assert_eq!(events[1].ph, 'i');
        assert_eq!((events[2].ph, events[2].name.as_str()), ('E', "epoch"));
        assert!(events[0].ts_us <= events[2].ts_us);
    }

    #[test]
    fn complete_events_carry_duration() {
        let log = TraceLog::new();
        log.complete("op:agg-0", 10, 250, &[("rows", "42")]);
        let ev = &log.events()[0];
        assert_eq!(ev.ph, 'X');
        assert_eq!(ev.ts_us, 10);
        assert_eq!(ev.dur_us, Some(250));
    }

    #[test]
    fn chrome_json_shape() {
        let log = TraceLog::new();
        log.begin("epoch", &[("epoch", "1")]);
        log.complete("op:\"scan\"", 5, 7, &[]);
        log.end("epoch");
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"dur\":7"));
        assert!(json.contains("op:\\\"scan\\\""), "escaping: {json}");
        assert!(json.contains("\"args\":{\"epoch\":\"1\"}"));
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let log = TraceLog::with_capacity(2);
        log.instant("a", Vec::new());
        log.instant("b", Vec::new());
        log.instant("c", Vec::new());
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn drop_counter_mirrors_buffer_drops() {
        let log = TraceLog::with_capacity(1);
        log.instant("kept", Vec::new());
        log.instant("lost-before-attach", Vec::new());
        let c = Counter::new();
        // Attaching after a drop credits the backlog.
        log.attach_drop_counter(c.clone());
        assert_eq!(c.get(), 1);
        log.instant("lost-after-attach", Vec::new());
        assert_eq!(log.dropped(), 2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn chrome_events_use_the_given_pid() {
        let log = TraceLog::new();
        log.instant("marker", Vec::new());
        let mut events = vec![ChromeEvent::process_name(7, "q")];
        events.extend(log.chrome_events(7));
        let json = chrome_trace_json(&events);
        let meta = r#"{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"q"}}"#;
        assert!(json.starts_with(&format!(r#"{{"traceEvents":[{meta},"#)), "got: {json}");
        assert!(json.contains(r#""ph":"i","ts":"#) && json.contains(r#""pid":7"#), "got: {json}");
        assert!(json.ends_with(r#""s":"t"}]}"#), "got: {json}");
        assert!(log.to_chrome_json().contains("\"pid\":1"));
    }
}
