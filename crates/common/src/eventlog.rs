//! A structured, append-only query lifecycle log, rendered as JSON
//! Lines (one JSON object per line).
//!
//! Where the metrics registry answers "how much" and the trace log
//! answers "where did the time go", the event log answers "what
//! happened": query start, per-epoch progress, restarts, state spills,
//! admission-limited epochs and termination, each stamped with a
//! wall-clock timestamp. The buffer is bounded (oldest events are
//! evicted) and can optionally mirror every event to a JSONL file for
//! offline analysis (`SS_EVENT_LOG=<path>` in the engine).

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Content, Serialize};
use serde_json::Value;

use crate::time::now_us;
use crate::to_json;

/// Default maximum number of retained events.
pub const DEFAULT_EVENT_CAPACITY: usize = 4_096;

/// Well-known event kinds emitted by the engines.
pub const EVENT_START: &str = "start";
pub const EVENT_PROGRESS: &str = "progress";
pub const EVENT_RESTART: &str = "restart";
pub const EVENT_SPILL: &str = "spill";
pub const EVENT_ADMISSION_LIMITED: &str = "admission-limited";
pub const EVENT_TERMINATE: &str = "terminate";
pub const EVENT_QUARANTINE: &str = "quarantine";
pub const EVENT_WATCHDOG: &str = "watchdog";
pub const EVENT_FAILOVER: &str = "failover";

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuredEvent {
    /// Wall-clock µs since the Unix epoch.
    pub ts_us: i64,
    /// Event kind (one of the `EVENT_*` constants, or engine-defined).
    pub kind: String,
    /// The query this event belongs to.
    pub query: String,
    /// Extra context, each value typed as it is to appear in the JSON
    /// (a count is a number, a fingerprint or a name a string).
    pub fields: Vec<(String, Value)>,
}

// Hand-written: the fields follow the fixed keys, in emission order.
impl Serialize for StructuredEvent {
    fn ser(&self) -> Content {
        let k = |s: &str| Content::Str(s.into());
        let mut map = vec![
            (k("ts_us"), self.ts_us.ser()),
            (k("event"), self.kind.ser()),
            (k("query"), self.query.ser()),
        ];
        map.extend(self.fields.iter().map(|(f, v)| (k(f), v.ser())));
        Content::Map(map)
    }
}

#[derive(Debug)]
struct EventLogInner {
    events: VecDeque<StructuredEvent>,
    capacity: usize,
    file: Option<std::fs::File>,
}

/// A bounded, shared structured event log. Clones share the buffer.
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<Mutex<EventLogInner>>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            inner: Arc::new(Mutex::new(EventLogInner {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                file: None,
            })),
        }
    }

    /// Mirror every future event to `path` (JSONL, append mode).
    /// Returns an error if the file cannot be opened.
    pub fn attach_file(&self, path: &Path) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().file = Some(file);
        Ok(())
    }

    /// Record one event, stamped with the current wall clock.
    pub fn emit(&self, query: &str, kind: &str, fields: &[(&str, Value)]) {
        let ev = StructuredEvent {
            ts_us: now_us(),
            kind: kind.to_string(),
            query: query.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        let mut inner = self.inner.lock();
        if let Some(f) = inner.file.as_mut() {
            // Best-effort: a full disk must not take the query down.
            let _ = writeln!(f, "{}", to_json(&ev));
        }
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(ev);
    }

    /// A copy of all retained events, oldest first.
    pub fn events(&self) -> Vec<StructuredEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained events as JSON Lines (one object per line,
    /// trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        self.inner.lock().events.iter().map(|ev| to_json(ev) + "\n").collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_render_jsonl() {
        let log = EventLog::new();
        log.emit("q", EVENT_START, &[("engine", "microbatch".into())]);
        log.emit("q", EVENT_PROGRESS, &[("epoch", 3u64.into()), ("rows", 120u64.into())]);
        assert_eq!(log.len(), 2);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"start\""));
        assert!(lines[0].contains("\"query\":\"q\""));
        assert!(lines[0].contains("\"engine\":\"microbatch\""));
        // Numeric field values are JSON numbers, not strings.
        assert!(lines[1].contains("\"epoch\":3,\"rows\":120"), "got: {}", lines[1]);
        assert!(lines[1].starts_with("{\"ts_us\":"));
    }

    #[test]
    fn strings_are_escaped_and_fields_keep_their_type() {
        let ev = StructuredEvent {
            ts_us: 5,
            kind: "terminate".into(),
            query: "q\"1\"".into(),
            fields: vec![
                ("error".into(), "disk\nfull \\ dev".into()),
                ("ratio".into(), serde_json::to_value(&0.5).unwrap()),
                ("neg".into(), (-3i64).into()),
                ("fingerprint".into(), "0000000012345678".into()),
                ("holder".into(), "007".into()),
            ],
        };
        let json = to_json(&ev);
        assert!(json.contains("\"query\":\"q\\\"1\\\"\""));
        assert!(json.contains("\"error\":\"disk\\nfull \\\\ dev\""));
        assert!(json.contains("\"ratio\":0.5,\"neg\":-3,"), "{json}");
        // Digit-only strings stay strings: no type is guessed from text.
        let back: Value = serde_json::from_str(&json).unwrap();
        let text = |k: &str| back.get(k).and_then(Value::as_str);
        assert_eq!(text("fingerprint"), Some("0000000012345678"));
        assert_eq!(text("holder"), Some("007"));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = EventLog::with_capacity(2);
        log.emit("q", "a", &[]);
        log.emit("q", "b", &[]);
        log.emit("q", "c", &[]);
        let kinds: Vec<String> = log.events().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn file_mirror_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("ss-eventlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::new();
        log.attach_file(&path).unwrap();
        log.emit("q", EVENT_SPILL, &[("bytes", 1024u64.into())]);
        log.emit("q", EVENT_TERMINATE, &[]);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"event\":\"spill\""));
        let _ = std::fs::remove_file(&path);
    }
}
