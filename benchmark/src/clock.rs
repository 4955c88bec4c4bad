//! The harness's one clock: microseconds on a process-wide monotonic
//! base. Event `created_us` stamps, sink receipt times and trace spans
//! all read it, so differences between them are meaningful.

use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first call in this process.
pub fn now_us() -> i64 {
    BASE.get_or_init(Instant::now).elapsed().as_micros() as i64
}
