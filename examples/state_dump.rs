//! Print a state checkpoint as JSON. Checkpoints are binary on disk
//! (`state/chk-<epoch>-{full,delta}.bin`); this is the human-readable
//! view. A group table's columnar runs print as the entries they stand
//! for, and older builds' blobs (binary body v1, legacy `.json`) read
//! too.
//!
//! ```text
//! cargo run --release --example state_dump -- <checkpoint-dir> [epoch]
//! ```
//!
//! Without an epoch it lists the retained epochs and dumps the newest.

use std::sync::Arc;

use structured_streaming::ss_common::{Result, SsError};
use structured_streaming::ss_state::{FsBackend, StateStore};

fn main() -> Result<()> {
    let mut args = std::env::args().skip(1);
    let dir = args.next().ok_or_else(|| {
        SsError::Execution("usage: state_dump <checkpoint-dir> [epoch]".into())
    })?;
    let store = StateStore::new(Arc::new(FsBackend::new(&dir)?));
    let epoch = match args.next() {
        Some(e) => e.parse().map_err(|_| SsError::Execution(format!("bad epoch `{e}`")))?,
        None => {
            eprintln!("retained epochs: {:?}", store.retained_epochs()?);
            store.latest_checkpoint(None)?.ok_or_else(|| {
                SsError::Execution(format!("no state checkpoints under {dir}"))
            })?
        }
    };
    println!("{}", store.dump_json(epoch)?);
    Ok(())
}
