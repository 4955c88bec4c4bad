//! One namespace's section of a checkpoint body: the `op` after its
//! name (laid out in the crate docs), written and read here. Form 0 is
//! untyped entries, which map namespaces write (and every `op` of a v1
//! body is). Form 1 is a group table's columnar runs, which the
//! aggregate's table writes with [`put_header`], [`put_run_head`],
//! [`put_ints`] and the row codec. [`read_section`]
//! expands either form into the entries and removed keys a map would
//! hold, so restore, spill reload and `dump_json` see one shape.

use ss_common::codec::{put_row, put_value, put_varint, Reader};
use ss_common::{Result, Row, SsError, Value};

use crate::store::StateEntry;

/// Form byte of an entry list.
pub const ENTRIES: u8 = 0;
/// Form byte of a group table's runs.
pub const GROUP_RUNS: u8 = 1;

/// A section expanded: its entries and its removed keys.
pub type Section = (Vec<(Row, StateEntry)>, Vec<Row>);

/// How a group-run section holds its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyForm {
    /// A codec row per key (a window among its values).
    Row,
    /// A BIGINT (TIMESTAMP when `timestamp`) or NULL, expanding to
    /// `[v]`, or to `[Timestamp(run start), v]` when `window`.
    Int { timestamp: bool, window: bool },
}

/// How a group-run section holds one aggregate's states: a count, a
/// BIGINT or a TIMESTAMP (each an integer column, expanding to its
/// one-value state row), or a codec state row as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotForm {
    Count,
    Int,
    Timestamp,
    State,
}

/// By their bytes.
const SLOT_FORMS: [SlotForm; 4] =
    [SlotForm::Count, SlotForm::Int, SlotForm::Timestamp, SlotForm::State];

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Open a group-run section: its form byte and header.
pub fn put_header(out: &mut Vec<u8>, key: KeyForm, slots: &[SlotForm]) {
    let key = match key {
        KeyForm::Row => 0,
        KeyForm::Int { timestamp, window } => 1 + u8::from(timestamp) + 2 * u8::from(window),
    };
    out.extend_from_slice(&[GROUP_RUNS, key]);
    put_varint(out, slots.len() as u64);
    out.extend(slots.iter().map(|&s| s as u8));
}

/// Open a run of `n` groups (or removed keys) of the window at `start`:
/// its key column and, for groups, one column per slot follow.
pub fn put_run_head(out: &mut Vec<u8>, start: i64, n: usize) {
    put_varint(out, zigzag(start));
    put_varint(out, n as u64);
}

/// An integer column: a bitmap of its NULLs (bit `i % 8` of byte
/// `i / 8`), then each other cell as a zigzag varint.
pub fn put_ints(out: &mut Vec<u8>, cells: impl ExactSizeIterator<Item = Option<i64>>) {
    let at = out.len();
    out.resize(at + cells.len().div_ceil(8), 0);
    for (i, cell) in cells.enumerate() {
        match cell {
            Some(v) => put_varint(out, zigzag(v)),
            None => out[at + i / 8] |= 1 << (i % 8),
        }
    }
}

/// One form-0 entry.
pub(crate) fn put_entry(out: &mut Vec<u8>, key: &Row, entry: &StateEntry) {
    put_row(out, key);
    put_value(out, &entry.timeout_at.map_or(Value::Null, Value::Int64));
    put_varint(out, entry.values.len() as u64);
    entry.values.iter().for_each(|row| put_row(out, row));
}

fn bad(what: &str) -> SsError {
    SsError::Corruption(what.to_string())
}

/// Expand one section, exactly as `TypedTable::encode` wrote it.
pub fn read_section(bytes: &[u8]) -> Result<Section> {
    let mut rd = Reader(bytes);
    let section = read_op(&mut rd, true)?;
    rd.0.is_empty().then_some(section).ok_or_else(|| bad("trailing bytes after the section"))
}

/// Expand the section at `rd`, which has no form byte (is form 0) in a
/// v1 body. Counts are checked against the bytes that remain before
/// anything is reserved, so malformed input is `Corruption`, never a
/// panic or an outsized allocation.
pub(crate) fn read_op(rd: &mut Reader, formed: bool) -> Result<Section> {
    match if formed { rd.u8()? } else { ENTRIES } {
        ENTRIES => read_entries(rd),
        GROUP_RUNS => read_runs(rd),
        _ => Err(bad("unknown section form")),
    }
}

fn read_entries(rd: &mut Reader) -> Result<Section> {
    let n = rd.count(3)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = rd.row()?;
        let timeout_at = match rd.value()? {
            Value::Null => None,
            Value::Int64(t) => Some(t),
            _ => return Err(bad("timeout is neither NULL nor an Int64")),
        };
        let values = (0..rd.count(1)?).map(|_| rd.row()).collect::<Result<_>>()?;
        entries.push((key, StateEntry { values, timeout_at }));
    }
    let removed = (0..rd.count(1)?).map(|_| rd.row()).collect::<Result<_>>()?;
    Ok((entries, removed))
}

fn read_runs(rd: &mut Reader) -> Result<Section> {
    let key = match rd.u8()? {
        0 => KeyForm::Row,
        b @ 1..=4 => KeyForm::Int { timestamp: b % 2 == 0, window: b > 2 },
        _ => return Err(bad("unknown group key form")),
    };
    let slot = |b: u8| SLOT_FORMS.get(b as usize).copied().ok_or_else(|| bad("unknown slot form"));
    let slots = (0..rd.count(1)?).map(|_| slot(rd.u8()?)).collect::<Result<Vec<_>>>()?;
    let mut entries: Vec<(Row, StateEntry)> = Vec::new();
    for _ in 0..rd.count(2)? {
        let (start, n) = (unzigzag(rd.varint()?), rd.count(1)?);
        let first = entries.len();
        let fresh = || StateEntry::new(Vec::with_capacity(slots.len()));
        read_keys(rd, key, start, n, |k| entries.push((k, fresh())))?;
        for &slot in &slots {
            let mut run = entries[first..].iter_mut().map(|(_, e)| &mut e.values);
            let mut push = |v: Value| run.next().expect("a cell per group").push(Row(vec![v]));
            match slot {
                SlotForm::Count | SlotForm::Int | SlotForm::Timestamp => {
                    read_ints(rd, n, |v| push(int_value(v, slot == SlotForm::Timestamp)))?
                }
                SlotForm::State => {
                    for values in run {
                        values.push(rd.row()?);
                    }
                }
            }
        }
    }
    let mut removed = Vec::new();
    for _ in 0..rd.count(2)? {
        let (start, n) = (unzigzag(rd.varint()?), rd.count(1)?);
        read_keys(rd, key, start, n, |k| removed.push(k))?;
    }
    Ok((entries, removed))
}

fn int_value(v: Option<i64>, timestamp: bool) -> Value {
    match v {
        None => Value::Null,
        Some(v) if timestamp => Value::Timestamp(v),
        Some(v) => Value::Int64(v),
    }
}

/// The row an integer key `v` of a run at `start` stands for: `[v]`, or
/// `[Timestamp(start), v]` after a window.
pub fn key_row(timestamp: bool, window: bool, start: i64, v: Option<i64>) -> Row {
    let v = int_value(v, timestamp);
    Row(if window { vec![Value::Timestamp(start), v] } else { vec![v] })
}

/// `n` cells of an integer column. Each non-NULL cell takes a byte at
/// least, so a run's count is checked against the bytes that remain.
fn read_ints(rd: &mut Reader, n: usize, mut cell: impl FnMut(Option<i64>)) -> Result<()> {
    let nulls = rd.bytes(n.div_ceil(8))?;
    for i in 0..n {
        match nulls[i / 8] >> (i % 8) & 1 {
            0 => cell(Some(unzigzag(rd.varint()?))),
            _ => cell(None),
        }
    }
    Ok(())
}

fn read_keys(
    rd: &mut Reader,
    form: KeyForm,
    start: i64,
    n: usize,
    mut key: impl FnMut(Row),
) -> Result<()> {
    let KeyForm::Int { timestamp, window } = form else {
        for _ in 0..n {
            key(rd.row()?);
        }
        return Ok(());
    };
    read_ints(rd, n, |v| key(key_row(timestamp, window, start, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::codec::put_values;
    use ss_common::row;

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for v in [0, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!((zigzag(0), zigzag(-1), zigzag(1)), (0, 1, 2));
    }

    #[test]
    fn group_runs_expand_to_the_entries_they_stand_for() {
        let mut out = Vec::new();
        let key = KeyForm::Int { timestamp: false, window: true };
        put_header(&mut out, key, &[SlotForm::Count, SlotForm::Timestamp, SlotForm::State]);
        put_varint(&mut out, 1);
        put_run_head(&mut out, -10, 2);
        put_ints(&mut out, [None, Some(-3)].into_iter());
        put_ints(&mut out, [Some(2), Some(1)].into_iter());
        put_ints(&mut out, [Some(7), None].into_iter());
        put_values(&mut out, &[Value::Float64(1.5), Value::Int64(2)]);
        put_values(&mut out, &[]);
        put_varint(&mut out, 1);
        put_run_head(&mut out, -20, 1);
        put_ints(&mut out, [Some(i64::MIN)].into_iter());
        let (entries, removed) = read_section(&out).unwrap();
        let ts = Value::Timestamp;
        assert_eq!(
            entries,
            vec![
                (
                    row![ts(-10), Value::Null],
                    StateEntry::new(vec![row![2i64], row![ts(7)], row![1.5, 2i64]])
                ),
                (
                    row![ts(-10), -3i64],
                    StateEntry::new(vec![row![1i64], row![Value::Null], Row::empty()])
                ),
            ]
        );
        assert_eq!(removed, vec![row![ts(-20), i64::MIN]]);
        for cut in 0..out.len() {
            assert_eq!(read_section(&out[..cut]).unwrap_err().category(), "corruption");
        }
    }
}
