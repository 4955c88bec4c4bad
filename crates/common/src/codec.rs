//! Binary codec for [`Value`]s and [`Row`]s — the one byte encoding of
//! operator state. Self-describing (state rows are heterogeneous, so
//! there is no schema to lean on) and written by reference.
//!
//! ```text
//! row    = varint arity, value*
//! value  = tag u8, payload
//!          0 NULL | 1 false | 2 true     (no payload)
//!          3 Int64 | 6 Timestamp          i64, little-endian
//!          4 Float64                      IEEE-754 bits, little-endian
//!          5 Utf8                         varint byte length, UTF-8
//! varint = unsigned LEB128, at most 10 bytes
//! ```

use std::sync::Arc;

use crate::error::{Result, SsError};
use crate::row::Row;
use crate::types::Value;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT64: u8 = 3;
const FLOAT64: u8 = 4;
const UTF8: u8 = 5;
const TIMESTAMP: u8 = 6;

/// Append `n` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    let (tag, payload) = match v {
        Value::Null => return out.push(NULL),
        Value::Boolean(b) => return out.push(if *b { TRUE } else { FALSE }),
        Value::Int64(i) => (INT64, i.to_le_bytes()),
        Value::Float64(f) => (FLOAT64, f.to_bits().to_le_bytes()),
        Value::Timestamp(t) => (TIMESTAMP, t.to_le_bytes()),
        Value::Utf8(s) => {
            out.push(UTF8);
            return put_str(out, s);
        }
    };
    out.push(tag);
    out.extend_from_slice(&payload);
}

pub fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_values(out, row.values());
}

/// [`put_row`] of the row holding `values`, without building it.
pub fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_varint(out, values.len() as u64);
    for v in values {
        put_value(out, v);
    }
}

/// A bounds-checked cursor over the bytes still to decode. It never
/// indexes past them, checks every count against them before anything
/// is reserved, and reports any malformed input as `Corruption`.
pub struct Reader<'a>(pub &'a [u8]);

fn corrupt(what: &str) -> SsError {
    SsError::Corruption(format!("state codec: {what}"))
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or `Corruption` when fewer remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(corrupt("truncated"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("`bytes` returned 8")))
    }

    pub fn varint(&mut self) -> Result<u64> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            n |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(n);
            }
        }
        Err(corrupt("varint overflows 64 bits"))
    }

    /// A count of elements that each occupy at least `min_bytes`
    /// encoded bytes: refused unless that many bytes remain, so a hostile
    /// count never sizes a reservation the input could not fill.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        if n > (self.0.len() / min_bytes) as u64 {
            return Err(corrupt("count exceeds the bytes that remain"));
        }
        Ok(n as usize)
    }

    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.count(1)?;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| corrupt("string is not UTF-8"))
    }

    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            NULL => Value::Null,
            FALSE => Value::Boolean(false),
            TRUE => Value::Boolean(true),
            INT64 => Value::Int64(self.u64()? as i64),
            FLOAT64 => Value::Float64(f64::from_bits(self.u64()?)),
            UTF8 => Value::Utf8(Arc::from(self.str()?)),
            TIMESTAMP => Value::Timestamp(self.u64()? as i64),
            tag => return Err(corrupt(&format!("unknown value tag {tag}"))),
        })
    }

    pub fn row(&mut self) -> Result<Row> {
        let n = self.count(1)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Row(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    /// Every variant's edge cases; floats are compared by bits below.
    fn edge_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Boolean(false),
            Value::Boolean(true),
            Value::Int64(i64::MIN),
            Value::Int64(i64::MAX),
            Value::Int64(0),
            Value::Float64(f64::NAN),
            Value::Float64(-0.0),
            Value::Float64(f64::INFINITY),
            Value::Float64(f64::NEG_INFINITY),
            Value::Float64(1.5),
            Value::str(""),
            Value::str("κλειδί-🔑-ключ"),
            Value::str("x".repeat(300)), // two-byte varint length
            Value::Timestamp(i64::MIN),
            Value::Timestamp(1_700_000_000_000_000),
        ]
    }

    fn same_bits(a: &Row, b: &Row) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
                (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
                _ => x == y && std::mem::discriminant(x) == std::mem::discriminant(y),
            })
    }

    fn random_row(rng: &mut XorShift64) -> Row {
        let edges = edge_values();
        let n = rng.gen_range(0, 6) as usize;
        Row((0..n)
            .map(|_| edges[rng.gen_range(0, edges.len() as u64) as usize].clone())
            .collect())
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let mut rng = XorShift64::new(0xC0DEC);
        let mut rows = vec![Row::empty(), Row(edge_values())];
        rows.extend((0..200).map(|_| random_row(&mut rng)));
        let mut buf = Vec::new();
        for r in &rows {
            put_row(&mut buf, r);
        }
        let mut rd = Reader(&buf);
        for r in &rows {
            let back = rd.row().unwrap();
            assert!(same_bits(r, &back), "{r} != {back}");
        }
        assert!(rd.0.is_empty());
    }

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        for n in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, n);
            assert_eq!(Reader(&buf).varint().unwrap(), n);
        }
        let eleven = [0xffu8; 11];
        assert_eq!(Reader(&eleven).varint().unwrap_err().category(), "corruption");
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(Reader(&too_big).varint().unwrap_err().category(), "corruption");
    }

    #[test]
    fn truncations_are_corruption_and_flips_never_panic() {
        let row = Row(edge_values());
        let mut buf = Vec::new();
        put_row(&mut buf, &row);
        for cut in 0..buf.len() {
            let err = Reader(&buf[..cut]).row().unwrap_err();
            assert_eq!(err.category(), "corruption", "cut at {cut}");
        }
        for i in 0..buf.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                // A flipped payload byte is just another value; a
                // flipped tag, length or count must fail cleanly.
                if let Err(e) = Reader(&bad).row() {
                    assert_eq!(e.category(), "corruption", "flip at {i}");
                }
            }
        }
    }

    #[test]
    fn a_hostile_count_is_refused_before_anything_is_reserved() {
        // Arity 2^62 with three bytes of input behind it.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 62);
        buf.extend_from_slice(&[NULL, NULL, NULL]);
        assert_eq!(Reader(&buf).row().unwrap_err().category(), "corruption");
    }
}
