//! CRC32C integrity frames for WAL records and checkpoint blobs.
//!
//! Durable records are wrapped in a one-line ASCII header followed by the
//! raw payload:
//!
//! ```text
//! ss-frame-v2 crc32c=e3069283 len=17\n
//! {"epoch": 3, ...}
//! ```
//!
//! The payload stays byte-for-byte what the caller wrote (human-readable
//! JSON for the WAL), while [`decode`] can distinguish a *torn* record
//! (truncated header or short payload — what a crash mid-write leaves
//! behind) from a *corrupt* one (full length but wrong checksum). Recovery
//! treats torn/corrupt records after the last commit as uncommitted work
//! to recompute, and corrupt records inside committed history as fatal.
//!
//! The checksum is CRC32C (Castagnoli), in hardware on x86-64 with
//! SSE4.2. Frames older builds wrote (`ss-frame-v1 crc32=…`, IEEE CRC32)
//! still decode; nothing writes them.

use std::sync::OnceLock;

use crate::error::{Result, SsError};

const MAGIC: &str = "ss-frame-v2";
/// The IEEE-CRC32 frames of older builds: read, never written.
const MAGIC_V1: &str = "ss-frame-v1";

/// A reflected CRC32 of `data`, a byte at a time through the table of
/// `poly` (built into `table` on first use).
fn bytewise(table: &OnceLock<[u32; 256]>, poly: u32, data: &[u8]) -> u32 {
    let bit = |c: u32, _| if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
    let t = table.get_or_init(|| std::array::from_fn(|i| (0..8).fold(i as u32, bit)));
    !data.iter().fold(!0, |crc, &b| t[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8))
}

/// IEEE CRC32 (the polynomial of gzip/zip): what `ss-frame-v1` frames
/// carry.
pub fn crc32(data: &[u8]) -> u32 {
    static T: OnceLock<[u32; 256]> = OnceLock::new();
    bytewise(&T, 0xedb8_8320, data)
}

fn crc32c_table(data: &[u8]) -> u32 {
    static T: OnceLock<[u32; 256]> = OnceLock::new();
    bytewise(&T, 0x82f6_3b78, data)
}

/// CRC32C (Castagnoli), eight bytes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    !words.remainder().iter().fold(crc as u32, |crc, &b| _mm_crc32_u8(crc, b))
}

/// CRC32C (Castagnoli): in hardware where the CPU has it, else bytewise.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just checked for the feature.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

fn header(payload: &[u8]) -> String {
    format!("{MAGIC} crc32c={:08x} len={}\n", crc32c(payload), payload.len())
}

/// Wrap `payload` in a checksummed frame.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let header = header(payload);
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Bytes [`encode_in_place`] needs in front of a payload: the longest
/// header (a 20-digit `len`).
pub const HEADER_ROOM: usize = 53;

/// Frame the payload `buf[HEADER_ROOM..]` where it lies: the header is
/// written right-aligned into the room the caller left in front of it,
/// and the frame — byte for byte what [`encode`] returns for that
/// payload — is the returned tail of `buf`. For payloads large enough
/// that [`encode`]'s copy shows.
pub fn encode_in_place(buf: &mut [u8]) -> &[u8] {
    let header = header(&buf[HEADER_ROOM..]);
    let start = HEADER_ROOM - header.len();
    buf[start..HEADER_ROOM].copy_from_slice(header.as_bytes());
    &buf[start..]
}

/// Unwrap and verify a frame (either version), returning the payload.
///
/// Errors are all [`SsError::Corruption`] with messages that distinguish
/// the failure shape (missing header / torn payload / checksum mismatch)
/// so recovery logs say exactly what was found on disk.
pub fn decode(bytes: &[u8]) -> Result<&[u8]> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| SsError::Corruption("torn frame: no header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| SsError::Corruption("frame header is not UTF-8".into()))?;
    let mut parts = header.split(' ');
    let (field, crc): (&str, fn(&[u8]) -> u32) = match parts.next() {
        Some(MAGIC) => ("crc32c=", crc32c),
        Some(MAGIC_V1) => ("crc32=", crc32),
        _ => {
            return Err(SsError::Corruption(format!(
                "missing frame magic (got {:?})",
                header.chars().take(32).collect::<String>()
            )))
        }
    };
    let crc_field = parts
        .next()
        .and_then(|p| p.strip_prefix(field))
        .ok_or_else(|| SsError::Corruption(format!("frame header missing {field} field")))?;
    let expected_crc = u32::from_str_radix(crc_field, 16)
        .map_err(|_| SsError::Corruption(format!("unparseable crc field {crc_field:?}")))?;
    let len_field = parts
        .next()
        .and_then(|p| p.strip_prefix("len="))
        .ok_or_else(|| SsError::Corruption("frame header missing len field".into()))?;
    let expected_len: usize = len_field
        .parse()
        .map_err(|_| SsError::Corruption(format!("unparseable len field {len_field:?}")))?;
    let payload = &bytes[newline + 1..];
    if payload.len() != expected_len {
        return Err(SsError::Corruption(format!(
            "torn frame: header says len={expected_len} but {} payload bytes present",
            payload.len()
        )));
    }
    let actual_crc = crc(payload);
    if actual_crc != expected_crc {
        return Err(SsError::Corruption(format!(
            "crc mismatch: header says {expected_crc:08x}, payload hashes to {actual_crc:08x}"
        )));
    }
    Ok(payload)
}

/// True if `bytes` starts with either frame magic — used to keep reading
/// pre-framing (legacy) files written before this format existed.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC.as_bytes()) || bytes.starts_with(MAGIC_V1.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crcs_match_known_vectors() {
        // The standard check values of both polynomials.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c_table(b"123456789"), 0xe306_9283);
        assert_eq!((crc32(b""), crc32c(b"")), (0, 0));
    }

    #[test]
    fn crc32c_matches_the_bytewise_table_at_every_length_and_alignment() {
        let mut rng = crate::rng::XorShift64::new(0x5eed);
        let buf: Vec<u8> = (0..4100 + 8).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=4100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), crc32c_table(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn a_v1_frame_still_decodes() {
        let payload = br#"{"epoch": 3}"#;
        let mut framed = format!("ss-frame-v1 crc32={:08x} len={}\n", crc32(payload), payload.len())
            .into_bytes();
        framed.extend_from_slice(payload);
        assert!(is_framed(&framed));
        assert_eq!(decode(&framed).unwrap(), payload);
        let last = framed.len() - 1;
        framed[last] ^= 1;
        assert!(decode(&framed).unwrap_err().to_string().contains("crc mismatch"));
    }

    #[test]
    fn the_longest_header_fits_the_room() {
        let longest = format!("{MAGIC} crc32c={:08x} len={}\n", u32::MAX, u64::MAX);
        assert_eq!(longest.len(), HEADER_ROOM);
    }

    #[test]
    fn round_trip() {
        let payload = br#"{"epoch": 3, "offsets": [1, 2]}"#;
        let framed = encode(payload);
        assert!(is_framed(&framed));
        assert_eq!(decode(&framed).unwrap(), payload);
    }

    #[test]
    fn in_place_framing_equals_encode() {
        for payload in [&b""[..], b"x", &[7u8; 100_000]] {
            let mut buf = vec![0u8; HEADER_ROOM];
            buf.extend_from_slice(payload);
            assert_eq!(encode_in_place(&mut buf), encode(payload));
        }
    }

    #[test]
    fn payload_stays_human_readable() {
        let framed = encode(b"{\"epoch\": 3}");
        let text = String::from_utf8(framed).unwrap();
        assert!(text.contains("{\"epoch\": 3}"), "{text}");
    }

    #[test]
    fn truncated_payload_is_a_torn_frame() {
        let mut framed = encode(b"hello world");
        framed.truncate(framed.len() - 4);
        let err = decode(&framed).unwrap_err();
        assert!(err.to_string().contains("torn frame"), "{err}");
        assert_eq!(err.category(), "corruption");
    }

    #[test]
    fn missing_newline_is_a_torn_frame() {
        let framed = encode(b"hello");
        let head = &framed[..10];
        let err = decode(head).unwrap_err();
        assert!(err.to_string().contains("no header line"), "{err}");
    }

    #[test]
    fn flipped_payload_byte_is_a_crc_mismatch() {
        let mut framed = encode(b"hello world");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        let err = decode(&framed).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        let err = decode(b"garbage without a magic\n").unwrap_err();
        assert!(err.to_string().contains("missing frame magic"), "{err}");
        assert!(!is_framed(b"garbage"));
    }

    #[test]
    fn empty_payload_round_trips() {
        assert_eq!(decode(&encode(b"")).unwrap(), b"");
    }
}
