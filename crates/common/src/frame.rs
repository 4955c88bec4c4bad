//! CRC32 integrity frames for WAL records and checkpoint blobs.
//!
//! Durable records are wrapped in a one-line ASCII header followed by the
//! raw payload:
//!
//! ```text
//! ss-frame-v1 crc32=9ae0daaf len=17\n
//! {"epoch": 3, ...}
//! ```
//!
//! The payload stays byte-for-byte what the caller wrote (human-readable
//! JSON for the WAL), while [`decode`] can distinguish a *torn* record
//! (truncated header or short payload — what a crash mid-write leaves
//! behind) from a *corrupt* one (full length but wrong checksum). Recovery
//! treats torn/corrupt records after the last commit as uncommitted work
//! to recompute, and corrupt records inside committed history as fatal.

use crate::error::{Result, SsError};

const MAGIC: &str = "ss-frame-v1";

/// IEEE CRC32 (the polynomial used by gzip/zip), slicing-by-8: eight
/// input bytes per step through eight 256-entry tables.
pub fn crc32(data: &[u8]) -> u32 {
    // Built on first use (8 KiB). `t[0]` is the classic bytewise
    // table; `t[k][i]` is the CRC of byte `i` followed by `k` zeros.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            let (bytewise, prev) = (t[0], t[k - 1]);
            for (entry, p) in t[k].iter_mut().zip(prev) {
                *entry = bytewise[(p & 0xff) as usize] ^ (p >> 8);
            }
        }
        t
    });
    let mut crc = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

fn header(payload: &[u8]) -> String {
    format!("{MAGIC} crc32={:08x} len={}\n", crc32(payload), payload.len())
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
pub const HEADER_ROOM: usize = 52;

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

/// Unwrap and verify a frame, returning the payload.
///
/// Errors are all [`SsError::Corruption`] with messages that distinguish
/// the failure shape (missing header / torn payload / checksum mismatch)
/// so recovery logs say exactly what was found on disk.
pub fn decode(bytes: &[u8]) -> Result<Vec<u8>> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| SsError::Corruption("torn frame: no header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| SsError::Corruption("frame header is not UTF-8".into()))?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(SsError::Corruption(format!(
            "missing frame magic (got {:?})",
            header.chars().take(32).collect::<String>()
        )));
    }
    let crc_field = parts
        .next()
        .and_then(|p| p.strip_prefix("crc32="))
        .ok_or_else(|| SsError::Corruption("frame header missing crc32 field".into()))?;
    let expected_crc = u32::from_str_radix(crc_field, 16)
        .map_err(|_| SsError::Corruption(format!("unparseable crc32 field {crc_field:?}")))?;
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
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(SsError::Corruption(format!(
            "crc mismatch: header says {expected_crc:08x}, payload hashes to {actual_crc:08x}"
        )));
    }
    Ok(payload.to_vec())
}

/// True if `bytes` starts with the frame magic — used to keep reading
/// pre-framing (legacy) files written before this format existed.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xedb8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let mut rng = crate::rng::XorShift64::new(0x5eed);
        let buf: Vec<u8> = (0..4100 + 8).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=4100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
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
