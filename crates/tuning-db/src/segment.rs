//! CRC-checksummed JSONL segment encoding.
//!
//! Each record is one line: eight lowercase hex digits (CRC32/IEEE of the
//! JSON body bytes), one space, the JSON body. The checksum is computed
//! over the exact bytes on disk, not a re-serialization, so verification
//! never depends on serializer stability. A line is *committed* when its
//! trailing newline is on disk; anything less is a torn tail.
//!
//! Scan policy mirrors trace-analysis's corrupt-line handling: a torn or
//! checksum-failed line is skipped and counted, never fatal. The scanner
//! distinguishes a torn *tail* (no trailing newline — the normal kill -9
//! case, safe to truncate away) from mid-file corruption (bit-rot or an
//! interleaved writer — preserved for quarantine).

use serde::de::DeserializeOwned;
use serde::Serialize;

/// CRC32 (IEEE 802.3, reflected) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    // Small table-free bitwise variant: segments are read rarely (open,
    // fsck) and written one line at a time, so simplicity beats speed.
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one record as a checksummed line (terminating newline included).
///
/// # Panics
///
/// Panics if `value` fails to serialize (a programming error: every stored
/// type is plain data).
#[must_use]
pub fn encode_line<T: Serialize>(value: &T) -> Vec<u8> {
    // aal-lint: allow(unwrap, reason = "db records are plain data; serialization cannot fail")
    let body = serde_json::to_string(value).expect("db record serializes");
    let mut line = format!("{:08x} ", crc32(body.as_bytes())).into_bytes();
    line.extend_from_slice(body.as_bytes());
    line.push(b'\n');
    line
}

/// Decodes one checksummed line (without its newline). `None` when the
/// checksum, framing, or JSON body is invalid.
#[must_use]
pub fn decode_line<T: DeserializeOwned>(line: &[u8]) -> Option<T> {
    if line.len() < 10 || line[8] != b' ' {
        return None;
    }
    let crc_hex = std::str::from_utf8(&line[..8]).ok()?;
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    let body = &line[9..];
    if crc32(body) != want {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Outcome of scanning one segment's bytes.
#[derive(Debug, Default)]
pub struct SegmentScan<T> {
    /// Every record whose line committed and verified, in append order.
    pub records: Vec<T>,
    /// Corrupt *committed* lines (newline present, checksum or parse
    /// failed): the raw bytes, for quarantine.
    pub corrupt: Vec<Vec<u8>>,
    /// True when the file ends mid-line (torn by a kill mid-append).
    pub torn_tail: bool,
}

/// Scans raw segment bytes, applying the skip-and-count policy.
#[must_use]
pub fn read_segment_bytes<T: DeserializeOwned>(data: &[u8]) -> SegmentScan<T> {
    let mut scan = SegmentScan { records: Vec::new(), corrupt: Vec::new(), torn_tail: false };
    let mut offset = 0usize;
    while offset < data.len() {
        let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
            scan.torn_tail = true;
            break;
        };
        let line_end = offset + nl + 1;
        let line = &data[offset..line_end - 1];
        if !line.is_empty() {
            match decode_line::<T>(line) {
                Some(rec) => scan.records.push(rec),
                None => scan.corrupt.push(line.to_vec()),
            }
        }
        offset = line_end;
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let v = serde_json::json!({"a": 1, "b": "two"});
        let line = encode_line(&v);
        assert_eq!(*line.last().unwrap(), b'\n');
        let back: serde_json::Value = decode_line(&line[..line.len() - 1]).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let v = serde_json::json!({"x": 12345, "y": [1.5, 2.5]});
        let line = encode_line(&v);
        let body = &line[..line.len() - 1];
        // Flip the low bit: unlike a case flip (0x20), this changes the
        // parsed value of every hex digit and the content of every body
        // byte, so each position must be caught.
        for i in 0..body.len() {
            let mut bad = body.to_vec();
            bad[i] ^= 0x01;
            assert!(
                decode_line::<serde_json::Value>(&bad).is_none(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn scan_drops_torn_tail_and_counts_midfile_corruption() {
        let a = serde_json::json!({"n": 1});
        let b = serde_json::json!({"n": 2});
        let mut data = encode_line(&a);
        let b_line = encode_line(&b);

        // Torn tail: half of b's line.
        let mut torn = data.clone();
        torn.extend_from_slice(&b_line[..b_line.len() / 2]);
        let scan: SegmentScan<serde_json::Value> = read_segment_bytes(&torn);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail);
        assert!(scan.corrupt.is_empty());

        // Mid-file corruption: a flipped byte inside a committed line.
        let mut mid = data.clone();
        let flip_at = 12;
        mid[flip_at] ^= 0xFF;
        mid.extend_from_slice(&b_line);
        let scan: SegmentScan<serde_json::Value> = read_segment_bytes(&mid);
        assert_eq!(scan.records.len(), 1, "the good record after the corrupt line survives");
        assert_eq!(scan.records[0], b);
        assert_eq!(scan.corrupt.len(), 1);
        assert!(!scan.torn_tail);

        // Clean data scans clean.
        data.extend_from_slice(&b_line);
        let scan: SegmentScan<serde_json::Value> = read_segment_bytes(&data);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.corrupt.is_empty() && !scan.torn_tail);
    }

    #[test]
    fn empty_and_blank_lines_are_ignored() {
        let scan: SegmentScan<serde_json::Value> = read_segment_bytes(b"\n\n");
        assert!(scan.records.is_empty() && scan.corrupt.is_empty());
    }
}
