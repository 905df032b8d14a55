//! Write-ahead-log record format and the durable corpus directory layout.
//!
//! The serve daemon's WAL (see `kastio-index`) appends one record per
//! acknowledged ingest to one log, `<dir>/wal/shard0.log`, in id order,
//! and its snapshots are `<dir>/snapshot.log`: the whole corpus as the
//! same records, in id order. This module owns the *format* — everything
//! that must survive a process boundary — so that the encoder, the
//! recovery scanner and the property tests all live next to the text
//! format they reuse:
//!
//! ```text
//! record  := len:u32le  crc:u32le  payload[len]
//! payload := "<id> <name> <label>\n" ++ write_trace(trace)
//! ```
//!
//! `len` counts payload bytes only; `crc` is the IEEE CRC-32 (the
//! zlib/PNG polynomial, reflected) of the payload. The payload reuses the
//! lossless plain-text trace format, so a WAL record round-trips exactly
//! like a corpus file does.
//!
//! **Torn tails are data, not errors.** A crash mid-append leaves a
//! truncated or garbage tail; [`scan_wal`] decodes the longest valid
//! prefix and *stops* at the first record whose length is implausible,
//! whose CRC mismatches, or whose payload does not parse — it never
//! panics and never yields a record past the corruption point. The byte
//! offset of that durable prefix is reported so recovery can truncate.

use std::path::{Path, PathBuf};

use crate::text::{parse_trace, write_trace};
use crate::trace::Trace;

/// Byte overhead of a record frame: `len` + `crc`.
pub const WAL_HEADER_BYTES: usize = 8;

/// Upper bound on a record payload. Anything larger than this in a `len`
/// field is treated as corruption rather than attempted as an
/// allocation: the daemon's own 16 MiB request-line cap keeps legitimate
/// records far below it.
pub const MAX_WAL_RECORD_BYTES: u32 = 64 << 20;

/// One acknowledged ingest, as persisted to (and recovered from) a WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Corpus entry id. Ids are given out as records are logged, so a
    /// log holds its records in id order.
    pub id: u32,
    /// Entry name (validated by [`crate::valid_entry_name`] at ingest).
    pub name: String,
    /// Entry label (validated by [`crate::valid_entry_tag`] at ingest).
    pub label: String,
    /// The ingested trace itself.
    pub trace: Trace,
}

/// Result of scanning one log or snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record in the longest valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of that prefix — the truncation point for a torn tail.
    pub durable_bytes: u64,
    /// Whether bytes past `durable_bytes` existed (a torn/corrupt tail).
    pub truncated: bool,
}

/// IEEE reflected CRC-32 (polynomial 0xEDB88320), bit-serial.
///
/// Hand-rolled because the workspace is offline; WAL records are small
/// and appended once, so a table-free implementation is fast enough.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The WAL subdirectory of a durable corpus directory.
#[must_use]
pub fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// The snapshot file of a durable corpus directory: one record per
/// entry, ids `0..n` in order, with no header (the generation is the
/// record count).
#[must_use]
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.log")
}

/// The legacy snapshot subdirectory of a durable corpus directory: a
/// corpus directory (see [`crate::corpus`]) that roots written before
/// [`snapshot_path`] kept their snapshot in. It is only ever read, as an
/// import, and only while no snapshot file exists.
#[must_use]
pub fn snapshot_dir(dir: &Path) -> PathBuf {
    dir.join("snapshot")
}

/// The write-ahead log of a durable corpus directory. Roots written
/// before the log was one file hold one `shard<i>.log` per shard beside
/// it; recovery reads those too. The name is kept so that such roots and
/// this layout read each other's logs.
#[must_use]
pub fn wal_log_path(dir: &Path) -> PathBuf {
    wal_dir(dir).join("shard0.log")
}

/// Encodes one record as a framed byte string ready to append.
#[must_use]
pub fn encode_wal_record(record: &WalRecord) -> Vec<u8> {
    encode_wal_fields(record.id, &record.name, &record.label, &record.trace)
}

/// [`encode_wal_record`] from borrowed fields, for a caller that holds
/// an entry rather than a [`WalRecord`].
#[must_use]
pub fn encode_wal_fields(id: u32, name: &str, label: &str, trace: &Trace) -> Vec<u8> {
    let mut payload = format!("{id} {name} {label}\n").into_bytes();
    payload.extend_from_slice(write_trace(trace).as_bytes());
    let len = u32::try_from(payload.len()).expect("WAL payloads fit in u32");
    let crc = crc32(&payload);
    let mut out = Vec::with_capacity(WAL_HEADER_BYTES + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one payload back into a record. `None` on any malformation —
/// scanning treats an undecodable payload exactly like a CRC mismatch.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    let (header, trace_text) = text.split_once('\n')?;
    let mut fields = header.splitn(3, ' ');
    let id: u32 = fields.next()?.parse().ok()?;
    let name = fields.next()?.to_string();
    let label = fields.next()?.to_string();
    if name.is_empty() || label.is_empty() {
        return None;
    }
    let trace = parse_trace(trace_text).ok()?;
    Some(WalRecord { id, name, label, trace })
}

/// Scans a log or snapshot file's bytes into the longest valid record
/// prefix.
///
/// Never panics on arbitrary input. Stops — reporting `truncated` — at
/// the first frame that is incomplete, claims an implausible length,
/// fails its CRC, or carries an unparseable payload. Records past such a
/// point are *never* returned, even if later bytes happen to frame
/// correctly: group commit means nothing after a torn record was ever
/// acknowledged.
#[must_use]
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return WalScan { records, durable_bytes: offset as u64, truncated: false };
        }
        if rest.len() < WAL_HEADER_BYTES {
            return WalScan { records, durable_bytes: offset as u64, truncated: true };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_WAL_RECORD_BYTES {
            return WalScan { records, durable_bytes: offset as u64, truncated: true };
        }
        let len = len as usize;
        let Some(payload) = rest.get(WAL_HEADER_BYTES..WAL_HEADER_BYTES + len) else {
            return WalScan { records, durable_bytes: offset as u64, truncated: true };
        };
        if crc32(payload) != crc {
            return WalScan { records, durable_bytes: offset as u64, truncated: true };
        }
        let Some(record) = decode_payload(payload) else {
            return WalScan { records, durable_bytes: offset as u64, truncated: true };
        };
        records.push(record);
        offset += WAL_HEADER_BYTES + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u32) -> WalRecord {
        let trace = parse_trace("h0 open 0\nh0 write 4096\nh0 close 0").unwrap();
        WalRecord { id, name: format!("e{id}"), label: "ckpt".to_string(), trace }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_then_scan_roundtrips() {
        let records: Vec<WalRecord> = (0..5).map(sample).collect();
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&encode_wal_record(record));
        }
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.durable_bytes, bytes.len() as u64);
        assert!(!scan.truncated);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan_wal(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.durable_bytes, 0);
        assert!(!scan.truncated);
    }

    #[test]
    fn torn_tail_truncates_to_the_durable_prefix() {
        let mut bytes = encode_wal_record(&sample(0));
        let durable = bytes.len() as u64;
        let torn = encode_wal_record(&sample(1));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, vec![sample(0)]);
        assert_eq!(scan.durable_bytes, durable);
        assert!(scan.truncated);
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_flipped_record() {
        let mut bytes = encode_wal_record(&sample(0));
        let durable = bytes.len() as u64;
        bytes.extend_from_slice(&encode_wal_record(&sample(1)));
        bytes.extend_from_slice(&encode_wal_record(&sample(2)));
        // Flip a payload bit in record 1: records 1 AND 2 must both be
        // dropped, even though record 2's frame is intact.
        let flip_at = durable as usize + WAL_HEADER_BYTES + 3;
        bytes[flip_at] ^= 0x10;
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, vec![sample(0)]);
        assert_eq!(scan.durable_bytes, durable);
        assert!(scan.truncated);
    }

    #[test]
    fn implausible_length_is_corruption_not_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let scan = scan_wal(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.durable_bytes, 0);
        assert!(scan.truncated);
    }

    #[test]
    fn layout_helpers_compose_under_the_corpus_dir() {
        let dir = Path::new("/var/corpus");
        assert_eq!(wal_dir(dir), Path::new("/var/corpus/wal"));
        assert_eq!(snapshot_path(dir), Path::new("/var/corpus/snapshot.log"));
        assert_eq!(snapshot_dir(dir), Path::new("/var/corpus/snapshot"));
        assert_eq!(wal_log_path(dir), Path::new("/var/corpus/wal/shard0.log"));
    }
}
