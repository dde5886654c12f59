//! WAL shipping: the binary frame format a primary uses to stream its
//! generation snapshot and journal records to read replicas.
//!
//! A batch is self-describing and self-correcting: it always names the
//! generation it belongs to, and when the requesting replica's generation
//! or offset no longer exists on the primary (compaction, restore, a fresh
//! store), the batch carries the current snapshot so the replica can
//! re-bootstrap instead of diverging.
//!
//! ## Wire layout (all integers little-endian)
//!
//! ```text
//! magic            8 bytes  "MDMREP1\0"
//! version          u32      2
//! flags            u32      bit 0: snapshot frame present
//! term             u64      the primary's fencing term
//! term_start_epoch u64      epoch at which that term began
//! generation       u64      live generation on the primary
//! base_epoch       u64      epoch of the generation's snapshot
//! primary_epoch    u64      primary's metadata epoch when the batch was cut
//! start            u64      WAL index of the first shipped record
//! wal_len          u64      total records in the generation's WAL right now
//! [snapshot]       u32 len | u32 crc | bytes      (only when flag bit 0)
//! record_count     u32
//! records          record_count × frame (u32 len | u64 epoch | u32 crc | payload)
//! ```
//!
//! Version 2 added the fencing term fields; version-1 frames are rejected
//! (replicas and primaries upgrade together, and a stale-version peer must
//! reconnect through the handshake anyway).
//!
//! Records are the WAL's own frames (the `frame` module): the CRC-32 covers
//! the epoch stamp (as 8 LE bytes) followed by the payload, and one reader
//! checks them, so a replica checks exactly what recovery checks. The
//! snapshot CRC covers the snapshot bytes.

use crate::crc::Crc32;
use crate::error::StoreError;
use crate::frame::{self, BadFrame, FrameReader};
use crate::wal::WalRecord;

pub(crate) const REP_MAGIC: &[u8; 8] = b"MDMREP1\0";
pub(crate) const REP_VERSION: u32 = 2;
const FLAG_SNAPSHOT: u32 = 1;
/// Snapshots are metadata-scale; cap them like records to bound allocation.
const MAX_SNAPSHOT_BYTES: u32 = 64 * 1024 * 1024;

/// One shipped batch: an optional snapshot (re-bootstrap) plus a contiguous
/// run of WAL records starting at `start`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationBatch {
    pub generation: u64,
    /// The fencing term the primary was serving under when the batch was
    /// cut. Replicas refuse batches stamped with a term older than one
    /// they have already observed — a fenced-out primary cannot feed them.
    pub term: u64,
    /// Epoch at which `term` began on the primary.
    pub term_start_epoch: u64,
    /// Epoch of the generation's snapshot (replicas restore to this first).
    pub base_epoch: u64,
    /// The primary's metadata epoch when the batch was cut; replicas report
    /// `primary_epoch - replay_epoch` as their lag.
    pub primary_epoch: u64,
    /// WAL index of `records[0]` within the generation.
    pub start: u64,
    /// Total records in the generation's WAL at encode time.
    pub wal_len: u64,
    /// Present when the replica must (re-)bootstrap from the snapshot.
    pub snapshot: Option<String>,
    pub records: Vec<WalRecord>,
}

impl ReplicationBatch {
    /// Index of the record *after* the last one shipped — the `from` the
    /// replica should request next.
    pub fn next_offset(&self) -> u64 {
        self.start + self.records.len() as u64
    }

    /// True when the batch leaves the replica fully caught up.
    pub fn caught_up(&self) -> bool {
        self.next_offset() >= self.wal_len
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.snapshot.as_ref().map_or(0, |s| s.len()));
        out.extend_from_slice(REP_MAGIC);
        out.extend_from_slice(&REP_VERSION.to_le_bytes());
        let flags = if self.snapshot.is_some() {
            FLAG_SNAPSHOT
        } else {
            0
        };
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.term.to_le_bytes());
        out.extend_from_slice(&self.term_start_epoch.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.base_epoch.to_le_bytes());
        out.extend_from_slice(&self.primary_epoch.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.wal_len.to_le_bytes());
        if let Some(snapshot) = &self.snapshot {
            let bytes = snapshot.as_bytes();
            let mut crc = Crc32::new();
            crc.update(bytes);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc.finish().to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for record in &self.records {
            out.extend_from_slice(&frame::header(record.epoch, &record.payload));
            out.extend_from_slice(&record.payload);
        }
        out
    }

    /// Decodes and integrity-checks one batch. Any structural or checksum
    /// failure is `StoreError::Corrupt` — replicas treat that as a poisoned
    /// stream, not a panic.
    pub fn decode(bytes: &[u8]) -> Result<ReplicationBatch, StoreError> {
        let mut reader = FrameReader::new(bytes);
        let magic = reader.take(8).ok_or_else(truncated)?;
        if magic != REP_MAGIC {
            return Err(StoreError::Corrupt(
                "replication batch: bad magic".to_string(),
            ));
        }
        let version = reader.u32().ok_or_else(truncated)?;
        if version != REP_VERSION {
            return Err(StoreError::Corrupt(format!(
                "replication batch: unsupported version {version}"
            )));
        }
        let flags = reader.u32().ok_or_else(truncated)?;
        let mut word = || reader.u64().ok_or_else(truncated);
        let (term, term_start_epoch, generation) = (word()?, word()?, word()?);
        let (base_epoch, primary_epoch, start, wal_len) = (word()?, word()?, word()?, word()?);
        let snapshot = if flags & FLAG_SNAPSHOT != 0 {
            let len = reader.u32().ok_or_else(truncated)?;
            if len > MAX_SNAPSHOT_BYTES {
                return Err(StoreError::Corrupt(format!(
                    "replication batch: snapshot of {len} bytes exceeds cap"
                )));
            }
            let expected = reader.u32().ok_or_else(truncated)?;
            let body = reader.take(len as usize).ok_or_else(truncated)?;
            let mut crc = Crc32::new();
            crc.update(body);
            if crc.finish() != expected {
                return Err(StoreError::Corrupt(
                    "replication batch: snapshot checksum mismatch".to_string(),
                ));
            }
            let text = String::from_utf8(body.to_vec()).map_err(|_| {
                StoreError::Corrupt("replication batch: snapshot is not UTF-8".to_string())
            })?;
            Some(text)
        } else {
            None
        };
        let count = reader.u32().ok_or_else(truncated)?;
        let mut records = Vec::new();
        for index in 0..count {
            let record = reader.record().map_err(|bad| match bad {
                BadFrame::Torn => truncated(),
                BadFrame::TooLong(len) => StoreError::Corrupt(format!(
                    "replication batch: record {index} of {len} bytes exceeds cap"
                )),
                BadFrame::Checksum => StoreError::Corrupt(format!(
                    "replication batch: record {} (wal offset {}) checksum mismatch",
                    index,
                    start + u64::from(index)
                )),
            })?;
            records.push(record);
        }
        if reader.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "replication batch: {} trailing bytes",
                reader.remaining()
            )));
        }
        Ok(ReplicationBatch {
            generation,
            term,
            term_start_epoch,
            base_epoch,
            primary_epoch,
            start,
            wal_len,
            snapshot,
            records,
        })
    }
}

fn truncated() -> StoreError {
    StoreError::Corrupt("replication batch: truncated frame".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplicationBatch {
        ReplicationBatch {
            generation: 3,
            term: 2,
            term_start_epoch: 8,
            base_epoch: 10,
            primary_epoch: 14,
            start: 2,
            wal_len: 4,
            snapshot: Some("SNAPSHOT TEXT".to_string()),
            records: vec![
                WalRecord {
                    epoch: 13,
                    payload: b"op-a".to_vec(),
                },
                WalRecord {
                    epoch: 14,
                    payload: b"op-b".to_vec(),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let batch = sample();
        let decoded = ReplicationBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(decoded.next_offset(), 4);
        assert!(decoded.caught_up());
    }

    #[test]
    fn round_trip_without_snapshot() {
        let mut batch = sample();
        batch.snapshot = None;
        batch.wal_len = 9;
        let decoded = ReplicationBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        assert!(!decoded.caught_up());
    }

    #[test]
    fn corrupt_record_is_rejected() {
        let batch = sample();
        let mut bytes = batch.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload byte in the final record
        let err = ReplicationBatch::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let batch = sample();
        let bytes = batch.encode();
        let err = ReplicationBatch::decode(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let err = ReplicationBatch::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let err = ReplicationBatch::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
