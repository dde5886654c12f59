//! The record frame the WAL file and a replication batch both carry:
//!
//! ```text
//! frame := payload_len : u32 LE
//!          epoch       : u64 LE (metadata epoch *after* the mutation)
//!          crc32       : u32 LE (over epoch bytes ++ payload)
//!          payload     : payload_len bytes
//! ```
//!
//! [`header`] writes a frame's fixed part and [`FrameReader`] reads frames
//! (and the little-endian integers around them) out of a byte slice, never
//! past its end. A bad frame is reported, not acted on: WAL recovery
//! truncates there, a replica rejects the batch.

use crate::crc::Crc32;
use crate::wal::{WalRecord, MAX_RECORD_BYTES};

/// Bytes before a frame's payload.
pub(crate) const HEADER_BYTES: usize = 4 + 8 + 4;

/// The fixed part of `payload`'s frame at `epoch`; the payload follows it.
pub(crate) fn header(epoch: u64, payload: &[u8]) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out[4..12].copy_from_slice(&epoch.to_le_bytes());
    out[12..].copy_from_slice(&checksum(epoch, payload).to_le_bytes());
    out
}

fn checksum(epoch: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&epoch.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Why a frame could not be read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum BadFrame {
    /// The bytes end inside the frame.
    Torn,
    /// The length prefix exceeds [`MAX_RECORD_BYTES`]: garbage read as a
    /// length, refused before anything is allocated for it.
    TooLong(u32),
    /// The checksum over the epoch stamp and payload does not match.
    Checksum,
}

/// A bounded cursor over a byte slice.
#[derive(Clone, Copy)]
pub(crate) struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes, or `None` when fewer are left.
    pub(crate) fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        if self.remaining() < len {
            return None;
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Some(slice)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads one record frame. On error the reader has not moved, so
    /// [`FrameReader::pos`] is where the bad frame starts.
    pub(crate) fn record(&mut self) -> Result<WalRecord, BadFrame> {
        let mut probe = *self;
        let len = probe.u32().ok_or(BadFrame::Torn)?;
        if len > MAX_RECORD_BYTES {
            return Err(BadFrame::TooLong(len));
        }
        let (Some(epoch), Some(crc), Some(payload)) =
            (probe.u64(), probe.u32(), probe.take(len as usize))
        else {
            return Err(BadFrame::Torn);
        };
        if checksum(epoch, payload) != crc {
            return Err(BadFrame::Checksum);
        }
        *self = probe;
        Ok(WalRecord {
            epoch,
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = header(epoch, payload).to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn a_frame_reads_back_and_every_cut_is_torn() {
        let bytes = framed(7, b"payload");
        let mut reader = FrameReader::new(&bytes);
        let record = reader.record().unwrap();
        assert_eq!((record.epoch, &record.payload[..]), (7, &b"payload"[..]));
        assert_eq!(reader.remaining(), 0);
        for cut in 0..bytes.len() {
            let mut reader = FrameReader::new(&bytes[..cut]);
            assert_eq!(reader.record(), Err(BadFrame::Torn), "cut at {cut}");
            assert_eq!(reader.pos(), 0);
        }
    }

    #[test]
    fn a_flipped_bit_fails_the_checksum_and_a_huge_length_is_refused() {
        let mut bytes = framed(7, b"payload");
        bytes[6] ^= 1; // inside the epoch stamp
        assert_eq!(FrameReader::new(&bytes).record(), Err(BadFrame::Checksum));
        let mut huge = framed(7, b"payload");
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            FrameReader::new(&huge).record(),
            Err(BadFrame::TooLong(u32::MAX))
        );
    }
}
