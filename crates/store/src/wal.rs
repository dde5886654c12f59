//! The write-ahead log: an append-only file of length-prefixed,
//! CRC-checksummed binary records behind a versioned header.
//!
//! ## On-disk format
//!
//! ```text
//! header  := magic[8] = "MDMWAL1\0"
//!            version  : u32 LE   (currently 1)
//!            generation : u64 LE (which compaction generation this log extends)
//!            base_epoch : u64 LE (metadata epoch of the generation's snapshot)
//! record  := one frame (see the `frame` module): payload_len : u32 LE,
//!            epoch : u64 LE, crc32 : u32 LE over epoch ++ payload,
//!            payload (opaque to this crate)
//! ```
//!
//! Recovery reads records until the first incomplete or corrupt one and
//! **truncates** there: a torn tail (the record being appended when the
//! process died) silently shortens the log to its last durable prefix
//! instead of poisoning the whole store. Corruption is detected three ways:
//! a record header that does not fit in the remaining bytes, a length that
//! exceeds [`MAX_RECORD_BYTES`] (garbage read as a length), or a checksum
//! mismatch over the epoch stamp and payload.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::error::StoreError;
use crate::frame::{self, FrameReader};

pub(crate) const MAGIC: &[u8; 8] = b"MDMWAL1\0";
pub(crate) const FORMAT_VERSION: u32 = 1;
pub(crate) const HEADER_BYTES: u64 = 8 + 4 + 8 + 8;

/// Upper bound on a single record's payload; a length prefix beyond this is
/// treated as corruption (a torn write that happened to leave plausible
/// bytes where the length lives), not as a gigantic allocation request.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// When to force appended records onto the disk platter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: no acknowledged mutation is ever lost,
    /// at the cost of one disk round-trip per mutation.
    Always,
    /// `fsync` at most once per the given window; a crash loses at most the
    /// records appended since the last sync. The service default.
    Interval(Duration),
    /// Never `fsync` explicitly (the OS flushes on its own schedule).
    /// Crash durability is whatever the page cache got around to.
    Never,
}

impl FsyncPolicy {
    /// Parses `always`, `never`, `interval` (100 ms default) or
    /// `interval:<ms>`.
    pub fn parse(text: &str) -> Result<FsyncPolicy, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("invalid interval '{ms}' (milliseconds expected)")),
                None => Err(format!(
                    "unknown fsync policy '{other}' (expected always, interval[:<ms>] or never)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(window) => write!(f, "interval:{}", window.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// One recovered record: the epoch stamped at append time plus the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub epoch: u64,
    pub payload: Vec<u8>,
}

/// The parse of a WAL file: its header fields, every intact record, and
/// whether a torn/corrupt tail was cut off.
#[derive(Debug)]
pub struct WalContents {
    pub generation: u64,
    pub base_epoch: u64,
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_bytes: u64,
    /// True when bytes beyond `valid_bytes` existed and were ignored.
    pub truncated_tail: bool,
}

/// Reads and validates a WAL file, truncating at the first bad record.
pub fn read_wal(path: &Path) -> Result<WalContents, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::io(format!("read {}", path.display()), e))?;
    let mut reader = FrameReader::new(&bytes);
    let (Some(magic), Some(version), Some(generation), Some(base_epoch)) =
        (reader.take(8), reader.u32(), reader.u64(), reader.u64())
    else {
        return Err(StoreError::Corrupt(format!(
            "{}: shorter than the {HEADER_BYTES}-byte header",
            path.display()
        )));
    };
    if magic != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{}: bad magic (not an MDM WAL)",
            path.display()
        )));
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "{}: unsupported WAL format version {version} (this build reads {FORMAT_VERSION})",
            path.display()
        )));
    }

    // Every intact frame up to the first torn or corrupt one (see `frame`).
    let mut records = Vec::new();
    while reader.remaining() > 0 {
        match reader.record() {
            Ok(record) => records.push(record),
            Err(_) => break,
        }
    }
    let offset = reader.pos();
    Ok(WalContents {
        generation,
        base_epoch,
        records,
        valid_bytes: offset as u64,
        truncated_tail: offset < bytes.len(),
    })
}

/// An open WAL positioned for appends, enforcing one [`FsyncPolicy`].
pub struct WalWriter {
    writer: BufWriter<File>,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Records appended since the last successful sync.
    unsynced: u64,
    records: u64,
    bytes: u64,
    fsyncs: u64,
}

impl WalWriter {
    /// Creates a fresh WAL with the given header fields. The file is synced
    /// so the header survives a crash even under `FsyncPolicy::Never`.
    pub fn create(
        path: &Path,
        generation: u64,
        base_epoch: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, StoreError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("create {}", path.display()), e))?;
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        header.extend_from_slice(&base_epoch.to_le_bytes());
        file.write_all(&header)
            .and_then(|()| file.sync_all())
            .map_err(|e| StoreError::io(format!("write header {}", path.display()), e))?;
        Ok(WalWriter {
            writer: BufWriter::new(file),
            policy,
            last_sync: Instant::now(),
            unsynced: 0,
            records: 0,
            bytes: HEADER_BYTES,
            fsyncs: 1,
        })
    }

    /// Opens an existing WAL for appends after recovery: the file is
    /// truncated to `valid_bytes` (cutting any torn tail) and positioned at
    /// its end.
    pub fn reopen(
        path: &Path,
        contents: &WalContents,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, StoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        file.set_len(contents.valid_bytes)
            .and_then(|()| {
                if contents.truncated_tail {
                    // The cut tail must not resurrect after a crash.
                    file.sync_all()?;
                }
                file.seek(SeekFrom::End(0)).map(|_| ())
            })
            .map_err(|e| StoreError::io(format!("truncate {}", path.display()), e))?;
        Ok(WalWriter {
            writer: BufWriter::new(file),
            policy,
            last_sync: Instant::now(),
            unsynced: 0,
            records: contents.records.len() as u64,
            bytes: contents.valid_bytes,
            fsyncs: 0,
        })
    }

    /// Appends one record and applies the fsync policy. On success the
    /// record is at least in the OS page cache; under `Always` it is on
    /// stable storage before this returns.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<(), StoreError> {
        if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
            return Err(StoreError::Corrupt(format!(
                "record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte bound",
                payload.len()
            )));
        }
        self.writer
            .write_all(&frame::header(epoch, payload))
            .and_then(|()| self.writer.write_all(payload))
            .and_then(|()| self.writer.flush())
            .map_err(|e| StoreError::io("append WAL record".to_string(), e))?;
        self.records += 1;
        self.unsynced += 1;
        self.bytes += (frame::HEADER_BYTES + payload.len()) as u64;
        match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Interval(window) if self.last_sync.elapsed() >= window => self.sync(),
            _ => Ok(()),
        }
    }

    /// Flushes buffered records and forces them to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_all())
            .map_err(|e| StoreError::io("fsync WAL".to_string(), e))?;
        self.fsyncs += 1;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mdm-store-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = temp_wal("round-trip");
        let mut wal = WalWriter::create(&path, 3, 10, FsyncPolicy::Never).unwrap();
        wal.append(11, b"first").unwrap();
        wal.append(12, b"second").unwrap();
        wal.append(13, b"").unwrap(); // empty payloads are legal
        wal.sync().unwrap();
        drop(wal);

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.generation, 3);
        assert_eq!(contents.base_epoch, 10);
        assert!(!contents.truncated_tail);
        let epochs: Vec<u64> = contents.records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![11, 12, 13]);
        assert_eq!(contents.records[1].payload, b"second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_wal("torn-tail");
        let mut wal = WalWriter::create(&path, 1, 0, FsyncPolicy::Always).unwrap();
        wal.append(1, b"keep-me").unwrap();
        wal.append(2, b"torn-away").unwrap();
        drop(wal);
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut into the middle of the second record's payload.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 4).unwrap();
        drop(file);

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].payload, b"keep-me");
        assert!(contents.truncated_tail);

        // Reopening for append truncates the tail and continues cleanly.
        let mut wal = WalWriter::reopen(&path, &contents, FsyncPolicy::Always).unwrap();
        wal.append(2, b"replacement").unwrap();
        drop(wal);
        let reread = read_wal(&path).unwrap();
        assert!(!reread.truncated_tail);
        assert_eq!(reread.records.len(), 2);
        assert_eq!(reread.records[1].payload, b"replacement");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_good_prefix() {
        let path = temp_wal("bit-flip");
        let mut wal = WalWriter::create(&path, 1, 0, FsyncPolicy::Always).unwrap();
        wal.append(1, b"good-one").unwrap();
        wal.append(2, b"about-to-rot").unwrap();
        drop(wal);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert!(contents.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        let path = temp_wal("bad-magic");
        std::fs::write(&path, b"NOTAWAL\0withsomebytesafterit.....").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt(_))));

        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&99u32.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(100))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap().to_string(),
            "interval:250"
        );
    }

    #[test]
    fn always_policy_counts_fsyncs_per_append() {
        let path = temp_wal("fsync-count");
        let mut wal = WalWriter::create(&path, 1, 0, FsyncPolicy::Always).unwrap();
        let header_syncs = wal.fsyncs();
        wal.append(1, b"a").unwrap();
        wal.append(2, b"b").unwrap();
        assert_eq!(wal.fsyncs(), header_syncs + 2);
        std::fs::remove_file(&path).ok();
    }
}
