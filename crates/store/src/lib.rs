//! # mdm-store
//!
//! The durability layer under the MDM metadata catalog: an append-only
//! **write-ahead log** of steward mutations plus **generation-numbered
//! compaction** into a canonical snapshot, with crash recovery that
//! tolerates torn tails. The paper's stack leaned on Jena TDB + MongoDB for
//! this; here it is a dependency-free, from-scratch store so the governance
//! state (ontology releases, wrappers, LAV mappings, the metadata *epoch*)
//! survives process death instead of living only as long as the server.
//!
//! This crate is deliberately **payload-agnostic**: records are opaque byte
//! strings stamped with the metadata epoch, snapshots are opaque text. The
//! encoding of mutations and the replay logic live in `mdm-core`
//! (`mdm_core::journal` / `mdm_core::durable`), keeping the storage format
//! decoupled from the ontology model.
//!
//! * [`wal`] — the record format: length prefix, epoch stamp, CRC-32
//!   checksum, versioned file header; [`FsyncPolicy`] (always / interval /
//!   never); recovery truncates at the first incomplete or corrupt record.
//! * [`store`] — the generation protocol: `snapshot.gen-N.ttl` +
//!   `wal.gen-N.log`, atomically committed by renaming `CURRENT`.
//! * `frame` — the one record frame the WAL and a replication batch carry,
//!   with its encoder and bounded reader.
//! * [`crc`] — CRC-32/IEEE, table-driven.
//!
//! ```no_run
//! use mdm_store::{FsyncPolicy, Store};
//! # fn main() -> Result<(), mdm_store::StoreError> {
//! let dir = std::path::Path::new("/var/lib/mdm");
//! let mut store = match Store::open(dir, FsyncPolicy::Always)? {
//!     Some((store, recovered)) => {
//!         // rebuild state from recovered.snapshot + recovered.records …
//!         store
//!     }
//!     None => Store::create(dir, FsyncPolicy::Always, "initial snapshot", 0)?,
//! };
//! store.append(1, b"encoded mutation")?;
//! store.compact("new canonical snapshot", 1)?;
//! # Ok(()) }
//! ```

pub mod crc;
pub mod error;
mod frame;
pub mod ship;
pub mod store;
pub mod wal;

pub use error::StoreError;
pub use ship::ReplicationBatch;
pub use store::{purge, Recovered, Store, StoreStats};
pub use wal::{read_wal, FsyncPolicy, WalRecord, MAX_RECORD_BYTES};
