//! The durable metadata store: `mdm-store`'s WAL/compaction machinery bound
//! to [`Mdm`]'s mutation journal.
//!
//! [`MetaStore`] is the [`JournalSink`] a durable deployment attaches to its
//! [`Mdm`]: every steward mutation appends one encoded [`MutationOp`] to the
//! live generation's write-ahead log, and [`MetaStore::compact`] folds the
//! log into a fresh canonical snapshot. [`MetaStore::attach`] is the
//! open-or-create entry point a process calls on startup: it recovers the
//! latest complete generation (snapshot + surviving WAL prefix) and
//! returns an [`Mdm`] whose epoch continues where the crashed process
//! stopped.
//!
//! Replay has one implementation: [`Mdm::replay`] decodes a record and
//! runs [`Mdm::apply`] — the function every typed mutator and steward
//! route runs — and [`Mdm::recovered`] replays a record list on top of a
//! restored snapshot. Crash recovery, replica bootstrap, replica replay
//! and the replica's recovery of an old journal all go through them.
//!
//! A journal write failure (disk full, permissions) does **not** fail the
//! steward call — the in-memory mutation stands, the store flips to
//! unhealthy, and the service surfaces `degraded` on `/healthz` until a
//! later append or an explicit [`MetaStore::sync`]/[`MetaStore::compact`]
//! succeeds.

use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mdm_store::{FsyncPolicy, ReplicationBatch, Store, StoreStats, WalRecord};

use crate::error::MdmError;
use crate::journal::{JournalSink, MutationOp};
use crate::mdm::Mdm;

/// What [`MetaStore::attach`] found (or created) on disk.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The live generation after open/create.
    pub generation: u64,
    /// Epoch of the generation's snapshot.
    pub base_epoch: u64,
    /// WAL records replayed on top of the snapshot (0 for a fresh store).
    pub replayed: u64,
    /// True when a torn or corrupt WAL tail was cut during recovery.
    pub truncated_tail: bool,
    /// True when the store already existed; false when this call created it.
    pub recovered: bool,
    /// The fencing term the store persists (1 for a fresh store).
    pub term: u64,
    /// Epoch at which that term began.
    pub term_start_epoch: u64,
}

struct Inner {
    store: Store,
    healthy: bool,
    last_error: Option<String>,
}

impl Inner {
    /// Latches the outcome of a store write: a success heals the store, a
    /// failure marks it unhealthy with `describe`'s message, which the
    /// error carries too.
    fn settle<T>(
        &mut self,
        result: Result<T, mdm_store::StoreError>,
        describe: impl FnOnce(mdm_store::StoreError) -> String,
    ) -> Result<T, MdmError> {
        match result {
            Ok(value) => {
                self.healthy = true;
                self.last_error = None;
                Ok(value)
            }
            Err(e) => {
                let message = describe(e);
                self.healthy = false;
                self.last_error = Some(message.clone());
                Err(MdmError::Repository(message))
            }
        }
    }
}

/// A thread-safe durable journal for one metadata store directory.
pub struct MetaStore {
    inner: Mutex<Inner>,
    /// Signalled on every append and compaction so replication streams can
    /// long-poll for new records instead of spinning.
    changed: Condvar,
}

impl MetaStore {
    /// Opens the store in `dir` if one exists, otherwise creates one seeded
    /// with `initial`'s state. Returns the store, the system to serve (the
    /// recovered state when one existed, else `initial`), and a report. The
    /// recovered state is built by [`Mdm::recovered`] from `initial`, so it
    /// keeps `initial`'s execution settings. The journal sink is **already
    /// attached** to the returned [`Mdm`].
    pub fn attach(
        dir: &Path,
        policy: FsyncPolicy,
        initial: Mdm,
    ) -> Result<(Arc<MetaStore>, Mdm, RecoveryReport), MdmError> {
        let (store, mut mdm, report) = match Store::open(dir, policy).map_err(store_err)? {
            Some((store, recovered)) => {
                let mdm = initial.recovered(
                    &recovered.snapshot,
                    recovered.base_epoch,
                    &recovered.records,
                )?;
                let report = RecoveryReport {
                    generation: recovered.generation,
                    base_epoch: recovered.base_epoch,
                    replayed: recovered.records.len() as u64,
                    truncated_tail: recovered.truncated_tail,
                    recovered: true,
                    term: recovered.term,
                    term_start_epoch: recovered.term_start_epoch,
                };
                (store, mdm, report)
            }
            None => {
                let store =
                    Store::create(dir, policy, &initial.snapshot_stamped(), initial.epoch())
                        .map_err(store_err)?;
                let report = RecoveryReport {
                    generation: store.generation(),
                    base_epoch: initial.epoch(),
                    replayed: 0,
                    truncated_tail: false,
                    recovered: false,
                    term: store.term(),
                    term_start_epoch: store.term_start_epoch(),
                };
                (store, initial, report)
            }
        };
        let meta = MetaStore::over(store);
        mdm.set_journal(Some(meta.clone()));
        Ok((meta, mdm, report))
    }

    /// A healthy journal over an opened store.
    fn over(store: Store) -> Arc<MetaStore> {
        Arc::new(MetaStore {
            inner: Mutex::new(Inner {
                store,
                healthy: true,
                last_error: None,
            }),
            changed: Condvar::new(),
        })
    }

    /// Folds the journal into a fresh snapshot of `mdm`'s current state and
    /// swaps generations atomically. Returns the new generation number.
    pub fn compact(&self, mdm: &Mdm) -> Result<u64, MdmError> {
        let snapshot = mdm.snapshot_stamped();
        let epoch = mdm.epoch();
        let mut inner = self.lock();
        let compacted = inner.store.compact(&snapshot, epoch);
        let generation = inner.settle(compacted, |e| e.to_string())?;
        // Generation changed: wake long-polling replicas so they
        // re-bootstrap promptly instead of waiting out the poll.
        self.changed.notify_all();
        Ok(generation)
    }

    /// Re-bases the journal on a state that replaced the one it journals
    /// (a restore, or the REPL's `setup`): folds `mdm` into a fresh
    /// generation, then attaches this store as its sink, so the mutations
    /// that follow journal on top of it. Returns the new generation.
    pub fn rebase(self: &Arc<Self>, mdm: &mut Mdm) -> Result<u64, MdmError> {
        let generation = self.compact(mdm)?;
        mdm.set_journal(Some(self.clone()));
        Ok(generation)
    }

    /// Forces buffered WAL records to stable storage (drain/shutdown path).
    pub fn sync(&self) -> Result<(), MdmError> {
        let mut inner = self.lock();
        let synced = inner.store.sync();
        inner.settle(synced, |e| e.to_string())
    }

    /// Durability counters for `/metrics`.
    pub fn stats(&self) -> StoreStats {
        self.lock().store.stats()
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.lock().store.policy()
    }

    /// Opens (or creates) a store in `dir` for a replica promoting itself
    /// to primary at `new_term`: `mdm`'s current state becomes the new
    /// generation's snapshot and the term swap commits atomically with it.
    /// The journal sink is **not** attached here — the caller swaps it in
    /// under its own write lock once the server's role flips.
    pub fn promote_in(
        dir: &Path,
        policy: FsyncPolicy,
        mdm: &Mdm,
        new_term: u64,
    ) -> Result<Arc<MetaStore>, MdmError> {
        let snapshot = mdm.snapshot_stamped();
        let epoch = mdm.epoch();
        let store = match Store::open(dir, policy).map_err(store_err)? {
            Some((mut store, _recovered)) => {
                // An existing store here is the node's own pre-demotion
                // timeline; the promotion snapshot supersedes it entirely.
                store
                    .promote(&snapshot, epoch, new_term)
                    .map_err(store_err)?;
                store
            }
            None => {
                Store::create_at_term(dir, policy, &snapshot, epoch, new_term).map_err(store_err)?
            }
        };
        Ok(MetaStore::over(store))
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.lock().store.generation()
    }

    /// The fencing term the store persists.
    pub fn term(&self) -> u64 {
        self.lock().store.term()
    }

    /// Epoch at which the current term began.
    pub fn term_start_epoch(&self) -> u64 {
        self.lock().store.term_start_epoch()
    }

    /// Cuts a replication batch for a replica at (`generation`, `from`);
    /// see [`mdm_store::Store::replication_batch`] for the resync rules.
    pub fn replication_batch(
        &self,
        generation: u64,
        from: u64,
        max_records: usize,
        primary_epoch: u64,
    ) -> ReplicationBatch {
        self.lock()
            .store
            .replication_batch(generation, from, max_records, primary_epoch)
    }

    /// Blocks until the store has records past `from` in `generation`, the
    /// generation changes, or `timeout` elapses — the long-poll primitive
    /// behind `/replication/stream`. Returns true when there is something
    /// new to ship.
    pub fn wait_for_records(&self, generation: u64, from: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.store.generation() != generation || inner.store.wal_len() > from {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) = self
                .changed
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|poison| poison.into_inner());
            inner = guard;
        }
    }

    /// False after a journal write failure: acknowledged mutations since the
    /// failure are **not** durable (`/healthz` reports `degraded`).
    pub fn healthy(&self) -> bool {
        self.lock().healthy
    }

    /// The last journal failure, if the store is unhealthy.
    pub fn last_error(&self) -> Option<String> {
        self.lock().last_error.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock poisons it; the store's state is
        // still consistent (appends are atomic at the record level), so
        // recover the guard rather than propagating the poison.
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

impl JournalSink for MetaStore {
    fn record(&self, op: &MutationOp, epoch: u64) -> Result<(), String> {
        let mut inner = self.lock();
        let appended = inner.store.append(epoch, &op.encode());
        inner
            .settle(appended, |e| {
                format!("journal append of {} failed: {e}", op.kind())
            })
            .map_err(|e| e.message().to_string())?;
        self.changed.notify_all();
        Ok(())
    }

    fn flush(&self) -> Result<(), String> {
        self.sync().map_err(|e| e.to_string())
    }
}

impl Mdm {
    /// Replays one journal record: decodes its op, carries it out with
    /// [`Mdm::apply`] and raises the epoch to the record's stamp (the
    /// post-mutation epoch of the process that wrote it). Returns the op,
    /// so a replica can see which wrappers the metadata now declares. The
    /// error says whether the record failed to decode or to apply, and
    /// names the op kind; callers add where the record sits.
    pub fn replay(&mut self, record: &WalRecord) -> Result<MutationOp, MdmError> {
        let op = MutationOp::decode(&record.payload)
            .map_err(|e| MdmError::Repository(format!("failed to decode: {e}")))?;
        self.apply(&op)
            .map_err(|e| MdmError::Repository(format!("({}) failed to apply: {e}", op.kind())))?;
        self.ensure_epoch_at_least(record.epoch);
        Ok(op)
    }

    /// The system a snapshot plus the journal records written after it
    /// describe: `snapshot` restored with this instance's execution
    /// settings ([`Mdm::restored_from`]), its epoch raised to `base_epoch`,
    /// then every record replayed in order. This is crash recovery
    /// ([`MetaStore::attach`]), a replica's bootstrap (no records) and a
    /// replica's recovery of a journal from a previous life. No journal
    /// sink is attached, so the replay journals nothing.
    pub fn recovered(
        &self,
        snapshot: &str,
        base_epoch: u64,
        records: &[WalRecord],
    ) -> Result<Mdm, MdmError> {
        let mut mdm = self.restored_from(snapshot)?;
        mdm.ensure_epoch_at_least(base_epoch);
        for record in records {
            mdm.replay(record).map_err(|e| {
                MdmError::Repository(format!(
                    "WAL record at epoch {} {}",
                    record.epoch,
                    e.message()
                ))
            })?;
        }
        Ok(mdm)
    }
}

fn store_err(e: mdm_store::StoreError) -> MdmError {
    MdmError::Repository(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_rdf::term::Iri;
    use mdm_relational::{OptimizeMode, StatsCatalog};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdm-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ex(local: &str) -> Iri {
        Iri::new(format!("{}{local}", mdm_rdf::vocab::EXAMPLE_NS))
    }

    #[test]
    fn fresh_store_journals_and_recovers() {
        let dir = temp_dir("fresh");
        let (meta, mut mdm, report) =
            MetaStore::attach(&dir, FsyncPolicy::Always, Mdm::new()).unwrap();
        assert!(!report.recovered);
        mdm.define_concept(&ex("Player")).unwrap();
        mdm.define_identifier(&ex("Player"), &ex("playerId"))
            .unwrap();
        mdm.add_source("PlayersAPI").unwrap();
        assert_eq!(meta.stats().wal_records, 3);
        assert!(meta.healthy());
        let expected = mdm.snapshot();
        let expected_epoch = mdm.epoch();
        drop((meta, mdm));

        // "Restart": open the same directory, replay the journal.
        let (_meta2, recovered, report) =
            MetaStore::attach(&dir, FsyncPolicy::Always, Mdm::new()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.replayed, 3);
        assert_eq!(recovered.snapshot(), expected);
        assert_eq!(recovered.epoch(), expected_epoch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_advances_generation_and_preserves_state() {
        let dir = temp_dir("compact");
        let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        mdm.define_concept(&ex("Team")).unwrap();
        let generation = meta.compact(&mdm).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(meta.stats().wal_records, 0);
        mdm.define_feature(&ex("Team"), &ex("teamName")).unwrap();
        meta.sync().unwrap();
        let expected = mdm.snapshot();
        drop((meta, mdm));

        let (meta2, recovered, report) =
            MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.snapshot(), expected);
        // A second compaction from the recovered state keeps the bytes.
        meta2.compact(&recovered).unwrap();
        drop((meta2, recovered));
        let (_, again, _) = MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        assert_eq!(again.snapshot(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_keeps_the_execution_settings_it_is_handed() {
        let dir = temp_dir("settings");
        let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        mdm.define_concept(&ex("Player")).unwrap();
        drop((meta, mdm));

        // A restart over the journal, configured unlike the defaults.
        let stats = Arc::new(StatsCatalog::new());
        let mut initial = Mdm::new();
        initial.set_optimize(OptimizeMode::Off);
        initial.set_threads(1);
        initial.set_batch_size(7);
        initial.set_stats_catalog(Arc::clone(&stats));
        let (_meta, recovered, report) =
            MetaStore::attach(&dir, FsyncPolicy::Never, initial).unwrap();
        assert!(report.recovered);
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(recovered.optimize_mode(), OptimizeMode::Off);
        assert_eq!(recovered.threads(), 1);
        assert_eq!(recovered.batch_size(), 7);
        // The catalog handed in is the one recovery serves from.
        let refreshed = recovered.refresh_stats();
        assert_eq!(stats.epoch(), refreshed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_failure_degrades_instead_of_failing_mutations() {
        let dir = temp_dir("degrade");
        let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Always, Mdm::new()).unwrap();
        // Tear down the directory under the store to force append failures
        // on the next fsync-ed write.
        drop(std::fs::remove_dir_all(&dir));
        let before = mdm.epoch();
        // The mutation itself still succeeds...
        let result = mdm.define_concept(&ex("Ghost"));
        assert!(result.is_ok());
        assert!(mdm.epoch() > before);
        // ...and durability loss is visible, not silent. (With the directory
        // gone the buffered write may still land in the page cache; force it
        // out to observe the failure deterministically.)
        let _ = meta.sync();
        if meta.healthy() {
            // Some filesystems keep the unlinked file writable; at minimum
            // the sink interface must stay callable.
            let sink: Arc<dyn JournalSink> = meta;
            let _ = sink.flush();
        } else {
            assert!(meta.last_error().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
