//! Shared server state: the [`Mdm`] instance behind a readers–writer lock
//! plus request counters and the availability knobs.
//!
//! Steward routes take the write lock (they mutate metadata and bump the
//! epoch); analyst routes take the read lock, so any number of queries run
//! concurrently and all share the epoch-keyed plan cache inside [`Mdm`].
//!
//! The server's **role** (primary with a journal, replica with a status
//! latch, or plain in-memory) lives behind its own lock because promotion
//! changes it at runtime: `POST /admin/promote` swaps a replica's
//! [`RoleState`] for a primary one atomically, so every route observes
//! either the old role or the new one, never a mixture.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use mdm_core::{ChangeRecord, FsyncPolicy, Mdm, MetaStore};

use crate::replication::{ReplicaStatus, ReplicationHub};
use crate::ServerConfig;

/// What the node currently is: journal + no latch = primary, latch + no
/// journal = replica, neither = in-memory single node.
#[derive(Default)]
pub struct RoleState {
    /// The durable journal behind `mdm`, when the node owns one.
    /// `/admin/compact` folds it, `/metrics` reports its counters, and
    /// `/healthz` flips to `degraded` when it is unhealthy.
    pub store: Option<Arc<MetaStore>>,
    /// Set while this server fronts a replica: routes consult it for
    /// `/healthz`, `/epoch`, and to 421 steward mutations to the primary.
    pub replica: Option<Arc<ReplicaStatus>>,
}

/// Failover counters for `/metrics` (rendered on both roles).
#[derive(Default)]
pub struct FailoverStats {
    /// Times this node promoted itself to primary.
    pub promotions: AtomicU64,
    /// Stale-term peers turned away with 409 (stream requests, steward
    /// writes on a fenced node, replica-side stale batches).
    pub fenced_rejections: AtomicU64,
    /// Times this node rejoined a newer-term primary as a replica.
    pub rejoins: AtomicU64,
    /// Divergent local WAL records discarded while rejoining.
    pub divergent_records_discarded: AtomicU64,
}

/// Everything a worker thread needs to answer a request.
pub struct AppState {
    pub mdm: RwLock<Mdm>,
    pub requests: AtomicU64,
    pub errors: AtomicU64,
    /// Connections answered 503 because the queue was saturated or the
    /// server was draining.
    pub shed: AtomicU64,
    /// Accepted connections waiting for a worker (load-shedding gauge).
    pub queued: AtomicUsize,
    /// Times the event loop's `poll(2)` returned: one per wake, whatever
    /// woke it (request bytes, a completion, an accept, a timeout).
    pub poll_wakeups: AtomicU64,
    pub started: Instant,
    pub workers: usize,
    /// Queue depth beyond which new connections are shed with 503.
    pub max_pending: usize,
    /// Per-connection read timeout (keep-alive idle bound).
    pub read_timeout: Duration,
    /// Deadline budget handed to each analyst query.
    pub request_deadline: Duration,
    /// Seconds advertised in `Retry-After` on 503 responses.
    pub retry_after_secs: u64,
    /// The node's current role; swapped whole at promotion.
    role: RwLock<RoleState>,
    /// Primary-side replication gauges (`/replication/stream` feeds them).
    pub replication: ReplicationHub,
    /// Failover counters (promotions, fenced rejections, rejoins).
    pub failover: FailoverStats,
    /// Highest fencing term this node has been fenced by (0 = never).
    /// The node is *fenced* while this exceeds its own term: steward
    /// mutations and replication streams answer 409 until it rejoins.
    fenced_by: AtomicU64,
    /// Term an in-memory node (no journal, no latch) serves under.
    solo_term: AtomicU64,
    /// Directory a promoted replica opens its first journal generation in
    /// (the replica's `data_dir`; `None` keeps promotion in-memory).
    pub promote_dir: Option<PathBuf>,
    /// Fsync policy for the journal opened at promotion.
    pub fsync: FsyncPolicy,
}

impl AppState {
    pub fn new(
        mut mdm: Mdm,
        config: &ServerConfig,
        store: Option<Arc<MetaStore>>,
        replica: Option<Arc<ReplicaStatus>>,
    ) -> Self {
        if let Some(threads) = config.pool_size {
            mdm.set_threads(threads);
        }
        if let Some(batch) = config.batch_size {
            mdm.set_batch_size(batch);
        }
        if let Some(mode) = config.optimize {
            mdm.set_optimize(mode);
        }
        AppState {
            mdm: RwLock::new(mdm),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            poll_wakeups: AtomicU64::new(0),
            started: Instant::now(),
            workers: config.workers.max(1),
            max_pending: config.max_pending.max(1),
            read_timeout: config.read_timeout,
            request_deadline: config.request_deadline.unwrap_or(config.read_timeout),
            retry_after_secs: config.retry_after.as_secs().max(1),
            role: RwLock::new(RoleState { store, replica }),
            replication: ReplicationHub::default(),
            failover: FailoverStats::default(),
            fenced_by: AtomicU64::new(0),
            solo_term: AtomicU64::new(1),
            promote_dir: config.data_dir.clone(),
            fsync: config.fsync,
        }
    }

    /// The durable journal, if this node currently owns one.
    pub fn store(&self) -> Option<Arc<MetaStore>> {
        self.role_read().store.clone()
    }

    /// The replica status latch, while this node is a replica.
    pub fn replica(&self) -> Option<Arc<ReplicaStatus>> {
        self.role_read().replica.clone()
    }

    /// Atomically replaces the node's role (promotion flips replica →
    /// primary in one swap).
    pub fn set_role(&self, role: RoleState) {
        *self
            .role
            .write()
            .unwrap_or_else(|poison| poison.into_inner()) = role;
    }

    /// The fencing term this node currently serves under.
    pub fn current_term(&self) -> u64 {
        let role = self.role_read();
        if let Some(replica) = &role.replica {
            return replica.term();
        }
        if let Some(store) = &role.store {
            return store.term();
        }
        self.solo_term.load(Ordering::SeqCst)
    }

    /// Sets the term an in-memory node reports (promotion without a
    /// `data_dir` still bumps the advertised term).
    pub fn set_solo_term(&self, term: u64) {
        self.solo_term.store(term, Ordering::SeqCst);
    }

    /// Latches the highest term this node has been fenced by.
    pub fn fence(&self, term: u64) {
        self.fenced_by.fetch_max(term, Ordering::SeqCst);
    }

    /// True while a newer term has fenced this node out of the write role.
    pub fn is_fenced(&self) -> bool {
        self.fenced_by.load(Ordering::SeqCst) > self.current_term()
    }

    /// Highest term this node has been fenced by (0 = never).
    pub fn fenced_by(&self) -> u64 {
        self.fenced_by.load(Ordering::SeqCst)
    }

    /// The changefeed after `since` (at most `limit` records), whether the
    /// cursor is below the feed's horizon, and the metadata epoch it was
    /// read at. With a non-zero `wait` a caught-up cursor parks until a
    /// mutation lands or the wait expires: on the durable store's condvar
    /// when there is one, otherwise polling the feed every 25 ms.
    /// `GET /changes` and the REPL's `changes` while serving read it here.
    pub fn changes(
        &self,
        since: u64,
        limit: usize,
        wait: Duration,
    ) -> (Vec<ChangeRecord>, bool, u64) {
        let deadline = Instant::now() + wait;
        let store = self.store();
        loop {
            let (records, truncated, epoch, wal_mark) = {
                let mdm = self.mdm.read().expect("state poisoned");
                let (records, truncated) = mdm.changes_since(since, limit);
                // The WAL position is read under the same lock as the feed,
                // so the wait below cannot miss a commit that landed
                // between "feed is empty" and "start waiting".
                let wal_mark = store
                    .as_ref()
                    .map(|s| (s.generation(), s.stats().wal_records));
                (records, truncated, mdm.epoch(), wal_mark)
            };
            let now = Instant::now();
            if !records.is_empty() || truncated || now >= deadline {
                return (records, truncated, epoch);
            }
            let remaining = deadline - now;
            match (&store, wal_mark) {
                (Some(store), Some((generation, wal_records))) => {
                    store.wait_for_records(generation, wal_records, remaining);
                }
                _ => std::thread::sleep(remaining.min(Duration::from_millis(25))),
            }
        }
    }

    fn role_read(&self) -> std::sync::RwLockReadGuard<'_, RoleState> {
        self.role
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }
}
