//! # mdm-replica
//!
//! WAL-shipping read replicas for `mdm-server`. A [`ReplicaNode`] serves
//! the full analyst API from its own [`Mdm`], kept in sync by pulling the
//! primary's replication stream:
//!
//! 1. **Bootstrap** — the first `/replication/stream` response carries the
//!    primary's snapshot generation; the replica restores it into a fresh
//!    `Mdm` and swaps it behind the server's lock.
//! 2. **Replay** — subsequent responses carry CRC-framed WAL records; each
//!    replays through [`Mdm::replay`] — decoded to a [`MutationOp`] and
//!    carried out by `Mdm::apply`, the function every steward route and
//!    crash recovery run — so the replica's metadata (and epoch) is
//!    byte-identical to a primary restored at the same offset.
//! 3. **Hydrate** — the journal ships metadata only; wrapper payloads are
//!    fetched separately (`/replication/wrapper?name=`), decoded by the
//!    codec `POST /steward/wrappers` uses, and installed into the
//!    execution catalog without touching the epoch.
//! 4. **Follow** — caught up, the replica long-polls; a steward mutation
//!    on the primary lands here within one poll cycle.
//!
//! The node serves reads at its replay epoch throughout — including while
//! disconnected (state `disconnected`, still trustworthy, just stale).
//! Two conditions make it refuse to pretend otherwise: before the first
//! bootstrap `/healthz` reports `degraded` (there is nothing real to
//! serve), and a record that fails to decode or apply **poisons** the node
//! terminally (its state may have diverged; `/healthz` carries the
//! offending WAL offset). Steward mutations are answered with
//! `421 Misdirected Request` pointing at the primary.
//!
//! ## Failover
//!
//! Every stream request carries the highest **fencing term** the replica
//! has observed. Batches from a *staler* term are refused (the peer is a
//! demoted primary); a 409 reporting a *newer* term is the rejoin
//! handshake: the replica discards whatever local WAL tail lies past the
//! new term's fork epoch (counting it in `/metrics`), purges its
//! now-divergent store files, and resyncs from offset zero. A node that
//! used to be a primary starts the same way: [`ReplicaConfig::data_dir`]
//! pointing at its old journal recovers that state for stale reads, then
//! the handshake decides how much of it survives. Promotion runs the other
//! direction — `POST /admin/promote` detaches the sync thread (severing
//! its long-poll socket) and flips the node primary under a bumped term.

use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mdm_core::{Mdm, MutationOp};
use mdm_dataform::{json, Value};
use mdm_server::client::Connection;
use mdm_server::replication::{ReplicaState, ReplicaStatus};
use mdm_server::routes::decode_wrapper;
use mdm_server::state::AppState;
use mdm_server::{serve_on, ServerConfig, ServerHandle};
use mdm_store::{purge, ReplicationBatch, Store};

/// How a replica node connects to its primary and serves locally.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// The primary's `host:port`.
    pub primary: String,
    /// The local server (bind address, workers, shedding) — its
    /// `data_dir` is overridden by [`ReplicaConfig::data_dir`]: while
    /// following, a replica's durability is the primary's journal; its
    /// `fsync` policy governs the journal a promotion would open.
    pub server: ServerConfig,
    /// Identifier reported to the primary (`/metrics` lag gauges). Empty
    /// picks `replica-<port>` after binding.
    pub id: String,
    /// Long-poll budget per stream request once caught up.
    pub wait_ms: u64,
    /// First reconnect delay after a stream failure.
    pub min_backoff: Duration,
    /// Reconnect delays double up to this cap (jittered; see
    /// [`ReplicaConfig::backoff_seed`]).
    pub max_backoff: Duration,
    /// Seeds the deterministic reconnect jitter: attempt `n` sleeps
    /// between 50% and 100% of `min_backoff · 2ⁿ` (capped), so replicas
    /// with different seeds never hammer a recovering primary in
    /// lockstep, while a fixed seed keeps chaos runs reproducible.
    pub backoff_seed: u64,
    /// Directory of a journal this node wrote in a previous life (as a
    /// primary, or as a previously promoted replica). On start the state
    /// is recovered for stale reads until the rejoin handshake decides
    /// how much of it was divergent; on promotion the new primary
    /// generation opens here. `None` keeps the node purely in-memory.
    pub data_dir: Option<PathBuf>,
}

impl ReplicaConfig {
    /// Defaults for following `primary`: ephemeral local port, 1 s
    /// long-poll, 100 ms → 5 s reconnect backoff, no data dir.
    pub fn new(primary: impl Into<String>) -> Self {
        ReplicaConfig {
            primary: primary.into(),
            server: ServerConfig::default(),
            id: String::new(),
            wait_ms: 1_000,
            min_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            backoff_seed: 0x6d64_6d2d_7265_706c,
            data_dir: None,
        }
    }
}

/// A running replica; dropping it (or [`ReplicaHandle::shutdown`]) stops
/// the sync thread and the local server.
pub struct ReplicaHandle {
    addr: SocketAddr,
    status: Arc<ReplicaStatus>,
    stopping: Arc<AtomicBool>,
    server: Option<ServerHandle>,
    sync: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// The local serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live status latch (tests and the CLI poll it).
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// The local server's shared state (the replaying [`Mdm`] behind it).
    pub fn state(&self) -> &Arc<AppState> {
        self.server
            .as_ref()
            .expect("replica server running")
            .state()
    }

    /// Blocks until the replica has bootstrapped and replayed up to
    /// `epoch` (or any later one). `false` on timeout or poisoning.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.status.is_bootstrapped()
                && self.status.replay_epoch.load(Ordering::SeqCst) >= epoch
            {
                return true;
            }
            if self.status.state() == ReplicaState::Poisoned || Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops syncing, drains the local server, joins both.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.sync.take() {
            let _ = handle.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The replica node entry point.
pub struct ReplicaNode;

impl ReplicaNode {
    /// Binds the local server (serving immediately — `degraded` until the
    /// first bootstrap lands, unless a previous life's journal in
    /// [`ReplicaConfig::data_dir`] restores state for stale reads) and
    /// spawns the sync thread.
    pub fn start(config: ReplicaConfig) -> io::Result<ReplicaHandle> {
        let listener = TcpListener::bind(&config.server.addr)?;
        let addr = listener.local_addr()?;
        let status = Arc::new(ReplicaStatus::new(config.primary.clone()));
        let mut server_config = config.server.clone();
        // The replica journals nothing while following, but promotion
        // opens its first primary generation here (`AppState.promote_dir`).
        server_config.data_dir = config.data_dir.clone();
        let mut mdm = Mdm::new();
        // Epochs of WAL records a previous life journalled; the rejoin
        // handshake decides how many lie past the fork and were divergent.
        let mut recovered_tail = Vec::new();
        if let Some(dir) = &config.data_dir {
            match Store::open(dir, server_config.fsync) {
                Ok(Some((_store, recovered))) => {
                    let local = mdm
                        .recovered(
                            &recovered.snapshot,
                            recovered.base_epoch,
                            &recovered.records,
                        )
                        .map_err(io::Error::other)?;
                    recovered_tail = recovered.records.iter().map(|r| r.epoch).collect();
                    status.observe_term(recovered.term);
                    status.replay_epoch.store(local.epoch(), Ordering::SeqCst);
                    status.mark_bootstrapped();
                    status.set_state(ReplicaState::Disconnected);
                    status.set_error(Some(format!(
                        "recovered a term-{} journal from {}; serving stale reads until rejoin",
                        recovered.term,
                        dir.display()
                    )));
                    mdm = local;
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::other(format!(
                        "recovering the journal in {} failed: {e}",
                        dir.display()
                    )));
                }
            }
        }
        let server = serve_on(
            listener,
            &server_config,
            mdm,
            None,
            Some(Arc::clone(&status)),
        )?;
        let stopping = Arc::new(AtomicBool::new(false));
        let id = if config.id.is_empty() {
            format!("replica-{}", addr.port())
        } else {
            config.id.clone()
        };
        let ctx = SyncCtx {
            state: Arc::clone(server.state()),
            status: Arc::clone(&status),
            stopping: Arc::clone(&stopping),
            primary: config.primary.clone(),
            id,
            wait_ms: config.wait_ms,
            min_backoff: config.min_backoff,
            max_backoff: config.max_backoff,
            backoff_seed: config.backoff_seed,
            data_dir: config.data_dir,
            recovered_tail,
        };
        let sync = thread::Builder::new()
            .name("mdm-replica-sync".to_string())
            .spawn(move || sync_loop(ctx))?;
        Ok(ReplicaHandle {
            addr,
            status,
            stopping,
            server: Some(server),
            sync: Some(sync),
        })
    }
}

// ---------------------------------------------------------------------
// Sync thread
// ---------------------------------------------------------------------

struct SyncCtx {
    state: Arc<AppState>,
    status: Arc<ReplicaStatus>,
    stopping: Arc<AtomicBool>,
    primary: String,
    id: String,
    wait_ms: u64,
    min_backoff: Duration,
    max_backoff: Duration,
    backoff_seed: u64,
    data_dir: Option<PathBuf>,
    /// Epochs of WAL records recovered from a previous life's journal.
    recovered_tail: Vec<u64>,
}

impl SyncCtx {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    fn exiting(&self) -> bool {
        self.stopping() || self.status.detach_requested()
    }
}

/// Where the replica's replay stands in the primary's WAL.
#[derive(Clone, Copy, Default)]
struct Cursor {
    generation: u64,
    from: u64,
}

/// Why a sync session ended.
enum SessionEnd {
    /// Shutdown requested.
    Stopping,
    /// Promotion detached the sync thread — the node stops following.
    Detached,
    /// A record failed to decode or apply — terminal, thread exits.
    Poisoned,
    /// Transport or protocol failure — reconnect with backoff. `healthy`
    /// records whether the session applied at least one batch before
    /// dying: only a full healthy session restarts the backoff schedule.
    Disconnected { error: String, healthy: bool },
}

fn sync_loop(ctx: SyncCtx) {
    let mut attempt: u32 = 0;
    let mut cursor = Cursor::default();
    // Wrapper names registered in metadata whose payloads still need
    // fetching; survives reconnects so a failed hydration retries.
    let mut pending_wrappers = BTreeSet::new();
    let mut local_tail = ctx.recovered_tail.clone();
    while !ctx.exiting() {
        match sync_session(&ctx, &mut cursor, &mut pending_wrappers, &mut local_tail) {
            SessionEnd::Stopping | SessionEnd::Detached | SessionEnd::Poisoned => break,
            SessionEnd::Disconnected { error, healthy } => {
                // A bootstrapped replica keeps serving its epoch while
                // reconnecting; an unbootstrapped one stays degraded.
                if ctx.status.is_bootstrapped() {
                    ctx.status.set_state(ReplicaState::Disconnected);
                }
                ctx.status.set_error(Some(error));
                ctx.status.reconnects.fetch_add(1, Ordering::SeqCst);
                // Only a session that proved the primary healthy (applied
                // a batch) restarts the schedule; anything else keeps
                // climbing, so a flapping primary sees spread-out retries
                // instead of a lockstep thundering herd.
                attempt = if healthy {
                    0
                } else {
                    attempt.saturating_add(1)
                };
                sleep_unless_stopping(
                    &ctx,
                    jittered_backoff(ctx.backoff_seed, attempt, ctx.min_backoff, ctx.max_backoff),
                );
            }
        }
    }
    // Whatever the exit path, the thread no longer follows the primary;
    // promotion waits on this latch before reading the final state.
    ctx.status.mark_detached();
}

/// Exponential backoff with deterministic jitter — the same SplitMix64
/// mix `relational::resilience::RetryPolicy` uses. Attempt `n` sleeps
/// between 50% and 100% of `min · 2ⁿ`, capped at `max`.
fn jittered_backoff(seed: u64, attempt: u32, min: Duration, max: Duration) -> Duration {
    let base = min
        .saturating_mul(2u32.saturating_pow(attempt.min(16)))
        .min(max);
    let mut z = seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let unit = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(0.5 + unit * 0.5)
}

/// Sleeps in slices so shutdown (or a detach request) never waits out a
/// full backoff.
fn sleep_unless_stopping(ctx: &SyncCtx, total: Duration) {
    let deadline = Instant::now() + total;
    while !ctx.exiting() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// One connection's worth of streaming: request batches from the cursor,
/// apply them, long-poll when caught up. Returns when the connection (or
/// the replica) dies. The socket is registered with the status latch so
/// `request_detach` can sever a read parked mid-long-poll.
fn sync_session(
    ctx: &SyncCtx,
    cursor: &mut Cursor,
    pending_wrappers: &mut BTreeSet<String>,
    local_tail: &mut Vec<u64>,
) -> SessionEnd {
    let mut conn = match Connection::open(&ctx.primary) {
        Ok(conn) => conn,
        Err(e) => {
            return SessionEnd::Disconnected {
                error: format!("connect to primary failed: {e}"),
                healthy: false,
            }
        }
    };
    ctx.status.set_stream(conn.try_clone_stream().ok());
    let end = stream_session(ctx, &mut conn, cursor, pending_wrappers, local_tail);
    ctx.status.set_stream(None);
    end
}

fn stream_session(
    ctx: &SyncCtx,
    conn: &mut Connection,
    cursor: &mut Cursor,
    pending_wrappers: &mut BTreeSet<String>,
    local_tail: &mut Vec<u64>,
) -> SessionEnd {
    // The read may legitimately park for the whole long-poll budget.
    let _ = conn.set_read_timeout(Some(
        Duration::from_millis(ctx.wait_ms) + Duration::from_secs(10),
    ));
    let mut healthy = false;
    loop {
        if ctx.stopping() {
            return SessionEnd::Stopping;
        }
        if ctx.status.detach_requested() {
            return SessionEnd::Detached;
        }
        let path = format!(
            "/replication/stream?generation={}&from={}&wait_ms={}&replica_id={}&term={}",
            cursor.generation,
            cursor.from,
            ctx.wait_ms,
            ctx.id,
            ctx.status.term()
        );
        let raw = match conn.send_raw("GET", &path, None) {
            Ok(raw) => raw,
            Err(e) => {
                if ctx.status.detach_requested() {
                    // The severed socket is the detach mechanism, not a
                    // failure.
                    return SessionEnd::Detached;
                }
                return SessionEnd::Disconnected {
                    error: format!("stream request failed: {e}"),
                    healthy,
                };
            }
        };
        if raw.status == 409 {
            match rejoin_handshake(ctx, &raw.body, cursor, local_tail) {
                // Term adopted; re-request from offset 0 on this
                // connection — the next batch carries a full snapshot.
                Ok(()) => continue,
                Err(error) => return SessionEnd::Disconnected { error, healthy },
            }
        }
        if raw.status != 200 {
            return SessionEnd::Disconnected {
                error: format!("primary answered HTTP {} to the stream request", raw.status),
                healthy,
            };
        }
        // A frame that fails CRC is a transport problem, not divergence:
        // reconnect and re-request the same offset.
        let batch = match ReplicationBatch::decode(&raw.body) {
            Ok(batch) => batch,
            Err(e) => {
                return SessionEnd::Disconnected {
                    error: format!("bad replication frame: {e}"),
                    healthy,
                }
            }
        };
        let observed = ctx.status.term();
        if batch.term < observed {
            // A demoted primary still streaming its old term: refuse its
            // records — accepting them would fork us off the new history.
            ctx.state
                .failover
                .fenced_rejections
                .fetch_add(1, Ordering::SeqCst);
            return SessionEnd::Disconnected {
                error: format!(
                    "primary streams term {} but term {observed} was observed; refusing stale records",
                    batch.term
                ),
                healthy,
            };
        }
        ctx.status.observe_term(batch.term);
        match apply_batch(ctx, conn, &batch, cursor, pending_wrappers) {
            Ok(()) => {
                healthy = true;
                ctx.status.set_error(None);
            }
            Err(end) => return end,
        }
    }
}

/// Handles a 409 from the stream route. When it carries a term newer than
/// anything observed, this is a legitimate rejoin: whatever local WAL tail
/// lies past the new term's fork epoch is divergent — count and discard
/// it, purge the stale store files, adopt the term, and restart the
/// cursor so the next response bootstraps from the new primary's
/// snapshot. Any other 409 (this replica itself presented the newer term,
/// or the body is opaque) is a plain disconnect.
fn rejoin_handshake(
    ctx: &SyncCtx,
    body: &[u8],
    cursor: &mut Cursor,
    local_tail: &mut Vec<u64>,
) -> Result<(), String> {
    let text = String::from_utf8_lossy(body).into_owned();
    let value = json::parse(&text).map_err(|_| format!("primary answered 409: {text}"))?;
    let uint = |name: &str| {
        value
            .get(name)
            .and_then(Value::as_number)
            .and_then(|n| n.as_i64())
            .and_then(|n| u64::try_from(n).ok())
    };
    let observed = uint("observed_term").ok_or_else(|| format!("primary answered 409: {text}"))?;
    if observed <= ctx.status.term() {
        return Err(format!("primary answered 409: {text}"));
    }
    let fork = uint("term_start_epoch").unwrap_or(0);
    let divergent = local_tail.iter().filter(|&&epoch| epoch > fork).count() as u64;
    if divergent > 0 {
        ctx.state
            .failover
            .divergent_records_discarded
            .fetch_add(divergent, Ordering::SeqCst);
    }
    local_tail.clear();
    if let Some(dir) = &ctx.data_dir {
        // The on-disk generation carries the divergent tail too; drop it
        // so a later promotion starts from the replicated history only.
        let _ = purge(dir);
    }
    ctx.status.observe_term(observed);
    *cursor = Cursor::default();
    ctx.state.failover.rejoins.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Applies one batch: snapshot bootstrap (when present), then record
/// replay, then wrapper hydration. The cursor advances per record, so a
/// failure mid-batch resumes exactly where it stopped.
fn apply_batch(
    ctx: &SyncCtx,
    conn: &mut Connection,
    batch: &ReplicationBatch,
    cursor: &mut Cursor,
    pending_wrappers: &mut BTreeSet<String>,
) -> Result<(), SessionEnd> {
    ctx.status
        .primary_epoch
        .store(batch.primary_epoch, Ordering::SeqCst);
    if let Some(snapshot) = &batch.snapshot {
        let restored = ctx.state.mdm.read().expect("state poisoned").recovered(
            snapshot,
            batch.base_epoch,
            &[],
        );
        let restored = match restored {
            Ok(mdm) => mdm,
            Err(e) => {
                // The frame passed its CRC, so these bytes are what the
                // primary meant to send — retrying cannot help.
                ctx.status
                    .poison(batch.start, format!("snapshot restore failed: {e}"));
                return Err(SessionEnd::Poisoned);
            }
        };
        *ctx.state.mdm.write().expect("state poisoned") = restored;
        ctx.status
            .generation
            .store(batch.generation, Ordering::SeqCst);
        ctx.status.bootstraps.fetch_add(1, Ordering::SeqCst);
        cursor.generation = batch.generation;
        cursor.from = batch.start;
        // The snapshot declares wrappers; their payloads ship separately.
        pending_wrappers.clear();
        match fetch_wrapper_names(conn) {
            Ok(names) => pending_wrappers.extend(names),
            Err(e) => {
                return Err(SessionEnd::Disconnected {
                    error: e,
                    healthy: false,
                })
            }
        }
    }
    for (index, record) in batch.records.iter().enumerate() {
        let offset = batch.start + index as u64;
        let replayed = ctx
            .state
            .mdm
            .write()
            .expect("state poisoned")
            .replay(record);
        match replayed {
            Ok(MutationOp::RegisterWrapper { wrapper, .. }) => {
                pending_wrappers.insert(wrapper);
            }
            Ok(_) => {}
            Err(e) => {
                ctx.status.poison(
                    offset,
                    format!("WAL record at offset {offset} {}", e.message()),
                );
                return Err(SessionEnd::Poisoned);
            }
        }
        ctx.status.records_applied.fetch_add(1, Ordering::SeqCst);
        cursor.from = offset + 1;
    }
    cursor.generation = batch.generation;
    cursor.from = batch.next_offset();
    hydrate_pending(ctx, conn, pending_wrappers).map_err(|error| SessionEnd::Disconnected {
        error,
        healthy: false,
    })?;
    // The gauge is published only now, after wrapper hydration: a reader
    // of `replay_epoch` (`/epoch`, `wait_for_epoch`) must be able to
    // *query* at that epoch, not merely know its metadata was applied.
    // The state goes first, so a reader who sees the new epoch also sees
    // the replica bootstrapped and replicating. Reading the epoch back
    // from the Mdm also re-publishes after a hydration retry that rode an
    // empty batch.
    if batch.snapshot.is_some() {
        ctx.status.mark_bootstrapped();
    }
    ctx.status.set_state(ReplicaState::Replicating);
    let replayed = ctx.state.mdm.read().expect("state poisoned").epoch();
    ctx.status.replay_epoch.store(replayed, Ordering::SeqCst);
    Ok(())
}

// ---------------------------------------------------------------------
// Wrapper hydration
// ---------------------------------------------------------------------

/// Asks the primary which wrappers its catalog can execute.
fn fetch_wrapper_names(conn: &mut Connection) -> Result<Vec<String>, String> {
    let raw = conn
        .send_raw("GET", "/replication/wrappers", None)
        .map_err(|e| format!("wrapper list request failed: {e}"))?;
    let body = raw
        .into_ok()
        .map_err(|e| format!("wrapper list request failed: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "wrapper list is not UTF-8".to_string())?;
    let value = json::parse(&text).map_err(|e| format!("wrapper list is not valid JSON: {e}"))?;
    Ok(value
        .get("wrappers")
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default())
}

/// Fetches and installs every pending wrapper payload. Transport errors
/// abort (the set persists, so the next session retries); semantic errors
/// drop the name — a wrapper that cannot hydrate stays unbacked, which
/// degrades query completeness but never correctness of what is answered.
fn hydrate_pending(
    ctx: &SyncCtx,
    conn: &mut Connection,
    pending: &mut BTreeSet<String>,
) -> Result<(), String> {
    let names: Vec<String> = pending.iter().cloned().collect();
    for name in names {
        let raw = conn
            .send_raw("GET", &format!("/replication/wrapper?name={name}"), None)
            .map_err(|e| format!("wrapper fetch for '{name}' failed: {e}"))?;
        if raw.status == 404 {
            // The primary no longer serves this wrapper; nothing to install.
            pending.remove(&name);
            continue;
        }
        let body = raw
            .into_ok()
            .map_err(|e| format!("wrapper fetch for '{name}' failed: {e}"))?;
        match decode_wrapper(&body) {
            Ok(wrapper) => {
                let mut mdm = ctx.state.mdm.write().expect("state poisoned");
                if let Err(e) = mdm.hydrate_wrapper(wrapper) {
                    ctx.status
                        .set_error(Some(format!("hydration of '{name}' rejected: {e}")));
                }
                pending.remove(&name);
            }
            Err(rejected) => {
                ctx.status.set_error(Some(format!(
                    "wrapper '{name}' payload malformed: {}",
                    String::from_utf8_lossy(&rejected.body)
                )));
                pending.remove(&name);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbootstrapped_replica_reports_degraded() {
        // Primary address that refuses connections: the replica must come
        // up, answer /healthz as degraded, and keep retrying quietly.
        let mut config = ReplicaConfig::new("127.0.0.1:1");
        config.min_backoff = Duration::from_millis(10);
        config.max_backoff = Duration::from_millis(50);
        let replica = ReplicaNode::start(config).unwrap();
        let health = mdm_server::client::get(replica.addr(), "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("degraded"), "{}", health.body);
        assert!(health.body.contains("bootstrapping"), "{}", health.body);
        let denied = mdm_server::client::post_json(
            replica.addr(),
            "/steward/concepts",
            r#"{"concept": "<http://example.org/X>"}"#,
        )
        .unwrap();
        assert_eq!(denied.status, 421);
        replica.shutdown();
    }
}
