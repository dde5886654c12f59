//! # mdm-server
//!
//! MDM as a service: the steward and analyst APIs of [`mdm_core::Mdm`]
//! behind a from-scratch HTTP/1.1 JSON interface over
//! [`std::net::TcpListener`] — no third-party dependencies, matching the
//! paper's deployment shape (MDM ran as a web application stewards and
//! analysts share).
//!
//! Architecture:
//!
//! * `event_loop` — a poll(2)-based readiness loop owning every
//!   connection (nonblocking accepts, incremental parsing, buffered
//!   writes), with route execution on a fixed worker pool so slow queries
//!   never stall the loop. Load shedding (503 + `Retry-After`) happens in
//!   the loop before a request ever reaches a worker.
//! * [`http`] — request parsing / response writing (keep-alive, bounded),
//!   both blocking (client side) and incremental (server side).
//! * [`state`] — one [`mdm_core::Mdm`] behind an `RwLock`: steward routes
//!   write, analyst routes read concurrently. Every steward mutation bumps
//!   the metadata **epoch**; analyst rewrites go through the epoch-keyed
//!   plan cache inside `Mdm`, so repeated dashboards cost one rewriting
//!   per metadata change, and a release can never serve a stale plan.
//! * [`routes`] — the JSON route table (`/steward/*`, `/analyst/*`,
//!   `/healthz`, `/metrics`, `/epoch`, `/replication/*`).
//! * [`replication`] — primary-side stream gauges and the replica status
//!   latch `mdm-replica` publishes into.
//! * [`client`] — a tiny blocking HTTP client for the CLI, tests, benches.
//!
//! ```no_run
//! let server = mdm_server::serve(mdm_server::ServerConfig::default(), mdm_core::Mdm::new())?;
//! println!("listening on {}", server.addr());
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
mod event_loop;
pub mod http;
pub mod replication;
pub mod routes;
pub mod state;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mdm_core::{FsyncPolicy, Mdm, MetaStore};

use crate::event_loop::{CompletionQueue, EventLoop, Job};
use crate::replication::ReplicaStatus;
use crate::state::AppState;

/// Listener configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the default, for tests).
    pub addr: String,
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Per-connection read timeout (bounds idle keep-alive connections).
    pub read_timeout: Duration,
    /// Deadline budget for each analyst query; defaults to `read_timeout`
    /// when `None`, so a query can never outlive its connection.
    pub request_deadline: Option<Duration>,
    /// Parsed requests allowed to wait for a worker before new ones are
    /// shed with `503 Service Unavailable`.
    pub max_pending: usize,
    /// The `Retry-After` hint sent with 503 responses.
    pub retry_after: Duration,
    /// Execution-pool size for query fan-out. `None` (or `Some(0)`) keeps
    /// the process-wide pool sized from `available_parallelism`; `Some(1)`
    /// forces sequential execution; `Some(n)` builds a dedicated n-worker
    /// pool.
    pub pool_size: Option<usize>,
    /// Operator batch width while draining queries. `None` (or `Some(0)`)
    /// keeps the engine default; the executor still adapts downward for
    /// small inputs.
    pub batch_size: Option<usize>,
    /// Always `None`: there is one data plane, and nothing to choose. The
    /// field is kept only because the repo benchmark prints it
    /// (`layout=None` in its environment line); ROADMAP item 1(b) drops
    /// that print, and then this field goes.
    pub layout: Option<std::convert::Infallible>,
    /// Plan-optimization mode for served queries: `None` keeps the engine
    /// default (cost-based); `Some(OptimizeMode::Off)` executes rewritings
    /// verbatim. Results are identical in both modes.
    pub optimize: Option<mdm_relational::OptimizeMode>,
    /// Durable-store directory. When set, the server recovers the journal
    /// on start (replacing the passed [`Mdm`] with the recovered state when
    /// one exists), appends every steward mutation to the WAL, and serves
    /// `POST /admin/compact`. `None` keeps the server purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// WAL durability policy for `data_dir`: fsync every record (`Always`,
    /// the default), at most once per interval, or never (OS decides).
    pub fsync: FsyncPolicy,
    /// Dedicated workers for `/replication/stream` long-polls, so replica
    /// catch-up never occupies the analyst/steward pool.
    pub stream_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(30),
            request_deadline: None,
            max_pending: 64,
            retry_after: Duration::from_secs(1),
            pool_size: None,
            batch_size: None,
            layout: None,
            optimize: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            stream_workers: 2,
        }
    }
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops the event loop and joins every worker.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Option<Arc<AppState>>,
    stopping: Arc<AtomicBool>,
    completions: Arc<CompletionQueue>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect counters through it).
    pub fn state(&self) -> &Arc<AppState> {
        self.state.as_ref().expect("server state taken")
    }

    /// Stops accepting, drains in-flight work and joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the server and hands back the [`Mdm`] it was serving (with
    /// everything stewards changed while it ran). `None` only if a worker
    /// leaked a state reference, which joining every thread prevents.
    pub fn into_mdm(mut self) -> Option<Mdm> {
        self.stop();
        let state = self.state.take()?;
        Arc::try_unwrap(state).ok().map(|s| {
            s.mdm
                .into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
        })
    }

    fn stop(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the poll loop so it observes the flag: it stops accepting,
        // closes idle connections, lets in-flight requests complete and
        // flush, and exits. Dropping the job senders (owned by the loop)
        // then stops the workers, which first answer every queued job with
        // `503 server is shutting down`.
        self.completions.wake_loop();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With every thread joined, no more journal appends can happen:
        // flush + fsync so every acknowledged mutation is durable before
        // the process exits (graceful-drain durability guarantee).
        if let Some(state) = &self.state {
            if let Some(store) = state.store() {
                let _ = store.sync();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `config.addr`, spawns the event loop and the worker pool, and
/// returns immediately.
///
/// When [`ServerConfig::data_dir`] is set, the durable store in that
/// directory is opened (or created): an existing journal **replaces** the
/// passed `mdm`'s metadata with the recovered state (its execution
/// settings carry over), and every steward mutation from then on is
/// appended to the WAL.
pub fn serve(config: ServerConfig, mdm: Mdm) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let (mdm, store) = match &config.data_dir {
        Some(dir) => {
            let (store, recovered, _report) = MetaStore::attach(dir, config.fsync, mdm)
                .map_err(|e| io::Error::other(e.to_string()))?;
            (recovered, Some(store))
        }
        None => (mdm, None),
    };
    serve_on(listener, &config, mdm, store, None)
}

/// [`serve`] over an already-bound listener, with the node's role handed
/// in: `store` is a journal the caller already opened (the REPL recovers
/// at session start), `replica` the status latch `mdm-replica` fronts its
/// replaying [`Mdm`] with. `config.data_dir` opens nothing here; a replica
/// keeps it as the directory its promotion journals in.
pub fn serve_on(
    listener: TcpListener,
    config: &ServerConfig,
    mdm: Mdm,
    store: Option<Arc<MetaStore>>,
    replica: Option<Arc<ReplicaStatus>>,
) -> io::Result<ServerHandle> {
    let workers = config.workers.max(1);
    let stream_workers = config.stream_workers.max(1);
    let addr = listener.local_addr()?;
    let state = Arc::new(AppState::new(mdm, config, store, replica));
    let stopping = Arc::new(AtomicBool::new(false));

    // Self-pipe: workers (and shutdown) write a byte to interrupt poll(2).
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    let completions = Arc::new(CompletionQueue::new(wake_tx));

    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let (stream_tx, stream_rx) = mpsc::channel::<Job>();

    let mut worker_handles = Vec::with_capacity(workers + stream_workers);
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    for index in 0..workers {
        let receiver = Arc::clone(&jobs_rx);
        let state = Arc::clone(&state);
        let stopping = Arc::clone(&stopping);
        let completions = Arc::clone(&completions);
        worker_handles.push(
            thread::Builder::new()
                .name(format!("mdm-worker-{index}"))
                .spawn(move || event_loop::worker_loop(receiver, state, stopping, completions))
                .expect("failed to spawn worker thread"),
        );
    }
    let stream_rx = Arc::new(Mutex::new(stream_rx));
    for index in 0..stream_workers {
        let receiver = Arc::clone(&stream_rx);
        let state = Arc::clone(&state);
        let stopping = Arc::clone(&stopping);
        let completions = Arc::clone(&completions);
        worker_handles.push(
            thread::Builder::new()
                .name(format!("mdm-stream-{index}"))
                .spawn(move || event_loop::worker_loop(receiver, state, stopping, completions))
                .expect("failed to spawn stream worker thread"),
        );
    }

    let event_loop = {
        let state = Arc::clone(&state);
        let stopping = Arc::clone(&stopping);
        let completions = Arc::clone(&completions);
        thread::Builder::new()
            .name("mdm-event-loop".to_string())
            .spawn(move || {
                EventLoop {
                    listener,
                    state,
                    stopping,
                    wake_rx,
                    completions,
                    jobs: jobs_tx,
                    stream_jobs: stream_tx,
                }
                .run()
            })
            .expect("failed to spawn event-loop thread")
    };

    Ok(ServerHandle {
        addr,
        state: Some(state),
        stopping,
        completions,
        event_loop: Some(event_loop),
        workers: worker_handles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn serve_and_shutdown_round_trip() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let health = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(
            health.body.contains("\"status\": \"ok\"") || health.body.contains("\"status\":\"ok\"")
        );
        server.shutdown();
    }

    #[test]
    fn unknown_route_is_404_and_counted() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let missing = client::get(server.addr(), "/nope").unwrap();
        assert_eq!(missing.status, 404);
        let metrics = client::get(server.addr(), "/metrics").unwrap();
        assert!(metrics.body.contains("\"errors_total\""));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let mut connection = client::Connection::open(server.addr()).unwrap();
        for _ in 0..3 {
            let response = connection.send("GET", "/healthz", None).unwrap();
            assert_eq!(response.status, 200);
        }
        server.shutdown();
    }

    #[test]
    fn into_mdm_returns_stewarded_state() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let response = client::post_json(
            server.addr(),
            "/steward/concepts",
            r#"{"concept": "<http://example.org/Player>"}"#,
        )
        .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let mdm = server.into_mdm().expect("state recovered after join");
        assert_eq!(mdm.epoch(), 1);
        assert_eq!(mdm.ontology().concepts().len(), 1);
    }

    #[test]
    fn stats_refresh_bumps_stats_epoch_not_metadata_epoch() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let before = client::get(server.addr(), "/epoch").unwrap();
        assert!(
            before.body.contains("\"metadata_epoch\":0"),
            "{}",
            before.body
        );
        let refresh = client::post_json(server.addr(), "/steward/stats/refresh", "{}").unwrap();
        assert_eq!(refresh.status, 200, "{}", refresh.body);
        assert!(refresh.body.contains("\"stats_epoch\""), "{}", refresh.body);
        assert!(
            refresh.body.contains("\"epoch\":0"),
            "refresh must not bump the metadata epoch: {}",
            refresh.body
        );
        let metrics = client::get(server.addr(), "/metrics").unwrap();
        assert!(metrics.body.contains("\"optimizer\""), "{}", metrics.body);
        assert!(metrics.body.contains("\"stats_epoch\""), "{}", metrics.body);
        server.shutdown();
    }

    #[test]
    fn explain_get_requires_a_walk_parameter() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let missing = client::get(server.addr(), "/analyst/explain").unwrap();
        assert_eq!(missing.status, 400, "{}", missing.body);
        assert!(missing.body.contains("walk"), "{}", missing.body);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        use std::io::{Read, Write};
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }

    /// A head that never ends — header lines without the blank line — is
    /// refused with the parser's 400 once it outgrows any head the parser
    /// accepts, instead of being buffered for as long as the peer writes.
    #[test]
    fn endless_request_head_is_refused_not_buffered() {
        use std::io::{Read, Write};
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
        while head.len() < 2 << 20 {
            head.extend_from_slice(b"X-Filler: 0123456789abcdef0123456789abcdef\r\n");
        }
        // The server may stop reading (and reset the connection) before
        // the last filler line: a failed write is expected.
        let _ = stream.write_all(&head);
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
        assert!(response.contains("\"protocol\""), "{response}");
        server.shutdown();
    }

    #[test]
    fn request_split_across_many_writes_still_parses() {
        use std::io::{Read, Write};
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        for chunk in raw.chunks(5) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        server.shutdown();
    }

    #[test]
    fn many_idle_connections_do_not_block_service() {
        let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
        // Far more connections than workers; the blocking server would
        // starve here because each idle keep-alive pinned a worker.
        let idle: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let health = client::get(server.addr(), "/healthz").unwrap();
        assert_eq!(health.status, 200);
        drop(idle);
        server.shutdown();
    }
}
