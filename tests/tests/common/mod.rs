//! Shared harness for the replication and failover suites: deterministic
//! mutation scripts, primary/replica process helpers, JSON accessors, a
//! severable TCP proxy for chaos injection, and a hostile primary that
//! serves hand-built replication batches.
//!
//! Chaos scheduling is seeded: set `MDM_CHAOS_SEED` to replay a run.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mdm_core::usecase;
use mdm_core::{FsyncPolicy, Mdm, MutationOp};
use mdm_dataform::{json, Value};
use mdm_replica::{ReplicaConfig, ReplicaHandle, ReplicaNode};
use mdm_server::client;
use mdm_server::{serve, ServerConfig, ServerHandle};
use mdm_store::ReplicationBatch;
use mdm_wrappers::football;

pub const FIG8_WALK: &str =
    "ex:Player { ex:playerName }\nsc:SportsTeam { ex:teamName }\nex:Player -ex:hasTeam-> sc:SportsTeam";

/// The seed every chaos schedule derives from; `MDM_CHAOS_SEED` overrides
/// it so a failing run can be replayed exactly.
pub fn chaos_seed() -> u64 {
    std::env::var("MDM_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(0xC0FFEE)
}

pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdm-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn ns(local: &str) -> String {
    format!("http://example.org/{local}")
}

/// Deterministically expands action codes into a valid mutation script
/// (mirrors the durability suite's generator, trimmed to the op kinds that
/// exercise distinct replay paths).
pub fn build_ops(codes: &[u8]) -> Vec<MutationOp> {
    let mut concepts: Vec<(String, String)> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let mut ops = Vec::new();
    let mut serial = 0usize;
    let mut fresh = || {
        serial += 1;
        serial
    };
    for &code in codes {
        match code % 7 {
            0 => {
                let n = fresh();
                let concept = ns(&format!("C{n}"));
                let id = ns(&format!("C{n}_id"));
                ops.push(MutationOp::DefineConcept {
                    concept: concept.clone(),
                });
                ops.push(MutationOp::DefineFeature {
                    concept: concept.clone(),
                    feature: id.clone(),
                    identifier: true,
                });
                concepts.push((concept, id));
            }
            1 => {
                if concepts.is_empty() {
                    continue;
                }
                let index = code as usize % concepts.len();
                ops.push(MutationOp::DefineFeature {
                    concept: concepts[index].0.clone(),
                    feature: ns(&format!("f{}", fresh())),
                    identifier: false,
                });
            }
            2 => {
                let name = format!("S{}", fresh());
                ops.push(MutationOp::AddSource { name: name.clone() });
                sources.push(name);
            }
            3 => {
                if sources.is_empty() {
                    continue;
                }
                ops.push(MutationOp::RegisterWrapper {
                    source: sources.last().unwrap().clone(),
                    wrapper: format!("w{}", fresh()),
                    version: (code as u32 % 3) + 1,
                    attributes: vec!["id".into(), "v".into()],
                });
            }
            4 => {
                if concepts.len() < 2 {
                    continue;
                }
                let from = code as usize % concepts.len();
                let to = (from + 1) % concepts.len();
                ops.push(MutationOp::DefineRelation {
                    from: concepts[from].0.clone(),
                    property: ns(&format!("rel{}", fresh())),
                    to: concepts[to].0.clone(),
                });
            }
            5 => {
                let n = fresh();
                ops.push(MutationOp::BindPrefix {
                    prefix: format!("p{n}"),
                    namespace: format!("http://example.org/ns{n}#"),
                });
            }
            _ => {
                ops.push(MutationOp::SetOptions {
                    distinct: code % 2 == 0,
                    max_branches: 4096,
                });
            }
        }
    }
    if ops.is_empty() {
        ops.push(MutationOp::DefineConcept {
            concept: ns("Anchor"),
        });
    }
    ops
}

/// Replays a decoded batch exactly as the replica sync thread does: the
/// snapshot bootstrap, then `Mdm::replay` per record.
pub fn replay_batch(batch: &ReplicationBatch) -> Mdm {
    let snapshot = batch.snapshot.as_deref().expect("bootstrap batch");
    let mut mdm = Mdm::new()
        .recovered(snapshot, batch.base_epoch, &[])
        .expect("snapshot restores");
    for record in &batch.records {
        mdm.replay(record).expect("record replays");
    }
    mdm
}

// ---------------------------------------------------------------------
// Node helpers
// ---------------------------------------------------------------------

pub fn primary_config(dir: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: 4,
        data_dir: Some(dir),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    }
}

pub fn start_primary(tag: &str) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let server = start_primary_in(dir.clone());
    (server, dir)
}

/// Starts (or restarts) a primary over an existing data directory — an
/// existing journal is recovered, so the node resumes its epoch and term.
pub fn start_primary_in(dir: PathBuf) -> ServerHandle {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    serve(primary_config(dir), mdm).unwrap()
}

pub fn start_replica(primary: SocketAddr) -> ReplicaHandle {
    start_replica_at(&primary.to_string(), None, chaos_seed())
}

/// Starts a replica following `primary`, optionally over a data directory
/// (a previous life's journal seeds stale reads; promotion journals here).
pub fn start_replica_at(primary: &str, data_dir: Option<PathBuf>, seed: u64) -> ReplicaHandle {
    let mut config = ReplicaConfig::new(primary);
    config.wait_ms = 500;
    config.min_backoff = Duration::from_millis(20);
    config.max_backoff = Duration::from_millis(200);
    config.backoff_seed = seed;
    config.server.workers = 2;
    config.server.fsync = FsyncPolicy::Never;
    config.data_dir = data_dir;
    ReplicaNode::start(config).unwrap()
}

// ---------------------------------------------------------------------
// HTTP helpers
// ---------------------------------------------------------------------

pub fn get_json(addr: SocketAddr, path: &str) -> Value {
    let response = client::get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(response.status, 200, "GET {path}: {}", response.body);
    json::parse(&response.body).expect("JSON body")
}

pub fn query_body(addr: SocketAddr, walk: &str) -> String {
    let body = json::to_string(&Value::object([("walk", Value::string(walk))]));
    let response =
        client::post_json(addr, "/analyst/query", &body).unwrap_or_else(|e| panic!("query: {e}"));
    assert_eq!(response.status, 200, "{}", response.body);
    response.body
}

pub fn int_of(value: &Value, field: &str) -> i64 {
    value
        .get(field)
        .and_then(Value::as_number)
        .and_then(|n| n.as_i64())
        .unwrap_or_else(|| panic!("missing numeric '{field}' in {value:?}"))
}

pub fn str_of<'v>(value: &'v Value, field: &str) -> &'v str {
    value
        .get(field)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string '{field}' in {value:?}"))
}

/// Defines one concept over HTTP; returns the acknowledged epoch on 200,
/// or the full response for the caller to assert on.
pub fn define_concept(addr: SocketAddr, iri: &str) -> Result<u64, client::ClientResponse> {
    let body = json::to_string(&Value::object([(
        "concept",
        Value::string(format!("<{iri}>")),
    )]));
    let response = client::post_json(addr, "/steward/concepts", &body)
        .unwrap_or_else(|e| panic!("POST /steward/concepts: {e}"));
    if response.status == 200 {
        let ack = json::parse(&response.body).expect("ack is JSON");
        Ok(int_of(&ack, "epoch") as u64)
    } else {
        Err(response)
    }
}

/// The node's canonical snapshot and epoch (`GET /steward/snapshot`
/// serves on every role — byte-identical snapshots at equal epochs mean
/// converged nodes).
pub fn snapshot_of(addr: SocketAddr) -> (String, u64) {
    let value = get_json(addr, "/steward/snapshot");
    (
        str_of(&value, "snapshot").to_string(),
        int_of(&value, "epoch") as u64,
    )
}

/// Polls `probe` until it returns true or `timeout` elapses.
pub fn wait_until(timeout: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// Registers the breaking Players v2 release over HTTP (nationality
/// feature, wrapper w3, its LAV mapping); returns the resulting epoch.
pub fn register_v2_over_http(addr: SocketAddr) -> u64 {
    let eco = football::build_default();
    let v2 = eco.players_api.release(2).expect("v2 published");
    let post = |path: &str, body: &str| {
        let response = client::post_json(addr, path, body).unwrap();
        assert!(
            (200..300).contains(&response.status),
            "POST {path}: HTTP {} {}",
            response.status,
            response.body
        );
        json::parse(&response.body).unwrap()
    };
    post(
        "/steward/features",
        r#"{"concept": "ex:Player", "feature": "ex:nationality"}"#,
    );
    let wrapper = Value::object([
        ("name", Value::string("w3")),
        ("source", Value::string("PlayersAPI")),
        ("version", Value::int(i64::from(v2.version))),
        ("format", Value::string("json")),
        ("payload", Value::string(v2.body.as_str())),
        (
            "attributes",
            Value::array(
                [
                    "id",
                    "pName",
                    "height",
                    "weight",
                    "foot",
                    "teamId",
                    "nationality",
                ]
                .into_iter()
                .map(Value::string),
            ),
        ),
        (
            "bindings",
            Value::object([
                ("id", Value::string("players_id")),
                ("pName", Value::string("players_full_name")),
                ("height", Value::string("players_height")),
                ("weight", Value::string("players_weight")),
                ("foot", Value::string("players_foot")),
                ("teamId", Value::string("players_team_id")),
                ("nationality", Value::string("players_nationality")),
            ]),
        ),
    ]);
    post("/steward/wrappers", &json::to_string(&wrapper));
    let ack = post(
        "/steward/mappings",
        r#"{
            "wrapper": "w3",
            "concepts": ["ex:Player", "sc:SportsTeam"],
            "features": ["ex:playerId", "ex:playerName", "ex:height", "ex:weight",
                         "ex:foot", "ex:nationality", "ex:teamId"],
            "relations": [{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}],
            "same_as": [
                {"attribute": "id", "feature": "ex:playerId"},
                {"attribute": "pName", "feature": "ex:playerName"},
                {"attribute": "height", "feature": "ex:height"},
                {"attribute": "weight", "feature": "ex:weight"},
                {"attribute": "foot", "feature": "ex:foot"},
                {"attribute": "nationality", "feature": "ex:nationality"},
                {"attribute": "teamId", "feature": "ex:teamId"}
            ]
        }"#,
    );
    int_of(&ack, "epoch") as u64
}

// ---------------------------------------------------------------------
// Chaos plumbing: severable proxy and hostile primary
// ---------------------------------------------------------------------

/// A pass-through TCP proxy whose live connections can be severed without
/// touching its listener — a reconnect through the same address works.
pub struct Proxy {
    pub addr: SocketAddr,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
}

impl Proxy {
    pub fn start(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        {
            let conns = Arc::clone(&conns);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for inbound in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(inbound) = inbound else { break };
                    let Ok(outbound) = TcpStream::connect(upstream) else {
                        continue;
                    };
                    {
                        let mut held = conns.lock().unwrap();
                        held.push(inbound.try_clone().unwrap());
                        held.push(outbound.try_clone().unwrap());
                    }
                    pump(inbound.try_clone().unwrap(), outbound.try_clone().unwrap());
                    pump(outbound, inbound);
                }
            });
        }
        Proxy { addr, conns, stop }
    }

    /// Kills every live proxied connection mid-stream.
    pub fn sever(&self) {
        for stream in self.conns.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Severs and stops accepting — the proxied address goes dark for good
    /// (simulates a partition that outlives the node behind it).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.sever();
        // Unblock accept() so the thread observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// One-directional byte pump on its own thread; dies with the sockets.
fn pump(mut from: TcpStream, to: TcpStream) {
    thread::spawn(move || {
        let mut to = to;
        let mut buf = [0u8; 4096];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = to.shutdown(Shutdown::Both);
    });
}

/// A minimal hostile primary: speaks just enough HTTP to serve one
/// replication bootstrap batch of the caller's construction (e.g. with a
/// corrupt record) — everything else answers an empty wrapper list.
pub fn hostile_primary(batch: ReplicationBatch) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let batch = batch.clone();
            thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    // Requests are header-only GETs: serve per blank line.
                    let Ok(n) = stream.read(&mut chunk) else {
                        return;
                    };
                    if n == 0 {
                        return;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..end]).to_string();
                        buf.drain(..end + 4);
                        let body: Vec<u8> = if head.contains("/replication/stream") {
                            batch.encode()
                        } else {
                            br#"{"wrappers": []}"#.to_vec()
                        };
                        let header = format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        if stream.write_all(header.as_bytes()).is_err()
                            || stream.write_all(&body).is_err()
                        {
                            return;
                        }
                    }
                }
            });
        }
    });
    addr
}
