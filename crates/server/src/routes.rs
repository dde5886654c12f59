//! The route table: the steward and analyst APIs as JSON-over-HTTP.
//!
//! Steward routes (metadata mutations, write lock). The first six bodies
//! each decode to one [`MutationOp`] that [`Mdm::apply`] carries out — the
//! function the typed mutators, WAL recovery and replica replay run too —
//! and the ack names the element it defined. `/steward/wrappers` decodes
//! through the wrapper-release codec ([`decode_wrapper`], shared with the
//! replica's hydration) because the release carries a payload:
//!
//! | method | path                  | body |
//! |--------|-----------------------|------|
//! | POST   | `/steward/concepts`   | `{"concept"}` |
//! | POST   | `/steward/features`   | `{"concept","feature","identifier"?}` |
//! | POST   | `/steward/relations`  | `{"from","property","to"}` |
//! | POST   | `/steward/subconcepts`| `{"sub","sup"}` |
//! | POST   | `/steward/sources`    | `{"name"}` |
//! | POST   | `/steward/wrappers`   | `{"name","source","version","format"?,"payload","attributes","bindings"}` |
//! | POST   | `/steward/mappings`   | `{"wrapper","concepts"?,"features"?,"relations"?,"same_as"?}` |
//! | GET    | `/steward/snapshot`   | — |
//! | POST   | `/steward/restore`    | `{"snapshot"}` |
//! | POST   | `/steward/stats/refresh` | — bump the stats epoch (re-profile + re-optimize; **not** a metadata release) |
//!
//! Analyst routes (read lock, shared plan cache):
//!
//! | POST | `/analyst/parse`   | `{"walk"}` — walk DSL, echoed canonicalised |
//! | POST | `/analyst/rewrite` | `{"walk"}` — SPARQL + algebra + branches |
//! | POST | `/analyst/explain` | `{"walk"}` — derivation narration + optimized plan tree with est/actual cardinalities |
//! | GET  | `/analyst/explain` | `?walk=` — same, for browsers/curl (percent-encoded walk) |
//! | POST | `/analyst/query`   | `{"walk"}` — executes, returns the table |
//!
//! Plus `GET /healthz`, `GET /metrics`, `GET /epoch`, the evolution
//! changefeed `GET /changes?since=N&limit=L&wait_ms=W` (long-poll; every
//! committed mutation after epoch `N` with its dependency footprint,
//! served on every role), and — when the
//! server runs with a durable `data_dir` — `POST /admin/compact`, which
//! folds the journal into a fresh snapshot generation, and the replication
//! endpoints replicas feed from:
//!
//! | GET | `/replication/stream`   | binary snapshot/WAL batch (long-poll) |
//! | GET | `/replication/wrappers` | names of executable wrappers |
//! | GET | `/replication/wrapper`  | `?name=` one wrapper's payload |
//!
//! Failover routes (see the fencing-term section in DESIGN.md):
//!
//! | POST | `/admin/promote` | replica → primary at a bumped fencing term |
//! | POST | `/admin/fence`   | `{"term"}` — fence this node out of term `t` |
//!
//! `/healthz` reports `degraded` when the journal became unwritable
//! (acknowledged mutations may not be durable) and on a replica that has
//! not completed bootstrap (or whose replay is poisoned). On a replica,
//! steward mutations and `/admin/compact` answer `421 Misdirected Request`
//! with a `Location` pointing at the primary; on a **fenced** node (one
//! that observed a newer fencing term) they answer `409 Conflict` carrying
//! `observed_term`, because the true primary is elsewhere and its address
//! is unknown here. Element names in bodies are prefixed names
//! (`ex:Player`) or bracketed IRIs, resolved against the ontology's prefix
//! map exactly like the walk DSL.

use std::sync::atomic::Ordering::SeqCst;
use std::time::Duration;

use mdm_core::mapping::MappingBuilder;
use mdm_core::walk::Walk;
use mdm_core::walk_dsl;
use mdm_core::{Applied, ChangeRecord, JournalSink, Mdm, MdmError, MetaStore, MutationOp};
use mdm_dataform::{json, Number, Value};
use mdm_rdf::term::Iri;
use mdm_relational::columnar::{Cell, MergedRows};
use mdm_relational::Deadline;
use mdm_wrappers::{Format, Release, Signature, Wrapper};

use crate::http::{Request, Response};
use crate::replication::ReplicaState;
use crate::state::{AppState, RoleState};

/// Routes the request and maintains the request/error counters.
pub fn dispatch(state: &AppState, request: &Request) -> Response {
    state.count_request();
    let response = route(state, request);
    if response.status >= 400 {
        state.count_error();
    }
    response
}

const PATHS: &[(&str, &str)] = &[
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/epoch"),
    ("GET", "/changes"),
    ("GET", "/replication/stream"),
    ("GET", "/replication/wrappers"),
    ("GET", "/replication/wrapper"),
    ("POST", "/steward/concepts"),
    ("POST", "/steward/features"),
    ("POST", "/steward/relations"),
    ("POST", "/steward/subconcepts"),
    ("POST", "/steward/sources"),
    ("POST", "/steward/wrappers"),
    ("POST", "/steward/mappings"),
    ("GET", "/steward/snapshot"),
    ("POST", "/steward/restore"),
    ("POST", "/steward/stats/refresh"),
    ("POST", "/analyst/parse"),
    ("POST", "/analyst/rewrite"),
    ("POST", "/analyst/explain"),
    ("GET", "/analyst/explain"),
    ("POST", "/analyst/query"),
    ("POST", "/admin/compact"),
    ("POST", "/admin/promote"),
    ("POST", "/admin/fence"),
];

fn route(state: &AppState, request: &Request) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    // A replica serves reads at its replay epoch; every metadata mutation
    // belongs on the primary. 421 tells a well-behaved client it knocked
    // on the wrong node, and `Location` says where to go instead. (The
    // failover routes `/admin/promote` and `/admin/fence` deliberately
    // fall outside this guard: they exist to be called on replicas.)
    let mutation = method == "POST" && (path.starts_with("/steward/") || path == "/admin/compact");
    if mutation {
        if let Some(replica) = state.replica() {
            return error_response(
                421,
                "replication",
                &format!(
                    "this node is a read replica; send steward mutations to the primary at {}",
                    replica.primary
                ),
            )
            .with_header("Location", format!("http://{}{}", replica.primary, path));
        }
        // A fenced node saw proof of a newer primary: accepting a write
        // here would fork the timeline. Reads keep serving (stale data,
        // honestly labelled via /healthz), writes are refused.
        if state.is_fenced() {
            state.failover.fenced_rejections.fetch_add(1, SeqCst);
            return term_error(
                409,
                &format!(
                    "this node was fenced by term {}; it is no longer the primary (own term {})",
                    state.fenced_by(),
                    state.current_term()
                ),
                state.fenced_by(),
                None,
            );
        }
    }
    match (method, path) {
        ("GET", "/") => index(),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/epoch") => epoch(state),
        ("GET", "/changes") => changes(state, request),
        ("GET", "/replication/stream") => replication_stream(state, request),
        ("GET", "/replication/wrappers") => replication_wrappers(state),
        ("GET", "/replication/wrapper") => replication_wrapper(state, request),
        ("POST", "/steward/concepts") => steward_op(state, request, "concept", decode_concept),
        ("POST", "/steward/features") => steward_op(state, request, "feature", decode_feature),
        ("POST", "/steward/relations") => steward_op(state, request, "property", decode_relation),
        ("POST", "/steward/subconcepts") => steward_op(state, request, "sub", decode_subconcept),
        ("POST", "/steward/sources") => steward_op(state, request, "source", decode_source),
        ("POST", "/steward/wrappers") => steward_wrappers(state, request),
        ("POST", "/steward/mappings") => steward_op(state, request, "graph", decode_mapping),
        ("GET", "/steward/snapshot") => steward_snapshot(state),
        ("POST", "/steward/restore") => steward_restore(state, request),
        ("POST", "/steward/stats/refresh") => steward_stats_refresh(state),
        ("POST", "/analyst/parse") => analyst_parse(state, request),
        ("POST", "/analyst/rewrite") => analyst_rewrite(state, request),
        ("POST", "/analyst/explain") => analyst_explain(state, request),
        ("GET", "/analyst/explain") => analyst_explain_get(state, request),
        ("POST", "/analyst/query") => analyst_query(state, request),
        ("POST", "/admin/compact") => admin_compact(state),
        ("POST", "/admin/promote") => admin_promote(state),
        ("POST", "/admin/fence") => admin_fence(state, request),
        _ if PATHS.iter().any(|(_, p)| *p == path) => error_response(
            405,
            "protocol",
            &format!("method {method} not allowed on {path}"),
        ),
        _ => error_response(404, "protocol", &format!("no route for {method} {path}")),
    }
}

// ---------------------------------------------------------------------
// JSON plumbing
// ---------------------------------------------------------------------

fn ok_json(value: Value) -> Response {
    Response::json(200, json::to_string(&value))
}

fn error_response(status: u16, category: &str, message: &str) -> Response {
    let body = Value::object([("error", error_value(category, message))]);
    Response::json(status, json::to_string(&body))
}

/// The `{"category","message"}` object every error body carries.
fn error_value(category: &str, message: &str) -> Value {
    Value::object([
        ("category", Value::string(category)),
        ("message", Value::string(message)),
    ])
}

/// A fencing 409: the standard error envelope plus the responder's
/// `observed_term` (and, on the rejoin handshake, where that term forked),
/// so the rejected peer can adopt the newer term and resync.
fn term_error(
    status: u16,
    message: &str,
    observed_term: u64,
    term_start_epoch: Option<u64>,
) -> Response {
    let mut fields = vec![
        ("error", error_value("fencing", message)),
        ("observed_term", Value::int(observed_term as i64)),
    ];
    if let Some(start) = term_start_epoch {
        fields.push(("term_start_epoch", Value::int(start as i64)));
    }
    Response::json(status, json::to_string(&Value::object(fields)))
}

fn mdm_error_response(error: &MdmError) -> Response {
    let status = match error.category() {
        "execution" => 500,
        "timeout" => 504,
        "rewrite" => 422,
        _ => 400,
    };
    error_response(status, error.category(), error.message())
}

fn parse_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_response(400, "protocol", "request body is not UTF-8"))?;
    json::parse(text)
        .map_err(|e| error_response(400, "protocol", &format!("invalid JSON body: {e}")))
}

fn str_field<'v>(body: &'v Value, name: &str) -> Result<&'v str, Response> {
    body.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| error_response(400, "protocol", &format!("missing string field '{name}'")))
}

fn uint_field<T: TryFrom<i64>>(body: &Value, name: &str) -> Result<T, Response> {
    body.get(name)
        .and_then(Value::as_number)
        .and_then(|n| n.as_i64())
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| error_response(400, "protocol", &format!("missing unsigned field '{name}'")))
}

/// An optional field: `None` when absent, a 400 naming it when present
/// with another type than `cast` reads (`kind` says which).
fn optional_field<'v, T>(
    body: &'v Value,
    name: &str,
    kind: &str,
    cast: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<Option<T>, Response> {
    body.get(name)
        .map(|value| {
            cast(value).ok_or_else(|| {
                error_response(400, "protocol", &format!("field '{name}' must be {kind}"))
            })
        })
        .transpose()
}

/// An optional array field's elements, each read by `cast` (`kind` names
/// the element type); absent is empty.
fn array_field<'v, T>(
    body: &'v Value,
    name: &'static str,
    kind: &'static str,
    cast: impl Fn(&'v Value) -> Option<T> + 'v,
) -> Result<impl Iterator<Item = Result<T, Response>> + 'v, Response> {
    let items = optional_field(body, name, "an array", Value::as_array)?.unwrap_or(&[]);
    Ok(items.iter().map(move |item| {
        cast(item)
            .ok_or_else(|| error_response(400, "protocol", &format!("'{name}' must hold {kind}")))
    }))
}

fn resolve(mdm: &Mdm, token: &str) -> Result<Iri, Response> {
    walk_dsl::resolve_name(token, mdm.ontology()).map_err(|e| mdm_error_response(&e))
}

/// A required name field (`ex:Player` or `<iri>`), resolved to its IRI text.
fn name_field(mdm: &Mdm, body: &Value, name: &str) -> Result<String, Response> {
    resolve(mdm, str_field(body, name)?).map(|iri| iri.to_string())
}

// ---------------------------------------------------------------------
// Service routes
// ---------------------------------------------------------------------

fn index() -> Response {
    let routes = Value::array(
        PATHS
            .iter()
            .map(|(method, path)| Value::string(format!("{method} {path}"))),
    );
    ok_json(Value::object([
        ("service", Value::string("mdm-server")),
        ("routes", routes),
    ]))
}

fn healthz(state: &AppState) -> Response {
    let store = state.store();
    let replica = state.replica();
    let mdm = state.mdm.read().expect("state poisoned");
    // `degraded`: the service answers, but something undermines trust in
    // the answers — the journal is unwritable (acknowledged mutations may
    // not be durable), this is a replica that never bootstrapped (it
    // would serve an empty ontology as if it were real) or whose replay
    // poisoned (its state may have diverged from the primary's), or the
    // node was fenced by a newer term (it serves stale reads only).
    let journal_degraded = store.as_ref().is_some_and(|s| !s.healthy());
    let replica_degraded = replica
        .as_ref()
        .is_some_and(|r| !r.is_bootstrapped() || r.state() == ReplicaState::Poisoned);
    let fenced = state.is_fenced();
    let degraded = journal_degraded || replica_degraded || fenced;
    let mut fields = vec![
        (
            "status",
            Value::string(if degraded { "degraded" } else { "ok" }),
        ),
        ("epoch", Value::int(mdm.epoch() as i64)),
        ("term", Value::int(state.current_term() as i64)),
    ];
    if fenced {
        fields.push(("fenced", Value::Bool(true)));
        fields.push(("fenced_by_term", Value::int(state.fenced_by() as i64)));
    }
    if let Some(store) = &store {
        if let Some(error) = store.last_error() {
            fields.push(("journal_error", Value::string(error)));
        }
    }
    if let Some(replica) = &replica {
        fields.push(("replica_state", Value::string(replica.state().label())));
        fields.push(("replay_lag", Value::int(replica.replay_lag() as i64)));
        if replica.state() == ReplicaState::Poisoned {
            fields.push((
                "poisoned_offset",
                Value::int(replica.poisoned_offset() as i64),
            ));
        }
        if let Some(error) = replica.last_error() {
            fields.push(("replica_error", Value::string(error)));
        }
    }
    ok_json(Value::object(fields))
}

/// `GET /epoch`: the minimal staleness probe — the metadata epoch this
/// node answers queries at, the store generation backing it, and (on a
/// replica) how far behind the primary it believes it is.
///
/// A replica answers at its published `replay_epoch`, not at its `Mdm`'s
/// epoch: snapshot restore and replay raise the latter before the
/// wrappers those records declare are hydrated, and a query at that epoch
/// could not yet run.
fn epoch(state: &AppState) -> Response {
    let store = state.store();
    let replica = state.replica();
    let (role, metadata_epoch, store_generation, replay_lag) = match &replica {
        Some(replica) => (
            "replica",
            replica.replay_epoch.load(SeqCst),
            replica.generation.load(SeqCst),
            replica.replay_lag(),
        ),
        None => (
            if store.is_some() { "primary" } else { "single" },
            state.mdm.read().expect("state poisoned").epoch(),
            store.as_ref().map_or(0, |s| s.generation()),
            0,
        ),
    };
    ok_json(Value::object([
        ("metadata_epoch", Value::int(metadata_epoch as i64)),
        ("store_generation", Value::int(store_generation as i64)),
        ("term", Value::int(state.current_term() as i64)),
        ("replay_lag", Value::int(replay_lag as i64)),
        ("role", Value::string(role)),
    ]))
}

fn metrics(state: &AppState) -> Response {
    use std::sync::atomic::Ordering::Relaxed;
    let store = state.store();
    let replica = state.replica();
    let mdm = state.mdm.read().expect("state poisoned");
    let stats = mdm.cache_stats();
    let cache = Value::object([
        ("hits", Value::int(stats.hits as i64)),
        ("misses", Value::int(stats.misses as i64)),
        ("invalidations", Value::int(stats.invalidations as i64)),
        ("evictions", Value::int(stats.evictions as i64)),
        ("entries", Value::int(stats.entries as i64)),
        ("capacity", Value::int(stats.capacity as i64)),
        ("hit_rate", Value::float(stats.hit_rate())),
    ]);
    let evolution = Value::object([
        (
            "surgical_invalidations",
            Value::int(stats.surgical_invalidations as i64),
        ),
        ("survivals", Value::int(stats.survivals as i64)),
        (
            "incremental_extensions",
            Value::int(stats.incremental_extensions as i64),
        ),
        ("full_rewrites", Value::int(stats.full_rewrites as i64)),
    ]);
    let availability = Value::object([
        ("shed_total", Value::int(state.shed.load(Relaxed) as i64)),
        ("queued", Value::int(state.queued.load(Relaxed) as i64)),
        ("max_pending", Value::int(state.max_pending as i64)),
        (
            "request_deadline_ms",
            Value::int(state.request_deadline.as_millis() as i64),
        ),
    ]);
    let pool = match mdm.pool_stats() {
        Some(p) => Value::object([
            ("size", Value::int(p.size as i64)),
            ("tasks_total", Value::int(p.tasks_total as i64)),
            ("spawned_total", Value::int(p.spawned_total as i64)),
            ("inline_total", Value::int(p.inline_total as i64)),
            ("steals_total", Value::int(p.steals_total as i64)),
            ("active", Value::int(p.active as i64)),
        ]),
        // Sequential mode: no pool attached.
        None => Value::object([("size", Value::int(1))]),
    };
    let breakers = Value::array(mdm.breaker_snapshots().into_iter().map(|b| {
        Value::object([
            ("relation", Value::string(b.relation)),
            ("state", Value::string(b.state)),
            (
                "consecutive_failures",
                Value::int(b.consecutive_failures as i64),
            ),
            ("failures_total", Value::int(b.failures_total as i64)),
            ("successes_total", Value::int(b.successes_total as i64)),
            ("opened_total", Value::int(b.opened_total as i64)),
            (
                "last_error",
                b.last_error.map(Value::string).unwrap_or(Value::Null),
            ),
        ])
    }));
    let dp = mdm_relational::metrics::snapshot();
    // What keeping each release resident as term columns (and the join
    // indexes built on them) costs right now, read off the wrappers that
    // own the columns.
    let catalog = mdm.catalog();
    let wrappers = || catalog.names().into_iter().filter_map(|n| catalog.get(n));
    let resident: Vec<usize> = wrappers().filter_map(|w| w.resident_bytes()).collect();
    let resident_index_bytes: usize = wrappers().map(|w| w.resident_index_bytes()).sum();
    let data_plane = Value::object([
        ("rows_moved", Value::int(dp.rows_moved as i64)),
        ("batches_emitted", Value::int(dp.batches_emitted as i64)),
        ("dict_entries", Value::int(dp.dict.entries as i64)),
        ("dict_bytes", Value::int(dp.dict.bytes as i64)),
        (
            "columnar",
            Value::object([
                ("encodes", Value::int(dp.columnar.encodes as i64)),
                ("decodes", Value::int(dp.columnar.decodes as i64)),
                ("column_bytes", Value::int(dp.columnar.column_bytes as i64)),
                (
                    "kernel_invocations",
                    Value::int(dp.columnar.kernel_invocations as i64),
                ),
                ("index_builds", Value::int(dp.columnar.index_builds as i64)),
                ("resident_relations", Value::int(resident.len() as i64)),
                (
                    "resident_bytes",
                    Value::int(resident.iter().sum::<usize>() as i64),
                ),
                (
                    "resident_index_bytes",
                    Value::int(resident_index_bytes as i64),
                ),
            ]),
        ),
    ]);
    let opt = mdm_relational::metrics::optimizer_snapshot();
    let stats_catalog = mdm.stats_snapshot();
    let optimizer = Value::object([
        ("mode", Value::string(mdm.optimize_mode().to_string())),
        ("stats_epoch", Value::int(stats_catalog.epoch as i64)),
        (
            "stats_refreshes",
            Value::int(stats_catalog.refreshes as i64),
        ),
        (
            "stats_observations",
            Value::int(stats_catalog.observations as i64),
        ),
        (
            "profiled_relations",
            Value::int(stats_catalog.relations.len() as i64),
        ),
        ("joins_reordered", Value::int(opt.joins_reordered as i64)),
        ("filters_pushed", Value::int(opt.filters_pushed as i64)),
        (
            "projections_pruned",
            Value::int(opt.projections_pruned as i64),
        ),
        (
            "branch_plans_optimized",
            Value::int(mdm.branch_plans_optimized() as i64),
        ),
    ]);
    let journal = store.as_ref().map(|store| {
        let stats = store.stats();
        Value::object([
            ("wal_records", Value::int(stats.wal_records as i64)),
            ("wal_bytes", Value::int(stats.wal_bytes as i64)),
            ("fsyncs", Value::int(stats.fsyncs as i64)),
            ("generation", Value::int(stats.generation as i64)),
            (
                "last_compaction_gen",
                if stats.compactions > 0 {
                    Value::int(stats.generation as i64)
                } else {
                    Value::Null
                },
            ),
            ("compactions", Value::int(stats.compactions as i64)),
            ("fsync_policy", Value::string(store.policy().to_string())),
            ("healthy", Value::Bool(store.healthy())),
        ])
    });
    let mut fields = vec![
        ("epoch", Value::int(mdm.epoch() as i64)),
        (
            "requests_total",
            Value::int(state.requests.load(Relaxed) as i64),
        ),
        (
            "errors_total",
            Value::int(state.errors.load(Relaxed) as i64),
        ),
        (
            "uptime_ms",
            Value::int(state.started.elapsed().as_millis() as i64),
        ),
        ("workers", Value::int(state.workers as i64)),
        (
            "poll_wakeups_total",
            Value::int(state.poll_wakeups.load(Relaxed) as i64),
        ),
        ("plan_cache", cache),
        ("evolution", evolution),
        ("availability", availability),
        ("pool", pool),
        ("data_plane", data_plane),
        ("optimizer", optimizer),
        ("breakers", breakers),
    ];
    if let Some(journal) = journal {
        fields.push(("journal", journal));
    }
    let replication = match &replica {
        Some(replica) => Value::object([
            ("role", Value::string("replica")),
            ("state", Value::string(replica.state().label())),
            (
                "replay_epoch",
                Value::int(replica.replay_epoch.load(Relaxed) as i64),
            ),
            (
                "primary_epoch",
                Value::int(replica.primary_epoch.load(Relaxed) as i64),
            ),
            ("replay_lag", Value::int(replica.replay_lag() as i64)),
            (
                "records_applied",
                Value::int(replica.records_applied.load(Relaxed) as i64),
            ),
            (
                "bootstraps",
                Value::int(replica.bootstraps.load(Relaxed) as i64),
            ),
            (
                "reconnects",
                Value::int(replica.reconnects.load(Relaxed) as i64),
            ),
        ]),
        None => {
            let peers = state.replication.connected_peers();
            Value::object([
                (
                    "role",
                    Value::string(if store.is_some() { "primary" } else { "single" }),
                ),
                (
                    "streamed_records",
                    Value::int(state.replication.streamed_records.load(Relaxed) as i64),
                ),
                (
                    "stream_requests",
                    Value::int(state.replication.stream_requests.load(Relaxed) as i64),
                ),
                (
                    "snapshots_served",
                    Value::int(state.replication.snapshots_served.load(Relaxed) as i64),
                ),
                ("connected_replicas", Value::int(peers.len() as i64)),
                (
                    "replicas",
                    Value::array(peers.into_iter().map(|p| {
                        Value::object([
                            ("id", Value::string(p.id)),
                            ("offset", Value::int(p.offset as i64)),
                            ("lag_records", Value::int(p.lag_records as i64)),
                        ])
                    })),
                ),
            ])
        }
    };
    fields.push(("replication", replication));
    // Failover gauges render on both roles: operators watching a fleet
    // should see terms and fencing activity wherever they look.
    fields.push((
        "failover",
        Value::object([
            ("term", Value::int(state.current_term() as i64)),
            ("fenced", Value::Bool(state.is_fenced())),
            (
                "promotions",
                Value::int(state.failover.promotions.load(Relaxed) as i64),
            ),
            (
                "fenced_rejections",
                Value::int(state.failover.fenced_rejections.load(Relaxed) as i64),
            ),
            (
                "rejoins",
                Value::int(state.failover.rejoins.load(Relaxed) as i64),
            ),
            (
                "divergent_records_discarded",
                Value::int(state.failover.divergent_records_discarded.load(Relaxed) as i64),
            ),
        ]),
    ));
    ok_json(Value::object(fields))
}

/// Most changefeed records shipped per `/changes` response; a lagging
/// cursor loops until a response comes back empty.
const MAX_CHANGE_RECORDS: usize = 1024;

/// One changefeed record as `/changes` serves it: the epoch cursor, the op
/// kind and summary, and the dependency-footprint digest clients use to
/// decide which of their own derived artifacts a mutation touches.
fn change_value(record: &ChangeRecord) -> Value {
    Value::object([
        ("epoch", Value::int(record.epoch as i64)),
        ("kind", Value::string(record.kind)),
        ("summary", Value::string(record.summary.as_str())),
        ("extension", Value::Bool(record.extension)),
        (
            "footprint",
            Value::object([
                ("concepts", strings(&record.footprint.concepts)),
                ("wrappers", strings(&record.footprint.wrappers)),
                ("global", Value::Bool(record.footprint.global)),
            ]),
        ),
    ])
}

/// `GET /changes?since=N&limit=L&wait_ms=W`: the evolution changefeed —
/// every committed steward mutation after epoch `N`, oldest first, with
/// its dependency footprint. Serves on every role (replica replay commits
/// through `Mdm::apply` like every write, so a replica's feed mirrors its
/// primary's).
///
/// A caught-up cursor long-polls: with `wait_ms > 0` the request parks
/// until a mutation lands or the wait expires ([`AppState::changes`]),
/// then answers — possibly empty. `truncated: true` means the
/// cursor is below the feed's horizon (see `ChangeLog`) and the client
/// should re-sync from a snapshot instead of trusting the gap.
fn changes(state: &AppState, request: &Request) -> Response {
    let params = (|| {
        Ok((
            u64_param(request, "since")?,
            u64_param(request, "limit")?,
            u64_param(request, "wait_ms")?,
        ))
    })();
    let (since, limit, wait_ms) = match params {
        Ok(t) => t,
        Err(r) => return r,
    };
    let limit = match limit {
        0 => MAX_CHANGE_RECORDS,
        n => (n as usize).min(MAX_CHANGE_RECORDS),
    };
    let wait = Duration::from_millis(wait_ms.min(MAX_STREAM_WAIT_MS));
    let (records, truncated, epoch) = state.changes(since, limit, wait);
    let next = records.last().map_or(since, |r| r.epoch);
    ok_json(Value::object([
        ("since", Value::int(since as i64)),
        ("next", Value::int(next as i64)),
        ("epoch", Value::int(epoch as i64)),
        ("truncated", Value::Bool(truncated)),
        ("changes", Value::array(records.iter().map(change_value))),
    ]))
}

/// Folds the journal into a fresh snapshot generation. 409 without a
/// durable store. Takes the write lock so the snapshot and the WAL swap
/// are atomic with respect to concurrent steward mutations.
fn admin_compact(state: &AppState) -> Response {
    let Some(store) = state.store() else {
        return error_response(
            409,
            "repository",
            "server runs without a data_dir; nothing to compact",
        );
    };
    let mdm = state.mdm.write().expect("state poisoned");
    match store.compact(&mdm) {
        Ok(generation) => ok_json(Value::object([
            ("ok", Value::Bool(true)),
            ("generation", Value::int(generation as i64)),
            ("epoch", Value::int(mdm.epoch() as i64)),
        ])),
        Err(e) => mdm_error_response(&e),
    }
}

/// `POST /admin/promote`: this replica becomes the primary of a new
/// fencing term. The sync thread is detached first (severing its
/// long-poll), so everything durably received has been replayed; then,
/// under the metadata write lock, a fresh journal generation opens at the
/// bumped term and the node's role flips to primary in one swap. From the
/// response on, steward mutations are accepted here and any stale peer is
/// fenced with 409.
fn admin_promote(state: &AppState) -> Response {
    let Some(replica) = state.replica() else {
        return error_response(
            409,
            "fencing",
            &format!(
                "this node is not a replica (term {}); only replicas can be promoted",
                state.current_term()
            ),
        );
    };
    if replica.state() == ReplicaState::Poisoned {
        let detail = replica
            .last_error()
            .unwrap_or_else(|| "unknown error".to_string());
        return error_response(
            409,
            "fencing",
            &format!(
                "replica replay is poisoned at WAL offset {} ({detail}); \
                 its state may have diverged from the primary's — refusing promotion",
                replica.poisoned_offset()
            ),
        );
    }
    if !replica.is_bootstrapped() {
        return error_response(
            409,
            "fencing",
            "replica never bootstrapped; it holds no replicated state to promote",
        );
    }
    // Stop replaying before reading the final state: the sync loop applies
    // each batch fully before requesting the next, so once it exits,
    // everything durably received has been applied.
    replica.request_detach();
    if !replica.wait_detached(Duration::from_secs(15)) {
        return error_response(
            503,
            "fencing",
            "replication thread did not detach in time; retry promotion",
        );
    }
    let new_term = replica.term().max(1) + 1;
    let mut mdm = state.mdm.write().expect("state poisoned");
    let store = match &state.promote_dir {
        Some(dir) => match MetaStore::promote_in(dir, state.fsync, &mdm, new_term) {
            Ok(store) => Some(store),
            Err(e) => return mdm_error_response(&e),
        },
        None => None,
    };
    mdm.set_journal(store.clone().map(|s| s as std::sync::Arc<dyn JournalSink>));
    let generation = store.as_ref().map_or(0, |s| s.generation());
    state.set_role(RoleState {
        store,
        replica: None,
    });
    state.set_solo_term(new_term);
    state.failover.promotions.fetch_add(1, SeqCst);
    ok_json(Value::object([
        ("ok", Value::Bool(true)),
        ("role", Value::string("primary")),
        ("term", Value::int(new_term as i64)),
        ("generation", Value::int(generation as i64)),
        ("epoch", Value::int(mdm.epoch() as i64)),
    ]))
}

/// `POST /admin/fence {"term": N}`: informs this node that term `N`
/// exists elsewhere. A primary (or single node) with an older term latches
/// the fence and stops accepting writes; a replica raises the term it
/// presents upstream, so a stale primary is rejected at next contact.
fn admin_fence(state: &AppState, request: &Request) -> Response {
    let body = match parse_body(&request.body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let term: u64 = match uint_field(&body, "term") {
        Ok(t) => t,
        Err(r) => return r,
    };
    if let Some(replica) = state.replica() {
        replica.observe_term(term);
        return ok_json(Value::object([
            ("ok", Value::Bool(true)),
            ("role", Value::string("replica")),
            ("term", Value::int(replica.term() as i64)),
        ]));
    }
    let own = state.current_term();
    if term > own {
        state.fence(term);
        return ok_json(Value::object([
            ("ok", Value::Bool(true)),
            ("fenced", Value::Bool(true)),
            ("term", Value::int(own as i64)),
            ("fenced_by_term", Value::int(state.fenced_by() as i64)),
        ]));
    }
    state.failover.fenced_rejections.fetch_add(1, SeqCst);
    term_error(
        409,
        &format!("fence term {term} is not newer than this node's term {own}"),
        own,
        None,
    )
}

// ---------------------------------------------------------------------
// Replication routes (what replicas feed from)
// ---------------------------------------------------------------------

/// Most WAL records shipped per stream response; a lagging replica loops
/// until the batch reports `caught_up`.
const MAX_STREAM_RECORDS: usize = 1024;

/// Longest a stream request may long-poll before answering empty.
const MAX_STREAM_WAIT_MS: u64 = 30_000;

/// The value of `name` in the request's query string, if present.
fn query_param<'r>(request: &'r Request, name: &str) -> Option<&'r str> {
    request.query.as_deref()?.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        (key == name).then_some(value)
    })
}

/// An unsigned query parameter, defaulting to 0 when absent.
fn u64_param(request: &Request, name: &str) -> Result<u64, Response> {
    match query_param(request, name) {
        None => Ok(0),
        Some(raw) => raw.parse().map_err(|_| {
            error_response(
                400,
                "protocol",
                &format!("query parameter '{name}' must be an unsigned integer"),
            )
        }),
    }
}

/// `GET /replication/stream?generation=G&from=N&wait_ms=W&replica_id=ID`:
/// the WAL tail from offset `N` of generation `G`, as a binary
/// [`ReplicationBatch`]. When `G` is stale or `N` ran past the WAL, the
/// batch carries a full snapshot and restarts the replica from offset 0 —
/// the protocol is self-correcting, never an error. A caught-up replica
/// long-polls: the request parks up to `wait_ms` (capped at 30 s) on the
/// store's condvar and returns as soon as a mutation lands.
///
/// `&term=T` carries the highest fencing term the replica has observed
/// (0 on first contact). A mismatch is the failover handshake: a replica
/// presenting a *newer* term fences this primary on the spot (it lost an
/// election it never saw); a replica presenting an *older* term is told
/// the current term and its start epoch so it can discard its divergent
/// tail and resync. Both answer 409 — replication never serves records
/// across a term boundary.
fn replication_stream(state: &AppState, request: &Request) -> Response {
    use std::sync::atomic::Ordering::Relaxed;
    let Some(store) = state.store() else {
        return error_response(
            409,
            "replication",
            "server runs without a data_dir; nothing to replicate",
        );
    };
    let params = (|| {
        Ok((
            u64_param(request, "generation")?,
            u64_param(request, "from")?,
            u64_param(request, "wait_ms")?,
            u64_param(request, "term")?,
        ))
    })();
    let (generation, from, wait_ms, req_term) = match params {
        Ok(t) => t,
        Err(r) => return r,
    };
    let own_term = store.term();
    if state.is_fenced() {
        state.failover.fenced_rejections.fetch_add(1, SeqCst);
        return term_error(
            409,
            &format!(
                "this primary (term {own_term}) is fenced by term {}; it no longer serves replication",
                state.fenced_by()
            ),
            state.fenced_by(),
            None,
        );
    }
    if req_term > own_term {
        // The replica has seen a newer primary than us: we are stale.
        // Fence ourselves so steward writes stop immediately.
        state.fence(req_term);
        state.failover.fenced_rejections.fetch_add(1, SeqCst);
        return term_error(
            409,
            &format!(
                "replica presented term {req_term}, newer than this primary's term {own_term}; fencing"
            ),
            req_term,
            None,
        );
    }
    if req_term != 0 && req_term < own_term {
        // Stale replica (likely a demoted primary rejoining): hand it the
        // current term and its fork epoch so it can discard its tail.
        state.failover.fenced_rejections.fetch_add(1, SeqCst);
        return term_error(
            409,
            &format!(
                "replica term {req_term} is older than this primary's term {own_term}; resync required"
            ),
            own_term,
            Some(store.term_start_epoch()),
        );
    }
    let wait_ms = wait_ms.min(MAX_STREAM_WAIT_MS);
    let replica_id = query_param(request, "replica_id").unwrap_or("anonymous");
    state.replication.stream_requests.fetch_add(1, Relaxed);
    let mut waited = false;
    loop {
        let batch = {
            // The read lock orders the primary epoch with the WAL view:
            // no mutation can commit between reading the epoch and
            // slicing the records.
            let mdm = state.mdm.read().expect("state poisoned");
            store.replication_batch(generation, from, MAX_STREAM_RECORDS, mdm.epoch())
        };
        if batch.snapshot.is_some() || !batch.records.is_empty() || waited || wait_ms == 0 {
            state
                .replication
                .streamed_records
                .fetch_add(batch.records.len() as u64, Relaxed);
            if batch.snapshot.is_some() {
                state.replication.snapshots_served.fetch_add(1, Relaxed);
            }
            let lag = batch.wal_len.saturating_sub(batch.next_offset());
            state.replication.observe(replica_id, from, lag);
            return Response::binary(200, batch.encode());
        }
        store.wait_for_records(generation, from, Duration::from_millis(wait_ms));
        waited = true;
    }
}

/// `GET /replication/wrappers`: names of the wrappers this node can
/// execute. The journal ships metadata only, so a bootstrapping replica
/// asks here which wrapper payloads to hydrate.
fn replication_wrappers(state: &AppState) -> Response {
    let mdm = state.mdm.read().expect("state poisoned");
    ok_json(Value::object([
        (
            "wrappers",
            Value::array(mdm.catalog().names().into_iter().map(Value::string)),
        ),
        ("epoch", Value::int(mdm.epoch() as i64)),
    ]))
}

/// `GET /replication/wrapper?name=X`: one wrapper's full release — enough
/// for a replica to rebuild the executable wrapper via hydration.
fn replication_wrapper(state: &AppState, request: &Request) -> Response {
    let Some(name) = query_param(request, "name") else {
        return error_response(400, "protocol", "missing query parameter 'name'");
    };
    let mdm = state.mdm.read().expect("state poisoned");
    let Some(wrapper) = mdm.catalog().get(name) else {
        return error_response(404, "replication", &format!("no wrapper named '{name}'"));
    };
    ok_json(encode_wrapper(wrapper))
}

// ---------------------------------------------------------------------
// Steward routes
// ---------------------------------------------------------------------

/// Standard mutation acknowledgement: `{"ok":true,"epoch":N}` (+ extras).
fn ack(mdm: &Mdm, extras: Vec<(&'static str, Value)>) -> Response {
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("epoch", Value::int(mdm.epoch() as i64)),
    ];
    fields.extend(extras);
    ok_json(Value::object(fields))
}

/// The steward routes that are one [`MutationOp`] each: the body decodes
/// to the op, [`Mdm::apply`] carries it out under the write lock, and the
/// ack names the element it defined under `key`.
fn steward_op(
    state: &AppState,
    request: &Request,
    key: &'static str,
    decode: fn(&Mdm, &Value) -> Result<MutationOp, Response>,
) -> Response {
    let body = match parse_body(&request.body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let mut mdm = state.mdm.write().expect("state poisoned");
    let applied =
        decode(&mdm, &body).and_then(|op| mdm.apply(&op).map_err(|e| mdm_error_response(&e)));
    match applied {
        Ok(Applied::Defined(iri)) => ack(&mdm, vec![(key, Value::string(iri.to_string()))]),
        Ok(_) => ack(&mdm, Vec::new()),
        Err(r) => r,
    }
}

fn decode_concept(mdm: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    Ok(MutationOp::DefineConcept {
        concept: name_field(mdm, body, "concept")?,
    })
}

fn decode_feature(mdm: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    let identifier = optional_field(body, "identifier", "a boolean", Value::as_bool)?;
    Ok(MutationOp::DefineFeature {
        concept: name_field(mdm, body, "concept")?,
        feature: name_field(mdm, body, "feature")?,
        identifier: identifier.unwrap_or(false),
    })
}

fn decode_relation(mdm: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    Ok(MutationOp::DefineRelation {
        from: name_field(mdm, body, "from")?,
        property: name_field(mdm, body, "property")?,
        to: name_field(mdm, body, "to")?,
    })
}

fn decode_subconcept(mdm: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    Ok(MutationOp::DefineSubconcept {
        sub: name_field(mdm, body, "sub")?,
        sup: name_field(mdm, body, "sup")?,
    })
}

fn decode_source(_: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    Ok(MutationOp::AddSource {
        name: str_field(body, "name")?.to_string(),
    })
}

/// A mapping body, built through [`MappingBuilder`] so the op lists each
/// covered element once, as the typed mutator's op does.
fn decode_mapping(mdm: &Mdm, body: &Value) -> Result<MutationOp, Response> {
    let mut builder = MappingBuilder::for_wrapper(str_field(body, "wrapper")?);
    for token in array_field(body, "concepts", "strings", Value::as_str)? {
        builder = builder.cover_concept(&resolve(mdm, token?)?);
    }
    for token in array_field(body, "features", "strings", Value::as_str)? {
        builder = builder.cover_feature(&resolve(mdm, token?)?);
    }
    // An element that is a JSON object, kept as a `Value` for `str_field`.
    let object = |item| Value::as_object(item).map(|_| item);
    for item in array_field(body, "relations", "objects", object)? {
        let item = item?;
        let from = resolve(mdm, str_field(item, "from")?)?;
        let property = resolve(mdm, str_field(item, "property")?)?;
        let to = resolve(mdm, str_field(item, "to")?)?;
        builder = builder.cover_relation(&from, &property, &to);
    }
    for item in array_field(body, "same_as", "objects", object)? {
        let item = item?;
        let attribute = str_field(item, "attribute")?;
        builder = builder.same_as(attribute, &resolve(mdm, str_field(item, "feature")?)?);
    }
    Ok(MutationOp::from_mapping(&builder))
}

/// Registers a wrapper release (see [`decode_wrapper`] for the body). Not
/// a [`steward_op`]: the op journals the signature, while the catalog
/// takes the payload too.
fn steward_wrappers(state: &AppState, request: &Request) -> Response {
    let wrapper = match decode_wrapper(&request.body) {
        Ok(w) => w,
        Err(r) => return r,
    };
    let mut mdm = state.mdm.write().expect("state poisoned");
    match mdm.register_wrapper(wrapper) {
        Ok(registration) => ack(
            &mdm,
            vec![
                ("wrapper", Value::string(registration.wrapper.to_string())),
                ("reused", strings(&registration.reused)),
                ("minted", strings(&registration.minted)),
            ],
        ),
        Err(e) => mdm_error_response(&e),
    }
}

/// A JSON array of strings.
fn strings<'s>(items: impl IntoIterator<Item = &'s String>) -> Value {
    Value::array(items.into_iter().map(|s| Value::string(s.as_str())))
}

/// The release formats a wrapper body names, by their JSON spelling.
const FORMATS: [(&str, Format); 3] = [
    ("json", Format::Json),
    ("xml", Format::Xml),
    ("csv", Format::Csv),
];

/// Decodes a wrapper release — the body of `POST /steward/wrappers` and
/// of `GET /replication/wrapper`, which a replica hydrates from:
/// `{"name","source","version","format"?,"payload","notes"?,"attributes",
/// "bindings"}`. `attributes` fixes the signature order; `bindings` maps
/// each attribute to the flattened payload column it reads; `payload` is
/// the release body in `format` (json | xml | csv, default json). A
/// missing or wrongly typed field is a 400 `protocol` error naming it; a
/// signature or release the wrapper layer rejects is a 400
/// `registration` error.
pub fn decode_wrapper(body: &[u8]) -> Result<Wrapper, Response> {
    let body = parse_body(body)?;
    let name = str_field(&body, "name")?;
    let source = str_field(&body, "source")?;
    let version = uint_field(&body, "version")?;
    let payload = str_field(&body, "payload")?;
    let format = optional_field(&body, "format", "a string", Value::as_str)?.unwrap_or("json");
    let Some(&(_, format)) = FORMATS.iter().find(|(spelling, _)| *spelling == format) else {
        return Err(error_response(
            400,
            "protocol",
            &format!("unknown format '{format}' (expected json, xml or csv)"),
        ));
    };
    let attributes = array_field(&body, "attributes", "strings", Value::as_str)?
        .map(|attribute| attribute.map(str::to_string))
        .collect::<Result<Vec<_>, _>>()?;
    if attributes.is_empty() {
        return Err(error_response(
            400,
            "protocol",
            "missing array field 'attributes'",
        ));
    }
    let bindings_object = body
        .get("bindings")
        .and_then(Value::as_object)
        .ok_or_else(|| error_response(400, "protocol", "missing object field 'bindings'"))?;
    let mut bindings = Vec::with_capacity(attributes.len());
    for attribute in &attributes {
        let column = bindings_object
            .get(attribute)
            .and_then(Value::as_str)
            .ok_or_else(|| {
                error_response(
                    400,
                    "protocol",
                    &format!("bindings lacks a column for attribute '{attribute}'"),
                )
            })?;
        bindings.push((attribute.clone(), column.to_string()));
    }
    let signature = Signature::new(name, attributes)
        .map_err(|e| error_response(400, "registration", &e.to_string()))?;
    let release = Release {
        version,
        format,
        body: payload.to_string(),
        notes: optional_field(&body, "notes", "a string", Value::as_str)?
            .unwrap_or_default()
            .to_string(),
    };
    Wrapper::over_release(signature, source, release, bindings)
        .map_err(|e| error_response(400, "registration", &e.to_string()))
}

/// Encodes a wrapper's full release in the shape [`decode_wrapper`] reads.
fn encode_wrapper(wrapper: &Wrapper) -> Value {
    let release = wrapper.release();
    let (format, _) = FORMATS
        .iter()
        .find(|(_, format)| *format == release.format)
        .expect("every format has a spelling");
    let bindings = Value::object(
        wrapper
            .bindings()
            .iter()
            .map(|(attribute, column)| (attribute.clone(), Value::string(column.as_str()))),
    );
    Value::object([
        ("name", Value::string(wrapper.name())),
        ("source", Value::string(wrapper.source())),
        ("version", Value::int(release.version as i64)),
        ("format", Value::string(*format)),
        ("payload", Value::string(release.body.as_str())),
        ("notes", Value::string(release.notes.as_str())),
        ("attributes", strings(wrapper.signature().attributes())),
        ("bindings", bindings),
    ])
}

/// `POST /steward/stats/refresh`: bumps the **stats epoch** — the next
/// scan of each relation re-profiles it and every cached plan re-optimizes
/// on next use. Deliberately *not* a metadata mutation: the metadata epoch
/// is untouched and no rewriting is invalidated, so golden outputs cannot
/// change. It still lives under `/steward/` so replicas route it to the
/// primary, where queries (and thus observations) concentrate.
fn steward_stats_refresh(state: &AppState) -> Response {
    let mdm = state.mdm.read().expect("state poisoned");
    let stats_epoch = mdm.refresh_stats();
    ok_json(Value::object([
        ("ok", Value::Bool(true)),
        ("stats_epoch", Value::int(stats_epoch as i64)),
        ("epoch", Value::int(mdm.epoch() as i64)),
    ]))
}

fn steward_snapshot(state: &AppState) -> Response {
    let mdm = state.mdm.read().expect("state poisoned");
    ok_json(Value::object([
        ("snapshot", Value::string(mdm.snapshot())),
        ("epoch", Value::int(mdm.epoch() as i64)),
    ]))
}

/// Swaps in restored metadata ([`Mdm::restore`], the REPL's call too).
/// Wrapper payloads are data, not metadata: the execution catalog starts
/// empty and wrappers re-register through `/steward/wrappers`. The epoch
/// keeps increasing across the swap, the execution settings stamped from
/// `ServerConfig` carry over, and a durable store is re-based on the new
/// state.
fn steward_restore(state: &AppState, request: &Request) -> Response {
    let body = match parse_body(&request.body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let snapshot = match str_field(&body, "snapshot") {
        Ok(s) => s,
        Err(r) => return r,
    };
    let mut mdm = state.mdm.write().expect("state poisoned");
    let rebased = mdm.restore(snapshot).and_then(|()| match state.store() {
        Some(store) => store.rebase(&mut mdm).map(|_| ()),
        None => Ok(()),
    });
    match rebased {
        Ok(()) => ack(&mdm, Vec::new()),
        Err(e) => mdm_error_response(&e),
    }
}

// ---------------------------------------------------------------------
// Analyst routes
// ---------------------------------------------------------------------

/// Parses the `walk` DSL field under the read lock and hands the validated
/// walk to `handler`. The guard is released before the handler's value is
/// returned, so printing it (1 MB for a wide answer) never makes a steward
/// `POST` queue behind an analyst's response body.
fn with_walk<T>(
    state: &AppState,
    request: &Request,
    handler: impl FnOnce(&Mdm, &Walk) -> Result<T, MdmError>,
) -> Result<T, Response> {
    let body = parse_body(&request.body)?;
    with_walk_text(state, str_field(&body, "walk")?, handler)
}

/// [`with_walk`] for a walk that did not come in a JSON body.
fn with_walk_text<T>(
    state: &AppState,
    text: &str,
    handler: impl FnOnce(&Mdm, &Walk) -> Result<T, MdmError>,
) -> Result<T, Response> {
    let mdm = state.mdm.read().expect("state poisoned");
    mdm.parse_walk(text)
        .and_then(|walk| handler(&mdm, &walk))
        .map_err(|e| mdm_error_response(&e))
}

/// The response for a [`with_walk`] route whose payload is a JSON tree.
fn walk_json(result: Result<Value, Response>) -> Response {
    result.map_or_else(|response| response, ok_json)
}

fn analyst_parse(state: &AppState, request: &Request) -> Response {
    walk_json(with_walk(state, request, |mdm, walk| {
        Ok(Value::object([
            (
                "text",
                Value::string(walk_dsl::walk_to_text(walk, mdm.ontology())),
            ),
            ("canonical_key", Value::string(walk.canonical_key())),
            ("concepts", Value::int(walk.concepts().len() as i64)),
            ("features", Value::int(walk.all_features().len() as i64)),
            ("relations", Value::int(walk.relations().len() as i64)),
        ]))
    }))
}

fn analyst_rewrite(state: &AppState, request: &Request) -> Response {
    walk_json(with_walk(state, request, |mdm, walk| {
        let rewriting = mdm.rewrite_cached(walk)?;
        Ok(Value::object([
            ("sparql", Value::string(rewriting.sparql.clone())),
            ("algebra", Value::string(rewriting.algebra())),
            ("branches", Value::int(rewriting.branch_count() as i64)),
            ("output_columns", strings(&rewriting.output_columns)),
            ("epoch", Value::int(mdm.epoch() as i64)),
        ]))
    }))
}

/// The explain payload: the derivation narration plus the prepared branch
/// plans the served path runs, annotated with estimated and actual
/// per-operator cardinalities.
fn explain_value(mdm: &Mdm, walk: &Walk) -> Result<Value, MdmError> {
    let rewriting = mdm.rewrite_cached(walk)?;
    let plan = mdm.explain_plan(walk)?;
    Ok(Value::object([
        ("explain", Value::string(rewriting.explain())),
        ("plan", Value::string(plan)),
        ("optimize", Value::string(mdm.optimize_mode().to_string())),
        ("branches", Value::int(rewriting.branch_count() as i64)),
        ("epoch", Value::int(mdm.epoch() as i64)),
        ("stats_epoch", Value::int(mdm.stats_epoch() as i64)),
    ]))
}

fn analyst_explain(state: &AppState, request: &Request) -> Response {
    walk_json(with_walk(state, request, explain_value))
}

/// Decodes `%XX` escapes and `+`-for-space in a query-string value.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                        continue;
                    }
                    _ => out.push(b'%'),
                }
            }
            b'+' => out.push(b' '),
            byte => out.push(byte),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `GET /analyst/explain?walk=...`: the POST route's payload without a
/// body, so a browser or plain `curl` can inspect a plan.
fn analyst_explain_get(state: &AppState, request: &Request) -> Response {
    let Some(raw) = query_param(request, "walk") else {
        return error_response(400, "protocol", "missing query parameter 'walk'");
    };
    walk_json(with_walk_text(state, &percent_decode(raw), explain_value))
}

fn completeness_json(completeness: &mdm_core::Completeness) -> Value {
    let dropped = Value::array(completeness.dropped.iter().map(|d| {
        Value::object([
            ("wrappers", strings(&d.wrappers)),
            ("kind", Value::string(d.kind.as_str())),
            ("reason", Value::string(d.reason.as_str())),
        ])
    }));
    Value::object([
        ("complete", Value::Bool(completeness.is_complete())),
        (
            "total_branches",
            Value::int(completeness.total_branches as i64),
        ),
        (
            "executed_branches",
            Value::int(completeness.executed_branches as i64),
        ),
        ("contributors", strings(&completeness.contributors)),
        ("dropped", dropped),
        ("retries", Value::int(completeness.retries as i64)),
        ("summary", Value::string(completeness.summary())),
    ])
}

/// `POST /analyst/query`. The answer and its epoch are taken under the read
/// lock; the body is printed after it is released, rows straight from the
/// merge's term rows into the response text (keys in the sorted order the
/// JSON printer gives every other route) — no `Table`, and no `Value` node
/// per cell.
fn analyst_query(state: &AppState, request: &Request) -> Response {
    let deadline = Deadline::after(state.request_deadline);
    let (answer, epoch) = match with_walk(state, request, |mdm, walk| {
        Ok((mdm.query_degraded(walk, deadline)?, mdm.epoch()))
    }) {
        Ok(answered) => answered,
        Err(response) => return response,
    };
    let rows = &answer.rows;
    // ~14 bytes per cell on the benchmark's wide answer; one up-front
    // reservation sized from the row count instead of doubling up to it.
    let mut out = String::with_capacity(512 + rows.len() * rows.schema().len() * 16);
    out.push_str("{\"branches\":");
    json::write_number(
        &mut out,
        Number::Int(answer.rewriting.branch_count() as i64),
    );
    out.push_str(",\"columns\":[");
    for (i, column) in rows.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(&mut out, &column.to_string());
    }
    out.push_str("],\"completeness\":");
    out.push_str(&json::to_string(&completeness_json(&answer.completeness)));
    out.push_str(",\"epoch\":");
    json::write_number(&mut out, Number::Int(epoch as i64));
    out.push_str(",\"row_count\":");
    json::write_number(&mut out, Number::Int(rows.len() as i64));
    out.push_str(",\"rows\":");
    write_rows(&mut out, rows);
    out.push('}');
    Response::json(200, out)
}

/// Prints `rows` as a JSON array of arrays. Each distinct string is
/// escaped once into one buffer; a string cell copies its slice of it.
fn write_rows(out: &mut String, rows: &MergedRows) {
    let mut escaped = String::new();
    let mut ends = Vec::with_capacity(rows.strings().len() + 1);
    ends.push(0);
    for string in rows.strings() {
        json::write_string(&mut escaped, string.as_str());
        ends.push(escaped.len());
    }
    out.push('[');
    for (i, row) in rows.rows().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, cell) in row.enumerate() {
            if j > 0 {
                out.push(',');
            }
            match cell {
                Cell::Null => out.push_str("null"),
                Cell::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Cell::Int(i) => json::write_number(out, Number::Int(i)),
                Cell::Float(f) => json::write_number(out, Number::Float(f)),
                Cell::Str(s) => out.push_str(&escaped[ends[s]..ends[s + 1]]),
            }
        }
        out.push(']');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use mdm_relational::columnar::{merge_branches, MergeMode};
    use mdm_relational::schema::{ColumnRef, Schema};
    use mdm_relational::{
        ExecOptions, Executor, MemoryCatalog, Plan, Table, Tuple, Value as Scalar,
    };
    use proptest::prelude::*;

    use super::*;

    /// How `/analyst/query` printed rows while the answer was a `Table`:
    /// one `Value` at a time, every string escaped where it occurs. The
    /// oracle for [`write_rows`].
    fn write_table_rows(out: &mut String, table: &Table) {
        out.push('[');
        for (i, row) in table.rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match cell {
                    Scalar::Null => out.push_str("null"),
                    Scalar::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Scalar::Int(i) => json::write_number(out, Number::Int(*i)),
                    Scalar::Float(f) => json::write_number(out, Number::Float(*f)),
                    Scalar::Str(s) => json::write_string(out, s.as_str()),
                }
            }
            out.push(']');
        }
        out.push(']');
    }

    /// Pieces of strings that JSON must escape, or that are multi-byte.
    const FRAGMENTS: [&str; 12] = [
        "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "\u{7f}", "é", "日本", "🦀", "ab",
    ];

    fn arb_cell() -> impl Strategy<Value = Scalar> {
        prop_oneof![
            1 => Just(Scalar::Null),
            1 => any::<bool>().prop_map(Scalar::Bool),
            2 => (-2i64..3).prop_map(Scalar::Int),
            2 => (-2i64..3).prop_map(|i| Scalar::Float(i as f64)),
            1 => (0usize..5).prop_map(|i| {
                Scalar::Float([-0.0, 0.5, 1e20, f64::NAN, f64::NEG_INFINITY][i])
            }),
            4 => proptest::collection::vec(0usize..FRAGMENTS.len(), 0..4)
                .prop_map(|pieces| Scalar::str(pieces.iter().map(|&p| FRAGMENTS[p]).collect::<String>())),
        ]
    }

    fn schema_of(width: usize) -> Schema {
        Schema::new(
            (0..width)
                .map(|c| ColumnRef::bare(format!("c{c}")))
                .collect(),
        )
    }

    fn printed(rows: &MergedRows) -> String {
        let mut out = String::new();
        write_rows(&mut out, rows);
        out
    }

    /// A replica restores or replays metadata before it hydrates the
    /// wrappers that metadata declares, and only then publishes
    /// `replay_epoch`: `/epoch` must report that epoch, the one its
    /// queries can run at, not its `Mdm`'s.
    #[test]
    fn a_replica_reports_its_replay_epoch_not_its_metadata_epoch() {
        let mut mdm = Mdm::new();
        for name in ["A", "B", "C"] {
            let concept = Iri::new(format!("http://example.org/{name}"));
            mdm.define_concept(&concept).unwrap();
        }
        assert_eq!(mdm.epoch(), 3);
        let status = std::sync::Arc::new(crate::replication::ReplicaStatus::new("127.0.0.1:1"));
        status.replay_epoch.store(1, SeqCst);
        status.primary_epoch.store(3, SeqCst);
        let state = AppState::new(mdm, &crate::ServerConfig::default(), None, Some(status));
        let request = Request {
            method: "GET".into(),
            path: "/epoch".into(),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        };
        let response = dispatch(&state, &request);
        assert_eq!(response.status, 200);
        let body = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let int = |name: &str| {
            body.get(name)
                .and_then(Value::as_number)
                .and_then(|n| n.as_i64())
        };
        assert_eq!(int("metadata_epoch"), Some(1));
        assert_eq!(int("replay_lag"), Some(2));
        assert_eq!(body.get("role").and_then(Value::as_str), Some("replica"));
    }

    #[test]
    fn wrapper_round_trips_through_replication_json() {
        let json_body = br#"{
            "name": "w1",
            "source": "PlayersAPI",
            "version": 3,
            "format": "json",
            "payload": "[{\"id\": 1, \"pName\": \"a\"}]",
            "notes": "",
            "attributes": ["id", "pName"],
            "bindings": {"id": "id", "pName": "pName"}
        }"#;
        let wrapper = decode_wrapper(json_body).unwrap();
        assert_eq!(wrapper.name(), "w1");
        assert_eq!(wrapper.source(), "PlayersAPI");
        assert_eq!(wrapper.release().version, 3);
        assert_eq!(wrapper.bindings().len(), 2);
        // What `GET /replication/wrapper` serves decodes to the same release.
        let encoded = json::to_string(&encode_wrapper(&wrapper));
        let again = decode_wrapper(encoded.as_bytes()).unwrap();
        assert_eq!(json::to_string(&encode_wrapper(&again)), encoded);
    }

    #[test]
    fn malformed_wrapper_json_is_an_error_not_a_panic() {
        assert!(decode_wrapper(b"not json").is_err());
        assert!(decode_wrapper(b"{}").is_err());
        assert!(decode_wrapper(br#"{"name": "w", "source": "s", "version": 1, "payload": "[]", "attributes": ["a"], "bindings": {}}"#).is_err());
    }

    proptest! {
        /// The term-row writer prints byte for byte what the `Table`
        /// printer printed, for an answer the merge built from encoded
        /// batches.
        #[test]
        fn term_rows_print_as_the_table_printer_did(
            rows in proptest::collection::vec(proptest::collection::vec(arb_cell(), 3), 0..30),
            width in 1usize..4,
        ) {
            let rows: Vec<Tuple> = rows.into_iter().map(|row| row[..width].to_vec()).collect();
            let table = Table::new(schema_of(width), rows).expect("arity matches");
            let mut expected = String::new();
            write_table_rows(&mut expected, &table.clone().sorted());

            let mut catalog = MemoryCatalog::new();
            catalog.register("answer", table);
            let batches = Executor::with_options(&catalog, ExecOptions::sequential())
                .run_undecoded(&Plan::scan("answer"))
                .expect("scan executes")
                .batches;
            let merged = merge_branches(schema_of(width), vec![batches], MergeMode::All)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(printed(&merged), expected);
        }
    }
}
