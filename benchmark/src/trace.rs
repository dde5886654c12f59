//! The traced run: per-layer numbers measured from outside the product.
//!
//! Four passes over the scenario's traced script, each on a fresh system:
//!
//! 1. **socket** — over loopback HTTP on one connection, untraced: the
//!    served p50 and `release_visible_p50_ms`;
//! 2. **untraced** — in-process (`http::parse_buffered` →
//!    `routes::dispatch` → `http::write_response` into memory), one clock
//!    pair per request;
//! 3. **traced** — the same with a span per call and count snapshots
//!    around every `dispatch`;
//! 4. **replay** — right after each traced step, what its route does, call
//!    by public call, on a shadow system that receives exactly the same
//!    operations in the same order, so its plan cache is in the served
//!    system's state at every step. Those spans are recorded as children
//!    of the step's `dispatch` span. A second shadow without a journal
//!    receives only the releases, for `store.journal_overhead_us`.
//!
//! Passes 3 and 4 share one loop: a replay a second after its request runs
//! at the host speed the request ran at, which on this box matters more
//! than the cache lines the replay takes from the served system (that cost
//! is what `trace.overhead_share` reports). Single-threaded and
//! socket-free from pass 2 on, so every count repeats.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mdm_core::rewrite::plan_for_cq;
use mdm_core::{walk_dsl, CacheStats, FsyncPolicy, Mdm, MetaStore};
use mdm_dataform::flatten::{flatten_rows, FlattenOptions};
use mdm_dataform::{json, Number, Value as Json};
use mdm_relational::metrics::DataPlaneStats;
use mdm_relational::{
    columnar, ExecOptions, Executor, OptimizeMode, Optimizer, Plan, ScanCache, Table,
};
use mdm_server::http::{self, Response};
use mdm_server::routes;
use mdm_server::state::AppState;

use crate::client::{Driver, Tally};
use crate::metrics::Metric;
use crate::oracle;
use crate::scenario::{Op, Release, Request, Scenario, Workload};
use crate::stats::{digest, p50, percentile, sort};
use crate::sys::{out_dir, TempDir};
use crate::window::{server_config, start_server};

pub struct Span {
    id: u32,
    /// 0 for a root span.
    parent: u32,
    /// The script step the span belongs to.
    request: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Timed on the shadow system after the request, not inside it.
    replayed: bool,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans held in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: u32, request: usize, replayed: bool) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request: request as u32,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            replayed,
        });
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: usize,
        replayed: bool,
        work: impl FnOnce() -> T,
    ) -> (u32, T) {
        let id = self.open(name, parent, request, replayed);
        let out = work();
        self.close(id);
        (id, out)
    }

    /// Durations (µs) of the spans called `name` among the first `steps`
    /// script steps.
    fn micros(&self, name: &str, steps: usize) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (s.request as usize) < steps)
            .map(Span::micros)
            .collect()
    }

    fn write(&self, workload: Workload) {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}{}",
                s.id,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                s.replayed,
                if i + 1 < self.spans.len() { ",\n" } else { "\n" }
            );
        }
        out.push_str("]\n");
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        if let Err(error) = std::fs::write(&path, out) {
            eprintln!("could not write {}: {error}", path.display());
        }
    }
}

/// The server's route state without the socket: what `serve_on` builds.
struct InProcess {
    state: AppState,
    _dir: Option<TempDir>,
}

impl InProcess {
    fn new(scenario: &Scenario, mdm: Mdm) -> InProcess {
        let (config, dir) = server_config(scenario.workload);
        let (mdm, store) = match &config.data_dir {
            Some(path) => {
                let (store, mdm, _) =
                    MetaStore::attach(path, config.fsync, mdm).expect("journal attaches");
                (mdm, Some(store))
            }
            None => (mdm, None),
        };
        InProcess {
            state: AppState::new(mdm, &config, store, None),
            _dir: dir,
        }
    }
}

/// The bytes `mdm_server::client::Connection::send_raw` puts on the wire.
fn wire(request: &Request) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: mdm\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        request.path,
        request.body.len(),
        request.body
    )
    .into_bytes()
}

fn serve_untraced(state: &AppState, bytes: &[u8], sink: &mut Vec<u8>) -> Response {
    let (request, _) = http::parse_buffered(bytes)
        .expect("harness request parses")
        .expect("harness request is complete");
    let response = routes::dispatch(state, &request);
    sink.clear();
    http::write_response(sink, &response, true).expect("memory sink accepts writes");
    response
}

/// Pass 2: per-request wall time (µs) of each counted query step.
fn untraced_pass(scenario: &Scenario, tally: &mut Tally) -> Vec<f64> {
    let server = InProcess::new(scenario, scenario.build_mdm());
    let mut sink = Vec::new();
    for request in scenario.warm_queries() {
        serve_untraced(&server.state, &wire(request), &mut sink);
    }
    let mut micros = Vec::new();
    for (index, op) in scenario.traced.iter().enumerate() {
        for request in scenario.requests(*op) {
            let bytes = wire(request);
            tally.attempted += 1;
            let started = Instant::now();
            let response = serve_untraced(&server.state, &bytes, &mut sink);
            let elapsed = started.elapsed();
            if response.status != 200 {
                tally.failed += 1;
            } else if matches!(op, Op::Query(_)) && index < scenario.counted_steps() {
                micros.push(elapsed.as_secs_f64() * 1e6);
            }
        }
    }
    micros
}

/// Counters read around every traced `dispatch`, summed over the counted
/// steps.
#[derive(Default)]
struct Counts {
    queries: u64,
    hits: u64,
    misses: u64,
    survivals: u64,
    incremental_extensions: u64,
    full_rewrites: u64,
    surgical_invalidations: u64,
    terms_encoded: u64,
    terms_decoded: u64,
    kernel_invocations: u64,
    column_bytes: u64,
    rows_moved: u64,
    fetches: u64,
    rows_scanned: u64,
    rows_returned: u64,
}

struct Snapshot {
    cache: CacheStats,
    plane: DataPlaneStats,
    fetches: BTreeMap<String, u64>,
}

fn snapshot(state: &AppState) -> Snapshot {
    let mdm = state.mdm.read().expect("state poisoned");
    let catalog = mdm.catalog();
    Snapshot {
        cache: mdm.cache_stats(),
        plane: mdm_relational::metrics::snapshot(),
        fetches: catalog
            .names()
            .into_iter()
            .map(|name| {
                let wrapper = catalog.get(name).expect("listed wrapper exists");
                (name.to_string(), wrapper.fetch_count())
            })
            .collect(),
    }
}

impl Counts {
    /// Cache verdicts move on every step (a release invalidates, the next
    /// query repairs).
    fn add_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.survivals += after.survivals - before.survivals;
        self.incremental_extensions += after.incremental_extensions - before.incremental_extensions;
        self.full_rewrites += after.full_rewrites - before.full_rewrites;
        self.surgical_invalidations += after.surgical_invalidations - before.surgical_invalidations;
    }

    /// Data-plane counts of one query.
    fn add_query(&mut self, before: &DataPlaneStats, after: &DataPlaneStats, rows_returned: u64) {
        self.queries += 1;
        let (a, b) = (&after.columnar, &before.columnar);
        self.terms_encoded += a.encodes - b.encodes;
        self.terms_decoded += a.decodes - b.decodes;
        self.kernel_invocations += a.kernel_invocations - b.kernel_invocations;
        self.column_bytes += a.column_bytes - b.column_bytes;
        self.rows_moved += after.rows_moved - before.rows_moved;
        self.rows_returned += rows_returned;
    }
}

/// `"row_count":N` of a served answer, without parsing the rows.
fn row_count(body: &[u8]) -> u64 {
    const KEY: &[u8] = b"\"row_count\":";
    body.windows(KEY.len())
        .rposition(|window| window == KEY)
        .map(|at| {
            body[at + KEY.len()..]
                .iter()
                .take_while(|byte| byte.is_ascii_digit())
                .fold(0, |n, digit| n * 10 + u64::from(digit - b'0'))
        })
        .unwrap_or(0)
}

/// What the traced pass hands to the metric table.
struct Traced {
    tracer: Tracer,
    counts: Counts,
    response_bytes: Vec<f64>,
    replayed: Replayed,
}

/// One traced request: `parse_buffered` → `dispatch` → `write_response`
/// under a root span. Returns the `dispatch` span and the response.
fn serve_traced(
    tracer: &mut Tracer,
    names: [&'static str; 4],
    step: usize,
    state: &AppState,
    bytes: &[u8],
    sink: &mut Vec<u8>,
) -> (u32, Response) {
    let root = tracer.open(names[0], 0, step, false);
    let (_, request) = tracer.time(names[1], root, step, false, || {
        http::parse_buffered(bytes)
            .expect("harness request parses")
            .expect("harness request is complete")
            .0
    });
    let (dispatch, response) = tracer.time(names[2], root, step, false, || {
        routes::dispatch(state, &request)
    });
    sink.clear();
    tracer.time(names[3], root, step, false, || {
        http::write_response(sink, &response, true).expect("memory sink accepts writes")
    });
    tracer.close(root);
    (dispatch, response)
}

const QUERY_SPANS: [&str; 4] = [
    "request",
    "server.http_parse",
    "server.dispatch",
    "server.write",
];
const STEWARD_SPANS: [&str; 4] = [
    "steward_request",
    "server.steward_http_parse",
    "server.steward_dispatch",
    "server.steward_write",
];

/// Passes 3 and 4, step by step: the traced request, then its replay.
fn traced_pass(scenario: &Scenario, tally: &mut Tally) -> Result<Traced, String> {
    let server = InProcess::new(scenario, scenario.build_mdm());
    let mut shadows = Shadows::new(scenario)?;
    let mut sink = Vec::new();
    for request in scenario.warm_queries() {
        serve_untraced(&server.state, &wire(request), &mut sink);
    }
    let counted = scenario.counted_steps();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut response_bytes = Vec::new();
    // Wrappers the counted queries fetched from.
    let mut fetched_wrappers: BTreeSet<String> = BTreeSet::new();
    // Rows per wrapper, read once (a wrapper's payload never changes).
    let mut wrapper_rows: HashMap<String, u64> = HashMap::new();
    for (step, op) in scenario.traced.iter().enumerate() {
        let before = snapshot(&server.state);
        let spans = match op {
            Op::Query(_) => QUERY_SPANS,
            Op::Release(_) => STEWARD_SPANS,
        };
        // The span the step's replayed spans hang under: `dispatch` of the
        // query, or of the release's `/steward/wrappers` request.
        let mut parent = 0;
        let mut answer = Vec::new();
        for request in scenario.requests(*op) {
            tally.attempted += 1;
            let (dispatch, response) = serve_traced(
                &mut tracer,
                spans,
                step,
                &server.state,
                &wire(request),
                &mut sink,
            );
            if response.status != 200 {
                tally.failed += 1;
                return Err(format!(
                    "traced {} answered {}: {}",
                    request.path,
                    response.status,
                    String::from_utf8_lossy(&response.body)
                ));
            }
            if matches!(request.path, "/analyst/query" | "/steward/wrappers") {
                parent = dispatch;
            }
            answer = response.body;
        }
        let after = snapshot(&server.state);
        if step < counted {
            counts.add_cache(&before.cache, &after.cache);
        }
        if matches!(op, Op::Query(_)) && step < counted {
            counts.add_query(&before.plane, &after.plane, row_count(&answer));
            response_bytes.push(answer.len() as f64);
            for (name, count) in &after.fetches {
                let fetched = count - before.fetches.get(name).copied().unwrap_or(0);
                if fetched == 0 {
                    continue;
                }
                let rows = *wrapper_rows.entry(name.clone()).or_insert_with(|| {
                    let mdm = server.state.mdm.read().expect("state poisoned");
                    let wrapper = mdm.catalog().get(name).expect("listed wrapper exists");
                    wrapper.rows().map_or(0, |rows| rows.len() as u64)
                });
                counts.fetches += fetched;
                counts.rows_scanned += fetched * rows;
                fetched_wrappers.insert(name.clone());
            }
        }
        shadows.replay(&mut tracer, scenario, step, parent, &answer)?;
    }
    Ok(Traced {
        tracer,
        counts,
        response_bytes,
        replayed: shadows.finish(&fetched_wrappers),
    })
}

/// What the replay pass adds.
#[derive(Default)]
struct Replayed {
    branches: Vec<f64>,
    payload_bytes: Vec<f64>,
    unjournaled_apply_us: Vec<f64>,
    wal_bytes: u64,
    wal_records: u64,
    fetch_warm_us: Vec<f64>,
    fetch_cold_us: Vec<f64>,
}

/// `Mdm::query_degraded` → `query::execute_degraded`, call by call.
fn replay_query(
    tracer: &mut Tracer,
    parent: u32,
    step: usize,
    mdm: &Mdm,
    walk_text: &str,
    after_release: bool,
) -> Table {
    let (_, walk) = tracer.time("core.walk_parse", parent, step, true, || {
        let walk = walk_dsl::parse_walk(walk_text, mdm.ontology()).expect("walk parses");
        walk.validate(mdm.ontology()).expect("walk validates");
        walk
    });
    let lookup = if after_release {
        "core.rewrite_after_release"
    } else {
        "core.cache_lookup"
    };
    let (_, rewriting) = tracer.time(lookup, parent, step, true, || {
        mdm.rewrite_cached(&walk).expect("walk rewrites")
    });
    // Branch plans are derived per query, then optimized inline.
    let plans: Vec<Plan> = rewriting
        .queries
        .iter()
        .map(|cq| {
            plan_for_cq(cq, &rewriting.output_columns)
                .expect("branch plans")
                .distinct()
        })
        .collect();
    let stats = mdm_relational::stats::global();
    let resolve = |name: &str| mdm_relational::Catalog::relation_schema(mdm.catalog(), name);
    let (_, plans) = tracer.time("relational.optimize", parent, step, true, || {
        let optimizer = Optimizer::new(stats.as_ref(), &resolve);
        plans
            .into_iter()
            .map(|plan| optimizer.optimize_with(OptimizeMode::Cost, plan))
            .collect::<Vec<Plan>>()
    });
    let options = ExecOptions {
        epoch: mdm.epoch(),
        ..ExecOptions::default()
    };
    let (_, tables) = tracer.time("relational.execute", parent, step, true, || {
        let cache = ScanCache::new();
        let run_branch = |i: usize| {
            Executor::with_options(mdm.catalog(), options.clone())
                .with_scan_cache(&cache)
                .run(&plans[i])
                .expect("branch executes")
        };
        match options.pool.as_ref().filter(|pool| pool.size() > 1) {
            Some(pool) if plans.len() > 1 => pool.run(plans.len(), run_branch),
            _ => (0..plans.len()).map(run_branch).collect(),
        }
    });
    let (_, table) = tracer.time("core.merge", parent, step, true, || {
        let schema = tables[0].schema().clone();
        let rows: BTreeSet<_> = tables.into_iter().flat_map(Table::into_rows).collect();
        Table::new(schema, rows.into_iter().collect())
            .expect("merged rows fit the schema")
            .sorted()
    });
    table
}

/// The release through `Mdm`'s public methods, plus the work the next query
/// will trigger lazily (payload parse, flatten, typing).
fn replay_release(tracer: &mut Tracer, parent: u32, step: usize, mdm: &mut Mdm, release: &Release) {
    let wrapper = release.wrapper();
    let payload = wrapper.release();
    let (_, document) = tracer.time("dataform.parse", parent, step, true, || {
        payload.parse_body(&payload.body).expect("payload parses")
    });
    tracer.time("dataform.flatten", parent, step, true, || {
        flatten_rows(&document, &FlattenOptions::default())
    });
    let cold = wrapper.clone();
    tracer.time("wrappers.fetch_cold", parent, step, true, || {
        cold.rows().expect("payload types")
    });
    let ops = release.ops.to_vec();
    tracer.time("core.release_apply", parent, step, true, || {
        for op in ops {
            op.apply(mdm).expect("shadow accepts the release");
        }
    });
}

/// The systems the hand replays run on. The journaled one receives every
/// step of the script once, through the public functions the routes call,
/// right after the served system did, so its plan cache is in the served
/// system's state at the same step; the plain one receives only the
/// releases, for the journal's share of applying them.
struct Shadows {
    journaled: Mdm,
    store: Arc<MetaStore>,
    _dir: TempDir,
    plain: Mdm,
    wal_bytes_before: u64,
    wal_records_before: u64,
    /// Each distinct served body, parsed once.
    served: HashMap<u64, Json>,
    /// Walks not yet looked up since the last release.
    stale: BTreeSet<usize>,
    replayed: Replayed,
}

impl Shadows {
    fn new(scenario: &Scenario) -> Result<Shadows, String> {
        let dir = TempDir::new("shadow-wal");
        let (store, journaled, _) =
            MetaStore::attach(dir.path(), FsyncPolicy::Never, scenario.build_mdm())
                .map_err(|e| format!("shadow journal: {e}"))?;
        for text in &scenario.walk_texts[..scenario.warm_queries().len()] {
            replay_query(&mut Tracer::new(), 0, 0, &journaled, text, false);
        }
        let wal = store.stats();
        Ok(Shadows {
            journaled,
            store,
            _dir: dir,
            plain: scenario.build_mdm(),
            wal_bytes_before: wal.wal_bytes,
            wal_records_before: wal.wal_records,
            served: HashMap::new(),
            stale: BTreeSet::new(),
            replayed: Replayed::default(),
        })
    }

    /// Replays step `step`; `answer` is the body the route served for it.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        scenario: &Scenario,
        step: usize,
        parent: u32,
        answer: &[u8],
    ) -> Result<(), String> {
        match scenario.traced[step] {
            Op::Query(walk) => {
                let after_release = self.stale.remove(&walk);
                let text = &scenario.walk_texts[walk];
                let table =
                    replay_query(tracer, parent, step, &self.journaled, text, after_release);
                let document = match self.served.entry(digest(answer)) {
                    Entry::Occupied(parsed) => parsed.into_mut(),
                    // The replay must produce what the route served.
                    Entry::Vacant(slot) => slot.insert(
                        oracle::check_answer(answer, &table)
                            .map_err(|e| format!("step {step}: replay and route disagree: {e}"))?,
                    ),
                };
                tracer.time("dataform.serialise", parent, step, true, || {
                    json::to_string(document)
                });
            }
            Op::Release(index) => {
                let release = &scenario.releases[index];
                replay_release(tracer, parent, step, &mut self.journaled, release);
                self.replayed
                    .payload_bytes
                    .push(release.wrapper().release().body.len() as f64);
                let ops = release.ops.to_vec();
                let started = Instant::now();
                for op in ops {
                    op.apply(&mut self.plain)
                        .map_err(|e| format!("plain shadow: {e}"))?;
                }
                self.replayed
                    .unjournaled_apply_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                self.stale = (0..scenario.walks.len()).collect();
                // The cold three-phase rewrite of the walk that must show
                // the release.
                if let Some(Op::Query(walk)) = scenario.traced.get(step + 1) {
                    let journaled = &self.journaled;
                    let (_, rewriting) =
                        tracer.time("core.rewrite_cold", parent, step, true, || {
                            journaled
                                .rewrite(&scenario.walks[*walk])
                                .expect("walk rewrites")
                        });
                    self.replayed.branches.push(rewriting.branch_count() as f64);
                }
            }
        }
        Ok(())
    }

    /// WAL totals, and the warm and cold fetch of every wrapper the counted
    /// queries read.
    fn finish(mut self, fetched_wrappers: &BTreeSet<String>) -> Replayed {
        const WARM_REPEATS: usize = 5;
        let wal = self.store.stats();
        self.replayed.wal_bytes = wal.wal_bytes - self.wal_bytes_before;
        self.replayed.wal_records = wal.wal_records - self.wal_records_before;
        let clock = |work: &dyn Fn()| {
            let started = Instant::now();
            work();
            started.elapsed().as_secs_f64() * 1e6
        };
        for name in fetched_wrappers {
            let wrapper = self
                .journaled
                .catalog()
                .get(name)
                .expect("shadow has the wrapper");
            for _ in 0..WARM_REPEATS {
                self.replayed
                    .fetch_warm_us
                    .push(clock(&|| drop(wrapper.rows())));
            }
            let fresh = wrapper.clone();
            self.replayed
                .fetch_cold_us
                .push(clock(&|| drop(fresh.rows())));
        }
        self.replayed
    }
}

/// What the socket pass measured.
struct Socket {
    /// Served latency (µs) of the counted query steps.
    query_us: Vec<f64>,
    visible_ms: Vec<f64>,
    shed: f64,
    errors: f64,
}

/// Pass 1.
fn socket_pass(scenario: &Scenario, tally: &mut Tally) -> Result<Socket, String> {
    let (server, _dir) = start_server(scenario, scenario.build_mdm());
    let mut driver = Driver::new(scenario, server.addr());
    let warm: Vec<Op> = (0..scenario.warm_queries().len()).map(Op::Query).collect();
    driver.pass(&warm, None, &mut Tally::default());
    let mut pass = Tally::default();
    let reference = driver
        .pass(&scenario.traced, None, &mut pass)
        .expect("a pass without a reference records one");
    let metrics = driver.metrics()?;
    server.shutdown();
    oracle::verify(scenario, &scenario.traced, &reference)?;
    let metrics = json::parse(&metrics).map_err(|e| format!("/metrics is not JSON: {e}"))?;
    let counter = |path: &[&str]| {
        path.iter()
            .try_fold(&metrics, |value, key| value.get(key))
            .and_then(Json::as_number)
            .and_then(Number::as_i64)
            .map_or(0.0, |n| n as f64)
    };
    let counted = scenario.counted_steps();
    let socket = Socket {
        query_us: pass
            .latencies_ms
            .iter()
            .filter(|(step, _)| *step < counted)
            .map(|(_, ms)| ms * 1e3)
            .collect(),
        visible_ms: pass.visible_ms.clone(),
        shed: counter(&["availability", "shed_total"]),
        errors: counter(&["errors_total"]),
    };
    tally.merge(pass);
    Ok(socket)
}

fn p50_of(name: &'static str, samples: Vec<f64>) -> Metric {
    let n = samples.len();
    Metric::timed(name, if n == 0 { 0.0 } else { p50(samples) }, n)
}

/// Runs the four passes and returns every per-layer metric.
pub fn run(scenario: &Scenario, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let socket = socket_pass(scenario, tally)?;
    let untraced_us = untraced_pass(scenario, tally);
    let traced = traced_pass(scenario, tally)?;
    let replayed = traced.replayed;
    let dict = columnar::dict_stats();
    let tracer = &traced.tracer;
    let counts = &traced.counts;
    let counted = scenario.counted_steps();
    let all = scenario.traced.len();

    let layer =
        |name: &'static str, span: &str, steps: usize| p50_of(name, tracer.micros(span, steps));
    let socket_p50 = p50_of("server.socket_p50_us", socket.query_us);
    let execute = layer("relational.execute_us", "relational.execute", counted);
    let fetch_warm = p50_of("wrappers.fetch_warm_us", replayed.fetch_warm_us);
    let apply = layer("core.release_apply_us", "core.release_apply", all);

    // Self time of `dispatch` per request: the span minus the replayed
    // children it caused. What no public call reaches is left: the JSON
    // body parse, `table_json`, completeness and response assembly.
    let mut children: HashMap<u32, f64> = HashMap::new();
    for span in tracer.spans.iter().filter(|s| s.replayed) {
        *children.entry(span.parent).or_default() += span.micros();
    }
    let mut self_us = Vec::new();
    let (mut covered, mut total) = (0.0, 0.0);
    for span in &tracer.spans {
        if span.name == "server.dispatch" && (span.request as usize) < counted {
            let explained = children.get(&span.id).copied().unwrap_or(0.0);
            self_us.push((span.micros() - explained).max(0.0));
            covered += explained;
            total += span.micros();
        }
    }
    let queries = counts.queries.max(1) as f64;
    let per_query = |count: u64| count as f64 / queries;
    let lookups = (counts.hits + counts.misses).max(1) as f64;
    let releases = replayed.payload_bytes.len().max(1) as f64;
    let payload_total: f64 = replayed.payload_bytes.iter().sum();
    let fetches_per_query = per_query(counts.fetches);
    let untraced_p50 = p50(untraced_us);
    let traced_p50 = p50(tracer.micros("request", counted));
    let mut response_bytes = traced.response_bytes.clone();
    sort(&mut response_bytes);
    let mut fetch_cold_us = replayed.fetch_cold_us;
    fetch_cold_us.extend(tracer.micros("wrappers.fetch_cold", all));

    let metrics = vec![
        p50_of("release_visible_p50_ms", socket.visible_ms),
        // Poll loop, worker hand-off, syscalls and loopback: what the
        // socket adds to the same three calls made in-process.
        Metric::new("server.transport_us", socket_p50.value - untraced_p50),
        socket_p50,
        layer("server.http_parse_us", "server.http_parse", counted),
        layer("server.dispatch_us", "server.dispatch", counted),
        p50_of("server.render_json_us", self_us),
        layer("server.write_us", "server.write", counted),
        Metric::new("server.response_bytes", percentile(&response_bytes, 0.5)),
        Metric::new("server.shed", socket.shed),
        Metric::new("server.errors", socket.errors),
        layer("core.walk_parse_us", "core.walk_parse", counted),
        layer("core.cache_lookup_us", "core.cache_lookup", counted),
        layer("core.merge_us", "core.merge", counted),
        layer("core.rewrite_cold_us", "core.rewrite_cold", all),
        p50_of("core.ucq_branches", replayed.branches),
        layer(
            "core.rewrite_after_release_us",
            "core.rewrite_after_release",
            all,
        ),
        Metric::new("core.cache_hit_ratio", counts.hits as f64 / lookups),
        Metric::new("core.survivals", counts.survivals as f64),
        Metric::new(
            "core.incremental_extensions",
            counts.incremental_extensions as f64,
        ),
        Metric::new("core.full_rewrites", counts.full_rewrites as f64),
        Metric::new(
            "core.surgical_invalidations",
            counts.surgical_invalidations as f64,
        ),
        layer("relational.optimize_us", "relational.optimize", counted),
        // Encode, join, distinct, decode: execution minus the row fetches.
        Metric::new(
            "relational.kernels_us",
            (execute.value - fetch_warm.value * fetches_per_query).max(0.0),
        ),
        Metric::new("relational.terms_encoded", per_query(counts.terms_encoded)),
        Metric::new("relational.terms_decoded", per_query(counts.terms_decoded)),
        Metric::new(
            "relational.kernel_invocations",
            per_query(counts.kernel_invocations),
        ),
        Metric::new("relational.column_bytes", per_query(counts.column_bytes)),
        Metric::new("relational.rows_moved", per_query(counts.rows_moved)),
        Metric::new(
            "relational.rows_scanned_per_result_row",
            counts.rows_scanned as f64 / counts.rows_returned.max(1) as f64,
        ),
        Metric::new("relational.dict_entries", dict.entries as f64),
        Metric::new("relational.dict_bytes", dict.bytes as f64),
        p50_of("wrappers.fetch_cold_us", fetch_cold_us),
        Metric::new("wrappers.fetches_per_query", fetches_per_query),
        layer("dataform.parse_us", "dataform.parse", all),
        layer("dataform.flatten_us", "dataform.flatten", all),
        p50_of("dataform.payload_bytes", replayed.payload_bytes),
        layer("dataform.serialise_us", "dataform.serialise", counted),
        Metric::new(
            "store.wal_bytes_per_release",
            replayed.wal_bytes as f64 / releases,
        ),
        Metric::new(
            "store.wal_bytes_per_payload_byte",
            replayed.wal_bytes as f64 / payload_total.max(1.0),
        ),
        Metric::new("store.wal_records", replayed.wal_records as f64),
        Metric::new(
            "store.journal_overhead_us",
            apply.value - p50(replayed.unjournaled_apply_us),
        ),
        Metric::new("trace.coverage", covered / total.max(f64::MIN_POSITIVE)),
        Metric::new(
            "trace.overhead_share",
            (traced_p50 - untraced_p50) / untraced_p50,
        ),
        execute,
        fetch_warm,
        apply,
    ];
    traced.tracer.write(scenario.workload);
    Ok(metrics)
}
