//! # mdm-cli
//!
//! A command-line front-end for MDM, playing the role of the paper's
//! Node.JS/D3 web interface: the steward inspects the graphs and mappings,
//! the analyst poses walks (in the textual notation of
//! [`mdm_core::walk_dsl`]) and sees the generated SPARQL, the relational
//! algebra and the tabular result.
//!
//! The command interpreter is a pure function over [`Session`] state, so
//! every command is unit-testable; `main.rs` is a thin REPL around it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mdm_core::usecase;
use mdm_core::{FsyncPolicy, Mdm, MetaStore};
use mdm_relational::{Deadline, OptimizeMode};
use mdm_wrappers::football::{self, FootballEcosystem};
use mdm_wrappers::FaultPlan;

/// The interpreter state: the system plus the ecosystem backing it.
pub struct Session {
    pub mdm: Option<Mdm>,
    pub ecosystem: Option<FootballEcosystem>,
    /// Lines being accumulated for a multi-line `query`/`rewrite` command.
    pending: Option<(PendingKind, String)>,
    /// A running HTTP server, when `serve` moved the system behind it.
    server: Option<mdm_server::ServerHandle>,
    /// A running read replica, when `serve --replica-of` started one.
    replica: Option<mdm_replica::ReplicaHandle>,
    /// Fault-injection seed applied to every loaded system (`--fault-seed`).
    fault_seed: Option<u64>,
    /// Transient-fault rate paired with `fault_seed`.
    fault_rate: f64,
    /// Per-query deadline budget (`--deadline-ms`); `None` = unbounded.
    deadline_ms: Option<u64>,
    /// Execution-pool size (`--threads`); `None` = the process-wide
    /// default, `Some(1)` = sequential.
    threads: Option<usize>,
    /// Operator batch width (`--batch-size`); `None` = the engine default.
    batch_size: Option<usize>,
    /// Plan-optimization mode (`--optimize`); `None` = the engine default
    /// (cost-based).
    optimize: Option<OptimizeMode>,
    /// The durable journal opened by `--data-dir`; every steward mutation
    /// appends to its WAL and `compact` folds it.
    store: Option<Arc<MetaStore>>,
    /// The directory behind `store` (for messages).
    data_dir: Option<PathBuf>,
    /// WAL durability policy applied when opening `--data-dir`.
    fsync: FsyncPolicy,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    Query,
    Rewrite,
    Explain,
    Trace,
}

/// The outcome of interpreting one line.
pub enum Outcome {
    /// Text to print.
    Text(String),
    /// The REPL should exit.
    Quit,
    /// The interpreter is collecting a multi-line walk; show this prompt.
    NeedMore,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with no system loaded.
    pub fn new() -> Self {
        Session {
            mdm: None,
            ecosystem: None,
            pending: None,
            server: None,
            replica: None,
            fault_seed: None,
            fault_rate: 0.3,
            deadline_ms: None,
            threads: None,
            batch_size: None,
            optimize: None,
            store: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// Sets the WAL fsync policy used by the next [`Session::open_data_dir`]
    /// (the `--fsync` flag; parse with [`FsyncPolicy::parse`]).
    pub fn set_fsync(&mut self, policy: FsyncPolicy) {
        self.fsync = policy;
    }

    /// Opens (or creates) the durable store in `dir` — the `--data-dir`
    /// flag. An existing journal is recovered and becomes the session's
    /// system; otherwise the store is seeded from the loaded system (or an
    /// empty one). Returns a human-readable report.
    pub fn open_data_dir(&mut self, dir: &Path) -> Result<String, String> {
        if self.server.is_some() {
            return Err("stop the running server before opening a data dir".to_string());
        }
        if self.store.is_some() {
            return Err(format!(
                "a data dir is already open ({})",
                self.data_dir
                    .as_deref()
                    .unwrap_or_else(|| Path::new("?"))
                    .display()
            ));
        }
        if !dir.exists() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let initial = self.mdm.take().unwrap_or_default();
        let (store, mdm, report) = MetaStore::attach(dir, self.fsync, initial)
            .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
        let epoch = mdm.epoch();
        self.mdm = Some(mdm);
        self.store = Some(store);
        self.data_dir = Some(dir.to_path_buf());
        self.apply_fault_plan();
        self.apply_threads();
        Ok(if report.recovered {
            format!(
                "recovered {} (generation {}, {} journal records replayed{}) — epoch {epoch}",
                dir.display(),
                report.generation,
                report.replayed,
                if report.truncated_tail {
                    ", torn tail truncated"
                } else {
                    ""
                }
            )
        } else {
            format!(
                "created durable store in {} (generation {}, fsync {})",
                dir.display(),
                report.generation,
                self.fsync
            )
        })
    }

    /// Re-bases the open store after a command replaced the whole system
    /// (`setup`, `restore`; see [`MetaStore::rebase`]). Returns a warning
    /// line on failure.
    fn rebind_store(&mut self) -> Option<String> {
        let (Some(store), Some(mdm)) = (&self.store, self.mdm.as_mut()) else {
            return None;
        };
        store
            .rebase(mdm)
            .err()
            .map(|e| format!("warning: journal compaction failed: {e}"))
    }

    /// The refusal of a command that would replace the system while it is
    /// behind the server: `stop` would overwrite what it loaded.
    fn behind_the_server(&self, instead: &str) -> Option<Outcome> {
        self.server
            .as_ref()
            .map(|_| Outcome::Text(format!("the system is behind the server — {instead}")))
    }

    /// Arms fault injection for every system loaded after this call
    /// (the `--fault-seed` startup flag; `faults <seed>` at the prompt).
    pub fn set_fault_seed(&mut self, seed: Option<u64>) {
        self.fault_seed = seed;
        self.apply_fault_plan();
    }

    /// Sets the per-query deadline budget (the `--deadline-ms` flag).
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
    }

    /// Sets the execution-pool size applied to every loaded system
    /// (the `--threads` flag). `1` forces the sequential path.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
        self.apply_threads();
    }

    /// Sets the operator batch width applied to every loaded system
    /// (the `--batch-size` flag). `0` restores the engine default.
    pub fn set_batch_size(&mut self, batch_size: Option<usize>) {
        self.batch_size = batch_size;
        self.apply_threads();
    }

    /// Sets the plan-optimization mode applied to every loaded system
    /// (the `--optimize` flag; parse with [`OptimizeMode::parse`]).
    pub fn set_optimize(&mut self, optimize: Option<OptimizeMode>) {
        self.optimize = optimize;
        self.apply_threads();
    }

    /// (Re)stamps the loaded system with the session's pool size, batch
    /// width and optimization mode.
    fn apply_threads(&mut self) {
        if let Some(mdm) = self.mdm.as_mut() {
            if let Some(threads) = self.threads {
                mdm.set_threads(threads);
            }
            if let Some(batch) = self.batch_size {
                mdm.set_batch_size(batch);
            }
            if let Some(optimize) = self.optimize {
                mdm.set_optimize(optimize);
            }
        }
    }

    fn deadline(&self) -> Deadline {
        match self.deadline_ms {
            Some(ms) => Deadline::in_ms(ms),
            None => Deadline::none(),
        }
    }

    /// (Re)stamps the loaded system with the session's fault plan.
    fn apply_fault_plan(&mut self) {
        if let Some(mdm) = self.mdm.as_mut() {
            let plan = self
                .fault_seed
                .map(|seed| Arc::new(FaultPlan::seeded(seed).transient_rate(self.fault_rate)));
            mdm.set_fault_plan(plan);
        }
    }

    /// Interprets one input line.
    pub fn interpret(&mut self, line: &str) -> Outcome {
        // Multi-line walk collection mode: a lone '.' terminates.
        if let Some((kind, mut text)) = self.pending.take() {
            if line.trim() == "." {
                return self.run_walk(kind, &text);
            }
            text.push_str(line);
            text.push('\n');
            self.pending = Some((kind, text));
            return Outcome::NeedMore;
        }

        let mut parts = line.trim().splitn(2, ' ');
        let command = parts.next().unwrap_or_default();
        let argument = parts.next().unwrap_or("").trim();
        match command {
            "" => Outcome::Text(String::new()),
            "help" => Outcome::Text(HELP.to_string()),
            "quit" | "exit" => Outcome::Quit,
            "setup" => self.setup(argument),
            "evolve" => self.evolve(),
            "show" => self.show(argument),
            "sources" => self.sources(),
            "wrappers" => self.wrappers(),
            "query" => {
                self.pending = Some((PendingKind::Query, String::new()));
                Outcome::NeedMore
            }
            "rewrite" => {
                self.pending = Some((PendingKind::Rewrite, String::new()));
                Outcome::NeedMore
            }
            "explain" => {
                self.pending = Some((PendingKind::Explain, String::new()));
                Outcome::NeedMore
            }
            "trace" => {
                self.pending = Some((PendingKind::Trace, String::new()));
                Outcome::NeedMore
            }
            "suggest" => self.suggest(argument),
            "changes" => self.changes(argument),
            "stats" => self.stats(argument),
            "faults" => self.faults(argument),
            "serve" => self.serve(argument),
            "call" => self.call(argument),
            "promote" => self.promote(),
            "stop" => self.stop_server(),
            "status" => self.status(),
            "snapshot" => self.snapshot(argument),
            "restore" => self.restore(argument),
            "compact" => self.compact(),
            other => Outcome::Text(format!(
                "unknown command '{other}' — type 'help' for the command list"
            )),
        }
    }

    fn require_mdm(&self) -> Result<&Mdm, String> {
        self.mdm
            .as_ref()
            .ok_or_else(|| "no system loaded — run 'setup football' first".to_string())
    }

    fn setup(&mut self, what: &str) -> Outcome {
        if let Some(refusal) = self.behind_the_server("'stop' it before 'setup'") {
            return refusal;
        }
        match what {
            "football" | "" => {
                let eco = football::build_default();
                match usecase::football_mdm(&eco) {
                    Ok(mdm) => {
                        let wrappers = mdm.catalog().len();
                        // Over a loaded system the epoch keeps rising, as
                        // after a restore.
                        self.mdm.get_or_insert_with(Mdm::new).replace_with(mdm);
                        self.ecosystem = Some(eco);
                        self.apply_fault_plan();
                        self.apply_threads();
                        let mut text = format!(
                            "football use case loaded: 4 sources, {wrappers} wrappers.\n\
                             Try 'show global', then 'query' (finish the walk with a lone '.')."
                        );
                        if let Some(warning) = self.rebind_store() {
                            text.push('\n');
                            text.push_str(&warning);
                        }
                        Outcome::Text(text)
                    }
                    Err(e) => Outcome::Text(format!("setup failed: {e}")),
                }
            }
            other => Outcome::Text(format!("unknown scenario '{other}' (available: football)")),
        }
    }

    fn evolve(&mut self) -> Outcome {
        let Some(eco) = self.ecosystem.clone() else {
            return Outcome::Text("no ecosystem loaded — run 'setup football' first".into());
        };
        let Some(mdm) = self.mdm.as_mut() else {
            return Outcome::Text("no system loaded — run 'setup football' first".into());
        };
        match usecase::register_players_v2(mdm, &eco) {
            Ok(()) => Outcome::Text(
                "Players API v2 registered (breaking release): wrapper w3 + LAV mapping.\n\
                 Re-run your query — it now spans both schema versions."
                    .into(),
            ),
            Err(e) => Outcome::Text(format!("evolution step failed: {e}")),
        }
    }

    fn show(&self, what: &str) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        let text = match what {
            "global" => mdm.render_global_graph(),
            "source" => mdm.render_source_graph(),
            "mappings" => mdm.render_mappings(),
            "trig" => mdm.render_trig(),
            other => format!("unknown view '{other}' (global | source | mappings | trig)"),
        };
        Outcome::Text(text)
    }

    fn sources(&self) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        let mut out = String::new();
        for source in mdm.ontology().data_sources() {
            let wrappers = mdm.ontology().wrappers_of(&source);
            writeln!(out, "{} ({} wrappers)", source.local_name(), wrappers.len()).unwrap();
        }
        Outcome::Text(out)
    }

    fn wrappers(&self) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        let mut out = String::new();
        for wrapper in mdm.ontology().wrappers() {
            let attributes: Vec<String> = mdm
                .ontology()
                .attributes_of(&wrapper)
                .iter()
                .map(|a| mdm_core::BdiOntology::attribute_name(a).to_string())
                .collect();
            let version = mdm
                .ontology()
                .wrapper_version(&wrapper)
                .map(|v| format!(" v{v}"))
                .unwrap_or_default();
            writeln!(
                out,
                "{}{version}({})",
                wrapper.local_name(),
                attributes.join(", ")
            )
            .unwrap();
        }
        Outcome::Text(out)
    }

    fn run_walk(&mut self, kind: PendingKind, text: &str) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        let walk = match mdm.parse_walk(text) {
            Ok(w) => w,
            Err(e) => return Outcome::Text(format!("walk error: {e}")),
        };
        match kind {
            PendingKind::Explain => match mdm.rewrite_cached(&walk) {
                Ok(rewriting) => {
                    let mut out = rewriting.explain();
                    // The physical side of the story: the optimized plan
                    // tree with estimated vs. actual per-operator rows.
                    match mdm.explain_plan(&walk) {
                        Ok(tree) => {
                            let _ = write!(
                                out,
                                "\n-- optimized plan ({} mode, est\u{2248}estimated act=actual rows) --\n{tree}",
                                mdm.optimize_mode()
                            );
                        }
                        Err(e) => {
                            let _ = write!(out, "\n(plan annotation unavailable: {e})");
                        }
                    }
                    Outcome::Text(out)
                }
                Err(e) => Outcome::Text(format!("rewrite error: {e}")),
            },
            PendingKind::Rewrite => match mdm.rewrite_cached(&walk) {
                Ok(rewriting) => Outcome::Text(format!(
                    "-- SPARQL --\n{}\n\n-- algebra ({} branches) --\n{}",
                    rewriting.sparql,
                    rewriting.branch_count(),
                    rewriting.algebra()
                )),
                Err(e) => Outcome::Text(format!("rewrite error: {e}")),
            },
            PendingKind::Trace => match mdm.query_with_provenance(&walk) {
                Ok(answer) => Outcome::Text(format!(
                    "{}({} rows; provenance column names the producing branch)",
                    answer.render(),
                    answer.table.len()
                )),
                Err(e) => Outcome::Text(format!("query error: {e}")),
            },
            PendingKind::Query => match mdm.query_degraded(&walk, self.deadline()) {
                Ok(answer) => Outcome::Text(format!(
                    "-- algebra ({} branches) --\n{}\n\n{}({} rows; {})",
                    answer.rewriting.branch_count(),
                    answer.rewriting.algebra(),
                    answer.render(),
                    answer.rows.len(),
                    answer.completeness.summary(),
                )),
                Err(e) => Outcome::Text(format!("query error: {e}")),
            },
        }
    }

    /// `faults [<seed> [rate] | off]` — arms, disarms or reports the
    /// deterministic fault-injection plan on the loaded system.
    fn faults(&mut self, argument: &str) -> Outcome {
        let mut parts = argument.split_whitespace();
        match parts.next() {
            None | Some("") => {
                let mdm = match self.require_mdm() {
                    Ok(m) => m,
                    Err(e) => return Outcome::Text(e),
                };
                let mut out = String::new();
                match self.fault_seed {
                    Some(seed) => writeln!(
                        out,
                        "fault plan armed: seed {seed}, transient rate {}",
                        self.fault_rate
                    )
                    .unwrap(),
                    None => writeln!(out, "fault injection off").unwrap(),
                }
                match self.deadline_ms {
                    Some(ms) => writeln!(out, "query deadline: {ms} ms").unwrap(),
                    None => writeln!(out, "query deadline: unbounded").unwrap(),
                }
                let breakers = mdm.breaker_snapshots();
                if breakers.is_empty() {
                    writeln!(out, "circuit breakers: none tracked yet").unwrap();
                } else {
                    for b in breakers {
                        writeln!(
                            out,
                            "breaker {}: {} ({} failures / {} successes, opened {}x)",
                            b.relation,
                            b.state,
                            b.failures_total,
                            b.successes_total,
                            b.opened_total
                        )
                        .unwrap();
                    }
                }
                Outcome::Text(out)
            }
            Some("off") => {
                self.fault_seed = None;
                self.apply_fault_plan();
                Outcome::Text("fault injection disarmed".to_string())
            }
            Some(token) => {
                let Ok(seed) = token.parse::<u64>() else {
                    return Outcome::Text(
                        "usage: faults [<seed> [rate] | off]   e.g. faults 42 0.3".to_string(),
                    );
                };
                if let Some(rate) = parts.next() {
                    match rate.parse::<f64>() {
                        Ok(rate) if (0.0..=1.0).contains(&rate) => self.fault_rate = rate,
                        _ => {
                            return Outcome::Text(
                                "rate must be a number between 0.0 and 1.0".to_string(),
                            )
                        }
                    }
                }
                self.fault_seed = Some(seed);
                self.apply_fault_plan();
                Outcome::Text(format!(
                    "fault plan armed: seed {seed}, transient rate {} (applies to loaded and future systems)",
                    self.fault_rate
                ))
            }
        }
    }

    /// `stats [refresh]` — reports the cardinality-statistics catalog, or
    /// (with `refresh`) bumps the stats epoch so relations re-profile and
    /// the next query optimizes against fresh numbers. Never a metadata
    /// mutation: the metadata epoch is untouched.
    fn stats(&mut self, argument: &str) -> Outcome {
        if let Some(refusal) =
            self.behind_the_server("use 'call POST /steward/stats/refresh' or 'call GET /metrics'")
        {
            return refusal;
        }
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        match argument {
            "refresh" => {
                let stats_epoch = mdm.refresh_stats();
                Outcome::Text(format!(
                    "stats epoch bumped to {stats_epoch} — relations re-profile on next scan, \
                     the next query optimizes against them (metadata epoch {} untouched)",
                    mdm.epoch()
                ))
            }
            "" => {
                let snapshot = mdm.stats_snapshot();
                let mut out = format!(
                    "optimizer mode: {}\nstats epoch: {} ({} refreshes, {} observations)\n",
                    mdm.optimize_mode(),
                    snapshot.epoch,
                    snapshot.refreshes,
                    snapshot.observations
                );
                if snapshot.relations.is_empty() {
                    out.push_str("no relations profiled yet — run a query first\n");
                } else {
                    for (relation, rows) in &snapshot.relations {
                        writeln!(out, "  {relation}: {rows} rows").unwrap();
                    }
                }
                Outcome::Text(out)
            }
            other => Outcome::Text(format!(
                "unknown stats action '{other}' (usage: stats [refresh])"
            )),
        }
    }

    /// `serve [addr] [--replica-of primary]` — moves the loaded system
    /// behind an HTTP server, or (with `--replica-of`) starts a read
    /// replica following a primary instead. The REPL stays usable through
    /// `call`, and `stop` brings the (possibly stewarded-over-HTTP) system
    /// back into the session.
    fn serve(&mut self, argument: &str) -> Outcome {
        if self.server.is_some() || self.replica.is_some() {
            return Outcome::Text("a server is already running — 'stop' it first".to_string());
        }
        let mut addr = "";
        let mut primary = None;
        let mut tokens = argument.split_whitespace();
        while let Some(token) = tokens.next() {
            if token == "--replica-of" {
                match tokens.next() {
                    Some(p) => primary = Some(p),
                    None => {
                        return Outcome::Text(
                            "usage: serve [addr] --replica-of host:port".to_string(),
                        )
                    }
                }
            } else {
                addr = token;
            }
        }
        if let Some(primary) = primary {
            return self.serve_replica(addr, primary);
        }
        if self.mdm.is_none() {
            return Outcome::Text("no system loaded — run 'setup football' first".to_string());
        }
        let addr = if addr.is_empty() { "127.0.0.1:0" } else { addr };
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => return Outcome::Text(format!("cannot bind {addr}: {e}")),
        };
        let mdm = self.mdm.take().expect("checked above");
        let config = mdm_server::ServerConfig {
            request_deadline: self.deadline_ms.map(Duration::from_millis),
            optimize: self.optimize,
            ..mdm_server::ServerConfig::default()
        };
        // Hand the already-open journal over so `/admin/compact`, the
        // journal metrics and the drain-time fsync work behind the server.
        match mdm_server::serve_on(listener, &config, mdm, self.store.clone(), None) {
            Ok(handle) => {
                let text = format!(
                    "serving on http://{}\n\
                     the metadata moved behind the server: use 'call' here or curl from outside\n\
                     e.g.  call GET /metrics\n\
                     'stop' shuts the server down and brings the system back",
                    handle.addr()
                );
                self.server = Some(handle);
                Outcome::Text(text)
            }
            Err(e) => Outcome::Text(format!("failed to start server: {e}")),
        }
    }

    /// `serve [addr] --replica-of primary` — starts a WAL-shipping read
    /// replica of `primary`. It needs no loaded system: the state arrives
    /// over the replication stream. A session `--data-dir` moves over to
    /// the node: an old primary's journal there seeds stale reads until
    /// the rejoin handshake, and a later 'promote' opens its next
    /// generation in the same place.
    fn serve_replica(&mut self, addr: &str, primary: &str) -> Outcome {
        let mut config = mdm_replica::ReplicaConfig::new(primary);
        if !addr.is_empty() {
            config.server.addr = addr.to_string();
        }
        config.server.request_deadline = self.deadline_ms.map(Duration::from_millis);
        config.server.fsync = self.fsync;
        if let Some(dir) = &self.data_dir {
            // Release the session's handle on the journal first — the
            // replica node recovers and (on promotion) writes it itself.
            if let Some(mdm) = self.mdm.as_mut() {
                mdm.set_journal(None);
            }
            self.store = None;
            config.data_dir = Some(dir.clone());
        }
        match mdm_replica::ReplicaNode::start(config) {
            Ok(handle) => {
                let text = format!(
                    "replica of {primary} serving on http://{}\n\
                     analyst routes answer at the replay epoch; steward mutations get 421\n\
                     e.g.  call GET /epoch   (watch replay_lag)\n\
                     'stop' shuts the replica down",
                    handle.addr()
                );
                self.replica = Some(handle);
                Outcome::Text(text)
            }
            Err(e) => Outcome::Text(format!("failed to start replica: {e}")),
        }
    }

    /// `call [--no-redirect] METHOD /path [json-body]` — issues one HTTP
    /// request against the server started with `serve` and pretty-prints
    /// the JSON answer. A `421 Misdirected Request` (steward mutation sent
    /// to a replica) is followed once to the primary named in its
    /// `Location` header; `--no-redirect` shows the 421 verbatim instead.
    fn call(&mut self, argument: &str) -> Outcome {
        let addr = match (&self.server, &self.replica) {
            (Some(server), _) => server.addr(),
            (None, Some(replica)) => replica.addr(),
            (None, None) => {
                return Outcome::Text("no server running — start one with 'serve'".to_string())
            }
        };
        let mut argument = argument.trim();
        let mut follow = true;
        if let Some(rest) = argument.strip_prefix("--no-redirect") {
            follow = false;
            argument = rest.trim_start();
        }
        let mut parts = argument.splitn(3, ' ');
        let (method, path) =
            match (parts.next(), parts.next()) {
                (Some(m), Some(p)) if p.starts_with('/') => (m.to_ascii_uppercase(), p),
                _ => return Outcome::Text(
                    "usage: call [--no-redirect] METHOD /path [json-body]   e.g. call GET /healthz"
                        .to_string(),
                ),
            };
        let body = parts.next().map(str::trim).filter(|b| !b.is_empty());
        let response = match mdm_server::client::Connection::open(addr)
            .and_then(|mut c| c.send(&method, path, body))
        {
            Ok(response) => response,
            Err(e) => return Outcome::Text(format!("request failed: {e}")),
        };
        let mut redirected = None;
        let response = if follow && response.status == 421 {
            match response.header("location").and_then(parse_http_location) {
                Some((target, target_path)) => {
                    match mdm_server::client::Connection::open(target.as_str())
                        .and_then(|mut c| c.send(&method, &target_path, body))
                    {
                        Ok(followed) => {
                            redirected = Some(target);
                            followed
                        }
                        Err(e) => {
                            return Outcome::Text(format!(
                                "redirect to primary at {target} failed: {e}"
                            ))
                        }
                    }
                }
                None => response,
            }
        } else {
            response
        };
        let rendered = match mdm_dataform::json::parse(&response.body) {
            Ok(value) => mdm_dataform::json::to_string_pretty(&value),
            Err(_) => response.body,
        };
        let preface = match redirected {
            Some(target) => format!("-> redirected to primary at {target}\n"),
            None => String::new(),
        };
        Outcome::Text(format!("{preface}HTTP {}\n{rendered}", response.status))
    }

    /// `promote` — asks the running replica to become the primary of a new
    /// fencing term (drives `POST /admin/promote`).
    fn promote(&mut self) -> Outcome {
        if self.replica.is_none() {
            return Outcome::Text(
                "no replica running — 'promote' drives POST /admin/promote on a node \
                 started with 'serve --replica-of'"
                    .to_string(),
            );
        }
        self.call("POST /admin/promote")
    }

    /// `stop` — shuts the server down and restores the system into the
    /// session, including every change stewards made over HTTP.
    fn stop_server(&mut self) -> Outcome {
        if let Some(replica) = self.replica.take() {
            replica.shutdown();
            return Outcome::Text("replica stopped".to_string());
        }
        match self.server.take() {
            Some(handle) => match handle.into_mdm() {
                Some(mdm) => {
                    let epoch = mdm.epoch();
                    self.mdm = Some(mdm);
                    Outcome::Text(format!(
                        "server stopped — metadata back in the session (epoch {epoch})"
                    ))
                }
                None => Outcome::Text(
                    "server stopped, but the metadata could not be recovered".to_string(),
                ),
            },
            None => Outcome::Text("no server running".to_string()),
        }
    }

    fn status(&self) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        let report = mdm_core::dashboard::report(mdm.ontology());
        Outcome::Text(report.render(mdm.ontology()))
    }

    /// `changes [--since N] [--follow]` — the evolution changefeed: every
    /// committed steward mutation after epoch `N` with its dependency
    /// footprint. With a server (or replica) running the records come from
    /// the system behind it, read in-process as `GET /changes` reads them
    /// (waiting for new ones under `--follow`); otherwise from the
    /// session's system.
    fn changes(&mut self, argument: &str) -> Outcome {
        const USAGE: &str = "usage: changes [--since N] [--follow]";
        let mut since = 0u64;
        let mut follow = false;
        let mut args = argument.split_whitespace();
        while let Some(arg) = args.next() {
            match arg {
                "--follow" => follow = true,
                "--since" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => since = n,
                    None => return Outcome::Text(USAGE.to_string()),
                },
                _ => return Outcome::Text(USAGE.to_string()),
            }
        }
        let served = match (&self.server, &self.replica) {
            (Some(server), _) => Some(Arc::clone(server.state())),
            (None, Some(replica)) => Some(Arc::clone(replica.state())),
            (None, None) => None,
        };
        // Only a served system changes while the REPL waits. A command
        // cannot block forever: --follow waits until a few consecutive
        // polls come back empty, then reports and returns.
        let follow = follow && served.is_some();
        let wait = Duration::from_secs(if follow { 2 } else { 0 });
        let mut out = String::new();
        let mut cursor = since;
        let mut idle = 0;
        for poll in 0.. {
            let (records, truncated, epoch) = match &served {
                Some(state) => state.changes(cursor, 1024, wait),
                None => match self.require_mdm() {
                    Ok(mdm) => {
                        let (records, truncated) = mdm.changes_since(cursor, 1024);
                        (records, truncated, mdm.epoch())
                    }
                    Err(e) => return Outcome::Text(e),
                },
            };
            if truncated && poll == 0 {
                writeln!(
                    out,
                    "(cursor {since} is below the feed's horizon — earlier records are not held here)"
                )
                .unwrap();
            }
            for record in &records {
                let tag = if record.extension {
                    "  [extendable]"
                } else {
                    ""
                };
                writeln!(
                    out,
                    "epoch {:>4}  {:<18} {}{tag}",
                    record.epoch, record.kind, record.summary
                )
                .unwrap();
            }
            cursor = records.last().map_or(cursor, |r| r.epoch);
            if !follow {
                writeln!(
                    out,
                    "{} change(s) after epoch {since}; metadata epoch {epoch}",
                    records.len()
                )
                .unwrap();
                break;
            }
            idle = if records.is_empty() { idle + 1 } else { 0 };
            if idle >= 3 {
                writeln!(
                    out,
                    "(follow idle — caught up at epoch {cursor}; re-run 'changes --since {cursor} --follow' to resume)"
                )
                .unwrap();
                break;
            }
        }
        Outcome::Text(out.trim_end().to_string())
    }

    fn suggest(&self, wrapper: &str) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        if wrapper.is_empty() {
            return Outcome::Text("usage: suggest <wrapper-name>".into());
        }
        match mdm_core::assist::suggest_mapping(mdm.ontology(), wrapper) {
            Ok(draft) => {
                let mut out = String::new();
                writeln!(out, "mapping suggestions for '{wrapper}':").unwrap();
                for s in &draft.accepted {
                    writeln!(
                        out,
                        "    {} → {}   [{:?}] {}",
                        s.attribute,
                        mdm.ontology().compact(&s.feature),
                        s.confidence,
                        s.rationale
                    )
                    .unwrap();
                }
                for a in &draft.unmatched {
                    writeln!(out, "    {a} → (no candidate)").unwrap();
                }
                for gap in &draft.identifier_gaps {
                    writeln!(
                        out,
                        "    WARNING: identifier of {} is not mapped",
                        mdm.ontology().compact(gap)
                    )
                    .unwrap();
                }
                if draft.is_applicable() {
                    writeln!(out, "draft is applicable (review, then apply via the API)").unwrap();
                }
                Outcome::Text(out)
            }
            Err(e) => Outcome::Text(format!("suggestion failed: {e}")),
        }
    }

    fn snapshot(&self, path: &str) -> Outcome {
        let mdm = match self.require_mdm() {
            Ok(m) => m,
            Err(e) => return Outcome::Text(e),
        };
        if path.is_empty() {
            return Outcome::Text(mdm.snapshot());
        }
        match std::fs::write(path, mdm.snapshot()) {
            Ok(()) => Outcome::Text(format!("metadata snapshot written to {path}")),
            Err(e) => Outcome::Text(format!("cannot write {path}: {e}")),
        }
    }

    fn restore(&mut self, path: &str) -> Outcome {
        if path.is_empty() {
            return Outcome::Text("usage: restore <file>".into());
        }
        if let Some(refusal) = self.behind_the_server("use 'call POST /steward/restore'") {
            return refusal;
        }
        let document = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => return Outcome::Text(format!("cannot read {path}: {e}")),
        };
        // Swapped into the loaded system, as the server's restore route
        // does: its settings stay and its epoch keeps rising.
        let loaded = self.mdm.is_some();
        if let Err(e) = self.mdm.get_or_insert_with(Mdm::new).restore(&document) {
            if !loaded {
                self.mdm = None;
            }
            return Outcome::Text(format!("restore failed: {e}"));
        }
        self.ecosystem = None;
        self.apply_fault_plan();
        self.apply_threads();
        let mut text = format!(
            "metadata restored from {path} (wrappers must be re-registered to execute queries)"
        );
        if let Some(warning) = self.rebind_store() {
            text.push('\n');
            text.push_str(&warning);
        }
        Outcome::Text(text)
    }

    /// `compact` — folds the journal into a fresh snapshot generation.
    fn compact(&mut self) -> Outcome {
        let Some(store) = &self.store else {
            return Outcome::Text(
                "no durable store open — start the CLI with --data-dir <dir>".to_string(),
            );
        };
        if let Some(refusal) = self.behind_the_server("use 'call POST /admin/compact'") {
            return refusal;
        }
        let Some(mdm) = self.mdm.as_ref() else {
            return Outcome::Text("no system loaded — run 'setup football' first".to_string());
        };
        match store.compact(mdm) {
            Ok(generation) => {
                let stats = store.stats();
                Outcome::Text(format!(
                    "journal folded into generation {generation} (epoch {}, {} bytes of WAL)",
                    mdm.epoch(),
                    stats.wal_bytes
                ))
            }
            Err(e) => Outcome::Text(format!("compaction failed: {e}")),
        }
    }
}

/// Splits an `http://host:port/path` Location value into the socket
/// address and the path (defaulting to `/`).
fn parse_http_location(value: &str) -> Option<(String, String)> {
    let rest = value.strip_prefix("http://")?;
    match rest.split_once('/') {
        Some((addr, path)) => Some((addr.to_string(), format!("/{path}"))),
        None => Some((rest.to_string(), "/".to_string())),
    }
}

const HELP: &str = "\
MDM — Metadata Management System (EDBT 2018 reproduction)

  setup football     load the motivational use case (4 APIs, wrappers, mappings)
  evolve             register the breaking Players API v2 release (the §3 scenario)
  show global        the global graph (Figure 5)
  show source        the source graph (Figure 6)
  show mappings      the LAV mappings (Figure 7)
  show trig          the whole metadata state as TriG
  sources            list registered data sources
  wrappers           list registered wrappers with signatures
  rewrite            enter a walk, finish with '.', show SPARQL + algebra (Figure 8)
  explain            enter a walk, finish with '.', narrate the rewriting
                     derivation and print the optimized plan tree with
                     estimated vs. actual per-operator cardinalities
  query              enter a walk, finish with '.', execute it (Table 1 style)
  trace              like query (same pool, retries and fault plan), plus
                     a provenance column (which branch/version); a dropped
                     branch is an error here, not a partial answer
  suggest <wrapper>  semi-automatic mapping suggestions for an unmapped wrapper
  changes [--since N] [--follow]
                     the evolution changefeed: every committed steward mutation
                     after epoch N with its dependency footprint (read from
                     the running server's system while serving); --follow
                     waits for new ones until the feed goes idle
  stats [refresh]    the cardinality-statistics catalog behind the cost-based
                     optimizer; 'stats refresh' bumps the stats epoch (the next
                     query re-profiles; the metadata epoch is untouched)
  faults [<seed> [rate] | off]  arm/disarm deterministic fault injection; bare
                     'faults' reports the plan, deadline and breaker states
  serve [addr]       expose the system over HTTP (default 127.0.0.1:0; see README)
  serve [addr] --replica-of host:port
                     start a read replica following a primary's WAL stream
                     (with --data-dir: recovers an old primary's journal and
                     rejoins the new primary, discarding any divergent tail)
  call [--no-redirect] M /path [json]
                     issue one HTTP request against the running server; a 421
                     from a replica is followed once to the primary unless
                     --no-redirect is given
  promote            make the running replica the primary of a new fencing
                     term (POST /admin/promote)
  stop               shut the server (or replica) down, bring the metadata back
  status             governance dashboard (coverage, versions, unmapped wrappers)
  snapshot [file]    dump the metadata snapshot (to stdout or a file)
  restore <file>     load a metadata snapshot into the loaded system: its
                     execution settings stay and its epoch keeps rising
  compact            fold the durable journal into a fresh snapshot generation
                     (needs --data-dir; behind 'serve' use POST /admin/compact)
  quit               leave

Walk notation (one line per element, '#' comments):
  ex:Player { ex:playerName, ex:height }
  sc:SportsTeam { ex:teamName }
  ex:Player -ex:hasTeam-> sc:SportsTeam
";

#[cfg(test)]
mod tests {
    use super::*;

    fn text(outcome: Outcome) -> String {
        match outcome {
            Outcome::Text(t) => t,
            Outcome::Quit => "<quit>".to_string(),
            Outcome::NeedMore => "<more>".to_string(),
        }
    }

    #[test]
    fn help_and_unknown_commands() {
        let mut session = Session::new();
        assert!(text(session.interpret("help")).contains("setup football"));
        assert!(text(session.interpret("frobnicate")).contains("unknown command"));
        assert!(matches!(session.interpret("quit"), Outcome::Quit));
    }

    #[test]
    fn commands_require_a_loaded_system() {
        let mut session = Session::new();
        assert!(text(session.interpret("show global")).contains("no system loaded"));
        assert!(text(session.interpret("sources")).contains("no system loaded"));
    }

    #[test]
    fn full_session_flow() {
        let mut session = Session::new();
        assert!(text(session.interpret("setup football")).contains("loaded"));
        assert!(text(session.interpret("show global")).contains("concept ex:Player"));
        assert!(text(session.interpret("sources")).contains("PlayersAPI"));
        assert!(text(session.interpret("wrappers")).contains("w1 v1(id, pName"));

        // Pose the Figure 8 walk interactively.
        assert!(matches!(session.interpret("query"), Outcome::NeedMore));
        assert!(matches!(
            session.interpret("sc:SportsTeam { ex:teamName }"),
            Outcome::NeedMore
        ));
        assert!(matches!(
            session.interpret("ex:Player { ex:playerName }"),
            Outcome::NeedMore
        ));
        assert!(matches!(
            session.interpret("ex:Player -ex:hasTeam-> sc:SportsTeam"),
            Outcome::NeedMore
        ));
        let result = text(session.interpret("."));
        assert!(result.contains("Lionel Messi"), "{result}");
        assert!(result.contains("⋈"), "{result}");

        // Evolution scenario through the CLI.
        assert!(text(session.interpret("evolve")).contains("w3"));
        session.interpret("query");
        session.interpret("sc:SportsTeam { ex:teamName }");
        session.interpret("ex:Player { ex:playerName }");
        session.interpret("ex:Player -ex:hasTeam-> sc:SportsTeam");
        let evolved = text(session.interpret("."));
        assert!(evolved.contains("Zlatan Ibrahimovic"), "{evolved}");
    }

    #[test]
    fn explain_and_suggest_commands() {
        let mut session = Session::new();
        session.interpret("setup football");
        session.interpret("explain");
        session.interpret("ex:Player { ex:playerName }");
        let explanation = text(session.interpret("."));
        assert!(explanation.contains("phase (a)"), "{explanation}");
        assert!(explanation.contains("scans w1"), "{explanation}");
        // suggest on an unknown wrapper reports the error inline.
        let missing = text(session.interpret("suggest ghost"));
        assert!(missing.contains("not registered"), "{missing}");
        assert!(text(session.interpret("suggest")).contains("usage"));
        // status shows the dashboard.
        let status = text(session.interpret("status"));
        assert!(status.contains("ECOSYSTEM"), "{status}");
        assert!(status.contains("PlayersAPI"), "{status}");
    }

    #[test]
    fn stats_command_reports_and_refreshes_the_catalog() {
        let mut session = Session::new();
        assert!(text(session.interpret("stats")).contains("no system loaded"));
        session.interpret("setup football");
        // Warm the catalog with one executed query so scans are observed.
        session.interpret("query");
        session.interpret("ex:Player { ex:playerName }");
        session.interpret(".");
        let report = text(session.interpret("stats"));
        assert!(report.contains("optimizer mode: cost"), "{report}");
        assert!(report.contains("stats epoch"), "{report}");
        let refreshed = text(session.interpret("stats refresh"));
        assert!(refreshed.contains("stats epoch"), "{refreshed}");
        assert!(refreshed.contains("untouched"), "{refreshed}");
        assert!(text(session.interpret("stats bogus")).contains("usage"));
    }

    #[test]
    fn explain_appends_the_annotated_plan_tree() {
        let mut session = Session::new();
        session.interpret("setup football");
        session.interpret("explain");
        session.interpret("ex:Player { ex:playerName }");
        let explanation = text(session.interpret("."));
        assert!(explanation.contains("optimized plan"), "{explanation}");
        assert!(explanation.contains("est≈"), "{explanation}");
        assert!(explanation.contains("act="), "{explanation}");
    }

    #[test]
    fn rewrite_shows_artifacts_without_executing() {
        let mut session = Session::new();
        session.interpret("setup football");
        session.interpret("rewrite");
        session.interpret("ex:Player { ex:playerName }");
        let shown = text(session.interpret("."));
        assert!(shown.contains("SELECT"));
        assert!(shown.contains("π["));
    }

    #[test]
    fn walk_errors_are_reported_inline() {
        let mut session = Session::new();
        session.interpret("setup football");
        session.interpret("query");
        session.interpret("nope:Concept { }");
        let err = text(session.interpret("."));
        assert!(err.contains("walk error"), "{err}");
    }

    #[test]
    fn serve_replica_of_starts_and_stops() {
        let mut session = Session::new();
        // No loaded system needed: replicas bootstrap over the wire. The
        // primary here refuses connections, so the replica just reports
        // degraded until stopped.
        let started = text(session.interpret("serve 127.0.0.1:0 --replica-of 127.0.0.1:1"));
        assert!(started.contains("replica of 127.0.0.1:1"), "{started}");
        let health = text(session.interpret("call GET /healthz"));
        assert!(health.contains("degraded"), "{health}");
        assert!(health.contains("bootstrapping"), "{health}");
        let stopped = text(session.interpret("stop"));
        assert!(stopped.contains("replica stopped"), "{stopped}");
        assert!(text(session.interpret("serve --replica-of")).contains("usage"));
    }

    #[test]
    fn call_follows_a_replica_redirect_to_the_primary() {
        let mut primary = Session::new();
        primary.interpret("setup football");
        let addr = served_addr(&text(primary.interpret("serve 127.0.0.1:0")));
        let mut replica = Session::new();
        let started = text(replica.interpret(&format!("serve 127.0.0.1:0 --replica-of {addr}")));
        assert!(started.contains("replica of"), "{started}");
        // A steward mutation on the replica answers 421; by default the
        // CLI follows the Location header to the primary once.
        let kept =
            text(replica.interpret(
                r#"call --no-redirect POST /steward/concepts {"concept": "ex:Referee"}"#,
            ));
        assert!(kept.contains("HTTP 421"), "{kept}");
        let followed =
            text(replica.interpret(r#"call POST /steward/concepts {"concept": "ex:Referee"}"#));
        assert!(followed.contains("redirected to primary"), "{followed}");
        assert!(followed.contains("HTTP 200"), "{followed}");
        replica.interpret("stop");
        primary.interpret("stop");
        // Without a replica, 'promote' explains itself.
        assert!(text(Session::new().interpret("promote")).contains("no replica running"));
    }

    #[test]
    fn serve_call_stop_round_trip() {
        let mut session = Session::new();
        session.interpret("setup football");
        let started = text(session.interpret("serve 127.0.0.1:0"));
        assert!(
            started.contains("serving on http://127.0.0.1:"),
            "{started}"
        );
        // The metadata lives behind the server now.
        assert!(text(session.interpret("status")).contains("no system loaded"));
        let health = text(session.interpret("call GET /healthz"));
        assert!(health.contains("HTTP 200"), "{health}");
        assert!(health.contains("\"ok\""), "{health}");
        let answer = text(
            session
                .interpret(r#"call POST /analyst/query {"walk": "ex:Player { ex:playerName }"}"#),
        );
        assert!(answer.contains("Lionel Messi"), "{answer}");
        // Steward over HTTP, then verify the change survives `stop`.
        let defined =
            text(session.interpret(r#"call POST /steward/concepts {"concept": "ex:Referee"}"#));
        assert!(defined.contains("HTTP 200"), "{defined}");
        let stopped = text(session.interpret("stop"));
        assert!(
            stopped.contains("metadata back in the session"),
            "{stopped}"
        );
        assert!(text(session.interpret("show global")).contains("ex:Referee"));
    }

    #[test]
    fn serve_requires_a_loaded_system() {
        let mut session = Session::new();
        assert!(text(session.interpret("serve")).contains("no system loaded"));
        assert!(text(session.interpret("call GET /healthz")).contains("no server running"));
        assert!(text(session.interpret("stop")).contains("no server running"));
    }

    #[test]
    fn data_dir_survives_session_restart() {
        let dir = std::env::temp_dir().join(format!(
            "mdm-cli-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut session = Session::new();
        session.open_data_dir(&dir).unwrap();
        session.interpret("setup football");
        let compacted = text(session.interpret("compact"));
        assert!(compacted.contains("generation"), "{compacted}");
        let epoch = session.mdm.as_ref().unwrap().epoch();
        let snapshot = session.mdm.as_ref().unwrap().snapshot();
        drop(session);

        // A fresh session over the same dir recovers the state and epoch.
        let mut revived = Session::new();
        let report = revived.open_data_dir(&dir).unwrap();
        assert!(report.contains("recovered"), "{report}");
        assert_eq!(revived.mdm.as_ref().unwrap().epoch(), epoch);
        assert_eq!(revived.mdm.as_ref().unwrap().snapshot(), snapshot);
        assert!(text(revived.interpret("show global")).contains("concept ex:Player"));
        // Without --data-dir the compact command explains itself.
        let mut plain = Session::new();
        assert!(text(plain.interpret("compact")).contains("--data-dir"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scratch file path unique to this test thread.
    fn scratch_file(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!(
            "mdm-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.trig").to_str().unwrap().to_string()
    }

    /// The address a `serve` reply names.
    fn served_addr(started: &str) -> String {
        started
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap()
            .to_string()
    }

    #[test]
    fn changes_lists_the_local_feed() {
        let mut session = Session::new();
        assert!(text(session.interpret("changes")).contains("no system loaded"));
        session.interpret("setup football");
        let epoch = session.mdm.as_ref().unwrap().epoch();
        let all = text(session.interpret("changes"));
        assert!(all.contains("epoch    1  "), "{all}");
        assert!(
            all.ends_with(&format!(
                "{epoch} change(s) after epoch 0; metadata epoch {epoch}"
            )),
            "{all}"
        );
        assert!(!all.contains("horizon"), "{all}");
        session.interpret("evolve");
        let tail = text(session.interpret(&format!("changes --since {epoch}")));
        assert!(tail.contains("[extendable]"), "{tail}");
        assert!(!tail.contains(&format!("epoch {epoch:>4}  ")), "{tail}");
        assert!(
            tail.contains(&format!("change(s) after epoch {epoch}; metadata epoch")),
            "{tail}"
        );
        assert!(text(session.interpret("changes --since x")).contains("usage"));
        assert!(text(session.interpret("changes --bogus")).contains("usage"));
    }

    #[test]
    fn restore_keeps_the_epoch_rising_and_moves_the_horizon() {
        let path = scratch_file("restore-epoch");
        let mut session = Session::new();
        session.interpret("setup football");
        session.interpret("evolve");
        let epoch = session.mdm.as_ref().unwrap().epoch();
        assert_eq!(epoch, 40);
        assert!(text(session.interpret(&format!("snapshot {path}"))).contains("written"));
        let restored = text(session.interpret(&format!("restore {path}")));
        assert!(restored.contains("restored"), "{restored}");
        assert_eq!(session.mdm.as_ref().unwrap().epoch(), epoch + 1);
        let feed = text(session.interpret(&format!("changes --since {epoch}")));
        assert!(feed.contains("below the feed's horizon"), "{feed}");
        assert!(
            feed.ends_with(&format!(
                "0 change(s) after epoch {epoch}; metadata epoch {}",
                epoch + 1
            )),
            "{feed}"
        );
        // A cursor at the new epoch is exactly caught up.
        let caught_up = text(session.interpret(&format!("changes --since {}", epoch + 1)));
        assert!(!caught_up.contains("horizon"), "{caught_up}");
        // A bad document leaves the loaded system as it was.
        std::fs::write(&path, "garbage").unwrap();
        assert!(text(session.interpret(&format!("restore {path}"))).contains("restore failed"));
        assert_eq!(session.mdm.as_ref().unwrap().epoch(), epoch + 1);
        let mut fresh = Session::new();
        assert!(text(fresh.interpret(&format!("restore {path}"))).contains("restore failed"));
        assert!(fresh.mdm.is_none());
    }

    #[test]
    fn setup_over_a_loaded_system_keeps_the_epoch_rising() {
        let dir = std::path::PathBuf::from(scratch_file("setup-epoch")).with_extension("d");
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::new();
        session.set_fsync(FsyncPolicy::Never);
        session.open_data_dir(&dir).unwrap();
        session.interpret("setup football");
        let wrappers = session.mdm.as_ref().unwrap().catalog().len();
        session.interpret("evolve");
        let evolved = session.mdm.as_ref().unwrap().epoch();
        assert_eq!(evolved, 40);
        assert!(text(session.interpret("setup football")).contains("loaded"));
        let mdm = session.mdm.as_ref().unwrap();
        assert_eq!(mdm.epoch(), evolved + 1);
        assert_eq!(mdm.catalog().len(), wrappers);
        let feed = text(session.interpret(&format!("changes --since {evolved}")));
        assert!(feed.contains("below the feed's horizon"), "{feed}");
        assert!(
            feed.ends_with(&format!(
                "0 change(s) after epoch {evolved}; metadata epoch {}",
                evolved + 1
            )),
            "{feed}"
        );
        // The store was re-based at the raised epoch, not below it.
        drop(session);
        let mut reopened = Session::new();
        let report = reopened.open_data_dir(&dir).unwrap();
        assert!(
            report.ends_with(&format!("epoch {}", evolved + 1)),
            "{report}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changes_reads_the_served_system_and_follow_returns_when_idle() {
        let path = scratch_file("served-changes");
        let mut session = Session::new();
        session.interpret("setup football");
        let epoch = session.mdm.as_ref().unwrap().epoch();
        assert!(text(session.interpret(&format!("snapshot {path}"))).contains("written"));
        let started = text(session.interpret("serve 127.0.0.1:0"));
        assert!(started.contains("serving on"), "{started}");
        let defined =
            text(session.interpret(r#"call POST /steward/concepts {"concept": "ex:Referee"}"#));
        assert!(defined.contains("HTTP 200"), "{defined}");
        let feed = text(session.interpret(&format!("changes --since {epoch}")));
        assert!(feed.contains("Referee"), "{feed}");
        assert!(
            feed.ends_with(&format!(
                "1 change(s) after epoch {epoch}; metadata epoch {}",
                epoch + 1
            )),
            "{feed}"
        );
        let followed = text(session.interpret(&format!("changes --since {epoch} --follow")));
        assert!(followed.contains("Referee"), "{followed}");
        assert!(
            followed.ends_with(&format!(
                "(follow idle — caught up at epoch {}; re-run 'changes --since {} --follow' to resume)",
                epoch + 1,
                epoch + 1
            )),
            "{followed}"
        );
        // Replacing the served system from the REPL would be lost at 'stop'.
        let setup = text(session.interpret("setup football"));
        assert!(setup.contains("behind the server"), "{setup}");
        let restore = text(session.interpret(&format!("restore {path}")));
        assert!(restore.contains("behind the server"), "{restore}");
        let stopped = text(session.interpret("stop"));
        assert!(
            stopped.contains(&format!("epoch {}", epoch + 1)),
            "{stopped}"
        );
        assert!(text(session.interpret("show global")).contains("ex:Referee"));
    }

    #[test]
    fn changes_reads_a_replica_in_process() {
        // The primary's journal is the replication feed.
        let dir = std::path::PathBuf::from(scratch_file("replica-primary")).with_extension("d");
        let _ = std::fs::remove_dir_all(&dir);
        let mut primary = Session::new();
        primary.set_fsync(FsyncPolicy::Never);
        primary.open_data_dir(&dir).unwrap();
        primary.interpret("setup football");
        let epoch = primary.mdm.as_ref().unwrap().epoch();
        let addr = served_addr(&text(primary.interpret("serve 127.0.0.1:0")));
        let mut replica = Session::new();
        replica.interpret(&format!("serve 127.0.0.1:0 --replica-of {addr}"));
        let handle = replica.replica.as_ref().unwrap();
        assert!(handle.wait_for_epoch(epoch, Duration::from_secs(20)));
        // A bootstrapped replica's feed starts at the snapshot it restored.
        let feed = text(replica.interpret("changes"));
        assert!(feed.contains("below the feed's horizon"), "{feed}");
        assert!(
            feed.ends_with(&format!(
                "0 change(s) after epoch 0; metadata epoch {epoch}"
            )),
            "{feed}"
        );
        replica.interpret("stop");
        primary.interpret("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restore_via_files() {
        let dir = std::env::temp_dir().join("mdm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.trig");
        let path_str = path.to_str().unwrap().to_string();
        let mut session = Session::new();
        session.interpret("setup football");
        assert!(text(session.interpret(&format!("snapshot {path_str}"))).contains("written"));
        let mut fresh = Session::new();
        assert!(text(fresh.interpret(&format!("restore {path_str}"))).contains("restored"));
        assert!(text(fresh.interpret("show global")).contains("concept ex:Player"));
    }
}
