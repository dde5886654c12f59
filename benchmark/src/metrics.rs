//! The names, units and directions of every metric the harness prints. The
//! schema test holds this table against `BENCHMARK.json`.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; printed with `--trace 0` for every
/// workload. `failed_share` travels as `failed`/`attempted` in the result
/// line (a gating metric must never read 0), and `release_visible_p50_ms`
/// is in [`PER_LAYER`] because only one workload's window makes releases.
pub const END_TO_END: &[MetricDef] = &[
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p95_ms", "ms", "lower"),
    def("throughput_qps", "1/s", "higher"),
    def("cpu_ms_per_query", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single layers, from the traced run (`--trace 1`); prefix = crate name.
pub const PER_LAYER: &[MetricDef] = &[
    def("release_visible_p50_ms", "ms", "lower"),
    def("server.socket_p50_us", "us", "lower"),
    def("server.transport_us", "us", "lower"),
    def("server.http_parse_us", "us", "lower"),
    def("server.dispatch_us", "us", "lower"),
    def("server.render_json_us", "us", "lower"),
    def("server.write_us", "us", "lower"),
    def("server.response_bytes", "B", "lower"),
    def("server.shed", "count", "lower"),
    def("server.errors", "count", "lower"),
    def("core.walk_parse_us", "us", "lower"),
    def("core.cache_lookup_us", "us", "lower"),
    def("core.merge_us", "us", "lower"),
    def("core.rewrite_cold_us", "us", "lower"),
    def("core.ucq_branches", "count", "lower"),
    def("core.rewrite_after_release_us", "us", "lower"),
    def("core.release_apply_us", "us", "lower"),
    def("core.cache_hit_ratio", "ratio", "higher"),
    def("core.survivals", "count", "higher"),
    def("core.incremental_extensions", "count", "higher"),
    def("core.full_rewrites", "count", "lower"),
    def("core.surgical_invalidations", "count", "lower"),
    def("relational.optimize_us", "us", "lower"),
    def("relational.execute_us", "us", "lower"),
    def("relational.kernels_us", "us", "lower"),
    def("relational.terms_encoded", "1/query", "lower"),
    def("relational.terms_decoded", "1/query", "lower"),
    def("relational.kernel_invocations", "1/query", "lower"),
    def("relational.column_bytes", "B/query", "lower"),
    def("relational.rows_moved", "1/query", "lower"),
    def("relational.rows_scanned_per_result_row", "ratio", "lower"),
    def("relational.dict_entries", "count", "lower"),
    def("relational.dict_bytes", "B", "lower"),
    def("wrappers.fetch_warm_us", "us", "lower"),
    def("wrappers.fetch_cold_us", "us", "lower"),
    def("wrappers.fetches_per_query", "1/query", "lower"),
    def("dataform.parse_us", "us", "lower"),
    def("dataform.flatten_us", "us", "lower"),
    def("dataform.payload_bytes", "B", "lower"),
    def("dataform.serialise_us", "us", "lower"),
    def("store.wal_bytes_per_release", "B", "lower"),
    def("store.wal_bytes_per_payload_byte", "ratio", "lower"),
    def("store.wal_records", "count", "lower"),
    def("store.journal_overhead_us", "us", "lower"),
    def("trace.coverage", "ratio", "higher"),
    def("trace.overhead_share", "ratio", "lower"),
];

/// Per-layer metrics that are counts made by the program under a single
/// connection or thread: they must repeat exactly for a given seed.
pub const EXACT: &[&str] = &[
    "server.response_bytes",
    "server.shed",
    "server.errors",
    "core.ucq_branches",
    "core.cache_hit_ratio",
    "core.survivals",
    "core.incremental_extensions",
    "core.full_rewrites",
    "core.surgical_invalidations",
    "relational.terms_encoded",
    "relational.terms_decoded",
    "relational.kernel_invocations",
    "relational.column_bytes",
    "relational.rows_moved",
    "relational.rows_scanned_per_result_row",
    "relational.dict_entries",
    "relational.dict_bytes",
    "wrappers.fetches_per_query",
    "dataform.payload_bytes",
    "store.wal_bytes_per_release",
    "store.wal_bytes_per_payload_byte",
    "store.wal_records",
];

/// A measured value under its declared name.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a timing, printed as `n=` beside it.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: None,
        }
    }

    pub fn timed(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples: Some(samples),
        }
    }
}
