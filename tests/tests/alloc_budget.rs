//! Allocation-budget regression tests for the zero-copy data plane.
//!
//! Re-running a warmed E6 query (an 8-branch version-crossing UCQ)
//! must stay under a recorded heap-allocation ceiling, both for its branch
//! plans on the kernels alone and for the served query. Interned strings,
//! shared batches, and selection vectors exist precisely to keep per-query
//! allocations proportional to result size rather than to (rows × string
//! columns); this test pins that property so a regression that quietly
//! reintroduces per-cell `String` clones fails CI instead of only showing
//! up in benchmarks. A wrapper's cold fill — its release streamed into
//! resident term columns — is held to a peak-memory bound and a ceiling of
//! its own, and the served query to a peak-memory ceiling too. A warm
//! plan-cache hit allocates nothing beyond the walk's key.
//!
//! The counting allocator wraps [`System`] and lives in its own integration
//! test binary so the count reflects only this file's work; the tests take
//! [`SERIAL`] so they do not count each other's. It also tracks live heap
//! bytes and their peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mdm_core::rewrite::plan_for_cq;
use mdm_core::synthetic::{chain_walk, mdm_from_synthetic};
use mdm_core::{usecase, Mdm};
use mdm_relational::{metrics, Deadline, ExecOptions, Executor, Plan};
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, SyntheticEcosystem, WorkloadConfig};
use mdm_wrappers::Wrapper;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The highest `LIVE` since the last [`reset_peak`]. A realloc counts the
/// old block and the new one together, as a moving realloc holds both.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: usize, transient: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live + transient as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size(), layout.size());
        } else {
            PEAK.fetch_max(
                LIVE.load(Ordering::Relaxed) + new_size as u64,
                Ordering::Relaxed,
            );
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Restarts the peak at the live bytes now, and returns them.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// One measuring test at a time: the allocation and decode counters are
/// process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// The E6 shape from EXPERIMENTS.md: 2 chained concepts × 2 coexisting
/// versions per source → an 8-branch UCQ (mdm_bench::mixed_system(2, 2, n)
/// rebuilt here because the test crate does not depend on mdm-bench).
fn e6_at_10k() -> (SyntheticEcosystem, Mdm) {
    let config = WorkloadConfig {
        concepts: 2,
        features_per_concept: 3,
        versions_per_source: 2,
        rows_per_wrapper: 10_000,
        seed: 42,
    };
    let eco = build(&config);
    let mdm = mdm_from_synthetic(&eco).expect("synthetic system builds");
    (eco, mdm)
}

/// Heap-allocation ceiling for E6's eight branch plans at 10k rows per
/// wrapper, warmed, run one after the other through one sequential
/// executor, each decoded into a `Table`: the kernels' per-row budget,
/// with no merge (the served path's is the next test's). Measured 85,053
/// allocations on the recording machine for the branches' 80,000 rows (≈1
/// per branch row: operators move 16-byte term ids, every wrapper's
/// release is resident as term columns so a warm scan is an `Arc` clone,
/// each single-key join probes the index its resident build column kept,
/// and each branch's rows decode back into `Value`s, one `Vec` per row).
/// Until 2026-10-19 this test ran the rewriting's whole `δ(∪ …)` plan,
/// which decoded only the 39,171 rows δ kept: 44,371 (44,395 before the
/// join indexes moved onto the columns; 84,447 before the columns were
/// resident, when every scan cloned each wrapper's memoised rows and
/// re-encoded them; ~882k on the deleted row plane). The ceiling leaves
/// ~10% headroom for stdlib drift while still catching a regression that
/// brings back a per-query row clone or silently falls back to
/// row-at-a-time decode — the latter alone costs one allocation per
/// string cell per operator, i.e. hundreds of thousands at this scale.
const E6_10K_ALLOC_CEILING: u64 = 93_600;

#[test]
fn warmed_e6_execution_stays_under_allocation_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (eco, mdm) = e6_at_10k();
    let walk = chain_walk(&eco, 2);
    let rewriting = mdm.rewrite(&walk).expect("rewrites");
    let plans: Vec<Plan> = rewriting
        .queries
        .iter()
        .map(|cq| plan_for_cq(cq, &rewriting.output_columns).expect("branch plan"))
        .collect();

    // Warm run: parses wrapper payloads, fills each wrapper's resident
    // columns, interns the string domain. Sequential options keep the count deterministic.
    let executor = Executor::with_options(mdm.catalog(), ExecOptions::sequential());
    let run = || -> Vec<usize> {
        plans
            .iter()
            .map(|plan| executor.run(plan).expect("branch executes").len())
            .collect()
    };
    let warm = run();
    assert!(
        warm.iter().all(|&rows| rows > 0),
        "E6 branches must produce rows"
    );

    // Measured run: the branch plans again, on warm wrappers.
    let before = allocations();
    let measured = run();
    let spent = allocations() - before;

    assert_eq!(measured, warm, "warm and measured runs agree");
    eprintln!(
        "warmed E6 @10k: {} branch rows, {spent} allocations (ceiling {E6_10K_ALLOC_CEILING})",
        measured.iter().sum::<usize>()
    );
    assert!(
        spent <= E6_10K_ALLOC_CEILING,
        "warmed E6 @10k spent {spent} allocations, budget is {E6_10K_ALLOC_CEILING}"
    );
}

/// Heap-allocation ceiling for one warmed, sequential
/// `Mdm::query_degraded` of the same walk — the *served* path: the branch
/// executions and the UCQ merge, whose answer stays in term form
/// (`MergedRows`). Measured 5,291 allocations on the recording machine for
/// a 39,171-row answer when this test runs first in its process (3,652
/// after the E6 test above has warmed the process-wide state): plans,
/// batches and the merge's few buffers (the sort keys and their radix
/// buffer, the answer's cells, and the bitmap that numbers its strings),
/// none per row. While the merge keyed every row on its codes and its
/// position and read the survivors back through their batches (a row slot
/// per input row, and the answer's string cells radix-sorted by rank) it
/// was 5,307 (3,668), recorded earlier as 5,493 (3,838). While the
/// merge ran the δ kernel and then numbered each column's terms in a hash
/// map it was 5,802 (4,095). The merge is the answer's only δ; while every branch also ran
/// its own (a selection `Vec` per batch and a growing seen table per
/// branch) it was 6,422 (4,675), recorded earlier as 6,383. Until the
/// served answer stopped being a `Table` it was 45,506, one `Vec` per
/// result row (the decoded tuple) on top of the same. The parent of the
/// change that made wrapper columns resident spent 85,582 here: one more `Vec` per fetched input
/// row (`RelationProvider::rows` cloned each wrapper's 10k rows every
/// query) plus the per-query column `Vec`s of the re-encode. Before the
/// merge moved onto term ids it was 129,378: every branch decoded its own
/// rows (79,636 of them) before a `BTreeSet<Tuple>` union and a second
/// sort. ~10% headroom; decoding the answer into rows again costs one
/// allocation per *result* row, a per-query row clone one per *fetched*
/// row, and either lands far above it.
const SERVED_E6_10K_ALLOC_CEILING: u64 = 5_800;

/// Ceiling on the same query's peak live heap above what was live before
/// it. Measured 4,145,344 bytes on the recording machine (the same in
/// every run, first in its process or not). The merge sorts 80,000 keys,
/// δ leaves 39,171, and the key buffer shrinks to those before the
/// answer's cells are decoded beside it; unshrunk it peaked at 4,471,992.
/// While the merge kept each row's position below its codes and read the
/// survivors back through their batches (a row slot per input row and the
/// survivors' positions beside the cells) it was 4,308,772. ~2.5%
/// headroom (105 kB): a buffer of one `u32` per input row alone is 320 kB.
const SERVED_E6_10K_PEAK_CEILING: u64 = 4_250_000;

#[test]
fn warmed_served_query_stays_under_allocation_budget() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (eco, mut mdm) = e6_at_10k();
    // One thread: the pool would only move the same allocations elsewhere,
    // and a fixed interleaving keeps the count repeatable.
    mdm.set_threads(1);
    let walk = chain_walk(&eco, 2);
    let warm = mdm
        .query_degraded(&walk, Deadline::none())
        .expect("warm query executes");
    assert!(warm.completeness.is_complete());
    assert!(!warm.rows.is_empty(), "E6 must produce rows");

    let columnar_before = metrics::snapshot().columnar;
    let live_before = reset_peak();
    let before = allocations();
    let answer = mdm
        .query_degraded(&walk, Deadline::none())
        .expect("measured query executes");
    let spent = allocations() - before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    let columnar = metrics::snapshot().columnar;
    let decoded = columnar.decodes - columnar_before.decodes;

    // Decoded only now, outside the measured span.
    assert_eq!(answer.table().rows(), warm.table().rows());
    // Every wrapper's release is resident as term columns after the warm
    // query: a warm scan is an `Arc` clone, not an encode.
    assert_eq!(
        columnar.encodes, columnar_before.encodes,
        "a warmed served query must not encode"
    );
    // Branches stay encoded until the merge: the only terms decoded are the
    // final answer's, once.
    let result_terms = (answer.rows.len() * answer.rows.schema().len()) as u64;
    assert_eq!(
        decoded, result_terms,
        "a columnar query_degraded decodes result rows × width terms, no more"
    );
    eprintln!(
        "warmed served E6 @10k spent {spent} allocations (ceiling {SERVED_E6_10K_ALLOC_CEILING}), \
         peak {peak} B above {live_before} B live (ceiling {SERVED_E6_10K_PEAK_CEILING})"
    );
    assert!(
        spent <= SERVED_E6_10K_ALLOC_CEILING,
        "warmed served E6 @10k spent {spent} allocations, budget is {SERVED_E6_10K_ALLOC_CEILING}"
    );
    assert!(
        peak <= SERVED_E6_10K_PEAK_CEILING,
        "warmed served E6 @10k peaked {peak} B above its start, budget is {SERVED_E6_10K_PEAK_CEILING}"
    );
}

/// A 10k-row synthetic JSON release: `s0_v1` of a two-concept chain, five
/// attributes (an id, a text, an int, a float and a foreign key).
fn synthetic_10k_wrapper() -> Wrapper {
    let config = WorkloadConfig {
        concepts: 2,
        features_per_concept: 3,
        versions_per_source: 1,
        rows_per_wrapper: 10_000,
        seed: 7,
    };
    let eco = build(&config);
    let wrapper = eco.sources[0].wrappers[0].clone();
    assert_eq!(wrapper.name(), "s0_v1");
    wrapper
}

/// Heap-allocation ceiling for one cold `Wrapper::columns()` of
/// [`synthetic_10k_wrapper`]: the release (0.72 MB of JSON) streamed
/// record by record into five term columns. Measured 99,274
/// allocations on the recording machine (≈ 10 per row: each record's
/// parsed tree — its map nodes, key and string values — and its flattened
/// row, none of which outlive the record, plus the column chunks and the
/// dictionary's growth); the ceiling is that + 10 %. Before the fill
/// streamed, it parsed the whole document, flattened it into text rows,
/// typed those into tuples and encoded them: 289,229 allocations.
const COLD_FILL_ALLOC_CEILING: u64 = 109_200;

/// A cold fill's peak heap above what was live before it is at most twice
/// the columns it leaves resident: it holds one record's tree and the
/// column builders, never the document, its text rows or its tuples.
/// Measured 1,233,304 bytes over 800,000 resident on the recording machine
/// (1.54×); the whole-document fill peaked at 13,793,328 (17.2×).
#[test]
fn cold_fill_peaks_under_twice_its_resident_columns() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let wrapper = synthetic_10k_wrapper();
    let encodes_before = metrics::snapshot().columnar.encodes;

    let live_before = reset_peak();
    let allocations_before = allocations();
    let (columns, rows) = wrapper.columns().expect("the release parses");
    let spent = allocations() - allocations_before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;

    assert_eq!(rows, 10_000);
    assert_eq!(columns.len(), 5);
    let resident = wrapper
        .resident_bytes()
        .expect("clean columns are resident") as u64;
    assert_eq!(resident, 10_000 * 5 * 16);
    assert_eq!(
        metrics::snapshot().columnar.encodes - encodes_before,
        10_000 * 5,
        "one encode per cell"
    );
    eprintln!(
        "cold fill @10k ({} B of JSON): peak {peak} B above {live_before} B live, \
         {resident} B resident, {spent} allocations (ceiling {COLD_FILL_ALLOC_CEILING})",
        wrapper.release().body.len()
    );
    assert!(
        peak <= 2 * resident,
        "a cold fill peaked {peak} B above its start, over twice the {resident} B it keeps"
    );
    assert!(
        spent <= COLD_FILL_ALLOC_CEILING,
        "a cold fill spent {spent} allocations, budget is {COLD_FILL_ALLOC_CEILING}"
    );
}

/// A warm `Mdm::rewrite_cached` builds the walk's canonical key and reads
/// the plan cache: the hit hands out two `Arc`s and stamps the entry's use,
/// so the call allocates exactly what `Walk::canonical_key` does. While
/// the cache kept its LRU order in a `BTreeSet` of `(stamp, key)` pairs,
/// every hit copied its key twice more to re-stamp it.
#[test]
fn warm_rewrite_cached_allocates_only_its_key() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).expect("the use case builds");
    let walk = usecase::figure8_walk();
    let cold = mdm.rewrite_cached(&walk).expect("rewrites");

    let before = allocations();
    let key = walk.canonical_key();
    let key_allocations = allocations() - before;
    drop(key);

    let before = allocations();
    let warm = mdm.rewrite_cached(&walk).expect("rewrites");
    let spent = allocations() - before;

    assert!(std::sync::Arc::ptr_eq(&cold, &warm), "a cache hit");
    assert_eq!(mdm.cache_stats().hits, 1);
    assert_eq!(
        spent, key_allocations,
        "a warm rewrite_cached allocates its key ({key_allocations}) and nothing else"
    );
}
