//! Oracle for the encoded UCQ merge.
//!
//! [`merge_branches`] unions branch results while they are still term
//! batches: one sort over per-column integer order codes (strings ranked
//! by the dictionary's content order). Without a float, a row's codes are
//! the row: δ drops adjacent equal code tuples (under a labelled δ, equal
//! tuples of one branch) and the answer is decoded from the tuples that
//! survive; under δ a small enough key space is one pass over a bitmap
//! instead of a radix sort. With a float, the δ kernel runs first and the
//! survivors are read back through their batches. Either way it hands back
//! [`MergedRows`]: term rows plus the answer's strings. This file holds its
//! [`MergedRows::to_table`], row for row and spelling for spelling, to the
//! obvious thing written over decoded rows — concatenate in branch order,
//! keep the first of `==` rows, `sort()` — over the cells where the two
//! could drift apart: NULLs, bools, `-0.0`/`0.0`, `Int`/`Float` pairs that
//! are `==` under coercion, inline and long strings, provenance labels
//! (two branches sharing one), rows too wide to pack, key spaces on both
//! sides of the bitmap pass's gate, inputs that are mostly duplicates,
//! and strings the dictionary learns between (or during) merges.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::columnar::{encode_rows, merge_branches, ColumnBatch, MergeMode, MergedRows};
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ExecOptions, Executor, MemoryCatalog, Table, Tuple, Value};

const POOLED: [&str; 2] = [
    "merge-dictionary-string-alpha-0001",
    "merge-dictionary-string-omega-0002",
];

/// One cell from a small domain, so rows collide across branches.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => any::<bool>().prop_map(Value::Bool),
        3 => (-2i64..3).prop_map(Value::Int),
        2 => (-2i64..3).prop_map(|i| Value::Float(i as f64)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(0.5)),
        2 => (0u8..3, 0usize..3).prop_map(|(c, len)| {
            Value::str(char::from(b'a' + c).to_string().repeat(len))
        }),
        1 => (0usize..POOLED.len()).prop_map(|i| Value::str(POOLED[i])),
    ]
}

/// One float-free cell from a small domain: the merge deduplicates these
/// by adjacency in its sort, not with the δ kernel.
fn arb_plain_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        1 => any::<bool>().prop_map(Value::Bool),
        2 => (-2i64..3).prop_map(Value::Int),
        3 => (0u8..3, 0usize..3).prop_map(|(c, len)| {
            Value::str(char::from(b'a' + c).to_string().repeat(len))
        }),
        2 => (0usize..POOLED.len()).prop_map(|i| Value::str(POOLED[i])),
    ]
}

/// Long strings enough that the dictionary's ranks take 13 bits: five
/// string columns of them cannot pack with a row position into 64 bits, so
/// the merge sorts such rows by comparing their code slices.
const WIDE: usize = 4_096;

fn wide_string(i: usize) -> Value {
    Value::str(format!("merge-wide-dictionary-string-{i:05}"))
}

fn arb_wide_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        8 => (0..WIDE).prop_map(wide_string),
    ]
}

/// Puts every [`wide_string`] in the dictionary, so its ranks are as wide
/// as [`WIDE`] says.
fn encode_wide_strings() {
    let rows: Vec<Tuple> = (0..WIDE).map(|i| vec![wide_string(i)]).collect();
    encode_rows(&rows, 1);
}

/// Labels per branch: later branches sort first, so the label really is a
/// sort key; the shared set gives every other branch the same label.
fn label_sets(branches: usize) -> [Vec<Value>; 2] {
    [false, true].map(|shared| {
        (0..branches)
            .map(|b| {
                let n = branches - b;
                Value::str(format!("w{}+w9", if shared { n % 2 } else { n }))
            })
            .collect()
    })
}

/// Every mode against the naive reference over the same branches.
fn check_every_mode(
    branches: &[Vec<Tuple>],
    width: usize,
    batch_size: usize,
) -> Result<(), TestCaseError> {
    let all = merge_branches(
        schema_of(width),
        encode(branches, width, batch_size, false),
        MergeMode::All,
    )
    .map_err(TestCaseError::fail)?;
    prop_assert_eq!(merged(&all), spelled(&naive(branches, None, false)));

    for pre_distinct in [false, true] {
        let distinct = merge_branches(
            schema_of(width),
            encode(branches, width, batch_size, pre_distinct),
            MergeMode::Distinct,
        )
        .map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            merged(&distinct),
            spelled(&naive(branches, None, true)),
            "per-branch δ first: {}",
            pre_distinct
        );
    }

    let label_sets = label_sets(branches.len());
    for (labels, distinct) in label_sets.iter().flat_map(|l| [(l, false), (l, true)]) {
        let labelled = merge_branches(
            schema_of(width + 1),
            encode(branches, width, batch_size, false),
            MergeMode::Labelled { labels, distinct },
        )
        .map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            merged(&labelled),
            spelled(&naive(branches, Some(labels), distinct)),
            "labelled δ: {}, labels: {:?}",
            distinct,
            labels
        );
    }
    Ok(())
}

fn schema_of(width: usize) -> Schema {
    Schema::new(
        (0..width)
            .map(|c| ColumnRef::bare(format!("c{c}")))
            .collect(),
    )
}

/// Cuts `rows` (narrowed to `width` columns) into `cuts.len() + 1` branches.
fn split(rows: Vec<Tuple>, width: usize, cuts: &[usize]) -> Vec<Vec<Tuple>> {
    let rows: Vec<Tuple> = rows.into_iter().map(|row| row[..width].to_vec()).collect();
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
    at.sort_unstable();
    at.push(rows.len());
    let mut branches = Vec::new();
    let mut start = 0;
    for end in at {
        branches.push(rows[start..end].to_vec());
        start = end;
    }
    branches
}

/// Encodes each branch the way production does: a columnar executor drains
/// a plan over it (`batch_size` rows per batch) and hands back the batches.
fn encode(
    branches: &[Vec<Tuple>],
    width: usize,
    batch_size: usize,
    distinct: bool,
) -> Vec<Vec<ColumnBatch>> {
    let mut catalog = MemoryCatalog::new();
    for (b, rows) in branches.iter().enumerate() {
        let table = Table::new(schema_of(width), rows.clone()).expect("arity matches");
        catalog.register(format!("b{b}"), table);
    }
    let options = ExecOptions {
        batch_size,
        ..ExecOptions::sequential()
    };
    (0..branches.len())
        .map(|b| {
            let plan = Plan::scan(format!("b{b}"));
            let plan = if distinct { plan.distinct() } else { plan };
            Executor::with_options(&catalog, options.clone())
                .run_undecoded(&plan)
                .expect("scan executes")
                .batches
        })
        .collect()
}

/// The reference: concatenate, label, first-seen dedup by `==` (over the
/// whole union, or within each branch when labelled), `sort()`.
fn naive(branches: &[Vec<Tuple>], labels: Option<&[Value]>, distinct: bool) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = Vec::new();
    for (b, branch) in branches.iter().enumerate() {
        let seen_from = if labels.is_some() { rows.len() } else { 0 };
        for row in branch {
            let mut row = row.clone();
            row.extend(labels.map(|l| l[b].clone()));
            if !(distinct && rows[seen_from..].contains(&row)) {
                rows.push(row);
            }
        }
    }
    rows.sort();
    rows
}

/// `Value`'s `==` coerces (`Int(1) == Float(1.0)`, `-0.0 == 0.0`); the
/// merge must also pick the right *spelling*, so compare `Debug` forms.
fn spelled(rows: &[Tuple]) -> Vec<String> {
    rows.iter().map(|row| format!("{row:?}")).collect()
}

/// The merged rows, decoded, in `spelled` form. Also checks that each
/// distinct string is listed once, in content order.
fn merged(rows: &MergedRows) -> Vec<String> {
    let strings = rows.strings();
    assert!(strings.windows(2).all(|w| w[0] < w[1]), "{strings:?}");
    spelled(rows.to_table().rows())
}

proptest! {
    /// δ on, δ off and labelled with and without δ, over every batch
    /// width: the encoded merge returns the naive reference's rows in the
    /// naive reference's order. Branches deduplicated beforehand merge
    /// like raw ones, and a labelled δ keeps a row once per branch even
    /// where two branches share a label.
    #[test]
    fn encoded_merge_equals_naive_reference(
        rows in proptest::collection::vec(proptest::collection::vec(arb_cell(), 4..5), 0..40),
        width in 1usize..5,
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        batch in 0usize..3,
    ) {
        let branches = split(rows, width, &cuts);
        check_every_mode(&branches, width, [1, 3, 1024][batch])?;
    }

    /// The same over float-free cells with many duplicates, up to five
    /// columns: δ is adjacency in the merge's one sort.
    #[test]
    fn float_free_merge_equals_naive_reference(
        rows in proptest::collection::vec(proptest::collection::vec(arb_plain_cell(), 5..6), 0..60),
        width in 1usize..6,
        cuts in proptest::collection::vec(0usize..1000, 0..6),
        batch in 0usize..3,
    ) {
        let branches = split(rows, width, &cuts);
        check_every_mode(&branches, width, [1, 3, 1024][batch])?;
    }

    /// Up to five columns of many distinct long strings: at five the
    /// dictionary ranks overflow a packed key, and float-free rows sort by
    /// their code slices, δ still dropping adjacent equal rows.
    #[test]
    fn rows_too_wide_for_dictionary_ranks_merge_like_the_reference(
        rows in proptest::collection::vec(proptest::collection::vec(arb_wide_cell(), 5..6), 0..40),
        width in 1usize..6,
        cuts in proptest::collection::vec(0usize..1000, 0..4),
    ) {
        encode_wide_strings();
        let mut branches = split(rows, width, &cuts);
        // Repeat the first branch at the end: every row of it is a
        // duplicate.
        branches.push(branches[0].clone());
        check_every_mode(&branches, width, 3)?;
    }
}

/// Thousands of float-free rows with many duplicates: enough keys that the
/// merge radix-sorts them over several passes instead of comparing them.
#[test]
fn many_rows_radix_sort_like_the_reference() {
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let mut cell = || match next() % 16 {
        0 => Value::Null,
        1 => Value::Bool(next().is_multiple_of(2)),
        2..=5 => Value::Int((next() % 9) as i64 - 4),
        6..=8 => Value::str(POOLED[(next() % 2) as usize]),
        _ => Value::str(format!("r{}", next() % 40)),
    };
    let branches: Vec<Vec<Tuple>> = (0..3)
        .map(|_| (0..700).map(|_| (0..3).map(|_| cell()).collect()).collect())
        .collect();
    for batch_size in [7, 1024] {
        check_every_mode(&branches, 3, batch_size).expect("merge matches the reference");
    }
}

/// A xorshift stream, so the larger fixtures are fixed without a seeded
/// runner.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// `len` rows of `width` cells, each a null, a bool or one of `ints`
/// ints; the first rows cover every int in every column, so each column's
/// codes run to exactly `2 + ints`.
fn coded_rows(len: usize, width: usize, ints: usize, seed: u64) -> Vec<Tuple> {
    let mut next = xorshift(seed);
    (0..len)
        .map(|r| {
            (0..width)
                .map(|_| match (r < ints, next() % (ints as u64 + 3)) {
                    (true, _) => Value::Int(r as i64 - 4),
                    (false, 0) => Value::Null,
                    (false, 1) => Value::Bool(false),
                    (false, 2) => Value::Bool(true),
                    (false, i) => Value::Int(i as i64 - 7),
                })
                .collect()
        })
        .collect()
}

/// A δ merge sorts by one bitmap pass when its key space is at most 4 keys
/// per input row; a bag always radix-sorts. Two columns of 13 ints (codes
/// up to 15, 4 bits each) make an 8-bit key: 256 keys, so 64 rows is
/// exactly at the gate, 63 just sparse and 65 just dense. A labelled merge
/// adds the label's code (and under δ the branch) to the key, and lands on
/// one side or the other.
#[test]
fn every_mode_matches_the_reference_around_the_dense_gate() {
    for len in [16, 63, 64, 65, 200] {
        let rows = coded_rows(len, 2, 13, 0x51_7cc1_b727_220a);
        let branches = split(rows, 2, &[len / 3, len / 2]);
        for batch_size in [5, 1024] {
            check_every_mode(&branches, 2, batch_size).expect("merge matches the reference");
        }
    }
}

/// The same gate with more keys than the comparison sort takes: two
/// columns of 61 ints (codes up to 63, 6 bits each) make 4 096 keys, so
/// 1 024 rows is exactly at δ's gate and the sparse side radix-sorts.
#[test]
fn bag_and_distinct_match_the_reference_around_a_larger_dense_gate() {
    for len in [1_023, 1_024, 1_025] {
        let rows = coded_rows(len, 2, 61, 0x2545_f491_4f6c_dd1d);
        let branches = split(rows, 2, &[len / 4, len / 2]);
        for (mode, distinct) in [(MergeMode::All, false), (MergeMode::Distinct, true)] {
            let merged_rows = merge_branches(schema_of(2), encode(&branches, 2, 256, false), mode)
                .expect("merge succeeds");
            assert_eq!(
                merged(&merged_rows),
                spelled(&naive(&branches, None, distinct)),
                "{len} rows, δ: {distinct}"
            );
        }
    }
}

/// Thousands of rows over a handful of distinct ones — nulls, bools, ints
/// and strings in one column set — where nearly every row is a duplicate,
/// both within a branch and across branches.
#[test]
fn rows_that_are_mostly_duplicates_merge_like_the_reference() {
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let mut cell = || match next() % 6 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 | 3 => Value::Int((next() % 3) as i64),
        _ => Value::str(["x", "y"][(next() % 2) as usize]),
    };
    let branches: Vec<Vec<Tuple>> = (0..3)
        .map(|_| (0..1_500).map(|_| vec![cell(), cell()]).collect())
        .collect();
    for batch_size in [64, 1024] {
        check_every_mode(&branches, 2, batch_size).expect("merge matches the reference");
    }
}

/// Two branches that derive the same rows under one label: a labelled δ
/// keys on the branch, so each row comes out twice, while a plain δ keeps
/// it once.
#[test]
fn a_labelled_distinct_keeps_a_row_per_branch_that_shares_a_label() {
    let rows: Vec<Tuple> = vec![
        vec![Value::Int(2), Value::str("b")],
        vec![Value::Null, Value::Bool(false)],
        vec![Value::Int(2), Value::str("b")],
    ];
    let branches = vec![rows.clone(), rows.clone(), vec![rows[1].clone()]];
    let labels = [Value::str("w1"), Value::str("w1"), Value::str("w2")];
    let labelled = merge_branches(
        schema_of(3),
        encode(&branches, 2, 1024, false),
        MergeMode::Labelled {
            labels: &labels,
            distinct: true,
        },
    )
    .expect("merge succeeds");
    let expected = naive(&branches, Some(&labels), true);
    assert_eq!(expected.len(), 5);
    assert_eq!(merged(&labelled), spelled(&expected));
    check_every_mode(&branches, 2, 1).expect("merge matches the reference");
}

/// A few rows after the dictionary has grown by tens of thousands of
/// strings: the answer's strings are numbered among themselves, so they
/// come out in content order whatever the dictionary holds around them.
#[test]
fn a_small_answer_over_a_large_dictionary_merges_like_the_reference() {
    let tag = unique();
    let text = |i: usize| Value::str(format!("merge-large-{tag}-{i:05}"));
    let grown: Vec<Tuple> = (0..50_000).map(|i| vec![text(i)]).collect();
    encode_rows(&grown, 1);
    let branches = vec![
        vec![
            vec![text(49_999), Value::Int(1)],
            vec![Value::str("b"), Value::Null],
            vec![text(7), text(49_999)],
        ],
        vec![
            vec![text(7), text(49_999)],
            vec![text(0), Value::Bool(true)],
        ],
    ];
    for batch_size in [1, 1024] {
        check_every_mode(&branches, 2, batch_size).expect("merge matches the reference");
    }
}

/// Too many distinct values to pack a row's order codes and index into one
/// `u64` (six columns of ~12 bits each, plus the row index): the merge
/// sorts by comparing code slices instead, into the same order.
#[test]
fn codes_too_wide_to_pack_sort_like_the_reference() {
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    let mut row = || -> Tuple {
        (0..6)
            .map(|c| match next() % 4096 {
                v if c % 2 == 0 => Value::Int(v as i64),
                v => Value::str(format!("s{v}")),
            })
            .collect()
    };
    let first: Vec<Tuple> = (0..3_000).map(|_| row()).collect();
    // Every third row of the second branch respells one of the first's
    // ints as floats: `==` twins whose order codes tie, so row order
    // decides between them.
    let second: Vec<Tuple> = first
        .iter()
        .enumerate()
        .map(|(i, twin)| match i % 3 {
            0 => twin
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Value::Float(*i as f64),
                    other => other.clone(),
                })
                .collect(),
            _ => row(),
        })
        .collect();
    let branches = vec![first, second];
    for (mode, distinct) in [(MergeMode::All, false), (MergeMode::Distinct, true)] {
        let rows = merge_branches(schema_of(6), encode(&branches, 6, 1024, false), mode)
            .expect("merge succeeds");
        assert_eq!(merged(&rows), spelled(&naive(&branches, None, distinct)));
    }
}

/// A batch as wide as the wrong schema is an error, not a panic.
#[test]
fn arity_mismatch_is_an_error() {
    let branches = vec![vec![vec![Value::Int(1), Value::Int(2)]]];
    let err = merge_branches(
        schema_of(3),
        encode(&branches, 2, 1024, false),
        MergeMode::Distinct,
    )
    .unwrap_err();
    assert!(err.contains("arity mismatch"), "{err}");
}

/// The dictionary's convention (`Decoder`'s doc in `columnar.rs`): a thread
/// must not encode while it holds a `Decoder`, because a string the
/// dictionary has never seen needs the write lock of a shard the decoder may
/// read-hold. The merge both encodes (the labels) and decodes (everything),
/// so it must encode first. Here the result's strings touch every shard and
/// every label is new to the dictionary: a merge that encoded a label with
/// its decoder alive would block on itself, and the timeout catches it.
#[test]
fn labels_are_encoded_before_the_decoder_exists() {
    let branches: Vec<Vec<Tuple>> = (0..32)
        .map(|b| {
            (0..16)
                .map(|i| vec![Value::str(format!("shard-spread-{b}-{i}"))])
                .collect()
        })
        .collect();
    let unique = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    let labels: Vec<Value> = (0..branches.len())
        .map(|b| Value::str(format!("never-encoded-{unique}-{b}")))
        .collect();
    let encoded = encode(&branches, 1, 1024, false);
    let (done, merged) = mpsc::channel();
    let merger = std::thread::spawn(move || {
        let table = merge_branches(
            schema_of(2),
            encoded,
            MergeMode::Labelled {
                labels: &labels,
                distinct: false,
            },
        );
        let _ = done.send(table);
    });
    let table = merged
        .recv_timeout(Duration::from_secs(20))
        .expect("merge blocked on (or panicked at) the dictionary: it encoded while decoding")
        .expect("merge succeeds");
    merger.join().expect("merge thread exits cleanly");
    assert_eq!(table.len(), 32 * 16);
    assert!(table.to_table().rows().iter().all(|row| row[1]
        .as_str()
        .is_some_and(|label| label.starts_with("never-encoded-"))));
}

/// A process-unique tag, so a test's strings are new to the dictionary.
fn unique() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos()
}

/// The dictionary ranks its strings once and extends the ranking as it
/// grows. Strings encoded between two merges sort before, between and
/// after the ones the first merge ranked, short and long: a merge that
/// read stale ranks would misplace them (or find them unranked).
#[test]
fn strings_encoded_between_merges_sort_into_place() {
    let tag = unique();
    let known: Vec<Tuple> = (0..6)
        .map(|i| {
            vec![
                Value::str(format!("m{i}")),
                Value::str(format!("m{i}-{tag}-a string past the inline capacity")),
            ]
        })
        .collect();
    let mut branches = vec![known];
    check_every_mode(&branches, 2, 1024).expect("first merge matches the reference");
    for round in 0..3 {
        let fresh: Vec<Tuple> = [
            format!("!{round}"),
            format!("m{round}{round}"),
            format!("~{round}"),
        ]
        .into_iter()
        .map(|short| {
            let long = format!("{short}-{tag}-a string past the inline capacity");
            vec![Value::str(short), Value::str(long)]
        })
        .collect();
        branches.push(fresh);
        check_every_mode(&branches, 2, 1024).expect("merge after growth matches the reference");
    }
}

/// Encodes race merges: while one thread keeps adding strings to the
/// dictionary, another merges — and so extends the content order, which
/// read-locks every shard the encoder is writing to. Neither may block for
/// good (the timeout catches it), and every merge still matches the
/// reference.
#[test]
fn an_encode_racing_a_merge_neither_blocks_nor_misorders() {
    let tag = unique();
    let branches: Vec<Vec<Tuple>> = (0..4)
        .map(|b| {
            (0..64)
                .map(|i| {
                    vec![
                        Value::str(format!("race-{tag}-{}", (b * 7 + i) % 50)),
                        Value::Int(i % 3),
                    ]
                })
                .collect()
        })
        .collect();
    let start = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let encoder = {
        let (start, stop) = (Arc::clone(&start), Arc::clone(&stop));
        std::thread::spawn(move || {
            start.wait();
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let rows: Vec<Tuple> = (0..32)
                    .map(|i| vec![Value::str(format!("racer-{tag}-{round}-{i}"))])
                    .collect();
                encode_rows(&rows, 1);
                round += 1;
            }
        })
    };
    let (done, result) = mpsc::channel();
    let merger = std::thread::spawn(move || {
        start.wait();
        let outcome = (0..40).try_for_each(|_| check_every_mode(&branches, 2, 16));
        let _ = done.send(outcome);
    });
    let outcome = result
        .recv_timeout(Duration::from_secs(60))
        .expect("a merge racing an encode blocked (or panicked)");
    stop.store(true, Ordering::Relaxed);
    merger.join().expect("merge thread exits cleanly");
    encoder.join().expect("encode thread exits cleanly");
    outcome.expect("every racing merge matches the reference");
}
