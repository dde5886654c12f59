//! The byte parsers that face a disk or a socket never panic and never
//! allocate past their caps.
//!
//! * [`ReplicationBatch::decode`] reads what a primary (or anything
//!   listening on its port) sends a replica;
//! * [`MutationOp::decode`] reads every journal payload, from the WAL and
//!   from the replication stream;
//! * [`read_wal`] reads a WAL file after a crash.
//!
//! Each is fed arbitrary bytes, and valid encodings cut short, with one bit
//! flipped, or with garbage appended. Every call must return `Ok` or `Err`,
//! and the largest single allocation it makes must stay within a small
//! multiple of its input: a length or count read from the bytes is held to
//! the bytes that are left (or to `MAX_RECORD_BYTES`, the snapshot cap and
//! the journal cursor's count bound) before anything is allocated for it.
//! A counting allocator in this test binary measures the largest request
//! per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use mdm_core::MutationOp;
use mdm_store::wal::WalWriter;
use mdm_store::{read_wal, FsyncPolicy, ReplicationBatch, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// Wraps [`System`], noting the largest request the current thread makes.
struct LargestAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Runs `f`, returning its value and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// What a parse of `input` bytes may ask for at once: a few times the
/// input (a decoded record list or string vector outgrows its bytes by a
/// constant factor) plus a fixed allowance for paths and messages.
fn budget(input: usize) -> usize {
    8 * input + 4096
}

/// How a valid encoding is damaged before it is parsed.
#[derive(Clone, Debug)]
enum Damage {
    Intact,
    /// Keep this many leading bytes (modulo the length).
    Cut(usize),
    /// Flip bit `.1 % 8` of byte `.0` (modulo the length).
    Flip(usize, u8),
    Append(Vec<u8>),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Intact),
        any::<usize>().prop_map(Damage::Cut),
        (any::<usize>(), any::<u8>()).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        vec(any::<u8>(), 1..40).prop_map(Damage::Append),
    ]
}

impl Damage {
    fn apply(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        match self {
            Damage::Intact => {}
            Damage::Cut(keep) => bytes.truncate(keep % bytes.len().max(1)),
            Damage::Flip(at, bit) => {
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] ^= 1 << (bit % 8);
                }
            }
            Damage::Append(garbage) => bytes.extend_from_slice(garbage),
        }
        bytes
    }
}

const NAME: &str = "[a-zA-Z:/#._]{0,12}";

fn op() -> impl Strategy<Value = MutationOp> {
    prop_oneof![
        NAME.prop_map(|concept| MutationOp::DefineConcept { concept }),
        (NAME, NAME, any::<bool>()).prop_map(|(concept, feature, identifier)| {
            MutationOp::DefineFeature {
                concept,
                feature,
                identifier,
            }
        }),
        (NAME, NAME, any::<u32>(), vec(NAME, 0..4)).prop_map(
            |(source, wrapper, version, attributes)| MutationOp::RegisterWrapper {
                source,
                wrapper,
                version,
                attributes,
            }
        ),
        (
            NAME,
            vec(NAME, 0..3),
            vec(NAME, 0..3),
            vec((NAME, NAME, NAME), 0..3),
            vec((NAME, NAME), 0..3),
        )
            .prop_map(|(wrapper, concepts, features, relations, same_as)| {
                MutationOp::DefineMapping {
                    wrapper,
                    concepts,
                    features,
                    relations,
                    same_as,
                }
            }),
        (any::<bool>(), any::<u64>()).prop_map(|(distinct, max_branches)| {
            MutationOp::SetOptions {
                distinct,
                max_branches,
            }
        }),
    ]
}

/// Journal payloads made of the op encoding's own tokens: a tag, then
/// little-endian `u32` words that read as empty strings, mid-sized counts
/// or arbitrary ones. Random bytes seldom get past an op's leading string
/// lengths; these reach the element counts behind them.
fn op_shaped_bytes() -> impl Strategy<Value = Vec<u8>> {
    let word = prop_oneof![Just(0u32), 1u32..1 << 20, any::<u32>()];
    (1u8..10, vec(word, 0..8)).prop_map(|(tag, words)| {
        let mut bytes = vec![tag];
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes
    })
}

fn records() -> impl Strategy<Value = Vec<WalRecord>> {
    vec(
        (any::<u64>(), vec(any::<u8>(), 0..48))
            .prop_map(|(epoch, payload)| WalRecord { epoch, payload }),
        0..6,
    )
}

fn batch() -> impl Strategy<Value = ReplicationBatch> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), "[ -~]{0,40}"),
        records(),
    )
        .prop_map(
            |(
                (generation, term, term_start_epoch, base_epoch),
                (primary_epoch, start, wal_len),
                (with_snapshot, snapshot),
                records,
            )| ReplicationBatch {
                generation,
                term,
                term_start_epoch,
                base_epoch,
                primary_epoch,
                start,
                wal_len,
                snapshot: with_snapshot.then_some(snapshot),
                records,
            },
        )
}

/// A WAL file path private to the calling test thread.
fn wal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mdm-core-no-panic");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The records `read_wal` recovers from a file holding exactly `bytes`
/// (`None` on an error), and the largest allocation it made.
fn read_wal_bytes(path: &PathBuf, bytes: &[u8]) -> (Option<Vec<WalRecord>>, usize) {
    std::fs::write(path, bytes).unwrap();
    let (contents, largest) = largest_allocation(|| read_wal(path));
    (contents.ok().map(|c| c.records), largest)
}

/// The bytes of a WAL file written at `path` with `records` appended.
fn wal_bytes(path: &PathBuf, records: &[WalRecord]) -> Vec<u8> {
    let mut wal = WalWriter::create(path, 1, 0, FsyncPolicy::Never).unwrap();
    for record in records {
        wal.append(record.epoch, &record.payload).unwrap();
    }
    drop(wal);
    std::fs::read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(bytes in vec(any::<u8>(), 0..512)) {
        let (_, largest) = largest_allocation(|| ReplicationBatch::decode(&bytes));
        prop_assert!(largest <= budget(bytes.len()), "batch: {largest} B");
        let (_, largest) = largest_allocation(|| MutationOp::decode(&bytes));
        prop_assert!(largest <= budget(bytes.len()), "op: {largest} B");
        let path = wal_path("arbitrary");
        let (_, largest) = read_wal_bytes(&path, &bytes);
        prop_assert!(largest <= budget(bytes.len()), "wal: {largest} B");
        // The same bytes behind a valid WAL header are read as records.
        let mut framed = wal_bytes(&path, &[]);
        framed.extend_from_slice(&bytes);
        let (recovered, largest) = read_wal_bytes(&path, &framed);
        prop_assert!(recovered.is_some(), "a valid header with any tail recovers");
        prop_assert!(largest <= budget(framed.len()), "wal records: {largest} B");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn op_shaped_bytes_never_overallocate(bytes in op_shaped_bytes()) {
        let (_, largest) = largest_allocation(|| MutationOp::decode(&bytes));
        prop_assert!(largest <= budget(bytes.len()), "{largest} B for {} B", bytes.len());
    }

    #[test]
    fn a_damaged_batch_is_an_error_not_a_panic(batch in batch(), damage in damage()) {
        let encoded = batch.encode();
        let bytes = damage.apply(encoded.clone());
        let (decoded, largest) = largest_allocation(|| ReplicationBatch::decode(&bytes));
        prop_assert!(largest <= budget(bytes.len()), "{largest} B for {} B", bytes.len());
        if bytes == encoded {
            prop_assert_eq!(decoded.unwrap(), batch);
        } else if bytes.len() != encoded.len() {
            // A cut or an appended tail never decodes: the frame says
            // exactly how long it is.
            prop_assert!(decoded.is_err());
        }
    }

    #[test]
    fn a_damaged_op_is_an_error_not_a_panic(op in op(), damage in damage()) {
        let encoded = op.encode();
        let bytes = damage.apply(encoded.clone());
        let (decoded, largest) = largest_allocation(|| MutationOp::decode(&bytes));
        prop_assert!(largest <= budget(bytes.len()), "{largest} B for {} B", bytes.len());
        if bytes == encoded {
            prop_assert_eq!(decoded.unwrap(), op);
        } else if bytes.len() != encoded.len() {
            prop_assert!(decoded.is_err());
        }
    }

    #[test]
    fn a_damaged_wal_recovers_a_prefix_of_its_records(
        records in records(),
        damage in damage(),
    ) {
        let path = wal_path("damaged");
        let bytes = damage.apply(wal_bytes(&path, &records));
        let (recovered, largest) = read_wal_bytes(&path, &bytes);
        prop_assert!(largest <= budget(bytes.len()), "{largest} B for {} B", bytes.len());
        // Recovery never invents a record: what it keeps is a prefix of
        // what was appended (a damaged header is an error instead).
        if let Some(recovered) = recovered {
            prop_assert!(recovered.len() <= records.len());
            prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
            if matches!(damage, Damage::Intact | Damage::Append(_)) {
                prop_assert_eq!(recovered.len(), records.len());
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
