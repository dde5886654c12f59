//! The data plane: fixed-width term encoding and vectorized kernels.
//!
//! The executor runs every plan here. Every cell is a fixed-width 16-byte
//! [`TermId`] (a tag word plus an inline payload, with inline and long
//! strings mapped through a process-wide dictionary), operators exchange
//! [`ColumnBatch`]es of shared [`TypedColumn`]s, and the hot kernels —
//! column-equality filter, hash-join build/probe, DISTINCT, projection —
//! run over raw id arrays instead of re-hashing enum [`Value`] cells and
//! cloning tuples. No kernel evaluates an expression or can fail on a
//! row: σ compares two term columns and π reorders columns, both resolved
//! when the plan is built. Terms decode back into `Value`s only at the
//! edge, a `Table` built from batches. A served UCQ answer never becomes
//! `Value`s at all:
//! [`merge_branches`] unions, deduplicates and sorts the branches' terms
//! in one sort by the dictionary's content order and hands back
//! [`MergedRows`] — sorted term rows plus the answer's distinct strings,
//! read from the dictionary once each.
//!
//! Encoding is exact, not lossy: ints keep their i64 bits, floats their
//! f64 bits (NaN payloads and -0.0 included), and strings their dictionary
//! id, so the coercing `Value` semantics (`Int(1) == Float(1.0)`,
//! `NaN != NaN` under `=` but `NaN ≤ NaN` under `total_cmp`) are
//! re-implemented over terms rather than approximated.
//!
//! Join and δ tables are keyed by `key_hash`es — already mixed — and
//! hashed once more by `KeyState`, a per-process keyed multiply, not
//! SipHash. A single-key hash join does not build a table at all: it
//! probes the chain index its build column owns ([`TypedColumn`] fills it
//! once), so a wrapper's resident release is indexed once for its
//! lifetime, not once per branch per query. Only multi-key joins (and
//! joins over gathered, per-query columns) still build per execution.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use crate::executor::ExecError;
use crate::intern::Sym;
use crate::metrics;
use crate::pool::Pool;
use crate::schema::Schema;
use crate::value::{cmp_int_float, Tuple, TypedText, Value};

mod merge;

pub use merge::{merge_branches, Cell, MergeMode, MergedRows};

const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_FLOAT: u64 = 3;
const TAG_STR: u64 = 4;

/// A fixed-width (16-byte) encoded `Value`: a type tag plus an inline
/// payload — the i64/f64/bool bits, or a term-dictionary id for strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TermId {
    tag: u64,
    bits: u64,
}

impl TermId {
    /// The encoded NULL.
    pub const NULL: TermId = TermId {
        tag: TAG_NULL,
        bits: 0,
    };

    const TRUE: TermId = TermId {
        tag: TAG_BOOL,
        bits: 1,
    };
    const FALSE: TermId = TermId {
        tag: TAG_BOOL,
        bits: 0,
    };

    fn int(i: i64) -> TermId {
        TermId {
            tag: TAG_INT,
            bits: i as u64,
        }
    }

    fn float(f: f64) -> TermId {
        TermId {
            tag: TAG_FLOAT,
            bits: f.to_bits(),
        }
    }

    /// The string `text`'s term, interning it on first sight. Takes the
    /// dictionary write path for unseen strings.
    fn string(text: &str) -> TermId {
        TermId {
            tag: TAG_STR,
            bits: dict().id_of(text),
        }
    }

    fn bool(b: bool) -> TermId {
        if b {
            TermId::TRUE
        } else {
            TermId::FALSE
        }
    }

    /// True when this term encodes NULL.
    pub fn is_null(self) -> bool {
        self.tag == TAG_NULL
    }

    /// Numeric view matching `Value::as_f64` (ints widen, bools/strings
    /// and NULL are non-numeric).
    fn as_f64(self) -> Option<f64> {
        match self.tag {
            TAG_INT => Some((self.bits as i64) as f64),
            TAG_FLOAT => Some(f64::from_bits(self.bits)),
            _ => None,
        }
    }

    /// Cross-type rank mirroring `Value::type_rank`.
    fn type_rank(self) -> u8 {
        match self.tag {
            TAG_NULL => 0,
            TAG_BOOL => 1,
            TAG_INT | TAG_FLOAT => 2,
            _ => 3,
        }
    }
}

// Hashes the exact term, for tables keyed on terms rather than on the
// coercing `term_eq`. One `u64` write, because `KeyState` keeps only the
// last: the tag rides in the payload's high bits, and the table's `Eq`
// separates the rare terms that share a word.
impl Hash for TermId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.bits ^ self.tag.rotate_right(3));
    }
}

/// Equality between terms, mirroring `Value`'s coercing `PartialEq`:
/// exact for same-type ints/bools/strings (dictionary ids are unique per
/// content), IEEE `==` for floats and mixed numerics, never across
/// non-numeric types.
pub(crate) fn term_eq(a: TermId, b: TermId) -> bool {
    match (a.tag, b.tag) {
        (TAG_NULL, TAG_NULL) => true,
        (TAG_BOOL, TAG_BOOL) | (TAG_INT, TAG_INT) | (TAG_STR, TAG_STR) => a.bits == b.bits,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A hash consistent with [`term_eq`]: terms that compare equal hash
/// equal (ints hash through their f64 widening so `Int(1)` and
/// `Float(1.0)` collide on purpose, -0.0 normalises to 0.0).
pub(crate) fn term_norm(t: TermId) -> u64 {
    let (class, bits): (u64, u64) = match t.tag {
        TAG_NULL => (0, 0),
        TAG_BOOL => (1, t.bits),
        TAG_INT => (2, {
            let f = (t.bits as i64) as f64;
            (if f == 0.0 { 0.0f64 } else { f }).to_bits()
        }),
        TAG_FLOAT => (2, {
            let f = f64::from_bits(t.bits);
            (if f == 0.0 { 0.0f64 } else { f }).to_bits()
        }),
        _ => (3, t.bits),
    };
    splitmix64(bits ^ class.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// FNV-style combine of a multi-column key's term hashes.
pub(crate) fn key_hash(terms: impl IntoIterator<Item = TermId>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in terms {
        h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ term_norm(t);
    }
    h
}

/// The hasher of every `u64`-keyed table in this module (join chains, δ's
/// seen set) and of the merge's per-column number tables. Join and δ keys
/// are [`key_hash`]es, already mixed, so SipHash's rounds buy nothing; the
/// merge's are raw term words, which the folded multiply spreads (see
/// `mul`). What must survive is the *keying*: where a key lands depends on
/// seeds drawn once per process from [`RandomState`], so a source cannot
/// pick values that pile into one bucket. Every table verifies candidates
/// by equality, so the hasher decides speed only.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyState {
    seed: u64,
    /// An odd 32-bit word shifted into the high half: the folded
    /// product's low word is then `(key ^ seed)`'s high word times an odd
    /// number (one-to-one onto the bucket bits) plus the top of its low
    /// word's product (Fibonacci-style), so both halves of a key reach
    /// the bucket index.
    mul: u64,
}

impl Default for KeyState {
    fn default() -> Self {
        static SEEDS: OnceLock<KeyState> = OnceLock::new();
        *SEEDS.get_or_init(|| {
            let random = RandomState::new();
            KeyState {
                seed: random.hash_one(0u64),
                mul: (random.hash_one(1u64) | 1) << 32,
            }
        })
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            state: *self,
            key: 0,
        }
    }
}

/// [`KeyState`]'s hasher: a folded 64×64→128 multiply of `key ^ seed`.
pub(crate) struct KeyHasher {
    state: KeyState,
    key: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.key = self.key.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.key = key;
    }

    fn finish(&self) -> u64 {
        let product = u128::from(self.key ^ self.state.seed) * u128::from(self.state.mul);
        product as u64 ^ (product >> 64) as u64
    }
}

/// A `u64`-keyed chain-head table under [`KeyState`].
type Heads = HashMap<u64, u32, KeyState>;

/// A chained hash index over rows `0..len` of a column set: `heads` maps a
/// key's [`key_hash`] to its first row, `next` links each row to the next
/// with the same hash (`u32::MAX` terminated) — parallel arrays instead of
/// a per-key `Vec` per bucket, so building allocates O(1) times regardless
/// of key distribution. Rows with a NULL key are left out (NULL never
/// joins).
#[derive(Debug)]
struct ChainIndex {
    heads: Heads,
    next: Vec<u32>,
}

impl ChainIndex {
    /// Indexes `len` rows keyed on `keys` (one term slice per key column).
    fn build(keys: &[&[TermId]], len: usize) -> ChainIndex {
        metrics::record_index_build();
        let mut heads = Heads::with_capacity_and_hasher(len, KeyState::default());
        let mut next = vec![u32::MAX; len];
        // Insert in reverse build order: chains grow at the head, so a
        // forward walk then replays build order — matches come out in
        // build order, as a row-at-a-time nested loop emits them.
        for i in (0..len).rev() {
            if keys.iter().any(|k| k[i].is_null()) {
                continue;
            }
            let h = key_hash(keys.iter().map(|k| k[i]));
            next[i] = heads.insert(h, i as u32).unwrap_or(u32::MAX);
        }
        ChainIndex { heads, next }
    }

    /// The first row whose key hashes to `hash`, or `u32::MAX`.
    fn head(&self, hash: u64) -> u32 {
        self.heads.get(&hash).copied().unwrap_or(u32::MAX)
    }

    /// What the index holds: a `(hash, head)` slot per unit of map
    /// capacity plus one `next` link per row.
    fn bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.next.len() * std::mem::size_of::<u32>()
    }
}

/// Dictionary shard count: enough that parallel encodes rarely contend on
/// one lock.
const DICT_SHARDS: usize = 16;

struct DictShard {
    map: HashMap<Sym, u32>,
    entries: Vec<Sym>,
}

/// The process-wide string→id dictionary backing [`TermId`] string terms.
///
/// It is the process's only string table. Ids are stable for the process
/// lifetime. Each entry keeps one `Sym`, because a decode hands out a clone
/// of it: a long string's clones share its `Arc<str>`, an inline one costs
/// its 24 bytes.
///
/// It also keeps its strings' content order ([`ContentOrder`]), which the
/// UCQ merge sorts by. The order is extended lazily: a merge that finds
/// entries the order does not cover yet sorts only those and merges them
/// into the ranked list, O(D + k log k) for k new strings over D; a merge
/// after no growth reads one atomic and takes the order's read lock.
///
/// Lock order: the order lock comes before any shard lock. Extending the
/// order read-locks every shard while it holds the order's write lock, so a
/// thread holding shard read guards — a live [`Decoder`] — must not take
/// the order lock.
struct TermDict {
    shards: [RwLock<DictShard>; DICT_SHARDS],
    /// Entries inserted so far, bumped (`Release`) under the inserting
    /// shard's write lock after the push: an `Acquire` load that counts an
    /// entry sees it in its shard.
    entries: AtomicU64,
    order: RwLock<ContentOrder>,
}

/// The term dictionary's strings in `str::cmp` order: a dense rank per id,
/// and the id per rank.
#[derive(Default)]
struct ContentOrder {
    /// The number of entries ranked: `TermDict::entries` when the order
    /// was last extended.
    covered: u64,
    /// Each entry's rank, per shard, indexed like the shard's entries.
    ranks: [Vec<u32>; DICT_SHARDS],
    /// Ids in rank order.
    ids: Vec<u64>,
}

impl ContentOrder {
    /// The rank of string id `id`; the id must be covered.
    fn rank(&self, id: u64) -> u32 {
        self.ranks[(id >> 32) as usize][(id & 0xffff_ffff) as usize]
    }

    /// The string id at `rank`.
    fn id(&self, rank: u32) -> u64 {
        self.ids[rank as usize]
    }

    /// Number of ranked strings.
    fn len(&self) -> usize {
        self.ids.len()
    }
}

static DICT_BYTES: AtomicU64 = AtomicU64::new(0);

fn dict() -> &'static TermDict {
    static DICT: OnceLock<TermDict> = OnceLock::new();
    DICT.get_or_init(TermDict::new)
}

fn dict_shard_of(text: &str) -> usize {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    (hasher.finish() as usize) % DICT_SHARDS
}

impl TermDict {
    fn new() -> TermDict {
        TermDict {
            shards: std::array::from_fn(|_| {
                RwLock::new(DictShard {
                    map: HashMap::new(),
                    entries: Vec::new(),
                })
            }),
            entries: AtomicU64::new(0),
            order: RwLock::new(ContentOrder::default()),
        }
    }

    /// The id for `text`, inserting on first sight. Read-locks on the hit
    /// path; upgrades to a write lock only for new strings, the only ones
    /// that become a `Sym`.
    fn id_of(&self, text: &str) -> u64 {
        let shard_idx = dict_shard_of(text);
        let shard = &self.shards[shard_idx];
        {
            let guard = shard.read().expect("term dict poisoned");
            if let Some(&idx) = guard.map.get(text) {
                return ((shard_idx as u64) << 32) | idx as u64;
            }
        }
        let mut guard = shard.write().expect("term dict poisoned");
        if let Some(&idx) = guard.map.get(text) {
            return ((shard_idx as u64) << 32) | idx as u64;
        }
        let idx = guard.entries.len() as u32;
        let sym = Sym::new(text);
        guard.entries.push(sym.clone());
        guard.map.insert(sym.clone(), idx);
        self.entries.fetch_add(1, AtomicOrdering::Release);
        DICT_BYTES.fetch_add(sym.len() as u64, AtomicOrdering::Relaxed);
        ((shard_idx as u64) << 32) | idx as u64
    }

    /// The content order, covering every string encoded before the call.
    /// Takes the order lock: the calling thread must not hold a
    /// [`Decoder`].
    fn content_order(&self) -> RwLockReadGuard<'_, ContentOrder> {
        let wanted = self.entries.load(AtomicOrdering::Acquire);
        {
            let order = self.order.read().expect("content order poisoned");
            if order.covered >= wanted {
                return order;
            }
        }
        {
            let mut order = self.order.write().expect("content order poisoned");
            if order.covered < wanted {
                self.extend_order(&mut order);
            }
        }
        self.order.read().expect("content order poisoned")
    }

    /// Ranks the entries `order` does not cover: sorts those k strings and
    /// merges them into the D ranked ones, then renumbers every rank.
    fn extend_order(&self, order: &mut ContentOrder) {
        let shards: Vec<RwLockReadGuard<'_, DictShard>> = self
            .shards
            .iter()
            .map(|shard| shard.read().expect("term dict poisoned"))
            .collect();
        // Read under every shard's read lock: the counter moves only under a
        // shard's write lock, so it counts exactly the entries ranked here.
        let covered = self.entries.load(AtomicOrdering::Acquire);
        let mut fresh: Vec<(&str, u64)> = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let first = order.ranks[s].len();
            fresh.extend(
                shard.entries[first..]
                    .iter()
                    .zip(first..)
                    .map(|(sym, idx)| (sym.as_str(), (s as u64) << 32 | idx as u64)),
            );
        }
        fresh.sort_unstable_by(|a, b| a.0.cmp(b.0));

        let mut ids = Vec::with_capacity(order.ids.len() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        for &id in &order.ids {
            let text = shards[(id >> 32) as usize].entries[(id & 0xffff_ffff) as usize].as_str();
            while let Some((_, new)) = fresh.next_if(|&(new, _)| new < text) {
                ids.push(new);
            }
            ids.push(id);
        }
        ids.extend(fresh.map(|(_, id)| id));

        for (ranks, shard) in order.ranks.iter_mut().zip(&shards) {
            ranks.resize(shard.entries.len(), 0);
        }
        for (rank, &id) in ids.iter().enumerate() {
            order.ranks[(id >> 32) as usize][(id & 0xffff_ffff) as usize] = rank as u32;
        }
        order.ids = ids;
        order.covered = covered;
    }
}

/// Gauges for the term dictionary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DictStats {
    /// Distinct strings mapped to ids.
    pub entries: u64,
    /// Total bytes of string content held by the dictionary.
    pub bytes: u64,
}

/// A snapshot of the term dictionary's size.
pub fn dict_stats() -> DictStats {
    DictStats {
        entries: dict().entries.load(AtomicOrdering::Relaxed),
        bytes: DICT_BYTES.load(AtomicOrdering::Relaxed),
    }
}

/// Encodes one value. Takes the dictionary write path for unseen strings —
/// never call while a [`Decoder`] is alive on the same thread.
pub(crate) fn encode_value(v: &Value) -> TermId {
    match v {
        Value::Null => TermId::NULL,
        Value::Bool(b) => TermId::bool(*b),
        Value::Int(i) => TermId::int(*i),
        Value::Float(f) => TermId::float(*f),
        Value::Str(s) => TermId::string(s),
    }
}

/// Encodes `rows` column-major into `width` shared columns — how a
/// [`RelationProvider`](crate::RelationProvider) that keeps its relation
/// resident as terms (a wrapper release) builds what its `columns()` hands
/// out. Ids come from the process-wide dictionary and stay valid for the
/// process lifetime, so the columns may outlive the query that made them.
pub fn encode_rows(rows: &[Tuple], width: usize) -> Vec<Arc<TypedColumn>> {
    let mut columns: Vec<Vec<TermId>> =
        (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
    for row in rows {
        for (c, v) in row.iter().enumerate() {
            columns[c].push(encode_value(v));
        }
    }
    metrics::record_encodes((rows.len() * width) as u64);
    columns.into_iter().map(TypedColumn::shared).collect()
}

/// Term columns built cell by cell from flat text, typed by
/// [`Value::from_text`]'s rules: how a wrapper streams its release into
/// resident columns without a `Value`, a tuple or a `String` per cell. A
/// string is interned straight from its slice (only one the dictionary
/// lacks becomes a `Sym`). Like [`encode_rows`], it must not run on a
/// thread that is decoding terms (whose dictionary read guards an unseen
/// string's insert would wait on).
///
/// Each column grows in fixed chunks and [`TermColumnsBuilder::finish`]
/// copies it once into an exact-size column, so a build holds at most
/// about twice the finished columns — no doubling `Vec` reallocating a
/// release-sized buffer.
pub struct TermColumnsBuilder {
    columns: Vec<Chunks>,
}

/// Terms per chunk: 64 KiB.
const CHUNK_TERMS: usize = 4096;

/// One column under construction: full chunks plus the one filling.
#[derive(Default)]
struct Chunks {
    full: Vec<Vec<TermId>>,
    filling: Vec<TermId>,
}

impl Chunks {
    fn push(&mut self, id: TermId) {
        if self.filling.len() == CHUNK_TERMS {
            let full = std::mem::replace(&mut self.filling, Vec::with_capacity(CHUNK_TERMS));
            self.full.push(full);
        }
        self.filling.push(id);
    }

    fn len(&self) -> usize {
        self.full.len() * CHUNK_TERMS + self.filling.len()
    }

    /// The terms in one exact-size `Vec`, each chunk freed once copied.
    fn finish(self) -> Vec<TermId> {
        let mut ids = Vec::with_capacity(self.len());
        for chunk in self.full {
            ids.extend_from_slice(&chunk);
        }
        ids.extend_from_slice(&self.filling);
        ids
    }
}

impl TermColumnsBuilder {
    /// A builder of `width` empty columns.
    pub fn new(width: usize) -> Self {
        TermColumnsBuilder {
            columns: (0..width).map(|_| Chunks::default()).collect(),
        }
    }

    /// Types `text` as [`Value::from_text`] would and appends its term to
    /// column `column`.
    pub fn push(&mut self, column: usize, text: &str) {
        let id = match TypedText::of(text) {
            TypedText::Null => TermId::NULL,
            TypedText::Bool(b) => TermId::bool(b),
            TypedText::Int(i) => TermId::int(i),
            TypedText::Float(f) => TermId::float(f),
            TypedText::Str(s) => TermId::string(s),
        };
        self.columns[column].push(id);
    }

    /// The shared columns, counted as encoded terms (rows × width, as
    /// [`encode_rows`] counts them).
    pub fn finish(self) -> Vec<Arc<TypedColumn>> {
        let terms: usize = self.columns.iter().map(Chunks::len).sum();
        metrics::record_encodes(terms as u64);
        self.columns
            .into_iter()
            .map(|column| TypedColumn::shared(column.finish()))
            .collect()
    }
}

/// Decodes terms back into `Value`s, caching one read guard per touched
/// dictionary shard so a batch decode locks each shard at most once.
///
/// While a `Decoder` is alive its thread MUST NOT encode (a new string
/// would need a write lock on a shard this decoder may already read-hold),
/// nor take the dictionary's content order (whose extension read-locks
/// every shard after the order lock; see [`TermDict`]).
pub(crate) struct Decoder<'d> {
    guards: [Option<RwLockReadGuard<'d, DictShard>>; DICT_SHARDS],
    decoded: u64,
}

impl<'d> Decoder<'d> {
    pub(crate) fn new() -> Decoder<'d> {
        Decoder {
            guards: std::array::from_fn(|_| None),
            decoded: 0,
        }
    }

    fn sym(&mut self, id: u64) -> Sym {
        let shard = (id >> 32) as usize;
        let idx = (id & 0xffff_ffff) as usize;
        let d = dict();
        let guard = self.guards[shard]
            .get_or_insert_with(|| d.shards[shard].read().expect("term dict poisoned"));
        guard.entries[idx].clone()
    }

    /// Decodes one term to its `Value`.
    pub(crate) fn value(&mut self, t: TermId) -> Value {
        self.decoded += 1;
        match t.tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(t.bits != 0),
            TAG_INT => Value::Int(t.bits as i64),
            TAG_FLOAT => Value::Float(f64::from_bits(t.bits)),
            _ => Value::Str(self.sym(t.bits)),
        }
    }

    /// Decodes the selected rows of `batch` into tuples appended to `out`.
    pub(crate) fn rows_into(&mut self, batch: &ColumnBatch, out: &mut Vec<Tuple>) {
        for i in 0..batch.len() {
            let row = batch.row_id(i);
            out.push(
                batch
                    .columns
                    .iter()
                    .map(|c| self.value(c.ids[row as usize]))
                    .collect(),
            );
        }
    }
}

/// Ordering between terms mirroring `Value::cmp` (exact int compare,
/// `total_cmp` between floats, the exact [`cmp_int_float`] across the two,
/// type rank otherwise) — except between two strings, which order by
/// dictionary id, not content. [`merge_branches`] ranks only numbers with
/// it: its strings come ranked by the dictionary.
fn term_cmp(a: TermId, b: TermId) -> std::cmp::Ordering {
    let float = |t: TermId| f64::from_bits(t.bits);
    match (a.tag, b.tag) {
        (TAG_NULL, TAG_NULL) => std::cmp::Ordering::Equal,
        (TAG_BOOL, TAG_BOOL) => (a.bits != 0).cmp(&(b.bits != 0)),
        (TAG_INT, TAG_INT) => (a.bits as i64).cmp(&(b.bits as i64)),
        (TAG_FLOAT, TAG_FLOAT) => float(a).total_cmp(&float(b)),
        (TAG_INT, TAG_FLOAT) => cmp_int_float(a.bits as i64, float(b)),
        (TAG_FLOAT, TAG_INT) => cmp_int_float(b.bits as i64, float(a)).reverse(),
        (TAG_STR, TAG_STR) => a.bits.cmp(&b.bits),
        _ => a.type_rank().cmp(&b.type_rank()),
    }
}

impl Drop for Decoder<'_> {
    fn drop(&mut self) {
        if self.decoded > 0 {
            metrics::record_decodes(self.decoded);
        }
    }
}

/// A shared, immutable column of fixed-width terms, plus — once a
/// single-key hash join has built on it — that join's chain index over its
/// own ids. The index lives exactly as long as the column: on a wrapper's
/// resident column that is the release, on a gathered one the query.
#[derive(Debug)]
pub struct TypedColumn {
    ids: Vec<TermId>,
    index: OnceLock<Arc<ChainIndex>>,
}

impl TypedColumn {
    fn shared(ids: Vec<TermId>) -> Arc<TypedColumn> {
        Arc::new(TypedColumn {
            ids,
            index: OnceLock::new(),
        })
    }

    /// Physical length (ignoring any selection).
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The physical terms, in row order.
    pub(crate) fn terms(&self) -> &[TermId] {
        &self.ids
    }

    /// This column's single-key join index, built on first use. Joins
    /// racing for it serialise on the cell; the first builds, the rest
    /// share.
    fn index(&self) -> Arc<ChainIndex> {
        Arc::clone(
            self.index
                .get_or_init(|| Arc::new(ChainIndex::build(&[&self.ids], self.ids.len()))),
        )
    }

    /// Bytes of the join index this column holds, 0 until a single-key
    /// hash join built on it.
    pub fn index_bytes(&self) -> usize {
        self.index.get().map_or(0, |index| index.bytes())
    }
}

/// Which physical rows of a column set are live, in output order.
#[derive(Clone, Debug)]
pub enum Sel {
    /// Every physical row.
    All,
    /// A contiguous half-open range of physical rows.
    Range(u32, u32),
    /// An explicit physical row-id list.
    Rows(Vec<u32>),
}

/// A batch of shared columns plus a selection over their physical rows.
/// Cloning shares the columns; kernels narrow `sel` instead of copying.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    pub(crate) columns: Vec<Arc<TypedColumn>>,
    pub(crate) sel: Sel,
}

impl ColumnBatch {
    /// A batch selecting every row of `columns`.
    pub(crate) fn all(columns: Vec<Arc<TypedColumn>>) -> ColumnBatch {
        ColumnBatch {
            columns,
            sel: Sel::All,
        }
    }

    /// Same columns, different selection; a full-width `Range` normalises
    /// to `All`.
    pub(crate) fn with_sel(&self, sel: Sel) -> ColumnBatch {
        let sel = match sel {
            Sel::Range(0, end) if end as usize == self.physical_len() => Sel::All,
            other => other,
        };
        ColumnBatch {
            columns: self.columns.clone(),
            sel,
        }
    }

    fn physical_len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Live rows in this batch.
    pub(crate) fn len(&self) -> usize {
        match &self.sel {
            Sel::All => self.physical_len(),
            Sel::Range(s, e) => (e - s) as usize,
            Sel::Rows(ids) => ids.len(),
        }
    }

    /// The physical row id of the `i`-th live row.
    pub(crate) fn row_id(&self, i: usize) -> u32 {
        match &self.sel {
            Sel::All => i as u32,
            Sel::Range(s, _) => s + i as u32,
            Sel::Rows(ids) => ids[i],
        }
    }

    /// The term in column `c` of the `i`-th live row.
    pub(crate) fn term(&self, c: usize, i: usize) -> TermId {
        self.columns[c].ids[self.row_id(i) as usize]
    }
}

/// A columnar physical operator: a pull-based iterator of column batches.
pub trait ColOperator {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// The next batch of at most `max` live rows, or `None` when drained.
    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>>;
}

/// Drains `op` into a single column set (the hash-join build side). A
/// single full batch — a whole scan, or a pure π of one — passes through
/// zero-copy, so a join index built on it lands on the provider's resident
/// column; anything else gathers into fresh dense columns.
pub(crate) fn drain_columns(
    op: &mut dyn ColOperator,
) -> Result<(Vec<Arc<TypedColumn>>, usize), ExecError> {
    let width = op.schema().len();
    let mut batches: Vec<ColumnBatch> = Vec::new();
    while let Some(block) = op.next_cols(usize::MAX) {
        let block = block?;
        if block.len() > 0 {
            batches.push(block);
        }
    }
    match batches.len() {
        0 => Ok((
            (0..width)
                .map(|_| TypedColumn::shared(Vec::new()))
                .collect(),
            0,
        )),
        1 if matches!(batches[0].sel, Sel::All) => {
            let len = batches[0].len();
            Ok((batches.remove(0).columns, len))
        }
        _ => {
            let total: usize = batches.iter().map(ColumnBatch::len).sum();
            let mut columns: Vec<Vec<TermId>> =
                (0..width).map(|_| Vec::with_capacity(total)).collect();
            for batch in &batches {
                for i in 0..batch.len() {
                    let row = batch.row_id(i) as usize;
                    for (c, col) in columns.iter_mut().enumerate() {
                        col.push(batch.columns[c].ids[row]);
                    }
                }
            }
            Ok((
                columns.into_iter().map(TypedColumn::shared).collect(),
                total,
            ))
        }
    }
}

/// Columnar σ — keeps the rows whose two columns hold equal terms: both
/// non-NULL and `term_eq` (`Value`'s coercing equality: `Int(1) =
/// Float(1.0)`, `-0.0 = 0.0`, NaN equal to nothing), emitting a narrowed
/// selection. The columns are resolved when the plan is built.
pub struct ColFilter {
    input: Box<dyn ColOperator>,
    left: usize,
    right: usize,
}

impl ColFilter {
    pub(crate) fn new(input: Box<dyn ColOperator>, left: usize, right: usize) -> Self {
        ColFilter { input, left, right }
    }

    /// The surviving physical row ids of `batch`, in order.
    fn select(&self, batch: &ColumnBatch) -> Vec<u32> {
        let (left, right) = (
            batch.columns[self.left].terms(),
            batch.columns[self.right].terms(),
        );
        (0..batch.len())
            .map(|i| batch.row_id(i))
            .filter(|&row| {
                let (a, b) = (left[row as usize], right[row as usize]);
                !a.is_null() && !b.is_null() && term_eq(a, b)
            })
            .collect()
    }
}

impl ColOperator for ColFilter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        loop {
            let batch = match self.input.next_cols(max)? {
                Ok(b) => b,
                Err(e) => return Some(Err(e)),
            };
            if batch.len() == 0 {
                continue;
            }
            metrics::record_kernel();
            let sel = self.select(&batch);
            if !sel.is_empty() {
                return Some(Ok(batch.with_sel(Sel::Rows(sel))));
            }
        }
    }
}

/// Columnar scan over a pre-encoded column set: whatever the provider's
/// `columns()` handed out, shared by every branch of the query through the
/// scan cache.
pub struct ColScan {
    schema: Schema,
    columns: Arc<Vec<Arc<TypedColumn>>>,
    len: usize,
    cursor: usize,
}

impl ColScan {
    pub(crate) fn new(schema: Schema, columns: Arc<Vec<Arc<TypedColumn>>>, len: usize) -> Self {
        ColScan {
            schema,
            columns,
            len,
            cursor: 0,
        }
    }
}

impl ColOperator for ColScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        if self.cursor >= self.len {
            return None;
        }
        let end = self.cursor.saturating_add(max.max(1)).min(self.len);
        let batch = ColumnBatch::all(self.columns.as_ref().clone())
            .with_sel(Sel::Range(self.cursor as u32, end as u32));
        self.cursor = end;
        Some(Ok(batch))
    }
}

/// Columnar π — reorders the input's shared `Arc` columns (zero copy,
/// selection preserved). The columns are resolved when the plan is built.
pub struct ColProject {
    input: Box<dyn ColOperator>,
    columns: Vec<usize>,
    schema: Schema,
}

impl ColProject {
    pub(crate) fn new(input: Box<dyn ColOperator>, columns: Vec<usize>, schema: Schema) -> Self {
        ColProject {
            input,
            columns,
            schema,
        }
    }

    fn project(&self, batch: ColumnBatch) -> ColumnBatch {
        ColumnBatch {
            columns: self
                .columns
                .iter()
                .map(|&c| batch.columns[c].clone())
                .collect(),
            sel: batch.sel,
        }
    }
}

impl ColOperator for ColProject {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        let batch = match self.input.next_cols(max)? {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        metrics::record_kernel();
        Some(Ok(self.project(batch)))
    }
}

/// Probe batches below this width are not worth fanning out.
const PARALLEL_PROBE_MIN: usize = 512;

/// The build side of a columnar hash join: its term columns plus a
/// [`ChainIndex`] over them. A single-key join takes the index its key
/// column owns ([`TypedColumn::index`]) — built once per column, so once
/// per wrapper release when the build side is a whole resident scan or a
/// pure π of one. A multi-key join builds a private index per join, as
/// does any join over gathered columns (fresh per query either way).
struct BuildTable {
    columns: Vec<Arc<TypedColumn>>,
    keys: Vec<usize>,
    chains: Arc<ChainIndex>,
}

impl BuildTable {
    fn new(columns: Vec<Arc<TypedColumn>>, len: usize, keys: Vec<usize>) -> BuildTable {
        let chains = match keys[..] {
            [key] => columns[key].index(),
            _ => {
                let terms: Vec<&[TermId]> = keys.iter().map(|&k| columns[k].terms()).collect();
                Arc::new(ChainIndex::build(&terms, len))
            }
        };
        BuildTable {
            columns,
            keys,
            chains,
        }
    }
}

/// Probes live rows `[start, end)` of `batch`, appending
/// `(probe_physical_row, build_row)` pairs in probe order.
fn probe_range_cols(
    table: &BuildTable,
    left_keys: &[usize],
    batch: &ColumnBatch,
    hashes: &[u64],
    range: std::ops::Range<usize>,
    out: &mut Vec<(u32, u32)>,
) {
    for (i, hash) in hashes.iter().enumerate().take(range.end).skip(range.start) {
        let probe_row = batch.row_id(i) as usize;
        if left_keys
            .iter()
            .any(|&k| batch.columns[k].ids[probe_row].is_null())
        {
            continue;
        }
        let mut j = table.chains.head(*hash);
        while j != u32::MAX {
            let ok = left_keys.iter().zip(&table.keys).all(|(&l, &r)| {
                term_eq(
                    batch.columns[l].ids[probe_row],
                    table.columns[r].ids[j as usize],
                )
            });
            if ok {
                out.push((probe_row as u32, j));
            }
            j = table.chains.next[j as usize];
        }
    }
}

/// Columnar ⋈ — hash equi-join over raw term ids. Builds on the right,
/// probes with the left; NULL keys never match. Wide probe batches are
/// split into contiguous chunks probed on pool workers and re-concatenated
/// in chunk order, so the output is identical to a sequential probe.
pub struct ColHashJoin {
    left: Box<dyn ColOperator>,
    schema: Schema,
    left_keys: Vec<usize>,
    table: BuildTable,
    pool: Option<Arc<Pool>>,
}

impl ColHashJoin {
    pub(crate) fn new(
        left: Box<dyn ColOperator>,
        mut right: Box<dyn ColOperator>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> Result<Self, ExecError> {
        let schema = left.schema().concat(right.schema());
        let (columns, len) = drain_columns(right.as_mut())?;
        Ok(ColHashJoin {
            left,
            schema,
            left_keys,
            table: BuildTable::new(columns, len, right_keys),
            pool: None,
        })
    }

    /// Enables partitioned parallel probing of wide batches on `pool`.
    pub(crate) fn with_pool(mut self, pool: Option<Arc<Pool>>) -> Self {
        self.pool = pool.filter(|p| p.size() > 1);
        self
    }

    fn probe_batch(&self, batch: &ColumnBatch) -> Vec<(u32, u32)> {
        let n = batch.len();
        // Memoise probe-key hashes once per batch for both probe paths.
        let hashes: Vec<u64> = (0..n)
            .map(|i| key_hash(self.left_keys.iter().map(|&k| batch.term(k, i))))
            .collect();
        if let Some(pool) = &self.pool {
            if n >= PARALLEL_PROBE_MIN {
                let chunk = n.div_ceil(pool.size());
                let ranges: Vec<(usize, usize)> = (0..n)
                    .step_by(chunk.max(1))
                    .map(|s| (s, (s + chunk).min(n)))
                    .collect();
                let (table, keys, hashes) = (&self.table, &self.left_keys, &hashes);
                let probed = pool.run(ranges.len(), |i| {
                    let (start, end) = ranges[i];
                    let mut part = Vec::new();
                    probe_range_cols(table, keys, batch, hashes, start..end, &mut part);
                    part
                });
                let mut out = Vec::with_capacity(probed.iter().map(Vec::len).sum());
                for part in probed {
                    out.extend(part);
                }
                return out;
            }
        }
        let mut out = Vec::new();
        probe_range_cols(&self.table, &self.left_keys, batch, &hashes, 0..n, &mut out);
        out
    }

    /// Gathers matched pairs into dense output columns: the left side from
    /// the probe batch, the right side from the build table.
    fn gather(&self, batch: &ColumnBatch, pairs: &[(u32, u32)], out: &mut [Vec<TermId>]) {
        let (left, right) = out.split_at_mut(self.left.schema().len());
        for (col, source) in left.iter_mut().zip(&batch.columns) {
            col.extend(pairs.iter().map(|&(p, _)| source.ids[p as usize]));
        }
        for (col, source) in right.iter_mut().zip(&self.table.columns) {
            col.extend(pairs.iter().map(|&(_, b)| source.ids[b as usize]));
        }
    }
}

impl ColOperator for ColHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        let width = self.schema.len();
        let mut out: Vec<Vec<TermId>> = (0..width).map(|_| Vec::new()).collect();
        let mut produced = 0usize;
        while produced < max.max(1) {
            let batch = match self.left.next_cols(max) {
                None => break,
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(b)) => b,
            };
            if batch.len() == 0 {
                continue;
            }
            metrics::record_kernel();
            let pairs = self.probe_batch(&batch);
            produced += pairs.len();
            self.gather(&batch, &pairs, &mut out);
        }
        if produced == 0 {
            return None;
        }
        Some(Ok(ColumnBatch::all(
            out.into_iter().map(TypedColumn::shared).collect(),
        )))
    }
}

/// Columnar δ — duplicate elimination without materialising tuples: the
/// *seen* set is a chained hash index over retained column sets, and
/// emitted batches are selections over the input's shared columns.
pub struct ColDistinct {
    input: Box<dyn ColOperator>,
    /// Column sets that contributed at least one first-seen row.
    kept: Vec<Vec<Arc<TypedColumn>>>,
    /// (kept set index, physical row) per distinct row, chain-linked.
    entries: Vec<(u32, u32)>,
    next: Vec<u32>,
    heads: Heads,
}

impl ColDistinct {
    pub(crate) fn new(input: Box<dyn ColOperator>) -> Self {
        ColDistinct {
            input,
            kept: Vec::new(),
            entries: Vec::new(),
            next: Vec::new(),
            heads: Heads::default(),
        }
    }

    fn entry_matches(&self, entry: usize, batch: &ColumnBatch, row: usize) -> bool {
        let (set, erow) = self.entries[entry];
        let set = &self.kept[set as usize];
        batch
            .columns
            .iter()
            .zip(set)
            .all(|(a, b)| term_eq(a.ids[row], b.ids[erow as usize]))
    }
}

impl ColOperator for ColDistinct {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_cols(&mut self, max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        loop {
            let batch = match self.input.next_cols(max)? {
                Ok(b) => b,
                Err(e) => return Some(Err(e)),
            };
            if batch.len() == 0 {
                continue;
            }
            metrics::record_kernel();
            let mut sel = Vec::with_capacity(batch.len());
            let mut kept_idx: Option<u32> = None;
            for i in 0..batch.len() {
                let row = batch.row_id(i) as usize;
                let h = key_hash(batch.columns.iter().map(|c| c.ids[row]));
                let mut found = false;
                let mut j = self.heads.get(&h).copied().unwrap_or(u32::MAX);
                while j != u32::MAX {
                    if self.entry_matches(j as usize, &batch, row) {
                        found = true;
                        break;
                    }
                    j = self.next[j as usize];
                }
                if found {
                    continue;
                }
                let set = *kept_idx.get_or_insert_with(|| {
                    self.kept.push(batch.columns.clone());
                    (self.kept.len() - 1) as u32
                });
                let id = self.entries.len() as u32;
                self.entries.push((set, row as u32));
                self.next.push(self.heads.insert(h, id).unwrap_or(u32::MAX));
                sel.push(row as u32);
            }
            if !sel.is_empty() {
                return Some(Ok(batch.with_sel(Sel::Rows(sel))));
            }
        }
    }
}

/// Decodes a run of batches into row-major tuples (the render-time exit
/// from the columnar plane, called by `Table::from_column_batches`).
pub(crate) fn decode_batches(batches: &[ColumnBatch]) -> Vec<Tuple> {
    let total = batches.iter().map(ColumnBatch::len).sum();
    let mut rows = Vec::with_capacity(total);
    let mut dec = Decoder::new();
    for batch in batches {
        dec.rows_into(batch, &mut rows);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let t = encode_value(&v);
        let mut dec = Decoder::new();
        assert_eq!(dec.value(t), v);
    }

    #[test]
    fn encode_decode_round_trips_every_shape() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Float(2.5));
        roundtrip(Value::Float(-0.0));
        roundtrip(Value::str("inline"));
        roundtrip(Value::str(
            "a pooled string comfortably longer than the inline capacity",
        ));
        // NaN can't go through assert_eq (NaN != NaN); check bits instead.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let t = encode_value(&Value::Float(nan));
        let mut dec = Decoder::new();
        match dec.value(t) {
            Value::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn term_eq_mirrors_value_eq() {
        let cases = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(1),
            Value::Int(0),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::str("a"),
            Value::str("b"),
            Value::str("a string comfortably longer than the inline capacity"),
        ];
        for a in &cases {
            for b in &cases {
                let (ta, tb) = (encode_value(a), encode_value(b));
                assert_eq!(term_eq(ta, tb), a == b, "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(term_norm(ta), term_norm(tb), "{a:?} vs {b:?} hash");
                }
            }
        }
    }

    #[test]
    fn term_cmp_mirrors_value_cmp() {
        let cases = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(7),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Float((1i64 << 53) as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::str("alpha"),
            Value::str("a string comfortably longer than the inline capacity"),
        ];
        for a in &cases {
            for b in &cases {
                if matches!((a, b), (Value::Str(_), Value::Str(_))) {
                    continue; // two strings order by id, not content
                }
                let (ta, tb) = (encode_value(a), encode_value(b));
                assert_eq!(term_cmp(ta, tb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// The keyed hasher must carry a key's high word into the bucket bits.
    /// Keys `k << 32` differ only there: a pass-through hasher maps all
    /// 65 536 of them to low-16-bit value 0.
    #[test]
    fn key_hasher_spreads_high_bits_into_the_bucket_bits() {
        let state = KeyState::default();
        let mut seen = vec![false; 1 << 16];
        for k in 0..1u64 << 16 {
            seen[(state.hash_one(k << 32) & 0xffff) as usize] = true;
        }
        let distinct = seen.iter().filter(|&&s| s).count();
        assert!(distinct >= 60_000, "{distinct} distinct low-16-bit hashes");
    }

    fn batch_of(rows: Vec<Tuple>, width: usize) -> ColumnBatch {
        ColumnBatch::all(encode_rows(&rows, width))
    }

    #[test]
    fn filter_kernel_matches_row_semantics() {
        let schema = Schema::bare(["a", "b"]);
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Null, Value::Null],
            vec![Value::Float(f64::NAN), Value::Float(f64::NAN)],
            vec![Value::Float(-0.0), Value::Int(0)],
            vec![Value::str("x"), Value::str("x")],
            vec![Value::str("x"), Value::str("y")],
            vec![Value::Int(3), Value::Null],
        ];
        let mut scan = ColScan::new(schema.clone(), Arc::new(batch_of(rows, 2).columns), 7);
        let mut filter = ColFilter::new(Box::new(drain_into_scan(&mut scan, schema)), 0, 1);
        let out = drain_all(&mut filter);
        // Int(1) = Float(1.0) and -0.0 = 0 under coercing equality; NULL
        // equals nothing, NaN not even itself.
        assert_eq!(
            out,
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Float(-0.0), Value::Int(0)],
                vec![Value::str("x"), Value::str("x")],
            ]
        );
    }

    /// Rebuilds a ColScan from an existing one (test helper keeping batch
    /// plumbing honest by round-tripping through drain_columns).
    fn drain_into_scan(op: &mut dyn ColOperator, schema: Schema) -> ColScan {
        let (cols, len) = drain_columns(op).unwrap();
        ColScan::new(schema, Arc::new(cols), len)
    }

    fn drain_all(op: &mut dyn ColOperator) -> Vec<Tuple> {
        let mut batches = Vec::new();
        while let Some(b) = op.next_cols(3) {
            batches.push(b.unwrap());
        }
        decode_batches(&batches)
    }

    #[test]
    fn join_kernel_matches_row_plane_order_and_null_keys() {
        let left_schema = Schema::qualified("l", ["k", "v"]);
        let right_schema = Schema::qualified("r", ["k", "w"]);
        let left_rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Null, Value::str("n")],
            vec![Value::Float(2.0), Value::str("b")],
            vec![Value::Int(9), Value::str("m")],
        ];
        let right_rows: Vec<Tuple> = vec![
            vec![Value::Int(1), Value::str("r1")],
            vec![Value::Int(2), Value::str("r2")],
            vec![Value::Float(1.0), Value::str("r3")],
            vec![Value::Null, Value::str("rn")],
        ];
        let left = ColScan::new(
            left_schema,
            Arc::new(batch_of(left_rows.clone(), 2).columns),
            4,
        );
        let right = ColScan::new(
            right_schema,
            Arc::new(batch_of(right_rows.clone(), 2).columns),
            4,
        );
        let mut join = ColHashJoin::new(Box::new(left), Box::new(right), vec![0], vec![0]).unwrap();
        let got = drain_all(&mut join);

        // Row-at-a-time order: each probe row meets the build rows in
        // build order, under coercing equality; NULL keys never match.
        let mut want = Vec::new();
        for l in &left_rows {
            for r in right_rows
                .iter()
                .filter(|r| !l[0].is_null() && r[0] == l[0])
            {
                want.push([l.clone(), r.clone()].concat());
            }
        }
        assert_eq!(want.len(), 3);
        assert_eq!(got, want);
    }

    /// The content order ranks each string once: a second read after no
    /// growth re-ranks nothing, and strings added later land before,
    /// between and after the ranked ones.
    #[test]
    fn content_order_ranks_only_strings_it_has_not_ranked() {
        let dict = TermDict::new();
        let encode = |texts: &[&str]| {
            for text in texts {
                dict.id_of(&Sym::new(text));
            }
        };
        // The ranked texts, and where the rank list lives: an extension
        // builds a new one.
        let ranked = |dict: &TermDict| -> (Vec<String>, *const u64) {
            let order = dict.content_order();
            let texts = (0..order.len() as u32)
                .map(|rank| {
                    let id = order.id(rank);
                    assert_eq!(order.rank(id), rank);
                    let shard = dict.shards[(id >> 32) as usize].read().unwrap();
                    shard.entries[(id & 0xffff_ffff) as usize].to_string()
                })
                .collect();
            (texts, order.ids.as_ptr())
        };
        let long = "m: a string comfortably longer than the inline capacity";
        encode(&["m", "c", "x", long]);
        let (texts, list) = ranked(&dict);
        assert_eq!(texts, ["c", "m", long, "x"]);
        assert_eq!(ranked(&dict).1, list, "no growth, nothing re-ranked");
        encode(&["a", "n", "zz", "m"]);
        let (texts, grown) = ranked(&dict);
        assert_eq!(texts, ["a", "c", "m", long, "n", "x", "zz"]);
        assert_ne!(grown, list, "growth extends the order");
        assert_eq!(dict.entries.load(AtomicOrdering::Relaxed), 7);
    }

    #[test]
    fn distinct_kernel_keeps_first_occurrence() {
        let schema = Schema::bare(["a"]);
        let rows: Vec<Tuple> = vec![
            vec![Value::Int(1)],
            vec![Value::Float(1.0)],
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Null],
        ];
        let scan = ColScan::new(schema, Arc::new(batch_of(rows, 1).columns), 6);
        let mut distinct = ColDistinct::new(Box::new(scan));
        let got = drain_all(&mut distinct);
        // Int(1) == Float(1.0) under coercing equality; NULL == NULL.
        assert_eq!(
            got,
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Null]]
        );
    }
}
