//! The UCQ merge over term ids, and the answer it hands back.
//!
//! [`merge_branches`] unions a rewriting's branch results while they are
//! still term batches, removes duplicates and sorts the survivors under
//! `Value::cmp`'s order, all in one sort. It never builds a `Table`. The
//! caller gets [`MergedRows`]: sorted row-major terms plus the answer's
//! distinct strings, each string once. The server prints that straight
//! into a response body; the CLI and the oracles call
//! [`MergedRows::to_table`].
//!
//! The sort compares integers only. Each cell gets an *order code*: null
//! 0, false 1, true 2, then its column's distinct numbers densely ranked
//! under `term_cmp`, then strings at their rank in the term dictionary's
//! content order, which the dictionary keeps across queries (so a warm
//! merge hashes no string and sorts no string). A row's codes compare as
//! its terms do. Without floats, equal codes are exactly `==` terms, so a
//! row's codes *are* the row: the merge sorts the rows' code tuples alone,
//! δ drops a tuple equal to its predecessor, and the answer is decoded
//! from the tuples that survive — an int from its column's sorted numbers,
//! a string from its rank. Under a labelled δ each row's branch rides below
//! its codes, so a row several branches derive survives once per branch.
//! A string's code counts every string the dictionary ranks below it, so
//! the key space grows with the dictionary, not only with the input. Under
//! δ, when that space is at most [`DENSE`] times the input rows, δ and the
//! sort are one pass over a bitmap; otherwise, and always for a bag, an LSD
//! radix sort.
//!
//! IEEE `==` is not an order (`-0.0 == 0.0`, `NaN != NaN`, ints against
//! floats beyond 2^53), and `1` and `1.0` share a code, so an input with a
//! float cell takes the one other path: the [`ColDistinct`] kernel runs δ,
//! each row's position rides below its codes so that ties keep input order
//! (the stable sort's), and the survivors are read back through their
//! batches.

use std::collections::HashMap;

use super::{
    dict, encode_value, term_cmp, ColDistinct, ColOperator, ColumnBatch, ContentOrder, Decoder,
    KeyState, Sel, TermId, TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_NULL, TAG_STR,
};
use crate::executor::ExecError;
use crate::intern::Sym;
use crate::metrics;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Replays drained batches as an operator: the input of the float case's
/// δ.
struct Replay {
    schema: Schema,
    batches: std::vec::IntoIter<ColumnBatch>,
}

impl ColOperator for Replay {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_cols(&mut self, _max: usize) -> Option<Result<ColumnBatch, ExecError>> {
        self.batches.next().map(Ok)
    }
}

/// What [`merge_branches`] does with a row that several branches derive.
#[derive(Clone, Copy, Debug)]
pub enum MergeMode<'a> {
    /// Bag union: every row of every branch.
    All,
    /// δ over the union: of rows that are `==`, the first in branch order
    /// survives (so the earliest branch's spelling of a number wins).
    Distinct,
    /// One label per branch appended to each of its rows as a trailing
    /// column. Provenance is per derivation, so a row several branches
    /// derive appears once per branch. With `distinct`, δ runs within each
    /// branch: keyed on the branch, not on its label, which two branches
    /// can share.
    Labelled { labels: &'a [Value], distinct: bool },
}

/// One cell of a [`MergedRows`] row.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// An index into [`MergedRows::strings`].
    Str(usize),
}

impl Cell {
    fn of(term: TermId) -> Cell {
        match term.tag {
            TAG_NULL => Cell::Null,
            TAG_BOOL => Cell::Bool(term.bits != 0),
            TAG_INT => Cell::Int(term.bits as i64),
            TAG_FLOAT => Cell::Float(f64::from_bits(term.bits)),
            _ => Cell::Str(term.bits as usize),
        }
    }
}

/// A merged answer in term form: the schema, the rows in their final order
/// as row-major terms, and the answer's distinct strings sorted by content.
/// A string cell's payload is its index into [`MergedRows::strings`], not a
/// dictionary id, so reading the answer never touches the term dictionary.
#[derive(Clone, Debug)]
pub struct MergedRows {
    schema: Schema,
    len: usize,
    cells: Vec<TermId>,
    strings: Vec<Sym>,
}

impl MergedRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The answer's distinct strings, each once, in content order; a
    /// [`Cell::Str`] indexes this list.
    pub fn strings(&self) -> &[Sym] {
        &self.strings
    }

    /// The rows in order, each as its cells left to right.
    pub fn rows(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = Cell> + '_> + '_ {
        let width = self.schema.len();
        (0..self.len).map(move |r| {
            self.cells[r * width..][..width]
                .iter()
                .map(|&term| Cell::of(term))
        })
    }

    /// The rows decoded into a [`Table`], for the CLI, the tests and
    /// anything else that wants `Value`s.
    pub fn to_table(&self) -> Table {
        let rows = self
            .rows()
            .map(|row| {
                row.map(|cell| match cell {
                    Cell::Null => Value::Null,
                    Cell::Bool(b) => Value::Bool(b),
                    Cell::Int(i) => Value::Int(i),
                    Cell::Float(f) => Value::Float(f),
                    Cell::Str(s) => Value::Str(self.strings[s].clone()),
                })
                .collect()
            })
            .collect();
        Table::new(self.schema.clone(), rows).expect("every row is as wide as the schema")
    }
}

/// The encoded UCQ merge: ∪ → δ → sort, all over term ids.
///
/// `branches` are branch results in rewriting order, each a run of batches
/// as wide as `schema` (less the label column under
/// [`MergeMode::Labelled`]). Whether a branch was deduplicated before does
/// not change the result. Every input row is sorted once by its cells'
/// order codes, and δ drops a row whose codes equal its predecessor's
/// (under a labelled δ, only within one branch). That keeps what a
/// first-seen δ over the branches' concatenation keeps — exactly what the
/// reference path (`mdm_core::query::answer_walk_with`) keeps — in the
/// stable sort's order under `Value::cmp`. An input with a float cell is
/// deduplicated by the [`ColDistinct`] kernel before the sort instead (one
/// per branch under a labelled δ). The merge counts as one kernel
/// invocation; every result cell counts as one decode (`schema.len()` per
/// result row, none per input row): this is where the answer leaves the
/// dictionary's ids.
pub fn merge_branches(
    schema: Schema,
    branches: Vec<Vec<ColumnBatch>>,
    mode: MergeMode<'_>,
) -> Result<MergedRows, String> {
    // Labels are encoded here, before the content order is read and before
    // the `Decoder` below exists.
    let labels: Vec<TermId> = match mode {
        MergeMode::Labelled { labels, .. } if labels.len() != branches.len() => {
            return Err(format!(
                "{} provenance labels for {} branches",
                labels.len(),
                branches.len()
            ));
        }
        MergeMode::Labelled { labels, .. } => labels.iter().map(encode_value).collect(),
        MergeMode::All | MergeMode::Distinct => Vec::new(),
    };
    let out_width = schema.len();
    let width = out_width.saturating_sub(usize::from(!labels.is_empty()));
    if let Some(batch) = branches.iter().flatten().find(|b| b.columns.len() != width) {
        return Err(format!(
            "union arity mismatch: a branch batch has {} columns, schema {schema} needs {width}",
            batch.columns.len()
        ));
    }
    let distinct = match mode {
        MergeMode::All => false,
        MergeMode::Distinct => true,
        MergeMode::Labelled { distinct, .. } => distinct,
    };
    let per_branch = matches!(mode, MergeMode::Labelled { .. });
    metrics::record_kernel();

    let order = dict().content_order();
    let mut input = Input::new(branches, labels);
    let coders: Vec<Coder> = (0..out_width)
        .map(|c| Coder::new(&input, c, &order))
        .collect();
    let (len, mut cells) = if coders.iter().any(|coder| coder.floats) {
        if distinct {
            let unlabelled = Schema::new(schema.columns()[..width].to_vec());
            input.deduplicate(&unlabelled, per_branch)?;
        }
        let sorted = Sorted::new(&input, &coders, &order, Tail::Position, false);
        let len = sorted.len();
        (len, input.read(sorted.tails(), len, out_width, &order))
    } else {
        // Rows that share a label but not a branch are two derivations.
        let tail = if distinct && per_branch {
            Tail::Branch
        } else {
            Tail::None
        };
        let sorted = Sorted::new(&input, &coders, &order, tail, distinct);
        (sorted.len(), sorted.decode(&coders))
    };
    drop(input);
    let strings = number_strings(&mut cells, &order);
    metrics::record_decodes((len * out_width) as u64);
    Ok(MergedRows {
        schema,
        len,
        cells,
        strings,
    })
}

/// The merge's input rows: every branch's batches in rewriting order, each
/// with its branch. A row's *position* is its index in that order.
struct Input {
    batches: Vec<(ColumnBatch, usize)>,
    /// The label term per branch, empty when unlabelled.
    labels: Vec<TermId>,
}

impl Input {
    fn new(branches: Vec<Vec<ColumnBatch>>, labels: Vec<TermId>) -> Input {
        let batches = branches
            .into_iter()
            .enumerate()
            .flat_map(|(branch, batches)| batches.into_iter().map(move |batch| (batch, branch)))
            .filter(|(batch, _)| batch.len() > 0)
            .collect();
        Input { batches, labels }
    }

    fn len(&self) -> usize {
        self.batches.iter().map(|(batch, _)| batch.len()).sum()
    }

    /// Calls `f` with column `c`'s terms in position order; the column past
    /// the branches' width is each row's label. The selection is matched
    /// once per batch, so each batch is one plain loop.
    fn for_each(&self, c: usize, mut f: impl FnMut(TermId)) {
        for (batch, branch) in &self.batches {
            let Some(column) = batch.columns.get(c) else {
                let label = self.labels[*branch];
                (0..batch.len()).for_each(|_| f(label));
                continue;
            };
            match &batch.sel {
                Sel::All => column.ids.iter().for_each(|&term| f(term)),
                Sel::Range(start, end) => column.ids[*start as usize..*end as usize]
                    .iter()
                    .for_each(|&term| f(term)),
                Sel::Rows(rows) => rows.iter().for_each(|&row| f(column.ids[row as usize])),
            }
        }
    }

    /// Each row's tail code in position order: its position under
    /// [`Tail::Position`], else its branch.
    fn tails(&self, tail: Tail) -> impl Iterator<Item = u32> + '_ {
        let mut start = 0u32;
        self.batches.iter().flat_map(move |(batch, branch)| {
            let first = start;
            start += batch.len() as u32;
            (first..start).map(move |pos| match tail {
                Tail::Position => pos,
                Tail::Branch | Tail::None => *branch as u32,
            })
        })
    }

    /// The `len` rows at `positions`, in that order, row-major, `width`
    /// cells a row; a string cell's payload is its content rank.
    fn read(
        &self,
        positions: impl Iterator<Item = u32>,
        len: usize,
        width: usize,
        order: &ContentOrder,
    ) -> Vec<TermId> {
        let mut row_of = vec![u32::MAX; self.len()];
        for (row, pos) in positions.enumerate() {
            row_of[pos as usize] = row as u32;
        }
        let mut cells = vec![TermId::NULL; len * width];
        for c in 0..width {
            let mut rows = row_of.iter();
            self.for_each(c, |term| {
                let row = *rows.next().expect("one row slot per input row");
                if row != u32::MAX {
                    cells[row as usize * width + c] = match term.tag {
                        TAG_STR => TermId {
                            tag: TAG_STR,
                            bits: u64::from(order.rank(term.bits)),
                        },
                        _ => term,
                    };
                }
            });
        }
        cells
    }

    /// Runs the [`ColDistinct`] kernel over the whole input, or over each
    /// branch's rows when `per_branch`; the survivors keep their order.
    fn deduplicate(&mut self, schema: &Schema, per_branch: bool) -> Result<(), String> {
        let mut runs: Vec<(usize, Vec<ColumnBatch>)> = Vec::new();
        for (batch, branch) in std::mem::take(&mut self.batches) {
            match runs.last_mut() {
                Some((run, batches)) if *run == branch || !per_branch => batches.push(batch),
                _ => runs.push((branch, vec![batch])),
            }
        }
        for (branch, batches) in runs {
            let mut delta = ColDistinct::new(Box::new(Replay {
                schema: schema.clone(),
                batches: batches.into_iter(),
            }));
            while let Some(batch) = delta.next_cols(usize::MAX) {
                self.batches.push((batch.map_err(|e| e.message)?, branch));
            }
        }
        Ok(())
    }
}

fn bits_of(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Bits a position among `len` rows takes.
fn index_bits(len: usize) -> u32 {
    bits_of(len.saturating_sub(1) as u64)
}

/// How one column's terms become order codes, and codes terms again.
struct Coder {
    /// Each distinct number of the column (exact terms, so `Int(1)` and
    /// `Float(1.0)` are two keys) to its code; numbers that tie under
    /// `term_cmp` share one.
    codes: HashMap<TermId, u32, KeyState>,
    /// The column's distinct numbers, sorted under `term_cmp`. Without
    /// floats no two tie, so the number at code `k` is `numbers[k - 3]`.
    numbers: Vec<TermId>,
    /// The code of the first string: a string codes at this plus its rank.
    strings: u32,
    /// An upper bound on the column's codes.
    top: u32,
    /// Whether the column holds a float.
    floats: bool,
}

impl Coder {
    /// The coder of `input`'s column `c`.
    fn new(input: &Input, c: usize, order: &ContentOrder) -> Coder {
        let mut codes: HashMap<TermId, u32, KeyState> = HashMap::default();
        let mut numbers: Vec<TermId> = Vec::new();
        let (mut texts, mut floats) = (false, false);
        input.for_each(c, |term| match term.tag {
            TAG_INT | TAG_FLOAT => {
                floats |= term.tag == TAG_FLOAT;
                codes.entry(term).or_insert_with(|| {
                    numbers.push(term);
                    0
                });
            }
            TAG_STR => texts = true,
            _ => {}
        });
        // Rank the distinct numbers densely under `term_cmp`, after the
        // three null and bool codes.
        numbers.sort_unstable_by(|&a, &b| term_cmp(a, b));
        let mut code = 2;
        for (k, &term) in numbers.iter().enumerate() {
            if k == 0 || term_cmp(numbers[k - 1], term).is_ne() {
                code += 1;
            }
            codes.insert(term, code);
        }
        let strings = code + 1;
        Coder {
            codes,
            numbers,
            strings,
            top: if texts {
                strings + order.len().saturating_sub(1) as u32
            } else {
                code
            },
            floats,
        }
    }

    fn bits(&self) -> u32 {
        bits_of(u64::from(self.top))
    }

    fn code(&self, term: TermId, order: &ContentOrder) -> u32 {
        match term.tag {
            TAG_NULL => 0,
            TAG_BOOL => 1 + term.bits as u32,
            TAG_STR => self.strings + order.rank(term.bits),
            _ => self.codes[&term],
        }
    }

    /// The term at `code` in a float-free column; a string comes back with
    /// its content rank as payload.
    fn term(&self, code: u32) -> TermId {
        match code {
            0 => TermId::NULL,
            1 | 2 => TermId::bool(code == 2),
            _ if code < self.strings => self.numbers[code as usize - 3],
            _ => TermId {
                tag: TAG_STR,
                bits: u64::from(code - self.strings),
            },
        }
    }
}

/// What rides below a row's codes in its sort key.
#[derive(Clone, Copy, PartialEq)]
enum Tail {
    None,
    /// The row's branch: a labelled δ keeps one row per branch.
    Branch,
    /// The row's position: ties keep input order, and the survivors can be
    /// read back through their batches.
    Position,
}

/// The most key space, as a multiple of the input rows, that a δ merge
/// sorts by counting: a bitmap of it, so at most `DENSE / 8` bytes per
/// input row.
const DENSE: usize = 4;

/// The input's sort keys, sorted: each row's codes, first column most
/// significant, then its tail code unless the tail is [`Tail::None`]. Keys
/// are not distinct; under δ a key equal to its predecessor is dropped.
enum Sorted {
    /// When every code's bits and the tail's fit in 64, one `u64` per key.
    Packed {
        keys: Vec<u64>,
        /// Per column, then the tail: the code's shift and its mask.
        fields: Vec<(u32, u64)>,
    },
    /// Otherwise `stride` codes per input row in `codes`, and the rows
    /// sorted by comparing those slices.
    Slices {
        codes: Vec<u32>,
        stride: usize,
        rows: Vec<u32>,
    },
}

impl Sorted {
    fn new(
        input: &Input,
        coders: &[Coder],
        order: &ContentOrder,
        tail: Tail,
        dedup: bool,
    ) -> Sorted {
        let len = input.len();
        let tail_bits = match tail {
            Tail::None => 0,
            Tail::Branch => index_bits(input.labels.len()),
            Tail::Position => index_bits(len),
        };
        let mut widths: Vec<u32> = coders.iter().map(Coder::bits).collect();
        if tail != Tail::None {
            widths.push(tail_bits);
        }
        let bits: u32 = widths.iter().sum();
        if bits <= u64::BITS {
            let mut keys = vec![0u64; len];
            for (c, coder) in coders.iter().enumerate() {
                let (bits, mut keys) = (widths[c], keys.iter_mut());
                input.for_each(c, |term| {
                    let key = keys.next().expect("one key per input row");
                    *key = *key << bits | u64::from(coder.code(term, order));
                });
            }
            if tail != Tail::None {
                for (key, code) in keys.iter_mut().zip(input.tails(tail)) {
                    *key = *key << tail_bits | u64::from(code);
                }
            }
            // Rows come in position order, so the tail bits ascend already.
            sort_keys(&mut keys, tail_bits, bits, dedup);
            let mut shift = bits;
            let fields = widths
                .iter()
                .map(|&bits| {
                    shift -= bits;
                    (shift, (1u64 << bits) - 1)
                })
                .collect();
            Sorted::Packed { keys, fields }
        } else {
            let stride = widths.len();
            let mut codes = vec![0u32; len * stride];
            for (c, coder) in coders.iter().enumerate() {
                let mut cells = codes.iter_mut().skip(c).step_by(stride);
                input.for_each(c, |term| {
                    *cells.next().expect("one code per input cell") = coder.code(term, order);
                });
            }
            if tail != Tail::None {
                let tails = codes.iter_mut().skip(stride - 1).step_by(stride);
                for (cell, code) in tails.zip(input.tails(tail)) {
                    *cell = code;
                }
            }
            let row = |r: u32| &codes[r as usize * stride..][..stride];
            let mut rows: Vec<u32> = (0..len as u32).collect();
            rows.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            if dedup {
                rows.dedup_by(|&mut a, &mut b| row(a) == row(b));
            }
            Sorted::Slices {
                codes,
                stride,
                rows,
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Sorted::Packed { keys, .. } => keys.len(),
            Sorted::Slices { rows, .. } => rows.len(),
        }
    }

    /// Each key's tail code, in key order.
    fn tails(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(move |r| match self {
            Sorted::Packed { keys, fields } => {
                let (shift, mask) = fields[fields.len() - 1];
                (keys[r] >> shift & mask) as u32
            }
            Sorted::Slices {
                codes,
                stride,
                rows,
            } => codes[rows[r] as usize * stride + stride - 1],
        })
    }

    /// The answer's cells, row-major, decoded from the keys of float-free
    /// columns; a string cell's payload is its content rank.
    fn decode(&self, coders: &[Coder]) -> Vec<TermId> {
        let mut cells = Vec::with_capacity(self.len() * coders.len());
        match self {
            Sorted::Packed { keys, fields } => {
                for &key in keys {
                    cells.extend(
                        coders.iter().zip(fields).map(|(coder, &(shift, mask))| {
                            coder.term((key >> shift & mask) as u32)
                        }),
                    );
                }
            }
            Sorted::Slices {
                codes,
                stride,
                rows,
            } => {
                for &row in rows {
                    let codes = &codes[row as usize * stride..];
                    cells.extend(
                        coders
                            .iter()
                            .zip(codes)
                            .map(|(coder, &code)| coder.term(code)),
                    );
                }
            }
        }
        cells
    }
}

/// Sorts `keys` — ascending in their bits below `low` already — by all
/// their `bits` bits, and drops each key equal to its predecessor when
/// `dedup`. Under δ a key space of at most [`DENSE`] times the number of
/// keys is one pass over a bitmap; anything else is [`radix_sort`].
fn sort_keys(keys: &mut Vec<u64>, low: u32, bits: u32, dedup: bool) {
    if !dedup {
        radix_sort(keys, low, bits - low);
        return;
    }
    let space = 1usize.checked_shl(bits).unwrap_or(usize::MAX);
    if space > DENSE.saturating_mul(keys.len()) {
        radix_sort(keys, low, bits - low);
        keys.dedup();
    } else {
        let mut seen = vec![0u64; space.div_ceil(64)];
        for &key in keys.iter() {
            seen[(key >> 6) as usize] |= 1 << (key & 63);
        }
        keys.clear();
        for (word, mut set) in (0u64..).zip(seen) {
            while set != 0 {
                keys.push(word << 6 | u64::from(set.trailing_zeros()));
                set &= set - 1;
            }
        }
    }
    // The answer is decoded beside the keys: hold only the survivors.
    keys.shrink_to_fit();
}

/// Points each string cell of the answer, whose payload is its content
/// rank, at its index among the answer's distinct strings, and returns
/// those strings in content order, each decoded once. When the cells'
/// ranks span at most [`DENSE`] ranks per string cell, a bitmap over that
/// span numbers them: a string's index is the count of set bits below its
/// rank. Otherwise the string cells sort once by (rank, cell), so a run of
/// one rank is one string. Either way the work follows the answer's size,
/// not the dictionary's.
fn number_strings(cells: &mut [TermId], order: &ContentOrder) -> Vec<Sym> {
    let (mut low, mut high, mut count) = (u64::MAX, 0, 0);
    for cell in cells.iter().filter(|cell| cell.tag == TAG_STR) {
        (low, high, count) = (low.min(cell.bits), high.max(cell.bits), count + 1);
    }
    let mut dec = Decoder::new();
    let mut strings: Vec<Sym> = Vec::new();
    if count == 0 {
        return strings;
    }
    let span = (high - low) as usize + 1;
    if span <= DENSE * count {
        let mut seen = vec![0u64; span.div_ceil(64)];
        for cell in cells.iter().filter(|cell| cell.tag == TAG_STR) {
            let at = cell.bits - low;
            seen[(at >> 6) as usize] |= 1 << (at & 63);
        }
        // The strings before each word of the bitmap.
        let mut before = Vec::with_capacity(seen.len());
        for (word, &set) in (0u64..).zip(&seen) {
            before.push(strings.len() as u32);
            let mut set = set;
            while set != 0 {
                let rank = low + (word << 6 | u64::from(set.trailing_zeros()));
                strings.push(dec.sym(order.id(rank as u32)));
                set &= set - 1;
            }
        }
        for cell in cells.iter_mut().filter(|cell| cell.tag == TAG_STR) {
            let at = cell.bits - low;
            let below = seen[(at >> 6) as usize] & ((1u64 << (at & 63)) - 1);
            cell.bits = u64::from(before[(at >> 6) as usize] + below.count_ones());
        }
        return strings;
    }
    let cell_bits = index_bits(cells.len());
    let mut refs: Vec<u64> = cells
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.tag == TAG_STR)
        .map(|(at, cell)| (cell.bits - low) << cell_bits | at as u64)
        .collect();
    radix_sort(&mut refs, cell_bits, bits_of(high - low));
    let cell_mask = (1u64 << cell_bits) - 1;
    let mut last = None;
    for key in refs {
        let rank = key >> cell_bits;
        if last != Some(rank) {
            last = Some(rank);
            strings.push(dec.sym(order.id((low + rank) as u32)));
        }
        cells[(key & cell_mask) as usize].bits = (strings.len() - 1) as u64;
    }
    strings
}

/// Sorts `keys` — ascending in their bits below `low` — by their `bits`
/// bits from `low` up: an LSD radix sort of at most 11 bits a pass, stable,
/// so the order below `low` breaks ties and the keys end up ascending.
/// Keys need not be distinct. A few keys take a comparison sort, which
/// ends in the same order.
fn radix_sort(keys: &mut Vec<u64>, low: u32, bits: u32) {
    if keys.len() <= 256 {
        keys.sort_unstable();
        return;
    }
    let passes = bits.div_ceil(11);
    if passes == 0 {
        return;
    }
    let digit = bits.div_ceil(passes);
    let mask = (1u64 << digit) - 1;
    let mut sorted = vec![0u64; keys.len()];
    let mut starts = vec![0usize; 1 << digit];
    for pass in 0..passes {
        let shift = low + pass * digit;
        starts.fill(0);
        for &key in keys.iter() {
            starts[((key >> shift) & mask) as usize] += 1;
        }
        if starts.contains(&keys.len()) {
            continue; // every key has the same digit here
        }
        let mut start = 0;
        for slot in starts.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for &key in keys.iter() {
            let slot = &mut starts[((key >> shift) & mask) as usize];
            sorted[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(keys, &mut sorted);
    }
}
