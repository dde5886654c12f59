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
//! its terms do, so sorting every input row once by (codes, position)
//! gives the stable sort's order. Without floats, equal codes are exactly
//! `==` terms, so δ keeps the first row of each run of equal codes: the
//! earliest branch's row, as a first-seen δ over the union would. IEEE
//! `==` is not an order (`-0.0 == 0.0`, `NaN != NaN`, ints against floats
//! beyond 2^53), so an input with a float cell runs the [`ColDistinct`]
//! kernel before the sort instead.

use std::collections::HashMap;

use super::{
    dict, encode_value, term_cmp, ColDistinct, ColOperator, ColumnBatch, ContentOrder, Decoder,
    KeyState, TermId, TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_NULL, TAG_STR,
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
/// order codes and its position, and δ drops a row whose codes equal its
/// predecessor's (under a labelled δ, only within one branch). That keeps
/// what a first-seen δ over the branches' concatenation keeps — exactly
/// what the reference path (`mdm_core::query::answer_walk_with`) keeps —
/// in the stable sort's order under `Value::cmp`. An input with a float cell is deduplicated by the
/// [`ColDistinct`] kernel before the sort instead (one per branch under a
/// labelled δ). The merge counts as one kernel invocation; every result
/// cell counts as one decode (`schema.len()` per result row, none per
/// input row): this is where the answer leaves the dictionary's ids.
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
        .map(|c| Coder::new(input.column(c), &order))
        .collect();
    let floats = coders.iter().any(|coder| coder.floats);
    if distinct && floats {
        let unlabelled = Schema::new(schema.columns()[..width].to_vec());
        input.deduplicate(&unlabelled, per_branch)?;
    }
    // A run of equal codes is one row's duplicates; under a labelled δ only
    // those of one branch are (positions follow branch order, so each
    // branch's rows sit together within the run).
    let dedup = distinct && !floats;
    let same = |a: u32, b: u32| !per_branch || input.branch(a) == input.branch(b);
    let survivors = sort_by_codes(&input, &coders, &order, |a, b| dedup && same(a, b));
    drop(coders);

    // Read the survivors through their batches, in position order, each
    // into its row of the answer. A string cell carries its dictionary id
    // until the answer's strings are numbered.
    let mut row_of = vec![u32::MAX; input.len()];
    for (row, &pos) in survivors.iter().enumerate() {
        row_of[pos as usize] = row as u32;
    }
    let mut cells = vec![TermId::NULL; survivors.len() * out_width];
    for c in 0..out_width {
        let mut rows = row_of.iter();
        input.column(c).for_each(|term| {
            let row = *rows.next().expect("one row slot per input row");
            if row != u32::MAX {
                cells[row as usize * out_width + c] = term;
            }
        });
    }
    drop(input);
    let strings = number_strings(&mut cells, &order);
    let len = survivors.len();
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
    /// Each batch's first position.
    starts: Vec<u32>,
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
        let mut input = Input {
            batches,
            starts: Vec::new(),
            labels,
        };
        input.number();
        input
    }

    fn number(&mut self) {
        let mut start = 0u32;
        self.starts = self
            .batches
            .iter()
            .map(|(batch, _)| {
                let first = start;
                start += batch.len() as u32;
                first
            })
            .collect();
    }

    fn len(&self) -> usize {
        self.batches.iter().map(|(batch, _)| batch.len()).sum()
    }

    /// Column `c`'s terms in position order; the column past the branches'
    /// width is each row's label. (Drive it with `for_each`: a flattened
    /// iterator's internal iteration is a plain loop per batch.)
    fn column(&self, c: usize) -> impl Iterator<Item = TermId> + '_ {
        self.batches.iter().flat_map(move |(batch, branch)| {
            let column = batch.columns.get(c);
            let label = self.labels.get(*branch).copied();
            (0..batch.len()).map(move |i| match column {
                Some(column) => column.ids[batch.row_id(i) as usize],
                None => label.expect("only a labelled merge reads past the branches' width"),
            })
        })
    }

    /// The branch of the row at position `pos`.
    fn branch(&self, pos: u32) -> usize {
        self.batches[self.starts.partition_point(|&start| start <= pos) - 1].1
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
        self.number();
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

/// How one column's terms become order codes.
struct Coder {
    /// Each distinct number of the column (exact terms, so `Int(1)` and
    /// `Float(1.0)` are two keys) to its code; numbers that tie under
    /// `term_cmp` share one.
    numbers: HashMap<TermId, u32, KeyState>,
    /// The code of the first string: a string codes at this plus its rank.
    strings: u32,
    /// An upper bound on the column's codes.
    top: u32,
    /// Whether the column holds a float.
    floats: bool,
}

impl Coder {
    fn new(terms: impl Iterator<Item = TermId>, order: &ContentOrder) -> Coder {
        let mut numbers: HashMap<TermId, u32, KeyState> = HashMap::default();
        let mut distinct: Vec<TermId> = Vec::new();
        let (mut texts, mut floats) = (false, false);
        terms.for_each(|term| match term.tag {
            TAG_INT | TAG_FLOAT => {
                floats |= term.tag == TAG_FLOAT;
                numbers.entry(term).or_insert_with(|| {
                    distinct.push(term);
                    0
                });
            }
            TAG_STR => texts = true,
            _ => {}
        });
        // Rank the distinct numbers densely under `term_cmp`, after the
        // three null and bool codes.
        distinct.sort_unstable_by(|&a, &b| term_cmp(a, b));
        let mut code = 2;
        for (k, &term) in distinct.iter().enumerate() {
            if k == 0 || term_cmp(distinct[k - 1], term).is_ne() {
                code += 1;
            }
            numbers.insert(term, code);
        }
        let strings = code + 1;
        Coder {
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
            _ => self.numbers[&term],
        }
    }
}

/// Points each string cell of the answer at its index among the answer's
/// distinct strings and returns those strings in content order, each
/// decoded once. The string cells sort once by (rank, cell), so a run of
/// one rank is one string: the work follows the answer's size, not the
/// dictionary's.
fn number_strings(cells: &mut [TermId], order: &ContentOrder) -> Vec<Sym> {
    let cell_bits = index_bits(cells.len());
    let mut refs: Vec<u64> = cells
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.tag == TAG_STR)
        .map(|(at, cell)| u64::from(order.rank(cell.bits)) << cell_bits | at as u64)
        .collect();
    radix_sort(&mut refs, cell_bits, index_bits(order.len()));
    let cell_mask = (1u64 << cell_bits) - 1;
    let mut dec = Decoder::new();
    let mut strings: Vec<Sym> = Vec::new();
    let mut last = None;
    for key in refs {
        let rank = (key >> cell_bits) as u32;
        if last != Some(rank) {
            last = Some(rank);
            strings.push(dec.sym(order.id(rank)));
        }
        cells[(key & cell_mask) as usize].bits = (strings.len() - 1) as u64;
    }
    strings
}

/// The input's positions sorted by their rows' codes, ties in position
/// order; of each run of equal codes, a position is dropped when
/// `duplicate(it, predecessor)` holds. When the columns' code widths plus
/// the position's fit in 64 bits, a row's codes and its position pack into
/// one `u64` key; otherwise rows sort by comparing their code slices.
fn sort_by_codes(
    input: &Input,
    coders: &[Coder],
    order: &ContentOrder,
    duplicate: impl Fn(u32, u32) -> bool,
) -> Vec<u32> {
    let len = input.len();
    let index_bits = index_bits(len);
    let code_bits: u32 = coders.iter().map(Coder::bits).sum();
    if code_bits + index_bits <= u64::BITS {
        let mut keys = vec![0u64; len];
        for (c, coder) in coders.iter().enumerate() {
            let (bits, mut keys) = (coder.bits(), keys.iter_mut());
            input.column(c).for_each(|term| {
                let key = keys.next().expect("one key per input row");
                *key = *key << bits | u64::from(coder.code(term, order));
            });
        }
        for (pos, key) in keys.iter_mut().enumerate() {
            *key = *key << index_bits | pos as u64;
        }
        radix_sort(&mut keys, index_bits, code_bits);
        let index_mask = (1u64 << index_bits) - 1;
        keys.dedup_by(|key, kept| {
            *key >> index_bits == *kept >> index_bits
                && duplicate((*key & index_mask) as u32, (*kept & index_mask) as u32)
        });
        keys.into_iter()
            .map(|key| (key & index_mask) as u32)
            .collect()
    } else {
        let width = coders.len();
        let mut codes = vec![0u32; len * width];
        for (c, coder) in coders.iter().enumerate() {
            let mut cells = codes.iter_mut().skip(c).step_by(width);
            input.column(c).for_each(|term| {
                *cells.next().expect("one code per input cell") = coder.code(term, order);
            });
        }
        let row = |r: u32| &codes[r as usize * width..][..width];
        let mut order: Vec<u32> = (0..len as u32).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)).then(a.cmp(&b)));
        order.dedup_by(|&mut pos, &mut kept| row(pos) == row(kept) && duplicate(pos, kept));
        order
    }
}

/// Sorts `keys` — distinct, and ascending in their bits below `low` — by
/// their `bits` bits from `low` up: an LSD radix sort of at most 11 bits a
/// pass, stable, so the order below `low` breaks ties and the keys end up
/// ascending. A few keys take a comparison sort, which ends in the same
/// order.
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
