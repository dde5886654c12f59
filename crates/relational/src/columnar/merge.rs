//! The UCQ merge over term ids, and the answer it hands back.
//!
//! [`merge_branches`] unions a rewriting's branch results while they are
//! still term batches, removes duplicates with the [`ColDistinct`] kernel
//! and sorts the survivors under `Value::cmp`'s order. It never builds a
//! `Table`. The caller gets [`MergedRows`]: sorted row-major terms plus the
//! answer's distinct strings, each string once. The server prints that
//! straight into a response body; the CLI and the oracles call
//! [`MergedRows::to_table`].
//!
//! The sort compares integers only. Each cell gets an *order code*: the
//! dense rank of its term among its column's distinct terms. A row's codes
//! compare as its terms do, so sorting rows by (codes, position) gives the
//! stable sort's order without matching on tags or reading the dictionary.

use std::collections::HashMap;

use super::{
    encode_value, term_cmp, ColDistinct, ColOperator, ColumnBatch, Decoder, KeyState, TermId,
    TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_NULL, TAG_STR,
};
use crate::executor::ExecError;
use crate::intern::Sym;
use crate::metrics;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Replays drained batches as an operator: the merge's input to δ.
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

/// Puts `strings` in content order; returns each string's new index by its
/// old one.
fn sort_by_content(strings: &mut Vec<Sym>) -> Vec<u64> {
    // `Sym::as_str` checks an inline symbol's UTF-8 on every call: take
    // each text once, not twice per comparison.
    let texts: Vec<&str> = strings.iter().map(Sym::as_str).collect();
    let mut by_content: Vec<usize> = (0..strings.len()).collect();
    by_content.sort_unstable_by(|&a, &b| texts[a].cmp(texts[b]));
    let mut position = vec![0u64; by_content.len()];
    for (p, &s) in by_content.iter().enumerate() {
        position[s] = p as u64;
    }
    *strings = by_content.into_iter().map(|s| strings[s].clone()).collect();
    position
}

/// The encoded UCQ merge: ∪ → δ → sort, all over term ids.
///
/// `branches` are branch results in rewriting order, each a run of batches
/// as wide as `schema` (less the label column under
/// [`MergeMode::Labelled`]). Whether a branch was deduplicated before does
/// not change the result. Under
/// [`MergeMode::Distinct`], δ is the [`ColDistinct`] kernel over the
/// branches' concatenation — exactly what a whole-plan `Union → Distinct`
/// runs; under a labelled δ it is one [`ColDistinct`] per branch. The
/// survivors are sorted stably under `Value::cmp`'s order by their cells'
/// order codes, and come back as [`MergedRows`]. Every result cell counts
/// as one decode (`schema.len()` per result row, none per input row):
/// this is where the answer leaves the dictionary's ids.
pub fn merge_branches(
    schema: Schema,
    branches: Vec<Vec<ColumnBatch>>,
    mode: MergeMode<'_>,
) -> Result<MergedRows, String> {
    // Labels are encoded here, before the `Decoder` below exists.
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
    // Each run is what one δ sees: the whole union, or one branch.
    let runs: Vec<(Vec<ColumnBatch>, Option<TermId>)> = if matches!(mode, MergeMode::Distinct) {
        vec![(branches.into_iter().flatten().collect(), None)]
    } else {
        let labels = labels
            .iter()
            .copied()
            .map(Some)
            .chain(std::iter::repeat(None));
        branches.into_iter().zip(labels).collect()
    };
    let unlabelled = Schema::new(schema.columns()[..width].to_vec());
    let mut survivors: Vec<(ColumnBatch, Option<TermId>)> = Vec::new();
    for (batches, label) in runs {
        if !distinct {
            survivors.extend(batches.into_iter().map(|batch| (batch, label)));
            continue;
        }
        let mut delta = ColDistinct::new(Box::new(Replay {
            schema: unlabelled.clone(),
            batches: batches.into_iter(),
        }));
        while let Some(batch) = delta.next_cols(usize::MAX) {
            survivors.push((batch.map_err(|e| e.message)?, label));
        }
    }

    // Gather the survivors row-major: a row's sort keys sit side by side.
    let len: usize = survivors.iter().map(|(batch, _)| batch.len()).sum();
    let mut cells: Vec<TermId> = Vec::with_capacity(len * out_width);
    for (batch, label) in &survivors {
        for i in 0..batch.len() {
            let row = batch.row_id(i) as usize;
            cells.extend(batch.columns.iter().map(|c| c.ids[row]));
            cells.extend(label);
        }
    }
    drop(survivors);
    metrics::record_decodes((len * out_width) as u64);

    let mut merged = MergedRows {
        schema,
        len,
        cells,
        strings: Vec::new(),
    };
    let (codes, top) = merged.order_codes();
    let order = sort_by_codes(&codes, len, &top);
    merged.cells = order
        .iter()
        .flat_map(|&r| &merged.cells[r as usize * out_width..][..out_width])
        .copied()
        .collect();
    Ok(merged)
}

impl MergedRows {
    /// Swaps every string cell's dictionary id for its index into the
    /// answer's content-sorted `strings`. Returns each cell's order code
    /// (row-major, like `cells`) and each column's largest code.
    fn order_codes(&mut self) -> (Vec<u32>, Vec<u32>) {
        let width = self.schema.len();
        // Per column, number its distinct terms first-seen first (exact
        // terms, so `Int(1)` and `Float(1.0)` get two slots) and note each
        // cell's slot.
        let mut codes = vec![0u32; self.cells.len()];
        let mut distinct: Vec<Vec<TermId>> = Vec::with_capacity(width);
        for c in 0..width {
            let mut slots: HashMap<TermId, u32, KeyState> =
                HashMap::with_capacity_and_hasher(self.len, KeyState::default());
            let mut terms = Vec::new();
            for (code, &term) in codes
                .iter_mut()
                .skip(c)
                .step_by(width)
                .zip(self.cells.iter().skip(c).step_by(width))
            {
                *code = *slots.entry(term).or_insert_with(|| {
                    terms.push(term);
                    (terms.len() - 1) as u32
                });
            }
            distinct.push(terms);
        }

        // The answer's distinct strings, once across columns: the only
        // dictionary reads of the merge. The decoder's read guards go
        // before anything is sorted.
        {
            let mut dec = Decoder::new();
            let mut index: HashMap<u64, u64, KeyState> = HashMap::default();
            for term in distinct.iter_mut().flatten().filter(|t| t.tag == TAG_STR) {
                let next = self.strings.len() as u64;
                term.bits = *index.entry(term.bits).or_insert_with(|| {
                    self.strings.push(dec.sym(term.bits));
                    next
                });
            }
        }
        let position = sort_by_content(&mut self.strings);

        // Per column, rank the distinct terms densely under `term_cmp`
        // (strings by content position), then give each cell its final
        // term and its code.
        let mut top = Vec::with_capacity(width);
        for (c, terms) in distinct.iter_mut().enumerate() {
            for term in terms.iter_mut().filter(|t| t.tag == TAG_STR) {
                term.bits = position[term.bits as usize];
            }
            let cmp = |a: TermId, b: TermId| term_cmp(a, b, |l, r| l.cmp(&r));
            let mut by_order: Vec<u32> = (0..terms.len() as u32).collect();
            by_order.sort_unstable_by(|&a, &b| cmp(terms[a as usize], terms[b as usize]));
            let mut rank = vec![0u32; terms.len()];
            let mut code = 0u32;
            for (k, &slot) in by_order.iter().enumerate() {
                if k > 0 && cmp(terms[by_order[k - 1] as usize], terms[slot as usize]).is_ne() {
                    code += 1;
                }
                rank[slot as usize] = code;
            }
            top.push(code);
            for (cell_code, cell) in codes
                .iter_mut()
                .skip(c)
                .step_by(width)
                .zip(self.cells.iter_mut().skip(c).step_by(width))
            {
                *cell = terms[*cell_code as usize];
                *cell_code = rank[*cell_code as usize];
            }
        }
        (codes, top)
    }
}

/// Row indices `0..len` sorted by their codes (`top.len()` per row, column
/// `c`'s at most `top[c]`), ties in row order. When the columns' code
/// widths plus the row index's fit in 64 bits, a row's codes and its index
/// pack into one `u64` key.
fn sort_by_codes(codes: &[u32], len: usize, top: &[u32]) -> Vec<u32> {
    let width = top.len();
    let row = |r: usize| &codes[r * width..][..width];
    let bits_of = |max: u64| u64::BITS - max.leading_zeros();
    let index_bits = bits_of(len.saturating_sub(1) as u64);
    let code_bits: Vec<u32> = top.iter().map(|&t| bits_of(u64::from(t))).collect();
    if code_bits.iter().sum::<u32>() + index_bits <= u64::BITS {
        let mut keys: Vec<u64> = (0..len)
            .map(|r| {
                let key = row(r)
                    .iter()
                    .zip(&code_bits)
                    .fold(0u64, |key, (&code, &bits)| key << bits | u64::from(code));
                key << index_bits | r as u64
            })
            .collect();
        keys.sort_unstable();
        let index_mask = (1u64 << index_bits) - 1;
        keys.into_iter()
            .map(|key| (key & index_mask) as u32)
            .collect()
    } else {
        let mut order: Vec<u32> = (0..len as u32).collect();
        order.sort_unstable_by(|&a, &b| row(a as usize).cmp(row(b as usize)).then(a.cmp(&b)));
        order
    }
}
