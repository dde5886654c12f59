//! # mdm-dataform
//!
//! Source-data formats for MDM. The paper's wrappers ingest REST-API payloads
//! "in their original format" — the motivational use case serves the Players
//! API as JSON and the Teams API as XML (Figure 2). This crate provides the
//! substrate the reference implementation got from off-the-shelf Java
//! libraries:
//!
//! * [`Value`] — a unified document tree (null / bool / number / string /
//!   array / object) shared by all formats.
//! * [`json`] — a strict JSON parser and printer, plus a record stream
//!   ([`json::records`]) that parses a top-level array one element at a
//!   time.
//! * [`xml`] — a parser and printer for the XML subset REST APIs emit
//!   (elements, attributes, text; no DTDs or processing instructions).
//! * [`csv`] — an RFC-4180-style reader/writer for tabular sources, which
//!   also reads record by record ([`csv::read_records`]).
//! * [`mod@flatten`] — converts a document tree into the flat 1NF rows that
//!   wrapper signatures `w(a1, …, an)` expose (paper §2.2), handing each
//!   row to a sink as borrowed [`Scalar`] cells.
//!
//! Both document parsers bound nesting at [`json::MAX_DEPTH`] and
//! [`xml::MAX_DEPTH`] levels: they recurse once per level, and a payload or
//! request body nested deeper fails to parse instead of exhausting the
//! thread's stack. A wrapper's bindings name flattened columns, not paths
//! into the document.

pub mod csv;
pub mod flatten;
pub mod json;
pub mod value;
pub mod xml;

pub use flatten::{flatten, flatten_rows, Cell, FlattenOptions};
pub use value::{Number, Scalar, Value};
