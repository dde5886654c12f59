//! An RFC-4180-style CSV reader and writer.
//!
//! Some MDM sources are tabular exports; CSV is the third format the wrapper
//! framework accepts. Quoted fields (with embedded commas, quotes and
//! newlines), CRLF/LF line endings, and a header row are supported.

use std::fmt;

use crate::value::{Number, Scalar, Value};

/// A CSV parse error with the 1-based record number it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    pub message: String,
    pub record: usize,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "csv parse error in record {}: {}",
            self.record, self.message
        )
    }
}

impl std::error::Error for CsvError {}

/// A parsed CSV document: a header and data records.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvTable {
    pub header: Vec<String>,
    pub records: Vec<Vec<String>>,
}

impl CsvTable {
    /// Converts each record to an object [`Value`] keyed by header names,
    /// typing numeric-looking and boolean-looking fields.
    pub fn to_values(&self) -> Vec<Value> {
        self.records
            .iter()
            .map(|record| {
                Value::object(
                    self.header
                        .iter()
                        .zip(record)
                        .map(|(name, field)| (name.clone(), type_scalar(field).into())),
                )
            })
            .collect()
    }
}

/// A field as the cell it types to: empty is null, canonical integers and
/// dotted floats are numbers, `true`/`false` are bools, anything else is
/// the string itself.
pub fn type_scalar(field: &str) -> Scalar<'_> {
    if field.is_empty() {
        return Scalar::Null;
    }
    if let Ok(i) = field.parse::<i64>() {
        if field == i.to_string() {
            return Scalar::Number(Number::Int(i));
        }
    }
    if let Ok(f) = field.parse::<f64>() {
        if field.contains('.') {
            return Scalar::Number(Number::Float(f));
        }
    }
    match field {
        "true" => Scalar::Bool(true),
        "false" => Scalar::Bool(false),
        _ => Scalar::Str(field),
    }
}

/// Parses a CSV document with a header row. Records with a field count
/// different from the header are an error (ragged tables hide schema drift,
/// which is exactly what MDM is built to surface).
pub fn parse(input: &str) -> Result<CsvTable, CsvError> {
    let mut records = Vec::new();
    let header = read_records(input, |_, record| records.push(record))?;
    Ok(CsvTable { header, records })
}

/// Reads a CSV document with a header row record by record, handing each
/// data record to `sink` (with the header) as soon as it is read, and
/// returns the header: [`parse`] without holding the table.
///
/// It fails exactly as `parse` does. A record of the wrong width is the
/// error unless a malformed field follows it, and no record from it on
/// reaches `sink`.
pub fn read_records(
    input: &str,
    mut sink: impl FnMut(&[String], Vec<String>),
) -> Result<Vec<String>, CsvError> {
    let mut rows = Rows::new(input);
    let Some(header) = rows.next() else {
        return Err(CsvError {
            message: "empty document (missing header)".to_string(),
            record: 0,
        });
    };
    let header = header?;
    let mut ragged = None;
    for (i, row) in rows.enumerate() {
        let row = row?;
        if ragged.is_some() {
            continue;
        }
        if row.len() != header.len() {
            ragged = Some(CsvError {
                message: format!(
                    "record has {} fields but header has {}",
                    row.len(),
                    header.len()
                ),
                record: i + 1,
            });
        } else {
            sink(&header, row);
        }
    }
    ragged.map_or(Ok(header), Err)
}

/// Raw rows, the header among them, read one at a time. After an error it
/// yields nothing more.
struct Rows<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Rows read so far; errors name the next one, 1-based.
    read: usize,
    done: bool,
}

impl<'a> Rows<'a> {
    fn new(input: &'a str) -> Self {
        Rows {
            chars: input.chars().peekable(),
            read: 0,
            done: false,
        }
    }

    fn error(&mut self, message: &str) -> Option<Result<Vec<String>, CsvError>> {
        self.done = true;
        Some(Err(CsvError {
            message: message.to_string(),
            record: self.read + 1,
        }))
    }
}

impl Iterator for Rows<'_> {
    type Item = Result<Vec<String>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut field_started = false;

        while let Some(c) = self.chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if self.chars.peek() == Some(&'"') {
                            self.chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    c => field.push(c),
                }
                continue;
            }
            match c {
                '"' if field.is_empty() && !field_started => {
                    in_quotes = true;
                    field_started = true;
                }
                '"' => return self.error("quote inside unquoted field"),
                ',' => {
                    row.push(std::mem::take(&mut field));
                    field_started = false;
                }
                '\r' | '\n' => {
                    if c == '\r' && self.chars.peek() == Some(&'\n') {
                        self.chars.next();
                    }
                    row.push(field);
                    self.read += 1;
                    return Some(Ok(row));
                }
                c => {
                    field.push(c);
                    field_started = true;
                }
            }
        }
        self.done = true;
        if in_quotes {
            return self.error("unterminated quoted field");
        }
        if field_started || !field.is_empty() || !row.is_empty() {
            row.push(field);
            self.read += 1;
            return Some(Ok(row));
        }
        None
    }
}

/// Writes a header and records as CSV, quoting only where required.
pub fn to_string(header: &[String], records: &[Vec<String>]) -> String {
    let mut out = String::new();
    write_row(&mut out, header);
    for record in records {
        write_row(&mut out, record);
    }
    out
}

fn write_row(out: &mut String, fields: &[String]) {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_table() {
        let t = parse("id,name\n1,Messi\n2,Lewandowski\n").unwrap();
        assert_eq!(t.header, vec!["id", "name"]);
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0], vec!["1", "Messi"]);
    }

    #[test]
    fn quoted_fields_with_commas_quotes_newlines() {
        let t = parse("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",z\n").unwrap();
        assert_eq!(t.records[0][0], "x,y");
        assert_eq!(t.records[0][1], "he said \"hi\"");
        assert_eq!(t.records[1][0], "line1\nline2");
    }

    #[test]
    fn crlf_line_endings() {
        let t = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.records, vec![vec!["1", "2"]]);
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let t = parse("a,b\n1,2").unwrap();
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn ragged_record_is_error() {
        let err = parse("a,b\n1,2,3\n").unwrap_err();
        assert!(err.message.contains("3 fields"));
        assert_eq!(err.record, 1);
    }

    #[test]
    fn a_malformed_field_outranks_an_earlier_ragged_record() {
        let err = parse("a,b\n1,2\n3\n\"open").unwrap_err();
        assert_eq!(err.message, "unterminated quoted field");
        assert_eq!(err.record, 4);
        // Records before the ragged one are handed out; none after it.
        let mut seen = Vec::new();
        let err = read_records("a,b\n1,2\n3\n4,5\n", |_, record| seen.push(record)).unwrap_err();
        assert_eq!(err.record, 2);
        assert_eq!(seen, vec![vec!["1", "2"]]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse("a\n\"oops\n").is_err());
    }

    #[test]
    fn quote_inside_unquoted_field_is_error() {
        assert!(parse("a\nb\"c\n").is_err());
    }

    #[test]
    fn empty_document_is_error() {
        assert!(parse("").is_err());
    }

    #[test]
    fn empty_fields_and_nulls() {
        let t = parse("a,b,c\n1,,x\n").unwrap();
        assert_eq!(t.records[0][1], "");
        let values = t.to_values();
        assert!(values[0].get("b").unwrap().is_null());
    }

    #[test]
    fn to_values_types_fields() {
        let t = parse("id,height,active,name\n25,170.18,true,Messi\n").unwrap();
        let v = &t.to_values()[0];
        assert_eq!(v.get("id").unwrap().as_number().unwrap().as_i64(), Some(25));
        assert_eq!(
            v.get("height").unwrap().as_number().unwrap().as_f64(),
            170.18
        );
        assert_eq!(v.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("name").unwrap().as_str(), Some("Messi"));
    }

    #[test]
    fn round_trip() {
        let header = vec!["a".to_string(), "b".to_string()];
        let records = vec![
            vec!["x,y".to_string(), "plain".to_string()],
            vec!["with \"q\"".to_string(), "line\nbreak".to_string()],
        ];
        let text = to_string(&header, &records);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.header, header);
        assert_eq!(parsed.records, records);
    }
}
