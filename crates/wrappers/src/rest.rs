//! Simulated REST endpoints with versioned releases.
//!
//! The paper's sources are external REST APIs that "continuously apply
//! changes in their structure"; we cannot call Facebook's Graph API from a
//! test suite, so [`RestSource`] plays the API's role: it owns a set of
//! [`Release`]s — immutable payload snapshots, one per published schema
//! version — and serves whichever version a wrapper requests. This exercises
//! the same code path as a live API (payload bytes → parse → flatten) while
//! staying deterministic.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mdm_dataform::flatten::{flatten, Cell, FlattenOptions};
use mdm_dataform::{csv, json, xml, Value};

use crate::wrapper::WrapperError;

/// The serialisation format of a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    Json,
    Xml,
    Csv,
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Format::Json => write!(f, "JSON"),
            Format::Xml => write!(f, "XML"),
            Format::Csv => write!(f, "CSV"),
        }
    }
}

/// One published schema version of an endpoint: the payload it serves.
#[derive(Clone, Debug)]
pub struct Release {
    /// The version number (v1, v2, …).
    pub version: u32,
    /// The payload format.
    pub format: Format,
    /// The raw response body.
    pub body: String,
    /// Human-readable change notes (shown by the governance scenario).
    pub notes: String,
}

impl Release {
    /// Parses the payload into the unified document model. A parse failure
    /// is a [`WrapperError::Malformed`]: the bytes arrived, but are not a
    /// valid document.
    pub fn parse(&self) -> Result<Value, WrapperError> {
        self.parse_body(&self.body)
    }

    /// Parses an arbitrary body in this release's format — the fault
    /// harness uses it to feed truncated payloads through the real parser.
    pub fn parse_body(&self, body: &str) -> Result<Value, WrapperError> {
        match self.format {
            Format::Json => json::parse(body).map_err(malformed),
            Format::Xml => xml::parse(body)
                .map(|e| xml::to_value(&e))
                .map_err(malformed),
            Format::Csv => csv::parse(body)
                .map(|t| Value::Array(t.to_values()))
                .map_err(malformed),
        }
    }

    /// Streams an arbitrary body in this release's format to `sink` as 1NF
    /// rows: the rows [`flatten_rows`](mdm_dataform::flatten_rows) makes of
    /// [`Release::parse_body`]'s document, in the same order, without
    /// holding that document. A JSON body is parsed record by record (the
    /// elements of a top-level array) and each record flattened on its
    /// own; CSV records go from the reader straight to rows, typed as
    /// [`Release::parse_body`] types them; an XML body (fixture-sized)
    /// keeps its element tree. It fails with `parse_body`'s error, once
    /// the rows before the failing record have reached `sink`: every row
    /// comes from a complete record.
    pub fn stream_rows(
        &self,
        body: &str,
        sink: &mut impl FnMut(&[Cell<'_>]),
    ) -> Result<(), WrapperError> {
        let options = FlattenOptions::default();
        match self.format {
            Format::Json => {
                for record in json::records(body) {
                    flatten(&record.map_err(malformed)?, &options, sink);
                }
            }
            Format::Xml => flatten(&self.parse_body(body)?, &options, sink),
            Format::Csv => {
                csv::read_records(body, |header, record| {
                    let cells: Vec<Cell<'_>> = header
                        .iter()
                        .zip(&record)
                        .map(|(name, field)| {
                            (Cow::Borrowed(name.as_str()), csv::type_scalar(field))
                        })
                        .collect();
                    sink(&cells);
                })
                .map_err(malformed)?;
            }
        }
        Ok(())
    }

    /// The flattened payload columns this release provides, sorted — the
    /// raw material for MDM's automatic *schema extraction* step (§2.2),
    /// read off the row stream.
    pub fn payload_columns(&self) -> Result<Vec<String>, WrapperError> {
        let mut columns = BTreeSet::new();
        self.stream_rows(&self.body, &mut |row| {
            for (column, _) in row {
                if !columns.contains(column.as_ref()) {
                    columns.insert(column.to_string());
                }
            }
        })?;
        Ok(columns.into_iter().collect())
    }
}

fn malformed(error: impl fmt::Display) -> WrapperError {
    WrapperError::Malformed(error.to_string())
}

/// A simulated REST API endpoint: a name and its ordered releases.
#[derive(Clone, Debug, Default)]
pub struct RestSource {
    name: String,
    releases: BTreeMap<u32, Release>,
}

impl RestSource {
    /// An endpoint with no releases yet.
    pub fn new(name: impl Into<String>) -> Self {
        RestSource {
            name: name.into(),
            releases: BTreeMap::new(),
        }
    }

    /// The endpoint name (e.g. `PlayersAPI`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Publishes a release. Re-publishing a version replaces it.
    pub fn publish(&mut self, release: Release) {
        self.releases.insert(release.version, release);
    }

    /// The release for `version`, when published.
    pub fn release(&self, version: u32) -> Option<&Release> {
        self.releases.get(&version)
    }

    /// The most recent release.
    pub fn latest(&self) -> Option<&Release> {
        self.releases.values().next_back()
    }

    /// All published versions, ascending.
    pub fn versions(&self) -> Vec<u32> {
        self.releases.keys().copied().collect()
    }

    /// Serves the body for `version` — the simulated HTTP GET. A missing
    /// version is an HTTP 404: a [`WrapperError::Permanent`] no retry fixes.
    pub fn get(&self, version: u32) -> Result<&str, WrapperError> {
        self.releases
            .get(&version)
            .map(|r| r.body.as_str())
            .ok_or_else(|| {
                WrapperError::Permanent(format!(
                    "{}: HTTP 404 — version v{version} not published (available: {:?})",
                    self.name,
                    self.versions()
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn players_v1() -> Release {
        Release {
            version: 1,
            format: Format::Json,
            body: r#"[{"id":1,"name":"Messi"}]"#.to_string(),
            notes: "initial release".to_string(),
        }
    }

    #[test]
    fn publish_and_get() {
        let mut api = RestSource::new("PlayersAPI");
        api.publish(players_v1());
        assert_eq!(api.get(1).unwrap(), r#"[{"id":1,"name":"Messi"}]"#);
        let err = api.get(2).unwrap_err();
        assert!(matches!(err, WrapperError::Permanent(_)), "{err}");
        assert!(err.message().contains("404"));
    }

    #[test]
    fn latest_tracks_highest_version() {
        let mut api = RestSource::new("PlayersAPI");
        api.publish(players_v1());
        api.publish(Release {
            version: 3,
            format: Format::Json,
            body: "[]".to_string(),
            notes: String::new(),
        });
        assert_eq!(api.latest().unwrap().version, 3);
        assert_eq!(api.versions(), vec![1, 3]);
    }

    #[test]
    fn release_parses_json() {
        let v = players_v1().parse().unwrap();
        assert_eq!(
            v.at(0).unwrap().get("name").unwrap().as_str(),
            Some("Messi")
        );
    }

    #[test]
    fn release_parses_xml() {
        let release = Release {
            version: 1,
            format: Format::Xml,
            body: "<team><id>25</id></team>".to_string(),
            notes: String::new(),
        };
        let v = release.parse().unwrap();
        assert_eq!(v.get("id").unwrap().as_number().unwrap().as_i64(), Some(25));
    }

    #[test]
    fn release_parses_csv() {
        let release = Release {
            version: 1,
            format: Format::Csv,
            body: "id,name\n1,Spain\n".to_string(),
            notes: String::new(),
        };
        let v = release.parse().unwrap();
        assert_eq!(
            v.at(0).unwrap().get("name").unwrap().as_str(),
            Some("Spain")
        );
    }

    #[test]
    fn malformed_payload_is_error() {
        let release = Release {
            version: 1,
            format: Format::Json,
            body: "{oops".to_string(),
            notes: String::new(),
        };
        assert!(release.parse().is_err());
    }
}
