//! Wrappers: signatures, payload bindings, and 1NF row production.

use std::fmt;
use std::sync::{Arc, OnceLock};

use mdm_dataform::flatten::{flatten_rows, FlattenOptions, Row};
use mdm_relational::columnar::TermColumnsBuilder;
use mdm_relational::scan_cache::EncodedScan;
use mdm_relational::{ErrorKind, ExecError, RelationProvider, Schema, Tuple, Value};

use crate::fault::{truncate_body, FaultPlan, InjectedFault};
use crate::rest::Release;

/// A wrapper signature `w(a1, …, an)` (paper §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    name: String,
    attributes: Vec<String>,
}

impl Signature {
    /// Builds a signature; attribute names must be unique and non-empty.
    pub fn new(
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, WrapperError> {
        let name = name.into();
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        if name.is_empty() {
            return Err(WrapperError::Permanent(
                "wrapper name must not be empty".to_string(),
            ));
        }
        if attributes.is_empty() {
            return Err(WrapperError::Permanent(format!(
                "wrapper '{name}' must expose at least one attribute"
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for attribute in &attributes {
            if attribute.is_empty() {
                return Err(WrapperError::Permanent(format!(
                    "wrapper '{name}' has an empty attribute name"
                )));
            }
            if !seen.insert(attribute.as_str()) {
                return Err(WrapperError::Permanent(format!(
                    "wrapper '{name}' repeats attribute '{attribute}'"
                )));
            }
        }
        Ok(Signature { name, attributes })
    }

    /// The wrapper name `w`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute names `a1, …, an` in order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// The arity `n`.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

/// An error raised while building or executing a wrapper, classified by
/// what the caller should do about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WrapperError {
    /// A retryable fault (network hiccup, HTTP 503); trying again may work.
    Transient(String),
    /// A non-retryable fault (bad configuration, HTTP 404, dead source).
    Permanent(String),
    /// The payload arrived but could not be parsed (truncated, invalid).
    Malformed(String),
    /// The fetch exceeded its time budget.
    Timeout(String),
}

impl WrapperError {
    /// The human-readable message, without the classification.
    pub fn message(&self) -> &str {
        match self {
            WrapperError::Transient(m)
            | WrapperError::Permanent(m)
            | WrapperError::Malformed(m)
            | WrapperError::Timeout(m) => m,
        }
    }

    /// The classification as a lowercase label.
    pub fn kind(&self) -> &'static str {
        match self {
            WrapperError::Transient(_) => "transient",
            WrapperError::Permanent(_) => "permanent",
            WrapperError::Malformed(_) => "malformed",
            WrapperError::Timeout(_) => "timeout",
        }
    }

    /// True when a retry can reasonably be expected to succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, WrapperError::Transient(_))
    }
}

impl fmt::Display for WrapperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrapper error ({}): {}", self.kind(), self.message())
    }
}

impl std::error::Error for WrapperError {}

impl From<WrapperError> for ExecError {
    fn from(error: WrapperError) -> Self {
        let kind = match &error {
            WrapperError::Transient(_) => ErrorKind::Transient,
            WrapperError::Permanent(_) => ErrorKind::Permanent,
            WrapperError::Malformed(_) => ErrorKind::Malformed,
            WrapperError::Timeout(_) => ErrorKind::Timeout,
        };
        ExecError::new(kind, error.message().to_string())
    }
}

/// A runnable wrapper: a signature, the release it reads, and the binding of
/// each signature attribute to a flattened payload column.
///
/// The binding layer is where the paper's renames happen: the Players
/// wrapper exposes `foot` for the payload's `preferred_foot` and `pName` for
/// `name` (Figure 6's `w1(id, pName, height, weight, score, foot, teamId)`).
#[derive(Debug)]
pub struct Wrapper {
    signature: Signature,
    /// The data source (endpoint) this wrapper reads, e.g. `PlayersAPI`.
    source: String,
    /// The schema version it consumes.
    version: u32,
    /// `attribute → flattened payload column` pairs, one per attribute.
    bindings: Vec<(String, String)>,
    release: Release,
    /// An attached fault schedule makes every [`Wrapper::rows`] or
    /// [`Wrapper::columns`] call a fresh simulated fetch whose *fate* the
    /// plan injects; the resident columns stay (a wrapper models one
    /// snapshot).
    faults: Option<Arc<FaultPlan>>,
    /// The clean payload as term columns plus its row count, resident
    /// from the first clean [`Wrapper::columns`] for as long as this
    /// instance lives. A wrapper reads one immutable release, and term ids
    /// are valid for the process lifetime, so nothing ever invalidates
    /// them: a new release, a re-registration, `unregister` or a restore
    /// replaces or drops the *instance*, and the columns go with it.
    columns: OnceLock<Result<(EncodedScan, usize), WrapperError>>,
    /// Fetches (`rows()` or `columns()` calls) on this instance — the
    /// observable the scan cache's once-per-query guarantee is asserted
    /// against.
    fetches: std::sync::atomic::AtomicU64,
}

impl Clone for Wrapper {
    fn clone(&self) -> Self {
        Wrapper {
            signature: self.signature.clone(),
            source: self.source.clone(),
            version: self.version,
            bindings: self.bindings.clone(),
            release: self.release.clone(),
            faults: self.faults.clone(),
            columns: OnceLock::new(),
            fetches: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Wrapper {
    /// Builds a wrapper over a release.
    ///
    /// `bindings` maps each signature attribute to the flattened payload
    /// column it reads. Every signature attribute must be bound exactly once;
    /// binding an attribute to a column the payload lacks is *allowed* (it
    /// produces NULLs) because that is precisely what happens when a source
    /// evolves under a wrapper — MDM's job is to detect and govern it.
    pub fn over_release(
        signature: Signature,
        source: impl Into<String>,
        release: Release,
        bindings: impl IntoIterator<Item = (impl Into<String>, impl Into<String>)>,
    ) -> Result<Self, WrapperError> {
        let bindings: Vec<(String, String)> = bindings
            .into_iter()
            .map(|(a, c)| (a.into(), c.into()))
            .collect();
        for attribute in signature.attributes() {
            let count = bindings.iter().filter(|(a, _)| a == attribute).count();
            if count != 1 {
                return Err(WrapperError::Permanent(format!(
                    "attribute '{attribute}' of {signature} must be bound exactly once, found {count}",
                )));
            }
        }
        if bindings.len() != signature.arity() {
            return Err(WrapperError::Permanent(format!(
                "{signature} has {} attributes but {} bindings",
                signature.arity(),
                bindings.len()
            )));
        }
        Ok(Wrapper {
            signature,
            source: source.into(),
            version: release.version,
            bindings,
            release,
            faults: None,
            columns: OnceLock::new(),
            fetches: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Convenience: bindings are identity (attribute name == payload column).
    pub fn identity_over_release(
        signature: Signature,
        source: impl Into<String>,
        release: Release,
    ) -> Result<Self, WrapperError> {
        let bindings: Vec<(String, String)> = signature
            .attributes()
            .iter()
            .map(|a| (a.clone(), a.clone()))
            .collect();
        Wrapper::over_release(signature, source, release, bindings)
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The wrapper name (signature name).
    pub fn name(&self) -> &str {
        self.signature.name()
    }

    /// The data source name.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The consumed schema version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The attribute → payload-column bindings.
    pub fn bindings(&self) -> &[(String, String)] {
        &self.bindings
    }

    /// The release this wrapper reads — primaries serialise it so replicas
    /// can hydrate an identical executable wrapper.
    pub fn release(&self) -> &Release {
        &self.release
    }

    /// Attaches a fault schedule: every subsequent fetch draws its fate
    /// from the plan. The resident columns are kept: a plan decides fates,
    /// not content.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// The attached fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Fetches (`rows()` or `columns()` calls) on this instance so far
    /// (the per-query scan cache is asserted against this: k branches, 1
    /// fetch).
    pub fn fetch_count(&self) -> u64 {
        self.fetches.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes of term columns this instance keeps resident (rows × arity ×
    /// 16), `None` until a clean [`Wrapper::columns`] filled them.
    pub fn resident_bytes(&self) -> Option<usize> {
        let (_, rows) = self.columns.get()?.as_ref().ok()?;
        Some(rows * self.signature.arity() * 16)
    }

    /// Bytes of the hash-join indexes built on this instance's resident
    /// columns (one per column a single-key join has built on); 0 until a
    /// join indexed one. They are owned by the columns, so they go with
    /// this instance, like the columns themselves.
    pub fn resident_index_bytes(&self) -> usize {
        match self.columns.get() {
            Some(Ok((columns, _))) => columns.iter().map(|c| c.index_bytes()).sum(),
            _ => 0,
        }
    }

    /// Counts one simulated fetch and draws its fate from the attached
    /// plan, if any: an injected failure is the `Err`, `Ok(None)` serves
    /// the clean payload, `Ok(Some(body))` is a truncated body.
    fn draw_fetch(&self) -> Result<Option<String>, WrapperError> {
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(plan) = &self.faults else {
            return Ok(None);
        };
        match plan.next_fault(self.name()) {
            Some(InjectedFault::Terminal) => Err(WrapperError::Permanent(format!(
                "{}: source '{}' is gone (injected terminal fault)",
                self.name(),
                self.source
            ))),
            Some(InjectedFault::Transient) => Err(WrapperError::Transient(format!(
                "{}: HTTP 503 from '{}' (injected transient fault, attempt {})",
                self.name(),
                self.source,
                plan.attempts(self.name())
            ))),
            Some(InjectedFault::Malformed) => Ok(Some(truncate_body(&self.release.body))),
            Some(InjectedFault::Latency(delay)) => {
                std::thread::sleep(delay);
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Fetches, parses, flattens and maps the payload into signature rows:
    /// the uncached view, for inspection and for the oracles that check
    /// [`Wrapper::columns`] against a payload typed independently of it.
    ///
    /// It is one fetch, like `columns()` — one `fetch_count` bump, one fate
    /// drawn from an attached plan — but it keeps nothing: every call
    /// parses and types the body (or, under a `Malformed` outcome, the
    /// truncated body) afresh. Queries never call it.
    pub fn rows(&self) -> Result<Vec<Tuple>, WrapperError> {
        match self.draw_fetch()? {
            Some(truncated) => self.compute_rows(&truncated),
            None => self.compute_rows(&self.release.body),
        }
    }

    /// [`Wrapper::rows`] as shared term columns plus the row count: the
    /// same fetch (one `fetch_count` bump, one fate drawn per call), the
    /// same relation cell for cell. This is what every scan pulls. The
    /// clean payload is streamed into term columns once, on the first clean
    /// call, and stays resident with this instance; every later clean call
    /// is an `Arc` clone. A `Malformed` outcome streams the truncated body
    /// fresh and is never memoised.
    pub fn columns(&self) -> Result<(EncodedScan, usize), WrapperError> {
        match self.draw_fetch()? {
            Some(truncated) => self.compute_columns(&truncated),
            None => self
                .columns
                .get_or_init(|| self.compute_columns(&self.release.body))
                .clone(),
        }
    }

    /// Streams `body` straight into term columns, one record at a time:
    /// each row's bound cells are typed and interned as they arrive, so a
    /// fill holds one record's tree plus the column builders — never the
    /// document, its text rows or its tuples. A body that fails to parse
    /// interns only what its complete records hold.
    fn compute_columns(&self, body: &str) -> Result<(EncodedScan, usize), WrapperError> {
        let mut columns = TermColumnsBuilder::new(self.bindings.len());
        let mut rows = 0;
        let mut scratch = String::new();
        self.release
            .stream_rows(body, &mut |row| {
                for (c, (_, column)) in self.bindings.iter().enumerate() {
                    // A later cell for a column overrides an earlier one.
                    let text = row
                        .iter()
                        .rev()
                        .find(|(name, _)| name == column)
                        .map_or("", |(_, cell)| cell.text(&mut scratch));
                    columns.push(c, text);
                }
                rows += 1;
            })
            .map_err(|e| self.malformed(e))?;
        Ok((Arc::new(columns.finish()), rows))
    }

    /// Parses the whole body into a document, flattens it into text rows
    /// and types those: the tree path, kept for [`Wrapper::rows`] as a view
    /// independent of [`Wrapper::columns`]' stream.
    fn compute_rows(&self, body: &str) -> Result<Vec<Tuple>, WrapperError> {
        let value = self
            .release
            .parse_body(body)
            .map_err(|e| self.malformed(e))?;
        let flat: Vec<Row> = flatten_rows(&value, &FlattenOptions::default());
        let rows = flat
            .into_iter()
            .map(|row| {
                self.bindings
                    .iter()
                    .map(|(_, column)| {
                        row.get(column.as_str())
                            .map(|text| Value::from_text(text))
                            .unwrap_or(Value::Null)
                    })
                    .collect::<Tuple>()
            })
            .collect();
        Ok(rows)
    }

    /// A body's parse error, named after this wrapper.
    fn malformed(&self, error: WrapperError) -> WrapperError {
        WrapperError::Malformed(format!("{}: {}", self.name(), error.message()))
    }

    /// The flattened payload columns this release actually provides — the
    /// raw material for MDM's automatic *schema extraction* step (§2.2).
    pub fn payload_columns(&self) -> Result<Vec<String>, WrapperError> {
        self.release.payload_columns()
    }

    /// Bindings whose payload column is absent from the release — the
    /// *dangling* bindings a breaking schema change leaves behind.
    pub fn dangling_bindings(&self) -> Result<Vec<&str>, WrapperError> {
        let columns = self.payload_columns()?;
        Ok(self
            .bindings
            .iter()
            .filter(|(_, column)| !columns.contains(column))
            .map(|(attribute, _)| attribute.as_str())
            .collect())
    }
}

impl RelationProvider for Wrapper {
    fn provider_schema(&self) -> Schema {
        Schema::qualified(self.name(), self.signature.attributes().to_vec())
    }

    fn columns(&self) -> Result<(EncodedScan, usize), ExecError> {
        Wrapper::columns(self).map_err(ExecError::from)
    }

    fn version(&self) -> u64 {
        u64::from(self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::Format;

    fn players_release() -> Release {
        Release {
            version: 1,
            format: Format::Json,
            body: r#"[
                {"id":6176,"name":"Lionel Messi","height":170.18,"weight":159,
                 "rating":94,"preferred_foot":"left","team_id":25},
                {"id":6177,"name":"Robert Lewandowski","height":184.0,"weight":176,
                 "rating":92,"preferred_foot":"right","team_id":27}
            ]"#
            .to_string(),
            notes: String::new(),
        }
    }

    /// The paper's w1 with its renames (name→pName, rating→score,
    /// preferred_foot→foot, team_id→teamId).
    fn w1() -> Wrapper {
        Wrapper::over_release(
            Signature::new(
                "w1",
                ["id", "pName", "height", "weight", "score", "foot", "teamId"],
            )
            .unwrap(),
            "PlayersAPI",
            players_release(),
            [
                ("id", "id"),
                ("pName", "name"),
                ("height", "height"),
                ("weight", "weight"),
                ("score", "rating"),
                ("foot", "preferred_foot"),
                ("teamId", "team_id"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn signature_display_matches_paper_notation() {
        let s = Signature::new("w2", ["id", "name", "shortName"]).unwrap();
        assert_eq!(s.to_string(), "w2(id, name, shortName)");
    }

    #[test]
    fn signature_rejects_duplicates_and_empties() {
        assert!(Signature::new("w", ["a", "a"]).is_err());
        assert!(Signature::new("w", [""]).is_err());
        assert!(Signature::new("", ["a"]).is_err());
        assert!(Signature::new("w", Vec::<String>::new()).is_err());
    }

    #[test]
    fn validation_errors_are_permanent() {
        let err = Signature::new("w", ["a", "a"]).unwrap_err();
        assert!(matches!(err, WrapperError::Permanent(_)));
        assert_eq!(err.kind(), "permanent");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("permanent"));
    }

    #[test]
    fn wrapper_produces_renamed_rows() {
        let w = w1();
        let rows = w.rows().unwrap();
        assert_eq!(rows.len(), 2);
        // pName column (index 1) carries the payload's "name".
        assert_eq!(rows[0][1], Value::str("Lionel Messi"));
        // foot column (index 5) carries "preferred_foot".
        assert_eq!(rows[0][5], Value::str("left"));
        assert_eq!(rows[0][6], Value::Int(25));
    }

    #[test]
    fn provider_schema_is_qualified() {
        let w = w1();
        let schema = RelationProvider::provider_schema(&w);
        assert_eq!(schema.len(), 7);
        assert!(schema
            .index_of(&mdm_relational::schema::ColumnRef::qualified("w1", "pName"))
            .is_ok());
    }

    #[test]
    fn missing_column_produces_nulls_and_dangles() {
        // Wrapper binds an attribute to a column the payload doesn't have —
        // the evolved-source failure mode.
        let w = Wrapper::over_release(
            Signature::new("w1b", ["id", "nationality"]).unwrap(),
            "PlayersAPI",
            players_release(),
            [("id", "id"), ("nationality", "nationality")],
        )
        .unwrap();
        let rows = w.rows().unwrap();
        assert!(rows[0][1].is_null());
        assert_eq!(w.dangling_bindings().unwrap(), vec!["nationality"]);
        assert!(w1().dangling_bindings().unwrap().is_empty());
    }

    #[test]
    fn binding_validation() {
        let sig = Signature::new("w", ["a", "b"]).unwrap();
        // Missing binding for b.
        assert!(
            Wrapper::over_release(sig.clone(), "S", players_release(), [("a", "id")],).is_err()
        );
        // Duplicate binding for a.
        assert!(
            Wrapper::over_release(sig, "S", players_release(), [("a", "id"), ("a", "name")],)
                .is_err()
        );
    }

    #[test]
    fn payload_columns_reflect_schema_extraction() {
        let columns = w1().payload_columns().unwrap();
        assert!(columns.contains(&"preferred_foot".to_string()));
        assert!(columns.contains(&"team_id".to_string()));
        assert_eq!(columns.len(), 7);
    }

    #[test]
    fn malformed_payload_surfaces_error() {
        let w = Wrapper::identity_over_release(
            Signature::new("w", ["id"]).unwrap(),
            "S",
            Release {
                version: 1,
                format: Format::Json,
                body: "{broken".to_string(),
                notes: String::new(),
            },
        )
        .unwrap();
        let err = w.rows().unwrap_err();
        assert!(matches!(err, WrapperError::Malformed(_)), "{err}");
        // Every call types the body again, to the same error.
        assert_eq!(w.rows().unwrap_err(), err);
        assert_eq!(w.columns().unwrap_err(), err);
    }

    #[test]
    fn rows_are_typed_fresh_and_leave_the_columns_alone() {
        let w = w1();
        let first = w.rows().unwrap();
        assert_eq!(w.rows().unwrap(), first);
        assert_eq!(w.fetch_count(), 2);
        // `rows()` keeps nothing: the resident columns are filled only by
        // `columns()`.
        assert_eq!(w.resident_bytes(), None);
        w.columns().unwrap();
        assert_eq!(w.resident_bytes(), Some(2 * 7 * 16));
        // A clone starts without resident columns. The clone is the
        // behaviour under test, not a copy to optimise away.
        #[allow(clippy::redundant_clone)]
        let fresh_clone = w.clone();
        assert_eq!(fresh_clone.resident_bytes(), None);
    }

    #[test]
    fn fault_plan_turns_fetches_flaky_then_ok() {
        let mut w = w1();
        // 100% transient for attempts 1-2, clean afterwards.
        w.set_fault_plan(Some(Arc::new(
            FaultPlan::seeded(11)
                .transient_window(1, 1.0)
                .transient_window(3, 0.0),
        )));
        let e1 = w.rows().unwrap_err();
        assert!(e1.is_transient(), "{e1}");
        assert!(e1.message().contains("attempt 1"));
        assert!(w.rows().unwrap_err().is_transient());
        assert_eq!(w.rows().unwrap().len(), 2);
    }

    #[test]
    fn terminal_fault_is_permanent() {
        let mut w = w1();
        w.set_fault_plan(Some(Arc::new(FaultPlan::seeded(0).kill("w1"))));
        let err = w.rows().unwrap_err();
        assert!(matches!(err, WrapperError::Permanent(_)), "{err}");
        assert!(err.message().contains("PlayersAPI"));
    }

    #[test]
    fn malformed_fault_truncates_payload() {
        let mut w = w1();
        w.set_fault_plan(Some(Arc::new(FaultPlan::seeded(0).malformed_rate(1.0))));
        let err = w.rows().unwrap_err();
        assert!(matches!(err, WrapperError::Malformed(_)), "{err}");
    }

    #[test]
    fn exec_error_conversion_preserves_kind() {
        let exec: ExecError = WrapperError::Transient("hiccup".to_string()).into();
        assert_eq!(exec.kind, ErrorKind::Transient);
        assert_eq!(exec.message, "hiccup");
        let exec: ExecError = WrapperError::Timeout("slow".to_string()).into();
        assert_eq!(exec.kind, ErrorKind::Timeout);
    }
}
