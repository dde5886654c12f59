//! Declarative wrapper definitions.
//!
//! The paper keeps wrapper bodies out of MDM's scope ("the definition of a
//! wrapper … should be carried out by the data steward"), but stewards still
//! need to *hand the definitions over*. This module accepts a JSON document
//! describing the wrappers of one source — name, consumed version, and the
//! ordered attribute→column bindings — and instantiates [`Wrapper`]s
//! against a [`RestSource`]'s published releases:
//!
//! ```json
//! {
//!   "source": "PlayersAPI",
//!   "wrappers": [
//!     {
//!       "name": "w1",
//!       "version": 1,
//!       "bindings": [
//!         {"attribute": "id",    "column": "id"},
//!         {"attribute": "pName", "column": "name"}
//!       ]
//!     }
//!   ]
//! }
//! ```

use std::fmt;

use mdm_dataform::{json, Value};

use crate::rest::RestSource;
use crate::wrapper::{Signature, Wrapper};

/// A parsed wrapper-configuration document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrapperConfig {
    pub source: String,
    pub wrappers: Vec<WrapperSpec>,
}

/// One wrapper's declarative definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrapperSpec {
    pub name: String,
    pub version: u32,
    /// `(attribute, payload column)` in signature order.
    pub bindings: Vec<(String, String)>,
}

/// A configuration error with a JSON-path-ish location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wrapper config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parses a configuration document.
pub fn parse(text: &str) -> Result<WrapperConfig, ConfigError> {
    let document = json::parse(text).map_err(|e| ConfigError(e.to_string()))?;
    let source = require_str(&document, "source")?.to_string();
    let wrappers_value = document
        .get("wrappers")
        .ok_or_else(|| ConfigError("missing 'wrappers' array".to_string()))?;
    let wrapper_items = wrappers_value
        .as_array()
        .ok_or_else(|| ConfigError("'wrappers' must be an array".to_string()))?;
    let mut wrappers = Vec::with_capacity(wrapper_items.len());
    for (index, item) in wrapper_items.iter().enumerate() {
        let at = |field: &str| format!("wrappers[{index}].{field}");
        let name = require_str(item, "name")
            .map_err(|e| ConfigError(format!("{}: {}", at("name"), e.0)))?
            .to_string();
        let version = item
            .get("version")
            .and_then(Value::as_number)
            .and_then(|n| n.as_i64())
            .filter(|v| *v > 0)
            .ok_or_else(|| ConfigError(format!("{} must be a positive integer", at("version"))))?
            as u32;
        let bindings_value = item
            .get("bindings")
            .and_then(Value::as_array)
            .ok_or_else(|| ConfigError(format!("{} must be an array", at("bindings"))))?;
        let mut bindings = Vec::with_capacity(bindings_value.len());
        for (bi, binding) in bindings_value.iter().enumerate() {
            let attribute = require_str(binding, "attribute")
                .map_err(|e| ConfigError(format!("{}[{bi}].attribute: {}", at("bindings"), e.0)))?;
            let column = require_str(binding, "column")
                .map_err(|e| ConfigError(format!("{}[{bi}].column: {}", at("bindings"), e.0)))?;
            bindings.push((attribute.to_string(), column.to_string()));
        }
        if bindings.is_empty() {
            return Err(ConfigError(format!("{} must not be empty", at("bindings"))));
        }
        wrappers.push(WrapperSpec {
            name,
            version,
            bindings,
        });
    }
    if wrappers.is_empty() {
        return Err(ConfigError("'wrappers' must not be empty".to_string()));
    }
    Ok(WrapperConfig { source, wrappers })
}

fn require_str<'a>(value: &'a Value, field: &str) -> Result<&'a str, ConfigError> {
    value
        .get(field)
        .and_then(Value::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| ConfigError(format!("missing or empty '{field}'")))
}

impl WrapperConfig {
    /// Instantiates every declared wrapper against the source's releases.
    ///
    /// The endpoint's name must match the config's `source`, and every
    /// referenced version must be published.
    pub fn instantiate(&self, endpoint: &RestSource) -> Result<Vec<Wrapper>, ConfigError> {
        if endpoint.name() != self.source {
            return Err(ConfigError(format!(
                "config is for source '{}' but the endpoint is '{}'",
                self.source,
                endpoint.name()
            )));
        }
        self.wrappers
            .iter()
            .map(|spec| {
                let release = endpoint.release(spec.version).ok_or_else(|| {
                    ConfigError(format!(
                        "wrapper '{}' consumes v{} which '{}' has not published \
                         (available: {:?})",
                        spec.name,
                        spec.version,
                        self.source,
                        endpoint.versions()
                    ))
                })?;
                let attributes: Vec<String> =
                    spec.bindings.iter().map(|(a, _)| a.clone()).collect();
                let signature = Signature::new(spec.name.clone(), attributes)
                    .map_err(|e| ConfigError(e.to_string()))?;
                Wrapper::over_release(
                    signature,
                    self.source.clone(),
                    release.clone(),
                    spec.bindings.clone(),
                )
                .map_err(|e| ConfigError(e.to_string()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rest::{Format, Release};

    fn endpoint() -> RestSource {
        let mut source = RestSource::new("PlayersAPI");
        source.publish(Release {
            version: 1,
            format: Format::Json,
            body: r#"[{"id":1,"name":"Messi","rating":94}]"#.to_string(),
            notes: String::new(),
        });
        source
    }

    const CONFIG: &str = r#"{
        "source": "PlayersAPI",
        "wrappers": [
            {
                "name": "w1",
                "version": 1,
                "bindings": [
                    {"attribute": "id",    "column": "id"},
                    {"attribute": "pName", "column": "name"},
                    {"attribute": "score", "column": "rating"}
                ]
            }
        ]
    }"#;

    #[test]
    fn parse_and_instantiate() {
        let config = parse(CONFIG).unwrap();
        assert_eq!(config.source, "PlayersAPI");
        assert_eq!(config.wrappers.len(), 1);
        assert_eq!(config.wrappers[0].bindings.len(), 3);
        let wrappers = config.instantiate(&endpoint()).unwrap();
        assert_eq!(wrappers.len(), 1);
        let rows = wrappers[0].rows().unwrap();
        assert_eq!(rows[0][1], mdm_relational::Value::str("Messi"));
        assert_eq!(rows[0][2], mdm_relational::Value::Int(94));
    }

    #[test]
    fn bad_documents_rejected_with_paths() {
        assert!(parse("{").is_err());
        assert!(parse("{}").unwrap_err().0.contains("source"));
        assert!(parse(r#"{"source":"S"}"#)
            .unwrap_err()
            .0
            .contains("wrappers"));
        let err = parse(r#"{"source":"S","wrappers":[{"name":"w","version":0,"bindings":[]}]}"#)
            .unwrap_err();
        assert!(err.0.contains("wrappers[0].version"), "{err}");
        let err = parse(
            r#"{"source":"S","wrappers":[{"name":"w","version":1,"bindings":[{"attribute":"a"}]}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("bindings[0].column"), "{err}");
    }

    #[test]
    fn source_and_version_mismatches_rejected() {
        let config = parse(CONFIG).unwrap();
        let wrong_source = RestSource::new("TeamsAPI");
        assert!(config
            .instantiate(&wrong_source)
            .unwrap_err()
            .0
            .contains("endpoint"));
        let mut unversioned = RestSource::new("PlayersAPI");
        unversioned.publish(Release {
            version: 9,
            format: Format::Json,
            body: "[]".to_string(),
            notes: String::new(),
        });
        let err = config.instantiate(&unversioned).unwrap_err();
        assert!(err.0.contains("v1"), "{err}");
        assert!(err.0.contains("[9]"), "{err}");
    }
}
