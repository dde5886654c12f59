//! A textual notation for walks.
//!
//! The paper's analysts draw walks with the mouse; a CLI needs a textual
//! equivalent. The notation mirrors the figures:
//!
//! ```text
//! ex:Player { ex:playerName, ex:height }
//! sc:SportsTeam { ex:teamName }
//! ex:Player -ex:hasTeam-> sc:SportsTeam
//! ```
//!
//! One line per concept (with its requested features in braces, possibly
//! empty) or per relation edge (`from -property-> to`: the first `->` ends
//! the property, `from` is the first whitespace-delimited token, and the
//! property follows its leading `-`, so names may contain `-`). Prefixed
//! names resolve through the ontology's prefix map; full IRIs in `<…>`
//! work too. `#` outside `<…>` starts a comment.

use mdm_rdf::term::Iri;

use crate::error::MdmError;
use crate::ontology::BdiOntology;
use crate::walk::Walk;

/// Parses the walk notation against an ontology's prefixes.
///
/// The returned walk is *not* validated here — [`Walk::validate`] (or any
/// rewriting entry point) does that, so error messages about unknown
/// concepts/features come from one place.
pub fn parse_walk(text: &str, ontology: &BdiOntology) -> Result<Walk, MdmError> {
    let mut walk = Walk::new();
    for (line_number, raw_line) in text.lines().enumerate() {
        let comment = find_outside_iris(raw_line, "#").unwrap_or(raw_line.len());
        let line = raw_line[..comment].trim();
        if line.is_empty() {
            continue;
        }
        let fail = |message: String| MdmError::Walk(format!("line {}: {message}", line_number + 1));
        if let Some(arrow) = find_outside_iris(line, "->") {
            // Relation line: from -property-> to
            let (from, property) = line[..arrow]
                .split_once(char::is_whitespace)
                .and_then(|(from, rest)| Some((from, rest.trim_start().strip_prefix('-')?)))
                .ok_or_else(|| fail(format!("expected 'from -property-> to' in '{line}'")))?;
            let from = resolve(from, ontology).map_err(&fail)?;
            let property = resolve(property.trim(), ontology).map_err(&fail)?;
            let to = resolve(line[arrow + 2..].trim(), ontology).map_err(&fail)?;
            walk = walk.relation(&from, &property, &to);
            continue;
        }
        if let Some((concept_text, rest)) = line.split_once('{') {
            // Concept line: concept { f1, f2, … }
            let features_text = rest
                .strip_suffix('}')
                .ok_or_else(|| fail("missing closing '}'".to_string()))?;
            let concept = resolve(concept_text.trim(), ontology).map_err(&fail)?;
            walk = walk.concept(&concept);
            for feature_text in features_text.split(',') {
                let feature_text = feature_text.trim();
                if feature_text.is_empty() {
                    continue;
                }
                let feature = resolve(feature_text, ontology).map_err(&fail)?;
                walk = walk.feature(&concept, &feature);
            }
            continue;
        }
        // Bare concept line.
        let concept = resolve(line, ontology).map_err(&fail)?;
        walk = walk.concept(&concept);
    }
    Ok(walk)
}

/// The byte offset of the first `pattern` in `line` that does not start
/// inside a bracketed IRI `<…>`.
fn find_outside_iris(line: &str, pattern: &str) -> Option<usize> {
    let mut in_iri = false;
    for (i, c) in line.char_indices() {
        match c {
            '<' => in_iri = true,
            '>' if in_iri => in_iri = false,
            _ if !in_iri && line[i..].starts_with(pattern) => return Some(i),
            _ => {}
        }
    }
    None
}

/// Renders a walk back into the notation (a parse/print round-trip pair).
pub fn walk_to_text(walk: &Walk, ontology: &BdiOntology) -> String {
    let mut out = String::new();
    for concept in walk.concepts() {
        let features: Vec<String> = walk
            .features_of(concept)
            .iter()
            .map(|f| ontology.compact(f))
            .collect();
        out.push_str(&format!(
            "{} {{ {} }}\n",
            ontology.compact(concept),
            features.join(", ")
        ));
    }
    for (from, property, to) in walk.relations() {
        out.push_str(&format!(
            "{} -{}-> {}\n",
            ontology.compact(from),
            ontology.compact(property),
            ontology.compact(to)
        ));
    }
    out
}

/// Resolves a single prefixed name (`ex:Player`) or bracketed IRI
/// (`<http://…>`) against the ontology's prefix map — the element-name
/// syntax every textual MDM interface (CLI, HTTP API) shares.
pub fn resolve_name(token: &str, ontology: &BdiOntology) -> Result<Iri, MdmError> {
    resolve(token, ontology).map_err(MdmError::Walk)
}

fn resolve(token: &str, ontology: &BdiOntology) -> Result<Iri, String> {
    if token.is_empty() {
        return Err("empty name".to_string());
    }
    if let Some(stripped) = token.strip_prefix('<') {
        let iri = stripped
            .strip_suffix('>')
            .ok_or_else(|| format!("missing '>' in '{token}'"))?;
        if iri.is_empty() {
            return Err("empty IRI '<>'".to_string());
        }
        return Ok(Iri::new(iri.to_string()));
    }
    ontology
        .prefixes()
        .expand(token)
        .ok_or_else(|| format!("unknown prefix in '{token}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ex, figure7_ontology, figure8_walk};

    #[test]
    fn parses_the_figure8_walk() {
        let o = figure7_ontology();
        let text = r#"
            # the Figure 8 OMQ
            ex:Player { ex:playerName }
            sc:SportsTeam { ex:teamName }
            ex:Player -ex:hasTeam-> sc:SportsTeam
        "#;
        let walk = parse_walk(text, &o).unwrap();
        walk.validate(&o).unwrap();
        assert_eq!(walk.concepts().len(), 2);
        assert_eq!(walk.features_of(&ex("Player")), &[ex("playerName")]);
        assert_eq!(walk.relations().len(), 1);
    }

    #[test]
    fn round_trips_through_text() {
        let o = figure7_ontology();
        let original = figure8_walk();
        let text = walk_to_text(&original, &o);
        let reparsed = parse_walk(&text, &o).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn full_iris_accepted() {
        let o = figure7_ontology();
        let text = format!("<{}> {{ <{}> }}", ex("Player"), ex("playerName"));
        let walk = parse_walk(&text, &o).unwrap();
        assert_eq!(walk.concepts().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let o = figure7_ontology();
        let err = parse_walk("\n\nnope:Player { }", &o).unwrap_err();
        assert!(err.message().contains("line 3"));
        assert!(err.message().contains("unknown prefix"));
        let err = parse_walk("ex:Player { ex:playerName", &o).unwrap_err();
        assert!(err.message().contains("missing closing"));
    }

    /// A `#` inside `<…>` is part of the IRI, not a comment.
    #[test]
    fn hash_iris_are_not_comments() {
        let o = figure7_ontology();
        let team = Iri::new("http://other.org/o#Team");
        let name = Iri::new("http://other.org/o#name");
        let walk = parse_walk(
            "<http://other.org/o#Team> { <http://other.org/o#name> } # x",
            &o,
        )
        .unwrap();
        assert_eq!(walk, Walk::new().feature(&team, &name));
    }

    /// A hyphen in a name does not start the relation's property.
    #[test]
    fn hyphenated_names_in_relation_lines() {
        let o = figure7_ontology();
        let walk = parse_walk("ex:Player-Card -ex:hasTeam-> sc:SportsTeam", &o).unwrap();
        let expected = Walk::new().relation(
            &ex("Player-Card"),
            &ex("hasTeam"),
            &mdm_rdf::vocab::schema::SPORTS_TEAM.iri(),
        );
        assert_eq!(walk, expected);
        let err = parse_walk("ex:Player-ex:hasTeam-> sc:SportsTeam", &o).unwrap_err();
        assert!(
            err.message().contains("expected 'from -property-> to'"),
            "{err}"
        );
    }

    #[test]
    fn empty_feature_braces_select_concept_only() {
        let o = figure7_ontology();
        let walk = parse_walk("ex:Player { }", &o).unwrap();
        assert_eq!(walk.concepts().len(), 1);
        assert!(walk.features_of(&ex("Player")).is_empty());
    }

    #[test]
    fn parsed_walk_rewrites_like_builder_walk() {
        let o = figure7_ontology();
        let text = r#"
            sc:SportsTeam { ex:teamName }
            ex:Player { ex:playerName }
            ex:Player -ex:hasTeam-> sc:SportsTeam
        "#;
        let walk = parse_walk(text, &o).unwrap();
        let rewriting =
            crate::rewrite::rewrite_walk(&o, &walk, &crate::rewrite::RewriteOptions::default())
                .unwrap();
        assert_eq!(rewriting.branch_count(), 1);
    }
}
