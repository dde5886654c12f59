//! Release diffing: what changed between two payload schemas.
//!
//! When a source publishes a new version, the steward's first question is
//! "what broke?". [`diff_releases`] compares the *flattened column sets* of
//! two releases (the same 1NF view wrappers read) and classifies:
//!
//! * columns only in the old payload — **removed** (breaking for consumers
//!   bound to them);
//! * columns only in the new payload — **added** (non-breaking);
//! * removed/added pairs with high name similarity — **rename candidates**
//!   (breaking, but mechanically re-bindable).
//!
//! The classification mirrors the taxonomy of Caruccio et al. (the survey
//! the paper cites for query/view synchronisation under schema evolution).

use std::fmt;

use crate::rest::Release;

/// The diff between two releases' flat schemas.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReleaseDiff {
    /// Columns present in both.
    pub unchanged: Vec<String>,
    /// Columns the new release dropped.
    pub removed: Vec<String>,
    /// Columns the new release introduced.
    pub added: Vec<String>,
    /// `(old, new, similarity)` pairs proposed as renames. Pairs listed
    /// here are excluded from `removed`/`added`.
    pub renamed: Vec<(String, String, f64)>,
}

impl ReleaseDiff {
    /// True when the change set contains anything that breaks old bindings.
    pub fn is_breaking(&self) -> bool {
        !self.removed.is_empty() || !self.renamed.is_empty()
    }

    /// A change-log style rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (old, new, score) in &self.renamed {
            out.push_str(&format!("RENAME {old} → {new} (similarity {score:.2})\n"));
        }
        for column in &self.removed {
            out.push_str(&format!("REMOVE {column}\n"));
        }
        for column in &self.added {
            out.push_str(&format!("ADD    {column}\n"));
        }
        if out.is_empty() {
            out.push_str("no schema changes\n");
        }
        out
    }
}

/// An error parsing either payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffError(pub String);

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "release diff error: {}", self.0)
    }
}

impl std::error::Error for DiffError {}

/// Minimum similarity for a removed/added pair to count as a rename.
const RENAME_THRESHOLD: f64 = 0.55;

/// Diffs two releases' flattened column sets.
pub fn diff_releases(old: &Release, new: &Release) -> Result<ReleaseDiff, DiffError> {
    let old_columns = columns(old)?;
    let new_columns = columns(new)?;
    let mut removed: Vec<String> = old_columns
        .iter()
        .filter(|c| !new_columns.contains(c))
        .cloned()
        .collect();
    let mut added: Vec<String> = new_columns
        .iter()
        .filter(|c| !old_columns.contains(c))
        .cloned()
        .collect();
    let unchanged: Vec<String> = old_columns
        .iter()
        .filter(|c| new_columns.contains(c))
        .cloned()
        .collect();

    // A wholesale re-nesting (v2 wrapping records under "players") prefixes
    // every new column identically; fold that prefix away before matching.
    let old_prefix = common_prefix(&removed);
    let new_prefix = common_prefix(&added);

    // Greedy best-first rename pairing.
    let mut renamed = Vec::new();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, old_name) in removed.iter().enumerate() {
            for (j, new_name) in added.iter().enumerate() {
                let score = name_similarity(
                    old_name.strip_prefix(&old_prefix).unwrap_or(old_name),
                    new_name.strip_prefix(&new_prefix).unwrap_or(new_name),
                );
                if score >= RENAME_THRESHOLD && best.is_none_or(|(_, _, b)| score > b) {
                    best = Some((i, j, score));
                }
            }
        }
        match best {
            Some((i, j, score)) => {
                let old_name = removed.remove(i);
                let new_name = added.remove(j);
                renamed.push((old_name, new_name, score));
            }
            None => break,
        }
    }
    renamed.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(ReleaseDiff {
        unchanged,
        removed,
        added,
        renamed,
    })
}

/// The longest common prefix of a column set, truncated to the last
/// separator so `players_foo`/`players_fat` folds to `players_`, not
/// `players_f`. Empty unless the set has ≥2 entries.
fn common_prefix(names: &[String]) -> String {
    let Some((first, rest)) = names.split_first() else {
        return String::new();
    };
    if rest.is_empty() {
        return String::new();
    }
    let mut prefix_len = first.len();
    for name in rest {
        prefix_len = prefix_len.min(
            first
                .bytes()
                .zip(name.bytes())
                .take_while(|(a, b)| a == b)
                .count(),
        );
    }
    let prefix = &first[..prefix_len];
    match prefix.rfind('_') {
        Some(idx) => prefix[..=idx].to_string(),
        None => String::new(),
    }
}

fn columns(release: &Release) -> Result<Vec<String>, DiffError> {
    release
        .payload_columns()
        .map_err(|e| DiffError(e.message().to_string()))
}

/// Folded-name similarity (substring containment or edit distance).
fn name_similarity(a: &str, b: &str) -> f64 {
    let fold = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_alphanumeric())
            .flat_map(char::to_lowercase)
            .collect()
    };
    let (a, b) = (fold(a), fold(b));
    if a == b {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if long.contains(short.as_str()) && short.len() >= 3 {
        return 0.7 + 0.3 * short.len() as f64 / long.len() as f64;
    }
    let distance = levenshtein(&a, &b) as f64;
    1.0 - distance / a.len().max(b.len()) as f64
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            current[j + 1] = (previous[j] + usize::from(ca != cb))
                .min(previous[j + 1] + 1)
                .min(current[j] + 1);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::football;
    use crate::rest::Format;

    fn release(body: &str) -> Release {
        Release {
            version: 1,
            format: Format::Json,
            body: body.to_string(),
            notes: String::new(),
        }
    }

    #[test]
    fn identical_releases_diff_empty() {
        let r = release(r#"[{"id":1,"name":"x"}]"#);
        let diff = diff_releases(&r, &r).unwrap();
        assert!(!diff.is_breaking());
        assert_eq!(diff.unchanged.len(), 2);
        assert!(diff.render().contains("no schema changes"));
    }

    #[test]
    fn adds_removes_and_renames_classified() {
        let old = release(r#"[{"id":1,"name":"x","rating":5,"team_id":2}]"#);
        let new = release(r#"[{"id":1,"full_name":"x","team_id":2,"nationality":3}]"#);
        let diff = diff_releases(&old, &new).unwrap();
        assert!(diff.is_breaking());
        // name → full_name is the rename candidate.
        assert_eq!(diff.renamed.len(), 1);
        assert_eq!(diff.renamed[0].0, "name");
        assert_eq!(diff.renamed[0].1, "full_name");
        assert_eq!(diff.removed, vec!["rating"]);
        assert_eq!(diff.added, vec!["nationality"]);
        assert_eq!(diff.unchanged, vec!["id", "team_id"]);
    }

    #[test]
    fn football_v1_to_v2_diff_matches_release_notes() {
        let eco = football::build_default();
        let v1 = eco.players_api.release(1).unwrap();
        let v2 = eco.players_api.release(2).unwrap();
        let diff = diff_releases(v1, v2).unwrap();
        assert!(diff.is_breaking());
        let renames: Vec<(&str, &str)> = diff
            .renamed
            .iter()
            .map(|(a, b, _)| (a.as_str(), b.as_str()))
            .collect();
        assert!(
            renames.contains(&("name", "players_full_name"))
                || renames.iter().any(|(a, _)| *a == "name"),
            "expected a rename involving 'name': {renames:?}"
        );
        // rating disappeared entirely.
        assert!(
            diff.removed.contains(&"rating".to_string())
                || diff.renamed.iter().any(|(a, _, _)| a == "rating"),
            "rating must be flagged: {diff:?}"
        );
    }

    #[test]
    fn nested_payloads_diff_on_flattened_columns() {
        let old = release(r#"[{"id":1,"team_id":2}]"#);
        let new = release(r#"[{"id":1,"team":{"id":2}}]"#);
        let diff = diff_releases(&old, &new).unwrap();
        // team_id vs team_id-from-nesting: flattened new column is team_id!
        // (nesting under "team" + key "id" flattens to "team_id")
        assert!(!diff.is_breaking(), "{diff:?}");
    }

    #[test]
    fn malformed_payload_is_error() {
        let good = release("[]");
        let bad = release("{oops");
        assert!(diff_releases(&good, &bad).is_err());
    }
}
