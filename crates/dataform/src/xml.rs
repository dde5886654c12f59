//! An XML parser and printer for the subset REST APIs emit.
//!
//! The Teams API of the motivational use case (Figure 2) serves XML:
//!
//! ```xml
//! <team>
//!   <id>25</id>
//!   <name>FC Barcelona</name>
//!   <shortName>FCB</shortName>
//! </team>
//! ```
//!
//! Supported: elements, attributes, character data, entity references
//! (`&lt; &gt; &amp; &quot; &apos;` and numeric `&#...;`), comments,
//! CDATA sections, self-closing tags, and an optional XML declaration.
//! Not supported (REST payloads don't use them): DTDs, processing
//! instructions other than the declaration, namespace resolution (prefixes
//! are kept verbatim in names).
//!
//! [`to_value`] converts an element tree into the unified [`Value`] model
//! with the conventional mapping: attributes become `@name` keys, text-only
//! elements become scalars, repeated child names become arrays.

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Value;

/// An XML element: name, attributes, and ordered children.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<Node>,
}

/// A node in an element's content.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    Element(Element),
    Text(String),
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Adds a text child (builder style).
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// The concatenated text content of this element (direct text children).
    pub fn text_content(&self) -> String {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                Node::Element(_) => None,
            })
            .collect()
    }

    /// Child elements with the given name.
    pub fn children_named(&self, name: &str) -> Vec<&Element> {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Element(e) if e.name == name => Some(e),
                _ => None,
            })
            .collect()
    }

    /// The first child element with the given name.
    pub fn first_child(&self, name: &str) -> Option<&Element> {
        self.children_named(name).into_iter().next()
    }

    /// All child elements, in document order.
    pub fn child_elements(&self) -> Vec<&Element> {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Element(e) => Some(e),
                _ => None,
            })
            .collect()
    }
}

/// An XML parse error with 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// The deepest nesting of elements a document may have, the root counting
/// as one. The parser recurses once per level; past this it fails instead
/// of overflowing the thread's stack on a hostile payload.
pub const MAX_DEPTH: usize = 128;

/// Parses an XML document into its root element. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<Element, XmlError> {
    let mut parser = XmlParser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_prolog()?;
    let root = parser.parse_element()?;
    parser.skip_misc();
    if parser.pos != parser.input.len() {
        return Err(parser.error("trailing content after root element"));
    }
    Ok(root)
}

/// Serialises an element tree with two-space indentation.
pub fn to_string(element: &Element) -> String {
    let mut out = String::new();
    write_element(&mut out, element, 0);
    out
}

fn write_element(out: &mut String, element: &Element, depth: usize) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}<{}", element.name));
    for (name, value) in &element.attributes {
        out.push_str(&format!(" {name}=\"{}\"", escape_text(value, true)));
    }
    if element.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    // Text-only elements stay on one line, like the paper's Figure 2.
    let text_only = element.children.iter().all(|n| matches!(n, Node::Text(_)));
    if text_only {
        out.push('>');
        out.push_str(&escape_text(&element.text_content(), false));
        out.push_str(&format!("</{}>\n", element.name));
        return;
    }
    out.push_str(">\n");
    for child in &element.children {
        match child {
            Node::Element(e) => write_element(out, e, depth + 1),
            Node::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    out.push_str(&format!(
                        "{}{}\n",
                        "  ".repeat(depth + 1),
                        escape_text(trimmed, false)
                    ));
                }
            }
        }
    }
    out.push_str(&format!("{pad}</{}>\n", element.name));
}

fn escape_text(s: &str, in_attribute: bool) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if in_attribute => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Converts an element tree into the unified [`Value`] model.
///
/// * attributes become `"@name"` keys;
/// * an element with only text becomes that text (numbers parse as numbers);
/// * repeated child element names collapse into an array;
/// * an element with no content becomes `Null`.
pub fn to_value(element: &Element) -> Value {
    let text = element.text_content();
    let child_elements = element.child_elements();
    if element.attributes.is_empty() && child_elements.is_empty() {
        return scalar_from_text(text.trim());
    }
    let mut map: BTreeMap<String, Value> = BTreeMap::new();
    for (name, value) in &element.attributes {
        map.insert(format!("@{name}"), scalar_from_text(value));
    }
    // Group children by name preserving first-appearance grouping.
    let mut grouped: BTreeMap<&str, Vec<&Element>> = BTreeMap::new();
    for child in &child_elements {
        grouped.entry(child.name.as_str()).or_default().push(child);
    }
    for (name, elements) in grouped {
        let value = if elements.len() == 1 {
            to_value(elements[0])
        } else {
            Value::Array(elements.iter().map(|e| to_value(e)).collect())
        };
        map.insert(name.to_string(), value);
    }
    let trimmed = text.trim();
    if !trimmed.is_empty() {
        map.insert("#text".to_string(), scalar_from_text(trimmed));
    }
    Value::Object(map)
}

fn scalar_from_text(text: &str) -> Value {
    if text.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = text.parse::<i64>() {
        // Avoid treating "007"-style zero-padded codes as numbers.
        if text == i.to_string() {
            return Value::int(i);
        }
    }
    if let Ok(f) = text.parse::<f64>() {
        if text.contains('.') || text.contains('e') || text.contains('E') {
            return Value::float(f);
        }
    }
    match text {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::string(text),
    }
}

struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Elements open around `pos`.
    depth: usize,
}

impl<'a> XmlParser<'a> {
    fn error(&self, message: impl Into<String>) -> XmlError {
        let consumed = &self.input[..self.pos.min(self.input.len())];
        let line = consumed.iter().filter(|&&c| c == b'\n').count() + 1;
        let column = self.pos
            - consumed
                .iter()
                .rposition(|&c| c == b'\n')
                .map_or(0, |p| p + 1)
            + 1;
        XmlError {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    /// Skips the XML declaration, comments and whitespace before the root.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match find_sub(&self.input[self.pos..], b"?>") {
                Some(end) => self.pos += end + 2,
                None => return Err(self.error("unterminated XML declaration")),
            }
        }
        self.skip_misc();
        Ok(())
    }

    /// Skips whitespace and comments.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match find_sub(&self.input[self.pos..], b"-->") {
                    Some(end) => self.pos += end + 3,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    /// The element starting at `pos`, one level deeper than its parent.
    fn parse_element(&mut self) -> Result<Element, XmlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let element = self.parse_element_body();
        self.depth -= 1;
        element
    }

    fn parse_element_body(&mut self) -> Result<Element, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.error("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(element);
                    }
                    return Err(self.error("expected '>' after '/'"));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"') | Some(b'\'')) {
                        return Err(self.error("attribute value must be quoted"));
                    }
                    let quote = quote.expect("checked");
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in attribute"))?;
                    let value = self.decode_entities(raw)?;
                    self.pos += 1;
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
        // Content until the matching end tag.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let end_name = self.parse_name()?;
                if end_name != element.name {
                    return Err(self.error(format!(
                        "mismatched end tag: expected </{}>, found </{end_name}>",
                        element.name
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected '>' in end tag"));
                }
                self.pos += 1;
                return Ok(element);
            } else if self.starts_with("<!--") {
                match find_sub(&self.input[self.pos..], b"-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                match find_sub(&self.input[self.pos..], b"]]>") {
                    Some(end) => {
                        let text = std::str::from_utf8(&self.input[self.pos..self.pos + end])
                            .map_err(|_| self.error("invalid UTF-8 in CDATA"))?;
                        element.children.push(Node::Text(text.to_string()));
                        self.pos += end + 3;
                    }
                    None => return Err(self.error("unterminated CDATA section")),
                }
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.children.push(Node::Element(child));
            } else if self.peek().is_none() {
                return Err(self.error(format!("missing end tag </{}>", element.name)));
            } else {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in text"))?;
                let text = self.decode_entities(raw)?;
                if !text.trim().is_empty() {
                    element.children.push(Node::Text(text));
                }
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii name")
            .to_string())
    }

    fn decode_entities(&self, raw: &str) -> Result<String, XmlError> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            rest = &rest[amp..];
            let semi = rest
                .find(';')
                .ok_or_else(|| self.error("unterminated entity reference"))?;
            let entity = &rest[1..semi];
            match entity {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    let code = u32::from_str_radix(&entity[2..], 16)
                        .map_err(|_| self.error(format!("bad character reference &{entity};")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.error("invalid character reference"))?,
                    );
                }
                _ if entity.starts_with('#') => {
                    let code = entity[1..]
                        .parse::<u32>()
                        .map_err(|_| self.error(format!("bad character reference &{entity};")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.error("invalid character reference"))?,
                    );
                }
                _ => return Err(self.error(format!("unknown entity &{entity};"))),
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }
}

/// Byte-level substring search (naive; inputs are API payloads, not GBs).
fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEAMS_XML: &str = r#"<team>
  <id>25</id>
  <name>FC Barcelona</name>
  <shortName>FCB</shortName>
</team>"#;

    #[test]
    fn parses_the_teams_api_payload() {
        // Figure 2 of the paper, verbatim.
        let team = parse(TEAMS_XML).unwrap();
        assert_eq!(team.name, "team");
        assert_eq!(team.first_child("id").unwrap().text_content(), "25");
        assert_eq!(
            team.first_child("name").unwrap().text_content(),
            "FC Barcelona"
        );
        assert_eq!(team.first_child("shortName").unwrap().text_content(), "FCB");
    }

    #[test]
    fn to_value_maps_teams_payload() {
        let team = parse(TEAMS_XML).unwrap();
        let v = to_value(&team);
        assert_eq!(v.get("id").unwrap().as_number().unwrap().as_i64(), Some(25));
        assert_eq!(v.get("name").unwrap().as_str(), Some("FC Barcelona"));
    }

    #[test]
    fn attributes_become_at_keys() {
        let v = to_value(&parse(r#"<t id="3"><x>1</x></t>"#).unwrap());
        assert_eq!(v.get("@id").unwrap().as_number().unwrap().as_i64(), Some(3));
    }

    #[test]
    fn repeated_children_become_arrays() {
        let v = to_value(&parse("<teams><team>a</team><team>b</team></teams>").unwrap());
        let teams = v.get("team").unwrap().as_array().unwrap();
        assert_eq!(teams.len(), 2);
        assert_eq!(teams[0].as_str(), Some("a"));
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let root = parse("<r><a/><b></b></r>").unwrap();
        assert_eq!(root.child_elements().len(), 2);
        let v = to_value(&root);
        assert!(v.get("a").unwrap().is_null());
        assert!(v.get("b").unwrap().is_null());
    }

    #[test]
    fn entities_decode_in_text_and_attributes() {
        let root = parse(r#"<r a="&lt;x&gt;">&amp;&#65;&#x42;</r>"#).unwrap();
        assert_eq!(root.attributes[0].1, "<x>");
        assert_eq!(root.text_content(), "&AB");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let root = parse("<r><![CDATA[a < b & c]]></r>").unwrap();
        assert_eq!(root.text_content(), "a < b & c");
    }

    #[test]
    fn comments_and_declaration_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- in -->x</r>\n<!-- bye -->";
        let root = parse(doc).unwrap();
        assert_eq!(root.text_content(), "x");
    }

    #[test]
    fn mismatched_tags_are_errors() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
    }

    #[test]
    fn malformed_attributes_are_errors() {
        assert!(parse("<a b></a>").is_err());
        assert!(parse("<a b=c></a>").is_err());
        assert!(parse(r#"<a b="x></a>"#).is_err());
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn round_trip_through_printer() {
        let original = parse(TEAMS_XML).unwrap();
        let printed = to_string(&original);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(to_value(&original), to_value(&reparsed));
    }

    #[test]
    fn builder_constructs_figure2_team() {
        let team = Element::new("team")
            .child(Element::new("id").text("25"))
            .child(Element::new("name").text("FC Barcelona"))
            .child(Element::new("shortName").text("FCB"));
        let v = to_value(&team);
        assert_eq!(v.get("name").unwrap().as_str(), Some("FC Barcelona"));
    }

    #[test]
    fn zero_padded_codes_stay_strings() {
        let v = to_value(&parse("<r><code>007</code></r>").unwrap());
        assert_eq!(v.get("code").unwrap().as_str(), Some("007"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting deeper than 128 levels");
        assert_eq!((err.line, err.column), (1, 3 * MAX_DEPTH + 1));
        // Far past the limit it is the same error, not a stack overflow.
        assert_eq!(parse(&"<a>".repeat(20_000)).unwrap_err(), err);
    }

    #[test]
    fn unicode_text_survives() {
        let v = to_value(&parse("<r><name>Barça</name></r>").unwrap());
        assert_eq!(v.get("name").unwrap().as_str(), Some("Barça"));
    }
}
