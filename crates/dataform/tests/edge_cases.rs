//! Edge-case tests for the data-format substrate.

use mdm_dataform::flatten::{flatten_rows, FlattenOptions};
use mdm_dataform::{csv, json, xml, Value};

// ---- JSON ----

#[test]
fn json_deeply_nested_structures() {
    let mut doc = String::from("1");
    for _ in 0..60 {
        doc = format!("[{doc}]");
    }
    let mut v = &json::parse(&doc).unwrap();
    let mut depth = 0;
    while let Some(inner) = v.at(0) {
        v = inner;
        depth += 1;
    }
    assert_eq!(depth, 60);
}

#[test]
fn json_duplicate_keys_last_wins() {
    // RFC 8259 leaves this undefined; we document last-wins (BTreeMap insert).
    let v = json::parse(r#"{"a":1,"a":2}"#).unwrap();
    assert_eq!(v.get("a").unwrap().as_number().unwrap().as_i64(), Some(2));
}

#[test]
fn json_whitespace_everywhere() {
    let v = json::parse(" \n\t { \"a\" : [ 1 , 2 ] } \r\n ").unwrap();
    assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
}

#[test]
fn json_surrogate_pair_round_trip() {
    let v = json::parse(r#""😀""#).unwrap();
    assert_eq!(v.as_str(), Some("😀"));
    let printed = json::to_string(&v);
    assert_eq!(json::parse(&printed).unwrap(), v);
}

#[test]
fn json_error_positions() {
    let err = json::parse("{\n  \"a\": 1,\n  \"b\": }").unwrap_err();
    assert_eq!(err.line, 3, "{err}");
}

// ---- XML ----

#[test]
fn xml_deeply_nested_elements() {
    let mut doc = String::from("x");
    for i in 0..40 {
        doc = format!("<e{i}>{doc}</e{i}>");
    }
    let root = xml::parse(&doc).unwrap();
    assert_eq!(root.name, "e39");
}

#[test]
fn xml_mixed_content_preserved() {
    let root = xml::parse("<p>before <b>bold</b> after</p>").unwrap();
    assert_eq!(root.children.len(), 3);
    assert_eq!(root.text_content(), "before  after");
    assert_eq!(root.first_child("b").unwrap().text_content(), "bold");
}

#[test]
fn xml_attribute_quoting_variants() {
    let root = xml::parse(r#"<t a="double" b='single' c="with 'inner'"/>"#).unwrap();
    assert_eq!(root.attributes.len(), 3);
    assert_eq!(root.attributes[2].1, "with 'inner'");
}

#[test]
fn xml_namespaced_names_kept_verbatim() {
    let root = xml::parse(r#"<ns:t xmlns:ns="http://x/"><ns:c>1</ns:c></ns:t>"#).unwrap();
    assert_eq!(root.name, "ns:t");
    assert!(root.first_child("ns:c").is_some());
}

#[test]
fn xml_to_value_attribute_and_child_name_collision() {
    let v = xml::to_value(&xml::parse(r#"<t id="attr"><id>child</id></t>"#).unwrap());
    assert_eq!(v.get("@id").unwrap().as_str(), Some("attr"));
    assert_eq!(v.get("id").unwrap().as_str(), Some("child"));
}

// ---- CSV ----

#[test]
fn csv_single_column_and_empty_rows() {
    let t = csv::parse("only\nvalue\n\nafter\n").unwrap();
    // The blank line parses as a single empty field row.
    assert_eq!(t.records.len(), 3);
    assert_eq!(t.records[1], vec![""]);
}

#[test]
fn csv_quoted_field_at_record_boundaries() {
    let t = csv::parse("a,b\n\"start\",end\nbegin,\"finish\"").unwrap();
    assert_eq!(t.records[0], vec!["start", "end"]);
    assert_eq!(t.records[1], vec!["begin", "finish"]);
}

// ---- flatten ----

#[test]
fn flatten_three_level_nesting() {
    let v = json::parse(r#"{"a":{"b":{"c":{"d":1}}}}"#).unwrap();
    let rows = flatten_rows(&v, &FlattenOptions::default());
    assert_eq!(rows[0]["a_b_c_d"], "1");
}

#[test]
fn flatten_array_of_arrays() {
    let v = json::parse("[[1,2],[3]]").unwrap();
    let rows = flatten_rows(&v, &FlattenOptions::default());
    // Outer array → rows per element; inner arrays are scalars-lists.
    assert_eq!(rows.len(), 3);
}

#[test]
fn flatten_null_heavy_document() {
    let v = json::parse(r#"[{"a":null,"b":null},{"a":1,"b":null}]"#).unwrap();
    let rows = flatten_rows(&v, &FlattenOptions::default());
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0]["a"], "");
    assert_eq!(rows[1]["a"], "1");
}

#[test]
fn number_edge_values() {
    assert_eq!(
        json::parse(&i64::MAX.to_string()).unwrap(),
        Value::int(i64::MAX)
    );
    assert_eq!(
        json::parse(&i64::MIN.to_string()).unwrap(),
        Value::int(i64::MIN)
    );
    assert_eq!(json::parse("-0.0").unwrap(), Value::float(-0.0));
    assert_eq!(json::parse("1e-10").unwrap(), Value::float(1e-10));
}
