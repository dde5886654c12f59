//! Robustness: parsers must never panic, whatever bytes arrive. (External
//! REST APIs are exactly the place malformed payloads come from.)

use proptest::prelude::*;

use mdm_dataform::{json, Value};

/// The record stream never panics, and it succeeds or fails exactly as
/// `json::parse` does: the same records (a top-level array's elements, or
/// the document) or the same error at the same line:column.
fn stream_agrees_with_parse(input: &str) -> Result<(), TestCaseError> {
    let streamed: Result<Vec<Value>, _> = json::records(input).collect();
    match (json::parse(input), streamed) {
        (Ok(Value::Array(items)), Ok(records)) => prop_assert_eq!(records, items),
        (Ok(document), Ok(records)) => prop_assert_eq!(records, vec![document]),
        (Err(parsed), Err(streamed)) => prop_assert_eq!(streamed, parsed),
        (parsed, streamed) => {
            prop_assert!(false, "parse gave {parsed:?}, the stream {streamed:?}")
        }
    }
    Ok(())
}

/// Small JSON documents, printed compactly or pretty: a top-level array of
/// records most of the time.
fn json_document() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("null".to_string()),
        Just("true".to_string()),
        "-?[0-9]{1,4}(\\.[0-9]{1,2})?(e[0-9])?",
        "\"[a-z\\\\\"é]{0,4}\"",
    ];
    let value = leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone(),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| format!("[{}]", items.join(","))),
            proptest::collection::vec(("[a-c]", inner), 0..4).prop_map(|fields| {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }),
        ]
    });
    (proptest::collection::vec(value, 0..5), any::<bool>()).prop_map(|(records, pretty)| {
        if pretty {
            format!("[\n  {}\n]\n", records.join(",\n  "))
        } else {
            format!("[{}]", records.join(","))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_record_stream_agrees_with_parse(input in "\\PC*") {
        stream_agrees_with_parse(&input)?;
    }

    #[test]
    fn json_record_stream_agrees_with_parse_on_jsonish(input in "[{}\\[\\]\",:0-9a-z\\\\ .eE+-]*") {
        stream_agrees_with_parse(&input)?;
    }

    /// Every prefix of a document — a body cut short in transit — and the
    /// document with a byte of garbage appended.
    #[test]
    fn json_record_stream_agrees_with_parse_on_every_cut(document in json_document()) {
        for cut in (0..=document.len()).filter(|&cut| document.is_char_boundary(cut)) {
            stream_agrees_with_parse(&document[..cut])?;
        }
        stream_agrees_with_parse(&format!("{document}x"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parser_never_panics(input in "\\PC*") {
        let _ = mdm_dataform::json::parse(&input);
    }

    #[test]
    fn json_parser_never_panics_on_jsonish(input in "[{}\\[\\]\",:0-9a-z\\\\ .eE+-]*") {
        let _ = mdm_dataform::json::parse(&input);
    }

    /// Nesting of any depth parses up to the limit and fails past it; it
    /// never exhausts the stack, in either document parser or the record
    /// stream.
    #[test]
    fn nesting_never_overflows_the_stack(
        depth in prop_oneof![1usize..300, 300usize..50_000],
    ) {
        let fits = depth <= json::MAX_DEPTH;
        let array = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        prop_assert_eq!(json::parse(&array).is_ok(), fits);
        prop_assert_eq!(json::records(&array).all(|r| r.is_ok()), fits);
        let object = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        prop_assert_eq!(json::parse(&object).is_ok(), fits);
        let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        prop_assert_eq!(mdm_dataform::xml::parse(&xml).is_ok(), depth <= mdm_dataform::xml::MAX_DEPTH);
    }

    #[test]
    fn xml_parser_never_panics(input in "\\PC*") {
        let _ = mdm_dataform::xml::parse(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_xmlish(input in "[<>/=\"'a-z0-9 &;!\\[\\]-]*") {
        let _ = mdm_dataform::xml::parse(&input);
    }

    #[test]
    fn csv_parser_never_panics(input in "\\PC*") {
        let _ = mdm_dataform::csv::parse(&input);
    }
}
