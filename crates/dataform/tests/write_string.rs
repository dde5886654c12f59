//! `json::write_string` copies each run of bytes that needs no escape in
//! one piece. Its oracle is the escaper it replaced, which pushed one
//! `char` at a time: the two must produce the same bytes for every string.

use std::fmt::Write;

use proptest::prelude::*;

use mdm_dataform::json;

/// The char-at-a-time escaper `write_string` used to be.
fn escape_per_char(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn assert_same(s: &str) -> Result<(), TestCaseError> {
    let (mut runs, mut chars) = (String::from("prefix"), String::from("prefix"));
    json::write_string(&mut runs, s);
    escape_per_char(&mut chars, s);
    prop_assert_eq!(runs, chars, "escaping {:?}", s);
    Ok(())
}

/// Any char, each UTF-8 width about equally often.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x80,
        0x80u32..0x800,
        0x800u32..0x1_0000,
        0x1_0000u32..0x11_0000,
    ]
    .prop_map(|scalar| char::from_u32(scalar).unwrap_or('\u{fffd}'))
}

/// A char that sits next to an escape: quotes, backslashes, every control
/// byte, DEL, multi-byte chars and the separators JSON leaves unescaped.
fn arb_awkward_char() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('"'),
        Just('\\'),
        (0u8..0x20).prop_map(char::from),
        Just('\u{7f}'),
        Just('é'),
        Just('€'),
        Just('😀'),
        Just('\u{2028}'),
        Just('\u{2029}'),
        Just('a'),
        Just(' '),
    ]
}

proptest! {
    /// Any string at all.
    #[test]
    fn runs_escape_like_chars(chars in proptest::collection::vec(arb_char(), 0..64)) {
        assert_same(&chars.into_iter().collect::<String>())?;
    }

    /// Strings made of escapes and their neighbours, so runs are short,
    /// empty, first and last.
    #[test]
    fn runs_escape_like_chars_around_escapes(
        chars in proptest::collection::vec(arb_awkward_char(), 0..40),
    ) {
        assert_same(&chars.into_iter().collect::<String>())?;
    }
}

#[test]
fn every_control_byte_and_the_edges() {
    for byte in 0u8..0x80 {
        let c = char::from(byte);
        for s in [
            c.to_string(),
            format!("{c}x"),
            format!("x{c}"),
            format!("{c}{c}"),
        ] {
            assert_same(&s).expect("same bytes");
        }
    }
    for s in ["", "plain", "\u{2028}\"\u{7f}\\é", "😀\n😀"] {
        assert_same(s).expect("same bytes");
    }
}
