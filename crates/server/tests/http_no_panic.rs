//! `http::parse_buffered`, the parser that faces every socket, never
//! panics and never allocates past a small multiple of the bytes it holds.
//!
//! The event loop re-parses a connection's buffer each time bytes arrive,
//! so a parse of a prefix must cost what the prefix costs: a head that
//! declares a 16 MiB body allocates nothing for it until the body is
//! there. Each parse is fed arbitrary bytes, and request-shaped bytes cut
//! short, with one bit flipped, or with garbage appended. Every call must
//! return `Ok` or `Err`, and the largest single allocation it makes must
//! stay within [`budget`] of its input. A counting allocator in this test
//! binary measures the largest request per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdm_server::http::parse_buffered;
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

/// Wraps [`System`], noting the largest request the current thread makes.
struct LargestAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Runs `f`, returning its value and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// What a parse of `input` bytes may ask for at once: a few times the
/// input (a header line's buffer doubles as it grows) plus a fixed
/// allowance for error messages.
fn budget(input: usize) -> usize {
    8 * input + 4096
}

/// Parses `bytes`, checking the allocation bound, and returns whether the
/// parse found a complete request, nothing yet, or garbage.
fn parse_within_budget(bytes: &[u8]) -> Result<Option<(Vec<u8>, usize)>, TestCaseError> {
    let (parsed, largest) = largest_allocation(|| parse_buffered(bytes));
    prop_assert!(
        largest <= budget(bytes.len()),
        "{largest} B for {} B",
        bytes.len()
    );
    Ok(parsed
        .ok()
        .flatten()
        .map(|(request, consumed)| (request.body, consumed)))
}

/// A declared body length: small, near the 16 MiB cap, past it, or not a
/// number.
fn content_length() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..64).prop_map(|n| n.to_string()),
        (0usize..1 << 24).prop_map(|n| n.to_string()),
        Just((16 * 1024 * 1024).to_string()),
        Just((16 * 1024 * 1024 + 1).to_string()),
        Just(u64::MAX.to_string()),
        "[ -~]{0,8}",
    ]
}

/// A request head — a method and target, a few headers, a
/// `Content-Length`, the blank line — with the length it declares and
/// whether its request line is one the parser takes.
fn head() -> impl Strategy<Value = (Vec<u8>, String, bool)> {
    (
        prop_oneof![
            Just("GET".to_string()),
            Just("POST".to_string()),
            "[A-Z]{1,7}"
        ],
        "/[a-z/?=&]{0,16}",
        prop_oneof![
            Just("HTTP/1.1".to_string()),
            Just("HTTP/1.0".to_string()),
            "[ -~]{0,9}",
        ],
        vec(("[a-zA-Z-]{1,12}", "[ -~]{0,16}"), 0..4),
        content_length(),
    )
        .prop_map(|(method, target, version, headers, length)| {
            let mut head = format!("{method} {target} {version}\r\n");
            for (name, value) in headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(&format!("Content-Length: {length}\r\n\r\n"));
            let http1 = version
                .split_whitespace()
                .next()
                .is_some_and(|version| version.starts_with("HTTP/1."));
            (head.into_bytes(), length, http1)
        })
}

/// How request bytes are damaged before they are parsed.
#[derive(Clone, Debug)]
enum Damage {
    Intact,
    /// Keep this many leading bytes (modulo the length).
    Cut(usize),
    /// Flip bit `.1 % 8` of byte `.0` (modulo the length).
    Flip(usize, u8),
    Append(Vec<u8>),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Intact),
        any::<usize>().prop_map(Damage::Cut),
        (any::<usize>(), any::<u8>()).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        vec(any::<u8>(), 1..40).prop_map(Damage::Append),
    ]
}

impl Damage {
    fn apply(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        match self {
            Damage::Intact => {}
            Damage::Cut(keep) => bytes.truncate(keep % bytes.len().max(1)),
            Damage::Flip(at, bit) => {
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] ^= 1 << (bit % 8);
                }
            }
            Damage::Append(garbage) => bytes.extend_from_slice(garbage),
        }
        bytes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(bytes in vec(any::<u8>(), 0..512)) {
        parse_within_budget(&bytes)?;
    }

    /// A head, as much of its body as is there, and damage: the parse
    /// allocates for what it holds, not for what the head declares, and an
    /// intact request whose body is all there comes back whole.
    #[test]
    fn a_request_parses_within_its_bytes(
        request in head(),
        body in vec(any::<u8>(), 0..64),
        damage in damage(),
    ) {
        let (head, length, http1) = request;
        let mut intact = head;
        intact.extend_from_slice(&body);
        let bytes = damage.apply(intact.clone());
        let parsed = parse_within_budget(&bytes)?;
        if bytes == intact && http1 && length.trim().parse() == Ok(body.len()) {
            prop_assert_eq!(parsed, Some((body, intact.len())));
        }
    }
}

/// A 70-byte head that declares the largest body the server takes: every
/// re-parse while the body trickles in is "incomplete", and none of them
/// allocates the 16 MiB.
#[test]
fn a_declared_body_is_not_allocated_before_it_arrives() {
    let head = b"POST /analyst/query HTTP/1.1\r\nHost: x\r\nContent-Length: 16777216\r\n\r\n";
    let mut bytes = head.to_vec();
    for arrived in [0, 1, 4096, 65_536] {
        bytes.resize(head.len() + arrived, b'x');
        let (parsed, largest) = largest_allocation(|| parse_buffered(&bytes));
        assert!(
            matches!(parsed, Ok(None)),
            "{arrived} body bytes of 16 MiB parse as incomplete"
        );
        assert!(
            largest <= budget(bytes.len()),
            "{largest} B allocated for {} B buffered",
            bytes.len()
        );
    }
}
