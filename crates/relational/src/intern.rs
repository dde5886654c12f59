//! String symbols: the data plane's string representation.
//!
//! Wrapper payloads repeat the same strings thousands of times (team names,
//! enum-like attributes, identifiers), and a `String` cell deep-copies on
//! every clone. [`Sym`] makes string cells cheap to move: short strings
//! (≤ [`INLINE_CAP`] bytes, the vast majority of wrapper cell values) are
//! stored inline with zero heap traffic, and a longer string owns one
//! `Arc<str>`, so every clone of it is a pointer-sized refcount bump.
//!
//! There is no string table here. The one place that maps a string to a
//! shared identity is the columnar [`TermDict`](crate::columnar), which
//! keeps one `Sym` per entry; a string cell becomes a term id there, so
//! two equal long strings built apart need not share an allocation.
//!
//! [`Sym`] behaves exactly like the `String` it replaces: `Eq`/`Ord`/`Hash`
//! all delegate to the underlying `str` (so `Value`'s coercing semantics
//! and every hash table keyed on tuples are unchanged), with an
//! `Arc::ptr_eq` fast path for clones of one long symbol.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Maximum string length stored inline (no allocation).
/// Chosen so `Sym` stays 24 bytes — the same size as the `String` it
/// replaced.
pub const INLINE_CAP: usize = 22;

/// An immutable string: inline for short strings, an `Arc<str>` its
/// clones share otherwise. Cloning is always allocation-free.
#[derive(Clone)]
pub struct Sym(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<str>),
}

impl Sym {
    /// Stores `text` inline when it fits, in a new `Arc<str>` otherwise.
    pub fn new(text: &str) -> Self {
        if text.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..text.len()].copy_from_slice(text.as_bytes());
            Sym(Repr::Inline {
                len: text.len() as u8,
                buf,
            })
        } else {
            Sym(Repr::Shared(Arc::from(text)))
        }
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // Only ever built from a valid `&str` prefix in `new`.
                std::str::from_utf8(&buf[..*len as usize]).expect("inline sym is utf-8")
            }
            Repr::Shared(s) => s,
        }
    }

    /// True when the symbol is stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Sym {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Sym {
    fn from(text: &str) -> Self {
        Sym::new(text)
    }
}

impl From<String> for Sym {
    fn from(text: String) -> Self {
        Sym::new(&text)
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Clones of one long symbol are equal without looking.
            (Repr::Shared(a), Repr::Shared(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if let (Repr::Shared(a), Repr::Shared(b)) = (&self.0, &other.0) {
            if Arc::ptr_eq(a, b) {
                return std::cmp::Ordering::Equal;
            }
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `String`'s hash (which is `str`'s), so tuple hash
        // tables behave identically to the pre-interning engine.
        self.as_str().hash(state)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn short_strings_are_inline() {
        let s = Sym::new("FC Barcelona");
        assert!(s.is_inline());
        assert_eq!(s.as_str(), "FC Barcelona");
    }

    #[test]
    fn hash_matches_string_hash() {
        let long = "a string comfortably longer than the inline capacity";
        for text in ["", "short", long, "x".repeat(100).as_str()] {
            assert_eq!(hash_of(&Sym::new(text)), hash_of(&text.to_string()));
        }
    }

    #[test]
    fn ordering_matches_str() {
        let mut syms = [Sym::new("b"), Sym::new("a"), Sym::new("c")];
        syms.sort();
        let strs: Vec<&str> = syms.iter().map(Sym::as_str).collect();
        assert_eq!(strs, ["a", "b", "c"]);
    }

    #[test]
    fn boundary_lengths_round_trip() {
        let lengths = [0, 1, INLINE_CAP - 1, INLINE_CAP, INLINE_CAP + 1, 200];
        for len in lengths {
            let text = "x".repeat(len);
            let sym = Sym::new(&text);
            assert_eq!(sym.as_str(), text);
            assert_eq!(sym.is_inline(), len <= INLINE_CAP);
            // Built apart, equal symbols compare like their strings.
            assert_eq!(sym, Sym::new(&text));
            // A clone shares the long symbol's allocation.
            let clone = sym.clone();
            assert_eq!(clone, sym);
            match (&sym.0, &clone.0) {
                (Repr::Shared(a), Repr::Shared(b)) => assert!(Arc::ptr_eq(a, b)),
                _ => assert!(sym.is_inline() && clone.is_inline()),
            }
            // Symbols around the inline boundary compare and order like
            // `str`, whichever side is inline.
            let others = lengths.map(|l| "x".repeat(l));
            for other in others.iter().flat_map(|o| [o.clone(), o.clone() + "y"]) {
                assert_eq!(sym.cmp(&Sym::new(&other)), text.as_str().cmp(&other));
                assert_eq!(sym == Sym::new(&other), text == other);
            }
        }
    }
}
