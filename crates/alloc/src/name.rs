//! Object names stored in their table entry.
//!
//! Every substrate keeps a memory-resident name index — the volume's
//! directory, the BLOB engine's clustered key, the log's key → id map — and
//! every get and put starts with a probe of it.  Held as `String`s, each
//! name was a heap block of its own, twice over (the map's key and the
//! record's copy), and a probe missed on the bucket and again on the key's
//! bytes.  [`Name`] keeps a short name in the 24 bytes a `String` header
//! takes and only a long one elsewhere, as a page format keeps short values
//! in the row and spills long ones to an overflow page.  The workloads'
//! keys (`object-%08d`, 15 bytes) all fit, so a name costs no heap block
//! and a probe reads its bytes out of the bucket it landed on.
//!
//! The three name indexes are one type, [`NameMap`], hashed with a fixed
//! state rather than `HashMap`'s per-process random one.  Nothing
//! observable iterates a name map — listings walk the record tables, in id
//! order, and the two that want name order sort on demand
//! ([`in_name_order`]) — so runs stay deterministic either way, and no key
//! comes from an adversary, so the random state would defend nothing.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A name index: name → id of every named object, searched with
/// `name.as_bytes()` (module docs: why its hasher has a fixed state).
pub type NameMap<Id> = HashMap<Name, Id, BuildHasherDefault<DefaultHasher>>;

/// The entries of `map` in name order, which is `str` order: a sort on
/// demand for the listings that want it (module docs).
pub fn in_name_order<Id: Copy>(map: &NameMap<Id>) -> impl Iterator<Item = (&Name, Id)> {
    let mut entries: Vec<(&Name, Id)> = map.iter().map(|(name, &id)| (name, id)).collect();
    entries.sort_unstable_by_key(|&(name, _)| name.as_bytes());
    entries.into_iter()
}

/// An immutable UTF-8 name: up to [`Name::INLINE`] bytes stored in the
/// value itself, a longer one in a boxed slice.
///
/// `Name` is as large as a `String` and behaves as its bytes do: [`Hash`]
/// and [`Eq`] go through [`Name::as_bytes`] and it implements
/// `Borrow<[u8]>`, so a `HashMap<Name, _>` is searched with
/// `key.as_bytes()` and builds nothing on a look-up.  Byte order is `str`
/// order, so sorting by [`Name::as_bytes`] sorts as the strings would.
#[derive(Clone, Default)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the name.
    Inline { len: u8, bytes: [u8; Name::INLINE] },
    /// A name longer than [`Name::INLINE`] bytes.
    Heap(Box<str>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline {
            len: 0,
            bytes: [0; Name::INLINE],
        }
    }
}

// A name costs what the `String` it replaces did: one tag byte, one length
// byte and the inline bytes fill the 24 bytes of the heap variant.
const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    /// The longest name stored inline, in bytes.
    pub const INLINE: usize = 22;

    /// A name holding a copy of `name`.  Allocates only when `name` is
    /// longer than [`Name::INLINE`] bytes.
    pub fn new(name: &str) -> Self {
        let len = name.len();
        if len > Self::INLINE {
            return Name(Repr::Heap(name.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..len].copy_from_slice(name.as_bytes());
        Name(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    /// The name's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(name) => name.as_bytes(),
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a name is built from a str")
            }
            Repr::Heap(name) => name,
        }
    }

    /// `true` for the empty name.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// `true` when the name's bytes are stored in the value itself.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Self {
        Name::new(name)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

/// Hashes exactly as the borrowed `[u8]` does, which `Borrow` requires.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;

    use super::*;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn a_name_is_as_large_as_a_string() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
    }

    #[test]
    fn names_up_to_the_inline_limit_stay_inline() {
        // (name, inline) at lengths 0, 1, 22, 23 and 64, and multi-byte
        // characters ending exactly at the limit and one byte past it.
        let cases = [
            (String::new(), true),
            ("a".to_string(), true),
            ("x".repeat(22), true),
            ("x".repeat(23), false),
            ("y".repeat(64), false),
            (format!("{}é", "x".repeat(20)), true),
            (format!("{}é", "x".repeat(21)), false),
            (format!("{}€", "x".repeat(19)), true),
            (format!("{}€", "x".repeat(20)), false),
            ("€".repeat(8), false),
            ("日本語の名前".to_string(), true),
        ];
        for (text, inline) in cases {
            let name = Name::new(&text);
            assert_eq!(name.is_inline(), inline, "{text:?}");
            assert_eq!(name.as_str(), text);
            assert_eq!(name.as_bytes(), text.as_bytes());
            assert_eq!(name.is_empty(), text.is_empty());
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(hash_of(&name), hash_of(text.as_bytes()));
            assert_eq!(name, name.clone());
        }
        assert_eq!(Name::default(), Name::new(""));
    }

    #[test]
    fn equality_ignores_where_the_bytes_live() {
        // Two inline names whose unused tails differ are still equal.
        let mut spare = [7; Name::INLINE];
        spare[..3].copy_from_slice(b"abc");
        let dirty = Name(Repr::Inline {
            len: 3,
            bytes: spare,
        });
        assert_eq!(dirty, Name::new("abc"));
        assert_eq!(hash_of(&dirty), hash_of(&Name::new("abc")));
        assert_ne!(Name::new("abc"), Name::new("abd"));
        assert_ne!(Name::new("abc"), Name::new("abc\0"));
    }

    #[test]
    fn byte_order_is_str_order() {
        let mut words = vec![
            String::new(),
            "a".to_string(),
            "ab".to_string(),
            "b".to_string(),
            "object-00000009".to_string(),
            "object-00000010".to_string(),
            "x".repeat(22),
            "x".repeat(23),
            format!("{}é", "x".repeat(21)),
            "é".to_string(),
            "€".to_string(),
            "Z".to_string(),
            "\u{10000}".to_string(),
        ];
        let names: Vec<Name> = words.iter().map(|word| Name::new(word)).collect();
        let mut by_bytes: Vec<&Name> = names.iter().collect();
        by_bytes.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        words.sort();
        let sorted: Vec<&str> = by_bytes.iter().map(|name| name.as_str()).collect();
        assert_eq!(sorted, words);
    }
}
