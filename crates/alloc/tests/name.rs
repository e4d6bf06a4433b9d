//! [`Name`] as a hash-map key, against the `String` key it replaced.
//!
//! The proptest drives a `HashMap<Name, u64>` searched with `&[u8]` and a
//! `HashMap<String, u64>` searched with `&str` in lock-step through inserts,
//! look-ups and removals, both with the fixed-state hasher the substrates'
//! name maps use.  Names are drawn from characters of one to four UTF-8
//! bytes at lengths on both sides of [`Name::INLINE`], and a share of the
//! operations aim at names already in the map, so long names are hit and
//! replaced as often as short ones.  After every step the answers, the
//! counts and the full contents must agree.
//!
//! **Mutation-checked** (each fails this test in its first case, and the
//! unit test `names_up_to_the_inline_limit_stay_inline` too): hashing the
//! bytes without the length prefix `[u8]`'s `Hash` writes, so a name and the
//! slice it is searched by hash apart; and storing a name of exactly
//! `Name::INLINE` bytes on the heap.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use lor_alloc::Name;
use proptest::prelude::*;

type Fixed = BuildHasherDefault<DefaultHasher>;

/// One to four bytes each, so lengths land on and around the inline limit
/// in every alignment.
const ALPHABET: [char; 5] = ['a', 'b', 'é', '€', '\u{10348}'];

#[derive(Debug, Clone)]
enum Op {
    Insert {
        name: String,
        value: u64,
    },
    Get {
        name: String,
    },
    Remove {
        name: String,
    },
    /// Overwrite the `pick`-th live name.
    InsertLive {
        pick: usize,
        value: u64,
    },
    /// Look up the `pick`-th live name.
    GetLive {
        pick: usize,
    },
    /// Remove the `pick`-th live name.
    RemoveLive {
        pick: usize,
    },
}

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..16)
        .prop_map(|picks| picks.into_iter().map(|pick| ALPHABET[pick]).collect())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_name(), any::<u64>()).prop_map(|(name, value)| Op::Insert { name, value }),
        2 => arb_name().prop_map(|name| Op::Get { name }),
        2 => arb_name().prop_map(|name| Op::Remove { name }),
        2 => (any::<usize>(), any::<u64>()).prop_map(|(pick, value)| Op::InsertLive { pick, value }),
        2 => any::<usize>().prop_map(|pick| Op::GetLive { pick }),
        2 => any::<usize>().prop_map(|pick| Op::RemoveLive { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_name_map_matches_a_string_map(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut names: HashMap<Name, u64, Fixed> = HashMap::default();
        let mut model: HashMap<String, u64, Fixed> = HashMap::default();
        for op in ops {
            let mut live: Vec<String> = model.keys().cloned().collect();
            live.sort_unstable();
            let pick = |pick: usize| live.get(pick % live.len().max(1)).cloned();
            match op {
                Op::Insert { name, value } => {
                    prop_assert_eq!(names.insert(Name::new(&name), value), model.insert(name, value));
                }
                Op::InsertLive { pick: at, value } => {
                    if let Some(name) = pick(at) {
                        prop_assert_eq!(
                            names.insert(Name::new(&name), value),
                            model.insert(name, value)
                        );
                    }
                }
                Op::Get { name } => {
                    prop_assert_eq!(names.get(name.as_bytes()), model.get(name.as_str()));
                    prop_assert_eq!(
                        names.contains_key(name.as_bytes()),
                        model.contains_key(name.as_str())
                    );
                }
                Op::GetLive { pick: at } => {
                    if let Some(name) = pick(at) {
                        prop_assert_eq!(names.get(name.as_bytes()), model.get(name.as_str()));
                    }
                }
                Op::Remove { name } => {
                    prop_assert_eq!(names.remove(name.as_bytes()), model.remove(name.as_str()));
                }
                Op::RemoveLive { pick: at } => {
                    if let Some(name) = pick(at) {
                        prop_assert_eq!(
                            names.remove(name.as_bytes()),
                            model.remove(name.as_str())
                        );
                        prop_assert!(!names.contains_key(name.as_bytes()));
                    }
                }
            }

            prop_assert_eq!(names.len(), model.len());
            let mut listed: Vec<(String, u64)> = names
                .iter()
                .map(|(name, value)| (name.as_str().to_owned(), *value))
                .collect();
            listed.sort_unstable();
            let mut expected: Vec<(String, u64)> =
                model.iter().map(|(name, value)| (name.clone(), *value)).collect();
            expected.sort_unstable();
            prop_assert_eq!(listed, expected);
            for name in names.keys() {
                prop_assert_eq!(name.is_inline(), name.as_bytes().len() <= Name::INLINE);
            }
        }
    }
}
