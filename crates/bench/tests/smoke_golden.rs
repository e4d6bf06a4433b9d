//! The smoke golden, regenerated in process: `render_figures` at
//! `Scale::smoke()` with every family must equal
//! `golden/figures_smoke.txt` byte for byte.  The golden is written by a
//! release build of `figures` and this test runs in whatever profile
//! `cargo test` builds (debug by default), so it also checks that the same
//! seed gives the same bits in both.  The run reaches the store-driven
//! maintenance tick, the full `maintenance()` pass, `migrate_in`, every
//! allocation and maintenance policy and every rebalance mode of the shard
//! sweep — paths the `lorbench` golden digests do not.
//!
//! Mutation-checked on scratch copies of the golden, one edit at a time:
//! Figure 3's Database cell at age 1 changed from 1.484 to 1.485 fails and
//! names line 41 with both versions; Figure 3's `Database` and `Filesystem`
//! columns swapped, header and cells, fails at line 39; the trailing
//! newline dropped fails at line 385 (`<end of text>` in the golden, an
//! empty line regenerated); the untouched golden passes.

use lor_bench::{render_figures, Scale};

const GOLDEN: &str = include_str!("../golden/figures_smoke.txt");

const REBLESS: &str = "cargo run --release -p lor-bench --bin figures -- --scale smoke \
                       > crates/bench/golden/figures_smoke.txt";

/// The first line (1-based) where `expected` and `actual` differ, with both
/// versions; a text that ends early reads `<end of text>` there.
fn first_difference<'a>(expected: &'a str, actual: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let mut expected = expected.split('\n');
    let mut actual = actual.split('\n');
    for line in 1.. {
        match (expected.next(), actual.next()) {
            (None, None) => return None,
            (want, got) if want != got => {
                let end = "<end of text>";
                return Some((line, want.unwrap_or(end), got.unwrap_or(end)));
            }
            _ => {}
        }
    }
    unreachable!()
}

#[test]
fn smoke_figures_equal_the_golden() {
    let text = render_figures(&Scale::smoke(), |_| true, |_, _| {}).expect("smoke run");
    if let Some((line, want, got)) = first_difference(GOLDEN, &text) {
        panic!(
            "golden/figures_smoke.txt differs from the regenerated figures at line {line}\n\
             golden:      {want:?}\n\
             regenerated: {got:?}\n\
             after an intended change of a simulated result, re-bless it with\n  {REBLESS}"
        );
    }
}
