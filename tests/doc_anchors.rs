//! Every section of EXPERIMENTS.md that another document cites by its quoted
//! title must exist, and every long snake_case name a source file cites in
//! backticks must still be defined somewhere.
//!
//! The scanned documents are README.md, ROADMAP.md, CHANGES.md, the verify
//! skill's SKILL.md and every `.rs` file outside `crates/compat`.  A citation
//! is the file name followed by a quoted title, in any of the forms
//! `("…")`, `, "…"`, `§ "…"` or a bare `"…"` (a backtick may close the file
//! name first).  Lines are joined and comment
//! markers dropped before matching, so a title may wrap.  A title matches a
//! heading when it is a case-insensitive prefix of it; a trailing `…` says
//! "prefix" explicitly.
//!
//! The name check reads README.md, the CI workflow and the same `.rs` files
//! (not the ledgers, EXPERIMENTS.md, CHANGES.md and ROADMAP.md, which cite
//! deleted names on purpose).  A backticked snake_case name of four or more
//! words, bare, called (`name()`) or ending a path, must be a `fn` (as every
//! `claims![…]` entry is), a field, `const` or `static`, or a string literal
//! (a metric's name) in some `.rs` file.
//!
//! The same files' type-qualified citations are checked too (a backticked
//! path whose member follows a CamelCase type, or an enum and its struct
//! variant): a type the workspace defines must define the member itself,
//! as a variant, field, `fn`, `const` or `type` (a trait's provided method
//! is cited through the trait); any other type must be one of the
//! [`STD_TYPES`].  Members are read off the layout `cargo fmt` leaves.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The cited file, spelled in two halves so this file cites nothing.
fn cited_file() -> String {
    ["EXPERIMENTS", ".md"].concat()
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every heading of the markdown `text` outside fenced code blocks, with
/// its `#`s and surrounding whitespace removed and its case folded.
fn headings(text: &str) -> Vec<String> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            out.push(collapse(line.trim_start_matches('#')).to_lowercase());
        }
    }
    out
}

/// `text` with every run of whitespace turned into one space, trimmed.
fn collapse(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The document as one line: each source line without its leading comment
/// marker (`//!`, `///`, `//`), joined with spaces.
fn joined(text: &str) -> String {
    let lines = text.lines().map(|line| {
        let line = line.trim_start();
        ["//!", "///", "//"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line)
    });
    collapse(&lines.collect::<Vec<_>>().join(" "))
}

/// The quoted titles cited after each mention of `file` in `text`, or an
/// error naming an unclosed quote.
fn citations(text: &str, file: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(file) {
        let rest = &text[at + file.len()..];
        let rest = rest.strip_prefix('`').unwrap_or(rest).trim_start();
        let rest = ["(", ",", "§"]
            .iter()
            .find_map(|lead| rest.strip_prefix(lead))
            .map_or(rest, str::trim_start);
        let Some(quoted) = rest.strip_prefix('"') else {
            continue;
        };
        let Some(end) = quoted.find('"') else {
            return Err(format!("unclosed quote after {file}: {quoted:.60}"));
        };
        out.push(quoted[..end].to_string());
    }
    Ok(out)
}

/// Whether the cited `title` names one of `headings`.
fn resolves(title: &str, headings: &[String]) -> bool {
    let prefix = collapse(title.trim_end().trim_end_matches('…')).to_lowercase();
    !prefix.is_empty() && headings.iter().any(|heading| heading.starts_with(&prefix))
}

/// Every `.rs` file under `dir`, skipping build output, hidden directories
/// and the offline dependency stubs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            let skip = name == "target" || name.starts_with('.') || path.ends_with("crates/compat");
            if !skip {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn scanned_files() -> Vec<PathBuf> {
    let root = root();
    let mut files: Vec<PathBuf> = ["README.md", "ROADMAP.md", "CHANGES.md"]
        .iter()
        .map(|name| root.join(name))
        .collect();
    files.push(root.join(".claude/skills/verify/SKILL.md"));
    rust_files(&root, &mut files);
    files
}

#[test]
fn every_cited_experiments_section_exists() {
    let file = cited_file();
    let text = fs::read_to_string(root().join(&file)).expect("the cited file is readable");
    let headings = headings(&text);
    let mut checked = 0;
    let mut broken = Vec::new();
    for path in scanned_files() {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        let shown = path.strip_prefix(root()).unwrap_or(&path).display();
        match citations(&joined(&source), &file) {
            Ok(titles) => {
                for title in titles {
                    checked += 1;
                    if !resolves(&title, &headings) {
                        broken.push(format!("{shown}: \"{title}\""));
                    }
                }
            }
            Err(message) => broken.push(format!("{shown}: {message}")),
        }
    }
    assert!(
        broken.is_empty(),
        "citations with no matching heading in {file}:\n  {}",
        broken.join("\n  ")
    );
    assert!(checked > 0, "no citation of {file} was found at all");
}

#[test]
fn the_citation_forms_and_the_prefix_rule() {
    let file = "DOC.md";
    let text = joined(
        "see DOC.md (\"Host cost of\n//! the key path\"), `DOC.md`, \"Block\",\n\
         DOC.md § \"x…\" and DOC.md \"y\"; DOC.md lists more",
    );
    assert_eq!(
        citations(&text, file).unwrap(),
        ["Host cost of the key path", "Block", "x…", "y"]
    );
    assert!(citations("DOC.md \"open", file).is_err());

    let headings =
        headings("# Top\n```\n# not a heading\n```\n### Host cost of the key path (PR 23)\n");
    assert!(resolves("host cost of the KEY path", &headings));
    assert!(resolves("Host cost of…", &headings));
    assert!(!resolves("not a heading", &headings));
    assert!(!resolves("Host cost of the record tables", &headings));
    assert!(!resolves("…", &headings));
}

/// The long snake_case names `text` cites in backticks, with any `()` and
/// leading path dropped.  Every stretch between two backticks is a
/// candidate (one that holds a bare name is a citation), so an unpaired
/// backtick cannot hide one.
fn cited_names(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').filter_map(|piece| {
        let path = piece.strip_suffix("()").unwrap_or(piece);
        let name = path.rsplit("::").next().unwrap_or(path);
        let words: Vec<&str> = name.split('_').collect();
        let lower =
            |w: &&str| !w.is_empty() && w.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9'));
        let is_path = path
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_:".contains(&b));
        (is_path
            && words.len() >= 4
            && words.iter().all(lower)
            && !name.starts_with(char::is_numeric))
        .then_some(name)
    })
}

/// Checks every citation `cite` finds in README.md, the CI workflow and
/// each `.rs` file outside `crates/compat`, read against `index` of those
/// `.rs` sources, and fails naming each one `cite` reports undefined.
fn check_citations<I>(
    index: impl FnOnce(&[String]) -> I,
    cite: impl Fn(&str, &I) -> Vec<(String, bool)>,
) {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let read = |path: &PathBuf| {
        fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let index = index(&files.iter().map(read).collect::<Vec<_>>());
    files.extend(["README.md", ".github/workflows/ci.yml"].map(|name| root.join(name)));
    let (mut found, mut stale) = (0, Vec::new());
    for path in &files {
        for (citation, defined) in cite(&read(path), &index) {
            found += 1;
            if !defined {
                let shown = path.strip_prefix(&root).unwrap().display();
                stale.push(format!("{shown}: `{citation}`"));
            }
        }
    }
    assert!(found > 0, "no citation was found at all");
    assert!(
        stale.is_empty(),
        "citations nothing defines:\n  {}",
        stale.join("\n  ")
    );
}

#[test]
fn every_cited_long_name_is_defined() {
    check_citations(
        |sources| sources.concat(),
        |text, code| {
            let forms = ["fn {}(", "fn {}<", " {}: ", "\"{}\""];
            let defined = |name: &str| forms.iter().any(|f| code.contains(&f.replace("{}", name)));
            cited_names(text)
                .map(|name| (name.to_string(), defined(name)))
                .collect()
        },
    );
}

/// Types the documents cite members of that the standard library defines.
const STD_TYPES: &[&str] = &["Instant", "Option"];

/// The members each type in `sources` defines, read off the layout `cargo
/// fmt` leaves: a line opening an `enum`, `struct`, `union`, `trait` or
/// `impl` block at indent `k` files every name that starts a line at
/// `k + 4` (a variant, field, `fn`, `const` or `type`; in an enum also
/// `k + 8`, a struct variant's field) until the `}` at `k`.  An
/// `impl Trait for Type` block files under `Type`.
fn members(sources: &[String]) -> BTreeMap<String, BTreeSet<String>> {
    let mut types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for source in sources {
        let lines: Vec<&str> = source.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            let text = unqualified(line.trim_start());
            let (kind, header) = text.split_once([' ', '<']).unwrap_or_default();
            let header = match kind {
                _ if !text.ends_with('{') => continue,
                "impl" if text.starts_with("impl<") => {
                    header.split_once("> ").map_or("", |(_, h)| h)
                }
                "enum" | "struct" | "union" | "trait" | "impl" => header,
                _ => continue,
            };
            let ty = header.rsplit_once(" for ").map_or(header, |(_, ty)| ty);
            let set = types.entry(ty[..ty.find(['<', ' ', '{', '(', ':']).unwrap_or(0)].into());
            let set = set.or_default();
            let indent = line.len() - line.trim_start().len();
            let close = format!("{}}}", " ".repeat(indent));
            let body = lines[at + 1..]
                .iter()
                .take_while(|l| !l.starts_with(&close));
            for line in body {
                let depth = (line.len() - line.trim_start().len()).saturating_sub(indent);
                let text = unqualified(line.trim_start());
                let end = text.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                let (name, follows) = text.split_at(end.unwrap_or(text.len()));
                let item =
                    follows.is_empty() || follows.starts_with(['(', '<', ':', ',', ' ', ';']);
                if (depth == 4 || (depth == 8 && kind == "enum")) && !name.is_empty() && item {
                    set.insert(name.to_string());
                }
            }
        }
    }
    types
}

/// `text` without its leading visibility and item keywords.
fn unqualified(mut text: &str) -> &str {
    let keywords = ["pub", "const", "unsafe", "async", "fn", "type", "static"];
    let keyword = |(word, _): &(&str, &str)| keywords.contains(word) || word.starts_with("pub(");
    while let Some((_, rest)) = text.split_once(' ').filter(keyword) {
        text = rest;
    }
    text
}

/// The type-qualified citations of `text`: each backticked path, bare or
/// followed by an argument list `(…)` or a field list ` {…}`, whose member
/// follows CamelCase segments, given as those segments (innermost first:
/// an enum's struct variant comes before the enum) and the member.
fn qualified_citations(text: &str) -> impl Iterator<Item = (Vec<&str>, &str)> {
    text.split('`').filter_map(|piece| {
        let end = piece.find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'));
        let (path, rest) = piece.split_at(end.unwrap_or(piece.len()));
        let (types, member) = path.rsplit_once("::")?;
        let camel = |s: &&str| {
            s.starts_with(char::is_uppercase) && s.contains(char::is_lowercase) && *s != "Self"
        };
        let types: Vec<&str> = types.rsplit("::").take_while(camel).collect();
        let tail = rest.is_empty()
            || !rest.contains('\n')
                && [("(", ")"), (" {", "}")]
                    .iter()
                    .any(|(open, close)| rest.starts_with(open) && rest.ends_with(close));
        let named = member.starts_with(|c: char| c.is_alphabetic() || c == '_');
        (tail && named && !member.contains(':') && !types.is_empty()).then_some((types, member))
    })
}

#[test]
fn members_and_qualified_citations_follow_the_formatted_layout() {
    let types = members(&[concat!(
        "pub enum Kind {\n    Alpha,\n    Beta {\n        x: u8,\n    },\n}\n",
        "struct Unit;\n    stray: u8,\n",
        "impl<T: Into<u64>> Shape for Rec<T> {\n    pub(crate) const fn area() {\n        f();\n    }\n}\n",
    )
    .to_string()]);
    let expected = r#"{"Kind": {"Alpha", "Beta", "x"}, "Rec": {"area"}}"#;
    assert_eq!(format!("{types:?}"), expected);
    let text =
        "'Kind::Beta::x', 'a::Rec::area()', 'Kind::Beta { x }', 'Self::A', 'FOO::b', 'Kind::A)'";
    let text = text.replace('\'', "`");
    let cited: Vec<_> = qualified_citations(&text).collect();
    let expected = r#"[(["Beta", "Kind"], "x"), (["Rec"], "area"), (["Kind"], "Beta")]"#;
    assert_eq!(format!("{cited:?}"), expected);
}

#[test]
fn every_cited_member_is_defined_on_its_type() {
    check_citations(members, |text, types| {
        let cite = |(segments, member): (Vec<&str>, &str)| {
            // The innermost segment naming a workspace type owns the member
            // (a struct variant's field is its enum's).
            let ty = *segments
                .iter()
                .find(|ty| types.contains_key(**ty))
                .unwrap_or(&segments[0]);
            let defined = types
                .get(ty)
                .map_or(STD_TYPES.contains(&ty), |m| m.contains(member));
            (format!("{ty}::{member}"), defined)
        };
        qualified_citations(text).map(cite).collect()
    });
}
