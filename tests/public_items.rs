//! Every public function earns its place: a production caller, or a
//! named oracle role in `docs/oracles.md`.
//!
//! The sweep reads each `.rs` file under `crates/` and `src/` up to its
//! first `#[cfg(test)]` (integration-test directories are skipped) and
//! collects every `pub fn`. A name counts as called when it appears in
//! that non-test code, or in `examples/` or `perfbench/src`, anywhere
//! other than after `fn` or inside a comment (a doc line that names a
//! function does not call it). Every uncalled name must appear in backticks
//! in `docs/oracles.md`, and the rows of its "Public items kept for an
//! oracle role" table may name only uncalled items.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const ORACLES: &str = "docs/oracles.md";
const KEPT_SECTION: &str = "## Public items kept for an oracle role";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output and integration
/// tests.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "tests" | "benches") {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// A file's non-test code: everything before its first `#[cfg(test)]`,
/// with comments removed.
fn non_test(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let code = match text.find("#[cfg(test)]") {
        Some(at) => &text[..at],
        None => &text,
    };
    strip_comments(code)
}

/// `code` without its `//` line comments (doc comments included) and
/// `/* */` block comments. String and character literals are skipped
/// over, so a `//` inside one stays; a lifetime's quote opens nothing.
fn strip_comments(code: &str) -> String {
    let chars: Vec<char> = code.chars().collect();
    let mut out = String::with_capacity(code.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                i += 2;
                while i < chars.len() && !(chars[i] == '*' && chars.get(i + 1) == Some(&'/')) {
                    i += 1;
                }
                i += 2;
                out.push(' ');
            }
            '"' => {
                out.push(c);
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    if chars[i] == '\\' {
                        out.push(chars[i]);
                        i += 1;
                    }
                    if let Some(&ch) = chars.get(i) {
                        out.push(ch);
                    }
                    i += 1;
                }
                if i < chars.len() {
                    out.push('"');
                    i += 1;
                }
            }
            '\'' => {
                // A character literal (`'x'`, `'\n'`) or a lifetime.
                let len = match (next, chars.get(i + 2)) {
                    (Some('\\'), _) => chars[(i + 3).min(chars.len())..]
                        .iter()
                        .position(|&ch| ch == '\'')
                        .map_or(1, |p| p + 4),
                    (Some(_), Some('\'')) => 3,
                    _ => 1,
                };
                out.extend(&chars[i..(i + len).min(chars.len())]);
                i += len;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// The identifiers of `text`, in order.
fn identifiers(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// Public functions of `crates/` and `src/` that no non-test code
/// names, with the file that defines each.
fn uncalled() -> BTreeMap<String, String> {
    let mut defining = Vec::new();
    for dir in ["crates", "src"] {
        rust_files(&root().join(dir), &mut defining);
    }
    let mut calling = defining.clone();
    for dir in ["examples", "perfbench/src"] {
        rust_files(&root().join(dir), &mut calling);
    }
    let mut defined = BTreeMap::new();
    for path in &defining {
        let text = non_test(path);
        for w in identifiers(&text).windows(3) {
            if w[0] == "pub" && w[1] == "fn" {
                let rel = path.strip_prefix(root()).unwrap_or(path);
                defined
                    .entry(w[2].to_string())
                    .or_insert_with(|| rel.display().to_string());
            }
        }
    }
    let mut called = BTreeSet::new();
    for path in &calling {
        let text = non_test(path);
        let mut prev = "";
        for w in identifiers(&text) {
            if prev != "fn" {
                called.insert(w.to_string());
            }
            prev = w;
        }
    }
    defined.retain(|name, _| !called.contains(name));
    defined
}

/// The last path segment of every backticked span of `text`.
fn backticked(text: &str) -> BTreeSet<&str> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(|span| {
            let span = span.trim_end_matches("()");
            span.rsplit("::").next().unwrap_or(span)
        })
        .collect()
}

#[test]
fn every_uncalled_public_fn_has_an_oracle_row() {
    let doc = fs::read_to_string(root().join(ORACLES)).expect("docs/oracles.md exists");
    let named = backticked(&doc);
    let missing: Vec<String> = uncalled()
        .into_iter()
        .filter(|(name, _)| !named.contains(name.as_str()))
        .map(|(name, file)| format!("{name} ({file})"))
        .collect();
    assert!(
        missing.is_empty(),
        "public fns with no production caller and no row in {ORACLES}: {missing:?} — \
         call them, delete them, or name the check they serve as an oracle"
    );
}

#[test]
fn oracle_rows_name_only_uncalled_items() {
    let doc = fs::read_to_string(root().join(ORACLES)).expect("docs/oracles.md exists");
    let section = doc
        .split(KEPT_SECTION)
        .nth(1)
        .unwrap_or_else(|| panic!("{ORACLES} has no `{KEPT_SECTION}` section"));
    let uncalled = uncalled();
    let rows: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .collect();
    assert!(!rows.is_empty(), "{ORACLES}: the kept-items table is empty");
    for row in rows {
        let item = row.split('|').nth(1).unwrap_or("");
        for name in backticked(item) {
            assert!(
                uncalled.contains_key(name),
                "{ORACLES}: `{name}` has a production caller or no longer exists; drop its row"
            );
        }
    }
}
