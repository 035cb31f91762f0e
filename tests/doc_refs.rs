//! Prose that cannot cite what is gone: every source path that
//! `docs/*.md` and `ROADMAP.md` cite must exist, every `path.rs::name`
//! must name an item or test defined in that file, and no citation may
//! pin a line number (`file.rs` followed by `:` and digits), which
//! drifts with every edit. `CHANGES.md` is a log of what was true when
//! each line was written and is not checked.
//!
//! The scan is plain text: a citation is a run of path characters that
//! ends in `.rs`. A path without a directory (`lib.rs`) names no one
//! file, so only its line-number rule applies. One `{a,b}` group in a
//! path expands to one path per alternative.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checked documents: every `docs/*.md`, then `ROADMAP.md`.
fn documents() -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = fs::read_dir(root().join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    docs.sort();
    docs.push(root().join("ROADMAP.md"));
    docs
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `path` with its one `{a,b,…}` group expanded.
fn expand(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &path[..open], alt.trim(), &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// Whether `source` defines `name`: an item (`fn`, `struct`, `enum`,
/// `trait`, `type`, `const`, `static`, `mod`, `macro_rules!`) or a test.
fn defines(source: &str, name: &str) -> bool {
    [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "macro_rules!",
    ]
    .iter()
    .any(|kw| {
        let decl = format!("{kw} {name}");
        source.match_indices(&decl).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + decl.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

/// The names a `path.rs` citation continues with: `::name`, or each of
/// `::{a, b}`; empty when no `::` follows.
fn cited_items(rest: &str) -> Vec<String> {
    let Some(rest) = rest.strip_prefix("::") else {
        return Vec::new();
    };
    if let Some(group) = rest.strip_prefix('{') {
        let Some(close) = group.find('}') else {
            return Vec::new();
        };
        return group[..close]
            .split(',')
            .map(|n| n.trim().to_string())
            .filter(|n| !n.is_empty())
            .collect();
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() {
        Vec::new()
    } else {
        vec![name]
    }
}

/// Every problem with the citations in `text`, resolved against the
/// repository at `root`.
fn problems_in(text: &str, root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for (end, _) in text.match_indices(".rs") {
        let after = &text[end + 3..];
        if after.chars().next().is_some_and(is_ident) {
            continue;
        }
        // Walk back over the path; a `,` ends it unless inside `{…}`.
        let mut start = end;
        let mut depth = 0;
        for (i, c) in text[..end].char_indices().rev() {
            match c {
                '}' => depth += 1,
                '{' if depth > 0 => depth -= 1,
                ',' if depth > 0 => {}
                c if is_ident(c) || "./-".contains(c) => {}
                _ => break,
            }
            start = i;
        }
        let path = &text[start..end + 3];
        if path == ".rs" {
            continue;
        }
        let digits = after
            .strip_prefix(':')
            .map_or(0, |n| n.chars().take_while(char::is_ascii_digit).count());
        if digits > 0 {
            out.push(format!(
                "`{path}:{}` pins a line number; cite the item instead",
                &after[1..=digits]
            ));
        }
        if !path.contains('/') {
            continue;
        }
        for file in expand(path) {
            let Ok(source) = fs::read_to_string(root.join(&file)) else {
                out.push(format!("`{file}` does not exist"));
                continue;
            };
            for name in cited_items(after) {
                if !defines(&source, &name) {
                    out.push(format!("`{file}::{name}`: `{file}` defines no `{name}`"));
                }
            }
        }
    }
    out
}

#[test]
fn docs_cite_only_paths_and_items_that_exist() {
    let root = root();
    let mut problems = Vec::new();
    for doc in documents() {
        let text = fs::read_to_string(&doc).expect("readable document");
        let name = doc
            .strip_prefix(&root)
            .unwrap_or(&doc)
            .display()
            .to_string();
        problems.extend(
            problems_in(&text, &root)
                .into_iter()
                .map(|p| format!("{name}: {p}")),
        );
    }
    assert!(
        problems.is_empty(),
        "stale citations:\n{}",
        problems.join("\n")
    );
}

/// The check itself: a deleted type, a missing file and a line number
/// are each one problem; a defined item, a test, a brace group of
/// files and a bare file name are none.
#[test]
fn the_doc_check_flags_deleted_items_missing_paths_and_line_numbers() {
    let root = root();
    let flagged = |text: &str| problems_in(text, &root).len();
    assert_eq!(
        flagged("the `crates/tricore/src/sim.rs::SimSnapshot` type"),
        1
    );
    assert_eq!(flagged("see `crates/tricore/src/gone.rs` for it"), 1);
    assert_eq!(flagged("at sim.rs:1299, and crates/sim/src/lib.rs:12"), 2);
    assert_eq!(
        flagged("`tests/park_pins.rs::{park_images_match_their_pins, nope}`"),
        1
    );
    assert_eq!(flagged("`crates/tricore/src/sim.rs::Simulator` steps"), 0);
    assert_eq!(
        flagged("`tests/park_pins.rs::park_images_match_their_pins`"),
        0
    );
    assert_eq!(
        flagged("`crates/core/src/{cycles,icache}.rs` and `lib.rs`."),
        0
    );
}
