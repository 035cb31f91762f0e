//! Prose that cannot cite what is gone: every source path that
//! `docs/*.md`, `ROADMAP.md` and the verify skill cite must exist, every
//! `path.rs::name` must name an item or test defined in that file, no
//! citation may pin a line number (`file.rs` followed by `:` and
//! digits), which drifts with every edit, and every backend descriptor
//! in backticks must parse. `CHANGES.md` is a log of what was true when
//! each line was written and is not checked. `perfbench/BENCHMARK.md`
//! is not checked yet: it names a descriptor retired since it was
//! written, and the benchmark's own revision mends it.
//!
//! The scan is plain text: a citation is a run of path characters that
//! ends in `.rs`. A path without a directory (`lib.rs`) names no one
//! file, so only its line-number rule applies. One `{a,b}` group in a
//! path expands to one path per alternative.

use cabt_sim::Backend;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checked documents: every `docs/*.md`, then `ROADMAP.md` and the
/// verify skill.
fn documents() -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = fs::read_dir(root().join("docs"))
        .expect("docs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    docs.sort();
    docs.push(root().join("ROADMAP.md"));
    docs.push(root().join(".claude/skills/verify/SKILL.md"));
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
/// repository at `root`, and with its backend descriptors.
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
    out.extend(descriptor_problems(text));
    out
}

/// Every backticked word of `text` that names a backend — `golden`,
/// `rtl`, or one that opens with `golden:`, `translated:` or `sharded-`
/// — and does not parse with `Backend::from_str`. Placeholders
/// (`translated:<level>`, `sharded-Nx:…`: anything beyond lower-case
/// letters, digits, `:` and `-`) and words on a line that calls them
/// retired or an error are exempt. Fenced blocks count as spans, so a
/// command in one is checked too.
fn descriptor_problems(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = 0;
    for (i, span) in text.split('`').enumerate() {
        let start = at;
        at += span.len() + 1;
        if i % 2 == 0 {
            continue;
        }
        for word in span.split_whitespace() {
            let named = word == "golden"
                || word == "rtl"
                || ["golden:", "translated:", "sharded-"]
                    .iter()
                    .any(|p| word.starts_with(p));
            let concrete = word
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || ":-".contains(c));
            if !named || !concrete || word.parse::<Backend>().is_ok() {
                continue;
            }
            let offset = start + span.find(word).unwrap_or(0);
            let line_start = text[..offset].rfind('\n').map_or(0, |n| n + 1);
            let line_end = text[offset..].find('\n').map_or(text.len(), |n| offset + n);
            let line = text[line_start..line_end].to_lowercase();
            if !line.contains("retired") && !line.contains("error") {
                out.push(format!("`{word}` is not a backend descriptor"));
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

/// The check itself: a deleted type, a missing file, a line number and
/// a backend descriptor that does not parse — in a span of its own or
/// inside a command — are each one problem; a defined item, a test, a
/// brace group of files, a bare file name, a live descriptor, a
/// placeholder, a workload name and a descriptor its line calls retired
/// or an error are none.
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
    assert_eq!(flagged("runs on `golden:traced` and `translated:fast`"), 2);
    assert_eq!(flagged("`run gcd sharded-2x:gold cycles 9`"), 1);
    assert_eq!(
        flagged("`golden`, `rtl`, `sharded-2x-pool2:translated:cache:naive`"),
        0
    );
    assert_eq!(flagged("`translated:<level>` and `sharded-Nx:golden`"), 0);
    assert_eq!(flagged("`golden_ref` measures `golden:trace`"), 0);
    assert_eq!(flagged("`golden:compiled` is retired"), 0);
    assert_eq!(flagged("`translated:cache:trace` is a parse error"), 0);
}
