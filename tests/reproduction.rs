//! `docs/reproduction.md` is the paper's evaluation as this repository
//! reproduces it. These tests render it again and compare it with the
//! committed file byte for byte, then check the paper's orderings on the
//! rows the document publishes.

use cabt::reproduction::Reproduction;
use std::sync::OnceLock;

/// The one pass every test here reads.
fn reproduction() -> &'static Reproduction {
    static PASS: OnceLock<Reproduction> = OnceLock::new();
    PASS.get_or_init(Reproduction::run)
}

#[test]
fn committed_document_matches_the_rendering() {
    let rendered = reproduction().to_string();
    let committed = include_str!("../docs/reproduction.md");
    let first = rendered
        .lines()
        .zip(committed.lines())
        .position(|(r, c)| r != c);
    assert!(
        rendered == committed,
        "docs/reproduction.md differs from the rendering (first differing line: {:?}); \
         rewrite it with `cargo run --release --example reproduction > docs/reproduction.md` \
         and read its diff",
        first.map(|i| i + 1)
    );
}

#[test]
fn fig5_shape_holds_on_every_published_row() {
    for row in &reproduction().fig5 {
        // Adding instrumentation can only slow the target down.
        assert!(row.functional >= row.cycle, "{}", row.name);
        assert!(row.cycle >= row.branch, "{}", row.name);
        assert!(
            row.branch > row.cache,
            "{}: cache level must be much slower",
            row.name
        );
        assert!(row.board > 0.0);
    }
}

#[test]
fn table1_orderings_match_paper() {
    let t = reproduction().table1;
    assert!(
        t.board >= 1.0,
        "CPI cannot beat 1 on the dual-issue core? {t:?}"
    );
    assert!(t.functional < t.cycle);
    assert!(t.cycle < t.branch);
    assert!(t.branch < t.cache);
    assert!(
        t.cache / t.branch > 2.0,
        "cache simulation is several times slower: {t:?}"
    );
}
