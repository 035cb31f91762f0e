//! The fuzz-found regression corpus, replayed on every `cargo test`.
//!
//! Each entry of the corpus below is a hand-minimized reproducer for a
//! divergence the differential fuzzer (`cabt-fuzz`) found between
//! execution tiers — and that a fix in this repo since closed. The
//! corpus lives here, next to its only reader. The tests push every
//! minimized source through the *full* comparison matrix
//! (`cabt_fuzz::run_source`): reverting any of the fixes makes the
//! corresponding entry diverge again, so the bug class fails the plain
//! test suite instead of waiting for the next long fuzz campaign. The original (unminimized) finding seeds are pinned
//! too, via `cabt_fuzz::run_case`.

use cabt_fuzz::{run_case, run_source, CaseStatus, MatrixOptions};
use cabt_tricore::asm::assemble;

/// One entry of the fuzz-found regression corpus: a hand-minimized
/// reproducer for a divergence the differential fuzzer found between
/// execution tiers, pinning a bug class that has since been fixed.
struct FuzzRegression {
    /// Corpus entry name (`fuzz-<bug-class>`).
    name: &'static str,
    /// The fuzz seed that first exposed the divergence
    /// (`cabt-fuzz --seed N` replays the original, unminimized case).
    seed: u64,
    /// The matrix check that diverged (a `cabt-fuzz` `Divergence`
    /// check label), recorded for the reader — the regression test
    /// runs the full matrix, not just this check.
    check: &'static str,
    /// Minimized assembly reproducer.
    source: &'static str,
}

/// The corpus: one minimized program per divergence class the fuzzer
/// has found (and the code has since fixed).
const FUZZ_REGRESSIONS: [FuzzRegression; 3] = [
    // Register-indirect branches (`ji` / `calli`) carry
    // *source-world* code addresses at run time; the translated
    // vehicle faulted with "branch to non-packet address" because
    // the VLIW sim's packet index only knew target-image addresses.
    // Fixed by installing the translator's source→target block map
    // as branch aliases of the VLIW program (`VliwProgram::new`).
    FuzzRegression {
        name: "fuzz-indirect-source-branch",
        seed: 39,
        check: "cross-isa:stop:translated:static",
        source: "
    .text
    .global _start
_start:
    movh   %d7, 39616
    addi   %d7, %d7, 5504
    movh.a %a4, hi:even
    lea    %a4, [%a4]lo:even
    movh.a %a5, hi:odd
    lea    %a5, [%a5]lo:odd
    and    %d11, %d7, 1
    jnz    %d11, co
    calli  %a4
    j      end
co:
    calli  %a5
    j      end
even:
    ret
odd:
    ret
end:
    debug
",
    },
    // A `div`/`rem` result has 17 delay slots — longer than the
    // 6-cycle branch shadow — so a translated block ending soon
    // after a divide let successor blocks read the *stale*
    // register across the control transfer (the scheduler's
    // scoreboard is per-block). Fixed by draining in-flight
    // architectural writes before every block terminator
    // (`Scheduler::flush_architectural`). Here the caller reads
    // `%d2` right after the leaf's `rem` → `ret`.
    FuzzRegression {
        name: "fuzz-div-shadow-hazard",
        seed: 71,
        check: "cross-isa:translated:static",
        source: "
    .text
    .global _start
_start:
    mov    %d4, 37
    mov    %d2, 5
    jl     leaf
    add    %d2, %d2, %d2
    debug
leaf:
    rem    %d2, %d4, %d2
    ret
",
    },
    // The sequential shard scheduler stopped mid-round at the
    // first faulting shard while the parallel scheduler ran every
    // shard of the round to its deadline — post-fault state (and
    // retired counts) differed between bit-identical schedules.
    // Fixed by running every shard of a faulting round to the
    // deadline and propagating the lowest-numbered shard's fault.
    // Here odd shards take a wild indirect jump (the only access
    // class the golden model faults on) while even shards spin, so
    // under 4 cores the old sequential driver skipped shards 2
    // and 3 of the faulting round.
    FuzzRegression {
        name: "fuzz-shard-fault-parity",
        seed: 39,
        check: "sharded-schedule:4x:golden",
        source: "
    .text
    .global _start
_start:
    and    %d11, %d15, 1
    jnz    %d11, faulter
    mov    %d12, 300
spin:
    addi   %d12, %d12, -1
    jnz    %d12, spin
    debug
faulter:
    movh.a %a4, 0x4000
    ji     %a4
",
    },
];

/// Runs one corpus entry across the whole matrix and demands a clean
/// pass — not a skip (the corpus must stay runnable) and not an error.
fn assert_entry_passes(name: &str) {
    let entry = FUZZ_REGRESSIONS
        .iter()
        .find(|e| e.name == name)
        .expect("corpus entry exists");
    assemble(entry.source).expect("corpus entry assembles");
    let opts = MatrixOptions::default();
    let report = run_source(entry.seed, entry.source, false, &opts);
    match &report.status {
        CaseStatus::Pass => {}
        CaseStatus::Skip(why) => panic!("corpus entry {name} was skipped ({why}) — it must run"),
        CaseStatus::Error(e) => panic!("corpus entry {name} errored: {e}"),
        CaseStatus::Diverged(divs) => {
            let lines: Vec<String> = divs
                .iter()
                .map(|d| format!("  [{}] {}", d.check, d.detail))
                .collect();
            panic!(
                "corpus entry {name} diverged again (check `{}`):\n{}",
                entry.check,
                lines.join("\n")
            );
        }
    }
    assert!(report.checks > 0, "matrix ran no checks for {name}");
}

#[test]
fn corpus_is_well_formed() {
    let set = &FUZZ_REGRESSIONS;
    for entry in set {
        assemble(entry.source).unwrap_or_else(|e| panic!("{} does not assemble: {e}", entry.name));
        assert!(
            entry.name.starts_with("fuzz-"),
            "{} breaks the naming scheme",
            entry.name
        );
        assert!(!entry.check.is_empty());
        assert_eq!(
            set.iter().filter(|o| o.name == entry.name).count(),
            1,
            "duplicate corpus name {}",
            entry.name
        );
    }
}

/// Register-indirect branches carry source-world addresses; the
/// translated vehicle must resolve them through the source→target
/// block map instead of faulting on a non-packet address.
#[test]
fn indirect_source_branch_stays_fixed() {
    assert_entry_passes("fuzz-indirect-source-branch");
}

/// A `rem` result's 17 delay slots outlive the 6-cycle branch shadow;
/// the translator must drain in-flight architectural writes before
/// every block terminator so successors read committed state.
#[test]
fn div_shadow_hazard_stays_fixed() {
    assert_entry_passes("fuzz-div-shadow-hazard");
}

/// Sequential and parallel shard schedulers must leave bit-identical
/// state when a shard faults mid-round — every shard of the faulting
/// round runs to its deadline under both.
#[test]
fn shard_fault_parity_stays_fixed() {
    assert_entry_passes("fuzz-shard-fault-parity");
}

/// The original, unminimized finding seeds — the generated programs
/// that first exposed each bug class — stay green on the full matrix.
#[test]
fn original_finding_seeds_pass_the_matrix() {
    let opts = MatrixOptions::default();
    let mut seeds: Vec<u64> = FUZZ_REGRESSIONS.iter().map(|e| e.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    for seed in seeds {
        let report = run_case(seed, &opts);
        assert!(
            matches!(report.status, CaseStatus::Pass),
            "finding seed {seed} no longer passes: {:?}",
            report.status
        );
    }
}
