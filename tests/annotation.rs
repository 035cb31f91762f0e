//! Structural checks of the annotated basic blocks: the shapes of
//! Fig. 2 (cycle generation) and Fig. 3 (dynamic correction) must be
//! present in the emitted target code at the right detail levels.

use cabt::prelude::*;
use cabt_core::regbind::{CORR_REG, SYNC_BASE_REG};
use cabt_core::translate::SYNC_DEVICE_BASE;
use cabt_vliw::isa::Op;

const SRC: &str = "
    .text
_start:
    mov %d0, 5
    mov %d2, 0
top:
    add %d2, %d0
    addi %d0, %d0, -1
    jnz %d0, top
    debug
";

fn ops_of(level: DetailLevel) -> Vec<Op> {
    let elf = cabt_tricore::asm::assemble(SRC).unwrap();
    let t = Translator::new(level).translate(&elf).unwrap();
    t.packets
        .iter()
        .flat_map(|p| p.slots().iter().map(|s| s.op))
        .collect()
}

fn count_sync_stores(ops: &[Op], woff: i16) -> usize {
    ops.iter()
        .filter(
            |o| matches!(o, Op::St { base, woff: w, .. } if *base == SYNC_BASE_REG && *w == woff),
        )
        .count()
}

fn count_sync_loads(ops: &[Op], woff: i16) -> usize {
    ops.iter()
        .filter(
            |o| matches!(o, Op::Ld { base, woff: w, .. } if *base == SYNC_BASE_REG && *w == woff),
        )
        .count()
}

#[test]
fn fig2_every_block_starts_and_waits() {
    let ops = ops_of(DetailLevel::Static);
    // Three basic blocks: three start writes and three wait reads.
    assert_eq!(
        count_sync_stores(&ops, 0),
        3,
        "start cycle generation per block"
    );
    assert_eq!(
        count_sync_loads(&ops, 1),
        3,
        "wait for end of cycle generation per block"
    );
    // No correction machinery at the static level.
    assert_eq!(count_sync_stores(&ops, 2), 0);
    assert_eq!(count_sync_loads(&ops, 3), 0);
}

#[test]
fn fig3_correction_block_present_at_branch_predict() {
    let ops = ops_of(DetailLevel::BranchPredict);
    // Correction block per basic block: start-correction write and both
    // waits (main then correction), exactly as Fig. 3 lays them out.
    assert_eq!(
        count_sync_stores(&ops, 2),
        3,
        "start correction generation per block"
    );
    assert_eq!(count_sync_loads(&ops, 1), 3, "wait for main generation");
    assert_eq!(
        count_sync_loads(&ops, 3),
        3,
        "wait for correction generation"
    );
    // Predicated additions to the correction counter exist (the inserted
    // cycle-calculation code for the conditional jump).
    let corr_adds = ops
        .iter()
        .filter(|o| matches!(o, Op::AddI { d, .. } if *d == CORR_REG))
        .count();
    assert!(corr_adds >= 1, "branch-prediction correction code present");
}

#[test]
fn functional_level_has_no_device_accesses() {
    let ops = ops_of(DetailLevel::Functional);
    assert_eq!(count_sync_stores(&ops, 0), 0);
    assert_eq!(count_sync_loads(&ops, 1), 0);
}

#[test]
fn cache_level_emits_analysis_calls_and_subroutine() {
    let elf = cabt_tricore::asm::assemble(SRC).unwrap();
    let t = Translator::new(DetailLevel::Cache).translate(&elf).unwrap();
    let ops: Vec<Op> = t
        .packets
        .iter()
        .flat_map(|p| p.slots().iter().map(|s| s.op))
        .collect();
    // One branch per analysis block (plus one per block terminator, plus
    // the return in the subroutine): at least #analysis-blocks calls.
    let n_analysis: usize = t.blocks.iter().map(|b| b.analysis_blocks).sum();
    assert!(n_analysis >= 3);
    let branches = ops.iter().filter(|o| matches!(o, Op::B { .. })).count();
    assert!(
        branches >= n_analysis,
        "every analysis block calls the correction subroutine"
    );
    let rets = ops.iter().filter(|o| matches!(o, Op::BReg { .. })).count();
    assert!(rets >= 1, "the generated subroutine returns indirectly");
    // Cache state is laid out after the code.
    let layout = t.cache_layout.expect("layout");
    assert!(layout.base >= t.entry);
    assert!(layout.base < SYNC_DEVICE_BASE);
}

#[test]
fn predicted_cycle_counts_are_in_the_code() {
    // The n of Fig. 2 must literally appear as the MVK feeding the
    // start-of-generation store.
    let elf = cabt_tricore::asm::assemble(SRC).unwrap();
    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .unwrap();
    let consts: Vec<i16> = t
        .packets
        .iter()
        .flat_map(cabt_vliw::Packet::slots)
        .filter_map(|s| match s.op {
            Op::Mvk { d, imm16 } if d == cabt_vliw::isa::Reg::a(3) => Some(imm16),
            _ => None,
        })
        .collect();
    for b in &t.blocks {
        assert!(
            consts.contains(&(b.static_cycles as i16)),
            "block {} predicts {} cycles but no MVK carries it",
            b.id,
            b.static_cycles
        );
    }
}

#[test]
fn blocks_map_to_ascending_target_addresses() {
    let elf = cabt_tricore::asm::assemble(SRC).unwrap();
    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .unwrap();
    let mut last = 0;
    for b in &t.blocks {
        assert!(
            b.tgt_addr > last || last == 0,
            "blocks laid out in source order"
        );
        last = b.tgt_addr;
        assert_eq!(t.addr_map.get(&b.src_start), Some(&b.tgt_addr));
    }
}

#[test]
fn branch_prediction_correction_polarity() {
    // A backward branch is predicted taken: the correction fires on
    // fallthrough only. Verify by running a loop that never iterates
    // (condition false immediately) and one that iterates many times.
    let once = "
        .text
    _start:
        mov %d0, 1
    top:
        addi %d0, %d0, -1
        jnz %d0, top
        debug
    ";
    let elf = cabt_tricore::asm::assemble(once).unwrap();
    let t = Translator::new(DetailLevel::BranchPredict)
        .translate(&elf)
        .unwrap();
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).unwrap();
    let s = p.run(1_000_000).unwrap();
    // Single execution, not taken, predicted taken → exactly one
    // mispredict correction (plus none from the entry block).
    let extra = cabt_tricore::arch::Timing::default().cond_mispredict
        - cabt_tricore::arch::Timing::default().cond_taken_correct;
    assert_eq!(s.corrected_cycles, extra as u64);
}

#[test]
fn listing_names_blocks_and_cycles() {
    let elf = cabt_tricore::asm::assemble(SRC).unwrap();
    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .unwrap();
    let listing = t.listing();
    assert!(listing.contains("level `static`"));
    for b in &t.blocks {
        assert!(
            listing.contains(&format!("predicted {} cycles", b.static_cycles)),
            "listing must carry block {}'s prediction",
            b.id
        );
    }
    assert!(
        listing.contains("STW"),
        "sync-device stores appear in the listing"
    );
}
