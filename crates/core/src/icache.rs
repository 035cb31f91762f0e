//! Instruction-cache simulation (§3.4.2 of the paper).
//!
//! Three pieces, exactly as the paper lays them out:
//!
//! 1. **Saving cache data** — space appended after the translated
//!    program holds, per set, one word per way (`tag | valid`) and one
//!    LRU word ([`CacheLayout`]).
//! 2. **Cache analysis blocks** — each basic block is divided into
//!    pieces that fit into a single cache line ([`analysis_blocks`]);
//!    an instruction straddling a line boundary charges both lines, as
//!    the reference model does.
//! 3. **Cycle calculation code** — a generated subroutine (Fig. 4)
//!    receives the tag and set of an analysis block, probes the
//!    simulated cache, updates LRU/valid state and adds the miss penalty
//!    to the cycle correction counter ([`correction_subroutine`]). Call
//!    sites are emitted by the translator before each analysis block.
//!
//! The generated code supports 1- and 2-way caches (the paper's example
//! is two-way); wider associativities are rejected at translation time.

use crate::cfg::Block;
use crate::regbind::{
    CACHE_ARG_SET, CACHE_ARG_TAG, CACHE_BASE_REG, CACHE_RET_REG, CACHE_TMP_REG, CORR_REG, ONE_REG,
    ZERO_REG,
};
use crate::sched::TOp;
use crate::TranslateError;
use cabt_tricore::arch::CacheConfig;
use cabt_vliw::isa::{Op, Pred, Reg, Width};

/// The valid bit stored alongside each tag word (bit 31, as tags of
/// 32-bit addresses divided by line and set sizes never reach it).
pub const VALID_BIT: u32 = 1 << 31;

/// Memory layout of the simulated cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLayout {
    /// Geometry being simulated.
    pub cfg: CacheConfig,
    /// Base address of the state array in target memory.
    pub base: u32,
}

impl CacheLayout {
    /// Bytes per set: one word per way plus the LRU word.
    pub fn set_stride(&self) -> u32 {
        4 * (self.cfg.ways + 1)
    }

    /// Total size of the state array in bytes.
    pub fn total_bytes(&self) -> u32 {
        self.cfg.sets * self.set_stride()
    }

    /// The word the correction code compares against: `tag | VALID`.
    pub fn tag_word(&self, addr: u32) -> u32 {
        self.cfg.tag_of(addr) | VALID_BIT
    }
}

/// One cache analysis block: a run of instructions within a single cache
/// line (plus, possibly, a zero-instruction block for the tail of a
/// straddling instruction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisBlock {
    /// The cache line address this block probes.
    pub line: u32,
    /// Index (within the basic block) of the first instruction belonging
    /// to this analysis block; equal to the previous block's `end` for
    /// straddle-tail blocks.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

/// Divides a basic block into cache analysis blocks in first-touch
/// order, charging straddling instructions to both lines.
pub fn analysis_blocks(block: &Block, cfg: &CacheConfig) -> Vec<AnalysisBlock> {
    let mut out: Vec<AnalysisBlock> = Vec::new();
    let mut current_line: Option<u32> = None;
    for (i, ir) in block.instrs.iter().enumerate() {
        let first = cfg.line_of(ir.addr);
        let last = cfg.line_of(ir.addr + ir.instr.size() - 1);
        if current_line != Some(first) {
            if let Some(b) = out.last_mut() {
                b.end = i;
            }
            out.push(AnalysisBlock {
                line: first,
                start: i,
                end: i + 1,
            });
            current_line = Some(first);
        }
        if last != first {
            // Straddling instruction: the tail bytes open a block for the
            // next line; the instruction itself stays in the first block.
            if let Some(b) = out.last_mut() {
                b.end = i + 1;
            }
            out.push(AnalysisBlock {
                line: last,
                start: i + 1,
                end: i + 1,
            });
            current_line = Some(last);
        }
    }
    if let Some(b) = out.last_mut() {
        b.end = block.instrs.len();
    }
    out
}

/// Validates that the generated correction code supports `cfg`.
///
/// # Errors
///
/// Returns [`TranslateError::UnsupportedCache`] for associativities
/// other than 1 or 2.
pub fn check_supported(cfg: &CacheConfig) -> Result<(), TranslateError> {
    if cfg.ways == 1 || cfg.ways == 2 {
        Ok(())
    } else {
        Err(TranslateError::UnsupportedCache { ways: cfg.ways })
    }
}

/// Registers used privately by the correction code (documented in
/// [`crate::regbind`]): probes land in `A6..A15` scratch.
const T_ADDR: Reg = Reg::a(6);
const T_TAG0: Reg = Reg::a(7);
const T_TAG1: Reg = Reg::a(8);
const T_SCALED: Reg = Reg::a(9);
const T_VICT: Reg = Reg::a(10);
const T_VADDR: Reg = Reg::a(11);
const T_NEWLRU: Reg = Reg::a(12);
const P_HIT0: Reg = Reg::a(0);
const P_HIT1: Reg = Reg::a(1);
const P_MISS: Reg = Reg::a(2);

/// Emits the body of the cache correction routine (Fig. 4) as target
/// operations. Inputs: [`CACHE_ARG_TAG`] = `tag | VALID`,
/// [`CACHE_ARG_SET`] = set index. Clobbers the probe temporaries and the
/// predicate registers `A0..A2`; adds the miss penalty to [`CORR_REG`].
///
/// The `ways = 1` body skips the second-way probe and the LRU word is
/// unused (the victim is always way 0). Only 1- and 2-way caches have a
/// body: callers gate `layout` with [`check_supported`] first.
pub fn correction_body(layout: &CacheLayout) -> Vec<TOp> {
    let cfg = layout.cfg;
    let mut ops = Vec::new();
    let o = |op: Op| TOp::new(op);
    debug_assert!(check_supported(&cfg).is_ok(), "{} ways", cfg.ways);

    // T_ADDR = CACHE_BASE + set * stride. Strides are 8 (1-way) or 12
    // (2-way): decompose into shifts.
    ops.push(o(Op::ShlI {
        d: T_ADDR,
        s1: CACHE_ARG_SET,
        imm5: 3,
    }));
    if cfg.ways == 2 {
        ops.push(o(Op::ShlI {
            d: T_SCALED,
            s1: CACHE_ARG_SET,
            imm5: 2,
        }));
        ops.push(o(Op::Add {
            d: T_ADDR,
            s1: T_ADDR,
            s2: T_SCALED,
        }));
    }
    ops.push(o(Op::Add {
        d: T_ADDR,
        s1: T_ADDR,
        s2: CACHE_BASE_REG,
    }));

    // Probe the tags.
    ops.push(o(Op::Ld {
        w: Width::W,
        unsigned: false,
        d: T_TAG0,
        base: T_ADDR,
        woff: 0,
    }));
    if cfg.ways == 2 {
        ops.push(o(Op::Ld {
            w: Width::W,
            unsigned: false,
            d: T_TAG1,
            base: T_ADDR,
            woff: 1,
        }));
    }
    ops.push(o(Op::CmpEq {
        d: P_HIT0,
        s1: T_TAG0,
        s2: CACHE_ARG_TAG,
    }));
    if cfg.ways == 2 {
        ops.push(o(Op::CmpEq {
            d: P_HIT1,
            s1: T_TAG1,
            s2: CACHE_ARG_TAG,
        }));
        ops.push(o(Op::Or {
            d: P_MISS,
            s1: P_HIT0,
            s2: P_HIT1,
        }));
        // Hit: renew LRU — the LRU word names the *victim* way, i.e. the
        // way not just used.
        ops.push(TOp::when(
            Pred::nz(P_HIT0),
            Op::St {
                w: Width::W,
                s: ONE_REG,
                base: T_ADDR,
                woff: 2,
            },
        ));
        ops.push(TOp::when(
            Pred::nz(P_HIT1),
            Op::St {
                w: Width::W,
                s: ZERO_REG,
                base: T_ADDR,
                woff: 2,
            },
        ));
        // Miss: read the victim index, overwrite its tag, flip the LRU,
        // and charge the penalty.
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::Ld {
                w: Width::W,
                unsigned: false,
                d: T_VICT,
                base: T_ADDR,
                woff: 2,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::ShlI {
                d: T_VADDR,
                s1: T_VICT,
                imm5: 2,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::Add {
                d: T_VADDR,
                s1: T_VADDR,
                s2: T_ADDR,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::St {
                w: Width::W,
                s: CACHE_ARG_TAG,
                base: T_VADDR,
                woff: 0,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::Sub {
                d: T_NEWLRU,
                s1: ONE_REG,
                s2: T_VICT,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::St {
                w: Width::W,
                s: T_NEWLRU,
                base: T_ADDR,
                woff: 2,
            },
        ));
    } else {
        // Direct-mapped: a miss is simply "tag differs".
        ops.push(o(Op::Mv {
            d: P_MISS,
            s: P_HIT0,
        }));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::St {
                w: Width::W,
                s: CACHE_ARG_TAG,
                base: T_ADDR,
                woff: 0,
            },
        ));
    }

    // Charge the miss penalty to the correction counter.
    let pen = cfg.miss_penalty;
    if pen <= 15 {
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::AddI {
                d: CORR_REG,
                s1: CORR_REG,
                imm5: pen as i8,
            },
        ));
    } else {
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::Mvk {
                d: CACHE_TMP_REG,
                imm16: pen as i16,
            },
        ));
        ops.push(TOp::when(
            Pred::z(P_MISS),
            Op::Add {
                d: CORR_REG,
                s1: CORR_REG,
                s2: CACHE_TMP_REG,
            },
        ));
    }
    ops
}

/// The full subroutine: body plus return through [`CACHE_RET_REG`] and
/// its delay slots.
pub fn correction_subroutine(layout: &CacheLayout) -> Vec<TOp> {
    let mut ops = correction_body(layout);
    ops.push(TOp::new(Op::BReg { s: CACHE_RET_REG }));
    ops.push(TOp::new(Op::Nop { count: 5 }));
    ops
}

/// Reference behaviour of the generated code, used by tests and by the
/// golden-equivalence suite: runs the same probe/update algorithm on a
/// plain array, returning `true` on hit.
pub fn reference_access(layout: &CacheLayout, state: &mut [u32], addr: u32) -> bool {
    let cfg = layout.cfg;
    let stride_words = (cfg.ways + 1) as usize;
    let set = cfg.set_of(addr) as usize;
    let tagw = layout.tag_word(addr);
    let base = set * stride_words;
    if cfg.ways == 1 {
        let hit = state[base] == tagw;
        if !hit {
            state[base] = tagw;
        }
        return hit;
    }
    let lru_idx = base + 2;
    if state[base] == tagw {
        state[lru_idx] = 1;
        true
    } else if state[base + 1] == tagw {
        state[lru_idx] = 0;
        true
    } else {
        let vict = state[lru_idx] as usize & 1;
        state[base + vict] = tagw;
        state[lru_idx] = 1 - vict as u32;
        false
    }
}

/// Initial contents of the cache state array: all tags invalid, LRU
/// words zero (victim = way 0).
pub fn initial_state(layout: &CacheLayout) -> Vec<u32> {
    vec![0; (layout.total_bytes() / 4) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::Granularity;
    use cabt_tricore::asm::assemble;

    fn layout() -> CacheLayout {
        CacheLayout {
            cfg: CacheConfig::default(),
            base: 0x0010_0000,
        }
    }

    #[test]
    fn layout_sizes() {
        let l = layout(); // 16 sets, 2 ways
        assert_eq!(l.set_stride(), 12);
        assert_eq!(l.total_bytes(), 16 * 12);
        assert!(l.tag_word(0x8000_0000) & VALID_BIT != 0);
    }

    #[test]
    fn analysis_blocks_split_on_lines() {
        // 32-byte lines; build a block longer than one line.
        let mut src = String::from(".text\n_start:\n");
        for _ in 0..20 {
            src.push_str("add %d1, %d2, %d3\n"); // 4 bytes each
        }
        src.push_str("debug\n");
        let cfg = Cfg::build(&assemble(&src).unwrap(), Granularity::BasicBlock).unwrap();
        let blocks = analysis_blocks(&cfg.blocks[0], &CacheConfig::default());
        // 20*4 + 2 = 82 bytes from 0x80000000 → lines 0,32,64 → 3 blocks.
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].line, 0x8000_0000);
        assert_eq!(blocks[1].line, 0x8000_0020);
        assert_eq!(blocks[2].line, 0x8000_0040);
        assert_eq!(blocks[0].start, 0);
        assert_eq!(blocks[0].end, 8);
        assert_eq!(blocks[2].end, cfg.blocks[0].instrs.len());
    }

    #[test]
    fn straddling_instruction_charges_both_lines() {
        // 15 halfword NOPs (30 bytes) then a 4-byte instruction that
        // straddles the 32-byte boundary.
        let mut src = String::from(".text\n_start:\n");
        for _ in 0..15 {
            src.push_str("nop\n");
        }
        src.push_str("add %d1, %d2, %d3\ndebug\n");
        let cfg = Cfg::build(&assemble(&src).unwrap(), Granularity::BasicBlock).unwrap();
        let blocks = analysis_blocks(&cfg.blocks[0], &CacheConfig::default());
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].line, 0x8000_0020);
        // The straddler stays in block 0; block 1 starts after it.
        assert_eq!(blocks[0].end, 16);
    }

    #[test]
    fn unsupported_ways_rejected() {
        let cfg = CacheConfig {
            ways: 4,
            ..CacheConfig::default()
        };
        assert!(matches!(
            check_supported(&cfg),
            Err(TranslateError::UnsupportedCache { ways: 4 })
        ));
        let cfg = CacheConfig { ways: 2, ..cfg };
        assert!(check_supported(&cfg).is_ok());
    }

    #[test]
    fn subroutine_ends_with_return() {
        let ops = correction_subroutine(&layout());
        let n = ops.len();
        assert!(matches!(ops[n - 2].op, Op::BReg { .. }));
        assert!(matches!(ops[n - 1].op, Op::Nop { count: 5 }));
    }

    #[test]
    fn reference_access_matches_golden_cache() {
        use cabt_tricore::arch::CacheSim;
        let l = CacheLayout {
            cfg: CacheConfig::default(),
            base: 0,
        };
        let mut state = initial_state(&l);
        let mut golden = CacheSim::new(l.cfg);
        // A pseudo-random-ish but deterministic line stream.
        let mut addr = 0x8000_0000u32;
        for i in 0..2000u32 {
            addr = addr.wrapping_add(i.wrapping_mul(52)) & 0x8000_3fff;
            let ours = reference_access(&l, &mut state, addr);
            let gold = golden.access(addr);
            assert_eq!(ours, gold, "divergence at access {i} addr {addr:#x}");
        }
    }

    #[test]
    fn direct_mapped_reference_matches_golden() {
        use cabt_tricore::arch::CacheSim;
        let cfg = CacheConfig {
            sets: 8,
            ways: 1,
            line_bytes: 16,
            miss_penalty: 8,
        };
        let l = CacheLayout { cfg, base: 0 };
        let mut state = initial_state(&l);
        let mut golden = CacheSim::new(cfg);
        let mut addr = 0u32;
        for i in 0..500u32 {
            addr = addr.wrapping_add(i.wrapping_mul(28)) & 0x7ff;
            assert_eq!(reference_access(&l, &mut state, addr), golden.access(addr));
        }
    }

    #[test]
    fn penalty_above_addi_range_uses_constant_load() {
        let cfg = CacheConfig {
            miss_penalty: 40,
            ..CacheConfig::default()
        };
        let l = CacheLayout { cfg, base: 0 };
        let ops = correction_body(&l);
        assert!(ops
            .iter()
            .any(|t| matches!(t.op, Op::Mvk { imm16: 40, .. })));
    }
}
