//! TriCore front end for the static analyzer: lowers a decoded ELF
//! image into the [`cabt_exec::analyze::Program`] form the dataflow
//! framework runs over.
//!
//! The lowering mirrors the golden model's load path exactly — same
//! [`decode_section`] walk over `Text` sections, same address-sorted
//! table, same [`Instr::unit_flow`] classification — so the analyzer
//! sees the very block structure the engines execute.
//!
//! Classification notes:
//!
//! * `ret`, `ji` and `jli` lower to
//!   [`UnitFlow::Indirect`](cabt_exec::blocks::UnitFlow::Indirect) — the
//!   conservative bucket the framework treats as
//!   may-transfer-anywhere.
//! * `jl` (and `jli`) are recorded as calls for the
//!   unbounded-recursion walk; their `A11` link write is an ordinary
//!   register write.
//! * The abstract-op fragment covers the ISA's address-forming
//!   instructions (`mov`/`movh`/`movh.a` constants, `lea`/`addi`/
//!   `addih`/immediate `add` offsets, register moves across banks), so
//!   constant propagation can fold the address chains the bundled
//!   workloads use to reach data and MMIO. Post-increment accesses
//!   address through the *pre*-increment base and then add their
//!   displacement, exactly as [`Simulator::ea`] does.
//!
//! [`Simulator::ea`]: crate::sim::Simulator

use crate::encode::decode_section;
use crate::isa::{AReg, BinOp, DReg, Instr, LdKind, StKind};
use crate::sim::SimError;
use cabt_exec::analyze::{AbsOp, GuestUnit, MemAccess, Program};
use cabt_isa::elf::{ElfFile, SectionKind};
use std::collections::HashMap;

/// Flat register index of a data register.
fn d(r: DReg) -> u8 {
    r.0
}

/// Flat register index of an address register.
fn a(r: AReg) -> u8 {
    r.0 + 16
}

/// The stack pointer the loader seeds (`%a10`), as (flat index,
/// value) — the entry constant of the analysis.
pub const ENTRY_SP: (u8, u32) = (26, 0xd003_0000);

/// Flat index of the shard-id register `%d15`, seeded by the fleet
/// loader — the default use-before-def whitelist.
pub const SHARD_ID_REG: u8 = 15;

fn ld_bytes(kind: LdKind) -> u8 {
    match kind {
        LdKind::B | LdKind::Bu => 1,
        LdKind::H | LdKind::Hu => 2,
        LdKind::W => 4,
    }
}

fn st_bytes(kind: StKind) -> u8 {
    match kind {
        StKind::B => 1,
        StKind::H => 2,
        StKind::W => 4,
    }
}

/// A post-increment access: address through the pre-increment base,
/// then bump it by the displacement.
fn postinc_access(
    base: AReg,
    off10: i16,
    postinc: bool,
    bytes: u8,
    store: bool,
) -> (Option<MemAccess>, Vec<AbsOp>) {
    let mem = MemAccess {
        base: a(base),
        offset: if postinc { 0 } else { i32::from(off10) },
        bytes,
        store,
    };
    let ops = if postinc {
        vec![AbsOp::AddImm {
            dst: a(base),
            src: a(base),
            imm: off10 as i32 as u32,
        }]
    } else {
        Vec::new()
    };
    (Some(mem), ops)
}

/// The abstract-op and memory-access lowering of one instruction:
/// the fragment constant propagation can evaluate. Anything not
/// covered is modeled by [`Instr::writes`] alone.
fn abs_effects(instr: &Instr) -> (Vec<AbsOp>, Option<MemAccess>) {
    let c = |dst: u8, value: u32| vec![AbsOp::Const { dst, value }];
    let addi = |dst: u8, src: u8, imm: u32| vec![AbsOp::AddImm { dst, src, imm }];
    let copy = |dst: u8, src: u8| vec![AbsOp::Copy { dst, src }];
    match *instr {
        Instr::Mov16 { d: dd, imm7 } => (c(d(dd), imm7 as i32 as u32), None),
        Instr::Mov { d: dd, imm16 } => (c(d(dd), imm16 as i32 as u32), None),
        Instr::Movh { d: dd, imm16 } => (c(d(dd), u32::from(imm16) << 16), None),
        Instr::MovhA { a: aa, imm16 } => (c(a(aa), u32::from(imm16) << 16), None),
        Instr::Addi { d: dd, s, imm16 } => (addi(d(dd), d(s), imm16 as i32 as u32), None),
        Instr::Addih { d: dd, s, imm16 } => (addi(d(dd), d(s), u32::from(imm16) << 16), None),
        Instr::MovRR16 { d: dd, s } | Instr::MovRR { d: dd, s } => (copy(d(dd), d(s)), None),
        Instr::MovA { a: aa, s } => (copy(a(aa), d(s)), None),
        Instr::MovD { d: dd, a: s } => (copy(d(dd), a(s)), None),
        Instr::MovAA { a: aa, s } => (copy(a(aa), a(s)), None),
        Instr::Lea { a: aa, base, off16 } => (addi(a(aa), a(base), off16 as i32 as u32), None),
        Instr::BinI {
            op: BinOp::Add,
            d: dd,
            s1,
            imm9,
        } => (addi(d(dd), d(s1), imm9 as i32 as u32), None),
        Instr::LdW16 { a: base, .. } => (
            Vec::new(),
            Some(MemAccess {
                base: a(base),
                offset: 0,
                bytes: 4,
                store: false,
            }),
        ),
        Instr::StW16 { a: base, .. } => (
            Vec::new(),
            Some(MemAccess {
                base: a(base),
                offset: 0,
                bytes: 4,
                store: true,
            }),
        ),
        Instr::Ld {
            kind,
            base,
            off10,
            postinc,
            ..
        } => {
            let (mem, ops) = postinc_access(base, off10, postinc, ld_bytes(kind), false);
            (ops, mem)
        }
        Instr::LdA {
            base,
            off10,
            postinc,
            ..
        } => {
            let (mem, ops) = postinc_access(base, off10, postinc, 4, false);
            (ops, mem)
        }
        Instr::St {
            kind,
            base,
            off10,
            postinc,
            ..
        } => {
            let (mem, ops) = postinc_access(base, off10, postinc, st_bytes(kind), true);
            (ops, mem)
        }
        Instr::StA {
            base,
            off10,
            postinc,
            ..
        } => {
            let (mem, ops) = postinc_access(base, off10, postinc, 4, true);
            (ops, mem)
        }
        _ => (Vec::new(), None),
    }
}

/// ISA register naming for findings (flat index → `%dN` / `%aN`).
fn reg_name(r: u8) -> String {
    if r < 16 {
        format!("%d{r}")
    } else {
        format!("%a{}", r - 16)
    }
}

/// Lowers an ELF image into the analyzer's program form: decodes every
/// `Text` section (the golden model's exact load walk), resolves
/// direct targets to table indices, and attaches per-unit effects.
pub fn lower_elf(elf: &ElfFile) -> Result<Program, SimError> {
    let mut decoded: Vec<(u32, Instr)> = Vec::new();
    for s in &elf.sections {
        if s.kind == SectionKind::Text {
            let dec =
                decode_section(s.addr, &s.data).map_err(|_| SimError::PcInvalid { pc: s.addr })?;
            decoded.extend(dec);
        }
    }
    decoded.sort_by_key(|&(addr, _)| addr);
    let index_of: HashMap<u32, u32> = decoded
        .iter()
        .enumerate()
        .map(|(i, &(addr, _))| (addr, i as u32))
        .collect();

    let units: Vec<GuestUnit> = decoded
        .iter()
        .map(|&(pc, instr)| {
            let target = instr.target(pc).and_then(|t| index_of.get(&t)).copied();
            let call = match instr {
                Instr::Jl { .. } => target,
                _ => None,
            };
            let (ops, mem) = abs_effects(&instr);
            GuestUnit {
                pc,
                flow: instr.unit_flow(target),
                reads: instr.reads().iter().collect(),
                writes: instr.writes().iter().collect(),
                ops,
                mem,
                call,
            }
        })
        .collect();
    let contiguous: Vec<bool> = decoded
        .iter()
        .enumerate()
        .map(|(i, &(pc, instr))| {
            decoded
                .get(i + 1)
                .is_some_and(|&(next, _)| next == pc.wrapping_add(instr.size()))
        })
        .collect();
    let entries = index_of.get(&elf.entry).copied().into_iter().collect();

    Ok(Program {
        units,
        entries,
        contiguous,
        entry_defined: vec![ENTRY_SP.0],
        entry_consts: vec![ENTRY_SP],
        reg_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use cabt_exec::analyze::{analyze_program, use_before_def, FindingKind, MemMap, NUM_REGS};

    fn whitelist() -> u64 {
        1u64 << SHARD_ID_REG
    }

    #[test]
    fn lowering_mirrors_golden_block_structure() {
        let elf = assemble(
            r"
            .text
            .global _start
        _start:
            mov   %d2, 0
            mov   %d1, 10
        again:
            add   %d2, %d2, %d1
            addi  %d1, %d1, -1
            jnz   %d1, again
            debug
        ",
        )
        .unwrap();
        let prog = lower_elf(&elf).unwrap();
        assert_eq!(prog.units.len(), 6);
        let g = prog.graph();
        // Three blocks: entry, loop body, halt.
        assert_eq!(g.len(), 3);
        let report = analyze_program(&prog, &MemMap::default(), whitelist());
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.loops.len(), 1, "the countdown loop");
        assert!(report.predicted[0].loop_back);
    }

    #[test]
    fn undefined_read_is_flagged_with_its_register() {
        let elf = assemble(
            r"
            .text
            .global _start
        _start:
            add   %d2, %d2, %d3
            debug
        ",
        )
        .unwrap();
        let prog = lower_elf(&elf).unwrap();
        let g = prog.graph();
        let f = use_before_def(&prog, &g, whitelist());
        // Both %d2 and %d3 are read before any write.
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.kind == FindingKind::UseBeforeDef));
        assert!(f[0].message.contains("%d2"), "{}", f[0].message);
    }

    #[test]
    fn postinc_chain_folds_to_constants() {
        // a2 = 0xd0000000; store word, post-increment by 4 — the
        // second store must see a2 = base + 4.
        let elf = assemble(
            r"
            .text
            .global _start
        _start:
            movh.a %a2, 0xd000
            mov    %d0, 7
            st.w   [%a2+]4, %d0
            st.w   [%a2+]4, %d0
            debug
        ",
        )
        .unwrap();
        let prog = lower_elf(&elf).unwrap();
        let g = prog.graph();
        // Map covering only the first store's word: the second store
        // is provably at 0xd0000004 and must be flagged.
        let mut mem = MemMap::default();
        mem.add(0xd000_0000, 0xd000_0004, "word0");
        let f = cabt_exec::analyze::const_stores(&prog, &g, &mem);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::WildStore);
        assert!(f[0].message.contains("0xd0000004"), "{}", f[0].message);
    }

    #[test]
    fn entry_seeds_fit_the_flat_space() {
        assert!(usize::from(ENTRY_SP.0) < NUM_REGS);
        assert!(usize::from(SHARD_ID_REG) < NUM_REGS);
    }
}
