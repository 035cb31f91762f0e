//! Base-address analysis (the "finding base addresses" box of Fig. 1).
//!
//! The paper needs the static base address of each load/store for two
//! reasons: to remap memory accesses to the target system's addresses,
//! and to recognize which accesses are I/O so they can be redirected to
//! the bus-model hardware. We perform a forward constant-propagation
//! pass over each basic block, tracking address registers whose values
//! are statically known (built by `movh.a`/`lea`/`mov.a`-of-constant
//! chains), and classify every memory access.
//!
//! Our platform maps the emulated data space, I/O region included, at
//! identical target addresses, so no access is remapped and one whose
//! base is statically *unknown* is still correct: the target's device
//! bus claims I/O addresses at run time. The classification decides
//! scheduling instead: I/O and unknown-base accesses are translated as
//! *volatile* operations, which the scheduler keeps strictly ordered
//! against every other memory operation.

use crate::cfg::{Block, Cfg};
use cabt_tricore::isa::Instr;
use std::collections::HashMap;

/// Start of the source I/O region (matches
/// [`cabt_tricore::sim::IO_BASE`]).
pub const IO_BASE: u32 = 0xf000_0000;
/// End (exclusive) of the source I/O region.
pub const IO_END: u32 = 0xf010_0000;

/// Classification of one memory-access instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Statically known base address targeting ordinary memory.
    Memory {
        /// The statically determined effective base (base register value;
        /// the instruction offset is added on top).
        base: u32,
    },
    /// Statically known base address in the I/O region — this access is
    /// replaced by a bus-model access.
    Io {
        /// The statically determined base.
        base: u32,
    },
    /// The base could not be determined statically.
    Unknown,
}

/// Result of the analysis: a classification per memory instruction
/// address plus summary counters.
#[derive(Debug, Clone, Default)]
pub struct BaseAddrInfo {
    /// Classification keyed by instruction address.
    pub classes: HashMap<u32, AccessClass>,
    /// Number of accesses with statically known memory bases.
    pub known_memory: usize,
    /// Number of statically identified I/O accesses.
    pub io_accesses: usize,
    /// Number of accesses whose base stayed unknown.
    pub unknown: usize,
}

impl BaseAddrInfo {
    /// Classification of the memory instruction at `addr`, if it is one.
    pub fn class_of(&self, addr: u32) -> Option<AccessClass> {
        self.classes.get(&addr).copied()
    }
}

/// Abstract value of a register during the block-local pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Known(u32),
    Unknown,
}

/// Runs the analysis over all blocks of `cfg`.
///
/// The pass is block-local (state resets at block boundaries), which is
/// sound: a base is only reported as known when the defining chain is
/// inside the same block, exactly the "as far as this is statically
/// possible" qualification of the paper.
pub fn analyze(cfg: &Cfg) -> BaseAddrInfo {
    let mut info = BaseAddrInfo::default();
    for block in &cfg.blocks {
        analyze_block(block, &mut info);
    }
    info
}

fn analyze_block(block: &Block, info: &mut BaseAddrInfo) {
    // Abstract state: A and D register banks.
    let mut a = [Val::Unknown; 16];
    let mut d = [Val::Unknown; 16];

    for ir in &block.instrs {
        // Classify memory accesses using the *pre-state*.
        let access = match ir.instr {
            Instr::Ld { base, .. }
            | Instr::LdA { base, .. }
            | Instr::St { base, .. }
            | Instr::StA { base, .. } => Some(base),
            Instr::LdW16 { a: base, .. } | Instr::StW16 { a: base, .. } => Some(base),
            _ => None,
        };
        if let Some(base) = access {
            let class = match a[base.0 as usize] {
                Val::Known(v) if (IO_BASE..IO_END).contains(&v) => {
                    info.io_accesses += 1;
                    AccessClass::Io { base: v }
                }
                Val::Known(v) => {
                    info.known_memory += 1;
                    AccessClass::Memory { base: v }
                }
                Val::Unknown => {
                    info.unknown += 1;
                    AccessClass::Unknown
                }
            };
            info.classes.insert(ir.addr, class);
        }

        // Transfer function.
        match ir.instr {
            Instr::Mov16 { d: r, imm7 } => d[r.0 as usize] = Val::Known(imm7 as i32 as u32),
            Instr::Mov { d: r, imm16 } => d[r.0 as usize] = Val::Known(imm16 as i32 as u32),
            Instr::Movh { d: r, imm16 } => d[r.0 as usize] = Val::Known((imm16 as u32) << 16),
            Instr::MovhA { a: r, imm16 } => a[r.0 as usize] = Val::Known((imm16 as u32) << 16),
            Instr::Addi { d: r, s, imm16 } => {
                d[r.0 as usize] = match d[s.0 as usize] {
                    Val::Known(v) => Val::Known(v.wrapping_add(imm16 as i32 as u32)),
                    Val::Unknown => Val::Unknown,
                }
            }
            Instr::Addih { d: r, s, imm16 } => {
                d[r.0 as usize] = match d[s.0 as usize] {
                    Val::Known(v) => Val::Known(v.wrapping_add((imm16 as u32) << 16)),
                    Val::Unknown => Val::Unknown,
                }
            }
            Instr::Lea { a: r, base, off16 } => {
                a[r.0 as usize] = match a[base.0 as usize] {
                    Val::Known(v) => Val::Known(v.wrapping_add(off16 as i32 as u32)),
                    Val::Unknown => Val::Unknown,
                }
            }
            Instr::MovA { a: r, s } => a[r.0 as usize] = d[s.0 as usize],
            Instr::MovD { d: r, a: s } => d[r.0 as usize] = a[s.0 as usize],
            Instr::MovAA { a: r, s } => a[r.0 as usize] = a[s.0 as usize],
            Instr::MovRR16 { d: r, s } | Instr::MovRR { d: r, s } => {
                d[r.0 as usize] = d[s.0 as usize];
            }
            Instr::Ld {
                base,
                postinc: true,
                off10,
                ..
            }
            | Instr::St {
                base,
                postinc: true,
                off10,
                ..
            }
            | Instr::LdA {
                base,
                postinc: true,
                off10,
                ..
            }
            | Instr::StA {
                base,
                postinc: true,
                off10,
                ..
            } => {
                a[base.0 as usize] = match a[base.0 as usize] {
                    Val::Known(v) => Val::Known(v.wrapping_add(off10 as i32 as u32)),
                    Val::Unknown => Val::Unknown,
                }
            }
            _ => {
                // Any other write invalidates.
                for w in ir.instr.writes().iter() {
                    if w < 16 {
                        d[w as usize] = Val::Unknown;
                    } else {
                        a[(w - 16) as usize] = Val::Unknown;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Granularity;
    use cabt_tricore::asm::assemble;

    fn analyze_src(src: &str) -> BaseAddrInfo {
        let cfg = Cfg::build(&assemble(src).unwrap(), Granularity::BasicBlock).unwrap();
        analyze(&cfg)
    }

    #[test]
    fn movh_lea_chain_is_known() {
        let info = analyze_src(
            "
            .text
        _start:
            movh.a %a2, hi:buf
            lea    %a2, [%a2]lo:buf
            ld.w   %d1, [%a2]4
            debug
            .data
        buf: .word 0, 0
        ",
        );
        assert_eq!(info.known_memory, 1);
        assert_eq!(info.unknown, 0);
        let class = info.classes.values().next().unwrap();
        assert_eq!(*class, AccessClass::Memory { base: 0xd000_0000 });
    }

    #[test]
    fn io_region_is_classified() {
        let info = analyze_src(
            "
            .text
        _start:
            movh.a %a3, 0xf000
            mov    %d1, 1
            st.w   [%a3]16, %d1
            ld.w   %d2, [%a3]16
            debug
        ",
        );
        assert_eq!(info.io_accesses, 2);
        assert_eq!(info.known_memory, 0);
        for c in info.classes.values() {
            assert_eq!(*c, AccessClass::Io { base: 0xf000_0000 });
        }
    }

    #[test]
    fn unknown_base_reported() {
        let info = analyze_src(
            "
            .text
        _start:
            ld.w %d1, [%a6]0
            debug
        ",
        );
        assert_eq!(info.unknown, 1);
    }

    #[test]
    fn mov_a_of_constant_propagates() {
        let info = analyze_src(
            "
            .text
        _start:
            movh %d3, 0xd000
            addi %d3, %d3, 0x100
            mov.a %a4, %d3
            st.w [%a4]0, %d3
            debug
        ",
        );
        assert_eq!(info.known_memory, 1);
        assert!(matches!(
            info.classes.values().next(),
            Some(AccessClass::Memory { base: 0xd000_0100 })
        ));
    }

    #[test]
    fn postincrement_advances_known_base() {
        let info = analyze_src(
            "
            .text
        _start:
            movh.a %a2, 0xd000
            ld.w %d1, [%a2+]4
            ld.w %d2, [%a2+]4
            debug
        ",
        );
        let mut bases: Vec<u32> = info
            .classes
            .values()
            .map(|c| match c {
                AccessClass::Memory { base } => *base,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        bases.sort();
        assert_eq!(bases, vec![0xd000_0000, 0xd000_0004]);
    }

    #[test]
    fn state_resets_at_block_boundaries() {
        // The base is set up in one block; after the label (a branch
        // target) the block-local analysis must forget it.
        let info = analyze_src(
            "
            .text
        _start:
            movh.a %a2, 0xd000
            jnz %d0, after
            nop
        after:
            ld.w %d1, [%a2]0
            debug
        ",
        );
        assert_eq!(info.unknown, 1);
        assert_eq!(info.known_memory, 0);
    }

    #[test]
    fn arbitrary_alu_write_invalidates() {
        let info = analyze_src(
            "
            .text
        _start:
            movh %d3, 0xd000
            add  %d3, %d3, %d4
            mov.a %a4, %d3
            ld.w %d1, [%a4]0
            debug
        ",
        );
        assert_eq!(info.unknown, 1);
    }
}
