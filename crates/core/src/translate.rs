//! The translation driver: runs the Fig. 1 pipeline end to end and
//! performs layout and relocation of the generated VLIW program.

use crate::baseaddr::{self, AccessClass, BaseAddrInfo};
use crate::cfg::{Block, Cfg};
use crate::cycles::{block_cycles, BlockCycles};
use crate::expand::expand_instr;
use crate::icache::{analysis_blocks, check_supported, CacheLayout};
use crate::regbind::{
    areg, dreg, TempAlloc, CACHE_ARG_SET, CACHE_ARG_TAG, CACHE_BASE_REG, CACHE_RET_REG, CORR_REG,
    ONE_REG, SYNC_BASE_REG, ZERO_REG,
};
use crate::sched::{FixupKind, Item, Scheduler, TOp};
use crate::{DetailLevel, Granularity, TranslateError};
use cabt_isa::elf::{check_section_size, ElfFile, SectionKind};
use cabt_isa::mem::Memory;
use cabt_tricore::arch::{ArchDesc, TimingModel};
use cabt_tricore::isa::{AReg, Cond, Instr, RA};
use cabt_vliw::isa::{Op, Packet, Pred, Reg, Slot, Width};
use cabt_vliw::sim::{VliwError, VliwProgram};
use std::collections::HashMap;
use std::sync::Arc;

/// Base address of the synchronization device in the target address
/// space (start / wait / correction-start / correction-wait words).
pub const SYNC_DEVICE_BASE: u32 = 0x01a0_0000;
/// Default load address of the translated image.
pub const IMAGE_BASE: u32 = 0x0000_8000;

const PRED_MAIN: Reg = Reg::a(0);

/// Per-block translation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block id (index into the source CFG).
    pub id: usize,
    /// Source start address.
    pub src_start: u32,
    /// Source end address (exclusive).
    pub src_end: u32,
    /// Target address of the block's first packet.
    pub tgt_addr: u32,
    /// Statically predicted source cycles (`n` of Fig. 2).
    pub static_cycles: u32,
    /// Number of cache analysis blocks (level 3 only, else 0).
    pub analysis_blocks: usize,
}

/// Summary counters of one translation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Source instructions translated.
    pub source_instructions: usize,
    /// Basic blocks translated.
    pub blocks: usize,
    /// Target instruction slots emitted (NOPs included).
    pub target_slots: usize,
    /// Execute packets emitted.
    pub target_packets: usize,
    /// Statically identified I/O accesses.
    pub io_accesses: usize,
    /// Memory accesses whose base stayed unknown.
    pub unknown_bases: usize,
}

/// A finished translation: the target program plus everything the
/// platform, the debugger and the experiments need to run it.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The target program as execute packets, prologue first.
    pub packets: Vec<Packet>,
    /// Entry address (the prologue).
    pub entry: u32,
    /// Per-block records, in source order.
    pub blocks: Vec<BlockInfo>,
    /// Source block start → target packet address.
    pub addr_map: HashMap<u32, u32>,
    /// Cache-simulation layout (level 3 only).
    pub cache_layout: Option<CacheLayout>,
    /// Detail level this was translated at.
    pub level: DetailLevel,
    /// Summary counters.
    pub stats: TranslationStats,
    /// Data/BSS sections copied from the source image (identity-mapped).
    pub data_sections: Vec<(u32, Vec<u8>)>,
    /// Result of the base-address analysis.
    pub base_info: BaseAddrInfo,
}

impl Translated {
    /// Builds the VLIW program every engine over this image shares
    /// ([`cabt_vliw::sim::VliwSim::instantiate`]): the packets compiled
    /// once, the data sections placed in the load image, entry at the
    /// prologue. Attach a platform bus to an instance before running it
    /// if the program does I/O or cycle generation should stall.
    ///
    /// # Errors
    ///
    /// Propagates program construction and load failures.
    pub fn program(&self) -> Result<Arc<VliwProgram>, VliwError> {
        let mut image = Memory::new();
        for (addr, data) in &self.data_sections {
            image.load(*addr, data)?;
        }
        // Register-indirect branches carry source-world code addresses
        // (the guest materializes labels with `movh.a`/`lea`); alias
        // every source block start to its packet so they resolve on
        // all dispatch cores.
        let aliases = self.addr_map.iter().map(|(&src, &tgt)| (src, tgt));
        VliwProgram::new(self.packets.clone(), aliases, image).map(Arc::new)
    }

    /// Renders a human-readable listing: each source block's range and
    /// predicted cycle count, followed by its execute packets.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; translated at level `{}`: {} source instructions, {} blocks, {} packets",
            self.level,
            self.stats.source_instructions,
            self.stats.blocks,
            self.stats.target_packets
        );
        let mut block_at: std::collections::HashMap<u32, &BlockInfo> =
            std::collections::HashMap::new();
        for b in &self.blocks {
            block_at.insert(b.tgt_addr, b);
        }
        for p in &self.packets {
            if let Some(b) = block_at.get(&p.addr) {
                let _ = writeln!(
                    out,
                    "\n; block {} src [{:#010x}..{:#010x}) predicted {} cycles",
                    b.id, b.src_start, b.src_end, b.static_cycles
                );
            }
            let _ = write!(out, "{p}");
        }
        if let Some(layout) = &self.cache_layout {
            let _ = writeln!(
                out,
                "\n; cache data: {} bytes at {:#010x} ({} sets x {} ways)",
                layout.total_bytes(),
                layout.base,
                layout.cfg.sets,
                layout.cfg.ways
            );
        }
        out
    }
}

/// The cycle-accurate static compiler (Fig. 1).
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Translator {
    level: DetailLevel,
    granularity: Granularity,
    arch: ArchDesc,
}

impl Translator {
    /// A translator at the given detail level with the default source
    /// architecture description.
    pub fn new(level: DetailLevel) -> Self {
        Translator {
            level,
            granularity: Granularity::BasicBlock,
            arch: ArchDesc::default(),
        }
    }

    /// Selects the cycle-generation granularity (per-instruction is the
    /// debug translation of §3.5).
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Uses a custom source architecture description.
    pub fn with_arch(mut self, arch: ArchDesc) -> Self {
        self.arch = arch;
        self
    }

    /// Runs the full translation pipeline on `elf`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError`] for malformed inputs, unsupported cache
    /// geometries or internal scheduling failures.
    pub fn translate(&self, elf: &ElfFile) -> Result<Translated, TranslateError> {
        let cfg = Cfg::build(elf, self.granularity)?;
        let base_info = baseaddr::analyze(&cfg);
        if self.level.simulates_icache() {
            check_supported(&self.arch.cache)?;
        }
        let model = TimingModel::new(self.arch.timing.clone());
        let cycles: Vec<BlockCycles> = cfg.blocks.iter().map(|b| block_cycles(&model, b)).collect();

        // Label space: blocks, then the cache subroutine, then the cache
        // data marker, then call-site return labels.
        let nblocks = cfg.blocks.len();
        let sub_label = nblocks;
        let data_label = nblocks + 1;
        let mut next_label = nblocks + 2;

        let mut sched = Scheduler::new();
        let mut temps = TempAlloc::new();
        let push = |s: &mut Scheduler, t: TOp| s.push(Item::Op(t));

        // Entry block: the block containing the ELF entry point.
        let entry_block = cfg
            .block_at(cfg.entry)
            .or_else(|| cfg.block_containing(cfg.entry))
            .ok_or(TranslateError::Decode { addr: cfg.entry })?
            .id;

        // ---- prologue ----
        emit_const32(&mut sched, SYNC_BASE_REG, SYNC_DEVICE_BASE)?;
        push(
            &mut sched,
            TOp::new(Op::Mvk {
                d: CORR_REG,
                imm16: 0,
            }),
        )?;
        push(
            &mut sched,
            TOp::new(Op::Mvk {
                d: ZERO_REG,
                imm16: 0,
            }),
        )?;
        push(
            &mut sched,
            TOp::new(Op::Mvk {
                d: ONE_REG,
                imm16: 1,
            }),
        )?;
        if self.level.simulates_icache() {
            // Cache data base is only known after layout: patch via label.
            push(
                &mut sched,
                TOp::new(Op::Mvk {
                    d: CACHE_BASE_REG,
                    imm16: 0,
                })
                .with_fixup(FixupKind::MvkLo, data_label),
            )?;
            push(
                &mut sched,
                TOp::new(Op::Mvkh {
                    d: CACHE_BASE_REG,
                    imm16: 0,
                })
                .with_fixup(FixupKind::MvkHi, data_label),
            )?;
        }
        // Source stack pointer (identity-mapped data space).
        emit_const32(&mut sched, areg(AReg(10)), 0xd003_0000)?;
        push(
            &mut sched,
            TOp::new(Op::B { disp21: 0 }).with_fixup(FixupKind::Branch, entry_block),
        )?;
        push(&mut sched, TOp::new(Op::Nop { count: 5 }))?;

        // ---- blocks ----
        for block in &cfg.blocks {
            sched.push(Item::Label(block.id))?;
            let bc = cycles[block.id];

            if self.level.generates_cycles() {
                // start cycle generation of n cycles (Fig. 2)
                emit_const32(&mut sched, Reg::a(3), bc.cycles)?;
                push(
                    &mut sched,
                    TOp::new(Op::St {
                        w: Width::W,
                        s: Reg::a(3),
                        base: SYNC_BASE_REG,
                        woff: 0,
                    })
                    .volatile(),
                )?;
            }

            // Body, possibly divided into cache analysis blocks.
            let abs = if self.level.simulates_icache() {
                analysis_blocks(block, &self.arch.cache)
            } else {
                Vec::new()
            };
            let layout_probe = CacheLayout {
                cfg: self.arch.cache,
                base: 0,
            };
            if self.level.simulates_icache() {
                for ab in &abs {
                    // Arguments: tag word and set index of this line.
                    let tagw = layout_probe.tag_word(ab.line);
                    emit_const32(&mut sched, CACHE_ARG_TAG, tagw)?;
                    push(
                        &mut sched,
                        TOp::new(Op::Mvk {
                            d: CACHE_ARG_SET,
                            imm16: self.arch.cache.set_of(ab.line) as i16,
                        }),
                    )?;
                    let ret = next_label;
                    next_label += 1;
                    push(
                        &mut sched,
                        TOp::new(Op::Mvk {
                            d: CACHE_RET_REG,
                            imm16: 0,
                        })
                        .with_fixup(FixupKind::MvkLo, ret),
                    )?;
                    push(
                        &mut sched,
                        TOp::new(Op::Mvkh {
                            d: CACHE_RET_REG,
                            imm16: 0,
                        })
                        .with_fixup(FixupKind::MvkHi, ret),
                    )?;
                    push(
                        &mut sched,
                        TOp::new(Op::B { disp21: 0 }).with_fixup(FixupKind::Branch, sub_label),
                    )?;
                    push(&mut sched, TOp::new(Op::Nop { count: 5 }))?;
                    sched.push(Item::Label(ret))?;
                    for ir in &block.instrs[ab.start..ab.end] {
                        if !ir.instr.is_control() {
                            let vol = access_volatile(&base_info, ir.addr);
                            let mut ops = Vec::new();
                            expand_instr(&ir.instr, &mut temps, vol, &mut ops);
                            for t in ops {
                                push(&mut sched, t)?;
                            }
                        }
                    }
                }
            } else {
                for ir in &block.instrs {
                    if !ir.instr.is_control() {
                        let vol = access_volatile(&base_info, ir.addr);
                        let mut ops = Vec::new();
                        expand_instr(&ir.instr, &mut temps, vol, &mut ops);
                        for t in ops {
                            push(&mut sched, t)?;
                        }
                    }
                }
            }

            // Terminator lowering with correction and epilogue.
            self.lower_terminator(&cfg, block, &bc, &mut sched, &mut temps)?;
        }

        // ---- cache correction subroutine ----
        if self.level.simulates_icache() {
            sched.push(Item::Label(sub_label))?;
            for t in crate::icache::correction_subroutine(&CacheLayout {
                cfg: self.arch.cache,
                base: 0,
            }) {
                sched.push(Item::Op(t))?;
            }
        }
        sched.push(Item::Label(data_label))?;

        // ---- layout and relocation ----
        let mut schedule = sched.finish();
        let (row_addrs, end_addr) = row_addresses(&schedule.rows, IMAGE_BASE);
        let label_addr =
            |label: usize, labels: &HashMap<usize, usize>| -> Result<u32, TranslateError> {
                let row = *labels
                    .get(&label)
                    .ok_or_else(|| TranslateError::Sched(format!("unresolved label {label}")))?;
                Ok(if row < row_addrs.len() {
                    row_addrs[row]
                } else {
                    end_addr
                })
            };
        let fixups = schedule.fixups.clone();
        for (row, slot, kind, label) in fixups {
            let target = label_addr(label, &schedule.labels)?;
            let slot_addr = row_addrs[row] + 8 * slot as u32;
            let s: &mut Slot = &mut schedule.rows[row][slot];
            match (kind, &mut s.op) {
                (FixupKind::Branch, Op::B { disp21 }) => {
                    *disp21 = ((target as i64 - slot_addr as i64) / 4) as i32;
                }
                (FixupKind::MvkLo, Op::Mvk { imm16, .. }) => {
                    *imm16 = (target & 0xffff) as u16 as i16;
                }
                (FixupKind::MvkHi, Op::Mvkh { imm16, .. }) => {
                    *imm16 = (target >> 16) as u16;
                }
                other => {
                    return Err(TranslateError::Sched(format!(
                        "fixup {other:?} applied to incompatible op"
                    )))
                }
            }
        }

        let (packets, _) = schedule.layout(IMAGE_BASE)?;
        let cache_layout = if self.level.simulates_icache() {
            Some(CacheLayout {
                cfg: self.arch.cache,
                base: end_addr,
            })
        } else {
            None
        };
        // The translated image must stay clear of the device window.
        debug_assert!(end_addr < SYNC_DEVICE_BASE);

        let mut addr_map = HashMap::new();
        let mut blocks = Vec::with_capacity(cfg.blocks.len());
        for block in &cfg.blocks {
            let tgt = label_addr(block.id, &schedule.labels)?;
            addr_map.insert(block.start, tgt);
            blocks.push(BlockInfo {
                id: block.id,
                src_start: block.start,
                src_end: block.end,
                tgt_addr: tgt,
                static_cycles: cycles[block.id].cycles,
                analysis_blocks: if self.level.simulates_icache() {
                    analysis_blocks(block, &self.arch.cache).len()
                } else {
                    0
                },
            });
        }

        let data_sections = elf
            .sections
            .iter()
            .filter_map(|s| match s.kind {
                SectionKind::Data => Some(Ok((s.addr, s.data.clone()))),
                SectionKind::Bss => Some(
                    check_section_size(u64::from(s.size))
                        .map(|()| (s.addr, vec![0u8; s.size as usize])),
                ),
                SectionKind::Text => None,
            })
            .collect::<Result<_, _>>()
            .map_err(TranslateError::Image)?;

        let stats = TranslationStats {
            source_instructions: cfg.instr_count(),
            blocks: cfg.blocks.len(),
            target_slots: packets.iter().map(|p| p.slots().len()).sum(),
            target_packets: packets.len(),
            io_accesses: base_info.io_accesses,
            unknown_bases: base_info.unknown,
        };

        Ok(Translated {
            packets,
            entry: IMAGE_BASE,
            blocks,
            addr_map,
            cache_layout,
            level: self.level,
            stats,
            data_sections,
            base_info,
        })
    }

    /// Lowers a block terminator: compare, branch-prediction correction
    /// (§3.4.1), correction block + synchronization waits (Fig. 3) and
    /// the control transfer itself.
    fn lower_terminator(
        &self,
        cfg: &Cfg,
        block: &Block,
        bc: &BlockCycles,
        sched: &mut Scheduler,
        temps: &mut TempAlloc,
    ) -> Result<(), TranslateError> {
        let term = block.terminator().copied();
        // In the per-instruction debug translation every stop point must
        // expose committed architectural state (§3.5): drain delay slots
        // at each block boundary.
        if self.granularity == Granularity::PerInstruction {
            sched.flush_architectural();
        }
        let push = |s: &mut Scheduler, t: TOp| s.push(Item::Op(t));
        let ret_block_label = |end: u32| -> Result<usize, TranslateError> {
            cfg.block_at(end)
                .map(|b| b.id)
                .ok_or(TranslateError::BadBranchTarget {
                    from: block.start,
                    to: end,
                })
        };
        let target_label = |ir: &crate::cfg::IrInstr| -> Result<usize, TranslateError> {
            let t = ir.instr.target(ir.addr).expect("direct branch");
            cfg.block_at(t)
                .map(|b| b.id)
                .ok_or(TranslateError::BadBranchTarget {
                    from: ir.addr,
                    to: t,
                })
        };

        // 1. Compare / decrement producing the predicate, for conditionals.
        let mut cond_pred: Option<Pred> = None;
        if let Some(ir) = &term {
            match ir.instr {
                Instr::Jcond { cond, s1, s2, .. } => {
                    let (op, negated) = cmp_for(cond, dreg(s1), dreg(s2));
                    push(sched, TOp::new(op))?;
                    cond_pred = Some(Pred {
                        reg: PRED_MAIN,
                        negated,
                    });
                }
                Instr::JcondZ { cond, s1, .. } => {
                    let (op, negated) = cmp_for(cond, dreg(s1), ZERO_REG);
                    push(sched, TOp::new(op))?;
                    cond_pred = Some(Pred {
                        reg: PRED_MAIN,
                        negated,
                    });
                }
                Instr::Loop { a, .. } => {
                    push(
                        sched,
                        TOp::new(Op::AddI {
                            d: areg(a),
                            s1: areg(a),
                            imm5: -1,
                        }),
                    )?;
                    push(
                        sched,
                        TOp::new(Op::Mv {
                            d: PRED_MAIN,
                            s: areg(a),
                        }),
                    )?;
                    cond_pred = Some(Pred::nz(PRED_MAIN));
                }
                _ => {}
            }
        }

        // 2. Branch-prediction correction code (§3.4.1): the outcome with
        //    nonzero extra adds to the correction counter.
        if self.level.corrects_dynamically() {
            if let (Some(pred), Some(t_extra), Some(nt_extra)) =
                (cond_pred, bc.taken_extra, bc.nottaken_extra)
            {
                // `pred` is true exactly when the branch is taken.
                if t_extra > 0 {
                    push(
                        sched,
                        TOp::when(
                            pred,
                            Op::AddI {
                                d: CORR_REG,
                                s1: CORR_REG,
                                imm5: t_extra.min(15) as i8,
                            },
                        ),
                    )?;
                }
                if nt_extra > 0 {
                    let negated = Pred {
                        reg: pred.reg,
                        negated: !pred.negated,
                    };
                    push(
                        sched,
                        TOp::when(
                            negated,
                            Op::AddI {
                                d: CORR_REG,
                                s1: CORR_REG,
                                imm5: nt_extra.min(15) as i8,
                            },
                        ),
                    )?;
                }
            }
        }

        // 3. Correction block and synchronization waits (Fig. 3 order:
        //    start correction generation, wait for main, wait for
        //    correction).
        if self.level.corrects_dynamically() {
            push(
                sched,
                TOp::new(Op::St {
                    w: Width::W,
                    s: CORR_REG,
                    base: SYNC_BASE_REG,
                    woff: 2,
                })
                .volatile(),
            )?;
            let t1 = temps.b();
            push(
                sched,
                TOp::new(Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: t1,
                    base: SYNC_BASE_REG,
                    woff: 1,
                })
                .volatile(),
            )?;
            let t2 = temps.b();
            push(
                sched,
                TOp::new(Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: t2,
                    base: SYNC_BASE_REG,
                    woff: 3,
                })
                .volatile(),
            )?;
            push(
                sched,
                TOp::new(Op::Mv {
                    d: CORR_REG,
                    s: ZERO_REG,
                }),
            )?;
        } else if self.level.generates_cycles() {
            let t1 = temps.b();
            push(
                sched,
                TOp::new(Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: t1,
                    base: SYNC_BASE_REG,
                    woff: 1,
                })
                .volatile(),
            )?;
        }

        // 4. The control transfer. A taken branch reaches its target in
        // six cycles (branch row + shadow), but the target block was
        // scheduled against this block's *layout* cycle count — a
        // long-latency result still in flight (the divider's 17 delay
        // slots outlive any shadow) would be read stale across the
        // transfer. Drain in-flight architectural writes first so every
        // successor reads committed state; blocks with no pending
        // long-latency writes pad nothing.
        if term.is_some() {
            sched.flush_architectural();
        }
        match term.map(|ir| (ir, ir.instr)) {
            None => {} // fallthrough into the next block
            Some((_, Instr::Debug16)) => {
                // All in-flight writes must land before the core stops.
                sched.flush_architectural();
                push(sched, TOp::new(Op::Halt))?;
            }
            Some((ir, Instr::J { .. })) => {
                let l = target_label(&ir)?;
                push(
                    sched,
                    TOp::new(Op::B { disp21: 0 }).with_fixup(FixupKind::Branch, l),
                )?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((ir, Instr::Jl { .. })) => {
                let ret = ret_block_label(block.end)?;
                push(
                    sched,
                    TOp::new(Op::Mvk {
                        d: areg(RA),
                        imm16: 0,
                    })
                    .with_fixup(FixupKind::MvkLo, ret),
                )?;
                push(
                    sched,
                    TOp::new(Op::Mvkh {
                        d: areg(RA),
                        imm16: 0,
                    })
                    .with_fixup(FixupKind::MvkHi, ret),
                )?;
                let l = target_label(&ir)?;
                push(
                    sched,
                    TOp::new(Op::B { disp21: 0 }).with_fixup(FixupKind::Branch, l),
                )?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((_, Instr::Ji { a })) => {
                push(sched, TOp::new(Op::BReg { s: areg(a) }))?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((_, Instr::Jli { a })) => {
                let ret = ret_block_label(block.end)?;
                push(
                    sched,
                    TOp::new(Op::Mvk {
                        d: areg(RA),
                        imm16: 0,
                    })
                    .with_fixup(FixupKind::MvkLo, ret),
                )?;
                push(
                    sched,
                    TOp::new(Op::Mvkh {
                        d: areg(RA),
                        imm16: 0,
                    })
                    .with_fixup(FixupKind::MvkHi, ret),
                )?;
                push(sched, TOp::new(Op::BReg { s: areg(a) }))?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((_, Instr::Ret16)) => {
                push(sched, TOp::new(Op::BReg { s: areg(RA) }))?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((ir, Instr::Jcond { .. }))
            | Some((ir, Instr::JcondZ { .. }))
            | Some((ir, Instr::Loop { .. })) => {
                let l = target_label(&ir)?;
                let pred = cond_pred.expect("set above");
                sched.push(Item::Op(TOp {
                    pred: Some(pred),
                    op: Op::B { disp21: 0 },
                    fixup: Some((FixupKind::Branch, l)),
                    volatile: false,
                }))?;
                push(sched, TOp::new(Op::Nop { count: 5 }))?;
            }
            Some((_, other)) => {
                return Err(TranslateError::Sched(format!(
                    "unexpected terminator {other}"
                )))
            }
        }
        Ok(())
    }
}

/// Maps a source condition to (compare op into `PRED_MAIN`, predicate
/// negation).
fn cmp_for(cond: Cond, s1: Reg, s2: Reg) -> (Op, bool) {
    match cond {
        Cond::Eq => (
            Op::CmpEq {
                d: PRED_MAIN,
                s1,
                s2,
            },
            false,
        ),
        Cond::Ne => (
            Op::CmpEq {
                d: PRED_MAIN,
                s1,
                s2,
            },
            true,
        ),
        Cond::Lt => (
            Op::CmpLt {
                d: PRED_MAIN,
                s1,
                s2,
            },
            false,
        ),
        Cond::Ge => (
            Op::CmpLt {
                d: PRED_MAIN,
                s1,
                s2,
            },
            true,
        ),
        Cond::LtU => (
            Op::CmpLtU {
                d: PRED_MAIN,
                s1,
                s2,
            },
            false,
        ),
        Cond::GeU => (
            Op::CmpLtU {
                d: PRED_MAIN,
                s1,
                s2,
            },
            true,
        ),
    }
}

fn access_volatile(info: &BaseAddrInfo, addr: u32) -> bool {
    matches!(
        info.class_of(addr),
        Some(AccessClass::Io { .. }) | Some(AccessClass::Unknown)
    )
}

/// Emits `reg = value` with one or two moves.
fn emit_const32(sched: &mut Scheduler, reg: Reg, value: u32) -> Result<(), TranslateError> {
    let as_i32 = value as i32;
    if (-32768..=32767).contains(&as_i32) {
        sched.push(Item::Op(TOp::new(Op::Mvk {
            d: reg,
            imm16: as_i32 as i16,
        })))
    } else {
        sched.push(Item::Op(TOp::new(Op::Mvk {
            d: reg,
            imm16: (value & 0xffff) as u16 as i16,
        })))?;
        sched.push(Item::Op(TOp::new(Op::Mvkh {
            d: reg,
            imm16: (value >> 16) as u16,
        })))
    }
}

/// Computes each row's packet address and the end address.
fn row_addresses(rows: &[Vec<Slot>], base: u32) -> (Vec<u32>, u32) {
    let mut addrs = Vec::with_capacity(rows.len());
    let mut cur = base;
    for row in rows {
        addrs.push(cur);
        cur += 8 * row.len().max(1) as u32;
    }
    (addrs, cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_tricore::asm::assemble;
    use cabt_vliw::sim::VliwSim;

    fn translate(src: &str, level: DetailLevel) -> Translated {
        let elf = assemble(src).expect("assembles");
        Translator::new(level).translate(&elf).expect("translates")
    }

    fn run(t: &Translated) -> VliwSim {
        let mut sim = VliwSim::instantiate(t.program().unwrap());
        sim.run(10_000_000).expect("halts");
        sim
    }

    const SUM_SRC: &str = "
        .text
    _start:
        mov %d0, 10
        mov %d2, 0
    top:
        add %d2, %d0
        addi %d0, %d0, -1
        jnz %d0, top
        debug
    ";

    #[test]
    fn functional_translation_computes_same_result() {
        for level in DetailLevel::ALL {
            let t = translate(SUM_SRC, level);
            let sim = run(&t);
            assert_eq!(
                sim.reg(dreg(cabt_tricore::isa::DReg(2))),
                55,
                "level {level}"
            );
        }
    }

    #[test]
    fn translation_matches_golden_architectural_state() {
        let elf = assemble(SUM_SRC).unwrap();
        let mut gold = cabt_tricore::sim::Simulator::new(&elf).unwrap();
        gold.run(100_000).unwrap();
        let t = translate(SUM_SRC, DetailLevel::Static);
        let sim = run(&t);
        for i in 0..16u8 {
            assert_eq!(
                sim.reg(dreg(cabt_tricore::isa::DReg(i))),
                gold.cpu.d(i),
                "d{i} mismatch"
            );
        }
    }

    #[test]
    fn calls_and_returns_work() {
        let src = "
            .text
        _start:
            mov %d2, 1
            call double
            call double
            call double
            debug
        double:
            add %d2, %d2
            ret
        ";
        let t = translate(src, DetailLevel::Static);
        let sim = run(&t);
        assert_eq!(sim.reg(dreg(cabt_tricore::isa::DReg(2))), 8);
    }

    #[test]
    fn memory_programs_translate() {
        let src = "
            .text
        _start:
            movh.a %a2, hi:arr
            lea  %a2, [%a2]lo:arr
            mov  %d2, 0
            mov  %d0, 4
            mov.a %a3, %d0
        sum:
            ld.w %d1, [%a2+]4
            add  %d2, %d1
            loop %a3, sum
            debug
            .data
        arr: .word 10, 20, 30, 40
        ";
        for level in [DetailLevel::Functional, DetailLevel::Cache] {
            let t = translate(src, level);
            let sim = run(&t);
            assert_eq!(
                sim.reg(dreg(cabt_tricore::isa::DReg(2))),
                100,
                "level {level}"
            );
        }
    }

    #[test]
    fn functional_level_emits_no_sync_accesses() {
        let t = translate(SUM_SRC, DetailLevel::Functional);
        let touches_sync = t.packets.iter().any(|p| {
            p.slots().iter().any(|s| match s.op {
                Op::St { base, .. } | Op::Ld { base, .. } => base == SYNC_BASE_REG,
                _ => false,
            })
        });
        assert!(!touches_sync);
        let t = translate(SUM_SRC, DetailLevel::Static);
        let touches_sync = t.packets.iter().any(|p| {
            p.slots().iter().any(|s| match s.op {
                Op::St { base, .. } | Op::Ld { base, .. } => base == SYNC_BASE_REG,
                _ => false,
            })
        });
        assert!(touches_sync);
    }

    #[test]
    fn block_info_carries_static_cycles() {
        let t = translate(SUM_SRC, DetailLevel::Static);
        assert_eq!(t.blocks.len(), 3);
        for b in &t.blocks {
            assert!(b.static_cycles > 0);
            assert_eq!(t.addr_map.get(&b.src_start), Some(&b.tgt_addr));
        }
    }

    #[test]
    fn cache_level_appends_subroutine_and_layout() {
        let t = translate(SUM_SRC, DetailLevel::Cache);
        let layout = t.cache_layout.expect("cache layout present");
        let code_end: u32 = t.entry + t.packets.iter().map(cabt_vliw::Packet::size).sum::<u32>();
        assert_eq!(layout.base, code_end);
        assert!(t.blocks.iter().all(|b| b.analysis_blocks >= 1));
    }

    #[test]
    fn per_instruction_granularity_runs() {
        let elf = assemble(SUM_SRC).unwrap();
        let t = Translator::new(DetailLevel::Static)
            .with_granularity(Granularity::PerInstruction)
            .translate(&elf)
            .unwrap();
        let sim = run(&t);
        assert_eq!(sim.reg(dreg(cabt_tricore::isa::DReg(2))), 55);
        assert!(t.blocks.len() > 3, "every instruction is a block");
    }

    #[test]
    fn stats_are_populated() {
        let t = translate(SUM_SRC, DetailLevel::Static);
        assert_eq!(t.stats.blocks, 3);
        assert_eq!(t.stats.source_instructions, 6);
        assert!(t.stats.target_slots > 6);
        assert!(t.stats.target_packets > 3);
    }
}
