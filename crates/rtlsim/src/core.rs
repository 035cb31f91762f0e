//! Stage-level RTL-style model of the source processor core.
//!
//! A classic multicycle datapath: FETCH → EXEC → (MEM) → WB, one state
//! per clock, each stage a separate process communicating only through
//! signals. The architectural register file is 32 individual signals;
//! instruction and data memory sit behind shared handles, as an HDL
//! testbench would bind them. Executing one instruction costs several
//! clock ticks and dozens of delta cycles — which is the point: this is
//! the "RT level simulation on a workstation" baseline of Table 2.

use crate::kernel::{DeltaOverflow, Kernel, KernelState, SignalId};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use cabt_isa::elf::ElfFile;
use cabt_isa::mem::Memory;
use cabt_isa::IsaError;
use cabt_tricore::encode::decode;
use cabt_tricore::isa::{Instr, LdKind, StKind, RA};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

const ST_FETCH: u64 = 0;
const ST_EXEC: u64 = 1;
const ST_MEM: u64 = 2;
const ST_WB: u64 = 3;
const ST_HALT: u64 = 4;
const ST_FAULT: u64 = 5;

const MEM_NONE: u64 = 0;
const MEM_LD: u64 = 1;
const MEM_ST: u64 = 2;

/// Errors raised by the RTL core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// The model's delta iteration diverged.
    Delta(DeltaOverflow),
    /// Fetch or execute faulted (bad pc or undecodable word).
    Fault {
        /// Program counter at the fault.
        pc: u32,
    },
    /// A testbench-side memory access failed.
    Mem(IsaError),
    /// The instruction budget of [`RtlCore::run`] was exhausted.
    InstructionLimit,
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::Delta(d) => write!(f, "{d}"),
            RtlError::Fault { pc } => write!(f, "core fault at pc {pc:#010x}"),
            RtlError::Mem(e) => write!(f, "memory fault: {e}"),
            RtlError::InstructionLimit => write!(f, "instruction limit exceeded"),
        }
    }
}

impl std::error::Error for RtlError {}

impl From<DeltaOverflow> for RtlError {
    fn from(d: DeltaOverflow) -> Self {
        RtlError::Delta(d)
    }
}

/// The RTL-style core bound to a program image.
pub struct RtlCore {
    kernel: Kernel,
    clk: SignalId,
    state: SignalId,
    regs: Vec<SignalId>,
    pc: SignalId,
    instructions: u64,
    mem: Arc<Mutex<Memory>>,
    /// Instruction memory handle (fetch closures share it); used to
    /// decide whether the pc signal points inside the program.
    imem: Arc<HashMap<u32, u16>>,
    /// Post-elaboration kernel state and data memory, put back by
    /// [`ExecutionEngine::reset`] instead of re-elaborating the model.
    initial: (KernelState, Memory),
}

impl fmt::Debug for RtlCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtlCore")
            .field("instructions", &self.instructions)
            .field("cycles", &self.kernel.time())
            .finish_non_exhaustive()
    }
}

impl RtlCore {
    /// Elaborates the model and loads `elf`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Mem`] if the image does not load (e.g. a
    /// `.bss` over [`cabt_isa::elf::MAX_SECTION_SIZE`]).
    pub fn new(elf: &ElfFile) -> Result<Self, RtlError> {
        let mut data_mem = Memory::new();
        elf.load_into(&mut data_mem).map_err(RtlError::Mem)?;
        let mem = Arc::new(Mutex::new(data_mem));

        // Instruction memory: halfwords keyed by address.
        let mut imem: HashMap<u32, u16> = HashMap::new();
        for s in &elf.sections {
            if s.kind == cabt_isa::elf::SectionKind::Text {
                for (i, ch) in s.data.chunks(2).enumerate() {
                    if ch.len() == 2 {
                        imem.insert(s.addr + 2 * i as u32, u16::from_le_bytes([ch[0], ch[1]]));
                    }
                }
            }
        }
        let imem = Arc::new(imem);

        let mut k = Kernel::new();
        let clk = k.signal(0);
        let state = k.signal(ST_FETCH);
        let pc = k.signal(elf.entry as u64);
        let if_lo = k.signal(0);
        let if_hi = k.signal(0);
        let if_pc = k.signal(0);
        let mem_op = k.signal(MEM_NONE);
        let mem_addr = k.signal(0);
        let mem_wdata = k.signal(0);
        let mem_kind = k.signal(0); // packed load/store width selector
        let wb0_en = k.signal(0);
        let wb0_reg = k.signal(0);
        let wb0_val = k.signal(0);
        let wb1_en = k.signal(0);
        let wb1_reg = k.signal(0);
        let wb1_val = k.signal(0);
        let next_pc = k.signal(0);

        let regs: Vec<SignalId> = (0..32).map(|_| k.signal(0)).collect();
        // Stack pointer (a10 = index 26) initialized as the golden model does.
        k.poke(regs[26], 0xd003_0000);

        // ---- FETCH ----
        let imem_f = Arc::clone(&imem);
        let fetch = k.process(move |ctx| {
            if ctx.get(clk) != 1 || ctx.get(state) != ST_FETCH {
                return;
            }
            let pcv = ctx.get(pc) as u32;
            match imem_f.get(&pcv) {
                Some(&lo) => {
                    let hi = if lo & 1 == 1 {
                        match imem_f.get(&(pcv + 2)) {
                            Some(&h) => h,
                            None => {
                                ctx.set(state, ST_FAULT);
                                return;
                            }
                        }
                    } else {
                        0
                    };
                    ctx.set(if_lo, lo as u64);
                    ctx.set(if_hi, hi as u64);
                    ctx.set(if_pc, pcv as u64);
                    ctx.set(state, ST_EXEC);
                }
                None => ctx.set(state, ST_FAULT),
            }
        });
        k.make_sensitive(fetch, clk);

        // ---- EXEC ----
        let regs_e = regs.clone();
        let exec = k.process(move |ctx| {
            if ctx.get(clk) != 1 || ctx.get(state) != ST_EXEC {
                return;
            }
            let lo = ctx.get(if_lo) as u16;
            let hi = ctx.get(if_hi) as u16;
            let pcv = ctx.get(if_pc) as u32;
            let (instr, size) = match decode(lo, hi) {
                Ok(x) => x,
                Err(_) => {
                    ctx.set(state, ST_FAULT);
                    return;
                }
            };
            let d = |ctx: &crate::kernel::ProcCtx<'_>, i: u8| ctx.get(regs_e[i as usize]) as u32;
            let a =
                |ctx: &crate::kernel::ProcCtx<'_>, i: u8| ctx.get(regs_e[16 + i as usize]) as u32;
            let seq = pcv.wrapping_add(size);

            // Default control outputs.
            ctx.set(wb0_en, 0);
            ctx.set(wb1_en, 0);
            ctx.set(mem_op, MEM_NONE);
            ctx.set(next_pc, seq as u64);
            let mut go_mem = false;
            let wb0 = |ctx: &mut crate::kernel::ProcCtx<'_>, reg: u64, val: u32| {
                ctx.set(wb0_en, 1);
                ctx.set(wb0_reg, reg);
                ctx.set(wb0_val, val as u64);
            };

            match instr {
                Instr::Nop16 | Instr::Nop => {}
                Instr::Debug16 => {
                    ctx.set(state, ST_HALT);
                    return;
                }
                Instr::Ret16 => ctx.set(next_pc, a(ctx, RA.0) as u64),
                Instr::Mov16 { d: r, imm7 } => wb0(ctx, r.0 as u64, imm7 as i32 as u32),
                Instr::MovRR16 { d: r, s } => {
                    let v = d(ctx, s.0);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Add16 { d: r, s } => {
                    let v = d(ctx, r.0).wrapping_add(d(ctx, s.0));
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Sub16 { d: r, s } => {
                    let v = d(ctx, r.0).wrapping_sub(d(ctx, s.0));
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Mov { d: r, imm16 } => wb0(ctx, r.0 as u64, imm16 as i32 as u32),
                Instr::Movh { d: r, imm16 } => wb0(ctx, r.0 as u64, (imm16 as u32) << 16),
                Instr::MovhA { a: r, imm16 } => wb0(ctx, 16 + r.0 as u64, (imm16 as u32) << 16),
                Instr::Addi { d: r, s, imm16 } => {
                    let v = d(ctx, s.0).wrapping_add(imm16 as i32 as u32);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Addih { d: r, s, imm16 } => {
                    let v = d(ctx, s.0).wrapping_add((imm16 as u32) << 16);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::MovRR { d: r, s } => {
                    let v = d(ctx, s.0);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::MovA { a: r, s } => {
                    let v = d(ctx, s.0);
                    wb0(ctx, 16 + r.0 as u64, v);
                }
                Instr::MovD { d: r, a: s } => {
                    let v = a(ctx, s.0);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::MovAA { a: r, s } => {
                    let v = a(ctx, s.0);
                    wb0(ctx, 16 + r.0 as u64, v);
                }
                Instr::Lea { a: r, base, off16 } => {
                    let v = a(ctx, base.0).wrapping_add(off16 as i32 as u32);
                    wb0(ctx, 16 + r.0 as u64, v);
                }
                Instr::Bin { op, d: r, s1, s2 } => {
                    let v = op.apply(d(ctx, s1.0), d(ctx, s2.0));
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::BinI { op, d: r, s1, imm9 } => {
                    let v = op.apply(d(ctx, s1.0), imm9 as i32 as u32);
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Madd { d: r, acc, s1, s2 } => {
                    let v = d(ctx, acc.0).wrapping_add(d(ctx, s1.0).wrapping_mul(d(ctx, s2.0)));
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Msub { d: r, acc, s1, s2 } => {
                    let v = d(ctx, acc.0).wrapping_sub(d(ctx, s1.0).wrapping_mul(d(ctx, s2.0)));
                    wb0(ctx, r.0 as u64, v);
                }
                Instr::Ld {
                    kind,
                    d: r,
                    base,
                    off10,
                    postinc,
                } => {
                    let b = a(ctx, base.0);
                    let addr = if postinc {
                        b
                    } else {
                        b.wrapping_add(off10 as i32 as u32)
                    };
                    ctx.set(mem_op, MEM_LD);
                    ctx.set(mem_addr, addr as u64);
                    ctx.set(mem_kind, ld_kind_code(kind));
                    ctx.set(wb0_reg, r.0 as u64);
                    if postinc {
                        ctx.set(wb1_en, 1);
                        ctx.set(wb1_reg, 16 + base.0 as u64);
                        ctx.set(wb1_val, b.wrapping_add(off10 as i32 as u32) as u64);
                    }
                    go_mem = true;
                }
                Instr::LdA {
                    a: r,
                    base,
                    off10,
                    postinc,
                } => {
                    let b = a(ctx, base.0);
                    let addr = if postinc {
                        b
                    } else {
                        b.wrapping_add(off10 as i32 as u32)
                    };
                    ctx.set(mem_op, MEM_LD);
                    ctx.set(mem_addr, addr as u64);
                    ctx.set(mem_kind, ld_kind_code(LdKind::W));
                    ctx.set(wb0_reg, 16 + r.0 as u64);
                    if postinc {
                        ctx.set(wb1_en, 1);
                        ctx.set(wb1_reg, 16 + base.0 as u64);
                        ctx.set(wb1_val, b.wrapping_add(off10 as i32 as u32) as u64);
                    }
                    go_mem = true;
                }
                Instr::LdW16 { d: r, a: base } => {
                    ctx.set(mem_op, MEM_LD);
                    ctx.set(mem_addr, a(ctx, base.0) as u64);
                    ctx.set(mem_kind, ld_kind_code(LdKind::W));
                    ctx.set(wb0_reg, r.0 as u64);
                    go_mem = true;
                }
                Instr::St {
                    kind,
                    s,
                    base,
                    off10,
                    postinc,
                } => {
                    let b = a(ctx, base.0);
                    let addr = if postinc {
                        b
                    } else {
                        b.wrapping_add(off10 as i32 as u32)
                    };
                    ctx.set(mem_op, MEM_ST);
                    ctx.set(mem_addr, addr as u64);
                    ctx.set(mem_kind, st_kind_code(kind));
                    ctx.set(mem_wdata, d(ctx, s.0) as u64);
                    if postinc {
                        ctx.set(wb1_en, 1);
                        ctx.set(wb1_reg, 16 + base.0 as u64);
                        ctx.set(wb1_val, b.wrapping_add(off10 as i32 as u32) as u64);
                    }
                    go_mem = true;
                }
                Instr::StA {
                    s,
                    base,
                    off10,
                    postinc,
                } => {
                    let b = a(ctx, base.0);
                    let addr = if postinc {
                        b
                    } else {
                        b.wrapping_add(off10 as i32 as u32)
                    };
                    ctx.set(mem_op, MEM_ST);
                    ctx.set(mem_addr, addr as u64);
                    ctx.set(mem_kind, st_kind_code(StKind::W));
                    ctx.set(mem_wdata, a(ctx, s.0) as u64);
                    if postinc {
                        ctx.set(wb1_en, 1);
                        ctx.set(wb1_reg, 16 + base.0 as u64);
                        ctx.set(wb1_val, b.wrapping_add(off10 as i32 as u32) as u64);
                    }
                    go_mem = true;
                }
                Instr::StW16 { a: base, s } => {
                    ctx.set(mem_op, MEM_ST);
                    ctx.set(mem_addr, a(ctx, base.0) as u64);
                    ctx.set(mem_kind, st_kind_code(StKind::W));
                    ctx.set(mem_wdata, d(ctx, s.0) as u64);
                    go_mem = true;
                }
                Instr::J { .. } => ctx.set(next_pc, instr.target(pcv).expect("direct") as u64),
                Instr::Jl { .. } => {
                    wb0(ctx, 16 + RA.0 as u64, seq);
                    ctx.set(next_pc, instr.target(pcv).expect("direct") as u64);
                }
                Instr::Ji { a: r } => ctx.set(next_pc, a(ctx, r.0) as u64),
                Instr::Jli { a: r } => {
                    let t = a(ctx, r.0);
                    wb0(ctx, 16 + RA.0 as u64, seq);
                    ctx.set(next_pc, t as u64);
                }
                Instr::Jcond { cond, s1, s2, .. } => {
                    if cond.eval(d(ctx, s1.0), d(ctx, s2.0)) {
                        ctx.set(next_pc, instr.target(pcv).expect("direct") as u64);
                    }
                }
                Instr::JcondZ { cond, s1, .. } => {
                    if cond.eval(d(ctx, s1.0), 0) {
                        ctx.set(next_pc, instr.target(pcv).expect("direct") as u64);
                    }
                }
                Instr::Loop { a: r, .. } => {
                    let v = a(ctx, r.0).wrapping_sub(1);
                    wb0(ctx, 16 + r.0 as u64, v);
                    if v != 0 {
                        ctx.set(next_pc, instr.target(pcv).expect("direct") as u64);
                    }
                }
            }

            ctx.set(state, if go_mem { ST_MEM } else { ST_WB });
        });
        k.make_sensitive(exec, clk);

        // ---- MEM ----
        let mem_m = Arc::clone(&mem);
        let memstage = k.process(move |ctx| {
            if ctx.get(clk) != 1 || ctx.get(state) != ST_MEM {
                return;
            }
            let addr = ctx.get(mem_addr) as u32;
            let kind = ctx.get(mem_kind);
            let mut m = mem_m.lock().expect("rtl memory lock");
            match ctx.get(mem_op) {
                MEM_LD => {
                    let v = match kind {
                        0 => m.read_u8(addr).map(|b| b as i8 as i32 as u32),
                        1 => m.read_u8(addr).map(|b| b as u32),
                        2 => m.read_u16(addr).map(|h| h as i16 as i32 as u32),
                        3 => m.read_u16(addr).map(|h| h as u32),
                        _ => m.read_u32(addr),
                    };
                    match v {
                        Ok(v) => {
                            ctx.set(wb0_en, 1);
                            ctx.set(wb0_val, v as u64);
                        }
                        Err(_) => {
                            ctx.set(state, ST_FAULT);
                            return;
                        }
                    }
                }
                MEM_ST => {
                    let v = ctx.get(mem_wdata) as u32;
                    let r = match kind {
                        10 => m.write_u8(addr, v as u8),
                        11 => m.write_u16(addr, v as u16),
                        _ => m.write_u32(addr, v),
                    };
                    if r.is_err() {
                        ctx.set(state, ST_FAULT);
                        return;
                    }
                }
                _ => {}
            }
            ctx.set(state, ST_WB);
        });
        k.make_sensitive(memstage, clk);

        // ---- WB ----
        let regs_w = regs.clone();
        let wb = k.process(move |ctx| {
            if ctx.get(clk) != 1 || ctx.get(state) != ST_WB {
                return;
            }
            if ctx.get(wb0_en) == 1 {
                let r = ctx.get(wb0_reg) as usize;
                let v = ctx.get(wb0_val);
                ctx.set(regs_w[r], v);
            }
            if ctx.get(wb1_en) == 1 {
                let r = ctx.get(wb1_reg) as usize;
                let v = ctx.get(wb1_val);
                ctx.set(regs_w[r], v);
            }
            let npc = ctx.get(next_pc);
            ctx.set(pc, npc);
            ctx.set(state, ST_FETCH);
        });
        k.make_sensitive(wb, clk);

        let initial = (k.save_state(), mem.lock().expect("rtl memory lock").clone());
        Ok(RtlCore {
            kernel: k,
            clk,
            state,
            regs,
            pc,
            instructions: 0,
            mem,
            imem,
            initial,
        })
    }

    /// Executes one instruction (several clock ticks).
    ///
    /// # Errors
    ///
    /// Propagates delta overflows and core faults.
    pub fn step_instruction(&mut self) -> Result<(), RtlError> {
        if self.is_halted() {
            return Ok(());
        }
        // Tick until the state machine returns to FETCH (or halts).
        for _ in 0..8 {
            self.kernel.tick(self.clk)?;
            match self.kernel.value(self.state) {
                ST_FAULT => {
                    return Err(RtlError::Fault {
                        pc: self.kernel.value(self.pc) as u32,
                    })
                }
                ST_HALT => {
                    self.instructions += 1;
                    return Ok(());
                }
                ST_FETCH => {
                    self.instructions += 1;
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(RtlError::Fault {
            pc: self.kernel.value(self.pc) as u32,
        })
    }

    /// Runs to the halt instruction: [`ExecutionEngine::run_until`]
    /// with a retirement budget. A halt on the last budgeted retirement
    /// is a completed run.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::InstructionLimit`] after `max_instructions`
    /// retirements without a halt.
    pub fn run(&mut self, max_instructions: u64) -> Result<(), RtlError> {
        match self.run_until(Limit::Retirements(max_instructions))? {
            StopCause::Halted => Ok(()),
            StopCause::LimitReached => Err(RtlError::InstructionLimit),
        }
    }

    /// True once `debug` executed.
    pub fn is_halted(&self) -> bool {
        self.kernel.value(self.state) == ST_HALT
    }

    /// Reads data register `i`.
    pub fn d(&self, i: u8) -> u32 {
        self.kernel.value(self.regs[i as usize]) as u32
    }

    /// Reads address register `i`.
    pub fn a(&self, i: u8) -> u32 {
        self.kernel.value(self.regs[16 + i as usize]) as u32
    }

    /// Instructions retired.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Clock cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.kernel.time()
    }

    /// Shared handle to the data memory (testbench access).
    pub fn memory(&self) -> Arc<Mutex<Memory>> {
        Arc::clone(&self.mem)
    }
}

impl ExecutionEngine for RtlCore {
    type Error = RtlError;

    /// The kernel's signal values and scheduling state, the shared data
    /// memory and the retirement counter. The elaborated processes and
    /// the instruction memory are construction-time constants and stay
    /// with the core.
    fn save_state(&self, out: &mut Vec<u8>) {
        self.kernel.save_state().encode_into(out);
        self.mem.lock().expect("rtl memory lock").encode_into(out);
        ByteWriter::new(out).u64(self.instructions);
    }

    /// The kernel state must fit this core's elaboration
    /// ([`Kernel::check_state`]).
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let kernel = KernelState::decode(r)?;
        let mem = Memory::decode(r)?;
        let instructions = r.u64()?;
        self.kernel.check_state(&kernel)?;
        self.kernel.restore_state(&kernel);
        *self.mem.lock().expect("rtl memory lock") = mem;
        self.instructions = instructions;
        Ok(())
    }

    /// Restores the post-elaboration state captured at construction
    /// (signals, memory image, counters) — the model is *not*
    /// re-elaborated.
    fn reset(&mut self) {
        self.kernel.restore_state(&self.initial.0);
        *self.mem.lock().expect("rtl memory lock") = self.initial.1.clone();
        self.instructions = 0;
    }

    fn step_unit(&mut self) -> Result<(), RtlError> {
        self.step_instruction()
    }

    /// The RTL core's native cycle unit is the simulated clock period;
    /// one instruction costs several (see
    /// [`RtlCore::step_instruction`]).
    fn cycle(&self) -> u64 {
        self.kernel.time()
    }

    fn is_halted(&self) -> bool {
        RtlCore::is_halted(self)
    }

    fn pc(&self) -> Option<u32> {
        let pcv = self.kernel.value(self.pc) as u32;
        self.imem.contains_key(&pcv).then_some(pcv)
    }

    /// Flat register space: `0..16` = `D0..D15`, `16..32` = `A0..A15`
    /// — the same layout as the golden model.
    fn reg_count(&self) -> usize {
        32
    }

    fn read_reg_index(&self, index: usize) -> u32 {
        self.kernel.value(self.regs[index]) as u32
    }

    fn write_reg_index(&mut self, index: usize, value: u32) {
        self.kernel.poke(self.regs[index], value as u64);
    }

    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, RtlError> {
        self.mem
            .lock()
            .expect("rtl memory lock")
            .read_block(addr, len)
            .map_err(RtlError::Mem)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            cycles: self.kernel.time(),
            retired: self.instructions,
            stall_cycles: 0,
        }
    }
}

fn ld_kind_code(kind: LdKind) -> u64 {
    match kind {
        LdKind::B => 0,
        LdKind::Bu => 1,
        LdKind::H => 2,
        LdKind::Hu => 3,
        LdKind::W => 4,
    }
}

fn st_kind_code(kind: StKind) -> u64 {
    match kind {
        StKind::B => 10,
        StKind::H => 11,
        StKind::W => 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_tricore::asm::assemble;
    use cabt_tricore::sim::Simulator;

    fn run_rtl(src: &str) -> RtlCore {
        let elf = assemble(src).unwrap();
        let mut core = RtlCore::new(&elf).unwrap();
        core.run(1_000_000).unwrap();
        core
    }

    #[test]
    fn computes_like_the_golden_model() {
        let src = "
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
        let core = run_rtl(src);
        assert_eq!(core.d(2), 55);

        let elf = assemble(src).unwrap();
        let mut gold = Simulator::new(&elf).unwrap();
        gold.run(10_000).unwrap();
        for i in 0..16 {
            assert_eq!(core.d(i), gold.cpu.d(i), "d{i}");
        }
    }

    #[test]
    fn memory_and_calls_work() {
        let src = "
            .text
        _start:
            movh.a %a2, hi:buf
            lea %a2, [%a2]lo:buf
            mov %d1, 33
            st.w [%a2]0, %d1
            call bump
            ld.w %d2, [%a2]0
            debug
        bump:
            ld.w %d3, [%a2]0
            addi %d3, %d3, 9
            st.w [%a2]0, %d3
            ret
            .data
        buf: .word 0
        ";
        let core = run_rtl(src);
        assert_eq!(core.d(2), 42);
    }

    #[test]
    fn postincrement_and_loop() {
        let src = "
            .text
        _start:
            movh.a %a2, hi:arr
            lea %a2, [%a2]lo:arr
            mov %d0, 4
            mov.a %a3, %d0
            mov %d2, 0
        s:
            ld.w %d1, [%a2+]4
            add %d2, %d1
            loop %a3, s
            debug
            .data
        arr: .word 1, 2, 3, 4
        ";
        let core = run_rtl(src);
        assert_eq!(core.d(2), 10);
    }

    #[test]
    fn multicycle_timing_counts_stages() {
        // ALU instructions take 3 ticks (F/E/WB), memory 4 (F/E/M/WB).
        let core = run_rtl(".text\n_start: mov %d1, 1\nmov %d2, 2\ndebug\n");
        assert_eq!(core.instructions(), 3);
        // 2 ALU × 3 + debug (halts in EXEC after fetch: 2 ticks).
        assert_eq!(core.cycles(), 8);
        assert!(
            core.kernel.delta_count() > core.cycles(),
            "deltas dominate work"
        );
    }

    #[test]
    fn fault_on_runaway_pc() {
        let elf = assemble(".text\n_start: ji %a0\n").unwrap();
        let mut core = RtlCore::new(&elf).unwrap();
        // a0 = 0 → fetch from 0 faults.
        let err = core.run(10).unwrap_err();
        assert!(matches!(err, RtlError::Fault { .. }));
    }

    #[test]
    fn workload_checksums_match() {
        // A couple of real workloads end to end.
        for w in [cabt_workloads::gcd(4, 9), cabt_workloads::dpcm(40, 9)] {
            let elf = w.elf().unwrap();
            let mut core = RtlCore::new(&elf).unwrap();
            core.run(5_000_000).unwrap();
            assert_eq!(core.d(2), w.expected_d2, "{}", w.name);
        }
    }
}
