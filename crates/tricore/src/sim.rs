//! Cycle-accurate interpretive golden model of the source processor.
//!
//! This simulator plays the role of the TriCore TC10GP evaluation board
//! in the paper's experiments: it executes the same ELF images the
//! translator consumes and reports the *measured* cycle count that the
//! translated program's generated cycle count is compared against
//! (Fig. 6), as well as the board-speed reference of Fig. 5 and Table 1.
//!
//! Timing comes from the shared [`TimingModel`]
//! (dual-issue pairing, operand stalls, divider occupancy, branch costs
//! with static BTFN prediction) plus a set-associative instruction cache
//! ([`CacheSim`]) charged per line fetch.
//!
//! # Dispatch modes
//!
//! The simulator has two dispatch cores selected by [`DispatchMode`]:
//!
//! * [`DispatchMode::Trace`] (the default) is the compiled tier. The
//!   whole `.text` image is decoded once at load into a dense
//!   pre-decoded table. Each entry carries the decoded instruction, its
//!   fall-through and direct-branch-target *table indices*, the cache
//!   lines its fetch touches, and its read/write register sets — and
//!   the table is compiled, also at load, into one specialized closure
//!   per instruction. The tier's one run loop keeps the program
//!   counter, its table index and the retirement counter in locals,
//!   enters the I/O device once, and per unit runs one closure and
//!   chases the successor index through a flat `Vec`, never hashing an
//!   address or allocating. On top of the same closures the table is
//!   partitioned into basic blocks (the shared
//!   [`cabt_exec::blocks::BlockMap`]), and block-edge counters
//!   collected during a warm-up window fuse hot chains into single
//!   multi-block closure runs with side-exit guards
//!   ([`cabt_exec::trace`]); a unit at a trace head is then a whole
//!   *trace* (up to a bounded number of loop iterations for loop
//!   traces). With a warm-up window of 0 the engine keeps no trace
//!   state at all, never profiles, and every unit is one instruction.
//!   Traces are the only multi-instruction stop points: budgeted runs
//!   overshoot into the end of the current trace.
//! * [`DispatchMode::Naive`] is the retained seed interpreter: an
//!   address-keyed map looked up on every step, with per-step line and
//!   operand-set computation, over its own copy of the instruction
//!   semantics ([`Simulator`]'s `exec`). It exists as the reference for
//!   the differential tests proving the compiled core bit-identical.
//!
//! Both cores produce exactly the same architectural state, cycle
//! counts, statistics and fault behaviour (the compiled core observed
//! at instruction and trace boundaries).
//!
//! # Program and run state
//!
//! The load-time constants — the pre-decoded table and its address
//! index, the compiled ops, the load image, the architecture and timing
//! model, the entry point — live in a [`GoldenProgram`], built once per
//! image and shared behind an [`Arc`] by every engine instantiated from
//! it ([`Simulator::instantiate`]; [`Simulator::new`] builds one and
//! instantiates it). A [`Simulator`] owns only run state: registers,
//! memory, pipeline timing state, the instruction cache, its trace tier
//! (each engine forms its own traces) and the counters. Reset and
//! restore rewrite run state and never decode or compile again.

use crate::arch::{ArchDesc, CacheSim, PreTiming, TimingModel, TimingState};
use crate::compiled::{self, CompiledProgram, CompiledTrace, Ctl, Hot, TraceCont};
use crate::encode::decode_section;
use crate::isa::{AReg, Instr, LdKind, StKind, RA};
use cabt_exec::blocks::BlockMap;
use cabt_exec::trace::{TraceConfig, TracePlan, TraceState, TraceStats};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_isa::codec::{expect_index, ByteReader, ByteWriter, CodecError};
use cabt_isa::elf::ElfFile;
use cabt_isa::mem::Memory;
use cabt_isa::{AddrMap, IsaError};
use std::fmt;
use std::sync::Arc;

/// Start of the memory-mapped I/O region on the source SoC bus.
pub const IO_BASE: u32 = 0xf000_0000;
/// End (exclusive) of the memory-mapped I/O region.
pub const IO_END: u32 = 0xf010_0000;

/// A memory-mapped device attached to the source processor's bus.
///
/// The golden model routes loads/stores inside `IO_BASE..IO_END` to this
/// trait so the SoC-peripheral experiments can run the same program on
/// the reference model and on the translated platform. Every access
/// carries `cycle`, the core's cycle count at the access, so
/// time-dependent devices (timers, UART timestamps) observe the *same*
/// clock the golden model is measured in — on the golden side the core
/// is the SoC clock.
///
/// A running engine does not call the attached device directly: it
/// *enters* it once per run slice ([`IoDevice::enter`] — once per
/// [`ExecutionEngine::run_until`], [`Simulator::run`] or
/// [`Simulator::step`]) and routes every access of the slice to the
/// device it was handed. A device behind a lock (the platform crate's
/// `GoldenBridge` over a shared SoC bus) therefore takes its lock once
/// per slice and holds it for the whole slice: other holders of the
/// lock block until the slice ends instead of interleaving with it
/// access by access.
pub trait IoDevice: Send {
    /// Handles a load of `size` bytes (1, 2 or 4) from `addr` at core
    /// time `cycle`.
    fn io_read(&mut self, cycle: u64, addr: u32, size: u32) -> u32;
    /// Handles a store of `size` bytes to `addr` at core time `cycle`.
    fn io_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32);
    /// Enters the device for one run slice: calls `run` exactly once,
    /// with the device that serves every access of the slice. Devices
    /// with nothing to acquire hand over themselves (`run(self)`); a
    /// device behind a lock takes it here and hands over the guarded
    /// device, so the lock is held for the slice and released when
    /// `run` returns — on a fault as on a normal stop.
    fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice));
}

/// Errors raised while simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program counter left the loaded program.
    PcInvalid {
        /// The bad program counter.
        pc: u32,
    },
    /// A data access failed.
    Mem(IsaError),
    /// The instruction limit of [`Simulator::run`] was exceeded.
    InstructionLimit,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PcInvalid { pc } => write!(f, "pc {pc:#010x} is outside the program"),
            SimError::Mem(e) => write!(f, "memory fault: {e}"),
            SimError::InstructionLimit => write!(f, "instruction limit exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::Mem(e)
    }
}

/// Architectural register state.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    d: [u32; 16],
    a: [u32; 16],
    /// Program counter.
    pub pc: u32,
}

impl Cpu {
    /// Reads data register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn d(&self, i: u8) -> u32 {
        self.d[i as usize]
    }

    /// Reads address register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn a(&self, i: u8) -> u32 {
        self.a[i as usize]
    }

    /// Writes data register `i`.
    pub fn set_d(&mut self, i: u8, v: u32) {
        self.d[i as usize] = v;
    }

    /// Writes address register `i`.
    pub fn set_a(&mut self, i: u8, v: u32) {
        self.a[i as usize] = v;
    }
}

/// Counters accumulated while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Source-processor cycles consumed.
    pub cycles: u64,
    /// Conditional branches executed (including `loop`).
    pub cond_branches: u64,
    /// Conditional branches taken.
    pub taken: u64,
    /// Conditional branches whose static prediction was wrong.
    pub mispredicted: u64,
    /// Instruction-cache line accesses.
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Cycles spent stalled on instruction-cache line fills.
    pub stall_cycles: u64,
}

/// Which dispatch core [`Simulator::step`] and
/// [`ExecutionEngine::run_until`] use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// The compiled ops plus the profile-guided superblock tier (see
    /// the module docs): a [`Simulator::step`] at a trace head runs the
    /// whole trace, so `run_until` budgets may overshoot into it. A
    /// warm-up of 0 ([`TraceConfig::warmup`]) keeps no trace state.
    #[default]
    Trace,
    /// The retained seed interpreter: address-map fetch on every step,
    /// and the reference the compiled ops are diffed against.
    Naive,
}

/// Sentinel for "no table entry".
pub(crate) const NO_IDX: u32 = u32::MAX;

/// One pre-decoded instruction: the decoded form plus everything the
/// hot loop would otherwise recompute per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreInstr {
    pub(crate) instr: Instr,
    /// Source address of this instruction.
    pub(crate) pc: u32,
    /// Address of the next sequential instruction.
    pub(crate) fall_pc: u32,
    /// Table index of the next sequential instruction (`NO_IDX` if it
    /// leaves the decoded image).
    pub(crate) fall: u32,
    /// Direct branch target address (0 when the instruction has none).
    pub(crate) target_pc: u32,
    /// Table index of the direct branch target.
    pub(crate) target: u32,
    /// First and last I-cache lines the fetch touches.
    pub(crate) line_first: u32,
    pub(crate) line_last: u32,
    /// Cached per-instruction timing record, operand sets included.
    pub(crate) timing: PreTiming,
}

/// Resumable image of the golden model's mutable state — everything
/// [`ExecutionEngine::snapshot`] must capture so that
/// `snapshot → run → restore → run` replays bit-identically: registers,
/// data memory, pipeline timing state, cache contents, statistics and
/// the cached dispatch index. The engine's [`GoldenProgram`] is not
/// part of it.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    cpu: Cpu,
    mem: Memory,
    tstate: TimingState,
    cache: Option<CacheSim>,
    stats: RunStats,
    cur: u32,
    halted: bool,
    /// Trace-tier state. The tier is architecturally invisible, but
    /// its profile decides *where* budgeted runs stop (trace-granular
    /// overshoot), so a replay must rewind it too. Compiled traces are
    /// not cloned: restore keeps an engine trace whose plan is equal,
    /// compiles the other carried plans (compilation is deterministic)
    /// and drops the rest, so a resumed, adopted or reset engine
    /// dispatches exactly the traces the snapshotted one did.
    trace: Option<TraceState>,
}

impl SimSnapshot {
    /// Serializes the snapshot for portable park/resume. The encoding
    /// captures exactly the fields `restore` re-seats; the resuming
    /// engine builds its [`GoldenProgram`] from the same ELF.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        for &v in &self.cpu.d {
            w.u32(v);
        }
        for &v in &self.cpu.a {
            w.u32(v);
        }
        w.u32(self.cpu.pc);
        self.mem.encode_into(out);
        self.tstate.encode_into(out);
        let mut w = ByteWriter::new(out);
        match &self.cache {
            None => w.bool(false),
            Some(c) => {
                w.bool(true);
                c.encode_into(out);
            }
        }
        let mut w = ByteWriter::new(out);
        w.u64(self.stats.instructions);
        w.u64(self.stats.cycles);
        w.u64(self.stats.cond_branches);
        w.u64(self.stats.taken);
        w.u64(self.stats.mispredicted);
        w.u64(self.stats.icache_accesses);
        w.u64(self.stats.icache_misses);
        w.u64(self.stats.stall_cycles);
        w.u32(self.cur);
        w.bool(self.halted);
        TraceState::encode_into(self.trace.as_ref(), out);
    }

    /// Decodes a [`SimSnapshot::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut cpu = Cpu::default();
        for v in &mut cpu.d {
            *v = r.u32()?;
        }
        for v in &mut cpu.a {
            *v = r.u32()?;
        }
        cpu.pc = r.u32()?;
        let mem = Memory::decode(r)?;
        let tstate = TimingState::decode(r)?;
        let cache = if r.bool()? {
            Some(CacheSim::decode(r)?)
        } else {
            None
        };
        let stats = RunStats {
            instructions: r.u64()?,
            cycles: r.u64()?,
            cond_branches: r.u64()?,
            taken: r.u64()?,
            mispredicted: r.u64()?,
            icache_accesses: r.u64()?,
            icache_misses: r.u64()?,
            stall_cycles: r.u64()?,
        };
        let cur = r.u32()?;
        let halted = r.bool()?;
        let trace = TraceState::decode(r)?;
        Ok(SimSnapshot {
            cpu,
            mem,
            tstate,
            cache,
            stats,
            cur,
            halted,
            trace,
        })
    }
}

/// The golden model's trace tier: the shared trace state and, per head
/// block, the trace compiled from its plan.
struct TraceTier {
    state: TraceState,
    traces: Vec<Option<CompiledTrace>>,
}

impl TraceTier {
    /// A cold tier over `map`'s blocks under `cfg`.
    fn cold(map: &BlockMap, cfg: TraceConfig) -> Box<TraceTier> {
        Box::new(TraceTier {
            state: TraceState::new(map.len(), cfg),
            traces: (0..map.len()).map(|_| None).collect(),
        })
    }
}

/// Loop traces iterate in place, but a single unit stays bounded: after
/// this many back-edge trips the unit ends (parked on the loop head, a
/// block leader), the run loop checks its budget, and the next unit
/// re-enters the trace. Purely a stop-point granularity knob — any
/// value yields the same architectural trajectory.
const TRACE_LOOP_CAP: u32 = 64;

/// Where execution goes after an instruction.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// Fall through to the next sequential instruction.
    Fall,
    /// Take the instruction's direct branch target.
    Direct,
    /// Jump to a computed address (`ret`, `ji`, `jli`).
    Indirect(u32),
}

/// The golden model's load-time constants, built once from an image and
/// shared by every [`Simulator`] instantiated from it (see the module
/// docs). Nothing in it changes while an engine runs.
pub struct GoldenProgram {
    /// Memory as loaded from the image: every instance starts from it
    /// and [`ExecutionEngine::reset`] restores it, so reruns are
    /// reproducible even when the program mutates its data sections.
    image: Memory,
    arch: ArchDesc,
    model: TimingModel,
    /// Pre-decoded instruction table, sorted by address. The naive path
    /// fetches through `index_of` into this table — an address hash on
    /// every step, as the seed's instruction map did.
    table: Vec<PreInstr>,
    /// Address → table index (entry points, indirect jumps).
    index_of: AddrMap<u32>,
    /// The table compiled into one fused op per instruction, over its
    /// block partition — what the compiled core steps.
    compiled: CompiledProgram,
    entry: u32,
}

impl GoldenProgram {
    /// Loads and pre-decodes `elf` and compiles its ops under `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the image fails to load or its code
    /// section does not decode.
    pub fn new(elf: &ElfFile, arch: ArchDesc) -> Result<Self, SimError> {
        let mut image = Memory::new();
        elf.load_into(&mut image)?;
        let mut decoded: Vec<(u32, Instr)> = Vec::new();
        for s in &elf.sections {
            if s.kind == cabt_isa::elf::SectionKind::Text {
                let d = decode_section(s.addr, &s.data)
                    .map_err(|_| SimError::PcInvalid { pc: s.addr })?;
                decoded.extend(d);
            }
        }
        decoded.sort_by_key(|&(addr, _)| addr);

        let index_of: AddrMap<u32> = decoded
            .iter()
            .enumerate()
            .map(|(i, &(addr, _))| (addr, i as u32))
            .collect();
        let cfg = arch.cache;
        let model = TimingModel::new(arch.timing.clone());
        let table: Vec<PreInstr> = decoded
            .iter()
            .map(|&(pc, instr)| {
                let fall_pc = pc.wrapping_add(instr.size());
                let target_pc = instr.target(pc).unwrap_or(0);
                PreInstr {
                    instr,
                    pc,
                    fall_pc,
                    fall: index_of.get(&fall_pc).copied().unwrap_or(NO_IDX),
                    target_pc,
                    target: index_of.get(&target_pc).copied().unwrap_or(NO_IDX),
                    line_first: cfg.line_of(pc),
                    line_last: cfg.line_of(pc + instr.size() - 1),
                    timing: model.pre_timing(&instr),
                }
            })
            .collect();
        let entry = index_of.get(&elf.entry).copied().unwrap_or(NO_IDX);
        let compiled = compiled::compile(&table, entry);
        Ok(GoldenProgram {
            image,
            arch,
            model,
            table,
            index_of,
            compiled,
            entry: elf.entry,
        })
    }
}

/// The golden-model simulator: the run state of one engine over a
/// shared [`GoldenProgram`].
///
/// # Example
///
/// ```
/// use cabt_tricore::{asm::assemble, sim::Simulator};
///
/// let elf = assemble(".text\n_start: mov %d2, 7\n debug\n")?;
/// let mut sim = Simulator::new(&elf)?;
/// sim.run(100)?;
/// assert_eq!(sim.cpu.d(2), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    /// Architectural register state.
    pub cpu: Cpu,
    /// Data memory (code is pre-decoded and never read as data).
    pub mem: Memory,
    program: Arc<GoldenProgram>,
    tstate: TimingState,
    cache: Option<CacheSim>,
    /// Trace-tier state (profile, formed traces, coverage counters),
    /// built cold on first use while the engine
    /// [profiles](Simulator::profiles). Snapshots carry only the plans:
    /// formed traces are deterministic compilations of them.
    trace: Option<Box<TraceTier>>,
    /// Trace-tier knobs ([`Simulator::set_trace_config`]).
    trace_cfg: TraceConfig,
    /// Cached table index of `cpu.pc` (`NO_IDX` forces a map lookup).
    cur: u32,
    mode: DispatchMode,
    stats: RunStats,
    io: Option<Box<dyn IoDevice>>,
    halted: bool,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("pc", &self.cpu.pc)
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator for `elf` with the default architecture
    /// description (48 MHz TC10GP-like core, 1 KiB 2-way I-cache).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the image fails to load or its code
    /// section does not decode.
    pub fn new(elf: &ElfFile) -> Result<Self, SimError> {
        Self::with_arch(elf, ArchDesc::default())
    }

    /// Builds a simulator with an explicit architecture description.
    ///
    /// # Errors
    ///
    /// See [`Simulator::new`].
    pub fn with_arch(elf: &ElfFile, arch: ArchDesc) -> Result<Self, SimError> {
        Ok(Self::instantiate(Arc::new(GoldenProgram::new(elf, arch)?)))
    }

    /// A fresh engine over `program`, at its entry with its load image:
    /// the one way every simulator is made, so engines over one program
    /// share its tables and compiled ops.
    pub fn instantiate(program: Arc<GoldenProgram>) -> Self {
        let mut sim = Simulator {
            cpu: Cpu::default(),
            mem: Memory::new(),
            cache: Some(CacheSim::new(program.arch.cache)),
            program,
            tstate: TimingState::new(),
            trace: None,
            trace_cfg: TraceConfig::default(),
            cur: NO_IDX,
            mode: DispatchMode::default(),
            stats: RunStats::default(),
            io: None,
            halted: false,
        };
        sim.reset();
        sim
    }

    /// The program this engine runs.
    pub fn program(&self) -> &Arc<GoldenProgram> {
        &self.program
    }

    /// Disables the instruction-cache model (an ideal-memory variant).
    pub fn disable_icache(&mut self) {
        self.cache = None;
    }

    /// Selects the dispatch core (the compiled [`DispatchMode::Trace`]
    /// by default). Leaving the compiled core drops its trace state.
    pub fn set_dispatch(&mut self, mode: DispatchMode) {
        self.mode = mode;
        self.trace = self.trace.take().filter(|_| self.profiles());
    }

    /// Sets the trace-tier knobs (warm-up window and hot threshold).
    /// The profile and formed traces start over, cold; a warm-up of 0
    /// keeps no trace state.
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        self.trace_cfg = cfg;
        self.trace = None;
    }

    /// Whether the engine profiles: the compiled core with an open
    /// warm-up window. Exactly such an engine has trace state.
    fn profiles(&self) -> bool {
        self.mode == DispatchMode::Trace && self.trace_cfg.warmup > 0
    }

    /// Checks a snapshot decoded from untrusted bytes against this
    /// engine before [`ExecutionEngine::restore`]: the cached table
    /// index must fit the program this engine was built from, the cache
    /// image this engine's cache model ([`CacheSim::check`]), and the
    /// trace state its block map ([`TraceState::check`]). A snapshot
    /// this engine took always fits.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of the first field that does not fit.
    pub fn check_snapshot(&self, snapshot: &SimSnapshot) -> Result<(), CodecError> {
        let prog = &*self.program;
        expect_index("golden table index", snapshot.cur, 0..prog.table.len())?;
        if let Some(c) = &snapshot.cache {
            c.check(&prog.arch.cache)?;
        }
        if snapshot.cache.is_some() != self.cache.is_some() {
            return Err(CodecError::BadValue {
                what: "golden icache presence",
                value: snapshot.cache.is_some().into(),
            });
        }
        if let Some(snap) = snapshot.trace.as_ref().filter(|_| self.profiles()) {
            snap.check(&prog.compiled.map)?;
        }
        Ok(())
    }

    /// Trace-tier formation/coverage counters (`None` unless the engine
    /// profiles: [`DispatchMode::Trace`] with a warm-up window).
    /// Deliberately outside [`RunStats`], which is compared bit-for-bit
    /// across dispatch modes by the differential suites.
    pub fn trace_stats(&self) -> Option<TraceStats> {
        match &self.trace {
            Some(t) => Some(t.state.stats),
            None => self.profiles().then(TraceStats::default),
        }
    }

    /// The chains the trace tier has fused so far, in head-block order —
    /// the dynamic side of the static trace-prediction cross-check.
    /// Empty when the trace tier is off or nothing turned hot yet.
    pub fn trace_plans(&self) -> Vec<TracePlan> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, |t| t.state.formed())
    }

    /// Attaches a memory-mapped I/O device for `IO_BASE..IO_END`.
    pub fn set_io_device(&mut self, dev: Box<dyn IoDevice>) {
        self.io = Some(dev);
    }

    /// Runs `body` with the attached I/O device entered once for the
    /// whole call ([`IoDevice::enter`]); `body` sees `None` when no
    /// device is attached. The device is detached for the call, so the
    /// dispatch path reaches it only through `body`'s argument.
    fn with_io<R>(&mut self, body: impl FnOnce(&mut Self, Option<&mut dyn IoDevice>) -> R) -> R {
        let Some(mut dev) = self.io.take() else {
            return body(self, None);
        };
        let mut body = Some(body);
        let mut out = None;
        dev.enter(&mut |io| {
            let body = body.take().expect("IoDevice::enter runs its slice once");
            out = Some(body(self, Some(io)));
        });
        self.io = Some(dev);
        out.expect("IoDevice::enter runs its slice")
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.cycles = self.tstate.cycles();
        s
    }

    /// True once the program executed `debug`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until `debug` halts the program, with the I/O device
    /// entered once for the whole run: [`ExecutionEngine::run_until`]
    /// with a retirement budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InstructionLimit`] after `max_instructions`
    /// retirements without a halt, or any fault from [`Simulator::step`].
    pub fn run(&mut self, max_instructions: u64) -> Result<RunStats, SimError> {
        if self.run_until(Limit::Retirements(max_instructions))? == StopCause::LimitReached
            && !self.halted
        {
            return Err(SimError::InstructionLimit);
        }
        Ok(self.stats())
    }

    /// Executes a single dispatch unit, returning the last instruction
    /// it retired: one instruction, or at the head of a formed trace one
    /// whole trace (reporting the terminator it left through).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PcInvalid`] if the program counter points
    /// outside the decoded program, or [`SimError::Mem`] on data faults.
    pub fn step(&mut self) -> Result<Instr, SimError> {
        // A step ignores the budget: any limit will do.
        let one = Limit::Cycles(0);
        self.with_io(|sim, io| {
            let mut last = None;
            match sim.mode {
                DispatchMode::Naive => return sim.step_naive(io),
                DispatchMode::Trace if sim.profiles() => {
                    sim.run_compiled::<true, true>(io, one, &mut last)?
                }
                DispatchMode::Trace => sim.run_compiled::<false, true>(io, one, &mut last)?,
            };
            Ok(last.expect("a step retires its unit or faults"))
        })
    }

    /// The compiled tier's run loop: the only place a compiled op or
    /// trace is dispatched, with `io` the entered I/O device. The
    /// program counter, its table index and the retirement counter live
    /// in locals for the whole run and are written back once, on the
    /// way out.
    ///
    /// At every unit boundary it makes [`cabt_exec::run_until_with`]'s
    /// checks — the budget, then the halt — or, with `ONE`, stops after
    /// the first unit (a step), leaving its last instruction in `last`.
    /// Without `PROFILE` (a warm-up of 0) every unit is one compiled
    /// op. With it, a leader counts its block's dispatch (forming traces
    /// on the hot-threshold crossing) and, when a trace is headed
    /// there, the whole fused superblock is the unit — seam guards
    /// compare each segment terminator's actual exit with the edge the
    /// trace was selected along, side-exiting on mismatch; loop traces
    /// iterate in place (bounded by [`TRACE_LOOP_CAP`]) using the head
    /// segment's back-edge specialization. Elsewhere one compiled op is
    /// the unit, and while the warm-up window is open a block's last
    /// instruction records the exit edge. Per-instruction work inside
    /// the closures mirrors the naive step exactly (cache accounting,
    /// semantics, the stateful timing model, branch statistics); only
    /// the retirement counter is batched per trace — and reconstructed
    /// on the fault path, where `cpu.pc` parks on the faulting
    /// instruction just as the naive core leaves it.
    fn run_compiled<const PROFILE: bool, const ONE: bool>(
        &mut self,
        io: Option<&mut (dyn IoDevice + '_)>,
        limit: Limit,
        last: &mut Option<Instr>,
    ) -> Result<StopCause, SimError> {
        let Simulator {
            program,
            trace,
            trace_cfg,
            cpu,
            mem,
            tstate,
            cache,
            stats,
            halted,
            cur: cur_field,
            ..
        } = self;
        // One borrow of the shared program for the whole run.
        let GoldenProgram {
            table,
            index_of,
            compiled: prog,
            model,
            arch,
            ..
        } = &**program;
        let cache_cfg = &arch.cache;
        let cfg = *trace_cfg;
        let mut tier = if PROFILE {
            Some(&mut **trace.get_or_insert_with(|| TraceTier::cold(&prog.map, cfg)))
        } else {
            None
        };
        let mut retired = stats.instructions;
        let mut pc = cpu.pc;
        // `field` is what `self.cur` holds; `cur` the index of `pc`. They
        // differ only at entry, when someone rewrote `cpu.pc` behind the
        // cached index (debuggers do): one map lookup then.
        let mut field = *cur_field;
        let mut cur = if field != NO_IDX && table[field as usize].pc == pc {
            field
        } else {
            index_of.get(&pc).copied().unwrap_or(NO_IDX)
        };
        let mut hot = Hot {
            cpu,
            mem,
            // Shortens the device's object lifetime to the run's.
            io: io.map(|d| d as &mut dyn IoDevice),
            tstate,
            cache,
            cache_cfg: *cache_cfg,
            model,
            stats,
            halted,
        };
        let mut stepped = false;
        let result = 'run: loop {
            if ONE {
                if stepped {
                    break Ok(StopCause::LimitReached);
                }
                stepped = true;
            } else {
                if limit.exhausted(hot.tstate.cycles(), retired) {
                    break Ok(StopCause::LimitReached);
                }
                if *hot.halted {
                    break Ok(StopCause::Halted);
                }
            }
            if cur == NO_IDX {
                match index_of.get(&pc) {
                    Some(&i) => cur = i,
                    None => break Err(SimError::PcInvalid { pc }),
                }
            }
            let loc = PROFILE.then(|| prog.map.location(cur));
            if let Some(loc) = loc.filter(|l| l.offset == 0) {
                let TraceTier { state, traces } =
                    tier.as_deref_mut().expect("a profiling run has a tier");
                // At a leader, warm-up profiling counts the dispatch
                // and, on the hot-threshold crossing, grows the hottest
                // chain and fuses it; then the trace headed here, if
                // any, runs.
                if let Some(plan) = state.form(&prog.map, loc.block, cfg.hot_threshold) {
                    traces[loc.block as usize] = Some(compiled::compile_trace(
                        table.as_slice(),
                        &prog.map,
                        plan,
                        cache_cfg.line_bytes,
                    ));
                }
                if let Some(tr) = &traces[loc.block as usize] {
                    // Fused superblock dispatch. Batched-fetch fast
                    // path: when every line the whole trace touches is
                    // MRU-resident, each per-op access would be a pure
                    // hit with no tag/LRU movement — so the fetch-free
                    // ops run, nothing can move cache state for the
                    // rest of the trace (the guard keeps holding
                    // through seams and loop iterations), and all fetch
                    // accounting of the trace collapses into one add at
                    // the exit point. Bit-identical: no observation
                    // point exists inside a unit. With no cache
                    // configured the fast path is unconditional and
                    // accounts nothing, like a single op's prologue.
                    let tstats = &mut state.stats;
                    let (batched, counted) = match hot.cache.as_ref() {
                        None => (true, false),
                        Some(c) => (tr.lines.iter().all(|&l| c.mru_resident(l)), true),
                    };
                    let mut done = 0u64; // units retired in completed segments
                    let mut acc = 0u64; // batched icache accesses of those
                    let mut si = 0usize;
                    let mut iters = 0u32;
                    let mut on_back_edge = false;
                    loop {
                        let seg = &tr.segs[si];
                        let ops = if batched {
                            &seg.lean_ops[..]
                        } else if on_back_edge && si == 0 {
                            tr.loop_head_ops
                                .as_deref()
                                .expect("loop traces carry head ops")
                        } else {
                            &seg.ops[..]
                        };
                        let mut i = 0usize;
                        let exit = loop {
                            match (ops[i])(&mut hot) {
                                Ok(Ctl::Next) => i += 1,
                                Ok(ctl) => break ctl,
                                Err(e) => {
                                    // Fault inside the trace: the
                                    // completed prefix retires, the
                                    // faulting op does not. On the
                                    // batched path, fetch precedes
                                    // execute, so ops 0..=i did fetch —
                                    // their accesses (all guarded hits)
                                    // land now.
                                    if batched && counted {
                                        let n = acc + u64::from(seg.acc_prefix[i]);
                                        hot.stats.icache_accesses += n;
                                        hot.cache
                                            .as_mut()
                                            .expect("counted implies a cache")
                                            .batch_hits(n);
                                    }
                                    let done = done + i as u64;
                                    retired += done;
                                    tstats.trace_retired += done;
                                    pc = seg.pcs[i];
                                    field = seg.first + i as u32;
                                    break 'run Err(e);
                                }
                            }
                        };
                        acc += u64::from(seg.accesses);
                        done += (i + 1) as u64;
                        // Seam guard: did control leave through the edge
                        // the trace was selected along?
                        let cont = if si + 1 < tr.segs.len() {
                            seg.cont
                        } else {
                            tr.loop_cont
                        };
                        let follows = !*hot.halted
                            && matches!(
                                (cont, exit),
                                (Some(TraceCont::Fall), Ctl::Next | Ctl::Fall)
                                    | (Some(TraceCont::Taken), Ctl::Taken)
                            );
                        if follows {
                            if si + 1 < tr.segs.len() {
                                si += 1;
                                continue;
                            }
                            // Back edge of a loop trace: iterate in place.
                            iters += 1;
                            if iters < TRACE_LOOP_CAP {
                                si = 0;
                                on_back_edge = true;
                                continue;
                            }
                            // Cap hit: end the unit on the matched edge —
                            // it lands on the head leader, like any side
                            // exit.
                        }
                        // Side exit: resolve the successor exactly as a
                        // single op would and end the unit.
                        (pc, cur) = match exit {
                            Ctl::Next | Ctl::Fall => (seg.fall_pc, seg.fall_unit),
                            Ctl::Taken => (seg.target_pc, seg.taken_unit),
                            Ctl::Indirect(a) => (a, index_of.get(&a).copied().unwrap_or(NO_IDX)),
                        };
                        // Direct side exits always land on block leaders
                        // (targets and post-terminator successors are
                        // leaders by construction); indirect exits may
                        // land mid-block, where single ops take over.
                        debug_assert!(
                            matches!(exit, Ctl::Indirect(_))
                                || cur == NO_IDX
                                || prog.map.location(cur).offset == 0,
                            "trace side exit must land on a block leader"
                        );
                        if batched && counted {
                            hot.stats.icache_accesses += acc;
                            hot.cache
                                .as_mut()
                                .expect("counted implies a cache")
                                .batch_hits(acc);
                        }
                        field = cur;
                        retired += done;
                        tstats.trace_retired += done;
                        if ONE {
                            *last = Some(seg.term);
                        }
                        continue 'run;
                    }
                }
            }

            // One compiled op; a fault leaves `cpu.pc` on it.
            let exit = match (prog.ops[cur as usize])(&mut hot) {
                Ok(exit) => exit,
                Err(e) => break Err(e),
            };
            retired += 1;
            if let Some(loc) = loc {
                let tier = tier.as_deref_mut().expect("a profiling run has a tier");
                let profile = &mut tier.state.profile;
                if profile.warm() && cur == prog.map.blocks[loc.block as usize].last() {
                    match exit {
                        Ctl::Next | Ctl::Fall => profile.record_fall(loc.block),
                        Ctl::Taken => profile.record_taken(loc.block),
                        Ctl::Indirect(_) => {}
                    }
                }
            }
            let pi = &table[cur as usize];
            (pc, cur) = match exit {
                Ctl::Next | Ctl::Fall => (pi.fall_pc, pi.fall),
                Ctl::Taken => (pi.target_pc, pi.target),
                Ctl::Indirect(a) => (a, index_of.get(&a).copied().unwrap_or(NO_IDX)),
            };
            field = cur;
            if ONE {
                *last = Some(pi.instr);
            }
        };
        hot.cpu.pc = pc;
        hot.stats.instructions = retired;
        *cur_field = field;
        result
    }

    /// The retained naive interpreter: per-step map fetch, per-step line
    /// computation, per-step operand-set construction — exactly the seed
    /// implementation, kept as the differential-test reference.
    fn step_naive(&mut self, io: Option<&mut (dyn IoDevice + '_)>) -> Result<Instr, SimError> {
        let pc = self.cpu.pc;
        // Address-hashed fetch on every step — the seed's dispatch shape.
        let idx = *self
            .program
            .index_of
            .get(&pc)
            .ok_or(SimError::PcInvalid { pc })?;
        let instr = self.program.table[idx as usize].instr;

        // Instruction-cache accounting: charge each line the fetch touches.
        if let Some(cache) = &mut self.cache {
            let cfg = *cache.config();
            let first = cfg.line_of(pc);
            let last = cfg.line_of(pc + instr.size() - 1);
            let mut line = first;
            loop {
                self.stats.icache_accesses += 1;
                if !cache.access(line) {
                    self.stats.icache_misses += 1;
                    self.stats.stall_cycles += cfg.miss_penalty as u64;
                    self.tstate.stall(cfg.miss_penalty as u64);
                }
                if line == last {
                    break;
                }
                line += cfg.line_bytes;
            }
        }

        let fall_pc = pc.wrapping_add(instr.size());
        let (flow, taken) = self.exec(pc, instr, fall_pc, io)?;
        let next_pc = match flow {
            Flow::Fall => fall_pc,
            Flow::Direct => instr.target(pc).expect("direct"),
            Flow::Indirect(a) => a,
        };

        // Timing: dynamic outcome for conditionals, exact for the rest.
        let dyn_taken = taken.or(Some(true));
        self.program.model.step(&mut self.tstate, &instr, dyn_taken);
        if let Some(t) = taken {
            self.stats.cond_branches += 1;
            if t {
                self.stats.taken += 1;
            }
            if self.program.arch.timing.predicts_taken(&instr) != Some(t) {
                self.stats.mispredicted += 1;
            }
        }
        self.stats.instructions += 1;
        self.cpu.pc = next_pc;
        self.cur = NO_IDX;
        Ok(instr)
    }

    /// Executes one instruction's architectural effect and reports where
    /// control goes: the naive oracle's copy of the instruction
    /// semantics, written independently of the compiled ops it checks.
    fn exec(
        &mut self,
        pc: u32,
        instr: Instr,
        fall_pc: u32,
        io: Option<&mut (dyn IoDevice + '_)>,
    ) -> Result<(Flow, Option<bool>), SimError> {
        let mut flow = Flow::Fall;
        let mut taken: Option<bool> = None;

        match instr {
            Instr::Nop16 | Instr::Nop => {}
            Instr::Debug16 => self.halted = true,
            Instr::Ret16 => flow = Flow::Indirect(self.cpu.a(RA.0)),
            Instr::Mov16 { d, imm7 } => self.cpu.set_d(d.0, imm7 as i32 as u32),
            Instr::MovRR16 { d, s } => self.cpu.set_d(d.0, self.cpu.d(s.0)),
            Instr::Add16 { d, s } => self
                .cpu
                .set_d(d.0, self.cpu.d(d.0).wrapping_add(self.cpu.d(s.0))),
            Instr::Sub16 { d, s } => self
                .cpu
                .set_d(d.0, self.cpu.d(d.0).wrapping_sub(self.cpu.d(s.0))),
            Instr::LdW16 { d, a } => {
                let v = self.load(io, self.cpu.a(a.0), LdKind::W)?;
                self.cpu.set_d(d.0, v);
            }
            Instr::StW16 { a, s } => {
                self.store(io, self.cpu.a(a.0), StKind::W, self.cpu.d(s.0))?;
            }
            Instr::Mov { d, imm16 } => self.cpu.set_d(d.0, imm16 as i32 as u32),
            Instr::Movh { d, imm16 } => self.cpu.set_d(d.0, (imm16 as u32) << 16),
            Instr::MovhA { a, imm16 } => self.cpu.set_a(a.0, (imm16 as u32) << 16),
            Instr::Addi { d, s, imm16 } => self
                .cpu
                .set_d(d.0, self.cpu.d(s.0).wrapping_add(imm16 as i32 as u32)),
            Instr::Addih { d, s, imm16 } => self
                .cpu
                .set_d(d.0, self.cpu.d(s.0).wrapping_add((imm16 as u32) << 16)),
            Instr::MovRR { d, s } => self.cpu.set_d(d.0, self.cpu.d(s.0)),
            Instr::MovA { a, s } => self.cpu.set_a(a.0, self.cpu.d(s.0)),
            Instr::MovD { d, a } => self.cpu.set_d(d.0, self.cpu.a(a.0)),
            Instr::MovAA { a, s } => self.cpu.set_a(a.0, self.cpu.a(s.0)),
            Instr::Lea { a, base, off16 } => self
                .cpu
                .set_a(a.0, self.cpu.a(base.0).wrapping_add(off16 as i32 as u32)),
            Instr::Bin { op, d, s1, s2 } => self
                .cpu
                .set_d(d.0, op.apply(self.cpu.d(s1.0), self.cpu.d(s2.0))),
            Instr::BinI { op, d, s1, imm9 } => self
                .cpu
                .set_d(d.0, op.apply(self.cpu.d(s1.0), imm9 as i32 as u32)),
            Instr::Madd { d, acc, s1, s2 } => {
                let v = self
                    .cpu
                    .d(acc.0)
                    .wrapping_add(self.cpu.d(s1.0).wrapping_mul(self.cpu.d(s2.0)));
                self.cpu.set_d(d.0, v);
            }
            Instr::Msub { d, acc, s1, s2 } => {
                let v = self
                    .cpu
                    .d(acc.0)
                    .wrapping_sub(self.cpu.d(s1.0).wrapping_mul(self.cpu.d(s2.0)));
                self.cpu.set_d(d.0, v);
            }
            Instr::Ld {
                kind,
                d,
                base,
                off10,
                postinc,
            } => {
                let addr = self.ea(base, off10, postinc);
                let v = self.load(io, addr, kind)?;
                self.cpu.set_d(d.0, v);
            }
            Instr::LdA {
                a,
                base,
                off10,
                postinc,
            } => {
                let addr = self.ea(base, off10, postinc);
                let v = self.load(io, addr, LdKind::W)?;
                self.cpu.set_a(a.0, v);
            }
            Instr::St {
                kind,
                s,
                base,
                off10,
                postinc,
            } => {
                let addr = self.ea(base, off10, postinc);
                self.store(io, addr, kind, self.cpu.d(s.0))?;
            }
            Instr::StA {
                s,
                base,
                off10,
                postinc,
            } => {
                let addr = self.ea(base, off10, postinc);
                self.store(io, addr, StKind::W, self.cpu.a(s.0))?;
            }
            Instr::J { .. } => {
                debug_assert!(instr.target(pc).is_some());
                flow = Flow::Direct;
            }
            Instr::Jl { .. } => {
                self.cpu.set_a(RA.0, fall_pc);
                flow = Flow::Direct;
            }
            Instr::Ji { a } => flow = Flow::Indirect(self.cpu.a(a.0)),
            Instr::Jli { a } => {
                let t = self.cpu.a(a.0);
                self.cpu.set_a(RA.0, fall_pc);
                flow = Flow::Indirect(t);
            }
            Instr::Jcond { cond, s1, s2, .. } => {
                let t = cond.eval(self.cpu.d(s1.0), self.cpu.d(s2.0));
                taken = Some(t);
                if t {
                    flow = Flow::Direct;
                }
            }
            Instr::JcondZ { cond, s1, .. } => {
                let t = cond.eval(self.cpu.d(s1.0), 0);
                taken = Some(t);
                if t {
                    flow = Flow::Direct;
                }
            }
            Instr::Loop { a, .. } => {
                let v = self.cpu.a(a.0).wrapping_sub(1);
                self.cpu.set_a(a.0, v);
                let t = v != 0;
                taken = Some(t);
                if t {
                    flow = Flow::Direct;
                }
            }
        }
        Ok((flow, taken))
    }

    fn ea(&mut self, base: AReg, off10: i16, postinc: bool) -> u32 {
        let b = self.cpu.a(base.0);
        if postinc {
            self.cpu.set_a(base.0, b.wrapping_add(off10 as i32 as u32));
            b
        } else {
            b.wrapping_add(off10 as i32 as u32)
        }
    }

    fn load(
        &mut self,
        io: Option<&mut (dyn IoDevice + '_)>,
        addr: u32,
        kind: LdKind,
    ) -> Result<u32, SimError> {
        route_load(&mut self.mem, io, &self.tstate, addr, kind)
    }

    fn store(
        &mut self,
        io: Option<&mut (dyn IoDevice + '_)>,
        addr: u32,
        kind: StKind,
        value: u32,
    ) -> Result<(), SimError> {
        route_store(&mut self.mem, io, &self.tstate, addr, kind, value)
    }
}

/// Routes a data load to memory or the I/O window — the one load path
/// shared by every dispatch core (the compiled closures call it
/// directly, so routing semantics cannot drift between modes).
pub(crate) fn route_load(
    mem: &mut Memory,
    io: Option<&mut (dyn IoDevice + '_)>,
    tstate: &TimingState,
    addr: u32,
    kind: LdKind,
) -> Result<u32, SimError> {
    if (IO_BASE..IO_END).contains(&addr) {
        if let Some(dev) = io {
            let size = match kind {
                LdKind::B | LdKind::Bu => 1,
                LdKind::H | LdKind::Hu => 2,
                LdKind::W => 4,
            };
            let now = tstate.cycles();
            return Ok(dev.io_read(now, addr, size));
        }
    }
    Ok(match kind {
        LdKind::B => mem.read_u8(addr)? as i8 as i32 as u32,
        LdKind::Bu => mem.read_u8(addr)? as u32,
        LdKind::H => mem.read_u16(addr)? as i16 as i32 as u32,
        LdKind::Hu => mem.read_u16(addr)? as u32,
        LdKind::W => mem.read_u32(addr)?,
    })
}

/// Store twin of [`route_load`].
pub(crate) fn route_store(
    mem: &mut Memory,
    io: Option<&mut (dyn IoDevice + '_)>,
    tstate: &TimingState,
    addr: u32,
    kind: StKind,
    value: u32,
) -> Result<(), SimError> {
    if (IO_BASE..IO_END).contains(&addr) {
        if let Some(dev) = io {
            let size = match kind {
                StKind::B => 1,
                StKind::H => 2,
                StKind::W => 4,
            };
            let now = tstate.cycles();
            dev.io_write(now, addr, size, value);
            return Ok(());
        }
    }
    match kind {
        StKind::B => mem.write_u8(addr, value as u8)?,
        StKind::H => mem.write_u16(addr, value as u16)?,
        StKind::W => mem.write_u32(addr, value)?,
    }
    Ok(())
}

impl ExecutionEngine for Simulator {
    type Error = SimError;
    type Snapshot = SimSnapshot;

    fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            cpu: self.cpu.clone(),
            mem: self.mem.clone(),
            tstate: self.tstate.clone(),
            cache: self.cache.clone(),
            stats: self.stats,
            cur: self.cur,
            halted: self.halted,
            trace: self.profiles().then(|| match &self.trace {
                Some(t) => t.state.clone(),
                None => TraceState::new(self.program.compiled.map.len(), self.trace_cfg),
            }),
        }
    }

    fn restore(&mut self, snapshot: &SimSnapshot) {
        self.cpu = snapshot.cpu.clone();
        self.mem = snapshot.mem.clone();
        self.tstate = snapshot.tstate.clone();
        self.cache = snapshot.cache.clone();
        self.stats = snapshot.stats;
        self.cur = snapshot.cur;
        self.halted = snapshot.halted;
        match &snapshot.trace {
            Some(snap) if self.profiles() => {
                let prog = &*self.program;
                let tier = self
                    .trace
                    .get_or_insert_with(|| TraceTier::cold(&prog.compiled.map, self.trace_cfg));
                let plans = tier.traces.iter_mut().zip(&tier.state.plans);
                for ((tr, had), plan) in plans.zip(&snap.plans) {
                    match plan {
                        None => *tr = None,
                        Some(plan) if had.as_ref() == Some(plan) => {}
                        Some(plan) => {
                            *tr = Some(compiled::compile_trace(
                                &prog.table,
                                &prog.compiled.map,
                                plan,
                                prog.arch.cache.line_bytes,
                            ));
                        }
                    }
                }
                tier.state = snap.clone();
            }
            // A snapshot without trace state (or an engine that does not
            // profile): replay starts from a cold profile, exactly as
            // the snapshotted engine would have.
            _ => self.trace = None,
        }
    }

    /// Flat register space: `0..16` = `D0..D15`, `16..32` = `A0..A15`.
    fn reset(&mut self) {
        let prog = &*self.program;
        self.cpu = Cpu {
            pc: prog.entry,
            ..Cpu::default()
        };
        self.cpu.set_a(10, 0xd003_0000); // default stack pointer
        self.mem = prog.image.clone();
        self.tstate = TimingState::new();
        if self.cache.is_some() {
            self.cache = Some(CacheSim::new(prog.arch.cache));
        }
        self.stats = RunStats::default();
        self.halted = false;
        self.cur = prog.index_of.get(&prog.entry).copied().unwrap_or(NO_IDX);
        // A reset engine reruns from a cold trace profile, so a rerun
        // reproduces the original run exactly — budget stop points
        // included, not just the architectural trajectory.
        self.trace = None;
    }

    fn step_unit(&mut self) -> Result<(), SimError> {
        self.step().map(drop)
    }

    /// The I/O device entered once for the whole run, however many
    /// accesses the run makes; the naive core runs
    /// [`cabt_exec::run_until_with`] inside it, the compiled tier its
    /// own loop, which makes the same checks at the same unit
    /// boundaries.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, SimError> {
        self.with_io(|sim, mut io| match sim.mode {
            DispatchMode::Naive => {
                cabt_exec::run_until_with(sim, limit, |s| s.step_naive(io.as_deref_mut()).map(drop))
            }
            DispatchMode::Trace if sim.profiles() => {
                sim.run_compiled::<true, false>(io, limit, &mut None)
            }
            DispatchMode::Trace => sim.run_compiled::<false, false>(io, limit, &mut None),
        })
    }

    fn cycle(&self) -> u64 {
        self.tstate.cycles()
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn pc(&self) -> Option<u32> {
        let pc = self.cpu.pc;
        let prog = &*self.program;
        let known = (self.cur != NO_IDX && prog.table[self.cur as usize].pc == pc)
            || prog.index_of.contains_key(&pc);
        known.then_some(pc)
    }

    fn reg_count(&self) -> usize {
        32
    }

    fn read_reg_index(&self, index: usize) -> u32 {
        if index < 16 {
            self.cpu.d(index as u8)
        } else {
            self.cpu.a((index - 16) as u8)
        }
    }

    fn write_reg_index(&mut self, index: usize, value: u32) {
        if index < 16 {
            self.cpu.set_d(index as u8, value);
        } else {
            self.cpu.set_a((index - 16) as u8, value);
        }
    }

    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SimError> {
        self.mem.read_block(addr, len).map_err(SimError::Mem)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            cycles: self.tstate.cycles(),
            retired: self.stats.instructions,
            stall_cycles: self.stats.stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use cabt_exec::{Limit, StopCause};

    fn run(src: &str) -> Simulator {
        let elf = assemble(src).expect("assembles");
        let mut sim = Simulator::new(&elf).expect("loads");
        sim.run(1_000_000).expect("halts");
        sim
    }

    #[test]
    fn arithmetic_and_halt() {
        let sim = run(".text\n_start: mov %d1, 20\nmov %d2, 22\nadd %d2, %d1\ndebug\n");
        assert_eq!(sim.cpu.d(2), 42);
        assert!(sim.is_halted());
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let sim = run("
            .text
        _start:
            movh.a %a2, hi:buf
            lea  %a2, [%a2]lo:buf
            mov  %d1, -5
            st.w [%a2]0, %d1
            ld.w %d3, [%a2]0
            ld.h %d4, [%a2]0
            ld.bu %d5, [%a2]0
            debug
            .data
        buf: .word 0
        ");
        assert_eq!(sim.cpu.d(3), (-5i32) as u32);
        assert_eq!(sim.cpu.d(4), (-5i32) as u32);
        assert_eq!(sim.cpu.d(5), 0xfb);
    }

    #[test]
    fn postincrement_walks_array() {
        let sim = run("
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
        ");
        assert_eq!(sim.cpu.d(2), 100);
    }

    #[test]
    fn call_and_return() {
        let sim = run("
            .text
        _start:
            mov %d2, 1
            call double
            call double
            debug
        double:
            add %d2, %d2
            ret
        ");
        assert_eq!(sim.cpu.d(2), 4);
    }

    #[test]
    fn conditional_branch_stats() {
        let sim = run("
            .text
        _start:
            mov %d0, 10
            mov %d2, 0
        top:
            add %d2, %d0
            addi %d0, %d0, -1
            jnz %d0, top
            debug
        ");
        assert_eq!(sim.cpu.d(2), 55);
        let st = sim.stats();
        assert_eq!(st.cond_branches, 10);
        assert_eq!(st.taken, 9);
        // Backward branch is predicted taken: exactly one mispredict (exit).
        assert_eq!(st.mispredicted, 1);
        assert!(sim.is_halted());
    }

    #[test]
    fn cycles_exceed_instructions_and_track_cache() {
        let sim = run(".text\n_start: mov %d1, 1\nmov %d2, 2\nmov %d3, 3\ndebug\n");
        let st = sim.stats();
        assert_eq!(st.instructions, 4);
        assert!(st.cycles >= st.instructions);
        assert!(st.icache_accesses >= 4);
        assert!(st.icache_misses >= 1, "cold start must miss");
        assert!(st.stall_cycles > 0, "misses stall the fetch");
    }

    #[test]
    fn icache_can_be_disabled() {
        let elf = assemble(".text\n_start: mov %d1, 1\ndebug\n").unwrap();
        let mut sim = Simulator::new(&elf).unwrap();
        sim.disable_icache();
        sim.run(100).unwrap();
        assert_eq!(sim.stats().icache_accesses, 0);
    }

    #[test]
    fn invalid_pc_faults() {
        let elf = assemble(".text\n_start: ji %a0\n").unwrap();
        let mut sim = Simulator::new(&elf).unwrap();
        sim.cpu.set_a(0, 0x1234_0000);
        sim.step().unwrap();
        assert!(matches!(
            sim.step(),
            Err(SimError::PcInvalid { pc: 0x1234_0000 })
        ));
    }

    #[test]
    fn instruction_limit_enforced() {
        let elf = assemble(".text\n_start: j _start\n").unwrap();
        let mut sim = Simulator::new(&elf).unwrap();
        assert_eq!(sim.run(50), Err(SimError::InstructionLimit));
    }

    #[test]
    fn io_device_sees_accesses() {
        struct Probe(Vec<(u32, u32)>);
        impl IoDevice for Probe {
            fn io_read(&mut self, _cycle: u64, _addr: u32, _size: u32) -> u32 {
                0x55
            }
            fn io_write(&mut self, _cycle: u64, addr: u32, _size: u32, value: u32) {
                self.0.push((addr, value));
            }
            fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice)) {
                run(self);
            }
        }
        let elf = assemble(
            "
            .text
        _start:
            movh.a %a2, 0xf000
            mov %d1, 9
            st.w [%a2]16, %d1
            ld.w %d3, [%a2]16
            debug
        ",
        )
        .unwrap();
        let mut sim = Simulator::new(&elf).unwrap();
        sim.set_io_device(Box::new(Probe(Vec::new())));
        sim.run(100).unwrap();
        assert_eq!(sim.cpu.d(3), 0x55);
    }

    /// A run enters its device once, whatever its access count, and
    /// every access goes to the device it was handed — on every
    /// dispatch core, through `run_until` and `run` alike.
    #[test]
    fn a_run_enters_its_io_device_once() {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        use std::sync::Arc;
        #[derive(Default)]
        struct Counts {
            enters: AtomicU64,
            reads: AtomicU64,
        }
        /// The attached device: counts entries, serves no access itself.
        struct Gate(Arc<Counts>);
        /// The device a slice is handed.
        struct Entered<'a>(&'a Counts);
        impl IoDevice for Gate {
            fn io_read(&mut self, _cycle: u64, _addr: u32, _size: u32) -> u32 {
                unreachable!("accesses go to the entered device")
            }
            fn io_write(&mut self, _cycle: u64, _addr: u32, _size: u32, _value: u32) {
                unreachable!("accesses go to the entered device")
            }
            fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice)) {
                self.0.enters.fetch_add(1, Relaxed);
                run(&mut Entered(&self.0));
            }
        }
        impl IoDevice for Entered<'_> {
            fn io_read(&mut self, _cycle: u64, _addr: u32, _size: u32) -> u32 {
                self.0.reads.fetch_add(1, Relaxed);
                0
            }
            fn io_write(&mut self, _cycle: u64, _addr: u32, _size: u32, _value: u32) {}
            fn enter(&mut self, run: &mut dyn FnMut(&mut dyn IoDevice)) {
                run(self);
            }
        }
        const N: u64 = 300;
        let elf = assemble(&format!(
            "
            .text
        _start:
            movh.a %a2, 0xf000
            mov %d0, {N}
        poll:
            ld.w %d3, [%a2]0
            addi %d0, %d0, -1
            jnz %d0, poll
            debug
        "
        ))
        .unwrap();
        for (mode, warmup) in [
            (DispatchMode::Naive, 0),
            (DispatchMode::Trace, 0),
            (DispatchMode::Trace, TraceConfig::default().warmup),
        ] {
            let counts = Arc::new(Counts::default());
            let mut sim = Simulator::new(&elf).unwrap();
            sim.set_trace_config(TraceConfig {
                warmup,
                ..TraceConfig::default()
            });
            sim.set_dispatch(mode);
            sim.set_io_device(Box::new(Gate(Arc::clone(&counts))));
            assert_eq!(
                sim.run_until(Limit::Cycles(u64::MAX)),
                Ok(StopCause::Halted),
                "{mode:?}/{warmup}"
            );
            assert_eq!(
                counts.enters.load(Relaxed),
                1,
                "{mode:?}/{warmup}: run_until"
            );
            assert_eq!(
                counts.reads.load(Relaxed),
                N,
                "{mode:?}/{warmup}: run_until"
            );

            sim.reset();
            sim.run(1_000_000).unwrap();
            assert_eq!(counts.enters.load(Relaxed), 2, "{mode:?}/{warmup}: run");
            assert_eq!(counts.reads.load(Relaxed), 2 * N, "{mode:?}/{warmup}: run");
        }
    }

    #[test]
    fn loop_instruction_counts_iterations() {
        let sim = run("
            .text
        _start:
            mov %d0, 5
            mov.a %a4, %d0
            mov %d2, 0
        body:
            addi %d2, %d2, 1
            loop %a4, body
            debug
        ");
        assert_eq!(sim.cpu.d(2), 5);
    }

    #[test]
    fn madd_accumulates() {
        let sim = run(
            ".text\n_start: mov %d1, 3\nmov %d2, 4\nmov %d3, 10\nmadd %d4, %d3, %d1, %d2\ndebug\n",
        );
        assert_eq!(sim.cpu.d(4), 22);
    }

    #[test]
    fn shift_and_logic_semantics() {
        let sim = run(
            ".text\n_start: mov %d1, -8\nsra %d2, %d1, 1\nsrl %d3, %d1, 1\nsll %d4, %d1, 1\nand %d5, %d1, 0xf\ndebug\n",
        );
        assert_eq!(sim.cpu.d(2) as i32, -4);
        assert_eq!(sim.cpu.d(3), 0x7fff_fffc);
        assert_eq!(sim.cpu.d(4) as i32, -16);
        assert_eq!(sim.cpu.d(5), 8);
    }

    /// An aggressive trace config so short unit-test programs actually
    /// form traces: no warm-up gate, near-immediate hotness.
    fn eager_traces() -> TraceConfig {
        TraceConfig {
            warmup: 1_000_000,
            hot_threshold: 2,
        }
    }

    /// A closed warm-up window: no trace ever forms, so the trace tier
    /// dispatches one compiled op per step.
    fn block_dispatch() -> TraceConfig {
        TraceConfig {
            warmup: 0,
            ..TraceConfig::default()
        }
    }

    /// A simulator on `mode`, with `cfg` as its trace-tier knobs.
    fn sim_on(elf: &ElfFile, mode: DispatchMode, cfg: TraceConfig) -> Simulator {
        let mut sim = Simulator::new(elf).expect("loads");
        sim.set_trace_config(cfg);
        sim.set_dispatch(mode);
        sim
    }

    /// Every observable — registers, stats, cycles, fault shape — must
    /// be identical across both dispatch cores at the halt, the compiled
    /// core with and without traces. The naive core is the reference.
    fn diff_modes(src: &str) {
        let elf = assemble(src).expect("assembles");
        let mut fast = sim_on(&elf, DispatchMode::Naive, eager_traces());
        let rf = fast.run(1_000_000);
        for cfg in [block_dispatch(), eager_traces()] {
            let mut sim = sim_on(&elf, DispatchMode::Trace, cfg);
            let rm = sim.run(1_000_000);
            assert_eq!(rf, rm, "{cfg:?}: run results diverge");
            assert_eq!(fast.stats(), sim.stats(), "{cfg:?}: stats diverge");
            for i in 0..16 {
                assert_eq!(fast.cpu.d(i), sim.cpu.d(i), "{cfg:?}: d{i}");
                assert_eq!(fast.cpu.a(i), sim.cpu.a(i), "{cfg:?}: a{i}");
            }
            assert_eq!(fast.cpu.pc, sim.cpu.pc, "{cfg:?}: pc");
        }
    }

    #[test]
    fn predecoded_matches_naive_on_mixed_program() {
        diff_modes(
            "
            .text
        _start:
            mov %d0, 12
            mov %d2, 0
            call body
            debug
        body:
        top:
            add %d2, %d0
            addi %d0, %d0, -1
            jnz %d0, top
            ret
        ",
        );
    }

    #[test]
    fn compiled_blocks_retire_and_fault_like_the_interpreter() {
        // Instruction granularity: with no formed trace, one trace-tier
        // step retires one instruction, even at a block leader.
        let elf = assemble(".text\n_start: mov %d1, 1\nmov %d2, 2\nmov %d3, 3\ndebug\n").unwrap();
        let mut sim = sim_on(&elf, DispatchMode::Trace, block_dispatch());
        let first = sim.step().unwrap();
        assert!(
            matches!(first, Instr::Mov16 { .. } | Instr::Mov { .. }),
            "step reports the instruction it ran: {first:?}"
        );
        assert_eq!(sim.stats().instructions, 1, "one instruction retired");
        assert!(!sim.is_halted());
        let mut steps = 1;
        while !sim.is_halted() {
            sim.step().unwrap();
            steps += 1;
        }
        assert_eq!(steps, 4, "one step per instruction");

        // A memory fault mid-block parks pc on the faulting instruction
        // and counts only the completed prefix — like the interpreter.
        // Misaligned word load faults mid-block.
        let elf = assemble(
            ".text\n_start: mov %d1, 7\nmovh.a %a2, 0x4000\nld.w %d3, [%a2]1\nmov %d4, 9\ndebug\n",
        )
        .unwrap();
        let run = |mode: DispatchMode| {
            let mut sim = sim_on(&elf, mode, block_dispatch());
            let err = loop {
                match sim.step() {
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            (err, sim.cpu.pc, sim.stats())
        };
        let (en, pn, sn) = run(DispatchMode::Naive);
        assert!(matches!(en, SimError::Mem(_)));
        let (ec, pc, sc) = run(DispatchMode::Trace);
        assert_eq!(en, ec, "fault kind");
        assert_eq!(pn, pc, "fault pc");
        assert_eq!(sn, sc, "stats at the fault");
    }

    #[test]
    fn compiled_enters_blocks_mid_way_after_indirect_jumps() {
        // `ji` computed to land in the *middle* of the body block: the
        // trace tier must enter at the offset, not the leader.
        let src = "
            .text
        _start:
            movh.a %a2, hi:mid
            lea  %a2, [%a2]lo:mid
            ji   %a2
        body:
            mov %d1, 1
        mid:
            mov %d2, 2
            mov %d3, 3
            debug
        ";
        // `mid` is a symbol, which makes it a leader on the translator's
        // CFG — but the engine's block map only splits at control flow,
        // so force a mid-block landing by computing the address.
        let elf = assemble(src).unwrap();
        for mode in [DispatchMode::Naive, DispatchMode::Trace] {
            let mut sim = sim_on(&elf, mode, block_dispatch());
            sim.run(100).unwrap();
            assert_eq!(sim.cpu.d(1), 0, "{mode:?}: skipped prefix must not run");
            assert_eq!(sim.cpu.d(2), 2, "{mode:?}");
            assert_eq!(sim.cpu.d(3), 3, "{mode:?}");
        }
        let stats = |mode: DispatchMode| {
            let mut sim = sim_on(&elf, mode, block_dispatch());
            sim.run(100).unwrap();
            sim.stats()
        };
        assert_eq!(stats(DispatchMode::Naive), stats(DispatchMode::Trace));
    }

    #[test]
    fn trace_tier_forms_traces_and_matches_predecoded() {
        // A hot loop plus a call/ret pair: the loop head crosses the
        // hot threshold, a loop trace forms, and most retirement moves
        // inside it — all while staying bit-identical to the naive
        // core.
        let src = "
            .text
        _start:
            mov %d0, 200
            mov %d2, 0
        top:
            call leaf
            add %d2, %d0
            addi %d0, %d0, -1
            jnz %d0, top
            debug
        leaf:
            addi %d10, %d10, 3
            ret
        ";
        let elf = assemble(src).unwrap();
        let mut base = sim_on(&elf, DispatchMode::Naive, eager_traces());
        base.run(1_000_000).unwrap();

        let mut sim = Simulator::new(&elf).unwrap();
        sim.set_trace_config(eager_traces());
        sim.set_dispatch(DispatchMode::Trace);
        sim.run(1_000_000).unwrap();

        assert_eq!(base.stats(), sim.stats());
        for i in 0..16 {
            assert_eq!(base.cpu.d(i), sim.cpu.d(i), "d{i}");
            assert_eq!(base.cpu.a(i), sim.cpu.a(i), "a{i}");
        }
        let ts = sim.trace_stats().expect("trace tier active");
        assert!(ts.traces > 0, "hot loop must form a trace");
        assert!(
            ts.trace_retired > sim.stats().instructions / 2,
            "most retirement should land inside traces: {} of {}",
            ts.trace_retired,
            sim.stats().instructions
        );
    }

    #[test]
    fn trace_tier_faults_and_budget_match_predecoded() {
        // The loop body loads through %a2, which walks forward by 6
        // each iteration and crosses into a misaligned word address
        // after the trace has formed: the fault must park pc on the
        // load with the completed-prefix retirement, exactly like the
        // naive core.
        let src = "
            .text
        _start:
            movh.a %a2, 0x4000
            mov %d0, 64
        top:
            ld.w %d3, [%a2]0
            add %d2, %d3
            addi %d0, %d0, -1
            lea %a2, [%a2]6
            jnz %d0, top
            debug
        ";
        let elf = assemble(src).unwrap();
        let observe = |mode: DispatchMode| {
            let mut sim = Simulator::new(&elf).unwrap();
            sim.set_trace_config(eager_traces());
            sim.set_dispatch(mode);
            let err = loop {
                match sim.step() {
                    Ok(_) => {}
                    Err(e) => break e,
                }
            };
            (err, sim.cpu.pc, sim.cpu.a(2), sim.stats())
        };
        let p = observe(DispatchMode::Naive);
        let t = observe(DispatchMode::Trace);
        assert_eq!(p, t, "fault shape diverges between naive and trace");
        assert!(matches!(p.0, SimError::Mem(_)));

        // The trace core keeps reporting correct totals under a budget
        // that lands mid-trace, overshooting at most to the end of the
        // current trace.
        let budget = |mode: DispatchMode, max: u64| {
            let mut sim = Simulator::new(&elf).unwrap();
            sim.set_trace_config(eager_traces());
            sim.set_dispatch(mode);
            let _ = sim.run(max);
            sim.stats().instructions
        };
        let fine = budget(DispatchMode::Naive, 100);
        let fused = budget(DispatchMode::Trace, 100);
        assert!(fused >= fine, "trace core must not under-run the budget");
    }

    #[test]
    fn naive_mode_faults_identically() {
        let elf = assemble(".text\n_start: ji %a0\n").unwrap();
        for mode in [DispatchMode::Trace, DispatchMode::Naive] {
            let mut sim = sim_on(&elf, mode, block_dispatch());
            sim.cpu.set_a(0, 0x1234_0000);
            sim.step().unwrap();
            assert!(matches!(
                sim.step(),
                Err(SimError::PcInvalid { pc: 0x1234_0000 })
            ));
        }
    }

    #[test]
    fn engine_trait_drives_the_simulator() {
        let elf = assemble(".text\n_start: mov %d2, 9\nmov %d3, 1\ndebug\n").unwrap();
        let mut sim = Simulator::new(&elf).unwrap();
        assert_eq!(
            sim.run_until(Limit::Retirements(1)).unwrap(),
            StopCause::LimitReached
        );
        assert_eq!(sim.engine_stats().retired, 1);
        assert_eq!(
            sim.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted
        );
        assert_eq!(sim.read_reg_index(2), 9, "flat index 2 = d2");

        sim.write_reg_index(16, 0x77);
        assert_eq!(sim.cpu.a(0), 0x77, "flat index 16 = a0");

        let before = sim.engine_stats();
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(!sim.is_halted());
        assert!(before.cycles > 0);
        assert_eq!(
            sim.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted
        );
        assert_eq!(
            sim.engine_stats(),
            before,
            "reset + rerun reproduces the run"
        );
    }
}
