//! Cycle-counting simulator for the VLIW target.
//!
//! Executes a translated program packet by packet, modelling exactly the
//! timing properties the experiments depend on: one cycle per execute
//! packet, multi-cycle NOPs, delayed register write-back (loads 4 delay
//! slots, multiplies 1, iterative divide 17), branch shadows of 5 issue
//! slots, and stall cycles injected by memory-mapped devices through
//! [`TargetBus`] — which is how the platform's synchronization device
//! makes a "wait for end of cycle generation" read block. The engine
//! owns its bus; the bus declares its address windows once, at
//! [`VliwSim::set_bus`], and loads and stores test them inline.
//!
//! Delayed writes wait in one list kept in due order (ties in staging
//! order), so a packet prologue retires them by draining the due
//! prefix: for one register the later-due write wins, even when a
//! device stall lets several become due at once. The compiled core
//! keeps single-cycle results — almost every translated slot — out of
//! the list: they go into a next-cycle latch that the next packet's
//! prologue always finds due and drains between the list entries due
//! no later and the rest, the order the one list would retire them in.
//! Snapshots put the latch back into the list at that place.
//!
//! # Dispatch modes
//!
//! At load every execute packet is compiled once into a run of
//! specialized slot closures (operands, predication guards,
//! staged-write latencies and resolved branch-target *packet indices*
//! captured as constants). [`VliwDispatch`] selects how those packets
//! are dispatched:
//!
//! * [`VliwDispatch::Trace`] (default) is the compiled tier. Its one
//!   run loop keeps the fetch position, clock, counters and branch
//!   shadow in locals and, per packet, retires due writes, redirects an
//!   expired branch shadow and calls the packet's closures. A step is
//!   always one packet — the granularity the lockstep debugger needs —
//!   and budgets are checked before every packet, so they stop runs
//!   exactly. An all-NOP packet has no slot closures: its write-back
//!   prologue and shadow epilogue run, nothing is called.
//! * [`VliwDispatch::Naive`] is the retained seed interpreter (clone
//!   the packet, scan for slot positions, hash branch targets) and the
//!   one caller of the slot-walking `exec_slot`: the independent
//!   semantics the compiled closures are diffed against.
//!
//! The naive core stages every result in the one list; that list-only
//! write-back is the oracle the compiled core's latch is diffed
//! against.
//!
//! All paths are cycle- and state-identical.
//!
//! # Program and run state
//!
//! The load-time constants — the packets, their address index with the
//! branch aliases, the compiled packets and the load image — live in a
//! [`VliwProgram`], built once per translated image and shared behind
//! an [`Arc`] by every engine instantiated from it
//! ([`VliwSim::instantiate`]). A [`VliwSim`] owns only run state:
//! registers, memory, the fetch position, the delayed-write and
//! branch-shadow pipeline, the counters and its device bus. Reset and
//! restore rewrite run state and never compile again.

use crate::compiled::{self, CompiledPacket, VHot};
use crate::isa::{Op, Packet, Reg, Slot, Width};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_isa::codec::{expect_index, ByteReader, ByteWriter, CodecError};
use cabt_isa::mem::Memory;
use cabt_isa::{AddrMap, IsaError};
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The memory-mapped device bus of the target.
///
/// The contract:
///
/// * **Windows are declared once.** [`VliwSim::set_bus`] asks for
///   [`TargetBus::windows`] a single time and caches the ranges; every
///   load and store tests them inline, so ordinary memory accesses never
///   call into the bus. The answer must not change while attached.
/// * **Stalls.** Reads return the value *and* the target cycles the
///   access stalls; writes return the stall alone. Stalls of one packet
///   add up and are charged after it, so every slot of the packet sees
///   the packet's dispatch cycle as `cycle`, and results staged by the
///   packet become due relative to that cycle (a long stall can carry
///   the clock past several due cycles at once).
/// * **The engine owns the bus.** It is attached as a box and lives in
///   the simulator; owners reach it again through [`VliwSim::bus`] /
///   [`VliwSim::bus_mut`] and downcast through the [`Any`] supertrait.
///   It is not part of a [`VliwSnapshot`].
///
/// The platform implements its synchronization device and SoC-bus
/// adapter behind this trait.
pub trait TargetBus: Any + Send {
    /// The address ranges this bus claims.
    fn windows(&self) -> Vec<Range<u32>>;
    /// Handles a load of `size` bytes; returns `(value, stall_cycles)`.
    /// `cycle` is the current target cycle, so devices can model elapsed
    /// time between accesses.
    fn bus_read(&mut self, cycle: u64, addr: u32, size: u32) -> (u32, u64);
    /// Handles a store; returns stall cycles.
    fn bus_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) -> u64;
}

/// An attached [`TargetBus`] with the windows it declared.
pub(crate) struct DeviceBus {
    windows: Box<[Range<u32>]>,
    dev: Box<dyn TargetBus>,
}

impl DeviceBus {
    /// The device, if `addr` falls in one of its windows.
    #[inline]
    fn claim(&mut self, addr: u32) -> Option<&mut dyn TargetBus> {
        if self.windows.iter().any(|w| w.contains(&addr)) {
            Some(&mut *self.dev)
        } else {
            None
        }
    }
}

/// Errors raised while executing target code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VliwError {
    /// Execution fell off the end of the program or branched to an
    /// address that is not a packet start.
    BadPc {
        /// The bad target address.
        addr: u32,
    },
    /// A branch was issued while another branch was still in its shadow.
    OverlappingBranches {
        /// Cycle of the second branch.
        cycle: u64,
    },
    /// A data access faulted.
    Mem(IsaError),
    /// The cycle limit of [`VliwSim::run`] was exceeded.
    CycleLimit,
}

impl fmt::Display for VliwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VliwError::BadPc { addr } => write!(f, "branch to non-packet address {addr:#010x}"),
            VliwError::OverlappingBranches { cycle } => {
                write!(
                    f,
                    "branch issued inside another branch shadow at cycle {cycle}"
                )
            }
            VliwError::Mem(e) => write!(f, "memory fault: {e}"),
            VliwError::CycleLimit => write!(f, "cycle limit exceeded"),
        }
    }
}

impl std::error::Error for VliwError {}

impl From<IsaError> for VliwError {
    fn from(e: IsaError) -> Self {
        VliwError::Mem(e)
    }
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VliwStats {
    /// Target cycles consumed (including device stalls).
    pub cycles: u64,
    /// Execute packets dispatched.
    pub packets: u64,
    /// Instruction slots executed (predicated-false slots and NOPs
    /// excluded).
    pub slots: u64,
    /// Cycles spent stalled on device accesses.
    pub stall_cycles: u64,
}

/// Which dispatch core [`VliwSim::step_packet`] and
/// [`ExecutionEngine::run_until`] use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VliwDispatch {
    /// The compiled tier: the compiled packets, dispatched one packet
    /// per unit (see the module docs). The name outlived the trace tier
    /// it once selected and stays because the repository benchmark
    /// (`perfbench/`) spells it; the benchmark's next revision (ROADMAP
    /// item 1) retires it.
    #[default]
    Trace,
    /// The retained seed interpreter (per-packet clone and scans), the
    /// reference the compiled packets are diffed against.
    Naive,
}

/// Sentinel for "no packet index".
pub(crate) const NO_IDX: u32 = u32::MAX;

/// Resumable image of the VLIW core's mutable state — registers, data
/// memory, fetch position, the delayed-write and branch-shadow pipeline
/// state, and counters. The engine's [`VliwProgram`] is not part of
/// it; the attached [`TargetBus`] lives in the engine but is device
/// state, *not* captured (the same scope as [`ExecutionEngine::reset`]).
#[derive(Debug, Clone)]
pub struct VliwSnapshot {
    regs: [u32; 64],
    mem: Memory,
    pc: usize,
    cycle: u64,
    pending_writes: Vec<(u64, Reg, u32)>,
    next_due: u64,
    pending_branch: Option<(i64, u32)>,
    pending_branch_idx: u32,
    stats: VliwStats,
    halted: bool,
}

impl VliwSnapshot {
    /// Serializes the snapshot for portable park/resume. Captures
    /// exactly the fields `restore` re-seats; the resuming engine
    /// builds its [`VliwProgram`] from the same translated image.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        for &v in &self.regs {
            w.u32(v);
        }
        self.mem.encode_into(out);
        let mut w = ByteWriter::new(out);
        w.u64(self.pc as u64);
        w.u64(self.cycle);
        w.u64(self.pending_writes.len() as u64);
        for &(due, reg, val) in &self.pending_writes {
            w.u64(due);
            w.u8(reg.index() as u8);
            w.u32(val);
        }
        w.u64(self.next_due);
        match self.pending_branch {
            None => w.bool(false),
            Some((slots, addr)) => {
                w.bool(true);
                w.i64(slots);
                w.u32(addr);
            }
        }
        w.u32(self.pending_branch_idx);
        w.u64(self.stats.cycles);
        w.u64(self.stats.packets);
        w.u64(self.stats.slots);
        w.u64(self.stats.stall_cycles);
        w.bool(self.halted);
    }

    /// Decodes a [`VliwSnapshot::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut regs = [0u32; 64];
        for v in &mut regs {
            *v = r.u32()?;
        }
        let mem = Memory::decode(r)?;
        let pc = r.u64()? as usize;
        let cycle = r.u64()?;
        let npending = r.count("pending writes", 13)?;
        let mut pending_writes = Vec::with_capacity(npending);
        for _ in 0..npending {
            let due = r.u64()?;
            let reg = r.u8()?;
            if reg >= 64 {
                return Err(CodecError::BadIndex {
                    what: "pending write register",
                    index: reg.into(),
                });
            }
            pending_writes.push((due, Reg::from_index(reg), r.u32()?));
        }
        // Engines keep the list in due order; images written before
        // they did may not be, and a stable sort is the order the old
        // commit applied them in.
        pending_writes.sort_by_key(|&(due, _, _)| due);
        let next_due = r.u64()?;
        let pending_branch = if r.bool()? {
            let slots = r.i64()?;
            Some((slots, r.u32()?))
        } else {
            None
        };
        let pending_branch_idx = r.u32()?;
        let stats = VliwStats {
            cycles: r.u64()?,
            packets: r.u64()?,
            slots: r.u64()?,
            stall_cycles: r.u64()?,
        };
        let halted = r.bool()?;
        Ok(VliwSnapshot {
            regs,
            mem,
            pc,
            cycle,
            pending_writes,
            next_due,
            pending_branch,
            pending_branch_idx,
            stats,
            halted,
        })
    }
}

/// The VLIW core's load-time constants, built once from a translated
/// image and shared by every [`VliwSim`] instantiated from it (see the
/// module docs). Nothing in it changes while an engine runs.
pub struct VliwProgram {
    packets: Vec<Packet>,
    /// Packet address → packet index, plus the branch aliases.
    index: AddrMap<usize>,
    /// The compiled packets, parallel to `packets`.
    compiled: Vec<CompiledPacket>,
    /// Memory as loaded: every instance starts from it and
    /// [`ExecutionEngine::reset`] restores it.
    image: Memory,
}

impl VliwProgram {
    /// Builds the program over a packet list: indexes the packet
    /// addresses, compiles every packet once (static branch targets
    /// resolved to packet indices), registers `aliases` and keeps
    /// `image` as the load image.
    ///
    /// `aliases` are extra `(alias, packet address)` branch targets. A
    /// translated guest computes *source-world* code addresses
    /// (`movh.a`/`lea` of a label, jump tables in data) and branches
    /// through registers; the translator's block map provides `(source
    /// block start, target packet address)` pairs here so every
    /// register-indirect transfer — on every dispatch core, all of
    /// which resolve through this one index — lands on the right
    /// packet. Source and target address spaces are disjoint (the
    /// target image lives below the source text base), so aliases can
    /// never shadow a real packet address.
    ///
    /// # Errors
    ///
    /// Returns [`VliwError::BadPc`] if two packets share an address, an
    /// alias collides with a packet address (or a previous alias), or
    /// an alias's destination is not a packet start.
    pub fn new(
        packets: Vec<Packet>,
        aliases: impl IntoIterator<Item = (u32, u32)>,
        image: Memory,
    ) -> Result<Self, VliwError> {
        let mut index = AddrMap::with_capacity_and_hasher(packets.len(), Default::default());
        for (i, p) in packets.iter().enumerate() {
            if index.insert(p.addr, i).is_some() {
                return Err(VliwError::BadPc { addr: p.addr });
            }
        }
        // Static branch targets resolve against the packets alone.
        let compiled = compiled::compile(&packets, &index);
        for (alias, dest) in aliases {
            let idx = *index.get(&dest).ok_or(VliwError::BadPc { addr: dest })?;
            if index.insert(alias, idx).is_some_and(|prev| prev != idx) {
                return Err(VliwError::BadPc { addr: alias });
            }
        }
        Ok(VliwProgram {
            packets,
            index,
            compiled,
            image,
        })
    }

    /// The fault of running off the end of the program.
    fn off_end_error(&self) -> VliwError {
        VliwError::BadPc {
            addr: self.packets.last().map_or(0, |p| p.addr + p.size()),
        }
    }
}

/// The VLIW target simulator: the run state of one engine over a
/// shared [`VliwProgram`]. See the crate docs for an example.
pub struct VliwSim {
    regs: [u32; 64],
    /// Target data memory.
    pub mem: Memory,
    program: Arc<VliwProgram>,
    pc: usize,
    cycle: u64,
    /// Staged results `(due cycle, register, value)`, kept in due
    /// order with ties in staging order (see [`settle_staged`]).
    pending_writes: Vec<(u64, Reg, u32)>,
    /// Due cycle of `pending_writes[0]` (`u64::MAX` when empty); lets
    /// the dispatch cores skip retirement entirely while loads and
    /// multiplies are still in flight.
    next_due: u64,
    /// The compiled core's single-cycle results of the last packet
    /// (empty on the naive core; see [`Latch`]).
    latch: Latch,
    /// `(remaining issue slots, target address)`.
    pending_branch: Option<(i64, u32)>,
    /// Resolved packet index of the pending branch target (NO_IDX when
    /// it must be looked up at redirect time).
    pending_branch_idx: u32,
    mode: VliwDispatch,
    bus: Option<DeviceBus>,
    stats: VliwStats,
    halted: bool,
}

impl fmt::Debug for VliwSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VliwSim")
            .field("pc", &self.pc)
            .field("cycle", &self.cycle)
            .field("mode", &self.mode)
            .field("halted", &self.halted)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl VliwSim {
    /// Builds a simulator over a packet list with no branch aliases and
    /// an empty load image ([`VliwProgram::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`VliwError::BadPc`] if two packets share an address.
    pub fn new(program: Vec<Packet>) -> Result<Self, VliwError> {
        let program = VliwProgram::new(program, [], Memory::new())?;
        Ok(Self::instantiate(Arc::new(program)))
    }

    /// A fresh engine over `program`, at its first packet with its load
    /// image: the one way every VLIW engine is made, so engines over one
    /// program share its packets and compiled closures.
    pub fn instantiate(program: Arc<VliwProgram>) -> Self {
        VliwSim {
            regs: [0; 64],
            mem: program.image.clone(),
            program,
            pc: 0,
            cycle: 0,
            pending_writes: Vec::new(),
            next_due: u64::MAX,
            latch: Latch::EMPTY,
            pending_branch: None,
            pending_branch_idx: NO_IDX,
            mode: VliwDispatch::default(),
            bus: None,
            stats: VliwStats::default(),
            halted: false,
        }
    }

    /// The program this engine runs.
    pub fn program(&self) -> &Arc<VliwProgram> {
        &self.program
    }

    /// Attaches the memory-mapped device bus, replacing any previous
    /// one, and caches the windows it declares.
    pub fn set_bus(&mut self, bus: Box<dyn TargetBus>) {
        self.bus = Some(DeviceBus {
            windows: bus.windows().into(),
            dev: bus,
        });
    }

    /// The attached device bus (downcast it through [`Any`]).
    pub fn bus(&self) -> Option<&dyn TargetBus> {
        self.bus.as_ref().map(|b| &*b.dev)
    }

    /// Mutable twin of [`VliwSim::bus`].
    pub fn bus_mut(&mut self) -> Option<&mut dyn TargetBus> {
        self.bus.as_mut().map(|b| &mut *b.dev)
    }

    /// Selects the dispatch core (the compiled [`VliwDispatch::Trace`]
    /// by default).
    pub fn set_dispatch(&mut self, mode: VliwDispatch) {
        // The naive core never latches; it sees one list.
        self.latch
            .spill(&mut self.pending_writes, &mut self.next_due);
        self.mode = mode;
    }

    /// Checks a snapshot decoded from untrusted bytes against this
    /// engine before [`ExecutionEngine::restore`]: the resolved branch
    /// index must fit the program this engine was built from. A
    /// snapshot this engine took always passes.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of the first field that does not fit.
    pub fn check_snapshot(&self, snapshot: &VliwSnapshot) -> Result<(), CodecError> {
        expect_index(
            "pending branch packet index",
            snapshot.pending_branch_idx,
            0..self.program.packets.len(),
        )
    }

    /// Reads a register as the architecture would see it *now*
    /// (committed state; in-flight delayed writes are not visible).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Commits all delayed writes whose delay slots have elapsed — the
    /// same retirement the next packet dispatch would perform. Debuggers
    /// call this before inspecting registers so the architecturally
    /// visible state is observed.
    pub fn commit_due_writes(&mut self) {
        commit_latched(
            &mut self.pending_writes,
            &mut self.next_due,
            &mut self.latch,
            &mut self.regs,
            self.cycle,
        );
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Address of the next execute packet to dispatch (`None` once
    /// execution fell off the end of the program). A branch whose shadow
    /// has expired is accounted as already taken, so the reported
    /// address is the architectural next packet.
    pub fn pc_addr(&self) -> Option<u32> {
        if let Some((remaining, target)) = self.pending_branch {
            if remaining <= 0 {
                return Some(target);
            }
        }
        self.program.packets.get(self.pc).map(|p| p.addr)
    }

    /// Execution counters so far.
    pub fn stats(&self) -> VliwStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// True once a `HALT` slot executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until `HALT` or until `max_cycles` elapse:
    /// [`ExecutionEngine::run_until`] with a cycle budget, then the
    /// retirement of writes that became due during the final packets,
    /// so the architectural state is fully visible to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`VliwError::CycleLimit`] on timeout or any execution
    /// fault from [`VliwSim::step_packet`].
    pub fn run(&mut self, max_cycles: u64) -> Result<VliwStats, VliwError> {
        if self.run_until(Limit::Cycles(max_cycles))? == StopCause::LimitReached && !self.halted {
            return Err(VliwError::CycleLimit);
        }
        self.commit_due_writes();
        Ok(self.stats())
    }

    /// Dispatches one execute packet.
    ///
    /// # Errors
    ///
    /// Returns [`VliwError`] on bad branch targets, overlapping branch
    /// shadows or data faults.
    pub fn step_packet(&mut self) -> Result<(), VliwError> {
        match self.mode {
            VliwDispatch::Naive => self.step_packet_naive(),
            // A step ignores the budget: any limit will do.
            VliwDispatch::Trace => self.run_compiled::<true>(Limit::Cycles(0)).map(drop),
        }
    }

    /// The compiled tier's run loop: the only place a compiled packet is
    /// dispatched. The fetch position, clock, counters and branch shadow
    /// live in locals for the whole run and are written back once, on
    /// the way out.
    ///
    /// Before every packet it makes [`cabt_exec::run_until_with`]'s
    /// checks — the budget, then the halt — or, with `ONE`, stops after
    /// the first packet (a step). A packet starts with its prologue:
    /// retire due writes, redirect an expired branch shadow, fault off
    /// the end. An all-NOP packet has no slot closures: its prologue and
    /// epilogue run and nothing is called.
    fn run_compiled<const ONE: bool>(&mut self, limit: Limit) -> Result<StopCause, VliwError> {
        let VliwSim {
            program,
            regs,
            mem,
            bus,
            pc,
            cycle,
            pending_writes,
            next_due,
            latch,
            pending_branch,
            pending_branch_idx,
            stats,
            halted,
            ..
        } = self;
        // One borrow of the shared program for the whole run.
        let VliwProgram {
            index,
            compiled: prog,
            ..
        } = &**program;
        let VliwStats {
            packets: packets_out,
            slots,
            stall_cycles,
            ..
        } = stats;
        let mut pcv = *pc;
        let mut cyc = *cycle;
        let mut packets = *packets_out;
        let mut stalls = *stall_cycles;
        let mut shadow = *pending_branch;
        let mut shadow_idx = *pending_branch_idx;
        // One borrow bundle for the whole run; only `cycle` varies per
        // packet.
        let mut hot = VHot {
            regs,
            mem,
            bus,
            cycle: cyc,
            halted,
            slots,
            latch,
        };
        let mut stepped = false;
        let result = loop {
            if ONE {
                if stepped {
                    break Ok(StopCause::LimitReached);
                }
                stepped = true;
            } else {
                if limit.exhausted(cyc, packets) {
                    break Ok(StopCause::LimitReached);
                }
                if *hot.halted {
                    commit_latched(pending_writes, next_due, hot.latch, hot.regs, cyc);
                    break Ok(StopCause::Halted);
                }
            }
            // Prologue: retire due writes, then redirect an expired
            // branch shadow — only then is `pcv` the packet to dispatch.
            commit_latched(pending_writes, next_due, hot.latch, hot.regs, cyc);
            if let Some((remaining, target)) = shadow {
                if remaining <= 0 {
                    match redirect(shadow_idx, target, index) {
                        Ok(to) => pcv = to,
                        Err(e) => break Err(e),
                    }
                    shadow = None;
                    shadow_idx = NO_IDX;
                }
            }
            let Some(cp) = prog.get(pcv) else {
                break Err(program.off_end_error());
            };
            let mut stall = 0u64;
            let mut branch: Option<(u32, u32)> = None;
            if !cp.slots.is_empty() {
                // Slots stage straight into the latch and
                // `pending_writes`: results only become due from the
                // next cycle on, so nothing staged here can commit
                // mid-packet.
                let staged = pending_writes.len();
                hot.cycle = cyc;
                hot.latch.due = cyc + 1;
                let run = cp
                    .slots
                    .iter()
                    .try_for_each(|slot| slot(&mut hot, pending_writes, &mut stall, &mut branch));
                if let Err(e) = run {
                    pending_writes.truncate(staged);
                    hot.latch.len = 0;
                    break Err(e);
                }
                if pending_writes.len() != staged {
                    settle_staged(pending_writes, staged, next_due);
                }
            }
            // Epilogue: branch shadow bookkeeping, counters, clock.
            if let Some((target, idx)) = branch {
                if shadow.is_some() {
                    break Err(VliwError::OverlappingBranches { cycle: cyc });
                }
                shadow = Some((5, target));
                shadow_idx = idx;
            } else if let Some((remaining, _)) = &mut shadow {
                *remaining -= cp.issue as i64;
            }
            packets += 1;
            stalls += stall;
            cyc += cp.issue as u64 + stall;
            pcv += 1;
        };
        *pc = pcv;
        *cycle = cyc;
        *packets_out = packets;
        *stall_cycles = stalls;
        *pending_branch = shadow;
        *pending_branch_idx = shadow_idx;
        result
    }

    /// The retained naive interpreter: per-packet clone, per-slot
    /// position scans, address hashing on every redirect — exactly the
    /// seed implementation, kept as the differential-test reference.
    fn step_packet_naive(&mut self) -> Result<(), VliwError> {
        // List-only write-back: the naive core never latches.
        commit_due(
            &mut self.pending_writes,
            &mut self.next_due,
            &mut self.regs,
            self.cycle,
        );

        // Branch shadow expired? Redirect before dispatch.
        if let Some((remaining, target)) = self.pending_branch {
            if remaining <= 0 {
                self.pc = *self
                    .program
                    .index
                    .get(&target)
                    .ok_or(VliwError::BadPc { addr: target })?;
                self.pending_branch = None;
                self.pending_branch_idx = NO_IDX;
            }
        }

        let packet = match self.program.packets.get(self.pc) {
            Some(p) => p.clone(),
            None => return Err(self.program.off_end_error()),
        };

        let mut stall = 0u64;
        let mut writes: Vec<(u64, Reg, u32)> = Vec::new();
        let mut branch: Option<(u32, u32)> = None;

        for (pos, slot) in packet.slots().iter().enumerate() {
            if let Some(p) = slot.pred {
                let v = self.regs[p.reg.index()];
                if (v != 0) == p.negated {
                    continue; // guard false: annulled
                }
            }
            if !matches!(slot.op, Op::Nop { .. }) {
                self.stats.slots += 1;
            }
            // Slot addresses are derived on the fly — per-step work the
            // compiled packets do once at load.
            let slot_addr = packet.addr + 8 * pos as u32;
            self.exec_slot(slot, slot_addr, &mut writes, &mut stall, &mut branch)?;
        }

        // End of packet: stage results (visible from the next cycle on).
        let staged = self.pending_writes.len();
        self.pending_writes.extend(writes);
        settle_staged(&mut self.pending_writes, staged, &mut self.next_due);

        self.finish_packet(branch, packet.issue_cycles(), stall)
    }

    /// The naive core's packet epilogue: branch shadow bookkeeping,
    /// counters, cycle advance.
    fn finish_packet(
        &mut self,
        branch: Option<(u32, u32)>,
        issue_cycles: u32,
        stall: u64,
    ) -> Result<(), VliwError> {
        if let Some((target, idx)) = branch {
            if self.pending_branch.is_some() {
                return Err(VliwError::OverlappingBranches { cycle: self.cycle });
            }
            self.pending_branch = Some((5, target));
            self.pending_branch_idx = idx;
        } else if let Some((remaining, _)) = &mut self.pending_branch {
            *remaining -= issue_cycles as i64;
        }

        self.stats.packets += 1;
        self.stats.stall_cycles += stall;
        self.cycle += issue_cycles as u64 + stall;
        self.pc += 1;
        Ok(())
    }

    /// Executes one slot of the naive core: `slot_addr` is the slot's
    /// target-space address (used by relative branches, whose
    /// destination is looked up at redirect time).
    fn exec_slot(
        &mut self,
        slot: &Slot,
        slot_addr: u32,
        writes: &mut Vec<(u64, Reg, u32)>,
        stall: &mut u64,
        branch: &mut Option<(u32, u32)>,
    ) -> Result<(), VliwError> {
        let delay = slot.op.delay_slots();
        let g = |sim: &Self, r: Reg| sim.regs[r.index()];
        let now = self.cycle;
        let mut put = |_op: &Op, r: Reg, v: u32| {
            writes.push((now + 1 + delay as u64, r, v));
        };
        let op = slot.op;
        match op {
            Op::Add { d, s1, s2 } => put(&op, d, g(self, s1).wrapping_add(g(self, s2))),
            Op::Sub { d, s1, s2 } => put(&op, d, g(self, s1).wrapping_sub(g(self, s2))),
            Op::And { d, s1, s2 } => put(&op, d, g(self, s1) & g(self, s2)),
            Op::Or { d, s1, s2 } => put(&op, d, g(self, s1) | g(self, s2)),
            Op::Xor { d, s1, s2 } => put(&op, d, g(self, s1) ^ g(self, s2)),
            Op::AddI { d, s1, imm5 } => put(&op, d, g(self, s1).wrapping_add(imm5 as i32 as u32)),
            Op::Shl { d, s1, s2 } => put(&op, d, g(self, s1).wrapping_shl(g(self, s2) & 31)),
            Op::Shr { d, s1, s2 } => put(
                &op,
                d,
                ((g(self, s1) as i32).wrapping_shr(g(self, s2) & 31)) as u32,
            ),
            Op::Shru { d, s1, s2 } => put(&op, d, g(self, s1).wrapping_shr(g(self, s2) & 31)),
            Op::ShlI { d, s1, imm5 } => put(&op, d, g(self, s1).wrapping_shl(imm5 as u32 & 31)),
            Op::ShrI { d, s1, imm5 } => put(
                &op,
                d,
                ((g(self, s1) as i32).wrapping_shr(imm5 as u32 & 31)) as u32,
            ),
            Op::ShruI { d, s1, imm5 } => put(&op, d, g(self, s1).wrapping_shr(imm5 as u32 & 31)),
            Op::Mpy { d, s1, s2 } => put(&op, d, g(self, s1).wrapping_mul(g(self, s2))),
            Op::Div { d, s1, s2 } => {
                let b = g(self, s2);
                let v = if b == 0 {
                    0
                } else {
                    (g(self, s1) as i32).wrapping_div(b as i32) as u32
                };
                put(&op, d, v);
            }
            Op::Rem { d, s1, s2 } => {
                let b = g(self, s2);
                let v = if b == 0 {
                    0
                } else {
                    (g(self, s1) as i32).wrapping_rem(b as i32) as u32
                };
                put(&op, d, v);
            }
            Op::CmpEq { d, s1, s2 } => put(&op, d, (g(self, s1) == g(self, s2)) as u32),
            Op::CmpGt { d, s1, s2 } => {
                put(&op, d, ((g(self, s1) as i32) > (g(self, s2) as i32)) as u32);
            }
            Op::CmpGtU { d, s1, s2 } => put(&op, d, (g(self, s1) > g(self, s2)) as u32),
            Op::CmpLt { d, s1, s2 } => {
                put(&op, d, ((g(self, s1) as i32) < (g(self, s2) as i32)) as u32);
            }
            Op::CmpLtU { d, s1, s2 } => put(&op, d, (g(self, s1) < g(self, s2)) as u32),
            Op::Mv { d, s } => put(&op, d, g(self, s)),
            Op::Mvk { d, imm16 } => put(&op, d, imm16 as i32 as u32),
            Op::Mvkh { d, imm16 } => put(&op, d, (g(self, d) & 0xffff) | ((imm16 as u32) << 16)),
            Op::Ld {
                w,
                unsigned,
                d,
                base,
                woff,
            } => {
                let addr = g(self, base).wrapping_add((woff as i32 as u32).wrapping_mul(w.bytes()));
                let v = self.load(addr, w, unsigned, stall)?;
                writes.push((self.cycle + 1 + delay as u64, d, v));
            }
            Op::St { w, s, base, woff } => {
                let addr = g(self, base).wrapping_add((woff as i32 as u32).wrapping_mul(w.bytes()));
                let v = g(self, s);
                self.store(addr, w, v, stall)?;
            }
            Op::B { disp21 } => {
                *branch = Some((
                    slot_addr.wrapping_add((disp21 as u32).wrapping_mul(4)),
                    NO_IDX,
                ));
            }
            Op::BReg { s } => *branch = Some((g(self, s), NO_IDX)),
            Op::Nop { .. } => {}
            Op::Halt => self.halted = true,
        }
        Ok(())
    }

    fn load(
        &mut self,
        addr: u32,
        w: Width,
        unsigned: bool,
        stall: &mut u64,
    ) -> Result<u32, VliwError> {
        route_load(
            &mut self.mem,
            &mut self.bus,
            self.cycle,
            addr,
            w,
            unsigned,
            stall,
        )
    }

    fn store(&mut self, addr: u32, w: Width, v: u32, stall: &mut u64) -> Result<(), VliwError> {
        route_store(&mut self.mem, &mut self.bus, self.cycle, addr, w, v, stall)
    }
}

/// The packet an expired branch shadow redirects to: its resolved
/// index, or for an indirect target (`BReg`, unresolved `B`) the
/// address index's entry.
#[inline]
fn redirect(idx: u32, target: u32, index: &AddrMap<usize>) -> Result<usize, VliwError> {
    if idx != NO_IDX {
        Ok(idx as usize)
    } else {
        index
            .get(&target)
            .copied()
            .ok_or(VliwError::BadPc { addr: target })
    }
}

/// Routes a data load to memory or the device bus — the one load path
/// shared by every dispatch core (the compiled slot closures call it
/// directly, so routing semantics cannot drift between modes).
pub(crate) fn route_load(
    mem: &mut Memory,
    bus: &mut Option<DeviceBus>,
    cycle: u64,
    addr: u32,
    w: Width,
    unsigned: bool,
    stall: &mut u64,
) -> Result<u32, VliwError> {
    if let Some(dev) = bus.as_mut().and_then(|b| b.claim(addr)) {
        let (v, s) = dev.bus_read(cycle, addr, w.bytes());
        *stall += s;
        return Ok(v);
    }
    Ok(match (w, unsigned) {
        (Width::B, false) => mem.read_u8(addr)? as i8 as i32 as u32,
        (Width::B, true) => mem.read_u8(addr)? as u32,
        (Width::H, false) => mem.read_u16(addr)? as i16 as i32 as u32,
        (Width::H, true) => mem.read_u16(addr)? as u32,
        (Width::W, _) => mem.read_u32(addr)?,
    })
}

/// Store twin of [`route_load`].
pub(crate) fn route_store(
    mem: &mut Memory,
    bus: &mut Option<DeviceBus>,
    cycle: u64,
    addr: u32,
    w: Width,
    v: u32,
    stall: &mut u64,
) -> Result<(), VliwError> {
    if let Some(dev) = bus.as_mut().and_then(|b| b.claim(addr)) {
        *stall += dev.bus_write(cycle, addr, w.bytes(), v);
        return Ok(());
    }
    match w {
        Width::B => mem.write_u8(addr, v as u8)?,
        Width::H => mem.write_u16(addr, v as u16)?,
        Width::W => mem.write_u32(addr, v)?,
    }
    Ok(())
}

/// Files the writes one packet staged at the tail (`pending[staged..]`,
/// slot order) into due order and refreshes `next_due`. The insertion
/// is stable — a write goes after every earlier-staged write due no
/// later — so ties keep staging order. Usually the new writes are due
/// last and nothing moves.
fn settle_staged(pending: &mut [(u64, Reg, u32)], staged: usize, next_due: &mut u64) {
    for i in staged.max(1)..pending.len() {
        let due = pending[i].0;
        if pending[i - 1].0 > due {
            let at = pending[..i].partition_point(|&(c, _, _)| c <= due);
            pending[at..=i].rotate_right(1);
        }
    }
    if let Some(&(due, _, _)) = pending.first() {
        *next_due = due;
    }
}

/// Retires every staged write due at `now`: applies the due prefix of
/// the due-ordered list in order (so for one register the later-due,
/// then later-staged, write wins) and drains it. The write-back half of
/// the packet prologue on every core.
fn commit_due(
    pending: &mut Vec<(u64, Reg, u32)>,
    next_due: &mut u64,
    regs: &mut [u32; 64],
    now: u64,
) {
    let due = pending.iter().take_while(|&&(c, _, _)| c <= now).count();
    for &(_, r, v) in &pending[..due] {
        regs[r.index()] = v;
    }
    pending.drain(..due);
    *next_due = pending.first().map_or(u64::MAX, |&(c, _, _)| c);
}

/// The compiled core's next-cycle latch: the single-cycle results one
/// packet staged, in slot order, all due at `due` (the packet's
/// dispatch cycle + 1). A packet that stages anything issues for one
/// cycle (only a lone `NOP n` issues for `n`), so the next packet's
/// prologue always finds them due and drains the latch whole
/// ([`commit_latched`]). A packet holds at most eight slots, so eight
/// entries suffice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Latch {
    writes: [(Reg, u32); 8],
    len: usize,
    /// Due cycle of every entry (meaningless while empty).
    pub(crate) due: u64,
}

impl Latch {
    const EMPTY: Latch = Latch {
        writes: [(Reg::a(0), 0); 8],
        len: 0,
        due: 0,
    };

    /// Latches one result of the packet in flight.
    #[inline]
    pub(crate) fn push(&mut self, r: Reg, v: u32) {
        self.writes[self.len] = (r, v);
        self.len += 1;
    }

    fn entries(&self) -> &[(Reg, u32)] {
        &self.writes[..self.len]
    }

    /// Moves the latch into the due-ordered list and empties it. It
    /// goes after every entry due no later (those were staged earlier),
    /// so the list retires in the order a list-only core's would.
    fn spill(&mut self, pending: &mut Vec<(u64, Reg, u32)>, next_due: &mut u64) {
        if self.len == 0 {
            return;
        }
        let due = self.due;
        let at = pending.partition_point(|&(c, _, _)| c <= due);
        pending.splice(at..at, self.entries().iter().map(|&(r, v)| (due, r, v)));
        *next_due = pending[0].0;
        self.len = 0;
    }
}

/// The compiled core's packet prologue write-back: retires the latch and
/// every list entry due at `now`, in the order one due-ordered list
/// holding both would — list entries due no later than the latch
/// (staged earlier), then the latch in slot order, then the rest of the
/// due prefix.
#[inline]
fn commit_latched(
    pending: &mut Vec<(u64, Reg, u32)>,
    next_due: &mut u64,
    latch: &mut Latch,
    regs: &mut [u32; 64],
    now: u64,
) {
    if latch.len != 0 {
        debug_assert!(latch.due <= now, "latched results are due next packet");
        if *next_due <= latch.due {
            commit_due(pending, next_due, regs, latch.due);
        }
        for &(r, v) in latch.entries() {
            regs[r.index()] = v;
        }
        latch.len = 0;
    }
    if now >= *next_due {
        commit_due(pending, next_due, regs, now);
    }
}

impl ExecutionEngine for VliwSim {
    type Error = VliwError;
    type Snapshot = VliwSnapshot;

    /// The latch goes into the snapshot's pending list where a list-only
    /// core keeps the same writes, so the image reads the same whichever
    /// core took it.
    fn snapshot(&self) -> VliwSnapshot {
        let mut pending_writes = self.pending_writes.clone();
        let mut next_due = self.next_due;
        let mut latch = self.latch;
        latch.spill(&mut pending_writes, &mut next_due);
        VliwSnapshot {
            regs: self.regs,
            mem: self.mem.clone(),
            pc: self.pc,
            cycle: self.cycle,
            pending_writes,
            next_due,
            pending_branch: self.pending_branch,
            pending_branch_idx: self.pending_branch_idx,
            stats: self.stats,
            halted: self.halted,
        }
    }

    fn restore(&mut self, snapshot: &VliwSnapshot) {
        self.regs = snapshot.regs;
        self.mem = snapshot.mem.clone();
        self.pc = snapshot.pc;
        self.cycle = snapshot.cycle;
        self.pending_writes.clone_from(&snapshot.pending_writes);
        self.next_due = snapshot.next_due;
        self.latch.len = 0;
        self.pending_branch = snapshot.pending_branch;
        self.pending_branch_idx = snapshot.pending_branch_idx;
        self.stats = snapshot.stats;
        self.halted = snapshot.halted;
    }

    /// Flat register space: indices `0..64` are the physical registers
    /// `A0..A31`, `B0..B31` ([`Reg::index`]). Where source registers
    /// live inside that space is decided by the translator's register
    /// binding, not by this engine.
    fn reset(&mut self) {
        self.regs = [0; 64];
        self.mem = self.program.image.clone();
        self.pc = 0;
        self.cycle = 0;
        self.pending_writes.clear();
        self.next_due = u64::MAX;
        self.latch.len = 0;
        self.pending_branch = None;
        self.pending_branch_idx = NO_IDX;
        self.stats = VliwStats::default();
        self.halted = false;
    }

    fn step_unit(&mut self) -> Result<(), VliwError> {
        self.step_packet()
    }

    /// The naive core runs [`cabt_exec::run_until_with`]; the compiled
    /// tier its own loop, which makes the same checks before every
    /// packet.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, VliwError> {
        match self.mode {
            VliwDispatch::Naive => cabt_exec::run_until_with(self, limit, Self::step_packet_naive),
            VliwDispatch::Trace => self.run_compiled::<false>(limit),
        }
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn pc(&self) -> Option<u32> {
        self.pc_addr()
    }

    fn commit_arch_state(&mut self) {
        self.commit_due_writes();
    }

    fn reg_count(&self) -> usize {
        64
    }

    fn read_reg_index(&self, index: usize) -> u32 {
        self.regs[index]
    }

    fn write_reg_index(&mut self, index: usize, value: u32) {
        self.regs[index] = value;
    }

    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, VliwError> {
        self.mem.read_block(addr, len).map_err(VliwError::Mem)
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            cycles: self.cycle,
            retired: self.stats.packets,
            stall_cycles: self.stats.stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Pred, Unit};
    use cabt_exec::{Limit, StopCause};

    /// Builds a linear program from op lists; each inner vec is a packet.
    fn program(ops: Vec<Vec<Slot>>) -> Vec<Packet> {
        let mut addr = 0x8000;
        let mut out = Vec::new();
        for slots in ops {
            let mut p = Packet::at(addr);
            for s in slots {
                p.push(s).unwrap();
            }
            addr += p.size();
            out.push(p);
        }
        out
    }

    fn halt() -> Vec<Slot> {
        vec![Slot::new(Unit::S1, Op::Halt)]
    }

    #[test]
    fn alu_results_visible_next_packet() {
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 21,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Add {
                    d: Reg::a(2),
                    s1: Reg::a(1),
                    s2: Reg::a(1),
                },
            )],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.reg(Reg::a(2)), 42);
        assert_eq!(sim.stats().packets, 3);
    }

    #[test]
    fn within_packet_reads_see_old_values() {
        // Classic VLIW semantics: both slots read the pre-packet state.
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 5,
                },
            )],
            vec![
                Slot::new(
                    Unit::L1,
                    Op::AddI {
                        d: Reg::a(1),
                        s1: Reg::a(1),
                        imm5: 1,
                    },
                ),
                Slot::new(
                    Unit::S1,
                    Op::Mv {
                        d: Reg::a(2),
                        s: Reg::a(1),
                    },
                ),
            ],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.reg(Reg::a(1)), 6);
        assert_eq!(sim.reg(Reg::a(2)), 5, "MV must see the pre-increment value");
    }

    #[test]
    fn load_has_four_delay_slots() {
        let mut prog = program(vec![
            vec![Slot::new(
                Unit::D1,
                Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: Reg::a(1),
                    base: Reg::b(1),
                    woff: 0,
                },
            )],
            // These four packets are in the load shadow: they see A1 = 0.
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(2),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(3),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(4),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(5),
                    s: Reg::a(1),
                },
            )],
            // Fifth packet after the load sees the loaded value.
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(6),
                    s: Reg::a(1),
                },
            )],
            halt(),
        ]);
        prog.rotate_right(0);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.mem.write_u32(0x100, 0xdead_beef).unwrap();
        sim.regs[Reg::b(1).index()] = 0x100;
        sim.run(100).unwrap();
        assert_eq!(sim.reg(Reg::a(2)), 0);
        assert_eq!(sim.reg(Reg::a(5)), 0);
        assert_eq!(sim.reg(Reg::a(6)), 0xdead_beef);
    }

    #[test]
    fn branch_shadow_is_five_issue_slots() {
        // Packet 0: B to the halt packet. Packets 1..=5 are delay slots
        // and still execute; the packet after them is skipped.
        let mut prog = program(vec![
            vec![Slot::new(Unit::S1, Op::B { disp21: 0 })], // patched below
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(1),
                    s1: Reg::a(1),
                    imm5: 1,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(1),
                    s1: Reg::a(1),
                    imm5: 1,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(1),
                    s1: Reg::a(1),
                    imm5: 1,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(1),
                    s1: Reg::a(1),
                    imm5: 1,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(1),
                    s1: Reg::a(1),
                    imm5: 1,
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::AddI {
                    d: Reg::a(2),
                    s1: Reg::a(2),
                    imm5: 1,
                },
            )], // skipped
            halt(),
        ]);
        let target = prog[7].addr;
        let from = prog[0].addr;
        prog[0] = {
            let mut p = Packet::at(from);
            p.push(Slot::new(
                Unit::S1,
                Op::B {
                    disp21: ((target - from) / 4) as i32,
                },
            ))
            .unwrap();
            p
        };
        let mut sim = VliwSim::new(prog).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.reg(Reg::a(1)), 5, "all five delay slots execute");
        assert_eq!(sim.reg(Reg::a(2)), 0, "post-shadow packet is skipped");
    }

    #[test]
    fn predication_annuls_slots() {
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 1,
                },
            )],
            vec![
                Slot::when(
                    Unit::L1,
                    Pred::nz(Reg::a(1)),
                    Op::AddI {
                        d: Reg::a(2),
                        s1: Reg::a(2),
                        imm5: 5,
                    },
                ),
                Slot::when(
                    Unit::S1,
                    Pred::z(Reg::a(1)),
                    Op::Mvk {
                        d: Reg::a(3),
                        imm16: 9,
                    },
                ),
            ],
            halt(),
        ]);
        for mode in [VliwDispatch::Naive, VliwDispatch::Trace] {
            let mut sim = VliwSim::new(prog.clone()).unwrap();
            sim.set_dispatch(mode);
            let st = sim.run(100).unwrap();
            let at = format!("{mode:?}");
            assert_eq!(sim.reg(Reg::a(2)), 5, "{at}: true guard executes");
            assert_eq!(sim.reg(Reg::a(3)), 0, "{at}: false guard annuls");
            assert_eq!(st.slots, 3, "{at}: the annulled slot is not counted");
        }
    }

    /// A counted loop whose body mixes latched single-cycle results, a
    /// load in flight across packets and a `NOP 5` branch shadow.
    fn latch_loop() -> Vec<Packet> {
        let (a1, a3, a4, a5, a6, b1) = (
            Reg::a(1),
            Reg::a(3),
            Reg::a(4),
            Reg::a(5),
            Reg::a(6),
            Reg::b(1),
        );
        program(vec![
            vec![
                Slot::new(Unit::S1, Op::Mvk { d: a1, imm16: 12 }),
                Slot::new(
                    Unit::S2,
                    Op::Mvk {
                        d: b1,
                        imm16: 0x100,
                    },
                ),
            ],
            // 0x8010, the loop head.
            vec![
                Slot::new(
                    Unit::L1,
                    Op::AddI {
                        d: a1,
                        s1: a1,
                        imm5: -1,
                    },
                ),
                Slot::new(Unit::S1, Op::Mvk { d: a3, imm16: 7 }),
                Slot::new(
                    Unit::D1,
                    Op::Ld {
                        w: Width::W,
                        unsigned: false,
                        d: a6,
                        base: b1,
                        woff: 0,
                    },
                ),
            ],
            vec![
                Slot::new(
                    Unit::L1,
                    Op::Add {
                        d: a4,
                        s1: a4,
                        s2: a3,
                    },
                ),
                Slot::new(
                    Unit::D1,
                    Op::Add {
                        d: a6,
                        s1: a6,
                        s2: a3,
                    },
                ),
            ],
            // 0x8038: back to 0x8010 while `a1` is non-zero.
            vec![
                Slot::when(Unit::S1, Pred::nz(a1), Op::B { disp21: -10 }),
                Slot::new(
                    Unit::L1,
                    Op::Add {
                        d: a5,
                        s1: a5,
                        s2: a6,
                    },
                ),
            ],
            vec![Slot::new(Unit::S1, Op::Nop { count: 5 })],
            vec![Slot::new(Unit::S1, Op::Mvk { d: a3, imm16: 9 })],
            vec![Slot::new(
                Unit::L1,
                Op::Add {
                    d: a4,
                    s1: a4,
                    s2: a3,
                },
            )],
            halt(),
        ])
    }

    /// At every packet boundary of the compiled core the snapshot reads
    /// exactly like the list-only naive core's at the same retirement
    /// count: the latch sits in the pending list behind the writes due
    /// no later, and `next_due` covers it. Restoring it on either core
    /// replays to the same halt.
    #[test]
    fn trace_snapshots_put_the_latch_where_the_list_keeps_it() {
        let build = |mode| {
            let mut sim = VliwSim::new(latch_loop()).unwrap();
            sim.mem.write_u32(0x100, 5).unwrap();
            sim.set_dispatch(mode);
            sim
        };
        let mut oracle = build(VliwDispatch::Naive);
        let end = oracle.run(10_000).unwrap();
        let end_regs = oracle.regs;
        assert_eq!(oracle.reg(Reg::a(4)), 12 * 7 + 9);
        let mut comp = build(VliwDispatch::Trace);
        let mut naive = build(VliwDispatch::Naive);
        let mut latched = 0;
        while !comp.is_halted() {
            comp.run_until(Limit::Retirements(comp.stats().packets + 1))
                .unwrap();
            naive
                .run_until(Limit::Retirements(comp.stats().packets))
                .unwrap();
            latched += usize::from(comp.latch.len > 0);
            let (t, p) = (comp.snapshot(), naive.snapshot());
            let at = format!("at packet {}", comp.stats().packets);
            assert_eq!(t.pending_writes, p.pending_writes, "{at}");
            assert_eq!(t.next_due, p.next_due, "{at}");
            assert_eq!((t.regs, t.cycle), (p.regs, p.cycle), "{at}");
            assert_eq!(comp.pc_addr(), naive.pc_addr(), "{at}");
            for mode in [VliwDispatch::Trace, VliwDispatch::Naive] {
                let mut replay = build(mode);
                replay.restore(&t);
                let on = format!("{at}: {mode:?}");
                assert_eq!(replay.run(10_000).unwrap(), end, "{on}");
                assert_eq!(replay.regs, end_regs, "{on}");
            }
        }
        assert!(latched > 0, "no boundary held latched results");
    }

    #[test]
    fn multicycle_nop_advances_cycles() {
        let prog = program(vec![
            vec![Slot::new(Unit::S1, Op::Nop { count: 5 })],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        let st = sim.run(100).unwrap();
        assert_eq!(st.cycles, 6);
        assert_eq!(st.packets, 2);
        assert_eq!(st.slots, 1, "NOPs are not counted as slots");
    }

    #[test]
    fn mvk_mvkh_build_constants() {
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::b(7),
                    imm16: 0x5678,
                },
            )],
            vec![Slot::new(
                Unit::S1,
                Op::Mvkh {
                    d: Reg::b(7),
                    imm16: 0x1234,
                },
            )],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.run(100).unwrap();
        assert_eq!(sim.reg(Reg::b(7)), 0x1234_5678);
    }

    #[test]
    fn bus_stall_cycles_accumulate() {
        struct SlowDev;
        impl TargetBus for SlowDev {
            #[allow(clippy::single_range_in_vec_init)] // one window, not its addresses
            fn windows(&self) -> Vec<Range<u32>> {
                vec![0xff00_0000..u32::MAX]
            }
            fn bus_read(&mut self, _c: u64, _a: u32, _s: u32) -> (u32, u64) {
                (7, 10)
            }
            fn bus_write(&mut self, _c: u64, _a: u32, _s: u32, _v: u32) -> u64 {
                3
            }
        }
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::b(1),
                    imm16: 0,
                },
            )],
            vec![Slot::new(
                Unit::S1,
                Op::Mvkh {
                    d: Reg::b(1),
                    imm16: 0xff00,
                },
            )],
            vec![Slot::new(
                Unit::D1,
                Op::St {
                    w: Width::W,
                    s: Reg::b(1),
                    base: Reg::b(1),
                    woff: 0,
                },
            )],
            vec![Slot::new(
                Unit::D1,
                Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: Reg::a(1),
                    base: Reg::b(1),
                    woff: 0,
                },
            )],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.set_bus(Box::new(SlowDev));
        let st = sim.run(1000).unwrap();
        assert_eq!(st.stall_cycles, 13);
        assert_eq!(st.cycles, 5 + 13);
        // The 10-cycle read stall pushes the halt packet past the load's
        // delay slots, so the loaded value has committed.
        assert_eq!(sim.reg(Reg::a(1)), 7);
    }

    /// A `DIV` staged before an `ADD` to the same register is due after
    /// it; a device stall in the `ADD`'s packet carries the clock past
    /// both due cycles, so one commit retires both and the later-due
    /// quotient must win — on every core, and across a snapshot taken
    /// while the writes are in flight out of staging order.
    #[test]
    fn one_commit_retires_writes_in_due_order() {
        struct StallDev;
        impl TargetBus for StallDev {
            #[allow(clippy::single_range_in_vec_init)] // one window, not its addresses
            fn windows(&self) -> Vec<Range<u32>> {
                vec![0xff00_0000..0xff00_0010]
            }
            fn bus_read(&mut self, _c: u64, _a: u32, _s: u32) -> (u32, u64) {
                (0x5a, 30)
            }
            fn bus_write(&mut self, _c: u64, _a: u32, _s: u32, _v: u32) -> u64 {
                0
            }
        }
        let (a1, a2, a3, a4, a5, b1) = (
            Reg::a(1),
            Reg::a(2),
            Reg::a(3),
            Reg::a(4),
            Reg::a(5),
            Reg::b(1),
        );
        let build = |mode| {
            let prog = program(vec![
                vec![
                    Slot::new(Unit::S1, Op::Mvk { d: a1, imm16: 100 }),
                    Slot::new(Unit::S2, Op::Mvk { d: b1, imm16: 0 }),
                ],
                vec![
                    Slot::new(Unit::S1, Op::Mvk { d: a2, imm16: 7 }),
                    Slot::new(
                        Unit::S2,
                        Op::Mvkh {
                            d: b1,
                            imm16: 0xff00,
                        },
                    ),
                ],
                // Cycle 2: the quotient is due at 2 + 18 = 20.
                vec![Slot::new(
                    Unit::M1,
                    Op::Div {
                        d: a3,
                        s1: a1,
                        s2: a2,
                    },
                )],
                // Cycle 3: the sum is due at 4, the load at 8; the load
                // stalls 30, so the next packet dispatches at 34.
                vec![
                    Slot::new(
                        Unit::L1,
                        Op::Add {
                            d: a3,
                            s1: a1,
                            s2: a2,
                        },
                    ),
                    Slot::new(
                        Unit::D1,
                        Op::Ld {
                            w: Width::W,
                            unsigned: false,
                            d: a4,
                            base: b1,
                            woff: 0,
                        },
                    ),
                ],
                vec![Slot::new(Unit::L1, Op::Mv { d: a5, s: a3 })],
                halt(),
            ]);
            let mut sim = VliwSim::new(prog).unwrap();
            sim.set_dispatch(mode);
            sim.set_bus(Box::new(StallDev));
            sim
        };
        let regs = |sim: &VliwSim| -> Vec<u32> {
            (0..64u8).map(|i| sim.reg(Reg::from_index(i))).collect()
        };
        let encode = |snap: &VliwSnapshot| {
            let mut bytes = Vec::new();
            snap.encode_into(&mut bytes);
            VliwSnapshot::decode(&mut ByteReader::new(&bytes)).unwrap()
        };
        for mode in [VliwDispatch::Naive, VliwDispatch::Trace] {
            let mut sim = build(mode);
            for _ in 0..4 {
                sim.step_packet().unwrap();
            }
            assert_eq!(sim.cycle(), 34, "{mode:?}");
            let snap = sim.snapshot();
            let in_due_order = vec![(4, a3, 107), (8, a4, 0x5a), (20, a3, 14)];
            assert_eq!(snap.pending_writes, in_due_order, "{mode:?}");
            // An image listing the writes in staging order, as engines
            // that sorted at commit time wrote it.
            let mut staging_order = snap.clone();
            staging_order.pending_writes = vec![(20, a3, 14), (4, a3, 107), (8, a4, 0x5a)];

            let stats = sim.run(1000).unwrap();
            assert_eq!(sim.reg(a3), 14, "{mode:?}: the later-due quotient wins");
            assert_eq!(sim.reg(a5), 14, "{mode:?}: one commit retired both");
            assert_eq!(sim.reg(a4), 0x5a, "{mode:?}");
            let want = regs(&sim);
            for image in [&snap, &staging_order] {
                let decoded = encode(image);
                assert_eq!(decoded.pending_writes, in_due_order, "{mode:?}");
                let mut replay = build(mode);
                replay.restore(&decoded);
                assert_eq!(replay.run(1000).unwrap(), stats, "{mode:?}");
                assert_eq!(regs(&replay), want, "{mode:?}: replay diverged");
            }
        }
    }

    #[test]
    fn branch_to_unknown_address_fails() {
        let _prog = program(vec![
            vec![Slot::new(Unit::S1, Op::B { disp21: 1000 })],
            halt(),
            halt(),
            halt(),
            halt(),
            halt(),
            halt(),
        ]);
        // Halt packets in the shadow would stop execution before the
        // redirect faults, so use harmless delay slots instead.
        let prog = program(vec![
            vec![Slot::new(Unit::S1, Op::B { disp21: 1000 })],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        let e = sim.run(100).unwrap_err();
        assert!(matches!(e, VliwError::BadPc { .. }));
    }

    #[test]
    fn running_off_the_end_faults() {
        let prog = program(vec![vec![Slot::new(
            Unit::L1,
            Op::Mv {
                d: Reg::a(1),
                s: Reg::a(1),
            },
        )]]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.step_packet().unwrap();
        assert!(matches!(sim.step_packet(), Err(VliwError::BadPc { .. })));
    }

    #[test]
    fn cycle_limit_reported() {
        let mut prog = program(vec![
            vec![Slot::new(Unit::S1, Op::B { disp21: 0 })],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
            vec![Slot::new(
                Unit::L1,
                Op::Mv {
                    d: Reg::a(1),
                    s: Reg::a(1),
                },
            )],
        ]);
        // Branch back to self: infinite loop.
        let addr = prog[0].addr;
        prog[0] = {
            let mut p = Packet::at(addr);
            p.push(Slot::new(Unit::S1, Op::B { disp21: 0 })).unwrap();
            p
        };
        let mut sim = VliwSim::new(prog).unwrap();
        assert_eq!(sim.run(200).unwrap_err(), VliwError::CycleLimit);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 100,
                },
            )],
            vec![Slot::new(
                Unit::M1,
                Op::Div {
                    d: Reg::a(2),
                    s1: Reg::a(1),
                    s2: Reg::a(3),
                },
            )],
            vec![Slot::new(Unit::S1, Op::Nop { count: 9 })],
            vec![Slot::new(Unit::S1, Op::Nop { count: 9 })],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        sim.run(1000).unwrap();
        assert_eq!(sim.reg(Reg::a(2)), 0);
    }

    /// Loop with a backward branch plus delayed writes: both dispatch
    /// cores must agree on every observable.
    #[test]
    fn predecoded_matches_naive() {
        let build = || {
            let mut prog = program(vec![
                vec![Slot::new(
                    Unit::S1,
                    Op::Mvk {
                        d: Reg::a(1),
                        imm16: 5,
                    },
                )],
                // Loop body starts here (packet 1).
                vec![Slot::new(
                    Unit::L1,
                    Op::AddI {
                        d: Reg::a(1),
                        s1: Reg::a(1),
                        imm5: -1,
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::AddI {
                        d: Reg::a(2),
                        s1: Reg::a(2),
                        imm5: 1,
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(3),
                        s: Reg::a(2),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(4),
                        s: Reg::a(1),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::CmpGt {
                        d: Reg::a(0),
                        s1: Reg::a(1),
                        s2: Reg::b(0),
                    },
                )],
                vec![Slot::when(
                    Unit::S1,
                    Pred::nz(Reg::a(0)),
                    Op::B { disp21: 0 },
                )], // patched
                // Branch shadow (5 issue slots), then the halt packet.
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(5),
                        s: Reg::a(2),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(6),
                        s: Reg::a(2),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(7),
                        s: Reg::a(2),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(8),
                        s: Reg::a(2),
                    },
                )],
                vec![Slot::new(
                    Unit::L1,
                    Op::Mv {
                        d: Reg::a(9),
                        s: Reg::a(2),
                    },
                )],
                halt(),
            ]);
            // Patch packet 6 to branch back to the loop head (packet 1).
            let from = prog[6].addr;
            let to = prog[1].addr;
            prog[6] = {
                let mut p = Packet::at(from);
                p.push(Slot::when(
                    Unit::S1,
                    Pred::nz(Reg::a(0)),
                    Op::B {
                        disp21: ((to as i64 - from as i64) / 4) as i32,
                    },
                ))
                .unwrap();
                p
            };
            prog
        };
        let mut fast = VliwSim::new(build()).unwrap();
        let rf = fast.run(10_000).unwrap();
        let mut naive = VliwSim::new(build()).unwrap();
        naive.set_dispatch(VliwDispatch::Naive);
        let rn = naive.run(10_000).unwrap();
        assert_eq!(rf, rn, "stats diverge");
        for i in 0..64u8 {
            let r = Reg::from_index(i);
            assert_eq!(fast.reg(r), naive.reg(r), "{r} diverged");
        }
        assert_eq!(fast.cycle(), naive.cycle());
    }

    #[test]
    fn engine_trait_drives_the_vliw_core() {
        let prog = program(vec![
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 3,
                },
            )],
            vec![Slot::new(
                Unit::S1,
                Op::Mvk {
                    d: Reg::a(2),
                    imm16: 4,
                },
            )],
            halt(),
        ]);
        let mut sim = VliwSim::new(prog).unwrap();
        assert_eq!(
            sim.run_until(Limit::Cycles(1)).unwrap(),
            StopCause::LimitReached
        );
        assert_eq!(sim.engine_stats().retired, 1);
        assert_eq!(
            sim.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted
        );
        assert_eq!(sim.read_reg_index(Reg::a(1).index()), 3);
        assert_eq!(sim.read_reg_index(Reg::a(2).index()), 4);
        let before = sim.engine_stats();
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(!sim.is_halted());
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
