//! Debugging of translated code (§3.5 of the paper).
//!
//! "The debug code contains two translations of the original code. In
//! one of these translations the code has to be annotated with a basic
//! block oriented cycle generation, and in the other one it has to be
//! annotated with an instruction oriented cycle generation."
//!
//! [`DebugSession`] holds both translations. Breakpoints are set at
//! source addresses; continuing runs the *instruction-oriented* image
//! (every source instruction is a packet-aligned block, so execution can
//! stop at any source address while still generating cycles), and the
//! session translates register names and addresses between the source
//! and target worlds, as the paper's interface program does for gdb.
//! A gdb-remote-serial-protocol-style packet layer ([`rsp`]) exposes the
//! session over any byte transport.
//!
//! The stepping/inspection machinery is not VLIW-specific: it lives in
//! [`Lockstep`], which drives *any* [`ExecutionEngine`] whose dispatch
//! addresses can be mapped back to source addresses. `DebugSession` is
//! the translated-image instantiation (`Lockstep<Session>` over a
//! `cabt-sim` session built by [`DebugSession::from_builder`]); the
//! same driver runs the golden model or future backends in lockstep,
//! which is how the differential test suite compares engines.

pub mod rsp;

use cabt_core::regbind::{areg, dreg};
use cabt_core::{DetailLevel, Granularity, TranslateError, Translated, Translator};
use cabt_exec::ExecutionEngine;
use cabt_isa::elf::ElfFile;
use cabt_sim::{Backend, Session, SessionError, SimBuilder};
use cabt_tricore::isa::{AReg, DReg};
use cabt_vliw::sim::VliwError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A breakpoint at the given source address was hit.
    Breakpoint(u32),
    /// One instruction was stepped; now at the given source address.
    Step(u32),
    /// The program halted (`debug` instruction).
    Halted,
}

/// Errors from debug sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugError {
    /// Translation of the debuggee failed.
    Translate(TranslateError),
    /// Target execution failed.
    Exec(VliwError),
    /// Building or running the underlying `cabt-sim` session failed.
    Session(SessionError),
    /// The session builder selected a backend the debugger cannot
    /// drive (only [`Backend::Translated`] has the dual-translation
    /// debug pair).
    BadBackend(Backend),
    /// The requested address is not a source instruction address.
    BadAddress(u32),
    /// The requested register name is unknown.
    BadRegister(String),
}

impl fmt::Display for DebugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebugError::Translate(e) => write!(f, "cannot translate debuggee: {e}"),
            DebugError::Exec(e) => write!(f, "target fault: {e}"),
            DebugError::Session(e) => write!(f, "session fault: {e}"),
            DebugError::BadBackend(b) => {
                write!(
                    f,
                    "cannot debug a `{b}` session (needs a translated backend)"
                )
            }
            DebugError::BadAddress(a) => write!(f, "{a:#010x} is not an instruction address"),
            DebugError::BadRegister(n) => write!(f, "unknown register `{n}`"),
        }
    }
}

impl std::error::Error for DebugError {}

impl From<TranslateError> for DebugError {
    fn from(e: TranslateError) -> Self {
        DebugError::Translate(e)
    }
}

impl From<VliwError> for DebugError {
    fn from(e: VliwError) -> Self {
        DebugError::Exec(e)
    }
}

impl From<SessionError> for DebugError {
    fn from(e: SessionError) -> Self {
        // Keep the historical shapes for the cases callers match on.
        match e {
            SessionError::Translate(t) => DebugError::Translate(t),
            SessionError::Target(v) => DebugError::Exec(v),
            other => DebugError::Session(other),
        }
    }
}

/// How [`Lockstep::advance`] decides where to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Advance {
    /// Run until a breakpoint (or halt); budget guards runaways.
    Continue,
    /// Run until the source address changes once (single step).
    StepOnce,
}

/// Generic lockstep driver: runs any [`ExecutionEngine`] stopping at
/// *source-address* boundaries.
///
/// The engine dispatches target-native units; `src_of_tgt` maps the
/// engine's dispatch addresses back to source instruction addresses
/// (identity for engines that execute source code directly). All
/// stepping, breakpoint and inspection plumbing shared by the debugger
/// front ends lives here, once, instead of being re-implemented per
/// engine.
#[derive(Debug)]
pub struct Lockstep<E: ExecutionEngine> {
    engine: E,
    /// Engine dispatch address → source instruction address.
    src_of_tgt: HashMap<u32, u32>,
    /// Valid source instruction addresses.
    src_addrs: BTreeSet<u32>,
    breakpoints: BTreeSet<u32>,
}

impl<E: ExecutionEngine> Lockstep<E> {
    /// Wraps an engine with its target→source address map.
    pub fn new(engine: E, src_of_tgt: HashMap<u32, u32>) -> Self {
        let src_addrs = src_of_tgt.values().copied().collect();
        Lockstep {
            engine,
            src_of_tgt,
            src_addrs,
            breakpoints: BTreeSet::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Sets a breakpoint at a source instruction address; `false` if the
    /// address is not an instruction start.
    pub fn set_breakpoint(&mut self, src: u32) -> bool {
        if !self.src_addrs.contains(&src) {
            return false;
        }
        self.breakpoints.insert(src);
        true
    }

    /// Removes a breakpoint (no-op if absent).
    pub fn clear_breakpoint(&mut self, src: u32) {
        self.breakpoints.remove(&src);
    }

    /// The source address of the next unit to execute, if the engine
    /// sits at a source instruction boundary.
    pub fn current_src(&self) -> Option<u32> {
        self.engine
            .pc()
            .and_then(|t| self.src_of_tgt.get(&t).copied())
    }

    /// True once the debuggee halted.
    pub fn is_halted(&self) -> bool {
        self.engine.is_halted()
    }

    /// Engine cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.engine.cycle()
    }

    /// One stop-condition evaluation at the current position.
    /// Breakpoint and step stops commit delayed write-backs, so
    /// architectural state is observable at every exit; a halted engine
    /// committed its state when it halted.
    fn check_stop(&mut self, mode: Advance, start: Option<u32>, moved: bool) -> Option<StopReason> {
        if self.engine.is_halted() {
            return Some(StopReason::Halted);
        }
        let src = self.current_src()?;
        let hit = match mode {
            Advance::Continue => (moved || Some(src) != start) && self.breakpoints.contains(&src),
            Advance::StepOnce => moved && Some(src) != start,
        };
        if hit {
            self.engine.commit_arch_state();
            Some(match mode {
                Advance::Continue => StopReason::Breakpoint(src),
                Advance::StepOnce => StopReason::Step(src),
            })
        } else {
            None
        }
    }

    /// Runs until a breakpoint or halt (`Continue`), or until the
    /// source address changes (`StepOnce`). The single boundary loop
    /// serving both `cont` and `step`. The stop condition is evaluated
    /// once more after the last budgeted step, so a boundary reached on
    /// exactly the budget-th unit is still reported.
    fn advance(&mut self, mode: Advance, budget: u64) -> Result<Option<StopReason>, E::Error> {
        // Always leave the current address first, so continuing after a
        // breakpoint hit makes progress.
        let start = self.current_src();
        let mut moved = false;
        for _ in 0..budget {
            if let Some(stop) = self.check_stop(mode, start, moved) {
                return Ok(Some(stop));
            }
            self.engine.step_unit()?;
            moved = true;
        }
        Ok(self.check_stop(mode, start, moved))
    }

    /// Runs until a breakpoint or the program halt; `None` when `budget`
    /// engine units elapsed first.
    ///
    /// # Errors
    ///
    /// Propagates engine faults.
    pub fn cont(&mut self, budget: u64) -> Result<Option<StopReason>, E::Error> {
        self.advance(Advance::Continue, budget)
    }

    /// Executes exactly one source instruction; `None` when `budget`
    /// engine units elapsed without reaching the next source boundary.
    ///
    /// # Errors
    ///
    /// Propagates engine faults.
    pub fn step(&mut self, budget: u64) -> Result<Option<StopReason>, E::Error> {
        self.advance(Advance::StepOnce, budget)
    }

    /// Reads a register by flat engine index (committed state).
    pub fn read_reg_index(&self, index: usize) -> u32 {
        self.engine.read_reg_index(index)
    }

    /// Writes a register by flat engine index.
    pub fn write_reg_index(&mut self, index: usize, value: u32) {
        self.engine.write_reg_index(index, value);
    }

    /// Reads engine memory.
    ///
    /// # Errors
    ///
    /// Propagates engine memory faults.
    pub fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, E::Error> {
        self.engine.read_mem(addr, len)
    }
}

/// An interactive debug session over a source program.
///
/// # Example
///
/// ```
/// use cabt_debug::{DebugSession, StopReason};
/// use cabt_tricore::asm::assemble;
///
/// let elf = assemble(
///     ".text\n_start: mov %d1, 1\nmid: mov %d2, 2\n add %d2, %d1\n debug\n",
/// )?;
/// let mid = elf.symbol("mid").expect("symbol").value;
/// let mut dbg = DebugSession::new(&elf)?;
/// dbg.set_breakpoint(mid)?;
/// assert_eq!(dbg.cont()?, StopReason::Breakpoint(mid));
/// assert_eq!(dbg.read_reg("d1")?, 1);
/// dbg.step()?; // executes `mov %d2, 2`
/// assert_eq!(dbg.read_reg("d2")?, 2);
/// assert_eq!(dbg.cont()?, StopReason::Halted);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DebugSession {
    /// Basic-block-oriented translation (kept for inspection and for
    /// fast uninstrumented runs via [`DebugSession::block_image`]).
    bb: Translated,
    /// The generic driver over the instruction-oriented `cabt-sim`
    /// session that actually executes the debuggee.
    inner: Lockstep<Session>,
    symbols: HashMap<String, u32>,
}

impl fmt::Debug for DebugSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DebugSession").finish_non_exhaustive()
    }
}

impl DebugSession {
    /// Translates the program twice (basic-block and per-instruction
    /// cycle generation) and loads the per-instruction image.
    ///
    /// # Errors
    ///
    /// Propagates translation and load failures.
    pub fn new(elf: &ElfFile) -> Result<Self, DebugError> {
        Self::with_level(elf, DetailLevel::Static)
    }

    /// Like [`DebugSession::new`] with an explicit detail level. A thin
    /// shim over [`DebugSession::from_builder`].
    ///
    /// # Errors
    ///
    /// Propagates translation and load failures.
    pub fn with_level(elf: &ElfFile, level: DetailLevel) -> Result<Self, DebugError> {
        Self::from_builder(SimBuilder::elf(elf.clone()).backend(Backend::translated(level)))
    }

    /// Builds a debug session from a `cabt-sim` builder — the unified
    /// front door. The builder must select a [`Backend::Translated`]
    /// vehicle; the granularity is forced to
    /// [`Granularity::PerInstruction`] (the paper's second, single-
    /// steppable translation), and the basic-block-oriented twin is
    /// translated alongside for inspection.
    ///
    /// # Errors
    ///
    /// Propagates build failures; [`DebugError::BadBackend`] if the
    /// builder selected a non-translated vehicle (checked *before* the
    /// vehicle is built).
    pub fn from_builder(builder: SimBuilder) -> Result<Self, DebugError> {
        // Both VLIW cores step one packet at a time, which is the
        // lockstep contract's one source instruction per boundary.
        let Backend::Translated { level, .. } = builder.selected_backend() else {
            return Err(DebugError::BadBackend(builder.selected_backend()));
        };
        let session = builder.granularity(Granularity::PerInstruction).build()?;
        let elf = session.source_elf();
        let bb = Translator::new(level).translate(elf)?;
        let src_of_tgt: HashMap<u32, u32> = session
            .translated()
            .expect("translated session carries its image")
            .addr_map
            .iter()
            .map(|(src, tgt)| (*tgt, *src))
            .collect();
        let symbols = elf
            .symbols
            .iter()
            .map(|s| (s.name.clone(), s.value))
            .collect();
        let mut inner = Lockstep::new(session, src_of_tgt);
        // Execute the translated prologue (constant-register setup, the
        // jump to the entry block) so the session starts positioned at
        // the first *source* instruction, like gdb at a program's entry.
        for _ in 0..1000 {
            if inner.current_src().is_some() || inner.is_halted() {
                break;
            }
            inner.engine_mut().step()?;
        }
        Ok(DebugSession { bb, inner, symbols })
    }

    /// The basic-block-oriented image (the paper's "normal" translation).
    pub fn block_image(&self) -> &Translated {
        &self.bb
    }

    /// The instruction-oriented image driving this session.
    pub fn instruction_image(&self) -> &Translated {
        self.inner
            .engine()
            .translated()
            .expect("translated session carries its image")
    }

    /// Sets a breakpoint at a source instruction address.
    ///
    /// # Errors
    ///
    /// Returns [`DebugError::BadAddress`] for addresses that are not
    /// instruction starts.
    pub fn set_breakpoint(&mut self, src: u32) -> Result<(), DebugError> {
        if !self.inner.set_breakpoint(src) {
            return Err(DebugError::BadAddress(src));
        }
        Ok(())
    }

    /// Removes a breakpoint (no-op if absent).
    pub fn clear_breakpoint(&mut self, src: u32) {
        self.inner.clear_breakpoint(src);
    }

    /// Resolves a symbol name to its address.
    pub fn lookup(&self, symbol: &str) -> Option<u32> {
        self.symbols.get(symbol).copied()
    }

    /// The source address of the next instruction to execute, if the
    /// target pc sits at an instruction boundary.
    pub fn current_src(&self) -> Option<u32> {
        self.inner.current_src()
    }

    /// Runs until a breakpoint or the program halt.
    ///
    /// # Errors
    ///
    /// Propagates target faults; a 100M-cycle safety limit guards
    /// against runaway debuggees.
    pub fn cont(&mut self) -> Result<StopReason, DebugError> {
        match self.inner.cont(100_000_000)? {
            Some(r) => Ok(r),
            None => Err(DebugError::Exec(VliwError::CycleLimit)),
        }
    }

    /// Executes exactly one source instruction (the paper's single-step
    /// over the instruction-oriented image).
    ///
    /// # Errors
    ///
    /// Propagates target faults.
    pub fn step(&mut self) -> Result<StopReason, DebugError> {
        match self.inner.step(1_000_000)? {
            Some(r) => Ok(r),
            None => Err(DebugError::Exec(VliwError::CycleLimit)),
        }
    }

    /// Reads a source register by name (`d0..d15`, `a0..a15`, `sp`,
    /// `ra`), translating to its target home.
    ///
    /// # Errors
    ///
    /// Returns [`DebugError::BadRegister`] for unknown names.
    pub fn read_reg(&self, name: &str) -> Result<u32, DebugError> {
        Ok(self.inner.read_reg_index(reg_by_name(name)?.index()))
    }

    /// Reads emulated memory (identity-mapped data space).
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, DebugError> {
        self.inner.read_mem(addr, len).map_err(DebugError::from)
    }

    /// Target cycles consumed so far (includes cycle-generation
    /// overhead of the instrumented image).
    pub fn cycles(&self) -> u64 {
        self.inner.cycles()
    }

    /// All register values in gdb `g`-packet order (`d0..d15`,
    /// `a0..a15`, `pc`).
    pub fn all_regs(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(33);
        for i in 0..16 {
            out.push(self.inner.read_reg_index(dreg(DReg(i)).index()));
        }
        for i in 0..16 {
            out.push(self.inner.read_reg_index(areg(AReg(i)).index()));
        }
        out.push(self.current_src().unwrap_or(0));
        out
    }
}

fn reg_by_name(name: &str) -> Result<cabt_vliw::isa::Reg, DebugError> {
    let bad = || DebugError::BadRegister(name.to_string());
    match name {
        "sp" => return Ok(areg(AReg(10))),
        "ra" => return Ok(areg(AReg(11))),
        _ => {}
    }
    if let Some(n) = name.strip_prefix('d') {
        let i: u8 = n.parse().map_err(|_| bad())?;
        if i < 16 {
            return Ok(dreg(DReg(i)));
        }
    }
    if let Some(n) = name.strip_prefix('a') {
        let i: u8 = n.parse().map_err(|_| bad())?;
        if i < 16 {
            return Ok(areg(AReg(i)));
        }
    }
    Err(bad())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_tricore::asm::assemble;
    use cabt_tricore::sim::Simulator;

    const SRC: &str = "
        .text
    _start:
        mov %d0, 3
        mov %d2, 0
    top:
        add %d2, %d0
        addi %d0, %d0, -1
        jnz %d0, top
        debug
    ";

    fn session() -> DebugSession {
        DebugSession::new(&assemble(SRC).unwrap()).unwrap()
    }

    #[test]
    fn non_translated_builders_are_rejected() {
        let err = DebugSession::from_builder(SimBuilder::asm(SRC).backend(Backend::Rtl))
            .expect_err("RTL sessions have no debug pair");
        assert!(matches!(err, DebugError::BadBackend(Backend::Rtl)));
    }

    #[test]
    fn naive_backends_step_packet_by_packet() {
        // The builder's backend passes through: a naive builder runs
        // lockstep on the naive core, which steps one packet at a time
        // like the compiled tier — single-stepping still stops at every
        // source instruction.
        use cabt_core::DetailLevel;
        let naive = Backend::Translated {
            level: DetailLevel::Static,
            naive: true,
        };
        let mut dbg = DebugSession::from_builder(SimBuilder::asm(SRC).backend(naive)).unwrap();
        assert_eq!(dbg.inner.engine().backend(), naive);
        dbg.step().unwrap();
        assert_eq!(dbg.read_reg("d0").unwrap(), 3);
        while !matches!(dbg.cont().unwrap(), StopReason::Halted) {}
        assert_eq!(dbg.read_reg("d2").unwrap(), 6);
    }

    #[test]
    fn breakpoints_hit_on_every_iteration() {
        let mut dbg = session();
        let top = dbg.lookup("top").unwrap();
        dbg.set_breakpoint(top).unwrap();
        let mut hits = 0;
        loop {
            match dbg.cont().unwrap() {
                StopReason::Breakpoint(a) => {
                    assert_eq!(a, top);
                    hits += 1;
                }
                StopReason::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(hits, 3, "loop body entered three times");
        assert_eq!(dbg.read_reg("d2").unwrap(), 6);
    }

    #[test]
    fn single_step_walks_instructions() {
        let mut dbg = session();
        // Step through: mov, mov, then we are at `top`.
        dbg.step().unwrap();
        assert_eq!(dbg.read_reg("d0").unwrap(), 3);
        dbg.step().unwrap();
        assert_eq!(dbg.read_reg("d2").unwrap(), 0);
        let here = dbg.current_src().unwrap();
        assert_eq!(here, dbg.lookup("top").unwrap());
    }

    #[test]
    fn stepping_counts_cycles() {
        let mut dbg = session();
        let c0 = dbg.cycles();
        dbg.step().unwrap();
        assert!(dbg.cycles() > c0, "instrumented stepping consumes cycles");
    }

    #[test]
    fn bad_addresses_and_registers_rejected() {
        let mut dbg = session();
        assert!(matches!(
            dbg.set_breakpoint(0x1234),
            Err(DebugError::BadAddress(_))
        ));
        assert!(matches!(
            dbg.read_reg("x9"),
            Err(DebugError::BadRegister(_))
        ));
        assert!(matches!(
            dbg.read_reg("d16"),
            Err(DebugError::BadRegister(_))
        ));
        assert_eq!(dbg.read_reg("sp").unwrap(), 0xd003_0000);
    }

    #[test]
    fn memory_reads_see_data_sections() {
        let elf = assemble(".text\n_start: debug\n.data\nv: .word 0x11223344\n").unwrap();
        let mut dbg = DebugSession::new(&elf).unwrap();
        let v = dbg.read_mem(0xd000_0000, 4).unwrap();
        assert_eq!(v, vec![0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn both_images_present_and_differ() {
        let dbg = session();
        assert!(dbg.instruction_image().blocks.len() > dbg.block_image().blocks.len());
    }

    #[test]
    fn all_regs_has_gdb_layout() {
        let dbg = session();
        let regs = dbg.all_regs();
        assert_eq!(regs.len(), 33);
        assert_eq!(regs[26], 0xd003_0000, "a10 = sp");
    }

    /// The generic driver accepts any engine: run the *golden model*
    /// under the same lockstep machinery (identity address map).
    #[test]
    fn lockstep_drives_the_golden_model_too() {
        let elf = assemble(SRC).unwrap();
        let sim = Simulator::new(&elf).unwrap();
        // Source engine: dispatch addresses *are* source addresses.
        let identity: HashMap<u32, u32> = elf
            .sections
            .iter()
            .filter(|s| s.kind == cabt_isa::elf::SectionKind::Text)
            .flat_map(|s| cabt_tricore::encode::decode_section(s.addr, &s.data).unwrap())
            .map(|(a, _)| (a, a))
            .collect();
        let mut ls = Lockstep::new(sim, identity);
        let top = elf.symbol("top").unwrap().value;
        assert!(ls.set_breakpoint(top));
        let mut hits = 0;
        loop {
            match ls.cont(1_000_000).unwrap() {
                Some(StopReason::Breakpoint(a)) => {
                    assert_eq!(a, top);
                    hits += 1;
                }
                Some(StopReason::Halted) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(hits, 3, "same boundary behaviour as the translated session");
        assert_eq!(ls.read_reg_index(2), 6, "d2 via the flat index space");
    }
}
