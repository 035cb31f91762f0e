//! The execution-engine abstraction shared by every CABT simulator.
//!
//! The paper's experiments (Fig. 5, Fig. 6, Tables 1/2) compare *four*
//! execution vehicles for the same source program: the evaluation board
//! (our golden model), the translated VLIW image, the FPGA emulation and
//! an RT-level simulation. The repo grows more backends over time (JIT,
//! sharded multi-core); everything that *drives* an execution — the
//! platform harness, the lockstep debugger, the benchmark tables — goes
//! through one trait so backends stay interchangeable.
//!
//! [`ExecutionEngine`] deliberately models the *dispatch core* of a
//! simulator, not its construction: engines are built by their own
//! crates (from an ELF image, a packet list, a translation) and handed
//! to generic drivers afterwards. The trait surface is exactly what the
//! drivers need:
//!
//! * stepping and bounded runs ([`ExecutionEngine::step_unit`],
//!   [`ExecutionEngine::run_until`]) with a uniform stop/fault shape,
//! * cycle/retirement counters ([`EngineStats`]) for throughput tables,
//! * architectural inspection (program counter, a flat register file
//!   index space, memory reads) for debuggers and differential tests.
//!
//! Engines in this workspace come in two dispatch flavours (see
//! `cabt-tricore`/`cabt-vliw`): a retained naive interpreter that
//! re-fetches through an address map on every step (the seed
//! implementation, kept as the reference for differential testing),
//! and the *compiled* engine — the paper's compiled-simulation thesis.
//! It decodes the whole image once at load into a dense pre-decoded
//! table indexed by position, compiles each table entry into a
//! specialized closure; the golden model's, while its warm-up window is
//! open, also fuses hot chains of basic blocks into traces ([`trace`]).
//! The basic-block discovery the golden model, the translator's CFG and
//! the analyzer share lives in [`blocks`]: one index-based partition
//! algorithm producing leaders, block spans and fall-through/taken
//! block edges.

pub mod analyze;
pub mod blocks;
pub mod pool;
pub mod trace;

use cabt_isa::codec::{ByteReader, CodecError};
use std::fmt;

/// Why a bounded run returned without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The program reached its halt instruction.
    Halted,
    /// The budget given to [`ExecutionEngine::run_until`] was exhausted.
    LimitReached,
}

/// Budget for [`ExecutionEngine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// Stop once the engine's cycle counter reaches this value.
    Cycles(u64),
    /// Stop once this many units (instructions or packets) have retired.
    Retirements(u64),
}

impl Limit {
    /// True once an engine at `cycles` clock cycles with `retired` units
    /// retired has used up this budget: [`run_until_with`]'s check
    /// before each dispatch, for run loops that keep both counters in
    /// locals (the compiled cores').
    #[inline]
    pub fn exhausted(self, cycles: u64, retired: u64) -> bool {
        match self {
            Limit::Cycles(c) => cycles >= c,
            Limit::Retirements(r) => retired >= r,
        }
    }
}

/// Uniform counters every engine exposes, in engine-native units
/// (source cycles/instructions for interpreters of source code, target
/// cycles/packets for the VLIW core).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Clock cycles consumed.
    pub cycles: u64,
    /// Units retired (instructions or execute packets).
    pub retired: u64,
    /// Cycles spent stalled (device waits, cache misses — engine
    /// defined; 0 where the engine does not track stalls separately).
    pub stall_cycles: u64,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles / {} retired ({} stalled)",
            self.cycles, self.retired, self.stall_cycles
        )
    }
}

/// A simulator core that generic drivers (platform, debugger, bench
/// harnesses) can reset, step, run and inspect.
///
/// Registers are exposed through a flat index space; what an index
/// means is engine-defined and documented by the implementation (the
/// golden model maps `0..16` to `D0..D15` and `16..32` to `A0..A15`;
/// the VLIW engine exposes its 64 physical registers, with source
/// registers at the homes assigned by register binding). Drivers that
/// need *named* source registers resolve names to indices themselves.
pub trait ExecutionEngine {
    /// Fault type raised by stepping.
    type Error: std::error::Error + 'static;

    /// Appends the engine's state image to `out`: its *mutable* state
    /// (registers, memory, counters, pending pipeline state) in the
    /// layout `docs/snapshot-format.md` documents. Immutable load-time
    /// artifacts (pre-decoded tables, elaborated processes) are not in
    /// it; [`ExecutionEngine::load_state`] finds them in the engine it
    /// restores.
    ///
    /// Scope matches [`ExecutionEngine::reset`]: the image covers the
    /// *engine*. Attached devices (bus hooks, memory-mapped
    /// peripherals) are owned by whoever attached them and are not
    /// saved; runs whose engine trajectory depends on device state
    /// (e.g. stalling synchronization reads) are only reproducible from
    /// an image if the devices are restored by their owner too.
    fn save_state(&self, out: &mut Vec<u8>);

    /// Decodes an image written by [`ExecutionEngine::save_state`],
    /// checks it against this engine (tables and indices of the
    /// program it was built from) and restores it. Replaying from a
    /// restored image is bit-identical to the run that saved it.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for truncated or corrupt bytes, or state that
    /// does not fit this engine. A refused image leaves the engine as it
    /// was: a core decodes and checks the whole image before it changes
    /// anything, and a `cabt_sim::Session` loads its own image back.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;

    /// Returns architectural state (registers, program counter, cycle
    /// and stat counters, pending pipeline state) to the
    /// post-load/reset state, and restores memory to the engine's
    /// load-time image — so reset-then-rerun is reproducible even for
    /// programs that mutate their data sections. The RTL core does so
    /// by putting back the state it saved right after elaboration.
    ///
    /// Scope: reset covers the *engine*. Attached devices (bus hooks,
    /// memory-mapped peripherals) are owned by whoever attached them
    /// and keep their state; a driver that needs a fully fresh system
    /// — e.g. a platform whose synchronization device has generated
    /// cycles — resets that harness too (the platform crate's
    /// `Platform::reset`).
    fn reset(&mut self);

    /// Dispatches one engine-native unit: one instruction on an
    /// instruction interpreter, one execute packet on the VLIW core.
    ///
    /// On a halted engine it dispatches nothing and returns `Ok`, as
    /// [`ExecutionEngine::run_until`] reports the halt without
    /// dispatching: stepping past a halt leaves the engine, its counters
    /// and its devices as the halt left them.
    ///
    /// # Errors
    ///
    /// Engine-specific faults (invalid program counter, memory faults).
    fn step_unit(&mut self) -> Result<(), Self::Error>;

    /// Runs until halt or until `limit` is exhausted, whichever comes
    /// first. Before each dispatch the halt is checked, then the budget,
    /// uniformly across every engine: a halted engine reports
    /// [`StopCause::Halted`] whatever its budget, and a live engine
    /// whose budget is spent (a zero budget, or a limit already met at
    /// entry) reports [`StopCause::LimitReached`]; neither dispatches
    /// anything. A program that halts exactly as its budget runs out has
    /// completed. A `Retirements` budget is exact, while a `Cycles`
    /// budget may be overshot by the last dispatched unit (units cost
    /// several cycles on most engines) — `LimitReached` means the engine
    /// is at or just past the boundary, never more than one unit beyond
    /// it.
    ///
    /// Whenever this or [`ExecutionEngine::step_unit`] returns with the
    /// engine halted, its architectural state is committed: the engine
    /// commits in the unit that halts it.
    ///
    /// # Errors
    ///
    /// Propagates faults from stepping.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, Self::Error> {
        run_until_with(self, limit, Self::step_unit)
    }

    /// Clock cycles consumed so far.
    fn cycle(&self) -> u64;

    /// True once the program executed its halt instruction.
    fn is_halted(&self) -> bool;

    /// Address of the next unit to dispatch, if it is known and inside
    /// the program (`None` once execution left the image).
    fn pc(&self) -> Option<u32>;

    /// Makes all retired results architecturally visible (e.g. commits
    /// delayed write-backs) on a live engine, for a driver that stops
    /// one mid-run to inspect it (a debugger at a breakpoint). A halted
    /// engine has committed already. A no-op for engines without delayed
    /// state.
    fn commit_arch_state(&mut self) {}

    /// Size of the flat register index space.
    fn reg_count(&self) -> usize;

    /// Reads register `index` of the flat space.
    ///
    /// # Panics
    ///
    /// May panic if `index >= reg_count()`.
    fn read_reg_index(&self, index: usize) -> u32;

    /// Writes register `index` of the flat space.
    ///
    /// # Panics
    ///
    /// May panic if `index >= reg_count()`.
    fn write_reg_index(&mut self, index: usize, value: u32);

    /// Reads `len` bytes of engine memory at `addr`.
    ///
    /// # Errors
    ///
    /// Engine memory faults.
    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, Self::Error>;

    /// Uniform counters.
    fn engine_stats(&self) -> EngineStats;
}

/// The loop behind [`ExecutionEngine::run_until`], with the dispatch
/// of one unit supplied by the caller: the halt check, then the budget
/// check, then `step`, which commits the engine's state when it halts
/// it. The naive cores dispatch through this; the compiled cores run
/// their own loop that makes the same two checks at the same unit
/// boundaries, so every engine keeps the one stop rule.
///
/// # Errors
///
/// Propagates faults from `step`.
pub fn run_until_with<E: ExecutionEngine + ?Sized>(
    engine: &mut E,
    limit: Limit,
    mut step: impl FnMut(&mut E) -> Result<(), E::Error>,
) -> Result<StopCause, E::Error> {
    loop {
        if engine.is_halted() {
            return Ok(StopCause::Halted);
        }
        let exhausted = match limit {
            Limit::Cycles(c) => engine.cycle() >= c,
            Limit::Retirements(r) => engine.engine_stats().retired >= r,
        };
        if exhausted {
            return Ok(StopCause::LimitReached);
        }
        step(engine)?;
    }
}

/// Seed-reproducible rolling hash of execution effects — the 8-byte
/// *execution fingerprint* the long randomized differential suites
/// compare instead of full state dumps (one full-state check stays as
/// the anchor; every other comparison shrinks to a digest that still
/// pins every mixed-in observable).
///
/// FNV-1a over the mixed words, with each value serialized
/// little-endian: dependency-free, byte-order stable across hosts, and
/// order-sensitive (mixing the same values in a different order yields
/// a different digest — register files are positional).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The FNV-1a 64-bit offset basis.
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes one 32-bit word.
    pub fn mix_u32(&mut self, v: u32) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// Mixes one 64-bit word.
    pub fn mix_u64(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// Digest of an engine's architecturally visible trajectory: counters,
/// the full flat register file, the program counter and the halt flag.
/// Memory is not walked here (engines read it mutably and tests care
/// about specific windows) — mix the windows of interest with
/// [`Fingerprint::mix_bytes`] on top of this digest's parts if needed.
pub fn fingerprint_engine<E: ExecutionEngine>(engine: &E) -> u64 {
    let mut fp = Fingerprint::new();
    let s = engine.engine_stats();
    fp.mix_u64(s.cycles);
    fp.mix_u64(s.retired);
    fp.mix_u64(s.stall_cycles);
    for i in 0..engine.reg_count() {
        fp.mix_u32(engine.read_reg_index(i));
    }
    fp.mix_u32(engine.pc().unwrap_or(u32::MAX));
    fp.mix_u64(u64::from(engine.is_halted()));
    fp.digest()
}

/// An ordered list of [`fingerprint_engine`] digests recorded at
/// comparison boundaries — the unit a differential harness compares
/// instead of full state dumps.
///
/// Two engines driven through the *same* boundary sequence (same epoch
/// stride, same run-call pattern) produce element-wise equal chains iff
/// their architecturally visible trajectories agree at every boundary;
/// [`DigestChain::first_divergence`] then localizes a mismatch to the
/// first diverging boundary, which is what the fuzz loop's shrinker
/// and the regression tests pin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestChain {
    entries: Vec<u64>,
}

impl DigestChain {
    /// An empty chain.
    pub fn new() -> DigestChain {
        DigestChain::default()
    }

    /// Records the engine's current [`fingerprint_engine`] digest as
    /// the next boundary entry and returns it.
    pub fn record<E: ExecutionEngine>(&mut self, engine: &E) -> u64 {
        let d = fingerprint_engine(engine);
        self.entries.push(d);
        d
    }

    /// Number of recorded boundaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no boundary has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the first boundary where the chains disagree: the
    /// first element-wise mismatch, or — when one chain is a strict
    /// prefix of the other — the first index only one of them has.
    /// `None` iff the chains are identical.
    pub fn first_divergence(&self, other: &DigestChain) -> Option<usize> {
        let common = self.entries.len().min(other.entries.len());
        for i in 0..common {
            if self.entries[i] != other.entries[i] {
                return Some(i);
            }
        }
        (self.entries.len() != other.entries.len()).then_some(common)
    }
}

/// The scheduling frontier of a shard set: the cycle count of the
/// least-advanced non-halted shard, or the maximum cycle count when all
/// shards have halted, paired with whether they all have. Rounds are
/// planned against it, and a sharded session reports it as its
/// [`ExecutionEngine::cycle`].
pub fn shard_frontier<E: ExecutionEngine>(shards: &[E]) -> (u64, bool) {
    frontier(shards.iter().map(|s| (s.cycle(), s.is_halted())))
}

/// [`shard_frontier`] over `(cycle, halted)` pairs.
fn frontier(clocks: impl Iterator<Item = (u64, bool)>) -> (u64, bool) {
    let mut max_all = 0u64;
    let mut min_live: Option<u64> = None;
    for (c, halted) in clocks {
        max_all = max_all.max(c);
        if !halted {
            min_live = Some(min_live.map_or(c, |m| m.min(c)));
        }
    }
    (min_live.unwrap_or(max_all), min_live.is_none())
}

/// A shard set's armed epoch barrier, and the one barrier rule of
/// [`run_epochs_sharded`], [`pool::spawn_epochs_pooled`] and
/// [`step_epochs_sharded`]: a round runs the live shards up to
/// `min(next, budget deadline)`; the barrier fires exactly when every
/// shard has halted or reached `next`, then re-arms one epoch past the
/// frontier. A budget-cut round fires none, so a set run in chunks,
/// stepped, or parked and resumed exchanges where one straight run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochBarrier {
    /// The frontier cycle at which the next barrier fires.
    pub next: u64,
    /// Target cycles per epoch, at least one.
    epoch: u64,
}

impl EpochBarrier {
    /// A barrier armed one `epoch` (at least one cycle) past `frontier`.
    pub fn new(frontier: u64, epoch: u64) -> EpochBarrier {
        let epoch = epoch.max(1);
        EpochBarrier {
            next: frontier.saturating_add(epoch),
            epoch,
        }
    }

    /// Target cycles per epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fires and re-arms the barrier if `shards` complete the round;
    /// returns whether it fired.
    fn close<'a, E: ExecutionEngine + 'a>(&mut self, shards: impl Iterator<Item = &'a E>) -> bool {
        let (frontier, all_halted) = frontier(shards.map(|s| (s.cycle(), s.is_halted())));
        let complete = all_halted || frontier >= self.next;
        if complete {
            self.next = frontier.saturating_add(self.epoch);
        }
        complete
    }
}

/// What the round planner reads of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardState {
    /// The shard's clock ([`ExecutionEngine::cycle`]).
    pub cycle: u64,
    /// Whether the shard has halted.
    pub halted: bool,
    /// Units the shard has retired.
    pub retired: u64,
}

impl ShardState {
    /// The planner's view of `shard`.
    pub fn of<E: ExecutionEngine>(shard: &E) -> ShardState {
        ShardState {
            cycle: shard.cycle(),
            halted: shard.is_halted(),
            retired: shard.engine_stats().retired,
        }
    }
}

/// What the epoch planner decided for the next round, under
/// [`ExecutionEngine::run_until`]'s rule: the halt is checked before the
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPlan {
    /// Some shard is live and the budget is exhausted: stop with
    /// [`StopCause::LimitReached`].
    LimitReached,
    /// Every shard halted, whatever the budget: stop with
    /// [`StopCause::Halted`]. Each shard committed its architectural
    /// state when it halted.
    Halted,
    /// Run every live shard below `deadline` up to it, then close the
    /// barrier and plan again.
    Round {
        /// The cycle deadline of this round.
        deadline: u64,
    },
}

/// Plans one round against a *cycle* budget from a shard set's
/// frontier. `frontier` and `all_halted` come from [`shard_frontier`];
/// the deadline is `frontier + epoch`, clamped to the budget; `epoch`
/// is clamped to at least one cycle.
pub fn plan_epoch_round(frontier: u64, all_halted: bool, max_cycles: u64, epoch: u64) -> EpochPlan {
    if all_halted {
        return EpochPlan::Halted;
    }
    if frontier >= max_cycles {
        return EpochPlan::LimitReached;
    }
    let deadline = frontier.saturating_add(epoch.max(1)).min(max_cycles);
    EpochPlan::Round { deadline }
}

/// Plans the next round of a shard set against `limit`, the one
/// decision both executors make. A set whose shards have all halted (an
/// empty set too) is halted whatever the budget. Otherwise a
/// [`Limit::Cycles`] budget binds the frontier ([`plan_epoch_round`]),
/// and a [`Limit::Retirements`] budget binds the retirements summed
/// over the shards; its rounds split the remaining budget evenly across
/// the shards as cycle room, clamped to one epoch and to at least one
/// cycle, so (a shard retiring at most one unit per cycle) the
/// aggregate overshoots by fewer than the shard count. Either deadline
/// is clamped to the armed barrier.
pub(crate) fn plan_shard_round(
    shards: &[ShardState],
    limit: Limit,
    barrier: &EpochBarrier,
) -> EpochPlan {
    let (frontier, all_halted) = frontier(shards.iter().map(|s| (s.cycle, s.halted)));
    if all_halted {
        return EpochPlan::Halted;
    }
    let plan = match limit {
        Limit::Cycles(max_cycles) => plan_epoch_round(frontier, false, max_cycles, barrier.epoch),
        Limit::Retirements(budget) => {
            let retired: u64 = shards.iter().map(|s| s.retired).sum();
            if retired >= budget {
                EpochPlan::LimitReached
            } else {
                let room = ((budget - retired) / shards.len() as u64).clamp(1, barrier.epoch);
                EpochPlan::Round {
                    deadline: frontier.saturating_add(room),
                }
            }
        }
    };
    match plan {
        EpochPlan::Round { deadline } => EpochPlan::Round {
            deadline: deadline.min(barrier.next),
        },
        plan => plan,
    }
}

/// Advances one shard to an epoch-round deadline, the per-shard body of
/// both executors; halted shards and shards at the deadline are
/// skipped. A shard that halts in the round has committed its state.
///
/// `_commit_boundary_halts` has no effect: it is kept only so the
/// benchmark's fleet driver (`perfbench/src/fleet.rs`) builds unchanged.
///
/// # Errors
///
/// Propagates the shard's fault.
pub fn run_shard_to_deadline<E: ExecutionEngine>(
    shard: &mut E,
    deadline: u64,
    _commit_boundary_halts: bool,
) -> Result<(), E::Error> {
    if shard.is_halted() || shard.cycle() >= deadline {
        return Ok(());
    }
    shard.run_until(Limit::Cycles(deadline))?;
    Ok(())
}

/// The *inline* executor of the epoch-round engine: runs rounds over
/// `shards` on the calling thread until every shard halts or `limit`
/// is exhausted. Each round advances the shards below its deadline in
/// shard order ([`run_shard_to_deadline`]), then closes `barrier`,
/// calling `on_epoch`, where harnesses exchange shared device state,
/// when it fires. Shards thus see each other's traffic one epoch late
/// on every run, and whenever they share no mutable state inside an
/// epoch the pool executor ([`pool::spawn_epochs_pooled`]) matches
/// this one bit for bit.
///
/// Stops as [`ExecutionEngine::run_until`] does: the halt is checked
/// before the budget, `Halted` means every shard halted (each committed
/// its state as it did), and a spent budget dispatches nothing. An
/// empty set is `Halted` at once.
///
/// # Errors
///
/// The fault of the lowest-numbered faulting shard, after every other
/// shard of the round has run to its deadline; the round closes no
/// barrier.
pub fn run_epochs_sharded<E: ExecutionEngine>(
    shards: &mut [E],
    limit: Limit,
    barrier: &mut EpochBarrier,
    mut on_epoch: impl FnMut(&mut [E]),
) -> Result<StopCause, E::Error> {
    let mut states = Vec::with_capacity(shards.len());
    loop {
        states.clear();
        states.extend(shards.iter().map(ShardState::of));
        match plan_shard_round(&states, limit, barrier) {
            EpochPlan::LimitReached => return Ok(StopCause::LimitReached),
            EpochPlan::Halted => return Ok(StopCause::Halted),
            EpochPlan::Round { deadline } => {
                let mut fault = None;
                for s in shards.iter_mut() {
                    if let Err(e) = run_shard_to_deadline(s, deadline, true) {
                        fault.get_or_insert(e);
                    }
                }
                if let Some(e) = fault {
                    return Err(e);
                }
                if barrier.close(shards.iter()) {
                    on_epoch(shards);
                }
            }
        }
    }
}

/// The least-advanced live shard, ties to the lowest index.
pub fn next_shard<E: ExecutionEngine>(shards: &[E]) -> Option<usize> {
    (0..shards.len())
        .filter(|&i| !shards[i].is_halted())
        .min_by_key(|&i| shards[i].cycle())
}

/// The single-step driver of a shard set: one unit on the
/// [`next_shard`], if any, then the barrier closes as after a round. A
/// set stepped to its halt matches one run to halt.
///
/// # Errors
///
/// Propagates the stepped shard's fault; the barrier is not closed.
pub fn step_epochs_sharded<E: ExecutionEngine>(
    shards: &mut [E],
    barrier: &mut EpochBarrier,
    on_epoch: impl FnOnce(&mut [E]),
) -> Result<(), E::Error> {
    let Some(shard) = next_shard(shards).map(|i| &mut shards[i]) else {
        return Ok(());
    };
    shard.step_unit()?;
    if barrier.close(shards.iter()) {
        on_epoch(shards);
    }
    Ok(())
}

/// Aggregate counters of a shard set: `retired` and `stall_cycles` sum
/// across shards (total work done), `cycles` is the maximum shard clock
/// (the machine has run for as long as its longest-running core).
pub fn aggregate_stats<E: ExecutionEngine>(shards: &[E]) -> EngineStats {
    shards.iter().fold(EngineStats::default(), |acc, s| {
        let st = s.engine_stats();
        EngineStats {
            cycles: acc.cycles.max(st.cycles),
            retired: acc.retired + st.retired,
            stall_cycles: acc.stall_cycles + st.stall_cycles,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_isa::codec::ByteWriter;

    /// A toy engine: each unit costs 3 cycles, halts after 5 units.
    struct Toy {
        cycles: u64,
        units: u64,
        regs: [u32; 4],
    }

    #[derive(Debug, PartialEq)]
    struct NoFault;
    impl fmt::Display for NoFault {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "no fault")
        }
    }
    impl std::error::Error for NoFault {}

    impl ExecutionEngine for Toy {
        type Error = NoFault;
        fn save_state(&self, out: &mut Vec<u8>) {
            let mut w = ByteWriter::new(out);
            w.u64(self.cycles);
            w.u64(self.units);
            for &v in &self.regs {
                w.u32(v);
            }
        }
        fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
            let (cycles, units) = (r.u64()?, r.u64()?);
            let mut regs = [0; 4];
            for v in &mut regs {
                *v = r.u32()?;
            }
            (self.cycles, self.units, self.regs) = (cycles, units, regs);
            Ok(())
        }
        fn reset(&mut self) {
            self.cycles = 0;
            self.units = 0;
            self.regs = [0; 4];
        }
        fn step_unit(&mut self) -> Result<(), NoFault> {
            self.cycles += 3;
            self.units += 1;
            self.regs[0] = self.units as u32;
            Ok(())
        }
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn is_halted(&self) -> bool {
            self.units >= 5
        }
        fn pc(&self) -> Option<u32> {
            (!self.is_halted()).then_some(self.units as u32 * 4)
        }
        fn reg_count(&self) -> usize {
            4
        }
        fn read_reg_index(&self, index: usize) -> u32 {
            self.regs[index]
        }
        fn write_reg_index(&mut self, index: usize, value: u32) {
            self.regs[index] = value;
        }
        fn read_mem(&mut self, _addr: u32, len: usize) -> Result<Vec<u8>, NoFault> {
            Ok(vec![0; len])
        }
        fn engine_stats(&self) -> EngineStats {
            EngineStats {
                cycles: self.cycles,
                retired: self.units,
                stall_cycles: 0,
            }
        }
    }

    fn toy() -> Toy {
        Toy {
            cycles: 0,
            units: 0,
            regs: [0; 4],
        }
    }

    #[test]
    fn fingerprints_are_reproducible_and_state_sensitive() {
        let mut a = toy();
        let mut b = toy();
        a.run_until(Limit::Retirements(3)).unwrap();
        b.run_until(Limit::Retirements(3)).unwrap();
        assert_eq!(fingerprint_engine(&a), fingerprint_engine(&b));

        // One more retirement, one register poke, each move the digest.
        b.step_unit().unwrap();
        assert_ne!(fingerprint_engine(&a), fingerprint_engine(&b));
        let base = fingerprint_engine(&a);
        a.write_reg_index(3, 1);
        assert_ne!(fingerprint_engine(&a), base);

        // Mixing is order-sensitive (positional register files).
        let mut x = Fingerprint::new();
        x.mix_u32(1);
        x.mix_u32(2);
        let mut y = Fingerprint::new();
        y.mix_u32(2);
        y.mix_u32(1);
        assert_ne!(x.digest(), y.digest());
    }

    #[test]
    fn run_until_halts_or_limits() {
        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(1_000)), Ok(StopCause::Halted));
        assert_eq!(t.cycle(), 15);

        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(7)), Ok(StopCause::LimitReached));
        assert_eq!(
            t.engine_stats().retired,
            3,
            "budget checked before dispatch"
        );

        let mut t = toy();
        assert_eq!(
            t.run_until(Limit::Retirements(2)),
            Ok(StopCause::LimitReached)
        );
        assert_eq!(t.engine_stats().retired, 2);
    }

    #[test]
    fn zero_budget_and_met_limits_never_step() {
        // Fresh engine, zero budget: LimitReached, nothing dispatched.
        let mut t = toy();
        assert_eq!(t.run_until(Limit::Cycles(0)), Ok(StopCause::LimitReached));
        assert_eq!(t.engine_stats().retired, 0);
        assert_eq!(
            t.run_until(Limit::Retirements(0)),
            Ok(StopCause::LimitReached)
        );
        assert_eq!(t.engine_stats().retired, 0);

        // Limit already met at entry: LimitReached without stepping.
        t.run_until(Limit::Retirements(2)).unwrap();
        let before = t.engine_stats();
        assert_eq!(t.run_until(Limit::Cycles(3)), Ok(StopCause::LimitReached));
        assert_eq!(t.engine_stats(), before);

        // The halt check precedes the budget check: a halted engine
        // reports the halt under a spent budget, and steps nothing.
        let mut t = toy();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert!(t.is_halted());
        let done = t.engine_stats();
        assert_eq!(t.run_until(Limit::Cycles(0)), Ok(StopCause::Halted));
        assert_eq!(t.run_until(Limit::Retirements(0)), Ok(StopCause::Halted));
        assert_eq!(t.engine_stats(), done);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut t = toy();
        t.run_until(Limit::Retirements(2)).unwrap();
        let mut snap = Vec::new();
        t.save_state(&mut snap);
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let end = t.engine_stats();
        t.load_state(&mut ByteReader::new(&snap)).unwrap();
        assert_eq!(t.engine_stats().retired, 2);
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert_eq!(t.engine_stats(), end, "replay from snapshot is identical");
    }

    #[test]
    fn reset_restores_counters() {
        let mut t = toy();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        t.reset();
        assert_eq!(t.cycle(), 0);
        assert!(!t.is_halted());
    }

    /// A toy shard: units cost `cost` cycles each, halts after `halt_units`.
    fn shard(cost: u64, halt_units: u64) -> Toy {
        Toy {
            cycles: 0,
            units: 0,
            regs: [cost as u32, halt_units as u32, 0, 0],
        }
    }

    // Reinterpret Toy for shard tests: regs[0]=cost is unused by Toy's
    // fixed 3-cycle step, so just use differently sized halt points via
    // a wrapper engine.
    struct ScaledToy {
        inner: Toy,
        cost: u64,
        halt_units: u64,
    }

    impl ExecutionEngine for ScaledToy {
        type Error = NoFault;
        fn save_state(&self, out: &mut Vec<u8>) {
            self.inner.save_state(out);
        }
        fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
            self.inner.load_state(r)
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn step_unit(&mut self) -> Result<(), NoFault> {
            self.inner.units += 1;
            self.inner.cycles += self.cost;
            Ok(())
        }
        fn cycle(&self) -> u64 {
            self.inner.cycles
        }
        fn is_halted(&self) -> bool {
            self.inner.units >= self.halt_units
        }
        fn pc(&self) -> Option<u32> {
            None
        }
        fn reg_count(&self) -> usize {
            4
        }
        fn read_reg_index(&self, i: usize) -> u32 {
            self.inner.regs[i]
        }
        fn write_reg_index(&mut self, i: usize, v: u32) {
            self.inner.regs[i] = v;
        }
        fn read_mem(&mut self, _a: u32, len: usize) -> Result<Vec<u8>, NoFault> {
            Ok(vec![0; len])
        }
        fn engine_stats(&self) -> EngineStats {
            EngineStats {
                cycles: self.inner.cycles,
                retired: self.inner.units,
                stall_cycles: 0,
            }
        }
    }

    fn scaled(cost: u64, halt_units: u64) -> ScaledToy {
        ScaledToy {
            inner: shard(cost, halt_units),
            cost,
            halt_units,
        }
    }

    #[test]
    fn sharded_driver_halts_when_all_shards_halt() {
        // Unequal speeds: the slow shard defines the frontier.
        let mut shards = vec![scaled(2, 10), scaled(7, 4)];
        let mut boundaries = 0;
        let r = run_epochs_sharded(
            &mut shards,
            Limit::Cycles(u64::MAX),
            &mut EpochBarrier::new(0, 8),
            |_| boundaries += 1,
        );
        assert_eq!(r, Ok(StopCause::Halted));
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        assert!(boundaries >= 2, "multiple epoch rounds: {boundaries}");
        let agg = aggregate_stats(&shards);
        assert_eq!(agg.retired, 14);
        assert_eq!(agg.cycles, 28, "max shard clock (7 * 4)");
    }

    #[test]
    fn sharded_driver_halt_precedes_budget_and_is_frontier_based() {
        // A fully halted set reports Halted under any budget, zero
        // included, without dispatching.
        let mut shards = vec![scaled(1, 0), scaled(1, 0)];
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        for limit in [Limit::Cycles(0), Limit::Retirements(0), Limit::Cycles(100)] {
            let r = run_epochs_sharded(&mut shards, limit, &mut EpochBarrier::new(0, 4), |_| {});
            assert_eq!(r, Ok(StopCause::Halted), "{limit:?}");
        }
        assert_eq!(aggregate_stats(&shards).retired, 0);
        // A live set under a zero budget dispatches nothing.
        let mut shards = vec![scaled(1, 3), scaled(1, 0)];
        let r = run_epochs_sharded(
            &mut shards,
            Limit::Cycles(0),
            &mut EpochBarrier::new(0, 4),
            |_| {},
        );
        assert_eq!(r, Ok(StopCause::LimitReached));
        assert_eq!(aggregate_stats(&shards).retired, 0);

        // The budget binds the *frontier*: the slowest live shard.
        let mut shards = vec![scaled(1, 1000), scaled(10, 1000)];
        let r = run_epochs_sharded(
            &mut shards,
            Limit::Cycles(50),
            &mut EpochBarrier::new(0, 5),
            |_| {},
        );
        assert_eq!(r, Ok(StopCause::LimitReached));
        let (frontier, all_halted) = shard_frontier(&shards);
        assert!(!all_halted);
        assert!(frontier >= 50, "frontier reached the budget: {frontier}");
        // Lockstep: nobody ran more than one epoch past the frontier.
        for s in &shards {
            assert!(
                s.cycle() < 50 + 5 + 10,
                "shard ran ahead of the epoch window: {}",
                s.cycle()
            );
        }
    }

    #[test]
    fn sharded_driver_is_deterministic() {
        let run = || {
            let mut shards = vec![scaled(3, 40), scaled(5, 25), scaled(2, 60)];
            run_epochs_sharded(
                &mut shards,
                Limit::Cycles(u64::MAX),
                &mut EpochBarrier::new(0, 16),
                |_| {},
            )
            .unwrap();
            shards
                .iter()
                .map(super::ExecutionEngine::engine_stats)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_shard_set_is_trivially_halted() {
        let mut shards: Vec<Toy> = Vec::new();
        assert_eq!(
            run_epochs_sharded(
                &mut shards,
                Limit::Cycles(100),
                &mut EpochBarrier::new(0, 4),
                |_| {}
            ),
            Ok(StopCause::Halted)
        );
    }

    #[test]
    fn stats_display() {
        let s = EngineStats {
            cycles: 10,
            retired: 4,
            stall_cycles: 1,
        };
        assert_eq!(s.to_string(), "10 cycles / 4 retired (1 stalled)");
    }

    /// Drives a toy to halt recording one chain entry per retirement.
    fn toy_chain(t: &mut Toy) -> DigestChain {
        let mut chain = DigestChain::new();
        chain.record(t);
        while !t.is_halted() {
            t.step_unit().unwrap();
            chain.record(t);
        }
        chain
    }

    #[test]
    fn identical_runs_produce_identical_chains() {
        let mut a = toy();
        let mut b = toy();
        let ca = toy_chain(&mut a);
        let cb = toy_chain(&mut b);
        assert_eq!(ca, cb);
        assert_eq!(ca.first_divergence(&cb), None);
        assert_eq!(ca.len(), 6, "entry boundary plus five retirements");
        assert!(!ca.is_empty());
    }

    #[test]
    fn register_flip_at_epoch_k_diverges_at_k_and_never_earlier() {
        // Boundary k is recorded after k retirements; flip a register
        // in engine `b` right before that boundary's record call.
        for k in 1..=5usize {
            let mut a = toy();
            let mut b = toy();
            let mut ca = DigestChain::new();
            let mut cb = DigestChain::new();
            ca.record(&a);
            cb.record(&b);
            for step in 1..=5usize {
                a.step_unit().unwrap();
                b.step_unit().unwrap();
                if step == k {
                    b.write_reg_index(3, b.read_reg_index(3) ^ 1);
                }
                ca.record(&a);
                cb.record(&b);
            }
            assert_eq!(
                ca.first_divergence(&cb),
                Some(k),
                "flip at epoch {k} must surface at boundary {k}, never earlier"
            );
            assert_eq!(cb.first_divergence(&ca), Some(k), "divergence is symmetric");
            assert_ne!(ca, cb);
        }
    }

    #[test]
    fn prefix_chains_diverge_at_the_shorter_length() {
        let mut a = toy();
        let mut b = toy();
        let ca = toy_chain(&mut a);
        let mut cb = DigestChain::new();
        cb.record(&b);
        for _ in 0..3 {
            b.step_unit().unwrap();
            cb.record(&b);
        }
        // `cb` is a strict prefix of `ca`: first index only one has.
        assert_eq!(ca.first_divergence(&cb), Some(4));
        assert_eq!(cb.first_divergence(&ca), Some(4));
    }
}
