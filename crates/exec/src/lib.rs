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

    /// Resumable image of the engine's *mutable* state: registers,
    /// memory, counters, pending pipeline state. Immutable load-time
    /// artifacts (pre-decoded tables, elaborated processes) are shared
    /// by reference or rebuilt identically, so a snapshot is cheap
    /// relative to reconstruction.
    type Snapshot: Clone;

    /// Captures the engine's current mutable state.
    ///
    /// Scope matches [`ExecutionEngine::reset`]: the snapshot covers
    /// the *engine*. Attached devices (bus hooks, memory-mapped
    /// peripherals) are owned by whoever attached them and are not
    /// captured; runs whose engine trajectory depends on device state
    /// (e.g. stalling synchronization reads) are only reproducible
    /// from a snapshot if the devices are restored by their owner too.
    fn snapshot(&self) -> Self::Snapshot;

    /// Restores state captured by [`ExecutionEngine::snapshot`] on
    /// *this* engine (or one built from the same image). Restoring a
    /// snapshot from a different program is not detected and yields
    /// unspecified (but memory-safe) behaviour.
    fn restore(&mut self, snapshot: &Self::Snapshot);

    /// Returns architectural state (registers, program counter, cycle
    /// and stat counters, pending pipeline state) to the
    /// post-load/reset state, and restores memory to the engine's
    /// load-time image — so reset-then-rerun is reproducible even for
    /// programs that mutate their data sections. Engines without a
    /// bespoke reset path implement this by restoring a
    /// [`ExecutionEngine::snapshot`] captured at construction (the RTL
    /// core does).
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
    /// # Errors
    ///
    /// Engine-specific faults (invalid program counter, memory faults).
    fn step_unit(&mut self) -> Result<(), Self::Error>;

    /// Runs until halt or until `limit` is exhausted, whichever comes
    /// first. The budget check happens *before* each dispatch and
    /// *before* the halt check, uniformly across every engine: a zero
    /// budget, or a limit already met at entry, returns
    /// [`StopCause::LimitReached`] without dispatching anything — even
    /// on an engine that is already halted. A `Retirements` budget is
    /// exact, while a `Cycles` budget may be overshot by the last
    /// dispatched unit (units cost several cycles on most engines) —
    /// `LimitReached` means the engine is at or just past the boundary,
    /// never more than one unit beyond it.
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
    /// delayed write-backs). A no-op for engines without delayed state.
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
/// of one unit supplied by the caller: the budget check, then the halt
/// check (committing architectural state), then `step`. The naive
/// cores dispatch through this; the compiled cores run their own loop
/// that makes the same two checks at the same unit boundaries, so every
/// engine keeps the one stop rule.
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
        let exhausted = match limit {
            Limit::Cycles(c) => engine.cycle() >= c,
            Limit::Retirements(r) => engine.engine_stats().retired >= r,
        };
        if exhausted {
            return Ok(StopCause::LimitReached);
        }
        if engine.is_halted() {
            engine.commit_arch_state();
            return Ok(StopCause::Halted);
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

    /// Appends a precomputed digest (e.g. one augmented with memory
    /// windows on top of [`fingerprint_engine`]).
    pub fn push(&mut self, digest: u64) {
        self.entries.push(digest);
    }

    /// Number of recorded boundaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no boundary has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded per-boundary digests, in order.
    pub fn entries(&self) -> &[u64] {
        &self.entries
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
/// least-advanced non-halted shard (every shard has completed at least
/// this many cycles), or the maximum cycle count when all shards have
/// halted. Paired with whether the whole set has halted. This is the
/// clock epoch rounds are planned against, and what a sharded session
/// reports as its own [`ExecutionEngine::cycle`].
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

/// What the round planner reads of one shard. Executors collect one
/// per shard before every round — from a slice of engines or from the
/// mutex slots a worker pool shares — and hand them to
/// `plan_shard_round`.
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

    /// Whether a round with this deadline advances the shard at all
    /// (the check [`run_shard_to_deadline`] makes first).
    pub fn runs_before(&self, deadline: u64) -> bool {
        !self.halted && self.cycle < deadline
    }
}

/// What the epoch planner decided for the next round. One plan per
/// barrier: collect the shards' `ShardState`s, call
/// `plan_shard_round`, act on the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPlan {
    /// The budget is exhausted: stop with [`StopCause::LimitReached`].
    /// Checked *before* the halt state, mirroring
    /// [`ExecutionEngine::run_until`]'s budget-first rule.
    LimitReached,
    /// Every shard halted: commit architectural state on all shards and
    /// stop with [`StopCause::Halted`].
    Halted,
    /// Run every live shard below `deadline` up to it, then exchange
    /// shared state at the barrier and plan again.
    Round {
        /// The cycle deadline of this round.
        deadline: u64,
    },
}

/// Plans one round against a *cycle* budget from a shard set's
/// frontier: the cycle half of `plan_shard_round`. `frontier` and
/// `all_halted` come from [`shard_frontier`]; the deadline is
/// `frontier + epoch`, clamped to the budget; `epoch` is clamped to at
/// least one cycle.
pub fn plan_epoch_round(frontier: u64, all_halted: bool, max_cycles: u64, epoch: u64) -> EpochPlan {
    if frontier >= max_cycles {
        return EpochPlan::LimitReached;
    }
    if all_halted {
        return EpochPlan::Halted;
    }
    let deadline = frontier.saturating_add(epoch.max(1)).min(max_cycles);
    EpochPlan::Round { deadline }
}

/// Plans the next epoch round of a shard set against `limit` — the one
/// decision procedure both executors share: [`run_epochs_sharded`] on
/// the calling thread and [`pool::spawn_epochs_pooled`] on a worker
/// pool. An empty set is trivially halted.
///
/// A [`Limit::Cycles`] budget binds the frontier
/// ([`plan_epoch_round`]). A [`Limit::Retirements`] budget binds the
/// retirements summed over all shards, checked before the halt state.
/// Its rounds get the remaining budget split evenly across the shards
/// as cycle room, clamped to one epoch and to at least one cycle. A
/// shard retires at most one unit per cycle, so the final rounds
/// advance one unit per shard and the aggregate overshoots the budget
/// by fewer than the shard count.
pub(crate) fn plan_shard_round(shards: &[ShardState], limit: Limit, epoch: u64) -> EpochPlan {
    if shards.is_empty() {
        return EpochPlan::Halted;
    }
    let (frontier, all_halted) = frontier(shards.iter().map(|s| (s.cycle, s.halted)));
    let budget = match limit {
        Limit::Cycles(max_cycles) => {
            return plan_epoch_round(frontier, all_halted, max_cycles, epoch);
        }
        Limit::Retirements(budget) => budget,
    };
    let retired: u64 = shards.iter().map(|s| s.retired).sum();
    if retired >= budget {
        EpochPlan::LimitReached
    } else if all_halted {
        EpochPlan::Halted
    } else {
        let room = ((budget - retired) / shards.len() as u64).clamp(1, epoch.max(1));
        EpochPlan::Round {
            deadline: frontier.saturating_add(room),
        }
    }
}

/// Whether a shard halting exactly on a round deadline commits its
/// architectural state inside the round. Under a cycle budget that halt
/// is a completed run (a halt wins over an exactly exhausted budget);
/// under a retirement budget only the all-halted stop commits.
fn commits_boundary_halts(limit: Limit) -> bool {
    matches!(limit, Limit::Cycles(_))
}

/// Advances one shard to an epoch-round deadline — the per-shard body
/// both executors share. Halted shards and shards already at the
/// deadline are skipped; with `commit_boundary_halts`, a shard that
/// halts exactly on the deadline gets its architectural state committed
/// inside the round (a completed run).
///
/// # Errors
///
/// Propagates the shard's fault.
pub fn run_shard_to_deadline<E: ExecutionEngine>(
    shard: &mut E,
    deadline: u64,
    commit_boundary_halts: bool,
) -> Result<(), E::Error> {
    if shard.is_halted() || shard.cycle() >= deadline {
        return Ok(());
    }
    if shard.run_until(Limit::Cycles(deadline))? == StopCause::LimitReached
        && commit_boundary_halts
        && shard.is_halted()
    {
        shard.commit_arch_state();
    }
    Ok(())
}

/// Epoch-synchronized multi-core driver, the *inline* executor: runs
/// epoch rounds over `shards` on the calling thread until every shard
/// halts or `limit` is exhausted. [`pool::spawn_epochs_pooled`] is the
/// same engine on a worker pool.
///
/// Every round is planned by `plan_shard_round`; the round runs each
/// shard that has not yet reached the deadline up to it *in shard
/// order* ([`run_shard_to_deadline`]), then fires `on_epoch` — the
/// barrier at which harnesses exchange shared device state (the
/// platform's arbiter reconciles the shards' SoC buses there). Because
/// no shard can run ahead of the slowest by more than one epoch, shards
/// communicating through shared devices observe each other's traffic
/// with at most one epoch of skew, identically on every run. Whenever
/// shards touch no shared mutable state inside an epoch, a round's
/// result is a pure function of the shard states at its start, so the
/// pool executor reproduces this one bit for bit.
///
/// Stop semantics mirror [`ExecutionEngine::run_until`]: the budget
/// check precedes the halt check (a zero budget returns
/// [`StopCause::LimitReached`] without dispatching, even on a fully
/// halted set), `Halted` means *every* shard reached its halt, and
/// architectural state is committed on all shards before returning
/// `Halted`. An empty shard set reports `Halted` immediately.
///
/// # Errors
///
/// Propagates the fault of the lowest-numbered faulting shard. Every
/// other shard of the faulting round still runs to its deadline first,
/// and the round's barrier does not fire — the same post-fault state
/// under both executors.
pub fn run_epochs_sharded<E: ExecutionEngine>(
    shards: &mut [E],
    limit: Limit,
    epoch: u64,
    mut on_epoch: impl FnMut(&mut [E]),
) -> Result<StopCause, E::Error> {
    let commit = commits_boundary_halts(limit);
    let mut states = Vec::with_capacity(shards.len());
    loop {
        states.clear();
        states.extend(shards.iter().map(ShardState::of));
        match plan_shard_round(&states, limit, epoch) {
            EpochPlan::LimitReached => return Ok(StopCause::LimitReached),
            EpochPlan::Halted => {
                for s in shards.iter_mut() {
                    s.commit_arch_state();
                }
                return Ok(StopCause::Halted);
            }
            EpochPlan::Round { deadline } => {
                let mut fault = None;
                for s in shards.iter_mut() {
                    if let Err(e) = run_shard_to_deadline(s, deadline, commit) {
                        fault.get_or_insert(e);
                    }
                }
                if let Some(e) = fault {
                    return Err(e);
                }
                on_epoch(shards);
            }
        }
    }
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
        type Snapshot = (u64, u64, [u32; 4]);
        fn snapshot(&self) -> Self::Snapshot {
            (self.cycles, self.units, self.regs)
        }
        fn restore(&mut self, &(cycles, units, regs): &Self::Snapshot) {
            self.cycles = cycles;
            self.units = units;
            self.regs = regs;
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

        // The budget check precedes the halt check: even a halted
        // engine reports an exhausted budget as LimitReached.
        let mut t = toy();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert!(t.is_halted());
        assert_eq!(t.run_until(Limit::Cycles(0)), Ok(StopCause::LimitReached));
        assert_eq!(
            t.run_until(Limit::Cycles(u64::MAX)),
            Ok(StopCause::Halted),
            "an unexhausted budget still reports the halt"
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut t = toy();
        t.run_until(Limit::Retirements(2)).unwrap();
        let snap = t.snapshot();
        t.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let end = t.engine_stats();
        t.restore(&snap);
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
        type Snapshot = (u64, u64, [u32; 4]);
        fn snapshot(&self) -> Self::Snapshot {
            self.inner.snapshot()
        }
        fn restore(&mut self, s: &Self::Snapshot) {
            self.inner.restore(s);
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
        let r = run_epochs_sharded(&mut shards, Limit::Cycles(u64::MAX), 8, |_| boundaries += 1);
        assert_eq!(r, Ok(StopCause::Halted));
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        assert!(boundaries >= 2, "multiple epoch rounds: {boundaries}");
        let agg = aggregate_stats(&shards);
        assert_eq!(agg.retired, 14);
        assert_eq!(agg.cycles, 28, "max shard clock (7 * 4)");
    }

    #[test]
    fn sharded_driver_budget_precedes_halt_and_is_frontier_based() {
        // Zero budget: LimitReached without dispatching, even halted.
        let mut shards = vec![scaled(1, 0), scaled(1, 0)];
        assert!(shards.iter().all(super::ExecutionEngine::is_halted));
        let r = run_epochs_sharded(&mut shards, Limit::Cycles(0), 4, |_| {});
        assert_eq!(r, Ok(StopCause::LimitReached));
        // With budget, a fully halted set reports Halted.
        let r = run_epochs_sharded(&mut shards, Limit::Cycles(100), 4, |_| {});
        assert_eq!(r, Ok(StopCause::Halted));

        // The budget binds the *frontier*: the slowest live shard.
        let mut shards = vec![scaled(1, 1000), scaled(10, 1000)];
        let r = run_epochs_sharded(&mut shards, Limit::Cycles(50), 5, |_| {});
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
            run_epochs_sharded(&mut shards, Limit::Cycles(u64::MAX), 16, |_| {}).unwrap();
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
            run_epochs_sharded(&mut shards, Limit::Cycles(100), 4, |_| {}),
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
        assert_eq!(ca.entries().len(), ca.len());
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

        // A hand-pushed digest participates like a recorded one.
        let mut cc = cb.clone();
        cc.push(0xdead_beef);
        assert_eq!(cb.first_divergence(&cc), Some(4));
    }
}
