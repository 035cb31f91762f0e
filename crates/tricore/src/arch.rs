//! Architecture description of the source processor.
//!
//! The paper keeps "a description of the pipelines and the caches of the
//! processor" in an XML file and feeds it to the translator; the golden
//! reference model must obviously agree with it. Here the description is
//! typed Rust data — [`Timing`], [`CacheConfig`], [`ArchDesc`] — and the
//! *same* incremental timing machine ([`TimingModel`]) is used by
//!
//! * the golden-model simulator ([`crate::sim`]), which feeds it the
//!   dynamic instruction stream and actual branch outcomes, and
//! * the translator's static cycle calculator (`cabt-core`), which feeds
//!   it one basic block at a time from a fresh [`TimingState`] and uses
//!   the *minimum* branch cost, exactly as §3.3 of the paper prescribes.
//!
//! Because both consumers share this one model, the only sources of
//! static-prediction error are the genuine ones from the paper: effects
//! that cross basic-block boundaries, branch outcomes, and cache misses.

use crate::isa::{Instr, RegSet};
use cabt_isa::codec::{expect_len, ByteReader, ByteWriter, CodecError};

/// Issue pipeline of an instruction (the TriCore-style dual pipe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueClass {
    /// Integer pipeline (data-register ALU and moves).
    Ip,
    /// Load/store pipeline (memory and address-register operations).
    Ls,
    /// Branch (terminates an issue group).
    Br,
}

/// Classifies an instruction into its issue pipeline.
pub fn issue_class(instr: &Instr) -> IssueClass {
    use Instr::*;
    match instr {
        Ld { .. }
        | LdA { .. }
        | St { .. }
        | StA { .. }
        | LdW16 { .. }
        | StW16 { .. }
        | Lea { .. }
        | MovA { .. }
        | MovAA { .. }
        | MovhA { .. }
        | MovD { .. } => IssueClass::Ls,
        J { .. }
        | Jl { .. }
        | Ji { .. }
        | Jli { .. }
        | Jcond { .. }
        | JcondZ { .. }
        | Loop { .. }
        | Ret16
        | Debug16 => IssueClass::Br,
        _ => IssueClass::Ip,
    }
}

/// Latency and branch-cost parameters of the source pipeline.
///
/// All costs are in source-processor cycles. Conditional-branch costs
/// follow the static-prediction scheme of §3.4.1: each branch has a
/// minimum cost (added statically) plus outcome-dependent extra cycles
/// (added by the dynamic correction code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// Result latency of simple ALU operations.
    pub alu_latency: u32,
    /// Result latency of `mul`/`madd`/`msub`.
    pub mul_latency: u32,
    /// Occupancy (and result latency) of the iterative divider.
    pub div_cycles: u32,
    /// Result latency of loads (`load_latency - 1` is the load-use stall).
    pub load_latency: u32,
    /// Cost of unconditional control transfers (`j`, `jl`, `ji`, `ret`).
    pub jump_cycles: u32,
    /// Cost of a conditional branch that was predicted taken and is taken.
    pub cond_taken_correct: u32,
    /// Cost of a conditional branch that was predicted not-taken and
    /// falls through.
    pub cond_nottaken_correct: u32,
    /// Cost of a mispredicted conditional branch (either direction).
    pub cond_mispredict: u32,
    /// Cost of a `loop` instruction that branches back (loop pipeline).
    pub loop_taken: u32,
    /// Cost of a `loop` instruction that exits.
    pub loop_exit: u32,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            alu_latency: 1,
            mul_latency: 2,
            div_cycles: 17,
            load_latency: 2,
            jump_cycles: 2,
            cond_taken_correct: 2,
            cond_nottaken_correct: 1,
            cond_mispredict: 3,
            loop_taken: 1,
            loop_exit: 2,
        }
    }
}

impl Timing {
    /// Static BTFN (backward-taken / forward-not-taken) branch
    /// prediction, plus always-taken for the loop pipeline.
    ///
    /// Returns `None` for non-conditional instructions.
    pub fn predicts_taken(&self, instr: &Instr) -> Option<bool> {
        match *instr {
            Instr::Jcond { disp16, .. } | Instr::JcondZ { disp16, .. } => Some(disp16 < 0),
            Instr::Loop { .. } => Some(true),
            _ => None,
        }
    }

    /// The guaranteed minimum cost of a control transfer — the number the
    /// paper folds into the static per-block cycle count ("such a
    /// conditional branch needs a minimum number of cycles in all cases").
    pub fn control_min(&self, instr: &Instr) -> u32 {
        match *instr {
            Instr::J { .. }
            | Instr::Jl { .. }
            | Instr::Ji { .. }
            | Instr::Jli { .. }
            | Instr::Ret16 => self.jump_cycles,
            Instr::Jcond { disp16, .. } | Instr::JcondZ { disp16, .. } => {
                if disp16 < 0 {
                    // predicted taken: both outcomes cost at least the
                    // taken-correct cost
                    self.cond_taken_correct.min(self.cond_mispredict)
                } else {
                    self.cond_nottaken_correct.min(self.cond_mispredict)
                }
            }
            Instr::Loop { .. } => self.loop_taken.min(self.loop_exit),
            Instr::Debug16 => 1,
            _ => 0,
        }
    }

    /// Extra cycles of a conditional branch beyond [`Timing::control_min`],
    /// given the actual direction. This is exactly what the paper's
    /// inserted correction code computes at run time.
    pub fn control_extra(&self, instr: &Instr, taken: bool) -> u32 {
        let full = self.control_cost(instr, taken);
        full - self.control_min(instr)
    }

    /// Full dynamic cost of a control transfer given its direction.
    pub fn control_cost(&self, instr: &Instr, taken: bool) -> u32 {
        match *instr {
            Instr::J { .. }
            | Instr::Jl { .. }
            | Instr::Ji { .. }
            | Instr::Jli { .. }
            | Instr::Ret16 => self.jump_cycles,
            Instr::Jcond { .. } | Instr::JcondZ { .. } => {
                let predicted = self.predicts_taken(instr).expect("conditional");
                match (predicted, taken) {
                    (true, true) => self.cond_taken_correct,
                    (false, false) => self.cond_nottaken_correct,
                    _ => self.cond_mispredict,
                }
            }
            Instr::Loop { .. } => {
                if taken {
                    self.loop_taken
                } else {
                    self.loop_exit
                }
            }
            Instr::Debug16 => 1,
            _ => 0,
        }
    }

    /// Result latency of a non-control instruction.
    pub fn result_latency(&self, instr: &Instr) -> u32 {
        use crate::isa::BinOp;
        match instr {
            Instr::Ld { .. } | Instr::LdA { .. } | Instr::LdW16 { .. } => self.load_latency,
            Instr::Bin { op: BinOp::Mul, .. } | Instr::Madd { .. } | Instr::Msub { .. } => {
                self.mul_latency
            }
            Instr::Bin { op: BinOp::Div, .. }
            | Instr::Bin { op: BinOp::Rem, .. }
            | Instr::BinI { op: BinOp::Div, .. }
            | Instr::BinI { op: BinOp::Rem, .. } => self.div_cycles,
            Instr::BinI { op: BinOp::Mul, .. } => self.mul_latency,
            _ => self.alu_latency,
        }
    }

    /// Issue occupancy of an instruction (cycles the issue stage is
    /// blocked). Only the iterative divider is non-pipelined.
    pub fn occupancy(&self, instr: &Instr) -> u32 {
        use crate::isa::BinOp;
        match instr {
            Instr::Bin { op: BinOp::Div, .. }
            | Instr::Bin { op: BinOp::Rem, .. }
            | Instr::BinI { op: BinOp::Div, .. }
            | Instr::BinI { op: BinOp::Rem, .. } => self.div_cycles,
            _ => 1,
        }
    }
}

/// Geometry of the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Extra cycles per line fill on a miss.
    pub miss_penalty: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 1 KiB, 2-way, 32-byte lines: small enough that real programs
        // exercise misses, as on the TC10GP-class parts.
        CacheConfig {
            sets: 16,
            ways: 2,
            line_bytes: 32,
            miss_penalty: 8,
        }
    }
}

impl CacheConfig {
    /// Line-aligned address of the line containing `addr`.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }

    /// Set index of `addr`. Power-of-two geometries (the normal case)
    /// use shifts — this sits on the per-instruction fetch path.
    pub fn set_of(&self, addr: u32) -> u32 {
        if self.line_bytes.is_power_of_two() && self.sets.is_power_of_two() {
            (addr >> self.line_bytes.trailing_zeros()) & (self.sets - 1)
        } else {
            (addr / self.line_bytes) % self.sets
        }
    }

    /// Tag of `addr` (the address bits above the index).
    pub fn tag_of(&self, addr: u32) -> u32 {
        if self.line_bytes.is_power_of_two() && self.sets.is_power_of_two() {
            addr >> (self.line_bytes.trailing_zeros() + self.sets.trailing_zeros())
        } else {
            addr / self.line_bytes / self.sets
        }
    }
}

/// A runnable model of the instruction cache: tags, valid bits and LRU
/// state. Used by the golden model; the translator generates target code
/// that maintains exactly this state in the emulated memory (Fig. 4 of
/// the paper).
#[derive(Debug, Clone)]
pub struct CacheSim {
    cfg: CacheConfig,
    /// `tag | VALID` per (set, way); `u64` so every 32-bit tag fits beside
    /// the valid bit.
    tags: Vec<u64>,
    /// LRU rank per (set, way); 0 = most recently used.
    lru: Vec<u8>,
    hits: u64,
    misses: u64,
}

const VALID: u64 = 1 << 32;

impl CacheSim {
    /// Creates an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let n = (cfg.sets * cfg.ways) as usize;
        // LRU ranks start as a permutation per set so replacement is
        // well-defined from the first fill on.
        let lru = (0..n).map(|i| (i as u32 % cfg.ways) as u8).collect();
        CacheSim {
            cfg,
            tags: vec![0; n],
            lru,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this simulation uses.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accounts a repeated access to the line accessed immediately
    /// before: a guaranteed hit on the most-recently-used way, whose
    /// LRU re-touch is a no-op (`touch` is idempotent for the MRU
    /// way), so only the hit counter moves — exactly the effect
    /// [`CacheSim::access`] on that line would have. The compiled
    /// dispatch core calls this for fetch runs it proved same-line at
    /// closure-build time, skipping the tag search.
    pub fn repeat_hit(&mut self) {
        self.hits += 1;
    }

    /// True when the line containing `addr` currently sits in the
    /// most-recently-used way of its set. While this holds, any number
    /// of [`CacheSim::access`]es to the line are pure hits with *no*
    /// state change beyond the hit counter (`touch` is idempotent for
    /// the MRU way) — the residency guard behind the trace tier's
    /// batched fetch accounting ([`CacheSim::batch_hits`]).
    #[inline]
    pub fn mru_resident(&self, addr: u32) -> bool {
        let set = self.cfg.set_of(addr);
        let base = (set * self.cfg.ways) as usize;
        let ways = self.cfg.ways as usize;
        let mut mru = 0usize;
        for w in 0..ways {
            if self.lru[base + w] == 0 {
                mru = w;
                break;
            }
        }
        self.tags[base + mru] == (self.cfg.tag_of(addr) as u64 | VALID)
    }

    /// Accounts `n` accesses that are all guaranteed MRU hits (proved
    /// via [`CacheSim::mru_resident`] over every line of a fused run):
    /// the aggregate effect of `n` individual [`CacheSim::access`]es —
    /// `n` hits, no LRU or tag movement — applied in one add.
    #[inline]
    pub fn batch_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// [`CacheSim::access`] with the most-recently-used way probed
    /// first — the compiled blocks' lead-access path. A hit on the MRU
    /// way leaves the LRU ranks exactly as a full access would
    /// (`touch` is idempotent there), so only the hit counter moves;
    /// any other outcome falls back to the full search. Effects are
    /// bit-identical to `access`.
    #[inline]
    pub fn access_mru_first(&mut self, addr: u32) -> bool {
        let set = self.cfg.set_of(addr);
        let base = (set * self.cfg.ways) as usize;
        let ways = self.cfg.ways as usize;
        let mut mru = 0usize;
        for w in 0..ways {
            if self.lru[base + w] == 0 {
                mru = w;
                break;
            }
        }
        if self.tags[base + mru] == (self.cfg.tag_of(addr) as u64 | VALID) {
            self.hits += 1;
            return true;
        }
        self.access(addr)
    }

    /// Accesses the line containing `addr`. Returns `true` on hit.
    /// Misses fill the LRU way; both outcomes update LRU ranks.
    pub fn access(&mut self, addr: u32) -> bool {
        let set = self.cfg.set_of(addr);
        let tag = self.cfg.tag_of(addr) as u64;
        let base = (set * self.cfg.ways) as usize;
        let ways = self.cfg.ways as usize;
        let slot = (0..ways).find(|&w| self.tags[base + w] == (tag | VALID));
        match slot {
            Some(w) => {
                self.touch(base, ways, w);
                self.hits += 1;
                true
            }
            None => {
                // Replace the way with the highest LRU rank.
                let victim = (0..ways)
                    .max_by_key(|&w| self.lru[base + w])
                    .expect("at least one way");
                self.tags[base + victim] = tag | VALID;
                self.touch(base, ways, victim);
                self.misses += 1;
                false
            }
        }
    }

    fn touch(&mut self, base: usize, ways: usize, used: usize) {
        let old = self.lru[base + used];
        for w in 0..ways {
            if self.lru[base + w] < old {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + used] = 0;
    }

    /// Serializes the full cache state (geometry, tags, LRU, counters)
    /// for a portable snapshot.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u32(self.cfg.sets);
        w.u32(self.cfg.ways);
        w.u32(self.cfg.line_bytes);
        w.u32(self.cfg.miss_penalty);
        w.u64(self.tags.len() as u64);
        for &t in &self.tags {
            w.u64(t);
        }
        w.u64(self.lru.len() as u64);
        w.raw(&self.lru);
        w.u64(self.hits);
        w.u64(self.misses);
    }

    /// Checks a decoded image against the cache model `cfg` it is
    /// restored into: the same geometry, one tag and one LRU rank per
    /// (set, way), and every rank below the associativity.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of the first property that fails.
    pub fn check(&self, cfg: &CacheConfig) -> Result<(), CodecError> {
        let geometry = [
            ("cache sets", self.cfg.sets, cfg.sets),
            ("cache ways", self.cfg.ways, cfg.ways),
            ("cache line bytes", self.cfg.line_bytes, cfg.line_bytes),
            (
                "cache miss penalty",
                self.cfg.miss_penalty,
                cfg.miss_penalty,
            ),
        ];
        if let Some(&(what, value, _)) = geometry.iter().find(|(_, got, want)| got != want) {
            return Err(CodecError::BadValue {
                what,
                value: value.into(),
            });
        }
        let n = (cfg.sets * cfg.ways) as usize;
        expect_len("cache tags", self.tags.len(), n)?;
        expect_len("cache lru ranks", self.lru.len(), n)?;
        match self.lru.iter().find(|&&rank| u32::from(rank) >= cfg.ways) {
            Some(&rank) => Err(CodecError::BadValue {
                what: "cache lru rank",
                value: rank.into(),
            }),
            None => Ok(()),
        }
    }

    /// Decodes a [`CacheSim::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let cfg = CacheConfig {
            sets: r.u32()?,
            ways: r.u32()?,
            line_bytes: r.u32()?,
            miss_penalty: r.u32()?,
        };
        let ntags = r.count("cache tags", 8)?;
        let mut tags = Vec::with_capacity(ntags);
        for _ in 0..ntags {
            tags.push(r.u64()?);
        }
        let nlru = r.count("cache lru ranks", 1)?;
        let lru = r.raw(nlru)?.to_vec();
        Ok(CacheSim {
            cfg,
            tags,
            lru,
            hits: r.u64()?,
            misses: r.u64()?,
        })
    }
}

/// Complete architecture description: what the paper's XML file carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchDesc {
    /// Human-readable name of the described core.
    pub name: String,
    /// Core clock in Hz (the TC10GP board ran at 48 MHz).
    pub clock_hz: u64,
    /// Pipeline timing parameters.
    pub timing: Timing,
    /// Instruction-cache geometry.
    pub cache: CacheConfig,
}

impl Default for ArchDesc {
    fn default() -> Self {
        ArchDesc {
            name: "tc10gp-like".to_string(),
            clock_hz: 48_000_000,
            timing: Timing::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// Incremental dual-issue timing machine shared by the golden model and
/// the static cycle calculator.
///
/// Feed it instructions in (dynamic or static) program order via
/// [`TimingModel::step`]; it accounts issue pairing, operand stalls,
/// divider occupancy, MAC accumulator forwarding and control-transfer
/// costs. Cache penalties are accounted separately by the caller (the
/// golden model knows the dynamic fetch stream; the translated code
/// maintains its own cache state).
#[derive(Debug, Clone)]
pub struct TimingModel {
    timing: Timing,
}

/// Mutable pipeline state threaded through [`TimingModel::step`].
#[derive(Debug, Clone, Default)]
pub struct TimingState {
    /// Cycle at which each register's value is available (the timing
    /// indices of [`RegSet`]).
    ready: [u64; 32],
    /// Early-forwarded availability for MAC accumulator chains.
    mac_ready: [u64; 32],
    /// First cycle at which the next issue group can start.
    next: u64,
    /// Open integer-pipe slot that a load/store instruction may pair into.
    pair: Option<PairSlot>,
}

/// An open dual-issue slot: the issue cycle of the integer-pipe
/// instruction that opened it and the registers that instruction
/// writes, which a load/store may neither read nor write to pair.
#[derive(Debug, Clone, Copy)]
struct PairSlot {
    cycle: u64,
    writes: RegSet,
}

impl TimingState {
    /// Fresh pipeline state (everything ready at cycle 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles consumed so far (the value of the cycle counter after
    /// the last issue group retires its issue slot).
    pub fn cycles(&self) -> u64 {
        self.next
    }

    /// Inserts `cycles` of external stall (e.g. an instruction-cache line
    /// fill). Fetch stalls break any open dual-issue slot.
    pub fn stall(&mut self, cycles: u64) {
        self.next += cycles;
        self.pair = None;
    }

    /// Serializes the pipeline state for a portable snapshot.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        for &c in &self.ready {
            w.u64(c);
        }
        for &c in &self.mac_ready {
            w.u64(c);
        }
        w.u64(self.next);
        match self.pair {
            None => w.bool(false),
            Some(p) => {
                // At most two registers, ascending, zero-padded, then
                // the count.
                let mut regs = [0u8; 2];
                for (byte, r) in regs.iter_mut().zip(p.writes.iter()) {
                    *byte = r;
                }
                w.bool(true);
                w.u64(p.cycle);
                w.raw(&regs);
                w.u8(p.writes.len() as u8);
            }
        }
    }

    /// Decodes a [`TimingState::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input, including
    /// a pair slot with more than two registers or an index of 32 or
    /// more.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let mut ready = [0u64; 32];
        for c in &mut ready {
            *c = r.u64()?;
        }
        let mut mac_ready = [0u64; 32];
        for c in &mut mac_ready {
            *c = r.u64()?;
        }
        let next = r.u64()?;
        let pair = if r.bool()? {
            let cycle = r.u64()?;
            let regs: [u8; 2] = r.raw(2)?.try_into().expect("2 bytes");
            let count = r.u8()?;
            if count > 2 {
                return Err(CodecError::BadLength {
                    what: "pair slot writes",
                    len: count as u64,
                });
            }
            let mut writes = RegSet::EMPTY;
            for &reg in &regs[..count as usize] {
                if reg >= 32 {
                    return Err(CodecError::BadTag {
                        what: "pair slot register",
                        tag: reg,
                    });
                }
                writes = writes | RegSet::one(reg);
            }
            Some(PairSlot { cycle, writes })
        } else {
            None
        };
        Ok(TimingState {
            ready,
            mac_ready,
            next,
            pair,
        })
    }
}

/// What one [`TimingModel::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Cycle at which the instruction issued.
    pub issue_cycle: u64,
    /// `true` if it dual-issued into the previous integer slot.
    pub paired: bool,
}

/// Everything [`TimingModel::step`] would otherwise derive from the
/// instruction per step, computed once at decode time. The pre-decoded
/// engines store one of these per instruction so the hot loop reads
/// fields instead of matching on the instruction five times.
#[derive(Debug, Clone, Copy)]
pub struct PreTiming {
    /// Issue pipeline.
    pub class: IssueClass,
    /// Issue occupancy in cycles.
    pub occupancy: u32,
    /// Result latency in cycles.
    pub latency: u32,
    /// Control cost when taken (branches; 0 otherwise).
    pub cost_taken: u32,
    /// Control cost when not taken.
    pub cost_not_taken: u32,
    /// Static minimum control cost.
    pub control_min: u32,
    /// Static prediction (`None` for non-conditionals).
    pub predicts_taken: Option<bool>,
    /// MAC accumulator register index (`0xff` when not a MAC).
    pub mac_acc: u8,
    /// Post-increment base register timing index (`0xff` when none).
    pub postinc_reg: u8,
    /// Registers read ([`Instr::reads`]).
    pub reads: RegSet,
    /// Registers written ([`Instr::writes`]).
    pub writes: RegSet,
}

impl TimingModel {
    /// Creates a timing machine over the given parameters.
    pub fn new(timing: Timing) -> Self {
        TimingModel { timing }
    }

    /// The underlying parameters.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Computes the per-instruction timing record consumed by
    /// [`TimingModel::step_pre`].
    pub fn pre_timing(&self, instr: &Instr) -> PreTiming {
        let mac_acc = match instr {
            Instr::Madd { acc, .. } | Instr::Msub { acc, .. } => acc.0,
            _ => 0xff,
        };
        let postinc_reg = match instr {
            Instr::Ld {
                base,
                postinc: true,
                ..
            }
            | Instr::LdA {
                base,
                postinc: true,
                ..
            }
            | Instr::St {
                base,
                postinc: true,
                ..
            }
            | Instr::StA {
                base,
                postinc: true,
                ..
            } => base.0 + 16,
            _ => 0xff,
        };
        PreTiming {
            class: issue_class(instr),
            occupancy: self.timing.occupancy(instr),
            latency: self.timing.result_latency(instr),
            cost_taken: self.timing.control_cost(instr, true),
            cost_not_taken: self.timing.control_cost(instr, false),
            control_min: self.timing.control_min(instr),
            predicts_taken: self.timing.predicts_taken(instr),
            mac_acc,
            postinc_reg,
            reads: instr.reads(),
            writes: instr.writes(),
        }
    }

    /// [`TimingModel::step`] over a pre-computed timing record — the
    /// match-free variant the pre-decoded dispatch core runs; results
    /// are bit-identical to [`TimingModel::step`].
    pub fn step_pre(&self, st: &mut TimingState, p: &PreTiming, taken: Option<bool>) -> StepInfo {
        match p.class {
            IssueClass::Ip => self.step_pre_class::<false, false>(st, p, taken),
            IssueClass::Ls => self.step_pre_class::<true, false>(st, p, taken),
            IssueClass::Br => self.step_pre_class::<false, true>(st, p, taken),
        }
    }

    /// [`TimingModel::step_pre`] with the issue class pinned at compile
    /// time (`IS_LS`/`IS_BR`; both false = integer pipe), so the class
    /// dispatch folds away when this inlines into a compiled-block
    /// closure that captured the class at build time. This *is* the
    /// one timing body — `step_pre` is the runtime-dispatch wrapper —
    /// so the cores cannot drift. `p.class` must match the flags.
    #[inline(always)]
    pub fn step_pre_class<const IS_LS: bool, const IS_BR: bool>(
        &self,
        st: &mut TimingState,
        p: &PreTiming,
        taken: Option<bool>,
    ) -> StepInfo {
        debug_assert_eq!(
            p.class,
            match (IS_LS, IS_BR) {
                (false, false) => IssueClass::Ip,
                (true, false) => IssueClass::Ls,
                (false, true) => IssueClass::Br,
                (true, true) => unreachable!("a unit has one issue class"),
            }
        );
        // Earliest cycle all operands are ready.
        let mut operands_ready = 0u64;
        for r in p.reads.iter() {
            let mut avail = st.ready[r as usize];
            // MAC accumulator forwarding: a madd/msub may consume the
            // accumulator produced by the previous MAC one cycle early.
            if p.mac_acc == r {
                avail = avail.min(st.mac_ready[r as usize]);
            }
            operands_ready = operands_ready.max(avail);
        }

        // Try to pair into an open integer slot.
        if IS_LS {
            if let Some(slot) = st.pair {
                let conflicts = (p.reads | p.writes).intersects(slot.writes);
                if !conflicts && operands_ready <= slot.cycle {
                    st.pair = None;
                    self.retire_pre(st, p, slot.cycle);
                    // `next` was already advanced past the slot's cycle
                    // by the integer instruction that opened it.
                    return StepInfo {
                        issue_cycle: slot.cycle,
                        paired: true,
                    };
                }
            }
        }

        let issue = st.next.max(operands_ready);

        if IS_BR {
            let cost = match taken {
                Some(true) => p.cost_taken,
                Some(false) => p.cost_not_taken,
                None => p.control_min,
            };
            st.next = issue + cost.max(1) as u64;
            st.pair = None;
            // Link-register writes become ready immediately after issue.
            for w in p.writes.iter() {
                st.ready[w as usize] = issue + 1;
                st.mac_ready[w as usize] = issue + 1;
            }
        } else {
            st.next = issue + p.occupancy as u64;
            st.pair = if !IS_LS {
                Some(PairSlot {
                    cycle: issue,
                    writes: p.writes,
                })
            } else {
                None
            };
            self.retire_pre(st, p, issue);
        }

        StepInfo {
            issue_cycle: issue,
            paired: false,
        }
    }

    fn retire_pre(&self, st: &mut TimingState, p: &PreTiming, issue: u64) {
        let lat = p.latency as u64;
        let is_mac = p.mac_acc != 0xff;
        for w in p.writes.iter() {
            st.ready[w as usize] = issue + lat;
            st.mac_ready[w as usize] = if is_mac { issue + 1 } else { issue + lat };
        }
        // Post-increment address updates are fast (address ALU).
        if p.postinc_reg != 0xff {
            st.ready[p.postinc_reg as usize] = issue + 1;
            st.mac_ready[p.postinc_reg as usize] = issue + 1;
        }
    }

    /// Accounts one instruction. For conditional control transfers pass
    /// the actual direction in `taken`; pass `None` to account only the
    /// guaranteed minimum cost (the static-calculation mode of §3.3).
    ///
    /// The timing record is derived on the spot and handed to
    /// [`TimingModel::step_pre`], which owns the one copy of the
    /// issue/pair/retire algorithm.
    pub fn step(&self, st: &mut TimingState, instr: &Instr, taken: Option<bool>) -> StepInfo {
        self.step_pre(st, &self.pre_timing(instr), taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AReg, BinOp, Cond, DReg, LdKind};

    fn model() -> TimingModel {
        TimingModel::new(Timing::default())
    }

    fn add(d: u8, s1: u8, s2: u8) -> Instr {
        Instr::Bin {
            op: BinOp::Add,
            d: DReg(d),
            s1: DReg(s1),
            s2: DReg(s2),
        }
    }

    fn ldw(d: u8, base: u8) -> Instr {
        Instr::Ld {
            kind: LdKind::W,
            d: DReg(d),
            base: AReg(base),
            off10: 0,
            postinc: false,
        }
    }

    #[test]
    fn independent_alu_ops_take_one_cycle_each() {
        let m = model();
        let mut st = TimingState::new();
        m.step(&mut st, &add(0, 1, 2), None);
        m.step(&mut st, &add(3, 4, 5), None);
        m.step(&mut st, &add(6, 7, 8), None);
        assert_eq!(st.cycles(), 3);
    }

    #[test]
    fn ip_ls_pair_dual_issues() {
        let m = model();
        let mut st = TimingState::new();
        let i1 = m.step(&mut st, &add(0, 1, 2), None);
        let i2 = m.step(&mut st, &ldw(3, 4), None);
        assert!(!i1.paired);
        assert!(i2.paired);
        assert_eq!(i1.issue_cycle, i2.issue_cycle);
        assert_eq!(st.cycles(), 1);
    }

    #[test]
    fn dependent_ls_does_not_pair() {
        let m = model();
        let mut st = TimingState::new();
        // add writes d3; store reads d3 -> cannot share the cycle.
        m.step(&mut st, &add(3, 1, 2), None);
        let st_instr = Instr::St {
            kind: crate::isa::StKind::W,
            s: DReg(3),
            base: AReg(4),
            off10: 0,
            postinc: false,
        };
        let info = m.step(&mut st, &st_instr, None);
        assert!(!info.paired);
        assert_eq!(st.cycles(), 2);
    }

    #[test]
    fn ls_then_ip_does_not_pair() {
        let m = model();
        let mut st = TimingState::new();
        m.step(&mut st, &ldw(3, 4), None);
        let info = m.step(&mut st, &add(0, 1, 2), None);
        assert!(!info.paired, "pairing is IP-slot first, LS second only");
        assert_eq!(st.cycles(), 2);
    }

    #[test]
    fn load_use_stalls_one_cycle() {
        let m = model();
        let mut st = TimingState::new();
        m.step(&mut st, &ldw(1, 4), None); // d1 ready at cycle 2
        let info = m.step(&mut st, &add(2, 1, 1), None);
        assert_eq!(info.issue_cycle, 2);
        assert_eq!(st.cycles(), 3);
    }

    #[test]
    fn mul_latency_stalls_dependent() {
        let m = model();
        let mut st = TimingState::new();
        let mul = Instr::Bin {
            op: BinOp::Mul,
            d: DReg(1),
            s1: DReg(2),
            s2: DReg(3),
        };
        m.step(&mut st, &mul, None);
        let info = m.step(&mut st, &add(4, 1, 1), None);
        assert_eq!(info.issue_cycle, 2);
    }

    #[test]
    fn mac_chain_forwards_accumulator() {
        let m = model();
        let mut st = TimingState::new();
        let madd = |d: u8, acc: u8| Instr::Madd {
            d: DReg(d),
            acc: DReg(acc),
            s1: DReg(5),
            s2: DReg(6),
        };
        m.step(&mut st, &madd(1, 1), None);
        let info = m.step(&mut st, &madd(1, 1), None);
        assert_eq!(info.issue_cycle, 1, "accumulator chain must not stall");
        // But a plain ALU consumer of the MAC result pays full latency.
        let info = m.step(&mut st, &add(2, 1, 1), None);
        assert_eq!(info.issue_cycle, 3);
    }

    #[test]
    fn divider_blocks_issue() {
        let m = model();
        let mut st = TimingState::new();
        let div = Instr::Bin {
            op: BinOp::Div,
            d: DReg(1),
            s1: DReg(2),
            s2: DReg(3),
        };
        m.step(&mut st, &div, None);
        assert_eq!(st.cycles(), Timing::default().div_cycles as u64);
        let info = m.step(&mut st, &add(4, 5, 6), None);
        assert_eq!(info.issue_cycle, Timing::default().div_cycles as u64);
    }

    #[test]
    fn branch_costs_min_and_dynamic() {
        let t = Timing::default();
        let back = Instr::Jcond {
            cond: Cond::Ne,
            s1: DReg(0),
            s2: DReg(1),
            disp16: -4,
        };
        let fwd = Instr::Jcond {
            cond: Cond::Ne,
            s1: DReg(0),
            s2: DReg(1),
            disp16: 4,
        };
        assert_eq!(t.predicts_taken(&back), Some(true));
        assert_eq!(t.predicts_taken(&fwd), Some(false));
        assert_eq!(t.control_min(&back), 2);
        assert_eq!(t.control_min(&fwd), 1);
        assert_eq!(t.control_cost(&back, true), 2);
        assert_eq!(t.control_cost(&back, false), 3);
        assert_eq!(t.control_cost(&fwd, true), 3);
        assert_eq!(t.control_cost(&fwd, false), 1);
        assert_eq!(t.control_extra(&back, false), 1);
        assert_eq!(t.control_extra(&fwd, true), 2);
        let lp = Instr::Loop {
            a: AReg(2),
            disp16: -6,
        };
        assert_eq!(t.control_min(&lp), 1);
        assert_eq!(t.control_extra(&lp, false), 1);
        assert_eq!(t.control_extra(&lp, true), 0);
    }

    #[test]
    fn branch_closes_issue_group() {
        let m = model();
        let mut st = TimingState::new();
        m.step(&mut st, &add(0, 1, 2), None);
        m.step(&mut st, &Instr::J { disp24: 4 }, None);
        // Branch cannot pair; costs jump_cycles.
        assert_eq!(st.cycles(), 1 + 2);
        // Nothing can pair into a slot after a branch.
        let info = m.step(&mut st, &ldw(3, 4), None);
        assert!(!info.paired);
    }

    #[test]
    fn static_vs_dynamic_agree_on_straightline_code() {
        // For a block without conditionals, min-cost accounting equals
        // dynamic accounting — the invariant that makes level-1
        // translation exact for straight-line code.
        let m = model();
        let prog = [
            add(0, 1, 2),
            ldw(3, 4),
            add(5, 3, 3),
            add(6, 0, 5),
            Instr::J { disp24: 10 },
        ];
        let mut s1 = TimingState::new();
        let mut s2 = TimingState::new();
        for i in &prog {
            m.step(&mut s1, i, None);
            m.step(&mut s2, i, Some(true));
        }
        assert_eq!(s1.cycles(), s2.cycles());
    }

    /// The park image of a state with an open pair slot: 32 `ready` and
    /// 32 `mac_ready` u64s, `next`, then the slot's flag, cycle, two
    /// register bytes and count. Only the listed bytes are non-zero.
    #[test]
    fn open_pair_slot_image_is_pinned() {
        let mut st = TimingState::new();
        model().step(&mut st, &add(5, 1, 2), None);
        let mut bytes = Vec::new();
        st.encode_into(&mut bytes);
        let mut want = vec![0u8; 532];
        for (at, b) in [(40, 1), (296, 1), (512, 1), (520, 1), (529, 5), (531, 1)] {
            want[at] = b;
        }
        assert_eq!(bytes, want);
    }

    /// An open two-register slot round-trips; an over-long count or an
    /// out-of-range register is a codec error.
    #[test]
    fn pair_slot_images_round_trip_or_are_rejected() {
        let image = |regs: [u8; 2], count: u8| {
            let mut bytes = Vec::new();
            TimingState::new().encode_into(&mut bytes);
            bytes[520] = 1;
            bytes.extend(7u64.to_le_bytes().into_iter().chain(regs).chain([count]));
            bytes
        };
        let good = image([3, 20], 2);
        let st = TimingState::decode(&mut ByteReader::new(&good)).expect("decodes");
        let mut again = Vec::new();
        st.encode_into(&mut again);
        assert_eq!(again, good);
        for (regs, count) in [([3, 0], 9), ([3, 0], 3), ([32, 0], 1), ([3, 255], 2)] {
            let bad = image(regs, count);
            let err = TimingState::decode(&mut ByteReader::new(&bad));
            assert!(err.is_err(), "regs {regs:?} count {count} must not decode");
        }
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::default();
        assert_eq!(c.sets * c.ways * c.line_bytes, 1024, "total capacity");
        assert_eq!(c.line_of(0x8000_0047), 0x8000_0040);
        assert_eq!(c.set_of(0x8000_0040), 2);
        assert_eq!(c.set_of(0x8000_0040 + 32 * 16), 2, "wraps around the sets");
        assert_ne!(c.tag_of(0x8000_0040), c.tag_of(0x8000_0040 + 32 * 16));
    }

    #[test]
    fn cache_hits_and_lru_replacement() {
        let mut c = CacheSim::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 8,
        });
        // Three distinct lines mapping to set 0: addresses 0, 32, 64.
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0), "both ways resident");
        assert!(!c.access(64), "fills over LRU way (32)");
        assert!(c.access(0), "0 was MRU, must survive");
        assert!(!c.access(32), "32 was evicted");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    fn cache_respects_associativity_one() {
        let mut c = CacheSim::new(CacheConfig {
            sets: 4,
            ways: 1,
            line_bytes: 16,
            miss_penalty: 8,
        });
        assert!(!c.access(0));
        assert!(!c.access(64)); // same set, direct-mapped conflict
        assert!(!c.access(0));
    }

    #[test]
    fn arch_desc_defaults_match_paper_platform() {
        let a = ArchDesc::default();
        assert_eq!(a.clock_hz, 48_000_000);
        let c = a.cache;
        assert_eq!(c.sets * c.ways * c.line_bytes, 1024, "total capacity");
    }
}
