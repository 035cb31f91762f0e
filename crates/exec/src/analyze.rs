//! Guest-program static analysis over the shared block layer.
//!
//! Everything in this workspace *executes* the [`BlockMap`] partition;
//! this module is the first consumer that only *reads* it. It provides
//! a small forward worklist dataflow framework, with a caller-supplied
//! lattice join and per-unit transfer function — plus
//! the four concrete analyses the lint pipeline ships with:
//!
//! * **reachability** — blocks no path from any entry can reach;
//! * **use-before-def** — register reads not dominated by a write
//!   (a forward *must-define* analysis, so a read is only flagged when
//!   *some* path from entry reaches it undefined);
//! * **constant propagation** — address-forming chains folded
//!   statically so provably-constant stores can be checked against a
//!   [`MemMap`] of the loaded image and the MMIO window;
//! * **loop structure** — natural loops via dominators, the substrate
//!   of static trace prediction ([`predict_traces`]) and the static
//!   side-exit verification ([`verify_trace_exits`]) that the dynamic
//!   trace tier is cross-checked against.
//!
//! # Soundness around indirect control flow
//!
//! A unit classified [`UnitFlow::Indirect`] (returns, computed jumps)
//! has successors only run time knows. The framework is conservative
//! in the classical direction: an indirect terminator may transfer to
//! *any* block leader, so its out-fact joins into every block's
//! in-fact. One reachable
//! `ret` therefore makes every block reachable and every register
//! possibly-clobbered downstream of it — pessimistic, but never a
//! false "clean". The per-ISA lowerings document which instructions
//! land in this bucket.
//!
//! The framework is index-based like [`BlockMap`] itself: units are
//! table indices, findings carry the source `pc` only because the
//! lowered [`Program`] records one per unit.

use crate::blocks::{BlockMap, UnitFlow, NO_BLOCK};
use crate::trace::MAX_TRACE_BLOCKS;

/// Number of register slots the register-mask analyses track: the
/// width of their `u64` masks (the TriCore flat space uses 32).
pub const NUM_REGS: usize = 64;

// ---------------------------------------------------------------------
// Lowered program — the per-ISA lowering target
// ---------------------------------------------------------------------

/// An abstract register-to-register operation: the fragment of an ISA
/// the constant-propagation lattice can evaluate. Anything else is
/// modeled by its write set alone (destination becomes unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsOp {
    /// `dst = value`.
    Const {
        /// Destination register (flat index).
        dst: u8,
        /// The constant written.
        value: u32,
    },
    /// `dst = src + imm` (wrapping).
    AddImm {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
        /// Wrapping addend.
        imm: u32,
    },
    /// `dst = src`.
    Copy {
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
}

/// One memory access performed by a unit, in base + displacement form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Base register (flat index).
    pub base: u8,
    /// Displacement added to the base (zero for post-increment forms —
    /// those address through the *pre*-increment base).
    pub offset: i32,
    /// Access width in bytes.
    pub bytes: u8,
    /// `true` for stores.
    pub store: bool,
}

/// One dispatch unit as the analyses see it: control-flow role,
/// register effects, and the abstract-op fragment constant propagation
/// can follow.
#[derive(Debug, Clone)]
pub struct GuestUnit {
    /// Source address, for findings.
    pub pc: u32,
    /// Control-flow role (targets resolved to unit indices).
    pub flow: UnitFlow,
    /// Registers read (flat indices, `< NUM_REGS`).
    pub reads: Vec<u8>,
    /// Registers written (flat indices, `< NUM_REGS`).
    pub writes: Vec<u8>,
    /// Abstract operations, applied in order *after* the write set
    /// coarsens destinations (so an op refines its own destination).
    pub ops: Vec<AbsOp>,
    /// Memory access, when the unit performs one.
    pub mem: Option<MemAccess>,
    /// Direct call target (unit index) when this unit is a call.
    pub call: Option<u32>,
}

/// A lowered guest program: what a per-ISA front end hands the
/// analyses. Produced by `cabt-tricore`'s `analyze` module.
#[derive(Debug, Clone)]
pub struct Program {
    /// Units in table order.
    pub units: Vec<GuestUnit>,
    /// Entry unit indices (program entry, exported symbols).
    pub entries: Vec<u32>,
    /// `contiguous[i]`: unit `i + 1` is the sequential successor of
    /// unit `i` (false at decode gaps). Parallel to `units`.
    pub contiguous: Vec<bool>,
    /// Registers the loader defines before entry (stack pointer,
    /// shard id) — the boundary fact of use-before-def.
    pub entry_defined: Vec<u8>,
    /// Registers with *known* values at entry (e.g. the seeded stack
    /// pointer) — the boundary fact of constant propagation.
    pub entry_consts: Vec<(u8, u32)>,
    /// ISA register naming for findings.
    pub reg_name: fn(u8) -> String,
}

impl Program {
    /// Per-unit control-flow roles, parallel to `units`.
    pub fn flows(&self) -> Vec<UnitFlow> {
        self.units.iter().map(|u| u.flow).collect()
    }

    /// Builds the control-flow graph view of this program.
    pub fn graph(&self) -> FlowGraph {
        FlowGraph::build(self.flows(), &self.contiguous, &self.entries)
    }
}

// ---------------------------------------------------------------------
// Control-flow graph view
// ---------------------------------------------------------------------

/// The analyses' view of one program's control flow: the shared
/// [`BlockMap`] partition plus explicit predecessor/successor lists
/// and the set of indirect-terminated blocks (whose successors are
/// conservatively *every* block — see the module docs).
///
/// Unlike the engines' view, a [`UnitFlow::Halt`] terminator here has
/// **no** fall edge: execution stops at a halt, so code after one is
/// only reachable if something branches to it. (The map keeps the
/// architectural fall edge for the engines; the graph severs it.)
#[derive(Debug, Clone)]
pub struct FlowGraph {
    /// The block partition.
    pub map: BlockMap,
    /// Per-unit control-flow roles, parallel to the unit table.
    pub flows: Vec<UnitFlow>,
    /// Entry block ids.
    pub entries: Vec<u32>,
    /// Explicit successor block ids, per block (fall + taken edges,
    /// halt fall edges severed; may repeat when both edges coincide).
    pub succs: Vec<Vec<u32>>,
    /// Explicit predecessor block ids, per block.
    pub preds: Vec<Vec<u32>>,
    /// Blocks whose terminator is [`UnitFlow::Indirect`].
    pub indirect: Vec<u32>,
}

impl FlowGraph {
    /// Builds the graph for a unit table. `contiguous` and `entries`
    /// have [`BlockMap::build`] semantics (entries are unit indices).
    pub fn build(flows: Vec<UnitFlow>, contiguous: &[bool], entries: &[u32]) -> FlowGraph {
        let map = BlockMap::build(
            &flows,
            |i| contiguous.get(i).copied().unwrap_or(false),
            entries.iter().copied(),
            false,
        );
        let n = map.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut indirect = Vec::new();
        for (b, span) in map.blocks.iter().enumerate() {
            let term = flows[span.last() as usize];
            if matches!(term, UnitFlow::Indirect) {
                indirect.push(b as u32);
            }
            // A halt terminator ends execution: drop its fall edge.
            let fall = if matches!(term, UnitFlow::Halt) {
                NO_BLOCK
            } else {
                span.fall
            };
            for e in [fall, span.taken] {
                if e != NO_BLOCK {
                    succs[b].push(e);
                    preds[e as usize].push(b as u32);
                }
            }
        }
        let entry_blocks: Vec<u32> = entries
            .iter()
            .filter(|&&e| (e as usize) < map.loc.len())
            .map(|&e| map.loc[e as usize].block)
            .collect();
        FlowGraph {
            map,
            flows,
            entries: entry_blocks,
            succs,
            preds,
            indirect,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------
// The worklist solver
// ---------------------------------------------------------------------

/// One forward dataflow analysis: a lattice (initial/boundary values +
/// join) and a per-unit transfer function. Facts flow from entries
/// toward successors; the solver calls `transfer` on units in program
/// order.
pub trait Analysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;
    /// The optimistic initial fact (lattice top): the value a block
    /// holds before any path has reached it.
    fn top(&self) -> Self::Fact;
    /// The fact entering the analysis at its boundary, the entry
    /// blocks.
    fn boundary(&self) -> Self::Fact;
    /// Joins `from` into `into`; returns true when `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;
    /// Applies one unit's effect to the fact.
    fn transfer(&self, unit: u32, fact: &mut Self::Fact);
}

/// Fixed-point result of [`solve`]: per-block facts. `input[b]` is the
/// fact at the block's first unit and `output[b]` after its last.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact entering each block.
    pub input: Vec<F>,
    /// Fact leaving each block.
    pub output: Vec<F>,
}

/// Runs `analysis` to its fixed point over `graph`.
///
/// Indirect terminators are handled through a single conservative
/// channel rather than materialized edges: every indirect block's
/// out-fact joins the channel, and the channel joins every block's
/// in-fact (any block leader is a potential indirect target). Programs
/// without indirect flow pay nothing.
pub fn solve<A: Analysis>(graph: &FlowGraph, analysis: &A) -> Solution<A::Fact> {
    let n = graph.len();
    let mut input: Vec<A::Fact> = vec![analysis.top(); n];
    let mut output: Vec<A::Fact> = vec![analysis.top(); n];
    let mut chan = analysis.top();
    let mut queued = vec![false; n];
    let mut work: std::collections::VecDeque<u32> = std::collections::VecDeque::new();

    let boundary = analysis.boundary();
    for &b in &graph.entries {
        analysis.join(&mut input[b as usize], &boundary);
        work.push_back(b);
    }
    // Indirect targets are unknown: any block may start a path, so the
    // conservative channel below seeds them; entries suffice here.
    // Every block still gets processed at least once.
    for b in 0..n as u32 {
        if !work.contains(&b) {
            work.push_back(b);
        }
    }
    for &b in &work {
        queued[b as usize] = true;
    }

    while let Some(b) = work.pop_front() {
        queued[b as usize] = false;
        let span = graph.map.blocks[b as usize];
        let mut fact = input[b as usize].clone();
        for u in span.first..span.end() {
            analysis.transfer(u, &mut fact);
        }
        if fact == output[b as usize] {
            continue;
        }
        output[b as usize] = fact;

        // Propagate along the successor edges.
        let push = |t: u32,
                    input: &mut Vec<A::Fact>,
                    work: &mut std::collections::VecDeque<u32>,
                    queued: &mut Vec<bool>| {
            if analysis.join(&mut input[t as usize], &output[b as usize]) && !queued[t as usize] {
                queued[t as usize] = true;
                work.push_back(t);
            }
        };
        for &t in &graph.succs[b as usize] {
            push(t, &mut input, &mut work, &mut queued);
        }

        // Conservative indirect channel.
        if graph.indirect.contains(&b) && analysis.join(&mut chan, &output[b as usize]) {
            for t in 0..n as u32 {
                push(t, &mut input, &mut work, &mut queued);
            }
        }
    }
    Solution { input, output }
}

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

/// Category of one static-analysis finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A block no path from any entry reaches.
    UnreachableBlock,
    /// A register read some path reaches with no prior write.
    UseBeforeDef,
    /// A provably-constant store that cannot hit mapped memory.
    WildStore,
    /// A trace side exit that does not land on a block leader.
    TraceExit,
    /// A call the callee unconditionally re-issues — unbounded
    /// recursion.
    UnboundedRecursion,
}

impl FindingKind {
    /// Stable machine name, as emitted in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::UnreachableBlock => "unreachable-block",
            FindingKind::UseBeforeDef => "use-before-def",
            FindingKind::WildStore => "wild-store",
            FindingKind::TraceExit => "trace-exit",
            FindingKind::UnboundedRecursion => "unbounded-recursion",
        }
    }
}

/// One static-analysis finding, anchored to a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// Unit (table index) the finding anchors to.
    pub unit: u32,
    /// Source address of that unit.
    pub pc: u32,
    /// Block id containing the unit.
    pub block: u32,
    /// Human-readable description.
    pub message: String,
}

// ---------------------------------------------------------------------
// Analysis 1: reachability
// ---------------------------------------------------------------------

struct Reach;

impl Analysis for Reach {
    type Fact = bool;
    fn top(&self) -> bool {
        false
    }
    fn boundary(&self) -> bool {
        true
    }
    fn join(&self, into: &mut bool, from: &bool) -> bool {
        let changed = *from && !*into;
        *into |= *from;
        changed
    }
    fn transfer(&self, _unit: u32, _fact: &mut bool) {}
}

/// Per-block reachability from the entry set (conservative: one
/// reachable indirect terminator marks every block reachable).
pub fn reachable_blocks(graph: &FlowGraph) -> Vec<bool> {
    solve(graph, &Reach).input
}

/// Flags blocks no path from any entry reaches. One finding per
/// unreachable block, anchored at its first unit.
pub fn reachability(prog: &Program, graph: &FlowGraph) -> Vec<Finding> {
    let reach = reachable_blocks(graph);
    reach
        .iter()
        .enumerate()
        .filter(|&(_, r)| !r)
        .map(|(b, _)| {
            let first = graph.map.blocks[b].first;
            Finding {
                kind: FindingKind::UnreachableBlock,
                unit: first,
                pc: prog.units[first as usize].pc,
                block: b as u32,
                message: format!(
                    "block {b} at {:#x} is unreachable from every entry",
                    prog.units[first as usize].pc
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Analysis 2: use-before-def
// ---------------------------------------------------------------------

fn reg_bit(r: u8) -> u64 {
    debug_assert!((r as usize) < NUM_REGS);
    1u64 << r
}

fn mask_of(regs: &[u8]) -> u64 {
    regs.iter().copied().map(reg_bit).fold(0, |a, b| a | b)
}

/// Forward must-define: bit `r` set ⇔ every path from entry to this
/// point writes register `r`.
struct MustDef<'p> {
    prog: &'p Program,
}

impl Analysis for MustDef<'_> {
    type Fact = u64;
    fn top(&self) -> u64 {
        u64::MAX
    }
    fn boundary(&self) -> u64 {
        mask_of(&self.prog.entry_defined)
    }
    fn join(&self, into: &mut u64, from: &u64) -> bool {
        let next = *into & *from;
        let changed = next != *into;
        *into = next;
        changed
    }
    fn transfer(&self, unit: u32, fact: &mut u64) {
        *fact |= mask_of(&self.prog.units[unit as usize].writes);
    }
}

/// Flags register reads some path from entry reaches with no prior
/// write. `whitelist` is a register mask exempt from the check (the
/// shard-id register `%d15`, seeded by the fleet loader).
pub fn use_before_def(prog: &Program, graph: &FlowGraph, whitelist: u64) -> Vec<Finding> {
    let defs = solve(graph, &MustDef { prog });
    let reach = reachable_blocks(graph);
    let mut findings = Vec::new();
    for (b, span) in graph.map.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let mut defined = defs.input[b];
        for u in span.first..span.end() {
            let unit = &prog.units[u as usize];
            for &r in &unit.reads {
                if defined & reg_bit(r) == 0 && whitelist & reg_bit(r) == 0 {
                    findings.push(Finding {
                        kind: FindingKind::UseBeforeDef,
                        unit: u,
                        pc: unit.pc,
                        block: b as u32,
                        message: format!(
                            "{} read at {:#x} but never written on some path from entry",
                            (prog.reg_name)(r),
                            unit.pc
                        ),
                    });
                }
            }
            defined |= mask_of(&unit.writes);
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 3: constant propagation + memory-map checking
// ---------------------------------------------------------------------

/// One register's constant-propagation value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CVal {
    /// No path has defined the register yet (lattice top).
    Undef,
    /// Every path defines the register to this value.
    Const(u32),
    /// Paths disagree, or the value is not statically known.
    Any,
}

impl CVal {
    fn join(self, other: CVal) -> CVal {
        match (self, other) {
            (CVal::Undef, x) | (x, CVal::Undef) => x,
            (CVal::Const(a), CVal::Const(b)) if a == b => CVal::Const(a),
            _ => CVal::Any,
        }
    }
}

/// The constant-propagation fact: one [`CVal`] per register slot.
pub type ConstFact = Box<[CVal]>;

struct ConstProp<'p> {
    prog: &'p Program,
}

fn apply_const_ops(unit: &GuestUnit, fact: &mut ConstFact) {
    // Destination registers an abstract op will refine read their
    // sources from the pre-state; everything else the unit writes
    // coarsens to Any first.
    let results: Vec<(u8, CVal)> = unit
        .ops
        .iter()
        .map(|op| match *op {
            AbsOp::Const { dst, value } => (dst, CVal::Const(value)),
            AbsOp::AddImm { dst, src, imm } => (
                dst,
                match fact[src as usize] {
                    CVal::Const(v) => CVal::Const(v.wrapping_add(imm)),
                    other => other,
                },
            ),
            AbsOp::Copy { dst, src } => (dst, fact[src as usize]),
        })
        .collect();
    for &w in &unit.writes {
        fact[w as usize] = CVal::Any;
    }
    for (dst, v) in results {
        fact[dst as usize] = v;
    }
}

impl Analysis for ConstProp<'_> {
    type Fact = ConstFact;
    fn top(&self) -> ConstFact {
        vec![CVal::Undef; NUM_REGS].into_boxed_slice()
    }
    fn boundary(&self) -> ConstFact {
        // Registers hold unknown junk at entry, except the seeds the
        // loader writes.
        let mut fact = vec![CVal::Any; NUM_REGS].into_boxed_slice();
        for &(r, v) in &self.prog.entry_consts {
            fact[r as usize] = CVal::Const(v);
        }
        fact
    }
    fn join(&self, into: &mut ConstFact, from: &ConstFact) -> bool {
        let mut changed = false;
        for (a, &b) in into.iter_mut().zip(from.iter()) {
            let next = a.join(b);
            changed |= next != *a;
            *a = next;
        }
        changed
    }
    fn transfer(&self, unit: u32, fact: &mut ConstFact) {
        apply_const_ops(&self.prog.units[unit as usize], fact);
    }
}

/// One valid guest address range (half-open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRange {
    /// First valid address.
    pub start: u32,
    /// One past the last valid address.
    pub end: u32,
    /// What the range is (section name, device name) — for findings.
    pub label: String,
}

/// The set of addresses a guest access may legally touch: loaded image
/// sections, the stack region, and the MMIO windows devices actually
/// claim. Assembled by the embedding layer (`cabt-sim`), which knows
/// the platform.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemMap {
    /// Valid ranges, in no particular order.
    pub ranges: Vec<MemRange>,
}

impl MemMap {
    /// Adds a range (ignored when empty).
    pub fn add(&mut self, start: u32, end: u32, label: &str) {
        if end > start {
            self.ranges.push(MemRange {
                start,
                end,
                label: label.to_string(),
            });
        }
    }

    /// The range fully containing `[addr, addr + len)`, if any.
    pub fn covers(&self, addr: u32, len: u32) -> Option<&MemRange> {
        let end = addr.checked_add(len)?;
        self.ranges.iter().find(|r| addr >= r.start && end <= r.end)
    }
}

/// Runs constant propagation and flags stores whose address is
/// provably constant yet lands outside every [`MemMap`] range — a
/// store that can only hit open bus. Loads are not flagged (a wild
/// load is a bug too, but reads of open bus return a benign pattern
/// on this platform; stores silently vanish).
pub fn const_stores(prog: &Program, graph: &FlowGraph, mem: &MemMap) -> Vec<Finding> {
    let consts = solve(graph, &ConstProp { prog });
    let reach = reachable_blocks(graph);
    let mut findings = Vec::new();
    for (b, span) in graph.map.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let mut fact = consts.input[b].clone();
        for u in span.first..span.end() {
            let unit = &prog.units[u as usize];
            if let Some(m) = unit.mem {
                if m.store {
                    if let CVal::Const(base) = fact[m.base as usize] {
                        let addr = base.wrapping_add(m.offset as u32);
                        if mem.covers(addr, u32::from(m.bytes)).is_none() {
                            findings.push(Finding {
                                kind: FindingKind::WildStore,
                                unit: u,
                                pc: unit.pc,
                                block: b as u32,
                                message: format!(
                                    "store at {:#x} always writes {:#x} ({} bytes), \
                                     which maps to no image section, stack or device",
                                    unit.pc, addr, m.bytes
                                ),
                            });
                        }
                    }
                }
            }
            apply_const_ops(unit, &mut fact);
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Analysis 4: loop structure, trace prediction, side-exit verification
// ---------------------------------------------------------------------

/// One natural loop: a back edge's header plus every block that can
/// reach the back edge without passing the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Header block id (dominates every block in the loop).
    pub head: u32,
    /// Member block ids, sorted ascending; always contains `head`.
    pub blocks: Vec<u32>,
}

/// Finds natural loops over the *explicit* block edges. Indirect
/// terminators contribute no edges here: a loop closed through a
/// computed jump is invisible to this analysis (documented soundness
/// caveat — prediction may miss such loops, never invent one).
pub fn natural_loops(graph: &FlowGraph) -> Vec<NaturalLoop> {
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    let reach = reachable_blocks(graph);
    // Iterative dominator sets over reachable blocks (bitset words).
    let words = n.div_ceil(64);
    let full = vec![u64::MAX; words];
    let mut dom: Vec<Vec<u64>> = vec![full.clone(); n];
    let bit = |set: &[u64], b: usize| set[b / 64] >> (b % 64) & 1 == 1;
    for &e in &graph.entries {
        let mut only = vec![0u64; words];
        only[e as usize / 64] |= 1 << (e as usize % 64);
        dom[e as usize] = only;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if !reach[b] || graph.entries.contains(&(b as u32)) {
                continue;
            }
            let mut next = full.clone();
            let mut any_pred = false;
            for &p in &graph.preds[b] {
                if !reach[p as usize] {
                    continue;
                }
                any_pred = true;
                for (w, pw) in next.iter_mut().zip(dom[p as usize].iter()) {
                    *w &= pw;
                }
            }
            if !any_pred {
                // Reachable only through indirect flow: no explicit
                // dominator information — dominated by itself alone.
                next = vec![0u64; words];
            }
            next[b / 64] |= 1 << (b % 64);
            if next != dom[b] {
                dom[b] = next;
                changed = true;
            }
        }
    }

    // Back edges u → h with h ∈ dom(u); loop body by reverse reach.
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for u in 0..n {
        if !reach[u] {
            continue;
        }
        for &h in &graph.succs[u] {
            if !bit(&dom[u], h as usize) {
                continue;
            }
            let mut body = vec![false; n];
            body[h as usize] = true;
            let mut stack = vec![u as u32];
            while let Some(b) = stack.pop() {
                if body[b as usize] {
                    continue;
                }
                body[b as usize] = true;
                stack.extend(graph.preds[b as usize].iter().copied());
            }
            let blocks: Vec<u32> = (0..n as u32).filter(|&b| body[b as usize]).collect();
            // Merge loops sharing a header (multiple back edges).
            if let Some(l) = loops.iter_mut().find(|l| l.head == h) {
                let mut merged: Vec<u32> = l.blocks.iter().copied().chain(blocks).collect();
                merged.sort_unstable();
                merged.dedup();
                l.blocks = merged;
            } else {
                loops.push(NaturalLoop { head: h, blocks });
            }
        }
    }
    loops.sort_by_key(|l| l.head);
    loops
}

/// A statically predicted hot trace: the chain [`predict_traces`]
/// expects the dynamic trace tier to grow from a loop header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictedTrace {
    /// Head block (a natural-loop header).
    pub head: u32,
    /// Chained block ids, starting with `head`.
    pub blocks: Vec<u32>,
    /// True when the chain's last block has an edge back to `head`
    /// (the loop-trace specialization the tiers apply).
    pub loop_back: bool,
}

/// Predicts, per natural-loop header, the chain the dynamic trace tier
/// ([`crate::trace::grow`]) will fuse once the header turns hot: start
/// at the header and follow the edge that stays inside the loop
/// (preferring the fall edge when both do — the tier's tie-break on a
/// balanced branch is execution-dependent, so prediction takes the
/// cheaper edge). Stops at the tier's [`MAX_TRACE_BLOCKS`] cap, on
/// leaving the loop, on closing back to the header, or on revisiting a
/// block.
pub fn predict_traces(graph: &FlowGraph, loops: &[NaturalLoop]) -> Vec<PredictedTrace> {
    loops
        .iter()
        .map(|l| {
            let in_loop = |b: u32| l.blocks.binary_search(&b).is_ok();
            let mut blocks = vec![l.head];
            let mut loop_back = false;
            let mut cur = l.head;
            while (blocks.len() as u32) < MAX_TRACE_BLOCKS {
                let span = graph.map.blocks[cur as usize];
                let term = graph.flows[span.last() as usize];
                let fall = if matches!(term, UnitFlow::Halt) {
                    NO_BLOCK
                } else {
                    span.fall
                };
                // Prefer the fall edge when it stays in the loop.
                let next = [fall, span.taken]
                    .into_iter()
                    .find(|&e| e != NO_BLOCK && in_loop(e));
                let Some(next) = next else { break };
                if next == l.head {
                    loop_back = true;
                    break;
                }
                if blocks.contains(&next) {
                    break;
                }
                blocks.push(next);
                cur = next;
            }
            PredictedTrace {
                head: l.head,
                blocks,
                loop_back,
            }
        })
        .collect()
}

/// Statically verifies a trace chain's side exits: every edge out of
/// every chained block must either leave the table (`NO_BLOCK` — the
/// engine's fault path) or land on a block *leader* (`loc[first]` of
/// the target block names the block itself at offset 0), and every
/// chain seam must be a real edge of the map. This is the static form
/// of the leader assertion the differential tests used to make only
/// dynamically.
pub fn verify_trace_exits(
    graph: &FlowGraph,
    chain: &[u32],
    pc_of: impl Fn(u32) -> u32,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut flag = |unit: u32, block: u32, message: String| {
        findings.push(Finding {
            kind: FindingKind::TraceExit,
            unit,
            pc: pc_of(unit),
            block,
            message,
        });
    };
    for (i, &b) in chain.iter().enumerate() {
        let span = graph.map.blocks[b as usize];
        // Mid-block units must be straight-line: a side exit can only
        // come from the terminator.
        for u in span.first..span.last() {
            if graph.flows[u as usize].ends_block() {
                flag(u, b, format!("unit {u} exits mid-block {b}"));
            }
        }
        for e in [span.fall, span.taken] {
            if e == NO_BLOCK {
                continue;
            }
            let target = graph.map.blocks[e as usize];
            let loc = graph.map.loc[target.first as usize];
            if loc.block != e || loc.offset != 0 {
                flag(
                    span.last(),
                    b,
                    format!("exit of block {b} lands inside block {e} (not a leader)"),
                );
            }
        }
        if let Some(&next) = chain.get(i + 1) {
            if span.fall != next && span.taken != next {
                flag(
                    span.last(),
                    b,
                    format!("trace seam {b} → {next} is not an edge of the block map"),
                );
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Unbounded recursion
// ---------------------------------------------------------------------

/// Flags calls a callee *unconditionally* re-issues: starting from a
/// call target, following only unconditional edges (falls, jumps and
/// further calls — any conditional branch, return or halt bounds the
/// walk), a call back to the same target means the program recurses
/// with no base case. Conservative in the no-false-positive direction:
/// recursion guarded by any branch is not flagged.
pub fn unbounded_recursion(prog: &Program, graph: &FlowGraph) -> Vec<Finding> {
    let mut targets: Vec<u32> = prog.units.iter().filter_map(|u| u.call).collect();
    targets.sort_unstable();
    targets.dedup();
    let mut findings = Vec::new();
    for &f in &targets {
        if f as usize >= prog.units.len() {
            continue;
        }
        let mut visited = vec![false; graph.len()];
        let mut stack = vec![graph.map.loc[f as usize].block];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut visited[b as usize], true) {
                continue;
            }
            let span = graph.map.blocks[b as usize];
            let last = span.last();
            let unit = &prog.units[last as usize];
            match (unit.call, graph.flows[last as usize]) {
                (Some(t), _) if t == f => {
                    findings.push(Finding {
                        kind: FindingKind::UnboundedRecursion,
                        unit: last,
                        pc: unit.pc,
                        block: b,
                        message: format!(
                            "call at {:#x} unconditionally recurses into {:#x}",
                            unit.pc, prog.units[f as usize].pc
                        ),
                    });
                }
                // Unconditional transfers (jumps and other calls)
                // continue the walk; so does plain fall-through at a
                // leader split.
                (_, UnitFlow::Jump { target: Some(t) }) => {
                    stack.push(graph.map.loc[t as usize].block);
                }
                (_, UnitFlow::Straight) if span.fall != NO_BLOCK => {
                    stack.push(span.fall);
                }
                // Branches, indirect flow (returns), halts and
                // off-table jumps bound the recursion walk.
                _ => {}
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// The combined pass
// ---------------------------------------------------------------------

/// Everything one analysis pass produces: the findings plus the
/// structural summaries tooling reports alongside them.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// All findings, sorted by source address.
    pub findings: Vec<Finding>,
    /// Number of basic blocks analyzed.
    pub blocks: usize,
    /// Natural loops found.
    pub loops: Vec<NaturalLoop>,
    /// Statically predicted hot trace chains (one per loop header).
    pub predicted: Vec<PredictedTrace>,
    /// `Some(reason)` when the program was *not* analyzed — e.g. its
    /// entry point lies outside the decoded table, so no dataflow fact
    /// would be grounded. A skipped report carries no findings and
    /// must not be read as a clean pass; front ends surface the reason
    /// as a warning row.
    pub skipped: Option<&'static str>,
}

impl AnalysisReport {
    /// True when the program was analyzed and no analysis produced a
    /// finding. A skipped report (see [`AnalysisReport::skipped`]) is
    /// *not* clean — nothing was proven about it.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.skipped.is_none()
    }

    /// An empty report marked skipped for `reason`.
    pub fn skip(reason: &'static str) -> AnalysisReport {
        AnalysisReport {
            findings: Vec::new(),
            blocks: 0,
            loops: Vec::new(),
            predicted: Vec::new(),
            skipped: Some(reason),
        }
    }
}

/// Runs every shipped analysis over a lowered program: reachability,
/// use-before-def (`whitelist` masks exempt registers), constant-store
/// checking against `mem`, static side-exit verification of every
/// predicted trace, and unbounded-recursion detection.
pub fn analyze_program(prog: &Program, mem: &MemMap, whitelist: u64) -> AnalysisReport {
    let graph = prog.graph();
    let loops = natural_loops(&graph);
    let predicted = predict_traces(&graph, &loops);
    let mut findings = reachability(prog, &graph);
    findings.extend(use_before_def(prog, &graph, whitelist));
    findings.extend(const_stores(prog, &graph, mem));
    for p in &predicted {
        findings.extend(verify_trace_exits(&graph, &p.blocks, |u| {
            prog.units[u as usize].pc
        }));
    }
    findings.extend(unbounded_recursion(prog, &graph));
    findings.sort_by_key(|f| (f.pc, f.unit));
    AnalysisReport {
        findings,
        blocks: graph.len(),
        loops,
        predicted,
        skipped: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(flow: UnitFlow) -> GuestUnit {
        GuestUnit {
            pc: 0,
            flow,
            reads: Vec::new(),
            writes: Vec::new(),
            ops: Vec::new(),
            mem: None,
            call: None,
        }
    }

    fn prog(units: Vec<GuestUnit>) -> Program {
        let n = units.len();
        let mut p = Program {
            units,
            entries: vec![0],
            contiguous: vec![true; n],
            entry_defined: Vec::new(),
            entry_consts: Vec::new(),
            reg_name: |r| format!("r{r}"),
        };
        for (i, u) in p.units.iter_mut().enumerate() {
            u.pc = i as u32 * 4;
        }
        p
    }

    #[test]
    fn reachability_follows_edges_not_halt_fall() {
        // 0: jump 2 / 1: straight (dead) / 2: halt / 3: dead after halt
        let p = prog(vec![
            unit(UnitFlow::Jump { target: Some(2) }),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Halt),
            unit(UnitFlow::Halt),
        ]);
        let g = p.graph();
        let f = reachability(&p, &g);
        let pcs: Vec<u32> = f.iter().map(|f| f.pc).collect();
        assert_eq!(pcs, vec![4, 12], "dead block and post-halt block");
    }

    #[test]
    fn indirect_flow_marks_everything_reachable() {
        let p = prog(vec![
            unit(UnitFlow::Indirect),
            unit(UnitFlow::Straight), // only reachable as an indirect target
            unit(UnitFlow::Halt),
        ]);
        let g = p.graph();
        assert!(reachability(&p, &g).is_empty());
    }

    #[test]
    fn use_before_def_needs_every_path() {
        // 0: branch → 2 / 1: write r1 / 2: read r1 (undefined via taken path)
        let mut units = vec![
            unit(UnitFlow::Branch { target: Some(2) }),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Halt),
        ];
        units[1].writes = vec![1];
        units[2].reads = vec![1];
        let p = prog(units);
        let g = p.graph();
        let f = use_before_def(&p, &g, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::UseBeforeDef);
        assert_eq!(f[0].unit, 2);
        // Whitelisting the register silences it.
        assert!(use_before_def(&p, &g, reg_bit(1)).is_empty());
    }

    #[test]
    fn must_def_join_is_intersection_on_loops() {
        // 0: write r0 / 1: read r0, branch → 1 / 2: halt. The back
        // edge must not erase the entry definition.
        let mut units = vec![
            unit(UnitFlow::Straight),
            unit(UnitFlow::Branch { target: Some(1) }),
            unit(UnitFlow::Halt),
        ];
        units[0].writes = vec![0];
        units[1].reads = vec![0];
        let p = prog(units);
        let g = p.graph();
        assert!(use_before_def(&p, &g, 0).is_empty());
    }

    #[test]
    fn const_store_checked_against_map() {
        // r1 = 0x100; r1 += 0x20; store [r1+4] → 0x124, outside map.
        let mut units = vec![
            unit(UnitFlow::Straight),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Halt),
        ];
        units[0].writes = vec![1];
        units[0].ops = vec![AbsOp::Const {
            dst: 1,
            value: 0x100,
        }];
        units[1].writes = vec![1];
        units[1].ops = vec![AbsOp::AddImm {
            dst: 1,
            src: 1,
            imm: 0x20,
        }];
        units[2].mem = Some(MemAccess {
            base: 1,
            offset: 4,
            bytes: 4,
            store: true,
        });
        let p = prog(units);
        let g = p.graph();
        let mut mem = MemMap::default();
        mem.add(0x0, 0x120, "image");
        let f = const_stores(&p, &g, &mem);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::WildStore);
        // Widen the map and the finding disappears.
        mem.add(0x120, 0x130, "more");
        assert!(const_stores(&p, &g, &mem).is_empty());
    }

    #[test]
    fn const_join_demotes_disagreeing_paths() {
        // 0: branch → 2 (r1 stays entry-Any) / 1: r1 = 0x50 / 2: store
        // [r1] — r1 is Any at the join, so nothing is provable.
        let mut units = vec![
            unit(UnitFlow::Branch { target: Some(2) }),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Halt),
        ];
        units[1].writes = vec![1];
        units[1].ops = vec![AbsOp::Const {
            dst: 1,
            value: 0x50,
        }];
        units[2].mem = Some(MemAccess {
            base: 1,
            offset: 0,
            bytes: 4,
            store: true,
        });
        let p = prog(units);
        let g = p.graph();
        assert!(const_stores(&p, &g, &MemMap::default()).is_empty());
    }

    #[test]
    fn loops_and_prediction() {
        // 0: straight / 1: body, branch → 1 / 2: halt
        let units = vec![
            unit(UnitFlow::Straight),
            unit(UnitFlow::Branch { target: Some(1) }),
            unit(UnitFlow::Halt),
        ];
        let p = prog(units);
        let g = p.graph();
        let loops = natural_loops(&g);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].head, 1);
        assert_eq!(loops[0].blocks, vec![1]);
        let predicted = predict_traces(&g, &loops);
        assert_eq!(predicted.len(), 1);
        assert_eq!(predicted[0].blocks, vec![1]);
        assert!(predicted[0].loop_back);
        assert!(verify_trace_exits(&g, &predicted[0].blocks, |_| 0).is_empty());
    }

    #[test]
    fn seam_verification_rejects_non_edges() {
        let units = vec![
            unit(UnitFlow::Jump { target: Some(2) }),
            unit(UnitFlow::Straight),
            unit(UnitFlow::Halt),
        ];
        let p = prog(units);
        let g = p.graph();
        // Chain 0 → 1 is not an edge (0 jumps to 2).
        let f = verify_trace_exits(&g, &[0, 1], |_| 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::TraceExit);
    }

    #[test]
    fn unconditional_recursion_found_guarded_not() {
        // Direct self-call: 0: call → 0.
        let mut units = vec![
            unit(UnitFlow::Jump { target: Some(0) }),
            unit(UnitFlow::Halt),
        ];
        units[0].call = Some(0);
        let p = prog(units);
        let g = p.graph();
        let f = unbounded_recursion(&p, &g);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::UnboundedRecursion);

        // Same call, but guarded by a branch: not flagged.
        let mut units = vec![
            unit(UnitFlow::Branch { target: Some(3) }),
            unit(UnitFlow::Jump { target: Some(0) }),
            unit(UnitFlow::Halt),
            unit(UnitFlow::Halt),
        ];
        units[1].call = Some(0);
        let mut p = prog(units);
        p.entries = vec![0, 1];
        let g = p.graph();
        assert!(unbounded_recursion(&p, &g).is_empty());
    }
}
