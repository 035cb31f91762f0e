//! The closure-compiled dispatch core of the golden model — the
//! paper's compiled-simulation thesis applied to our own interpreter.
//!
//! At load time every instruction of the pre-decoded table is *fused*
//! into a specialized closure: its operands, I-cache line span, timing
//! record and operand sets are captured as constants, so executing an
//! instruction is one indirect call into a body with no decode match,
//! no table-entry copy and no per-step dispatch-cache maintenance. The
//! compiled core steps these ops one per step wherever no trace is
//! formed. Block structure comes from the shared
//! [`cabt_exec::blocks::BlockMap`] (the same partition the translator's
//! CFG uses): during a warm-up window the core profiles blocks and fuses
//! hot chains of them into superblocks ([`compile_trace`]).
//!
//! Bit-identity with the naive interpreter is a design constraint, not
//! an accident: every closure performs the *same sequence* of cache
//! accesses, timing-model calls (`step_pre` is stateful — pairing,
//! operand scoreboards — and must run per instruction) and statistic
//! updates the naive step performs, and memory faults unwind with the
//! program counter parked on the faulting instruction. What the
//! compiler exploits is what is *statically known*:
//!
//! * inside a trace, the retirement counter (`RunStats::instructions`)
//!   is added once per trace exit (reconstructed on the fault path),
//!   and `run_until` budget checks happen per *trace* — traces are the
//!   only multi-instruction stop points (documented on
//!   [`DispatchMode::Trace`](crate::sim::DispatchMode));
//! * fetch line *runs* inside a trace are proved at build time: an op
//!   whose first line is the line the previous op just touched takes
//!   the guaranteed-hit path ([`CacheSim::repeat_hit`]), and lead
//!   accesses probe the MRU way first
//!   ([`CacheSim::access_mru_first`]) — both counter- and
//!   LRU-identical to the full search;
//! * each instruction's issue class is pinned as a const generic, so
//!   the timing model's class dispatch folds away inside the closure
//!   ([`TimingModel::step_pre_class`]).
//!
//! A single op carries no line-run proof, so it may be entered from
//! anywhere: a mid-block entry (an indirect jump computed into the
//! middle of a block, or a debugger-forced pc) steps the same ops as
//! any other instruction.

use crate::arch::{CacheConfig, CacheSim, IssueClass, PreTiming, TimingModel, TimingState};
use crate::isa::{Instr, LdKind, StKind, RA};
use crate::sim::{route_load, route_store, Cpu, IoDevice, PreInstr, RunStats, SimError, NO_IDX};
use cabt_exec::blocks::{BlockMap, UnitFlow};
use cabt_exec::trace::TracePlan;
use cabt_isa::mem::Memory;

/// Where control goes after an op closure.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ctl {
    /// Straight-line op inside a trace segment: continue with the next
    /// op.
    Next,
    /// Exit through the fall-through edge.
    Fall,
    /// Exit through the direct-target edge.
    Taken,
    /// Exit to a computed address.
    Indirect(u32),
}

/// The mutable half of the simulator an op closure executes against —
/// a reborrow of the engine's own fields, split so the closure table
/// (borrowed shared) and the state (borrowed mutably) never alias.
pub(crate) struct Hot<'a> {
    pub cpu: &'a mut Cpu,
    pub mem: &'a mut Memory,
    pub io: Option<&'a mut dyn IoDevice>,
    pub tstate: &'a mut TimingState,
    pub cache: &'a mut Option<CacheSim>,
    pub cache_cfg: CacheConfig,
    pub model: &'a TimingModel,
    pub stats: &'a mut RunStats,
    pub halted: &'a mut bool,
}

impl Hot<'_> {
    /// Instruction-cache accounting over a line span of *lead*
    /// accesses (full tag search per line) — byte-for-byte the
    /// naive core's fetch prologue.
    #[inline]
    fn icache(&mut self, line_first: u32, line_last: u32) {
        if let Some(cache) = self.cache.as_mut() {
            let mut line = line_first;
            loop {
                self.stats.icache_accesses += 1;
                if !cache.access_mru_first(line) {
                    self.stats.icache_misses += 1;
                    self.stats.stall_cycles += self.cache_cfg.miss_penalty as u64;
                    self.tstate.stall(self.cache_cfg.miss_penalty as u64);
                }
                if line == line_last {
                    break;
                }
                line += self.cache_cfg.line_bytes;
            }
        }
    }

    /// Per-op fetch accounting with the trace compiler's static
    /// line-run knowledge: when the op's first line is the line the
    /// previous op in the trace just touched (`m.first_repeat`,
    /// proved at closure-build time), that access is a guaranteed
    /// MRU hit — only the counters move ([`CacheSim::repeat_hit`]) —
    /// and any further lines of the span get full lead accesses.
    /// Valid because a trace always enters at its head leader and
    /// runs its ops in order within one dispatch.
    #[inline]
    fn icache_op(&mut self, m: &Meta) {
        if self.cache.is_none() {
            return;
        }
        if m.first_repeat {
            self.stats.icache_accesses += 1;
            if let Some(cache) = self.cache.as_mut() {
                cache.repeat_hit();
            }
            if m.line_last != m.line_first {
                self.icache(m.line_first + self.cache_cfg.line_bytes, m.line_last);
            }
        } else {
            self.icache(m.line_first, m.line_last);
        }
    }

    #[inline]
    fn load(&mut self, addr: u32, kind: LdKind) -> Result<u32, SimError> {
        route_load(self.mem, self.io.as_deref_mut(), self.tstate, addr, kind)
    }

    #[inline]
    fn store(&mut self, addr: u32, kind: StKind, value: u32) -> Result<(), SimError> {
        route_store(
            self.mem,
            self.io.as_deref_mut(),
            self.tstate,
            addr,
            kind,
            value,
        )
    }

    /// Effective address with optional post-increment (mirrors
    /// `Simulator::ea`; `off` is the sign-extended offset).
    #[inline]
    fn ea(&mut self, base: u8, off: u32, postinc: bool) -> u32 {
        let b = self.cpu.a(base);
        if postinc {
            self.cpu.set_a(base, b.wrapping_add(off));
            b
        } else {
            b.wrapping_add(off)
        }
    }
}

/// One fused instruction: fetch accounting + semantics + timing in a
/// single specialized body behind one indirect call.
pub(crate) type OpFn = Box<dyn Fn(&mut Hot<'_>) -> Result<Ctl, SimError> + Send>;

/// The compiled program: the shared block partition (the trace tier's
/// profile and plans index its blocks) plus one fused op per
/// instruction, parallel to the pre-decoded table. Each op is its own
/// terminator: a non-control op exits with [`Ctl::Fall`].
pub(crate) struct CompiledProgram {
    pub map: BlockMap,
    pub ops: Box<[OpFn]>,
}

/// The edge a trace seam expects control to leave through — the static
/// half of the side-exit guard ([`Ctl::Next`]/[`Ctl::Fall`] match a
/// `Fall` seam, [`Ctl::Taken`] a `Taken` seam, and [`Ctl::Indirect`]
/// never matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceCont {
    /// Continue through the fall-through edge.
    Fall,
    /// Continue through the direct-target edge.
    Taken,
}

/// One block of a fused trace: the block's op run (recompiled with
/// trace-wide line-run knowledge) plus the terminator's resolved exits
/// — the side-exit targets when the guard fails — and the seam guard
/// into the next segment.
pub(crate) struct TraceSeg {
    /// Fused ops. The *first* op's fetch prologue may carry a seam
    /// proof: inside a trace, control reaches segment `i + 1` only
    /// through segment `i`'s terminator, so the line that terminator
    /// ended on is a build-time fact — exactly the within-block
    /// line-run argument of [`Hot::icache_op`], extended across block
    /// seams.
    pub ops: Box<[OpFn]>,
    /// The same ops compiled *without* their fetch prologues, for the
    /// batched-fetch fast path: when every line in [`TraceSeg::lines`]
    /// is MRU-resident ([`CacheSim::mru_resident`]), each per-op access
    /// would be a pure hit with no tag/LRU movement, so the executor
    /// runs these and applies [`TraceSeg::accesses`] in one add after
    /// the segment completes — bit-identical, order-free accounting.
    /// (A same-line MRU hit is also exactly what the back-edge seam
    /// proof of [`CompiledTrace::loop_head_ops`] specializes, so the
    /// fast path needs no separate loop-head variant.)
    pub lean_ops: Box<[OpFn]>,
    /// Distinct fetch lines the segment touches, in fetch order —
    /// the residency guard of the batched-fetch fast path.
    pub lines: Box<[u32]>,
    /// Total instruction-cache accesses of one full segment execution.
    pub accesses: u32,
    /// Accesses performed by ops `0..=i` (fetch precedes execute, so a
    /// fault at op `i` has fetched exactly this many lines) — the
    /// batched path's fault reconstruction, mirroring how retirement
    /// is reconstructed.
    pub acc_prefix: Box<[u32]>,
    /// Source pc of each op — the fault path parks `cpu.pc` here.
    pub pcs: Box<[u32]>,
    /// Instruction-table index of the first op.
    pub first: u32,
    /// Architectural fall-through exit of the terminator.
    pub fall_pc: u32,
    /// Table index of the fall-through exit (`NO_IDX` off-image).
    pub fall_unit: u32,
    /// Direct-target exit.
    pub target_pc: u32,
    /// Table index of the direct-target exit.
    pub taken_unit: u32,
    /// The terminating instruction (what a completed step reports).
    pub term: Instr,
    /// The edge that continues the trace into the next segment
    /// (`None` on the final segment — the loop back edge, when there is
    /// one, lives on [`CompiledTrace::loop_cont`]).
    pub cont: Option<TraceCont>,
}

/// One fused superblock of the golden model's trace tier: segments in
/// execution order, plus the loop-trace specialization when the
/// selected chain closes back on its head.
pub(crate) struct CompiledTrace {
    pub segs: Box<[TraceSeg]>,
    /// For loop traces: the edge of the *last* segment that re-enters
    /// the head; the executor iterates in place while it matches.
    pub loop_cont: Option<TraceCont>,
    /// Loop-head specialization: the head segment's ops recompiled with
    /// the back-edge seam proved (on iterations ≥ 2 the previous
    /// dynamic instruction is the last segment's terminator, so its
    /// fetch line is a build-time fact too). Iteration 1 keeps the
    /// unproved `segs[0].ops` — control may enter the trace from
    /// anywhere.
    pub loop_head_ops: Option<Box<[OpFn]>>,
    /// Union of every segment's fetch lines — the whole-trace residency
    /// guard, checked *once* per trace step: while it holds, no op of
    /// any segment can move cache state, so it keeps holding through
    /// loop iterations and the executor batches all fetch accounting
    /// for the step into one add.
    pub lines: Box<[u32]>,
}

/// Compiles a selected superblock ([`cabt_exec::trace::grow`]) into its
/// fused form. Segments reuse [`compile_op`] — every op performs the
/// exact per-instruction work of a single compiled op, so trace
/// dispatch stays bit-identical — and the line-run analysis spans the
/// whole chain: within a block, an op whose first fetch line is the
/// line the previous op ended on repeats a just-touched line (a
/// guaranteed hit, proved here once instead of searched for at every
/// execution), and `prev_line` carries across seams, because a seam is
/// only crossed after the guard confirmed control left through the
/// expected edge, and on *both* edge kinds the previous dynamic fetch
/// is the terminator's last line.
pub(crate) fn compile_trace(
    table: &[PreInstr],
    map: &BlockMap,
    plan: &TracePlan,
    line_bytes: u32,
) -> CompiledTrace {
    let compile_span =
        |first: u32, end: u32, last: u32, mut prev_line: Option<u32>, fetch: bool| {
            (first..end)
                .map(|u| {
                    let pi = &table[u as usize];
                    let first_repeat = prev_line == Some(pi.line_first);
                    prev_line = Some(pi.line_last);
                    compile_op(pi, u == last, first_repeat, fetch)
                })
                .collect::<Box<[OpFn]>>()
        };
    let mut prev_line: Option<u32> = None;
    let segs: Box<[TraceSeg]> = plan
        .blocks
        .iter()
        .enumerate()
        .map(|(si, &b)| {
            let span = &map.blocks[b as usize];
            let last = span.last();
            let ops = compile_span(span.first, span.end(), last, prev_line, true);
            let lean_ops = compile_span(span.first, span.end(), last, None, false);
            prev_line = Some(table[last as usize].line_last);
            let pcs: Box<[u32]> = (span.first..span.end())
                .map(|u| table[u as usize].pc)
                .collect();
            // Static fetch plan of the segment: the distinct lines in
            // fetch order (pcs ascend within a block, so consecutive
            // dedup suffices) and the per-op cumulative access counts
            // the batched fast path applies.
            let mut lines: Vec<u32> = Vec::new();
            let mut accesses = 0u32;
            let acc_prefix: Box<[u32]> = (span.first..span.end())
                .map(|u| {
                    let pi = &table[u as usize];
                    let mut line = pi.line_first;
                    loop {
                        if lines.last() != Some(&line) {
                            lines.push(line);
                        }
                        accesses += 1;
                        if line == pi.line_last {
                            break;
                        }
                        line += line_bytes;
                    }
                    accesses
                })
                .collect();
            let t = &table[last as usize];
            TraceSeg {
                ops,
                lean_ops,
                lines: lines.into_boxed_slice(),
                accesses,
                acc_prefix,
                pcs,
                first: span.first,
                fall_pc: t.fall_pc,
                fall_unit: t.fall,
                target_pc: t.target_pc,
                taken_unit: t.target,
                term: t.instr,
                cont: plan.via_taken.get(si).map(|&taken| {
                    if taken {
                        TraceCont::Taken
                    } else {
                        TraceCont::Fall
                    }
                }),
            }
        })
        .collect();
    let loop_cont = plan.loop_back.then_some(if plan.loop_via_taken {
        TraceCont::Taken
    } else {
        TraceCont::Fall
    });
    let loop_head_ops = plan.loop_back.then(|| {
        // prev_line currently holds the final segment's terminator line
        // — the instruction the back edge is taken from.
        let span = &map.blocks[plan.blocks[0] as usize];
        compile_span(span.first, span.end(), span.last(), prev_line, true)
    });
    let mut lines: Vec<u32> = segs.iter().flat_map(|s| s.lines.iter().copied()).collect();
    lines.sort_unstable();
    lines.dedup();
    CompiledTrace {
        segs,
        loop_cont,
        loop_head_ops,
        lines: lines.into_boxed_slice(),
    }
}

/// The control-flow role the block builder needs, derived from a
/// pre-decoded entry — the shared [`Instr::unit_flow`] classifier, so
/// the engine's partition matches the translator's by construction.
fn flow_of(pi: &PreInstr) -> UnitFlow {
    pi.instr
        .unit_flow((pi.target != NO_IDX).then_some(pi.target))
}

/// Compiles the whole pre-decoded table into one fused op per
/// instruction over its block partition. `entry` is the table index of
/// the program entry (an extra block leader).
pub(crate) fn compile(table: &[PreInstr], entry: u32) -> CompiledProgram {
    let units: Vec<UnitFlow> = table.iter().map(flow_of).collect();
    let contiguous = |i: usize| table[i].fall == i as u32 + 1;
    let entries = (entry != NO_IDX).then_some(entry);
    let map = BlockMap::build(&units, contiguous, entries, false);
    let ops = table
        .iter()
        .map(|pi| compile_op(pi, true, false, true))
        .collect();
    CompiledProgram { map, ops }
}

/// Everything the fused prologue/epilogue needs, captured by value.
#[derive(Clone, Copy)]
struct Meta {
    line_first: u32,
    line_last: u32,
    /// The op's first line repeats the previous op's last line (static
    /// line-run analysis — see [`Hot::icache_op`]).
    first_repeat: bool,
    /// Whether the fused op carries its fetch prologue. `false` only
    /// for a trace segment's lean variant, whose fetch accounting the
    /// trace executor batches per segment (const-dispatched so the
    /// prologue folds out of the closure entirely).
    fetch: bool,
    timing: PreTiming,
}

impl Meta {
    fn of(pi: &PreInstr, first_repeat: bool, fetch: bool) -> Meta {
        Meta {
            line_first: pi.line_first,
            line_last: pi.line_last,
            first_repeat,
            fetch,
            timing: pi.timing,
        }
    }
}

/// Dispatches a fuse constructor to the const-class-specialized
/// monomorphization (the instruction's issue class is a build-time
/// constant, so the timing model's class branches fold away inside
/// the closure).
macro_rules! by_class {
    ($ctor:ident, $m:expr, $($arg:expr),+) => {
        match ($m.timing.class, $m.fetch) {
            (IssueClass::Ip, true) => $ctor::<false, false, true, _>($m, $($arg),+),
            (IssueClass::Ls, true) => $ctor::<true, false, true, _>($m, $($arg),+),
            (IssueClass::Br, true) => $ctor::<false, true, true, _>($m, $($arg),+),
            (IssueClass::Ip, false) => $ctor::<false, false, false, _>($m, $($arg),+),
            (IssueClass::Ls, false) => $ctor::<true, false, false, _>($m, $($arg),+),
            (IssueClass::Br, false) => $ctor::<false, true, false, _>($m, $($arg),+),
        }
    };
}

/// Fuses a non-conditional op: fetch accounting, the specialized body,
/// the timing-model step (dyn-taken `Some(true)`, as the naive
/// core passes for non-conditionals), then the fixed exit.
fn fuse<F>(m: Meta, exit: Ctl, body: F) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> Result<(), SimError> + Send + 'static,
{
    by_class!(fuse_class, m, exit, body)
}

fn fuse_class<const IS_LS: bool, const IS_BR: bool, const FETCH: bool, F>(
    m: Meta,
    exit: Ctl,
    body: F,
) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> Result<(), SimError> + Send + 'static,
{
    Box::new(move |h| {
        if FETCH {
            h.icache_op(&m);
        }
        body(h)?;
        h.model
            .step_pre_class::<IS_LS, IS_BR>(h.tstate, &m.timing, Some(true));
        Ok(exit)
    })
}

/// Fuses a conditional terminator: the body reports the dynamic
/// direction, which feeds the timing model and the branch statistics —
/// the compiled form of the naive step's branch bookkeeping.
fn fuse_cond<F>(m: Meta, body: F) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> bool + Send + 'static,
{
    by_class!(fuse_cond_class, m, body)
}

fn fuse_cond_class<const IS_LS: bool, const IS_BR: bool, const FETCH: bool, F>(
    m: Meta,
    body: F,
) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> bool + Send + 'static,
{
    Box::new(move |h| {
        if FETCH {
            h.icache_op(&m);
        }
        let t = body(h);
        h.model
            .step_pre_class::<IS_LS, IS_BR>(h.tstate, &m.timing, Some(t));
        h.stats.cond_branches += 1;
        if t {
            h.stats.taken += 1;
        }
        if m.timing.predicts_taken != Some(t) {
            h.stats.mispredicted += 1;
        }
        Ok(if t { Ctl::Taken } else { Ctl::Fall })
    })
}

/// Fuses an indirect terminator: the body computes the destination.
fn fuse_indirect<F>(m: Meta, body: F) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> u32 + Send + 'static,
{
    by_class!(fuse_indirect_class, m, body)
}

fn fuse_indirect_class<const IS_LS: bool, const IS_BR: bool, const FETCH: bool, F>(
    m: Meta,
    body: F,
) -> OpFn
where
    F: Fn(&mut Hot<'_>) -> u32 + Send + 'static,
{
    Box::new(move |h| {
        if FETCH {
            h.icache_op(&m);
        }
        let a = body(h);
        h.model
            .step_pre_class::<IS_LS, IS_BR>(h.tstate, &m.timing, Some(true));
        Ok(Ctl::Indirect(a))
    })
}

/// Compiles one instruction into its fused closure. `terminator` marks
/// the last op of a trace segment, or a lone op — straight-line ops
/// inside a segment continue with [`Ctl::Next`], the same op in
/// terminator position exits with [`Ctl::Fall`]. `first_repeat` is the
/// static line-run fact for the fetch prologue.
fn compile_op(pi: &PreInstr, terminator: bool, first_repeat: bool, fetch: bool) -> OpFn {
    let m = Meta::of(pi, first_repeat, fetch);
    // Exit of a non-control op, decided by segment position.
    let next = if terminator { Ctl::Fall } else { Ctl::Next };
    let fall_pc = pi.fall_pc;
    match pi.instr {
        Instr::Nop16 | Instr::Nop => fuse(m, next, |_| Ok(())),
        Instr::Debug16 => fuse(m, Ctl::Fall, |h| {
            *h.halted = true;
            Ok(())
        }),
        Instr::Ret16 => fuse_indirect(m, |h| h.cpu.a(RA.0)),
        Instr::Mov16 { d, imm7 } => {
            let v = imm7 as i32 as u32;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, v);
                Ok(())
            })
        }
        Instr::MovRR16 { d, s } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, h.cpu.d(s.0));
            Ok(())
        }),
        Instr::Add16 { d, s } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, h.cpu.d(d.0).wrapping_add(h.cpu.d(s.0)));
            Ok(())
        }),
        Instr::Sub16 { d, s } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, h.cpu.d(d.0).wrapping_sub(h.cpu.d(s.0)));
            Ok(())
        }),
        Instr::LdW16 { d, a } => fuse(m, next, move |h| {
            let addr = h.cpu.a(a.0);
            let v = h.load(addr, LdKind::W)?;
            h.cpu.set_d(d.0, v);
            Ok(())
        }),
        Instr::StW16 { a, s } => fuse(m, next, move |h| {
            let addr = h.cpu.a(a.0);
            h.store(addr, StKind::W, h.cpu.d(s.0))
        }),
        Instr::Mov { d, imm16 } => {
            let v = imm16 as i32 as u32;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, v);
                Ok(())
            })
        }
        Instr::Movh { d, imm16 } => {
            let v = (imm16 as u32) << 16;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, v);
                Ok(())
            })
        }
        Instr::MovhA { a, imm16 } => {
            let v = (imm16 as u32) << 16;
            fuse(m, next, move |h| {
                h.cpu.set_a(a.0, v);
                Ok(())
            })
        }
        Instr::Addi { d, s, imm16 } => {
            let v = imm16 as i32 as u32;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, h.cpu.d(s.0).wrapping_add(v));
                Ok(())
            })
        }
        Instr::Addih { d, s, imm16 } => {
            let v = (imm16 as u32) << 16;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, h.cpu.d(s.0).wrapping_add(v));
                Ok(())
            })
        }
        Instr::MovRR { d, s } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, h.cpu.d(s.0));
            Ok(())
        }),
        Instr::MovA { a, s } => fuse(m, next, move |h| {
            h.cpu.set_a(a.0, h.cpu.d(s.0));
            Ok(())
        }),
        Instr::MovD { d, a } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, h.cpu.a(a.0));
            Ok(())
        }),
        Instr::MovAA { a, s } => fuse(m, next, move |h| {
            h.cpu.set_a(a.0, h.cpu.a(s.0));
            Ok(())
        }),
        Instr::Lea { a, base, off16 } => {
            let off = off16 as i32 as u32;
            fuse(m, next, move |h| {
                h.cpu.set_a(a.0, h.cpu.a(base.0).wrapping_add(off));
                Ok(())
            })
        }
        Instr::Bin { op, d, s1, s2 } => fuse(m, next, move |h| {
            h.cpu.set_d(d.0, op.apply(h.cpu.d(s1.0), h.cpu.d(s2.0)));
            Ok(())
        }),
        Instr::BinI { op, d, s1, imm9 } => {
            let v = imm9 as i32 as u32;
            fuse(m, next, move |h| {
                h.cpu.set_d(d.0, op.apply(h.cpu.d(s1.0), v));
                Ok(())
            })
        }
        Instr::Madd { d, acc, s1, s2 } => fuse(m, next, move |h| {
            let v = h
                .cpu
                .d(acc.0)
                .wrapping_add(h.cpu.d(s1.0).wrapping_mul(h.cpu.d(s2.0)));
            h.cpu.set_d(d.0, v);
            Ok(())
        }),
        Instr::Msub { d, acc, s1, s2 } => fuse(m, next, move |h| {
            let v = h
                .cpu
                .d(acc.0)
                .wrapping_sub(h.cpu.d(s1.0).wrapping_mul(h.cpu.d(s2.0)));
            h.cpu.set_d(d.0, v);
            Ok(())
        }),
        Instr::Ld {
            kind,
            d,
            base,
            off10,
            postinc,
        } => {
            let off = off10 as i32 as u32;
            fuse(m, next, move |h| {
                let addr = h.ea(base.0, off, postinc);
                let v = h.load(addr, kind)?;
                h.cpu.set_d(d.0, v);
                Ok(())
            })
        }
        Instr::LdA {
            a,
            base,
            off10,
            postinc,
        } => {
            let off = off10 as i32 as u32;
            fuse(m, next, move |h| {
                let addr = h.ea(base.0, off, postinc);
                let v = h.load(addr, LdKind::W)?;
                h.cpu.set_a(a.0, v);
                Ok(())
            })
        }
        Instr::St {
            kind,
            s,
            base,
            off10,
            postinc,
        } => {
            let off = off10 as i32 as u32;
            fuse(m, next, move |h| {
                let addr = h.ea(base.0, off, postinc);
                h.store(addr, kind, h.cpu.d(s.0))
            })
        }
        Instr::StA {
            s,
            base,
            off10,
            postinc,
        } => {
            let off = off10 as i32 as u32;
            fuse(m, next, move |h| {
                let addr = h.ea(base.0, off, postinc);
                h.store(addr, StKind::W, h.cpu.a(s.0))
            })
        }
        Instr::J { .. } => fuse(m, Ctl::Taken, |_| Ok(())),
        Instr::Jl { .. } => fuse(m, Ctl::Taken, move |h| {
            h.cpu.set_a(RA.0, fall_pc);
            Ok(())
        }),
        Instr::Ji { a } => fuse_indirect(m, move |h| h.cpu.a(a.0)),
        Instr::Jli { a } => fuse_indirect(m, move |h| {
            let t = h.cpu.a(a.0);
            h.cpu.set_a(RA.0, fall_pc);
            t
        }),
        Instr::Jcond { cond, s1, s2, .. } => {
            fuse_cond(m, move |h| cond.eval(h.cpu.d(s1.0), h.cpu.d(s2.0)))
        }
        Instr::JcondZ { cond, s1, .. } => fuse_cond(m, move |h| cond.eval(h.cpu.d(s1.0), 0)),
        Instr::Loop { a, .. } => fuse_cond(m, move |h| {
            let v = h.cpu.a(a.0).wrapping_sub(1);
            h.cpu.set_a(a.0, v);
            v != 0
        }),
    }
}
