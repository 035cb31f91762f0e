//! Profile-guided superblock (trace) selection over the shared block
//! layer — the substrate of the trace-compiled dispatch tier.
//!
//! The paper's progression is "compile ever-larger units": instructions
//! (pre-decode), basic blocks (closure-compiled at load), and finally *hot
//! paths* spanning several blocks. This module owns the engine-neutral
//! half of that last step, mirroring [`blocks`](crate::blocks): one
//! [`TraceState`] per engine holds the per-block profile counters
//! collected during the warm-up window ([`TraceProfile`]), the plan of
//! every formed trace ([`TracePlan`], grown greedily along the hottest
//! successors by [`grow`]) and the formation/coverage counters the
//! bench harness reports ([`TraceStats`]). The state forms traces
//! ([`TraceState::form`]), serializes with its engine's snapshot and
//! checks a decoded image against the engine's block map
//! ([`TraceState::check`]). What an engine *derives* from a plan — the
//! golden model's fused closure chains — is engine-specific and lives
//! with that core's trace tier. The golden model is the one user: the
//! VLIW core dispatches packet by packet and forms no traces.
//!
//! The tier is profile-guided but still deterministic: counters advance
//! only with the engine's own (deterministic) execution, so the same
//! program forms the same traces in the same order on every run — a
//! requirement for the bit-identity and schedule-independence suites,
//! which compare trace-tier runs against the other dispatch tiers and
//! against resumed and restored runs, observable by observable.

use crate::blocks::{BlockMap, NO_BLOCK};
use cabt_isa::codec::{expect_len, ByteReader, ByteWriter, CodecError};

/// Knobs of the profile-guided trace tier. Engines expose these through
/// their session builder; the defaults suit the bundled workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Length of the warm-up window, counted in *profiled block
    /// dispatches*. While the window is open the engine counts block
    /// executions and exit edges and may form traces; once it closes,
    /// profiling stops (already-formed traces keep dispatching).
    pub warmup: u64,
    /// Execution count at which a block becomes a trace head: the
    /// engine grows a superblock the moment a block's counter *reaches*
    /// this value (so each head is attempted exactly once).
    pub hot_threshold: u32,
}

/// Maximum number of blocks fused into one trace (the length cap).
pub const MAX_TRACE_BLOCKS: u32 = 16;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            warmup: 200_000,
            hot_threshold: 64,
        }
    }
}

/// Per-block execution and exit-edge counters, collected by compiled
/// dispatch while the warm-up window is open. A few words per block:
/// how often the block dispatched, and how often its fall/taken exit
/// was the edge control actually left through.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Remaining profiled block dispatches in the warm-up window.
    pub warmup_left: u64,
    /// Per-block dispatch counts.
    pub exec: Vec<u32>,
    /// Per-block fall-edge exit counts.
    pub fall: Vec<u32>,
    /// Per-block taken-edge exit counts.
    pub taken: Vec<u32>,
}

impl TraceProfile {
    /// True while the warm-up window is open (counters still advance).
    #[inline]
    pub fn warm(&self) -> bool {
        self.warmup_left > 0
    }

    /// Records one dispatch of `block` and burns one warm-up slot.
    /// Returns true exactly when the block's counter *reaches*
    /// `hot_threshold` — the cue to try growing a trace.
    #[inline]
    fn record_exec(&mut self, block: u32, hot_threshold: u32) -> bool {
        self.warmup_left -= 1;
        let c = &mut self.exec[block as usize];
        *c = c.saturating_add(1);
        *c == hot_threshold
    }

    /// Records a fall-edge exit of `block`.
    #[inline]
    pub fn record_fall(&mut self, block: u32) {
        let c = &mut self.fall[block as usize];
        *c = c.saturating_add(1);
    }

    /// Records a taken-edge exit of `block`.
    #[inline]
    pub fn record_taken(&mut self, block: u32) {
        let c = &mut self.taken[block as usize];
        *c = c.saturating_add(1);
    }
}

/// A selected superblock: the block chain in execution order, the edge
/// each seam expects control to leave through, and whether the chain's
/// final edge loops back to the head (a loop trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePlan {
    /// Block ids in execution order (`blocks[0]` is the hot head).
    pub blocks: Vec<u32>,
    /// For each seam `i` (between `blocks[i]` and `blocks[i + 1]`):
    /// true when the seam is the taken edge, false for the fall edge.
    /// Length is `blocks.len() - 1`.
    pub via_taken: Vec<bool>,
    /// True when the last block's hottest edge returns to the head —
    /// the executor may iterate the trace without leaving it.
    pub loop_back: bool,
    /// Which edge closes the loop (meaningful only with `loop_back`).
    pub loop_via_taken: bool,
}

/// Greedily grows a superblock from hot head block `head` along the
/// hottest recorded fall/taken chain. Growth stops at cold edges (the
/// chosen edge must carry at least half the successor block's recorded
/// exits and have fired at all), at indirect terminators and table
/// exits (no successor edge), at blocks already in the trace, and at
/// the [`MAX_TRACE_BLOCKS`] cap. An edge back to the head is detected
/// as a *loop trace* instead of a stop.
///
/// Returns `None` when no useful trace exists (a single block with no
/// loop edge gains nothing over plain block dispatch).
pub fn grow(map: &BlockMap, profile: &TraceProfile, head: u32) -> Option<TracePlan> {
    let mut blocks = vec![head];
    let mut via_taken = Vec::new();
    let mut loop_back = false;
    let mut loop_via_taken = false;
    let mut cur = head;
    while (blocks.len() as u32) < MAX_TRACE_BLOCKS {
        let span = &map.blocks[cur as usize];
        let exec = profile.exec[cur as usize];
        let fall_n = profile.fall[cur as usize];
        let taken_n = profile.taken[cur as usize];
        // Hottest recorded exit edge (ties go to the fall edge — the
        // cheaper continuation on every engine).
        let (next, thru_taken, hits) = if taken_n > fall_n {
            (span.taken, true, taken_n)
        } else {
            (span.fall, false, fall_n)
        };
        // Cold edge: never seen, or dominated by the block's other
        // exits — the trace would mispredict more than it fuses.
        if next == NO_BLOCK || hits == 0 || u64::from(hits) * 2 < u64::from(exec) {
            break;
        }
        if next == head {
            loop_back = true;
            loop_via_taken = thru_taken;
            break;
        }
        if blocks.contains(&next) {
            break;
        }
        via_taken.push(thru_taken);
        blocks.push(next);
        cur = next;
    }
    if blocks.len() < 2 && !loop_back {
        return None;
    }
    Some(TracePlan {
        blocks,
        via_taken,
        loop_back,
        loop_via_taken,
    })
}

/// Formation and coverage counters of one engine's trace tier. Kept
/// *outside* the engine's architectural statistics on purpose: those
/// are compared bit-for-bit across dispatch tiers by the differential
/// suites, while these describe the tier itself (printed by
/// `examples/dispatch.rs`, and as `exec.golden_trace_coverage` by the
/// repository benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces formed.
    pub traces: u64,
    /// Total blocks across all formed traces.
    pub trace_blocks: u64,
    /// Instructions retired inside fused trace dispatch.
    pub trace_retired: u64,
}

impl TraceStats {
    /// Mean blocks per formed trace (0 when none formed).
    pub fn avg_blocks(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.trace_blocks as f64 / self.traces as f64
        }
    }
}

/// One engine's trace-tier state: the warm-up profile, the plan of the
/// trace formed at each head block and the coverage counters (the
/// knobs, [`TraceConfig`], stay with the engine). The engine derives
/// from its plans only what it dispatches (compiled closure chains),
/// so a snapshot carries the state and a restore re-derives the rest.
#[derive(Debug, Clone)]
pub struct TraceState {
    /// Warm-up profile counters.
    pub profile: TraceProfile,
    /// Per head block: the plan of the trace formed there (`None`
    /// until one forms).
    pub plans: Vec<Option<TracePlan>>,
    /// Formation/coverage counters.
    pub stats: TraceStats,
}

impl TraceState {
    /// A cold tier over `blocks` basic blocks under `cfg`'s warm-up
    /// window.
    pub fn new(blocks: usize, cfg: TraceConfig) -> TraceState {
        TraceState {
            profile: TraceProfile {
                warmup_left: cfg.warmup,
                exec: vec![0; blocks],
                fall: vec![0; blocks],
                taken: vec![0; blocks],
            },
            plans: vec![None; blocks],
            stats: TraceStats::default(),
        }
    }

    /// The formation step of one dispatch of head block `head` on
    /// `map`: while the warm-up window is open and no trace is headed
    /// there yet, count the dispatch, and when the block turns hot grow
    /// its trace at `hot_threshold` ([`TraceConfig::hot_threshold`]).
    /// Returns the plan of a trace formed by this call, for the engine
    /// to derive its dispatch form from.
    #[inline]
    pub fn form(&mut self, map: &BlockMap, head: u32, hot_threshold: u32) -> Option<&TracePlan> {
        if !self.profile.warm()
            || self.plans[head as usize].is_some()
            || !self.profile.record_exec(head, hot_threshold)
        {
            return None;
        }
        let plan = grow(map, &self.profile, head)?;
        self.stats.traces += 1;
        self.stats.trace_blocks += plan.blocks.len() as u64;
        Some(self.plans[head as usize].insert(plan))
    }

    /// The formed plans, in head-block order.
    pub fn formed(&self) -> Vec<TracePlan> {
        self.plans.iter().flatten().cloned().collect()
    }
}

// --- portable-snapshot codecs -------------------------------------------
//
// The trace tier is part of an engine's resumable state (profiles keep
// counting and traces keep forming after a park/resume), so its state
// serializes with the rest of the snapshot. Engines embed it in their
// own snapshot codecs.

impl TraceConfig {
    /// Serializes the tier knobs (part of a session's config descriptor).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.warmup);
        w.u32(self.hot_threshold);
    }

    /// Decodes a [`TraceConfig::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(TraceConfig {
            warmup: r.u64()?,
            hot_threshold: r.u32()?,
        })
    }
}

/// Encodes a `Vec<u32>` counter table (length prefix + values).
fn encode_counters(out: &mut Vec<u8>, v: &[u32]) {
    let mut w = ByteWriter::new(out);
    w.u64(v.len() as u64);
    for &c in v {
        w.u32(c);
    }
}

fn decode_counters(r: &mut ByteReader<'_>, what: &'static str) -> Result<Vec<u32>, CodecError> {
    let n = r.count(what, 4)?;
    (0..n).map(|_| r.u32()).collect()
}

impl TraceState {
    /// Serializes an engine's tier state (`None` while the engine does
    /// not profile): a presence flag, then the warm-up left, the
    /// exec/fall/taken counter tables, the formed-plan table and the
    /// coverage counters. The knobs are not part of the image.
    pub fn encode_into(state: Option<&TraceState>, out: &mut Vec<u8>) {
        ByteWriter::new(out).bool(state.is_some());
        let Some(state) = state else { return };
        let p = &state.profile;
        ByteWriter::new(out).u64(p.warmup_left);
        encode_counters(out, &p.exec);
        encode_counters(out, &p.fall);
        encode_counters(out, &p.taken);
        ByteWriter::new(out).u64(state.plans.len() as u64);
        for plan in &state.plans {
            ByteWriter::new(out).bool(plan.is_some());
            if let Some(plan) = plan {
                plan.encode_into(out);
            }
        }
        let mut w = ByteWriter::new(out);
        w.u64(state.stats.traces);
        w.u64(state.stats.trace_blocks);
        w.u64(state.stats.trace_retired);
    }

    /// Decodes a [`TraceState::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Option<Self>, CodecError> {
        if !r.bool()? {
            return Ok(None);
        }
        let profile = TraceProfile {
            warmup_left: r.u64()?,
            exec: decode_counters(r, "trace exec counters")?,
            fall: decode_counters(r, "trace fall counters")?,
            taken: decode_counters(r, "trace taken counters")?,
        };
        let n = r.count("formed trace plans", 1)?;
        let plans = (0..n)
            .map(|_| r.bool()?.then(|| TracePlan::decode(r)).transpose())
            .collect::<Result<_, _>>()?;
        Ok(Some(TraceState {
            profile,
            plans,
            stats: TraceStats {
                traces: r.u64()?,
                trace_blocks: r.u64()?,
                trace_retired: r.u64()?,
            },
        }))
    }

    /// Checks a decoded state against the block map of the engine it is
    /// restored into: every counter table and the plan table have one
    /// entry per block and every formed plan passes [`TracePlan::check`]
    /// under its head. A state the engine took always passes.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of the first property that fails.
    pub fn check(&self, map: &BlockMap) -> Result<(), CodecError> {
        let p = &self.profile;
        expect_len("trace exec counters", p.exec.len(), map.len())?;
        expect_len("trace fall counters", p.fall.len(), map.len())?;
        expect_len("trace taken counters", p.taken.len(), map.len())?;
        expect_len("formed trace plans", self.plans.len(), map.len())?;
        for (head, plan) in (0..).zip(&self.plans) {
            if let Some(plan) = plan {
                plan.check(map, head)?;
            }
        }
        Ok(())
    }
}

impl TracePlan {
    /// Serializes the plan: its blocks, seam flags and loop flags.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.blocks.len() as u64);
        for &b in &self.blocks {
            w.u32(b);
        }
        w.u64(self.via_taken.len() as u64);
        for &t in &self.via_taken {
            w.bool(t);
        }
        w.bool(self.loop_back);
        w.bool(self.loop_via_taken);
    }

    /// Decodes a [`TracePlan::encode_into`] image.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let n = r.count("trace plan blocks", 4)?;
        let blocks = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
        let n = r.count("trace plan seams", 1)?;
        let via_taken = (0..n).map(|_| r.bool()).collect::<Result<_, _>>()?;
        Ok(TracePlan {
            blocks,
            via_taken,
            loop_back: r.bool()?,
            loop_via_taken: r.bool()?,
        })
    }

    /// Checks that a decoded plan is one [`grow`] could have produced on
    /// `map` from head block `head`: it starts at `head`, names at most
    /// [`MAX_TRACE_BLOCKS`] distinct in-range blocks (two or more unless
    /// it loops), has one seam flag per seam, and each seam and the loop
    /// edge is the fall or taken edge its flag names.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] of the first property that fails.
    pub fn check(&self, map: &BlockMap, head: u32) -> Result<(), CodecError> {
        let n = self.blocks.len();
        if self.blocks.first() != Some(&head) {
            return Err(CodecError::BadIndex {
                what: "trace plan head block",
                index: self.blocks.first().map_or(u64::MAX, |&b| u64::from(b)),
            });
        }
        if n > MAX_TRACE_BLOCKS as usize || (n < 2 && !self.loop_back) {
            return Err(CodecError::BadLength {
                what: "trace plan blocks",
                len: n as u64,
            });
        }
        expect_len("trace plan seams", self.via_taken.len(), n - 1)?;
        for (i, &b) in self.blocks.iter().enumerate() {
            if b as usize >= map.len() {
                return Err(CodecError::BadIndex {
                    what: "trace plan block",
                    index: u64::from(b),
                });
            }
            if self.blocks[..i].contains(&b) {
                return Err(CodecError::BadValue {
                    what: "repeated trace plan block",
                    value: u64::from(b),
                });
            }
        }
        let edge = |b: u32, taken: bool| {
            let span = &map.blocks[b as usize];
            if taken {
                span.taken
            } else {
                span.fall
            }
        };
        let mut seams = self.blocks.windows(2).zip(&self.via_taken);
        if let Some(i) = seams.position(|(w, &t)| edge(w[0], t) != w[1]) {
            return Err(CodecError::BadValue {
                what: "trace plan seam off its block's edges",
                value: i as u64,
            });
        }
        let closes = edge(self.blocks[n - 1], self.loop_via_taken) == head;
        if (self.loop_back && !closes) || (!self.loop_back && self.loop_via_taken) {
            return Err(CodecError::BadValue {
                what: "trace plan loop edge",
                value: u64::from(self.loop_via_taken),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::UnitFlow;

    fn cfg() -> TraceConfig {
        TraceConfig {
            warmup: 1_000,
            hot_threshold: 4,
        }
    }

    /// 0: straight, 1: straight, 2: branch -> 1, 3: halt.
    /// Blocks: [0], [1,2] (self-loop via taken), [3].
    fn loopy_map() -> BlockMap {
        let units = vec![
            UnitFlow::Straight,
            UnitFlow::Straight,
            UnitFlow::Branch { target: Some(1) },
            UnitFlow::Halt,
        ];
        BlockMap::build(&units, |_| true, [0u32], false)
    }

    #[test]
    fn threshold_crossing_fires_exactly_once() {
        let cfg = cfg();
        let mut p = TraceState::new(3, cfg).profile;
        let mut fired = 0;
        for _ in 0..10 {
            if p.record_exec(1, cfg.hot_threshold) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert_eq!(p.warmup_left, cfg.warmup - 10);
    }

    #[test]
    fn single_block_loop_grows_a_loop_trace() {
        let cfg = cfg();
        let map = loopy_map();
        let mut p = TraceState::new(map.len(), cfg).profile;
        for _ in 0..8 {
            p.record_exec(1, cfg.hot_threshold);
            p.record_taken(1);
        }
        let plan = grow(&map, &p, 1).expect("loop trace forms");
        assert_eq!(plan.blocks, vec![1]);
        assert!(plan.loop_back);
        assert!(plan.loop_via_taken);
    }

    #[test]
    fn fall_chain_grows_until_cold_edge() {
        // 0: straight, 1: branch->3, 2: straight, 3: halt.
        // Blocks: [0,1], [2], [3]; block 0 falls to 1 rarely.
        let units = vec![
            UnitFlow::Straight,
            UnitFlow::Branch { target: Some(3) },
            UnitFlow::Straight,
            UnitFlow::Halt,
        ];
        let map = BlockMap::build(&units, |_| true, [0u32], false);
        let cfg = cfg();
        let mut p = TraceState::new(map.len(), cfg).profile;
        for _ in 0..8 {
            p.record_exec(0, cfg.hot_threshold);
            p.record_taken(0); // hot edge: taken to block [3]
        }
        p.record_fall(0); // cold fall into [2]
        let plan = grow(&map, &p, 0).expect("grows along taken edge");
        assert_eq!(plan.blocks, vec![0, map.location(3).block]);
        assert_eq!(plan.via_taken, vec![true]);
        assert!(!plan.loop_back);
        // The halt block's exits were never recorded: growth stops.
        assert_eq!(plan.blocks.len(), 2);
    }

    #[test]
    fn cold_and_unseen_edges_stop_growth() {
        let map = loopy_map();
        let cfg = cfg();
        let mut p = TraceState::new(map.len(), cfg).profile;
        // Block 0 executed often but its fall edge fired once out of
        // eight exits — dominated, so no trace.
        for _ in 0..8 {
            p.record_exec(0, cfg.hot_threshold);
        }
        p.record_fall(0);
        assert_eq!(grow(&map, &p, 0), None);
    }

    #[test]
    fn length_cap_bounds_the_chain() {
        // A long straight chain of single-unit blocks (split_all).
        let mut units = vec![UnitFlow::Straight; 32];
        units[31] = UnitFlow::Halt;
        let map = BlockMap::build(&units, |_| true, [0u32], true);
        let cfg = cfg();
        let mut p = TraceState::new(map.len(), cfg).profile;
        for b in 0..32u32 {
            for _ in 0..8 {
                p.record_exec(b, cfg.hot_threshold);
                p.record_fall(b);
            }
        }
        let plan = grow(&map, &p, 0).expect("chain forms");
        assert_eq!(plan.blocks.len(), MAX_TRACE_BLOCKS as usize);
        assert!(!plan.loop_back);
    }

    #[test]
    fn grown_plans_round_trip_and_pass_the_check() {
        let map = loopy_map();
        let mut st = TraceState::new(map.len(), cfg());
        for _ in 0..8 {
            st.form(&map, 1, cfg().hot_threshold);
            st.profile.record_taken(1);
        }
        assert_eq!(st.stats.traces, 1, "block 1 turned hot once");
        let plan = st.formed().pop().expect("loop trace forms");
        assert!(plan.loop_back && plan.loop_via_taken);
        let mut bytes = Vec::new();
        TraceState::encode_into(Some(&st), &mut bytes);
        let back = TraceState::decode(&mut ByteReader::new(&bytes))
            .expect("decodes")
            .expect("present");
        assert_eq!((&back.plans, back.stats), (&st.plans, st.stats));
        assert_eq!(back.check(&map), Ok(()));
        let mut short = back;
        short.plans.pop();
        assert!(short.check(&map).is_err());
        // Filed under another head, or closing the loop along the
        // fall edge, it is not a plan growth could produce.
        assert!(plan.check(&map, 0).is_err());
        let fall_loop = TracePlan {
            loop_via_taken: false,
            ..plan
        };
        assert!(fall_loop.check(&map, 1).is_err());
    }

    #[test]
    fn trace_stats_average() {
        let mut s = TraceStats::default();
        assert_eq!(s.avg_blocks(), 0.0);
        s.traces = 2;
        s.trace_blocks = 7;
        assert!((s.avg_blocks() - 3.5).abs() < 1e-12);
    }
}
