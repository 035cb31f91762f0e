//! Generic basic-block discovery over any pre-decoded dispatch table —
//! the shared substrate of the block-compiled execution layer.
//!
//! Every engine in this workspace decodes its program once at load into
//! a dense table of dispatch units (source instructions on the golden
//! model, execute packets on the VLIW core), and the translator builds
//! its own control-flow graph over the same object code. All three used
//! to discover basic blocks privately; this module hoists the one
//! algorithm they share: given each unit's control-flow role
//! ([`UnitFlow`]), compute the *leaders* (units where a block must
//! start), partition the table into maximal straight-line runs, and
//! resolve each block's fall-through and taken edges to *block ids* —
//! the structure a block-threaded dispatcher chases and a closure
//! compiler fuses over.
//!
//! Leader rules (the classical ones, matching the paper's Fig. 1 block
//! construction):
//!
//! * every caller-supplied entry point (program entry, `Func` symbols),
//! * every direct control-transfer target,
//! * every unit following a control transfer,
//! * every unit that cannot be *fallen into* (a decode gap before it).
//!
//! The map is index-based on purpose: it never looks at addresses, so
//! one implementation serves instruction tables, packet arenas and the
//! translator's intermediate code alike — each caller keeps its own
//! address⇄index mapping.

/// Sentinel block id: "no successor block" (the edge leaves the table,
/// or the terminator kind has no such edge).
pub const NO_BLOCK: u32 = u32::MAX;

/// Control-flow role of one dispatch unit, as the block builder needs
/// it. `target` values are *unit indices* already resolved by the
/// caller; a direct branch whose destination lies outside the decoded
/// table is passed with `target: None` (the block still ends there —
/// taking the edge at run time is the engine's fault path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitFlow {
    /// Falls through to the next unit; never ends a block on its own.
    Straight,
    /// Unconditional direct transfer (jumps, direct calls).
    Jump {
        /// Destination unit index, when inside the table.
        target: Option<u32>,
    },
    /// Conditional direct transfer: falls through or takes `target`.
    Branch {
        /// Destination unit index, when inside the table.
        target: Option<u32>,
    },
    /// Computed transfer (returns, indirect jumps): ends the block,
    /// successor unknown until run time.
    Indirect,
    /// Terminates execution (halt instructions). Architecturally the
    /// program counter still moves past it, so the block keeps a
    /// fall-through edge.
    Halt,
}

impl UnitFlow {
    /// True if a block must end *at* this unit.
    pub fn ends_block(&self) -> bool {
        !matches!(self, UnitFlow::Straight)
    }

    /// The direct-target unit index, if this unit has one.
    pub fn target(&self) -> Option<u32> {
        match *self {
            UnitFlow::Jump { target } | UnitFlow::Branch { target } => target,
            _ => None,
        }
    }

    /// True if execution can architecturally continue at the next
    /// sequential unit after this one ([`UnitFlow::Jump`] and
    /// [`UnitFlow::Indirect`] always redirect; everything else falls).
    pub fn falls_through(&self) -> bool {
        !matches!(self, UnitFlow::Jump { .. } | UnitFlow::Indirect)
    }
}

/// One basic block: a maximal straight-line run of units, with its
/// terminator's successor edges resolved to block ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// Index of the first unit.
    pub first: u32,
    /// Number of units in the block (≥ 1).
    pub len: u32,
    /// Block id of the fall-through successor (`NO_BLOCK` when the
    /// terminator never falls, the next unit is a decode gap, or the
    /// block ends the table).
    pub fall: u32,
    /// Block id of the direct-target successor (`NO_BLOCK` when the
    /// terminator has none or it leaves the table).
    pub taken: u32,
}

impl BlockSpan {
    /// Index one past the last unit.
    pub fn end(&self) -> u32 {
        self.first + self.len
    }

    /// Index of the terminating unit.
    pub fn last(&self) -> u32 {
        self.first + self.len - 1
    }
}

/// Where a unit sits inside the block partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitLoc {
    /// Block id.
    pub block: u32,
    /// Offset of the unit inside its block.
    pub offset: u32,
}

/// The block partition of one dispatch table: blocks in table order
/// plus the unit → (block, offset) back-map. Built once at load; the
/// pre-decoded tables and the compiled closure table are both views
/// over it.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    /// Basic blocks in ascending unit order.
    pub blocks: Vec<BlockSpan>,
    /// Per-unit location, parallel to the unit table.
    pub loc: Vec<UnitLoc>,
}

impl BlockMap {
    /// Partitions `units` into basic blocks.
    ///
    /// `contiguous(i)` reports whether unit `i + 1` is the sequential
    /// successor of unit `i` (false at decode gaps — e.g. two text
    /// sections with a hole between them); `entries` supplies extra
    /// leaders (program entry, function symbols); `split_all` makes
    /// every unit its own block (the per-instruction granularity of the
    /// paper's debug translation).
    pub fn build(
        units: &[UnitFlow],
        contiguous: impl Fn(usize) -> bool,
        entries: impl IntoIterator<Item = u32>,
        split_all: bool,
    ) -> BlockMap {
        let n = units.len();
        if n == 0 {
            return BlockMap::default();
        }
        let mut leader = vec![split_all; n];
        leader[0] = true;
        for e in entries {
            if (e as usize) < n {
                leader[e as usize] = true;
            }
        }
        if !split_all {
            for (i, u) in units.iter().enumerate() {
                if let Some(t) = u.target() {
                    if (t as usize) < n {
                        leader[t as usize] = true;
                    }
                }
                if (u.ends_block() || !contiguous(i)) && i + 1 < n {
                    leader[i + 1] = true;
                }
            }
        }

        let mut blocks = Vec::new();
        let mut loc = vec![
            UnitLoc {
                block: NO_BLOCK,
                offset: 0,
            };
            n
        ];
        let mut i = 0usize;
        while i < n {
            let first = i;
            let block = blocks.len() as u32;
            loop {
                loc[i] = UnitLoc {
                    block,
                    offset: (i - first) as u32,
                };
                let ends = units[i].ends_block() || !contiguous(i);
                i += 1;
                if ends || i >= n || leader[i] {
                    break;
                }
            }
            blocks.push(BlockSpan {
                first: first as u32,
                len: (i - first) as u32,
                fall: NO_BLOCK,
                taken: NO_BLOCK,
            });
        }

        // Resolve terminator edges to block ids. Targets are leaders by
        // construction, so their offset is always 0.
        for block in &mut blocks {
            let last = block.last() as usize;
            if let Some(t) = units[last].target() {
                if (t as usize) < n {
                    block.taken = loc[t as usize].block;
                }
            }
            if units[last].falls_through() && contiguous(last) && last + 1 < n {
                block.fall = loc[last + 1].block;
            }
        }
        BlockMap { blocks, loc }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the map covers no units.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The (block, offset) location of a unit.
    pub fn location(&self, unit: u32) -> UnitLoc {
        self.loc[unit as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight(n: usize) -> Vec<UnitFlow> {
        vec![UnitFlow::Straight; n]
    }

    #[test]
    fn straightline_is_one_block() {
        let mut units = straight(3);
        units[2] = UnitFlow::Halt;
        let m = BlockMap::build(&units, |_| true, [0u32], false);
        assert_eq!(m.len(), 1);
        assert_eq!(m.blocks[0].len, 3);
        assert_eq!(m.blocks[0].fall, NO_BLOCK, "halt at end of table");
        assert_eq!(
            m.location(2),
            UnitLoc {
                block: 0,
                offset: 2
            }
        );
    }

    #[test]
    fn branch_target_and_fallthrough_lead() {
        // 0: straight, 1: straight, 2: branch -> 1, 3: halt
        let units = vec![
            UnitFlow::Straight,
            UnitFlow::Straight,
            UnitFlow::Branch { target: Some(1) },
            UnitFlow::Halt,
        ];
        let m = BlockMap::build(&units, |_| true, [0u32], false);
        // Blocks: [0], [1,2], [3]
        assert_eq!(m.len(), 3);
        assert_eq!(m.blocks[1].first, 1);
        assert_eq!(m.blocks[1].len, 2);
        assert_eq!(m.blocks[1].taken, 1, "loop edge back onto itself");
        assert_eq!(m.blocks[1].fall, 2);
        assert_eq!(m.blocks[0].fall, 1);
        assert_eq!(m.blocks[0].taken, NO_BLOCK);
    }

    #[test]
    fn jumps_have_no_fall_edge_and_gaps_split() {
        let units = vec![
            UnitFlow::Jump { target: Some(2) },
            UnitFlow::Straight, // unreachable by fall, still a leader (after control)
            UnitFlow::Halt,
        ];
        let m = BlockMap::build(&units, |i| i != 1, [0u32], false);
        assert_eq!(m.len(), 3);
        assert_eq!(m.blocks[0].fall, NO_BLOCK, "jumps never fall");
        assert_eq!(m.blocks[0].taken, 2);
        assert_eq!(m.blocks[1].fall, NO_BLOCK, "decode gap after unit 1");
    }

    #[test]
    fn split_all_makes_single_unit_blocks() {
        let mut units = straight(4);
        units[3] = UnitFlow::Halt;
        let m = BlockMap::build(&units, |_| true, [0u32], true);
        assert_eq!(m.len(), 4);
        assert!(m.blocks.iter().all(|b| b.len == 1));
        assert_eq!(m.blocks[0].fall, 1);
    }

    #[test]
    fn off_table_targets_leave_no_taken_edge() {
        let units = vec![UnitFlow::Branch { target: None }, UnitFlow::Halt];
        let m = BlockMap::build(&units, |_| true, [0u32], false);
        assert_eq!(m.blocks[0].taken, NO_BLOCK);
        assert_eq!(m.blocks[0].fall, 1);
    }

    #[test]
    fn indirect_ends_block_without_edges() {
        let units = vec![UnitFlow::Indirect, UnitFlow::Halt];
        let m = BlockMap::build(&units, |_| true, [0u32], false);
        assert_eq!(m.len(), 2);
        assert_eq!(m.blocks[0].fall, NO_BLOCK);
        assert_eq!(m.blocks[0].taken, NO_BLOCK);
    }

    #[test]
    fn empty_table_is_empty_map() {
        let m = BlockMap::build(&[], |_| true, [0u32], false);
        assert!(m.is_empty());
        assert!(m.loc.is_empty());
    }

    #[test]
    fn all_indirect_program_is_one_block_per_unit_without_edges() {
        let units = vec![UnitFlow::Indirect; 4];
        let m = BlockMap::build(&units, |_| true, [0u32], false);
        assert_eq!(m.len(), 4, "every indirect terminator ends its block");
        for (i, b) in m.blocks.iter().enumerate() {
            assert_eq!(b.len, 1);
            assert_eq!(b.fall, NO_BLOCK, "block {i}: indirect never falls");
            assert_eq!(b.taken, NO_BLOCK, "block {i}: no static target");
        }
        // Every unit is its own leader: the conservative indirect
        // analyses depend on this (any unit is a possible landing pad).
        assert!((0..4).all(|u| m.location(u).offset == 0));
    }

    #[test]
    fn entry_past_the_table_end_is_ignored() {
        let mut units = straight(3);
        units[2] = UnitFlow::Halt;
        let m = BlockMap::build(&units, |_| true, [0u32, 17, u32::MAX], false);
        // The out-of-range entries add no leaders and don't panic.
        assert_eq!(m.len(), 1);
        assert_eq!(m.blocks[0].len, 3);
    }

    #[test]
    fn decode_gap_makes_a_leader_and_severs_the_fall_edge() {
        // 0,1 straight | gap | 2,3 straight, 4 halt. Unit 2 must lead
        // its own block and the gap block must not fall into it.
        let mut units = straight(5);
        units[4] = UnitFlow::Halt;
        let m = BlockMap::build(&units, |i| i != 1, [0u32], false);
        assert_eq!(m.len(), 2);
        assert_eq!(m.blocks[0].len, 2);
        assert_eq!(m.blocks[0].fall, NO_BLOCK, "no fall across the gap");
        assert_eq!(
            m.location(2),
            UnitLoc {
                block: 1,
                offset: 0
            },
            "first unit after the gap is a leader"
        );
    }
}
