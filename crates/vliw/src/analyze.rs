//! VLIW front end for the static analyzer: lowers an execute-packet
//! program into the [`cabt_exec::analyze::Program`] form, mirroring
//! the compiled packets' control-flow classification exactly (one packet
//! = one dispatch unit; a branch slot ends the block and keeps its
//! fall edge — the five-slot branch shadow architecturally falls into
//! the following packets before the redirect lands).
//!
//! Caveats, matching the execution tiers:
//!
//! * `B` targets are resolved through the packet address map; a target
//!   outside the arena lowers to an off-table taken edge (the engine's
//!   fault path).
//! * `BReg` lowers to a branch with an *off-table* taken edge, exactly
//!   as the compiled packets model it — the analyzer cannot see where a
//!   register branch lands, so reachability through one is not
//!   tracked. The translator never emits `BReg` today; revisit the
//!   classification (an indirect-with-fall role) if that changes.
//! * Translated images inherit the whole guest register state at
//!   entry, so every register starts defined and use-before-def is
//!   vacuous here; the valuable passes over VLIW programs are
//!   reachability, liveness and loop structure.

use crate::isa::{Op, Packet};
use cabt_exec::analyze::{AbsOp, GuestUnit, MemAccess, Program};
use cabt_exec::blocks::UnitFlow;
use std::collections::HashMap;

/// Control-flow role of one packet, with `B` targets resolved to
/// packet indices via `index` (packet address → index).
fn flow_of(p: &Packet, index: &HashMap<u32, u32>) -> UnitFlow {
    let mut flow = UnitFlow::Straight;
    for (pos, s) in p.slots().iter().enumerate() {
        match s.op {
            Op::Halt => return UnitFlow::Halt,
            Op::B { disp21 } => {
                let slot_addr = p.addr + 8 * pos as u32;
                let dest = slot_addr.wrapping_add((disp21 as u32).wrapping_mul(4));
                flow = UnitFlow::Branch {
                    target: index.get(&dest).copied(),
                };
            }
            Op::BReg { .. } => flow = UnitFlow::Branch { target: None },
            _ => {}
        }
    }
    flow
}

/// Lowers a packet program into the analyzer's form. Packets are a
/// dense arena (every packet's sequential successor is the next table
/// entry), entry is packet 0, and all 64 registers count as defined at
/// entry — see the module docs.
pub fn lower_packets(program: &[Packet]) -> Program {
    let index: HashMap<u32, u32> = program
        .iter()
        .enumerate()
        .map(|(i, p)| (p.addr, i as u32))
        .collect();
    let units: Vec<GuestUnit> = program
        .iter()
        .map(|p| {
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            let mut ops = Vec::new();
            let mut mem = None;
            for s in p.slots() {
                if let Some(pred) = s.pred {
                    reads.push(pred.reg.index() as u8);
                }
                reads.extend(s.op.sources().iter().map(|r| r.index() as u8));
                if let Some(dst) = s.op.dest() {
                    writes.push(dst.index() as u8);
                }
                // Constant tracking only through unpredicated slots: a
                // predicated write may not happen, so its destination
                // stays at the coarse write-set modeling.
                if s.pred.is_none() {
                    match s.op {
                        Op::Mvk { d, imm16 } => ops.push(AbsOp::Const {
                            dst: d.index() as u8,
                            value: imm16 as i32 as u32,
                        }),
                        Op::Mv { d, s: src } => ops.push(AbsOp::Copy {
                            dst: d.index() as u8,
                            src: src.index() as u8,
                        }),
                        Op::AddI { d, s1, imm5 } => ops.push(AbsOp::AddImm {
                            dst: d.index() as u8,
                            src: s1.index() as u8,
                            imm: imm5 as i32 as u32,
                        }),
                        _ => {}
                    }
                }
                if let Op::Ld { w, base, woff, .. } = s.op {
                    mem = Some(MemAccess {
                        base: base.index() as u8,
                        offset: i32::from(woff) * w.bytes() as i32,
                        bytes: w.bytes() as u8,
                        store: false,
                    });
                }
                if let Op::St { w, base, woff, .. } = s.op {
                    mem = Some(MemAccess {
                        base: base.index() as u8,
                        offset: i32::from(woff) * w.bytes() as i32,
                        bytes: w.bytes() as u8,
                        store: true,
                    });
                }
            }
            GuestUnit {
                pc: p.addr,
                flow: flow_of(p, &index),
                reads,
                writes,
                ops,
                mem,
                call: None,
            }
        })
        .collect();
    let n = units.len();
    Program {
        units,
        entries: vec![0],
        contiguous: vec![true; n],
        entry_defined: (0..64).collect(),
        entry_consts: Vec::new(),
        reg_name: |r| {
            if r < 32 {
                format!("A{r}")
            } else {
                format!("B{}", r - 32)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Reg, Slot, Unit};
    use cabt_exec::analyze::{liveness, natural_loops, reachable_blocks};

    fn packet(addr: u32, op: Op) -> Packet {
        let mut p = Packet::at(addr);
        p.push(Slot {
            unit: Unit::S1,
            pred: None,
            op,
        })
        .unwrap();
        p
    }

    #[test]
    fn packet_loop_is_seen_by_the_analyzer() {
        // 0: ADD / 1: B back to 0 / 2..6: shadow + HALT.
        let mut packets = vec![
            packet(
                0,
                Op::Add {
                    d: Reg::a(3),
                    s1: Reg::a(3),
                    s2: Reg::a(4),
                },
            ),
            packet(8, Op::B { disp21: -2 }),
        ];
        for i in 0..4 {
            packets.push(packet(16 + 8 * i, Op::Nop { count: 1 }));
        }
        packets.push(packet(48, Op::Halt));
        let prog = lower_packets(&packets);
        let g = prog.graph();
        let reach = reachable_blocks(&g);
        assert!(reach.iter().all(|&r| r), "every block reachable");
        let loops = natural_loops(&g);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].head, 0, "loop closes on packet 0's block");
        // A4 is read by the loop body and never redefined: live at
        // entry of the head block.
        let live = liveness(&prog, &g);
        assert_ne!(live.output[0] & (1 << Reg::a(4).index()), 0);
    }
}
