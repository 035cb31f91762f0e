//! The closure-compiled packets of the VLIW target — the one
//! production form of its slot semantics.
//!
//! The VLIW machine's natural fusion unit is the *execute packet*: its
//! slots are the straight-line parallel ops of one issue, exactly what
//! the paper's translator fuses a basic block of source code into. At
//! load time every packet is compiled into a run of specialized slot
//! closures — operands, predication guards, staged-write latencies and
//! pre-resolved branch destinations captured as constants — so the hot
//! loop dispatches slots through indirect calls with no per-slot
//! operation match and no slot-record construction.
//!
//! Packet-run structure comes from the same
//! [`cabt_exec::blocks::BlockMap`] partition the golden model's
//! compiled blocks and the translator's CFG use (leaders at branch
//! destinations and after branch packets). Unlike the golden model,
//! dispatch here stays *per packet*: branch shadows and delayed
//! write-backs make control transfer and retirement between any two
//! packets, so a compiled packet is bit-identical to the naive
//! interpreter at *every* packet, not just at block boundaries. The
//! compiled core ([`VliwDispatch::Trace`](crate::sim::VliwDispatch))
//! dispatches these packets one at a time until a fall chain turns hot
//! during its warm-up window, then runs the chain as one fused packet
//! range; at a warm-up of 0 it never does.
//!
//! The closures do only the write-back work their slot needs:
//! single-cycle results (every ALU operation but multiply, divide and
//! remainder) go into the engine's next-cycle latch; loads and the
//! multi-cycle results go into the due-ordered list. NOP slots compile
//! to no closure, so an all-NOP packet has none: the run loop retires
//! it with its write-back prologue and branch-shadow epilogue alone.
//! A packet's closures are kept as a slice the run loop walks — one
//! indirect call per slot — rather than composed into one closure,
//! whose nested calls cost more than the loop.

use crate::isa::{Op, Packet, Pred, Reg, Slot};
use crate::sim::{route_load, route_store, DeviceBus, Latch, VliwError, NO_IDX};
use cabt_exec::blocks::{BlockMap, UnitFlow};
use cabt_isa::mem::Memory;
use cabt_isa::AddrMap;

/// The mutable engine state a slot closure executes against.
pub(crate) struct VHot<'a> {
    pub regs: &'a mut [u32; 64],
    pub mem: &'a mut Memory,
    pub bus: &'a mut Option<DeviceBus>,
    /// Target cycle at packet dispatch (constant across the packet —
    /// stalls are accumulated separately and applied in the epilogue,
    /// as in the interpretive cores).
    pub cycle: u64,
    pub halted: &'a mut bool,
    /// `VliwStats::slots` (executed slots, NOPs excluded).
    pub slots: &'a mut u64,
    /// Where single-cycle results go; every other result is staged in
    /// the due-ordered list.
    pub latch: &'a mut Latch,
}

/// One fused slot: predication guard + semantics in one specialized
/// body. Arguments: the staged-write list, the stall accumulator and
/// the branch latch.
pub(crate) type SlotFn = Box<
    dyn Fn(
            &mut VHot<'_>,
            &mut Vec<(u64, Reg, u32)>,
            &mut u64,
            &mut Option<(u32, u32)>,
        ) -> Result<(), VliwError>
        + Send
        + Sync,
>;

/// One compiled execute packet: its slots' closures in issue order.
pub(crate) struct CompiledPacket {
    /// Issue cycles (packet epilogue cost).
    pub issue: u32,
    /// The closures of the packet's non-NOP slots, in issue order
    /// (empty when every slot is a NOP). Slots only read architectural
    /// registers (staged writes commit between packets), so running
    /// them in order is exactly the naive core's slot loop.
    pub slots: Box<[SlotFn]>,
}

/// The compiled program: the shared block partition over the packet
/// table plus one compiled packet per table entry.
pub(crate) struct CompiledProgram {
    pub map: BlockMap,
    pub packets: Vec<CompiledPacket>,
}

/// A slot's branch destination: the target address of a static `B`
/// at `slot_addr` and its packet index ([`NO_IDX`] when the target is
/// not a packet start).
fn branch_dest(slot_addr: u32, disp21: i32, index: &AddrMap<usize>) -> (u32, u32) {
    let dest = slot_addr.wrapping_add((disp21 as u32).wrapping_mul(4));
    (dest, index.get(&dest).map_or(NO_IDX, |&i| i as u32))
}

/// Control-flow role of one packet for the block builder: packets with
/// a branch slot end blocks (their shadow packets lead the next one),
/// packets with a `HALT` slot terminate. Branches keep their fall edge
/// — the five-issue-slot shadow architecturally *falls* into the next
/// packets before the redirect lands.
fn flow_of(p: &Packet, index: &AddrMap<usize>) -> UnitFlow {
    let mut flow = UnitFlow::Straight;
    for (pos, s) in p.slots().iter().enumerate() {
        match s.op {
            Op::Halt => return UnitFlow::Halt,
            Op::B { disp21 } => {
                let (_, idx) = branch_dest(p.addr + 8 * pos as u32, disp21, index);
                flow = UnitFlow::Branch {
                    target: (idx != NO_IDX).then_some(idx),
                };
            }
            Op::BReg { .. } => flow = UnitFlow::Branch { target: None },
            _ => {}
        }
    }
    flow
}

/// Compiles the whole packet table; `index` maps packet addresses to
/// table positions and resolves static branch destinations.
pub(crate) fn compile(program: &[Packet], index: &AddrMap<usize>) -> CompiledProgram {
    let units: Vec<UnitFlow> = program.iter().map(|p| flow_of(p, index)).collect();
    // Packets are a dense arena: every packet's sequential successor is
    // the next table entry.
    let map = BlockMap::build(&units, |_| true, std::iter::once(0u32), false);
    let packets = program
        .iter()
        .map(|p| CompiledPacket {
            issue: p.issue_cycles(),
            slots: p
                .slots()
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.op, Op::Nop { .. }))
                .map(|(pos, s)| compile_slot(s, p.addr + 8 * pos as u32, index))
                .collect(),
        })
        .collect();
    CompiledProgram { map, packets }
}

/// Wraps a slot body with its predication guard and the executed-slot
/// counter — the compiled form of the naive core's per-slot prologue.
fn guard<F>(pred: Option<Pred>, body: F) -> SlotFn
where
    F: Fn(
            &mut VHot<'_>,
            &mut Vec<(u64, Reg, u32)>,
            &mut u64,
            &mut Option<(u32, u32)>,
        ) -> Result<(), VliwError>
        + Send
        + Sync
        + 'static,
{
    Box::new(move |h, writes, stall, branch| {
        if let Some(p) = pred {
            let v = h.regs[p.reg.index()];
            if (v != 0) == p.negated {
                return Ok(()); // guard false: annulled
            }
        }
        *h.slots += 1;
        body(h, writes, stall, branch)
    })
}

/// Compiles the slot at `slot_addr` into its fused closure,
/// specializing the operation and capturing operands, the staged-write
/// latency and the pre-resolved branch destination. NOP slots have no
/// closure ([`compile`] skips them).
fn compile_slot(slot: &Slot, slot_addr: u32, index: &AddrMap<usize>) -> SlotFn {
    let pred = slot.pred;
    // Staged results become visible `1 + delay` cycles after dispatch.
    let lat = 1 + slot.op.delay_slots() as u64;
    // ALU ops share one shape: read sources, stage one result —
    // single-cycle ones into the next-cycle latch.
    macro_rules! alu {
        (|$h:ident| $v:expr, $d:expr) => {{
            let d = $d;
            if lat == 1 {
                guard(pred, move |$h, _, _, _| {
                    let v = $v;
                    $h.latch.push(d, v);
                    Ok(())
                })
            } else {
                guard(pred, move |$h, writes, _, _| {
                    writes.push(($h.cycle + lat, d, $v));
                    Ok(())
                })
            }
        }};
    }
    match slot.op {
        Op::Add { d, s1, s2 } => {
            alu!(|h| h.regs[s1.index()].wrapping_add(h.regs[s2.index()]), d)
        }
        Op::Sub { d, s1, s2 } => {
            alu!(|h| h.regs[s1.index()].wrapping_sub(h.regs[s2.index()]), d)
        }
        Op::And { d, s1, s2 } => alu!(|h| h.regs[s1.index()] & h.regs[s2.index()], d),
        Op::Or { d, s1, s2 } => alu!(|h| h.regs[s1.index()] | h.regs[s2.index()], d),
        Op::Xor { d, s1, s2 } => alu!(|h| h.regs[s1.index()] ^ h.regs[s2.index()], d),
        Op::AddI { d, s1, imm5 } => {
            let v = imm5 as i32 as u32;
            alu!(|h| h.regs[s1.index()].wrapping_add(v), d)
        }
        Op::Shl { d, s1, s2 } => {
            alu!(
                |h| h.regs[s1.index()].wrapping_shl(h.regs[s2.index()] & 31),
                d
            )
        }
        Op::Shr { d, s1, s2 } => alu!(
            |h| ((h.regs[s1.index()] as i32).wrapping_shr(h.regs[s2.index()] & 31)) as u32,
            d
        ),
        Op::Shru { d, s1, s2 } => {
            alu!(
                |h| h.regs[s1.index()].wrapping_shr(h.regs[s2.index()] & 31),
                d
            )
        }
        Op::ShlI { d, s1, imm5 } => {
            let sh = imm5 as u32 & 31;
            alu!(|h| h.regs[s1.index()].wrapping_shl(sh), d)
        }
        Op::ShrI { d, s1, imm5 } => {
            let sh = imm5 as u32 & 31;
            alu!(|h| ((h.regs[s1.index()] as i32).wrapping_shr(sh)) as u32, d)
        }
        Op::ShruI { d, s1, imm5 } => {
            let sh = imm5 as u32 & 31;
            alu!(|h| h.regs[s1.index()].wrapping_shr(sh), d)
        }
        Op::Mpy { d, s1, s2 } => {
            alu!(|h| h.regs[s1.index()].wrapping_mul(h.regs[s2.index()]), d)
        }
        Op::Div { d, s1, s2 } => alu!(
            |h| {
                let b = h.regs[s2.index()];
                if b == 0 {
                    0
                } else {
                    (h.regs[s1.index()] as i32).wrapping_div(b as i32) as u32
                }
            },
            d
        ),
        Op::Rem { d, s1, s2 } => alu!(
            |h| {
                let b = h.regs[s2.index()];
                if b == 0 {
                    0
                } else {
                    (h.regs[s1.index()] as i32).wrapping_rem(b as i32) as u32
                }
            },
            d
        ),
        Op::CmpEq { d, s1, s2 } => {
            alu!(|h| (h.regs[s1.index()] == h.regs[s2.index()]) as u32, d)
        }
        Op::CmpGt { d, s1, s2 } => alu!(
            |h| ((h.regs[s1.index()] as i32) > (h.regs[s2.index()] as i32)) as u32,
            d
        ),
        Op::CmpGtU { d, s1, s2 } => {
            alu!(|h| (h.regs[s1.index()] > h.regs[s2.index()]) as u32, d)
        }
        Op::CmpLt { d, s1, s2 } => alu!(
            |h| ((h.regs[s1.index()] as i32) < (h.regs[s2.index()] as i32)) as u32,
            d
        ),
        Op::CmpLtU { d, s1, s2 } => {
            alu!(|h| (h.regs[s1.index()] < h.regs[s2.index()]) as u32, d)
        }
        Op::Mv { d, s } => alu!(|h| h.regs[s.index()], d),
        Op::Mvk { d, imm16 } => {
            let v = imm16 as i32 as u32;
            alu!(|_h| v, d)
        }
        Op::Mvkh { d, imm16 } => {
            let hi = (imm16 as u32) << 16;
            alu!(|h| (h.regs[d.index()] & 0xffff) | hi, d)
        }
        Op::Ld {
            w,
            unsigned,
            d,
            base,
            woff,
        } => {
            let off = (woff as i32 as u32).wrapping_mul(w.bytes());
            guard(pred, move |h, writes, stall, _| {
                let addr = h.regs[base.index()].wrapping_add(off);
                let v = route_load(h.mem, h.bus, h.cycle, addr, w, unsigned, stall)?;
                writes.push((h.cycle + lat, d, v));
                Ok(())
            })
        }
        Op::St { w, s, base, woff } => {
            let off = (woff as i32 as u32).wrapping_mul(w.bytes());
            guard(pred, move |h, _, stall, _| {
                let addr = h.regs[base.index()].wrapping_add(off);
                let v = h.regs[s.index()];
                route_store(h.mem, h.bus, h.cycle, addr, w, v, stall)
            })
        }
        Op::B { disp21 } => {
            let (dest, b_idx) = branch_dest(slot_addr, disp21, index);
            guard(pred, move |_, _, _, branch| {
                *branch = Some((dest, b_idx));
                Ok(())
            })
        }
        Op::BReg { s } => guard(pred, move |h, _, _, branch| {
            *branch = Some((h.regs[s.index()], NO_IDX));
            Ok(())
        }),
        Op::Nop { .. } => unreachable!("NOP slots compile to nothing"),
        Op::Halt => guard(pred, |h, _, _, _| {
            *h.halted = true;
            Ok(())
        }),
    }
}
