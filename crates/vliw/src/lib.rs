//! C6x-like VLIW target processor for CABT.
//!
//! The paper's rapid-prototyping platform executes translated code on a
//! TI TMS320C6201 VLIW DSP at 200 MHz. This crate provides the
//! behavioural and cycle-level substitute:
//!
//! * [`isa`] — the target instruction set: two 32-register files (`A`,
//!   `B`), eight functional units (`L1,S1,M1,D1,L2,S2,M2,D2`), execute
//!   packets of up to eight instructions, C6x-style predication on a
//!   small set of condition registers, multi-cycle `NOP`, and the
//!   delay-slot discipline (5 for branches, 4 for loads, 1 for
//!   multiplies).
//! * [`sim`] — a cycle-counting simulator with delayed register
//!   write-back, branch shadows and a memory-mapped-device hook
//!   ([`sim::TargetBus`]) through which the platform's synchronization
//!   device and SoC-bus adapter are reached. The simulator owns the
//!   attached bus; the bus declares its address windows once, when
//!   attached, and a device access stalls the core by the cycles it
//!   returns, charged after the packet that made it.
//!
//! One deliberate deviation from the real C6201: the target has an
//! iterative divide unit (`div`/`rem`, 18 cycles) standing in for the
//! C6x run-time division library routine of equivalent cost, which
//! keeps the translator free of a software division expansion while
//! preserving the cycle shape.
//!
//! # Example
//!
//! ```
//! use cabt_vliw::isa::{Op, Packet, Reg, Slot, Unit};
//! use cabt_vliw::sim::VliwSim;
//!
//! let mut packets = vec![
//!     Packet::at(0x8000),
//!     Packet::at(0x8004),
//!     Packet::at(0x8008),
//! ];
//! packets[0].push(Slot::new(Unit::S1, Op::Mvk { d: Reg::a(3), imm16: 21 }))?;
//! packets[1].push(Slot::new(Unit::L1, Op::Add { d: Reg::a(4), s1: Reg::a(3), s2: Reg::a(3) }))?;
//! packets[2].push(Slot::new(Unit::S1, Op::Halt))?;
//! let mut sim = VliwSim::new(packets)?;
//! sim.run(100)?;
//! assert_eq!(sim.reg(Reg::a(4)), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub(crate) mod compiled;
pub mod isa;
pub mod sim;

pub use isa::{Op, Packet, Pred, Reg, Slot, Unit};
pub use sim::{TargetBus, VliwSim};
