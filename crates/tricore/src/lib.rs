//! TriCore-like source processor model for CABT.
//!
//! The paper translates Infineon TriCore object code, measuring its
//! reference timing on a TriCore TC10GP evaluation board. We do not have
//! that silicon, so this crate provides the complete substitute:
//!
//! * [`isa`] — a TriCore-flavoured 32-bit embedded ISA with mixed
//!   16/32-bit instruction encodings, separate data (`D0..D15`) and
//!   address (`A0..A15`) register banks, post-increment addressing,
//!   multiply-accumulate and a zero-overhead `loop` instruction.
//! * [`encode`] — the binary encoder/decoder for that ISA.
//! * [`asm`] — a two-pass assembler producing genuine ELF32 images
//!   ([`cabt_isa::elf::ElfFile`]); this stands in for the C compiler the
//!   paper used to produce TriCore object code.
//! * [`arch`] — the machine-readable architecture description (pipelines,
//!   latencies, branch predictor, instruction cache) that the paper keeps
//!   in an XML file and feeds to both the reference model and the
//!   translator's static cycle calculator.
//! * [`sim`] — the cycle-accurate interpretive golden model: a dual-issue
//!   pipeline with static BTFN branch prediction and a set-associative
//!   instruction cache. Its cycle counts play the role of the evaluation
//!   board's measured counts in every experiment.
//!
//! # Example
//!
//! ```
//! use cabt_tricore::{asm::assemble, sim::Simulator};
//!
//! let elf = assemble(
//!     r#"
//!     .text
//!     .global _start
//! _start:
//!     mov   %d2, 0
//!     mov   %d1, 10
//! again:
//!     add   %d2, %d2, %d1
//!     addi  %d1, %d1, -1
//!     jnz   %d1, again
//!     debug
//! "#,
//! )?;
//! let mut sim = Simulator::new(&elf)?;
//! let result = sim.run(1_000_000)?;
//! assert_eq!(sim.cpu.d(2), 55); // 10+9+...+1
//! assert!(result.cycles > result.instructions); // pipeline effects cost cycles
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analyze;
pub mod arch;
pub mod asm;
pub(crate) mod compiled;
pub mod encode;
pub mod isa;
pub mod sim;

pub use arch::{ArchDesc, CacheConfig, Timing};
pub use asm::{assemble, AsmError};
pub use isa::{AReg, BinOp, Cond, DReg, Instr, LdKind, StKind};
pub use sim::{RunStats, Simulator};
