//! The cycle-accurate static binary translator — the paper's primary
//! contribution (Schnerr, Bringmann, Rosenstiel, DATE 2005).
//!
//! [`Translator`] consumes an ELF32 image of source-processor
//! (TriCore-like) object code and produces a VLIW target program whose
//! execution *generates the source processor's clock cycles* for the
//! attached SoC hardware, following Fig. 1 of the paper:
//!
//! 1. object-file ingestion and decoding into intermediate code
//!    ([`mod@cfg`]),
//! 2. basic-block construction ([`mod@cfg`]),
//! 3. base-address analysis — classifying loads/stores as memory or I/O
//!    and validating static remapping ([`baseaddr`]),
//! 4. static cycle calculation per basic block, modelling the source
//!    pipeline ([`cycles`]),
//! 5. insertion of cycle-generation code (Fig. 2) and of dynamic
//!    correction code for branch prediction and instruction caches
//!    (Fig. 3/4) ([`expand`], [`icache`]),
//! 6. further transformations of the intermediate code: dual-issue
//!    packing into execute packets, functional-unit assignment and
//!    register binding ([`sched`], [`regbind`]).
//!
//! The translation detail level is selected with [`DetailLevel`],
//! mirroring §3.2 of the paper:
//!
//! * [`DetailLevel::Functional`] — plain binary translation, no cycle
//!   information (the "C6x w/o cycle info" bars of Fig. 5),
//! * [`DetailLevel::Static`] — purely static prediction,
//! * [`DetailLevel::BranchPredict`] — dynamic improvement of the static
//!   prediction (branch-prediction modelling),
//! * [`DetailLevel::Cache`] — additional dynamic inclusion of the
//!   instruction cache.
//!
//! # Example
//!
//! ```
//! use cabt_core::{DetailLevel, Translator};
//! use cabt_tricore::asm::assemble;
//!
//! let elf = assemble(".text\n_start: mov %d2, 3\n add %d2, %d2\n debug\n")?;
//! let translated = Translator::new(DetailLevel::Static).translate(&elf)?;
//! assert!(translated.packets.len() > 2);
//! assert_eq!(translated.blocks.len(), 1); // one basic block
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseaddr;
pub mod cfg;
pub mod cycles;
pub mod expand;
pub mod icache;
pub mod regbind;
pub mod sched;
pub mod translate;

use std::fmt;

pub use translate::{BlockInfo, Translated, TranslationStats, Translator};

/// Detail level of the generated cycle accuracy (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetailLevel {
    /// Functional translation only — no cycle-generation code.
    Functional,
    /// Purely static per-basic-block cycle prediction.
    Static,
    /// Static prediction plus dynamic branch-prediction correction.
    BranchPredict,
    /// Branch prediction plus dynamic instruction-cache simulation.
    Cache,
}

impl DetailLevel {
    /// All levels in increasing accuracy order.
    pub const ALL: [DetailLevel; 4] = [
        DetailLevel::Functional,
        DetailLevel::Static,
        DetailLevel::BranchPredict,
        DetailLevel::Cache,
    ];

    /// True if cycle-generation code is emitted at all.
    pub fn generates_cycles(self) -> bool {
        self != DetailLevel::Functional
    }

    /// True if dynamic correction code (correction counter + correction
    /// block) is emitted.
    pub fn corrects_dynamically(self) -> bool {
        matches!(self, DetailLevel::BranchPredict | DetailLevel::Cache)
    }

    /// True if instruction-cache analysis code is emitted.
    pub fn simulates_icache(self) -> bool {
        self == DetailLevel::Cache
    }
}

impl fmt::Display for DetailLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetailLevel::Functional => "functional",
            DetailLevel::Static => "static",
            DetailLevel::BranchPredict => "branch-predict",
            DetailLevel::Cache => "cache",
        };
        f.write_str(s)
    }
}

/// Cycle-generation granularity: per basic block (normal operation) or
/// per instruction (the second translation used by the debug interface,
/// §3.5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// One cycle-generation burst per basic block (Fig. 2).
    #[default]
    BasicBlock,
    /// One burst per instruction — slower but single-steppable.
    PerInstruction,
}

/// Errors raised during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The input image has no `.text` section.
    NoText,
    /// The input image's machine number is not the source processor's.
    WrongMachine {
        /// Machine number found.
        found: u16,
    },
    /// The source code section did not decode.
    Decode {
        /// Address of the undecodable instruction.
        addr: u32,
    },
    /// A branch target lies outside the decoded program.
    BadBranchTarget {
        /// Address of the branching instruction.
        from: u32,
        /// The target address.
        to: u32,
    },
    /// The configured I-cache geometry is not supported by the generated
    /// correction code (only 1- and 2-way caches are).
    UnsupportedCache {
        /// The requested associativity.
        ways: u32,
    },
    /// Internal scheduling failure (a bug if it ever escapes).
    Sched(String),
    /// The input image cannot be materialized (a `.bss` over
    /// [`cabt_isa::elf::MAX_SECTION_SIZE`]).
    Image(cabt_isa::IsaError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NoText => write!(f, "input image has no .text section"),
            TranslateError::WrongMachine { found } => {
                write!(
                    f,
                    "input image is for machine {found}, expected TriCore (44)"
                )
            }
            TranslateError::Decode { addr } => {
                write!(f, "cannot decode source instruction at {addr:#010x}")
            }
            TranslateError::BadBranchTarget { from, to } => {
                write!(
                    f,
                    "branch at {from:#010x} targets {to:#010x}, outside the program"
                )
            }
            TranslateError::UnsupportedCache { ways } => {
                write!(
                    f,
                    "cache correction code supports 1- or 2-way caches, not {ways}-way"
                )
            }
            TranslateError::Sched(msg) => write!(f, "scheduling failure: {msg}"),
            TranslateError::Image(e) => write!(f, "input image: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_level_predicates() {
        assert!(!DetailLevel::Functional.generates_cycles());
        assert!(DetailLevel::Static.generates_cycles());
        assert!(!DetailLevel::Static.corrects_dynamically());
        assert!(DetailLevel::BranchPredict.corrects_dynamically());
        assert!(!DetailLevel::BranchPredict.simulates_icache());
        assert!(DetailLevel::Cache.simulates_icache());
        assert!(DetailLevel::Cache.corrects_dynamically());
    }

    #[test]
    fn detail_levels_are_ordered() {
        assert!(DetailLevel::Functional < DetailLevel::Static);
        assert!(DetailLevel::Static < DetailLevel::BranchPredict);
        assert!(DetailLevel::BranchPredict < DetailLevel::Cache);
    }

    #[test]
    fn display_names() {
        assert_eq!(DetailLevel::Cache.to_string(), "cache");
        assert_eq!(DetailLevel::BranchPredict.to_string(), "branch-predict");
    }
}
