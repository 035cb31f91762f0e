//! Shared infrastructure for the CABT cycle-accurate binary translator.
//!
//! This crate provides the substrate every other CABT crate builds on:
//!
//! * [`mem::Memory`] — a sparse, paged, little-endian byte-addressable
//!   memory with watchpoint-free access tracking, used by the source-ISA
//!   golden model, the VLIW target simulator and the platform model.
//! * [`elf`] — a real ELF32 object-file reader and writer (sections,
//!   symbol tables, string tables). The paper's translator consumes ELF
//!   object code ("the compiler reads the object file, which is usually
//!   provided in ELF format"); so does ours.
//! * [`codec`] — the little-endian byte reader/writer pair every crate
//!   uses to serialize its snapshot state for portable park/resume.
//! * Common error types ([`IsaError`]) and address/word conventions.
//!
//! # Example
//!
//! ```
//! use cabt_isa::mem::Memory;
//!
//! let mut mem = Memory::new();
//! mem.write_u32(0x8000_0000, 0xdead_beef)?;
//! assert_eq!(mem.read_u32(0x8000_0000)?, 0xdead_beef);
//! # Ok::<(), cabt_isa::IsaError>(())
//! ```

pub mod codec;
pub mod elf;
pub mod mem;
pub mod rng;

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A 32-bit byte address in either the source or target address space.
pub type Addr = u32;

/// Multiplicative hasher for `u32` address keys: page numbers in the
/// [`mem::Memory`] page table, code addresses in the simulators'
/// address → position indexes. Every data access and every indirect
/// branch of a simulator hashes one of them, and the default SipHash is
/// built for untrusted keys, not for a hot loop hashing small integers;
/// one odd-constant multiply (Fibonacci hashing) spreads sequential
/// keys well enough and costs a cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by `u32` keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by a `u32` address (or page number), hashed by
/// [`AddrHasher`].
pub type AddrMap<V> = HashMap<u32, V, BuildHasherDefault<AddrHasher>>;

/// A 32-bit machine word.
pub type Word = u32;

/// Errors produced by the shared ISA substrate.
///
/// All CABT crates funnel low-level failures (bad memory accesses,
/// malformed object files) through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// An access touched an address with no backing storage while the
    /// memory was configured to fault on unmapped accesses.
    Unmapped {
        /// The faulting address.
        addr: Addr,
    },
    /// A multi-byte access was not aligned to its natural boundary.
    Misaligned {
        /// The faulting address.
        addr: Addr,
        /// The required alignment in bytes.
        align: u32,
    },
    /// An ELF image could not be parsed.
    BadElf(String),
    /// An ELF image could not be produced.
    ElfEncode(String),
    /// An `ALLOC` section is larger than [`elf::MAX_SECTION_SIZE`].
    SectionTooLarge {
        /// The section's size in bytes.
        size: u64,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::Unmapped { addr } => write!(f, "unmapped memory access at {addr:#010x}"),
            IsaError::Misaligned { addr, align } => {
                write!(f, "misaligned {align}-byte access at {addr:#010x}")
            }
            IsaError::BadElf(msg) => write!(f, "malformed ELF image: {msg}"),
            IsaError::ElfEncode(msg) => write!(f, "cannot encode ELF image: {msg}"),
            IsaError::SectionTooLarge { size } => write!(
                f,
                "section of {size} bytes exceeds the {} byte limit",
                elf::MAX_SECTION_SIZE
            ),
        }
    }
}

impl std::error::Error for IsaError {}

/// Sign-extend the low `bits` bits of `value` to a full `i32`.
///
/// Used by every decoder in the workspace.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 32.
///
/// # Example
///
/// ```
/// assert_eq!(cabt_isa::sign_extend(0x1ff, 9), -1);
/// assert_eq!(cabt_isa::sign_extend(0x0ff, 9), 255);
/// ```
#[inline]
pub fn sign_extend(value: u32, bits: u32) -> i32 {
    assert!(
        (1..=32).contains(&bits),
        "sign_extend bit width out of range"
    );
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Extract bits `[hi:lo]` (inclusive) of `value`.
///
/// # Example
///
/// ```
/// assert_eq!(cabt_isa::bits(0xabcd_1234, 15, 8), 0x12);
/// ```
#[inline]
pub fn bits(value: u32, hi: u32, lo: u32) -> u32 {
    debug_assert!(hi >= lo && hi < 32);
    (value >> lo) & (u32::MAX >> (31 - (hi - lo)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_positive() {
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(5, 4), 5);
        assert_eq!(sign_extend(0xffff_ffff, 32), -1);
    }

    #[test]
    fn sign_extend_negative() {
        assert_eq!(sign_extend(0x80, 8), -128);
        assert_eq!(sign_extend(0xffff, 16), -1);
        assert_eq!(sign_extend(0x8000, 16), -32768);
    }

    #[test]
    #[should_panic]
    fn sign_extend_zero_bits_panics() {
        sign_extend(0, 0);
    }

    #[test]
    fn bits_extracts_fields() {
        assert_eq!(bits(0xdead_beef, 31, 16), 0xdead);
        assert_eq!(bits(0xdead_beef, 15, 0), 0xbeef);
        assert_eq!(bits(0b1010_1100, 3, 2), 0b11);
        assert_eq!(bits(u32::MAX, 31, 0), u32::MAX);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IsaError::Unmapped { addr: 0x1000 };
        assert!(e.to_string().contains("0x00001000"));
        let e = IsaError::Misaligned { addr: 3, align: 4 };
        assert!(e.to_string().contains("4-byte"));
    }
}
