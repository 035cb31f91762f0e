//! Sparse paged memory shared by all CABT simulators.
//!
//! Both address spaces in the system (the emulated source processor's and
//! the VLIW target's) are 32-bit and mostly empty, so [`Memory`] stores
//! 4 KiB pages in a hash map and materializes them on first write. Reads
//! from unmapped memory either return zero (the default, matching an
//! uninitialized SRAM model) or fault, depending on
//! [`Memory::set_fault_on_unmapped`].
//!
//! All multi-byte accesses are little-endian, matching both the TriCore
//! and C6x memory conventions used in the paper's platform.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::{Addr, AddrMap, IsaError, Word};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// A sparse, paged, little-endian memory.
///
/// # Example
///
/// ```
/// use cabt_isa::mem::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u16(0x100, 0xbeef)?;
/// assert_eq!(mem.read_u8(0x100)?, 0xef);
/// assert_eq!(mem.read_u8(0x101)?, 0xbe);
/// # Ok::<(), cabt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    /// Page number → index into `frames`. Pages are never freed, so
    /// frame indices are stable and the one-entry cache below stays
    /// valid across mutation.
    table: AddrMap<u32>,
    /// Page frames, owned flat so a cached index resolves without
    /// touching the hash table.
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Last page number and frame index resolved — consecutive
    /// accesses overwhelmingly hit the same page (array walks, stack
    /// frames), making most accesses hash-free.
    last: Option<(u32, u32)>,
    fault_on_unmapped: bool,
}

impl Memory {
    /// Creates an empty memory that reads zeroes from unmapped pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configures whether reads from pages never written fault with
    /// [`IsaError::Unmapped`] instead of returning zero.
    pub fn set_fault_on_unmapped(&mut self, fault: bool) {
        self.fault_on_unmapped = fault;
    }

    /// Copies `data` into memory starting at `addr`, allocating pages as
    /// needed. This is how ELF segments are loaded.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Unmapped`] if the segment would wrap past the
    /// end of the 32-bit address space.
    pub fn load(&mut self, addr: Addr, data: &[u8]) -> Result<(), IsaError> {
        if data.is_empty() {
            return Ok(());
        }
        let end = addr
            .checked_add(data.len() as u32 - 1)
            .ok_or(IsaError::Unmapped { addr })?;
        let _ = end;
        for (i, &b) in data.iter().enumerate() {
            self.store_u8(addr.wrapping_add(i as u32), b);
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Propagates unmapped-access faults when faulting is enabled.
    pub fn read_block(&mut self, addr: Addr, len: usize) -> Result<Vec<u8>, IsaError> {
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(self.read_u8(addr.wrapping_add(i as u32))?);
        }
        Ok(out)
    }

    #[inline]
    fn frame_of(&mut self, addr: Addr) -> Option<u32> {
        let key = addr >> PAGE_SHIFT;
        if let Some((k, i)) = self.last {
            if k == key {
                return Some(i);
            }
        }
        let i = *self.table.get(&key)?;
        self.last = Some((key, i));
        Some(i)
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        let key = addr >> PAGE_SHIFT;
        let i = match self.last {
            Some((k, i)) if k == key => i,
            _ => {
                let i = *self.table.entry(key).or_insert_with(|| {
                    self.frames.push(Box::new([0u8; PAGE_SIZE]));
                    (self.frames.len() - 1) as u32
                });
                self.last = Some((key, i));
                i
            }
        };
        &mut self.frames[i as usize]
    }

    #[inline]
    fn store_u8(&mut self, addr: Addr, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Unmapped`] when the page is unmapped and
    /// faulting is enabled.
    pub fn read_u8(&mut self, addr: Addr) -> Result<u8, IsaError> {
        match self.frame_of(addr) {
            Some(i) => Ok(self.frames[i as usize][(addr & OFFSET_MASK) as usize]),
            None if self.fault_on_unmapped => Err(IsaError::Unmapped { addr }),
            None => Ok(0),
        }
    }

    /// Writes one byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), IsaError> {
        self.store_u8(addr, value);
        Ok(())
    }

    /// Reads a little-endian halfword.
    ///
    /// Aligned multi-byte accesses never span a page, so this costs one
    /// page lookup, not one per byte — the simulators' data paths live
    /// on this.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Misaligned`] for odd addresses, or an
    /// unmapped-access fault as for [`Memory::read_u8`].
    pub fn read_u16(&mut self, addr: Addr) -> Result<u16, IsaError> {
        if addr & 1 != 0 {
            return Err(IsaError::Misaligned { addr, align: 2 });
        }
        let off = (addr & OFFSET_MASK) as usize;
        match self.frame_of(addr) {
            Some(i) => {
                let page = &self.frames[i as usize];
                Ok(u16::from_le_bytes([page[off], page[off + 1]]))
            }
            None if self.fault_on_unmapped => Err(IsaError::Unmapped { addr }),
            None => Ok(0),
        }
    }

    /// Writes a little-endian halfword.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Misaligned`] for odd addresses.
    pub fn write_u16(&mut self, addr: Addr, value: u16) -> Result<(), IsaError> {
        if addr & 1 != 0 {
            return Err(IsaError::Misaligned { addr, align: 2 });
        }
        let off = (addr & OFFSET_MASK) as usize;
        self.page_mut(addr)[off..off + 2].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian word (one page lookup; see
    /// [`Memory::read_u16`]).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Misaligned`] unless `addr` is 4-byte aligned,
    /// or an unmapped-access fault as for [`Memory::read_u8`].
    pub fn read_u32(&mut self, addr: Addr) -> Result<Word, IsaError> {
        if addr & 3 != 0 {
            return Err(IsaError::Misaligned { addr, align: 4 });
        }
        let off = (addr & OFFSET_MASK) as usize;
        match self.frame_of(addr) {
            Some(i) => Ok(u32::from_le_bytes(
                self.frames[i as usize][off..off + 4]
                    .try_into()
                    .expect("aligned word inside page"),
            )),
            None if self.fault_on_unmapped => Err(IsaError::Unmapped { addr }),
            None => Ok(0),
        }
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Misaligned`] unless `addr` is 4-byte aligned.
    pub fn write_u32(&mut self, addr: Addr, value: Word) -> Result<(), IsaError> {
        if addr & 3 != 0 {
            return Err(IsaError::Misaligned { addr, align: 4 });
        }
        let off = (addr & OFFSET_MASK) as usize;
        self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Number of pages currently materialized (diagnostics).
    pub fn page_count(&self) -> usize {
        self.frames.len()
    }

    /// Serializes the memory image for a portable snapshot. Pages are
    /// emitted sorted by page number, so two memories holding the same
    /// bytes encode identically regardless of allocation order — the
    /// fleet layer compares snapshot bytes for equality.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.bool(self.fault_on_unmapped);
        let mut pages: Vec<(u32, u32)> = self.table.iter().map(|(&k, &i)| (k, i)).collect();
        pages.sort_unstable_by_key(|&(k, _)| k);
        w.u64(pages.len() as u64);
        for (key, frame) in pages {
            w.u32(key);
            w.raw(&self.frames[frame as usize][..]);
        }
    }

    /// Decodes a [`Memory::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let fault_on_unmapped = r.bool()?;
        let npages = r.count("memory pages", 4 + PAGE_SIZE)?;
        let mut mem = Memory {
            table: AddrMap::default(),
            frames: Vec::with_capacity(npages),
            last: None,
            fault_on_unmapped,
        };
        for _ in 0..npages {
            let key = r.u32()?;
            let bytes = r.raw(PAGE_SIZE)?;
            let mut frame = Box::new([0u8; PAGE_SIZE]);
            frame.copy_from_slice(bytes);
            mem.table.insert(key, mem.frames.len() as u32);
            mem.frames.push(frame);
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32(0x1234_0000).unwrap(), 0);
        assert_eq!(m.read_u8(u32::MAX).unwrap(), 0);
    }

    #[test]
    fn fault_on_unmapped_when_enabled() {
        let mut m = Memory::new();
        m.set_fault_on_unmapped(true);
        assert_eq!(
            m.read_u8(0x42).unwrap_err(),
            IsaError::Unmapped { addr: 0x42 }
        );
        m.write_u8(0x42, 7).unwrap();
        assert_eq!(m.read_u8(0x42).unwrap(), 7);
        // The rest of the page is now mapped and readable.
        assert_eq!(m.read_u8(0x43).unwrap(), 0);
    }

    #[test]
    fn little_endian_word_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201).unwrap();
        assert_eq!(m.read_u8(0x100).unwrap(), 1);
        assert_eq!(m.read_u8(0x101).unwrap(), 2);
        assert_eq!(m.read_u8(0x102).unwrap(), 3);
        assert_eq!(m.read_u8(0x103).unwrap(), 4);
        assert_eq!(m.read_u16(0x100).unwrap(), 0x0201);
        assert_eq!(m.read_u16(0x102).unwrap(), 0x0403);
    }

    #[test]
    fn misaligned_accesses_fault() {
        let mut m = Memory::new();
        assert!(matches!(
            m.read_u16(1),
            Err(IsaError::Misaligned { addr: 1, align: 2 })
        ));
        assert!(matches!(
            m.read_u32(2),
            Err(IsaError::Misaligned { addr: 2, align: 4 })
        ));
        assert!(m.write_u32(0x101, 0).is_err());
        assert!(m.write_u16(0x103, 0).is_err());
    }

    #[test]
    fn load_spans_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..8192u32).map(|i| (i & 0xff) as u8).collect();
        m.load(0x0fff_f800, &data).unwrap();
        for i in 0..8192u32 {
            assert_eq!(m.read_u8(0x0fff_f800 + i).unwrap(), (i & 0xff) as u8);
        }
        assert!(m.page_count() >= 2);
    }

    #[test]
    fn load_empty_is_noop() {
        let mut m = Memory::new();
        m.load(0, &[]).unwrap();
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn read_block_round_trips() {
        let mut m = Memory::new();
        m.load(0x200, b"hello world").unwrap();
        assert_eq!(m.read_block(0x200, 11).unwrap(), b"hello world");
    }

    #[test]
    fn codec_round_trips_and_is_allocation_order_independent() {
        let mut a = Memory::new();
        a.set_fault_on_unmapped(true);
        a.write_u32(0x8000_0000, 0xdead_beef).unwrap();
        a.write_u8(0x42, 7).unwrap();

        // Same bytes, pages materialized in the opposite order.
        let mut b = Memory::new();
        b.set_fault_on_unmapped(true);
        b.write_u8(0x42, 7).unwrap();
        b.write_u32(0x8000_0000, 0xdead_beef).unwrap();
        let mut img_a = Vec::new();
        a.encode_into(&mut img_a);
        let mut img_b = Vec::new();
        b.encode_into(&mut img_b);
        assert_eq!(img_a, img_b, "page order must not leak into the image");

        let mut r = ByteReader::new(&img_a);
        let mut back = Memory::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.read_u32(0x8000_0000).unwrap(), 0xdead_beef);
        assert!(back.read_u8(0x9999_0000).is_err(), "fault flag restored");
        let mut img_back = Vec::new();
        back.encode_into(&mut img_back);
        assert_eq!(img_back, img_a, "reads leave the image unchanged");

        // Truncated input errors instead of panicking.
        let mut r = ByteReader::new(&img_a[..img_a.len() - 1]);
        assert!(Memory::decode(&mut r).is_err());
    }
}
