//! A genuine ELF32 object-file reader and writer.
//!
//! The paper's compiler "reads the object file, which is usually provided
//! in ELF format". This module implements the subset of ELF32 that an
//! embedded toolchain actually produces for a statically linked image:
//! the ELF header, `PROGBITS`/`NOBITS` sections with load addresses, a
//! symbol table and its string tables. Byte order is little-endian
//! throughout (both our source and target machines are little-endian).
//!
//! The `cabt-tricore` assembler emits [`ElfFile`]s through
//! [`ElfFile::to_bytes`]; the translator and the golden-model simulator
//! ingest them through [`ElfFile::parse`]. Round-tripping is exact and is
//! covered by property tests.

use crate::{Addr, IsaError};

/// ELF machine number for Infineon TriCore (`EM_TRICORE`).
pub const EM_TRICORE: u16 = 44;

/// Largest `ALLOC` section (`.text`, `.data` or `.bss`) an image may
/// hold: 16 MiB. Images arrive untrusted (as bytes, and inside parked
/// sessions), and a `.bss` is materialized as zeroed host memory, so
/// its 32-bit size field must not decide how much the host allocates.
/// Every bundled and benchmark section is under 64 KiB.
pub const MAX_SECTION_SIZE: u32 = 16 << 20;

/// Checks one section size against [`MAX_SECTION_SIZE`]: the one check
/// that [`ElfFile::parse`], the assembler and every `.bss`
/// materialization share.
///
/// # Errors
///
/// Returns [`IsaError::SectionTooLarge`] when `size` exceeds the limit.
pub fn check_section_size(size: u64) -> Result<(), IsaError> {
    if size > u64::from(MAX_SECTION_SIZE) {
        return Err(IsaError::SectionTooLarge { size });
    }
    Ok(())
}

const EHDR_SIZE: u32 = 52;
const SHDR_SIZE: u32 = 40;
const SYM_SIZE: u32 = 16;

const SHT_NULL: u32 = 0;
const SHT_PROGBITS: u32 = 1;
const SHT_SYMTAB: u32 = 2;
const SHT_STRTAB: u32 = 3;
const SHT_NOBITS: u32 = 8;

const SHF_ALLOC: u32 = 0x2;
const SHF_EXECINSTR: u32 = 0x4;
const SHF_WRITE: u32 = 0x1;

/// What a section holds, mapped from/to the ELF `sh_type` and flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable code (`PROGBITS` + `ALLOC|EXECINSTR`).
    Text,
    /// Initialized data (`PROGBITS` + `ALLOC|WRITE`).
    Data,
    /// Zero-initialized data (`NOBITS` + `ALLOC|WRITE`); `data` holds no
    /// bytes, only `size` matters.
    Bss,
}

/// One loadable section of an object file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name, e.g. `.text`.
    pub name: String,
    /// What the section holds.
    pub kind: SectionKind,
    /// Load address in the emulated processor's address space.
    pub addr: Addr,
    /// Raw contents; empty for [`SectionKind::Bss`].
    pub data: Vec<u8>,
    /// Size in bytes. For `Text`/`Data` this must equal `data.len()`;
    /// for `Bss` it is the zero-fill size.
    pub size: u32,
}

impl Section {
    /// Creates a code section.
    pub fn text(addr: Addr, data: Vec<u8>) -> Self {
        let size = data.len() as u32;
        Section {
            name: ".text".into(),
            kind: SectionKind::Text,
            addr,
            data,
            size,
        }
    }

    /// Creates an initialized-data section.
    pub fn data(addr: Addr, data: Vec<u8>) -> Self {
        let size = data.len() as u32;
        Section {
            name: ".data".into(),
            kind: SectionKind::Data,
            addr,
            data,
            size,
        }
    }

    /// Creates a zero-initialized section of `size` bytes.
    pub fn bss(addr: Addr, size: u32) -> Self {
        Section {
            name: ".bss".into(),
            kind: SectionKind::Bss,
            addr,
            data: Vec::new(),
            size,
        }
    }
}

/// Kind of a symbol-table entry (subset of ELF `st_info` types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A code label / function entry point (`STT_FUNC`).
    Func,
    /// A data object (`STT_OBJECT`).
    Object,
    /// Anything else (`STT_NOTYPE`).
    NoType,
}

/// One symbol, used for debugging and for locating program entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Symbol value (an address for our purposes).
    pub value: Addr,
    /// Object size in bytes (zero if unknown).
    pub size: u32,
    /// Symbol type.
    pub kind: SymbolKind,
}

/// An in-memory ELF32 image: what the assembler produces and the
/// translator consumes.
///
/// # Example
///
/// ```
/// use cabt_isa::elf::{ElfFile, Section, EM_TRICORE};
///
/// let mut elf = ElfFile::new(EM_TRICORE, 0x8000_0000);
/// elf.sections.push(Section::text(0x8000_0000, vec![0x0b, 0x01]));
/// let bytes = elf.to_bytes()?;
/// let back = ElfFile::parse(&bytes)?;
/// assert_eq!(back.entry, 0x8000_0000);
/// assert_eq!(back.sections[0].data, [0x0b, 0x01]);
/// # Ok::<(), cabt_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfFile {
    /// ELF machine number, e.g. [`EM_TRICORE`].
    pub machine: u16,
    /// Program entry point.
    pub entry: Addr,
    /// Loadable sections in file order.
    pub sections: Vec<Section>,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
}

impl ElfFile {
    /// Creates an empty image for `machine` with the given entry point.
    pub fn new(machine: u16, entry: Addr) -> Self {
        ElfFile {
            machine,
            entry,
            sections: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// Returns the section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Returns the symbol named `name`, if present.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Loads all `ALLOC` sections into `mem` at their load addresses
    /// (zero-filling `.bss`).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::SectionTooLarge`] for a `.bss` over
    /// [`MAX_SECTION_SIZE`]; propagates memory faults from
    /// [`crate::mem::Memory::load`].
    pub fn load_into(&self, mem: &mut crate::mem::Memory) -> Result<(), IsaError> {
        for s in &self.sections {
            match s.kind {
                SectionKind::Text | SectionKind::Data => mem.load(s.addr, &s.data)?,
                SectionKind::Bss => {
                    // Explicitly zero the range so fault-on-unmapped
                    // memories treat .bss as mapped.
                    check_section_size(u64::from(s.size))?;
                    mem.load(s.addr, &vec![0u8; s.size as usize])?;
                }
            }
        }
        Ok(())
    }

    /// Serializes to ELF32 little-endian bytes.
    ///
    /// Layout: ELF header, section contents, `.symtab`, `.strtab`,
    /// `.shstrtab`, then the section header table.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ElfEncode`] if a non-BSS section's `size`
    /// disagrees with its data length.
    pub fn to_bytes(&self) -> Result<Vec<u8>, IsaError> {
        for s in &self.sections {
            if s.kind != SectionKind::Bss && s.size as usize != s.data.len() {
                return Err(IsaError::ElfEncode(format!(
                    "section {} size {} != data length {}",
                    s.name,
                    s.size,
                    s.data.len()
                )));
            }
        }

        let mut shstrtab: Vec<u8> = vec![0];
        let shstr_off = |name: &str, tab: &mut Vec<u8>| -> u32 {
            let off = tab.len() as u32;
            tab.extend_from_slice(name.as_bytes());
            tab.push(0);
            off
        };

        let mut strtab: Vec<u8> = vec![0];
        let mut sym_entries: Vec<u8> = vec![0u8; SYM_SIZE as usize]; // null symbol
        for sym in &self.symbols {
            let name_off = strtab.len() as u32;
            strtab.extend_from_slice(sym.name.as_bytes());
            strtab.push(0);
            let info: u8 = match sym.kind {
                SymbolKind::Func => (1 << 4) | 2,   // GLOBAL, FUNC
                SymbolKind::Object => (1 << 4) | 1, // GLOBAL, OBJECT
                SymbolKind::NoType => 1 << 4,       // GLOBAL, NOTYPE
            };
            put_u32(&mut sym_entries, name_off);
            put_u32(&mut sym_entries, sym.value);
            put_u32(&mut sym_entries, sym.size);
            sym_entries.push(info);
            sym_entries.push(0); // st_other
            sym_entries.extend_from_slice(&1u16.to_le_bytes()); // st_shndx: first real section
        }

        // Section numbering: 0 = NULL, 1.. = user sections,
        // then .symtab, .strtab, .shstrtab.
        let n_user = self.sections.len() as u32;
        let symtab_idx = 1 + n_user;
        let strtab_idx = symtab_idx + 1;
        let shstrtab_idx = strtab_idx + 1;
        let shnum = shstrtab_idx + 1;

        let mut body: Vec<u8> = Vec::new();
        // (name, type, flags, addr, offset, size, link, info, align, entsize)
        type ShdrFields = (u32, u32, u32, u32, u32, u32, u32, u32, u32, u32);
        let mut headers: Vec<ShdrFields> = Vec::new();
        headers.push((0, SHT_NULL, 0, 0, 0, 0, 0, 0, 0, 0));

        for s in &self.sections {
            let name_off = shstr_off(&s.name, &mut shstrtab);
            let (ty, flags) = match s.kind {
                SectionKind::Text => (SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR),
                SectionKind::Data => (SHT_PROGBITS, SHF_ALLOC | SHF_WRITE),
                SectionKind::Bss => (SHT_NOBITS, SHF_ALLOC | SHF_WRITE),
            };
            let offset = EHDR_SIZE + body.len() as u32;
            if s.kind != SectionKind::Bss {
                body.extend_from_slice(&s.data);
                while !body.len().is_multiple_of(4) {
                    body.push(0);
                }
            }
            headers.push((name_off, ty, flags, s.addr, offset, s.size, 0, 0, 4, 0));
        }

        let symtab_off = EHDR_SIZE + body.len() as u32;
        body.extend_from_slice(&sym_entries);
        let symtab_name = shstr_off(".symtab", &mut shstrtab);
        headers.push((
            symtab_name,
            SHT_SYMTAB,
            0,
            0,
            symtab_off,
            sym_entries.len() as u32,
            strtab_idx,
            1, // info: index of first global symbol
            4,
            SYM_SIZE,
        ));

        let strtab_off = EHDR_SIZE + body.len() as u32;
        body.extend_from_slice(&strtab);
        while !body.len().is_multiple_of(4) {
            body.push(0);
        }
        let strtab_name = shstr_off(".strtab", &mut shstrtab);
        headers.push((
            strtab_name,
            SHT_STRTAB,
            0,
            0,
            strtab_off,
            strtab.len() as u32,
            0,
            0,
            1,
            0,
        ));

        let shstrtab_name = shstr_off(".shstrtab", &mut shstrtab);
        let shstrtab_off = EHDR_SIZE + body.len() as u32;
        body.extend_from_slice(&shstrtab);
        while !body.len().is_multiple_of(4) {
            body.push(0);
        }
        headers.push((
            shstrtab_name,
            SHT_STRTAB,
            0,
            0,
            shstrtab_off,
            shstrtab.len() as u32,
            0,
            0,
            1,
            0,
        ));

        let shoff = EHDR_SIZE + body.len() as u32;

        let mut out = Vec::with_capacity(EHDR_SIZE as usize + body.len() + headers.len() * 40);
        out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 1, 1, 1, 0]);
        out.extend_from_slice(&[0u8; 8]);
        out.extend_from_slice(&2u16.to_le_bytes()); // ET_EXEC
        out.extend_from_slice(&self.machine.to_le_bytes());
        put_u32(&mut out, 1); // e_version
        put_u32(&mut out, self.entry);
        put_u32(&mut out, 0); // e_phoff
        put_u32(&mut out, shoff);
        put_u32(&mut out, 0); // e_flags
        out.extend_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // e_phentsize
        out.extend_from_slice(&0u16.to_le_bytes()); // e_phnum
        out.extend_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(shnum as u16).to_le_bytes());
        out.extend_from_slice(&(shstrtab_idx as u16).to_le_bytes());
        debug_assert_eq!(out.len() as u32, EHDR_SIZE);

        out.extend_from_slice(&body);
        for (name, ty, flags, addr, offset, size, link, info, align, entsize) in headers {
            for v in [
                name, ty, flags, addr, offset, size, link, info, align, entsize,
            ] {
                put_u32(&mut out, v);
            }
        }
        Ok(out)
    }

    /// Parses an ELF32 little-endian image produced by [`ElfFile::to_bytes`]
    /// (or any conforming toolchain emitting the same subset).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadElf`] on any structural violation: bad
    /// magic, wrong class/endianness, truncated tables, or out-of-range
    /// offsets; [`IsaError::SectionTooLarge`] for an `ALLOC` section
    /// over [`MAX_SECTION_SIZE`].
    pub fn parse(bytes: &[u8]) -> Result<Self, IsaError> {
        let bad = |msg: &str| IsaError::BadElf(msg.to_string());
        if bytes.len() < EHDR_SIZE as usize {
            return Err(bad("file shorter than ELF header"));
        }
        if &bytes[0..4] != b"\x7fELF" {
            return Err(bad("bad magic"));
        }
        if bytes[4] != 1 {
            return Err(bad("not ELFCLASS32"));
        }
        if bytes[5] != 1 {
            return Err(bad("not little-endian"));
        }
        let machine = u16::from_le_bytes([bytes[18], bytes[19]]);
        let entry = get_u32(bytes, 24)?;
        let shoff = get_u32(bytes, 32)? as usize;
        let shentsize = u16::from_le_bytes([bytes[46], bytes[47]]) as usize;
        let shnum = u16::from_le_bytes([bytes[48], bytes[49]]) as usize;
        let shstrndx = u16::from_le_bytes([bytes[50], bytes[51]]) as usize;
        if shentsize != SHDR_SIZE as usize {
            return Err(bad("unexpected section header entry size"));
        }
        if shoff + shnum * shentsize > bytes.len() {
            return Err(bad("section header table out of range"));
        }
        if shstrndx >= shnum {
            return Err(bad("shstrndx out of range"));
        }

        struct Shdr {
            name: u32,
            ty: u32,
            flags: u32,
            addr: u32,
            offset: u32,
            size: u32,
            link: u32,
        }
        let read_shdr = |i: usize| -> Result<Shdr, IsaError> {
            let base = shoff + i * SHDR_SIZE as usize;
            Ok(Shdr {
                name: get_u32(bytes, base)?,
                ty: get_u32(bytes, base + 4)?,
                flags: get_u32(bytes, base + 8)?,
                addr: get_u32(bytes, base + 12)?,
                offset: get_u32(bytes, base + 16)?,
                size: get_u32(bytes, base + 20)?,
                link: get_u32(bytes, base + 24)?,
            })
        };

        let shstr = read_shdr(shstrndx)?;
        let shstr_data = slice(bytes, shstr.offset, shstr.size)?;
        let sect_name = |off: u32| -> Result<String, IsaError> {
            cstr(shstr_data, off).ok_or_else(|| bad("bad section name offset"))
        };

        let mut sections = Vec::new();
        let mut symbols = Vec::new();
        for i in 1..shnum {
            let h = read_shdr(i)?;
            if h.flags & SHF_ALLOC != 0 {
                check_section_size(u64::from(h.size))?;
            }
            match h.ty {
                SHT_PROGBITS => {
                    let data = slice(bytes, h.offset, h.size)?.to_vec();
                    let kind = if h.flags & SHF_EXECINSTR != 0 {
                        SectionKind::Text
                    } else {
                        SectionKind::Data
                    };
                    sections.push(Section {
                        name: sect_name(h.name)?,
                        kind,
                        addr: h.addr,
                        data,
                        size: h.size,
                    });
                }
                SHT_NOBITS => {
                    sections.push(Section {
                        name: sect_name(h.name)?,
                        kind: SectionKind::Bss,
                        addr: h.addr,
                        data: Vec::new(),
                        size: h.size,
                    });
                }
                SHT_SYMTAB => {
                    let data = slice(bytes, h.offset, h.size)?;
                    if h.link as usize >= shnum {
                        return Err(bad("symtab string-table link out of range"));
                    }
                    let strh = read_shdr(h.link as usize)?;
                    let strdata = slice(bytes, strh.offset, strh.size)?;
                    let count = data.len() / SYM_SIZE as usize;
                    for s in 1..count {
                        let base = s * SYM_SIZE as usize;
                        let name_off = get_u32(data, base)?;
                        let value = get_u32(data, base + 4)?;
                        let size = get_u32(data, base + 8)?;
                        let info = data[base + 12];
                        let kind = match info & 0xf {
                            2 => SymbolKind::Func,
                            1 => SymbolKind::Object,
                            _ => SymbolKind::NoType,
                        };
                        let name = cstr(strdata, name_off).ok_or_else(|| bad("bad symbol name"))?;
                        symbols.push(Symbol {
                            name,
                            value,
                            size,
                            kind,
                        });
                    }
                }
                _ => {}
            }
        }

        Ok(ElfFile {
            machine,
            entry,
            sections,
            symbols,
        })
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], off: usize) -> Result<u32, IsaError> {
    if off + 4 > bytes.len() {
        return Err(IsaError::BadElf("truncated word".into()));
    }
    Ok(u32::from_le_bytes([
        bytes[off],
        bytes[off + 1],
        bytes[off + 2],
        bytes[off + 3],
    ]))
}

fn slice(bytes: &[u8], off: u32, len: u32) -> Result<&[u8], IsaError> {
    let off = off as usize;
    let len = len as usize;
    if off + len > bytes.len() {
        return Err(IsaError::BadElf("section data out of range".into()));
    }
    Ok(&bytes[off..off + len])
}

fn cstr(data: &[u8], off: u32) -> Option<String> {
    let off = off as usize;
    if off >= data.len() {
        return None;
    }
    let end = data[off..].iter().position(|&b| b == 0)? + off;
    String::from_utf8(data[off..end].to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ElfFile {
        let mut elf = ElfFile::new(EM_TRICORE, 0x8000_0010);
        elf.sections
            .push(Section::text(0x8000_0000, vec![1, 2, 3, 4, 5, 6]));
        elf.sections.push(Section::data(0xd000_0000, vec![9, 8, 7]));
        elf.sections.push(Section::bss(0xd000_1000, 64));
        elf.symbols.push(Symbol {
            name: "_start".into(),
            value: 0x8000_0010,
            size: 0,
            kind: SymbolKind::Func,
        });
        elf.symbols.push(Symbol {
            name: "table".into(),
            value: 0xd000_0000,
            size: 3,
            kind: SymbolKind::Object,
        });
        elf
    }

    #[test]
    fn round_trip_preserves_everything() {
        let elf = sample();
        let bytes = elf.to_bytes().unwrap();
        let back = ElfFile::parse(&bytes).unwrap();
        assert_eq!(back, elf);
    }

    #[test]
    fn load_into_memory_places_sections() {
        let elf = sample();
        let mut mem = crate::mem::Memory::new();
        mem.set_fault_on_unmapped(true);
        elf.load_into(&mut mem).unwrap();
        assert_eq!(mem.read_u8(0x8000_0000).unwrap(), 1);
        assert_eq!(mem.read_u8(0xd000_0002).unwrap(), 7);
        assert_eq!(mem.read_u8(0xd000_103f).unwrap(), 0); // bss mapped
        assert!(mem.read_u8(0xd000_2000).is_err()); // beyond bss faults
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = 0;
        assert!(matches!(ElfFile::parse(&bytes), Err(IsaError::BadElf(_))));
    }

    #[test]
    fn rejects_wrong_class_and_endianness() {
        let mut b = sample().to_bytes().unwrap();
        b[4] = 2; // ELFCLASS64
        assert!(ElfFile::parse(&b).is_err());
        let mut b = sample().to_bytes().unwrap();
        b[5] = 2; // big-endian
        assert!(ElfFile::parse(&b).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let bytes = sample().to_bytes().unwrap();
        assert!(ElfFile::parse(&bytes[..40]).is_err());
        // Chopping the section header table off must also fail.
        assert!(ElfFile::parse(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn size_mismatch_refused_on_encode() {
        let mut elf = sample();
        elf.sections[0].size = 999;
        assert!(matches!(elf.to_bytes(), Err(IsaError::ElfEncode(_))));
    }

    #[test]
    fn oversized_bss_is_refused_before_allocation() {
        let mut elf = sample();
        elf.sections[2].size = 64 << 20;
        let bytes = elf.to_bytes().unwrap();
        assert_eq!(
            ElfFile::parse(&bytes),
            Err(IsaError::SectionTooLarge { size: 64 << 20 })
        );
        let mut mem = crate::mem::Memory::new();
        assert_eq!(
            elf.load_into(&mut mem),
            Err(IsaError::SectionTooLarge { size: 64 << 20 })
        );
        // The limit itself is still a legal size.
        elf.sections[2].size = MAX_SECTION_SIZE;
        assert!(ElfFile::parse(&elf.to_bytes().unwrap()).is_ok());
    }

    #[test]
    fn section_and_symbol_lookup() {
        let elf = sample();
        assert_eq!(elf.section(".data").unwrap().data, vec![9, 8, 7]);
        assert!(elf.section(".rodata").is_none());
        assert_eq!(elf.symbol("_start").unwrap().value, 0x8000_0010);
        assert!(elf.symbol("missing").is_none());
    }

    #[test]
    fn machine_numbers_survive() {
        // A machine number other than TriCore's (TI C6000's).
        let mut elf = sample();
        elf.machine = 140;
        let back = ElfFile::parse(&elf.to_bytes().unwrap()).unwrap();
        assert_eq!(back.machine, 140);
    }
}
