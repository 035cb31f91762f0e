//! Two-pass assembler for the source ISA, emitting ELF32 images.
//!
//! The paper's flow starts from "a few examples ... compiled using a C
//! compiler into TriCore object code". We do not ship a C compiler; the
//! benchmark programs are written in assembly and this assembler turns
//! them into exactly what the paper's translator consumes: ELF object
//! code with `.text`/`.data`/`.bss` sections and a symbol table.
//!
//! # Syntax
//!
//! ```text
//!     .text                     # section directives
//!     .global _start
//! _start:                       # labels
//!     mov   %d0, 42             # 16-bit form picked automatically
//!     movh.a %a2, hi:table      # hi:/lo: relocation operators
//!     lea   %a2, [%a2]lo:table
//!     ld.w  %d1, [%a2+]4        # post-increment addressing
//!     jne   %d0, %d1, loop_top  # compare-and-branch to a label
//!     ret
//!     .data
//! table: .word 1, 2, 3, sym+4   # data directives: .word .half .byte
//!     .space 64                 # reserve zeroed bytes
//!     .align 4
//! ```
//!
//! Comments start with `#` or `;`. Short 16-bit encodings are selected
//! automatically whenever the operand *form* permits it (literal
//! immediate in range, zero offset, two-operand add/sub), which keeps
//! instruction sizes identical between the two passes. `.global` is
//! accepted and ignored: every label is emitted to the symbol table.
//!
//! # Passes
//!
//! Pass 1 walks the source on bytes: one scan finds a line's end and
//! comment, then it takes the labels off the front and splits the
//! directive or mnemonic from its operands. Operands borrow from the
//! source, and so does the symbol table. It lays out the sections and
//! collects the symbols. Data directives write their constant operands
//! straight into the `.data` image; any other operand (a symbol, or a
//! register that pass 2 rejects) leaves a zeroed slot and a fix-up.
//! Instructions are parsed and sized (the size depends on operand form
//! only, so it holds in pass 2).
//!
//! Pass 2 walks the instructions and fix-ups in source order: it
//! resolves symbols, encodes `.text` and fills the data slots. So a
//! pass-1 error anywhere in the file wins over a resolution error, and
//! resolution errors come in source order.
//!
//! The operand parser is a loop, not a recursion: stacked `hi:`/`lo:`
//! prefixes and memory operands nested as offsets are scanned one after
//! another, so no operand can overflow the stack.

use crate::encode::{encode_into, BINOPS, CONDS};
use crate::isa::{AReg, BinOp, DReg, Instr, LdKind, StKind};
use cabt_isa::elf::{
    check_section_size, ElfFile, Section, Symbol, SymbolKind, EM_TRICORE, MAX_SECTION_SIZE,
};
use std::collections::HashMap;
use std::fmt;

/// Default load address of `.text`.
pub const TEXT_BASE: u32 = 0x8000_0000;
/// Default load address of `.data`.
pub const DATA_BASE: u32 = 0xd000_0000;
/// Default load address of `.bss`.
pub const BSS_BASE: u32 = 0xd002_0000;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// Advances a section cursor by `n` bytes; a cursor that would wrap
/// past the top of the 32-bit address space is an error.
fn advance(cursor: &mut u32, n: u32, line: u32) -> Result<(), AsmError> {
    match cursor.checked_add(n) {
        Some(next) => {
            *cursor = next;
            Ok(())
        }
        None => err(line, "section runs past the end of the address space"),
    }
}

/// Checks a section length against the image limit
/// ([`check_section_size`]).
fn check_size(len: u64, line: u32) -> Result<(), AsmError> {
    check_section_size(len).map_err(|e| AsmError {
        line,
        msg: e.to_string(),
    })
}

/// hi:/lo: operator applied to a symbolic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    None,
    Hi,
    Lo,
}

/// An operand that evaluates to a number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val<'a> {
    Imm(i64),
    Sym { name: &'a str, add: i64, part: Part },
}

/// A parsed operand.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg<'a> {
    D(DReg),
    A(AReg),
    Val(Val<'a>),
    /// `[base]off`; `off` is `None` when the offset is a register or
    /// another memory operand, which fails where it is evaluated.
    Mem {
        base: AReg,
        postinc: bool,
        off: Option<Val<'a>>,
    },
}

impl<'a> Arg<'a> {
    fn d(&self, line: u32) -> Result<DReg, AsmError> {
        match self {
            Arg::D(r) => Ok(*r),
            _ => err(line, "expected a data register"),
        }
    }

    fn a(&self, line: u32) -> Result<AReg, AsmError> {
        match self {
            Arg::A(r) => Ok(*r),
            _ => err(line, "expected an address register"),
        }
    }

    fn val(self) -> Option<Val<'a>> {
        match self {
            Arg::Val(v) => Some(v),
            _ => None,
        }
    }
}

/// A section; its discriminant indexes the per-section cursors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SectionId {
    Text,
    Data,
    Bss,
}

/// Pass-2 work, in source order.
#[derive(Debug, Clone, Copy)]
enum Work<'a> {
    /// An instruction; its operands are `args[args.0..args.1]`.
    Instr {
        line: u32,
        addr: u32,
        mnemonic: &'a str,
        args: (usize, usize),
    },
    /// Zeroed bytes in `.text`.
    TextSpace(u32),
    /// A data operand to evaluate into `data[at..at + unit]`.
    Fixup {
        line: u32,
        at: usize,
        unit: usize,
        arg: Arg<'a>,
    },
    /// The item at `line` took a section to `len` bytes, past the
    /// image limit.
    TooLarge { line: u32, len: u64 },
}

/// What pass 1 hands to pass 2.
#[derive(Default)]
struct Layout<'a> {
    /// The `.data` image, constant operands already in place.
    data: Vec<u8>,
    /// Every instruction's operands, one after another.
    args: Vec<Arg<'a>>,
    work: Vec<Work<'a>>,
    text_len: u64,
    bss_size: u64,
    text_start: Option<u32>,
    data_start: Option<u32>,
    /// Set at the first section past the image limit. Pass 2 fails at
    /// that item whatever comes after it, so pass 1 only looks for its
    /// own errors from then on and writes nothing more.
    full: bool,
}

impl Layout<'_> {
    /// Records `len`, a section's new total after the item at `line`.
    fn check_total(&mut self, len: u64, line: u32) {
        if !self.full && len > u64::from(MAX_SECTION_SIZE) {
            self.work.push(Work::TooLarge { line, len });
            self.full = true;
        }
    }

    /// Reserves `n` zeroed bytes in `section`.
    fn space(&mut self, section: SectionId, addr: u32, n: u32, line: u32) {
        let n64 = u64::from(n);
        match section {
            SectionId::Text => {
                self.text_start.get_or_insert(addr);
                self.text_len += n64;
                if !self.full {
                    self.work.push(Work::TextSpace(n));
                }
                self.check_total(self.text_len, line);
            }
            SectionId::Data => {
                self.data_start.get_or_insert(addr);
                let len = self.data.len() as u64 + n64;
                self.check_total(len, line);
                if !self.full {
                    self.data.resize(len as usize, 0);
                }
            }
            SectionId::Bss => {
                self.bss_size += n64;
                self.check_total(self.bss_size, line);
            }
        }
    }
}

/// Whitespace as `char::is_whitespace` sees it, for ASCII bytes.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// `str::trim`, stripping ASCII ends on bytes; a non-ASCII end goes to
/// `str::trim`.
#[inline(always)]
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let (mut i, mut j) = (0, b.len());
    while i < j && is_space(b[i]) {
        i += 1;
    }
    while j > i && is_space(b[j - 1]) {
        j -= 1;
    }
    let t = &s[i..j];
    match (t.bytes().next(), t.bytes().next_back()) {
        (Some(first), Some(last)) if !first.is_ascii() || !last.is_ascii() => t.trim(),
        _ => t,
    }
}

/// The index of the first `\n`, `#` or `;` at or after `i`, or the
/// end: eight bytes a step, with the zero-byte test of each pattern
/// XORed in. A borrow can only mark a byte above a true match, so the
/// lowest marked byte is the first match.
fn line_stop(b: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let hits = |w: u64, c: u8| {
        let x = w ^ (ONES * u64::from(c));
        x.wrapping_sub(ONES) & !x & HIGH
    };
    while let Some(chunk) = b.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let m = hits(w, b'\n') | hits(w, b'#') | hits(w, b';');
        if m != 0 {
            return i + (m.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < b.len() && !matches!(b[i], b'\n' | b'#' | b';') {
        i += 1;
    }
    i
}

/// Splits `s` at its first whitespace into `(word, rest.trim())`.
fn split_word(s: &str) -> (&str, &str) {
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if is_space(b) {
            return (&s[..i], trim(&s[i..]));
        }
        if !b.is_ascii() {
            // Non-ASCII whitespace counts too: finish with char semantics.
            return match s[i..].find(char::is_whitespace) {
                Some(p) => (&s[..i + p], s[i + p..].trim()),
                None => (s, ""),
            };
        }
    }
    (s, "")
}

/// Takes a leading `label:` off `text`, returning the name and the
/// trimmed rest.
fn split_label(text: &str) -> Option<(&str, &str)> {
    let b = text.as_bytes();
    let n = b
        .iter()
        .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b'.'))
        .unwrap_or(b.len());
    if n == 0 || b[0] == b'.' {
        return None;
    }
    let rest = text[n..].trim_start().strip_prefix(':')?;
    Some((&text[..n], trim(rest)))
}

/// The comma-separated operands of `s` (already trimmed), each trimmed.
fn operands(s: &str) -> impl Iterator<Item = &str> {
    let mut rest = (!s.is_empty()).then_some(s);
    std::iter::from_fn(move || {
        let r = rest?;
        match r.as_bytes().iter().position(|&b| b == b',') {
            Some(p) => {
                rest = Some(&r[p + 1..]);
                Some(trim(&r[..p]))
            }
            None => {
                rest = None;
                Some(trim(r))
            }
        }
    })
}

/// Assembles source text into an ELF32 image.
///
/// # Errors
///
/// Returns [`AsmError`] (with line number) for syntax errors, unknown
/// mnemonics, out-of-range immediates, undefined symbols or misplaced
/// directives.
///
/// # Example
///
/// ```
/// let elf = cabt_tricore::asm::assemble(".text\n_start: debug\n")?;
/// assert_eq!(elf.entry, cabt_tricore::asm::TEXT_BASE);
/// # Ok::<(), cabt_tricore::asm::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<ElfFile, AsmError> {
    // ---- pass 1: parse, size, lay out, collect symbols ----
    let mut out = Layout::default();
    let mut symbols: HashMap<&str, (u32, SectionId)> = HashMap::new();
    let mut section = SectionId::Text;
    let mut pc = [TEXT_BASE, DATA_BASE, BSS_BASE];
    let bytes = src.as_bytes();
    let (mut start, mut line) = (0, 0u32);

    while start < bytes.len() {
        line += 1;
        let stop = line_stop(bytes, start);
        let end = match bytes.get(stop) {
            Some(b'#' | b';') => bytes[stop..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |p| stop + p),
            _ => stop,
        };
        let mut text = trim(&src[start..stop]);
        start = end + 1;

        // Labels (possibly several) at the start of the line. "hi:" /
        // "lo:" inside operands never reach here because labels are
        // only recognized before the mnemonic.
        while let Some((name, rest)) = split_label(text) {
            if symbols
                .insert(name, (pc[section as usize], section))
                .is_some()
            {
                return err(line, format!("duplicate label `{name}`"));
            }
            text = rest;
        }
        if text.is_empty() {
            continue;
        }
        let here = pc[section as usize];

        if let Some(directive) = text.strip_prefix('.') {
            let (name, rest) = split_word(directive);
            match name {
                "text" => section = SectionId::Text,
                "data" => section = SectionId::Data,
                "bss" => section = SectionId::Bss,
                "global" | "globl" => {}
                "org" => {
                    let v = parse_number(rest).ok_or_else(|| AsmError {
                        line,
                        msg: "bad .org value".into(),
                    })?;
                    pc[section as usize] = v as u32;
                }
                "align" => {
                    let v = parse_number(rest).ok_or_else(|| AsmError {
                        line,
                        msg: "bad .align value".into(),
                    })? as u32;
                    if v == 0 || !v.is_power_of_two() {
                        return err(line, ".align requires a power of two");
                    }
                    let pad = (v - (here % v)) % v;
                    if pad > 0 {
                        check_size(pad.into(), line)?;
                        out.space(section, here, pad, line);
                        advance(&mut pc[section as usize], pad, line)?;
                    }
                }
                "space" | "skip" => {
                    let v = parse_number(rest)
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| AsmError {
                            line,
                            msg: "bad .space value".into(),
                        })?;
                    check_size(v, line)?;
                    out.space(section, here, v as u32, line);
                    advance(&mut pc[section as usize], v as u32, line)?;
                }
                "word" | "half" | "byte" => {
                    if section == SectionId::Text {
                        return err(line, "data directives are not allowed in .text");
                    }
                    let unit = match name {
                        "word" => 4,
                        "half" => 2,
                        _ => 1,
                    };
                    let mut count = 0u32;
                    for op in operands(rest) {
                        let arg = parse_arg(op, line)?;
                        count += 1;
                        if out.full {
                            continue;
                        }
                        let v = match arg {
                            Arg::Val(Val::Imm(v)) => v,
                            _ => {
                                let at = out.data.len();
                                out.work.push(Work::Fixup {
                                    line,
                                    at,
                                    unit,
                                    arg,
                                });
                                0
                            }
                        };
                        out.data
                            .extend_from_slice(&(v as u32).to_le_bytes()[..unit]);
                    }
                    out.data_start.get_or_insert(here);
                    out.check_total(out.data.len() as u64, line);
                    advance(&mut pc[section as usize], unit as u32 * count, line)?;
                }
                other => return err(line, format!("unknown directive `.{other}`")),
            }
            continue;
        }

        // Instruction line.
        if section != SectionId::Text {
            return err(line, "instructions are only allowed in .text");
        }
        let (mnemonic, rest) = split_word(text);
        let first = out.args.len();
        for op in operands(rest) {
            let arg = parse_arg(op, line)?;
            out.args.push(arg);
        }
        // Build once with a dummy resolver purely for the size; the
        // 16/32-bit choice depends only on operand form, so the size
        // is stable across passes. Symbols resolve to the current pc
        // so displacement range checks cannot fire spuriously here.
        let args = &out.args[first..];
        let size = build_instr(mnemonic, args, line, here, &move |_| Some(i64::from(here)))?.size();
        out.text_start.get_or_insert(here);
        out.text_len += u64::from(size);
        if out.full {
            out.args.truncate(first);
        } else {
            out.work.push(Work::Instr {
                line,
                addr: here,
                mnemonic,
                args: (first, out.args.len()),
            });
        }
        out.check_total(out.text_len, line);
        advance(&mut pc[0], size, line)?;
    }

    // ---- pass 2: resolve, encode and fill in ----
    let resolve = |name: &str| symbols.get(name).map(|&(v, _)| i64::from(v));
    let mut text = Vec::new();
    for &w in &out.work {
        match w {
            Work::Instr {
                line,
                addr,
                mnemonic,
                args,
            } => {
                let instr = build_instr(mnemonic, &out.args[args.0..args.1], line, addr, &resolve)?;
                encode_into(&instr, &mut text).map_err(|e| AsmError {
                    line,
                    msg: e.to_string(),
                })?;
            }
            Work::TextSpace(n) => text.extend(std::iter::repeat_n(0u8, n as usize)),
            Work::Fixup {
                line,
                at,
                unit,
                arg,
            } => {
                let v = eval(arg.val(), line, &resolve)?;
                out.data[at..at + unit].copy_from_slice(&(v as u32).to_le_bytes()[..unit]);
            }
            Work::TooLarge { line, len } => check_size(len, line)?,
        }
    }

    let mut elf = ElfFile::new(EM_TRICORE, 0);
    if !text.is_empty() {
        elf.sections
            .push(Section::text(out.text_start.unwrap_or(TEXT_BASE), text));
    }
    if !out.data.is_empty() {
        elf.sections
            .push(Section::data(out.data_start.unwrap_or(DATA_BASE), out.data));
    }
    if out.bss_size > 0 {
        elf.sections
            .push(Section::bss(BSS_BASE, out.bss_size as u32));
    }
    for (name, &(value, sect)) in &symbols {
        elf.symbols.push(Symbol {
            name: (*name).to_string(),
            value,
            size: 0,
            kind: if sect == SectionId::Text {
                SymbolKind::Func
            } else {
                SymbolKind::Object
            },
        });
    }
    elf.symbols
        .sort_by(|a, b| a.value.cmp(&b.value).then(a.name.cmp(&b.name)));
    elf.entry = symbols
        .get("_start")
        .map(|&(v, _)| v)
        .or(out.text_start)
        .unwrap_or(TEXT_BASE);
    Ok(elf)
}

#[inline(always)]
fn parse_number(s: &str) -> Option<i64> {
    let s = trim(s);
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let [b'0', b'x' | b'X', ..] = s.as_bytes() {
        i64::from_str_radix(&s[2..], 16).ok()?
    } else {
        parse_decimal(s.as_bytes())?
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

/// `str::parse::<i64>` on bytes: an optional sign, then at least one
/// ASCII digit, without overflow.
#[inline(always)]
fn parse_decimal(s: &[u8]) -> Option<i64> {
    let (neg, digits) = match s {
        [b'+', rest @ ..] => (false, rest),
        [b'-', rest @ ..] => (true, rest),
        _ => (false, s),
    };
    if digits.is_empty() {
        return None;
    }
    let mut v = 0i64;
    for &c in digits {
        let d = i64::from(c.wrapping_sub(b'0'));
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?;
        v = if neg {
            v.checked_sub(d)?
        } else {
            v.checked_add(d)?
        };
    }
    Some(v)
}

fn parse_reg<'a>(s: &str) -> Option<Arg<'a>> {
    match s {
        "%sp" => return Some(Arg::A(AReg(10))),
        "%ra" => return Some(Arg::A(AReg(11))),
        _ => {}
    }
    let rest = s.strip_prefix('%')?;
    if let Some(n) = rest.strip_prefix('d') {
        let i: u8 = n.parse().ok()?;
        if i < 16 {
            return Some(Arg::D(DReg(i)));
        }
    }
    if let Some(n) = rest.strip_prefix('a') {
        let i: u8 = n.parse().ok()?;
        if i < 16 {
            return Some(Arg::A(AReg(i)));
        }
    }
    None
}

/// Parses one operand.
///
/// An operand is a chain read left to right: runs of `hi:`/`lo:`
/// prefixes and memory heads (`[base]` or `[base+]`, whose offset is
/// the rest of the chain), ending in a register, number or symbol. The
/// loop checks each head as it meets it and the end of the chain last,
/// then applies the prefixes as their nesting reads, innermost first:
/// on a number each part in turn, on a symbol the run's outermost part,
/// and on anything else an error naming the run's innermost prefix. So
/// errors come in the order a recursive descent would report them.
// Inlined, like `parse_val`, `parse_number`, `parse_decimal` and
// `trim`, into the two operand loops: a data line is mostly short
// numbers, and calls and result copies cost more than the parse.
#[inline(always)]
fn parse_arg<'a>(s: &'a str, line: u32) -> Result<Arg<'a>, AsmError> {
    let mut s = s;
    // The outermost memory head, and whether another one follows it.
    let mut mem: Option<(AReg, bool)> = None;
    let mut nested = false;
    // The prefix group being scanned: `group[..group_len]`.
    let (mut group, mut group_len) = (s, 0);
    // The innermost prefix of the innermost group that wraps a memory
    // operand.
    let mut wraps_mem: Option<&str> = None;
    let end = loop {
        if s.is_empty() {
            return err(line, "empty operand");
        }
        if s.starts_with('%') {
            break parse_reg(s).ok_or_else(|| AsmError {
                line,
                msg: format!("bad register `{s}`"),
            })?;
        }
        if let Some(rest) = s.strip_prefix('[') {
            let close = rest.find(']').ok_or_else(|| AsmError {
                line,
                msg: "missing `]` in memory operand".into(),
            })?;
            let (inner, off) = (&rest[..close], rest[close + 1..].trim());
            let (reg_str, postinc) = match inner.trim().strip_suffix('+') {
                Some(r) => (r.trim(), true),
                None => (inner.trim(), false),
            };
            let base = match parse_reg(reg_str) {
                Some(Arg::A(a)) => a,
                _ => return err(line, format!("bad base register `{reg_str}`")),
            };
            if group_len > 0 {
                wraps_mem = Some(&group[group_len - 3..group_len]);
            }
            nested = mem.is_some();
            mem.get_or_insert((base, postinc));
            if off.is_empty() {
                break Arg::Val(Val::Imm(0));
            }
            (s, group, group_len) = (off, off, 0);
            continue;
        }
        if s.starts_with("hi:") || s.starts_with("lo:") {
            s = &s[3..];
            group_len += 3;
            continue;
        }
        break Arg::Val(parse_val(s, line)?);
    };

    let prefixes = &group[..group_len];
    let end = match end {
        _ if prefixes.is_empty() => end,
        Arg::Val(Val::Sym { name, add, .. }) => Arg::Val(Val::Sym {
            name,
            add,
            part: part_of(&prefixes.as_bytes()[..3]),
        }),
        Arg::Val(Val::Imm(v)) => Arg::Val(Val::Imm(
            prefixes
                .as_bytes()
                .rchunks(3)
                .fold(v, |v, p| apply_part(v, part_of(p))),
        )),
        _ => return err(line, needs_value(&prefixes[group_len - 3..])),
    };
    if let Some(prefix) = wraps_mem {
        return err(line, needs_value(prefix));
    }
    Ok(match mem {
        None => end,
        Some((base, postinc)) => Arg::Mem {
            base,
            postinc,
            off: if nested { None } else { end.val() },
        },
    })
}

/// Parses a number, or a symbol with an optional `+`/`-` offset.
#[inline(always)]
fn parse_val(s: &str, line: u32) -> Result<Val<'_>, AsmError> {
    if let Some(v) = parse_number(s) {
        return Ok(Val::Imm(v));
    }
    let (name, add) = match s.bytes().position(|b| b == b'+' || b == b'-') {
        Some(p) if p > 0 => {
            let (n, rest) = s.split_at(p);
            let add = parse_number(rest).ok_or_else(|| AsmError {
                line,
                msg: format!("bad offset in `{s}`"),
            })?;
            (n.trim(), add)
        }
        _ => (s, 0),
    };
    if name.is_empty()
        || !name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
        || name.as_bytes()[0].is_ascii_digit()
    {
        return err(line, format!("bad operand `{s}`"));
    }
    Ok(Val::Sym {
        name,
        add,
        part: Part::None,
    })
}

/// The part a `hi:` or `lo:` prefix selects.
fn part_of(prefix: &[u8]) -> Part {
    if prefix == b"hi:" {
        Part::Hi
    } else {
        Part::Lo
    }
}

fn needs_value(prefix: &str) -> String {
    format!("`{prefix}` needs a symbol or number")
}

fn apply_part(v: i64, part: Part) -> i64 {
    match part {
        Part::None => v,
        Part::Hi => (((v as u32).wrapping_add(0x8000)) >> 16) as i64,
        Part::Lo => ((v as u32 & 0xffff) as u16 as i16) as i64,
    }
}

/// Evaluates a value operand; `None` (a register or memory operand)
/// is an error.
fn eval(
    v: Option<Val<'_>>,
    line: u32,
    resolve: &dyn Fn(&str) -> Option<i64>,
) -> Result<i64, AsmError> {
    match v {
        Some(Val::Imm(v)) => Ok(v),
        Some(Val::Sym { name, add, part }) => {
            let base = resolve(name).ok_or_else(|| AsmError {
                line,
                msg: format!("undefined symbol `{name}`"),
            })?;
            Ok(apply_part(base.wrapping_add(add), part))
        }
        None => err(line, "expected an immediate or symbol"),
    }
}

/// True when the operand is a literal immediate (16-bit selection is
/// allowed to depend on its value).
fn literal(arg: &Arg) -> Option<i64> {
    match arg.val() {
        Some(Val::Imm(v)) => Some(v),
        _ => None,
    }
}

fn imm_range(v: i64, lo: i64, hi: i64, line: u32, what: &str) -> Result<i64, AsmError> {
    if v < lo || v > hi {
        err(line, format!("{what} {v} out of range [{lo}, {hi}]"))
    } else {
        Ok(v)
    }
}

fn branch_disp(target: i64, pc: u32, line: u32, bits: u32) -> Result<i32, AsmError> {
    let delta = target.wrapping_sub(i64::from(pc));
    if delta % 2 != 0 {
        return err(line, "branch target is not halfword aligned");
    }
    let disp = delta / 2;
    let lim = 1i64 << (bits - 1);
    if disp < -lim || disp >= lim {
        return err(
            line,
            format!("branch displacement {disp} exceeds {bits} bits"),
        );
    }
    Ok(disp as i32)
}

fn n_args<'s, 'a>(args: &'s [Arg<'a>], n: usize, line: u32) -> Result<&'s [Arg<'a>], AsmError> {
    if args.len() == n {
        Ok(args)
    } else {
        err(line, format!("expected {n} operands, found {}", args.len()))
    }
}

#[allow(clippy::too_many_lines)]
fn build_instr<'a>(
    mnemonic: &str,
    args: &[Arg<'a>],
    line: u32,
    pc: u32,
    resolve: &dyn Fn(&str) -> Option<i64>,
) -> Result<Instr, AsmError> {
    let ev = |a: &Arg| eval(a.val(), line, resolve);
    // One mnemonic table per mapping: the ISA's own spellings (what
    // `Display` prints), searched over the encoder's operation lists.
    let cond_of = |m: &str| CONDS.into_iter().find(|c| c.mnemonic() == m);
    let zcond_of = |m: &str| CONDS.into_iter().find(|c| c.z_mnemonic() == m);
    let binop_of = |m: &str| BINOPS.into_iter().find(|o| o.mnemonic() == m);
    let mem_of = |a: &Arg<'a>| -> Option<(AReg, bool, Option<Val<'a>>)> {
        match *a {
            Arg::Mem { base, postinc, off } => Some((base, postinc, off)),
            _ => None,
        }
    };

    match mnemonic {
        "nop" => {
            n_args(args, 0, line)?;
            Ok(Instr::Nop16)
        }
        "nop32" => {
            n_args(args, 0, line)?;
            Ok(Instr::Nop)
        }
        "debug" => {
            n_args(args, 0, line)?;
            Ok(Instr::Debug16)
        }
        "ret" => {
            n_args(args, 0, line)?;
            Ok(Instr::Ret16)
        }
        "mov" => {
            let a = n_args(args, 2, line)?;
            match (&a[0], &a[1]) {
                (Arg::D(d), Arg::D(s)) => Ok(Instr::MovRR16 { d: *d, s: *s }),
                (Arg::D(d), rhs) => {
                    if let Some(v) = literal(rhs) {
                        if (-64..=63).contains(&v) {
                            return Ok(Instr::Mov16 {
                                d: *d,
                                imm7: v as i8,
                            });
                        }
                    }
                    let v = ev(rhs)?;
                    let v = imm_range(v, -32768, 65535, line, "mov immediate")?;
                    Ok(Instr::Mov {
                        d: *d,
                        imm16: v as u16 as i16,
                    })
                }
                _ => err(line, "mov needs a data-register destination"),
            }
        }
        "movh" => {
            let a = n_args(args, 2, line)?;
            let d = a[0].d(line)?;
            let v = imm_range(ev(&a[1])?, 0, 65535, line, "movh immediate")?;
            Ok(Instr::Movh { d, imm16: v as u16 })
        }
        "movh.a" => {
            let a = n_args(args, 2, line)?;
            let r = a[0].a(line)?;
            let v = imm_range(ev(&a[1])?, 0, 65535, line, "movh.a immediate")?;
            Ok(Instr::MovhA {
                a: r,
                imm16: v as u16,
            })
        }
        "mov.a" => {
            let a = n_args(args, 2, line)?;
            Ok(Instr::MovA {
                a: a[0].a(line)?,
                s: a[1].d(line)?,
            })
        }
        "mov.d" => {
            let a = n_args(args, 2, line)?;
            Ok(Instr::MovD {
                d: a[0].d(line)?,
                a: a[1].a(line)?,
            })
        }
        "mov.aa" => {
            let a = n_args(args, 2, line)?;
            Ok(Instr::MovAA {
                a: a[0].a(line)?,
                s: a[1].a(line)?,
            })
        }
        "addi" => {
            let a = n_args(args, 3, line)?;
            let v = imm_range(ev(&a[2])?, -32768, 32767, line, "addi immediate")?;
            Ok(Instr::Addi {
                d: a[0].d(line)?,
                s: a[1].d(line)?,
                imm16: v as i16,
            })
        }
        "addih" => {
            let a = n_args(args, 3, line)?;
            let v = imm_range(ev(&a[2])?, 0, 65535, line, "addih immediate")?;
            Ok(Instr::Addih {
                d: a[0].d(line)?,
                s: a[1].d(line)?,
                imm16: v as u16,
            })
        }
        "lea" => {
            let a = n_args(args, 2, line)?;
            let (base, postinc, off) = mem_of(&a[1]).ok_or_else(|| AsmError {
                line,
                msg: "lea needs a memory operand".into(),
            })?;
            if postinc {
                return err(line, "lea does not support post-increment");
            }
            let v = imm_range(eval(off, line, resolve)?, -32768, 32767, line, "lea offset")?;
            Ok(Instr::Lea {
                a: a[0].a(line)?,
                base,
                off16: v as i16,
            })
        }
        "madd" | "msub" => {
            let a = n_args(args, 4, line)?;
            let (d, acc, s1, s2) = (a[0].d(line)?, a[1].d(line)?, a[2].d(line)?, a[3].d(line)?);
            Ok(if mnemonic == "madd" {
                Instr::Madd { d, acc, s1, s2 }
            } else {
                Instr::Msub { d, acc, s1, s2 }
            })
        }
        m if binop_of(m).is_some() => {
            let op = binop_of(m).expect("guarded");
            match args.len() {
                2 => {
                    // Two-operand short forms exist for add/sub only.
                    let d = args[0].d(line)?;
                    let s = args[1].d(line)?;
                    match op {
                        BinOp::Add => Ok(Instr::Add16 { d, s }),
                        BinOp::Sub => Ok(Instr::Sub16 { d, s }),
                        _ => err(line, format!("`{m}` needs three operands")),
                    }
                }
                3 => {
                    let d = args[0].d(line)?;
                    let s1 = args[1].d(line)?;
                    match &args[2] {
                        Arg::D(s2) => Ok(Instr::Bin { op, d, s1, s2: *s2 }),
                        rhs => {
                            let v = imm_range(ev(rhs)?, -256, 255, line, "ALU immediate")?;
                            Ok(Instr::BinI {
                                op,
                                d,
                                s1,
                                imm9: v as i16,
                            })
                        }
                    }
                }
                n => err(line, format!("`{m}` takes 2 or 3 operands, found {n}")),
            }
        }
        "ld.w" | "ld.h" | "ld.hu" | "ld.b" | "ld.bu" | "ld.a" => {
            let a = n_args(args, 2, line)?;
            let (base, postinc, off) = mem_of(&a[1]).ok_or_else(|| AsmError {
                line,
                msg: "load needs a memory operand".into(),
            })?;
            let offv = imm_range(eval(off, line, resolve)?, -512, 511, line, "load offset")?;
            if mnemonic == "ld.a" {
                return Ok(Instr::LdA {
                    a: a[0].a(line)?,
                    base,
                    off10: offv as i16,
                    postinc,
                });
            }
            let d = a[0].d(line)?;
            // Short form: ld.w with a literal zero offset, no post-increment.
            if mnemonic == "ld.w" && !postinc && off == Some(Val::Imm(0)) {
                return Ok(Instr::LdW16 { d, a: base });
            }
            let kind = match mnemonic {
                "ld.w" => LdKind::W,
                "ld.h" => LdKind::H,
                "ld.hu" => LdKind::Hu,
                "ld.b" => LdKind::B,
                _ => LdKind::Bu,
            };
            Ok(Instr::Ld {
                kind,
                d,
                base,
                off10: offv as i16,
                postinc,
            })
        }
        "st.w" | "st.h" | "st.b" | "st.a" => {
            let a = n_args(args, 2, line)?;
            let (base, postinc, off) = mem_of(&a[0]).ok_or_else(|| AsmError {
                line,
                msg: "store needs a memory operand first".into(),
            })?;
            let offv = imm_range(eval(off, line, resolve)?, -512, 511, line, "store offset")?;
            if mnemonic == "st.a" {
                return Ok(Instr::StA {
                    s: a[1].a(line)?,
                    base,
                    off10: offv as i16,
                    postinc,
                });
            }
            let s = a[1].d(line)?;
            if mnemonic == "st.w" && !postinc && off == Some(Val::Imm(0)) {
                return Ok(Instr::StW16 { a: base, s });
            }
            let kind = match mnemonic {
                "st.w" => StKind::W,
                "st.h" => StKind::H,
                _ => StKind::B,
            };
            Ok(Instr::St {
                kind,
                s,
                base,
                off10: offv as i16,
                postinc,
            })
        }
        "j" | "jl" | "call" => {
            let a = n_args(args, 1, line)?;
            let target = ev(&a[0])?;
            let disp = branch_disp(target, pc, line, 24)?;
            Ok(if mnemonic == "j" {
                Instr::J { disp24: disp }
            } else {
                Instr::Jl { disp24: disp }
            })
        }
        "ji" => {
            let a = n_args(args, 1, line)?;
            Ok(Instr::Ji { a: a[0].a(line)? })
        }
        "jli" | "calli" => {
            let a = n_args(args, 1, line)?;
            Ok(Instr::Jli { a: a[0].a(line)? })
        }
        m if cond_of(m).is_some() => {
            let a = n_args(args, 3, line)?;
            let disp = branch_disp(ev(&a[2])?, pc, line, 16)?;
            Ok(Instr::Jcond {
                cond: cond_of(m).expect("guarded"),
                s1: a[0].d(line)?,
                s2: a[1].d(line)?,
                disp16: disp as i16,
            })
        }
        m if zcond_of(m).is_some() => {
            let a = n_args(args, 2, line)?;
            let disp = branch_disp(ev(&a[1])?, pc, line, 16)?;
            Ok(Instr::JcondZ {
                cond: zcond_of(m).expect("guarded"),
                s1: a[0].d(line)?,
                disp16: disp as i16,
            })
        }
        "loop" => {
            let a = n_args(args, 2, line)?;
            let disp = branch_disp(ev(&a[1])?, pc, line, 16)?;
            Ok(Instr::Loop {
                a: a[0].a(line)?,
                disp16: disp as i16,
            })
        }
        other => err(line, format!("unknown mnemonic `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode_section;
    use crate::isa::Cond;

    fn decode_text(elf: &ElfFile) -> Vec<(u32, Instr)> {
        let t = elf.section(".text").expect("text");
        decode_section(t.addr, &t.data).expect("decodes")
    }

    #[test]
    fn oversized_sections_are_errors_not_overflows() {
        let limit = cabt_isa::elf::MAX_SECTION_SIZE;
        let line_of = |src: &str| assemble(src).map(|_| ()).map_err(|e| e.line);
        // One directive over the limit, in every section.
        assert_eq!(line_of(".bss\nbuf: .space 0x40000000\n"), Err(2));
        assert_eq!(line_of(".data\n.space 0x40000000\n"), Err(2));
        assert_eq!(line_of(".text\n.space 0xffffffff\n"), Err(2));
        // Directives that fit one by one but not together.
        let half = limit / 2;
        assert_eq!(
            line_of(&format!(".bss\n.space {half}\n.space {half}\n.space 1\n")),
            Err(4)
        );
        // Alignment padding counts too.
        assert_eq!(line_of(".data\n.byte 1\n.align 0x80000000\n"), Err(3));
        // A cursor that would wrap the address space.
        assert_eq!(line_of(".bss\n.org 0xfffffff0\n.space 0x20\n"), Err(3));
        // Negative sizes are malformed, not huge.
        assert_eq!(line_of(".bss\n.space -1\n"), Err(2));
        // The limit itself is a legal .bss.
        let elf = assemble(&format!(".bss\n.space {limit}\n")).unwrap();
        assert_eq!(elf.section(".bss").unwrap().size, limit);
    }

    #[test]
    fn assembles_minimal_program() {
        let elf = assemble(".text\n_start:\n  mov %d0, 5\n  debug\n").unwrap();
        let code = decode_text(&elf);
        assert_eq!(
            code[0].1,
            Instr::Mov16 {
                d: DReg(0),
                imm7: 5
            }
        );
        assert_eq!(code[1].1, Instr::Debug16);
        assert_eq!(elf.entry, TEXT_BASE);
    }

    #[test]
    fn selects_long_mov_for_large_immediates() {
        let elf = assemble(".text\nmov %d0, 64\nmov %d1, -65\nmov %d2, 63\n").unwrap();
        let code = decode_text(&elf);
        assert_eq!(
            code[0].1,
            Instr::Mov {
                d: DReg(0),
                imm16: 64
            }
        );
        assert_eq!(
            code[1].1,
            Instr::Mov {
                d: DReg(1),
                imm16: -65
            }
        );
        assert_eq!(
            code[2].1,
            Instr::Mov16 {
                d: DReg(2),
                imm7: 63
            }
        );
    }

    #[test]
    fn hi_lo_operators_reconstruct_addresses() {
        let src = r#"
            .text
            movh.a %a2, hi:buf
            lea    %a2, [%a2]lo:buf
            debug
            .data
            .org 0xd0001234
        buf: .word 42
        "#;
        let elf = assemble(src).unwrap();
        let code = decode_text(&elf);
        let (hi, lo) = match (code[0].1, code[1].1) {
            (Instr::MovhA { imm16: h, .. }, Instr::Lea { off16: l, .. }) => (h, l),
            other => panic!("unexpected {other:?}"),
        };
        let addr = ((hi as u32) << 16).wrapping_add(lo as i32 as u32);
        assert_eq!(addr, 0xd000_1234);
    }

    #[test]
    fn branches_resolve_forward_and_backward() {
        let src = "
            .text
        top:
            addi %d0, %d0, -1
            jnz  %d0, top
            j    done
            nop
        done:
            debug
        ";
        let elf = assemble(src).unwrap();
        let code = decode_text(&elf);
        let top = code[0].0;
        let jnz_pc = code[1].0;
        match code[1].1 {
            Instr::JcondZ {
                cond: Cond::Ne,
                disp16,
                ..
            } => {
                assert_eq!(jnz_pc.wrapping_add((disp16 as i32 * 2) as u32), top);
            }
            other => panic!("unexpected {other}"),
        }
        match code[2].1 {
            Instr::J { disp24 } => {
                let target = code[2].0.wrapping_add((disp24 * 2) as u32);
                assert_eq!(target, code[4].0);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn data_directives_lay_out_and_symbols_resolve() {
        let src = "
            .data
        tbl: .word 1, 2, tbl
            .half 0x1234
            .byte 7, 8
            .align 4
        end: .word end
        ";
        let elf = assemble(src).unwrap();
        let d = elf.section(".data").unwrap();
        assert_eq!(d.addr, DATA_BASE);
        assert_eq!(&d.data[0..4], &1u32.to_le_bytes());
        assert_eq!(&d.data[8..12], &DATA_BASE.to_le_bytes());
        assert_eq!(&d.data[12..14], &0x1234u16.to_le_bytes());
        assert_eq!(d.data[14], 7);
        assert_eq!(d.data[15], 8);
        // `end` is aligned to 16 and stores its own address.
        assert_eq!(&d.data[16..20], &(DATA_BASE + 16).to_le_bytes());
        assert_eq!(elf.symbol("end").unwrap().value, DATA_BASE + 16);
    }

    #[test]
    fn bss_reserves_space() {
        let elf = assemble(".bss\nbuf: .space 128\n").unwrap();
        let b = elf.section(".bss").unwrap();
        assert_eq!(b.size, 128);
        assert_eq!(elf.symbol("buf").unwrap().value, BSS_BASE);
    }

    #[test]
    fn short_load_store_forms() {
        let elf = assemble(
            ".text\nld.w %d1, [%a2]\nld.w %d1, [%a2]4\nst.w [%a3], %d1\nld.w %d1, [%a2+]0\n",
        )
        .unwrap();
        let code = decode_text(&elf);
        assert_eq!(
            code[0].1,
            Instr::LdW16 {
                d: DReg(1),
                a: AReg(2)
            }
        );
        assert!(matches!(code[1].1, Instr::Ld { .. }));
        assert_eq!(
            code[2].1,
            Instr::StW16 {
                a: AReg(3),
                s: DReg(1)
            }
        );
        assert!(matches!(code[3].1, Instr::Ld { postinc: true, .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".text\nnop\nbogus %d0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("bogus"));
    }

    #[test]
    fn rejects_duplicate_labels() {
        let e = assemble(".text\nx:\nnop\nx:\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn rejects_undefined_symbols() {
        let e = assemble(".text\nj nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined"));
    }

    #[test]
    fn rejects_data_in_text_and_code_in_data() {
        assert!(assemble(".text\n.word 1\n").is_err());
        assert!(assemble(".data\nnop\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_immediates() {
        assert!(assemble(".text\nadd %d0, %d1, 256\n").is_err());
        assert!(assemble(".text\nld.w %d0, [%a1]512\n").is_err());
        assert!(assemble(".text\naddi %d0, %d1, 40000\n").is_err());
    }

    #[test]
    fn two_operand_add_uses_short_form() {
        let elf = assemble(".text\nadd %d1, %d2\nadd %d1, %d2, %d3\n").unwrap();
        let code = decode_text(&elf);
        assert_eq!(
            code[0].1,
            Instr::Add16 {
                d: DReg(1),
                s: DReg(2)
            }
        );
        assert_eq!(code[0].1.size(), 2);
        assert_eq!(code[1].1.size(), 4);
    }

    #[test]
    fn sp_and_ra_aliases() {
        let elf = assemble(".text\nlea %sp, [%sp]-16\nji %ra\n").unwrap();
        let code = decode_text(&elf);
        assert_eq!(
            code[0].1,
            Instr::Lea {
                a: AReg(10),
                base: AReg(10),
                off16: -16
            }
        );
        assert_eq!(code[1].1, Instr::Ji { a: AReg(11) });
    }

    #[test]
    fn entry_prefers_start_symbol() {
        let elf = assemble(".text\nnop\n_start: debug\n").unwrap();
        assert_eq!(elf.entry, TEXT_BASE + 2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let elf = assemble("# header\n.text\n  nop  # trailing\n; full line\n\n debug\n").unwrap();
        assert_eq!(decode_text(&elf).len(), 2);
    }

    #[test]
    fn stacked_prefixes_apply_innermost_first() {
        let src = ".data\nbuf: .word hi:lo:0x12348765, lo:hi:0x12348765, hi:hi:0x7fff8000, \
                   lo:lo:-1, hi:lo:hi:0x89abcdef, lo:hi:buf+98304, hi:lo:buf+98304\n";
        let elf = assemble(src).unwrap();
        let words: Vec<u32> = elf
            .section(".data")
            .unwrap()
            .data
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // On a symbol only the outermost prefix counts.
        assert_eq!(words, [0, 0x1235, 1, 0xffff_ffff, 0, 0xffff_8000, 0xd002]);
    }

    #[test]
    fn deeply_stacked_prefixes_do_not_overflow_the_stack() {
        let src = format!(".data\n.word {}1\n", "hi:".repeat(200_000));
        let elf = assemble(&src).unwrap();
        assert_eq!(elf.section(".data").unwrap().data, [0; 4]);
        let src = format!(".data\n.word {}%d1\n", "lo:".repeat(200_000));
        let e = assemble(&src).unwrap_err();
        assert_eq!(
            (e.line, e.msg.as_str()),
            (2, "`lo:` needs a symbol or number")
        );
    }

    #[test]
    fn deeply_nested_memory_operands_do_not_overflow_the_stack() {
        let src = format!(".text\nld.w %d1, {}0\n", "[%a2]".repeat(200_000));
        let e = assemble(&src).unwrap_err();
        assert_eq!(
            (e.line, e.msg.as_str()),
            (2, "expected an immediate or symbol")
        );
    }

    #[test]
    fn extreme_values_wrap_instead_of_overflowing() {
        let elf =
            assemble(".data\nx: .word x+9223372036854775807, --9223372036854775808\n").unwrap();
        let d = &elf.section(".data").unwrap().data;
        assert_eq!(d[..4], 0xcfff_ffffu32.to_le_bytes());
        assert_eq!(d[4..], [0; 4]);
        let e = assemble(".text\nj --9223372036854775808\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("exceeds 24 bits"), "{e}");
    }

    #[test]
    fn symbol_plus_offset() {
        let src =
            ".text\nmovh.a %a0, hi:arr+8\nlea %a0, [%a0]lo:arr+8\ndebug\n.data\narr: .space 16\n";
        let elf = assemble(src).unwrap();
        let code = decode_text(&elf);
        let (hi, lo) = match (code[0].1, code[1].1) {
            (Instr::MovhA { imm16: h, .. }, Instr::Lea { off16: l, .. }) => (h, l),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            ((hi as u32) << 16).wrapping_add(lo as i32 as u32),
            DATA_BASE + 8
        );
    }

    /// Every condition and ALU-operation spelling `Display` prints is
    /// one the assembler reads back, as the instruction that printed
    /// it — the unsigned compare-with-zero branches included.
    #[test]
    fn every_cond_and_binop_mnemonic_assembles_to_what_printed_it() {
        let one = |line: &str| -> Instr {
            let elf = assemble(&format!(".text\n_start: {line}\n"))
                .unwrap_or_else(|e| panic!("`{line}`: {e}"));
            decode_text(&elf)[0].1
        };
        let (d1, d2, d3) = (DReg(1), DReg(2), DReg(3));
        for cond in CONDS {
            // Branches print their absolute target at their address.
            for instr in [
                Instr::Jcond {
                    cond,
                    s1: d1,
                    s2: d2,
                    disp16: 0,
                },
                Instr::JcondZ {
                    cond,
                    s1: d1,
                    disp16: 0,
                },
            ] {
                let printed = instr.at(TEXT_BASE).to_string();
                assert_eq!(one(&printed), instr, "{printed}");
            }
        }
        for op in BINOPS {
            for instr in [
                Instr::Bin {
                    op,
                    d: d3,
                    s1: d1,
                    s2: d2,
                },
                Instr::BinI {
                    op,
                    d: d3,
                    s1: d1,
                    imm9: -5,
                },
            ] {
                assert_eq!(one(&instr.to_string()), instr, "{instr}");
            }
        }
    }
}
