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
//! instruction sizes identical between the two passes.

use crate::encode::encode_into;
use crate::isa::{AReg, BinOp, Cond, DReg, Instr, LdKind, StKind};
use cabt_isa::elf::{check_section_size, ElfFile, Section, Symbol, SymbolKind, EM_TRICORE};
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

/// A parsed operand.
#[derive(Debug, Clone, PartialEq)]
enum Arg {
    D(DReg),
    A(AReg),
    Imm(i64),
    Sym {
        name: String,
        add: i64,
        part: Part,
    },
    Mem {
        base: AReg,
        postinc: bool,
        off: Box<Arg>,
    },
}

impl Arg {
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
}

#[derive(Debug, Clone)]
enum ItemKind {
    Instr { mnemonic: String, args: Vec<Arg> },
    Word(Vec<Arg>),
    Half(Vec<Arg>),
    Byte(Vec<Arg>),
    Space(u32),
}

#[derive(Debug, Clone)]
struct Item {
    line: u32,
    addr: u32,
    section: SectionId,
    kind: ItemKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SectionId {
    Text,
    Data,
    Bss,
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
    let mut items: Vec<Item> = Vec::new();
    let mut symbols: HashMap<String, (u32, SectionId)> = HashMap::new();
    let mut globals: Vec<String> = Vec::new();
    let mut section = SectionId::Text;
    let mut pc = [TEXT_BASE, DATA_BASE, BSS_BASE];
    let idx = |s: SectionId| match s {
        SectionId::Text => 0usize,
        SectionId::Data => 1,
        SectionId::Bss => 2,
    };

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno as u32 + 1;
        let mut text = raw;
        if let Some(p) = text.find(['#', ';']) {
            text = &text[..p];
        }
        let mut text = text.trim();

        // Labels (possibly several) at the start of the line.
        while let Some(colon) = text.find(':') {
            let (head, rest) = text.split_at(colon);
            let name = head.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || name.starts_with('.')
                || rest.is_empty()
            {
                break;
            }
            // "hi:" / "lo:" inside operands never reach here because
            // labels are only recognized before the mnemonic.
            if symbols
                .insert(name.to_string(), (pc[idx(section)], section))
                .is_some()
            {
                return err(line, format!("duplicate label `{name}`"));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }

        if let Some(directive) = text.strip_prefix('.') {
            let (name, rest) = match directive.find(char::is_whitespace) {
                Some(p) => (&directive[..p], directive[p..].trim()),
                None => (directive, ""),
            };
            match name {
                "text" => section = SectionId::Text,
                "data" => section = SectionId::Data,
                "bss" => section = SectionId::Bss,
                "global" | "globl" => globals.push(rest.to_string()),
                "org" => {
                    let v = parse_number(rest).ok_or_else(|| AsmError {
                        line,
                        msg: "bad .org value".into(),
                    })?;
                    pc[idx(section)] = v as u32;
                }
                "align" => {
                    let v = parse_number(rest).ok_or_else(|| AsmError {
                        line,
                        msg: "bad .align value".into(),
                    })? as u32;
                    if v == 0 || !v.is_power_of_two() {
                        return err(line, ".align requires a power of two");
                    }
                    let cur = pc[idx(section)];
                    let pad = (v - (cur % v)) % v;
                    if pad > 0 {
                        check_size(pad.into(), line)?;
                        items.push(Item {
                            line,
                            addr: cur,
                            section,
                            kind: ItemKind::Space(pad),
                        });
                        advance(&mut pc[idx(section)], pad, line)?;
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
                    let v = v as u32;
                    items.push(Item {
                        line,
                        addr: pc[idx(section)],
                        section,
                        kind: ItemKind::Space(v),
                    });
                    advance(&mut pc[idx(section)], v, line)?;
                }
                "word" | "half" | "byte" => {
                    if section == SectionId::Text {
                        return err(line, "data directives are not allowed in .text");
                    }
                    let args = parse_args(rest, line)?;
                    let (kind, unit) = match name {
                        "word" => (ItemKind::Word(args.clone()), 4),
                        "half" => (ItemKind::Half(args.clone()), 2),
                        _ => (ItemKind::Byte(args.clone()), 1),
                    };
                    items.push(Item {
                        line,
                        addr: pc[idx(section)],
                        section,
                        kind,
                    });
                    advance(&mut pc[idx(section)], unit * args.len() as u32, line)?;
                }
                other => return err(line, format!("unknown directive `.{other}`")),
            }
            continue;
        }

        // Instruction line.
        if section != SectionId::Text {
            return err(line, "instructions are only allowed in .text");
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(p) => (&text[..p], text[p..].trim()),
            None => (text, ""),
        };
        let args = parse_args(rest, line)?;
        // Build once with a dummy resolver purely for the size; the
        // 16/32-bit choice depends only on operand form, so the size
        // is stable across passes. Symbols resolve to the current pc
        // so displacement range checks cannot fire spuriously here.
        let here = pc[0];
        let probe = build_instr(mnemonic, &args, line, here, &move |_| Some(here as i64))?;
        let size = probe.size();
        items.push(Item {
            line,
            addr: pc[0],
            section,
            kind: ItemKind::Instr {
                mnemonic: mnemonic.to_string(),
                args,
            },
        });
        advance(&mut pc[0], size, line)?;
    }

    // ---- pass 2: resolve and emit ----
    let resolve = |name: &str| symbols.get(name).map(|&(v, _)| v as i64);
    let mut text = Vec::new();
    let mut data = Vec::new();
    let mut bss_size = 0u64;
    let mut data_addr_start: Option<u32> = None;
    let mut text_addr_start: Option<u32> = None;

    for item in &items {
        match (&item.kind, item.section) {
            (ItemKind::Instr { mnemonic, args }, _) => {
                text_addr_start.get_or_insert(item.addr);
                let instr = build_instr(mnemonic, args, item.line, item.addr, &resolve)?;
                encode_into(&instr, &mut text).map_err(|e| AsmError {
                    line: item.line,
                    msg: e.to_string(),
                })?;
            }
            (ItemKind::Space(n), SectionId::Bss) => bss_size += u64::from(*n),
            (ItemKind::Space(n), SectionId::Data) => {
                data_addr_start.get_or_insert(item.addr);
                data.extend(std::iter::repeat_n(0u8, *n as usize));
            }
            (ItemKind::Space(n), SectionId::Text) => {
                text_addr_start.get_or_insert(item.addr);
                text.extend(std::iter::repeat_n(0u8, *n as usize));
            }
            (ItemKind::Word(v) | ItemKind::Half(v) | ItemKind::Byte(v), _) => {
                data_addr_start.get_or_insert(item.addr);
                let unit = match item.kind {
                    ItemKind::Word(_) => 4usize,
                    ItemKind::Half(_) => 2,
                    _ => 1,
                };
                for a in v {
                    let val = eval_arg(a, item.line, &resolve)?;
                    data.extend_from_slice(&(val as u32).to_le_bytes()[..unit]);
                }
            }
        }
        // Pass 1 bounds every single item by the limit, so no
        // section outgrows twice the limit before this check fires.
        for len in [text.len() as u64, data.len() as u64, bss_size] {
            check_size(len, item.line)?;
        }
    }

    let mut elf = ElfFile::new(EM_TRICORE, 0);
    if !text.is_empty() {
        elf.sections
            .push(Section::text(text_addr_start.unwrap_or(TEXT_BASE), text));
    }
    if !data.is_empty() {
        elf.sections
            .push(Section::data(data_addr_start.unwrap_or(DATA_BASE), data));
    }
    if bss_size > 0 {
        elf.sections.push(Section::bss(BSS_BASE, bss_size as u32));
    }
    for (name, (value, sect)) in &symbols {
        elf.symbols.push(Symbol {
            name: name.clone(),
            value: *value,
            size: 0,
            kind: if *sect == SectionId::Text {
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
        .or(text_addr_start)
        .unwrap_or(TEXT_BASE);
    let _ = globals; // all symbols are emitted; .global is accepted for compatibility
    Ok(elf)
}

fn parse_number(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        s.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_args(s: &str, line: u32) -> Result<Vec<Arg>, AsmError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    // Split on top-level commas; memory operands contain no commas.
    s.split(',').map(|op| parse_arg(op.trim(), line)).collect()
}

fn parse_reg(s: &str) -> Option<Arg> {
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

fn parse_arg(s: &str, line: u32) -> Result<Arg, AsmError> {
    if s.is_empty() {
        return err(line, "empty operand");
    }
    if s.starts_with('%') {
        return parse_reg(s).ok_or_else(|| AsmError {
            line,
            msg: format!("bad register `{s}`"),
        });
    }
    if let Some(rest) = s.strip_prefix('[') {
        let close = rest.find(']').ok_or_else(|| AsmError {
            line,
            msg: "missing `]` in memory operand".into(),
        })?;
        let (inner, off_str) = (&rest[..close], rest[close + 1..].trim());
        let (reg_str, postinc) = match inner.trim().strip_suffix('+') {
            Some(r) => (r.trim(), true),
            None => (inner.trim(), false),
        };
        let base = match parse_reg(reg_str) {
            Some(Arg::A(a)) => a,
            _ => return err(line, format!("bad base register `{reg_str}`")),
        };
        let off = if off_str.is_empty() {
            Arg::Imm(0)
        } else {
            parse_arg(off_str, line)?
        };
        return Ok(Arg::Mem {
            base,
            postinc,
            off: Box::new(off),
        });
    }
    for (prefix, part) in [("hi:", Part::Hi), ("lo:", Part::Lo)] {
        if let Some(rest) = s.strip_prefix(prefix) {
            return match parse_arg(rest, line)? {
                Arg::Sym { name, add, .. } => Ok(Arg::Sym { name, add, part }),
                Arg::Imm(v) => Ok(Arg::Imm(apply_part(v, part))),
                _ => err(line, format!("`{prefix}` needs a symbol or number")),
            };
        }
    }
    if let Some(v) = parse_number(s) {
        return Ok(Arg::Imm(v));
    }
    // symbol with optional +/- offset
    let (name, add) = match s.find(['+', '-']) {
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
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return err(line, format!("bad operand `{s}`"));
    }
    Ok(Arg::Sym {
        name: name.to_string(),
        add,
        part: Part::None,
    })
}

fn apply_part(v: i64, part: Part) -> i64 {
    match part {
        Part::None => v,
        Part::Hi => (((v as u32).wrapping_add(0x8000)) >> 16) as i64,
        Part::Lo => ((v as u32 & 0xffff) as u16 as i16) as i64,
    }
}

fn eval_arg(arg: &Arg, line: u32, resolve: &dyn Fn(&str) -> Option<i64>) -> Result<i64, AsmError> {
    match arg {
        Arg::Imm(v) => Ok(*v),
        Arg::Sym { name, add, part } => {
            let base = resolve(name).ok_or_else(|| AsmError {
                line,
                msg: format!("undefined symbol `{name}`"),
            })?;
            Ok(apply_part(base + add, *part))
        }
        _ => err(line, "expected an immediate or symbol"),
    }
}

/// True when the operand is a literal immediate (16-bit selection is
/// allowed to depend on its value).
fn literal(arg: &Arg) -> Option<i64> {
    match arg {
        Arg::Imm(v) => Some(*v),
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
    let delta = target - pc as i64;
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

fn n_args(args: &[Arg], n: usize, line: u32) -> Result<&[Arg], AsmError> {
    if args.len() == n {
        Ok(args)
    } else {
        err(line, format!("expected {n} operands, found {}", args.len()))
    }
}

#[allow(clippy::too_many_lines)]
fn build_instr(
    mnemonic: &str,
    args: &[Arg],
    line: u32,
    pc: u32,
    resolve: &dyn Fn(&str) -> Option<i64>,
) -> Result<Instr, AsmError> {
    let ev = |a: &Arg| eval_arg(a, line, resolve);
    let cond_of = |m: &str| match m {
        "jeq" => Some(Cond::Eq),
        "jne" => Some(Cond::Ne),
        "jlt" => Some(Cond::Lt),
        "jge" => Some(Cond::Ge),
        "jlt.u" => Some(Cond::LtU),
        "jge.u" => Some(Cond::GeU),
        _ => None,
    };
    let zcond_of = |m: &str| match m {
        "jz" => Some(Cond::Eq),
        "jnz" => Some(Cond::Ne),
        "jltz" => Some(Cond::Lt),
        "jgez" => Some(Cond::Ge),
        _ => None,
    };
    let binop_of = |m: &str| match m {
        "add" => Some(BinOp::Add),
        "sub" => Some(BinOp::Sub),
        "and" => Some(BinOp::And),
        "or" => Some(BinOp::Or),
        "xor" => Some(BinOp::Xor),
        "sll" => Some(BinOp::Sll),
        "srl" => Some(BinOp::Srl),
        "sra" => Some(BinOp::Sra),
        "mul" => Some(BinOp::Mul),
        "div" => Some(BinOp::Div),
        "rem" => Some(BinOp::Rem),
        _ => None,
    };
    let mem_of = |a: &Arg| -> Option<(AReg, bool, Arg)> {
        match a {
            Arg::Mem { base, postinc, off } => Some((*base, *postinc, (**off).clone())),
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
            let v = imm_range(
                eval_arg(&off, line, resolve)?,
                -32768,
                32767,
                line,
                "lea offset",
            )?;
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
            let offv = imm_range(
                eval_arg(&off, line, resolve)?,
                -512,
                511,
                line,
                "load offset",
            )?;
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
            if mnemonic == "ld.w" && !postinc && literal(&off) == Some(0) {
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
            let offv = imm_range(
                eval_arg(&off, line, resolve)?,
                -512,
                511,
                line,
                "store offset",
            )?;
            if mnemonic == "st.a" {
                return Ok(Instr::StA {
                    s: a[1].a(line)?,
                    base,
                    off10: offv as i16,
                    postinc,
                });
            }
            let s = a[1].d(line)?;
            if mnemonic == "st.w" && !postinc && literal(&off) == Some(0) {
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
}
