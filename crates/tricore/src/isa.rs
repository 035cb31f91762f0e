//! Instruction set of the TriCore-like source processor.
//!
//! The ISA mirrors the traits of the real TriCore that matter for the
//! paper's translation problem: two register banks (data `D` and address
//! `A`), mixed 16/32-bit instruction lengths (so instruction addresses are
//! halfword-aligned and cache analysis must reason about real byte
//! layouts), compare-and-branch instructions instead of condition flags,
//! post-increment addressing, a multiply-accumulate instruction and a
//! zero-overhead loop instruction.

use std::fmt;

/// A data register `D0..D15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DReg(pub u8);

/// An address register `A0..A15`. `A10` is the stack pointer, `A11` the
/// return-address register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AReg(pub u8);

/// Stack pointer alias.
pub const SP: AReg = AReg(10);
/// Return-address register alias.
pub const RA: AReg = AReg(11);

/// A set of timing-model register indices (`0..16` = D bank, `16..32` =
/// A bank), one bit per register: the operand sets of [`Instr::reads`]
/// and [`Instr::writes`]. It is `Copy` and fits a register, so the
/// timing model checks a dual-issue hazard with one mask operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// The set holding timing index `r`, which must be below 32.
    pub const fn one(r: u8) -> RegSet {
        RegSet(1 << r)
    }

    /// True when the two sets share a register.
    pub fn intersects(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of registers in the set.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The set's indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let r = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(r)
        })
    }
}

impl std::ops::BitOr for RegSet {
    type Output = RegSet;
    fn bitor(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }
}

impl DReg {
    /// Creates a data register, panicking on indices above 15.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn new(i: u8) -> Self {
        assert!(i < 16, "data register index out of range");
        DReg(i)
    }
}

impl AReg {
    /// Creates an address register, panicking on indices above 15.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn new(i: u8) -> Self {
        assert!(i < 16, "address register index out of range");
        AReg(i)
    }
}

impl fmt::Display for DReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%d{}", self.0)
    }
}

impl fmt::Display for AReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%a{}", self.0)
    }
}

/// Two-operand ALU operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by low 5 bits of the second operand).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// 32×32→32 wrapping multiply.
    Mul,
    /// Signed division (division by zero yields 0).
    Div,
    /// Signed remainder (remainder by zero yields 0).
    Rem,
}

impl BinOp {
    /// Applies the operation to two 32-bit values.
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Sll => a.wrapping_shl(b & 31),
            BinOp::Srl => a.wrapping_shr(b & 31),
            BinOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
        }
    }

    /// The assembler spelling of the three-operand form.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Sll => "sll",
            BinOp::Srl => "srl",
            BinOp::Sra => "sra",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
        }
    }
}

/// Condition of a compare-and-branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl Cond {
    /// Evaluates the condition on two register values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::LtU => a < b,
            Cond::GeU => a >= b,
        }
    }

    /// The assembler spelling of the two-register compare-and-branch.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "jeq",
            Cond::Ne => "jne",
            Cond::Lt => "jlt",
            Cond::Ge => "jge",
            Cond::LtU => "jlt.u",
            Cond::GeU => "jge.u",
        }
    }

    /// The assembler spelling of the compare-with-zero branch.
    pub(crate) fn z_mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "jz",
            Cond::Ne => "jnz",
            Cond::Lt => "jltz",
            Cond::Ge => "jgez",
            Cond::LtU => "jltz.u",
            Cond::GeU => "jgez.u",
        }
    }
}

/// Width/signedness selector for loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LdKind {
    /// `ld.b` — byte, sign-extended.
    B,
    /// `ld.bu` — byte, zero-extended.
    Bu,
    /// `ld.h` — halfword, sign-extended.
    H,
    /// `ld.hu` — halfword, zero-extended.
    Hu,
    /// `ld.w` — word.
    W,
}

impl LdKind {
    fn suffix(self) -> &'static str {
        match self {
            LdKind::B => "b",
            LdKind::Bu => "bu",
            LdKind::H => "h",
            LdKind::Hu => "hu",
            LdKind::W => "w",
        }
    }
}

/// Width selector for stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StKind {
    /// `st.b` — low byte.
    B,
    /// `st.h` — low halfword.
    H,
    /// `st.w` — word.
    W,
}

impl StKind {
    fn suffix(self) -> &'static str {
        match self {
            StKind::B => "b",
            StKind::H => "h",
            StKind::W => "w",
        }
    }
}

/// One source-processor instruction.
///
/// Displacements of control-transfer instructions are in halfwords
/// relative to the address of the instruction itself (`target = pc +
/// 2*disp`), as on the real TriCore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// Every variant carries its own doc line; the allow covers only the
// payload fields, whose names follow the ISA operand convention
// (`d`/`s`/`a`/`base` registers, `imm*`/`off*`/`disp*` immediates).
#[allow(missing_docs)]
pub enum Instr {
    // ---- 16-bit encodings ----
    /// No operation (16-bit).
    Nop16,
    /// Halt the processor and report to the debug interface (16-bit).
    Debug16,
    /// Return: jump to `A11` (16-bit).
    Ret16,
    /// `mov %dX, imm7` (16-bit, sign-extended).
    Mov16 { d: DReg, imm7: i8 },
    /// `mov %dX, %dY` (16-bit).
    MovRR16 { d: DReg, s: DReg },
    /// `add %dX, %dY` — `dX += dY` (16-bit).
    Add16 { d: DReg, s: DReg },
    /// `sub %dX, %dY` — `dX -= dY` (16-bit).
    Sub16 { d: DReg, s: DReg },
    /// `ld.w %dX, [%aY]` (16-bit, zero offset).
    LdW16 { d: DReg, a: AReg },
    /// `st.w [%aY], %dX` (16-bit, zero offset).
    StW16 { a: AReg, s: DReg },

    // ---- 32-bit encodings ----
    /// `mov %dX, imm16` (sign-extended).
    Mov { d: DReg, imm16: i16 },
    /// `movh %dX, imm16` — `dX = imm16 << 16`.
    Movh { d: DReg, imm16: u16 },
    /// `movh.a %aX, imm16` — `aX = imm16 << 16`.
    MovhA { a: AReg, imm16: u16 },
    /// `addi %dX, %dY, imm16` (sign-extended addend).
    Addi { d: DReg, s: DReg, imm16: i16 },
    /// `addih %dX, %dY, imm16` — `dX = dY + (imm16 << 16)`.
    Addih { d: DReg, s: DReg, imm16: u16 },
    /// `mov %dX, %dY` (32-bit form).
    MovRR { d: DReg, s: DReg },
    /// `mov.a %aX, %dY`.
    MovA { a: AReg, s: DReg },
    /// `mov.d %dX, %aY`.
    MovD { d: DReg, a: AReg },
    /// `mov.aa %aX, %aY`.
    MovAA { a: AReg, s: AReg },
    /// `lea %aX, [%aY]off16` — `aX = aY + sext(off16)`.
    Lea { a: AReg, base: AReg, off16: i16 },
    /// Three-register ALU operation.
    Bin {
        op: BinOp,
        d: DReg,
        s1: DReg,
        s2: DReg,
    },
    /// Register-immediate ALU operation (9-bit signed immediate).
    BinI {
        op: BinOp,
        d: DReg,
        s1: DReg,
        imm9: i16,
    },
    /// `madd %dX, %dA, %dY, %dZ` — `dX = dA + dY*dZ`.
    Madd {
        d: DReg,
        acc: DReg,
        s1: DReg,
        s2: DReg,
    },
    /// `msub %dX, %dA, %dY, %dZ` — `dX = dA - dY*dZ`.
    Msub {
        d: DReg,
        acc: DReg,
        s1: DReg,
        s2: DReg,
    },
    /// Load into a data register.
    Ld {
        kind: LdKind,
        d: DReg,
        base: AReg,
        off10: i16,
        postinc: bool,
    },
    /// Load into an address register (`ld.a`).
    LdA {
        a: AReg,
        base: AReg,
        off10: i16,
        postinc: bool,
    },
    /// Store from a data register.
    St {
        kind: StKind,
        s: DReg,
        base: AReg,
        off10: i16,
        postinc: bool,
    },
    /// Store from an address register (`st.a`).
    StA {
        s: AReg,
        base: AReg,
        off10: i16,
        postinc: bool,
    },
    /// Unconditional jump, 24-bit halfword displacement.
    J { disp24: i32 },
    /// Jump-and-link (call): `A11 = next pc`, 24-bit displacement.
    Jl { disp24: i32 },
    /// Indirect jump through an address register.
    Ji { a: AReg },
    /// Indirect jump-and-link through an address register.
    Jli { a: AReg },
    /// Compare-and-branch on two data registers (16-bit displacement).
    Jcond {
        cond: Cond,
        s1: DReg,
        s2: DReg,
        disp16: i16,
    },
    /// Compare-and-branch against zero (16-bit displacement).
    JcondZ { cond: Cond, s1: DReg, disp16: i16 },
    /// Zero-overhead loop: `aX -= 1; if aX != 0 jump` (16-bit displacement).
    Loop { a: AReg, disp16: i16 },
    /// No operation (32-bit).
    Nop,
}

impl Instr {
    /// Encoded size in bytes (2 or 4).
    pub fn size(&self) -> u32 {
        match self {
            Instr::Nop16
            | Instr::Debug16
            | Instr::Ret16
            | Instr::Mov16 { .. }
            | Instr::MovRR16 { .. }
            | Instr::Add16 { .. }
            | Instr::Sub16 { .. }
            | Instr::LdW16 { .. }
            | Instr::StW16 { .. } => 2,
            _ => 4,
        }
    }

    /// True for any instruction that may redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Ret16
                | Instr::J { .. }
                | Instr::Jl { .. }
                | Instr::Ji { .. }
                | Instr::Jli { .. }
                | Instr::Jcond { .. }
                | Instr::JcondZ { .. }
                | Instr::Loop { .. }
                | Instr::Debug16
        )
    }

    /// True for conditional control flow (the targets of the paper's
    /// branch-prediction correction code).
    pub fn is_conditional(&self) -> bool {
        matches!(
            self,
            Instr::Jcond { .. } | Instr::JcondZ { .. } | Instr::Loop { .. }
        )
    }

    /// Control-flow role of this instruction for the shared block
    /// layer — the ONE classifier both the translator's CFG and the
    /// block-compiled engine partition with, so their block structures
    /// cannot drift. `target` is the caller-resolved unit index of the
    /// direct target (`None` when the destination is outside the
    /// decoded table); it is only read for direct transfers.
    pub fn unit_flow(&self, target: Option<u32>) -> cabt_exec::blocks::UnitFlow {
        use cabt_exec::blocks::UnitFlow;
        match self {
            Instr::Debug16 => UnitFlow::Halt,
            Instr::J { .. } | Instr::Jl { .. } => UnitFlow::Jump { target },
            Instr::Jcond { .. } | Instr::JcondZ { .. } | Instr::Loop { .. } => {
                UnitFlow::Branch { target }
            }
            Instr::Ret16 | Instr::Ji { .. } | Instr::Jli { .. } => UnitFlow::Indirect,
            _ => UnitFlow::Straight,
        }
    }

    /// Branch target for direct control transfers, given the address of
    /// this instruction. `None` for indirect jumps and non-branches.
    pub fn target(&self, pc: u32) -> Option<u32> {
        let rel = |d: i32| pc.wrapping_add((d as u32).wrapping_mul(2));
        match *self {
            Instr::J { disp24 } | Instr::Jl { disp24 } => Some(rel(disp24)),
            Instr::Jcond { disp16, .. }
            | Instr::JcondZ { disp16, .. }
            | Instr::Loop { disp16, .. } => Some(rel(disp16 as i32)),
            _ => None,
        }
    }

    /// Registers read by this instruction, as timing-model indices
    /// (`0..16` = D bank, `16..32` = A bank). Used for hazard detection
    /// by both the golden model and the static cycle calculator.
    pub fn reads(&self) -> RegSet {
        let d = |r: DReg| RegSet::one(r.0);
        let a = |r: AReg| RegSet::one(r.0 + 16);
        match *self {
            Instr::MovRR16 { s, .. } | Instr::MovRR { s, .. } | Instr::MovA { s, .. } => d(s),
            Instr::Add16 { d: dd, s } | Instr::Sub16 { d: dd, s } => d(dd) | d(s),
            Instr::LdW16 { a: base, .. } => a(base),
            Instr::StW16 { a: base, s } => a(base) | d(s),
            Instr::Addi { s, .. } | Instr::Addih { s, .. } => d(s),
            Instr::MovD { a: s, .. } | Instr::MovAA { s, .. } => a(s),
            Instr::Lea { base, .. } => a(base),
            Instr::Bin { s1, s2, .. } => d(s1) | d(s2),
            Instr::BinI { s1, .. } => d(s1),
            Instr::Madd { acc, s1, s2, .. } | Instr::Msub { acc, s1, s2, .. } => {
                d(acc) | d(s1) | d(s2)
            }
            Instr::Ld { base, .. } | Instr::LdA { base, .. } => a(base),
            Instr::St { s, base, .. } => d(s) | a(base),
            Instr::StA { s, base, .. } => a(s) | a(base),
            Instr::Ji { a: r } | Instr::Jli { a: r } => a(r),
            Instr::Jcond { s1, s2, .. } => d(s1) | d(s2),
            Instr::JcondZ { s1, .. } => d(s1),
            Instr::Loop { a: r, .. } => a(r),
            Instr::Ret16 => a(RA),
            _ => RegSet::EMPTY,
        }
    }

    /// Registers written by this instruction (same index space as
    /// [`Instr::reads`]); never more than two.
    pub fn writes(&self) -> RegSet {
        let d = |r: DReg| RegSet::one(r.0);
        let a = |r: AReg| RegSet::one(r.0 + 16);
        match *self {
            Instr::Mov16 { d: dd, .. }
            | Instr::MovRR16 { d: dd, .. }
            | Instr::Add16 { d: dd, .. }
            | Instr::Sub16 { d: dd, .. }
            | Instr::LdW16 { d: dd, .. }
            | Instr::Mov { d: dd, .. }
            | Instr::Movh { d: dd, .. }
            | Instr::Addi { d: dd, .. }
            | Instr::Addih { d: dd, .. }
            | Instr::MovRR { d: dd, .. }
            | Instr::MovD { d: dd, .. }
            | Instr::Bin { d: dd, .. }
            | Instr::BinI { d: dd, .. }
            | Instr::Madd { d: dd, .. }
            | Instr::Msub { d: dd, .. } => d(dd),
            Instr::MovhA { a: aa, .. }
            | Instr::MovA { a: aa, .. }
            | Instr::MovAA { a: aa, .. }
            | Instr::Lea { a: aa, .. }
            | Instr::LdA { a: aa, .. } => a(aa),
            Instr::Ld {
                d: dd,
                base,
                postinc,
                ..
            } => {
                if postinc {
                    d(dd) | a(base)
                } else {
                    d(dd)
                }
            }
            Instr::St { base, postinc, .. } | Instr::StA { base, postinc, .. } => {
                if postinc {
                    a(base)
                } else {
                    RegSet::EMPTY
                }
            }
            Instr::Jl { .. } | Instr::Jli { .. } => a(RA),
            Instr::Loop { a: r, .. } => a(r),
            _ => RegSet::EMPTY,
        }
    }
}

impl Instr {
    /// This instruction at address `pc`, with direct branch targets as
    /// the absolute addresses [`assemble`](crate::asm::assemble) reads
    /// (`Display` prints them relative): `.text` printed line by line
    /// reassembles to the same bytes. A 32-bit form the assembler would
    /// otherwise encode in 16 bits prints with a `32` suffix (`nop32`,
    /// `mov32`, `ld.w32`, `st.w32`).
    pub fn at(self, pc: u32) -> impl fmt::Display {
        fmt::from_fn(move |f| self.print(f, Some(pc)))
    }

    /// The one printer behind `Display` and [`Instr::at`].
    fn print(&self, f: &mut fmt::Formatter<'_>, pc: Option<u32>) -> fmt::Result {
        let pi = |p: bool| if p { "+" } else { "" };
        // The suffix of a long form that shares its short form's text.
        let long = |shared: bool| if shared { "32" } else { "" };
        // A direct branch's absolute target, or its byte displacement.
        let to = |halfwords: i32| match pc {
            Some(pc) => format!("{:#x}", pc.wrapping_add((halfwords * 2) as u32)),
            None => format!("{:+}", halfwords * 2),
        };
        match *self {
            Instr::Nop16 => write!(f, "nop"),
            Instr::Debug16 => write!(f, "debug"),
            Instr::Ret16 => write!(f, "ret"),
            Instr::Mov16 { d, imm7 } => write!(f, "mov {d}, {imm7}"),
            Instr::MovRR16 { d, s } => write!(f, "mov {d}, {s}"),
            Instr::Add16 { d, s } => write!(f, "add {d}, {s}"),
            Instr::Sub16 { d, s } => write!(f, "sub {d}, {s}"),
            Instr::LdW16 { d, a } => write!(f, "ld.w {d}, [{a}]"),
            Instr::StW16 { a, s } => write!(f, "st.w [{a}], {s}"),
            Instr::Mov { d, imm16 } if (-64..=63).contains(&imm16) => {
                write!(f, "mov32 {d}, {imm16}")
            }
            Instr::Mov { d, imm16 } => write!(f, "mov {d}, {imm16}"),
            Instr::Movh { d, imm16 } => write!(f, "movh {d}, {imm16:#x}"),
            Instr::MovhA { a, imm16 } => write!(f, "movh.a {a}, {imm16:#x}"),
            Instr::Addi { d, s, imm16 } => write!(f, "addi {d}, {s}, {imm16}"),
            Instr::Addih { d, s, imm16 } => write!(f, "addih {d}, {s}, {imm16:#x}"),
            Instr::MovRR { d, s } => write!(f, "mov32 {d}, {s}"),
            Instr::MovA { a, s } => write!(f, "mov.a {a}, {s}"),
            Instr::MovD { d, a } => write!(f, "mov.d {d}, {a}"),
            Instr::MovAA { a, s } => write!(f, "mov.aa {a}, {s}"),
            Instr::Lea { a, base, off16 } => write!(f, "lea {a}, [{base}]{off16}"),
            Instr::Bin { op, d, s1, s2 } => write!(f, "{} {d}, {s1}, {s2}", op.mnemonic()),
            Instr::BinI { op, d, s1, imm9 } => write!(f, "{} {d}, {s1}, {imm9}", op.mnemonic()),
            Instr::Madd { d, acc, s1, s2 } => write!(f, "madd {d}, {acc}, {s1}, {s2}"),
            Instr::Msub { d, acc, s1, s2 } => write!(f, "msub {d}, {acc}, {s1}, {s2}"),
            Instr::Ld {
                kind,
                d,
                base,
                off10,
                postinc,
            } => {
                write!(
                    f,
                    "ld.{}{} {d}, [{base}{}]{off10}",
                    kind.suffix(),
                    long(kind == LdKind::W && off10 == 0 && !postinc),
                    pi(postinc)
                )
            }
            Instr::LdA {
                a,
                base,
                off10,
                postinc,
            } => {
                write!(f, "ld.a {a}, [{base}{}]{off10}", pi(postinc))
            }
            Instr::St {
                kind,
                s,
                base,
                off10,
                postinc,
            } => {
                write!(
                    f,
                    "st.{}{} [{base}{}]{off10}, {s}",
                    kind.suffix(),
                    long(kind == StKind::W && off10 == 0 && !postinc),
                    pi(postinc)
                )
            }
            Instr::StA {
                s,
                base,
                off10,
                postinc,
            } => {
                write!(f, "st.a [{base}{}]{off10}, {s}", pi(postinc))
            }
            Instr::J { disp24 } => write!(f, "j {}", to(disp24)),
            Instr::Jl { disp24 } => write!(f, "jl {}", to(disp24)),
            Instr::Ji { a } => write!(f, "ji {a}"),
            Instr::Jli { a } => write!(f, "jli {a}"),
            Instr::Jcond {
                cond,
                s1,
                s2,
                disp16,
            } => {
                write!(f, "{} {s1}, {s2}, {}", cond.mnemonic(), to(disp16.into()))
            }
            Instr::JcondZ { cond, s1, disp16 } => {
                write!(f, "{} {s1}, {}", cond.z_mnemonic(), to(disp16.into()))
            }
            Instr::Loop { a, disp16 } => write!(f, "loop {a}, {}", to(disp16.into())),
            Instr::Nop => write!(f, "nop32"),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.print(f, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(BinOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(BinOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(BinOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(
            BinOp::Sll.apply(1, 33),
            2,
            "shift amount is masked to 5 bits"
        );
        assert_eq!(BinOp::Div.apply((-7i32) as u32, 2), (-3i32) as u32);
        assert_eq!(BinOp::Div.apply(5, 0), 0);
        assert_eq!(BinOp::Rem.apply((-7i32) as u32, 2), (-1i32) as u32);
        assert_eq!(BinOp::Rem.apply(5, 0), 0);
        assert_eq!(BinOp::Mul.apply(0x1_0000, 0x1_0000), 0);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval((-1i32) as u32, 0));
        assert!(!Cond::LtU.eval((-1i32) as u32, 0));
        assert!(Cond::Ge.eval(0, (-1i32) as u32));
        assert!(Cond::GeU.eval((-1i32) as u32, 5));
    }

    #[test]
    fn sizes() {
        assert_eq!(Instr::Nop16.size(), 2);
        assert_eq!(Instr::Ret16.size(), 2);
        assert_eq!(
            Instr::Mov {
                d: DReg(0),
                imm16: 0
            }
            .size(),
            4
        );
        assert_eq!(Instr::J { disp24: 0 }.size(), 4);
    }

    #[test]
    fn branch_targets_are_halfword_relative() {
        let j = Instr::J { disp24: 3 };
        assert_eq!(j.target(0x8000_0000), Some(0x8000_0006));
        let b = Instr::Jcond {
            cond: Cond::Eq,
            s1: DReg(0),
            s2: DReg(1),
            disp16: -2,
        };
        assert_eq!(b.target(0x8000_0010), Some(0x8000_000c));
        assert_eq!(Instr::Ji { a: AReg(0) }.target(0), None);
        assert_eq!(Instr::Nop.target(0), None);
    }

    #[test]
    fn reads_writes_track_postincrement() {
        let ld = Instr::Ld {
            kind: LdKind::W,
            d: DReg(1),
            base: AReg(2),
            off10: 4,
            postinc: true,
        };
        assert_eq!(ld.writes().iter().collect::<Vec<_>>(), [1, 18]);
        let st = Instr::St {
            kind: StKind::W,
            s: DReg(1),
            base: AReg(2),
            off10: 4,
            postinc: false,
        };
        assert_eq!(st.writes(), RegSet::EMPTY);
        assert_eq!(st.reads().iter().collect::<Vec<_>>(), [1, 18]);
    }

    #[test]
    fn call_writes_link_register() {
        assert_eq!(Instr::Jl { disp24: 0 }.writes(), RegSet::one(16 + 11));
        assert_eq!(Instr::Ret16.reads(), RegSet::one(16 + 11));
    }

    #[test]
    fn control_classification() {
        assert!(Instr::J { disp24: 0 }.is_control());
        assert!(!Instr::J { disp24: 0 }.is_conditional());
        assert!(Instr::Loop {
            a: AReg(3),
            disp16: -4
        }
        .is_conditional());
        assert!(Instr::Debug16.is_control());
        assert!(!Instr::Nop.is_control());
    }

    #[test]
    #[should_panic]
    fn dreg_range_checked() {
        DReg::new(16);
    }

    #[test]
    fn display_forms() {
        let i = Instr::Ld {
            kind: LdKind::W,
            d: DReg(4),
            base: AReg(2),
            off10: 4,
            postinc: true,
        };
        assert_eq!(i.to_string(), "ld.w %d4, [%a2+]4");
        let i = Instr::Madd {
            d: DReg(0),
            acc: DReg(1),
            s1: DReg(2),
            s2: DReg(3),
        };
        assert_eq!(i.to_string(), "madd %d0, %d1, %d2, %d3");
    }
}
