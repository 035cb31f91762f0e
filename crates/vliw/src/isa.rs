//! Target VLIW instruction set: registers, functional units, operations,
//! predication, and execute packets.

use std::fmt;

/// One of the 64 target registers: `A0..A31` and `B0..B31`.
///
/// Internally a flat index (`0..32` = A file, `32..64` = B file) so the
/// simulator can keep a single register array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Register `Ai`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 31`.
    pub const fn a(i: u8) -> Self {
        assert!(i < 32, "A-file register index out of range");
        Reg(i)
    }

    /// Register `Bi`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 31`.
    pub const fn b(i: u8) -> Self {
        assert!(i < 32, "B-file register index out of range");
        Reg(32 + i)
    }

    /// Flat index into a 64-entry register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a register from its flat index.
    ///
    /// # Panics
    ///
    /// Panics if `i > 63`.
    pub fn from_index(i: u8) -> Self {
        assert!(i < 64, "register index out of range");
        Reg(i)
    }

    /// `true` for the A file.
    pub fn is_a_file(self) -> bool {
        self.0 < 32
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 32 {
            write!(f, "A{}", self.0)
        } else {
            write!(f, "B{}", self.0 - 32)
        }
    }
}

/// The registers usable as predicates (condition registers), mirroring
/// the C6x restriction to `A0..A2`/`B0..B2`.
pub const PRED_REGS: [Reg; 6] = [Reg(0), Reg(1), Reg(2), Reg(32), Reg(33), Reg(34)];

/// A predicate guard: execute the slot only if `reg` is non-zero (or
/// zero, when `negated`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pred {
    /// Condition register (one of [`PRED_REGS`]; [`Packet::push`]
    /// refuses any other).
    pub reg: Reg,
    /// `true` → execute when the register is zero (`[!r]`).
    pub negated: bool,
}

impl Pred {
    /// `[reg]` — execute when non-zero.
    pub fn nz(reg: Reg) -> Self {
        Pred {
            reg,
            negated: false,
        }
    }

    /// `[!reg]` — execute when zero.
    pub fn z(reg: Reg) -> Self {
        Pred { reg, negated: true }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "[!{}]", self.reg)
        } else {
            write!(f, "[{}]", self.reg)
        }
    }
}

/// Functional unit of the target core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Side-1 logical/arithmetic unit.
    L1,
    /// Side-1 shifter/branch unit.
    S1,
    /// Side-1 multiplier.
    M1,
    /// Side-1 data (load/store) unit.
    D1,
    /// Side-2 logical/arithmetic unit.
    L2,
    /// Side-2 shifter/branch unit.
    S2,
    /// Side-2 multiplier.
    M2,
    /// Side-2 data (load/store) unit.
    D2,
}

impl Unit {
    /// All eight units, side 1 first.
    pub const ALL: [Unit; 8] = [
        Unit::L1,
        Unit::S1,
        Unit::M1,
        Unit::D1,
        Unit::L2,
        Unit::S2,
        Unit::M2,
        Unit::D2,
    ];

    /// The unit kind letter (`'L'`, `'S'`, `'M'`, `'D'`).
    pub fn kind(self) -> char {
        match self {
            Unit::L1 | Unit::L2 => 'L',
            Unit::S1 | Unit::S2 => 'S',
            Unit::M1 | Unit::M2 => 'M',
            Unit::D1 | Unit::D2 => 'D',
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".{self:?}")
    }
}

/// Memory access width for target loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// Byte (sign- or zero-extended per `unsigned`).
    B,
    /// Halfword.
    H,
    /// Word.
    W,
}

impl Width {
    /// Byte scale of the width (offsets are scaled like on the C6x).
    pub fn bytes(self) -> u32 {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
        }
    }
}

/// One target operation.
///
/// Delay slots follow the C6x: `Mpy*` and `Div`/`Rem` results appear
/// after [`Op::delay_slots`] extra cycles; loads after 4; branches
/// redirect fetch after 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// Variants are one-to-one with C6x mnemonics; the allow covers the
// payload fields, named by the operand convention (`d` destination,
// `s*` sources, `base`/`woff` addressing, `disp21` branch offset).
#[allow(missing_docs)]
pub enum Op {
    Add {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    Sub {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    And {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    Or {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    Xor {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Add a 5-bit signed constant.
    AddI {
        d: Reg,
        s1: Reg,
        imm5: i8,
    },
    /// Shift left logical by register.
    Shl {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Shift right arithmetic by register.
    Shr {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Shift right logical by register.
    Shru {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Shift left logical by a 5-bit constant.
    ShlI {
        d: Reg,
        s1: Reg,
        imm5: u8,
    },
    /// Shift right arithmetic by a 5-bit constant.
    ShrI {
        d: Reg,
        s1: Reg,
        imm5: u8,
    },
    /// Shift right logical by a 5-bit constant.
    ShruI {
        d: Reg,
        s1: Reg,
        imm5: u8,
    },
    /// 32×32→32 multiply (M unit, 1 delay slot).
    Mpy {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Iterative signed divide (M unit, multi-cycle; see crate docs).
    Div {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Iterative signed remainder.
    Rem {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// `d = (s1 == s2)`.
    CmpEq {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// `d = (s1 > s2)` signed.
    CmpGt {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// `d = (s1 > s2)` unsigned.
    CmpGtU {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// `d = (s1 < s2)` signed.
    CmpLt {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// `d = (s1 < s2)` unsigned.
    CmpLtU {
        d: Reg,
        s1: Reg,
        s2: Reg,
    },
    /// Register move.
    Mv {
        d: Reg,
        s: Reg,
    },
    /// Load a sign-extended 16-bit constant.
    Mvk {
        d: Reg,
        imm16: i16,
    },
    /// Set the high halfword, keeping the low half.
    Mvkh {
        d: Reg,
        imm16: u16,
    },
    /// Load (4 delay slots). `woff` is scaled by the access width.
    Ld {
        w: Width,
        unsigned: bool,
        d: Reg,
        base: Reg,
        woff: i16,
    },
    /// Store (takes effect this cycle).
    St {
        w: Width,
        s: Reg,
        base: Reg,
        woff: i16,
    },
    /// Relative branch (5 delay slots); target = slot address + `disp*4`.
    B {
        disp21: i32,
    },
    /// Indirect branch through a register (5 delay slots).
    BReg {
        s: Reg,
    },
    /// Multi-cycle no-op (1..=9 cycles).
    Nop {
        count: u8,
    },
    /// Stop the simulation (stands in for the C6x IDLE + host break).
    Halt,
}

impl Op {
    /// Units this operation may execute on (same-side variants listed in
    /// scheduler preference order).
    pub fn legal_kinds(&self) -> &'static [char] {
        match self {
            Op::Add { .. }
            | Op::Sub { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::AddI { .. }
            | Op::Mv { .. } => &['L', 'S', 'D'],
            Op::CmpEq { .. }
            | Op::CmpGt { .. }
            | Op::CmpGtU { .. }
            | Op::CmpLt { .. }
            | Op::CmpLtU { .. } => &['L'],
            Op::Shl { .. }
            | Op::Shr { .. }
            | Op::Shru { .. }
            | Op::ShlI { .. }
            | Op::ShrI { .. }
            | Op::ShruI { .. } => &['S'],
            Op::Mvk { .. } | Op::Mvkh { .. } | Op::B { .. } | Op::BReg { .. } | Op::Halt => &['S'],
            Op::Mpy { .. } | Op::Div { .. } | Op::Rem { .. } => &['M'],
            Op::Ld { .. } | Op::St { .. } => &['D'],
            Op::Nop { .. } => &['L', 'S', 'M', 'D'],
        }
    }

    /// Extra cycles before the result is visible (0 for single-cycle
    /// operations).
    pub fn delay_slots(&self) -> u32 {
        match self {
            Op::Mpy { .. } => 1,
            Op::Ld { .. } => 4,
            Op::B { .. } | Op::BReg { .. } => 5,
            Op::Div { .. } | Op::Rem { .. } => 17,
            _ => 0,
        }
    }

    /// Destination register, if any.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Op::Add { d, .. }
            | Op::Sub { d, .. }
            | Op::And { d, .. }
            | Op::Or { d, .. }
            | Op::Xor { d, .. }
            | Op::AddI { d, .. }
            | Op::Shl { d, .. }
            | Op::Shr { d, .. }
            | Op::Shru { d, .. }
            | Op::ShlI { d, .. }
            | Op::ShrI { d, .. }
            | Op::ShruI { d, .. }
            | Op::Mpy { d, .. }
            | Op::Div { d, .. }
            | Op::Rem { d, .. }
            | Op::CmpEq { d, .. }
            | Op::CmpGt { d, .. }
            | Op::CmpGtU { d, .. }
            | Op::CmpLt { d, .. }
            | Op::CmpLtU { d, .. }
            | Op::Mv { d, .. }
            | Op::Mvk { d, .. }
            | Op::Mvkh { d, .. }
            | Op::Ld { d, .. } => Some(d),
            _ => None,
        }
    }

    /// Source registers.
    pub fn sources(&self) -> Vec<Reg> {
        match *self {
            Op::Add { s1, s2, .. }
            | Op::Sub { s1, s2, .. }
            | Op::And { s1, s2, .. }
            | Op::Or { s1, s2, .. }
            | Op::Xor { s1, s2, .. }
            | Op::Shl { s1, s2, .. }
            | Op::Shr { s1, s2, .. }
            | Op::Shru { s1, s2, .. }
            | Op::Mpy { s1, s2, .. }
            | Op::Div { s1, s2, .. }
            | Op::Rem { s1, s2, .. }
            | Op::CmpEq { s1, s2, .. }
            | Op::CmpGt { s1, s2, .. }
            | Op::CmpGtU { s1, s2, .. }
            | Op::CmpLt { s1, s2, .. }
            | Op::CmpLtU { s1, s2, .. } => vec![s1, s2],
            Op::AddI { s1, .. }
            | Op::ShlI { s1, .. }
            | Op::ShrI { s1, .. }
            | Op::ShruI { s1, .. } => vec![s1],
            Op::Mv { s, .. } | Op::BReg { s } => vec![s],
            // Mvkh reads the destination's low half.
            Op::Mvkh { d, .. } => vec![d],
            Op::Ld { base, .. } => vec![base],
            Op::St { s, base, .. } => vec![s, base],
            _ => vec![],
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Add { d, s1, s2 } => write!(f, "ADD {s1}, {s2}, {d}"),
            Op::Sub { d, s1, s2 } => write!(f, "SUB {s1}, {s2}, {d}"),
            Op::And { d, s1, s2 } => write!(f, "AND {s1}, {s2}, {d}"),
            Op::Or { d, s1, s2 } => write!(f, "OR {s1}, {s2}, {d}"),
            Op::Xor { d, s1, s2 } => write!(f, "XOR {s1}, {s2}, {d}"),
            Op::AddI { d, s1, imm5 } => write!(f, "ADD {imm5}, {s1}, {d}"),
            Op::Shl { d, s1, s2 } => write!(f, "SHL {s1}, {s2}, {d}"),
            Op::Shr { d, s1, s2 } => write!(f, "SHR {s1}, {s2}, {d}"),
            Op::Shru { d, s1, s2 } => write!(f, "SHRU {s1}, {s2}, {d}"),
            Op::ShlI { d, s1, imm5 } => write!(f, "SHL {s1}, {imm5}, {d}"),
            Op::ShrI { d, s1, imm5 } => write!(f, "SHR {s1}, {imm5}, {d}"),
            Op::ShruI { d, s1, imm5 } => write!(f, "SHRU {s1}, {imm5}, {d}"),
            Op::Mpy { d, s1, s2 } => write!(f, "MPY {s1}, {s2}, {d}"),
            Op::Div { d, s1, s2 } => write!(f, "DIV {s1}, {s2}, {d}"),
            Op::Rem { d, s1, s2 } => write!(f, "REM {s1}, {s2}, {d}"),
            Op::CmpEq { d, s1, s2 } => write!(f, "CMPEQ {s1}, {s2}, {d}"),
            Op::CmpGt { d, s1, s2 } => write!(f, "CMPGT {s1}, {s2}, {d}"),
            Op::CmpGtU { d, s1, s2 } => write!(f, "CMPGTU {s1}, {s2}, {d}"),
            Op::CmpLt { d, s1, s2 } => write!(f, "CMPLT {s1}, {s2}, {d}"),
            Op::CmpLtU { d, s1, s2 } => write!(f, "CMPLTU {s1}, {s2}, {d}"),
            Op::Mv { d, s } => write!(f, "MV {s}, {d}"),
            Op::Mvk { d, imm16 } => write!(f, "MVK {imm16}, {d}"),
            Op::Mvkh { d, imm16 } => write!(f, "MVKH {imm16:#x}, {d}"),
            Op::Ld {
                w,
                unsigned,
                d,
                base,
                woff,
            } => {
                let u = if unsigned { "U" } else { "" };
                let wch = match w {
                    Width::B => "B",
                    Width::H => "H",
                    Width::W => "W",
                };
                write!(f, "LD{wch}{u} *{base}[{woff}], {d}")
            }
            Op::St { w, s, base, woff } => {
                let wch = match w {
                    Width::B => "B",
                    Width::H => "H",
                    Width::W => "W",
                };
                write!(f, "ST{wch} {s}, *{base}[{woff}]")
            }
            Op::B { disp21 } => write!(f, "B {:+}", disp21 as i64 * 4),
            Op::BReg { s } => write!(f, "B {s}"),
            Op::Nop { count } => write!(f, "NOP {count}"),
            Op::Halt => write!(f, "HALT"),
        }
    }
}

/// Error building an execute packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The packet already has eight slots.
    Full,
    /// Two slots claim the same functional unit.
    UnitTaken(Unit),
    /// The operation cannot run on the given unit kind.
    WrongUnit {
        /// Attempted unit.
        unit: Unit,
        /// The operation's display form.
        op: String,
    },
    /// Multi-cycle NOPs must be alone in their packet.
    NopNotAlone,
    /// The predicate register is not a legal condition register.
    BadPredicate(Reg),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Full => write!(f, "execute packet already has 8 slots"),
            PacketError::UnitTaken(u) => write!(f, "functional unit {u} already used"),
            PacketError::WrongUnit { unit, op } => {
                write!(f, "operation `{op}` cannot execute on {unit}")
            }
            PacketError::NopNotAlone => write!(f, "multi-cycle NOP must be alone in its packet"),
            PacketError::BadPredicate(r) => write!(f, "{r} is not a condition register"),
        }
    }
}

impl std::error::Error for PacketError {}

/// One instruction slot: an operation bound to a functional unit,
/// optionally predicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The functional unit executing this slot.
    pub unit: Unit,
    /// Optional predicate guard.
    pub pred: Option<Pred>,
    /// The operation.
    pub op: Op,
}

impl Slot {
    /// An unpredicated slot.
    pub fn new(unit: Unit, op: Op) -> Self {
        Slot {
            unit,
            pred: None,
            op,
        }
    }

    /// A predicated slot.
    pub fn when(unit: Unit, pred: Pred, op: Op) -> Self {
        Slot {
            unit,
            pred: Some(pred),
            op,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.pred {
            write!(f, "{p} ")?;
        }
        write!(f, "{} {}", self.op, self.unit)
    }
}

/// An execute packet: up to eight slots that issue in the same cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Packet {
    /// Address of the packet's first slot in the target address space.
    pub addr: u32,
    slots: Vec<Slot>,
}

impl Packet {
    /// An empty packet at `addr`.
    pub fn at(addr: u32) -> Self {
        Packet {
            addr,
            slots: Vec::new(),
        }
    }

    /// The slots in issue order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Bytes the packet occupies in the translated image's address
    /// layout: 8 per slot, and an empty packet takes one NOP slot. The
    /// translator places packets at this pitch, so every target
    /// address of a translation, the base of its cache-state area and
    /// every translated park image depend on it.
    pub fn size(&self) -> u32 {
        8 * self.slots.len().max(1) as u32
    }

    /// Adds a slot, enforcing the packet rules.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] if the packet is full, the unit is taken,
    /// the operation is illegal on the unit, a multi-cycle NOP is
    /// combined with other slots, or the predicate register is not a
    /// condition register.
    pub fn push(&mut self, slot: Slot) -> Result<(), PacketError> {
        if self.slots.len() >= 8 {
            return Err(PacketError::Full);
        }
        if self.slots.iter().any(|s| s.unit == slot.unit) {
            return Err(PacketError::UnitTaken(slot.unit));
        }
        if !slot.op.legal_kinds().contains(&slot.unit.kind()) {
            return Err(PacketError::WrongUnit {
                unit: slot.unit,
                op: slot.op.to_string(),
            });
        }
        if let Op::Nop { count } = slot.op {
            if count > 1 && !self.slots.is_empty() {
                return Err(PacketError::NopNotAlone);
            }
        }
        if self
            .slots
            .iter()
            .any(|s| matches!(s.op, Op::Nop { count } if count > 1))
        {
            return Err(PacketError::NopNotAlone);
        }
        if let Some(p) = slot.pred {
            if !PRED_REGS.contains(&p.reg) {
                return Err(PacketError::BadPredicate(p.reg));
            }
        }
        self.slots.push(slot);
        Ok(())
    }

    /// Cycles this packet occupies the issue stage (multi-cycle NOPs
    /// occupy several).
    pub fn issue_cycles(&self) -> u32 {
        match self.slots.first() {
            Some(Slot {
                op: Op::Nop { count },
                ..
            }) if self.slots.len() == 1 => *count as u32,
            _ => 1,
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:#010x}:", self.addr)?;
        if self.slots.is_empty() {
            writeln!(f, "    NOP")?;
        }
        for (i, s) in self.slots.iter().enumerate() {
            let par = if i == 0 { "  " } else { "||" };
            writeln!(f, "  {par} {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_display_and_files() {
        assert_eq!(Reg::a(0).to_string(), "A0");
        assert_eq!(Reg::b(31).to_string(), "B31");
        assert!(Reg::a(5).is_a_file());
        assert!(!Reg::b(5).is_a_file());
        assert_eq!(Reg::from_index(33), Reg::b(1));
    }

    #[test]
    #[should_panic]
    fn reg_range_checked() {
        Reg::a(32);
    }

    #[test]
    fn packet_rejects_unit_conflicts() {
        let mut p = Packet::at(0);
        p.push(Slot::new(
            Unit::L1,
            Op::Add {
                d: Reg::a(1),
                s1: Reg::a(2),
                s2: Reg::a(3),
            },
        ))
        .unwrap();
        let e = p
            .push(Slot::new(
                Unit::L1,
                Op::Add {
                    d: Reg::a(4),
                    s1: Reg::a(5),
                    s2: Reg::a(6),
                },
            ))
            .unwrap_err();
        assert_eq!(e, PacketError::UnitTaken(Unit::L1));
        // Other side is fine.
        p.push(Slot::new(
            Unit::L2,
            Op::Add {
                d: Reg::b(4),
                s1: Reg::b(5),
                s2: Reg::b(6),
            },
        ))
        .unwrap();
    }

    #[test]
    fn packet_rejects_wrong_unit() {
        let mut p = Packet::at(0);
        let e = p
            .push(Slot::new(
                Unit::L1,
                Op::Mvk {
                    d: Reg::a(1),
                    imm16: 3,
                },
            ))
            .unwrap_err();
        assert!(matches!(e, PacketError::WrongUnit { .. }));
        let e = p
            .push(Slot::new(
                Unit::S1,
                Op::Ld {
                    w: Width::W,
                    unsigned: false,
                    d: Reg::a(1),
                    base: Reg::b(1),
                    woff: 0,
                },
            ))
            .unwrap_err();
        assert!(matches!(e, PacketError::WrongUnit { .. }));
    }

    #[test]
    fn packet_limits_to_eight_slots() {
        let mut p = Packet::at(0);
        for u in Unit::ALL {
            let op = match u.kind() {
                'M' => Op::Mpy {
                    d: Reg::a(1),
                    s1: Reg::a(2),
                    s2: Reg::a(3),
                },
                'D' => Op::Add {
                    d: Reg::a(4),
                    s1: Reg::a(5),
                    s2: Reg::a(6),
                },
                'S' => Op::Mvk {
                    d: Reg::a(7),
                    imm16: 0,
                },
                _ => Op::Add {
                    d: Reg::a(8),
                    s1: Reg::a(9),
                    s2: Reg::a(10),
                },
            };
            p.push(Slot::new(u, op)).unwrap();
        }
        assert_eq!(p.slots().len(), 8);
        let e = p.push(Slot::new(
            Unit::L1,
            Op::Add {
                d: Reg::a(0),
                s1: Reg::a(0),
                s2: Reg::a(0),
            },
        ));
        assert_eq!(e, Err(PacketError::Full));
    }

    #[test]
    fn multicycle_nop_must_be_alone() {
        let mut p = Packet::at(0);
        p.push(Slot::new(Unit::S1, Op::Nop { count: 5 })).unwrap();
        assert!(p.push(Slot::new(Unit::L1, Op::Nop { count: 1 })).is_err());
        assert_eq!(p.issue_cycles(), 5);
        let mut q = Packet::at(0);
        q.push(Slot::new(
            Unit::L1,
            Op::Add {
                d: Reg::a(1),
                s1: Reg::a(2),
                s2: Reg::a(3),
            },
        ))
        .unwrap();
        assert!(q.push(Slot::new(Unit::S1, Op::Nop { count: 2 })).is_err());
        assert_eq!(q.issue_cycles(), 1);
    }

    #[test]
    fn predicate_register_restriction() {
        let mut p = Packet::at(0);
        p.push(Slot::when(
            Unit::L1,
            Pred::nz(Reg::a(1)),
            Op::Add {
                d: Reg::a(4),
                s1: Reg::a(5),
                s2: Reg::a(6),
            },
        ))
        .unwrap();
        let e = p.push(Slot::when(
            Unit::L2,
            Pred::z(Reg::b(9)),
            Op::Add {
                d: Reg::b(4),
                s1: Reg::b(5),
                s2: Reg::b(6),
            },
        ));
        assert_eq!(e, Err(PacketError::BadPredicate(Reg::b(9))));
    }

    #[test]
    fn sources_and_dest() {
        let op = Op::St {
            w: Width::W,
            s: Reg::a(1),
            base: Reg::b(2),
            woff: 3,
        };
        assert_eq!(op.dest(), None);
        assert_eq!(op.sources(), vec![Reg::a(1), Reg::b(2)]);
        let op = Op::Mvkh {
            d: Reg::a(1),
            imm16: 0xdead,
        };
        assert_eq!(op.dest(), Some(Reg::a(1)));
        assert_eq!(op.sources(), vec![Reg::a(1)], "MVKH reads its low half");
    }

    #[test]
    fn delay_slots_follow_c6x() {
        assert_eq!(Op::B { disp21: 0 }.delay_slots(), 5);
        assert_eq!(
            Op::Ld {
                w: Width::W,
                unsigned: false,
                d: Reg::a(0),
                base: Reg::b(0),
                woff: 0
            }
            .delay_slots(),
            4
        );
        assert_eq!(
            Op::Mpy {
                d: Reg::a(0),
                s1: Reg::a(0),
                s2: Reg::a(0)
            }
            .delay_slots(),
            1
        );
        assert_eq!(
            Op::Add {
                d: Reg::a(0),
                s1: Reg::a(0),
                s2: Reg::a(0)
            }
            .delay_slots(),
            0
        );
    }

    #[test]
    fn display_packet() {
        let mut p = Packet::at(0x100);
        p.push(Slot::new(
            Unit::L1,
            Op::Add {
                d: Reg::a(1),
                s1: Reg::a(2),
                s2: Reg::a(3),
            },
        ))
        .unwrap();
        p.push(Slot::when(
            Unit::S1,
            Pred::z(Reg::b(0)),
            Op::B { disp21: -2 },
        ))
        .unwrap();
        let s = p.to_string();
        assert!(s.contains("ADD A2, A3, A1"));
        assert!(s.contains("|| [!B0] B -8"));
    }
}
