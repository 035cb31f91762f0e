//! Binary encoder/decoder for the source ISA.
//!
//! Instructions are a little-endian halfword stream. Bit 0 of the first
//! halfword selects the length: `0` → 16-bit instruction, `1` → 32-bit
//! instruction (as on the real TriCore, where the least significant
//! opcode bit distinguishes short and long formats).
//!
//! 16-bit layout: `op4` in bits `[4:1]`, `ra` in `[8:5]`, `rb` in
//! `[12:9]`; `mov16` replaces `rb` with a 7-bit signed immediate in
//! `[15:9]`.
//!
//! 32-bit layout: `op7` in bits `[7:1]`, `r1` in `[11:8]`, `r2` in
//! `[15:12]`, `r3` in `[19:16]`, `acc` in `[23:20]`, and the wide
//! immediate field in `[31:16]` (`imm16`/`off16`/`disp16`), `[24:16]`
//! (`imm9`), `[25:16]` + post-increment bit 26 (`off10`), or `[31:8]`
//! (`disp24`).

use crate::isa::{AReg, BinOp, Cond, DReg, Instr, LdKind, StKind};
use cabt_isa::{bits, sign_extend};
use std::fmt;

/// Error produced when an instruction's fields do not fit its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    /// The offending instruction, rendered.
    pub instr: String,
    /// Which field was out of range.
    pub field: &'static str,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field {} out of range in `{}`", self.field, self.instr)
    }
}

impl std::error::Error for EncodeError {}

/// Error produced when a halfword stream does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The first halfword of the undecodable instruction.
    pub halfword: u16,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction halfword {:#06x}", self.halfword)
    }
}

impl std::error::Error for DecodeError {}

/// Every ALU operation, in opcode order.
pub(crate) const BINOPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Sll,
    BinOp::Srl,
    BinOp::Sra,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
];

/// Every branch condition, in opcode order.
pub(crate) const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::LtU, Cond::GeU];

fn binop_index(op: BinOp) -> u32 {
    BINOPS
        .iter()
        .position(|&o| o == op)
        .expect("all binops listed") as u32
}

fn cond_index(c: Cond) -> u32 {
    CONDS
        .iter()
        .position(|&o| o == c)
        .expect("all conds listed") as u32
}

fn check(ok: bool, instr: &Instr, field: &'static str) -> Result<(), EncodeError> {
    if ok {
        Ok(())
    } else {
        Err(EncodeError {
            instr: instr.to_string(),
            field,
        })
    }
}

/// Encodes `instr` and appends its bytes (little-endian halfwords) to `out`.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate or displacement does not fit
/// its field (e.g. a `disp24` beyond ±2^23 halfwords).
pub fn encode_into(instr: &Instr, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    let h16 = |op: u32, ra: u32, rb: u32| -> u16 { ((op << 1) | (ra << 5) | (rb << 9)) as u16 };
    let push16 = |out: &mut Vec<u8>, h: u16| out.extend_from_slice(&h.to_le_bytes());
    let push32 = |out: &mut Vec<u8>, w: u32| out.extend_from_slice(&w.to_le_bytes());
    let w32 = |op: u32, r1: u32, r2: u32, rest: u32| -> u32 {
        1 | (op << 1) | (r1 << 8) | (r2 << 12) | rest
    };

    match *instr {
        Instr::Nop16 => push16(out, h16(0, 0, 0)),
        Instr::Debug16 => push16(out, h16(1, 0, 0)),
        Instr::Ret16 => push16(out, h16(2, 0, 0)),
        Instr::Mov16 { d, imm7 } => {
            check((-64..=63).contains(&imm7), instr, "imm7")?;
            push16(out, h16(3, d.0 as u32, 0) | (((imm7 as u16) & 0x7f) << 9));
        }
        Instr::MovRR16 { d, s } => push16(out, h16(4, d.0 as u32, s.0 as u32)),
        Instr::Add16 { d, s } => push16(out, h16(5, d.0 as u32, s.0 as u32)),
        Instr::Sub16 { d, s } => push16(out, h16(6, d.0 as u32, s.0 as u32)),
        Instr::LdW16 { d, a } => push16(out, h16(7, d.0 as u32, a.0 as u32)),
        Instr::StW16 { a, s } => push16(out, h16(8, s.0 as u32, a.0 as u32)),

        Instr::Mov { d, imm16 } => {
            push32(out, w32(1, d.0 as u32, 0, ((imm16 as u16) as u32) << 16));
        }
        Instr::Movh { d, imm16 } => push32(out, w32(2, d.0 as u32, 0, (imm16 as u32) << 16)),
        Instr::MovhA { a, imm16 } => push32(out, w32(3, a.0 as u32, 0, (imm16 as u32) << 16)),
        Instr::Addi { d, s, imm16 } => push32(
            out,
            w32(4, d.0 as u32, s.0 as u32, ((imm16 as u16) as u32) << 16),
        ),
        Instr::Addih { d, s, imm16 } => {
            push32(out, w32(5, d.0 as u32, s.0 as u32, (imm16 as u32) << 16));
        }
        Instr::MovRR { d, s } => push32(out, w32(6, d.0 as u32, s.0 as u32, 0)),
        Instr::MovA { a, s } => push32(out, w32(7, a.0 as u32, s.0 as u32, 0)),
        Instr::MovD { d, a } => push32(out, w32(8, d.0 as u32, a.0 as u32, 0)),
        Instr::MovAA { a, s } => push32(out, w32(9, a.0 as u32, s.0 as u32, 0)),
        Instr::Lea { a, base, off16 } => push32(
            out,
            w32(10, a.0 as u32, base.0 as u32, ((off16 as u16) as u32) << 16),
        ),
        Instr::Bin { op, d, s1, s2 } => push32(
            out,
            w32(
                11 + binop_index(op),
                d.0 as u32,
                s1.0 as u32,
                (s2.0 as u32) << 16,
            ),
        ),
        Instr::BinI { op, d, s1, imm9 } => {
            check((-256..=255).contains(&imm9), instr, "imm9")?;
            push32(
                out,
                w32(
                    22 + binop_index(op),
                    d.0 as u32,
                    s1.0 as u32,
                    ((imm9 as u32) & 0x1ff) << 16,
                ),
            );
        }
        Instr::Madd { d, acc, s1, s2 } => push32(
            out,
            w32(
                33,
                d.0 as u32,
                s1.0 as u32,
                ((s2.0 as u32) << 16) | ((acc.0 as u32) << 20),
            ),
        ),
        Instr::Msub { d, acc, s1, s2 } => push32(
            out,
            w32(
                34,
                d.0 as u32,
                s1.0 as u32,
                ((s2.0 as u32) << 16) | ((acc.0 as u32) << 20),
            ),
        ),
        Instr::Ld {
            kind,
            d,
            base,
            off10,
            postinc,
        } => {
            check((-512..=511).contains(&off10), instr, "off10")?;
            let opc = match kind {
                LdKind::B => 35,
                LdKind::Bu => 36,
                LdKind::H => 37,
                LdKind::Hu => 38,
                LdKind::W => 39,
            };
            let rest = (((off10 as u32) & 0x3ff) << 16) | ((postinc as u32) << 26);
            push32(out, w32(opc, d.0 as u32, base.0 as u32, rest));
        }
        Instr::LdA {
            a,
            base,
            off10,
            postinc,
        } => {
            check((-512..=511).contains(&off10), instr, "off10")?;
            let rest = (((off10 as u32) & 0x3ff) << 16) | ((postinc as u32) << 26);
            push32(out, w32(40, a.0 as u32, base.0 as u32, rest));
        }
        Instr::St {
            kind,
            s,
            base,
            off10,
            postinc,
        } => {
            check((-512..=511).contains(&off10), instr, "off10")?;
            let opc = match kind {
                StKind::B => 41,
                StKind::H => 42,
                StKind::W => 43,
            };
            let rest = (((off10 as u32) & 0x3ff) << 16) | ((postinc as u32) << 26);
            push32(out, w32(opc, s.0 as u32, base.0 as u32, rest));
        }
        Instr::StA {
            s,
            base,
            off10,
            postinc,
        } => {
            check((-512..=511).contains(&off10), instr, "off10")?;
            let rest = (((off10 as u32) & 0x3ff) << 16) | ((postinc as u32) << 26);
            push32(out, w32(44, s.0 as u32, base.0 as u32, rest));
        }
        Instr::J { disp24 } => {
            check((-(1 << 23)..(1 << 23)).contains(&disp24), instr, "disp24")?;
            push32(out, 1 | (45 << 1) | (((disp24 as u32) & 0xff_ffff) << 8));
        }
        Instr::Jl { disp24 } => {
            check((-(1 << 23)..(1 << 23)).contains(&disp24), instr, "disp24")?;
            push32(out, 1 | (46 << 1) | (((disp24 as u32) & 0xff_ffff) << 8));
        }
        Instr::Ji { a } => push32(out, w32(47, a.0 as u32, 0, 0)),
        Instr::Jli { a } => push32(out, w32(48, a.0 as u32, 0, 0)),
        Instr::Jcond {
            cond,
            s1,
            s2,
            disp16,
        } => push32(
            out,
            w32(
                49 + cond_index(cond),
                s1.0 as u32,
                s2.0 as u32,
                ((disp16 as u16) as u32) << 16,
            ),
        ),
        Instr::JcondZ { cond, s1, disp16 } => push32(
            out,
            w32(
                55 + cond_index(cond),
                s1.0 as u32,
                0,
                ((disp16 as u16) as u32) << 16,
            ),
        ),
        Instr::Loop { a, disp16 } => {
            push32(out, w32(61, a.0 as u32, 0, ((disp16 as u16) as u32) << 16));
        }
        Instr::Nop => push32(out, w32(62, 0, 0, 0)),
    }
    Ok(())
}

/// Encodes a single instruction into a fresh byte vector.
///
/// # Errors
///
/// Same as [`encode_into`].
pub fn encode(instr: &Instr) -> Result<Vec<u8>, EncodeError> {
    let mut v = Vec::with_capacity(4);
    encode_into(instr, &mut v)?;
    Ok(v)
}

/// Decodes one instruction from two halfwords (`hi` is ignored for
/// 16-bit instructions). Returns the instruction and its size in bytes.
///
/// # Errors
///
/// Returns [`DecodeError`] for unallocated opcodes.
pub fn decode(lo: u16, hi: u16) -> Result<(Instr, u32), DecodeError> {
    if lo & 1 == 0 {
        let op = bits(lo as u32, 4, 1);
        let ra = bits(lo as u32, 8, 5) as u8;
        let rb = bits(lo as u32, 12, 9) as u8;
        let instr = match op {
            0 => Instr::Nop16,
            1 => Instr::Debug16,
            2 => Instr::Ret16,
            3 => Instr::Mov16 {
                d: DReg(ra),
                imm7: sign_extend(bits(lo as u32, 15, 9), 7) as i8,
            },
            4 => Instr::MovRR16 {
                d: DReg(ra),
                s: DReg(rb),
            },
            5 => Instr::Add16 {
                d: DReg(ra),
                s: DReg(rb),
            },
            6 => Instr::Sub16 {
                d: DReg(ra),
                s: DReg(rb),
            },
            7 => Instr::LdW16 {
                d: DReg(ra),
                a: AReg(rb),
            },
            8 => Instr::StW16 {
                a: AReg(rb),
                s: DReg(ra),
            },
            _ => return Err(DecodeError { halfword: lo }),
        };
        return Ok((instr, 2));
    }

    let w = (lo as u32) | ((hi as u32) << 16);
    let op = bits(w, 7, 1);
    let r1 = bits(w, 11, 8) as u8;
    let r2 = bits(w, 15, 12) as u8;
    let r3 = bits(w, 19, 16) as u8;
    let acc = bits(w, 23, 20) as u8;
    let imm16u = bits(w, 31, 16) as u16;
    let imm16s = imm16u as i16;
    let imm9 = sign_extend(bits(w, 24, 16), 9) as i16;
    let off10 = sign_extend(bits(w, 25, 16), 10) as i16;
    let postinc = bits(w, 26, 26) != 0;
    let disp24 = sign_extend(bits(w, 31, 8), 24);

    let instr = match op {
        1 => Instr::Mov {
            d: DReg(r1),
            imm16: imm16s,
        },
        2 => Instr::Movh {
            d: DReg(r1),
            imm16: imm16u,
        },
        3 => Instr::MovhA {
            a: AReg(r1),
            imm16: imm16u,
        },
        4 => Instr::Addi {
            d: DReg(r1),
            s: DReg(r2),
            imm16: imm16s,
        },
        5 => Instr::Addih {
            d: DReg(r1),
            s: DReg(r2),
            imm16: imm16u,
        },
        6 => Instr::MovRR {
            d: DReg(r1),
            s: DReg(r2),
        },
        7 => Instr::MovA {
            a: AReg(r1),
            s: DReg(r2),
        },
        8 => Instr::MovD {
            d: DReg(r1),
            a: AReg(r2),
        },
        9 => Instr::MovAA {
            a: AReg(r1),
            s: AReg(r2),
        },
        10 => Instr::Lea {
            a: AReg(r1),
            base: AReg(r2),
            off16: imm16s,
        },
        11..=21 => Instr::Bin {
            op: BINOPS[(op - 11) as usize],
            d: DReg(r1),
            s1: DReg(r2),
            s2: DReg(r3),
        },
        22..=32 => Instr::BinI {
            op: BINOPS[(op - 22) as usize],
            d: DReg(r1),
            s1: DReg(r2),
            imm9,
        },
        33 => Instr::Madd {
            d: DReg(r1),
            acc: DReg(acc),
            s1: DReg(r2),
            s2: DReg(r3),
        },
        34 => Instr::Msub {
            d: DReg(r1),
            acc: DReg(acc),
            s1: DReg(r2),
            s2: DReg(r3),
        },
        35 => Instr::Ld {
            kind: LdKind::B,
            d: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        36 => Instr::Ld {
            kind: LdKind::Bu,
            d: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        37 => Instr::Ld {
            kind: LdKind::H,
            d: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        38 => Instr::Ld {
            kind: LdKind::Hu,
            d: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        39 => Instr::Ld {
            kind: LdKind::W,
            d: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        40 => Instr::LdA {
            a: AReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        41 => Instr::St {
            kind: StKind::B,
            s: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        42 => Instr::St {
            kind: StKind::H,
            s: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        43 => Instr::St {
            kind: StKind::W,
            s: DReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        44 => Instr::StA {
            s: AReg(r1),
            base: AReg(r2),
            off10,
            postinc,
        },
        45 => Instr::J { disp24 },
        46 => Instr::Jl { disp24 },
        47 => Instr::Ji { a: AReg(r1) },
        48 => Instr::Jli { a: AReg(r1) },
        49..=54 => Instr::Jcond {
            cond: CONDS[(op - 49) as usize],
            s1: DReg(r1),
            s2: DReg(r2),
            disp16: imm16s,
        },
        55..=60 => Instr::JcondZ {
            cond: CONDS[(op - 55) as usize],
            s1: DReg(r1),
            disp16: imm16s,
        },
        61 => Instr::Loop {
            a: AReg(r1),
            disp16: imm16s,
        },
        62 => Instr::Nop,
        _ => return Err(DecodeError { halfword: lo }),
    };
    Ok((instr, 4))
}

/// Decodes an entire code section into `(address, instruction)` pairs.
///
/// # Errors
///
/// Returns [`DecodeError`] at the first illegal instruction word; a
/// truncated trailing 32-bit instruction also fails.
pub fn decode_section(base: u32, data: &[u8]) -> Result<Vec<(u32, Instr)>, DecodeError> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 1 < data.len() {
        let lo = u16::from_le_bytes([data[off], data[off + 1]]);
        let hi = if off + 3 < data.len() {
            u16::from_le_bytes([data[off + 2], data[off + 3]])
        } else if lo & 1 == 1 {
            return Err(DecodeError { halfword: lo });
        } else {
            0
        };
        let (instr, size) = decode(lo, hi)?;
        out.push((base + off as u32, instr));
        off += size as usize;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let bytes = encode(&i).unwrap();
        assert_eq!(bytes.len() as u32, i.size(), "size mismatch for {i}");
        let lo = u16::from_le_bytes([bytes[0], bytes[1]]);
        let hi = if bytes.len() == 4 {
            u16::from_le_bytes([bytes[2], bytes[3]])
        } else {
            0
        };
        let (back, size) = decode(lo, hi).unwrap();
        assert_eq!(back, i, "round-trip mismatch");
        assert_eq!(size, i.size());
    }

    #[test]
    fn roundtrip_representative_instructions() {
        use Instr::*;
        let cases = vec![
            Nop16,
            Debug16,
            Ret16,
            Mov16 {
                d: DReg(7),
                imm7: -64,
            },
            Mov16 {
                d: DReg(15),
                imm7: 63,
            },
            MovRR16 {
                d: DReg(1),
                s: DReg(14),
            },
            Add16 {
                d: DReg(0),
                s: DReg(15),
            },
            Sub16 {
                d: DReg(9),
                s: DReg(3),
            },
            LdW16 {
                d: DReg(4),
                a: AReg(12),
            },
            StW16 {
                a: AReg(2),
                s: DReg(8),
            },
            Mov {
                d: DReg(3),
                imm16: -32768,
            },
            Movh {
                d: DReg(3),
                imm16: 0xd000,
            },
            MovhA {
                a: AReg(0),
                imm16: 0xf000,
            },
            Addi {
                d: DReg(1),
                s: DReg(2),
                imm16: -1,
            },
            Addih {
                d: DReg(1),
                s: DReg(2),
                imm16: 0xffff,
            },
            MovRR {
                d: DReg(0),
                s: DReg(15),
            },
            MovA {
                a: AReg(5),
                s: DReg(6),
            },
            MovD {
                d: DReg(6),
                a: AReg(5),
            },
            MovAA {
                a: AReg(1),
                s: AReg(2),
            },
            Lea {
                a: AReg(4),
                base: AReg(4),
                off16: -4096,
            },
            Madd {
                d: DReg(0),
                acc: DReg(1),
                s1: DReg(2),
                s2: DReg(3),
            },
            Msub {
                d: DReg(15),
                acc: DReg(14),
                s1: DReg(13),
                s2: DReg(12),
            },
            Ld {
                kind: LdKind::W,
                d: DReg(2),
                base: AReg(3),
                off10: 511,
                postinc: false,
            },
            Ld {
                kind: LdKind::Bu,
                d: DReg(2),
                base: AReg(3),
                off10: -512,
                postinc: true,
            },
            LdA {
                a: AReg(1),
                base: AReg(10),
                off10: 8,
                postinc: false,
            },
            St {
                kind: StKind::H,
                s: DReg(0),
                base: AReg(15),
                off10: -2,
                postinc: true,
            },
            StA {
                s: AReg(11),
                base: AReg(10),
                off10: 0,
                postinc: false,
            },
            J { disp24: -(1 << 23) },
            Jl {
                disp24: (1 << 23) - 1,
            },
            Ji { a: AReg(11) },
            Jli { a: AReg(3) },
            Jcond {
                cond: Cond::LtU,
                s1: DReg(1),
                s2: DReg(2),
                disp16: -30000,
            },
            JcondZ {
                cond: Cond::Ne,
                s1: DReg(9),
                disp16: 32767,
            },
            Loop {
                a: AReg(6),
                disp16: -8,
            },
            Nop,
        ];
        for c in cases {
            roundtrip(c);
        }
    }

    #[test]
    fn roundtrip_all_binops() {
        for op in BINOPS {
            roundtrip(Instr::Bin {
                op,
                d: DReg(1),
                s1: DReg(2),
                s2: DReg(3),
            });
            roundtrip(Instr::BinI {
                op,
                d: DReg(1),
                s1: DReg(2),
                imm9: -200,
            });
        }
        for cond in CONDS {
            roundtrip(Instr::Jcond {
                cond,
                s1: DReg(0),
                s2: DReg(1),
                disp16: 12,
            });
            roundtrip(Instr::JcondZ {
                cond,
                s1: DReg(0),
                disp16: -12,
            });
        }
        for kind in [LdKind::B, LdKind::Bu, LdKind::H, LdKind::Hu, LdKind::W] {
            roundtrip(Instr::Ld {
                kind,
                d: DReg(5),
                base: AReg(6),
                off10: 16,
                postinc: true,
            });
        }
        for kind in [StKind::B, StKind::H, StKind::W] {
            roundtrip(Instr::St {
                kind,
                s: DReg(5),
                base: AReg(6),
                off10: 16,
                postinc: false,
            });
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        assert!(encode(&Instr::Mov16 {
            d: DReg(0),
            imm7: 64
        })
        .is_err());
        assert!(encode(&Instr::BinI {
            op: BinOp::Add,
            d: DReg(0),
            s1: DReg(0),
            imm9: 256
        })
        .is_err());
        assert!(encode(&Instr::Ld {
            kind: LdKind::W,
            d: DReg(0),
            base: AReg(0),
            off10: 512,
            postinc: false
        })
        .is_err());
        assert!(encode(&Instr::J { disp24: 1 << 23 }).is_err());
    }

    #[test]
    fn illegal_opcodes_fail_decode() {
        // 16-bit opcode 15 is unallocated.
        assert!(decode(15 << 1, 0).is_err());
        // 32-bit opcode 127 is unallocated.
        assert!(decode(1 | (127 << 1), 0).is_err());
    }

    #[test]
    fn decode_section_walks_mixed_lengths() {
        let prog = vec![
            Instr::Mov16 {
                d: DReg(1),
                imm7: 5,
            },
            Instr::Movh {
                d: DReg(2),
                imm16: 0x1234,
            },
            Instr::Add16 {
                d: DReg(1),
                s: DReg(2),
            },
            Instr::Debug16,
        ];
        let mut bytes = Vec::new();
        for i in &prog {
            encode_into(i, &mut bytes).unwrap();
        }
        let decoded = decode_section(0x8000_0000, &bytes).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[0], (0x8000_0000, prog[0]));
        assert_eq!(decoded[1], (0x8000_0002, prog[1]));
        assert_eq!(decoded[2], (0x8000_0006, prog[2]));
        assert_eq!(decoded[3], (0x8000_0008, prog[3]));
    }

    #[test]
    fn decode_section_rejects_truncated_tail() {
        let mut bytes = encode(&Instr::Nop).unwrap();
        bytes.truncate(2); // half of a 32-bit instruction
        assert!(decode_section(0, &bytes).is_err());
    }
}
