//! Randomized property tests over the core data structures and
//! invariants: memory, instruction encodings, ELF images, the cache
//! model, the scheduler, and whole-program translation of generated
//! straight-line code.
//!
//! Cases are generated with the workspace's deterministic PRNG
//! ([`cabt_isa::rng::Pcg32`]) — the container builds offline, so the
//! `proptest` crate is unavailable; fixed seeds keep every run
//! reproducible.

use cabt_isa::elf::SectionKind;
use cabt_isa::rng::Pcg32;
use cabt_tricore::asm::{assemble, TEXT_BASE};
use cabt_tricore::encode::{decode, encode};
use cabt_tricore::isa::{AReg, BinOp, Cond, DReg, Instr, LdKind, StKind};

const CASES: u32 = 256;

fn dreg(rng: &mut Pcg32) -> DReg {
    DReg(rng.random_range(0..16) as u8)
}

fn areg(rng: &mut Pcg32) -> AReg {
    AReg(rng.random_range(0..16) as u8)
}

fn binop(rng: &mut Pcg32) -> BinOp {
    [
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
    ][rng.below(11)]
}

fn cond(rng: &mut Pcg32) -> Cond {
    [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::LtU, Cond::GeU][rng.below(6)]
}

fn ldkind(rng: &mut Pcg32) -> LdKind {
    [LdKind::B, LdKind::Bu, LdKind::H, LdKind::Hu, LdKind::W][rng.below(5)]
}

fn stkind(rng: &mut Pcg32) -> StKind {
    [StKind::B, StKind::H, StKind::W][rng.below(3)]
}

fn any_i16(rng: &mut Pcg32) -> i16 {
    rng.next_u32() as u16 as i16
}

fn any_u16(rng: &mut Pcg32) -> u16 {
    rng.next_u32() as u16
}

fn disp24(rng: &mut Pcg32) -> i32 {
    rng.random_range(0..(1 << 24)) as i32 - (1 << 23)
}

/// Any encodable instruction.
fn instr(rng: &mut Pcg32) -> Instr {
    match rng.below(26) {
        0 => Instr::Nop16,
        1 => Instr::Debug16,
        2 => Instr::Ret16,
        3 => Instr::Mov16 {
            d: dreg(rng),
            imm7: rng.random_range(0..128) as i8 - 64,
        },
        4 => Instr::MovRR16 {
            d: dreg(rng),
            s: dreg(rng),
        },
        5 => Instr::Add16 {
            d: dreg(rng),
            s: dreg(rng),
        },
        6 => Instr::Sub16 {
            d: dreg(rng),
            s: dreg(rng),
        },
        7 => Instr::LdW16 {
            d: dreg(rng),
            a: areg(rng),
        },
        8 => Instr::StW16 {
            a: areg(rng),
            s: dreg(rng),
        },
        9 => Instr::Mov {
            d: dreg(rng),
            imm16: any_i16(rng),
        },
        10 => Instr::Movh {
            d: dreg(rng),
            imm16: any_u16(rng),
        },
        11 => Instr::MovhA {
            a: areg(rng),
            imm16: any_u16(rng),
        },
        12 => Instr::Addi {
            d: dreg(rng),
            s: dreg(rng),
            imm16: any_i16(rng),
        },
        13 => Instr::Addih {
            d: dreg(rng),
            s: dreg(rng),
            imm16: any_u16(rng),
        },
        14 => Instr::Lea {
            a: areg(rng),
            base: areg(rng),
            off16: any_i16(rng),
        },
        15 => Instr::Bin {
            op: binop(rng),
            d: dreg(rng),
            s1: dreg(rng),
            s2: dreg(rng),
        },
        16 => Instr::BinI {
            op: binop(rng),
            d: dreg(rng),
            s1: dreg(rng),
            imm9: rng.random_range(0..512) as i16 - 256,
        },
        17 => Instr::Madd {
            d: dreg(rng),
            acc: dreg(rng),
            s1: dreg(rng),
            s2: dreg(rng),
        },
        18 => Instr::Ld {
            kind: ldkind(rng),
            d: dreg(rng),
            base: areg(rng),
            off10: rng.random_range(0..1024) as i16 - 512,
            postinc: rng.below(2) == 0,
        },
        19 => Instr::St {
            kind: stkind(rng),
            s: dreg(rng),
            base: areg(rng),
            off10: rng.random_range(0..1024) as i16 - 512,
            postinc: rng.below(2) == 0,
        },
        20 => Instr::J {
            disp24: disp24(rng),
        },
        21 => Instr::Jl {
            disp24: disp24(rng),
        },
        22 => Instr::Ji { a: areg(rng) },
        23 => Instr::Jcond {
            cond: cond(rng),
            s1: dreg(rng),
            s2: dreg(rng),
            disp16: any_i16(rng),
        },
        24 => Instr::JcondZ {
            cond: cond(rng),
            s1: dreg(rng),
            disp16: any_i16(rng),
        },
        _ => Instr::Loop {
            a: areg(rng),
            disp16: any_i16(rng),
        },
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = Pcg32::seed_from_u64(0x0701);
    for _ in 0..CASES {
        let i = instr(&mut rng);
        let bytes = encode(&i).expect("valid fields by construction");
        assert_eq!(bytes.len() as u32, i.size());
        let lo = u16::from_le_bytes([bytes[0], bytes[1]]);
        let hi = if bytes.len() == 4 {
            u16::from_le_bytes([bytes[2], bytes[3]])
        } else {
            0
        };
        let (back, size) = decode(lo, hi).expect("decodes");
        assert_eq!(back, i);
        assert_eq!(size, i.size());
    }
}

/// Text ⇄ bytes for single instructions: what `Instr::at` prints
/// assembles to the instruction's own encoding — including the long
/// forms that share a short form's text (`nop32`, `mov32`, `ld.w32`,
/// `st.w32`), which `instr` draws rarely or never.
#[test]
fn printed_instructions_reassemble_to_their_encoding() {
    let reassembles = |i: Instr| {
        let src = format!(".text\n    {}\n", i.at(TEXT_BASE));
        let elf = assemble(&src).unwrap_or_else(|e| panic!("{i:?}: `{src}`: {e}"));
        let text = elf.sections.iter().find(|s| s.kind == SectionKind::Text);
        let bytes = encode(&i).expect("valid fields by construction");
        assert_eq!(
            text.map(|s| &s.data[..]),
            Some(&bytes[..]),
            "{i:?}: `{src}`"
        );
    };
    let mut rng = Pcg32::seed_from_u64(0x070a);
    for _ in 0..CASES {
        reassembles(instr(&mut rng));
    }
    let (d, a) = (DReg(3), AReg(4));
    for imm16 in [-64, 0, 63] {
        reassembles(Instr::Mov { d, imm16 });
    }
    for i in [
        Instr::Nop16,
        Instr::Nop,
        Instr::MovRR { d, s: DReg(5) },
        Instr::Ld {
            kind: LdKind::W,
            d,
            base: a,
            off10: 0,
            postinc: false,
        },
        Instr::St {
            kind: StKind::W,
            s: d,
            base: a,
            off10: 0,
            postinc: false,
        },
    ] {
        reassembles(i);
    }
}

#[test]
fn memory_behaves_like_a_map() {
    let mut rng = Pcg32::seed_from_u64(0x0702);
    for _ in 0..CASES {
        let mut mem = cabt_isa::mem::Memory::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..rng.random_range(1..200) {
            let addr = rng.next_u32() & 0xffff;
            let val = rng.next_u32() as u8;
            if rng.below(2) == 0 {
                mem.write_u8(addr, val).unwrap();
                model.insert(addr, val);
            } else {
                let got = mem.read_u8(addr).unwrap();
                assert_eq!(got, *model.get(&addr).unwrap_or(&0));
            }
        }
    }
}

#[test]
fn memory_word_halfword_byte_consistency() {
    let mut rng = Pcg32::seed_from_u64(0x0703);
    for _ in 0..CASES {
        let addr = rng.random_range(0..0xfff0) & !3;
        let value = rng.next_u32();
        let mut mem = cabt_isa::mem::Memory::new();
        mem.write_u32(addr, value).unwrap();
        let lo = mem.read_u16(addr).unwrap() as u32;
        let hi = mem.read_u16(addr + 2).unwrap() as u32;
        assert_eq!(lo | (hi << 16), value);
        let b0 = mem.read_u8(addr).unwrap() as u32;
        assert_eq!(b0, value & 0xff);
    }
}

#[test]
fn elf_round_trip() {
    use cabt_isa::elf::{ElfFile, Section, EM_TRICORE};
    let mut rng = Pcg32::seed_from_u64(0x0704);
    for _ in 0..CASES {
        let text: Vec<u8> = (0..rng.below(128)).map(|_| rng.next_u32() as u8).collect();
        let data: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u32() as u8).collect();
        let bss = rng.random_range(0..4096);
        let entry = rng.next_u32();
        let mut elf = ElfFile::new(EM_TRICORE, entry);
        elf.sections.push(Section::text(0x8000_0000, text));
        elf.sections.push(Section::data(0xd000_0000, data));
        if bss > 0 {
            elf.sections.push(Section::bss(0xd100_0000, bss));
        }
        let bytes = elf.to_bytes().unwrap();
        let back = ElfFile::parse(&bytes).unwrap();
        assert_eq!(back, elf);
    }
}

#[test]
fn generated_cache_state_matches_golden() {
    use cabt_core::icache::{initial_state, reference_access, CacheLayout};
    use cabt_tricore::arch::{CacheConfig, CacheSim};
    let mut rng = Pcg32::seed_from_u64(0x0705);
    for _ in 0..CASES {
        let cfg = CacheConfig::default();
        let layout = CacheLayout { cfg, base: 0 };
        let mut state = initial_state(&layout);
        let mut golden = CacheSim::new(cfg);
        for _ in 0..rng.random_range(1..300) {
            let addr = 0x8000_0000 + (rng.random_range(0..0x4000) & !1);
            assert_eq!(
                reference_access(&layout, &mut state, addr),
                golden.access(addr),
                "divergence at {addr:#x}"
            );
        }
    }
}

#[test]
fn scheduler_respects_dependences() {
    use cabt_core::sched::{Item, Scheduler, TOp};
    use cabt_vliw::isa::{Op, Reg};
    let mut rng = Pcg32::seed_from_u64(0x0706);
    for _ in 0..CASES {
        let mut s = Scheduler::new();
        for _ in 0..rng.random_range(1..40) {
            s.push(Item::Op(TOp::new(Op::Add {
                d: Reg::a(16 + rng.random_range(0..8) as u8),
                s1: Reg::a(16 + rng.random_range(0..8) as u8),
                s2: Reg::a(16 + rng.random_range(0..8) as u8),
            })))
            .unwrap();
        }
        let sched = s.finish();
        // Invariant the packer guarantees: no two slots in a row write
        // the same register, and any reader of a register is in a row at
        // least one past its last writer row.
        let mut last_writer_row: std::collections::HashMap<u8, usize> = Default::default();
        for (row_idx, row) in sched.rows.iter().enumerate() {
            let mut written_here = std::collections::HashSet::new();
            for slot in row {
                for src in slot.op.sources() {
                    if let Some(&w) = last_writer_row.get(&(src.index() as u8)) {
                        assert!(row_idx > w, "read of in-flight value");
                    }
                }
                if let Some(d) = slot.op.dest() {
                    assert!(written_here.insert(d), "double write in one packet");
                }
            }
            for slot in row {
                if let Some(d) = slot.op.dest() {
                    last_writer_row.insert(d.index() as u8, row_idx);
                }
            }
        }
    }
}

#[test]
fn straightline_translation_is_exact() {
    let mut rng = Pcg32::seed_from_u64(0x0707);
    for _ in 0..64 {
        // Generate a random straight-line program over d4..d7, run it on
        // the golden model and through the full translation pipeline at
        // the static level: results and generated cycles must agree
        // exactly (one block, no dynamic effects except the cold cache).
        use std::fmt::Write as _;
        let mut src = String::from(".text\n_start:\n");
        for r in 4..8 {
            let _ = writeln!(src, "    mov %d{r}, {}", r * 3);
        }
        for _ in 0..rng.random_range(2..20) {
            let imm = rng.random_range(0..120) as i32 - 60;
            let op = rng.random_range(0..4) as u8;
            let r = 4 + (imm.unsigned_abs() % 4) as u8;
            let s = 4 + op;
            match op % 3 {
                0 => {
                    let _ = writeln!(src, "    add %d{r}, %d{r}, %d{s}");
                }
                1 => {
                    let _ = writeln!(src, "    xor %d{r}, %d{s}, {imm}");
                }
                _ => {
                    let _ = writeln!(src, "    mul %d{r}, %d{r}, %d{s}");
                }
            }
        }
        src.push_str("    debug\n");

        let elf = cabt_tricore::asm::assemble(&src).unwrap();
        let mut gold = cabt_tricore::sim::Simulator::new(&elf).unwrap();
        gold.disable_icache();
        let gstats = gold.run(100_000).unwrap();

        let t = cabt_core::Translator::new(cabt_core::DetailLevel::Static)
            .translate(&elf)
            .unwrap();
        let mut p =
            cabt_platform::Platform::new(&t, cabt_platform::PlatformConfig::unlimited()).unwrap();
        let s = p.run(10_000_000).unwrap();

        for i in 4..8u8 {
            assert_eq!(
                p.sim()
                    .reg(cabt_core::regbind::dreg(cabt_tricore::isa::DReg(i))),
                gold.cpu.d(i)
            );
        }
        // Single basic block, no conditionals, cache disabled on the
        // golden side: the static prediction is exact.
        assert_eq!(s.total_generated(), gstats.cycles);
    }
}
