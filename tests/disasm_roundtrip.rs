//! Text ⇄ bytes: every program the repository generates disassembles,
//! one `Instr::at` line per instruction, into source that reassembles
//! to byte-identical `.text`. (`tests/proptests.rs` and the encoder's
//! unit tests pin the other direction, encode ⇄ decode.)

use cabt_isa::elf::{ElfFile, SectionKind};
use cabt_tricore::asm::assemble;
use cabt_tricore::encode::decode_section;
use cabt_workloads::{by_name, known_bad_set, table2_set};
use std::fmt::Write as _;

/// The `(address, bytes)` of every `.text` section of `elf`.
fn text(elf: &ElfFile) -> Vec<(u32, &[u8])> {
    elf.sections
        .iter()
        .filter(|s| s.kind == SectionKind::Text)
        .map(|s| (s.addr, &s.data[..]))
        .collect()
}

/// `elf`'s `.text` as assembler source, each instruction printed at its
/// address.
fn disassemble(elf: &ElfFile) -> String {
    let mut src = String::from(".text\n");
    for (addr, bytes) in text(elf) {
        for (pc, instr) in decode_section(addr, bytes).expect("decodes") {
            let _ = writeln!(src, "    {}", instr.at(pc));
        }
    }
    src
}

/// Assembles `source`, disassembles its `.text` and reassembles that.
fn round_trip(name: &str, source: &str) {
    let elf = assemble(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let listing = disassemble(&elf);
    let again = assemble(&listing).unwrap_or_else(|e| panic!("{name}: {e}\n{listing}"));
    assert_eq!(text(&again), text(&elf), "{name}: .text moved\n{listing}");
}

#[test]
fn registry_programs_reassemble_from_their_disassembly() {
    let names = [
        "gcd",
        "dpcm",
        "fir",
        "ellip",
        "sieve",
        "subband",
        "fibonacci",
        "producer_consumer",
        "mailbox",
    ];
    for name in names {
        round_trip(name, &by_name(name).expect("registry name").source);
    }
    for w in table2_set() {
        round_trip(w.name, &w.source);
    }
}

/// Every known-bad corpus entry that assembles.
#[test]
fn known_bad_programs_reassemble_from_their_disassembly() {
    let mut assembled = 0;
    for k in known_bad_set() {
        if assemble(k.source).is_ok() {
            round_trip(k.name, k.source);
            assembled += 1;
        }
    }
    assert!(assembled > 0, "no known-bad entry assembles");
}

#[test]
fn fuzz_programs_reassemble_from_their_disassembly() {
    for seed in 0..64 {
        round_trip(
            &format!("fuzz seed {seed}"),
            &cabt_fuzz::gen::generate(seed).source(),
        );
    }
}
