//! Pins of the source-to-image path: workload generation and the
//! assembler.
//!
//! Every session starts from assembly text that `cabt-workloads`
//! generates and `cabt_tricore::asm::assemble` turns into an ELF image.
//! The digests below cover the generated source and the serialized ELF
//! bytes of every program the repository ships or measures, so a change
//! to either layer that moves a single byte fails here. A second table
//! pins the (line, message) pair of the assembler's errors on malformed
//! sources, including which of two errors in one file is reported.

use cabt_exec::Fingerprint;
use cabt_isa::elf::ElfFile;
use cabt_tricore::asm::assemble;
use cabt_workloads::{by_name, dpcm, ellip, fir, gcd, known_bad_set, sieve, subband, table2_set};

/// Every name `by_name` resolves.
const REGISTRY: [&str; 9] = [
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

/// A group of programs: name, source digest and ELF digest.
struct Pin {
    group: &'static str,
    source: u64,
    elf: u64,
}

const PINS: [Pin; 6] = [
    Pin {
        group: "registry",
        source: 0x0be5_c443_3e62_50a8,
        elf: 0x5d1e_bcef_42fe_5727,
    },
    Pin {
        group: "table2",
        source: 0xf401_8261_181c_5097,
        elf: 0xa754_8298_d34e_d971,
    },
    Pin {
        group: "fig5-prototype",
        source: 0x6419_a3ef_cb73_ea38,
        elf: 0xd89b_18a1_c6a0_11e7,
    },
    Pin {
        group: "fig5-board",
        source: 0x096d_9e8e_5ec5_3c5b,
        elf: 0xeecc_fb95_30f8_39d0,
    },
    Pin {
        group: "known-bad",
        source: 0x3dca_046e_fc79_4494,
        elf: 0xc9a4_09e5_ad30_ba55,
    },
    Pin {
        group: "fuzz",
        source: 0xd1a2_4e65_82c6_237f,
        elf: 0x7714_47d9_8ee8_43cb,
    },
];

/// The six Fig. 5 programs at the sizes the repository benchmark runs
/// them: `paper_cache` on the prototype, `golden_ref` on the board.
fn fig5(board: bool, seed: u64) -> Vec<String> {
    let jitter = (seed % 16) as u32;
    let set = if board {
        vec![
            gcd(8000, seed),
            dpcm(32_000, seed),
            fir(16, 12_000, seed),
            ellip(16_000, seed),
            sieve(29_980 + jitter),
            subband(24_000, seed),
        ]
    } else {
        vec![
            gcd(320, seed),
            dpcm(7200, seed),
            fir(16, 1200, seed),
            ellip(2880, seed),
            sieve(2600 + jitter),
            subband(3600, seed),
        ]
    };
    set.into_iter().map(|w| w.source).collect()
}

fn group_sources(group: &str) -> Vec<String> {
    match group {
        "registry" => REGISTRY
            .iter()
            .map(|n| by_name(n).expect("registry name resolves").source)
            .collect(),
        "table2" => table2_set().into_iter().map(|w| w.source).collect(),
        "fig5-prototype" => (1..=3).flat_map(|s| fig5(false, s)).collect(),
        "fig5-board" => (1..=3).flat_map(|s| fig5(true, s)).collect(),
        "known-bad" => known_bad_set()
            .iter()
            .map(|k| k.source.to_string())
            .collect(),
        "fuzz" => (0..64)
            .map(|seed| cabt_fuzz::gen::generate(seed).source())
            .collect(),
        other => panic!("unknown group {other}"),
    }
}

fn mix_len_prefixed(fp: &mut Fingerprint, bytes: &[u8]) {
    fp.mix_u64(bytes.len() as u64);
    fp.mix_bytes(bytes);
}

/// Source and ELF digests of one group, in group order.
fn digests(group: &str) -> (u64, u64) {
    let (mut src, mut elf) = (Fingerprint::new(), Fingerprint::new());
    for (i, source) in group_sources(group).iter().enumerate() {
        mix_len_prefixed(&mut src, source.as_bytes());
        let image: ElfFile =
            assemble(source).unwrap_or_else(|e| panic!("{group}[{i}] fails to assemble: {e}"));
        let bytes = image
            .to_bytes()
            .unwrap_or_else(|e| panic!("{group}[{i}] fails to serialize: {e}"));
        mix_len_prefixed(&mut elf, &bytes);
    }
    (src.digest(), elf.digest())
}

#[test]
fn generated_sources_and_images_are_pinned() {
    let mut moved = Vec::new();
    for pin in &PINS {
        let (source, elf) = digests(pin.group);
        if (source, elf) != (pin.source, pin.elf) {
            moved.push(format!(
                "{}: source {source:#018x} (pinned {:#018x}), elf {elf:#018x} (pinned {:#018x})",
                pin.group, pin.source, pin.elf
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "source-to-image output moved:\n  {}",
        moved.join("\n  ")
    );
}

/// Malformed sources and the (line, message) the assembler reports.
const MALFORMED: [(&str, u32, &str); 23] = [
    (".text\nmov %d16, 1\n", 2, "bad register `%d16`"),
    (
        ".text\nld.w %d1, [%a2\n",
        2,
        "missing `]` in memory operand",
    ),
    (".text\nmovh.a %a2, hi:buf+x\n", 2, "bad offset in `buf+x`"),
    (".text\nj nowhere\n", 2, "undefined symbol `nowhere`"),
    (".text\nx:\nnop\nx: debug\n", 4, "duplicate label `x`"),
    (
        ".text\n.word 1\n",
        2,
        "data directives are not allowed in .text",
    ),
    (".data\nnop\n", 2, "instructions are only allowed in .text"),
    (
        ".text\naddi %d0, %d1, 40000\n",
        2,
        "addi immediate 40000 out of range [-32768, 32767]",
    ),
    (".data\n.align 3\n", 2, ".align requires a power of two"),
    (".bss\n.space -1\n", 2, "bad .space value"),
    (
        ".text\n.frobnicate 1\n",
        2,
        "unknown directive `.frobnicate`",
    ),
    (".text\nfrob %d0\n", 2, "unknown mnemonic `frob`"),
    (".data\n.word 1,,2\n", 2, "empty operand"),
    (".data\n.word 1, 2,\n", 2, "empty operand"),
    (
        ".text\nmovh %d0, hi:%d1\n",
        2,
        "`hi:` needs a symbol or number",
    ),
    (".data\n.word 1 2\n", 2, "bad operand `1 2`"),
    // Operands that parse but are not values fail where they are evaluated.
    (".data\n.word %d1\n", 2, "expected an immediate or symbol"),
    (
        ".data\n.word lo:hi:[%a2]\n",
        2,
        "`hi:` needs a symbol or number",
    ),
    (
        ".text\nld.w %d1, [%a2][%a3]0\n",
        2,
        "expected an immediate or symbol",
    ),
    (
        ".text\nlea %a2, [%a2]%d1, 4\n",
        2,
        "expected 2 operands, found 3",
    ),
    // A layout error on a later line wins over an unresolved symbol.
    (
        ".data\n.word nowhere\n.text\nbogus\n",
        4,
        "unknown mnemonic `bogus`",
    ),
    // Resolution errors come in source order.
    (
        ".text\nj later\n.data\n.word 1, missing\n.text\nlater: j gone\n",
        4,
        "undefined symbol `missing`",
    ),
    (".data\n.half 1\n.byte hi:\n", 3, "empty operand"),
];

#[test]
fn malformed_sources_keep_their_errors() {
    let mut wrong = Vec::new();
    for (src, line, msg) in MALFORMED {
        match assemble(src) {
            Ok(_) => wrong.push(format!("{src:?}: assembled")),
            Err(e) if (e.line, e.msg.as_str()) == (line, msg) => {}
            Err(e) => wrong.push(format!("{src:?}: got ({}, {:?})", e.line, e.msg)),
        }
    }
    assert!(wrong.is_empty(), "errors moved:\n  {}", wrong.join("\n  "));
}
