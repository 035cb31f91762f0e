//! Randomized property tests for the assembler: generated
//! straight-line programs must assemble, decode back to the intended
//! instruction sequence, and execute on the golden model without
//! faulting. Cases come from the workspace's deterministic PRNG
//! (the `proptest` crate is unavailable in the offline build).

use cabt_isa::rng::Pcg32;
use cabt_tricore::asm::assemble;
use cabt_tricore::encode::decode_section;
use cabt_tricore::isa::Instr;
use std::fmt::Write as _;

/// One line of straight-line assembly plus the instruction it must
/// decode to.
#[derive(Debug, Clone)]
struct Line {
    text: String,
    check: fn(&Instr) -> bool,
}

fn line(rng: &mut Pcg32) -> Line {
    let dr = |rng: &mut Pcg32| rng.random_range(0..16);
    let ar = |rng: &mut Pcg32| rng.random_range(0..16);
    match rng.below(9) {
        0 => {
            let (d, v) = (dr(rng), rng.random_range(0..128) as i32 - 64);
            Line {
                text: format!("mov %d{d}, {v}"),
                check: |i| matches!(i, Instr::Mov16 { .. }),
            }
        }
        1 => {
            let (d, v) = (dr(rng), rng.random_range(64..32767));
            Line {
                text: format!("mov %d{d}, {v}"),
                check: |i| matches!(i, Instr::Mov { .. }),
            }
        }
        2 => {
            let (d, v) = (dr(rng), rng.random_range(0..65536));
            Line {
                text: format!("movh %d{d}, {v}"),
                check: |i| matches!(i, Instr::Movh { .. }),
            }
        }
        3 => {
            let (d, s1, s2) = (dr(rng), dr(rng), dr(rng));
            Line {
                text: format!("add %d{d}, %d{s1}, %d{s2}"),
                check: |i| matches!(i, Instr::Bin { .. }),
            }
        }
        4 => {
            let (d, s) = (dr(rng), dr(rng));
            Line {
                text: format!("sub %d{d}, %d{s}"),
                check: |i| matches!(i, Instr::Sub16 { .. }),
            }
        }
        5 => {
            let (d, s, v) = (dr(rng), dr(rng), rng.random_range(0..512) as i32 - 256);
            Line {
                text: format!("xor %d{d}, %d{s}, {v}"),
                check: |i| matches!(i, Instr::BinI { .. }),
            }
        }
        6 => {
            let (a, b, v) = (ar(rng), ar(rng), rng.random_range(0..1024) as i32 - 512);
            Line {
                text: format!("lea %a{a}, [%a{b}]{v}"),
                check: |i| matches!(i, Instr::Lea { .. }),
            }
        }
        7 => {
            let (d, a, s1, s2) = (dr(rng), dr(rng), dr(rng), dr(rng));
            Line {
                text: format!("madd %d{d}, %d{a}, %d{s1}, %d{s2}"),
                check: |i| matches!(i, Instr::Madd { .. }),
            }
        }
        _ => {
            let (d, a) = (dr(rng), ar(rng));
            Line {
                text: format!("mov.a %a{a}, %d{d}"),
                check: |i| matches!(i, Instr::MovA { .. }),
            }
        }
    }
}

#[test]
fn straightline_programs_assemble_and_decode() {
    let mut rng = Pcg32::seed_from_u64(0x0a51);
    for _ in 0..96 {
        let lines: Vec<Line> = (0..rng.random_range(1..40))
            .map(|_| line(&mut rng))
            .collect();
        let mut src = String::from(".text\n_start:\n");
        for l in &lines {
            let _ = writeln!(src, "    {}", l.text);
        }
        src.push_str("    debug\n");

        let elf = assemble(&src).expect("assembles");
        let text = elf.section(".text").expect("text section");
        let decoded = decode_section(text.addr, &text.data).expect("decodes");
        assert_eq!(decoded.len(), lines.len() + 1);
        for (ir, l) in decoded.iter().zip(&lines) {
            assert!((l.check)(&ir.1), "`{}` decoded to `{}`", l.text, ir.1);
        }

        // Instruction addresses must be contiguous per encoded sizes.
        let mut expect = text.addr;
        for (addr, i) in &decoded {
            assert_eq!(*addr, expect);
            expect += i.size();
        }

        // The program must run to the halt on the golden model.
        let mut sim = cabt_tricore::sim::Simulator::new(&elf).expect("loads");
        let stats = sim.run(10_000).expect("halts");
        assert_eq!(stats.instructions as usize, lines.len() + 1);
    }
}

#[test]
fn assembled_programs_run_identically_in_both_dispatch_modes() {
    // The same generated programs, executed by the compiled core at a
    // warm-up of 0 and the naive core: every architectural observable
    // must match.
    use cabt_exec::trace::TraceConfig;
    use cabt_tricore::sim::{DispatchMode, Simulator};
    let mut rng = Pcg32::seed_from_u64(0x0a52);
    for _ in 0..48 {
        let lines: Vec<Line> = (0..rng.random_range(1..40))
            .map(|_| line(&mut rng))
            .collect();
        let mut src = String::from(".text\n_start:\n");
        for l in &lines {
            let _ = writeln!(src, "    {}", l.text);
        }
        src.push_str("    debug\n");
        let elf = assemble(&src).expect("assembles");

        let mut fast = Simulator::new(&elf).expect("loads");
        fast.set_trace_config(TraceConfig {
            warmup: 0,
            ..TraceConfig::default()
        });
        let mut naive = Simulator::new(&elf).expect("loads");
        naive.set_dispatch(DispatchMode::Naive);
        let sf = fast.run(10_000).expect("halts");
        let sn = naive.run(10_000).expect("halts");
        assert_eq!(sf, sn, "stats diverged");
        for i in 0..16 {
            assert_eq!(fast.cpu.d(i), naive.cpu.d(i), "d{i}");
            assert_eq!(fast.cpu.a(i), naive.cpu.a(i), "a{i}");
        }
    }
}
