//! Differential proof that the compiled dispatch cores, stepping one
//! instruction or packet at a time (a warm-up of 0), are bit-identical
//! to the retained naive interpreters — the acceptance gate of the
//! decode-once refactor.
//!
//! Both engines (the TriCore golden model and the VLIW target core) are
//! run on both dispatch cores over every bundled workload and over
//! randomly generated programs; registers, data memory, cycle counts,
//! statistics and stop/fault behaviour must match exactly. One
//! lockstep variant compares state after *every* instruction, so a
//! divergence is pinned to the step that introduced it.

use cabt::prelude::*;
use cabt_exec::trace::TraceConfig;
use cabt_exec::ExecutionEngine;
use cabt_isa::elf::{ElfFile, SectionKind};
use cabt_isa::rng::Pcg32;
use cabt_tricore::sim::{DispatchMode, SimError, Simulator};
use cabt_vliw::sim::{VliwDispatch, VliwSim};
use std::fmt::Write as _;

/// All bundled workloads (the Fig. 5 set plus the Table 2 set).
fn all_workloads() -> Vec<Workload> {
    let mut ws = cabt::workloads::fig5_set();
    ws.extend(cabt::workloads::table2_set());
    ws
}

/// A warm-up of 0: the golden compiled core keeps no trace state and
/// steps one instruction at a time (the VLIW compiled core always steps
/// one packet).
fn no_traces() -> TraceConfig {
    TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    }
}

/// The golden model on `mode`, the compiled core at a warm-up of 0.
fn golden(elf: &ElfFile, mode: DispatchMode) -> Simulator {
    let mut sim = Simulator::new(elf).expect("loads");
    sim.set_trace_config(no_traces());
    sim.set_dispatch(mode);
    sim
}

/// Asserts every observable of two golden-model runs is equal:
/// architectural registers, pc, run statistics (cycles included), halt
/// flag, and the full contents of the writable data/bss sections.
fn assert_tricore_equal(name: &str, fast: &mut Simulator, naive: &mut Simulator) {
    assert_eq!(fast.stats(), naive.stats(), "{name}: stats diverged");
    assert_eq!(fast.is_halted(), naive.is_halted(), "{name}: halt flag");
    assert_eq!(fast.cpu.pc, naive.cpu.pc, "{name}: pc");
    for i in 0..16 {
        assert_eq!(fast.cpu.d(i), naive.cpu.d(i), "{name}: d{i}");
        assert_eq!(fast.cpu.a(i), naive.cpu.a(i), "{name}: a{i}");
    }
}

/// Compares the writable memory image of both runs over the ELF's
/// data/bss section ranges.
fn assert_memory_equal(name: &str, elf: &ElfFile, a: &mut Simulator, b: &mut Simulator) {
    for s in &elf.sections {
        if matches!(s.kind, SectionKind::Data | SectionKind::Bss) && s.size > 0 {
            let ma = a.read_mem(s.addr, s.size as usize).expect("readable");
            let mb = b.read_mem(s.addr, s.size as usize).expect("readable");
            assert_eq!(ma, mb, "{name}: section {} contents diverged", s.name);
        }
    }
}

#[test]
fn tricore_predecoded_is_lockstep_equivalent_on_all_workloads() {
    for w in all_workloads() {
        let elf = w.elf().expect("assembles");
        let mut fast = golden(&elf, DispatchMode::Trace);
        let mut naive = golden(&elf, DispatchMode::Naive);
        let rf = fast.run(500_000_000).expect("halts");
        let rn = naive.run(500_000_000).expect("halts");
        assert_eq!(rf, rn, "{}: final stats", w.name);
        assert_eq!(fast.cpu.d(2), w.expected_d2, "{}: checksum", w.name);
        assert_tricore_equal(w.name, &mut fast, &mut naive);
        assert_memory_equal(w.name, &elf, &mut fast, &mut naive);
    }
}

#[test]
fn tricore_modes_agree_after_every_single_step() {
    // Per-step lockstep on the two most control-heavy workloads: any
    // divergence is caught at the exact instruction that caused it.
    for w in [cabt::workloads::gcd(6, 11), cabt::workloads::sieve(60)] {
        let elf = w.elf().expect("assembles");
        let mut fast = golden(&elf, DispatchMode::Trace);
        let mut naive = golden(&elf, DispatchMode::Naive);
        let mut steps = 0u64;
        while !fast.is_halted() && steps < 20_000 {
            let inf = fast.step().expect("fast steps");
            let inn = naive.step().expect("naive steps");
            assert_eq!(inf, inn, "{}: instruction diverged at step {steps}", w.name);
            assert_tricore_equal(w.name, &mut fast, &mut naive);
            steps += 1;
        }
        assert!(fast.is_halted(), "{}: did not halt in bounds", w.name);
        assert!(naive.is_halted());
    }
}

#[test]
fn vliw_predecoded_is_lockstep_equivalent_on_all_workloads() {
    for w in all_workloads() {
        let elf = w.elf().expect("assembles");
        for level in [DetailLevel::Static, DetailLevel::Cache] {
            let t = Translator::new(level).translate(&elf).expect("translates");
            let run = |mode: VliwDispatch| {
                let mut p = Platform::new(&t, PlatformConfig::unlimited()).expect("builds");
                p.set_dispatch(mode);
                let stats = p.run(5_000_000_000).expect("halts");
                let regs: Vec<u32> = (0..64).map(|i| p.sim().read_reg_index(i)).collect();
                let vstats = p.sim().stats();
                (stats, regs, vstats)
            };
            let (sf, rf, vf) = run(VliwDispatch::Trace);
            let (sn, rn, vn) = run(VliwDispatch::Naive);
            assert_eq!(sf, sn, "{} level {level}: platform stats diverged", w.name);
            assert_eq!(vf, vn, "{} level {level}: engine stats diverged", w.name);
            assert_eq!(rf, rn, "{} level {level}: register file diverged", w.name);
        }
    }
}

#[test]
fn random_programs_agree_in_both_modes() {
    // asm_prop-style generated programs with data flow, loops and
    // calls; both dispatch cores must agree on everything.
    let mut rng = Pcg32::seed_from_u64(0xd1ff);
    for case in 0..40 {
        let mut src = String::from(".text\n_start:\n");
        // Random ALU prelude.
        for _ in 0..rng.random_range(1..12) {
            let d = rng.random_range(0..8);
            let s = rng.random_range(0..8);
            match rng.below(4) {
                0 => {
                    let _ = writeln!(
                        src,
                        "    mov %d{d}, {}",
                        rng.random_range(0..128) as i32 - 64
                    );
                }
                1 => {
                    let _ = writeln!(src, "    add %d{d}, %d{d}, %d{s}");
                }
                2 => {
                    let _ = writeln!(src, "    mul %d{d}, %d{d}, %d{s}");
                }
                _ => {
                    let _ = writeln!(
                        src,
                        "    xor %d{d}, %d{s}, {}",
                        rng.random_range(0..256) as i32 - 128
                    );
                }
            }
        }
        // A counted loop with a call inside.
        let n = rng.random_range(1..9);
        let _ = writeln!(src, "    mov %d9, {n}");
        src.push_str(
            "loop_top:\n    call leaf\n    addi %d9, %d9, -1\n    jnz %d9, loop_top\n    debug\n",
        );
        src.push_str("leaf:\n    addi %d10, %d10, 3\n    ret\n");

        let elf = cabt_tricore::asm::assemble(&src).expect("assembles");
        let mut fast = golden(&elf, DispatchMode::Trace);
        let mut naive = golden(&elf, DispatchMode::Naive);
        let rf = fast.run(100_000).expect("halts");
        let rn = naive.run(100_000).expect("halts");
        assert_eq!(rf, rn, "case {case}: stats diverged");
        assert_tricore_equal(&format!("case {case}"), &mut fast, &mut naive);
    }
}

#[test]
fn fault_behaviour_matches_between_modes() {
    // Indirect jump to nowhere: both modes must fault with the same
    // error on the same step.
    let elf = cabt_tricore::asm::assemble(".text\n_start: mov %d1, 2\nji %a5\n").unwrap();
    let run = |mode: DispatchMode| {
        let mut sim = golden(&elf, mode);
        sim.cpu.set_a(5, 0xbad0_0000);
        let mut steps = 0;
        let err = loop {
            match sim.step() {
                Ok(_) => steps += 1,
                Err(e) => break e,
            }
        };
        (steps, err, sim.stats())
    };
    let (steps_f, err_f, stats_f) = run(DispatchMode::Trace);
    let (steps_n, err_n, stats_n) = run(DispatchMode::Naive);
    assert_eq!(steps_f, steps_n);
    assert_eq!(err_f, err_n);
    assert!(matches!(err_f, SimError::PcInvalid { pc: 0xbad0_0000 }));
    assert_eq!(stats_f, stats_n);

    // Instruction-limit behaviour is identical too.
    let elf = cabt_tricore::asm::assemble(".text\n_start: j _start\n").unwrap();
    for mode in [DispatchMode::Trace, DispatchMode::Naive] {
        let mut sim = golden(&elf, mode);
        assert_eq!(sim.run(25), Err(SimError::InstructionLimit));
        assert_eq!(sim.stats().instructions, 25);
    }
}

#[test]
fn reset_restores_mutated_data_memory() {
    // sieve scribbles over its .bss flags array: reset must restore the
    // load image so a rerun reproduces the first run exactly, on both
    // engines.
    let w = cabt::workloads::sieve(200);
    let elf = w.elf().expect("assembles");

    let mut sim = golden(&elf, DispatchMode::Trace);
    sim.run(10_000_000).expect("halts");
    let first = sim.stats();
    assert_eq!(sim.cpu.d(2), w.expected_d2);
    sim.reset();
    sim.run(10_000_000).expect("halts again");
    assert_eq!(sim.stats(), first, "golden rerun after reset diverged");
    assert_eq!(sim.cpu.d(2), w.expected_d2);

    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .expect("translates");
    let mut vsim = VliwSim::instantiate(t.program().expect("builds"));
    let first = vsim.run(1_000_000_000).expect("halts");
    assert_eq!(
        vsim.reg(cabt_core::regbind::dreg(cabt_tricore::isa::DReg(2))),
        w.expected_d2
    );
    vsim.reset();
    let second = vsim.run(1_000_000_000).expect("halts again");
    assert_eq!(second, first, "vliw rerun after reset diverged");
    assert_eq!(
        vsim.reg(cabt_core::regbind::dreg(cabt_tricore::isa::DReg(2))),
        w.expected_d2
    );
}

#[test]
fn engine_trait_reports_identical_counters_across_modes() {
    // The uniform EngineStats view must agree between modes as well —
    // it is what the bench harnesses publish.
    let w = cabt::workloads::fir(8, 64, 5);
    let elf = w.elf().expect("assembles");
    let collect = |mode: DispatchMode| {
        let mut sim = golden(&elf, mode);
        sim.run(10_000_000).expect("halts");
        sim.engine_stats()
    };
    assert_eq!(collect(DispatchMode::Trace), collect(DispatchMode::Naive));
}
