//! Differential proof that the compiled dispatch cores — instructions
//! (golden) and execute packets (VLIW) compiled into closures at load,
//! plus the golden model's profile-guided superblock traces over them —
//! are bit-identical to the naive interpreters, the reference
//! throughout.
//!
//! The golden compiled core is exercised in two configurations: an
//! eager one in which traces form and carry most retirement, and a
//! warm-up of 0 which keeps no trace state, so every step dispatches
//! one compiled instruction and is compared after every step. With
//! traces formed, it is compared at instruction and trace boundaries
//! (and at the halt). The VLIW compiled core dispatches one compiled
//! packet per step and is compared after every packet, at budget stops
//! and at the halt. Both are swept over every bundled workload,
//! PRNG-randomized programs, and the fault paths (mid-block memory
//! faults, indirect jumps out of the image).

use cabt::prelude::*;
use cabt_exec::trace::TraceConfig;
use cabt_exec::{fingerprint_engine, ExecutionEngine};
use cabt_isa::elf::{ElfFile, SectionKind};
use cabt_isa::rng::Pcg32;
use cabt_platform::PlatformStats;
use cabt_tricore::sim::{DispatchMode, SimError, Simulator};
use cabt_vliw::sim::{VliwDispatch, VliwSim, VliwStats};
use std::fmt::Write as _;

/// Aggressive trace formation for differential tests: the warm-up
/// window never closes and two executions make a block hot, so even
/// short workloads run mostly inside fused traces.
fn eager_traces() -> TraceConfig {
    TraceConfig {
        warmup: 1_000_000_000,
        hot_threshold: 2,
    }
}

/// A warm-up of 0: no trace state, so the golden compiled core
/// dispatches one compiled instruction per step.
fn block_dispatch() -> TraceConfig {
    TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    }
}

/// A golden-model simulator on `mode` with `cfg` as its trace knobs.
fn sim_on(elf: &ElfFile, mode: DispatchMode, cfg: TraceConfig) -> Simulator {
    let mut sim = Simulator::new(elf).expect("loads");
    sim.set_trace_config(cfg);
    sim.set_dispatch(mode);
    sim
}

/// All bundled workloads (the Fig. 5 set plus the Table 2 set).
fn all_workloads() -> Vec<Workload> {
    let mut ws = cabt::workloads::fig5_set();
    ws.extend(cabt::workloads::table2_set());
    ws
}

/// Asserts every observable of two golden-model runs is equal.
fn assert_tricore_equal(name: &str, a: &mut Simulator, b: &mut Simulator) {
    assert_eq!(a.stats(), b.stats(), "{name}: stats diverged");
    assert_eq!(a.is_halted(), b.is_halted(), "{name}: halt flag");
    assert_eq!(a.cpu.pc, b.cpu.pc, "{name}: pc");
    for i in 0..16 {
        assert_eq!(a.cpu.d(i), b.cpu.d(i), "{name}: d{i}");
        assert_eq!(a.cpu.a(i), b.cpu.a(i), "{name}: a{i}");
    }
}

fn assert_memory_equal(name: &str, elf: &ElfFile, a: &mut Simulator, b: &mut Simulator) {
    for s in &elf.sections {
        if matches!(s.kind, SectionKind::Data | SectionKind::Bss) && s.size > 0 {
            let ma = a.read_mem(s.addr, s.size as usize).expect("readable");
            let mb = b.read_mem(s.addr, s.size as usize).expect("readable");
            assert_eq!(ma, mb, "{name}: section {} contents diverged", s.name);
        }
    }
}

/// Instruction lockstep: with warm-up 0 the trace tier retires one
/// compiled instruction per step, so the comparison against the naive
/// interpreter is made after *every* step — a divergence is pinned to
/// the instruction that introduced it.
#[test]
fn tricore_compiled_agrees_at_every_block_boundary() {
    for w in [cabt::workloads::gcd(6, 11), cabt::workloads::sieve(60)] {
        let elf = w.elf().expect("assembles");
        let mut naive = sim_on(&elf, DispatchMode::Naive, block_dispatch());
        let mut comp = sim_on(&elf, DispatchMode::Trace, block_dispatch());
        let mut steps = 0u64;
        while !comp.is_halted() && steps < 100_000 {
            comp.step().expect("compiled steps");
            naive.step().expect("naive steps");
            assert_tricore_equal(&format!("{} step {steps}", w.name), &mut naive, &mut comp);
            steps += 1;
        }
        assert!(comp.is_halted(), "{}: did not halt in bounds", w.name);
        assert!(naive.is_halted());
    }
}

/// The VLIW compiled tier dispatches one compiled packet per step, so
/// the comparison against the naive interpreter can be made after
/// *every* packet, pending pipeline state included.
#[test]
fn vliw_compiled_agrees_after_every_packet() {
    let w = cabt::workloads::gcd(6, 11);
    let elf = w.elf().expect("assembles");
    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .expect("translates");
    let program = t.program().expect("builds");
    let mut naive = VliwSim::instantiate(program.clone());
    naive.set_dispatch(VliwDispatch::Naive);
    let mut comp = VliwSim::instantiate(program);
    let mut packets = 0u64;
    while !naive.is_halted() && packets < 50_000 {
        naive.step_packet().expect("naive steps");
        comp.step_packet().expect("compiled steps");
        assert_eq!(naive.cycle(), comp.cycle(), "cycle at packet {packets}");
        assert_eq!(naive.pc_addr(), comp.pc_addr(), "pc at packet {packets}");
        for i in 0..64 {
            assert_eq!(
                naive.read_reg_index(i),
                comp.read_reg_index(i),
                "reg {i} at packet {packets}"
            );
        }
        packets += 1;
    }
    assert!(naive.is_halted(), "did not halt in bounds");
    assert!(comp.is_halted());
}

#[test]
fn random_programs_agree_in_compiled_mode() {
    let mut rng = Pcg32::seed_from_u64(0xb10c);
    for case in 0..40 {
        let mut src = String::from(".text\n_start:\n");
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
        let n = rng.random_range(1..9);
        let _ = writeln!(src, "    mov %d9, {n}");
        src.push_str(
            "loop_top:\n    call leaf\n    addi %d9, %d9, -1\n    jnz %d9, loop_top\n    debug\n",
        );
        src.push_str("leaf:\n    addi %d10, %d10, 3\n    ret\n");

        let elf = cabt_tricore::asm::assemble(&src).expect("assembles");
        let mut pre = sim_on(&elf, DispatchMode::Naive, block_dispatch());
        let mut comp = sim_on(&elf, DispatchMode::Trace, block_dispatch());
        let rp = pre.run(100_000).expect("halts");
        let rc = comp.run(100_000).expect("halts");
        assert_eq!(rp, rc, "case {case}: stats diverged");
        assert_tricore_equal(&format!("case {case}"), &mut pre, &mut comp);
    }
}

#[test]
fn fault_behaviour_matches_the_interpreter() {
    // Indirect jump to nowhere: same error, same state, same step where
    // it surfaces.
    let elf = cabt_tricore::asm::assemble(".text\n_start: mov %d1, 2\nji %a5\n").unwrap();
    let run = |mode: DispatchMode| {
        let mut sim = sim_on(&elf, mode, block_dispatch());
        sim.cpu.set_a(5, 0xbad0_0000);
        let err = loop {
            match sim.step() {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        (err, sim.cpu.pc, sim.stats())
    };
    let (ep, pp, sp) = run(DispatchMode::Naive);
    let (ec, pc, sc) = run(DispatchMode::Trace);
    assert_eq!(ep, ec);
    assert_eq!(pp, pc);
    assert_eq!(sp, sc);
    assert!(matches!(ep, SimError::PcInvalid { pc: 0xbad0_0000 }));

    // Mid-block memory fault: pc parks on the faulting instruction,
    // the completed prefix retired, the faulting op did not.
    let elf = cabt_tricore::asm::assemble(
        ".text\n_start: mov %d1, 1\nmovh.a %a2, 0x4000\nld.w %d3, [%a2]2\nmov %d4, 4\ndebug\n",
    )
    .unwrap();
    let run = |mode: DispatchMode| {
        let mut sim = sim_on(&elf, mode, block_dispatch());
        let err = loop {
            match sim.step() {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        (err, sim.cpu.pc, sim.cpu.d(1), sim.cpu.d(4), sim.stats())
    };
    assert_eq!(run(DispatchMode::Naive), run(DispatchMode::Trace));
}

#[test]
fn engine_trait_reports_identical_counters() {
    let w = cabt::workloads::fir(8, 64, 5);
    let elf = w.elf().expect("assembles");
    let collect = |mode: DispatchMode| {
        let mut sim = sim_on(&elf, mode, block_dispatch());
        sim.run(10_000_000).expect("halts");
        sim.engine_stats()
    };
    assert_eq!(collect(DispatchMode::Naive), collect(DispatchMode::Trace));
}

/// The compiled descriptors (`golden`, `translated:<level>`) and the
/// golden trace backend with warm-up 0 drive through `cabt-sim`
/// sessions like any other: same checksums, same counters as their
/// naive twins at the halt.
#[test]
fn compiled_sessions_match_predecoded_sessions() {
    for w in all_workloads() {
        let vehicles = [
            (
                Backend::Golden {
                    dispatch: Dispatch::Naive,
                },
                vec![Backend::golden(), Backend::golden_trace()],
            ),
            (
                Backend::Translated {
                    level: DetailLevel::Static,
                    naive: true,
                },
                vec![Backend::translated(DetailLevel::Static)],
            ),
        ];
        for (naive, subjects) in vehicles {
            let drive = |backend: Backend| {
                let mut s = SimBuilder::workload(&w)
                    .backend(backend)
                    .trace_config(block_dispatch())
                    .build()
                    .unwrap();
                s.run(Limit::Cycles(u64::MAX)).unwrap();
                (s.stats(), s.read_d(2))
            };
            let want = drive(naive);
            for subject in subjects {
                assert_eq!(want, drive(subject), "{}: {naive} vs {subject}", w.name);
            }
        }
    }
}

/// The compiled core with warm-up 0 — every step one compiled
/// instruction, no trace state — runs every bundled workload
/// bit-identically to the naive interpreter: registers, memory, stats,
/// checksum.
#[test]
fn tricore_compiled_is_bit_identical_on_all_workloads() {
    for w in all_workloads() {
        let elf = w.elf().expect("assembles");
        let mut pre = sim_on(&elf, DispatchMode::Naive, block_dispatch());
        let mut comp = sim_on(&elf, DispatchMode::Trace, block_dispatch());
        let rp = pre.run(500_000_000).expect("halts");
        let rc = comp.run(500_000_000).expect("halts");
        assert_eq!(rp, rc, "{}: final stats", w.name);
        assert_eq!(comp.cpu.d(2), w.expected_d2, "{}: checksum", w.name);
        assert_tricore_equal(w.name, &mut pre, &mut comp);
        assert_memory_equal(w.name, &elf, &mut pre, &mut comp);
        assert_eq!(
            comp.trace_stats(),
            None,
            "{}: warm-up 0 kept trace state",
            w.name
        );
    }
}

/// Shared VLIW run for the all-workload checks: platform stats,
/// register file and engine stats at the halt.
fn vliw_run(t: &Translated, mode: VliwDispatch) -> (PlatformStats, Vec<u32>, VliwStats) {
    let mut p = Platform::new(t, PlatformConfig::unlimited()).expect("builds");
    p.set_dispatch(mode);
    let stats = p.run(5_000_000_000).expect("halts");
    let regs: Vec<u32> = (0..64).map(|i| p.sim().read_reg_index(i)).collect();
    (stats, regs, p.sim().stats())
}

/// The VLIW compiled core matches the naive interpreter at the halt on
/// every bundled workload at the `levels` detail levels.
fn assert_vliw_compiled_matches_naive(levels: [DetailLevel; 2]) {
    for w in all_workloads() {
        let elf = w.elf().expect("assembles");
        for level in levels {
            let t = Translator::new(level).translate(&elf).expect("translates");
            let (sp, rp, vp) = vliw_run(&t, VliwDispatch::Naive);
            let (sc, rc, vc) = vliw_run(&t, VliwDispatch::Trace);
            assert_eq!(sp, sc, "{} level {level}: platform stats diverged", w.name);
            assert_eq!(vp, vc, "{} level {level}: engine stats diverged", w.name);
            assert_eq!(rp, rc, "{} level {level}: register file diverged", w.name);
        }
    }
}

/// The VLIW compiled core — every step one compiled packet — matches
/// the naive interpreter at the halt on every bundled workload at the
/// static and cache levels.
#[test]
fn vliw_compiled_is_packet_lockstep_identical_on_all_workloads() {
    assert_vliw_compiled_matches_naive([DetailLevel::Static, DetailLevel::Cache]);
}

/// The trace tier with eager formation runs every bundled workload
/// bit-identically to the naive interpreter — registers, memory,
/// stats, checksum — with most instructions retiring inside fused
/// superblocks.
#[test]
fn tricore_trace_is_bit_identical_on_all_workloads() {
    for w in all_workloads() {
        let elf = w.elf().expect("assembles");
        let mut pre = sim_on(&elf, DispatchMode::Naive, eager_traces());
        let mut tr = sim_on(&elf, DispatchMode::Trace, eager_traces());
        let rp = pre.run(500_000_000).expect("halts");
        let rt = tr.run(500_000_000).expect("halts");
        assert_eq!(rp, rt, "{}: final stats", w.name);
        assert_eq!(tr.cpu.d(2), w.expected_d2, "{}: checksum", w.name);
        assert_tricore_equal(w.name, &mut pre, &mut tr);
        assert_memory_equal(w.name, &elf, &mut pre, &mut tr);
        let ts = tr.trace_stats().expect("trace dispatch selected");
        assert!(ts.traces > 0, "{}: no traces formed", w.name);
        assert!(
            ts.trace_retired * 2 > tr.stats().instructions,
            "{}: traces cover too little ({} of {})",
            w.name,
            ts.trace_retired,
            tr.stats().instructions
        );
    }
}

/// The VLIW compiled core at the two remaining detail levels
/// (functional and branch prediction): bit-identical to the naive
/// interpreter at the halt on every bundled workload.
#[test]
fn vliw_trace_is_bit_identical_on_all_workloads() {
    assert_vliw_compiled_matches_naive([DetailLevel::Functional, DetailLevel::BranchPredict]);
}

/// The paper's configuration — cache level, `PlatformConfig::default()`
/// with its sync-device stalls — compared at every boundary of a small
/// prime cycle stride, not only at the halt. The compiled session stops
/// at the first packet boundary at or past each stride multiple, often
/// right after a folded NOP packet or a stall; the naive session is run
/// to the same retirement count and both digests must agree there. In
/// between, results the compiled core holds in its next-cycle latch
/// and the naive core holds in its list are equally uncommitted, so the
/// digests see the same register file.
#[test]
fn vliw_trace_agrees_at_every_cycle_stride_boundary_under_sync_stalls() {
    const STRIDE: u64 = 31;
    for w in all_workloads() {
        let build = |backend| {
            SimBuilder::workload(&w)
                .backend(backend)
                .platform(PlatformConfig::default())
                .build()
                .expect("builds")
        };
        let mut tr = build(Backend::translated(DetailLevel::Cache));
        let mut naive = build(Backend::Translated {
            level: DetailLevel::Cache,
            naive: true,
        });
        let mut boundaries = 0u64;
        loop {
            let bound = (tr.cycle() / STRIDE + 1) * STRIDE;
            let stop = tr.run(Limit::Cycles(bound)).expect("compiled session runs");
            naive
                .run(Limit::Retirements(tr.stats().retired))
                .expect("naive session runs");
            assert_eq!(
                fingerprint_engine(&naive),
                fingerprint_engine(&tr),
                "{}: diverged at the boundary at cycle {} (packet {})",
                w.name,
                tr.cycle(),
                tr.stats().retired
            );
            boundaries += 1;
            if stop == StopCause::Halted {
                break;
            }
        }
        assert!(naive.is_halted(), "{}: naive session did not halt", w.name);
        assert_eq!(tr.read_d(2), w.expected_d2, "{}: checksum", w.name);
        assert!(
            tr.stats().stall_cycles > 0,
            "{}: no sync stall to straddle",
            w.name
        );
        assert!(boundaries > 100, "{}: only {boundaries} boundaries", w.name);
    }
}

/// Randomized programs with hot loops and *indirect* branches, some
/// deliberately pointed one instruction past a block leader: a `ji`
/// into the middle of a fused region must step single instructions up
/// to the next trace head, bit-identically. Boundary comparisons are 8-byte
/// [`fingerprint_engine`] digests; the halt check is the full-state
/// anchor.
#[test]
fn random_hot_indirect_programs_agree_in_trace_mode() {
    let mut rng = Pcg32::seed_from_u64(0x7_ace);
    let mut formed = 0u64;
    for case in 0..25 {
        let mut src =
            String::from(".text\n_start:\n    movh.a %a4, hi:p1\n    lea %a4, [%a4]lo:p1\n");
        // Odd cases skew the indirect target one instruction past the
        // `p1` leader — a mid-trace entry.
        if case % 2 == 1 {
            src.push_str("    lea %a4, [%a4]4\n");
        }
        src.push_str("    movh.a %a5, hi:p2\n    lea %a5, [%a5]lo:p2\n");
        let n = rng.random_range(40..160);
        let _ = writeln!(src, "    mov %d9, {n}\nloop_top:");
        // Flip-flop between the two indirect paths.
        src.push_str("    xor %d7, %d7, 1\n    jnz %d7, odd\n    ji %a5\nodd:\n    ji %a4\n");
        for label in ["p1", "p2"] {
            let _ = writeln!(src, "{label}:");
            for _ in 0..rng.random_range(2..6) {
                let d = rng.random_range(10..14);
                let s = rng.random_range(10..14);
                match rng.below(3) {
                    0 => {
                        let _ = writeln!(src, "    add %d{d}, %d{d}, %d{s}");
                    }
                    1 => {
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
            // `%d9 >= 1` inside the body, so this always rejoins.
            src.push_str("    jnz %d9, join\n");
        }
        src.push_str("join:\n    addi %d9, %d9, -1\n    jnz %d9, loop_top\n    debug\n");

        let elf = cabt_tricore::asm::assemble(&src).expect("assembles");
        let mut pre = sim_on(&elf, DispatchMode::Naive, eager_traces());
        let mut tr = sim_on(&elf, DispatchMode::Trace, eager_traces());
        let mut steps = 0u64;
        while !tr.is_halted() && steps < 100_000 {
            tr.step().expect("trace steps");
            let boundary = tr.stats().instructions;
            while pre.stats().instructions < boundary {
                pre.step().expect("naive steps");
            }
            assert_eq!(
                fingerprint_engine(&pre),
                fingerprint_engine(&tr),
                "case {case}: digest diverged at retirement {boundary}"
            );
            steps += 1;
        }
        assert!(tr.is_halted(), "case {case}: did not halt in bounds");
        // One full-state anchor per case backs the digests.
        assert_tricore_equal(&format!("case {case}"), &mut pre, &mut tr);
        formed += tr.trace_stats().expect("trace dispatch selected").traces;
    }
    assert!(formed > 0, "no case formed a trace");
}

/// A memory fault in the *middle* of a fused trace: the naive and
/// trace engines report the same error, park the pc on the faulting
/// instruction, and agree on the retired prefix.
#[test]
fn trace_fault_parity_matches_predecoded() {
    // The load walks forward 6 bytes per iteration: aligned on the
    // first trip, misaligned once the loop is hot and fused.
    let elf = cabt_tricore::asm::assemble(
        ".text\n_start:
    movh.a %a2, 0xd000
    mov %d9, 50
walk:
    ld.w %d3, [%a2]0
    add %d2, %d3
    lea %a2, [%a2]6
    addi %d9, %d9, -1
    jnz %d9, walk
    debug\n",
    )
    .expect("assembles");
    let run = |mode: DispatchMode| {
        let mut sim = sim_on(&elf, mode, eager_traces());
        let err = loop {
            match sim.step() {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        (err, sim.cpu.pc, sim.cpu.a(2), sim.cpu.d(9), sim.stats())
    };
    let (ep, pp, ap, dp, sp) = run(DispatchMode::Naive);
    let (et, pt, at, dt, st) = run(DispatchMode::Trace);
    assert_eq!(
        (&ep, pp, ap, dp, sp),
        (&et, pt, at, dt, st),
        "fault state diverged"
    );
    assert!(
        matches!(ep, SimError::Mem(_)),
        "expected a memory fault, got {ep:?}"
    );
}

/// Session snapshots taken mid-run restore and replay: the replay
/// revisits the same budget stop points, the same halt state and the
/// same checksum. On the golden trace backend traces are live at the
/// snapshot, so the replay crosses side exits (the snapshot carries the
/// tier's profile); the translated backend is the compiled VLIW core.
#[test]
fn trace_sessions_snapshot_across_side_exits() {
    let w = cabt::workloads::sieve(200);
    for backend in [
        Backend::golden_trace(),
        Backend::translated(DetailLevel::Static),
    ] {
        let mut s = SimBuilder::workload(&w)
            .backend(backend)
            .trace_config(eager_traces())
            .build()
            .expect("builds");
        s.run_until(Limit::Retirements(500)).expect("warms up");
        if backend == Backend::golden_trace() {
            assert!(
                s.trace_stats().expect("trace backend").traces > 0,
                "{backend}: no trace live at the snapshot point"
            );
        }
        let snap = s.snapshot();
        s.run_until(Limit::Retirements(1500)).expect("runs on");
        let mid = (s.stats(), s.cycle(), s.read_d(2));
        s.run_until(Limit::Cycles(u64::MAX)).expect("halts");
        let end = (s.stats(), s.read_d(2));
        assert_eq!(end.1, w.expected_d2, "{backend}: checksum");

        s.restore(&snap);
        s.run_until(Limit::Retirements(1500)).expect("replays");
        assert_eq!(
            (s.stats(), s.cycle(), s.read_d(2)),
            mid,
            "{backend}: replay took a different trajectory"
        );
        s.run_until(Limit::Cycles(u64::MAX))
            .expect("replays to halt");
        assert_eq!(
            (s.stats(), s.read_d(2)),
            end,
            "{backend}: halt replay diverged"
        );
    }
}

/// Reset and rerun reproduces the untraced trace-tier run exactly (the
/// compiled ops are a load-time constant; reset touches only mutable
/// state).
#[test]
fn compiled_reset_reproduces_the_run() {
    let w = cabt::workloads::sieve(200);
    let elf = w.elf().expect("assembles");
    let mut sim = sim_on(&elf, DispatchMode::Trace, block_dispatch());
    sim.run(10_000_000).expect("halts");
    let first = sim.stats();
    assert_eq!(sim.cpu.d(2), w.expected_d2);
    sim.reset();
    sim.run(10_000_000).expect("halts again");
    assert_eq!(sim.stats(), first, "compiled rerun after reset diverged");
}

/// Static/dynamic trace cross-check: every chain the golden trace tier
/// actually fuses on `gcd`, `fir` and `sieve` must pass the analyzer's static
/// side-exit verification — every possible exit lands on a `BlockMap`
/// leader and every seam is a real block edge — and each dynamic head
/// must sit inside a statically predicted natural loop. The analyzer's
/// lowering mirrors the engine's decode walk, so block ids agree by
/// construction.
#[test]
fn trace_plans_verify_against_the_static_analyzer() {
    use cabt_exec::analyze::{natural_loops, predict_traces, verify_trace_exits};
    for w in [
        cabt::workloads::gcd(16, 0xcab7),
        cabt::workloads::fir(16, 300, 0xcab7),
        cabt::workloads::sieve(400),
    ] {
        let elf = w.elf().expect("assembles");
        let prog = cabt_tricore::analyze::lower_elf(&elf).expect("lowers");
        let graph = prog.graph();
        let loops = natural_loops(&graph);
        let predicted = predict_traces(&graph, &loops);
        assert!(!predicted.is_empty(), "{}: nothing predicted hot", w.name);

        let mut s = SimBuilder::workload(&w)
            .backend(Backend::golden_trace())
            .trace_config(eager_traces())
            .build()
            .expect("builds");
        s.run(Limit::Cycles(u64::MAX)).expect("halts");
        let profile_hot = s.trace_stats().expect("trace backend selected").traces;
        let plans = s.trace_plans();
        assert_eq!(
            plans.len() as u64,
            profile_hot,
            "{}: plan list disagrees with the dynamic profile",
            w.name
        );
        assert!(!plans.is_empty(), "{}: no traces formed", w.name);
        for plan in &plans {
            let pc_of = |u: u32| prog.units[u as usize].pc;
            let findings = verify_trace_exits(&graph, &plan.blocks, pc_of);
            assert!(
                findings.is_empty(),
                "{}: chain {:?} fails static leader verification: {:?}",
                w.name,
                plan.blocks,
                findings
            );
            // A fused chain never leaves the natural loop its head
            // belongs to: the chain's block set must be a subset of
            // some static loop containing the head.
            let head = plan.blocks[0];
            assert!(
                loops.iter().any(|l| {
                    l.blocks.binary_search(&head).is_ok()
                        && plan
                            .blocks
                            .iter()
                            .all(|b| l.blocks.binary_search(b).is_ok())
                }),
                "{}: chain {:?} escapes every static loop",
                w.name,
                plan.blocks
            );
        }
        // And the prediction is complete in the other direction: every
        // statically predicted hot head did turn hot dynamically.
        for p in &predicted {
            assert!(
                plans.iter().any(|plan| plan.blocks[0] == p.head),
                "{}: predicted head {} never formed a dynamic trace (formed: {:?})",
                w.name,
                p.head,
                plans.iter().map(|pl| &pl.blocks).collect::<Vec<_>>()
            );
        }
    }
}
