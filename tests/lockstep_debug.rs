//! Lockstep equivalence: single-stepping the debug session (the
//! instruction-oriented translation) must track the golden model's
//! architectural state instruction for instruction. This is the
//! strongest cross-stack test in the suite — any divergence in decode,
//! expansion, scheduling or delayed write-back shows up here.

use cabt::prelude::*;
use cabt_exec::trace::TraceConfig;
use cabt_tricore::sim::Simulator;

fn lockstep(w: &Workload, steps: usize) {
    let elf = w.elf().expect("assembles");
    let dbg = DebugSession::new(&elf).expect("session builds");
    lockstep_against(w, steps, dbg);
}

fn lockstep_against(w: &Workload, steps: usize, mut dbg: DebugSession) {
    let elf = w.elf().expect("assembles");
    let mut gold = Simulator::new(&elf).expect("golden loads");
    // A warm-up of 0: one instruction per golden step.
    gold.set_trace_config(TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    });

    for n in 0..steps {
        if gold.is_halted() {
            break;
        }
        gold.step().expect("golden steps");
        match dbg.step().expect("debug steps") {
            StopReason::Halted => {
                assert!(
                    gold.is_halted(),
                    "{}: debug halted early at step {n}",
                    w.name
                );
                break;
            }
            StopReason::Step(src) => {
                assert_eq!(src, gold.cpu.pc, "{}: pc diverged at step {n}", w.name);
            }
            other => panic!("{}: unexpected stop {other:?}", w.name),
        }
        for i in 0..16u8 {
            assert_eq!(
                dbg.read_reg(&format!("d{i}")).expect("readable"),
                gold.cpu.d(i),
                "{}: d{i} diverged after step {n} (pc {:#010x})",
                w.name,
                gold.cpu.pc
            );
        }
        // Address registers except a11 (holds target-world return
        // addresses by design).
        for i in (0..16u8).filter(|&i| i != 11) {
            assert_eq!(
                dbg.read_reg(&format!("a{i}")).expect("readable"),
                gold.cpu.a(i),
                "{}: a{i} diverged after step {n}",
                w.name
            );
        }
    }
}

#[test]
fn gcd_lockstep() {
    lockstep(&cabt::workloads::gcd(4, 21), 400);
}

#[test]
fn dpcm_lockstep() {
    lockstep(&cabt::workloads::dpcm(30, 21), 400);
}

#[test]
fn fir_lockstep() {
    lockstep(&cabt::workloads::fir(4, 24, 21), 400);
}

#[test]
fn ellip_lockstep() {
    lockstep(&cabt::workloads::ellip(6, 21), 500);
}

#[test]
fn subband_lockstep() {
    lockstep(&cabt::workloads::subband(4, 21), 500);
}

#[test]
fn sieve_lockstep() {
    lockstep(&cabt::workloads::sieve(40), 600);
}

#[test]
fn fibonacci_lockstep() {
    lockstep(&cabt::workloads::fibonacci(3, 10), 300);
}

/// The naive VLIW core, which steps one packet at a time.
fn naive_static() -> Backend {
    Backend::Translated {
        level: DetailLevel::Static,
        naive: true,
    }
}

/// The lockstep debugger runs the builder's backend as given: on the
/// naive VLIW core, packet by packet like the compiled tier, the
/// per-instruction translation still stops at every source address.
#[test]
fn lockstep_drives_a_trace_backend_builder() {
    for w in [cabt::workloads::gcd(4, 21), cabt::workloads::sieve(40)] {
        let elf = w.elf().expect("assembles");
        let dbg = DebugSession::from_builder(SimBuilder::elf(elf).backend(naive_static()))
            .expect("naive debug session builds");
        lockstep_against(&w, 500, dbg);
    }
}

/// Breakpoints hit at the same source addresses on a naive-core builder.
#[test]
fn breakpoints_work_on_a_trace_backend_builder() {
    let elf = assemble(".text\n_start: mov %d1, 1\nmid: mov %d2, 2\n add %d2, %d1\n debug\n")
        .expect("assembles");
    let mid = elf.symbol("mid").expect("symbol").value;
    let mut dbg =
        DebugSession::from_builder(SimBuilder::elf(elf).backend(naive_static())).expect("builds");
    dbg.set_breakpoint(mid).expect("source address");
    assert_eq!(dbg.cont().expect("runs"), StopReason::Breakpoint(mid));
    assert_eq!(dbg.read_reg("d1").expect("readable"), 1);
    dbg.step().expect("steps");
    assert_eq!(dbg.read_reg("d2").expect("readable"), 2);
    assert_eq!(dbg.cont().expect("runs"), StopReason::Halted);
}
