//! The determinism contract of concurrent shard execution:
//! `ShardSchedule::Pooled` (rounds as work items on a fixed pool,
//! `cabt_exec::pool::run_epochs_pooled`), at two and more workers, must
//! be **bit-identical** to `ShardSchedule::Sequential` (one thread,
//! `cabt_exec::run_epochs_sharded`) — per-shard registers, per-shard
//! data memory, cycle counts, `EngineStats`, the merged UART log, the
//! canonical SoC device state, and the stop cause all have to match,
//! whatever the host's thread scheduling did. The NoC-scale cases (N =
//! 64 and 256, including a mid-run shard migration and a
//! doorbell-mailbox SPMD program) live at the bottom of the file.
//!
//! The property holds by construction — within an epoch every shard
//! touches only its own engine and its *private* clone of the device
//! population, and the `ShardArbiter`'s barrier merge is a pure
//! function of the per-shard states folded in fixed shard order — and
//! this suite is the proof: the SPMD mailbox workload, every bundled
//! workload, every base backend, and PRNG-randomized SPMD programs
//! (any divergence prints the seed for replay), at N = 2/4/8.

use cabt::prelude::*;
use cabt_exec::trace::TraceConfig;
use cabt_exec::{fingerprint_engine, Fingerprint};
use cabt_isa::codec::ByteReader;
use cabt_isa::elf::SectionKind;
use cabt_isa::rng::Pcg32;
use cabt_sim::ShardedStats;
use std::fmt::Write as _;

const BUDGET: Limit = Limit::Cycles(100_000_000);

/// Everything observable about a sharded session, per shard and
/// merged.
#[derive(Debug, PartialEq)]
struct Observed {
    stop: Option<StopCause>,
    /// Full flat register file of every shard, in shard order.
    regs: Vec<Vec<u32>>,
    /// Data/BSS windows of every shard's private memory.
    mem: Vec<Vec<Vec<u8>>>,
    /// Per-shard cycle counters (also inside stats, but spelled out so
    /// a divergence names the clock directly).
    cycles: Vec<u64>,
    /// Per-shard + aggregate counters, bus transactions, epoch count,
    /// merged UART log.
    stats: ShardedStats,
    /// Canonical SoC device state (`None` only for busless sessions).
    devices: Option<cabt_platform::SocBusState>,
    halted: bool,
}

/// Data/BSS windows of the source image (identity-mapped on every
/// backend in this workspace).
fn data_windows(elf: &cabt_isa::elf::ElfFile) -> Vec<(u32, usize)> {
    elf.sections
        .iter()
        .filter(|s| matches!(s.kind, SectionKind::Data | SectionKind::Bss) && s.size > 0)
        .map(|s| (s.addr, s.size as usize))
        .collect()
}

fn observe(s: &mut Session, stop: Option<StopCause>) -> Observed {
    let windows = data_windows(s.source_elf());
    let n = s.shard_count();
    let mut regs = Vec::with_capacity(n);
    let mut mem = Vec::with_capacity(n);
    let mut cycles = Vec::with_capacity(n);
    for i in 0..n {
        let shard = s.shard_mut(i).expect("sharded session");
        regs.push(
            (0..shard.reg_count())
                .map(|r| shard.read_reg_index(r))
                .collect(),
        );
        mem.push(
            windows
                .iter()
                .map(|&(addr, len)| shard.read_mem(addr, len).expect("readable window"))
                .collect(),
        );
        cycles.push(shard.cycle());
    }
    Observed {
        stop,
        regs,
        mem,
        cycles,
        stats: s.sharded_stats().expect("sharded session"),
        devices: s.soc_bus_state(),
        halted: s.is_halted(),
    }
}

/// 8-byte digest of a sharded session's observable state: per-shard
/// engine trajectories ([`fingerprint_engine`]: counters, registers,
/// pc, halt flag), per-shard data/BSS windows, the shared-bus counters
/// and the merged UART log. The long randomized sweeps compare these
/// digests instead of hauling full [`Observed`] images around; one
/// full-state comparison per test anchors them.
fn digest_session(s: &mut Session, stop: StopCause) -> u64 {
    let windows = data_windows(s.source_elf());
    let mut fp = Fingerprint::new();
    fp.mix_u64(u64::from(stop == StopCause::Halted));
    for i in 0..s.shard_count() {
        let shard = s.shard_mut(i).expect("sharded session");
        fp.mix_u64(fingerprint_engine(shard));
        for &(addr, len) in &windows {
            fp.mix_bytes(&shard.read_mem(addr, len).expect("readable window"));
        }
    }
    let st = s.sharded_stats().expect("sharded session");
    fp.mix_u64(st.bus_transactions);
    fp.mix_u64(st.epochs);
    for &(t, b) in &st.uart {
        fp.mix_u64(t);
        fp.mix_bytes(&[b]);
    }
    if let Some(d) = s.soc_bus_state() {
        fp.mix_u64(d.transactions());
    }
    fp.digest()
}

/// Trace knobs every session in this file is built with: a warm-up of
/// 0, so the trace backends form no trace and dispatch one compiled
/// block (golden) or packet (VLIW) per step. Trace formation under
/// sharding is covered by `tests/sharded.rs` and the fuzz matrix.
fn block_dispatch() -> TraceConfig {
    TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    }
}

fn build(source: &Workload, cores: u16, base: Backend, schedule: ShardSchedule) -> Session {
    SimBuilder::workload(source)
        .backend(Backend::sharded_with_schedule(cores, base, schedule))
        .trace_config(block_dispatch())
        .build()
        .expect("sharded session builds")
}

/// The differential core: run the same workload under every schedule
/// and demand identical observables.
fn assert_schedules_agree(label: &str, w: &Workload, cores: u16, base: Backend, limit: Limit) {
    let drive = |schedule: ShardSchedule| {
        let mut s = build(w, cores, base, schedule);
        let stop = s.run_until(limit).expect("runs");
        observe(&mut s, Some(stop))
    };
    let seq = drive(ShardSchedule::Sequential);
    let par = drive(ShardSchedule::Pooled(2));
    let pooled = drive(ShardSchedule::Pooled(3));
    assert_eq!(
        seq, par,
        "{label}: {cores}x{base} parallel run diverged from sequential"
    );
    assert_eq!(
        seq, pooled,
        "{label}: {cores}x{base} pooled run diverged from sequential"
    );
}

#[test]
fn producer_consumer_is_schedule_independent_at_2_4_8_shards() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    for cores in [2u16, 4, 8] {
        for base in [
            Backend::golden(),
            Backend::golden_trace(),
            Backend::translated(DetailLevel::Static),
            Backend::translated(DetailLevel::Cache),
        ] {
            assert_schedules_agree("producer_consumer", &w, cores, base, BUDGET);
            // And the parallel run is *correct*, not just consistent.
            let mut s = build(&w, cores, base, ShardSchedule::Pooled(2));
            assert_eq!(s.run_until(BUDGET).unwrap(), StopCause::Halted);
            for i in 0..cores as usize {
                assert_eq!(
                    s.shard(i).unwrap().read_d(2),
                    w.expected_d2,
                    "{cores}x{base} core {i}: parallel mailbox handoff"
                );
            }
            assert_eq!(
                s.sharded_stats().unwrap().uart.len(),
                cores as usize,
                "{cores}x{base}: merged UART log under the parallel scheduler"
            );
        }
    }
}

#[test]
fn all_bundled_workloads_are_schedule_independent() {
    let mut ws = cabt_workloads::fig5_set();
    ws.extend(cabt_workloads::table2_set());
    ws.push(cabt_workloads::by_name("producer_consumer").unwrap());
    for w in &ws {
        assert_schedules_agree(
            w.name,
            w,
            2,
            Backend::translated(DetailLevel::Static),
            BUDGET,
        );
        assert_schedules_agree(w.name, w, 4, Backend::golden(), BUDGET);
    }
}

#[test]
fn every_base_backend_runs_parallel_shards() {
    // RTL shards have no I/O window, so the cross-backend sweep uses a
    // pure-compute program (as `tests/sharded.rs` does).
    let sum = Workload {
        name: "sum10",
        source: "
            .text
        _start:
            mov %d0, 10
            mov %d2, 0
        top:
            add %d2, %d0
            addi %d0, %d0, -1
            jnz %d0, top
            debug
        "
        .into(),
        expected_d2: 55,
    };
    for base in Backend::all() {
        assert_schedules_agree("sum10", &sum, 3, base, BUDGET);
        let mut s = build(&sum, 3, base, ShardSchedule::Pooled(2));
        assert_eq!(s.run_until(BUDGET).unwrap(), StopCause::Halted, "{base}");
        for i in 0..3 {
            assert_eq!(s.shard(i).unwrap().read_d(2), 55, "{base} shard {i}");
        }
    }
}

#[test]
fn partial_runs_and_retirement_budgets_are_schedule_independent() {
    // Mid-flight equivalence: the schedulers must agree not only at
    // halt but at every budget boundary, under both budget kinds.
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    for base in [
        Backend::golden(),
        Backend::golden_trace(),
        Backend::translated(DetailLevel::Static),
    ] {
        for limit in [
            Limit::Cycles(500),
            Limit::Cycles(10_000),
            Limit::Retirements(37),
            Limit::Retirements(5_000),
        ] {
            assert_schedules_agree("partial producer_consumer", &w, 4, base, limit);
        }
    }
}

/// PRNG-driven SPMD stress: randomized programs (the `predecode_diff`
/// generator shape: seeded ALU soup, a counted loop with a call) that
/// also hit the shared bus — every core publishes its checksum to a
/// per-core scratch-RAM slot, slams one *contended* word (merge
/// tie-break must be deterministic), and transmits on the UART. Any
/// divergence prints the seed for replay.
fn random_spmd_program(seed: u64) -> String {
    let mut rng = Pcg32::seed_from_u64(seed);
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
    // Fold the core id in so shards genuinely diverge (SPMD), then a
    // counted loop with a call, as in the predecode generator.
    src.push_str("    add %d2, %d2, %d15\n");
    let n = rng.random_range(1..9);
    let _ = writeln!(src, "    mov %d9, {n}");
    src.push_str("loop_top:\n    call leaf\n    addi %d9, %d9, -1\n    jnz %d9, loop_top\n");
    // Publish: per-core scratch slot (0xf000_0210 + 4*core), one
    // contended word (0xf000_0280), one UART byte.
    src.push_str(
        "    movh   %d7, 0xf000
    addi   %d7, %d7, 0x210
    mov    %d6, 4
    mul    %d6, %d6, %d15
    add    %d7, %d7, %d6
    mov.a  %a4, %d7
    st.w   [%a4]0, %d2
    movh.a %a5, 0xf000
    lea    %a5, [%a5]0x280
    st.w   [%a5]0, %d2
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100
    st.w   [%a3]0, %d2
    debug
leaf:
    addi %d10, %d10, 3
    ret
",
    );
    src
}

#[test]
fn randomized_spmd_programs_are_schedule_independent() {
    for case in 0..12u64 {
        let seed = 0x5eed_0000 + case;
        let src = random_spmd_program(seed);
        // One full-state anchor per test (the first sweep point) backs
        // the digest comparisons everywhere else.
        let anchor = case == 0;
        for cores in [2u16, 4] {
            for base in [
                Backend::golden(),
                Backend::golden_trace(),
                Backend::translated(DetailLevel::Static),
            ] {
                let drive = |schedule: ShardSchedule| {
                    let mut s = SimBuilder::asm(src.clone())
                        .backend(Backend::sharded_with_schedule(cores, base, schedule))
                        .trace_config(block_dispatch())
                        .build()
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: fails to build: {e}"));
                    let stop = s
                        .run_until(BUDGET)
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: faulted: {e}"));
                    let digest = digest_session(&mut s, stop);
                    let full = anchor.then(|| observe(&mut s, Some(stop)));
                    let uart_len = s.sharded_stats().expect("sharded").uart.len();
                    (digest, full, s.is_halted(), uart_len)
                };
                let (dseq, fseq, halted, uart_len) = drive(ShardSchedule::Sequential);
                let (dpar, fpar, _, _) = drive(ShardSchedule::Pooled(2));
                assert_eq!(
                    dseq, dpar,
                    "seed {seed:#x} ({cores}x{base}): parallel digest diverged — replay with \
                     random_spmd_program({seed:#x})"
                );
                assert_eq!(
                    fseq, fpar,
                    "seed {seed:#x} ({cores}x{base}): full-state anchor diverged"
                );
                assert!(halted, "seed {seed:#x}: program must halt");
                assert_eq!(
                    uart_len, cores as usize,
                    "seed {seed:#x}: every core transmits once"
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Not just parallel == sequential: parallel == parallel, run after
    // run and after an in-session reset, whatever the thread timing.
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let drive = || {
        let mut s = build(
            &w,
            4,
            Backend::translated(DetailLevel::Static),
            ShardSchedule::Pooled(2),
        );
        let stop = s.run_until(BUDGET).expect("runs");
        observe(&mut s, Some(stop))
    };
    let a = drive();
    let b = drive();
    assert_eq!(a, b, "independent parallel runs diverged");

    let mut s = build(
        &w,
        4,
        Backend::translated(DetailLevel::Static),
        ShardSchedule::Pooled(2),
    );
    s.run_until(BUDGET).expect("runs");
    s.reset();
    assert_eq!(s.cycle(), 0);
    let stop = s.run_until(BUDGET).expect("reruns");
    assert_eq!(
        observe(&mut s, Some(stop)),
        a,
        "parallel reset + rerun diverged"
    );
}

/// Every shard reconfigures the timer in the first epoch, writing
/// compare = core id − shard count: the last shard writes the reset
/// value (`u32::MAX`) back, so the shard below it is the
/// highest-numbered one whose timer changed and wins the barrier.
/// After the barrier every shard reads the agreed value into `%d2`.
const TIMER_COMPARE_SRC: &str = "
    .text
_start:
    movh.a %a2, 0xf000          # timer
    movh.a %a4, 0xf000
    lea    %a4, [%a4]0x2000     # CoreLink
    ld.w   %d1, [%a4]4          # shard count
    sub    %d3, %d15, %d1
    st.w   [%a2]4, %d3          # compare = core id - shard count
    mov    %d0, 3000
spin:
    addi   %d0, %d0, -1
    jnz    %d0, spin
    ld.w   %d2, [%a2]4          # the compare value the barrier agreed on
    debug
";

/// Conflicting timer writes in one epoch resolve identically under
/// every schedule and across a mid-epoch snapshot and restore — the
/// timer's barrier base is part of its state image, so a restored shard
/// neither loses its pending change nor counts as changed when it is
/// not.
#[test]
fn timer_reconfiguration_is_schedule_and_snapshot_independent() {
    for cores in [2u16, 4] {
        for base in [Backend::golden(), Backend::translated(DetailLevel::Static)] {
            let build = |schedule: ShardSchedule| {
                SimBuilder::asm(TIMER_COMPARE_SRC)
                    .backend(Backend::sharded_with_schedule(cores, base, schedule))
                    .trace_config(block_dispatch())
                    .shard_epoch(1024)
                    .build()
                    .expect("sharded session builds")
            };
            let drive = |schedule: ShardSchedule| {
                let mut s = build(schedule);
                let stop = s.run_until(BUDGET).expect("runs");
                for i in 0..cores as usize {
                    assert_eq!(
                        s.shard(i).unwrap().read_d(2),
                        u32::MAX - 1, // (cores - 2) - cores = -2
                        "{cores}x{base} core {i}: shard {} wins the barrier",
                        cores - 2
                    );
                }
                observe(&mut s, Some(stop))
            };
            let seq = drive(ShardSchedule::Sequential);
            assert_eq!(
                seq,
                drive(ShardSchedule::Pooled(2)),
                "{cores}x{base}: pooled run diverged from sequential"
            );

            // Step every shard past its compare write, short of the
            // first barrier.
            let stepped = || {
                let mut s = build(ShardSchedule::Sequential);
                while (0..cores as usize).any(|i| s.shard(i).unwrap().stats().retired < 6) {
                    s.step().expect("steps");
                }
                assert_eq!(s.sharded_stats().unwrap().epochs, 0, "still mid-epoch");
                s
            };
            let mut reference = stepped();
            let stop = reference.run_until(BUDGET).expect("runs");
            let want = observe(&mut reference, Some(stop));
            let mut s = stepped();
            let mut snap = Vec::new();
            s.save_state(&mut snap);
            s.run_until(BUDGET).expect("runs");
            s.load_state(&mut ByteReader::new(&snap))
                .expect("the session loads its own image");
            let stop = s.run_until(BUDGET).expect("replays");
            assert_eq!(
                observe(&mut s, Some(stop)),
                want,
                "{cores}x{base}: replay from a mid-epoch snapshot diverged"
            );
        }
    }
}

/// The compile-time half of the Send-cleanliness satellite: every type
/// that crosses (or could cross) a worker-thread boundary in a parallel
/// sharded run must be `Send`, and the bus handle and the shared
/// programs additionally `Sync`.
/// A regression — say an `Rc` sneaking back into an engine — fails this
/// test at compile time.
#[test]
fn parallel_shard_types_are_send_clean() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Session>();
    assert_send::<cabt_platform::SocBus>();
    assert_send::<cabt_platform::SocBusState>();
    assert_send::<cabt_platform::SharedSocBus>();
    assert_sync::<cabt_platform::SharedSocBus>();
    assert_send::<cabt_platform::ShardArbiter>();
    assert_send::<Box<dyn cabt_platform::SocPeripheral>>();
    assert_send::<Simulator>();
    assert_send::<cabt::rtlsim::RtlCore>();
    assert_send::<Platform>();
    // One program serves every shard of a set, on any worker.
    assert_send::<cabt_tricore::sim::GoldenProgram>();
    assert_sync::<cabt_tricore::sim::GoldenProgram>();
    assert_send::<cabt_vliw::sim::VliwProgram>();
    assert_sync::<cabt_vliw::sim::VliwProgram>();
}

// --- NoC-scale cases: 64- and 256-shard fabrics ----------------------

/// The tentpole claim at NoC scale: a 64-shard producer/consumer run is
/// bit-identical across the schedules, and the pooled run is
/// *correct* (every consumer sees the producer's checksum through the
/// barrier-exchanged scratch RAM).
#[test]
fn noc_scale_64_shard_fabric_is_schedule_independent() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let base = Backend::golden();
    let drive = |schedule: ShardSchedule| {
        let mut s = build(&w, 64, base, schedule);
        let stop = s.run_until(BUDGET).expect("runs");
        assert_eq!(stop, StopCause::Halted, "{schedule:?}");
        digest_session(&mut s, stop)
    };
    let seq = drive(ShardSchedule::Sequential);
    assert_eq!(
        seq,
        drive(ShardSchedule::Pooled(2)),
        "64x parallel diverged from sequential"
    );
    assert_eq!(
        seq,
        drive(ShardSchedule::Pooled(4)),
        "64x pooled diverged from sequential"
    );

    let mut s = build(&w, 64, base, ShardSchedule::Pooled(4));
    assert_eq!(s.run_until(BUDGET).unwrap(), StopCause::Halted);
    for i in 0..64 {
        assert_eq!(
            s.shard(i).unwrap().read_d(2),
            w.expected_d2,
            "pooled 64x core {i}: barrier handoff"
        );
    }
    assert_eq!(s.sharded_stats().unwrap().uart.len(), 64);
}

/// The widest fabric: 256 producer/consumer shards on the golden and
/// translated cores, bit-identical between the sequential schedule and
/// a 4-worker pool, and correct on every shard.
#[test]
fn noc_scale_256_shard_fabric_is_schedule_independent() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    for base in [Backend::golden(), Backend::translated(DetailLevel::Static)] {
        let drive = |schedule: ShardSchedule| {
            let mut s = build(&w, 256, base, schedule);
            let stop = s.run_until(BUDGET).expect("runs");
            assert_eq!(stop, StopCause::Halted, "256x{base} {schedule:?}");
            for i in 0..256 {
                assert_eq!(
                    s.shard(i).unwrap().read_d(2),
                    w.expected_d2,
                    "256x{base} {schedule:?} core {i}: barrier handoff"
                );
            }
            assert_eq!(s.sharded_stats().unwrap().uart.len(), 256);
            digest_session(&mut s, stop)
        };
        assert_eq!(
            drive(ShardSchedule::Sequential),
            drive(ShardSchedule::Pooled(4)),
            "256x{base} pooled diverged from sequential"
        );
    }
}

/// Live migration: parking one shard at an epoch barrier mid-run and
/// adopting it back — even onto the *other* dispatch core — must
/// replay bit-identically against an uninterrupted run. The adopted
/// shard keeps its arbiter bus slot, so the barrier fabric never
/// notices the rebuild.
#[test]
fn mid_run_shard_migration_replays_bit_identically() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let cores = 64u16;
    let schedule = ShardSchedule::Pooled(4);

    let mut reference = build(&w, cores, Backend::golden(), schedule);
    let stop = reference.run_until(BUDGET).expect("reference runs");
    assert_eq!(stop, StopCause::Halted);
    let want = digest_session(&mut reference, stop);

    // Same-backend migration, and a dispatch-tier migration onto the
    // trace core (the envelope carries the donor's warm-up of 0) — both
    // must be invisible to the digest.
    for target in [None, Some(Backend::golden_trace())] {
        let mut s = build(&w, cores, Backend::golden(), schedule);
        // Two full epochs in: a barrier point, every shard at the same
        // deadline.
        s.run_until(Limit::Cycles(8192)).expect("partial run");
        let parked = s.park_shard(13).expect("shard 13 parks");
        s.adopt_shard(13, &parked, target)
            .expect("shard 13 adopts back");
        let stop = s.run_until(BUDGET).expect("resumes after migration");
        assert_eq!(stop, StopCause::Halted);
        assert_eq!(
            digest_session(&mut s, stop),
            want,
            "migration (target {target:?}) diverged from the uninterrupted run"
        );
    }

    // Sharding does not nest: a sharded adoption target is refused.
    let mut s = build(&w, 2, Backend::golden(), schedule);
    s.run_until(Limit::Cycles(4096)).expect("partial run");
    let parked = s.park_shard(0).expect("parks");
    assert!(
        s.adopt_shard(0, &parked, Some(Backend::sharded(2, Backend::golden())))
            .is_err(),
        "nested sharded adoption must be rejected"
    );
}

/// The doorbell-mailbox SPMD program: an all-to-all over the CoreLink
/// fabric touching no shared RAM, at the full 64-shard scale. Every
/// core must converge on the all-reduce total, identically under every
/// schedule.
#[test]
fn mailbox_all_to_all_converges_at_64_shards() {
    let w = cabt_workloads::mailbox(64);
    assert_schedules_agree("mailbox", &w, 64, Backend::golden(), BUDGET);

    let mut s = build(&w, 64, Backend::golden(), ShardSchedule::Pooled(4));
    assert_eq!(s.run_until(BUDGET).unwrap(), StopCause::Halted);
    for i in 0..64 {
        assert_eq!(
            s.shard(i).unwrap().read_d(2),
            w.expected_d2,
            "core {i}: doorbell all-reduce"
        );
    }
}

/// The mailbox program across the MMIO-capable bases at a small core
/// count — the CoreLink window must behave identically on the golden
/// model and both translated dispatch cores.
#[test]
fn mailbox_runs_on_every_mmio_capable_base() {
    let w = cabt_workloads::mailbox(4);
    for base in [
        Backend::golden(),
        Backend::golden_trace(),
        Backend::translated(DetailLevel::Static),
        Backend::Translated {
            level: DetailLevel::Static,
            naive: true,
        },
    ] {
        assert_schedules_agree("mailbox", &w, 4, base, BUDGET);
        let mut s = build(&w, 4, base, ShardSchedule::Pooled(2));
        assert_eq!(s.run_until(BUDGET).unwrap(), StopCause::Halted, "{base}");
        for i in 0..4 {
            assert_eq!(s.shard(i).unwrap().read_d(2), w.expected_d2, "{base}/{i}");
        }
    }
}

/// Private buses are the isolation the determinism proof rests on: no
/// two shards of a session may alias one underlying `SocBus`.
#[test]
fn shard_buses_are_private_to_each_shard() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let s = build(
        &w,
        4,
        Backend::translated(DetailLevel::Static),
        ShardSchedule::Pooled(2),
    );
    let handles: Vec<cabt_platform::SharedSocBus> = (0..4)
        .map(|i| {
            s.shard(i)
                .unwrap()
                .soc_bus_handle()
                .expect("translated shards carry a bus")
        })
        .collect();
    for (i, a) in handles.iter().enumerate() {
        for (j, b) in handles.iter().enumerate().skip(i + 1) {
            assert!(
                !a.same_bus(b),
                "shards {i} and {j} alias one bus — cross-thread aliasing"
            );
        }
    }
}

// --- Stop independence: barriers fall where the epoch puts them ------

/// What every way of driving a sharded session to its halt must
/// reproduce of one run straight to halt.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// [`fingerprint_engine`] of every shard, in shard order.
    shards: Vec<u64>,
    aggregate: cabt_exec::EngineStats,
    epochs: u64,
    bus_transactions: u64,
    devices: Option<cabt_platform::SocBusState>,
}

fn outcome(s: &Session) -> Outcome {
    let st = s.sharded_stats().expect("sharded session");
    Outcome {
        shards: (0..s.shard_count())
            .map(|i| fingerprint_engine(s.shard(i).expect("shard")))
            .collect(),
        aggregate: st.aggregate,
        epochs: st.epochs,
        bus_transactions: st.bus_transactions,
        devices: s.soc_bus_state(),
    }
}

/// Cycles per chunk of the chunked drive: prime, so chunk ends fall
/// inside epochs.
const CYCLE_STRIDE: u64 = 997;
/// Aggregate retirements per chunk of the retirement-chunked drive.
const RETIREMENT_STRIDE: u64 = 1009;

/// Runs `s` under successive budgets until it halts.
fn run_in_chunks(s: &mut Session, chunk: impl Fn(u64) -> Limit, what: &str) {
    for k in 1..=10_000 {
        if s.run(chunk(k)).expect("runs") == StopCause::Halted {
            return;
        }
    }
    panic!("{what}: no halt after 10,000 chunks");
}

/// The shard fingerprints seen at every barrier of `s` run on `pool`
/// through [`Session::spawn_on`] under each of `limits` in turn, and
/// the session afterwards.
fn barrier_digests(pool: &FleetPool, mut s: Session, limits: &[Limit]) -> (Session, Vec<Vec<u64>>) {
    let mut seen = Vec::new();
    for &limit in limits {
        let (tx, rx) = std::sync::mpsc::channel();
        let record = |seen: &mut Vec<Vec<u64>>, shards: &[&Session]| {
            seen.push(shards.iter().map(|s| fingerprint_engine(*s)).collect());
        };
        s.spawn_on(pool, limit, seen, record, move |ran| {
            let _ = tx.send(ran);
        });
        let (session, _, digests) = rx.recv().expect("the run reports").expect("runs");
        (s, seen) = (session, digests);
    }
    (s, seen)
}

/// Every way of getting a shard set from its start to its halt — one
/// run, single steps, cycle chunks, retirement chunks, a park and
/// resume, a shard parked and adopted back, and a cycle budget that
/// ends on the first shard's halt — must reach the straight run's
/// per-shard states, aggregate counters, epoch count, bus traffic and
/// canonical device state: where a run stops never moves a barrier.
/// Through `spawn_on`, the budget that stops on a halt also leaves the
/// shard digests seen at every barrier as they were.
#[test]
fn barriers_fall_where_the_epoch_puts_them_however_the_run_is_driven() {
    let pool = FleetPool::new(2);
    let mut sets: Vec<(&str, u16)> = cabt_workloads::names().map(|n| (n, 2)).collect();
    sets.extend([("producer_consumer", 4), ("mailbox", 4)]);
    let bases = [
        "golden",
        "golden:trace",
        "translated:cache",
        "translated:cache:naive",
    ];
    for (name, cores) in sets {
        for base in bases {
            let base: Backend = base.parse().expect("descriptor");
            for schedule in [ShardSchedule::Sequential, ShardSchedule::Pooled(2)] {
                let backend = Backend::sharded_with_schedule(cores, base, schedule);
                let what = format!("{name} on {backend}");
                let build = || {
                    SimBuilder::named(name)
                        .backend(backend)
                        .build()
                        .unwrap_or_else(|e| panic!("{what}: {e}"))
                };
                let mut straight = build();
                assert_eq!(straight.run(BUDGET), Ok(StopCause::Halted), "{what}");
                let want = outcome(&straight);
                let per_shard = straight.sharded_stats().expect("sharded").per_shard;
                let first_halt = per_shard.iter().map(|s| s.cycles).min().expect("shards");

                let mut s = build();
                while !s.is_halted() {
                    s.step().expect("steps");
                }
                assert_eq!(outcome(&s), want, "{what}: stepped to halt");

                let mut s = build();
                run_in_chunks(&mut s, |k| Limit::Cycles(k * CYCLE_STRIDE), &what);
                assert_eq!(outcome(&s), want, "{what}: {CYCLE_STRIDE}-cycle chunks");

                let mut s = build();
                run_in_chunks(&mut s, |k| Limit::Retirements(k * RETIREMENT_STRIDE), &what);
                assert_eq!(outcome(&s), want, "{what}: retirement chunks");

                let mut s = build();
                s.run(Limit::Retirements(want.aggregate.retired / 2))
                    .expect("runs");
                let mut s = Session::resume(&s.park().expect("parks")).expect("resumes");
                assert_eq!(s.run(BUDGET), Ok(StopCause::Halted), "{what}");
                assert_eq!(outcome(&s), want, "{what}: parked and resumed mid-run");

                let mut s = build();
                s.run(Limit::Cycles(want.aggregate.cycles / 2))
                    .expect("runs");
                let last = s.shard_count() - 1;
                let parked = s.park_shard(last).expect("parks a shard");
                s.adopt_shard(last, &parked, None).expect("adopts it back");
                assert_eq!(s.run(BUDGET), Ok(StopCause::Halted), "{what}");
                assert_eq!(
                    outcome(&s),
                    want,
                    "{what}: shard parked and adopted mid-run"
                );

                let (s, straight_digests) = barrier_digests(&pool, build(), &[BUDGET]);
                assert_eq!(outcome(&s), want, "{what}: spawned on a pool");
                let cut = [Limit::Cycles(first_halt), BUDGET];
                let (s, cut_digests) = barrier_digests(&pool, build(), &cut);
                assert_eq!(outcome(&s), want, "{what}: stopped on a halt");
                assert_eq!(cut_digests, straight_digests, "{what}: barrier digests");
            }
        }
    }
}
