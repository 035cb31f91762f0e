//! Differential proof of the trait-level snapshot capability:
//! `snapshot → run N → restore → run N` must be bit-identical —
//! registers, memory, `EngineStats`, cycle count, pc — on both
//! compiled dispatch cores (golden model and VLIW target, each also on
//! its naive core) and on the RTL core. The snapshot is taken
//! mid-flight, so pending pipeline state (delayed write-backs, branch
//! shadows, cache contents, timing state) is covered, not just
//! architectural registers.

use cabt::prelude::*;
use cabt_exec::fingerprint_engine;
use cabt_exec::trace::{TraceConfig, TracePlan, TraceState, MAX_TRACE_BLOCKS};
use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use cabt_isa::elf::SectionKind;
use cabt_rtlsim::RtlCore;
use cabt_sim::ShardBackend;
use cabt_tricore::sim::DispatchMode;
use cabt_vliw::sim::{VliwDispatch, VliwSim};

const SRC: &str = "
    .text
_start:
    movh.a %a2, hi:arr
    lea  %a2, [%a2]lo:arr
    mov  %d0, 6
    mov.a %a3, %d0
    mov  %d2, 0
sum:
    ld.w %d1, [%a2+]4
    add  %d2, %d1
    st.w [%a2]-4, %d2
    loop %a3, sum
    debug
    .data
arr: .word 3, 1, 4, 1, 5, 9
";

/// Every observable the trait exposes, plus the given memory windows.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    regs: Vec<u32>,
    stats: cabt::exec::EngineStats,
    cycle: u64,
    pc: Option<u32>,
    halted: bool,
    mem: Vec<Vec<u8>>,
}

fn observe<E: ExecutionEngine>(e: &mut E, windows: &[(u32, usize)]) -> Observed {
    Observed {
        regs: (0..e.reg_count()).map(|i| e.read_reg_index(i)).collect(),
        stats: e.engine_stats(),
        cycle: e.cycle(),
        pc: e.pc(),
        halted: e.is_halted(),
        mem: windows
            .iter()
            .map(|&(addr, len)| e.read_mem(addr, len).expect("readable"))
            .collect(),
    }
}

/// The engine's state image.
fn save<E: ExecutionEngine>(e: &E) -> Vec<u8> {
    let mut image = Vec::new();
    e.save_state(&mut image);
    image
}

/// Loads `image` into `e`, which must accept it.
fn load<E: ExecutionEngine>(e: &mut E, image: &[u8]) {
    e.load_state(&mut ByteReader::new(image))
        .expect("the image loads");
}

/// The differential core: run `k` units, snapshot, run `n` more,
/// observe, restore, run `n` again, and demand identical observables
/// after both replays.
fn diff_snapshot<E: ExecutionEngine>(label: &str, e: &mut E, k: u64, n: u64, win: &[(u32, usize)]) {
    assert_eq!(
        e.run_until(Limit::Retirements(k)).expect("runs"),
        StopCause::LimitReached,
        "{label}: warm-up must not halt (pick a smaller k)"
    );
    // Block-granular engines (the trace tiers) may overshoot a
    // retirement budget into the end of the current unit; the snapshot
    // contract is about rewinding to wherever the warm-up *actually*
    // stopped.
    let at = e.engine_stats().retired;
    assert!(at >= k, "{label}: warm-up fell short of its budget");
    let snap = save(e);
    e.run_until(Limit::Retirements(k + n)).expect("runs");
    let first = observe(e, win);
    load(e, &snap);
    assert_eq!(
        e.engine_stats().retired,
        at,
        "{label}: restore must rewind the retirement counter"
    );
    e.run_until(Limit::Retirements(k + n)).expect("replays");
    let second = observe(e, win);
    assert_eq!(first, second, "{label}: replay diverged");

    // And a restored engine replays all the way to the same halt.
    load(e, &snap);
    e.run_until(Limit::Cycles(u64::MAX))
        .expect("replays to halt");
    let end1 = observe(e, win);
    load(e, &snap);
    e.run_until(Limit::Cycles(u64::MAX))
        .expect("replays to halt");
    let end2 = observe(e, win);
    assert_eq!(end1, end2, "{label}: halt replay diverged");
    assert!(end1.halted, "{label}: replay must reach the halt");
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

#[test]
fn golden_model_snapshot_is_bit_identical_in_every_dispatch_mode() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    // The compiled core runs twice: one instruction per step (warm-up 0,
    // no trace state) and with aggressive formation, so the snapshot/restore
    // straddles fused-trace dispatch (the tier is architecturally
    // invisible, so restore need not rewind the profile — replay must
    // still be bit-identical).
    for (mode, warmup) in [
        (DispatchMode::Trace, 0),
        (DispatchMode::Trace, 1_000_000),
        (DispatchMode::Naive, 1_000_000),
    ] {
        let mut sim = Simulator::new(&elf).unwrap();
        sim.set_trace_config(TraceConfig {
            warmup,
            hot_threshold: 2,
        });
        sim.set_dispatch(mode);
        let label = format!("golden/{mode:?}/warm-up {warmup}");
        diff_snapshot(&label, &mut sim, 7, 9, &win);
    }
}

#[test]
fn vliw_core_snapshot_is_bit_identical_in_both_dispatch_modes() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    for level in [DetailLevel::Static, DetailLevel::Cache] {
        let t = Translator::new(level).translate(&elf).unwrap();
        for mode in [VliwDispatch::Trace, VliwDispatch::Naive] {
            let mut sim = VliwSim::instantiate(t.program().unwrap());
            sim.set_dispatch(mode);
            // Snapshot inside the program: loads in flight, branch
            // shadows pending.
            let label = format!("vliw/{level}/{mode:?}");
            diff_snapshot(&label, &mut sim, 11, 17, &win);
        }
    }
}

#[test]
fn rtl_core_snapshot_is_bit_identical() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    let mut core = RtlCore::new(&elf).unwrap();
    diff_snapshot("rtl", &mut core, 7, 9, &win);
}

/// `e`, run to `k` units, saves an image, runs `n` more and must then
/// refuse each of `foreign` and of that image cut short (at its last
/// byte, its middle and its first): every load is an `Err` and leaves
/// the engine as it was — the same fingerprint, counters and image.
/// Had a load committed part of the earlier image, the engine would
/// have moved.
fn refuses<E: ExecutionEngine>(
    label: &str,
    e: &mut E,
    k: u64,
    n: u64,
    foreign: &[(&str, Vec<u8>)],
) {
    e.run_until(Limit::Retirements(k)).expect("runs");
    let early = save(e);
    e.run_until(Limit::Retirements(k + n)).expect("runs");
    let before = (fingerprint_engine(e), e.engine_stats(), save(e));
    assert_ne!(before.2, early, "{label}: the engine did not move");
    let cuts = [early.len() - 1, early.len() / 2, 1];
    let truncated = cuts.map(|at| (format!("truncated at {at}"), early[..at].to_vec()));
    let foreign = foreign
        .iter()
        .map(|(what, image)| (what.to_string(), image.clone()));
    for (what, image) in truncated.into_iter().chain(foreign) {
        let loaded = e.load_state(&mut ByteReader::new(&image));
        assert!(loaded.is_err(), "{label}: a {what} image loads");
        let after = (fingerprint_engine(e), e.engine_stats(), save(e));
        assert!(
            after == before,
            "{label}: refusing a {what} image changed the engine"
        );
    }
}

/// An image that does not fit an engine over [`SRC`]: a mid-run image
/// of [`SRC`] on another engine kind (`golden`, `vliw`, `rtl`), or of
/// `sieve` on the same kind — on the golden model 1500 instructions in,
/// at table index 20, past [`SRC`]'s table (`sieve golden`), on the
/// VLIW core 12 packets in, with a branch pending into packet 145, past
/// [`SRC`]'s last (`sieve vliw`). An engine image names neither its kind nor its
/// program, so each is refused by the first field that does not fit.
fn foreign(kind: &'static str) -> (&'static str, Vec<u8>) {
    let (elf, k) = match kind {
        "sieve golden" => (
            cabt_workloads::by_name("sieve").unwrap().elf().unwrap(),
            1500,
        ),
        "sieve vliw" => (cabt_workloads::by_name("sieve").unwrap().elf().unwrap(), 12),
        _ => (assemble(SRC).unwrap(), 9),
    };
    let image = match kind {
        "golden" | "sieve golden" => {
            let mut sim = Simulator::new(&elf).unwrap();
            sim.run_until(Limit::Retirements(k)).unwrap();
            save(&sim)
        }
        "vliw" | "sieve vliw" => {
            let t = Translator::new(DetailLevel::Cache).translate(&elf).unwrap();
            let mut sim = VliwSim::instantiate(t.program().unwrap());
            sim.run_until(Limit::Retirements(k)).unwrap();
            save(&sim)
        }
        "rtl" => {
            let mut core = RtlCore::new(&elf).unwrap();
            core.run_until(Limit::Retirements(k)).unwrap();
            save(&core)
        }
        _ => unreachable!("no {kind} image"),
    };
    (kind, image)
}

#[test]
fn golden_load_state_refuses_truncated_and_foreign_images() {
    let elf = assemble(SRC).unwrap();
    for (mode, warmup) in [
        (DispatchMode::Trace, 0),
        (DispatchMode::Trace, 1_000_000),
        (DispatchMode::Naive, 0),
    ] {
        let mut sim = Simulator::new(&elf).unwrap();
        sim.set_trace_config(TraceConfig {
            warmup,
            hot_threshold: 2,
        });
        sim.set_dispatch(mode);
        let label = format!("golden/{mode:?}/warm-up {warmup}");
        let images = [foreign("vliw"), foreign("sieve golden")];
        refuses(&label, &mut sim, 5, 9, &images);
    }
}

#[test]
fn vliw_load_state_refuses_truncated_and_foreign_images() {
    let elf = assemble(SRC).unwrap();
    let t = Translator::new(DetailLevel::Cache).translate(&elf).unwrap();
    for mode in [VliwDispatch::Trace, VliwDispatch::Naive] {
        let mut sim = VliwSim::instantiate(t.program().unwrap());
        sim.set_dispatch(mode);
        let images = [foreign("rtl"), foreign("sieve vliw")];
        refuses(&format!("vliw/{mode:?}"), &mut sim, 5, 9, &images);
    }
}

#[test]
fn rtl_load_state_refuses_truncated_and_foreign_images() {
    let elf = assemble(SRC).unwrap();
    let mut core = RtlCore::new(&elf).unwrap();
    refuses(
        "rtl",
        &mut core,
        5,
        9,
        &[foreign("golden"), foreign("vliw")],
    );
}

/// Sessions refuse like the engines they drive: each shape refuses its
/// own image cut short and another vehicle's session image, and is left
/// as it was — engine, synchronization device, devices and every shard.
/// Cut by its last byte, an image loses only the device row that closes
/// it, after every engine image in it has loaded.
#[test]
fn session_load_state_refuses_truncated_and_foreign_images() {
    let session = |descriptor: &str| {
        SimBuilder::asm(SRC)
            .backend(descriptor.parse().unwrap())
            .build()
            .unwrap()
    };
    for (shape, other) in [
        ("golden", "translated:cache"),
        ("golden:trace", "rtl"),
        ("translated:cache", "golden"),
        ("rtl", "sharded-2x:golden"),
        ("sharded-2x:golden", "golden"),
        ("sharded-2x-pool2:translated:cache", "sharded-2x:golden"),
    ] {
        let mut donor = session(other);
        donor.run_until(Limit::Retirements(9)).unwrap();
        refuses(shape, &mut session(shape), 5, 9, &[(other, save(&donor))]);
    }
}

#[test]
fn rtl_core_reset_restores_the_initial_snapshot() {
    let elf = assemble(SRC).unwrap();
    let win = data_windows(&elf);
    let mut core = RtlCore::new(&elf).unwrap();
    core.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let first = observe(&mut core, &win);
    assert!(first.halted);
    core.reset();
    assert_eq!(core.cycle(), 0, "reset rewinds the clock");
    assert_eq!(core.engine_stats().retired, 0);
    assert!(!ExecutionEngine::is_halted(&core));
    core.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let second = observe(&mut core, &win);
    assert_eq!(first, second, "reset + rerun reproduces the run");
}

/// A timer+UART driver: three rounds of delay-spin, timer read,
/// transmit, timer-epoch reset — every peripheral the default bus has
/// state in gets touched repeatedly.
const TIMER_UART_SRC: &str = "
    .text
_start:
    movh.a %a2, 0xf000          # timer at the I/O base
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100      # uart
    mov    %d6, 3
round:
    mov    %d0, 40
spin:
    addi   %d0, %d0, -1
    jnz    %d0, spin
    ld.w   %d1, [%a2]0          # timer count since last epoch reset
    st.w   [%a3]0, %d1          # transmit its low byte (timestamped)
    st.w   [%a2]12, %d0         # reset the timer epoch
    addi   %d6, %d6, -1
    jnz    %d6, round
    debug
";

/// Session snapshots carry the SoC peripherals: a restore-replay of a
/// device-driving program repeats the *device* behaviour bit-identically
/// — same UART log length, same byte values, same SoC-cycle timestamps,
/// same timer reads. Before the peripheral state hook, the replay
/// double-logged every UART byte and read timer counts against a stale
/// epoch.
#[test]
fn peripheral_state_replays_bit_identically() {
    for backend in [
        Backend::translated(DetailLevel::Static),
        Backend::translated(DetailLevel::Cache),
    ] {
        let mut s = SimBuilder::asm(TIMER_UART_SRC)
            .backend(backend)
            .platform(PlatformConfig::default())
            .build()
            .unwrap();
        // Into the middle of round two: one byte logged, one epoch reset
        // behind us.
        s.run_until(Limit::Retirements(150)).unwrap();
        let snap = save(&s);
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let first = s.platform_stats().unwrap();
        assert_eq!(first.uart.len(), 3, "{backend}: three rounds transmit");

        load(&mut s, &snap);
        let mid = s.platform_stats().unwrap();
        assert!(
            mid.uart.len() < 3,
            "{backend}: restore must rewind the UART log, got {:?}",
            mid.uart
        );
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let second = s.platform_stats().unwrap();
        assert_eq!(
            first, second,
            "{backend}: peripheral replay diverged (UART bytes/timestamps or timer state)"
        );
        assert_eq!(s.stats(), {
            load(&mut s, &snap);
            s.run_until(Limit::Cycles(u64::MAX)).unwrap();
            s.stats()
        });
    }
}

/// The golden bridge clocks peripherals with the golden core's *cycle
/// count*, not a per-access counter — so a timer read after a delay
/// loop sees (approximately) the same SoC time on the golden model as
/// on the translated platform, whose peripherals are clocked by the
/// generated-cycle count reproducing that same source clock.
#[test]
fn golden_and_translated_timers_agree() {
    const TIMER_READ_SRC: &str = "
        .text
    _start:
        movh.a %a2, 0xf000
        mov    %d0, 300
    spin:
        addi   %d0, %d0, -1
        jnz    %d0, spin
        ld.w   %d3, [%a2]0
        debug
    ";
    let mut golden = SimBuilder::asm(TIMER_READ_SRC).build().unwrap();
    golden.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let bus = golden
        .soc_bus_handle()
        .expect("a golden session owns a bus");
    assert_eq!(bus.transactions(), 1, "the timer read reached the bus");
    let g = golden.read_d(3);
    assert!(
        g > 300,
        "golden timer must see the delay loop's cycles, not an access count: {g}"
    );

    let mut translated = SimBuilder::asm(TIMER_READ_SRC)
        .backend(Backend::translated(DetailLevel::Cache))
        .platform(PlatformConfig::default())
        .build()
        .unwrap();
    translated.run_until(Limit::Cycles(u64::MAX)).unwrap();
    let t = translated.read_d(3);
    assert!(t > 300, "translated timer sees generated SoC time: {t}");

    let dev = (g as f64 - t as f64).abs() / g as f64;
    assert!(
        dev < 0.2,
        "timer parity: golden read {g}, translated read {t} ({:.1}% apart)",
        dev * 100.0
    );
}

/// Snapshots are *schedule-independent*: an image captured mid-flight
/// in a pooled sharded session restores into a sequential
/// session (and vice versa), and both replay to bit-identical state —
/// per-shard checksums, aggregate stats, merged UART log. A snapshot
/// pins simulation state, not the host schedule that produced it.
#[test]
fn sharded_snapshots_are_schedule_independent() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    for cores in [2u16, 4] {
        let build = |schedule: ShardSchedule| {
            SimBuilder::workload(&w)
                .backend(Backend::sharded_with_schedule(
                    cores,
                    Backend::translated(DetailLevel::Static),
                    schedule,
                ))
                .build()
                .unwrap()
        };
        // Run k epochs under the POOLED scheduler, snapshot
        // mid-handoff, finish pooled.
        let mut par = build(ShardSchedule::Pooled(2));
        par.run_until(Limit::Cycles(500)).unwrap();
        let snap = save(&par);
        par.run_until(Limit::Cycles(50_000_000)).unwrap();
        let end_par = par.sharded_stats().unwrap();
        let d2_par: Vec<u32> = (0..cores as usize)
            .map(|i| par.shard(i).unwrap().read_d(2))
            .collect();

        // Restore that image into a SEQUENTIAL session and replay.
        let mut seq = build(ShardSchedule::Sequential);
        load(&mut seq, &snap);
        assert!(seq.cycle() > 0, "restore lands mid-flight, not at reset");
        seq.run_until(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(
            seq.sharded_stats().unwrap(),
            end_par,
            "{cores} cores: sequential replay of a parallel snapshot diverged"
        );
        let d2_seq: Vec<u32> = (0..cores as usize)
            .map(|i| seq.shard(i).unwrap().read_d(2))
            .collect();
        assert_eq!(d2_seq, d2_par, "{cores} cores: replay checksums diverged");

        // And back the other way: the same image replays identically
        // under the pooled scheduler too.
        let mut par2 = build(ShardSchedule::Pooled(2));
        load(&mut par2, &snap);
        par2.run_until(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(par2.sharded_stats().unwrap(), end_par, "{cores} cores");
    }
}

/// The same capability through the session layer: sessions snapshot and
/// restore uniformly, whatever the backend.
#[test]
fn sessions_snapshot_uniformly_across_backends() {
    for backend in Backend::all() {
        let mut s = SimBuilder::asm(SRC).backend(backend).build().unwrap();
        s.run_until(Limit::Retirements(6)).unwrap();
        let snap = save(&s);
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let end = (s.stats(), s.read_d(2));
        load(&mut s, &snap);
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        assert_eq!((s.stats(), s.read_d(2)), end, "{backend}: replay diverged");
    }
}

/// The *portable* capability: `park` serializes a mid-run session to
/// versioned bytes, `resume` rebuilds it from nothing but those bytes —
/// on EVERY backend, with the resumed session finishing on a *different
/// thread* (a fleet pool worker) and matching the `fingerprint_engine`
/// digest of the uninterrupted run exactly. The bytes carry the full
/// rebuild recipe (backend descriptor, platform/trace configuration,
/// ELF image, snapshot payload); nothing is shared with the donor.
#[test]
fn parked_bytes_resume_bit_identically_on_every_backend() {
    use std::sync::{Arc, Mutex};
    let pool = FleetPool::new(2);
    for backend in Backend::all() {
        let mut donor = SimBuilder::asm(SRC).backend(backend).build().unwrap();
        donor.run_until(Limit::Retirements(6)).unwrap();
        let parked = donor.park().unwrap();
        donor.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let expected = (
            cabt::exec::fingerprint_engine(&donor),
            donor.stats(),
            donor.read_d(2),
        );

        let latch = Arc::new(cabt::fleet::Latch::new(1));
        let slot = Arc::new(Mutex::new(None));
        let (l2, s2) = (Arc::clone(&latch), Arc::clone(&slot));
        pool.spawn(move || {
            let mut resumed = Session::resume(&parked).expect("parked bytes decode");
            resumed
                .run_until(Limit::Cycles(u64::MAX))
                .expect("resumed session finishes");
            *s2.lock().unwrap() = Some((
                cabt::exec::fingerprint_engine(&resumed),
                resumed.stats(),
                resumed.read_d(2),
            ));
            l2.count_down();
        });
        latch.wait();
        let got = slot.lock().unwrap().take().expect("worker reported");
        assert_eq!(
            got, expected,
            "{backend}: resumed-on-a-worker run diverged from the uninterrupted one"
        );
    }
}

/// `parked` with its backend descriptor replaced by `backend`: the same
/// engine state, resumed on another dispatch core.
fn park_on(parked: &[u8], backend: Backend) -> Vec<u8> {
    // Magic (8 bytes) and version (2), then the length-prefixed
    // descriptor.
    let mut r = ByteReader::new(&parked[10..]);
    r.str("backend").expect("descriptor decodes");
    let rest = &parked[parked.len() - r.remaining()..];
    let mut out = parked[..10].to_vec();
    ByteWriter::new(&mut out).str(&backend.to_string());
    out.extend_from_slice(rest);
    out
}

/// A park taken at a compiled-tier `Limit::Retirements` boundary, right
/// after a packet that left results due but not yet committed: the
/// compiled tier holds such single-cycle results in its next-cycle
/// latch, and the park image carries them in the pending list, where
/// the naive core keeps its own. Resumed on the compiled tier and on
/// the naive core, both runs end bit-identical to the uninterrupted
/// one.
///
/// The name is from the retired VLIW trace tier and its pre-decoded
/// core; it stays so that recorded lists of test names keep matching.
#[test]
fn park_with_latched_results_resumes_on_trace_and_predecoded_cores() {
    let w = cabt::workloads::gcd(6, 11);
    let compiled = Backend::translated(DetailLevel::Cache);
    let build = || SimBuilder::workload(&w).backend(compiled).build().unwrap();
    let regs =
        |s: &Session| -> Vec<u32> { (0..s.reg_count()).map(|i| s.read_reg_index(i)).collect() };
    let finish = |mut s: Session| {
        assert_eq!(s.run(Limit::Cycles(u64::MAX)).unwrap(), StopCause::Halted);
        (fingerprint_engine(&s), s.stats(), s.read_d(2))
    };
    let expected = finish(build());
    assert_eq!(expected.2, w.expected_d2);

    // One packet per call: find the first boundary with results
    // pending (committing them would change the register file) and
    // park there, before probing.
    let mut donor = build();
    let parked = loop {
        let stop = donor.run_until(Limit::Retirements(donor.stats().retired + 1));
        assert_eq!(stop.unwrap(), StopCause::LimitReached, "no such boundary");
        let parked = donor.park().unwrap();
        let staged = regs(&donor);
        donor.commit_arch_state();
        if regs(&donor) != staged {
            break parked;
        }
    };
    let naive = Backend::Translated {
        level: DetailLevel::Cache,
        naive: true,
    };
    for backend in [compiled, naive] {
        let resumed = Session::resume(&park_on(&parked, backend)).expect("resumes");
        assert_eq!(resumed.backend(), backend);
        assert_eq!(finish(resumed), expected, "{backend}: resumed run diverged");
    }
}

/// A warm-up of 0 keeps no trace state. So `golden:trace` built with
/// one parks exactly the snapshot payload of `golden`, the compiled
/// tier at a warm-up of 0, at every stop point: only the descriptor and
/// the build-config bytes differ.
#[test]
fn warm_up_zero_parks_no_trace_state() {
    let w = cabt_workloads::by_name("fir").unwrap();
    let no_traces = TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    };
    let park = |backend: Backend, cfg: Option<TraceConfig>, at: u64| {
        let mut b = SimBuilder::workload(&w).backend(backend);
        if let Some(cfg) = cfg {
            b = b.trace_config(cfg);
        }
        let mut s = b.build().unwrap();
        s.run_until(Limit::Retirements(at)).unwrap();
        assert_eq!(s.trace_stats(), None, "{backend} at {at}: trace state");
        split_park(&s)
    };
    let (compiled, trace) = (Backend::golden(), Backend::golden_trace());
    for at in [0, 7, 50] {
        let (_, payload) = park(compiled, None, at);
        let (head, traced) = park(trace, Some(no_traces), at);
        assert_eq!(payload, traced, "{compiled} vs {trace} at {at}: payloads");
        // Under one build config the images differ in the descriptor
        // alone.
        let (same_config, _) = park(compiled, Some(no_traces), at);
        assert_eq!(
            park_on(&[same_config, payload].concat(), trace),
            [head, traced].concat(),
            "{compiled} vs {trace} at {at}: images"
        );
    }
}

/// Version safety of the portable format: a flipped magic and a bumped
/// version header are both rejected with typed errors — a future format
/// revision can never be misparsed as the current one.
#[test]
fn park_header_rejects_foreign_and_future_images() {
    use cabt_isa::codec::CodecError;

    let mut s = SimBuilder::asm(SRC).build().unwrap();
    s.run_until(Limit::Retirements(6)).unwrap();
    let good = s.park().unwrap();
    assert!(Session::resume(&good).is_ok(), "the pristine image resumes");

    // Bytes 0..8 are the magic.
    let mut foreign = good.clone();
    foreign[0] ^= 0xff;
    assert!(
        matches!(
            Session::resume(&foreign),
            Err(SessionError::Codec(CodecError::BadMagic))
        ),
        "foreign magic must be rejected"
    );

    // Bytes 8..10 are the little-endian format version.
    let mut future = good.clone();
    future[8] = future[8].wrapping_add(1);
    match Session::resume(&future) {
        Err(SessionError::Codec(CodecError::Version { found, expected })) => {
            assert_eq!(expected, cabt::sim::PARK_VERSION);
            assert_ne!(found, expected);
        }
        other => panic!("future version must be rejected, got {other:?}"),
    }

    // Truncation anywhere is a typed decode error, never a panic.
    for cut in [5, 9, good.len() / 2, good.len() - 1] {
        assert!(
            matches!(Session::resume(&good[..cut]), Err(SessionError::Codec(_))),
            "truncated at {cut}: must fail to decode"
        );
    }
}

/// Re-encodes `parked` (whose payload ends with `devices`, its SoC bus
/// image) once per known-bad device corruption: a dropped device image,
/// the Timer and UART images truncated to 3 bytes, and a scratch-RAM
/// journal count of `u64::MAX`. Every variant keeps a well-formed
/// envelope, so only the device restore can object.
fn corrupt_device_parks(parked: &[u8], devices: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    assert!(parked.ends_with(devices), "the bus image closes the park");
    let head = &parked[..parked.len() - devices.len()];
    // Default device population: Timer, UART, scratch RAM, CoreLink.
    let mut r = ByteReader::new(devices);
    let n = r.count("device images", 8).unwrap();
    let images: Vec<Vec<u8>> = (0..n).map(|_| r.bytes("image").unwrap().to_vec()).collect();
    let transactions = r.u64().unwrap();
    let repark = |images: &[Vec<u8>]| {
        let mut out = head.to_vec();
        let mut w = ByteWriter::new(&mut out);
        w.u64(images.len() as u64);
        images.iter().for_each(|img| w.bytes(img));
        w.u64(transactions);
        out
    };
    assert_eq!(repark(&images), parked, "the split round-trips");
    let (mut timer, mut uart, mut ram) = (images.clone(), images.clone(), images.clone());
    timer[0].truncate(3);
    uart[1].truncate(3);
    ram[2][..8].fill(0xff);
    // A well-formed CoreLink image with one mailbox more than the
    // fabric has cores.
    let mut link = images.clone();
    let ninbox = u64::from_le_bytes(link[3][..8].try_into().unwrap());
    link[3][..8].copy_from_slice(&(ninbox + 1).to_le_bytes());
    link[3].splice(8..8, [0; 4]);
    vec![
        ("device image dropped", repark(&images[..n - 1])),
        ("Timer image truncated", repark(&timer)),
        ("UART image truncated", repark(&uart)),
        ("scratch-RAM journal count corrupt", repark(&ram)),
        ("CoreLink inbox length ≠ core count", repark(&link)),
    ]
}

/// A well-framed park whose device images do not decode is a typed
/// error on both untrusted restore paths — `Session::resume` and
/// `Session::adopt_shard` — never a panic; a refused adoption leaves
/// the run it was aimed at untouched.
#[test]
fn corrupt_device_images_are_codec_errors_not_panics() {
    let translated = || {
        SimBuilder::asm(TIMER_UART_SRC)
            .backend(Backend::translated(DetailLevel::Cache))
            .platform(PlatformConfig::default())
    };
    let mut s = translated().build().unwrap();
    s.run_until(Limit::Retirements(150)).unwrap();
    let parked = s.park().unwrap();
    let devices = s.soc_bus_state().expect("translated sessions own a bus");
    for (what, bytes) in corrupt_device_parks(&parked, &devices) {
        assert!(
            matches!(Session::resume(&bytes), Err(SessionError::Codec(_))),
            "resume: {what}"
        );
    }

    // Park shard 1 early, let traffic move its devices on, then offer
    // the stale corrupt images: a partial restore would rewind the
    // devices decoded before the bad one. Barriers land on run-call
    // boundaries, so the reference makes the same calls.
    let drive = |offer_corrupt: bool| {
        let mut s = translated()
            .backend(Backend::sharded(2, Backend::translated(DetailLevel::Cache)))
            .build()
            .unwrap();
        s.run_until(Limit::Cycles(500)).unwrap();
        let parked = s.park_shard(1).unwrap();
        let devices = s.shard(1).unwrap().soc_bus_state().expect("shard bus");
        s.run_until(Limit::Cycles(4_500)).unwrap();
        if offer_corrupt {
            for (what, bytes) in corrupt_device_parks(&parked, &devices) {
                assert!(
                    matches!(s.adopt_shard(1, &bytes, None), Err(SessionError::Codec(_))),
                    "adopt_shard: {what}"
                );
            }
            // A whole, valid park with one byte more: the shard and its
            // bus load it all before the trailing byte is found.
            let trailing = [&parked[..], &[0]].concat();
            assert!(
                matches!(
                    s.adopt_shard(1, &trailing, None),
                    Err(SessionError::Codec(CodecError::TrailingBytes {
                        remaining: 1
                    }))
                ),
                "adopt_shard: a trailing byte"
            );
        }
        s.run_until(Limit::Cycles(u64::MAX)).unwrap();
        let devices = s.soc_bus_state();
        (fingerprint_engine(&s), s.sharded_stats(), devices)
    };
    assert!(
        drive(true) == drive(false),
        "refused adoptions must not disturb the run"
    );
}

/// The golden pipeline image carries the open dual-issue slot's write
/// set as two register bytes and a count. A park whose count or
/// register byte is out of range is a typed codec error on resume,
/// not a panic on the next load/store.
#[test]
fn corrupt_golden_pair_slot_is_a_codec_error_not_a_panic() {
    let mut s = SimBuilder::asm(SRC).build().unwrap();
    // `mov %d2, 0` is the fifth instruction: an integer-pipe op that
    // leaves its slot open for a load/store to pair into.
    s.run_until(Limit::Retirements(5)).unwrap();
    let parked = s.park().unwrap();
    // The pipeline image is followed by the present-cache flag and the
    // default geometry (16 sets, 2 ways, 32-byte lines, 8-cycle miss).
    let mut cache_head = vec![1u8];
    for v in [16u32, 2, 32, 8] {
        cache_head.extend_from_slice(&v.to_le_bytes());
    }
    let at: Vec<usize> = (1..parked.len())
        .filter(|&i| parked[i..].starts_with(&cache_head))
        .collect();
    assert_eq!(at.len(), 1, "the cache image starts once");
    let count = at[0] - 1;
    assert_eq!(parked[count - 11], 1, "the pair slot is open");
    assert_eq!(parked[count - 2..=count], [2, 0, 1], "slot writes d2 only");
    assert!(Session::resume(&parked).is_ok());
    for (at, byte) in [(count, 9), (count, 3), (count - 2, 32), (count - 2, 0xff)] {
        let mut bytes = parked.clone();
        bytes[at] = byte;
        assert!(
            matches!(Session::resume(&bytes), Err(SessionError::Codec(_))),
            "byte {byte} at {at}"
        );
    }
}

/// A shard parked on a fabric of one width does not fit a fabric of
/// another: its CoreLink inbox has one mailbox per donor core, so the
/// adoption is a typed codec error and the receiving slot is left as
/// it was.
#[test]
fn adopt_shard_refuses_a_shard_from_another_fabric_width() {
    let w = cabt_workloads::by_name("producer_consumer").unwrap();
    let build = |cores: u16| {
        let mut s = SimBuilder::workload(&w)
            .backend(Backend::sharded(cores, Backend::golden()))
            .build()
            .unwrap();
        s.run_until(Limit::Cycles(4096)).unwrap();
        s
    };
    let donor = build(2).park_shard(1).unwrap();
    let mut s = build(4);
    let before = s.park_shard(1).unwrap();
    assert!(matches!(
        s.adopt_shard(1, &donor, None),
        Err(SessionError::Codec(_))
    ));
    assert_eq!(s.park_shard(1).unwrap(), before, "slot 1 unchanged");
}

/// Every core transmits one byte per loop turn, 200 turns.
const UART_LOOP_SRC: &str = "
    .text
_start:
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100      # uart
    mov    %d6, 200
send:
    st.w   [%a3]0, %d6
    addi   %d6, %d6, -1
    jnz    %d6, send
    debug
";

/// A two-shard golden set running [`UART_LOOP_SRC`] on 64-cycle epochs,
/// its shard 1 image after 20 retirements, and the set run on to 600:
/// the early image's bus has fewer transactions and UART bytes than the
/// set's canonical state.
fn set_past_a_stale_shard() -> (Session, Vec<u8>, Vec<u8>) {
    let mut s = SimBuilder::asm(UART_LOOP_SRC)
        .backend(Backend::sharded(2, Backend::golden()))
        .shard_epoch(64)
        .build()
        .unwrap();
    s.run_until(Limit::Retirements(20)).unwrap();
    let parked = s.park_shard(1).unwrap();
    let image = save(s.shard(1).unwrap());
    s.run_until(Limit::Retirements(600)).unwrap();
    assert!(!s.is_halted(), "the set is still running");
    assert!(s.sharded_stats().unwrap().epochs > 1, "barriers passed");
    (s, parked, image)
}

/// A shard parked before the set's last barrier does not fit the set:
/// its bus counts fewer transactions and UART bytes than the canonical
/// state, whose views would count its traffic below zero. Adopting it
/// is a typed codec error that leaves the set as it was.
#[test]
fn adopt_shard_refuses_a_shard_older_than_the_canonical_devices() {
    let (mut s, parked, _) = set_past_a_stale_shard();
    let before = s.park().unwrap();
    assert!(matches!(
        s.adopt_shard(1, &parked, None),
        Err(SessionError::Codec(_))
    ));
    assert!(s.park().unwrap() == before, "the set is unchanged");
    assert_eq!(s.uart_log(), s.sharded_stats().unwrap().uart);
}

/// A set image whose shard 1 section comes from before the set's last
/// barrier is refused on both load paths, `Session::load_state` and
/// `Session::resume`, and the loading session is left as it was.
#[test]
fn set_images_with_a_stale_shard_section_are_refused() {
    let (mut s, _, early) = set_past_a_stale_shard();
    let (head, snap) = split_park(&s);
    let late = save(s.shard(1).unwrap());
    let at = 1 + 8 + save(s.shard(0).unwrap()).len();
    assert!(snap[at..].starts_with(&late), "shard 1's section");
    let stale = [&snap[..at], &early[..], &snap[at + late.len()..]].concat();
    let before = s.park().unwrap();
    assert!(s.load_state(&mut ByteReader::new(&stale)).is_err());
    assert!(s.park().unwrap() == before, "the set is unchanged");
    assert!(matches!(
        Session::resume(&[head, stale].concat()),
        Err(SessionError::Codec(_))
    ));
}

/// A golden session parks and resumes with its devices: the timer/UART
/// driver parked at 200 retirements and resumed ends with the UART log
/// and the last timer read (`%d1`) of the uninterrupted run.
#[test]
fn a_resumed_golden_session_keeps_its_devices() {
    let mut s = SimBuilder::asm(TIMER_UART_SRC).build().unwrap();
    s.run_until(Limit::Retirements(200)).unwrap();
    let parked = s.park().unwrap();
    s.run_until(Limit::Cycles(u64::MAX)).unwrap();
    assert_eq!(s.uart_log().len(), 3, "three rounds transmit");
    assert_eq!(s.read_d(1), 126, "the last round's timer read");
    let mut resumed = Session::resume(&parked).unwrap();
    resumed.run_until(Limit::Cycles(u64::MAX)).unwrap();
    assert_eq!(resumed.uart_log(), s.uart_log());
    assert_eq!(resumed.read_d(1), s.read_d(1));
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `s`'s park image split into the bytes before its session snapshot
/// and the snapshot itself, which closes the park.
fn split_park(s: &Session) -> (Vec<u8>, Vec<u8>) {
    let parked = s.park().unwrap();
    let snap = save(s);
    assert!(parked.ends_with(&snap), "the state image closes the park");
    (parked[..parked.len() - snap.len()].to_vec(), snap)
}

/// Offset of the trace tier's coverage counters (`traces`,
/// `trace_blocks`, `trace_retired`) in `s`'s snapshot image: the
/// anchor the trace state that they close is found from.
fn trace_stats_at(s: &Session, snap: &[u8]) -> usize {
    let t = s.trace_stats().expect("trace tier");
    assert!(t.traces > 0, "a trace has formed");
    let pattern: Vec<u8> = [t.traces, t.trace_blocks, t.trace_retired]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at: Vec<usize> = (0..snap.len())
        .filter(|&i| snap[i..].starts_with(&pattern))
        .collect();
    assert_eq!(at.len(), 1, "the coverage counters occur once");
    at[0]
}

/// The trace state in `s`'s snapshot image: where its image (presence
/// flag first) starts and ends, and the state itself.
fn trace_state_in(s: &Session, snap: &[u8]) -> (usize, usize, TraceState) {
    let end = trace_stats_at(s, snap) + 24;
    let found: Vec<_> = (0..end)
        .filter_map(|at| {
            let mut r = ByteReader::new(&snap[at..end]);
            let state = TraceState::decode(&mut r).ok()??;
            (r.remaining() == 0).then_some((at, state))
        })
        .collect();
    assert_eq!(found.len(), 1, "one trace state ends at the counters");
    let (at, state) = found.into_iter().next().unwrap();
    (at, end, state)
}

/// `snap` with the trace-state image at `at..end` re-encoded from
/// `state`.
fn with_state(snap: &[u8], at: usize, end: usize, state: &TraceState) -> Vec<u8> {
    let mut image = Vec::new();
    TraceState::encode_into(Some(state), &mut image);
    [&snap[..at], &image[..], &snap[end..]].concat()
}

/// Trace-tier snapshots whose formed traces could not have grown on the
/// program's block map: a plan naming a block past the map, a seam
/// flipped to the other edge, a plan longer than [`MAX_TRACE_BLOCKS`],
/// a plan filed under another head, and a plan table one entry short.
/// Each is well framed, so only the engine's check can object.
fn forged_plan_snaps(s: &Session, snap: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let (at, end, state) = trace_state_in(s, snap);
    assert_eq!(
        with_state(snap, at, end, &state),
        snap,
        "the state re-encodes"
    );
    let plans = &state.plans;
    let blocks = plans.len() as u32;
    let (head, plan) = plans
        .iter()
        .enumerate()
        .find_map(|(h, p)| p.as_ref().filter(|p| p.blocks.len() > 1).map(|p| (h, p)))
        .expect("a multi-block trace has formed");
    let forge = |plan: Option<TracePlan>, slot: usize| {
        let mut forged = state.clone();
        forged.plans[head] = None;
        forged.plans[slot] = plan;
        with_state(snap, at, end, &forged)
    };
    let mut out_of_range = plan.clone();
    *out_of_range.blocks.last_mut().unwrap() = blocks;
    let mut wrong_seam = plan.clone();
    wrong_seam.via_taken[0] = !wrong_seam.via_taken[0];
    let over_long = TracePlan {
        blocks: (0..=MAX_TRACE_BLOCKS)
            .map(|i| (head as u32 + i) % blocks)
            .collect(),
        via_taken: vec![false; MAX_TRACE_BLOCKS as usize],
        loop_back: false,
        loop_via_taken: false,
    };
    let other_head = (0..plans.len())
        .find(|&h| plans[h].is_none())
        .expect("some block heads no trace");
    let mut short = state.clone();
    short.plans.pop();
    vec![
        (
            "trace plan block out of range",
            forge(Some(out_of_range), head),
        ),
        ("trace plan seam flipped", forge(Some(wrong_seam), head)),
        ("trace plan over-long", forge(Some(over_long), head)),
        (
            "trace plan under another head",
            forge(Some(plan.clone()), other_head),
        ),
        (
            "trace plan table one short",
            with_state(snap, at, end, &short),
        ),
    ]
}

/// `snap` (a trace-tier snapshot whose state image spans `at..end`)
/// with empty profile counter tables.
fn with_empty_profile(snap: &[u8], at: usize, end: usize, state: &TraceState) -> Vec<u8> {
    let mut empty = state.clone();
    empty.profile.exec.clear();
    empty.profile.fall.clear();
    empty.profile.taken.clear();
    with_state(snap, at, end, &empty)
}

/// A golden snapshot image with its cached table index (`cur`, the
/// u32 four bytes before the halted flag) set to 1,000,000. `cur_end`
/// is the offset just past `cur`.
fn with_golden_cur(snap: &[u8], cur_end: usize) -> Vec<u8> {
    let mut out = snap.to_vec();
    out[cur_end - 4..cur_end].copy_from_slice(&1_000_000u32.to_le_bytes());
    out
}

/// `snap` with `bytes` spliced in at `at`, the `u64` count at `count`
/// raised by one: a table entry added.
fn with_entry(snap: &[u8], count: usize, at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = snap.to_vec();
    let n = u64_at(snap, count) + 1;
    out[count..count + 8].copy_from_slice(&n.to_le_bytes());
    out.splice(at..at, bytes.iter().copied());
    out
}

/// Well-framed parks that decode but whose engine state does not fit
/// the engine the resume rebuilds: a golden table index past the
/// program, on the compiled tier with and without traces; a golden icache
/// image with an emptied tag table, or of another geometry; a golden
/// trace profile with empty counter tables; golden trace plans that
/// trace growth could not have produced; a VLIW pending write
/// to a register past the 64 the core has; and an RTL kernel image
/// with one signal fewer than the elaboration, or a runnable process
/// index past its processes. Returns `(what, park bytes)`.
fn corrupt_engine_parks() -> Vec<(String, Vec<u8>)> {
    let w = cabt_workloads::by_name("fir").unwrap();
    let session = |backend: Backend, retired: u64| {
        let mut s = SimBuilder::workload(&w).backend(backend).build().unwrap();
        s.run_until(Limit::Retirements(retired)).unwrap();
        s
    };
    let mut out = Vec::new();
    let mut push = |what: &str, head: &[u8], snap: Vec<u8>| {
        out.push((what.to_string(), [head, &snap[..]].concat()));
    };

    // Golden snapshot tail: `cur` (u32), halted, trace-tier flag, then
    // the devices flag and bus image.
    let s = session(Backend::golden(), 10_000);
    let (head, snap) = split_park(&s);
    let devices = s.soc_bus_state().map_or(1, |d| 1 + d.len());
    let cur_end = snap.len() - devices - 2;
    push(
        "golden compiled cur",
        &head,
        with_golden_cur(&snap, cur_end),
    );
    // The icache image: the present flag, the default geometry (16
    // sets, 2 ways, 32-byte lines, 8-cycle miss), then the tag table.
    let mut cache_head = vec![1u8];
    for v in [16u32, 2, 32, 8] {
        cache_head.extend_from_slice(&v.to_le_bytes());
    }
    let at: Vec<usize> = (0..snap.len())
        .filter(|&i| snap[i..].starts_with(&cache_head))
        .collect();
    assert_eq!(at.len(), 1, "the cache image starts once");
    let tags = at[0] + cache_head.len();
    assert_eq!(u64_at(&snap, tags), 32, "16 sets × 2 ways");
    let mut empty = snap.clone();
    empty.splice(tags..tags + 8 + 32 * 8, [0u8; 8]);
    push("golden icache tag table emptied", &head, empty);
    let mut one_set = snap.clone();
    one_set[at[0] + 1..][..4].copy_from_slice(&1u32.to_le_bytes());
    push("golden icache of one set", &head, one_set);

    // Golden trace tier: `cur`, halted, then the trace state.
    let s = session(Backend::golden_trace(), 10_000);
    let (head, snap) = split_park(&s);
    let (at, end, state) = trace_state_in(&s, &snap);
    push("golden trace cur", &head, with_golden_cur(&snap, at - 1));
    push(
        "golden trace profile empty",
        &head,
        with_empty_profile(&snap, at, end, &state),
    );
    for (what, forged) in forged_plan_snaps(&s, &snap) {
        push(&format!("golden {what}"), &head, forged);
    }

    let s = session(Backend::translated(DetailLevel::Cache), 10_000);
    let (head, snap) = split_park(&s);
    // VLIW snapshot: the tag byte, 64 registers, the memory image (the
    // unmapped-read flag, a page count, 4100 bytes a page), the pc and
    // cycle, then the pending-write count and its `(due, register,
    // value)` entries.
    let pages = u64_at(&snap, 1 + 256 + 1) as usize;
    let count = 1 + 256 + 9 + pages * 4100 + 16;
    let mut write = vec![0u8; 8];
    write.push(64);
    write.extend_from_slice(&7u32.to_le_bytes());
    push(
        "VLIW pending write to register 64",
        &head,
        with_entry(&snap, count, count + 8, &write),
    );

    // RTL snapshot: the tag byte, the kernel's signal values (a count
    // and one u64 each), then its runnable process indices.
    let s = session(Backend::Rtl, 100);
    let (head, snap) = split_park(&s);
    let signals = u64_at(&snap, 1);
    let mut fewer = snap.clone();
    fewer[1..9].copy_from_slice(&(signals - 1).to_le_bytes());
    fewer.drain(9..17);
    push("RTL kernel one signal short", &head, fewer);
    let runnable = 9 + 8 * signals as usize;
    push(
        "RTL runnable process out of range",
        &head,
        with_entry(&snap, runnable, runnable + 8, &1_000_000u64.to_le_bytes()),
    );
    out
}

/// A park whose engine indices or trace tables do not fit the program
/// is a typed codec error on resume, not a panic on the next step —
/// and, offered as a migrating shard, is refused with the receiving
/// slot left as it was.
#[test]
fn corrupt_engine_tables_are_codec_errors_not_panics() {
    for (what, bytes) in corrupt_engine_parks() {
        assert!(
            matches!(Session::resume(&bytes), Err(SessionError::Codec(_))),
            "resume: {what}"
        );
    }

    let w = cabt_workloads::by_name("fir").unwrap();
    let mut s = SimBuilder::workload(&w)
        .backend(Backend::sharded(2, Backend::golden_trace()))
        .build()
        .unwrap();
    s.run_until(Limit::Cycles(20_000)).unwrap();
    let shard = s.shard(1).unwrap();
    let (head, snap) = split_park(shard);
    let (at, end, state) = trace_state_in(shard, &snap);
    let mut bad = vec![(
        "trace profile empty",
        with_empty_profile(&snap, at, end, &state),
    )];
    bad.extend(forged_plan_snaps(shard, &snap));
    let before = s.park_shard(1).unwrap();
    for (what, forged) in bad {
        assert!(
            matches!(
                s.adopt_shard(1, &[head.clone(), forged].concat(), None),
                Err(SessionError::Codec(_))
            ),
            "adopt_shard: {what}"
        );
        assert_eq!(s.park_shard(1).unwrap(), before, "{what}: slot 1 unchanged");
    }
}

/// A parked image is a fixpoint of resume: resuming it and parking
/// again gives the same bytes, on every backend and on sharded sets of
/// each (sequential and pooled), under a non-default build
/// configuration, before and after traces form. On sharded sessions,
/// re-adopting a shard from its own park image changes nothing either.
#[test]
fn a_parked_image_is_a_fixpoint_of_resume() {
    let w = cabt_workloads::by_name("fir").unwrap();
    let mut backends = Backend::all();
    for base in Backend::all() {
        if base != Backend::Rtl {
            backends.push(Backend::sharded(3, base));
            backends.push(Backend::sharded_pooled(3, 2, base));
        }
    }
    backends.push(Backend::sharded(2, Backend::Rtl));
    for backend in backends {
        let mut s = SimBuilder::workload(&w)
            .backend(backend)
            .platform(PlatformConfig::default())
            .granularity(Granularity::PerInstruction)
            .shard_epoch(300)
            .trace_config(TraceConfig {
                warmup: 100_000,
                hot_threshold: 2,
            })
            .build()
            .unwrap();
        for retired in [0, 7, 50] {
            s.run_until(Limit::Retirements(retired)).unwrap();
            let parked = s.park().unwrap();
            let again = Session::resume(&parked).unwrap().park().unwrap();
            assert!(
                again == parked,
                "{backend} at {retired}: resume moved the park"
            );
            if s.shard_count() > 1 {
                s.adopt_shard(1, &s.park_shard(1).unwrap(), None).unwrap();
                assert!(
                    s.park().unwrap() == parked,
                    "{backend} at {retired}: adopt_shard moved the park"
                );
            }
        }
    }
}

/// Reset is a fresh build: after runs of 0, 7, 50 and 3000
/// retirements, a reset session parks byte for byte what a freshly built
/// one parks — on every backend and on sharded sets of each (two shards
/// sequential, three pooled on one worker), under the paper's clock
/// ratio. Reset rebuilds nothing, so this pins that it leaves nothing of
/// the run behind either: registers, memory, caches, trace state, the
/// synchronization device and the SoC devices. A shape the workload
/// cannot halt on — `mailbox` off a shard fabric, `producer_consumer`
/// on a multi-core RTL set — is refused at build instead.
#[test]
fn a_reset_session_parks_like_a_fresh_build() {
    let mut backends = Backend::all();
    for base in Backend::all() {
        if base != Backend::Rtl {
            backends.push(Backend::sharded(2, base));
            backends.push(Backend::sharded_pooled(3, 1, base));
        }
    }
    backends.push(Backend::sharded(2, Backend::Rtl));
    for name in ["fir", "gcd", "sieve", "producer_consumer", "mailbox"] {
        for &backend in &backends {
            let build = || {
                SimBuilder::named(name)
                    .backend(backend)
                    .platform(PlatformConfig::default())
                    .build()
            };
            let refused = match backend {
                Backend::Sharded {
                    backend: ShardBackend::Rtl,
                    ..
                } => name == "mailbox" || name == "producer_consumer",
                Backend::Sharded { .. } => false,
                _ => name == "mailbox",
            };
            if refused {
                assert!(
                    matches!(build(), Err(SessionError::UnsupportedShape { .. })),
                    "{name} on {backend}: must be refused"
                );
                continue;
            }
            let build = || build().unwrap();
            let fresh = build().park().unwrap();
            let mut s = build();
            for retired in [0, 7, 50, 3000] {
                s.run_until(Limit::Retirements(retired)).unwrap();
                s.reset();
                assert!(
                    s.park().unwrap() == fresh,
                    "{name} on {backend}: reset after {retired} retirements"
                );
            }
        }
    }
}

/// The golden trace tier dispatches the same traces after resume, and
/// after reset-then-restore, as the engine that took the snapshot,
/// recompiling its traces from their plans: run in 3-retirement
/// slices, every slice stops at the same point with the same trace
/// coverage.
#[test]
fn restored_trace_tiers_stop_where_the_donor_stops() {
    for (name, backend) in [
        ("fir", Backend::golden_trace()),
        ("sieve", Backend::golden_trace()),
    ] {
        let w = cabt_workloads::by_name(name).unwrap();
        let build = || {
            SimBuilder::workload(&w)
                .backend(backend)
                .trace_config(TraceConfig {
                    warmup: 1_000_000_000,
                    hot_threshold: 8,
                })
                .build()
                .unwrap()
        };
        let mut donor = build();
        donor.run_until(Limit::Retirements(3_000)).unwrap();
        let snap = save(&donor);
        let mut resumed = Session::resume(&donor.park().unwrap()).unwrap();
        let mut restored = build();
        restored.run_until(Limit::Cycles(u64::MAX)).unwrap();
        restored.reset();
        load(&mut restored, &snap);
        let mut slices = 0;
        while !donor.is_halted() {
            let limit = Limit::Retirements(donor.stats().retired + 3);
            let stop = donor.run_until(limit).unwrap();
            for (what, s) in [
                ("resumed", &mut resumed),
                ("reset-then-restored", &mut restored),
            ] {
                assert_eq!(s.run_until(limit).unwrap(), stop, "{name} {backend} {what}");
                assert_eq!(
                    (s.stats(), s.trace_stats()),
                    (donor.stats(), donor.trace_stats()),
                    "{name} {backend} {what}: slice {slices} stopped elsewhere"
                );
            }
            slices += 1;
        }
        assert!(slices > 100, "{name} {backend}: {slices} slices");
        assert_eq!(resumed.read_d(2), w.expected_d2, "{name} {backend}");
    }
}
