//! Layer probes: standalone calls into each crate's public functions,
//! timed from outside, over the workload's own programs.
//!
//! The sessions a workload runs call these layers internally, where the
//! benchmark cannot time them; the probes call the same functions
//! directly on the same inputs. Counts and ratios come from the public
//! stats of the same calls and repeat exactly run to run.

use crate::report::{Checks, Metric};
use crate::stats;
use crate::trace::{SpanGuard, Tracer};
use cabt_core::cfg::Cfg;
use cabt_core::{DetailLevel, Granularity, Translator};
use cabt_exec::pool::{FleetPool, Latch};
use cabt_isa::elf::ElfFile;
use cabt_platform::{
    default_soc_bus, mirror_soc_bus, shard_soc_bus, GoldenBridge, Platform, PlatformConfig,
    ShardArbiter, SharedSocBus, CORE_LINK_BASE,
};
use cabt_tricore::sim::{DispatchMode, Simulator};
use cabt_vliw::sim::VliwDispatch;
use cabt_workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of each build probe.
const BUILD_REPEATS: usize = 7;
/// Repeats of each run probe (fewer once a probe has used its budget).
const RUN_REPEATS: usize = 3;
/// Host seconds a run probe may spend before it stops repeating.
const RUN_BUDGET_S: f64 = 0.5;

/// Median host milliseconds of `f` over `reps` calls, each under a
/// child span `name`; stops early once `budget_s` is spent.
fn median_ms(
    parent: &SpanGuard<'_>,
    name: &'static str,
    reps: usize,
    budget_s: f64,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _s = parent.child(name);
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed().as_secs_f64() > budget_s {
            break;
        }
    }
    stats::median(&times).unwrap_or(f64::NAN)
}

fn golden_sim(elf: &ElfFile) -> Simulator {
    let mut sim = Simulator::new(elf).expect("image loads");
    // Programs that touch the SoC bus (producer_consumer, the ring's
    // CoreLink registers) see the single-core device population.
    sim.set_io_device(Box::new(GoldenBridge::new(SharedSocBus::new(
        default_soc_bus(),
    ))));
    sim
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Build-layer probes: assemble, load, compile, CFG, translate,
/// platform build.
fn build_probes(programs: &[Workload], elfs: &[ElfFile], top: &SpanGuard<'_>) -> Vec<Metric> {
    let translator = Translator::new(DetailLevel::Cache);
    let images: Vec<_> = elfs
        .iter()
        .map(|e| translator.translate(e).expect("translates"))
        .collect();
    let asm = median_ms(top, "tricore.assemble", BUILD_REPEATS, 1.0, || {
        for w in programs {
            std::hint::black_box(w.elf().expect("assembles"));
        }
    });
    let load = median_ms(top, "tricore.load", BUILD_REPEATS, 1.0, || {
        for e in elfs {
            std::hint::black_box(Simulator::new(e).expect("loads"));
        }
    });
    // Compile time alone: load outside the timed region.
    let mut compile_times = Vec::new();
    for _ in 0..BUILD_REPEATS {
        let mut sims: Vec<Simulator> = elfs
            .iter()
            .map(|e| Simulator::new(e).expect("loads"))
            .collect();
        let _s = top.child("tricore.compile");
        let t = Instant::now();
        for sim in &mut sims {
            sim.set_dispatch(DispatchMode::Trace);
        }
        compile_times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cfg = median_ms(top, "core.cfg", BUILD_REPEATS, 1.0, || {
        for e in elfs {
            std::hint::black_box(Cfg::build(e, Granularity::BasicBlock).expect("cfg builds"));
        }
    });
    let translate = median_ms(top, "core.translate", BUILD_REPEATS, 1.0, || {
        for e in elfs {
            std::hint::black_box(translator.translate(e).expect("translates"));
        }
    });
    let platform = median_ms(top, "platform.build", BUILD_REPEATS, 1.0, || {
        for image in &images {
            let mut p = Platform::new(image, PlatformConfig::default()).expect("platform builds");
            p.set_dispatch(VliwDispatch::Trace);
            std::hint::black_box(p);
        }
    });
    vec![
        Metric::new("tricore.asm_ms", asm, "ms"),
        Metric::new("tricore.load_ms", load, "ms"),
        Metric::new(
            "tricore.compile_ms",
            stats::median(&compile_times).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new("core.cfg_ms", cfg, "ms"),
        Metric::new("core.translate_ms", translate, "ms"),
        Metric::new("platform.build_ms", platform, "ms"),
    ]
}

/// Golden-model probe: every program to halt on the trace tier. Also
/// returns the source instructions the programs retire.
fn golden_probe(
    programs: &[Workload],
    elfs: &[ElfFile],
    top: &SpanGuard<'_>,
    checks: &mut Checks,
) -> (Vec<Metric>, u64) {
    let start = Instant::now();
    let mut per_instr = Vec::new();
    let mut last = None;
    for _ in 0..RUN_REPEATS {
        let mut sims: Vec<Simulator> = elfs
            .iter()
            .map(|e| {
                let mut s = golden_sim(e);
                s.set_dispatch(DispatchMode::Trace);
                s
            })
            .collect();
        let span = top.child("tricore.run");
        let t = Instant::now();
        let runs: Vec<_> = sims.iter_mut().map(|s| s.run(u64::MAX)).collect();
        let ns = t.elapsed().as_secs_f64() * 1e9;
        drop(span);
        let (mut instrs, mut icache, mut misses, mut branches, mut mispredicted) = (0, 0, 0, 0, 0);
        let (mut traces, mut in_traces) = (0, 0);
        for ((w, sim), r) in programs.iter().zip(&sims).zip(&runs) {
            checks.check(r.is_ok() && sim.cpu.d(2) == w.expected_d2, || {
                format!("golden probe of {}: {r:?}", w.name)
            });
            let st = sim.stats();
            instrs += st.instructions;
            icache += st.icache_accesses;
            misses += st.icache_misses;
            branches += st.cond_branches;
            mispredicted += st.mispredicted;
            let ts = sim.trace_stats().unwrap_or_default();
            traces += ts.traces;
            in_traces += ts.trace_retired;
        }
        per_instr.push(ns / instrs.max(1) as f64);
        last = Some((
            instrs,
            icache,
            misses,
            branches,
            mispredicted,
            traces,
            in_traces,
        ));
        if start.elapsed().as_secs_f64() > RUN_BUDGET_S {
            break;
        }
    }
    let (instrs, icache, misses, branches, mispredicted, traces, in_traces) =
        last.unwrap_or_default();
    let metrics = vec![
        Metric::new(
            "tricore.ns_per_instr",
            stats::median(&per_instr).unwrap_or(f64::NAN),
            "ns",
        ),
        Metric::new("tricore.icache_miss_ratio", ratio(misses, icache), "ratio"),
        Metric::new(
            "tricore.mispredict_ratio",
            ratio(mispredicted, branches),
            "ratio",
        ),
        Metric::new(
            "exec.golden_trace_coverage",
            ratio(in_traces, instrs),
            "ratio",
        ),
        Metric::new("exec.golden_traces", traces as f64, "count"),
    ];
    (metrics, instrs)
}

/// Prototype probe: every program translated at the cache level and run
/// on the VLIW trace tier under the paper's sync device. `source` is the
/// programs' source instruction count.
fn vliw_probe(
    programs: &[Workload],
    elfs: &[ElfFile],
    source: u64,
    top: &SpanGuard<'_>,
    checks: &mut Checks,
) -> Vec<Metric> {
    use cabt_core::regbind::dreg;
    use cabt_tricore::isa::DReg;
    let translator = Translator::new(DetailLevel::Cache);
    let images: Vec<_> = elfs
        .iter()
        .map(|e| translator.translate(e).expect("translates"))
        .collect();
    let start = Instant::now();
    let mut per_packet = Vec::new();
    let mut last = None;
    for _ in 0..RUN_REPEATS {
        let mut platforms: Vec<Platform> = images
            .iter()
            .map(|i| {
                let mut p = Platform::new(i, PlatformConfig::default()).expect("builds");
                p.set_dispatch(VliwDispatch::Trace);
                p
            })
            .collect();
        let span = top.child("platform.run");
        let t = Instant::now();
        let runs: Vec<_> = platforms.iter_mut().map(|p| p.run(u64::MAX)).collect();
        let ns = t.elapsed().as_secs_f64() * 1e9;
        drop(span);
        let (mut packets, mut slots, mut cycles, mut stall, mut generated, mut corrected) =
            (0, 0, 0, 0, 0, 0);
        let (mut traces, mut in_traces) = (0, 0);
        for ((w, p), r) in programs.iter().zip(&platforms).zip(runs) {
            let d2 = p.sim().reg(dreg(DReg(2)));
            checks.check(r.is_ok() && d2 == w.expected_d2, || {
                format!("prototype probe of {}: %d2 {d2:#x}", w.name)
            });
            let ps = p.stats();
            packets += p.sim().stats().packets;
            slots += ps.slots;
            cycles += ps.target_cycles;
            stall += ps.sync_stall_cycles;
            generated += ps.generated_cycles;
            corrected += ps.corrected_cycles;
            let ts = p.trace_stats().unwrap_or_default();
            traces += ts.traces;
            in_traces += ts.trace_retired;
        }
        per_packet.push(ns / packets.max(1) as f64);
        last = Some((
            packets, slots, cycles, stall, generated, corrected, traces, in_traces,
        ));
        if start.elapsed().as_secs_f64() > RUN_BUDGET_S {
            break;
        }
    }
    let (packets, slots, cycles, stall, generated, corrected, traces, in_traces) =
        last.unwrap_or_default();
    vec![
        Metric::new(
            "vliw.ns_per_packet",
            stats::median(&per_packet).unwrap_or(f64::NAN),
            "ns",
        ),
        Metric::new("vliw.packets_per_instr", ratio(packets, source), "ratio"),
        Metric::new("vliw.slots_per_packet", ratio(slots, packets), "ratio"),
        Metric::new("platform.sync_stall_share", ratio(stall, cycles), "ratio"),
        Metric::new(
            "platform.corrected_share",
            ratio(corrected, generated + corrected),
            "ratio",
        ),
        Metric::new(
            "exec.vliw_trace_coverage",
            ratio(in_traces, packets),
            "ratio",
        ),
        Metric::new("exec.vliw_traces", traces as f64, "count"),
    ]
}

/// Shards of the bare fabric the exchange probe drives (`noc_spmd`'s).
const FABRIC_CORES: u32 = 64;

/// `ShardArbiter::exchange` on a bare 64-bus fabric, replaying the ring's
/// traffic: each epoch every shard rings its successor's doorbell once.
fn exchange_probe(top: &SpanGuard<'_>) -> f64 {
    let buses: Vec<SharedSocBus> = (0..FABRIC_CORES)
        .map(|id| SharedSocBus::new(shard_soc_bus(id, FABRIC_CORES)))
        .collect();
    let mut arbiter = ShardArbiter::new(mirror_soc_bus(FABRIC_CORES), buses.clone());
    let _s = top.child("platform.exchange");
    let mut times = Vec::new();
    for epoch in 0..600u32 {
        for (id, bus) in (0..FABRIC_CORES).zip(&buses) {
            let succ = (id + 1) % FABRIC_CORES;
            bus.write(
                u64::from(epoch),
                CORE_LINK_BASE + 0x400 + 4 * succ,
                4,
                epoch + 1,
            );
        }
        let t = Instant::now();
        arbiter.exchange();
        if epoch >= 100 {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::median(&times).unwrap_or(f64::NAN)
}

/// Round trip of an empty job through a one-worker pool (the pools the
/// workloads run on): `spawn` plus the `Latch` wait.
fn pool_probe(top: &SpanGuard<'_>) -> f64 {
    let pool = FleetPool::new(1);
    let _s = top.child("exec.pool_roundtrip");
    let mut times = Vec::new();
    for i in 0..2100 {
        let latch = Arc::new(Latch::new(1));
        let l = Arc::clone(&latch);
        let t = Instant::now();
        pool.spawn(move || l.count_down());
        latch.wait();
        if i >= 100 {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    stats::median(&times).unwrap_or(f64::NAN)
}

/// Runs every probe over `programs` and returns the layer metrics.
pub fn probe(programs: &[Workload], tracer: &Tracer, checks: &mut Checks) -> Vec<Metric> {
    let top = tracer.span("bench.probe");
    let elfs: Vec<ElfFile> = programs
        .iter()
        .map(|w| {
            w.elf()
                .unwrap_or_else(|e| panic!("{} assembles: {e}", w.name))
        })
        .collect();
    let mut out = build_probes(programs, &elfs, &top);
    let (golden, source) = golden_probe(programs, &elfs, &top, checks);
    out.extend(golden);
    out.extend(vliw_probe(programs, &elfs, source, &top, checks));
    out.push(Metric::new(
        "platform.exchange_us",
        exchange_probe(&top),
        "us",
    ));
    out.push(Metric::new(
        "exec.pool_roundtrip_us",
        pool_probe(&top),
        "us",
    ));
    out
}
