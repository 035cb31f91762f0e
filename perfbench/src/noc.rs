//! `noc_spmd`: the ring SPMD program on a 64-shard pooled session.
//!
//! The only workload that reaches the epoch-round engine, `exec::pool`,
//! the `ShardArbiter` exchange and CoreLink. Every round of the ring
//! crosses at least one barrier, so the same golden dispatch code runs
//! in 1024-cycle slices with fabric work between them.

use crate::report::{Checks, Metric};
use crate::ring::{ring, Ring};
use crate::run::{mips, sample_loop, Opts, Run, BOARD_HZ};
use crate::trace::Tracer;
use cabt_core::DetailLevel;
use cabt_exec::{fingerprint_engine, EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_platform::PlatformConfig;
use cabt_sim::{Backend, Session, ShardedStats, SimBuilder};
use cabt_workloads::Workload;
use std::time::Instant;

/// Shards of the fabric.
pub const CORES: u16 = 64;
/// Target cycles between barriers.
pub const EPOCH: u64 = 1024;
/// Pool workers running the shard rounds. One worker keeps runs steady
/// on a small shared host: with two, the median sample moved 30–50%
/// between identical runs on a 2-vCPU host, with one about 3%.
pub const POOL_WORKERS: u16 = 1;

/// Ring size: rounds and MAC words per round. The round count moves
/// with the seed by ±1, so modelled statistics differ between seeds
/// while the host time per sample stays within about 1%.
fn size(smoke: bool, seed: u64) -> (u32, u32) {
    let jitter = (seed % 3) as u32;
    if smoke {
        (7 + jitter, 8)
    } else {
        (99 + jitter, 100)
    }
}

fn build(ring: &Ring, base: Backend, epoch: u64) -> Session {
    SimBuilder::asm(ring.source.clone())
        .backend(base)
        .shard_epoch(epoch)
        .build()
        .expect("sharded session builds")
}

/// Runs the session to halt and checks every shard's checksum.
fn run_checked(
    s: &mut Session,
    ring: &Ring,
    cap: u64,
    checks: &mut Checks,
    what: &str,
) -> ShardedStats {
    let stop = s.run(Limit::Cycles(cap));
    let wrong = (0..s.shard_count())
        .filter(|&i| s.shard(i).map(|sh| sh.read_d(2)) != Some(ring.expected_d2))
        .count();
    checks.check(matches!(stop, Ok(StopCause::Halted)) && wrong == 0, || {
        format!("{what}: {stop:?}, {wrong} shards with a wrong %d2")
    });
    s.sharded_stats().expect("sharded session")
}

struct Setup {
    ring: Ring,
    session: Session,
    build_s: f64,
}

fn setup(opts: &Opts, tracer: &Tracer) -> Setup {
    let top = tracer.span("bench.setup");
    let (rounds, words) = size(opts.smoke, opts.seed);
    let ring = {
        let _s = top.child("workloads.generate");
        ring(rounds, words, opts.seed)
    };
    let elf = {
        let _s = top.child("tricore.assemble");
        cabt_tricore::asm::assemble(&ring.source).expect("ring assembles")
    };
    let start = Instant::now();
    let session = {
        let _s = top.child("sim.build");
        SimBuilder::elf(elf)
            .backend(Backend::sharded_pooled(
                CORES,
                POOL_WORKERS,
                Backend::golden_trace(),
            ))
            .shard_epoch(EPOCH)
            .build()
            .expect("pooled session builds")
    };
    Setup {
        ring,
        session,
        build_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs `noc_spmd`.
pub fn run(opts: &Opts, tracer: &Tracer) -> Run {
    let mut st = setup(opts, tracer);
    let mut checks = Checks::default();

    // Schedule independence: the sequential and the pooled run of the
    // same fabric must reach bit-identical states.
    let (cap, golden_cycles) = {
        let top = tracer.span("bench.check");
        let mut seq = build(
            &st.ring,
            Backend::sharded(CORES, Backend::golden_trace()),
            EPOCH,
        );
        let seq_stats = {
            let _s = top.child("sim.run");
            run_checked(&mut seq, &st.ring, u64::MAX, &mut checks, "sequential")
        };
        let pooled_stats = {
            let _s = top.child("sim.run");
            run_checked(&mut st.session, &st.ring, u64::MAX, &mut checks, "pooled")
        };
        checks.check(
            fingerprint_engine(&seq) == fingerprint_engine(&st.session)
                && seq_stats == pooled_stats,
            || "sequential and pooled digests differ".into(),
        );
        let per_shard: Vec<u64> = seq_stats.per_shard.iter().map(|s| s.cycles).collect();
        (10 * seq_stats.aggregate.cycles + 1_000_000, per_shard)
    };

    // Fig. 6 for the fabric: the same ring on 64 prototype shards
    // (cache-level translation, the paper's sync device, barriers at the
    // same modelled time), each shard's generated cycles against its
    // golden twin's.
    let cycle_dev_pct = {
        let top = tracer.span("bench.reference");
        let cfg = PlatformConfig::default();
        let mut proto = {
            let _s = top.child("sim.build");
            SimBuilder::asm(st.ring.source.clone())
                .backend(Backend::sharded(
                    CORES,
                    Backend::translated(DetailLevel::Cache),
                ))
                .platform(cfg)
                .shard_epoch(cfg.soc_to_target(EPOCH))
                .build()
                .expect("prototype fabric builds")
        };
        {
            let _s = top.child("sim.run");
            run_checked(
                &mut proto,
                &st.ring,
                u64::MAX,
                &mut checks,
                "prototype fabric",
            );
        }
        let deviation: u64 = golden_cycles
            .iter()
            .enumerate()
            .map(|(i, &golden)| {
                let generated = proto
                    .shard(i)
                    .and_then(Session::platform_stats)
                    .map_or(0, |p| p.total_generated());
                generated.abs_diff(golden)
            })
            .sum();
        deviation as f64 / golden_cycles.iter().sum::<u64>() as f64 * 100.0
    };
    let lone = Workload {
        name: "ring",
        source: st.ring.source.clone(),
        expected_d2: st.ring.expected_d2,
    };

    let mut first: Option<(EngineStats, u64, u64)> = None;
    let setup_again = || setup(opts, tracer);
    let sampled = sample_loop(opts, tracer, setup_again, |tracer| {
        let top = tracer.span("bench.sample");
        let start = Instant::now();
        {
            let _r = top.child("sim.reset");
            st.session.reset();
        }
        let stats = {
            let _r = top.child("sim.run");
            run_checked(&mut st.session, &st.ring, cap, &mut checks, "sample")
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let key = (stats.aggregate, stats.epochs, stats.bus_transactions);
        let same = *first.get_or_insert(key) == key;
        checks.check(same, || {
            format!("sample stats {key:?} differ from the first sample's")
        });
        ms
    });

    let (agg, epochs, bus_tx) = first.unwrap_or_default();
    let ms = sampled.host_ms().unwrap_or(f64::NAN);
    let build_ms = st.build_s * 1e3;
    Run {
        checks,
        sampled,
        host_mips: agg.retired as f64 / (ms / 1e3) / 1e6,
        sessions_per_s: 1e3 / ms,
        model_mips: mips(agg.retired, agg.cycles, BOARD_HZ),
        cycle_dev_pct,
        layer: vec![
            Metric::new("sim.build_ms", build_ms, "ms"),
            Metric::new("sim.build_share", build_ms / (build_ms + ms), "ratio"),
            Metric::new("sim.epochs_per_run", epochs as f64, "count"),
            Metric::new(
                "platform.bus_tx_per_epoch",
                bus_tx as f64 / epochs.max(1) as f64,
                "count",
            ),
            Metric::new("fleet.queue_share", 0.0, "ratio"),
        ],
        info: vec![
            Metric::new("sim.us_per_epoch", ms * 1e3 / epochs.max(1) as f64, "us"),
            Metric::new(
                "source_instructions_per_sample",
                agg.retired as f64,
                "count",
            ),
            Metric::new("rounds", f64::from(st.ring.rounds), "count"),
            Metric::new("words_per_round", f64::from(st.ring.words), "count"),
        ],
        programs: vec![lone],
    }
}
