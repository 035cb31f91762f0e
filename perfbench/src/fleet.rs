//! `fleet_mix`: a closed loop of short sessions through the fleet.
//!
//! One client calls [`cabt_fleet::run_one`] back to back on one
//! [`FleetPool`]. A sample is one round of the mix: every registry
//! workload except `mailbox` on five single-core backends, plus about
//! 10% sharded requests, in an order shuffled by the seed. Every round
//! holds the same requests, so round times differ only by the host. The
//! sessions retire 1k–40k instructions, so their time goes to
//! assembling, translating, pre-decoding, compiling and pool scheduling
//! — layers the other workloads barely touch.

use crate::report::{Checks, Metric};
use crate::run::{sample_loop, Opts, Run, BOARD_HZ, TARGET_HZ};
use crate::stats;
use crate::trace::Tracer;
use cabt_core::DetailLevel;
use cabt_exec::{
    fingerprint_engine, plan_epoch_round, run_shard_to_deadline, EngineStats, EpochPlan,
    ExecutionEngine, Fingerprint, Limit,
};
use cabt_fleet::{run_one, FleetPool, FleetRequest, FLEET_EPOCH_CYCLES};
use cabt_isa::rng::Pcg32;
use cabt_sim::{Backend, Session, SimBuilder};
use cabt_workloads::Workload;
use std::time::Instant;

/// Registry workloads of the single-core requests (`mailbox` only
/// halts on a two-core fabric).
const PROGRAMS: [&str; 8] = [
    "gcd",
    "dpcm",
    "fir",
    "ellip",
    "sieve",
    "subband",
    "fibonacci",
    "producer_consumer",
];

fn single_core_backends() -> [Backend; 5] {
    [
        Backend::golden(),
        Backend::golden_trace(),
        Backend::translated(DetailLevel::Static),
        Backend::translated(DetailLevel::Cache),
        Backend::translated_trace(DetailLevel::Cache),
    ]
}

/// One distinct request of the mix and what a dedicated session made
/// of it.
#[derive(Debug)]
struct Kind {
    workload: &'static str,
    backend: Backend,
    /// Requests of this kind per round.
    count: usize,
    build_ms: f64,
    oracle: Oracle,
}

/// What the dedicated session produced: the fleet must match it.
#[derive(Debug, Clone, Copy, Default)]
struct Oracle {
    epoch_chain: u64,
    digest: u64,
    epochs: u64,
    stats: EngineStats,
    run_ms: f64,
    bus_tx: u64,
    generated: u64,
}

/// Pool workers. One client and one worker keep runs steady on a small
/// shared host: with two of each, the median request latency moved 10–17%
/// between identical runs on a 2-vCPU host, with one of each about 5%.
pub const POOL_WORKERS: usize = 1;

/// The request kinds and how many of each one round holds: every
/// single-core kind `copies` times, the two sharded kinds twice as often
/// (about 10% of the round), and one single-core kind drawn from `rng`
/// once more, so the round's modelled statistics move with the seed.
fn kinds(copies: usize, rng: &mut Pcg32) -> Vec<Kind> {
    let mut v = Vec::new();
    for w in PROGRAMS {
        for b in single_core_backends() {
            v.push((w, b, copies));
        }
    }
    let extra = rng.below(v.len());
    v[extra].2 += 1;
    v.push((
        "producer_consumer",
        Backend::sharded_pooled(4, 1, Backend::golden()),
        2 * copies,
    ));
    v.push((
        "mailbox",
        Backend::sharded(2, Backend::golden()),
        2 * copies,
    ));
    v.into_iter()
        .map(|(workload, backend, count)| Kind {
            workload,
            backend,
            count,
            build_ms: 0.0,
            oracle: Oracle::default(),
        })
        .collect()
}

/// Replays the fleet's epoch schedule on a dedicated session: the same
/// round plan, one barrier per round, the same per-round digests.
fn dedicated_run(s: &mut Session) -> Oracle {
    let mut chain = Fingerprint::new();
    let mut epochs = 0;
    let sharded = s.sharded_stats().is_some();
    loop {
        match plan_epoch_round(s.cycle(), s.is_halted(), u64::MAX, FLEET_EPOCH_CYCLES) {
            EpochPlan::Round { deadline } => {
                let ran = if sharded {
                    // One round and its barrier exchange.
                    ExecutionEngine::run_until(s, Limit::Cycles(deadline)).map(drop)
                } else {
                    run_shard_to_deadline(s, deadline, true)
                };
                if ran.is_err() {
                    break;
                }
                epochs += 1;
                for i in 0..s.shard_count() {
                    chain.mix_u64(fingerprint_engine(s.shard(i).unwrap_or(&*s)));
                }
            }
            EpochPlan::Halted => {
                s.commit_arch_state();
                break;
            }
            EpochPlan::LimitReached => break,
        }
    }
    let mut digest = Fingerprint::new();
    for i in 0..s.shard_count() {
        digest.mix_u64(fingerprint_engine(s.shard(i).unwrap_or(&*s)));
    }
    Oracle {
        epoch_chain: chain.digest(),
        digest: digest.digest(),
        epochs,
        stats: s.stats(),
        run_ms: 0.0,
        bus_tx: s.sharded_stats().map_or(0, |st| st.bus_transactions),
        generated: s.platform_stats().map_or(0, |p| p.total_generated()),
    }
}

struct Setup {
    kinds: Vec<Kind>,
    /// One dedicated session per kind, for the oracle.
    sessions: Vec<Session>,
    /// Kind index of every request of one round, in seeded order.
    round: Vec<usize>,
}

/// Generates the round and builds one dedicated session per kind. The
/// pool is not part of it: it lives as long as the service.
fn setup(opts: &Opts, tracer: &Tracer) -> Setup {
    let top = tracer.span("bench.setup");
    let (mut kinds, round) = {
        let _s = top.child("workloads.generate");
        let mut rng = Pcg32::seed_from_u64(opts.seed);
        let kinds = kinds(if opts.smoke { 1 } else { 2 }, &mut rng);
        let mut round: Vec<usize> = kinds
            .iter()
            .enumerate()
            .flat_map(|(i, k)| std::iter::repeat_n(i, k.count))
            .collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i + 1));
        }
        (kinds, round)
    };
    let mut sessions = Vec::with_capacity(kinds.len());
    for k in &mut kinds {
        let _s = top.child("sim.build");
        let start = Instant::now();
        // Sharded kinds replay on the sequential schedule: the fleet
        // decomposes them itself, and every schedule is bit-identical.
        let b = match k.backend {
            Backend::Sharded { cores, backend, .. } => SimBuilder::named(k.workload)
                .backend(Backend::sharded(cores, backend.into()))
                .shard_epoch(FLEET_EPOCH_CYCLES),
            backend => SimBuilder::named(k.workload).backend(backend),
        };
        sessions.push(b.build().expect("registry session builds"));
        k.build_ms = start.elapsed().as_secs_f64() * 1e3;
    }
    Setup {
        kinds,
        sessions,
        round,
    }
}

/// Runs `fleet_mix`.
pub fn run(opts: &Opts, tracer: &Tracer) -> Run {
    let mut st = setup(opts, tracer);
    let pool = FleetPool::new(POOL_WORKERS);
    let mut checks = Checks::default();

    // The oracle: every kind once on its dedicated session.
    {
        let top = tracer.span("bench.reference");
        for (k, mut s) in st.kinds.iter_mut().zip(std::mem::take(&mut st.sessions)) {
            let _s = top.child("sim.run");
            let start = Instant::now();
            let mut o = dedicated_run(&mut s);
            o.run_ms = start.elapsed().as_secs_f64() * 1e3;
            let want = cabt_workloads::by_name(k.workload).map(|w| w.expected_d2);
            checks.check(s.is_halted() && Some(s.read_d(2)) == want, || {
                format!(
                    "dedicated {} on {}: %d2 {:#x}",
                    k.workload,
                    k.backend,
                    s.read_d(2)
                )
            });
            k.oracle = o;
        }
    }
    // Source instructions of each program, from its golden kind.
    let source_instrs = |w: &str| {
        st.kinds
            .iter()
            .find(|k| k.workload == w && k.backend == Backend::golden())
            .map_or(0, |k| k.oracle.stats.retired)
    };
    let instrs: Vec<u64> = st
        .kinds
        .iter()
        .map(|k| match k.backend {
            Backend::Translated { .. } => source_instrs(k.workload),
            _ => k.oracle.stats.retired,
        })
        .collect();

    // One closed-loop client: the next request goes out when the last
    // one returned.
    let (kinds, round, pool) = (&st.kinds, &st.round, &pool);
    let mut next = 0u64;
    let mut latencies_ms = Vec::new();
    let setup_again = || setup(opts, tracer);
    let sampled = sample_loop(opts, tracer, setup_again, |tracer| {
        let start = Instant::now();
        for &kind in round {
            let k = &kinds[kind];
            let top = tracer.request_span("bench.request", next);
            let t0 = Instant::now();
            let result = {
                let _s = top.child("fleet.run_one");
                run_one(pool, FleetRequest::named(k.workload).backend(k.backend))
            };
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let o = &k.oracle;
            let ok = result.as_ref().is_ok_and(|r| {
                r.checksum_ok()
                    && r.epoch_chain == o.epoch_chain
                    && r.digest == o.digest
                    && r.epochs == o.epochs
                    && r.stats == o.stats
            });
            checks.check(ok, || {
                format!(
                    "request {next} ({} on {}): {result:?}",
                    k.workload, k.backend
                )
            });
            next += 1;
        }
        start.elapsed().as_secs_f64() * 1e3
    });
    // Latencies of the measured rounds (the warm-up rounds come first).
    let measured = round.len() * sampled.samples_ms.len();
    let latencies_ms = &latencies_ms[latencies_ms.len() - measured..];
    let round_s = sampled.host_ms().unwrap_or(f64::NAN) / 1e3;
    let round_instrs: u64 = round.iter().map(|&k| instrs[k]).sum();

    // Modelled time of one round: golden runs at the board's clock,
    // translated runs at the prototype's.
    let mut model_s = 0.0;
    for &i in round {
        let k = &kinds[i];
        let hz = match k.backend {
            Backend::Translated { .. } => TARGET_HZ,
            _ => BOARD_HZ,
        };
        model_s += k.oracle.stats.cycles as f64 / hz;
    }

    // Fig. 6 over the round's cache-level translated requests, each
    // against the golden run of its program.
    let golden_cycles_of = |w: &str| {
        kinds
            .iter()
            .find(|k| k.workload == w && k.backend == Backend::golden())
            .map_or(0, |k| k.oracle.stats.cycles)
    };
    let (mut dev, mut golden_cycles) = (0u64, 0u64);
    for &i in round {
        let k = &kinds[i];
        if let Backend::Translated {
            level: DetailLevel::Cache,
            ..
        } = k.backend
        {
            let golden = golden_cycles_of(k.workload);
            dev += k.oracle.generated.abs_diff(golden);
            golden_cycles += golden;
        }
    }

    // What the round's requests cost on dedicated sessions.
    let dedicated_ms: Vec<f64> = round
        .iter()
        .map(|&k| kinds[k].build_ms + kinds[k].oracle.run_ms)
        .collect();
    let ded_total: f64 = dedicated_ms.iter().sum();
    let build_total: f64 = round.iter().map(|&k| kinds[k].build_ms).sum();
    let n = round.len() as f64;
    let epochs: u64 = round.iter().map(|&k| kinds[k].oracle.epochs).sum();
    let sharded: Vec<&Kind> = kinds
        .iter()
        .filter(|k| matches!(k.backend, Backend::Sharded { .. }))
        .collect();
    let bus_tx_per_epoch = sharded
        .iter()
        .map(|k| k.oracle.bus_tx as f64 / k.oracle.epochs.max(1) as f64)
        .sum::<f64>()
        / sharded.len().max(1) as f64;
    let latency = |p| stats::percentile(latencies_ms, p).unwrap_or(f64::NAN);

    Run {
        checks,
        sampled,
        host_mips: round_instrs as f64 / round_s / 1e6,
        sessions_per_s: n / round_s,
        model_mips: round_instrs as f64 / model_s / 1e6,
        cycle_dev_pct: dev as f64 / golden_cycles.max(1) as f64 * 100.0,
        layer: vec![
            Metric::new("sim.build_ms", build_total / n, "ms"),
            Metric::new("sim.build_share", build_total / ded_total, "ratio"),
            Metric::new("sim.epochs_per_run", epochs as f64 / n, "count"),
            Metric::new("platform.bus_tx_per_epoch", bus_tx_per_epoch, "count"),
            Metric::new(
                "fleet.queue_share",
                1.0 - ded_total / (round_s * 1e3),
                "ratio",
            ),
        ],
        info: vec![
            Metric::new("session_ms_p50", latency(50.0), "ms"),
            Metric::new("session_ms_p99", latency(99.0), "ms"),
            Metric::new(
                "fleet.dedicated_ms_p50",
                stats::median(&dedicated_ms).unwrap_or(f64::NAN),
                "ms",
            ),
            Metric::new("requests_per_round", n, "count"),
        ],
        programs: PROGRAMS
            .iter()
            .filter_map(|w| cabt_workloads::by_name(w))
            .collect::<Vec<Workload>>(),
    }
}
