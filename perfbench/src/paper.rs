//! `paper_cache` and `golden_ref`: the six Fig. 5 programs, on the
//! paper's prototype and on the reference board.
//!
//! Both build one session per program once and time reset-and-run-to-
//! halt passes over all six. `paper_cache` translates at
//! `DetailLevel::Cache` and runs on the VLIW trace tier under the
//! paper's 200/48 MHz synchronization device, so its time goes to VLIW
//! dispatch, cache-correction code and the sync device.
//! `golden_ref` runs larger inputs on the golden trace tier: TriCore
//! dispatch, the icache model and `exec::trace`, and none of
//! `cabt-core`, `cabt-vliw` or `cabt-platform`.

use crate::report::{Checks, Metric};
use crate::run::{mips, sample_loop, Opts, Run, BOARD_HZ, TARGET_HZ};
use crate::trace::Tracer;
use cabt_core::DetailLevel;
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_platform::PlatformConfig;
use cabt_sim::{Backend, Session, SimBuilder};
use cabt_workloads::Workload;
use std::time::Instant;

/// Which vehicle the six programs run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vehicle {
    /// Translated at the cache level, on the paper's sync device.
    Prototype,
    /// The golden model (the reference board).
    Board,
}

/// The six programs, inputs drawn from `seed`. Sizes give each program
/// a similar share of a pass (about 13 ms each on the prototype, 3–10 ms
/// each on the board, on a 2020s x86 host). Every loop count stays below
/// 32768: the programs load it with a sign-extended 16-bit `mov`.
pub fn programs(vehicle: Vehicle, seed: u64, smoke: bool) -> Vec<Workload> {
    use cabt_workloads::{dpcm, ellip, fir, gcd, sieve, subband};
    // Sieve has no data; its size moves with the seed instead.
    let jitter = (seed % 16) as u32;
    if smoke {
        return vec![
            gcd(8, seed),
            dpcm(60, seed),
            fir(8, 40, seed),
            ellip(20, seed),
            sieve(100 + jitter),
            subband(20, seed),
        ];
    }
    match vehicle {
        Vehicle::Prototype => vec![
            gcd(320, seed),
            dpcm(7200, seed),
            fir(16, 1200, seed),
            ellip(2880, seed),
            sieve(2600 + jitter),
            subband(3600, seed),
        ],
        Vehicle::Board => vec![
            gcd(8000, seed),
            dpcm(32_000, seed),
            fir(16, 12_000, seed),
            ellip(16_000, seed),
            sieve(29_980 + jitter),
            subband(24_000, seed),
        ],
    }
}

fn backend(vehicle: Vehicle) -> Backend {
    match vehicle {
        Vehicle::Prototype => Backend::translated_trace(DetailLevel::Cache),
        Vehicle::Board => Backend::golden_trace(),
    }
}

/// Built sessions plus what the samples check them against.
struct Setup {
    programs: Vec<Workload>,
    sessions: Vec<Session>,
    build_s: f64,
}

fn setup(vehicle: Vehicle, opts: &Opts, tracer: &Tracer) -> Setup {
    let top = tracer.span("bench.setup");
    let programs = {
        let _s = top.child("workloads.generate");
        programs(vehicle, opts.seed, opts.smoke)
    };
    let elfs: Vec<_> = {
        let _s = top.child("tricore.assemble");
        programs
            .iter()
            .map(|w| {
                w.elf()
                    .unwrap_or_else(|e| panic!("{} assembles: {e}", w.name))
            })
            .collect()
    };
    let start = Instant::now();
    let sessions = {
        let _s = top.child("sim.build");
        elfs.into_iter()
            .map(|elf| {
                SimBuilder::elf(elf)
                    .backend(backend(vehicle))
                    .platform(PlatformConfig::default())
                    .build()
                    .expect("session builds")
            })
            .collect()
    };
    Setup {
        programs,
        sessions,
        build_s: start.elapsed().as_secs_f64(),
    }
}

/// Golden instruction and cycle counts of each program, plus the
/// cache-level translation's generated cycles — the reference every
/// translated count is compared with (one run each, untimed).
fn reference(
    programs: &[Workload],
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(EngineStats, u64)> {
    let _s = tracer.span("bench.reference");
    programs
        .iter()
        .map(|w| {
            let mut run = |b: Backend| {
                let mut s = SimBuilder::workload(w).backend(b).build().expect("builds");
                let stop = s.run(Limit::Cycles(u64::MAX));
                let ok = matches!(stop, Ok(StopCause::Halted)) && s.read_d(2) == w.expected_d2;
                checks.check(ok, || format!("{} reference run on {b}: {stop:?}", w.name));
                s
            };
            let golden = run(Backend::golden_trace()).stats();
            let translated = run(Backend::translated(DetailLevel::Cache));
            let generated = translated
                .platform_stats()
                .expect("translated session")
                .total_generated();
            (golden, generated)
        })
        .collect()
}

/// Runs `paper_cache` ([`Vehicle::Prototype`]) or `golden_ref`
/// ([`Vehicle::Board`]).
pub fn run(vehicle: Vehicle, opts: &Opts, tracer: &Tracer) -> Run {
    let mut st = setup(vehicle, opts, tracer);
    let mut checks = Checks::default();
    let reference = reference(&st.programs, tracer, &mut checks);

    // Budgets far above any correct run: a runaway session stops and
    // counts as failed instead of hanging the benchmark.
    let caps: Vec<u64> = reference
        .iter()
        .map(|(g, _)| 100 * g.cycles + 1_000_000)
        .collect();
    let mut first: Vec<Option<EngineStats>> = vec![None; st.sessions.len()];
    let mut last_generated = vec![0u64; st.sessions.len()];
    let setup_again = || setup(vehicle, opts, tracer);
    let sampled = sample_loop(opts, tracer, setup_again, |tracer| {
        let top = tracer.span("bench.sample");
        let start = Instant::now();
        for (i, s) in st.sessions.iter_mut().enumerate() {
            {
                let _r = top.child("sim.reset");
                s.reset();
            }
            let stop = {
                let _r = top.child("sim.run");
                s.run(Limit::Cycles(caps[i]))
            };
            let stats = s.stats();
            let w = &st.programs[i];
            let same = *first[i].get_or_insert(stats) == stats;
            checks.check(
                matches!(stop, Ok(StopCause::Halted)) && s.read_d(2) == w.expected_d2 && same,
                || {
                    format!(
                        "{}: {stop:?}, %d2 {:#x}, stats repeat {same}",
                        w.name,
                        s.read_d(2)
                    )
                },
            );
            if let Some(p) = s.platform_stats() {
                last_generated[i] = p.total_generated();
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    });

    let instrs: u64 = reference.iter().map(|(g, _)| g.retired).sum();
    let golden_cycles: u64 = reference.iter().map(|(g, _)| g.cycles).sum();
    let engine_cycles: u64 = first.iter().flatten().map(|s| s.cycles).sum();
    let model_mips = match vehicle {
        Vehicle::Prototype => mips(instrs, engine_cycles, TARGET_HZ),
        Vehicle::Board => mips(instrs, engine_cycles, BOARD_HZ),
    };
    let deviation: u64 = reference
        .iter()
        .map(|(g, generated)| generated.abs_diff(g.cycles))
        .sum();
    if vehicle == Vehicle::Prototype {
        // The sampled sessions must generate what the reference
        // translation generated: the sync device may stall the
        // prototype, never change its modelled time.
        let same = last_generated
            .iter()
            .zip(&reference)
            .all(|(got, (_, want))| got == want);
        checks.check(same, || {
            "sampled generated cycles differ from the reference".into()
        });
    }

    let ms = sampled.host_ms().unwrap_or(f64::NAN);
    let sessions = st.sessions.len() as f64;
    let build_ms = st.build_s * 1e3;
    Run {
        checks,
        sampled,
        host_mips: instrs as f64 / (ms / 1e3) / 1e6,
        sessions_per_s: sessions / (ms / 1e3),
        model_mips,
        cycle_dev_pct: deviation as f64 / golden_cycles as f64 * 100.0,
        layer: vec![
            Metric::new("sim.build_ms", build_ms, "ms"),
            Metric::new("sim.build_share", build_ms / (build_ms + ms), "ratio"),
            Metric::new("sim.epochs_per_run", 0.0, "count"),
            Metric::new("platform.bus_tx_per_epoch", 0.0, "count"),
            Metric::new("fleet.queue_share", 0.0, "ratio"),
        ],
        info: vec![
            Metric::new("source_instructions_per_sample", instrs as f64, "count"),
            Metric::new("sessions_per_sample", sessions, "count"),
        ],
        programs: std::mem::take(&mut st.programs),
    }
}
