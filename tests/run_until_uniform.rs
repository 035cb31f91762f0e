//! Cross-engine regression for the uniform `run_until` contract: the
//! halt check precedes the budget check, so a halted engine reports
//! `Halted` whatever its budget, and a live engine with a zero budget,
//! or a limit already met at entry, returns `LimitReached`; neither
//! dispatches anything — on *every* backend, driven purely through the
//! `ExecutionEngine` trait via `cabt-sim` sessions. A run whose budget
//! runs out exactly on its halting unit has completed, whichever driver
//! runs it.

use cabt::prelude::*;
use cabt_exec::fingerprint_engine;
use cabt_exec::trace::TraceConfig;
use cabt_tricore::sim::DispatchMode;
use cabt_vliw::sim::{VliwDispatch, VliwSim};

const SUM: &str = "
    .text
_start:
    mov %d0, 10
    mov %d2, 0
top:
    add %d2, %d0
    addi %d0, %d0, -1
    jnz %d0, top
    debug
";

/// Every backend variant: [`Backend::all`] plus the two naive
/// reference interpreters (the VLIW one at every detail level), so the
/// sweep cannot drift from the enum.
fn all_backends() -> Vec<Backend> {
    let mut v = Backend::all();
    v.push(Backend::Golden {
        dispatch: Dispatch::Naive,
    });
    v.extend(DetailLevel::ALL.map(|level| Backend::Translated { level, naive: true }));
    v
}

/// True for the golden trace backend, whose dispatch unit is a fused
/// trace once one forms: its budget checks happen between units, so an
/// unmet budget may be overshot into the end of the current trace
/// (documented on `DispatchMode::Trace`). Every *met-at-entry* semantic
/// below is identical regardless.
fn trace_granular(backend: Backend) -> bool {
    matches!(
        backend,
        Backend::Golden {
            dispatch: Dispatch::Trace
        }
    )
}

/// One session per backend, labelled, with whether its budgets may
/// overshoot — plus the trace backend again with a warm-up of 0, where
/// no trace forms and each step dispatches one compiled instruction,
/// so its budgets are exact.
fn sessions() -> Vec<(String, bool, Session)> {
    let block_dispatch = TraceConfig {
        warmup: 0,
        ..TraceConfig::default()
    };
    let mut v = Vec::new();
    for backend in all_backends() {
        let build = |trace| {
            SimBuilder::asm(SUM)
                .backend(backend)
                .trace_config(trace)
                .build()
                .expect("builds")
        };
        let traced = trace_granular(backend);
        v.push((backend.to_string(), traced, build(TraceConfig::default())));
        if traced {
            v.push((format!("{backend} warm-up 0"), false, build(block_dispatch)));
        }
    }
    v
}

#[test]
fn zero_budget_returns_limit_without_stepping() {
    for (label, _, mut s) in sessions() {
        for limit in [Limit::Cycles(0), Limit::Retirements(0)] {
            assert_eq!(
                s.run_until(limit).unwrap(),
                StopCause::LimitReached,
                "{label}: {limit:?}"
            );
            assert_eq!(s.stats().retired, 0, "{label}: {limit:?} must not dispatch");
            assert_eq!(s.cycle(), 0, "{label}: {limit:?} must not advance time");
        }
    }
}

#[test]
fn already_met_limits_return_limit_without_stepping() {
    for (label, traced, mut s) in sessions() {
        // Make some progress, then ask for less than already done.
        assert_eq!(
            s.run_until(Limit::Retirements(3)).unwrap(),
            StopCause::LimitReached,
            "{label}"
        );
        let before = s.stats();
        if traced {
            assert!(
                before.retired >= 3,
                "{label}: trace budgets stop at the next boundary"
            );
        } else {
            assert_eq!(before.retired, 3, "{label}: retirement budgets are exact");
        }
        for limit in [
            Limit::Retirements(3),
            Limit::Retirements(1),
            Limit::Cycles(s.cycle()),
            Limit::Cycles(1),
        ] {
            assert_eq!(
                s.run_until(limit).unwrap(),
                StopCause::LimitReached,
                "{label}: {limit:?}"
            );
            assert_eq!(
                s.stats(),
                before,
                "{label}: {limit:?} must leave the engine untouched"
            );
        }
    }
}

#[test]
fn halt_check_precedes_budget_check() {
    for (label, _, mut s) in sessions() {
        assert_eq!(
            s.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted,
            "{label}"
        );
        assert!(s.is_halted(), "{label}");
        let done = (s.stats(), cabt_exec::fingerprint_engine(&s));
        // A spent budget on a halted engine still reports the halt, and
        // dispatches nothing.
        for limit in [Limit::Cycles(0), Limit::Retirements(0)] {
            assert_eq!(
                s.run_until(limit).unwrap(),
                StopCause::Halted,
                "{label}: {limit:?} on a halted engine"
            );
            assert_eq!(
                (s.stats(), cabt_exec::fingerprint_engine(&s)),
                done,
                "{label}: {limit:?} must leave the halted engine untouched"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Budgets spent on the halting unit
// ---------------------------------------------------------------------

/// The shapes of the exact-halt sweep: [`Backend::all`], the two naive
/// references the fleet serves, and two-core shard sets of the golden
/// and the translated model on both schedules.
fn exact_halt_shapes() -> Vec<Backend> {
    let mut v = Backend::all();
    v.extend(
        ["golden:naive", "translated:cache:naive"]
            .map(|d| d.parse::<Backend>().expect("descriptor")),
    );
    for base in [Backend::golden(), Backend::translated(DetailLevel::Cache)] {
        for schedule in [ShardSchedule::Sequential, ShardSchedule::Pooled(2)] {
            v.push(Backend::sharded_with_schedule(2, base, schedule));
        }
    }
    v
}

/// A registry program on `backend`, or `None` when it cannot halt there.
fn registry_session(name: &str, backend: Backend) -> Option<Session> {
    match SimBuilder::named(name).backend(backend).build() {
        Ok(s) => Some(s),
        Err(SessionError::UnsupportedShape { .. }) => None,
        Err(e) => panic!("{name} on {backend}: {e}"),
    }
}

/// What a completed run leaves: the engine trajectory, the counters
/// and the SoC device state.
type Final = (
    u64,
    cabt_exec::EngineStats,
    Option<cabt_platform::SocBusState>,
);

fn final_of(s: &Session) -> Final {
    (
        cabt_exec::fingerprint_engine(s),
        s.stats(),
        s.soc_bus_state(),
    )
}

/// `s` run under `limit` through [`Session::spawn_on`].
fn spawned(pool: &FleetPool, s: Session, limit: Limit) -> (Session, StopCause) {
    let (tx, rx) = std::sync::mpsc::channel();
    s.spawn_on(
        pool,
        limit,
        (),
        |_, _| {},
        move |ran| {
            let _ = tx.send(ran);
        },
    );
    let (s, stop, ()) = rx.recv().expect("the run reports").expect("runs");
    (s, stop)
}

/// A budget of exactly the cycles or the retirements a program needs to
/// halt completes the run on every shape and through every driver — the
/// engine's `run_until`, `Session::run`, `spawn_on` — and stepping to
/// the halt ends where the unbounded run does; each leaves the
/// unbounded run's final state.
#[test]
fn a_budget_spent_on_the_halting_unit_completes_the_run() {
    let pool = FleetPool::new(2);
    for backend in exact_halt_shapes() {
        for name in cabt_workloads::names() {
            let build = || registry_session(name, backend);
            let Some(mut straight) = build() else {
                continue;
            };
            let unbounded = Limit::Cycles(u64::MAX);
            assert_eq!(straight.run_until(unbounded).unwrap(), StopCause::Halted);
            let want = final_of(&straight);
            let what = format!("{name} on {backend}");
            for limit in [
                Limit::Cycles(want.1.cycles),
                Limit::Retirements(want.1.retired),
            ] {
                let mut s = build().expect("builds");
                let stop = s.run_until(limit).unwrap();
                assert_eq!(stop, StopCause::Halted, "{what}: run_until {limit:?}");
                assert_eq!(final_of(&s), want, "{what}: run_until {limit:?}");
                let mut s = build().expect("builds");
                let stop = s.run(limit).unwrap();
                assert_eq!(stop, StopCause::Halted, "{what}: run {limit:?}");
                assert_eq!(final_of(&s), want, "{what}: run {limit:?}");
                let (s, stop) = spawned(&pool, build().expect("builds"), limit);
                assert_eq!(stop, StopCause::Halted, "{what}: spawn_on {limit:?}");
                assert_eq!(final_of(&s), want, "{what}: spawn_on {limit:?}");
            }
            let mut s = build().expect("builds");
            for _ in 0..=want.1.retired {
                if s.is_halted() {
                    break;
                }
                s.step_unit().unwrap();
            }
            let stop = s.run_until(Limit::Retirements(0)).unwrap();
            assert_eq!(stop, StopCause::Halted, "{what}: stepped");
            assert_eq!(final_of(&s), want, "{what}: stepped");
        }
    }
}

/// A step on a halted session dispatches nothing, on every shape of
/// the exact-halt sweep: the engine trajectory, the counters and the
/// SoC device state stay as the halt left them.
#[test]
fn a_step_on_a_halted_session_dispatches_nothing() {
    for backend in exact_halt_shapes() {
        for name in cabt_workloads::names() {
            let Some(mut s) = registry_session(name, backend) else {
                continue;
            };
            let what = format!("{name} on {backend}");
            let stop = s.run_until(Limit::Cycles(u64::MAX)).unwrap();
            assert_eq!(stop, StopCause::Halted, "{what}");
            let halted = final_of(&s);
            if let Err(e) = s.step_unit() {
                panic!("{what}: a step after the halt faults: {e}");
            }
            assert_eq!(final_of(&s), halted, "{what}: a step after the halt");
        }
    }
}

/// Code after the halt: a step past the `debug` would run `mov %d2, 5`.
const AFTER_HALT: &str = "
    .text
_start:
    mov %d2, 1
    debug
    mov %d2, 5
    debug
";

/// A direct step on a halted engine dispatches nothing, below the
/// session layer too: `Simulator::step` on the golden model in every
/// dispatch mode (it reports `None`), and `step_unit` on the VLIW core
/// at every detail level on both of its cores. The engine's fingerprint
/// and its counters stay as the halt left them.
#[test]
fn a_direct_step_on_a_halted_engine_dispatches_nothing() {
    let elf = assemble(AFTER_HALT).unwrap();
    for (mode, warmup) in [
        (DispatchMode::Trace, 0),
        (DispatchMode::Trace, 1),
        (DispatchMode::Naive, 0),
    ] {
        let mut sim = Simulator::new(&elf).unwrap();
        sim.set_trace_config(TraceConfig {
            warmup,
            ..TraceConfig::default()
        });
        sim.set_dispatch(mode);
        sim.run(100).unwrap();
        let what = format!("golden {mode:?}, warm-up {warmup}");
        let halted = (fingerprint_engine(&sim), sim.stats());
        let stepped = sim.step();
        assert!(matches!(stepped, Ok(None)), "{what}: {stepped:?}");
        assert_eq!((fingerprint_engine(&sim), sim.stats()), halted, "{what}");
        assert_eq!(sim.cpu.d(2), 1, "{what}");
    }
    for level in DetailLevel::ALL {
        let program = Translator::new(level)
            .translate(&elf)
            .unwrap()
            .program()
            .unwrap();
        for mode in [VliwDispatch::Trace, VliwDispatch::Naive] {
            let mut sim = VliwSim::instantiate(program.clone());
            sim.set_dispatch(mode);
            sim.run(10_000).unwrap();
            let what = format!("vliw {level} {mode:?}");
            let halted = (fingerprint_engine(&sim), sim.stats());
            sim.step_unit().unwrap();
            assert_eq!((fingerprint_engine(&sim), sim.stats()), halted, "{what}");
        }
    }
}

// ---------------------------------------------------------------------
// Stop points of the compiled tiers' run loops
// ---------------------------------------------------------------------
//
// Each compiled core runs `run_until` in a loop of its own that keeps
// the pipeline in locals. These sweeps pin its budget checks to the
// unit boundaries `cabt_exec::run_until_with` checks at: every budget
// below must stop the loop exactly where the reference stops.

/// The swept backends. The first entry of each pair is driven by its
/// own `run_until`; the second names its reference: the `:naive`
/// session (independent semantics, the same one-unit stop points as a
/// warm-up of 0), or `stepped` — the same backend driven by
/// `run_until_with(.., step_unit)`, which stops after every trace run
/// and side exit.
const SWEPT: [(&str, &str); 6] = [
    ("golden", "golden:naive"),
    ("golden:trace", "stepped"),
    ("translated:static", "translated:static:naive"),
    ("translated:cache", "translated:cache:naive"),
    ("sharded-2x:golden", "sharded-2x:golden:naive"),
    (
        "sharded-2x:translated:cache",
        "sharded-2x:translated:cache:naive",
    ),
];

/// Units whose boundaries are each a budget of their own.
const FIRST_UNITS: u64 = 300;

/// Strides of the budgets past the first units (primes, so the stops
/// fall at every phase of the programs' loops).
const CYCLE_STRIDE: u64 = 997;
const RETIREMENT_STRIDE: u64 = 331;

/// A registry program on `backend`, or `None` when the program cannot
/// halt on it (it needs the shard fabric).
fn named_session(name: &str, backend: &str) -> Option<Session> {
    match SimBuilder::named(name)
        .backend(backend.parse().expect("backend parses"))
        .build()
    {
        Ok(s) => Some(s),
        Err(SessionError::UnsupportedShape { .. }) => None,
        Err(e) => panic!("{name} on {backend}: {e}"),
    }
}

/// One side of a sweep: a session and how it is driven.
struct Side {
    session: Session,
    stepped: bool,
}

impl Side {
    fn run(&mut self, limit: Limit) -> StopCause {
        let s = &mut self.session;
        let stop = if self.stepped {
            cabt_exec::run_until_with(s, limit, Session::step_unit)
        } else {
            s.run_until(limit)
        };
        stop.expect("registry programs run without faults")
    }

    fn observe(
        &self,
    ) -> (
        u64,
        cabt_exec::EngineStats,
        Option<cabt_exec::trace::TraceStats>,
    ) {
        let s = &self.session;
        (cabt_exec::fingerprint_engine(s), s.stats(), s.trace_stats())
    }
}

/// Cycle counts at the first [`FIRST_UNITS`] unit boundaries of the
/// reference, stepped one unit at a time.
fn unit_boundaries(name: &str, reference: &str) -> Vec<u64> {
    let mut s = named_session(name, reference).expect("reference builds");
    let mut cycles = Vec::new();
    for _ in 0..FIRST_UNITS {
        if s.is_halted() {
            break;
        }
        s.step_unit().expect("steps");
        cycles.push(s.cycle());
    }
    cycles
}

/// Drives `backend` and its reference through the same increasing
/// budgets `limits` (then to the halt), comparing stop cause,
/// fingerprint, counters and trace counters at every stop.
fn sweep(name: &str, backend: &str, reference: &str, limits: impl Iterator<Item = Limit>) -> usize {
    let Some(session) = named_session(name, backend) else {
        return 0;
    };
    let mut subject = Side {
        session,
        stepped: false,
    };
    let (ref_backend, stepped) = match reference {
        "stepped" => (backend, true),
        r => (r, false),
    };
    let mut reference = Side {
        session: named_session(name, ref_backend).expect("reference builds"),
        stepped,
    };
    let mut stops = 0;
    for limit in limits.chain([Limit::Cycles(u64::MAX)]) {
        let got = subject.run(limit);
        let want = reference.run(limit);
        assert_eq!(got, want, "{name} on {backend}: stop cause at {limit:?}");
        assert_eq!(
            subject.observe(),
            reference.observe(),
            "{name} on {backend}: state at {limit:?} (reference {ref_backend}{})",
            if stepped { ", stepped" } else { "" }
        );
        stops += 1;
        if got == StopCause::Halted {
            return stops;
        }
    }
    unreachable!("an unbounded budget halts")
}

#[test]
fn compiled_loops_stop_where_the_reference_stops_on_cycle_budgets() {
    for name in cabt_workloads::names() {
        for (backend, reference) in SWEPT {
            let ref_backend = if reference == "stepped" {
                backend
            } else {
                reference
            };
            if named_session(name, backend).is_none() {
                continue;
            }
            // Every unit boundary of the first units, and one cycle past
            // it (the loop must run on to the next boundary), then a
            // prime stride to the halt.
            let mut budgets: Vec<u64> = unit_boundaries(name, ref_backend)
                .into_iter()
                .flat_map(|c| [c, c + 1])
                .collect();
            let from = budgets.last().copied().unwrap_or(0);
            budgets.extend((1..).map(|k| from + k * CYCLE_STRIDE).take(100_000));
            budgets.dedup();
            let stops = sweep(
                name,
                backend,
                reference,
                budgets.into_iter().map(Limit::Cycles),
            );
            assert!(stops > 1, "{name} on {backend}: the sweep stopped the run");
        }
    }
}

#[test]
fn compiled_loops_stop_where_the_reference_stops_on_retirement_budgets() {
    for name in cabt_workloads::names() {
        for (backend, reference) in SWEPT {
            let budgets = (1..=FIRST_UNITS)
                .chain(
                    (1..)
                        .map(|k| FIRST_UNITS + k * RETIREMENT_STRIDE)
                        .take(100_000),
                )
                .map(Limit::Retirements);
            sweep(name, backend, reference, budgets);
        }
    }
}
