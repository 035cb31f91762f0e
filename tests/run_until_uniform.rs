//! Cross-engine regression for the uniform `run_until` contract: a
//! zero budget, or a limit already met at entry, returns
//! `LimitReached` without dispatching anything — on *every* backend,
//! driven purely through the `ExecutionEngine` trait via `cabt-sim`
//! sessions. The budget check precedes the halt check, so even a
//! halted engine reports an exhausted budget as `LimitReached`.

use cabt::prelude::*;
use cabt_exec::trace::TraceConfig;
use cabt_tricore::sim::DispatchMode;
use cabt_vliw::sim::VliwDispatch;

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
        dispatch: DispatchMode::Naive,
    });
    v.extend(DetailLevel::ALL.map(|level| Backend::Translated {
        level,
        dispatch: VliwDispatch::Naive,
    }));
    v
}

/// True for the trace backends, whose dispatch unit is a fused trace
/// once one forms: their budget checks happen between units, so an
/// unmet budget may be overshot into the end of the current trace
/// (documented on `DispatchMode::Trace` and `VliwDispatch::Trace`).
/// Every *met-at-entry* semantic below is identical regardless.
fn trace_granular(backend: Backend) -> bool {
    matches!(
        backend,
        Backend::Golden {
            dispatch: DispatchMode::Trace
        } | Backend::Translated {
            dispatch: VliwDispatch::Trace,
            ..
        }
    )
}

/// One session per backend, labelled, with whether its budgets may
/// overshoot — plus every trace backend again with a warm-up of 0,
/// where no trace forms and each step dispatches one compiled
/// instruction (golden) or packet (VLIW), so its budgets are exact.
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
fn budget_check_precedes_halt_check() {
    for (label, _, mut s) in sessions() {
        assert_eq!(
            s.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted,
            "{label}"
        );
        assert!(s.is_halted(), "{label}");
        // Exhausted budget wins over the halt...
        assert_eq!(
            s.run_until(Limit::Cycles(0)).unwrap(),
            StopCause::LimitReached,
            "{label}: zero budget on a halted engine"
        );
        assert_eq!(
            s.run_until(Limit::Retirements(0)).unwrap(),
            StopCause::LimitReached,
            "{label}: zero retirements on a halted engine"
        );
        // ...while an unexhausted budget still reports the halt.
        assert_eq!(
            s.run_until(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted,
            "{label}: halted engine with budget left"
        );
    }
}
