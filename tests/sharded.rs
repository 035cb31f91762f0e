//! The multi-core sharded backend: N engines sharing one SoC bus
//! behind the epoch-synchronized arbiter, driven through the uniform
//! `Session` lifecycle. Determinism is the contract — repeated runs,
//! and snapshot → restore → rerun, must produce identical per-shard
//! stats and identical merged UART logs.

use cabt::prelude::*;
use cabt_exec::EngineStats;
use cabt_sim::ShardedStats;

const BUDGET: Limit = Limit::Cycles(50_000_000);

fn pc_session(cores: u16, base: Backend) -> Session {
    SimBuilder::named("producer_consumer")
        .backend(Backend::sharded(cores, base))
        .build()
        .expect("sharded session builds")
}

fn run_to_halt(s: &mut Session) -> ShardedStats {
    assert_eq!(s.run(BUDGET).expect("runs"), StopCause::Halted);
    s.sharded_stats().expect("sharded session")
}

fn expected_checksum() -> u32 {
    cabt_workloads::by_name("producer_consumer")
        .unwrap()
        .expected_d2
}

#[test]
fn producer_consumer_hands_off_across_shards() {
    for cores in [2u16, 4] {
        for base in [Backend::translated(DetailLevel::Static), Backend::golden()] {
            let mut s = pc_session(cores, base);
            let stats = run_to_halt(&mut s);
            let want = expected_checksum();
            for i in 0..cores as usize {
                assert_eq!(
                    s.shard(i).unwrap().read_d(2),
                    want,
                    "{base} core {i}: consumer must see the producer's data"
                );
            }
            // Every core transmitted the checksum byte on the shared UART.
            assert_eq!(stats.uart.len(), cores as usize, "{base}: merged UART log");
            assert!(stats.uart.iter().all(|&(_, b)| b == (want & 0xff) as u8));
            assert!(
                stats.epochs > 0,
                "{base}: the arbiter must cross epoch boundaries"
            );
            assert!(stats.bus_transactions > 0);
            assert_eq!(stats.per_shard.len(), cores as usize);
            assert_eq!(
                stats.aggregate.retired,
                stats.per_shard.iter().map(|p| p.retired).sum::<u64>()
            );
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    for cores in [2u16, 4] {
        let run = || {
            let mut s = pc_session(cores, Backend::translated(DetailLevel::Static));
            run_to_halt(&mut s)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{cores} cores: independent runs diverged");

        // And reset + rerun inside one session reproduces the same.
        let mut s = pc_session(cores, Backend::translated(DetailLevel::Static));
        let first = run_to_halt(&mut s);
        assert_eq!(first, a);
        s.reset();
        assert_eq!(s.cycle(), 0, "reset rewinds the shard clocks");
        assert!(!s.is_halted());
        assert_eq!(
            s.sharded_stats().unwrap().uart.len(),
            0,
            "reset clears the shared UART log"
        );
        let second = run_to_halt(&mut s);
        assert_eq!(first, second, "{cores} cores: reset + rerun diverged");
    }
}

#[test]
fn snapshot_restore_replays_bit_identically() {
    for cores in [2u16, 4] {
        let mut s = pc_session(cores, Backend::translated(DetailLevel::Static));
        // Warm up into the middle of the handoff, snapshot, finish.
        assert_eq!(
            s.run_until(Limit::Cycles(500)).unwrap(),
            StopCause::LimitReached
        );
        let snap = s.snapshot();
        let end = run_to_halt(&mut s);
        let d2: Vec<u32> = (0..cores as usize)
            .map(|i| s.shard(i).unwrap().read_d(2))
            .collect();
        // Restore rewinds engines, sync devices, *and* the shared
        // peripherals (UART log, mailbox RAM, transaction counter).
        s.restore(&snap);
        let mid = s.sharded_stats().unwrap();
        assert!(
            mid.uart.len() < end.uart.len() || end.uart.is_empty(),
            "restore must rewind the shared UART log"
        );
        let replay = run_to_halt(&mut s);
        assert_eq!(end, replay, "{cores} cores: replay stats diverged");
        let d2_replay: Vec<u32> = (0..cores as usize)
            .map(|i| s.shard(i).unwrap().read_d(2))
            .collect();
        assert_eq!(d2, d2_replay, "{cores} cores: replay checksums diverged");
    }
}

#[test]
fn sharded_sessions_expose_uniform_engine_surface() {
    let mut s = pc_session(2, Backend::translated(DetailLevel::Static));
    // Flat register space concatenates the shards.
    let per = s.shard(0).unwrap().reg_count();
    assert_eq!(s.reg_count(), 2 * per);
    // Core ids live in %d15: shard 0 = 0, shard 1 = 1.
    assert_eq!(s.shard(0).unwrap().read_d(15), 0);
    assert_eq!(s.shard(1).unwrap().read_d(15), 1);

    // Uniform run_until entry semantics: budget precedes halt.
    assert_eq!(
        s.run_until(Limit::Cycles(0)).unwrap(),
        StopCause::LimitReached
    );
    assert_eq!(s.stats().retired, 0, "zero budget must not dispatch");
    assert_eq!(
        s.run_until(Limit::Retirements(0)).unwrap(),
        StopCause::LimitReached
    );

    // Single-stepping interleaves deterministically.
    for _ in 0..32 {
        s.step().unwrap();
    }
    assert_eq!(s.stats().retired, 32);

    // Aggregate retirement budgets overshoot by fewer than `cores`.
    let before = s.stats().retired;
    s.run_until(Limit::Retirements(before + 100)).unwrap();
    let after = s.stats().retired;
    assert!(after >= before + 100);
    assert!(
        after < before + 100 + 2,
        "aggregate retirement budget overshot by {}",
        after - before - 100
    );
}

#[test]
fn every_base_backend_shards() {
    // The same SPMD program on golden, translated and RTL shards; RTL
    // has no I/O window, so run the pure-compute SUM program there.
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
    for base in Backend::all() {
        let backend = Backend::sharded(3, base);
        let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
        assert_eq!(s.run(BUDGET).unwrap(), StopCause::Halted, "{backend}");
        for i in 0..3 {
            assert_eq!(s.shard(i).unwrap().read_d(2), 55, "{backend} shard {i}");
        }
        let agg: EngineStats = s.stats();
        assert_eq!(
            agg.retired,
            3 * s.shard(0).unwrap().stats().retired,
            "{backend}: identical shards retire identically"
        );
    }
}

#[test]
fn shard_config_is_validated() {
    let err = SimBuilder::named("producer_consumer")
        .backend(Backend::Sharded {
            cores: 0,
            backend: cabt_sim::ShardBackend::Rtl,
            schedule: cabt_sim::ShardSchedule::default(),
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, SessionError::ShardConfig(_)));
    // Above the CoreLink window's 256 cores the fabric would build
    // cores no doorbell can reach; the builder refuses before building.
    for cores in [cabt_sim::MAX_SHARDS + 1, u16::MAX] {
        let err = SimBuilder::named("gcd")
            .backend(Backend::sharded(cores, Backend::golden()))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, SessionError::ShardConfig(_)),
            "{cores}: {err}"
        );
    }
    assert_eq!(
        format!(
            "{}",
            Backend::sharded(4, Backend::translated(DetailLevel::Static))
        ),
        "sharded-4x:translated:static"
    );
}

#[test]
#[should_panic(expected = "cannot restore")]
fn cross_backend_restore_into_sharded_panics() {
    let golden = SimBuilder::named("gcd").build().unwrap();
    let mut sharded = SimBuilder::named("gcd")
        .backend(Backend::sharded(2, Backend::golden()))
        .build()
        .unwrap();
    let snap = golden.snapshot();
    sharded.restore(&snap);
}
