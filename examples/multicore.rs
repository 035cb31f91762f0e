//! Multi-core sharding: N cores, private device clones reconciled at
//! epoch barriers, one session — under BOTH shard schedules.
//!
//! `Backend::Sharded` builds N copies of any single-core vehicle, each
//! around a *private* clone of the SoC device population (timer, UART,
//! scratch-RAM mailbox, CoreLink doorbell endpoint). Shards run one
//! epoch at a time; at every barrier the `ShardArbiter` reconciles the
//! per-shard device states (O(traffic) delta journals; idle devices
//! are skipped). Because shards never touch each other's state inside
//! an epoch, the sequential scheduler (every shard on the calling
//! thread) and the *pooled* scheduler (epoch rounds as work items on a
//! fixed fleet pool) produce **bit-identical** runs — both are
//! executors of one epoch-round engine. This example proves it end to
//! end, then proves save → load → rerun replays bit-identically too.
//!
//! The bundled `producer_consumer` workload is SPMD: every core runs
//! the same image and picks its role from the core id seeded into
//! `%d15` — core 0 publishes data through the shared scratch RAM,
//! every other core polls the mailbox, checksums the data and
//! transmits the result on the shared UART.
//!
//! The finale scales to NoC width: 64 cores on the pooled schedule
//! running the `mailbox` workload — an all-to-all over the per-shard
//! CoreLink doorbell fabric (core id read from MMIO, no `%d15`, no
//! shared RAM) — with one shard parked mid-run and adopted back onto
//! the *other* dispatch core (live migration), invisibly to the
//! result.
//!
//! ```sh
//! cargo run --release --example multicore
//! ```

use cabt::isa::codec::ByteReader;
use cabt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = cabt_workloads::by_name("producer_consumer").expect("bundled workload");

    for cores in [2u16, 4] {
        let build = |schedule: ShardSchedule| {
            SimBuilder::workload(&workload)
                .backend(Backend::sharded_with_schedule(
                    cores,
                    Backend::translated(DetailLevel::Static),
                    schedule,
                ))
                .build()
        };

        let mut session = build(ShardSchedule::Sequential)?;

        // Snapshot mid-handoff, finish, then prove the replay.
        session.run_until(Limit::Cycles(500))?;
        let mut snap = Vec::new();
        session.save_state(&mut snap);
        session.run(Limit::Cycles(50_000_000))?;
        let stats = session.sharded_stats().expect("sharded session");

        println!("{cores} cores, sequential scheduler:");
        for (i, per) in stats.per_shard.iter().enumerate() {
            let role = if i == 0 { "producer" } else { "consumer" };
            println!(
                "  core {i} ({role:8}) d2={:#010x}  {per}",
                session.shard(i).expect("shard").read_d(2)
            );
        }
        println!(
            "  aggregate: {}  |  {} bus transactions, {} epochs, merged UART {:?}",
            stats.aggregate,
            stats.bus_transactions,
            stats.epochs,
            stats
                .uart
                .iter()
                .map(|&(t, b)| format!("{b:#04x}@{t}"))
                .collect::<Vec<_>>()
        );

        // Every core must agree on the checksum...
        for i in 0..cores as usize {
            assert_eq!(
                session.shard(i).expect("shard").read_d(2),
                workload.expected_d2,
                "core {i} checksum"
            );
        }

        // ...the POOLED scheduler must reproduce the run
        // bit-identically (epoch rounds as work items on a fixed
        // two-worker fleet pool, same barrier exchanges), here in one
        // run call: barriers fall where the epoch puts them, not where
        // a run stops.
        let mut pooled = build(ShardSchedule::Pooled(2))?;
        pooled.run(Limit::Cycles(50_000_000))?;
        assert_eq!(
            pooled.sharded_stats().expect("sharded"),
            stats,
            "pooled scheduler must be bit-identical to sequential"
        );
        for i in 0..cores as usize {
            assert_eq!(
                pooled.shard(i).expect("shard").read_d(2),
                session.shard(i).expect("shard").read_d(2),
                "core {i}: pooled checksum"
            );
        }
        println!("  pooled scheduler (2 pool workers): bit-identical");

        // ...and a state image saved under one scheduler replays
        // bit-identically under the other: images pin simulation
        // state, not the host schedule.
        pooled.load_state(&mut ByteReader::new(&snap))?;
        pooled.run(Limit::Cycles(50_000_000))?;
        assert_eq!(
            pooled.sharded_stats().expect("sharded"),
            stats,
            "restore-replay across schedulers must be bit-identical"
        );
        println!("  state image (sequential) -> load -> pooled rerun: bit-identical\n");
    }

    // -- NoC scale: 64 cores on the fleet pool, doorbell mailboxes,
    // live shard migration ---------------------------------------------
    //
    // The mailbox workload is an all-to-all over the CoreLink doorbell
    // fabric: every core reads its id/count from MMIO (0xf000_2000),
    // rings every peer's doorbell with its contribution, and sums the
    // 64 epoch-synchronously delivered contributions into %d2 — no
    // shared RAM involved. Mid-run, shard 13 is parked and adopted
    // back onto the *trace* dispatch core; the barrier fabric keeps the
    // shard's bus slot, so the migration is invisible to the run.
    let mailbox = cabt_workloads::mailbox(64);
    let mut noc = SimBuilder::workload(&mailbox)
        .backend(Backend::sharded_pooled(64, 0, Backend::golden()))
        .build()?;
    noc.run_until(Limit::Cycles(8192))?; // two epochs: doorbells delivered
    let parked = noc.park_shard(13)?;
    noc.adopt_shard(13, &parked, Some(Backend::golden_trace()))?;
    noc.run(Limit::Cycles(50_000_000))?;
    for i in 0..64 {
        assert_eq!(
            noc.shard(i).expect("shard").read_d(2),
            mailbox.expected_d2,
            "core {i}: doorbell all-reduce"
        );
    }
    println!(
        "64 cores, pooled schedule: doorbell all-reduce = {} on every core \
         (shard 13 live-migrated to the trace dispatch core mid-run)",
        mailbox.expected_d2
    );
    Ok(())
}
