//! The fleet service: a batch of concurrent sessions as epoch-sized
//! work items on a fixed pool with one FIFO job queue, plus portable
//! park/resume.
//!
//! Three claims, proved end to end:
//!
//! 1. **Bounded host parallelism.** Eight sessions (some of them
//!    2-shard multi-core vehicles) run concurrently over a pool of a
//!    few workers — M sessions × N shards multiplex as epoch rounds,
//!    instead of one thread per shard per round.
//! 2. **Schedule independence.** The same batch on a 1-worker pool and
//!    a 4-worker pool simulates *bit-identically* — every session's
//!    rolling per-epoch `fingerprint_engine` digest chain matches, not
//!    just the final state.
//! 3. **Portable sessions.** A session parks to versioned bytes
//!    mid-run and resumes *inside a pool worker*, finishing with the
//!    same fingerprint as the uninterrupted run.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```

use cabt::prelude::*;
use std::sync::{Arc, Mutex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mixed batch: every bundled workload, single-core and sharded.
    let mut requests = Vec::new();
    for name in ["gcd", "fir", "sieve", "dpcm", "ellip", "subband"] {
        requests.push(
            FleetRequest::named(name)
                .backend(Backend::translated(DetailLevel::Static))
                .budget(Limit::Cycles(50_000_000)),
        );
    }
    requests.push(
        FleetRequest::named("producer_consumer")
            .backend(Backend::sharded(
                2,
                Backend::translated(DetailLevel::Static),
            ))
            .budget(Limit::Cycles(50_000_000)),
    );
    requests.push(
        FleetRequest::named("fibonacci")
            .backend(Backend::golden_trace())
            .budget(Limit::Cycles(50_000_000)),
    );

    let pool = FleetPool::new(4);
    println!(
        "fleet: {} sessions over {} pool workers",
        requests.len(),
        pool.workers()
    );
    let results = run_fleet(&pool, &requests);
    for result in &results {
        let r = result.as_ref().map_err(std::string::ToString::to_string)?;
        assert!(r.checksum_ok(), "{}: wrong checksum", r.workload);
        println!(
            "  {:<18} {:<28} {:>4} epochs  {:>8} retired  d2={:#010x}  chain={:016x}",
            r.workload,
            r.backend.to_string(),
            r.epochs,
            r.stats.retired,
            r.d2,
            r.epoch_chain,
        );
    }

    // Schedule independence: rerun the identical batch on a single
    // worker and compare every digest chain.
    let serial = run_fleet(&FleetPool::new(1), &requests);
    for (a, b) in results.iter().zip(&serial) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.epoch_chain, b.epoch_chain,
            "{}: worker count leaked into the simulation",
            a.workload
        );
        assert_eq!(a.stats, b.stats, "{}", a.workload);
    }
    println!("  1-worker rerun: every epoch digest chain identical");

    // Portable park/resume: interrupt a session mid-run, serialize it,
    // finish it inside a pool worker, and match the uninterrupted run.
    let backend = Backend::translated(DetailLevel::Cache);
    let mut donor = SimBuilder::named("sieve").backend(backend).build()?;
    donor.run(Limit::Retirements(1_000))?;
    let parked = donor.park()?;
    donor.run(Limit::Cycles(50_000_000))?;
    let expected = cabt::exec::fingerprint_engine(&donor);

    let latch = Arc::new(cabt::fleet::Latch::new(1));
    let slot = Arc::new(Mutex::new(None));
    let (l2, s2) = (Arc::clone(&latch), Arc::clone(&slot));
    pool.spawn(move || {
        let mut resumed = Session::resume(&parked).expect("parked bytes decode");
        resumed
            .run(Limit::Cycles(50_000_000))
            .expect("resumed session finishes");
        *s2.lock().unwrap() = Some(cabt::exec::fingerprint_engine(&resumed));
        l2.count_down();
    });
    latch.wait();
    let resumed_digest = slot.lock().unwrap().take().expect("worker finished");
    assert_eq!(
        resumed_digest, expected,
        "park/resume must be bit-identical to the uninterrupted run"
    );
    println!(
        "  park ({} bytes) -> resume on a pool worker: fingerprint {:016x} matches",
        donor.park()?.len(),
        expected
    );
    Ok(())
}
