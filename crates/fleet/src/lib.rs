//! Fleet-scale session service over the CABT vehicles.
//!
//! The paper's platform is a *single-session* instrument: one workload,
//! one vehicle, one run. This crate turns it into a service. Three
//! pieces:
//!
//! * **[`FleetPool`]** — a fixed thread pool over one FIFO job queue.
//!   Epoch rounds are work items, so M concurrent sessions × N shards
//!   multiplex onto a bounded worker population.
//! * **The batch driver** ([`run_fleet`]) — builds every request as a
//!   [`Session`] with [`SimBuilder`] and hands it
//!   to the pool with [`Session::spawn_on`]: the session's rounds run
//!   on the pool executor of the one epoch-round engine in `cabt-exec`,
//!   so the simulation is bit-identical to a plain `Session` run. This
//!   crate keeps only request handling, the per-epoch
//!   [`cabt_exec::fingerprint_engine`] digest chain that pins that
//!   identity, and result assembly.
//! * **Portable sessions** — [`cabt_sim::Session::park`] serializes a
//!   mid-run session to versioned bytes; [`cabt_sim::Session::resume`]
//!   rebuilds it on any worker, or in another process entirely. The
//!   `fleet-server` binary front-ends both over a line protocol.
//!
//! ```
//! use cabt_exec::Limit;
//! use cabt_fleet::{run_fleet, FleetPool, FleetRequest};
//!
//! let pool = FleetPool::new(2);
//! let requests: Vec<FleetRequest> = ["gcd", "sieve"]
//!     .iter()
//!     .map(|w| FleetRequest::named(*w).budget(Limit::Cycles(10_000_000)))
//!     .collect();
//! for result in run_fleet(&pool, &requests) {
//!     let r = result?;
//!     assert!(r.checksum_ok());
//! }
//! # Ok::<(), cabt_sim::SessionError>(())
//! ```

pub use cabt_exec::pool::{FleetPool, Latch};

use cabt_exec::{fingerprint_engine, EngineStats, Fingerprint, Limit, StopCause};
use cabt_sim::{Backend, Session, SessionError, SimBuilder};
use std::sync::mpsc;

/// Scheduling epoch (target cycles) of every fleet session — the same
/// default granularity sharded sessions fall back to.
pub const FLEET_EPOCH_CYCLES: u64 = 4096;

/// One workload the fleet should run.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Named `cabt-workloads` entry (`"gcd"`, `"sieve"`, …).
    pub workload: String,
    /// The vehicle to run it on. Every epoch round of a
    /// [`Backend::Sharded`] request is one work item per shard; a
    /// single-core session is one work item per epoch. The sharded
    /// backend's own schedule is not used.
    pub backend: Backend,
    /// Run budget (frontier cycles or aggregate retirements, exactly as
    /// the session's [`cabt_exec::ExecutionEngine::run_until`]
    /// interprets them).
    pub budget: Limit,
}

impl FleetRequest {
    /// A request for the named workload on the default backend with an
    /// effectively unbounded budget.
    pub fn named(workload: impl Into<String>) -> FleetRequest {
        FleetRequest {
            workload: workload.into(),
            backend: Backend::default(),
            budget: Limit::Cycles(u64::MAX),
        }
    }

    /// Selects the backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the run budget.
    #[must_use]
    pub fn budget(mut self, budget: Limit) -> Self {
        self.budget = budget;
        self
    }
}

/// What one fleet session produced.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The request's workload name.
    pub workload: String,
    /// The request's backend.
    pub backend: Backend,
    /// Why the run stopped.
    pub stop: StopCause,
    /// Aggregate counters (`retired`/`stall_cycles` summed across
    /// shards, `cycles` the longest shard clock).
    pub stats: EngineStats,
    /// Epoch barriers the run reached; a round the budget cut short
    /// reaches none.
    pub epochs: u64,
    /// Final state digest: every shard's
    /// [`cabt_exec::fingerprint_engine`] mixed in shard order.
    pub digest: u64,
    /// Rolling digest chain over every epoch barrier — two schedulers
    /// ran the *same simulation* iff their chains match, not just their
    /// final states.
    pub epoch_chain: u64,
    /// Checksum register `%d2` of shard 0 at stop.
    pub d2: u32,
    /// The workload's predicted checksum on the backend's core count.
    pub expected_d2: u32,
    /// Merged UART transmit log (timestamped bytes), where the vehicle
    /// has a device fabric.
    pub uart: Vec<(u64, u8)>,
}

impl FleetResult {
    /// True when the session halted with the workload's predicted
    /// checksum for its core count in `%d2`.
    pub fn checksum_ok(&self) -> bool {
        self.stop == StopCause::Halted && self.d2 == self.expected_d2
    }
}

/// What a request's result needs besides its finished session.
struct Unit {
    workload: String,
    backend: Backend,
    expected_d2: u32,
}

/// Epoch barriers reached and the rolling per-barrier digest chain.
type Progress = (u64, Fingerprint);

impl Unit {
    fn build(req: &FleetRequest) -> Result<(Unit, Session), SessionError> {
        let w = cabt_sim::named_workload(&req.workload, req.backend)?;
        let unit = Unit {
            workload: req.workload.clone(),
            backend: req.backend,
            expected_d2: w.expected_d2,
        };
        let session = SimBuilder::asm(w.source)
            .backend(req.backend)
            .shard_epoch(FLEET_EPOCH_CYCLES)
            .build()?;
        Ok((unit, session))
    }

    fn result(self, session: &Session, stop: StopCause, (epochs, chain): Progress) -> FleetResult {
        FleetResult {
            workload: self.workload,
            backend: self.backend,
            stop,
            stats: session.stats(),
            epochs,
            digest: digest(session),
            epoch_chain: chain.digest(),
            d2: session.read_d(2),
            expected_d2: self.expected_d2,
            uart: session.uart_log(),
        }
    }
}

/// Every shard's [`fingerprint_engine`] mixed in shard order (the
/// session itself when single-core).
fn digest(session: &Session) -> u64 {
    let mut fp = Fingerprint::new();
    for i in 0..session.shard_count() {
        fp.mix_u64(fingerprint_engine(session.shard(i).unwrap_or(session)));
    }
    fp.digest()
}

/// Extends the epoch count and digest chain at a barrier.
fn on_barrier((epochs, chain): &mut Progress, shards: &[&Session]) {
    *epochs += 1;
    for shard in shards {
        chain.mix_u64(fingerprint_engine(*shard));
    }
}

/// Runs every request to completion on the pool and returns the results
/// in request order. Sessions run *concurrently* — M sessions × N
/// shards multiplex as epoch-sized work items over the pool's fixed
/// worker population, and no pool job ever blocks — but each session's
/// simulation is bit-identical to a dedicated [`cabt_sim::Session::run`]
/// with the same budget, whatever the worker count (the per-epoch
/// digest chain in [`FleetResult::epoch_chain`] is the receipt).
///
/// Build failures (unknown workload, a workload that cannot halt on
/// the backend, invalid configuration) are reported per request; they
/// do not abort the batch.
pub fn run_fleet(
    pool: &FleetPool,
    requests: &[FleetRequest],
) -> Vec<Result<FleetResult, SessionError>> {
    let (tx, rx) = mpsc::channel();
    let mut results: Vec<Option<Result<FleetResult, SessionError>>> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        match Unit::build(req) {
            Ok((unit, session)) => {
                let tx = tx.clone();
                let progress = (0, Fingerprint::new());
                session.spawn_on(pool, req.budget, progress, on_barrier, move |ran| {
                    let result = ran.map(|(s, stop, progress)| unit.result(&s, stop, progress));
                    // The batch waits below until every unit has sent.
                    let _ = tx.send((i, result));
                });
                results.push(None);
            }
            Err(e) => results.push(Some(Err(e))),
        }
    }
    // Every unit's completion holds a sender; the loop ends once all
    // of them have reported or been dropped.
    drop(tx);
    for (i, result) in rx {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(SessionError::Service(
                    "fleet unit finished without an outcome".into(),
                ))
            })
        })
        .collect()
}

/// Convenience single-session entry: one request, run to completion on
/// the pool.
///
/// # Errors
///
/// Build and engine faults, as [`run_fleet`] reports them.
pub fn run_one(pool: &FleetPool, request: FleetRequest) -> Result<FleetResult, SessionError> {
    run_fleet(pool, std::slice::from_ref(&request))
        .pop()
        .unwrap_or_else(|| {
            Err(SessionError::Service(
                "fleet batch returned no result for the request".into(),
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_matches_dedicated_session_on_single_core_backends() {
        let pool = FleetPool::new(2);
        for backend in [Backend::golden(), Backend::golden_trace()] {
            let req = FleetRequest::named("gcd")
                .backend(backend)
                .budget(Limit::Cycles(50_000_000));
            let fleet = run_one(&pool, req).unwrap();
            let mut oracle = SimBuilder::named("gcd").backend(backend).build().unwrap();
            oracle.run(Limit::Cycles(50_000_000)).unwrap();
            assert_eq!(fleet.stop, StopCause::Halted, "{backend}");
            assert!(fleet.checksum_ok(), "{backend}");
            let mut expected = Fingerprint::new();
            expected.mix_u64(fingerprint_engine(&oracle));
            assert_eq!(
                fleet.digest,
                expected.digest(),
                "{backend}: fleet diverged from the dedicated session"
            );
        }
    }

    #[test]
    fn fleet_shard_groups_match_the_sharded_session_oracle() {
        let pool = FleetPool::new(3);
        let backend = Backend::sharded(2, Backend::golden());
        let fleet = run_one(
            &pool,
            FleetRequest::named("producer_consumer")
                .backend(backend)
                .budget(Limit::Cycles(50_000_000)),
        )
        .unwrap();
        let mut oracle = SimBuilder::named("producer_consumer")
            .backend(backend)
            .build()
            .unwrap();
        oracle.run(Limit::Cycles(50_000_000)).unwrap();
        assert_eq!(fleet.stop, StopCause::Halted);
        // Shard-for-shard bit identity against the in-process sharded
        // vehicle, plus the merged device log.
        let mut expected = Fingerprint::new();
        for i in 0..oracle.shard_count() {
            expected.mix_u64(fingerprint_engine(oracle.shard(i).unwrap()));
        }
        assert_eq!(fleet.digest, expected.digest(), "shard states diverged");
        assert_eq!(
            fleet.uart,
            oracle.sharded_stats().unwrap().uart,
            "device fabric diverged"
        );
    }

    #[test]
    fn fleet_shards_carry_their_core_link_identity() {
        // The doorbell all-to-all only converges when every fleet-built
        // shard owns a CoreLink with *its own* core id and the real
        // core count — a uniform device population (every shard id 0,
        // count 1) runs to completion with the wrong checksum.
        let pool = FleetPool::new(2);
        let fleet = run_one(
            &pool,
            FleetRequest::named("mailbox")
                .backend(Backend::sharded_pooled(2, 2, Backend::golden()))
                .budget(Limit::Cycles(50_000_000)),
        )
        .unwrap();
        assert_eq!(fleet.stop, StopCause::Halted);
        assert!(
            fleet.checksum_ok(),
            "doorbell all-reduce: d2={:#x}",
            fleet.d2
        );
    }

    #[test]
    fn digest_chain_is_identical_across_worker_counts() {
        // Sharded requests next to single-core ones on every tier: the
        // pool interleaves both kinds of work item.
        let sharded =
            ["gcd", "sieve", "fibonacci"].map(|w| (w, Backend::sharded(2, Backend::golden())));
        let single = [
            ("gcd", Backend::golden()),
            ("gcd", Backend::golden_trace()),
            ("sieve", Backend::translated(cabt_core::DetailLevel::Cache)),
            (
                "fibonacci",
                Backend::translated(cabt_core::DetailLevel::Static),
            ),
        ];
        let requests: Vec<FleetRequest> = sharded
            .into_iter()
            .chain(single)
            .map(|(w, backend)| {
                FleetRequest::named(w)
                    .backend(backend)
                    .budget(Limit::Cycles(50_000_000))
            })
            .collect();
        let one = run_fleet(&FleetPool::new(1), &requests);
        let many = run_fleet(&FleetPool::new(4), &requests);
        for (a, b) in one.iter().zip(&many) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.epoch_chain, b.epoch_chain,
                "{}: schedule leaked in",
                a.workload
            );
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.epochs, b.epochs);
        }
    }

    #[test]
    fn retirement_budgets_stop_without_halting() {
        let pool = FleetPool::new(2);
        let r = run_one(
            &pool,
            FleetRequest::named("sieve")
                .backend(Backend::golden())
                .budget(Limit::Retirements(1_000)),
        )
        .unwrap();
        assert_eq!(r.stop, StopCause::LimitReached);
        assert!(r.stats.retired >= 1_000);
    }

    #[test]
    fn unknown_workloads_fail_per_request_not_per_batch() {
        let pool = FleetPool::new(1);
        let results = run_fleet(
            &pool,
            &[
                FleetRequest::named("nonesuch"),
                FleetRequest::named("gcd").budget(Limit::Cycles(50_000_000)),
            ],
        );
        assert!(matches!(results[0], Err(SessionError::UnknownWorkload(_))));
        assert!(results[1].as_ref().unwrap().checksum_ok());
    }

    #[test]
    fn parked_sessions_resume_inside_pool_workers() {
        // Park on this thread, resume and finish inside a pool job —
        // the migration the portable snapshot format exists for.
        let pool = FleetPool::new(2);
        let backend = Backend::translated(cabt_core_detail());
        let mut donor = SimBuilder::named("gcd").backend(backend).build().unwrap();
        donor.run(Limit::Retirements(500)).unwrap();
        let parked = donor.park().unwrap();
        donor.run(Limit::Cycles(50_000_000)).unwrap();
        let expected = fingerprint_engine(&donor);

        let (tx, rx) = mpsc::channel();
        pool.spawn(move || {
            let mut resumed = Session::resume(&parked).unwrap();
            resumed.run(Limit::Cycles(50_000_000)).unwrap();
            tx.send(fingerprint_engine(&resumed)).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), expected);
    }

    /// Four golden shards; odd shards take a wild `ji` to an address
    /// that depends on their core id, so shards 1 and 3 fault
    /// differently in the same round.
    const SHARD_FAULTS: &str = "
        .text
        .global _start
    _start:
        and    %d11, %d15, 1
        jnz    %d11, faulter
        mov    %d12, 300
    spin:
        addi   %d12, %d12, -1
        jnz    %d12, spin
        debug
    faulter:
        movh   %d13, 0x4000
        add    %d13, %d15
        add    %d13, %d15
        mov.a  %a4, %d13
        ji     %a4
    ";

    #[test]
    fn fleet_reports_the_lowest_faulting_shard_like_a_sequential_run() {
        let build = || {
            SimBuilder::asm(SHARD_FAULTS)
                .backend(Backend::sharded(4, Backend::golden()))
                .shard_epoch(FLEET_EPOCH_CYCLES)
                .build()
                .unwrap()
        };
        let budget = Limit::Cycles(1_000_000);
        let expected = build().run(budget).unwrap_err();
        let mut shard3 = build();
        assert_ne!(
            shard3.shard_mut(3).unwrap().run(budget).unwrap_err(),
            expected,
            "the odd shards must fault differently"
        );
        let pool = FleetPool::new(4);
        for attempt in 0..20 {
            let (tx, rx) = mpsc::channel();
            let progress = (0, Fingerprint::new());
            build().spawn_on(&pool, budget, progress, on_barrier, move |ran| {
                tx.send(ran.map(|(_, _, (epochs, _))| epochs)).unwrap();
            });
            assert_eq!(
                rx.recv().unwrap(),
                Err(expected.clone()),
                "attempt {attempt}"
            );
        }
    }

    fn cabt_core_detail() -> cabt_core::DetailLevel {
        cabt_core::DetailLevel::Cache
    }
}
