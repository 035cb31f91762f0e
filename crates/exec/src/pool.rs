//! The fixed thread pool epoch scheduling runs on, with one FIFO job
//! queue, and the pool executor of the epoch-round engine.
//!
//! The paper's prototyping platform runs *one* session; a fleet service
//! runs hundreds. [`FleetPool`] gives them a fixed worker population:
//! epoch rounds are *work items*, and however many sessions are in
//! flight, host parallelism stays bounded by the worker count.
//!
//! [`spawn_epochs_pooled`] is the pool executor of the epoch-round
//! engine: one job per live shard per round, the round's last job
//! closes the barrier and plans the next, and a completion callback
//! gets the shards back, so no job ever blocks. [`run_epochs_pooled`]
//! waits for it.
//!
//! One queue: every job, whether the caller or a running job spawned
//! it, joins the back of a single FIFO queue, and idle workers take
//! from its front — so jobs start in the order they were spawned, and
//! one long-running session cannot starve the rest of the fleet.

use crate::{
    plan_shard_round, run_shard_to_deadline, EpochBarrier, EpochPlan, ExecutionEngine, Limit,
    ShardState, StopCause,
};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Locks a pool-internal mutex, recovering from poison. The pool's
/// shared state (the job queue, latch counters) is a plain collection
/// of values with no multi-step invariants, so the state behind a
/// poisoned lock is still coherent — a panicking *job* must not take
/// the whole worker population down with it.
fn lock_ok<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One unit of pool work (an epoch round of one shard, a batch driver's
/// bookkeeping step, …).
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job queue and the shutdown flag, guarded together.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Shared state of a [`FleetPool`]: one queue and the condition
/// variable idle workers sleep on. Jobs hold an `Arc` of this so they
/// can schedule follow-up work (the event-driven epoch schedulers
/// reschedule a session's next round from the job that completed its
/// last).
pub(crate) struct PoolCore {
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl PoolCore {
    /// Appends a job to the queue and wakes one idle worker.
    pub(crate) fn push(&self, job: Job) {
        lock_ok(&self.queue).jobs.push_back(job);
        self.wake.notify_one();
    }

    /// Runs jobs in queue order until the pool shuts down and the
    /// queue is empty.
    fn worker(&self) {
        loop {
            let job = {
                let mut queue = lock_ok(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutdown {
                        return;
                    }
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // A panicking job must not kill the worker: the pool would
            // silently lose capacity (and, once every worker died,
            // deadlock the latch-waiting coordinator). The session the
            // job belonged to reports the failure through its own
            // outcome slot; the worker moves on.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }
}

/// A fixed pool of worker threads executing epoch-scheduling work items.
///
/// Dropping the pool shuts it down: workers finish the jobs already
/// queued (and any those jobs spawn), then exit and are joined. [`FleetPool::spawn`] is the raw
/// entry; the pool executor [`spawn_epochs_pooled`] is the intended
/// client.
pub struct FleetPool {
    core: Arc<PoolCore>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl FleetPool {
    /// A pool of `workers` threads (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if the host refuses to spawn even a single worker thread
    /// (a pool with no workers would queue jobs nobody ever runs).
    pub fn new(workers: usize) -> FleetPool {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        // A host refusing threads mid-loop degrades the pool to the
        // workers it did get, which share the one queue. Only a host
        // that grants *no* threads at all is unrecoverable: every
        // spawn() would queue work nobody runs, so fail loudly up front.
        let handles: Vec<_> = (0..workers)
            .filter_map(|id| {
                let core = Arc::clone(&core);
                thread::Builder::new()
                    .name(format!("fleet-worker-{id}"))
                    .spawn(move || core.worker())
                    .ok()
            })
            .collect();
        assert!(
            !handles.is_empty(),
            "fleet pool: the host refused to spawn even one worker thread"
        );
        FleetPool { core, handles }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_host_parallelism() -> FleetPool {
        let workers = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        FleetPool::new(workers)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a job for execution on some worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.core.push(Box::new(job));
    }

    /// The shared core, for jobs that schedule follow-up work.
    pub(crate) fn core(&self) -> Arc<PoolCore> {
        Arc::clone(&self.core)
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        lock_ok(&self.core.queue).shutdown = true;
        self.core.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A countdown latch: the coordinator waits until `n` completions have
/// been counted down — how batch drivers block on a fleet of
/// event-driven sessions without polling.
pub struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// A latch expecting `n` completions.
    pub fn new(n: usize) -> Latch {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    /// Records one completion.
    pub fn count_down(&self) {
        let mut remaining = lock_ok(&self.remaining);
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every expected completion has been counted down.
    pub fn wait(&self) {
        let mut remaining = lock_ok(&self.remaining);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// --- the pool executor ----------------------------------------------------

/// A finished pooled run: the shards and barrier context move into the
/// run (they cross worker threads, and the workspace forbids `unsafe`,
/// so scoped borrowing is not an option) and come back here.
pub struct PooledOutcome<E: ExecutionEngine, C> {
    /// The shard engines, in shard order, at their final states.
    pub shards: Vec<E>,
    /// The barrier context handed to `on_epoch` (e.g. a shard arbiter).
    pub ctx: C,
    /// The armed barrier the run stopped with, for the set's next run.
    pub barrier: EpochBarrier,
    /// Why the run stopped, or the fault of the lowest-numbered
    /// faulting shard.
    pub stop: Result<StopCause, E::Error>,
}

/// What a pooled run's completion callback receives: the outcome, or
/// the panic payload of a shard job or barrier that panicked (the
/// run's shards are dropped with it).
pub type PooledResult<E, C> = std::thread::Result<PooledOutcome<E, C>>;

/// The barrier callback of a pooled run.
type BarrierFn<E, C> = Box<dyn FnMut(&mut C, &[&E]) + Send>;

/// The armed barrier, the barrier context, its callback and the
/// completion callback of a pooled run — taken out exactly once, by
/// whichever job finishes it.
struct Control<E: ExecutionEngine, C> {
    barrier: EpochBarrier,
    ctx: C,
    on_epoch: BarrierFn<E, C>,
    done: Box<dyn FnOnce(PooledResult<E, C>) + Send>,
}

/// Shared state of one pooled run, held by every job of the run. Each
/// slot holds its shard until the run finishes, so finishing needs no
/// unique ownership of the run: a job that has just counted its shard
/// off may still hold its handle for a moment.
struct PooledRun<E: ExecutionEngine, C> {
    shards: Vec<Mutex<Option<E>>>,
    control: Mutex<Option<Control<E, C>>>,
    /// Shard jobs still running in the current round; the job that
    /// takes this to zero performs the barrier.
    remaining: AtomicUsize,
    /// Lowest-numbered shard fault of the failing round, if any.
    fault: Mutex<Option<(usize, E::Error)>>,
    /// Panic payload of the first panicking shard job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    limit: Limit,
}

impl<E, C> PooledRun<E, C>
where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
{
    /// Plans the next round and either finishes the run or schedules
    /// one job per shard the round advances. No job of this run is in
    /// flight while planning, so every lock is uncontended.
    fn plan(self: Arc<Self>, core: &Arc<PoolCore>) {
        let states: Vec<ShardState> = self
            .shards
            .iter()
            .filter_map(|s| lock_ok(s).as_ref().map(ShardState::of))
            .collect();
        let Some(barrier) = lock_ok(&self.control).as_ref().map(|c| c.barrier) else {
            return;
        };
        match plan_shard_round(&states, self.limit, &barrier) {
            EpochPlan::LimitReached => self.finish(Ok(Ok(StopCause::LimitReached))),
            EpochPlan::Halted => self.finish(Ok(Ok(StopCause::Halted))),
            EpochPlan::Round { deadline } => {
                let runnable: Vec<usize> = (0..states.len())
                    .filter(|&i| !states[i].halted && states[i].cycle < deadline)
                    .collect();
                if runnable.is_empty() {
                    // Every live shard was moved to or past the armed
                    // barrier from outside: the empty round closes it.
                    return self.end_round(core);
                }
                self.remaining.store(runnable.len(), Ordering::Release);
                for idx in runnable {
                    let (run, job_core) = (Arc::clone(&self), Arc::clone(core));
                    core.push(Box::new(move || run.shard_job(&job_core, idx, deadline)));
                }
            }
        }
    }

    /// One shard's slice of a round. The job that completes the round
    /// ends it — event-driven, no coordinator polling.
    fn shard_job(self: Arc<Self>, core: &Arc<PoolCore>, idx: usize, deadline: u64) {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            match lock_ok(&self.shards[idx]).as_mut() {
                Some(shard) => run_shard_to_deadline(shard, deadline, true),
                None => Ok(()),
            }
        }));
        match ran {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // The lowest-numbered faulting shard wins, whatever
                // order the jobs finished in.
                let mut slot = lock_ok(&self.fault);
                if slot.as_ref().is_none_or(|&(winner, _)| idx < winner) {
                    *slot = Some((idx, e));
                }
            }
            Err(payload) => {
                lock_ok(&self.panic).get_or_insert(payload);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.end_round(core);
        }
    }

    /// Ends a round: a faulting round ends the run without closing the
    /// barrier, as inline; any other closes it and plans the next.
    fn end_round(self: Arc<Self>, core: &Arc<PoolCore>) {
        let panic = lock_ok(&self.panic).take();
        if let Some(payload) = panic {
            return self.finish(Err(payload));
        }
        let fault = lock_ok(&self.fault).take();
        if let Some((_, e)) = fault {
            return self.finish(Ok(Err(e)));
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.barrier())) {
            return self.finish(Err(payload));
        }
        // `plan` only queues the next round's jobs, so calling it here
        // does not nest rounds on the stack.
        self.plan(core);
    }

    /// Closes the barrier, firing its callback with read access to
    /// every shard when the round is complete.
    fn barrier(&self) {
        let guards: Vec<_> = self.shards.iter().map(lock_ok).collect();
        let view: Vec<&E> = guards.iter().filter_map(|g| g.as_ref()).collect();
        if let Some(c) = lock_ok(&self.control).as_mut() {
            if c.barrier.close(view.iter().copied()) {
                (c.on_epoch)(&mut c.ctx, &view);
            }
        }
    }

    /// Hands the shards and context back through the completion
    /// callback.
    fn finish(&self, stop: std::thread::Result<Result<StopCause, E::Error>>) {
        let Some(c) = lock_ok(&self.control).take() else {
            return;
        };
        let shards = self
            .shards
            .iter()
            .filter_map(|s| lock_ok(s).take())
            .collect();
        (c.done)(stop.map(|stop| PooledOutcome {
            shards,
            ctx: c.ctx,
            barrier: c.barrier,
            stop,
        }));
    }
}

/// The *pool* executor: the inline
/// [`run_epochs_sharded`](crate::run_epochs_sharded) — same plan,
/// per-shard body, [`EpochBarrier`] rule and fault rule, so the same
/// rounds, deadlines and barriers whenever shards share no mutable
/// state inside an epoch — with each round's shards as work items on
/// `pool`. The round's last job closes the barrier (`on_epoch` gets
/// `ctx` and every shard when it fires) and plans the next.
///
/// Returns at once. `done` runs on a pool worker when the run stops,
/// with the shards, the context and the armed barrier, or the payload
/// of a panicking shard job or barrier.
pub fn spawn_epochs_pooled<E, C>(
    pool: &FleetPool,
    shards: Vec<E>,
    ctx: C,
    limit: Limit,
    barrier: EpochBarrier,
    on_epoch: impl FnMut(&mut C, &[&E]) + Send + 'static,
    done: impl FnOnce(PooledResult<E, C>) + Send + 'static,
) where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
{
    let run = Arc::new(PooledRun {
        shards: shards.into_iter().map(|s| Mutex::new(Some(s))).collect(),
        control: Mutex::new(Some(Control {
            barrier,
            ctx,
            on_epoch: Box::new(on_epoch),
            done: Box::new(done),
        })),
        remaining: AtomicUsize::new(0),
        fault: Mutex::new(None),
        panic: Mutex::new(None),
        limit,
    });
    let core = pool.core();
    let job_core = Arc::clone(&core);
    core.push(Box::new(move || run.plan(&job_core)));
}

/// [`spawn_epochs_pooled`] plus a wait on the calling thread: runs the
/// shard set on `pool` and returns the shards, the context and the
/// armed barrier when the run stops.
///
/// # Panics
///
/// Re-raises a shard job's or barrier's panic on the calling thread.
pub fn run_epochs_pooled<E, C>(
    pool: &FleetPool,
    shards: Vec<E>,
    ctx: C,
    limit: Limit,
    barrier: EpochBarrier,
    on_epoch: impl FnMut(&mut C, &[&E]) + Send + 'static,
) -> PooledOutcome<E, C>
where
    E: ExecutionEngine + Send + 'static,
    E::Error: Send + 'static,
    C: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    spawn_epochs_pooled(pool, shards, ctx, limit, barrier, on_epoch, move |result| {
        // The receiver waits below until this send.
        let _ = tx.send(result);
    });
    match rx.recv() {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(mpsc::RecvError) => panic!("a pooled run was dropped before it finished"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate_stats, run_epochs_sharded, EngineStats};
    use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};

    fn armed(epoch: u64) -> EpochBarrier {
        EpochBarrier::new(0, epoch)
    }
    use std::fmt;

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = FleetPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(100));
        for _ in 0..100 {
            let (hits, latch) = (Arc::clone(&hits), Arc::clone(&latch));
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_spawned_from_workers_run() {
        // A chain of follow-up jobs spawned from inside worker threads —
        // the shape of the event-driven epoch scheduler.
        let pool = FleetPool::new(3);
        let latch = Arc::new(Latch::new(1));
        let core = pool.core();
        fn step(core: Arc<PoolCore>, latch: Arc<Latch>, left: usize) {
            if left == 0 {
                latch.count_down();
                return;
            }
            let next = Arc::clone(&core);
            core.push(Box::new(move || step(next, latch, left - 1)));
        }
        step(core, Arc::clone(&latch), 64);
        latch.wait();
    }

    #[test]
    fn one_worker_runs_jobs_in_spawn_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let pool = FleetPool::new(1);
            for i in 0..32 {
                let order = Arc::clone(&order);
                pool.spawn(move || lock_ok(&order).push(i));
            }
        }
        assert_eq!(*lock_ok(&order), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        // One worker, so the panicking job and the jobs after it are
        // guaranteed to share a thread: if the panic killed the worker,
        // the follow-up jobs would never run and the latch would hang.
        let pool = FleetPool::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(16));
        for i in 0..16 {
            let (hits, latch) = (Arc::clone(&hits), Arc::clone(&latch));
            pool.spawn(move || {
                if i % 4 == 0 {
                    latch.count_down();
                    panic!("job {i} failed");
                }
                // Count down only after the increment: the main thread
                // reads `hits` as soon as the latch opens.
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn drop_finishes_queued_work() {
        // The pool drops as soon as the jobs are queued: shutdown must
        // drain the queue, including jobs the queued jobs spawn.
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = FleetPool::new(2);
            let core = pool.core();
            for _ in 0..8 {
                let (hits, core) = (Arc::clone(&hits), Arc::clone(&core));
                pool.spawn(move || {
                    thread::sleep(std::time::Duration::from_millis(1));
                    hits.fetch_add(1, Ordering::Relaxed);
                    let hits = Arc::clone(&hits);
                    core.push(Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }));
                });
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    /// A toy shard for schedule-parity tests: each unit costs `cost`
    /// cycles, halts after `halt_units` units, optionally faults at a
    /// given unit count.
    struct Shardling {
        cycles: u64,
        units: u64,
        cost: u64,
        halt_units: u64,
        fault_at: Option<u64>,
        /// Whether architectural state was committed since the halt.
        committed: bool,
    }

    #[derive(Debug, PartialEq)]
    struct Boom(u64);
    impl fmt::Display for Boom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "boom at unit {}", self.0)
        }
    }
    impl std::error::Error for Boom {}

    impl ExecutionEngine for Shardling {
        type Error = Boom;
        fn save_state(&self, out: &mut Vec<u8>) {
            let mut w = ByteWriter::new(out);
            w.u64(self.cycles);
            w.u64(self.units);
        }
        fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
            (self.cycles, self.units) = (r.u64()?, r.u64()?);
            Ok(())
        }
        fn reset(&mut self) {
            self.cycles = 0;
            self.units = 0;
        }
        /// Commits in the unit that halts the shard.
        fn step_unit(&mut self) -> Result<(), Boom> {
            if self.fault_at == Some(self.units) {
                return Err(Boom(self.units));
            }
            self.units += 1;
            self.cycles += self.cost;
            self.committed = self.is_halted();
            Ok(())
        }
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn is_halted(&self) -> bool {
            self.units >= self.halt_units
        }
        fn pc(&self) -> Option<u32> {
            None
        }
        fn reg_count(&self) -> usize {
            0
        }
        fn read_reg_index(&self, _i: usize) -> u32 {
            0
        }
        fn write_reg_index(&mut self, _i: usize, _v: u32) {}
        fn read_mem(&mut self, _a: u32, len: usize) -> Result<Vec<u8>, Boom> {
            Ok(vec![0; len])
        }
        fn engine_stats(&self) -> EngineStats {
            EngineStats {
                cycles: self.cycles,
                retired: self.units,
                stall_cycles: 0,
            }
        }
    }

    fn shardling(cost: u64, halt_units: u64) -> Shardling {
        Shardling {
            cycles: 0,
            units: 0,
            cost,
            halt_units,
            fault_at: None,
            committed: false,
        }
    }

    fn stats(v: &[Shardling]) -> Vec<EngineStats> {
        v.iter().map(ExecutionEngine::engine_stats).collect()
    }

    /// Four isolated shards of unequal speeds.
    fn uneven() -> Vec<Shardling> {
        vec![
            shardling(3, 40),
            shardling(5, 25),
            shardling(2, 60),
            shardling(7, 13),
        ]
    }

    /// Runs `build()` under `limit` on both executors and asserts the
    /// same stop cause, per-shard stats, barrier count and armed
    /// barrier; returns the inline run's shards and stop cause.
    fn both_executors(
        build: impl Fn() -> Vec<Shardling>,
        limit: Limit,
        epoch: u64,
    ) -> (Vec<Shardling>, Result<StopCause, Boom>) {
        let mut inline = build();
        let mut bounds = 0u32;
        let mut barrier = armed(epoch);
        let stop = run_epochs_sharded(&mut inline, limit, &mut barrier, |_| bounds += 1);
        let pool = FleetPool::new(3);
        let n = inline.len();
        let out = run_epochs_pooled(&pool, build(), 0u32, limit, armed(epoch), move |b, view| {
            assert_eq!(view.len(), n, "the barrier sees every shard");
            *b += 1;
        });
        assert_eq!(out.stop, stop, "{limit:?}: stop cause");
        assert_eq!(out.ctx, bounds, "{limit:?}: barrier count");
        assert_eq!(out.barrier, barrier, "{limit:?}: armed barrier");
        assert_eq!(stats(&inline), stats(&out.shards), "{limit:?}: shard stats");
        (inline, stop)
    }

    /// Every shard's clock and commit flag, as a barrier sees them.
    fn at_barrier<'a>(shards: impl IntoIterator<Item = &'a Shardling>) -> Vec<(u64, bool)> {
        shards
            .into_iter()
            .map(|s| (s.cycles, s.committed))
            .collect()
    }

    #[test]
    fn budgets_that_cut_rounds_move_no_barrier() {
        // One run to halt against the same set run in chunks, on both
        // executors: the barriers fire at the same frontiers and see
        // the same shards, and the final states agree. In the second
        // set, the first retirement chunk's deadline (3) is the cycle
        // shard 0 halts on; its state is committed in that round, as it
        // is when a straight run reaches the halt.
        let pool = FleetPool::new(2);
        let halts_on_cut = || vec![shardling(1, 3), shardling(1, 100)];
        type Case = (fn() -> Vec<Shardling>, fn(u64) -> Limit);
        let cases: [Case; 3] = [
            (uneven, |k| Limit::Cycles(7 * k)),
            (uneven, |k| Limit::Retirements(5 * k)),
            (halts_on_cut, |k| Limit::Retirements(6 * k)),
        ];
        for (build, chunk) in cases {
            let mut straight = build();
            let mut barrier = armed(16);
            let mut want = Vec::new();
            let stop =
                run_epochs_sharded(&mut straight, Limit::Cycles(u64::MAX), &mut barrier, |s| {
                    want.push(at_barrier(&*s));
                });
            assert_eq!(stop, Ok(StopCause::Halted));
            let (mut inline, mut inline_barrier, mut seen) = (build(), armed(16), Vec::new());
            let mut pooled = (build(), armed(16), Vec::new());
            for k in 1.. {
                let stop = run_epochs_sharded(&mut inline, chunk(k), &mut inline_barrier, |s| {
                    seen.push(at_barrier(&*s));
                });
                let out =
                    run_epochs_pooled(&pool, pooled.0, pooled.2, chunk(k), pooled.1, |b, view| {
                        b.push(at_barrier(view.iter().copied()));
                    });
                assert_eq!(out.stop, stop);
                pooled = (out.shards, out.barrier, out.ctx);
                if stop == Ok(StopCause::Halted) {
                    break;
                }
            }
            let what = chunk(1);
            assert_eq!(seen, want, "{what:?}: inline barriers");
            assert_eq!(pooled.2, want, "{what:?}: pooled barriers");
            assert_eq!(at_barrier(&inline), at_barrier(&straight), "{what:?}");
            assert_eq!(at_barrier(&pooled.0), at_barrier(&straight), "{what:?}");
            assert_eq!((inline_barrier, pooled.1), (barrier, barrier), "{what:?}");
        }
        let mut set = halts_on_cut();
        run_epochs_sharded(&mut set, Limit::Retirements(6), &mut armed(16), |_| {}).unwrap();
        assert_eq!(
            at_barrier(&set),
            [(3, true), (3, false)],
            "a halt on the cut deadline"
        );
    }

    #[test]
    fn pooled_schedule_matches_inline_bit_for_bit() {
        for budget in [u64::MAX, 50, 0] {
            let (shards, _) = both_executors(uneven, Limit::Cycles(budget), 16);
            assert_eq!(aggregate_stats(&shards).retired > 0, budget > 0);
        }
    }

    #[test]
    fn retirement_budgets_match_on_both_executors() {
        // 138 units in total: budgets below, at the halting edge of and
        // far beyond it. The aggregate overshoots a binding budget by
        // fewer units than there are shards.
        for budget in [0, 1, 37, 5000, u64::MAX] {
            let (shards, stop) = both_executors(uneven, Limit::Retirements(budget), 16);
            let retired = aggregate_stats(&shards).retired;
            match stop {
                Ok(StopCause::LimitReached) => {
                    assert!(
                        retired >= budget,
                        "budget {budget}: stopped short at {retired}"
                    );
                    assert!(
                        retired - budget < shards.len() as u64,
                        "budget {budget}: overshoot {retired}"
                    );
                }
                Ok(StopCause::Halted) => {
                    assert!(retired <= budget, "budget {budget}");
                    assert!(shards.iter().all(ExecutionEngine::is_halted));
                }
                Err(e) => panic!("budget {budget}: {e}"),
            }
        }
    }

    #[test]
    fn a_set_already_past_its_barrier_closes_it_before_running() {
        // Shard 1 starts past the armed barrier (as after an adoption)
        // and shard 0 has halted: the first round advances nobody, and
        // both executors close the barrier and run on instead of
        // stalling.
        let build = || {
            let mut ahead = shardling(1, 40);
            (ahead.cycles, ahead.units) = (20, 20);
            vec![shardling(1, 0), ahead]
        };
        let (shards, stop) = both_executors(build, Limit::Cycles(u64::MAX), 16);
        assert_eq!(stop, Ok(StopCause::Halted));
        assert_eq!(shards[1].cycles, 40);
    }

    #[test]
    fn pooled_entry_semantics_match_the_trait() {
        let pool = FleetPool::new(2);
        let idle = |_: &mut (), _: &[&Shardling]| {};
        // A fully halted set reports Halted under any budget, zero
        // included.
        let halted = vec![shardling(1, 0), shardling(1, 0)];
        let out = run_epochs_pooled(&pool, halted, (), Limit::Cycles(0), armed(4), idle);
        assert_eq!(out.stop, Ok(StopCause::Halted));
        let out = run_epochs_pooled(&pool, out.shards, (), Limit::Retirements(0), armed(4), idle);
        assert_eq!(out.stop, Ok(StopCause::Halted));
        // A live set under a zero budget dispatches nothing.
        let live = vec![shardling(1, 0), shardling(1, 3)];
        let out = run_epochs_pooled(&pool, live, (), Limit::Cycles(0), armed(4), idle);
        assert_eq!(out.stop, Ok(StopCause::LimitReached));
        assert_eq!(aggregate_stats(&out.shards).retired, 0);
        // An empty shard set is trivially halted.
        let out = run_epochs_pooled(&pool, Vec::new(), (), Limit::Cycles(100), armed(4), idle);
        assert_eq!(out.stop, Ok(StopCause::Halted));
    }

    #[test]
    fn pooled_fault_reports_lowest_shard_and_skips_the_barrier() {
        // Shards 1 and 3 fault in the same round; every shard of the
        // round still runs to its deadline, the reported fault is shard
        // 1's, and the barrier of the faulting round never fires.
        let build = || {
            let mut v: Vec<Shardling> = (0..4).map(|_| shardling(1, 100)).collect();
            v[1].fault_at = Some(3);
            v[3].fault_at = Some(5);
            v
        };
        let (_, stop) = both_executors(build, Limit::Cycles(u64::MAX), 8);
        assert_eq!(stop, Err(Boom(3)), "lowest-numbered fault wins");
    }

    #[test]
    fn pooled_runs_share_one_pool() {
        // Two pooled runs scheduled on the same 2-worker pool, one
        // after the other, both complete — the fixed population is
        // reused, not consumed.
        let pool = FleetPool::new(2);
        for _ in 0..2 {
            let out = run_epochs_pooled(
                &pool,
                (0..8).map(|i| shardling(1 + i % 3, 30)).collect(),
                (),
                Limit::Cycles(u64::MAX),
                armed(8),
                |(), _| {},
            );
            assert_eq!(out.stop, Ok(StopCause::Halted));
            assert!(out.shards.iter().all(ExecutionEngine::is_halted));
        }
    }

    #[test]
    fn pooled_shard_panic_resurfaces_on_the_coordinator() {
        struct Bomb;
        impl ExecutionEngine for Bomb {
            type Error = Boom;
            fn save_state(&self, _: &mut Vec<u8>) {}
            fn load_state(&mut self, _: &mut ByteReader<'_>) -> Result<(), CodecError> {
                Ok(())
            }
            fn reset(&mut self) {}
            fn step_unit(&mut self) -> Result<(), Boom> {
                panic!("engine bug");
            }
            fn cycle(&self) -> u64 {
                0
            }
            fn is_halted(&self) -> bool {
                false
            }
            fn pc(&self) -> Option<u32> {
                None
            }
            fn reg_count(&self) -> usize {
                0
            }
            fn read_reg_index(&self, _i: usize) -> u32 {
                0
            }
            fn write_reg_index(&mut self, _i: usize, _v: u32) {}
            fn read_mem(&mut self, _a: u32, len: usize) -> Result<Vec<u8>, Boom> {
                Ok(vec![0; len])
            }
            fn engine_stats(&self) -> EngineStats {
                EngineStats::default()
            }
        }
        let pool = FleetPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_epochs_pooled(
                &pool,
                vec![Bomb],
                (),
                Limit::Cycles(u64::MAX),
                armed(8),
                |(), _| {},
            )
        }));
        assert!(caught.is_err(), "the shard panic re-raises, not deadlocks");
    }
}
