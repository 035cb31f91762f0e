//! The event-driven simulation kernel: signals, processes, delta cycles.
//!
//! This is the core mechanism of every HDL simulator: processes are
//! woken by value changes on signals in their sensitivity list, signal
//! writes are staged and committed between delta cycles, and simulated
//! time only advances once the delta iteration reaches a fixed point.

use cabt_isa::codec::{expect_len, ByteReader, ByteWriter, CodecError};
use std::collections::HashSet;
use std::fmt;

/// Handle to a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(usize);

/// Handle to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(usize);

/// Context passed to a running process: read committed signal values and
/// stage writes for the next delta.
pub struct ProcCtx<'a> {
    current: &'a [u64],
    staged: &'a mut Vec<(SignalId, u64)>,
}

impl ProcCtx<'_> {
    /// Reads the committed value of `sig`.
    pub fn get(&self, sig: SignalId) -> u64 {
        self.current[sig.0]
    }

    /// Stages a write; it becomes visible in the next delta cycle.
    pub fn set(&mut self, sig: SignalId, value: u64) {
        self.staged.push((sig, value));
    }
}

type Process = Box<dyn FnMut(&mut ProcCtx<'_>) + Send>;

/// Mutable kernel state captured by [`Kernel::save_state`]: everything
/// a resumed simulation needs besides the (immutable) processes and
/// sensitivity lists.
#[derive(Debug, Clone)]
pub struct KernelState {
    values: Vec<u64>,
    runnable: Vec<usize>,
    time: u64,
    deltas: u64,
}

impl KernelState {
    /// Serializes the kernel state for a portable snapshot. The
    /// runnable set is already sorted by [`Kernel::save_state`], so the
    /// encoding is deterministic.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.values.len() as u64);
        for &v in &self.values {
            w.u64(v);
        }
        w.u64(self.runnable.len() as u64);
        for &p in &self.runnable {
            w.u64(p as u64);
        }
        w.u64(self.time);
        w.u64(self.deltas);
    }

    /// Decodes a [`KernelState::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let nvalues = r.count("kernel signals", 8)?;
        let mut values = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            values.push(r.u64()?);
        }
        let nrunnable = r.count("runnable processes", 8)?;
        let mut runnable = Vec::with_capacity(nrunnable);
        for _ in 0..nrunnable {
            runnable.push(r.u64()? as usize);
        }
        Ok(KernelState {
            values,
            runnable,
            time: r.u64()?,
            deltas: r.u64()?,
        })
    }
}

/// Error raised when the delta iteration does not converge (a
/// combinational loop in the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOverflow {
    /// The delta-cycle budget that was exhausted.
    pub limit: u32,
}

impl fmt::Display for DeltaOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta cycles did not converge within {} iterations",
            self.limit
        )
    }
}

impl std::error::Error for DeltaOverflow {}

/// The simulation kernel.
///
/// # Example
///
/// ```
/// use cabt_rtlsim::kernel::Kernel;
///
/// let mut k = Kernel::new();
/// let a = k.signal(1);
/// let b = k.signal(0);
/// // b follows a, doubled.
/// let p = k.process(move |ctx| {
///     let v = ctx.get(a);
///     ctx.set(b, v * 2);
/// });
/// k.make_sensitive(p, a);
/// k.poke(a, 21);
/// k.settle()?;
/// assert_eq!(k.value(b), 42);
/// # Ok::<(), cabt_rtlsim::kernel::DeltaOverflow>(())
/// ```
#[derive(Default)]
pub struct Kernel {
    values: Vec<u64>,
    procs: Vec<Option<Process>>,
    sensitivity: Vec<Vec<ProcId>>,
    runnable: HashSet<usize>,
    time: u64,
    deltas: u64,
    delta_limit: u32,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("signals", &self.values.len())
            .field("processes", &self.procs.len())
            .field("time", &self.time)
            .field("deltas", &self.deltas)
            .finish()
    }
}

impl Kernel {
    /// An empty kernel (delta budget 1000).
    pub fn new() -> Self {
        Kernel {
            delta_limit: 1000,
            ..Default::default()
        }
    }

    /// Declares a signal with an initial value.
    pub fn signal(&mut self, initial: u64) -> SignalId {
        self.values.push(initial);
        self.sensitivity.push(Vec::new());
        SignalId(self.values.len() - 1)
    }

    /// Registers a process. It does not run until a signal in its
    /// sensitivity list changes (or [`Kernel::schedule`] is called).
    pub fn process(&mut self, f: impl FnMut(&mut ProcCtx<'_>) + Send + 'static) -> ProcId {
        self.procs.push(Some(Box::new(f)));
        ProcId(self.procs.len() - 1)
    }

    /// Adds `sig` to the sensitivity list of `proc`.
    pub fn make_sensitive(&mut self, proc: ProcId, sig: SignalId) {
        self.sensitivity[sig.0].push(proc);
    }

    /// Marks a process runnable in the next delta.
    pub fn schedule(&mut self, proc: ProcId) {
        self.runnable.insert(proc.0);
    }

    /// Reads a signal's committed value.
    pub fn value(&self, sig: SignalId) -> u64 {
        self.values[sig.0]
    }

    /// Forces a signal value from outside the simulation (testbench
    /// stimulus), waking sensitive processes if it changes.
    pub fn poke(&mut self, sig: SignalId, value: u64) {
        if self.values[sig.0] != value {
            self.values[sig.0] = value;
            for p in &self.sensitivity[sig.0] {
                self.runnable.insert(p.0);
            }
        }
    }

    /// Runs delta cycles until no process is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaOverflow`] if the iteration exceeds the delta
    /// budget (combinational loop).
    pub fn settle(&mut self) -> Result<(), DeltaOverflow> {
        let mut staged: Vec<(SignalId, u64)> = Vec::new();
        for _ in 0..self.delta_limit {
            if self.runnable.is_empty() {
                return Ok(());
            }
            self.deltas += 1;
            let running: Vec<usize> = self.runnable.drain().collect();
            staged.clear();
            for idx in running {
                let mut p = self.procs[idx].take().expect("process not reentrant");
                {
                    let mut ctx = ProcCtx {
                        current: &self.values,
                        staged: &mut staged,
                    };
                    p(&mut ctx);
                }
                self.procs[idx] = Some(p);
            }
            for &(sig, value) in &staged {
                if self.values[sig.0] != value {
                    self.values[sig.0] = value;
                    for p in &self.sensitivity[sig.0] {
                        self.runnable.insert(p.0);
                    }
                }
            }
        }
        Err(DeltaOverflow {
            limit: self.delta_limit,
        })
    }

    /// Advances one clock period on `clock`: rising edge, settle,
    /// falling edge, settle, bump time.
    ///
    /// # Errors
    ///
    /// Propagates delta overflow.
    pub fn tick(&mut self, clock: SignalId) -> Result<(), DeltaOverflow> {
        self.poke(clock, 1);
        self.settle()?;
        self.poke(clock, 0);
        self.settle()?;
        self.time += 1;
        Ok(())
    }

    /// Simulated clock periods elapsed.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Captures the kernel's mutable state: committed signal values,
    /// the runnable set and the time/delta counters. Processes and
    /// sensitivity lists are elaboration-time constants and are not
    /// captured — a state restored into the kernel that produced it
    /// resumes the simulation exactly.
    pub fn save_state(&self) -> KernelState {
        let mut runnable: Vec<usize> = self.runnable.iter().copied().collect();
        runnable.sort_unstable();
        KernelState {
            values: self.values.clone(),
            runnable,
            time: self.time,
            deltas: self.deltas,
        }
    }

    /// Checks a decoded state against this kernel's elaboration: one
    /// value per signal, and every runnable index naming a process.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] or [`CodecError::BadIndex`] for the
    /// first field that does not fit.
    pub fn check_state(&self, state: &KernelState) -> Result<(), CodecError> {
        expect_len("kernel signals", state.values.len(), self.values.len())?;
        match state.runnable.iter().find(|&&p| p >= self.procs.len()) {
            Some(&p) => Err(CodecError::BadIndex {
                what: "runnable process",
                index: p as u64,
            }),
            None => Ok(()),
        }
    }

    /// Restores state captured by [`Kernel::save_state`].
    ///
    /// # Panics
    ///
    /// Panics if `state` was saved from a kernel with a different
    /// signal count (a different elaboration).
    pub fn restore_state(&mut self, state: &KernelState) {
        assert_eq!(
            state.values.len(),
            self.values.len(),
            "kernel state from a different elaboration"
        );
        self.values.clone_from(&state.values);
        self.runnable = state.runnable.iter().copied().collect();
        self.time = state.time;
        self.deltas = state.deltas;
    }

    /// Total delta cycles executed (a measure of simulation work).
    #[cfg(test)]
    pub(crate) fn delta_count(&self) -> u64 {
        self.deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn combinational_chain_settles() {
        let mut k = Kernel::new();
        let a = k.signal(0);
        let b = k.signal(0);
        let c = k.signal(0);
        let p1 = k.process(move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v + 1);
        });
        let p2 = k.process(move |ctx| {
            let v = ctx.get(b);
            ctx.set(c, v * 10);
        });
        k.make_sensitive(p1, a);
        k.make_sensitive(p2, b);
        k.poke(a, 5);
        k.settle().unwrap();
        assert_eq!(k.value(b), 6);
        assert_eq!(k.value(c), 60);
        assert!(k.delta_count() >= 2, "the chain takes two deltas");
    }

    #[test]
    fn no_wakeup_without_change() {
        let mut k = Kernel::new();
        let a = k.signal(7);
        let count = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&count);
        let p = k.process(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        k.make_sensitive(p, a);
        k.poke(a, 7); // same value: no wake
        k.settle().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0);
        k.poke(a, 8);
        k.settle().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clocked_counter() {
        let mut k = Kernel::new();
        let clk = k.signal(0);
        let q = k.signal(0);
        let p = k.process(move |ctx| {
            if ctx.get(clk) == 1 {
                let v = ctx.get(q);
                ctx.set(q, v + 1);
            }
        });
        k.make_sensitive(p, clk);
        for _ in 0..5 {
            k.tick(clk).unwrap();
        }
        assert_eq!(k.value(q), 5);
        assert_eq!(k.time(), 5);
    }

    #[test]
    fn combinational_loop_detected() {
        let mut k = Kernel::new();
        let a = k.signal(0);
        let b = k.signal(0);
        let p1 = k.process(move |ctx| {
            let v = ctx.get(b);
            ctx.set(a, v + 1);
        });
        let p2 = k.process(move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v + 1);
        });
        k.make_sensitive(p1, b);
        k.make_sensitive(p2, a);
        k.poke(a, 1);
        assert!(k.settle().is_err());
    }

    #[test]
    fn last_write_wins_within_delta() {
        let mut k = Kernel::new();
        let a = k.signal(0);
        let b = k.signal(0);
        let p = k.process(move |ctx| {
            ctx.set(b, 1);
            ctx.set(b, 2);
        });
        k.make_sensitive(p, a);
        k.poke(a, 1);
        k.settle().unwrap();
        assert_eq!(k.value(b), 2);
    }

    #[test]
    fn schedule_runs_once() {
        let mut k = Kernel::new();
        let count = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&count);
        let p = k.process(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        k.schedule(p);
        k.settle().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        k.settle().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1, "not rescheduled");
    }
}
