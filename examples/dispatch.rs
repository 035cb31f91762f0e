//! Prints the host dispatch throughput of the three engine tiers on
//! both cores: naive (the seed interpreters), pre-decoded (the compiled
//! closures, one instruction or packet per step), and the
//! profile-guided trace tier (the same closures, with hot chains fused
//! into traces; traces are its only multi-instruction steps). The
//! golden model runs the source code; the translated image dispatches
//! execute packets on the platform.
//! Each row also shows the trace tier's coverage, and the printer
//! fails if a trace tier forms no traces.
//!
//! Run with `cargo run --release --example dispatch`. It takes no
//! options and writes no file. The repository benchmark in
//! `perfbench/` is the measurement of record; it does not measure the
//! tiers one by one yet.

use cabt::exec::trace::TraceStats;
use cabt::prelude::*;
use cabt::tricore::sim::DispatchMode;
use cabt::vliw::sim::VliwDispatch;
use std::time::Instant;

/// Timed runs per batch.
const RUNS: u32 = 10;
/// Batches per measurement; the fastest is kept, since interference on
/// a shared host only ever makes a batch slower.
const BATCHES: u32 = 3;

/// One tier on one workload.
struct Tier {
    /// Million units (instructions or packets) dispatched per host
    /// second.
    per_sec: f64,
    /// Units retired per run.
    retired: u64,
    /// Trace-tier counters of the last run (trace backends only).
    trace: Option<TraceStats>,
}

/// Builds one session (ELF load, translation and pre-decode are not
/// timed), then resets and reruns it. A reset rebuilds the trace tier,
/// so warm-up and trace formation are inside every timed run.
fn measure(w: &Workload, backend: Backend) -> Tier {
    let mut s = SimBuilder::workload(w)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| panic!("{}: session on {backend} fails to build: {e}", w.name));
    let mut retired = 0;
    let mut run = || {
        s.reset();
        let stop = s.run_until(Limit::Retirements(5_000_000_000));
        assert!(
            matches!(stop, Ok(StopCause::Halted)),
            "{} on {backend}: {stop:?}",
            w.name
        );
        retired = s.engine_stats().retired;
        assert_eq!(
            s.read_d(2),
            w.expected_d2,
            "{} checksum after reset on {backend}",
            w.name
        );
    };
    run(); // warm-up
    let secs = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..RUNS {
                run();
            }
            start.elapsed().as_secs_f64() / f64::from(RUNS)
        })
        .fold(f64::INFINITY, f64::min);
    Tier {
        per_sec: retired as f64 / secs / 1e6,
        retired,
        trace: s.trace_stats(),
    }
}

/// `naive -> pre-decoded -> trace` throughput with the two speedups.
fn throughput([naive, pre, trace]: &[Tier; 3], unit: &str) -> String {
    format!(
        "{:>7.2} -> {:>7.2} -> {:>7.2} {unit} ({:.2}x pre, {:.2}x trace)",
        naive.per_sec,
        pre.per_sec,
        trace.per_sec,
        pre.per_sec / naive.per_sec,
        trace.per_sec / pre.per_sec,
    )
}

/// Trace coverage of a trace-tier run; panics if no trace formed.
fn coverage(name: &str, tier: &Tier) -> String {
    let ts = tier.trace.expect("trace stats on a trace backend");
    assert!(ts.traces > 0, "{name}: trace tier formed no traces");
    format!(
        "{} traces, {:.1} blocks/trace, {:.0}% retired in traces",
        ts.traces,
        ts.avg_blocks(),
        ts.trace_retired as f64 / tier.retired as f64 * 100.0,
    )
}

fn main() {
    println!("dispatch throughput (naive -> pre-decoded -> trace, best of {BATCHES} batches of {RUNS} runs):");
    for (w, level) in [
        (cabt::workloads::gcd(256, 0xcab7), DetailLevel::Static),
        (cabt::workloads::fir(16, 2000, 0xcab7), DetailLevel::Static),
        (cabt::workloads::sieve(2000), DetailLevel::Cache),
    ] {
        let golden = [
            DispatchMode::Naive,
            DispatchMode::Predecoded,
            DispatchMode::Trace,
        ]
        .map(|dispatch| measure(&w, Backend::Golden { dispatch }));
        let vliw = [
            VliwDispatch::Naive,
            VliwDispatch::Predecoded,
            VliwDispatch::Trace,
        ]
        .map(|dispatch| measure(&w, Backend::Translated { level, dispatch }));
        println!(
            "  {:<8} level {:<14} golden {}   vliw {}",
            w.name,
            level.to_string(),
            throughput(&golden, "MIPS"),
            throughput(&vliw, "Mpkt/s"),
        );
        println!(
            "  {:<8}   trace stats: golden {}   vliw {}",
            "",
            coverage(w.name, &golden[2]),
            coverage(w.name, &vliw[2]),
        );
    }
}
