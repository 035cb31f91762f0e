//! `bench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! bench --workload NAME --seed S [--seconds N] [--trace 0|1|PATH] [--smoke]
//! ```
//!
//! With tracing off (the default) it prints the end-to-end metrics; with
//! `--trace 1` (or a path) it runs the workload untraced and then
//! traced, probes every layer, prints per-layer metrics and self times,
//! and writes the spans as Chrome trace-event JSON. The last line of
//! standard output is always the JSON result line.

use cabt_perfbench::report::{result_line, Checks, Metric};
use cabt_perfbench::run::{Opts, Run, Sampled};
use cabt_perfbench::trace::{self, Tracer};
use cabt_perfbench::{host, probe, run_workload, stats, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench --workload NAME --seed S [--seconds N] [--trace 0|1|PATH] [--smoke]
workloads: paper_cache golden_ref noc_spmd fleet_mix";

/// Seconds measured when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Longest `--seconds` accepted: every run must end within three
/// minutes, set-up and probes included.
const MAX_SECONDS: f64 = 60.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must lie in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::new()),
                    path => Some(PathBuf::from(path)),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke { 0.3 } else { DEFAULT_SECONDS }),
        trace,
        smoke,
    })
}

fn opts(args: &Args, seconds: f64) -> Opts {
    Opts {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        min_samples: stats::samples_needed(90.0),
    }
}

fn print_metric(kind: &str, m: &Metric) {
    println!("{kind} {} {} {}", m.name, m.value, m.unit);
}

/// Calibration p50/p90 and the `unstable` warning.
fn print_host(run: &Run) {
    let calib = &run.sampled.calib_ms;
    let p50 = stats::median(calib).unwrap_or(f64::NAN);
    let p90 = stats::percentile(calib, 90.0).unwrap_or(f64::NAN);
    print_metric("meta", &Metric::new("host.calib_ms_p50", p50, "ms"));
    print_metric("meta", &Metric::new("host.calib_ms_p90", p90, "ms"));
    if p90 / p50 > host::UNSTABLE_RATIO {
        println!(
            "warn unstable: calibration p90/p50 = {:.2} > {}; the host slowed down during the run",
            p90 / p50,
            host::UNSTABLE_RATIO
        );
    }
    for m in &run.info {
        print_metric("meta", m);
    }
}

fn print_checks(checks: &Checks) {
    print_metric(
        "metric",
        &Metric::new("fail_ratio", checks.fail_ratio(), "ratio"),
    );
    for f in &checks.failures {
        println!("warn failed: {f}");
    }
}

fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    stats::percentile(samples, p).map_err(|e| format!("run_ms_p{p}: {e}"))
}

fn untraced(args: &Args) -> Result<String, String> {
    let run = run_workload(
        &args.workload,
        &opts(args, args.seconds),
        &Tracer::new(false),
    )
    .ok_or("unknown workload")?;
    let sampled = &run.sampled;
    let metrics = vec![
        Metric::new("host_mips", run.host_mips, "MIPS"),
        Metric::new(
            "run_ms_p10",
            sampled.host_ms().map_err(|e| format!("run_ms_p10: {e}"))?,
            "ms",
        ),
        Metric::new("sessions_per_s", run.sessions_per_s, "1/s"),
        Metric::new(
            "setup_s",
            sampled
                .host_setup_s()
                .map_err(|e| format!("setup_s: {e}"))?,
            "s",
        ),
        Metric::new("model_mips", run.model_mips, "MIPS"),
        Metric::new("cycle_dev_pct", run.cycle_dev_pct, "%"),
        Metric::new(
            "peak_rss_mb",
            host::peak_rss_mb().ok_or("no VmHWM on this host")?,
            "MB",
        ),
    ];
    debug_assert!(metrics.iter().map(|m| m.name).eq(END_TO_END));
    // The median and the tail are reported, not gated: with the same
    // work in every sample they measure how often the host was slow
    // (see BENCHMARK.md).
    println!("meta samples {} count", sampled.samples_ms.len());
    println!("meta setup_repeats {} count", sampled.setup_s.len());
    let setup_p50 = stats::median(&sampled.setup_s).map_err(|e| e.to_string())?;
    for m in [
        Metric::new("run_ms_p50", percentile(&sampled.samples_ms, 50.0)?, "ms"),
        Metric::new("run_ms_p90", percentile(&sampled.samples_ms, 90.0)?, "ms"),
        Metric::new("setup_s_p50", setup_p50, "s"),
    ] {
        print_metric("meta", &m);
    }
    for m in &metrics {
        print_metric("metric", m);
    }
    print_checks(&run.checks);
    print_host(&run);
    result_line(&run.checks, &metrics)
}

fn traced(args: &Args, path: PathBuf) -> Result<String, String> {
    // Half the time untraced, half traced: the difference is the
    // tracing overhead.
    let half = args.seconds / 2.0;
    let plain = run_workload(&args.workload, &opts(args, half), &Tracer::new(false))
        .ok_or("unknown workload")?;
    let tracer = Tracer::new(true);
    let traced =
        run_workload(&args.workload, &opts(args, half), &tracer).ok_or("unknown workload")?;
    let mut checks = plain.checks;
    checks.merge(traced.checks.clone());
    let mut metrics = probe::probe(&traced.programs, &tracer, &mut checks);
    metrics.extend(traced.layer.iter().cloned());
    let host_ms = |s: &Sampled| s.host_ms().map_err(|e| e.to_string());
    let overhead = (host_ms(&traced.sampled)? / host_ms(&plain.sampled)? - 1.0) * 100.0;
    metrics.push(Metric::new("bench.trace_overhead_pct", overhead, "%"));
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|n| *n == m.name));
    debug_assert!(metrics.iter().map(|m| m.name).eq(PER_LAYER));

    let spans = tracer.spans();
    for (name, calls, total, own) in trace::self_time_table(&spans) {
        println!(
            "self {name} {:.3} ms ({calls} calls, {:.3} ms total)",
            own as f64 / 1e6,
            total as f64 / 1e6
        );
    }
    let coverage = trace::top_level_coverage(&spans) * 100.0;
    println!("meta trace.top_level_coverage_pct {coverage} %");
    println!("meta trace.spans {} count", spans.len());
    let path = if path.as_os_str().is_empty() {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed))
    } else {
        path
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, trace::chrome_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("meta trace.file {}", path.display());
    for m in &metrics {
        print_metric("layer", m);
    }
    print_checks(&checks);
    print_host(&traced);
    result_line(&checks, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# bench workload={} seed={} seconds={} trace={} smoke={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace.is_some()),
        args.smoke,
        host::nproc()
    );
    let result = match args.trace.clone() {
        Some(path) => traced(&args, path),
        None => untraced(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(1)
        }
    }
}
