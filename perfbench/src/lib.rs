//! The repository benchmark: four seeded workloads measured end to end
//! and layer by layer, with a traced run.
//!
//! | binary | what it does |
//! |---|---|
//! | `bench` | `cargo run --release --manifest-path perfbench/Cargo.toml --bin bench -- --workload NAME --seed S [--seconds N] [--trace 0\|1\|PATH] [--smoke]` runs one workload and prints every metric with its unit, then one JSON result line |
//! | `bench-diff` | compares result files of a parent and a change, run in alternating pairs, against the bounds in `BENCHMARK.json` |
//!
//! `BENCHMARK.md` next to this crate's manifest describes the workloads,
//! the metrics and their bounds, the layer map and the trace format.

pub mod diff;
mod fleet;
pub mod host;
mod json;
mod noc;
mod paper;
pub mod probe;
pub mod report;
mod ring;
pub mod run;
pub mod stats;
pub mod trace;

use run::{Opts, Run};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_cache", "golden_ref", "noc_spmd", "fleet_mix"];

/// End-to-end metrics (reported with tracing off), in result-line order.
pub const END_TO_END: [&str; 7] = [
    "host_mips",
    "run_ms_p10",
    "sessions_per_s",
    "setup_s",
    "model_mips",
    "cycle_dev_pct",
    "peak_rss_mb",
];

/// Per-layer metrics (reported by the traced run), in result-line
/// order.
pub const PER_LAYER: [&str; 26] = [
    "tricore.asm_ms",
    "tricore.load_ms",
    "tricore.compile_ms",
    "core.cfg_ms",
    "core.translate_ms",
    "platform.build_ms",
    "tricore.ns_per_instr",
    "tricore.icache_miss_ratio",
    "tricore.mispredict_ratio",
    "exec.golden_trace_coverage",
    "exec.golden_traces",
    "vliw.ns_per_packet",
    "vliw.packets_per_instr",
    "vliw.slots_per_packet",
    "platform.sync_stall_share",
    "platform.corrected_share",
    "exec.vliw_trace_coverage",
    "exec.vliw_traces",
    "platform.exchange_us",
    "exec.pool_roundtrip_us",
    "sim.build_ms",
    "sim.build_share",
    "sim.epochs_per_run",
    "platform.bus_tx_per_epoch",
    "fleet.queue_share",
    "bench.trace_overhead_pct",
];

/// Runs workload `name`, or `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts, tracer: &Tracer) -> Option<Run> {
    Some(match name {
        "paper_cache" => paper::run(paper::Vehicle::Prototype, opts, tracer),
        "golden_ref" => paper::run(paper::Vehicle::Board, opts, tracer),
        "noc_spmd" => noc::run(opts, tracer),
        "fleet_mix" => fleet::run(opts, tracer),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn names<'a>(doc: &'a Value, key: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("named"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bounded");
        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
        let setup_bound = bound(setup.expect("setup_s is an end-to-end metric"));
        for m in e2e {
            let b = bound(m);
            assert!(b > 0.0 && b <= 0.25 && b <= setup_bound, "{m:?}");
        }
        for w in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
