//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§4).
//!
//! | artifact | regenerator |
//! |---|---|
//! | Fig. 5 (speed, MIPS) | `cargo run --release -p cabt-bench --bin fig5` |
//! | Table 1 (cycles per source instruction) | `--bin table1` |
//! | Fig. 6 (cycle accuracy) | `--bin fig6` |
//! | Table 2 (runtime comparison) | `--bin table2` |
//! | host dispatch throughput of the naive, pre-decoded and trace tiers | `--bin dispatch` |
//! | repository benchmark (end-to-end and per-layer metrics) | `bench` in `perfbench/` (`perfbench/bench.sh`, declared by `BENCHMARK.json`) |
//! | comparison of two benchmark runs | `bench-diff` in `perfbench/` |
//!
//! Every regenerator prints to stdout and writes no file. Performance
//! claims cite the `perfbench/` runs.

use cabt_core::DetailLevel;
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_sim::{Backend, Session, SimBuilder};
use cabt_workloads::Workload;
use std::time::Instant;

/// Clock of the reference board (48 MHz TC10GP).
pub const BOARD_HZ: f64 = 48e6;
/// Clock of the VLIW target (200 MHz C6x).
pub const TARGET_HZ: f64 = 200e6;
/// Clock of the FPGA prototype from the paper's reference \[12\] (8 MHz XCV2000E).
pub const FPGA_HZ: f64 = 8e6;

/// Measurements of one workload on the reference model.
#[derive(Debug, Clone, Copy)]
pub struct GoldenRun {
    /// Source instructions retired.
    pub instructions: u64,
    /// Source cycles including cache misses.
    pub cycles: u64,
}

/// Runs any [`ExecutionEngine`] to halt within `limit`, returning its
/// uniform counters. Every harness in this crate funnels engine
/// execution through here, so backends compare on the same terms.
///
/// # Panics
///
/// Panics if the engine faults or exhausts the budget first.
pub fn run_engine_to_halt<E: ExecutionEngine>(engine: &mut E, limit: Limit) -> EngineStats {
    match engine.run_until(limit) {
        Ok(StopCause::Halted) => engine.engine_stats(),
        Ok(StopCause::LimitReached) => panic!("engine hit its budget before halting"),
        Err(e) => panic!("engine faulted: {e}"),
    }
}

/// Retirement budget generous enough for every bundled workload on
/// every backend (engine-native units: instructions, packets, or
/// RTL-core instructions).
pub const HALT_BUDGET: Limit = Limit::Retirements(5_000_000_000);

/// Builds a `cabt-sim` session for `w` on `backend`, runs it to halt
/// and validates the workload checksum — the uniform measurement every
/// harness in this crate is built from. There is no per-backend driver
/// code: the backend is *data*.
///
/// # Panics
///
/// Panics if the session fails to build, faults, exhausts the budget,
/// or computes the wrong checksum — all generator bugs.
pub fn run_backend(w: &Workload, backend: Backend) -> (Session, EngineStats) {
    let mut s = SimBuilder::workload(w)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| panic!("{}: session on {backend} fails to build: {e}", w.name));
    let stats = run_engine_to_halt(&mut s, HALT_BUDGET);
    assert_eq!(
        s.read_d(2),
        w.expected_d2,
        "{} checksum on {backend}",
        w.name
    );
    (s, stats)
}

/// Runs the golden model (the evaluation-board stand-in) through a
/// `cabt-sim` session.
///
/// # Panics
///
/// Panics if the workload fails to assemble, run, or validate — all are
/// generator bugs.
pub fn run_golden(w: &Workload) -> GoldenRun {
    let (_, stats) = run_backend(w, Backend::golden());
    GoldenRun {
        instructions: stats.retired,
        cycles: stats.cycles,
    }
}

/// Measurements of one workload translated at one detail level, run on
/// the platform with an instant synchronization device (pure code
/// speed, as Table 1 measures).
#[derive(Debug, Clone, Copy)]
pub struct TranslatedRun {
    /// Target (VLIW) cycles.
    pub target_cycles: u64,
    /// SoC cycles generated from static predictions.
    pub generated: u64,
    /// SoC cycles generated from corrections.
    pub corrected: u64,
}

impl TranslatedRun {
    /// Total generated cycles (the Fig. 6 quantity).
    pub fn total_generated(&self) -> u64 {
        self.generated + self.corrected
    }
}

/// Translates and runs a workload at `level` through a `cabt-sim`
/// session (instant synchronization device, as Table 1 measures).
///
/// # Panics
///
/// Panics on translation/run/validation failure.
pub fn run_translated(w: &Workload, level: DetailLevel) -> TranslatedRun {
    let (s, _) = run_backend(w, Backend::translated(level));
    let stats = s.platform_stats().expect("translated session");
    TranslatedRun {
        target_cycles: stats.target_cycles,
        generated: stats.generated_cycles,
        corrected: stats.corrected_cycles,
    }
}

/// One row of Fig. 5: million source instructions per second in each of
/// the five configurations.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub name: &'static str,
    /// TC10GP evaluation board.
    pub board: f64,
    /// C6x without cycle information.
    pub functional: f64,
    /// C6x with cycle information.
    pub cycle: f64,
    /// C6x with branch prediction.
    pub branch: f64,
    /// C6x with caches.
    pub cache: f64,
}

/// Computes Fig. 5 for the given workloads.
pub fn fig5(workloads: &[Workload]) -> Vec<Fig5Row> {
    workloads
        .iter()
        .map(|w| {
            let g = run_golden(w);
            let mips = |target_cycles: u64, hz: f64| {
                g.instructions as f64 / (target_cycles as f64 / hz) / 1e6
            };
            let f = run_translated(w, DetailLevel::Functional);
            let c = run_translated(w, DetailLevel::Static);
            let b = run_translated(w, DetailLevel::BranchPredict);
            let k = run_translated(w, DetailLevel::Cache);
            Fig5Row {
                name: w.name,
                board: mips(g.cycles, BOARD_HZ),
                functional: mips(f.target_cycles, TARGET_HZ),
                cycle: mips(c.target_cycles, TARGET_HZ),
                branch: mips(b.target_cycles, TARGET_HZ),
                cache: mips(k.target_cycles, TARGET_HZ),
            }
        })
        .collect()
}

/// Table 1: average clock cycles per source instruction across the
/// workloads, in the paper's five configurations.
#[derive(Debug, Clone, Copy)]
pub struct Table1 {
    /// TC10GP evaluation board (source cycles per instruction).
    pub board: f64,
    /// C6x without cycle information.
    pub functional: f64,
    /// C6x with cycle information.
    pub cycle: f64,
    /// C6x with branch prediction.
    pub branch: f64,
    /// C6x with caches.
    pub cache: f64,
}

/// Computes Table 1 over the given workloads (paper: "the average value
/// of all examples").
pub fn table1(workloads: &[Workload]) -> Table1 {
    let mut rows = [0f64; 5];
    for w in workloads {
        let g = run_golden(w);
        let per = |c: u64| c as f64 / g.instructions as f64;
        rows[0] += per(g.cycles);
        rows[1] += per(run_translated(w, DetailLevel::Functional).target_cycles);
        rows[2] += per(run_translated(w, DetailLevel::Static).target_cycles);
        rows[3] += per(run_translated(w, DetailLevel::BranchPredict).target_cycles);
        rows[4] += per(run_translated(w, DetailLevel::Cache).target_cycles);
    }
    let n = workloads.len() as f64;
    Table1 {
        board: rows[0] / n,
        functional: rows[1] / n,
        cycle: rows[2] / n,
        branch: rows[3] / n,
        cache: rows[4] / n,
    }
}

/// One row of Fig. 6: generated-cycle counts per detail level against
/// the measured (golden) count.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub name: &'static str,
    /// Golden (board) cycle count.
    pub measured: u64,
    /// Generated cycles at the static level.
    pub cycle: u64,
    /// Generated cycles with branch prediction.
    pub branch: u64,
    /// Generated cycles with cache simulation.
    pub cache: u64,
}

impl Fig6Row {
    /// Percentage deviation of a simulated count from the measured one.
    pub fn deviation(&self, simulated: u64) -> f64 {
        (simulated as f64 - self.measured as f64).abs() / self.measured as f64 * 100.0
    }
}

/// Computes Fig. 6 for the given workloads.
pub fn fig6(workloads: &[Workload]) -> Vec<Fig6Row> {
    workloads
        .iter()
        .map(|w| {
            let g = run_golden(w);
            Fig6Row {
                name: w.name,
                measured: g.cycles,
                cycle: run_translated(w, DetailLevel::Static).total_generated(),
                branch: run_translated(w, DetailLevel::BranchPredict).total_generated(),
                cache: run_translated(w, DetailLevel::Cache).total_generated(),
            }
        })
        .collect()
}

/// One row of Table 2: execution/simulation time per approach.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: &'static str,
    /// Source instructions executed.
    pub instructions: u64,
    /// Wall-clock seconds of the RT-level simulation (measured).
    pub rtl_seconds: f64,
    /// Seconds of FPGA emulation at 8 MHz (golden cycles / 8 MHz).
    pub fpga_seconds: f64,
    /// Seconds of translated execution at the three detail levels
    /// (target cycles / 200 MHz).
    pub translation_seconds: [f64; 3],
}

/// Computes Table 2. Every vehicle — golden, RTL, and the translated
/// detail levels — is measured through the same session drive; the
/// rows differ only in which quantity they derive (wall clock for the
/// RTL simulation, cycles over the respective clock for the
/// board/FPGA/translation rows).
pub fn table2(workloads: &[Workload]) -> Vec<Table2Row> {
    workloads
        .iter()
        .map(|w| {
            // Assembled once outside the timed region: the wall-clock
            // column measures building + running the vehicle
            // (elaboration included, as the paper's "simulation time"
            // does), not assembling the workload source.
            let elf = w.elf().expect("workload assembles");
            // One uniform measurement per backend: engine counters plus
            // host wall-clock seconds.
            let measure = |backend: Backend| {
                let builder = SimBuilder::elf(elf.clone()).backend(backend);
                let start = Instant::now();
                let mut s = builder
                    .build()
                    .unwrap_or_else(|e| panic!("{}: session on {backend} fails: {e}", w.name));
                let stats = run_engine_to_halt(&mut s, HALT_BUDGET);
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(
                    s.read_d(2),
                    w.expected_d2,
                    "{} checksum on {backend}",
                    w.name
                );
                (stats, secs)
            };
            let (g, _) = measure(Backend::golden());
            let (_, rtl_seconds) = measure(Backend::Rtl);
            let secs =
                |lvl: DetailLevel| measure(Backend::translated(lvl)).0.cycles as f64 / TARGET_HZ;
            Table2Row {
                name: w.name,
                instructions: g.retired,
                rtl_seconds,
                fpga_seconds: g.cycles as f64 / FPGA_HZ,
                translation_seconds: [
                    secs(DetailLevel::Static),
                    secs(DetailLevel::BranchPredict),
                    secs(DetailLevel::Cache),
                ],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Workload> {
        vec![cabt_workloads::gcd(3, 7), cabt_workloads::fir(4, 24, 7)]
    }

    #[test]
    fn fig5_shape_holds_on_tiny_workloads() {
        for row in fig5(&tiny()) {
            // Adding instrumentation can only slow the target down.
            assert!(row.functional >= row.cycle, "{}", row.name);
            assert!(row.cycle >= row.branch, "{}", row.name);
            assert!(
                row.branch > row.cache,
                "{}: cache level must be much slower",
                row.name
            );
            assert!(row.board > 0.0);
        }
    }

    #[test]
    fn table1_orderings_match_paper() {
        let t = table1(&tiny());
        assert!(
            t.board >= 1.0,
            "CPI cannot beat 1 on the dual-issue core? {t:?}"
        );
        assert!(t.functional < t.cycle);
        assert!(t.cycle < t.branch);
        assert!(t.branch < t.cache);
        assert!(
            t.cache / t.branch > 2.0,
            "cache simulation is several times slower: {t:?}"
        );
    }

    #[test]
    fn fig6_accuracy_improves_with_level() {
        for row in fig6(&tiny()) {
            assert!(
                row.deviation(row.branch) <= row.deviation(row.cycle) + 1e-9,
                "{row:?}"
            );
            assert!(
                row.deviation(row.cache) <= row.deviation(row.branch) + 1e-9,
                "{row:?}"
            );
            assert!(row.deviation(row.cache) < 20.0, "{row:?}");
        }
    }

    #[test]
    fn table2_translation_beats_rtl_by_orders_of_magnitude() {
        let rows = table2(&[cabt_workloads::gcd(3, 7)]);
        let r = &rows[0];
        assert!(r.rtl_seconds > 0.0);
        for t in r.translation_seconds {
            assert!(
                t < r.rtl_seconds,
                "translation must beat RTL simulation: {r:?}"
            );
        }
        assert!(r.translation_seconds[0] < r.fpga_seconds * 10.0);
    }
}
