//! The paper's evaluation (§4) regenerated in one pass and rendered as
//! `docs/reproduction.md`.
//!
//! [`Reproduction::run`] runs each Fig. 5 program once on the golden
//! model and once at each of the four detail levels, and each Table 2
//! program once on the golden model and once at each of the three
//! cycle-generating levels. Fig. 5, Fig. 6, Table 1 and Table 2 are all
//! derived from those runs. Every number in them is modelled, so it
//! repeats to the last digit. The [`Display`](fmt::Display) rendering is
//! the committed document: `tests/reproduction.rs` fails on any byte of
//! difference, and
//!
//! ```sh
//! cargo run --release --example reproduction > docs/reproduction.md
//! ```
//!
//! rewrites it.

use cabt_core::DetailLevel::{self, BranchPredict, Cache, Static};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_platform::PlatformStats;
use cabt_sim::{Backend, SimBuilder};
use cabt_workloads::{Workload, TABLE2_PAPER_INSTRUCTIONS};
use std::fmt;

/// Clock of the reference board (48 MHz TC10GP).
const BOARD_HZ: f64 = 48e6;
/// Clock of the VLIW target (200 MHz C6x).
const TARGET_HZ: f64 = 200e6;
/// Clock of the FPGA prototype from the paper's reference \[12\] (8 MHz XCV2000E).
const FPGA_HZ: f64 = 8e6;

/// The detail levels that generate SoC cycles, and their short names.
const CYCLE_LEVELS: [(DetailLevel, &str); 3] = [
    (Static, "cycle"),
    (BranchPredict, "branch"),
    (Cache, "cache"),
];

/// The paper's five configurations in Fig. 5 and Table 1 order, with
/// the cycles per TriCore instruction its Table 1 reports for each.
const CONFIGURATIONS: [(&str, f64); 5] = [
    ("TC10GP evaluation board", 1.08),
    ("C6x without cycle information", 2.94),
    ("C6x with cycle information", 4.28),
    ("C6x branch prediction", 5.87),
    ("C6x caches", 35.34),
];

/// The lowest and highest deviation at the branch prediction level the
/// paper's Fig. 6 reports, in percent.
const PAPER_BRANCH_DEVIATION: [(&str, f64); 2] = [("lowest", 3.0), ("highest", 15.0)];

/// The document's opening: how it is made and what each table's
/// numbers are.
const INTRO: &str = "\
# The paper's evaluation, reproduced

This file is generated: `cargo run --release --example reproduction >
docs/reproduction.md` rewrites it, and `tests/reproduction.rs` fails on
any byte of difference. Each Fig. 5 program runs once on the golden
model (the TC10GP evaluation board) and once at each of the four detail
levels on the translated C6x platform; each Table 2 program runs once on
the golden model and once at each of the three cycle-generating levels.
All four tables are derived from those runs:

- Fig. 5: golden instructions over the golden cycles at 48 MHz (board)
  or over the translated platform's target cycles at 200 MHz (C6x).
- Fig. 6: SoC cycles generated (static prediction plus corrections) and
  their deviation from the golden cycles.
- Table 1: golden or target cycles per golden instruction, averaged
  over the Fig. 5 programs.
- Table 2: golden instructions; the golden cycles at 8 MHz (FPGA); the
  translated session's cycles at 200 MHz. The paper's RT-level
  simulation column is host wall time, which no committed file can pin:
  `tests/end_to_end.rs::table2_translation_beats_rtl_by_orders_of_magnitude`
  checks that translation beats it.

Every number is modelled, so it repeats to the last digit. Each row is
one number: ours, the paper's value and ours/paper. A \"—\" marks a
paper value the repository does not hold yet.
";

/// Runs `w` on `backend` to halt and checks its checksum. Returns the
/// session's counters and the platform's (default on the golden model).
///
/// # Panics
///
/// Panics if the session fails to build, faults, exhausts its budget or
/// computes the wrong checksum: all generator bugs.
fn run(w: &Workload, backend: Backend) -> (EngineStats, PlatformStats) {
    let mut s = SimBuilder::workload(w)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| panic!("{}: session on {backend} fails to build: {e}", w.name));
    let stop = s.run_until(Limit::Retirements(5_000_000_000));
    assert!(
        matches!(stop, Ok(StopCause::Halted)),
        "{} on {backend}: {stop:?}",
        w.name
    );
    assert_eq!(s.read_d(2), w.expected_d2, "{} on {backend}", w.name);
    (s.engine_stats(), s.platform_stats().unwrap_or_default())
}

/// Runs `w` once on the golden model and once translated at each of
/// `levels`.
fn measure<const N: usize>(
    w: &Workload,
    levels: [DetailLevel; N],
) -> (EngineStats, [(EngineStats, PlatformStats); N]) {
    let golden = run(w, Backend::golden()).0;
    (golden, levels.map(|l| run(w, Backend::translated(l))))
}

/// One Fig. 5 program: million source instructions per second in each
/// of the five configurations.
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

/// Table 1: clock cycles per source instruction averaged over the
/// Fig. 5 programs, in the five configurations.
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

/// One Fig. 6 program: the measured (golden) cycle count and the SoC
/// cycles generated at each cycle-generating level.
#[derive(Debug, Clone)]
pub(crate) struct Fig6Row {
    /// Workload name.
    name: &'static str,
    /// Golden (board) cycle count.
    measured: u64,
    /// Generated cycles (static prediction plus corrections) at the
    /// static, branch prediction and cache levels.
    generated: [u64; 3],
}

impl Fig6Row {
    /// Percentage deviation of a generated count from the measured one.
    fn deviation(&self, generated: u64) -> f64 {
        (generated as f64 - self.measured as f64).abs() / self.measured as f64 * 100.0
    }
}

/// One Table 2 program: its modelled run times. The paper's RT-level
/// simulation column is host wall time, so it is not part of the row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: &'static str,
    /// Source instructions executed.
    pub instructions: u64,
    /// Seconds of FPGA emulation at 8 MHz (golden cycles / 8 MHz).
    pub fpga_seconds: f64,
    /// Seconds of translated execution at the static, branch prediction
    /// and cache levels (session cycles / 200 MHz).
    pub translation_seconds: [f64; 3],
}

impl Table2Row {
    /// Runs `w` once on the golden model and once at each
    /// cycle-generating level.
    ///
    /// # Panics
    ///
    /// Panics if a run fails or computes the wrong checksum.
    pub fn measure(w: &Workload) -> Self {
        let (golden, translated) = measure(w, CYCLE_LEVELS.map(|(l, _)| l));
        Table2Row {
            name: w.name,
            instructions: golden.retired,
            fpga_seconds: golden.cycles as f64 / FPGA_HZ,
            translation_seconds: translated.map(|(s, _)| s.cycles as f64 / TARGET_HZ),
        }
    }
}

/// The paper's four evaluation artefacts, derived from one pass over
/// [`cabt_workloads::fig5_set`] and [`cabt_workloads::table2_set`].
#[derive(Debug, Clone)]
pub struct Reproduction {
    /// Fig. 5, one row per program.
    pub fig5: Vec<Fig5Row>,
    /// Fig. 6, one row per Fig. 5 program.
    pub(crate) fig6: Vec<Fig6Row>,
    /// Table 1 over the Fig. 5 programs.
    pub table1: Table1,
    /// Table 2, one row per program.
    pub(crate) table2: Vec<Table2Row>,
}

impl Reproduction {
    /// Runs the pass and derives the four artefacts.
    ///
    /// # Panics
    ///
    /// Panics if a run fails or computes the wrong checksum.
    pub fn run() -> Self {
        let set = cabt_workloads::fig5_set();
        let (mut fig5, mut fig6, mut cpi) = (Vec::new(), Vec::new(), [0f64; 5]);
        for w in &set {
            let (golden, translated) = measure(w, DetailLevel::ALL);
            let [f, c, b, k] = translated.each_ref().map(|(_, p)| p.target_cycles);
            let mips = |cycles: u64, hz: f64| golden.retired as f64 / (cycles as f64 / hz) / 1e6;
            fig5.push(Fig5Row {
                name: w.name,
                board: mips(golden.cycles, BOARD_HZ),
                functional: mips(f, TARGET_HZ),
                cycle: mips(c, TARGET_HZ),
                branch: mips(b, TARGET_HZ),
                cache: mips(k, TARGET_HZ),
            });
            for (sum, cycles) in cpi.iter_mut().zip([golden.cycles, f, c, b, k]) {
                *sum += cycles as f64 / golden.retired as f64;
            }
            let [_, generated @ ..] = translated.map(|(_, p)| p.total_generated());
            let (name, measured) = (w.name, golden.cycles);
            fig6.push(Fig6Row {
                name,
                measured,
                generated,
            });
        }
        let [board, functional, cycle, branch, cache] = cpi.map(|sum| sum / set.len() as f64);
        let table1 = Table1 {
            board,
            functional,
            cycle,
            branch,
            cache,
        };
        let table2 = cabt_workloads::table2_set();
        let table2 = table2.iter().map(Table2Row::measure).collect();
        Reproduction {
            fig5,
            fig6,
            table1,
            table2,
        }
    }
}

/// Writes a section heading and its table's header.
fn head(f: &mut fmt::Formatter<'_>, heading: &str) -> fmt::Result {
    writeln!(f, "\n## {heading}\n")?;
    writeln!(f, "| program | quantity | ours | paper | ours/paper |")?;
    writeln!(f, "|---|---|---:|---:|---:|")
}

/// Writes one row: the program, what the number is, ours as shown, and
/// the paper's value with ours over it where the repository holds one.
fn row(
    f: &mut fmt::Formatter<'_>,
    program: &str,
    what: impl fmt::Display,
    shown: impl fmt::Display,
    compared: Option<(f64, f64)>,
) -> fmt::Result {
    write!(f, "| {program} | {what} | {shown} | ")?;
    match compared {
        Some((ours, paper)) => writeln!(f, "{paper} | {:.2} |", ours / paper),
        None => writeln!(f, "— | — |"),
    }
}

/// Formats seconds the way the paper's Table 2 does (µs/ms/s).
fn human_time(seconds: f64) -> String {
    match seconds {
        s if s < 1e-3 => format!("{:.1} µs", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.2} s"),
    }
}

impl fmt::Display for Reproduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(INTRO)?;

        head(f, "Fig. 5 — simulation speed (MIPS)")?;
        for r in &self.fig5 {
            let mips = [r.board, r.functional, r.cycle, r.branch, r.cache];
            for ((config, _), m) in CONFIGURATIONS.iter().zip(mips) {
                row(f, r.name, config, format!("{m:.2}"), None)?;
            }
        }

        head(f, "Fig. 6 — cycle accuracy")?;
        for r in &self.fig6 {
            row(f, r.name, "measured cycles", r.measured, None)?;
            for ((_, level), g) in CYCLE_LEVELS.iter().zip(r.generated) {
                let dev = format!("{:.1}", r.deviation(g));
                row(f, r.name, format!("{level}: generated cycles"), g, None)?;
                row(f, r.name, format!("{level}: deviation (%)"), dev, None)?;
            }
        }
        let branch = self.fig6.iter().map(|r| r.deviation(r.generated[1]));
        let range = [
            branch.clone().fold(f64::MAX, f64::min),
            branch.fold(0.0, f64::max),
        ];
        for ((end, paper), dev) in PAPER_BRANCH_DEVIATION.into_iter().zip(range) {
            let what = format!("branch: {end} deviation (%)");
            row(f, "all", what, format!("{dev:.1}"), Some((dev, paper)))?;
        }

        head(f, "Table 1 — clock cycles per TriCore instruction")?;
        let t = &self.table1;
        let cpi = [t.board, t.functional, t.cycle, t.branch, t.cache];
        for ((config, paper), c) in CONFIGURATIONS.into_iter().zip(cpi) {
            row(f, "all", config, format!("{c:.2}"), Some((c, paper)))?;
        }

        head(f, "Table 2 — software runtime comparison")?;
        for (r, paper) in self.table2.iter().zip(TABLE2_PAPER_INSTRUCTIONS) {
            let compared = Some((r.instructions as f64, paper as f64));
            row(f, r.name, "executed instructions", r.instructions, compared)?;
            let fpga = human_time(r.fpga_seconds);
            row(f, r.name, "emulation (FPGA, 8 MHz)", fpga, None)?;
            for ((_, level), secs) in CYCLE_LEVELS.iter().zip(r.translation_seconds) {
                let what = format!("translation C6x {level}");
                row(f, r.name, what, human_time(secs), None)?;
            }
        }
        Ok(())
    }
}
