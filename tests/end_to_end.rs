//! End-to-end equivalence: every workload, every detail level — the
//! translated program must compute exactly what the golden model
//! computes, and the generated cycle counts must converge to the
//! measured counts as the detail level rises.

use cabt::prelude::*;
use cabt::reproduction::Table2Row;
use cabt_core::regbind::{areg, dreg};
use cabt_tricore::isa::{AReg, DReg};
use std::time::Instant;

fn golden(w: &Workload) -> (cabt_tricore::sim::Simulator, cabt_tricore::sim::RunStats) {
    let elf = w.elf().expect("assembles");
    let mut sim = Simulator::new(&elf).expect("loads");
    let stats = sim.run(500_000_000).expect("halts");
    (sim, stats)
}

fn translated(w: &Workload, level: DetailLevel) -> (Platform, cabt_platform::PlatformStats) {
    let elf = w.elf().expect("assembles");
    let t = Translator::new(level).translate(&elf).expect("translates");
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).expect("builds");
    let stats = p.run(5_000_000_000).expect("halts");
    (p, stats)
}

#[test]
fn all_workloads_all_levels_match_golden_architectural_state() {
    for w in cabt::workloads::fig5_set() {
        let (gold, _) = golden(&w);
        for level in DetailLevel::ALL {
            let (p, _) = translated(&w, level);
            for i in 0..16u8 {
                assert_eq!(
                    p.sim().reg(dreg(DReg(i))),
                    gold.cpu.d(i),
                    "{} level {level}: d{i} mismatch",
                    w.name
                );
            }
            // Address registers too (a11 differs: it holds target-world
            // return addresses by design; skip it and a10 the stack).
            for i in (0..16u8).filter(|&i| i != 11) {
                assert_eq!(
                    p.sim().reg(areg(AReg(i))),
                    gold.cpu.a(i),
                    "{} level {level}: a{i} mismatch",
                    w.name
                );
            }
        }
    }
}

#[test]
fn accuracy_improves_monotonically_per_workload() {
    for w in cabt::workloads::fig5_set() {
        let (_, gstats) = golden(&w);
        let dev = |level: DetailLevel| {
            let (_, s) = translated(&w, level);
            (s.total_generated() as i64 - gstats.cycles as i64).unsigned_abs()
        };
        let d_static = dev(DetailLevel::Static);
        let d_bp = dev(DetailLevel::BranchPredict);
        let d_cache = dev(DetailLevel::Cache);
        assert!(
            d_bp <= d_static,
            "{}: branch prediction worsened accuracy ({d_bp} > {d_static})",
            w.name
        );
        assert!(
            d_cache <= d_bp,
            "{}: cache level worsened accuracy ({d_cache} > {d_bp})",
            w.name
        );
        // At the cache level only cross-block pipeline effects remain.
        let pct = d_cache as f64 / gstats.cycles as f64;
        assert!(
            pct < 0.05,
            "{}: cache-level deviation {pct:.3} too large",
            w.name
        );
    }
}

#[test]
fn static_prediction_underestimates_only_dynamic_effects() {
    // The static count excludes misprediction and cache-miss penalties,
    // so it must never exceed the measured count by more than the
    // cross-block pairing slack (tiny), and the branch-predict level's
    // *corrections* must be positive where mispredictions happened.
    for w in [cabt::workloads::gcd(8, 3), cabt::workloads::sieve(120)] {
        let (_, gstats) = golden(&w);
        let (_, s) = translated(&w, DetailLevel::BranchPredict);
        assert!(
            s.corrected_cycles > 0,
            "{}: control code must mispredict sometimes",
            w.name
        );
        assert!(
            s.generated_cycles <= gstats.cycles,
            "{}: static part {} exceeds measured {}",
            w.name,
            s.generated_cycles,
            gstats.cycles
        );
    }
}

#[test]
fn functional_level_is_fastest_and_generates_nothing() {
    let w = cabt::workloads::dpcm(200, 11);
    let (_, f) = translated(&w, DetailLevel::Functional);
    let (_, s) = translated(&w, DetailLevel::Static);
    assert_eq!(f.total_generated(), 0);
    assert!(f.target_cycles < s.target_cycles);
}

#[test]
fn per_instruction_granularity_matches_results_too() {
    let w = cabt::workloads::fir(8, 64, 9);
    let elf = w.elf().expect("assembles");
    let t = Translator::new(DetailLevel::Static)
        .with_granularity(Granularity::PerInstruction)
        .translate(&elf)
        .expect("translates");
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).expect("builds");
    p.run(5_000_000_000).expect("halts");
    assert_eq!(p.sim().reg(dreg(DReg(2))), w.expected_d2);
}

#[test]
fn table2_workloads_run_on_rtl_core_identically() {
    for w in cabt::workloads::table2_set() {
        let elf = w.elf().expect("assembles");
        let mut core = cabt::rtlsim::RtlCore::new(&elf).expect("elaborates");
        core.run(100_000_000).expect("halts");
        assert_eq!(core.d(2), w.expected_d2, "{} on the RTL core", w.name);
    }
}

#[test]
fn table2_translation_beats_rtl_by_orders_of_magnitude() {
    let w = cabt::workloads::gcd(3, 7);
    let r = Table2Row::measure(&w);
    // Assembled outside the timed region: the wall-clock time covers
    // building and running the RTL core (elaboration included, as the
    // paper's "simulation time" does), not assembling the source.
    let elf = w.elf().expect("assembles");
    let start = Instant::now();
    let mut rtl = SimBuilder::elf(elf)
        .backend(Backend::Rtl)
        .build()
        .expect("elaborates");
    assert_eq!(
        rtl.run(Limit::Retirements(100_000_000)).expect("runs"),
        StopCause::Halted
    );
    let rtl_seconds = start.elapsed().as_secs_f64();
    assert_eq!(rtl.read_d(2), w.expected_d2, "gcd on the RTL core");
    assert!(rtl_seconds > 0.0);
    for t in r.translation_seconds {
        assert!(
            t < rtl_seconds,
            "translation must beat RTL simulation ({rtl_seconds} s): {r:?}"
        );
    }
    assert!(r.translation_seconds[0] < r.fpga_seconds * 10.0);
}
