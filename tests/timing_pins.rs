//! Exact outputs of the shared TriCore timing model, pinned as literals.
//!
//! Every golden dispatch tier, the naive core and the translator's static
//! cycle calculator drive the one `TimingModel::step_pre_class` body. The
//! differential suites (`compiled_diff`, `predecode_diff`) compare those
//! consumers with each other, so a change to the shared body moves them
//! all together and passes unseen. Here any change to issue pairing,
//! operand stalls or retire timing shows up as a moved number.

use cabt::prelude::{DetailLevel, Platform, PlatformConfig, Translator};
use cabt_isa::elf::ElfFile;
use cabt_tricore::sim::{DispatchMode, RunStats, Simulator};

/// Per single-core registry program: the golden pre-decoded run's
/// retired instructions, cycles, mispredictions and icache misses; the
/// golden trace tier's retired instructions and cycles; and the
/// cache-level translation's target cycles and generated SoC cycles on
/// the paper's platform.
type Pin = (&'static str, [u64; 4], [u64; 2], [u64; 2]);

const PINS: [Pin; 7] = [
    ("gcd", [1325, 2027, 175, 2], [1325, 2027], [50328, 2012]),
    ("dpcm", [6217, 8724, 532, 2], [6217, 8724], [107125, 8725]),
    (
        "fir",
        [21097, 25966, 286, 3],
        [21097, 25966],
        [296309, 25967],
    ),
    ("ellip", [7095, 9205, 1, 9], [7095, 9205], [42552, 9208]),
    (
        "sieve",
        [9277, 11614, 400, 4],
        [9277, 11614],
        [192589, 11614],
    ),
    ("subband", [5525, 7259, 1, 7], [5525, 7259], [32246, 7262]),
    (
        "fibonacci",
        [41403, 50620, 1151, 2],
        [41403, 50620],
        [472808, 50620],
    ),
];

fn golden(elf: &ElfFile, mode: DispatchMode) -> RunStats {
    let mut sim = Simulator::new(elf).expect("loads");
    sim.set_dispatch(mode);
    sim.run(500_000_000).expect("halts")
}

#[test]
fn timing_model_outputs_match_the_pinned_literals() {
    for (name, predecoded, trace, translated) in PINS {
        let w = cabt_workloads::by_name(name).expect("registry program");
        let elf = w.elf().expect("assembles");
        let g = golden(&elf, DispatchMode::Predecoded);
        let got = [g.instructions, g.cycles, g.mispredicted, g.icache_misses];
        assert_eq!(got, predecoded, "{name}: golden pre-decoded");
        let g = golden(&elf, DispatchMode::Trace);
        assert_eq!([g.instructions, g.cycles], trace, "{name}: golden trace");
        let t = Translator::new(DetailLevel::Cache)
            .translate(&elf)
            .expect("translates");
        let mut p = Platform::new(&t, PlatformConfig::default()).expect("builds");
        let s = p.run(5_000_000_000).expect("halts");
        let got = [s.target_cycles, s.total_generated()];
        assert_eq!(got, translated, "{name}: cache-level translation");
    }
}
