//! Exact outputs of the shared TriCore timing model, pinned as literals.
//!
//! Every golden dispatch tier, the naive core and the translator's static
//! cycle calculator drive the one `TimingModel::step_pre_class` body. The
//! differential suites (`compiled_diff`, `predecode_diff`) compare those
//! consumers with each other, so a change to the shared body moves them
//! all together and passes unseen. Here any change to issue pairing,
//! operand stalls or retire timing shows up as a moved number.

use cabt::prelude::{
    Backend, DetailLevel, Limit, Platform, PlatformConfig, ShardSchedule, SimBuilder, StopCause,
    Translator,
};
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

/// Per golden-shard run: workload, core count and shard backend, then
/// the session's `ShardedStats` bus transactions and epochs, aggregate
/// retired instructions and cycles, and the merged UART length.
type ShardPin = (&'static str, u16, &'static str, [u64; 5]);

const SHARD_PINS: [ShardPin; 6] = [
    ("mailbox", 2, "golden", [2042, 2, 4124, 4126, 0]),
    ("mailbox", 2, "golden:trace", [2058, 2, 4156, 4158, 0]),
    ("mailbox", 64, "golden", [69312, 2, 159744, 4684, 0]),
    ("mailbox", 64, "golden:trace", [69696, 2, 160512, 4708, 0]),
    ("producer_consumer", 4, "golden", [3321, 2, 7256, 4501, 4]),
    (
        "producer_consumer",
        4,
        "golden:trace",
        [3333, 2, 7280, 4517, 4],
    ),
];

/// The golden shards' SoC-bus traffic, pinned under both schedules.
/// `parallel_determinism` compares the schedules only with each other,
/// so a change that moves both alike (a double-counted transaction, a
/// shifted barrier) passes there and shows up here as a moved number.
#[test]
fn golden_shard_bus_traffic_matches_the_pinned_literals() {
    for (name, cores, base, want) in SHARD_PINS {
        let w = match name {
            "mailbox" => cabt_workloads::mailbox(u32::from(cores)),
            _ => cabt_workloads::by_name(name).expect("registry program"),
        };
        let base: Backend = base.parse().expect("descriptor");
        for schedule in [ShardSchedule::Sequential, ShardSchedule::Pooled(2)] {
            let mut s = SimBuilder::workload(&w)
                .backend(Backend::sharded_with_schedule(cores, base, schedule))
                .build()
                .expect("builds");
            let stop = s.run(Limit::Cycles(50_000_000)).expect("runs");
            assert_eq!(stop, StopCause::Halted, "{name} {cores}x{base}");
            let st = s.sharded_stats().expect("sharded");
            let got = [
                st.bus_transactions,
                st.epochs,
                st.aggregate.retired,
                st.aggregate.cycles,
                st.uart.len() as u64,
            ];
            assert_eq!(got, want, "{name} {cores}x{base} {schedule:?}");
        }
    }
}

/// Per single-core registry program: the trace tier's `traces`,
/// `trace_blocks` and `trace_retired` after a run to halt under the
/// default `TraceConfig`, on `golden:trace` and on
/// `translated:cache:trace`.
type TracePin = (&'static str, [u64; 3], [u64; 3]);

const TRACE_PINS: [TracePin; 7] = [
    ("gcd", [2, 7, 921], [4, 13, 24955]),
    ("dpcm", [3, 13, 5484], [5, 18, 57510]),
    ("fir", [3, 6, 20208], [4, 14, 178103]),
    ("ellip", [1, 1, 3363], [2, 12, 19889]),
    ("sieve", [5, 12, 8007], [6, 28, 107129]),
    ("subband", [1, 1, 2622], [2, 10, 14906]),
    ("fibonacci", [3, 6, 40707], [4, 13, 287596]),
];

/// Trace formation is invisible to the architecture, so the
/// bit-identity suites cannot see which traces form or how long they
/// grow; a change to the selection rule or its length cap shows up
/// here as a moved number.
#[test]
fn trace_formation_matches_the_pinned_literals() {
    for (name, golden, translated) in TRACE_PINS {
        let w = cabt_workloads::by_name(name).expect("registry program");
        for (backend, want) in [
            (Backend::golden_trace(), golden),
            (Backend::translated_trace(DetailLevel::Cache), translated),
        ] {
            let mut s = SimBuilder::workload(&w)
                .backend(backend)
                .build()
                .expect("builds");
            let stop = s.run(Limit::Cycles(u64::MAX)).expect("runs");
            assert_eq!(stop, StopCause::Halted, "{name} {backend}");
            let t = s.trace_stats().expect("trace tier active");
            let got = [t.traces, t.trace_blocks, t.trace_retired];
            assert_eq!(got, want, "{name} {backend}: trace formation");
        }
    }
}
