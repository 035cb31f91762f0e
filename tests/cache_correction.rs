//! The instruction-cache simulation (Fig. 4): the generated target code
//! must maintain tag/valid/LRU state that reproduces the golden model's
//! cache behaviour exactly, and the correction cycles it generates must
//! equal the golden model's miss penalties (plus branch corrections).

use cabt::prelude::*;

fn golden_stats(w: &Workload) -> cabt_tricore::sim::RunStats {
    let mut sim = Simulator::new(&w.elf().unwrap()).unwrap();
    let stats = sim.run(500_000_000).unwrap();
    assert_eq!(sim.cpu.d(2), w.expected_d2);
    stats
}

fn cache_run(w: &Workload) -> cabt_platform::PlatformStats {
    let t = Translator::new(DetailLevel::Cache)
        .translate(&w.elf().unwrap())
        .unwrap();
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).unwrap();
    p.run(5_000_000_000).unwrap()
}

/// Golden-model cache-miss penalties: the lower bound on what the
/// translated correction counter must have generated (branch extras on
/// top are workload-dependent).
fn golden_miss_penalties(stats: &cabt_tricore::sim::RunStats) -> u64 {
    stats.icache_misses * cabt_tricore::arch::CacheConfig::default().miss_penalty as u64
}

#[test]
fn corrected_cycles_cover_golden_miss_penalties() {
    for w in [cabt::workloads::gcd(8, 5), cabt::workloads::fir(8, 64, 5)] {
        let g = golden_stats(&w);
        let s = cache_run(&w);
        let miss_penalties = golden_miss_penalties(&g);
        assert!(
            s.corrected_cycles >= miss_penalties,
            "{}: corrections {} below golden miss penalties {}",
            w.name,
            s.corrected_cycles,
            miss_penalties
        );
        // And the total must land within a few percent of the measured count.
        let dev = (s.total_generated() as f64 - g.cycles as f64).abs() / g.cycles as f64;
        assert!(dev < 0.05, "{}: cache-level deviation {dev:.3}", w.name);
    }
}

#[test]
fn cache_simulation_tracks_golden_misses_under_thrashing() {
    // With a cache smaller than the loop body, every iteration thrashes;
    // the generated cache state must replay the golden hit/miss pattern,
    // keeping the totals within the cross-block pipeline slack.
    use cabt_tricore::arch::{ArchDesc, CacheConfig};
    let arch = ArchDesc {
        cache: CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 8,
        },
        ..ArchDesc::default()
    };
    let w = cabt::workloads::ellip(24, 8);
    let elf = w.elf().unwrap();
    let mut gold = Simulator::with_arch(&elf, arch.clone()).unwrap();
    let g = gold.run(500_000_000).unwrap();
    assert!(
        g.icache_misses > 100,
        "the tiny cache must thrash: {}",
        g.icache_misses
    );
    let t = Translator::new(DetailLevel::Cache)
        .with_arch(arch)
        .translate(&elf)
        .unwrap();
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).unwrap();
    let s = p.run(5_000_000_000).unwrap();
    assert_eq!(
        p.sim()
            .reg(cabt_core::regbind::dreg(cabt_tricore::isa::DReg(2))),
        w.expected_d2
    );
    let dev = (s.total_generated() as f64 - g.cycles as f64).abs() / g.cycles as f64;
    assert!(dev < 0.03, "thrashing deviation {dev:.4}");
}

#[test]
fn bigger_cache_means_fewer_corrections() {
    use cabt_tricore::arch::{ArchDesc, CacheConfig};
    let w = cabt::workloads::sieve(150);
    let small = ArchDesc {
        cache: CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 16,
            miss_penalty: 8,
        },
        ..ArchDesc::default()
    };
    let big = ArchDesc {
        cache: CacheConfig {
            sets: 64,
            ways: 2,
            line_bytes: 32,
            miss_penalty: 8,
        },
        ..ArchDesc::default()
    };
    let run = |arch: &ArchDesc| {
        let t = Translator::new(DetailLevel::Cache)
            .with_arch(arch.clone())
            .translate(&w.elf().unwrap())
            .unwrap();
        let mut p = Platform::new(&t, PlatformConfig::unlimited()).unwrap();
        p.run(5_000_000_000).unwrap().corrected_cycles
    };
    assert!(
        run(&small) > run(&big),
        "a small cache must produce more correction cycles"
    );
}

#[test]
fn four_way_cache_is_rejected() {
    use cabt_tricore::arch::{ArchDesc, CacheConfig};
    let arch = ArchDesc {
        cache: CacheConfig {
            sets: 8,
            ways: 4,
            line_bytes: 32,
            miss_penalty: 8,
        },
        ..ArchDesc::default()
    };
    let e = Translator::new(DetailLevel::Cache)
        .with_arch(arch)
        .translate(&cabt::workloads::gcd(2, 1).elf().unwrap())
        .unwrap_err();
    assert!(matches!(
        e,
        cabt_core::TranslateError::UnsupportedCache { ways: 4 }
    ));
}

#[test]
fn direct_mapped_cache_works_end_to_end() {
    use cabt_tricore::arch::{ArchDesc, CacheConfig};
    let w = cabt::workloads::gcd(6, 2);
    let arch = ArchDesc {
        cache: CacheConfig {
            sets: 16,
            ways: 1,
            line_bytes: 32,
            miss_penalty: 8,
        },
        ..ArchDesc::default()
    };
    let elf = w.elf().unwrap();
    let mut gold = Simulator::with_arch(&elf, arch.clone()).unwrap();
    let gstats = gold.run(100_000_000).unwrap();
    let t = Translator::new(DetailLevel::Cache)
        .with_arch(arch)
        .translate(&elf)
        .unwrap();
    let mut p = Platform::new(&t, PlatformConfig::unlimited()).unwrap();
    let s = p.run(5_000_000_000).unwrap();
    assert_eq!(gold.cpu.d(2), w.expected_d2);
    let dev = (s.total_generated() as f64 - gstats.cycles as f64).abs() / gstats.cycles as f64;
    assert!(dev < 0.05, "direct-mapped deviation {dev:.4}");
}
