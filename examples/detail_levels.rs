//! Sweeps the translator's detail levels over the paper's benchmark
//! suite and prints the speed/accuracy trade-off of §3.2 — the paper's
//! central knob. Every run — golden reference included — goes through a
//! `cabt-sim` session; the detail level *and the dispatch core* are
//! just parts of the [`Backend`] value, so the trace dispatch cores
//! ride the same loop (their generated cycle counts are bit-identical
//! to the pre-decoded rows — dispatch is a host-speed knob, not an
//! accuracy one).
//!
//! ```sh
//! cargo run --release --example detail_levels
//! ```

use cabt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:<34} {:>14} {:>14} {:>10}",
        "program", "backend", "cycles", "generated", "deviation"
    );
    for w in cabt::workloads::fig5_set() {
        // The board reference itself runs on the trace tier: the
        // fastest bit-identical vehicle for the measured cycle count.
        let mut board = SimBuilder::workload(&w)
            .backend(Backend::golden_trace())
            .build()?;
        board.run(Limit::Retirements(500_000_000))?;
        assert_eq!(board.read_d(2), w.expected_d2);
        let measured = board.stats().cycles;

        for level in DetailLevel::ALL {
            for backend in [Backend::translated(level), Backend::translated_trace(level)] {
                let mut session = SimBuilder::workload(&w).backend(backend).build()?;
                session.run(Limit::Cycles(5_000_000_000))?;
                assert_eq!(session.read_d(2), w.expected_d2);
                let stats = session.platform_stats().expect("translated session");
                let dev = if level.generates_cycles() {
                    format!(
                        "{:>8.2}%",
                        (stats.total_generated() as f64 - measured as f64).abs() / measured as f64
                            * 100.0
                    )
                } else {
                    "      --".to_string()
                };
                println!(
                    "{:<10} {:<34} {:>14} {:>14} {:>10}",
                    w.name,
                    session.backend().to_string(),
                    stats.target_cycles,
                    stats.total_generated(),
                    dev
                );
            }
        }
        println!(
            "{:<10} (measured on the golden model: {measured} cycles)",
            w.name
        );
        println!();
    }
    Ok(())
}
