//! Regenerates Table 2: software runtime comparison — RT-level
//! simulation (wall clock), FPGA emulation at 8 MHz (derived), and
//! translated execution at 200 MHz per detail level.

fn main() {
    let rows = cabt_bench::table2(&cabt_workloads::table2_set());
    println!("Table 2 — Software runtime comparison");
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "", rows[0].name, rows[1].name, rows[2].name
    );
    let row = |label: &str, f: &dyn Fn(&cabt_bench::Table2Row) -> String| {
        println!(
            "{:<24} {:>14} {:>14} {:>14}",
            label,
            f(&rows[0]),
            f(&rows[1]),
            f(&rows[2])
        );
    };
    row("# executed instructions", &|r| r.instructions.to_string());
    row("Simulation (this host)", &|r| human_time(r.rtl_seconds));
    row("Emulation (FPGA, 8MHz)", &|r| human_time(r.fpga_seconds));
    row("Translation C6x cycle", &|r| {
        human_time(r.translation_seconds[0])
    });
    row("Translation C6x branch", &|r| {
        human_time(r.translation_seconds[1])
    });
    row("Translation C6x cache", &|r| {
        human_time(r.translation_seconds[2])
    });
}

/// Formats seconds the way the paper's Table 2 does (µs/ms/s).
fn human_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.2} s")
    }
}
