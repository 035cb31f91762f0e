//! The paper's motivating scenario: hardware-near software (a device
//! driver) whose bus accesses must be cycle accurate.
//!
//! A driver polls a timer on the SoC bus, then writes a message to a
//! UART. Both peripherals are clocked by the *generated* cycles of the
//! synchronization device, so the UART's byte timestamps are in emulated
//! source-processor time — the property that lets this platform validate
//! bus handshakes. The session is built with the paper's 200/48 MHz
//! clock ratio and runs in 512-cycle slices, tracing generation
//! progress between them.
//!
//! ```sh
//! cargo run --release --example soc_peripheral
//! ```

use cabt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Timer at 0xf0000000 (count/compare/status/reset), UART at 0xf0000100.
    let src = r#"
        .text
    _start:
        movh.a %a2, 0xf000          # timer base
        movh.a %a3, 0xf000
        lea    %a3, [%a3]0x100      # uart base

        # Program the timer: fire after 120 generated cycles.
        mov    %d1, 120
        st.w   [%a2]4, %d1          # compare
        mov    %d1, 0
        st.w   [%a2]12, %d1         # reset epoch

    poll:
        ld.w   %d1, [%a2]8          # status
        jz     %d1, poll            # spin until the timer fires

        # Send "OK" over the UART.
        mov    %d1, 79              # 'O'
        st.w   [%a3]0, %d1
        mov    %d1, 75              # 'K'
        st.w   [%a3]0, %d1
        debug
    "#;

    let mut session = SimBuilder::asm(src)
        .backend(Backend::translated(DetailLevel::BranchPredict))
        // The paper's clock ratio: the 200 MHz target is throttled to
        // the 48 MHz generation rate, so wait reads really stall.
        .platform(PlatformConfig::default())
        .build()?;

    let image = session.translated().expect("translated session");
    println!(
        "translated {} source instructions, {} I/O accesses found statically",
        image.stats.source_instructions, image.stats.io_accesses
    );

    while session.run(Limit::Cycles(session.cycle() + 512))? == StopCause::LimitReached {
        let s = session.stats();
        println!(
            "  slice at target cycle {:>5}: {} packets retired, {} stalled",
            s.cycles, s.retired, s.stall_cycles
        );
        assert!(s.cycles < 10_000_000, "the driver never finished");
    }
    let stats = session.platform_stats().expect("translated session");

    let bytes: Vec<u8> = stats.uart.iter().map(|&(_, b)| b).collect();
    println!("uart received {:?}", String::from_utf8_lossy(&bytes));
    for (cycle, byte) in &stats.uart {
        println!("  byte {:?} at SoC cycle {cycle}", *byte as char);
    }
    println!("generated {} SoC cycles total", stats.total_generated());
    assert_eq!(bytes, b"OK");
    assert!(
        stats.uart[0].0 >= 120,
        "the driver cannot have written before the timer fired"
    );
    println!("driver timing validated: first byte after the 120-cycle deadline");
    Ok(())
}
