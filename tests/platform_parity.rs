//! Functional parity between the two worlds: the *same* SoC peripherals
//! driven by the same source program must observe the same I/O traffic
//! whether the program runs on the golden model or as a translated image
//! on the prototyping platform.

use cabt::prelude::*;
use cabt_platform::bus::{GoldenBridge, ScratchRam, SharedSocBus, SocBus, Uart};
use cabt_platform::default_soc_bus;

const DRIVER: &str = "
    .text
_start:
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100      # uart
    movh.a %a4, 0xf000
    lea    %a4, [%a4]0x200      # scratch ram

    # Write a pattern to the scratch RAM, read it back, send it out.
    mov    %d1, 65              # 'A'
    mov    %d3, 4
loop:
    st.w   [%a4]0, %d1
    ld.w   %d2, [%a4]0
    st.w   [%a3]0, %d2          # transmit
    addi   %d1, %d1, 1
    addi   %d3, %d3, -1
    jnz    %d3, loop
    debug
";

fn golden_uart_bytes() -> Vec<u8> {
    let elf = assemble(DRIVER).expect("assembles");
    let bus = SharedSocBus::new(SocBus::new());
    bus.attach(Box::new(Uart::new(0xf000_0100)));
    bus.attach(Box::new(ScratchRam::new(0xf000_0200, 0x100)));
    let mut sim = Simulator::new(&elf).expect("loads");
    sim.set_io_device(Box::new(GoldenBridge::new(bus.clone())));
    sim.run(100_000).expect("halts");
    bus.uart_log().into_iter().map(|(_, b)| b).collect()
}

fn platform_uart_bytes(level: DetailLevel) -> Vec<u8> {
    let elf = assemble(DRIVER).expect("assembles");
    let t = Translator::new(level).translate(&elf).expect("translates");
    let bus = SharedSocBus::new(SocBus::new());
    bus.attach(Box::new(Uart::new(0xf000_0100)));
    bus.attach(Box::new(ScratchRam::new(0xf000_0200, 0x100)));
    let program = t.program().expect("builds");
    let mut p = Platform::instantiate(program, PlatformConfig::default(), Some(bus));
    let stats = p.run(10_000_000).expect("halts");
    stats.uart.into_iter().map(|(_, b)| b).collect()
}

#[test]
fn golden_and_platform_see_identical_uart_traffic() {
    let gold = golden_uart_bytes();
    assert_eq!(gold, b"ABCD");
    for level in DetailLevel::ALL {
        assert_eq!(
            platform_uart_bytes(level),
            gold,
            "level {level}: I/O traffic diverged from the golden model"
        );
    }
}

#[test]
fn io_ordering_is_preserved_under_sync_stalls() {
    // With the real 25/6 generation ratio, wait reads stall the target;
    // the I/O byte order must be unaffected.
    let a = platform_uart_bytes(DetailLevel::Cache);
    assert_eq!(a, b"ABCD");
}

#[test]
fn uart_timestamps_are_in_generated_time() {
    let elf = assemble(DRIVER).expect("assembles");
    let t = Translator::new(DetailLevel::Static)
        .translate(&elf)
        .expect("translates");
    let bus = SharedSocBus::new(SocBus::new());
    bus.attach(Box::new(Uart::new(0xf000_0100)));
    bus.attach(Box::new(ScratchRam::new(0xf000_0200, 0x100)));
    let program = t.program().expect("builds");
    let mut p = Platform::instantiate(program, PlatformConfig::default(), Some(bus));
    let stats = p.run(10_000_000).expect("halts");
    // Timestamps are nondecreasing SoC cycles, bounded by the total.
    let times: Vec<u64> = stats.uart.iter().map(|&(t, _)| t).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(*times.last().expect("bytes sent") <= stats.total_generated());
    // Later loop iterations transmit at strictly later generated times.
    assert!(times[0] < times[3]);
}

/// A golden engine holds its bus for a whole run slice. A slice that
/// faults must still release it: the handle works right after the
/// `Err`, on every golden dispatch core.
#[test]
fn a_faulting_golden_run_releases_its_bus() {
    const FAULT: &str = "
        .text
    _start:
        movh.a %a3, 0xf000
        lea    %a3, [%a3]0x100      # uart
        mov    %d1, 90              # 'Z'
        st.w   [%a3]0, %d1
        movh.a %a4, 0x1234
        ji     %a4                  # outside the program
    ";
    for backend in [Backend::golden(), Backend::golden_trace()] {
        let bus = SharedSocBus::new(default_soc_bus());
        let mut s = SimBuilder::asm(FAULT)
            .backend(backend)
            .soc_bus(bus.clone())
            .build()
            .unwrap();
        assert!(
            matches!(
                s.run(Limit::Cycles(1_000_000)),
                Err(SessionError::Golden(_))
            ),
            "{backend}"
        );
        assert_eq!(bus.transactions(), 1, "{backend}");
        let bytes: Vec<u8> = bus.uart_log().into_iter().map(|(_, b)| b).collect();
        assert_eq!(bytes, b"Z", "{backend}");
    }
}

/// A golden run holds its bus lock for one slice, never across
/// slices: the session's own bus handle reads between `run_until`
/// slices, and the handle works after the run.
#[test]
fn a_golden_session_hands_its_bus_back_between_run_slices() {
    let bus = SharedSocBus::new(default_soc_bus());
    let mut s = SimBuilder::asm(DRIVER)
        .soc_bus(bus.clone())
        .build()
        .unwrap();
    let mut seen = Vec::new();
    while s.run_until(Limit::Cycles(s.cycle() + 8)).unwrap() == StopCause::LimitReached {
        seen.push(bus.uart_log().len());
    }
    assert!(seen.len() > 1, "the run spans several slices: {seen:?}");
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    let bytes: Vec<u8> = bus.uart_log().into_iter().map(|(_, b)| b).collect();
    assert_eq!(bytes, b"ABCD");
}
