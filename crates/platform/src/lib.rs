//! The rapid-prototyping platform model: synchronization device, SoC
//! bus, peripherals, and the co-execution harness.
//!
//! The paper's platform consists of the C6x VLIW processor and FPGAs
//! holding (a) the **synchronization device** that generates the source
//! processor's clock cycles for the attached hardware in parallel with
//! the translated program, and (b) the **bus interface** adapting the
//! C6x bus to the SoC bus of the emulated core. This crate models both:
//!
//! * [`sync::SyncDevice`] — the memory-mapped start/wait registers of
//!   Fig. 2/3. A write of `n` starts generation of `n` SoC-bus cycles at
//!   the configured clock ratio; a read of the wait register stalls the
//!   VLIW core until generation completes. Correction cycles (§3.4) use
//!   a second register pair and the same generation queue.
//! * [`bus`] — a word-level SoC bus with ready/handshake cost and
//!   peripherals (timer, UART, scratch RAM) clocked by the *generated*
//!   cycle count, exactly the property the paper needs for validating
//!   cycle-accurate device drivers.
//! * [`Platform`] — wires a [`cabt_core::Translated`] program, the VLIW
//!   simulator, the synchronization device and the SoC bus together and
//!   runs them to completion.
//!
//! # Example
//!
//! ```
//! use cabt_core::{DetailLevel, Translator};
//! use cabt_platform::{Platform, PlatformConfig};
//! use cabt_tricore::asm::assemble;
//!
//! let elf = assemble(".text\n_start: mov %d2, 5\n add %d2, %d2\n debug\n")?;
//! let t = Translator::new(DetailLevel::Static).translate(&elf)?;
//! let mut platform = Platform::new(&t, PlatformConfig::default())?;
//! let stats = platform.run(1_000_000)?;
//! assert!(stats.generated_cycles > 0, "the program clocked the SoC hardware");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bus;
pub mod sync;

use cabt_core::translate::SYNC_DEVICE_BASE;
use cabt_core::Translated;
use cabt_exec::ExecutionEngine;
use cabt_isa::codec::{ByteReader, CodecError};
use cabt_vliw::sim::{TargetBus, VliwError, VliwProgram, VliwSim};
use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

pub use bus::{
    CoreLink, GoldenBridge, ScratchRam, ShardArbiter, SharedSocBus, SocBus, SocBusState,
    SocPeripheral, Timer, Uart, CORE_LINK_WINDOW,
};
pub use sync::{SyncDevice, SyncRate};

/// Start of the I/O window routed onto the SoC bus (identity-mapped from
/// the source processor's I/O region).
pub const IO_BASE: u32 = 0xf000_0000;
/// End (exclusive) of the I/O window.
pub const IO_END: u32 = 0xf010_0000;
/// Base of the per-shard [`CoreLink`] doorbell window (core-id register,
/// send doorbells, inboxes — see the device's register map).
pub const CORE_LINK_BASE: u32 = IO_BASE + 0x2000;

/// Clock and handshake configuration of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformConfig {
    /// VLIW target clock (the C6x ran at 200 MHz).
    pub target_hz: u64,
    /// Generated SoC clock (the TriCore board ran at 48 MHz).
    pub soc_hz: u64,
    /// Generation rate of the synchronization device.
    pub rate: SyncRate,
    /// SoC-bus handshake cost per I/O transaction, in SoC cycles.
    pub bus_handshake: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            target_hz: 200_000_000,
            soc_hz: 48_000_000,
            // 200 MHz / 48 MHz = 25/6 target cycles per generated cycle.
            rate: SyncRate::Ratio { num: 25, den: 6 },
            bus_handshake: 2,
        }
    }
}

impl PlatformConfig {
    /// A configuration whose synchronization device generates cycles
    /// instantly (wait never stalls) — used to measure pure translated
    /// code speed, as in Table 1.
    pub fn unlimited() -> Self {
        PlatformConfig {
            rate: SyncRate::Unlimited,
            ..Self::default()
        }
    }

    /// Converts SoC cycles to target cycles at the configured ratio
    /// (rounding up).
    pub fn soc_to_target(&self, soc: u64) -> u64 {
        match self.rate {
            SyncRate::Unlimited => 0,
            SyncRate::Ratio { num, den } => (soc * num as u64).div_ceil(den as u64),
        }
    }

    /// Target cycles per generation epoch: sharded translated sessions
    /// use it as their default barrier cadence. One epoch covers
    /// [`SYNC_EPOCH_SOC_CYCLES`] generated SoC cycles at the configured
    /// ratio; with an unlimited rate there is nothing to pace, so the
    /// epoch is unbounded.
    pub fn epoch_target_cycles(&self) -> u64 {
        match self.rate {
            SyncRate::Unlimited => u64::MAX,
            SyncRate::Ratio { .. } => self.soc_to_target(SYNC_EPOCH_SOC_CYCLES).max(1),
        }
    }
}

/// Generated SoC cycles covered by one platform epoch (see
/// [`PlatformConfig::epoch_target_cycles`]).
pub const SYNC_EPOCH_SOC_CYCLES: u64 = 4096;

/// Results of a platform run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlatformStats {
    /// VLIW target cycles consumed, including synchronization stalls.
    pub target_cycles: u64,
    /// SoC cycles generated from static block predictions.
    pub generated_cycles: u64,
    /// SoC cycles generated by dynamic correction (§3.4).
    pub corrected_cycles: u64,
    /// Target cycles spent stalled in wait reads.
    pub sync_stall_cycles: u64,
    /// Target instruction slots executed.
    pub slots: u64,
    /// Bytes written to the UART, with their SoC-cycle timestamps.
    pub uart: Vec<(u64, u8)>,
}

impl PlatformStats {
    /// Total SoC cycles generated (static plus corrections) — the
    /// "number of simulated cycles" axis of Fig. 6.
    pub fn total_generated(&self) -> u64 {
        self.generated_cycles + self.corrected_cycles
    }
}

/// The synchronization device's register window.
const SYNC_WINDOW: Range<u32> = SYNC_DEVICE_BASE..SYNC_DEVICE_BASE + 16;

/// The platform's device bus, owned by the engine: the core's own
/// synchronization device — each core paces its own cycle generation —
/// plus a [`SharedSocBus`] handle, so the *same* device population can
/// also be shared with other vehicles (e.g. the golden model via
/// [`bus::GoldenBridge`]); shards of a multi-core session instead get
/// *private* bus clones reconciled by the [`ShardArbiter`] at epoch
/// barriers. [`Platform`] reaches it through the engine.
struct PlatformBus {
    sync: SyncDevice,
    soc: SharedSocBus,
    cfg: PlatformConfig,
}

impl TargetBus for PlatformBus {
    fn windows(&self) -> Vec<Range<u32>> {
        vec![SYNC_WINDOW, IO_BASE..IO_END]
    }

    fn bus_read(&mut self, cycle: u64, addr: u32, size: u32) -> (u32, u64) {
        if SYNC_WINDOW.contains(&addr) {
            return match addr - SYNC_DEVICE_BASE {
                4 => (0, self.sync.wait(cycle)),
                12 => (0, self.sync.wait_correction(cycle)),
                _ => (0, 0),
            };
        }
        // SoC-bus transaction: the handshake takes generated-clock cycles.
        let v = self.soc.read(self.sync.soc_time(), addr, size);
        (v, self.cfg.soc_to_target(self.cfg.bus_handshake as u64))
    }

    fn bus_write(&mut self, cycle: u64, addr: u32, size: u32, value: u32) -> u64 {
        if SYNC_WINDOW.contains(&addr) {
            match addr - SYNC_DEVICE_BASE {
                0 => self.sync.start(cycle, value),
                8 => self.sync.start_correction(cycle, value),
                _ => {}
            }
            return 0;
        }
        self.soc.write(self.sync.soc_time(), addr, size, value);
        self.cfg.soc_to_target(self.cfg.bus_handshake as u64)
    }
}

/// Errors from platform runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The VLIW simulator faulted.
    Vliw(VliwError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Vliw(e) => write!(f, "target execution failed: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<VliwError> for PlatformError {
    fn from(e: VliwError) -> Self {
        PlatformError::Vliw(e)
    }
}

/// The default SoC device population: timer at `0xf000_0000`, UART at
/// `0xf000_0100`, a 1 KiB scratch RAM (shared mailbox) at
/// `0xf000_0200`, and the [`CoreLink`] doorbell endpoint at
/// [`CORE_LINK_BASE`]. Single-core sessions get the core-0 endpoint of
/// a one-core fabric; sharded sessions build per-shard populations with
/// [`shard_soc_bus`] instead.
pub fn default_soc_bus() -> SocBus {
    shard_soc_bus(0, 1)
}

/// The device population of shard `core_id` in a fabric of `ncores`:
/// identical to [`default_soc_bus`] except for the [`CoreLink`]
/// endpoint, which carries the shard's identity.
pub fn shard_soc_bus(core_id: u32, ncores: u32) -> SocBus {
    let mut soc = SocBus::new();
    soc.attach(Box::new(Timer::new(IO_BASE)));
    soc.attach(Box::new(Uart::new(IO_BASE + 0x100)));
    soc.attach(Box::new(ScratchRam::new(IO_BASE + 0x200, 0x400)));
    soc.attach(Box::new(CoreLink::new(CORE_LINK_BASE, core_id, ncores)));
    soc
}

/// The [`ShardArbiter`] mirror population for a fabric of `ncores`:
/// the same devices as [`shard_soc_bus`], with a mirror [`CoreLink`]
/// that observes the doorbell exchange without being a deliverable
/// endpoint.
pub fn mirror_soc_bus(ncores: u32) -> SocBus {
    let mut soc = SocBus::new();
    soc.attach(Box::new(Timer::new(IO_BASE)));
    soc.attach(Box::new(Uart::new(IO_BASE + 0x100)));
    soc.attach(Box::new(ScratchRam::new(IO_BASE + 0x200, 0x400)));
    soc.attach(Box::new(CoreLink::mirror(CORE_LINK_BASE, ncores)));
    soc
}

/// The assembled rapid-prototyping platform.
///
/// The engine owns the device bus; the platform's device accessors
/// ([`Platform::stats`], [`Platform::save_state`],
/// [`Platform::soc_bus`], …) read it back through
/// [`VliwSim::bus`]. If a caller replaces the bus through
/// [`Platform::engine`], those accessors see no platform devices: they
/// report zero device counters, return `None` and ignore restores —
/// they never panic.
pub struct Platform {
    sim: VliwSim,
    cfg: PlatformConfig,
    /// Device state of the bus as built, when the platform owns its bus
    /// — what [`Platform::reset`] returns it to. `None` for a bus owned
    /// by the caller ([`Platform::instantiate`]).
    built_devices: Option<SocBusState>,
}

impl fmt::Debug for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Platform")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Builds the platform around a translated program with the default
    /// peripherals (see [`default_soc_bus`]).
    ///
    /// # Errors
    ///
    /// Propagates program construction failures.
    pub fn new(translated: &Translated, cfg: PlatformConfig) -> Result<Self, PlatformError> {
        Ok(Self::instantiate(translated.program()?, cfg, None))
    }

    /// A platform around an instance of an already built `program`
    /// ([`Translated::program`]) — how sessions and shards build theirs,
    /// every engine over one image sharing its program. It routes its
    /// I/O window into `bus`, owned by the caller and possibly shared
    /// with other cores, or, without one, into a default device
    /// population of its own ([`default_soc_bus`]). Each platform keeps
    /// its own synchronization device.
    pub fn instantiate(
        program: Arc<VliwProgram>,
        cfg: PlatformConfig,
        bus: Option<SharedSocBus>,
    ) -> Self {
        let owned = bus.is_none();
        let soc = bus.unwrap_or_else(|| SharedSocBus::new(default_soc_bus()));
        let built_devices = owned.then(|| soc.save_state());
        let mut sim = VliwSim::instantiate(program);
        sim.set_bus(Box::new(PlatformBus {
            sync: SyncDevice::new(cfg.rate),
            soc,
            cfg,
        }));
        Platform {
            sim,
            cfg,
            built_devices,
        }
    }

    /// Resets the platform in place to a fresh run: the engine (at its
    /// program's entry and load image, dispatch kept), a fresh
    /// synchronization device, and — when the platform owns its bus —
    /// the devices in their built state. A bus owned by someone
    /// else keeps its state; its owner resets it.
    pub fn reset(&mut self) {
        self.sim.reset();
        let sync = SyncDevice::new(self.cfg.rate);
        if let Some(bus) = self.bus_mut() {
            bus.sync = sync;
        }
        if let (Some(image), Some(soc)) = (&self.built_devices, self.soc_bus()) {
            soc.restore_state(image)
                .expect("a bus's own image restores into it");
        }
    }

    /// The platform's device bus, unless the engine's bus was replaced.
    fn bus(&self) -> Option<&PlatformBus> {
        let bus: &dyn Any = self.sim.bus()?;
        bus.downcast_ref()
    }

    /// Mutable twin of [`Platform::bus`].
    fn bus_mut(&mut self) -> Option<&mut PlatformBus> {
        let bus: &mut dyn Any = self.sim.bus_mut()?;
        bus.downcast_mut()
    }

    /// Runs the translated program to completion within `max_cycles`
    /// target cycles.
    ///
    /// The engine runs as one [`VliwSim::run`]: the synchronization
    /// device and the peripherals are clocked lazily, on access, by the
    /// device's generated-cycle count, so nothing needs to happen
    /// between packets. A halt exactly on the budget is a completed
    /// run, not an exhausted one.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] on target faults or cycle-limit
    /// exhaustion ([`VliwError::CycleLimit`]).
    pub fn run(&mut self, max_cycles: u64) -> Result<PlatformStats, PlatformError> {
        self.sim.run(max_cycles)?;
        Ok(self.stats())
    }

    /// Snapshot of the run counters so far (engine + platform devices) —
    /// readable at any point, not just after [`Platform::run`], so
    /// session drivers that step the engine themselves can still
    /// report generated-cycle statistics.
    pub fn stats(&self) -> PlatformStats {
        let vstats = self.sim.stats();
        let mut stats = PlatformStats {
            target_cycles: vstats.cycles,
            slots: vstats.slots,
            ..PlatformStats::default()
        };
        if let Some(bus) = self.bus() {
            stats.generated_cycles = bus.sync.generated();
            stats.corrected_cycles = bus.sync.corrected();
            stats.sync_stall_cycles = bus.sync.stall_cycles();
            stats.uart = bus.soc.uart_log();
        }
        stats
    }

    /// Access to the target simulator (architectural state inspection).
    pub fn sim(&self) -> &VliwSim {
        &self.sim
    }

    /// Mutable access to the execution engine behind the platform.
    ///
    /// Note that [`cabt_exec::ExecutionEngine::reset`] resets the *engine* only:
    /// the synchronization device and SoC peripherals behind the bus
    /// keep their state (generated-cycle counters, UART log). For a
    /// reproducible platform rerun, call [`Platform::reset`], which
    /// resets them too.
    pub fn engine(&mut self) -> &mut VliwSim {
        &mut self.sim
    }

    /// Selects the VLIW dispatch core (the compiled tier by default: one
    /// packet per step). The naive core is the reference the compiled
    /// packets are diffed against, and the dispatch benchmarks'
    /// baseline.
    pub fn set_dispatch(&mut self, mode: cabt_vliw::sim::VliwDispatch) {
        self.sim.set_dispatch(mode);
    }

    /// Always `None`: the VLIW core forms no traces. It stays because
    /// the repository benchmark (`perfbench/`), its one caller, reads
    /// it; the benchmark's next revision (ROADMAP item 1) retires it.
    pub fn trace_stats(&self) -> Option<cabt_exec::trace::TraceStats> {
        None
    }

    /// Appends the platform's state image: the engine's
    /// ([`ExecutionEngine::save_state`]), then the synchronization
    /// device's, whose generation queue is keyed to the target clock —
    /// rewinding the engine without it would turn later wait reads into
    /// phantom stalls. The SoC devices behind [`Platform::soc_bus`] are
    /// not in it ([`SharedSocBus::save_state`]). A platform whose bus was
    /// replaced saves a fresh device's image.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.sim.save_state(out);
        match self.bus() {
            Some(bus) => bus.sync.encode_into(out),
            None => SyncDevice::new(self.cfg.rate).encode_into(out),
        }
    }

    /// Decodes a [`Platform::save_state`] image, checks it and restores
    /// the engine and the synchronization device from it.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] for truncated or corrupt bytes, or an engine
    /// image that does not fit ([`ExecutionEngine::load_state`]). The
    /// engine is left as it was on an engine error; on a device error
    /// it holds the new image while the device keeps its state.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.sim.load_state(r)?;
        let sync = SyncDevice::decode(r)?;
        if let Some(bus) = self.bus_mut() {
            bus.sync = sync;
        }
        Ok(())
    }

    /// A clone of the handle to this platform's SoC bus. With
    /// [`Platform::instantiate`] this is the *same* bus other cores
    /// were built around.
    pub fn soc_bus(&self) -> Option<SharedSocBus> {
        self.bus().map(|b| b.soc.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_core::regbind::dreg;
    use cabt_core::{DetailLevel, Translator};
    use cabt_tricore::asm::assemble;
    use cabt_tricore::isa::DReg;

    const SUM_SRC: &str = "
        .text
    _start:
        mov %d0, 10
        mov %d2, 0
    top:
        add %d2, %d0
        addi %d0, %d0, -1
        jnz %d0, top
        debug
    ";

    fn run_level(level: DetailLevel, cfg: PlatformConfig) -> (PlatformStats, u32) {
        let elf = assemble(SUM_SRC).unwrap();
        let t = Translator::new(level).translate(&elf).unwrap();
        let mut p = Platform::new(&t, cfg).unwrap();
        let stats = p.run(10_000_000).unwrap();
        let d2 = p.sim().reg(dreg(DReg(2)));
        (stats, d2)
    }

    /// A budget that ends exactly on the halting packet's cycle is a
    /// completed run, architectural state committed; half of it is an
    /// exhausted budget.
    #[test]
    fn run_halting_on_the_exact_budget_completes() {
        let cfg = PlatformConfig::default();
        let (full, d2) = run_level(DetailLevel::Static, cfg);
        let elf = assemble(SUM_SRC).unwrap();
        let t = Translator::new(DetailLevel::Static)
            .translate(&elf)
            .unwrap();
        let mut p = Platform::new(&t, cfg).unwrap();
        assert_eq!(p.run(full.target_cycles).unwrap(), full);
        assert!(p.sim().is_halted());
        assert_eq!(p.sim().reg(dreg(DReg(2))), d2);
        let mut short = Platform::new(&t, cfg).unwrap();
        assert!(matches!(
            short.run(full.target_cycles / 2),
            Err(PlatformError::Vliw(VliwError::CycleLimit))
        ));
    }

    #[test]
    fn generated_cycles_match_golden_shape() {
        let elf = assemble(SUM_SRC).unwrap();
        let mut gold = cabt_tricore::sim::Simulator::new(&elf).unwrap();
        let gstats = gold.run(100_000).unwrap();

        let (s_static, d2) = run_level(DetailLevel::Static, PlatformConfig::unlimited());
        assert_eq!(d2, 55);
        let (s_bp, _) = run_level(DetailLevel::BranchPredict, PlatformConfig::unlimited());
        let (s_cache, _) = run_level(DetailLevel::Cache, PlatformConfig::unlimited());

        // Monotone refinement towards the golden count.
        let err = |x: u64| (x as i64 - gstats.cycles as i64).unsigned_abs();
        assert!(
            err(s_bp.total_generated()) <= err(s_static.total_generated()),
            "branch prediction must not reduce accuracy: static {} bp {} golden {}",
            s_static.total_generated(),
            s_bp.total_generated(),
            gstats.cycles
        );
        assert!(
            err(s_cache.total_generated()) <= err(s_bp.total_generated()),
            "cache level must not reduce accuracy: bp {} cache {} golden {}",
            s_bp.total_generated(),
            s_cache.total_generated(),
            gstats.cycles
        );
        // Corrections only appear from the branch-predict level on.
        assert_eq!(s_static.corrected_cycles, 0);
        assert!(
            s_bp.corrected_cycles > 0,
            "the loop mispredicts once at exit"
        );
    }

    #[test]
    fn ratio_rate_stalls_the_target() {
        let (unl, _) = run_level(DetailLevel::Static, PlatformConfig::unlimited());
        let (ratio, d2) = run_level(DetailLevel::Static, PlatformConfig::default());
        assert_eq!(d2, 55);
        assert_eq!(unl.sync_stall_cycles, 0);
        assert!(
            ratio.sync_stall_cycles > 0,
            "25/6 generation must stall the fast core"
        );
        assert!(ratio.target_cycles > unl.target_cycles);
        assert_eq!(ratio.total_generated(), unl.total_generated());
    }

    #[test]
    fn functional_level_generates_nothing() {
        let (s, d2) = run_level(DetailLevel::Functional, PlatformConfig::default());
        assert_eq!(d2, 55);
        assert_eq!(s.total_generated(), 0);
        assert_eq!(s.sync_stall_cycles, 0);
    }

    #[test]
    fn uart_receives_io_writes() {
        let src = "
            .text
        _start:
            movh.a %a2, 0xf000
            lea    %a2, [%a2]0x100
            mov %d1, 72        # 'H'
            st.w [%a2]0, %d1
            mov %d1, 105       # 'i'
            st.w [%a2]0, %d1
            debug
        ";
        let elf = assemble(src).unwrap();
        let t = Translator::new(DetailLevel::Static)
            .translate(&elf)
            .unwrap();
        assert_eq!(t.stats.io_accesses, 2);
        let mut p = Platform::new(&t, PlatformConfig::default()).unwrap();
        let stats = p.run(1_000_000).unwrap();
        let bytes: Vec<u8> = stats.uart.iter().map(|&(_, b)| b).collect();
        assert_eq!(bytes, b"Hi");
        // Timestamps are SoC cycles and must be monotone and nonzero.
        assert!(stats.uart[0].0 > 0);
        assert!(stats.uart[1].0 >= stats.uart[0].0);
    }
}
