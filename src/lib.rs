//! # CABT — Cycle-Accurate Binary Translation for SoC Rapid Prototyping
//!
//! A from-scratch Rust reproduction of *Schnerr, Bringmann, Rosenstiel:
//! "Cycle Accurate Binary Translation for Simulation Acceleration in
//! Rapid Prototyping of SoCs", DATE 2005*.
//!
//! The system translates object code of an embedded SoC processor core
//! (a TriCore-like ISA) into VLIW (C6x-like) target code annotated with
//! **cycle-generation instructions**: each translated basic block starts
//! by telling a synchronization device how many source-processor cycles
//! it represents, the device clocks the attached SoC hardware in
//! parallel with the block's execution, and a wait access at the block
//! end re-synchronizes the two (Fig. 2 of the paper). Dynamic
//! correction code refines the static prediction for branch outcomes and
//! instruction-cache misses (Fig. 3/4).
//!
//! This crate is the umbrella: it re-exports the subsystem crates and
//! hosts the runnable examples and the cross-crate integration tests.
//!
//! | crate | role |
//! |---|---|
//! | [`isa`] | memory model, ELF32 reader/writer, deterministic PRNG |
//! | [`exec`] | `ExecutionEngine` — dispatch + snapshot/restore interface of every simulator; the shared basic-block layer (`exec::blocks`), the profile/trace-growth layer (`exec::trace`) and the static-analysis dataflow framework (`exec::analyze`) built over it; execution fingerprints; the one-queue `exec::pool::FleetPool`; the single-core epoch driver and the one epoch-round engine for shard sets (one plan, one barrier rule `EpochBarrier`, an inline and a pool executor, a single-step driver) |
//! | [`tricore`] | source ISA, assembler, cycle-accurate golden model (compiled dispatch core with its trace tier, naive oracle) |
//! | [`vliw`] | target VLIW ISA and simulator (compiled dispatch core, one packet per step; naive oracle) |
//! | [`core`] | **the translator** (the paper's contribution) — its CFG is a view over the shared block layer |
//! | [`platform`] | synchronization device, snapshottable (and `Send`) SoC bus + peripherals (including the per-shard CoreLink doorbell endpoint), epoch-barrier shard arbiter with a deterministic O(traffic) journaled delta exchange (`docs/sharding.md`) |
//! | [`rtlsim`] | event-driven RT-level baseline simulator |
//! | [`sim`] | **the front door**: `SimBuilder`/`Session` over every execution vehicle, single-core or sharded (up to 256 cores, with live shard migration via `park_shard`/`adopt_shard`); versioned portable park/resume bytes; the `sim::analyze` lint surface behind the `cabt-analyze` binary |
//! | [`debug`] | generic lockstep driver, dual-translation debugger + RSP packet layer |
//! | [`workloads`] | the paper's benchmark programs (plus the multi-core `producer_consumer` and the doorbell all-to-all `mailbox`) |
//! | [`fleet`] | **the session service**: a batch driver that hands built sessions to the one-queue pool (M sessions × N shards as epoch-round jobs), per-epoch digest chains, `fleet-server` binary |
//! | [`fuzz`] | **continuous differential fuzzing**: seed-reproducible program generator, full-matrix comparison on per-epoch digest chains, shrinker to minimal reproducers, `cabt-fuzz` binary |
//!
//! Each core has two dispatch variants, bit-identical and selected as
//! plain `Backend` data: the retained naive interpreter (the
//! differential oracle) and the **compiled tier**. The compiled tier
//! decodes the image once at load into an index-chased pre-decoded
//! table, compiles it into closures and steps them one instruction or
//! packet at a time (`golden` at a warm-up of 0, `translated:<level>`).
//! On the golden model a warm-up window (`golden:trace`) also profiles
//! the basic blocks of the shared [`cabt_exec::blocks`] partition and
//! fuses hot chains into superblocks; traces are its only
//! multi-instruction steps. The
//! [`tricore::sim`] and [`vliw::sim`] module docs describe each core;
//! `tests/predecode_diff.rs` and `tests/compiled_diff.rs` prove them
//! bit-identical. The repository benchmark in `perfbench/` measures
//! their speed end to end, and `examples/dispatch.rs` prints their
//! throughput on both cores.
//!
//! Every vehicle — the golden model, the translated platform, *and* the
//! RTL core — implements [`cabt_exec::ExecutionEngine`], including its
//! trait-level snapshot/restore capability, and is constructed through
//! one typed builder: [`cabt_sim::SimBuilder`] takes a workload (inline
//! assembly, an ELF image, or a named `cabt-workloads` entry) and a
//! [`cabt_sim::Backend`] value, and yields a [`cabt_sim::Session`] with
//! the uniform lifecycle `run / step / stats / snapshot / restore /
//! reset`. The platform harness, the
//! debugger and the [`reproduction`] pass all drive sessions through the
//! trait, which is where new backends plug in — one more `Backend`
//! variant, not another bespoke constructor.
//!
//! The paper's evaluation — Fig. 5 speed, Fig. 6 cycle accuracy,
//! Table 1 CPI and Table 2 runtime — is [`reproduction::Reproduction`]:
//! one pass over the paper's programs, rendered as the committed
//! `docs/reproduction.md` that `tests/reproduction.rs` diffs.
//!
//! A session's state image carries the engine, the synchronization
//! device and every SoC peripheral, which is what the multi-core backend builds on:
//! `Backend::Sharded` runs N engines (up to 256), instantiated from one
//! shared program, on private device clones reconciled at epoch
//! barriers, bit-identically under the
//! sequential and the pooled schedule (`docs/sharding.md` is the
//! operating manual, `tests/parallel_determinism.rs` the proof):
//!
//! ```
//! use cabt::prelude::*;
//!
//! let w = cabt::workloads::by_name("producer_consumer").unwrap();
//! let mut mc = SimBuilder::workload(&w)
//!     .backend(Backend::sharded(2, Backend::translated(DetailLevel::Static)))
//!     .build()?;
//! mc.run(Limit::Cycles(50_000_000))?;
//! // Core 0 produced into the shared scratch RAM; core 1 consumed and
//! // computed the same checksum.
//! assert_eq!(mc.shard(1).unwrap().read_d(2), w.expected_d2);
//! assert_eq!(mc.sharded_stats().unwrap().uart.len(), 2);
//!
//! // The pooled scheduler (two pool workers) simulates the identical run.
//! let mut pooled = SimBuilder::workload(&w)
//!     .backend(Backend::sharded_pooled(2, 2, Backend::translated(DetailLevel::Static)))
//!     .build()?;
//! pooled.run(Limit::Cycles(50_000_000))?;
//! assert_eq!(pooled.sharded_stats(), mc.sharded_stats());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Quickstart
//!
//! ```
//! use cabt::prelude::*;
//!
//! let src = r#"
//!     .text
//! _start:
//!     mov  %d0, 6
//!     mov  %d2, 1
//! fact:
//!     mul  %d2, %d2, %d0
//!     addi %d0, %d0, -1
//!     jnz  %d0, fact
//!     debug
//! "#;
//!
//! // Every production vehicle answers the same way — golden on the
//! // compiled tier with and without traces, translated on the compiled
//! // tier, plus the RTL baseline:
//! for backend in Backend::all() {
//!     let mut s = SimBuilder::asm(src).backend(backend).build()?;
//!     s.run(Limit::Cycles(1_000_000))?;
//!     assert_eq!(s.read_d(2), 720, "{backend}"); // 6!
//! }
//!
//! // The golden model (the paper's evaluation board) is one backend...
//! let mut board = SimBuilder::asm(src).backend(Backend::golden()).build()?;
//! board.run(Limit::Cycles(1_000_000))?;
//! assert_eq!(board.read_d(2), 720); // 6!
//!
//! // ...and the translated prototyping platform (full dynamic
//! // correction: branch prediction + instruction-cache simulation) is
//! // another — same builder, different `Backend` value.
//! let mut session = SimBuilder::asm(src)
//!     .backend(Backend::translated(DetailLevel::Cache))
//!     .platform(PlatformConfig::default())
//!     .build()?;
//! session.run(Limit::Cycles(1_000_000))?;
//! assert_eq!(session.read_d(2), 720);
//!
//! // The translated program generated the source processor's clock
//! // cycles for the attached SoC hardware, tracking the measured count.
//! let generated = session.platform_stats().expect("translated").total_generated();
//! let measured = board.stats().cycles;
//! let dev = (generated as f64 - measured as f64).abs() / measured as f64;
//! assert!(dev < 0.05, "generated cycles track the measured count");
//!
//! // Sessions save their state image and load it back, whatever the
//! // backend; a park envelope wraps exactly these bytes.
//! let mut image = Vec::new();
//! session.save_state(&mut image);
//! session.load_state(&mut cabt::isa::codec::ByteReader::new(&image))?;
//!
//! // Before anything executes, the static analyzer can vet the
//! // program: dataflow passes over the same basic-block partition the
//! // engines dispatch (`docs/static-analysis.md`). The `cabt-analyze`
//! // binary and the fleet-server's `analyze` verb sit on this.
//! let report = cabt::sim::analyze::analyze_elf(&assemble(src)?)?;
//! assert!(report.is_clean());
//! assert_eq!(report.loops.len(), 1); // the `fact` countdown loop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Fleet quickstart
//!
//! Beyond one session at a time, the [`fleet`] crate runs *batches*:
//! every request becomes epoch-sized work items on a fixed pool with
//! one FIFO job queue, so M sessions × N shards share a bounded worker
//! population — and each session's simulation stays bit-identical to a
//! dedicated run, whatever the worker count (pinned per epoch by
//! rolling [`cabt_exec::fingerprint_engine`] digest chains). Sessions
//! also **park** to versioned portable bytes mid-run
//! ([`cabt_sim::Session::park`]) and **resume** on any worker or in
//! another process ([`cabt_sim::Session::resume`]) — the
//! `fleet-server` binary serves run/park/resume over a line protocol
//! (`docs/snapshot-format.md` specifies the byte format):
//!
//! ```
//! use cabt::prelude::*;
//!
//! let pool = FleetPool::new(2);
//! let requests: Vec<FleetRequest> = ["gcd", "sieve"]
//!     .iter()
//!     .map(|w| {
//!         FleetRequest::named(*w)
//!             .backend(Backend::sharded(2, Backend::golden()))
//!             .budget(Limit::Cycles(50_000_000))
//!     })
//!     .collect();
//! for result in run_fleet(&pool, &requests) {
//!     let r = result?;
//!     assert!(r.checksum_ok(), "{}", r.workload);
//! }
//!
//! // Park a running session to portable bytes; resume and finish it
//! // anywhere — another thread, another process, another machine.
//! let mut s = SimBuilder::named("gcd").build()?;
//! s.run(Limit::Retirements(100))?;
//! let bytes = s.park()?;
//! let mut resumed = Session::resume(&bytes)?;
//! resumed.run(Limit::Cycles(50_000_000))?;
//! assert_eq!(resumed.read_d(2), cabt::workloads::by_name("gcd").unwrap().expected_d2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cabt_core as core;
pub use cabt_debug as debug;
pub use cabt_exec as exec;
pub use cabt_fleet as fleet;
pub use cabt_fuzz as fuzz;
pub use cabt_isa as isa;
pub use cabt_platform as platform;
pub use cabt_rtlsim as rtlsim;
pub use cabt_sim as sim;
pub use cabt_tricore as tricore;
pub use cabt_vliw as vliw;
pub use cabt_workloads as workloads;

pub mod reproduction;

/// The most common imports in one place.
pub mod prelude {
    pub use cabt_core::{DetailLevel, Granularity, Translated, Translator};
    pub use cabt_debug::{DebugSession, StopReason};
    pub use cabt_exec::{ExecutionEngine, Limit, StopCause};
    pub use cabt_fleet::{run_fleet, run_one, FleetPool, FleetRequest, FleetResult};
    pub use cabt_platform::{Platform, PlatformConfig, SyncRate};
    pub use cabt_sim::{Backend, Dispatch, Session, SessionError, ShardSchedule, SimBuilder};
    pub use cabt_tricore::asm::assemble;
    pub use cabt_tricore::sim::Simulator;
    pub use cabt_workloads::Workload;
}
