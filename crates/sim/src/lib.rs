//! The single front door to every CABT execution vehicle.
//!
//! The paper's experiments compare the *same* program across four
//! execution vehicles: the evaluation board (our golden model), the
//! translated VLIW image on the prototyping platform, the FPGA
//! emulation (derived from board cycles) and an RT-level simulation.
//! Before this crate each vehicle was constructed through its own
//! ad-hoc surface (`Simulator::new`, `Translator` + `Platform`,
//! `RtlCore::new`, …); [`SimBuilder`] replaces them with one typed
//! builder where the vehicle is *data*:
//!
//! ```
//! use cabt_exec::Limit;
//! use cabt_sim::{Backend, SimBuilder};
//!
//! let src = ".text\n_start: mov %d2, 21\n add %d2, %d2\n debug\n";
//! // Every production vehicle — golden on the compiled tier with and
//! // without trace formation, translated on the compiled tier, plus RTL.
//! for backend in Backend::all() {
//!     let mut session = SimBuilder::asm(src).backend(backend).build()?;
//!     session.run(Limit::Cycles(1_000_000))?;
//!     assert_eq!(session.read_d(2), 42, "{backend}");
//! }
//! # Ok::<(), cabt_sim::SessionError>(())
//! ```
//!
//! A [`Session`] has a uniform lifecycle — [`Session::run`],
//! [`Session::step`], [`Session::stats`], [`Session::snapshot`],
//! [`Session::restore`], [`Session::reset`] — and itself implements
//! [`ExecutionEngine`], so every generic driver in the workspace (the
//! lockstep debugger, `run_epochs_sharded`, the benchmark harnesses) drives a
//! session exactly like a bare engine. Growing a new backend (JIT,
//! sharded multi-core) means adding one [`Backend`] variant, not
//! another bespoke constructor.
//!
//! Progress tracing needs no hook: run in slices
//! (`session.run_until(Limit::Cycles(session.cycle() + n))`) and read
//! the session between them.

pub mod analyze;

use cabt_core::{DetailLevel, Granularity, TranslateError, Translated, Translator};
use cabt_exec::pool::{run_epochs_pooled, spawn_epochs_pooled, FleetPool};
use cabt_exec::trace::{TraceConfig, TraceStats};
use cabt_exec::{EngineStats, ExecutionEngine, Limit, StopCause};
use cabt_isa::codec::{ByteReader, ByteWriter, CodecError};
use cabt_isa::elf::ElfFile;
use cabt_isa::IsaError;
use cabt_platform::{
    GoldenBridge, Platform, PlatformConfig, PlatformStats, ShardArbiter, SharedSocBus, SocBusState,
    SyncRate,
};
use cabt_rtlsim::{RtlCore, RtlError, RtlSnapshot};
use cabt_tricore::arch::ArchDesc;
use cabt_tricore::asm::AsmError;
use cabt_tricore::isa::{AReg, DReg};
use cabt_tricore::sim::{DispatchMode, GoldenProgram, SimError, SimSnapshot, Simulator};
use cabt_vliw::sim::{VliwDispatch, VliwError, VliwProgram, VliwSnapshot};
use cabt_workloads::{Needs, Workload};
use std::fmt;
use std::sync::Arc;

/// How a golden vehicle dispatches, spelled as the descriptor's
/// suffix. A translated vehicle has only the compiled tier and the
/// naive oracle ([`Backend::Translated`]'s `naive`), spelled the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The compiled tier at a warm-up of 0: no trace state, one
    /// instruction per step. No suffix.
    Compiled,
    /// The compiled tier forming traces under the session's
    /// [`SimBuilder::trace_config`]: `:trace`.
    Trace,
    /// The naive oracle the compiled tier is diffed against: `:naive`.
    Naive,
}

impl Dispatch {
    fn suffix(self) -> &'static str {
        match self {
            Dispatch::Compiled => "",
            Dispatch::Trace => ":trace",
            Dispatch::Naive => ":naive",
        }
    }

    /// The engine's trace knobs: the session's, or a warm-up of 0.
    fn trace_config(self, session: Option<TraceConfig>) -> TraceConfig {
        match self {
            Dispatch::Trace => session.unwrap_or_default(),
            _ => TraceConfig {
                warmup: 0,
                ..TraceConfig::default()
            },
        }
    }
}

/// Which execution vehicle a [`Session`] runs the workload on.
///
/// Backends are plain data: selecting a different vehicle — or a
/// different dispatch core or detail level of the same vehicle — is
/// changing this value, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The cycle-accurate interpretive golden model (the evaluation
    /// board of the paper's experiments).
    Golden {
        /// How the golden model dispatches.
        dispatch: Dispatch,
    },
    /// The paper's vehicle: the program translated to VLIW code and
    /// run on the prototyping platform (synchronization device, SoC
    /// bus, default peripherals).
    Translated {
        /// Cycle-accuracy detail level of the translation.
        level: DetailLevel,
        /// Whether the VLIW engine runs the naive oracle (`:naive`)
        /// instead of the compiled tier (no suffix), which dispatches
        /// one packet per step.
        naive: bool,
    },
    /// The event-driven RT-level model (the slow Table 2 baseline).
    Rtl,
    /// A multi-core shard set: `cores` copies of the per-shard vehicle
    /// `backend`, each owning a *private* clone of the shared SoC
    /// device population (timer, UART, scratch-RAM mailbox). The shards
    /// advance one `SyncRate` epoch at a time, and at every epoch
    /// barrier the `ShardArbiter` applies each device's per-shard
    /// journals, concatenated in fixed shard order, to every shard — so
    /// runs, and snapshot-restore replays, are deterministic and
    /// *schedule independent*: both [`ShardSchedule`]s produce
    /// bit-identical state. Each shard is seeded with its core id in
    /// source register `%d15` (shard 0 keeps the conventional
    /// single-core role), which is how SPMD workloads like
    /// `producer_consumer` pick their role; each shard's bus also
    /// carries a private `CoreLink` MMIO window (core-id register,
    /// per-core doorbell mailboxes — see `docs/sharding.md`), the
    /// NoC-scale signaling path that does not round-trip through the
    /// merged scratch RAM.
    Sharded {
        /// Number of shards (1 to [`MAX_SHARDS`], validated at build
        /// time).
        cores: u16,
        /// The vehicle every shard runs.
        backend: ShardBackend,
        /// How epoch rounds map onto host threads.
        schedule: ShardSchedule,
    },
}

/// How a sharded session's epoch rounds execute on the host: which
/// executor of the one epoch-round engine in `cabt-exec` runs them.
///
/// Both schedules run the *same* deterministic protocol — one round
/// plan, one per-shard body, one barrier placement — and therefore
/// produce bit-identical simulations under every budget; they differ
/// only in wall-clock scaling. `tests/parallel_determinism.rs` pins
/// the equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardSchedule {
    /// The inline executor: one host thread runs every shard in shard
    /// order (`cabt_exec::run_epochs_sharded`).
    #[default]
    Sequential,
    /// The pool executor: shard rounds as work items on a fixed worker
    /// pool (`cabt_exec::pool::run_epochs_pooled`), so host parallelism
    /// stays bounded at NoC scale (64–256 shards on a handful of
    /// workers). The value is the worker count; `0` sizes the pool to
    /// the host's available parallelism.
    Pooled(u16),
}

/// The per-shard vehicle of [`Backend::Sharded`]: any single-core
/// backend (sharding does not nest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// Golden-model shards, bridged onto the shared bus.
    Golden {
        /// How the golden model dispatches.
        dispatch: Dispatch,
    },
    /// Translated shards, each with its own synchronization device.
    Translated {
        /// Cycle-accuracy detail level of the translation.
        level: DetailLevel,
        /// Whether the VLIW engine runs the naive oracle.
        naive: bool,
    },
    /// RT-level shards (no I/O window — they compute but do not touch
    /// the shared bus).
    Rtl,
}

impl From<ShardBackend> for Backend {
    fn from(s: ShardBackend) -> Backend {
        match s {
            ShardBackend::Golden { dispatch } => Backend::Golden { dispatch },
            ShardBackend::Translated { level, naive } => Backend::Translated { level, naive },
            ShardBackend::Rtl => Backend::Rtl,
        }
    }
}

impl fmt::Display for ShardBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Backend::from(*self).fmt(f)
    }
}

impl Backend {
    /// The golden model on the compiled tier at a warm-up of 0.
    pub fn golden() -> Self {
        Backend::Golden {
            dispatch: Dispatch::Compiled,
        }
    }

    /// A translated session at `level` on the compiled tier.
    pub fn translated(level: DetailLevel) -> Self {
        Backend::Translated {
            level,
            naive: false,
        }
    }

    /// The golden model on the compiled tier forming traces
    /// ([`Dispatch::Trace`]).
    pub fn golden_trace() -> Self {
        Backend::Golden {
            dispatch: Dispatch::Trace,
        }
    }

    /// [`Backend::translated`]: the VLIW core forms no traces. It stays
    /// because the repository benchmark (`perfbench/`), its one caller,
    /// names it; the benchmark's next revision (ROADMAP item 1) retires
    /// it.
    pub fn translated_trace(level: DetailLevel) -> Self {
        Backend::translated(level)
    }

    /// A sharded multi-core session: `cores` shards of `base`, run by
    /// the sequential round-robin scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself [`Backend::Sharded`] — sharding does
    /// not nest.
    pub fn sharded(cores: u16, base: Backend) -> Self {
        Self::sharded_with_schedule(cores, base, ShardSchedule::Sequential)
    }

    /// A sharded multi-core session scheduled on a fixed worker pool:
    /// epoch rounds become pool work items instead of per-round
    /// threads, bit-identical to [`Backend::sharded`] but scaling to
    /// NoC-sized shard counts (64–256) on `workers` host threads
    /// (`0` = the host's available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself [`Backend::Sharded`].
    pub fn sharded_pooled(cores: u16, workers: u16, base: Backend) -> Self {
        Self::sharded_with_schedule(cores, base, ShardSchedule::Pooled(workers))
    }

    /// A sharded multi-core session with an explicit [`ShardSchedule`].
    ///
    /// # Panics
    ///
    /// Panics if `base` is itself [`Backend::Sharded`].
    pub fn sharded_with_schedule(cores: u16, base: Backend, schedule: ShardSchedule) -> Self {
        let backend = match base {
            Backend::Golden { dispatch } => ShardBackend::Golden { dispatch },
            Backend::Translated { level, naive } => ShardBackend::Translated { level, naive },
            Backend::Rtl => ShardBackend::Rtl,
            Backend::Sharded { .. } => panic!("sharded backends do not nest"),
        };
        Backend::Sharded {
            cores,
            backend,
            schedule,
        }
    }

    /// Every single-core backend generic drivers should sweep: golden
    /// on the compiled tier with and without trace formation, the four
    /// translation detail levels on the compiled tier, plus RTL — the
    /// full Table 2 column set. The retained naive interpreters are
    /// differential references, not production backends, and are
    /// spelled explicitly where needed; sharded configurations via
    /// [`Backend::sharded`].
    pub fn all() -> Vec<Backend> {
        let mut v = vec![Backend::golden(), Backend::golden_trace()];
        v.extend(DetailLevel::ALL.map(Backend::translated));
        v.push(Backend::Rtl);
        v
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::golden()
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Golden { dispatch } => write!(f, "golden{}", dispatch.suffix()),
            Backend::Translated { level, naive } => {
                let suffix = if *naive { Dispatch::Naive.suffix() } else { "" };
                write!(f, "translated:{level}{suffix}")
            }
            Backend::Rtl => f.write_str("rtl"),
            Backend::Sharded {
                cores,
                backend,
                schedule,
            } => match schedule {
                ShardSchedule::Sequential => write!(f, "sharded-{cores}x:{backend}"),
                ShardSchedule::Pooled(workers) => {
                    write!(f, "sharded-{cores}x-pool{workers}:{backend}")
                }
            },
        }
    }
}

/// [`Backend`] parses back from its [`Display`](fmt::Display) form —
/// the descriptor syntax CLI flags, the fleet server's request lines
/// and the park envelope all share:
///
/// ```
/// use cabt_sim::Backend;
///
/// for b in Backend::all() {
///     assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
/// }
/// assert_eq!(
///     "sharded-4x:translated:cache".parse::<Backend>().unwrap(),
///     Backend::sharded(4, Backend::translated(cabt_core::DetailLevel::Cache)),
/// );
/// assert_eq!(
///     "sharded-64x-pool8:golden".parse::<Backend>().unwrap(),
///     Backend::sharded_pooled(64, 8, Backend::golden()),
/// );
/// // The retired thread-per-shard schedule and the retired VLIW trace
/// // tier are typed errors.
/// for retired in ["sharded-4x-par:golden", "translated:cache:trace", "sharded-4x:translated:cache:trace"] {
///     let err = retired.parse::<Backend>();
///     assert!(matches!(err, Err(cabt_sim::SessionError::ParseBackend(_))), "{retired}");
/// }
/// // The compiled tier at a warm-up of 0 is spelled without a suffix.
/// for retired in ["golden:compiled", "translated:cache:compiled", "sharded-4x:translated:cache:compiled"] {
///     let err = retired.parse::<Backend>();
///     assert!(matches!(err, Err(cabt_sim::SessionError::ParseBackend(_))), "{retired}");
/// }
/// ```
impl std::str::FromStr for Backend {
    type Err = SessionError;

    fn from_str(s: &str) -> Result<Self, SessionError> {
        let err = || SessionError::ParseBackend(s.to_string());
        // `sharded-{N}x:{base}` / `sharded-{N}x-pool{W}:{base}`.
        if let Some(rest) = s.strip_prefix("sharded-") {
            let (head, base) = rest.split_once(':').ok_or_else(err)?;
            let (digits, schedule) = match head.split_once("x-pool") {
                Some((d, w)) => (d, ShardSchedule::Pooled(w.parse().map_err(|_| err())?)),
                None => (
                    head.strip_suffix('x').ok_or_else(err)?,
                    ShardSchedule::Sequential,
                ),
            };
            let cores: u16 = digits.parse().map_err(|_| err())?;
            if cores > MAX_SHARDS {
                return Err(err());
            }
            return match base.parse()? {
                Backend::Sharded { .. } => Err(err()),
                base => Ok(Backend::sharded_with_schedule(cores, base, schedule)),
            };
        }
        if s == "rtl" {
            return Ok(Backend::Rtl);
        }
        let (vehicle, dispatch) = [Dispatch::Trace, Dispatch::Naive]
            .into_iter()
            .find_map(|d| Some((s.strip_suffix(d.suffix())?, d)))
            .unwrap_or((s, Dispatch::Compiled));
        if vehicle == "golden" {
            return Ok(Backend::Golden { dispatch });
        }
        let level = match vehicle.strip_prefix("translated:").ok_or_else(err)? {
            "functional" => DetailLevel::Functional,
            "static" => DetailLevel::Static,
            "branch-predict" => DetailLevel::BranchPredict,
            "cache" => DetailLevel::Cache,
            _ => return Err(err()),
        };
        let naive = match dispatch {
            Dispatch::Compiled => false,
            Dispatch::Naive => true,
            // The VLIW core forms no traces.
            Dispatch::Trace => return Err(err()),
        };
        Ok(Backend::Translated { level, naive })
    }
}

/// Errors raised while building or running a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Inline assembly source failed to assemble.
    Asm(AsmError),
    /// A named workload was not found in `cabt-workloads`.
    UnknownWorkload(String),
    /// A named workload cannot halt on the selected backend: it needs
    /// the shard device fabric ([`cabt_workloads::Needs::Fabric`]),
    /// which only a sharded set on a non-RTL base has.
    UnsupportedShape {
        /// The workload's registered name.
        workload: String,
        /// The backend it was asked to run on.
        backend: Backend,
    },
    /// Translation to the VLIW target failed.
    Translate(TranslateError),
    /// The golden model faulted (build or run).
    Golden(SimError),
    /// The VLIW target faulted (build or run).
    Target(VliwError),
    /// The RT-level model faulted (build or run).
    Rtl(RtlError),
    /// A sharded backend was configured invalidly (e.g. zero cores).
    ShardConfig(String),
    /// A backend descriptor string did not parse (see the
    /// [`Backend`] `FromStr` impl for the grammar).
    ParseBackend(String),
    /// A park image failed to decode (truncated, corrupt, or a
    /// version this build does not read).
    Codec(CodecError),
    /// The session's ELF image failed to (re-)serialize or parse
    /// while building or resuming a park image.
    Elf(IsaError),
    /// A session service (the fleet scheduler) failed outside the
    /// simulation itself — e.g. a worker died before recording a
    /// unit's outcome. The run is lost but the service keeps going.
    Service(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Asm(e) => write!(f, "workload fails to assemble: {e}"),
            SessionError::UnknownWorkload(n) => write!(f, "no workload named `{n}`"),
            SessionError::UnsupportedShape { workload, backend } => write!(
                f,
                "workload `{workload}` cannot halt on `{backend}`: it needs the shard device \
                 fabric of a sharded backend on a non-RTL base"
            ),
            SessionError::Translate(e) => write!(f, "translation failed: {e}"),
            SessionError::Golden(e) => write!(f, "golden model fault: {e}"),
            SessionError::Target(e) => write!(f, "target fault: {e}"),
            SessionError::Rtl(e) => write!(f, "RTL model fault: {e}"),
            SessionError::ShardConfig(msg) => write!(f, "invalid shard configuration: {msg}"),
            SessionError::ParseBackend(s) => write!(f, "unknown backend descriptor `{s}`"),
            SessionError::Codec(e) => write!(f, "park image does not decode: {e}"),
            SessionError::Elf(e) => write!(f, "ELF image error: {e}"),
            SessionError::Service(msg) => write!(f, "session service failure: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<AsmError> for SessionError {
    fn from(e: AsmError) -> Self {
        SessionError::Asm(e)
    }
}

impl From<TranslateError> for SessionError {
    fn from(e: TranslateError) -> Self {
        SessionError::Translate(e)
    }
}

impl From<SimError> for SessionError {
    fn from(e: SimError) -> Self {
        SessionError::Golden(e)
    }
}

impl From<VliwError> for SessionError {
    fn from(e: VliwError) -> Self {
        SessionError::Target(e)
    }
}

impl From<RtlError> for SessionError {
    fn from(e: RtlError) -> Self {
        SessionError::Rtl(e)
    }
}

impl From<CodecError> for SessionError {
    fn from(e: CodecError) -> Self {
        SessionError::Codec(e)
    }
}

impl From<IsaError> for SessionError {
    fn from(e: IsaError) -> Self {
        SessionError::Elf(e)
    }
}

impl From<cabt_platform::PlatformError> for SessionError {
    fn from(e: cabt_platform::PlatformError) -> Self {
        match e {
            cabt_platform::PlatformError::Vliw(v) => SessionError::Target(v),
        }
    }
}

/// What a session runs: inline assembly, a prebuilt ELF image, or a
/// named entry of `cabt-workloads`.
#[derive(Debug, Clone)]
enum SourceSpec {
    Asm(String),
    Elf(ElfFile),
    Named(String),
}

/// The build-time knobs a builder sets and a session retains so it can
/// describe itself — the configuration half of the park envelope,
/// enough to rebuild an identical vehicle in another process. An
/// externally owned bus is deliberately absent: a resumed session owns
/// a private device population whose *state* comes from the snapshot
/// payload.
#[derive(Debug, Clone, Copy)]
struct BuildConfig {
    platform: PlatformConfig,
    granularity: Granularity,
    shard_epoch: Option<u64>,
    trace_config: Option<TraceConfig>,
}

impl BuildConfig {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        w.u64(self.platform.target_hz);
        w.u64(self.platform.soc_hz);
        match self.platform.rate {
            SyncRate::Unlimited => w.u8(0),
            SyncRate::Ratio { num, den } => {
                w.u8(1);
                w.u32(num);
                w.u32(den);
            }
        }
        w.u32(self.platform.bus_handshake);
        w.u8(match self.granularity {
            Granularity::BasicBlock => 0,
            Granularity::PerInstruction => 1,
        });
        match self.shard_epoch {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                w.u64(e);
            }
        }
        match &self.trace_config {
            None => w.bool(false),
            Some(cfg) => {
                w.bool(true);
                cfg.encode_into(out);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let target_hz = r.u64()?;
        let soc_hz = r.u64()?;
        let rate = match r.u8()? {
            0 => SyncRate::Unlimited,
            1 => {
                let num = r.u32()?;
                SyncRate::Ratio { num, den: r.u32()? }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "SyncRate",
                    tag,
                })
            }
        };
        let platform = PlatformConfig {
            target_hz,
            soc_hz,
            rate,
            bus_handshake: r.u32()?,
        };
        let granularity = match r.u8()? {
            0 => Granularity::BasicBlock,
            1 => Granularity::PerInstruction,
            tag => {
                return Err(CodecError::BadTag {
                    what: "Granularity",
                    tag,
                })
            }
        };
        let shard_epoch = if r.bool()? { Some(r.u64()?) } else { None };
        let trace_config = if r.bool()? {
            Some(TraceConfig::decode(r)?)
        } else {
            None
        };
        Ok(BuildConfig {
            platform,
            granularity,
            shard_epoch,
            trace_config,
        })
    }
}

/// Builder for a [`Session`]: workload × [`Backend`] × configuration.
///
/// See the crate docs for the canonical loop over backends.
pub struct SimBuilder {
    source: SourceSpec,
    backend: Backend,
    config: BuildConfig,
    soc_bus: Option<SharedSocBus>,
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("backend", &self.backend)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SimBuilder {
    fn with_source(source: SourceSpec) -> Self {
        SimBuilder {
            source,
            backend: Backend::default(),
            config: BuildConfig {
                // Pure code speed by default: the synchronization
                // device generates instantly and wait never stalls.
                // Pass `PlatformConfig::default()` for the paper's
                // 200/48 MHz clock ratio.
                platform: PlatformConfig::unlimited(),
                granularity: Granularity::default(),
                shard_epoch: None,
                trace_config: None,
            },
            soc_bus: None,
        }
    }

    /// A session over inline assembly source.
    pub fn asm(source: impl Into<String>) -> Self {
        Self::with_source(SourceSpec::Asm(source.into()))
    }

    /// A session over a prebuilt ELF image.
    pub fn elf(elf: ElfFile) -> Self {
        Self::with_source(SourceSpec::Elf(elf))
    }

    /// A session over a [`Workload`] (its assembly source).
    pub fn workload(w: &Workload) -> Self {
        Self::with_source(SourceSpec::Asm(w.source.clone()))
    }

    /// A session over a named `cabt-workloads` entry (`"gcd"`,
    /// `"sieve"`, …) at its default parameterization. Unknown names
    /// surface as [`SessionError::UnknownWorkload`] at build time, and
    /// a workload that cannot halt on the selected backend as
    /// [`SessionError::UnsupportedShape`] ([`named_workload`]).
    pub fn named(name: impl Into<String>) -> Self {
        Self::with_source(SourceSpec::Named(name.into()))
    }

    /// Selects the execution vehicle (golden model by default).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The currently selected backend — lets wrappers that only
    /// support some vehicles (e.g. the debugger) validate before
    /// paying for [`SimBuilder::build`].
    pub fn selected_backend(&self) -> Backend {
        self.backend
    }

    /// Platform configuration for [`Backend::Translated`] sessions
    /// (ignored by the other backends). Defaults to
    /// [`PlatformConfig::unlimited`].
    pub fn platform(mut self, cfg: PlatformConfig) -> Self {
        self.config.platform = cfg;
        self
    }

    /// Cycle-generation granularity for [`Backend::Translated`]
    /// sessions (per basic block by default; per instruction is the
    /// debugger's single-steppable image).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.config.granularity = granularity;
        self
    }

    /// Routes the session's I/O window into an externally owned
    /// [`SharedSocBus`] instead of the platform's default peripherals —
    /// how several sessions (or a session and hand-built engines) share
    /// one device population. Honored by [`Backend::Translated`]
    /// (platform bus) and [`Backend::Golden`] (attached via
    /// [`cabt_platform::GoldenBridge`]); ignored by [`Backend::Rtl`],
    /// which has no I/O window. [`Backend::Sharded`] sessions build
    /// their own shared bus and reject an external one.
    ///
    /// The bus is *owned by the caller*: [`Session::reset`] resets the
    /// engine (and, for translated sessions, the synchronization
    /// device) but leaves the bus state alone, and session snapshots
    /// still capture/restore its device state.
    pub fn soc_bus(mut self, bus: SharedSocBus) -> Self {
        self.soc_bus = Some(bus);
        self
    }

    /// Warm-up/threshold knobs of the golden model's trace dispatch
    /// tier, applied to every golden engine the session builds
    /// (including each shard of a sharded session). Only observable
    /// when the selected backend is golden with [`Dispatch::Trace`];
    /// other descriptors carry the configuration but never profile.
    /// Defaults to [`cabt_exec::trace::TraceConfig::default`].
    pub fn trace_config(mut self, cfg: TraceConfig) -> Self {
        self.config.trace_config = Some(cfg);
        self
    }

    /// Scheduling epoch of [`Backend::Sharded`] sessions, in target
    /// cycles: shards run concurrently (or round-robin) for this many
    /// cycles between device-state exchange barriers. Defaults to one
    /// `SyncRate` generation epoch where the platform configuration
    /// bounds one, else a fixed fallback. Larger epochs amortize
    /// barrier cost (better parallel scaling); smaller epochs tighten
    /// cross-shard visibility latency. A single-core session uses it
    /// only as its round length when handed to a pool
    /// ([`Session::spawn_on`]). Clamped to ≥ 1.
    pub fn shard_epoch(mut self, target_cycles: u64) -> Self {
        self.config.shard_epoch = Some(target_cycles.max(1));
        self
    }

    /// Builds the session: resolves the workload to an ELF image and
    /// constructs the configured vehicle around it.
    ///
    /// # Errors
    ///
    /// Assembly, lookup, translation and engine construction failures,
    /// and [`SessionError::UnsupportedShape`] for a named workload that
    /// cannot halt on the selected backend.
    pub fn build(self) -> Result<Session, SessionError> {
        let elf = match self.source {
            SourceSpec::Asm(src) => cabt_tricore::asm::assemble(&src)?,
            SourceSpec::Elf(elf) => elf,
            SourceSpec::Named(name) => named_workload(&name, self.backend)?.elf()?,
        };
        Session::new(elf, self.backend, self.config, self.soc_bus)
    }
}

/// The registered workload `name` as `backend` runs it: its
/// `expected_d2` is the checksum every core leaves at halt on the
/// backend's core count ([`cabt_workloads::on_cores`]).
///
/// # Errors
///
/// [`SessionError::UnknownWorkload`] for an unregistered name, and
/// [`SessionError::UnsupportedShape`] when the program cannot halt on
/// `backend`.
pub fn named_workload(name: &str, backend: Backend) -> Result<Workload, SessionError> {
    let (cores, fabric) = match backend {
        Backend::Sharded { cores, backend, .. } => (u32::from(cores), backend != ShardBackend::Rtl),
        _ => (1, false),
    };
    match cabt_workloads::on_cores(name, cores) {
        None => Err(SessionError::UnknownWorkload(name.to_string())),
        Some((_, Needs::Fabric)) if !fabric => Err(SessionError::UnsupportedShape {
            workload: name.to_string(),
            backend,
        }),
        Some((w, _)) => Ok(w),
    }
}

/// What every engine a backend builds over one image shares: the
/// golden model's decoded and compiled program, or the translated image
/// and its compiled VLIW program. Built once per session — once per
/// shard set — and instantiated per engine ([`Session::instantiate`]).
/// RTL cores build their own.
enum Program {
    Golden(Arc<GoldenProgram>),
    Translated {
        image: Arc<Translated>,
        program: Arc<VliwProgram>,
    },
    Rtl,
}

impl Program {
    /// Translates, decodes and compiles `elf` for `backend`.
    fn build(
        elf: &ElfFile,
        backend: Backend,
        config: &BuildConfig,
    ) -> Result<Program, SessionError> {
        Ok(match backend {
            Backend::Golden { .. } => {
                Program::Golden(Arc::new(GoldenProgram::new(elf, ArchDesc::default())?))
            }
            Backend::Translated { level, .. } => {
                let image = Translator::new(level)
                    .with_granularity(config.granularity)
                    .translate(elf)?;
                Program::Translated {
                    program: image.program()?,
                    image: Arc::new(image),
                }
            }
            // A shard set shares one program among its shards.
            Backend::Sharded { backend, .. } => Program::build(elf, backend.into(), config)?,
            Backend::Rtl => Program::Rtl,
        })
    }
}

/// The vehicle actually driven by a session: an engine's run state over
/// a shared [`Program`]. Engines are boxed: their memory images are
/// megabyte-scale and the variants would otherwise differ wildly in
/// size.
enum Vehicle {
    Golden {
        sim: Box<Simulator>,
        /// The shared bus the simulator's I/O window is bridged onto,
        /// when one was attached — snapshots capture its device state.
        bus: Option<SharedSocBus>,
    },
    Translated {
        platform: Box<Platform>,
        /// The translated image, shared by every shard of a set; debug
        /// tooling reads its address map ([`Session::translated`]).
        image: Arc<Translated>,
    },
    Rtl(Box<RtlCore>),
    Sharded(Box<ShardSet>),
}

impl Vehicle {
    fn name(&self) -> &'static str {
        match self {
            Vehicle::Golden { .. } => "golden",
            Vehicle::Translated { .. } => "translated",
            Vehicle::Rtl(_) => "rtl",
            Vehicle::Sharded(_) => "sharded",
        }
    }

    /// The SoC bus whose device state belongs in this vehicle's
    /// snapshot, if it has one. Sharded vehicles have no *single* live
    /// bus — every shard owns a private one and the arbiter holds the
    /// canonical image — so they snapshot through their own path.
    fn device_bus(&self) -> Option<SharedSocBus> {
        match self {
            Vehicle::Golden { bus, .. } => bus.clone(),
            Vehicle::Translated { platform, .. } => platform.soc_bus(),
            Vehicle::Rtl(_) | Vehicle::Sharded(_) => None,
        }
    }
}

/// Snapshot of a session's engine state — plus, where the session has
/// SoC peripherals, the device state of its bus (UART logs, timer
/// epochs, scratch-RAM words, the transaction counter), so a
/// restore-replay repeats device behaviour bit-identically instead of
/// double-logging. Restorable into the session (or another session
/// built from the same workload and backend).
#[derive(Clone)]
pub struct SessionSnapshot {
    snap: Snap,
    /// SoC-bus device state at capture time, for vehicles with a bus.
    devices: Option<SocBusState>,
}

#[derive(Clone)]
enum Snap {
    Golden(Box<SimSnapshot>),
    /// Engine state plus the synchronization device: the device's
    /// generation queue is keyed to the target clock, so restoring the
    /// engine (rewinding time) without it would turn later wait reads
    /// into phantom stalls.
    Target {
        engine: Box<VliwSnapshot>,
        sync: cabt_platform::SyncDevice,
    },
    Rtl(Box<RtlSnapshot>),
    /// Per-shard session snapshots (in shard order, each carrying its
    /// private — possibly mid-epoch — bus image) plus the arbiter's
    /// epoch counter and the single-step path's armed barrier, so a
    /// stepped replay exchanges at the same frontier as the donor
    /// session; the canonical barrier image lives in `devices`.
    Sharded {
        shards: Vec<SessionSnapshot>,
        epochs: u64,
        step_exchange_at: u64,
    },
}

/// Sessions never hand out their [`Platform`], so nothing can replace
/// its engine's device bus.
const PLATFORM_BUS: &str = "a session's platform keeps its own device bus";

impl Snap {
    fn name(&self) -> &'static str {
        match self {
            Snap::Golden(_) => "golden",
            Snap::Target { .. } => "translated",
            Snap::Rtl(_) => "rtl",
            Snap::Sharded { .. } => "sharded",
        }
    }

    /// The codec tag byte of this vehicle kind.
    fn tag(&self) -> u8 {
        match self {
            Snap::Golden(_) => 0,
            Snap::Target { .. } => 1,
            Snap::Rtl(_) => 2,
            Snap::Sharded { .. } => 3,
        }
    }
}

/// True when `snap` structurally matches the vehicle `backend` builds —
/// same kind, and (recursively) the same shard population. What keeps a
/// corrupt-but-well-formed park payload from panicking
/// [`Session::restore`].
fn snapshot_matches_backend(backend: Backend, snap: &Snap) -> bool {
    match (backend, snap) {
        (Backend::Golden { .. }, Snap::Golden(_))
        | (Backend::Translated { .. }, Snap::Target { .. })
        | (Backend::Rtl, Snap::Rtl(_)) => true,
        (Backend::Sharded { cores, backend, .. }, Snap::Sharded { shards, .. }) => {
            shards.len() == cores as usize
                && shards
                    .iter()
                    .all(|s| snapshot_matches_backend(backend.into(), &s.snap))
        }
        _ => false,
    }
}

impl SessionSnapshot {
    /// Serializes the snapshot (engine state, synchronization device
    /// where the vehicle has one, SoC device images, recursive shard
    /// snapshots) into `out`. The byte layout is documented in
    /// `docs/snapshot-format.md`; [`Session::park`] wraps it in the
    /// versioned envelope.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).u8(self.snap.tag());
        match &self.snap {
            Snap::Golden(s) => s.encode_into(out),
            Snap::Target { engine, sync } => {
                engine.encode_into(out);
                sync.encode_into(out);
            }
            Snap::Rtl(s) => s.encode_into(out),
            Snap::Sharded {
                shards,
                epochs,
                step_exchange_at,
            } => {
                ByteWriter::new(out).u64(shards.len() as u64);
                for s in shards {
                    s.encode_into(out);
                }
                let mut w = ByteWriter::new(out);
                w.u64(*epochs);
                w.u64(*step_exchange_at);
            }
        }
        match &self.devices {
            None => ByteWriter::new(out).bool(false),
            Some(d) => {
                ByteWriter::new(out).bool(true);
                d.encode_into(out);
            }
        }
    }

    /// Decodes a [`SessionSnapshot::encode_into`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let snap = match r.u8()? {
            0 => Snap::Golden(Box::new(SimSnapshot::decode(r)?)),
            1 => Snap::Target {
                engine: Box::new(VliwSnapshot::decode(r)?),
                sync: cabt_platform::SyncDevice::decode(r)?,
            },
            2 => Snap::Rtl(Box::new(RtlSnapshot::decode(r)?)),
            3 => {
                // Every shard snapshot is at least a tag byte and a
                // devices flag.
                let n = r.count("shard snapshots", 2)?;
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(SessionSnapshot::decode(r)?);
                }
                Snap::Sharded {
                    shards,
                    epochs: r.u64()?,
                    step_exchange_at: r.u64()?,
                }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "session snapshot vehicle",
                    tag,
                })
            }
        };
        let devices = if r.bool()? {
            Some(SocBusState::decode(r)?)
        } else {
            None
        };
        Ok(SessionSnapshot { snap, devices })
    }
}

/// Magic prefix of a park envelope ([`Session::park`]).
pub const PARK_MAGIC: &[u8; 8] = b"CABTPARK";

/// Park-envelope format version this build writes — and the only one it
/// reads. See `docs/snapshot-format.md` for the compatibility policy.
///
/// Version history: v2 added the `CoreLink` doorbell device to the
/// default bus population and the dirty-word journal to the
/// `ScratchRam` state encoding — v1 images carry a three-device bus
/// state and the journal-less scratch encoding, so they no longer
/// decode and are rejected by version, not misread. v3 grew the
/// `Timer` image from 12 to 24 bytes: its `(epoch, compare)` as of the
/// last barrier follows the current one. v4 dropped fields that carried
/// nothing: the trace configuration's length cap and taken-edge flag,
/// the memory images' access counters and the golden statistics' exit
/// flag. v5 carries each formed golden trace's plan in place of its
/// formed flag, so a resumed trace tier dispatches the donor's traces.
/// v6 gives both cores one trace-tier encoding: the VLIW tier parks its
/// formed plans, not its `ends`, `span` and always-zero taken tables,
/// and re-derives its packet-range covers on restore. v7 drops the VLIW
/// snapshot's trace section with the VLIW trace tier.
pub const PARK_VERSION: u16 = 7;

impl fmt::Debug for SessionSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionSnapshot")
            .field("vehicle", &self.snap.name())
            .field("devices", &self.devices.is_some())
            .finish()
    }
}

/// Most shards a [`Backend::Sharded`] session may have. The CoreLink
/// window ([`cabt_platform::CORE_LINK_WINDOW`]) holds one doorbell send
/// slot and one inbox slot per core for this many cores; a wider fabric
/// would build cores that can never receive a doorbell. Descriptors
/// above it do not parse and [`SimBuilder::build`] refuses it.
pub const MAX_SHARDS: u16 = 256;

const _: () = assert!(0x800 + 4 * MAX_SHARDS as u32 == cabt_platform::CORE_LINK_WINDOW);

/// Scheduling epoch (in target cycles) used by sharded sessions when
/// the platform configuration does not bound one (unlimited generation
/// rate, or non-platform shards). Shards must interleave at *some*
/// finite granularity or a polling shard scheduled first could spin
/// forever waiting for traffic from a shard that never gets to run.
const SHARD_EPOCH_CYCLES: u64 = 4096;

/// A panic in a pool job, as a typed service error.
fn pool_job_panicked(payload: Box<dyn std::any::Any + Send>) -> SessionError {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    SessionError::Service(format!("a pool job panicked: {msg}"))
}

/// Per-shard and aggregate statistics of a [`Backend::Sharded`]
/// session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// Uniform counters of each shard, in shard order.
    pub per_shard: Vec<EngineStats>,
    /// Aggregate: `retired`/`stall_cycles` summed, `cycles` the maximum
    /// shard clock.
    pub aggregate: EngineStats,
    /// Transactions served by the shared SoC bus.
    pub bus_transactions: u64,
    /// Epoch boundaries the arbiter has crossed.
    pub epochs: u64,
    /// Merged transmit log of the shared bus's logging peripherals.
    pub uart: Vec<(u64, u8)>,
}

/// N shard sessions, each around a *private* clone of the SoC device
/// population, reconciled by the epoch-barrier arbiter. Every shard is
/// instantiated from the set's one [`Program`] and one source image, and
/// owns only its run state.
struct ShardSet {
    shards: Vec<Session>,
    arbiter: ShardArbiter,
    /// Target cycles per scheduling epoch.
    epoch: u64,
    /// Host schedule of the epoch rounds (bit-identical either way).
    schedule: ShardSchedule,
    /// Device state of the freshly built fabric — what reset restores.
    initial_bus: SocBusState,
    /// Frontier cycle at which the interleaved single-step path runs
    /// its next barrier exchange (the run drivers exchange per round on
    /// their own and re-arm this afterwards).
    step_exchange_at: u64,
    /// The worker pool of [`ShardSchedule::Pooled`] runs, built lazily
    /// on the first pooled run and reused for the session's lifetime.
    pool: Option<FleetPool>,
}

impl ShardSet {
    /// `cores` shards of `backend`, every one instantiated from
    /// `program`, the one program of the set.
    fn build(
        elf: &Arc<ElfFile>,
        program: &Program,
        cores: u16,
        backend: ShardBackend,
        schedule: ShardSchedule,
        config: &BuildConfig,
        bus: Option<SharedSocBus>,
    ) -> Result<ShardSet, SessionError> {
        if cores == 0 {
            return Err(SessionError::ShardConfig(
                "a sharded backend needs at least one core".into(),
            ));
        }
        if cores > MAX_SHARDS {
            return Err(SessionError::ShardConfig(format!(
                "{cores} cores exceed the fabric's ceiling of {MAX_SHARDS}"
            )));
        }
        if bus.is_some() {
            return Err(SessionError::ShardConfig(
                "sharded sessions own their device fabric; `soc_bus` is not accepted".into(),
            ));
        }
        // One private device population per shard — each with its own
        // CoreLink identity (core-id register, doorbell window) — plus
        // the arbiter's canonical mirror. Identity registers are not
        // part of the exchanged device state, so every bus is born in
        // the same canonical state.
        let buses: Vec<SharedSocBus> = (0..cores)
            .map(|id| {
                SharedSocBus::new(cabt_platform::shard_soc_bus(
                    u32::from(id),
                    u32::from(cores),
                ))
            })
            .collect();
        let initial_bus = buses[0].save_state();
        let arbiter = ShardArbiter::new(
            cabt_platform::mirror_soc_bus(u32::from(cores)),
            buses.clone(),
        );
        // One SyncRate epoch of target cycles when the configuration
        // bounds one, else the fallback granularity; an explicit
        // builder override wins.
        let epoch = config.shard_epoch.unwrap_or(match backend {
            ShardBackend::Translated { .. } => {
                let e = config.platform.epoch_target_cycles();
                if e == u64::MAX {
                    SHARD_EPOCH_CYCLES
                } else {
                    e
                }
            }
            _ => SHARD_EPOCH_CYCLES,
        });
        // Shards describe themselves as single-core sessions: no round
        // length of their own.
        let shard_config = BuildConfig {
            shard_epoch: None,
            ..*config
        };
        let mut shards = Vec::with_capacity(cores as usize);
        for (id, bus) in (0..cores).zip(buses) {
            // RTL shards have no I/O window.
            let bus = (backend != ShardBackend::Rtl).then_some(bus);
            let mut shard =
                Session::instantiate(Arc::clone(elf), program, backend.into(), shard_config, bus)?;
            shard.write_d(15, u32::from(id));
            shards.push(shard);
        }
        Ok(ShardSet {
            shards,
            arbiter,
            epoch,
            schedule,
            initial_bus,
            step_exchange_at: epoch,
            pool: None,
        })
    }

    /// Re-seeds every shard's core id (source register `%d15`).
    fn seed_core_ids(&mut self) {
        for (id, shard) in self.shards.iter_mut().enumerate() {
            shard.write_d(15, id as u32);
        }
    }

    /// The scheduling clock: see [`cabt_exec::shard_frontier`].
    fn frontier(&self) -> u64 {
        cabt_exec::shard_frontier(&self.shards).0
    }

    /// The shard the interleaved single-step path dispatches next: the
    /// least-advanced non-halted shard (ties to the lowest index).
    fn next_shard(&self) -> Option<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_halted())
            .min_by_key(|(i, s)| (s.cycle(), *i))
            .map(|(i, _)| i)
    }

    /// Moves the shards and the arbiter out for a pool run, leaving an
    /// empty fabric behind until the run hands them back.
    fn take_fabric(&mut self) -> (Vec<Session>, ShardArbiter) {
        let idle = ShardArbiter::new(cabt_platform::mirror_soc_bus(0), Vec::new());
        let arbiter = std::mem::replace(&mut self.arbiter, idle);
        (std::mem::take(&mut self.shards), arbiter)
    }

    /// Re-arms the single-step path's barrier bookkeeping from
    /// wherever a run left the frontier (runs exchange per round on
    /// their own).
    fn rearm_step_exchange(&mut self) {
        self.step_exchange_at = self.frontier().saturating_add(self.epoch);
    }

    /// Epoch rounds under any budget, on the schedule's executor. The
    /// pooled schedule moves the shards and arbiter into the run (pool
    /// jobs are `'static`) on the session's own worker pool, built on
    /// the first pooled run.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, SessionError> {
        let stop = match self.schedule {
            ShardSchedule::Sequential => {
                let arbiter = &mut self.arbiter;
                cabt_exec::run_epochs_sharded(&mut self.shards, limit, self.epoch, |_| {
                    arbiter.exchange();
                })
            }
            ShardSchedule::Pooled(workers) => {
                let (shards, arbiter) = self.take_fabric();
                let pool = self.pool.get_or_insert_with(|| match workers {
                    0 => FleetPool::with_host_parallelism(),
                    n => FleetPool::new(usize::from(n)),
                });
                let out = run_epochs_pooled(pool, shards, arbiter, limit, self.epoch, |arb, _| {
                    arb.exchange();
                });
                self.shards = out.shards;
                self.arbiter = out.ctx;
                out.stop
            }
        };
        self.rearm_step_exchange();
        stop
    }

    /// Barrier check of the interleaved single-step path: once the
    /// frontier crosses the armed boundary, exchange device state so
    /// stepped shards keep seeing each other's (epoch-delayed) traffic.
    fn step_exchange_if_due(&mut self) {
        if self.frontier() >= self.step_exchange_at {
            self.arbiter.exchange();
            self.step_exchange_at = self.frontier().saturating_add(self.epoch);
        }
    }

    fn stats(&self) -> ShardedStats {
        let per_shard: Vec<EngineStats> = self
            .shards
            .iter()
            .map(cabt_exec::ExecutionEngine::engine_stats)
            .collect();
        ShardedStats {
            aggregate: cabt_exec::aggregate_stats(&self.shards),
            per_shard,
            bus_transactions: self.arbiter.transactions(),
            epochs: self.arbiter.epochs(),
            uart: self.arbiter.uart_log(),
        }
    }

    fn reset(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
        self.arbiter.reset(&self.initial_bus);
        self.seed_core_ids();
        self.step_exchange_at = self.epoch;
    }
}
///
/// `Session` implements [`ExecutionEngine`], so anything that drives an
/// engine generically — `Lockstep`, `run_epochs_sharded`, the bench harnesses —
/// drives a session unchanged. Units and cycles are *engine-native*
/// (source instructions and cycles on the golden model, execute packets
/// and target cycles on the translated platform, clock periods on the
/// RTL core); comparisons across backends go through derived quantities
/// (checksums, generated cycles, wall-clock time) as in the paper.
pub struct Session {
    vehicle: Vehicle,
    /// The source image, shared by every shard of a set.
    elf: Arc<ElfFile>,
    backend: Backend,
    /// Build-time knobs, retained so [`Session::park`] can emit a
    /// self-describing envelope.
    config: BuildConfig,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend)
            .field("cycle", &self.cycle())
            .field("halted", &self.is_halted())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Builds the program for `backend` from `elf` and a session over
    /// it. `bus` routes the I/O window of a golden or translated vehicle
    /// onto an existing device population.
    fn new(
        elf: ElfFile,
        backend: Backend,
        config: BuildConfig,
        bus: Option<SharedSocBus>,
    ) -> Result<Session, SessionError> {
        let elf = Arc::new(elf);
        let program = Program::build(&elf, backend, &config)?;
        Session::instantiate(elf, &program, backend, config, bus)
    }

    /// A session over `program`, which was built from `elf` for
    /// `backend`: only the run state is new. The one place a session is
    /// made — shards of a set included.
    fn instantiate(
        elf: Arc<ElfFile>,
        program: &Program,
        backend: Backend,
        config: BuildConfig,
        bus: Option<SharedSocBus>,
    ) -> Result<Session, SessionError> {
        let vehicle = match (backend, program) {
            (Backend::Golden { dispatch }, Program::Golden(program)) => {
                let mut sim = Simulator::instantiate(Arc::clone(program));
                sim.set_trace_config(dispatch.trace_config(config.trace_config));
                if dispatch == Dispatch::Naive {
                    sim.set_dispatch(DispatchMode::Naive);
                }
                if let Some(bus) = &bus {
                    sim.set_io_device(Box::new(GoldenBridge::new(bus.clone())));
                }
                Vehicle::Golden {
                    sim: Box::new(sim),
                    bus,
                }
            }
            (Backend::Translated { naive, .. }, Program::Translated { image, program }) => {
                let mut platform = Platform::instantiate(Arc::clone(program), config.platform, bus);
                if naive {
                    platform.set_dispatch(VliwDispatch::Naive);
                }
                Vehicle::Translated {
                    platform: Box::new(platform),
                    image: Arc::clone(image),
                }
            }
            (
                Backend::Sharded {
                    cores,
                    backend,
                    schedule,
                },
                program,
            ) => {
                let set = ShardSet::build(&elf, program, cores, backend, schedule, &config, bus)?;
                Vehicle::Sharded(Box::new(set))
            }
            (Backend::Rtl, _) => Vehicle::Rtl(Box::new(RtlCore::new(&elf)?)),
            _ => unreachable!("Program::build builds the program of its backend"),
        };
        Ok(Session {
            vehicle,
            elf,
            backend,
            config,
        })
    }

    /// The backend this session was built with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The source ELF image the session was built from.
    pub fn source_elf(&self) -> &ElfFile {
        &self.elf
    }

    /// Uniform counters (engine-native units).
    pub fn stats(&self) -> EngineStats {
        self.engine_stats()
    }

    /// Dispatches one engine-native unit (instruction / packet /
    /// RTL-core instruction).
    ///
    /// # Errors
    ///
    /// Engine faults, wrapped in [`SessionError`].
    pub fn step(&mut self) -> Result<(), SessionError> {
        self.step_unit()
    }

    /// Runs until halt or `limit`: [`ExecutionEngine::run_until`], except
    /// that a *completed run* wins — where the raw trait call checks the
    /// budget before the halt, a program that halts exactly on the limit
    /// reports [`StopCause::Halted`] here (and commits its architectural
    /// state), matching [`cabt_exec::run_epochs_sharded`] under a cycle
    /// budget.
    ///
    /// # Errors
    ///
    /// Engine faults, wrapped in [`SessionError`].
    pub fn run(&mut self, limit: Limit) -> Result<StopCause, SessionError> {
        let stop = self.run_until(limit)?;
        if stop == StopCause::LimitReached && self.is_halted() {
            self.commit_arch_state();
            return Ok(StopCause::Halted);
        }
        Ok(stop)
    }

    /// Platform counters (generated/corrected cycles, UART log) —
    /// `Some` only for [`Backend::Translated`] sessions. Sharded
    /// sessions report through [`Session::sharded_stats`] (per-shard
    /// platform counters via [`Session::shard`]).
    pub fn platform_stats(&self) -> Option<PlatformStats> {
        match &self.vehicle {
            Vehicle::Translated { platform, .. } => Some(platform.stats()),
            _ => None,
        }
    }

    /// Trace-tier counters (traces formed, blocks fused, units retired
    /// inside traces) — `Some` only when the session's engine profiles,
    /// i.e. its backend is `golden:trace` with a warm-up window.
    /// Sharded sessions aggregate across shards (every shard runs the
    /// same deterministic program, so per-shard values are identical
    /// for SPMD workloads).
    pub fn trace_stats(&self) -> Option<TraceStats> {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.trace_stats(),
            Vehicle::Translated { .. } | Vehicle::Rtl(_) => None,
            Vehicle::Sharded(set) => {
                let per: Vec<TraceStats> =
                    set.shards.iter().filter_map(Session::trace_stats).collect();
                if per.is_empty() {
                    return None;
                }
                Some(per.iter().fold(TraceStats::default(), |a, t| TraceStats {
                    traces: a.traces + t.traces,
                    trace_blocks: a.trace_blocks + t.trace_blocks,
                    trace_retired: a.trace_retired + t.trace_retired,
                }))
            }
        }
    }

    /// The trace chains the golden model's trace tier has formed so far
    /// ([`cabt_exec::trace::TracePlan`]s over the guest's blocks, in
    /// head-block order): the dynamic side of the static
    /// trace-prediction cross-check. Empty for every other vehicle and
    /// while nothing is hot.
    pub fn trace_plans(&self) -> Vec<cabt_exec::trace::TracePlan> {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.trace_plans(),
            _ => Vec::new(),
        }
    }

    /// Hands the session to `pool` and returns at once: its epoch
    /// rounds run under `limit` on the pool executor of the epoch-round
    /// engine ([`cabt_exec::pool::spawn_epochs_pooled`]), and no pool
    /// job ever blocks. A sharded session submits its shards and its
    /// arbiter, whatever its own schedule; a single-core session runs
    /// as a one-shard set without an arbiter, in rounds of its
    /// [`SimBuilder::shard_epoch`] (4096 cycles by default). Budgets
    /// mean what they mean to [`ExecutionEngine::run_until`].
    ///
    /// After every round's barrier exchange, `on_barrier` gets `state`
    /// and read access to the shards (the session itself when it is
    /// single-core). `done` runs on a pool worker when the run stops
    /// and gets the session, the stop cause and `state` back — or the
    /// fault of the lowest-numbered faulting shard (the session is
    /// dropped), or [`SessionError::Service`] if a pool job panicked.
    pub fn spawn_on<S: Send + 'static>(
        mut self,
        pool: &FleetPool,
        limit: Limit,
        state: S,
        mut on_barrier: impl FnMut(&mut S, &[&Session]) + Send + 'static,
        done: impl FnOnce(Result<(Session, StopCause, S), SessionError>) + Send + 'static,
    ) {
        let Vehicle::Sharded(set) = &mut self.vehicle else {
            let epoch = self.config.shard_epoch.unwrap_or(SHARD_EPOCH_CYCLES);
            return spawn_epochs_pooled(pool, vec![self], state, limit, epoch, on_barrier, |ran| {
                done(ran.map_err(pool_job_panicked).and_then(|mut out| {
                    let stop = out.stop?;
                    let session = out.shards.pop().ok_or_else(|| {
                        SessionError::Service("a pooled run lost its session".into())
                    })?;
                    Ok((session, stop, out.ctx))
                }));
            });
        };
        let (shards, arbiter) = set.take_fabric();
        let epoch = set.epoch;
        spawn_epochs_pooled(
            pool,
            shards,
            (arbiter, state),
            limit,
            epoch,
            move |(arbiter, state), shards| {
                arbiter.exchange();
                on_barrier(state, shards);
            },
            move |ran| {
                done(ran.map_err(pool_job_panicked).and_then(|out| {
                    let (arbiter, state) = out.ctx;
                    if let Vehicle::Sharded(set) = &mut self.vehicle {
                        set.shards = out.shards;
                        set.arbiter = arbiter;
                        set.rearm_step_exchange();
                    }
                    Ok((self, out.stop?, state))
                }));
            },
        );
    }

    /// Per-shard and aggregate counters plus the merged UART log —
    /// `Some` only for [`Backend::Sharded`] sessions.
    pub fn sharded_stats(&self) -> Option<ShardedStats> {
        match &self.vehicle {
            Vehicle::Sharded(set) => Some(set.stats()),
            _ => None,
        }
    }

    /// Number of shards (1 for every single-core backend).
    pub fn shard_count(&self) -> usize {
        match &self.vehicle {
            Vehicle::Sharded(set) => set.shards.len(),
            _ => 1,
        }
    }

    /// The `i`th shard of a sharded session, as a full [`Session`] —
    /// architectural inspection of individual cores
    /// (`session.shard(2).unwrap().read_d(2)`). `None` for single-core
    /// backends or out-of-range indices.
    pub fn shard(&self, i: usize) -> Option<&Session> {
        match &self.vehicle {
            Vehicle::Sharded(set) => set.shards.get(i),
            _ => None,
        }
    }

    /// Mutable access to the `i`th shard — for inspection paths that
    /// need `&mut` (notably [`ExecutionEngine::read_mem`], which every
    /// engine exposes mutably) and for fault injection in tests.
    /// Stepping or mutating a shard directly bypasses the epoch
    /// barrier, so a differential harness should only *read* through
    /// this. `None` for single-core backends or out-of-range indices.
    pub fn shard_mut(&mut self, i: usize) -> Option<&mut Session> {
        match &mut self.vehicle {
            Vehicle::Sharded(set) => set.shards.get_mut(i),
            _ => None,
        }
    }

    /// The translated image — `Some` only for [`Backend::Translated`]
    /// sessions. Debug tooling reads the source↔target address map
    /// from here.
    pub fn translated(&self) -> Option<&Translated> {
        match &self.vehicle {
            Vehicle::Translated { image, .. } => Some(image),
            _ => None,
        }
    }

    /// Reads source data register `D{i}` wherever the backend homes it
    /// (flat index on the source-ISA engines, the register binding's
    /// home on the translated target, shard 0 on sharded sessions —
    /// other shards via [`Session::shard`]). This is how cross-backend
    /// checksum comparisons read `%d2`.
    pub fn read_d(&self, i: u8) -> u32 {
        match &self.vehicle {
            Vehicle::Golden { .. } | Vehicle::Rtl(_) => self.read_reg_index(i as usize),
            Vehicle::Translated { .. } => {
                self.read_reg_index(cabt_core::regbind::dreg(DReg(i)).index())
            }
            Vehicle::Sharded(set) => set.shards[0].read_d(i),
        }
    }

    /// Reads source address register `A{i}` wherever the backend homes
    /// it (see [`Session::read_d`]).
    pub fn read_a(&self, i: u8) -> u32 {
        match &self.vehicle {
            Vehicle::Golden { .. } | Vehicle::Rtl(_) => self.read_reg_index(16 + i as usize),
            Vehicle::Translated { .. } => {
                self.read_reg_index(cabt_core::regbind::areg(AReg(i)).index())
            }
            Vehicle::Sharded(set) => set.shards[0].read_a(i),
        }
    }

    /// Writes source data register `D{i}` wherever the backend homes it
    /// (the write mirror of [`Session::read_d`]; shard 0 on sharded
    /// sessions). This is how boot arguments — e.g. the core id a
    /// sharded build seeds into `%d15` — reach the program.
    pub fn write_d(&mut self, i: u8, value: u32) {
        let index = match &self.vehicle {
            Vehicle::Golden { .. } | Vehicle::Rtl(_) => i as usize,
            Vehicle::Translated { .. } => cabt_core::regbind::dreg(DReg(i)).index(),
            Vehicle::Sharded(_) => {
                if let Vehicle::Sharded(set) = &mut self.vehicle {
                    set.shards[0].write_d(i, value);
                }
                return;
            }
        };
        self.write_reg_index(index, value);
    }

    /// Snapshot core. Single-core vehicles capture their bus's device
    /// state in `devices`; sharded sessions capture every shard's
    /// *private* (possibly mid-epoch) bus image inside the per-shard
    /// sub-snapshots, and carry the arbiter's canonical barrier image
    /// in `devices`.
    fn snapshot_with_devices(&self) -> SessionSnapshot {
        let snap = match &self.vehicle {
            Vehicle::Golden { sim, .. } => Snap::Golden(Box::new(sim.snapshot())),
            Vehicle::Translated { platform, .. } => Snap::Target {
                engine: Box::new(platform.sim().snapshot()),
                sync: platform.save_sync_device().expect(PLATFORM_BUS),
            },
            Vehicle::Rtl(core) => Snap::Rtl(Box::new(core.snapshot())),
            Vehicle::Sharded(set) => Snap::Sharded {
                shards: set
                    .shards
                    .iter()
                    .map(Session::snapshot_with_devices)
                    .collect(),
                epochs: set.arbiter.epochs(),
                step_exchange_at: set.step_exchange_at,
            },
        };
        SessionSnapshot {
            snap,
            devices: match &self.vehicle {
                Vehicle::Sharded(set) => Some(set.arbiter.canonical_state()),
                vehicle => vehicle.device_bus().map(|b| b.save_state()),
            },
        }
    }

    /// Serializes the whole session — backend descriptor, build
    /// configuration, ELF image and a full [`Session::snapshot`] — into
    /// a versioned, self-describing byte envelope. [`Session::resume`]
    /// rebuilds an identical session from it in any process: parking a
    /// session mid-run and resuming it elsewhere replays bit-identically
    /// (`tests/snapshot_restore.rs` pins this for every backend).
    ///
    /// Sessions built around an externally owned bus
    /// ([`SimBuilder::soc_bus`]) park their device *state*; the resumed
    /// session owns a private device population restored from it.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Elf`] if the retained ELF image fails to
    /// re-serialize (not reachable for images that assembled or parsed).
    pub fn park(&self) -> Result<Vec<u8>, SessionError> {
        let mut out = Vec::new();
        let mut w = ByteWriter::new(&mut out);
        w.raw(PARK_MAGIC);
        w.u16(PARK_VERSION);
        w.str(&self.backend.to_string());
        self.config.encode_into(&mut out);
        let elf = self.elf.to_bytes()?;
        ByteWriter::new(&mut out).bytes(&elf);
        self.snapshot_with_devices().encode_into(&mut out);
        Ok(out)
    }

    /// Rebuilds a parked session from [`Session::park`] bytes: parses
    /// the envelope, reconstructs the vehicle from the embedded backend
    /// descriptor, configuration and ELF image, and restores the
    /// snapshot payload. The resumed session continues exactly where
    /// the donor stopped, on any thread or in any process.
    ///
    /// # Errors
    ///
    /// [`SessionError::Codec`] on bad magic, a version this build does
    /// not read ([`CodecError::Version`]), or truncated/corrupt
    /// payload bytes — device images included;
    /// [`SessionError::ParseBackend`] if the descriptor does not parse
    /// (retired descriptors such as `golden:compiled` included); plus
    /// the usual build errors.
    pub fn resume(bytes: &[u8]) -> Result<Session, SessionError> {
        let (backend, config, elf, snapshot) = Self::decode_park(bytes)?;
        let mut session = Session::new(elf, backend, config, None)?;
        session.restore_checked(&snapshot)?;
        Ok(session)
    }

    /// [`ExecutionEngine::restore`] for snapshots decoded from untrusted
    /// bytes ([`Session::resume`], [`Session::adopt_shard`]): an engine
    /// index or table that does not fit the rebuilt engine, or a device
    /// image that does not decode, is an error instead of a panic.
    ///
    /// # Errors
    ///
    /// The first [`CodecError`] an engine check or a device image
    /// raises; the session's state is then partly restored.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different backend kind.
    fn restore_checked(&mut self, snapshot: &SessionSnapshot) -> Result<(), CodecError> {
        match (&mut self.vehicle, &snapshot.snap) {
            (Vehicle::Golden { sim, .. }, Snap::Golden(s)) => {
                sim.check_snapshot(s)?;
                sim.restore(s);
            }
            (Vehicle::Translated { platform, .. }, Snap::Target { engine, sync }) => {
                platform.sim().check_snapshot(engine)?;
                platform.engine().restore(engine);
                platform.restore_sync_device(sync);
            }
            (Vehicle::Rtl(core), Snap::Rtl(s)) => {
                core.check_snapshot(s)?;
                core.restore(s);
            }
            (Vehicle::Sharded(set), Snap::Sharded { shards, .. }) => {
                assert_eq!(
                    set.shards.len(),
                    shards.len(),
                    "cannot restore a {}-shard snapshot into a {}-shard session",
                    shards.len(),
                    set.shards.len()
                );
                for (shard, snap) in set.shards.iter_mut().zip(shards) {
                    shard.restore_checked(snap)?;
                }
            }
            (vehicle, snap) => panic!(
                "cannot restore a {} snapshot into a {} session",
                snap.name(),
                vehicle.name()
            ),
        }
        // Device state. Single-core vehicles restore their live bus;
        // sharded sessions already restored every shard's private bus
        // through the per-shard sub-snapshots above, so the top-level
        // image re-seats the arbiter's canonical mirror (and epoch
        // counter) instead.
        match &mut self.vehicle {
            Vehicle::Sharded(set) => {
                if let (
                    Some(devices),
                    Snap::Sharded {
                        epochs,
                        step_exchange_at,
                        ..
                    },
                ) = (&snapshot.devices, &snapshot.snap)
                {
                    set.arbiter.restore_canonical(devices, *epochs)?;
                    set.step_exchange_at = *step_exchange_at;
                }
            }
            vehicle => {
                if let (Some(devices), Some(bus)) = (&snapshot.devices, vehicle.device_bus()) {
                    bus.restore_state(devices)?;
                }
            }
        }
        Ok(())
    }

    /// Parses and validates a park envelope without building a vehicle —
    /// the shared front half of [`Session::resume`] and
    /// [`Session::adopt_shard`].
    fn decode_park(
        bytes: &[u8],
    ) -> Result<(Backend, BuildConfig, ElfFile, SessionSnapshot), SessionError> {
        let mut r = ByteReader::new(bytes);
        if r.raw(PARK_MAGIC.len()).map_err(|_| CodecError::BadMagic)? != PARK_MAGIC {
            return Err(CodecError::BadMagic.into());
        }
        let found = r.u16()?;
        if found != PARK_VERSION {
            return Err(CodecError::Version {
                found,
                expected: PARK_VERSION,
            }
            .into());
        }
        let backend: Backend = r.str("backend descriptor")?.parse()?;
        let config = BuildConfig::decode(&mut r)?;
        let elf = ElfFile::parse(r.bytes("ELF image")?)?;
        let snapshot = SessionSnapshot::decode(&mut r)?;
        r.finish().map_err(SessionError::Codec)?;
        if !snapshot_matches_backend(backend, &snapshot.snap) {
            return Err(CodecError::BadTag {
                what: "session snapshot vehicle",
                tag: snapshot.snap.tag(),
            }
            .into());
        }
        Ok((backend, config, elf, snapshot))
    }

    /// Serializes shard `i` of a sharded session into its own park
    /// envelope — the donor half of live shard migration. The envelope
    /// is a complete single-core park image (the shard's backend
    /// descriptor, configuration, ELF image and snapshot, including its
    /// private — possibly mid-epoch — bus state), so it travels across
    /// threads or processes like any [`Session::park`] image.
    ///
    /// Call at an epoch barrier (after [`Session::run`] returns) so the
    /// shard's private device state and the arbiter's canonical image
    /// are consistent.
    ///
    /// # Errors
    ///
    /// [`SessionError::ShardConfig`] on single-core sessions or
    /// out-of-range indices; [`SessionError::Elf`] if the image fails
    /// to re-serialize.
    pub fn park_shard(&self, i: usize) -> Result<Vec<u8>, SessionError> {
        match &self.vehicle {
            Vehicle::Sharded(set) => set
                .shards
                .get(i)
                .ok_or_else(|| {
                    SessionError::ShardConfig(format!(
                        "no shard {i} in a {}-shard session",
                        set.shards.len()
                    ))
                })?
                .park(),
            _ => Err(SessionError::ShardConfig(
                "park_shard needs a sharded session".into(),
            )),
        }
    }

    /// Rebuilds shard `i` from a [`Session::park_shard`] envelope — the
    /// receiving half of live shard migration. The shard's vehicle is
    /// reconstructed *around the arbiter's registered bus handle* for
    /// slot `i`, so the barrier fabric keeps aliasing the shard's
    /// devices, and the envelope's snapshot (engine state plus the
    /// donor's private bus image) is restored into it. Run at an epoch
    /// barrier, the migrated run replays bit-identically.
    ///
    /// `backend_override` rebuilds the shard on a *different* vehicle —
    /// a different dispatch of the same vehicle kind (compiled ↔
    /// trace), which shares architectural state — proving
    /// heterogeneous shard sets. The parked snapshot must structurally
    /// fit the override; a cross-kind override (golden → RTL) is
    /// rejected. Note the set-level backend descriptor keeps describing
    /// the original uniform population: a whole-session park/resume
    /// rebuilds uniform shards (with shard `i`'s *state* preserved).
    ///
    /// # Errors
    ///
    /// [`SessionError::ShardConfig`] on single-core sessions,
    /// out-of-range indices, or an override the snapshot does not fit;
    /// plus everything [`Session::resume`] raises for the envelope. On
    /// any error the shard and its bus slot are left as they were.
    pub fn adopt_shard(
        &mut self,
        i: usize,
        bytes: &[u8],
        backend_override: Option<Backend>,
    ) -> Result<(), SessionError> {
        let Vehicle::Sharded(set) = &mut self.vehicle else {
            return Err(SessionError::ShardConfig(
                "adopt_shard needs a sharded session".into(),
            ));
        };
        if i >= set.shards.len() {
            return Err(SessionError::ShardConfig(format!(
                "no shard {i} in a {}-shard session",
                set.shards.len()
            )));
        }
        let (parked_backend, config, elf, snapshot) = Self::decode_park(bytes)?;
        let backend = backend_override.unwrap_or(parked_backend);
        if matches!(backend, Backend::Sharded { .. }) {
            return Err(SessionError::ShardConfig(
                "a shard is a single-core session; sharding does not nest".into(),
            ));
        }
        if !snapshot_matches_backend(backend, &snapshot.snap) {
            return Err(SessionError::ShardConfig(format!(
                "parked shard snapshot does not fit backend `{backend}`"
            )));
        }
        let bus = match backend {
            Backend::Rtl => None,
            _ => Some(set.arbiter.bus(i)),
        };
        // The shard is built around the arbiter's live bus for slot `i`:
        // a device image that fails to decode must leave that bus as it
        // was.
        let live = bus.as_ref().map(|b| (b.clone(), b.save_state()));
        let mut shard = Session::new(elf, backend, config, bus)?;
        if let Err(e) = shard.restore_checked(&snapshot) {
            if let Some((bus, image)) = live {
                bus.restore_state(&image)
                    .expect("a bus's own image restores into it");
            }
            return Err(e.into());
        }
        set.shards[i] = shard;
        Ok(())
    }

    /// The device state of the session's SoC bus, if it has one —
    /// single-core vehicles report their bus, sharded sessions the
    /// arbiter's canonical barrier image. What cross-schedule
    /// differential tests compare.
    pub fn soc_bus_state(&self) -> Option<SocBusState> {
        match &self.vehicle {
            Vehicle::Sharded(set) => Some(set.arbiter.canonical_state()),
            vehicle => vehicle.device_bus().map(|b| b.save_state()),
        }
    }

    /// A handle to the session's live SoC bus, if it has one. `None`
    /// for RTL sessions (no I/O window), golden sessions without an
    /// attached bus, and sharded sessions — a shard set has no *single*
    /// live bus; inspect per-shard handles through [`Session::shard`],
    /// which is how the determinism harness asserts shards never alias
    /// one bus.
    pub fn soc_bus_handle(&self) -> Option<SharedSocBus> {
        self.vehicle.device_bus()
    }
}

impl ExecutionEngine for Session {
    type Error = SessionError;
    type Snapshot = SessionSnapshot;

    fn snapshot(&self) -> SessionSnapshot {
        self.snapshot_with_devices()
    }

    /// Restores a snapshot taken from a session with the same backend
    /// kind.
    ///
    /// Scope: the engine, plus — on translated sessions — the
    /// synchronization device (its generation queue is keyed to the
    /// target clock, so it must rewind with the engine), plus the SoC
    /// peripherals of any bus the session holds (UART logs, timer
    /// epochs, scratch-RAM contents and the transaction counter rewind
    /// with the engine, so restore-replays repeat device behaviour
    /// bit-identically). Sharded sessions restore every shard and the
    /// shared bus.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different backend kind, does
    /// not fit this session's program, or carries a device image that
    /// does not decode (untrusted bytes go through [`Session::resume`],
    /// which reports it).
    fn restore(&mut self, snapshot: &SessionSnapshot) {
        self.restore_checked(snapshot)
            .expect("in-process snapshots fit their session");
    }

    /// Resets to a fully fresh run, in place: nothing is translated,
    /// decoded or compiled again. Unlike the engine-scope trait minimum,
    /// a translated session *owns* its platform, so reset also gives it
    /// a fresh synchronization device and returns its SoC peripherals
    /// to their built state ([`Platform::reset`]) — reset-then-rerun is
    /// reproducible on every backend. Sessions built around an
    /// externally owned bus ([`SimBuilder::soc_bus`]) leave that bus's
    /// state to its owner; sharded sessions own their shared bus and
    /// restore it to its freshly built state (and re-seed shard core
    /// ids).
    fn reset(&mut self) {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.reset(),
            Vehicle::Translated { platform, .. } => platform.reset(),
            Vehicle::Rtl(core) => core.reset(),
            Vehicle::Sharded(set) => set.reset(),
        }
    }

    /// See the trait contract — identical across backends. On sharded
    /// sessions a `Cycles` budget binds the *frontier* clock (the
    /// least-advanced live shard) and execution advances in
    /// epoch-synchronized rounds planned by
    /// `cabt_exec::plan_shard_round`; aggregate `Retirements` budgets
    /// may overshoot by fewer than `cores` units (shards advance in
    /// lockstep).
    ///
    /// Single-core sessions hand the whole budget to their engine's own
    /// `run_until`, so a golden engine enters its I/O device once for
    /// the call — a golden shard's round slice takes its bus lock once.
    fn run_until(&mut self, limit: Limit) -> Result<StopCause, SessionError> {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.run_until(limit).map_err(SessionError::Golden),
            Vehicle::Translated { platform, .. } => platform
                .engine()
                .run_until(limit)
                .map_err(SessionError::Target),
            Vehicle::Rtl(core) => core.run_until(limit).map_err(SessionError::Rtl),
            // Both ShardSet paths check the budget before the halt on
            // their first iteration, preserving the uniform entry
            // semantics (an exhausted budget dispatches nothing).
            Vehicle::Sharded(set) => set.run_until(limit),
        }
    }

    fn step_unit(&mut self) -> Result<(), SessionError> {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.step_unit().map_err(SessionError::Golden),
            Vehicle::Translated { platform, .. } => {
                platform.engine().step_unit().map_err(SessionError::Target)
            }
            Vehicle::Rtl(core) => core.step_unit().map_err(SessionError::Rtl),
            // Interleaved single-step: dispatch one unit on the
            // least-advanced live shard (a no-op once all have halted),
            // exchanging device state whenever the frontier crosses an
            // epoch boundary so polling shards keep making progress.
            Vehicle::Sharded(set) => match set.next_shard() {
                Some(i) => {
                    set.shards[i].step_unit()?;
                    set.step_exchange_if_due();
                    Ok(())
                }
                None => Ok(()),
            },
        }
    }

    fn cycle(&self) -> u64 {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.cycle(),
            Vehicle::Translated { platform, .. } => platform.sim().cycle(),
            Vehicle::Rtl(core) => core.cycle(),
            Vehicle::Sharded(set) => set.frontier(),
        }
    }

    fn is_halted(&self) -> bool {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.is_halted(),
            Vehicle::Translated { platform, .. } => platform.sim().is_halted(),
            Vehicle::Rtl(core) => ExecutionEngine::is_halted(core.as_ref()),
            Vehicle::Sharded(set) => set.shards.iter().all(cabt_exec::ExecutionEngine::is_halted),
        }
    }

    fn pc(&self) -> Option<u32> {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.pc(),
            Vehicle::Translated { platform, .. } => platform.sim().pc(),
            Vehicle::Rtl(core) => core.pc(),
            Vehicle::Sharded(set) => set.next_shard().and_then(|i| set.shards[i].pc()),
        }
    }

    fn commit_arch_state(&mut self) {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.commit_arch_state(),
            Vehicle::Translated { platform, .. } => platform.engine().commit_arch_state(),
            Vehicle::Rtl(core) => core.commit_arch_state(),
            Vehicle::Sharded(set) => {
                for s in &mut set.shards {
                    s.commit_arch_state();
                }
            }
        }
    }

    /// Flat register space. Sharded sessions concatenate their shards:
    /// shard `i` occupies indices `i * per_shard ..` where `per_shard`
    /// is one shard's `reg_count` — debuggers address every core
    /// through one index space.
    fn reg_count(&self) -> usize {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.reg_count(),
            Vehicle::Translated { platform, .. } => platform.sim().reg_count(),
            Vehicle::Rtl(core) => core.reg_count(),
            Vehicle::Sharded(set) => set.shards.len() * set.shards[0].reg_count(),
        }
    }

    fn read_reg_index(&self, index: usize) -> u32 {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.read_reg_index(index),
            Vehicle::Translated { platform, .. } => platform.sim().read_reg_index(index),
            Vehicle::Rtl(core) => core.read_reg_index(index),
            Vehicle::Sharded(set) => {
                let per = set.shards[0].reg_count();
                set.shards[index / per].read_reg_index(index % per)
            }
        }
    }

    fn write_reg_index(&mut self, index: usize, value: u32) {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.write_reg_index(index, value),
            Vehicle::Translated { platform, .. } => {
                platform.engine().write_reg_index(index, value);
            }
            Vehicle::Rtl(core) => core.write_reg_index(index, value),
            Vehicle::Sharded(set) => {
                let per = set.shards[0].reg_count();
                set.shards[index / per].write_reg_index(index % per, value);
            }
        }
    }

    /// Engine memory. Shards run private copies of the image, so on
    /// sharded sessions this reads shard 0 (per-shard memory via
    /// [`Session::shard`] — note `read_mem` needs `&mut`, so inspect
    /// shards through their registers or clone the session's snapshot).
    fn read_mem(&mut self, addr: u32, len: usize) -> Result<Vec<u8>, SessionError> {
        match &mut self.vehicle {
            Vehicle::Golden { sim, .. } => sim.read_mem(addr, len).map_err(SessionError::Golden),
            Vehicle::Translated { platform, .. } => platform
                .engine()
                .read_mem(addr, len)
                .map_err(SessionError::Target),
            Vehicle::Rtl(core) => core.read_mem(addr, len).map_err(SessionError::Rtl),
            Vehicle::Sharded(set) => set.shards[0].read_mem(addr, len),
        }
    }

    /// Uniform counters. Sharded sessions aggregate: `retired` and
    /// `stall_cycles` sum across shards, `cycles` is the maximum shard
    /// clock (see [`cabt_exec::aggregate_stats`]).
    fn engine_stats(&self) -> EngineStats {
        match &self.vehicle {
            Vehicle::Golden { sim, .. } => sim.engine_stats(),
            Vehicle::Translated { platform, .. } => platform.sim().engine_stats(),
            Vehicle::Rtl(core) => core.engine_stats(),
            Vehicle::Sharded(set) => cabt_exec::aggregate_stats(&set.shards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM: &str = "
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

    #[test]
    fn every_backend_computes_the_same_checksum() {
        for backend in Backend::all() {
            let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
            assert_eq!(
                s.run(Limit::Cycles(10_000_000)).unwrap(),
                StopCause::Halted,
                "{backend}"
            );
            assert_eq!(s.read_d(2), 55, "{backend}");
            assert!(s.stats().cycles > 0, "{backend}");
            assert!(s.stats().retired > 0, "{backend}");
        }
    }

    /// `Backend::all()` is the enumeration every generic driver
    /// (Table 2, the uniform test sweeps, shard bases) iterates; a new
    /// dispatch core or vehicle that is not represented there silently
    /// drops out of all of them. This pins the coverage.
    #[test]
    fn backend_all_covers_every_variant_and_round_trips_through_sharding() {
        let all = Backend::all();
        // Vehicle coverage.
        assert!(all.iter().any(|b| matches!(b, Backend::Golden { .. })));
        assert!(all.iter().any(|b| matches!(b, Backend::Translated { .. })));
        assert!(all.iter().any(|b| matches!(b, Backend::Rtl)));
        // The compiled tier with and without traces on golden, the
        // compiled tier on each translation level, and RTL (the naive
        // interpreters are differential references, deliberately
        // absent).
        assert_eq!(all.len(), 2 + DetailLevel::ALL.len() + 1);
        for dispatch in [Dispatch::Compiled, Dispatch::Trace] {
            assert!(
                all.contains(&Backend::Golden { dispatch }),
                "golden {dispatch:?} missing from Backend::all()"
            );
        }
        for level in DetailLevel::ALL {
            assert!(
                all.contains(&Backend::translated(level)),
                "translated {level} missing from Backend::all()"
            );
        }
        assert!(
            !all.iter().any(|b| matches!(
                b,
                Backend::Golden {
                    dispatch: Dispatch::Naive
                } | Backend::Translated { naive: true, .. }
            )),
            "naive reference interpreters are not production backends"
        );
        // Every entry round-trips through the ShardBackend conversion,
        // dispatch core included — which is what makes sharded trace
        // sessions come for free.
        for b in all {
            let sharded = Backend::sharded(2, b);
            let Backend::Sharded { backend, .. } = sharded else {
                panic!("sharded() must build a sharded backend");
            };
            assert_eq!(Backend::from(backend), b, "{b}: shard round-trip");
        }
    }

    /// The property the fleet front end relies on: every backend's
    /// `Display` form parses back to the same value — including the
    /// naive reference dispatch tiers and every sharded combination.
    #[test]
    fn backend_display_round_trips_through_from_str() {
        let mut singles = Backend::all();
        singles.extend([
            Backend::Golden {
                dispatch: Dispatch::Naive,
            },
            Backend::Translated {
                level: DetailLevel::Cache,
                naive: true,
            },
        ]);
        for b in &singles {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), *b, "{b}");
        }
        for base in singles {
            for schedule in [
                ShardSchedule::Sequential,
                ShardSchedule::Pooled(0),
                ShardSchedule::Pooled(8),
            ] {
                let b = Backend::sharded_with_schedule(3, base, schedule);
                assert_eq!(b.to_string().parse::<Backend>().unwrap(), b, "{b}");
            }
        }
    }

    #[test]
    fn oversized_images_are_typed_errors_on_every_backend() {
        let asm = SimBuilder::asm(".text\n_start: debug\n.bss\nbuf: .space 0x4000000\n").build();
        assert!(
            matches!(&asm, Err(SessionError::Asm(e)) if e.line == 4),
            "{asm:?}"
        );
        // An in-memory image skips `ElfFile::parse`, so every backend's
        // own `.bss` materialization must refuse it.
        let mut elf = cabt_tricore::asm::assemble(".text\n_start: debug\n.bss\nbuf: .space 16\n")
            .expect("assembles");
        let bss = elf
            .sections
            .iter_mut()
            .find(|s| s.name == ".bss")
            .expect("bss");
        bss.size = 64 << 20;
        for backend in Backend::all() {
            match SimBuilder::elf(elf.clone()).backend(backend).build() {
                Err(e) => assert!(e.to_string().contains("byte limit"), "{backend}: {e}"),
                Ok(_) => panic!("{backend}: a 64 MiB .bss was accepted"),
            }
        }
    }

    #[test]
    fn bad_backend_descriptors_are_rejected() {
        for s in [
            "",
            "gold",
            "golden:bogus",
            "translated",
            "translated:warp",
            "translated:cache:jit",
            "sharded-4x",
            "sharded-x:golden",
            "sharded-4:golden",
            "sharded-99999x:golden",
            "sharded-257x:golden",
            "sharded-65535x:golden",
            "sharded-4x-pool:golden",
            "sharded-4x-poolx:golden",
            "sharded-4x-par:golden",
            "sharded-2x:sharded-2x:golden",
            "rtl:compiled",
        ] {
            assert!(
                matches!(s.parse::<Backend>(), Err(SessionError::ParseBackend(_))),
                "`{s}` must not parse"
            );
        }
    }

    #[test]
    fn named_workloads_resolve_and_unknown_names_fail() {
        let mut s = SimBuilder::named("gcd").build().unwrap();
        s.run(Limit::Cycles(100_000_000)).unwrap();
        assert_eq!(
            s.read_d(2),
            cabt_workloads::by_name("gcd").unwrap().expected_d2
        );

        assert!(matches!(
            SimBuilder::named("nonesuch").build(),
            Err(SessionError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn reset_reproduces_the_run_on_every_backend() {
        for backend in [
            Backend::golden(),
            Backend::translated(DetailLevel::Cache),
            Backend::Rtl,
        ] {
            let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
            s.run(Limit::Cycles(10_000_000)).unwrap();
            let first = s.stats();
            s.reset();
            assert_eq!(s.cycle(), 0, "{backend}");
            assert!(!s.is_halted(), "{backend}");
            s.run(Limit::Cycles(10_000_000)).unwrap();
            assert_eq!(s.stats(), first, "{backend}: reset + rerun diverged");
        }
    }

    /// Whether two single-core sessions run on one program and one
    /// source image.
    fn share_a_program(a: &Session, b: &Session) -> bool {
        Arc::ptr_eq(&a.elf, &b.elf)
            && match (&a.vehicle, &b.vehicle) {
                (Vehicle::Golden { sim: x, .. }, Vehicle::Golden { sim: y, .. }) => {
                    Arc::ptr_eq(x.program(), y.program())
                }
                (
                    Vehicle::Translated {
                        platform: x,
                        image: i,
                    },
                    Vehicle::Translated {
                        platform: y,
                        image: j,
                    },
                ) => Arc::ptr_eq(x.sim().program(), y.sim().program()) && Arc::ptr_eq(i, j),
                _ => false,
            }
    }

    /// A shard set translates, decodes and compiles once: every shard
    /// holds shard 0's program, after the build and after a reset.
    #[test]
    fn a_shard_set_runs_on_one_program() {
        for descriptor in ["sharded-256x:golden:trace", "sharded-256x:translated:cache"] {
            let mut s = SimBuilder::named("fir")
                .backend(descriptor.parse().unwrap())
                .build()
                .unwrap();
            for when in ["built", "reset"] {
                let Vehicle::Sharded(set) = &s.vehicle else {
                    panic!("{descriptor}: not a shard set");
                };
                assert_eq!(set.shards.len(), 256);
                for (i, shard) in set.shards.iter().enumerate() {
                    assert!(
                        share_a_program(shard, &set.shards[0]),
                        "{descriptor} {when}: shard {i} has its own program"
                    );
                }
                s.run(Limit::Retirements(1000)).unwrap();
                s.reset();
            }
        }
    }

    #[test]
    fn translated_reset_rebuilds_the_devices() {
        let mut s = SimBuilder::asm(SUM)
            .backend(Backend::translated(DetailLevel::Static))
            .build()
            .unwrap();
        s.run(Limit::Cycles(10_000_000)).unwrap();
        let first = s.platform_stats().unwrap();
        assert!(first.total_generated() > 0);
        s.reset();
        assert_eq!(
            s.platform_stats().unwrap().total_generated(),
            0,
            "reset must rebuild the synchronization device"
        );
        s.run(Limit::Cycles(10_000_000)).unwrap();
        assert_eq!(s.platform_stats().unwrap(), first);
    }

    #[test]
    fn run_reports_halt_on_exact_limit_boundary() {
        // A completed run wins over an exactly-exhausted budget —
        // `Session::run` matches the epoch-round drivers, not the raw
        // budget-first `run_until`.
        for backend in [
            Backend::golden(),
            Backend::translated(DetailLevel::Static),
            Backend::Rtl,
        ] {
            let mut probe = SimBuilder::asm(SUM).backend(backend).build().unwrap();
            probe.run(Limit::Cycles(u64::MAX)).unwrap();
            let total = probe.stats();
            for limit in [
                Limit::Cycles(total.cycles),
                Limit::Retirements(total.retired),
            ] {
                let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
                assert_eq!(
                    s.run(limit).unwrap(),
                    StopCause::Halted,
                    "{backend}: {limit:?}"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        for backend in Backend::all() {
            let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
            s.run(Limit::Retirements(5)).unwrap();
            let snap = s.snapshot();
            s.run(Limit::Cycles(10_000_000)).unwrap();
            let end = s.stats();
            let d2 = s.read_d(2);
            s.restore(&snap);
            s.run(Limit::Cycles(10_000_000)).unwrap();
            assert_eq!(s.stats(), end, "{backend}: replay stats diverged");
            assert_eq!(s.read_d(2), d2, "{backend}: replay checksum diverged");
        }
    }

    #[test]
    fn park_resume_continues_bit_identically() {
        for backend in [
            Backend::golden_trace(),
            Backend::translated(DetailLevel::Cache),
            Backend::sharded(2, Backend::golden()),
            Backend::sharded_pooled(2, 2, Backend::golden()),
        ] {
            let mut s = SimBuilder::asm(SUM).backend(backend).build().unwrap();
            s.run(Limit::Retirements(5)).unwrap();
            let parked = s.park().unwrap();
            s.run(Limit::Cycles(10_000_000)).unwrap();
            let end_fp = cabt_exec::fingerprint_engine(&s);
            let mut resumed = Session::resume(&parked).unwrap();
            assert_eq!(resumed.backend(), backend, "{backend}");
            resumed.run(Limit::Cycles(10_000_000)).unwrap();
            assert_eq!(
                cabt_exec::fingerprint_engine(&resumed),
                end_fp,
                "{backend}: resumed replay diverged"
            );
        }
    }

    #[test]
    fn park_rejects_foreign_and_future_versions() {
        let s = SimBuilder::asm(SUM).build().unwrap();
        let parked = s.park().unwrap();
        // Foreign magic.
        let mut corrupt = parked.clone();
        corrupt[0] ^= 0xff;
        assert!(matches!(
            Session::resume(&corrupt),
            Err(SessionError::Codec(CodecError::BadMagic))
        ));
        // Past and future format versions must be rejected, not
        // misdecoded.
        for version in [PARK_VERSION - 1, PARK_VERSION + 1] {
            let mut other = parked.clone();
            other[8..10].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Session::resume(&other),
                Err(SessionError::Codec(CodecError::Version { .. }))
            ));
        }
        // Truncation anywhere is an error, never a panic.
        assert!(Session::resume(&parked[..parked.len() - 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot restore")]
    fn cross_backend_restore_panics() {
        let golden = SimBuilder::asm(SUM).build().unwrap();
        let mut rtl = SimBuilder::asm(SUM).backend(Backend::Rtl).build().unwrap();
        let snap = golden.snapshot();
        rtl.restore(&snap);
    }

    #[test]
    fn sessions_run_under_generic_drivers() {
        // A session is itself an ExecutionEngine: drive it as a
        // one-shard set with the epoch-round driver from cabt-exec.
        let s = SimBuilder::asm(SUM)
            .backend(Backend::translated(DetailLevel::Static))
            .build()
            .unwrap();
        let mut set = [s];
        let mut epochs = 0;
        let stop =
            cabt_exec::run_epochs_sharded(&mut set, Limit::Cycles(1_000_000), 64, |_| epochs += 1)
                .unwrap();
        assert_eq!(stop, StopCause::Halted);
        assert!(epochs > 1, "64-cycle epochs: the run crosses barriers");
        assert_eq!(set[0].read_d(2), 55);
    }
}
