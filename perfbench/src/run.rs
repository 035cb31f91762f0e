//! What every workload shares: options, the result of one run, and the
//! sample loop with its calibration kernel and timed set-up repeats.

use crate::report::{Checks, Metric};
use crate::trace::Tracer;
use crate::{host, stats};
use cabt_workloads::Workload;
use std::time::{Duration, Instant};

/// How one workload run is sized.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the sample loop measures.
    pub seconds: f64,
    /// Tiny inputs and short loops (CI keep-alive), not a measurement.
    pub smoke: bool,
    /// Samples the loop collects at least, however long that takes.
    pub min_samples: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Checked operations.
    pub checks: Checks,
    /// What the sample loop timed.
    pub sampled: Sampled,
    /// Source instructions per host second, at [`HOST_PERCENTILE`].
    pub host_mips: f64,
    /// Completed sessions per host second.
    pub sessions_per_s: f64,
    /// Source instructions per second of modelled hardware time.
    pub model_mips: f64,
    /// Fig. 6 deviation of the cache-level translation, in percent.
    pub cycle_dev_pct: f64,
    /// Layer metrics the workload measures itself (same names on every
    /// workload).
    pub layer: Vec<Metric>,
    /// Extra facts printed for people, not part of the result line.
    pub info: Vec<Metric>,
    /// The single-core programs the layer probes run.
    pub programs: Vec<Workload>,
}

/// Clock of the reference board (48 MHz TC10GP).
pub const BOARD_HZ: f64 = 48e6;
/// Clock of the VLIW prototype (200 MHz C6x).
pub const TARGET_HZ: f64 = 200e6;

/// Million instructions per second of `cycles` at `hz`.
pub fn mips(instructions: u64, cycles: u64, hz: f64) -> f64 {
    instructions as f64 / (cycles as f64 / hz) / 1e6
}

/// Longest a sample loop runs while it still lacks `min_samples`; past
/// it the loop stops and the thin sample set is refused downstream.
const HARD_STOP: Duration = Duration::from_secs(100);

/// Samples discarded before measuring (caches, lazily built pools).
const WARMUP_SAMPLES: usize = 2;

/// Host time the sample loop stays on one CPU before moving on.
const PHASE: Duration = Duration::from_secs(1);

/// CPUs the sample loop takes turns on.
const LOOP_CPUS: usize = 2;

/// The percentile of sample times every host-time metric is taken at.
///
/// On a shared host the sample times of one run split into two modes
/// whenever a neighbour competes for the caches and memory: on the
/// 2-vCPU host this benchmark was built on, `paper_cache` passes took
/// either about 88 ms or about 148 ms, with little in between, while
/// the ALU-only calibration kernel moved by under 1%. The share of slow
/// samples changed from run to run, so the median jumped between the
/// modes (ten-seed sets spread by up to 60%). The 10th percentile stays
/// in the fast mode as long as a tenth of the samples are fast.
pub const HOST_PERCENTILE: f64 = 10.0;

/// What the sample loop timed.
#[derive(Debug, Default)]
pub struct Sampled {
    /// Host milliseconds per sample.
    pub samples_ms: Vec<f64>,
    /// Calibration-kernel milliseconds.
    pub calib_ms: Vec<f64>,
    /// Host seconds per set-up repeat.
    pub setup_s: Vec<f64>,
}

impl Sampled {
    /// Host milliseconds of a sample at [`HOST_PERCENTILE`].
    ///
    /// # Errors
    ///
    /// Fewer samples than the percentile needs.
    pub fn host_ms(&self) -> Result<f64, stats::StatsError> {
        stats::percentile(&self.samples_ms, HOST_PERCENTILE)
    }

    /// Host seconds of a set-up repeat at [`HOST_PERCENTILE`]: set-up
    /// times split into the same two modes as sample times.
    ///
    /// # Errors
    ///
    /// Fewer set-up repeats than the percentile needs.
    pub fn host_setup_s(&self) -> Result<f64, stats::StatsError> {
        stats::percentile(&self.setup_s, HOST_PERCENTILE)
    }
}

/// The sample loop: warm-up samples, then samples until `seconds` have
/// passed and `min_samples` were taken. Before every sample it runs the
/// calibration kernel and times a fresh `setup`.
/// `sample` returns the host milliseconds of the work it timed.
///
/// On a host with two or more CPUs the loop pins the whole process to
/// one of two CPUs at a time and switches every second. Shared hosts
/// slow single cores down for minutes at a time — on the host above,
/// one vCPU ran a workload 1.7× slower than the other for a whole run —
/// and a process left alone stays on one vCPU for its life. Taking
/// turns gives every run fast samples whenever either CPU is fast.
///
/// Set-up repeats are spread over the whole loop rather than run back to
/// back, so a slow phase of the host (seconds long) reaches only some of
/// them, as it does the samples. Each set-up's result is dropped only
/// after the next one was timed: freeing it first lets the allocator
/// hand the heap back to the system on some address layouts, and the
/// next set-up then pays page faults — a per-process 1.6× mode measured
/// on the 64-shard set-up.
pub fn sample_loop<T>(
    opts: &Opts,
    tracer: &Tracer,
    mut setup: impl FnMut() -> T,
    mut sample: impl FnMut(&Tracer) -> f64,
) -> Sampled {
    let allowed = host::allowed_cpus();
    let cpus = &allowed[..allowed.len().min(LOOP_CPUS)];
    let rotate = cpus.len() > 1 && host::pin(&cpus[..1]);
    for _ in 0..WARMUP_SAMPLES {
        sample(tracer);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut out = Sampled::default();
    let (mut turn, mut phase_start) = (0, Instant::now());
    let mut kept = None;
    while (start.elapsed() < budget || out.samples_ms.len() < opts.min_samples)
        && start.elapsed() < HARD_STOP
    {
        if rotate && phase_start.elapsed() >= PHASE {
            turn = (turn + 1) % cpus.len();
            host::pin(&cpus[turn..=turn]);
            phase_start = Instant::now();
        }
        {
            let _s = tracer.span("host.calib");
            out.calib_ms.push(host::calibrate());
        }
        let t = Instant::now();
        let state = setup();
        out.setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(state);
        out.samples_ms.push(sample(tracer));
    }
    if rotate {
        host::pin(&allowed);
    }
    drop(kept);
    out
}
