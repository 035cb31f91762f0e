//! The differential matrix: one generated program, every tier.
//!
//! Comparison semantics (what "equal" means where):
//!
//! * **In-family** (same vehicle, different dispatch cores): driven in
//!   retirement lockstep — the subject runs one chain stride, the
//!   family's naive reference runs to the *same* retirement count, and
//!   both record a [`DigestChain`] entry
//!   ([`fingerprint_engine`](cabt_exec::fingerprint_engine):
//!   stats, full register file, pc, halt flag). Chains must agree at
//!   every boundary; at the halt the guest `Data`/`Bss` windows must
//!   match byte-for-byte, and a faulting subject must fault at the
//!   same retirement with the same error and the same digest
//!   (fault-prefix accounting).
//! * **Cross-ISA** (golden vs translated vs RTL): final architectural
//!   state only — `d0..d15` and every `aN` except `%a11` (link
//!   register values are target-world addresses on the translated
//!   vehicle by design), plus guest memory windows and UART byte
//!   sequences. Cycle counts differ across vehicles by design and are
//!   never compared here.
//! * **Sharded**: the sequential and pooled schedulers are
//!   driven through an *identical* chunked run-call sequence (epoch
//!   barriers land where run calls put them) and must produce
//!   element-wise equal digest chains, equal per-shard finals, equal
//!   merged UART logs. A snapshot taken at a mid-run (mid-epoch)
//!   chunk boundary must replay to an identical final digest.

use crate::gen::{self, FuzzProgram};
use cabt_core::DetailLevel;
use cabt_exec::trace::TraceConfig;
use cabt_exec::{DigestChain, ExecutionEngine, Limit, StopCause};
use cabt_isa::elf::{ElfFile, SectionKind};
use cabt_platform::{default_soc_bus, SharedSocBus};
use cabt_sim::{Backend, Dispatch, Session, SessionError, SimBuilder};
use std::fmt;

/// Matrix-wide knobs. The defaults are what `cabt-fuzz` and the
/// regression tests run with; the smoke profile shrinks the caps.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Reference cycle budget — a program that exceeds it is skipped.
    pub cycle_cap: u64,
    /// Retirements per digest-chain boundary (prime, so boundaries
    /// stay unaligned with block and trace shapes).
    pub chain_stride: u64,
    /// Cycles per sharded run-call chunk (prime, so chunk boundaries
    /// fall mid-epoch).
    pub shard_chunk: u64,
    /// Run the RTL backend only when the reference retired at most
    /// this many units (the event-driven core is orders slower).
    pub rtl_max_retired: u64,
    /// Translation detail levels to sweep.
    pub levels: Vec<DetailLevel>,
    /// Shard counts for the sequential/pooled schedule sweep.
    pub shard_cores: Vec<u16>,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            cycle_cap: 4_000_000,
            chain_stride: 181,
            shard_chunk: 977,
            rtl_max_retired: 20_000,
            levels: DetailLevel::ALL.to_vec(),
            shard_cores: vec![2, 4],
        }
    }
}

impl MatrixOptions {
    /// The bounded CI profile: fewer detail levels, smaller caps.
    pub fn smoke() -> Self {
        MatrixOptions {
            cycle_cap: 1_000_000,
            rtl_max_retired: 4_000,
            levels: vec![DetailLevel::Static, DetailLevel::Cache],
            shard_cores: vec![2],
            ..MatrixOptions::default()
        }
    }
}

/// One confirmed disagreement between two matrix cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Stable check identifier (`family-chain:golden:trace`,
    /// `sharded-schedule:2x`, `snapshot-replay:golden:trace`, …) — the
    /// shrinker keeps only candidates that still fail the same check.
    pub check: String,
    /// Human-readable detail: where and how the cells disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Outcome of one seed.
#[derive(Debug, Clone)]
pub enum CaseStatus {
    /// Every check agreed.
    Pass,
    /// The case did not run (cycle cap, analyzer pre-filter) — not a
    /// divergence, but counted and reported.
    Skip(String),
    /// The harness itself failed (assembly or session construction) —
    /// a generator or builder bug, fatal under `--strict`.
    Error(String),
    /// At least one check disagreed.
    Diverged(Vec<Divergence>),
}

/// The per-seed report `cabt-fuzz` prints and the shrinker consumes.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The generating seed.
    pub seed: u64,
    /// Outcome.
    pub status: CaseStatus,
    /// Number of pairwise checks that ran.
    pub checks: u32,
    /// Units the golden reference retired (program weight).
    pub retired: u64,
}

/// Aggressive trace formation (mirrors `tests/compiled_diff.rs`): the
/// warm-up window never closes and two visits make a block hot, so
/// short fuzz programs still run mostly inside fused traces.
fn eager_traces() -> TraceConfig {
    TraceConfig {
        warmup: 1_000_000_000,
        hot_threshold: 2,
    }
}

/// Builds a session for `backend`, forming traces eagerly on `:trace`
/// descriptors (the others ignore the trace config); single-core golden
/// sessions get a private default SoC bus so MMIO templates hit devices
/// instead of faulting (every other vehicle owns its bus already).
fn build(elf: &ElfFile, backend: Backend) -> Result<Session, SessionError> {
    let mut b = SimBuilder::elf(elf.clone())
        .backend(backend)
        .trace_config(eager_traces());
    if matches!(backend, Backend::Golden { .. }) {
        b = b.soc_bus(SharedSocBus::new(default_soc_bus()));
    }
    b.build()
}

/// Final architectural state of a halted session, in source-ISA terms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FinalState {
    d: [u32; 16],
    a: [u32; 16],
    uart: Vec<u8>,
}

fn uart_bytes(s: &Session) -> Vec<u8> {
    if let Some(st) = s.sharded_stats() {
        return st.uart.iter().map(|&(_, b)| b).collect();
    }
    if let Some(st) = s.platform_stats() {
        return st.uart.iter().map(|&(_, b)| b).collect();
    }
    s.soc_bus_handle()
        .map(|bus| bus.uart_log().iter().map(|&(_, b)| b).collect())
        .unwrap_or_default()
}

fn final_state(s: &Session) -> FinalState {
    let mut d = [0u32; 16];
    let mut a = [0u32; 16];
    for i in 0..16u8 {
        d[i as usize] = s.read_d(i);
        a[i as usize] = s.read_a(i);
    }
    FinalState {
        d,
        a,
        uart: uart_bytes(s),
    }
}

/// Compares two finals in source terms; `%a11` is excluded (the link
/// register holds target-world return addresses on the translated
/// vehicle by design — see `tests/end_to_end.rs`).
fn diff_finals(
    check: &str,
    lhs_name: &str,
    lhs: &FinalState,
    rhs_name: &str,
    rhs: &FinalState,
    out: &mut Vec<Divergence>,
) {
    for i in 0..16 {
        if lhs.d[i] != rhs.d[i] {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!(
                    "%d{i}: {lhs_name}={:#010x} {rhs_name}={:#010x}",
                    lhs.d[i], rhs.d[i]
                ),
            });
            return;
        }
    }
    for i in 0..16 {
        if i != 11 && lhs.a[i] != rhs.a[i] {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!(
                    "%a{i}: {lhs_name}={:#010x} {rhs_name}={:#010x}",
                    lhs.a[i], rhs.a[i]
                ),
            });
            return;
        }
    }
    if lhs.uart != rhs.uart {
        out.push(Divergence {
            check: check.to_string(),
            detail: format!(
                "uart bytes: {lhs_name}={:02x?} {rhs_name}={:02x?}",
                lhs.uart, rhs.uart
            ),
        });
    }
}

/// Guest `Data`/`Bss` windows of both sessions, compared bytewise.
fn diff_memory(
    check: &str,
    elf: &ElfFile,
    lhs: &mut Session,
    rhs: &mut Session,
    out: &mut Vec<Divergence>,
) {
    for sec in &elf.sections {
        if !matches!(sec.kind, SectionKind::Data | SectionKind::Bss) || sec.size == 0 {
            continue;
        }
        let (Ok(ml), Ok(mr)) = (
            lhs.read_mem(sec.addr, sec.size as usize),
            rhs.read_mem(sec.addr, sec.size as usize),
        ) else {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!("memory window {:#010x} unreadable", sec.addr),
            });
            return;
        };
        if let Some(off) = (0..ml.len()).find(|&i| ml[i] != mr[i]) {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!(
                    "memory byte {:#010x}: {:#04x} vs {:#04x}",
                    sec.addr + off as u32,
                    ml[off],
                    mr[off]
                ),
            });
            return;
        }
    }
}

/// How a driven run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunEnd {
    Halted,
    Limited,
    Fault(String),
}

fn run_to(s: &mut Session, limit: Limit) -> RunEnd {
    match s.run(limit) {
        Ok(StopCause::Halted) => RunEnd::Halted,
        Ok(StopCause::LimitReached) => RunEnd::Limited,
        Err(e) => RunEnd::Fault(e.to_string()),
    }
}

/// Drives `subject` and a fresh family `reference` in retirement
/// lockstep, comparing digest chains boundary-by-boundary. Returns the
/// subject's end state for cross-ISA comparison when it halted clean.
fn family_chain(
    check: &str,
    elf: &ElfFile,
    reference_backend: Backend,
    subject_backend: Backend,
    opts: &MatrixOptions,
    out: &mut Vec<Divergence>,
) -> Option<FinalState> {
    let (mut reference, mut subject) =
        match (build(elf, reference_backend), build(elf, subject_backend)) {
            (Ok(r), Ok(s)) => (r, s),
            (r, s) => {
                let e = r.err().or(s.err()).expect("one side failed");
                out.push(Divergence {
                    check: check.to_string(),
                    detail: format!("session build failed: {e}"),
                });
                return None;
            }
        };
    let mut sub_chain = DigestChain::new();
    let mut ref_chain = DigestChain::new();
    let cap = opts.cycle_cap.saturating_mul(4);
    loop {
        let target = subject.stats().retired + opts.chain_stride;
        let sub_end = run_to(&mut subject, Limit::Retirements(target));
        let boundary = subject.stats().retired;
        let ref_end = match &sub_end {
            // A faulting subject stopped mid-stride: let the reference
            // run freely to its own fault (or cap) for the comparison.
            RunEnd::Fault(_) => run_to(&mut reference, Limit::Cycles(cap)),
            _ => run_to(&mut reference, Limit::Retirements(boundary)),
        };
        let sd = sub_chain.record(&subject);
        let rd = ref_chain.record(&reference);
        if sd != rd {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!(
                    "digest chain diverged at boundary {} (retired {boundary}): subject {} pc={:?} vs reference {} pc={:?}",
                    sub_chain.len() - 1,
                    subject.stats(),
                    subject.pc(),
                    reference.stats(),
                    reference.pc(),
                ),
            });
            return None;
        }
        match (sub_end, ref_end) {
            (RunEnd::Halted, RunEnd::Halted) => break,
            (RunEnd::Fault(se), RunEnd::Fault(re)) => {
                if se != re {
                    out.push(Divergence {
                        check: check.to_string(),
                        detail: format!("fault mismatch: subject `{se}` vs reference `{re}`"),
                    });
                }
                // Digest equality above already pinned the fault
                // prefix (stats, registers, pc).
                return None;
            }
            (RunEnd::Limited, RunEnd::Limited) => {
                if subject.cycle() > cap {
                    out.push(Divergence {
                        check: check.to_string(),
                        detail: format!("subject ran away past {cap} cycles"),
                    });
                    return None;
                }
            }
            (sub_end, ref_end) => {
                out.push(Divergence {
                    check: check.to_string(),
                    detail: format!(
                        "stop cause mismatch: subject {sub_end:?} vs reference {ref_end:?}"
                    ),
                });
                return None;
            }
        }
    }
    diff_finals(
        check,
        "subject",
        &final_state(&subject),
        "reference",
        &final_state(&reference),
        out,
    );
    diff_memory(check, elf, &mut subject, &mut reference, out);
    if !out.is_empty() {
        return None;
    }
    Some(final_state(&subject))
}

/// Cross-ISA stop parity: the subject vehicle must end the way the
/// golden reference did — halt when it halts, fault when it faults.
/// The in-family chains compare a vehicle's tiers against each other,
/// so a *whole-vehicle* fault (every tier faulting identically, e.g.
/// on a mistranslated indirect branch) is visible only here.
fn stop_parity_check(
    check: &str,
    elf: &ElfFile,
    subject: Backend,
    ref_end: &RunEnd,
    opts: &MatrixOptions,
    out: &mut Vec<Divergence>,
) {
    let mut s = match build(elf, subject) {
        Ok(s) => s,
        Err(e) => {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!("session build failed: {e}"),
            });
            return;
        }
    };
    let sub_end = run_to(&mut s, Limit::Cycles(opts.cycle_cap.saturating_mul(4)));
    let kind = |e: &RunEnd| match e {
        RunEnd::Halted => "halted",
        RunEnd::Fault(_) => "faulted",
        RunEnd::Limited => "cycle-limited",
    };
    if kind(&sub_end) != kind(ref_end) {
        out.push(Divergence {
            check: check.to_string(),
            detail: format!("stop parity: subject {sub_end:?} vs golden reference {ref_end:?}"),
        });
    }
}

/// Runs one backend to completion and returns its final state (clean
/// halts only; faults and cap overruns report as divergences because
/// the caller only invokes this when the reference halted clean).
fn run_final(
    check: &str,
    elf: &ElfFile,
    backend: Backend,
    limit: Limit,
    out: &mut Vec<Divergence>,
) -> Option<FinalState> {
    let mut s = match build(elf, backend) {
        Ok(s) => s,
        Err(e) => {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!("session build failed: {e}"),
            });
            return None;
        }
    };
    match run_to(&mut s, limit) {
        RunEnd::Halted => Some(final_state(&s)),
        end => {
            out.push(Divergence {
                check: check.to_string(),
                detail: format!("reference halted clean but {backend} ended {end:?}"),
            });
            None
        }
    }
}

/// Drives the sequential and pooled sharded schedulers (the inline and
/// the pool executor of the epoch-round engine) through an identical
/// chunked run-call sequence and compares their chains and final
/// states — seq≡pooled, fuzzed continuously.
fn sharded_schedule_check(
    elf: &ElfFile,
    cores: u16,
    base: Backend,
    opts: &MatrixOptions,
    out: &mut Vec<Divergence>,
) {
    let check = format!("sharded-schedule:{cores}x:{base}");
    let seq_b = Backend::sharded(cores, base);
    let pool_b = Backend::sharded_pooled(cores, 2, base);
    let (mut seq, mut pool) = match (build(elf, seq_b), build(elf, pool_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            let e = a.err().or(b.err()).expect("one side failed");
            out.push(Divergence {
                check: check.clone(),
                detail: format!("session build failed: {e}"),
            });
            return;
        }
    };
    let mut seq_chain = DigestChain::new();
    let mut pool_chain = DigestChain::new();
    let cap = opts.cycle_cap.saturating_mul(4);
    let mut deadline = 0u64;
    loop {
        deadline += opts.shard_chunk;
        let se = run_to(&mut seq, Limit::Cycles(deadline));
        let oe = run_to(&mut pool, Limit::Cycles(deadline));
        let sd = seq_chain.record(&seq);
        let od = pool_chain.record(&pool);
        if sd != od || se != oe {
            out.push(Divergence {
                check: check.clone(),
                detail: format!(
                    "schedulers diverged at chunk {} (deadline {deadline}): sequential {:?} {} vs pooled {:?} {}",
                    seq_chain.len() - 1,
                    se,
                    seq.stats(),
                    oe,
                    pool.stats(),
                ),
            });
            return;
        }
        match se {
            RunEnd::Halted => break,
            RunEnd::Fault(_) => return,
            RunEnd::Limited => {
                if deadline > cap {
                    out.push(Divergence {
                        check: check.clone(),
                        detail: format!("sharded run exceeded {cap} cycles"),
                    });
                    return;
                }
            }
        }
    }
    // Per-shard architectural finals and the merged device log.
    for i in 0..usize::from(cores) {
        let (Some(a), Some(b)) = (seq.shard(i), pool.shard(i)) else {
            break;
        };
        let mut d = Vec::new();
        diff_finals(
            &check,
            "sequential",
            &final_state(a),
            "pooled",
            &final_state(b),
            &mut d,
        );
        if let Some(mut dv) = d.pop() {
            dv.detail = format!("shard {i}: {}", dv.detail);
            out.push(dv);
            return;
        }
    }
    if let (Some(ss), Some(os)) = (seq.sharded_stats(), pool.sharded_stats()) {
        if ss.uart != os.uart || ss.epochs != os.epochs || ss.aggregate != os.aggregate {
            out.push(Divergence {
                check: check.clone(),
                detail: format!(
                    "sharded stats mismatch: sequential {:?}/{} epochs vs pooled {:?}/{} epochs",
                    ss.aggregate, ss.epochs, os.aggregate, os.epochs
                ),
            });
        }
    }
    diff_memory(&check, elf, &mut seq, &mut pool, out);
}

/// Mid-run snapshot/restore replay: runs `backend` in chunks, snapshots
/// at the middle chunk boundary (deliberately unaligned with epoch
/// barriers), runs to the end, restores, replays the identical
/// remaining run-call sequence, and requires a bit-identical final
/// digest and UART log.
fn snapshot_replay_check(
    elf: &ElfFile,
    backend: Backend,
    opts: &MatrixOptions,
    out: &mut Vec<Divergence>,
) {
    let check = format!("snapshot-replay:{backend}");
    let Ok(mut s) = build(elf, backend) else {
        // Build failures are reported by the other sweeps.
        return;
    };
    let chunk = opts.shard_chunk;
    let cap = opts.cycle_cap.saturating_mul(4);
    // First pass: find the halt chunk count.
    let mut chunks = 0u64;
    loop {
        chunks += 1;
        match run_to(&mut s, Limit::Cycles(chunks * chunk)) {
            RunEnd::Halted => break,
            RunEnd::Fault(_) => return,
            RunEnd::Limited => {
                if chunks * chunk > cap {
                    return;
                }
            }
        }
    }
    if chunks < 2 {
        return;
    }
    let mid = chunks / 2;
    let Ok(mut s) = build(elf, backend) else {
        return;
    };
    for k in 1..=mid {
        run_to(&mut s, Limit::Cycles(k * chunk));
    }
    let snap = s.snapshot();
    let drive_tail = |s: &mut Session| {
        let mut chain = DigestChain::new();
        for k in (mid + 1)..=chunks {
            run_to(s, Limit::Cycles(k * chunk));
            chain.record(&*s);
        }
        (chain, uart_bytes(s))
    };
    let (first_chain, first_uart) = drive_tail(&mut s);
    s.restore(&snap);
    let (replay_chain, replay_uart) = drive_tail(&mut s);
    if let Some(i) = first_chain.first_divergence(&replay_chain) {
        out.push(Divergence {
            check,
            detail: format!(
                "restore-replay diverged at tail boundary {i} (snapshot at chunk {mid}/{chunks}, chunk {chunk} cycles)"
            ),
        });
        return;
    }
    if first_uart != replay_uart {
        out.push(Divergence {
            check,
            detail: format!(
                "restore-replay uart mismatch: {first_uart:02x?} vs {replay_uart:02x?}"
            ),
        });
    }
}

/// Runs the generated `prog` across the whole matrix. This is the
/// entry the binary and the shrinker share.
pub fn run_program(prog: &FuzzProgram, opts: &MatrixOptions) -> CaseReport {
    run_source(prog.seed, &prog.source(), prog.uses_mmio(), opts)
}

/// Runs raw assembly `src` across the whole matrix — the entry the
/// minimized-reproducer regression corpus uses, where the program is a
/// hand-reduced source rather than a generated segment list. `seed` is
/// carried into the report for labeling only; `uses_mmio` gates the
/// RTL backend exactly as [`FuzzProgram::uses_mmio`] does.
pub fn run_source(seed: u64, src: &str, uses_mmio: bool, opts: &MatrixOptions) -> CaseReport {
    let report = |status: CaseStatus, checks: u32, retired: u64| CaseReport {
        seed,
        status,
        checks,
        retired,
    };
    let elf = match cabt_tricore::asm::assemble(src) {
        Ok(elf) => elf,
        Err(e) => return report(CaseStatus::Error(format!("assemble: {e}")), 0, 0),
    };
    // Pre-execution filter (PR 8 static analyzer): degenerate programs
    // are skipped, not run.
    match cabt_sim::analyze::analyze_elf(&elf) {
        Ok(r) => {
            if let Some(reason) = r.skipped {
                return report(CaseStatus::Skip(format!("analyzer: {reason}")), 0, 0);
            }
            if r.findings
                .iter()
                .any(|f| f.kind == cabt_exec::analyze::FindingKind::UnboundedRecursion)
            {
                return report(
                    CaseStatus::Skip("analyzer: unbounded recursion".into()),
                    0,
                    0,
                );
            }
        }
        Err(e) => return report(CaseStatus::Error(format!("analyze: {e}")), 0, 0),
    }

    let golden_naive = Backend::Golden {
        dispatch: Dispatch::Naive,
    };
    let mut reference = match build(&elf, golden_naive) {
        Ok(s) => s,
        Err(e) => return report(CaseStatus::Error(format!("build reference: {e}")), 0, 0),
    };
    let ref_end = run_to(&mut reference, Limit::Cycles(opts.cycle_cap));
    let ref_retired = reference.stats().retired;
    if ref_end == RunEnd::Limited {
        return report(
            CaseStatus::Skip(format!("cycle cap {} reached", opts.cycle_cap)),
            0,
            ref_retired,
        );
    }
    let clean = ref_end == RunEnd::Halted;
    let ref_final = clean.then(|| final_state(&reference));

    let mut div: Vec<Divergence> = Vec::new();
    let mut checks = 0u32;

    // In-family chains: golden tiers against the naive golden.
    let mut cross: Vec<(String, FinalState)> = Vec::new();
    for subject in [Backend::golden(), Backend::golden_trace()] {
        checks += 1;
        let f = family_chain(
            &format!("family-chain:{subject}"),
            &elf,
            golden_naive,
            subject,
            opts,
            &mut div,
        );
        if let Some(f) = f {
            cross.push((subject.to_string(), f));
        }
    }
    // In-family chains: each translated level's compiled tier against
    // that level's naive core (which also yields the cross-ISA finals).
    for &level in &opts.levels {
        let naive = Backend::Translated { level, naive: true };
        // The family reference itself must agree with golden on *how*
        // the run ends — the chain below only pins the tiers to each
        // other, so this is the sole check that sees a fault shared by
        // the whole translated vehicle.
        checks += 1;
        stop_parity_check(
            &format!("cross-isa:stop:translated:{level}"),
            &elf,
            naive,
            &ref_end,
            opts,
            &mut div,
        );
        let subject = Backend::translated(level);
        checks += 1;
        let f = family_chain(
            &format!("family-chain:{subject}"),
            &elf,
            naive,
            subject,
            opts,
            &mut div,
        );
        if let Some(f) = f {
            cross.push((subject.to_string(), f));
        }
    }

    if let Some(ref_final) = &ref_final {
        // Cross-ISA finals: every halted subject against the golden
        // reference, in source terms.
        for (name, f) in &cross {
            checks += 1;
            diff_finals(
                &format!("cross-isa:{name}"),
                "golden:naive",
                ref_final,
                name,
                f,
                &mut div,
            );
        }
        // RTL, where the workload fits.
        if ref_retired <= opts.rtl_max_retired && !uses_mmio {
            checks += 1;
            let limit = Limit::Retirements(ref_retired * 2 + 10_000);
            if let Some(f) = run_final("cross-isa:rtl", &elf, Backend::Rtl, limit, &mut div) {
                diff_finals(
                    "cross-isa:rtl",
                    "golden:naive",
                    ref_final,
                    "rtl",
                    &f,
                    &mut div,
                );
            }
        }
        // Cross-ISA memory: golden vs the static-level translated
        // image (guest data sections live at source addresses on both).
        if opts.levels.contains(&DetailLevel::Static) {
            checks += 1;
            if let Ok(mut t) = build(&elf, Backend::translated(DetailLevel::Static)) {
                if run_to(&mut t, Limit::Cycles(opts.cycle_cap * 4)) == RunEnd::Halted {
                    diff_memory("cross-isa:memory", &elf, &mut reference, &mut t, &mut div);
                }
            }
        }
        // Sharded sequential-vs-pooled, and the mid-epoch snapshot
        // probes over the suspected tiers.
        for &cores in &opts.shard_cores {
            checks += 2;
            sharded_schedule_check(&elf, cores, Backend::golden(), opts, &mut div);
            sharded_schedule_check(&elf, cores, Backend::golden_trace(), opts, &mut div);
        }
        if let Some(&cores) = opts.shard_cores.first() {
            checks += 1;
            sharded_schedule_check(
                &elf,
                cores,
                Backend::translated(DetailLevel::Static),
                opts,
                &mut div,
            );
        }
        for probe in [
            Backend::golden_trace(),
            Backend::translated(DetailLevel::Static),
            Backend::sharded(2, Backend::golden()),
            Backend::sharded(2, Backend::golden_trace()),
        ] {
            checks += 1;
            snapshot_replay_check(&elf, probe, opts, &mut div);
        }
    }

    let status = if div.is_empty() {
        CaseStatus::Pass
    } else {
        CaseStatus::Diverged(div)
    };
    report(status, checks, ref_retired)
}

/// Generates the program for `seed` and runs it across the matrix.
pub fn run_case(seed: u64, opts: &MatrixOptions) -> CaseReport {
    run_program(&gen::generate(seed), opts)
}
