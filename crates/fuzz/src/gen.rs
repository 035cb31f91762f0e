//! Seed-reproducible structured program generator.
//!
//! A [`FuzzProgram`] is a list of self-contained [`Segment`]s rendered
//! into TriCore assembly between a fixed prologue (register
//! zero-/constant-initialization, scratch sections) and epilogue
//! (checksum fold into `%d2`, halt). The structure — not the rendered
//! text — is what the shrinker mutates: segments drop whole, loop trip
//! counts shrink, op spans shrink, and the rendered program stays
//! well-formed (labels are keyed to a segment's *original* id, so
//! dropping a segment never relabels its survivors).
//!
//! Register conventions keep every segment independently droppable:
//!
//! * `%d0..%d11` — the data pool (reads always defined: the prologue
//!   initializes all twelve).
//! * `%d12..%d14` — loop counters, written by the loop that uses them.
//! * `%d15` — read-only (the sharded loader seeds the core id here).
//! * `%a2/%a3` — memory base / zero-overhead-loop counter, set by the
//!   segment that uses them; `%a4/%a5` — indirect-branch targets;
//!   `%a6` — MMIO window base; `%a7` — CoreLink doorbell/inbox pointer,
//!   derived by the op that uses it; `%a8` — `ld.a` destination.
//! * `%a10` (stack pointer, loader-seeded) and `%a11` (link register,
//!   written by `call`) are never set directly.
//!
//! Loops are always counted with immediate trip counts, so every
//! generated program halts; trip counts are biased hot (≥ 2 visits) so
//! the trace tier forms traces over the generated bodies.

use cabt_isa::rng::Pcg32;
use std::fmt::Write as _;

/// Byte size of the `fzbuf` scratch buffer (`.bss`).
pub const BUF_BYTES: u32 = 256;
/// Number of initialized words in `fzdat` (`.data`).
pub const DATA_WORDS: u32 = 8;

/// A deliberate terminal fault, appended after every ordinary segment
/// so the fault-parity sweep can compare the whole prefix first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Load from an unmapped address.
    WildLoad,
    /// Store to an unmapped address.
    WildStore,
    /// Indirect jump out of the image.
    WildJump,
}

/// One self-contained generated code region.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Straight-line ops (ALU / memory / MMIO), with a non-droppable
    /// setup prefix (address-register bases) kept while any op remains.
    Straight {
        /// Stable label id (the segment's index at generation time).
        id: u32,
        /// Setup lines the ops depend on (address bases).
        setup: Vec<String>,
        /// Droppable op lines.
        ops: Vec<String>,
    },
    /// A compare-and-branch diamond: both arms write the data pool and
    /// rejoin.
    Branchy {
        /// Stable label id.
        id: u32,
        /// The conditional jump without its target (e.g. `jlt %d3, %d4`).
        cond: String,
        /// Taken-arm ops.
        then_ops: Vec<String>,
        /// Fall-through-arm ops.
        else_ops: Vec<String>,
    },
    /// A counted hot loop (plain `jnz` back-edge or the `loop`
    /// zero-overhead form), optionally with a nested inner loop.
    Loop {
        /// Stable label id.
        id: u32,
        /// Outer trip count (immediate, so the program always halts).
        trips: u32,
        /// Use the `loop %a3, …` zero-overhead form for the back-edge.
        zol: bool,
        /// Body ops, run every outer trip.
        body: Vec<String>,
        /// Optional nested `(trips, body)` counted on `%d13`.
        inner: Option<(u32, Vec<String>)>,
    },
    /// A data-dependent indirect branch through `%a4`/`%a5` (parity of
    /// a pool register picks the target), rejoining at the end.
    Indirect {
        /// Stable label id.
        id: u32,
        /// Pool register whose parity selects the target.
        sel: u8,
        /// Even-target ops.
        even_ops: Vec<String>,
        /// Odd-target ops.
        odd_ops: Vec<String>,
        /// Call the targets via `calli` instead of jumping via `ji`.
        via_call: bool,
    },
    /// `call`s to a local leaf function (exercises `%a11` link
    /// write/consume and the return-address paths).
    Call {
        /// Stable label id.
        id: u32,
        /// How many times the function is called (≥ 1, hot when > 1).
        calls: u32,
        /// Leaf-function body ops.
        body: Vec<String>,
    },
}

impl Segment {
    fn id(&self) -> u32 {
        match *self {
            Segment::Straight { id, .. }
            | Segment::Branchy { id, .. }
            | Segment::Loop { id, .. }
            | Segment::Indirect { id, .. }
            | Segment::Call { id, .. } => id,
        }
    }
}

/// A generated program: structured segments plus the fixed scaffolding.
#[derive(Debug, Clone)]
pub struct FuzzProgram {
    /// The seed this program was generated from.
    pub seed: u64,
    /// Initial values of the data pool `%d0..%d11`.
    pub init: Vec<u32>,
    /// The segment list, in program order.
    pub segments: Vec<Segment>,
    /// Initial contents of the `fzdat` data words.
    pub data: Vec<u32>,
    /// Deliberate terminal fault, if any.
    pub fault: Option<FaultKind>,
}

impl FuzzProgram {
    /// True if any segment touches the MMIO window (such programs need
    /// a SoC bus on golden sessions and skip the RTL backend).
    pub fn uses_mmio(&self) -> bool {
        let line_hits = |lines: &[String]| lines.iter().any(|l| l.contains("%a6"));
        self.segments.iter().any(|s| match s {
            Segment::Straight { setup, ops, .. } => line_hits(setup) || line_hits(ops),
            Segment::Branchy {
                then_ops, else_ops, ..
            } => line_hits(then_ops) || line_hits(else_ops),
            Segment::Loop { body, inner, .. } => {
                line_hits(body) || inner.as_ref().is_some_and(|(_, b)| line_hits(b))
            }
            Segment::Indirect {
                even_ops, odd_ops, ..
            } => line_hits(even_ops) || line_hits(odd_ops),
            Segment::Call { body, .. } => line_hits(body),
        })
    }

    /// Renders the program to assemblable source.
    pub fn source(&self) -> String {
        let mut s = String::new();
        s.push_str(".text\n.global _start\n_start:\n");
        for (i, &v) in self.init.iter().enumerate() {
            let _ = writeln!(s, "    movh %d{i}, {}", v >> 16);
            let _ = writeln!(s, "    addi %d{i}, %d{i}, {}", v as u16 as i16);
        }
        for i in 12..15 {
            let _ = writeln!(s, "    mov %d{i}, 0");
        }
        for seg in &self.segments {
            render_segment(&mut s, seg);
        }
        // Checksum fold: every pool register feeds `%d2`.
        s.push_str("fz_done:\n");
        for i in [0u32, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
            let _ = writeln!(s, "    add %d2, %d2, %d{i}");
        }
        if let Some(kind) = self.fault {
            match kind {
                FaultKind::WildLoad => {
                    s.push_str("    movh.a %a2, 0x1234\n    ld.w %d0, [%a2]0\n");
                }
                FaultKind::WildStore => {
                    s.push_str("    movh.a %a2, 0x1234\n    st.w [%a2]0, %d0\n");
                }
                FaultKind::WildJump => {
                    s.push_str("    movh.a %a4, 0x4000\n    ji %a4\n");
                }
            }
        }
        s.push_str("    debug\n");
        s.push_str(".data\nfzdat:\n");
        for w in &self.data {
            let _ = writeln!(s, "    .word {w:#010x}");
        }
        let _ = writeln!(s, ".bss\nfzbuf:\n    .space {BUF_BYTES}");
        s
    }
}

fn render_ops(s: &mut String, ops: &[String]) {
    for op in ops {
        let _ = writeln!(s, "    {op}");
    }
}

fn render_segment(s: &mut String, seg: &Segment) {
    match seg {
        Segment::Straight { setup, ops, .. } => {
            if !ops.is_empty() {
                render_ops(s, setup);
                render_ops(s, ops);
            }
        }
        Segment::Branchy {
            id,
            cond,
            then_ops,
            else_ops,
        } => {
            let _ = writeln!(s, "    {cond}, s{id}_t");
            render_ops(s, else_ops);
            let _ = writeln!(s, "    j s{id}_end");
            let _ = writeln!(s, "s{id}_t:");
            render_ops(s, then_ops);
            let _ = writeln!(s, "s{id}_end:");
        }
        Segment::Loop {
            id,
            trips,
            zol,
            body,
            inner,
        } => {
            if *zol {
                let _ = writeln!(s, "    mov %d12, {trips}");
                s.push_str("    mov.a %a3, %d12\n");
                let _ = writeln!(s, "s{id}_loop:");
            } else {
                let _ = writeln!(s, "    mov %d12, {trips}");
                let _ = writeln!(s, "s{id}_loop:");
            }
            render_ops(s, body);
            if let Some((itrips, ibody)) = inner {
                let _ = writeln!(s, "    mov %d13, {itrips}");
                let _ = writeln!(s, "s{id}_inner:");
                render_ops(s, ibody);
                s.push_str("    addi %d13, %d13, -1\n");
                let _ = writeln!(s, "    jnz %d13, s{id}_inner");
            }
            if *zol {
                let _ = writeln!(s, "    loop %a3, s{id}_loop");
            } else {
                s.push_str("    addi %d12, %d12, -1\n");
                let _ = writeln!(s, "    jnz %d12, s{id}_loop");
            }
        }
        Segment::Indirect {
            id,
            sel,
            even_ops,
            odd_ops,
            via_call,
        } => {
            let _ = writeln!(s, "    movh.a %a4, hi:s{id}_even");
            let _ = writeln!(s, "    lea %a4, [%a4]lo:s{id}_even");
            let _ = writeln!(s, "    movh.a %a5, hi:s{id}_odd");
            let _ = writeln!(s, "    lea %a5, [%a5]lo:s{id}_odd");
            let _ = writeln!(s, "    and %d11, %d{sel}, 1");
            if *via_call {
                let _ = writeln!(s, "    jnz %d11, s{id}_co");
                s.push_str("    calli %a4\n");
                let _ = writeln!(s, "    j s{id}_end");
                let _ = writeln!(s, "s{id}_co:");
                s.push_str("    calli %a5\n");
                let _ = writeln!(s, "    j s{id}_end");
                let _ = writeln!(s, "s{id}_even:");
                render_ops(s, even_ops);
                s.push_str("    ret\n");
                let _ = writeln!(s, "s{id}_odd:");
                render_ops(s, odd_ops);
                s.push_str("    ret\n");
            } else {
                let _ = writeln!(s, "    jnz %d11, s{id}_go");
                s.push_str("    ji %a4\n");
                let _ = writeln!(s, "s{id}_go:");
                s.push_str("    ji %a5\n");
                let _ = writeln!(s, "s{id}_even:");
                render_ops(s, even_ops);
                let _ = writeln!(s, "    j s{id}_end");
                let _ = writeln!(s, "s{id}_odd:");
                render_ops(s, odd_ops);
            }
            let _ = writeln!(s, "s{id}_end:");
        }
        Segment::Call { id, calls, body } => {
            for _ in 0..*calls {
                let _ = writeln!(s, "    call s{id}_fn");
            }
            let _ = writeln!(s, "    j s{id}_end");
            let _ = writeln!(s, "s{id}_fn:");
            render_ops(s, body);
            s.push_str("    ret\n");
            let _ = writeln!(s, "s{id}_end:");
        }
    }
}

/// Picks a data-pool register (`%d0..%d11`).
fn pool(rng: &mut Pcg32) -> u32 {
    rng.random_range(0..12)
}

/// One random ALU op over the data pool.
fn alu_op(rng: &mut Pcg32) -> String {
    let d = pool(rng);
    let a = pool(rng);
    let b = pool(rng);
    match rng.below(14) {
        0 => format!("add %d{d}, %d{a}, %d{b}"),
        1 => format!("sub %d{d}, %d{a}, %d{b}"),
        2 => format!("mul %d{d}, %d{a}, %d{b}"),
        3 => format!("and %d{d}, %d{a}, %d{b}"),
        4 => format!("or %d{d}, %d{a}, %d{b}"),
        5 => format!("xor %d{d}, %d{a}, %d{b}"),
        6 => format!("sll %d{d}, %d{a}, {}", rng.below(32)),
        7 => format!("srl %d{d}, %d{a}, {}", rng.below(32)),
        8 => format!("sra %d{d}, %d{a}, {}", rng.below(32)),
        9 => format!("div %d{d}, %d{a}, %d{b}"),
        10 => format!("rem %d{d}, %d{a}, %d{b}"),
        11 => format!(
            "addi %d{d}, %d{a}, {}",
            rng.random_range(0..65536) as i32 - 32768
        ),
        12 => format!("madd %d{d}, %d{a}, %d{b}, %d{}", pool(rng)),
        13 => format!("msub %d{d}, %d{a}, %d{b}, %d{}", pool(rng)),
        _ => unreachable!(),
    }
}

fn alu_ops(rng: &mut Pcg32, n: u32) -> Vec<String> {
    (0..n).map(|_| alu_op(rng)).collect()
}

/// One random in-bounds access to the `fzbuf`/`fzdat` windows through
/// `%a2`. Offsets are alignment-correct per access width and post-
/// increments advance in word multiples, so dropping any op keeps the
/// remainder aligned and in bounds.
fn mem_op(rng: &mut Pcg32, over_data: bool) -> String {
    let r = pool(rng);
    // Keep a safety margin for post-increment drift: ≤ 16 postinc ops
    // × 4 bytes = 64, plus max offset 60 (+4 width) stays < BUF_BYTES.
    let limit = if over_data { DATA_WORDS * 4 } else { 128 };
    let o4 = (rng.random_range(0..limit) / 4) * 4;
    let o2 = (rng.random_range(0..limit) / 2) * 2;
    let ob = rng.random_range(0..limit);
    if over_data {
        // `fzdat` is read-only by convention (stores would make the
        // in-family memory sweep compare mutated initialized data,
        // which is fine, but keeping it pristine preserves reuse as a
        // load-only source).
        return match rng.below(4) {
            0 => format!("ld.w %d{r}, [%a2]{o4}"),
            1 => format!("ld.h %d{r}, [%a2]{o2}"),
            2 => format!("ld.hu %d{r}, [%a2]{o2}"),
            _ => format!("ld.bu %d{r}, [%a2]{ob}"),
        };
    }
    match rng.below(12) {
        0 => format!("st.w [%a2+]4, %d{r}"),
        1 => format!("st.w [%a2]{o4}, %d{r}"),
        2 => format!("ld.w %d{r}, [%a2]{o4}"),
        3 => format!("st.b [%a2]{ob}, %d{r}"),
        4 => format!("ld.b %d{r}, [%a2]{ob}"),
        5 => format!("ld.bu %d{r}, [%a2]{ob}"),
        6 => format!("st.h [%a2]{o2}, %d{r}"),
        7 => format!("ld.h %d{r}, [%a2]{o2}"),
        8 => format!("ld.hu %d{r}, [%a2]{o2}"),
        9 => format!("ld.w %d{r}, [%a2+]4"),
        10 => format!("st.a [%a2]{o4}, %a10"),
        _ => format!("ld.a %a8, [%a2]{o4}"),
    }
}

/// One random MMIO access through `%a6` (UART data write, scratch-RAM
/// read/write, timer compare write). The timer window is never read
/// and its epoch never reset — both are cycle-dependent and would
/// diverge across vehicles by design — but a compare write carries
/// only a register value, and on sharded sessions it travels through
/// the barrier like any other device change.
fn mmio_op(rng: &mut Pcg32) -> String {
    let r = pool(rng);
    // `%a6` is based at the UART (IO + 0x100): the UART data register
    // is offset 0, the scratch RAM starts at +0x100 and the timer
    // compare register sits at -0xfc, so every access fits the
    // assembler's signed 10-bit offset field.
    let so4 = (rng.random_range(0..0x80) / 4) * 4;
    match rng.below(6) {
        0 => format!("st.b [%a6]0, %d{r}"),
        1 => format!("st.w [%a6]0, %d{r}"),
        2 => format!("st.w [%a6]{:#x}, %d{r}", 0x100 + so4),
        3 => format!("ld.w %d{r}, [%a6]{:#x}", 0x100 + so4),
        4 => format!("st.h [%a6]{:#x}, %d{r}", 0x100 + so4),
        _ => format!("st.w [%a6]-0xfc, %d{r}"),
    }
}

fn straight(rng: &mut Pcg32, id: u32) -> Segment {
    match rng.below(4) {
        // Pure ALU run.
        0 => {
            let n = rng.random_range(2..8);
            Segment::Straight {
                id,
                setup: Vec::new(),
                ops: alu_ops(rng, n),
            }
        }
        // Scratch-buffer memory walk.
        1 | 2 => Segment::Straight {
            id,
            setup: vec![
                "movh.a %a2, hi:fzbuf".into(),
                "lea %a2, [%a2]lo:fzbuf".into(),
            ],
            ops: (0..rng.random_range(2..9))
                .map(|_| mem_op(rng, false))
                .collect(),
        },
        // Initialized-data loads.
        _ => Segment::Straight {
            id,
            setup: vec![
                "movh.a %a2, hi:fzdat".into(),
                "lea %a2, [%a2]lo:fzdat".into(),
            ],
            ops: (0..rng.random_range(2..6))
                .map(|_| mem_op(rng, true))
                .collect(),
        },
    }
}

fn mmio_segment(rng: &mut Pcg32, id: u32) -> Segment {
    Segment::Straight {
        id,
        setup: vec!["movh.a %a6, 0xf000".into(), "lea %a6, [%a6]0x100".into()],
        ops: (0..rng.random_range(2..6)).map(|_| mmio_op(rng)).collect(),
    }
}

/// One random CoreLink access through `%a6` (based at the doorbell
/// endpoint, IO + 0x2000): identity reads, doorbell rings, inbox
/// polls. The send (+0x400) and inbox (+0x800) slots sit past the
/// signed 10-bit ld/st offset field, so those ops derive a `%a7`
/// pointer themselves — every op stays independently droppable. Inbox
/// reads are deterministic by construction: 0 on single-core sessions
/// (no barrier, no delivery) and epoch-synchronous on sharded ones.
fn doorbell_op(rng: &mut Pcg32) -> String {
    let r = pool(rng);
    // Slots 0..4 cover self-sends, live peers and (on narrow fabrics)
    // out-of-range targets, which the endpoint must drop.
    let t = rng.below(4);
    match rng.below(6) {
        0 => format!("ld.w %d{r}, [%a6]0"),
        1 => format!("ld.w %d{r}, [%a6]4"),
        2 | 3 => format!("lea %a7, [%a6]{:#x}\n    st.w [%a7]0, %d{r}", 0x400 + 4 * t),
        _ => format!("lea %a7, [%a6]{:#x}\n    ld.w %d{r}, [%a7]0", 0x800 + 4 * t),
    }
}

fn doorbell_segment(rng: &mut Pcg32, id: u32) -> Segment {
    Segment::Straight {
        id,
        setup: vec!["movh.a %a6, 0xf000".into(), "lea %a6, [%a6]0x2000".into()],
        ops: (0..rng.random_range(2..6))
            .map(|_| doorbell_op(rng))
            .collect(),
    }
}

fn branchy(rng: &mut Pcg32, id: u32) -> Segment {
    let a = pool(rng);
    let b = pool(rng);
    let cond = match rng.below(10) {
        0 => format!("jeq %d{a}, %d{b}"),
        1 => format!("jne %d{a}, %d{b}"),
        2 => format!("jlt %d{a}, %d{b}"),
        3 => format!("jge %d{a}, %d{b}"),
        4 => format!("jlt.u %d{a}, %d{b}"),
        5 => format!("jge.u %d{a}, %d{b}"),
        6 => format!("jz %d{a}"),
        7 => format!("jnz %d{a}"),
        8 => format!("jgez %d{a}"),
        _ => format!("jltz %d{a}"),
    };
    let (nt, ne) = (rng.random_range(1..4), rng.random_range(1..4));
    Segment::Branchy {
        id,
        cond,
        then_ops: alu_ops(rng, nt),
        else_ops: alu_ops(rng, ne),
    }
}

fn loop_body(rng: &mut Pcg32, n: u32) -> Vec<String> {
    (0..n)
        .map(|_| {
            if rng.below(4) == 0 {
                mem_op(rng, false)
            } else {
                alu_op(rng)
            }
        })
        .collect()
}

fn hot_loop(rng: &mut Pcg32, id: u32) -> Segment {
    let nested = rng.below(3) == 0;
    let zol = !nested && rng.below(3) == 0;
    let n = rng.random_range(1..6);
    let mut body = loop_body(rng, n);
    let needs_buf = body.iter().any(|l| l.contains("%a2"));
    if needs_buf {
        // Re-anchor the base every trip so post-increments cannot walk
        // out of the buffer.
        body.insert(0, "movh.a %a2, hi:fzbuf".into());
        body.insert(1, "lea %a2, [%a2]lo:fzbuf".into());
    }
    Segment::Loop {
        id,
        trips: rng.random_range(4..48),
        zol,
        body,
        inner: nested.then(|| {
            let (t, n) = (rng.random_range(2..10), rng.random_range(1..4));
            (t, alu_ops(rng, n))
        }),
    }
}

fn indirect(rng: &mut Pcg32, id: u32) -> Segment {
    let sel = pool(rng) as u8;
    let (ne, no) = (rng.random_range(1..3), rng.random_range(1..3));
    Segment::Indirect {
        id,
        sel,
        even_ops: alu_ops(rng, ne),
        odd_ops: alu_ops(rng, no),
        via_call: rng.below(3) == 0,
    }
}

fn call_segment(rng: &mut Pcg32, id: u32) -> Segment {
    let (calls, n) = (rng.random_range(1..4), rng.random_range(1..4));
    Segment::Call {
        id,
        calls,
        body: alu_ops(rng, n),
    }
}

/// Generates the program for `seed`. Deterministic: the same seed
/// always yields the same program, on every host.
pub fn generate(seed: u64) -> FuzzProgram {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xcab7_f00d);
    let init: Vec<u32> = (0..12).map(|_| rng.next_u32()).collect();
    let data: Vec<u32> = (0..DATA_WORDS).map(|_| rng.next_u32()).collect();
    let n_segments = rng.random_range(3..9);
    let mut segments = Vec::new();
    // Trace-tier bias: every program carries at least one hot loop.
    let forced_loop_at = rng.below(n_segments as usize) as u32;
    for id in 0..n_segments {
        let seg = if id == forced_loop_at {
            hot_loop(&mut rng, id)
        } else {
            match rng.below(100) {
                0..=24 => hot_loop(&mut rng, id),
                25..=44 => straight(&mut rng, id),
                45..=59 => branchy(&mut rng, id),
                60..=74 => indirect(&mut rng, id),
                75..=86 => call_segment(&mut rng, id),
                87..=93 => mmio_segment(&mut rng, id),
                _ => doorbell_segment(&mut rng, id),
            }
        };
        segments.push(seg);
    }
    debug_assert!(segments.windows(2).all(|w| w[0].id() < w[1].id()));
    let fault = match rng.below(20) {
        0 => Some(FaultKind::WildLoad),
        1 => Some(FaultKind::WildStore),
        2 => Some(FaultKind::WildJump),
        _ => None,
    };
    FuzzProgram {
        seed,
        init,
        segments,
        data,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.source(), b.source(), "seed {seed}");
        }
    }

    #[test]
    fn generated_programs_assemble() {
        for seed in 0..200 {
            let p = generate(seed);
            let src = p.source();
            cabt_tricore::asm::assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn doorbell_templates_occur_and_assemble() {
        // The CoreLink templates must actually appear across a modest
        // seed range (generated_programs_assemble already proves they
        // assemble), and any program carrying one must flag MMIO so
        // golden sessions get a bus and the RTL leg is skipped.
        let doorbell_seeds: Vec<u64> = (0..200)
            .filter(|&s| generate(s).source().contains("[%a6]0x2000"))
            .collect();
        assert!(
            doorbell_seeds.len() >= 10,
            "doorbell segments too rare: {doorbell_seeds:?}"
        );
        for &s in &doorbell_seeds {
            assert!(generate(s).uses_mmio(), "seed {s}: doorbell is MMIO");
        }
    }

    #[test]
    fn programs_are_biased_toward_hot_loops() {
        let with_loop = (0..100)
            .filter(|&s| {
                generate(s)
                    .segments
                    .iter()
                    .any(|seg| matches!(seg, Segment::Loop { .. }))
            })
            .count();
        assert_eq!(with_loop, 100, "every program carries a hot loop");
    }
}
