//! The paper's benchmark programs, in source-processor assembly.
//!
//! §4: "The examples consist of two more control flow dominated programs
//! (gcd, sieve), two filters (fir, ellip), and two programs that are
//! part of audio decoding routines (dpcm, subband)" — plus `fibonacci`
//! for the Table 2 comparison. Each [`Workload`] carries the assembly
//! source (with seeded input data baked into `.data`), a Rust reference
//! model that predicts the program's checksum (left in `%d2` at halt),
//! and assembles to the same ELF object code the translator consumes.
//!
//! The programs are written to exhibit the paper's structural traits:
//! `gcd`/`sieve` are built from many small basic blocks, `ellip` and
//! `subband` from large straight-line blocks (fully unrolled filter
//! sections), `fir` uses the zero-overhead loop instruction, and `dpcm`
//! mixes data flow with clamping branches.

use cabt_isa::elf::ElfFile;
use cabt_isa::rng::Pcg32 as StdRng;
use cabt_tricore::asm::{assemble, AsmError};
use std::fmt::Write as _;

/// A benchmark program: source, name and predicted checksum.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name as used in the paper's figures.
    pub name: &'static str,
    /// Assembly source, inputs baked in.
    pub source: String,
    /// The checksum the program must leave in `%d2` at halt.
    pub expected_d2: u32,
}

impl Workload {
    /// Assembles the workload to an ELF image.
    ///
    /// # Errors
    ///
    /// Returns the assembler error (a bug in the generator if it ever
    /// fires).
    pub fn elf(&self) -> Result<ElfFile, AsmError> {
        assemble(&self.source)
    }
}

/// `label:` and then `.word` lines of eight values each, as signed
/// decimals, written into one buffer sized up front.
fn data_words(label: &str, values: &[u32]) -> String {
    const LINE: usize = "    .word \n".len();
    // At most "-2147483648, " per value.
    let mut s =
        Vec::with_capacity(label.len() + 2 + values.len().div_ceil(8) * LINE + values.len() * 13);
    s.extend_from_slice(label.as_bytes());
    s.extend_from_slice(b":\n");
    for chunk in values.chunks(8) {
        s.extend_from_slice(b"    .word ");
        for (i, &v) in chunk.iter().enumerate() {
            if i > 0 {
                s.extend_from_slice(b", ");
            }
            push_decimal(&mut s, v as i32);
        }
        s.push(b'\n');
    }
    String::from_utf8(s).expect("labels and decimals are UTF-8")
}

/// Appends `v` in decimal, as `{}` would format it.
fn push_decimal(s: &mut Vec<u8>, v: i32) {
    let mut digits = [0u8; 11];
    let mut i = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        i -= 1;
        digits[i] = b'-';
    }
    s.extend_from_slice(&digits[i..]);
}

/// `gcd` — subtraction-based greatest common divisor over `pairs` random
/// pairs; control-flow dominated, tiny basic blocks.
pub fn gcd(pairs: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<u32> = (0..pairs * 2)
        .map(|_| rng.random_range(1..500u32))
        .collect();

    // Reference model (identical algorithm).
    let mut expected = 0u32;
    for p in values.chunks(2) {
        let (mut a, mut b) = (p[0], p[1]);
        while a != b {
            if a > b {
                a -= b;
            } else {
                b -= a;
            }
        }
        expected = expected.wrapping_add(a);
    }

    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:pairs
    lea    %a2, [%a2]lo:pairs
    mov    %d5, {pairs}
    mov    %d2, 0
pair_loop:
    ld.w   %d0, [%a2+]4
    ld.w   %d1, [%a2+]4
gcd_loop:
    jeq    %d0, %d1, gcd_done
    jlt    %d0, %d1, b_bigger
    sub    %d0, %d1
    j      gcd_loop
b_bigger:
    sub    %d1, %d0
    j      gcd_loop
gcd_done:
    add    %d2, %d0
    addi   %d5, %d5, -1
    jnz    %d5, pair_loop
    debug
    .data
{data}",
        pairs = pairs,
        data = data_words("pairs", &values)
    );
    Workload {
        name: "gcd",
        source,
        expected_d2: expected,
    }
}

/// `fibonacci` — `reps` iterations of an iterative Fibonacci of depth
/// `k`; small blocks, pure register data flow (Table 2 workload).
pub fn fibonacci(reps: u32, k: u32) -> Workload {
    let mut expected = 0u32;
    for _ in 0..reps {
        let (mut a, mut b) = (0u32, 1u32);
        for _ in 0..k {
            let t = a.wrapping_add(b);
            a = b;
            b = t;
        }
        expected = expected.wrapping_add(a);
    }
    let source = format!(
        "
    .text
_start:
    mov    %d5, {reps}
    mov    %d2, 0
outer:
    mov    %d0, 0
    mov    %d1, 1
    mov    %d3, {k}
fib_loop:
    add    %d4, %d0, %d1
    mov    %d0, %d1
    mov    %d1, %d4
    addi   %d3, %d3, -1
    jnz    %d3, fib_loop
    add    %d2, %d0
    addi   %d5, %d5, -1
    jnz    %d5, outer
    debug
"
    );
    Workload {
        name: "fibonacci",
        source,
        expected_d2: expected,
    }
}

/// `sieve` — sieve of Eratosthenes up to `n` (byte flags); many small
/// basic blocks. The checksum is the prime count.
///
/// # Panics
///
/// Panics if `n` is outside `3..=30000`.
pub fn sieve(n: u32) -> Workload {
    assert!(
        (3..=30000).contains(&n),
        "sieve size out of supported range"
    );
    let mut flags = vec![true; n as usize];
    let mut expected = 0u32;
    for i in 2..n as usize {
        if flags[i] {
            expected += 1;
            let mut j = 2 * i;
            while j < n as usize {
                flags[j] = false;
                j += i;
            }
        }
    }
    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:flags
    lea    %a2, [%a2]lo:flags
    mov    %d0, {n}
    mov    %d1, 1
    mov    %d3, {n}
    mov.a  %a3, %d3
    mov.aa %a4, %a2
init:
    st.b   [%a4+]1, %d1
    loop   %a3, init
    mov    %d2, 0
    mov    %d3, 2
outer:
    jge    %d3, %d0, done
    mov.d  %d6, %a2
    add    %d6, %d6, %d3
    mov.a  %a5, %d6
    ld.bu  %d7, [%a5]0
    jz     %d7, next
    addi   %d2, %d2, 1
    add    %d8, %d3, %d3
    mov    %d9, 0
mark:
    jge    %d8, %d0, next
    mov.d  %d6, %a2
    add    %d6, %d6, %d8
    mov.a  %a5, %d6
    st.b   [%a5]0, %d9
    add    %d8, %d3
    j      mark
next:
    addi   %d3, %d3, 1
    j      outer
done:
    debug
    .bss
flags: .space {space}
",
        n = n,
        space = (n + 3) & !3
    );
    Workload {
        name: "sieve",
        source,
        expected_d2: expected,
    }
}

/// `fir` — `taps`-tap FIR filter over `samples` random samples using the
/// multiply-accumulate and zero-overhead loop instructions.
///
/// # Panics
///
/// Panics unless `taps >= 2` and `samples > taps`.
pub fn fir(taps: usize, samples: usize, seed: u64) -> Workload {
    assert!(taps >= 2 && samples > taps);
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<u32> = (0..samples).map(|_| rng.random_range(0..4096u32)).collect();
    let hs: Vec<u32> = (0..taps).map(|_| rng.random_range(0..128u32)).collect();

    let outputs = samples - taps + 1;
    let mut expected = 0u32;
    for n in 0..outputs {
        let mut acc = 0u32;
        for (k, &h) in hs.iter().enumerate() {
            acc = acc.wrapping_add(xs[n + k].wrapping_mul(h));
        }
        let y = ((acc as i32) >> 8) as u32;
        expected = expected.wrapping_add(y);
    }

    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:samples
    lea    %a2, [%a2]lo:samples
    movh.a %a4, hi:coeffs
    lea    %a4, [%a4]lo:coeffs
    mov    %d5, {outputs}
    mov    %d2, 0
outer:
    mov.aa %a6, %a2
    mov.aa %a7, %a4
    mov    %d0, 0
    mov    %d6, {taps}
    mov.a  %a3, %d6
inner:
    ld.w   %d3, [%a6+]4
    ld.w   %d4, [%a7+]4
    madd   %d0, %d0, %d3, %d4
    loop   %a3, inner
    sra    %d0, %d0, 8
    add    %d2, %d0
    lea    %a2, [%a2]4
    addi   %d5, %d5, -1
    jnz    %d5, outer
    debug
    .data
{xs}
{hs}",
        outputs = outputs,
        taps = taps,
        xs = data_words("samples", &xs),
        hs = data_words("coeffs", &hs)
    );
    Workload {
        name: "fir",
        source,
        expected_d2: expected,
    }
}

/// Biquad coefficients of the elliptic filter sections (scaled by 256):
/// `b0, b1, b2, a1, a2` with the feedback terms already negated.
const ELLIP_SECTIONS: [[i32; 5]; 5] = [
    [34, 12, 34, -90, 30],
    [40, -25, 40, -70, 45],
    [28, 18, 28, -110, 25],
    [45, -10, 45, -60, 55],
    [30, 22, 30, -95, 35],
];

/// `ellip` — a five-section elliptic IIR filter cascade with all
/// sections unrolled into one large basic block per sample.
pub fn ellip(samples: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<u32> = (0..samples).map(|_| rng.random_range(0..2048u32)).collect();

    // Reference: direct form II transposed, integer, wrapping — the
    // exact operation sequence of the generated assembly.
    let mut s1 = [0u32; 5];
    let mut s2 = [0u32; 5];
    let mut expected = 0u32;
    for &xin in &xs {
        let mut x = xin;
        for (i, c) in ELLIP_SECTIONS.iter().enumerate() {
            let y = ((x.wrapping_mul(c[0] as u32).wrapping_add(s1[i]) as i32) >> 8) as u32;
            s1[i] = x
                .wrapping_mul(c[1] as u32)
                .wrapping_add(y.wrapping_mul(c[3] as u32))
                .wrapping_add(s2[i]);
            s2[i] = x
                .wrapping_mul(c[2] as u32)
                .wrapping_add(y.wrapping_mul(c[4] as u32));
            x = y;
        }
        expected = expected.wrapping_add(x);
    }

    // States live in registers: s1 -> d4,d6,d8,d10,d12; s2 -> d5,d7,d9,d11,d13.
    let mut body = String::new();
    for (i, c) in ELLIP_SECTIONS.iter().enumerate() {
        let (r1, r2) = (4 + 2 * i, 5 + 2 * i);
        let _ = writeln!(body, "    mul    %d14, %d0, {}", c[0]);
        let _ = writeln!(body, "    add    %d14, %d14, %d{r1}");
        let _ = writeln!(body, "    sra    %d1, %d14, 8");
        let _ = writeln!(body, "    mul    %d15, %d0, {}", c[1]);
        let _ = writeln!(body, "    mul    %d14, %d1, {}", c[3]);
        let _ = writeln!(body, "    add    %d15, %d15, %d14");
        let _ = writeln!(body, "    add    %d{r1}, %d15, %d{r2}");
        let _ = writeln!(body, "    mul    %d15, %d0, {}", c[2]);
        let _ = writeln!(body, "    mul    %d14, %d1, {}", c[4]);
        let _ = writeln!(body, "    add    %d{r2}, %d15, %d14");
        let _ = writeln!(body, "    mov    %d0, %d1");
    }

    let mut zero_states = String::new();
    for r in 4..14 {
        let _ = writeln!(zero_states, "    mov    %d{r}, 0");
    }

    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:samples
    lea    %a2, [%a2]lo:samples
    mov    %d3, {n}
    mov    %d2, 0
{zero_states}
outer:
    ld.w   %d0, [%a2+]4
{body}
    add    %d2, %d0
    addi   %d3, %d3, -1
    jnz    %d3, outer
    debug
    .data
{xs}",
        n = samples,
        zero_states = zero_states,
        body = body,
        xs = data_words("samples", &xs)
    );
    Workload {
        name: "ellip",
        source,
        expected_d2: expected,
    }
}

/// `dpcm` — differential PCM encoder with quantizer clamping; mixes data
/// flow with short conditional blocks.
pub fn dpcm(samples: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<u32> = (0..samples).map(|_| rng.random_range(0..256u32)).collect();

    let mut pred = 0u32;
    let mut expected = 0u32;
    for &x in &xs {
        // The generated assembly's two-compare quantizer is exactly a
        // clamp to the 6-bit signed range.
        let delta = (x.wrapping_sub(pred) as i32).clamp(-32, 31);
        pred = pred.wrapping_add(delta as u32);
        expected = expected.wrapping_add(delta as u32);
    }

    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:samples
    lea    %a2, [%a2]lo:samples
    mov    %d5, {n}
    mov    %d0, 0
    mov    %d2, 0
enc:
    ld.w   %d1, [%a2+]4
    sub    %d3, %d1, %d0
    mov    %d4, 31
    jlt    %d3, %d4, chk_lo
    mov    %d3, 31
    j      apply
chk_lo:
    mov    %d4, -32
    jge    %d3, %d4, apply
    mov    %d3, -32
apply:
    add    %d0, %d3
    add    %d2, %d3
    addi   %d5, %d5, -1
    jnz    %d5, enc
    debug
    .data
{xs}",
        n = samples,
        xs = data_words("samples", &xs)
    );
    Workload {
        name: "dpcm",
        source,
        expected_d2: expected,
    }
}

/// QMF prototype filter (scaled by 256), 8 taps.
const QMF_TAPS: [i32; 8] = [12, -34, 90, 180, 180, 90, -34, 12];

/// `subband` — two-band QMF analysis filterbank with both bands fully
/// unrolled (one very large basic block per output pair).
pub fn subband(outputs: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let nsamples = outputs * 2 + QMF_TAPS.len();
    let xs: Vec<u32> = (0..nsamples)
        .map(|_| rng.random_range(0..2048u32))
        .collect();

    let mut expected = 0u32;
    for n in 0..outputs {
        let mut lo = 0u32;
        let mut hi = 0u32;
        for (k, &h) in QMF_TAPS.iter().enumerate() {
            let x = xs[2 * n + k];
            lo = lo.wrapping_add(x.wrapping_mul(h as u32));
            let sh = if k % 2 == 0 { h } else { -h };
            hi = hi.wrapping_add(x.wrapping_mul(sh as u32));
        }
        let lo = ((lo as i32) >> 8) as u32;
        let hi = ((hi as i32) >> 8) as u32;
        expected = expected.wrapping_add(lo).wrapping_add(hi);
    }

    // Fully unrolled: 8 loads into d6..d13, then the two MAC chains.
    let mut body = String::new();
    for k in 0..8 {
        let _ = writeln!(body, "    ld.w   %d{}, [%a6]{}", 6 + k, 4 * k);
    }
    let _ = writeln!(body, "    mul    %d0, %d6, {}", QMF_TAPS[0]);
    for (k, &h) in QMF_TAPS.iter().enumerate().skip(1) {
        let _ = writeln!(body, "    mul    %d14, %d{}, {}", 6 + k, h);
        let _ = writeln!(body, "    add    %d0, %d0, %d14");
    }
    let _ = writeln!(body, "    mul    %d1, %d6, {}", QMF_TAPS[0]);
    for (k, &h) in QMF_TAPS.iter().enumerate().skip(1) {
        let sh = if k % 2 == 0 { h } else { -h };
        let _ = writeln!(body, "    mul    %d14, %d{}, {}", 6 + k, sh);
        let _ = writeln!(body, "    add    %d1, %d1, %d14");
    }

    let source = format!(
        "
    .text
_start:
    movh.a %a2, hi:samples
    lea    %a2, [%a2]lo:samples
    mov    %d5, {outputs}
    mov    %d2, 0
outer:
    mov.aa %a6, %a2
{body}
    sra    %d0, %d0, 8
    sra    %d1, %d1, 8
    add    %d2, %d0
    add    %d2, %d1
    lea    %a2, [%a2]8
    addi   %d5, %d5, -1
    jnz    %d5, outer
    debug
    .data
{xs}",
        outputs = outputs,
        body = body,
        xs = data_words("samples", &xs)
    );
    Workload {
        name: "subband",
        source,
        expected_d2: expected,
    }
}

/// `producer_consumer` — the multi-core SPMD workload: every core runs
/// this same image and picks its role from the core id the sharded
/// session seeds into `%d15` (0 on single-core sessions).
///
/// Core 0 (the producer) copies `words` seeded values from its private
/// `.data` into the shared scratch RAM on the SoC bus (`0xf000_0204`
/// on), accumulating the checksum in `%d2` as it goes, then publishes
/// the element count through the mailbox flag word at `0xf000_0200` and
/// transmits the checksum's low byte on the UART. Every other core (a
/// consumer) polls the flag, sums the published words from the shared
/// RAM into `%d2`, and transmits the same checksum byte — so *all*
/// cores must halt with `expected_d2`, and a `cores`-way run leaves
/// `cores` copies of the byte in the merged UART log.
///
/// The data handoff crosses the shared device state, so the workload
/// exercises exactly what the sharded backend must get right:
/// deterministic epoch-barrier exchange of the mailbox RAM (consumers
/// see the producer's publish after the next barrier, identically
/// under the sequential and the pooled scheduler) and a
/// deterministic merged UART log.
///
/// # Panics
///
/// Panics unless `1 <= words <= 192` (the shared scratch RAM holds
/// 1 KiB).
pub fn producer_consumer(words: usize, seed: u64) -> Workload {
    assert!(
        (1..=192).contains(&words),
        "words out of the shared scratch RAM's range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<u32> = (0..words)
        .map(|_| rng.random_range(0..100_000u32))
        .collect();
    let expected: u32 = values.iter().fold(0u32, |a, &v| a.wrapping_add(v));

    let source = format!(
        "
    .text
_start:
    movh.a %a3, 0xf000
    lea    %a3, [%a3]0x100      # uart data register
    movh.a %a4, 0xf000
    lea    %a4, [%a4]0x200      # mailbox flag word
    jnz    %d15, consumer       # %d15 = core id (seeded by the builder)

    # -- core 0: produce ------------------------------------------------
    movh.a %a5, hi:vals
    lea    %a5, [%a5]lo:vals
    mov.aa %a6, %a4
    lea    %a6, [%a6]4          # shared buffer starts after the flag
    mov    %d5, {words}
    mov    %d2, 0
copy:
    ld.w   %d1, [%a5+]4
    st.w   [%a6+]4, %d1
    add    %d2, %d1
    addi   %d5, %d5, -1
    jnz    %d5, copy
    mov    %d1, {words}
    st.w   [%a4]0, %d1          # publish the element count
    st.w   [%a3]0, %d2          # transmit checksum (low byte)
    debug

    # -- other cores: consume -------------------------------------------
consumer:
poll:
    ld.w   %d0, [%a4]0
    jz     %d0, poll
    mov    %d5, %d0
    mov.aa %a6, %a4
    lea    %a6, [%a6]4
    mov    %d2, 0
sum:
    ld.w   %d1, [%a6+]4
    add    %d2, %d1
    addi   %d5, %d5, -1
    jnz    %d5, sum
    st.w   [%a3]0, %d2          # transmit the same checksum
    debug
    .data
{vals}",
        words = words,
        vals = data_words("vals", &values)
    );
    Workload {
        name: "producer_consumer",
        source,
        expected_d2: expected,
    }
}

/// `mailbox` — an SPMD all-to-all over the CoreLink doorbell fabric,
/// touching **no** shared RAM: every core discovers its identity from
/// the CoreLink id/count registers (`0xf000_2000` / `0xf000_2004` —
/// not the legacy `%d15` seeding), rings every peer's doorbell
/// (`0xf000_2400 + 4*t`) with its contribution `7 + 3*id`, then polls
/// its own inboxes (`0xf000_2800 + 4*s`) until all `ncores`
/// contributions have landed and sums them into `%d2`. Every core must
/// halt with the same all-reduce total `7*n + 3*n*(n-1)/2`.
///
/// The program reads the core count from CoreLink, so its image is the
/// same for every `ncores`: `ncores` sets only `expected_d2`.
/// Delivery is epoch-synchronous (doorbells travel in the barrier
/// delta), so the program only terminates on a *sharded* session on a
/// non-RTL base ([`Needs::Fabric`]) — elsewhere there is no CoreLink
/// window and the poll spins forever, which is why this workload is
/// deliberately absent from [`fig5_set`] / [`table2_set`].
///
/// # Panics
///
/// Panics unless `1 <= ncores <= 256` (the CoreLink window covers 256
/// inboxes).
pub fn mailbox(ncores: u32) -> Workload {
    assert!(
        (1..=256).contains(&ncores),
        "core count outside the CoreLink fabric's ceiling"
    );
    let expected = mailbox_sum(ncores);

    let source = format!(
        "
    .text
_start:
    movh.a %a2, 0xf000
    lea    %a2, [%a2]0x2000     # CoreLink id/count registers
    ld.w   %d10, [%a2]0         # this core's id
    ld.w   %d11, [%a2]4         # fabric core count
    mul    %d4, %d10, 3
    addi   %d4, %d4, 7          # contribution = 7 + 3*id

    # ring every peer's doorbell (self included)
    movh.a %a4, 0xf000
    lea    %a4, [%a4]0x2400     # doorbell send window
    mov    %d5, %d11
ring:
    st.w   [%a4+]4, %d4
    addi   %d5, %d5, -1
    jnz    %d5, ring

    # collect all {ncores} contributions; each poll loop spins across
    # epoch barriers until that sender's doorbell lands
    movh.a %a5, 0xf000
    lea    %a5, [%a5]0x2800     # inbox window
    mov    %d5, %d11
    mov    %d2, 0
collect:
    ld.w   %d1, [%a5]0
    jz     %d1, collect
    add    %d2, %d1
    lea    %a5, [%a5]4
    addi   %d5, %d5, -1
    jnz    %d5, collect
    debug
",
    );
    Workload {
        name: "mailbox",
        source,
        expected_d2: expected,
    }
}

/// The all-reduce total `mailbox` leaves in `%d2` on a fabric of
/// `ncores` cores: `7*n + 3*n*(n-1)/2`, wrapping like the guest's
/// 32-bit adds.
fn mailbox_sum(ncores: u32) -> u32 {
    let n = u64::from(ncores);
    let pairs = n * n.saturating_sub(1) / 2;
    (7 * n).wrapping_add(pairs.wrapping_mul(3)) as u32
}

/// One entry of the seeded known-bad corpus: a tiny program carrying
/// exactly one statically detectable defect, used to pin the analyzer's
/// findings (`cabt-analyze --known-bad` and the expected-findings CI
/// step).
#[derive(Debug, Clone)]
pub struct KnownBad {
    /// Corpus entry name (`bad-<defect>`).
    pub name: &'static str,
    /// Assembly source of the defective program.
    pub source: &'static str,
    /// The `cabt_exec::analyze::FindingKind::name` string the analyzer
    /// must report — exactly once, and nothing else.
    pub expected_finding: &'static str,
}

impl KnownBad {
    /// Assembles the corpus entry to an ELF image.
    ///
    /// # Errors
    ///
    /// Returns the assembler error (a bug in the corpus if it ever
    /// fires — the defects are semantic, not syntactic).
    pub fn elf(&self) -> Result<ElfFile, AsmError> {
        assemble(self.source)
    }
}

/// The seeded known-bad corpus: one program per defect class the
/// static analyzer detects. Each must produce exactly its
/// `expected_finding` and nothing more.
pub fn known_bad_set() -> Vec<KnownBad> {
    vec![
        KnownBad {
            name: "bad-use-before-def",
            source: "
    .text
_start:
    mov    %d1, 5
    add    %d2, %d1, %d3
    debug
",
            expected_finding: "use-before-def",
        },
        KnownBad {
            name: "bad-wild-store",
            source: "
    .text
_start:
    movh.a %a2, 0xf000
    lea    %a2, [%a2]0x1000
    mov    %d0, 1
    st.w   [%a2], %d0
    debug
",
            expected_finding: "wild-store",
        },
        KnownBad {
            name: "bad-unreachable-block",
            source: "
    .text
_start:
    mov    %d2, 1
    j      done
dead:
    mov    %d2, 2
done:
    debug
",
            expected_finding: "unreachable-block",
        },
        KnownBad {
            name: "bad-unbounded-recursion",
            source: "
    .text
_start:
    jl     f
f:
    jl     f
",
            expected_finding: "unbounded-recursion",
        },
    ]
}

/// Looks a known-bad corpus entry up by name.
pub fn known_bad_by_name(name: &str) -> Option<KnownBad> {
    known_bad_set().into_iter().find(|k| k.name == name)
}

/// The six Fig. 5 / Fig. 6 programs with their default parameters.
pub fn fig5_set() -> Vec<Workload> {
    vec![
        gcd(16, 0xcab7),
        dpcm(600, 0xcab7),
        fir(16, 300, 0xcab7),
        ellip(120, 0xcab7),
        sieve(400),
        subband(120, 0xcab7),
    ]
}

/// The executed instruction counts the paper's Table 2 reports for its
/// programs, in [`table2_set`] order: gcd, fibonacci, sieve.
pub const TABLE2_PAPER_INSTRUCTIONS: [u64; 3] = [1484, 41419, 20779];

/// The Table 2 programs, sized to land near the paper's executed
/// instruction counts ([`TABLE2_PAPER_INSTRUCTIONS`]).
pub fn table2_set() -> Vec<Workload> {
    vec![gcd(13, 0x7ab1e2), fibonacci(1150, 6), sieve(880)]
}

/// A registered name and the generator of its program.
type Registered = (&'static str, fn() -> Workload);

/// The registry: every name [`by_name`] resolves, with its program at
/// the default Fig. 5 / Table 2 parameterization, in listing order.
/// The SPMD extras ride along: `producer_consumer` and `mailbox` (at
/// its two-core default; [`on_cores`] gives its checksum at other core
/// counts).
const REGISTRY: [Registered; 9] = [
    ("gcd", || gcd(16, 0xcab7)),
    ("dpcm", || dpcm(600, 0xcab7)),
    ("fir", || fir(16, 300, 0xcab7)),
    ("ellip", || ellip(120, 0xcab7)),
    ("sieve", || sieve(400)),
    ("subband", || subband(120, 0xcab7)),
    ("fibonacci", || fibonacci(1150, 6)),
    ("producer_consumer", || producer_consumer(64, 0xcab7)),
    ("mailbox", || mailbox(2)),
];

/// Every registered workload name, in listing order.
pub fn names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _)| name)
}

/// Looks a workload up by its registered name ([`names`]) — the
/// registry behind session builders that accept a named workload. Its
/// `expected_d2` is the checksum on one core (on two for `mailbox`);
/// [`on_cores`] gives it for any core count.
pub fn by_name(name: &str) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|(_, make)| make())
}

/// What a vehicle must offer for a registered workload to halt on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// Nothing: the program halts on every vehicle.
    Nothing,
    /// The shard device fabric — a CoreLink window and the shared
    /// scratch RAM on every core — which only a sharded set on a
    /// non-RTL base has. Elsewhere the program's poll loops never end.
    Fabric,
}

/// The registered workload `name` on a vehicle of `cores` cores: its
/// program, with `expected_d2` the checksum every core leaves there,
/// and what the vehicle must offer for it to halt. `None` for an
/// unknown name.
pub fn on_cores(name: &str, cores: u32) -> Option<(Workload, Needs)> {
    let mut w = by_name(name)?;
    let needs = match name {
        // The image reads the fabric's core count from CoreLink, so
        // one image serves every width; only the sum depends on it.
        "mailbox" => {
            w.expected_d2 = mailbox_sum(cores);
            Needs::Fabric
        }
        // Consumers poll the shared scratch RAM for the producer's
        // publish; a lone core is the producer.
        "producer_consumer" if cores > 1 => Needs::Fabric,
        _ => Needs::Nothing,
    };
    Some((w, needs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_tricore::sim::Simulator;

    fn check(w: &Workload) -> cabt_tricore::sim::RunStats {
        let elf = w
            .elf()
            .unwrap_or_else(|e| panic!("{} fails to assemble: {e}", w.name));
        let mut sim =
            Simulator::new(&elf).unwrap_or_else(|e| panic!("{} fails to load: {e}", w.name));
        let stats = sim
            .run(50_000_000)
            .unwrap_or_else(|e| panic!("{} fails to run: {e}", w.name));
        assert_eq!(
            sim.cpu.d(2),
            w.expected_d2,
            "{}: checksum mismatch against the Rust reference model",
            w.name
        );
        stats
    }

    #[test]
    fn gcd_matches_reference() {
        check(&gcd(16, 0xcab7));
        check(&gcd(5, 42));
    }

    #[test]
    fn fibonacci_matches_reference() {
        check(&fibonacci(10, 20));
        check(&fibonacci(3, 40)); // wraps u32
    }

    #[test]
    fn sieve_matches_reference() {
        let s = sieve(100);
        assert_eq!(s.expected_d2, 25, "25 primes below 100");
        check(&s);
    }

    #[test]
    fn fir_matches_reference() {
        check(&fir(16, 64, 1));
        check(&fir(4, 32, 2));
    }

    #[test]
    fn ellip_matches_reference() {
        check(&ellip(32, 3));
    }

    #[test]
    fn dpcm_matches_reference() {
        check(&dpcm(100, 4));
    }

    #[test]
    fn subband_matches_reference() {
        check(&subband(16, 5));
    }

    #[test]
    fn producer_consumer_matches_reference_on_a_single_core() {
        // The workload talks to the SoC bus, so the plain `check`
        // harness (no I/O device) cannot run it; bridge the golden
        // model onto a bus with the platform's default peripherals.
        // Core id defaults to 0 (uninitialized %d15): the producer
        // role, which is the complete single-core program.
        use cabt_platform::{default_soc_bus, GoldenBridge, SharedSocBus};
        let w = producer_consumer(48, 0xfeed);
        let elf = w.elf().expect("assembles");
        let bus = SharedSocBus::new(default_soc_bus());
        let mut sim = Simulator::new(&elf).expect("loads");
        sim.set_io_device(Box::new(GoldenBridge::new(bus.clone())));
        sim.run(10_000_000).expect("halts");
        assert_eq!(sim.cpu.d(2), w.expected_d2, "producer checksum");
        let log = bus.uart_log();
        assert_eq!(log.len(), 1, "one checksum byte transmitted");
        assert_eq!(log[0].1, (w.expected_d2 & 0xff) as u8);
        // The shared buffer holds the published words behind the flag.
        assert_eq!(bus.read(0, 0xf000_0200, 4), 48, "flag = element count");
    }

    #[test]
    fn mailbox_assembles_and_predicts_the_all_reduce() {
        // The mailbox workload only *runs* on a sharded session (the
        // doorbell delivery needs epoch barriers — see
        // `tests/parallel_determinism.rs` for the execution cases), but
        // the image and the reference model are pinned here.
        for n in [1u32, 2, 64, 256] {
            let w = mailbox(n);
            w.elf()
                .unwrap_or_else(|e| panic!("mailbox({n}) fails to assemble: {e}"));
            assert_eq!(w.expected_d2, 7 * n + 3 * n * (n - 1) / 2);
        }
        assert_eq!(mailbox(64).expected_d2, 6496);
    }

    #[test]
    fn on_cores_predicts_every_width_from_the_registered_image() {
        for name in names() {
            let registered = by_name(name).expect("every listed name resolves");
            for cores in [1u32, 2, 3, 8, 256] {
                let (w, needs) = on_cores(name, cores).expect("registered");
                assert_eq!(w.source, registered.source, "{name}: one image");
                let (want, fabric) = match name {
                    "mailbox" => (mailbox(cores).expected_d2, true),
                    "producer_consumer" => (registered.expected_d2, cores > 1),
                    _ => (registered.expected_d2, false),
                };
                assert_eq!(w.expected_d2, want, "{name} on {cores} cores");
                assert_eq!(needs == Needs::Fabric, fabric, "{name} on {cores} cores");
            }
        }
        assert!(on_cores("nonesuch", 1).is_none());
        // Any core count gives a value, wrapping like the guest's adds.
        for cores in [0, u32::MAX] {
            on_cores("mailbox", cores).expect("registered");
        }
    }

    #[test]
    fn fig5_set_assembles_and_validates() {
        for w in fig5_set() {
            let stats = check(&w);
            assert!(stats.instructions > 500, "{} is too trivial", w.name);
        }
    }

    #[test]
    fn table2_instruction_counts_near_paper() {
        // Require the paper's order of magnitude (±40 %).
        for (w, t) in table2_set().iter().zip(TABLE2_PAPER_INSTRUCTIONS) {
            let stats = check(w);
            let lo = t * 6 / 10;
            let hi = t * 14 / 10;
            assert!(
                stats.instructions >= lo && stats.instructions <= hi,
                "{}: {} instructions, paper has {}",
                w.name,
                stats.instructions,
                t
            );
        }
    }

    #[test]
    fn workloads_have_distinct_block_profiles() {
        // sieve must have many small blocks; subband few large ones.
        use cabt_core::cfg::Cfg;
        let s = Cfg::build(
            &sieve(400).elf().unwrap(),
            cabt_core::Granularity::BasicBlock,
        )
        .unwrap();
        let avg_sieve = s.instr_count() as f64 / s.blocks.len() as f64;
        let b = Cfg::build(
            &subband(120, 0xcab7).elf().unwrap(),
            cabt_core::Granularity::BasicBlock,
        )
        .unwrap();
        let avg_subband = b.instr_count() as f64 / b.blocks.len() as f64;
        assert!(
            avg_subband > 4.0 * avg_sieve,
            "subband blocks ({avg_subband:.1}) must dwarf sieve blocks ({avg_sieve:.1})"
        );
    }
}
