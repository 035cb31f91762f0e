//! The ring SPMD program of the `noc_spmd` workload.
//!
//! Every core runs the same image. It reads its id and the core count
//! from the CoreLink registers, then runs `rounds` rounds. Each round
//! multiply-accumulates `words` seeded words (accumulator seeded with the
//! round number) into `%d2`, rings the successor's doorbell with the
//! round number and spins until the predecessor's inbox shows that
//! round. Because `%d2` only collects the MAC sums and the round
//! numbers, every core halts with the same checksum, which
//! [`Ring::expected_d2`] predicts. A lone core (core count 1, or 0 on a
//! vehicle without a CoreLink) skips the doorbell exchange, so the image
//! also runs as a plain single-core program.

use cabt_isa::rng::Pcg32;
use std::fmt::Write as _;

/// Largest round count the program's 16-bit round-limit immediate holds.
pub const MAX_ROUNDS: u32 = 32_767;

/// A generated ring program and its predicted checksum.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Assembly source, inputs baked into `.data`.
    pub source: String,
    /// Rounds every core runs.
    pub rounds: u32,
    /// Words multiply-accumulated per round.
    pub words: u32,
    /// The checksum every core must leave in `%d2`.
    pub expected_d2: u32,
}

/// Generates the ring program: `rounds` rounds of a `words`-word MAC,
/// data drawn from `seed`.
///
/// # Panics
///
/// Panics unless `1 <= rounds <= MAX_ROUNDS` and `words >= 1`.
pub fn ring(rounds: u32, words: u32, seed: u64) -> Ring {
    assert!((1..=MAX_ROUNDS).contains(&rounds), "rounds out of range");
    assert!(words >= 1, "a round multiplies at least one word");
    let mut rng = Pcg32::seed_from_u64(seed);
    let xs: Vec<u32> = (0..words).map(|_| rng.random_range(0..4096u32)).collect();
    let hs: Vec<u32> = (0..words).map(|_| rng.random_range(0..128u32)).collect();
    Ring {
        source: source(rounds, words, &xs, &hs),
        rounds,
        words,
        expected_d2: model(rounds, &xs, &hs),
    }
}

/// The Rust model: round `r` adds `r + Σ x·h` (wrapping) to `%d2`.
fn model(rounds: u32, xs: &[u32], hs: &[u32]) -> u32 {
    let mac = xs
        .iter()
        .zip(hs)
        .fold(0u32, |acc, (&x, &h)| acc.wrapping_add(x.wrapping_mul(h)));
    (1..=rounds).fold(0u32, |d2, r| d2.wrapping_add(r.wrapping_add(mac)))
}

fn words_directive(label: &str, values: &[u32]) -> String {
    let mut s = format!("{label}:\n");
    for chunk in values.chunks(8) {
        let list: Vec<String> = chunk.iter().map(u32::to_string).collect();
        let _ = writeln!(s, "    .word {}", list.join(", "));
    }
    s
}

fn source(rounds: u32, words: u32, xs: &[u32], hs: &[u32]) -> String {
    format!(
        "
    .text
_start:
    movh.a %a2, 0xf000
    lea    %a2, [%a2]0x2000     # CoreLink id/count registers
    ld.w   %d10, [%a2]0         # this core's id
    ld.w   %d11, [%a2]4         # core count
    # successor doorbell: 0xf000_2400 + 4*((id+1) mod n)
    addi   %d6, %d10, 1
    jlt    %d6, %d11, have_succ
    mov    %d6, 0
have_succ:
    sll    %d6, %d6, 2
    movh   %d7, 0xf000
    addi   %d7, %d7, 0x2400
    add    %d7, %d7, %d6
    mov.a  %a4, %d7
    # predecessor inbox: 0xf000_2800 + 4*((id+n-1) mod n)
    add    %d6, %d10, %d11
    addi   %d6, %d6, -1
    jlt    %d6, %d11, have_pred
    sub    %d6, %d6, %d11
have_pred:
    sll    %d6, %d6, 2
    movh   %d7, 0xf000
    addi   %d7, %d7, 0x2800
    add    %d7, %d7, %d6
    mov.a  %a5, %d7
    mov    %d2, 0
    mov    %d12, 0              # round number
    mov    %d13, {rounds}
    mov    %d9, 1
round:
    addi   %d12, %d12, 1
    movh.a %a6, hi:xs
    lea    %a6, [%a6]lo:xs
    movh.a %a7, hi:hs
    lea    %a7, [%a7]lo:hs
    mov    %d0, %d12            # accumulator starts at the round number
    mov    %d6, {words}
    mov.a  %a3, %d6
mac:
    ld.w   %d3, [%a6+]4
    ld.w   %d4, [%a7+]4
    madd   %d0, %d0, %d3, %d4
    loop   %a3, mac
    add    %d2, %d0
    jge.u  %d9, %d11, next      # a lone core (or no CoreLink) has no ring
    st.w   [%a4]0, %d12         # ring the successor
wait:
    ld.w   %d1, [%a5]0
    jlt.u  %d1, %d12, wait      # until the predecessor reached this round
next:
    jlt    %d12, %d13, round
    debug
    .data
{xs}
{hs}",
        xs = words_directive("xs", xs),
        hs = words_directive("hs", hs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cabt_core::DetailLevel;
    use cabt_exec::{ExecutionEngine, Limit, StopCause};
    use cabt_sim::{Backend, SimBuilder};

    fn run_sharded(r: &Ring, cores: u16, base: Backend) {
        let mut s = SimBuilder::asm(r.source.clone())
            .backend(Backend::sharded(cores, base))
            .shard_epoch(1024)
            .build()
            .unwrap_or_else(|e| panic!("{cores} cores on {base}: {e}"));
        assert_eq!(
            s.run(Limit::Cycles(u64::MAX)).unwrap(),
            StopCause::Halted,
            "{cores} cores on {base}"
        );
        for i in 0..usize::from(cores) {
            assert_eq!(
                s.shard(i).unwrap().read_d(2),
                r.expected_d2,
                "core {i} of {cores} on {base}"
            );
        }
        let epochs = s.sharded_stats().unwrap().epochs;
        assert!(
            epochs > u64::from(r.rounds),
            "every round crosses a barrier: {epochs} epochs for {} rounds",
            r.rounds
        );
    }

    #[test]
    fn model_matches_sharded_golden_runs() {
        let r = ring(12, 9, 3);
        for cores in [2, 4, 64] {
            run_sharded(&r, cores, Backend::golden_trace());
        }
    }

    #[test]
    fn model_matches_sharded_translated_runs() {
        let r = ring(6, 5, 4);
        for cores in [2, 4, 64] {
            run_sharded(&r, cores, Backend::translated(DetailLevel::Cache));
        }
    }

    #[test]
    fn a_lone_core_runs_without_the_fabric() {
        let r = ring(20, 16, 5);
        for backend in [
            Backend::golden(),
            Backend::translated_trace(DetailLevel::Cache),
        ] {
            let mut s = SimBuilder::asm(r.source.clone())
                .backend(backend)
                .build()
                .unwrap();
            assert_eq!(s.run(Limit::Cycles(u64::MAX)).unwrap(), StopCause::Halted);
            assert_eq!(s.read_d(2), r.expected_d2, "{backend}");
            assert!(s.cycle() > 0);
        }
    }

    #[test]
    fn checksum_depends_on_the_seed_and_the_rounds() {
        assert_ne!(ring(10, 8, 1).expected_d2, ring(10, 8, 2).expected_d2);
        assert_ne!(ring(10, 8, 1).expected_d2, ring(11, 8, 1).expected_d2);
        assert_eq!(ring(10, 8, 1).source, ring(10, 8, 1).source);
    }
}
