//! Differential fuzz loop CLI: generates seed-reproducible guest
//! programs and runs each across the full execution matrix — golden
//! and translated vehicles × naive/pre-decoded/trace dispatch, RTL
//! where the workload fits, sharded sequential-vs-pooled schedules —
//! comparing per-stride digest chains, final architectural state,
//! guest memory, UART logs, and fault parity.
//!
//! ```sh
//! cabt-fuzz --seed 42                # one seed, full matrix, verbose
//! cabt-fuzz --seeds 0..1000 --strict # campaign: nonzero exit on any divergence
//! cabt-fuzz --smoke                  # bounded CI profile (~seconds)
//! cabt-fuzz --seed 42 --emit         # print the generated assembly and exit
//! cabt-fuzz --seeds 0..100 --shrink  # auto-minimize any diverging seed
//! ```
//!
//! Every failure line names the seed and the check that disagreed;
//! `cabt-fuzz --seed N` reproduces it exactly (generation is a pure
//! function of the seed). See `docs/fuzzing.md`.

use cabt_fuzz::{generate, run_program, shrink, CaseStatus, MatrixOptions};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cabt-fuzz [--seed N | --seeds A..B] [--strict] [--smoke] [--emit] [--shrink]"
    );
    ExitCode::FAILURE
}

/// `A..B` (half-open) or a single `N` (meaning `N..N+1`).
fn parse_range(s: &str) -> Option<(u64, u64)> {
    if let Some((a, b)) = s.split_once("..") {
        Some((a.parse().ok()?, b.parse().ok()?))
    } else {
        let n: u64 = s.parse().ok()?;
        Some((n, n + 1))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut range = (0u64, 100u64);
    let mut strict = false;
    let mut smoke = false;
    let mut emit = false;
    let mut do_shrink = false;
    let mut explicit_seed = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--smoke" => smoke = true,
            "--emit" => emit = true,
            "--shrink" => do_shrink = true,
            "--seed" | "--seeds" => match it.next().and_then(|s| parse_range(s)) {
                Some(r) => {
                    range = r;
                    explicit_seed = a == "--seed";
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if range.0 >= range.1 {
        return usage();
    }
    let opts = if smoke {
        MatrixOptions::smoke()
    } else {
        MatrixOptions::default()
    };
    if smoke && !explicit_seed && args.iter().all(|a| !a.starts_with("--seed")) {
        // A few seconds of release-mode wall clock on the trimmed
        // matrix — wide enough to catch a broken tier, cheap enough
        // to sit in the lint job of every CI run.
        range = (0, 400);
    }

    if emit {
        for seed in range.0..range.1 {
            print!("{}", generate(seed).source());
        }
        return ExitCode::SUCCESS;
    }

    let (mut pass, mut skip, mut diverged, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for seed in range.0..range.1 {
        let prog = generate(seed);
        let report = run_program(&prog, &opts);
        match &report.status {
            CaseStatus::Pass => {
                pass += 1;
                if explicit_seed {
                    println!(
                        "seed {seed}: pass ({} checks, {} retired)",
                        report.checks, report.retired
                    );
                }
            }
            CaseStatus::Skip(reason) => {
                skip += 1;
                if explicit_seed {
                    println!("seed {seed}: skip: {reason}");
                }
            }
            CaseStatus::Error(e) => {
                errors += 1;
                eprintln!("seed {seed}: harness error: {e}");
            }
            CaseStatus::Diverged(divs) => {
                diverged += 1;
                for d in divs {
                    eprintln!("seed {seed}: DIVERGED {d}");
                }
                if do_shrink {
                    let check = &divs[0].check;
                    let (min, attempts) = shrink(&prog, check, &opts, 400);
                    eprintln!(
                        "seed {seed}: shrunk against [{check}] in {attempts} runs; minimized source:"
                    );
                    eprint!("{}", min.source());
                }
            }
        }
        let done = seed - range.0 + 1;
        if !explicit_seed && done.is_multiple_of(100) {
            eprintln!(
                "... {done}/{} seeds ({pass} pass, {skip} skip, {diverged} diverged, {errors} errors)",
                range.1 - range.0
            );
        }
    }
    println!(
        "{} seeds: {pass} pass, {skip} skip, {diverged} diverged, {errors} errors",
        range.1 - range.0
    );
    if diverged > 0 || errors > 0 || (strict && pass == 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
