//! `bench-diff` — compares `bench` results of a parent and a change.
//!
//! ```text
//! bench-diff [--bounds BENCHMARK.json] --parent P1 P2 ... --change C1 C2 ...
//! ```
//!
//! Each file is the saved standard output of one `bench` run. Runs pair
//! up in the order given, per workload: run them alternately (parent,
//! change, change, parent, …), at least ten pairs for a gain claim.
//! Prints one row per workload × metric with both sides' median and
//! quartiles, the change's wins and a verdict. Exits 1 when any bounded
//! metric is `worse` or `unresolved`, or a run's outputs were wrong.

use cabt_perfbench::diff::{self, Verdict, MIN_PAIRS};
use std::process::ExitCode;

const USAGE: &str = "usage: bench-diff [--bounds BENCHMARK.json] --parent FILE... --change FILE...";

fn read_runs(files: &[String]) -> Result<Vec<diff::RunResult>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            diff::parse_run(&text).map_err(|e| format!("{f}: {e}"))
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let (mut bounds, mut parent, mut change) =
        ("BENCHMARK.json".to_string(), Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bounds" => bounds = args.next().ok_or("--bounds needs a file")?,
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            _ => side
                .as_mut()
                .ok_or(format!("{a}: name --parent or --change first"))?
                .push(a),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("both --parent and --change need files".into());
    }
    let specs =
        diff::specs(&std::fs::read_to_string(&bounds).map_err(|e| format!("{bounds}: {e}"))?)?;
    let (parent, change) = (read_runs(&parent)?, read_runs(&change)?);
    let rows = diff::diff(&parent, &change, &specs);
    print!("{}", diff::render(&rows));
    let pairs = rows.iter().map(|r| r.pairs).min().unwrap_or(0);
    if pairs < MIN_PAIRS {
        println!("note: {pairs} pairs; claiming a gain needs at least {MIN_PAIRS}");
    }
    let incorrect = parent.iter().chain(&change).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("note: {incorrect} runs reported wrong outputs");
    }
    let bad = rows.iter().any(|r| {
        specs[&r.metric].bound.is_some()
            && matches!(r.verdict, Verdict::Worse | Verdict::Unresolved)
    });
    Ok(!bad && incorrect == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-diff: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
