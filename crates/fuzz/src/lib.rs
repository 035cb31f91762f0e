//! Continuous differential fuzzing across every CABT execution tier.
//!
//! The paper's value proposition is that the fast tiers stay bit- and
//! cycle-accurate to the reference model; this crate makes that claim
//! *continuously checkable*. [`gen`] turns a `u64` seed into a
//! structured guest program (weighted ALU / branch / memory / loop /
//! indirect / call / MMIO / fault templates, biased toward hot loops so
//! the trace tier forms traces), [`diff`] runs it across the whole
//! backend × dispatch × shard matrix comparing per-epoch
//! [`cabt_exec::DigestChain`]s plus final registers / memory / stats /
//! faults, and [`shrink`](mod@shrink) reduces a diverging program to a minimal
//! reproducer for the `cabt-workloads` regression corpus.
//!
//! Everything is seed-reproducible: `cabt-fuzz --seed N` replays one
//! case bit-identically on any host.

pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::{
    run_case, run_program, run_source, CaseReport, CaseStatus, Divergence, MatrixOptions,
};
pub use gen::{generate, FuzzProgram};
pub use shrink::shrink;
