//! Every registered workload on every shape a session can take: each
//! run halts within [`BUDGET`] with the checksum predicted for its core
//! count on every core, or the builder refuses the shape before
//! anything runs. A workload whose expected value is a constant that is
//! wrong at some core count (`mailbox`), or a shape that never halts
//! (`mailbox` without CoreLink), fails here.

use cabt_exec::{Limit, StopCause};
use cabt_sim::{Backend, SessionError, SimBuilder};

/// Frontier cycles every accepted run must halt within. The largest
/// registry run, `fibonacci` on `translated:cache`, takes 468,138.
const BUDGET: Limit = Limit::Cycles(1_000_000);

/// The checksum every core of `backend` must leave in `%d2`, from the
/// workload generators rather than the registry's shape lookup.
fn expected(name: &str, backend: Backend) -> u32 {
    match (name, backend) {
        ("mailbox", Backend::Sharded { cores, .. }) => {
            cabt_workloads::mailbox(u32::from(cores)).expected_d2
        }
        _ => {
            cabt_workloads::by_name(name)
                .expect("registered")
                .expected_d2
        }
    }
}

/// Runs every registered workload on `backend`. Of the shapes this
/// suite covers (no sharded RTL sets), only `mailbox` off a shard
/// fabric is refused: it polls CoreLink doorbells, which only sharded
/// sets have.
fn check(backend: Backend) {
    let sharded = matches!(backend, Backend::Sharded { .. });
    for name in cabt_workloads::names() {
        let refused = name == "mailbox" && !sharded;
        let mut s = match SimBuilder::named(name).backend(backend).build() {
            Err(SessionError::UnsupportedShape { .. }) if refused => continue,
            Err(e) => panic!("{name} on {backend}: {e}"),
            Ok(_) if refused => panic!("{name} on {backend}: built a shape that cannot halt"),
            Ok(s) => s,
        };
        let want = expected(name, backend);
        assert_eq!(
            cabt_sim::named_workload(name, backend).map(|w| w.expected_d2),
            Ok(want),
            "{name} on {backend}: registry prediction"
        );
        assert_eq!(s.run(BUDGET), Ok(StopCause::Halted), "{name} on {backend}");
        for i in 0..s.shard_count() {
            let core = s.shard(i).unwrap_or(&s);
            assert_eq!(core.read_d(2), want, "{name} on {backend}, core {i}");
        }
    }
}

#[test]
fn every_single_core_backend() {
    for backend in Backend::all() {
        check(backend);
    }
}

#[test]
fn one_to_eight_shards_of_every_non_rtl_base() {
    for base in Backend::all().into_iter().filter(|&b| b != Backend::Rtl) {
        for cores in [1, 2, 3, 4, 8] {
            check(Backend::sharded(cores, base));
        }
    }
}

// The 256-core sets run on a two-worker pool: bit-identical to the
// sequential schedule (`tests/parallel_determinism.rs`), and faster.
#[test]
fn golden_at_the_fabric_ceiling() {
    check(Backend::sharded_pooled(256, 2, Backend::golden()));
}

#[test]
fn translated_cache_at_the_fabric_ceiling() {
    check(Backend::sharded_pooled(
        256,
        2,
        Backend::translated(cabt_core::DetailLevel::Cache),
    ));
}
