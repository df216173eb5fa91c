//! Scheduler-equivalence property tests (PR 9 tentpole).
//!
//! The stage executor's determinism contract: every RNG draw and
//! every metric mutation happens in the controller thread in serial
//! intent order, so the work-stealing executor — which spreads each
//! stage's jobs across worker threads — must produce run metrics
//! **bit-identical** to the deterministic single-thread executor, for
//! any scenario, seed and worker count.

use anc_netcode::Scheme;
use anc_sim::runs::RunConfig;
use anc_sim::scenario::ScenarioSpec;
use anc_sim::{Engine, RunCtx, RunMetrics, SchedulerSpec};
use proptest::prelude::*;

fn spec_for(topology: u8) -> ScenarioSpec {
    match topology % 4 {
        0 => ScenarioSpec::alice_bob(),
        1 => ScenarioSpec::x(),
        2 => ScenarioSpec::chain(),
        _ => ScenarioSpec::parking_lot(2),
    }
}

fn run_with(
    spec: &ScenarioSpec,
    scheme: Scheme,
    rc: &RunConfig,
    sched: &SchedulerSpec,
) -> RunMetrics {
    let program = spec.compile(scheme).expect("canonical topology compiles");
    Engine::try_run_ctx(&program, rc, sched, &mut RunCtx::default())
        .expect("canonical topology runs")
}

proptest! {
    /// Work-stealing == deterministic, bit for bit, across random
    /// scenarios × seeds × worker counts, including the RX batches
    /// that end at an overhearing gate or a repeated receiver.
    #[test]
    fn work_stealing_matches_deterministic(
        topology in 0u8..4,
        seed in 0u64..1_000,
        workers in 1usize..5,
        anc in any::<bool>(),
    ) {
        let spec = spec_for(topology);
        let scheme = if anc { Scheme::Anc } else { Scheme::Traditional };
        let rc = RunConfig {
            packets_per_flow: 4,
            payload_bits: 1024,
            ..RunConfig::quick(seed)
        };
        let reference = run_with(&spec, scheme, &rc, &SchedulerSpec::deterministic());
        let stolen = run_with(&spec, scheme, &rc, &SchedulerSpec::work_stealing(workers));
        prop_assert_eq!(
            reference.fingerprint(),
            stolen.fingerprint(),
            "work-stealing run diverged (topology={} seed={} workers={} {:?})",
            topology, seed, workers, scheme
        );
    }
}
