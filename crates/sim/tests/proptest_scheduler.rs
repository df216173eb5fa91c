//! Scheduler-equivalence property tests (PR 9 tentpole).
//!
//! The block-graph runtime's determinism contract: every RNG draw and
//! every metric mutation happens in the controller thread in serial
//! intent order, so the work-stealing executor — which races block
//! polls across worker threads — must produce run metrics
//! **bit-identical** to the deterministic single-thread executor, for
//! any scenario, seed and worker count. The graph is one block per
//! node on depth-1 rings, so backpressure forces the controller to
//! interleave pushes, pops, and pumps at the finest grain.

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
    /// scenarios × seeds × worker counts. Every ring has depth 1, so
    /// backpressure forces the single-outstanding-window guard and the
    /// pump-retry loop onto their hardest paths on every run.
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
