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

/// FNV-1a over every metric word that must stay bit-identical
/// (delivery counts, goodput/clock floats, per-packet BERs, overlap
/// fractions, per-receiver BER tags).
fn fingerprint(m: &RunMetrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(m.account.delivered as u64);
    eat(m.account.lost as u64);
    eat(m.account.goodput_bits.to_bits());
    eat(m.account.time_samples.to_bits());
    eat(m.packet_bers.len() as u64);
    for b in &m.packet_bers {
        eat(b.to_bits());
    }
    eat(m.overlaps.len() as u64);
    for o in &m.overlaps {
        eat(o.to_bits());
    }
    eat(m.ber_by_receiver.len() as u64);
    for (r, b) in &m.ber_by_receiver {
        eat(*r as u64);
        eat(b.to_bits());
    }
    h
}

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
            fingerprint(&reference),
            fingerprint(&stolen),
            "work-stealing run diverged (topology={} seed={} workers={} {:?})",
            topology, seed, workers, scheme
        );
    }
}
