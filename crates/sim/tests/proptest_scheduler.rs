//! Scheduler-equivalence property tests.
//!
//! The stage executor's determinism contract: every RNG draw and
//! every metric mutation happens in the controller thread in serial
//! intent order, so the work-stealing executor — which spreads each
//! stage's jobs across worker threads, and splits long waves and
//! windows into chunks — must produce run metrics **bit-identical** to
//! the deterministic single-thread executor, for any scenario, seed
//! and worker count.

use anc_channel::ImpairmentSpec;
use anc_netcode::Scheme;
use anc_sim::faults::FaultSpec;
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

/// Payload sizes: one whose windows stay a single chunk, and two whose
/// waves and windows split into chunks on two or more workers.
const PAYLOADS: [usize; 3] = [1024, 4096, 8192];

/// The per-sample paths a chunk must reproduce beyond plain Eq. 2:
/// none, Rayleigh fading with a CFO walk (TX rotation), stuck-carrier
/// tones across the whole window, and jammer bursts (a second noise
/// stream seeking with the first).
fn with_arm(mut spec: ScenarioSpec, arm: u8) -> ScenarioSpec {
    match arm % 4 {
        0 => spec,
        1 => spec.with_impairments(ImpairmentSpec::rayleigh_fading().with_cfo(0.01)),
        2 => {
            spec.faults = Some(FaultSpec::none().with_stuck_carrier(0.3, 0.05, 1));
            spec
        }
        _ => {
            spec.faults = Some(FaultSpec::none().with_jammer(0.5, 1e-3, 1));
            spec
        }
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
    /// scenarios × seeds × worker counts × payload sizes × impairment
    /// and fault arms, including the RX batches that end at an
    /// overhearing gate or a repeated receiver, and the chunked TX
    /// rotation and mixing of long waves and windows.
    #[test]
    fn work_stealing_matches_deterministic(
        topology in 0u8..4,
        seed in 0u64..1_000,
        workers in 1usize..5,
        anc in any::<bool>(),
        payload in 0usize..3,
        arm in 0u8..4,
    ) {
        let spec = with_arm(spec_for(topology), arm);
        let scheme = if anc { Scheme::Anc } else { Scheme::Traditional };
        let rc = RunConfig {
            packets_per_flow: 4,
            payload_bits: PAYLOADS[payload],
            ..RunConfig::quick(seed)
        };
        let reference = run_with(&spec, scheme, &rc, &SchedulerSpec::deterministic());
        let stolen = run_with(&spec, scheme, &rc, &SchedulerSpec::work_stealing(workers));
        prop_assert_eq!(
            reference.fingerprint(),
            stolen.fingerprint(),
            "work-stealing run diverged (topology={} seed={} workers={} {:?} payload={} arm={})",
            topology, seed, workers, scheme, PAYLOADS[payload], arm
        );
    }
}
