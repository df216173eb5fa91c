//! City-engine refactor pins (PR 10 tentpole).
//!
//! Two contracts guard the regions-as-block-groups rewrite:
//!
//! 1. **Golden fingerprints** — for static layouts (mobility off)
//!    the street-staged city is bit-identical to the pre-refactor pool engine: the captured
//!    fingerprints below were produced by the old per-cell loop and
//!    must never move.
//! 2. **Executor equivalence under mobility** — waypoint motion,
//!    incremental grid relocation, and the per-street stage dispatch
//!    are all coordinate-pure, so work-stealing == serial, bit for
//!    bit, for any seed and worker count. (The sparse ==
//!    dense advance check lives beside the dense oracle, in the city
//!    module's unit tests.)

use anc_netcode::Scheme;
use anc_sim::{CityConfig, CityLayout, CityOutcome, SchedulerSpec};
use proptest::prelude::*;

fn small(seed: u64) -> CityConfig {
    CityConfig {
        cells_x: 4,
        rows: 2,
        seed,
        rounds: 12,
        offered: 0.3,
        payload_bits: 128,
        ..CityConfig::default()
    }
}

fn run_with(cfg: &CityConfig, scheme: Scheme, sched: SchedulerSpec) -> CityOutcome {
    CityConfig::builder(scheme)
        .config(cfg.clone())
        .scheduler(sched)
        .build()
        .expect("valid config")
        .execute()
        .expect("city run")
}

/// The four pre-refactor fingerprints (4×2 cells, seed 3, 12 rounds,
/// offered 0.3, 128-bit payloads), captured from the pool-based
/// engine at the previous commit. Bit-identity across the rewrite is
/// the tentpole's acceptance bar: same placement, same arrival
/// calendars, same staggered superposition windows, same decode
/// record — only the execution substrate changed.
#[test]
fn static_city_fingerprints_survive_the_block_graph_rewrite() {
    let golden = [
        (CityLayout::UrbanGrid, Scheme::Anc, 0xd31a_84e9_20d0_2106u64),
        (
            CityLayout::UrbanGrid,
            Scheme::Traditional,
            0x8e6f_5f7c_1b98_2cbb,
        ),
        (
            CityLayout::RandomWaypoint,
            Scheme::Anc,
            0xa718_140f_b2c5_01c6,
        ),
        (
            CityLayout::RandomWaypoint,
            Scheme::Traditional,
            0x8e6f_5f7c_1b98_2cbb,
        ),
    ];
    for (layout, scheme, want) in golden {
        let mut cfg = small(3);
        cfg.layout = layout;
        let out = run_with(&cfg, scheme, SchedulerSpec::deterministic());
        assert_eq!(
            out.fingerprint(),
            want,
            "{layout:?}/{scheme:?}: static city diverged from the pre-refactor engine"
        );
    }
}

proptest! {
    /// Mobility on: endpoints walk random waypoints and the spatial
    /// grid relocates them incrementally, yet both executors agree bit
    /// for bit.
    #[test]
    fn mobile_city_is_executor_and_advance_invariant(
        seed in 0u64..500,
        workers in 2usize..5,
        velocity_q in 1u8..7,
        pause_q in 0u8..4,
    ) {
        let mut cfg = small(seed);
        cfg.layout = CityLayout::RandomWaypoint;
        cfg.cells_x = 3;
        cfg.rounds = 8;
        cfg.payload_bits = 64;
        cfg.velocity = f64::from(velocity_q) * 0.5;
        cfg.pause = f64::from(pause_q);
        let reference = run_with(&cfg, Scheme::Anc, SchedulerSpec::deterministic());
        prop_assert!(reference.offered > 0 || reference.rounds_serviced == 0);
        let stolen = run_with(&cfg, Scheme::Anc, SchedulerSpec::work_stealing(workers));
        prop_assert_eq!(
            stolen.fingerprint(), reference.fingerprint(),
            "work-stealing diverged (seed={} workers={})",
            seed, workers
        );
    }
}
