//! Fault-injection integration tests: graceful ANC→traditional
//! degradation and recovery.
//!
//! The load-bearing properties:
//!
//! 1. **Faults-off is free** — attaching `FaultSpec::none()` to a
//!    scenario reproduces the eight golden paper-run fingerprints bit
//!    for bit (the fault layer draws from its own coordinate-pure
//!    streams and consumes nothing when passive).
//! 2. **The fallback floor** — with the relay flapping for the whole
//!    run, ANC with the health-estimator fallback sustains nonzero
//!    goodput comparable to traditional routing under the same faults
//!    (the degraded mode *is* store-and-forward, minus detection lag).
//! 3. **Recovery** — when the churn ends mid-run, the health monitor
//!    flips back after sustained success and the run re-opens the
//!    ≥ 1.5× ANC gain over traditional; the outage ledger records the
//!    detect → failover → recover trajectory.
//! 4. **Conservation under chaos** — randomized fault timelines ×
//!    retry budgets never leak or duplicate a packet: offered ==
//!    delivered + dropped + lost_after_ack + in-flight, per flow.

use anc_netcode::{ArqConfig, Scheme};
use anc_sim::runs::{run_spec, RunConfig};
use anc_sim::topology::nodes;
use anc_sim::{FaultSpec, ScenarioSpec};
use proptest::prelude::*;

fn golden_cfg(seed: u64) -> RunConfig {
    RunConfig {
        packets_per_flow: 10,
        payload_bits: 4096,
        ..RunConfig::quick(seed)
    }
}

#[test]
fn fault_spec_none_is_bit_identical_to_goldens() {
    // The same eight seeded paper runs golden_metrics.rs pins, but
    // with a passive FaultSpec attached: the fingerprints must not
    // move by a single bit.
    type Case = (fn() -> ScenarioSpec, Scheme, u64, u64);
    let cases: &[Case] = &[
        (ScenarioSpec::alice_bob, Scheme::Anc, 3, 0x1a662c6def0034ad),
        (ScenarioSpec::alice_bob, Scheme::Cope, 3, 0x468d03c07dace0cb),
        (
            ScenarioSpec::alice_bob,
            Scheme::Traditional,
            3,
            0x69f5aaa6af246c4b,
        ),
        (ScenarioSpec::x, Scheme::Anc, 8, 0x0b440ab9bc8f29cb),
        (ScenarioSpec::x, Scheme::Cope, 8, 0xf5da5d4504e5d31b),
        (ScenarioSpec::x, Scheme::Traditional, 8, 0xd665ebff9ca053f7),
        (ScenarioSpec::chain, Scheme::Anc, 5, 0xfcbee5f0ef5f0bf5),
        (
            ScenarioSpec::chain,
            Scheme::Traditional,
            5,
            0xba547c68de888fed,
        ),
    ];
    for (make, scheme, seed, expected) in cases {
        let mut spec = make();
        spec.faults = Some(FaultSpec::none());
        let m = run_spec(&spec, *scheme, &golden_cfg(*seed)).unwrap();
        assert_eq!(
            m.fingerprint(),
            *expected,
            "{} {:?}: FaultSpec::none() perturbed the golden fingerprint",
            spec.name,
            scheme
        );
        assert!(m.outages.is_empty(), "passive faults must log no outage");
    }
}

/// Relay down 2 of every 3 periods over `[0, until)` — crash-and-
/// recover churn fast enough that the health EWMA stays unhealthy for
/// the whole window but the up-periods still pass traffic.
fn flapping_relay(until: u64) -> FaultSpec {
    let mut spec = FaultSpec::none();
    let mut p = 0u64;
    while p + 2 <= until {
        spec = spec.with_scripted_crash(nodes::ROUTER, p, p + 2);
        p += 3;
    }
    spec
}

fn churn_cfg(seed: u64) -> RunConfig {
    RunConfig {
        packets_per_flow: 32,
        payload_bits: 8192,
        ..RunConfig::quick(seed)
    }
}

#[test]
fn fallback_sustains_goodput_during_relay_churn() {
    // Churn covers the entire run for both schemes: the fallback path
    // *is* traditional store-and-forward, so ANC's degraded goodput
    // must land within 10 % of traditional's under identical faults.
    let cfg = churn_cfg(11);
    let faults = flapping_relay(100_000);
    let arq = ArqConfig::default();
    let anc = ScenarioSpec::alice_bob()
        .builder(Scheme::Anc)
        .arq(arq)
        .faults(faults.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let trad = ScenarioSpec::alice_bob()
        .builder(Scheme::Traditional)
        .arq(arq)
        .faults(faults)
        .config(cfg.clone())
        .run()
        .unwrap();
    assert!(
        anc.account.goodput_bits > 0.0,
        "fallback must keep goodput nonzero through the outage"
    );
    assert!(
        trad.account.throughput() > 0.0,
        "traditional must survive the flapping relay (up-periods pass traffic)"
    );
    let ratio = anc.account.throughput() / trad.account.throughput();
    assert!(
        ratio >= 0.9,
        "degraded ANC must stay within 10% of traditional: ratio {ratio}"
    );
    assert!(
        !anc.outages.is_empty(),
        "the health estimator must detect the outage"
    );
    let o = &anc.outages[0];
    assert!(
        o.time_to_failover().is_some(),
        "the fallback path must deliver during the outage"
    );
    assert!(
        o.goodput_bits > 0.0,
        "outage ledger must record the degraded-mode goodput"
    );
    assert!(
        o.recover_period.is_none(),
        "churn never ends, so the outage must still be open at flush"
    );
}

#[test]
fn anc_gain_recovers_after_relay_restoration() {
    // A solid relay crash covers the first six slot periods — long
    // enough for three consecutive failed exchanges to trip the 0.85
    // EWMA threshold. After the relay comes back the monitor needs
    // `recovery_confirm` consecutive healthy verdicts to flip, then
    // amplify-forward resumes and the run must re-open the paper's
    // gain over traditional.
    let cfg = churn_cfg(11);
    let faults = FaultSpec::none().with_scripted_crash(nodes::ROUTER, 0, 6);
    let arq = ArqConfig::default();
    let anc = ScenarioSpec::alice_bob()
        .builder(Scheme::Anc)
        .arq(arq)
        .faults(faults.clone())
        .config(cfg.clone())
        .run()
        .unwrap();
    let trad = ScenarioSpec::alice_bob()
        .builder(Scheme::Traditional)
        .arq(arq)
        .faults(faults)
        .config(cfg.clone())
        .run()
        .unwrap();
    let gain = anc.account.throughput() / trad.account.throughput();
    assert!(
        gain >= 1.5,
        "post-restoration run must re-open the ANC gain: {gain}"
    );
    assert!(!anc.outages.is_empty(), "the churn window must be detected");
    let o = &anc.outages[0];
    assert!(
        o.recover_period.is_some(),
        "sustained post-churn success must close the outage"
    );
    assert!(
        o.time_to_recover().unwrap() >= u64::from(arq.max_retries as u8).min(3),
        "recovery needs the hysteresis confirmation streak"
    );
}

proptest! {
    /// Per-flow conservation under randomized fault timelines × retry
    /// budgets: every offered packet is exactly one of delivered,
    /// dropped (including churn purges), implicitly-ACKed-but-lost, or
    /// still in flight when the run ends.
    #[test]
    fn conservation_under_randomized_fault_timelines(
        seed in 0u64..1000,
        crash in 0.0f64..0.35,
        shadow in 0.0f64..0.5,
        jam in 0.0f64..0.3,
        stuck in 0.0f64..0.15,
        retries in 0usize..5,
        drop_queue in any::<bool>(),
    ) {
        let faults = FaultSpec::none()
            .with_crashes(crash, 3)
            .with_shadowing(shadow, 25.0, 2)
            .with_jammer(jam, 1.0, 2)
            .with_stuck_carrier(stuck, 1.0, 2)
            .with_queue_drop(drop_queue);
        let arq = ArqConfig { max_retries: retries, ..ArqConfig::default() };
        let cfg = RunConfig {
            packets_per_flow: 6,
            payload_bits: 1024,
            ..RunConfig::quick(seed)
        };
        let m = ScenarioSpec::alice_bob()
            .builder(Scheme::Anc)
            .arq(arq)
            .faults(faults)
            .config(cfg.clone())
            .run()
            .unwrap();
        for fm in &m.flows {
            prop_assert_eq!(
                fm.offered,
                fm.delivered + fm.dropped + fm.lost_after_ack + fm.in_flight,
                "flow {} leaked or duplicated packets", fm.flow
            );
            prop_assert!(
                fm.lost_to_churn <= fm.dropped,
                "churn losses are a subset of drops"
            );
            prop_assert_eq!(
                fm.latency_samples.len(), fm.delivered,
                "one latency sample per delivered packet"
            );
        }
        let delivered: usize = m.flows.iter().map(|f| f.delivered).sum();
        prop_assert_eq!(m.account.delivered, delivered, "account/ledger delivered");
    }
}
