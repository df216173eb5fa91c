//! Golden-metric regression tests for the engine rewrite.
//!
//! The three paper topologies originally ran through ~300-line
//! hand-scheduled functions; this suite pins the exact seeded
//! [`RunMetrics`] those functions produced (captured before the
//! event-engine refactor) and asserts the scenario-compiled engine
//! reproduces them **bit for bit** — same goodput, same medium clock,
//! same per-packet BERs, same overlap fractions. Any change to RNG
//! stream order, slot accounting, or superposition summation order
//! shows up here as a fingerprint mismatch.

use anc_netcode::Scheme;
use anc_sim::runs::{run_alice_bob, run_chain, run_x, RunConfig};
use anc_sim::RunMetrics;

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        packets_per_flow: 10,
        payload_bits: 4096,
        ..RunConfig::quick(seed)
    }
}

struct Golden {
    name: &'static str,
    seed: u64,
    run: fn(Scheme, &RunConfig) -> RunMetrics,
    scheme: Scheme,
    delivered: usize,
    lost: usize,
    goodput_bits: u64,
    time_bits: u64,
    fingerprint: u64,
}

// Captured from the pre-engine hand-coded runs (PR 2 state) with the
// config above; regenerate with `cargo test -p anc-sim --test
// golden_metrics -- --ignored --nocapture` and the `print_goldens`
// helper below if the *physics* (not the engine) legitimately changes.
const GOLDENS: &[Golden] = &[
    Golden {
        name: "alice_bob",
        seed: 3,
        run: run_alice_bob,
        scheme: Scheme::Anc,
        delivered: 17,
        lost: 3,
        goodput_bits: 0x40f0ffe003ff8010,
        time_bits: 0x40fc1d2000000000,
        fingerprint: 0x1a662c6def0034ad,
    },
    Golden {
        name: "alice_bob",
        seed: 3,
        run: run_alice_bob,
        scheme: Scheme::Cope,
        delivered: 20,
        lost: 0,
        goodput_bits: 0x40f4000000000000,
        time_bits: 0x41015df000000000,
        fingerprint: 0x468d03c07dace0cb,
    },
    Golden {
        name: "alice_bob",
        seed: 3,
        run: run_alice_bob,
        scheme: Scheme::Traditional,
        delivered: 20,
        lost: 0,
        goodput_bits: 0x40f4000000000000,
        time_bits: 0x41070d4000000000,
        fingerprint: 0x69f5aaa6af246c4b,
    },
    Golden {
        name: "x",
        seed: 8,
        run: run_x,
        scheme: Scheme::Anc,
        delivered: 20,
        lost: 0,
        goodput_bits: 0x40f3d60b06e71f32,
        time_bits: 0x40fd310000000000,
        fingerprint: 0x0b440ab9bc8f29cb,
    },
    Golden {
        name: "x",
        seed: 8,
        run: run_x,
        scheme: Scheme::Cope,
        delivered: 20,
        lost: 0,
        goodput_bits: 0x40f4000000000000,
        time_bits: 0x41015df000000000,
        fingerprint: 0xf5da5d4504e5d31b,
    },
    Golden {
        name: "x",
        seed: 8,
        run: run_x,
        scheme: Scheme::Traditional,
        delivered: 20,
        lost: 0,
        goodput_bits: 0x40f4000000000000,
        time_bits: 0x41070d4000000000,
        fingerprint: 0xd665ebff9ca053f7,
    },
    Golden {
        name: "chain",
        seed: 5,
        run: run_chain,
        scheme: Scheme::Anc,
        delivered: 9,
        lost: 1,
        goodput_bits: 0x40e1e37001e37002,
        time_bits: 0x40fbabd000000000,
        fingerprint: 0xfcbee5f0ef5f0bf5,
    },
    Golden {
        name: "chain",
        seed: 5,
        run: run_chain,
        scheme: Scheme::Traditional,
        delivered: 10,
        lost: 0,
        goodput_bits: 0x40e4000000000000,
        time_bits: 0x410149f000000000,
        fingerprint: 0xba547c68de888fed,
    },
];

#[test]
#[ignore]
fn print_goldens() {
    for (name, seed, run, scheme) in CASES {
        let m = run(*scheme, &cfg(*seed));
        println!(
            "Golden {{ name: \"{name}\", seed: {seed}, run: run_{name}, scheme: Scheme::{scheme:?}, \
             delivered: {}, lost: {}, goodput_bits: 0x{:016x}, time_bits: 0x{:016x}, \
             fingerprint: 0x{:016x} }},",
            m.account.delivered,
            m.account.lost,
            m.account.goodput_bits.to_bits(),
            m.account.time_samples.to_bits(),
            m.fingerprint(),
        );
    }
}

type RunFn = fn(Scheme, &RunConfig) -> RunMetrics;

const CASES: &[(&str, u64, RunFn, Scheme)] = &[
    ("alice_bob", 3, run_alice_bob, Scheme::Anc),
    ("alice_bob", 3, run_alice_bob, Scheme::Cope),
    ("alice_bob", 3, run_alice_bob, Scheme::Traditional),
    ("x", 8, run_x, Scheme::Anc),
    ("x", 8, run_x, Scheme::Cope),
    ("x", 8, run_x, Scheme::Traditional),
    ("chain", 5, run_chain, Scheme::Anc),
    ("chain", 5, run_chain, Scheme::Traditional),
];

#[test]
fn paper_runs_match_goldens() {
    assert!(
        !GOLDENS.is_empty(),
        "golden table not yet captured — run print_goldens"
    );
    for g in GOLDENS {
        let m = (g.run)(g.scheme, &cfg(g.seed));
        assert_eq!(
            (m.account.delivered, m.account.lost),
            (g.delivered, g.lost),
            "{} {:?}: delivery counts drifted",
            g.name,
            g.scheme
        );
        assert_eq!(
            m.account.goodput_bits.to_bits(),
            g.goodput_bits,
            "{} {:?}: goodput bits drifted",
            g.name,
            g.scheme
        );
        assert_eq!(
            m.account.time_samples.to_bits(),
            g.time_bits,
            "{} {:?}: medium clock drifted",
            g.name,
            g.scheme
        );
        assert_eq!(
            m.fingerprint(),
            g.fingerprint,
            "{} {:?}: metric fingerprint drifted",
            g.name,
            g.scheme
        );
    }
}
