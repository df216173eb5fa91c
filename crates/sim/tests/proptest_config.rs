//! Run-config robustness property tests.
//!
//! A `RunConfig` that deserializes must never crash a run: either
//! `RunBuilder::build` rejects it with a typed error, or `execute`
//! returns `Ok` or a typed `Err`, under both executors. The inputs
//! reach past the valid ranges on purpose — zero MAC slots and slot
//! lengths; zero, negative, NaN, infinite and extreme gains, noise
//! powers, jitters, oscillator offsets and transmit amplitudes;
//! payloads past the header's length field; and guard, turnaround and
//! padding lengths up to `usize::MAX`.

use anc_netcode::Scheme;
use anc_sim::runs::RunConfig;
use anc_sim::scenario::ScenarioSpec;
use anc_sim::topology::nodes::{ALICE, BOB, ROUTER};
use anc_sim::topology::ChannelDraw;
use anc_sim::SchedulerSpec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Float values where a bound or a power goes wrong.
const EDGES: [f64; 10] = [
    0.0,
    -0.0,
    -0.5,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    1e-300,
    1e300,
];

/// One float from a random word: an [`EDGES`] value one time in
/// eight, otherwise an ordinary value in `[lo, hi)`.
fn pick(w: u64, lo: f64, hi: f64) -> f64 {
    if w % 8 == 0 {
        EDGES[((w >> 3) % EDGES.len() as u64) as usize]
    } else {
        lo + (hi - lo) * ((w >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Lengths where a run goes wrong: zero, at and just past the padding
/// bound, and far past anything allocatable.
const SIZE_EDGES: [usize; 6] = [
    0,
    1 << 20,
    (1 << 20) + 1,
    1 << 40,
    usize::MAX / 2,
    usize::MAX,
];

/// One length from a random word: a [`SIZE_EDGES`] value one time in
/// eight, otherwise an ordinary length below 512.
fn pick_size(w: u64) -> usize {
    if w % 8 == 0 {
        SIZE_EDGES[((w >> 3) % SIZE_EDGES.len() as u64) as usize]
    } else {
        ((w >> 3) % 512) as usize
    }
}

/// A gain range from two random words (its bounds may come out
/// inverted, which is a valid draw range).
fn pick_range(w: u64) -> (f64, f64) {
    (pick(w, 0.05, 1.5), pick(w.rotate_left(32), 0.05, 1.5))
}

proptest! {
    /// Build-then-execute on a 1–2-packet Alice–Bob run never panics:
    /// every outcome is `Ok` or a typed error, on both executors.
    #[test]
    fn config_never_panics(
        seed in 0u64..1_000,
        anc in any::<bool>(),
        packets in 1usize..3,
        payload_word in any::<u64>(),
        noise_word in any::<u64>(),
        gain_word in any::<u64>(),
        overhear_word in any::<u64>(),
        weak_word in any::<u64>(),
        delay_slots in 0u64..40,
        slot_bits in 0usize..400,
        jitter_word in any::<u64>(),
        osc_word in any::<u64>(),
        guard_word in any::<u64>(),
        turnaround_word in any::<u64>(),
        pad_word in any::<u64>(),
        amplitude_words in proptest::collection::vec(any::<u64>(), 0..3),
    ) {
        let mut cfg = RunConfig {
            packets_per_flow: packets,
            // Mostly short payloads, one case in sixteen past the
            // header's 16-bit length field.
            payload_bits: if payload_word % 16 == 0 {
                65_536 + (payload_word >> 4) as usize % 1024
            } else {
                (payload_word >> 4) as usize % 2048
            },
            noise_power: pick(noise_word, 1e-5, 0.1),
            channel: ChannelDraw {
                gain: pick_range(gain_word),
                overhear_gain: pick_range(overhear_word),
                weak_gain: pick_range(weak_word),
            },
            osc_offset_max: pick(osc_word, 0.0, 0.1),
            guard_samples: pick_size(guard_word),
            turnaround_bits: pick_size(turnaround_word),
            pad_samples: pick_size(pad_word),
            tx_amplitude_overrides: amplitude_words
                .iter()
                .map(|&w| ([ALICE, BOB, ROUTER][(w >> 60) as usize % 3], pick(w, 0.1, 2.0)))
                .collect(),
            ..RunConfig::quick(seed)
        };
        cfg.mac.delay_slots = delay_slots;
        cfg.mac.slot_bits = slot_bits;
        cfg.mac.jitter_bits = pick(jitter_word, 0.0, 64.0);
        let scheme = if anc { Scheme::Anc } else { Scheme::Traditional };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for sched in [SchedulerSpec::deterministic(), SchedulerSpec::work_stealing(2)] {
                let built = ScenarioSpec::alice_bob()
                    .builder(scheme)
                    .config(cfg.clone())
                    .scheduler(sched)
                    .build();
                // A typed error from either step is an acceptable outcome.
                if let Ok(run) = built {
                    let _ = run.execute();
                }
            }
        }));
        prop_assert!(outcome.is_ok(), "panicked on {cfg:?}");
    }
}
