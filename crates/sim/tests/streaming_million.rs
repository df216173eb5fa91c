//! The city's metric digest at city scale: a [`StatDigest`] fed a
//! million samples keeps an exact count, a mean that matches the exact
//! one, and p50/p99 estimates within 1 % of the analytic quantiles, in
//! a footprint that does not grow with the sample count.
//!
//! `CityOutcome` summarizes ACK latencies and BERs through these
//! digests, and `city_sweep` reports their p99 latencies, so their
//! accuracy is pinned here against a known distribution at the
//! 1M-sample scale a city run produces.

use anc_dsp::DspRng;
use anc_sim::StatDigest;

const SAMPLES: usize = 1_000_000;

#[test]
fn digest_tracks_a_million_uniform_draws() {
    let mut digest = StatDigest::new();
    let mut sum = 0.0;
    let mut rng = DspRng::seed_from(0xC17F);
    for _ in 0..SAMPLES {
        // Uniform on [0, 100): the p-quantile is 100·p.
        let x = rng.uniform() * 100.0;
        sum += x;
        digest.push(x);
    }

    assert_eq!(digest.count(), SAMPLES as u64);
    let exact_mean = sum / SAMPLES as f64;
    assert!(
        (digest.mean() - exact_mean).abs() < 1e-9 * exact_mean,
        "Welford mean {} vs exact {exact_mean}",
        digest.mean()
    );
    assert!((digest.mean() - 50.0).abs() < 0.1, "mean {}", digest.mean());
    for (estimate, analytic) in [(digest.p50(), 50.0), (digest.p99(), 99.0)] {
        assert!(
            (estimate - analytic).abs() < 0.01 * analytic,
            "estimate {estimate} vs analytic quantile {analytic}"
        );
    }
}

#[test]
fn digest_memory_is_constant_in_sample_count() {
    // Belt and braces for the O(1) claim itself: the digest type is
    // plain `Copy`-sized state, so its footprint cannot depend on how
    // many samples were pushed.
    let mut small = StatDigest::new();
    let mut large = StatDigest::new();
    let mut rng = DspRng::seed_from(9);
    for i in 0..10_000 {
        if i < 10 {
            small.push(rng.uniform());
        }
        large.push(rng.uniform());
    }
    assert_eq!(std::mem::size_of_val(&small), std::mem::size_of_val(&large));
    assert!(std::mem::size_of::<StatDigest>() < 512);
}
