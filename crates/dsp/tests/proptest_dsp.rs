//! Property-based tests for the DSP substrate's data structures.

use anc_dsp::angle::{circular_diff, unwrap};
use anc_dsp::corr::{best_match, hamming_distance};
use anc_dsp::window::energy_bounds;
use anc_dsp::{
    percentile, wrap_pi, Cdf, Cplx, DspRng, EnergyWindow, Lfsr, RunningStats, VarianceWindow,
};
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    /// Field-ish axioms of Cplx arithmetic.
    #[test]
    fn cplx_ring_axioms(
        ar in -100.0f64..100.0, ai in -100.0f64..100.0,
        br in -100.0f64..100.0, bi in -100.0f64..100.0,
        cr in -100.0f64..100.0, ci in -100.0f64..100.0,
    ) {
        let (a, b, c) = (Cplx::new(ar, ai), Cplx::new(br, bi), Cplx::new(cr, ci));
        // commutativity
        prop_assert!(((a + b) - (b + a)).norm() < 1e-9);
        prop_assert!(((a * b) - (b * a)).norm() < 1e-9);
        // associativity (tolerance scales with magnitudes)
        let scale = (a.norm() + 1.0) * (b.norm() + 1.0) * (c.norm() + 1.0);
        prop_assert!((((a + b) + c) - (a + (b + c))).norm() < 1e-9 * scale);
        prop_assert!((((a * b) * c) - (a * (b * c))).norm() < 1e-9 * scale);
        // distributivity
        prop_assert!(((a * (b + c)) - (a * b + a * c)).norm() < 1e-9 * scale);
    }

    /// |a·b| = |a|·|b| and arg(a·b) = arg(a)+arg(b) (mod 2π).
    #[test]
    fn cplx_multiplicative_geometry(
        r1 in 0.01f64..50.0, t1 in -PI..PI,
        r2 in 0.01f64..50.0, t2 in -PI..PI,
    ) {
        let a = Cplx::from_polar(r1, t1);
        let b = Cplx::from_polar(r2, t2);
        let p = a * b;
        prop_assert!((p.norm() - r1 * r2).abs() / (r1 * r2) < 1e-9);
        prop_assert!(wrap_pi(p.arg() - t1 - t2).abs() < 1e-9);
    }

    /// Conjugation is an involution and fixes the norm.
    #[test]
    fn conj_involution(re in -1e3f64..1e3, im in -1e3f64..1e3) {
        let z = Cplx::new(re, im);
        prop_assert_eq!(z.conj().conj(), z);
        prop_assert!((z.conj().norm() - z.norm()).abs() < 1e-12);
    }

    /// unwrap() of a wrapped trajectory differs from the original by a
    /// per-element constant multiple of 2π and has no jumps > π.
    #[test]
    fn unwrap_continuity(steps in proptest::collection::vec(-1.0f64..1.0, 1..100)) {
        let mut phase = 0.0;
        let trajectory: Vec<f64> = steps.iter().map(|&d| { phase += d; phase }).collect();
        let wrapped: Vec<f64> = trajectory.iter().map(|&p| wrap_pi(p)).collect();
        let unwrapped = unwrap(&wrapped);
        for w in unwrapped.windows(2) {
            prop_assert!((w[1] - w[0]).abs() < PI + 1e-9);
        }
        for (u, t) in unwrapped.iter().zip(&trajectory) {
            let k = (u - t) / (2.0 * PI);
            prop_assert!((k - k.round()).abs() < 1e-6);
        }
    }

    /// circular_diff is antisymmetric on the circle.
    #[test]
    fn circular_diff_antisymmetry(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let d1 = circular_diff(a, b);
        let d2 = circular_diff(b, a);
        prop_assert!(wrap_pi(d1 + d2).abs() < 1e-9);
    }

    /// Energy window mean equals the mean of the last `cap` energies.
    #[test]
    fn energy_window_matches_reference(
        values in proptest::collection::vec(0.0f64..100.0, 1..200),
        cap in 1usize..32,
    ) {
        let mut w = EnergyWindow::new(cap);
        for &v in &values {
            w.push_energy(v);
        }
        let tail: Vec<f64> = values.iter().rev().take(cap).copied().collect();
        let expect = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((w.mean() - expect).abs() < 1e-6);
    }

    /// Variance window is non-negative and zero for constant input.
    #[test]
    fn variance_window_properties(v in 0.0f64..100.0, cap in 2usize..32) {
        let mut w = VarianceWindow::new(cap);
        for _ in 0..cap * 2 {
            w.push_energy(v);
        }
        prop_assert!(w.variance().abs() < 1e-9);
        prop_assert!((w.mean() - v).abs() < 1e-9);
    }

    /// Welford matches the two-pass reference.
    #[test]
    fn running_stats_match_reference(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut s = RunningStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4 * var.max(1.0));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let lo = percentile(&xs, 0.0);
        let q1 = percentile(&xs, 25.0);
        let q2 = percentile(&xs, 50.0);
        let q3 = percentile(&xs, 75.0);
        let hi = percentile(&xs, 100.0);
        prop_assert!(lo <= q1 && q1 <= q2 && q2 <= q3 && q3 <= hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((lo - min).abs() < 1e-9 && (hi - max).abs() < 1e-9);
    }

    /// NaN sentinels in a sample vector (never-decoded packets in a
    /// pooled BER series) are invisible to the percentile: no panic,
    /// and the result equals the percentile of the filtered vector.
    #[test]
    fn percentile_nan_sentinels_are_ignored(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..60),
        nan_every in 1usize..5,
        p in 0.0f64..100.0,
    ) {
        let mut dirty = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % nan_every == 0 {
                dirty.push(f64::NAN);
            }
            dirty.push(x);
        }
        let got = percentile(&dirty, p);
        let want = percentile(&xs, p);
        prop_assert!(got.to_bits() == want.to_bits(), "{got} vs {want}");
    }

    /// CDF quantile and fraction_le are near-inverse.
    #[test]
    fn cdf_quantile_inverse(xs in proptest::collection::vec(0.0f64..100.0, 5..100)) {
        let cdf = Cdf::from_samples(&xs);
        for f in [0.1, 0.5, 0.9] {
            let q = cdf.quantile(f);
            let back = cdf.fraction_le(q);
            prop_assert!(back >= f - 0.25, "fraction_le({q}) = {back} for f = {f}");
        }
    }

    /// LFSR determinism + whiten involution for arbitrary seeds.
    #[test]
    fn lfsr_properties(seed in any::<u16>(), data in proptest::collection::vec(any::<bool>(), 0..200)) {
        let a: Vec<bool> = Lfsr::new(seed).bits(64);
        let b: Vec<bool> = Lfsr::new(seed).bits(64);
        prop_assert_eq!(a, b);
        let mut w = data.clone();
        Lfsr::new(seed).whiten(&mut w);
        Lfsr::new(seed).whiten(&mut w);
        prop_assert_eq!(w, data);
    }

    /// best_match finds a planted exact pattern at its position (or an
    /// earlier equally-good match).
    #[test]
    fn best_match_finds_planted(
        prefix in proptest::collection::vec(any::<bool>(), 0..50),
        pattern in proptest::collection::vec(any::<bool>(), 8..32),
        suffix in proptest::collection::vec(any::<bool>(), 0..50),
    ) {
        let mut hay = prefix.clone();
        hay.extend_from_slice(&pattern);
        hay.extend_from_slice(&suffix);
        let (off, err) = best_match(&hay, &pattern).unwrap();
        prop_assert_eq!(err, 0);
        prop_assert!(off <= prefix.len());
        prop_assert_eq!(hamming_distance(&hay[off..off + pattern.len()], &pattern), 0);
    }

    /// A window rebuilt at a refresh boundary from its last `cap`
    /// energies is the streamed window: the same `mean_and_variance`
    /// bits right away and after every push of two refresh periods.
    #[test]
    fn variance_rebuild_matches_stream(
        cap in 2usize..48, periods in 1usize..4, kind in 0u8..5, seed in any::<u64>(),
    ) {
        let mut rng = DspRng::seed_from(seed);
        let mut streamed = VarianceWindow::new(cap);
        let period = streamed.refresh_period();
        prop_assert_eq!(period % cap, 0);
        let stream = energies(&mut rng, kind, (periods + 2) * period);
        let (head, tail) = stream.split_at(periods * period);
        for &e in head {
            streamed.push_energy(e);
        }
        let mut rebuilt = VarianceWindow::new(cap);
        rebuilt.push_energy(tail[0]); // dirty state first
        rebuilt.rebuild(&head[head.len() - cap..]);
        for k in 0..=tail.len() {
            if k > 0 {
                streamed.push_energy(tail[k - 1]);
                rebuilt.push_energy(tail[k - 1]);
            }
            let (m0, v0) = streamed.mean_and_variance();
            let (m1, v1) = rebuilt.mean_and_variance();
            prop_assert_eq!(m0.to_bits(), m1.to_bits(), "mean after {} pushes", k);
            prop_assert_eq!(v0.to_bits(), v1.to_bits(), "variance after {} pushes", k);
        }
    }

    /// The certified §7.1 decision, whose mean is `sum · (1/cap)`,
    /// equals the exact test, whose mean is `sum / cap`, for any bounds
    /// that hold the window's energies: at thresholds a few ulps and a
    /// few margins away from the window's own normalized variance, at
    /// the degenerate thresholds, and at subnormal, near-overflow and
    /// ulp-spread windows.
    #[test]
    fn variance_certificate_matches_exact_test(
        cap in 2usize..64, pushes in 1usize..200, kind in 0u8..8, seed in any::<u64>(),
    ) {
        let mut rng = DspRng::seed_from(seed);
        let mut w = VarianceWindow::new(cap);
        let stream = energies(&mut rng, kind, pushes);
        for (i, &e) in stream.iter().enumerate() {
            w.push_energy(e);
            let (m, v) = w.mean_and_variance();
            let nv = if m > 0.0 { v / (m * m) } else { 0.0 };
            let (lo, hi) = energy_bounds(stream[..=i].iter().rev().take(cap).copied());
            let mut thresholds = vec![0.05, 0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, 1e300];
            if nv.is_finite() && nv > 0.0 {
                for k in 0..=4u64 {
                    thresholds.push(f64::from_bits(nv.to_bits() + k));
                    thresholds.push(f64::from_bits(nv.to_bits() - k));
                }
                for j in [0.5, 1.0, 2.0] {
                    thresholds.push(nv * (1.0 + j * 1e-9));
                    thresholds.push(nv * (1.0 - j * 1e-9));
                }
            }
            for thr in thresholds {
                let want = nv > thr;
                prop_assert_eq!(w.exceeds(thr, lo, hi), want, "thr {} nv {}", thr, nv);
                let (lo2, hi2) = (lo - lo.abs() * 0.5, hi + hi.abs() * 0.5);
                prop_assert_eq!(w.exceeds(thr, lo2, hi2), want, "loose bounds, thr {}", thr);
            }
        }
    }

    /// Gaussian sampler: bounded draws don't explode (smoke) and the
    /// seeded stream is reproducible.
    #[test]
    fn rng_reproducibility(seed in any::<u64>()) {
        let mut a = DspRng::seed_from(seed);
        let mut b = DspRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.gaussian().to_bits(), b.gaussian().to_bits());
            prop_assert_eq!(a.uniform_int(1, 32), b.uniform_int(1, 32));
        }
    }
}

/// `len` energies of a stream `kind`: 0 a clean signal (1 plus small
/// noise), 1 an interfered one (anywhere in 0..4), 2 magnitudes from
/// 1e-150 to 1e150, 3 levels 1 − δ and 1 + δ in turn, so that every
/// even window's mean is exactly 1 and its squared deviations all meet
/// the certificate's bound (the tight case), 4 a clean signal with NaN,
/// ±∞ and subnormal draws mixed in, 5 levels 1 and 1 + a few ulps (a
/// normalized variance near 10⁻³¹, where a one-ulp shift of the mean
/// is large against the deviations), 6 subnormal energies, 7 energies
/// near 10³⁰⁷, whose window sums overflow.
fn energies(rng: &mut DspRng, kind: u8, len: usize) -> Vec<f64> {
    // 30 fractional bits keep every running sum exact, while δ² needs
    // 60 bits and rounds.
    let delta = rng.uniform_int(1, 1 << 30) as f64 / (1u64 << 31) as f64;
    let ulps = rng.uniform_int(1, 8) as f64 * f64::EPSILON;
    (0..len)
        .map(|i| match kind {
            0 => 1.0 + 0.01 * rng.gaussian(),
            1 => rng.uniform_range(0.0, 4.0),
            2 => rng.uniform() * 10f64.powf(rng.uniform_range(-150.0, 150.0)),
            3 => 1.0 + if i % 2 == 0 { -delta } else { delta },
            5 => 1.0 + if rng.bit() { ulps } else { 0.0 },
            6 => rng.uniform() * 1e-310,
            7 => 1e307 * (1.0 + 0.5 * rng.uniform()),
            4 => match rng.uniform_int(0, 40) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => f64::from_bits(rng.uniform_int(1, 1 << 40)),
                _ => 1.0 + 0.01 * rng.gaussian(),
            },
            _ => unreachable!("energy stream kind {kind}"),
        })
        .collect()
}

/// The LFSR stream one [`Lfsr::next_bit`] at a time: the reference the
/// four-step paths must reproduce bit for bit.
fn lfsr_reference(seed: u16, n: usize) -> Vec<bool> {
    let mut l = Lfsr::new(seed);
    (0..n).map(|_| l.next_bit()).collect()
}

proptest! {
    /// `Lfsr::bits` equals the per-bit stream for any seed (0 included)
    /// at every length mod 4, and leaves the register where the per-bit
    /// walk does.
    #[test]
    fn bitpath_lfsr_bits_match_next_bit(seed in any::<u16>(), len in 0usize..260) {
        for seed in [0, seed] {
            for n in len..len + 4 {
                let mut slow = Lfsr::new(seed);
                let want: Vec<bool> = (0..n).map(|_| slow.next_bit()).collect();
                let mut fast = Lfsr::new(seed);
                prop_assert_eq!(fast.bits(n), want, "seed {} len {}", seed, n);
                prop_assert_eq!(fast.state(), slow.state(), "seed {} len {}", seed, n);
            }
        }
    }

    /// `Lfsr::whiten` XORs the per-bit stream into any data, for any
    /// seed (0 included) at every length mod 4, including when resumed
    /// mid-stream.
    #[test]
    fn bitpath_whiten_matches_next_bit(
        seed in any::<u16>(),
        data in proptest::collection::vec(any::<bool>(), 0..300),
        split in 0usize..300,
    ) {
        for seed in [0, seed] {
            for cut in 0..4.min(data.len() + 1) {
                let d = &data[..data.len() - cut];
                let want: Vec<bool> = d
                    .iter()
                    .zip(lfsr_reference(seed, d.len()))
                    .map(|(&b, k)| b ^ k)
                    .collect();
                let mut got = d.to_vec();
                Lfsr::new(seed).whiten(&mut got);
                prop_assert_eq!(&got, &want, "seed {} len {}", seed, d.len());
                // Two calls continue one stream.
                let mut resumed = d.to_vec();
                let (head, tail) = resumed.split_at_mut(split.min(d.len()));
                let mut l = Lfsr::new(seed);
                l.whiten(head);
                l.whiten(tail);
                prop_assert_eq!(&resumed, &want, "seed {} split {}", seed, split);
            }
        }
    }
}
