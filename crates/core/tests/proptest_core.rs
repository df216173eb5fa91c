//! Property-based tests of the decoder's algebraic invariants.

use anc_core::amplitude::estimate_amplitudes;
use anc_core::detect::{mask_span, DetectorConfig, SignalDetector};
use anc_core::lemma::{solve_phases, CandidateBatch, LemmaKernel};
use anc_core::matcher::{
    match_bits_batch, match_bits_into, match_phase_differences, MatchBatchScratch,
};
use anc_dsp::angle::circular_distance;
use anc_dsp::batch::energies_into;
use anc_dsp::{Cplx, DspRng, VarianceWindow};
use anc_modem::{Modem, MskConfig, MskModem};
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    /// Lemma 6.1's two solutions both reconstruct y exactly, for any
    /// amplitudes — even when y is infeasible (|y| outside the annulus)
    /// the clamped solutions stay finite.
    #[test]
    fn lemma_solutions_always_finite(
        yr in -10.0f64..10.0, yi in -10.0f64..10.0,
        a in 0.01f64..5.0, b in 0.01f64..5.0,
    ) {
        let y = Cplx::new(yr, yi);
        let sol = solve_phases(y, a, b);
        for p in sol.pairs() {
            prop_assert!(p.theta.is_finite());
            prop_assert!(p.phi.is_finite());
        }
        prop_assert!((-1.0..=1.0).contains(&sol.d));
    }

    /// For feasible y the reconstruction error is ~0 for both branches.
    #[test]
    fn lemma_reconstructs_feasible_samples(
        a in 0.05f64..3.0, b in 0.05f64..3.0,
        theta in -PI..PI, phi in -PI..PI,
    ) {
        let y = Cplx::from_polar(a, theta) + Cplx::from_polar(b, phi);
        prop_assume!(y.norm() > 1e-6);
        let sol = solve_phases(y, a, b);
        for p in sol.pairs() {
            prop_assert!((p.reconstruct(a, b) - y).norm() < 1e-6);
        }
    }

    /// The solution pair is invariant under a global rotation of y —
    /// both phases rotate by the same angle (channel-shift covariance,
    /// the property that lets phase *differences* survive the channel).
    #[test]
    fn lemma_rotation_covariance(
        a in 0.1f64..2.0, b in 0.1f64..2.0,
        theta in -PI..PI, phi in -PI..PI,
        rot in -PI..PI,
    ) {
        let y = Cplx::from_polar(a, theta) + Cplx::from_polar(b, phi);
        prop_assume!(y.norm() > 1e-3);
        let base = solve_phases(y, a, b);
        let rotated = solve_phases(y.rotate(rot), a, b);
        for (p0, p1) in base.pairs().iter().zip(rotated.pairs()) {
            prop_assert!(circular_distance(p1.theta, p0.theta + rot) < 1e-6);
            prop_assert!(circular_distance(p1.phi, p0.phi + rot) < 1e-6);
        }
    }

    /// Swapping the amplitude arguments swaps the recovered roles.
    #[test]
    fn lemma_amplitude_symmetry(
        a in 0.2f64..2.0, b in 0.2f64..2.0,
        theta in -PI..PI, phi in -PI..PI,
    ) {
        prop_assume!((a - b).abs() > 0.05);
        let y = Cplx::from_polar(a, theta) + Cplx::from_polar(b, phi);
        prop_assume!(y.norm() > 1e-3);
        let ab = solve_phases(y, a, b);
        let ba = solve_phases(y, b, a);
        // The (θ, φ) pairs of one ordering are the (φ, θ) pairs of the
        // other (as sets).
        for p in ab.pairs() {
            let matched = ba.pairs().iter().any(|q| {
                circular_distance(q.theta, p.phi) < 1e-6
                    && circular_distance(q.phi, p.theta) < 1e-6
            });
            prop_assert!(matched);
        }
    }

    /// Eq. 5/6 amplitude estimation recovers both amplitudes within
    /// 15 % for long-enough whitened streams with phase sweep.
    #[test]
    fn amplitude_estimation_envelope(
        a in 0.5f64..1.5, ratio in 0.4f64..1.0, seed in any::<u64>(),
    ) {
        let b = a * ratio;
        let mut rng = DspRng::seed_from(seed);
        let ma = MskModem::new(MskConfig::with_amplitude(a));
        let mb = MskModem::new(MskConfig::with_amplitude(b));
        let sa = ma.modulate(&rng.bits(3000));
        let sb = mb.modulate(&rng.bits(3000));
        let (ga, gb) = (rng.phase(), rng.phase());
        let rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate().map(|(k, (&x, &y))| {
            x.rotate(ga) + y.rotate(gb + 0.025 * k as f64)
        }).collect();
        let est = estimate_amplitudes(&rx).unwrap();
        let (ea, eb) = est.assign(a);
        prop_assert!((ea - a).abs() / a < 0.15, "A: {ea} vs {a}");
        prop_assert!((eb - b).abs() / b.max(0.2) < 0.25, "B: {eb} vs {b}");
    }

    /// The batch Lemma-6.1 kernel's candidate vectors carry exactly the
    /// scalar solver's phases: `arg(u[k])`/`arg(v[k])` are bit-identical
    /// to `solve_phases`' θ/φ for any sample and amplitudes.
    #[test]
    fn fused_kernel_vectors_bitwise_match_scalar_lemma(
        yr in -6.0f64..6.0, yi in -6.0f64..6.0,
        a in 0.02f64..4.0, b in 0.02f64..4.0,
    ) {
        let y = Cplx::new(yr, yi);
        let (u, v, d) = LemmaKernel::new(a, b).candidate_vectors(y);
        let sol = solve_phases(y, a, b);
        prop_assert_eq!(sol.d.to_bits(), d.to_bits());
        prop_assert_eq!(sol.first.theta.to_bits(), u[0].arg().to_bits());
        prop_assert_eq!(sol.first.phi.to_bits(), v[0].arg().to_bits());
        prop_assert_eq!(sol.second.theta.to_bits(), u[1].arg().to_bits());
        prop_assert_eq!(sol.second.phi.to_bits(), v[1].arg().to_bits());
    }

    /// Equivalence of the fused lemma/matcher kernel with the scalar
    /// `solve_phases` + `match_phase_differences` reference over
    /// realistic interfered MSK receptions: the decided *bit stream* is
    /// identical bit-for-bit, and the residual stream agrees to
    /// floating-point rounding (the kernel evaluates the same
    /// candidates through complex products instead of angle
    /// subtraction).
    #[test]
    fn fused_matcher_equivalent_to_scalar_reference(
        a in 0.3f64..2.0, ratio in 0.3f64..1.0,
        noise in 0.0f64..0.02, cfo in 0.0f64..0.04,
        n in 16usize..400, seed in any::<u64>(),
    ) {
        let b = a * ratio;
        let mut rng = DspRng::seed_from(seed);
        let ma = MskModem::new(MskConfig::with_amplitude(a));
        let mb = MskModem::new(MskConfig::with_amplitude(b));
        let alice = rng.bits(n);
        let bob = rng.bits(n);
        let sa = ma.modulate(&alice);
        let sb = mb.modulate(&bob);
        let (ga, gb) = (rng.phase(), rng.phase());
        let rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate().map(|(k, (&x, &y))| {
            x.rotate(ga) + y.rotate(gb + cfo * k as f64) + rng.complex_gaussian(noise)
        }).collect();
        let dtheta = ma.phase_differences(&alice);
        let reference = match_phase_differences(&rx, &dtheta, a, b);
        let mut err = Vec::new();
        let mut bits = Vec::new();
        match_bits_into(&rx, &dtheta, a, b, &mut err, &mut bits);
        prop_assert_eq!(bits, reference.bits());
        prop_assert_eq!(err.len(), reference.err.len());
        for (k, (&e, &r)) in err.iter().zip(&reference.err).enumerate() {
            prop_assert!((e - r).abs() < 1e-9, "bits-kernel err[{}]", k);
        }
    }

    /// The batched SoA pipeline — `energies_into` →
    /// `interference_span` → `candidate_vectors_batch` →
    /// `match_bits_batch` — is bit-identical to the scalar reference
    /// stages on realistic interfered MSK receptions. `cut` truncates
    /// the reception by 0–3 samples so the candidate batch exercises
    /// every lane remainder (`len % LANES ∈ {0,1,2,3}`), covering the
    /// scalar tail loop as well as the full-lane chunks.
    #[test]
    fn batched_pipeline_bit_identical_across_lane_remainders(
        a in 0.3f64..2.0, ratio in 0.3f64..1.0,
        noise in 0.0f64..0.02, cfo in 0.0f64..0.04,
        n in 16usize..200, cut in 0usize..4, seed in any::<u64>(),
    ) {
        let b = a * ratio;
        let mut rng = DspRng::seed_from(seed);
        let ma = MskModem::new(MskConfig::with_amplitude(a));
        let mb = MskModem::new(MskConfig::with_amplitude(b));
        let alice = rng.bits(n);
        let bob = rng.bits(n);
        let sa = ma.modulate(&alice);
        let sb = mb.modulate(&bob);
        let (ga, gb) = (rng.phase(), rng.phase());
        let mut rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate().map(|(k, (&x, &y))| {
            x.rotate(ga) + y.rotate(gb + cfo * k as f64) + rng.complex_gaussian(noise)
        }).collect();
        rx.truncate(rx.len() - cut);
        let dtheta = ma.phase_differences(&alice);

        // Detection: the span searched over precomputed energies must
        // agree with the one read off the streaming scalar mask.
        let det = SignalDetector::new(DetectorConfig::default());
        let scalar_mask = det.interference_mask(&rx);
        let mut energies = Vec::new();
        energies_into(&rx, &mut energies);
        let from = det.config().window.min(rx.len());
        prop_assert_eq!(
            det.interference_span(&energies, from, rx.len()),
            mask_span(&scalar_mask, from, rx.len())
        );

        // Lemma: the SoA candidate kernel replays the scalar ops.
        let kernel = LemmaKernel::new(a, b);
        let mut cand = CandidateBatch::default();
        kernel.candidate_vectors_batch(&rx, &mut cand);
        for (k, &y) in rx.iter().enumerate() {
            let (u, v, _) = kernel.candidate_vectors(y);
            prop_assert_eq!(cand.u0.get(k).re.to_bits(), u[0].re.to_bits(), "u0.re[{}]", k);
            prop_assert_eq!(cand.u0.get(k).im.to_bits(), u[0].im.to_bits(), "u0.im[{}]", k);
            prop_assert_eq!(cand.u1.get(k).re.to_bits(), u[1].re.to_bits(), "u1.re[{}]", k);
            prop_assert_eq!(cand.u1.get(k).im.to_bits(), u[1].im.to_bits(), "u1.im[{}]", k);
            prop_assert_eq!(cand.v0.get(k).re.to_bits(), v[0].re.to_bits(), "v0.re[{}]", k);
            prop_assert_eq!(cand.v0.get(k).im.to_bits(), v[0].im.to_bits(), "v0.im[{}]", k);
            prop_assert_eq!(cand.v1.get(k).re.to_bits(), v[1].re.to_bits(), "v1.re[{}]", k);
            prop_assert_eq!(cand.v1.get(k).im.to_bits(), v[1].im.to_bits(), "v1.im[{}]", k);
        }

        // Matching: decisions and residuals bit-identical to the
        // scalar bits kernel.
        let mut err = Vec::new();
        let mut bits = Vec::new();
        match_bits_into(&rx, &dtheta, a, b, &mut err, &mut bits);
        let mut scratch = MatchBatchScratch::default();
        let mut err_b = Vec::new();
        let mut bits_b = Vec::new();
        match_bits_batch(&rx, &dtheta, a, b, &mut scratch, &mut err_b, &mut bits_b);
        prop_assert_eq!(&bits_b, &bits);
        prop_assert_eq!(err_b.len(), err.len());
        for (k, (&e, &r)) in err_b.iter().zip(&err).enumerate() {
            prop_assert_eq!(e.to_bits(), r.to_bits(), "batch err[{}]: {} vs {}", k, e, r);
        }
    }

    /// The matcher's output lengths are always consistent and its
    /// residuals bounded by π.
    #[test]
    fn matcher_output_invariants(
        n in 2usize..200, a in 0.2f64..2.0, b in 0.2f64..2.0, seed in any::<u64>(),
    ) {
        let mut rng = DspRng::seed_from(seed);
        let y: Vec<Cplx> = (0..n).map(|_| rng.complex_gaussian(a * a + b * b)).collect();
        let known: Vec<f64> = (0..n - 1).map(|_| rng.phase()).collect();
        let m = match_phase_differences(&y, &known, a, b);
        prop_assert_eq!(m.dphi.len(), n - 1);
        prop_assert_eq!(m.err.len(), n - 1);
        for (&d, &e) in m.dphi.iter().zip(&m.err) {
            prop_assert!(d > -PI - 1e-9 && d <= PI + 1e-9);
            prop_assert!((0.0..=PI + 1e-9).contains(&e));
        }
    }

    /// `locate` is `detect` without the classification: the same
    /// bounds (or the same `None`) on noise alone, a clean packet, an
    /// interfered pair, an input shorter than the window, and a packet
    /// carrying NaN samples.
    #[test]
    fn locate_matches_detect_bounds(
        kind in 0u8..5, seed in any::<u64>(),
        lead in 0usize..200, n in 8usize..300, stagger in 1usize..150,
        window in 4usize..48,
    ) {
        const NOISE: f64 = 1e-4;
        let mut rng = DspRng::seed_from(seed);
        let modem = MskModem::default();
        let det = SignalDetector::new(DetectorConfig {
            window,
            noise_floor: NOISE,
            ..DetectorConfig::default()
        });
        let mut rx: Vec<Cplx> = (0..lead).map(|_| rng.complex_gaussian(NOISE)).collect();
        match kind {
            0 => rx.extend((0..n).map(|_| rng.complex_gaussian(NOISE))),
            2 => {
                let a = modem.modulate(&rng.bits(n));
                let b = modem.modulate(&rng.bits(n));
                let rb = rng.phase();
                for i in 0..stagger + b.len() {
                    let mut y = rng.complex_gaussian(NOISE);
                    if i < a.len() {
                        y += a[i];
                    }
                    if i >= stagger {
                        y += b[i - stagger].rotate(rb);
                    }
                    rx.push(y);
                }
            }
            _ => {
                let sig = modem.modulate(&rng.bits(n));
                rx.extend(sig.iter().map(|&x| x + rng.complex_gaussian(NOISE)));
            }
        }
        rx.extend((0..lead).map(|_| rng.complex_gaussian(NOISE)));
        if kind == 3 {
            rx.truncate(window - 1);
        }
        if kind == 4 {
            for k in 0..3 {
                let i = (seed as usize).wrapping_add(k * 97) % rx.len();
                rx[i] = Cplx::new(f64::NAN, if k == 1 { f64::INFINITY } else { 0.5 });
            }
        }
        let want = det.detect(&rx).map(|r| (r.start, r.end));
        prop_assert_eq!(det.locate(&rx), want);
    }

    /// `detect` stops at the first firing window and skips the windows
    /// that cannot fire, yet returns what the full per-window pass over
    /// the same interior returns: on noise alone, clean and interfered
    /// packets, inputs shorter than a window, regions shorter than the
    /// variance window, constant signals, NaN/±∞ samples, magnitudes
    /// 1e±150, subnormal energies, and negative thresholds.
    #[test]
    fn variance_detect_matches_full_pass(
        kind in 0u8..9, seed in any::<u64>(), scale_pick in 0usize..3,
        lead in 0usize..120, n in 8usize..400, stagger in 1usize..200,
        window in 4usize..48, thr_pick in 0usize..5,
    ) {
        const NOISE: f64 = 1e-4;
        let mut rng = DspRng::seed_from(seed);
        let amp = match kind {
            6 => [1e75, 1e-75, 5e76][scale_pick],
            7 => 1e-158,
            _ => 1.0,
        };
        // A burst of a few samples leaves no full variance window only
        // when the detection window and the noise around it are short.
        let (window, lead) = if kind == 8 {
            (4 + window % 4, lead % 4)
        } else {
            (window, lead)
        };
        let det = SignalDetector::new(DetectorConfig {
            window,
            noise_floor: NOISE * amp * amp,
            variance_threshold: [0.05, 0.002, 0.3, -0.1, 0.0][thr_pick],
            ..DetectorConfig::default()
        });
        let rx: Vec<Cplx> = reception(&mut rng, kind, lead, n, stagger, window)
            .into_iter()
            .map(|y| y.scale(amp))
            .collect();
        prop_assert_eq!(
            det.detect(&rx).map(|r| (r.start, r.end, r.interfered)),
            full_pass_detect(&det, &rx)
        );
    }

    /// The searched interference span equals the one read off the
    /// full-pass mask, for every search range: firings that start or
    /// end across refresh boundaries (indices 255/256/257 and 511/512
    /// for a 32-sample window), empty ranges, spans whose last firing
    /// sits blocks below the end of the range, and regions that never
    /// fire.
    #[test]
    fn variance_span_matches_mask(
        kind in 0u8..4, seed in any::<u64>(), window_pick in 0usize..4,
        d1 in 0usize..5, d2 in 0usize..5,
    ) {
        let mut rng = DspRng::seed_from(seed);
        let det = SignalDetector::new(DetectorConfig {
            window: [32, 32, 8, 20][window_pick],
            ..DetectorConfig::default()
        });
        let w = det.config().window.max(8);
        let period = 8 * w;
        let n = 3 * period + 100;
        // A lone constant-envelope signal plus a little noise: its
        // windows never fire, and most are certified.
        let mut rx: Vec<Cplx> = (0..n)
            .map(|_| Cplx::cis(rng.phase()).scale(1.0 + 0.002 * rng.gaussian()))
            .collect();
        match kind {
            0 => {
                // Isolated energy spikes: a spike at k fires exactly
                // windows k ..= k + w − 1. The first firing lands on
                // period − 3 ..= period + 1, the last of the second
                // spike on 2·period − 3 ..= 2·period + 1.
                for k in [period - 3 + d1, 2 * period - w - 2 + d2] {
                    rx[k] = rx[k].scale(10.0);
                }
            }
            1 => {
                // A second MSK signal over a burst that opens near the
                // first boundary and closes near the second.
                let b0 = period - 40 + 10 * d1;
                let b1 = 2 * period - w - 20 + 10 * d2;
                let other = MskModem::default().modulate(&rng.bits(b1 - b0));
                let rot = rng.phase();
                for (k, &s) in other.iter().enumerate().take(b1 - b0) {
                    rx[b0 + k] += s.rotate(rot);
                }
            }
            2 => {}
            _ => {
                for _ in 0..1 + d1 {
                    let k = rng.uniform_int(0, n as u64 - 1) as usize;
                    rx[k] = rx[k].scale(10.0);
                }
            }
        }
        let mut energies = Vec::new();
        energies_into(&rx, &mut energies);
        let mask = det.interference_mask(&rx);
        let froms = [0, w, period - 2, period + 1, 2 * period, n - 1];
        for from in froms {
            for to in 0..=n + 2 {
                prop_assert_eq!(
                    det.interference_span(&energies, from, to),
                    mask_span(&mask, from, to),
                    "range {}..{}", from, to
                );
            }
        }
    }

    /// End-to-end invariant: for a noiseless, phase-swept mixture with
    /// exact amplitudes the matcher's residual is small on nearly all
    /// intervals.
    #[test]
    fn matcher_residual_small_on_real_mixtures(seed in 0u64..2000) {
        let mut rng = DspRng::seed_from(seed);
        let modem = MskModem::default();
        let a_bits = rng.bits(256);
        let b_bits = rng.bits(256);
        let sa = modem.modulate(&a_bits);
        let sb = modem.modulate(&b_bits);
        let (ga, gb) = (rng.phase(), rng.phase());
        let rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate().map(|(k, (&x, &y))| {
            x.rotate(ga) + y.rotate(gb + 0.02 * k as f64)
        }).collect();
        let m = match_phase_differences(&rx, &modem.phase_differences(&a_bits), 1.0, 1.0);
        let small = m.err.iter().filter(|&&e| e < 0.5).count();
        prop_assert!(small * 10 >= m.err.len() * 9, "only {}/{} small residuals", small, m.err.len());
    }
}

/// A detector input of `kind`: 0 noise alone, 1 a clean packet, 2 two
/// packets staggered by `stagger`, 3 an input shorter than the window,
/// 4 a constant signal, 5 a clean or interfered packet carrying NaN and
/// ±∞ samples; 6 and 7 (rescaled by the caller) a clean or interfered
/// packet; 8 a burst of 1–3 unit samples. Packets carry `n` bits
/// between `lead` samples of noise.
fn reception(
    rng: &mut DspRng,
    kind: u8,
    lead: usize,
    n: usize,
    stagger: usize,
    window: usize,
) -> Vec<Cplx> {
    const NOISE: f64 = 1e-4;
    let modem = MskModem::default();
    let interfered = kind == 2 || ((5..=7).contains(&kind) && rng.bit());
    let mut rx: Vec<Cplx> = (0..lead).map(|_| rng.complex_gaussian(NOISE)).collect();
    match kind {
        0 => rx.extend((0..n).map(|_| rng.complex_gaussian(NOISE))),
        4 => rx.extend(std::iter::repeat(Cplx::new(0.6, -0.8)).take(n)),
        8 => rx.extend((0..1 + n % 3).map(|_| Cplx::cis(rng.phase()))),
        _ if interfered => {
            let a = modem.modulate(&rng.bits(n));
            let b = modem.modulate(&rng.bits(n));
            let rb = rng.phase();
            for i in 0..stagger + b.len() {
                let mut y = rng.complex_gaussian(NOISE);
                if i < a.len() {
                    y += a[i];
                }
                if i >= stagger {
                    y += b[i - stagger].rotate(rb);
                }
                rx.push(y);
            }
        }
        _ => {
            let sig = modem.modulate(&rng.bits(n));
            rx.extend(sig.iter().map(|&x| x + rng.complex_gaussian(NOISE)));
        }
    }
    rx.extend((0..lead).map(|_| rng.complex_gaussian(NOISE)));
    if kind == 3 {
        rx.truncate(window - 1);
    }
    if kind == 5 {
        for k in 0..4 {
            let i = rng.uniform_int(0, rx.len() as u64 - 1) as usize;
            rx[i] = match k {
                0 => Cplx::new(f64::NAN, 0.5),
                1 => Cplx::new(0.5, f64::INFINITY),
                2 => Cplx::new(f64::NEG_INFINITY, 0.0),
                _ => Cplx::new(f64::NAN, f64::NAN),
            };
        }
    }
    rx
}

/// `detect` as the full pass computes it: the `locate` bounds, then
/// the peak normalized variance over every full window of the
/// interior against the threshold.
fn full_pass_detect(det: &SignalDetector, rx: &[Cplx]) -> Option<(usize, usize, bool)> {
    let (start, end) = det.locate(rx)?;
    let w = det.config().window;
    let region = &rx[start..end];
    let interior = if region.len() > 2 * w {
        &region[w..region.len() - w]
    } else {
        region
    };
    let mut vw = VarianceWindow::new(w.max(8));
    let mut peak_nv: f64 = 0.0;
    for &s in interior {
        vw.push(s);
        if vw.is_full() {
            let (m, var) = vw.mean_and_variance();
            if m > 0.0 {
                peak_nv = peak_nv.max(var / (m * m));
            }
        }
    }
    Some((start, end, peak_nv > det.config().variance_threshold))
}
