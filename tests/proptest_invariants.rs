//! Property-based tests (proptest) over the core data structures and
//! the paper's algebraic invariants.

use anc::prelude::*;
use anc_dsp::angle::circular_distance;
use anc_dsp::lfsr::WHITEN_SEED;
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    /// wrap_pi always lands in (-π, π] and preserves the angle mod 2π.
    #[test]
    fn wrap_pi_range_and_equivalence(theta in -1e6f64..1e6f64) {
        let w = wrap_pi(theta);
        prop_assert!(w > -PI - 1e-9 && w <= PI + 1e-9);
        // Same point on the circle: distance ≈ 0.
        prop_assert!(circular_distance(w, theta) < 1e-6);
    }

    /// Circular distance is a metric-ish: symmetric, bounded by π, zero
    /// on self.
    #[test]
    fn circular_distance_properties(a in -50.0f64..50.0, b in -50.0f64..50.0) {
        prop_assert!((circular_distance(a, b) - circular_distance(b, a)).abs() < 1e-12);
        prop_assert!(circular_distance(a, b) <= PI + 1e-12);
        prop_assert!(circular_distance(a, a) < 1e-12);
    }

    /// Complex polar roundtrip.
    #[test]
    fn cplx_polar_roundtrip(r in 1e-6f64..1e3, theta in -PI..PI) {
        let z = Cplx::from_polar(r, theta);
        prop_assert!((z.norm() - r).abs() / r < 1e-9);
        prop_assert!(circular_distance(z.arg(), theta) < 1e-9);
    }

    /// Division undoes multiplication.
    #[test]
    fn cplx_mul_div_inverse(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in 0.1f64..10.0, bi in 0.1f64..10.0,
    ) {
        let a = Cplx::new(ar, ai);
        let b = Cplx::new(br, bi);
        prop_assert!(((a * b) / b - a).norm() < 1e-9);
    }

    /// MSK modulate→demodulate is the identity for any bit pattern,
    /// under any constant channel rotation/attenuation (Eq. 1).
    #[test]
    fn msk_roundtrip_any_bits_any_channel(
        bits in proptest::collection::vec(any::<bool>(), 1..200),
        gain in 0.05f64..3.0,
        phase in -PI..PI,
    ) {
        let modem = MskModem::default();
        let rx: Vec<Cplx> = modem
            .modulate(&bits)
            .into_iter()
            .map(|s| s.scale(gain).rotate(phase))
            .collect();
        prop_assert_eq!(modem.demodulate(&rx), bits);
    }

    /// Lemma 6.1: for any synthetic interfered sample, one of the two
    /// solutions reconstructs the true phases, and both reconstruct y.
    #[test]
    fn lemma61_reconstruction(
        a in 0.05f64..3.0,
        b in 0.05f64..3.0,
        theta in -PI..PI,
        phi in -PI..PI,
    ) {
        let y = Cplx::from_polar(a, theta) + Cplx::from_polar(b, phi);
        prop_assume!(y.norm() > 1e-6); // destructive null carries no info
        let sol = solve_phases(y, a, b);
        let recovered = [sol.first, sol.second].iter().any(|p| {
            circular_distance(p.theta, theta) < 1e-6
                && circular_distance(p.phi, phi) < 1e-6
        });
        prop_assert!(recovered);
        for p in [sol.first, sol.second] {
            let back = Cplx::from_polar(a, p.theta) + Cplx::from_polar(b, p.phi);
            prop_assert!((back - y).norm() < 1e-6);
        }
    }

    /// Frame serialization roundtrips for arbitrary payloads and both
    /// whitening settings.
    #[test]
    fn frame_roundtrip(
        payload in proptest::collection::vec(any::<bool>(), 0..300),
        src in any::<u8>(),
        dst in any::<u8>(),
        seq in any::<u16>(),
        whiten in any::<bool>(),
    ) {
        let cfg = FrameConfig { whiten, ..Default::default() };
        let f = Frame::new(Header::new(src, dst, seq, 0), payload);
        let bits = f.to_bits(&cfg);
        prop_assert_eq!(Frame::parse_lenient(&bits, &cfg), Ok((f, 0, true)));
    }

    /// Any single payload-bit flip is caught by the CRC.
    #[test]
    fn frame_crc_catches_single_flips(
        payload in proptest::collection::vec(any::<bool>(), 32..128),
        flip in 0usize..32,
    ) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(1, 2, 3, 0), payload);
        let mut bits = f.to_bits(&cfg);
        let body = cfg.pilot_len + 64; // pilot + header
        bits[body + flip] = !bits[body + flip];
        // The lenient parse still recovers the frame identity.
        let (lf, _, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        prop_assert!(!crc_ok);
        prop_assert_eq!(lf.header, f.header);
    }

    /// Whitening is an involution for any data and never changes length.
    #[test]
    fn whitening_involution(data in proptest::collection::vec(any::<bool>(), 0..500)) {
        let mut w = data.clone();
        Lfsr::new(WHITEN_SEED).whiten(&mut w);
        prop_assert_eq!(w.len(), data.len());
        Lfsr::new(WHITEN_SEED).whiten(&mut w);
        prop_assert_eq!(w, data);
    }

    /// COPE XOR is self-inverse over the air for equal-length payloads.
    #[test]
    fn cope_xor_recovers(
        pa in proptest::collection::vec(any::<bool>(), 64),
        pb in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let fa = Frame::new(Header::new(1, 2, 9, 0), pa);
        let fb = Frame::new(Header::new(2, 1, 9, 0), pb);
        let coded = CopeCoder.encode(&fa, &fb, 5, 0);
        let mut buf = SentPacketBuffer::new(2);
        buf.insert(fa.clone());
        let dec = CopeCoder.decode(&coded, &buf).unwrap();
        prop_assert_eq!(dec.payload, fb.payload);
        prop_assert_eq!(dec.header.key(), fb.header.key());
    }

    /// CDF invariants: fractions monotone in x, quantile inverts.
    #[test]
    fn cdf_monotone(samples in proptest::collection::vec(-100.0f64..100.0, 1..100)) {
        let cdf = Cdf::from_samples(&samples);
        let mut prev = 0.0;
        for x in [-150.0, -50.0, 0.0, 50.0, 150.0] {
            let f = cdf.fraction_le(x);
            prop_assert!(f >= prev);
            prop_assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        prop_assert!((cdf.fraction_le(150.0) - 1.0).abs() < 1e-12);
    }

    /// The matcher recovers the unknown signal for any amplitude pair
    /// within the SIR range the paper demonstrates (±4.8 dB around
    /// equal power), noiselessly, up to the degenerate-sample residue.
    #[test]
    fn matcher_recovers_in_sir_envelope(
        seed in 0u64..5000,
        b_amp in 0.58f64..1.7,
    ) {
        let mut rng = DspRng::seed_from(seed);
        let modem = MskModem::default();
        let n = 300usize;
        let a_bits = rng.bits(n);
        let b_bits = rng.bits(n);
        let sa = modem.modulate(&a_bits);
        let sb = modem.modulate(&b_bits);
        let (ga, gb) = (rng.phase(), rng.phase());
        let rx: Vec<Cplx> = sa.iter().zip(&sb).enumerate().map(|(k, (&x, &y))| {
            x.rotate(ga) + y.scale(b_amp).rotate(gb + 0.02 * k as f64)
        }).collect();
        let m = match_phase_differences(&rx, &modem.phase_differences(&a_bits), 1.0, b_amp);
        let errors = m.bits().iter().zip(&b_bits).filter(|(x, y)| x != y).count();
        prop_assert!(errors * 20 <= n, "errors {} / {}", errors, n); // ≤ 5%
    }
}
