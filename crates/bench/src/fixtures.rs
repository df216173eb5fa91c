//! Shared signal fixtures for the perf harness.
//!
//! The criterion benches and the `perf_baseline` binary measure the
//! same decode pipelines on the same receptions; building those
//! fixtures here keeps the two in lock-step.

use anc_core::decoder::{AncDecoder, DecoderConfig};
use anc_core::detect::{DetectorConfig, SignalDetector};
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_modem::{Modem, MskModem};

/// Receiver noise power used by all perf fixtures.
pub const FIXTURE_NOISE: f64 = 1e-3;

/// Two interfered unit-amplitude MSK packets with independent channel
/// rotations, a small carrier offset, and AWGN. Returns the reception
/// and the first (known) sender's `Δθ_s` stream.
pub fn interfered_stream(n: usize, seed: u64) -> (Vec<Cplx>, Vec<f64>) {
    let mut rng = DspRng::seed_from(seed);
    let modem = MskModem::default();
    let a_bits = rng.bits(n);
    let b_bits = rng.bits(n);
    let sa = modem.modulate(&a_bits);
    let sb = modem.modulate(&b_bits);
    let (ga, gb) = (rng.phase(), rng.phase());
    let rx = sa
        .iter()
        .zip(&sb)
        .enumerate()
        .map(|(k, (&x, &y))| {
            x.rotate(ga) + y.rotate(gb + 0.02 * k as f64) + rng.complex_gaussian(FIXTURE_NOISE)
        })
        .collect();
    (rx, modem.phase_differences(&a_bits))
}

/// A padded interfered reception plus the known frame's on-air bits.
pub struct DecodeFixture {
    /// The reception window (noise-padded).
    pub rx: Vec<Cplx>,
    /// On-air bits of the known frame.
    pub known_bits: Vec<bool>,
}

/// Builds a padded two-packet reception; `known_first` selects whether
/// the known frame leads (forward decode) or trails (backward decode).
pub fn decode_fixture(payload: usize, known_first: bool, seed: u64) -> DecodeFixture {
    let mut rng = DspRng::seed_from(seed);
    let cfg = FrameConfig::default();
    let modem = MskModem::default();
    let kf = Frame::new(Header::new(1, 2, 1, 0), rng.bits(payload));
    let uf = Frame::new(Header::new(2, 1, 1, 0), rng.bits(payload));
    let kb = kf.to_bits(&cfg);
    let ub = uf.to_bits(&cfg);
    let (first, second) = if known_first { (&kb, &ub) } else { (&ub, &kb) };
    let s1 = modem.modulate(first);
    let s2 = modem.modulate(second);
    let (g1, g2) = (rng.phase(), rng.phase());
    let lead = 300;
    let span = lead + s2.len();
    let mut rx: Vec<Cplx> = (0..128)
        .map(|_| rng.complex_gaussian(FIXTURE_NOISE))
        .collect();
    rx.extend((0..span).map(|t| {
        let mut s = rng.complex_gaussian(FIXTURE_NOISE);
        if t < s1.len() {
            s += s1[t].rotate(g1);
        }
        if t >= lead {
            let k = t - lead;
            s += s2[k].rotate(g2 + 0.02 * k as f64);
        }
        s
    }));
    rx.extend((0..128).map(|_| rng.complex_gaussian(FIXTURE_NOISE)));
    DecodeFixture { rx, known_bits: kb }
}

/// An Alg.-1 decoder configured for the fixture noise floor.
pub fn fixture_decoder() -> AncDecoder {
    AncDecoder::new(DecoderConfig {
        detector: DetectorConfig {
            noise_floor: FIXTURE_NOISE,
            ..Default::default()
        },
        ..Default::default()
    })
}

/// A §7.1 detector configured for the fixture noise floor.
pub fn fixture_detector() -> SignalDetector {
    SignalDetector::new(DetectorConfig {
        noise_floor: FIXTURE_NOISE,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (a, da) = interfered_stream(64, 9);
        let (b, db) = interfered_stream(64, 9);
        assert_eq!(a, b);
        assert_eq!(da, db);
        let fa = decode_fixture(256, true, 5);
        let fb = decode_fixture(256, true, 5);
        assert_eq!(fa.rx, fb.rx);
        assert_eq!(fa.known_bits, fb.known_bits);
    }
}
