//! Property-based tests for the MSK modem's hard decisions.

use anc_dsp::{Cplx, DspRng};
use anc_modem::{Modem, MskModem};
use proptest::prelude::*;

/// The §5.3 reference decision: the soft `Δθ = arg(b/a)` thresholded
/// at zero (`NaN` decides 0).
fn thresholded_soft(modem: &MskModem, samples: &[Cplx]) -> Vec<bool> {
    modem
        .demodulate_soft(samples)
        .into_iter()
        .map(|dphi| dphi >= 0.0)
        .collect()
}

/// Component values where `atan2`'s sign is decided by IEEE corner
/// cases: NaN, signed zeros and infinities, subnormals, and magnitudes
/// whose quotients overflow or underflow.
const EDGES: [f64; 15] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    1e-300,
    -1e-300,
    1.0,
    -1.0,
    1e300,
    -1e300,
];

/// One sample component from a random word: an [`EDGES`] value, a
/// random subnormal, or an ordinary value in (−2, 2).
fn component(w: u64) -> f64 {
    let sign = if w & 1 == 1 { -1.0 } else { 1.0 };
    match (w >> 1) % 4 {
        0 => EDGES[((w >> 3) % EDGES.len() as u64) as usize],
        1 => sign * f64::from_bits((w >> 12) & ((1 << 52) - 1)),
        _ => sign * 2.0 * ((w >> 11) as f64 / (1u64 << 53) as f64),
    }
}

/// Every ordered pair of edge samples one symbol apart: the decisions
/// a random draw would almost never reach, such as `atan2` underflowing
/// to `−0.0` on a quotient with a tiny negative imaginary part.
#[test]
fn bitpath_demodulate_matches_thresholded_soft_on_edge_pairs() {
    let values: Vec<Cplx> = EDGES
        .iter()
        .flat_map(|&re| EDGES.iter().map(move |&im| Cplx::new(re, im)))
        .collect();
    let modem = MskModem::default();
    for &a in &values {
        for &b in &values {
            let samples = [a, b];
            assert_eq!(
                modem.demodulate(&samples),
                thresholded_soft(&modem, &samples),
                "a = {a:?}, b = {b:?}"
            );
        }
    }
}

proptest! {
    /// `Modem::demodulate` equals thresholded `demodulate_soft` on noisy
    /// MSK waveforms, with NaN, ±0, ±∞, subnormal and
    /// extreme samples poked in at random.
    #[test]
    fn bitpath_demodulate_matches_thresholded_soft(
        seed in any::<u64>(),
        nbits in 0usize..300,
        pokes in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let modem = MskModem::default();
        let mut rng = DspRng::seed_from(seed);
        let gamma = rng.phase();
        let mut samples: Vec<Cplx> = modem
            .modulate(&rng.bits(nbits))
            .into_iter()
            .map(|s| s.rotate(gamma) + rng.complex_gaussian(0.05))
            .collect();
        for &w in &pokes {
            let i = (w >> 40) as usize % samples.len();
            samples[i] = Cplx::new(component(w), component(w.rotate_left(29)));
        }
        prop_assert_eq!(modem.demodulate(&samples), thresholded_soft(&modem, &samples));
        let mut into = vec![true; 5];
        modem.demodulate_into(&samples, &mut into);
        prop_assert_eq!(into, modem.demodulate(&samples));
    }
}
