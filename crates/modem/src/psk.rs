//! Differential BPSK and QPSK modems.
//!
//! §4 of the paper: *"the ideas we develop in this paper, especially
//! §6.1, are applicable to any phase shift keying modulation."* These
//! two modems make that concrete. Both are differential — information
//! rides on the phase *change* between consecutive symbols — so, like
//! MSK, their demodulators are invariant to constant channel
//! attenuation and rotation.
//!
//! * **DBPSK**: bit 1 → phase change `π`, bit 0 → phase change `0`.
//! * **DQPSK**: two bits per symbol, Gray-mapped onto changes
//!   `{+π/4, +3π/4, −3π/4, −π/4}` (π/4-DQPSK, as used by several
//!   cellular standards).
//!
//! Unlike MSK the phase jumps at symbol boundaries instead of ramping,
//! so these waveforms are not constant-envelope after filtering — but at
//! baseband sample level the amplitude is constant, which keeps the
//! §7.1 interference detector applicable.

use crate::Modem;
use anc_dsp::{wrap_pi, Cplx};
use std::f64::consts::{FRAC_PI_4, PI};

/// Differential binary phase-shift keying.
#[derive(Debug, Clone)]
pub struct DbpskModem {
    amplitude: f64,
}

impl Default for DbpskModem {
    fn default() -> Self {
        DbpskModem { amplitude: 1.0 }
    }
}

impl DbpskModem {
    /// Creates a DBPSK modem.
    ///
    /// # Panics
    /// Panics on a non-positive amplitude.
    pub fn new(amplitude: f64) -> Self {
        assert!(amplitude > 0.0);
        DbpskModem { amplitude }
    }
}

impl Modem for DbpskModem {
    fn modulate(&self, bits: &[bool]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(bits.len() + 1);
        let mut phi = 0.0_f64;
        out.push(Cplx::from_polar(self.amplitude, phi));
        for &bit in bits {
            // The phase jumps at the symbol boundary.
            phi = wrap_pi(phi + if bit { PI } else { 0.0 });
            out.push(Cplx::from_polar(self.amplitude, phi));
        }
        out
    }

    fn demodulate(&self, samples: &[Cplx]) -> Vec<bool> {
        samples
            .windows(2)
            .map(|w| (w[1] / w[0]).arg().abs() > PI / 2.0)
            .collect()
    }

    fn bits_per_symbol(&self) -> usize {
        1
    }
}

/// π/4 differential quadrature phase-shift keying (two bits per symbol).
#[derive(Debug, Clone)]
pub struct DqpskModem {
    amplitude: f64,
}

impl Default for DqpskModem {
    fn default() -> Self {
        DqpskModem { amplitude: 1.0 }
    }
}

/// Gray mapping from a dibit to a phase change, and back.
const DQPSK_PHASES: [(bool, bool, f64); 4] = [
    (false, false, FRAC_PI_4),      // 00 -> +45°
    (false, true, 3.0 * FRAC_PI_4), // 01 -> +135°
    (true, true, -3.0 * FRAC_PI_4), // 11 -> -135°
    (true, false, -FRAC_PI_4),      // 10 -> -45°
];

impl DqpskModem {
    /// Creates a DQPSK modem.
    ///
    /// # Panics
    /// Panics on a non-positive amplitude.
    pub fn new(amplitude: f64) -> Self {
        assert!(amplitude > 0.0);
        DqpskModem { amplitude }
    }

    fn dibit_to_phase(b0: bool, b1: bool) -> f64 {
        DQPSK_PHASES
            .iter()
            .find(|&&(x, y, _)| x == b0 && y == b1)
            .map(|&(_, _, p)| p)
            .expect("all dibits mapped")
    }

    fn phase_to_dibit(dphi: f64) -> (bool, bool) {
        // Nearest of the four constellation changes, on the circle.
        let mut best = (false, false);
        let mut best_err = f64::INFINITY;
        for &(b0, b1, p) in &DQPSK_PHASES {
            let err = wrap_pi(dphi - p).abs();
            if err < best_err {
                best_err = err;
                best = (b0, b1);
            }
        }
        best
    }
}

impl Modem for DqpskModem {
    fn modulate(&self, bits: &[bool]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(bits.len().div_ceil(2) + 1);
        let mut phi = 0.0_f64;
        out.push(Cplx::from_polar(self.amplitude, phi));
        let mut idx = 0;
        while idx < bits.len() {
            let b0 = bits[idx];
            let b1 = if idx + 1 < bits.len() {
                bits[idx + 1]
            } else {
                false
            };
            phi = wrap_pi(phi + Self::dibit_to_phase(b0, b1));
            out.push(Cplx::from_polar(self.amplitude, phi));
            idx += 2;
        }
        out
    }

    fn demodulate(&self, samples: &[Cplx]) -> Vec<bool> {
        let mut out = Vec::with_capacity(2 * samples.len().saturating_sub(1));
        for w in samples.windows(2) {
            let (b0, b1) = Self::phase_to_dibit((w[1] / w[0]).arg());
            out.push(b0);
            out.push(b1);
        }
        out
    }

    fn bits_per_symbol(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;

    #[test]
    fn dbpsk_roundtrip() {
        let modem = DbpskModem::default();
        let mut rng = DspRng::seed_from(1);
        let data = rng.bits(300);
        assert_eq!(modem.demodulate(&modem.modulate(&data)), data);
    }

    #[test]
    fn dbpsk_amplitude_roundtrip() {
        let modem = DbpskModem::new(2.0);
        let mut rng = DspRng::seed_from(2);
        let data = rng.bits(128);
        assert_eq!(modem.demodulate(&modem.modulate(&data)), data);
    }

    #[test]
    fn dbpsk_channel_invariance() {
        let modem = DbpskModem::default();
        let data = vec![true, false, false, true, true];
        let distorted: Vec<Cplx> = modem
            .modulate(&data)
            .iter()
            .map(|&s| s.scale(0.2).rotate(-1.9))
            .collect();
        assert_eq!(modem.demodulate(&distorted), data);
    }

    #[test]
    fn dqpsk_roundtrip_even() {
        let modem = DqpskModem::default();
        let mut rng = DspRng::seed_from(3);
        let data = rng.bits(400); // even number
        assert_eq!(modem.demodulate(&modem.modulate(&data)), data);
    }

    #[test]
    fn dqpsk_odd_length_pads() {
        let modem = DqpskModem::default();
        let data = vec![true, false, true]; // odd: last dibit padded with 0
        let out = modem.demodulate(&modem.modulate(&data));
        assert_eq!(out.len(), 4);
        assert_eq!(&out[..3], &data[..]);
        assert!(!out[3]);
    }

    #[test]
    fn dqpsk_channel_invariance() {
        let modem = DqpskModem::new(1.5);
        let mut rng = DspRng::seed_from(4);
        let data = rng.bits(64);
        let distorted: Vec<Cplx> = modem
            .modulate(&data)
            .iter()
            .map(|&s| s.scale(3.0).rotate(0.77))
            .collect();
        assert_eq!(modem.demodulate(&distorted), data);
    }

    #[test]
    fn dqpsk_gray_mapping_bijective() {
        for &(b0, b1, p) in &DQPSK_PHASES {
            assert_eq!(DqpskModem::phase_to_dibit(p), (b0, b1));
        }
    }

    #[test]
    fn dqpsk_noise_tolerance() {
        // Gray mapping: a small phase error flips at most one bit.
        let modem = DqpskModem::default();
        let mut rng = DspRng::seed_from(5);
        let data = rng.bits(1000);
        let noisy: Vec<Cplx> = modem
            .modulate(&data)
            .iter()
            .map(|&s| s + rng.complex_gaussian(0.005))
            .collect();
        let out = modem.demodulate(&noisy);
        let errors = out.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "23 dB SNR must be error-free for DQPSK");
    }

    #[test]
    fn constant_envelope_at_baseband() {
        let modem = DqpskModem::default();
        for s in modem.modulate(&[true, true, false, false]) {
            assert!((s.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_inputs() {
        let b = DbpskModem::default();
        let q = DqpskModem::default();
        assert!(b.demodulate(&[]).is_empty());
        assert!(q.demodulate(&[]).is_empty());
        assert_eq!(b.modulate(&[]).len(), 1);
        assert_eq!(q.modulate(&[]).len(), 1);
    }
}
