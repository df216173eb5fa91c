//! Minimum Shift Keying modulator and demodulator (§5, Fig. 3).
//!
//! ## Modulation (§5.2)
//!
//! Time is divided into symbol intervals of duration `T`. During each
//! interval the signal phase advances linearly by `+π/2` (bit 1) or
//! `−π/2` (bit 0); the amplitude `A_s` is constant. The modem works at
//! one complex sample per symbol, as the paper's math does: each sample
//! advances the phase by `±π/2`, walking the trajectory of Fig. 3. The
//! waveform carries one extra trailing sample so the final symbol's
//! full transition is observable.
//!
//! ## Demodulation (§5.3)
//!
//! For consecutive samples, the ratio
//! `r = y[n+1]/y[n] = e^{i(θ[n+1]−θ[n])}` (Eq. 1) is invariant to both
//! the channel attenuation `h` and phase shift `γ`. The receiver maps
//! `arg(r) ≥ 0 → 1` and `< 0 → 0`.

use crate::Modem;
use anc_dsp::Cplx;
use std::f64::consts::FRAC_PI_2;

/// Configuration for the MSK modem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MskConfig {
    /// Transmit amplitude `A_s` (§5.2: constant for MSK).
    pub amplitude: f64,
}

impl Default for MskConfig {
    fn default() -> Self {
        MskConfig { amplitude: 1.0 }
    }
}

impl MskConfig {
    /// Configuration with the given amplitude.
    pub fn with_amplitude(amplitude: f64) -> Self {
        MskConfig { amplitude }
    }
}

/// The MSK modem.
///
/// ```
/// use anc_modem::{Modem, MskModem};
/// let modem = MskModem::default();
/// let bits = vec![true, false, true, false, true, true, true, false, false, false];
/// let signal = modem.modulate(&bits);
/// assert_eq!(modem.demodulate(&signal), bits);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MskModem {
    cfg: MskConfig,
}

impl MskModem {
    /// Creates a modem from a configuration.
    ///
    /// # Panics
    /// Panics if `amplitude <= 0`.
    pub fn new(cfg: MskConfig) -> Self {
        assert!(cfg.amplitude > 0.0, "amplitude must be positive");
        MskModem { cfg }
    }

    /// The phase trajectory (radians, unwrapped) that [`Modem::modulate`]
    /// walks for the given bits, starting at 0 — one value per output
    /// sample. This regenerates Fig. 3 of the paper.
    pub fn phase_trajectory(&self, bits: &[bool]) -> Vec<f64> {
        let mut phases = Vec::with_capacity(bits.len() + 1);
        self.walk_phases(bits, |_, phi| phases.push(phi));
        phases
    }

    /// Walks the phase trajectory, calling `visit(k, φ)` once per output
    /// sample, where `k` is the net number of `±π/2` steps taken so far
    /// and `φ` the accumulated phase. [`Self::phase_trajectory`] and
    /// [`Modem::modulate`] share this walk, so both see the same `φ`
    /// bits.
    fn walk_phases(&self, bits: &[bool], mut visit: impl FnMut(i64, f64)) {
        let mut phi = 0.0;
        let mut k = 0i64;
        visit(k, phi);
        for &bit in bits {
            let (d, dk) = if bit {
                (FRAC_PI_2, 1)
            } else {
                (-FRAC_PI_2, -1)
            };
            phi += d;
            k += dk;
            visit(k, phi);
        }
    }

    /// The per-symbol phase increments (`+π/2` / `−π/2`) for a bit
    /// sequence — the "known phase differences" `Δθ_s[n]` that the ANC
    /// decoder matches against (§6.3).
    pub fn phase_differences(&self, bits: &[bool]) -> Vec<f64> {
        let mut out = Vec::new();
        self.phase_differences_into(bits, &mut out);
        out
    }

    /// [`MskModem::phase_differences`] into a caller-owned buffer, so a
    /// decoder running many packets amortizes the allocation (the
    /// buffer is cleared, then filled).
    pub fn phase_differences_into(&self, bits: &[bool], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(bits.len());
        out.extend(bits.iter().map(|&b| if b { FRAC_PI_2 } else { -FRAC_PI_2 }));
    }

    /// Soft demodulation: returns the measured phase difference for each
    /// symbol instead of a hard bit. The ANC decoder's final step (§6.4)
    /// thresholds these at zero.
    pub fn demodulate_soft(&self, samples: &[Cplx]) -> Vec<f64> {
        samples.windows(2).map(|w| (w[1] / w[0]).arg()).collect()
    }

    /// [`Modem::demodulate`] into a caller-owned buffer: clears `out`,
    /// then appends the hard decisions. Skips the intermediate soft
    /// vector entirely, so the decode hot path performs no allocation
    /// once the buffer has grown to packet size.
    pub fn demodulate_into(&self, samples: &[Cplx], out: &mut Vec<bool>) {
        out.clear();
        self.demodulate_extend(samples, out);
    }

    /// [`MskModem::demodulate_into`] without the clear: appends the
    /// decisions after any bits already in `out`. The decoder uses this
    /// to attach the clean-tail bits directly after the matcher's
    /// overlap bits (§7.2 step 5).
    pub fn demodulate_extend(&self, samples: &[Cplx], out: &mut Vec<bool>) {
        // §5.3 / §6.4 decision rule: Δθ ≥ 0 → "1", else "0" — the sign
        // of arg(b/a) read off the quotient directly, skipping the atan2
        // (`demodulate_soft` remains the thresholded reference). The
        // quotient itself is kept — NOT b·conj(a) — because a = 0 must
        // keep yielding NaN → bit 0, exactly as the soft path's arg does.
        out.extend(
            samples
                .windows(2)
                .map(|w| (w[1] / w[0]).arg_is_non_negative()),
        );
    }
}

/// A fixed-size phasor cache for one [`Modem::modulate`] call, held on
/// the stack. Slot `k mod 256` holds the phasors of net step count `k`;
/// a phase sum reached along different paths can differ in its last
/// bits, so each slot keeps two ways keyed on φ's exact bits, the most
/// recently stored first. A hit returns the stored `from_polar` result, a miss
/// computes and stores it, so the output never depends on the cache.
struct PhasorMemo {
    keys: [[u64; 2]; PhasorMemo::SLOTS],
    phasors: [[Cplx; 2]; PhasorMemo::SLOTS],
}

impl PhasorMemo {
    const SLOTS: usize = u8::MAX as usize + 1;
    /// A NaN bit pattern: the walked phase is a finite sum, so an empty
    /// way never matches.
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        PhasorMemo {
            keys: [[Self::EMPTY; 2]; Self::SLOTS],
            phasors: [[Cplx::ZERO; 2]; Self::SLOTS],
        }
    }

    #[inline]
    fn phasor(&mut self, k: i64, phi: f64, amplitude: f64) -> Cplx {
        // The low byte of a two's-complement `k` is `k mod 256`.
        let slot = usize::from(k as u8);
        let key = phi.to_bits();
        let (keys, phasors) = (&mut self.keys[slot], &mut self.phasors[slot]);
        if keys[0] == key {
            return phasors[0];
        }
        if keys[1] == key {
            return phasors[1];
        }
        let z = Cplx::from_polar(amplitude, phi);
        *keys = [key, keys[0]];
        *phasors = [z, phasors[0]];
        z
    }
}

impl Modem for MskModem {
    /// `Cplx::from_polar(A_s, φ)` for every trajectory phase. The walk
    /// revisits a few dozen phases per frame, so each phasor is
    /// memoised on φ's exact bits and computed once: bit-identical to
    /// mapping `from_polar` over [`MskModem::phase_trajectory`].
    fn modulate(&self, bits: &[bool]) -> Vec<Cplx> {
        let amplitude = self.cfg.amplitude;
        let mut memo = PhasorMemo::new();
        let mut out = Vec::with_capacity(bits.len() + 1);
        self.walk_phases(bits, |k, phi| out.push(memo.phasor(k, phi, amplitude)));
        out
    }

    /// §5.3 / §6.4 decision rule: Δθ ≥ 0 → "1", else "0", read off the
    /// quotient's sign ([`MskModem::demodulate_extend`]) — bit-identical
    /// to thresholding [`MskModem::demodulate_soft`].
    fn demodulate(&self, samples: &[Cplx]) -> Vec<bool> {
        let mut out = Vec::new();
        self.demodulate_extend(samples, &mut out);
        out
    }

    fn bits_per_symbol(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn roundtrip_symbol_rate() {
        let modem = MskModem::default();
        let data = bits("1010111000");
        assert_eq!(modem.demodulate(&modem.modulate(&data)), data);
    }

    #[test]
    fn roundtrip_random_long() {
        let mut rng = DspRng::seed_from(42);
        let data = rng.bits(2000);
        let modem = MskModem::default();
        assert_eq!(modem.demodulate(&modem.modulate(&data)), data);
    }

    #[test]
    fn fig3_phase_walk() {
        // Fig. 3 of the paper: data 1010111000 starting at phase 0.
        // After bit 1 ("1"): π/2; after bit 2 ("0"): 0; then π/2, 0,
        // π/2, π, 3π/2, π, π/2, 0.
        let modem = MskModem::default();
        let traj = modem.phase_trajectory(&bits("1010111000"));
        let expected = [
            0.0,
            FRAC_PI_2,
            0.0,
            FRAC_PI_2,
            0.0,
            FRAC_PI_2,
            PI,
            3.0 * FRAC_PI_2,
            PI,
            FRAC_PI_2,
            0.0,
        ];
        assert_eq!(traj.len(), expected.len());
        for (got, want) in traj.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn memoised_modulate_matches_from_polar_over_trajectory() {
        // The phasor memo must be invisible: every sample carries the
        // exact bits of `from_polar(A_s, φ)` over the walked phases,
        // including walks long and one-sided enough that the net step
        // count wraps the 256-slot table many times over.
        let mut rng = DspRng::seed_from(5);
        for amplitude in [1.0, 0.37, 2.5] {
            let modem = MskModem::new(MskConfig::with_amplitude(amplitude));
            for len in [0, 1, 2, 17, 560, 8400] {
                for data in [vec![true; len], vec![false; len], rng.bits(len)] {
                    let want: Vec<(u64, u64)> = modem
                        .phase_trajectory(&data)
                        .into_iter()
                        .map(|phi| {
                            let z = Cplx::from_polar(amplitude, phi);
                            (z.re.to_bits(), z.im.to_bits())
                        })
                        .collect();
                    let got: Vec<(u64, u64)> = modem
                        .modulate(&data)
                        .into_iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect();
                    assert!(got == want, "A = {amplitude}, {len} bits");
                }
            }
        }
    }

    #[test]
    fn constant_amplitude() {
        // §5.2: "in MSK, the amplitude of the transmitted signal is a
        // constant. The phase embeds all information."
        let modem = MskModem::new(MskConfig::with_amplitude(2.5));
        for s in modem.modulate(&bits("1101001")) {
            assert!((s.norm() - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_count_matches_trait() {
        let modem = MskModem::default();
        let data = bits("10110");
        assert_eq!(modem.modulate(&data).len(), modem.sample_count(5));
        assert_eq!(modem.sample_count(5), 6);
    }

    #[test]
    fn demod_invariant_to_channel() {
        // Eq. 1's key property: attenuation + rotation leave the
        // demodulated bits untouched.
        let modem = MskModem::default();
        let data = bits("100110101111000");
        let signal = modem.modulate(&data);
        let distorted: Vec<Cplx> = signal.iter().map(|&s| s.scale(0.1).rotate(2.1)).collect();
        assert_eq!(modem.demodulate(&distorted), data);
    }

    #[test]
    fn demod_survives_mild_noise() {
        let modem = MskModem::default();
        let mut rng = DspRng::seed_from(7);
        let data = rng.bits(500);
        let signal = modem.modulate(&data);
        // SNR = 20 dB on unit-amplitude signal -> noise power 0.01.
        let noisy: Vec<Cplx> = signal
            .iter()
            .map(|&s| s + rng.complex_gaussian(0.01))
            .collect();
        let out = modem.demodulate(&noisy);
        let errors = out.iter().zip(&data).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "20 dB SNR must be error-free for MSK");
    }

    #[test]
    fn soft_decisions_near_half_pi() {
        let modem = MskModem::default();
        let soft = modem.demodulate_soft(&modem.modulate(&bits("10")));
        assert_eq!(soft.len(), 2);
        assert!((soft[0] - FRAC_PI_2).abs() < 1e-12);
        assert!((soft[1] + FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn phase_differences_are_pm_half_pi() {
        let modem = MskModem::default();
        let d = modem.phase_differences(&bits("110"));
        assert_eq!(d, vec![FRAC_PI_2, FRAC_PI_2, -FRAC_PI_2]);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let modem = MskModem::default();
        let mut rng = DspRng::seed_from(11);
        let data = rng.bits(300);
        let signal: Vec<Cplx> = modem
            .modulate(&data)
            .iter()
            .map(|&s| s.rotate(0.9) + rng.complex_gaussian(0.01))
            .collect();
        // Buffers deliberately pre-dirtied: the _into contract clears.
        let mut bit_buf = vec![true; 7];
        modem.demodulate_into(&signal, &mut bit_buf);
        assert_eq!(bit_buf, modem.demodulate(&signal));
        let mut d_buf = vec![1.0; 3];
        modem.phase_differences_into(&data, &mut d_buf);
        assert_eq!(d_buf, modem.phase_differences(&data));
        // Extend appends after existing content.
        let mut appended = vec![false];
        modem.demodulate_extend(&signal, &mut appended);
        assert!(!appended[0]);
        assert_eq!(&appended[1..], modem.demodulate(&signal).as_slice());
    }

    #[test]
    fn hard_decisions_match_thresholded_soft_path() {
        // The hard demodulator reads the bit off the quotient's sign
        // predicate instead of atan2; it must agree with `Δφ ≥ 0` over
        // the soft stream everywhere — including degenerate samples
        // (zeros → ±π or NaN quotients, NaN samples).
        let modem = MskModem::default();
        let mut rng = anc_dsp::DspRng::seed_from(77);
        let mut signal = modem.modulate(&rng.bits(200));
        for s in signal.iter_mut() {
            *s += rng.complex_gaussian(0.05);
        }
        signal[17] = Cplx::ZERO;
        signal[63] = Cplx::new(-1.0, 0.0);
        signal[64] = Cplx::new(1.0, -0.0);
        signal[90] = Cplx::new(f64::NAN, 0.5);
        let soft: Vec<bool> = modem
            .demodulate_soft(&signal)
            .into_iter()
            .map(|dphi| dphi >= 0.0)
            .collect();
        let mut hard = Vec::new();
        modem.demodulate_into(&signal, &mut hard);
        assert_eq!(hard, soft);
    }

    #[test]
    fn empty_input() {
        let modem = MskModem::default();
        assert_eq!(modem.modulate(&[]).len(), 1); // just the initial phase point
        assert!(modem.demodulate(&[]).is_empty());
        assert!(modem.demodulate(&[Cplx::ONE]).is_empty());
    }

    #[test]
    #[should_panic]
    fn non_positive_amplitude_rejected() {
        let _ = MskModem::new(MskConfig::with_amplitude(0.0));
    }
}
