//! A directed propagation path between two radios.
//!
//! §5.3: *"if the transmitted sample is `A_s[n]·e^{iθ_s[n]}` the
//! received signal can be approximated as `y[n] = h·A_s[n]·e^{i(θ_s[n]+γ)}`,
//! where `h` is channel attenuation and `γ` is a phase shift that
//! depends on the distance between the sender and the receiver."*
//!
//! A [`Link`] carries exactly those two parameters. The time shift
//! between senders (§7.2) is the integer `start` of each transmission
//! at the receiver, not a property of the link.

use anc_dsp::{Cplx, DspRng};

/// One directed wireless link: `y[n] = h·e^{iγ}·x[n]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Amplitude attenuation `h` (> 0; 1 = lossless).
    pub gain: f64,
    /// Phase shift `γ` in radians.
    pub phase: f64,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            gain: 1.0,
            phase: 0.0,
        }
    }
}

impl Link {
    /// Creates a link of gain `gain` and phase `phase`. The third
    /// argument is a propagation delay in samples, which a link does
    /// not model: it must be zero (sender timing is a transmission's
    /// integer `start`).
    ///
    /// # Panics
    /// Panics if `gain <= 0` or `delay != 0`.
    pub fn new(gain: f64, phase: f64, delay: f64) -> Self {
        assert!(gain > 0.0, "link gain must be positive");
        assert!(delay == 0.0, "a link carries no propagation delay");
        Link { gain, phase }
    }

    /// An identity link (no attenuation or rotation).
    pub fn ideal() -> Self {
        Link::default()
    }

    /// Draws a random link: gain uniform in `[gain_lo, gain_hi]`, phase
    /// uniform on the circle. Experiment runs use this for per-run
    /// channel realizations (§11.4 repeats each experiment 40 times
    /// over varying channels).
    pub fn random(rng: &mut DspRng, gain_lo: f64, gain_hi: f64) -> Self {
        Link {
            gain: rng.uniform_range(gain_lo, gain_hi),
            phase: rng.phase(),
        }
    }

    /// The complex channel coefficient `h·e^{iγ}`.
    #[inline]
    pub fn coefficient(&self) -> Cplx {
        Cplx::from_polar(self.gain, self.phase)
    }

    /// Applies the link (gain and phase) to a waveform.
    pub fn apply(&self, x: &[Cplx]) -> Vec<Cplx> {
        let coeff = self.coefficient();
        x.iter().map(|&s| s * coeff).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_modem::{Modem, MskModem};

    #[test]
    fn ideal_link_is_identity() {
        let sig: Vec<Cplx> = (0..8).map(|n| Cplx::cis(n as f64 * 0.3)).collect();
        assert_eq!(Link::ideal().apply(&sig), sig);
    }

    #[test]
    fn gain_and_phase_applied() {
        let link = Link::new(0.5, 1.2, 0.0);
        let out = link.apply(&[Cplx::ONE]);
        assert!((out[0].norm() - 0.5).abs() < 1e-12);
        assert!((out[0].arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn msk_survives_any_link() {
        // End-to-end §5.3 invariance: demodulation through an arbitrary
        // link recovers the bits exactly.
        let modem = MskModem::default();
        let bits = vec![true, false, true, true, false, false, true];
        let link = Link::new(0.07, -2.9, 0.0);
        let rx = link.apply(&modem.modulate(&bits));
        assert_eq!(modem.demodulate(&rx), bits);
    }

    #[test]
    fn random_links_in_bounds() {
        let mut rng = DspRng::seed_from(5);
        for _ in 0..100 {
            let l = Link::random(&mut rng, 0.4, 0.9);
            assert!(l.gain >= 0.4 && l.gain <= 0.9);
            assert!(l.phase.abs() <= std::f64::consts::PI + 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn zero_gain_rejected() {
        let _ = Link::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_delay_rejected() {
        let _ = Link::new(1.0, 0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "no propagation delay")]
    fn positive_delay_rejected() {
        let _ = Link::new(1.0, 0.0, 2.0);
    }
}
