//! Time-varying channel impairments for Monte Carlo sweeps.
//!
//! The paper's §6 warning — *"though we tend to think of those
//! parameters as constant, they do vary with time"* — is what the
//! [`crate::fault`] injectors probe one waveform at a time. This module
//! is the **statistical** counterpart: an [`ImpairmentSpec`] describes
//! a time-varying channel *process* (per-packet channel re-draws,
//! Rayleigh block fading, a carrier-frequency-offset walk, timing
//! jitter) that the simulation engine realizes once per packet
//! exchange, so BER/throughput curves are measured over many channel
//! states exactly as the testbed's over-the-air runs were (§11.4).
//!
//! # Determinism contract
//!
//! Every realization is a **pure function of its coordinates**: link
//! state is keyed on `(impairment seed, from, to, packet index)` and
//! sender state on `(impairment seed, node, packet index)` through
//! [`anc_dsp::DspRng::from_path`]. No shared stream is consumed, so
//! the same coordinates give bit-identical draws no matter the order
//! trials, slots, or receivers evaluate them — the property that keeps
//! parallel Monte Carlo sweeps equal to serial ones, pinned by the
//! channel proptest suite.

use crate::link::Link;
use anc_dsp::DspRng;
use serde::{Deserialize, Serialize};

/// Stream-path domain tag of per-link channel processes.
pub const LINK_STREAM_DOMAIN: u64 = 0x414E_435F_4C4E_4B31; // "ANC_LNK1"
/// Stream-path domain tag of per-sender TX processes.
pub const NODE_STREAM_DOMAIN: u64 = 0x414E_435F_4E4F_4431; // "ANC_NOD1"

/// Fading can null a link entirely; the realized gain is floored here
/// so [`Link::new`]'s positivity invariant holds (a 2⁻⁵³-probability
/// exact null would otherwise panic mid-sweep).
const MIN_FADED_GAIN: f64 = 1e-9;

/// A serializable time-varying channel/radio process, attached to
/// scenario links (and scenario defaults) and realized per packet
/// exchange by the simulation engine.
///
/// The default spec is **passive**: every process disabled, and the
/// engine's behavior (and every golden seeded metric) is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentSpec {
    /// Redraw the link phase `γ` uniformly on the circle each packet
    /// exchange — the per-packet channel re-draw of a fast-varying
    /// propagation path (§6's time-varying phase).
    pub phase_redraw: bool,
    /// Rayleigh block fading: scale the realized link gain by a
    /// unit-mean-power Rayleigh magnitude, redrawn each packet exchange
    /// (coherence time = one exchange).
    pub rayleigh: bool,
    /// Per-sender carrier-frequency-offset bound in rad/sample; each
    /// exchange the sender draws a fresh residual CFO uniform in
    /// `[-cfo_max, cfo_max]` on top of its fixed crystal offset
    /// (temperature/aging drift between exchanges).
    pub cfo_max: f64,
    /// Per-sender timing-jitter bound in samples; each exchange the
    /// sender's transmission start slips by a uniform draw in
    /// `[-jitter_max, jitter_max]` (scheduling and ramp-up slop,
    /// §7.2/§11.4 — a slip can arrive *early* as well as late; the
    /// engine saturates an early slip at the slot origin).
    pub jitter_max: f64,
}

impl Default for ImpairmentSpec {
    fn default() -> Self {
        ImpairmentSpec {
            phase_redraw: false,
            rayleigh: false,
            cfo_max: 0.0,
            jitter_max: 0.0,
        }
    }
}

/// One realized per-sender TX perturbation (see
/// [`ImpairmentSpec::tx_process`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TxImpairment {
    /// Residual carrier-frequency offset for this exchange
    /// (rad/sample).
    pub cfo: f64,
    /// Start-time slip for this exchange (samples; negative = early).
    pub jitter_samples: f64,
}

impl ImpairmentSpec {
    /// A spec with every process disabled (the default).
    pub fn passive() -> ImpairmentSpec {
        ImpairmentSpec::default()
    }

    /// Per-packet channel re-draws: fresh phase each exchange.
    pub fn phase_redraw() -> ImpairmentSpec {
        ImpairmentSpec {
            phase_redraw: true,
            ..Default::default()
        }
    }

    /// Rayleigh block fading (plus the phase re-draw a faded channel
    /// implies — a fresh complex coefficient per exchange).
    pub fn rayleigh_fading() -> ImpairmentSpec {
        ImpairmentSpec {
            phase_redraw: true,
            rayleigh: true,
            ..Default::default()
        }
    }

    /// Sets the per-exchange CFO bound (rad/sample).
    ///
    /// # Panics
    /// Panics if `max` is negative or non-finite.
    pub fn with_cfo(mut self, max: f64) -> ImpairmentSpec {
        assert!(max.is_finite() && max >= 0.0, "cfo_max must be >= 0");
        self.cfo_max = max;
        self
    }

    /// Sets the per-exchange timing-jitter bound (samples).
    ///
    /// # Panics
    /// Panics if `max` is negative or non-finite.
    pub fn with_jitter(mut self, max: f64) -> ImpairmentSpec {
        assert!(max.is_finite() && max >= 0.0, "jitter_max must be >= 0");
        self.jitter_max = max;
        self
    }

    /// `true` when no process is enabled (the engine skips every hook).
    pub fn is_passive(&self) -> bool {
        !self.phase_redraw && !self.rayleigh && self.cfo_max == 0.0 && self.jitter_max == 0.0
    }

    /// `true` when any per-link channel process is enabled.
    pub fn affects_link(&self) -> bool {
        self.phase_redraw || self.rayleigh
    }

    /// `true` when any per-sender TX process is enabled.
    pub fn affects_tx(&self) -> bool {
        self.cfo_max > 0.0 || self.jitter_max > 0.0
    }

    /// Realizes this exchange's state of the `from → to` channel: the
    /// statically drawn `base` link with the enabled per-packet
    /// processes applied. Pure in `(seed, from, to, packet)` — see the
    /// module docs' determinism contract. With no link process enabled
    /// the base link is returned bit-identically (no stream derived).
    pub fn impair_link(&self, base: Link, seed: u64, from: u64, to: u64, packet: u64) -> Link {
        if !self.affects_link() {
            return base;
        }
        let mut rng = DspRng::from_path(seed, &[LINK_STREAM_DOMAIN, from, to, packet]);
        // Fixed draw layout — phase, then fading — so toggling one
        // process never shifts the other's stream.
        let phase_draw = rng.phase();
        let fade = rng.complex_gaussian(1.0).norm();
        let phase = if self.phase_redraw {
            phase_draw
        } else {
            base.phase
        };
        let gain = if self.rayleigh {
            (base.gain * fade).max(MIN_FADED_GAIN)
        } else {
            base.gain
        };
        Link::new(gain, phase, 0.0)
    }

    /// Realizes this exchange's TX perturbation of one sender. Pure in
    /// `(seed, node, packet)`; with no TX process enabled the zero
    /// perturbation is returned without deriving a stream.
    pub fn tx_process(&self, seed: u64, node: u64, packet: u64) -> TxImpairment {
        if !self.affects_tx() {
            return TxImpairment::default();
        }
        let mut rng = DspRng::from_path(seed, &[NODE_STREAM_DOMAIN, node, packet]);
        // Fixed draw layout — CFO, then jitter. Both are signed: a
        // timing slip arrives early as often as late.
        let u_cfo = rng.uniform_range(-1.0, 1.0);
        let u_jit = rng.uniform_range(-1.0, 1.0);
        TxImpairment {
            cfo: u_cfo * self.cfo_max,
            jitter_samples: u_jit * self.jitter_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Link {
        Link::new(0.8, 0.3, 0.0)
    }

    #[test]
    fn passive_spec_is_identity() {
        let spec = ImpairmentSpec::default();
        assert!(spec.is_passive());
        assert_eq!(spec.impair_link(base(), 1, 2, 3, 4), base());
        assert_eq!(spec.tx_process(1, 2, 3), TxImpairment::default());
    }

    #[test]
    fn realizations_are_pure_in_coordinates() {
        let spec = ImpairmentSpec::rayleigh_fading()
            .with_cfo(0.02)
            .with_jitter(8.0);
        let a = spec.impair_link(base(), 7, 1, 2, 9);
        let b = spec.impair_link(base(), 7, 1, 2, 9);
        assert_eq!(a, b);
        let t1 = spec.tx_process(7, 4, 9);
        let t2 = spec.tx_process(7, 4, 9);
        assert_eq!(t1, t2);
    }

    #[test]
    fn coordinates_separate_streams() {
        let spec = ImpairmentSpec::rayleigh_fading();
        let l = spec.impair_link(base(), 7, 1, 2, 0);
        assert_ne!(l, spec.impair_link(base(), 7, 1, 2, 1), "packet index");
        assert_ne!(l, spec.impair_link(base(), 7, 2, 1, 0), "link direction");
        assert_ne!(l, spec.impair_link(base(), 8, 1, 2, 0), "seed");
    }

    #[test]
    fn toggling_one_process_leaves_the_other_stream_alone() {
        // Same coordinates: the Rayleigh fade must be the same draw
        // whether or not the phase re-draw is enabled (fixed layout).
        let both = ImpairmentSpec::rayleigh_fading().impair_link(base(), 3, 1, 2, 5);
        let fade_only = ImpairmentSpec {
            rayleigh: true,
            ..Default::default()
        }
        .impair_link(base(), 3, 1, 2, 5);
        assert_eq!(both.gain, fade_only.gain);
        assert_eq!(fade_only.phase, base().phase);
    }

    #[test]
    fn phase_redraw_keeps_gain() {
        let l = ImpairmentSpec::phase_redraw().impair_link(base(), 1, 2, 3, 4);
        assert_eq!(l.gain, base().gain);
        assert_ne!(l.phase, base().phase);
    }

    #[test]
    fn rayleigh_is_unit_mean_power() {
        let spec = ImpairmentSpec::rayleigh_fading();
        let n = 40_000;
        let mean_pow = (0..n)
            .map(|p| {
                let g = spec.impair_link(Link::new(1.0, 0.0, 0.0), 11, 1, 2, p).gain;
                g * g
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean_pow - 1.0).abs() < 0.02, "mean power {mean_pow}");
    }

    #[test]
    fn tx_process_respects_bounds() {
        let spec = ImpairmentSpec::default().with_cfo(0.05).with_jitter(16.0);
        for p in 0..500 {
            let t = spec.tx_process(5, 9, p);
            assert!(t.cfo.abs() <= 0.05);
            assert!(t.jitter_samples.abs() <= 16.0);
        }
        // The bounds are actually exercised, not stuck at zero.
        let spread: f64 = (0..500)
            .map(|p| spec.tx_process(5, 9, p).cfo.abs())
            .fold(0.0, f64::max);
        assert!(spread > 0.02);
    }

    #[test]
    fn jitter_slips_both_early_and_late() {
        // The timing slip is signed: over many exchanges both signs
        // occur, and the mean sits near zero (no systematic lateness).
        let spec = ImpairmentSpec::default().with_jitter(8.0);
        let draws: Vec<f64> = (0..2000)
            .map(|p| spec.tx_process(3, 1, p).jitter_samples)
            .collect();
        let early = draws.iter().filter(|&&j| j < 0.0).count();
        let late = draws.iter().filter(|&&j| j > 0.0).count();
        assert!(early > 600 && late > 600, "early {early} late {late}");
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.5, "mean slip {mean}");
    }

    #[test]
    fn serde_roundtrip() {
        let spec = ImpairmentSpec::rayleigh_fading()
            .with_cfo(0.01)
            .with_jitter(4.0);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ImpairmentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    #[should_panic]
    fn negative_cfo_rejected() {
        let _ = ImpairmentSpec::default().with_cfo(-0.1);
    }
}
