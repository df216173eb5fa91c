//! Channel fault injection.
//!
//! The paper's channel model is benign — constant attenuation and phase
//! per packet, AWGN — but §6 warns that *"though we tend to think of
//! those parameters as constant, they do vary with time"*, which is
//! precisely why the naive subtraction decoder fails. These impairments
//! let tests and ablations exercise that claim (and general robustness)
//! the way smoltcp's examples inject packet drops and corruption:
//!
//! * [`CarrierOffset`] — residual carrier frequency offset: a phase
//!   that rotates continuously at `Δω` per sample. Differential
//!   demodulation tolerates small CFO; naive subtraction does not.
//! * [`BlockFading`] — Rayleigh block fading: the link gain is redrawn
//!   every `block_len` samples.
//! * [`Clipper`] — amplitude saturation at an ADC-like ceiling.
//! * [`GainDrift`] — slow multiplicative amplitude wander.

use anc_dsp::{Cplx, DspRng};

/// A deterministic, per-sample channel impairment.
pub trait Impairment {
    /// Applies the impairment in place.
    fn apply(&mut self, signal: &mut [Cplx]);
}

/// Residual carrier frequency offset of `delta_omega` radians/sample.
#[derive(Debug, Clone, Copy)]
pub struct CarrierOffset {
    /// Phase advance per sample (radians).
    pub delta_omega: f64,
    /// Initial phase offset (radians).
    pub initial_phase: f64,
}

impl CarrierOffset {
    /// CFO of `delta_omega` radians/sample, zero initial phase.
    pub fn new(delta_omega: f64) -> Self {
        CarrierOffset {
            delta_omega,
            initial_phase: 0.0,
        }
    }

    /// Advances the running phase past `n` samples without rotating
    /// any: the same sequential `phase += Δω` adds that
    /// [`Impairment::apply`] makes, so applying to a chunk after
    /// skipping the samples before it equals that stretch of a
    /// whole-wave apply, bit for bit.
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.initial_phase += self.delta_omega;
        }
    }
}

impl Impairment for CarrierOffset {
    fn apply(&mut self, signal: &mut [Cplx]) {
        let mut phi = self.initial_phase;
        for s in signal {
            *s = s.rotate(phi);
            phi += self.delta_omega;
        }
        self.initial_phase = phi;
    }
}

/// Rayleigh block fading: gain magnitude redrawn per block, unit mean
/// power.
#[derive(Debug, Clone)]
pub struct BlockFading {
    /// Samples per fading block.
    pub block_len: usize,
    rng: DspRng,
}

impl BlockFading {
    /// Creates block fading with the given coherence length.
    ///
    /// # Panics
    /// Panics if `block_len == 0`.
    pub fn new(block_len: usize, seed: u64) -> Self {
        assert!(block_len > 0);
        BlockFading {
            block_len,
            rng: DspRng::seed_from(seed),
        }
    }
}

impl Impairment for BlockFading {
    fn apply(&mut self, signal: &mut [Cplx]) {
        let mut i = 0;
        while i < signal.len() {
            // Complex Gaussian with unit power -> Rayleigh magnitude.
            let h = self.rng.complex_gaussian(1.0);
            let end = (i + self.block_len).min(signal.len());
            for s in &mut signal[i..end] {
                *s *= h;
            }
            i = end;
        }
    }
}

/// Hard amplitude clipping at `ceiling` (models ADC saturation).
#[derive(Debug, Clone, Copy)]
pub struct Clipper {
    /// Maximum representable amplitude.
    pub ceiling: f64,
}

impl Impairment for Clipper {
    fn apply(&mut self, signal: &mut [Cplx]) {
        for s in signal {
            let m = s.norm();
            if m > self.ceiling && m > 0.0 {
                *s = s.scale(self.ceiling / m);
            }
        }
    }
}

/// Slow multiplicative gain drift: gain walks from 1.0 by
/// `rate` (relative) per sample, bounded to `[0.5, 2.0]`.
#[derive(Debug, Clone)]
pub struct GainDrift {
    /// Relative gain step per sample.
    pub rate: f64,
    rng: DspRng,
    gain: f64,
}

impl GainDrift {
    /// Creates a gain-drift impairment.
    pub fn new(rate: f64, seed: u64) -> Self {
        GainDrift {
            rate,
            rng: DspRng::seed_from(seed),
            gain: 1.0,
        }
    }
}

impl Impairment for GainDrift {
    fn apply(&mut self, signal: &mut [Cplx]) {
        for s in signal {
            let step = self.rng.gaussian() * self.rate;
            self.gain = (self.gain * (1.0 + step)).clamp(0.5, 2.0);
            *s = s.scale(self.gain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_modem::{Modem, MskModem};
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn cfo_rotates_progressively() {
        let mut sig = vec![Cplx::ONE; 4];
        CarrierOffset::new(0.1).apply(&mut sig);
        for (n, s) in sig.iter().enumerate() {
            assert!((s.arg() - 0.1 * n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn cfo_state_carries_across_calls() {
        let mut cfo = CarrierOffset::new(0.25);
        let mut a = vec![Cplx::ONE; 2];
        let mut b = vec![Cplx::ONE; 2];
        cfo.apply(&mut a);
        cfo.apply(&mut b);
        assert!((b[0].arg() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn msk_tolerates_small_cfo() {
        // Differential demod sees CFO as a constant bias Δω·S per
        // symbol; small bias does not flip ±π/2 decisions.
        let modem = MskModem::default();
        let bits = vec![true, false, false, true, true, false, true];
        let mut sig = modem.modulate(&bits);
        CarrierOffset::new(0.2).apply(&mut sig); // 0.2 rad ≪ π/2
        assert_eq!(modem.demodulate(&sig), bits);
    }

    #[test]
    fn msk_breaks_under_large_cfo() {
        // CFO ≥ π/2 per symbol erases the modulation margin — this is
        // the regime fault injection is meant to reach.
        let modem = MskModem::default();
        let bits = vec![true, false, false, true, true, false, true, false];
        let mut sig = modem.modulate(&bits);
        CarrierOffset::new(FRAC_PI_2 + 0.3).apply(&mut sig);
        assert_ne!(modem.demodulate(&sig), bits);
    }

    #[test]
    fn clipper_bounds_amplitude() {
        let mut sig = vec![Cplx::from_polar(5.0, 1.0), Cplx::from_polar(0.5, -1.0)];
        Clipper { ceiling: 1.0 }.apply(&mut sig);
        assert!((sig[0].norm() - 1.0).abs() < 1e-12);
        assert!((sig[0].arg() - 1.0).abs() < 1e-12); // phase preserved
        assert!((sig[1].norm() - 0.5).abs() < 1e-12); // untouched
    }

    #[test]
    fn block_fading_constant_within_block() {
        let mut sig = vec![Cplx::ONE; 10];
        BlockFading::new(5, 1).apply(&mut sig);
        for i in 1..5 {
            assert!((sig[i] - sig[0]).norm() < 1e-12);
        }
        assert!((sig[5] - sig[0]).norm() > 1e-12);
    }

    #[test]
    fn block_fading_unit_mean_power() {
        let mut sig = vec![Cplx::ONE; 200_000];
        BlockFading::new(1, 2).apply(&mut sig);
        let p = Cplx::mean_energy(&sig);
        assert!((p - 1.0).abs() < 0.02, "power {p}");
    }

    #[test]
    fn gain_drift_stays_bounded() {
        let mut sig = vec![Cplx::ONE; 10_000];
        GainDrift::new(0.01, 3).apply(&mut sig);
        for s in &sig {
            let m = s.norm();
            assert!((0.5..=2.0).contains(&m), "gain escaped: {m}");
        }
    }
}
