//! Additive white Gaussian noise.
//!
//! §8 computes capacity *"for a wireless channel with additive white
//! Gaussian noise"*; Appendix C places a noise term `Z` of unit power at
//! every receiver. [`Awgn`] is that term: circularly-symmetric complex
//! Gaussian samples of configured power, seeded for reproducibility.

use anc_dsp::{Cplx, DspRng};

/// A seeded complex-AWGN source with configurable power.
#[derive(Debug, Clone)]
pub struct Awgn {
    rng: DspRng,
    power: f64,
}

impl Awgn {
    /// Creates a noise source of the given power (`E[|z|²] = power`).
    ///
    /// # Panics
    /// Panics if `power < 0`.
    pub fn new(power: f64, seed: u64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Awgn {
            rng: DspRng::seed_from(seed),
            power,
        }
    }

    /// Noise source from an existing RNG stream (used by [`crate::Medium`]
    /// so each receiver gets an independent fork).
    pub fn from_rng(power: f64, rng: DspRng) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Awgn { rng, power }
    }

    /// Configured noise power.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Draws one noise sample.
    #[inline]
    pub fn sample(&mut self) -> Cplx {
        if self.power == 0.0 {
            Cplx::ZERO
        } else {
            self.rng.complex_gaussian(self.power)
        }
    }

    /// Skips the noise of the next `n` samples, so the next draw is the
    /// one sample `n` would have received: adding noise to samples
    /// `a..b` after `skip(a)` reproduces that stretch of a whole-window
    /// [`Self::add_to`] bit for bit. This is what lets a window be
    /// mixed in independent chunks (DESIGN.md §14).
    ///
    /// It rests on one invariant of the stream: a stream with no spare
    /// Gaussian pending (a fresh one, or one that has only drawn whole
    /// complex samples) spends exactly 2 raw draws per complex sample —
    /// its two quadratures are one Box–Muller pair of 2 uniforms. A
    /// generator that breaks this must replace the seek.
    ///
    /// # Panics
    /// Panics if `n > 0` and the stream holds a spare Gaussian (see
    /// [`DspRng::discard`]); a zero-power source draws nothing and
    /// skips nothing.
    pub fn skip(&mut self, n: usize) {
        if n > 0 && self.power > 0.0 {
            self.rng.discard(2 * n as u64);
        }
    }

    /// Adds noise to a waveform in place.
    pub fn add_to(&mut self, signal: &mut [Cplx]) {
        if self.power == 0.0 {
            return;
        }
        // `DspRng::complex_gaussian` with its per-quadrature scale
        // hoisted out of the loop: the same draws, the same products.
        let scale = (self.power / 2.0).sqrt();
        for s in signal {
            *s += Cplx::new(self.rng.gaussian() * scale, self.rng.gaussian() * scale);
        }
    }

    /// Returns a noisy copy of a waveform.
    pub fn corrupt(&mut self, signal: &[Cplx]) -> Vec<Cplx> {
        let mut out = signal.to_vec();
        self.add_to(&mut out);
        out
    }

    /// Generates `n` samples of pure noise (the §7.1 "noise floor"
    /// between packets).
    pub fn floor(&mut self, n: usize) -> Vec<Cplx> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_realized() {
        let mut n = Awgn::new(2.5, 7);
        let p = Cplx::mean_energy(&n.floor(100_000));
        assert!((p - 2.5).abs() < 0.05, "measured {p}");
    }

    #[test]
    fn zero_power_is_silent() {
        let mut n = Awgn::new(0.0, 1);
        assert_eq!(n.sample(), Cplx::ZERO);
        let mut sig = vec![Cplx::ONE; 4];
        n.add_to(&mut sig);
        assert!(sig.iter().all(|&s| s == Cplx::ONE));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Awgn::new(1.0, 42);
        let mut b = Awgn::new(1.0, 42);
        for _ in 0..32 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn add_to_matches_per_sample_draws() {
        let mut sig: Vec<Cplx> = (0..257).map(|n| Cplx::cis(n as f64 * 0.37)).collect();
        let mut reference = sig.clone();
        let mut per_sample = Awgn::new(0.3, 11);
        for s in reference.iter_mut() {
            *s += per_sample.sample();
        }
        Awgn::new(0.3, 11).add_to(&mut sig);
        assert_eq!(sig, reference);
    }

    #[test]
    fn corrupt_preserves_length_and_adds_power() {
        let sig = vec![Cplx::ONE; 50_000];
        let mut n = Awgn::new(0.5, 3);
        let noisy = n.corrupt(&sig);
        assert_eq!(noisy.len(), sig.len());
        let p = Cplx::mean_energy(&noisy);
        // E[|s+z|²] = 1 + 0.5
        assert!((p - 1.5).abs() < 0.05, "measured {p}");
    }

    #[test]
    fn skip_seeks_two_raw_draws_per_sample() {
        // The invariant chunked mixing rests on: a fresh stream spends
        // exactly 2 raw draws per complex sample, so skipping `k`
        // samples is discarding `2k` raw draws.
        let rng = DspRng::seed_from(17);
        let mut drawn = Awgn::from_rng(0.4, rng.clone());
        let mut raw = rng.clone();
        for k in 0..64 {
            drawn.sample();
            raw.discard(2);
            let mut probe = drawn.clone();
            let mut reference = Awgn::from_rng(0.4, raw.clone());
            assert_eq!(
                probe.sample(),
                reference.sample(),
                "after {} samples",
                k + 1
            );
        }
        // And `skip(a)` then `add_to` is the tail of a whole-window add.
        let mut whole = vec![Cplx::ONE; 300];
        Awgn::from_rng(0.4, rng.clone()).add_to(&mut whole);
        for a in [0, 1, 2, 150, 299, 300] {
            let mut chunk = vec![Cplx::ONE; 300 - a];
            let mut n = Awgn::from_rng(0.4, rng.clone());
            n.skip(a);
            n.add_to(&mut chunk);
            assert_eq!(chunk, whole[a..], "skip({a})");
        }
    }

    #[test]
    fn zero_power_skip_draws_nothing() {
        let mut n = Awgn::new(0.0, 3);
        n.skip(1_000);
        let mut sig = vec![Cplx::ONE; 8];
        n.add_to(&mut sig);
        assert!(sig.iter().all(|&s| s == Cplx::ONE));
    }

    #[test]
    #[should_panic]
    fn negative_power_rejected() {
        let _ = Awgn::new(-1.0, 0);
    }
}
