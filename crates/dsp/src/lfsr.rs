//! Fibonacci linear-feedback shift registers.
//!
//! Two uses in the paper:
//!
//! 1. **Pilot sequences** (§7.2): each frame carries a known 64-bit
//!    pseudo-random pilot at its head and a mirrored copy at its tail,
//!    used for alignment and for detecting where the interferer starts.
//! 2. **Whitening** (§6.2): payload bits are XORed with a pseudo-random
//!    sequence before transmission so that `E[cos(θ−φ)] ≈ 0`, which the
//!    amplitude estimator (Eqs. 5–6) requires; the receiver XORs with the
//!    same sequence to recover the original bits.
//!
//! A 16-bit maximal-length LFSR (taps x^16+x^15+x^13+x^4+1) gives a
//! period of 65535 bits — far longer than any frame we transmit.

/// Maximal-length 16-bit Fibonacci LFSR.
///
/// ```
/// use anc_dsp::Lfsr;
/// let a: Vec<bool> = Lfsr::new(0xACE1).take(64).collect();
/// let b: Vec<bool> = Lfsr::new(0xACE1).take(64).collect();
/// assert_eq!(a, b); // deterministic for a given seed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u16,
}

/// Seed used for the standard 64-bit pilot sequence (§7.2).
pub const PILOT_SEED: u16 = 0xACE1;

/// Seed used for the whitening scrambler (§6.2).
pub const WHITEN_SEED: u16 = 0xB400;

impl Lfsr {
    /// Creates an LFSR with the given seed. A zero seed is the LFSR's
    /// absorbing state, so it is replaced with `0xFFFF`.
    pub fn new(seed: u16) -> Self {
        Lfsr {
            state: if seed == 0 { 0xFFFF } else { seed },
        }
    }

    /// Advances one step and returns the output bit.
    #[inline]
    pub fn next_bit(&mut self) -> bool {
        // Taps: 16, 15, 13, 4 (1-indexed from the LSB output).
        let bit = (self.state ^ (self.state >> 1) ^ (self.state >> 3) ^ (self.state >> 12)) & 1;
        self.state = (self.state >> 1) | (bit << 15);
        bit == 1
    }

    /// Advances four steps at once and returns the four output bits in
    /// the low nibble, first bit in bit 0.
    ///
    /// Output `k` of [`Lfsr::next_bit`] reads state bits `k`, `k+1`,
    /// `k+3` and `k+12`. For `k ≤ 3` none of them has been replaced by
    /// feedback yet, so the four outputs are bits 0–3 of
    /// `t = s ^ s>>1 ^ s>>3 ^ s>>12`, and after four shifts the state
    /// is the old bits 4–15 with those outputs above them.
    #[inline]
    fn next_nibble(&mut self) -> u16 {
        let s = self.state;
        let t = s ^ (s >> 1) ^ (s >> 3) ^ (s >> 12);
        self.state = (s >> 4) | ((t & 0xF) << 12);
        t
    }

    /// Generates `n` bits into a fresh vector.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        let mut out = vec![false; n];
        self.whiten(&mut out);
        out
    }

    /// XORs `data` in place with the LFSR stream — the whitening
    /// operation of §6.2. Applying it twice with the same seed restores
    /// the original bits. Runs four steps per `next_nibble` call;
    /// the `len mod 4` leftover bits take [`Lfsr::next_bit`].
    pub fn whiten(&mut self, data: &mut [bool]) {
        let mut nibbles = data.chunks_exact_mut(4);
        for nibble in &mut nibbles {
            let t = self.next_nibble();
            for (i, b) in nibble.iter_mut().enumerate() {
                *b ^= (t >> i) & 1 == 1;
            }
        }
        for b in nibbles.into_remainder() {
            *b ^= self.next_bit();
        }
    }

    /// Current internal state (for checkpointing in tests).
    pub fn state(&self) -> u16 {
        self.state
    }
}

impl Iterator for Lfsr {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

/// Returns the standard 64-bit pilot sequence used by every frame.
pub fn pilot_sequence(len: usize) -> Vec<bool> {
    Lfsr::new(PILOT_SEED).bits(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_seed() {
        let a = Lfsr::new(42).bits(256);
        let b = Lfsr::new(42).bits(256);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Lfsr::new(1).bits(128);
        let b = Lfsr::new(2).bits(128);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_seed_does_not_stick() {
        let bits = Lfsr::new(0).bits(64);
        assert!(bits.iter().any(|&b| b));
        assert!(bits.iter().any(|&b| !b));
    }

    #[test]
    fn maximal_period() {
        // A maximal 16-bit LFSR visits all 2^16 - 1 nonzero states.
        let mut l = Lfsr::new(1);
        let mut seen = HashSet::new();
        for _ in 0..65535 {
            assert!(seen.insert(l.state()), "state revisited early");
            l.next_bit();
        }
        assert_eq!(l.state(), 1, "did not return to the start state");
    }

    #[test]
    fn roughly_balanced() {
        let bits = Lfsr::new(PILOT_SEED).bits(65535);
        let ones = bits.iter().filter(|&&b| b).count();
        // Maximal LFSR emits 32768 ones and 32767 zeros per period.
        assert_eq!(ones, 32768);
    }

    #[test]
    fn whitening_is_involutive() {
        let original: Vec<bool> = Lfsr::new(7).bits(500);
        let mut data = original.clone();
        Lfsr::new(WHITEN_SEED).whiten(&mut data);
        assert_ne!(data, original, "whitening must change the data");
        Lfsr::new(WHITEN_SEED).whiten(&mut data);
        assert_eq!(data, original, "double whitening must restore");
    }

    #[test]
    fn whitening_randomizes_constant_data() {
        // §6.2 requires E[cos(θ−φ)] ≈ 0, i.e. whitened bits look random
        // even when the payload is all-zeros.
        let mut data = vec![false; 4096];
        Lfsr::new(WHITEN_SEED).whiten(&mut data);
        let ones = data.iter().filter(|&&b| b).count();
        let frac = ones as f64 / data.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "ones fraction {}", frac);
    }

    #[test]
    fn pilot_sequence_is_stable_and_balanced() {
        let p = pilot_sequence(64);
        assert_eq!(p.len(), 64);
        assert_eq!(p, pilot_sequence(64));
        let ones = p.iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&ones), "pilot too skewed: {ones} ones");
    }

    #[test]
    fn iterator_interface() {
        let v: Vec<bool> = Lfsr::new(9).take(10).collect();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn low_autocorrelation_of_pilot() {
        // The pilot must not match shifted copies of itself well, or the
        // aligner would lock onto the wrong offset.
        let p = pilot_sequence(64);
        let agree = |a: &[bool], b: &[bool]| a.iter().zip(b).filter(|(x, y)| x == y).count();
        for shift in 1..32 {
            let m = agree(&p[shift..], &p[..64 - shift]);
            let frac = m as f64 / (64 - shift) as f64;
            assert!(
                frac < 0.85,
                "shift {shift}: autocorrelation too high ({frac})"
            );
        }
    }
}
