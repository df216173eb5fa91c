//! The trigger protocol MAC (§7.6) and its random-delay staggering
//! (§7.2).
//!
//! *"To 'trigger' simultaneous transmissions, a node adds a short
//! trigger sequence at the end of a standard transmission. The trigger
//! stimulates the right neighbors to try to transmit immediately after
//! the reception of the trigger."* The triggered nodes still insert the
//! §7.2 random delay — *"picking a random number between 1 and 32, and
//! starting their transmission in the corresponding time slot"* — which
//! (together with user-space jitter, §11.4) makes the two packets
//! overlap only partially (≈ 80 % in the paper), leaving clean pilot
//! and header regions at both ends of the interfered signal.

#![deny(clippy::cast_possible_truncation)]

use anc_dsp::cast::round_to_usize;
use anc_dsp::DspRng;
use serde::{Deserialize, Serialize};

/// MAC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacConfig {
    /// Number of random-delay slots (paper: 32). Smaller values stagger
    /// less and overlap more.
    pub delay_slots: u64,
    /// Slot length in bit-times. Must cover at least the pilot + header
    /// (128 bits by default) so one slot of stagger leaves the first
    /// packet's head clean.
    pub slot_bits: usize,
    /// Standard deviation, in bit-times, of the additional user-space
    /// scheduling jitter (§11.4 blames user-space latency for part of
    /// the imperfect overlap).
    pub jitter_bits: f64,
}

impl Default for MacConfig {
    fn default() -> Self {
        // 16 slots of 160 bits: one slot of stagger keeps the first
        // packet's pilot + header (128 bits) interference-free, and
        // with the experiments' 4096-bit payloads (4368-bit frames)
        // the mean overlap lands at the paper's ≈ 80 % (§11.4).
        MacConfig {
            delay_slots: 16,
            slot_bits: 160,
            jitter_bits: 16.0,
        }
    }
}

/// The trigger MAC: computes each triggered sender's transmission
/// delay.
#[derive(Debug, Clone)]
pub struct TriggerMac {
    cfg: MacConfig,
    rng: DspRng,
}

impl TriggerMac {
    /// Creates a MAC with its own random stream.
    ///
    /// # Panics
    /// Panics if `delay_slots == 0` or `slot_bits == 0`.
    pub fn new(cfg: MacConfig, rng: DspRng) -> Self {
        assert!(cfg.delay_slots >= 1, "need at least one delay slot");
        assert!(cfg.slot_bits >= 1, "slot must be at least one bit");
        TriggerMac { cfg, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Draws a transmission delay in samples (one per bit-time) for a
    /// triggered sender. Slot index is uniform in `1..=delay_slots`;
    /// Gaussian jitter is added and the result clamped non-negative.
    pub fn draw_delay(&mut self) -> usize {
        let slot = self.rng.uniform_int(1, self.cfg.delay_slots);
        let base = slot as f64 * self.cfg.slot_bits as f64;
        let jitter = self.rng.gaussian() * self.cfg.jitter_bits;
        let bits = (base + jitter).max(0.0);
        // Saturating, NaN-safe rounding: a pathological jitter draw can
        // no longer wrap into a garbage delay (`as` would truncate).
        round_to_usize(bits)
    }

    /// Expected overlap fraction between two frames of `frame_bits`
    /// bits whose senders draw independent delays from this MAC
    /// (ignoring jitter): `1 − E|slot₁−slot₂|·slot_bits / frame_bits`,
    /// clamped to `[0, 1]`. Used to pre-size experiments toward the
    /// paper's ≈ 80 % overlap.
    pub fn expected_overlap(&self, frame_bits: usize) -> f64 {
        let n = self.cfg.delay_slots as f64;
        // E|U1 − U2| for iid uniform on {1..n} = (n² − 1) / (3n).
        let mean_gap_slots = (n * n - 1.0) / (3.0 * n);
        let gap_bits = mean_gap_slots * self.cfg.slot_bits as f64;
        (1.0 - gap_bits / frame_bits as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn mac(seed: u64) -> TriggerMac {
        TriggerMac::new(MacConfig::default(), DspRng::seed_from(seed))
    }

    #[test]
    fn delays_positive_and_bounded() {
        let mut m = mac(1);
        let cfg = *m.config();
        let max_bits = cfg.delay_slots as f64 * cfg.slot_bits as f64 + 8.0 * cfg.jitter_bits;
        for _ in 0..1000 {
            let d = m.draw_delay();
            assert!(d as f64 <= max_bits, "delay {d} too large");
        }
    }

    #[test]
    fn two_senders_rarely_collide_exactly() {
        // P(same slot) = 1/delay_slots; jitter separates even those.
        let mut a = mac(2);
        let mut b = mac(3);
        let mut exact = 0;
        for _ in 0..500 {
            if a.draw_delay() == b.draw_delay() {
                exact += 1;
            }
        }
        assert!(exact < 25, "too many exact collisions: {exact}");
    }

    #[test]
    fn expected_overlap_matches_empirical() {
        let cfg = MacConfig {
            delay_slots: 8,
            slot_bits: 160,
            jitter_bits: 0.0,
        };
        let frame_bits = 2320;
        let expect = TriggerMac::new(cfg, DspRng::seed_from(0)).expected_overlap(frame_bits);
        let mut a = TriggerMac::new(cfg, DspRng::seed_from(4));
        let mut b = TriggerMac::new(cfg, DspRng::seed_from(5));
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let da = a.draw_delay() as f64;
            let db = b.draw_delay() as f64;
            total += (1.0 - (da - db).abs() / frame_bits as f64).clamp(0.0, 1.0);
        }
        let empirical = total / n as f64;
        assert!(
            (empirical - expect).abs() < 0.02,
            "empirical {empirical} vs expected {expect}"
        );
    }

    #[test]
    fn default_config_targets_paper_overlap() {
        // §11.4: "the average overlap between Alice's packets and those
        // from Bob's is 80%". With the default MAC and the experiments'
        // 4096-bit payloads (4368-bit frames) we sit in that regime.
        let m = mac(6);
        let overlap = m.expected_overlap(4368);
        assert!(
            (0.75..=0.85).contains(&overlap),
            "default overlap {overlap} outside the paper's regime"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = mac(9);
        let mut b = mac(9);
        for _ in 0..50 {
            assert_eq!(a.draw_delay(), b.draw_delay());
        }
    }

    #[test]
    #[should_panic]
    fn zero_slots_rejected() {
        let _ = TriggerMac::new(
            MacConfig {
                delay_slots: 0,
                ..Default::default()
            },
            DspRng::seed_from(0),
        );
    }
}
