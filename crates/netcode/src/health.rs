//! # Relay health estimation for graceful ANC degradation
//!
//! ANC's throughput gain exists only while the relay is alive and both
//! flows contend; when the relay churns, insisting on the
//! amplify-forward program drops goodput to zero. [`HealthMonitor`]
//! watches the closed loop's per-attempt outcomes — decode failures,
//! missing implicit ACKs, detection-gate misses all collapse to "the
//! attempt did not complete" — as an EWMA failure score with
//! hysteresis thresholds, and tells the scheduler when to fall back
//! from the ANC program to traditional store-and-forward slots and
//! when to come back after sustained recovery.
//!
//! The monitor is deliberately signal-agnostic (it sees only success /
//! failure booleans) so it can sit in `anc-netcode` next to the ARQ
//! scheduler it steers, testable without waveforms.

use serde::{Deserialize, Serialize};

/// Tuning of the EWMA failure estimator and its hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest
    /// observation. Larger reacts faster, smaller rides out noise.
    pub alpha: f64,
    /// Failure score at or above which the path is declared unhealthy
    /// (trips the ANC→traditional fallback).
    pub unhealthy_threshold: f64,
    /// Failure score at or below which recovery may begin. Must sit
    /// below `unhealthy_threshold` — the gap is the hysteresis band
    /// that prevents flapping.
    pub healthy_threshold: f64,
    /// Consecutive below-threshold observations required before an
    /// unhealthy path is declared recovered (sustained recovery).
    pub recovery_confirm: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // At alpha 0.5 a score of 0.85 needs three consecutive
        // failures from a healthy baseline (0.5, 0.75, 0.875): one bad
        // exchange — both flows of a crossing pair failing once on an
        // unlucky channel draw — must NOT trip the fallback, while a
        // crashed relay (every attempt failing) trips it within two
        // slot periods.
        HealthConfig {
            alpha: 0.5,
            unhealthy_threshold: 0.85,
            healthy_threshold: 0.3,
            recovery_confirm: 3,
        }
    }
}

impl HealthConfig {
    /// Checks the configuration: `alpha` in `(0, 1]`, both thresholds
    /// in `[0, 1]`, and the healthy threshold below the unhealthy one.
    /// The error names the first violated condition.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("EWMA alpha must be in (0, 1]");
        }
        if !((0.0..=1.0).contains(&self.unhealthy_threshold)
            && (0.0..=1.0).contains(&self.healthy_threshold))
        {
            return Err("health thresholds must be in [0, 1]");
        }
        if self.healthy_threshold >= self.unhealthy_threshold {
            return Err("hysteresis band inverted: healthy threshold must sit below unhealthy");
        }
        Ok(())
    }
}

/// A state transition reported by [`HealthMonitor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// No state change this observation.
    None,
    /// The path just crossed into unhealthy (fallback engages).
    WentUnhealthy,
    /// Sustained recovery confirmed (fallback disengages).
    Recovered,
}

/// EWMA-with-hysteresis failure estimator (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    /// EWMA of the failure indicator, initialized optimistically at 0.
    score: f64,
    healthy: bool,
    /// Consecutive observations with the score inside the healthy band
    /// while unhealthy; recovery needs `recovery_confirm` of them.
    recovery_streak: usize,
}

impl HealthMonitor {
    /// Creates a monitor that starts healthy with a zero failure score.
    ///
    /// # Panics
    /// If [`HealthConfig::check`] fails.
    pub fn new(cfg: HealthConfig) -> HealthMonitor {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        HealthMonitor {
            cfg,
            score: 0.0,
            healthy: true,
            recovery_streak: 0,
        }
    }

    /// Feeds one attempt outcome (`failure == true` covers decode
    /// failures, missing implicit ACKs, and detection-gate misses
    /// alike) and returns the transition, if any, that it caused.
    pub fn observe(&mut self, failure: bool) -> HealthTransition {
        let x = if failure { 1.0 } else { 0.0 };
        self.score += self.cfg.alpha * (x - self.score);
        if self.healthy {
            if self.score >= self.cfg.unhealthy_threshold {
                self.healthy = false;
                self.recovery_streak = 0;
                return HealthTransition::WentUnhealthy;
            }
        } else if self.score <= self.cfg.healthy_threshold {
            self.recovery_streak += 1;
            if self.recovery_streak >= self.cfg.recovery_confirm {
                self.healthy = true;
                self.recovery_streak = 0;
                return HealthTransition::Recovered;
            }
        } else {
            self.recovery_streak = 0;
        }
        HealthTransition::None
    }

    /// Whether the monitored path is currently considered healthy.
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// The current EWMA failure score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy_and_optimistic() {
        let m = HealthMonitor::new(HealthConfig::default());
        assert!(m.is_healthy());
        assert_eq!(m.score(), 0.0);
    }

    #[test]
    fn consecutive_failures_trip_the_fallback() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        // alpha 0.5: scores 0.5, 0.75, 0.875 — crosses 0.85 on the 3rd
        // failure, so one bad exchange (two same-period flow failures)
        // never trips the fallback.
        assert_eq!(m.observe(true), HealthTransition::None);
        assert_eq!(m.observe(true), HealthTransition::None);
        assert_eq!(m.observe(true), HealthTransition::WentUnhealthy);
        assert!(!m.is_healthy());
    }

    #[test]
    fn recovery_requires_sustained_success() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.observe(true);
        m.observe(true);
        m.observe(true);
        assert!(!m.is_healthy());
        // Scores decay 0.4375, 0.21875, … — inside the healthy band
        // from the 2nd success, but recovery needs 3 confirmations.
        assert_eq!(m.observe(false), HealthTransition::None); // 0.4375
        assert_eq!(m.observe(false), HealthTransition::None); // 0.21875, streak 1
        assert_eq!(m.observe(false), HealthTransition::None); // streak 2
        assert_eq!(m.observe(false), HealthTransition::Recovered);
        assert!(m.is_healthy());
    }

    #[test]
    fn failure_mid_recovery_resets_the_streak() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.observe(true);
        m.observe(true);
        m.observe(true);
        m.observe(false); // 0.4375
        m.observe(false); // 0.21875, streak 1
        m.observe(true); // 0.609 — outside the band, streak resets
        assert!(!m.is_healthy());
        m.observe(false); // 0.3047 — still above the band
        m.observe(false); // 0.152, streak 1 again
        m.observe(false); // streak 2
        assert_eq!(m.observe(false), HealthTransition::Recovered);
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        // Alternating outcomes hover the score around 0.5 — inside the
        // band — so a healthy monitor never flaps unhealthy.
        for _ in 0..50 {
            m.observe(true);
            assert!(m.is_healthy() || m.score() >= 0.85);
            m.observe(false);
        }
        assert!(m.is_healthy());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = HealthConfig {
            alpha: 0.25,
            unhealthy_threshold: 0.8,
            healthy_threshold: 0.2,
            recovery_confirm: 5,
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: HealthConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }

    #[test]
    #[should_panic(expected = "hysteresis band inverted")]
    fn inverted_band_panics() {
        HealthMonitor::new(HealthConfig {
            alpha: 0.5,
            unhealthy_threshold: 0.3,
            healthy_threshold: 0.7,
            recovery_confirm: 1,
        });
    }
}
