//! # Deterministic fault injection
//!
//! A [`FaultSpec`] is a serializable description of the failure
//! processes a scenario is subjected to: relay/node crash-and-recover
//! churn, link blackouts and deep-shadowing bursts, wideband jammer
//! bursts, and stuck-carrier (babbling node) faults. Like the Monte
//! Carlo impairments of `anc-channel`, fault realization is
//! **coordinate-pure**: whether a fault is active at a given instant is
//! a function of `(seed, kind, entity, window)` alone, drawn from
//! [`DspRng::from_path`] streams that live entirely outside the
//! engine's forked RNG sequence. Consequences:
//!
//! * realization is order-independent and bitwise reproducible — two
//!   engines asking about different entities in different orders see
//!   identical fault timelines;
//! * a passive spec ([`FaultSpec::none`]) never draws, so faults-off
//!   runs are bit-identical to the golden fingerprints;
//! * toggling one fault process never shifts another's realization,
//!   because each `(kind, entity, window)` coordinate owns its stream.
//!
//! Time is coordinatized by the engine's exchange counter divided into
//! fixed-length burst windows: a crash process with
//! `crash_burst_periods = 4` decides once per 4 exchanges whether the
//! node is down for that whole window, which produces the bursty
//! outage/recovery churn the recovery metrics measure. Scripted
//! outages ([`ScriptedOutage`]) supplement the stochastic processes
//! with exact down-intervals for reproducible experiments.

use serde::{Deserialize, Serialize};

use anc_dsp::rng::DspRng;
use anc_frame::NodeId;
use anc_netcode::HealthConfig;

/// Stream-domain tag for fault realization (`b"ANC_FLT1"`), keeping
/// fault draws disjoint from the link (`ANC_LNK1`), node (`ANC_NOD1`)
/// and traffic (`ANC_TRF1`) stream families.
pub const FAULT_STREAM_DOMAIN: u64 = 0x414E_435F_464C_5431;

/// Sub-stream kind: node crash-and-recover churn.
const KIND_CRASH: u64 = 1;
/// Sub-stream kind: link blackout bursts.
const KIND_BLACKOUT: u64 = 2;
/// Sub-stream kind: link deep-shadowing bursts.
const KIND_SHADOW: u64 = 3;
/// Sub-stream kind: wideband jammer bursts (activation draw).
const KIND_JAMMER: u64 = 4;
/// Sub-stream kind: stuck-carrier (babbling node) faults.
const KIND_STUCK: u64 = 5;
/// Sub-stream kind: per-receiver jammer noise samples.
const KIND_JAMMER_NOISE: u64 = 6;
/// Stream id: city-region outage windows (u64 region keys — the
/// city layer's node universe exceeds `NodeId`).
const KIND_REGION: u64 = 7;

/// Gain floor for blacked-out links, mirroring the
/// `MIN_FADED_GAIN` floor of the impairment layer: a blackout
/// attenuates below any detection gate without producing literal
/// zeros that could divide-by-zero downstream SNR estimates.
const BLACKOUT_GAIN: f64 = 1e-6;

/// A scripted node outage: the node is down for exchanges
/// `from_period <= t < until_period`. Scripted outages compose with
/// the stochastic crash process (a node is down if either says so).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScriptedOutage {
    /// Node that crashes.
    pub node: NodeId,
    /// First exchange index (inclusive) of the outage.
    pub from_period: u64,
    /// First exchange index past the outage (exclusive).
    pub until_period: u64,
}

impl ScriptedOutage {
    /// True when `period` falls inside this outage window for `node`.
    #[must_use]
    pub fn covers(&self, node: NodeId, period: u64) -> bool {
        node == self.node && period >= self.from_period && period < self.until_period
    }
}

/// Serializable fault timeline attached to a scenario.
///
/// The default spec is **passive**: every rate is zero, no outages are
/// scripted, and the engine's fault hooks short-circuit without
/// drawing a single random number, keeping faults-off runs
/// bit-identical to the golden fingerprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-window probability that a node is crashed.
    pub crash_rate: f64,
    /// Length (in exchanges) of one crash decision window.
    pub crash_burst_periods: u64,
    /// Exact down-intervals, composed with the stochastic process.
    pub scripted: Vec<ScriptedOutage>,
    /// Per-window probability that a link blacks out entirely.
    pub blackout_rate: f64,
    /// Length of one blackout decision window.
    pub blackout_burst_periods: u64,
    /// Per-window probability that a link is deep-shadowed.
    pub shadow_rate: f64,
    /// Shadowing depth in dB (amplitude is scaled by `10^(-dB/20)`).
    pub shadow_db: f64,
    /// Length of one shadowing decision window.
    pub shadow_burst_periods: u64,
    /// Per-window probability that the wideband jammer is on.
    pub jammer_rate: f64,
    /// Jammer noise power added to every receive window while active.
    pub jammer_power: f64,
    /// Length of one jammer decision window.
    pub jammer_burst_periods: u64,
    /// Per-window probability that a node babbles a stuck carrier.
    pub stuck_rate: f64,
    /// Amplitude of the stuck carrier.
    pub stuck_amplitude: f64,
    /// Length of one stuck-carrier decision window.
    pub stuck_burst_periods: u64,
    /// When true, a crash drops the flow's queued frames (counted as
    /// `lost_to_churn`); when false the queue survives the outage.
    pub drop_queue_on_crash: bool,
    /// Health-estimator tuning for the ANC→traditional fallback.
    pub health: HealthConfig,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crash_rate: 0.0,
            crash_burst_periods: 4,
            scripted: Vec::new(),
            blackout_rate: 0.0,
            blackout_burst_periods: 4,
            shadow_rate: 0.0,
            shadow_db: 30.0,
            shadow_burst_periods: 4,
            jammer_rate: 0.0,
            jammer_power: 1.0,
            jammer_burst_periods: 4,
            stuck_rate: 0.0,
            stuck_amplitude: 1.0,
            stuck_burst_periods: 4,
            drop_queue_on_crash: false,
            health: HealthConfig::default(),
        }
    }
}

impl FaultSpec {
    /// The passive spec: no faults, bit-identical to running without one.
    #[must_use]
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// True when no fault process can ever fire.
    #[must_use]
    pub fn is_passive(&self) -> bool {
        self.crash_rate == 0.0
            && self.scripted.is_empty()
            && self.blackout_rate == 0.0
            && self.shadow_rate == 0.0
            && self.jammer_rate == 0.0
            && self.stuck_rate == 0.0
    }

    /// Checks every field against the conditions the `with_*`
    /// builders assert, plus finite magnitudes: rates in `[0, 1]`,
    /// every burst window positive, shadow depth, jammer power and
    /// stuck amplitude finite and non-negative, every scripted outage
    /// non-empty, and a valid [`HealthConfig`]. A spec that passes
    /// cannot panic a run; the error names the offending field.
    pub fn check(&self) -> Result<(), String> {
        for (name, rate) in [
            ("crash_rate", self.crash_rate),
            ("blackout_rate", self.blackout_rate),
            ("shadow_rate", self.shadow_rate),
            ("jammer_rate", self.jammer_rate),
            ("stuck_rate", self.stuck_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("faults.{name} must be in [0, 1], got {rate}"));
            }
        }
        for (name, periods) in [
            ("crash_burst_periods", self.crash_burst_periods),
            ("blackout_burst_periods", self.blackout_burst_periods),
            ("shadow_burst_periods", self.shadow_burst_periods),
            ("jammer_burst_periods", self.jammer_burst_periods),
            ("stuck_burst_periods", self.stuck_burst_periods),
        ] {
            if periods == 0 {
                return Err(format!("faults.{name} must be positive"));
            }
        }
        for (name, v) in [
            ("shadow_db", self.shadow_db),
            ("jammer_power", self.jammer_power),
            ("stuck_amplitude", self.stuck_amplitude),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "faults.{name} must be finite and non-negative, got {v}"
                ));
            }
        }
        if let Some(o) = self
            .scripted
            .iter()
            .find(|o| o.from_period >= o.until_period)
        {
            return Err(format!(
                "faults.scripted outage of node {} must be non-empty, got [{}, {})",
                o.node, o.from_period, o.until_period
            ));
        }
        self.health
            .check()
            .map_err(|e| format!("faults.health: {e}"))
    }

    /// Enable stochastic crash-and-recover churn.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]` or `burst_periods` is zero.
    #[must_use]
    pub fn with_crashes(mut self, rate: f64, burst_periods: u64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "crash rate must be in [0, 1]");
        assert!(burst_periods > 0, "crash burst window must be positive");
        self.crash_rate = rate;
        self.crash_burst_periods = burst_periods;
        self
    }

    /// Script an exact node outage over `[from_period, until_period)`.
    ///
    /// # Panics
    /// If the interval is empty.
    #[must_use]
    pub fn with_scripted_crash(
        mut self,
        node: NodeId,
        from_period: u64,
        until_period: u64,
    ) -> FaultSpec {
        assert!(
            from_period < until_period,
            "scripted outage must be non-empty"
        );
        self.scripted.push(ScriptedOutage {
            node,
            from_period,
            until_period,
        });
        self
    }

    /// Enable link blackout bursts.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]` or `burst_periods` is zero.
    #[must_use]
    pub fn with_blackouts(mut self, rate: f64, burst_periods: u64) -> FaultSpec {
        assert!(
            (0.0..=1.0).contains(&rate),
            "blackout rate must be in [0, 1]"
        );
        assert!(burst_periods > 0, "blackout burst window must be positive");
        self.blackout_rate = rate;
        self.blackout_burst_periods = burst_periods;
        self
    }

    /// Enable deep-shadowing bursts of `depth_db` dB.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]`, `depth_db` is negative, or
    /// `burst_periods` is zero.
    #[must_use]
    pub fn with_shadowing(mut self, rate: f64, depth_db: f64, burst_periods: u64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "shadow rate must be in [0, 1]");
        assert!(depth_db >= 0.0, "shadow depth must be non-negative dB");
        assert!(burst_periods > 0, "shadow burst window must be positive");
        self.shadow_rate = rate;
        self.shadow_db = depth_db;
        self.shadow_burst_periods = burst_periods;
        self
    }

    /// Enable wideband jammer bursts of the given noise power.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]`, `power` is negative, or
    /// `burst_periods` is zero.
    #[must_use]
    pub fn with_jammer(mut self, rate: f64, power: f64, burst_periods: u64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "jammer rate must be in [0, 1]");
        assert!(power >= 0.0, "jammer power must be non-negative");
        assert!(burst_periods > 0, "jammer burst window must be positive");
        self.jammer_rate = rate;
        self.jammer_power = power;
        self.jammer_burst_periods = burst_periods;
        self
    }

    /// Enable stuck-carrier (babbling node) faults.
    ///
    /// # Panics
    /// If `rate` is outside `[0, 1]`, `amplitude` is negative, or
    /// `burst_periods` is zero.
    #[must_use]
    pub fn with_stuck_carrier(
        mut self,
        rate: f64,
        amplitude: f64,
        burst_periods: u64,
    ) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "stuck rate must be in [0, 1]");
        assert!(amplitude >= 0.0, "stuck amplitude must be non-negative");
        assert!(burst_periods > 0, "stuck burst window must be positive");
        self.stuck_rate = rate;
        self.stuck_amplitude = amplitude;
        self.stuck_burst_periods = burst_periods;
        self
    }

    /// Scales every stochastic fault rate by `factor` (clamped to
    /// `[0, 1]`), leaving depths/powers and scripted outages untouched
    /// — the chaos sweep's intensity axis. `scaled(0.0)` keeps the
    /// scripted timeline but silences every random process.
    ///
    /// # Panics
    /// If `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> FaultSpec {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "intensity factor must be finite and non-negative"
        );
        let scale = |rate: f64| (rate * factor).clamp(0.0, 1.0);
        self.crash_rate = scale(self.crash_rate);
        self.blackout_rate = scale(self.blackout_rate);
        self.shadow_rate = scale(self.shadow_rate);
        self.jammer_rate = scale(self.jammer_rate);
        self.stuck_rate = scale(self.stuck_rate);
        self
    }

    /// Configure whether a crash drops the crashed flow's queue.
    #[must_use]
    pub fn with_queue_drop(mut self, drop_queue: bool) -> FaultSpec {
        self.drop_queue_on_crash = drop_queue;
        self
    }

    /// One Bernoulli draw for `(kind, entity, window)`.
    fn window_active(seed: u64, kind: u64, entity: &[u64], window: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut path = Vec::with_capacity(3 + entity.len());
        path.push(FAULT_STREAM_DOMAIN);
        path.push(kind);
        path.extend_from_slice(entity);
        path.push(window);
        DspRng::from_path(seed, &path).chance(rate)
    }

    /// True when `node` is crashed at exchange `period` — either by a
    /// scripted outage or by the stochastic churn process.
    #[must_use]
    pub fn node_crashed(&self, seed: u64, node: NodeId, period: u64) -> bool {
        if self.scripted.iter().any(|o| o.covers(node, period)) {
            return true;
        }
        Self::window_active(
            seed,
            KIND_CRASH,
            &[u64::from(node)],
            period / self.crash_burst_periods,
            self.crash_rate,
        )
    }

    /// Multiplicative amplitude factor the fault layer applies to the
    /// `from -> to` link at exchange `period`: `1.0` when no link
    /// fault is active, a hard near-zero floor during a blackout, or the
    /// shadowing attenuation during a deep-shadow burst. Blackouts
    /// dominate shadowing when both fire.
    #[must_use]
    pub fn link_gain_factor(&self, seed: u64, from: NodeId, to: NodeId, period: u64) -> f64 {
        let ends = [u64::from(from), u64::from(to)];
        if Self::window_active(
            seed,
            KIND_BLACKOUT,
            &ends,
            period / self.blackout_burst_periods,
            self.blackout_rate,
        ) {
            return BLACKOUT_GAIN;
        }
        if Self::window_active(
            seed,
            KIND_SHADOW,
            &ends,
            period / self.shadow_burst_periods,
            self.shadow_rate,
        ) {
            return 10f64.powf(-self.shadow_db / 20.0).max(1e-9);
        }
        1.0
    }

    /// True when city `region` sits in an outage window at exchange
    /// `period`. Regions are keyed by plain `u64` because the
    /// city-scale layer addresses more nodes than `NodeId` can — a
    /// region groups one spatial-hash neighborhood of them. The draw
    /// reuses the crash churn knobs (`crash_rate`,
    /// `crash_burst_periods`) on its own stream id, so region faults
    /// never perturb per-node crash draws. Pure in
    /// `(seed, region, period)`: dense and sparse slot-advance paths
    /// asking in different orders see identical windows.
    #[must_use]
    pub fn region_down(&self, seed: u64, region: u64, period: u64) -> bool {
        Self::window_active(
            seed,
            KIND_REGION,
            &[region],
            period / self.crash_burst_periods,
            self.crash_rate,
        )
    }

    /// Jammer noise power active at exchange `period`, or `None` when
    /// the jammer is off.
    #[must_use]
    pub fn jammer_power_at(&self, seed: u64, period: u64) -> Option<f64> {
        if Self::window_active(
            seed,
            KIND_JAMMER,
            &[],
            period / self.jammer_burst_periods,
            self.jammer_rate,
        ) {
            Some(self.jammer_power)
        } else {
            None
        }
    }

    /// The per-receiver jammer noise stream for exchange `period`.
    /// Keyed by receiver so concurrent windows at different nodes see
    /// independent jammer noise, as physically distinct front ends do.
    #[must_use]
    pub fn jammer_noise_rng(&self, seed: u64, receiver: NodeId, period: u64) -> DspRng {
        DspRng::from_path(
            seed,
            &[
                FAULT_STREAM_DOMAIN,
                KIND_JAMMER_NOISE,
                u64::from(receiver),
                period,
            ],
        )
    }

    /// When `node` is babbling at exchange `period`, the stuck
    /// carrier's `(amplitude, phase)`; `None` otherwise. The phase is
    /// drawn per `(node, window)` so a babble burst holds one carrier,
    /// as a wedged transmitter would.
    #[must_use]
    pub fn stuck_carrier(&self, seed: u64, node: NodeId, period: u64) -> Option<(f64, f64)> {
        if self.stuck_rate <= 0.0 {
            return None;
        }
        let window = period / self.stuck_burst_periods;
        let mut rng = DspRng::from_path(
            seed,
            &[FAULT_STREAM_DOMAIN, KIND_STUCK, u64::from(node), window],
        );
        // Fixed draw layout: activation first, then phase, so the
        // phase stream never shifts with the activation outcome.
        let active = rng.chance(self.stuck_rate);
        let phase = rng.phase();
        active.then_some((self.stuck_amplitude, phase))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_spec_never_fires() {
        let f = FaultSpec::none();
        assert!(f.is_passive());
        for period in 0..64 {
            for node in 0..4u8 {
                assert!(!f.node_crashed(7, node, period));
                assert!(f.stuck_carrier(7, node, period).is_none());
                for to in 0..4u8 {
                    assert_eq!(f.link_gain_factor(7, node, to, period), 1.0);
                }
            }
            assert!(f.jammer_power_at(7, period).is_none());
        }
    }

    #[test]
    fn realization_is_coordinate_pure() {
        let f = FaultSpec::none()
            .with_crashes(0.4, 3)
            .with_blackouts(0.3, 2)
            .with_jammer(0.5, 2.0, 5)
            .with_stuck_carrier(0.3, 0.8, 4);
        // Asking twice, or in any order, yields identical answers.
        let a: Vec<bool> = (0..40).map(|p| f.node_crashed(9, 2, p)).collect();
        let b: Vec<bool> = (0..40).rev().map(|p| f.node_crashed(9, 2, p)).collect();
        let b: Vec<bool> = b.into_iter().rev().collect();
        assert_eq!(a, b);
        assert_eq!(f.stuck_carrier(9, 1, 12), f.stuck_carrier(9, 1, 12));
        assert_eq!(
            f.link_gain_factor(9, 0, 2, 7),
            f.link_gain_factor(9, 0, 2, 7)
        );
    }

    #[test]
    fn bursts_hold_for_whole_windows() {
        let f = FaultSpec::none().with_crashes(0.5, 8);
        for window in 0..16 {
            let first = f.node_crashed(11, 3, window * 8);
            for offset in 1..8 {
                assert_eq!(first, f.node_crashed(11, 3, window * 8 + offset));
            }
        }
    }

    #[test]
    fn processes_use_disjoint_streams() {
        // Toggling the blackout process must not change crash draws.
        let crash_only = FaultSpec::none().with_crashes(0.4, 2);
        let both = FaultSpec::none()
            .with_crashes(0.4, 2)
            .with_blackouts(0.9, 2);
        for p in 0..64 {
            assert_eq!(crash_only.node_crashed(5, 1, p), both.node_crashed(5, 1, p));
        }
    }

    #[test]
    fn entities_use_disjoint_streams() {
        let f = FaultSpec::none().with_crashes(0.5, 1);
        let a: Vec<bool> = (0..256).map(|p| f.node_crashed(13, 0, p)).collect();
        let b: Vec<bool> = (0..256).map(|p| f.node_crashed(13, 1, p)).collect();
        assert_ne!(a, b, "distinct nodes should see distinct churn");
    }

    #[test]
    fn scripted_outage_covers_exact_interval() {
        let f = FaultSpec::none().with_scripted_crash(2, 10, 14);
        assert!(!f.node_crashed(1, 2, 9));
        for p in 10..14 {
            assert!(f.node_crashed(1, 2, p));
            assert!(!f.node_crashed(1, 3, p), "other nodes unaffected");
        }
        assert!(!f.node_crashed(1, 2, 14));
        assert!(!f.is_passive());
    }

    #[test]
    fn shadow_depth_sets_gain() {
        let f = FaultSpec::none().with_shadowing(1.0, 20.0, 1);
        let g = f.link_gain_factor(3, 0, 1, 0);
        assert!((g - 0.1).abs() < 1e-12, "20 dB shadow is 0.1 amplitude");
        let b = FaultSpec::none().with_blackouts(1.0, 1);
        assert_eq!(b.link_gain_factor(3, 0, 1, 0), BLACKOUT_GAIN);
    }

    #[test]
    fn stuck_carrier_holds_phase_within_burst() {
        let f = FaultSpec::none().with_stuck_carrier(1.0, 0.7, 6);
        let (amp, phase) = f.stuck_carrier(17, 2, 12).expect("always babbling");
        assert_eq!(amp, 0.7);
        for offset in 0..6 {
            assert_eq!(f.stuck_carrier(17, 2, 12 + offset), Some((amp, phase)));
        }
    }

    #[test]
    fn serde_roundtrip() {
        let f = FaultSpec::none()
            .with_crashes(0.2, 6)
            .with_scripted_crash(1, 5, 9)
            .with_shadowing(0.1, 25.0, 3)
            .with_jammer(0.05, 1.5, 4)
            .with_stuck_carrier(0.02, 0.9, 2)
            .with_queue_drop(true);
        let json = serde_json::to_string(&f).expect("serialize");
        let back: FaultSpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(f, back);
    }

    #[test]
    fn region_windows_are_pure_and_independent_of_crashes() {
        let f = FaultSpec::none().with_crashes(0.3, 4);
        // Pure in (seed, region, period): repeated queries agree, and
        // a region draw never consumes (or matches) the per-node crash
        // stream for the same numeric key.
        let mut any_down = false;
        for region in 0..64u64 {
            for period in 0..32u64 {
                let a = f.region_down(9, region, period);
                assert_eq!(a, f.region_down(9, region, period));
                any_down |= a;
            }
        }
        assert!(any_down, "rate 0.3 over 2048 windows should fire");
        assert!(
            (0..32u64).all(|p| !FaultSpec::none().region_down(9, 1, p)),
            "zero rate never fires"
        );
        // Same key, different streams: region 2 and node 2 windows are
        // drawn from different kinds, so they are not the same process.
        let crash: Vec<bool> = (0..512).map(|p| f.node_crashed(9, 2, p)).collect();
        let region: Vec<bool> = (0..512).map(|p| f.region_down(9, 2, p)).collect();
        assert_ne!(crash, region, "streams must be independent");
    }

    #[test]
    #[should_panic(expected = "crash rate must be in [0, 1]")]
    fn negative_rate_panics() {
        let _ = FaultSpec::none().with_crashes(-0.1, 2);
    }

    #[test]
    #[should_panic(expected = "scripted outage must be non-empty")]
    fn empty_scripted_outage_panics() {
        let _ = FaultSpec::none().with_scripted_crash(0, 5, 5);
    }
}
