//! The paper's runs, as thin scenario definitions on the engine.
//!
//! One [`run_alice_bob`] / [`run_chain`] / [`run_x`] call = one "run"
//! in the paper's sense (§11.4: 1000 packets per direction, repeated
//! 40 times over fresh channel realizations). Each used to be a
//! ~300-line hand-scheduled function; now each is a
//! [`crate::scenario::ScenarioSpec`] compiled and executed by
//! [`crate::engine::Engine`], and the golden-metric suite pins that
//! the seeded metrics are unchanged to the bit. [`run_spec`] runs any
//! other scenario the same way.

use crate::engine::{Engine, Program};
use crate::faults::FaultSpec;
use crate::metrics::RunMetrics;
use crate::pipeline::{RunCtx, SchedulerSpec};
use crate::scenario::{ScenarioError, ScenarioSpec};
use crate::topology::ChannelDraw;
use anc_channel::ImpairmentSpec;
use anc_frame::NodeId;
use anc_netcode::{ArqConfig, Scheme};
use anc_node::MacConfig;
use serde::{Deserialize, Serialize};

/// The widest MAC stagger a run accepts, in samples: sixteen maximal
/// frames (65,535-bit payloads), far past any overlap worth coding,
/// and 16 MiB of samples in a reception window. It bounds the noise
/// padding on each side of a window too.
const MAX_STAGGER_SAMPLES: f64 = (1u64 << 20) as f64;

/// The most packets a flow carries in one run: the header's 16-bit
/// sequence space (65× the paper's 1,000), so no packet key repeats
/// within a run and a run's length stays bounded.
const MAX_PACKETS_PER_FLOW: usize = 1 << 16;

/// Parameters of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Seed for everything stochastic in the run.
    pub seed: u64,
    /// Packets per flow (paper: 1000).
    pub packets_per_flow: usize,
    /// Payload bits per packet. The default (8192, ≈ 1 KB) matches the
    /// regime of the paper's testbed frames; the MAC's random delays
    /// then stagger packets by ≈ 10 % of a frame on average, giving the
    /// ≈ 80–90 % overlap of §11.4.
    pub payload_bits: usize,
    /// Receiver noise power (signal amplitudes are ~0.7–1.0, so 1e-3
    /// puts received SNR near 28 dB — the paper's WLAN operating
    /// range).
    pub noise_power: f64,
    /// Channel gain draw ranges.
    pub channel: ChannelDraw,
    /// MAC staggering parameters (§7.2/§7.6).
    pub mac: MacConfig,
    /// Maximum per-node oscillator offset (rad/sample); each node
    /// draws uniformly in `[-max, max]`. Models the independent
    /// crystals of real radios (see `anc-core::amplitude` docs).
    pub osc_offset_max: f64,
    /// Guard interval appended to every slot, in samples.
    pub guard_samples: usize,
    /// Noise padding before/after transmissions in each reception
    /// window, in samples.
    pub pad_samples: usize,
    /// Per-transmission turnaround latency in bit-times, charged to
    /// every *scheduled* transmission slot (baseline unicasts, COPE's
    /// three slots, the ANC relay's classify-amplify-rebroadcast). The
    /// trigger-elicited simultaneous slot does not pay it — its random
    /// delay (§7.2) subsumes the turnaround. Models the control-packet
    /// scheduling and user-space processing every testbed transmission
    /// incurs (§7.6, §11.4); the `ablation_turnaround` bench sweeps it.
    pub turnaround_bits: usize,
    /// Per-node transmit amplitude overrides (node, amplitude); used
    /// by the Fig.-13 SIR sweep. Default none (unit amplitude).
    pub tx_amplitude_overrides: Vec<(NodeId, f64)>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            packets_per_flow: 200,
            payload_bits: 8192,
            noise_power: 1e-3,
            channel: ChannelDraw::default(),
            mac: MacConfig::default(),
            osc_offset_max: 0.03,
            guard_samples: 64,
            pad_samples: 96,
            turnaround_bits: 288,
            tx_amplitude_overrides: Vec::new(),
        }
    }
}

impl RunConfig {
    /// A scaled-down configuration for unit/integration tests.
    pub fn quick(seed: u64) -> Self {
        RunConfig {
            seed,
            packets_per_flow: 12,
            payload_bits: 768,
            ..Default::default()
        }
    }

    /// Rejects a config that would panic or run without bound at
    /// execute, with a typed [`ScenarioError::Invalid`] naming the
    /// field. Every run the crate executes passes through here: the
    /// [`RunBuilder`] and the sweeps' trial runner.
    pub fn check(&self) -> Result<(), ScenarioError> {
        let noise = self.noise_power;
        if !noise.is_finite() || noise <= 0.0 {
            return Err(ScenarioError::Invalid(format!(
                "noise_power must be finite and positive, got {noise}"
            )));
        }
        let packets = self.packets_per_flow;
        if packets > MAX_PACKETS_PER_FLOW {
            return Err(ScenarioError::Invalid(format!(
                "packets_per_flow must be at most {MAX_PACKETS_PER_FLOW}, got {packets}"
            )));
        }
        let payload = self.payload_bits;
        if payload > usize::from(u16::MAX) {
            return Err(ScenarioError::Invalid(format!(
                "payload_bits {payload} exceeds the header's 16-bit length field"
            )));
        }
        let ch = &self.channel;
        for (name, (lo, hi)) in [
            ("gain", ch.gain),
            ("overhear_gain", ch.overhear_gain),
            ("weak_gain", ch.weak_gain),
        ] {
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > 0.0) {
                return Err(ScenarioError::Invalid(format!(
                    "channel.{name} bounds must be finite and positive, got ({lo}, {hi})"
                )));
            }
        }
        let mac = &self.mac;
        if mac.delay_slots == 0 || mac.slot_bits == 0 {
            return Err(ScenarioError::Invalid(format!(
                "mac.delay_slots and mac.slot_bits must be at least 1, got {} and {}",
                mac.delay_slots, mac.slot_bits
            )));
        }
        // The widest stagger the MAC can draw, in samples: the last slot
        // plus the Box–Muller tail (|z| < 9).
        let stagger = mac.delay_slots as f64 * mac.slot_bits as f64 + 9.0 * mac.jitter_bits;
        if !(mac.jitter_bits >= 0.0 && stagger <= MAX_STAGGER_SAMPLES) {
            return Err(ScenarioError::Invalid(format!(
                "mac.jitter_bits must be non-negative and the widest MAC stagger at most \
                 {MAX_STAGGER_SAMPLES} samples, got jitter {} and stagger {stagger}",
                mac.jitter_bits
            )));
        }
        let pad = self.pad_samples;
        if pad as f64 > MAX_STAGGER_SAMPLES {
            return Err(ScenarioError::Invalid(format!(
                "pad_samples must be at most {MAX_STAGGER_SAMPLES}, got {pad}"
            )));
        }
        Ok(())
    }
}

/// Builder-style run entry. Configure, [`RunBuilder::build`] once
/// (compiling the scenario), then execute the compiled [`Run`] as many
/// times as needed — optionally with a warmed [`RunCtx`] and a
/// non-default [`SchedulerSpec`].
///
/// ```
/// use anc_netcode::Scheme;
/// use anc_sim::scenario::ScenarioSpec;
/// use anc_sim::{RunConfig, SchedulerSpec};
///
/// let metrics = ScenarioSpec::alice_bob()
///     .builder(Scheme::Anc)
///     .config(RunConfig::quick(7))
///     .scheduler(SchedulerSpec::deterministic())
///     .build()
///     .expect("alice_bob compiles")
///     .execute()
///     .expect("run completes");
/// assert!(metrics.account.delivered > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RunBuilder {
    spec: ScenarioSpec,
    scheme: Scheme,
    cfg: RunConfig,
    sched: SchedulerSpec,
}

impl ScenarioSpec {
    /// Starts a [`RunBuilder`] for this scenario under `scheme`, with
    /// the default [`RunConfig`] and the deterministic scheduler.
    pub fn builder(self, scheme: Scheme) -> RunBuilder {
        RunBuilder {
            spec: self,
            scheme,
            cfg: RunConfig::default(),
            sched: SchedulerSpec::default(),
        }
    }
}

impl RunBuilder {
    /// Sets the run parameters (seed, packet counts, channel, MAC…).
    pub fn config(mut self, cfg: RunConfig) -> RunBuilder {
        self.cfg = cfg;
        self
    }

    /// Enables the closed-loop MAC/ARQ layer (see [`ArqConfig`]).
    pub fn arq(mut self, arq: ArqConfig) -> RunBuilder {
        self.spec.arq = Some(arq);
        self
    }

    /// Attaches a deterministic fault timeline (see [`FaultSpec`]).
    pub fn faults(mut self, faults: FaultSpec) -> RunBuilder {
        self.spec.faults = Some(faults);
        self
    }

    /// Attaches a default time-varying impairment process to every
    /// link and sender (see [`ImpairmentSpec`]).
    pub fn impairments(mut self, spec: ImpairmentSpec) -> RunBuilder {
        self.spec.impairments = Some(spec);
        self
    }

    /// Selects the executor of the run's stages (deterministic
    /// reference executor or work-stealing threads).
    pub fn scheduler(mut self, sched: SchedulerSpec) -> RunBuilder {
        self.sched = sched;
        self
    }

    /// Validates the run config ([`RunConfig::check`]) and compiles
    /// the scenario into an executable [`Run`].
    pub fn build(self) -> Result<Run, ScenarioError> {
        self.cfg.check()?;
        let program = self.spec.compile(self.scheme)?;
        Ok(Run {
            program,
            cfg: self.cfg,
            sched: self.sched,
        })
    }

    /// Compile-and-execute shorthand: `build()?.execute()`.
    pub fn run(self) -> Result<RunMetrics, ScenarioError> {
        self.build()?.execute()
    }
}

/// A compiled, executable run: the [`Program`] plus its config and
/// scheduler choice. Execute it repeatedly (e.g. across Monte Carlo
/// trials) without re-compiling the scenario.
#[derive(Debug)]
pub struct Run {
    program: Program,
    cfg: RunConfig,
    sched: SchedulerSpec,
}

impl Run {
    /// Executes the run with a fresh scratch context.
    pub fn execute(&self) -> Result<RunMetrics, ScenarioError> {
        self.execute_with(&mut RunCtx::default())
    }

    /// Executes the run with a caller-owned warmed [`RunCtx`] (decoder
    /// scratch reuse across runs — the Monte Carlo hot path).
    pub fn execute_with(&self, ctx: &mut RunCtx) -> Result<RunMetrics, ScenarioError> {
        Engine::try_run_ctx(&self.program, &self.cfg, &self.sched, ctx).map_err(ScenarioError::from)
    }

    /// The run's parameters (seed, packet counts…).
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The compiled program (inspection/tests).
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Compiles and runs any scenario spec under one scheme.
pub fn run_spec(
    spec: &ScenarioSpec,
    scheme: Scheme,
    cfg: &RunConfig,
) -> Result<RunMetrics, ScenarioError> {
    spec.clone().builder(scheme).config(cfg.clone()).run()
}

/// Runs one scheme on one Alice-Bob realization (Fig. 1, §11.4).
pub fn run_alice_bob(scheme: Scheme, cfg: &RunConfig) -> RunMetrics {
    run_spec(&ScenarioSpec::alice_bob(), scheme, cfg).expect("canonical Alice-Bob compiles")
}

/// Runs one scheme on one chain realization (Fig. 2, §11.6).
///
/// # Panics
/// Panics for [`Scheme::Cope`], which does not apply to unidirectional
/// flows.
pub fn run_chain(scheme: Scheme, cfg: &RunConfig) -> RunMetrics {
    assert!(
        scheme != Scheme::Cope,
        "COPE does not apply to the unidirectional chain (§11.6)"
    );
    run_spec(&ScenarioSpec::chain(), scheme, cfg).expect("canonical chain compiles")
}

/// Runs one scheme on one "X" realization (Fig. 11, §11.5).
pub fn run_x(scheme: Scheme, cfg: &RunConfig) -> RunMetrics {
    run_spec(&ScenarioSpec::x(), scheme, cfg).expect("canonical X compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::gain;

    #[test]
    fn traditional_alice_bob_is_reliable() {
        let cfg = RunConfig::quick(1);
        let m = run_alice_bob(Scheme::Traditional, &cfg);
        assert_eq!(m.account.delivered, 2 * cfg.packets_per_flow);
        assert_eq!(m.account.lost, 0);
        assert!(m.mean_ber() < 1e-3, "baseline BER {}", m.mean_ber());
    }

    #[test]
    fn cope_alice_bob_is_reliable_and_faster() {
        let cfg = RunConfig::quick(2);
        let t = run_alice_bob(Scheme::Traditional, &cfg);
        let c = run_alice_bob(Scheme::Cope, &cfg);
        assert_eq!(c.account.delivered, 2 * cfg.packets_per_flow);
        let gain_ct = gain(&c, &t);
        assert!(
            gain_ct > 1.1 && gain_ct < 1.5,
            "COPE gain over traditional: {gain_ct}"
        );
    }

    #[test]
    fn anc_alice_bob_delivers_and_wins() {
        // Paper-shape factors need paper-scale frames (see the bench
        // binaries); this asserts the win direction at reduced scale.
        let cfg = RunConfig {
            packets_per_flow: 16,
            payload_bits: 4096,
            ..RunConfig::quick(3)
        };
        let a = run_alice_bob(Scheme::Anc, &cfg);
        let t = run_alice_bob(Scheme::Traditional, &cfg);
        assert!(
            a.account.delivery_rate() > 0.7,
            "ANC delivery rate {}",
            a.account.delivery_rate()
        );
        let g = gain(&a, &t);
        assert!(g > 1.2, "ANC gain over traditional: {g}");
        assert!(a.mean_ber() < 0.15, "ANC mean BER {}", a.mean_ber());
        assert!(!a.overlaps.is_empty());
    }

    #[test]
    fn chain_traditional_delivers() {
        let cfg = RunConfig::quick(4);
        let m = run_chain(Scheme::Traditional, &cfg);
        assert_eq!(m.account.delivered, cfg.packets_per_flow);
    }

    #[test]
    fn chain_anc_delivers_and_wins() {
        let cfg = RunConfig {
            packets_per_flow: 14,
            payload_bits: 4096,
            ..RunConfig::quick(5)
        };
        let a = run_chain(Scheme::Anc, &cfg);
        let t = run_chain(Scheme::Traditional, &cfg);
        assert!(
            a.account.delivery_rate() > 0.7,
            "chain ANC delivery rate {}",
            a.account.delivery_rate()
        );
        let g = gain(&a, &t);
        assert!(g > 1.05, "chain ANC gain {g}");
    }

    #[test]
    #[should_panic]
    fn chain_cope_panics() {
        let _ = run_chain(Scheme::Cope, &RunConfig::quick(6));
    }

    #[test]
    fn x_traditional_delivers() {
        let cfg = RunConfig::quick(7);
        let m = run_x(Scheme::Traditional, &cfg);
        assert_eq!(m.account.delivered, 2 * cfg.packets_per_flow);
    }

    #[test]
    fn x_anc_delivers() {
        let cfg = RunConfig {
            packets_per_flow: 12,
            payload_bits: 4096,
            ..RunConfig::quick(8)
        };
        let a = run_x(Scheme::Anc, &cfg);
        assert!(
            a.account.delivery_rate() > 0.5,
            "X ANC delivery rate {} (overhearing losses expected)",
            a.account.delivery_rate()
        );
    }

    #[test]
    fn x_cope_with_overhearing() {
        let cfg = RunConfig::quick(9);
        let c = run_x(Scheme::Cope, &cfg);
        assert!(c.account.delivery_rate() > 0.8);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = RunConfig::quick(10);
        let a = run_alice_bob(Scheme::Anc, &cfg);
        let b = run_alice_bob(Scheme::Anc, &cfg);
        assert_eq!(a.account.goodput_bits, b.account.goodput_bits);
        assert_eq!(a.packet_bers, b.packet_bers);
    }

    #[test]
    fn run_spec_surfaces_compile_errors() {
        let r = run_spec(&ScenarioSpec::chain(), Scheme::Cope, &RunConfig::quick(12));
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_non_positive_or_non_finite_noise() {
        for noise in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let err = ScenarioSpec::alice_bob()
                .builder(Scheme::Anc)
                .config(RunConfig {
                    noise_power: noise,
                    ..RunConfig::quick(13)
                })
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Invalid(s) if s.contains("noise_power")),
                "noise {noise}: {err}"
            );
        }
    }

    #[test]
    fn builder_rejects_configs_that_would_panic_at_execute() {
        // Built, each of these would panic at execute: in
        // `TriggerMac::new`, in `Link::new`, in the §7.1 detector, in
        // frame synthesis, on a stagger overflow, or on a reception
        // window too large to allocate; or would run past the 16-bit
        // sequence space, for hours or without end. The sweeps' trial
        // runner rejects each of them the same way.
        use crate::experiments::{
            chaos_sweep, saturated_throughput, scenario_experiment, throughput_vs_load,
            ChaosSweepConfig, ExperimentConfig, LoadSweepConfig,
        };
        use crate::monte_carlo::{monte_carlo, monte_carlo_trials, MonteCarloConfig};
        let build = |edit: &dyn Fn(&mut RunConfig)| {
            let mut cfg = RunConfig::quick(15);
            edit(&mut cfg);
            ScenarioSpec::alice_bob()
                .builder(Scheme::Anc)
                .config(cfg)
                .build()
        };
        let rejected = |edit: &dyn Fn(&mut RunConfig), field: &str| {
            let mut cfg = RunConfig::quick(15);
            edit(&mut cfg);
            let spec = ScenarioSpec::alice_bob();
            let one_trial = MonteCarloConfig {
                trials: 1,
                base: cfg.clone(),
                threads: 1,
            };
            let one_run = ExperimentConfig {
                runs: 1,
                base: cfg.clone(),
                threads: 1,
            };
            let load = LoadSweepConfig {
                base: cfg.clone(),
                loads: vec![0.5],
                runs_per_point: 1,
                threads: 1,
                ..Default::default()
            };
            let chaos = ChaosSweepConfig {
                base: cfg.clone(),
                intensities: vec![1.0],
                runs_per_point: 1,
                threads: 1,
                ..Default::default()
            };
            let arq = ArqConfig::default();
            for (path, err) in [
                ("build", build(edit).err()),
                (
                    "monte_carlo_trials",
                    monte_carlo_trials(&spec, Scheme::Anc, &one_trial).err(),
                ),
                (
                    "monte_carlo",
                    monte_carlo(&spec, Scheme::Anc, &one_trial).err(),
                ),
                (
                    "scenario_experiment",
                    scenario_experiment(&spec, &one_run, true).err(),
                ),
                (
                    "throughput_vs_load",
                    throughput_vs_load(&spec, Scheme::Anc, &load).err(),
                ),
                ("chaos_sweep", chaos_sweep(&spec, &chaos).err()),
                (
                    "saturated_throughput",
                    saturated_throughput(&spec, Scheme::Anc, arq, &cfg, 1, 1).err(),
                ),
            ] {
                assert!(
                    matches!(&err, Some(ScenarioError::Invalid(s)) if s.contains(field)),
                    "{field} through {path}: {err:?}"
                );
            }
        };
        rejected(&|c| c.noise_power = -1.0, "noise_power");
        rejected(&|c| c.payload_bits = 70_000, "payload_bits");
        rejected(&|c| c.mac.delay_slots = 0, "mac.delay_slots");
        rejected(&|c| c.mac.slot_bits = 0, "mac.slot_bits");
        for jitter in [-1.0, f64::NAN, f64::INFINITY, 1e300] {
            rejected(&|c| c.mac.jitter_bits = jitter, "mac.jitter_bits");
        }
        rejected(&|c| c.mac.delay_slots = u64::MAX, "MAC stagger");
        for bounds in [
            (0.0, 0.0),
            (-1.0, -0.5),
            (f64::NAN, 1.0),
            (0.5, f64::INFINITY),
            (0.5, 0.0),
        ] {
            rejected(&|c| c.channel.gain = bounds, "channel.gain");
            rejected(
                &|c| c.channel.overhear_gain = bounds,
                "channel.overhear_gain",
            );
            rejected(&|c| c.channel.weak_gain = bounds, "channel.weak_gain");
        }
        for pad in [(1 << 20) + 1, 1 << 40, usize::MAX] {
            rejected(&|c| c.pad_samples = pad, "pad_samples");
        }
        for packets in [(1 << 16) + 1, 1 << 40, usize::MAX] {
            rejected(&|c| c.packets_per_flow = packets, "packets_per_flow");
        }
        assert!(build(&|c| {
            c.mac.delay_slots = 1;
            c.mac.slot_bits = 1;
        })
        .is_ok());
        for pad in [96, 1 << 20] {
            assert!(build(&|c| c.pad_samples = pad).is_ok(), "pad {pad}");
        }
        assert!(build(&|c| c.packets_per_flow = 1 << 16).is_ok());
        // Fault timelines that would divide by a zero burst window, or
        // trip `HealthMonitor::new`'s alpha assert in a closed-loop
        // multi-flow ANC run.
        let build_faults = |faults: FaultSpec| {
            ScenarioSpec::alice_bob()
                .builder(Scheme::Anc)
                .config(RunConfig::quick(15))
                .faults(faults)
                .build()
        };
        let active = FaultSpec::none()
            .with_crashes(0.3, 4)
            .with_blackouts(0.3, 4)
            .with_shadowing(0.3, 30.0, 4)
            .with_jammer(0.3, 1.0, 4)
            .with_stuck_carrier(0.3, 1.0, 4);
        for (k, kind) in ["crash", "blackout", "shadow", "jammer", "stuck"]
            .into_iter()
            .enumerate()
        {
            let mut faults = active.clone();
            *[
                &mut faults.crash_burst_periods,
                &mut faults.blackout_burst_periods,
                &mut faults.shadow_burst_periods,
                &mut faults.jammer_burst_periods,
                &mut faults.stuck_burst_periods,
            ][k] = 0;
            let field = format!("{kind}_burst_periods");
            let err = build_faults(faults).expect_err(&field);
            assert!(
                matches!(&err, ScenarioError::Invalid(s) if s.contains(&field)),
                "{field}: {err}"
            );
        }
        let mut faults = active.clone();
        faults.health.alpha = 0.0;
        assert!(matches!(
            build_faults(faults),
            Err(ScenarioError::Invalid(s)) if s.contains("alpha")
        ));
        assert!(build_faults(active).is_ok());
    }

    #[test]
    fn run_config_round_trips_through_json() {
        let cfg = RunConfig {
            tx_amplitude_overrides: vec![(2, 0.5)],
            ..RunConfig::quick(16)
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RunConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
        // A config saved while `RunConfig` still carried the removed
        // oversampling factor (its last field, always 1) loads to the
        // same config: unknown keys are ignored.
        let removed_key = concat!("samples_per", "_symbol");
        let body = json.strip_suffix('}').expect("RunConfig is a JSON object");
        let saved = format!("{body},\"{removed_key}\":1}}");
        let old: RunConfig = serde_json::from_str(&saved).unwrap();
        assert_eq!(format!("{old:?}"), format!("{cfg:?}"));
    }

    #[test]
    fn builder_rejects_payloads_past_the_length_field() {
        let build = |payload_bits| {
            ScenarioSpec::alice_bob()
                .builder(Scheme::Anc)
                .config(RunConfig {
                    payload_bits,
                    ..RunConfig::quick(14)
                })
                .build()
        };
        assert!(build(usize::from(u16::MAX)).is_ok());
        let Err(err) = build(usize::from(u16::MAX) + 1) else {
            panic!("a payload past the length field must not build");
        };
        assert!(
            matches!(&err, ScenarioError::Invalid(s) if s.contains("payload_bits")),
            "{err}"
        );
    }
}
