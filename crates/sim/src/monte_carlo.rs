//! Monte Carlo trial driver: many independent realizations of one
//! scenario × scheme, aggregated with confidence intervals.
//!
//! The paper's headline results (§8, Figs. 13–15) are *statistical* —
//! BER and throughput measured over many packets on real, time-varying
//! channels. [`monte_carlo`] is the software substitute: it compiles a
//! [`ScenarioSpec`] once, fans `trials` independent realizations (each
//! with its own derived seed, and therefore its own channel draw,
//! impairment processes, payloads, and noise) across the
//! [`crate::pool`] workers, and pools the per-trial metrics into
//! [`Ci`] 95 % confidence intervals.
//!
//! Its trial loop is the crate's one repetition loop: every sweep in
//! [`crate::experiments`] hands it a flattened list of (program,
//! config) runs, and a config that fails [`RunConfig::check`] comes
//! back as a typed [`ScenarioError::Invalid`], not a panic mid-sweep.
//!
//! Determinism: trial seeds derive from `(base seed, trial index)`
//! exactly as the figure drivers' repetitions do, and results are
//! aggregated in trial order regardless of completion order, so a
//! parallel sweep is **bit-identical** to a serial one (pinned by the
//! `monte_carlo` integration suite). Impairment draws inside each
//! trial are keyed on coordinates, never on evaluation order (see
//! [`anc_channel::impairment`]).

use crate::engine::{Engine, EngineError, Program};
use crate::experiments::run_seed;
use crate::metrics::RunMetrics;
use crate::pipeline::{RunCtx, SchedulerSpec};
use crate::pool::parallel_map_indexed_with;
use crate::runs::RunConfig;
use crate::scenario::{ScenarioError, ScenarioSpec};
use anc_netcode::Scheme;
use serde::{Deserialize, Serialize};

/// Parameters of one Monte Carlo sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Independent trials (fresh channel/impairment realizations).
    pub trials: usize,
    /// Per-trial run configuration; each trial gets a derived seed.
    pub base: RunConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            trials: 40,
            base: RunConfig::default(),
            threads: 0,
        }
    }
}

impl MonteCarloConfig {
    /// Scaled-down settings for tests.
    pub fn quick(seed: u64) -> Self {
        MonteCarloConfig {
            trials: 4,
            base: RunConfig::quick(seed),
            threads: 0,
        }
    }
}

/// A mean with its 95 % confidence interval (normal approximation:
/// `mean ± 1.96·s/√n`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ci {
    /// Sample mean (NaN when no samples contributed).
    pub mean: f64,
    /// Half-width of the 95 % interval (0 for n ≤ 1).
    pub half_width: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Contributing samples.
    pub n: usize,
}

impl Ci {
    /// Computes mean and 95 % CI from samples.
    pub fn from_samples(xs: &[f64]) -> Ci {
        let n = xs.len();
        if n == 0 {
            return Ci {
                mean: f64::NAN,
                half_width: 0.0,
                std_dev: 0.0,
                n: 0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Ci {
                mean,
                half_width: 0.0,
                std_dev: 0.0,
                n,
            };
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        Ci {
            mean,
            half_width: 1.96 * std_dev / (n as f64).sqrt(),
            std_dev,
            n,
        }
    }

    /// Lower edge of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
}

/// Pooled outcome of one scenario × scheme Monte Carlo sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloResult {
    /// Scenario name.
    pub scenario: String,
    /// Scheme name (`RunMetrics::scheme`).
    pub scheme: String,
    /// Trials executed.
    pub trials: usize,
    /// Per-trial mean packet BER, over trials that decoded ≥ 1 packet
    /// (a trial that delivered nothing contributes to `delivery_rate`,
    /// not to the BER statistic).
    pub ber: Ci,
    /// Per-trial network throughput (payload bits / sample).
    pub throughput: Ci,
    /// Per-trial end-to-end delivery rate.
    pub delivery_rate: Ci,
    /// The per-trial mean BERs behind `ber` (CDF material).
    pub per_trial_ber: Vec<f64>,
    /// The per-trial throughputs behind `throughput`.
    pub per_trial_throughput: Vec<f64>,
    /// Every decoded packet's BER, pooled across trials in trial order
    /// (the Fig.-14-style per-packet CDF).
    pub pooled_packet_bers: Vec<f64>,
    /// Per-trial closed-loop delivery rate (ARQ-acknowledged-and-
    /// decoded over offered, pooled over flows). `n == 0` when the
    /// scenario ran open-loop.
    pub arq_delivery_rate: Ci,
    /// Per-trial mean enqueue→ACK latency (samples) over trials that
    /// delivered at least one packet. `n == 0` open-loop.
    pub arq_latency: Ci,
    /// Per-trial retransmissions per completed packet. `n == 0`
    /// open-loop.
    pub arq_retransmissions_per_packet: Ci,
    /// Per-outage time from trouble onset to unhealthy verdict, in
    /// slot periods, pooled across trials. `n == 0` (NaN-sentinel
    /// mean) when no trial detected an outage — fault-free sweeps.
    pub outage_time_to_detect: Ci,
    /// Per-outage time from detection to the first fallback delivery.
    /// Outages where nothing got through contribute no sample; `n == 0`
    /// when the fallback never delivered anywhere.
    pub outage_time_to_failover: Ci,
    /// Per-outage time from detection back to a healthy verdict, over
    /// outages that closed before their run ended.
    pub outage_time_to_recover: Ci,
    /// Per-outage FEC-discounted goodput delivered while unhealthy
    /// (bits) — the degraded-mode floor. `n == 0` when fault-free.
    pub outage_goodput_bits: Ci,
    /// Per-trial count of detected outage episodes (n == trials, 0s
    /// included, so the mean is outages per trial).
    pub outages_per_trial: Ci,
}

/// Runs `cfg.trials` independent realizations of `spec` under `scheme`
/// and returns the raw per-trial metrics in trial order — for drivers
/// that need receiver- or packet-level statistics beyond what
/// [`aggregate`] pools (e.g. the Fig.-14 SIR sweep reads only Alice's
/// decodes). Parallel execution is bit-identical to serial.
pub fn monte_carlo_trials(
    spec: &ScenarioSpec,
    scheme: Scheme,
    cfg: &MonteCarloConfig,
) -> Result<Vec<RunMetrics>, ScenarioError> {
    let program = spec.compile(scheme)?;
    let runs: Vec<_> = (0..cfg.trials)
        .map(|idx| {
            let mut rc = cfg.base.clone();
            rc.seed = run_seed(cfg.base.seed, idx);
            (&program, rc)
        })
        .collect();
    run_trials(&runs, cfg.threads)
}

/// The one repetition loop behind every sweep in the crate: checks
/// each run's config ([`RunConfig::check`]), then executes the
/// `(program, config)` list on at most `threads` workers (`0` = all
/// cores) under the deterministic executor, and returns the metrics in
/// list order, or the error of the lowest-index run that failed.
///
/// Each worker reuses one warmed [`RunCtx`] (DESIGN.md §8, §14).
/// Scratch contents never influence decode output, so parallel and
/// serial stay bit-identical (pinned by tests/monte_carlo.rs).
pub(crate) fn run_trials(
    runs: &[(&Program, RunConfig)],
    threads: usize,
) -> Result<Vec<RunMetrics>, ScenarioError> {
    for (_, rc) in runs {
        rc.check()?;
    }
    let sched = SchedulerSpec::deterministic();
    parallel_map_indexed_with(runs.len(), threads, RunCtx::default, |ctx, idx| {
        let (program, rc) = &runs[idx];
        Engine::try_run_ctx(program, rc, &sched, ctx)
    })
    .into_iter()
    .collect::<Result<_, EngineError>>()
    .map_err(ScenarioError::from)
}

/// Runs `cfg.trials` independent realizations of `spec` under `scheme`
/// and pools them (see module docs). Parallel execution is
/// bit-identical to serial.
pub fn monte_carlo(
    spec: &ScenarioSpec,
    scheme: Scheme,
    cfg: &MonteCarloConfig,
) -> Result<MonteCarloResult, ScenarioError> {
    let metrics = monte_carlo_trials(spec, scheme, cfg)?;
    Ok(aggregate(&spec.name, &metrics))
}

/// Pools already-executed trial metrics (trial order = slice order).
pub fn aggregate(scenario: &str, trials: &[RunMetrics]) -> MonteCarloResult {
    let scheme = trials
        .first()
        .map(|m| m.scheme.clone())
        .unwrap_or_else(|| "none".to_string());
    let mut per_trial_ber = Vec::new();
    let mut per_trial_throughput = Vec::with_capacity(trials.len());
    let mut per_trial_delivery = Vec::with_capacity(trials.len());
    let mut pooled = Vec::new();
    let mut arq_delivery = Vec::new();
    let mut arq_latency = Vec::new();
    let mut arq_retx = Vec::new();
    let mut out_detect = Vec::new();
    let mut out_failover = Vec::new();
    let mut out_recover = Vec::new();
    let mut out_goodput = Vec::new();
    let mut out_count = Vec::with_capacity(trials.len());
    for m in trials {
        out_count.push(m.outages.len() as f64);
        for o in &m.outages {
            out_detect.push(o.time_to_detect() as f64);
            if let Some(t) = o.time_to_failover() {
                out_failover.push(t as f64);
            }
            if let Some(t) = o.time_to_recover() {
                out_recover.push(t as f64);
            }
            out_goodput.push(o.goodput_bits);
        }
        if !m.packet_bers.is_empty() {
            per_trial_ber.push(m.mean_ber());
        }
        per_trial_throughput.push(m.account.throughput());
        per_trial_delivery.push(m.account.delivery_rate());
        pooled.extend_from_slice(&m.packet_bers);
        if !m.flows.is_empty() {
            let offered: usize = m.flows.iter().map(|f| f.offered).sum();
            let delivered: usize = m.flows.iter().map(|f| f.delivered).sum();
            let completed: usize = m
                .flows
                .iter()
                .map(|f| f.delivered + f.dropped + f.lost_after_ack)
                .sum();
            let retx: usize = m.flows.iter().map(|f| f.retransmissions).sum();
            if offered > 0 {
                arq_delivery.push(delivered as f64 / offered as f64);
            }
            let lats: Vec<f64> = m
                .flows
                .iter()
                .flat_map(|f| f.latency_samples.iter().copied())
                .collect();
            if !lats.is_empty() {
                arq_latency.push(lats.iter().sum::<f64>() / lats.len() as f64);
            }
            if completed > 0 {
                arq_retx.push(retx as f64 / completed as f64);
            }
        }
    }
    MonteCarloResult {
        scenario: scenario.to_string(),
        scheme,
        trials: trials.len(),
        ber: Ci::from_samples(&per_trial_ber),
        throughput: Ci::from_samples(&per_trial_throughput),
        delivery_rate: Ci::from_samples(&per_trial_delivery),
        per_trial_ber,
        per_trial_throughput,
        pooled_packet_bers: pooled,
        arq_delivery_rate: Ci::from_samples(&arq_delivery),
        arq_latency: Ci::from_samples(&arq_latency),
        arq_retransmissions_per_packet: Ci::from_samples(&arq_retx),
        outage_time_to_detect: Ci::from_samples(&out_detect),
        outage_time_to_failover: Ci::from_samples(&out_failover),
        outage_time_to_recover: Ci::from_samples(&out_recover),
        outage_goodput_bits: Ci::from_samples(&out_goodput),
        outages_per_trial: Ci::from_samples(&out_count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_of_empty_and_single() {
        let none = Ci::from_samples(&[]);
        assert!(none.mean.is_nan());
        assert_eq!(none.n, 0);
        let one = Ci::from_samples(&[3.5]);
        assert_eq!(one.mean, 3.5);
        assert_eq!(one.half_width, 0.0);
        assert_eq!(one.n, 1);
    }

    #[test]
    fn ci_matches_hand_computation() {
        // Samples 1..=5: mean 3, sample sd sqrt(2.5).
        let ci = Ci::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        assert!((ci.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        let expect = 1.96 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((ci.half_width - expect).abs() < 1e-12);
        assert!((ci.hi() - ci.lo() - 2.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let few: Vec<f64> = (0..8).map(|i| (i % 2) as f64).collect();
        let many: Vec<f64> = (0..128).map(|i| (i % 2) as f64).collect();
        let a = Ci::from_samples(&few);
        let b = Ci::from_samples(&many);
        assert!(b.half_width < a.half_width);
    }

    #[test]
    fn constant_samples_have_zero_width() {
        let ci = Ci::from_samples(&[0.25; 10]);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 0.25);
    }

    #[test]
    fn empty_windows_pool_to_nan_sentinel_cis() {
        // The NaN-safe outage contract: a fault-free (or delivery-free)
        // sweep must pool to explicit empty CIs — n == 0, NaN mean,
        // zero width — never to a fabricated 0.0 statistic.
        use crate::metrics::OutageRecord;
        use anc_netcode::Scheme;
        let mut quiet = RunMetrics::new(Scheme::Anc);
        quiet.account.tick(10.0);
        quiet.flows.push(crate::metrics::FlowMetrics {
            flow: 0,
            offered: 4,
            dropped: 4,
            ..Default::default()
        });
        let r = aggregate("t", &[quiet.clone(), quiet.clone()]);
        for ci in [
            r.arq_latency,
            r.outage_time_to_detect,
            r.outage_time_to_failover,
            r.outage_time_to_recover,
            r.outage_goodput_bits,
        ] {
            assert_eq!(ci.n, 0, "zero-delivery window must pool empty");
            assert!(ci.mean.is_nan(), "empty CI mean is the NaN sentinel");
            assert_eq!(ci.half_width, 0.0);
        }
        assert_eq!(r.outages_per_trial.n, 2);
        assert_eq!(r.outages_per_trial.mean, 0.0);
        // An outage the run ended inside (no failover, no recovery)
        // contributes to detection but not to the optional ledgers.
        let mut cut_short = quiet.clone();
        cut_short.outages.push(OutageRecord {
            onset_period: 3,
            detect_period: 5,
            ..Default::default()
        });
        let r = aggregate("t", &[cut_short]);
        assert_eq!(r.outage_time_to_detect.n, 1);
        assert_eq!(r.outage_time_to_detect.mean, 2.0);
        assert_eq!(r.outage_time_to_failover.n, 0);
        assert!(r.outage_time_to_failover.mean.is_nan());
        assert_eq!(r.outage_time_to_recover.n, 0);
    }

    #[test]
    fn aggregate_skips_decode_free_trials_for_ber() {
        use anc_netcode::Scheme;
        let mut with = RunMetrics::new(Scheme::Anc);
        with.packet_bers.push(0.04);
        with.account.deliver(100, 0.04);
        with.account.tick(10.0);
        let mut without = RunMetrics::new(Scheme::Anc);
        without.account.lose();
        without.account.tick(10.0);
        let r = aggregate("t", &[with, without]);
        assert_eq!(r.trials, 2);
        assert_eq!(r.ber.n, 1, "decode-free trial excluded from BER");
        assert_eq!(r.delivery_rate.n, 2, "but counted for delivery");
        assert_eq!(r.pooled_packet_bers, vec![0.04]);
    }
}
