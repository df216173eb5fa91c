//! Multi-run experiment drivers — one per paper figure (§11), plus
//! the post-paper scenarios the engine makes possible.
//!
//! Each driver repeats paired runs (same topology realization, all
//! schemes) over fresh channel draws — the paper's "40 times" — and
//! pools the per-run gains and per-packet BERs into the CDFs the
//! figures plot. Runs are independent with per-repetition forked seeds.
//! Every driver compiles each scheme once, flattens its points × runs
//! × schemes into one list, and hands it to the crate's one trial
//! runner ([`mod@crate::monte_carlo`]), which checks each run's
//! [`RunConfig`], fans the list out on [`crate::pool`]'s workers and
//! returns the metrics in list order; results are bit-identical to a
//! serial (`threads = 1`) execution.
//!
//! Beyond the paper: [`scenario_experiment`] pools any crossing-pair
//! [`ScenarioSpec`] the same way ([`asymmetric_x`], [`random_mesh`]),
//! and [`parking_lot_sweep`] runs the length-N chain over a range of
//! relay counts (throughput vs hop count).

use crate::engine::Program;
use crate::faults::FaultSpec;
use crate::metrics::{gain, RunMetrics};
use crate::monte_carlo::run_trials;
use crate::runs::RunConfig;
use crate::scenario::{MeshConfig, ScenarioError, ScenarioSpec};
use crate::topology::{nodes, TopologyKind};
use anc_netcode::{ArqConfig, Scheme, TrafficModel};
use serde::{Deserialize, Serialize};

/// Parameters of a multi-run experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of paired runs (paper: 40).
    pub runs: usize,
    /// The per-run configuration; each run gets a derived seed.
    pub base: RunConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            runs: 40,
            base: RunConfig::default(),
            threads: 0,
        }
    }
}

impl ExperimentConfig {
    /// Scaled-down settings for tests.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig {
            runs: 4,
            base: RunConfig::quick(seed),
            threads: 0,
        }
    }
}

/// Pooled results of one topology experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyResult {
    /// Which topology ran.
    pub topology: String,
    /// Per-run ANC throughput gain over traditional routing (Fig.
    /// 9a/10a/12a CDF samples).
    pub gains_vs_traditional: Vec<f64>,
    /// Per-run ANC gain over COPE (empty for the chain).
    pub gains_vs_cope: Vec<f64>,
    /// Pooled per-packet ANC BERs (Fig. 9b/10b/12b CDF samples).
    pub anc_packet_bers: Vec<f64>,
    /// Mean interfered-pair overlap fraction (§11.4's ≈ 80 %).
    pub mean_overlap: f64,
    /// ANC end-to-end delivery rate.
    pub anc_delivery_rate: f64,
    /// Number of paired runs executed.
    pub runs: usize,
}

impl TopologyResult {
    /// Mean per-run gain over traditional routing.
    pub fn mean_gain_traditional(&self) -> f64 {
        mean(&self.gains_vs_traditional)
    }

    /// Mean per-run gain over COPE (NaN for the chain).
    pub fn mean_gain_cope(&self) -> f64 {
        mean(&self.gains_vs_cope)
    }

    /// Mean per-packet ANC BER.
    pub fn mean_ber(&self) -> f64 {
        mean(&self.anc_packet_bers)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Derives the per-run seed; a large odd stride keeps streams apart.
/// Shared with [`crate::monte_carlo`] so a Monte Carlo trial `i` and a
/// figure-driver repetition `i` sample the same realization.
pub(crate) fn run_seed(base: u64, idx: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1))
}

/// Runs a sweep through the trial runner. Point `p` runs each of its
/// programs on `runs` realizations of its base config, realization `r`
/// seeded `run_seed(base.seed + p·stride, r)`. The list is flattened
/// point by point, run by run, program by program; the metrics come
/// back grouped by point in that order.
fn sweep(
    points: &[(Vec<Program>, RunConfig)],
    stride: u64,
    runs: usize,
    threads: usize,
) -> Result<Vec<Vec<RunMetrics>>, ScenarioError> {
    let mut list = Vec::new();
    for (p, (programs, base)) in points.iter().enumerate() {
        let seed = base.seed.wrapping_add(p as u64 * stride);
        for r in 0..runs {
            let mut rc = base.clone();
            rc.seed = run_seed(seed, r);
            list.extend(programs.iter().map(|program| (program, rc.clone())));
        }
    }
    let mut metrics = run_trials(&list, threads)?.into_iter();
    Ok(points
        .iter()
        .map(|(programs, _)| metrics.by_ref().take(runs * programs.len()).collect())
        .collect())
}

/// Runs `spec` under ANC, traditional routing and (with `with_cope`)
/// COPE on the same `cfg.runs` realizations, each scheme compiled once,
/// and pools the paired runs under the label `topology`.
fn experiment(
    spec: &ScenarioSpec,
    topology: &str,
    cfg: &ExperimentConfig,
    with_cope: bool,
) -> Result<TopologyResult, ScenarioError> {
    let schemes: &[Scheme] = if with_cope {
        &[Scheme::Anc, Scheme::Traditional, Scheme::Cope]
    } else {
        &[Scheme::Anc, Scheme::Traditional]
    };
    let programs = schemes
        .iter()
        .map(|&scheme| spec.compile(scheme))
        .collect::<Result<_, _>>()?;
    let runs = sweep(&[(programs, cfg.base.clone())], 0, cfg.runs, cfg.threads)?;
    let mut result = TopologyResult {
        topology: topology.to_string(),
        gains_vs_traditional: Vec::new(),
        gains_vs_cope: Vec::new(),
        anc_packet_bers: Vec::new(),
        mean_overlap: 0.0,
        anc_delivery_rate: 0.0,
        runs: cfg.runs,
    };
    let mut overlaps = Vec::new();
    let mut delivered = 0usize;
    let mut attempted = 0usize;
    for pair in runs[0].chunks_exact(schemes.len()) {
        let anc = &pair[0];
        let trad = &pair[1];
        result.gains_vs_traditional.push(gain(anc, trad));
        if with_cope {
            result.gains_vs_cope.push(gain(anc, &pair[2]));
        }
        result.anc_packet_bers.extend_from_slice(&anc.packet_bers);
        overlaps.extend_from_slice(&anc.overlaps);
        delivered += anc.account.delivered;
        attempted += anc.account.delivered + anc.account.lost;
    }
    result.mean_overlap = mean(&overlaps);
    result.anc_delivery_rate = if attempted == 0 {
        0.0
    } else {
        delivered as f64 / attempted as f64
    };
    Ok(result)
}

/// One of the paper's topology experiments, labelled by its kind.
///
/// # Panics
/// Panics on a `cfg.base` that [`RunConfig::check`] rejects.
fn paper_experiment(
    kind: TopologyKind,
    spec: ScenarioSpec,
    cfg: &ExperimentConfig,
    with_cope: bool,
) -> TopologyResult {
    experiment(&spec, &format!("{kind:?}"), cfg, with_cope)
        .unwrap_or_else(|e| panic!("{kind:?} experiment: {e}"))
}

/// Figs. 9a/9b — the Alice-Bob experiment (§11.4).
pub fn alice_bob(cfg: &ExperimentConfig) -> TopologyResult {
    paper_experiment(TopologyKind::AliceBob, ScenarioSpec::alice_bob(), cfg, true)
}

/// Figs. 10a/10b — the "X" topology experiment (§11.5).
pub fn x_topology(cfg: &ExperimentConfig) -> TopologyResult {
    paper_experiment(TopologyKind::X, ScenarioSpec::x(), cfg, true)
}

/// Figs. 12a/12b — the unidirectional chain experiment (§11.6).
pub fn chain(cfg: &ExperimentConfig) -> TopologyResult {
    paper_experiment(TopologyKind::Chain, ScenarioSpec::chain(), cfg, false)
}

/// Pools any crossing-pair scenario over repeated channel
/// realizations: ANC vs traditional (and COPE when `with_cope`), the
/// same shape as the paper's per-figure drivers. Parallel results are
/// bit-identical to serial.
pub fn scenario_experiment(
    spec: &ScenarioSpec,
    cfg: &ExperimentConfig,
    with_cope: bool,
) -> Result<TopologyResult, ScenarioError> {
    experiment(spec, &spec.name, cfg, with_cope)
}

/// The asymmetric-X experiment: unequal overhearing gains, pooled like
/// Fig. 10.
pub fn asymmetric_x(
    cfg: &ExperimentConfig,
    strong: (f64, f64),
    weak: (f64, f64),
) -> TopologyResult {
    scenario_experiment(&ScenarioSpec::asymmetric_x(strong, weak), cfg, true)
        .expect("asymmetric X compiles for all schemes")
}

/// The random-mesh crossing-flows experiment.
pub fn random_mesh(
    cfg: &ExperimentConfig,
    mesh: &MeshConfig,
) -> Result<TopologyResult, ScenarioError> {
    scenario_experiment(&ScenarioSpec::random_mesh(mesh)?, cfg, true)
}

/// Configuration of the parking-lot (length-N chain) sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParkingLotSweepConfig {
    /// Per-point run configuration.
    pub base: RunConfig,
    /// Relay counts to sweep (2 = the paper chain).
    pub relay_counts: Vec<usize>,
    /// Independent realizations pooled per point.
    pub runs_per_point: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for ParkingLotSweepConfig {
    fn default() -> Self {
        ParkingLotSweepConfig {
            base: RunConfig::default(),
            relay_counts: vec![1, 2, 3, 4, 6, 8],
            runs_per_point: 4,
            threads: 0,
        }
    }
}

/// One point of the throughput-vs-hop-count series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParkingLotPoint {
    /// Relays in the chain.
    pub relays: usize,
    /// Link-layer hops (`relays + 1`).
    pub hops: usize,
    /// Mean ANC throughput gain over traditional routing.
    pub mean_gain: f64,
    /// Mean ANC throughput (payload bits/sample).
    pub anc_throughput: f64,
    /// Mean traditional throughput.
    pub traditional_throughput: f64,
    /// ANC end-to-end delivery rate.
    pub anc_delivery_rate: f64,
}

/// Throughput vs hop count on the pipelined parking-lot chain: the
/// per-hop slot cost of store-and-forward grows linearly while the
/// ANC pipeline stays at ~2 slots/packet, so the gain grows with
/// length. Points fan out on the worker pool; parallel == serial bit
/// for bit.
///
/// # Panics
/// Panics on a `cfg.base` that [`RunConfig::check`] rejects.
pub fn parking_lot_sweep(cfg: &ParkingLotSweepConfig) -> Vec<ParkingLotPoint> {
    let points: Vec<_> = cfg
        .relay_counts
        .iter()
        .map(|&relays| {
            let spec = ScenarioSpec::parking_lot(relays);
            let programs = [Scheme::Anc, Scheme::Traditional]
                .map(|scheme| spec.compile(scheme).expect("parking lot compiles"));
            (programs.into(), cfg.base.clone())
        })
        .collect();
    let points = sweep(&points, 6367, cfg.runs_per_point, cfg.threads)
        .unwrap_or_else(|e| panic!("parking-lot sweep: {e}"));
    let pooled = cfg.relay_counts.iter().zip(points).map(|(&relays, runs)| {
        let mut gains = Vec::new();
        let mut anc_tp = Vec::new();
        let mut trad_tp = Vec::new();
        let mut delivered = 0usize;
        let mut attempted = 0usize;
        for pair in runs.chunks_exact(2) {
            let (a, t) = (&pair[0], &pair[1]);
            gains.push(gain(a, t));
            anc_tp.push(a.account.throughput());
            trad_tp.push(t.account.throughput());
            delivered += a.account.delivered;
            attempted += a.account.delivered + a.account.lost;
        }
        ParkingLotPoint {
            relays,
            hops: relays + 1,
            mean_gain: mean(&gains),
            anc_throughput: mean(&anc_tp),
            traditional_throughput: mean(&trad_tp),
            anc_delivery_rate: if attempted == 0 {
                0.0
            } else {
                delivered as f64 / attempted as f64
            },
        }
    });
    pooled.collect()
}

/// Configuration of the closed-loop throughput-vs-offered-load sweep
/// (the Fig. 9/10 axis: goodput as the sources push harder).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadSweepConfig {
    /// Per-point run configuration (`packets_per_flow` bounds each
    /// run's total arrivals per flow).
    pub base: RunConfig,
    /// Poisson offered loads to sweep, in packets per flow per slot
    /// period (≥ 1 saturates the medium).
    pub loads: Vec<f64>,
    /// ARQ parameters; each point overrides `traffic` with its load.
    pub arq: ArqConfig,
    /// Independent realizations pooled per point.
    pub runs_per_point: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for LoadSweepConfig {
    fn default() -> Self {
        LoadSweepConfig {
            base: RunConfig::default(),
            loads: vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
            arq: ArqConfig::default(),
            runs_per_point: 4,
            threads: 0,
        }
    }
}

/// One point of the throughput-vs-offered-load series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered load (Poisson mean packets per flow per slot period).
    pub offered_load: f64,
    /// Mean network goodput (FEC-discounted payload bits / sample).
    pub goodput_bits_per_sample: f64,
    /// ARQ-level delivery rate: acknowledged-and-decoded packets over
    /// offered packets, pooled over flows and runs.
    pub delivery_rate: f64,
    /// Mean enqueue→ACK latency of delivered packets, in samples (NaN
    /// when nothing was delivered).
    pub mean_latency_samples: f64,
    /// Retransmissions per completed (delivered, dropped, or
    /// implicitly-ACKed) packet.
    pub retransmissions_per_packet: f64,
    /// Packets dropped after exhausting retries, pooled.
    pub dropped: usize,
}

/// Closed-loop throughput vs offered load for one scenario × scheme:
/// each point runs the scenario with Poisson arrivals at that load,
/// ARQ on, and pools goodput/latency/retransmission statistics.
/// Points fan out on the worker pool; parallel == serial bit for bit.
pub fn throughput_vs_load(
    spec: &ScenarioSpec,
    scheme: Scheme,
    cfg: &LoadSweepConfig,
) -> Result<Vec<LoadPoint>, ScenarioError> {
    let points = cfg
        .loads
        .iter()
        .map(|&rate| {
            let mut armed = spec.clone();
            armed.arq = Some(cfg.arq.with_traffic(TrafficModel::Poisson { rate }));
            Ok((vec![armed.compile(scheme)?], cfg.base.clone()))
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;
    let points = sweep(&points, 104_729, cfg.runs_per_point, cfg.threads)?;
    let pooled = cfg.loads.iter().zip(points).map(|(&load, runs)| {
        let mut throughputs = Vec::with_capacity(cfg.runs_per_point);
        let (mut offered, mut delivered, mut dropped, mut retx, mut completed) = (0, 0, 0, 0, 0);
        let mut latencies = Vec::new();
        for m in &runs {
            throughputs.push(m.account.throughput());
            for fm in &m.flows {
                offered += fm.offered;
                delivered += fm.delivered;
                dropped += fm.dropped;
                retx += fm.retransmissions;
                completed += fm.delivered + fm.dropped + fm.lost_after_ack;
                latencies.extend_from_slice(&fm.latency_samples);
            }
        }
        LoadPoint {
            offered_load: load,
            goodput_bits_per_sample: mean(&throughputs),
            delivery_rate: if offered == 0 {
                0.0
            } else {
                delivered as f64 / offered as f64
            },
            mean_latency_samples: mean(&latencies),
            retransmissions_per_packet: if completed == 0 {
                0.0
            } else {
                retx as f64 / completed as f64
            },
            dropped,
        }
    });
    Ok(pooled.collect())
}

/// Configuration of the fault-intensity chaos sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosSweepConfig {
    /// Per-point run configuration.
    pub base: RunConfig,
    /// Fault-intensity multipliers applied to `faults` per point
    /// (0 = fault-free control point).
    pub intensities: Vec<f64>,
    /// The fault template; each point runs `faults.scaled(intensity)`.
    pub faults: FaultSpec,
    /// ARQ parameters shared by every point (closed loop required —
    /// the health estimator lives in the ARQ path).
    pub arq: ArqConfig,
    /// Independent realizations pooled per point.
    pub runs_per_point: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for ChaosSweepConfig {
    fn default() -> Self {
        ChaosSweepConfig {
            base: RunConfig::default(),
            intensities: vec![0.0, 0.25, 0.5, 1.0, 1.5, 2.0],
            faults: FaultSpec::none()
                .with_crashes(0.04, 8)
                .with_shadowing(0.05, 25.0, 4)
                .with_jammer(0.03, 1.0, 2),
            arq: ArqConfig::default(),
            runs_per_point: 4,
            threads: 0,
        }
    }
}

/// One point of the fault-intensity sweep: ANC-with-fallback against
/// traditional routing under the same fault realization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Fault-intensity multiplier this point ran at.
    pub intensity: f64,
    /// Mean ANC (fallback-enabled) goodput, payload bits per sample.
    pub anc_goodput: f64,
    /// Mean traditional-routing goodput under the same faults.
    pub traditional_goodput: f64,
    /// `anc_goodput / traditional_goodput` (NaN when the baseline
    /// starved).
    pub goodput_ratio: f64,
    /// ANC ARQ-level delivery rate (delivered / offered, pooled).
    pub anc_delivery_rate: f64,
    /// Outage episodes the health estimator detected, pooled over runs.
    pub outages: usize,
    /// Mean periods from trouble onset to the unhealthy verdict (NaN
    /// when no outage was detected).
    pub mean_time_to_detect: f64,
    /// Mean periods from detection to the first fallback delivery.
    pub mean_time_to_failover: f64,
    /// Mean periods from detection back to a healthy verdict, over
    /// outages that closed.
    pub mean_time_to_recover: f64,
    /// Mean FEC-discounted goodput delivered per outage while
    /// unhealthy (bits) — the degraded-mode floor.
    pub mean_outage_goodput_bits: f64,
    /// ANC packets purged by crash churn, pooled over runs.
    pub lost_to_churn: usize,
}

/// Fault intensity × scheme sweep on one scenario: each point realizes
/// `cfg.faults.scaled(intensity)` and runs ANC (health-estimator
/// fallback enabled) and traditional routing closed-loop on the same
/// derived seeds, pooling goodput and the outage ledgers. Points fan
/// out on the worker pool; parallel == serial bit for bit.
pub fn chaos_sweep(
    spec: &ScenarioSpec,
    cfg: &ChaosSweepConfig,
) -> Result<Vec<ChaosPoint>, ScenarioError> {
    // A template that fails `FaultSpec::check` fails here, whatever
    // the intensities (scaling keeps a valid template valid).
    cfg.faults.check().map_err(ScenarioError::Invalid)?;
    let points = cfg
        .intensities
        .iter()
        .map(|&intensity| {
            let mut faulted = spec.clone();
            faulted.arq = Some(cfg.arq);
            faulted.faults = Some(cfg.faults.clone().scaled(intensity));
            let anc = faulted.compile(Scheme::Anc)?;
            Ok((
                vec![anc, faulted.compile(Scheme::Traditional)?],
                cfg.base.clone(),
            ))
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;
    let points = sweep(&points, 15_485_863, cfg.runs_per_point, cfg.threads)?;
    let pooled = cfg
        .intensities
        .iter()
        .zip(points)
        .map(|(&intensity, runs)| {
            let mut anc_tp = Vec::with_capacity(cfg.runs_per_point);
            let mut trad_tp = Vec::with_capacity(cfg.runs_per_point);
            let (mut offered, mut delivered, mut churn, mut outages) = (0, 0, 0, 0);
            let mut detect = Vec::new();
            let mut failover = Vec::new();
            let mut recover = Vec::new();
            let mut out_goodput = Vec::new();
            for pair in runs.chunks_exact(2) {
                let (a, t) = (&pair[0], &pair[1]);
                anc_tp.push(a.account.throughput());
                trad_tp.push(t.account.throughput());
                for fm in &a.flows {
                    offered += fm.offered;
                    delivered += fm.delivered;
                    churn += fm.lost_to_churn;
                }
                outages += a.outages.len();
                for o in &a.outages {
                    detect.push(o.time_to_detect() as f64);
                    if let Some(p) = o.time_to_failover() {
                        failover.push(p as f64);
                    }
                    if let Some(p) = o.time_to_recover() {
                        recover.push(p as f64);
                    }
                    out_goodput.push(o.goodput_bits);
                }
            }
            let anc_goodput = mean(&anc_tp);
            let traditional_goodput = mean(&trad_tp);
            ChaosPoint {
                intensity,
                anc_goodput,
                traditional_goodput,
                goodput_ratio: if traditional_goodput > 0.0 {
                    anc_goodput / traditional_goodput
                } else {
                    f64::NAN
                },
                anc_delivery_rate: if offered == 0 {
                    0.0
                } else {
                    delivered as f64 / offered as f64
                },
                outages,
                mean_time_to_detect: mean(&detect),
                mean_time_to_failover: mean(&failover),
                mean_time_to_recover: mean(&recover),
                mean_outage_goodput_bits: mean(&out_goodput),
                lost_to_churn: churn,
            }
        });
    Ok(pooled.collect())
}

/// Mean closed-loop throughput of a scenario × scheme under saturated
/// sources — the operating point of the paper's Fig. 9/10 headline
/// gains. Runs fan out on the pool; parallel == serial bit for bit.
pub fn saturated_throughput(
    spec: &ScenarioSpec,
    scheme: Scheme,
    arq: ArqConfig,
    base: &RunConfig,
    runs: usize,
    threads: usize,
) -> Result<f64, ScenarioError> {
    let mut armed = spec.clone();
    armed.arq = Some(arq.with_traffic(TrafficModel::Saturated));
    let program = armed.compile(scheme)?;
    let runs = sweep(&[(vec![program], base.clone())], 0, runs, threads)?;
    let tps: Vec<f64> = runs[0].iter().map(|m| m.account.throughput()).collect();
    Ok(mean(&tps))
}

/// Configuration of the Fig.-13 SIR sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SirSweepConfig {
    /// Per-point run configuration (packets per flow etc.).
    pub base: RunConfig,
    /// The SIR values (dB) to sweep; the paper covers −3 … +4 dB.
    pub sir_db: Vec<f64>,
    /// Independent runs pooled per point.
    pub runs_per_point: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl Default for SirSweepConfig {
    fn default() -> Self {
        SirSweepConfig {
            base: RunConfig::default(),
            sir_db: (-6..=8).map(|x| x as f64 * 0.5).collect(),
            runs_per_point: 4,
            threads: 0,
        }
    }
}

/// One point of the Fig.-13 series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SirPoint {
    /// Received signal-to-interference ratio at Alice (dB, Eq. 9).
    pub sir_db: f64,
    /// Mean BER of Bob's packets decoded at Alice.
    pub mean_ber: f64,
    /// Packets that contributed.
    pub packets: usize,
    /// Fraction of Alice's decode attempts that produced a packet.
    pub decode_rate: f64,
}

/// Fig. 13 — BER vs SIR at Alice (§11.7).
///
/// Link gains are pinned symmetric and Bob's transmit amplitude is
/// scaled to realize each SIR (`SIR = P_Bob/P_Alice` at Alice, Eq. 9).
pub fn sir_sweep(cfg: &SirSweepConfig) -> Vec<SirPoint> {
    let program = ScenarioSpec::alice_bob()
        .compile(Scheme::Anc)
        .expect("canonical Alice-Bob compiles");
    let points: Vec<_> = cfg
        .sir_db
        .iter()
        .map(|&sir| {
            // Pin symmetric unit-ish links; scale Bob's transmit
            // amplitude so the received power ratio is the SIR.
            let mut rc = cfg.base.clone();
            rc.channel.gain = (0.85, 0.85);
            rc.tx_amplitude_overrides = vec![(nodes::BOB, anc_dsp::db::db_to_amplitude(sir))];
            (vec![program.clone()], rc)
        })
        .collect();
    let points = sweep(&points, 7919, cfg.runs_per_point, cfg.threads)
        .unwrap_or_else(|e| panic!("SIR sweep: {e}"));
    let pooled = cfg.sir_db.iter().zip(points).map(|(&sir, runs)| {
        let bers: Vec<f64> = runs.iter().flat_map(|m| m.bers_at(nodes::ALICE)).collect();
        let attempts = runs.len() * cfg.base.packets_per_flow;
        SirPoint {
            sir_db: sir,
            mean_ber: mean(&bers),
            packets: bers.len(),
            decode_rate: if attempts == 0 {
                0.0
            } else {
                bers.len() as f64 / attempts as f64
            },
        }
    });
    pooled.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_rejects_a_bad_fault_template() {
        let mut cfg = ChaosSweepConfig::default();
        cfg.faults.crash_burst_periods = 0;
        assert!(matches!(
            chaos_sweep(&ScenarioSpec::alice_bob(), &cfg),
            Err(ScenarioError::Invalid(s)) if s.contains("crash_burst_periods")
        ));
    }

    #[test]
    fn alice_bob_experiment_shape() {
        let cfg = ExperimentConfig {
            runs: 3,
            base: RunConfig {
                packets_per_flow: 8,
                payload_bits: 4096,
                ..RunConfig::quick(1)
            },
            threads: 2,
        };
        let r = alice_bob(&cfg);
        assert_eq!(r.runs, 3);
        assert_eq!(r.gains_vs_traditional.len(), 3);
        assert_eq!(r.gains_vs_cope.len(), 3);
        assert!(
            r.mean_gain_traditional() > 1.0,
            "mean gain {}",
            r.mean_gain_traditional()
        );
        assert!(!r.anc_packet_bers.is_empty());
        assert!(r.mean_overlap > 0.3 && r.mean_overlap <= 1.0);
    }

    #[test]
    fn chain_experiment_has_no_cope() {
        let cfg = ExperimentConfig {
            runs: 2,
            base: RunConfig {
                packets_per_flow: 8,
                payload_bits: 4096,
                ..RunConfig::quick(2)
            },
            threads: 2,
        };
        let r = chain(&cfg);
        assert!(r.gains_vs_cope.is_empty());
        assert!(r.mean_gain_cope().is_nan());
        assert_eq!(r.gains_vs_traditional.len(), 2);
    }

    #[test]
    fn sir_sweep_produces_ordered_points() {
        let cfg = SirSweepConfig {
            base: RunConfig {
                packets_per_flow: 10,
                payload_bits: 2048,
                ..RunConfig::quick(3)
            },
            sir_db: vec![-3.0, 0.0, 3.0],
            runs_per_point: 1,
            threads: 2,
        };
        let pts = sir_sweep(&cfg);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].sir_db, -3.0);
        assert_eq!(pts[2].sir_db, 3.0);
        for p in &pts {
            assert!(p.packets > 0, "no packets at {} dB", p.sir_db);
            assert!(p.mean_ber >= 0.0 && p.mean_ber <= 0.5);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // The acceptance property of the threaded harness: same base
        // seed → same forked per-repetition seeds → metrics equal to
        // the last bit, regardless of worker count or completion order.
        let base = ExperimentConfig {
            runs: 3,
            base: RunConfig {
                packets_per_flow: 6,
                payload_bits: 2048,
                ..RunConfig::quick(13)
            },
            threads: 1,
        };
        let serial = alice_bob(&base);
        let parallel = alice_bob(&ExperimentConfig {
            threads: 3,
            ..base.clone()
        });
        assert_eq!(serial.gains_vs_traditional, parallel.gains_vs_traditional);
        assert_eq!(serial.gains_vs_cope, parallel.gains_vs_cope);
        assert_eq!(serial.anc_packet_bers, parallel.anc_packet_bers);
        assert_eq!(
            serial.mean_overlap.to_bits(),
            parallel.mean_overlap.to_bits()
        );
        assert_eq!(
            serial.anc_delivery_rate.to_bits(),
            parallel.anc_delivery_rate.to_bits()
        );
    }

    #[test]
    fn seeds_differ_across_runs() {
        assert_ne!(run_seed(0, 0), run_seed(0, 1));
        assert_ne!(run_seed(5, 3), run_seed(6, 3));
    }

    fn tiny_experiment(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            runs: 2,
            base: RunConfig {
                packets_per_flow: 6,
                payload_bits: 2048,
                ..RunConfig::quick(seed)
            },
            threads: 2,
        }
    }

    #[test]
    fn asymmetric_x_experiment_shape() {
        let r = asymmetric_x(&tiny_experiment(5), (0.8, 0.95), (0.25, 0.4));
        assert_eq!(r.topology, "asymmetric_x");
        assert_eq!(r.runs, 2);
        assert_eq!(r.gains_vs_traditional.len(), 2);
        assert_eq!(r.gains_vs_cope.len(), 2);
    }

    #[test]
    fn random_mesh_experiment_runs() {
        let r = random_mesh(&tiny_experiment(6), &MeshConfig::default()).unwrap();
        assert_eq!(r.runs, 2);
        assert!(r.topology.starts_with("mesh_"));
    }

    #[test]
    fn scenario_experiment_rejects_unschedulable_specs() {
        // A chain is not a crossing pair: COPE cannot schedule it.
        let err = scenario_experiment(&ScenarioSpec::chain(), &tiny_experiment(7), true);
        assert!(err.is_err());
    }

    #[test]
    fn parking_lot_sweep_gain_grows_with_length() {
        let cfg = ParkingLotSweepConfig {
            base: RunConfig {
                packets_per_flow: 14,
                payload_bits: 2048,
                ..RunConfig::quick(8)
            },
            relay_counts: vec![2, 5],
            runs_per_point: 1,
            threads: 2,
        };
        let pts = parking_lot_sweep(&cfg);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].hops, 3);
        assert_eq!(pts[1].hops, 6);
        assert!(
            pts[1].mean_gain > pts[0].mean_gain,
            "pipelining pays more on longer chains: {} vs {}",
            pts[1].mean_gain,
            pts[0].mean_gain
        );
        assert!(pts[0].mean_gain > 1.0);
    }

    #[test]
    fn new_scenario_sweeps_are_bit_identical_serial_vs_parallel() {
        let base = ParkingLotSweepConfig {
            base: RunConfig {
                packets_per_flow: 6,
                payload_bits: 2048,
                ..RunConfig::quick(9)
            },
            relay_counts: vec![1, 3],
            runs_per_point: 2,
            threads: 1,
        };
        let serial = parking_lot_sweep(&base);
        let parallel = parking_lot_sweep(&ParkingLotSweepConfig {
            threads: 3,
            ..base.clone()
        });
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.mean_gain.to_bits(), p.mean_gain.to_bits());
            assert_eq!(s.anc_throughput.to_bits(), p.anc_throughput.to_bits());
        }
        let mesh_base = tiny_experiment(10);
        let m1 = random_mesh(
            &ExperimentConfig {
                threads: 1,
                ..mesh_base.clone()
            },
            &MeshConfig::default(),
        )
        .unwrap();
        let m2 = random_mesh(
            &ExperimentConfig {
                threads: 3,
                ..mesh_base
            },
            &MeshConfig::default(),
        )
        .unwrap();
        // Bitwise comparison (a gain can be NaN if a realization's
        // baseline starves, and NaN != NaN under f64 equality).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&m1.gains_vs_traditional),
            bits(&m2.gains_vs_traditional)
        );
        assert_eq!(bits(&m1.anc_packet_bers), bits(&m2.anc_packet_bers));
    }
}
