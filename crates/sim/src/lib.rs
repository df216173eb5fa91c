//! # anc-sim — the evaluation testbed, in software
//!
//! §11 of the paper evaluates ANC on a software-radio testbed over three
//! canonical topologies (Alice-Bob, "X", chain) against two baselines
//! (traditional routing and COPE), each with an optimal MAC. This crate
//! is that testbed's software substitute: it runs *signal-level*
//! experiments — every packet is modulated, sent through the channel
//! model, superposed with interferers, and decoded — and reports the
//! paper's metrics (§11.2): network throughput, gain over traditional,
//! gain over COPE, and per-packet BER.
//!
//! The testbed is layered as scenario → program → engine:
//!
//! * [`topology`] — declarative [`TopologyGraph`]s (arbitrary node/link
//!   matrices with symbolic gain classes) realized into per-run
//!   channels; the three paper topologies are canonical graphs.
//! * [`scenario`] — [`scenario::ScenarioSpec`] (graph + flows) and the
//!   compiler that derives roles, router knowledge, and slot schedules
//!   for any scheme; ships the parking-lot chain, asymmetric-X, and
//!   random-mesh scenarios beyond the paper's three.
//! * [`engine`] — the event-driven simulator: nodes, link matrix,
//!   event queue of scheduled transmissions, per-receiver superposition
//!   windows, and the global sample clock. Bit-reproducible; golden
//!   tests pin the paper runs' seeded metrics across the refactor.
//!   With a scenario's `arq` set it runs **closed-loop**: per-flow
//!   queues with configurable offered load, an
//!   [`anc_netcode::DynamicScheduler`] consulted each slot period,
//!   bounded retransmissions with backoff, §7.6 implicit-ACK
//!   suppression, and carrier-sense serialization of partial
//!   contender sets ([`metrics::FlowMetrics`] reports the per-flow
//!   goodput/latency/retransmission ledgers).
//! * [`runs`] — one experiment run = 1000 packets per flow per scheme
//!   (paper default), seeded; 40 runs per figure. The paper runs are
//!   thin scenario definitions on the engine.
//! * [`experiments`] — per-figure drivers (`alice_bob`, `x_topology`,
//!   `chain`, `sir_sweep`) plus the new-scenario drivers
//!   (`parking_lot_sweep`, `asymmetric_x`, `random_mesh`).
//! * [`mod@monte_carlo`] — the Monte Carlo layer: many independent
//!   realizations of one scenario × scheme (time-varying channels via
//!   [`anc_channel::impairment`]) pooled into BER/throughput confidence
//!   intervals; parallel trials are bit-identical to serial.
//! * [`faults`] — deterministic fault injection: serializable
//!   [`faults::FaultSpec`] timelines (node churn, link blackouts and
//!   deep shadowing, jammer bursts, stuck carriers) realized from
//!   coordinate-pure streams, plus the health-estimator-driven
//!   ANC→traditional fallback and outage/recovery ledgers.
//! * [`metrics`] — throughput/gain/BER accounting, including the FEC
//!   redundancy charge of §11.2 and the overlap-fraction bookkeeping of
//!   §11.4.
//! * [`report`] — JSON + fixed-width text rendering of each figure's
//!   series (CDFs, sweeps) for EXPERIMENTS.md.
//! * [`pool`] — ordered fork-join stages: the one executor the
//!   engine's slots, the city's streets and the repeated-realization
//!   sweeps all run on; results come back in job order, bit-identical
//!   to serial execution.
//! * [`pipeline`] — the engine's TX/RX stages over its nodes and the
//!   [`SchedulerSpec`] that picks their executor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod engine;
pub mod experiments;
pub mod faults;
pub mod metrics;
pub mod monte_carlo;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod runs;
pub mod scenario;
pub mod topology;

pub use city::{
    CityConfig, CityError, CityLayout, CityOutcome, CityProfile, CityRun, CityRunBuilder,
    FlashCrowd,
};
pub use engine::{Engine, EngineError, Program};
pub use experiments::{
    alice_bob, chain, chaos_sweep, saturated_throughput, sir_sweep, throughput_vs_load, x_topology,
    ChaosPoint, ChaosSweepConfig, LoadPoint, LoadSweepConfig,
};
pub use faults::{FaultSpec, ScriptedOutage};
pub use metrics::{FlowMetrics, OutageRecord, RunMetrics, StatDigest, ThroughputAccount};
pub use monte_carlo::{monte_carlo, Ci, MonteCarloConfig, MonteCarloResult};
pub use pipeline::{RunCtx, SchedMode, SchedulerSpec};
pub use report::{ExperimentReport, FigureSeries};
pub use runs::{run_spec, Run, RunBuilder, RunConfig, Scenario};
pub use scenario::{MeshConfig, ScenarioError, ScenarioSpec};
pub use topology::{LinkSpec, Topology, TopologyGraph, TopologyKind};
