//! City-scale ANC engine: 10k–100k-node meshes of crossing relay
//! cells, run on the same stage executor as the topology engine.
//!
//! The packet-level [`crate::engine`] addresses nodes by `NodeId`
//! (`u8`), which caps it at 256 nodes — plenty for the paper
//! topologies, three orders of magnitude short of a city. This module
//! drives the *same* PHY (MSK frames through the engine's receive
//! chain, [`anc_node::phy::RxChain`], §7.3–§7.5 amplify-and-forward
//! relays) at city scale through four mechanisms:
//!
//! 1. **Streets as stage jobs.** The city is partitioned into spatial
//!    regions (street rows). Each stage of an exchange — TX
//!    synthesis, relay amplify-forward, endpoint decode — runs as one
//!    ordered fork-join stage ([`crate::pool`]) with one job per
//!    street, on whatever [`crate::pipeline::SchedulerSpec`] selects.
//!    Jobs share the board read-only; the controller changes it only
//!    between stages. Because every job is a pure function of
//!    its street's slice of the board and results come back in street
//!    order, the deterministic executor and the work-stealing
//!    executor produce bit-identical [`CityOutcome::fingerprint`]s.
//!
//! 2. **Spatially-gated superposition.** Nodes carry real
//!    coordinates; link gain follows a distance power law, and any
//!    pair beyond the §7.1 detector's 20 dB energy gate contributes
//!    nothing decodable. One persistent [`SpatialGrid`] over *all*
//!    nodes pre-filters each reception to the 3×3 neighborhood; the
//!    exact [`within_range`] test plus membership in the slot's
//!    transmitter set then admit precisely the decodable
//!    transmitters, in ascending node order — the same set and order
//!    an ungated scan would produce, so gated reception is
//!    bit-identical to it.
//!
//! 3. **True mobility.** Under [`CityLayout::RandomWaypoint`] with a
//!    positive `velocity`, endpoints move between rounds on
//!    random-waypoint legs (bearing/offset draws around their relay,
//!    velocity and pause draws per leg, all coordinate-pure). Moves
//!    are applied lazily — only nodes of serviced cells advance —
//!    and each move is an O(1) incremental
//!    [`SpatialGrid::relocate`], never a full rebuild.
//!
//! 4. **Sparse slot advance + O(1) streaming metrics.** Traffic is a
//!    per-cell geometric arrival calendar; the sparse advance keeps
//!    a min-heap of next arrivals and skips idle rounds outright,
//!    and outcomes accumulate into [`StatDigest`]s (Welford + P²
//!    quantiles), never per-packet ledgers.
//!
//! A "cell" is one Alice–Router–Bob crossing (§2): endpoints `a` and
//! `b` exchange packets through relay `r`. ANC serves an exchange in
//! 2 slots (superposed uplink, amplified broadcast downlink); the
//! traditional scheme takes 4 clean hops. Everything stochastic is
//! keyed by coordinates (`seed`, stream kind, cell/node, round/slot),
//! never by draw order, so serial and parallel execution are
//! bit-identical by construction.
//!
//! Entry point: [`CityConfig::builder`] →
//! [`CityRunBuilder::build`] → [`CityRun::execute`] (or
//! [`CityRun::execute_profiled`] for the window-assembly vs decode
//! time split).

#![deny(clippy::cast_possible_truncation)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::faults::FaultSpec;
use crate::metrics::StatDigest;
use crate::pipeline::SchedulerSpec;
use crate::pool::{Pool, StageFailed};
use anc_channel::{within_range, AmplifyForward, Link, Medium, SpatialGrid, TransmissionRef};
use anc_core::decoder::DecoderConfig;
use anc_core::detect::DetectorConfig;
use anc_dsp::cast::floor_to_usize;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_modem::ber::ber;
use anc_netcode::{derive_plan, FlowSpec, Scheme, SlotPlan, SlotStep};
use anc_node::phy::{RxChain, TxChain};
use serde::{Deserialize, Serialize};

/// Root of every [`DspRng::from_path`] stream this module draws
/// (`"ANC_CTY1"`), disjoint from the engine and fault domains.
pub const CITY_STREAM_DOMAIN: u64 = 0x414E_435F_4354_5931;

/// Why a city run cannot proceed (see [`CityRunBuilder::build`] and
/// [`CityRun::execute`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CityError {
    /// The city layer compares ANC against traditional relaying only;
    /// COPE's 3-slot scheme needs packet-level XOR state this waveform
    /// layer doesn't carry.
    UnsupportedScheme(Scheme),
    /// A config field fails validation (zero cells, horizon beyond
    /// `u32`, non-probability offered load, empty payloads, velocity
    /// on a static layout…).
    InvalidConfig(String),
    /// A served cell's queue cursor ran past its arrival calendar —
    /// the service loop and the calendar desynchronized.
    CalendarDesync {
        /// The cell whose cursor overran.
        cell: u32,
        /// Packets already served from that cell (the overrunning
        /// calendar index).
        served: u32,
    },
    /// A job of one of the exchange's stages panicked; the pool
    /// caught it and finished the other streets' jobs (see
    /// [`crate::pool`]).
    StageFailed {
        /// The stage's name (`city.anc_tx`, `city.trad_decode`, …).
        stage: &'static str,
    },
}

impl std::fmt::Display for CityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CityError::UnsupportedScheme(s) => {
                write!(
                    f,
                    "city layer does not support {s:?} (ANC vs traditional only)"
                )
            }
            CityError::InvalidConfig(s) => write!(f, "{s}"),
            CityError::CalendarDesync { cell, served } => write!(
                f,
                "cell {cell}: service cursor {served} ran past its arrival calendar"
            ),
            CityError::StageFailed { stage } => write!(f, "stage {stage}: a job panicked"),
        }
    }
}

impl From<StageFailed> for CityError {
    fn from(e: StageFailed) -> Self {
        CityError::StageFailed { stage: e.stage }
    }
}

const KIND_PLACE: u64 = 1;
const KIND_ARRIVAL: u64 = 2;
const KIND_PAYLOAD: u64 = 3;
const KIND_STAGGER: u64 = 4;
const KIND_PHASE: u64 = 5;
const KIND_NOISE: u64 = 6;
const KIND_WAYPOINT: u64 = 7;

/// Distance between adjacent nodes of one cell (meters).
const IN_CELL_PITCH: f64 = 15.0;
/// X-distance between cell anchors along a street.
const CELL_SPAN: f64 = 45.0;
/// Y-distance between streets.
const ROW_PITCH: f64 = 30.0;
/// Reference distance of the path-gain model.
const D0: f64 = 10.0;
/// Path-loss exponent (urban: ~3).
const ALPHA: f64 = 3.0;
/// Urban-grid placement jitter (± meters per axis).
const JITTER: f64 = 2.0;
/// Noise-only padding samples on each side of a reception window, so
/// the §7.1 detector sees a floor.
const PAD: usize = 64;

/// How the city's nodes are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityLayout {
    /// Cells on a street grid: in-cell links comfortably above the
    /// energy gate, cross-cell links below it.
    UrbanGrid,
    /// Random-waypoint placement: endpoints start at a random
    /// bearing/offset from their relay, so some cross-cell pairs land
    /// above the gate and collide. With `velocity == 0` this is a
    /// stationary snapshot; with `velocity > 0` the endpoints *move*
    /// between rounds, walking waypoint legs drawn from the same
    /// bearing/offset distribution (see [`CityConfig::velocity`]).
    RandomWaypoint,
}

impl CityLayout {
    fn as_str(&self) -> &'static str {
        match self {
            CityLayout::UrbanGrid => "urban_grid",
            CityLayout::RandomWaypoint => "random_waypoint",
        }
    }
}

impl Serialize for CityLayout {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl Deserialize for CityLayout {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::String(s) => match s.as_str() {
                "urban_grid" => Ok(CityLayout::UrbanGrid),
                "random_waypoint" => Ok(CityLayout::RandomWaypoint),
                other => Err(serde::Error::custom(format!(
                    "unknown city layout {other:?} (expected \"urban_grid\" or \"random_waypoint\")"
                ))),
            },
            other => Err(serde::Error::type_mismatch("layout string", other)),
        }
    }
}

/// A localized load spike: cells within `radius` of `center` multiply
/// their arrival rate by `factor` during `[from_round, until_round)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlashCrowd {
    /// Hotspot center (meters).
    pub center: (f64, f64),
    /// Hotspot radius (meters).
    pub radius: f64,
    /// Arrival-rate multiplier inside the hotspot.
    pub factor: f64,
    /// First affected round.
    pub from_round: u64,
    /// One past the last affected round.
    pub until_round: u64,
}

/// City run parameters.
///
/// Serialization is hand-written and *forward/backward tolerant*:
/// every field missing from (or `null` in) a JSON object falls back
/// to its [`CityConfig::default`] value, and unknown keys (such as
/// the retired `threads` field — parallelism is now a property of the
/// scheduler, not the config — and the retired `sparse` field, sparse
/// advance being the only advance) are ignored. Pre-mobility configs
/// load unchanged. Keys of the retired multi-cell flows and
/// inter-cell MAC load only at the setting that still describes this
/// city, one crossing per cell; any other setting is an error naming
/// the key.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Cells per street (3 nodes each).
    pub cells_x: usize,
    /// Number of streets. Each street is one *region*: every stage of
    /// an exchange runs one job per street.
    pub rows: usize,
    /// Node placement model.
    pub layout: CityLayout,
    /// Seed for every coordinate-pure stream.
    pub seed: u64,
    /// Service rounds simulated (one round = one exchange per
    /// backlogged cell: 2 slots under ANC, 4 under traditional).
    pub rounds: u64,
    /// Per-cell packet-pair arrival probability per round.
    pub offered: f64,
    /// Optional flash-crowd load spike.
    pub flash: Option<FlashCrowd>,
    /// Payload bits per packet.
    pub payload_bits: usize,
    /// Receiver noise power (also sets the energy gate radius).
    pub noise_power: f64,
    /// Optional fault layer; `region_down` (one region per street)
    /// stalls a street's service for the round.
    pub faults: Option<FaultSpec>,
    /// Endpoint speed in meters per round under
    /// [`CityLayout::RandomWaypoint`] (0 = stationary snapshot).
    /// Requires the random-waypoint layout when positive.
    pub velocity: f64,
    /// Mean pause in rounds between waypoint legs (each leg draws its
    /// pause uniformly from `[0, 2·pause]`).
    pub pause: f64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            cells_x: 8,
            rows: 4,
            layout: CityLayout::UrbanGrid,
            seed: 1,
            rounds: 32,
            offered: 0.1,
            flash: None,
            payload_bits: 256,
            noise_power: 1e-3,
            faults: None,
            velocity: 0.0,
            pause: 0.0,
        }
    }
}

impl Serialize for CityConfig {
    fn to_value(&self) -> serde::Value {
        let mut m = BTreeMap::new();
        m.insert("cells_x".to_string(), self.cells_x.to_value());
        m.insert("rows".to_string(), self.rows.to_value());
        m.insert("layout".to_string(), self.layout.to_value());
        m.insert("seed".to_string(), self.seed.to_value());
        m.insert("rounds".to_string(), self.rounds.to_value());
        m.insert("offered".to_string(), self.offered.to_value());
        if let Some(f) = &self.flash {
            m.insert("flash".to_string(), f.to_value());
        }
        m.insert("payload_bits".to_string(), self.payload_bits.to_value());
        m.insert("noise_power".to_string(), self.noise_power.to_value());
        if let Some(f) = &self.faults {
            m.insert("faults".to_string(), f.to_value());
        }
        m.insert("velocity".to_string(), self.velocity.to_value());
        m.insert("pause".to_string(), self.pause.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for CityConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(m) = v else {
            return Err(serde::Error::type_mismatch("CityConfig object", v));
        };
        fn field<T: Deserialize>(
            m: &BTreeMap<String, serde::Value>,
            key: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match m.get(key) {
                None | Some(serde::Value::Null) => Ok(default),
                Some(v) => T::from_value(v),
            }
        }
        // Retired keys: `flow_span: 1`, `contention: false` and any
        // `csma` are ignored; any other setting is an error, so a saved
        // multi-cell config never silently runs a different city.
        if field(m, "flow_span", 1usize)? != 1 {
            return Err(serde::Error::custom(
                "flow_span: multi-cell flows are retired; every city cell is its own crossing (flow_span 1)",
            ));
        }
        if field(m, "contention", false)? {
            return Err(serde::Error::custom(
                "contention: the inter-cell carrier-sense MAC is retired (contention false)",
            ));
        }
        let d = CityConfig::default();
        Ok(CityConfig {
            cells_x: field(m, "cells_x", d.cells_x)?,
            rows: field(m, "rows", d.rows)?,
            layout: field(m, "layout", d.layout)?,
            seed: field(m, "seed", d.seed)?,
            rounds: field(m, "rounds", d.rounds)?,
            offered: field(m, "offered", d.offered)?,
            flash: field(m, "flash", None)?,
            payload_bits: field(m, "payload_bits", d.payload_bits)?,
            noise_power: field(m, "noise_power", d.noise_power)?,
            faults: field(m, "faults", None)?,
            velocity: field(m, "velocity", d.velocity)?,
            pause: field(m, "pause", d.pause)?,
        })
    }
}

impl CityConfig {
    /// Number of relay cells.
    pub fn cells(&self) -> usize {
        self.cells_x * self.rows
    }

    /// Number of nodes (3 per cell).
    pub fn nodes(&self) -> usize {
        3 * self.cells()
    }

    /// Audibility radius implied by the §7.1 gate: the distance at
    /// which the path gain drops to 20 dB above the noise floor.
    pub fn gate_radius(&self) -> f64 {
        let amp = (100.0 * self.noise_power).sqrt().min(0.99);
        D0 * amp.powf(-2.0 / ALPHA)
    }

    /// Starts building a runnable [`CityRun`] for `scheme`: the slot
    /// plan is compiled through [`derive_plan`] and the executor is
    /// selected by a [`SchedulerSpec`] (deterministic by default).
    pub fn builder(scheme: Scheme) -> CityRunBuilder {
        CityRunBuilder {
            cfg: CityConfig::default(),
            scheme,
            sched: SchedulerSpec::default(),
        }
    }
}

/// Deterministic distance-derived amplitude gain:
/// `min(1, (d0/d)^(α/2))`, floored at 1 m so co-located nodes don't
/// blow up.
pub fn gain_at(distance: f64) -> f64 {
    (D0 / distance.max(1.0)).powf(ALPHA / 2.0).min(1.0)
}

/// Aggregated result of one city run. All metric state is O(1) in the
/// packet count.
#[derive(Debug, Clone)]
pub struct CityOutcome {
    /// Nodes simulated.
    pub nodes: usize,
    /// Relay cells.
    pub cells: usize,
    /// Rounds in the horizon.
    pub rounds: u64,
    /// Slots per service round: the slot plan's length, 2 under ANC
    /// and 4 under traditional.
    pub slots_per_round: u64,
    /// Packet pairs that arrived.
    pub offered: u64,
    /// Packets delivered (2 per fully successful exchange).
    pub delivered: u64,
    /// Packets lost to failed decodes.
    pub lost: u64,
    /// ACK latency in slots, arrival → exchange completion.
    pub latency: StatDigest,
    /// Per-delivered-packet BER.
    pub ber: StatDigest,
    /// Rounds in which at least one cell was served.
    pub rounds_serviced: u64,
    /// Work of the test-only dense advance oracle: one per cell per
    /// round polled. Production runs use the sparse advance, so this
    /// reads 0 on every [`CityRun::execute`] outcome.
    pub polls: u64,
    /// Slot-advance work: heap operations + active-cell touches.
    pub advance_ops: u64,
    /// FNV-1a over the (round, cell) service sequence.
    pub service_hash: u64,
}

impl CityOutcome {
    /// Fraction of offered packets delivered (2 packets per pair).
    pub fn delivery_rate(&self) -> f64 {
        if self.offered == 0 {
            return f64::NAN;
        }
        self.delivered as f64 / (2 * self.offered) as f64
    }

    /// Fingerprint over everything that must be invariant across
    /// serial/parallel execution and the dense advance oracle. Work
    /// counters are deliberately excluded — they are *supposed* to
    /// differ between advance strategies.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(self.nodes as u64);
        eat(self.rounds);
        eat(self.slots_per_round);
        eat(self.offered);
        eat(self.delivered);
        eat(self.lost);
        eat(self.latency.count());
        eat(self.latency.mean().to_bits());
        eat(self.latency.p99().to_bits());
        eat(self.ber.count());
        eat(self.ber.mean().to_bits());
        eat(self.rounds_serviced);
        eat(self.service_hash);
        h
    }
}

/// Node index of a cell's left endpoint.
fn node_a(cell: usize) -> usize {
    3 * cell
}
/// Node index of a cell's relay.
fn node_r(cell: usize) -> usize {
    3 * cell + 1
}
/// Node index of a cell's right endpoint.
fn node_b(cell: usize) -> usize {
    3 * cell + 2
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    (dx * dx + dy * dy).sqrt()
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Places every node. Coordinate-pure: position of node `n` depends
/// only on `(seed, layout, n)`.
fn place(cfg: &CityConfig) -> Vec<(f64, f64)> {
    let mut pos = vec![(0.0, 0.0); cfg.nodes()];
    for cell in 0..cfg.cells() {
        let cx = (cell % cfg.cells_x) as f64;
        let cy = (cell / cfg.cells_x) as f64;
        let anchor = (cx * CELL_SPAN, cy * ROW_PITCH);
        let slot_rng = |slot: u64| {
            DspRng::from_path(
                cfg.seed,
                &[CITY_STREAM_DOMAIN, KIND_PLACE, cell as u64, slot],
            )
        };
        match cfg.layout {
            CityLayout::UrbanGrid => {
                for (slot, node) in [node_a(cell), node_r(cell), node_b(cell)]
                    .into_iter()
                    .enumerate()
                {
                    let mut rng = slot_rng(slot as u64);
                    pos[node] = (
                        anchor.0 + slot as f64 * IN_CELL_PITCH + rng.uniform_range(-JITTER, JITTER),
                        anchor.1 + rng.uniform_range(-JITTER, JITTER),
                    );
                }
            }
            CityLayout::RandomWaypoint => {
                let mut rng = slot_rng(1);
                let r = (
                    anchor.0 + IN_CELL_PITCH + rng.uniform_range(-JITTER, JITTER),
                    anchor.1 + rng.uniform_range(-JITTER, JITTER),
                );
                pos[node_r(cell)] = r;
                // Endpoints at a random offset/bearing from the relay;
                // mostly-horizontal bearings keep most (not all)
                // cross-cell pairs below the gate.
                let endpoint = |slot: u64, sign: f64| {
                    let mut rng = slot_rng(slot);
                    let d = rng.uniform_range(12.0, 17.0);
                    let th = rng.uniform_range(-0.6, 0.6);
                    (r.0 + sign * d * th.cos(), r.1 + d * th.sin())
                };
                pos[node_a(cell)] = endpoint(0, -1.0);
                pos[node_b(cell)] = endpoint(2, 1.0);
            }
        }
    }
    pos
}

/// Arrival probability of a cell (centered at its relay) in `round`.
fn offered_at(cfg: &CityConfig, relay: (f64, f64), round: u64) -> f64 {
    let mut p = cfg.offered;
    if let Some(f) = &cfg.flash {
        if round >= f.from_round && round < f.until_round && dist(relay, f.center) <= f.radius {
            p = (p * f.factor).min(1.0);
        }
    }
    p
}

/// Per-cell sorted arrival rounds, generated by geometric gap
/// sampling: O(arrivals), not O(rounds), per cell. Draw `k` of cell
/// `c` is the pure stream `(seed, ARRIVAL, c, k)`, so the calendar is
/// one fixed object both advance modes consume identically.
fn calendars(cfg: &CityConfig, positions: &[(f64, f64)]) -> Vec<Vec<u32>> {
    (0..cfg.cells())
        .map(|cell| {
            let relay = positions[node_r(cell)];
            let mut arrivals = Vec::new();
            let mut t: u64 = 0;
            let mut k: u64 = 0;
            while t < cfg.rounds {
                let p = offered_at(cfg, relay, t);
                if p <= 0.0 {
                    // Rate is zero here; jump to the next round where
                    // it could change (flash boundary), or give up.
                    match cfg.flash {
                        Some(f)
                            if f.from_round > t && offered_at(cfg, relay, f.from_round) > 0.0 =>
                        {
                            t = f.from_round;
                            continue;
                        }
                        _ => break,
                    }
                }
                let u = DspRng::from_path(
                    cfg.seed,
                    &[CITY_STREAM_DOMAIN, KIND_ARRIVAL, cell as u64, k],
                )
                .uniform();
                k += 1;
                // Geometric gap ≥ 1 via inverse CDF, evaluated at the
                // rate in force when the gap starts (a documented
                // approximation across flash boundaries — still a pure
                // function of the calendar coordinates).
                let gap = if p >= 1.0 {
                    1
                } else {
                    let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
                    1 + floor_to_usize(g.min(cfg.rounds as f64)) as u64
                };
                t += gap;
                if t >= cfg.rounds {
                    break;
                }
                arrivals.push(u32::try_from(t).expect("rounds checked to fit u32"));
                t += 1;
            }
            arrivals
        })
        .collect()
}

/// One leg of a random-waypoint walk, in round time.
#[derive(Debug, Clone, Copy)]
struct Leg {
    from: (f64, f64),
    to: (f64, f64),
    /// Round at which the node leaves `from` (pause included).
    depart: u64,
    /// Round at which the node reaches `to`.
    arrive: u64,
}

/// Random-waypoint motion state for one mobile endpoint. Legs are
/// drawn from the coordinate-pure stream `(seed, WAYPOINT, node, k)`,
/// so a node's position at round `t` is a pure function of `(seed,
/// node, t)` — independent of execution order, advance mode, and
/// which rounds actually serviced the node's cell.
#[derive(Debug, Clone)]
struct Waypoint {
    node: u32,
    /// The relay the endpoint orbits (waypoints are drawn around it,
    /// from the same bearing/offset distribution as placement).
    home: (f64, f64),
    /// −1 for the `a` side, +1 for the `b` side (keeps endpoints on
    /// their own side of the relay).
    sign: f64,
    next_k: u64,
    leg: Leg,
}

impl Waypoint {
    /// Advances the walk so the current leg covers round `t`. Leg
    /// ends saturate at `u64::MAX`: a leg whose pause or travel time
    /// overflows the round clock never ends.
    fn advance(&mut self, cfg: &CityConfig, t: u64) {
        while t >= self.leg.arrive {
            let k = self.next_k;
            self.next_k += 1;
            let mut rng = DspRng::from_path(
                cfg.seed,
                &[CITY_STREAM_DOMAIN, KIND_WAYPOINT, u64::from(self.node), k],
            );
            let d = rng.uniform_range(12.0, 17.0);
            let th = rng.uniform_range(-0.6, 0.6);
            let to = (
                self.home.0 + self.sign * d * th.cos(),
                self.home.1 + d * th.sin(),
            );
            let pause = floor_to_usize(rng.uniform_range(0.0, 2.0 * cfg.pause)) as u64;
            let speed = cfg.velocity * rng.uniform_range(0.5, 1.0);
            let from = self.leg.to;
            let travel = floor_to_usize((dist(from, to) / speed).ceil()).max(1) as u64;
            let depart = self.leg.arrive.saturating_add(pause);
            self.leg = Leg {
                from,
                to,
                depart,
                arrive: depart.saturating_add(travel),
            };
        }
    }

    /// Position at round `t` (the current leg must cover `t`).
    fn pos(&self, t: u64) -> (f64, f64) {
        let l = &self.leg;
        if t <= l.depart {
            return l.from;
        }
        if t >= l.arrive {
            return l.to;
        }
        let f = (t - l.depart) as f64 / (l.arrive - l.depart) as f64;
        (
            l.from.0 + f * (l.to.0 - l.from.0),
            l.from.1 + f * (l.to.1 - l.from.1),
        )
    }
}

/// Builds the per-node mobility state: endpoints of every cell when
/// the layout is random-waypoint and `velocity > 0`, else empty (a
/// static city pays zero mobility overhead).
fn build_waypoints(cfg: &CityConfig, positions: &[(f64, f64)]) -> Vec<Option<Waypoint>> {
    if cfg.layout != CityLayout::RandomWaypoint || cfg.velocity <= 0.0 {
        return Vec::new();
    }
    let mut wp: Vec<Option<Waypoint>> = vec![None; cfg.nodes()];
    for cell in 0..cfg.cells() {
        let home = positions[node_r(cell)];
        for (node, sign) in [(node_a(cell), -1.0), (node_b(cell), 1.0)] {
            let p = positions[node];
            wp[node] = Some(Waypoint {
                node: u32::try_from(node).expect("node fits u32"),
                home,
                sign,
                next_k: 0,
                // A zero-length leg arriving at round 0: the first
                // `advance` draws leg 0 from the node's stream.
                leg: Leg {
                    from: p,
                    to: p,
                    depart: 0,
                    arrive: 0,
                },
            });
        }
    }
    wp
}

/// One clean hop of the traditional relay plan, in a cell's local
/// node indices (0 = `a`, 1 = `r`, 2 = `b`).
#[derive(Debug, Clone, Copy)]
struct HopStep {
    from: u8,
    to: u8,
    /// Whether this hop carries the forward (a→b) packet.
    forward: bool,
}

/// The per-cell exchange recipe, compiled once per run from the slot
/// plan [`derive_plan`] derives for the two crossing flows.
#[derive(Debug, Clone)]
enum CompiledExchange {
    /// 2 slots: superposed uplink, amplified broadcast downlink.
    Anc,
    /// 4 clean store-and-forward hops.
    Trad(Vec<HopStep>),
}

/// Compiles the crossing-flows slot plan for `scheme` and verifies it
/// has the shape this waveform layer can execute.
fn compile_exchange(scheme: Scheme) -> Result<(SlotPlan, CompiledExchange), CityError> {
    if scheme == Scheme::Cope {
        return Err(CityError::UnsupportedScheme(scheme));
    }
    // The §2 crossing: a→b and b→a through the shared relay, in a
    // cell's local node indices.
    let flows = [
        FlowSpec::along(vec![0, 1, 2]),
        FlowSpec::along(vec![2, 1, 0]),
    ];
    let plan = derive_plan(&flows, scheme)
        .map_err(|e| CityError::InvalidConfig(format!("cannot derive city slot plan: {e}")))?;
    let compiled = match scheme {
        Scheme::Anc => {
            let ok = matches!(
                plan.steps.as_slice(),
                [
                    SlotStep::Simultaneous { senders },
                    SlotStep::AmplifyBroadcast { router: 1 },
                ] if senders.as_slice() == [0, 2]
            );
            if !ok {
                return Err(CityError::InvalidConfig(format!(
                    "derived ANC plan has unexpected shape: {:?}",
                    plan.steps
                )));
            }
            CompiledExchange::Anc
        }
        Scheme::Traditional => {
            let mut hops = Vec::with_capacity(plan.steps.len());
            for step in &plan.steps {
                let SlotStep::Unicast { from, to } = step else {
                    return Err(CityError::InvalidConfig(format!(
                        "derived traditional plan has non-unicast step: {step:?}"
                    )));
                };
                hops.push(HopStep {
                    from: *from,
                    to: *to,
                    forward: matches!((*from, *to), (0, 1) | (1, 2)),
                });
            }
            CompiledExchange::Trad(hops)
        }
        Scheme::Cope => unreachable!("rejected above"),
    };
    Ok((plan, compiled))
}

/// One slot's transmitter: node index, in-slot sample offset, wave.
#[derive(Clone)]
struct SlotTx {
    node: u32,
    offset: usize,
    wave: Vec<Cplx>,
}

/// One cell's exchange in the current round: the forward (a→b) and
/// reverse (b→a) payloads.
#[derive(Clone)]
struct Exchange {
    cell: u32,
    pay_a: Vec<bool>,
    pay_b: Vec<bool>,
}

/// The endpoint-side decode context an ANC uplink stage hands to the
/// decode stage: each endpoint's own transmitted frame bits (the
/// known signal it cancels, §3.2) and who transmitted first.
#[derive(Clone)]
struct DecodeCtx {
    bits_a: Vec<bool>,
    bits_b: Vec<bool>,
    a_first: bool,
}

/// The shared state every street's stage job reads. Each job holds a
/// clone of the driver's `Arc<Board>` while a stage runs and drops it
/// before the stage returns; the controller changes the board only
/// between stages, so the board content at each job is a pure
/// function of the controller's sequential round loop — the
/// determinism contract.
#[derive(Clone)]
struct Board {
    positions: Vec<(f64, f64)>,
    /// Persistent all-node spatial index at the gate radius; mobility
    /// relocates entries in place instead of rebuilding.
    grid: SpatialGrid,
    /// This round's exchanges, ascending by cell.
    exch: Vec<Exchange>,
    /// Per-region slice of `exch` (regions are street rows; `exch`
    /// sorted by cell is sorted by region).
    seg: Vec<Range<usize>>,
    /// Per-exchange decode context (filled by the ANC uplink stage).
    dctx: Vec<DecodeCtx>,
    /// The slot's transmitters, ascending by node.
    txs: Vec<SlotTx>,
    /// Absolute slot index of `txs` (keys phase/noise streams).
    slot: u64,
    /// The service round (keys the stagger streams and frame
    /// sequence numbers).
    round: u64,
    /// Traditional only: per-exchange frame entering the current hop
    /// (`None` = lost upstream, nothing on air).
    hop_frames: Vec<Option<Frame>>,
    /// Traditional only: the current hop in local node indices.
    hop_from: u8,
    hop_to: u8,
}

impl Board {
    /// An empty board over the city's node positions, indexed at the
    /// gate radius, with one (empty) segment per region.
    fn new(positions: Vec<(f64, f64)>, gate: f64, regions: usize) -> Self {
        let grid = SpatialGrid::build(&positions, gate);
        Board {
            positions,
            grid,
            exch: Vec::new(),
            seg: vec![0..0; regions],
            dctx: Vec::new(),
            txs: Vec::new(),
            slot: 0,
            round: 0,
            hop_frames: Vec::new(),
            hop_from: 0,
            hop_to: 0,
        }
    }
}

/// Buffers [`CityPhy::window`] builds a window in. One set serves every
/// window of a stage job and is dropped with the job, so no street
/// keeps a window buffer resident between stages.
#[derive(Default)]
struct WindowBufs<'b> {
    cands: Vec<u32>,
    refs: Vec<TransmissionRef<'b>>,
    out: Vec<Cplx>,
}

/// The PHY shared by every round: frame layout, modulator, decoder,
/// and the pure per-stage computations each street's jobs run.
struct CityPhy<'a> {
    cfg: &'a CityConfig,
    gate: f64,
    frame_cfg: FrameConfig,
    tx: TxChain,
    rx: RxChain,
}

impl<'a> CityPhy<'a> {
    fn new(cfg: &'a CityConfig) -> Self {
        let frame_cfg = FrameConfig::default();
        let dec_cfg = DecoderConfig {
            frame: frame_cfg,
            detector: DetectorConfig {
                noise_floor: cfg.noise_power,
                ..DetectorConfig::default()
            },
            ..DecoderConfig::default()
        };
        CityPhy {
            cfg,
            gate: cfg.gate_radius(),
            frame_cfg,
            tx: TxChain::new(frame_cfg),
            rx: RxChain::new(dec_cfg),
        }
    }

    /// The two directional frames of cell `c` in round `t`, from
    /// caller-supplied payloads. Header identity wraps at
    /// `u8`; decode correctness rides on the payload streams.
    fn frame_pair(&self, cell: u32, t: u64, pay_a: Vec<bool>, pay_b: Vec<bool>) -> (Frame, Frame) {
        let id = |node: usize| u8::try_from(node % 251).expect("mod fits");
        let seq = u16::try_from(t % 65_536).expect("mod fits");
        let c = cell as usize;
        let fa = Frame::new(Header::new(id(node_a(c)), id(node_b(c)), seq, 0), pay_a);
        let fb = Frame::new(Header::new(id(node_b(c)), id(node_a(c)), seq, 0), pay_b);
        (fa, fb)
    }

    /// §7.2 staggered starts for cell `c` in round `t`:
    /// who goes first and by how many samples. The gap must clear the
    /// first frame's pilot + header (128 bits) so the §7.4 channel
    /// estimator gets a clean prefix to bootstrap on — and stay well
    /// under the frame length so the payloads still overlap (the
    /// whole point of the 2-slot exchange).
    fn stagger(&self, cell: u32, t: u64) -> (usize, usize, bool) {
        let mut rng = DspRng::from_path(
            self.cfg.seed,
            &[CITY_STREAM_DOMAIN, KIND_STAGGER, u64::from(cell), t],
        );
        let a_first = rng.bit();
        let gap = 192 + usize::try_from(rng.uniform_int(0, 96)).expect("small");
        if a_first {
            (0, gap, true)
        } else {
            (gap, 0, false)
        }
    }

    /// Superposed reception window at `recv` for one slot. `txs` must
    /// be sorted ascending by node index (they are: exchanges are
    /// cell-ascending and in-cell node indices ascend). The all-node
    /// grid pre-filters to the 3×3 neighborhood; the exact
    /// [`within_range`] test plus membership in `txs` (the
    /// binary-search hit) then admit precisely the above-gate
    /// transmitters, in ascending node order — the same set and order
    /// a dense scan over the transmitter subset would produce, so the
    /// superposition sum is bit-identical to the historical per-slot
    /// subset grid. The window is built in `bufs` and borrowed from it.
    fn window<'s, 'b>(
        &self,
        board: &'b Board,
        recv: u32,
        bufs: &'s mut WindowBufs<'b>,
    ) -> &'s [Cplx] {
        let (positions, txs, slot) = (&board.positions, &board.txs, board.slot);
        let rpos = positions[recv as usize];
        board.grid.candidates_into(rpos, &mut bufs.cands);
        bufs.refs.clear();
        let mut end = PAD;
        for &id in &bufs.cands {
            if id == recv || !within_range(positions[id as usize], rpos, self.gate) {
                continue;
            }
            // The grid spans all nodes, not just this slot's
            // transmitters: a miss means the candidate is silent.
            let Ok(k) = txs.binary_search_by_key(&id, |t| t.node) else {
                continue;
            };
            if txs[k].wave.is_empty() {
                continue; // upstream decode failed; nothing on air
            }
            let d = dist(positions[id as usize], rpos);
            let phase = DspRng::from_path(
                self.cfg.seed,
                &[
                    CITY_STREAM_DOMAIN,
                    KIND_PHASE,
                    u64::from(id),
                    u64::from(recv),
                    slot,
                ],
            )
            .phase();
            let start = PAD + txs[k].offset;
            bufs.refs.push(TransmissionRef {
                samples: &txs[k].wave,
                start,
                link: Link::new(gain_at(d), phase, 0.0),
            });
            end = end.max(start + txs[k].wave.len());
        }
        Medium::from_rng(
            self.cfg.noise_power,
            DspRng::from_path(
                self.cfg.seed,
                &[CITY_STREAM_DOMAIN, KIND_NOISE, u64::from(recv), slot],
            ),
        )
        .receive_refs_into(&bufs.refs, end + PAD, &mut bufs.out);
        &bufs.out
    }

    /// ANC uplink stage for one region's exchanges: frames, stagger,
    /// modulation. Returns each exchange's decode context plus its two
    /// endpoint transmitters (node-ascending within the exchange).
    fn anc_tx(&self, board: &Board, range: Range<usize>) -> Vec<(DecodeCtx, [SlotTx; 2])> {
        range
            .map(|i| {
                let x = &board.exch[i];
                let c = x.cell as usize;
                let (fa, fb) =
                    self.frame_pair(x.cell, board.round, x.pay_a.clone(), x.pay_b.clone());
                let (off_a, off_b, a_first) = self.stagger(x.cell, board.round);
                let ctx = DecodeCtx {
                    bits_a: fa.to_bits(&self.frame_cfg),
                    bits_b: fb.to_bits(&self.frame_cfg),
                    a_first,
                };
                let wave_a = self.tx.modulate_frame(&fa);
                let wave_b = self.tx.modulate_frame(&fb);
                (
                    ctx,
                    [
                        SlotTx {
                            node: u32::try_from(node_a(c)).expect("node fits u32"),
                            offset: off_a,
                            wave: wave_a,
                        },
                        SlotTx {
                            node: u32::try_from(node_b(c)).expect("node fits u32"),
                            offset: off_b,
                            wave: wave_b,
                        },
                    ],
                )
            })
            .collect()
    }

    /// ANC relay stage: each relay receives the uplink superposition
    /// and amplifies the detected region (§7.5) for the downlink. Only
    /// the region's bounds are read, so the relay locates it without
    /// classifying it.
    fn anc_relay(&self, board: &Board, range: Range<usize>) -> Vec<SlotTx> {
        let mut bufs = WindowBufs::default();
        range
            .map(|i| {
                let c = board.exch[i].cell as usize;
                let r = u32::try_from(node_r(c)).expect("node fits u32");
                let win = self.window(board, r, &mut bufs);
                let wave = match self.rx.decoder().locate(win) {
                    Some((start, end)) => {
                        AmplifyForward::new(1.0).amplify_window(win, start, end).0
                    }
                    None => Vec::new(),
                };
                SlotTx {
                    node: r,
                    offset: 0,
                    wave,
                }
            })
            .collect()
    }

    /// One endpoint's §3.2 decode: superpose the downlink window,
    /// cancel the known own signal, parse the remaining frame.
    fn decode_side<'b>(
        &self,
        board: &'b Board,
        recv: usize,
        own: &[bool],
        own_first: bool,
        chain: &mut RxChain,
        bufs: &mut WindowBufs<'b>,
    ) -> Option<Vec<bool>> {
        let recv = u32::try_from(recv).expect("node fits u32");
        let win = self.window(board, recv, bufs);
        chain
            .decode_known(win, None, own, own_first)
            .ok()
            .map(|(frame, _, _)| frame.payload)
    }

    /// ANC decode stage: both endpoint decodes per exchange,
    /// `[at a, at b]` (`None` = lost).
    fn anc_decode(
        &self,
        board: &Board,
        range: Range<usize>,
        chain: &mut RxChain,
    ) -> Vec<[Option<Vec<bool>>; 2]> {
        let mut out = Vec::with_capacity(range.len());
        let mut bufs = WindowBufs::default();
        for i in range {
            let x = &board.exch[i];
            let ctx = &board.dctx[i];
            let c = x.cell as usize;
            let ra = self.decode_side(board, node_a(c), &ctx.bits_a, ctx.a_first, chain, &mut bufs);
            let rb = self.decode_side(
                board,
                node_b(c),
                &ctx.bits_b,
                !ctx.a_first,
                chain,
                &mut bufs,
            );
            out.push([ra, rb]);
        }
        out
    }

    fn local_node(cell: usize, idx: u8) -> usize {
        match idx {
            0 => node_a(cell),
            1 => node_r(cell),
            _ => node_b(cell),
        }
    }

    /// Traditional hop TX stage: modulate each exchange's in-flight
    /// frame at the hop's sender (nothing on air if the previous hop
    /// lost it).
    fn trad_modulate(&self, board: &Board, range: Range<usize>) -> Vec<SlotTx> {
        range
            .map(|i| {
                let c = board.exch[i].cell as usize;
                let node = Self::local_node(c, board.hop_from);
                let wave = board.hop_frames[i]
                    .as_ref()
                    .map(|f| self.tx.modulate_frame(f))
                    .unwrap_or_default();
                SlotTx {
                    node: u32::try_from(node).expect("node fits u32"),
                    offset: 0,
                    wave,
                }
            })
            .collect()
    }

    /// Traditional hop RX stage: clean detect + parse at the hop's
    /// receiver (relay re-encoding — a failed parse forwards nothing).
    fn trad_decode(&self, board: &Board, range: Range<usize>) -> Vec<Option<Frame>> {
        let mut bufs = WindowBufs::default();
        range
            .map(|i| {
                let c = board.exch[i].cell as usize;
                let recv = u32::try_from(Self::local_node(c, board.hop_to)).expect("node fits u32");
                let win = self.window(board, recv, &mut bufs);
                self.rx.decode_clean(win).ok().map(|(frame, _)| frame)
            })
            .collect()
    }
}

/// Mutable state threaded through the advance loop.
struct RunState {
    arr_idx: Vec<u32>,
    served: Vec<u32>,
    latency: StatDigest,
    ber: StatDigest,
    delivered: u64,
    lost: u64,
    rounds_serviced: u64,
    polls: u64,
    advance_ops: u64,
    service_hash: u64,
}

impl RunState {
    fn new(cells: usize) -> Self {
        RunState {
            arr_idx: vec![0; cells],
            served: vec![0; cells],
            latency: StatDigest::default(),
            ber: StatDigest::default(),
            delivered: 0,
            lost: 0,
            rounds_serviced: 0,
            polls: 0,
            advance_ops: 0,
            service_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn eat(&mut self, w: u64) {
        self.service_hash ^= w;
        self.service_hash = self.service_hash.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Stage-level time split of one profiled city run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CityProfile {
    /// Time building what goes on the air: frame synthesis +
    /// modulation stages and the relay's uplink window assembly +
    /// amplify-forward.
    pub window_assembly_ns: u64,
    /// Time in the endpoint decode stages (including their own
    /// downlink window superposition).
    pub decode_ns: u64,
    /// Time advancing waypoints and relocating moved nodes in the
    /// spatial grid (zero for static cities).
    pub mobility_ns: u64,
}

impl CityProfile {
    /// Fraction of PHY time spent assembling transmissions rather
    /// than decoding (`NaN` when nothing was measured).
    pub fn window_share(&self) -> f64 {
        let total = self.window_assembly_ns + self.decode_ns;
        if total == 0 {
            return f64::NAN;
        }
        self.window_assembly_ns as f64 / total as f64
    }
}

/// The sequential brain of a city run. It owns the round loop (the
/// sparse advance), resolves all stateful decisions — faults,
/// mobility, queue cursors — in deterministic order, and runs each
/// exchange stage as one job per street.
struct CityDriver<'a, 'env> {
    cfg: &'a CityConfig,
    compiled: &'a CompiledExchange,
    /// Slots per service round (2 = ANC, 4 = traditional).
    spr: u64,
    /// Per-cell arrival calendars.
    cal: &'a [Vec<u32>],
    phy: &'env CityPhy<'env>,
    pool: &'a Pool<'a, 'env>,
    /// Shared with each stage's jobs; the controller changes it only
    /// between stages, when no job holds a clone.
    board: Arc<Board>,
    /// One receive chain per street (region), moved into its job for
    /// each stage and home again between stages.
    chains: Vec<Option<RxChain>>,
    waypoints: &'a mut [Option<Waypoint>],
    st: &'a mut RunState,
    profile: &'a mut CityProfile,
}

impl<'env> CityDriver<'_, 'env> {
    /// Reference advance and test oracle: every round touches every
    /// cell. [`Self::advance_sparse`] must reproduce it bit for bit.
    #[cfg(test)]
    fn advance_dense(&mut self) -> Result<(), CityError> {
        let n = self.cal.len();
        let mut active: Vec<u32> = Vec::new();
        for t in 0..self.cfg.rounds {
            active.clear();
            for c in 0..n {
                self.st.polls += 1;
                while (self.st.arr_idx[c] as usize) < self.cal[c].len()
                    && u64::from(self.cal[c][self.st.arr_idx[c] as usize]) == t
                {
                    self.st.arr_idx[c] += 1;
                }
                if self.st.served[c] < self.st.arr_idx[c] {
                    active.push(u32::try_from(c).expect("cell fits u32"));
                }
            }
            if !active.is_empty() {
                self.service_round(t, &active)?;
            }
        }
        Ok(())
    }

    /// Sparse advance: a min-heap of next arrivals plus the
    /// backlogged set. Idle rounds are skipped in O(1); each busy
    /// round costs O(arrivals landing + backlogged cells). Produces
    /// the identical service sequence to the poll-every-cell
    /// reference (the `advance_dense` test oracle) because both
    /// consume the same calendar and a round is served iff some cell
    /// is backlogged at it.
    fn advance_sparse(&mut self) -> Result<(), CityError> {
        let n = self.cal.len();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (c, arrivals) in self.cal.iter().enumerate() {
            if let Some(&first) = arrivals.first() {
                heap.push(Reverse((first, u32::try_from(c).expect("cell fits u32"))));
                self.st.advance_ops += 1;
            }
        }
        let mut is_active = vec![false; n];
        let mut active: Vec<u32> = Vec::new();
        let mut t: u64 = 0;
        loop {
            if active.is_empty() {
                // Nothing backlogged: jump straight to the next arrival.
                let Some(&Reverse((ta, _))) = heap.peek() else {
                    break;
                };
                t = t.max(u64::from(ta));
            }
            if t >= self.cfg.rounds {
                break;
            }
            while let Some(&Reverse((ta, c))) = heap.peek() {
                if u64::from(ta) > t {
                    break;
                }
                heap.pop();
                self.st.advance_ops += 1;
                let ci = c as usize;
                self.st.arr_idx[ci] += 1;
                if let Some(&next) = self.cal[ci].get(self.st.arr_idx[ci] as usize) {
                    heap.push(Reverse((next, c)));
                }
                if !is_active[ci] {
                    is_active[ci] = true;
                    active.push(c);
                }
            }
            active.sort_unstable();
            if !active.is_empty() {
                self.st.advance_ops += active.len() as u64;
                self.service_round(t, &active)?;
            }
            let (served, arr) = (&self.st.served, &self.st.arr_idx);
            active.retain(|&c| {
                let keep = served[c as usize] < arr[c as usize];
                if !keep {
                    is_active[c as usize] = false;
                }
                keep
            });
            t += 1;
        }
        Ok(())
    }

    /// Serves round `t` for the backlogged cells in `active`
    /// (ascending): one forward and one reverse packet per cell.
    /// Street-level fault windows stall their cells for the round —
    /// packets stay queued and retry, they are not lost.
    fn service_round(&mut self, t: u64, active: &[u32]) -> Result<(), CityError> {
        let cfg = self.cfg;
        let live: Vec<u32> = active
            .iter()
            .copied()
            .filter(|&c| match &cfg.faults {
                Some(f) => !f.region_down(cfg.seed, u64::from(c) / cfg.cells_x as u64, t),
                None => true,
            })
            .collect();
        if live.is_empty() {
            return Ok(());
        }
        self.mobility_update(t, &live);
        self.st.rounds_serviced += 1;
        self.st.eat(t);
        for &c in &live {
            self.st.eat(u64::from(c));
        }
        let exch: Vec<Exchange> = live
            .iter()
            .map(|&cell| {
                let draw = |dir: u64| {
                    DspRng::from_path(
                        cfg.seed,
                        &[CITY_STREAM_DOMAIN, KIND_PAYLOAD, u64::from(cell), t, dir],
                    )
                    .bits(cfg.payload_bits)
                };
                Exchange {
                    cell,
                    pay_a: draw(0),
                    pay_b: draw(1),
                }
            })
            .collect();
        let results = self.run_exchanges(t, exch)?;
        for (x, [ra, rb]) in self.board.exch.iter().zip(results) {
            let ci = x.cell as usize;
            let arrival = self.cal[ci]
                .get(self.st.served[ci] as usize)
                .copied()
                .map(u64::from)
                .ok_or(CityError::CalendarDesync {
                    cell: x.cell,
                    served: self.st.served[ci],
                })?;
            self.st.served[ci] += 1;
            // The reverse packet (delivered at `a`) is scored first,
            // then the forward one (delivered at `b`).
            for (got, truth) in [(ra, &x.pay_b), (rb, &x.pay_a)] {
                match got {
                    Some(bits) => {
                        self.st.delivered += 1;
                        self.st.latency.push(((t + 1 - arrival) * self.spr) as f64);
                        self.st.ber.push(ber(&bits, truth));
                    }
                    None => self.st.lost += 1,
                }
            }
        }
        Ok(())
    }

    /// Advances the waypoints of the serviced cells' endpoints to
    /// round `t` and relocates any node that moved — an O(1)
    /// incremental [`SpatialGrid::relocate`] per mover, never a
    /// rebuild. Lazy by design: an idle cell's endpoints don't pay
    /// anything (their analytic position catches up when next
    /// serviced, and non-transmitters are invisible to receivers
    /// anyway — the window admits only the slot's transmitter set).
    fn mobility_update(&mut self, t: u64, live: &[u32]) {
        if self.waypoints.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let b = Arc::make_mut(&mut self.board);
        for &cell in live {
            let c = cell as usize;
            for node in [node_a(c), node_b(c)] {
                let Some(wp) = self.waypoints[node].as_mut() else {
                    continue;
                };
                wp.advance(self.cfg, t);
                let new = wp.pos(t);
                let old = b.positions[node];
                if new != old {
                    b.positions[node] = new;
                    // Returns false on a same-bucket move (the
                    // common case) and panics if the node is
                    // missing — nothing to assert here.
                    b.grid
                        .relocate(u32::try_from(node).expect("node fits u32"), old, new);
                }
            }
        }
        self.profile.mobility_ns += elapsed_ns(t0);
    }

    /// Runs one stage as one job per street with exchanges on the
    /// board: `f` computes the stage over that street's slice of the
    /// exchanges, with the street's receive chain. The streets'
    /// results come back concatenated in street order.
    fn run_stage<R, F>(&mut self, name: &'static str, f: F) -> Result<Vec<R>, CityError>
    where
        R: Send + 'env,
        F: Fn(&CityPhy<'_>, &Board, Range<usize>, &mut RxChain) -> Vec<R> + Send + Sync + 'env,
    {
        let phy = self.phy;
        let items: Vec<_> = self
            .board
            .seg
            .iter()
            .enumerate()
            .filter(|(_, seg)| !seg.is_empty())
            .map(|(r, seg)| {
                let chain = self.chains[r].take().expect("street chain is home");
                (r, seg.clone(), chain, Arc::clone(&self.board))
            })
            .collect();
        let parts = self
            .pool
            .stage(name, items, move |(r, range, mut chain, board)| {
                let out = f(phy, &board, range, &mut chain);
                (r, out, chain)
            })?;
        let mut results = Vec::new();
        for (r, out, chain) in parts {
            self.chains[r] = Some(chain);
            results.extend(out);
        }
        Ok(results)
    }

    /// Runs round `t`'s exchanges `exch` (cell-ascending): install
    /// board state, run each stage as one job per involved street,
    /// fold stage results back in street order. The board changes only
    /// between stages, so every job reads a settled snapshot. Returns
    /// each exchange's `[at a, at b]` decoded payloads (`None` = lost).
    fn run_exchanges(
        &mut self,
        t: u64,
        exch: Vec<Exchange>,
    ) -> Result<Vec<[Option<Vec<bool>>; 2]>, CityError> {
        let n = exch.len();
        let mut seg = vec![0..0; self.chains.len()];
        {
            let cells_x = self.cfg.cells_x;
            let mut i = 0;
            while i < n {
                let r = (exch[i].cell as usize) / cells_x;
                let start = i;
                while i < n && (exch[i].cell as usize) / cells_x == r {
                    i += 1;
                }
                seg[r] = start..i;
            }
        }
        match self.compiled {
            CompiledExchange::Anc => {
                let t0 = Instant::now();
                let b = Arc::make_mut(&mut self.board);
                b.exch = exch;
                b.seg = seg;
                b.round = t;
                let tx = self.run_stage("city.anc_tx", |phy, b, r, _| phy.anc_tx(b, r))?;
                let mut dctx = Vec::with_capacity(n);
                let mut uplink = Vec::with_capacity(2 * n);
                for (ctx, [ta, tb]) in tx {
                    dctx.push(ctx);
                    uplink.push(ta);
                    uplink.push(tb);
                }
                let b = Arc::make_mut(&mut self.board);
                b.dctx = dctx;
                b.txs = uplink;
                b.slot = t * self.spr;
                let downlink =
                    self.run_stage("city.anc_relay", |phy, b, r, _| phy.anc_relay(b, r))?;
                self.profile.window_assembly_ns += elapsed_ns(t0);
                let b = Arc::make_mut(&mut self.board);
                b.txs = downlink;
                b.slot = t * self.spr + 1;
                let t1 = Instant::now();
                let results = self.run_stage("city.anc_decode", |phy, b, r, chain| {
                    phy.anc_decode(b, r, chain)
                })?;
                self.profile.decode_ns += elapsed_ns(t1);
                Ok(results)
            }
            CompiledExchange::Trad(hops) => {
                let mut fwd_fr: Vec<Option<Frame>> = Vec::with_capacity(n);
                let mut rev_fr: Vec<Option<Frame>> = Vec::with_capacity(n);
                for x in &exch {
                    let (fa, fb) = self
                        .phy
                        .frame_pair(x.cell, t, x.pay_a.clone(), x.pay_b.clone());
                    fwd_fr.push(Some(fa));
                    rev_fr.push(Some(fb));
                }
                let b = Arc::make_mut(&mut self.board);
                b.exch = exch;
                b.seg = seg;
                b.round = t;
                for (j, hop) in hops.iter().enumerate() {
                    let input = if hop.forward {
                        std::mem::take(&mut fwd_fr)
                    } else {
                        std::mem::take(&mut rev_fr)
                    };
                    let b = Arc::make_mut(&mut self.board);
                    b.hop_frames = input;
                    b.hop_from = hop.from;
                    b.hop_to = hop.to;
                    let t0 = Instant::now();
                    let txs = self
                        .run_stage("city.trad_modulate", |phy, b, r, _| phy.trad_modulate(b, r))?;
                    self.profile.window_assembly_ns += elapsed_ns(t0);
                    let b = Arc::make_mut(&mut self.board);
                    b.txs = txs;
                    b.slot = t * self.spr + j as u64;
                    let t1 = Instant::now();
                    let decoded =
                        self.run_stage("city.trad_decode", |phy, b, r, _| phy.trad_decode(b, r))?;
                    self.profile.decode_ns += elapsed_ns(t1);
                    if hop.forward {
                        fwd_fr = decoded;
                    } else {
                        rev_fr = decoded;
                    }
                }
                Ok(rev_fr
                    .into_iter()
                    .zip(fwd_fr)
                    .map(|(ra, rb)| [ra.map(|f| f.payload), rb.map(|f| f.payload)])
                    .collect())
            }
        }
    }
}

/// Builds a [`CityRun`]: config + scheme + executor, validated
/// together. Created by [`CityConfig::builder`].
#[derive(Debug, Clone)]
pub struct CityRunBuilder {
    cfg: CityConfig,
    scheme: Scheme,
    sched: SchedulerSpec,
}

impl CityRunBuilder {
    /// Replaces the default config.
    pub fn config(mut self, cfg: CityConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the executor (deterministic by default). The
    /// work-stealing executor is bit-identical to the deterministic
    /// one — every stage job is a pure function of its street's slice
    /// of the board.
    pub fn scheduler(mut self, sched: SchedulerSpec) -> Self {
        self.sched = sched;
        self
    }

    /// Validates the config, compiles the exchange plan through
    /// [`derive_plan`], and returns a runnable [`CityRun`].
    pub fn build(self) -> Result<CityRun, CityError> {
        let (plan, compiled) = compile_exchange(self.scheme)?;
        let cfg = &self.cfg;
        if cfg.cells_x == 0 || cfg.rows == 0 {
            return Err(CityError::InvalidConfig("city needs cells".into()));
        }
        let nodes = cfg
            .cells_x
            .checked_mul(cfg.rows)
            .and_then(|c| c.checked_mul(3));
        if !nodes.is_some_and(|n| u32::try_from(n).is_ok()) {
            return Err(CityError::InvalidConfig(format!(
                "{} x {} cells of 3 nodes exceed u32 node indices",
                cfg.cells_x, cfg.rows
            )));
        }
        if u32::try_from(cfg.rounds).is_err() {
            return Err(CityError::InvalidConfig(
                "rounds must fit u32 (calendar entries)".into(),
            ));
        }
        if !cfg.offered.is_finite() || !(0.0..=1.0).contains(&cfg.offered) {
            return Err(CityError::InvalidConfig(format!(
                "offered load must be a probability, got {}",
                cfg.offered
            )));
        }
        if cfg.payload_bits == 0 {
            return Err(CityError::InvalidConfig(
                "empty payloads carry nothing".into(),
            ));
        }
        if cfg.payload_bits > usize::from(u16::MAX) {
            return Err(CityError::InvalidConfig(format!(
                "payload_bits {} exceeds the header's 16-bit length field",
                cfg.payload_bits
            )));
        }
        if !cfg.noise_power.is_finite() || cfg.noise_power <= 0.0 {
            return Err(CityError::InvalidConfig(format!(
                "noise_power must be finite and positive, got {}",
                cfg.noise_power
            )));
        }
        if !cfg.velocity.is_finite() || cfg.velocity < 0.0 {
            return Err(CityError::InvalidConfig(format!(
                "velocity must be finite and non-negative, got {}",
                cfg.velocity
            )));
        }
        if !cfg.pause.is_finite() || cfg.pause < 0.0 {
            return Err(CityError::InvalidConfig(format!(
                "pause must be finite and non-negative, got {}",
                cfg.pause
            )));
        }
        if cfg.velocity > 0.0 && cfg.layout != CityLayout::RandomWaypoint {
            return Err(CityError::InvalidConfig(
                "velocity > 0 requires the random-waypoint layout".into(),
            ));
        }
        if let Some(faults) = &cfg.faults {
            faults.check().map_err(CityError::InvalidConfig)?;
        }
        let spr = u64::try_from(plan.slots()).expect("plan slots fit u64");
        Ok(CityRun {
            cfg: self.cfg,
            sched: self.sched,
            compiled,
            spr,
        })
    }
}

/// A validated, compiled, schedulable city run. Reusable: `execute`
/// takes `&self`, so one `CityRun` can back repeated trials.
#[derive(Debug)]
pub struct CityRun {
    cfg: CityConfig,
    sched: SchedulerSpec,
    compiled: CompiledExchange,
    spr: u64,
}

impl CityRun {
    /// Runs the city and returns its outcome.
    pub fn execute(&self) -> Result<CityOutcome, CityError> {
        self.execute_profiled().map(|(out, _)| out)
    }

    /// Runs the city and additionally returns the stage-level time
    /// split (window assembly vs decode vs mobility).
    pub fn execute_profiled(&self) -> Result<(CityOutcome, CityProfile), CityError> {
        self.run_with(|drv| drv.advance_sparse())
    }

    /// Runs the city with `advance` driving the round loop (the sparse
    /// advance in production, the dense oracle in the unit tests).
    fn run_with(
        &self,
        advance: impl FnOnce(&mut CityDriver<'_, '_>) -> Result<(), CityError>,
    ) -> Result<(CityOutcome, CityProfile), CityError> {
        let cfg = &self.cfg;
        let positions = place(cfg);
        let cal = calendars(cfg, &positions);
        let mut waypoints = build_waypoints(cfg, &positions);
        let phy = CityPhy::new(cfg);
        let mut st = RunState::new(cfg.cells());
        let mut profile = CityProfile::default();
        self.sched.with_pool(|pool| {
            advance(&mut CityDriver {
                cfg,
                compiled: &self.compiled,
                spr: self.spr,
                cal: &cal,
                phy: &phy,
                pool,
                board: Arc::new(Board::new(positions, phy.gate, cfg.rows)),
                chains: (0..cfg.rows).map(|_| Some(phy.rx.clone())).collect(),
                waypoints: &mut waypoints,
                st: &mut st,
                profile: &mut profile,
            })
        })?;
        Ok((
            CityOutcome {
                nodes: cfg.nodes(),
                cells: cfg.cells(),
                rounds: cfg.rounds,
                slots_per_round: self.spr,
                offered: cal.iter().map(|c| c.len() as u64).sum(),
                delivered: st.delivered,
                lost: st.lost,
                latency: st.latency,
                ber: st.ber,
                rounds_serviced: st.rounds_serviced,
                polls: st.polls,
                advance_ops: st.advance_ops,
                service_hash: st.service_hash,
            },
            profile,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> CityConfig {
        CityConfig {
            cells_x: 4,
            rows: 2,
            seed,
            rounds: 12,
            offered: 0.3,
            payload_bits: 128,
            ..CityConfig::default()
        }
    }

    fn run(cfg: &CityConfig, scheme: Scheme) -> CityOutcome {
        CityConfig::builder(scheme)
            .config(cfg.clone())
            .build()
            .expect("valid config")
            .execute()
            .expect("city run")
    }

    /// The same run on the dense advance oracle.
    fn run_dense(cfg: &CityConfig, scheme: Scheme) -> CityOutcome {
        let run = CityConfig::builder(scheme)
            .config(cfg.clone())
            .build()
            .expect("valid config");
        run.run_with(|drv| drv.advance_dense()).expect("city run").0
    }

    #[test]
    fn urban_anc_delivers_with_low_ber() {
        let out = run(&small(3), Scheme::Anc);
        assert!(out.offered > 0, "0.3 offered over 96 cell-rounds");
        assert!(out.delivered > 0, "urban grid should decode");
        assert_eq!(out.latency.count(), out.delivered);
        assert_eq!(out.delivered + out.lost, 2 * out.offered);
        assert!(
            out.delivery_rate() > 0.8,
            "in-gate cells decode reliably, got {}",
            out.delivery_rate()
        );
        assert!(
            out.ber.mean() < 0.05,
            "delivered BER should be near-clean, got {}",
            out.ber.mean()
        );
        // ANC latency is counted in 2-slot rounds, ≥ 2 slots each.
        assert!(out.latency.p99() >= 2.0);
    }

    #[test]
    fn sparse_advance_matches_dense_with_less_work() {
        let light = |base: CityConfig| CityConfig {
            rounds: 40,
            offered: 0.05,
            ..base
        };
        let mut mobile = light(small(7));
        mobile.layout = CityLayout::RandomWaypoint;
        mobile.velocity = 1.5;
        mobile.pause = 1.0;
        // (config, scheme, whether sparse must do less work than dense)
        for (cfg, scheme, lighter) in [
            (light(small(7)), Scheme::Anc, true),
            (light(small(7)), Scheme::Traditional, true),
            // Mobility on: waypoint motion and incremental grid
            // relocation must not depend on which rounds are skipped.
            (mobile, Scheme::Anc, true),
            // Saturation: every cell backlogged every other round, so
            // the sparse advance need not be cheaper — only identical.
            (
                CityConfig {
                    offered: 1.0,
                    ..small(17)
                },
                Scheme::Anc,
                false,
            ),
        ] {
            let dense = run_dense(&cfg, scheme);
            let sparse = run(&cfg, scheme);
            assert!(dense.offered > 0, "{scheme:?}: the calendar drew arrivals");
            assert_eq!(
                dense.fingerprint(),
                sparse.fingerprint(),
                "{scheme:?}/{:?}/offered {}: advance strategy changed the physics",
                cfg.layout,
                cfg.offered
            );
            // Each cell serves its packet pair in its arrival round:
            // every offered packet is delivered or lost by the horizon.
            assert_eq!(sparse.delivered + sparse.lost, 2 * sparse.offered);
            assert_eq!(sparse.polls, 0, "production runs never poll densely");
            if lighter {
                assert!(
                    sparse.advance_ops < dense.polls,
                    "{scheme:?}: sparse should do less bookkeeping ({} vs {})",
                    sparse.advance_ops,
                    dense.polls
                );
            }
        }
    }

    #[test]
    fn work_stealing_matches_deterministic() {
        for layout in [CityLayout::UrbanGrid, CityLayout::RandomWaypoint] {
            let mut cfg = small(11);
            cfg.layout = layout;
            let serial = CityConfig::builder(Scheme::Anc)
                .config(cfg.clone())
                .scheduler(SchedulerSpec::deterministic())
                .build()
                .expect("valid config")
                .execute()
                .expect("city run");
            let parallel = CityConfig::builder(Scheme::Anc)
                .config(cfg)
                .scheduler(SchedulerSpec::work_stealing(4))
                .build()
                .expect("valid config")
                .execute()
                .expect("city run");
            assert_eq!(
                serial.fingerprint(),
                parallel.fingerprint(),
                "{layout:?}: executor changed the physics"
            );
        }
    }

    #[test]
    fn traditional_pays_double_latency() {
        let cfg = small(5);
        let anc = run(&cfg, Scheme::Anc);
        let trad = run(&cfg, Scheme::Traditional);
        assert!(anc.delivered > 0 && trad.delivered > 0);
        // Same arrival calendar, but every round costs 4 slots instead
        // of 2 — the §2 exchange count made concrete.
        assert!(
            trad.latency.mean() > 1.5 * anc.latency.mean(),
            "trad {} vs anc {}",
            trad.latency.mean(),
            anc.latency.mean()
        );
    }

    #[test]
    fn flash_crowd_adds_load_and_faults_stall_service() {
        let mut cfg = small(9);
        let base = run(&cfg, Scheme::Anc);
        cfg.flash = Some(FlashCrowd {
            center: (0.0, 0.0),
            radius: 200.0,
            factor: 3.0,
            from_round: 2,
            until_round: 10,
        });
        let flash = run(&cfg, Scheme::Anc);
        assert!(
            flash.offered > base.offered,
            "flash crowd should add arrivals ({} vs {})",
            flash.offered,
            base.offered
        );
        // A total outage stalls every street: nothing served, nothing
        // lost, queues simply never drain.
        cfg.faults = Some(FaultSpec::none().with_crashes(1.0, 4));
        let stalled = run(&cfg, Scheme::Anc);
        assert_eq!(stalled.delivered, 0);
        assert_eq!(stalled.lost, 0);
        assert!(stalled.offered > 0);
        // And fault windows are pure coordinates: both advance modes
        // still agree under partial outages.
        cfg.faults = Some(FaultSpec::none().with_crashes(0.3, 2));
        let d = run_dense(&cfg, Scheme::Anc);
        let s = run(&cfg, Scheme::Anc);
        assert_eq!(d.fingerprint(), s.fingerprint());
    }

    #[test]
    fn zero_offered_city_is_all_bookkeeping() {
        let mut cfg = small(1);
        cfg.offered = 0.0;
        cfg.rounds = 1000;
        let dense = run_dense(&cfg, Scheme::Anc);
        let sparse = run(&cfg, Scheme::Anc);
        assert_eq!(dense.offered, 0);
        assert_eq!(dense.fingerprint(), sparse.fingerprint());
        assert_eq!(dense.polls, 8 * 1000);
        assert_eq!(sparse.advance_ops, 0, "an idle city costs nothing");
    }

    #[test]
    fn builder_rejects_bad_configs_with_typed_errors() {
        let build = |cfg: &CityConfig, scheme| {
            CityConfig::builder(scheme)
                .config(cfg.clone())
                .build()
                .map(|_| ())
        };
        assert_eq!(
            build(&small(1), Scheme::Cope).unwrap_err(),
            CityError::UnsupportedScheme(Scheme::Cope)
        );
        let mut cfg = small(1);
        cfg.cells_x = 0;
        assert!(matches!(
            build(&cfg, Scheme::Anc),
            Err(CityError::InvalidConfig(_))
        ));
        let mut cfg = small(1);
        cfg.offered = 1.5;
        assert!(matches!(
            build(&cfg, Scheme::Anc),
            Err(CityError::InvalidConfig(_))
        ));
        let mut cfg = small(1);
        cfg.payload_bits = 0;
        let err = build(&cfg, Scheme::Anc).unwrap_err();
        assert!(err.to_string().contains("payload"));
        cfg.payload_bits = usize::from(u16::MAX);
        assert!(build(&cfg, Scheme::Anc).is_ok());
        cfg.payload_bits += 1;
        assert!(matches!(
            build(&cfg, Scheme::Anc),
            Err(CityError::InvalidConfig(s)) if s.contains("payload_bits")
        ));
        for noise in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let mut cfg = small(1);
            cfg.noise_power = noise;
            let err = build(&cfg, Scheme::Anc).unwrap_err();
            assert!(
                matches!(&err, CityError::InvalidConfig(s) if s.contains("noise_power")),
                "noise {noise}: {err}"
            );
        }
        // `region_down` divides by the crash burst window even at rate
        // 0, so a zero window is a build error whatever the rate; so
        // are the engine's crash cases, checked by the same spec check.
        let rejected = |edit: fn(&mut FaultSpec), field: &str| {
            let mut faults = FaultSpec::none();
            edit(&mut faults);
            let mut cfg = small(1);
            cfg.faults = Some(faults);
            let err = build(&cfg, Scheme::Anc).unwrap_err();
            assert!(
                matches!(&err, CityError::InvalidConfig(s) if s.contains(field)),
                "{field}: {err}"
            );
        };
        rejected(|f| f.crash_burst_periods = 0, "crash_burst_periods");
        rejected(
            |f| {
                f.jammer_rate = 0.3;
                f.jammer_burst_periods = 0;
            },
            "jammer_burst_periods",
        );
        rejected(
            |f| {
                f.crash_rate = 0.3;
                f.health.alpha = 0.0;
            },
            "alpha",
        );
        let mut cfg = small(1);
        cfg.velocity = 1.0; // mobility on the static grid layout
        assert!(build(&cfg, Scheme::Anc)
            .unwrap_err()
            .to_string()
            .contains("random-waypoint"));
        let mut cfg = small(1);
        cfg.velocity = -1.0;
        cfg.layout = CityLayout::RandomWaypoint;
        assert!(build(&cfg, Scheme::Anc)
            .unwrap_err()
            .to_string()
            .contains("velocity"));
    }

    #[test]
    fn builder_rejects_cities_past_u32_node_indices() {
        let build = |cells_x, rows| {
            CityConfig::builder(Scheme::Anc)
                .config(CityConfig {
                    cells_x,
                    rows,
                    ..CityConfig::default()
                })
                .build()
                .map(|_| ())
        };
        // 3 · 1,431,655,765 = u32::MAX nodes: the largest city whose
        // node indices fit u32 (built only, never executed).
        let max_cells = usize::try_from(u32::MAX / 3).unwrap();
        assert!(build(max_cells, 1).is_ok());
        for (cells_x, rows) in [(max_cells + 1, 1), (usize::MAX / 2, 3), (usize::MAX, 2)] {
            assert!(
                matches!(
                    build(cells_x, rows),
                    Err(CityError::InvalidConfig(s)) if s.contains("u32 node indices")
                ),
                "{cells_x} x {rows}"
            );
        }
    }

    #[test]
    fn a_panicking_stage_job_is_a_typed_city_error() {
        for sched in [
            SchedulerSpec::deterministic(),
            SchedulerSpec::work_stealing(2),
        ] {
            let run = CityConfig::builder(Scheme::Anc)
                .config(small(1))
                .scheduler(sched)
                .build()
                .expect("valid config");
            let err = run
                .run_with(|drv| {
                    // Exchanges on both streets: the stage has two jobs.
                    Arc::make_mut(&mut drv.board).seg = vec![0..1, 1..2];
                    drv.run_stage("city.probe", |_, _, range, _| -> Vec<()> {
                        assert!(range.start != 0, "street job fails on purpose");
                        Vec::new()
                    })
                    .map(|_| ())
                })
                .unwrap_err();
            assert_eq!(
                err,
                CityError::StageFailed {
                    stage: "city.probe"
                }
            );
        }
    }

    #[test]
    fn gate_radius_matches_paper_operating_point() {
        let cfg = CityConfig::default();
        // 20 dB above a 1e-3 floor → amplitude 0.316 → ≈ 21.5 m under
        // the (d0/d)^{α/2} model.
        let r = cfg.gate_radius();
        assert!((21.0..22.0).contains(&r), "gate radius {r}");
        assert!(gain_at(r) > 0.31 && gain_at(r) < 0.33);
        assert!(
            gain_at(IN_CELL_PITCH) > 0.5,
            "in-cell links well above gate"
        );
        assert!(
            gain_at(2.0 * IN_CELL_PITCH) < 0.31,
            "cross-cell links below gate"
        );
    }

    #[test]
    fn mobility_is_deterministic_and_changes_the_physics() {
        let mut cfg = small(19);
        cfg.layout = CityLayout::RandomWaypoint;
        let frozen = run(&cfg, Scheme::Anc);
        cfg.velocity = 1.5;
        cfg.pause = 2.0;
        let moving = run(&cfg, Scheme::Anc);
        let again = run(&cfg, Scheme::Anc);
        assert_eq!(
            moving.fingerprint(),
            again.fingerprint(),
            "waypoint draws are coordinate-pure"
        );
        assert_ne!(
            moving.fingerprint(),
            frozen.fingerprint(),
            "endpoints that move must change the decode record"
        );
        assert!(moving.delivered > 0, "short waypoint legs stay in-gate");
    }

    #[test]
    fn mobility_profile_is_attributed() {
        let mut cfg = small(19);
        cfg.layout = CityLayout::RandomWaypoint;
        cfg.velocity = 1.5;
        let (out, profile) = CityConfig::builder(Scheme::Anc)
            .config(cfg.clone())
            .build()
            .expect("valid config")
            .execute_profiled()
            .expect("city run");
        assert!(out.delivered > 0);
        assert!(profile.mobility_ns > 0, "movers must be metered");
        assert!(profile.window_assembly_ns > 0 && profile.decode_ns > 0);
        let share = profile.window_share();
        assert!((0.0..=1.0).contains(&share), "share {share}");
        cfg.velocity = 0.0;
        let (_, still) = CityConfig::builder(Scheme::Anc)
            .config(cfg)
            .build()
            .expect("valid config")
            .execute_profiled()
            .expect("city run");
        assert_eq!(still.mobility_ns, 0, "static cities never pay mobility");
    }

    #[test]
    fn config_json_survives_roundtrip_and_pre_mobility_files_load() {
        let mut cfg = small(23);
        cfg.layout = CityLayout::RandomWaypoint;
        cfg.velocity = 2.5;
        cfg.pause = 1.0;
        cfg.flash = Some(FlashCrowd {
            center: (10.0, 20.0),
            radius: 150.0,
            factor: 2.0,
            from_round: 1,
            until_round: 8,
        });
        cfg.faults = Some(FaultSpec::none().with_crashes(0.3, 2));
        let back = CityConfig::from_value(&cfg.to_value()).expect("roundtrip");
        assert_eq!(back.to_value(), cfg.to_value());
        let serde::Value::Object(keys) = cfg.to_value() else {
            panic!("CityConfig serializes to an object");
        };
        for retired in ["sparse", "flow_span", "contention", "csma"] {
            assert!(
                !keys.contains_key(retired),
                "the retired {retired} stays gone"
            );
        }
        // A pre-mobility config file: no velocity/pause keys, plus the
        // retired `threads` and `sparse` knobs.
        let mut m = BTreeMap::new();
        m.insert("cells_x".to_string(), 4usize.to_value());
        m.insert("rows".to_string(), 2usize.to_value());
        m.insert(
            "layout".to_string(),
            "random_waypoint".to_string().to_value(),
        );
        m.insert("seed".to_string(), 3u64.to_value());
        m.insert("rounds".to_string(), 12u64.to_value());
        m.insert("offered".to_string(), 0.3f64.to_value());
        m.insert("payload_bits".to_string(), 128usize.to_value());
        m.insert("noise_power".to_string(), 1e-3f64.to_value());
        m.insert("threads".to_string(), 4usize.to_value());
        let native = run(&small(3), Scheme::Anc);
        // Files written with either setting of the retired `sparse`
        // knob load and run the one production advance.
        for sparse in [true, false] {
            let mut m = m.clone();
            m.insert("sparse".to_string(), sparse.to_value());
            let old = CityConfig::from_value(&serde::Value::Object(m)).expect("pre-mobility load");
            assert_eq!(old.cells_x, 4);
            assert_eq!(old.layout, CityLayout::RandomWaypoint);
            assert_eq!(old.velocity, 0.0, "absent mobility defaults off");
            // The loaded config runs and matches the natively-built one.
            let mut loaded_cfg = old;
            loaded_cfg.layout = CityLayout::UrbanGrid;
            let loaded = run(&loaded_cfg, Scheme::Anc);
            assert_eq!(
                native.fingerprint(),
                loaded.fingerprint(),
                "sparse={sparse}"
            );
        }
        // Files written while multi-cell flows and the inter-cell MAC
        // existed carry their keys; at the old defaults they load to
        // the same config and run the same city.
        let mut m = small(3).to_value();
        let serde::Value::Object(keys) = &mut m else {
            unreachable!("checked above");
        };
        keys.insert("flow_span".to_string(), 1usize.to_value());
        keys.insert("contention".to_string(), false.to_value());
        let mut csma = BTreeMap::new();
        csma.insert("sense_factor".to_string(), 1.0f64.to_value());
        keys.insert("csma".to_string(), serde::Value::Object(csma));
        let old = CityConfig::from_value(&m).expect("old defaults load");
        assert_eq!(old.to_value(), small(3).to_value());
        assert_eq!(run(&old, Scheme::Anc).fingerprint(), native.fingerprint());
        // Asking for a multi-cell flow or the MAC is an error naming
        // the key, never a silently different city.
        for (key, value) in [
            ("flow_span", 2usize.to_value()),
            ("flow_span", 0usize.to_value()),
            ("contention", true.to_value()),
        ] {
            let mut bad = m.clone();
            if let serde::Value::Object(keys) = &mut bad {
                keys.insert(key.to_string(), value);
            }
            let err = CityConfig::from_value(&bad).unwrap_err();
            assert!(err.to_string().contains(&format!("{key}:")), "{err}");
        }
    }

    #[test]
    fn waypoint_legs_past_the_round_clock_never_end() {
        // A leg whose pause or travel time overflows `u64` rounds
        // saturates instead of wrapping (or panicking in debug).
        for (velocity, pause) in [(1.0, 1e300), (1e-300, 1.0)] {
            let cfg = CityConfig {
                cells_x: 2,
                rows: 1,
                layout: CityLayout::RandomWaypoint,
                velocity,
                pause,
                ..small(29)
            };
            for sched in [
                SchedulerSpec::deterministic(),
                SchedulerSpec::work_stealing(2),
            ] {
                let out = CityConfig::builder(Scheme::Anc)
                    .config(cfg.clone())
                    .scheduler(sched)
                    .build()
                    .expect("valid config")
                    .execute()
                    .expect("city run");
                assert!(out.offered > 0, "velocity {velocity}, pause {pause}");
                assert_eq!(out.delivered + out.lost, 2 * out.offered);
            }
        }
    }
}
