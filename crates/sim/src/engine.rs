//! The event-driven simulation engine.
//!
//! One [`Engine`] owns everything the old hand-scheduled runs kept in
//! closures: the realized [`Topology`] (an arbitrary directed link
//! matrix), the [`Node`]s it drives through their poll interface, the
//! per-node radio front ends and noise sources, the global sample
//! clock, and an **event queue of scheduled transmissions**. Scenarios
//! are compiled (by [`crate::scenario`]) into a [`Program`] — a
//! repeating sequence of [`SlotSpec`]s whose transmit intents push
//! [`ScheduledTx`] events into the queue and whose receive intents
//! drain per-receiver superposition windows out of it — so adding a
//! topology means *describing* it, not re-writing the TX/medium/RX
//! choreography.
//!
//! # Determinism contract
//!
//! The engine is bit-reproducible and pinned by golden tests: for the
//! three paper topologies it consumes every RNG stream (channel draws,
//! oscillator offsets, carrier phases, MAC delays, payloads, per-node
//! noise) in exactly the order the hand-coded runs did, so seeded
//! [`RunMetrics`] are unchanged to the last bit. The load-bearing
//! rules:
//!
//! * per-stream draw order is part of the contract — transmissions
//!   fire in slot-listed order (carrier phases + payloads), receivers
//!   fork their own noise stream once per reception window, and a
//!   gated/skipped window forks nothing;
//! * superposition sums transmissions in fired order (float addition
//!   order matters);
//! * every receiver's window spans the whole slot (`pad + span + pad`),
//!   including transmissions it cannot hear — slots are globally
//!   clocked;
//! * Monte Carlo impairment draws live **outside** these streams: each
//!   per-exchange link/TX realization is a pure function of
//!   `(seed, link-or-node, exchange)` via [`DspRng::from_path`], so
//!   enabling impairments consumes nothing from the streams above (a
//!   program with `impairments: None` is bit-identical to the
//!   pre-impairment engine, which the golden tests pin) and trial
//!   order can never change a draw.

#![deny(clippy::cast_possible_truncation)]

use crate::faults::FaultSpec;
use crate::metrics::{FlowMetrics, OutageRecord, RunMetrics};
use crate::pipeline::{NodePark, RunCtx, RxJob, SchedulerSpec};
use crate::pool::{Pool, StageFailed};
use crate::runs::RunConfig;
use crate::topology::{Topology, TopologyGraph};
use anc_channel::{ImpairmentSpec, Link, NodeMask};
use anc_dsp::cast::round_to_i64;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, Header, NodeId, PacketKey};
use anc_modem::ber::ber;
use anc_netcode::{
    ArqConfig, ArqVerdict, CopeCoder, DynamicScheduler, FlowSpec, HealthMonitor, HealthTransition,
    Scheme,
};
use anc_node::phy::RxEvent;
use anc_node::{Node, NodeConfig, NodeRole, SynthJob, SynthSource};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A structural invariant the engine found violated at runtime —
/// surfaced as a recoverable error instead of a panic so fault-induced
/// edge states (crashed nodes, purged queues, missing captures) can be
/// reported by [`Engine::try_run_ctx`] rather than aborting a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Closed-loop state was required but the engine is open-loop.
    ClosedLoopMissing,
    /// A closed-loop program carries no ARQ configuration.
    ArqMissing,
    /// A referenced node is not in the realized topology.
    NodeMissing(NodeId),
    /// A receiver has no noise source assigned.
    NoiseMissing(NodeId),
    /// A slot fired transmissions but the event queue came up empty.
    EmptyEventQueue,
    /// A flow's frame queue was empty where a head packet was required.
    EmptyQueue {
        /// The flow whose queue was unexpectedly empty.
        flow: FlowId,
    },
    /// A delivered packet key has no matching queued frame.
    DeliveredNotQueued {
        /// The flow whose delivery could not be matched.
        flow: FlowId,
    },
    /// A relay expectation referenced a sender that put no frame on
    /// the air this slot.
    SlotFrameMissing(NodeId),
    /// A job of one of the slot's stages panicked; the pool caught
    /// it and finished the stage's other jobs (see [`crate::pool`]).
    StageFailed {
        /// The stage's name (`engine.tx` or `engine.rx`).
        stage: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ClosedLoopMissing => write!(f, "closed-loop state missing"),
            EngineError::ArqMissing => write!(f, "closed-loop program has no ARQ config"),
            EngineError::NodeMissing(id) => write!(f, "node {id} is not in the topology"),
            EngineError::NoiseMissing(id) => write!(f, "node {id} has no noise source"),
            EngineError::EmptyEventQueue => write!(f, "slot fired but the event queue is empty"),
            EngineError::EmptyQueue { flow } => {
                write!(f, "flow {flow} has no queued head packet")
            }
            EngineError::DeliveredNotQueued { flow } => {
                write!(f, "flow {flow} delivered a packet that is no longer queued")
            }
            EngineError::SlotFrameMissing(id) => {
                write!(f, "sender {id} put no frame on the air this slot")
            }
            EngineError::StageFailed { stage } => write!(f, "stage {stage}: a job panicked"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StageFailed> for EngineError {
    fn from(e: StageFailed) -> Self {
        EngineError::StageFailed { stage: e.stage }
    }
}

/// Stream-path domain tag of the closed-loop traffic-arrival RNG —
/// derived via [`DspRng::from_path`] so enabling ARQ consumes nothing
/// from the open-loop streams (ARQ off stays bit-identical).
const TRAFFIC_STREAM_DOMAIN: u64 = 0x414E_435F_5452_4631; // "ANC_TRF1"

/// Index of a flow within a [`Program`].
pub type FlowId = usize;

/// How a slot's length is charged to the medium clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTiming {
    /// A scheduled transmission slot: starts at offset 0 and pays the
    /// per-transmission turnaround latency (§7.6/§11.4).
    Scheduled,
    /// A trigger-elicited simultaneous slot: every sender draws its
    /// §7.2 random delay, which subsumes the turnaround.
    Triggered,
}

/// What a transmit intent sends when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxSource {
    /// Source a fresh frame from a flow (fires while packets remain).
    SourceFrame {
        /// The sourcing flow.
        flow: FlowId,
    },
    /// Forward the frame this node holds (fires when holding one).
    Forward,
    /// Amplify-and-broadcast the mixture this router captured (§7.5).
    AmplifyMixture,
    /// XOR the two captured COPE uplinks and broadcast; if either
    /// capture failed, both flows' packets are charged lost instead.
    XorEncode {
        /// The two coded flows, in capture order.
        flows: [FlowId; 2],
    },
}

/// One potential transmission in a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxIntent {
    /// Transmitting node.
    pub sender: NodeId,
    /// What it sends.
    pub source: TxSource,
}

/// What a receive intent does with its reception window.
#[derive(Debug, Clone, PartialEq)]
pub enum RxAction {
    /// Router captures an interfered mixture for later amplification;
    /// on failure every listed flow's in-flight packet is lost.
    CaptureMixture {
        /// Flows whose packets are inside the mixture.
        flows: Vec<FlowId>,
    },
    /// Hold a cleanly decoded frame for forwarding (traditional hops,
    /// clean pipeline hops). Any CRC-verified frame is accepted.
    HoldClean,
    /// Decode-and-forward relay poll: accept a clean *or*
    /// ANC-decoded frame matching what `from` transmitted this slot;
    /// ANC decodes record BER + overlap (Fig. 12b's metric).
    HoldRelay {
        /// The upstream sender whose frame is expected.
        from: NodeId,
    },
    /// Destination decode of the amplified mixture (ANC pair flows).
    DeliverAnc {
        /// The flow being delivered.
        flow: FlowId,
        /// Gate on this round's overhearing success (§11.5: a packet
        /// that was not overheard cannot be decoded either).
        gated: bool,
    },
    /// Destination decode of a clean unicast (traditional final hop).
    DeliverClean {
        /// The flow being delivered.
        flow: FlowId,
        /// Whether the BER is tagged with the receiving node
        /// (`RunMetrics::ber_by_receiver`); the Fig.-10 traditional
        /// baseline pools BERs untagged and the golden tests pin that.
        tag_receiver: bool,
    },
    /// Destination decode of a COPE XOR broadcast.
    DeliverCope {
        /// The flow being delivered.
        flow: FlowId,
        /// Gate on this round's overhearing success.
        gated: bool,
    },
    /// Destination decode matched against any frame the flow has
    /// sourced so far (pipelined chains deliver packets from earlier
    /// rounds).
    DeliverByKey {
        /// The flow being delivered.
        flow: FlowId,
    },
    /// Router captures one COPE uplink.
    CopeCapture {
        /// The captured flow.
        flow: FlowId,
    },
    /// Promiscuous overhearing (§11.5): attempt a standard decode,
    /// buffer the frame, and record this round's success flag.
    Overhear,
}

/// One potential reception in a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct RxIntent {
    /// Receiving node.
    pub receiver: NodeId,
    /// What it does with the window.
    pub action: RxAction,
}

/// One slot of a compiled scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSpec {
    /// Clock accounting mode.
    pub timing: SlotTiming,
    /// Transmit intents, in firing order (their order fixes the
    /// carrier-phase and payload RNG streams and the superposition
    /// summation order).
    pub txs: Vec<TxIntent>,
    /// Receive intents, in processing order (their order fixes the
    /// goodput accumulation order).
    pub rxs: Vec<RxIntent>,
}

/// How many times the slot sequence repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Once per packet per flow (the paper's per-exchange cycles).
    PerPacket,
    /// Until a whole period fires no transmission (pipelined chains
    /// drain in-flight packets after the sources run dry).
    UntilIdle,
}

/// A compiled scenario: everything the engine needs to run one scheme
/// on one topology graph.
#[derive(Debug, Clone)]
pub struct Program {
    /// Scenario name (reports).
    pub name: String,
    /// The scheme this program implements.
    pub scheme: Scheme,
    /// The declarative topology, realized per run.
    pub graph: TopologyGraph,
    /// Per-node roles, in `graph.node_ids` order.
    pub roles: Vec<NodeRole>,
    /// Crossing-flow pairs taught to every node's router policy (§7.6
    /// assumes control packets distribute local traffic knowledge).
    pub flow_pairs: Vec<((NodeId, NodeId), (NodeId, NodeId))>,
    /// The flows, indexed by [`FlowId`].
    pub flows: Vec<FlowSpec>,
    /// Which flows keep their sourced-frame history (needed by
    /// [`RxAction::DeliverByKey`]).
    pub track_history: Vec<bool>,
    /// The repeating slot sequence.
    pub slots: Vec<SlotSpec>,
    /// Repetition mode.
    pub rounds: RoundMode,
    /// Default time-varying impairment process (Monte Carlo layer).
    /// Per-link graph overrides beat it for link-level processes
    /// (phase re-draw, Rayleigh); TX-side processes (CFO, jitter) are
    /// per-sender and come from this default only. `None` = the
    /// paper's static per-run channel.
    pub impairments: Option<ImpairmentSpec>,
    /// Closed-loop MAC/ARQ layer (§7.6/§11): `Some` switches the
    /// engine from replaying the fixed slot sequence to consulting a
    /// [`DynamicScheduler`] each slot period — per-flow queues with
    /// the configured offered load, bounded retransmissions with
    /// backoff, implicit-ACK suppression, and carrier-sense
    /// serialization of partial contender sets. `None` (the default)
    /// is the open-loop engine, bit-identical to the golden runs.
    pub arq: Option<ArqConfig>,
    /// Deterministic fault timeline (node churn, link blackouts and
    /// shadowing, jammer bursts, stuck carriers). Fault realization is
    /// coordinate-pure in `(seed, kind, entity, exchange)` — see
    /// [`FaultSpec`] — so `None` or a passive spec is bit-identical to
    /// the fault-free engine (golden-pinned).
    pub faults: Option<FaultSpec>,
    /// Per-flow serialized fallback slot sequences (closed loop only;
    /// empty otherwise): the clean store-and-forward path a lone
    /// contender uses when the trigger protocol is carrier-sense-gated
    /// because the other flow is idle or backing off.
    pub solo_slots: Vec<Vec<SlotSpec>>,
}

/// A transmission scheduled into the engine's event queue: the
/// front-end-processed waveform and its start offset (in samples) past
/// the slot origin on the global clock.
#[derive(Debug, Clone)]
pub struct ScheduledTx {
    /// Transmitting node.
    pub sender: NodeId,
    /// Waveform after the sender's front end (amplitude, oscillator,
    /// carrier phase). Every receiver's window sums it by reference,
    /// so one slot's wave fans out without being copied.
    pub wave: Vec<Cplx>,
    /// Start offset within the slot (MAC stagger; 0 when scheduled).
    pub offset: usize,
}

/// Per-flow runtime state.
struct FlowState {
    /// Packets sourced so far.
    sourced: usize,
    /// The frame sourced this round (delivery truth for pair flows).
    round_frame: Option<Frame>,
    /// All sourced frames (kept only when `track_history`).
    history: Vec<Frame>,
}

/// The discrete-event simulator (see module docs).
pub struct Engine<'p> {
    program: &'p Program,
    cfg: RunConfig,
    topo: Topology,
    /// The nodes (in `node_ids` order), lent to the slot's stages.
    park: NodePark,
    noise: HashMap<NodeId, DspRng>,
    carrier_rng: DspRng,
    payload_rng: DspRng,
    seq: HashMap<NodeId, u16>,
    flows: Vec<FlowState>,
    /// Frames held for decode-and-forward, per node.
    held: HashMap<NodeId, Frame>,
    /// Captured mixtures awaiting amplification: window + region.
    mixture: HashMap<NodeId, (Vec<Cplx>, usize, usize)>,
    /// COPE uplink captures awaiting the XOR slot.
    cope_pending: Vec<Option<Frame>>,
    cope_seq: HashMap<NodeId, u16>,
    /// Per-round overhearing success flags.
    heard: HashMap<NodeId, bool>,
    /// What each sender transmitted this slot (relay expectations).
    slot_frames: HashMap<NodeId, Frame>,
    /// The slot's scheduled-transmission event queue, shared with the
    /// slot's RX stages.
    events: Arc<Vec<ScheduledTx>>,
    /// Reused audibility-mask scratch for spatially-gated receptions
    /// (positioned topologies; see [`Topology::audible_mask`]).
    mask_scratch: NodeMask,
    /// Resolved per-direction time-varying link processes (empty in
    /// the paper's static-channel mode — the hot path skips a lookup
    /// against an empty map).
    link_impairments: HashMap<(NodeId, NodeId), ImpairmentSpec>,
    /// Sender-side TX process (per-exchange CFO and timing jitter),
    /// when the program enables one.
    tx_impairments: Option<ImpairmentSpec>,
    /// Packet-exchange index: increments once per slot-sequence period
    /// and is the `packet` coordinate of every impairment stream, so
    /// fading is block-constant over one exchange (coherence time =
    /// one packet exchange) and every draw is reproducible from
    /// `(seed, link/node, exchange)` alone.
    exchange: u64,
    /// Closed-loop MAC/ARQ state (`Some` iff `program.arq` is). The
    /// open-loop path never touches it.
    cl: Option<ClosedLoop>,
    /// The program's fault timeline, pre-filtered: `Some` only when a
    /// fault can actually fire, so every hot-path hook is a single
    /// `Option` test in the (golden-pinned) fault-free case.
    faults: Option<&'p FaultSpec>,
    metrics: RunMetrics,
}

/// Runtime state of the closed-loop MAC/ARQ layer.
struct ClosedLoop {
    /// Queue + ARQ state machine the engine consults each period.
    sched: DynamicScheduler,
    /// Traffic-arrival stream (path-keyed; see
    /// [`TRAFFIC_STREAM_DOMAIN`]).
    traffic_rng: DspRng,
    /// Queued frames per flow, aligned one-to-one with the scheduler's
    /// timestamp queues (the head is the packet in service).
    queues: Vec<VecDeque<Frame>>,
    /// The head frame staged for this attempt; `TxSource::SourceFrame`
    /// consumes it (exactly once per attempt, including across the
    /// drain passes of chain programs).
    pending_tx: Vec<Option<Frame>>,
    /// Per-serve outcome: the relay's forward copy fired (the §7.6
    /// implicit ACK).
    forwarded: Vec<bool>,
    /// Per-serve outcome: the destination decoded the packet.
    delivered_now: Vec<bool>,
    /// Keys delivered during the current serve (batched chain service
    /// completes several pipelined packets per period, possibly out of
    /// order when an older one dies mid-pipeline).
    delivered_keys: Vec<PacketKey>,
    /// Per-flow ledgers flushed into [`RunMetrics::flows`] at the end.
    ledger: Vec<FlowMetrics>,
}

/// Bookkeeping for the recovery ledger: the failure streak preceding
/// a health trip and the currently open outage, if any.
struct OutageTracker {
    /// Period of the first failure of the current streak (while still
    /// healthy) — becomes the outage's onset when the monitor trips.
    streak_start: Option<u64>,
    /// The outage in progress once the monitor has tripped.
    open: Option<OpenOutage>,
}

/// An outage the health monitor has detected but not yet closed.
struct OpenOutage {
    onset_period: u64,
    detect_period: u64,
    failover_period: Option<u64>,
    /// Account snapshots at detection; deltas at recovery give the
    /// goodput and deliveries sustained *during* the outage.
    goodput_snapshot: f64,
    delivered_snapshot: usize,
}

impl<'p> Engine<'p> {
    /// Builds the world for one run: realizes the channel, creates the
    /// nodes, and assigns every RNG stream. The construction order —
    /// topology fork, oscillator fork, then per-node node/noise forks
    /// in `node_ids` order, then carrier and payload forks — is part of
    /// the determinism contract.
    pub fn new(program: &'p Program, cfg: &RunConfig) -> Engine<'p> {
        let mut rng = DspRng::seed_from(cfg.seed);
        let topo = program.graph.realize(&mut rng.fork(1), &cfg.channel);
        let mut nodes: Vec<(NodeId, Node)> = Vec::with_capacity(topo.node_ids.len());
        let mut noise = HashMap::new();
        let mut osc_rng = rng.fork(2);
        for (i, &id) in topo.node_ids.iter().enumerate() {
            let role = program.roles.get(i).copied().unwrap_or(NodeRole::Endpoint);
            let mut ncfg = NodeConfig::new(id, role);
            ncfg.mac = cfg.mac;
            ncfg.decoder.detector.noise_floor = cfg.noise_power;
            let mut node = Node::new(ncfg, rng.fork(100 + i as u64));
            for &(f1, f2) in &program.flow_pairs {
                node.policy.add_flow_pair(f1, f2);
            }
            node.front_end.osc_offset =
                osc_rng.uniform_range(-cfg.osc_offset_max, cfg.osc_offset_max);
            nodes.push((id, node));
            noise.insert(id, rng.fork(200 + i as u64));
        }
        for &(id, amp) in &cfg.tx_amplitude_overrides {
            if let Some((_, node)) = nodes.iter_mut().find(|(nid, _)| *nid == id) {
                node.front_end.amplitude = amp;
            }
        }
        let flows = program
            .flows
            .iter()
            .map(|_| FlowState {
                sourced: 0,
                round_frame: None,
                history: Vec::new(),
            })
            .collect();
        Engine {
            program,
            cfg: cfg.clone(),
            topo,
            park: NodePark::new(nodes),
            noise,
            carrier_rng: rng.fork(3),
            payload_rng: rng.fork(4),
            seq: HashMap::new(),
            flows,
            held: HashMap::new(),
            mixture: HashMap::new(),
            cope_pending: vec![None; program.flows.len()],
            cope_seq: HashMap::new(),
            heard: HashMap::new(),
            slot_frames: HashMap::new(),
            events: Arc::default(),
            mask_scratch: NodeMask::new(256),
            link_impairments: program.graph.link_impairments(program.impairments),
            tx_impairments: program.impairments.filter(|s| s.affects_tx()),
            exchange: 0,
            cl: program.arq.map(|arq| {
                let n = program.flows.len();
                ClosedLoop {
                    sched: DynamicScheduler::new(n, arq),
                    traffic_rng: DspRng::from_path(cfg.seed, &[TRAFFIC_STREAM_DOMAIN]),
                    queues: vec![VecDeque::new(); n],
                    pending_tx: vec![None; n],
                    forwarded: vec![false; n],
                    delivered_now: vec![false; n],
                    delivered_keys: Vec::new(),
                    ledger: (0..n)
                        .map(|flow| FlowMetrics {
                            flow,
                            ..FlowMetrics::default()
                        })
                        .collect(),
                }
            }),
            faults: program.faults.as_ref().filter(|f| !f.is_passive()),
            metrics: RunMetrics::new(program.scheme),
        }
    }

    /// Whether `id` is out of service at the current exchange — either
    /// crashed by the fault timeline or wedged babbling a stuck
    /// carrier (a babbling radio can neither frame a transmission nor
    /// receive). Always `false` without an active fault spec.
    fn node_down(&self, id: NodeId) -> bool {
        match self.faults {
            Some(f) => {
                f.node_crashed(self.cfg.seed, id, self.exchange)
                    || f.stuck_carrier(self.cfg.seed, id, self.exchange).is_some()
            }
            None => false,
        }
    }

    /// Typed accessor for the closed-loop state.
    fn cl_mut(&mut self) -> Result<&mut ClosedLoop, EngineError> {
        self.cl.as_mut().ok_or(EngineError::ClosedLoopMissing)
    }

    /// Typed shared accessor for the closed-loop state.
    fn cl_ref(&self) -> Result<&ClosedLoop, EngineError> {
        self.cl.as_ref().ok_or(EngineError::ClosedLoopMissing)
    }

    /// The canonical run entry: executes `program` under the given
    /// scheduler with the caller's reusable [`RunCtx`]. Before the
    /// run, the context's warmed decoder scratch buffers are loaned
    /// into the nodes (in `node_ids` order); after it — error or not —
    /// they are taken back, grown, so feeding many runs through one
    /// context amortizes decode allocations across trials (DESIGN.md
    /// §8, §14).
    ///
    /// Bit-identity: every scheduler mode produces identical
    /// [`RunMetrics`] (scratch contents and thread interleavings never
    /// affect decode output — pinned by the golden suites and the
    /// scheduler-equivalence proptest).
    pub fn try_run_ctx(
        program: &Program,
        cfg: &RunConfig,
        sched: &SchedulerSpec,
        ctx: &mut RunCtx,
    ) -> Result<RunMetrics, EngineError> {
        let mut engine = Engine::new(program, cfg);
        engine.park.swap_scratches(&mut ctx.scratches);
        let outcome = sched.with_pool(|pool| engine.drive(pool));
        // Hand the scratch buffers back even when the run errored, so
        // a failed trial cannot strand the context's warmed memory.
        engine.park.swap_scratches(&mut ctx.scratches);
        outcome?;
        Ok(engine.metrics)
    }

    /// The sequential controller: closed-loop driver or open-loop
    /// period replay.
    fn drive(&mut self, pool: &Pool<'_, '_>) -> Result<(), EngineError> {
        if self.cl.is_some() {
            return self.execute_closed_loop(pool);
        }
        match self.program.rounds {
            RoundMode::PerPacket => {
                for _ in 0..self.cfg.packets_per_flow {
                    self.run_period(pool)?;
                }
            }
            RoundMode::UntilIdle => while self.run_period(pool)? {},
        }
        Ok(())
    }

    /// Executes one period of the slot sequence; `true` if anything
    /// transmitted.
    fn run_period(&mut self, pool: &Pool<'_, '_>) -> Result<bool, EngineError> {
        for f in &mut self.flows {
            f.round_frame = None;
        }
        self.heard.clear();
        let program = self.program;
        let mut any = false;
        for slot in &program.slots {
            any |= self.run_slot(pool, slot)?;
        }
        self.exchange += 1;
        Ok(any)
    }

    /// Runs a slot list once (no per-period state reset); `true` if
    /// anything transmitted.
    fn run_slots_once(
        &mut self,
        pool: &Pool<'_, '_>,
        slots: &'p [SlotSpec],
    ) -> Result<bool, EngineError> {
        let mut any = false;
        for slot in slots {
            any |= self.run_slot(pool, slot)?;
        }
        Ok(any)
    }

    /// Executes one slot as ordered stages: resolve the transmit
    /// intents into synthesis jobs (all RNG draws happen here, in
    /// intent order), run them as one TX stage (waveforms in fired
    /// order), advance the clock by the slot span, then run the receive
    /// intents' windows as RX stages and fold the outcomes back in
    /// intent order.
    fn run_slot(&mut self, pool: &Pool<'_, '_>, slot: &'p SlotSpec) -> Result<bool, EngineError> {
        self.slot_frames.clear();
        let timing = slot.timing;
        let mut fired: Vec<(NodeId, usize)> = Vec::with_capacity(slot.txs.len());
        let mut jobs: Vec<(usize, SynthJob)> = Vec::with_capacity(slot.txs.len());
        for intent in &slot.txs {
            if let Some((job, offset)) = self.resolve_tx(intent, timing)? {
                jobs.push((self.park.index_of(intent.sender)?, job));
                fired.push((intent.sender, offset));
            }
        }
        if fired.is_empty() {
            // Nothing had anything to send: the slot does not occupy
            // the medium and receivers never open a window.
            return Ok(false);
        }
        // The event queue's order (fired order) fixes superposition
        // summation.
        let waves = self.park.synthesize(pool, jobs)?;
        self.events = Arc::new(
            fired
                .into_iter()
                .zip(waves)
                .map(|((sender, offset), wave)| ScheduledTx {
                    sender,
                    wave,
                    offset,
                })
                .collect(),
        );
        let span = self
            .events
            .iter()
            .map(|e| e.offset + e.wave.len())
            .max()
            .ok_or(EngineError::EmptyEventQueue)?;
        let guard = self.cfg.guard_samples as f64;
        let tick = match timing {
            SlotTiming::Triggered => span as f64 + guard,
            SlotTiming::Scheduled => span as f64 + guard + self.cfg.turnaround_bits as f64,
        };
        self.metrics.account.tick(tick);
        self.run_rx_phase(pool, slot, span)?;
        Ok(true)
    }

    /// The closed-loop driver (`program.arq` set): each slot period,
    /// draw traffic arrivals, consult the [`DynamicScheduler`] for the
    /// contender set, serve it — the full (trigger-elicited) program
    /// when every flow contends, serialized per-flow store-and-forward
    /// fallbacks otherwise (carrier sense) — then settle ACKs,
    /// implicit ACKs, backoffs and drops.
    ///
    /// With a fault timeline attached, three more things happen per
    /// period: crashed sources neither arrive nor contend (and
    /// optionally drop their queues), the relay-path health monitor
    /// folds every attempt outcome into its EWMA, and while it reads
    /// unhealthy the full ANC/COPE program is bypassed — every
    /// contender serves through its serialized store-and-forward
    /// fallback (graceful degradation) until sustained recovery flips
    /// the monitor back.
    fn execute_closed_loop(&mut self, pool: &Pool<'_, '_>) -> Result<(), EngineError> {
        let program = self.program;
        let arq = program.arq.ok_or(EngineError::ArqMissing)?;
        let nflows = program.flows.len();
        let cap = self.cfg.packets_per_flow;
        let seed = self.cfg.seed;
        // The full program is multi-sender only for coding schemes; an
        // optimal-MAC traditional program is already serialized, and a
        // single flow (chain) always runs its own program.
        let full_program_when_all = nflows == 1 || program.scheme != Scheme::Traditional;
        // The ANC→traditional health fallback exists only where there
        // is a multi-flow coded program to fall back *from*.
        let mut health: Option<HealthMonitor> = match self.faults {
            Some(f) if nflows > 1 && program.scheme != Scheme::Traditional => {
                Some(HealthMonitor::new(f.health))
            }
            _ => None,
        };
        let mut tracker = OutageTracker {
            streak_start: None,
            open: None,
        };
        // Hard stop so a scheduling bug can never hang a sweep: every
        // packet completes within 1 + max_retries attempts, each
        // attempt costs at most backoff_cap + 2 periods of medium or
        // idle time, and flows serialize in the worst case.
        // Pipelined (UntilIdle) chain programs serve a *batch* of
        // packets per period — one injected per pass, Go-Back-N style
        // — so the pipeline keeps its one-packet-per-two-slots cadence
        // under ARQ instead of degrading to stop-and-wait. Crossing
        // pairs exchange one packet per flow per period (window 1).
        let window = if program.rounds == RoundMode::UntilIdle && nflows == 1 {
            3 * program.flows[0].route.len().saturating_sub(1).max(1)
        } else {
            1
        };
        let backlog = match arq.traffic {
            anc_netcode::TrafficModel::FixedBacklog { packets } => packets,
            _ => cap,
        } as u64;
        let max_periods = (backlog.max(1))
            .saturating_mul(nflows.max(1) as u64)
            .saturating_mul(2 + arq.max_retries as u64)
            .saturating_mul(3 + arq.backoff_cap_periods)
            .saturating_add(64);
        let mut period: u64 = 0;
        while period < max_periods {
            // --- Faults: crash-and-recover churn. A crashed source
            // cannot arrive or contend; with the drop-queue policy its
            // buffered frames die with it (counted as churn losses).
            let mut crashed = vec![false; nflows];
            if let Some(f) = self.faults {
                for (fid, down) in crashed.iter_mut().enumerate() {
                    if f.node_crashed(seed, program.flows[fid].src, self.exchange) {
                        *down = true;
                        if f.drop_queue_on_crash {
                            let purged = {
                                let cl = self.cl_mut()?;
                                let n = cl.sched.purge(fid);
                                cl.queues[fid].clear();
                                cl.pending_tx[fid] = None;
                                cl.ledger[fid].lost_to_churn += n;
                                n
                            };
                            for _ in 0..purged {
                                self.metrics.account.lose();
                            }
                        }
                    }
                }
            }
            // --- Arrivals: frames enter the per-flow queues. ---
            let now = self.metrics.account.time_samples;
            let arrived: Vec<usize> = {
                let crashed = &crashed;
                let cl = self.cl_mut()?;
                let ClosedLoop {
                    sched, traffic_rng, ..
                } = cl;
                (0..nflows)
                    .map(|f| {
                        if crashed[f] {
                            0
                        } else {
                            sched.offer(f, period, now, cap, window, || traffic_rng.uniform())
                        }
                    })
                    .collect()
            };
            for (f, &n) in arrived.iter().enumerate() {
                for _ in 0..n {
                    let (src, dst) = (program.flows[f].src, program.flows[f].dst);
                    let frame = self.make_frame(src, dst);
                    self.cl_mut()?.queues[f].push_back(frame);
                }
            }
            // --- Decide: who contends this period? ---
            let mut contenders = self.cl_ref()?.sched.contenders(period);
            contenders.retain(|&f| !crashed[f]);
            if contenders.is_empty() {
                let cl = self.cl_ref()?;
                let finished = cl.sched.all_drained()
                    && (0..nflows).all(|f| cl.sched.source_exhausted(f, period, cap));
                if finished {
                    break;
                }
                // Everyone idle or backing off: the medium sits silent
                // for one MAC slot; fading keeps evolving.
                self.metrics.account.tick(self.cfg.mac.slot_bits as f64);
                self.exchange += 1;
                period += 1;
                continue;
            }
            // --- Serve: the trigger protocol fires only when every
            // flow contends *and* the relay path reads healthy;
            // otherwise carrier sense (or the health fallback)
            // serializes the ready flows through their
            // store-and-forward fallbacks.
            let anc_fallback = health.as_ref().is_some_and(|h| !h.is_healthy());
            let full_serve = contenders.len() == nflows && full_program_when_all && !anc_fallback;
            let serve_sets: Vec<Vec<usize>> = if full_serve {
                vec![contenders]
            } else {
                contenders.into_iter().map(|f| vec![f]).collect()
            };
            for set in &serve_sets {
                let slots: &'p [SlotSpec] = if full_serve {
                    &program.slots
                } else {
                    &program.solo_slots[set[0]]
                };
                {
                    let cl = self.cl_mut()?;
                    cl.forwarded.iter_mut().for_each(|b| *b = false);
                    cl.delivered_now.iter_mut().for_each(|b| *b = false);
                    cl.delivered_keys.clear();
                    for &f in set {
                        cl.sched.begin_attempt(f);
                        let head = cl.queues[f]
                            .front()
                            .ok_or(EngineError::EmptyQueue { flow: f })?;
                        cl.pending_tx[f] = Some(head.clone());
                    }
                }
                for f in &mut self.flows {
                    f.round_frame = None;
                }
                self.heard.clear();
                match program.rounds {
                    RoundMode::PerPacket => {
                        self.run_slots_once(pool, slots)?;
                        self.exchange += 1;
                        self.settle_attempts(set, period, &arq)?;
                        if let Some(h) = health.as_mut() {
                            self.observe_health(set, period, h, &mut tracker)?;
                        }
                    }
                    RoundMode::UntilIdle => {
                        // Pipelined chain: inject up to `window` queued
                        // packets, one per pass (the pipeline's natural
                        // cadence), then drain the batch to quiescence
                        // before judging outcomes. Go-Back-N flavored:
                        // only the head carries ARQ attempt state;
                        // younger packets ride along uncharged.
                        let f = set[0];
                        let mut injected: Vec<PacketKey> = {
                            let cl = self.cl_ref()?;
                            vec![cl.queues[f]
                                .front()
                                .ok_or(EngineError::EmptyQueue { flow: f })?
                                .header
                                .key()]
                        };
                        loop {
                            let fired = self.run_slots_once(pool, slots)?;
                            self.exchange += 1;
                            if !fired {
                                break;
                            }
                            let cl = self.cl_mut()?;
                            if injected.len() < window {
                                if let Some(frame) = cl.queues[f].get(injected.len()) {
                                    injected.push(frame.header.key());
                                    cl.pending_tx[f] = Some(frame.clone());
                                }
                            }
                        }
                        self.settle_chain(f, &injected, period, &arq)?;
                    }
                }
            }
            period += 1;
        }
        // A run that ends mid-outage still records it — with no
        // recovery timestamp (the NaN-sentinel case downstream).
        if let Some(o) = tracker.open.take() {
            self.metrics.outages.push(OutageRecord {
                onset_period: o.onset_period,
                detect_period: o.detect_period,
                failover_period: o.failover_period,
                recover_period: None,
                goodput_bits: self.metrics.account.goodput_bits - o.goodput_snapshot,
                delivered: self.metrics.account.delivered - o.delivered_snapshot,
            });
        }
        self.flush_closed_loop()
    }

    /// Folds one served contender set's outcomes into the health
    /// monitor and maintains the outage ledger across its transitions
    /// (see [`OutageTracker`]). An attempt "succeeded" for health
    /// purposes when the destination decoded it or the relay's forward
    /// copy implicitly ACKed it — decode failures, missing implicit
    /// ACKs and detection-gate misses all land in the same EWMA.
    fn observe_health(
        &mut self,
        set: &[usize],
        period: u64,
        health: &mut HealthMonitor,
        tracker: &mut OutageTracker,
    ) -> Result<(), EngineError> {
        let (outcomes, any_delivered) = {
            let cl = self.cl_ref()?;
            let outcomes: Vec<bool> = set
                .iter()
                .map(|&f| cl.delivered_now[f] || cl.forwarded[f])
                .collect();
            let delivered = set.iter().any(|&f| cl.delivered_now[f]);
            (outcomes, delivered)
        };
        for ok in outcomes {
            match health.observe(!ok) {
                HealthTransition::None => {
                    if health.is_healthy() {
                        if ok {
                            tracker.streak_start = None;
                        } else if tracker.streak_start.is_none() {
                            tracker.streak_start = Some(period);
                        }
                    }
                }
                HealthTransition::WentUnhealthy => {
                    let onset = tracker.streak_start.take().unwrap_or(period);
                    tracker.open = Some(OpenOutage {
                        onset_period: onset,
                        detect_period: period,
                        failover_period: None,
                        goodput_snapshot: self.metrics.account.goodput_bits,
                        delivered_snapshot: self.metrics.account.delivered,
                    });
                }
                HealthTransition::Recovered => {
                    if let Some(o) = tracker.open.take() {
                        self.metrics.outages.push(OutageRecord {
                            onset_period: o.onset_period,
                            detect_period: o.detect_period,
                            failover_period: o.failover_period,
                            recover_period: Some(period),
                            goodput_bits: self.metrics.account.goodput_bits - o.goodput_snapshot,
                            delivered: self.metrics.account.delivered - o.delivered_snapshot,
                        });
                    }
                }
            }
        }
        if any_delivered {
            if let Some(o) = tracker.open.as_mut() {
                if o.failover_period.is_none() {
                    o.failover_period = Some(period);
                }
            }
        }
        Ok(())
    }

    /// Settles one served contender set: ACK (explicit or the §7.6
    /// implicit forward copy), residual-loss accounting, backoff, and
    /// retry-exhaustion drops.
    fn settle_attempts(
        &mut self,
        set: &[usize],
        period: u64,
        arq: &ArqConfig,
    ) -> Result<(), EngineError> {
        let now = self.metrics.account.time_samples;
        for &f in set {
            let cl = self.cl.as_mut().ok_or(EngineError::ClosedLoopMissing)?;
            cl.pending_tx[f] = None;
            if cl.delivered_now[f] {
                // End-to-end success. The forward copy doubles as the
                // ACK on broadcast paths (§7.6); serialized unicasts
                // pay the explicit link-layer ACK's airtime.
                let latency = cl.sched.ack(f, now);
                cl.queues[f]
                    .pop_front()
                    .ok_or(EngineError::EmptyQueue { flow: f })?;
                cl.ledger[f].delivered += 1;
                cl.ledger[f].record_latency(latency);
                let implicit = cl.forwarded[f];
                if !implicit {
                    self.metrics.account.tick(arq.ack_bits as f64);
                }
            } else if cl.forwarded[f] {
                // The relay's forward copy was overheard, so the
                // sender suppresses the retransmission (§7.6) even
                // though the final decode failed — the residual loss
                // stands, exactly as in the open-loop accounting.
                cl.sched.ack(f, now);
                cl.queues[f]
                    .pop_front()
                    .ok_or(EngineError::EmptyQueue { flow: f })?;
                cl.ledger[f].lost_after_ack += 1;
                self.metrics.account.lose();
            } else {
                // No ACK of any kind: the head packet stays queued,
                // backs off, and is dropped once retries exhaust.
                match cl.sched.fail(f, period) {
                    ArqVerdict::Backoff { .. } => {}
                    ArqVerdict::Dropped => {
                        cl.queues[f]
                            .pop_front()
                            .ok_or(EngineError::EmptyQueue { flow: f })?;
                        self.metrics.account.lose();
                    }
                }
            }
        }
        Ok(())
    }

    /// Settles a batched chain serve: every injected packet that
    /// reached the destination is ACKed (out of order when needed);
    /// the oldest undelivered packet — the ARQ head, whose attempt was
    /// charged at staging — backs off or drops; younger undelivered
    /// packets stay queued uncharged (Go-Back-N: their ride-along
    /// transmissions are not counted attempts).
    fn settle_chain(
        &mut self,
        f: usize,
        injected: &[PacketKey],
        period: u64,
        arq: &ArqConfig,
    ) -> Result<(), EngineError> {
        let now = self.metrics.account.time_samples;
        let (mut explicit_acks, mut drops) = (0usize, 0usize);
        {
            let cl = self.cl.as_mut().ok_or(EngineError::ClosedLoopMissing)?;
            cl.pending_tx[f] = None;
            let delivered = std::mem::take(&mut cl.delivered_keys);
            for (i, key) in injected.iter().enumerate() {
                if delivered.contains(key) {
                    let idx = cl.queues[f]
                        .iter()
                        .position(|fr| fr.header.key() == *key)
                        .ok_or(EngineError::DeliveredNotQueued { flow: f })?;
                    let latency = cl.sched.ack_nth(f, idx, now);
                    cl.queues[f].remove(idx);
                    cl.ledger[f].delivered += 1;
                    cl.ledger[f].record_latency(latency);
                    // Chain deliveries have no broadcast forward to
                    // overhear: the ACK is explicit.
                    explicit_acks += 1;
                } else if i == 0 {
                    // Only the original head was charged an attempt at
                    // staging, so only it can back off or drop.
                    debug_assert!(cl.queues[f]
                        .front()
                        .is_some_and(|fr| fr.header.key() == *key));
                    match cl.sched.fail(f, period) {
                        ArqVerdict::Backoff { .. } => {}
                        ArqVerdict::Dropped => {
                            cl.queues[f]
                                .pop_front()
                                .ok_or(EngineError::EmptyQueue { flow: f })?;
                            drops += 1;
                        }
                    }
                }
            }
        }
        for _ in 0..explicit_acks {
            self.metrics.account.tick(arq.ack_bits as f64);
        }
        for _ in 0..drops {
            self.metrics.account.lose();
        }
        Ok(())
    }

    /// Moves the closed-loop ledgers (merged with the scheduler's
    /// lifetime counters) into [`RunMetrics::flows`].
    fn flush_closed_loop(&mut self) -> Result<(), EngineError> {
        let cl = self.cl.take().ok_or(EngineError::ClosedLoopMissing)?;
        let mut flows = cl.ledger;
        for (f, fm) in flows.iter_mut().enumerate() {
            let st = cl.sched.stats(f);
            fm.offered = st.offered;
            fm.dropped = st.dropped;
            fm.retransmissions = st.retransmissions;
            // Packets still queued when the run's period budget ran
            // out (total-outage runs): the conservation invariant is
            // offered == delivered + dropped + lost_after_ack' — with
            // lost_after_ack folded into the scheduler's delivered —
            // + in_flight.
            fm.in_flight = cl.sched.pending(f);
        }
        self.metrics.flows = flows;
        Ok(())
    }

    /// Marks a flow's end-to-end delivery for the closed loop and
    /// attributes the FEC-discounted goodput to its ledger. No-op
    /// open-loop.
    fn mark_cl_delivered(&mut self, flow: usize, goodput: f64) {
        if let Some(cl) = self.cl.as_mut() {
            cl.delivered_now[flow] = true;
            cl.ledger[flow].goodput_bits += goodput;
        }
    }

    /// Charges a lost packet in open-loop mode. Closed-loop losses are
    /// settled per attempt instead (`settle_attempts`): a failed
    /// attempt is retried, not lost, until retries exhaust or the
    /// §7.6 implicit ACK leaves a residual loss.
    fn lose_open(&mut self) {
        if self.cl.is_none() {
            self.metrics.account.lose();
        }
    }

    /// Creates the next frame of `src → dst` (engine-global sequence
    /// numbers and payload stream, matching the original testbed).
    fn make_frame(&mut self, src: NodeId, dst: NodeId) -> Frame {
        let seq = self.seq.entry(src).or_insert(0);
        let s = *seq;
        *seq = seq.wrapping_add(1);
        let payload = self.payload_rng.bits(self.cfg.payload_bits);
        Frame::new(Header::new(src, dst, s, 0), payload)
    }

    /// Resolves a transmit intent into a pure [`SynthJob`] plus its
    /// slot offset. Every stateful part of the old inline transmit
    /// path happens here, in intent order — frame sourcing (sequence
    /// numbers + payload stream), sent-buffer inserts, the carrier
    /// phase draw, the §7.2 MAC delay draw, and the Monte Carlo TX
    /// process — so every RNG stream's draw order is exactly the
    /// serial engine's. The pure half (modulation, front end, CFO)
    /// runs in the slot's TX stage.
    fn resolve_tx(
        &mut self,
        intent: &TxIntent,
        timing: SlotTiming,
    ) -> Result<Option<(SynthJob, usize)>, EngineError> {
        let sender = intent.sender;
        // Fault layer: a crashed (or babbling) sender puts nothing on
        // the air. Its staged/held state is left untouched — the frame
        // survives the outage in the node's buffer; queue-drop policy
        // is settled per period by the closed loop, and the untaken
        // attempt simply fails (no implicit ACK, no delivery).
        if self.node_down(sender) {
            return Ok(None);
        }
        let fired: Option<(SynthSource, Option<Frame>)> = match &intent.source {
            TxSource::SourceFrame { flow } if self.cl.is_some() => {
                // Closed loop: transmit the staged queue head (the
                // same frame on every retransmission attempt) instead
                // of sourcing a fresh one.
                match self.cl_mut()?.pending_tx[*flow].take() {
                    Some(frame) => {
                        let track = self.program.track_history[*flow];
                        let state = &mut self.flows[*flow];
                        state.round_frame = Some(frame.clone());
                        let key = frame.header.key();
                        if track && !state.history.iter().any(|h| h.header.key() == key) {
                            state.history.push(frame.clone());
                        }
                        self.park.get_mut(sender)?.buffer.insert(frame.clone());
                        Some((SynthSource::Frame(frame.clone()), Some(frame)))
                    }
                    None => None,
                }
            }
            TxSource::SourceFrame { flow } => {
                if self.flows[*flow].sourced >= self.cfg.packets_per_flow {
                    None
                } else {
                    let (src, dst) = (self.program.flows[*flow].src, self.program.flows[*flow].dst);
                    let frame = self.make_frame(src, dst);
                    let state = &mut self.flows[*flow];
                    state.sourced += 1;
                    state.round_frame = Some(frame.clone());
                    if self.program.track_history[*flow] {
                        state.history.push(frame.clone());
                    }
                    self.park.get_mut(sender)?.buffer.insert(frame.clone());
                    Some((SynthSource::Frame(frame.clone()), Some(frame)))
                }
            }
            TxSource::Forward => match self.held.remove(&sender) {
                Some(frame) => {
                    self.park.get_mut(sender)?.buffer.insert(frame.clone());
                    Some((SynthSource::Frame(frame.clone()), Some(frame)))
                }
                None => None,
            },
            TxSource::AmplifyMixture => self
                .mixture
                .remove(&sender)
                .map(|(window, start, end)| (SynthSource::Amplify { window, start, end }, None)),
            TxSource::XorEncode { flows } => {
                let a = self.cope_pending[flows[0]].take();
                let b = self.cope_pending[flows[1]].take();
                match (a, b) {
                    (Some(ra), Some(rb)) => {
                        let seq = self.cope_seq.entry(sender).or_insert(0);
                        let s = *seq;
                        *seq = seq.wrapping_add(1);
                        let coded = CopeCoder.encode(&ra, &rb, sender, s);
                        self.park.get_mut(sender)?.buffer.insert(coded.clone());
                        Some((SynthSource::Frame(coded.clone()), Some(coded)))
                    }
                    _ => {
                        // §11.1's optimal MAC still cannot code what the
                        // router never received: both packets are lost
                        // (closed loop: both attempts fail and retry).
                        self.lose_open();
                        self.lose_open();
                        None
                    }
                }
            }
        };
        // Closed loop: a fired forward copy is the §7.6 implicit ACK
        // for every flow whose packet rides in it.
        if let (Some(cl), true) = (self.cl.as_mut(), fired.is_some()) {
            match &intent.source {
                TxSource::AmplifyMixture => {
                    cl.forwarded.iter_mut().for_each(|b| *b = true);
                }
                TxSource::XorEncode { flows } => {
                    for &f in flows {
                        cl.forwarded[f] = true;
                    }
                }
                _ => {}
            }
        }
        let Some((source, frame)) = fired else {
            return Ok(None);
        };
        let carrier_phase = self.carrier_rng.phase();
        let mut offset = match timing {
            // The §7.2 stagger, drawn in bit-times (one sample each).
            SlotTiming::Triggered => self.park.get_mut(sender)?.draw_delay(),
            SlotTiming::Scheduled => 0,
        };
        // Monte Carlo TX process: this exchange's residual CFO and
        // timing slip, realized from the sender's dedicated
        // `(seed, node, exchange)` stream — independent of every other
        // draw the engine makes, so enabling it never perturbs the
        // carrier/payload/noise streams above. The CFO rotation itself
        // is pure and rides in the job; a zero draw is a no-op there.
        let mut cfo = 0.0;
        if let Some(spec) = self.tx_impairments {
            let tx = spec.tx_process(self.cfg.seed, sender as u64, self.exchange);
            cfo = tx.cfo;
            // The slip is signed: an early-arrival slip pulls the
            // waveform toward the slot origin (saturating there — a
            // transmission cannot start before its slot), a late one
            // pushes it out. A float→usize as-cast would silently
            // clamp every negative slip to zero, and a NaN draw to 0 —
            // the rounded-i64 route saturates instead of wrapping.
            let slip = round_to_i64(tx.jitter_samples);
            if slip >= 0 {
                offset = offset.saturating_add(usize::try_from(slip).unwrap_or(usize::MAX));
            } else {
                offset = offset
                    .saturating_sub(usize::try_from(slip.unsigned_abs()).unwrap_or(usize::MAX));
            }
        }
        if let Some(f) = frame {
            self.slot_frames.insert(sender, f);
        }
        Ok(Some((
            SynthJob {
                source,
                carrier_phase,
                cfo,
            },
            offset,
        )))
    }

    /// Runs a slot's receive intents as RX stages: each intent is
    /// resolved in order (gates, audibility, noise fork) into a window
    /// job or a skip, a batch of jobs runs as one stage, and the
    /// batch's outcomes are folded back strictly in intent order — so
    /// several receivers' windows mix and decode concurrently under the
    /// work-stealing executor, yet every engine-state and metric
    /// mutation keeps the serial order.
    fn run_rx_phase(
        &mut self,
        pool: &Pool<'_, '_>,
        slot: &'p SlotSpec,
        span: usize,
    ) -> Result<(), EngineError> {
        // Per intent of the batch, in order: why its window never
        // opened, or `None` when its job is in `jobs`.
        let mut plan: Vec<Option<RxSkip>> = Vec::with_capacity(slot.rxs.len());
        let mut jobs: Vec<RxJob> = Vec::with_capacity(slot.rxs.len());
        let mut first = 0usize;
        for (i, intent) in slot.rxs.iter().enumerate() {
            // A batch ends before an overhearing gate, which reads
            // `heard` as same-slot Overhear intents write it at fold,
            // and before a receiver that already has a window in the
            // batch (a stage moves each node into one job).
            let needs_heard = matches!(
                intent.action,
                RxAction::DeliverAnc { gated: true, .. }
                    | RxAction::DeliverCope { gated: true, .. }
            );
            let repeat = jobs.iter().any(|j| j.receiver == intent.receiver);
            if needs_heard || repeat {
                self.run_rx_batch(pool, slot, first, &mut plan, &mut jobs)?;
                first = i;
            }
            plan.push(self.resolve_rx(intent, span, &mut jobs)?);
        }
        self.run_rx_batch(pool, slot, first, &mut plan, &mut jobs)
    }

    /// Runs the batch's window jobs as one RX stage, then applies the
    /// plan — intents `first..` — in intent order: skipped windows'
    /// accounting and decoded windows' outcomes. All RX-phase mutation
    /// of engine state funnels through here.
    fn run_rx_batch(
        &mut self,
        pool: &Pool<'_, '_>,
        slot: &SlotSpec,
        first: usize,
        plan: &mut Vec<Option<RxSkip>>,
        jobs: &mut Vec<RxJob>,
    ) -> Result<(), EngineError> {
        let (jobs, noise_power) = (std::mem::take(jobs), self.cfg.noise_power);
        let received = self.park.receive(pool, &self.events, noise_power, jobs)?;
        let mut outcomes = received.into_iter();
        for (k, skip) in plan.drain(..).enumerate() {
            let intent = &slot.rxs[first + k];
            match skip {
                Some(skip) => self.apply_skip(intent, &skip),
                None => {
                    let evt = outcomes.next().expect("one outcome per window job");
                    self.apply_outcome(intent, evt)?;
                }
            }
        }
        Ok(())
    }

    /// The accounting of a window that never opened, applied at fold
    /// position so the global metric mutation order matches the serial
    /// engine.
    fn apply_skip(&mut self, intent: &RxIntent, skip: &RxSkip) {
        match skip {
            // Fault layer: a crashed (or babbling) receiver hears
            // nothing usable. Deliveries it was supposed to complete
            // are losses; relay capture slots simply stay empty (the
            // rider attempts fail at settle time).
            RxSkip::Down => match &intent.action {
                RxAction::CaptureMixture { flows } => {
                    for _ in flows {
                        self.lose_open();
                    }
                }
                RxAction::DeliverAnc { .. }
                | RxAction::DeliverClean { .. }
                | RxAction::DeliverCope { .. }
                | RxAction::DeliverByKey { .. } => self.lose_open(),
                _ => {}
            },
            // §11.5: without the overheard packet the interfered
            // signal cannot be decoded either.
            RxSkip::GateLost => self.lose_open(),
            RxSkip::Silent => {}
        }
    }

    /// Resolves a receive intent up to its pure window job: fault and
    /// overhearing gates, audibility, link realizations, and the
    /// window's noise fork all happen here, in intent order (a skipped
    /// window forks nothing, exactly as the serial path). The job joins
    /// the batch in `jobs` (`None`), or the skip says why the window
    /// never opened; all accounting is deferred to fold position.
    fn resolve_rx(
        &mut self,
        intent: &RxIntent,
        span: usize,
        jobs: &mut Vec<RxJob>,
    ) -> Result<Option<RxSkip>, EngineError> {
        let recv = intent.receiver;
        // No noise fork for a down receiver — the window never opens.
        if self.node_down(recv) {
            return Ok(Some(RxSkip::Down));
        }
        // Gates that close the window before it opens (no noise fork).
        match &intent.action {
            RxAction::DeliverAnc { gated: true, .. }
            | RxAction::DeliverCope { gated: true, .. }
                if !self.heard.get(&recv).copied().unwrap_or(false) =>
            {
                return Ok(Some(RxSkip::GateLost));
            }
            RxAction::HoldRelay { from } if !self.slot_frames.contains_key(from) => {
                return Ok(Some(RxSkip::Silent));
            }
            _ => {}
        }
        let pad = self.cfg.pad_samples;
        let duration = pad + span + pad;
        // Spatial gating (positioned topologies only): one O(local
        // density) grid query yields the set of senders this receiver
        // can hear at all; every link walk below then skips gated-out
        // senders. Unpositioned topologies take the dense reference
        // path — `gated` stays false and `hears` admits everyone, so
        // the golden runs are untouched.
        let mut mask = std::mem::take(&mut self.mask_scratch);
        let gated = self.topo.audible_mask(recv, &mut mask);
        let hears = |sender: NodeId| !gated || mask.get(sender as usize);
        // Fault layer: stuck-carrier nodes in range babble an unmodulated
        // tone across the whole window. They are extra interferers, so a
        // window can open even when no scheduled transmission is audible.
        let mut tones: Vec<(Vec<Cplx>, Link)> = Vec::new();
        if let Some(fspec) = self.faults {
            let seed = self.cfg.seed;
            for spec in self.topo.links() {
                if spec.to != recv || spec.from == recv || !hears(spec.from) {
                    continue;
                }
                if let Some((amp, phase)) = fspec.stuck_carrier(seed, spec.from, self.exchange) {
                    let tone = vec![Cplx::from_polar(amp, phase); duration];
                    tones.push((tone, spec.link));
                }
            }
        }
        let audible = self.events.iter().any(|e| {
            e.sender != recv && hears(e.sender) && self.topo.link(e.sender, recv).is_some()
        });
        if !audible && tones.is_empty() {
            self.mask_scratch = mask;
            return Ok(Some(RxSkip::Silent));
        }
        // The window covers the whole slot plus noise padding on both
        // sides, so detectors see a floor (§7.1). The job names heard
        // waves by event-queue index; the stage shares the queue, so
        // one slot's wave fans out to every receiver in range uncopied.
        let mut heard: Vec<(usize, usize, Link)> = Vec::new();
        for (k, e) in self.events.iter().enumerate() {
            if e.sender == recv || !hears(e.sender) {
                continue; // half-duplex, or spatially gated out
            }
            if let Some(link) = self.topo.link(e.sender, recv) {
                // Monte Carlo link process: replace the static per-run
                // draw with this exchange's realization. Pure in
                // (seed, from, to, exchange), so every receive intent
                // that hears the same transmission this exchange sees
                // the same channel state.
                let mut link = match self.link_impairments.get(&(e.sender, recv)) {
                    Some(spec) => spec.impair_link(
                        *link,
                        self.cfg.seed,
                        e.sender as u64,
                        recv as u64,
                        self.exchange,
                    ),
                    None => *link,
                };
                // Fault layer: blackout/shadowing scales the realized
                // link gain for this exchange. Factor 1.0 (the
                // faults-off path) leaves the float untouched, keeping
                // fault-free runs bit-identical.
                if let Some(fspec) = self.faults {
                    let g = fspec.link_gain_factor(self.cfg.seed, e.sender, recv, self.exchange);
                    if g != 1.0 {
                        link.gain *= g;
                    }
                }
                heard.push((k, pad + e.offset, link));
            }
        }
        self.mask_scratch = mask;
        // The window's noise fork happens here, in intent order, so
        // the per-receiver noise stream advances exactly as it does on
        // the serial path; the stage only *consumes* the forked rng.
        let noise = self
            .noise
            .get_mut(&recv)
            .ok_or(EngineError::NoiseMissing(recv))?
            .fork(0);
        // Fault layer: wideband jammer bursts land on top of the mixed
        // window, drawn from a (receiver, period)-pure stream so they
        // never perturb the receiver's own forked noise sequence.
        let jammer = self.faults.and_then(|fspec| {
            fspec
                .jammer_power_at(self.cfg.seed, self.exchange)
                .map(|power| {
                    (
                        power,
                        fspec.jammer_noise_rng(self.cfg.seed, recv, self.exchange),
                    )
                })
        });
        jobs.push(RxJob {
            receiver: recv,
            overhear: matches!(intent.action, RxAction::Overhear),
            duration,
            noise,
            heard,
            tones,
            jammer,
        });
        Ok(None)
    }

    /// Applies a receive event — decoded in an RX stage on the
    /// intent's receiver — to the engine's accounting. Runs at fold
    /// position, so every metric and engine-state mutation keeps the
    /// serial intent order.
    fn apply_outcome(&mut self, intent: &RxIntent, evt: RxEvent) -> Result<(), EngineError> {
        let recv = intent.receiver;
        match &intent.action {
            RxAction::CaptureMixture { flows } => match evt {
                RxEvent::Relay { start, end, .. } => {
                    // The receiver's buffer still holds the window
                    // the relay detection ran on.
                    let window = self.park.take_window(recv)?;
                    self.mixture.insert(recv, (window, start, end));
                }
                _ => {
                    // Near-total overlap: neither header readable;
                    // every packet inside the mixture is lost
                    // (closed loop: every rider's attempt fails).
                    for _ in flows {
                        self.lose_open();
                    }
                }
            },
            RxAction::HoldClean => match clean_frame(evt) {
                Some(frame) => {
                    self.held.insert(recv, frame);
                }
                None => self.lose_open(),
            },
            RxAction::HoldRelay { from } => {
                let expected = self
                    .slot_frames
                    .get(from)
                    .ok_or(EngineError::SlotFrameMissing(*from))?
                    .clone();
                match evt {
                    RxEvent::Clean {
                        frame,
                        crc_ok: true,
                    } if frame.header.key() == expected.header.key() => {
                        self.held.insert(recv, frame);
                    }
                    RxEvent::AncDecoded {
                        frame, diagnostics, ..
                    } if frame.header.key() == expected.header.key() => {
                        // Fig. 12b's metric: BER where the interference
                        // first lands.
                        let b = ber(&frame.payload, &expected.payload);
                        self.metrics.record_ber(recv, b);
                        self.metrics.record_overlap(diagnostics.overlap_fraction);
                        self.held.insert(recv, frame);
                    }
                    _ => self.lose_open(),
                }
            }
            RxAction::DeliverAnc { flow, .. } => {
                let Some(theirs) = self.flows[*flow].round_frame.clone() else {
                    self.lose_open();
                    return Ok(());
                };
                match evt {
                    RxEvent::AncDecoded {
                        frame, diagnostics, ..
                    } if frame.header.key() == theirs.header.key() => {
                        let b = ber(&frame.payload, &theirs.payload);
                        let goodput = self.metrics.account.deliver(self.cfg.payload_bits, b);
                        self.metrics.record_ber(recv, b);
                        self.metrics.record_overlap(diagnostics.overlap_fraction);
                        self.mark_cl_delivered(*flow, goodput);
                    }
                    _ => self.lose_open(),
                }
            }
            RxAction::DeliverClean { flow, tag_receiver } => {
                let Some(theirs) = self.flows[*flow].round_frame.clone() else {
                    self.lose_open();
                    return Ok(());
                };
                match evt {
                    RxEvent::Clean { frame, .. } if frame.header.key() == theirs.header.key() => {
                        let b = ber(&frame.payload, &theirs.payload);
                        let goodput = self.metrics.account.deliver(self.cfg.payload_bits, b);
                        if *tag_receiver {
                            self.metrics.record_ber(recv, b);
                        } else {
                            self.metrics.record_untagged_ber(b);
                        }
                        self.mark_cl_delivered(*flow, goodput);
                    }
                    _ => self.lose_open(),
                }
            }
            RxAction::DeliverCope { flow, .. } => {
                // COPE downlink: XOR-decode a clean coded frame against
                // the receiver's own sent-packet buffer.
                let decoded = match evt {
                    RxEvent::Clean { frame, .. } if frame.header.is_xor() => CopeCoder
                        .decode(&frame, &self.park.get_mut(recv)?.buffer)
                        .ok(),
                    _ => None,
                };
                let Some(theirs) = self.flows[*flow].round_frame.clone() else {
                    self.lose_open();
                    return Ok(());
                };
                match decoded {
                    Some(dec) if dec.header.key() == theirs.header.key() => {
                        let b = ber(&dec.payload, &theirs.payload);
                        let goodput = self.metrics.account.deliver(self.cfg.payload_bits, b);
                        self.metrics.record_ber(recv, b);
                        self.mark_cl_delivered(*flow, goodput);
                    }
                    _ => self.lose_open(),
                }
            }
            RxAction::DeliverByKey { flow } => match evt {
                RxEvent::Clean { frame, .. } => {
                    let truth = self.flows[*flow]
                        .history
                        .iter()
                        .find(|s| s.header.key() == frame.header.key())
                        .cloned();
                    match truth {
                        Some(t) => {
                            let b = ber(&frame.payload, &t.payload);
                            let goodput = self.metrics.account.deliver(self.cfg.payload_bits, b);
                            self.mark_cl_delivered(*flow, goodput);
                            if let Some(cl) = self.cl.as_mut() {
                                cl.delivered_keys.push(frame.header.key());
                            }
                        }
                        None => self.lose_open(),
                    }
                }
                _ => self.lose_open(),
            },
            RxAction::CopeCapture { flow } => {
                if let Some(frame) = clean_frame(evt) {
                    self.cope_pending[*flow] = Some(frame);
                }
                // A missed uplink is charged when the XOR slot finds
                // the capture missing (both coded packets are lost).
            }
            RxAction::Overhear => {
                let got = matches!(evt, RxEvent::Clean { .. });
                self.heard.insert(recv, got);
            }
        }
        Ok(())
    }
}

/// Why a receive window never opened (mirrors the serial early returns);
/// its accounting applies at fold position.
enum RxSkip {
    /// Fault layer: the receiver is crashed or babbling.
    Down,
    /// Overhearing gate closed: §11.5, the interfered signal cannot be
    /// decoded without the overheard packet.
    GateLost,
    /// Nothing audible (or a relay with nothing to forward): the slot
    /// is silent for this receiver.
    Silent,
}

fn clean_frame(evt: RxEvent) -> Option<Frame> {
    match evt {
        RxEvent::Clean {
            frame,
            crc_ok: true,
        } => Some(frame),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    fn alice_bob_anc(impairments: Option<ImpairmentSpec>, seed: u64) -> (Program, RunConfig) {
        let mut spec = ScenarioSpec::alice_bob();
        if let Some(imp) = impairments {
            spec = spec.with_impairments(imp);
        }
        let program = spec.compile(Scheme::Anc).expect("alice_bob compiles");
        let cfg = RunConfig {
            packets_per_flow: 2,
            payload_bits: 512,
            ..RunConfig::quick(seed)
        };
        (program, cfg)
    }

    #[test]
    fn timing_slips_shift_the_stagger_in_both_directions() {
        // The Monte Carlo timing slip is signed: a late draw pushes
        // the triggered offset out, an early one pulls it toward the
        // slot origin (saturating at 0). The impairment stream is pure
        // in (seed, node, exchange), so the expected slip is
        // computable independently of the engine.
        let spec_imp = ImpairmentSpec::default().with_jitter(48.0);
        let (mut saw_negative, mut saw_positive) = (false, false);
        for seed in 0..40u64 {
            let (p_base, c_base) = alice_bob_anc(None, seed);
            let (p_imp, c_imp) = alice_bob_anc(Some(spec_imp), seed);
            let mut eb = Engine::new(&p_base, &c_base);
            let mut ei = Engine::new(&p_imp, &c_imp);
            let intent = &p_base.slots[0].txs[0];
            let slip = round_to_i64(
                spec_imp
                    .tx_process(seed, intent.sender as u64, 0)
                    .jitter_samples,
            );
            // The offset `run_slot` queues the transmission at.
            let offset = |e: &mut Engine<'_>, intent| {
                let (_, offset) = e
                    .resolve_tx(intent, SlotTiming::Triggered)
                    .unwrap()
                    .unwrap();
                offset as i64
            };
            let base_off = offset(&mut eb, intent);
            let expected = (base_off + slip).max(0);
            assert_eq!(
                offset(&mut ei, &p_imp.slots[0].txs[0]),
                expected,
                "seed {seed}: slip {slip} from base {base_off}"
            );
            if slip < 0 && base_off + slip >= 0 {
                saw_negative = true;
            }
            if slip > 0 {
                saw_positive = true;
            }
        }
        assert!(
            saw_negative && saw_positive,
            "both slip directions must be exercised (early {saw_negative}, late {saw_positive})"
        );
    }
}
