//! The declarative scenario layer.
//!
//! A [`ScenarioSpec`] is a [`TopologyGraph`] plus a list of
//! [`FlowSpec`]s — *what* the network looks like and *who talks to
//! whom*. [`ScenarioSpec::compile`] derives everything else: node
//! roles, router traffic knowledge, and the slot schedule (via the
//! shapes `anc-netcode::schedule` generalizes), producing the
//! [`Program`] the engine executes. The paper's three testbeds are
//! three small specs; new topologies are new specs, not new
//! simulators:
//!
//! * [`ScenarioSpec::parking_lot`] — a length-N chain (N relays), the
//!   pipelined-ANC throughput-vs-hop-count scenario;
//! * [`ScenarioSpec::asymmetric_x`] — the "X" with unequal overhearing
//!   gains, isolating §11.5's imperfect-overhearing loss mode;
//! * [`ScenarioSpec::random_mesh`] — nodes dropped uniformly in the
//!   unit square, distance-derived link gains, two crossing flows
//!   routed through the best-connected node.

use crate::engine::{
    Program, RoundMode, RxAction, RxIntent, SlotSpec, SlotTiming, TxIntent, TxSource,
};
use crate::faults::FaultSpec;
use crate::topology::{nodes, GraphLink, LinkClass, TopologyGraph};
use anc_channel::ImpairmentSpec;
use anc_dsp::DspRng;
use anc_frame::NodeId;
use anc_netcode::schedule::{alice_bob_flows, chain_flows, crossing_router, x_topology_flows};
use anc_netcode::{derive_plan, ArqConfig, FlowSpec, ScheduleError, Scheme, SlotPlan, SlotStep};
use anc_node::NodeRole;
use serde::{Deserialize, Serialize};

/// Why a scenario cannot be compiled for a scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The flow shape is unschedulable under the scheme.
    Schedule(ScheduleError),
    /// A route hop or required overhearing link is missing.
    MissingLink {
        /// Transmitting node of the missing link.
        from: NodeId,
        /// Receiving node of the missing link.
        to: NodeId,
        /// What needed it.
        needed_for: String,
    },
    /// Anything else (empty flows, malformed graph, sparse mesh…).
    Invalid(String),
    /// The compiled program failed while executing (see
    /// [`crate::engine::EngineError`]) — surfaced by the
    /// [`crate::RunBuilder`] path so one `?` covers compile *and* run.
    Engine(crate::engine::EngineError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Schedule(e) => write!(f, "{e}"),
            ScenarioError::MissingLink {
                from,
                to,
                needed_for,
            } => write!(f, "missing link {from}→{to} ({needed_for})"),
            ScenarioError::Invalid(s) => write!(f, "{s}"),
            ScenarioError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl From<ScheduleError> for ScenarioError {
    fn from(e: ScheduleError) -> Self {
        ScenarioError::Schedule(e)
    }
}

impl From<crate::engine::EngineError> for ScenarioError {
    fn from(e: crate::engine::EngineError) -> Self {
        ScenarioError::Engine(e)
    }
}

/// A declarative scenario: topology graph + traffic pattern.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSpec {
    /// Scenario name (reports, artifacts).
    pub name: String,
    /// The network.
    pub graph: TopologyGraph,
    /// The traffic.
    pub flows: Vec<FlowSpec>,
    /// Pool traditional-baseline BERs without tagging the receiving
    /// node. The Fig.-10 "X" baseline has always pooled its BERs
    /// anonymously (unlike Figs. 9/12, which tag), and the golden
    /// seeded-metric tests pin that behavior; new scenarios normally
    /// leave this `false`.
    pub untagged_traditional_bers: bool,
    /// Default time-varying channel/radio process for every link and
    /// sender (Monte Carlo sweeps); per-link
    /// [`crate::topology::GraphLink::impairment`] overrides beat it.
    /// `None` (the default) keeps the paper's static per-run channel —
    /// the golden seeded metrics pin that nothing changes.
    pub impairments: Option<ImpairmentSpec>,
    /// Closed-loop MAC/ARQ layer (§7.6/§11): `Some` compiles programs
    /// whose engine consults a dynamic scheduler each slot period —
    /// per-flow queues with the configured offered load, bounded
    /// retransmissions with backoff, implicit-ACK suppression, and
    /// carrier-sense serialization. `None` (the default) keeps the
    /// open-loop fixed-program engine, bit-identical to the goldens.
    pub arq: Option<ArqConfig>,
    /// Deterministic fault timeline (node churn, link blackouts,
    /// jammer bursts, stuck carriers — see [`FaultSpec`]). `None` or a
    /// passive spec keeps runs bit-identical to the goldens.
    pub faults: Option<FaultSpec>,
}

impl ScenarioSpec {
    fn new(name: &str, graph: TopologyGraph, flows: Vec<FlowSpec>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            graph,
            flows,
            untagged_traditional_bers: false,
            impairments: None,
            arq: None,
            faults: None,
        }
    }

    /// Attaches a default impairment process to every link and sender
    /// (see [`ImpairmentSpec`]); builder-style for sweep drivers.
    pub fn with_impairments(mut self, spec: ImpairmentSpec) -> ScenarioSpec {
        self.impairments = Some(spec);
        self
    }

    /// The Fig.-1 Alice-Bob scenario (§11.4).
    pub fn alice_bob() -> ScenarioSpec {
        ScenarioSpec::new("alice_bob", TopologyGraph::alice_bob(), alice_bob_flows())
    }

    /// The Fig.-2 chain scenario (§11.6).
    pub fn chain() -> ScenarioSpec {
        ScenarioSpec::new("chain", TopologyGraph::chain(), chain_flows())
    }

    /// The Fig.-11 "X" scenario (§11.5).
    pub fn x() -> ScenarioSpec {
        let mut s = ScenarioSpec::new("x", TopologyGraph::x(), x_topology_flows());
        s.untagged_traditional_bers = true;
        s
    }

    /// A parking-lot chain with `relays` decode-and-forward relays
    /// (`relays = 2` is the paper chain): the throughput-vs-hop-count
    /// scenario the pipelined ANC schedule keeps at one packet per two
    /// slots regardless of length.
    pub fn parking_lot(relays: usize) -> ScenarioSpec {
        let graph = TopologyGraph::parking_lot(relays);
        let flow = FlowSpec::along(graph.node_ids.clone());
        ScenarioSpec::new(&format!("parking_lot_{relays}"), graph, vec![flow])
    }

    /// The "X" topology with unequal overhearing gains: N2 overhears N1
    /// over a `strong` side link while N4 overhears N3 over a `weak`
    /// one, so the two flows see asymmetric §11.5 overhearing losses.
    pub fn asymmetric_x(strong: (f64, f64), weak: (f64, f64)) -> ScenarioSpec {
        use nodes::X1;
        let mut graph = TopologyGraph::x();
        graph.name = "asymmetric_x".to_string();
        for l in &mut graph.links {
            // The two Overhear-class links are X1→X2 and X3→X4; the
            // Weak-class cross-interference links stay untouched.
            if l.class == LinkClass::Overhear {
                let (lo, hi) = if l.from == X1 { strong } else { weak };
                l.class = LinkClass::Custom { lo, hi };
            }
        }
        ScenarioSpec::new("asymmetric_x", graph, x_topology_flows())
    }

    /// A random mesh with two crossing flows: `nodes` nodes uniform in
    /// the unit square, symmetric links between nodes within `radius`
    /// with distance-derived gain ranges, flows routed through the
    /// best-connected node, and overhearing side links provisioned
    /// where the crossing pair needs them (the §7.6 control plane
    /// arranging its neighborhood). Deterministic in `seed`.
    pub fn random_mesh(cfg: &MeshConfig) -> Result<ScenarioSpec, ScenarioError> {
        cfg.build()
    }

    /// Compiles this scenario for one scheme into an executable
    /// engine [`Program`].
    ///
    /// The slot *shapes* — which nodes transmit together in which
    /// order — come from [`derive_plan`], the single owner of schedule
    /// derivation; this compiler only *decorates* the derived plan
    /// with flow bookkeeping (who sources, who holds, who delivers,
    /// who must overhear), so the documented/tested `SlotPlan`s and
    /// the slots the engine executes can never disagree. A fault
    /// timeline that fails [`FaultSpec::check`] is
    /// [`ScenarioError::Invalid`].
    pub fn compile(&self, scheme: Scheme) -> Result<Program, ScenarioError> {
        self.check_routes()?;
        if let Some(faults) = &self.faults {
            faults.check().map_err(ScenarioError::Invalid)?;
        }
        let plan = derive_plan(&self.flows, scheme)?;
        let pair = crossing_router(&self.flows);
        let slots = match scheme {
            Scheme::Traditional => self.decorate_traditional(&plan)?,
            Scheme::Cope => self.decorate_cope(&plan)?,
            // derive_plan only schedules ANC as a crossing pair or a
            // single chain, so `pair` fully disambiguates here.
            Scheme::Anc if pair.is_some() => self.decorate_anc_pair(&plan)?,
            Scheme::Anc => self.decorate_anc_chain(&plan)?,
        };
        let rounds = match (scheme, &pair) {
            (Scheme::Anc, None) => RoundMode::UntilIdle,
            _ => RoundMode::PerPacket,
        };
        let track_history: Vec<bool> = (0..self.flows.len())
            .map(|fid| {
                slots.iter().any(|s| {
                    s.rxs
                        .iter()
                        .any(|r| r.action == RxAction::DeliverByKey { flow: fid })
                })
            })
            .collect();
        Ok(Program {
            name: self.name.clone(),
            scheme,
            graph: self.graph.clone(),
            roles: self.roles(pair),
            flow_pairs: pair
                .map(|_| {
                    vec![(
                        (self.flows[0].src, self.flows[0].dst),
                        (self.flows[1].src, self.flows[1].dst),
                    )]
                })
                .unwrap_or_default(),
            flows: self.flows.clone(),
            track_history,
            slots,
            rounds,
            impairments: self.impairments,
            arq: self.arq,
            faults: self.faults.clone(),
            solo_slots: if self.arq.is_some() {
                self.solo_slots()
            } else {
                Vec::new()
            },
        })
    }

    /// Per-flow serialized fallback slot sequences for the closed
    /// loop: when carrier sense gates the trigger protocol (a lone
    /// contender, the other flow idle or backing off), the ready flow
    /// falls back to clean store-and-forward along its own route —
    /// analog network coding degrades to plain relaying when there is
    /// nothing to interfere with.
    fn solo_slots(&self) -> Vec<Vec<SlotSpec>> {
        self.flows
            .iter()
            .enumerate()
            .map(|(fid, f)| {
                let hops = f.route.len() - 1;
                f.route
                    .windows(2)
                    .enumerate()
                    .map(|(hop, w)| SlotSpec {
                        timing: SlotTiming::Scheduled,
                        txs: vec![TxIntent {
                            sender: w[0],
                            source: if hop == 0 {
                                TxSource::SourceFrame { flow: fid }
                            } else {
                                TxSource::Forward
                            },
                        }],
                        rxs: vec![RxIntent {
                            receiver: w[1],
                            action: if hop == hops - 1 {
                                RxAction::DeliverClean {
                                    flow: fid,
                                    tag_receiver: !self.untagged_traditional_bers,
                                }
                            } else {
                                RxAction::HoldClean
                            },
                        }],
                    })
                    .collect()
            })
            .collect()
    }

    /// Every route hop must be a declared graph link.
    fn check_routes(&self) -> Result<(), ScenarioError> {
        for f in &self.flows {
            for hop in f.route.windows(2) {
                if !self.graph.connects(hop[0], hop[1]) {
                    return Err(ScenarioError::MissingLink {
                        from: hop[0],
                        to: hop[1],
                        needed_for: format!("route hop of flow {}→{}", f.src, f.dst),
                    });
                }
            }
            for &n in &f.route {
                if !self.graph.node_ids.contains(&n) {
                    return Err(ScenarioError::Invalid(format!(
                        "route node {n} is not in the graph"
                    )));
                }
            }
        }
        Ok(())
    }

    /// A derived plan step the decorators cannot map back onto this
    /// scenario's flows. Only reachable if [`derive_plan`] and a
    /// decorator drift apart — the error names both sides so the
    /// regression is obvious.
    fn plan_mismatch(&self, why: &str) -> ScenarioError {
        ScenarioError::Invalid(format!(
            "derived plan does not decorate onto scenario '{}': {why}",
            self.name
        ))
    }

    /// Node roles in `graph.node_ids` order: the crossing router
    /// amplify-forwards, route interiors decode-and-forward, everyone
    /// else is an endpoint. Roles describe the topology, not the
    /// scheme, matching the original testbed setup.
    fn roles(&self, pair: Option<NodeId>) -> Vec<NodeRole> {
        self.graph
            .node_ids
            .iter()
            .map(|&id| {
                if pair == Some(id) {
                    NodeRole::AmplifyRelay
                } else if self
                    .flows
                    .iter()
                    .any(|f| f.route[1..f.route.len() - 1].contains(&id))
                {
                    NodeRole::DecodeRelay
                } else {
                    NodeRole::Endpoint
                }
            })
            .collect()
    }

    /// Decorates the derived traditional plan: each unicast step is
    /// matched to the next pending hop of a flow (per-flow cursors
    /// replay the plan's own emission order), sourcing at the first
    /// hop, store-and-forwarding at interiors, delivering at the last.
    fn decorate_traditional(&self, plan: &SlotPlan) -> Result<Vec<SlotSpec>, ScenarioError> {
        let mut cursors = vec![0usize; self.flows.len()];
        let mut slots = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let SlotStep::Unicast { from, to } = step else {
                return Err(self.plan_mismatch("traditional plans contain only unicasts"));
            };
            let (fid, hop) = self
                .flows
                .iter()
                .enumerate()
                .find_map(|(i, f)| {
                    let c = cursors[i];
                    (c + 1 < f.route.len() && f.route[c] == *from && f.route[c + 1] == *to)
                        .then_some((i, c))
                })
                .ok_or_else(|| {
                    self.plan_mismatch(&format!("unicast {from}→{to} matches no pending hop"))
                })?;
            cursors[fid] += 1;
            let hops = self.flows[fid].route.len() - 1;
            let source = if hop == 0 {
                TxSource::SourceFrame { flow: fid }
            } else {
                TxSource::Forward
            };
            let action = if hop == hops - 1 {
                RxAction::DeliverClean {
                    flow: fid,
                    tag_receiver: !self.untagged_traditional_bers,
                }
            } else {
                RxAction::HoldClean
            };
            slots.push(SlotSpec {
                timing: SlotTiming::Scheduled,
                txs: vec![TxIntent {
                    sender: *from,
                    source,
                }],
                rxs: vec![RxIntent {
                    receiver: *to,
                    action,
                }],
            });
        }
        Ok(slots)
    }

    /// Which node must overhear flow `i`'s transmission so the *other*
    /// flow's destination can decode later; `None` when that
    /// destination is flow `i`'s own source (it sent the packet).
    fn overhearer_of(&self, i: usize) -> Option<NodeId> {
        let other_dst = self.flows[1 - i].dst;
        (other_dst != self.flows[i].src).then_some(other_dst)
    }

    fn require_overhear_link(&self, i: usize, listener: NodeId) -> Result<(), ScenarioError> {
        if self.graph.connects(self.flows[i].src, listener) {
            Ok(())
        } else {
            Err(ScenarioError::MissingLink {
                from: self.flows[i].src,
                to: listener,
                needed_for: format!("overhearing for the flow delivered at {listener}"),
            })
        }
    }

    /// Decorates the derived COPE plan — both uplinks (overheard where
    /// needed), then the XOR broadcast.
    fn decorate_cope(&self, plan: &SlotPlan) -> Result<Vec<SlotSpec>, ScenarioError> {
        let [SlotStep::Unicast { from: up0, .. }, SlotStep::Unicast { from: up1, .. }, SlotStep::XorBroadcast { router }] =
            plan.steps.as_slice()
        else {
            return Err(self.plan_mismatch("COPE plans are uplink, uplink, XOR broadcast"));
        };
        if [*up0, *up1] != [self.flows[0].src, self.flows[1].src] {
            return Err(self.plan_mismatch("COPE uplinks are the flow sources, in order"));
        }
        let mut slots = Vec::new();
        for i in 0..2 {
            let mut rxs = vec![RxIntent {
                receiver: *router,
                action: RxAction::CopeCapture { flow: i },
            }];
            if let Some(listener) = self.overhearer_of(i) {
                self.require_overhear_link(i, listener)?;
                rxs.push(RxIntent {
                    receiver: listener,
                    action: RxAction::Overhear,
                });
            }
            slots.push(SlotSpec {
                timing: SlotTiming::Scheduled,
                txs: vec![TxIntent {
                    sender: self.flows[i].src,
                    source: TxSource::SourceFrame { flow: i },
                }],
                rxs,
            });
        }
        slots.push(SlotSpec {
            timing: SlotTiming::Scheduled,
            txs: vec![TxIntent {
                sender: *router,
                source: TxSource::XorEncode { flows: [0, 1] },
            }],
            rxs: self.pair_delivery_rxs(|fid, gated| RxAction::DeliverCope { flow: fid, gated }),
        });
        Ok(slots)
    }

    /// Decorates the derived ANC crossing-pair plan — the
    /// trigger-elicited simultaneous slot (router captures the
    /// mixture, side nodes overhear), then the amplify-broadcast both
    /// destinations decode.
    fn decorate_anc_pair(&self, plan: &SlotPlan) -> Result<Vec<SlotSpec>, ScenarioError> {
        let [SlotStep::Simultaneous { senders }, SlotStep::AmplifyBroadcast { router }] =
            plan.steps.as_slice()
        else {
            return Err(self.plan_mismatch("ANC pair plans are simultaneous, amplify broadcast"));
        };
        if senders.as_slice() != [self.flows[0].src, self.flows[1].src] {
            return Err(self.plan_mismatch("simultaneous senders are the flow sources, in order"));
        }
        let mut rxs = vec![RxIntent {
            receiver: *router,
            action: RxAction::CaptureMixture { flows: vec![0, 1] },
        }];
        let mut listeners: Vec<NodeId> = Vec::new();
        for i in 0..2 {
            if let Some(listener) = self.overhearer_of(i) {
                self.require_overhear_link(i, listener)?;
                listeners.push(listener);
            }
        }
        listeners.sort_unstable();
        rxs.extend(listeners.into_iter().map(|l| RxIntent {
            receiver: l,
            action: RxAction::Overhear,
        }));
        Ok(vec![
            SlotSpec {
                timing: SlotTiming::Triggered,
                txs: (0..2)
                    .map(|i| TxIntent {
                        sender: self.flows[i].src,
                        source: TxSource::SourceFrame { flow: i },
                    })
                    .collect(),
                rxs,
            },
            SlotSpec {
                timing: SlotTiming::Scheduled,
                txs: vec![TxIntent {
                    sender: *router,
                    source: TxSource::AmplifyMixture,
                }],
                rxs: self.pair_delivery_rxs(|fid, gated| RxAction::DeliverAnc { flow: fid, gated }),
            },
        ])
    }

    /// Decorates the derived ANC chain plan (the alternating-parity
    /// pipeline — see [`derive_plan`]). The plan's sender sets carry
    /// all the scheduling decisions; this only attaches flow
    /// bookkeeping: position 0 sources, other senders forward, the
    /// destination collects by key, and a receiver whose downstream
    /// neighbor transmits in the same slot decodes the collision with
    /// its own forwarding history. For the 4-node paper chain this is
    /// exactly Fig. 2c.
    fn decorate_anc_chain(&self, plan: &SlotPlan) -> Result<Vec<SlotSpec>, ScenarioError> {
        let route = &self.flows[0].route;
        let last = route.len() - 1;
        let pos = |n: NodeId| route.iter().position(|&x| x == n);
        plan.steps
            .iter()
            .map(|step| {
                let (senders, timing) = match step {
                    SlotStep::Unicast { from, .. } => (vec![*from], SlotTiming::Scheduled),
                    SlotStep::Simultaneous { senders } => (senders.clone(), SlotTiming::Triggered),
                    _ => {
                        return Err(
                            self.plan_mismatch("chain plans interleave unicasts/simultaneous")
                        )
                    }
                };
                let mut txs = Vec::with_capacity(senders.len());
                let mut rxs = Vec::with_capacity(senders.len());
                for &sender in &senders {
                    let p = pos(sender).ok_or_else(|| {
                        self.plan_mismatch(&format!("sender {sender} is not on the route"))
                    })?;
                    txs.push(TxIntent {
                        sender,
                        source: if p == 0 {
                            TxSource::SourceFrame { flow: 0 }
                        } else {
                            TxSource::Forward
                        },
                    });
                    let r = p + 1;
                    let action = if r == last {
                        RxAction::DeliverByKey { flow: 0 }
                    } else if senders.contains(&route[r + 1]) {
                        // The downstream neighbor transmits in the same
                        // slot: this hop lands as a collision the
                        // receiver cancels with its forwarding history.
                        RxAction::HoldRelay { from: sender }
                    } else {
                        RxAction::HoldClean
                    };
                    rxs.push(RxIntent {
                        receiver: route[r],
                        action,
                    });
                }
                Ok(SlotSpec { timing, txs, rxs })
            })
            .collect()
    }

    /// Broadcast-delivery receptions for a crossing pair, ordered by
    /// node id (fixes the goodput accumulation order). A destination
    /// that had to overhear is gated on this round's overhearing
    /// success.
    fn pair_delivery_rxs(&self, action: impl Fn(usize, bool) -> RxAction) -> Vec<RxIntent> {
        let mut rxs: Vec<RxIntent> = (0..2)
            .map(|i| {
                let gated = self.flows[i].dst != self.flows[1 - i].src;
                RxIntent {
                    receiver: self.flows[i].dst,
                    action: action(i, gated),
                }
            })
            .collect();
        rxs.sort_by_key(|r| r.receiver);
        rxs
    }
}

// Hand-written so missing `impairments` / `arq` keys read as `None`:
// both fields arrived after ScenarioSpec's JSON shape was first
// published, and the vendored derive would reject pre-impairment (or
// pre-ARQ) scenario artifacts with a missing-field error instead of
// loading them.
impl Deserialize for ScenarioSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(obj) = v else {
            return Err(serde::Error::type_mismatch("object", v));
        };
        let get = |key: &str| obj.get(key).ok_or_else(|| serde::Error::missing_field(key));
        Ok(ScenarioSpec {
            name: Deserialize::from_value(get("name")?)?,
            graph: Deserialize::from_value(get("graph")?)?,
            flows: Deserialize::from_value(get("flows")?)?,
            untagged_traditional_bers: Deserialize::from_value(get("untagged_traditional_bers")?)?,
            impairments: match obj.get("impairments") {
                None => None,
                Some(v) => Deserialize::from_value(v)?,
            },
            arq: match obj.get("arq") {
                None => None,
                Some(v) => Deserialize::from_value(v)?,
            },
            faults: match obj.get("faults") {
                None => None,
                Some(v) => Deserialize::from_value(v)?,
            },
        })
    }
}

/// Parameters of the random-mesh scenario generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Nodes dropped in the unit square.
    pub nodes: usize,
    /// Radio range: nodes closer than this are linked.
    pub radius: f64,
    /// Placement seed (the run seed then draws the channels).
    pub seed: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            nodes: 14,
            radius: 0.42,
            seed: 1,
        }
    }
}

impl MeshConfig {
    fn build(&self) -> Result<ScenarioSpec, ScenarioError> {
        if !(5..=120).contains(&self.nodes) {
            return Err(ScenarioError::Invalid(format!(
                "mesh wants 5..=120 nodes, got {}",
                self.nodes
            )));
        }
        let mut rng = DspRng::seed_from(self.seed);
        let base: usize = 100;
        let ids: Vec<NodeId> = (0..self.nodes).map(|i| (base + i) as NodeId).collect();
        let pos: Vec<(f64, f64)> = (0..self.nodes)
            .map(|_| (rng.uniform(), rng.uniform()))
            .collect();
        let mut links = Vec::new();
        for i in 0..self.nodes {
            for j in i + 1..self.nodes {
                let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
                let d = (dx * dx + dy * dy).sqrt();
                if d <= self.radius {
                    // Nearer links are stronger: map distance to a gain
                    // band inside the main-link regime. The band floor
                    // stays above ~0.45 so even a radius-edge link
                    // clears the §7.1 packet detector's 20 dB energy
                    // gate at the default 1e-3 noise floor (a weaker
                    // link is "out of range" — drop it instead).
                    let mid = 0.55 + 0.4 * (1.0 - d / self.radius);
                    links.push(GraphLink::sym(
                        ids[i],
                        ids[j],
                        LinkClass::Custom {
                            lo: mid - 0.08,
                            hi: mid + 0.04,
                        },
                    ));
                }
            }
        }
        // The crossing router: the best-connected node (ties break to
        // the lowest id for determinism).
        let mut degree = vec![0usize; self.nodes];
        for l in &links {
            degree[l.from as usize - base] += 1;
            degree[l.to as usize - base] += 1;
        }
        let router_idx = (0..self.nodes)
            .max_by_key(|&i| (degree[i], usize::MAX - i))
            .expect("nodes exist");
        let router = ids[router_idx];
        let mut neighbors: Vec<NodeId> = links
            .iter()
            .filter_map(|l| {
                if l.from == router {
                    Some(l.to)
                } else if l.to == router {
                    Some(l.from)
                } else {
                    None
                }
            })
            .collect();
        neighbors.sort_unstable();
        if neighbors.len() < 4 {
            return Err(ScenarioError::Invalid(format!(
                "mesh too sparse: router {router} has only {} neighbors (raise radius or nodes)",
                neighbors.len()
            )));
        }
        let (x1, x2, x3, x4) = (neighbors[0], neighbors[1], neighbors[2], neighbors[3]);
        let mut graph = TopologyGraph {
            name: format!("mesh_n{}_s{}", self.nodes, self.seed),
            node_ids: ids,
            links,
            positions: None,
        };
        // Provision the overhearing side links the crossing pair needs
        // (§7.6's control plane arranging the neighborhood) unless the
        // mesh already has them.
        for (from, to) in [(x1, x2), (x3, x4)] {
            if !graph.connects(from, to) {
                graph
                    .links
                    .push(GraphLink::dir(from, to, LinkClass::Overhear));
            }
        }
        // Attach the placement geometry so realizations gate
        // superposition through the spatial grid. The audibility range
        // must cover every *declared* link — including the provisioned
        // overhear links, which may exceed the mesh radius — so gating
        // stays bit-identical to the dense reference.
        let dist = |a: NodeId, b: NodeId| {
            let (pa, pb) = (pos[a as usize - base], pos[b as usize - base]);
            let (dx, dy) = (pa.0 - pb.0, pa.1 - pb.1);
            (dx * dx + dy * dy).sqrt()
        };
        let mut range = self.radius;
        for l in &graph.links {
            range = range.max(dist(l.from, l.to));
        }
        // The gate compares squared distances, and squaring the rounded
        // sqrt of the extremal link's d² can land just *below* d² —
        // which would gate out that one link. A relative nudge keeps
        // every declared link strictly inside.
        range *= 1.0 + 1e-9;
        graph = graph.with_positions(pos, range);
        let flows = vec![
            FlowSpec::along(vec![x1, router, x4]),
            FlowSpec::along(vec![x3, router, x2]),
        ];
        Ok(ScenarioSpec::new(&graph.name.clone(), graph, flows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::metrics::RunMetrics;
    use crate::pipeline::{RunCtx, SchedulerSpec};
    use crate::runs::RunConfig;

    fn quick_cfg(seed: u64) -> RunConfig {
        RunConfig {
            packets_per_flow: 6,
            payload_bits: 2048,
            ..RunConfig::quick(seed)
        }
    }

    fn exec(p: &Program, cfg: &RunConfig) -> RunMetrics {
        Engine::try_run_ctx(p, cfg, &SchedulerSpec::default(), &mut RunCtx::default())
            .expect("program executes")
    }

    #[test]
    fn canonical_specs_compile_for_all_schemes() {
        for scheme in [Scheme::Traditional, Scheme::Cope, Scheme::Anc] {
            assert!(
                ScenarioSpec::alice_bob().compile(scheme).is_ok(),
                "{scheme:?}"
            );
            assert!(ScenarioSpec::x().compile(scheme).is_ok(), "{scheme:?}");
        }
        for scheme in [Scheme::Traditional, Scheme::Anc] {
            assert!(ScenarioSpec::chain().compile(scheme).is_ok(), "{scheme:?}");
        }
        assert!(matches!(
            ScenarioSpec::chain().compile(Scheme::Cope),
            Err(ScenarioError::Schedule(_))
        ));
    }

    #[test]
    fn alice_bob_anc_program_shape() {
        use nodes::{ALICE, BOB, ROUTER};
        let p = ScenarioSpec::alice_bob().compile(Scheme::Anc).unwrap();
        assert_eq!(p.slots.len(), 2);
        assert_eq!(p.slots[0].timing, SlotTiming::Triggered);
        assert_eq!(p.slots[0].txs.len(), 2);
        assert_eq!(p.slots[1].txs[0].sender, ROUTER);
        // Deliveries ordered by node id, ungated (each endpoint sent
        // the interfering packet itself).
        assert_eq!(
            p.slots[1].rxs,
            vec![
                RxIntent {
                    receiver: ALICE,
                    action: RxAction::DeliverAnc {
                        flow: 1,
                        gated: false
                    }
                },
                RxIntent {
                    receiver: BOB,
                    action: RxAction::DeliverAnc {
                        flow: 0,
                        gated: false
                    }
                },
            ]
        );
        assert_eq!(p.rounds, RoundMode::PerPacket);
    }

    #[test]
    fn x_anc_program_is_gated_and_overhears() {
        use nodes::{X2, X4};
        let p = ScenarioSpec::x().compile(Scheme::Anc).unwrap();
        let overhears: Vec<NodeId> = p.slots[0]
            .rxs
            .iter()
            .filter(|r| r.action == RxAction::Overhear)
            .map(|r| r.receiver)
            .collect();
        assert_eq!(overhears, vec![X2, X4]);
        assert!(p.slots[1]
            .rxs
            .iter()
            .all(|r| matches!(r.action, RxAction::DeliverAnc { gated: true, .. })));
    }

    #[test]
    fn chain_program_matches_fig2c() {
        use nodes::{N1, N2, N3, N4};
        let p = ScenarioSpec::chain().compile(Scheme::Anc).unwrap();
        assert_eq!(p.rounds, RoundMode::UntilIdle);
        assert_eq!(p.slots.len(), 2);
        // Slot A: the lone N2→N3 forward, a scheduled clean hop.
        assert_eq!(p.slots[0].timing, SlotTiming::Scheduled);
        assert_eq!(
            p.slots[0].txs,
            vec![TxIntent {
                sender: N2,
                source: TxSource::Forward
            }]
        );
        assert_eq!(
            p.slots[0].rxs,
            vec![RxIntent {
                receiver: N3,
                action: RxAction::HoldClean
            }]
        );
        // Slot B: N1 + N3 interfere at N2; N4 receives the delivery.
        assert_eq!(p.slots[1].timing, SlotTiming::Triggered);
        assert_eq!(
            p.slots[1].rxs,
            vec![
                RxIntent {
                    receiver: N2,
                    action: RxAction::HoldRelay { from: N1 }
                },
                RxIntent {
                    receiver: N4,
                    action: RxAction::DeliverByKey { flow: 0 }
                },
            ]
        );
        assert!(p.track_history[0]);
    }

    #[test]
    fn parking_lot_compiles_and_runs_end_to_end() {
        let spec = ScenarioSpec::parking_lot(4);
        let p = spec.compile(Scheme::Anc).unwrap();
        assert_eq!(p.slots.len(), 2);
        // Enough packets that the pipeline's fill/drain transient
        // (~one period per relay) amortizes and the steady-state
        // 2-slots-per-packet rate shows through.
        let cfg = RunConfig {
            packets_per_flow: 18,
            ..quick_cfg(21)
        };
        let m = exec(&p, &cfg);
        assert!(
            m.account.delivered >= cfg.packets_per_flow / 2,
            "parking lot delivered {}/{}",
            m.account.delivered,
            cfg.packets_per_flow
        );
        let t = exec(&spec.compile(Scheme::Traditional).unwrap(), &cfg);
        assert_eq!(t.account.delivered, cfg.packets_per_flow);
        assert!(
            m.account.throughput() > t.account.throughput(),
            "pipelined ANC must beat store-and-forward on a long chain \
             ({} vs {})",
            m.account.throughput(),
            t.account.throughput()
        );
    }

    #[test]
    fn asymmetric_x_runs_and_skews_deliveries() {
        use nodes::{X2, X4};
        let spec = ScenarioSpec::asymmetric_x((0.8, 0.95), (0.18, 0.3));
        let cfg = RunConfig {
            packets_per_flow: 12,
            payload_bits: 2048,
            ..RunConfig::quick(4)
        };
        let m = exec(&spec.compile(Scheme::Anc).unwrap(), &cfg);
        // The strongly-overheard side (X2 decodes flow 1) must deliver
        // at least as much as the weakly-overheard side.
        let at_x2 = m.bers_at(X2).count();
        let at_x4 = m.bers_at(X4).count();
        assert!(
            at_x2 >= at_x4,
            "strong side delivered {at_x2} < weak side {at_x4}"
        );
        assert!(at_x2 > 0, "strong side never delivered");
    }

    #[test]
    fn random_mesh_is_deterministic_and_runs() {
        let spec1 = ScenarioSpec::random_mesh(&MeshConfig::default()).unwrap();
        let spec2 = ScenarioSpec::random_mesh(&MeshConfig::default()).unwrap();
        assert_eq!(spec1.graph.node_ids, spec2.graph.node_ids);
        assert_eq!(spec1.flows, spec2.flows);
        let cfg = quick_cfg(9);
        let a = exec(&spec1.compile(Scheme::Anc).unwrap(), &cfg);
        let b = exec(&spec2.compile(Scheme::Anc).unwrap(), &cfg);
        assert_eq!(
            a.account.goodput_bits.to_bits(),
            b.account.goodput_bits.to_bits()
        );
        assert_eq!(a.packet_bers, b.packet_bers);
        assert!(a.account.delivered + a.account.lost > 0);
    }

    #[test]
    fn mesh_rejects_degenerate_configs() {
        assert!(ScenarioSpec::random_mesh(&MeshConfig {
            nodes: 2,
            ..Default::default()
        })
        .is_err());
        assert!(ScenarioSpec::random_mesh(&MeshConfig {
            nodes: 6,
            radius: 0.01,
            seed: 1,
        })
        .is_err());
    }

    #[test]
    fn compiled_slots_project_onto_derived_plans() {
        // The engine executes exactly the slot shapes derive_plan
        // documents: for every scenario × scheme, the compiled
        // program's per-slot sender lists equal the plan's steps.
        let specs = [
            ScenarioSpec::alice_bob(),
            ScenarioSpec::x(),
            ScenarioSpec::chain(),
            ScenarioSpec::parking_lot(1),
            ScenarioSpec::parking_lot(5),
            ScenarioSpec::random_mesh(&MeshConfig::default()).unwrap(),
        ];
        for spec in &specs {
            for scheme in [Scheme::Traditional, Scheme::Cope, Scheme::Anc] {
                let Ok(plan) = derive_plan(&spec.flows, scheme) else {
                    assert!(spec.compile(scheme).is_err(), "{} {scheme:?}", spec.name);
                    continue;
                };
                let program = spec.compile(scheme).unwrap();
                assert_eq!(program.slots.len(), plan.steps.len(), "{}", spec.name);
                for (slot, step) in program.slots.iter().zip(&plan.steps) {
                    let senders: Vec<NodeId> = slot.txs.iter().map(|t| t.sender).collect();
                    let expected: Vec<NodeId> = match step {
                        SlotStep::Unicast { from, .. } => vec![*from],
                        SlotStep::XorBroadcast { router }
                        | SlotStep::AmplifyBroadcast { router } => vec![*router],
                        SlotStep::Simultaneous { senders } => senders.clone(),
                    };
                    assert_eq!(senders, expected, "{} {scheme:?}", spec.name);
                }
            }
        }
    }

    #[test]
    fn compile_rejects_missing_route_links() {
        use nodes::{ALICE, BOB, ROUTER};
        let mut spec = ScenarioSpec::alice_bob();
        spec.flows = vec![
            FlowSpec::along(vec![ALICE, BOB]), // no such link
            FlowSpec::along(vec![BOB, ROUTER, ALICE]),
        ];
        assert!(matches!(
            spec.compile(Scheme::Traditional),
            Err(ScenarioError::MissingLink { .. })
        ));
    }

    #[test]
    fn scenario_spec_serde_roundtrip() {
        let spec =
            ScenarioSpec::x().with_impairments(ImpairmentSpec::rayleigh_fading().with_cfo(0.01));
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.flows, spec.flows);
        assert!(back.untagged_traditional_bers);
        assert_eq!(back.impairments, spec.impairments);
        assert!(back.compile(Scheme::Anc).is_ok());
    }

    #[test]
    fn pre_impairment_scenario_json_still_loads() {
        use serde::{Deserialize as _, Serialize as _};
        let mut v = ScenarioSpec::x().to_value();
        // The JSON shape published before the Monte Carlo layer.
        if let serde::Value::Object(obj) = &mut v {
            obj.remove("impairments");
        }
        let back = ScenarioSpec::from_value(&v).unwrap();
        assert!(back.impairments.is_none());
        assert!(back.compile(Scheme::Anc).is_ok());
    }

    #[test]
    fn pre_fault_scenario_json_still_loads() {
        use serde::{Deserialize as _, Serialize as _};
        let mut v = ScenarioSpec::alice_bob().to_value();
        // The JSON shape published before the fault layer.
        if let serde::Value::Object(obj) = &mut v {
            obj.remove("faults");
        }
        let back = ScenarioSpec::from_value(&v).unwrap();
        assert!(back.faults.is_none());
        assert!(back.compile(Scheme::Anc).is_ok());
    }

    #[test]
    fn scenario_json_with_the_retired_metrics_knob_still_loads() {
        use serde::{Deserialize as _, Serialize as _};
        let plain = ScenarioSpec::alice_bob();
        let mut v = plain.to_value();
        // A spec saved while it still carried the streaming-metrics
        // switch, set.
        if let serde::Value::Object(obj) = &mut v {
            obj.insert(
                concat!("streaming", "_metrics").to_string(),
                serde::Value::Bool(true),
            );
        }
        let back = ScenarioSpec::from_value(&v).unwrap();
        assert_eq!(format!("{back:?}"), format!("{plain:?}"));
    }

    #[test]
    fn fault_spec_roundtrips_through_scenario_json() {
        let mut spec = ScenarioSpec::alice_bob();
        spec.faults = Some(FaultSpec::none().with_crashes(0.1, 4).with_queue_drop(true));
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, spec.faults);
    }
}
