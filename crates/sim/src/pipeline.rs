//! The block-graph streaming runtime behind the engine.
//!
//! DESIGN.md §14: one run is executed as a small dataflow graph with
//! one block per node (`NodeBlock`), each wired to the controller by
//! one job ring and one output ring of depth 1, and driven by a
//! pluggable [`anc_runtime::Scheduler`]. A node block runs the Fig. 8
//! chain of its node: TX synthesis ([`anc_node::synthesize`]), the
//! receive window's superposition ([`anc_channel::mix_window`]) and
//! the RX decode. The engine's slot loop stays the sequential
//! *controller*: it resolves everything stateful (RNG draws, queue
//! state, metric mutations) in intent order, ships pure jobs into the
//! rings, and folds outcomes back in intent order. Because every block
//! computes a pure function of its ring traffic and per-node rings are
//! FIFO, the deterministic and work-stealing executors produce
//! bit-identical [`RunMetrics`] (pinned by the golden suites and a
//! scheduler-equivalence proptest).
//!
//! [`RunMetrics`]: crate::metrics::RunMetrics

use crate::engine::EngineError;
use anc_channel::{mix_window, WindowJob};
use anc_core::DecoderScratch;
use anc_dsp::Cplx;
use anc_frame::{Frame, NodeId};
use anc_netcode::CopeCoder;
use anc_node::phy::{RxEvent, TxChain};
use anc_node::{synthesize, FrontEnd, Node, SynthJob};
use anc_runtime::{
    channel, Block, BlockStatus, Consumer, Controller, DeterministicScheduler, Producer, Pump,
    Scheduler, WorkStealingScheduler,
};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Depth of every ring between the controller and a block. The
/// controller collects a slot's waveforms before it opens any window,
/// and folds a receiver's window before it opens another, so a deeper
/// ring would buy no overlap; on a full ring the controller pumps the
/// graph until it drains.
const RING_DEPTH: usize = 1;

/// A controller-to-block ring pair at [`RING_DEPTH`].
pub(crate) fn ring<T>() -> (Producer<T>, Consumer<T>) {
    channel(RING_DEPTH)
}

/// Which executor runs the block graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Everything inline on the calling thread, blocks polled in
    /// insertion order — the bit-reproducible reference executor (and
    /// the right choice inside an already-parallel Monte Carlo pool).
    /// Also the deadlock oracle: a wired-graph stall surfaces as
    /// [`EngineError::PipelineStalled`] instead of a hang.
    #[default]
    Deterministic,
    /// Scoped worker threads steal block polls so one run pipelines
    /// across cores. Produces bit-identical metrics (blocks are pure
    /// functions of FIFO ring traffic).
    WorkStealing {
        /// Total threads, including the controller's; clamped to ≥ 1.
        workers: usize,
    },
}

/// How the engine executes a run: which scheduler drives the block
/// graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerSpec {
    /// The executor.
    pub mode: SchedMode,
}

impl SchedulerSpec {
    /// The inline, bit-reproducible reference executor.
    pub fn deterministic() -> Self {
        SchedulerSpec::default()
    }

    /// A work-stealing executor with `workers` total threads.
    pub fn work_stealing(workers: usize) -> Self {
        SchedulerSpec {
            mode: SchedMode::WorkStealing { workers },
        }
    }

    /// Runs `controller` alongside `blocks` on the executor this spec
    /// selects — the one dispatch point shared by every block-graph
    /// client (the engine's node blocks, the city engine's region
    /// blocks), so mode matching lives in exactly one place.
    pub fn run_blocks<'env, R>(
        &self,
        blocks: Vec<Box<dyn Block + 'env>>,
        controller: Controller<'env, R>,
    ) -> R {
        match self.mode {
            SchedMode::Deterministic => DeterministicScheduler.run(blocks, controller),
            SchedMode::WorkStealing { workers } => {
                WorkStealingScheduler::new(workers).run(blocks, controller)
            }
        }
    }
}

/// Reusable per-run scratch owned by the caller: warmed decoder
/// working memory loaned into the engine's nodes for the duration of a
/// run (in `node_ids` order) and taken back after, grown. Feeding many
/// runs through one `RunCtx` amortizes decode allocations across
/// *trials*.
///
/// Scratch contents never affect decode output (pinned by the sim's
/// equivalence tests); only where the buffers' capacity lives.
#[derive(Debug, Default)]
pub struct RunCtx {
    pub(crate) scratches: Vec<DecoderScratch>,
}

/// The engine's nodes, parked in `Mutex` cells so node blocks can
/// borrow them from worker threads while the controller keeps mutable
/// access to everything else. Per-node access is exclusive; the
/// slot-end fold barrier orders cross-thread handoffs.
#[derive(Debug, Default)]
pub(crate) struct NodePark {
    cells: Vec<Mutex<Node>>,
    index: HashMap<NodeId, usize>,
}

impl NodePark {
    pub(crate) fn new(nodes: Vec<(NodeId, Node)>) -> Self {
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        NodePark {
            cells: nodes.into_iter().map(|(_, n)| Mutex::new(n)).collect(),
            index,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn index_of(&self, id: NodeId) -> Result<usize, EngineError> {
        self.index
            .get(&id)
            .copied()
            .ok_or(EngineError::NodeMissing(id))
    }

    /// Locks a node cell by index. Poisoning cannot leave node state
    /// half-written (poll panics unwind out of the engine anyway), so
    /// a poisoned lock is recovered rather than propagated.
    pub(crate) fn lock_at(&self, i: usize) -> MutexGuard<'_, Node> {
        self.cells[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn lock(&self, id: NodeId) -> Result<MutexGuard<'_, Node>, EngineError> {
        Ok(self.lock_at(self.index_of(id)?))
    }
}

/// What a node block should do with a reception window — resolved by
/// the engine in intent order and shipped with the window's job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RxWork {
    /// Standard receiver poll; the outcome is folded by the engine.
    Poll,
    /// Router mixture capture: on a relay detection, hand back the
    /// window copy and packet region (§7.5).
    Capture,
    /// COPE downlink: poll, and XOR-decode against the node's own
    /// sent-packet buffer when a clean XOR frame lands.
    Cope,
    /// Promiscuous overhearing (§11.5): decode leniently, buffer the
    /// frame, report success.
    Overhear,
}

/// A node block's decode outcome, matched one-to-one with the
/// [`RxWork`] kind that requested it.
#[derive(Debug)]
pub(crate) enum RxDone {
    /// The receiver's poll event, for the engine to account.
    Evt(RxEvent),
    /// Captured mixture window and packet region, if the relay
    /// detection succeeded.
    Capture(Option<(Vec<Cplx>, usize, usize)>),
    /// The XOR-decoded native frame, if any.
    Cope(Option<Frame>),
    /// Whether the overhear decoded a frame.
    Heard(bool),
}

/// Runs one unit of RX work against a locked node — the exact decode
/// calls of the engine's serial path, minus the accounting (which the
/// engine folds in intent order).
fn run_rx_work(node: &mut Node, work: RxWork, window: &[Cplx]) -> RxDone {
    match work {
        RxWork::Poll => RxDone::Evt(node.poll(window)),
        RxWork::Capture => match node.poll(window) {
            RxEvent::Relay { start, end, .. } => {
                RxDone::Capture(Some((window.to_vec(), start, end)))
            }
            _ => RxDone::Capture(None),
        },
        RxWork::Cope => {
            let decoded = match node.poll(window) {
                RxEvent::Clean { frame, .. } if frame.header.is_xor() => {
                    CopeCoder.decode(&frame, &node.buffer).ok()
                }
                _ => None,
            };
            RxDone::Cope(decoded)
        }
        RxWork::Overhear => RxDone::Heard(node.try_overhear(window).is_some()),
    }
}

/// One job for a node's block, resolved by the engine in intent order.
#[derive(Debug)]
pub(crate) enum NodeJob {
    /// Synthesize one transmission; answered by [`NodeOut::Wave`].
    Tx(SynthJob),
    /// Mix one reception window and run `work` on it; answered by
    /// [`NodeOut::Rx`] carrying the same `tag`.
    Rx {
        /// The receive intent's index within its slot.
        tag: u64,
        /// What the decode does with the mixed window.
        work: RxWork,
        /// The window's pure superposition job.
        window: WindowJob,
    },
}

/// A node block's answer to one [`NodeJob`], in job order.
#[derive(Debug)]
pub(crate) enum NodeOut {
    /// The on-air waveform of a [`NodeJob::Tx`].
    Wave(Vec<Cplx>),
    /// The tagged outcome of a [`NodeJob::Rx`].
    Rx(u64, RxDone),
}

/// One node's Fig. 8 chain as a block: synthesizes its transmissions
/// with a clone of its TX chain and front end, and mixes its reception
/// windows into one reused buffer before decoding them under the park
/// lock. The staged output makes backpressure safe: an answer that
/// does not fit its ring is retried before the next job is popped.
pub(crate) struct NodeBlock<'env> {
    park: &'env NodePark,
    node_idx: usize,
    chain: TxChain,
    front_end: FrontEnd,
    window: Vec<Cplx>,
    jobs: Consumer<NodeJob>,
    out: Producer<NodeOut>,
    staged: Option<NodeOut>,
}

impl NodeBlock<'_> {
    fn run(&mut self, job: NodeJob) -> NodeOut {
        match job {
            NodeJob::Tx(job) => NodeOut::Wave(synthesize(&self.chain, &self.front_end, job)),
            NodeJob::Rx { tag, work, window } => {
                mix_window(window, &mut self.window);
                let mut node = self.park.lock_at(self.node_idx);
                NodeOut::Rx(tag, run_rx_work(&mut node, work, &self.window))
            }
        }
    }
}

impl Block for NodeBlock<'_> {
    fn name(&self) -> &str {
        "node"
    }

    fn poll(&mut self) -> BlockStatus {
        let mut progressed = false;
        loop {
            if let Some(out) = self.staged.take() {
                if let Err(out) = self.out.try_push(out) {
                    self.staged = Some(out);
                    break;
                }
                progressed = true;
            }
            let Some(job) = self.jobs.try_pop() else {
                break;
            };
            self.staged = Some(self.run(job));
        }
        if progressed {
            BlockStatus::Progress
        } else {
            BlockStatus::Idle
        }
    }
}

/// The controller's handle on one node's block.
pub(crate) struct NodePort {
    pub(crate) jobs: Producer<NodeJob>,
    pub(crate) out: Consumer<NodeOut>,
}

/// The controller-side context threaded through the engine's slot
/// loop: the parked nodes, one port per node (park order), and the
/// scheduler's pump for driving progress while a ring blocks.
pub(crate) struct SlotDriver<'a, 'env> {
    pub(crate) park: &'env NodePark,
    pub(crate) ports: &'a mut [NodePort],
    pub(crate) pump: &'a mut dyn Pump,
}

/// Builds the block graph over parked nodes: one [`NodeBlock`] per
/// node, in park order, each owning clones of its node's TX chain and
/// front end and borrowing the park for decodes.
pub(crate) fn build_graph(park: &NodePark) -> (Vec<Box<dyn Block + '_>>, Vec<NodePort>) {
    let n = park.len();
    let mut blocks: Vec<Box<dyn Block + '_>> = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for node_idx in 0..n {
        let (chain, front_end) = {
            let node = park.lock_at(node_idx);
            (node.tx_chain().clone(), node.front_end)
        };
        let (jobs, jobs_in) = ring();
        let (out_tx, out) = ring();
        blocks.push(Box::new(NodeBlock {
            park,
            node_idx,
            chain,
            front_end,
            window: Vec::new(),
            jobs: jobs_in,
            out: out_tx,
            staged: None,
        }));
        ports.push(NodePort { jobs, out });
    }
    (blocks, ports)
}

/// The block graph could not advance while the controller waited on a
/// ring: a wired-graph deadlock, which each graph client reports as its
/// own `PipelineStalled` error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stalled;

impl From<Stalled> for EngineError {
    fn from(_: Stalled) -> Self {
        EngineError::PipelineStalled
    }
}

/// Pushes into a ring, pumping the graph while it is full. A
/// deterministic pump reporting no possible progress is a wired-graph
/// deadlock, surfaced as [`Stalled`] (after one final retry, since the
/// controller itself may have freed space).
pub(crate) fn wait_push<T>(
    ring: &mut Producer<T>,
    mut value: T,
    pump: &mut dyn Pump,
) -> Result<(), Stalled> {
    loop {
        match ring.try_push(value) {
            Ok(()) => return Ok(()),
            Err(back) => {
                value = back;
                if !pump.pump() {
                    return ring.try_push(value).map_err(|_| Stalled);
                }
            }
        }
    }
}

/// Pops from a ring, pumping the graph while it is empty. See
/// [`wait_push`] for the stall contract.
pub(crate) fn wait_pop<T>(ring: &mut Consumer<T>, pump: &mut dyn Pump) -> Result<T, Stalled> {
    loop {
        if let Some(v) = ring.try_pop() {
            return Ok(v);
        }
        if !pump.pump() {
            return ring.try_pop().ok_or(Stalled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use anc_frame::Header;
    use anc_node::{NodeConfig, NodeRole, SynthSource};

    fn park_of(n: usize) -> NodePark {
        let nodes = (0..n as NodeId)
            .map(|id| {
                let cfg = NodeConfig::new(id, NodeRole::Endpoint);
                (id, Node::new(cfg, DspRng::seed_from(id as u64)))
            })
            .collect();
        NodePark::new(nodes)
    }

    #[test]
    fn park_indexes_by_node_id() {
        let park = park_of(3);
        assert_eq!(park.len(), 3);
        assert_eq!(park.index_of(2).unwrap(), 2);
        assert!(matches!(park.index_of(9), Err(EngineError::NodeMissing(9))));
        assert_eq!(park.lock(1).unwrap().id, 1);
    }

    #[test]
    fn graph_has_one_block_per_node() {
        let park = park_of(3);
        let (blocks, ports) = build_graph(&park);
        assert_eq!(blocks.len(), 3);
        assert_eq!(ports.len(), 3);
        assert!(blocks.iter().all(|b| b.name() == "node"));
    }

    #[test]
    fn node_block_stages_behind_a_full_output_ring() {
        let park = park_of(1);
        let (mut blocks, mut ports) = build_graph(&park);
        let (block, port) = (&mut blocks[0], &mut ports[0]);
        let (chain, front_end) = {
            let node = park.lock_at(0);
            (node.tx_chain().clone(), node.front_end)
        };
        let tx = |phase: f64| SynthJob {
            source: SynthSource::Frame(Frame::new(Header::new(0, 1, 3, 0), vec![true, false])),
            carrier_phase: phase,
            cfo: 0.0,
        };
        let rx = NodeJob::Rx {
            tag: 5,
            work: RxWork::Poll,
            window: WindowJob {
                duration: 32,
                noise_power: 1e-3,
                noise: DspRng::seed_from(9),
                transmissions: Vec::new(),
                tones: Vec::new(),
                jammer: None,
            },
        };

        port.jobs.try_push(NodeJob::Tx(tx(0.1))).unwrap();
        assert_eq!(block.poll(), BlockStatus::Progress);
        // The output ring (depth 1) is full: the next answer is
        // computed and staged, freeing the job ring for one more job,
        // which then waits behind the staged answer.
        port.jobs.try_push(NodeJob::Tx(tx(0.2))).unwrap();
        assert_eq!(block.poll(), BlockStatus::Idle);
        port.jobs.try_push(rx).unwrap();
        assert_eq!(block.poll(), BlockStatus::Idle);

        for phase in [0.1, 0.2] {
            let Some(NodeOut::Wave(wave)) = port.out.try_pop() else {
                panic!("waveform expected");
            };
            assert_eq!(wave, synthesize(&chain, &front_end, tx(phase)));
            assert_eq!(block.poll(), BlockStatus::Progress);
        }
        assert!(matches!(
            port.out.try_pop(),
            Some(NodeOut::Rx(5, RxDone::Evt(_)))
        ));
        assert_eq!(block.poll(), BlockStatus::Idle);
        assert!(port.out.try_pop().is_none());
    }

    #[test]
    fn wait_helpers_surface_stalls() {
        struct DeadPump;
        impl Pump for DeadPump {
            fn pump(&mut self) -> bool {
                false
            }
        }
        let (mut p, mut c) = channel::<u32>(1);
        p.try_push(1).unwrap();
        assert_eq!(wait_push(&mut p, 2, &mut DeadPump), Err(Stalled));
        assert_eq!(wait_pop(&mut c, &mut DeadPump), Ok(1));
        assert_eq!(wait_pop(&mut c, &mut DeadPump), Err(Stalled));
    }
}
