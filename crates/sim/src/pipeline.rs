//! The engine's per-slot stages and the executor that runs them.
//!
//! DESIGN.md §14: a slot is a barrier, and within it every node's
//! Fig. 8 work is independent of every other node's. So the engine
//! runs a slot as ordered fork-join stages on the run's
//! [`Pool`]: one TX stage synthesizes every fired transmission
//! ([`anc_node::synthesize`] on the sender's chain and front end),
//! then RX stages superpose each receiver's window through [`Medium`]
//! and run its decode, each job owning its receiver's [`Node`] for the
//! stage. The engine's slot loop stays the sequential *controller*: it
//! resolves
//! everything stateful (RNG draws, queue state, metric mutations) in
//! intent order before a stage and folds the stage's results back in
//! intent order after it. Because every job is a pure function of its
//! inputs and its own node, and results come back in job order, the
//! deterministic and work-stealing executors produce bit-identical
//! [`RunMetrics`] (pinned by the golden suites and a
//! scheduler-equivalence proptest).
//!
//! [`RunMetrics`]: crate::metrics::RunMetrics

use crate::engine::{EngineError, ScheduledTx};
use crate::pool::{self, Pool, StageFailed};
use anc_channel::{Link, Medium, TransmissionRef};
use anc_core::DecoderScratch;
use anc_dsp::{Cplx, DspRng};
use anc_frame::NodeId;
use anc_node::phy::{DropReason, RxEvent, TxChain};
use anc_node::{synthesize, FrontEnd, Node, SynthJob};
use std::collections::HashMap;
use std::sync::Arc;

/// Which executor runs a run's stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Every job inline on the calling thread, in job order — the
    /// bit-reproducible reference executor (and the right choice
    /// inside an already-parallel Monte Carlo pool).
    #[default]
    Deterministic,
    /// Each stage spreads its jobs over scoped worker threads, the
    /// calling thread included, so one run uses several cores.
    /// Produces bit-identical metrics (jobs are independent and their
    /// results come back in job order).
    WorkStealing {
        /// Total threads, including the caller's; clamped to ≥ 1.
        workers: usize,
    },
}

/// How a run executes its stages: how many workers
/// [`Self::with_pool`] gives it.
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

    /// Runs `body` with a stage pool for the executor this spec
    /// selects ([`pool::with_pool`]) — the one dispatch point shared by
    /// the engine and the city, so mode matching lives in exactly one
    /// place.
    pub fn with_pool<'env, R>(&self, body: impl FnOnce(&Pool<'_, 'env>) -> R) -> R {
        let workers = match self.mode {
            SchedMode::Deterministic => 1,
            SchedMode::WorkStealing { workers } => workers,
        };
        pool::with_pool(workers, body)
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

/// One fully resolved reception window for the RX stage. All RNG
/// forks already happened on the controller; the job is pure data
/// plus indices into the slot's event queue.
#[derive(Debug)]
pub(crate) struct RxJob {
    /// The receiver.
    pub(crate) receiver: NodeId,
    /// Promiscuous overhearing (§11.5) instead of a receiver poll.
    pub(crate) overhear: bool,
    /// Window length in samples.
    pub(crate) duration: usize,
    /// The receiver's forked noise stream for this window.
    pub(crate) noise: DspRng,
    /// Audible transmissions: event-queue index, start sample,
    /// resolved link (impairments and fault gains folded in). Summed
    /// in slice order — the engine lists them in fired order.
    pub(crate) heard: Vec<(usize, usize, Link)>,
    /// Fault-injected stuck-carrier tones, superposed after the real
    /// transmissions, each starting at sample 0.
    pub(crate) tones: Vec<(Vec<Cplx>, Link)>,
    /// Optional jammer burst: power and its coordinate-keyed stream,
    /// injected on top of the finished mixture.
    pub(crate) jammer: Option<(f64, DspRng)>,
}

/// Superposes one job's window into `window` (Eq. 2: the heard
/// transmissions, then the tones, then noise, plus the jammer) and
/// runs the receiver on it.
fn receive(
    node: &mut Node,
    window: &mut Vec<Cplx>,
    job: RxJob,
    events: &[ScheduledTx],
    noise_power: f64,
) -> RxEvent {
    let refs: Vec<TransmissionRef<'_>> = job
        .heard
        .iter()
        .map(|&(e, start, link)| TransmissionRef {
            samples: &events[e].wave,
            start,
            link,
        })
        .chain(job.tones.iter().map(|(tone, link)| TransmissionRef {
            samples: tone,
            start: 0,
            link: *link,
        }))
        .collect();
    Medium::from_rng(noise_power, job.noise).receive_refs_into(&refs, job.duration, window);
    if let Some((power, rng)) = job.jammer {
        Medium::inject_jammer(window, power, rng);
    }
    if !job.overhear {
        return node.poll(window);
    }
    // An overheard frame is a clean decode; the fold only asks
    // whether one landed.
    match node.try_overhear(window) {
        Some((frame, crc_ok)) => RxEvent::Clean { frame, crc_ok },
        None => RxEvent::Dropped(DropReason::ParseFailed),
    }
}

/// The engine's nodes (in `node_ids` order), each with one reused
/// reception-window buffer, plus the TX chain and front end of each,
/// which no stage changes. An RX stage moves each receiver's node and
/// buffer into its one job and puts them back when the stage returns;
/// between stages every node is home.
#[derive(Debug, Default)]
pub(crate) struct NodePark {
    nodes: Vec<Option<Node>>,
    windows: Vec<Vec<Cplx>>,
    tx: Arc<[(TxChain, FrontEnd)]>,
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
            windows: vec![Vec::new(); nodes.len()],
            tx: nodes
                .iter()
                .map(|(_, n)| (n.tx_chain().clone(), n.front_end))
                .collect(),
            nodes: nodes.into_iter().map(|(_, n)| Some(n)).collect(),
            index,
        }
    }

    pub(crate) fn index_of(&self, id: NodeId) -> Result<usize, EngineError> {
        self.index
            .get(&id)
            .copied()
            .ok_or(EngineError::NodeMissing(id))
    }

    /// Node `id`; missing if it is not in the topology, or was lost
    /// with a stage that failed.
    pub(crate) fn get_mut(&mut self, id: NodeId) -> Result<&mut Node, EngineError> {
        let i = self.index_of(id)?;
        self.nodes[i].as_mut().ok_or(EngineError::NodeMissing(id))
    }

    /// Swaps each node's decoder scratch with the matching entry of
    /// `scratches`, which grows to one entry per node (see [`RunCtx`]).
    pub(crate) fn swap_scratches(&mut self, scratches: &mut Vec<DecoderScratch>) {
        if scratches.len() < self.nodes.len() {
            scratches.resize_with(self.nodes.len(), DecoderScratch::default);
        }
        for (node, scratch) in self.nodes.iter_mut().zip(scratches) {
            if let Some(node) = node {
                node.swap_rx_scratch(scratch);
            }
        }
    }

    /// Takes node `id`'s last reception window out of its buffer (the
    /// relay's captured mixture, §7.5).
    pub(crate) fn take_window(&mut self, id: NodeId) -> Result<Vec<Cplx>, EngineError> {
        let i = self.index_of(id)?;
        Ok(std::mem::take(&mut self.windows[i]))
    }

    /// The TX stage: synthesizes each `(sender index, job)` on its
    /// sender's chain and front end; waveforms come back in job order.
    pub(crate) fn synthesize(
        &self,
        pool: &Pool<'_, '_>,
        jobs: Vec<(usize, SynthJob)>,
    ) -> Result<Vec<Vec<Cplx>>, StageFailed> {
        let tx = Arc::clone(&self.tx);
        pool.stage("engine.tx", jobs, move |(i, job)| {
            let (chain, front_end) = &tx[i];
            synthesize(chain, front_end, job)
        })
    }

    /// An RX stage: superposes and decodes each job's window on its
    /// receiver, whose node and window buffer the job owns for the
    /// stage; receive events come back in job order. The receivers of
    /// one stage must be distinct.
    pub(crate) fn receive(
        &mut self,
        pool: &Pool<'_, '_>,
        events: &Arc<Vec<ScheduledTx>>,
        noise_power: f64,
        jobs: Vec<RxJob>,
    ) -> Result<Vec<RxEvent>, EngineError> {
        let mut items = Vec::with_capacity(jobs.len());
        for job in jobs {
            let i = self.index_of(job.receiver)?;
            let node = self.nodes[i]
                .take()
                .ok_or(EngineError::NodeMissing(job.receiver))?;
            let window = std::mem::take(&mut self.windows[i]);
            items.push((i, node, window, job));
        }
        let events = Arc::clone(events);
        let done = pool.stage("engine.rx", items, move |(i, mut node, mut window, job)| {
            let evt = receive(&mut node, &mut window, job, &events, noise_power);
            (i, node, window, evt)
        })?;
        Ok(done
            .into_iter()
            .map(|(i, node, window, evt)| {
                self.nodes[i] = Some(node);
                self.windows[i] = window;
                evt
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use anc_node::{NodeConfig, NodeRole};

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
        let mut park = park_of(3);
        assert_eq!(park.index_of(2).unwrap(), 2);
        assert!(matches!(park.index_of(9), Err(EngineError::NodeMissing(9))));
        assert_eq!(park.get_mut(1).unwrap().id, 1);
    }

    #[test]
    fn a_panicking_job_reaches_the_engine_as_a_typed_error() {
        // An RX job naming an event the slot never queued panics in its
        // stage; under either executor the caller gets a typed error.
        for sched in [
            SchedulerSpec::deterministic(),
            SchedulerSpec::work_stealing(2),
        ] {
            let mut park = park_of(3);
            let jobs = (0..3)
                .map(|receiver| RxJob {
                    receiver,
                    overhear: false,
                    duration: 16,
                    noise: DspRng::seed_from(1),
                    heard: vec![(7, 0, Link::new(1.0, 0.0, 0.0)); usize::from(receiver == 1)],
                    tones: Vec::new(),
                    jammer: None,
                })
                .collect();
            let err = sched.with_pool(|pool| park.receive(pool, &Arc::default(), 1e-3, jobs));
            assert_eq!(
                err.unwrap_err(),
                EngineError::StageFailed { stage: "engine.rx" }
            );
            // The failed stage lost its receivers: a typed error, not
            // a panic, if the run asked for them again.
            assert!(matches!(park.get_mut(1), Err(EngineError::NodeMissing(1))));
        }
    }
}
