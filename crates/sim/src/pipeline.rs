//! The engine's per-slot stages and the executor that runs them.
//!
//! DESIGN.md §14: a slot is a barrier, and within it every node's
//! Fig. 8 work is independent of every other node's. So the engine
//! runs a slot as ordered fork-join stages on the run's
//! [`Pool`]: TX stages synthesize every fired transmission (the
//! source wave, then the sender's front end and CFO), then RX stages
//! superpose each receiver's window through [`Medium`] and run its
//! decode, each decode job owning its receiver's [`Node`] for the
//! stage. The engine's slot loop stays the sequential *controller*:
//! it resolves everything stateful (RNG draws, queue state, metric
//! mutations) in intent order before a stage and folds the stage's
//! results back in intent order after it. Because every job is a pure
//! function of its inputs and its own node, and results come back in
//! job order, the deterministic and work-stealing executors produce
//! bit-identical [`RunMetrics`] (pinned by the golden suites and a
//! scheduler-equivalence proptest).
//!
//! The two per-sample stages split further: a job of the front-end
//! stage or of the mixing stage is a contiguous chunk of one wave or
//! window (`chunks`). Every output sample there is a pure function
//! of its index — Eq. 2 is a per-sample sum, the front end rotates by
//! the sample's index, and the noise and jammer streams seek by
//! sample ([`anc_channel::Awgn::skip`]) — so the chunks join into the
//! whole wave or window bit for bit. A one-worker pool makes one chunk
//! per wave or window, which is the inline work with no copies; the
//! sequential steps (modulation, amplification, §7.1 detection and
//! the decode) stay whole.
//!
//! [`RunMetrics`]: crate::metrics::RunMetrics

use crate::engine::{EngineError, ScheduledTx};
use crate::pool::{self, Pool, StageFailed};
use anc_channel::{Link, Medium, TransmissionRef};
use anc_core::DecoderScratch;
use anc_dsp::{Cplx, DspRng};
use anc_frame::NodeId;
use anc_node::phy::{DropReason, RxEvent, TxChain};
use anc_node::{source_wave, FrontEnd, Node, SynthJob, TxRotation};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// How a run executes its stages: how many workers
/// [`Self::with_pool`] gives it. One worker is the inline,
/// bit-reproducible reference executor (and the right choice inside an
/// already-parallel sweep); more spread each stage's jobs over scoped
/// threads, the caller's included, with bit-identical metrics (jobs are
/// independent and their results come back in job order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSpec {
    /// Threads that run the stages, the caller's included; `0` and `1`
    /// both mean inline.
    pub workers: usize,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec::deterministic()
    }
}

impl SchedulerSpec {
    /// The inline, bit-reproducible reference executor: one worker.
    pub fn deterministic() -> Self {
        SchedulerSpec { workers: 1 }
    }

    /// A work-stealing executor with `workers` total threads.
    pub fn work_stealing(workers: usize) -> Self {
        SchedulerSpec { workers }
    }

    /// Runs `body` with a stage pool of this spec's workers
    /// ([`pool::with_pool`]) — the one dispatch point shared by the
    /// engine and the city.
    pub fn with_pool<'env, R>(&self, body: impl FnOnce(&Pool<'_, 'env>) -> R) -> R {
        pool::with_pool(self.workers, body)
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

/// Shortest chunk a wave or window is split into: below it a chunk's
/// hand-off and noise seek cost more than its samples. The city's
/// ~700-sample windows never split.
const MIN_CHUNK: usize = 2048;

/// Most chunks per worker a long wave or window splits into. More
/// chunks than workers lets the caller and an early worker take the
/// share of a worker that wakes late.
const CHUNKS_PER_WORKER: usize = 4;

/// The contiguous chunks a wave or window of `len` samples splits into
/// when `workers` threads are free for it: one with one worker;
/// otherwise `min(len / MIN_CHUNK, CHUNKS_PER_WORKER · workers)`, at
/// least one, of equal length up to rounding. They cover `0..len` in
/// order.
fn chunks(len: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let k = if workers <= 1 {
        1
    } else {
        (len / MIN_CHUNK).clamp(1, CHUNKS_PER_WORKER * workers)
    };
    (0..k).map(move |j| j * len / k..(j + 1) * len / k)
}

/// Superposes samples `range` of one job's window into `out` (Eq. 2:
/// the heard transmissions, then the tones, then noise, plus the
/// jammer), bit for bit that stretch of the whole window.
fn mix(
    job: &RxJob,
    events: &[ScheduledTx],
    noise_power: f64,
    range: Range<usize>,
    out: &mut Vec<Cplx>,
) {
    let heard = job.heard.iter().map(|&(e, start, link)| TransmissionRef {
        samples: &events[e].wave,
        start,
        link,
    });
    let tones = job.tones.iter().map(|(tone, link)| TransmissionRef {
        samples: tone,
        start: 0,
        link: *link,
    });
    let first = range.start;
    Medium::from_rng(noise_power, job.noise.clone()).receive_range_into(
        heard.chain(tones),
        range,
        out,
    );
    if let Some((power, rng)) = &job.jammer {
        Medium::inject_jammer(out, first, *power, rng.clone());
    }
}

/// Runs the receiver on its mixed window.
fn decode(node: &mut Node, window: &[Cplx], overhear: bool) -> RxEvent {
    if !overhear {
        return node.poll(window);
    }
    // An overheard frame is a clean decode; the fold only asks
    // whether one landed.
    match node.try_overhear(window) {
        Some((frame, crc_ok)) => RxEvent::Clean { frame, crc_ok },
        None => RxEvent::Dropped(DropReason::ParseFailed),
    }
}

/// Splits each `(length, buffer)` of `bufs` into [`chunks`] for a
/// stage on a pool of `workers`: item `(b, range, chunk)` per chunk, in
/// buffer order. Each buffer gets an equal share of the workers, so
/// one that shares the pool with a job per worker stays whole: the
/// stage is already as parallel as the pool, and split buffers would
/// only cost copies and spare memory. The first chunk keeps the buffer
/// itself, truncated to its length, so a whole buffer moves without a
/// copy; the others go into buffers from `spare`, filled with their
/// samples when `copy` (a wave to rotate in place) and left for the
/// stage to fill otherwise (a window to mix).
fn split(
    bufs: Vec<(usize, Vec<Cplx>)>,
    workers: usize,
    spare: &mut Vec<Vec<Cplx>>,
    copy: bool,
) -> Vec<(usize, Range<usize>, Vec<Cplx>)> {
    let mut items = Vec::with_capacity(bufs.len());
    let share = workers / bufs.len().max(1);
    for (b, (len, mut buf)) in bufs.into_iter().enumerate() {
        let mut ranges = chunks(len, share);
        let head = ranges.next().unwrap_or(0..len);
        let at = items.len();
        items.push((b, head.clone(), Vec::new()));
        for range in ranges {
            // Grown here, on the caller, and only to fit: the spare
            // list is a run's only extra memory for chunking.
            let mut chunk = spare.pop().unwrap_or_default();
            chunk.clear();
            chunk.reserve_exact(range.len());
            if copy {
                chunk.extend_from_slice(&buf[range.clone()]);
            }
            items.push((b, range, chunk));
        }
        buf.truncate(head.end);
        items[at].2 = buf;
    }
    items
}

/// Joins a stage's chunks back into one buffer per source buffer:
/// each buffer's first chunk, extended by the others in order, whose
/// buffers return to `spare`.
fn join(chunks: Vec<(usize, Vec<Cplx>)>, spare: &mut Vec<Vec<Cplx>>) -> Vec<Vec<Cplx>> {
    let mut out: Vec<Vec<Cplx>> = Vec::new();
    for (b, chunk) in chunks {
        if b == out.len() {
            out.push(chunk);
        } else {
            out[b].extend_from_slice(&chunk);
            spare.push(chunk);
        }
    }
    out
}

/// The engine's nodes (in `node_ids` order), each with one reused
/// reception-window buffer, plus the TX chain and front end of each,
/// which no stage changes. The RX stages move each receiver's node
/// and buffer out of the park and put them back when the decode stage
/// returns; between slots every node is home. Chunked stages draw
/// their extra chunk buffers from one shared spare list, so a run
/// allocates them once.
#[derive(Debug, Default)]
pub(crate) struct NodePark {
    nodes: Vec<Option<Node>>,
    windows: Vec<Vec<Cplx>>,
    tx: Arc<[(TxChain, FrontEnd)]>,
    index: HashMap<NodeId, usize>,
    spare: Vec<Vec<Cplx>>,
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
            spare: Vec::new(),
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

    /// The TX stages: builds each `(sender index, job)`'s source wave
    /// on its sender's chain, then rotates the waves through their
    /// senders' front ends in chunks; waveforms come back in job order.
    pub(crate) fn synthesize(
        &mut self,
        pool: &Pool<'_, '_>,
        jobs: Vec<(usize, SynthJob)>,
    ) -> Result<Vec<Vec<Cplx>>, StageFailed> {
        let (sources, rotations): (Vec<_>, Vec<TxRotation>) = jobs
            .into_iter()
            .map(|(i, job)| {
                let (source, rotation) = job.split(self.tx[i].1);
                ((i, source), rotation)
            })
            .unzip();
        let tx = Arc::clone(&self.tx);
        let waves = pool.stage("engine.tx", sources, move |(i, source)| {
            source_wave(&tx[i].0, source)
        })?;
        let waves = waves.into_iter().map(|wave| (wave.len(), wave)).collect();
        let items = split(waves, pool.workers(), &mut self.spare, true);
        let rotated = pool.stage("engine.tx", items, move |(w, range, mut chunk)| {
            rotations[w].apply(&mut chunk, range.start);
            (w, chunk)
        })?;
        Ok(join(rotated, &mut self.spare))
    }

    /// The RX stages: superposes each job's window in chunks, then
    /// decodes each window on its receiver, whose node and window
    /// buffer leave the park for both stages; receive events come back
    /// in job order. The receivers of one stage must be distinct. If
    /// either stage fails, its receivers are lost with it.
    pub(crate) fn receive(
        &mut self,
        pool: &Pool<'_, '_>,
        events: &Arc<Vec<ScheduledTx>>,
        noise_power: f64,
        jobs: Vec<RxJob>,
    ) -> Result<Vec<RxEvent>, EngineError> {
        let mut receivers = Vec::with_capacity(jobs.len());
        let mut windows = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let i = self.index_of(job.receiver)?;
            let node = self.nodes[i]
                .take()
                .ok_or(EngineError::NodeMissing(job.receiver))?;
            receivers.push((i, node, job.overhear));
            windows.push((job.duration, std::mem::take(&mut self.windows[i])));
        }
        let items = split(windows, pool.workers(), &mut self.spare, false);
        let (jobs, events) = (Arc::new(jobs), Arc::clone(events));
        let mixed = pool.stage("engine.rx", items, move |(j, range, mut chunk)| {
            mix(&jobs[j], &events, noise_power, range, &mut chunk);
            (j, chunk)
        })?;
        let items: Vec<_> = receivers
            .into_iter()
            .zip(join(mixed, &mut self.spare))
            .collect();
        let done = pool.stage("engine.rx", items, |((i, mut node, overhear), window)| {
            let evt = decode(&mut node, &window, overhear);
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
