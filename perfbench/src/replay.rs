//! Per-layer replay: a workload's stage sequence driven through the
//! public layer functions, one span around every call.
//!
//! An ANC exchange is two TX syntheses, the relay's uplink window,
//! classify plus amplify, the two endpoint downlink windows, and a
//! decode plus parse at each endpoint. A traditional hop is one TX, one
//! window, `decode_clean` and a parse. Windows are assembled the way
//! the city engine assembles them (grid candidates, exact range test,
//! one `Link` per admitted transmitter, a fresh `Medium` and fresh
//! vectors per window) on the workload's frame length, grid and share
//! of concurrently transmitting cells, so per-call costs, interferer
//! counts and allocation counts match the real run's.

use crate::alloc::{self, AllocDelta};
use crate::trace::{SpanId, Tracer};
use anc_channel::{within_range, AmplifyForward, Link, Medium, SpatialGrid, TransmissionRef};
use anc_core::decoder::{AncDecoder, DecoderConfig, DecoderScratch};
use anc_core::detect::DetectorConfig;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header};
use anc_node::phy::TxChain;
use anc_runtime::{
    channel, Block, BlockStatus, Consumer, DeterministicScheduler, Producer, Pump, Scheduler,
    WorkStealingScheduler,
};
use anc_sim::city::{gain_at, CityConfig};
use std::time::{Duration, Instant};

/// Stream domain of the replay's own draws (`"PERFBNCH"`).
const DOMAIN: u64 = 0x5045_5246_424E_4348;
/// City layout constants (`anc_sim::city`'s urban grid).
const IN_CELL_PITCH: f64 = 15.0;
const CELL_SPAN: f64 = 45.0;
const ROW_PITCH: f64 = 30.0;
const JITTER: f64 = 2.0;
/// Noise padding around each window, in samples.
const PAD: usize = 64;

/// Spans whose self time is layer work (the rest is replay glue).
pub const LAYER_SPANS: [&str; 7] = [
    "node.tx",
    "channel.gate",
    "channel.superpose",
    "core.classify",
    "channel.amplify",
    "core.decode",
    "frame.parse",
];
/// Layer spans of a traditional hop (`core.clean_decode` replaces the
/// interference decode).
pub const HOP_SPANS: [&str; 5] = [
    "node.tx",
    "channel.gate",
    "channel.superpose",
    "core.clean_decode",
    "frame.parse",
];

/// The geometry and load a replay reproduces.
#[derive(Debug, Clone, Copy)]
pub struct ReplayGeom {
    pub cells_x: usize,
    pub rows: usize,
    pub payload_bits: usize,
    pub noise_power: f64,
    /// Share of cells transmitting in the same slot.
    pub activity: f64,
    /// Whether windows are gated through the spatial grid (the city) or
    /// hear every transmitter (the paper topologies).
    pub gated: bool,
}

/// Counts gathered while replaying (warm-up excluded).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    pub anc_exchanges: u64,
    pub trad_hops: u64,
    pub windows: u64,
    pub window_samples: u64,
    pub refs: u64,
    pub window_allocs: u64,
    pub window_alloc_bytes: u64,
    pub gate_candidates: u64,
    pub gate_admitted: u64,
    pub noise_samples: u64,
    pub relay_misses: u64,
    pub decodes: u64,
    pub decode_fails: u64,
    pub decode_samples: u64,
    pub decode_allocs: u64,
    pub clean_samples: u64,
    pub parses: u64,
    pub parse_fails: u64,
}

/// Which transmitters are on the air in a replayed slot.
#[derive(Clone, Copy)]
enum Slot<'w> {
    /// Endpoints `a`, `b` of every active cell, with their offsets.
    Uplink {
        a: (&'w [Cplx], usize),
        b: (&'w [Cplx], usize),
    },
    /// Relays of every active cell.
    Downlink(&'w [Cplx]),
    /// The node at local index `from` of every active cell.
    Hop { from: usize, wave: &'w [Cplx] },
}

pub struct Replay<'t> {
    geom: ReplayGeom,
    seed: u64,
    positions: Vec<(f64, f64)>,
    grid: SpatialGrid,
    gate: f64,
    frame_cfg: FrameConfig,
    tx: TxChain,
    decoder: AncDecoder,
    scratch: DecoderScratch,
    rng: DspRng,
    tracer: &'t Tracer,
    /// Replayed slot counter (keys neighbour activity and noise).
    slot: u64,
    cell: usize,
    /// Requests below this id are warm-up and stay out of the stats.
    pub warmup: u64,
    pub stats: ReplayStats,
}

fn node_pos(seed: u64, cells_x: usize, cell: usize, local: usize, jitter: f64) -> (f64, f64) {
    let anchor = (
        (cell % cells_x) as f64 * CELL_SPAN,
        (cell / cells_x) as f64 * ROW_PITCH,
    );
    let mut rng = DspRng::from_path(seed, &[DOMAIN, 1, cell as u64, local as u64]);
    (
        anchor.0 + local as f64 * IN_CELL_PITCH + rng.uniform_range(-jitter, jitter),
        anchor.1 + rng.uniform_range(-jitter, jitter),
    )
}

fn node_id(node: usize) -> u8 {
    u8::try_from(node % 251).expect("mod fits")
}

impl<'t> Replay<'t> {
    pub fn new(geom: ReplayGeom, seed: u64, tracer: &'t Tracer) -> Self {
        let cells = geom.cells_x * geom.rows;
        // The paper topologies replay on one cell without jitter, so
        // both endpoints get balanced links; a jittered single cell can
        // leave one side undecodable for the whole run.
        let jitter = if geom.gated { JITTER } else { 0.0 };
        let positions: Vec<(f64, f64)> = (0..3 * cells)
            .map(|n| node_pos(seed, geom.cells_x, n / 3, n % 3, jitter))
            .collect();
        let gate = CityConfig {
            noise_power: geom.noise_power,
            ..CityConfig::default()
        }
        .gate_radius();
        let frame_cfg = FrameConfig::default();
        let decoder = AncDecoder::new(DecoderConfig {
            frame: frame_cfg,
            detector: DetectorConfig {
                noise_floor: geom.noise_power,
                ..DetectorConfig::default()
            },
            ..DecoderConfig::default()
        });
        Replay {
            grid: SpatialGrid::build(&positions, gate),
            positions,
            gate,
            frame_cfg,
            tx: TxChain::new(frame_cfg),
            decoder,
            scratch: DecoderScratch::default(),
            rng: DspRng::from_path(seed, &[DOMAIN, 2]),
            tracer,
            slot: 0,
            cell: 0,
            warmup: 2,
            stats: ReplayStats::default(),
            geom,
            seed,
        }
    }

    fn cells(&self) -> usize {
        self.geom.cells_x * self.geom.rows
    }

    /// Next replayed cell: ascending, skipping idle cells the way the
    /// real run's served cells thin out under light load.
    fn next_cell(&mut self) -> usize {
        let p = self.geom.activity.clamp(1e-3, 1.0);
        let skip = if p >= 1.0 {
            0
        } else {
            let u = self.rng.uniform();
            ((1.0 - u).ln() / (1.0 - p).ln()).floor().min(1e6) as usize
        };
        self.cell = (self.cell + 1 + skip) % self.cells();
        self.cell
    }

    fn active(&self, cell: usize, own: usize) -> bool {
        cell == own
            || self.geom.activity >= 1.0
            || DspRng::from_path(self.seed, &[DOMAIN, 3, cell as u64, self.slot]).uniform()
                < self.geom.activity
    }

    fn counted(&self, request: u64) -> bool {
        request >= self.warmup
    }

    fn frame(&mut self, src: usize, dst: usize) -> Frame {
        let payload = self.rng.bits(self.geom.payload_bits);
        let seq = u16::try_from(self.slot % 65_536).expect("mod fits");
        Frame::new(Header::new(node_id(src), node_id(dst), seq, 0), payload)
    }

    /// TX synthesis of one frame: on-air bits plus the modulated wave.
    fn synth(&self, parent: SpanId, request: u64, frame: &Frame) -> (Vec<bool>, Vec<Cplx>) {
        let (tx, cfg) = (&self.tx, &self.frame_cfg);
        self.tracer.span("node.tx", Some(parent), request, |_| {
            (frame.to_bits(cfg), tx.modulate_frame(frame))
        })
    }

    /// One reception window at `recv` for `slot`, assembled like the
    /// city engine's: candidates, exact range test, one link per
    /// admitted transmitter, a fresh medium and fresh vectors.
    /// Allocations are counted inside the layer spans, so the span
    /// recorder's own bookkeeping stays out of them.
    fn window(
        &mut self,
        parent: SpanId,
        request: u64,
        recv: usize,
        own: usize,
        slot: Slot<'_>,
    ) -> Vec<Cplx> {
        let tracer = self.tracer;
        let this = &*self;
        let rpos = this.positions[recv];
        let (out, allocs, cands, admitted, refs) =
            tracer.span("channel.window", Some(parent), request, |w| {
                let gate = || {
                    let mut cands: Vec<u32> = Vec::new();
                    this.grid.candidates_into(rpos, &mut cands);
                    let n = cands.len();
                    let mut admitted = 0;
                    let mut txs = Vec::new();
                    for id in cands {
                        let id = id as usize;
                        if id == recv || !within_range(this.positions[id], rpos, this.gate) {
                            continue;
                        }
                        admitted += 1;
                        if let Some(t) = this.on_air(id, own, slot) {
                            txs.push((id, t));
                        }
                    }
                    (txs, n, admitted)
                };
                let ((txs, cands, admitted), gate_allocs) = if this.geom.gated {
                    tracer.span("channel.gate", Some(w), request, |_| alloc::count(gate))
                } else {
                    alloc::count(|| {
                        let txs: Vec<_> = (0..this.positions.len())
                            .filter(|&id| id != recv)
                            .filter_map(|id| this.on_air(id, own, slot).map(|t| (id, t)))
                            .collect();
                        (txs, 0, 0)
                    })
                };
                let (out, mix_allocs) = tracer.span("channel.superpose", Some(w), request, |_| {
                    alloc::count(|| {
                        let mut refs: Vec<TransmissionRef<'_>> = Vec::new();
                        let mut end = PAD;
                        for &(id, (samples, offset)) in &txs {
                            let (p, q) = (this.positions[id], rpos);
                            let d = ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt();
                            let phase = DspRng::from_path(
                                this.seed,
                                &[DOMAIN, 4, id as u64, recv as u64, this.slot],
                            )
                            .phase();
                            let start = PAD + offset;
                            refs.push(TransmissionRef {
                                samples,
                                start,
                                link: Link::new(gain_at(d), phase, 0.0),
                            });
                            end = end.max(start + samples.len());
                        }
                        let mut out = Vec::new();
                        Medium::from_rng(
                            this.geom.noise_power,
                            DspRng::from_path(this.seed, &[DOMAIN, 5, recv as u64, this.slot]),
                        )
                        .receive_refs_into(&refs, end + PAD, &mut out);
                        out
                    })
                });
                (out, gate_allocs + mix_allocs, cands, admitted, txs.len())
            });
        if self.counted(request) {
            let s = &mut self.stats;
            s.windows += 1;
            s.window_samples += out.len() as u64;
            s.refs += refs as u64;
            s.window_allocs += allocs.allocs;
            s.window_alloc_bytes += allocs.bytes;
            if self.geom.gated {
                s.gate_candidates += cands as u64;
                s.gate_admitted += admitted as u64;
            }
        }
        out
    }

    /// The wave node `id` has on the air in `slot`, if any.
    fn on_air<'w>(&self, id: usize, own: usize, slot: Slot<'w>) -> Option<(&'w [Cplx], usize)> {
        let (cell, local) = (id / 3, id % 3);
        if !self.active(cell, own) {
            return None;
        }
        match slot {
            Slot::Uplink { a, b } => match local {
                0 => Some(a),
                2 => Some(b),
                _ => None,
            },
            Slot::Downlink(w) => (local == 1 && !w.is_empty()).then_some((w, 0)),
            Slot::Hop { from, wave } => (local == from).then_some((wave, 0)),
        }
    }

    /// Noise alone over `len` samples (the same call with no refs).
    fn noise_probe(&mut self, parent: SpanId, request: u64, len: usize) {
        let mut out = Vec::new();
        self.tracer
            .span("channel.noise", Some(parent), request, |_| {
                Medium::from_rng(
                    self.geom.noise_power,
                    DspRng::from_path(self.seed, &[DOMAIN, 6, self.slot]),
                )
                .receive_refs_into(&[], len, &mut out);
            });
        if self.counted(request) {
            self.stats.noise_samples += len as u64;
        }
    }

    fn parse(&mut self, parent: SpanId, request: u64, bits: &[bool]) {
        let cfg = &self.frame_cfg;
        let ok = self.tracer.span("frame.parse", Some(parent), request, |_| {
            Frame::parse_lenient(bits, cfg).is_ok()
        });
        if self.counted(request) {
            self.stats.parses += 1;
            self.stats.parse_fails += u64::from(!ok);
        }
    }

    /// Replays one round of ANC exchanges, requests `first ..
    /// first + count`, stage by stage the way a region block runs them:
    /// every TX, then every relay, then every endpoint decode.
    pub fn anc_round(&mut self, first: u64, count: u64) {
        struct Ex {
            req: u64,
            cell: usize,
            bits: [Vec<bool>; 2],
            waves: [Vec<Cplx>; 2],
            offsets: [usize; 2],
            a_first: bool,
            relayed: Vec<Cplx>,
        }
        let tracer = self.tracer;
        let mut exs: Vec<Ex> = tracer.span("replay.anc_tx", None, first, |stage| {
            (first..first + count)
                .map(|req| {
                    let c = self.next_cell();
                    let fa = self.frame(3 * c, 3 * c + 2);
                    let fb = self.frame(3 * c + 2, 3 * c);
                    let (bits_a, wave_a) = self.synth(stage, req, &fa);
                    let (bits_b, wave_b) = self.synth(stage, req, &fb);
                    // §7.2 stagger, as the city draws it.
                    let a_first = self.rng.bit();
                    let gap = 192 + self.rng.uniform_int(0, 96) as usize;
                    Ex {
                        req,
                        cell: c,
                        bits: [bits_a, bits_b],
                        waves: [wave_a, wave_b],
                        offsets: if a_first { [0, gap] } else { [gap, 0] },
                        a_first,
                        relayed: Vec::new(),
                    }
                })
                .collect()
        });
        self.slot += 1;
        tracer.span("replay.anc_relay", None, first, |stage| {
            for x in &mut exs {
                let (req, c) = (x.req, x.cell);
                let up = self.window(
                    stage,
                    req,
                    3 * c + 1,
                    c,
                    Slot::Uplink {
                        a: (&x.waves[0], x.offsets[0]),
                        b: (&x.waves[1], x.offsets[1]),
                    },
                );
                let decoder = &self.decoder;
                let region =
                    tracer.span("core.classify", Some(stage), req, |_| decoder.classify(&up));
                if let Some(reg) = region {
                    x.relayed = tracer.span("channel.amplify", Some(stage), req, |_| {
                        AmplifyForward::new(1.0)
                            .amplify_window(&up, reg.start, reg.end)
                            .0
                    });
                }
                if self.counted(req) {
                    self.stats.anc_exchanges += 1;
                    self.stats.relay_misses += u64::from(x.relayed.is_empty());
                }
                self.noise_probe(stage, req, up.len());
            }
        });
        self.slot += 1;
        tracer.span("replay.anc_decode", None, first, |stage| {
            for x in &exs {
                let (req, c) = (x.req, x.cell);
                for (side, own_first) in [(0, x.a_first), (1, !x.a_first)] {
                    let win =
                        self.window(stage, req, 3 * c + 2 * side, c, Slot::Downlink(&x.relayed));
                    let (decoder, scratch) = (&self.decoder, &mut self.scratch);
                    let known = &x.bits[side];
                    let (res, delta): (_, AllocDelta) =
                        tracer.span("core.decode", Some(stage), req, |_| {
                            alloc::count(|| {
                                if own_first {
                                    decoder.decode_forward_with(&win, known, scratch)
                                } else {
                                    decoder.decode_backward_with(&win, known, scratch)
                                }
                            })
                        });
                    if self.counted(req) {
                        self.stats.decodes += 1;
                        self.stats.decode_fails += u64::from(res.is_err());
                        self.stats.decode_samples += win.len() as u64;
                        self.stats.decode_allocs += delta.allocs;
                    }
                    if let Ok(out) = res {
                        self.parse(stage, req, &out.bits);
                    }
                }
            }
        });
    }

    /// Replays one traditional hop slot, requests `first .. first +
    /// count`: every cell's TX, then every receiver's window, clean
    /// decode and parse.
    pub fn trad_round(&mut self, first: u64, count: u64) {
        const HOPS: [(usize, usize); 4] = [(0, 1), (1, 2), (2, 1), (1, 0)];
        let (from, to) = HOPS[self.rng.uniform_int(0, 3) as usize];
        let tracer = self.tracer;
        let hops: Vec<(u64, usize, Vec<Cplx>)> =
            tracer.span("replay.trad_tx", None, first, |stage| {
                (first..first + count)
                    .map(|req| {
                        let c = self.next_cell();
                        let f = self.frame(3 * c + from, 3 * c + to);
                        (req, c, self.synth(stage, req, &f).1)
                    })
                    .collect()
            });
        self.slot += 1;
        tracer.span("replay.trad_rx", None, first, |stage| {
            for (req, c, wave) in &hops {
                let (req, c) = (*req, *c);
                let win = self.window(stage, req, 3 * c + to, c, Slot::Hop { from, wave });
                let decoder = &self.decoder;
                let res = tracer.span("core.clean_decode", Some(stage), req, |_| {
                    decoder.decode_clean(&win)
                });
                if self.counted(req) {
                    self.stats.trad_hops += 1;
                    self.stats.clean_samples += win.len() as u64;
                }
                if let Ok(bits) = res {
                    self.parse(stage, req, &bits);
                }
            }
        });
    }
}

/// A block that echoes each job from its input ring to its output ring.
struct Echo {
    input: Consumer<u64>,
    output: Producer<u64>,
    staged: Option<u64>,
}

impl Block for Echo {
    fn name(&self) -> &str {
        "echo"
    }

    fn poll(&mut self) -> BlockStatus {
        let mut progressed = false;
        loop {
            if let Some(v) = self.staged.take() {
                if let Err(v) = self.output.try_push(v) {
                    self.staged = Some(v);
                    break;
                }
                progressed = true;
            }
            match self.input.try_pop() {
                Some(v) => self.staged = Some(v),
                None => break,
            }
        }
        if progressed {
            BlockStatus::Progress
        } else {
            BlockStatus::Idle
        }
    }
}

fn echo_block() -> (Producer<u64>, Box<dyn Block>, Consumer<u64>) {
    let (feed, input) = channel(8);
    let (output, sink) = channel(8);
    (
        feed,
        Box::new(Echo {
            input,
            output,
            staged: None,
        }),
        sink,
    )
}

/// Mean round trip of one job through an echo block's ring pair under
/// `WorkStealingScheduler::new(workers)`, in ns.
pub fn handoff_ns(workers: usize, budget: Duration) -> f64 {
    let (mut feed, block, mut sink) = echo_block();
    WorkStealingScheduler::new(workers).run(
        vec![block],
        Box::new(move |pump: &mut dyn Pump| {
            let t0 = Instant::now();
            let mut trips = 0u64;
            while trips < 1000 || t0.elapsed() < budget {
                let mut job = trips;
                while let Err(back) = feed.try_push(job) {
                    job = back;
                    pump.pump();
                }
                loop {
                    if let Some(v) = sink.try_pop() {
                        assert_eq!(v, trips, "echo block reordered jobs");
                        break;
                    }
                    pump.pump();
                }
                trips += 1;
            }
            t0.elapsed().as_nanos() as f64 / trips as f64
        }),
    )
}

/// Cost of one idle block poll in a `DeterministicScheduler` pump over
/// `blocks` idle blocks, in ns.
pub fn idle_poll_ns(blocks: usize, budget: Duration) -> f64 {
    let mut ends = Vec::new();
    let graph: Vec<Box<dyn Block>> = (0..blocks.max(1))
        .map(|_| {
            let (feed, block, sink) = echo_block();
            ends.push((feed, sink));
            block
        })
        .collect();
    DeterministicScheduler.run(
        graph,
        Box::new(|pump: &mut dyn Pump| {
            let t0 = Instant::now();
            let mut pumps = 0u64;
            while pumps < 100 || t0.elapsed() < budget {
                assert!(!pump.pump(), "idle blocks made progress");
                pumps += 1;
            }
            t0.elapsed().as_nanos() as f64 / (pumps * blocks.max(1) as u64) as f64
        }),
    )
}
