//! Per-node state: identity, role, queues, buffers, chains.
//!
//! A [`Node`] bundles everything one radio carries in the testbed:
//! its TX/RX processing chains (Fig. 8), its sent-packet buffer
//! (§7.3), its router policy (§7.5), its trigger MAC (§7.6), and its
//! traffic queues. The simulator owns the medium and the clock and
//! drives nodes through these methods — the smoltcp-style poll model.

use crate::mac::{MacConfig, TriggerMac};
use crate::phy::{RxChain, RxEvent, TxChain};
use anc_core::decoder::DecoderConfig;
use anc_core::router::RouterPolicy;
use anc_dsp::{Cplx, DspRng};
use anc_frame::{Frame, FrameConfig, Header, NodeId, SentPacketBuffer};
use std::collections::VecDeque;

/// What a node does in the network (§7.5 distinguishes the relay
/// behaviours; endpoints originate/consume traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Originates and consumes packets (Alice, Bob, chain ends).
    Endpoint,
    /// Relays by amplify-and-forward (the Alice-Bob router).
    AmplifyRelay,
    /// Relays by decode-and-forward; uses ANC decoding when a colliding
    /// packet is known (chain node N2).
    DecodeRelay,
}

/// Node construction parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's identifier.
    pub id: NodeId,
    /// Role in the topology.
    pub role: NodeRole,
    /// Decoder configuration (frame layout + detector thresholds).
    pub decoder: DecoderConfig,
    /// MAC parameters.
    pub mac: MacConfig,
    /// Sent/overheard packet buffer capacity (§7.3).
    pub buffer_capacity: usize,
}

impl NodeConfig {
    /// A sensible default configuration for the given id and role.
    pub fn new(id: NodeId, role: NodeRole) -> Self {
        NodeConfig {
            id,
            role,
            decoder: DecoderConfig::default(),
            mac: MacConfig::default(),
            buffer_capacity: 64,
        }
    }
}

/// The radio front end every transmission passes through: the node's
/// oscillator offset (independent crystals, §11.4 / `anc-core::amplitude`
/// docs) and transmit amplitude (unit by default; the Fig.-13 SIR sweep
/// scales it). The simulation engine sets these at world construction
/// and applies them via [`Node::apply_front_end`].
#[derive(Debug, Clone, Copy)]
pub struct FrontEnd {
    /// Carrier frequency offset in rad/sample.
    pub osc_offset: f64,
    /// Transmit amplitude scale.
    pub amplitude: f64,
}

impl Default for FrontEnd {
    fn default() -> Self {
        FrontEnd {
            osc_offset: 0.0,
            amplitude: 1.0,
        }
    }
}

impl FrontEnd {
    /// Applies this front end to samples `first..first + chunk.len()`
    /// of an outgoing baseband waveform: amplitude scaling plus the
    /// carrier rotation `phase0 + Δω·k` at each sample's index `k` in
    /// the whole wave (§5.3's per-transmission phase `γ` and the
    /// oscillator drift the §6 amplitude tracker absorbs). Pure in
    /// `(self, chunk, first, phase)`, so the simulator's TX stage can
    /// run any chunk of a wave on any worker; the whole wave is
    /// `first = 0`.
    pub fn apply(&self, chunk: &mut [Cplx], first: usize, carrier_phase: f64) {
        let FrontEnd {
            osc_offset,
            amplitude,
        } = *self;
        for (k, s) in (first..).zip(chunk.iter_mut()) {
            *s = s
                .scale(amplitude)
                .rotate(carrier_phase + osc_offset * k as f64);
        }
    }
}

/// One software radio.
#[derive(Debug)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// Role in the topology.
    pub role: NodeRole,
    /// Router knowledge (§7.5/§7.6).
    pub policy: RouterPolicy,
    /// Sent + overheard packets (§7.3).
    pub buffer: SentPacketBuffer,
    /// Radio impairments applied to every transmission.
    pub front_end: FrontEnd,
    tx: TxChain,
    rx: RxChain,
    mac: TriggerMac,
    /// Packets waiting to be transmitted.
    pub tx_queue: VecDeque<Frame>,
    /// Packets delivered to this node (it was the destination).
    pub delivered: Vec<Frame>,
    next_seq: u16,
}

impl Node {
    /// Builds a node.
    pub fn new(cfg: NodeConfig, rng: DspRng) -> Self {
        Node {
            id: cfg.id,
            role: cfg.role,
            policy: RouterPolicy::new(),
            buffer: SentPacketBuffer::new(cfg.buffer_capacity),
            front_end: FrontEnd::default(),
            tx: TxChain::new(cfg.decoder.frame),
            rx: RxChain::new(cfg.decoder),
            mac: TriggerMac::new(cfg.mac, rng),
            tx_queue: VecDeque::new(),
            delivered: Vec::new(),
            next_seq: 0,
        }
    }

    /// Applies the radio front end to an outgoing baseband waveform:
    /// amplitude scaling plus the carrier rotation `phase0 + Δω·k`
    /// (§5.3's per-transmission phase `γ` and the oscillator drift the
    /// amplitude tracker of §6 absorbs). `carrier_phase` is drawn by
    /// the simulation engine so all transmitters share one stream.
    pub fn apply_front_end(&self, wave: &mut [Cplx], carrier_phase: f64) {
        self.front_end.apply(wave, 0, carrier_phase);
    }

    /// The node's frame configuration.
    pub fn frame_config(&self) -> &FrameConfig {
        self.tx.frame_config()
    }

    /// Creates, enqueues and returns a new data frame to `dst` with the
    /// given payload bits.
    pub fn enqueue_packet(&mut self, dst: NodeId, payload: Vec<bool>) -> Frame {
        let frame = Frame::new(Header::new(self.id, dst, self.next_seq, 0), payload);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.tx_queue.push_back(frame.clone());
        frame
    }

    /// Pops the next queued frame, records it in the sent-packet buffer
    /// (§7.3: kept for later interference cancellation), and returns
    /// its modulated waveform.
    pub fn transmit_next(&mut self) -> Option<(Frame, Vec<Cplx>)> {
        let frame = self.tx_queue.pop_front()?;
        self.buffer.insert(frame.clone());
        let samples = self.tx.modulate_frame(&frame);
        Some((frame, samples))
    }

    /// Modulates an arbitrary frame (relays re-originating packets),
    /// recording it in the buffer.
    pub fn transmit_frame(&mut self, frame: &Frame) -> Vec<Cplx> {
        self.buffer.insert(frame.clone());
        self.tx.modulate_frame(frame)
    }

    /// One engine poll: processes a reception window through the
    /// Alg.-1 RX chain against this node's buffer and policy. This is
    /// the smoltcp-style entry point the simulation engine drives —
    /// the engine owns the medium and the clock, the node owns its
    /// protocol state.
    pub fn poll(&mut self, rx: &[Cplx]) -> RxEvent {
        self.rx.process(rx, &self.buffer, &self.policy)
    }

    /// Promiscuous overhearing (the "X" topology, §11.5): attempt a
    /// *standard* decode of whatever is on the air — even if the
    /// variance detector would flag residual interference from a far
    /// transmitter — and buffer the recovered frame for later
    /// interference cancellation. Returns the frame and whether its
    /// CRC verified; `None` when nothing decodable was heard (the
    /// paper's "packet loss in overhearing").
    pub fn try_overhear(&mut self, rx: &[Cplx]) -> Option<(Frame, bool)> {
        let (frame, crc_ok) = self.rx.decode_clean(rx).ok()?;
        self.buffer.insert(frame.clone());
        Some((frame, crc_ok))
    }

    /// Draws this node's §7.2 random transmission delay, in samples.
    pub fn draw_delay(&mut self) -> usize {
        self.mac.draw_delay()
    }

    /// Accepts a frame destined to this node.
    pub fn deliver(&mut self, frame: Frame) {
        self.delivered.push(frame);
    }

    /// Swaps this node's decoder scratch with `other` (see
    /// [`RxChain::swap_scratch`]): the sim's shared batch pipeline
    /// loans warmed buffers in before a run and reclaims them after.
    pub fn swap_rx_scratch(&mut self, other: &mut anc_core::DecoderScratch) {
        self.rx.swap_scratch(other);
    }

    /// Access the TX chain.
    pub fn tx_chain(&self) -> &TxChain {
        &self.tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: NodeId) -> Node {
        Node::new(
            NodeConfig::new(id, NodeRole::Endpoint),
            DspRng::seed_from(id as u64),
        )
    }

    #[test]
    fn enqueue_assigns_sequential_seq() {
        let mut n = node(1);
        let f1 = n.enqueue_packet(2, vec![true; 8]);
        let f2 = n.enqueue_packet(2, vec![false; 8]);
        assert_eq!(f1.header.seq, 0);
        assert_eq!(f2.header.seq, 1);
        assert_eq!(n.tx_queue.len(), 2);
    }

    #[test]
    fn transmit_records_in_buffer() {
        let mut n = node(1);
        let f = n.enqueue_packet(2, vec![true; 16]);
        let (sent, samples) = n.transmit_next().unwrap();
        assert_eq!(sent, f);
        assert!(!samples.is_empty());
        assert!(n.buffer.contains(&f.header.key()));
        assert!(n.transmit_next().is_none());
    }

    #[test]
    fn seq_wraps() {
        let mut n = node(1);
        n.next_seq = u16::MAX;
        let f1 = n.enqueue_packet(2, vec![]);
        let f2 = n.enqueue_packet(2, vec![]);
        assert_eq!(f1.header.seq, u16::MAX);
        assert_eq!(f2.header.seq, 0);
    }

    #[test]
    fn deliver_collects() {
        let mut n = node(2);
        n.deliver(Frame::new(Header::new(1, 2, 0, 0), vec![true]));
        assert_eq!(n.delivered.len(), 1);
    }

    #[test]
    fn delays_are_node_specific_streams() {
        let mut a = node(1);
        let mut b = node(2);
        let da: Vec<usize> = (0..20).map(|_| a.draw_delay()).collect();
        let db: Vec<usize> = (0..20).map(|_| b.draw_delay()).collect();
        assert_ne!(da, db, "different nodes must draw different delays");
    }
}
