//! The Fig.-8 processing chains.
//!
//! TX: packet → Framer → Modulator → (RF). RX: (RF) → Packet Detector →
//! Interference Detector → {standard MSK demod | Header Decoder →
//! Matcher → ANC Decoder} → Deframer → packet. The router branch
//! (amplify / drop) surfaces as an [`RxEvent`] so the owning node can
//! act on it (§7.5).

#![deny(clippy::cast_possible_truncation)]

use anc_core::decoder::{
    AncDecoder, DecodeDiagnostics, DecodeError, DecoderConfig, DecoderScratch,
};
use anc_core::router::{RouterAction, RouterPolicy};
use anc_dsp::corr::best_match_bounded;
use anc_dsp::lfsr::pilot_sequence;
use anc_dsp::Cplx;
use anc_frame::header::HEADER_BITS;
use anc_frame::{Frame, FrameConfig, Header, PacketKey, SentPacketBuffer};
use anc_modem::{Modem, MskConfig, MskModem};

/// The transmitter side of Fig. 8: Framer → Modulator.
#[derive(Debug, Clone)]
pub struct TxChain {
    frame_cfg: FrameConfig,
    modem: MskModem,
}

impl TxChain {
    /// Creates a TX chain with the given frame layout (symbol-rate
    /// front end, one sample per bit).
    pub fn new(frame_cfg: FrameConfig) -> Self {
        TxChain::with_oversampling(frame_cfg, 1)
    }

    /// Creates a TX chain whose front end emits `samples_per_symbol`
    /// complex samples per bit (an oversampled radio).
    ///
    /// # Panics
    /// Panics if `samples_per_symbol == 0`.
    pub fn with_oversampling(frame_cfg: FrameConfig, samples_per_symbol: usize) -> Self {
        TxChain {
            frame_cfg,
            modem: MskModem::new(MskConfig::oversampled(samples_per_symbol)),
        }
    }

    /// The frame configuration in use.
    pub fn frame_config(&self) -> &FrameConfig {
        &self.frame_cfg
    }

    /// On-air samples per bit-time — the unit conversion MAC delay
    /// draws must use so staggering stays in sample units whatever the
    /// front end's oversampling factor.
    pub fn samples_per_bit(&self) -> usize {
        self.modem.config().samples_per_symbol
    }

    /// Serializes and modulates a frame into baseband samples.
    pub fn modulate_frame(&self, frame: &Frame) -> Vec<Cplx> {
        self.modem.modulate(&frame.to_bits(&self.frame_cfg))
    }

    /// On-air sample count for a frame.
    pub fn sample_count(&self, frame: &Frame) -> usize {
        self.modem.sample_count(frame.bit_len(&self.frame_cfg))
    }
}

/// Why a reception produced no packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Nothing crossed the energy gate.
    NoSignal,
    /// A clean packet was detected but did not parse (pilot/header).
    ParseFailed,
    /// Interfered, and the ANC decode failed.
    DecodeFailed(DecodeError),
    /// Interfered, decode succeeded, but the recovered stream did not
    /// contain a parseable frame.
    RecoveredParseFailed,
    /// The router policy said to drop (§7.5's final case).
    PolicyDrop,
}

/// Outcome of processing one reception window (Alg. 1).
#[derive(Debug, Clone)]
pub enum RxEvent {
    /// A clean (non-interfered) packet.
    Clean {
        /// The parsed frame.
        frame: Frame,
        /// Whether the payload CRC verified.
        crc_ok: bool,
    },
    /// An interfered packet decoded via ANC using a buffered known
    /// packet.
    AncDecoded {
        /// The recovered (unknown) frame — payload may carry bit errors.
        frame: Frame,
        /// Whether the payload CRC verified.
        crc_ok: bool,
        /// Which buffered packet was used as the known signal.
        known: PacketKey,
        /// Decoder diagnostics (amplitudes, overlap, onset).
        diagnostics: DecodeDiagnostics,
    },
    /// Interfered signal this node cannot decode but should amplify and
    /// re-broadcast (the relay case). Carries the detected region
    /// bounds within the reception.
    Relay {
        /// First sample of the detected region.
        start: usize,
        /// One past the last sample of the region.
        end: usize,
        /// Header recovered from the region's clean head, if any.
        head: Option<Header>,
        /// Header recovered from the region's clean tail, if any.
        tail: Option<Header>,
    },
    /// Nothing useful.
    Dropped(DropReason),
}

/// The receiver side of Fig. 8.
///
/// Owns the [`DecoderScratch`] its decoder works in, so a node's
/// per-packet decodes stop allocating once the buffers have grown to
/// packet size — the receive path is driven per reception window, and
/// the scratch persists across windows.
#[derive(Debug, Clone)]
pub struct RxChain {
    decoder: AncDecoder,
    frame_cfg: FrameConfig,
    modem: MskModem,
    scratch: DecoderScratch,
}

impl RxChain {
    /// Creates an RX chain (symbol-rate, matching [`TxChain::new`]).
    pub fn new(cfg: DecoderConfig) -> Self {
        RxChain::with_oversampling(cfg, 1)
    }

    /// Creates an RX chain whose demodulator expects
    /// `samples_per_symbol` samples per bit, matching an oversampled
    /// [`TxChain::with_oversampling`] front end.
    ///
    /// # Panics
    /// Panics if `samples_per_symbol == 0`.
    pub fn with_oversampling(cfg: DecoderConfig, samples_per_symbol: usize) -> Self {
        RxChain {
            decoder: AncDecoder::new(cfg),
            frame_cfg: cfg.frame,
            modem: MskModem::new(MskConfig::oversampled(samples_per_symbol)),
            scratch: DecoderScratch::default(),
        }
    }

    /// The underlying ANC decoder.
    pub fn decoder(&self) -> &AncDecoder {
        &self.decoder
    }

    /// Swaps this chain's decoder scratch with `other`.
    ///
    /// The shared batch pipeline (`anc-sim`) loans warmed per-worker
    /// scratch buffers into each engine's nodes before a run and takes
    /// them back afterwards, so Monte Carlo trials amortize decode
    /// allocations across engines instead of regrowing them per trial.
    pub fn swap_scratch(&mut self, other: &mut DecoderScratch) {
        std::mem::swap(&mut self.scratch, other);
    }

    /// Reads the header near the head of a `total`-bit stream whose
    /// first bits are `head`: pilot located by best correlation, header
    /// follows it. `head` must hold [`Self::header_span`] bits (or the
    /// whole stream, if shorter).
    fn read_head_header(&self, head: &[bool], total: usize) -> Option<Header> {
        let p = self.frame_cfg.pilot_len;
        let pilot = pilot_sequence(p);
        let search = (p + HEADER_BITS + 512).min(total);
        let (off, _err) =
            best_match_bounded(&head[..search], &pilot, self.frame_cfg.pilot_max_errors)?;
        if off + p + HEADER_BITS > total {
            return None;
        }
        Header::from_bits(&head[off + p..off + p + HEADER_BITS])
    }

    /// Bits [`Self::read_head_header`] can read: the pilot search span
    /// plus one header past its end.
    fn header_span(&self) -> usize {
        self.frame_cfg.pilot_len + 2 * HEADER_BITS + 512
    }

    /// Recovers both headers of an interfered region (§7.5): the first
    /// packet's from the clean head, the second's from the clean tail
    /// (its mirrored header, read on the reversed bits). MSK decides
    /// each bit from its own symbol interval, so only the two header
    /// spans are demodulated.
    pub fn peek_headers(&self, region: &[Cplx]) -> (Option<Header>, Option<Header>) {
        let s = self.modem.config().samples_per_symbol;
        // Bit k spans samples k·s ..= (k+1)·s.
        let total = region.len().saturating_sub(1) / s;
        let span = self.header_span().min(total);
        let end = |bits: usize| (bits * s + 1).min(region.len());
        let head = self.modem.demodulate(&region[..end(span)]);
        let mut tail = self
            .modem
            .demodulate(&region[(total - span) * s..end(total)]);
        tail.reverse();
        (
            self.read_head_header(&head, total),
            self.read_head_header(&tail, total),
        )
    }

    /// The full Alg.-1 receive path for one reception window.
    ///
    /// `buffer` holds the node's sent/overheard packets (§7.3);
    /// `policy` its router knowledge (§7.5). Takes `&mut self` because
    /// the decode runs in the chain's own scratch buffers.
    pub fn process(
        &mut self,
        rx: &[Cplx],
        buffer: &SentPacketBuffer,
        policy: &RouterPolicy,
    ) -> RxEvent {
        let Some(region) = self.decoder.classify(rx) else {
            return RxEvent::Dropped(DropReason::NoSignal);
        };
        let samples = &rx[region.start..region.end];
        if !region.interfered {
            // Standard MSK path.
            let bits = self.modem.demodulate(samples);
            return match Frame::parse_lenient(&bits, &self.frame_cfg) {
                Ok((frame, _, crc_ok)) => RxEvent::Clean { frame, crc_ok },
                Err(_) => RxEvent::Dropped(DropReason::ParseFailed),
            };
        }
        // Interfered: recover both headers, ask the policy.
        let (head, tail) = self.peek_headers(samples);
        match policy.decide(head, tail, buffer) {
            RouterAction::Decode {
                known,
                known_starts_first,
            } => {
                let known_frame = buffer.get(&known).expect("policy checked membership");
                let known_bits = known_frame.to_bits(&self.frame_cfg);
                let result = if known_starts_first {
                    self.decoder
                        .decode_forward_with(rx, &known_bits, &mut self.scratch)
                } else {
                    self.decoder
                        .decode_backward_with(rx, &known_bits, &mut self.scratch)
                };
                match result {
                    Ok(out) => match Frame::parse_lenient(&out.bits, &self.frame_cfg) {
                        Ok((frame, _, crc_ok)) => RxEvent::AncDecoded {
                            frame,
                            crc_ok,
                            known,
                            diagnostics: out.diagnostics,
                        },
                        Err(_) => RxEvent::Dropped(DropReason::RecoveredParseFailed),
                    },
                    Err(e) => RxEvent::Dropped(DropReason::DecodeFailed(e)),
                }
            }
            RouterAction::AmplifyForward => RxEvent::Relay {
                start: region.start,
                end: region.end,
                head,
                tail,
            },
            RouterAction::Drop => RxEvent::Dropped(DropReason::PolicyDrop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_core::detect::DetectorConfig;
    use anc_dsp::DspRng;
    use anc_modem::ber::ber;

    const NOISE: f64 = 1e-4;

    fn decoder_cfg() -> DecoderConfig {
        DecoderConfig {
            detector: DetectorConfig {
                noise_floor: NOISE,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn make_frame(rng: &mut DspRng, src: u8, dst: u8, seq: u16, len: usize) -> Frame {
        Frame::new(Header::new(src, dst, seq, 0), rng.bits(len))
    }

    /// Noise-padded reception of staggered (possibly overlapping)
    /// transmissions; each `(frame, start, gain, cfo)`.
    fn reception(rng: &mut DspRng, tx: &TxChain, items: &[(&Frame, usize, f64, f64)]) -> Vec<Cplx> {
        let pre = 128;
        let end = items
            .iter()
            .map(|(f, s, _, _)| s + tx.sample_count(f))
            .max()
            .unwrap_or(0);
        let span = pre + end + 128;
        let mut out: Vec<Cplx> = (0..span).map(|_| rng.complex_gaussian(NOISE)).collect();
        for (frame, start, gain, cfo) in items {
            let g0 = rng.phase();
            let sig = tx.modulate_frame(frame);
            for (k, &s) in sig.iter().enumerate() {
                out[pre + start + k] += s.scale(*gain).rotate(g0 + cfo * k as f64);
            }
        }
        out
    }

    #[test]
    fn clean_packet_through_rx_chain() {
        let mut rng = DspRng::seed_from(1);
        let tx = TxChain::new(FrameConfig::default());
        let f = make_frame(&mut rng, 1, 2, 1, 128);
        let rx_samples = reception(&mut rng, &tx, &[(&f, 0, 1.0, 0.0)]);
        let mut rxc = RxChain::new(decoder_cfg());
        let buf = SentPacketBuffer::new(4);
        match rxc.process(&rx_samples, &buf, &RouterPolicy::new()) {
            RxEvent::Clean { frame, crc_ok } => {
                assert!(crc_ok);
                assert_eq!(frame, f);
            }
            other => panic!("expected Clean, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_decodes_interfered_with_own_packet() {
        // Alice's case: she sent `mine` (starting first at the relay's
        // mixture — here modeled directly), receives the interference,
        // and decodes Bob's packet.
        let mut rng = DspRng::seed_from(2);
        let tx = TxChain::new(FrameConfig::default());
        let mine = make_frame(&mut rng, 1, 2, 7, 256);
        let theirs = make_frame(&mut rng, 2, 1, 7, 256);
        let rx_samples = reception(
            &mut rng,
            &tx,
            &[(&mine, 0, 1.0, 0.0), (&theirs, 300, 1.0, 0.02)],
        );
        let mut rxc = RxChain::new(decoder_cfg());
        let mut buf = SentPacketBuffer::new(4);
        buf.insert(mine.clone());
        match rxc.process(&rx_samples, &buf, &RouterPolicy::new()) {
            RxEvent::AncDecoded {
                frame,
                known,
                diagnostics,
                ..
            } => {
                assert_eq!(known, mine.header.key());
                assert_eq!(frame.header, theirs.header);
                assert!(ber(&frame.payload, &theirs.payload) < 0.1);
                assert!(diagnostics.overlap_fraction > 0.3);
            }
            other => panic!("expected AncDecoded, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_decodes_backward_when_own_packet_second() {
        // Bob's case: his packet started second.
        let mut rng = DspRng::seed_from(3);
        let tx = TxChain::new(FrameConfig::default());
        let theirs = make_frame(&mut rng, 1, 2, 9, 256);
        let mine = make_frame(&mut rng, 2, 1, 9, 256);
        let rx_samples = reception(
            &mut rng,
            &tx,
            &[(&theirs, 0, 1.0, 0.0), (&mine, 280, 1.0, 0.02)],
        );
        let mut rxc = RxChain::new(decoder_cfg());
        let mut buf = SentPacketBuffer::new(4);
        buf.insert(mine.clone());
        match rxc.process(&rx_samples, &buf, &RouterPolicy::new()) {
            RxEvent::AncDecoded { frame, known, .. } => {
                assert_eq!(known, mine.header.key());
                assert_eq!(frame.header, theirs.header);
                assert!(ber(&frame.payload, &theirs.payload) < 0.1);
            }
            other => panic!("expected AncDecoded, got {other:?}"),
        }
    }

    #[test]
    fn router_relays_opposite_flows() {
        // The Alice-Bob router: knows neither packet, flows opposite.
        let mut rng = DspRng::seed_from(4);
        let tx = TxChain::new(FrameConfig::default());
        let fa = make_frame(&mut rng, 1, 2, 3, 200);
        let fb = make_frame(&mut rng, 2, 1, 5, 200);
        let rx_samples = reception(&mut rng, &tx, &[(&fa, 0, 1.0, 0.0), (&fb, 250, 0.9, 0.02)]);
        let mut rxc = RxChain::new(decoder_cfg());
        let buf = SentPacketBuffer::new(4);
        let mut policy = RouterPolicy::new();
        policy.add_relay_pair(1, 2);
        match rxc.process(&rx_samples, &buf, &policy) {
            RxEvent::Relay {
                head,
                tail,
                start,
                end,
            } => {
                assert_eq!(head.unwrap().key(), fa.header.key());
                assert_eq!(tail.unwrap().key(), fb.header.key());
                assert!(end > start);
            }
            other => panic!("expected Relay, got {other:?}"),
        }
    }

    #[test]
    fn unknown_interference_dropped() {
        let mut rng = DspRng::seed_from(5);
        let tx = TxChain::new(FrameConfig::default());
        let fa = make_frame(&mut rng, 8, 9, 1, 128);
        let fb = make_frame(&mut rng, 9, 8, 1, 128);
        let rx_samples = reception(&mut rng, &tx, &[(&fa, 0, 1.0, 0.0), (&fb, 200, 1.0, 0.02)]);
        let mut rxc = RxChain::new(decoder_cfg());
        let buf = SentPacketBuffer::new(4);
        // Policy knows nothing about the 8↔9 pair.
        match rxc.process(&rx_samples, &buf, &RouterPolicy::new()) {
            RxEvent::Dropped(DropReason::PolicyDrop) => {}
            other => panic!("expected PolicyDrop, got {other:?}"),
        }
    }

    #[test]
    fn peek_headers_matches_full_demodulation() {
        // Demodulating only the two header spans must read the same
        // headers as demodulating the whole region and reversing all of
        // it, at every region length and oversampling factor.
        let mut rng = DspRng::seed_from(9);
        for sps in [1, 2, 3] {
            let tx = TxChain::with_oversampling(FrameConfig::default(), sps);
            let rxc = RxChain::with_oversampling(decoder_cfg(), sps);
            let fa = make_frame(&mut rng, 1, 2, 3, 300);
            let fb = make_frame(&mut rng, 2, 1, 5, 300);
            let region = reception(
                &mut rng,
                &tx,
                &[(&fa, 0, 1.0, 0.0), (&fb, 250 * sps, 0.9, 0.02)],
            );
            let mut lens: Vec<usize> = (0..40).chain((0..region.len()).step_by(97)).collect();
            lens.push(region.len());
            for len in lens {
                let r = &region[..len];
                let bits = rxc.modem.demodulate(r);
                let rev: Vec<bool> = bits.iter().rev().copied().collect();
                let want = (
                    rxc.read_head_header(&bits, bits.len()),
                    rxc.read_head_header(&rev, rev.len()),
                );
                assert_eq!(rxc.peek_headers(r), want, "sps {sps}, len {len}");
            }
            let (head, tail) = rxc.peek_headers(&region);
            assert_eq!(head.unwrap().key(), fa.header.key(), "sps {sps}");
            assert_eq!(tail.unwrap().key(), fb.header.key(), "sps {sps}");
        }
    }

    #[test]
    fn silence_is_no_signal() {
        let mut rng = DspRng::seed_from(6);
        let rx_samples: Vec<Cplx> = (0..2048).map(|_| rng.complex_gaussian(NOISE)).collect();
        let mut rxc = RxChain::new(decoder_cfg());
        let buf = SentPacketBuffer::new(4);
        match rxc.process(&rx_samples, &buf, &RouterPolicy::new()) {
            RxEvent::Dropped(DropReason::NoSignal) => {}
            other => panic!("expected NoSignal, got {other:?}"),
        }
    }

    #[test]
    fn tx_chain_sample_count_matches() {
        let mut rng = DspRng::seed_from(7);
        let tx = TxChain::new(FrameConfig::default());
        let f = make_frame(&mut rng, 1, 2, 1, 77);
        assert_eq!(tx.modulate_frame(&f).len(), tx.sample_count(&f));
    }

    #[test]
    fn relayed_mixture_decodes_at_endpoint() {
        // End-to-end Alice-Bob slot 2: the router amplifies the mixture
        // and re-broadcasts; Alice decodes Bob's packet from it.
        use anc_channel::AmplifyForward;
        let mut rng = DspRng::seed_from(8);
        let tx = TxChain::new(FrameConfig::default());
        let alice_pkt = make_frame(&mut rng, 1, 2, 4, 256);
        let bob_pkt = make_frame(&mut rng, 2, 1, 4, 256);
        // Mixture as received at the router.
        let at_router = reception(
            &mut rng,
            &tx,
            &[(&alice_pkt, 0, 0.8, 0.0), (&bob_pkt, 300, 0.7, 0.02)],
        );
        // Router amplifies the detected region and re-broadcasts.
        let mut rxc = RxChain::new(decoder_cfg());
        let region = rxc.decoder().classify(&at_router).expect("detect");
        let relay = AmplifyForward::new(1.0);
        let (amplified, _) = relay.amplify_window(&at_router, region.start, region.end);
        // Channel router→Alice plus her receiver noise.
        let g = rng.phase();
        let mut at_alice: Vec<Cplx> = (0..128).map(|_| rng.complex_gaussian(NOISE)).collect();
        at_alice.extend(
            amplified
                .iter()
                .map(|&s| s.scale(0.9).rotate(g) + rng.complex_gaussian(NOISE)),
        );
        at_alice.extend((0..128).map(|_| rng.complex_gaussian(NOISE)));
        let mut buf = SentPacketBuffer::new(4);
        buf.insert(alice_pkt.clone());
        match rxc.process(&at_alice, &buf, &RouterPolicy::new()) {
            RxEvent::AncDecoded { frame, .. } => {
                assert_eq!(frame.header, bob_pkt.header);
                let b = ber(&frame.payload, &bob_pkt.payload);
                assert!(b < 0.15, "post-relay BER {b}");
            }
            other => panic!("expected AncDecoded, got {other:?}"),
        }
    }
}
