//! The end-to-end interference decoder (Alg. 1, §6–§7).
//!
//! Given the raw reception window and the on-air bits of the *known*
//! frame, [`AncDecoder::decode_forward`] recovers the unknown sender's
//! bit stream when the known packet started **first** (Alice's case,
//! §7.2), and [`AncDecoder::decode_backward`] when it started
//! **second** (Bob's case, §7.4).
//!
//! ## Forward pipeline
//!
//! 1. Detect the signal region (energy, §7.1).
//! 2. Demodulate the clean head with standard MSK and slide-match the
//!    known frame's pilot to align the known signal with the reception
//!    (§7.2, Fig. 5).
//! 3. Locate the interference onset with the energy-variance test
//!    (§7.1) and estimate amplitudes: the known signal's `A` from the
//!    clean prefix, both from Eqs. 5–6 inside the overlap, reconciled.
//! 4. Run the Lemma-6.1 + matcher machinery (§6.3) over the overlap,
//!    yielding the unknown signal's `Δφ` stream; threshold to bits
//!    (§6.4).
//! 5. Past the end of the known frame the unknown signal is alone:
//!    standard MSK demodulation finishes the stream.
//!
//! ## Backward pipeline
//!
//! Time-reverse **and conjugate** the reception. For any waveform,
//! `conj(reverse(y))` has the same per-interval phase differences as
//! the original read back-to-front, so the reversed-and-conjugated
//! stream is itself a valid MSK waveform — of the bit-reversed frames.
//! The frame layout's mirrored tail pilot/header (anc-frame) then sit
//! at the *head* of the transformed stream, and the forward pipeline
//! applies verbatim. Output bits are reversed back into natural order.

use crate::amplitude::{estimate_amplitudes, estimate_single_amplitude};
use crate::detect::{ClassifiedSignal, DetectorConfig, DetectorRings, SignalDetector};
use crate::matcher::{match_bits_batch, MatchBatchScratch};
use anc_dsp::batch::energies_into;
use anc_dsp::corr::best_match_bounded;
use anc_dsp::Cplx;
use anc_frame::FrameConfig;
use anc_modem::MskModem;

/// Decoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct DecoderConfig {
    /// Frame layout parameters (pilot length & tolerance).
    pub frame: FrameConfig,
    /// Detection thresholds (§7.1).
    pub detector: DetectorConfig,
    /// Bits of clean head searched for the known pilot beyond the
    /// frame's own overhead (tolerates detector jitter).
    pub pilot_search_slack: usize,
    /// Minimum clean-prefix samples required to trust the prefix
    /// amplitude hint.
    pub min_prefix_for_hint: usize,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            frame: FrameConfig::default(),
            detector: DetectorConfig::default(),
            pilot_search_slack: 512,
            min_prefix_for_hint: 16,
        }
    }
}

/// Why a decode attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// No signal crossed the energy gate.
    NoSignal,
    /// The known frame's pilot was not found in the clean head
    /// (§7.2: "If Alice fails to find the pilot sequence, she drops
    /// the packet").
    KnownPilotNotFound,
    /// The variance test found no interfered region — nothing to
    /// cancel; use standard demodulation instead.
    NotInterfered,
    /// Amplitude estimation failed (degenerate moments).
    AmplitudeEstimation,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::NoSignal => "no signal detected",
            DecodeError::KnownPilotNotFound => "known pilot not found in clean head",
            DecodeError::NotInterfered => "no interference detected",
            DecodeError::AmplitudeEstimation => "amplitude estimation failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

/// Diagnostics accompanying a successful decode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeDiagnostics {
    /// Estimated amplitude of the known signal at the receiver.
    pub known_amplitude: f64,
    /// Estimated amplitude of the unknown signal at the receiver.
    pub unknown_amplitude: f64,
    /// Sample index (within the reception) where interference begins.
    pub interference_onset: usize,
    /// Number of symbol intervals decoded through the matcher.
    pub overlap_symbols: usize,
    /// Fraction of the known frame's symbols that overlapped the
    /// unknown frame (the §11.4 "80 % overlap" statistic).
    pub overlap_fraction: f64,
}

/// A successful interference decode.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The unknown sender's recovered bit stream, in natural
    /// transmission order. Contains the unknown frame (parse with
    /// `Frame::parse_lenient`) possibly surrounded by garbage decisions
    /// from non-overlapping intervals.
    pub bits: Vec<bool>,
    /// Decode diagnostics.
    pub diagnostics: DecodeDiagnostics,
}

/// Reusable working memory for the Alg.-1 decode hot path.
///
/// One decode touches several intermediate streams — the §7.1
/// detector's energy and variance rings, demodulated head bits, the
/// per-sample energies, the known sender's `Δθ_s`, the matcher's
/// struct-of-arrays intermediates, and (backward decodes) the
/// conjugate-reversed reception. Owning them here lets a receiver
/// amortize those allocations across a run. After the first packet, a
/// successful `_with` forward or backward decode makes one allocation:
/// the recovered bit vector it returns. A decode that fails early
/// makes none.
///
/// Create one per receiver (or per worker thread) and pass it to the
/// `_with` decode variants; the scratch-free methods allocate a fresh
/// one per call and exist for one-shot/diagnostic use.
#[derive(Debug, Clone, Default)]
pub struct DecoderScratch {
    /// The §7.1 detector's rings (detection and the interference span).
    rings: DetectorRings,
    /// Demodulated clean-head bits (§7.2 pilot search).
    head_bits: Vec<bool>,
    /// Per-sample energies `|y|²` from the SoA lane kernel — feeds the
    /// interference-span search (§7.1, DESIGN.md §8).
    energies: Vec<f64>,
    /// Known sender's per-interval phase differences `Δθ_s` (§6.3).
    known_dtheta: Vec<f64>,
    /// Struct-of-arrays intermediates of the batched §6.3 kernel.
    batch: MatchBatchScratch,
    /// Conjugate-reversed reception for backward decodes (§7.4).
    reversed: Vec<Cplx>,
    /// Bit-reversed known frame for backward decodes (§7.4).
    reversed_known: Vec<bool>,
}

/// The Alg. 1 decoder.
#[derive(Debug, Clone)]
pub struct AncDecoder {
    cfg: DecoderConfig,
    detector: SignalDetector,
    modem: MskModem,
}

impl AncDecoder {
    /// Creates a decoder; the modem is symbol-rate MSK (the paper's
    /// sample model).
    pub fn new(cfg: DecoderConfig) -> Self {
        AncDecoder {
            cfg,
            detector: SignalDetector::new(cfg.detector),
            modem: MskModem::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// Detects and classifies the signal region of a reception.
    pub fn classify(&self, rx: &[Cplx]) -> Option<ClassifiedSignal> {
        self.detector.detect(rx)
    }

    /// [`Self::classify`] in the scratch's detector rings.
    pub fn classify_with(
        &self,
        rx: &[Cplx],
        scratch: &mut DecoderScratch,
    ) -> Option<ClassifiedSignal> {
        self.detector.detect_with(rx, &mut scratch.rings)
    }

    /// Bounds `(start, end)` of the reception's signal region, without
    /// the interference classification ([`SignalDetector::locate`]).
    pub fn locate(&self, rx: &[Cplx]) -> Option<(usize, usize)> {
        self.detector.locate(rx)
    }

    /// Decodes the unknown frame from an interfered reception in which
    /// the known frame started **first**.
    ///
    /// `known_bits` are the known frame's on-air bits
    /// (`Frame::to_bits`).
    ///
    /// Allocates fresh working memory per call; receivers on the hot
    /// path should use [`AncDecoder::decode_forward_with`].
    pub fn decode_forward(
        &self,
        rx: &[Cplx],
        known_bits: &[bool],
    ) -> Result<DecodeOutcome, DecodeError> {
        self.decode_forward_with(rx, known_bits, &mut DecoderScratch::default())
    }

    /// [`AncDecoder::decode_forward`] with caller-owned scratch
    /// buffers, amortizing the pipeline's allocations across a run.
    pub fn decode_forward_with(
        &self,
        rx: &[Cplx],
        known_bits: &[bool],
        scratch: &mut DecoderScratch,
    ) -> Result<DecodeOutcome, DecodeError> {
        let region = self
            .detector
            .detect_with(rx, &mut scratch.rings)
            .ok_or(DecodeError::NoSignal)?;
        self.decode_in_region(rx, &region, known_bits, scratch)
    }

    /// Decodes the unknown frame when the known frame started
    /// **second** (§7.4): conjugate-reverse the reception, bit-reverse
    /// the known frame, run the forward pipeline, un-reverse the output.
    ///
    /// Allocates fresh working memory per call; receivers on the hot
    /// path should use [`AncDecoder::decode_backward_with`].
    pub fn decode_backward(
        &self,
        rx: &[Cplx],
        known_bits: &[bool],
    ) -> Result<DecodeOutcome, DecodeError> {
        self.decode_backward_with(rx, known_bits, &mut DecoderScratch::default())
    }

    /// [`AncDecoder::decode_backward`] with caller-owned scratch
    /// buffers. The conjugate-reversed reception — for any waveform
    /// `conj(reverse(y))` is itself a valid MSK waveform of the
    /// bit-reversed frames (module docs) — lands in a reusable scratch
    /// buffer instead of materializing a second reception per call.
    pub fn decode_backward_with(
        &self,
        rx: &[Cplx],
        known_bits: &[bool],
        scratch: &mut DecoderScratch,
    ) -> Result<DecodeOutcome, DecodeError> {
        // The reversed views are moved out of the scratch for the
        // duration of the forward pass so the remaining scratch fields
        // can be borrowed mutably alongside them.
        let mut reversed = std::mem::take(&mut scratch.reversed);
        let mut reversed_known = std::mem::take(&mut scratch.reversed_known);
        reversed.clear();
        reversed.extend(rx.iter().rev().map(|s| s.conj()));
        reversed_known.clear();
        reversed_known.extend(known_bits.iter().rev().copied());
        let result = self.decode_forward_with(&reversed, &reversed_known, scratch);
        scratch.reversed = reversed;
        scratch.reversed_known = reversed_known;
        let mut out = result?;
        out.bits.reverse();
        Ok(out)
    }

    /// [`AncDecoder::decode_forward_with`] on the `region` that
    /// [`AncDecoder::classify`] returned for this same `rx`: a receiver
    /// that has already classified the reception skips a second
    /// detection.
    pub fn decode_in_region(
        &self,
        rx: &[Cplx],
        region: &ClassifiedSignal,
        known_bits: &[bool],
        scratch: &mut DecoderScratch,
    ) -> Result<DecodeOutcome, DecodeError> {
        let samples = &rx[region.start..region.end];
        if !region.interfered {
            return Err(DecodeError::NotInterfered);
        }

        // ---- Step 2: align the known signal via its pilot (§7.2). ----
        let pilot_len = self.cfg.frame.pilot_len.min(known_bits.len());
        let known_pilot = &known_bits[..pilot_len];
        let head_len = (pilot_len + self.cfg.pilot_search_slack + 1).min(samples.len());
        self.modem
            .demodulate_into(&samples[..head_len], &mut scratch.head_bits);
        // §7.2: "If Alice fails to find the pilot sequence, she drops
        // the packet" — the error budget lets each candidate offset
        // abort early instead of scanning the whole pilot.
        let (pilot_off, _errs) = best_match_bounded(
            &scratch.head_bits,
            known_pilot,
            self.cfg.frame.pilot_max_errors,
        )
        .ok_or(DecodeError::KnownPilotNotFound)?;
        // Known frame's bit 0 spans samples[f0 .. f0+1].
        let f0 = pilot_off;
        let known_len = known_bits.len();
        // Known frame occupies samples[f0 ..= f0 + known_len].
        let known_last = (f0 + known_len).min(samples.len().saturating_sub(1));

        // ---- Step 3: interference onset + amplitudes. ----
        // The variance test flags the packet's own rise edge (noise →
        // signal is a legitimate energy-variance spike), so the onset
        // search starts one detector window past the frame start. The
        // MAC's minimum stagger (≥ one slot ≫ one window, §7.2)
        // guarantees real interference cannot begin that early.
        // The |y|² map is one SoA lane pass; the span search then reads
        // only the windows that decide the onset and the overlap end,
        // exactly as the per-sample mask over `samples` would flag them.
        energies_into(samples, &mut scratch.energies);
        let search_from = (f0 + self.cfg.detector.window).min(known_last);
        let (onset, overlap_end) = self
            .detector
            .interference_span_with(
                &scratch.energies,
                search_from,
                known_last,
                &mut scratch.rings,
            )
            .ok_or(DecodeError::NotInterfered)?;

        // Known-signal amplitude from the clean prefix when available.
        // The prefix excludes a window-length margin before the onset:
        // the window's lookback means `onset` can sit up to one window
        // *early*, i.e. still inside the clean region, but the converse
        // error (prefix samples that are already interfered) must be
        // avoided.
        let w = self.cfg.detector.window;
        let prefix = &samples[..onset.saturating_sub(w)];
        let prefix_hint = if prefix.len() >= self.cfg.min_prefix_for_hint {
            estimate_single_amplitude(prefix)
        } else {
            None
        };
        // Amplitude statistics over the overlap *interior*: both the
        // onset and the known frame's tail step are energy transitions
        // that contaminate the moments, so a window-length margin is
        // trimmed from each end (kept only if enough samples remain).
        let overlap_all = &samples[onset..overlap_end];
        let overlap = if overlap_all.len() >= 2 * w + 32 {
            &overlap_all[w..overlap_all.len() - w]
        } else {
            overlap_all
        };
        let est = estimate_amplitudes(overlap);
        let mu = Cplx::mean_energy(overlap);
        let (a, b) = match (est, prefix_hint) {
            // Direct measurements first: A from the clean prefix, B via
            // Eq. 5 (µ = A² + B²). The pure Eq. 5/6 moment pair is the
            // fallback for receptions with no usable clean prefix.
            (_, Some(hint)) if mu > hint * hint * 1.02 => (hint, (mu - hint * hint).sqrt()),
            (Some(e), Some(hint)) => e.assign(hint),
            (Some(e), None) => (e.larger, e.smaller),
            (None, _) => return Err(DecodeError::AmplitudeEstimation),
        };
        if a <= 1e-6 || b <= 1e-6 || !a.is_finite() || !b.is_finite() {
            return Err(DecodeError::AmplitudeEstimation);
        }

        // ---- Step 4: matcher over the overlapped intervals (§6.3). ----
        // Interval n (absolute) uses known_dtheta[n - f0]; we start at
        // the onset interval and run to the end of the known frame.
        // Batched SoA lemma/matcher kernel: the §6.4 bit decisions land
        // directly in the output vector, which is returned to the caller.
        let start_int = onset.max(f0);
        self.modem
            .phase_differences_into(&known_bits[(start_int - f0)..], &mut scratch.known_dtheta);
        // known_last is already clamped into the sample range.
        let y = &samples[start_int..=known_last];
        let tail_start = f0 + known_len;
        let tail = samples.get(tail_start..).unwrap_or(&[]);
        let mut bits = Vec::with_capacity(scratch.known_dtheta.len() + tail.len());
        match_bits_batch(
            y,
            &scratch.known_dtheta,
            a,
            b,
            &mut scratch.batch,
            &mut bits,
        );
        let overlap_symbols = bits.len();

        // ---- Step 5: clean tail — the unknown signal alone (§7.2). ----
        self.modem.demodulate_extend(tail, &mut bits);

        let overlap_fraction = if known_len == 0 {
            0.0
        } else {
            overlap_symbols as f64 / known_len as f64
        };
        Ok(DecodeOutcome {
            bits,
            diagnostics: DecodeDiagnostics {
                known_amplitude: a,
                unknown_amplitude: b,
                interference_onset: region.start + onset,
                overlap_symbols,
                overlap_fraction: overlap_fraction.min(1.0),
            },
        })
    }

    /// Standard (non-interfered) reception: locate the signal region,
    /// demodulate it, return the raw bit stream of the region.
    pub fn decode_clean(&self, rx: &[Cplx]) -> Result<Vec<bool>, DecodeError> {
        let (start, end) = self.detector.locate(rx).ok_or(DecodeError::NoSignal)?;
        let mut bits = Vec::new();
        self.modem
            .demodulate_into(&rx[start..end.min(rx.len())], &mut bits);
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use anc_frame::{Frame, Header};
    use anc_modem::ber::ber;
    use anc_modem::Modem;

    const NOISE: f64 = 1e-4;

    struct World {
        rng: DspRng,
        cfg: DecoderConfig,
        modem: MskModem,
    }

    impl World {
        fn new(seed: u64) -> Self {
            World {
                rng: DspRng::seed_from(seed),
                cfg: DecoderConfig {
                    detector: DetectorConfig {
                        noise_floor: NOISE,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                modem: MskModem::default(),
            }
        }

        fn frame(&mut self, src: u8, dst: u8, seq: u16, payload_bits: usize) -> (Frame, Vec<bool>) {
            let payload = self.rng.bits(payload_bits);
            let f = Frame::new(Header::new(src, dst, seq, 0), payload);
            let bits = f.to_bits(&self.cfg.frame);
            (f, bits)
        }

        /// Builds the interfered reception: noise, known frame at
        /// `lead` samples before the unknown frame, trailing noise.
        /// Each signal gets an independent channel rotation and gain,
        /// and the unknown sender a small carrier offset (independent
        /// oscillators — see `amplitude` module docs).
        fn reception(
            &mut self,
            known: &[bool],
            unknown: &[bool],
            lead: usize,
            gain_known: f64,
            gain_unknown: f64,
        ) -> Vec<Cplx> {
            let sk = self.modem.modulate(known);
            let su = self.modem.modulate(unknown);
            let gk = self.rng.phase();
            let gu = self.rng.phase();
            let cfo = 0.02; // rad/sample between the two senders
            let pre = 128;
            let span = pre + lead + su.len() + 128;
            let mut rng = self.rng.fork(99);
            (0..span)
                .map(|t| {
                    let mut s = rng.complex_gaussian(NOISE);
                    if t >= pre && t < pre + sk.len() {
                        s += sk[t - pre].scale(gain_known).rotate(gk);
                    }
                    if t >= pre + lead && t < pre + lead + su.len() {
                        let k = t - pre - lead;
                        s += su[k].scale(gain_unknown).rotate(gu + cfo * k as f64);
                    }
                    s
                })
                .collect()
        }
    }

    #[test]
    fn forward_decode_recovers_unknown_frame() {
        let mut w = World::new(1);
        let (_kf, kb) = w.frame(1, 2, 1, 256);
        let (uf, ub) = w.frame(2, 1, 1, 256);
        let rx = w.reception(&kb, &ub, 200, 1.0, 1.0);
        let dec = AncDecoder::new(w.cfg);
        let out = dec.decode_forward(&rx, &kb).expect("decode");
        let (parsed, _, _) = Frame::parse_lenient(&out.bits, &w.cfg.frame).expect("parse");
        assert_eq!(parsed.header, uf.header);
        let b = ber(&parsed.payload, &uf.payload);
        assert!(b < 0.1, "payload BER {b}");
    }

    #[test]
    fn forward_decode_unequal_gains() {
        let mut w = World::new(2);
        let (_, kb) = w.frame(1, 2, 5, 200);
        let (uf, ub) = w.frame(2, 1, 5, 200);
        // Unknown signal 3 dB weaker (Fig. 13's −3 dB SIR point).
        let rx = w.reception(&kb, &ub, 192, 1.0, 0.707);
        let dec = AncDecoder::new(w.cfg);
        let out = dec.decode_forward(&rx, &kb).expect("decode");
        let (parsed, _, _) = Frame::parse_lenient(&out.bits, &w.cfg.frame).expect("parse");
        assert_eq!(parsed.header, uf.header);
        assert!(ber(&parsed.payload, &uf.payload) < 0.12);
    }

    #[test]
    fn backward_decode_recovers_first_frame() {
        // Bob's case: his own (known) frame started second; he decodes
        // the unknown frame that started first, from the tail backward.
        let mut w = World::new(3);
        let (uf, ub) = w.frame(1, 2, 9, 256); // unknown starts first
        let (_, kb) = w.frame(2, 1, 9, 256); // known starts second
        let rx = w.reception(&ub, &kb, 176, 1.0, 1.0);
        let dec = AncDecoder::new(w.cfg);
        let out = dec.decode_backward(&rx, &kb).expect("decode");
        let (parsed, _, _) = Frame::parse_lenient(&out.bits, &w.cfg.frame).expect("parse");
        assert_eq!(parsed.header, uf.header);
        assert!(ber(&parsed.payload, &uf.payload) < 0.1);
    }

    #[test]
    fn diagnostics_report_overlap() {
        let mut w = World::new(4);
        let (_, kb) = w.frame(1, 2, 2, 300);
        let (_, ub) = w.frame(2, 1, 2, 300);
        let lead = 150;
        let rx = w.reception(&kb, &ub, lead, 1.0, 1.0);
        let dec = AncDecoder::new(w.cfg);
        let out = dec.decode_forward(&rx, &kb).expect("decode");
        let d = out.diagnostics;
        // Amplitudes near 1.
        assert!(
            (d.known_amplitude - 1.0).abs() < 0.2,
            "A {}",
            d.known_amplitude
        );
        assert!(
            (d.unknown_amplitude - 1.0).abs() < 0.2,
            "B {}",
            d.unknown_amplitude
        );
        // Overlap fraction ≈ (known_len − lead)/known_len.
        let expect = (kb.len() - lead) as f64 / kb.len() as f64;
        assert!(
            (d.overlap_fraction - expect).abs() < 0.15,
            "overlap {} vs {}",
            d.overlap_fraction,
            expect
        );
    }

    #[test]
    fn clean_reception_reports_not_interfered() {
        let mut w = World::new(5);
        let (_, kb) = w.frame(1, 2, 3, 128);
        let sk = w.modem.modulate(&kb);
        let mut rng = w.rng.fork(1);
        let mut rx: Vec<Cplx> = (0..128).map(|_| rng.complex_gaussian(NOISE)).collect();
        rx.extend(sk.iter().map(|&s| s + rng.complex_gaussian(NOISE)));
        rx.extend((0..128).map(|_| rng.complex_gaussian(NOISE)));
        let dec = AncDecoder::new(w.cfg);
        assert_eq!(
            dec.decode_forward(&rx, &kb).unwrap_err(),
            DecodeError::NotInterfered
        );
        // decode_clean must recover the frame.
        let bits = dec.decode_clean(&rx).expect("clean");
        let (parsed, _, crc) = Frame::parse_lenient(&bits, &w.cfg.frame).expect("parse");
        assert!(crc);
        assert_eq!(parsed.header, Header::new(1, 2, 3, 128));
    }

    #[test]
    fn pure_noise_reports_no_signal() {
        let w = World::new(6);
        let mut rng = DspRng::seed_from(7);
        let rx: Vec<Cplx> = (0..4096).map(|_| rng.complex_gaussian(NOISE)).collect();
        let dec = AncDecoder::new(w.cfg);
        assert_eq!(
            dec.decode_forward(&rx, &[true; 300]).unwrap_err(),
            DecodeError::NoSignal
        );
    }

    #[test]
    fn wrong_known_bits_fail_pilot_match() {
        // If the receiver guesses the wrong packet from its buffer, the
        // pilot align step must reject rather than emit garbage.
        let mut w = World::new(8);
        let (_, kb) = w.frame(1, 2, 1, 128);
        let (_, ub) = w.frame(2, 1, 1, 128);
        let rx = w.reception(&kb, &ub, 160, 1.0, 1.0);
        let dec = AncDecoder::new(w.cfg);
        // Known bits with a corrupted pilot region.
        let mut wrong = kb.clone();
        for b in wrong[..40].iter_mut() {
            *b = !*b;
        }
        assert_eq!(
            dec.decode_forward(&rx, &wrong).unwrap_err(),
            DecodeError::KnownPilotNotFound
        );
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        // One scratch carried across many decodes — forward and
        // backward, different packet sizes — must produce exactly the
        // outcomes of the allocate-per-call API.
        let mut w = World::new(12);
        let dec = AncDecoder::new(w.cfg);
        let mut scratch = DecoderScratch::default();
        for (i, payload) in [256usize, 128, 300, 256].iter().enumerate() {
            let (_, kb) = w.frame(1, 2, i as u16, *payload);
            let (_, ub) = w.frame(2, 1, i as u16, *payload);
            let rx = w.reception(&kb, &ub, 150 + 17 * i, 1.0, 0.9);
            let fresh = dec.decode_forward(&rx, &kb).expect("fresh decode");
            let reused = dec
                .decode_forward_with(&rx, &kb, &mut scratch)
                .expect("scratch decode");
            assert_eq!(fresh.bits, reused.bits, "forward packet {i}");
            assert_eq!(fresh.diagnostics, reused.diagnostics);
            // Same reception read from Bob's side: the unknown frame
            // started first relative to the reversed stream.
            let fresh_b = dec.decode_backward(&rx, &ub);
            let reused_b = dec.decode_backward_with(&rx, &ub, &mut scratch);
            match (fresh_b, reused_b) {
                (Ok(f), Ok(r)) => {
                    assert_eq!(f.bits, r.bits, "backward packet {i}");
                    assert_eq!(f.diagnostics, r.diagnostics);
                }
                (Err(e), Err(g)) => assert_eq!(e, g),
                (f, r) => panic!("diverged: {f:?} vs {r:?}"),
            }
        }
    }

    #[test]
    fn short_overlap_still_decodes() {
        // Minimal overlap: the unknown frame starts near the known
        // frame's end. The matcher region is short but the clean tail
        // carries most of the unknown frame.
        let mut w = World::new(9);
        let (_, kb) = w.frame(1, 2, 4, 200);
        let (uf, ub) = w.frame(2, 1, 4, 200);
        let lead = kb.len() - 120; // only ~120 symbols overlap
        let rx = w.reception(&kb, &ub, lead, 1.0, 1.0);
        let dec = AncDecoder::new(w.cfg);
        let out = dec.decode_forward(&rx, &kb).expect("decode");
        let (parsed, _, _) = Frame::parse_lenient(&out.bits, &w.cfg.frame).expect("parse");
        assert_eq!(parsed.header, uf.header);
        assert!(out.diagnostics.overlap_fraction < 0.4);
    }
}
