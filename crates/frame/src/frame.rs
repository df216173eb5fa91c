//! The ANC frame layout (Fig. 6, §7.2–§7.4).
//!
//! ```text
//! | pilot (64) | header (64) | whitened payload | CRC-16 | header̅ (64) | pilot̅ (64) |
//! ```
//!
//! where `x̅` is `x` bit-reversed. The head pilot + header serve the
//! first-starting sender's forward decode; the mirrored tail pair serve
//! the second sender's *backward* decode (§7.4: Bob "runs the algorithm
//! starting with the last sample and going backward in time"). The
//! payload is whitened (§6.2) so the amplitude estimator sees random
//! bits regardless of content; pilots and headers are left raw — the
//! pilot is already pseudo-random and the header carries its own CRC-8.

use crate::crc::{crc16, verify_crc16};
use crate::header::{Header, HEADER_BITS};
use anc_dsp::corr::best_match;
use anc_dsp::lfsr::{pilot_sequence, Lfsr, WHITEN_SEED};

/// Frame construction/parsing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameConfig {
    /// Pilot length in bits (§7.2 uses 64).
    pub pilot_len: usize,
    /// Whether payload whitening (§6.2) is applied.
    pub whiten: bool,
    /// Maximum bit errors tolerated when locating a pilot by sliding
    /// correlation.
    pub pilot_max_errors: usize,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            pilot_len: 64,
            whiten: true,
            pilot_max_errors: 6,
        }
    }
}

impl FrameConfig {
    /// Framing overhead in bits (everything except the payload).
    pub const fn overhead_bits(&self) -> usize {
        2 * self.pilot_len + 2 * HEADER_BITS + 16
    }

    /// Total frame length for a payload of `payload_len` bits.
    pub const fn frame_bits(&self, payload_len: usize) -> usize {
        payload_len + self.overhead_bits()
    }
}

/// Errors produced when parsing a frame from bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Input shorter than the fixed framing overhead.
    TooShort,
    /// No pilot sequence found within the error tolerance.
    PilotNotFound,
    /// Header failed its CRC-8 (or truncated).
    BadHeader,
    /// Header's length field runs past the available bits.
    LengthMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::TooShort => "bit stream shorter than frame overhead",
            FrameError::PilotNotFound => "pilot sequence not found",
            FrameError::BadHeader => "header CRC mismatch",
            FrameError::LengthMismatch => "header length exceeds available bits",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FrameError {}

/// A frame: header plus payload bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame header (length field kept consistent with `payload`).
    pub header: Header,
    /// Raw (un-whitened) payload bits.
    pub payload: Vec<bool>,
}

impl Frame {
    /// Builds a frame; the header's `len` field is set from the payload.
    ///
    /// # Panics
    /// Panics if the payload exceeds `u16::MAX` bits (the header's
    /// length field width).
    pub fn new(header: Header, payload: Vec<bool>) -> Self {
        assert!(payload.len() <= u16::MAX as usize, "payload too long");
        let mut header = header;
        header.len = payload.len() as u16;
        Frame { header, payload }
    }

    /// Serializes to the on-air bit layout. The payload is copied once,
    /// straight into the output, then whitened and checksummed there.
    pub fn to_bits(&self, cfg: &FrameConfig) -> Vec<bool> {
        let pilot = pilot_sequence(cfg.pilot_len);
        let header_bits = self.header.to_bits();

        let mut bits = Vec::with_capacity(cfg.frame_bits(self.payload.len()));
        bits.extend_from_slice(&pilot);
        bits.extend_from_slice(&header_bits);
        let body_start = bits.len();
        bits.extend_from_slice(&self.payload);
        let body = &mut bits[body_start..];
        if cfg.whiten {
            Lfsr::new(WHITEN_SEED).whiten(body);
        }
        let c = crc16(body);
        bits.extend((0..16).rev().map(|i| (c >> i) & 1 == 1));
        bits.extend(header_bits.iter().rev());
        bits.extend(pilot.iter().rev());
        bits
    }

    /// Total on-air length of this frame in bits.
    pub fn bit_len(&self, cfg: &FrameConfig) -> usize {
        cfg.frame_bits(self.payload.len())
    }

    /// Lenient parse for bit streams recovered through interference
    /// decoding, which carry a residual BER (§11.4 reports ≈ 4 %): the
    /// payload CRC is *reported*, not enforced, and the header may be
    /// taken from either end of the frame (the random-delay staggering
    /// of §7.2 guarantees one end was interference-free).
    ///
    /// Locates the head pilot by best correlation, then accepts the
    /// first valid header found among {head header, mirrored tail
    /// header}. Returns the frame, the bit offset of its start, and
    /// whether the payload CRC verified.
    pub fn parse_lenient(
        bits: &[bool],
        cfg: &FrameConfig,
    ) -> Result<(Frame, usize, bool), FrameError> {
        let p = cfg.pilot_len;
        let pilot = pilot_sequence(p);
        let (off, err) = best_match(bits, &pilot).ok_or(FrameError::TooShort)?;
        if err > cfg.pilot_max_errors {
            return Err(FrameError::PilotNotFound);
        }
        let r = &bits[off..];
        if r.len() < cfg.overhead_bits() {
            return Err(FrameError::TooShort);
        }
        // Try the head header first.
        let head = Header::from_bits(&r[p..p + HEADER_BITS]);
        let header = match head {
            Some(h) => h,
            None => {
                // Fall back to the mirrored tail header of the frame.
                // We do not know the length yet, so scan candidate tail
                // positions: the tail pilot should also correlate.
                let rev: Vec<bool> = r.iter().rev().copied().collect();
                let (tail_off, tail_err) = best_match(&rev, &pilot).ok_or(FrameError::BadHeader)?;
                if tail_err > cfg.pilot_max_errors {
                    return Err(FrameError::BadHeader);
                }
                let t = &rev[tail_off..];
                if t.len() < p + HEADER_BITS {
                    return Err(FrameError::BadHeader);
                }
                Header::from_bits(&t[p..p + HEADER_BITS]).ok_or(FrameError::BadHeader)?
            }
        };
        let len = header.len as usize;
        if r.len() < cfg.frame_bits(len) {
            return Err(FrameError::LengthMismatch);
        }
        let body_start = p + HEADER_BITS;
        let body = &r[body_start..body_start + len];
        let crc_ok = verify_crc16(&r[body_start..body_start + len + 16]).is_some();
        let mut payload = body.to_vec();
        if cfg.whiten {
            Lfsr::new(WHITEN_SEED).whiten(&mut payload);
        }
        Ok((Frame { header, payload }, off, crc_ok))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;

    fn sample_frame(seed: u64, len: usize) -> Frame {
        let mut rng = DspRng::seed_from(seed);
        Frame::new(Header::new(1, 2, 7, 0), rng.bits(len))
    }

    #[test]
    fn roundtrip_forward() {
        let cfg = FrameConfig::default();
        let f = sample_frame(1, 200);
        let bits = f.to_bits(&cfg);
        assert_eq!(bits.len(), cfg.frame_bits(200));
        assert_eq!(Frame::parse_lenient(&bits, &cfg), Ok((f, 0, true)));
    }

    #[test]
    fn roundtrip_without_whitening() {
        let cfg = FrameConfig {
            whiten: false,
            ..Default::default()
        };
        let f = sample_frame(2, 64);
        assert_eq!(
            Frame::parse_lenient(&f.to_bits(&cfg), &cfg),
            Ok((f, 0, true))
        );
    }

    #[test]
    fn roundtrip_empty_payload() {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(3, 4, 0, 0), vec![]);
        assert_eq!(
            Frame::parse_lenient(&f.to_bits(&cfg), &cfg),
            Ok((f, 0, true))
        );
    }

    #[test]
    fn locate_in_padded_stream() {
        // Garbage before, after, or on both sides of the frame.
        let cfg = FrameConfig::default();
        for (seed, pre, post) in [(3, 37, 50), (4, 23, 0), (5, 0, 31)] {
            let f = sample_frame(seed, 96);
            let mut stream = DspRng::seed_from(9).bits(pre);
            stream.extend(f.to_bits(&cfg));
            stream.extend(DspRng::seed_from(10).bits(post));
            assert_eq!(
                Frame::parse_lenient(&stream, &cfg),
                Ok((f, pre, true)),
                "pre {pre}, post {post}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let cfg = FrameConfig::default();
        let f = sample_frame(6, 120);
        let mut bits = f.to_bits(&cfg);
        let payload_bit = cfg.pilot_len + HEADER_BITS + 11;
        bits[payload_bit] = !bits[payload_bit];
        let (parsed, _, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert!(!crc_ok);
        assert_eq!(parsed.header, f.header);
    }

    #[test]
    fn corrupted_header_detected() {
        // Both copies of the header broken: no identity to recover.
        let cfg = FrameConfig::default();
        let f = sample_frame(7, 40);
        let mut bits = f.to_bits(&cfg);
        let tail_header = bits.len() - cfg.pilot_len - 4;
        for i in [cfg.pilot_len + 3, tail_header] {
            bits[i] = !bits[i];
        }
        assert_eq!(
            Frame::parse_lenient(&bits, &cfg),
            Err(FrameError::BadHeader)
        );
    }

    #[test]
    fn pilot_tolerance() {
        let cfg = FrameConfig::default();
        let f = sample_frame(8, 40);
        let mut bits = f.to_bits(&cfg);
        for i in [0, 13, 29, 41] {
            bits[i] = !bits[i]; // 4 pilot errors, within tolerance 6
        }
        assert_eq!(Frame::parse_lenient(&bits, &cfg), Ok((f, 0, true)));
        for i in [2, 7, 19] {
            bits[i] = !bits[i]; // now 7 errors
        }
        assert_eq!(
            Frame::parse_lenient(&bits, &cfg),
            Err(FrameError::PilotNotFound)
        );
    }

    #[test]
    fn too_short_rejected() {
        let cfg = FrameConfig::default();
        let bits = sample_frame(12, 40).to_bits(&cfg);
        // Shorter than the pilot, and a pilot with too little after it.
        for len in [cfg.pilot_len - 1, 100] {
            assert_eq!(
                Frame::parse_lenient(&bits[..len], &cfg),
                Err(FrameError::TooShort),
                "len {len}"
            );
        }
    }

    #[test]
    fn length_field_beyond_stream_rejected() {
        let cfg = FrameConfig::default();
        let f = sample_frame(9, 500);
        let bits = f.to_bits(&cfg);
        // Truncate mid-payload: header still claims 500 bits.
        let truncated = &bits[..cfg.overhead_bits() + 100];
        assert_eq!(
            Frame::parse_lenient(truncated, &cfg),
            Err(FrameError::LengthMismatch)
        );
    }

    #[test]
    fn whitening_balances_constant_payload() {
        // §6.2's purpose: on-air payload bits must look random even for
        // a constant payload.
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(1, 2, 3, 0), vec![true; 2048]);
        let bits = f.to_bits(&cfg);
        let body = &bits[cfg.pilot_len + HEADER_BITS..cfg.pilot_len + HEADER_BITS + 2048];
        let ones = body.iter().filter(|&&b| b).count();
        let frac = ones as f64 / body.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "on-air ones fraction {frac}");
    }

    #[test]
    fn lenient_parse_clean_frame() {
        let cfg = FrameConfig::default();
        let f = sample_frame(20, 100);
        let bits = f.to_bits(&cfg);
        let (parsed, off, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(off, 0);
        assert!(crc_ok);
    }

    #[test]
    fn lenient_parse_tolerates_payload_errors() {
        // ~4 % BER in the payload region: CRC fails but the frame is
        // still recovered with the erroneous bits, as the §11 BER
        // metric requires.
        let cfg = FrameConfig::default();
        let f = sample_frame(21, 400);
        let mut bits = f.to_bits(&cfg);
        let body = cfg.pilot_len + HEADER_BITS;
        for i in 0..16 {
            bits[body + i * 25] = !bits[body + i * 25];
        }
        let (parsed, _, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert!(!crc_ok);
        assert_eq!(parsed.header, f.header);
        let errors = parsed
            .payload
            .iter()
            .zip(&f.payload)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(errors, 16);
    }

    #[test]
    fn lenient_parse_falls_back_to_tail_header() {
        // Corrupt the head header beyond its CRC-8: identity must come
        // from the mirrored tail header — also when the payload between
        // them is garbage, as in an interfered reception (§7.5).
        let cfg = FrameConfig::default();
        let f = sample_frame(22, 120);
        let mut bits = f.to_bits(&cfg);
        bits[cfg.pilot_len + 2] = !bits[cfg.pilot_len + 2];
        bits[cfg.pilot_len + 9] = !bits[cfg.pilot_len + 9];
        let (parsed, _, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert_eq!(parsed.header, f.header);
        assert!(crc_ok);
        let body = cfg.pilot_len + HEADER_BITS;
        let mut rng = DspRng::seed_from(13);
        for b in bits[body..body + 120].iter_mut() {
            *b = rng.bit();
        }
        let (parsed, _, _) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert_eq!(parsed.header, f.header);
    }

    #[test]
    fn frame_error_display() {
        assert!(FrameError::BadHeader.to_string().contains("CRC"));
        assert!(FrameError::TooShort.to_string().contains("short"));
    }

    #[test]
    fn header_len_forced_consistent() {
        let f = Frame::new(Header::new(1, 2, 3, 9999), vec![true; 10]);
        assert_eq!(f.header.len, 10);
    }
}
