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
    /// Payload CRC-16 mismatch.
    BadCrc,
    /// Header's length field runs past the available bits.
    LengthMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::TooShort => "bit stream shorter than frame overhead",
            FrameError::PilotNotFound => "pilot sequence not found",
            FrameError::BadHeader => "header CRC mismatch",
            FrameError::BadCrc => "payload CRC mismatch",
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

    /// Parses a frame whose bits start exactly at `bits[0]` (forward
    /// orientation). Extra trailing bits are ignored.
    pub fn from_bits(bits: &[bool], cfg: &FrameConfig) -> Result<Frame, FrameError> {
        let p = cfg.pilot_len;
        if bits.len() < cfg.overhead_bits() {
            return Err(FrameError::TooShort);
        }
        // Head pilot is assumed already located; verify loosely.
        let pilot = pilot_sequence(p);
        let errors = pilot.iter().zip(&bits[..p]).filter(|(a, b)| a != b).count();
        if errors > cfg.pilot_max_errors {
            return Err(FrameError::PilotNotFound);
        }
        let header = Header::from_bits(&bits[p..p + HEADER_BITS]).ok_or(FrameError::BadHeader)?;
        let len = header.len as usize;
        if bits.len() < cfg.frame_bits(len) {
            return Err(FrameError::LengthMismatch);
        }
        let body_start = p + HEADER_BITS;
        let body_crc = &bits[body_start..body_start + len + 16];
        let body = verify_crc16(body_crc).ok_or(FrameError::BadCrc)?;
        let mut payload = body.to_vec();
        if cfg.whiten {
            Lfsr::new(WHITEN_SEED).whiten(&mut payload);
        }
        Ok(Frame { header, payload })
    }

    /// Locates the head pilot by sliding correlation and parses forward
    /// from it. Returns the frame and the bit offset at which it began.
    pub fn locate_and_parse(
        bits: &[bool],
        cfg: &FrameConfig,
    ) -> Result<(Frame, usize), FrameError> {
        let pilot = pilot_sequence(cfg.pilot_len);
        let (off, err) = best_match(bits, &pilot).ok_or(FrameError::TooShort)?;
        if err > cfg.pilot_max_errors {
            return Err(FrameError::PilotNotFound);
        }
        Frame::from_bits(&bits[off..], cfg).map(|f| (f, off))
    }

    /// Parses a frame from a bit stream read *backward* (§7.4): the
    /// caller passes bits in reception order; this reverses them so the
    /// mirrored tail pilot/header appear in forward orientation, then
    /// re-reverses the recovered payload.
    ///
    /// Returns the frame and the offset of the frame's *last* bit from
    /// the end of `bits`.
    pub fn parse_backward(bits: &[bool], cfg: &FrameConfig) -> Result<(Frame, usize), FrameError> {
        let reversed: Vec<bool> = bits.iter().rev().copied().collect();
        let pilot = pilot_sequence(cfg.pilot_len);
        let (off, err) = best_match(&reversed, &pilot).ok_or(FrameError::TooShort)?;
        if err > cfg.pilot_max_errors {
            return Err(FrameError::PilotNotFound);
        }
        let r = &reversed[off..];
        let p = cfg.pilot_len;
        if r.len() < cfg.overhead_bits() {
            return Err(FrameError::TooShort);
        }
        let header = Header::from_bits(&r[p..p + HEADER_BITS]).ok_or(FrameError::BadHeader)?;
        let len = header.len as usize;
        if r.len() < cfg.frame_bits(len) {
            return Err(FrameError::LengthMismatch);
        }
        // Reversed layout after [pilot | header]: rev(CRC) then rev(body).
        let crc_start = p + HEADER_BITS;
        let mut body_crc: Vec<bool> = r[crc_start..crc_start + 16 + len]
            .iter()
            .rev()
            .copied()
            .collect(); // now [body | crc] in forward orientation
        let body = verify_crc16(&body_crc).ok_or(FrameError::BadCrc)?;
        let mut payload = body.to_vec();
        if cfg.whiten {
            Lfsr::new(WHITEN_SEED).whiten(&mut payload);
        }
        body_crc.clear();
        Ok((Frame { header, payload }, off))
    }

    /// Reads only the header nearest the frame head, without CRC-16
    /// validation of the payload — what a router does on an interfered
    /// reception whose payload region is scrambled (§7.5). The head
    /// pilot must begin at `bits[0]`.
    pub fn peek_header(bits: &[bool], cfg: &FrameConfig) -> Result<Header, FrameError> {
        let p = cfg.pilot_len;
        if bits.len() < p + HEADER_BITS {
            return Err(FrameError::TooShort);
        }
        Header::from_bits(&bits[p..p + HEADER_BITS]).ok_or(FrameError::BadHeader)
    }

    /// Reads the mirrored header at the frame tail, given bits in
    /// reception order whose *last* bit is the frame's last bit.
    pub fn peek_tail_header(bits: &[bool], cfg: &FrameConfig) -> Result<Header, FrameError> {
        let p = cfg.pilot_len;
        if bits.len() < p + HEADER_BITS {
            return Err(FrameError::TooShort);
        }
        let tail: Vec<bool> = bits[bits.len() - p - HEADER_BITS..bits.len() - p]
            .iter()
            .rev()
            .copied()
            .collect();
        Header::from_bits(&tail).ok_or(FrameError::BadHeader)
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
        let parsed = Frame::from_bits(&bits, &cfg).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn roundtrip_without_whitening() {
        let cfg = FrameConfig {
            whiten: false,
            ..Default::default()
        };
        let f = sample_frame(2, 64);
        assert_eq!(Frame::from_bits(&f.to_bits(&cfg), &cfg).unwrap(), f);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(3, 4, 0, 0), vec![]);
        assert_eq!(Frame::from_bits(&f.to_bits(&cfg), &cfg).unwrap(), f);
    }

    #[test]
    fn locate_in_padded_stream() {
        let cfg = FrameConfig::default();
        let f = sample_frame(3, 96);
        let mut stream = DspRng::seed_from(9).bits(37);
        let true_off = stream.len();
        stream.extend(f.to_bits(&cfg));
        stream.extend(DspRng::seed_from(10).bits(50));
        let (parsed, off) = Frame::locate_and_parse(&stream, &cfg).unwrap();
        assert_eq!(off, true_off);
        assert_eq!(parsed, f);
    }

    #[test]
    fn backward_parse_matches_forward() {
        let cfg = FrameConfig::default();
        let f = sample_frame(4, 160);
        let mut stream = f.to_bits(&cfg);
        // prepend garbage the backward parser must skip from its end
        let mut padded = DspRng::seed_from(11).bits(23);
        padded.append(&mut stream);
        let (parsed, tail_off) = Frame::parse_backward(&padded, &cfg).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(tail_off, 0); // frame ends at the stream's last bit
    }

    #[test]
    fn backward_parse_with_trailing_noise() {
        let cfg = FrameConfig::default();
        let f = sample_frame(5, 80);
        let mut stream = f.to_bits(&cfg);
        stream.extend(DspRng::seed_from(12).bits(31));
        let (parsed, tail_off) = Frame::parse_backward(&stream, &cfg).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(tail_off, 31);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let cfg = FrameConfig::default();
        let f = sample_frame(6, 120);
        let mut bits = f.to_bits(&cfg);
        let payload_bit = cfg.pilot_len + HEADER_BITS + 11;
        bits[payload_bit] = !bits[payload_bit];
        assert_eq!(Frame::from_bits(&bits, &cfg), Err(FrameError::BadCrc));
    }

    #[test]
    fn corrupted_header_detected() {
        let cfg = FrameConfig::default();
        let f = sample_frame(7, 40);
        let mut bits = f.to_bits(&cfg);
        bits[cfg.pilot_len + 3] = !bits[cfg.pilot_len + 3];
        assert_eq!(Frame::from_bits(&bits, &cfg), Err(FrameError::BadHeader));
    }

    #[test]
    fn pilot_tolerance() {
        let cfg = FrameConfig::default();
        let f = sample_frame(8, 40);
        let mut bits = f.to_bits(&cfg);
        for i in [0, 13, 29, 41] {
            bits[i] = !bits[i]; // 4 pilot errors, within tolerance 6
        }
        assert!(Frame::from_bits(&bits, &cfg).is_ok());
        for i in [2, 7, 19] {
            bits[i] = !bits[i]; // now 7 errors
        }
        assert_eq!(
            Frame::from_bits(&bits, &cfg),
            Err(FrameError::PilotNotFound)
        );
    }

    #[test]
    fn too_short_rejected() {
        let cfg = FrameConfig::default();
        assert_eq!(
            Frame::from_bits(&[true; 100], &cfg),
            Err(FrameError::TooShort)
        );
    }

    #[test]
    fn length_field_beyond_stream_rejected() {
        let cfg = FrameConfig::default();
        let f = sample_frame(9, 500);
        let bits = f.to_bits(&cfg);
        // Truncate mid-payload: header still claims 500 bits.
        let truncated = &bits[..cfg.overhead_bits() + 100];
        assert_eq!(
            Frame::from_bits(truncated, &cfg),
            Err(FrameError::LengthMismatch)
        );
    }

    #[test]
    fn peek_headers_from_both_ends() {
        let cfg = FrameConfig::default();
        let f = sample_frame(10, 64);
        let bits = f.to_bits(&cfg);
        assert_eq!(Frame::peek_header(&bits, &cfg).unwrap(), f.header);
        assert_eq!(Frame::peek_tail_header(&bits, &cfg).unwrap(), f.header);
    }

    #[test]
    fn peek_tail_header_with_scrambled_middle() {
        // §7.5: a router reads both headers of an interfered signal even
        // though the payload region is garbage.
        let cfg = FrameConfig::default();
        let f = sample_frame(11, 128);
        let mut bits = f.to_bits(&cfg);
        let start = cfg.pilot_len + HEADER_BITS;
        let end = bits.len() - cfg.pilot_len - HEADER_BITS;
        let mut rng = DspRng::seed_from(13);
        for b in bits[start..end].iter_mut() {
            *b = rng.bit();
        }
        assert_eq!(Frame::peek_header(&bits, &cfg).unwrap(), f.header);
        assert_eq!(Frame::peek_tail_header(&bits, &cfg).unwrap(), f.header);
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
        // from the mirrored tail header.
        let cfg = FrameConfig::default();
        let f = sample_frame(22, 120);
        let mut bits = f.to_bits(&cfg);
        bits[cfg.pilot_len + 2] = !bits[cfg.pilot_len + 2];
        bits[cfg.pilot_len + 9] = !bits[cfg.pilot_len + 9];
        let (parsed, _, crc_ok) = Frame::parse_lenient(&bits, &cfg).unwrap();
        assert_eq!(parsed.header, f.header);
        assert!(crc_ok);
    }

    #[test]
    fn frame_error_display() {
        assert!(FrameError::BadCrc.to_string().contains("CRC"));
        assert!(FrameError::TooShort.to_string().contains("short"));
    }

    #[test]
    fn header_len_forced_consistent() {
        let f = Frame::new(Header::new(1, 2, 3, 9999), vec![true; 10]);
        assert_eq!(f.header.len, 10);
    }
}
