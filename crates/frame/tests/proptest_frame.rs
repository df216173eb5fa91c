//! Property-based tests for the framing substrate.

use anc_dsp::lfsr::{Lfsr, PILOT_SEED, WHITEN_SEED};
use anc_dsp::DspRng;
use anc_frame::crc::{append_crc16, crc16, crc8, verify_crc16};
use anc_frame::fec::ideal_redundancy_for_ber;
use anc_frame::{Frame, FrameConfig, Header, SentPacketBuffer};
use proptest::prelude::*;

proptest! {
    /// Header serialization is a bijection over all field values.
    #[test]
    fn header_bijective(
        src in any::<u8>(), dst in any::<u8>(),
        seq in any::<u16>(), len in any::<u16>(), flags in any::<u8>(),
    ) {
        let mut h = Header::new(src, dst, seq, len);
        h.flags = flags;
        let bits = h.to_bits();
        prop_assert_eq!(bits.len(), 64);
        prop_assert_eq!(Header::from_bits(&bits), Some(h));
    }

    /// Any single-bit header corruption is rejected.
    #[test]
    fn header_crc8_catches_flips(
        src in any::<u8>(), dst in any::<u8>(), seq in any::<u16>(),
        flip in 0usize..64,
    ) {
        let h = Header::new(src, dst, seq, 100);
        let mut bits = h.to_bits();
        bits[flip] = !bits[flip];
        prop_assert_eq!(Header::from_bits(&bits), None);
    }

    /// CRC-16 append/verify roundtrip; any 1–3 bit corruption caught.
    #[test]
    fn crc16_roundtrip_and_detection(
        data in proptest::collection::vec(any::<bool>(), 1..200),
        flips in proptest::collection::btree_set(0usize..100, 1..4),
    ) {
        let mut bits = data.clone();
        append_crc16(&mut bits);
        prop_assert_eq!(verify_crc16(&bits), Some(&data[..]));
        let mut corrupt = bits.clone();
        for &f in &flips {
            let idx = f % corrupt.len();
            corrupt[idx] = !corrupt[idx];
        }
        // flips are distinct positions mod len — recompute distinctness
        let distinct: std::collections::BTreeSet<usize> =
            flips.iter().map(|f| f % bits.len()).collect();
        if !distinct.is_empty() && distinct.len() == flips.len() {
            prop_assert_eq!(verify_crc16(&corrupt), None);
        }
    }

    /// crc16/crc8 are deterministic functions of the bits.
    #[test]
    fn crc_deterministic(data in proptest::collection::vec(any::<bool>(), 0..300)) {
        prop_assert_eq!(crc16(&data), crc16(&data));
        prop_assert_eq!(crc8(&data), crc8(&data));
    }

    /// Frame total length matches the config arithmetic for any payload.
    #[test]
    fn frame_length_arithmetic(payload_len in 0usize..400) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(1, 2, 3, 0), vec![true; payload_len]);
        prop_assert_eq!(f.to_bits(&cfg).len(), cfg.frame_bits(payload_len));
        prop_assert_eq!(f.bit_len(&cfg), payload_len + cfg.overhead_bits());
    }

    /// parse_lenient finds a frame planted at any offset in noise.
    #[test]
    fn frame_locates_at_any_offset(
        payload in proptest::collection::vec(any::<bool>(), 16..128),
        offset in 0usize..200,
        seed in any::<u64>(),
    ) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(9, 8, 77, 0), payload);
        let mut rng = anc_dsp::DspRng::seed_from(seed);
        let mut stream = rng.bits(offset);
        stream.extend(f.to_bits(&cfg));
        stream.extend(rng.bits(64));
        let (parsed, off, crc_ok) = Frame::parse_lenient(&stream, &cfg).unwrap();
        prop_assert_eq!(parsed, f);
        prop_assert!(crc_ok);
        // The pilot may coincidentally match earlier inside random
        // bits only with ≥ best-quality correlation — for an exact
        // planted pilot the match must be exact.
        prop_assert!(off <= offset);
    }

    /// The mirrored tail header (read backward) yields the same frame
    /// as the head header for any frame.
    #[test]
    fn backward_equals_forward(
        payload in proptest::collection::vec(any::<bool>(), 0..128),
        src in any::<u8>(), seq in any::<u16>(),
        flip in 0usize..64,
    ) {
        let cfg = FrameConfig::default();
        let f = Frame::new(Header::new(src, 2, seq, 0), payload);
        let mut bits = f.to_bits(&cfg);
        let fwd = Frame::parse_lenient(&bits, &cfg).unwrap();
        bits[cfg.pilot_len + flip] ^= true;
        let bwd = Frame::parse_lenient(&bits, &cfg).unwrap();
        prop_assert_eq!(fwd, bwd);
    }

    /// The paper's redundancy rule is monotone and clamped.
    #[test]
    fn redundancy_rule_monotone(a in 0.0f64..0.6, b in 0.0f64..0.6) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(ideal_redundancy_for_ber(lo) <= ideal_redundancy_for_ber(hi));
        prop_assert!(ideal_redundancy_for_ber(hi) <= 1.0);
    }

    /// The sent-packet buffer never exceeds capacity and always holds
    /// the most recent insertions.
    #[test]
    fn buffer_capacity_invariant(
        cap in 1usize..16,
        seqs in proptest::collection::vec(any::<u16>(), 1..64),
    ) {
        let mut buf = SentPacketBuffer::new(cap);
        for &s in &seqs {
            buf.insert(Frame::new(Header::new(1, 2, s, 0), vec![]));
            prop_assert!(buf.len() <= cap);
        }
        // The most recently inserted key is always present.
        let last = *seqs.last().unwrap();
        let key = anc_frame::PacketKey { src: 1, dst: 2, seq: last };
        prop_assert!(buf.contains(&key));
    }
}

/// CRC-16/CCITT-FALSE one bit at a time: the reference the byte-table
/// path must reproduce.
fn crc16_reference(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &bit in bits {
        let top = crc >> 15 == 1;
        crc <<= 1;
        if top != bit {
            crc ^= 0x1021;
        }
    }
    crc
}

/// `n` LFSR bits one `next_bit` at a time.
fn lfsr_reference(seed: u16, n: usize) -> Vec<bool> {
    let mut l = Lfsr::new(seed);
    (0..n).map(|_| l.next_bit()).collect()
}

/// Reference serializer: clone the payload, whiten the clone, checksum
/// it and concatenate, on the per-bit LFSR and CRC references.
fn to_bits_reference(frame: &Frame, cfg: &FrameConfig) -> Vec<bool> {
    let pilot = lfsr_reference(PILOT_SEED, cfg.pilot_len);
    let header_bits = frame.header.to_bits();
    let mut body = frame.payload.clone();
    if cfg.whiten {
        let key = lfsr_reference(WHITEN_SEED, body.len());
        body.iter_mut().zip(key).for_each(|(b, k)| *b ^= k);
    }
    let c = crc16_reference(&body);
    let mut bits = Vec::new();
    bits.extend_from_slice(&pilot);
    bits.extend_from_slice(&header_bits);
    bits.extend_from_slice(&body);
    for i in (0..16).rev() {
        bits.push((c >> i) & 1 == 1);
    }
    bits.extend(header_bits.iter().rev());
    bits.extend(pilot.iter().rev());
    bits
}

proptest! {
    /// The byte-table CRC-16 equals the per-bit loop on every prefix of
    /// a ≤ 300-bit stream and on 8,200–8,216-bit streams: every length
    /// mod 8, at short and at paper frame size.
    #[test]
    fn bitpath_crc16_matches_per_bit_reference(
        data in proptest::collection::vec(any::<bool>(), 0..301),
        seed in any::<u64>(),
    ) {
        for n in 0..=data.len() {
            prop_assert_eq!(crc16(&data[..n]), crc16_reference(&data[..n]), "len {}", n);
        }
        let long = DspRng::seed_from(seed).bits(8216);
        for n in 8200..=8216 {
            prop_assert_eq!(crc16(&long[..n]), crc16_reference(&long[..n]), "len {}", n);
        }
        let mut framed = data.clone();
        append_crc16(&mut framed);
        prop_assert_eq!(verify_crc16(&framed), Some(&data[..]));
    }

    /// The copy-free `Frame::to_bits` equals the clone-whiten-concatenate
    /// serializer, whitened or not, at any pilot length and payload.
    #[test]
    fn bitpath_to_bits_matches_clone_whiten_concat(
        payload in proptest::collection::vec(any::<bool>(), 0..600),
        seq in any::<u16>(),
        pilot_len in 0usize..80,
        whiten in any::<bool>(),
    ) {
        let cfg = FrameConfig { pilot_len, whiten, ..FrameConfig::default() };
        let frame = Frame::new(Header::new(3, 4, seq, 0), payload);
        let bits = frame.to_bits(&cfg);
        prop_assert_eq!(bits.len(), frame.bit_len(&cfg));
        prop_assert_eq!(bits, to_bits_reference(&frame, &cfg));
    }
}
