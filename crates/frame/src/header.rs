//! Frame headers (Fig. 6: SrcID, DstID, SeqNo).
//!
//! §7.3: *"we add a header after the pilot sequence that tells Alice the
//! source, destination and the sequence number of the packet. Using the
//! decoded header information, Alice can pick the right packet from her
//! buffer."* §7.5 additionally has routers inspect both headers of an
//! interfered signal to decide whether to decode, forward, or drop.
//!
//! Layout (64 bits, MSB first): `src:8 | dst:8 | seq:16 | len:16 |
//! flags:8 | crc8:8`.

use crate::crc::crc8;

/// Node identifier (the paper's SrcID/DstID).
pub type NodeId = u8;

/// Broadcast destination.
pub const BROADCAST: NodeId = 0xFF;

/// Number of bits in a serialized header.
pub const HEADER_BITS: usize = 64;

/// Flag bit: this frame is a COPE XOR of two packets (baseline).
pub const FLAG_XOR: u8 = 0b0000_0100;

/// Identity of a packet: the lookup key into the sent-packet buffer
/// (§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketKey {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Sequence number, unique per (src, dst) flow.
    pub seq: u16,
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Originating node.
    pub src: NodeId,
    /// Destination node (possibly [`BROADCAST`]).
    pub dst: NodeId,
    /// Flow sequence number.
    pub seq: u16,
    /// Payload length in bits (before FEC/whitening).
    pub len: u16,
    /// Flag bits (`FLAG_*`).
    pub flags: u8,
}

impl Header {
    /// Creates a header with no flags set.
    pub fn new(src: NodeId, dst: NodeId, seq: u16, len: u16) -> Self {
        Header {
            src,
            dst,
            seq,
            len,
            flags: 0,
        }
    }

    /// Returns the header with the given flags OR-ed in.
    pub fn with_flags(mut self, flags: u8) -> Self {
        self.flags |= flags;
        self
    }

    /// The packet identity used for buffer lookups.
    pub fn key(&self) -> PacketKey {
        PacketKey {
            src: self.src,
            dst: self.dst,
            seq: self.seq,
        }
    }

    /// `true` if this is a COPE XOR frame.
    pub fn is_xor(&self) -> bool {
        self.flags & FLAG_XOR != 0
    }

    /// Serializes to [`HEADER_BITS`] bits, MSB first, with a trailing
    /// CRC-8 over the first 56 bits.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(HEADER_BITS);
        push_u8(&mut bits, self.src);
        push_u8(&mut bits, self.dst);
        push_u16(&mut bits, self.seq);
        push_u16(&mut bits, self.len);
        push_u8(&mut bits, self.flags);
        let c = crc8(&bits);
        push_u8(&mut bits, c);
        bits
    }

    /// Parses a header from exactly [`HEADER_BITS`] bits, validating the
    /// CRC-8. Returns `None` on length or CRC mismatch.
    pub fn from_bits(bits: &[bool]) -> Option<Header> {
        if bits.len() != HEADER_BITS {
            return None;
        }
        let expect = crc8(&bits[..56]);
        let got = read_u8(&bits[56..64]);
        if expect != got {
            return None;
        }
        Some(Header {
            src: read_u8(&bits[0..8]),
            dst: read_u8(&bits[8..16]),
            seq: read_u16(&bits[16..32]),
            len: read_u16(&bits[32..48]),
            flags: read_u8(&bits[48..56]),
        })
    }
}

fn push_u8(bits: &mut Vec<bool>, v: u8) {
    for i in (0..8).rev() {
        bits.push((v >> i) & 1 == 1);
    }
}

fn push_u16(bits: &mut Vec<bool>, v: u16) {
    for i in (0..16).rev() {
        bits.push((v >> i) & 1 == 1);
    }
}

fn read_u8(bits: &[bool]) -> u8 {
    bits.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8)
}

fn read_u16(bits: &[bool]) -> u16 {
    bits.iter().fold(0u16, |acc, &b| (acc << 1) | b as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Header::new(3, 7, 0xBEEF, 1024).with_flags(FLAG_XOR);
        let bits = h.to_bits();
        assert_eq!(bits.len(), HEADER_BITS);
        assert_eq!(Header::from_bits(&bits), Some(h));
    }

    #[test]
    fn roundtrip_extremes() {
        for h in [
            Header::new(0, 0, 0, 0),
            Header::new(255, 255, 65535, 65535).with_flags(0xFF),
        ] {
            assert_eq!(Header::from_bits(&h.to_bits()), Some(h));
        }
    }

    #[test]
    fn corrupted_header_rejected() {
        let bits = Header::new(1, 2, 3, 4).to_bits();
        for i in 0..HEADER_BITS {
            let mut c = bits.clone();
            c[i] = !c[i];
            assert!(Header::from_bits(&c).is_none(), "flip {i} undetected");
        }
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(Header::from_bits(&[true; 63]).is_none());
        assert!(Header::from_bits(&[true; 65]).is_none());
        assert!(Header::from_bits(&[]).is_none());
    }

    #[test]
    fn flags_accessors() {
        let h = Header::new(1, 2, 3, 4);
        assert!(!h.is_xor());
        assert!(h.with_flags(FLAG_XOR).is_xor());
    }

    #[test]
    fn key_extraction() {
        let h = Header::new(9, 8, 77, 100);
        assert_eq!(
            h.key(),
            PacketKey {
                src: 9,
                dst: 8,
                seq: 77
            }
        );
    }

    #[test]
    fn keys_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Header::new(1, 2, 3, 0).key());
        assert!(set.contains(&PacketKey {
            src: 1,
            dst: 2,
            seq: 3
        }));
        assert!(!set.contains(&PacketKey {
            src: 1,
            dst: 2,
            seq: 4
        }));
    }
}
