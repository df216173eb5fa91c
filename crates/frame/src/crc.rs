//! Cyclic redundancy checks over bit sequences.
//!
//! The paper validates decoded packets against the sent payload in its
//! evaluation; an operational frame needs in-band integrity checks. We
//! use CRC-16/CCITT-FALSE for payloads and CRC-8/ATM for the compact
//! frame header, both computed directly over bits (the frame is a bit
//! stream before modulation, Fig. 6).

/// CRC-16/CCITT-FALSE generator polynomial (MSB first).
const CRC16_POLY: u16 = 0x1021;

/// Byte table for [`crc16`]: entry `b` is the register after shifting
/// the 8 bits of `b` (MSB first) through a register holding `b << 8`,
/// so one lookup stands for eight turns of the per-bit loop.
const CRC16_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut i = 0;
        while i < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC16_POLY
            } else {
                crc << 1
            };
            i += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection).
///
/// Whole bytes go through a 256-entry table, eight bits per lookup;
/// the `len mod 8` leftover bits take the per-bit loop. Bit-identical
/// to running the per-bit loop over every bit.
pub fn crc16(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    let mut bytes = bits.chunks_exact(8);
    for byte in &mut bytes {
        let b = byte
            .iter()
            .fold(0u8, |acc, &bit| (acc << 1) | u8::from(bit));
        crc = (crc << 8) ^ CRC16_TABLE[usize::from((crc >> 8) as u8 ^ b)];
    }
    for &bit in bytes.remainder() {
        let top = (crc >> 15) & 1 == 1;
        crc <<= 1;
        if top != bit {
            crc ^= CRC16_POLY;
        }
    }
    crc
}

/// CRC-8/ATM (poly 0x07, init 0x00).
pub fn crc8(bits: &[bool]) -> u8 {
    let mut crc: u8 = 0x00;
    for &bit in bits {
        let top = (crc >> 7) & 1 == 1;
        crc <<= 1;
        if top != bit {
            crc ^= 0x07;
        }
    }
    crc
}

/// Appends a CRC-16 (MSB first) to a bit vector.
pub fn append_crc16(bits: &mut Vec<bool>) {
    let c = crc16(bits);
    for i in (0..16).rev() {
        bits.push((c >> i) & 1 == 1);
    }
}

/// Checks and strips a trailing CRC-16. Returns the payload bits on
/// success, `None` on mismatch or if the input is shorter than 16 bits.
pub fn verify_crc16(bits: &[bool]) -> Option<&[bool]> {
    if bits.len() < 16 {
        return None;
    }
    let (payload, tail) = bits.split_at(bits.len() - 16);
    let mut c: u16 = 0;
    for &b in tail {
        c = (c << 1) | b as u16;
    }
    (crc16(payload) == c).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    fn byte_bits(bytes: &[u8]) -> Vec<bool> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn crc16_check_value() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1 (standard check value).
        let data = byte_bits(b"123456789");
        assert_eq!(crc16(&data), 0x29B1);
    }

    #[test]
    fn crc8_check_value() {
        // CRC-8/ATM ("SMBUS") check value for "123456789" is 0xF4.
        let data = byte_bits(b"123456789");
        assert_eq!(crc8(&data), 0xF4);
    }

    #[test]
    fn append_verify_roundtrip() {
        let mut data = bits("1011001110001111");
        let original = data.clone();
        append_crc16(&mut data);
        assert_eq!(data.len(), original.len() + 16);
        assert_eq!(verify_crc16(&data).unwrap(), &original[..]);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = bits("110010101100");
        append_crc16(&mut data);
        for i in 0..data.len() {
            let mut corrupted = data.clone();
            corrupted[i] = !corrupted[i];
            assert!(verify_crc16(&corrupted).is_none(), "flip at {i} undetected");
        }
    }

    #[test]
    fn detects_burst_errors() {
        let mut data = bits("1010101010101010101010101010");
        append_crc16(&mut data);
        let mut corrupted = data.clone();
        for b in corrupted[3..11].iter_mut() {
            *b = !*b;
        }
        assert!(verify_crc16(&corrupted).is_none());
    }

    #[test]
    fn short_input_rejected() {
        assert!(verify_crc16(&bits("101")).is_none());
        assert!(verify_crc16(&[]).is_none());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut data = Vec::new();
        append_crc16(&mut data);
        assert_eq!(verify_crc16(&data).unwrap().len(), 0);
    }
}
