//! Bit-error-rate accounting (§11.2).
//!
//! *"Bit Error Rate (BER): the percentage of erroneous bits in an ANC
//! packet, i.e., a packet decoded using our approach."* The evaluation
//! compares decoded payloads against the transmitted ones; these helpers
//! centralize that comparison, including the truncated/elongated cases
//! that arise when alignment slips.

/// Counts positions where `decoded` differs from `reference`.
///
/// If the lengths differ, the missing/extra positions are all counted as
/// errors — a decoder that loses bits must not look better for it.
pub fn count_bit_errors(decoded: &[bool], reference: &[bool]) -> usize {
    let common = decoded.len().min(reference.len());
    let diff = decoded[..common]
        .iter()
        .zip(&reference[..common])
        .filter(|(a, b)| a != b)
        .count();
    diff + (decoded.len().max(reference.len()) - common)
}

/// Bit error rate in `[0, 1]` relative to the reference length.
///
/// Returns 0 when both are empty.
pub fn ber(decoded: &[bool], reference: &[bool]) -> f64 {
    let denom = reference.len().max(decoded.len());
    if denom == 0 {
        return 0.0;
    }
    count_bit_errors(decoded, reference) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn equal_sequences_zero_errors() {
        assert_eq!(count_bit_errors(&bits("1010"), &bits("1010")), 0);
        assert_eq!(ber(&bits("1010"), &bits("1010")), 0.0);
    }

    #[test]
    fn all_flipped() {
        assert_eq!(count_bit_errors(&bits("1111"), &bits("0000")), 4);
        assert_eq!(ber(&bits("1111"), &bits("0000")), 1.0);
    }

    #[test]
    fn partial_errors() {
        assert_eq!(count_bit_errors(&bits("1011"), &bits("1001")), 1);
        assert!((ber(&bits("1011"), &bits("1001")) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_counts_as_errors() {
        // decoded lost two bits
        assert_eq!(count_bit_errors(&bits("10"), &bits("1011")), 2);
        // decoded gained a bit
        assert_eq!(count_bit_errors(&bits("10110"), &bits("1011")), 1);
        assert!((ber(&bits("10"), &bits("1011")) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(ber(&[], &[]), 0.0);
        assert_eq!(ber(&[], &bits("111")), 1.0);
        assert_eq!(ber(&bits("111"), &[]), 1.0);
    }
}
