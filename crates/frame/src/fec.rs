//! Forward-error-correction accounting.
//!
//! §11.2: *"ANC has a higher bit error rate than the other approaches
//! and thus needs extra redundancy in its error-correction codes. We
//! account for this overhead in our throughput computation."* §11.4
//! quantifies it: a ≈ 4 % BER costs ≈ 8 % extra redundancy.
//! [`ideal_redundancy_for_ber`] reproduces that accounting rule
//! (redundancy ≈ 2×BER) for the throughput metrics.

/// The paper's redundancy accounting (§11.4): a packet decoded with bit
/// error rate `ber` is charged `2·ber` fractional redundancy — the 4 %
/// BER → "8 % of extra redundancy" rule. Clamped to `[0, 1]`.
///
/// This models a near-ideal outer code provisioned at twice the error
/// rate, and is what the throughput metrics multiply goodput by
/// (`1 / (1 + redundancy)`).
pub fn ideal_redundancy_for_ber(ber: f64) -> f64 {
    (2.0 * ber).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_redundancy_matches_paper_rule() {
        // 4 % BER → 8 % redundancy (§11.4).
        assert!((ideal_redundancy_for_ber(0.04) - 0.08).abs() < 1e-12);
        assert_eq!(ideal_redundancy_for_ber(0.0), 0.0);
        assert_eq!(ideal_redundancy_for_ber(0.9), 1.0); // clamped
    }
}
