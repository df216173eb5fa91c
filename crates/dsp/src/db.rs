//! Decibel ↔ linear power conversions.
//!
//! The paper specifies thresholds and sweeps in dB: the 20 dB packet and
//! interference detection thresholds (§7.1), the SNR axis of Fig. 7, and
//! the SIR sweep of Fig. 13 (`SIR = 10·log10(P_Bob/P_Alice)`, Eq. 9).
//! These helpers are the single source of truth for those conversions.

/// Converts a linear power ratio to decibels: `10·log10(x)`.
///
/// Returns `-inf` for zero and NaN for negative input, matching `log10`.
#[inline]
pub fn linear_to_db(power_ratio: f64) -> f64 {
    10.0 * power_ratio.log10()
}

/// Converts decibels to a linear power ratio: `10^(x/10)`.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts decibels to an amplitude ratio: `10^(x/20)`.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Signal-to-noise ratio in dB given signal and noise powers.
#[inline]
pub fn snr_db(signal_power: f64, noise_power: f64) -> f64 {
    linear_to_db(signal_power / noise_power)
}

/// Signal-to-interference ratio in dB (Eq. 9 of the paper).
///
/// `wanted` is the received power of the signal being decoded (Bob's, at
/// Alice) and `interferer` the received power of the known signal
/// (Alice's own).
#[inline]
pub fn sir_db(wanted: f64, interferer: f64) -> f64 {
    linear_to_db(wanted / interferer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn known_points() {
        assert!(close(linear_to_db(1.0), 0.0));
        assert!(close(linear_to_db(10.0), 10.0));
        assert!(close(linear_to_db(100.0), 20.0));
        assert!(close(db_to_linear(0.0), 1.0));
        assert!(close(db_to_linear(30.0), 1000.0));
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!((db_to_linear(3.0) - 2.0).abs() < 0.01);
        assert!((linear_to_db(2.0) - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn roundtrip() {
        for db in [-30.0, -3.0, 0.0, 7.5, 20.0, 55.0] {
            assert!(close(linear_to_db(db_to_linear(db)), db));
        }
    }

    #[test]
    fn amplitude_power_consistency() {
        // An amplitude ratio r corresponds to power ratio r²: r² in
        // dB, read back as an amplitude, is r.
        for r in [0.5, 1.0, 2.0, 3.7] {
            assert!(close(db_to_amplitude(linear_to_db(r * r)), r));
        }
    }

    #[test]
    fn sir_definition_matches_eq9() {
        // Fig. 13's -3 dB point: Bob's power half of Alice's.
        assert!((sir_db(0.5, 1.0) + 3.0103).abs() < 1e-3);
        assert!(close(sir_db(1.0, 1.0), 0.0));
        assert!((sir_db(2.0, 1.0) - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn snr_matches_definition() {
        assert!(close(snr_db(100.0, 1.0), 20.0));
        assert!(close(snr_db(1.0, 100.0), -20.0));
    }

    #[test]
    fn zero_power_is_negative_infinity() {
        assert!(linear_to_db(0.0).is_infinite());
        assert!(linear_to_db(0.0) < 0.0);
    }
}
