//! Fig. 7 — "Capacity bounds as functions of SNR, for half-duplex
//! nodes."
//!
//! The figure sweeps SNR from 0 to 55 dB and plots the ANC lower bound
//! against the traditional-routing upper bound; ANC wins above a
//! crossover in the 0–8 dB region and tends to a 2× gain at high SNR.
//! [`fig7_series`] regenerates the two curves; [`find_crossover_db`]
//! pins the crossover by bisection.

use crate::bounds::CapacityModel;

/// One point of the Fig. 7 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Point {
    /// SNR in dB (x-axis).
    pub snr_db: f64,
    /// Traditional routing upper bound (y-axis, capacity units per the
    /// model's log base).
    pub routing_upper: f64,
    /// ANC lower bound.
    pub anc_lower: f64,
    /// Gain ratio `anc / routing`.
    pub gain: f64,
}

/// Generates the Fig. 7 sweep: `points` samples spanning
/// `[lo_db, hi_db]` (the paper plots 0–55 dB).
///
/// # Panics
/// Panics if `points < 2` or `hi_db <= lo_db`.
pub fn fig7_series(model: &CapacityModel, lo_db: f64, hi_db: f64, points: usize) -> Vec<Fig7Point> {
    assert!(points >= 2, "need at least two points");
    assert!(hi_db > lo_db, "empty sweep range");
    (0..points)
        .map(|i| {
            let snr_db = lo_db + (hi_db - lo_db) * i as f64 / (points - 1) as f64;
            let (routing_upper, anc_lower) = model.at_db(snr_db);
            Fig7Point {
                snr_db,
                routing_upper,
                anc_lower,
                gain: if routing_upper > 0.0 {
                    anc_lower / routing_upper
                } else {
                    f64::NAN
                },
            }
        })
        .collect()
}

/// Finds the SNR (dB) at which the ANC lower bound overtakes the
/// routing upper bound, by bisection on `[lo_db, hi_db]`. Returns
/// `None` when there is no sign change in the interval.
pub fn find_crossover_db(model: &CapacityModel, lo_db: f64, hi_db: f64) -> Option<f64> {
    let diff = |db: f64| {
        let (r, a) = model.at_db(db);
        a - r
    };
    let (mut lo, mut hi) = (lo_db, hi_db);
    let (flo, fhi) = (diff(lo), diff(hi));
    if flo == 0.0 {
        return Some(lo);
    }
    if flo.signum() == fhi.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        let fm = diff(mid);
        if fm.abs() < 1e-12 {
            return Some(mid);
        }
        if fm.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some((lo + hi) / 2.0)
}

/// The theoretical high-SNR gain the sweep must approach (Theorem 8.1).
pub const ASYMPTOTIC_GAIN: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_covers_requested_range() {
        let m = CapacityModel::default();
        let s = fig7_series(&m, 0.0, 55.0, 56);
        assert_eq!(s.len(), 56);
        assert_eq!(s[0].snr_db, 0.0);
        assert_eq!(s[55].snr_db, 55.0);
        // 1 dB spacing
        assert!((s[1].snr_db - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossover_in_paper_region() {
        // §8(b) puts the low-SNR regime where ANC loses at "around
        // 0-8dB"; the crossover must sit in (4, 12) dB for the default
        // model.
        let m = CapacityModel::default();
        let x = find_crossover_db(&m, 0.0, 30.0).expect("crossover exists");
        assert!(x > 4.0 && x < 12.0, "crossover at {x} dB");
        // Below the crossover routing wins; above, ANC wins.
        let (r, a) = m.at_db(x - 2.0);
        assert!(a < r);
        let (r, a) = m.at_db(x + 2.0);
        assert!(a > r);
    }

    #[test]
    fn gain_tends_to_two() {
        // The approach to the asymptote is ~1/log(SNR); a very wide
        // sweep is needed to get close (see bounds::tests for the
        // rate). Within Fig. 7's 0–55 dB range the gain reaches ~1.8.
        let m = CapacityModel::default();
        let s = fig7_series(&m, 0.0, 300.0, 301);
        let last = s.last().unwrap();
        assert!(
            (last.gain - ASYMPTOTIC_GAIN).abs() < 0.05,
            "gain {}",
            last.gain
        );
        let mid = &s[120];
        assert!(mid.gain < last.gain);
        // The paper-range endpoint:
        let paper = fig7_series(&m, 0.0, 55.0, 56);
        let g55 = paper.last().unwrap().gain;
        assert!(g55 > 1.7 && g55 < 2.0, "g(55dB) = {g55}");
    }

    #[test]
    fn no_crossover_in_high_only_interval() {
        // Both endpoints above the crossover: no sign change.
        let m = CapacityModel::default();
        assert!(find_crossover_db(&m, 20.0, 50.0).is_none());
    }

    #[test]
    #[should_panic]
    fn degenerate_range_rejected() {
        let _ = fig7_series(&CapacityModel::default(), 10.0, 10.0, 5);
    }

    #[test]
    #[should_panic]
    fn single_point_rejected() {
        let _ = fig7_series(&CapacityModel::default(), 0.0, 10.0, 1);
    }
}
