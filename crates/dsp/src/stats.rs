//! Statistics utilities for the evaluation harness.
//!
//! §11 reports CDFs of throughput gains and bit-error rates over 40
//! experiment runs. [`Cdf`] reproduces those plots as printable series;
//! [`RunningStats`] (Welford) accumulates means/variances without
//! storing samples; [`percentile`] backs the summary table.

#![deny(clippy::cast_possible_truncation)]

use crate::cast::{ceil_to_usize, floor_to_usize};
use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. NaN observations are skipped: a single
    /// NaN fed into Welford's recurrence poisons the mean *and* every
    /// later observation (the same sentinel convention as
    /// [`percentile`]/[`Cdf`], which drop NaN samples before sorting).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than 2 observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation; +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel runs).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm).
///
/// Five markers track the running estimate of one quantile `q` in
/// O(1) memory and O(1) work per observation, so a city-scale run can
/// push millions of ACK latencies through a [`P2Quantile`] instead of
/// growing an unbounded ledger. The first five observations are kept
/// exactly (the estimate is then the exact percentile); afterwards
/// markers move by parabolic (fallback: linear) interpolation.
///
/// NaN observations are skipped and an empty estimator reports NaN —
/// the same sentinel conventions as [`RunningStats`]/[`percentile`].
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    /// First (up to) five observations, kept sorted.
    init: Vec<f64>,
    /// Marker heights `h[0..5]` once initialized (empty before).
    heights: Vec<f64>,
    /// Actual marker positions `n[0..5]` (1-based sample ranks).
    positions: Vec<f64>,
    /// Desired marker positions `n'[0..5]`.
    desired: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q) && q.is_finite(), "quantile {q}");
        P2Quantile {
            q,
            count: 0,
            init: Vec::with_capacity(5),
            heights: Vec::new(),
            positions: Vec::new(),
            desired: Vec::new(),
        }
    }

    /// The target quantile in `(0, 1)`.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of (non-NaN) observations consumed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation; NaN sentinels are dropped.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        if self.heights.is_empty() {
            let at = self.init.partition_point(|&v| v <= x);
            self.init.insert(at, x);
            if self.init.len() == 5 {
                self.heights = self.init.clone();
                self.positions = (1..=5).map(|i| i as f64).collect();
                let q = self.q;
                self.desired = vec![1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0];
            }
            return;
        }
        let h = &mut self.heights;
        // Locate the marker cell containing x, extending extremes.
        let k = if x < h[0] {
            h[0] = x;
            0
        } else if x >= h[4] {
            h[4] = h[4].max(x);
            3
        } else {
            // h[0] <= x < h[4]: find k with h[k] <= x < h[k+1].
            (0..4)
                .rfind(|&i| h[i] <= x)
                .expect("x >= h[0] guarantees a cell")
        };
        for p in self.positions[k + 1..].iter_mut() {
            *p += 1.0;
        }
        let dn = [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0];
        for (d, inc) in self.desired.iter_mut().zip(dn) {
            *d += inc;
        }
        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let n = &self.positions;
            let d = self.desired[i] - n[i];
            if (d >= 1.0 && n[i + 1] - n[i] > 1.0) || (d <= -1.0 && n[i - 1] - n[i] < -1.0) {
                let d = d.signum();
                let parabolic = h[i]
                    + d / (n[i + 1] - n[i - 1])
                        * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]));
                h[i] = if h[i - 1] < parabolic && parabolic < h[i + 1] {
                    parabolic
                } else if d > 0.0 {
                    h[i] + (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                } else {
                    h[i] - (h[i - 1] - h[i]) / (n[i - 1] - n[i])
                };
                self.positions[i] += d;
            }
        }
    }

    /// Current estimate: NaN when empty, the exact percentile while
    /// fewer than five observations have arrived, the middle marker
    /// afterwards.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.heights.is_empty() {
            return percentile(&self.init, self.q * 100.0);
        }
        self.heights[2]
    }
}

/// Linear-interpolated percentile of a sample set, `p` in `[0, 100]`.
///
/// NaN samples are ignored — pooled per-packet BER vectors carry NaN
/// sentinels for packets that never decoded, and a summary percentile
/// must neither panic on them nor let them land somewhere in the sort
/// order. Returns NaN when no non-NaN sample remains.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    // `rank` lies in [0, len − 1] by construction; the saturating
    // helpers keep the conversion honest anyway.
    let lo = floor_to_usize(rank);
    let hi = ceil_to_usize(rank);
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Empirical cumulative distribution function over a sample set.
///
/// Mirrors the CDF plots of Figs. 9, 10 and 12: `points()` yields
/// `(value, cumulative_fraction)` pairs suitable for direct plotting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// Value at the given cumulative fraction (inverse CDF).
    pub fn quantile(&self, frac: f64) -> f64 {
        percentile(&self.sorted, frac * 100.0)
    }

    /// Mean of the underlying samples; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Median of the underlying samples.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `(value, cumulative fraction)` pairs for plotting, one per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Renders the CDF as fixed-width text rows `value  fraction`, the
    /// format the experiment binaries print for each paper figure.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# CDF: {label} (n={})\n", self.len()));
        out.push_str("# value\tcum_frac\n");
        for (v, f) in self.points() {
            out.push_str(&format!("{v:.6}\t{f:.4}\n"));
        }
        out
    }
}

/// Mean of a slice; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_skips_nan_observations() {
        // One poisoned push must not contaminate the accumulator: NaN
        // through Welford's recurrence turns mean, m2, min and max into
        // NaN for the rest of the run.
        let mut with_nan = RunningStats::new();
        let mut clean = RunningStats::new();
        for x in [2.0, f64::NAN, 4.0, f64::NAN, 9.0] {
            with_nan.push(x);
            if !x.is_nan() {
                clean.push(x);
            }
        }
        assert_eq!(with_nan.count(), 3);
        assert_eq!(with_nan.mean().to_bits(), clean.mean().to_bits());
        assert_eq!(with_nan.variance().to_bits(), clean.variance().to_bits());
        assert_eq!(with_nan.min(), 2.0);
        assert_eq!(with_nan.max(), 9.0);
        let mut only_nan = RunningStats::new();
        only_nan.push(f64::NAN);
        assert_eq!(only_nan.count(), 0);
        assert_eq!(only_nan.mean(), 0.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&RunningStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_ignores_nan_sentinels() {
        // Pooled per-packet BER vectors mark never-decoded packets
        // with NaN; the percentile must skip them, not panic or
        // mis-sort.
        let clean = [1.0, 2.0, 3.0, 4.0];
        let dirty = [f64::NAN, 1.0, 2.0, f64::NAN, 3.0, 4.0, f64::NAN];
        for p in [0.0, 25.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&dirty, p), percentile(&clean, p), "p={p}");
        }
        assert!(percentile(&[f64::NAN, f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn p2_tracks_exact_percentile_on_shared_stream() {
        // The satellite contract: streaming estimate vs the exact
        // `percentile` over the *same* stream, tolerance pinned. The
        // stream mixes two modes plus a heavy tail, the shape ACK
        // latencies take under ARQ (fast path + retransmit hump).
        let mut rng = crate::DspRng::seed_from(11);
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            let u = rng.uniform();
            let x = if u < 0.8 {
                1.0 + rng.gaussian() * 0.1
            } else if u < 0.97 {
                3.0 + rng.gaussian() * 0.3
            } else {
                8.0 + rng.uniform() * 4.0
            };
            samples.push(x);
        }
        for q in [0.5, 0.9, 0.99] {
            let mut est = P2Quantile::new(q);
            samples.iter().for_each(|&x| est.push(x));
            let exact = percentile(&samples, q * 100.0);
            let spread = percentile(&samples, 100.0) - percentile(&samples, 0.0);
            let err = (est.value() - exact).abs() / spread;
            assert!(
                err < 0.02,
                "q={q}: p2={} exact={exact} rel_err={err}",
                est.value()
            );
        }
    }

    #[test]
    fn p2_exact_below_five_samples() {
        let mut est = P2Quantile::new(0.5);
        let mut seen = Vec::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            est.push(x);
            seen.push(x);
            assert_eq!(
                est.value().to_bits(),
                percentile(&seen, 50.0).to_bits(),
                "after {} samples",
                seen.len()
            );
        }
    }

    #[test]
    fn p2_nan_sentinels_and_empty_window() {
        // Empty estimator reports NaN (the pooled-empty-window case).
        let empty = P2Quantile::new(0.99);
        assert!(empty.value().is_nan());
        assert_eq!(empty.count(), 0);
        // NaN observations are dropped exactly like RunningStats /
        // percentile drop them.
        let mut with_nan = P2Quantile::new(0.5);
        let mut clean = P2Quantile::new(0.5);
        let mut rng = crate::DspRng::seed_from(5);
        for i in 0..500 {
            let x = rng.uniform() * 10.0;
            if i % 7 == 0 {
                with_nan.push(f64::NAN);
            }
            with_nan.push(x);
            clean.push(x);
        }
        assert_eq!(with_nan.count(), clean.count());
        assert_eq!(with_nan.value().to_bits(), clean.value().to_bits());
        let mut only_nan = P2Quantile::new(0.5);
        only_nan.push(f64::NAN);
        assert!(only_nan.value().is_nan());
    }

    #[test]
    fn p2_extremes_clamp_to_observed_range() {
        let mut est = P2Quantile::new(0.99);
        let mut rng = crate::DspRng::seed_from(2);
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for _ in 0..5_000 {
            let x = rng.gaussian();
            max = max.max(x);
            min = min.min(x);
            est.push(x);
        }
        let v = est.value();
        assert!(v >= min && v <= max, "estimate {v} outside [{min}, {max}]");
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_le(0.5), 0.0);
        assert_eq!(c.fraction_le(1.0), 0.25);
        assert_eq!(c.fraction_le(2.5), 0.5);
        assert_eq!(c.fraction_le(10.0), 1.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let c = Cdf::from_samples(&[0.3, 0.1, 0.7, 0.5, 0.9]);
        let pts = c.points();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_mean_median() {
        let c = Cdf::from_samples(&[1.0, 2.0, 3.0]);
        assert!((c.mean() - 2.0).abs() < 1e-12);
        assert!((c.median() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_drops_nan() {
        let c = Cdf::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cdf_render_contains_rows() {
        let c = Cdf::from_samples(&[1.5, 0.5]);
        let s = c.render("test");
        assert!(s.contains("# CDF: test (n=2)"));
        assert!(s.contains("0.500000\t0.5000"));
        assert!(s.contains("1.500000\t1.0000"));
    }

    #[test]
    fn quantile_inverts_fraction() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let c = Cdf::from_samples(&xs);
        assert!((c.quantile(0.5) - 50.0).abs() < 1e-9);
        assert!((c.quantile(0.25) - 25.0).abs() < 1e-9);
    }
}
