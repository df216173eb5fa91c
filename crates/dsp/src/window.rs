//! Moving-window energy and variance trackers.
//!
//! §7.1 of the paper detects packets and interference from streaming
//! complex samples: *"We calculate energy and energy variance over moving
//! windows of received samples."* A packet is declared when window energy
//! exceeds the noise floor by a threshold (20 dB); interference is
//! declared when the *variance* of the energy exceeds a threshold,
//! because a single MSK signal has (nearly) constant energy while two
//! interfered MSK signals swing between `(A+B)²` and `(A−B)²`.
//!
//! Both trackers keep an O(1) running sum over a flat ring that is
//! allocated once at its capacity. The variance tracker refreshes that
//! sum from the ring on a fixed schedule so drift over long streams
//! stays bounded, and computes squared deviations *about that mean* in
//! a single buffer pass per query — unlike the naive sliding
//! `E[x²]−E[x]²`, the deviation form cannot cancel catastrophically (an
//! off-by-δ mean inflates the variance by only δ², and δ is pinned to a
//! few ulps by the refresh).
//!
//! Only the §7.1 yes/no decision leaves the variance tracker, so
//! [`VarianceWindow::exceeds`] skips the deviation pass wherever a
//! bound on the window's energies proves the pass cannot fire, and
//! [`VarianceWindow::rebuild`] restores a streamed window's exact state
//! at a refresh boundary, so a search can start there instead of at the
//! head of the stream (DESIGN.md §5).

use crate::cplx::Cplx;

/// Sliding-window mean of sample energy `|y[n]|²`.
///
/// Backs the packet detector: compare [`EnergyWindow::mean`] against the
/// noise floor (in dB) to decide whether a transmission is present. A
/// caller that compares against a fixed level can test
/// [`EnergyWindow::sum`] instead and skip the division.
#[derive(Debug, Clone)]
pub struct EnergyWindow {
    /// Flat ring storage: grows to `cap` during warmup, then wraps at
    /// `pos`. Its capacity is reserved up front, so pushes never
    /// reallocate.
    ring: Vec<f64>,
    /// Next write index once the ring is full (oldest element).
    pos: usize,
    cap: usize,
    sum: f64,
}

impl EnergyWindow {
    /// Creates a window holding `cap` samples. `cap` must be ≥ 1.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "window capacity must be at least 1");
        EnergyWindow {
            ring: Vec::with_capacity(cap),
            pos: 0,
            cap,
            sum: 0.0,
        }
    }

    /// Pushes a complex sample, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, sample: Cplx) {
        self.push_energy(sample.norm_sq());
    }

    /// Pushes a precomputed energy value. Non-finite energies (NaN/±∞
    /// samples from degenerate upstream arithmetic) are recorded as
    /// zero: a single NaN through the running sum would otherwise
    /// poison the window's mean for the rest of the stream.
    #[inline]
    pub fn push_energy(&mut self, energy: f64) {
        let energy = sanitize(energy);
        if self.ring.len() < self.cap {
            self.ring.push(energy);
        } else {
            self.sum -= self.ring[self.pos];
            self.ring[self.pos] = energy;
            self.pos += 1;
            if self.pos == self.cap {
                self.pos = 0;
            }
        }
        self.sum += energy;
        // The evict-then-add update can round a window of tiny energies
        // below zero; recompute it from the ring, oldest first.
        if self.sum < 0.0 {
            let (newer, older) = self.ring.split_at(self.pos);
            self.sum = older.iter().chain(newer).sum();
        }
    }

    /// Samples the window holds once full.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of samples held (≤ capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no samples have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// `true` once the window has been fully populated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.cap
    }

    /// Running sum of the held energies: [`EnergyWindow::mean`] is
    /// `(sum / len).max(0)`. It is `+∞` once the energies overflow, and
    /// never NaN.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean energy over the window; 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            (self.sum / self.ring.len() as f64).max(0.0)
        }
    }

    /// Clears the window: afterwards it is indistinguishable from
    /// `EnergyWindow::new(self.capacity())`, and keeps its storage.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.pos = 0;
        self.sum = 0.0;
    }
}

/// Sliding-window variance of sample energy.
///
/// Backs the interference detector of §7.1: when two MSK signals of
/// amplitudes A and B interfere, the per-sample energy swings between
/// `(A−B)²` and `(A+B)²`, giving an energy variance on the order of
/// `(2AB)²·…` — far above the near-zero variance of a lone MSK signal.
#[derive(Debug, Clone)]
pub struct VarianceWindow {
    /// Flat ring storage: grows to `cap` during warmup, then wraps at
    /// `pos`. A plain `Vec` ring beats `VecDeque` here because the
    /// per-sample interference mask pays for every push and every
    /// buffer walk.
    ring: Vec<f64>,
    /// Next write index once the ring is full (oldest element).
    pos: usize,
    cap: usize,
    sum: f64,
    until_refresh: usize,
    /// Largest squared deviation bound [`VarianceWindow::exceeds`] may
    /// certify: `cap` such terms cannot overflow the deviation pass.
    max_certified_d2: f64,
    /// `1 / cap`, rounded: [`VarianceWindow::exceeds`] takes a full
    /// window's mean as `sum · inv_cap` instead of dividing.
    inv_cap: f64,
}

/// Pushes between exact recomputations of a window's running sum, as a
/// multiple of its capacity. The interval bounds worst-case drift to a
/// few hundred ulps of the window's total energy — orders of magnitude
/// below anything the §7.1 thresholds could notice — while keeping the
/// refresh cost amortized O(1/interval) per push.
const REFRESH_INTERVAL_CAPS: usize = 8;

/// Relative safety margin of [`VarianceWindow::exceeds`]'s certificate.
/// The deviation pass rounds each of its `O(cap)` operations by at most
/// one unit in 2⁵³, so for any window below millions of samples its
/// result sits within far less than 10⁻⁹ of its real-number value.
const CERTIFICATE_SCALE: f64 = 1.0 - 1e-9;

/// Relative widening of [`VarianceWindow::exceeds`]'s deviation bound,
/// 2⁻⁵⁰: it covers the gap between the certificate's mean and the exact
/// pass's (see there).
const MEAN_SLACK: f64 = 1.0 / (1u64 << 50) as f64;

/// Smallest and largest energy of a slice as a [`VarianceWindow`]
/// stores them (non-finite energies count as zero, the push sentinel);
/// `(+∞, −∞)` for an empty slice. Feed the result of every block a
/// window spans to [`VarianceWindow::exceeds`].
pub fn energy_bounds(energies: impl IntoIterator<Item = f64>) -> (f64, f64) {
    energies
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), e| {
            let e = sanitize(e);
            (lo.min(e), hi.max(e))
        })
}

/// The NaN sentinel shared by both trackers' `push_energy`.
#[inline]
fn sanitize(energy: f64) -> f64 {
    if energy.is_finite() {
        energy
    } else {
        0.0
    }
}

impl VarianceWindow {
    /// Creates a window holding `cap` energies. `cap` must be ≥ 2 for a
    /// variance to be meaningful.
    ///
    /// # Panics
    /// Panics if `cap < 2`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "variance window needs at least 2 samples");
        VarianceWindow {
            ring: Vec::with_capacity(cap),
            pos: 0,
            cap,
            sum: 0.0,
            until_refresh: REFRESH_INTERVAL_CAPS * cap,
            max_certified_d2: f64::MAX / (2 * cap) as f64,
            inv_cap: 1.0 / cap as f64,
        }
    }

    /// Pushes a complex sample.
    #[inline]
    pub fn push(&mut self, sample: Cplx) {
        self.push_energy(sample.norm_sq());
    }

    /// Pushes a precomputed energy value. Non-finite energies are
    /// recorded as zero — the same NaN sentinel as
    /// [`EnergyWindow::push_energy`]; a NaN entering the running sum
    /// (or the ring, via the periodic refresh) would poison every later
    /// mean and variance in the stream.
    #[inline]
    pub fn push_energy(&mut self, energy: f64) {
        let energy = sanitize(energy);
        if self.ring.len() < self.cap {
            self.ring.push(energy);
        } else {
            self.sum -= self.ring[self.pos];
            self.ring[self.pos] = energy;
            self.pos += 1;
            if self.pos == self.cap {
                self.pos = 0;
            }
        }
        self.sum += energy;
        self.until_refresh -= 1;
        if self.until_refresh == 0 {
            self.sum = self.ring.iter().sum();
            self.until_refresh = REFRESH_INTERVAL_CAPS * self.cap;
        }
    }

    /// Energies the window holds once full.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of energies currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no samples have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// `true` once the window has been fully populated.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.cap
    }

    /// Population variance of the window's energies; 0 with < 2 samples.
    ///
    /// One buffer pass over squared deviations about the running mean —
    /// the deviation form cannot cancel catastrophically (module docs).
    pub fn variance(&self) -> f64 {
        self.mean_and_variance().1
    }

    /// Mean and population variance together — bit-identical to calling
    /// [`VarianceWindow::mean`] and [`VarianceWindow::variance`]
    /// separately (all three use the same running-sum mean). The
    /// per-sample interference mask calls this once per pushed sample,
    /// so the O(1) mean and single deviation pass are hot-path wins
    /// (`#[inline]` because that caller lives in another crate: without
    /// it the per-sample query stays an opaque call at the default
    /// no-LTO release profile).
    #[inline]
    pub fn mean_and_variance(&self) -> (f64, f64) {
        let n = self.ring.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let mean = self.sum / n as f64;
        if n < 2 {
            return (mean, 0.0);
        }
        // Deviation pass over the flat ring (element order is
        // irrelevant to the sum of squared deviations). Four
        // independent accumulators keep the fused multiply-adds off one
        // serial latency chain (and let the pass vectorize); the terms
        // are all non-negative, so the fixed reassociation loses no
        // accuracy and stays deterministic.
        let mut acc = [0.0f64; 4];
        let mut chunks = self.ring.chunks_exact(4);
        for c in &mut chunks {
            for k in 0..4 {
                let d = c[k] - mean;
                acc[k] = d.mul_add(d, acc[k]);
            }
        }
        for (k, &e) in chunks.remainder().iter().enumerate() {
            let d = e - mean;
            acc[k] = d.mul_add(d, acc[k]);
        }
        let var = ((acc[0] + acc[1]) + (acc[2] + acc[3])) / n as f64;
        (mean, var.max(0.0))
    }

    /// Mean of the window's energies; 0 when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.ring.is_empty() {
            0.0
        } else {
            self.sum / self.ring.len() as f64
        }
    }

    /// Pushes between the exact recomputations of the running sum
    /// (`8·cap`). Right after each one the window's whole state is a
    /// function of its last `cap` energies alone ([`Self::rebuild`]).
    pub fn refresh_period(&self) -> usize {
        REFRESH_INTERVAL_CAPS * self.cap
    }

    /// Puts the window in the exact state a streamed window holds after
    /// any positive multiple of [`Self::refresh_period`] pushes whose
    /// last `cap` energies are `last`, oldest first: the refresh has
    /// just recomputed the sum from the ring, and since the period is a
    /// multiple of `cap` the ring holds `last` in order with its write
    /// position back at slot 0. Reuses the ring's storage.
    ///
    /// # Panics
    /// Panics if `last.len()` differs from the capacity.
    pub fn rebuild(&mut self, last: &[f64]) {
        assert_eq!(last.len(), self.cap, "rebuild needs exactly cap energies");
        self.ring.clear();
        self.ring.extend(last.iter().map(|&e| sanitize(e)));
        self.pos = 0;
        self.sum = self.ring.iter().sum();
        self.until_refresh = REFRESH_INTERVAL_CAPS * self.cap;
    }

    /// The §7.1 decision: `true` when the window's normalized variance
    /// `var/m²` exceeds `threshold` (0 when `m ≤ 0`) — bit-identical to
    /// testing [`Self::mean_and_variance`] — provided every energy in
    /// the window lies in `[lo, hi]` ([`energy_bounds`]).
    ///
    /// On a full window the deviation pass is skipped when a bound
    /// proves it cannot fire. The bound needs a mean, and takes it
    /// without a division: `c = sum · (1/cap)` rounds twice, so it lies
    /// within 3 units in 2⁵³ of the pass's own `m = sum / cap`, below
    /// `2⁻⁵¹·c`. Each deviation the pass squares, `|e − m|` for `e` in
    /// `[lo, hi]`, is therefore at most `max(hi − c, c − lo) + 2⁻⁵¹·c`,
    /// and rounding is monotone, so every squared term is at most
    /// `d² = (max(hi − c, c − lo) + 2⁻⁵⁰·c)²` up to a few units in 2⁵³.
    /// When `d² ≤ threshold·c²·(1 − 10⁻⁹)` the pass cannot fire and is
    /// skipped: the pass's own rounding and the `c² ≈ m²` gap are a few
    /// units in 2⁵³ each, far inside the 10⁻⁹ margin. The `2⁻⁵⁰·c` term
    /// is what makes the skip safe at any threshold: the mean's shift
    /// moves each deviation by an absolute amount near `2⁻⁵²·m`, which
    /// the relative margin alone would not absorb once `threshold` falls
    /// below about 10⁻¹³. The skip is taken only while `c > 0`, `c²` and
    /// `d²` are normal and `cap·d²` cannot overflow; everything else,
    /// and every window not yet full, runs the exact pass.
    #[inline]
    pub fn exceeds(&self, threshold: f64, lo: f64, hi: f64) -> bool {
        if self.is_full() {
            let c = self.sum * self.inv_cap;
            let cc = c * c;
            let d = (hi - c).max(c - lo) + c * MEAN_SLACK;
            let d2 = d * d;
            if c > 0.0
                && cc.is_normal()
                && d2.is_normal()
                && d2 <= self.max_certified_d2
                && d2 <= threshold * cc * CERTIFICATE_SCALE
            {
                return false;
            }
        }
        self.exceeds_exact(threshold)
    }

    /// The exact test behind [`Self::exceeds`]. Out of line, so that
    /// the certified path stays small enough to inline into a scan.
    #[inline(never)]
    fn exceeds_exact(&self, threshold: f64) -> bool {
        let (m, var) = self.mean_and_variance();
        let nv = if m > 0.0 { var / (m * m) } else { 0.0 };
        nv > threshold
    }

    /// Clears the window: afterwards it is indistinguishable from
    /// `VarianceWindow::new(self.capacity())`, and keeps its storage.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.pos = 0;
        self.sum = 0.0;
        self.until_refresh = REFRESH_INTERVAL_CAPS * self.cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn energy_window_mean_constant_signal() {
        let mut w = EnergyWindow::new(8);
        for n in 0..20 {
            w.push(Cplx::from_polar(2.0, n as f64 * 0.3));
        }
        assert!(w.is_full());
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_evicts_oldest() {
        let mut w = EnergyWindow::new(2);
        w.push_energy(100.0);
        w.push_energy(1.0);
        w.push_energy(1.0);
        assert!((w.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_partial_fill() {
        let mut w = EnergyWindow::new(10);
        w.push_energy(3.0);
        assert_eq!(w.len(), 1);
        assert!(!w.is_full());
        assert!((w.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_window_clear() {
        let mut w = EnergyWindow::new(4);
        w.push_energy(5.0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    #[should_panic]
    fn energy_window_zero_capacity_panics() {
        let _ = EnergyWindow::new(0);
    }

    #[test]
    fn variance_of_constant_msk_energy_is_zero() {
        // A lone MSK signal: constant amplitude, varying phase.
        let mut w = VarianceWindow::new(16);
        for n in 0..32 {
            w.push(Cplx::from_polar(1.7, n as f64 * PI / 2.0));
        }
        assert!(w.variance() < 1e-20);
    }

    #[test]
    fn variance_of_interfered_signals_is_large() {
        // Two unit-amplitude MSK-like signals with incommensurate phase
        // ramps: energy swings between 0 and 4.
        let mut w = VarianceWindow::new(64);
        for n in 0..128 {
            let a = Cplx::cis(n as f64 * 0.7);
            let b = Cplx::cis(n as f64 * 1.3 + 0.4);
            w.push(a + b);
        }
        // Mean energy ≈ A²+B² = 2, variance ≈ 2·A²B² = 2 (for random
        // relative phase: var(2cos φ) = 2).
        assert!(w.variance() > 0.5, "variance = {}", w.variance());
    }

    #[test]
    fn variance_window_needs_two() {
        let mut w = VarianceWindow::new(4);
        w.push_energy(3.0);
        assert_eq!(w.variance(), 0.0);
        w.push_energy(5.0);
        assert!((w.variance() - 1.0).abs() < 1e-12); // population var of {3,5}
    }

    #[test]
    #[should_panic]
    fn variance_window_capacity_one_panics() {
        let _ = VarianceWindow::new(1);
    }

    #[test]
    fn running_mean_tracks_exact_mean_over_long_streams() {
        // Drive the tracker far past several refresh intervals with
        // wildly varying magnitudes; the running mean must stay within
        // ulps of an exact recompute, and the variance must agree with
        // a two-pass reference to fine relative precision.
        let mut w = VarianceWindow::new(32);
        let mut ring: Vec<f64> = Vec::new();
        for n in 0..10_000 {
            let e = if n % 97 < 3 {
                1e6 * (1.0 + (n as f64) * 1e-7)
            } else {
                (n as f64 * 0.7).sin().mul_add(0.5, 1.0)
            };
            w.push_energy(e);
            ring.push(e);
            if ring.len() > 32 {
                ring.remove(0);
            }
            if n % 501 == 0 && ring.len() >= 2 {
                let exact_mean = ring.iter().sum::<f64>() / ring.len() as f64;
                let exact_var =
                    ring.iter().map(|&x| (x - exact_mean).powi(2)).sum::<f64>() / ring.len() as f64;
                let (m, v) = w.mean_and_variance();
                assert!(
                    (m - exact_mean).abs() <= 1e-9 * exact_mean.abs().max(1.0),
                    "mean drifted at {n}: {m} vs {exact_mean}"
                );
                assert!(
                    (v - exact_var).abs() <= 1e-6 * exact_var.max(1.0),
                    "variance drifted at {n}: {v} vs {exact_var}"
                );
            }
        }
    }

    #[test]
    fn mean_and_variance_matches_separate_calls() {
        let mut w = VarianceWindow::new(16);
        for n in 0..40 {
            let a = Cplx::cis(n as f64 * 0.7);
            let b = Cplx::cis(n as f64 * 1.3 + 0.4);
            w.push(a + b);
            let (m, v) = w.mean_and_variance();
            assert_eq!(m.to_bits(), w.mean().to_bits());
            assert_eq!(v.to_bits(), w.variance().to_bits());
        }
        let empty = VarianceWindow::new(4);
        assert_eq!(empty.mean_and_variance(), (0.0, 0.0));
    }

    #[test]
    fn nan_samples_do_not_poison_the_windows() {
        // Inject NaN and ∞ samples mid-stream: both trackers must keep
        // reporting the statistics of the remaining (zero-substituted)
        // energies instead of going NaN forever.
        let mut ew = EnergyWindow::new(4);
        let mut vw = VarianceWindow::new(4);
        for e in [1.0, f64::NAN, 1.0, f64::INFINITY, 1.0, 1.0, 1.0, 1.0] {
            ew.push_energy(e);
            vw.push_energy(e);
            assert!(ew.mean().is_finite());
            let (m, v) = vw.mean_and_variance();
            assert!(m.is_finite() && v.is_finite());
        }
        // The poisoned entries have been evicted: pure signal remains.
        assert!((ew.mean() - 1.0).abs() < 1e-12);
        assert_eq!(vw.variance(), 0.0);
        // A NaN complex sample through `push` is sanitized too (NaN
        // components make `norm_sq` NaN).
        let mut vw2 = VarianceWindow::new(2);
        vw2.push(Cplx::new(f64::NAN, 0.0));
        vw2.push(Cplx::new(1.0, 0.0));
        let (m, _) = vw2.mean_and_variance();
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn variance_window_eviction() {
        let mut w = VarianceWindow::new(2);
        w.push_energy(0.0);
        w.push_energy(0.0);
        w.push_energy(4.0);
        w.push_energy(4.0);
        assert_eq!(w.variance(), 0.0);
        assert!((w.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn certificate_never_hides_an_overflowing_pass() {
        // Half the energies at m − d, half at m + d with d² = 0.04·m²:
        // below the 0.05 threshold in real numbers, but 32 squared
        // deviations near 7e306 overflow the pass to +∞, which fires.
        // The skip must leave that window to the exact pass.
        let m = 1.3e154;
        let (lo, hi) = (0.8 * m, 1.2 * m);
        let mut w = VarianceWindow::new(32);
        for k in 0..32 {
            w.push_energy(if k % 2 == 0 { lo } else { hi });
        }
        let (mean, var) = w.mean_and_variance();
        assert!(var.is_infinite() && (mean * mean).is_normal());
        assert!(w.exceeds(0.05, lo, hi));
    }

    #[test]
    fn rebuild_restores_refresh_state() {
        let mut streamed = VarianceWindow::new(4);
        let stream: Vec<f64> = (0..streamed.refresh_period())
            .map(|k| (k as f64 * 0.37).sin() + 2.0)
            .collect();
        stream.iter().for_each(|&e| streamed.push_energy(e));
        let mut rebuilt = VarianceWindow::new(4);
        rebuilt.rebuild(&stream[stream.len() - 4..]);
        for e in [1.0, f64::NAN, 7.5, 2.0, 3.0] {
            streamed.push_energy(e);
            rebuilt.push_energy(e);
            let (a, b) = (streamed.mean_and_variance(), rebuilt.mean_and_variance());
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits()),
                (b.0.to_bits(), b.1.to_bits())
            );
        }
    }

    #[test]
    #[should_panic]
    fn rebuild_rejects_wrong_length() {
        VarianceWindow::new(4).rebuild(&[1.0; 3]);
    }

    #[test]
    fn windows_track_detection_contrast() {
        // End-to-end sanity for the §7.1 thresholds: the ratio between
        // interfered-energy variance and single-signal variance must be
        // enormous, which is what makes a 20 dB threshold workable.
        let mut single = VarianceWindow::new(64);
        let mut dual = VarianceWindow::new(64);
        for n in 0..64 {
            single.push(Cplx::from_polar(1.0, n as f64 * PI / 2.0));
            let a = Cplx::cis(n as f64 * 0.9);
            let b = Cplx::cis(n as f64 * 1.7 + 1.0);
            dual.push(a + b);
        }
        assert!(dual.variance() > 1e6 * single.variance().max(1e-30));
    }
}
