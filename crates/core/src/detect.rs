//! Packet and interference detection (§7.1).
//!
//! Two questions a receiver answers from raw samples:
//!
//! 1. **Is a packet present?** Compare moving-window energy against the
//!    noise floor; the paper declares a packet at 20 dB above it.
//! 2. **Was it interfered?** A lone MSK signal has (nearly) constant
//!    per-sample energy; two interfered MSK signals swing between
//!    `(A−B)²` and `(A+B)²`, so the *variance* of the energy jumps by
//!    orders of magnitude. The paper thresholds that variance.
//!
//! On units: the paper states both thresholds as "20 dB". For energy
//! that is unambiguous (20 dB above the noise floor). For variance we
//! use the dimensionless **normalized energy variance**
//! `Var(|y|²)/E[|y|²]²`, which is ≈ `2/SNR` for a clean MSK packet and
//! ≈ `2A²B²/(A²+B²)²` (0.08–0.5 for SIR within ±10 dB) for an
//! interfered one — a scale-free quantity with the same decision power;
//! the default threshold 0.05 separates the two regimes for any SNR
//! above ~16 dB. DESIGN.md §5 carries an ablation sweep of this knob.
//!
//! Only the yes/no decision of the variance test is ever read, so the
//! searches here stop at the first window that decides it and skip the
//! deviation pass of every window that provably cannot fire
//! ([`VarianceWindow::exceeds`]); [`SignalDetector::interference_mask_into`]
//! keeps the full per-sample pass as their oracle.

use anc_dsp::window::energy_bounds;
use anc_dsp::{db_to_linear, Cplx, EnergyWindow, VarianceWindow};

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Moving-window length in samples.
    pub window: usize,
    /// Packet declared when window energy exceeds the noise floor by
    /// this many dB (paper: 20 dB).
    pub energy_threshold_db: f64,
    /// Interference declared when normalized energy variance exceeds
    /// this (dimensionless; see module docs).
    pub variance_threshold: f64,
    /// Receiver noise floor power. Estimate with
    /// [`estimate_noise_floor`] on a quiet region.
    pub noise_floor: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window: 32,
            energy_threshold_db: 20.0,
            variance_threshold: 0.05,
            noise_floor: 1e-4,
        }
    }
}

/// A detected signal region, classified clean vs interfered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedSignal {
    /// First sample index of the detected region.
    pub start: usize,
    /// One past the last sample index of the region.
    pub end: usize,
    /// `true` when the §7.1 variance test fired anywhere in the region.
    pub interfered: bool,
}

impl ClassifiedSignal {
    /// Region length in samples.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Reusable rings of the §7.1 scans: the energy window of
/// [`SignalDetector::locate`] and the variance window of the
/// interference tests. Each `_with` scan takes its ring cleared —
/// indistinguishable from a fresh one, so results never depend on
/// what ran before — and rebuilds it only when the detector's window
/// length differs from the last one it held.
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectorRings {
    energy: Option<EnergyWindow>,
    variance: Option<VarianceWindow>,
}

impl DetectorRings {
    /// The energy ring, cleared, holding `cap` samples.
    fn energy(&mut self, cap: usize) -> &mut EnergyWindow {
        let ew = match self.energy.take() {
            Some(mut ew) if ew.capacity() == cap => {
                ew.clear();
                ew
            }
            _ => EnergyWindow::new(cap),
        };
        self.energy.insert(ew)
    }

    /// The variance ring, cleared, holding `cap` energies.
    fn variance(&mut self, cap: usize) -> &mut VarianceWindow {
        let vw = match self.variance.take() {
            Some(mut vw) if vw.capacity() == cap => {
                vw.clear();
                vw
            }
            _ => VarianceWindow::new(cap),
        };
        self.variance.insert(vw)
    }
}

/// The §7.1 detector.
#[derive(Debug, Clone)]
pub struct SignalDetector {
    cfg: DetectorConfig,
    /// [`Self::energy_gate`], computed once.
    gate: f64,
    /// A full energy window whose sum lies below `sum_lo` is certainly
    /// below the gate, and one above `sum_hi` certainly above it
    /// ([`Self::above_gate`]); `(−∞, +∞)` sends every sum to the
    /// division.
    sum_lo: f64,
    sum_hi: f64,
}

/// Relative margin of the energy gate's division-free bounds. The
/// bounds and the window's mean round a few units in 2⁵³ each, far
/// inside it.
const GATE_MARGIN: f64 = 1e-9;

impl SignalDetector {
    /// Creates a detector.
    ///
    /// # Panics
    /// Panics if `window < 4` or `noise_floor <= 0`.
    pub fn new(cfg: DetectorConfig) -> Self {
        assert!(cfg.window >= 4, "detection window too small");
        assert!(cfg.noise_floor > 0.0, "noise floor must be positive");
        let gate = cfg.noise_floor * db_to_linear(cfg.energy_threshold_db);
        let gate_sum = gate * cfg.window as f64;
        let sum_hi = gate_sum * (1.0 + GATE_MARGIN);
        // A subnormal gate rounds more coarsely than the margin, and a
        // zero, negative, infinite or NaN gate has no relative margin
        // at all: those gates decide every window by division.
        let (sum_lo, sum_hi) = if gate > 0.0 && gate.is_normal() && sum_hi.is_finite() {
            (gate_sum * (1.0 - GATE_MARGIN), sum_hi)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        SignalDetector {
            cfg,
            gate,
            sum_lo,
            sum_hi,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Energy level (linear) at which a packet is declared.
    pub fn energy_gate(&self) -> f64 {
        self.gate
    }

    /// The gate test of a full energy window, `(sum / w).max(0) > gate`,
    /// decided from `sum` alone outside `[sum_lo, sum_hi]`. Above
    /// `gate·w·(1 + 10⁻⁹)` the rounded mean still exceeds the gate by
    /// far more than its rounding, and below `gate·w·(1 − 10⁻⁹)` it
    /// stays below it; only sums between the two bounds divide. The
    /// window sum is never NaN ([`EnergyWindow::sum`]), and a `+∞` sum
    /// is above every finite gate, as its mean is.
    #[inline]
    fn above_gate(&self, sum: f64) -> bool {
        if sum > self.sum_hi {
            true
        } else if sum < self.sum_lo {
            false
        } else {
            (sum / self.cfg.window as f64).max(0.0) > self.gate
        }
    }

    /// Bounds `(start, end)` of the first detected signal region: the
    /// two energy scans of [`Self::detect`] without its interior
    /// classification. Callers that read only the bounds (a clean
    /// decode, a relay cutting out the region it amplifies) skip the
    /// variance test over the interior. Returns
    /// `None` when no window crosses the energy gate; otherwise equal to
    /// `detect(samples).map(|r| (r.start, r.end))`.
    pub fn locate(&self, samples: &[Cplx]) -> Option<(usize, usize)> {
        self.locate_with(samples, &mut DetectorRings::default())
    }

    /// [`Self::locate`] in caller-owned rings, which a receiver keeps
    /// across calls so the scan does not allocate its window.
    pub(crate) fn locate_with(
        &self,
        samples: &[Cplx],
        rings: &mut DetectorRings,
    ) -> Option<(usize, usize)> {
        let w = self.cfg.window;
        if samples.len() < w {
            return None;
        }
        let ew = rings.energy(w);
        // Find start: first window whose mean crosses the gate. The
        // region starts at the window's left edge.
        let mut start = None;
        for (i, &s) in samples.iter().enumerate() {
            ew.push(s);
            if ew.is_full() && self.above_gate(ew.sum()) {
                start = Some(i + 1 - w);
                break;
            }
        }
        let start = start?;
        // Find end: first window after start whose mean falls below the
        // gate. The region ends at that window's *right* edge — the
        // mean only drops once the window is mostly noise, so the right
        // edge overshoots into noise by up to one window, which is
        // harmless; ending at the left edge would clip the signal's
        // tail bits (and with them the mirrored tail pilot, §7.4). A
        // NaN gate never finds a start, so here "not above" is `<=`.
        ew.clear();
        let mut end = samples.len();
        for (i, &s) in samples.iter().enumerate().skip(start) {
            ew.push(s);
            if ew.is_full() && !self.above_gate(ew.sum()) {
                end = (i + 1).max(start + 1);
                break;
            }
        }
        Some((start, end))
    }

    /// Scans a reception and returns the first detected signal region,
    /// classified. Returns `None` when no window crosses the energy
    /// gate.
    pub fn detect(&self, samples: &[Cplx]) -> Option<ClassifiedSignal> {
        self.detect_with(samples, &mut DetectorRings::default())
    }

    /// [`Self::detect`] in caller-owned rings (see
    /// [`Self::locate_with`]).
    pub(crate) fn detect_with(
        &self,
        samples: &[Cplx],
        rings: &mut DetectorRings,
    ) -> Option<ClassifiedSignal> {
        let (start, end) = self.locate_with(samples, rings)?;
        let w = self.cfg.window;
        // Classify on the region *interior*: the rise and fall edges of
        // any packet produce a large energy variance (noise level →
        // signal level) that has nothing to do with interference, and
        // the region bounds deliberately overshoot into noise, so a
        // window-length margin at each end is excluded.
        let region = &samples[start..end];
        let interior = if region.len() > 2 * w {
            &region[w..region.len() - w]
        } else {
            region
        };
        // The test fires when any full window's normalized variance
        // exceeds the threshold; the scan stops at the first that does.
        // The variance peak starts at zero, so a negative threshold
        // fires even with no full window.
        let interfered = 0.0 > self.cfg.variance_threshold || {
            let vw = rings.variance(self.variance_len());
            let energy = |k: usize| interior[k].norm_sq();
            self.scan(vw, energy, 0, 0, interior.len(), Scan::First)
                .is_some()
        };
        Some(ClassifiedSignal {
            start,
            end,
            interfered,
        })
    }

    /// Per-sample interference mask over a detected region: `true`
    /// where the trailing window's normalized variance exceeds the
    /// threshold. The full-pass oracle of [`Self::interference_span`].
    pub fn interference_mask(&self, region: &[Cplx]) -> Vec<bool> {
        let mut mask = Vec::new();
        self.interference_mask_into(region, &mut mask);
        mask
    }

    /// [`SignalDetector::interference_mask`] into a caller-owned
    /// buffer (cleared, then filled to `region.len()`), so repeated
    /// calls amortize the allocation.
    pub fn interference_mask_into(&self, region: &[Cplx], mask: &mut Vec<bool>) {
        let mut vw = VarianceWindow::new(self.variance_len());
        let w = self.variance_len();
        mask.clear();
        mask.resize(region.len(), false);
        // High-water mark of flags already set: a contiguously
        // interfered stretch fires the threshold at every sample, and
        // naively rewriting the whole trailing window each time costs
        // O(n·w). Only indices at or above the mark are newly flagged,
        // making the fill O(n) overall.
        let mut flagged_to = 0usize; // one past the highest set index
        for (i, &s) in region.iter().enumerate() {
            vw.push(s);
            if vw.is_full() {
                let (m, var) = vw.mean_and_variance();
                let nv = if m > 0.0 { var / (m * m) } else { 0.0 };
                if nv > self.cfg.variance_threshold {
                    // The whole trailing window is implicated.
                    let lo = (i + 1 - w).max(flagged_to);
                    for flag in mask[lo..=i].iter_mut() {
                        *flag = true;
                    }
                    flagged_to = i + 1;
                }
            }
        }
    }

    /// The interfered span of `[from, to)` from a region's per-sample
    /// energies (`|y|²`, [`anc_dsp::batch::energies_into`]): the first
    /// flagged index and one past the last, where the flags are those
    /// of [`Self::interference_mask_into`] over the same region. `None`
    /// when nothing in `[from, to)` is flagged; `to` is clamped to the
    /// region. Equal to [`mask_span`] of that mask.
    ///
    /// A window firing at `i` flags `i + 1 − w ..= i`, so only firings
    /// in `[from, to + w − 1)` flag anything in range: the span opens
    /// at `max(from, i₀ + 1 − w)` for the first of them, `i₀`, and
    /// closes after `min(i₁, to − 1)` for the last, `i₁`. The forward
    /// search for `i₀` starts at the refresh boundary below `from`
    /// ([`VarianceWindow::rebuild`]). The search for `i₁` rebuilds the
    /// window at the boundary below the end of the range, scans that
    /// block, and walks back one refresh block at a time until a block
    /// fires, which the block holding `i₀` does at the latest.
    pub fn interference_span(
        &self,
        energies: &[f64],
        from: usize,
        to: usize,
    ) -> Option<(usize, usize)> {
        self.interference_span_with(energies, from, to, &mut DetectorRings::default())
    }

    /// [`Self::interference_span`] in caller-owned rings (see
    /// [`Self::locate_with`]).
    pub(crate) fn interference_span_with(
        &self,
        energies: &[f64],
        from: usize,
        to: usize,
        rings: &mut DetectorRings,
    ) -> Option<(usize, usize)> {
        let to = to.min(energies.len());
        if from >= to {
            return None;
        }
        let w = self.variance_len();
        let limit = (to + w - 1).min(energies.len());
        let vw = rings.variance(w);
        let period = vw.refresh_period();
        let energy = |k: usize| energies[k];
        let next = self.seek(vw, energies, from);
        let first = self.scan(vw, energy, next, from, limit, Scan::First)?;
        let last = (first / period..=(limit - 1) / period)
            .rev()
            .find_map(|block| {
                let base = block * period;
                let next = self.seek(vw, energies, base);
                let stop = limit.min(base + period);
                self.scan(vw, energy, next, base.max(first), stop, Scan::Last)
            })
            .unwrap_or(first);
        Some((from.max(first + 1 - w), last.min(to - 1) + 1))
    }

    /// Length of the variance window (at least 8 samples).
    fn variance_len(&self) -> usize {
        self.cfg.window.max(8)
    }

    /// Puts `vw` in the streamed state at the last refresh boundary at
    /// or below `i` pushes, and returns that boundary: the index of the
    /// next energy to push.
    fn seek(&self, vw: &mut VarianceWindow, energies: &[f64], i: usize) -> usize {
        let period = vw.refresh_period();
        let base = i / period * period;
        if base == 0 {
            vw.clear();
        } else {
            vw.rebuild(&energies[base - self.variance_len()..base]);
        }
        base
    }

    /// Pushes `energy(next..to)` into `vw`, which holds the streamed
    /// state after `next` pushes, and tests the window after each push
    /// from index `eval_from` on: returns the first index whose window
    /// fires, or the last one, as `which` asks.
    ///
    /// Every window ending in block `c` of `w` energies (aligned at
    /// multiples of `w`, cut at `to`) lies within blocks `c − 1` and
    /// `c`, so the tests take their energy bounds from those two
    /// blocks, computed once per block.
    fn scan(
        &self,
        vw: &mut VarianceWindow,
        energy: impl Fn(usize) -> f64,
        next: usize,
        eval_from: usize,
        to: usize,
        which: Scan,
    ) -> Option<usize> {
        let w = self.variance_len();
        let thr = self.cfg.variance_threshold;
        let eval_from = eval_from.max(next);
        for i in next..eval_from.min(to) {
            vw.push_energy(energy(i));
        }
        let bounds = |c: usize| energy_bounds((c * w..((c + 1) * w).min(to)).map(&energy));
        let empty = energy_bounds([]);
        let (mut cur, mut window) = (empty, empty);
        // One past the block holding `cur`; crossing it starts a block.
        let mut block_end = 0;
        let mut found = None;
        for i in eval_from..to {
            vw.push_energy(energy(i));
            if i >= block_end {
                let c = i / w;
                let prev = match c {
                    0 => empty,
                    _ if block_end == c * w => cur,
                    _ => bounds(c - 1),
                };
                cur = bounds(c);
                window = (prev.0.min(cur.0), prev.1.max(cur.1));
                block_end = (c + 1) * w;
            }
            if vw.is_full() && vw.exceeds(thr, window.0, window.1) {
                found = Some(i);
                if which == Scan::First {
                    break;
                }
            }
        }
        found
    }
}

/// Which firing [`SignalDetector::scan`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    First,
    Last,
}

/// The span [`SignalDetector::interference_span`] searches for, read
/// off a full-pass mask ([`SignalDetector::interference_mask_into`]):
/// the first flagged index in `[from, to)` and one past the last.
/// `None` when nothing in range is flagged; `to` is clamped to the mask.
pub fn mask_span(mask: &[bool], from: usize, to: usize) -> Option<(usize, usize)> {
    let to = to.min(mask.len());
    let first = mask.get(from..to)?.iter().position(|&m| m)? + from;
    let last = mask[first..to].iter().rposition(|&m| m)? + first;
    Some((first, last + 1))
}

/// Estimates the noise floor from a quiet (signal-free) sample region.
pub fn estimate_noise_floor(quiet: &[Cplx]) -> f64 {
    Cplx::mean_energy(quiet).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::DspRng;
    use anc_modem::{Modem, MskModem};

    const NOISE: f64 = 1e-4; // 40 dB below unit signal

    fn noise_vec(rng: &mut DspRng, n: usize) -> Vec<Cplx> {
        (0..n).map(|_| rng.complex_gaussian(NOISE)).collect()
    }

    fn detector() -> SignalDetector {
        SignalDetector::new(DetectorConfig {
            noise_floor: NOISE,
            ..Default::default()
        })
    }

    /// Mean energy and peak normalized variance over the interior that
    /// `detect` classifies, by the full per-window pass.
    fn interior_stats(det: &SignalDetector, rx: &[Cplx]) -> (f64, f64) {
        let (start, end) = det.locate(rx).unwrap();
        let w = det.config().window;
        let interior = &rx[start + w..end - w];
        let mut vw = VarianceWindow::new(w.max(8));
        let mut peak_nv: f64 = 0.0;
        for &s in interior {
            vw.push(s);
            if vw.is_full() {
                let (m, var) = vw.mean_and_variance();
                if m > 0.0 {
                    peak_nv = peak_nv.max(var / (m * m));
                }
            }
        }
        (Cplx::mean_energy(interior), peak_nv)
    }

    /// Noise, then a clean MSK packet, then noise.
    fn clean_reception(seed: u64) -> (Vec<Cplx>, usize, usize) {
        let mut rng = DspRng::seed_from(seed);
        let modem = MskModem::default();
        let sig = modem.modulate(&rng.bits(400));
        let mut rx = noise_vec(&mut rng, 200);
        let start = rx.len();
        let end = start + sig.len();
        rx.extend(
            sig.iter()
                .zip(noise_vec(&mut rng, 9999))
                .map(|(&s, n)| s + n),
        );
        rx.extend(noise_vec(&mut rng, 200));
        (rx, start, end)
    }

    #[test]
    fn detects_clean_packet_boundaries() {
        let (rx, start, end) = clean_reception(1);
        let det = detector().detect(&rx).unwrap();
        assert!(
            (det.start as i64 - start as i64).abs() <= 32,
            "start {} vs {}",
            det.start,
            start
        );
        assert!(
            (det.end as i64 - end as i64).abs() <= 32,
            "end {} vs {}",
            det.end,
            end
        );
        assert!(!det.interfered, "clean packet misclassified: {det:?}");
        let (mean_energy, _) = interior_stats(&detector(), &rx);
        assert!((mean_energy - 1.0).abs() < 0.1);
    }

    #[test]
    fn no_packet_in_pure_noise() {
        let mut rng = DspRng::seed_from(2);
        let rx = noise_vec(&mut rng, 2000);
        assert!(detector().detect(&rx).is_none());
    }

    #[test]
    fn detects_interference() {
        let mut rng = DspRng::seed_from(3);
        let modem = MskModem::default();
        let a = modem.modulate(&rng.bits(400));
        let b = modem.modulate(&rng.bits(400));
        let rb = rng.phase();
        let mut rx = noise_vec(&mut rng, 150);
        // Packets overlap with a 100-sample stagger.
        let stagger = 100;
        let span = stagger + b.len();
        for i in 0..span {
            let mut s = rng.complex_gaussian(NOISE);
            if i < a.len() {
                s += a[i];
            }
            if i >= stagger {
                s += b[i - stagger].rotate(rb);
            }
            rx.push(s);
        }
        rx.extend(noise_vec(&mut rng, 150));
        let det = detector().detect(&rx).unwrap();
        assert!(det.interfered, "interference missed: {det:?}");
        let (_, peak_nv) = interior_stats(&detector(), &rx);
        assert!(peak_nv > 0.05);
    }

    #[test]
    fn reused_rings_answer_as_fresh_ones() {
        // One set of rings carried through every call — two window
        // lengths, clean and interfered receptions, calls that stop
        // early — answers exactly as fresh rings per call do.
        let mut rng = DspRng::seed_from(5);
        let modem = MskModem::default();
        let (a, b) = (
            modem.modulate(&rng.bits(900)),
            modem.modulate(&rng.bits(900)),
        );
        let mut mixed = noise_vec(&mut rng, 150);
        mixed.extend((0..1000).map(|i| {
            let mut s = rng.complex_gaussian(NOISE) + a.get(i).copied().unwrap_or(Cplx::ZERO);
            if i >= 100 {
                s += b[i - 100].rotate(0.7);
            }
            s
        }));
        mixed.extend(noise_vec(&mut rng, 150));
        assert!(detector().detect(&mixed).is_some_and(|r| r.interfered));
        let (clean, _, _) = clean_reception(2);
        let narrow = SignalDetector::new(DetectorConfig {
            window: 8,
            ..*detector().config()
        });
        let mut rings = DetectorRings::default();
        for det in [detector(), narrow, detector()] {
            for rx in [&mixed, &clean, &mixed[..20]] {
                assert_eq!(
                    det.detect_with(rx, &mut rings),
                    det.detect(rx),
                    "window {}",
                    det.config().window
                );
                assert_eq!(det.locate_with(rx, &mut rings), det.locate(rx));
                let energies: Vec<f64> = rx.iter().map(|s| s.norm_sq()).collect();
                for from in [0, 40, 700] {
                    assert_eq!(
                        det.interference_span_with(&energies, from, rx.len(), &mut rings),
                        det.interference_span(&energies, from, rx.len())
                    );
                }
            }
        }
    }

    #[test]
    fn clean_packet_normalized_variance_is_small() {
        let (rx, _, _) = clean_reception(4);
        let (_, peak_nv) = interior_stats(&detector(), &rx);
        // ≈ 2/SNR = 2·10⁻⁴·... noise floor 40 dB below: nv ≈ 2e-4·…
        assert!(peak_nv < 0.01, "nv {peak_nv}");
    }

    #[test]
    fn interference_mask_localizes_overlap() {
        let mut rng = DspRng::seed_from(5);
        let modem = MskModem::default();
        let a = modem.modulate(&rng.bits(600));
        let b = modem.modulate(&rng.bits(600));
        let rb = rng.phase();
        let stagger = 200;
        // Region: a alone for [0, 200), overlap [200, 601), b alone to end.
        let span = stagger + b.len();
        let region: Vec<Cplx> = (0..span)
            .map(|i| {
                let mut s = rng.complex_gaussian(NOISE);
                if i < a.len() {
                    s += a[i];
                }
                if i >= stagger {
                    s += b[i - stagger].rotate(rb);
                }
                s
            })
            .collect();
        let mask = detector().interference_mask(&region);
        let overlap_flags = mask[stagger + 32..a.len() - 32]
            .iter()
            .filter(|&&f| f)
            .count();
        let overlap_len = a.len() - 64 - stagger;
        assert!(
            overlap_flags as f64 > 0.9 * overlap_len as f64,
            "overlap under-flagged: {overlap_flags}/{overlap_len}"
        );
        // Clean head must be mostly unflagged.
        let head_flags = mask[..stagger - 32].iter().filter(|&&f| f).count();
        assert!(
            (head_flags as f64) < 0.2 * (stagger - 32) as f64,
            "clean head over-flagged: {head_flags}"
        );
    }

    /// The seed implementation of the mask fill (quadratic in the
    /// window length): rewrite the whole trailing window at every
    /// firing sample. The O(n) high-water-mark fill must produce the
    /// same mask bit-for-bit.
    fn reference_mask(det: &SignalDetector, region: &[Cplx]) -> Vec<bool> {
        let w = det.config().window.max(8);
        let mut vw = VarianceWindow::new(w);
        let mut mask = vec![false; region.len()];
        for (i, &s) in region.iter().enumerate() {
            vw.push(s);
            if vw.is_full() {
                let (m, var) = vw.mean_and_variance();
                let nv = if m > 0.0 { var / (m * m) } else { 0.0 };
                if nv > det.config().variance_threshold {
                    for flag in mask[i + 1 - w..=i].iter_mut() {
                        *flag = true;
                    }
                }
            }
        }
        mask
    }

    #[test]
    fn linear_mask_fill_matches_quadratic_reference() {
        let det = detector();
        let mut rng = DspRng::seed_from(7);
        let modem = MskModem::default();
        for stagger in [0usize, 50, 200, 450] {
            let a = modem.modulate(&rng.bits(500));
            let b = modem.modulate(&rng.bits(500));
            let rb = rng.phase();
            let span = stagger + b.len();
            let region: Vec<Cplx> = (0..span)
                .map(|i| {
                    let mut s = rng.complex_gaussian(NOISE);
                    if i < a.len() {
                        s += a[i];
                    }
                    if i >= stagger {
                        s += b[i - stagger].rotate(rb + 0.02 * (i - stagger) as f64);
                    }
                    s
                })
                .collect();
            assert_eq!(
                det.interference_mask(&region),
                reference_mask(&det, &region),
                "stagger {stagger}"
            );
        }
        // Reused (and dirty) buffer: a second fill on a shorter,
        // interference-free region must shrink and fully reset it.
        let mut buf = vec![true; 9000];
        let lone = modem.modulate(&rng.bits(99));
        det.interference_mask_into(&lone, &mut buf);
        assert_eq!(buf.len(), lone.len());
        assert!(buf.iter().all(|&f| !f));
    }

    #[test]
    fn span_from_energies_matches_sample_mask() {
        // The searched span over precomputed |y|² (the SoA energy
        // kernel) must equal the one read off the sample-form mask, for
        // every search range over the region.
        let det = detector();
        let mut rng = DspRng::seed_from(9);
        let modem = MskModem::default();
        let mut energies = Vec::new();
        for stagger in [0usize, 50, 200] {
            let a = modem.modulate(&rng.bits(400));
            let b = modem.modulate(&rng.bits(400));
            let rb = rng.phase();
            let span = stagger + b.len();
            let region: Vec<Cplx> = (0..span)
                .map(|i| {
                    let mut s = rng.complex_gaussian(NOISE);
                    if i < a.len() {
                        s += a[i];
                    }
                    if i >= stagger {
                        s += b[i - stagger].rotate(rb);
                    }
                    s
                })
                .collect();
            anc_dsp::batch::energies_into(&region, &mut energies);
            let mask = det.interference_mask(&region);
            for from in (0..region.len()).step_by(37) {
                for to in (from..=region.len() + 5).step_by(23) {
                    assert_eq!(
                        det.interference_span(&energies, from, to),
                        mask_span(&mask, from, to),
                        "stagger {stagger}, range {from}..{to}"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_threshold_fires_without_a_full_window() {
        // A 6-sample region holds no full 8-sample variance window; the
        // variance peak of zero still exceeds a negative threshold.
        let det = SignalDetector::new(DetectorConfig {
            window: 4,
            noise_floor: NOISE,
            variance_threshold: -0.1,
            ..Default::default()
        });
        let rx = [
            Cplx::ZERO,
            Cplx::ZERO,
            Cplx::ONE,
            Cplx::I,
            Cplx::ZERO,
            Cplx::ZERO,
        ];
        let region = det.detect(&rx).unwrap();
        assert_eq!((region.start, region.end), (0, 6));
        assert!(region.interfered);
    }

    #[test]
    fn energy_gate_is_20db_over_floor() {
        let det = detector();
        assert!((det.energy_gate() - NOISE * 100.0).abs() < 1e-12);
    }

    #[test]
    fn short_input_rejected() {
        let det = detector();
        assert!(det.detect(&[Cplx::ONE; 8]).is_none());
    }

    #[test]
    fn noise_floor_estimator() {
        let mut rng = DspRng::seed_from(6);
        let quiet = noise_vec(&mut rng, 20_000);
        let nf = estimate_noise_floor(&quiet);
        assert!((nf / NOISE - 1.0).abs() < 0.1, "nf {nf}");
        assert!(estimate_noise_floor(&[]) > 0.0);
    }

    #[test]
    #[should_panic]
    fn tiny_window_rejected() {
        let _ = SignalDetector::new(DetectorConfig {
            window: 2,
            ..Default::default()
        });
    }
}
