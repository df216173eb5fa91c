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
    /// Mean energy over the region.
    pub mean_energy: f64,
    /// Peak normalized energy variance observed over the region.
    pub peak_normalized_variance: f64,
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

/// The §7.1 detector.
#[derive(Debug, Clone)]
pub struct SignalDetector {
    cfg: DetectorConfig,
}

impl SignalDetector {
    /// Creates a detector.
    ///
    /// # Panics
    /// Panics if `window < 4` or `noise_floor <= 0`.
    pub fn new(cfg: DetectorConfig) -> Self {
        assert!(cfg.window >= 4, "detection window too small");
        assert!(cfg.noise_floor > 0.0, "noise floor must be positive");
        SignalDetector { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Energy level (linear) at which a packet is declared.
    pub fn energy_gate(&self) -> f64 {
        self.cfg.noise_floor * db_to_linear(self.cfg.energy_threshold_db)
    }

    /// Bounds `(start, end)` of the first detected signal region: the
    /// two energy scans of [`Self::detect`] without its interior
    /// classification. Callers that read only the bounds (a clean
    /// decode, a relay cutting out the region it amplifies) skip the
    /// interior mean and the O(w)-per-sample variance pass. Returns
    /// `None` when no window crosses the energy gate; otherwise equal to
    /// `detect(samples).map(|r| (r.start, r.end))`.
    pub fn locate(&self, samples: &[Cplx]) -> Option<(usize, usize)> {
        let w = self.cfg.window;
        if samples.len() < w {
            return None;
        }
        let gate = self.energy_gate();
        let mut ew = EnergyWindow::new(w);
        // Find start: first window whose mean crosses the gate. The
        // region starts at the window's left edge.
        let mut start = None;
        for (i, &s) in samples.iter().enumerate() {
            ew.push(s);
            if ew.is_full() && ew.mean() > gate {
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
        // tail bits (and with them the mirrored tail pilot, §7.4).
        ew.clear();
        let mut end = samples.len();
        for (i, &s) in samples.iter().enumerate().skip(start) {
            ew.push(s);
            if ew.is_full() && ew.mean() <= gate {
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
        let (start, end) = self.locate(samples)?;
        let w = self.cfg.window;
        // Classify on the region *interior*: the rise and fall edges of
        // any packet produce a large energy variance (noise level →
        // signal level) that has nothing to do with interference, and
        // the region bounds deliberately overshoot into noise, so a
        // window-length margin at each end is excluded from both the
        // energy and the variance statistics.
        let region = &samples[start..end];
        let interior = if region.len() > 2 * w {
            &region[w..region.len() - w]
        } else {
            region
        };
        let mean_energy = Cplx::mean_energy(interior);
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
        Some(ClassifiedSignal {
            start,
            end,
            interfered: peak_nv > self.cfg.variance_threshold,
            mean_energy,
            peak_normalized_variance: peak_nv,
        })
    }

    /// Per-sample interference mask over a detected region: `true`
    /// where the trailing window's normalized variance exceeds the
    /// threshold. Used by the decoder to find the interference onset
    /// (§7.2: where the second packet begins).
    pub fn interference_mask(&self, region: &[Cplx]) -> Vec<bool> {
        let mut mask = Vec::new();
        self.interference_mask_into(region, &mut mask);
        mask
    }

    /// [`SignalDetector::interference_mask`] into a caller-owned
    /// buffer (cleared, then filled to `region.len()`), so repeated
    /// decodes amortize the allocation.
    pub fn interference_mask_into(&self, region: &[Cplx], mask: &mut Vec<bool>) {
        let w = self.cfg.window.max(8);
        let mut vw = VarianceWindow::new(w);
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

    /// [`SignalDetector::interference_mask_into`] from *precomputed*
    /// per-sample energies (`|y|²`, e.g. from
    /// [`anc_dsp::batch::energies_into`]) instead of complex samples.
    ///
    /// This is the batched pipeline's detect stage (DESIGN.md §8): the
    /// energy map is a lane pass over the struct-of-arrays layout, and
    /// the variance window then consumes scalars. Bit-identical to the
    /// sample form — `VarianceWindow::push(s)` is defined as
    /// `push_energy(s.norm_sq())`, so the window sees the exact same
    /// value stream; the window's own ring/accumulator arithmetic is
    /// untouched (its summation order is part of the pinned FP path).
    pub fn interference_mask_from_energies(&self, energies: &[f64], mask: &mut Vec<bool>) {
        let w = self.cfg.window.max(8);
        let mut vw = VarianceWindow::new(w);
        mask.clear();
        mask.resize(energies.len(), false);
        // Same O(n) high-water fill as `interference_mask_into`.
        let mut flagged_to = 0usize;
        for (i, &e) in energies.iter().enumerate() {
            vw.push_energy(e);
            if vw.is_full() {
                let (m, var) = vw.mean_and_variance();
                let nv = if m > 0.0 { var / (m * m) } else { 0.0 };
                if nv > self.cfg.variance_threshold {
                    let lo = (i + 1 - w).max(flagged_to);
                    for flag in mask[lo..=i].iter_mut() {
                        *flag = true;
                    }
                    flagged_to = i + 1;
                }
            }
        }
    }
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
        assert!((det.mean_energy - 1.0).abs() < 0.1);
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
        assert!(det.peak_normalized_variance > 0.05);
    }

    #[test]
    fn clean_packet_normalized_variance_is_small() {
        let (rx, _, _) = clean_reception(4);
        let det = detector().detect(&rx).unwrap();
        // ≈ 2/SNR = 2·10⁻⁴·... noise floor 40 dB below: nv ≈ 2e-4·…
        assert!(
            det.peak_normalized_variance < 0.01,
            "nv {}",
            det.peak_normalized_variance
        );
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
    fn mask_from_energies_matches_sample_mask() {
        // The batched detect stage (precomputed |y|² via the SoA energy
        // kernel) must produce the bit-identical mask to the sample
        // form, including on a dirty, oversized reused buffer.
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
            let mut from_energies = vec![true; 9000]; // dirty
            det.interference_mask_from_energies(&energies, &mut from_energies);
            assert_eq!(
                from_energies,
                det.interference_mask(&region),
                "stagger {stagger}"
            );
        }
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
