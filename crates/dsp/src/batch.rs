//! Struct-of-arrays sample batches for the autovectorized RX kernels.
//!
//! The scalar decode path hands one [`Cplx`] at a time through detect →
//! lemma → match, which keeps LLVM from vectorizing across samples: the
//! interleaved re/im layout and per-sample struct returns serialize the
//! arithmetic. The batch kernels (the lemma crate's `CandidateBatch`,
//! the matcher's `match_bits_batch`, the detector's from-energies mask)
//! restructure the same work as **split re/im arrays** walked in
//! `[f64; 4]` lane chunks — a shape LLVM autovectorizes at the
//! workspace's pinned `x86-64-v3` baseline (256-bit AVX2 + FMA holds
//! exactly four `f64` lanes).
//!
//! Every lane performs *exactly* the scalar path's floating-point
//! operations — same expressions, same `mul_add` contractions, same
//! order per element — so batch results are bit-identical to the scalar
//! reference. That property is pinned by the proptest equivalence suite
//! in `anc-core` and by the golden topology×scheme fingerprints.

use crate::cplx::Cplx;

/// Lane width of the `[f64; N]` batch kernels: four `f64` per 256-bit
/// AVX2 register at the pinned `x86-64-v3` baseline. Remainders shorter
/// than a lane fall back to the identical scalar element loop.
pub const LANES: usize = 4;

/// A struct-of-arrays buffer of complex samples: split `re`/`im` arrays
/// of equal length, so lane kernels can stream each component
/// contiguously instead of gathering from interleaved `[re, im]` pairs.
///
/// The batch is working memory, not a sample container with identity —
/// batch kernels `clear`/`resize` it per call and the capacity is
/// amortized across a run (the `DecoderScratch` pattern).
#[derive(Debug, Clone, Default)]
pub struct CplxBatch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl CplxBatch {
    /// An empty batch.
    pub fn new() -> Self {
        CplxBatch::default()
    }

    /// An empty batch with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        CplxBatch {
            re: Vec::with_capacity(n),
            im: Vec::with_capacity(n),
        }
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// `true` when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Drops all samples, keeping capacity.
    pub fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Resizes to exactly `n` samples; new slots are zero. Existing
    /// contents are kept only up to `n` — kernels that overwrite every
    /// slot use this purely as an allocation step.
    pub fn resize(&mut self, n: usize) {
        self.re.resize(n, 0.0);
        self.im.resize(n, 0.0);
    }

    /// Appends one sample.
    pub fn push(&mut self, z: Cplx) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    /// Reads sample `i` back as a [`Cplx`].
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Cplx {
        Cplx::new(self.re[i], self.im[i])
    }

    /// Writes sample `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, z: Cplx) {
        self.re[i] = z.re;
        self.im[i] = z.im;
    }

    /// The real-component lane.
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary-component lane.
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Mutable views of both lanes at once (kernels write re and im in
    /// the same loop).
    #[inline]
    pub fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }
}

/// Per-sample energies `|y[n]|²` of a sample slice, into a caller-owned
/// buffer (cleared first, capacity kept).
///
/// This is the detect stage's batch front half: the variance windows of
/// §7.1 consume only energies, so computing them once in a lane loop
/// lets the interference-span search (`interference_span` in `anc-core`)
/// skip the per-sample `norm_sq` inside its sequential window update.
/// Each element is exactly [`Cplx::norm_sq`] — the same `mul_add`
/// contraction the scalar detector performs — so downstream statistics
/// are bit-identical.
pub fn energies_into(samples: &[Cplx], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(samples.len());
    let mut chunks = samples.chunks_exact(LANES);
    for c in chunks.by_ref() {
        let mut e = [0.0f64; LANES];
        for (lane, s) in e.iter_mut().zip(c) {
            *lane = s.norm_sq();
        }
        out.extend_from_slice(&e);
    }
    for &s in chunks.remainder() {
        out.push(s.norm_sq());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_round_trips_samples() {
        let samples: Vec<Cplx> = (0..7).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
        let mut b = CplxBatch::with_capacity(4);
        for &s in &samples {
            b.push(s);
        }
        assert_eq!(b.len(), 7);
        assert!(!b.is_empty());
        for (i, &s) in samples.iter().enumerate() {
            assert_eq!(b.get(i), s);
        }
        b.set(3, Cplx::I);
        assert_eq!(b.get(3), Cplx::I);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn resize_zero_fills_and_truncates() {
        let mut b = CplxBatch::new();
        b.push(Cplx::ONE);
        b.resize(3);
        assert_eq!(b.get(1), Cplx::ZERO);
        assert_eq!(b.get(2), Cplx::ZERO);
        b.resize(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0), Cplx::ONE);
        let (re, im) = b.parts_mut();
        re[0] = 5.0;
        im[0] = 6.0;
        assert_eq!(b.get(0), Cplx::new(5.0, 6.0));
        assert_eq!(b.re(), &[5.0]);
        assert_eq!(b.im(), &[6.0]);
    }

    #[test]
    fn energies_match_scalar_norm_sq_bitwise() {
        // Lengths straddling the lane width, including remainders.
        for n in [0usize, 1, 3, 4, 5, 8, 13] {
            let samples: Vec<Cplx> = (0..n)
                .map(|i| Cplx::new(0.3 * i as f64 - 1.0, 1.7 - 0.2 * i as f64))
                .collect();
            let mut out = vec![9.9; 2]; // must be cleared
            energies_into(&samples, &mut out);
            assert_eq!(out.len(), n);
            for (i, &s) in samples.iter().enumerate() {
                assert_eq!(out[i].to_bits(), s.norm_sq().to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn energies_propagate_non_finite_samples() {
        let mut out = Vec::new();
        energies_into(
            &[Cplx::new(f64::NAN, 0.0), Cplx::new(f64::INFINITY, 1.0)],
            &mut out,
        );
        assert!(out[0].is_nan());
        assert_eq!(out[1], f64::INFINITY);
    }
}
