//! Phase-difference matching (§6.3, Eqs. 7–8).
//!
//! Lemma 6.1 yields *two* candidate phase pairs per sample; across an
//! interval `n → n+1` that makes four candidate phase-difference pairs:
//!
//! ```text
//! (Δθ_xy[n], Δφ_xy[n]) = (θ_x[n+1] − θ_y[n], φ_x[n+1] − φ_y[n]),  x,y ∈ {1,2}
//! ```
//!
//! Alice knows her own transmitted phase differences `Δθ_s[n]` (±π/2
//! per MSK bit) and they survive the channel (the constant γ cancels in
//! the difference). She picks the candidate minimizing
//! `err_xy = |Δθ_xy[n] − Δθ_s[n]|` — computed here as *circular*
//! distance, since phase differences live on the circle — and emits the
//! paired `Δφ_xy[n]` as the estimate of the unknown sender's phase
//! difference for that interval.

use crate::lemma::{solve_phases, CandidateBatch, LemmaKernel, PhaseSolutions};
use anc_dsp::angle::{circular_diff, circular_distance};
use anc_dsp::{Cplx, CplxBatch};

/// Output of the matcher over a run of samples.
#[derive(Debug, Clone, Default)]
pub struct MatchOutput {
    /// Estimated unknown-sender phase difference per interval,
    /// wrapped to `(-π, π]`. Length = `intervals`.
    pub dphi: Vec<f64>,
    /// The matched candidate's known-sender phase difference
    /// (diagnostic; ideally ≈ `Δθ_s`).
    pub dtheta: Vec<f64>,
    /// Residual `|Δθ_chosen − Δθ_s|` per interval (diagnostic; large
    /// values flag low-confidence intervals).
    pub err: Vec<f64>,
}

impl MatchOutput {
    /// Hard bit decisions per §6.4: `Δφ ≥ 0 → 1`.
    pub fn bits(&self) -> Vec<bool> {
        self.dphi.iter().map(|&d| d >= 0.0).collect()
    }

    /// Mean matching residual (diagnostic).
    pub fn mean_err(&self) -> f64 {
        mean_residual(&self.err)
    }
}

/// Runs the §6.3 matcher.
///
/// * `y` — received samples at symbol spacing; interval `n` spans
///   `y[n] → y[n+1]`.
/// * `known_dtheta` — the known sender's transmitted phase differences
///   `Δθ_s[n]`, aligned so `known_dtheta[n]` describes interval `n`.
/// * `a`, `b` — amplitudes of the known and unknown signals (§6.2).
///
/// Processes `min(known_dtheta.len(), y.len() − 1)` intervals.
///
/// # Panics
/// Panics if either amplitude is not strictly positive.
pub fn match_phase_differences(y: &[Cplx], known_dtheta: &[f64], a: f64, b: f64) -> MatchOutput {
    assert!(a > 0.0 && b > 0.0, "amplitudes must be positive");
    let intervals = known_dtheta.len().min(y.len().saturating_sub(1));
    let mut out = MatchOutput {
        dphi: Vec::with_capacity(intervals),
        dtheta: Vec::with_capacity(intervals),
        err: Vec::with_capacity(intervals),
    };
    if intervals == 0 {
        return out;
    }
    let mut prev: PhaseSolutions = solve_phases(y[0], a, b);
    for n in 0..intervals {
        let next = solve_phases(y[n + 1], a, b);
        let mut chosen = false;
        let mut best_err = f64::INFINITY;
        let mut best_dtheta = 0.0;
        let mut best_dphi = 0.0;
        // Eq. 7: all four (x, y) combinations. The first candidate is
        // adopted unconditionally: NaN inputs (a NaN sample or a NaN
        // `Δθ_s`) make every candidate's `err` NaN, and since
        // `NaN < best` never fires, the old INFINITY-seeded loop would
        // emit the 0.0 placeholders — a *bit decision of 1* out of
        // garbage, and a silent divergence from the fused kernels,
        // which fall back to candidate (0, 0). Adopting the first
        // candidate keeps the selection identical for every non-NaN
        // input (any finite err beats INFINITY) and propagates NaN
        // honestly otherwise.
        for pn in next.pairs() {
            for pp in prev.pairs() {
                let dtheta = circular_diff(pn.theta, pp.theta);
                let err = circular_distance(dtheta, known_dtheta[n]);
                if !chosen || err < best_err {
                    chosen = true;
                    best_err = err;
                    best_dtheta = dtheta;
                    best_dphi = circular_diff(pn.phi, pp.phi);
                }
            }
        }
        out.dphi.push(best_dphi);
        out.dtheta.push(best_dtheta);
        out.err.push(best_err);
        prev = next;
    }
    out
}

/// The scalar fused §6.3 kernel: Lemma 6.1 + matching that emits
/// only what Alg. 1 consumes — the §6.4 hard bit decisions
/// (appended to `bits`) and the per-interval matching residual
/// `|Δθ_chosen − Δθ_s|` (into `err`, cleared first).
///
/// Candidates are scored through a [`LemmaKernel`]'s unnormalized
/// vectors (the identities are set out in DESIGN.md §8), and the
/// unknown sender's bit is read off the *sign* of the winning `Δφ`
/// vector product — exactly reproducing `Δφ ≥ 0`, signed zeros
/// included. Bits are bit-identical to the scalar reference
/// `match_phase_differences(..).bits()` except on intervals whose
/// decision margin is below ~1 ulp (genuinely ambiguous `|Δφ| ≈ 0` or
/// `D = ±1` ties); residuals agree to floating-point rounding. The
/// equivalence suite in `tests/proptest_core.rs` pins this down.
pub fn match_bits_into(
    y: &[Cplx],
    known_dtheta: &[f64],
    a: f64,
    b: f64,
    err: &mut Vec<f64>,
    bits: &mut Vec<bool>,
) {
    let kernel = LemmaKernel::new(a, b);
    err.clear();
    let intervals = known_dtheta.len().min(y.len().saturating_sub(1));
    if intervals == 0 {
        return;
    }
    err.reserve(intervals);
    bits.reserve(intervals);
    let (mut pu, mut pv, _) = kernel.candidate_vectors(y[0]);
    // Memoized `e^{-i·Δθ_s}`: MSK streams draw Δθ_s from {±π/2}, so
    // consecutive intervals often repeat a value and skip the sin_cos.
    let (mut memo_dtheta, mut back_rot) = (f64::NAN, Cplx::ONE);
    for (&yn, &known) in y[1..=intervals].iter().zip(known_dtheta) {
        let (nu, nv, _) = kernel.candidate_vectors(yn);
        if known != memo_dtheta {
            let (sk, ck) = known.sin_cos();
            back_rot = Cplx::new(ck, -sk);
            memo_dtheta = known;
        }
        // Pre-rotate the next-sample candidates by −Δθ_s once, so each
        // of the four scores is a single fused multiply-accumulate:
        // Re(m_x·conj(pu_p)) ∝ cos(Δθ_xy − Δθ_s), and the cosine is
        // monotone in the reference's circular distance on [0, π].
        let m = [nu[0] * back_rot, nu[1] * back_rot];
        // Candidate order mirrors the reference exactly — next branch
        // outer, prev branch inner, strict improvement — so ties keep
        // the same (earliest) candidate.
        let mut best_score = f64::NEG_INFINITY;
        let (mut x, mut p) = (0usize, 0usize);
        for (xi, &mx) in m.iter().enumerate() {
            for (pi, &pup) in pu.iter().enumerate() {
                let score = mx.re.mul_add(pup.re, mx.im * pup.im);
                if score > best_score {
                    best_score = score;
                    (x, p) = (xi, pi);
                }
            }
        }
        // `m·conj(pu)` ∝ e^{i(Δθ_chosen − Δθ_s)}: its argument is the
        // signed residual. `nv·conj(pv)` ∝ e^{iΔφ_chosen}: its sign is
        // the §6.4 bit.
        err.push((m[x] * pu[p].conj()).arg().abs());
        bits.push((nv[x] * pv[p].conj()).arg_is_non_negative());
        pu = nu;
        pv = nv;
    }
}

/// Working memory of [`match_bits_batch`]: the struct-of-arrays
/// intermediate streams of the batched detect → lemma → match pipeline
/// (DESIGN.md §8). Owning them in the caller amortizes every
/// allocation across a run — the `DecoderScratch` pattern.
#[derive(Debug, Clone, Default)]
pub struct MatchBatchScratch {
    /// Lemma-6.1 candidate vectors for samples `y[0..=intervals]`.
    cand: CandidateBatch,
    /// Per-interval back-rotations `e^{-iΔθ_s[k]}`.
    back_rot: CplxBatch,
}

/// The batched §6.3 kernel: same contract and output as
/// [`match_bits_into`] — the §6.4 bit decisions appended to `bits`, the
/// per-interval residuals into `err` (cleared first) — restructured as
/// struct-of-arrays stage passes over the whole run.
///
/// Why it is faster, at bit-identical output:
///
/// * The fused scalar kernel carries a loop-dependency — interval `k`'s
///   `pu`/`pv` are interval `k−1`'s `nu`/`nv` — so its Lemma solves,
///   rotations and scores all sit on one serial chain. But the
///   *dependency is only on data layout, not on values*: every
///   candidate vector is a pure function of one sample. Solving all
///   samples up front ([`LemmaKernel::candidate_vectors_batch`]) turns
///   the expensive part of the chain into a data-parallel lane pass
///   LLVM autovectorizes.
/// * The decision scan then reads the solved streams with no
///   long-latency dependency between intervals: four register-resident
///   scores and compares per interval, and the one irreducible `atan2`
///   for the residual stream overlaps across intervals in the
///   out-of-order window.
///
/// Every stage performs exactly the scalar expressions (same `mul_add`
/// contractions, same candidate order, same strict-improvement scan
/// seeded at −∞ — NaN scores are never adopted, so NaN inputs fall back
/// to candidate (0, 0) exactly as the fused kernel does), so `bits` and
/// `err` are bit-identical to [`match_bits_into`]; the proptest
/// equivalence suite pins this across lane remainders.
pub fn match_bits_batch(
    y: &[Cplx],
    known_dtheta: &[f64],
    a: f64,
    b: f64,
    scratch: &mut MatchBatchScratch,
    err: &mut Vec<f64>,
    bits: &mut Vec<bool>,
) {
    let kernel = LemmaKernel::new(a, b);
    err.clear();
    let intervals = known_dtheta.len().min(y.len().saturating_sub(1));
    if intervals == 0 {
        return;
    }
    err.reserve(intervals);
    bits.reserve(intervals);
    let MatchBatchScratch { cand, back_rot } = scratch;

    // Stage 1 — lemma: candidate vectors for every sample, one SoA
    // lane pass (sample `k` serves as interval `k`'s "prev" and
    // interval `k−1`'s "next", so each is solved exactly once, as in
    // the scalar kernel).
    kernel.candidate_vectors_batch(&y[..=intervals], cand);

    // Stage 2 — back-rotations `e^{-iΔθ_s}`: a two-entry memo instead
    // of the scalar kernel's last-value memo. MSK draws Δθ_s from
    // {±π/2}, so the stream *alternates* between two values and a
    // one-deep memo misses on every change; holding both makes nearly
    // every interval a hit. FP-transparent either way — `sin_cos` is a
    // pure function, so a cached result is the bit the call would have
    // produced.
    back_rot.clear();
    let mut memo = [(f64::NAN, Cplx::ONE); 2];
    for &known in &known_dtheta[..intervals] {
        let br = if known == memo[0].0 {
            memo[0].1
        } else if known == memo[1].0 {
            memo[1].1
        } else {
            let (sk, ck) = known.sin_cos();
            let fresh = Cplx::new(ck, -sk);
            memo[1] = memo[0];
            memo[0] = (known, fresh);
            fresh
        };
        back_rot.push(br);
    }

    // Stage 3 — rotate, score and decide in one scan over the solved
    // candidate streams: per interval, both pre-rotated next vectors,
    // the four candidate scores (registers, never written back), then
    // the reference's exact selection order (next branch outer, prev
    // branch inner, strict improvement from −∞) and the winner's
    // residual and bit. An earlier cut materialized the rotated
    // vectors and all four score streams as further SoA passes; at
    // 4k-sample runs those intermediates blew past L2 and the kernel
    // went memory-bound — folding them into the scan keeps the streams
    // read here to the candidate batch and the back-rotations. The
    // only long-latency op per interval is the residual's `atan2`, and
    // it is independent across intervals, so out-of-order execution
    // overlaps it with the neighbouring intervals' arithmetic.
    let (bre, bim) = (&back_rot.re()[..intervals], &back_rot.im()[..intervals]);
    let (u0re, u0im) = (cand.u0.re(), cand.u0.im());
    let (u1re, u1im) = (cand.u1.re(), cand.u1.im());
    let (v0re, v0im) = (cand.v0.re(), cand.v0.im());
    let (v1re, v1im) = (cand.v1.re(), cand.v1.im());
    for k in 0..intervals {
        let brk = Cplx::new(bre[k], bim[k]);
        let mk0 = Cplx::new(u0re[k + 1], u0im[k + 1]) * brk;
        let mk1 = Cplx::new(u1re[k + 1], u1im[k + 1]) * brk;
        let p0 = Cplx::new(u0re[k], u0im[k]);
        let p1 = Cplx::new(u1re[k], u1im[k]);
        let s = [
            mk0.re.mul_add(p0.re, mk0.im * p0.im),
            mk0.re.mul_add(p1.re, mk0.im * p1.im),
            mk1.re.mul_add(p0.re, mk1.im * p0.im),
            mk1.re.mul_add(p1.re, mk1.im * p1.im),
        ];
        // Select-style scan (same sequential strict-`>` semantics as
        // the reference's `if` chain, NaN never adopted): phrasing each
        // step as a conditional move keeps the winner's index off the
        // branch predictor — the winning candidate is data-dependent
        // noise, and a mispredicted branch here costs more than the
        // whole score computation.
        let mut best_score = f64::NEG_INFINITY;
        let mut best = 0usize;
        for (j, &sc) in s.iter().enumerate() {
            let take = sc > best_score;
            best_score = if take { sc } else { best_score };
            best = if take { j } else { best };
        }
        let (x, p) = (best >> 1, best & 1);
        let (m, nv) = if x == 0 {
            (mk0, Cplx::new(v0re[k + 1], v0im[k + 1]))
        } else {
            (mk1, Cplx::new(v1re[k + 1], v1im[k + 1]))
        };
        let (pu, pv) = if p == 0 {
            (p0, Cplx::new(v0re[k], v0im[k]))
        } else {
            (p1, Cplx::new(v1re[k], v1im[k]))
        };
        err.push((m * pu.conj()).arg().abs());
        bits.push((nv * pv.conj()).arg_is_non_negative());
    }
}

/// Mean of a residual stream; 0 for an empty one.
pub fn mean_residual(err: &[f64]) -> f64 {
    if err.is_empty() {
        0.0
    } else {
        err.iter().sum::<f64>() / err.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_dsp::{Cplx, DspRng};
    use anc_modem::{Modem, MskConfig, MskModem};
    use std::f64::consts::FRAC_PI_2;

    /// Synthesizes Alice's view: two MSK signals through independent
    /// channel rotations, a small relative carrier offset (independent
    /// oscillators; see the `amplitude` module docs), plus optional
    /// noise. Returns (rx, alice_bits, bob_bits, known_dtheta).
    fn scenario(
        a_amp: f64,
        b_amp: f64,
        n_bits: usize,
        seed: u64,
        noise: f64,
    ) -> (Vec<Cplx>, Vec<bool>, Vec<bool>, Vec<f64>) {
        let mut rng = DspRng::seed_from(seed);
        let alice_bits = rng.bits(n_bits);
        let bob_bits = rng.bits(n_bits);
        let ma = MskModem::new(MskConfig::with_amplitude(a_amp));
        let mb = MskModem::new(MskConfig::with_amplitude(b_amp));
        let sa = ma.modulate(&alice_bits);
        let sb = mb.modulate(&bob_bits);
        let ga = rng.phase();
        let gb = rng.phase();
        let cfo = 0.02;
        let rx: Vec<Cplx> = sa
            .iter()
            .zip(&sb)
            .enumerate()
            .map(|(n, (&x, &y))| {
                x.rotate(ga) + y.rotate(gb + cfo * n as f64) + rng.complex_gaussian(noise)
            })
            .collect();
        let dtheta = ma.phase_differences(&alice_bits);
        (rx, alice_bits, bob_bits, dtheta)
    }

    fn errors(a: &[bool], b: &[bool]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    #[test]
    fn decodes_equal_amplitudes_noiseless() {
        let (rx, _, bob, dtheta) = scenario(1.0, 1.0, 600, 1, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.0, 1.0);
        let e = errors(&m.bits(), &bob);
        // Perfectly synchronized equal amplitudes occasionally hit the
        // degenerate |y|≈0 configuration where the interval is truly
        // ambiguous; a small residual is expected even noiselessly.
        assert!(e * 100 <= 600, "errors {e}/600");
        assert!(m.mean_err() < 0.3, "mean residual {}", m.mean_err());
    }

    #[test]
    fn decodes_unequal_amplitudes_noiseless() {
        let (rx, _, bob, dtheta) = scenario(1.0, 0.6, 600, 2, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.0, 0.6);
        let e = errors(&m.bits(), &bob);
        assert!(e <= 6, "errors {e}/600");
    }

    #[test]
    fn decodes_under_20db_noise() {
        let (rx, _, bob, dtheta) = scenario(1.0, 0.8, 2000, 3, 0.0164);
        // noise power = (1+0.64)/100 → 20 dB below total signal power
        let m = match_phase_differences(&rx, &dtheta, 1.0, 0.8);
        let ber = errors(&m.bits(), &bob) as f64 / 2000.0;
        assert!(ber < 0.06, "BER {ber}"); // paper's regime: a few percent
    }

    #[test]
    fn matched_dtheta_tracks_known() {
        let (rx, _, _, dtheta) = scenario(1.0, 0.7, 300, 4, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.0, 0.7);
        // The chosen Δθ must be close to the known ±π/2 stream.
        let close = m
            .dtheta
            .iter()
            .zip(&dtheta)
            .filter(|(got, want)| circular_distance(**got, **want) < 0.5)
            .count();
        assert!(close >= 290, "only {close}/300 intervals matched");
    }

    #[test]
    fn tolerates_amplitude_estimation_error() {
        // §6.2's estimates are imperfect; ±10 % error must not collapse
        // decoding.
        let (rx, _, bob, dtheta) = scenario(1.0, 0.7, 1500, 5, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.1, 0.63);
        let ber = errors(&m.bits(), &bob) as f64 / 1500.0;
        assert!(ber < 0.05, "BER {ber}");
    }

    #[test]
    fn weaker_wanted_signal_still_decodes() {
        // Fig. 13's point: SIR = −3 dB (B half the power of A) still
        // yields BER below ~5 %.
        let b_amp = (0.5f64).sqrt();
        let (rx, _, bob, dtheta) = scenario(1.0, b_amp, 4000, 6, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.0, b_amp);
        let ber = errors(&m.bits(), &bob) as f64 / 4000.0;
        assert!(ber < 0.05, "BER {ber} at SIR −3 dB");
    }

    #[test]
    fn empty_and_short_inputs() {
        let m = match_phase_differences(&[], &[FRAC_PI_2], 1.0, 1.0);
        assert!(m.dphi.is_empty());
        let m = match_phase_differences(&[Cplx::ONE], &[FRAC_PI_2], 1.0, 1.0);
        assert!(m.dphi.is_empty());
        let m = match_phase_differences(&[Cplx::ONE, Cplx::I], &[], 1.0, 1.0);
        assert!(m.dphi.is_empty());
    }

    #[test]
    fn output_lengths_consistent() {
        let (rx, _, _, dtheta) = scenario(1.0, 1.0, 50, 7, 0.0);
        let m = match_phase_differences(&rx, &dtheta, 1.0, 1.0);
        assert_eq!(m.dphi.len(), 50);
        assert_eq!(m.dtheta.len(), 50);
        assert_eq!(m.err.len(), 50);
        assert_eq!(m.bits().len(), 50);
    }

    #[test]
    fn known_shorter_than_samples() {
        let (rx, _, bob, dtheta) = scenario(1.0, 0.9, 100, 8, 0.0);
        let m = match_phase_differences(&rx, &dtheta[..40], 1.0, 0.9);
        assert_eq!(m.dphi.len(), 40);
        assert!(errors(&m.bits(), &bob[..40]) <= 1);
    }

    #[test]
    #[should_panic]
    fn zero_amplitude_rejected() {
        let _ = match_phase_differences(&[Cplx::ONE, Cplx::I], &[0.0], 1.0, 0.0);
    }

    #[test]
    fn bits_kernel_agrees_with_reference() {
        for (seed, a, b, noise) in [
            (31u64, 1.0, 1.0, 0.0),
            (32, 1.0, 0.6, 0.0),
            (33, 1.0, 0.8, 0.0164),
            (34, 0.7, 1.3, 0.005),
        ] {
            let (rx, _, _, dtheta) = scenario(a, b, 800, seed, noise);
            let reference = match_phase_differences(&rx, &dtheta, a, b);
            let mut err = vec![9.9];
            let mut bits = vec![true]; // appended after, not cleared
            match_bits_into(&rx, &dtheta, a, b, &mut err, &mut bits);
            assert_eq!(&bits[1..], reference.bits().as_slice(), "seed {seed}");
            assert_eq!(err.len(), reference.err.len());
            for (n, (&e, &r)) in err.iter().zip(&reference.err).enumerate() {
                assert!((e - r).abs() < 1e-9, "err[{n}]");
            }
            assert!((mean_residual(&err) - reference.mean_err()).abs() < 1e-9);
        }
        assert_eq!(mean_residual(&[]), 0.0);
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_fused() {
        // Bitwise equality — not tolerance — across lane remainders
        // (n % LANES ∈ {0, 1, 2, 3} via the interval counts below) and
        // operating points; the randomized sweep lives in
        // tests/proptest_core.rs.
        let mut scratch = MatchBatchScratch::default();
        for (seed, a, b, noise, n_bits) in [
            (41u64, 1.0, 1.0, 0.0, 800usize),
            (42, 1.0, 0.6, 0.0, 801),
            (43, 1.0, 0.8, 0.0164, 802),
            (44, 0.7, 1.3, 0.005, 803),
        ] {
            let (rx, _, _, dtheta) = scenario(a, b, n_bits, seed, noise);
            let (mut err_f, mut bits_f) = (Vec::new(), Vec::new());
            match_bits_into(&rx, &dtheta, a, b, &mut err_f, &mut bits_f);
            let mut err_b = vec![9.9]; // must be cleared
            let mut bits_b = vec![true]; // appended after, not cleared
            match_bits_batch(&rx, &dtheta, a, b, &mut scratch, &mut err_b, &mut bits_b);
            assert_eq!(&bits_b[1..], bits_f.as_slice(), "seed {seed}");
            assert_eq!(err_b.len(), err_f.len());
            for (n, (&e, &r)) in err_b.iter().zip(&err_f).enumerate() {
                assert!(
                    e.to_bits() == r.to_bits(),
                    "seed {seed} err[{n}]: {e} vs {r}"
                );
            }
        }
        // Empty/short inputs: cleared err, untouched bits.
        let (mut err, mut bits) = (vec![1.0], Vec::new());
        match_bits_batch(
            &[Cplx::ONE],
            &[FRAC_PI_2],
            1.0,
            1.0,
            &mut scratch,
            &mut err,
            &mut bits,
        );
        assert!(err.is_empty() && bits.is_empty());
    }

    #[test]
    fn nan_inputs_decide_identically_on_every_path() {
        // A NaN sample or NaN Δθ_s poisons all four candidates of the
        // affected intervals; every kernel must then make the
        // *same* fallback decision (candidate (0, 0), NaN dphi → bit
        // false) rather than silently diverging.
        let (mut rx, _, _, mut dtheta) = scenario(1.0, 0.8, 64, 51, 0.0);
        rx[10] = Cplx::new(f64::NAN, 0.3);
        rx[20] = Cplx::new(0.1, f64::NAN);
        dtheta[40] = f64::NAN;
        let reference = match_phase_differences(&rx, &dtheta, 1.0, 0.8);
        let (mut err_f, mut bits_f) = (Vec::new(), Vec::new());
        match_bits_into(&rx, &dtheta, 1.0, 0.8, &mut err_f, &mut bits_f);
        let mut scratch = MatchBatchScratch::default();
        let (mut err_b, mut bits_b) = (Vec::new(), Vec::new());
        match_bits_batch(
            &rx,
            &dtheta,
            1.0,
            0.8,
            &mut scratch,
            &mut err_b,
            &mut bits_b,
        );
        assert_eq!(reference.bits(), bits_f);
        assert_eq!(reference.bits(), bits_b);
        // Poisoned intervals: samples 10 and 20 hit intervals {9, 10}
        // and {19, 20}; the NaN Δθ_s hits interval 40. All paths must
        // report NaN residuals there (not 0.0 placeholders) and decide
        // the bit false.
        for k in [9usize, 10, 19, 20, 40] {
            assert!(reference.err[k].is_nan(), "reference err[{k}]");
            assert!(err_f[k].is_nan(), "bits-kernel err[{k}]");
            assert!(err_b[k].is_nan(), "batch err[{k}]");
        }
        // NaN *samples* poison the Δφ vector too, so those intervals'
        // bits are false; the NaN-Δθ_s interval (40) falls back to
        // candidate (0, 0), whose Δφ is still finite.
        for k in [9usize, 10, 19, 20] {
            assert!(!bits_b[k], "bit[{k}] must be false under NaN samples");
        }
        // Clean intervals still decode identically and finitely.
        assert!(err_b[30].is_finite());
    }

    #[test]
    fn arg_sign_decision_matches_atan2_on_axes() {
        for &re in &[-2.0, -0.0, 0.0, 3.0] {
            for &im in &[-1.0, -0.0, 0.0, 2.5] {
                let q = Cplx::new(re, im);
                assert_eq!(
                    q.arg_is_non_negative(),
                    q.arg() >= 0.0,
                    "q = {re:?}+{im:?}i (arg {})",
                    q.arg()
                );
            }
        }
        assert!(!Cplx::new(f64::NAN, 1.0).arg_is_non_negative());
        assert!(!Cplx::new(1.0, f64::NAN).arg_is_non_negative());
    }

    #[test]
    fn fused_kernel_handles_empty_and_short_inputs() {
        for (y, known) in [
            (&[][..], &[FRAC_PI_2][..]),
            (&[Cplx::ONE][..], &[FRAC_PI_2][..]),
            (&[Cplx::ONE, Cplx::I][..], &[][..]),
        ] {
            let (mut err, mut bits) = (vec![1.0], Vec::new());
            match_bits_into(y, known, 1.0, 1.0, &mut err, &mut bits);
            assert!(err.is_empty() && bits.is_empty());
        }
    }
}
