//! Fractional-delay resampling.
//!
//! §7.2: *"it is impossible for Alice's and Bob's transmissions to be
//! fully synchronized. Thus, there will be a time shift between the two
//! signals."* The MAC-level part of that shift is an integer number of
//! samples; the residual part is a sub-sample offset. The medium models
//! the latter by linearly interpolating the transmitted waveform at a
//! fractional delay — adequate for MSK, whose phase trajectory is
//! piecewise linear, and cheap enough to apply per packet.

#![deny(clippy::cast_possible_truncation)]

use crate::cast::floor_to_usize;
use crate::cplx::Cplx;

/// Delays a sample stream by `delay` samples (may be fractional),
/// producing `signal.len()` output samples. Samples before the start of
/// the input are zero.
///
/// For an integer delay this is a pure shift; for a fractional delay
/// each output sample linearly interpolates its two bracketing inputs.
pub fn fractional_delay(signal: &[Cplx], delay: f64) -> Vec<Cplx> {
    assert!(delay >= 0.0, "delay must be non-negative");
    let n = signal.len();
    let mut out = vec![Cplx::ZERO; n];
    for (i, slot) in out.iter_mut().enumerate() {
        let t = i as f64 - delay;
        if t < 0.0 {
            continue;
        }
        // t >= 0 here, so the saturating floor conversion is exact.
        let k = floor_to_usize(t);
        let frac = t - k as f64;
        if k >= n {
            continue;
        }
        let a = signal[k];
        let b = if k + 1 < n { signal[k + 1] } else { Cplx::ZERO };
        *slot = a.scale(1.0 - frac) + b.scale(frac);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n).map(|i| Cplx::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn integer_delay_is_shift() {
        let sig = ramp(6);
        let d = fractional_delay(&sig, 2.0);
        assert_eq!(d[0], Cplx::ZERO);
        assert_eq!(d[1], Cplx::ZERO);
        assert_eq!(d[2], Cplx::new(0.0, 0.0));
        assert_eq!(d[5], Cplx::new(3.0, 0.0));
    }

    #[test]
    fn zero_delay_is_identity() {
        let sig = ramp(5);
        assert_eq!(fractional_delay(&sig, 0.0), sig);
    }

    #[test]
    fn half_sample_delay_interpolates() {
        let sig = ramp(5);
        let d = fractional_delay(&sig, 0.5);
        // output[1] samples input at t = 0.5 -> (0 + 1)/2
        assert!((d[1].re - 0.5).abs() < 1e-12);
        assert!((d[3].re - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fractional_delay_preserves_linear_phase_ramp() {
        // MSK's phase ramps linearly; a delayed version must still ramp
        // at the same rate (sampled between grid points the interpolation
        // of a complex exponential is not exact, but for small phase
        // steps the error is second-order).
        let step = 0.1_f64;
        let sig: Vec<Cplx> = (0..100).map(|n| Cplx::cis(n as f64 * step)).collect();
        let d = fractional_delay(&sig, 0.25);
        for n in 2..99 {
            let dphi = (d[n + 1] / d[n]).arg();
            assert!((dphi - step).abs() < 1e-3, "n={n} dphi={dphi}");
        }
    }

    #[test]
    #[should_panic]
    fn negative_delay_panics() {
        let _ = fractional_delay(&ramp(3), -1.0);
    }

    #[test]
    fn delay_longer_than_signal_yields_zeros() {
        let sig = ramp(4);
        let d = fractional_delay(&sig, 10.0);
        assert!(d.iter().all(|&s| s == Cplx::ZERO));
    }
}
