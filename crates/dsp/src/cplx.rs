//! A self-contained complex number type for baseband samples.
//!
//! The paper represents every transmitted and received sample as
//! `A·e^{iθ}` (§5.1). [`Cplx`] provides exactly the operations its
//! algebra needs: arithmetic, conjugation, polar construction,
//! magnitude/argument, and rotation. It is intentionally minimal — the
//! point of owning the type (instead of using `num-complex`) is that the
//! whole chain from Eq. 1 to Lemma 6.1 is auditable within this
//! workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number over `f64`, used for baseband signal samples.
///
/// ```
/// use anc_dsp::Cplx;
/// let s = Cplx::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((s.re).abs() < 1e-12);
/// assert!((s.im - 2.0).abs() < 1e-12);
/// assert!((s.norm() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real (in-phase, "I") component.
    pub re: f64,
    /// Imaginary (quadrature, "Q") component.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
/// The imaginary unit `i`.
pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

impl Cplx {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Cplx = ZERO;
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Cplx = ONE;
    /// The imaginary unit, `0 + 1i`.
    pub const I: Cplx = I;

    /// Builds a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Builds `r·e^{iθ}` — the paper's canonical sample form (§5.1).
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Cplx::new(r * c, r * s)
    }

    /// Unit phasor `e^{iθ}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Cplx::from_polar(1.0, theta)
    }

    /// Magnitude `|z|` (the paper's `|y[n]|`).
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` — the instantaneous *energy* of a sample
    /// (§7.1 footnote: "The energy of a complex sample A·e^{iθ} is A²").
    ///
    /// Fused multiply-add: one rounding step fewer than
    /// `re·re + im·im`, and one instruction on FMA hardware. This is
    /// the innermost operation of the energy detector (§7.1) and of
    /// Lemma 6.1's `|y[n]|²` term.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re.mul_add(self.re, self.im * self.im)
    }

    /// Argument (phase angle) in `(-π, π]` — the paper's `arg(x)`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `true` exactly when `self.arg() >= 0.0` would be, without the
    /// `atan2` in all but a sliver of the plane.
    ///
    /// Off that sliver the argument's sign is the sign bit of `im`:
    /// for `re ≤ 0` `atan2` lies in `[−π, −π/2]` or `[π/2, π]` (`±π`
    /// on the negative real axis, by the sign of `im`'s zero), and for
    /// `re > 0` with `|im/re| > 1e-300` it is a normal angle of `im`'s
    /// sign. The sliver `|im|·1e300 ≤ re` — the
    /// positive real axis with its signed zeros, quotients whose tiny
    /// negative `im` makes `atan2` underflow to `−0.0`, and `re = +∞` —
    /// is left to `atan2` itself. NaN components yield `false` (`arg`
    /// would be NaN, and `NaN >= 0.0` is false) — the explicit NaN
    /// sentinel the §6.4 bit decision and the MSK hard demodulator rely
    /// on.
    #[inline]
    pub fn arg_is_non_negative(self) -> bool {
        if self.im.abs() * 1e300 <= self.re {
            return self.arg() >= 0.0;
        }
        // `&`, not `&&`: the sign of a random bit stream must not cost
        // a mispredicted branch.
        self.im.is_sign_positive() & !self.im.is_nan() & !self.re.is_nan()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx::new(self.re, -self.im)
    }

    /// Multiplicative inverse. Returns an all-NaN value for zero input,
    /// mirroring `f64` division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sq();
        Cplx::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor (channel attenuation `h`, §5.3).
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Cplx::new(self.re * k, self.im * k)
    }

    /// Rotates by angle `theta` (channel phase shift `γ`, §5.3).
    #[inline]
    pub fn rotate(self, theta: f64) -> Self {
        self * Cplx::cis(theta)
    }

    /// `true` when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Euclidean distance to another sample.
    #[inline]
    pub fn dist(self, other: Cplx) -> f64 {
        (self - other).norm()
    }

    /// Mean of a slice of samples; zero for an empty slice.
    pub fn mean(samples: &[Cplx]) -> Cplx {
        if samples.is_empty() {
            return ZERO;
        }
        let sum: Cplx = samples.iter().copied().sum();
        sum.scale(1.0 / samples.len() as f64)
    }

    /// Average energy `E[|z|²]` of a slice; zero for an empty slice.
    ///
    /// This is the estimator behind Eq. 5 of the paper:
    /// `µ = (1/N)·Σ|y[n]|² = A² + B²`.
    pub fn mean_energy(samples: &[Cplx]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().map(|s| s.norm_sq()).sum::<f64>() / samples.len() as f64
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    #[inline]
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cplx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        // Each component is a fused multiply-accumulate — two roundings
        // instead of three per component, one FMA + one MUL on hardware.
        // This is the workhorse of `rotate` and of the Lemma-6.1 kernel.
        Cplx::new(
            self.im.mul_add(-rhs.im, self.re * rhs.re),
            self.im.mul_add(rhs.re, self.re * rhs.im),
        )
    }
}

impl MulAssign for Cplx {
    #[inline]
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Mul<Cplx> for f64 {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        rhs.scale(self)
    }
}

impl Div for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, rhs: Cplx) -> Cplx {
        // The MSK demodulator (Eq. 1) computes the ratio of consecutive
        // samples; this is its workhorse. Numerators use fused
        // multiply-accumulate, as in `Mul`.
        let d = rhs.norm_sq();
        Cplx::new(
            self.im.mul_add(rhs.im, self.re * rhs.re) / d,
            self.im.mul_add(rhs.re, -(self.re * rhs.im)) / d,
        )
    }
}

impl DivAssign for Cplx {
    #[inline]
    fn div_assign(&mut self, rhs: Cplx) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, rhs: f64) -> Cplx {
        Cplx::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl From<f64> for Cplx {
    #[inline]
    fn from(re: f64) -> Cplx {
        Cplx::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Cplx {
    #[inline]
    fn from((re, im): (f64, f64)) -> Cplx {
        Cplx::new(re, im)
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const EPS: f64 = 1e-12;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn construction_and_polar_roundtrip() {
        let z = Cplx::from_polar(3.0, 0.7);
        assert!(close(z.norm(), 3.0));
        assert!(close(z.arg(), 0.7));
    }

    #[test]
    fn polar_negative_angle() {
        let z = Cplx::from_polar(1.5, -2.0);
        assert!(close(z.arg(), -2.0));
        assert!(close(z.norm(), 1.5));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Cplx::new(1.25, -0.5);
        assert_eq!(z + ZERO, z);
        assert_eq!(z * ONE, z);
        assert_eq!(z - z, ZERO);
        assert!((z * z.recip() - ONE).norm() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(((I * I) - Cplx::new(-1.0, 0.0)).norm() < EPS);
    }

    #[test]
    fn division_matches_multiplication_by_inverse() {
        let a = Cplx::new(2.0, 3.0);
        let b = Cplx::new(-1.0, 0.5);
        assert!(((a / b) - (a * b.recip())).norm() < 1e-12);
    }

    #[test]
    fn ratio_of_equal_magnitude_phasors_is_phase_difference() {
        // Eq. 1 of the paper: the ratio of consecutive constant-amplitude
        // samples is e^{iΔθ}, independent of channel h and γ.
        let h = 0.37;
        let gamma = 1.1;
        let a = Cplx::from_polar(h * 2.0, 0.3 + gamma);
        let b = Cplx::from_polar(h * 2.0, 0.3 + FRAC_PI_2 + gamma);
        let r = b / a;
        assert!(close(r.arg(), FRAC_PI_2));
        assert!(close(r.norm(), 1.0));
    }

    #[test]
    fn rotate_adds_phase() {
        let z = Cplx::from_polar(2.0, 0.4);
        let w = z.rotate(1.0);
        assert!(close(w.arg(), 1.4));
        assert!(close(w.norm(), 2.0));
    }

    #[test]
    fn conjugate_negates_argument() {
        let z = Cplx::from_polar(1.0, 0.9);
        assert!(close(z.conj().arg(), -0.9));
    }

    #[test]
    fn norm_sq_is_energy() {
        let z = Cplx::from_polar(3.0, 2.2);
        assert!(close(z.norm_sq(), 9.0));
    }

    #[test]
    fn mean_energy_of_constant_amplitude() {
        let samples: Vec<Cplx> = (0..100)
            .map(|n| Cplx::from_polar(2.0, n as f64 * 0.1))
            .collect();
        assert!(close(Cplx::mean_energy(&samples), 4.0));
    }

    #[test]
    fn mean_of_empty_slice_is_zero() {
        assert_eq!(Cplx::mean(&[]), ZERO);
        assert_eq!(Cplx::mean_energy(&[]), 0.0);
    }

    #[test]
    fn sum_superposes() {
        // Superposition is how the medium mixes Alice's and Bob's signals.
        let a = Cplx::from_polar(1.0, 0.0);
        let b = Cplx::from_polar(1.0, PI);
        assert!((a + b).norm() < EPS); // destructive
        let c = Cplx::from_polar(1.0, 0.0);
        assert!(close((a + c).norm(), 2.0)); // constructive
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Cplx::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Cplx::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn arg_sign_predicate_matches_atan2_everywhere() {
        // All sign/zero/infinity combinations of the axes, general
        // points, and points below the positive real axis so close to
        // it that atan2 underflows to −0.0 (which satisfies `>= 0.0`
        // although im < 0).
        let (inf, sub) = (f64::INFINITY, f64::from_bits(1));
        let vals = [
            -inf, -1e300, -2.0, -1.0, -1e-300, -sub, -0.0, 0.0, sub, 1e-300, 2.5, 3.0, 1e300, inf,
        ];
        for &re in &vals {
            for &im in &vals {
                let q = Cplx::new(re, im);
                assert_eq!(
                    q.arg_is_non_negative(),
                    q.arg() >= 0.0,
                    "q = {re:?}+{im:?}i (arg {:?})",
                    q.arg()
                );
            }
        }
        assert!(Cplx::new(inf, -1.0).arg_is_non_negative());
        assert!(Cplx::new(1e300, -1e-310).arg_is_non_negative());
        assert!(!Cplx::new(1.0, -sub).arg_is_non_negative());
        assert!(!Cplx::new(f64::NAN, 1.0).arg_is_non_negative());
        assert!(!Cplx::new(1.0, f64::NAN).arg_is_non_negative());
        assert!(!Cplx::new(f64::NAN, f64::NAN).arg_is_non_negative());
    }

    #[test]
    fn nan_and_finite_predicates() {
        assert!(Cplx::new(f64::NAN, 0.0).is_nan());
        assert!(!Cplx::new(1.0, 1.0).is_nan());
        assert!(Cplx::new(1.0, 1.0).is_finite());
        assert!(!Cplx::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn assign_ops() {
        let mut z = Cplx::new(1.0, 1.0);
        z += Cplx::new(1.0, 0.0);
        assert_eq!(z, Cplx::new(2.0, 1.0));
        z -= Cplx::new(0.0, 1.0);
        assert_eq!(z, Cplx::new(2.0, 0.0));
        z *= Cplx::I;
        assert!((z - Cplx::new(0.0, 2.0)).norm() < EPS);
        z /= Cplx::I;
        assert!((z - Cplx::new(2.0, 0.0)).norm() < EPS);
    }
}
