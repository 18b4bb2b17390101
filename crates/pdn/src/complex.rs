//! Minimal complex arithmetic used by the AC (phasor) solver.
//!
//! The workspace intentionally avoids an external complex-number dependency:
//! the solver needs only field arithmetic, magnitude, and a handful of
//! constructors, all of which fit comfortably here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use voltnoise_pdn::complex::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// # Examples
    ///
    /// ```
    /// use voltnoise_pdn::complex::Complex;
    /// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Complex::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// Magnitude (modulus) of the complex number.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex::abs`] when only ordering
    /// matters.
    #[inline]
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Multiplicative inverse.
    ///
    /// Returns non-finite components when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub(crate) fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by reciprocal multiplication is the standard complex
    // formula, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(1.5, -2.5);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z + (-z), Complex::ZERO));
    }

    #[test]
    fn multiplication_matches_polar() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, 1.1);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-12);
        assert!((p.arg() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex::new(4.0, -7.0);
        let b = Complex::new(-2.0, 0.5);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn recip_of_i_is_minus_i() {
        assert!(close(Complex::I.recip(), -Complex::I));
    }

    #[test]
    fn conj_properties() {
        let z = Complex::new(2.0, 3.0);
        assert_eq!(z.conj().conj(), z);
        let zz = z * z.conj();
        assert!((zz.im).abs() < 1e-12);
        assert!((zz.re - z.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn sum_folds() {
        let s: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert!(close(s, Complex::new(6.0, 4.0)));
    }
}
