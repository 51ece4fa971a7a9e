//! Unit helpers: decibel arithmetic and typed wrappers.
//!
//! Optical link budgets are naturally expressed in decibels while the signal
//! models work on linear power ratios; [`Db`] keeps the two domains from
//! being mixed up accidentally.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A power ratio expressed in decibels.
///
/// Positive values are gain, negative values are loss. Losses in the paper's
/// Table II are quoted as positive "loss" numbers; use [`Db::loss`] to build
/// those so the sign convention stays consistent.
///
/// ```
/// use albireo_photonics::units::Db;
/// let loss = Db::loss(3.0);
/// assert!((loss.linear() - 0.5012).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(f64);

impl Db {
    /// Zero decibels (unity gain).
    pub const ZERO: Db = Db(0.0);

    /// Creates a value directly in dB (positive = gain).
    pub fn new(db: f64) -> Db {
        Db(db)
    }

    /// Creates a *loss* of `db` decibels (stored as a negative gain).
    ///
    /// # Panics
    ///
    /// Panics if `db` is negative; a negative loss should be built with
    /// [`Db::new`] as an explicit gain instead.
    pub fn loss(db: f64) -> Db {
        assert!(db >= 0.0, "loss must be non-negative, got {db}");
        Db(-db)
    }

    /// Creates a `Db` from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive.
    pub fn from_linear(ratio: f64) -> Db {
        assert!(ratio > 0.0, "linear ratio must be positive, got {ratio}");
        Db(10.0 * ratio.log10())
    }

    /// The raw decibel value (positive = gain, negative = loss).
    pub fn db(self) -> f64 {
        self.0
    }

    /// The magnitude of the loss in dB (0 for gains).
    pub fn loss_db(self) -> f64 {
        (-self.0).max(0.0)
    }

    /// Converts to a linear power ratio.
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Applies this gain/loss to a power in watts.
    pub fn apply(self, power_w: f64) -> f64 {
        power_w * self.linear()
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, |acc, x| acc + x)
    }
}

/// Converts a RIN power spectral density in dBc/Hz to its linear value
/// (1/Hz).
pub fn rin_dbc_to_linear(rin_dbc_per_hz: f64) -> f64 {
    10f64.powf(rin_dbc_per_hz / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_db_is_half_power() {
        assert!((Db::loss(3.0103).linear() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn db_add_is_linear_multiply() {
        let a = Db::loss(1.2);
        let b = Db::loss(0.3);
        let combined = (a + b).linear();
        assert!((combined - a.linear() * b.linear()).abs() < 1e-12);
    }

    #[test]
    fn from_linear_round_trip() {
        for ratio in [0.001, 0.5, 1.0, 2.0, 1000.0] {
            let back = Db::from_linear(ratio).linear();
            assert!((back - ratio).abs() / ratio < 1e-12);
        }
    }

    #[test]
    fn loss_db_reports_magnitude() {
        assert_eq!(Db::loss(2.5).loss_db(), 2.5);
        assert_eq!(Db::new(4.0).loss_db(), 0.0);
    }

    #[test]
    fn apply_scales_power() {
        let p = Db::loss(10.0).apply(1e-3);
        assert!((p - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn rin_conversion() {
        let lin = rin_dbc_to_linear(-140.0);
        assert!((lin - 1e-14).abs() < 1e-20);
    }

    #[test]
    fn sum_of_losses() {
        let total: Db = [Db::loss(1.0), Db::loss(2.0), Db::loss(3.0)]
            .into_iter()
            .sum();
        assert!((total.db() + 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loss must be non-negative")]
    fn negative_loss_panics() {
        let _ = Db::loss(-1.0);
    }

    #[test]
    fn display_formats_db() {
        assert_eq!(Db::loss(1.5).to_string(), "-1.50 dB");
    }
}
