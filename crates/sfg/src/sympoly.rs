//! Polynomials in the Laplace variable `s` with symbolic coefficients.

use crate::sym::SymExpr;
use crate::SfgResult;
use adc_numerics::Poly;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A polynomial `Σ cₖ·sᵏ` whose coefficients are [`SymExpr`]s.
///
/// Trailing structural-zero coefficients are trimmed; the zero polynomial
/// has no coefficients.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SymPoly {
    coeffs: Vec<SymExpr>,
}

impl SymPoly {
    /// Creates a polynomial from ascending coefficients.
    pub fn new(coeffs: Vec<SymExpr>) -> Self {
        let mut p = SymPoly { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        SymPoly { coeffs: Vec::new() }
    }

    /// The constant polynomial 1.
    pub fn one() -> Self {
        SymPoly {
            coeffs: vec![SymExpr::one()],
        }
    }

    /// A constant (degree-0) polynomial.
    pub fn constant(c: SymExpr) -> Self {
        SymPoly::new(vec![c])
    }

    /// The monomial `s`.
    pub fn s() -> Self {
        SymPoly {
            coeffs: vec![SymExpr::zero(), SymExpr::one()],
        }
    }

    /// Ascending coefficients.
    pub fn coeffs(&self) -> &[SymExpr] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Structural zero test.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Structural one test.
    pub fn is_one(&self) -> bool {
        self.coeffs.len() == 1 && self.coeffs[0].is_one()
    }

    fn trim(&mut self) {
        while matches!(self.coeffs.last(), Some(c) if c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// Coefficient of `sᵏ` (structural zero beyond the stored degree).
    pub fn coeff(&self, k: usize) -> SymExpr {
        self.coeffs.get(k).cloned().unwrap_or_else(SymExpr::zero)
    }

    /// Scales every coefficient by `k`.
    pub fn scale(&self, k: &SymExpr) -> SymPoly {
        SymPoly::new(
            self.coeffs
                .iter()
                .map(|c| SymExpr::mul(c.clone(), k.clone()))
                .collect(),
        )
    }

    /// Evaluates to a numeric [`Poly`] with the given bindings.
    ///
    /// # Errors
    /// Propagates [`crate::SfgError::UnboundSymbol`].
    pub fn eval(&self, bindings: &HashMap<String, f64>) -> SfgResult<Poly> {
        let mut c = Vec::with_capacity(self.coeffs.len());
        for e in &self.coeffs {
            c.push(e.eval(bindings)?);
        }
        Ok(Poly::new(c))
    }

    /// Collects all symbols.
    pub fn symbols(&self) -> BTreeSet<String> {
        let mut s = BTreeSet::new();
        for c in &self.coeffs {
            c.collect_symbols(&mut s);
        }
        s
    }

    /// Total expression size across coefficients.
    pub fn size(&self) -> usize {
        self.coeffs.iter().map(SymExpr::size).sum()
    }
}

impl fmt::Display for SymPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            match k {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}·s")?,
                _ => write!(f, "{c}·s^{k}")?,
            }
            first = false;
        }
        Ok(())
    }
}

impl Add for &SymPoly {
    type Output = SymPoly;
    fn add(self, rhs: &SymPoly) -> SymPoly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        SymPoly::new(
            (0..n)
                .map(|k| SymExpr::add(self.coeff(k), rhs.coeff(k)))
                .collect(),
        )
    }
}

impl Sub for &SymPoly {
    type Output = SymPoly;
    fn sub(self, rhs: &SymPoly) -> SymPoly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        SymPoly::new(
            (0..n)
                .map(|k| SymExpr::add(self.coeff(k), SymExpr::negate(rhs.coeff(k))))
                .collect(),
        )
    }
}

impl Mul for &SymPoly {
    type Output = SymPoly;
    fn mul(self, rhs: &SymPoly) -> SymPoly {
        if self.is_zero() || rhs.is_zero() {
            return SymPoly::zero();
        }
        let mut c = vec![SymExpr::zero(); self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, b) in rhs.coeffs.iter().enumerate() {
                if b.is_zero() {
                    continue;
                }
                let term = SymExpr::mul(a.clone(), b.clone());
                c[i + j] = SymExpr::add(std::mem::take(&mut c[i + j]), term);
            }
        }
        SymPoly::new(c)
    }
}

impl Neg for &SymPoly {
    type Output = SymPoly;
    fn neg(self) -> SymPoly {
        SymPoly::new(
            self.coeffs
                .iter()
                .map(|c| SymExpr::negate(c.clone()))
                .collect(),
        )
    }
}

impl Add for SymPoly {
    type Output = SymPoly;
    fn add(self, rhs: SymPoly) -> SymPoly {
        &self + &rhs
    }
}

impl Sub for SymPoly {
    type Output = SymPoly;
    fn sub(self, rhs: SymPoly) -> SymPoly {
        &self - &rhs
    }
}

impl Mul for SymPoly {
    type Output = SymPoly;
    fn mul(self, rhs: SymPoly) -> SymPoly {
        &self * &rhs
    }
}

impl Neg for SymPoly {
    type Output = SymPoly;
    fn neg(self) -> SymPoly {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn rc_denominator() {
        // g + s·c
        let p = SymPoly::new(vec![SymExpr::sym("g"), SymExpr::sym("c")]);
        assert_eq!(p.degree(), Some(1));
        let num = p.eval(&bind(&[("g", 1e-3), ("c", 1e-9)])).unwrap();
        assert_eq!(num.coeffs(), &[1e-3, 1e-9]);
    }

    #[test]
    fn product_matches_numeric() {
        let a = SymPoly::new(vec![SymExpr::sym("x"), SymExpr::one()]); // x + s
        let b = SymPoly::new(vec![SymExpr::sym("y"), SymExpr::one()]); // y + s
        let p = &a * &b;
        let n = p.eval(&bind(&[("x", 2.0), ("y", 3.0)])).unwrap();
        // (2+s)(3+s) = 6 + 5s + s^2
        assert_eq!(n.coeffs(), &[6.0, 5.0, 1.0]);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = SymPoly::new(vec![SymExpr::sym("x"), SymExpr::sym("y")]);
        let b = SymPoly::s();
        let c = &(&a + &b) - &b;
        let bn = bind(&[("x", 1.5), ("y", -2.0)]);
        assert_eq!(c.eval(&bn).unwrap(), a.eval(&bn).unwrap());
    }

    #[test]
    fn zero_and_one() {
        assert!(SymPoly::zero().is_zero());
        assert!(SymPoly::one().is_one());
        assert!((&SymPoly::zero() * &SymPoly::s()).is_zero());
        let p = SymPoly::new(vec![SymExpr::zero(), SymExpr::zero()]);
        assert!(p.is_zero());
    }

    #[test]
    fn display_contains_s_powers() {
        let p = SymPoly::new(vec![SymExpr::sym("a"), SymExpr::zero(), SymExpr::sym("b")]);
        let s = p.to_string();
        assert!(s.contains("s^2"));
        assert!(!s.contains("s^1"));
        assert_eq!(SymPoly::zero().to_string(), "0");
    }

    #[test]
    fn symbols_union() {
        let p = SymPoly::new(vec![SymExpr::sym("a"), SymExpr::sym("b")]);
        let syms: Vec<_> = p.symbols().into_iter().collect();
        assert_eq!(syms, vec!["a", "b"]);
    }
}
