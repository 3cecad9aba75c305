//! Least-squares polynomial regression.
//!
//! The paper smooths stitched power profiles with linear-regression lines
//! (Fig. 7/10) and demonstrates run-count resiliency with "a linear
//! regression of degree four over the power data we get with 50 runs only"
//! (Fig. 5). This module implements exactly that: ordinary least squares
//! on a polynomial basis, solved by Gaussian elimination with partial
//! pivoting on the normal equations. Inputs are centred and scaled
//! internally for conditioning.

/// A fitted polynomial `y = c0 + c1·x̂ + … + ck·x̂^k` where `x̂` is the
/// internally normalized abscissa.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    coeffs: Vec<f64>,
    x_center: f64,
    x_scale: f64,
}

/// Errors from a regression attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer points than coefficients.
    Underdetermined,
    /// Input arrays differ in length.
    LengthMismatch,
    /// The normal equations were singular (e.g. all x identical).
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FitError::Underdetermined => "not enough points for the requested degree",
            FitError::LengthMismatch => "x and y lengths differ",
            FitError::Singular => "singular normal equations",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FitError {}

impl PolyFit {
    /// Fits a degree-`degree` polynomial to `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// * [`FitError::LengthMismatch`] if `xs.len() != ys.len()`;
    /// * [`FitError::Underdetermined`] if there are fewer than `degree + 1`
    ///   points;
    /// * [`FitError::Singular`] if the design matrix is rank-deficient.
    ///
    /// # Examples
    ///
    /// ```
    /// use fingrav_core::regression::PolyFit;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
    /// let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
    /// let fit = PolyFit::fit(&xs, &ys, 1)?;
    /// assert!((fit.eval(10.0) - 23.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn fit(xs: &[f64], ys: &[f64], degree: usize) -> Result<PolyFit, FitError> {
        if xs.len() != ys.len() {
            return Err(FitError::LengthMismatch);
        }
        let n_coeffs = degree + 1;
        if xs.len() < n_coeffs {
            return Err(FitError::Underdetermined);
        }

        // Normalize x for conditioning.
        let x_min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let x_max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x_center = 0.5 * (x_min + x_max);
        let spread = 0.5 * (x_max - x_min);
        let x_scale = if spread > 0.0 { spread } else { 1.0 };

        // Build the normal equations A^T A c = A^T y.
        let mut ata = vec![vec![0.0; n_coeffs]; n_coeffs];
        let mut aty = vec![0.0; n_coeffs];
        for (&x, &y) in xs.iter().zip(ys) {
            let xn = (x - x_center) / x_scale;
            let mut pow = vec![1.0; n_coeffs];
            for k in 1..n_coeffs {
                pow[k] = pow[k - 1] * xn;
            }
            for i in 0..n_coeffs {
                aty[i] += pow[i] * y;
                for j in 0..n_coeffs {
                    ata[i][j] += pow[i] * pow[j];
                }
            }
        }

        let coeffs = solve(ata, aty)?;
        Ok(PolyFit {
            coeffs,
            x_center,
            x_scale,
        })
    }

    /// Degree of the fitted polynomial.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the fit at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let xn = (x - self.x_center) / self.x_scale;
        // Horner's rule.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * xn + c)
    }

    /// Root-mean-square residual over a dataset.
    pub fn rms_residual(&self, xs: &[f64], ys: &[f64]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let ss: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (self.eval(x) - y).powi(2))
            .sum();
        (ss / xs.len() as f64).sqrt()
    }

    /// Samples the fitted curve at `n` evenly spaced points over `[lo, hi]`.
    pub fn sample(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![(lo, self.eval(lo))];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
// Index-based row elimination mirrors the textbook algorithm; iterator
// adaptors over split borrows of `a` would obscure it.
#[allow(clippy::needless_range_loop)] // textbook index form, see comment above
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, FitError> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite matrix entries")
            })
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return Err(FitError::Singular);
        }
        a.swap(col, pivot);
        b.swap(col, pivot);

        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Convenience: the paper's degree-4 smoothing fit.
///
/// # Errors
///
/// Same as [`PolyFit::fit`].
pub fn degree4(xs: &[f64], ys: &[f64]) -> Result<PolyFit, FitError> {
    PolyFit::fit(xs, ys, 4)
}

/// Convenience: a straight-line fit (the Fig. 7/10 regression lines).
///
/// # Errors
///
/// Same as [`PolyFit::fit`].
pub fn linear(xs: &[f64], ys: &[f64]) -> Result<PolyFit, FitError> {
    PolyFit::fit(xs, ys, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -1.5 + 4.0 * x).collect();
        let fit = linear(&xs, &ys).unwrap();
        for &x in &xs {
            assert!((fit.eval(x) - (-1.5 + 4.0 * x)).abs() < 1e-9);
        }
        assert!(fit.rms_residual(&xs, &ys) < 1e-9);
        assert_eq!(fit.degree(), 1);
    }

    #[test]
    fn recovers_exact_quartic() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.05).collect();
        let f = |x: f64| 2.0 - x + 0.5 * x.powi(2) - 0.1 * x.powi(3) + 0.02 * x.powi(4);
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let fit = degree4(&xs, &ys).unwrap();
        for &x in &xs {
            assert!((fit.eval(x) - f(x)).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn smooths_noise_toward_truth() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 100.0 + 0.5 * x + if i % 2 == 0 { 3.0 } else { -3.0 })
            .collect();
        let fit = linear(&xs, &ys).unwrap();
        // Fit should land near the noise-free line.
        assert!((fit.eval(100.0) - 150.0).abs() < 0.5);
    }

    #[test]
    fn handles_large_x_values() {
        // Nanosecond-scale abscissas (1e9-ish) must not break conditioning.
        let xs: Vec<f64> = (0..50).map(|i| 1.0e9 + i as f64 * 1.0e6).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 1e-9 * x).collect();
        let fit = degree4(&xs, &ys).unwrap();
        assert!(fit.rms_residual(&xs, &ys) < 1e-6);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            PolyFit::fit(&[1.0, 2.0], &[1.0], 1).unwrap_err(),
            FitError::LengthMismatch
        );
        assert_eq!(
            PolyFit::fit(&[1.0], &[1.0], 1).unwrap_err(),
            FitError::Underdetermined
        );
        // All x identical: singular beyond degree 0.
        assert_eq!(
            PolyFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0], 1).unwrap_err(),
            FitError::Singular
        );
    }

    #[test]
    fn sample_endpoints() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys = xs.clone();
        let fit = linear(&xs, &ys).unwrap();
        let pts = fit.sample(0.0, 9.0, 10);
        assert_eq!(pts.len(), 10);
        assert!((pts[0].0 - 0.0).abs() < 1e-12);
        assert!((pts[9].0 - 9.0).abs() < 1e-12);
        assert_eq!(fit.sample(0.0, 1.0, 0).len(), 0);
        assert_eq!(fit.sample(0.0, 1.0, 1).len(), 1);
    }

    #[test]
    fn display_for_errors() {
        assert!(!format!("{}", FitError::Singular).is_empty());
        assert!(!format!("{}", FitError::Underdetermined).is_empty());
        assert!(!format!("{}", FitError::LengthMismatch).is_empty());
    }
}
