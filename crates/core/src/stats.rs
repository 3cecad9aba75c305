//! Small statistics helpers used across the methodology.

/// Arithmetic mean; `None` for an empty slice. The mean of finite values
/// is finite, even near `f64::MAX`.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    // Dividing first only where the sum overflows, so every finite mean
    // stays bit-identical to `sum / n`.
    if m.is_finite() || !xs.iter().all(|x| x.is_finite()) {
        Some(m)
    } else {
        Some(xs.iter().map(|x| x / n).sum())
    }
}

/// Population standard deviation; `None` for an empty slice. The
/// deviation of finite values is finite, even near `f64::MAX`.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let n = xs.len() as f64;
    let sd = (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n).sqrt();
    if sd.is_finite() || !xs.iter().all(|x| x.is_finite()) {
        return Some(sd);
    }
    // The squares overflow: measure halved deviations (which cannot
    // overflow) in units of the largest, so every finite result stays
    // bit-identical to the plain formula.
    let dev = |x: f64| 0.5 * x - 0.5 * m;
    let scale = xs.iter().map(|&x| dev(x).abs()).fold(0.0, f64::max);
    let var = xs.iter().map(|&x| (dev(x) / scale).powi(2)).sum::<f64>() / n;
    Some(2.0 * (scale * var.sqrt()))
}

/// Median (average of the middle two for even lengths); `None` if empty.
/// The average of two finite values is finite, even near `f64::MAX`.
///
/// Sorts by [`f64::total_cmp`], so NaN inputs never panic: negative NaNs
/// order below `-inf` and positive NaNs above `+inf`. A NaN therefore only
/// reaches the middle of the sorted slice — and poisons the result — when
/// NaNs make up enough of the input to span it; isolated NaNs at the
/// extremes leave the median finite.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        // Halving first only where the sum overflows, so every finite
        // midpoint stays bit-identical to `0.5 * (a + b)`.
        let (a, b) = (v[n / 2 - 1], v[n / 2]);
        let sum = a + b;
        if sum.is_finite() {
            0.5 * sum
        } else {
            0.5 * a + 0.5 * b
        }
    })
}

/// Integer-median convenience for nanosecond durations.
///
/// The even-length midpoint is computed as `lo + (hi - lo) / 2`, which
/// cannot overflow — raw device tick counters and absolute-epoch
/// nanosecond stamps routinely sit above `u64::MAX / 2`, where the naive
/// `(lo + hi) / 2` would wrap.
pub fn median_u64(xs: &[u64]) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        let (lo, hi) = (v[n / 2 - 1], v[n / 2]);
        lo + (hi - lo) / 2
    })
}

/// The `p`-quantile (0.0..=1.0) by linear interpolation; `None` if empty
/// or if `p` is NaN.
///
/// Sorts by [`f64::total_cmp`] (see [`median`] for the NaN placement):
/// NaNs never panic, they gather at the ends of the sorted slice —
/// positive NaNs above `+inf`, negative below `-inf` — so only quantiles
/// that land on (or interpolate across) a NaN come back NaN. Equal
/// neighbours return that value itself: `x * (1 - t) + x * t` can round
/// past `x`, and so past every sample.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || p.is_nan() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 1.0);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        Some(v[lo])
    } else {
        let t = pos - lo as f64;
        Some(v[lo] * (1.0 - t) + v[hi] * t)
    }
}

/// Relative difference `|a - b| / |b|`; `None` when `b` is zero.
///
/// The reference magnitude is `|b|`, so a negative reference yields the
/// same (non-negative) relative difference as its positive mirror:
/// `relative_diff(-110.0, -100.0) == relative_diff(110.0, 100.0)`.
pub fn relative_diff(a: f64, b: f64) -> Option<f64> {
    if b == 0.0 {
        None
    } else {
        Some((a - b).abs() / b.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        let sd = std_dev(&[2.0, 4.0]).unwrap();
        assert!((sd - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn mean_of_huge_values_does_not_overflow() {
        assert_eq!(mean(&[f64::MAX, f64::MAX]), Some(f64::MAX));
        assert_eq!(mean(&[-f64::MAX, -f64::MAX]), Some(-f64::MAX));
        assert_eq!(mean(&[f64::MAX, 0.5 * f64::MAX]), Some(0.75 * f64::MAX));
        // Finite sums keep their old bits; non-finite inputs their old results.
        assert_eq!(mean(&[0.1, 0.2, 0.3]), Some((0.1 + 0.2 + 0.3) / 3.0));
        assert_eq!(mean(&[f64::INFINITY, 1.0]), Some(f64::INFINITY));
        assert!(mean(&[f64::NEG_INFINITY, f64::INFINITY]).unwrap().is_nan());
    }

    #[test]
    fn std_dev_of_huge_values_does_not_overflow() {
        assert_eq!(std_dev(&[f64::MAX, f64::MAX]), Some(0.0));
        assert_eq!(std_dev(&[f64::MAX, -f64::MAX]), Some(f64::MAX));
        let sd = std_dev(&[f64::MAX, -f64::MAX, -f64::MAX]).unwrap();
        let want = f64::MAX * (8.0f64 / 9.0).sqrt();
        assert!(sd.is_finite() && (sd - want).abs() <= want * 1e-15, "{sd}");
        // Finite squares keep their old bits; non-finite inputs their old results.
        let xs = [1.0, 2.0, 4.0];
        let m: f64 = 7.0 / 3.0;
        let plain = (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / 3.0).sqrt();
        assert_eq!(std_dev(&xs), Some(plain));
        assert!(std_dev(&[f64::INFINITY, 1.0]).unwrap().is_nan());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_huge_values_does_not_overflow() {
        assert_eq!(median(&[f64::MAX, f64::MAX]), Some(f64::MAX));
        assert_eq!(median(&[-f64::MAX, -f64::MAX]), Some(-f64::MAX));
        assert_eq!(median(&[f64::MAX, 0.5 * f64::MAX]), Some(0.75 * f64::MAX));
        // Non-finite middles keep their old results.
        assert_eq!(median(&[f64::INFINITY, f64::INFINITY]), Some(f64::INFINITY));
        assert!(median(&[f64::NEG_INFINITY, f64::INFINITY])
            .unwrap()
            .is_nan());
    }

    #[test]
    fn median_u64_works() {
        assert_eq!(median_u64(&[30, 10, 20]), Some(20));
        assert_eq!(median_u64(&[10, 20]), Some(15));
        assert_eq!(median_u64(&[]), None);
    }

    #[test]
    fn median_u64_survives_values_above_half_range() {
        // Absolute-epoch stamps live near the top of the u64 range; the
        // naive (lo + hi) / 2 midpoint wraps here.
        assert_eq!(median_u64(&[u64::MAX, u64::MAX - 2]), Some(u64::MAX - 1));
        assert_eq!(median_u64(&[u64::MAX, u64::MAX]), Some(u64::MAX));
        let above_half = u64::MAX / 2 + 1;
        assert_eq!(
            median_u64(&[above_half, above_half + 2]),
            Some(above_half + 1)
        );
        // Odd lengths index straight into the sorted slice and were
        // never at risk; pin that they still work at the boundary.
        assert_eq!(median_u64(&[u64::MAX, 0, u64::MAX]), Some(u64::MAX));
    }

    #[test]
    fn median_and_quantile_tolerate_nans() {
        // A single NaN sorts to an extreme (total order) and must not
        // panic nor displace a finite median.
        assert_eq!(median(&[1.0, f64::NAN, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[-f64::NAN, 1.0, 2.0, 3.0]), Some(1.5));
        // All-NaN input stays NaN rather than aborting the process.
        assert!(median(&[f64::NAN, f64::NAN]).unwrap().is_nan());
        // Quantiles at the NaN-bearing extreme observe the NaN; interior
        // quantiles stay finite.
        let xs = [1.0, 2.0, 3.0, f64::NAN];
        assert!(quantile(&xs, 1.0).unwrap().is_nan());
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert!(quantile(&xs, 0.5).unwrap().is_finite());
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_of_equal_neighbours_is_that_value() {
        // Interpolating 0.1 with itself rounds to 0.10000000000000002,
        // above every sample.
        assert_eq!(quantile(&[0.1, 0.1, 0.1], 0.1), Some(0.1));
        for &x in &[0.1, 0.3, 1.0e-300, 7.7, 123_456.789, f64::MAX] {
            for &p in &[0.01, 0.1, 0.3, 0.5, 0.77, 0.99] {
                assert_eq!(quantile(&[x; 5], p), Some(x), "x = {x}, p = {p}");
                assert_eq!(quantile(&[-x, x, x, x], p.max(0.34)), Some(x));
            }
        }
        // Unequal neighbours still interpolate.
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
    }

    #[test]
    fn quantile_of_nan_p_is_none() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], f64::NAN), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], -f64::NAN), None);
        assert_eq!(quantile(&[], f64::NAN), None);
        // Out-of-range p still clamps to the ends.
        assert_eq!(quantile(&[1.0, 2.0, 3.0], -1.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], f64::INFINITY), Some(3.0));
    }

    #[test]
    fn relative_diff_basics() {
        assert_eq!(relative_diff(110.0, 100.0), Some(0.1));
        assert_eq!(relative_diff(90.0, 100.0), Some(0.1));
        assert_eq!(relative_diff(1.0, 0.0), None);
    }

    #[test]
    fn relative_diff_divides_by_reference_magnitude() {
        // Negative references divide by |b|: the result stays
        // non-negative and mirrors the positive-reference case.
        assert_eq!(relative_diff(-110.0, -100.0), Some(0.1));
        assert_eq!(relative_diff(-90.0, -100.0), Some(0.1));
        assert_eq!(relative_diff(110.0, -100.0), Some(2.1));
        assert_eq!(relative_diff(-0.0, 5.0), Some(1.0));
        // Signed zero is still zero.
        assert_eq!(relative_diff(1.0, -0.0), None);
    }
}
