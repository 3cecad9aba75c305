//! Simulation time primitives.
//!
//! All simulator state advances on a single global timeline measured in
//! nanoseconds since the simulation epoch ([`SimTime`]). The *observable*
//! clocks — the host CPU wall clock ([`CpuTime`]) and the GPU timestamp
//! counter ([`GpuTicks`]) — are derived views of this timeline produced by
//! [`crate::clock`]. Methodology code (the `fingrav-core` crate) must never
//! touch `SimTime`; it only ever sees `CpuTime` and `GpuTicks`, exactly like
//! code running on real hardware.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Absolute simulation time in nanoseconds since the simulation epoch.
///
/// This is the simulator's private ground-truth timeline. It is totally
/// ordered and never wraps in practice (2^64 ns ≈ 584 years).
///
/// # Examples
///
/// ```
/// use fingrav_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time in nanoseconds.
///
/// # Examples
///
/// ```
/// use fingrav_sim::time::SimDuration;
///
/// let d = SimDuration::from_millis(1);
/// assert_eq!(d.as_micros_f64(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds since the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds since the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (lossy; fine for power math).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since: earlier > self");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// `self - d`, saturating at [`SimTime::ZERO`].
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Milliseconds as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "mul_f64: negative factor");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 * 1e-6)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 * 1e-6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 * 1e-3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// CPU wall-clock time in nanoseconds, as observed by host code.
///
/// This is what `clock_gettime` would return on the host. It differs from
/// [`SimTime`] by a constant (unknown to the methodology) offset.
///
/// # Examples
///
/// ```
/// use fingrav_sim::time::CpuTime;
///
/// let a = CpuTime::from_nanos(1_000);
/// let b = CpuTime::from_nanos(4_000);
/// assert_eq!(b.nanos_since(a), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuTime(u64);

impl CpuTime {
    /// Creates a CPU timestamp from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        CpuTime(ns)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Signed difference `self - earlier` in nanoseconds.
    #[inline]
    pub fn nanos_since(self, earlier: CpuTime) -> i64 {
        self.0 as i64 - earlier.0 as i64
    }

    /// `self + ns` (ns may be negative).
    #[inline]
    pub fn offset_nanos(self, ns: i64) -> CpuTime {
        CpuTime((self.0 as i64 + ns) as u64)
    }

    /// Fractional milliseconds since CPU epoch; convenient for plotting.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }
}

impl fmt::Display for CpuTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu:{:.3}ms", self.0 as f64 * 1e-6)
    }
}

/// A raw GPU timestamp-counter value, in ticks of the GPU reference clock.
///
/// On MI300X-class devices the counter ticks at 100 MHz (10 ns per tick).
/// Tick values are opaque to the methodology until converted to CPU time by
/// a calibrated [`fingrav-core` time sync](https://docs.rs). The conversion
/// parameters live in [`crate::clock::GpuClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GpuTicks(u64);

impl GpuTicks {
    /// Creates a tick value.
    #[inline]
    pub const fn from_raw(ticks: u64) -> Self {
        GpuTicks(ticks)
    }

    /// Raw tick count.
    #[inline]
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Signed tick difference `self - earlier`.
    #[inline]
    pub fn ticks_since(self, earlier: GpuTicks) -> i64 {
        self.0 as i64 - earlier.0 as i64
    }
}

impl fmt::Display for GpuTicks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu-ticks:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_micros(5);
        let d = SimDuration::from_nanos(123);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.as_nanos(), 5_000);
    }

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_millis(2), SimTime::from_micros(2_000));
        assert_eq!(SimTime::from_micros(3), SimTime::from_nanos(3_000));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(1e-6),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn duration_float_views() {
        let d = SimDuration::from_micros(1500);
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_micros_f64() - 1500.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn duration_mul_f64_rounds() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_nanos(1500));
        assert_eq!(d.mul_f64(0.0004), SimDuration::from_nanos(0));
        assert_eq!(d.mul_f64(0.0006), SimDuration::from_nanos(1));
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimDuration::from_nanos(5)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_nanos(5)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::from_nanos(3).saturating_duration_since(SimTime::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cputime_signed_difference() {
        let a = CpuTime::from_nanos(100);
        let b = CpuTime::from_nanos(40);
        assert_eq!(a.nanos_since(b), 60);
        assert_eq!(b.nanos_since(a), -60);
        assert_eq!(b.offset_nanos(60), a);
        assert_eq!(a.offset_nanos(-60), b);
    }

    #[test]
    fn gputicks_signed_difference() {
        let a = GpuTicks::from_raw(1000);
        let b = GpuTicks::from_raw(1500);
        assert_eq!(b.ticks_since(a), 500);
        assert_eq!(a.ticks_since(b), -500);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", SimTime::from_micros(1)).is_empty());
        assert!(!format!("{}", SimDuration::from_nanos(5)).is_empty());
        assert!(!format!("{}", SimDuration::from_micros(5)).is_empty());
        assert!(!format!("{}", SimDuration::from_millis(5)).is_empty());
        assert!(!format!("{}", CpuTime::from_nanos(5)).is_empty());
        assert!(!format!("{}", GpuTicks::from_raw(5)).is_empty());
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&n| SimDuration::from_nanos(n))
            .sum();
        assert_eq!(total, SimDuration::from_nanos(6));
    }
}
