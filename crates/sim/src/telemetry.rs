//! Power telemetry: the instantaneous sensor and the averaging loggers.
//!
//! The paper's solution **S1** taps "a 1ms power logger available internally
//! at AMD on MI300X; each power sample is the average of multiple
//! instantaneous power readings in the last 1ms", and each log carries a
//! GPU timestamp (solution **S2**). [`AveragingPowerLogger`] reproduces that
//! contract exactly. The same type with a longer period/window models
//! external tools like `amd-smi` (challenge **C1**: tens-of-milliseconds
//! samplers miss sub-millisecond kernels entirely).
//!
//! The averaging behaviour is the root cause of the paper's power-variance
//! challenge (**C4**) and of the SSE/SSP profile split (**S4**): a short
//! kernel's power is blended with whatever idle time or other kernels share
//! its averaging window.

use crate::dvfs::PowerEstimate;
use crate::power::ComponentPower;
use crate::time::{GpuTicks, SimDuration, SimTime};

/// One emitted power log: a GPU-timestamped windowed average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLog {
    /// GPU timestamp-counter value at emission time.
    pub ticks: GpuTicks,
    /// Average component power over the trailing window, watts.
    pub avg: ComponentPower,
}

/// Telemetry cadence parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Instantaneous sensor sampling period.
    pub sensor_period: SimDuration,
    /// Emission period of the fine (internal) logger.
    pub logger_period: SimDuration,
    /// Averaging window of the fine logger.
    pub logger_window: SimDuration,
    /// Emission period of the coarse (`amd-smi`-like) logger.
    pub coarse_period: SimDuration,
    /// Averaging window of the coarse logger.
    pub coarse_window: SimDuration,
    /// If true, the full instantaneous power trace is recorded in the run
    /// trace (ground truth for tests; expensive for long experiments).
    pub record_instant_trace: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sensor_period: SimDuration::from_micros(20),
            logger_period: SimDuration::from_millis(1),
            logger_window: SimDuration::from_millis(1),
            coarse_period: SimDuration::from_millis(50),
            coarse_window: SimDuration::from_millis(50),
            record_instant_trace: false,
        }
    }
}

/// Sensor pushes between re-syncs of the PM window's running sum from the
/// exact fold (see [`SampleRing::pm_estimate`]).
const PM_RESYNC_PUSHES: u32 = 128;

/// One instantaneous sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSample {
    /// When the sensor sampled.
    pub t: SimTime,
    /// Per-component power, watts.
    pub power: ComponentPower,
    /// `power.total()`, computed once when the sample is taken.
    pub total: f64,
}

/// The sensor's recent history: one fixed-capacity ring of samples that
/// every trailing window reads.
///
/// The fine and coarse loggers average their slice of the ring when they
/// emit ([`AveragingPowerLogger::emit`]); the power-management window is a
/// cursor into the same ring that advances as samples age out, carrying a
/// running sum so a control tick reads its average in O(1).
///
/// The capacity is the smallest power of two that holds every sample of
/// the longest window: samples arrive at least one sensor period apart, so
/// a window of `W` holds at most `W / period + 1` of them.
///
/// # Examples
///
/// ```
/// use fingrav_sim::telemetry::SampleRing;
/// use fingrav_sim::power::ComponentPower;
/// use fingrav_sim::time::{SimDuration, SimTime};
///
/// let period = SimDuration::from_micros(20);
/// let mut ring = SampleRing::new(period, SimDuration::from_millis(1), SimDuration::from_millis(2));
/// assert_eq!(ring.capacity(), 128); // 2 ms / 20 us + 1 = 101 samples
/// for i in 1..=500 {
///     ring.push(SimTime::from_micros(i * 20), ComponentPower::new(300.0, 0.0, 0.0, 0.0));
/// }
/// assert_eq!(ring.len(), 128);
/// let estimate = ring.pm_estimate().expect("window holds samples");
/// assert!((estimate.avg_w - 300.0).abs() <= estimate.err_w);
/// assert_eq!(ring.pm_exact_average(), 300.0);
/// ```
#[derive(Debug, Clone)]
pub struct SampleRing {
    /// Grows to `mask + 1` samples, then wraps.
    buf: Vec<SensorSample>,
    mask: usize,
    /// Samples pushed so far: the newest lives at absolute index `head - 1`.
    head: usize,
    /// Minimum spacing of consecutive samples (the sensor period).
    period: SimDuration,
    pm: PmCursor,
}

/// The power-management window: the samples from `start` to the ring's
/// head, with a running sum of their totals.
#[derive(Debug, Clone)]
struct PmCursor {
    window: SimDuration,
    /// Absolute ring index of the oldest sample in the window.
    start: usize,
    /// Running sum of the window's totals, in push/prune order.
    sum: f64,
    /// Bound on the distance of `sum` from the real-number sum of the
    /// window: each update of `sum` rounds by at most half an ulp of its
    /// result, and this adds a whole one (`f64::EPSILON · |sum|`).
    err: f64,
    /// Samples in the window with a negative total. The fold's error
    /// bound below needs non-negative terms, so while one is present every
    /// estimate is unbounded.
    negative: usize,
    pushes_since_resync: u32,
}

impl PmCursor {
    fn add(&mut self, total: f64) {
        self.sum += total;
        self.err += f64::EPSILON * self.sum.abs();
        self.negative += usize::from(total < 0.0);
    }

    fn remove(&mut self, total: f64) {
        self.sum -= total;
        self.err += f64::EPSILON * self.sum.abs();
        self.negative -= usize::from(total < 0.0);
    }

    /// Restarts the running sum from an exact oldest-first fold of `n`
    /// samples, which lies within `γ(n-1) · sum` of the real sum.
    fn resync(&mut self, fold: f64, n: usize) {
        self.sum = fold;
        self.err = n as f64 * f64::EPSILON * fold.abs();
        self.pushes_since_resync = 0;
    }
}

impl SampleRing {
    /// Creates an empty ring for a sensor sampling every `sensor_period`,
    /// sized for trailing windows up to the longer of `longest_window` and
    /// `pm_window`, with the power-management cursor spanning `pm_window`.
    ///
    /// # Panics
    ///
    /// Panics if the sensor period is zero.
    pub fn new(
        sensor_period: SimDuration,
        longest_window: SimDuration,
        pm_window: SimDuration,
    ) -> Self {
        assert!(!sensor_period.is_zero(), "sensor period must be positive");
        let span = longest_window.max(pm_window).as_nanos() / sensor_period.as_nanos() + 1;
        let capacity = usize::try_from(span)
            .ok()
            .and_then(usize::checked_next_power_of_two)
            .unwrap_or(1 << (usize::BITS - 1));
        SampleRing {
            buf: Vec::new(),
            mask: capacity - 1,
            head: 0,
            period: sensor_period,
            pm: PmCursor {
                window: pm_window,
                start: 0,
                sum: 0.0,
                err: 0.0,
                negative: 0,
                pushes_since_resync: 0,
            },
        }
    }

    /// The fixed number of samples the ring retains.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of retained samples (at most [`SampleRing::capacity`]).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    fn at(&self, index: usize) -> &SensorSample {
        &self.buf[index & self.mask]
    }

    /// Records the sensor reading `power` taken at `t`.
    ///
    /// Samples must arrive in time order, at least one sensor period
    /// apart (gaps are fine): that spacing is what bounds how many samples
    /// a window can hold.
    pub fn push(&mut self, t: SimTime, power: ComponentPower) {
        debug_assert!(
            self.head == 0 || self.at(self.head - 1).t.saturating_add(self.period) <= t,
            "samples must arrive in time order, a sensor period apart"
        );
        // Age the PM window out first: the slot about to be overwritten
        // can still hold the window's oldest sample.
        let cutoff = t.saturating_sub(self.pm.window);
        while self.pm.start < self.head && self.at(self.pm.start).t < cutoff {
            let total = self.at(self.pm.start).total;
            self.pm.remove(total);
            self.pm.start += 1;
        }
        debug_assert!(self.head - self.pm.start < self.capacity());
        let sample = SensorSample {
            t,
            power,
            total: power.total(),
        };
        if self.buf.len() < self.capacity() {
            self.buf.push(sample);
        } else {
            let slot = self.head & self.mask;
            self.buf[slot] = sample;
        }
        self.head += 1;
        self.pm.add(sample.total);
        self.pm.pushes_since_resync += 1;
        if self.pm.pushes_since_resync >= PM_RESYNC_PUSHES {
            let fold = self.pm_fold();
            self.pm.resync(fold, self.head - self.pm.start);
        }
    }

    /// The retained samples later than `cutoff`, oldest first.
    fn after(&self, cutoff: SimTime) -> impl Iterator<Item = &SensorSample> + '_ {
        let (mut lo, mut hi) = (self.head - self.buf.len(), self.head);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.at(mid).t > cutoff {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo..self.head).map(move |i| self.at(i))
    }

    /// The power-management window, oldest first: every sample no older
    /// than the PM window before the newest one.
    pub fn pm_window(&self) -> impl Iterator<Item = &SensorSample> + '_ {
        (self.pm.start..self.head).map(move |i| self.at(i))
    }

    /// The exact oldest-first fold of the PM window's totals.
    fn pm_fold(&self) -> f64 {
        self.pm_window().map(|s| s.total).sum::<f64>()
    }

    /// The PM window average from the running sum, in O(1), with a bound
    /// on its distance from [`SampleRing::pm_exact_average`]; `None` while
    /// the window is empty (before the first sample).
    ///
    /// The bound: the running sum is within `err` of the window's real
    /// sum `S` (see the cursor), and the exact oldest-first fold of `n`
    /// non-negative terms is within `γ(n-1)·S ≤ n·ε/2·S` of it, so the two
    /// sums differ by at most `err + n·ε·(|sum| + err)`. Dividing each by
    /// `n` rounds once more. The estimate doubles the total to absorb the
    /// rounding of its own arithmetic. A window with a negative or
    /// non-finite total gets an infinite bound.
    pub fn pm_estimate(&self) -> Option<PowerEstimate> {
        let n = self.head - self.pm.start;
        if n == 0 {
            return None;
        }
        let n = n as f64;
        let avg_w = self.pm.sum / n;
        let err_w = if self.pm.negative > 0 || !self.pm.sum.is_finite() {
            f64::INFINITY
        } else {
            let sum_err = self.pm.err + n * f64::EPSILON * (self.pm.sum.abs() + self.pm.err);
            2.0 * (sum_err / n + f64::EPSILON * avg_w.abs())
        };
        Some(PowerEstimate { avg_w, err_w })
    }

    /// The PM window average as the exact oldest-first fold, the value
    /// every firmware decision is defined on (NaN while the window is
    /// empty). Also re-syncs the running sum from the fold.
    pub fn pm_exact_average(&mut self) -> f64 {
        let n = self.head - self.pm.start;
        let fold = self.pm_fold();
        self.pm.resync(fold, n);
        fold / n as f64
    }
}

/// A windowed-averaging power logger.
///
/// The hardware sensor never stops: its samples land in the
/// [`SampleRing`]. Logs are emitted on a fixed period *only while
/// enabled*; each log averages every ring sample in the trailing window.
///
/// # Examples
///
/// ```
/// use fingrav_sim::telemetry::{AveragingPowerLogger, SampleRing};
/// use fingrav_sim::power::ComponentPower;
/// use fingrav_sim::time::{GpuTicks, SimDuration, SimTime};
///
/// let window = SimDuration::from_millis(1);
/// let mut ring = SampleRing::new(SimDuration::from_micros(20), window, window);
/// let mut logger = AveragingPowerLogger::new(window);
/// logger.set_enabled(true);
/// for i in 0..50 {
///     let t = SimTime::from_micros(i * 20);
///     ring.push(t, ComponentPower::new(100.0, 0.0, 0.0, 0.0));
/// }
/// logger.emit(&ring, SimTime::from_millis(1), GpuTicks::from_raw(100_000));
/// let logs = logger.drain_logs();
/// assert_eq!(logs.len(), 1);
/// assert!((logs[0].avg.xcd - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct AveragingPowerLogger {
    window: SimDuration,
    enabled: bool,
    logs: Vec<PowerLog>,
}

impl AveragingPowerLogger {
    /// Creates a disabled logger with the given averaging window.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "averaging window must be positive");
        AveragingPowerLogger {
            window,
            enabled: false,
            logs: Vec::new(),
        }
    }

    /// The averaging window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Whether log emission is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables log emission (sampling continues regardless).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Emits a log at `t` (if enabled): the average of the ring's samples
    /// in `(t - window, t]`, summed oldest first, stamped with `ticks`.
    /// The ring must be sized for this logger's window. Returns the
    /// emitted log so streaming sessions can forward it the moment it
    /// exists (`None` when disabled or when no sample fell in the window).
    pub fn emit(&mut self, ring: &SampleRing, t: SimTime, ticks: GpuTicks) -> Option<PowerLog> {
        if !self.enabled {
            return None;
        }
        let mut sum = ComponentPower::ZERO;
        let mut n = 0u32;
        for s in ring
            .after(t.saturating_sub(self.window))
            .take_while(|s| s.t <= t)
        {
            sum += s.power;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let log = PowerLog {
            ticks,
            avg: sum / n as f64,
        };
        self.logs.push(log);
        Some(log)
    }

    /// Takes all logs emitted since the last drain.
    pub fn drain_logs(&mut self) -> Vec<PowerLog> {
        std::mem::take(&mut self.logs)
    }

    /// Number of undrained logs — the authoritative pending count. Use
    /// this (never a throwaway [`AveragingPowerLogger::drain_logs`]) to
    /// observe how many logs have accumulated: draining is destructive and
    /// streaming consumers rely on every drain being intentional.
    pub fn pending_logs(&self) -> usize {
        self.logs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: SimDuration = SimDuration::from_micros(20);

    fn w(x: f64) -> ComponentPower {
        ComponentPower::new(x, 0.0, 0.0, 0.0)
    }

    /// A ring sized for the default 1 ms logger and 2 ms PM windows.
    fn ring() -> SampleRing {
        SampleRing::new(
            PERIOD,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        )
    }

    fn logger_1ms() -> AveragingPowerLogger {
        let mut l = AveragingPowerLogger::new(SimDuration::from_millis(1));
        l.set_enabled(true);
        l
    }

    #[test]
    fn constant_input_averages_to_itself() {
        let (mut r, mut l) = (ring(), logger_1ms());
        for i in 0..=50 {
            r.push(SimTime::from_micros(i * 20), w(250.0));
        }
        let emitted = l.emit(&r, SimTime::from_millis(1), GpuTicks::from_raw(1));
        assert_eq!(l.pending_logs(), 1);
        let logs = l.drain_logs();
        assert_eq!(emitted, Some(logs[0]));
        assert!((logs[0].avg.xcd - 250.0).abs() < 1e-9);
        assert_eq!(logs[0].ticks, GpuTicks::from_raw(1));
    }

    #[test]
    fn window_blends_idle_and_busy() {
        // 30% of the window at 1000 W, 70% at 100 W -> ~370 W average.
        // This is exactly the paper's short-kernel blending effect.
        let (mut r, mut l) = (ring(), logger_1ms());
        for i in 0..50 {
            let t = SimTime::from_micros(i * 20);
            let p = if i >= 35 { w(1000.0) } else { w(100.0) };
            r.push(t, p);
        }
        l.emit(&r, SimTime::from_micros(999), GpuTicks::from_raw(0));
        let avg = l.drain_logs()[0].avg.xcd;
        assert!((avg - 370.0).abs() < 30.0, "avg {avg}");
    }

    #[test]
    fn disabled_logger_emits_nothing() {
        let mut r = ring();
        let mut l = AveragingPowerLogger::new(SimDuration::from_millis(1));
        r.push(SimTime::ZERO, w(10.0));
        assert_eq!(
            l.emit(&r, SimTime::from_millis(1), GpuTicks::from_raw(0)),
            None
        );
        assert_eq!(l.pending_logs(), 0);
    }

    #[test]
    fn samples_age_out_of_window() {
        let (mut r, mut l) = (ring(), logger_1ms());
        // Fill with high power, then a full window of low power.
        for i in 0..50 {
            r.push(SimTime::from_micros(i * 20), w(1000.0));
        }
        for i in 50..100 {
            r.push(SimTime::from_micros(i * 20), w(100.0));
        }
        l.emit(&r, SimTime::from_micros(99 * 20), GpuTicks::from_raw(0));
        let avg = l.drain_logs()[0].avg.xcd;
        assert!(
            (avg - 100.0).abs() < 25.0,
            "old samples must have aged out, avg {avg}"
        );
        // Retained samples are bounded by the ring's fixed capacity: the
        // smallest power of two holding a 2 ms window of 20 us samples.
        for i in 100..1_000 {
            r.push(SimTime::from_micros(i * 20), w(100.0));
        }
        assert_eq!(r.capacity(), 128);
        assert_eq!(r.len(), r.capacity());
    }

    #[test]
    fn emit_without_samples_is_skipped() {
        let (r, mut l) = (ring(), logger_1ms());
        assert_eq!(
            l.emit(&r, SimTime::from_millis(5), GpuTicks::from_raw(0)),
            None
        );
        assert_eq!(l.pending_logs(), 0);
    }

    #[test]
    fn drain_clears_logs() {
        let (mut r, mut l) = (ring(), logger_1ms());
        r.push(SimTime::from_nanos(1), w(10.0));
        assert!(l
            .emit(&r, SimTime::from_nanos(1), GpuTicks::from_raw(0))
            .is_some());
        assert_eq!(l.pending_logs(), 1);
        assert_eq!(l.drain_logs().len(), 1);
        assert_eq!(l.pending_logs(), 0);
        assert!(l.drain_logs().is_empty());
    }

    #[test]
    fn multiple_components_average_independently() {
        let (mut r, mut l) = (ring(), logger_1ms());
        r.push(
            SimTime::from_micros(10),
            ComponentPower::new(10.0, 20.0, 30.0, 40.0),
        );
        r.push(
            SimTime::from_micros(30),
            ComponentPower::new(30.0, 40.0, 50.0, 60.0),
        );
        l.emit(&r, SimTime::from_micros(40), GpuTicks::from_raw(0));
        let avg = l.drain_logs()[0].avg;
        assert!((avg.xcd - 20.0).abs() < 1e-9);
        assert!((avg.iod - 30.0).abs() < 1e-9);
        assert!((avg.hbm - 40.0).abs() < 1e-9);
        assert!((avg.rest - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = AveragingPowerLogger::new(SimDuration::ZERO);
    }

    #[test]
    fn capacity_covers_the_longest_window() {
        // 50 ms of 20 us samples is 2,501 samples: the next power of two.
        let r = SampleRing::new(
            PERIOD,
            SimDuration::from_millis(50),
            SimDuration::from_millis(2),
        );
        assert_eq!(r.capacity(), 4096);
        // The PM window sizes the ring when it is the longest.
        let r = SampleRing::new(
            PERIOD,
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        assert_eq!(r.capacity(), 256);
    }

    #[test]
    fn pm_window_keeps_samples_no_older_than_the_window() {
        let mut r = ring();
        assert!(r.pm_estimate().is_none());
        for i in 1..=300 {
            r.push(SimTime::from_micros(i * 20), w(i as f64));
        }
        // Newest at 6000 us: the window is [4000, 6000] us, both ends in.
        let window: Vec<f64> = r.pm_window().map(|s| s.total).collect();
        assert_eq!(window.len(), 101);
        assert_eq!((window[0], window[100]), (200.0, 300.0));
        let exact = r.pm_exact_average();
        assert_eq!(exact, window.iter().sum::<f64>() / 101.0);
        let estimate = r.pm_estimate().unwrap();
        assert!((estimate.avg_w - exact).abs() <= estimate.err_w);
        assert!(estimate.err_w < 1e-9, "bound {}", estimate.err_w);
    }

    #[test]
    fn negative_totals_make_the_estimate_unbounded() {
        let mut r = ring();
        r.push(SimTime::from_micros(20), w(-5.0));
        r.push(SimTime::from_micros(40), w(10.0));
        assert_eq!(r.pm_estimate().unwrap().err_w, f64::INFINITY);
        // Once the negative sample ages out, the bound is finite again.
        r.push(SimTime::from_millis(3), w(10.0));
        assert!(r.pm_estimate().unwrap().err_w.is_finite());
    }
}
