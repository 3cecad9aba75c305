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

use std::collections::VecDeque;

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

/// A windowed-averaging power logger.
///
/// Instantaneous samples are pushed continuously (the hardware sensor never
/// stops); logs are emitted on a fixed period *only while enabled*. Each
/// log averages every sample in the trailing window.
///
/// # Examples
///
/// ```
/// use fingrav_sim::telemetry::AveragingPowerLogger;
/// use fingrav_sim::power::ComponentPower;
/// use fingrav_sim::time::{GpuTicks, SimDuration, SimTime};
///
/// let mut logger = AveragingPowerLogger::new(SimDuration::from_millis(1));
/// logger.set_enabled(true);
/// for i in 0..50 {
///     let t = SimTime::from_micros(i * 20);
///     logger.push_sample(t, ComponentPower::new(100.0, 0.0, 0.0, 0.0));
/// }
/// logger.emit(SimTime::from_millis(1), GpuTicks::from_raw(100_000));
/// let logs = logger.drain_logs();
/// assert_eq!(logs.len(), 1);
/// assert!((logs[0].avg.xcd - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct AveragingPowerLogger {
    window: SimDuration,
    samples: VecDeque<(SimTime, ComponentPower)>,
    logs: Vec<PowerLog>,
    enabled: bool,
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
            samples: VecDeque::new(),
            logs: Vec::new(),
            enabled: false,
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

    /// Records an instantaneous sample at `t`, pruning samples that have
    /// aged out of the window.
    pub fn push_sample(&mut self, t: SimTime, power: ComponentPower) {
        debug_assert!(
            self.samples.back().is_none_or(|&(last, _)| last <= t),
            "samples must arrive in time order"
        );
        self.samples.push_back((t, power));
        let cutoff = t.saturating_sub(self.window);
        while let Some(&(front, _)) = self.samples.front() {
            if front < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Emits a log at `t` (if enabled): the average of all samples in
    /// `(t - window, t]`, stamped with `ticks`. Returns the emitted log so
    /// streaming sessions can forward it the moment it exists (`None` when
    /// disabled or when no sample fell in the window).
    pub fn emit(&mut self, t: SimTime, ticks: GpuTicks) -> Option<PowerLog> {
        if !self.enabled {
            return None;
        }
        let cutoff = t.saturating_sub(self.window);
        let mut sum = ComponentPower::ZERO;
        let mut n = 0u32;
        for &(st, p) in &self.samples {
            if st > cutoff && st <= t {
                sum += p;
                n += 1;
            }
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

    /// Number of retained instantaneous samples (bounded by window/period).
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> ComponentPower {
        ComponentPower::new(x, 0.0, 0.0, 0.0)
    }

    fn logger_1ms() -> AveragingPowerLogger {
        let mut l = AveragingPowerLogger::new(SimDuration::from_millis(1));
        l.set_enabled(true);
        l
    }

    #[test]
    fn constant_input_averages_to_itself() {
        let mut l = logger_1ms();
        for i in 0..=50 {
            l.push_sample(SimTime::from_micros(i * 20), w(250.0));
        }
        let emitted = l.emit(SimTime::from_millis(1), GpuTicks::from_raw(1));
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
        let mut l = logger_1ms();
        for i in 0..50 {
            let t = SimTime::from_micros(i * 20);
            let p = if i >= 35 { w(1000.0) } else { w(100.0) };
            l.push_sample(t, p);
        }
        l.emit(SimTime::from_micros(999), GpuTicks::from_raw(0));
        let avg = l.drain_logs()[0].avg.xcd;
        assert!((avg - 370.0).abs() < 30.0, "avg {avg}");
    }

    #[test]
    fn disabled_logger_emits_nothing() {
        let mut l = AveragingPowerLogger::new(SimDuration::from_millis(1));
        l.push_sample(SimTime::ZERO, w(10.0));
        assert_eq!(l.emit(SimTime::from_millis(1), GpuTicks::from_raw(0)), None);
        assert_eq!(l.pending_logs(), 0);
    }

    #[test]
    fn samples_age_out_of_window() {
        let mut l = logger_1ms();
        // Fill with high power, then a full window of low power.
        for i in 0..50 {
            l.push_sample(SimTime::from_micros(i * 20), w(1000.0));
        }
        for i in 50..100 {
            l.push_sample(SimTime::from_micros(i * 20), w(100.0));
        }
        l.emit(SimTime::from_micros(99 * 20), GpuTicks::from_raw(0));
        let avg = l.drain_logs()[0].avg.xcd;
        assert!(
            (avg - 100.0).abs() < 25.0,
            "old samples must have aged out, avg {avg}"
        );
        // Retained samples bounded.
        assert!(l.sample_count() <= 52);
    }

    #[test]
    fn emit_without_samples_is_skipped() {
        let mut l = logger_1ms();
        assert_eq!(l.emit(SimTime::from_millis(5), GpuTicks::from_raw(0)), None);
        assert_eq!(l.pending_logs(), 0);
    }

    #[test]
    fn drain_clears_logs() {
        let mut l = logger_1ms();
        l.push_sample(SimTime::from_nanos(1), w(10.0));
        assert!(l
            .emit(SimTime::from_nanos(1), GpuTicks::from_raw(0))
            .is_some());
        assert_eq!(l.pending_logs(), 1);
        assert_eq!(l.drain_logs().len(), 1);
        assert_eq!(l.pending_logs(), 0);
        assert!(l.drain_logs().is_empty());
    }

    #[test]
    fn multiple_components_average_independently() {
        let mut l = logger_1ms();
        l.push_sample(
            SimTime::from_micros(10),
            ComponentPower::new(10.0, 20.0, 30.0, 40.0),
        );
        l.push_sample(
            SimTime::from_micros(20),
            ComponentPower::new(30.0, 40.0, 50.0, 60.0),
        );
        l.emit(SimTime::from_micros(30), GpuTicks::from_raw(0));
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
}
