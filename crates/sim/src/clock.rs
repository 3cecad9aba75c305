//! CPU and GPU clock domains.
//!
//! Challenge **C2** of the paper exists because the GPU's power logger tags
//! samples with the *GPU timestamp counter* while kernel scheduling events
//! are observed in *CPU wall-clock time*. These two clocks disagree by an
//! offset, run at different nominal rates, and drift relative to each other
//! over time (the paper's related-work section calls out drift that Lang
//! et al. did not fully correct for).
//!
//! This module derives both observable clocks from the private simulation
//! timeline so that the sync machinery in `fingrav-core` has a genuine
//! disagreement to calibrate away.

use crate::time::{CpuTime, GpuTicks, SimTime};

/// The host CPU wall clock.
///
/// Modelled as the simulation timeline shifted by a constant boot offset.
/// The methodology never learns the offset; it only ever compares CPU
/// timestamps with each other.
///
/// # Examples
///
/// ```
/// use fingrav_sim::clock::CpuClock;
/// use fingrav_sim::time::SimTime;
///
/// let clock = CpuClock::new(1_000_000);
/// let t = clock.now(SimTime::from_nanos(500));
/// assert_eq!(t.as_nanos(), 1_000_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuClock {
    boot_offset_ns: u64,
}

impl CpuClock {
    /// Creates a CPU clock whose epoch precedes the simulation epoch by
    /// `boot_offset_ns` nanoseconds.
    pub fn new(boot_offset_ns: u64) -> Self {
        CpuClock { boot_offset_ns }
    }

    /// The CPU wall-clock reading at simulation instant `t`.
    #[inline]
    pub fn now(&self, t: SimTime) -> CpuTime {
        CpuTime::from_nanos(self.boot_offset_ns + t.as_nanos())
    }

    /// Inverse of [`CpuClock::now`]; simulator-internal only.
    #[inline]
    pub fn to_sim(&self, t: CpuTime) -> SimTime {
        SimTime::from_nanos(t.as_nanos() - self.boot_offset_ns)
    }
}

/// The GPU timestamp counter.
///
/// Ticks at `nominal_hz` (100 MHz on MI300X-class hardware) but its
/// oscillator is off by `drift_ppm` parts per million relative to the CPU
/// clock, and it started counting at an arbitrary point before the
/// simulation epoch. Both imperfections are what the FinGraV sync step must
/// calibrate out.
///
/// # Examples
///
/// ```
/// use fingrav_sim::clock::GpuClock;
/// use fingrav_sim::time::SimTime;
///
/// // 100 MHz counter, no drift, zero epoch offset: 10 ns per tick.
/// let clock = GpuClock::new(100_000_000.0, 0.0, 0);
/// let ticks = clock.ticks_at(SimTime::from_nanos(1_000));
/// assert_eq!(ticks.as_raw(), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuClock {
    nominal_hz: f64,
    drift_ppm: f64,
    epoch_offset_ticks: u64,
}

impl GpuClock {
    /// Creates a GPU clock.
    ///
    /// * `nominal_hz` — counter frequency as labelled (what documentation
    ///   and conversion software assume).
    /// * `drift_ppm` — true oscillator error in parts per million; positive
    ///   means the counter runs fast relative to the CPU clock.
    /// * `epoch_offset_ticks` — counter value at the simulation epoch.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_hz` is not strictly positive.
    pub fn new(nominal_hz: f64, drift_ppm: f64, epoch_offset_ticks: u64) -> Self {
        assert!(nominal_hz > 0.0, "GPU counter frequency must be positive");
        GpuClock {
            nominal_hz,
            drift_ppm,
            epoch_offset_ticks,
        }
    }

    /// Nominal counter frequency in Hz.
    #[inline]
    pub fn nominal_hz(&self) -> f64 {
        self.nominal_hz
    }

    /// True drift in parts per million (simulator ground truth; hidden from
    /// the methodology, which must estimate it).
    #[inline]
    pub fn drift_ppm(&self) -> f64 {
        self.drift_ppm
    }

    /// Nominal nanoseconds per tick, as conversion software would assume.
    #[inline]
    pub fn nominal_ns_per_tick(&self) -> f64 {
        1e9 / self.nominal_hz
    }

    /// Counter value at simulation instant `t`.
    #[inline]
    pub fn ticks_at(&self, t: SimTime) -> GpuTicks {
        let true_hz = self.nominal_hz * (1.0 + self.drift_ppm * 1e-6);
        let ticks = (t.as_nanos() as f64) * 1e-9 * true_hz;
        GpuTicks::from_raw(self.epoch_offset_ticks + ticks.round() as u64)
    }

    /// Inverse of [`GpuClock::ticks_at`]; simulator-internal ground truth.
    #[inline]
    pub fn to_sim(&self, ticks: GpuTicks) -> SimTime {
        let true_hz = self.nominal_hz * (1.0 + self.drift_ppm * 1e-6);
        let rel = ticks.as_raw().saturating_sub(self.epoch_offset_ticks) as f64;
        SimTime::from_nanos((rel / true_hz * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn cpu_clock_offsets_sim_time() {
        let c = CpuClock::new(5_000);
        assert_eq!(c.now(SimTime::ZERO).as_nanos(), 5_000);
        assert_eq!(c.now(SimTime::from_micros(1)).as_nanos(), 6_000);
    }

    #[test]
    fn cpu_clock_roundtrip() {
        let c = CpuClock::new(123_456);
        let t = SimTime::from_micros(789);
        assert_eq!(c.to_sim(c.now(t)), t);
    }

    #[test]
    fn gpu_clock_nominal_rate() {
        let g = GpuClock::new(100e6, 0.0, 0);
        assert_eq!(g.ticks_at(SimTime::from_micros(1)).as_raw(), 100);
        assert_eq!(g.ticks_at(SimTime::from_millis(1)).as_raw(), 100_000);
        assert!((g.nominal_ns_per_tick() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_clock_epoch_offset_applied() {
        let g = GpuClock::new(100e6, 0.0, 7_000_000);
        assert_eq!(g.ticks_at(SimTime::ZERO).as_raw(), 7_000_000);
    }

    #[test]
    fn gpu_clock_positive_drift_runs_fast() {
        let no_drift = GpuClock::new(100e6, 0.0, 0);
        let fast = GpuClock::new(100e6, 50.0, 0);
        let t = SimTime::from_millis(1000);
        assert!(fast.ticks_at(t).as_raw() > no_drift.ticks_at(t).as_raw());
        // 50 ppm over 1 s of a 100 MHz counter is 5000 extra ticks.
        let extra = fast.ticks_at(t).as_raw() - no_drift.ticks_at(t).as_raw();
        assert_eq!(extra, 5_000);
    }

    #[test]
    fn gpu_clock_negative_drift_runs_slow() {
        let no_drift = GpuClock::new(100e6, 0.0, 0);
        let slow = GpuClock::new(100e6, -50.0, 0);
        let t = SimTime::from_millis(1000);
        assert!(slow.ticks_at(t).as_raw() < no_drift.ticks_at(t).as_raw());
    }

    #[test]
    fn gpu_clock_roundtrip_within_tick() {
        let g = GpuClock::new(100e6, 23.0, 42);
        let t = SimTime::from_micros(123_456);
        let back = g.to_sim(g.ticks_at(t));
        let err = back.as_nanos() as i64 - t.as_nanos() as i64;
        // Round trip is exact to within one 10 ns tick.
        assert!(err.abs() <= 10, "round-trip error {err} ns");
    }

    #[test]
    fn gpu_clock_monotone() {
        let g = GpuClock::new(100e6, -200.0, 999);
        let mut last = 0;
        for i in 0..1000u64 {
            let t = SimTime::ZERO + SimDuration::from_micros(i * 37);
            let ticks = g.ticks_at(t).as_raw();
            assert!(ticks >= last);
            last = ticks;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gpu_clock_rejects_zero_freq() {
        let _ = GpuClock::new(0.0, 0.0, 0);
    }
}
