//! CPU–GPU time synchronization (paper solution **S2**).
//!
//! The on-GPU power logger stamps each log with the GPU timestamp counter,
//! which is unrelated to the CPU clock that stamps kernel start/end events.
//! FinGraV bridges the domains by (1) benchmarking the delay of reading the
//! GPU counter from the CPU, (2) anchoring one counter read against the CPU
//! clock, and (3) converting every log's ticks into CPU time relative to
//! that anchor.
//!
//! A single anchor assumes the counter's nominal rate. Because real
//! oscillators drift by tens of ppm (an error the paper's related work
//! flags and defers), this module also offers **two-anchor sync**: reads
//! taken before and after the measurement window yield the *effective*
//! tick rate, cancelling drift to first order.

use fingrav_sim::time::CpuTime;
use fingrav_sim::trace::TimestampRead;

use crate::error::{MethodologyError, MethodologyResult};
use crate::stats::median_u64;

/// Calibration of the GPU-timestamp read path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadDelayCalibration {
    /// Median observed round-trip time of a read, nanoseconds.
    pub median_rtt_ns: u64,
    /// Assumed position of the actual counter sample inside the round trip
    /// (0.5 = midpoint, the best assumption absent other information).
    pub assumed_sample_frac: f64,
}

impl ReadDelayCalibration {
    /// Builds a calibration from repeated timestamp reads.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::InsufficientSyncData`] if `reads` is
    /// empty.
    pub fn from_reads(reads: &[TimestampRead]) -> MethodologyResult<Self> {
        let rtts: Vec<u64> = reads.iter().map(TimestampRead::rtt_ns).collect();
        let median_rtt_ns = median_u64(&rtts).ok_or(MethodologyError::InsufficientSyncData)?;
        Ok(ReadDelayCalibration {
            median_rtt_ns,
            assumed_sample_frac: 0.5,
        })
    }

    /// The estimated delay from issuing a read to the counter being
    /// sampled, nanoseconds.
    pub fn delay_ns(&self) -> f64 {
        self.median_rtt_ns as f64 * self.assumed_sample_frac
    }
}

/// A calibrated mapping from GPU ticks to CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSync {
    anchor_cpu_ns: f64,
    anchor_ticks: f64,
    ns_per_tick: f64,
}

impl TimeSync {
    /// Single-anchor sync: assumes the counter runs at exactly its nominal
    /// rate. Drift accumulates linearly with distance from the anchor.
    pub fn from_anchor(
        read: &TimestampRead,
        calibration: &ReadDelayCalibration,
        nominal_counter_hz: f64,
    ) -> Self {
        TimeSync {
            anchor_cpu_ns: read.cpu_before.as_nanos() as f64 + calibration.delay_ns(),
            anchor_ticks: read.ticks.as_raw() as f64,
            ns_per_tick: 1e9 / nominal_counter_hz,
        }
    }

    /// Two-anchor sync: derives the *effective* tick rate from two reads
    /// spanning the measurement window, cancelling oscillator drift to
    /// first order.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::InsufficientSyncData`] if the two reads
    /// saw the same counter value (zero baseline).
    pub fn from_two_anchors(
        first: &TimestampRead,
        last: &TimestampRead,
        calibration: &ReadDelayCalibration,
    ) -> MethodologyResult<Self> {
        let dticks = last.ticks.ticks_since(first.ticks);
        if dticks <= 0 {
            return Err(MethodologyError::InsufficientSyncData);
        }
        let cpu_first = first.cpu_before.as_nanos() as f64 + calibration.delay_ns();
        let cpu_last = last.cpu_before.as_nanos() as f64 + calibration.delay_ns();
        let ns_per_tick = (cpu_last - cpu_first) / dticks as f64;
        if !(ns_per_tick.is_finite() && ns_per_tick > 0.0) {
            return Err(MethodologyError::InsufficientSyncData);
        }
        Ok(TimeSync {
            anchor_cpu_ns: cpu_first,
            anchor_ticks: first.ticks.as_raw() as f64,
            ns_per_tick,
        })
    }

    /// The effective nanoseconds-per-tick this sync uses.
    pub fn ns_per_tick(&self) -> f64 {
        self.ns_per_tick
    }

    /// Converts a raw tick count to CPU nanoseconds (fractional).
    pub fn cpu_ns_of_ticks(&self, ticks: u64) -> f64 {
        self.anchor_cpu_ns + (ticks as f64 - self.anchor_ticks) * self.ns_per_tick
    }

    /// Converts a raw tick count to a [`CpuTime`] (rounded).
    pub fn cpu_time_of_ticks(&self, ticks: u64) -> CpuTime {
        CpuTime::from_nanos(self.cpu_ns_of_ticks(ticks).round().max(0.0) as u64)
    }

    /// Estimated counter drift in ppm relative to the nominal rate
    /// (positive = counter runs fast). Only meaningful for two-anchor sync.
    pub fn estimated_drift_ppm(&self, nominal_counter_hz: f64) -> f64 {
        let nominal_ns_per_tick = 1e9 / nominal_counter_hz;
        (nominal_ns_per_tick / self.ns_per_tick - 1.0) * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_sim::time::GpuTicks;

    fn read(cpu_before_ns: u64, rtt_ns: u64, ticks: u64) -> TimestampRead {
        TimestampRead {
            cpu_before: CpuTime::from_nanos(cpu_before_ns),
            cpu_after: CpuTime::from_nanos(cpu_before_ns + rtt_ns),
            ticks: GpuTicks::from_raw(ticks),
        }
    }

    #[test]
    fn calibration_uses_median_rtt() {
        let reads = vec![
            read(0, 1_000, 0),
            read(10, 2_000, 0),
            read(20, 30_000, 0), // one outlier read
        ];
        let c = ReadDelayCalibration::from_reads(&reads).unwrap();
        assert_eq!(c.median_rtt_ns, 2_000);
        assert!((c.delay_ns() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_rejects_empty() {
        assert!(matches!(
            ReadDelayCalibration::from_reads(&[]),
            Err(MethodologyError::InsufficientSyncData)
        ));
    }

    #[test]
    fn single_anchor_maps_ticks_linearly() {
        let c = ReadDelayCalibration {
            median_rtt_ns: 1_000,
            assumed_sample_frac: 0.5,
        };
        // 100 MHz counter: 10 ns per tick. Anchor: cpu 10_500 at tick 1000.
        let sync = TimeSync::from_anchor(&read(10_000, 1_000, 1_000), &c, 100e6);
        assert!((sync.cpu_ns_of_ticks(1_000) - 10_500.0).abs() < 1e-9);
        assert!((sync.cpu_ns_of_ticks(1_100) - 11_500.0).abs() < 1e-9);
        assert!((sync.cpu_ns_of_ticks(900) - 9_500.0).abs() < 1e-9);
        assert_eq!(sync.cpu_time_of_ticks(1_100), CpuTime::from_nanos(11_500));
    }

    #[test]
    fn two_anchor_recovers_drifted_rate() {
        let c = ReadDelayCalibration {
            median_rtt_ns: 0,
            assumed_sample_frac: 0.5,
        };
        // True rate: 100 MHz + 50 ppm -> over 1 s the counter gains 5000
        // ticks beyond nominal.
        let true_hz = 100e6 * (1.0 + 50e-6);
        let t0 = 1_000_000u64;
        let t1 = t0 + 1_000_000_000; // 1 s later
        let ticks0 = 500_000u64;
        let ticks1 = ticks0 + true_hz as u64;
        let sync =
            TimeSync::from_two_anchors(&read(t0, 0, ticks0), &read(t1, 0, ticks1), &c).unwrap();
        let drift = sync.estimated_drift_ppm(100e6);
        assert!((drift - 50.0).abs() < 1.0, "estimated drift {drift} ppm");
        // Mapping the far anchor back is exact.
        assert!((sync.cpu_ns_of_ticks(ticks1) - t1 as f64).abs() < 1.0);
    }

    #[test]
    fn single_anchor_accumulates_drift_error() {
        let c = ReadDelayCalibration {
            median_rtt_ns: 0,
            assumed_sample_frac: 0.5,
        };
        let true_hz = 100e6 * (1.0 + 50e-6);
        let t0 = 0u64;
        let ticks0 = 0u64;
        let one_second_ticks = true_hz as u64;
        let single = TimeSync::from_anchor(&read(t0, 0, ticks0), &c, 100e6);
        // After 1 s, nominal-rate conversion is off by ~50 us.
        let err = single.cpu_ns_of_ticks(one_second_ticks) - 1e9;
        assert!(err.abs() > 40_000.0, "drift error {err} ns should be large");
    }

    #[test]
    fn two_anchor_rejects_zero_span() {
        let c = ReadDelayCalibration {
            median_rtt_ns: 0,
            assumed_sample_frac: 0.5,
        };
        let r = read(0, 0, 100);
        assert!(TimeSync::from_two_anchors(&r, &r, &c).is_err());
        // Backwards ticks also rejected.
        assert!(TimeSync::from_two_anchors(&read(0, 0, 200), &read(10, 0, 100), &c).is_err());
    }

    #[test]
    fn cpu_time_clamps_negative() {
        let c = ReadDelayCalibration {
            median_rtt_ns: 0,
            assumed_sample_frac: 0.5,
        };
        let sync = TimeSync::from_anchor(&read(100, 0, 1_000_000), &c, 100e6);
        // Ticks far before the anchor would map to negative CPU time.
        assert_eq!(sync.cpu_time_of_ticks(0), CpuTime::from_nanos(0));
    }
}
