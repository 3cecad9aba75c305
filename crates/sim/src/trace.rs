//! Run traces: everything the host observes, plus simulator ground truth.
//!
//! [`RunTrace`] is the boundary between the simulated world and the
//! methodology. Its *observable* half (timed executions in CPU time,
//! GPU-timestamped power logs, timestamp reads) is exactly the information
//! a real profiling harness would have. The [`GroundTruth`] half is the
//! simulator's omniscient record, available for validating the methodology
//! in tests — real hardware has no such oracle, which is the entire reason
//! the FinGraV methodology exists.
//!
//! Ground truth is recorded only on request
//! ([`crate::telemetry::TelemetryConfig::record_instant_trace`]). By
//! default its timelines stay empty and never allocate, so a methodology
//! session, which reads only the observable half, does not pay for it.

use crate::kernel::KernelHandle;
use crate::power::ComponentPower;
use crate::telemetry::PowerLog;
use crate::time::{CpuTime, GpuTicks, SimDuration, SimTime};

/// One CPU-side timed kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedExecution {
    /// The kernel that was launched.
    pub kernel: KernelHandle,
    /// Zero-based index of the execution within its launch burst.
    pub index: u32,
    /// CPU wall-clock time just before the launch was submitted.
    pub cpu_start: CpuTime,
    /// CPU wall-clock time just after completion was observed.
    pub cpu_end: CpuTime,
}

impl TimedExecution {
    /// CPU-observed execution time in nanoseconds (includes dispatch and
    /// completion overheads, as real host-side timing does).
    pub fn duration_ns(&self) -> u64 {
        self.cpu_end.nanos_since(self.cpu_start).max(0) as u64
    }
}

/// One CPU-initiated read of the GPU timestamp counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimestampRead {
    /// CPU time immediately before issuing the read.
    pub cpu_before: CpuTime,
    /// CPU time immediately after the read returned.
    pub cpu_after: CpuTime,
    /// The tick value returned.
    pub ticks: GpuTicks,
}

impl TimestampRead {
    /// Observed round-trip time of the read, nanoseconds.
    pub fn rtt_ns(&self) -> u64 {
        self.cpu_after.nanos_since(self.cpu_before).max(0) as u64
    }
}

/// Ground-truth record of one kernel execution on the simulation timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueExecution {
    /// The kernel that ran.
    pub kernel: KernelHandle,
    /// Execution start (simulation time).
    pub start: SimTime,
    /// Execution end (simulation time).
    pub end: SimTime,
    /// Index within the launch burst.
    pub index: u32,
    /// Executions since the device was last cold, at launch.
    pub execs_since_cold: u32,
    /// Whether the variation model drew an outlier.
    pub outlier: bool,
}

impl TrueExecution {
    /// Ground-truth duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Simulator-omniscient information for validating the methodology.
///
/// The three timelines are filled only when
/// [`crate::telemetry::TelemetryConfig::record_instant_trace`] is set;
/// otherwise they are empty `Vec`s with no capacity. `final_temp_c` is
/// always set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroundTruth {
    /// True kernel execution intervals.
    pub executions: Vec<TrueExecution>,
    /// Core-frequency changes: `(time, new MHz)`, starting with the
    /// frequency at script start.
    pub freq_changes: Vec<(SimTime, f64)>,
    /// Die temperature at the end of the script, °C.
    pub final_temp_c: f64,
    /// Instantaneous power at every sensor sample.
    pub instant_power: Vec<(SimTime, ComponentPower)>,
}

/// Everything produced by executing one [`crate::script::Script`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// CPU-side timed executions, in order.
    pub executions: Vec<TimedExecution>,
    /// GPU timestamp reads, in order.
    pub timestamp_reads: Vec<TimestampRead>,
    /// Fine (1 ms) power logs emitted while enabled.
    pub power_logs: Vec<PowerLog>,
    /// Coarse logs emitted while enabled.
    pub coarse_logs: Vec<PowerLog>,
    /// True when the script was cut short by a cooperative abort (see
    /// [`crate::session::AbortHandle`]): everything observed before the
    /// stop is present and well-formed, but the script did not finish.
    pub aborted: bool,
    /// Simulator ground truth (not available on real hardware).
    pub truth: GroundTruth,
}

impl RunTrace {
    /// CPU-observed execution durations in nanoseconds, in order.
    pub fn execution_durations_ns(&self) -> Vec<u64> {
        self.executions
            .iter()
            .map(TimedExecution::duration_ns)
            .collect()
    }

    /// The CPU time of the first launch, if any — the natural origin for
    /// run-relative plots.
    pub fn first_launch_cpu(&self) -> Option<CpuTime> {
        self.executions.first().map(|e| e.cpu_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_execution_duration() {
        let e = TimedExecution {
            kernel: KernelHandle::default(),
            index: 0,
            cpu_start: CpuTime::from_nanos(1_000),
            cpu_end: CpuTime::from_nanos(5_500),
        };
        assert_eq!(e.duration_ns(), 4_500);
    }

    #[test]
    fn timestamp_read_rtt() {
        let r = TimestampRead {
            cpu_before: CpuTime::from_nanos(10),
            cpu_after: CpuTime::from_nanos(1_510),
            ticks: GpuTicks::from_raw(42),
        };
        assert_eq!(r.rtt_ns(), 1_500);
    }

    #[test]
    fn true_execution_duration() {
        let e = TrueExecution {
            kernel: KernelHandle::default(),
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(110),
            index: 0,
            execs_since_cold: 2,
            outlier: false,
        };
        assert_eq!(e.duration(), SimDuration::from_micros(100));
    }

    #[test]
    fn run_trace_helpers() {
        let mut t = RunTrace::default();
        assert!(t.first_launch_cpu().is_none());
        assert!(t.execution_durations_ns().is_empty());
        t.executions.push(TimedExecution {
            kernel: KernelHandle::default(),
            index: 0,
            cpu_start: CpuTime::from_nanos(100),
            cpu_end: CpuTime::from_nanos(300),
        });
        t.executions.push(TimedExecution {
            kernel: KernelHandle::default(),
            index: 1,
            cpu_start: CpuTime::from_nanos(400),
            cpu_end: CpuTime::from_nanos(900),
        });
        assert_eq!(t.first_launch_cpu(), Some(CpuTime::from_nanos(100)));
        assert_eq!(t.execution_durations_ns(), vec![200, 500]);
    }
}
