//! Declarative host-side scripts.
//!
//! The FinGraV methodology is CPU-side instrumentation (paper step 2): it
//! sleeps, reads GPU timestamps, starts/stops the power logger, and launches
//! timed kernels. A [`Script`] captures that sequence so the methodology
//! crate can describe a profiling run without reaching into simulator
//! internals — the same description could drive real hardware.

use crate::kernel::KernelHandle;
use crate::time::SimDuration;

/// One host-side operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostOp {
    /// Sleep for a fixed duration.
    Sleep(SimDuration),
    /// Sleep for a uniformly random duration in `[min, max]` — FinGraV step
    /// 5 uses this to land power logs at unique times-of-interest.
    SleepUniform {
        /// Minimum sleep.
        min: SimDuration,
        /// Maximum sleep.
        max: SimDuration,
    },
    /// Read the GPU timestamp counter from the CPU, recording the CPU time
    /// before/after and the tick value (paper solution S2).
    ReadGpuTimestamp,
    /// Launch `executions` back-to-back synchronous executions of a kernel,
    /// timing each from the CPU side.
    LaunchTimed {
        /// The kernel to launch.
        kernel: KernelHandle,
        /// How many executions.
        executions: u32,
    },
    /// Enable emission of the fine (1 ms) power logger.
    StartPowerLogger,
    /// Disable the fine power logger.
    StopPowerLogger,
    /// Enable the coarse (amd-smi-like) logger.
    StartCoarseLogger,
    /// Disable the coarse logger.
    StopCoarseLogger,
    /// Mark the beginning of a profiling run: re-draws per-run state such as
    /// the memory-allocation time bias.
    BeginRun,
}

/// A sequence of host operations executed by [`crate::engine::Simulation`].
///
/// # Examples
///
/// ```
/// use fingrav_sim::script::Script;
/// use fingrav_sim::kernel::KernelHandle;
/// use fingrav_sim::time::SimDuration;
///
/// # let kernel = KernelHandle::default();
/// let script = Script::builder()
///     .begin_run()
///     .start_power_logger()
///     .read_gpu_timestamp()
///     .sleep_uniform(SimDuration::ZERO, SimDuration::from_millis(1))
///     .launch_timed(kernel, 8)
///     .stop_power_logger()
///     .build();
/// assert_eq!(script.ops().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Script {
    ops: Vec<HostOp>,
}

impl Script {
    /// Creates an empty script.
    pub fn new() -> Self {
        Script::default()
    }

    /// Starts building a script fluently.
    pub fn builder() -> ScriptBuilder {
        ScriptBuilder { ops: Vec::new() }
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[HostOp] {
        &self.ops
    }

    /// Total number of kernel executions the script will launch.
    pub fn total_executions(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                HostOp::LaunchTimed { executions, .. } => *executions,
                _ => 0,
            })
            .sum()
    }
}

impl From<Vec<HostOp>> for Script {
    fn from(ops: Vec<HostOp>) -> Self {
        Script { ops }
    }
}

/// Fluent builder for [`Script`].
#[derive(Debug, Clone)]
pub struct ScriptBuilder {
    ops: Vec<HostOp>,
}

impl ScriptBuilder {
    /// Appends a fixed sleep.
    pub fn sleep(mut self, d: SimDuration) -> Self {
        self.ops.push(HostOp::Sleep(d));
        self
    }

    /// Appends a uniformly random sleep in `[min, max]`.
    pub fn sleep_uniform(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.ops.push(HostOp::SleepUniform { min, max });
        self
    }

    /// Appends a GPU-timestamp read.
    pub fn read_gpu_timestamp(mut self) -> Self {
        self.ops.push(HostOp::ReadGpuTimestamp);
        self
    }

    /// Appends `executions` timed launches of `kernel`.
    pub fn launch_timed(mut self, kernel: KernelHandle, executions: u32) -> Self {
        self.ops.push(HostOp::LaunchTimed { kernel, executions });
        self
    }

    /// Enables the fine power logger.
    pub fn start_power_logger(mut self) -> Self {
        self.ops.push(HostOp::StartPowerLogger);
        self
    }

    /// Disables the fine power logger.
    pub fn stop_power_logger(mut self) -> Self {
        self.ops.push(HostOp::StopPowerLogger);
        self
    }

    /// Enables the coarse logger.
    pub fn start_coarse_logger(mut self) -> Self {
        self.ops.push(HostOp::StartCoarseLogger);
        self
    }

    /// Disables the coarse logger.
    pub fn stop_coarse_logger(mut self) -> Self {
        self.ops.push(HostOp::StopCoarseLogger);
        self
    }

    /// Marks a new profiling run.
    pub fn begin_run(mut self) -> Self {
        self.ops.push(HostOp::BeginRun);
        self
    }

    /// Appends an arbitrary operation.
    pub fn op(mut self, op: HostOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Finishes the script.
    pub fn build(self) -> Script {
        Script { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_order() {
        let k = KernelHandle::default();
        let s = Script::builder()
            .begin_run()
            .start_power_logger()
            .launch_timed(k, 3)
            .stop_power_logger()
            .build();
        assert!(matches!(s.ops()[0], HostOp::BeginRun));
        assert!(matches!(s.ops()[1], HostOp::StartPowerLogger));
        assert!(matches!(
            s.ops()[2],
            HostOp::LaunchTimed { executions: 3, .. }
        ));
        assert!(matches!(s.ops()[3], HostOp::StopPowerLogger));
    }

    #[test]
    fn total_executions_sums_launches() {
        let k = KernelHandle::default();
        let s = Script::builder()
            .launch_timed(k, 3)
            .sleep(SimDuration::from_micros(10))
            .launch_timed(k, 7)
            .build();
        assert_eq!(s.total_executions(), 10);
    }

    #[test]
    fn from_vec_roundtrip() {
        let ops = vec![HostOp::BeginRun, HostOp::ReadGpuTimestamp];
        let s = Script::from(ops.clone());
        assert_eq!(s.ops(), ops.as_slice());
    }

    #[test]
    fn empty_script_has_no_executions() {
        assert_eq!(Script::new().total_executions(), 0);
    }
}
