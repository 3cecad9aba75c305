//! The coarse-sampler baseline (challenge **C1**).
//!
//! External tools like `amd-smi` sample power at tens of milliseconds.
//! For sub-millisecond kernels such a sampler can "completely miss sampling
//! power for a given kernel" (paper Fig. 3a): most runs contribute zero
//! logs, and the few logs collected average the kernel with long idle
//! stretches. This baseline quantifies both failure modes.

use fingrav_core::backend::PowerBackend;
use fingrav_core::error::MethodologyResult;
use fingrav_sim::kernel::{KernelDesc, KernelHandle};

use crate::common::{collect_run, BaselineConfig};

/// What the coarse sampler managed to observe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseOutcome {
    /// Total runs executed.
    pub runs: u32,
    /// Runs during which the coarse logger emitted at least one sample.
    pub runs_with_any_log: u32,
    /// Total coarse logs collected.
    pub total_logs: u32,
    /// Mean total power over the collected logs, if any.
    pub mean_total_w: Option<f64>,
}

impl CoarseOutcome {
    /// Fraction of runs that produced no power sample at all.
    pub fn miss_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            1.0 - self.runs_with_any_log as f64 / self.runs as f64
        }
    }
}

/// Profiles a kernel with the coarse (amd-smi-like) sampler.
///
/// # Errors
///
/// Propagates backend errors.
pub fn profile<B: PowerBackend>(
    backend: &mut B,
    desc: &KernelDesc,
    cfg: &BaselineConfig,
) -> MethodologyResult<CoarseOutcome> {
    let kernel = backend.register_kernel(desc)?;
    profile_handle(backend, kernel, cfg)
}

/// Same as [`profile`] for an already-registered kernel.
///
/// # Errors
///
/// Propagates backend errors.
pub fn profile_handle<B: PowerBackend>(
    backend: &mut B,
    kernel: KernelHandle,
    cfg: &BaselineConfig,
) -> MethodologyResult<CoarseOutcome> {
    let mut runs_with_any_log = 0;
    let mut total_logs = 0u32;
    let mut power_sum = 0.0;
    for _ in 0..cfg.runs {
        let trace = collect_run(backend, kernel, cfg, false, true)?;
        if !trace.coarse_logs.is_empty() {
            runs_with_any_log += 1;
        }
        for log in &trace.coarse_logs {
            total_logs += 1;
            power_sum += log.avg.total();
        }
    }
    Ok(CoarseOutcome {
        runs: cfg.runs,
        runs_with_any_log,
        total_logs,
        mean_total_w: if total_logs > 0 {
            Some(power_sum / total_logs as f64)
        } else {
            None
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_sim::config::SimConfig;
    use fingrav_sim::engine::Simulation;
    use fingrav_sim::power::Activity;
    use fingrav_sim::time::SimDuration;

    fn short_kernel() -> KernelDesc {
        KernelDesc {
            name: "short".into(),
            base_exec: SimDuration::from_micros(50),
            freq_insensitive_frac: 0.2,
            activity: Activity::new(0.9, 0.5, 0.4),
            compute_utilization: 0.7,
            flops: 1.0,
            hbm_bytes: 1.0,
            llc_bytes: 1.0,
            workgroups: 64,
        }
    }

    #[test]
    fn coarse_sampler_misses_short_kernels() {
        let mut sim = Simulation::new(SimConfig::default(), 33).unwrap();
        let cfg = BaselineConfig {
            runs: 10,
            executions_per_run: 10,
            ..BaselineConfig::default()
        };
        let outcome = profile(&mut sim, &short_kernel(), &cfg).unwrap();
        assert_eq!(outcome.runs, 10);
        // A ~2 ms busy window against a 50 ms sampler: most runs see no log.
        assert!(
            outcome.miss_rate() > 0.5,
            "miss rate {} should be high",
            outcome.miss_rate()
        );
    }

    #[test]
    fn miss_rate_of_zero_runs_is_zero() {
        let o = CoarseOutcome {
            runs: 0,
            runs_with_any_log: 0,
            total_logs: 0,
            mean_total_w: None,
        };
        assert_eq!(o.miss_rate(), 0.0);
    }
}
