//! The FinGraV runner: the paper's nine-step methodology, end to end.
//!
//! Given a kernel, the runner (numbers refer to paper Section IV-B):
//!
//! 1. times the kernel a few times to estimate its execution time and look
//!    up the guidance table (#runs, binning margin, LOI target);
//! 2. instruments runs with CPU-side timing, a GPU-timestamp read, and
//!    power-logger start/stop;
//! 3. detects the warm-up count — the SSE execution index;
//! 4. computes the SSP execution count from
//!    `max(ceil(window / exec), sse_execs)` and refines it with a
//!    power-stability probe (the paper's search under throttling);
//! 5. executes the runs, adding a random delay before each launch burst so
//!    logs land at unique times-of-interest;
//! 6. discards all but the *golden* runs via execution-time binning;
//! 7. synchronizes CPU–GPU time per run (single- or two-anchor);
//! 8. tops up runs if fewer LOIs were harvested than the guidance target;
//! 9. stitches LOIs/TOIs into the run, SSE, and SSP power profiles.

use fingrav_sim::kernel::{KernelDesc, KernelHandle};
use fingrav_sim::session::AbortHandle;
use fingrav_sim::time::SimDuration;
use fingrav_sim::trace::RunTrace;

use crate::backend::PowerBackend;
use crate::error::{MethodologyError, MethodologyResult};
use crate::guidance::{GuidanceEntry, GuidanceTable};
use crate::observe::ProfilingSink;
use crate::profile::{place_logs, PlacedLog, PowerProfile};
use crate::stages::StagePipeline;
use crate::sync::TimeSync;

/// Which platform power logger the methodology drives (paper Section VI:
/// the key tenets apply equally to external loggers such as `amd-smi`, but
/// the resulting profiles inherit the logger's averaging window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggerChoice {
    /// The internal fine logger (1 ms on MI300X).
    Fine,
    /// The external coarse logger (amd-smi-class, tens of ms).
    Coarse,
}

/// Tunables of the runner. Defaults follow the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerConfig {
    /// Override the guidance #runs (tests and the Fig. 5 resiliency study).
    pub runs_override: Option<u32>,
    /// Override the guidance binning margin.
    pub margin_override: Option<f64>,
    /// The guidance table (Table I by default).
    pub guidance: GuidanceTable,
    /// Timestamp reads used to calibrate the read delay.
    pub calibration_reads: u32,
    /// Executions in the timing probe (must exceed the warm-up count).
    pub timing_probe_executions: u32,
    /// Relative tolerance for execution-time stabilization (warm-up
    /// detection).
    pub time_stability_tol: f64,
    /// Relative tolerance for power stabilization (SSP detection).
    pub power_stability_tol: f64,
    /// Relative peak-to-trough depth that counts as a throttling excursion.
    pub throttle_detection_tol: f64,
    /// Upper bound of the random pre-launch delay (paper step 5).
    pub random_delay_max: SimDuration,
    /// Idle time between runs (lets the device cool back to a cold start).
    pub inter_run_idle: SimDuration,
    /// Cap on tail executions appended after the SSP point to harvest LOIs.
    pub tail_executions_cap: u32,
    /// How many half-size top-up batches to run when LOIs fall short
    /// (paper step 8).
    pub extra_run_batches: u32,
    /// Use two-anchor sync to cancel GPU-counter drift (set false to mimic
    /// single-anchor prior work).
    pub drift_correction: bool,
    /// Which platform logger to drive.
    pub logger: LoggerChoice,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            runs_override: None,
            margin_override: None,
            guidance: GuidanceTable::paper(),
            calibration_reads: 64,
            timing_probe_executions: 12,
            time_stability_tol: 0.02,
            power_stability_tol: 0.03,
            throttle_detection_tol: 0.06,
            random_delay_max: SimDuration::from_millis(1),
            inter_run_idle: SimDuration::from_millis(8),
            tail_executions_cap: 64,
            extra_run_batches: 3,
            drift_correction: true,
            logger: LoggerChoice::Fine,
        }
    }
}

impl RunnerConfig {
    /// A configuration scaled down for fast tests: fewer runs, fewer
    /// calibration reads.
    pub fn quick(runs: u32) -> Self {
        RunnerConfig {
            runs_override: Some(runs),
            calibration_reads: 16,
            extra_run_batches: 1,
            ..RunnerConfig::default()
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::InvalidConfig`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> MethodologyResult<()> {
        let err = |reason: &str| Err(MethodologyError::InvalidConfig(reason.into()));
        if self.runs_override == Some(0) {
            return err("runs override must be positive");
        }
        if let Some(m) = self.margin_override {
            // NaN also fails this check, which is intended.
            if m <= 0.0 || m.is_nan() {
                return err("binning margin must be positive");
            }
        }
        if self.calibration_reads == 0 {
            return err("at least one calibration read is required");
        }
        if self.timing_probe_executions < 2 {
            return err("the timing probe needs at least two executions");
        }
        if !(self.time_stability_tol > 0.0 && self.time_stability_tol < 1.0) {
            return err("time stability tolerance must be in (0, 1)");
        }
        if !(self.power_stability_tol > 0.0 && self.power_stability_tol < 1.0) {
            return err("power stability tolerance must be in (0, 1)");
        }
        if self.tail_executions_cap < 2 {
            return err("the tail-execution cap must allow at least two executions");
        }
        Ok(())
    }
}

/// One collected profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedRun {
    /// The observable trace.
    pub trace: RunTrace,
    /// The per-run CPU–GPU sync.
    pub sync: TimeSync,
    /// Median CPU-observed duration of the steady executions, ns.
    pub steady_median_ns: u64,
}

impl CollectedRun {
    /// Places the run's logs once, with its own sync, and keeps only what
    /// binning, stitching and the drift estimate read; the trace is
    /// dropped.
    pub fn condense(self) -> CondensedRun {
        let execs = &self.trace.executions;
        let logs = place_logs(&self.trace, &self.sync)
            .into_iter()
            .map(|placed| RunLog {
                exec_ns: placed
                    .containing_exec
                    .map_or(0, |(pos, _)| execs[pos].duration_ns()),
                placed,
            })
            .collect();
        CondensedRun {
            logs,
            sync: self.sync,
            steady_median_ns: self.steady_median_ns,
        }
    }
}

/// A collected run as the run-collection stage keeps it: its placed logs,
/// its sync and its steady median, without the [`RunTrace`] they came
/// from. Binning reads `steady_median_ns`, stitching reads `logs`, and
/// the report's drift estimate reads `sync`. A run of a short kernel
/// times hundreds of executions but lands only a handful of logs, so an
/// entry of hundreds of runs keeps a fraction of the heap its traces
/// took.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedRun {
    /// Every power log of the run, placed on the CPU timeline, in
    /// emission order.
    pub logs: Vec<RunLog>,
    /// The per-run CPU–GPU sync.
    pub sync: TimeSync,
    /// Median CPU-observed duration of the steady executions, ns.
    pub steady_median_ns: u64,
}

/// One placed log of a [`CondensedRun`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunLog {
    /// The log on the CPU timeline, with the execution it landed in.
    pub placed: PlacedLog,
    /// CPU-observed duration of that execution, ns (what the SSP margin
    /// check reads); 0 when the log landed in none.
    pub exec_ns: u64,
}

/// The full output of profiling one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPowerReport {
    /// Kernel label.
    pub label: String,
    /// Estimated steady execution time (CPU-observed), ns.
    pub exec_time_ns: u64,
    /// The guidance row applied.
    pub guidance: GuidanceEntry,
    /// Binning margin actually used.
    pub margin_frac: f64,
    /// Index of the SSE execution (= detected warm-up count).
    pub sse_index: u32,
    /// Index of the first SSP execution.
    pub ssp_index: u32,
    /// Executions per run (SSP index + tail).
    pub executions_per_run: u32,
    /// Total runs executed (including top-up batches).
    pub runs_executed: u32,
    /// Runs surviving the golden-bin filter.
    pub golden_runs: u32,
    /// Whether the throttling signature was detected during probing.
    pub throttle_detected: bool,
    /// Calibrated timestamp-read delay, ns.
    pub read_delay_ns: f64,
    /// Mean estimated GPU-counter drift across runs (two-anchor sync only).
    pub estimated_drift_ppm: Option<f64>,
    /// All logs of golden runs on run-relative time (Fig. 6/8 material).
    pub run_profile: PowerProfile,
    /// LOIs within the SSE execution.
    pub sse_profile: PowerProfile,
    /// LOIs within executions at/after the SSP index.
    pub ssp_profile: PowerProfile,
    /// Mean total power of the SSE profile, if any LOIs landed there.
    pub sse_mean_total_w: Option<f64>,
    /// Mean total power of the SSP profile.
    pub ssp_mean_total_w: Option<f64>,
    /// Relative SSE-vs-SSP measurement error `|SSP−SSE|/SSP` — the paper's
    /// headline "as high as 80%" number.
    pub sse_vs_ssp_error: Option<f64>,
}

impl KernelPowerReport {
    /// SSP-profile LOI count.
    pub fn ssp_loi_count(&self) -> usize {
        self.ssp_profile.len()
    }

    /// SSE-profile LOI count.
    pub fn sse_loi_count(&self) -> usize {
        self.sse_profile.len()
    }
}

/// The FinGraV methodology runner over a [`PowerBackend`].
///
/// `profile` composes the typed stages of [`crate::stages`] — timing probe,
/// SSP search, run collection, binning, stitching, finalization — into the
/// paper's nine-step recipe. Drive [`StagePipeline`] directly to run or
/// inspect individual stages. Attach a
/// [`ProfilingSink`] via [`FingravRunner::with_observer`] to stream
/// stage-scoped telemetry while the device runs, and a cancellation
/// token via [`FingravRunner::with_abort`] to stop a profiling
/// mid-measurement ([`MethodologyError::Aborted`]).
pub struct FingravRunner<'a, B: PowerBackend> {
    backend: &'a mut B,
    config: RunnerConfig,
    observer: Option<&'a mut dyn ProfilingSink>,
    abort: AbortHandle,
}

impl<'a, B: PowerBackend> FingravRunner<'a, B> {
    /// Creates a runner with explicit configuration.
    pub fn new(backend: &'a mut B, config: RunnerConfig) -> Self {
        FingravRunner {
            backend,
            config,
            observer: None,
            abort: AbortHandle::new(),
        }
    }

    /// Creates a runner with the paper-default configuration.
    pub fn with_defaults(backend: &'a mut B) -> Self {
        FingravRunner::new(backend, RunnerConfig::default())
    }

    /// Attaches an observer: every stage boundary and device event of the
    /// profiling is forwarded to `sink` while the device runs.
    #[must_use]
    pub fn with_observer(mut self, sink: &'a mut dyn ProfilingSink) -> Self {
        self.observer = Some(sink);
        self
    }

    /// Attaches a cooperative cancellation token; when it fires,
    /// [`FingravRunner::profile`] returns [`MethodologyError::Aborted`] at
    /// the next host boundary.
    #[must_use]
    pub fn with_abort(mut self, abort: AbortHandle) -> Self {
        self.abort = abort;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// Registers and profiles a kernel.
    ///
    /// # Errors
    ///
    /// Propagates backend errors and methodology failures (no sync data, no
    /// golden runs).
    pub fn profile(&mut self, desc: &KernelDesc) -> MethodologyResult<KernelPowerReport> {
        let handle = self.backend.register_kernel(desc)?;
        self.profile_handle(handle, &desc.name)
    }

    /// Profiles an already-registered kernel by composing the pipeline
    /// stages in order.
    ///
    /// # Errors
    ///
    /// Propagates backend errors and methodology failures.
    pub fn profile_handle(
        &mut self,
        kernel: KernelHandle,
        label: &str,
    ) -> MethodologyResult<KernelPowerReport> {
        let mut pipeline = StagePipeline::new(&mut *self.backend, self.config.clone())?;
        if let Some(sink) = self.observer.as_deref_mut() {
            pipeline.set_observer(sink);
        }
        pipeline.set_abort(self.abort.clone());
        // Step 2 precursor: calibrate the timestamp-read delay.
        let calibration = pipeline.calibrate()?;
        // Steps 1 + 3: timing probe, warm-up (SSE) detection, guidance.
        let timing = pipeline.timing_probe(kernel, &calibration)?;
        // Step 4: SSP execution count (formula + stability search).
        let ssp = pipeline.ssp_search(kernel, &calibration, &timing)?;
        // Steps 5-8: main runs with golden-bin filtering and top-up.
        let collection = pipeline.collect_runs(kernel, label, &calibration, &timing, &ssp)?;
        // Step 9: stitched profiles and summary numbers.
        Ok(pipeline.finalize(label, &calibration, &timing, &ssp, collection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_sim::config::SimConfig;
    use fingrav_sim::engine::Simulation;
    use fingrav_sim::power::Activity;

    fn kernel(base_us: u64, cf: f64, xcd: f64) -> KernelDesc {
        KernelDesc {
            name: format!("test-{base_us}us"),
            base_exec: SimDuration::from_micros(base_us),
            freq_insensitive_frac: cf,
            activity: Activity::new(xcd, 0.5, 0.4),
            compute_utilization: 0.7,
            flops: 1e11,
            hbm_bytes: 1e8,
            llc_bytes: 1e9,
            workgroups: 256,
        }
    }

    fn profile_with(seed: u64, runs: u32, desc: &KernelDesc) -> KernelPowerReport {
        let mut sim = Simulation::new(SimConfig::default(), seed).unwrap();
        let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(runs));
        runner.profile(desc).unwrap()
    }

    #[test]
    fn mid_size_kernel_end_to_end() {
        let report = profile_with(11, 30, &kernel(200, 0.15, 0.9));
        assert_eq!(report.label, "test-200us");
        // Steady time near 200 us plus overheads, definitely inside
        // the 200us-1ms guidance row.
        assert!(report.exec_time_ns > 150_000 && report.exec_time_ns < 400_000);
        assert_eq!(report.guidance.margin_frac, 0.02);
        // Warm-ups detected (simulator default: 3).
        assert!(
            report.sse_index >= 2 && report.sse_index <= 4,
            "sse {}",
            report.sse_index
        );
        assert!(report.ssp_index >= report.sse_index);
        assert!(report.golden_runs > 0);
        assert!(report.golden_runs <= report.runs_executed);
        assert!(!report.run_profile.is_empty());
        assert!(!report.ssp_profile.is_empty());
        assert!(report.ssp_mean_total_w.unwrap() > 150.0);
    }

    #[test]
    fn short_kernel_needs_many_executions_for_ssp() {
        let report = profile_with(13, 30, &kernel(40, 0.2, 0.88));
        // ~46 us observed: ceil(1ms / 46us) ≈ 22 executions minimum.
        assert!(
            report.ssp_index >= 15,
            "short kernel SSP index {} too low",
            report.ssp_index
        );
        assert!(report.executions_per_run > report.ssp_index);
    }

    #[test]
    fn long_kernel_ssp_close_to_sse() {
        let report = profile_with(17, 20, &kernel(1600, 0.12, 0.95));
        // Window fits inside one execution; SSP arrives within a few
        // executions of SSE.
        assert!(
            report.ssp_index <= report.sse_index + 6,
            "ssp {} sse {}",
            report.ssp_index,
            report.sse_index
        );
        // Heavy kernel: the throttling signature should be detected.
        assert!(report.throttle_detected);
    }

    #[test]
    fn sse_underestimates_ssp_for_short_kernels() {
        // The paper's headline: measuring at SSE on a sub-window kernel
        // under-reports power/energy substantially.
        let report = profile_with(19, 60, &kernel(40, 0.2, 0.88));
        let sse = report.sse_mean_total_w;
        let ssp = report.ssp_mean_total_w.expect("ssp profile present");
        if let Some(sse) = sse {
            assert!(
                sse < ssp,
                "SSE {sse} should underestimate SSP {ssp} for short kernels"
            );
            let err = report.sse_vs_ssp_error.unwrap();
            assert!(err > 0.2, "expected a large SSE/SSP gap, got {err}");
        } else {
            // With few runs no log may land in the SSE execution; the
            // profile must then be reported as absent, not fabricated.
            assert!(report.sse_vs_ssp_error.is_none());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = profile_with(23, 12, &kernel(120, 0.3, 0.7));
        let b = profile_with(23, 12, &kernel(120, 0.3, 0.7));
        assert_eq!(a, b);
    }

    #[test]
    fn read_delay_calibrated_near_configured_rtt() {
        let report = profile_with(29, 10, &kernel(120, 0.3, 0.7));
        // HostConfig default RTT is 1.5 us; delay assumes the midpoint.
        assert!(
            (500.0..1_200.0).contains(&report.read_delay_ns),
            "delay {}",
            report.read_delay_ns
        );
    }

    #[test]
    fn drift_estimate_present_with_correction() {
        let report = profile_with(31, 10, &kernel(400, 0.2, 0.8));
        let drift = report.estimated_drift_ppm.expect("drift estimated");
        // Configured truth is 18 ppm; the per-run estimate is noisy but the
        // mean over runs should land in a plausible band.
        assert!(drift.abs() < 500.0, "drift {drift}");
    }

    #[test]
    fn quick_config_reduces_runs() {
        let c = RunnerConfig::quick(7);
        assert_eq!(c.runs_override, Some(7));
        assert!(c.calibration_reads < RunnerConfig::default().calibration_reads);
    }

    #[test]
    fn config_validation_rejects_degenerate_settings() {
        assert!(RunnerConfig::default().validate().is_ok());
        assert!(RunnerConfig::quick(10).validate().is_ok());

        let bad = RunnerConfig {
            runs_override: Some(0),
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());

        let bad = RunnerConfig {
            margin_override: Some(0.0),
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());

        let bad = RunnerConfig {
            calibration_reads: 0,
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());

        let bad = RunnerConfig {
            power_stability_tol: 0.0,
            ..RunnerConfig::default()
        };
        assert!(bad.validate().is_err());

        // And the runner surfaces it before touching the device.
        let mut sim = Simulation::new(SimConfig::default(), 70).unwrap();
        let mut runner = FingravRunner::new(
            &mut sim,
            RunnerConfig {
                runs_override: Some(0),
                ..RunnerConfig::default()
            },
        );
        assert!(matches!(
            runner.profile(&kernel(100, 0.3, 0.7)),
            Err(MethodologyError::InvalidConfig(_))
        ));
    }

    #[test]
    fn coarse_logger_mode_works_but_starves_lois() {
        // Paper Section VI: the methodology applies to external loggers
        // like amd-smi, but the 50 ms averaging window yields far fewer
        // LOIs per run for the same kernel.
        let desc = kernel(1600, 0.12, 0.95);

        let mut sim = Simulation::new(SimConfig::default(), 71).unwrap();
        let mut fine_runner = FingravRunner::new(&mut sim, RunnerConfig::quick(15));
        let fine = fine_runner.profile(&desc).unwrap();

        let mut sim = Simulation::new(SimConfig::default(), 71).unwrap();
        let mut coarse_runner = FingravRunner::new(
            &mut sim,
            RunnerConfig {
                logger: LoggerChoice::Coarse,
                extra_run_batches: 0,
                ..RunnerConfig::quick(15)
            },
        );
        let coarse = coarse_runner.profile(&desc).unwrap();

        // The coarse window forces many more executions per run...
        assert!(
            coarse.executions_per_run > 2 * fine.executions_per_run,
            "coarse {} vs fine {} executions per run",
            coarse.executions_per_run,
            fine.executions_per_run
        );
        // ...and still harvests far fewer LOIs.
        assert!(
            coarse.ssp_loi_count() < fine.ssp_loi_count(),
            "coarse {} vs fine {} LOIs",
            coarse.ssp_loi_count(),
            fine.ssp_loi_count()
        );
        assert!(coarse.golden_runs > 0);
    }
}
