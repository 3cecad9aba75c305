//! The nine-step methodology as explicit pipeline stages.
//!
//! [`crate::runner::FingravRunner::profile`] used to be one monolithic
//! function; it is now a composition of the stages in this module, each
//! consuming and producing typed artifacts:
//!
//! | Stage | Paper steps | Input | Output |
//! |---|---|---|---|
//! | [`StagePipeline::calibrate`] | 2 (precursor) | — | [`ReadDelayCalibration`] |
//! | [`StagePipeline::timing_probe`] | 1 + 3 | calibration | [`TimingArtifact`] |
//! | [`StagePipeline::ssp_search`] | 4 | timing | [`SspArtifact`] |
//! | [`StagePipeline::collect_runs`] | 5–8 | timing + SSP | [`RunCollection`] |
//! | [`bin_collected`] | 6 | collected runs | [`Binning`] |
//! | [`stitch_profiles`] | 9 | golden runs | [`StitchedProfiles`] |
//! | [`StagePipeline::finalize`] | 9 (summary) | all artifacts | [`KernelPowerReport`] |
//!
//! Staging serves two purposes. First, each stage is testable and reusable
//! in isolation (the binning and stitching stages are pure functions over
//! collected runs). Second, a stage boundary is a natural checkpoint: a
//! future resumable or distributed runner can persist artifacts between
//! stages and hand shards to different workers, which is how the
//! [`crate::executor::CampaignExecutor`] parallelizes whole kernels today.
//!
//! Every stage drives the backend through the same call sequence the
//! monolith used, so profiles produced by the staged pipeline are
//! bit-identical to the pre-refactor runner given the same backend seed.
//!
//! Pipelines are observable and abortable: [`StagePipeline::set_observer`]
//! streams stage boundaries plus every device event of the scripts the
//! stages run into a [`crate::observe::ProfilingSink`] (ordering
//! guarantees in [`crate::observe`]), and [`StagePipeline::set_abort`]
//! attaches a cooperative cancellation token — a fired token surfaces as
//! [`MethodologyError::Aborted`] from the stage whose script it cut. With
//! no observer and an unfired token the pipeline is exactly the batch
//! path.

use fingrav_sim::kernel::KernelHandle;
use fingrav_sim::script::Script;
use fingrav_sim::session::{AbortHandle, NoopSink};
use fingrav_sim::time::SimDuration;
use fingrav_sim::trace::RunTrace;

use crate::backend::PowerBackend;
use crate::binning::{bin_durations, Binning};
use crate::differentiation::{
    detect_stable_suffix, detect_throttle, detect_warmup_count, median_of_3, moving_average,
    ssp_min_executions,
};
use crate::error::{MethodologyError, MethodologyResult};
use crate::guidance::GuidanceEntry;
use crate::observe::{ForwardDeviceEvents, ProfilingEvent, ProfilingSink, StageKind};
use crate::profile::{
    place_logs, push_loi_points, push_run_profile_points, PlacedLog, PowerProfile, ProfileKind,
    ProfileStore,
};
use crate::runner::{
    CollectedRun, CondensedRun, KernelPowerReport, LoggerChoice, RunLog, RunnerConfig,
};
use crate::stats::median_u64;
use crate::sync::{ReadDelayCalibration, TimeSync};

/// Output of the timing-probe stage (paper steps 1 + 3): the kernel's
/// steady execution time, its warm-up count, and the guidance row applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingArtifact {
    /// Index of the SSE execution (= detected warm-up count).
    pub sse_index: u32,
    /// Median steady execution time (CPU-observed), ns.
    pub exec_time_ns: u64,
    /// The guidance row looked up from the execution time.
    pub guidance: GuidanceEntry,
    /// Runs to execute (guidance, unless overridden).
    pub runs: u32,
    /// Binning margin to apply (guidance, unless overridden).
    pub margin_frac: f64,
}

impl TimingArtifact {
    /// The steady execution time as a duration.
    pub fn exec_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.exec_time_ns)
    }
}

/// Output of the SSP-search stage (paper step 4): where steady-state power
/// begins and how long each main run must therefore be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SspArtifact {
    /// Index of the first SSP execution.
    pub ssp_index: u32,
    /// Whether the throttling signature was detected during probing.
    pub throttle_detected: bool,
    /// Executions per main run (SSP index + tail).
    pub executions_per_run: u32,
    /// LOI count the guidance recommends harvesting.
    pub loi_target: u32,
}

/// The three stitched profiles of a kernel (paper step 9).
#[derive(Debug, Clone, PartialEq)]
pub struct StitchedProfiles {
    /// All logs of golden runs on run-relative time.
    pub run: PowerProfile,
    /// LOIs within the SSE execution.
    pub sse: PowerProfile,
    /// LOIs within executions at/after the SSP index.
    pub ssp: PowerProfile,
}

/// Output of the run-collection stage (paper steps 5–8): every collected
/// run, the golden binning over them, and the stitched profiles.
///
/// A run is kept condensed ([`CondensedRun`]): its logs are placed once,
/// right after the run, and its [`RunTrace`] is dropped, so an entry holds
/// one trace at a time rather than one per run. Binning and stitching
/// read only the condensed runs, and the stitched stores are sized
/// exactly (see [`stitch_profiles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunCollection {
    /// All runs executed, including top-up batches, in execution order.
    pub collected: Vec<CondensedRun>,
    /// The execution-time binning over the collected runs.
    pub binning: Binning,
    /// Profiles stitched from the golden runs.
    pub profiles: StitchedProfiles,
}

/// The staged methodology pipeline over a [`PowerBackend`].
///
/// Stages must be invoked in order (each takes the previous stage's
/// artifact by reference); the compiler enforces the data flow.
pub struct StagePipeline<'a, B: PowerBackend> {
    backend: &'a mut B,
    config: RunnerConfig,
    observer: Option<&'a mut dyn ProfilingSink>,
    abort: AbortHandle,
}

impl<'a, B: PowerBackend> StagePipeline<'a, B> {
    /// Creates a pipeline, validating the configuration up front.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::InvalidConfig`] before touching the
    /// device if the configuration is degenerate.
    pub fn new(backend: &'a mut B, config: RunnerConfig) -> MethodologyResult<Self> {
        config.validate()?;
        Ok(StagePipeline {
            backend,
            config,
            observer: None,
            abort: AbortHandle::new(),
        })
    }

    /// Attaches an observer: stage boundaries and every device event of
    /// the scripts the pipeline runs are forwarded to `sink`, in pipeline
    /// order (see [`crate::observe`] for the ordering guarantees).
    pub fn set_observer(&mut self, sink: &'a mut dyn ProfilingSink) {
        self.observer = Some(sink);
    }

    /// Attaches a cooperative cancellation token: when it fires, the
    /// script in flight stops at the next host boundary and the pipeline
    /// stage surfaces [`MethodologyError::Aborted`].
    pub fn set_abort(&mut self, abort: AbortHandle) {
        self.abort = abort;
    }

    /// The active configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// Emits a stage-boundary event to the observer, if any.
    fn emit(&mut self, event: ProfilingEvent) {
        if let Some(sink) = self.observer.as_deref_mut() {
            sink.on_event(event);
        }
    }

    /// Runs one script through the session API, forwarding device events
    /// to the observer and surfacing a cancelled session as
    /// [`MethodologyError::Aborted`]. Every pipeline script goes through
    /// here, so the observed and unobserved paths issue the identical
    /// backend call sequence.
    fn run_script(&mut self, script: &Script) -> MethodologyResult<RunTrace> {
        // Both arms use the statically-dispatched `run_script_with` (B is
        // Sized here), so a monomorphizing backend inlines the sink into
        // its event loop — NoopSink in particular costs nothing per event.
        let trace = match self.observer.as_deref_mut() {
            Some(sink) => {
                let mut forward = ForwardDeviceEvents(sink);
                self.backend
                    .run_script_with(script, &mut forward, &self.abort)?
            }
            None => self
                .backend
                .run_script_with(script, &mut NoopSink, &self.abort)?,
        };
        if trace.aborted {
            return Err(MethodologyError::Aborted);
        }
        Ok(trace)
    }

    /// The averaging window of the logger being driven.
    fn window(&self) -> SimDuration {
        match self.config.logger {
            LoggerChoice::Fine => self.backend.logger_window(),
            LoggerChoice::Coarse => self.backend.coarse_logger_window(),
        }
    }

    /// Stage: calibrates the GPU-timestamp read delay with repeated reads
    /// (precursor to paper step 2).
    ///
    /// # Errors
    ///
    /// Propagates backend errors and calibration failures.
    pub fn calibrate(&mut self) -> MethodologyResult<ReadDelayCalibration> {
        self.emit(ProfilingEvent::StageStarted {
            stage: StageKind::Calibrate,
        });
        let mut b = Script::builder();
        for _ in 0..self.config.calibration_reads.max(1) {
            b = b.read_gpu_timestamp();
        }
        let trace = self.run_script(&b.build())?;
        let calibration = ReadDelayCalibration::from_reads(&trace.timestamp_reads)?;
        self.emit(ProfilingEvent::StageFinished {
            stage: StageKind::Calibrate,
        });
        Ok(calibration)
    }

    /// Stage: times the kernel, detects the warm-up (SSE) count, and looks
    /// up the guidance row (paper steps 1 + 3).
    ///
    /// # Errors
    ///
    /// Propagates backend errors; returns [`MethodologyError::EmptyProbe`]
    /// when the probe yields no executions.
    pub fn timing_probe(
        &mut self,
        kernel: KernelHandle,
        calibration: &ReadDelayCalibration,
    ) -> MethodologyResult<TimingArtifact> {
        self.emit(ProfilingEvent::StageStarted {
            stage: StageKind::TimingProbe,
        });
        let probe = self.run_probe(kernel, self.config.timing_probe_executions, calibration)?;
        let durations = probe.trace.execution_durations_ns();
        if durations.is_empty() {
            return Err(MethodologyError::EmptyProbe);
        }
        let sse_index = detect_warmup_count(&durations, self.config.time_stability_tol);
        let steady = &durations[sse_index as usize..];
        let exec_time_ns = median_u64(steady).ok_or(MethodologyError::EmptyProbe)?;
        let exec_time = SimDuration::from_nanos(exec_time_ns);

        let guidance = *self.config.guidance.lookup(exec_time);
        let runs = self.config.runs_override.unwrap_or(guidance.runs);
        let margin_frac = self.config.margin_override.unwrap_or(guidance.margin_frac);
        self.emit(ProfilingEvent::StageFinished {
            stage: StageKind::TimingProbe,
        });
        Ok(TimingArtifact {
            sse_index,
            exec_time_ns,
            guidance,
            runs,
            margin_frac,
        })
    }

    /// Stage: finds the SSP execution index via the formula lower bound
    /// plus a power-stability probe, extending the probe burst until the
    /// power series demonstrably converges (paper step 4, including the
    /// "binary search can be necessary" throttling case), then sizes the
    /// main runs.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn ssp_search(
        &mut self,
        kernel: KernelHandle,
        calibration: &ReadDelayCalibration,
        timing: &TimingArtifact,
    ) -> MethodologyResult<SspArtifact> {
        self.emit(ProfilingEvent::StageStarted {
            stage: StageKind::SspSearch,
        });
        let window = self.window();
        let exec_time = timing.exec_time();
        let min_execs = ssp_min_executions(window, exec_time, timing.sse_index + 1);
        let max_probe = (min_execs * 2 + 8).max(256);
        let mut ssp_probe_n = min_execs * 2 + 8;
        let (ssp_probe, burst_logs, burst_totals, smoothed) = loop {
            let probe = self.run_probe(kernel, ssp_probe_n, calibration)?;
            // Logs inside outlier-duration executions (past the warm-ups)
            // are excluded from the stability analysis, mirroring how
            // binning discards outlier runs. The cutoff derives from the
            // probe's own *settled* durations — under a power cap the
            // settled executions run slower than the early boost-phase
            // ones, and those throttled times are the legitimate steady
            // state, not outliers.
            let probe_durations = probe.trace.execution_durations_ns();
            let settled_ns = median_u64(&probe_durations[probe_durations.len() / 2..])
                .unwrap_or(timing.exec_time_ns);
            let outlier_cutoff_ns =
                (settled_ns as f64 * (1.0 + 3.0 * self.config.time_stability_tol)) as u64;
            let logs = filtered_burst_logs(&probe, timing.sse_index, outlier_cutoff_ns);
            let totals: Vec<f64> = logs.iter().map(|l| l.power.total()).collect();
            // Median-of-3 plus a short moving average: single-log
            // excursions and the firmware's cap sawtooth must not read as
            // late stabilization.
            let smoothed = moving_average(&median_of_3(&totals), 5);
            if probe_power_converged(&smoothed, self.config.power_stability_tol)
                || ssp_probe_n >= max_probe
            {
                break (probe, logs, totals, smoothed);
            }
            ssp_probe_n = (ssp_probe_n * 2).min(max_probe);
        };
        let throttle_detected = detect_throttle(&burst_totals, self.config.throttle_detection_tol);
        let detected_ssp = detect_stable_suffix(&smoothed, self.config.power_stability_tol)
            .map(|idx| {
                // The moving average blurs the ramp edge and pushes the
                // detected onset late; walk back on the lightly-smoothed
                // series while it already sits at the settled level.
                let settled_tail = (smoothed.len() / 4).max(1);
                let settled =
                    crate::stats::median(&smoothed[smoothed.len() - settled_tail..]).unwrap_or(0.0);
                let tol = settled.abs() * self.config.power_stability_tol;
                let raw = median_of_3(&burst_totals);
                let mut idx = idx.min(raw.len().saturating_sub(1));
                while idx > 0 && (raw[idx - 1] - settled).abs() <= tol {
                    idx -= 1;
                }
                idx
            })
            .and_then(|log_idx| {
                // Map the first stable log back to the execution it fell in
                // (or the next execution after it).
                let stable = burst_logs.get(log_idx).copied()?;
                stable
                    .containing_exec
                    .map(|(pos, _)| pos as u32)
                    .or_else(|| {
                        ssp_probe
                            .trace
                            .executions
                            .iter()
                            .position(|e| (e.cpu_start.as_nanos() as f64) >= stable.cpu_ns)
                            .map(|p| p as u32)
                    })
            })
            .unwrap_or(min_execs.saturating_sub(1));
        let ssp_index = detected_ssp
            .max(min_execs.saturating_sub(1))
            .max(timing.sse_index);

        // Tail executions after the SSP point so logs keep landing in
        // SSP-quality executions (~one averaging window's worth).
        let tail = (window.as_nanos().div_ceil(timing.exec_time_ns.max(1)) as u32)
            .clamp(2, self.config.tail_executions_cap);
        let executions_per_run = ssp_index + 1 + tail;
        let loi_target = timing.guidance.recommended_lois(exec_time);
        self.emit(ProfilingEvent::StageFinished {
            stage: StageKind::SspSearch,
        });
        Ok(SspArtifact {
            ssp_index,
            throttle_detected,
            executions_per_run,
            loi_target,
        })
    }

    /// Stage: executes the main runs with golden-bin filtering and LOI
    /// top-up batches (paper steps 5–8), stitching profiles after each
    /// batch to judge the harvest (step 9's stitching is reused as the
    /// inner [`stitch_profiles`] stage).
    ///
    /// # Errors
    ///
    /// Propagates backend errors; returns
    /// [`MethodologyError::NoGoldenRuns`] when binning finds no golden bin.
    pub fn collect_runs(
        &mut self,
        kernel: KernelHandle,
        label: &str,
        calibration: &ReadDelayCalibration,
        timing: &TimingArtifact,
        ssp: &SspArtifact,
    ) -> MethodologyResult<RunCollection> {
        self.emit(ProfilingEvent::StageStarted {
            stage: StageKind::CollectRuns,
        });
        let mut collected: Vec<CondensedRun> = Vec::new();
        let mut batch = timing.runs;
        let mut batches_left = self.config.extra_run_batches;
        loop {
            for _ in 0..batch {
                let run = self.execute_run(kernel, ssp.executions_per_run, calibration, true)?;
                collected.push(run.condense());
            }
            let binning = bin_collected(&collected, timing.margin_frac)?;
            let profiles = stitch_profiles(
                label,
                &collected,
                &binning,
                timing.sse_index,
                ssp.ssp_index,
                timing.margin_frac,
            );
            let enough = profiles.ssp.len() as u32 >= ssp.loi_target;
            if enough || batches_left == 0 {
                self.emit(ProfilingEvent::StageFinished {
                    stage: StageKind::CollectRuns,
                });
                return Ok(RunCollection {
                    collected,
                    binning,
                    profiles,
                });
            }
            batches_left -= 1;
            batch = (timing.runs / 2).max(8);
        }
    }

    /// Stage: assembles the final [`KernelPowerReport`] from every
    /// artifact (paper step 9's summary numbers, including the SSE-vs-SSP
    /// error and the drift estimate).
    pub fn finalize(
        &self,
        label: &str,
        calibration: &ReadDelayCalibration,
        timing: &TimingArtifact,
        ssp: &SspArtifact,
        collection: RunCollection,
    ) -> KernelPowerReport {
        let sse_mean = collection.profiles.sse.mean_total();
        let ssp_mean = collection.profiles.ssp.mean_total();
        let error = match (sse_mean, ssp_mean) {
            (Some(a), Some(b)) if b != 0.0 => Some((b - a).abs() / b),
            _ => None,
        };

        let drift = if self.config.drift_correction {
            let drifts: Vec<f64> = collection
                .collected
                .iter()
                .map(|r| r.sync.estimated_drift_ppm(self.backend.gpu_counter_hz()))
                .collect();
            crate::stats::mean(&drifts)
        } else {
            None
        };

        KernelPowerReport {
            label: label.to_string(),
            exec_time_ns: timing.exec_time_ns,
            guidance: timing.guidance,
            margin_frac: timing.margin_frac,
            sse_index: timing.sse_index,
            ssp_index: ssp.ssp_index,
            executions_per_run: ssp.executions_per_run,
            runs_executed: collection.collected.len() as u32,
            golden_runs: collection.binning.golden_bin().count() as u32,
            throttle_detected: ssp.throttle_detected,
            read_delay_ns: calibration.delay_ns(),
            estimated_drift_ppm: drift,
            run_profile: collection.profiles.run,
            sse_profile: collection.profiles.sse,
            ssp_profile: collection.profiles.ssp,
            sse_mean_total_w: sse_mean,
            ssp_mean_total_w: ssp_mean,
            sse_vs_ssp_error: error,
        }
    }

    /// Runs one instrumented probe (no random delay) and places its logs.
    fn run_probe(
        &mut self,
        kernel: KernelHandle,
        executions: u32,
        calibration: &ReadDelayCalibration,
    ) -> MethodologyResult<ProbeRun> {
        let run = self.execute_run(kernel, executions, calibration, false)?;
        let placed = place_logs(&run.trace, &run.sync);
        Ok(ProbeRun {
            trace: run.trace,
            placed,
        })
    }

    /// Executes one instrumented run (paper step 2's instrumentation and
    /// step 5's random pre-launch delay) and synchronizes its clocks.
    ///
    /// # Errors
    ///
    /// Propagates backend errors; returns
    /// [`MethodologyError::InsufficientSyncData`] when the trace carries no
    /// timestamp read.
    pub fn execute_run(
        &mut self,
        kernel: KernelHandle,
        executions: u32,
        calibration: &ReadDelayCalibration,
        random_delay: bool,
    ) -> MethodologyResult<CollectedRun> {
        let window = self.window();
        let coarse = self.config.logger == LoggerChoice::Coarse;
        let mut b = Script::builder().begin_run();
        b = if coarse {
            b.start_coarse_logger()
        } else {
            b.start_power_logger()
        };
        b = b.read_gpu_timestamp();
        if random_delay {
            // The delay must span at least one logging window so logs land
            // at uniformly distributed times-of-interest (step 5).
            let delay_max = if self.config.random_delay_max > window {
                self.config.random_delay_max
            } else {
                window
            };
            b = b.sleep_uniform(SimDuration::ZERO, delay_max);
        }
        b = b
            .launch_timed(kernel, executions)
            .sleep(window + SimDuration::from_micros(100))
            .read_gpu_timestamp();
        b = if coarse {
            b.stop_coarse_logger()
        } else {
            b.stop_power_logger()
        };
        let script = b.sleep(self.config.inter_run_idle).build();
        let mut trace = self.run_script(&script)?;
        if coarse {
            // Downstream placement machinery reads `power_logs`; when the
            // methodology drives the external logger, its logs take that
            // role (and its window governed every window computation).
            trace.power_logs = std::mem::take(&mut trace.coarse_logs);
        }

        let sync = self.sync_for(&trace, calibration)?;
        let durations = trace.execution_durations_ns();
        let steady_start = durations.len().saturating_sub(durations.len() / 2 + 1);
        let steady_median_ns =
            median_u64(&durations[steady_start..]).ok_or(MethodologyError::EmptyProbe)?;
        Ok(CollectedRun {
            trace,
            sync,
            steady_median_ns,
        })
    }

    /// Builds the per-run sync from its timestamp reads.
    fn sync_for(
        &self,
        trace: &RunTrace,
        calibration: &ReadDelayCalibration,
    ) -> MethodologyResult<TimeSync> {
        let reads = &trace.timestamp_reads;
        let first = reads
            .first()
            .ok_or(MethodologyError::InsufficientSyncData)?;
        if self.config.drift_correction && reads.len() >= 2 {
            let last = reads.last().expect("len >= 2");
            if let Ok(sync) = TimeSync::from_two_anchors(first, last, calibration) {
                return Ok(sync);
            }
        }
        Ok(TimeSync::from_anchor(
            first,
            calibration,
            self.backend.gpu_counter_hz(),
        ))
    }
}

/// Intermediate probe output.
struct ProbeRun {
    trace: RunTrace,
    placed: Vec<PlacedLog>,
}

/// Logs that landed during the launch burst, in time order.
fn placed_burst_logs(placed: &[PlacedLog]) -> Vec<PlacedLog> {
    let mut logs: Vec<PlacedLog> = placed
        .iter()
        .filter(|l| l.run_time_ns >= 0.0)
        .copied()
        .collect();
    logs.sort_by(|a, b| a.cpu_ns.partial_cmp(&b.cpu_ns).expect("finite"));
    logs
}

/// True when a probe's power series has demonstrably settled: its last
/// quarter and the quarter before agree within tolerance. Requires at
/// least eight logs to judge (shorter series force a longer probe).
fn probe_power_converged(totals: &[f64], tol_frac: f64) -> bool {
    if totals.len() < 8 {
        return false;
    }
    let q = totals.len() / 4;
    let last = &totals[totals.len() - q..];
    let prev = &totals[totals.len() - 2 * q..totals.len() - q];
    let m_last = last.iter().sum::<f64>() / q as f64;
    let m_prev = prev.iter().sum::<f64>() / q as f64;
    (m_last - m_prev).abs() <= tol_frac * m_last.abs().max(1.0)
}

/// Burst logs in time order, excluding logs that landed inside
/// outlier-duration executions beyond the warm-up region. The returned
/// list's indices align with the stability series derived from it.
fn filtered_burst_logs(probe: &ProbeRun, sse_index: u32, outlier_cutoff_ns: u64) -> Vec<PlacedLog> {
    let last_end = probe
        .trace
        .executions
        .last()
        .map(|e| e.cpu_end.as_nanos() as f64)
        .unwrap_or(f64::MAX);
    let durations = probe.trace.execution_durations_ns();
    placed_burst_logs(&probe.placed)
        .into_iter()
        .filter(|l| l.cpu_ns <= last_end)
        .filter(|l| match l.containing_exec {
            Some((pos, _)) if pos as u32 >= sse_index => durations
                .get(pos)
                .map(|&d| d <= outlier_cutoff_ns)
                .unwrap_or(true),
            _ => true,
        })
        .collect()
}

/// Stage: bins collected runs by their steady-median durations (paper step
/// 6). Pure function — usable on any run set without a backend.
///
/// # Errors
///
/// Returns [`MethodologyError::NoGoldenRuns`] when no golden bin exists.
pub fn bin_collected(collected: &[CondensedRun], margin: f64) -> MethodologyResult<Binning> {
    let metrics: Vec<u64> = collected.iter().map(|r| r.steady_median_ns).collect();
    bin_durations(&metrics, margin).ok_or(MethodologyError::NoGoldenRuns)
}

/// Stage: stitches golden runs into run/SSE/SSP profiles, filtering SSP
/// LOIs to executions whose duration stays within the golden margin
/// (intra-run outlier rejection; paper step 9). Pure function.
///
/// It counts each profile's points first and then fills stores of
/// exactly that size, so the profiles carry no growth slack.
pub fn stitch_profiles(
    label: &str,
    collected: &[CondensedRun],
    binning: &Binning,
    sse_index: u32,
    ssp_index: u32,
    margin: f64,
) -> StitchedProfiles {
    let center = binning.golden_bin().center_ns() as f64;
    let every = |_: &RunLog| true;
    let in_sse = |l: &RunLog| {
        l.placed
            .containing_exec
            .is_some_and(|(pos, _)| pos as u32 == sse_index)
    };
    let in_ssp = |l: &RunLog| {
        l.placed
            .containing_exec
            .is_some_and(|(pos, _)| pos as u32 >= ssp_index)
            && (l.exec_ns as f64 - center).abs() <= center * margin.max(0.001) * 1.5
    };
    let golden = || {
        collected
            .iter()
            .enumerate()
            .filter(|&(run_idx, _)| binning.is_golden(run_idx))
    };
    let sized = |kind: ProfileKind, keep: &dyn Fn(&RunLog) -> bool| PowerProfile {
        label: label.to_string(),
        kind,
        store: ProfileStore::with_capacity(golden().map(|(_, run)| kept(run, keep).count()).sum()),
    };
    let mut run_profile = sized(ProfileKind::Run, &every);
    let mut sse_profile = sized(ProfileKind::Sse, &in_sse);
    let mut ssp_profile = sized(ProfileKind::Ssp, &in_ssp);

    for (idx, run) in golden() {
        let idx = idx as u32;
        push_run_profile_points(&mut run_profile.store, idx, kept(run, &every));
        push_loi_points(&mut sse_profile.store, idx, kept(run, &in_sse), |_| true);
        push_loi_points(&mut ssp_profile.store, idx, kept(run, &in_ssp), |_| true);
    }

    StitchedProfiles {
        run: run_profile,
        sse: sse_profile,
        ssp: ssp_profile,
    }
}

/// The placed logs of `run` that `keep` selects, in emission order.
fn kept<'a>(
    run: &'a CondensedRun,
    keep: &'a dyn Fn(&RunLog) -> bool,
) -> impl Iterator<Item = &'a PlacedLog> {
    run.logs.iter().filter(move |l| keep(l)).map(|l| &l.placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FingravRunner, RunnerConfig};
    use fingrav_sim::config::SimConfig;
    use fingrav_sim::engine::Simulation;
    use fingrav_sim::kernel::KernelDesc;
    use fingrav_sim::power::Activity;

    fn kernel(base_us: u64) -> KernelDesc {
        KernelDesc {
            name: format!("stage-{base_us}us"),
            base_exec: SimDuration::from_micros(base_us),
            freq_insensitive_frac: 0.2,
            activity: Activity::new(0.85, 0.5, 0.4),
            compute_utilization: 0.7,
            flops: 1e11,
            hbm_bytes: 1e8,
            llc_bytes: 1e9,
            workgroups: 256,
        }
    }

    /// Drives the stages one by one, asserting each artifact's invariants.
    #[test]
    fn stages_compose_with_plausible_artifacts() {
        let mut sim = Simulation::new(SimConfig::default(), 301).unwrap();
        let desc = kernel(200);
        let handle = PowerBackend::register_kernel(&mut sim, &desc).unwrap();
        let mut pipeline = StagePipeline::new(&mut sim, RunnerConfig::quick(14)).unwrap();

        let calibration = pipeline.calibrate().unwrap();
        assert!(calibration.delay_ns() > 0.0);

        let timing = pipeline.timing_probe(handle, &calibration).unwrap();
        assert!(timing.exec_time_ns > 150_000 && timing.exec_time_ns < 400_000);
        assert!(timing.sse_index >= 1, "warm-ups exist");
        assert_eq!(timing.runs, 14, "override respected");

        let ssp = pipeline.ssp_search(handle, &calibration, &timing).unwrap();
        assert!(ssp.ssp_index >= timing.sse_index);
        assert!(ssp.executions_per_run > ssp.ssp_index);
        assert!(ssp.loi_target > 0);

        let collection = pipeline
            .collect_runs(handle, &desc.name, &calibration, &timing, &ssp)
            .unwrap();
        assert!(collection.collected.len() >= 14);
        assert!(collection.binning.golden_bin().count() > 0);
        assert!(!collection.profiles.run.is_empty());

        let report = pipeline.finalize(&desc.name, &calibration, &timing, &ssp, collection);
        assert_eq!(report.label, desc.name);
        assert!(report.ssp_mean_total_w.unwrap() > 100.0);
    }

    /// The staged pipeline and the composed runner must produce
    /// bit-identical reports from the same seed: profiling is the exact
    /// same backend call sequence either way.
    #[test]
    fn staged_pipeline_matches_runner_exactly() {
        let desc = kernel(120);
        let config = RunnerConfig::quick(10);

        let mut sim = Simulation::new(SimConfig::default(), 302).unwrap();
        let mut runner = FingravRunner::new(&mut sim, config.clone());
        let via_runner = runner.profile(&desc).unwrap();

        let mut sim = Simulation::new(SimConfig::default(), 302).unwrap();
        let handle = PowerBackend::register_kernel(&mut sim, &desc).unwrap();
        let mut pipeline = StagePipeline::new(&mut sim, config).unwrap();
        let calibration = pipeline.calibrate().unwrap();
        let timing = pipeline.timing_probe(handle, &calibration).unwrap();
        let ssp = pipeline.ssp_search(handle, &calibration, &timing).unwrap();
        let collection = pipeline
            .collect_runs(handle, &desc.name, &calibration, &timing, &ssp)
            .unwrap();
        let via_stages = pipeline.finalize(&desc.name, &calibration, &timing, &ssp, collection);

        assert_eq!(via_runner, via_stages);
    }

    /// Binning and stitching are pure over collected runs: re-running them
    /// on the same input yields the same output, and every golden run's
    /// points carry its run index.
    #[test]
    fn binning_and_stitching_stages_are_pure() {
        let mut sim = Simulation::new(SimConfig::default(), 303).unwrap();
        let desc = kernel(150);
        let handle = PowerBackend::register_kernel(&mut sim, &desc).unwrap();
        let mut pipeline = StagePipeline::new(&mut sim, RunnerConfig::quick(8)).unwrap();
        let calibration = pipeline.calibrate().unwrap();
        let mut collected = Vec::new();
        for _ in 0..8 {
            collected.push(
                pipeline
                    .execute_run(handle, 12, &calibration, true)
                    .unwrap()
                    .condense(),
            );
        }

        let a = bin_collected(&collected, 0.05).unwrap();
        let b = bin_collected(&collected, 0.05).unwrap();
        assert_eq!(a.golden_bin().members, b.golden_bin().members);

        let s1 = stitch_profiles("k", &collected, &a, 2, 4, 0.05);
        let s2 = stitch_profiles("k", &collected, &a, 2, 4, 0.05);
        assert_eq!(s1.run.store, s2.run.store);
        for p in s1.run.iter() {
            assert!(a.is_golden(p.run() as usize), "only golden runs stitched");
        }
    }

    /// An invalid configuration is rejected at pipeline construction,
    /// before any device interaction.
    #[test]
    fn pipeline_construction_validates_config() {
        let mut sim = Simulation::new(SimConfig::default(), 304).unwrap();
        let bad = RunnerConfig {
            runs_override: Some(0),
            ..RunnerConfig::default()
        };
        assert!(matches!(
            StagePipeline::new(&mut sim, bad).err(),
            Some(MethodologyError::InvalidConfig(_))
        ));
    }
}
