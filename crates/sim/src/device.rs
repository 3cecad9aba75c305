//! The GPU device execution model.
//!
//! Tracks which kernel (if any) is executing, integrates kernel *progress*
//! across frequency changes (so mid-execution throttling correctly
//! stretches the remaining work), and owns the warm-up bookkeeping that
//! produces the paper's execution-time stabilization behaviour.

use crate::kernel::{ExecutionNoise, KernelDesc, KernelHandle, VariationConfig};
use crate::power::Activity;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Record of one completed execution, in simulator ground-truth time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRecord {
    /// Which registered kernel ran.
    pub kernel: KernelHandle,
    /// Execution start on the simulation timeline.
    pub start: SimTime,
    /// Execution end on the simulation timeline.
    pub end: SimTime,
    /// Index of this execution since the device was last cold.
    pub execs_since_cold: u32,
    /// True if the variation model drew this execution as an outlier.
    pub outlier: bool,
}

impl ExecutionRecord {
    /// Ground-truth execution duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct RunningKernel {
    handle: KernelHandle,
    /// Fraction of the kernel completed, in `[0, 1]`.
    progress: f64,
    /// Sampled duration at the reference frequency (includes warm-up, run
    /// bias, jitter, outlier multipliers).
    sampled_ref_duration: SimDuration,
    start: SimTime,
    last_advance: SimTime,
    execs_since_cold_at_start: u32,
    outlier: bool,
}

/// The simulated GPU device.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    kernels: Vec<KernelDesc>,
    variation: VariationConfig,
    f_ref_mhz: f64,
    f_mhz: f64,
    running: Option<RunningKernel>,
    execs_since_cold: u32,
    last_busy_end: Option<SimTime>,
    run_bias: f64,
    run_activity_factor: f64,
    /// Generation counter; bumped whenever the predicted completion time
    /// changes so stale completion events can be discarded.
    generation: u64,
}

impl GpuDevice {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `f_ref_mhz` is not positive.
    pub fn new(variation: VariationConfig, f_ref_mhz: f64, initial_f_mhz: f64) -> Self {
        assert!(f_ref_mhz > 0.0, "reference frequency must be positive");
        GpuDevice {
            kernels: Vec::new(),
            variation,
            f_ref_mhz,
            f_mhz: initial_f_mhz,
            running: None,
            execs_since_cold: 0,
            last_busy_end: None,
            run_bias: 1.0,
            run_activity_factor: 1.0,
            generation: 0,
        }
    }

    /// Registers a kernel, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns the descriptor's validation error message if it is invalid.
    pub fn register_kernel(&mut self, desc: KernelDesc) -> Result<KernelHandle, String> {
        desc.validate()?;
        self.kernels.push(desc);
        Ok(KernelHandle(self.kernels.len() - 1))
    }

    /// Looks up a registered kernel.
    pub fn kernel(&self, handle: KernelHandle) -> Option<&KernelDesc> {
        self.kernels.get(handle.0)
    }

    /// Number of registered kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Current core frequency in MHz.
    pub fn f_mhz(&self) -> f64 {
        self.f_mhz
    }

    /// True if a kernel is executing.
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Time since the device last finished an execution (zero while busy;
    /// `None` if it has never run).
    pub fn idle_for(&self, now: SimTime) -> Option<SimDuration> {
        if self.running.is_some() {
            return Some(SimDuration::ZERO);
        }
        self.last_busy_end
            .map(|end| now.saturating_duration_since(end))
    }

    /// Whether the device was busy at any point in `[now - window, now]`.
    pub fn busy_within(&self, now: SimTime, window: SimDuration) -> bool {
        if self.running.is_some() {
            return true;
        }
        match self.last_busy_end {
            Some(end) => now.saturating_duration_since(end) <= window,
            None => false,
        }
    }

    /// Current switching activity (idle when nothing runs). Pathological
    /// runs and outlier executions toggle the compute pipes less while
    /// they crawl, so their XCD activity is scaled down.
    pub fn activity(&self) -> Activity {
        match &self.running {
            Some(r) => {
                let base = self.kernels[r.handle.0].activity;
                let mut factor = self.run_activity_factor;
                if r.outlier {
                    factor *= self.variation.outlier_activity_factor;
                }
                if (factor - 1.0).abs() < f64::EPSILON {
                    base
                } else {
                    Activity::new(base.xcd * factor, base.iod, base.hbm)
                }
            }
            None => Activity::IDLE,
        }
    }

    /// The generation counter for completion-event validation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of executions since the device was last cold.
    pub fn execs_since_cold(&self) -> u32 {
        self.execs_since_cold
    }

    /// Marks the start of a fresh profiling run: re-draws the per-run
    /// allocation bias (paper: "slight differences in memory allocation").
    pub fn begin_run(&mut self, rng: &mut SimRng) {
        let (bias, activity_factor) = self.variation.sample_run_bias(rng);
        self.run_bias = bias;
        self.run_activity_factor = activity_factor;
    }

    /// Begins executing `handle` at `now`. Returns the generation to attach
    /// to the completion event and the predicted completion time.
    ///
    /// # Panics
    ///
    /// Panics if a kernel is already running or the handle is unknown.
    pub fn begin_execution(
        &mut self,
        handle: KernelHandle,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (u64, SimTime) {
        assert!(self.running.is_none(), "device already busy");
        let desc = self
            .kernels
            .get(handle.0)
            .unwrap_or_else(|| panic!("unknown kernel handle {}", handle.0));

        // Re-apply warm-up if the device sat idle long enough to go cold.
        if let Some(end) = self.last_busy_end {
            if now.saturating_duration_since(end) >= self.variation.cold_after {
                self.execs_since_cold = 0;
            }
        }

        let warmup = self.variation.warmup_factor(self.execs_since_cold);
        let noise: ExecutionNoise = self.variation.sample_execution_noise(rng);
        let factor = warmup * self.run_bias * noise.factor();
        let sampled_ref_duration = desc.base_exec.mul_f64(factor);

        self.generation += 1;
        self.running = Some(RunningKernel {
            handle,
            progress: 0.0,
            sampled_ref_duration,
            start: now,
            last_advance: now,
            execs_since_cold_at_start: self.execs_since_cold,
            outlier: noise.is_outlier(),
        });
        let end = self.predicted_end(now).expect("just started");
        (self.generation, end)
    }

    /// Integrates progress up to `now` at the current frequency.
    fn advance_progress(&mut self, now: SimTime) {
        let f_ref = self.f_ref_mhz;
        let f = self.f_mhz;
        if let Some(r) = &mut self.running {
            let desc = &self.kernels[r.handle.0];
            let dt = now.saturating_duration_since(r.last_advance);
            if !dt.is_zero() {
                let duration_at_f = r
                    .sampled_ref_duration
                    .mul_f64(desc.duration_factor(f, f_ref));
                let rate = 1.0 / duration_at_f.as_secs_f64();
                r.progress = (r.progress + dt.as_secs_f64() * rate).min(1.0);
                r.last_advance = now;
            }
        }
    }

    /// Predicted completion time of the running kernel at the current
    /// frequency, or `None` when idle.
    pub fn predicted_end(&self, now: SimTime) -> Option<SimTime> {
        let r = self.running.as_ref()?;
        let desc = &self.kernels[r.handle.0];
        let duration_at_f = r
            .sampled_ref_duration
            .mul_f64(desc.duration_factor(self.f_mhz, self.f_ref_mhz));
        let elapsed_since_advance = now.saturating_duration_since(r.last_advance);
        let progressed =
            r.progress + elapsed_since_advance.as_secs_f64() / duration_at_f.as_secs_f64();
        let remaining = (1.0 - progressed).max(0.0);
        Some(now + duration_at_f.mul_f64(remaining))
    }

    /// Changes the core frequency at `now`. If a kernel is running, its
    /// progress is integrated first and a new generation is issued so the
    /// caller can reschedule the completion event. Returns the new
    /// `(generation, predicted_end)` if a kernel is running.
    pub fn set_frequency(&mut self, f_mhz: f64, now: SimTime) -> Option<(u64, SimTime)> {
        if (f_mhz - self.f_mhz).abs() < f64::EPSILON {
            return None;
        }
        self.advance_progress(now);
        self.f_mhz = f_mhz;
        if self.running.is_some() {
            self.generation += 1;
            let end = self.predicted_end(now).expect("running");
            Some((self.generation, end))
        } else {
            None
        }
    }

    /// Completes the running kernel at `now` if `generation` is current.
    /// Returns the execution record, or `None` for a stale completion.
    pub fn complete(&mut self, generation: u64, now: SimTime) -> Option<ExecutionRecord> {
        if generation != self.generation || self.running.is_none() {
            return None;
        }
        let r = self.running.take().expect("checked above");
        self.execs_since_cold = self.execs_since_cold.saturating_add(1);
        self.last_busy_end = Some(now);
        Some(ExecutionRecord {
            kernel: r.handle,
            start: r.start,
            end: now,
            execs_since_cold: r.execs_since_cold_at_start,
            outlier: r.outlier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(base_us: u64, cf: f64) -> KernelDesc {
        KernelDesc {
            name: "k".into(),
            base_exec: SimDuration::from_micros(base_us),
            freq_insensitive_frac: cf,
            activity: Activity::new(0.9, 0.5, 0.4),
            compute_utilization: 0.8,
            flops: 1.0,
            hbm_bytes: 1.0,
            llc_bytes: 1.0,
            workgroups: 64,
        }
    }

    fn device_no_variation() -> (GpuDevice, KernelHandle) {
        let mut d = GpuDevice::new(VariationConfig::none(), 2100.0, 2100.0);
        let h = d.register_kernel(kernel(100, 0.0)).unwrap();
        (d, h)
    }

    #[test]
    fn registration_validates() {
        let mut d = GpuDevice::new(VariationConfig::none(), 2100.0, 2100.0);
        let mut bad = kernel(100, 0.0);
        bad.workgroups = 0;
        assert!(d.register_kernel(bad).is_err());
        assert_eq!(d.kernel_count(), 0);
        assert!(d.register_kernel(kernel(100, 0.0)).is_ok());
        assert_eq!(d.kernel_count(), 1);
    }

    #[test]
    fn execution_at_reference_frequency_takes_base_time() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        let t0 = SimTime::from_micros(10);
        let (generation, end) = d.begin_execution(h, t0, &mut rng);
        assert_eq!(end, t0 + SimDuration::from_micros(100));
        let rec = d.complete(generation, end).unwrap();
        assert_eq!(rec.duration(), SimDuration::from_micros(100));
        assert!(!rec.outlier);
    }

    #[test]
    fn frequency_drop_midway_stretches_remaining_half() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        let t0 = SimTime::ZERO;
        let (_gen1, _end1) = d.begin_execution(h, t0, &mut rng);
        // At 50 us (half done at 2100 MHz), halve the clock. The remaining
        // half now takes 100 us: total 150 us.
        let t_half = SimTime::from_micros(50);
        let (gen2, end2) = d.set_frequency(1050.0, t_half).unwrap();
        assert_eq!(end2, SimTime::from_micros(150));
        let rec = d.complete(gen2, end2).unwrap();
        assert_eq!(rec.duration(), SimDuration::from_micros(150));
    }

    #[test]
    fn stale_completion_is_discarded() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        let (gen1, end1) = d.begin_execution(h, SimTime::ZERO, &mut rng);
        let (gen2, end2) = d.set_frequency(1050.0, SimTime::from_micros(50)).unwrap();
        assert_ne!(gen1, gen2);
        assert!(
            d.complete(gen1, end1).is_none(),
            "stale event must be ignored"
        );
        assert!(d.complete(gen2, end2).is_some());
    }

    #[test]
    fn memory_bound_kernel_unaffected_by_frequency() {
        let mut d = GpuDevice::new(VariationConfig::none(), 2100.0, 2100.0);
        let h = d.register_kernel(kernel(100, 1.0)).unwrap();
        let mut rng = SimRng::from_streams(0, 0);
        d.begin_execution(h, SimTime::ZERO, &mut rng);
        let (generation, end) = d.set_frequency(700.0, SimTime::from_micros(10)).unwrap();
        assert_eq!(end, SimTime::from_micros(100));
        assert!(d.complete(generation, end).is_some());
    }

    #[test]
    fn warmup_applies_then_decays() {
        let variation = VariationConfig {
            warmup_factors: vec![1.5, 1.2],
            ..VariationConfig::none()
        };
        let mut d = GpuDevice::new(variation, 2100.0, 2100.0);
        let h = d.register_kernel(kernel(100, 0.0)).unwrap();
        let mut rng = SimRng::from_streams(0, 0);

        let mut t = SimTime::ZERO;
        let mut durations = Vec::new();
        for _ in 0..4 {
            let (generation, end) = d.begin_execution(h, t, &mut rng);
            let rec = d.complete(generation, end).unwrap();
            durations.push(rec.duration().as_nanos());
            t = end + SimDuration::from_micros(5);
        }
        assert_eq!(durations[0], 150_000);
        assert_eq!(durations[1], 120_000);
        assert_eq!(durations[2], 100_000);
        assert_eq!(durations[3], 100_000);
    }

    #[test]
    fn long_idle_goes_cold_again() {
        let variation = VariationConfig {
            warmup_factors: vec![2.0],
            cold_after: SimDuration::from_millis(1),
            ..VariationConfig::none()
        };
        let mut d = GpuDevice::new(variation, 2100.0, 2100.0);
        let h = d.register_kernel(kernel(100, 0.0)).unwrap();
        let mut rng = SimRng::from_streams(0, 0);

        let (g, end) = d.begin_execution(h, SimTime::ZERO, &mut rng);
        d.complete(g, end).unwrap();
        // Warm follow-up: no warm-up factor.
        let t1 = end + SimDuration::from_micros(100);
        let (g, end1) = d.begin_execution(h, t1, &mut rng);
        let rec = d.complete(g, end1).unwrap();
        assert_eq!(rec.duration(), SimDuration::from_micros(100));
        // Cold after a long idle: warm-up factor again.
        let t2 = end1 + SimDuration::from_millis(10);
        let (g, end2) = d.begin_execution(h, t2, &mut rng);
        let rec = d.complete(g, end2).unwrap();
        assert_eq!(rec.duration(), SimDuration::from_micros(200));
    }

    #[test]
    fn activity_reflects_running_kernel() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        assert_eq!(d.activity(), Activity::IDLE);
        let (g, end) = d.begin_execution(h, SimTime::ZERO, &mut rng);
        assert!(d.activity().xcd > 0.0);
        assert!(d.is_busy());
        d.complete(g, end);
        assert_eq!(d.activity(), Activity::IDLE);
        assert!(!d.is_busy());
    }

    #[test]
    fn idle_tracking() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        assert_eq!(d.idle_for(SimTime::from_micros(5)), None);
        let (g, end) = d.begin_execution(h, SimTime::ZERO, &mut rng);
        assert_eq!(d.idle_for(end), Some(SimDuration::ZERO));
        d.complete(g, end);
        let later = end + SimDuration::from_micros(30);
        assert_eq!(d.idle_for(later), Some(SimDuration::from_micros(30)));
        assert!(d.busy_within(later, SimDuration::from_micros(50)));
        assert!(!d.busy_within(later, SimDuration::from_micros(10)));
    }

    #[test]
    fn run_bias_shifts_whole_run() {
        let variation = VariationConfig {
            run_bias_frac: 0.5,
            ..VariationConfig::none()
        };
        let mut d = GpuDevice::new(variation, 2100.0, 2100.0);
        let h = d.register_kernel(kernel(100, 0.0)).unwrap();
        let mut rng = SimRng::from_streams(7, 0);
        d.begin_run(&mut rng);

        let mut t = SimTime::ZERO;
        let mut durations = Vec::new();
        for _ in 0..3 {
            let (g, end) = d.begin_execution(h, t, &mut rng);
            let rec = d.complete(g, end).unwrap();
            durations.push(rec.duration().as_nanos());
            t = end + SimDuration::from_micros(5);
        }
        // All executions in the run share the same bias.
        assert_eq!(durations[0], durations[1]);
        assert_eq!(durations[1], durations[2]);
        assert_ne!(durations[0], 100_000, "bias should have moved the time");
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_launch_panics() {
        let (mut d, h) = device_no_variation();
        let mut rng = SimRng::from_streams(0, 0);
        d.begin_execution(h, SimTime::ZERO, &mut rng);
        d.begin_execution(h, SimTime::from_micros(1), &mut rng);
    }
}
