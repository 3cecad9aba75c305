//! The simulation engine: couples the host, device, firmware, thermal model,
//! and telemetry on a single discrete-event timeline.
//!
//! A [`Simulation`] persists across scripts — clocks keep advancing, the die
//! stays warm, the power-management firmware remembers its state — exactly
//! like a long-lived profiling session on a real node. Each call to
//! [`Simulation::run_script`] interprets one host-side [`Script`] and
//! returns the observable [`RunTrace`].

use crate::clock::{CpuClock, GpuClock};
use crate::config::SimConfig;
use crate::device::GpuDevice;
use crate::dvfs::{PmFirmware, PmInput, PowerEstimate};
use crate::error::{SimError, SimResult};
use crate::event::{HybridQueue, Popped};
use crate::kernel::{KernelDesc, KernelHandle};
use crate::power::{FreqFactors, PowerModel};
use crate::rng::SimRng;
use crate::script::{HostOp, Script};
use crate::session::{AbortHandle, NoopSink, TelemetryEvent, TelemetrySink};
use crate::telemetry::{AveragingPowerLogger, SampleRing};
use crate::thermal::ThermalState;
use crate::time::{CpuTime, SimDuration, SimTime};
use crate::trace::{RunTrace, TimedExecution, TimestampRead, TrueExecution};

/// Periodic slots of the hot-loop queue: the four free-running
/// telemetry/control streams occupy fixed O(1) cursors in the
/// [`HybridQueue`]; only the irregular host/kernel events below go
/// through its heap half.
const SLOT_SENSOR: usize = 0;
const SLOT_PM_TICK: usize = 1;
const SLOT_LOGGER_EMIT: usize = 2;
const SLOT_COARSE_EMIT: usize = 3;
/// Number of periodic slots.
const PERIODIC_SLOTS: usize = 4;

/// Irregular simulator events (the heap half of the queue); the strictly
/// periodic streams are the `SLOT_*` cursors above.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Host continues execution.
    HostResume(HostPhase),
    /// The running kernel (of this generation) finishes.
    KernelEnd { generation: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum HostPhase {
    /// Interpret the next script operation.
    NextOp,
    /// Dispatch latency elapsed: the kernel begins on the GPU.
    KernelBegin,
    /// Completion latency elapsed: the host observes the kernel end.
    KernelComplete,
}

#[derive(Debug)]
struct LaunchState {
    kernel: KernelHandle,
    total: u32,
    completed: u32,
    cpu_start_pending: CpuTime,
}

#[derive(Debug)]
struct ScriptState {
    ops: Vec<HostOp>,
    op_idx: usize,
    launch: Option<LaunchState>,
    trace: RunTrace,
    done: bool,
    /// Index of the blocking op in flight, for `OpFinished` emission.
    pending_op: Option<usize>,
    /// Set when an abort cut the script short.
    aborted: bool,
}

/// Cumulative hot-loop counters for one simulated session.
///
/// Harvested by the campaign executor after each entry so fleet-mode
/// workers can report engine throughput alongside their results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped off the queue across all scripts run so far.
    pub events_popped: u64,
    /// High-water mark of the pending-event count.
    pub max_queue_depth: usize,
    /// Scripts run to completion (including aborted ones).
    pub scripts_run: u64,
    /// Busy PM ticks whose running window average could not settle the
    /// firmware's decision, so the window was folded exactly (see
    /// [`PmFirmware::tick_busy`]).
    pub pm_exact_folds: u64,
}

/// Loop-invariant values hoisted out of the per-event handlers: periods,
/// window lengths, fallback constants, and the sensor-cadence thermal
/// decay are fixed for the life of a session (the configuration is
/// immutable after construction), so the hot loop never re-derives them.
#[derive(Debug, Clone, Copy)]
struct HotLoop {
    sensor_period: SimDuration,
    pm_period: SimDuration,
    logger_period: SimDuration,
    coarse_period: SimDuration,
    /// Busy detection reacts fast (a couple of control periods); only
    /// the cap decision uses the long slow-PPT power window.
    busy_window: SimDuration,
    /// `idle_for` handed to the firmware when the device has never run.
    idle_fallback: SimDuration,
    /// Thermal relaxation factor for one sensor period.
    sensor_decay: f64,
    completion_latency: SimDuration,
    /// Record [`crate::trace::GroundTruth`]'s timelines (see
    /// [`crate::telemetry::TelemetryConfig::record_instant_trace`]).
    record_truth: bool,
}

/// A persistent simulated profiling session on one GPU.
///
/// # Examples
///
/// ```
/// use fingrav_sim::config::SimConfig;
/// use fingrav_sim::engine::Simulation;
/// use fingrav_sim::kernel::KernelDesc;
/// use fingrav_sim::power::Activity;
/// use fingrav_sim::script::Script;
/// use fingrav_sim::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulation::new(SimConfig::default(), 42)?;
/// let kernel = sim.register_kernel(KernelDesc {
///     name: "demo".into(),
///     base_exec: SimDuration::from_micros(200),
///     freq_insensitive_frac: 0.2,
///     activity: Activity::new(0.9, 0.5, 0.4),
///     compute_utilization: 0.8,
///     flops: 1e11,
///     hbm_bytes: 4e8,
///     llc_bytes: 1e9,
///     workgroups: 1024,
/// })?;
/// let script = Script::builder()
///     .begin_run()
///     .start_power_logger()
///     .launch_timed(kernel, 8)
///     .sleep(SimDuration::from_millis(2))
///     .stop_power_logger()
///     .build();
/// let trace = sim.run_script(&script)?;
/// assert_eq!(trace.executions.len(), 8);
/// assert!(!trace.power_logs.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    master_seed: u64,
    now: SimTime,
    queue: HybridQueue<Event, PERIODIC_SLOTS>,
    cpu_clock: CpuClock,
    gpu_clock: GpuClock,
    device: GpuDevice,
    power_model: PowerModel,
    thermal: ThermalState,
    pm: PmFirmware,
    logger: AveragingPowerLogger,
    coarse: AveragingPowerLogger,
    /// Recent sensor samples: both loggers and the PM window read them.
    samples: SampleRing,
    rng: SimRng,
    script: Option<ScriptState>,
    hot: HotLoop,
    /// Frequency-dependent power factors cached on the exact bit pattern
    /// of the core frequency they were computed for: DVFS moves a few
    /// dozen times per run while the sensor fires thousands of times.
    freq_cache: (u64, FreqFactors),
    /// Pooled ops buffer, reused across scripts instead of a per-run
    /// `to_vec`.
    ops_scratch: Vec<HostOp>,
    stats: EngineStats,
}

impl Simulation {
    /// Creates a session with the given configuration and master seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(cfg: SimConfig, seed: u64) -> SimResult<Self> {
        cfg.validate()
            .map_err(|reason| SimError::InvalidConfig { reason })?;
        let cpu_clock = CpuClock::new(cfg.clocks.cpu_boot_offset_ns);
        let gpu_clock = GpuClock::new(
            cfg.clocks.gpu_counter_hz,
            cfg.clocks.gpu_drift_ppm,
            cfg.clocks.gpu_epoch_ticks,
        );
        let device = GpuDevice::new(cfg.variation.clone(), cfg.pm.f_max_mhz, cfg.pm.idle_f_mhz);
        let power_model = PowerModel::new(cfg.power.clone());
        let thermal = ThermalState::new(cfg.thermal);
        let pm = PmFirmware::new(cfg.pm);
        let logger = AveragingPowerLogger::new(cfg.telemetry.logger_window);
        let coarse = AveragingPowerLogger::new(cfg.telemetry.coarse_window);
        let samples = SampleRing::new(
            cfg.telemetry.sensor_period,
            cfg.telemetry.logger_window.max(cfg.telemetry.coarse_window),
            cfg.pm.power_window,
        );
        let hot = HotLoop {
            sensor_period: cfg.telemetry.sensor_period,
            pm_period: cfg.pm.control_period,
            logger_period: cfg.telemetry.logger_period,
            coarse_period: cfg.telemetry.coarse_period,
            busy_window: cfg.pm.control_period * 2,
            idle_fallback: SimDuration::from_millis(1_000_000),
            sensor_decay: thermal.decay_for(cfg.telemetry.sensor_period.as_secs_f64()),
            completion_latency: cfg.host.completion_latency,
            record_truth: cfg.telemetry.record_instant_trace,
        };
        let f0 = device.f_mhz();
        let freq_cache = (f0.to_bits(), power_model.freq_factors(f0));
        Ok(Simulation {
            now: SimTime::ZERO,
            master_seed: seed,
            queue: HybridQueue::new(),
            cpu_clock,
            gpu_clock,
            device,
            power_model,
            thermal,
            pm,
            logger,
            coarse,
            samples,
            rng: SimRng::from_streams(seed, 0),
            script: None,
            hot,
            freq_cache,
            ops_scratch: Vec::new(),
            stats: EngineStats::default(),
            cfg,
        })
    }

    /// The master seed this session was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Forks an isolated, reproducible sibling device for shard `stream`.
    ///
    /// The fork shares this session's configuration but starts from a cold
    /// boot with its own deterministic seed
    /// (`mix_seed(master_seed, stream)`), so concurrent shards of a
    /// campaign draw statistically independent noise yet reproduce exactly
    /// across runs and across serial/parallel execution orders. Nothing of
    /// the parent's mutable state (heat, clock ramp, registered kernels)
    /// carries over — each shard is a fresh profiling session, which is
    /// precisely the isolation the paper's measurement guidance #2 demands.
    ///
    /// Construction is cheap: besides a handful of empty queues it sizes
    /// one sensor-sample ring from the telemetry and PM windows, which
    /// fills only as the sensor samples. Forking per kernel in a
    /// many-kernel campaign costs microseconds against seconds of
    /// profiling work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the (shared) configuration
    /// fails validation.
    pub fn fork(&self, stream: u64) -> SimResult<Simulation> {
        Simulation::new(
            self.cfg.clone(),
            crate::rng::mix_seed(self.master_seed, stream),
        )
    }

    /// The session configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulation time (ground truth; tests only).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ground-truth CPU clock (tests only — the methodology must not use it).
    pub fn cpu_clock(&self) -> &CpuClock {
        &self.cpu_clock
    }

    /// Ground-truth GPU clock (tests only — the methodology must not use it).
    pub fn gpu_clock(&self) -> &GpuClock {
        &self.gpu_clock
    }

    /// The power model in effect.
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// Current die temperature, °C (ground truth).
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Current core frequency, MHz (ground truth).
    pub fn f_mhz(&self) -> f64 {
        self.device.f_mhz()
    }

    /// Cumulative hot-loop counters for this session: events popped,
    /// queue-depth high-water mark, scripts completed, exact PM folds.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            max_queue_depth: self.queue.high_water(),
            ..self.stats
        }
    }

    /// Registers a kernel for launching, validating its descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidKernel`] if the descriptor is invalid.
    pub fn register_kernel(&mut self, desc: KernelDesc) -> SimResult<KernelHandle> {
        self.device
            .register_kernel(desc)
            .map_err(|reason| SimError::InvalidKernel { reason })
    }

    /// Looks up a registered kernel descriptor.
    pub fn kernel(&self, handle: KernelHandle) -> Option<&KernelDesc> {
        self.device.kernel(handle)
    }

    /// Runs one host script to completion and returns its trace — the
    /// batch entry point, equivalent to a streaming session with a no-op
    /// sink (it *is* one; the traces are bit-identical).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] if the script launches an
    /// unregistered kernel.
    pub fn run_script(&mut self, script: &Script) -> SimResult<RunTrace> {
        self.run_script_observed(script, &mut NoopSink, &AbortHandle::new())
    }

    /// Runs one host script as a streaming session: every observable
    /// moment (op start/finish, log emission, launch completion, timestamp
    /// read) is pushed into `sink` *while the script runs*, and `abort`
    /// requests a cooperative stop at the next host boundary.
    ///
    /// With a [`NoopSink`] and a never-fired abort this is bit-identical
    /// to [`Simulation::run_script`]: event emission never touches the
    /// RNG or the event queue. An aborted session returns a well-formed
    /// partial trace tagged [`RunTrace::aborted`]; because aborts only
    /// take effect between ops and between launch executions, the device
    /// is always quiescent afterwards and the session remains usable.
    ///
    /// The loop is monomorphized over the sink type: statically-known
    /// sinks (closures, [`NoopSink`]) inline their `on_event` into the
    /// loop body, while object-safe callers can still pass
    /// `&mut dyn TelemetrySink` (`S = dyn TelemetrySink`).
    ///
    /// See [`crate::session`] for the event-ordering guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] if the script launches an
    /// unregistered kernel.
    pub fn run_script_observed<S: TelemetrySink + ?Sized>(
        &mut self,
        script: &Script,
        sink: &mut S,
        abort: &AbortHandle,
    ) -> SimResult<RunTrace> {
        // Validate all kernel references up front, counting the expected
        // trace sizes in the same pass so the vectors never regrow.
        let mut expected_execs = 0usize;
        let mut expected_reads = 0usize;
        for op in script.ops() {
            match op {
                HostOp::LaunchTimed { kernel, executions } => {
                    if self.device.kernel(*kernel).is_none() {
                        return Err(SimError::UnknownKernel {
                            index: kernel.index(),
                        });
                    }
                    expected_execs += *executions as usize;
                }
                HostOp::ReadGpuTimestamp => expected_reads += 1,
                _ => {}
            }
        }

        let mut ops = std::mem::take(&mut self.ops_scratch);
        ops.clear();
        ops.extend_from_slice(script.ops());
        let mut trace = RunTrace::default();
        trace.executions.reserve(expected_execs);
        trace.timestamp_reads.reserve(expected_reads);
        if self.hot.record_truth {
            trace.truth.executions.reserve(expected_execs);
            // DVFS moves a few dozen times per run at most.
            trace.truth.freq_changes.reserve(32);
        }

        self.script = Some(ScriptState {
            ops,
            op_idx: 0,
            launch: None,
            trace,
            done: false,
            pending_op: None,
            aborted: false,
        });

        // Seed the recurring background events on their global grids so the
        // loggers are effectively free-running across scripts.
        self.arm_on_grid(self.hot.sensor_period, SLOT_SENSOR);
        self.arm_on_grid(self.hot.pm_period, SLOT_PM_TICK);
        self.arm_on_grid(self.hot.logger_period, SLOT_LOGGER_EMIT);
        self.arm_on_grid(self.hot.coarse_period, SLOT_COARSE_EMIT);

        // Record the initial frequency so the truth timeline has an origin.
        if self.hot.record_truth {
            let f0 = self.device.f_mhz();
            if let Some(s) = self.script.as_mut() {
                s.trace.truth.freq_changes.push((self.now, f0));
            }
        }

        sink.on_event(TelemetryEvent::ScriptStarted {
            ops: script.ops().len(),
        });

        // Kick off the host immediately.
        self.handle_host(HostPhase::NextOp, sink, abort);

        while !self.script.as_ref().expect("script in progress").done {
            let (t, ev) = self
                .queue
                .pop()
                .expect("no pending events while the script is blocked");
            debug_assert!(t >= self.now, "event time precedes current time");
            self.now = t;
            self.stats.events_popped += 1;
            match ev {
                Popped::Periodic(SLOT_SENSOR) => self.handle_sensor(),
                Popped::Periodic(SLOT_PM_TICK) => self.handle_pm_tick(),
                Popped::Periodic(SLOT_LOGGER_EMIT) => self.handle_logger_emit(sink),
                Popped::Periodic(SLOT_COARSE_EMIT) => self.handle_coarse_emit(sink),
                Popped::Periodic(slot) => unreachable!("unknown periodic slot {slot}"),
                Popped::Irregular(Event::HostResume(phase)) => {
                    self.handle_host(phase, sink, abort);
                }
                Popped::Irregular(Event::KernelEnd { generation }) => {
                    self.handle_kernel_end(generation);
                }
            }
        }

        let mut state = self.script.take().expect("script state");
        // Return the ops buffer to the pool for the next script.
        self.ops_scratch = std::mem::take(&mut state.ops);
        state.trace.aborted = state.aborted;
        state.trace.power_logs = self.logger.drain_logs();
        state.trace.coarse_logs = self.coarse.drain_logs();
        state.trace.truth.final_temp_c = self.thermal.temp_c();
        // Drop leftover background/stale events; the next script reseeds.
        self.queue.clear();
        self.stats.scripts_run += 1;
        sink.on_event(TelemetryEvent::ScriptDone {
            aborted: state.aborted,
        });
        Ok(state.trace)
    }

    /// Convenience: advance the session through `d` of host idle time.
    ///
    /// # Errors
    ///
    /// Propagates script-execution errors (none are possible for a sleep).
    pub fn advance_idle(&mut self, d: SimDuration) -> SimResult<()> {
        let script = Script::builder().sleep(d).build();
        self.run_script(&script).map(|_| ())
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Arms a periodic slot on its global grid, exactly where the old
    /// heap-based queue scheduled the matching event: both the seeding at
    /// script start and the re-arm after each firing use the same
    /// `(now / p + 1) · p` formula (for a firing at a multiple of `p`
    /// this equals `t + p`), so the sequence counter advances at
    /// identical program points and FIFO tie order is preserved.
    fn arm_on_grid(&mut self, period: SimDuration, slot: usize) {
        let p = period.as_nanos();
        let next = (self.now.as_nanos() / p + 1) * p;
        self.queue.arm(slot, SimTime::from_nanos(next));
    }

    /// Re-arms a periodic slot from inside its own handler, where `now` is
    /// the slot's armed firing time and therefore already a multiple of
    /// `period` — so `now + period` equals [`Simulation::arm_on_grid`]'s
    /// `(now / p + 1) · p` exactly, without the division. The division-free
    /// form matters: the grid divide was the single largest per-event cost
    /// left in the loop (one `u64` divide per periodic event).
    fn rearm_from_handler(&mut self, period: SimDuration, slot: usize) {
        debug_assert_eq!(
            self.now.as_nanos() % period.as_nanos(),
            0,
            "periodic handler fired off its own grid"
        );
        self.queue.arm(
            slot,
            SimTime::from_nanos(self.now.as_nanos() + period.as_nanos()),
        );
    }

    fn handle_sensor(&mut self) {
        let t = self.now;
        let f = self.device.f_mhz();
        if f.to_bits() != self.freq_cache.0 {
            self.freq_cache = (f.to_bits(), self.power_model.freq_factors(f));
        }
        let power = self.power_model.instantaneous_with(
            self.device.activity(),
            self.freq_cache.1,
            self.thermal.temp_c(),
        );
        self.thermal
            .step_decayed(self.hot.sensor_decay, power.total());
        self.samples.push(t, power);

        if self.hot.record_truth {
            if let Some(s) = self.script.as_mut() {
                s.trace.truth.instant_power.push((t, power));
            }
        }
        self.rearm_from_handler(self.hot.sensor_period, SLOT_SENSOR);
    }

    fn handle_pm_tick(&mut self) {
        let t = self.now;
        let new_f = if !self.device.busy_within(t, self.hot.busy_window) {
            // The firmware's idle path never reads the window average (a
            // documented contract of `PmFirmware::tick`); NaN poisons any
            // accidental read.
            self.pm.tick(PmInput {
                avg_power_w: f64::NAN,
                busy_in_window: false,
                idle_for: self.device.idle_for(t).unwrap_or(self.hot.idle_fallback),
            })
        } else if let Some(estimate) = self.samples.pm_estimate() {
            // The running average settles most busy ticks; the firmware
            // asks for the exact fold only when it could not.
            let (samples, folds) = (&mut self.samples, &mut self.stats.pm_exact_folds);
            self.pm.tick_busy(estimate, || {
                *folds += 1;
                samples.pm_exact_average()
            })
        } else {
            let idle = self
                .power_model
                .idle_power(self.device.f_mhz(), self.thermal.temp_c())
                .total();
            self.pm.tick_busy(PowerEstimate::exact(idle), || idle)
        };
        if (new_f - self.device.f_mhz()).abs() > f64::EPSILON {
            if self.hot.record_truth {
                if let Some(s) = self.script.as_mut() {
                    s.trace.truth.freq_changes.push((t, new_f));
                }
            }
            if let Some((generation, end)) = self.device.set_frequency(new_f, t) {
                self.queue.schedule(end, Event::KernelEnd { generation });
            }
        }
        self.rearm_from_handler(self.hot.pm_period, SLOT_PM_TICK);
    }

    fn handle_logger_emit<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        let ticks = self.gpu_clock.ticks_at(self.now);
        if let Some(log) = self.logger.emit(&self.samples, self.now, ticks) {
            sink.on_event(TelemetryEvent::PowerLogEmitted { coarse: false, log });
        }
        self.rearm_from_handler(self.hot.logger_period, SLOT_LOGGER_EMIT);
    }

    fn handle_coarse_emit<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        let ticks = self.gpu_clock.ticks_at(self.now);
        if let Some(log) = self.coarse.emit(&self.samples, self.now, ticks) {
            sink.on_event(TelemetryEvent::PowerLogEmitted { coarse: true, log });
        }
        self.rearm_from_handler(self.hot.coarse_period, SLOT_COARSE_EMIT);
    }

    fn handle_kernel_end(&mut self, generation: u64) {
        let t = self.now;
        if let Some(record) = self.device.complete(generation, t) {
            let completion = self.hot.completion_latency;
            if self.hot.record_truth {
                let s = self.script.as_mut().expect("script in progress");
                let index = s.launch.as_ref().map(|l| l.completed).unwrap_or(u32::MAX);
                s.trace.truth.executions.push(TrueExecution {
                    kernel: record.kernel,
                    start: record.start,
                    end: record.end,
                    index,
                    execs_since_cold: record.execs_since_cold,
                    outlier: record.outlier,
                });
            }
            self.queue
                .schedule(t + completion, Event::HostResume(HostPhase::KernelComplete));
        }
        // Stale generation: a frequency change rescheduled the completion.
    }

    /// Reads the host CPU clock with timer noise.
    fn cpu_now_noisy(&mut self, t: SimTime) -> CpuTime {
        let noise = if self.cfg.host.timer_noise_ns > 0.0 {
            self.rng.normal(0.0, self.cfg.host.timer_noise_ns).round() as i64
        } else {
            0
        };
        self.cpu_clock.now(t).offset_nanos(noise)
    }

    fn start_dispatch(&mut self) {
        let t = self.now;
        let cpu_start = self.cpu_now_noisy(t);
        let jitter = self.cfg.host.dispatch_jitter_frac;
        let factor = 1.0 + self.rng.uniform(-jitter, jitter);
        let d = self.cfg.host.dispatch_latency.mul_f64(factor.max(0.0));
        let s = self.script.as_mut().expect("script in progress");
        s.launch
            .as_mut()
            .expect("launch in progress")
            .cpu_start_pending = cpu_start;
        self.queue
            .schedule(t + d, Event::HostResume(HostPhase::KernelBegin));
    }

    fn handle_host<S: TelemetrySink + ?Sized>(
        &mut self,
        phase: HostPhase,
        sink: &mut S,
        abort: &AbortHandle,
    ) {
        let t = self.now;
        match phase {
            HostPhase::KernelBegin => {
                let kernel = self
                    .script
                    .as_ref()
                    .and_then(|s| s.launch.as_ref())
                    .expect("launch in progress")
                    .kernel;
                let (generation, end) = self.device.begin_execution(kernel, t, &mut self.rng);
                self.queue.schedule(end, Event::KernelEnd { generation });
            }
            HostPhase::KernelComplete => {
                let cpu_end = self.cpu_now_noisy(t);
                let s = self.script.as_mut().expect("script in progress");
                let launch = s.launch.as_mut().expect("launch in progress");
                let execution = TimedExecution {
                    kernel: launch.kernel,
                    index: launch.completed,
                    cpu_start: launch.cpu_start_pending,
                    cpu_end,
                };
                s.trace.executions.push(execution);
                launch.completed += 1;
                let finished = launch.completed >= launch.total;
                sink.on_event(TelemetryEvent::LaunchCompleted { execution });
                if finished {
                    self.script.as_mut().expect("script").launch = None;
                    self.process_ops(sink, abort);
                } else if abort.is_aborted() {
                    // Cooperative stop between executions: the launch op is
                    // cut off (no OpFinished), the device is quiescent.
                    let s = self.script.as_mut().expect("script");
                    s.launch = None;
                    s.pending_op = None;
                    s.done = true;
                    s.aborted = true;
                } else {
                    self.start_dispatch();
                }
            }
            HostPhase::NextOp => self.process_ops(sink, abort),
        }
    }

    /// Emits the `OpFinished` of the blocking op that just completed, if
    /// one is pending.
    fn finish_pending_op<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        if let Some(index) = self.script.as_mut().and_then(|s| s.pending_op.take()) {
            sink.on_event(TelemetryEvent::OpFinished { index });
        }
    }

    /// Interprets script operations until one blocks (schedules a resume
    /// event), the script ends, or an abort is observed at an op boundary.
    fn process_ops<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S, abort: &AbortHandle) {
        self.finish_pending_op(sink);
        loop {
            let t = self.now;
            let (op_idx, op) = {
                let s = self.script.as_ref().expect("script in progress");
                match s.ops.get(s.op_idx) {
                    Some(op) => (s.op_idx, *op),
                    None => {
                        // Out of ops: the script *finished*. This is
                        // checked before the abort flag so a request that
                        // lands during the final op never mislabels a
                        // complete trace as aborted.
                        self.script.as_mut().expect("script").done = true;
                        return;
                    }
                }
            };
            if abort.is_aborted() {
                let s = self.script.as_mut().expect("script in progress");
                s.done = true;
                s.aborted = true;
                return;
            }
            sink.on_event(TelemetryEvent::OpStarted { index: op_idx, op });
            match op {
                HostOp::Sleep(d) => {
                    self.advance_op(Some(op_idx));
                    self.queue
                        .schedule(t + d, Event::HostResume(HostPhase::NextOp));
                    return;
                }
                HostOp::SleepUniform { min, max } => {
                    let ns = self.rng.uniform_u64(min.as_nanos(), max.as_nanos());
                    self.advance_op(Some(op_idx));
                    self.queue.schedule(
                        t + SimDuration::from_nanos(ns),
                        Event::HostResume(HostPhase::NextOp),
                    );
                    return;
                }
                HostOp::ReadGpuTimestamp => {
                    let jitter = self.cfg.host.timestamp_rtt_jitter_frac;
                    let factor = 1.0 + self.rng.uniform(-jitter, jitter);
                    let rtt = self.cfg.host.timestamp_rtt.mul_f64(factor.max(0.0));
                    let sample_at = t + rtt.mul_f64(self.cfg.host.timestamp_sample_frac);
                    let ticks = self.gpu_clock.ticks_at(sample_at);
                    let cpu_before = self.cpu_now_noisy(t);
                    let cpu_after = self.cpu_now_noisy(t + rtt);
                    let read = TimestampRead {
                        cpu_before,
                        cpu_after,
                        ticks,
                    };
                    let s = self.script.as_mut().expect("script in progress");
                    s.trace.timestamp_reads.push(read);
                    sink.on_event(TelemetryEvent::GpuTimestampRead { read });
                    self.advance_op(Some(op_idx));
                    self.queue
                        .schedule(t + rtt, Event::HostResume(HostPhase::NextOp));
                    return;
                }
                HostOp::LaunchTimed { kernel, executions } => {
                    if executions == 0 {
                        self.advance_op(None);
                        sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                        continue;
                    }
                    self.advance_op(Some(op_idx));
                    self.script.as_mut().expect("script").launch = Some(LaunchState {
                        kernel,
                        total: executions,
                        completed: 0,
                        cpu_start_pending: CpuTime::from_nanos(0),
                    });
                    self.start_dispatch();
                    return;
                }
                HostOp::StartPowerLogger => {
                    self.logger.set_enabled(true);
                    self.advance_op(None);
                    sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                }
                HostOp::StopPowerLogger => {
                    self.logger.set_enabled(false);
                    self.advance_op(None);
                    sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                }
                HostOp::StartCoarseLogger => {
                    self.coarse.set_enabled(true);
                    self.advance_op(None);
                    sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                }
                HostOp::StopCoarseLogger => {
                    self.coarse.set_enabled(false);
                    self.advance_op(None);
                    sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                }
                HostOp::BeginRun => {
                    self.device.begin_run(&mut self.rng);
                    self.advance_op(None);
                    sink.on_event(TelemetryEvent::OpFinished { index: op_idx });
                }
            }
        }
    }

    /// Advances past the current op, recording it as the in-flight
    /// blocking op when `pending` is set (its `OpFinished` fires when the
    /// host resumes).
    fn advance_op(&mut self, pending: Option<usize>) {
        let s = self.script.as_mut().expect("script in progress");
        s.op_idx += 1;
        s.pending_op = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::Activity;

    fn gemm_like(base_us: u64, cf: f64, activity: Activity) -> KernelDesc {
        KernelDesc {
            name: format!("k-{base_us}us"),
            base_exec: SimDuration::from_micros(base_us),
            freq_insensitive_frac: cf,
            activity,
            compute_utilization: 0.8,
            flops: 1e11,
            hbm_bytes: 4e8,
            llc_bytes: 1e9,
            workgroups: 1024,
        }
    }

    fn heavy() -> KernelDesc {
        gemm_like(1600, 0.12, Activity::new(0.95, 0.5, 0.7))
    }

    fn light() -> KernelDesc {
        gemm_like(30, 0.85, Activity::new(0.25, 0.5, 0.35))
    }

    fn sim(seed: u64) -> Simulation {
        Simulation::new(SimConfig::default(), seed).unwrap()
    }

    #[test]
    fn empty_script_is_a_noop() {
        let mut s = sim(1);
        let trace = s.run_script(&Script::new()).unwrap();
        assert!(trace.executions.is_empty());
        assert!(trace.power_logs.is_empty());
    }

    #[test]
    fn sleep_advances_time() {
        let mut s = sim(1);
        let before = s.now();
        s.advance_idle(SimDuration::from_millis(5)).unwrap();
        assert!(s.now() >= before + SimDuration::from_millis(5));
    }

    #[test]
    fn unknown_kernel_rejected() {
        let mut s = sim(1);
        let bogus = Script::builder()
            .launch_timed(KernelHandle::default(), 1)
            .build();
        assert!(matches!(
            s.run_script(&bogus),
            Err(SimError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn executions_are_timed_and_counted() {
        let mut cfg = SimConfig::deterministic();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 1).unwrap();
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder().begin_run().launch_timed(k, 5).build();
        let trace = s.run_script(&script).unwrap();
        assert_eq!(trace.executions.len(), 5);
        assert_eq!(trace.truth.executions.len(), 5);
        for (i, e) in trace.executions.iter().enumerate() {
            assert_eq!(e.index, i as u32);
            assert!(e.duration_ns() > 0);
        }
        // CPU-observed duration is GPU time plus overheads.
        let truth = trace.truth.executions[4].duration().as_nanos();
        let cpu = trace.executions[4].duration_ns();
        assert!(cpu > truth, "cpu {cpu} vs truth {truth}");
        assert!(cpu < truth + 20_000, "overheads should be microseconds");
    }

    #[test]
    fn power_logs_emitted_once_per_period() {
        let mut s = sim(2);
        let k = s.register_kernel(heavy()).unwrap();
        let script = Script::builder()
            .start_power_logger()
            .launch_timed(k, 4)
            .sleep(SimDuration::from_millis(1))
            .stop_power_logger()
            .build();
        let trace = s.run_script(&script).unwrap();
        // ~4 executions x 1.6ms+ plus sleep: expect at least 6 logs.
        assert!(
            trace.power_logs.len() >= 6,
            "{} logs",
            trace.power_logs.len()
        );
        // Tick stamps strictly increase.
        for w in trace.power_logs.windows(2) {
            assert!(w[1].ticks.as_raw() > w[0].ticks.as_raw());
        }
    }

    #[test]
    fn logger_disabled_means_no_logs() {
        let mut s = sim(3);
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder()
            .launch_timed(k, 10)
            .sleep(SimDuration::from_millis(3))
            .build();
        let trace = s.run_script(&script).unwrap();
        assert!(trace.power_logs.is_empty());
    }

    #[test]
    fn heavy_kernel_triggers_throttling() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 4).unwrap();
        let k = s.register_kernel(heavy()).unwrap();
        let script = Script::builder().begin_run().launch_timed(k, 10).build();
        let trace = s.run_script(&script).unwrap();
        let freqs: Vec<f64> = trace.truth.freq_changes.iter().map(|&(_, f)| f).collect();
        let cfg = SimConfig::default();
        // The clock ramps well out of idle...
        let max_f = freqs.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max_f > 1400.0, "should ramp well above idle, max {max_f}");
        // ...but never to full boost: the cap engages first and throttles.
        let peak_idx = freqs.iter().position(|&f| f >= max_f).expect("peak");
        let min_after = freqs[peak_idx..].iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            min_after < max_f - cfg.pm.throttle_step_mhz * 0.9,
            "should throttle after the peak: max {max_f}, min after {min_after}"
        );
        // Instantaneous power transiently exceeds the cap (the Fig. 6 spike).
        let peak_power = trace
            .truth
            .instant_power
            .iter()
            .map(|(_, p)| p.total())
            .fold(0.0_f64, f64::max);
        assert!(
            peak_power > cfg.pm.power_cap_w,
            "peak instantaneous power {peak_power} should exceed the cap"
        );
    }

    #[test]
    fn light_kernel_does_not_hit_deep_throttle() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 5).unwrap();
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder().launch_timed(k, 50).build();
        let trace = s.run_script(&script).unwrap();
        assert!(!trace.truth.freq_changes.is_empty());
        let min_f = trace
            .truth
            .freq_changes
            .iter()
            .map(|&(_, f)| f)
            .fold(f64::MAX, f64::min);
        // Ramp starts at idle frequency; it must never fall below that while
        // running a light kernel.
        assert!(min_f >= SimConfig::default().pm.idle_f_mhz - 1.0);
    }

    #[test]
    fn deterministic_sessions_reproduce_exactly() {
        let run = |seed| {
            let mut s = sim(seed);
            let k = s.register_kernel(heavy()).unwrap();
            let script = Script::builder()
                .begin_run()
                .start_power_logger()
                .launch_timed(k, 6)
                .sleep(SimDuration::from_millis(2))
                .stop_power_logger()
                .build();
            s.run_script(&script).unwrap()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b);
        let c = run(100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn warm_up_executions_are_slower() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 6).unwrap();
        let k = s.register_kernel(heavy()).unwrap();
        let script = Script::builder().begin_run().launch_timed(k, 8).build();
        let trace = s.run_script(&script).unwrap();
        let d: Vec<u64> = trace
            .truth
            .executions
            .iter()
            .map(|e| e.duration().as_nanos())
            .collect();
        // First execution is the slowest (cold + clock ramp).
        let steady = *d.last().unwrap() as f64;
        assert!(
            d[0] as f64 > steady * 1.05,
            "first {} vs steady {steady}",
            d[0]
        );
    }

    #[test]
    fn session_time_persists_across_scripts() {
        let mut s = sim(7);
        let t0 = s.now();
        s.advance_idle(SimDuration::from_millis(1)).unwrap();
        let t1 = s.now();
        s.advance_idle(SimDuration::from_millis(1)).unwrap();
        let t2 = s.now();
        assert!(t1 > t0);
        assert!(t2 > t1);
    }

    #[test]
    fn timestamp_reads_are_recorded() {
        let mut s = sim(8);
        let script = Script::builder()
            .read_gpu_timestamp()
            .sleep(SimDuration::from_micros(100))
            .read_gpu_timestamp()
            .build();
        let trace = s.run_script(&script).unwrap();
        assert_eq!(trace.timestamp_reads.len(), 2);
        let r0 = &trace.timestamp_reads[0];
        let r1 = &trace.timestamp_reads[1];
        assert!(r0.rtt_ns() > 0);
        assert!(r1.ticks.as_raw() > r0.ticks.as_raw());
        // ~100 us apart on a 100 MHz counter is ~10_000 ticks.
        let dt = r1.ticks.ticks_since(r0.ticks);
        assert!((9_000..12_000).contains(&dt), "dt {dt}");
    }

    #[test]
    fn interleaved_kernels_keep_identity() {
        let mut s = sim(9);
        let a = s.register_kernel(light()).unwrap();
        let b = s.register_kernel(heavy()).unwrap();
        let script = Script::builder()
            .launch_timed(a, 2)
            .launch_timed(b, 1)
            .launch_timed(a, 1)
            .build();
        let trace = s.run_script(&script).unwrap();
        let kinds: Vec<usize> = trace.executions.iter().map(|e| e.kernel.index()).collect();
        assert_eq!(kinds, vec![a.index(), a.index(), b.index(), a.index()]);
    }

    #[test]
    fn instant_trace_recorded_when_enabled() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 10).unwrap();
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder()
            .launch_timed(k, 3)
            .sleep(SimDuration::from_millis(1))
            .build();
        let trace = s.run_script(&script).unwrap();
        assert!(!trace.truth.instant_power.is_empty());
    }

    #[test]
    fn logger_left_enabled_keeps_running_into_the_next_script() {
        // The logger is free-running hardware: a script that forgets to
        // stop it leaves emission enabled for subsequent scripts.
        let mut s = sim(12);
        let k = s.register_kernel(light()).unwrap();
        let first = Script::builder()
            .start_power_logger()
            .launch_timed(k, 5)
            .build();
        let t1 = s.run_script(&first).unwrap();
        // No StopPowerLogger: the next script's idle time still logs.
        let second = Script::builder().sleep(SimDuration::from_millis(3)).build();
        let t2 = s.run_script(&second).unwrap();
        assert!(!t1.power_logs.is_empty() || !t2.power_logs.is_empty());
        assert!(
            t2.power_logs.len() >= 2,
            "logger should still emit during the second script, got {}",
            t2.power_logs.len()
        );
    }

    #[test]
    fn gpu_timestamps_monotonic_across_scripts() {
        let mut s = sim(13);
        let mut last = 0u64;
        for _ in 0..5 {
            let script = Script::builder()
                .read_gpu_timestamp()
                .sleep(SimDuration::from_micros(500))
                .read_gpu_timestamp()
                .build();
            let trace = s.run_script(&script).unwrap();
            for r in &trace.timestamp_reads {
                assert!(r.ticks.as_raw() > last, "ticks must advance monotonically");
                last = r.ticks.as_raw();
            }
        }
    }

    #[test]
    fn long_idle_parks_the_clock_and_recools_the_device() {
        let mut s = sim(14);
        let k = s.register_kernel(heavy()).unwrap();
        let burst = Script::builder().begin_run().launch_timed(k, 4).build();
        s.run_script(&burst).unwrap();
        let hot_temp = s.temp_c();
        assert!(s.f_mhz() > SimConfig::default().pm.idle_f_mhz);
        // A second of idle: clock parks and the die cools.
        s.advance_idle(SimDuration::from_millis(1000)).unwrap();
        assert_eq!(s.f_mhz(), SimConfig::default().pm.idle_f_mhz);
        assert!(s.temp_c() < hot_temp);
        // The next burst re-pays warm-up (device went cold).
        let trace = s.run_script(&burst).unwrap();
        let d = trace.execution_durations_ns();
        assert!(
            d[0] > *d.last().unwrap(),
            "first execution after a long idle must be slow again"
        );
    }

    #[test]
    fn zero_execution_launch_is_a_noop() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = true;
        let mut s = Simulation::new(cfg, 15).unwrap();
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder().launch_timed(k, 0).build();
        let trace = s.run_script(&script).unwrap();
        assert!(trace.executions.is_empty());
        assert!(trace.truth.executions.is_empty());
    }

    #[test]
    fn engine_stats_accumulate_across_scripts() {
        let mut s = sim(70);
        assert_eq!(s.engine_stats(), EngineStats::default());
        s.advance_idle(SimDuration::from_millis(1)).unwrap();
        let first = s.engine_stats();
        assert!(first.events_popped > 0, "popped {}", first.events_popped);
        assert!(
            first.max_queue_depth >= 4,
            "four periodic streams plus the host must be pending at once, depth {}",
            first.max_queue_depth
        );
        assert_eq!(first.scripts_run, 1);
        s.advance_idle(SimDuration::from_millis(1)).unwrap();
        let second = s.engine_stats();
        assert!(second.events_popped > first.events_popped);
        assert_eq!(second.scripts_run, 2);
    }

    #[test]
    fn simulation_is_send_and_sync() {
        // Campaign shards move fresh simulations into worker threads; this
        // must keep compiling if fields change.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Simulation>();
    }

    #[test]
    fn forks_are_reproducible_and_independent() {
        let parent = sim(21);
        let run = |mut s: Simulation| {
            let k = s.register_kernel(heavy()).unwrap();
            let script = Script::builder()
                .begin_run()
                .start_power_logger()
                .launch_timed(k, 4)
                .sleep(SimDuration::from_millis(1))
                .stop_power_logger()
                .build();
            s.run_script(&script).unwrap()
        };
        // Same stream: bit-identical traces.
        let a = run(parent.fork(3).unwrap());
        let b = run(parent.fork(3).unwrap());
        assert_eq!(a, b);
        // Different streams: independent noise.
        let c = run(parent.fork(4).unwrap());
        assert_ne!(a, c);
        // Fork seeds are derived, not inherited.
        assert_ne!(parent.fork(0).unwrap().master_seed(), parent.master_seed());
    }

    #[test]
    fn forks_start_cold_even_from_a_hot_parent() {
        let mut parent = sim(22);
        let k = parent.register_kernel(heavy()).unwrap();
        let burst = Script::builder().begin_run().launch_timed(k, 6).build();
        parent.run_script(&burst).unwrap();
        assert!(parent.temp_c() > SimConfig::default().thermal.ambient_c + 1.0);
        let fork = parent.fork(0).unwrap();
        assert!(fork.temp_c() < parent.temp_c());
        assert_eq!(fork.now(), SimTime::ZERO);
        assert_eq!(fork.f_mhz(), SimConfig::default().pm.idle_f_mhz);
    }

    /// Records every event; used to assert stream/trace agreement.
    fn record_run(s: &mut Simulation, script: &Script) -> (RunTrace, Vec<TelemetryEvent>) {
        let mut events = Vec::new();
        let mut sink = |e: TelemetryEvent| events.push(e);
        let trace = s
            .run_script_observed(script, &mut sink, &AbortHandle::new())
            .unwrap();
        (trace, events)
    }

    fn instrumented_script(k: crate::kernel::KernelHandle) -> Script {
        Script::builder()
            .begin_run()
            .start_power_logger()
            .read_gpu_timestamp()
            .launch_timed(k, 4)
            .sleep(SimDuration::from_millis(1))
            .read_gpu_timestamp()
            .stop_power_logger()
            .build()
    }

    #[test]
    fn streamed_session_is_bit_identical_to_batch_run() {
        let script = |s: &mut Simulation| {
            let k = s.register_kernel(heavy()).unwrap();
            instrumented_script(k)
        };
        let mut batch = sim(61);
        let sc = script(&mut batch);
        let batch_trace = batch.run_script(&sc).unwrap();

        let mut streamed = sim(61);
        let sc = script(&mut streamed);
        let (stream_trace, events) = record_run(&mut streamed, &sc);
        assert_eq!(batch_trace, stream_trace);
        assert!(!stream_trace.aborted);
        assert!(events.len() > 10, "streaming must actually stream");
    }

    #[test]
    fn event_stream_mirrors_the_trace_in_order() {
        let mut s = sim(62);
        let k = s.register_kernel(heavy()).unwrap();
        let script = instrumented_script(k);
        let (trace, events) = record_run(&mut s, &script);

        assert_eq!(
            events.first(),
            Some(&TelemetryEvent::ScriptStarted { ops: 7 })
        );
        assert_eq!(
            events.last(),
            Some(&TelemetryEvent::ScriptDone { aborted: false })
        );

        // Every observable record appears as an event, in trace order.
        let execs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::LaunchCompleted { execution } => Some(*execution),
                _ => None,
            })
            .collect();
        assert_eq!(execs, trace.executions);
        let logs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::PowerLogEmitted { coarse: false, log } => Some(*log),
                _ => None,
            })
            .collect();
        assert_eq!(logs, trace.power_logs);
        let reads: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::GpuTimestampRead { read } => Some(*read),
                _ => None,
            })
            .collect();
        assert_eq!(reads, trace.timestamp_reads);

        // Op lifecycle: indices start strictly increasing, every started op
        // finishes (nothing was aborted), finishes never precede starts.
        let mut started = Vec::new();
        let mut finished = Vec::new();
        for e in &events {
            match e {
                TelemetryEvent::OpStarted { index, .. } => started.push(*index),
                TelemetryEvent::OpFinished { index } => {
                    assert!(started.contains(index), "op {index} finished before start");
                    finished.push(*index);
                }
                _ => {}
            }
        }
        assert_eq!(started, (0..7).collect::<Vec<_>>());
        assert_eq!(finished, started);
    }

    #[test]
    fn abort_mid_launch_yields_partial_well_formed_trace() {
        let mut s = sim(63);
        let k = s.register_kernel(heavy()).unwrap();
        let script = Script::builder()
            .begin_run()
            .start_power_logger()
            .launch_timed(k, 50)
            .stop_power_logger()
            .build();
        let abort = AbortHandle::new();
        let stop_after = 3usize;
        let mut completions = 0usize;
        let handle = abort.clone();
        let mut sink = |e: TelemetryEvent| {
            if matches!(e, TelemetryEvent::LaunchCompleted { .. }) {
                completions += 1;
                if completions == stop_after {
                    handle.abort();
                }
            }
        };
        let trace = s.run_script_observed(&script, &mut sink, &abort).unwrap();
        assert!(trace.aborted, "trace must be tagged aborted");
        assert_eq!(trace.executions.len(), stop_after, "stops at the boundary");
        for (i, e) in trace.executions.iter().enumerate() {
            assert_eq!(e.index, i as u32);
            assert!(e.duration_ns() > 0);
        }
        // Logs observed so far are kept and stay tick-ordered.
        for w in trace.power_logs.windows(2) {
            assert!(w[1].ticks.as_raw() > w[0].ticks.as_raw());
        }
        // The session stays usable: the device is quiescent, a follow-up
        // script runs normally.
        let follow_up = Script::builder().begin_run().launch_timed(k, 2).build();
        let t2 = s.run_script(&follow_up).unwrap();
        assert!(!t2.aborted);
        assert_eq!(t2.executions.len(), 2);
    }

    #[test]
    fn abort_during_the_final_op_does_not_mislabel_a_complete_trace() {
        // The flag fires while the last execution of the last op runs; by
        // the time the engine reaches an abort point, every op has
        // completed — the trace is complete and must not be tagged.
        let mut s = sim(66);
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder().begin_run().launch_timed(k, 3).build();
        let abort = AbortHandle::new();
        let handle = abort.clone();
        let mut completions = 0usize;
        let mut last = None;
        let mut sink = |e: TelemetryEvent| {
            if matches!(e, TelemetryEvent::LaunchCompleted { .. }) {
                completions += 1;
                if completions == 3 {
                    handle.abort();
                }
            }
            last = Some(e);
        };
        let trace = s.run_script_observed(&script, &mut sink, &abort).unwrap();
        assert!(!trace.aborted, "a finished script is not aborted");
        assert_eq!(trace.executions.len(), 3);
        assert_eq!(last, Some(TelemetryEvent::ScriptDone { aborted: false }));
    }

    #[test]
    fn abort_before_any_op_yields_empty_aborted_trace() {
        let mut s = sim(64);
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder().launch_timed(k, 5).build();
        let abort = AbortHandle::new();
        abort.abort();
        let mut events = Vec::new();
        let mut sink = |e: TelemetryEvent| events.push(e);
        let trace = s.run_script_observed(&script, &mut sink, &abort).unwrap();
        assert!(trace.aborted);
        assert!(trace.executions.is_empty());
        assert_eq!(
            events,
            vec![
                TelemetryEvent::ScriptStarted { ops: 1 },
                TelemetryEvent::ScriptDone { aborted: true },
            ]
        );
    }

    #[test]
    fn aborted_op_never_receives_op_finished() {
        let mut s = sim(65);
        let k = s.register_kernel(heavy()).unwrap();
        let script = Script::builder().begin_run().launch_timed(k, 50).build();
        let abort = AbortHandle::new();
        let handle = abort.clone();
        let mut events = Vec::new();
        let mut sink = |e: TelemetryEvent| {
            if matches!(e, TelemetryEvent::LaunchCompleted { .. }) {
                handle.abort();
            }
            events.push(e);
        };
        let trace = s.run_script_observed(&script, &mut sink, &abort).unwrap();
        assert!(trace.aborted);
        // The launch op (index 1) started but never finished.
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::OpStarted { index: 1, .. })));
        assert!(!events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::OpFinished { index: 1 })));
        assert_eq!(
            events.last(),
            Some(&TelemetryEvent::ScriptDone { aborted: true })
        );
    }

    #[test]
    fn coarse_logger_misses_short_kernels() {
        // Challenge C1: a 50 ms sampler sees at most one log for a run of
        // short kernels, and that log is dominated by idle time.
        let mut s = sim(11);
        let k = s.register_kernel(light()).unwrap();
        let script = Script::builder()
            .start_coarse_logger()
            .start_power_logger()
            .launch_timed(k, 10)
            .sleep(SimDuration::from_millis(2))
            .stop_power_logger()
            .stop_coarse_logger()
            .build();
        let trace = s.run_script(&script).unwrap();
        assert!(
            trace.coarse_logs.len() <= 1,
            "coarse logger should capture at most one sample, got {}",
            trace.coarse_logs.len()
        );
        assert!(trace.power_logs.len() > trace.coarse_logs.len());
    }
}
