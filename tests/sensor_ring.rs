//! The sensor-sample ring and the lazily folded PM window average.
//!
//! * Differential properties against the deque telemetry the ring
//!   replaced (`common::DequeLogger`, `common::DequePmWindow`): logger
//!   averages and PM windows are bit-identical, and the firmware's
//!   frequency trajectory with the lazy average is the exact-fold one.
//! * Pinned bytes for the telemetry paths the default suite does not
//!   cover: a `LoggerChoice::Coarse` methodology run, and a configuration
//!   whose PM window outlasts the coarse window and whose sensor period
//!   divides none of the windows. The digests were taken from the
//!   three-deque implementation the ring replaced.
//! * The exact-fold fallback counter in `EngineStats`.
//! * Ground truth on request: a session records it only when
//!   `record_instant_trace` is set, and the observable bytes are the same
//!   either way.

mod common;

use common::{DequeLogger, DequePmWindow};
use fingrav::core::backend::{BackendFactory, PowerBackend, SimulationFactory};
use fingrav::core::error::MethodologyResult;
use fingrav::core::runner::{FingravRunner, LoggerChoice, RunnerConfig};
use fingrav::core::stages::StagePipeline;
use fingrav::sim::dvfs::{PmConfig, PmFirmware, PmInput};
use fingrav::sim::kernel::{KernelDesc, KernelHandle};
use fingrav::sim::script::Script;
use fingrav::sim::session::{AbortHandle, TelemetrySink};
use fingrav::sim::telemetry::{AveragingPowerLogger, SampleRing};
use fingrav::sim::trace::RunTrace;
use fingrav::sim::{ComponentPower, GpuTicks, SimConfig, SimDuration, SimTime, Simulation};
use fingrav::workloads::suite;
use proptest::prelude::*;

/// SplitMix64: the sample values of one property case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, scale)` with a full 53-bit fraction, so sums round.
fn unit(state: &mut u64, scale: f64) -> f64 {
    (splitmix(state) >> 11) as f64 * (scale / (1u64 << 53) as f64)
}

/// The ring's log at `t` from a fresh enabled logger, as raw bits.
fn ring_log(ring: &SampleRing, window: SimDuration, t: SimTime) -> Option<[u64; 4]> {
    let mut logger = AveragingPowerLogger::new(window);
    logger.set_enabled(true);
    logger
        .emit(ring, t, GpuTicks::from_raw(0))
        .map(|log| bits(log.avg))
}

fn bits(p: ComponentPower) -> [u64; 4] {
    [p.xcd, p.iod, p.hbm, p.rest].map(f64::to_bits)
}

proptest! {
    /// Random sample sequences on a sensor grid with gaps (a script
    /// boundary can skip a grid point), with reads both before and after
    /// the sample at the same instant (emit and PM ticks tie with the
    /// sensor in either FIFO order): every logger average, PM window and
    /// exact PM average matches the deques bit for bit, and the running
    /// estimate lies within its bound of the exact average.
    #[test]
    fn ring_matches_the_deque_reference(
        period_us in 7u64..41,
        fine_us in 150u64..1_200,
        coarse_us in 150u64..1_200,
        pm_us in 150u64..1_200,
        steps in prop::collection::vec(0u64..64, 50..700),
        seed in 0u64..u64::MAX,
    ) {
        let period = SimDuration::from_micros(period_us);
        let (fine, coarse, pm) = (
            SimDuration::from_micros(fine_us),
            SimDuration::from_micros(coarse_us),
            SimDuration::from_micros(pm_us),
        );
        let mut ring = SampleRing::new(period, fine.max(coarse), pm);
        let mut fine_ref = DequeLogger::new(fine);
        let mut coarse_ref = DequeLogger::new(coarse);
        let mut pm_ref = DequePmWindow::new(pm);
        let mut rng = seed;
        let mut grid = 1 + splitmix(&mut rng) % 1_000;
        // Taking the exact fold re-syncs the running sum, so only some
        // reads take it: the others check the estimate after up to a full
        // re-sync period of running updates.
        let check = |ring: &mut SampleRing,
                         fine_ref: &DequeLogger,
                         coarse_ref: &DequeLogger,
                         pm_ref: &DequePmWindow,
                         t: SimTime,
                         fold: bool|
         -> Result<(), String> {
            prop_assert_eq!(ring_log(ring, fine, t), fine_ref.average(t).map(bits));
            prop_assert_eq!(ring_log(ring, coarse, t), coarse_ref.average(t).map(bits));
            let window: Vec<f64> = ring.pm_window().map(|s| s.total).collect();
            prop_assert_eq!(window, pm_ref.totals());
            if let Some(want) = pm_ref.average() {
                let estimate = ring.pm_estimate().expect("non-empty window");
                prop_assert!((estimate.avg_w - want).abs() <= estimate.err_w,
                    "estimate {} outside {} of {}", estimate.avg_w, estimate.err_w, want);
                if fold {
                    prop_assert_eq!(ring.pm_exact_average().to_bits(), want.to_bits());
                }
            } else {
                prop_assert!(ring.pm_estimate().is_none());
            }
            Ok(())
        };
        for &step in &steps {
            // One step in ten skips grid points.
            grid += if step < 6 { 2 + step } else { 1 };
            let t = SimTime::from_nanos(grid * period.as_nanos());
            if step & 1 == 1 {
                check(&mut ring, &fine_ref, &coarse_ref, &pm_ref, t, step % 16 == 1)?;
            }
            let power = ComponentPower::new(
                unit(&mut rng, 900.0),
                unit(&mut rng, 120.0),
                unit(&mut rng, 80.0),
                unit(&mut rng, 40.0),
            );
            ring.push(t, power);
            fine_ref.push_sample(t, power);
            coarse_ref.push_sample(t, power);
            pm_ref.push(t, power.total());
            if step & 2 == 2 {
                check(&mut ring, &fine_ref, &coarse_ref, &pm_ref, t, step % 16 == 2)?;
            }
            // The ring never holds more than its fixed capacity.
            prop_assert!(ring.len() <= ring.capacity());
        }
    }

    /// Window averages placed within a few ulps (and within a few bounds'
    /// widths) of the cap and of the restore threshold: the firmware fed
    /// the ring's lazy estimate steps through exactly the frequencies of
    /// the firmware fed the deque's exact fold, tick by tick.
    #[test]
    fn lazy_average_keeps_the_exact_frequency_trajectory(
        segments in prop::collection::vec(0u64..1_000, 4..40),
        window_samples in 20u64..150,
        tick_every in 1u64..8,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = PmConfig::default();
        let period = SimDuration::from_micros(20);
        let window = SimDuration::from_micros(20 * window_samples);
        let mut ring = SampleRing::new(period, window, window);
        let mut reference = DequePmWindow::new(window);
        let mut exact_pm = PmFirmware::new(cfg);
        let mut lazy_pm = PmFirmware::new(cfg);
        let mut rng = seed;
        let mut i = 0u64;
        for &segment in &segments {
            // Each segment hovers around one level: the cap, the restore
            // threshold, or far enough above the cap for a throttle step
            // whose size is proportional to the overshoot.
            let level = match segment % 3 {
                0 => cfg.power_cap_w,
                1 => cfg.power_cap_w * cfg.restore_headroom,
                _ => cfg.power_cap_w * 1.12,
            };
            // Offsets of a few ulps up to a few times the estimate bound.
            let spread = [4.0 * f64::EPSILON, 1e-13, 1e-11, 1e-9][(segment / 3 % 4) as usize];
            for _ in 0..window_samples + segment % 50 {
                i += 1;
                let t = SimTime::from_nanos(i * period.as_nanos());
                let offset = (unit(&mut rng, 2.0) - 1.0) * spread;
                let power = ComponentPower::new(level * (1.0 + offset), 0.0, 0.0, 0.0);
                ring.push(t, power);
                reference.push(t, power.total());
                if !i.is_multiple_of(tick_every) {
                    continue;
                }
                let want = exact_pm.tick(PmInput {
                    avg_power_w: reference.average().expect("non-empty"),
                    busy_in_window: true,
                    idle_for: SimDuration::ZERO,
                });
                let estimate = ring.pm_estimate().expect("non-empty");
                let got = lazy_pm.tick_busy(estimate, || ring.pm_exact_average());
                prop_assert!(got.to_bits() == want.to_bits(),
                    "tick at sample {i}: lazy {got} MHz, exact {want} MHz");
                prop_assert_eq!(&lazy_pm, &exact_pm);
            }
        }
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Canonical little-endian bytes of every observable record of a trace,
/// floats as raw bit patterns.
fn observable_bytes(trace: &RunTrace, out: &mut Vec<u8>) {
    let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    put(trace.executions.len() as u64);
    for e in &trace.executions {
        put(e.kernel.index() as u64);
        put(u64::from(e.index));
        put(e.cpu_start.as_nanos());
        put(e.cpu_end.as_nanos());
    }
    put(trace.timestamp_reads.len() as u64);
    for r in &trace.timestamp_reads {
        put(r.cpu_before.as_nanos());
        put(r.cpu_after.as_nanos());
        put(r.ticks.as_raw());
    }
    for logs in [&trace.power_logs, &trace.coarse_logs] {
        put(logs.len() as u64);
        for log in logs {
            put(log.ticks.as_raw());
            for w in [log.avg.xcd, log.avg.iod, log.avg.hbm, log.avg.rest] {
                put(w.to_bits());
            }
        }
    }
    put(u64::from(trace.aborted));
}

/// [`observable_bytes`] followed by the ground-truth timeline.
fn trace_bytes(trace: &RunTrace, out: &mut Vec<u8>) {
    observable_bytes(trace, out);
    let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    put(trace.truth.executions.len() as u64);
    for e in &trace.truth.executions {
        put(e.start.as_nanos());
        put(e.end.as_nanos());
        put(u64::from(e.execs_since_cold));
        put(u64::from(e.outlier));
    }
    put(trace.truth.freq_changes.len() as u64);
    for &(t, f) in &trace.truth.freq_changes {
        put(t.as_nanos());
        put(f.to_bits());
    }
    put(trace.truth.final_temp_c.to_bits());
}

/// Canonical `FGRVCKPT` entry bytes of one report, digested.
fn report_digest(report: &fingrav::core::runner::KernelPowerReport) -> (usize, u64) {
    let bytes = common::entry_bytes(std::slice::from_ref(report)).remove(0);
    (bytes.len(), fnv1a(&bytes))
}

/// Sensor every 23 µs against 1/3/5 ms windows (fine/coarse/PM): no
/// window is a whole number of sensor periods, and the PM window is the
/// longest, so it alone sizes the ring.
fn odd_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.telemetry.sensor_period = SimDuration::from_micros(23);
    cfg.telemetry.coarse_window = SimDuration::from_millis(3);
    cfg.telemetry.coarse_period = SimDuration::from_millis(4);
    cfg.pm.power_window = SimDuration::from_millis(5);
    cfg.telemetry.record_instant_trace = true;
    cfg
}

/// The `perf` binary's `run/noop` profiling script for `kernel`.
fn run_noop_script(kernel: fingrav::sim::KernelHandle) -> Script {
    Script::builder()
        .begin_run()
        .start_power_logger()
        .read_gpu_timestamp()
        .launch_timed(kernel, 24)
        .sleep(SimDuration::from_millis(1))
        .read_gpu_timestamp()
        .stop_power_logger()
        .sleep(SimDuration::from_millis(8))
        .build()
}

#[test]
fn coarse_logger_methodology_run_matches_pinned_bytes() {
    let machine = SimConfig::default().machine;
    let mut sim = Simulation::new(SimConfig::default(), 71).expect("valid");
    let mut runner = FingravRunner::new(
        &mut sim,
        RunnerConfig {
            logger: LoggerChoice::Coarse,
            extra_run_batches: 0,
            ..RunnerConfig::quick(4)
        },
    );
    let report = runner
        .profile(&suite::cb_gemm(&machine, 4096))
        .expect("profiles");
    assert_eq!(report_digest(&report), (909, 0x56e4_007d_d80c_fb10));
}

#[test]
fn odd_window_config_matches_pinned_bytes() {
    let machine = SimConfig::default().machine;
    let mut sim = Simulation::new(odd_config(), 0x0DD).expect("valid");
    let k = sim
        .register_kernel(suite::cb_gemm(&machine, 4096))
        .expect("valid kernel");
    let script = Script::builder()
        .begin_run()
        .start_coarse_logger()
        .start_power_logger()
        .read_gpu_timestamp()
        .launch_timed(k, 24)
        .sleep(SimDuration::from_millis(1))
        .read_gpu_timestamp()
        .stop_power_logger()
        .stop_coarse_logger()
        .sleep(SimDuration::from_millis(8))
        .build();
    // Each script spans far more than the ring's 256 samples (5.9 ms).
    let mut bytes = Vec::new();
    for _ in 0..4 {
        trace_bytes(&sim.run_script(&script).expect("runs"), &mut bytes);
    }
    assert_eq!((bytes.len(), fnv1a(&bytes)), (8080, 0x8467_e06e_3d8b_8d80));

    let mut sim = Simulation::new(odd_config(), 0x0DD).expect("valid");
    let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(4));
    let report = runner
        .profile(&suite::cb_gemm(&machine, 4096))
        .expect("profiles");
    assert_eq!(report_digest(&report), (4125, 0x91f6_9825_bf9c_429f));
}

#[test]
fn exact_pm_folds_are_rare_on_a_throttling_run_and_absent_when_idle() {
    // The `perf` binary's `run/noop` profiling run: CB-GEMM-4096 hits the
    // cap, so the firmware throttles.
    let machine = SimConfig::default().machine;
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let mut sim = Simulation::new(cfg, 7).expect("valid");
    let k = sim
        .register_kernel(suite::cb_gemm(&machine, 4096))
        .expect("valid kernel");
    let trace = sim.run_script(&run_noop_script(k)).expect("runs");
    let freqs: Vec<f64> = trace.truth.freq_changes.iter().map(|&(_, f)| f).collect();
    assert!(
        freqs.windows(2).any(|w| w[1] < w[0]),
        "the run must throttle: {freqs:?}"
    );
    // Busy PM ticks: every control tick from the first execution's start
    // to the last one's end.
    let control = SimConfig::default().pm.control_period.as_nanos();
    let first = trace.truth.executions.first().expect("executions").start;
    let last = trace.truth.executions.last().expect("executions").end;
    let busy_ticks = (last.as_nanos() - first.as_nanos()) / control;
    // The exact counts of this run at seed 7: one more event per run, or
    // one more exact fold, fails here instead of hiding in wall-time
    // noise. A change that moves them on purpose updates them.
    let stats = sim.engine_stats();
    assert_eq!(
        (stats.events_popped, stats.pm_exact_folds, stats.scripts_run),
        (948, 2, 1),
        "(events_popped, pm_exact_folds, scripts_run) after run/noop at seed 7"
    );
    let folds = stats.pm_exact_folds;
    assert!(folds > 0, "throttle steps take the exact average");
    assert!(
        folds * 8 <= busy_ticks,
        "{folds} exact folds over {busy_ticks} busy PM ticks"
    );

    let mut idle = Simulation::new(SimConfig::default(), 9).expect("valid");
    idle.advance_idle(SimDuration::from_millis(50))
        .expect("idle");
    assert_eq!(idle.engine_stats().pm_exact_folds, 0);
}

#[test]
fn ground_truth_is_recorded_only_on_request_and_moves_no_observable_byte() {
    let machine = SimConfig::default().machine;
    let session = |record: bool| {
        let mut cfg = SimConfig::default();
        cfg.telemetry.record_instant_trace = record;
        let mut sim = Simulation::new(cfg, 7).expect("valid");
        let k = sim
            .register_kernel(suite::cb_gemm(&machine, 4096))
            .expect("valid kernel");
        let traces: Vec<RunTrace> = (0..3)
            .map(|_| sim.run_script(&run_noop_script(k)).expect("runs"))
            .collect();
        (traces, sim.engine_stats())
    };
    let (on, on_stats) = session(true);
    let (off, off_stats) = session(false);
    assert_eq!(on_stats, off_stats, "truth moves no event");
    for (on, off) in on.iter().zip(&off) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        observable_bytes(on, &mut a);
        observable_bytes(off, &mut b);
        assert_eq!(a, b, "truth moves no observable byte");
        assert_eq!(
            on.truth.final_temp_c.to_bits(),
            off.truth.final_temp_c.to_bits()
        );
        assert_eq!(on.truth.executions.len(), 24);
        assert!(!on.truth.freq_changes.is_empty() && !on.truth.instant_power.is_empty());
        let truth = &off.truth;
        assert_eq!(
            (
                truth.executions.capacity(),
                truth.freq_changes.capacity(),
                truth.instant_power.capacity()
            ),
            (0, 0, 0),
            "an unrequested truth never allocates"
        );
    }
}

/// A pass-through backend that records, for every script it runs, the
/// capacities of the trace's three truth timelines and its execution
/// count: collected runs keep no trace, so the audit looks at each one as
/// it leaves the device.
struct TruthAudit {
    sim: Simulation,
    scripts: Vec<((usize, usize, usize), usize)>,
}

impl PowerBackend for TruthAudit {
    fn register_kernel(&mut self, desc: &KernelDesc) -> MethodologyResult<KernelHandle> {
        PowerBackend::register_kernel(&mut self.sim, desc)
    }

    fn run_script_observed(
        &mut self,
        script: &Script,
        sink: &mut dyn TelemetrySink,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        let trace = self.sim.run_script_observed(script, sink, abort)?;
        let truth = &trace.truth;
        self.scripts.push((
            (
                truth.executions.capacity(),
                truth.freq_changes.capacity(),
                truth.instant_power.capacity(),
            ),
            trace.executions.len(),
        ));
        Ok(trace)
    }

    fn logger_window(&self) -> SimDuration {
        self.sim.logger_window()
    }

    fn coarse_logger_window(&self) -> SimDuration {
        self.sim.coarse_logger_window()
    }

    fn gpu_counter_hz(&self) -> f64 {
        self.sim.gpu_counter_hz()
    }
}

#[test]
fn collect_runs_on_the_default_factory_records_no_truth() {
    let machine = SimConfig::default().machine;
    let factory = SimulationFactory::new(SimConfig::default(), 11);
    let mut audit = TruthAudit {
        sim: factory.create(0).expect("valid"),
        scripts: Vec::new(),
    };
    let desc = suite::cb_gemm(&machine, 4096);
    let handle = audit.register_kernel(&desc).expect("valid kernel");
    let config = RunnerConfig::quick(8);
    let (calibration, timing, ssp) = {
        let mut pipeline = StagePipeline::new(&mut audit, config.clone()).expect("valid");
        let calibration = pipeline.calibrate().expect("calibrates");
        let timing = pipeline.timing_probe(handle, &calibration).expect("times");
        let ssp = pipeline
            .ssp_search(handle, &calibration, &timing)
            .expect("finds the SSP");
        (calibration, timing, ssp)
    };
    let probes = audit.scripts.len();
    let collection = StagePipeline::new(&mut audit, config)
        .expect("valid")
        .collect_runs(handle, &desc.name, &calibration, &timing, &ssp)
        .expect("collects");
    let runs = &audit.scripts[probes..];
    assert!(!collection.collected.is_empty());
    assert_eq!(runs.len(), collection.collected.len(), "one script per run");
    for &(truth, executions) in runs {
        assert_eq!(executions, ssp.executions_per_run as usize);
        assert_eq!(truth, (0, 0, 0), "a methodology run pays for no truth");
    }
}
