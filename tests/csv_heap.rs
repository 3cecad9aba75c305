//! Deterministic heap cost of the CSV render and the argsort under it,
//! of reading a persisted file, of one warm engine run and of the
//! run-collection stage, and the exact size of a report's stitched
//! stores, measured with the counting allocator `fgrv-fuzz` installs. Allocation sizes
//! and counts are exact, unlike wall time, so a doubling output buffer,
//! an extra per-row buffer or one more allocation per run fails here
//! however noisy the host is.
//!
//! The counters are per-thread and the harness runs each `#[test]` on a
//! thread of its own, so the tests here do not see each other's heap.

use fgrv_fuzz::alloc::{self, CountingAlloc};
use fingrav::core::backend::PowerBackend;
use fingrav::core::mmap::MappedProfile;
use fingrav::core::profile::{ProfileAxis, ProfilePoint};
use fingrav::core::report::columns_to_csv;
use fingrav::core::runner::{FingravRunner, RunnerConfig};
use fingrav::core::stages::StagePipeline;
use fingrav::core::store::ProfileStore;
use fingrav::sim::script::Script;
use fingrav::sim::trace::TimedExecution;
use fingrav::sim::{ComponentPower, SimConfig, SimDuration, Simulation};
use fingrav::workloads::suite;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Points in the measured store: about one gathered run profile of a
/// 14-kernel campaign.
const POINTS: usize = 30_000;

/// Heap a render or sort may hold beyond its output, per point: the sort
/// keeps two `u64` key buffers and a second `u32` index buffer (20 B);
/// the render holds the 4 B/point order while its output, reserved at
/// 64 B/row, fills with rows of about 55 B.
const SCRATCH_BYTES_PER_ROW: usize = 20;

/// Peak heap the thread holds while `f` runs, above what it held before.
fn transient_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    alloc::reset_peak();
    let base = alloc::peak();
    let out = f();
    (out, alloc::peak() - base)
}

/// [`transient_peak`] plus the number of allocations `f` made.
fn heap_cost<T>(f: impl FnOnce() -> T) -> (T, usize, u64) {
    let before = alloc::allocations();
    let (out, peak) = transient_peak(f);
    (out, peak, alloc::allocations() - before)
}

/// A store shaped like a campaign's run profile: a few hundred runs of
/// a few dozen executions, run times up to ~2 ms, powers of 20-700 W,
/// every fifth point outside any execution.
fn campaign_like_store() -> ProfileStore {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    ProfileStore::from_points((0..POINTS as u32).map(|i| {
        let in_exec = i % 5 != 0;
        let run_time_ns = 2.0e6 * next();
        ProfilePoint {
            run: i / 75,
            exec_pos: in_exec.then_some(i % 40),
            toi_ns: in_exec.then_some(5.0e4 * next()),
            run_time_ns,
            power: ComponentPower::new(
                300.0 + 400.0 * next(),
                60.0 + 40.0 * next(),
                50.0 + 40.0 * next(),
                20.0 + 20.0 * next(),
            ),
        }
    }))
}

#[test]
fn csv_render_and_argsort_heap_stay_within_output_plus_scratch() {
    assert!(alloc::active(), "the counting allocator is installed");
    let store = campaign_like_store();
    for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
        let (order, sort_peak) = transient_peak(|| store.argsort_by_axis(axis));
        let order_bytes = order.capacity() * std::mem::size_of::<u32>();
        assert_eq!(order.len(), POINTS);
        assert!(
            sort_peak <= order_bytes + SCRATCH_BYTES_PER_ROW * POINTS,
            "{axis:?} argsort peaked at {sort_peak} B for {order_bytes} B of output"
        );

        let (csv, csv_peak) = transient_peak(|| columns_to_csv(&store, axis));
        let rows = csv.lines().count() - 1;
        assert!(rows * 50 < csv.len(), "rows run about 55 B");
        assert!(
            csv_peak <= csv.len() + SCRATCH_BYTES_PER_ROW * POINTS,
            "{axis:?} render peaked at {csv_peak} B for {} B of CSV ({rows} rows)",
            csv.len()
        );
    }
}

#[test]
fn file_read_allocates_the_file_once() {
    assert!(alloc::active(), "the counting allocator is installed");
    // About one checkpoint entry file, and far from a power of two, so a
    // buffer grown by doubling would overshoot it by ~80%.
    const N: usize = 144_000;
    let path = std::env::temp_dir().join(format!("fingrav-read-heap-{}.bin", std::process::id()));
    let bytes: Vec<u8> = (0..N).map(|i| (i * 7) as u8).collect();
    std::fs::write(&path, &bytes).expect("scratch file writes");

    let (file, peak, allocations) = heap_cost(|| MappedProfile::open(&path).expect("reads"));
    assert_eq!(file.bytes(), &bytes[..]);
    // The path becomes a C string on the stack when it is short, and in
    // one more heap allocation of its length plus the NUL when it is not.
    let path_bytes = path.as_os_str().len() + 1;
    assert!(
        peak <= N + path_bytes && allocations <= 2,
        "reading {N} B peaked at {peak} B over {allocations} allocations"
    );
    drop(file);
    std::fs::remove_file(&path).ok();
}

#[test]
fn warm_engine_run_heap_is_pinned() {
    assert!(alloc::active(), "the counting allocator is installed");
    // The engine bench's `run/noop` profiling run at seed 7 (as pinned
    // in `tests/sensor_ring.rs`).
    let machine = SimConfig::default().machine;
    let mut sim = Simulation::new(SimConfig::default(), 7).expect("valid");
    let k = sim
        .register_kernel(suite::cb_gemm(&machine, 4096))
        .expect("valid kernel");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .read_gpu_timestamp()
        .launch_timed(k, 24)
        .sleep(SimDuration::from_millis(1))
        .read_gpu_timestamp()
        .stop_power_logger()
        .sleep(SimDuration::from_millis(8))
        .build();
    // The first runs fill the sensor-sample ring, which grows lazily to
    // its fixed capacity; after that a run allocates little more than
    // the trace it returns.
    for _ in 0..3 {
        sim.run_script(&script).expect("runs");
    }
    alloc::reset_peak();
    let base = alloc::peak();
    let (trace, peak, allocations) = heap_cost(|| sim.run_script(&script).expect("runs"));
    alloc::reset_peak();
    let retained = alloc::peak() - base;
    assert_eq!(trace.executions.len(), 24);
    // The exact cost: one more allocation, or a buffer that grows
    // further, fails here. A change that moves them on purpose updates
    // them. The session records no ground truth, so the trace holds only
    // its observable records.
    assert_eq!(
        (peak, retained, allocations),
        (1208, 1184, 5),
        "(peak heap B, heap B the returned trace holds, allocations) \
         of a warm run/noop at seed 7"
    );
}

#[test]
fn collect_runs_holds_placed_logs_not_traces() {
    assert!(alloc::active(), "the counting allocator is installed");
    // A 2K GEMV runs ~200 executions per run here and lands a few logs
    // in them: the suite entry whose every-run traces used to dominate
    // its heap.
    let machine = SimConfig::default().machine;
    let desc = suite::mb_gemv(&machine, 2048);
    let mut sim = Simulation::new(SimConfig::default(), 5).expect("valid");
    let handle = PowerBackend::register_kernel(&mut sim, &desc).expect("valid kernel");
    let mut pipeline = StagePipeline::new(&mut sim, RunnerConfig::quick(80)).expect("valid");
    let calibration = pipeline.calibrate().expect("calibrates");
    let timing = pipeline.timing_probe(handle, &calibration).expect("times");
    let ssp = pipeline
        .ssp_search(handle, &calibration, &timing)
        .expect("finds the SSP");
    let (collection, peak) = transient_peak(|| {
        pipeline
            .collect_runs(handle, &desc.name, &calibration, &timing, &ssp)
            .expect("collects")
    });
    let runs = collection.collected.len();
    let executions = runs * ssp.executions_per_run as usize;
    assert!(
        executions > 15_000,
        "{runs} runs of {} executions",
        ssp.executions_per_run
    );
    // Keeping every run's trace peaked at 723,334 B here, 80 runs' timed
    // executions alone taking 506,880 B. Condensed runs peak at 190,998 B:
    // ~43 KB of placed logs, run slots and stitched stores, the rest the
    // run in flight and what the engine allocates while it runs.
    assert_eq!(std::mem::size_of::<TimedExecution>(), 32);
    assert!(
        peak < 250_000,
        "collect_runs peaked at {peak} B over {runs} runs of {} executions",
        ssp.executions_per_run
    );
}

#[test]
fn report_stores_are_sized_exactly() {
    // Column bytes of `n` points: two `u32` and six `f64` columns and a
    // validity word per 64 points.
    let exact = |n: usize| n * (2 * 4 + 6 * 8) + n.div_ceil(64) * 8;
    let machine = SimConfig::default().machine;
    let mut sim = Simulation::new(SimConfig::default(), 5).expect("valid");
    let report = FingravRunner::new(&mut sim, RunnerConfig::quick(80))
        .profile(&suite::mb_gemv(&machine, 2048))
        .expect("profiles");
    for profile in [
        &report.run_profile,
        &report.sse_profile,
        &report.ssp_profile,
    ] {
        assert!(!profile.is_empty(), "{} profile holds points", profile.kind);
        assert_eq!(
            profile.store.heap_bytes(),
            exact(profile.len()),
            "{} profile of {} points",
            profile.kind,
            profile.len()
        );
    }
}
