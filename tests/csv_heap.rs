//! Deterministic heap cost of the CSV render and the argsort under it,
//! measured with the counting allocator `fgrv-fuzz` installs. Allocation
//! sizes are exact, unlike wall time, so a doubling output buffer or an
//! extra per-row buffer fails here however noisy the host is.
//!
//! This file holds a single `#[test]`: the counters are per-thread, and
//! one test keeps the measured thread free of anything else.

use fgrv_fuzz::alloc::{self, CountingAlloc};
use fingrav::core::profile::{ProfileAxis, ProfilePoint};
use fingrav::core::report::columns_to_csv;
use fingrav::core::store::ProfileStore;
use fingrav::sim::ComponentPower;

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
