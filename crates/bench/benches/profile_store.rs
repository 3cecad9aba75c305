//! AoS vs columnar (SoA) profile storage: memory footprint and the
//! sort/filter/mean hot paths, on a full-scale synthetic profile.
//!
//! The synthetic profile models a full-scale campaign kernel: ~400 golden
//! runs × ~250 stitched points each (the paper's Table I guidance yields
//! profiles of this order for sub-100 µs kernels), with ~10 % of points
//! falling outside any execution (logger lead-in/drain). The bench prints
//! the measured heap-footprint ratio up front, then times:
//!
//! * `mean` — mean component power over every point;
//! * `sort` — stable ordering by run-relative time (the CSV/series path);
//! * `filter` — busy-window clipping (`0 ≤ t ≤ end` on LOIs only);
//! * `encode/decode` — the columnar store's binary round trip;
//! * `csv` — the run-time-axis CSV render (sort plus fixed-point text),
//!   from the owned store and from its view.
//!
//! Run with `cargo bench -p fingrav-bench --bench profile_store`. Use
//! `--save-baseline NAME` / `--baseline NAME` (vendored-criterion
//! fidelity) to compare against a previous run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fingrav_core::profile::{ProfileAxis, ProfilePoint};
use fingrav_core::report::{columns_to_csv, view_to_csv};
use fingrav_core::store::{ProfileStore, ProfileStoreView};
use fingrav_sim::power::ComponentPower;

const RUNS: u32 = 400;
const POINTS_PER_RUN: u32 = 250;

/// Deterministic synthetic point stream (SplitMix64-driven), shaped like a
/// stitched run profile: mostly LOIs, some out-of-execution points.
fn synthetic_points() -> Vec<ProfilePoint> {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut points = Vec::with_capacity((RUNS * POINTS_PER_RUN) as usize);
    for run in 0..RUNS {
        for k in 0..POINTS_PER_RUN {
            let in_exec = unit() > 0.1;
            let exec_pos = (k / 4).min(60);
            let run_time_ns = f64::from(k) * 1.0e6 + unit() * 1.0e6 - 5.0e5;
            let w = 500.0 + 200.0 * unit();
            points.push(ProfilePoint {
                run,
                exec_pos: in_exec.then_some(exec_pos),
                toi_ns: in_exec.then(|| unit() * 1.0e6),
                run_time_ns,
                power: ComponentPower::new(w * 0.55, w * 0.2, w * 0.15, w * 0.1),
            });
        }
    }
    points
}

/// Heap footprint of the AoS representation, bytes.
fn aos_heap_bytes(points: &[ProfilePoint]) -> usize {
    std::mem::size_of_val(points)
}

fn bench_profile_store(c: &mut Criterion) {
    let points = synthetic_points();
    let store = ProfileStore::from_points(points.iter().copied());

    let aos = aos_heap_bytes(&points);
    let soa = store.heap_bytes();
    println!(
        "profile-store footprint: AoS {:.2} MiB vs SoA {:.2} MiB -> {:.2}x smaller \
         ({} points, {} bytes/point AoS vs {:.1} bytes/point SoA)",
        aos as f64 / (1 << 20) as f64,
        soa as f64 / (1 << 20) as f64,
        aos as f64 / soa as f64,
        points.len(),
        std::mem::size_of::<ProfilePoint>(),
        soa as f64 / points.len() as f64,
    );

    let mut group = c.benchmark_group("profile_store");
    group.sample_size(20);

    group.bench_function("mean/aos", |b| {
        b.iter(|| {
            let sum = points
                .iter()
                .fold(ComponentPower::ZERO, |acc, p| acc + p.power);
            black_box(sum / points.len() as f64)
        })
    });
    group.bench_function("mean/columnar", |b| {
        b.iter(|| black_box(store.mean_power()))
    });
    let encoded = store.to_bytes();
    let view = ProfileStoreView::new(&encoded).expect("valid encoding");
    group.bench_function("mean/view", |b| b.iter(|| black_box(view.mean_power())));

    group.bench_function("sort/aos", |b| {
        b.iter(|| {
            let mut rows: Vec<&ProfilePoint> = points.iter().collect();
            rows.sort_by(|a, b| {
                a.run_time_ns
                    .partial_cmp(&b.run_time_ns)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            black_box(rows.len())
        })
    });
    group.bench_function("sort/columnar-argsort", |b| {
        b.iter(|| black_box(store.argsort_by_axis(ProfileAxis::RunTime).len()))
    });

    let end_ns = f64::from(POINTS_PER_RUN) * 0.8e6;
    group.bench_function("filter/aos", |b| {
        b.iter(|| {
            let kept: Vec<ProfilePoint> = points
                .iter()
                .filter(|p| p.exec_pos.is_some() && p.run_time_ns >= 0.0 && p.run_time_ns <= end_ns)
                .copied()
                .collect();
            black_box(kept.len())
        })
    });
    group.bench_function("filter/columnar-indices", |b| {
        b.iter(|| {
            let kept = store.indices_where(|p| {
                p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns
            });
            black_box(kept.len())
        })
    });
    group.bench_function("filter/view", |b| {
        b.iter(|| {
            let kept = view.indices_where(|p| {
                p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns
            });
            black_box(kept.len())
        })
    });

    group.bench_function("csv/columns", |b| {
        b.iter(|| black_box(columns_to_csv(&store, ProfileAxis::RunTime).len()))
    });
    group.bench_function("csv/view", |b| {
        b.iter(|| black_box(view_to_csv(&view, ProfileAxis::RunTime).len()))
    });

    group.bench_function("encode/columnar-binary", |b| {
        b.iter(|| black_box(store.to_bytes().len()))
    });
    let bytes = store.to_bytes();
    group.bench_function("decode/columnar-binary", |b| {
        b.iter(|| black_box(ProfileStore::from_bytes(&bytes).expect("decodes").len()))
    });
    // The zero-copy decode: full validation (header, layout, canonical
    // form), zero column materialisation. This is the number that must
    // beat `decode/columnar-binary` by the 2x acceptance floor.
    group.bench_function("decode/view", |b| {
        b.iter(|| black_box(ProfileStoreView::new(&bytes).expect("decodes").len()))
    });
    group.finish();

    // Sanity: the view path agrees with the owned path on every benched
    // kernel before any of its timings are trusted.
    assert_eq!(
        view.to_store(),
        store,
        "view decode must equal owned decode"
    );
    assert_eq!(view.mean_power(), store.mean_power());
    assert_eq!(
        view_to_csv(&view, ProfileAxis::RunTime),
        columns_to_csv(&store, ProfileAxis::RunTime)
    );
    assert_eq!(
        view.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns),
        store.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns),
    );

    // Sanity: both representations agree before any ratio is trusted.
    let aos_mean = points
        .iter()
        .fold(ComponentPower::ZERO, |acc, p| acc + p.power)
        / points.len() as f64;
    let soa_mean = store.mean_power().expect("non-empty");
    assert_eq!(aos_mean, soa_mean, "AoS and columnar means must agree");
}

criterion_group!(benches, bench_profile_store);
criterion_main!(benches);
