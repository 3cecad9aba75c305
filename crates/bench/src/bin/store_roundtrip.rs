//! Persisted-profile-store smoke: profiles one suite kernel, writes its
//! stitched stores in the versioned binary format (plus the CSV view),
//! re-reads them, and asserts the round trip is bit-identical — the
//! checkpoint-integrity guarantee distributed campaigns rely on.
//!
//! Every store is read back with `MappedProfile::open` and decoded two
//! ways — owned `from_bytes` and the borrowed `ProfileStoreView` — and
//! both must agree with the written store bit for bit; the decode (and
//! encode) throughput of each path is reported in MB/s. The CSV artifact
//! is additionally emitted through the zero-copy view and checked
//! byte-identical to the owned render.
//!
//! Usage: `store_roundtrip [--quick|--full|--bench] [--out DIR]`.
//! Artifacts land in the output directory (default `results/`):
//! `ssp_profile.fgrv`, `run_profile.fgrv`, `ssp_profile.csv`.

use std::fs;
use std::time::{Duration, Instant};

use fingrav_bench::harness::profile_kernel;
use fingrav_bench::RunContext;
use fingrav_core::mmap::MappedProfile;
use fingrav_core::profile::ProfileAxis;
use fingrav_core::report::{profile_to_csv, view_to_csv};
use fingrav_core::store::{ProfileStore, ProfileStoreView};
use fingrav_sim::config::SimConfig;
use fingrav_workloads::suite;

/// Times `f` until at least ~50 ms have accumulated (minimum 10 reps)
/// and returns the mean per-rep duration.
fn time_reps<R>(mut f: impl FnMut() -> R) -> Duration {
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        std::hint::black_box(f());
        reps += 1;
        let elapsed = start.elapsed();
        if reps >= 10 && elapsed >= Duration::from_millis(50) {
            return elapsed / reps;
        }
    }
}

/// Bytes-per-wall-clock rate in MB/s (MiB, to be precise).
fn mb_per_s(bytes: usize, per_rep: Duration) -> f64 {
    bytes as f64 / (1u64 << 20) as f64 / per_rep.as_secs_f64()
}

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("output directory");

    let machine = SimConfig::default().machine.clone();
    let kernel = suite::cb_gemm(&machine, 4096);
    let report = profile_kernel("store-roundtrip", &kernel, ctx.scale.runs(200));

    let mut failures = 0;
    for (name, profile) in [
        ("run_profile", &report.run_profile),
        ("ssp_profile", &report.ssp_profile),
    ] {
        let bytes = profile.store.to_bytes();
        let path = dir.join(format!("{name}.fgrv"));
        fs::write(&path, &bytes).expect("store artifact writes");

        let reread = MappedProfile::open(&path).expect("store artifact reads back");
        let restored = ProfileStore::from_bytes(reread.bytes()).expect("store artifact decodes");
        let diff = profile.store.diff(&restored);
        let reencoded = restored.to_bytes();

        // The zero-copy path must see exactly the same store.
        let view = reread.view().expect("view decodes");
        let view_identical =
            profile.store.diff_view(&view).is_identical() && view.to_store() == restored;

        let identical = diff.is_identical() && reencoded == bytes && view_identical;
        println!(
            "{name}: {} points, {} bytes -> {}",
            profile.len(),
            bytes.len(),
            if identical {
                "bit-identical round trip (owned, view)".to_string()
            } else {
                failures += 1;
                format!("ROUND TRIP DIVERGED\n{}", diff.summary())
            }
        );

        let encode = time_reps(|| profile.store.to_bytes().len());
        let owned = time_reps(|| {
            ProfileStore::from_bytes(reread.bytes())
                .expect("decodes")
                .len()
        });
        let viewed = time_reps(|| reread.view().expect("decodes").len());
        println!(
            "{name} throughput: encode {:.0} MB/s | decode owned {:.0} MB/s, \
             view {:.0} MB/s ({:.1}x)",
            mb_per_s(bytes.len(), encode),
            mb_per_s(bytes.len(), owned),
            mb_per_s(bytes.len(), viewed),
            owned.as_secs_f64() / viewed.as_secs_f64(),
        );
    }

    // The CSV renders through the zero-copy view; the owned render must
    // produce the identical bytes (they share one formatting kernel).
    let owned_csv = profile_to_csv(&report.ssp_profile, ProfileAxis::Toi);
    let ssp_bytes = report.ssp_profile.store.to_bytes();
    let ssp_view = ProfileStoreView::new(&ssp_bytes).expect("ssp view decodes");
    let view_csv = view_to_csv(&ssp_view, ProfileAxis::Toi);
    if owned_csv != view_csv {
        eprintln!("view CSV diverged from the owned CSV render");
        failures += 1;
    }
    let csv_path = dir.join("ssp_profile.csv");
    fs::write(&csv_path, view_csv).expect("csv artifact writes");
    println!(
        "csv: {} ({} LOIs, view render == owned render)",
        csv_path.display(),
        report.ssp_profile.len()
    );

    if failures > 0 {
        eprintln!("{failures} store artifact(s) failed the bit-identity check");
        std::process::exit(1);
    }
}
