//! Regenerates the paper's Fig. 5: FinGraV methodology evaluation on
//! CB-4K-GEMM — benefit of CPU-GPU time sync, benefit of execution-time
//! binning, SSE/SSP differentiation, and resiliency to lowering #runs.

use fingrav_bench::experiments::{fig5, run_profile_rows};
use fingrav_bench::render::{write_profile, write_run_rows};
use fingrav_bench::RunContext;
use fingrav_core::profile::ProfileAxis;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 5: methodology evaluation (CB-4K-GEMM) ==\n");
    let d = fig5(ctx.scale);

    println!(
        "(a) CPU-GPU time sync: quartic-fit R^2 synchronized {:.3} vs unsynchronized {:.3}",
        d.synced_r2, d.unsynced_r2
    );
    println!(
        "(b) execution-time binning: RMS scatter around the profile {:.1} W binned vs {:.1} W \
         unbinned ({} golden / {} runs)",
        d.binned_rms_w, d.unbinned_rms_w, d.synced.golden_runs, d.synced.runs_executed
    );
    println!(
        "(c) profile differentiation: SSE {} W vs SSP {} W -> error {}",
        d.synced
            .sse_mean_total_w
            .map(|w| format!("{w:.0}"))
            .unwrap_or_else(|| "-".into()),
        d.synced
            .ssp_mean_total_w
            .map(|w| format!("{w:.0}"))
            .unwrap_or_else(|| "-".into()),
        d.sse_vs_ssp_error
            .map(|e| format!("{:.0}%", e * 100.0))
            .unwrap_or_else(|| "-".into())
    );
    println!(
        "(d) #runs resiliency: degree-4 fit from {} runs deviates at most {:.1}% from the \
         {}-run fit",
        d.few_runs.runs_executed,
        d.few_runs_fit_deviation * 100.0,
        d.synced.runs_executed
    );

    write_run_rows(&dir, "fig5_synced.csv", &run_profile_rows(&d.synced)).expect("csv");
    write_profile(&dir, "fig5_unsynced.csv", &d.unsynced, ProfileAxis::RunTime).expect("csv");
    write_run_rows(&dir, "fig5_unbinned.csv", &run_profile_rows(&d.unbinned)).expect("csv");
    write_run_rows(&dir, "fig5_50runs.csv", &run_profile_rows(&d.few_runs)).expect("csv");
    println!(
        "\nwrote fig5_synced.csv / fig5_unsynced.csv / fig5_unbinned.csv / fig5_50runs.csv in {}",
        dir.display()
    );
}
