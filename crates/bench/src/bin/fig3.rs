//! Regenerates the paper's Fig. 3: measured evidence for the four
//! challenges of fine-grain GPU power analysis (C1-C4).

use fingrav_bench::experiments::fig3;
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 3: challenges in fine-grain GPU power analysis ==\n");
    let d = fig3(ctx.scale);
    println!(
        "C1 (low sampling frequency): coarse 50 ms sampler missed {:.0}% of runs entirely;\n\
         \u{20}   the fine 1 ms logger captured {:.1} logs per identical run",
        d.c1_coarse_miss_rate * 100.0,
        d.c1_fine_logs_per_run
    );
    println!(
        "C2 (CPU-GPU time sync): naive host-grid placement errs by sigma = {:.0} us",
        d.c2_naive_placement_error_ns / 1e3
    );
    println!(
        "C3 (execution-time variation): p99/median spread {:.1}%; {:.1}% of executions \
         are binning outliers",
        d.c3_time_spread * 100.0,
        d.c3_outlier_fraction * 100.0
    );
    println!(
        "C4 (power variance across executions): identical executions early vs late in a \
         burst differ by {:.0}% measured power",
        d.c4_early_late_power_gap * 100.0
    );

    let csv = format!(
        "metric,value\nc1_coarse_miss_rate,{}\nc1_fine_logs_per_run,{}\n\
         c2_naive_error_ns,{}\nc3_time_spread,{}\nc3_outlier_fraction,{}\n\
         c4_early_late_gap,{}\n",
        d.c1_coarse_miss_rate,
        d.c1_fine_logs_per_run,
        d.c2_naive_placement_error_ns,
        d.c3_time_spread,
        d.c3_outlier_fraction,
        d.c4_early_late_power_gap
    );
    std::fs::write(dir.join("fig3.csv"), csv).expect("write fig3.csv");
    println!("\nwrote {}", dir.join("fig3.csv").display());
}
