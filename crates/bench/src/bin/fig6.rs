//! Regenerates the paper's Fig. 6: CB-8K-GEMM total and XCD power over a
//! run — the power excursion / throttle / SSE / SSP trajectory.

use fingrav_bench::experiments::{fig6, run_profile_rows};
use fingrav_bench::render::{shape_summary, write_run_rows};
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 6: CB-8K-GEMM total and XCD power ==\n");
    let s = fig6(ctx.scale);
    println!("{}", shape_summary("CB-8K-GEMM", &s));
    println!(
        "throttle detected: {}; SSE index {}, SSP index {}, {} executions/run, {} golden runs\n",
        s.report.throttle_detected,
        s.report.sse_index,
        s.report.ssp_index,
        s.report.executions_per_run,
        s.report.golden_runs
    );
    println!(
        "{}",
        fingrav_core::chart::profile_chart(&s.report.run_profile, 64, 12)
    );
    write_run_rows(&dir, "fig6_cb8k.csv", &run_profile_rows(&s.report)).expect("csv");
    println!("wrote {}", dir.join("fig6_cb8k.csv").display());
}
