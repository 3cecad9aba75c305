//! Regenerates the paper's Fig. 10: component-level comparison of the
//! evaluated communication kernels (AG/AR at latency- and bandwidth-bound
//! sizes) against CB-8K-GEMM.

use fingrav_bench::experiments::{fig10, max_total};
use fingrav_bench::render::{component_table, write_profile};
use fingrav_bench::RunContext;
use fingrav_core::profile::ProfileAxis;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 10: communication kernels vs CB-8K-GEMM ==\n");
    let d = fig10(ctx.scale);
    let reference = max_total(&d.rows);
    println!("{}", component_table(&d.rows, reference));

    for report in &d.reports {
        let name = format!(
            "fig10_{}.csv",
            report.label.to_lowercase().replace('/', "-")
        );
        write_profile(&dir, &name, &report.ssp_profile, ProfileAxis::Toi).expect("csv");
    }
    println!("wrote per-kernel SSP CSVs in {}", dir.display());
}
