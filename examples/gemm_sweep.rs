//! GEMM/GEMV sweep: component-level power across the paper's six
//! matrix kernels (Fig. 7 territory).
//!
//! ```text
//! cargo run --release --example gemm_sweep
//! ```
//!
//! Profiles CB-{8K,4K,2K}-GEMM and MB-{8K,4K,2K}-GEMV, then prints the
//! per-component SSP power table and the power-proportionality analysis
//! behind the paper's takeaways #2-#4.

use fingrav::core::backend::FnBackendFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::error::MethodologyError;
use fingrav::core::executor::{CampaignExecutor, RunOptions};
use fingrav::core::runner::RunnerConfig;
use fingrav::sim::{SimConfig, Simulation};
use fingrav::workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = SimConfig::default().machine.clone();
    let kernels = suite::gemm_suite(&machine);

    // One campaign, one fresh session per kernel (isolated executions, as
    // the paper's measurement guidance #2 requires for short kernels).
    let mut campaign = Campaign::new(RunnerConfig::quick(50));
    campaign.add_all(kernels.iter().map(|sk| sk.desc.clone()));
    let factory = FnBackendFactory(|i: usize| {
        Simulation::new(SimConfig::default(), 100 + i as u64)
            .map_err(|e| MethodologyError::Backend(e.to_string()))
    });
    let result = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())?
        .into_report()?;

    println!("{}", result.summary_markdown());

    println!("| kernel | total W | XCD W | IOD W | HBM W | dominant |");
    println!("|---|---|---|---|---|---|");
    for (label, b) in result.breakdowns() {
        println!(
            "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {} |",
            label,
            b.mean.total(),
            b.mean.xcd,
            b.mean.iod,
            b.mean.hbm,
            b.dominant()
        );
    }

    // Power-proportionality analysis over the compute-bound GEMMs
    // (takeaway #4): utilization comes from the workload model.
    let util_of = |label: &str| {
        kernels
            .iter()
            .find(|sk| sk.label == label && sk.class.is_compute_bound_gemm())
            .map(|sk| sk.desc.compute_utilization)
    };
    let points = result.proportionality_points(|r| util_of(&r.label));
    if let Some(spread) = fingrav::core::insights::proportionality_spread(&points) {
        println!(
            "\npower proportionality across CB GEMMs: best/worst utilization-per-XCD-watt \
             spread = {spread:.2}x (1.0 would be perfectly power-proportional)"
        );
    }
    Ok(())
}
