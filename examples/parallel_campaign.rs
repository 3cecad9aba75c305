//! Shard the paper's fourteen-kernel suite across worker threads and show
//! the result is bit-identical to the serial path.
//!
//! ```sh
//! cargo run --release --example parallel_campaign
//! ```

use std::time::Instant;

use fingrav::core::backend::SimulationFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::executor::{CampaignExecutor, RunOptions};
use fingrav::core::runner::RunnerConfig;
use fingrav::sim::SimConfig;
use fingrav::workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(12));
    campaign.add_all(suite::full_suite(&machine).into_iter().map(|k| k.desc));

    // Slot i draws seed mix_seed(42, i): independent devices, re-derivable
    // in isolation, identical no matter which worker profiles them.
    let factory = SimulationFactory::new(SimConfig::default(), 42);

    let t0 = Instant::now();
    let serial = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())?
        .into_report()?;
    let serial_s = t0.elapsed().as_secs_f64();

    let executor = CampaignExecutor::with_available_parallelism();
    let t0 = Instant::now();
    let parallel = executor
        .run(&campaign, &factory, RunOptions::default())?
        .into_report()?;
    let parallel_s = t0.elapsed().as_secs_f64();

    assert_eq!(serial, parallel, "sharding must not change a single bit");
    println!(
        "{} kernels | serial {serial_s:.2}s | {} workers {parallel_s:.2}s | identical: yes\n",
        campaign.len(),
        executor.workers(),
    );
    println!("{}", parallel.summary_markdown());
    if let Some(hottest) = parallel.hottest() {
        println!(
            "\nhottest kernel: {} at {:.0} W SSP",
            hottest.label,
            hottest.ssp_mean_total_w.unwrap_or(f64::NAN)
        );
    }
    Ok(())
}
