//! Serial vs parallel campaign execution over the paper's fourteen-kernel
//! suite at bench scale.
//!
//! The parallel run shards kernels across worker threads with
//! per-kernel-seeded fresh simulations, so its `CampaignReport` is
//! bit-identical to the serial run (asserted here before timing). Speedup
//! scales with available cores — near-linear until the kernel count (14)
//! or the core count binds, since shards share no state; on a single-core
//! machine both paths time alike.

use criterion::{criterion_group, criterion_main, Criterion};
use fingrav_bench::harness::campaign_factory;
use fingrav_bench::Scale;
use fingrav_core::campaign::Campaign;
use fingrav_core::executor::CampaignExecutor;
use fingrav_core::runner::RunnerConfig;
use fingrav_sim::config::SimConfig;
use fingrav_workloads::suite;
use std::time::Instant;

fn suite_campaign() -> Campaign {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig {
        runs_override: Scale::Bench.runs(200),
        calibration_reads: 16,
        extra_run_batches: 1,
        ..RunnerConfig::default()
    });
    campaign.add_all(suite::full_suite(&machine).into_iter().map(|k| k.desc));
    campaign
}

fn bench_campaign(c: &mut Criterion) {
    let campaign = suite_campaign();
    let factory = campaign_factory("bench-campaign");
    // At least two workers so the threaded path is always exercised; on a
    // single-core machine that measures pure sharding overhead (expect
    // ~1x), on an N-core machine near-linear speedup up to min(N, 14).
    let workers = CampaignExecutor::with_available_parallelism()
        .workers()
        .max(2);
    assert_eq!(campaign.len(), 14, "the paper's full suite");

    // Correctness first: sharding must not change a single byte.
    let serial = CampaignExecutor::serial()
        .run(&campaign, &factory)
        .expect("suite profiles");
    let parallel = CampaignExecutor::new(workers)
        .run(&campaign, &factory)
        .expect("suite profiles");
    assert_eq!(serial, parallel, "parallel must be bit-identical to serial");

    // Headline number outside criterion's sampling: one timed pass each.
    let t0 = Instant::now();
    let _ = CampaignExecutor::serial().run(&campaign, &factory);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let _ = CampaignExecutor::new(workers).run(&campaign, &factory);
    let parallel_s = t0.elapsed().as_secs_f64();
    println!(
        "campaign/14-kernel suite: serial {serial_s:.2}s, parallel({workers} workers) \
         {parallel_s:.2}s -> speedup {:.2}x",
        serial_s / parallel_s.max(1e-9)
    );

    let mut group = c.benchmark_group("campaign/suite14");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| CampaignExecutor::serial().run(&campaign, &factory))
    });
    group.bench_function(&format!("parallel-{workers}w"), |b| {
        b.iter(|| CampaignExecutor::new(workers).run(&campaign, &factory))
    });
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
