//! Distribute a campaign across two TCP-loopback workers — kill one
//! mid-entry, reconnect a replacement — and end up with reports, profile
//! stores, and CSVs byte-identical to a single-node serial run.
//!
//! ```sh
//! cargo run --release --example distributed_campaign
//! ```
//!
//! Demonstrates the cross-node transport end to end:
//!
//! 1. a reference campaign runs serially under `CheckpointMode::Fresh`,
//!    checkpointing into a normal `FGRVCKPT` directory;
//! 2. a `CampaignService` on `127.0.0.1` is submitted the same campaign;
//!    worker 1 and worker 2 connect concurrently and pull entries;
//! 3. worker 1 is killed mid-campaign: its local `CancellationToken`
//!    fires while an entry is in flight, the measurement aborts
//!    cooperatively, and the service re-plans that entry;
//! 4. worker 2 leaves cleanly after two entries (`max_entries`), and a
//!    reconnecting worker 3 finishes everything that remains;
//! 5. the campaign's ticket yields the outcome, and its checkpoint
//!    directory `gather`s into profile stores — and reports and CSVs —
//!    compared byte for byte against the serial reference.
//!
//! The transport here runs with the v2 deadline discipline: the
//! service enforces an idle byte-silence budget
//! (`ServiceConfig::idle_timeout`) and evicts wedged assignments,
//! workers pump `Heartbeat` frames while a
//! measurement makes no wire progress (`WorkerOptions::heartbeat`), and
//! connections are established with `connect_with_retry`'s exponential
//! backoff instead of dying on a transient `ConnectionRefused`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use fingrav::core::backend::SimulationFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::{gather, CheckpointDir};
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CancellationToken, CheckpointMode, NoopCampaignObserver,
    RunOptions,
};
use fingrav::core::profile::ProfileAxis;
use fingrav::core::report::profile_to_csv;
use fingrav::core::runner::RunnerConfig;
use fingrav::core::transport::{
    connect_with_retry, work, CampaignService, ServiceConfig, WorkerOptions,
};
use fingrav::sim::SimConfig;
use fingrav::workloads::suite;

#[path = "../tests/common/mod.rs"]
mod common;
use common::entry_bytes;

/// Fires the worker's cancellation token when it starts its second
/// entry, so the abort lands mid-measurement — the transport analogue of
/// killing the worker process.
struct KillOnSecondEntry {
    cancel: CancellationToken,
    started: AtomicUsize,
}

impl CampaignObserver for KillOnSecondEntry {
    fn entry_started(&self, index: usize, label: &str) {
        let n = self.started.fetch_add(1, Ordering::SeqCst) + 1;
        println!("  worker-1 starts entry {index} ({label})");
        if n == 2 {
            println!("  -- killing worker-1 mid-entry --");
            self.cancel.abort();
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    campaign.add_all(
        suite::gemm_suite(&machine)
            .into_iter()
            .take(6)
            .map(|k| k.desc),
    );
    let total = campaign.len();
    let factory = SimulationFactory::new(SimConfig::default(), 0xD157);

    let root = std::env::temp_dir().join(format!("fingrav-distributed-{}", std::process::id()));
    let ref_dir = root.join("single-node");
    let net_dir = root.join("distributed");

    // ------------------------------------------------------------------
    // 1. Single-node serial reference, checkpointed as it runs.
    // ------------------------------------------------------------------
    println!("reference: profiling all {total} kernels serially on one node");
    let fresh = RunOptions {
        checkpoint: CheckpointMode::Fresh(&ref_dir),
        ..RunOptions::default()
    };
    let reference = CampaignExecutor::serial()
        .run(&campaign, &factory, fresh)?
        .into_report()?;

    // ------------------------------------------------------------------
    // 2–4. The same campaign served over TCP loopback.
    // ------------------------------------------------------------------
    println!("\ndistributed: serving the campaign on 127.0.0.1");
    // A 10 s byte-silence budget: generous for loopback, but it means a
    // wedged worker (open socket, no bytes) is evicted and its entry
    // re-planned instead of hanging the campaign forever.
    let service = CampaignService::bind(
        "127.0.0.1:0",
        ServiceConfig {
            idle_timeout: Duration::from_secs(10),
        },
    )?;
    let addr = service.local_addr()?;
    let ticket = service.submit(campaign.clone(), &net_dir);
    // Workers heartbeat well inside that budget while measuring.
    let options = WorkerOptions {
        heartbeat: Duration::from_millis(500),
        ..WorkerOptions::default()
    };

    let outcome = std::thread::scope(|s| {
        // Worker 1: killed mid-entry by its own cancellation token.
        s.spawn(|| {
            let killer = KillOnSecondEntry {
                cancel: CancellationToken::new(),
                started: AtomicUsize::new(0),
            };
            let stream =
                connect_with_retry(addr, Duration::from_secs(5)).expect("loopback connect");
            let summary = work(
                stream,
                &campaign,
                &factory,
                &killer,
                &killer.cancel,
                &options,
            )
            .expect("a killed worker still leaves cleanly");
            println!(
                "  worker-1 delivered {} entr{} before dying",
                summary.completed.len(),
                if summary.completed.len() == 1 {
                    "y"
                } else {
                    "ies"
                }
            );
        });
        // Worker 2: measures two entries, then leaves.
        s.spawn(|| {
            let stream =
                connect_with_retry(addr, Duration::from_secs(5)).expect("loopback connect");
            let summary = work(
                stream,
                &campaign,
                &factory,
                &NoopCampaignObserver,
                &CancellationToken::new(),
                &WorkerOptions {
                    max_entries: Some(2),
                    ..options.clone()
                },
            )
            .expect("worker 2 leaves cleanly");
            println!("  worker-2 delivered {:?}, then left", summary.completed);
            // Worker 3: "reconnects" (same machine, fresh connection) and
            // finishes whatever remains — including the entry worker 1
            // dropped mid-measurement.
            let stream =
                connect_with_retry(addr, Duration::from_secs(5)).expect("loopback reconnect");
            let summary = work(
                stream,
                &campaign,
                &factory,
                &NoopCampaignObserver,
                &CancellationToken::new(),
                &options,
            )
            .expect("worker 3 finishes the campaign");
            println!(
                "  worker-3 (reconnected) delivered {:?}; campaign complete: {}",
                summary.completed, summary.campaign_complete
            );
        });
        ticket.wait()
    })?;
    if outcome.evictions.is_empty() {
        println!("  no deadline evictions: every worker stayed live");
    } else {
        println!("  deadline evictions re-planned: {:?}", outcome.evictions);
    }
    let distributed = outcome.into_report()?;

    // ------------------------------------------------------------------
    // 5. Byte-identity: reports, gathered stores, and CSVs all match.
    // ------------------------------------------------------------------
    let ref_bytes = entry_bytes(&reference.reports);
    assert_eq!(
        ref_bytes,
        entry_bytes(&distributed.reports),
        "distributed report must match bit for bit"
    );

    let a = gather(&CheckpointDir::open(&ref_dir)?, &campaign)?;
    let b = gather(&CheckpointDir::open(&net_dir)?, &campaign)?;
    for (what, left, right) in [
        ("run", &a.run, &b.run),
        ("sse", &a.sse, &b.sse),
        ("ssp", &a.ssp, &b.ssp),
    ] {
        assert!(
            left.diff(right).is_identical(),
            "{what} stores diverged: {}",
            left.diff(right).summary()
        );
        assert_eq!(left.to_bytes(), right.to_bytes());
    }
    let mut csv_bytes = 0usize;
    for (r_ref, r_net) in reference.reports.iter().zip(&distributed.reports) {
        for (csv_ref, csv_net) in [
            (
                profile_to_csv(&r_ref.run_profile, ProfileAxis::RunTime),
                profile_to_csv(&r_net.run_profile, ProfileAxis::RunTime),
            ),
            (
                profile_to_csv(&r_ref.sse_profile, ProfileAxis::Toi),
                profile_to_csv(&r_net.sse_profile, ProfileAxis::Toi),
            ),
            (
                profile_to_csv(&r_ref.ssp_profile, ProfileAxis::Toi),
                profile_to_csv(&r_net.ssp_profile, ProfileAxis::Toi),
            ),
        ] {
            assert_eq!(csv_ref, csv_net, "CSV artefacts must match byte for byte");
            csv_bytes += csv_ref.len();
        }
    }
    println!(
        "\nbyte-identical: {} report bytes, {} merged profile points, {csv_bytes} CSV bytes",
        ref_bytes.iter().map(Vec::len).sum::<usize>(),
        a.run.len() + a.sse.len() + a.ssp.len(),
    );

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
