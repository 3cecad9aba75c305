//! Cancel a checkpointed campaign mid-flight, then finish it from the
//! checkpoint — with final artifacts byte-identical to an uninterrupted
//! run.
//!
//! ```sh
//! cargo run --release --example resume_campaign
//! ```
//!
//! Demonstrates the campaign checkpoint subsystem end to end:
//!
//! 1. a reference campaign runs to completion under
//!    `CheckpointMode::Fresh`, writing a `FGRVCKPT` manifest plus per-shard entry artifacts;
//! 2. a second, identically-seeded campaign is cancelled via its
//!    `CancellationToken` after two entries finish — the in-flight
//!    session aborts cooperatively, pending entries are skipped, and the
//!    checkpoint records every status;
//! 3. a `CheckpointMode::Resume` run re-plans only the unfinished entries
//!    and completes them;
//! 4. `gather` merges both checkpoints and the final profile stores (and
//!    the campaign reports, as their `FGRVCKPT` entry bytes) are compared
//!    byte for byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fingrav::core::backend::SimulationFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::{gather, CheckpointDir, EntryStatus};
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CancellationToken, CheckpointMode, RunOptions,
};
use fingrav::core::runner::{KernelPowerReport, RunnerConfig};
use fingrav::sim::SimConfig;
use fingrav::workloads::suite;

#[path = "../tests/common/mod.rs"]
mod common;
use common::entry_bytes;

/// Cancels the campaign once `limit` entries have finished.
struct CancelAfter {
    cancel: CancellationToken,
    limit: usize,
    finished: AtomicUsize,
    log: Mutex<Vec<String>>,
}

impl CampaignObserver for CancelAfter {
    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        let n = self.finished.fetch_add(1, Ordering::SeqCst) + 1;
        self.log
            .lock()
            .unwrap()
            .push(format!("  [{index}] {} finished ({n} done)", report.label));
        if n == self.limit {
            self.log
                .lock()
                .unwrap()
                .push("  -- cancelling the campaign --".to_string());
            self.cancel.abort();
        }
    }
    fn entry_failed(&self, index: usize, error: &fingrav::core::error::MethodologyError) {
        self.log
            .lock()
            .unwrap()
            .push(format!("  [{index}] cut mid-measurement: {error}"));
    }
    fn entry_skipped(&self, index: usize) {
        self.log
            .lock()
            .unwrap()
            .push(format!("  [{index}] skipped (cancelled before start)"));
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
    let factory = SimulationFactory::new(SimConfig::default(), 0xC4A1);
    let executor = CampaignExecutor::new(2);

    let root = std::env::temp_dir().join(format!("fingrav-resume-{}", std::process::id()));
    let ref_dir = root.join("uninterrupted");
    let cut_dir = root.join("cancelled");

    // ------------------------------------------------------------------
    // 1. The uninterrupted reference, checkpointed as it runs.
    // ------------------------------------------------------------------
    println!("reference: running all {total} kernels to completion");
    let fresh = RunOptions {
        checkpoint: CheckpointMode::Fresh(&ref_dir),
        ..RunOptions::default()
    };
    let reference = executor.run(&campaign, &factory, fresh)?.into_report()?;

    // ------------------------------------------------------------------
    // 2. The same campaign, cancelled after two entries finish.
    // ------------------------------------------------------------------
    println!("\ncancelled run: stopping after 2 of {total} entries");
    let observer = CancelAfter {
        cancel: CancellationToken::new(),
        limit: 2,
        finished: AtomicUsize::new(0),
        log: Mutex::new(Vec::new()),
    };
    let cancellable = RunOptions {
        observer: &observer,
        cancel: observer.cancel.clone(),
        checkpoint: CheckpointMode::Fresh(&cut_dir),
    };
    let partial = executor.run(&campaign, &factory, cancellable)?;
    for line in observer.log.lock().unwrap().iter() {
        println!("{line}");
    }
    let done = partial.reports.iter().filter(|r| r.is_some()).count();
    assert!(done >= 2 && done < total, "cancellation left work undone");

    let manifest = CheckpointDir::open(&cut_dir)?.read_manifest()?;
    let pending = manifest.rerun_indices();
    println!(
        "checkpoint after cancel: {done} done, {} to re-run {:?}",
        pending.len(),
        pending
    );
    assert!(!manifest.is_complete());
    assert!(manifest
        .entries
        .iter()
        .any(|e| e.status == EntryStatus::Done));

    // ------------------------------------------------------------------
    // 3. Resume: only the unfinished entries are measured.
    // ------------------------------------------------------------------
    println!("\nresume: completing the cancelled campaign from its checkpoint");
    let resume = RunOptions {
        checkpoint: CheckpointMode::Resume(&cut_dir),
        ..RunOptions::default()
    };
    let resumed = executor.run(&campaign, &factory, resume)?.into_report()?;
    assert!(CheckpointDir::open(&cut_dir)?
        .read_manifest()?
        .is_complete());

    // ------------------------------------------------------------------
    // 4. Bit-identity: reports and gathered profile stores match.
    // ------------------------------------------------------------------
    let ref_bytes = entry_bytes(&reference.reports);
    assert_eq!(
        ref_bytes,
        entry_bytes(&resumed.reports),
        "resumed report must match bit for bit"
    );

    let a = gather(&CheckpointDir::open(&ref_dir)?, &campaign)?;
    let b = gather(&CheckpointDir::open(&cut_dir)?, &campaign)?;
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
    println!(
        "byte-identical: {} report bytes, {} merged profile points across run/sse/ssp",
        ref_bytes.iter().map(Vec::len).sum::<usize>(),
        a.run.len() + a.sse.len() + a.ssp.len(),
    );

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
