//! Live-watch a streaming campaign and abort it early.
//!
//! ```sh
//! cargo run --release --example live_watch
//! ```
//!
//! Demonstrates the streaming session API end to end:
//!
//! 1. a single script session streams `TelemetryEvent`s through a bounded
//!    channel while the device runs, and an `AbortHandle` stops it
//!    mid-script — the partial trace comes back well-formed and tagged;
//! 2. a sharded campaign run with a `CampaignObserver` and a
//!    `CancellationToken` in its `RunOptions` streams per-entry lifecycle
//!    and device events to the observer; the token, fired after the first
//!    few kernels finish, skips the pending entries and aborts the
//!    in-flight sessions.

use std::sync::mpsc;
use std::sync::Mutex;

use fingrav::core::backend::{PowerBackend, SimulationFactory};
use fingrav::core::campaign::Campaign;
use fingrav::core::error::MethodologyError;
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CampaignTally, CancellationToken, RunOptions,
};
use fingrav::core::observe::ProfilingEvent;
use fingrav::core::runner::{KernelPowerReport, RunnerConfig};
use fingrav::sim::session::{ChannelSink, TelemetryEvent};
use fingrav::sim::{Script, SimConfig, SimDuration, Simulation};
use fingrav::workloads::suite;

/// Campaign lifecycle updates forwarded to the watching thread.
enum Update {
    Started(usize, String),
    Finished {
        index: usize,
        label: String,
        logs: u64,
        launches: u64,
    },
    Failed(usize, MethodologyError),
    Skipped(usize),
}

/// Streams lifecycle updates to a channel and keeps live counters.
struct Watcher {
    tx: Mutex<mpsc::Sender<Update>>,
    tally: CampaignTally,
}

impl Watcher {
    fn send(&self, update: Update) {
        let _ = self.tx.lock().expect("watcher channel").send(update);
    }
}

impl CampaignObserver for Watcher {
    fn entry_started(&self, index: usize, label: &str) {
        self.send(Update::Started(index, label.to_string()));
    }
    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        self.tally.entry_event(index, event);
    }
    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        self.tally.entry_finished(index, report);
        self.send(Update::Finished {
            index,
            label: report.label.clone(),
            logs: self.tally.logs(index),
            launches: self.tally.launches(index),
        });
    }
    fn entry_failed(&self, index: usize, error: &MethodologyError) {
        self.send(Update::Failed(index, error.clone()));
    }
    fn entry_skipped(&self, index: usize) {
        self.send(Update::Skipped(index));
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. One observable, abortable script session.
    // ------------------------------------------------------------------
    let machine = SimConfig::default().machine.clone();
    let mut gpu = Simulation::new(SimConfig::default(), 42)?;
    let kernel = PowerBackend::register_kernel(&mut gpu, &suite::cb_gemm(&machine, 4096))?;
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .launch_timed(kernel, 64)
        .sleep(SimDuration::from_millis(1))
        .stop_power_logger()
        .build();

    // Bounded channel: if we drained slowly the *engine* would block, not
    // drop events (backpressure). The consumer aborts after 5 launches.
    let (sink, events) = ChannelSink::bounded(32);
    let session = gpu.begin_script(&script, sink);
    let abort = session.abort_handle();
    let consumer = std::thread::spawn(move || {
        let mut launches = 0u32;
        let mut logs = 0u32;
        for event in events.iter() {
            match event {
                TelemetryEvent::LaunchCompleted { .. } => {
                    launches += 1;
                    if launches == 5 {
                        abort.abort();
                    }
                }
                TelemetryEvent::PowerLogEmitted { .. } => logs += 1,
                _ => {}
            }
        }
        (launches, logs)
    });
    let trace = session.run()?;
    let (launches, logs) = consumer.join().expect("consumer thread");
    println!(
        "session: streamed {launches} launches + {logs} logs live; abort requested at \
         launch 5 of 64 -> engine stopped at {} executions (buffered events race a \
         little ahead), aborted={}",
        trace.executions.len(),
        trace.aborted,
    );
    assert!(trace.aborted, "the session must be tagged aborted");
    assert!(
        trace.executions.len() < 64,
        "the abort must cut the launch short"
    );

    // ------------------------------------------------------------------
    // 2. A live-watched campaign, cancelled early.
    // ------------------------------------------------------------------
    let mut campaign = Campaign::new(RunnerConfig::quick(8));
    campaign.add_all(suite::full_suite(&machine).into_iter().map(|k| k.desc));
    let total = campaign.len();
    let factory = SimulationFactory::new(SimConfig::default(), 42);
    let executor = CampaignExecutor::new(2);
    let cancel = CancellationToken::new();

    let (tx, rx) = mpsc::channel();
    let watcher = Watcher {
        tx: Mutex::new(tx),
        tally: CampaignTally::new(total),
    };

    println!("\ncampaign: watching {total} kernels on 2 workers, cancelling after 3 finish");
    let outcome = std::thread::scope(|scope| {
        let canceller = cancel.clone();
        let printer = scope.spawn(move || {
            // Ends when the watcher (and with it the sender) is dropped.
            let mut finished = 0usize;
            for update in rx.iter() {
                match update {
                    Update::Started(i, label) => println!("  [{i:2}] {label} started"),
                    Update::Finished {
                        index,
                        label,
                        logs,
                        launches,
                    } => {
                        finished += 1;
                        println!(
                            "  [{index:2}] {label} finished \
                             ({logs} logs, {launches} launches, {finished}/{total})"
                        );
                        if finished == 3 {
                            println!("  -- cancelling the rest --");
                            canceller.abort();
                        }
                    }
                    Update::Failed(i, e) => println!("  [{i:2}] failed: {e}"),
                    Update::Skipped(i) => println!("  [{i:2}] skipped (cancelled)"),
                }
            }
        });
        let watched = RunOptions {
            observer: &watcher,
            cancel: cancel.clone(),
            ..RunOptions::default()
        };
        let outcome = executor.run(&campaign, &factory, watched);
        drop(watcher);
        printer.join().expect("printer thread");
        outcome
    })?;

    let completed = outcome.reports.iter().filter(|r| r.is_some()).count();
    let aborted = outcome
        .errors
        .iter()
        .filter(|(_, e)| matches!(e, MethodologyError::Aborted))
        .count();
    println!(
        "\noutcome: {completed} completed, {aborted} aborted in flight, {} never started",
        outcome.skipped.len(),
    );
    assert!(completed >= 3, "the three watched kernels completed");
    assert!(
        completed < total,
        "cancellation must spare us the full campaign"
    );
    Ok(())
}
