//! Campaign determinism under sharding: a parallel `CampaignExecutor` run
//! must encode to `FGRVCKPT` entry bytes identical to the serial path's
//! with the same seeds, and the report must survive that codec's round
//! trip.
//!
//! Streaming-session coverage rides along: bounded-channel backpressure
//! must never deadlock the engine, a mid-script abort must yield a valid
//! partial trace, per-slot event streams must be bit-identical across
//! worker counts, and campaign cancellation must stop pending entries and
//! abort in-flight sessions under both error policies.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use fingrav::core::backend::{FnBackendFactory, PowerBackend, SimulationFactory};
use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::EntryArtifact;
use fingrav::core::error::MethodologyError;
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CancellationToken, ErrorPolicy, RunOptions,
};
use fingrav::core::observe::ProfilingEvent;
use fingrav::core::runner::RunnerConfig;
use fingrav::sim::session::{ChannelSink, TelemetryEvent};
use fingrav::sim::{Script, SimConfig, SimDuration, Simulation};
use fingrav::workloads::suite;

mod common;
use common::entry_bytes;

/// Eight suite kernels (the six GEMM/GEMVs plus two collectives): enough
/// shape diversity that warm-up counts, SSP indices, and LOI yields all
/// differ across slots.
fn suite_campaign() -> Campaign {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(8));
    campaign.add_all(suite::gemm_suite(&machine).into_iter().map(|k| k.desc));
    let collectives = suite::collective_suite(&machine, Default::default());
    campaign.add_all(collectives.into_iter().take(2).map(|k| k.desc));
    assert!(campaign.len() >= 6, "the determinism claim needs breadth");
    campaign
}

#[test]
fn parallel_campaign_serializes_byte_identical_to_serial() {
    let campaign = suite_campaign();
    let factory = SimulationFactory::new(SimConfig::default(), 4242);

    let serial = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("serial campaign profiles");
    let parallel = CampaignExecutor::new(4)
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("parallel campaign profiles");

    // Structural equality first (clearer failure on a mismatch)...
    assert_eq!(serial, parallel);
    // ...then the headline claim: the serialized artefacts are
    // byte-identical, so downstream pipelines (report archival, diffing,
    // caching) cannot tell how the campaign was executed.
    let serial_bytes = entry_bytes(&serial.reports);
    assert_eq!(serial_bytes, entry_bytes(&parallel.reports));
    let total: usize = serial_bytes.iter().map(Vec::len).sum();
    assert!(
        total > 1_000,
        "sanity: {total} bytes is too small for 8 kernel reports"
    );

    // And the artefact round-trips losslessly.
    for (bytes, report) in serial_bytes.iter().zip(&serial.reports) {
        let restored = EntryArtifact::from_bytes(bytes).expect("decodes");
        assert_eq!(&restored.report, report);
    }
}

#[test]
fn legacy_closure_path_matches_the_executor() {
    let campaign = suite_campaign();
    let factory = SimulationFactory::new(SimConfig::default(), 4242);
    let via_executor = CampaignExecutor::new(3)
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");
    let closure = FnBackendFactory(|i: usize| {
        Simulation::new(SimConfig::default(), factory.slot_seed(i))
            .map_err(|e| MethodologyError::Backend(e.to_string()))
    });
    let via_closure = CampaignExecutor::serial()
        .run(&campaign, &closure, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");
    assert_eq!(via_executor, via_closure);
}

#[test]
fn worker_count_never_changes_results() {
    // Degenerate and over-provisioned worker counts included: more workers
    // than kernels must not reorder, drop, or reseed anything.
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    campaign.add_all(suite::gemm_suite(&machine).into_iter().map(|k| k.desc));
    let factory = SimulationFactory::new(SimConfig::default(), 77);

    let reference = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");
    for workers in [2, 5, 32] {
        let sharded = CampaignExecutor::new(workers)
            .run(&campaign, &factory, RunOptions::default())
            .and_then(CampaignOutcome::into_report)
            .expect("profiles");
        assert_eq!(
            entry_bytes(&reference.reports),
            entry_bytes(&sharded.reports),
            "{workers} workers diverged"
        );
    }
}

/// Order-sensitive per-slot digest of every profiling event: identical
/// streams fold to identical `(digest, count)` pairs, and any reordering,
/// insertion, or mutation changes the digest.
struct Recorder {
    slots: Vec<Mutex<(u64, usize)>>,
}

impl Recorder {
    fn new(entries: usize) -> Self {
        Recorder {
            slots: (0..entries).map(|_| Mutex::new((0, 0))).collect(),
        }
    }

    fn digests(&self) -> Vec<(u64, usize)> {
        self.slots
            .iter()
            .map(|s| *s.lock().expect("recorder slot"))
            .collect()
    }
}

impl CampaignObserver for Recorder {
    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        let mut slot = self.slots[index].lock().expect("recorder slot");
        let mut h = DefaultHasher::new();
        slot.0.hash(&mut h);
        format!("{event:?}").hash(&mut h);
        *slot = (h.finish(), slot.1 + 1);
    }
}

#[test]
fn bounded_channel_backpressure_never_deadlocks_the_engine() {
    let machine = SimConfig::default().machine.clone();
    let desc = suite::cb_gemm(&machine, 2048);
    let script_for = |sim: &mut Simulation| {
        let k = PowerBackend::register_kernel(sim, &desc).expect("register");
        Script::builder()
            .begin_run()
            .start_power_logger()
            .read_gpu_timestamp()
            .launch_timed(k, 12)
            .sleep(SimDuration::from_millis(1))
            .read_gpu_timestamp()
            .stop_power_logger()
            .build()
    };

    // Reference: the plain batch call on an identically-seeded device.
    let mut reference_sim = Simulation::new(SimConfig::default(), 4711).expect("valid");
    let script = script_for(&mut reference_sim);
    let reference = PowerBackend::run_script(&mut reference_sim, &script).expect("runs");

    // Streamed: a capacity-1 channel with a deliberately slow consumer, so
    // the engine spends most of the run blocked on backpressure.
    let mut sim = Simulation::new(SimConfig::default(), 4711).expect("valid");
    let script = script_for(&mut sim);
    let (sink, rx) = ChannelSink::bounded(1);
    let consumer = std::thread::spawn(move || {
        let mut events = Vec::new();
        for event in rx.iter() {
            if events.len() % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            events.push(event);
        }
        events
    });
    let trace = sim.begin_script(&script, sink).run().expect("session runs");
    let events = consumer.join().expect("consumer finishes: no deadlock");

    assert_eq!(trace, reference, "backpressure must not change the trace");
    assert_eq!(
        events.first(),
        Some(&TelemetryEvent::ScriptStarted { ops: 7 })
    );
    assert_eq!(
        events.last(),
        Some(&TelemetryEvent::ScriptDone { aborted: false })
    );
    // The sink-driven stream carries the full trace, event for event.
    let streamed_execs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::LaunchCompleted { execution } => Some(*execution),
            _ => None,
        })
        .collect();
    assert_eq!(streamed_execs, trace.executions);
    let streamed_logs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::PowerLogEmitted { coarse: false, log } => Some(*log),
            _ => None,
        })
        .collect();
    assert_eq!(streamed_logs, trace.power_logs);
}

#[test]
fn mid_script_abort_yields_a_valid_partial_trace() {
    let machine = SimConfig::default().machine.clone();
    let desc = suite::cb_gemm(&machine, 4096);
    let mut sim = Simulation::new(SimConfig::default(), 515).expect("valid");
    let k = PowerBackend::register_kernel(&mut sim, &desc).expect("register");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .launch_timed(k, 40)
        .sleep(SimDuration::from_millis(1))
        .stop_power_logger()
        .build();

    let session = sim.begin_script(&script, |_: TelemetryEvent| {});
    let abort = session.abort_handle();
    abort.abort(); // fire before the first op: deterministic cut point
    let trace = session.run().expect("aborted sessions still return Ok");
    assert!(trace.aborted);
    assert!(trace.executions.is_empty());

    // Fire mid-launch from the sink itself: the partial trace keeps every
    // completed execution, in order, and the session stays usable.
    let mut sim = Simulation::new(SimConfig::default(), 515).expect("valid");
    let k = PowerBackend::register_kernel(&mut sim, &desc).expect("register");
    let handle = fingrav::sim::session::AbortHandle::new();
    let stopper = handle.clone();
    let mut launches = 0u32;
    let sink = move |event: TelemetryEvent| {
        if matches!(event, TelemetryEvent::LaunchCompleted { .. }) {
            launches += 1;
            if launches == 6 {
                stopper.abort();
            }
        }
    };
    let session = sim.begin_script(&script, sink).with_abort(handle);
    let trace = session.run().expect("aborted sessions still return Ok");
    assert!(trace.aborted, "trace must be tagged");
    assert!(
        !trace.executions.is_empty() && trace.executions.len() < 40,
        "partial: got {}",
        trace.executions.len()
    );
    for (i, e) in trace.executions.iter().enumerate() {
        assert_eq!(e.index, i as u32, "executions stay dense and ordered");
        assert!(e.duration_ns() > 0);
    }
    for w in trace.power_logs.windows(2) {
        assert!(
            w[1].ticks.as_raw() > w[0].ticks.as_raw(),
            "logs tick-ordered"
        );
    }
    // The device is quiescent after the cooperative stop: profiling on the
    // same session still works.
    let follow_up = Script::builder().begin_run().launch_timed(k, 2).build();
    let t2 = PowerBackend::run_script(&mut sim, &follow_up).expect("runs");
    assert!(!t2.aborted);
    assert_eq!(t2.executions.len(), 2);
}

#[test]
fn per_slot_event_streams_are_identical_across_worker_counts() {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    campaign.add_all(
        suite::gemm_suite(&machine)
            .into_iter()
            .take(4)
            .map(|k| k.desc),
    );
    let factory = SimulationFactory::new(SimConfig::default(), 2024);

    // The unobserved plain run is the report reference.
    let plain = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");

    let mut streams: Vec<Vec<(u64, usize)>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let recorder = Recorder::new(campaign.len());
        let observed = RunOptions {
            observer: &recorder,
            ..RunOptions::default()
        };
        let outcome = CampaignExecutor::new(workers)
            .run(&campaign, &factory, observed)
            .expect("no checkpoint");
        let report = outcome.into_report().expect("profiles");
        assert_eq!(
            entry_bytes(&report.reports),
            entry_bytes(&plain.reports),
            "a sink-driven run must match run_script bit for bit ({workers} workers)"
        );
        let digests = recorder.digests();
        for (slot, &(_, count)) in digests.iter().enumerate() {
            assert!(
                count > 100,
                "slot {slot} must stream real events, got {count}"
            );
        }
        streams.push(digests);
    }
    assert_eq!(streams[0], streams[1], "2 workers diverged from 1");
    assert_eq!(streams[0], streams[2], "8 workers diverged from 1");
}

/// Cancels after the first finished entry; counts lifecycle calls.
struct CancelAfterFirst {
    cancel: CancellationToken,
    finished: Mutex<Vec<usize>>,
    skipped: Mutex<Vec<usize>>,
}

impl CampaignObserver for CancelAfterFirst {
    fn entry_finished(&self, index: usize, _report: &fingrav::core::runner::KernelPowerReport) {
        self.finished.lock().unwrap().push(index);
        self.cancel.abort();
    }
    fn entry_skipped(&self, index: usize) {
        self.skipped.lock().unwrap().push(index);
    }
}

#[test]
fn cancellation_token_stops_pending_entries_under_both_policies() {
    let campaign = suite_campaign();
    let factory = SimulationFactory::new(SimConfig::default(), 31337);

    for policy in [ErrorPolicy::FailFast, ErrorPolicy::CollectAll] {
        // Pre-fired token: nothing starts, everything is skipped.
        let cancel = CancellationToken::new();
        cancel.abort();
        let outcome = CampaignExecutor::new(3)
            .error_policy(policy)
            .run(
                &campaign,
                &factory,
                RunOptions {
                    cancel,
                    ..RunOptions::default()
                },
            )
            .expect("no checkpoint");
        assert!(outcome.reports.iter().all(Option::is_none));
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.skipped, (0..campaign.len()).collect::<Vec<_>>());

        // Token fired after the first entry finishes (serial executor for
        // a deterministic cut): exactly one report, the rest skipped.
        let observer = CancelAfterFirst {
            cancel: CancellationToken::new(),
            finished: Mutex::new(Vec::new()),
            skipped: Mutex::new(Vec::new()),
        };
        let outcome = CampaignExecutor::serial()
            .error_policy(policy)
            .run(
                &campaign,
                &factory,
                RunOptions {
                    observer: &observer,
                    cancel: observer.cancel.clone(),
                    ..RunOptions::default()
                },
            )
            .expect("no checkpoint");
        assert_eq!(outcome.reports.iter().filter(|r| r.is_some()).count(), 1);
        assert_eq!(*observer.finished.lock().unwrap(), vec![0]);
        assert_eq!(outcome.skipped, (1..campaign.len()).collect::<Vec<_>>());
        assert_eq!(*observer.skipped.lock().unwrap(), outcome.skipped);
    }
}

/// Cancels the campaign from inside slot 0's event stream, so the cut
/// lands mid-script and the in-flight session must abort.
struct CancelOnFirstLog {
    cancel: CancellationToken,
}

impl CampaignObserver for CancelOnFirstLog {
    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        if index == 0
            && matches!(
                event,
                ProfilingEvent::Device(TelemetryEvent::PowerLogEmitted { .. })
            )
        {
            self.cancel.abort();
        }
    }
}

#[test]
fn cancellation_aborts_the_in_flight_session() {
    let campaign = suite_campaign();
    let factory = SimulationFactory::new(SimConfig::default(), 606);
    let observer = CancelOnFirstLog {
        cancel: CancellationToken::new(),
    };
    let outcome = CampaignExecutor::serial()
        .error_policy(ErrorPolicy::CollectAll)
        .run(
            &campaign,
            &factory,
            RunOptions {
                observer: &observer,
                cancel: observer.cancel.clone(),
                ..RunOptions::default()
            },
        )
        .expect("no checkpoint");
    // Slot 0 was cut mid-measurement: it surfaces as Aborted, not as a
    // report; everything after it never starts.
    assert!(outcome.reports.iter().all(Option::is_none));
    assert_eq!(outcome.errors.len(), 1);
    assert_eq!(outcome.errors[0].0, 0);
    assert!(matches!(outcome.errors[0].1, MethodologyError::Aborted));
    assert_eq!(outcome.skipped, (1..campaign.len()).collect::<Vec<_>>());
}

#[test]
fn collect_all_reports_partial_results_deterministically() {
    // An invalid kernel (zero workgroups) fails registration on its slot;
    // collect-all must still measure every other slot identically to a
    // fully healthy campaign.
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    let kernels: Vec<_> = suite::gemm_suite(&machine)
        .into_iter()
        .take(4)
        .map(|k| k.desc)
        .collect();
    campaign.add_all(kernels.clone());
    let mut broken = kernels[1].clone();
    broken.workgroups = 0;
    campaign.add(broken);

    let factory = SimulationFactory::new(SimConfig::default(), 909);
    let outcome = CampaignExecutor::new(3)
        .error_policy(ErrorPolicy::CollectAll)
        .run(&campaign, &factory, RunOptions::default())
        .expect("no checkpoint");
    assert!(!outcome.is_complete());
    assert_eq!(outcome.errors.len(), 1);
    assert_eq!(outcome.errors[0].0, 4, "the broken slot is the fifth");
    assert_eq!(
        outcome.reports.iter().filter(|r| r.is_some()).count(),
        4,
        "healthy slots all measured"
    );

    // The healthy slots match a campaign that never contained the broken
    // kernel (isolation: a failing sibling cannot perturb measurements).
    let mut healthy = Campaign::new(RunnerConfig::quick(6));
    healthy.add_all(kernels);
    let healthy_report = CampaignExecutor::new(3)
        .run(&healthy, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");
    for (slot, report) in healthy_report.reports.iter().enumerate() {
        assert_eq!(
            entry_bytes(std::slice::from_ref(
                outcome.reports[slot].as_ref().unwrap()
            )),
            entry_bytes(std::slice::from_ref(report)),
        );
    }
}
