//! Fault-injection suite for the cross-node campaign transport: workers
//! killed (gracefully and abruptly) at and inside every entry boundary,
//! adversarial wire peers, and local/remote checkpoint interoperability —
//! every path must end in artifacts byte-identical to a single-node
//! serial run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fingrav::core::backend::{FnBackendFactory, SimulationFactory};
use fingrav::core::campaign::{Campaign, CampaignReport};
use fingrav::core::checkpoint::{gather, CheckpointDir};
use fingrav::core::error::{MethodologyError, MethodologyResult};
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CancellationToken, CheckpointMode,
    ErrorPolicy, NoopCampaignObserver, RunOptions,
};
use fingrav::core::profile::ProfileAxis;
use fingrav::core::report::profile_to_csv;
use fingrav::core::runner::{KernelPowerReport, RunnerConfig};
use fingrav::core::transport::{
    connect_with_retry, read_preamble, work, write_preamble, CampaignPhase, CampaignService,
    CampaignTicket, Frame, ServiceConfig, TransportError, WorkerOptions, WorkerSummary,
    DENY_DIGEST_MISMATCH, DENY_SEQUENCE_EARLY, DENY_SEQUENCE_PASSED, WIRE_MAGIC,
};
use fingrav::sim::config::SimConfig;
use fingrav::sim::engine::Simulation;
use fingrav::sim::kernel::KernelDesc;
use fingrav::sim::power::Activity;
use fingrav::sim::time::SimDuration;

mod common;
use common::{fresh, resume};

/// How long any one served campaign may take here: far longer than the
/// slowest test needs, so only a campaign that never finishes hits it.
const WAIT_DEADLINE: Duration = Duration::from_secs(120);

/// [`CampaignTicket::wait`] with a deadline: a served campaign that never
/// finishes fails its test with the phase it is stuck in, instead of
/// stalling the whole suite.
fn wait_within(ticket: &CampaignTicket, deadline: Duration) -> MethodologyResult<CampaignOutcome> {
    let (tx, rx) = mpsc::channel();
    let waited = ticket.clone();
    // Joined once it has sent; past the deadline it is left blocked.
    let waiter = std::thread::spawn(move || {
        tx.send(waited.wait()).ok();
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => {
            waiter.join().expect("the waiting thread has sent");
            outcome
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "campaign {} still {:?} after {deadline:?}",
            ticket.sequence(),
            ticket.phase()
        ),
        Err(RecvTimeoutError::Disconnected) => {
            panic!("waiting on campaign {} panicked", ticket.sequence())
        }
    }
}

/// A test's [`CampaignService`] on a loopback port. Dropping a service
/// joins its thread, so a test that fails while that thread is wedged
/// would hang in the drop; this one leaves the thread behind instead and
/// lets the failure show.
struct TestService(Option<CampaignService>);

fn serve(config: ServiceConfig) -> TestService {
    TestService(Some(CampaignService::bind("127.0.0.1:0", config).unwrap()))
}

impl TestService {
    fn shutdown(mut self) {
        self.0.take().expect("service").shutdown();
    }
}

impl std::ops::Deref for TestService {
    type Target = CampaignService;

    fn deref(&self) -> &CampaignService {
        self.0.as_ref().expect("service")
    }
}

impl Drop for TestService {
    fn drop(&mut self) {
        if std::thread::panicking() {
            std::mem::forget(self.0.take());
        }
    }
}

/// Works campaign `sequence` of the service at `addr` as one worker,
/// retrying while the service is still on an earlier campaign. A campaign
/// whose turn does not come within [`WAIT_DEADLINE`] fails the test.
fn work_when_due(
    addr: SocketAddr,
    campaign: &Campaign,
    sequence: u64,
) -> Result<WorkerSummary, TransportError> {
    let started = Instant::now();
    loop {
        let stream = connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        match work(
            stream,
            campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions {
                sequence,
                ..WorkerOptions::default()
            },
        ) {
            Err(TransportError::Denied { code, .. }) if code == DENY_SEQUENCE_EARLY => {
                assert!(
                    started.elapsed() < WAIT_DEADLINE,
                    "campaign {sequence} was not served within {WAIT_DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            result => return result,
        }
    }
}

fn kernel(name: &str, us: u64, xcd: f64) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        base_exec: SimDuration::from_micros(us),
        freq_insensitive_frac: 0.5,
        activity: Activity::new(xcd, 0.4, 0.3),
        compute_utilization: xcd * 0.7,
        flops: 1e10,
        hbm_bytes: 1e7,
        llc_bytes: 1e8,
        workgroups: 128,
    }
}

fn campaign_of(n: usize) -> Campaign {
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    for i in 0..n {
        campaign.add(kernel(
            &format!("k{i}"),
            110 + 35 * i as u64,
            0.4 + 0.1 * i as f64,
        ));
    }
    campaign
}

fn factory() -> SimulationFactory {
    SimulationFactory::new(SimConfig::default(), 0x7EA7)
}

/// Every CSV artefact the bench layer would render from a report.
fn csvs_of(report: &CampaignReport) -> Vec<String> {
    report
        .reports
        .iter()
        .flat_map(|r| {
            vec![
                profile_to_csv(&r.run_profile, ProfileAxis::RunTime),
                profile_to_csv(&r.sse_profile, ProfileAxis::Toi),
                profile_to_csv(&r.ssp_profile, ProfileAxis::Toi),
            ]
        })
        .collect()
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fingrav-net-{tag}-{}", std::process::id()))
}

/// Serial single-node reference: report, gathered stores, CSVs.
fn reference(
    campaign: &Campaign,
    dir: &std::path::Path,
) -> (CampaignReport, Vec<Vec<u8>>, Vec<String>) {
    let report = CampaignExecutor::serial()
        .run(campaign, &factory(), fresh(dir))
        .unwrap()
        .into_report()
        .unwrap();
    let gathered = gather(&CheckpointDir::open(dir).unwrap(), campaign).unwrap();
    let stores = vec![
        gathered.run.to_bytes(),
        gathered.sse.to_bytes(),
        gathered.ssp.to_bytes(),
    ];
    let csvs = csvs_of(&report);
    (report, stores, csvs)
}

/// Asserts a served checkpoint directory + report match the reference
/// byte for byte.
fn assert_identical(
    campaign: &Campaign,
    dir: &std::path::Path,
    report: &CampaignReport,
    ref_report: &CampaignReport,
    ref_stores: &[Vec<u8>],
    ref_csvs: &[String],
    what: &str,
) {
    assert_eq!(report, ref_report, "{what}: reports drifted");
    assert_eq!(&csvs_of(report), ref_csvs, "{what}: CSV artefacts drifted");
    let gathered = gather(&CheckpointDir::open(dir).unwrap(), campaign).unwrap();
    for (store, reference) in [gathered.run, gathered.sse, gathered.ssp]
        .iter()
        .zip(ref_stores)
    {
        assert_eq!(
            &store.to_bytes(),
            reference,
            "{what}: gathered store drifted"
        );
    }
}

/// Fires the worker's local cancellation token when it starts its
/// `kill_at`-th entry (1-based), so the worker completes `kill_at - 1`
/// entries and dies mid-measurement of the next.
struct KillAtStart {
    cancel: CancellationToken,
    kill_at: usize,
    started: AtomicUsize,
}

impl KillAtStart {
    fn new(kill_at: usize) -> Self {
        KillAtStart {
            cancel: CancellationToken::new(),
            kill_at,
            started: AtomicUsize::new(0),
        }
    }
}

impl CampaignObserver for KillAtStart {
    fn entry_started(&self, _index: usize, _label: &str) {
        if self.started.fetch_add(1, Ordering::SeqCst) + 1 == self.kill_at {
            self.cancel.abort();
        }
    }
}

#[test]
fn kill_and_reconnect_at_every_entry_boundary() {
    let campaign = campaign_of(4);
    let root = temp_root("cuts");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));

    // kill_at = k: the first worker finishes k-1 entries, aborts inside
    // entry k, and a reconnecting worker re-measures it plus the rest —
    // covering the abort *inside* every entry as well as every boundary.
    for kill_at in 1..=campaign.len() {
        let dir = root.join(format!("kill-{kill_at}"));
        let service = serve(ServiceConfig::default());
        let addr = service.local_addr().unwrap();
        let ticket = service.submit(campaign.clone(), &dir);
        let killer = KillAtStart::new(kill_at);
        let stream = TcpStream::connect(addr).unwrap();
        let summary = work(
            stream,
            &campaign,
            &factory(),
            &killer,
            &killer.cancel,
            &WorkerOptions::default(),
        )
        .unwrap();
        assert_eq!(
            summary.completed.len(),
            kill_at - 1,
            "worker must die inside entry {kill_at}"
        );
        // The replacement connects only after the first worker is
        // gone, like a restarted machine would.
        let stream = TcpStream::connect(addr).unwrap();
        let summary = work(
            stream,
            &campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions::default(),
        )
        .unwrap();
        assert!(summary.campaign_complete);
        let report = wait_within(&ticket, WAIT_DEADLINE)
            .unwrap()
            .into_report()
            .unwrap();
        assert_identical(
            &campaign,
            &dir,
            &report,
            &ref_report,
            &ref_stores,
            &ref_csvs,
            &format!("kill at entry {kill_at}"),
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn abrupt_disconnects_and_corrupt_peers_replan() {
    let campaign = campaign_of(3);
    let root = temp_root("abrupt");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));
    let digest = fingrav::core::checkpoint::campaign_digest(&campaign);

    let dir = root.join("served");
    let service = serve(ServiceConfig::default());
    let addr = service.local_addr().unwrap();
    let ticket = service.submit(campaign.clone(), &dir);

    // Peer 1: valid handshake, takes an assignment, then vanishes
    // without a single reply frame.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_preamble(&mut stream).unwrap();
    Frame::Hello {
        digest,
        sequence: 0,
    }
    .write_to(&mut stream)
    .unwrap();
    read_preamble(&mut stream).unwrap();
    assert!(matches!(
        Frame::read_from(&mut stream).unwrap(),
        Frame::Welcome { .. }
    ));
    Frame::Request.write_to(&mut stream).unwrap();
    let assigned = match Frame::read_from(&mut stream).unwrap() {
        Frame::Assign { index } => index,
        other => panic!("expected an assignment, got {other:?}"),
    };
    drop(stream); // SIGKILL analogue: the entry must be re-planned.

    // Peer 2: takes an assignment and dies inside a Done frame —
    // a truncated artifact must never be trusted.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_preamble(&mut stream).unwrap();
    Frame::Hello {
        digest,
        sequence: 0,
    }
    .write_to(&mut stream)
    .unwrap();
    read_preamble(&mut stream).unwrap();
    let _ = Frame::read_from(&mut stream).unwrap();
    Frame::Request.write_to(&mut stream).unwrap();
    let index = match Frame::read_from(&mut stream).unwrap() {
        Frame::Assign { index } => index,
        other => panic!("expected an assignment, got {other:?}"),
    };
    let mut done = Vec::new();
    Frame::Done {
        index,
        artifact: vec![0xAB; 1024],
    }
    .write_to(&mut done)
    .unwrap();
    stream.write_all(&done[..done.len() / 2]).unwrap();
    drop(stream);

    // Peer 3: delivers a *complete but corrupt* artifact; the
    // coordinator must reject it and re-plan, not persist it.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_preamble(&mut stream).unwrap();
    Frame::Hello {
        digest,
        sequence: 0,
    }
    .write_to(&mut stream)
    .unwrap();
    read_preamble(&mut stream).unwrap();
    let _ = Frame::read_from(&mut stream).unwrap();
    Frame::Request.write_to(&mut stream).unwrap();
    let index = match Frame::read_from(&mut stream).unwrap() {
        Frame::Assign { index } => index,
        other => panic!("expected an assignment, got {other:?}"),
    };
    Frame::Done {
        index,
        artifact: vec![0xAB; 1024],
    }
    .write_to(&mut stream)
    .unwrap();
    // The coordinator drops the connection on the garbage.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    drop(stream);
    let _ = assigned;

    // A healthy worker finishes everything the saboteurs dropped.
    let stream = TcpStream::connect(addr).unwrap();
    let summary = work(
        stream,
        &campaign,
        &factory(),
        &NoopCampaignObserver,
        &CancellationToken::new(),
        &WorkerOptions::default(),
    )
    .unwrap();
    assert!(summary.campaign_complete);
    assert_eq!(summary.completed.len(), campaign.len());
    let report = wait_within(&ticket, WAIT_DEADLINE)
        .unwrap()
        .into_report()
        .unwrap();
    assert_identical(
        &campaign,
        &dir,
        &report,
        &ref_report,
        &ref_stores,
        &ref_csvs,
        "abrupt disconnects",
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn handshake_rejects_foreign_versioned_and_mismatched_peers() {
    let campaign = campaign_of(2);
    let root = temp_root("handshake");
    let dir = root.join("served");
    let service = serve(ServiceConfig::default());
    let addr = service.local_addr().unwrap();
    let ticket = service.submit(campaign.clone(), &dir);

    // Foreign magic: the coordinator hangs up without a reply.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"HTTP/1.1 GET /\r\n").unwrap();
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "a foreign peer gets no bytes back");

    // Future wire version: same treatment.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&WIRE_MAGIC).unwrap();
    stream.write_all(&99u32.to_le_bytes()).unwrap();
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "a future-versioned peer gets no bytes back");

    // A worker with a *different campaign* is denied with the
    // digest mismatch spelled out.
    let other = campaign_of(3);
    let stream = TcpStream::connect(addr).unwrap();
    let err = work(
        stream,
        &other,
        &factory(),
        &NoopCampaignObserver,
        &CancellationToken::new(),
        &WorkerOptions::default(),
    )
    .unwrap_err();
    match err {
        TransportError::Denied { code, detail } => {
            assert_eq!(code, DENY_DIGEST_MISMATCH);
            assert!(detail.contains("digest"), "detail: {detail}");
        }
        other => panic!("expected Denied, got {other}"),
    }

    // The right campaign still completes afterwards.
    let stream = TcpStream::connect(addr).unwrap();
    work(
        stream,
        &campaign,
        &factory(),
        &NoopCampaignObserver,
        &CancellationToken::new(),
        &WorkerOptions::default(),
    )
    .unwrap();
    assert!(wait_within(&ticket, WAIT_DEADLINE).unwrap().is_complete());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn served_checkpoint_resumes_locally_and_vice_versa() {
    let campaign = campaign_of(4);
    let root = temp_root("interop");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));

    // Serve → cancel the campaign after two entries → finish the same
    // directory with a plain local resume.
    let dir = root.join("serve-then-resume");
    {
        /// Cancels its campaign's ticket at the `limit`-th finished entry.
        /// The ticket is set right after submission, before any worker
        /// connects, so it is always there when an entry finishes.
        struct CancelAfter {
            ticket: OnceLock<CampaignTicket>,
            limit: usize,
            finished: AtomicUsize,
        }
        impl CampaignObserver for CancelAfter {
            fn entry_finished(&self, _index: usize, _report: &KernelPowerReport) {
                if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.limit {
                    self.ticket.get().expect("ticket set").cancel();
                }
            }
        }
        let service = serve(ServiceConfig::default());
        let observer = Arc::new(CancelAfter {
            ticket: OnceLock::new(),
            limit: 2,
            finished: AtomicUsize::new(0),
        });
        let ticket = service.submit_with(
            campaign.clone(),
            &dir,
            ErrorPolicy::default(),
            Some(observer.clone()),
        );
        observer.ticket.set(ticket.clone()).ok();
        let stream = TcpStream::connect(service.local_addr().unwrap()).unwrap();
        let summary = work(
            stream,
            &campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions::default(),
        )
        .unwrap();
        assert!(summary.aborted, "the worker must be told to stop");
        let outcome = wait_within(&ticket, WAIT_DEADLINE).unwrap();
        assert!(!outcome.is_complete(), "cancellation left work undone");

        let report = CampaignExecutor::new(2)
            .run(&campaign, &factory(), resume(&dir))
            .unwrap()
            .into_report()
            .unwrap();
        assert_identical(
            &campaign,
            &dir,
            &report,
            &ref_report,
            &ref_stores,
            &ref_csvs,
            "serve then local resume",
        );
    }

    // Local sharded run cancelled after two entries → finish the same
    // directory over the wire.
    let dir = root.join("local-then-serve");
    {
        struct CancelAfter {
            cancel: CancellationToken,
            limit: usize,
            finished: AtomicUsize,
        }
        impl CampaignObserver for CancelAfter {
            fn entry_finished(&self, _index: usize, _report: &KernelPowerReport) {
                if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.limit {
                    self.cancel.abort();
                }
            }
        }
        let observer = CancelAfter {
            cancel: CancellationToken::new(),
            limit: 2,
            finished: AtomicUsize::new(0),
        };
        let partial = CampaignExecutor::serial()
            .run(
                &campaign,
                &factory(),
                RunOptions {
                    observer: &observer,
                    cancel: observer.cancel.clone(),
                    checkpoint: CheckpointMode::Fresh(&dir),
                },
            )
            .unwrap();
        assert!(!partial.is_complete(), "cancellation left work undone");

        let service = serve(ServiceConfig::default());
        let ticket = service.submit(campaign.clone(), &dir);
        let stream = TcpStream::connect(service.local_addr().unwrap()).unwrap();
        work(
            stream,
            &campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions::default(),
        )
        .unwrap();
        let report = wait_within(&ticket, WAIT_DEADLINE)
            .unwrap()
            .into_report()
            .unwrap();
        assert_identical(
            &campaign,
            &dir,
            &report,
            &ref_report,
            &ref_stores,
            &ref_csvs,
            "local run then serve",
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn measurement_failures_follow_the_error_policy() {
    let campaign = campaign_of(3);
    let root = temp_root("policy");
    let broken = FnBackendFactory(move |i: usize| {
        if i == 1 {
            Err(MethodologyError::Backend(format!("slot {i} is broken")))
        } else {
            Simulation::new(SimConfig::default(), 0x7EA7 ^ i as u64)
                .map_err(|e| MethodologyError::Backend(e.to_string()))
        }
    });

    for policy in [ErrorPolicy::FailFast, ErrorPolicy::CollectAll] {
        let dir = root.join(format!("{policy:?}"));
        let service = serve(ServiceConfig::default());
        let ticket = service.submit_with(campaign.clone(), &dir, policy, None);
        let stream = TcpStream::connect(service.local_addr().unwrap()).unwrap();
        let summary = work(
            stream,
            &campaign,
            &broken,
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions::default(),
        )
        .unwrap();
        assert!(!summary.campaign_complete);
        let outcome = wait_within(&ticket, WAIT_DEADLINE).unwrap();
        assert_eq!(outcome.errors.len(), 1, "{policy:?}");
        assert_eq!(outcome.errors[0].0, 1);
        assert!(
            matches!(outcome.errors[0].1, MethodologyError::Backend(ref m) if m.contains("slot 1"))
        );
        let measured = outcome.reports.iter().filter(|r| r.is_some()).count();
        match policy {
            // A single serial worker claims in plan order, so entry 0
            // completes before the failure halts assignment.
            ErrorPolicy::FailFast => {
                assert_eq!(measured, 1, "fail-fast stops after the failure");
                assert_eq!(outcome.skipped, vec![2]);
            }
            ErrorPolicy::CollectAll => {
                assert_eq!(measured, 2, "collect-all measures every healthy slot");
                assert!(outcome.skipped.is_empty());
            }
        }
        assert!(outcome.into_report().is_err());
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Multi-campaign sequence negotiation: a worker asking for an earlier
/// or later campaign position than the service is serving gets the
/// matching typed denial instead of a misleading digest mismatch.
#[test]
fn sequence_mismatches_get_typed_denials() {
    let campaign = campaign_of(2);
    let root = temp_root("sequence");
    let service = serve(ServiceConfig::default());
    let addr = service.local_addr().unwrap();
    let ticket_a = service.submit(campaign.clone(), root.join("served-a"));
    let ticket_b = service.submit(campaign.clone(), root.join("served-b"));

    let ask = |sequence: u64| {
        let stream = TcpStream::connect(addr).unwrap();
        work(
            stream,
            &campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions {
                sequence,
                ..WorkerOptions::default()
            },
        )
    };
    // Ahead of the campaign being served: told to come back.
    match ask(1).unwrap_err() {
        TransportError::Denied { code, .. } => assert_eq!(code, DENY_SEQUENCE_EARLY),
        other => panic!("expected a typed denial, got {other}"),
    }
    // The matching sequence works the first campaign to completion.
    assert!(ask(0).unwrap().campaign_complete);
    // Once the first campaign is done (and so no longer accepting), the
    // service serves the second: campaign 0 is already gone.
    assert!(wait_within(&ticket_a, WAIT_DEADLINE).unwrap().is_complete());
    match ask(0).unwrap_err() {
        TransportError::Denied { code, .. } => assert_eq!(code, DENY_SEQUENCE_PASSED),
        other => panic!("expected a typed denial, got {other}"),
    }
    let summary = ask(1).unwrap();
    assert!(summary.campaign_complete);
    assert!(wait_within(&ticket_b, WAIT_DEADLINE).unwrap().is_complete());
    std::fs::remove_dir_all(&root).unwrap();
}

/// A cancelled serve must return even when no worker ever connected —
/// the cancellation is observed by the accept loop itself, not only by
/// worker-driven assignment.
#[test]
fn cancelling_a_workerless_serve_returns() {
    let campaign = campaign_of(2);
    let root = temp_root("workerless");
    let dir = root.join("served");
    let service = serve(ServiceConfig::default());
    let ticket = service.submit(campaign.clone(), &dir);
    std::thread::sleep(Duration::from_millis(100));
    ticket.cancel();
    let outcome = wait_within(&ticket, WAIT_DEADLINE).unwrap();
    assert!(!outcome.is_complete());
    assert_eq!(outcome.skipped, vec![0, 1], "every entry is skipped");
    // The checkpoint is a normal pending manifest; a local run completes it.
    let report = CampaignExecutor::serial()
        .run(&campaign, &factory(), resume(&dir))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report.reports.len(), campaign.len());
    std::fs::remove_dir_all(&root).unwrap();
}

/// The worker-side summary bookkeeping: max_entries leaves cleanly and
/// fetch_reports downloads the campaign-ordered report set.
#[test]
fn fetch_reports_downloads_the_full_campaign() {
    let campaign = campaign_of(3);
    let root = temp_root("fetch");
    let (ref_report, _, _) = reference(&campaign, &root.join("reference"));

    let dir = root.join("served");
    let service = serve(ServiceConfig::default());
    let ticket = service.submit(campaign.clone(), &dir);
    let stream = TcpStream::connect(service.local_addr().unwrap()).unwrap();
    let summary = work(
        stream,
        &campaign,
        &factory(),
        &NoopCampaignObserver,
        &CancellationToken::new(),
        &WorkerOptions {
            max_entries: None,
            fetch_reports: true,
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    assert!(summary.campaign_complete);
    let fetched = summary.reports.expect("complete campaigns are fetchable");
    let report = wait_within(&ticket, WAIT_DEADLINE)
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report, ref_report);
    assert_eq!(
        CampaignReport { reports: fetched },
        ref_report,
        "the worker's downloaded reports must match the coordinator's"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Records which entries a served campaign's observer saw started and
/// evicted, in arrival order.
#[derive(Default)]
struct Lifecycle {
    started: Mutex<Vec<usize>>,
    evicted: Mutex<Vec<usize>>,
}

impl CampaignObserver for Lifecycle {
    fn entry_started(&self, index: usize, _label: &str) {
        self.started.lock().unwrap().push(index);
    }
    fn entry_evicted(&self, index: usize) {
        self.evicted.lock().unwrap().push(index);
    }
}

/// The deadline-hardening tentpole: a worker that takes an assignment
/// and then goes byte-silent *without closing its socket* (a wedged
/// process, a dead NIC, a half-open connection) must not wedge the
/// campaign. The service's idle deadline evicts the lapsed
/// assignment, re-queues the entry at the front of the plan, and a live
/// worker finishes the campaign with byte-identical artifacts.
#[test]
fn silent_unclosed_worker_is_evicted_and_replanned() {
    let campaign = campaign_of(3);
    let root = temp_root("silent");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));
    let digest = fingrav::core::checkpoint::campaign_digest(&campaign);

    let dir = root.join("served");
    let service = serve(ServiceConfig {
        idle_timeout: Duration::from_millis(400),
    });
    let addr = service.local_addr().unwrap();
    let lifecycle = Arc::new(Lifecycle::default());
    let ticket = service.submit_with(
        campaign.clone(),
        &dir,
        ErrorPolicy::default(),
        Some(lifecycle.clone()),
    );

    let assigned = AtomicUsize::new(usize::MAX);
    let served = AtomicBool::new(false);
    let outcome = std::thread::scope(|s| {
        // The silent peer: a complete handshake, one assignment, one
        // Started frame — then nothing, with the socket deliberately
        // held open (no FIN) until the campaign is over.
        s.spawn(|| {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_preamble(&mut stream).unwrap();
            Frame::Hello {
                digest,
                sequence: 0,
            }
            .write_to(&mut stream)
            .unwrap();
            read_preamble(&mut stream).unwrap();
            assert!(matches!(
                Frame::read_from(&mut stream).unwrap(),
                Frame::Welcome { .. }
            ));
            Frame::Request.write_to(&mut stream).unwrap();
            let index = match Frame::read_from(&mut stream).unwrap() {
                Frame::Assign { index } => index,
                other => panic!("expected an assignment, got {other:?}"),
            };
            Frame::Started {
                index,
                label: format!("k{index}"),
            }
            .write_to(&mut stream)
            .unwrap();
            assigned.store(index as usize, Ordering::SeqCst);
            while !served.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
            }
            drop(stream);
        });
        // The live worker starts only once the silent peer holds its
        // assignment, so the eviction path is guaranteed to run.
        while assigned.load(Ordering::SeqCst) == usize::MAX {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stream = TcpStream::connect(addr).unwrap();
        let summary = work(
            stream,
            &campaign,
            &factory(),
            &NoopCampaignObserver,
            &CancellationToken::new(),
            &WorkerOptions {
                heartbeat: Duration::from_millis(50),
                ..WorkerOptions::default()
            },
        )
        .unwrap();
        assert!(summary.campaign_complete);
        let outcome = wait_within(&ticket, WAIT_DEADLINE).unwrap();
        served.store(true, Ordering::SeqCst);
        outcome
    });
    let silent = assigned.load(Ordering::SeqCst);
    assert_eq!(
        outcome.evictions,
        vec![silent],
        "exactly the silent peer's assignment is evicted"
    );
    assert_eq!(
        *lifecycle.evicted.lock().unwrap(),
        outcome.evictions,
        "the observer is told of every eviction"
    );
    assert_eq!(
        lifecycle
            .started
            .lock()
            .unwrap()
            .iter()
            .filter(|&&i| i == silent)
            .count(),
        2,
        "the evicted entry starts once on each worker"
    );
    assert!(outcome.is_complete());
    let report = outcome.into_report().unwrap();
    assert_identical(
        &campaign,
        &dir,
        &report,
        &ref_report,
        &ref_stores,
        &ref_csvs,
        "silent-worker eviction",
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The liveness half of the deadline contract: a worker whose entry
/// measurement makes no wire progress for longer than the service's
/// idle budget must NOT be evicted — the background heartbeat pump
/// proves the connection is alive while the measurement runs.
struct SlowFirstEntry {
    started: AtomicUsize,
}

impl CampaignObserver for SlowFirstEntry {
    fn entry_started(&self, _index: usize, _label: &str) {
        if self.started.fetch_add(1, Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1200));
        }
    }
}

#[test]
fn heartbeats_keep_slow_entries_alive() {
    let campaign = campaign_of(2);
    let root = temp_root("slow");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));

    let dir = root.join("served");
    let service = serve(ServiceConfig {
        idle_timeout: Duration::from_millis(400),
    });
    let ticket = service.submit(campaign.clone(), &dir);
    let observer = SlowFirstEntry {
        started: AtomicUsize::new(0),
    };
    let stream = TcpStream::connect(service.local_addr().unwrap()).unwrap();
    let summary = work(
        stream,
        &campaign,
        &factory(),
        &observer,
        &CancellationToken::new(),
        &WorkerOptions {
            heartbeat: Duration::from_millis(40),
            ..WorkerOptions::default()
        },
    )
    .unwrap();
    assert!(summary.campaign_complete);
    let outcome = wait_within(&ticket, WAIT_DEADLINE).unwrap();
    assert!(
        outcome.evictions.is_empty(),
        "heartbeats must prove liveness through a slow entry: {:?}",
        outcome.evictions
    );
    let report = outcome.into_report().unwrap();
    assert_identical(
        &campaign,
        &dir,
        &report,
        &ref_report,
        &ref_stores,
        &ref_csvs,
        "slow entry under heartbeats",
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// The persistence half of the tentpole: one `CampaignService` listener
/// serves two campaigns back-to-back with no rebind, routing workers by
/// wire sequence number, and both artifact trees stay byte-identical to
/// their serial references.
#[test]
fn persistent_service_serves_campaigns_back_to_back() {
    let first = campaign_of(3);
    let second = campaign_of(2);
    let root = temp_root("service");
    let (ref_a, stores_a, csvs_a) = reference(&first, &root.join("ref-a"));
    let (ref_b, stores_b, csvs_b) = reference(&second, &root.join("ref-b"));

    let service = serve(ServiceConfig::default());
    let addr = service.local_addr().unwrap();
    let dir_a = root.join("served-a");
    let dir_b = root.join("served-b");
    let ticket_a = service.submit(first.clone(), dir_a.clone());
    let ticket_b = service.submit(second.clone(), dir_b.clone());
    assert_eq!(ticket_a.sequence(), 0, "tickets are numbered in order");
    assert_eq!(ticket_b.sequence(), 1, "tickets are numbered in order");

    let (outcome_a, outcome_b) = std::thread::scope(|s| {
        // One worker serves both campaigns through the same address; a
        // connection that lands while the service is still on an
        // earlier campaign gets the typed early denial and retries.
        s.spawn(|| {
            for (sequence, campaign) in [(0u64, &first), (1u64, &second)] {
                match work_when_due(addr, campaign, sequence) {
                    Ok(summary) => assert!(summary.campaign_complete),
                    Err(other) => panic!("worker failed on sequence {sequence}: {other}"),
                }
            }
        });
        let outcome_a = wait_within(&ticket_a, WAIT_DEADLINE).unwrap();
        let outcome_b = wait_within(&ticket_b, WAIT_DEADLINE).unwrap();
        (outcome_a, outcome_b)
    });
    assert_eq!(ticket_a.phase(), CampaignPhase::Done);
    assert_eq!(ticket_b.phase(), CampaignPhase::Done);
    service.shutdown();

    assert!(outcome_a.is_complete() && outcome_b.is_complete());
    let report_a = outcome_a.into_report().unwrap();
    let report_b = outcome_b.into_report().unwrap();
    assert_identical(
        &first,
        &dir_a,
        &report_a,
        &ref_a,
        &stores_a,
        &csvs_a,
        "first campaign through the service",
    );
    assert_identical(
        &second,
        &dir_b,
        &report_b,
        &ref_b,
        &stores_b,
        &csvs_b,
        "second campaign through the service",
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Dropping the service is a hard stop: the campaign it is serving and
/// the one still queued behind it (here also cancelled through its own
/// ticket first) both end with every entry skipped, and each directory
/// is a normal pending checkpoint that a local resume completes.
#[test]
fn dropping_the_service_cancels_queued_and_serving_campaigns() {
    let campaign = campaign_of(2);
    let root = temp_root("drop");
    let (ref_report, _, _) = reference(&campaign, &root.join("reference"));
    let dirs = [root.join("serving"), root.join("queued")];

    let service = serve(ServiceConfig::default());
    let serving = service.submit(campaign.clone(), &dirs[0]);
    let queued = service.submit(campaign.clone(), &dirs[1]);
    // No worker ever connects, so the first campaign serves until the
    // drop and the second stays queued behind it.
    while serving.phase() != CampaignPhase::Serving {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(queued.phase(), CampaignPhase::Queued);
    queued.cancel();
    drop(service);

    for (ticket, dir) in [(&serving, &dirs[0]), (&queued, &dirs[1])] {
        assert_eq!(ticket.phase(), CampaignPhase::Done);
        let outcome = wait_within(ticket, WAIT_DEADLINE).unwrap();
        assert_eq!(outcome.skipped, vec![0, 1], "every entry is skipped");
        let report = CampaignExecutor::serial()
            .run(&campaign, &factory(), resume(dir))
            .unwrap()
            .into_report()
            .unwrap();
        assert_eq!(report, ref_report);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A panic inside one served campaign stays inside it. The campaigns
/// before and after it are served byte-identically to the reference; the
/// panicking one's ticket returns the typed error with the panic message,
/// and its directory is a checkpoint that a local resume completes. The
/// service still drops cleanly.
#[test]
fn a_panicking_observer_fails_only_its_own_campaign() {
    struct PanicOnStart;
    impl CampaignObserver for PanicOnStart {
        fn entry_started(&self, _index: usize, _label: &str) {
            panic!("observer gave up on entry");
        }
    }
    let campaign = campaign_of(2);
    let root = temp_root("panic");
    let (ref_report, ref_stores, ref_csvs) = reference(&campaign, &root.join("reference"));
    let dirs = [root.join("before"), root.join("panics"), root.join("after")];

    let service = serve(ServiceConfig::default());
    let addr = service.local_addr().unwrap();
    let tickets = [
        service.submit(campaign.clone(), &dirs[0]),
        service.submit_with(
            campaign.clone(),
            &dirs[1],
            ErrorPolicy::default(),
            Some(Arc::new(PanicOnStart)),
        ),
        service.submit(campaign.clone(), &dirs[2]),
    ];
    std::thread::scope(|s| {
        s.spawn(|| {
            for sequence in 0..3u64 {
                match work_when_due(addr, &campaign, sequence) {
                    // The panicking campaign drops the connection.
                    _ if sequence == 1 => {}
                    Ok(summary) => assert!(summary.campaign_complete),
                    Err(other) => panic!("worker failed on sequence {sequence}: {other}"),
                }
            }
        });
    });

    match wait_within(&tickets[1], WAIT_DEADLINE) {
        Err(MethodologyError::Panicked(message)) => {
            assert!(message.contains("observer gave up"), "{message}");
        }
        other => panic!("expected the contained panic, got {other:?}"),
    }
    let resumed = CampaignExecutor::serial()
        .run(&campaign, &factory(), resume(&dirs[1]))
        .unwrap()
        .into_report()
        .unwrap();
    for (dir, report, what) in [
        (
            &dirs[0],
            wait_within(&tickets[0], WAIT_DEADLINE)
                .unwrap()
                .into_report()
                .unwrap(),
            "before the panic",
        ),
        (&dirs[1], resumed, "panicked, then resumed locally"),
        (
            &dirs[2],
            wait_within(&tickets[2], WAIT_DEADLINE)
                .unwrap()
                .into_report()
                .unwrap(),
            "after the panic",
        ),
    ] {
        assert_identical(
            &campaign,
            dir,
            &report,
            &ref_report,
            &ref_stores,
            &ref_csvs,
            what,
        );
    }
    drop(service);
    std::fs::remove_dir_all(&root).unwrap();
}
