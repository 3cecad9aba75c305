//! Experiment-harness plumbing: the [`RunContext`] every bench binary
//! builds from its argv, scales, seeds, simulation construction, and
//! campaign execution over the parallel executor (with live progress on
//! stderr).

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use fingrav_core::backend::FnBackendFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::{campaign_digest, MANIFEST_FILE};
use fingrav_core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CampaignTally, CheckpointMode, RunOptions,
};
use fingrav_core::runner::{KernelPowerReport, RunnerConfig};
use fingrav_core::transport::CampaignService;
use fingrav_sim::config::SimConfig;
use fingrav_sim::engine::Simulation;
use fingrav_sim::kernel::KernelDesc;

/// How much compute to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-guided run counts (Table I: 200–400 runs per kernel).
    Full,
    /// Reduced run counts for quick regeneration and CI.
    Quick,
    /// Minimal run counts for smoke runs.
    Bench,
}

/// Where harness campaigns are measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// On local worker threads.
    Local,
    /// By remote workers, coordinated on this address (`--serve ADDR`).
    Serve(String),
    /// As a transport worker of the `--serve` process at this address
    /// (`--connect ADDR`), then downloading the finished reports so the
    /// rendered artefacts are byte-identical on both nodes.
    Connect(String),
}

/// One bench process's run: the settings parsed from the shared argv
/// grammar (`--quick|--full|--bench`, `--out DIR`, `--workers N`,
/// `--checkpoint-dir DIR`, `--resume`, `--serve ADDR`, `--connect ADDR`)
/// plus the state its campaigns share. Every bench binary builds exactly
/// one with [`RunContext::from_args`] and runs its campaigns through
/// [`RunContext::campaign_report`]. Campaigns run one after another on the
/// thread that owns the context, so that state is plain fields.
#[derive(Debug)]
pub struct RunContext {
    /// The compute scale (last scale flag wins; default `Full`).
    pub scale: Scale,
    /// The artefact directory (`--out DIR`, default `results/`).
    pub out: PathBuf,
    /// Explicit campaign worker count (`--workers N`), if given.
    pub workers: Option<usize>,
    /// Root directory campaigns checkpoint into (`--checkpoint-dir DIR`),
    /// if given.
    pub checkpoint_dir: Option<PathBuf>,
    /// Whether to resume existing checkpoints instead of re-running
    /// (`--resume`).
    pub resume: bool,
    /// Where campaigns are measured (`--serve ADDR` / `--connect ADDR`).
    pub transport: Transport,
    /// Arguments the grammar did not recognize or could not apply:
    /// unknown flags, bare positionals, value flags without their value,
    /// and `--serve` with `--connect` (both are then ignored).
    pub unknown: Vec<String>,
    /// Per-process campaign ordinal: every [`RunContext::campaign_report`]
    /// call gets the next position, and because the `--serve` and
    /// `--connect` processes run the same binary with the same flags, both
    /// sides count campaigns identically — which is what lets the
    /// transport handshake distinguish "coordinator still draining the
    /// previous campaign" from "coordinator already restored this campaign
    /// from a checkpoint".
    sequence: u64,
    /// Whether this `--connect` process has completed at least one
    /// campaign over the wire. Once it has, a refused connection means the
    /// serving process exited (its listener lives as long as its context),
    /// so later campaigns fall back to local measurement after a short
    /// grace instead of burning the full first-contact window.
    wire_contacted: bool,
    /// The one persistent campaign service a `--serve` process hosts every
    /// campaign on, started at the first serve. One listener for the whole
    /// process (rebinding the fixed address per campaign could
    /// intermittently fail with `EADDRINUSE` while the previous campaign's
    /// closed connections sit in TIME_WAIT), one service thread draining
    /// submissions in campaign-ordinal order.
    service: Option<CampaignService>,
}

impl RunContext {
    /// Parses a binary's argv (without the program name), warning on
    /// stderr about every argument in [`RunContext::unknown`].
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> RunContext {
        let ctx = RunContext::parse(args);
        for arg in &ctx.unknown {
            eprintln!(
                "warning: ignoring argument `{arg}` \
                 (expected --quick, --full, --bench, --workers N, --out DIR, \
                  --checkpoint-dir DIR, --resume, and at most one of \
                  --serve ADDR or --connect ADDR)"
            );
        }
        ctx
    }

    /// Parses the shared experiment argv grammar without side effects.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> RunContext {
        let mut ctx = RunContext {
            scale: Scale::Full,
            out: PathBuf::from("results"),
            workers: None,
            checkpoint_dir: None,
            resume: false,
            transport: Transport::Local,
            unknown: Vec::new(),
            sequence: 0,
            wire_contacted: false,
            service: None,
        };
        let (mut serve, mut connect) = (None, None);
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => ctx.scale = Scale::Quick,
                "--full" => ctx.scale = Scale::Full,
                "--bench" => ctx.scale = Scale::Bench,
                "--resume" => ctx.resume = true,
                // Peek before consuming the value: `--workers --bench`
                // must not swallow the sibling flag.
                "--workers" => match args
                    .peek()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                {
                    Some(n) => {
                        ctx.workers = Some(n);
                        args.next();
                    }
                    None => ctx.unknown.push(a),
                },
                // A directory or address value may legitimately start with
                // a dash, so the value is consumed unconditionally — but a
                // missing value is surfaced.
                "--out" => match args.next() {
                    Some(dir) => ctx.out = PathBuf::from(dir),
                    None => ctx.unknown.push(a),
                },
                "--checkpoint-dir" => match args.next() {
                    Some(dir) => ctx.checkpoint_dir = Some(PathBuf::from(dir)),
                    None => ctx.unknown.push(a),
                },
                "--serve" => match args.next() {
                    Some(addr) => serve = Some(addr),
                    None => ctx.unknown.push(a),
                },
                "--connect" => match args.next() {
                    Some(addr) => connect = Some(addr),
                    None => ctx.unknown.push(a),
                },
                // Unknown flags and bare positionals (a typo such as
                // `perf typo`, or a stray value like the `zero` of
                // `--workers zero`) are surfaced alike.
                _ => ctx.unknown.push(a),
            }
        }
        ctx.transport = match (serve, connect) {
            (None, None) => Transport::Local,
            (Some(addr), None) => Transport::Serve(addr),
            (None, Some(addr)) => Transport::Connect(addr),
            (Some(_), Some(_)) => {
                ctx.unknown.extend(["--serve".into(), "--connect".into()]);
                Transport::Local
            }
        };
        ctx
    }

    /// The argv that gives a child bench binary every setting of this
    /// context: `all` runs each artefact binary with it, so the whole tree
    /// shards, checkpoints and distributes the same way.
    pub fn child_args(&self) -> Vec<String> {
        let scale = match self.scale {
            Scale::Full => "--full",
            Scale::Quick => "--quick",
            Scale::Bench => "--bench",
        };
        let mut args = vec![
            scale.to_string(),
            "--out".into(),
            self.out.display().to_string(),
        ];
        if let Some(n) = self.workers {
            args.extend(["--workers".into(), n.to_string()]);
        }
        if let Some(dir) = &self.checkpoint_dir {
            args.extend(["--checkpoint-dir".into(), dir.display().to_string()]);
        }
        if self.resume {
            args.push("--resume".into());
        }
        match &self.transport {
            Transport::Local => {}
            Transport::Serve(addr) => args.extend(["--serve".into(), addr.clone()]),
            Transport::Connect(addr) => args.extend(["--connect".into(), addr.clone()]),
        }
        args
    }

    /// Creates the artefact directory and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn out_dir(&self) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out)?;
        Ok(self.out.clone())
    }

    /// The worker count campaigns shard across: `--workers N` when given,
    /// otherwise the machine's available parallelism (as sized by the
    /// executor itself). Results are bit-identical for any worker count;
    /// only wall-clock changes.
    pub fn workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| CampaignExecutor::with_available_parallelism().workers())
    }
}

impl Drop for RunContext {
    /// Stops the `--serve` service gracefully: campaigns run one after
    /// another on the owning thread and each waits for its ticket, so
    /// nothing is in flight and the drain cancels nothing. While a panic
    /// unwinds, the service's own drop cancels whatever the panic left in
    /// flight instead of waiting on it.
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            if !std::thread::panicking() {
                service.shutdown();
            }
        }
    }
}

impl Scale {
    /// Run count to use when the paper would use `full` runs.
    pub fn runs(&self, full: u32) -> Option<u32> {
        match self {
            Scale::Full => {
                if full == 0 {
                    None // defer to the guidance table
                } else {
                    Some(full)
                }
            }
            Scale::Quick => Some((full.max(40) / 4).max(30)),
            Scale::Bench => Some(8),
        }
    }
}

/// Deterministic seed per experiment name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a, stable across platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Builds a fresh default-config simulation for an experiment.
pub fn simulation(name: &str) -> Simulation {
    Simulation::new(SimConfig::default(), seed_for(name)).expect("default configuration is valid")
}

/// Runner configuration for a scale (`None` runs = paper guidance counts).
pub fn runner_config(runs: Option<u32>) -> RunnerConfig {
    RunnerConfig {
        runs_override: runs,
        ..RunnerConfig::default()
    }
}

/// Live campaign progress on stderr: one line per finished (or failed)
/// entry, with the slot's emitted-log and completed-launch counts drawn
/// from a [`CampaignTally`]. Streaming means the line appears the moment
/// the entry finishes — long campaigns are observable while they run, and
/// because only stderr is written, regenerated artefacts stay
/// byte-identical.
pub struct CampaignProgress {
    tally: CampaignTally,
    total: usize,
    started: Instant,
}

impl CampaignProgress {
    /// Creates a progress observer for a campaign of `total` entries.
    pub fn new(total: usize) -> Self {
        CampaignProgress {
            tally: CampaignTally::new(total),
            total,
            started: Instant::now(),
        }
    }

    /// The underlying live counters.
    pub fn tally(&self) -> &CampaignTally {
        &self.tally
    }
}

impl CampaignObserver for CampaignProgress {
    fn entry_event(&self, index: usize, event: &fingrav_core::observe::ProfilingEvent) {
        self.tally.entry_event(index, event);
    }

    fn entry_engine_stats(&self, index: usize, stats: fingrav_sim::engine::EngineStats) {
        self.tally.entry_engine_stats(index, stats);
    }

    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        self.tally.entry_finished(index, report);
        // Engine stats arrive just before `entry_finished`, so the tally
        // already includes this entry's counters; the rate is campaign
        // events over campaign wall-clock (all workers combined).
        let elapsed = self.started.elapsed().as_secs_f64();
        let events = self.tally.engine_events();
        eprintln!(
            "  [{}/{}] {} done in {elapsed:.1}s: {} logs, {} launches, {} SSP LOIs, \
             {:.1}M engine events ({:.1}M/s)",
            self.tally.finished(),
            self.total,
            report.label,
            self.tally.logs(index),
            self.tally.launches(index),
            report.ssp_loi_count(),
            events as f64 / 1e6,
            events as f64 / 1e6 / elapsed.max(1e-9),
        );
    }

    fn entry_failed(&self, index: usize, error: &fingrav_core::error::MethodologyError) {
        eprintln!("  [slot {index}] FAILED: {error}");
    }
}

/// The checkpoint subdirectory a harness campaign lives under: a readable
/// head (the first seed name) plus a hash of the campaign digest *and* the
/// seed names, so distinct campaigns (or the same kernels under different
/// seeding) never share a checkpoint.
fn checkpoint_key(names: &[String], campaign: &Campaign) -> String {
    let head: String = names
        .first()
        .map(String::as_str)
        .unwrap_or("campaign")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let tag = campaign_digest(campaign) ^ seed_for(&names.join("\n"));
    format!("{head}-{tag:016x}")
}

impl RunContext {
    /// Runs a campaign where slot `i` is seeded `seed_for(&names[i])`
    /// directly (the historical one-simulation-per-experiment-name
    /// convention), sharded across [`RunContext::workers`]. Regenerated
    /// artefacts are bit-identical to the old serial loops; only
    /// wall-clock changes.
    ///
    /// When a `--checkpoint-dir` is in effect the campaign is durable: it
    /// checkpoints into a digest-keyed subdirectory as it runs, and with
    /// `--resume` an existing checkpoint is completed (or, if already
    /// complete, simply loaded) instead of re-measured — artefacts stay
    /// byte-identical either way.
    ///
    /// When `--serve ADDR` / `--connect ADDR` is in effect the campaign is
    /// *distributed* instead: the serving process coordinates it over the
    /// [`fingrav_core::transport`] protocol while connecting processes
    /// measure the entries and then download the finished reports — both
    /// sides render byte-identical artefacts because every entry derives
    /// solely from its campaign index and seed name.
    pub fn campaign_report(
        &mut self,
        campaign: &Campaign,
        names: Vec<String>,
    ) -> Vec<KernelPowerReport> {
        assert_eq!(names.len(), campaign.len(), "one seed name per entry");
        let key = checkpoint_key(&names, campaign);
        let factory = FnBackendFactory(move |i: usize| {
            Simulation::new(SimConfig::default(), seed_for(&names[i]))
                .map_err(|e| fingrav_core::error::MethodologyError::Backend(e.to_string()))
        });
        let progress = std::sync::Arc::new(CampaignProgress::new(campaign.len()));
        let cancel = fingrav_core::executor::CancellationToken::new();
        let sequence = self.sequence;
        self.sequence += 1;
        let workers = self.workers();
        let run_locally = |checkpoint| {
            let options = RunOptions {
                observer: &*progress,
                cancel: cancel.clone(),
                checkpoint,
            };
            CampaignExecutor::new(workers).run(campaign, &factory, options)
        };

        let outcome = match self.transport.clone() {
            Transport::Connect(addr) => {
                // Worker mode: measure whatever the coordinator assigns, then
                // fetch the complete report set so rendering proceeds unchanged.
                let local_fallback = |why: &str| {
                    eprintln!("  campaign #{sequence}: {why}; measuring locally");
                    run_locally(CheckpointMode::None)
                        .and_then(CampaignOutcome::into_report)
                        .expect("experiment kernels profile cleanly")
                        .reports
                };
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
                // Transport faults get their own retry budget, counted per fault
                // streak rather than from campaign start: a long-running campaign
                // must not lose its right to reconnect just because the fault
                // arrived late.
                let mut fault_retries = 0u32;
                loop {
                    // First contact gets a generous window (the serving process
                    // may not have started); once the wire has worked, a refusal
                    // means the serving process exited, so give up quickly.
                    let patience = if self.wire_contacted {
                        std::time::Duration::from_secs(5)
                    } else {
                        std::time::Duration::from_secs(120)
                    };
                    let stream = match fingrav_core::transport::connect_with_retry(
                        addr.as_str(),
                        patience,
                    ) {
                        Ok(stream) => stream,
                        // The serving process can legitimately be gone already:
                        // its final campaigns may all have restored from
                        // checkpoints. Local measurement is byte-identical.
                        Err(e) => return local_fallback(&format!("coordinator unreachable ({e})")),
                    };
                    match fingrav_core::transport::work(
                        stream,
                        campaign,
                        &factory,
                        &*progress,
                        &cancel,
                        &fingrav_core::transport::WorkerOptions {
                            max_entries: None,
                            fetch_reports: true,
                            sequence,
                            ..Default::default()
                        },
                    ) {
                        Ok(summary) => {
                            self.wire_contacted = true;
                            if summary.aborted {
                                panic!(
                                    "campaign #{sequence}: the coordinator cancelled the campaign \
                                 (see the --serve process's log)"
                                );
                            }
                            match summary.reports {
                                Some(reports) => return reports,
                                // complete=false: a kernel genuinely failed on
                                // some worker or persistence broke — mirror the
                                // local path's loud failure rather than hiding
                                // the cause behind an invariant message.
                                None => panic!(
                                    "campaign #{sequence} failed on the coordinator \
                                 (campaign_complete = {}; see the --serve process's log)",
                                    summary.campaign_complete
                                ),
                            }
                        }
                        // The coordinator restored this campaign from a complete
                        // checkpoint and moved on; measuring locally yields
                        // byte-identical reports (every slot derives solely from
                        // its index and seed name) and keeps the two processes'
                        // campaign sequences aligned.
                        Err(fingrav_core::transport::TransportError::Denied { code, detail })
                            if code == fingrav_core::transport::DENY_SEQUENCE_PASSED =>
                        {
                            return local_fallback(&detail);
                        }
                        // The previous campaign's listener is still draining on
                        // this address; reconnect until ours comes up.
                        Err(fingrav_core::transport::TransportError::Denied { code, detail })
                            if code == fingrav_core::transport::DENY_SEQUENCE_EARLY =>
                        {
                            if std::time::Instant::now() >= deadline {
                                panic!("coordinator never reached campaign #{sequence}: {detail}");
                            }
                            std::thread::sleep(std::time::Duration::from_millis(50));
                        }
                        // A same-sequence digest mismatch means the two processes
                        // run different campaign definitions (skewed binaries or
                        // flags) — rendering silently diverging artifact trees
                        // would be worse than failing loudly.
                        Err(e @ fingrav_core::transport::TransportError::DigestMismatch { .. }) => {
                            panic!("serve/connect campaign definitions disagree: {e}")
                        }
                        Err(fingrav_core::transport::TransportError::Denied { code, detail })
                            if code == fingrav_core::transport::DENY_DIGEST_MISMATCH =>
                        {
                            panic!("serve/connect campaign definitions disagree: {detail}")
                        }
                        // Anything else — a dropped connection, an unexpected
                        // frame — first tries to reconnect and resume (the
                        // coordinator re-plans the dropped entries, so a fresh
                        // connection picks the campaign back up); a persistent
                        // fault streak falls back to local measurement, which
                        // yields the same bytes and always makes progress.
                        Err(e) => {
                            fault_retries += 1;
                            if fault_retries > 20 {
                                return local_fallback(&format!("transport fault ({e})"));
                            }
                            eprintln!(
                                "  campaign #{sequence}: transport fault ({e}); reconnecting"
                            );
                            std::thread::sleep(std::time::Duration::from_millis(250));
                        }
                    }
                }
            }
            Transport::Serve(addr) => {
                // Serve mode: remote workers measure; persistence lands in
                // the usual digest-keyed checkpoint layout so `--resume` (or a
                // plain executor resume) completes an interrupted serve. Without
                // an explicit `--checkpoint-dir` the checkpoints go to a
                // pid-keyed temp root: scoping to this invocation keeps the
                // within-run duplicate-campaign short-circuit while making sure
                // a later run (possibly of a different build) never restores
                // this run's artifacts. The root is left behind for post-mortems
                // (it is what `--resume` would complete) and is small at bench
                // scale; full-scale serves should pass `--checkpoint-dir`.
                let root = self.checkpoint_dir.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("fingrav-serve-{}", std::process::id()))
                });
                let dir = root.join(&key);
                // Mirror the local path's `--resume` semantics: without the flag
                // an existing checkpoint at this key is discarded and the
                // campaign is measured afresh by the workers, instead of
                // the service silently restoring a previous (possibly
                // different-build) run's artifacts.
                if !self.resume && dir.exists() {
                    std::fs::remove_dir_all(&dir).expect("stale serve checkpoint removes");
                }
                // One persistent campaign service hosts every campaign of this
                // process (started at the first serve); each campaign is one
                // submission. The bind itself retries: a previous process on
                // this address (an earlier child of `all --serve`) leaves
                // TIME_WAIT connections that can hold the port for up to a
                // minute.
                let service = self.service.get_or_insert_with(|| {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
                    let listener = loop {
                        match std::net::TcpListener::bind(addr.as_str()) {
                            Ok(listener) => break listener,
                            Err(e) if std::time::Instant::now() < deadline => {
                                eprintln!("  waiting to bind {addr}: {e}");
                                std::thread::sleep(std::time::Duration::from_millis(250));
                            }
                            Err(e) => panic!("coordinator address {addr} never bound: {e}"),
                        }
                    };
                    fingrav_core::transport::CampaignService::from_listener(
                        listener,
                        fingrav_core::transport::ServiceConfig::default(),
                    )
                });
                let ticket = service.submit_with(
                    campaign.clone(),
                    dir.clone(),
                    Default::default(),
                    Some(progress.clone()),
                );
                // Both processes count campaigns identically and this process
                // submits each exactly once, so the service-assigned wire
                // sequence must track the campaign ordinal.
                assert_eq!(
                    ticket.sequence(),
                    sequence,
                    "service submission order diverged from the campaign ordinal"
                );
                // Wait with a no-progress watchdog: the ticket resolves only
                // once workers finish the campaign, so a connect process that
                // died (or gave up and measured locally) would otherwise hang
                // this process forever. Five minutes with zero finished entries
                // is a wedged run, not a slow one — cancel and fail loudly.
                // Progress is any live signal — finished entries OR the
                // per-slot log/launch counters the workers stream — so a
                // single legitimately slow entry on a healthy worker never
                // trips the watchdog.
                let observed = || {
                    let tally = progress.tally();
                    (0..campaign.len())
                        .map(|i| tally.logs(i) + tally.launches(i))
                        .sum::<u64>()
                        + tally.finished() as u64
                };
                let mut last = observed();
                let mut stalled_for = std::time::Duration::ZERO;
                let tick = std::time::Duration::from_millis(500);
                let watchdog_fired = loop {
                    if ticket.phase() == fingrav_core::transport::CampaignPhase::Done {
                        break false;
                    }
                    std::thread::sleep(tick);
                    let now = observed();
                    if now != last {
                        last = now;
                        stalled_for = std::time::Duration::ZERO;
                    } else {
                        stalled_for += tick;
                        if stalled_for >= std::time::Duration::from_secs(300) {
                            eprintln!(
                                "  campaign #{sequence}: no worker progress for \
                                 {}s; cancelling the serve",
                                stalled_for.as_secs()
                            );
                            ticket.cancel();
                            break true;
                        }
                    }
                };
                let outcome = ticket.wait().expect("served campaign persists cleanly");
                if watchdog_fired {
                    panic!(
                        "campaign #{sequence}: no worker made progress within the \
                         watchdog window — is the --connect process running and \
                         pointed at this address?"
                    );
                }
                outcome
            }
            Transport::Local => {
                let dir = self.checkpoint_dir.as_ref().map(|root| root.join(key));
                let checkpoint = match &dir {
                    Some(dir) if self.resume && dir.join(MANIFEST_FILE).is_file() => {
                        CheckpointMode::Resume(dir)
                    }
                    Some(dir) => CheckpointMode::Fresh(dir),
                    None => CheckpointMode::None,
                };
                run_locally(checkpoint).expect("campaign checkpoint is writable and consistent")
            }
        };
        outcome
            .into_report()
            .expect("experiment kernels profile cleanly")
            .reports
    }
}

/// Profiles one kernel on a fresh simulation via a single-slot campaign on
/// the executor (seeded exactly as the historical serial helper: the slot
/// uses `seed_for(exp)` directly, so figure data is unchanged).
pub fn profile_kernel(exp: &str, desc: &KernelDesc, runs: Option<u32>) -> KernelPowerReport {
    let mut campaign = Campaign::new(runner_config(runs));
    campaign.add(desc.clone());
    let factory = FnBackendFactory(move |_| {
        Simulation::new(SimConfig::default(), seed_for(exp))
            .map_err(|e| fingrav_core::error::MethodologyError::Backend(e.to_string()))
    });
    let mut report = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiling a suite kernel succeeds");
    report.reports.pop().expect("one kernel, one report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_core::runner::FingravRunner;

    fn parse(args: &[&str]) -> RunContext {
        RunContext::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse(&[]).scale, Scale::Full);
        assert_eq!(parse(&["--quick"]).scale, Scale::Quick);
        assert_eq!(parse(&["--bench"]).scale, Scale::Bench);
        assert_eq!(parse(&["--full"]).scale, Scale::Full);
        assert_eq!(parse(&["--out", "x"]).scale, Scale::Full);
    }

    #[test]
    fn workers_flag_parses_without_side_effects() {
        let ctx = parse(&["--workers", "3", "--bench"]);
        assert_eq!(ctx.workers, Some(3));
        assert_eq!(ctx.scale, Scale::Bench);
        assert!(ctx.unknown.is_empty());
        // A missing or non-positive value is surfaced, not silently eaten,
        // and so is the malformed value itself.
        let ctx = parse(&["--workers", "zero"]);
        assert_eq!(ctx.workers, None);
        assert_eq!(ctx.unknown, vec!["--workers".to_string(), "zero".into()]);
        let ctx = parse(&["--workers", "0"]);
        assert_eq!(ctx.workers, None);
        assert!(!ctx.unknown.is_empty());
        // A malformed value never swallows a sibling flag.
        let ctx = parse(&["--workers", "--bench"]);
        assert_eq!(ctx.workers, None);
        assert_eq!(ctx.scale, Scale::Bench);
        assert_eq!(ctx.unknown, vec!["--workers".to_string()]);
    }

    #[test]
    fn transport_flags_parse_without_side_effects() {
        let ctx = parse(&["--serve", "0.0.0.0:7000", "--bench"]);
        assert_eq!(ctx.transport, Transport::Serve("0.0.0.0:7000".into()));
        assert_eq!(ctx.scale, Scale::Bench);
        assert!(ctx.unknown.is_empty());

        let ctx = parse(&["--connect", "10.0.0.2:7000"]);
        assert_eq!(ctx.transport, Transport::Connect("10.0.0.2:7000".into()));

        // Serving and connecting at once is refused: both are ignored.
        let ctx = parse(&["--serve", "a:1", "--connect", "b:2"]);
        assert_eq!(ctx.transport, Transport::Local);
        assert_eq!(ctx.unknown, vec!["--serve".to_string(), "--connect".into()]);

        // A missing value is surfaced, not silently eaten.
        for flag in ["--serve", "--connect", "--checkpoint-dir", "--out"] {
            let ctx = parse(&["--bench", flag]);
            assert_eq!(ctx.unknown, vec![flag.to_string()]);
            assert_eq!(ctx.transport, Transport::Local);
            assert_eq!(ctx.checkpoint_dir, None);
            assert_eq!(ctx.out, PathBuf::from("results"));
        }
    }

    #[test]
    fn workers_flag_overrides_campaign_sharding() {
        assert_eq!(parse(&["--workers", "2"]).workers(), 2);
        assert_eq!(
            parse(&[]).workers(),
            CampaignExecutor::with_available_parallelism().workers()
        );
    }

    #[test]
    fn child_args_reproduce_every_forwarded_setting() {
        for args in [
            &[][..],
            &["--workers", "3"],
            &["--quick", "--checkpoint-dir", "D", "--resume"],
            &["--bench", "--out", "O", "--serve", "A"],
            &["--connect", "A"],
        ] {
            let ctx = parse(args);
            let child = RunContext::parse(ctx.child_args());
            assert!(child.unknown.is_empty(), "{args:?}: {:?}", child.unknown);
            assert_eq!(child.scale, ctx.scale, "{args:?}");
            assert_eq!(child.out, ctx.out, "{args:?}");
            assert_eq!(child.workers, ctx.workers, "{args:?}");
            assert_eq!(child.checkpoint_dir, ctx.checkpoint_dir, "{args:?}");
            assert_eq!(child.resume, ctx.resume, "{args:?}");
            assert_eq!(child.transport, ctx.transport, "{args:?}");
        }
    }

    #[test]
    fn explicit_full_overrides_an_earlier_scale_flag() {
        assert_eq!(parse(&["--quick", "--full"]).scale, Scale::Full);
    }

    #[test]
    fn unknown_flags_are_surfaced_not_swallowed() {
        let ctx = parse(&["--quick", "--frobnicate", "--out", "results", "-x"]);
        assert_eq!(ctx.scale, Scale::Quick);
        assert_eq!(
            ctx.unknown,
            vec!["--frobnicate".to_string(), "-x".to_string()]
        );
        // Bare positionals are surfaced the same way.
        let ctx = parse(&["typo"]);
        assert_eq!(ctx.scale, Scale::Full);
        assert_eq!(ctx.unknown, vec!["typo".to_string()]);
        let ctx = parse(&["--bench", "resultz", "--out", "o", "x"]);
        assert_eq!(ctx.scale, Scale::Bench);
        assert_eq!(ctx.out, PathBuf::from("o"));
        assert_eq!(ctx.unknown, vec!["resultz".to_string(), "x".into()]);
    }

    #[test]
    fn out_value_is_not_mistaken_for_a_flag() {
        // `--out --weird-dir-name` must consume the value, not report it.
        let ctx = parse(&["--out", "--weird"]);
        assert!(ctx.unknown.is_empty());
        assert_eq!(ctx.out, PathBuf::from("--weird"));
    }

    #[test]
    fn out_dir_parses_flag() {
        let dir = std::env::temp_dir().join("fingrav-harness-out-dir");
        let got = parse(&["--out", &dir.display().to_string()])
            .out_dir()
            .unwrap();
        assert_eq!(got, dir);
        assert!(dir.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scale_run_counts() {
        assert_eq!(Scale::Full.runs(200), Some(200));
        assert_eq!(Scale::Full.runs(0), None);
        assert_eq!(Scale::Quick.runs(400), Some(100));
        assert_eq!(Scale::Quick.runs(40), Some(30));
        assert_eq!(Scale::Bench.runs(400), Some(8));
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(seed_for("fig5"), seed_for("fig6"));
        assert_eq!(seed_for("fig5"), seed_for("fig5"));
    }

    #[test]
    fn profile_kernel_preserves_historical_seeding() {
        // The executor-backed helper must reproduce the old direct-runner
        // path exactly, or every figure would silently change.
        let machine = SimConfig::default().machine.clone();
        let desc = fingrav_workloads::suite::cb_gemm(&machine, 2048);
        let via_helper = profile_kernel("seed-compat", &desc, Some(8));
        let mut sim = simulation("seed-compat");
        let mut runner = FingravRunner::new(&mut sim, runner_config(Some(8)));
        let direct = runner.profile(&desc).expect("profiles");
        assert_eq!(via_helper, direct);
    }
}
