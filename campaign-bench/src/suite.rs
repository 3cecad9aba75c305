//! `suite-local` and `suite-served`: whole 14-kernel campaigns, measured
//! locally into a checkpoint directory or served over loopback TCP.

use std::path::Path;
use std::time::{Duration, Instant};

use fingrav_core::backend::SimulationFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CancellationToken,
};
use fingrav_core::runner::KernelPowerReport;
use fingrav_core::transport::{
    connect_with_retry, work, CampaignService, ServiceConfig, TransportError, WorkerOptions,
    DENY_SEQUENCE_EARLY, DENY_SEQUENCE_PASSED,
};

use crate::common::{
    ctx, BenchResult, EntryClock, Samples, Setup, Tally, WorkDir, CAMPAIGNS, WORKERS,
};

/// Runs one campaign locally: a durable, sharded execution into `dir`.
pub fn run_local(
    campaign: &Campaign,
    factory: &SimulationFactory,
    dir: &Path,
    observer: &dyn CampaignObserver,
) -> BenchResult<CampaignOutcome> {
    CampaignExecutor::new(WORKERS)
        .execute_sharded_observed(campaign, factory, dir, observer, &CancellationToken::new())
        .map_err(ctx("local campaign"))
}

/// Runs one campaign through `service`: submits it, then [`WORKERS`]
/// in-process worker threads each work it over one loopback connection.
/// `observer` sees the workers' entries.
pub fn run_served(
    service: &CampaignService,
    campaign: &Campaign,
    factory: &SimulationFactory,
    dir: &Path,
    observer: &dyn CampaignObserver,
) -> BenchResult<CampaignOutcome> {
    let addr = service.local_addr().map_err(ctx("service address"))?;
    let ticket = service.submit(campaign.clone(), dir);
    let options = WorkerOptions {
        sequence: ticket.sequence(),
        ..WorkerOptions::default()
    };
    let worker = || -> BenchResult<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stream =
                connect_with_retry(addr, Duration::from_secs(10)).map_err(ctx("worker connect"))?;
            match work(
                stream,
                campaign,
                factory,
                observer,
                &CancellationToken::new(),
                &options,
            ) {
                Ok(_) => return Ok(()),
                // The other worker finished the campaign before this one
                // got through the handshake.
                Err(TransportError::Denied { code, .. }) if code == DENY_SEQUENCE_PASSED => {
                    return Ok(())
                }
                // The service has not reached this submission yet.
                Err(TransportError::Denied { code, .. })
                    if code == DENY_SEQUENCE_EARLY && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("served worker: {e}")),
            }
        }
    };
    let workers: Vec<BenchResult<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("served worker thread panicked"))
            .collect()
    });
    if let Some(Err(e)) = workers.into_iter().find(Result::is_err) {
        ticket.cancel();
        let _ = ticket.wait();
        return Err(e);
    }
    ticket.wait().map_err(ctx("served campaign"))
}

/// A loopback campaign service sized for [`run_served`].
pub fn bind_service() -> BenchResult<CampaignService> {
    CampaignService::bind("127.0.0.1:0", ServiceConfig::default())
        .map_err(ctx("binding the service"))
}

/// Measures campaigns for `seconds` (at least one round over every
/// campaign seed), locally or served. Every campaign's reports must match
/// the first round's for its seed (digests of their canonical bytes);
/// served ones must also match a local run of the same seed.
/// `between_units` runs after each campaign, outside its time.
pub fn measure(
    setup: &Setup,
    work: &WorkDir,
    served: bool,
    seconds: f64,
    tally: &mut Tally,
    between_units: &mut dyn FnMut() -> BenchResult<()>,
) -> BenchResult<Samples> {
    let mut service: Option<CampaignService> = None;
    let mut samples = Samples::new(1.0);
    let mut reference: Vec<u64> = Vec::with_capacity(CAMPAIGNS);
    let start = Instant::now();
    let mut i = 0usize;
    while i < CAMPAIGNS || start.elapsed().as_secs_f64() < seconds {
        let c = i % CAMPAIGNS;
        // One service per round: a service keeps the outcome of every
        // campaign it served, so a single one would tie `peak_rss_mb` to
        // how many campaigns the host got through in the run.
        if served && c == 0 {
            if let Some(done) = service.take() {
                done.shutdown();
            }
            service = Some(bind_service()?);
        }
        let dir = work.fresh(&format!("campaign-{i}"));
        let clock = EntryClock::new(setup.entries());
        let t = Instant::now();
        let outcome = match &service {
            Some(service) => {
                run_served(service, &setup.campaign, &setup.factories[c], &dir, &clock)
            }
            None => run_local(&setup.campaign, &setup.factories[c], &dir, &clock),
        }?;
        samples.unit_s.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);

        let what = format!("campaign {i} (seed slot {c})");
        tally.outcome(&what, &outcome);
        samples.add_entries(&clock.durations_s());
        let reports: Vec<KernelPowerReport> = outcome.reports.into_iter().flatten().collect();
        samples.delivered += reports.len() as u64;
        let digest = setup.digest_reports(&reports);
        if i < CAMPAIGNS {
            samples.accuracy.add(&reports, &setup.truth_w);
            reference.push(digest);
        } else {
            tally.check(digest == reference[c], || {
                format!("{what}: reports differ from the first round's")
            });
        }
        i += 1;
        between_units()?;
    }
    if let Some(service) = service {
        service.shutdown();
    }
    if served {
        for (c, &want) in reference.iter().enumerate() {
            let local = CampaignExecutor::new(WORKERS)
                .execute(&setup.campaign, &setup.factories[c])
                .into_report()
                .map_err(ctx("local reference campaign"))?;
            tally.check(setup.digest_reports(&local.reports) == want, || {
                format!("seed slot {c}: served reports differ from local ones")
            });
        }
    }
    Ok(samples)
}
