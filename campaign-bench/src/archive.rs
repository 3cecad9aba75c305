//! `archive-read`: reopening checkpoints that set-up persisted. A reopen
//! resumes the complete checkpoint (digest check and restore, nothing
//! measured), gathers its run, SSE and SSP stores and renders the three
//! CSVs.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fingrav_core::backend::BackendFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::{gather_stores, CheckpointDir, EntryArtifactView, GatheredStores};
use fingrav_core::executor::CampaignExecutor;
use fingrav_core::mmap::MappedProfile;
use fingrav_core::runner::KernelPowerReport;

use crate::common::{
    concat_stores, ctx, digest, render_csvs, Archived, BenchResult, Samples, Setup, Tally,
    ARCHIVED, WORKERS,
};

/// What one reopen returns.
pub struct Reopened {
    pub reports: Vec<KernelPowerReport>,
    pub stores: GatheredStores,
    pub csv: [String; 3],
}

/// One reopen of the checkpoint in `dir`: resume (a pure restore, since
/// the checkpoint is complete), gather the stores, render the CSVs. The
/// resume is serial: [`measure`] already runs one reopen per core.
pub fn reopen<F: BackendFactory>(
    campaign: &Campaign,
    factory: &F,
    dir: &Path,
) -> BenchResult<Reopened> {
    let reports = CampaignExecutor::serial()
        .resume(campaign, factory, dir)
        .and_then(|o| o.into_report())
        .map_err(ctx("resume"))?
        .reports;
    let stores = CheckpointDir::open(dir)
        .and_then(|d| gather_stores(&d, campaign))
        .map_err(ctx("gather"))?;
    let csv = render_csvs(&stores.run, &stores.sse, &stores.ssp);
    Ok(Reopened {
        reports,
        stores,
        csv,
    })
}

/// Restores one entry file the way resume does: map, view, decode.
pub fn restore_entry(path: &Path) -> BenchResult<KernelPowerReport> {
    let mapped = MappedProfile::open(path).map_err(ctx("mapping an entry"))?;
    let view = EntryArtifactView::parse(mapped.bytes()).map_err(ctx("viewing an entry"))?;
    Ok(view.to_report())
}

/// Checks a reopen against the live campaign it persisted: restored
/// reports and CSVs by digest, gathered stores column by column against
/// stores concatenated from the (thereby verified) reports.
pub fn check_reopen(what: &str, got: &Reopened, want: &Archived, setup: &Setup, tally: &mut Tally) {
    tally.check(
        setup.digest_reports(&got.reports) == want.reports_digest,
        || format!("{what}: restored reports differ from the live ones"),
    );
    let stores = [&got.stores.run, &got.stores.sse, &got.stores.ssp];
    let live = concat_stores(&got.reports);
    for (name, (got, want)) in ["run", "sse", "ssp"].iter().zip(stores.iter().zip(&live)) {
        let diff = got.diff(want);
        tally.check(diff.is_identical(), || {
            format!("{what}: gathered {name} store {}", diff.mismatch_brief())
        });
    }
    tally.check(digest(&got.csv) == want.csv_digest, || {
        format!("{what}: CSV bytes differ")
    });
}

/// Runs `f` on every archived campaign, on [`WORKERS`] threads (this one
/// and spawned ones) that each take the next campaign as they finish one;
/// returns the results in campaign order.
fn shared_round<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = Mutex::new(0usize);
    let claim = || {
        let mut next = next.lock().expect("round counter lock");
        let c = *next;
        *next += 1;
        (c < ARCHIVED).then_some(c)
    };
    let work = || {
        let mut mine = Vec::new();
        while let Some(c) = claim() {
            mine.push((c, f(c)));
        }
        mine
    };
    let mut all = std::thread::scope(|s| {
        let others: Vec<_> = (1..WORKERS).map(|_| s.spawn(work)).collect();
        let mut all = work();
        for h in others {
            all.extend(h.join().expect("archive thread panicked"));
        }
        all
    });
    all.sort_by_key(|&(c, _)| c);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Reopens the persisted campaigns for `seconds` (at least once) in
/// rounds: a unit is one reopen of every archived campaign, shared by
/// [`WORKERS`] threads that each take the next campaign as they finish
/// one, and its time is the round's wall time per reopen on each thread
/// (wall ÷ (campaigns ÷ threads)). A reopen is mostly single-threaded CSV
/// rendering, and a shared host's cores move in speed apart from each
/// other: reopens timed one by one had a fast and a slow mode, and a pair
/// run at once followed the slower core. A shared round follows the sum of
/// both cores' speeds. After each round, the same threads restore every
/// entry file one by one, each restore timed and compared with the reopen's
/// report. Every reopen is checked. `between_units` runs after each round,
/// outside its time.
pub fn measure(
    setup: &Setup,
    seconds: f64,
    tally: &mut Tally,
    between_units: &mut dyn FnMut() -> BenchResult<()>,
) -> BenchResult<Samples> {
    let files: Vec<Vec<(usize, PathBuf)>> = setup
        .archive
        .iter()
        .map(|a| {
            CheckpointDir::open(&a.dir)
                .and_then(|d| d.entry_files())
                .map(|files| files.into_iter().map(|(_, i, path)| (i, path)).collect())
                .map_err(ctx("listing entry files"))
        })
        .collect::<BenchResult<_>>()?;
    let mut samples = Samples::new((ARCHIVED / WORKERS) as f64);
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let reopened =
            shared_round(|c| reopen(&setup.campaign, &setup.factories[c], &setup.archive[c].dir));
        samples.unit_s.push(t.elapsed().as_secs_f64());
        let reopened = reopened.into_iter().collect::<BenchResult<Vec<_>>>()?;

        // (entry, restore time, whether it matches the reopen's report)
        let restored = shared_round(|c| -> BenchResult<Vec<(usize, f64, bool)>> {
            files[c]
                .iter()
                .map(|&(index, ref path)| {
                    let t = Instant::now();
                    let report = restore_entry(path)?;
                    let secs = t.elapsed().as_secs_f64();
                    Ok((index, secs, reopened[c].reports.get(index) == Some(&report)))
                })
                .collect()
        });

        for (c, (got, restored)) in reopened.iter().zip(restored).enumerate() {
            let what = format!("round {round} reopen (seed slot {c})");
            tally.attempted += setup.entries() as u64;
            samples.delivered += got.reports.len() as u64;
            check_reopen(&what, got, &setup.archive[c], setup, tally);
            if round == 0 {
                samples.accuracy.add(&got.reports, &setup.truth_w);
            }
            let restored = restored?;
            for &(index, _, same) in &restored {
                tally.check(same, || {
                    format!("{what}: entry {index} restores differently")
                });
            }
            let entry_s: Vec<f64> = restored.iter().map(|&(_, s, _)| s).collect();
            samples.add_entries(&entry_s);
        }
        round += 1;
        // The round's outputs go before `between_units` runs, so that its
        // memory does not add to theirs in `peak_rss_mb`.
        drop(reopened);
        between_units()?;
    }
    Ok(samples)
}
