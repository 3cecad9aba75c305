//! Campaign benchmark for fingrav.
//!
//! ```text
//! campaign-bench --workload <suite-local|suite-served|archive-read>
//!                --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Drives the public API of `fingrav-core` and `fingrav-sim` from one
//! process. An untraced run (`--trace 0`) sets up from the seed (several
//! times, reporting the median), measures its workload for `--seconds`,
//! checks every output and prints the end-to-end metrics. A traced run
//! (`--trace 1`) drives the same work layer by layer under span timers and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, the
//! same record (plus the host record) lands in `.bench_out/`, and any
//! failed entry or output check makes the exit code nonzero.

mod archive;
mod common;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use common::{BenchResult, Setup, Tally, WorkDir, Workload};
use fingrav_core::stats::median;
use stats::{fast_mean, host_record, json_str, peak_rss_mb, ratio, Metrics};

/// An untraced run sets up at least this many times, and as many times as
/// it takes to spend [`SETUP_MIN_S`] setting up (at most
/// [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_S: f64 = 3.0;

/// The set-ups of an untraced run. The first one builds what the run
/// measures; the others are built into a scratch directory and dropped,
/// spread evenly over the measured seconds, between units. The shared
/// host's speed moves in phases, and set-ups taken back to back in a run's
/// first seconds all fell in one phase: their median moved 29% between two
/// sets of ten `suite-local` runs where the runs' own median campaign time
/// moved 12%.
struct SetupClock {
    times: Vec<f64>,
    reps: usize,
    start: Instant,
    seconds: f64,
}

impl SetupClock {
    /// Sets up once more and times it, when the next set-up is due (or
    /// `now` and one is still owed).
    fn set_up_if_due(
        &mut self,
        workload: Workload,
        seed: u64,
        work: &WorkDir,
        now: bool,
    ) -> BenchResult<()> {
        let n = self.times.len();
        let due_at = n as f64 * self.seconds / self.reps as f64;
        if n >= self.reps || !(now || self.start.elapsed().as_secs_f64() >= due_at) {
            return Ok(());
        }
        let dir = work.fresh("setup-again");
        let t = Instant::now();
        Setup::build(workload, seed, &dir)?;
        self.times.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<u64>().map_err(|_| bad())? as f64,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> BenchResult<ExitCode> {
    let args = parse_args()?;
    let host = host_record(args.seed);
    println!(
        "campaign-bench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let work = WorkDir::create(args.workload, args.seed)?;
    let mut tally = Tally::default();
    let (metrics, notes) = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, &work, &mut tally)?
    } else {
        untraced(args.workload, args.seed, args.seconds, &work, &mut tally)?
    };
    drop(work);

    for m in &metrics.0 {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &notes {
        println!("  {note}");
    }
    for name in metrics.non_finite() {
        tally.fail(format!("metric {name} is not a finite number"));
    }
    for problem in &tally.problems {
        eprintln!("campaign-bench: FAILED CHECK: {problem}");
    }
    let correct = tally.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
    write_record(&args, &host, &result, &notes)?;
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Stores the result line with the host record and notes under
/// `.bench_out/`.
fn write_record(
    args: &Args,
    host: &[(&str, String)],
    result: &str,
    notes: &[String],
) -> BenchResult<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(common::ctx("creating .bench_out"))?;
    let host_json = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let notes_json = notes
        .iter()
        .map(|n| json_str(n))
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{host_json}}}, \
         \"result\": {result}, \"notes\": [{notes_json}]}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(common::ctx("writing the result record"))
}

/// The untraced run: set up several times, measure, and reduce the samples
/// to the end-to-end metrics.
fn untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    tally: &mut Tally,
) -> BenchResult<(Metrics, Vec<String>)> {
    let t = Instant::now();
    let setup = Setup::build(workload, seed, work.path())?;
    let mut setups = SetupClock {
        times: vec![t.elapsed().as_secs_f64()],
        reps: 0,
        start: Instant::now(),
        seconds,
    };
    setups.reps =
        ((SETUP_MIN_S / setups.times[0]).ceil() as usize).clamp(SETUP_MIN_REPS, SETUP_MAX_REPS);
    let mut again = || setups.set_up_if_due(workload, seed, work, false);
    let s = match workload {
        Workload::SuiteLocal | Workload::SuiteServed => suite::measure(
            &setup,
            work,
            workload == Workload::SuiteServed,
            seconds,
            tally,
            &mut again,
        )?,
        Workload::ArchiveRead => archive::measure(&setup, seconds, tally, &mut again)?,
    };
    while setups.times.len() < setups.reps {
        setups.set_up_if_due(workload, seed, work, true)?;
    }
    let setup_s = setups.times;

    let unit_s = fast_mean(&s.unit_s);
    let entries_per_unit = ratio(s.delivered as f64, s.unit_s.len() as f64);
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    m.push("entries_per_s", ratio(entries_per_unit, unit_s), "1/s");
    m.push("campaign_s", ratio(unit_s, s.campaigns_per_unit), "s");
    m.push("entry_ms_p50", fast_mean(&s.entry_p50_s) * 1e3, "ms");
    m.push("entry_ms_p90", fast_mean(&s.entry_p90_s) * 1e3, "ms");
    m.push("ssp_power_err_pct", s.accuracy.ssp_pct(), "%");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");

    let out = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(out).map_err(common::ctx("creating .bench_out"))?;
    let units = out.join(format!("units-{}-seed{seed}.csv", workload.name()));
    let setups: String = setup_s.iter().map(|t| format!("setup,{t:?}\n")).collect();
    std::fs::write(units, s.to_csv() + &setups).map_err(common::ctx("writing the unit samples"))?;

    let per_unit = if workload == Workload::ArchiveRead {
        "reopen rounds"
    } else {
        "campaigns"
    };
    let notes = vec![
        format!(
            "samples: {} set-ups, {} {per_unit}, {} entry times, {} entries delivered",
            setup_s.len(),
            s.unit_s.len(),
            s.entries_timed,
            s.delivered
        ),
        format!(
            "failed_frac = {} ({} failed of {} attempted)",
            tally.failed_frac(),
            tally.failed,
            tally.attempted
        ),
        format!(
            "sse_power_err_pct = {:.3} % (reference, not gated; SSP: {:.3} %)",
            s.accuracy.sse_pct(),
            s.accuracy.ssp_pct()
        ),
    ];
    Ok((m, notes))
}
