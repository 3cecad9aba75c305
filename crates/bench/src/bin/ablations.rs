//! Ablation studies of FinGraV's design choices (beyond the paper's own
//! Fig. 5 evaluation):
//!
//! 1. **sync variant** — placement error of none / Lang-style / single- /
//!    two-anchor sync against simulator ground truth, under amplified
//!    counter drift;
//! 2. **binning margin sweep** — golden-run fraction and profile scatter
//!    across margins (why Table I picks 2-5 %);
//! 3. **run-count sweep** — SSP LOI yield and profile stability versus
//!    #runs (why Table I picks 200-400);
//! 4. **instantaneous sampler** — the paper's note that with an
//!    instantaneous power sampler FinGraV can assess power regardless of
//!    execution time and run setup: with a fast logger the interleaving
//!    contamination of Fig. 9 disappears.

use fingrav_bench::experiments::bucketed_scatter;
use fingrav_bench::harness::seed_for;
use fingrav_bench::{RunContext, Scale};
use fingrav_core::backend::PowerBackend;
use fingrav_core::campaign::Campaign;
use fingrav_core::profile::place_logs;
use fingrav_core::runner::{FingravRunner, RunnerConfig};
use fingrav_core::stats;
use fingrav_core::sync::{ReadDelayCalibration, TimeSync};
use fingrav_sim::config::SimConfig;
use fingrav_sim::engine::Simulation;
use fingrav_sim::script::Script;
use fingrav_sim::time::SimDuration;
use fingrav_workloads::suite;

fn main() {
    let mut ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");
    let runs = match ctx.scale {
        Scale::Full => 120,
        Scale::Quick => 40,
        Scale::Bench => 8,
    };

    sync_ablation(&dir);
    margin_sweep(&mut ctx, &dir, runs);
    runs_sweep(&mut ctx, &dir);
    instantaneous_sampler(&dir, runs);
    println!("\nwrote ablation CSVs in {}", dir.display());
}

/// Ablation 1: sync variants under 400 ppm drift, error vs ground truth.
fn sync_ablation(dir: &std::path::Path) {
    println!("== Ablation 1: time-sync variants under 400 ppm drift ==\n");
    let mut cfg = SimConfig::default();
    cfg.clocks.gpu_drift_ppm = 400.0;
    let machine = cfg.machine.clone();
    let mut sim = Simulation::new(cfg, seed_for("abl-sync")).expect("valid");
    let k =
        Simulation::register_kernel(&mut sim, suite::cb_gemm(&machine, 4096)).expect("register");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .read_gpu_timestamp()
        .launch_timed(k, 120) // ~26 ms: drift accumulates
        .sleep(SimDuration::from_millis(1))
        .read_gpu_timestamp()
        .stop_power_logger()
        .build();
    let trace = sim.run_script(&script).expect("script");
    let first = trace.timestamp_reads[0];
    let last = *trace.timestamp_reads.last().expect("two reads");
    let calib = ReadDelayCalibration {
        median_rtt_ns: first.rtt_ns(),
        assumed_sample_frac: 0.5,
    };
    let zero = ReadDelayCalibration {
        median_rtt_ns: 0,
        assumed_sample_frac: 0.0,
    };
    let hz = PowerBackend::gpu_counter_hz(&sim);
    let variants: Vec<(&str, Option<TimeSync>)> = vec![
        ("none (naive grid)", None),
        (
            "lang (zero delay, nominal rate)",
            Some(TimeSync::from_anchor(&first, &zero, hz)),
        ),
        (
            "single-anchor (calibrated delay)",
            Some(TimeSync::from_anchor(&first, &calib, hz)),
        ),
        (
            "two-anchor (drift-cancelling)",
            Some(TimeSync::from_two_anchors(&first, &last, &calib).expect("anchors")),
        ),
    ];

    let true_cpu = |ticks: u64| -> f64 {
        let t = sim
            .gpu_clock()
            .to_sim(fingrav_sim::time::GpuTicks::from_raw(ticks));
        sim.cpu_clock().now(t).as_nanos() as f64
    };
    let origin = trace.executions[0].cpu_start.as_nanos() as f64;

    let mut csv = String::from("variant,mean_error_ns\n");
    println!("| sync variant | mean placement error |");
    println!("|---|---|");
    for (name, sync) in variants {
        let errs: Vec<f64> = trace
            .power_logs
            .iter()
            .enumerate()
            .map(|(i, log)| {
                let truth = true_cpu(log.ticks.as_raw());
                let placed = match &sync {
                    Some(s) => s.cpu_ns_of_ticks(log.ticks.as_raw()),
                    None => origin + i as f64 * 1e6, // naive 1 ms grid
                };
                (placed - truth).abs()
            })
            .collect();
        let mean = stats::mean(&errs).unwrap_or(0.0);
        println!("| {name} | {:.2} us |", mean / 1e3);
        csv.push_str(&format!("{name},{mean:.0}\n"));
    }
    std::fs::write(dir.join("ablation_sync.csv"), csv).expect("write csv");
    println!();
}

/// Ablation 2: binning-margin sweep on CB-4K-GEMM — one campaign whose
/// entries share a kernel but carry per-entry margin overrides, sharded by
/// the executor (every arm keeps the historical `abl-margin` seed).
fn margin_sweep(ctx: &mut RunContext, dir: &std::path::Path, runs: u32) {
    println!("== Ablation 2: binning margin sweep (CB-4K-GEMM) ==\n");
    println!("| margin | golden runs | SSP LOIs | plateau scatter |");
    println!("|---|---|---|---|");
    let mut csv = String::from("margin,golden,runs,ssp_lois,scatter_w\n");
    let machine = SimConfig::default().machine.clone();
    let margins = [0.005, 0.01, 0.02, 0.05, 0.10];
    let mut campaign = Campaign::with_defaults();
    for margin in margins {
        campaign.add_with_config(
            suite::cb_gemm(&machine, 4096),
            RunnerConfig {
                runs_override: Some(runs),
                margin_override: Some(margin),
                extra_run_batches: 0,
                ..RunnerConfig::default()
            },
        );
    }
    let reports = ctx.campaign_report(&campaign, vec!["abl-margin".to_string(); margins.len()]);
    for (margin, r) in margins.iter().zip(&reports) {
        let busy = fingrav_bench::experiments::busy_end_ns(r);
        let scatter = bucketed_scatter(&r.run_profile, busy * 0.5, busy, 250e3);
        println!(
            "| {:.1}% | {}/{} | {} | {:.1} W |",
            margin * 100.0,
            r.golden_runs,
            r.runs_executed,
            r.ssp_loi_count(),
            scatter
        );
        csv.push_str(&format!(
            "{margin},{},{},{},{scatter:.2}\n",
            r.golden_runs,
            r.runs_executed,
            r.ssp_loi_count()
        ));
    }
    std::fs::write(dir.join("ablation_margin.csv"), csv).expect("write csv");
    println!();
}

/// Ablation 3: run-count sweep on CB-2K-GEMM (the LOI-starved case), as a
/// per-entry-config campaign on the executor.
fn runs_sweep(ctx: &mut RunContext, dir: &std::path::Path) {
    println!("== Ablation 3: run-count sweep (CB-2K-GEMM) ==\n");
    println!("| runs | SSE LOIs | SSP LOIs | SSP mean W |");
    println!("|---|---|---|---|");
    let mut csv = String::from("runs,sse_lois,ssp_lois,ssp_w\n");
    let machine = SimConfig::default().machine.clone();
    let counts = [25u32, 50, 100, 200];
    let mut campaign = Campaign::with_defaults();
    for runs in counts {
        campaign.add_with_config(
            suite::cb_gemm(&machine, 2048),
            RunnerConfig {
                runs_override: Some(runs),
                extra_run_batches: 0,
                ..RunnerConfig::default()
            },
        );
    }
    let reports = ctx.campaign_report(&campaign, vec!["abl-runs".to_string(); counts.len()]);
    for (runs, r) in counts.iter().zip(&reports) {
        println!(
            "| {} | {} | {} | {:.0} |",
            runs,
            r.sse_loi_count(),
            r.ssp_loi_count(),
            r.ssp_mean_total_w.unwrap_or(f64::NAN)
        );
        csv.push_str(&format!(
            "{runs},{},{},{:.1}\n",
            r.sse_loi_count(),
            r.ssp_loi_count(),
            r.ssp_mean_total_w.unwrap_or(f64::NAN)
        ));
    }
    std::fs::write(dir.join("ablation_runs.csv"), csv).expect("write csv");
    println!();
}

/// Ablation 4: an instantaneous sampler removes interleaving contamination.
fn instantaneous_sampler(dir: &std::path::Path, runs: u32) {
    println!("== Ablation 4: averaging vs instantaneous power sampler ==\n");
    let machine = SimConfig::default().machine.clone();
    let target = suite::cb_gemm(&machine, 2048);
    let gemv = suite::mb_gemv(&machine, 4096);

    let measure = |cfg: SimConfig, seed: u64| -> (f64, f64) {
        // Isolated SSP of the target on this telemetry config.
        let mut sim = Simulation::new(cfg.clone(), seed).expect("valid");
        let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(runs.max(30)));
        let iso = runner
            .profile(&target)
            .expect("profiles")
            .ssp_mean_total_w
            .expect("SSP LOIs");
        // Interleaved after 40 GEMVs.
        let mut sim = Simulation::new(cfg, seed + 1).expect("valid");
        let pre = Simulation::register_kernel(&mut sim, gemv.clone()).expect("register");
        let tgt = Simulation::register_kernel(&mut sim, target.clone()).expect("register");
        let mut lois = Vec::new();
        for _ in 0..(runs * 4) {
            let script = Script::builder()
                .begin_run()
                .start_power_logger()
                .read_gpu_timestamp()
                .sleep_uniform(SimDuration::ZERO, SimDuration::from_millis(1))
                .launch_timed(pre, 40)
                .launch_timed(tgt, 1)
                .sleep(SimDuration::from_millis(1))
                .read_gpu_timestamp()
                .stop_power_logger()
                .sleep(SimDuration::from_millis(8))
                .build();
            let trace = sim.run_script(&script).expect("script");
            let read = trace.timestamp_reads[0];
            let calib = ReadDelayCalibration {
                median_rtt_ns: read.rtt_ns(),
                assumed_sample_frac: 0.5,
            };
            let sync = TimeSync::from_anchor(&read, &calib, PowerBackend::gpu_counter_hz(&sim));
            for log in place_logs(&trace, &sync) {
                if let Some((pos, _)) = log.containing_exec {
                    if trace.executions[pos].kernel == tgt {
                        lois.push(log.power.total());
                    }
                }
            }
        }
        (iso, stats::mean(&lois).unwrap_or(iso))
    };

    // The paper's 1 ms averaging logger.
    let (iso_avg, inter_avg) = measure(SimConfig::default(), seed_for("abl-inst-a"));
    // An instantaneous sampler: 40 us emission with a 40 us window.
    let mut fast = SimConfig::default();
    fast.telemetry.logger_period = SimDuration::from_micros(40);
    fast.telemetry.logger_window = SimDuration::from_micros(40);
    fast.telemetry.sensor_period = SimDuration::from_micros(10);
    let (iso_inst, inter_inst) = measure(fast, seed_for("abl-inst-b"));

    let eff_avg = (inter_avg - iso_avg) / iso_avg;
    let eff_inst = (inter_inst - iso_inst) / iso_inst;
    println!("| sampler | isolated W | interleaved W | contamination |");
    println!("|---|---|---|---|");
    println!(
        "| 1 ms averaging | {iso_avg:.0} | {inter_avg:.0} | {:+.0}% |",
        eff_avg * 100.0
    );
    println!(
        "| 40 us instantaneous | {iso_inst:.0} | {inter_inst:.0} | {:+.0}% |",
        eff_inst * 100.0
    );
    println!(
        "\nwith an instantaneous sampler, FinGraV assesses kernel power regardless of \
         run setup (paper Section V-C3)."
    );
    std::fs::write(
        dir.join("ablation_sampler.csv"),
        format!(
            "sampler,isolated_w,interleaved_w,effect\naveraging_1ms,{iso_avg:.1},{inter_avg:.1},{eff_avg:.4}\ninstant_40us,{iso_inst:.1},{inter_inst:.1},{eff_inst:.4}\n"
        ),
    )
    .expect("write csv");
}
