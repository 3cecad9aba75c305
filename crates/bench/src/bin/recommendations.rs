//! Quantifies the paper's three Table II recommendations on the simulated
//! platform:
//!
//! 1. **Co-schedule complementary kernels** — concurrently executing a
//!    compute-bound GEMM with a memory-bound kernel or latency-bound
//!    collective uses the power headroom without tripping the cap, while
//!    pairing two compute-heavy kernels contends and throttles.
//! 2. **Prioritize XCD power optimization for compute-heavy kernels** —
//!    the sensitivity of total power to a 10% XCD-activity reduction
//!    dwarfs the same reduction on IOD or HBM.
//! 3. **Pursue power proportionality for compute-light kernels** — the
//!    utilization-per-XCD-watt spread across CB GEMMs shows the headroom.
//!
//! Every recommendation profiles its kernels as one sharded campaign on
//! [`fingrav_core::executor::CampaignExecutor`]; per-kernel seeds match
//! the historical serial binaries, so regenerated CSVs are unchanged.

use fingrav_bench::harness::runner_config;
use fingrav_bench::RunContext;
use fingrav_core::campaign::Campaign;
use fingrav_sim::config::SimConfig;
use fingrav_sim::fabric::Fabric;
use fingrav_sim::kernel::KernelDesc;
use fingrav_workloads::concurrent::co_schedule;
use fingrav_workloads::suite;
use fingrav_workloads::Rccl;

fn main() {
    let mut ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");
    let runs = ctx.scale.runs(120);
    println!(
        "(campaigns sharded across {} workers via CampaignExecutor)\n",
        ctx.workers()
    );

    recommendation_1(&mut ctx, &dir, runs);
    recommendation_2(&mut ctx, &dir, runs);
    recommendation_3(&mut ctx, &dir, runs);
    println!("\nwrote recommendation CSVs in {}", dir.display());
}

/// Profiles `(seed-name, kernel)` pairs as one parallel campaign; reports
/// come back in entry order.
fn profile_all(
    ctx: &mut RunContext,
    entries: Vec<(String, KernelDesc)>,
    runs: Option<u32>,
) -> Vec<fingrav_core::runner::KernelPowerReport> {
    let mut campaign = Campaign::new(runner_config(runs));
    let names: Vec<String> = entries.iter().map(|(n, _)| n.clone()).collect();
    for (_, desc) in entries {
        campaign.add(desc);
    }
    ctx.campaign_report(&campaign, names)
}

fn recommendation_1(ctx: &mut RunContext, dir: &std::path::Path, runs: Option<u32>) {
    println!("== Recommendation 1: co-schedule complementary power profiles ==\n");
    println!(
        "(the paper's example: latency-bound communication in parallel with any other\n\
         computation; the anti-pattern: stacking two compute-heavy kernels)\n"
    );
    let m = SimConfig::default().machine.clone();
    let rccl = Rccl::new(m.clone(), Fabric::default());
    let gemv8 = suite::mb_gemv(&m, 8192);
    let cb2 = suite::cb_gemm(&m, 2048);
    let cb4 = suite::cb_gemm(&m, 4096);
    let lb_ar = rccl.all_reduce(128 * 1024);

    let pairs = [
        // Complementary: memory-bound compute alongside LB communication.
        ("MB-8K-GEMV + LB-AR-128KB", &gemv8, &lb_ar),
        // Mildly overlapping: a headroom-bearing GEMM plus LB comm.
        ("CB-2K-GEMM + LB-AR-128KB", &cb2, &lb_ar),
        // Anti-pattern: two compute-heavy kernels fight for XCD and cap.
        ("CB-4K-GEMM + CB-4K-GEMM", &cb4, &cb4),
    ];
    let analyses: Vec<_> = pairs
        .iter()
        .map(|(name, a, b)| (name, co_schedule(a, b).expect("valid kernels")))
        .collect();
    let reports = profile_all(
        ctx,
        analyses
            .iter()
            .map(|(name, analysis)| (format!("rec1-{name}"), analysis.combined.clone()))
            .collect(),
        runs,
    );

    println!("| pair | contention | speed-up vs serial | measured SSP W | throttled |");
    println!("|---|---|---|---|---|");
    let mut csv = String::from("pair,contention,speedup,ssp_w,throttled\n");
    for ((name, analysis), report) in analyses.iter().zip(&reports) {
        let ssp = report.ssp_mean_total_w.unwrap_or(f64::NAN);
        println!(
            "| {name} | {:.2} | {:.2}x | {ssp:.0} | {} |",
            analysis.contention,
            analysis.speedup_vs_serial,
            if report.throttle_detected {
                "yes"
            } else {
                "no"
            }
        );
        csv.push_str(&format!(
            "{name},{:.3},{:.3},{ssp:.1},{}\n",
            analysis.contention, analysis.speedup_vs_serial, report.throttle_detected
        ));
    }
    std::fs::write(dir.join("recommendation1.csv"), csv).expect("write csv");
    println!();
}

fn recommendation_2(ctx: &mut RunContext, dir: &std::path::Path, runs: Option<u32>) {
    println!("== Recommendation 2: XCD power dominates compute-heavy kernels ==\n");
    println!(
        "(sensitivity measured on CB-2K-GEMM, which has cap headroom; for cap-limited\n\
         kernels like CB-8K-GEMM the same saving converts into recovered frequency,\n\
         i.e. performance, instead of lower power)\n"
    );
    let m = SimConfig::default().machine.clone();
    let base = suite::cb_gemm(&m, 2048);
    let components = [
        ("XCD", 0.9, 1.0, 1.0),
        ("IOD", 1.0, 0.9, 1.0),
        ("HBM", 1.0, 1.0, 0.9),
    ];
    let mut entries = vec![("rec2-base".to_string(), base.clone())];
    for (name, dx, di, dh) in components {
        let mut k = base.clone();
        k.activity = fingrav_sim::power::Activity::new(
            k.activity.xcd * dx,
            k.activity.iod * di,
            k.activity.hbm * dh,
        );
        k.name = format!("CB-2K-GEMM(-10% {name})");
        entries.push((format!("rec2-{name}"), k));
    }
    let reports = profile_all(ctx, entries, runs);
    let base_ssp = reports[0].ssp_mean_total_w.expect("SSP measured");

    println!("| 10% activity reduction on | SSP total W | saving |");
    println!("|---|---|---|");
    let mut csv = String::from("component,ssp_w,saving_w\n");
    for ((name, ..), report) in components.iter().zip(&reports[1..]) {
        let ssp = report.ssp_mean_total_w.expect("SSP measured");
        println!("| {name} | {ssp:.0} | {:+.0} W |", base_ssp - ssp);
        csv.push_str(&format!("{name},{ssp:.1},{:.1}\n", base_ssp - ssp));
    }
    std::fs::write(dir.join("recommendation2.csv"), csv).expect("write csv");
    println!("\nbaseline CB-2K-GEMM SSP: {base_ssp:.0} W\n");
}

fn recommendation_3(ctx: &mut RunContext, dir: &std::path::Path, runs: Option<u32>) {
    println!("== Recommendation 3: power proportionality gap ==\n");
    let m = SimConfig::default().machine.clone();
    let sizes = [8192u64, 4096, 2048];
    let reports = profile_all(
        ctx,
        sizes
            .iter()
            .map(|n| (format!("rec3-{n}"), suite::cb_gemm(&m, *n)))
            .collect(),
        runs,
    );

    let mut csv = String::from("kernel,utilization,xcd_w,util_per_watt\n");
    let mut points = Vec::new();
    for (n, report) in sizes.iter().zip(&reports) {
        let desc = suite::cb_gemm(&m, *n);
        let xcd = report.ssp_profile.mean_power().expect("SSP LOIs").xcd;
        println!(
            "{}: utilization {:.2}, XCD {xcd:.0} W -> {:.4} util/W",
            desc.name,
            desc.compute_utilization,
            desc.compute_utilization / xcd
        );
        csv.push_str(&format!(
            "{},{:.3},{xcd:.1},{:.6}\n",
            desc.name,
            desc.compute_utilization,
            desc.compute_utilization / xcd
        ));
        points.push(fingrav_core::insights::ProportionalityPoint {
            label: desc.name,
            compute_utilization: desc.compute_utilization,
            xcd_power_w: xcd,
        });
    }
    if let Some(spread) = fingrav_core::insights::proportionality_spread(&points) {
        println!(
            "\nutilization-per-XCD-watt spread: {spread:.2}x — compute-light GEMMs burn \
             nearly the same XCD power for half the work (takeaway #4); \
             performance-iso schedules with lower power are the opportunity."
        );
    }
    std::fs::write(dir.join("recommendation3.csv"), csv).expect("write csv");
}
