//! Extreme-scale kernels: the methodology must handle both a microsecond
//! blip and a many-window giant without special-casing.

use fingrav::core::runner::{FingravRunner, RunnerConfig};
use fingrav::sim::{Activity, KernelDesc, SimConfig, SimDuration, Simulation};

fn kernel(name: &str, exec: SimDuration) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        base_exec: exec,
        freq_insensitive_frac: 0.6,
        activity: Activity::new(0.6, 0.4, 0.35),
        compute_utilization: 0.5,
        flops: 1e9,
        hbm_bytes: 1e6,
        llc_bytes: 1e7,
        workgroups: 64,
    }
}

#[test]
fn microsecond_blip_profiles() {
    // 2 us of work: launch overhead dominates and a single log covers
    // hundreds of executions, yet the pipeline completes with a plausible
    // plateau.
    let mut gpu = Simulation::new(SimConfig::default(), 401).expect("valid");
    let mut runner = FingravRunner::new(
        &mut gpu,
        RunnerConfig {
            // Cap the tail so runs stay short despite the hundreds of
            // executions the window formula asks for.
            tail_executions_cap: 32,
            ..RunnerConfig::quick(50)
        },
    );
    let report = runner
        .profile(&kernel("blip-2us", SimDuration::from_micros(2)))
        .expect("profiles a 2 us kernel");
    assert!(
        report.ssp_index >= 50,
        "a 2 us kernel needs very many executions, got {}",
        report.ssp_index
    );
    assert!(report.ssp_loi_count() > 0);
    let ssp = report.ssp_mean_total_w.expect("SSP measured");
    // Duty cycle ~25% (2 us work vs ~6 us launch overhead): well below a
    // saturated kernel but clearly above idle.
    assert!((200.0..600.0).contains(&ssp), "SSP {ssp} W");
}

#[test]
fn many_window_giant_profiles() {
    // 20 ms of work: twenty averaging windows per execution. SSE and SSP
    // coincide (the paper's "SSP and SSE profile can be the same" note)
    // and every execution carries many LOIs.
    let mut gpu = Simulation::new(SimConfig::default(), 402).expect("valid");
    let mut runner = FingravRunner::new(&mut gpu, RunnerConfig::quick(10));
    let report = runner
        .profile(&kernel("giant-20ms", SimDuration::from_millis(20)))
        .expect("profiles a 20 ms kernel");
    assert!(
        report.ssp_index <= report.sse_index + 2,
        "SSP ({}) should sit at/near SSE ({}) for a many-window kernel",
        report.ssp_index,
        report.sse_index
    );
    let (sse, ssp) = (
        report.sse_mean_total_w.expect("SSE measured"),
        report.ssp_mean_total_w.expect("SSP measured"),
    );
    let gap = (ssp - sse).abs() / ssp;
    assert!(
        gap < 0.10,
        "SSE {sse:.0} W and SSP {ssp:.0} W should nearly coincide, gap {:.0}%",
        gap * 100.0
    );
    // Dozens of LOIs per run: the guidance's >1 ms row is easily met.
    assert!(
        report.ssp_loi_count() as u32
            >= report
                .guidance
                .recommended_lois(SimDuration::from_nanos(report.exec_time_ns))
                / 4,
        "LOI yield too low: {}",
        report.ssp_loi_count()
    );
}

#[test]
fn back_to_back_campaign_of_extremes() {
    // Both extremes through the campaign API, sharing one configuration.
    use fingrav::core::backend::FnBackendFactory;
    use fingrav::core::campaign::Campaign;
    use fingrav::core::error::MethodologyError;
    use fingrav::core::executor::{CampaignExecutor, RunOptions};
    let mut campaign = Campaign::new(RunnerConfig {
        tail_executions_cap: 32,
        ..RunnerConfig::quick(12)
    });
    campaign
        .add(kernel("blip-2us", SimDuration::from_micros(2)))
        .add(kernel("giant-20ms", SimDuration::from_millis(20)));
    let factory = FnBackendFactory(|i: usize| {
        Simulation::new(SimConfig::default(), 410 + i as u64)
            .map_err(|e| MethodologyError::Backend(e.to_string()))
    });
    let result = CampaignExecutor::serial()
        .run(&campaign, &factory, RunOptions::default())
        .and_then(|outcome| outcome.into_report())
        .expect("campaign over extremes");
    assert_eq!(result.reports.len(), 2);
    assert_eq!(result.hottest().expect("hottest").label, "giant-20ms");
}
