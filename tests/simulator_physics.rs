//! Physical-invariant tests of the simulated platform: power bounds,
//! frequency limits, thermal sanity, and the consistency between the
//! instantaneous sensor and the averaging logger.

use fingrav::core::backend::PowerBackend;
use fingrav::sim::{Script, SimConfig, SimDuration, Simulation};
use fingrav::workloads::suite;

fn heavy_run(cfg: SimConfig, seed: u64) -> fingrav::sim::RunTrace {
    let machine = cfg.machine.clone();
    let mut sim = Simulation::new(cfg, seed).expect("valid");
    let k =
        Simulation::register_kernel(&mut sim, suite::cb_gemm(&machine, 8192)).expect("register");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .launch_timed(k, 10)
        .sleep(SimDuration::from_millis(2))
        .stop_power_logger()
        .build();
    sim.run_script(&script).expect("script")
}

#[test]
fn instantaneous_power_stays_in_physical_bounds() {
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let trace = heavy_run(cfg, 91);
    assert!(!trace.truth.instant_power.is_empty());
    for (_, p) in &trace.truth.instant_power {
        assert!(p.is_valid(), "invalid power reading {p}");
        let total = p.total();
        assert!(
            (50.0..1_200.0).contains(&total),
            "implausible total power {total} W"
        );
    }
}

#[test]
fn frequency_stays_within_limits() {
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let trace = heavy_run(cfg.clone(), 92);
    assert!(!trace.truth.freq_changes.is_empty());
    for &(_, f) in &trace.truth.freq_changes {
        assert!(
            f >= cfg.pm.f_min_mhz.min(cfg.pm.idle_f_mhz) - 1e-9,
            "frequency {f} below floor"
        );
        assert!(f <= cfg.pm.f_max_mhz + 1e-9, "frequency {f} above boost");
    }
}

#[test]
fn die_temperature_is_sane_and_rises_under_load() {
    let mut cfg = SimConfig::default();
    let initial = cfg.thermal.initial_c;
    cfg.telemetry.record_instant_trace = true;
    let trace = heavy_run(cfg, 93);
    let final_t = trace.truth.final_temp_c;
    assert!(
        final_t > initial,
        "a 20 ms heavy burst should warm the die: {initial} -> {final_t}"
    );
    assert!(final_t < 120.0, "implausible die temperature {final_t}");
}

#[test]
fn logged_averages_match_instantaneous_window_means() {
    // Conservation: every emitted log equals the average of the
    // instantaneous samples inside its trailing window.
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let window_ns = cfg.telemetry.logger_window.as_nanos();
    let mut sim = Simulation::new(cfg, 94).expect("valid");
    let machine = SimConfig::default().machine.clone();
    let k =
        Simulation::register_kernel(&mut sim, suite::cb_gemm(&machine, 4096)).expect("register");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .launch_timed(k, 12)
        .sleep(SimDuration::from_millis(2))
        .stop_power_logger()
        .build();
    let trace = sim.run_script(&script).expect("script");
    assert!(trace.power_logs.len() >= 3);

    // Reconstruct each log's window from ground truth.
    let gpu_hz = PowerBackend::gpu_counter_hz(&sim);
    let epoch_ticks = SimConfig::default().clocks.gpu_epoch_ticks;
    let drift = 1.0 + SimConfig::default().clocks.gpu_drift_ppm * 1e-6;
    for log in &trace.power_logs {
        let emit_ns = ((log.ticks.as_raw() - epoch_ticks) as f64 / (gpu_hz * drift) * 1e9) as u64;
        let lo = emit_ns.saturating_sub(window_ns);
        let samples: Vec<f64> = trace
            .truth
            .instant_power
            .iter()
            .filter(|(t, _)| t.as_nanos() > lo && t.as_nanos() <= emit_ns)
            .map(|(_, p)| p.total())
            .collect();
        assert!(!samples.is_empty(), "no ground-truth samples in window");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let logged = log.avg.total();
        assert!(
            (mean - logged).abs() < mean * 0.02 + 1.0,
            "window mean {mean:.1} vs logged {logged:.1}"
        );
    }
}

#[test]
fn session_sessions_are_independent_given_seeds() {
    let a = heavy_run(SimConfig::default(), 95);
    let b = heavy_run(SimConfig::default(), 95);
    assert_eq!(a, b, "same seed, same trace");
    let c = heavy_run(SimConfig::default(), 96);
    assert_ne!(a, c, "different seed, different trace");
}

#[test]
fn power_cap_respected_in_steady_state() {
    // Transient excursions above the cap are expected (that is the paper's
    // Fig. 6 spike), but the *settled* half of the burst must average at or
    // below the cap plus a small tolerance.
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let cap = cfg.pm.power_cap_w;
    let trace = heavy_run(cfg, 97);
    let t_end = trace
        .truth
        .executions
        .last()
        .expect("executions present")
        .end
        .as_nanos();
    let t_half = trace.truth.executions[0].start.as_nanos() + (t_end / 2);
    let settled: Vec<f64> = trace
        .truth
        .instant_power
        .iter()
        .filter(|(t, _)| t.as_nanos() > t_half && t.as_nanos() <= t_end)
        .map(|(_, p)| p.total())
        .collect();
    let mean = settled.iter().sum::<f64>() / settled.len().max(1) as f64;
    assert!(
        mean <= cap * 1.05,
        "settled mean power {mean:.0} W must respect the {cap:.0} W cap"
    );
}
