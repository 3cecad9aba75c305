//! Multi-kernel profiling campaigns.
//!
//! The paper's evaluation profiles fourteen kernels under identical
//! methodology settings, each in isolation (measurement guidance #2: a
//! kernel shorter than the averaging window must be measured without
//! neighbours). [`Campaign`] packages that workflow: a list of kernel
//! entries (each optionally carrying its own [`RunnerConfig`], so
//! parameter sweeps are campaigns too), a shared default config, one fresh
//! backend per kernel, and a combined report with comparative analysis.
//!
//! [`crate::executor::CampaignExecutor::run`] measures a campaign, serially
//! or sharded across worker threads with bit-identical results.

use fingrav_sim::kernel::KernelDesc;

use crate::insights::{ComponentBreakdown, ProportionalityPoint};
use crate::runner::{KernelPowerReport, RunnerConfig};

/// One planned measurement: a kernel, plus an optional config override for
/// sweep-style campaigns (omitted → the campaign default applies).
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// The kernel to profile.
    pub desc: KernelDesc,
    /// Per-entry methodology settings, if different from the campaign's.
    pub config: Option<RunnerConfig>,
}

impl CampaignEntry {
    /// The configuration this entry runs under, given the campaign
    /// default.
    pub fn effective_config(&self, default: &RunnerConfig) -> RunnerConfig {
        self.config.clone().unwrap_or_else(|| default.clone())
    }
}

/// A planned set of kernel profiling measurements.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: RunnerConfig,
    entries: Vec<CampaignEntry>,
}

impl Campaign {
    /// Creates an empty campaign with the given methodology settings.
    pub fn new(config: RunnerConfig) -> Self {
        Campaign {
            config,
            entries: Vec::new(),
        }
    }

    /// Creates an empty campaign with paper-default settings.
    pub fn with_defaults() -> Self {
        Campaign::new(RunnerConfig::default())
    }

    /// Adds a kernel to measure under the campaign default settings.
    pub fn add(&mut self, desc: KernelDesc) -> &mut Self {
        self.entries.push(CampaignEntry { desc, config: None });
        self
    }

    /// Adds a kernel with its own methodology settings (parameter sweeps:
    /// the same kernel under several margins, run counts, or loggers).
    pub fn add_with_config(&mut self, desc: KernelDesc, config: RunnerConfig) -> &mut Self {
        self.entries.push(CampaignEntry {
            desc,
            config: Some(config),
        });
        self
    }

    /// Adds many kernels under the campaign default settings.
    pub fn add_all<I: IntoIterator<Item = KernelDesc>>(&mut self, descs: I) -> &mut Self {
        self.entries.extend(
            descs
                .into_iter()
                .map(|desc| CampaignEntry { desc, config: None }),
        );
        self
    }

    /// The planned entries, in campaign order.
    pub fn entries(&self) -> &[CampaignEntry] {
        &self.entries
    }

    /// The campaign-default methodology settings.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// Number of planned measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The combined result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One report per kernel, in campaign order.
    pub reports: Vec<KernelPowerReport>,
}

impl CampaignReport {
    /// Looks up a report by kernel label.
    pub fn report(&self, label: &str) -> Option<&KernelPowerReport> {
        self.reports.iter().find(|r| r.label == label)
    }

    /// The markdown summary table (one row per kernel).
    pub fn summary_markdown(&self) -> String {
        crate::report::summary_table(&self.reports.iter().collect::<Vec<_>>())
    }

    /// Component breakdowns of the SSP profiles, in campaign order
    /// (kernels whose SSP profile is empty are skipped).
    pub fn breakdowns(&self) -> Vec<(String, ComponentBreakdown)> {
        self.reports
            .iter()
            .filter_map(|r| {
                ComponentBreakdown::from_profile(&r.ssp_profile).map(|b| (r.label.clone(), b))
            })
            .collect()
    }

    /// Power-proportionality points (utilization vs XCD power) for the
    /// campaign, usable with
    /// [`crate::insights::proportionality_spread`].
    pub fn proportionality_points(
        &self,
        utilization_of: impl Fn(&KernelPowerReport) -> Option<f64>,
    ) -> Vec<ProportionalityPoint> {
        self.reports
            .iter()
            .filter_map(|r| {
                let util = utilization_of(r)?;
                let xcd = r.ssp_profile.mean_power()?.xcd;
                Some(ProportionalityPoint {
                    label: r.label.clone(),
                    compute_utilization: util,
                    xcd_power_w: xcd,
                })
            })
            .collect()
    }

    /// The kernel with the highest SSP total power, if any was measured.
    pub fn hottest(&self) -> Option<&KernelPowerReport> {
        self.reports
            .iter()
            .filter(|r| r.ssp_mean_total_w.is_some())
            .max_by(|a, b| {
                a.ssp_mean_total_w
                    .partial_cmp(&b.ssp_mean_total_w)
                    .expect("finite powers")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FnBackendFactory;
    use crate::error::MethodologyError;
    use crate::executor::{CampaignExecutor, RunOptions};
    use fingrav_sim::config::SimConfig;
    use fingrav_sim::engine::Simulation;
    use fingrav_sim::power::Activity;
    use fingrav_sim::time::SimDuration;

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

    fn run_serially(campaign: &Campaign, seed: u64) -> CampaignReport {
        let factory = FnBackendFactory(|i: usize| {
            Simulation::new(SimConfig::default(), seed + i as u64)
                .map_err(|e| MethodologyError::Backend(e.to_string()))
        });
        CampaignExecutor::serial()
            .run(campaign, &factory, RunOptions::default())
            .and_then(|outcome| outcome.into_report())
            .expect("campaign runs")
    }

    fn run_campaign() -> CampaignReport {
        let mut campaign = Campaign::new(RunnerConfig::quick(12));
        campaign
            .add(kernel("hot", 300, 0.9))
            .add(kernel("cool", 300, 0.3));
        run_serially(&campaign, 9000)
    }

    #[test]
    fn campaign_profiles_each_kernel_in_isolation() {
        let report = run_campaign();
        assert_eq!(report.reports.len(), 2);
        assert!(report.report("hot").is_some());
        assert!(report.report("cool").is_some());
        assert!(report.report("missing").is_none());
        let hot = report.report("hot").unwrap().ssp_mean_total_w.unwrap();
        let cool = report.report("cool").unwrap().ssp_mean_total_w.unwrap();
        assert!(hot > cool + 50.0, "hot {hot} vs cool {cool}");
        assert_eq!(report.hottest().unwrap().label, "hot");
    }

    #[test]
    fn summary_and_breakdowns_render() {
        let report = run_campaign();
        let md = report.summary_markdown();
        assert!(md.contains("hot"));
        assert!(md.contains("cool"));
        assert_eq!(md.lines().count(), 4); // header + separator + 2 rows
        let breakdowns = report.breakdowns();
        assert_eq!(breakdowns.len(), 2);
    }

    #[test]
    fn proportionality_points_extracted() {
        let report = run_campaign();
        let pts =
            report.proportionality_points(|r| Some(if r.label == "hot" { 0.63 } else { 0.21 }));
        assert_eq!(pts.len(), 2);
        let spread = crate::insights::proportionality_spread(&pts).unwrap();
        assert!(spread >= 1.0);
    }

    #[test]
    fn empty_campaign() {
        let campaign = Campaign::with_defaults();
        assert!(campaign.is_empty());
        assert_eq!(campaign.len(), 0);
        let report = run_serially(&campaign, 0);
        assert!(report.reports.is_empty());
        assert!(report.hottest().is_none());
    }
}
