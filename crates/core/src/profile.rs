//! LOI/TOI extraction and power-profile stitching.
//!
//! After CPU–GPU sync, every power log can be placed on the CPU timeline.
//! A log whose emission lands inside a kernel execution is a
//! **log-of-interest (LOI)**, and its offset into that execution is the
//! **time-of-interest (TOI)**. Because each run lands its logs at different
//! (randomized) TOIs, stitching the LOIs of many golden runs yields a
//! fine-grain profile (paper step 9).
//!
//! Stitched points live in a columnar [`ProfileStore`] (see
//! [`crate::store`]): consumers either borrow column slices directly or
//! iterate [`ProfilePointRef`] views; [`ProfilePoint`] is the owned row
//! value used to append points and to materialize individual rows.

use std::cmp::Ordering;
use std::fmt;

use fingrav_sim::power::{Component, ComponentPower};
use fingrav_sim::trace::RunTrace;

use crate::regression::{FitError, PolyFit};
pub use crate::store::{ProfilePointRef, ProfileStore};
use crate::sync::TimeSync;

/// What a profile represents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// All logs of a run, placed on run-relative time (Fig. 6/8 style).
    Run,
    /// LOIs within the steady-state-execution (SSE) execution.
    Sse,
    /// LOIs within executions at/after the steady-state-power (SSP) point.
    Ssp,
    /// LOIs within a selected outlier execution-time bin (Section VI).
    Outlier,
    /// A custom selection.
    Custom(String),
}

impl fmt::Display for ProfileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileKind::Run => f.write_str("run"),
            ProfileKind::Sse => f.write_str("sse"),
            ProfileKind::Ssp => f.write_str("ssp"),
            ProfileKind::Outlier => f.write_str("outlier"),
            ProfileKind::Custom(s) => write!(f, "custom:{s}"),
        }
    }
}

/// One stitched profile point, as an owned row value.
///
/// Historically `exec_pos` was a raw `u32` with `u32::MAX` marking "fell
/// outside any execution"; the sentinel is gone from the public API — both
/// `exec_pos` and `toi_ns` are `Option`s backed by the store's validity
/// bitmap, and they are `Some`/`None` together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Which run contributed the point.
    pub run: u32,
    /// Position of the containing execution within the run's launch
    /// sequence, or `None` when the log fell outside any execution.
    pub exec_pos: Option<u32>,
    /// Time-of-interest: nanoseconds into the containing execution, or
    /// `None` when the log fell outside any execution (run-profile points).
    pub toi_ns: Option<f64>,
    /// Run-relative time: nanoseconds since the run's first launch.
    pub run_time_ns: f64,
    /// The averaged component power of the log.
    pub power: ComponentPower,
}

/// A stitched power profile: a labelled, kinded [`ProfileStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    /// Kernel label, e.g. `CB-4K-GEMM`.
    pub label: String,
    /// What the profile represents.
    pub kind: ProfileKind,
    /// The stitched points, in columnar storage (unordered; sort by the
    /// axis you plot via [`ProfileStore::argsort_by_axis`]).
    pub store: ProfileStore,
}

/// Choice of x-axis for series extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileAxis {
    /// Run-relative time (ns since first launch of the run).
    RunTime,
    /// Time-of-interest (ns into the containing execution).
    Toi,
}

/// Choice of y-axis for series extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerAxis {
    /// Total (VR output) power.
    Total,
    /// One sub-component.
    Component(Component),
}

impl PowerProfile {
    /// Creates an empty profile.
    pub fn new(label: impl Into<String>, kind: ProfileKind) -> Self {
        PowerProfile {
            label: label.into(),
            kind,
            store: ProfileStore::new(),
        }
    }

    /// Creates a profile from owned points.
    pub fn from_points<I: IntoIterator<Item = ProfilePoint>>(
        label: impl Into<String>,
        kind: ProfileKind,
        points: I,
    ) -> Self {
        PowerProfile {
            label: label.into(),
            kind,
            store: ProfileStore::from_points(points),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the profile holds no points.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Appends one point.
    pub fn push(&mut self, point: ProfilePoint) {
        self.store.push(point);
    }

    /// Appends owned points.
    pub fn extend_points<I: IntoIterator<Item = ProfilePoint>>(&mut self, points: I) {
        self.store.extend(points);
    }

    /// Iterates borrowed point views in storage order.
    pub fn iter(&self) -> impl Iterator<Item = ProfilePointRef<'_>> {
        self.store.iter()
    }

    /// Materializes point `i`.
    pub fn point(&self, i: usize) -> ProfilePoint {
        self.store.point(i)
    }

    /// Keeps only points satisfying `pred`.
    pub fn retain(&mut self, pred: impl FnMut(ProfilePointRef<'_>) -> bool) {
        self.store.retain(pred);
    }

    /// Mean component power over all points; `None` if empty.
    pub fn mean_power(&self) -> Option<ComponentPower> {
        self.store.mean_power()
    }

    /// Mean total power; `None` if empty.
    pub fn mean_total(&self) -> Option<f64> {
        self.mean_power().map(|p| p.total())
    }

    /// Extracts an `(x, y)` series sorted by x. Points without a
    /// time-of-interest are skipped on the [`ProfileAxis::Toi`] axis.
    pub fn series(&self, x: ProfileAxis, y: PowerAxis) -> (Vec<f64>, Vec<f64>) {
        let mut pairs: Vec<(f64, f64)> = self
            .iter()
            .filter_map(|p| {
                let xv = match x {
                    ProfileAxis::RunTime => p.run_time_ns(),
                    ProfileAxis::Toi => p.toi_ns()?,
                };
                let yv = match y {
                    PowerAxis::Total => p.total_w(),
                    PowerAxis::Component(c) => p.power().get(c),
                };
                Some((xv, yv))
            })
            .collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite x"));
        pairs.into_iter().unzip()
    }

    /// Straight-line fit of a series (the Fig. 7/10 regression lines).
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] when the series is degenerate.
    pub fn linear_fit(&self, x: ProfileAxis, y: PowerAxis) -> Result<PolyFit, FitError> {
        let (xs, ys) = self.series(x, y);
        crate::regression::linear(&xs, &ys)
    }

    /// Degree-4 fit of a series (the paper's Fig. 5 smoothing).
    ///
    /// # Errors
    ///
    /// Propagates [`FitError`] when the series is degenerate.
    pub fn quartic_fit(&self, x: ProfileAxis, y: PowerAxis) -> Result<PolyFit, FitError> {
        let (xs, ys) = self.series(x, y);
        crate::regression::degree4(&xs, &ys)
    }

    /// A copy with every power scaled by `1 / reference_w` — the paper
    /// plots *relative* power throughout. A column-wise multiply; no
    /// points are materialized.
    pub fn relative_to(&self, reference_w: f64) -> PowerProfile {
        assert!(reference_w > 0.0, "reference power must be positive");
        PowerProfile {
            label: self.label.clone(),
            kind: self.kind.clone(),
            store: self.store.scale_power(1.0 / reference_w),
        }
    }

    /// Appends another profile's points.
    pub fn merge(&mut self, other: &PowerProfile) {
        self.store.extend_from(&other.store);
    }
}

/// One synchronized log-of-interest candidate (any log, placed in CPU time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedLog {
    /// The log's emission time on the CPU timeline, ns.
    pub cpu_ns: f64,
    /// ns since the run's first launch (negative when before it).
    pub run_time_ns: f64,
    /// Containing execution, if the log landed inside one:
    /// `(position in trace.executions, toi_ns)`.
    pub containing_exec: Option<(usize, f64)>,
    /// The averaged power.
    pub power: ComponentPower,
}

/// Places every power log of a trace on the CPU timeline and associates it
/// with the execution it landed in (if any): the first execution whose
/// `[cpu_start, cpu_end]` contains the log.
///
/// Logs and executions both ascend in CPU time, so one forward pass
/// places them all. When the starts and the ends each ascend, the
/// executions ending at or after a log form a suffix and those starting at
/// or before it a prefix: the first containing execution is the first
/// that ends at or after the log, if it starts at or before it. That holds
/// for noisy bounds too, where an execution starts before the previous
/// one ends. A log earlier than the one before it restarts the walk, and
/// bounds that do not ascend fall back to scanning every execution.
pub fn place_logs(trace: &RunTrace, sync: &TimeSync) -> Vec<PlacedLog> {
    let origin = trace
        .first_launch_cpu()
        .map(|t| t.as_nanos() as f64)
        .unwrap_or(0.0);
    let execs = &trace.executions;
    let ascending = execs
        .windows(2)
        .all(|w| w[0].cpu_start <= w[1].cpu_start && w[0].cpu_end <= w[1].cpu_end);
    let contains = |i: usize, cpu_ns: f64| {
        let e = execs.get(i)?;
        let start = e.cpu_start.as_nanos() as f64;
        let end = e.cpu_end.as_nanos() as f64;
        (cpu_ns >= start && cpu_ns <= end).then_some((i, cpu_ns - start))
    };
    let (mut next, mut previous) = (0, f64::NEG_INFINITY);
    trace
        .power_logs
        .iter()
        .map(|log| {
            let cpu_ns = sync.cpu_ns_of_ticks(log.ticks.as_raw());
            let containing_exec = if ascending {
                if cpu_ns.partial_cmp(&previous).is_none_or(Ordering::is_lt) {
                    next = 0;
                }
                previous = cpu_ns;
                while execs
                    .get(next)
                    .is_some_and(|e| (e.cpu_end.as_nanos() as f64) < cpu_ns)
                {
                    next += 1;
                }
                contains(next, cpu_ns)
            } else {
                (0..execs.len()).find_map(|i| contains(i, cpu_ns))
            };
            PlacedLog {
                cpu_ns,
                run_time_ns: cpu_ns - origin,
                containing_exec,
                power: log.avg,
            }
        })
        .collect()
}

/// Appends a [`ProfileKind::Run`] profile (all logs, on run-relative time)
/// for one run straight into a columnar store — the stitching fast path.
pub fn push_run_profile_points<'a>(
    store: &mut ProfileStore,
    run: u32,
    placed: impl IntoIterator<Item = &'a PlacedLog>,
) {
    for l in placed {
        store.push(ProfilePoint {
            run,
            exec_pos: l.containing_exec.map(|(i, _)| i as u32),
            toi_ns: l.containing_exec.map(|(_, t)| t),
            run_time_ns: l.run_time_ns,
            power: l.power,
        });
    }
}

/// Appends LOI points for executions selected by `select` (by position in
/// the trace's execution list) straight into a columnar store.
pub fn push_loi_points<'a>(
    store: &mut ProfileStore,
    run: u32,
    placed: impl IntoIterator<Item = &'a PlacedLog>,
    mut select: impl FnMut(usize) -> bool,
) {
    for l in placed {
        let Some((pos, toi)) = l.containing_exec else {
            continue;
        };
        if !select(pos) {
            continue;
        }
        store.push(ProfilePoint {
            run,
            exec_pos: Some(pos as u32),
            toi_ns: Some(toi),
            run_time_ns: l.run_time_ns,
            power: l.power,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::ReadDelayCalibration;
    use fingrav_sim::kernel::KernelHandle;
    use fingrav_sim::telemetry::PowerLog;
    use fingrav_sim::time::{CpuTime, GpuTicks};
    use fingrav_sim::trace::{TimedExecution, TimestampRead};

    fn p(total_quarter: f64) -> ComponentPower {
        ComponentPower::new(total_quarter, total_quarter, total_quarter, total_quarter)
    }

    fn point(run: u32, run_time: f64, toi: f64, watts: f64) -> ProfilePoint {
        ProfilePoint {
            run,
            exec_pos: Some(0),
            toi_ns: Some(toi),
            run_time_ns: run_time,
            power: p(watts / 4.0),
        }
    }

    #[test]
    fn mean_power_and_total() {
        let mut prof = PowerProfile::new("k", ProfileKind::Ssp);
        assert!(prof.mean_power().is_none());
        prof.push(point(0, 0.0, 0.0, 400.0));
        prof.push(point(1, 1.0, 0.0, 600.0));
        assert!((prof.mean_total().unwrap() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn series_sorted_by_x() {
        let prof = PowerProfile::from_points(
            "k",
            ProfileKind::Run,
            [
                point(0, 300.0, 0.0, 3.0),
                point(0, 100.0, 0.0, 1.0),
                point(0, 200.0, 0.0, 2.0),
            ],
        );
        let (xs, ys) = prof.series(ProfileAxis::RunTime, PowerAxis::Total);
        assert_eq!(xs, vec![100.0, 200.0, 300.0]);
        assert_eq!(ys, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn component_series() {
        let mut prof = PowerProfile::new("k", ProfileKind::Ssp);
        prof.push(ProfilePoint {
            run: 0,
            exec_pos: Some(0),
            toi_ns: Some(5.0),
            run_time_ns: 5.0,
            power: ComponentPower::new(10.0, 20.0, 30.0, 40.0),
        });
        let (_, xcd) = prof.series(ProfileAxis::Toi, PowerAxis::Component(Component::Xcd));
        assert_eq!(xcd, vec![10.0]);
        let (_, hbm) = prof.series(ProfileAxis::Toi, PowerAxis::Component(Component::Hbm));
        assert_eq!(hbm, vec![30.0]);
    }

    #[test]
    fn relative_scaling() {
        let mut prof = PowerProfile::new("k", ProfileKind::Ssp);
        prof.push(point(0, 0.0, 0.0, 500.0));
        let rel = prof.relative_to(500.0);
        assert!((rel.mean_total().unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(rel.label, prof.label);
    }

    #[test]
    fn merge_extends() {
        let mut a = PowerProfile::new("k", ProfileKind::Run);
        a.push(point(0, 0.0, 0.0, 1.0));
        let mut b = PowerProfile::new("k", ProfileKind::Run);
        b.push(point(1, 1.0, 0.0, 2.0));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn retain_filters_points() {
        let mut prof = PowerProfile::from_points(
            "k",
            ProfileKind::Run,
            [point(0, 1.0, 0.0, 1.0), point(1, 2.0, 0.0, 2.0)],
        );
        prof.retain(|p| p.run() == 1);
        assert_eq!(prof.len(), 1);
        assert_eq!(prof.point(0).run, 1);
    }

    /// Builds a tiny trace with one execution [1000, 2000] ns CPU time and
    /// three logs (before, inside, after), under an identity-ish sync.
    fn trace_with_logs() -> (RunTrace, TimeSync) {
        let mut t = RunTrace::default();
        t.executions.push(TimedExecution {
            kernel: KernelHandle::default(),
            index: 0,
            cpu_start: CpuTime::from_nanos(1_000),
            cpu_end: CpuTime::from_nanos(2_000),
        });
        // 100 MHz counter anchored so tick 0 == cpu 0 (rtt 0, frac 0.5).
        let read = TimestampRead {
            cpu_before: CpuTime::from_nanos(0),
            cpu_after: CpuTime::from_nanos(0),
            ticks: GpuTicks::from_raw(0),
        };
        let calib = ReadDelayCalibration {
            median_rtt_ns: 0,
            assumed_sample_frac: 0.5,
        };
        let sync = TimeSync::from_anchor(&read, &calib, 100e6);
        for (tick, w) in [(50u64, 1.0), (150, 2.0), (250, 3.0)] {
            // tick*10 ns: 500, 1500, 2500.
            t.power_logs.push(PowerLog {
                ticks: GpuTicks::from_raw(tick),
                avg: p(w),
            });
        }
        (t, sync)
    }

    #[test]
    fn place_logs_assigns_containing_execution() {
        let (t, sync) = trace_with_logs();
        let placed = place_logs(&t, &sync);
        assert_eq!(placed.len(), 3);
        assert!(placed[0].containing_exec.is_none(), "before the execution");
        let (pos, toi) = placed[1].containing_exec.expect("inside");
        assert_eq!(pos, 0);
        assert!((toi - 500.0).abs() < 1e-9);
        assert!(placed[2].containing_exec.is_none(), "after the execution");
    }

    #[test]
    fn run_time_is_relative_to_first_launch() {
        let (t, sync) = trace_with_logs();
        let placed = place_logs(&t, &sync);
        // First log at cpu 500, launch at cpu 1000: run time -500.
        assert!((placed[0].run_time_ns - (-500.0)).abs() < 1e-9);
        assert!((placed[1].run_time_ns - 500.0).abs() < 1e-9);
    }

    #[test]
    fn loi_points_filters_by_execution() {
        let (t, sync) = trace_with_logs();
        let placed = place_logs(&t, &sync);
        let mut all = ProfileStore::new();
        push_loi_points(&mut all, 3, &placed, |_| true);
        assert_eq!(all.len(), 1, "only the inside log is an LOI");
        assert_eq!(all.point(0).run, 3);
        assert_eq!(all.point(0).exec_pos, Some(0));
        let mut none = ProfileStore::new();
        push_loi_points(&mut none, 3, &placed, |pos| pos > 0);
        assert!(none.is_empty());
    }

    #[test]
    fn run_profile_keeps_every_log() {
        let (t, sync) = trace_with_logs();
        let placed = place_logs(&t, &sync);
        let mut pts = ProfileStore::new();
        push_run_profile_points(&mut pts, 7, &placed);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts.point(0).exec_pos, None);
        assert!(pts.point(0).toi_ns.is_none());
        assert_eq!(pts.point(1).exec_pos, Some(0));
        assert!(pts.point(1).toi_ns.is_some());
    }

    #[test]
    fn kind_display() {
        assert_eq!(format!("{}", ProfileKind::Run), "run");
        assert_eq!(format!("{}", ProfileKind::Sse), "sse");
        assert_eq!(format!("{}", ProfileKind::Ssp), "ssp");
        assert_eq!(format!("{}", ProfileKind::Outlier), "outlier");
        assert_eq!(format!("{}", ProfileKind::Custom("x".into())), "custom:x");
    }
}
