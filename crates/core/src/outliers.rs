//! Outlier-execution profiling (paper Section VI).
//!
//! FinGraV focuses on the common-case execution time and discards
//! outliers, but the paper notes that outlier executions deserve power
//! analysis too: "employ FinGraV methodology and focus on collecting
//! profiles for a specific outlier execution time and discarding the rest
//! (that is changing step-6)". This module implements that changed step 6:
//! select runs whose steady time falls within a margin of a *chosen*
//! target instead of the modal bin.

/// Selection of a non-modal execution-time band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierTarget {
    /// Centre of the band, ns.
    pub center_ns: u64,
    /// Relative half-width of the band.
    pub margin_frac: f64,
}

impl OutlierTarget {
    /// True if `duration_ns` falls in the band.
    pub fn contains(&self, duration_ns: u64) -> bool {
        let c = self.center_ns as f64;
        let half = c * self.margin_frac;
        (duration_ns as f64 - c).abs() <= half
    }

    /// Indices of durations falling in the band — the "golden" set for the
    /// outlier study.
    pub fn select(&self, durations_ns: &[u64]) -> Vec<usize> {
        durations_ns
            .iter()
            .enumerate()
            .filter(|&(_, &d)| self.contains(d))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Suggests outlier-band targets from observed durations: bands around
/// values excluded from the golden bin, widest population first.
pub fn suggest_targets(durations_ns: &[u64], margin_frac: f64) -> Vec<OutlierTarget> {
    let Some(binning) = crate::binning::bin_durations(durations_ns, margin_frac) else {
        return Vec::new();
    };
    let mut targets: Vec<(usize, OutlierTarget)> = binning
        .bins
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != binning.golden)
        .map(|(_, bin)| {
            (
                bin.count(),
                OutlierTarget {
                    center_ns: bin.center_ns(),
                    margin_frac,
                },
            )
        })
        .collect();
    targets.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
    targets.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_membership() {
        let t = OutlierTarget {
            center_ns: 130_000,
            margin_frac: 0.05,
        };
        assert!(t.contains(130_000));
        assert!(t.contains(133_000));
        assert!(!t.contains(140_000));
        assert!(!t.contains(100_000));
    }

    #[test]
    fn select_picks_band_members() {
        let t = OutlierTarget {
            center_ns: 130_000,
            margin_frac: 0.05,
        };
        let d = vec![100_000u64, 130_000, 131_000, 150_000, 129_000];
        assert_eq!(t.select(&d), vec![1, 2, 4]);
    }

    #[test]
    fn suggested_targets_exclude_the_mode() {
        let mut d = vec![100_000u64; 20];
        d.extend([130_000, 131_000, 132_000]); // outlier population
        d.push(180_000); // lone straggler
        let targets = suggest_targets(&d, 0.05);
        assert_eq!(targets.len(), 2);
        // Largest outlier population first.
        assert!((targets[0].center_ns as i64 - 131_000).abs() < 2_000);
        assert_eq!(targets[1].center_ns, 180_000);
        // The mode itself is not suggested.
        assert!(targets.iter().all(|t| !t.contains(100_000)));
    }

    #[test]
    fn no_targets_for_uniform_data() {
        let d = vec![100_000u64; 10];
        assert!(suggest_targets(&d, 0.05).is_empty());
        assert!(suggest_targets(&[], 0.05).is_empty());
    }
}
