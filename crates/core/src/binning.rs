//! Kernel execution-time binning (paper solution **S3**).
//!
//! Sub-millisecond kernels show run-to-run execution-time variation (memory
//! allocation differences, jitter, outliers), which makes power samples
//! from different runs incomparable. FinGraV bins observed execution times
//! and keeps only the *golden* runs: those in the bin holding the most
//! executions within the guidance margin of each other (paper step 6).

/// One execution-time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Bin {
    /// Smallest member duration, nanoseconds.
    pub low_ns: u64,
    /// Largest member duration, nanoseconds.
    pub high_ns: u64,
    /// Indices (into the input slice) of the members.
    pub members: Vec<usize>,
}

impl Bin {
    /// Number of members.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Midpoint of the bin, nanoseconds.
    pub fn center_ns(&self) -> u64 {
        (self.low_ns + self.high_ns) / 2
    }

    /// True if `duration_ns` lies inside `[low, high]`.
    pub fn contains(&self, duration_ns: u64) -> bool {
        (self.low_ns..=self.high_ns).contains(&duration_ns)
    }
}

/// The result of binning a set of execution times.
#[derive(Debug, Clone, PartialEq)]
pub struct Binning {
    /// All bins, sorted by ascending duration.
    pub bins: Vec<Bin>,
    /// Index (into `bins`) of the golden bin.
    pub golden: usize,
    /// The margin used.
    pub margin_frac: f64,
}

impl Binning {
    /// The golden bin.
    pub fn golden_bin(&self) -> &Bin {
        &self.bins[self.golden]
    }

    /// Input indices belonging to the golden bin.
    pub fn golden_members(&self) -> &[usize] {
        &self.golden_bin().members
    }

    /// True if input index `i` fell in the golden bin.
    pub fn is_golden(&self, i: usize) -> bool {
        self.golden_bin().members.contains(&i)
    }

    /// Number of inputs excluded from the golden bin.
    pub fn outlier_count(&self) -> usize {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.golden)
            .map(|(_, b)| b.count())
            .sum()
    }

    /// Total number of binned inputs.
    pub fn total_count(&self) -> usize {
        self.bins.iter().map(Bin::count).sum()
    }
}

/// Bins `durations_ns` with relative width `margin_frac` and selects the
/// golden bin (most members; ties go to the faster bin, since outliers slow
/// executions down).
///
/// Returns `None` for empty input.
///
/// The algorithm sorts the durations and slides a window whose span never
/// exceeds `low × (1 + margin)`; the densest window becomes the golden bin,
/// and the remaining values are grouped greedily into further bins for
/// reporting.
///
/// # Examples
///
/// ```
/// use fingrav_core::binning::bin_durations;
///
/// // Nine tight values and one outlier 30% slower.
/// let mut d = vec![100_000u64; 9];
/// d.push(130_000);
/// let binning = bin_durations(&d, 0.05).unwrap();
/// assert_eq!(binning.golden_bin().count(), 9);
/// assert_eq!(binning.outlier_count(), 1);
/// ```
pub fn bin_durations(durations_ns: &[u64], margin_frac: f64) -> Option<Binning> {
    if durations_ns.is_empty() {
        return None;
    }
    let margin = margin_frac.max(0.0);
    let mut order: Vec<usize> = (0..durations_ns.len()).collect();
    order.sort_by_key(|&i| durations_ns[i]);
    let sorted: Vec<u64> = order.iter().map(|&i| durations_ns[i]).collect();

    // Find the densest window with high <= low * (1 + margin).
    let mut best_start = 0usize;
    let mut best_len = 0usize;
    let mut lo = 0usize;
    for hi in 0..sorted.len() {
        while (sorted[hi] as f64) > (sorted[lo] as f64) * (1.0 + margin) {
            lo += 1;
        }
        let len = hi - lo + 1;
        if len > best_len {
            best_len = len;
            best_start = lo;
        }
    }

    let golden_range = best_start..(best_start + best_len);

    // Build remaining bins greedily over the leftovers (below and above the
    // golden window), for reporting.
    let mut bins: Vec<Bin> = Vec::new();
    let push_greedy = |slice: &[usize], bins: &mut Vec<Bin>| {
        let mut i = 0;
        while i < slice.len() {
            let start_val = durations_ns[slice[i]];
            let mut members = vec![slice[i]];
            let mut j = i + 1;
            while j < slice.len()
                && (durations_ns[slice[j]] as f64) <= (start_val as f64) * (1.0 + margin)
            {
                members.push(slice[j]);
                j += 1;
            }
            bins.push(Bin {
                low_ns: durations_ns[*members.first().expect("non-empty")],
                high_ns: durations_ns[*members.last().expect("non-empty")],
                members,
            });
            i = j;
        }
    };

    push_greedy(&order[..golden_range.start], &mut bins);
    let golden_members: Vec<usize> = order[golden_range.clone()].to_vec();
    let golden_bin = Bin {
        low_ns: sorted[golden_range.start],
        high_ns: sorted[golden_range.end - 1],
        members: golden_members,
    };
    bins.push(golden_bin);
    let golden_idx_unsorted = bins.len() - 1;
    push_greedy(&order[golden_range.end..], &mut bins);

    // Bins are built low-leftovers, golden, high-leftovers: already sorted
    // by ascending duration.
    Some(Binning {
        golden: golden_idx_unsorted,
        bins,
        margin_frac: margin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_none() {
        assert!(bin_durations(&[], 0.05).is_none());
    }

    #[test]
    fn single_value_is_golden() {
        let b = bin_durations(&[42_000], 0.05).unwrap();
        assert_eq!(b.golden_bin().count(), 1);
        assert_eq!(b.outlier_count(), 0);
        assert!(b.is_golden(0));
    }

    #[test]
    fn identical_values_all_golden() {
        let d = vec![100u64; 50];
        let b = bin_durations(&d, 0.0).unwrap();
        assert_eq!(b.golden_bin().count(), 50);
        assert_eq!(b.total_count(), 50);
    }

    #[test]
    fn outliers_excluded() {
        let mut d = vec![100_000u64; 20];
        d.extend([125_000, 130_000, 140_000]);
        let b = bin_durations(&d, 0.05).unwrap();
        assert_eq!(b.golden_bin().count(), 20);
        assert_eq!(b.outlier_count(), 3);
        assert!(!b.is_golden(21));
    }

    #[test]
    fn golden_is_modal_not_first() {
        // A few fast stragglers, then the mode.
        let mut d = vec![80_000u64, 81_000];
        d.extend(vec![100_000u64; 15]);
        let b = bin_durations(&d, 0.02).unwrap();
        assert_eq!(b.golden_bin().count(), 15);
        assert_eq!(b.golden_bin().low_ns, 100_000);
    }

    #[test]
    fn margin_respected_within_golden() {
        let d: Vec<u64> = (0..100).map(|i| 100_000 + i * 200).collect();
        let margin = 0.05;
        let b = bin_durations(&d, margin).unwrap();
        let g = b.golden_bin();
        assert!(
            (g.high_ns as f64) <= (g.low_ns as f64) * (1.0 + margin) + 1.0,
            "golden bin too wide: {} .. {}",
            g.low_ns,
            g.high_ns
        );
    }

    #[test]
    fn wider_margin_captures_more() {
        let d: Vec<u64> = (0..100).map(|i| 100_000 + i * 500).collect();
        let tight = bin_durations(&d, 0.02).unwrap().golden_bin().count();
        let loose = bin_durations(&d, 0.10).unwrap().golden_bin().count();
        assert!(loose > tight);
    }

    #[test]
    fn all_members_accounted_for() {
        let d: Vec<u64> = (0..57).map(|i| 100_000 + (i % 7) * 3_000).collect();
        let b = bin_durations(&d, 0.01).unwrap();
        assert_eq!(b.total_count(), d.len());
        let mut all: Vec<usize> = b.bins.iter().flat_map(|bin| bin.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..d.len()).collect::<Vec<_>>());
    }

    #[test]
    fn bins_sorted_ascending() {
        let d = vec![300_000u64, 100_000, 100_500, 200_000, 100_200, 201_000];
        let b = bin_durations(&d, 0.01).unwrap();
        for w in b.bins.windows(2) {
            assert!(w[0].high_ns <= w[1].low_ns);
        }
    }

    #[test]
    fn bin_helpers() {
        let bin = Bin {
            low_ns: 100,
            high_ns: 200,
            members: vec![0, 1],
        };
        assert_eq!(bin.center_ns(), 150);
        assert!(bin.contains(150));
        assert!(!bin.contains(99));
        assert!(!bin.contains(201));
    }
}
