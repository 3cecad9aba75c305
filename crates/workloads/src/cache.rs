//! On-chip residency model for repeated kernel executions.
//!
//! The paper's footnote 3 is load-bearing for its component-level analysis:
//! "As we repeatedly execute kernels, data movement is heavily biased
//! toward on-chip data movement for our executions." A working set that
//! fits in the 256 MB Infinity Cache is served almost entirely from the
//! LLC after the first execution; only working sets larger than the LLC
//! keep stressing HBM — which is why CB-8K-GEMM (402 MB footprint) is the
//! one kernel with standout HBM power in Fig. 7.

/// LLC residency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheModel {
    /// Memory-side LLC (Infinity Cache) capacity in bytes.
    pub llc_bytes: f64,
    /// Fraction of a fully resident working set that still reaches HBM on
    /// repeated executions (writebacks, streaming corners).
    pub resident_hbm_leak: f64,
}

impl CacheModel {
    /// Builds the model for an LLC of `llc_mib` MiB.
    pub fn new(llc_mib: u64) -> Self {
        CacheModel {
            llc_bytes: (llc_mib * 1024 * 1024) as f64,
            resident_hbm_leak: 0.12,
        }
    }

    /// Fraction of the working set resident in LLC under steady repetition:
    /// 1.0 when it fits, shrinking as the footprint exceeds capacity.
    pub fn residency(&self, footprint_bytes: f64) -> f64 {
        if footprint_bytes <= 0.0 {
            return 1.0;
        }
        (self.llc_bytes / footprint_bytes).min(1.0)
    }

    /// Fraction of per-execution traffic that reaches HBM under steady
    /// repetition.
    pub fn hbm_traffic_fraction(&self, footprint_bytes: f64) -> f64 {
        let r = self.residency(footprint_bytes);
        // Resident part leaks a little; the non-resident part misses fully.
        r * self.resident_hbm_leak + (1.0 - r)
    }

    /// Splits one execution's `traffic_bytes` into `(hbm, llc)` bytes under
    /// steady repetition of a kernel with the given footprint.
    pub fn split_traffic(&self, footprint_bytes: f64, traffic_bytes: f64) -> (f64, f64) {
        let hbm_frac = self.hbm_traffic_fraction(footprint_bytes);
        let hbm = traffic_bytes * hbm_frac;
        (hbm, traffic_bytes - hbm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    fn model() -> CacheModel {
        CacheModel::new(256)
    }

    #[test]
    fn small_working_set_is_resident() {
        let m = model();
        assert_eq!(m.residency(25.0 * MIB), 1.0);
        let f = m.hbm_traffic_fraction(25.0 * MIB);
        assert!((f - m.resident_hbm_leak).abs() < 1e-12);
    }

    #[test]
    fn oversized_working_set_misses() {
        let m = model();
        // 402 MiB footprint (CB-8K-GEMM): residency ~0.64.
        let r = m.residency(402.0 * MIB);
        assert!(r > 0.5 && r < 0.75, "residency {r}");
        let f = m.hbm_traffic_fraction(402.0 * MIB);
        assert!(f > 0.35, "HBM fraction {f}");
    }

    #[test]
    fn hbm_fraction_monotone_in_footprint() {
        let m = model();
        let mut last = 0.0;
        for mib in [10.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
            let f = m.hbm_traffic_fraction(mib * MIB);
            assert!(f >= last, "must grow with footprint");
            last = f;
        }
    }

    #[test]
    fn split_conserves_traffic() {
        let m = model();
        let traffic = 500.0 * MIB;
        let (hbm, llc) = m.split_traffic(300.0 * MIB, traffic);
        assert!((hbm + llc - traffic).abs() < 1.0);
        assert!(hbm > 0.0 && llc > 0.0);
    }

    #[test]
    fn zero_footprint_is_fully_resident() {
        assert_eq!(model().residency(0.0), 1.0);
    }
}
