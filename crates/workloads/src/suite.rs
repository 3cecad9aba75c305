//! The paper's kernel suite.
//!
//! Section V-A fixes the operator space: compute-bound square GEMMs at
//! 8K/4K/2K, memory-bound GEMVs for the same matrices, and all-gather /
//! all-reduce collectives at latency-bound (64 KB, 128 KB) and
//! bandwidth-bound (512 MB, 1 GB) sizes — fourteen kernels in all. This
//! module builds them against a machine configuration with stable labels so
//! experiments, tests, and figures all agree on identity.

use fingrav_sim::config::MachineConfig;
use fingrav_sim::fabric::Fabric;
use fingrav_sim::kernel::KernelDesc;

use crate::collectives::{CollectiveSpec, CommBoundedness};
use crate::dtype::DType;
use crate::gemm::GemmShape;
use crate::rccl::Rccl;
use crate::rocblas::RocBlas;
use crate::roofline::{Boundedness, Roofline};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const GIB: u64 = 1024 * 1024 * 1024;

/// Workload category of a suite kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteClass {
    /// Matrix-matrix multiplication.
    Gemm(Boundedness),
    /// Matrix-vector multiplication.
    Gemv(Boundedness),
    /// Multi-GPU collective.
    Collective(CommBoundedness),
}

impl SuiteClass {
    /// True for compute-bound GEMM kernels.
    pub fn is_compute_bound_gemm(&self) -> bool {
        matches!(self, SuiteClass::Gemm(Boundedness::ComputeBound))
    }

    /// True for memory-bound GEMV kernels.
    pub fn is_memory_bound_gemv(&self) -> bool {
        matches!(self, SuiteClass::Gemv(Boundedness::MemoryBound))
    }

    /// True for any collective.
    pub fn is_collective(&self) -> bool {
        matches!(self, SuiteClass::Collective(_))
    }
}

/// One kernel of the paper's suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteKernel {
    /// Stable label, e.g. `CB-4K-GEMM`, `AG-64KB`.
    pub label: String,
    /// Category.
    pub class: SuiteClass,
    /// The simulator kernel descriptor.
    pub desc: KernelDesc,
}

/// Builds the six GEMM/GEMV kernels (CB-{8K,4K,2K}-GEMM, MB-{8K,4K,2K}-GEMV).
pub fn gemm_suite(machine: &MachineConfig) -> Vec<SuiteKernel> {
    let lib = RocBlas::new(machine.clone());
    let roofline = Roofline::for_machine(machine, DType::F16);
    let mut out = Vec::new();
    for n in [8192u64, 4096, 2048] {
        let shape = GemmShape::square(n, DType::F16);
        let desc = lib.kernel_for(&shape).expect("paper shape is valid");
        out.push(SuiteKernel {
            label: desc.name.clone(),
            class: SuiteClass::Gemm(roofline.classify(&shape)),
            desc,
        });
    }
    for n in [8192u64, 4096, 2048] {
        let shape = GemmShape::gemv(n, DType::F16);
        let desc = lib.kernel_for(&shape).expect("paper shape is valid");
        out.push(SuiteKernel {
            label: desc.name.clone(),
            class: SuiteClass::Gemv(roofline.classify(&shape)),
            desc,
        });
    }
    out
}

/// Builds the eight collectives ({AG,AR} × {64KB, 128KB, 512MB, 1GB}).
pub fn collective_suite(machine: &MachineConfig, fabric: Fabric) -> Vec<SuiteKernel> {
    let lib = Rccl::new(machine.clone(), fabric);
    let mut out = Vec::new();
    for spec in [
        CollectiveSpec::all_gather(64 * KIB, DType::F16),
        CollectiveSpec::all_gather(128 * KIB, DType::F16),
        CollectiveSpec::all_gather(512 * MIB, DType::F16),
        CollectiveSpec::all_gather(GIB, DType::F16),
        CollectiveSpec::all_reduce(64 * KIB, DType::F16),
        CollectiveSpec::all_reduce(128 * KIB, DType::F16),
        CollectiveSpec::all_reduce(512 * MIB, DType::F16),
        CollectiveSpec::all_reduce(GIB, DType::F16),
    ] {
        let desc = lib.kernel_for(&spec);
        out.push(SuiteKernel {
            label: desc.name.clone(),
            class: SuiteClass::Collective(spec.classify(lib.fabric())),
            desc,
        });
    }
    out
}

/// The full fourteen-kernel paper suite.
pub fn full_suite(machine: &MachineConfig) -> Vec<SuiteKernel> {
    let mut out = gemm_suite(machine);
    out.extend(collective_suite(machine, Fabric::default()));
    out
}

/// Finds a suite kernel by label.
pub fn find<'a>(suite: &'a [SuiteKernel], label: &str) -> Option<&'a SuiteKernel> {
    suite.iter().find(|k| k.label == label)
}

/// Shorthand: the CB GEMM descriptor for size `n` (e.g. 4096).
pub fn cb_gemm(machine: &MachineConfig, n: u64) -> KernelDesc {
    RocBlas::new(machine.clone())
        .kernel_for(&GemmShape::square(n, DType::F16))
        .expect("square GEMM is valid")
}

/// Shorthand: the MB GEMV descriptor for size `n`.
pub fn mb_gemv(machine: &MachineConfig, n: u64) -> KernelDesc {
    RocBlas::new(machine.clone())
        .kernel_for(&GemmShape::gemv(n, DType::F16))
        .expect("GEMV is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_has_fourteen_kernels() {
        let suite = full_suite(&MachineConfig::default());
        assert_eq!(suite.len(), 14);
    }

    #[test]
    fn labels_are_unique_and_paper_shaped() {
        let suite = full_suite(&MachineConfig::default());
        let mut labels: Vec<&str> = suite.iter().map(|k| k.label.as_str()).collect();
        labels.sort_unstable();
        let before = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), before, "labels must be unique");
        for expected in [
            "CB-8K-GEMM",
            "CB-4K-GEMM",
            "CB-2K-GEMM",
            "MB-8K-GEMV",
            "MB-4K-GEMV",
            "MB-2K-GEMV",
            "AG-64KB",
            "AG-128KB",
            "AG-512MB",
            "AG-1GB",
            "AR-64KB",
            "AR-128KB",
            "AR-512MB",
            "AR-1GB",
        ] {
            assert!(
                find(&suite, expected).is_some(),
                "missing suite kernel {expected}"
            );
        }
    }

    #[test]
    fn classes_match_labels() {
        let suite = full_suite(&MachineConfig::default());
        assert!(find(&suite, "CB-8K-GEMM")
            .unwrap()
            .class
            .is_compute_bound_gemm());
        assert!(find(&suite, "MB-4K-GEMV")
            .unwrap()
            .class
            .is_memory_bound_gemv());
        assert!(find(&suite, "AG-1GB").unwrap().class.is_collective());
        match find(&suite, "AG-1GB").unwrap().class {
            SuiteClass::Collective(b) => assert_eq!(b, CommBoundedness::BandwidthBound),
            _ => unreachable!(),
        }
        match find(&suite, "AR-64KB").unwrap().class {
            SuiteClass::Collective(b) => assert_eq!(b, CommBoundedness::LatencyBound),
            _ => unreachable!(),
        }
    }

    #[test]
    fn shorthand_constructors_agree_with_suite() {
        let m = MachineConfig::default();
        let suite = full_suite(&m);
        assert_eq!(cb_gemm(&m, 4096), find(&suite, "CB-4K-GEMM").unwrap().desc);
        assert_eq!(mb_gemv(&m, 8192), find(&suite, "MB-8K-GEMV").unwrap().desc);
    }

    #[test]
    fn find_misses_cleanly() {
        let suite = gemm_suite(&MachineConfig::default());
        assert!(find(&suite, "NOT-A-KERNEL").is_none());
    }
}
