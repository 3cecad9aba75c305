//! Roofline classification: compute-bound vs memory-bound.
//!
//! The paper defines a kernel as compute-bound "if its algorithmic
//! op-to-byte ratio is larger than the machine's op-to-byte as calculated
//! from the peak compute and memory throughput of the underlying processor
//! (kernel is memory-bound otherwise)". This module implements exactly that
//! criterion plus the attainable-throughput roofline used by the timing
//! model.

use std::fmt;

use fingrav_sim::config::MachineConfig;

use crate::dtype::DType;
use crate::gemm::GemmShape;

/// The two sides of the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundedness {
    /// Op-to-byte above machine balance.
    ComputeBound,
    /// Op-to-byte at or below machine balance.
    MemoryBound,
}

impl Boundedness {
    /// The paper's two-letter prefix: `CB` or `MB`.
    pub fn prefix(&self) -> &'static str {
        match self {
            Boundedness::ComputeBound => "CB",
            Boundedness::MemoryBound => "MB",
        }
    }
}

impl fmt::Display for Boundedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// Roofline model of a machine for a given datatype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak compute throughput for the datatype, flop/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth, bytes/s.
    pub peak_bytes_per_s: f64,
}

impl Roofline {
    /// Builds the roofline for `dtype` on `machine`.
    pub fn for_machine(machine: &MachineConfig, dtype: DType) -> Self {
        let peak_flops = machine.peak_fp16_tflops * 1e12 * dtype.matrix_rate_class().fraction();
        Roofline {
            peak_flops,
            peak_bytes_per_s: machine.hbm_peak_gbps * 1e9,
        }
    }

    /// The machine balance (flops per byte).
    pub fn machine_op_to_byte(&self) -> f64 {
        self.peak_flops / self.peak_bytes_per_s
    }

    /// Classifies a kernel by its algorithmic intensity.
    pub fn classify_intensity(&self, op_to_byte: f64) -> Boundedness {
        if op_to_byte > self.machine_op_to_byte() {
            Boundedness::ComputeBound
        } else {
            Boundedness::MemoryBound
        }
    }

    /// Classifies a GEMM shape.
    pub fn classify(&self, shape: &GemmShape) -> Boundedness {
        self.classify_intensity(shape.op_to_byte())
    }

    /// Attainable throughput (flop/s) for a kernel of the given intensity,
    /// per the classic roofline: `min(peak, intensity × bandwidth)`.
    pub fn attainable_flops(&self, op_to_byte: f64) -> f64 {
        self.peak_flops.min(op_to_byte * self.peak_bytes_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roofline() -> Roofline {
        Roofline::for_machine(&MachineConfig::default(), DType::F16)
    }

    #[test]
    fn machine_balance_matches_config() {
        let r = roofline();
        let m = MachineConfig::default();
        assert!((r.machine_op_to_byte() - m.machine_op_to_byte_fp16()).abs() < 1e-9);
    }

    #[test]
    fn paper_gemms_are_compute_bound() {
        let r = roofline();
        for n in [2048, 4096, 8192] {
            let s = GemmShape::square(n, DType::F16);
            assert_eq!(
                r.classify(&s),
                Boundedness::ComputeBound,
                "CB expected for {n}"
            );
        }
    }

    #[test]
    fn paper_gemvs_are_memory_bound() {
        let r = roofline();
        for n in [2048, 4096, 8192] {
            let s = GemmShape::gemv(n, DType::F16);
            assert_eq!(
                r.classify(&s),
                Boundedness::MemoryBound,
                "MB expected for {n}"
            );
        }
    }

    #[test]
    fn boundary_goes_to_memory_bound() {
        let r = roofline();
        let balance = r.machine_op_to_byte();
        assert_eq!(r.classify_intensity(balance), Boundedness::MemoryBound);
        assert_eq!(
            r.classify_intensity(balance * 1.001),
            Boundedness::ComputeBound
        );
    }

    #[test]
    fn attainable_caps_at_peak() {
        let r = roofline();
        assert_eq!(r.attainable_flops(1e9), r.peak_flops);
        // Very low intensity: bandwidth-limited.
        let low = r.attainable_flops(1.0);
        assert!((low - r.peak_bytes_per_s).abs() < 1.0);
    }

    #[test]
    fn fp32_has_lower_balance() {
        let f16 = Roofline::for_machine(&MachineConfig::default(), DType::F16);
        let f32 = Roofline::for_machine(&MachineConfig::default(), DType::F32);
        assert!(f32.machine_op_to_byte() < f16.machine_op_to_byte());
    }

    #[test]
    fn prefixes() {
        assert_eq!(Boundedness::ComputeBound.prefix(), "CB");
        assert_eq!(Boundedness::MemoryBound.prefix(), "MB");
        assert_eq!(format!("{}", Boundedness::ComputeBound), "CB");
    }
}
