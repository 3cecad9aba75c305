//! GEMM/GEMV shape arithmetic.
//!
//! The paper studies general matrix-matrix multiplication
//! `M×K * K×N = M×N` and its memory-bound degenerate case GEMV (`N = 1`,
//! `M = K`). Everything the power analysis needs from a shape is its flop
//! count, memory footprint, and operational intensity (op-to-byte ratio).

use std::fmt;

use crate::dtype::DType;

/// A GEMM problem shape: `M×K * K×N = M×N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of the output.
    pub m: u64,
    /// Columns of the output.
    pub n: u64,
    /// Shared (contraction) dimension.
    pub k: u64,
    /// Element type of all operands.
    pub dtype: DType,
}

impl GemmShape {
    /// A square GEMM (`M = N = K = n`), the paper's compute-bound case.
    pub const fn square(n: u64, dtype: DType) -> Self {
        GemmShape {
            m: n,
            n,
            k: n,
            dtype,
        }
    }

    /// A GEMV for the same matrix (`M = K = n`, `N = 1`), the paper's
    /// memory-bound case.
    pub const fn gemv(n: u64, dtype: DType) -> Self {
        GemmShape {
            m: n,
            n: 1,
            k: n,
            dtype,
        }
    }

    /// True if this shape is a matrix-vector product.
    pub const fn is_gemv(&self) -> bool {
        self.n == 1
    }

    /// Algorithmic floating-point operations (one multiply + one add per
    /// MAC).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes of all three operands (`A`, `B`, `C`).
    pub fn footprint_bytes(&self) -> f64 {
        let elems = self.m * self.k + self.k * self.n + self.m * self.n;
        (elems * self.dtype.bytes()) as f64
    }

    /// Algorithmic operational intensity: flops per byte of cold traffic
    /// (each operand touched once).
    pub fn op_to_byte(&self) -> f64 {
        self.flops() / self.footprint_bytes()
    }

    /// Canonical size label used in the paper, e.g. `8K`, `4K`, `2K`.
    pub fn size_label(&self) -> String {
        let n = self.m.max(self.k);
        if n.is_multiple_of(1024) {
            format!("{}K", n / 1024)
        } else {
            format!("{n}")
        }
    }

    /// Validates that all dimensions are positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.m == 0 || self.n == 0 || self.k == 0 {
            return Err(format!("GEMM dimensions must be positive: {self}"));
        }
        Ok(())
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{} ({})", self.m, self.n, self.k, self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_flops() {
        let s = GemmShape::square(8192, DType::F16);
        let expected = 2.0 * 8192f64.powi(3);
        assert!((s.flops() - expected).abs() < 1.0);
    }

    #[test]
    fn gemv_is_detected() {
        assert!(GemmShape::gemv(4096, DType::F16).is_gemv());
        assert!(!GemmShape::square(4096, DType::F16).is_gemv());
    }

    #[test]
    fn footprint_square() {
        let s = GemmShape::square(2048, DType::F16);
        let expected = (3 * 2048u64 * 2048 * 2) as f64;
        assert!((s.footprint_bytes() - expected).abs() < 1.0);
    }

    #[test]
    fn op_to_byte_grows_with_size() {
        let small = GemmShape::square(2048, DType::F16).op_to_byte();
        let large = GemmShape::square(8192, DType::F16).op_to_byte();
        assert!(large > small);
        // Square GEMM intensity is n/3 for 2-byte types: 2n^3 / (3n^2 * 2).
        assert!((large - 8192.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn gemv_intensity_is_near_one() {
        let v = GemmShape::gemv(8192, DType::F16);
        // 2*n^2 flops over ~n^2 elements * 2 bytes -> ~1 flop/byte.
        assert!((v.op_to_byte() - 1.0).abs() < 0.01, "{}", v.op_to_byte());
    }

    #[test]
    fn size_labels() {
        assert_eq!(GemmShape::square(8192, DType::F16).size_label(), "8K");
        assert_eq!(GemmShape::gemv(4096, DType::F16).size_label(), "4K");
        assert_eq!(GemmShape::square(1000, DType::F16).size_label(), "1000");
    }

    #[test]
    fn validation() {
        assert!(GemmShape::square(128, DType::F16).validate().is_ok());
        assert!(GemmShape {
            m: 0,
            n: 1,
            k: 1,
            dtype: DType::F16
        }
        .validate()
        .is_err());
    }

    #[test]
    fn display_contains_dims() {
        let s = format!("{}", GemmShape::square(4096, DType::Bf16));
        assert!(s.contains("4096"));
        assert!(s.contains("bf16"));
    }
}
