//! Numeric datatypes for workload sizing.

use std::fmt;

/// Element datatypes used by the AI kernels under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE half precision.
    F16,
    /// bfloat16.
    Bf16,
    /// IEEE single precision.
    F32,
    /// IEEE double precision.
    F64,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn bytes(&self) -> u64 {
        match self {
            DType::F16 | DType::Bf16 => 2,
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// Whether the MI300X matrix cores run this type at the headline
    /// (FP16-class) rate.
    pub const fn matrix_rate_class(&self) -> MatrixRate {
        match self {
            DType::F16 | DType::Bf16 => MatrixRate::Full,
            DType::F32 => MatrixRate::Eighth,
            DType::F64 => MatrixRate::Sixteenth,
        }
    }
}

/// Relative matrix-core throughput class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixRate {
    /// Full (FP16/BF16) rate.
    Full,
    /// One eighth of the FP16 rate (FP32-class).
    Eighth,
    /// One sixteenth of the FP16 rate (FP64-class).
    Sixteenth,
}

impl MatrixRate {
    /// Fraction of peak FP16 matrix throughput.
    pub const fn fraction(&self) -> f64 {
        match self {
            MatrixRate::Full => 1.0,
            MatrixRate::Eighth => 0.125,
            MatrixRate::Sixteenth => 0.0625,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::Bf16 => "bf16",
            DType::F32 => "f32",
            DType::F64 => "f64",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_sizes() {
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::F64.bytes(), 8);
    }

    #[test]
    fn rate_classes_are_ordered() {
        assert!(
            DType::F16.matrix_rate_class().fraction() > DType::F32.matrix_rate_class().fraction()
        );
        assert!(
            DType::F32.matrix_rate_class().fraction() > DType::F64.matrix_rate_class().fraction()
        );
    }

    #[test]
    fn display_nonempty() {
        for d in [DType::F16, DType::Bf16, DType::F32, DType::F64] {
            assert!(!format!("{d}").is_empty());
        }
    }
}
