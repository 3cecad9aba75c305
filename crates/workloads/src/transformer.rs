//! Transformer-layer GEMM shapes.
//!
//! The paper motivates fine-grain power visibility with large-language-model
//! workloads (training clusters, Llama-405B serving, the NanoFlow-style
//! co-scheduling of attention GEMVs with fully-connected GEMMs). This module
//! derives the projection/MLP GEMM shapes of a standard decoder layer so
//! realistic model configurations can be profiled directly: prefill shapes
//! (long sequences) classify compute-bound, decode shapes (one token)
//! classify memory-bound — the same CB/MB split the paper studies on square
//! matrices.

use fingrav_sim::kernel::KernelDesc;

use crate::dtype::DType;
use crate::gemm::GemmShape;
use crate::rocblas::RocBlas;

/// Minimal decoder-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Model (hidden) dimension.
    pub hidden: u64,
    /// MLP intermediate dimension (commonly 4× hidden, or 8/3× for gated).
    pub intermediate: u64,
    /// Element type.
    pub dtype: DType,
}

impl TransformerConfig {
    /// A Llama-7B-class layer (hidden 4096, intermediate 11008).
    pub const fn llama_7b() -> Self {
        TransformerConfig {
            hidden: 4096,
            intermediate: 11008,
            dtype: DType::F16,
        }
    }

    /// A Llama-70B-class layer (hidden 8192, intermediate 28672).
    pub const fn llama_70b() -> Self {
        TransformerConfig {
            hidden: 8192,
            intermediate: 28672,
            dtype: DType::F16,
        }
    }

    /// The four projection GEMMs of one decoder layer for `tokens` tokens
    /// in flight (`batch × seq` for prefill; `batch` for decode):
    /// fused QKV, attention output, MLP up, MLP down.
    pub fn layer_shapes(&self, tokens: u64) -> Vec<(&'static str, GemmShape)> {
        let h = self.hidden;
        let i = self.intermediate;
        vec![
            (
                "qkv-proj",
                GemmShape {
                    m: 3 * h,
                    n: tokens,
                    k: h,
                    dtype: self.dtype,
                },
            ),
            (
                "attn-out-proj",
                GemmShape {
                    m: h,
                    n: tokens,
                    k: h,
                    dtype: self.dtype,
                },
            ),
            (
                "mlp-up",
                GemmShape {
                    m: i,
                    n: tokens,
                    k: h,
                    dtype: self.dtype,
                },
            ),
            (
                "mlp-down",
                GemmShape {
                    m: h,
                    n: tokens,
                    k: i,
                    dtype: self.dtype,
                },
            ),
        ]
    }

    /// Kernel descriptors for one layer at the given token count, modelled
    /// through the rocBLAS-like library. Kernel names carry the stage
    /// label, e.g. `decode/qkv-proj (MB-4K-GEMV)`.
    ///
    /// # Errors
    ///
    /// Propagates shape-validation errors (degenerate configurations).
    pub fn layer_kernels(
        &self,
        lib: &RocBlas,
        stage: &str,
        tokens: u64,
    ) -> Result<Vec<KernelDesc>, String> {
        self.layer_shapes(tokens)
            .into_iter()
            .map(|(name, shape)| {
                let mut desc = lib.kernel_for(&shape)?;
                desc.name = format!("{stage}/{name} ({})", desc.name);
                Ok(desc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roofline::{Boundedness, Roofline};
    use fingrav_sim::config::MachineConfig;

    fn lib() -> RocBlas {
        RocBlas::new(MachineConfig::default())
    }

    #[test]
    fn decode_shapes_are_memory_bound() {
        let cfg = TransformerConfig::llama_7b();
        let roofline = Roofline::for_machine(&MachineConfig::default(), cfg.dtype);
        for (name, shape) in cfg.layer_shapes(1) {
            assert_eq!(
                roofline.classify(&shape),
                Boundedness::MemoryBound,
                "decode {name} should be memory bound"
            );
        }
    }

    #[test]
    fn prefill_shapes_are_compute_bound() {
        let cfg = TransformerConfig::llama_7b();
        let roofline = Roofline::for_machine(&MachineConfig::default(), cfg.dtype);
        for (name, shape) in cfg.layer_shapes(4096) {
            assert_eq!(
                roofline.classify(&shape),
                Boundedness::ComputeBound,
                "prefill {name} should be compute bound"
            );
        }
    }

    #[test]
    fn layer_flops_scale_with_tokens() {
        let cfg = TransformerConfig::llama_70b();
        let one: f64 = cfg.layer_shapes(1).iter().map(|(_, s)| s.flops()).sum();
        let many: f64 = cfg.layer_shapes(512).iter().map(|(_, s)| s.flops()).sum();
        assert!((many / one - 512.0).abs() < 1.0);
        // Per-token layer flops ~ 2 * params-per-layer.
        let params = (3 * 8192 * 8192 + 8192 * 8192 + 2 * 8192 * 28672) as f64;
        assert!((one / (2.0 * params) - 1.0).abs() < 0.01);
    }

    #[test]
    fn layer_kernels_carry_stage_labels() {
        let cfg = TransformerConfig::llama_7b();
        let kernels = cfg.layer_kernels(&lib(), "decode", 1).expect("valid");
        assert_eq!(kernels.len(), 4);
        assert!(kernels[0].name.starts_with("decode/qkv-proj"));
        assert!(kernels[0].name.contains("MB-"), "{}", kernels[0].name);
        for k in &kernels {
            assert!(k.validate().is_ok());
        }
    }

    #[test]
    fn prefill_kernels_run_longer_than_decode() {
        let cfg = TransformerConfig::llama_7b();
        let decode = cfg.layer_kernels(&lib(), "decode", 1).expect("valid");
        let prefill = cfg.layer_kernels(&lib(), "prefill", 4096).expect("valid");
        for (d, p) in decode.iter().zip(&prefill) {
            assert!(p.base_exec > d.base_exec, "{} vs {}", p.name, d.name);
        }
    }
}
