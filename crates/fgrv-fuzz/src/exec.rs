//! One oracle-checked execution: coverage capture, panic containment,
//! and the allocation-cap check.

use std::panic::{self, AssertUnwindSafe};

use fingrav_core::cover;

use crate::alloc;
use crate::targets::{self, Target};

/// Baseline allowance for the allocation-cap oracle, plus a
/// per-input-byte factor. Generous against the documented decode caps
/// (`PREALLOC_ELEMS`-chunked sequences, 4 KiB wire read chunks): a
/// decoder that honours them sits far below this line even on adversarial
/// length fields, while an unbounded `Vec::with_capacity(attacker_len)`
/// blows straight through it.
pub const ALLOC_CAP_BASE: usize = 64 << 20;
/// Accepted inputs legitimately materialise owned copies (columns,
/// artifacts, re-encoded buffers) proportional to their size, across
/// several simultaneous decoders.
pub const ALLOC_CAP_PER_BYTE: usize = 64;

/// What one input did wrong. `None` of these occur on a healthy target.
#[derive(Debug, Clone)]
pub enum Finding {
    /// The decoder panicked. Payload: the panic message.
    Panic(String),
    /// An oracle violation (broken round trip, mishandled trailing bytes).
    Divergence(String),
    /// Peak live allocation exceeded the documented-cap allowance.
    AllocCap {
        /// Observed peak live bytes during the execution.
        peak: usize,
        /// The allowance it exceeded.
        cap: usize,
    },
}

impl Finding {
    /// Short kind tag for file names and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::Panic(_) => "panic",
            Finding::Divergence(_) => "divergence",
            Finding::AllocCap { .. } => "alloc-cap",
        }
    }
}

/// The observations from one execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Per-site branch counters (all zero without `--features cover`).
    pub snapshot: [u32; cover::SITE_COUNT],
    /// Error-taxonomy hashes the input produced.
    pub taxonomy: Vec<u64>,
    /// The violation, if any.
    pub finding: Option<Finding>,
}

/// Runs `input` through `target` under full observation.
pub fn run_one(target: Target, input: &[u8]) -> ExecResult {
    cover::reset();
    alloc::reset_peak();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| targets::execute(target, input)));
    let snapshot = cover::snapshot();
    let peak = alloc::peak();

    let (taxonomy, mut finding) = match outcome {
        Ok(Ok(taxonomy)) => (taxonomy, None),
        Ok(Err(why)) => (Vec::new(), Some(Finding::Divergence(why))),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (Vec::new(), Some(Finding::Panic(msg)))
        }
    };

    // The cap check needs the counting allocator actually installed
    // (harness binary); library embeddings see peak 0 and skip it.
    if finding.is_none() && alloc::active() {
        let cap = ALLOC_CAP_BASE.saturating_add(ALLOC_CAP_PER_BYTE.saturating_mul(input.len()));
        if peak > cap {
            finding = Some(Finding::AllocCap { peak, cap });
        }
    }

    ExecResult {
        snapshot,
        taxonomy,
        finding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_input_yields_taxonomy_not_findings() {
        let result = run_one(Target::Prof, b"definitely not a store");
        assert!(result.finding.is_none());
        assert!(!result.taxonomy.is_empty());
    }

    #[test]
    fn valid_seed_yields_no_finding_and_no_taxonomy() {
        for info in targets::TARGETS {
            for seed in targets::seeds(info.target) {
                let result = run_one(info.target, &seed);
                assert!(
                    result.finding.is_none(),
                    "{}: {:?}",
                    info.name,
                    result.finding
                );
            }
        }
    }
}
