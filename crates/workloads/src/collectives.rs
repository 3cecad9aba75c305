//! Collective communication specifications and classification.
//!
//! The paper studies all-gather (AG) and all-reduce (AR) at latency-bound
//! sizes (64 KB, 128 KB — inference-relevant) and bandwidth-bound sizes
//! (512 MB, 1 GB — training-relevant). A size is latency-bound "if
//! collective latency at/before this size does not increase commensurate to
//! data-transfer size"; the classifier delegates that test to the fabric
//! cost model.

use std::fmt;

use fingrav_sim::fabric::{CollectiveKind, Fabric};

use crate::dtype::DType;

/// Latency- vs bandwidth-bound classification for collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommBoundedness {
    /// Completion time dominated by fixed latency.
    LatencyBound,
    /// Completion time dominated by link bandwidth.
    BandwidthBound,
}

impl CommBoundedness {
    /// The paper's two-letter prefix: `LB` or `BB`.
    pub fn prefix(&self) -> &'static str {
        match self {
            CommBoundedness::LatencyBound => "LB",
            CommBoundedness::BandwidthBound => "BB",
        }
    }
}

impl fmt::Display for CommBoundedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// A collective operation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveSpec {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Total payload in bytes (full-buffer convention).
    pub message_bytes: u64,
    /// Element type (relevant for reduction cost).
    pub dtype: DType,
}

impl CollectiveSpec {
    /// Creates an all-gather spec.
    pub const fn all_gather(message_bytes: u64, dtype: DType) -> Self {
        CollectiveSpec {
            kind: CollectiveKind::AllGather,
            message_bytes,
            dtype,
        }
    }

    /// Creates an all-reduce spec.
    pub const fn all_reduce(message_bytes: u64, dtype: DType) -> Self {
        CollectiveSpec {
            kind: CollectiveKind::AllReduce,
            message_bytes,
            dtype,
        }
    }

    /// Classifies this spec on a fabric.
    pub fn classify(&self, fabric: &Fabric) -> CommBoundedness {
        if fabric.is_latency_bound(self.kind, self.message_bytes) {
            CommBoundedness::LatencyBound
        } else {
            CommBoundedness::BandwidthBound
        }
    }

    /// Human-readable size, e.g. `64KB`, `512MB`, `1GB`.
    pub fn size_label(&self) -> String {
        format_bytes(self.message_bytes)
    }

    /// Short label, e.g. `AG-64KB`.
    pub fn label(&self) -> String {
        let op = match self.kind {
            CollectiveKind::AllGather => "AG",
            CollectiveKind::AllReduce => "AR",
        };
        format!("{}-{}", op, self.size_label())
    }

    /// Full label including boundedness, e.g. `BB-AG-512MB`.
    pub fn full_label(&self, fabric: &Fabric) -> String {
        format!("{}-{}", self.classify(fabric).prefix(), self.label())
    }
}

/// Formats a byte count with binary-unit labels matching the paper (64KB,
/// 512MB, 1GB).
pub fn format_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;
    const GIB: u64 = 1024 * 1024 * 1024;
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{}GB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{}MB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{}KB", bytes / KIB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;
    const GIB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn labels() {
        let ag = CollectiveSpec::all_gather(64 * KIB, DType::F16);
        assert_eq!(ag.label(), "AG-64KB");
        let ar = CollectiveSpec::all_reduce(GIB, DType::F16);
        assert_eq!(ar.label(), "AR-1GB");
    }

    #[test]
    fn paper_sizes_classify_as_expected() {
        let fabric = Fabric::default();
        for kind_spec in [
            CollectiveSpec::all_gather(64 * KIB, DType::F16),
            CollectiveSpec::all_gather(128 * KIB, DType::F16),
            CollectiveSpec::all_reduce(64 * KIB, DType::F16),
            CollectiveSpec::all_reduce(128 * KIB, DType::F16),
        ] {
            assert_eq!(
                kind_spec.classify(&fabric),
                CommBoundedness::LatencyBound,
                "{}",
                kind_spec.label()
            );
        }
        for kind_spec in [
            CollectiveSpec::all_gather(512 * MIB, DType::F16),
            CollectiveSpec::all_gather(GIB, DType::F16),
            CollectiveSpec::all_reduce(512 * MIB, DType::F16),
            CollectiveSpec::all_reduce(GIB, DType::F16),
        ] {
            assert_eq!(
                kind_spec.classify(&fabric),
                CommBoundedness::BandwidthBound,
                "{}",
                kind_spec.label()
            );
        }
    }

    #[test]
    fn full_labels_carry_boundedness() {
        let fabric = Fabric::default();
        assert_eq!(
            CollectiveSpec::all_gather(64 * KIB, DType::F16).full_label(&fabric),
            "LB-AG-64KB"
        );
        assert_eq!(
            CollectiveSpec::all_reduce(512 * MIB, DType::F16).full_label(&fabric),
            "BB-AR-512MB"
        );
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(64 * KIB), "64KB");
        assert_eq!(format_bytes(512 * MIB), "512MB");
        assert_eq!(format_bytes(GIB), "1GB");
        assert_eq!(format_bytes(500), "500B");
        assert_eq!(format_bytes(3 * KIB * KIB), "3MB");
    }

    #[test]
    fn prefixes() {
        assert_eq!(CommBoundedness::LatencyBound.prefix(), "LB");
        assert_eq!(CommBoundedness::BandwidthBound.prefix(), "BB");
    }
}
