//! The multi-GPU Infinity-Fabric-style interconnect model.
//!
//! The paper profiles collectives on the "AMD MI300X Infinity Platform": an
//! 8×GPU node with a fully connected topology, each GPU linked to the seven
//! others at 64 GB/s unidirectional per link. Collective completion time is
//! modelled with the standard α–β (latency–bandwidth) decomposition over
//! that topology; the RCCL-like layer in `fingrav-workloads` turns the
//! resulting time and per-phase traffic into a power-relevant kernel
//! descriptor for the *local* GPU (the one whose power is being profiled).

use crate::time::SimDuration;

/// Interconnect topology and timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// GPUs in the node.
    pub n_gpus: u32,
    /// Unidirectional bandwidth per peer link, GB/s.
    pub link_gbps: f64,
    /// Fixed software + fabric latency per communication phase.
    pub alpha: SimDuration,
    /// Fraction of nominal link bandwidth achievable by the collective
    /// library (protocol and packing overheads).
    pub link_efficiency: f64,
    /// Per-kernel fixed launch/teardown cost inside the collective.
    pub kernel_overhead: SimDuration,
}

impl Default for FabricConfig {
    /// 8×MI300X fully connected node, 64 GB/s links.
    fn default() -> Self {
        FabricConfig {
            n_gpus: 8,
            link_gbps: 64.0,
            alpha: SimDuration::from_micros(9),
            link_efficiency: 0.82,
            kernel_overhead: SimDuration::from_micros(4),
        }
    }
}

/// Collective communication algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveAlgorithm {
    /// Fully-connected one-phase exchange: every GPU talks to every peer
    /// concurrently over dedicated links. Optimal on the MI300X Infinity
    /// Platform's all-to-all topology.
    Direct,
    /// Classic ring: `n-1` steps, each moving one shard to the next
    /// neighbour. More latency, but the standard choice on lower-degree
    /// topologies; modelled for comparison.
    Ring,
}

/// Supported collective operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Every GPU gathers every other GPU's shard.
    AllGather,
    /// Element-wise reduction across GPUs, result replicated everywhere.
    AllReduce,
}

impl CollectiveKind {
    /// Short lowercase name, e.g. for kernel labels.
    pub fn short_name(&self) -> &'static str {
        match self {
            CollectiveKind::AllGather => "all-gather",
            CollectiveKind::AllReduce => "all-reduce",
        }
    }

    /// Number of fully-connected communication phases the direct algorithm
    /// needs: all-gather is a single exchange; all-reduce is reduce-scatter
    /// followed by all-gather.
    pub fn phases(&self) -> u32 {
        match self {
            CollectiveKind::AllGather => 1,
            CollectiveKind::AllReduce => 2,
        }
    }
}

/// Breakdown of one collective's predicted execution on the local GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCost {
    /// Total predicted completion time.
    pub time: SimDuration,
    /// Bytes this GPU sends over the fabric.
    pub bytes_sent: f64,
    /// Bytes this GPU receives over the fabric.
    pub bytes_received: f64,
    /// Bytes this GPU reads/writes against its own HBM.
    pub local_hbm_bytes: f64,
    /// Fraction of the time spent in the fixed-latency (α) term; close to
    /// 1.0 for latency-bound transfers.
    pub alpha_fraction: f64,
}

/// The fully connected ("direct") collective algorithm cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fabric {
    cfg: FabricConfig,
}

impl Fabric {
    /// Creates a fabric model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (fewer than 2 GPUs,
    /// non-positive bandwidth or efficiency).
    pub fn new(cfg: FabricConfig) -> Self {
        assert!(cfg.n_gpus >= 2, "a collective needs at least two GPUs");
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        assert!(
            cfg.link_efficiency > 0.0 && cfg.link_efficiency <= 1.0,
            "link efficiency must be in (0, 1]"
        );
        Fabric { cfg }
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Predicts the cost of running `kind` over a total payload of
    /// `message_bytes` (the full buffer size, matching the size convention
    /// of collective benchmarks: a "1 GB all-gather" produces 1 GB of
    /// output on every GPU), using the topology-optimal direct algorithm.
    pub fn collective_cost(&self, kind: CollectiveKind, message_bytes: u64) -> CollectiveCost {
        self.collective_cost_with(CollectiveAlgorithm::Direct, kind, message_bytes)
    }

    /// Predicts the cost under a specific algorithm.
    pub fn collective_cost_with(
        &self,
        algorithm: CollectiveAlgorithm,
        kind: CollectiveKind,
        message_bytes: u64,
    ) -> CollectiveCost {
        let n = self.cfg.n_gpus as f64;
        let peers = n - 1.0;
        let shard = message_bytes as f64 / n;
        let link_bw = self.cfg.link_gbps * 1e9 * self.cfg.link_efficiency;

        let (alpha_s, beta_s) = match algorithm {
            CollectiveAlgorithm::Direct => {
                // One fully-connected phase per logical step: every GPU
                // exchanges its shard with all peers concurrently over
                // dedicated links; each phase is paced by a single link
                // carrying one shard.
                let phases = kind.phases() as f64;
                (
                    self.cfg.alpha.as_secs_f64() * phases + self.cfg.kernel_overhead.as_secs_f64(),
                    (shard / link_bw) * phases,
                )
            }
            CollectiveAlgorithm::Ring => {
                // n-1 neighbour steps per logical phase, each moving one
                // shard over one link.
                let steps = peers * kind.phases() as f64;
                (
                    self.cfg.alpha.as_secs_f64() * steps + self.cfg.kernel_overhead.as_secs_f64(),
                    (shard / link_bw) * steps,
                )
            }
        };
        let total_s = alpha_s + beta_s;

        let (sent, received, hbm) = match kind {
            CollectiveKind::AllGather => {
                // Send own shard to each peer; receive each peer's shard.
                let sent = shard * peers;
                let recv = shard * peers;
                // Local HBM: read own shard once per peer send (cached after
                // first), write all received shards.
                let hbm = shard + recv;
                (sent, recv, hbm)
            }
            CollectiveKind::AllReduce => {
                // Reduce-scatter + all-gather: each phase moves one shard
                // per link; locally the reduction reads and writes shards.
                let sent = 2.0 * shard * peers;
                let recv = 2.0 * shard * peers;
                let hbm = 2.0 * (shard * peers + shard);
                (sent, recv, hbm)
            }
        };

        CollectiveCost {
            time: SimDuration::from_secs_f64(total_s),
            bytes_sent: sent,
            bytes_received: received,
            local_hbm_bytes: hbm,
            alpha_fraction: alpha_s / total_s,
        }
    }

    /// Classifies a message size as latency-bound using the paper's
    /// criterion: "latency-bound if collective latency at/before this size
    /// does not increase commensurate to data-transfer size". We test
    /// whether doubling the size increases time by clearly less than 2×.
    pub fn is_latency_bound(&self, kind: CollectiveKind, message_bytes: u64) -> bool {
        let here = self.collective_cost(kind, message_bytes).time.as_secs_f64();
        let double = self
            .collective_cost(kind, message_bytes.saturating_mul(2))
            .time
            .as_secs_f64();
        double < 1.5 * here
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new(FabricConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;

    fn fabric() -> Fabric {
        Fabric::default()
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let f = fabric();
        assert!(f.is_latency_bound(CollectiveKind::AllGather, 64 * KIB));
        assert!(f.is_latency_bound(CollectiveKind::AllGather, 128 * KIB));
        assert!(f.is_latency_bound(CollectiveKind::AllReduce, 64 * KIB));
        assert!(f.is_latency_bound(CollectiveKind::AllReduce, 128 * KIB));
    }

    #[test]
    fn large_messages_are_bandwidth_bound() {
        let f = fabric();
        assert!(!f.is_latency_bound(CollectiveKind::AllGather, 512 * MIB));
        assert!(!f.is_latency_bound(CollectiveKind::AllGather, 1024 * MIB));
        assert!(!f.is_latency_bound(CollectiveKind::AllReduce, 512 * MIB));
        assert!(!f.is_latency_bound(CollectiveKind::AllReduce, 1024 * MIB));
    }

    #[test]
    fn time_grows_monotonically_with_size() {
        let f = fabric();
        let mut last = SimDuration::ZERO;
        for bytes in [64 * KIB, MIB, 16 * MIB, 256 * MIB, 1024 * MIB] {
            let t = f.collective_cost(CollectiveKind::AllGather, bytes).time;
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn allreduce_costs_about_twice_allgather_at_large_sizes() {
        let f = fabric();
        let ag = f
            .collective_cost(CollectiveKind::AllGather, 1024 * MIB)
            .time
            .as_secs_f64();
        let ar = f
            .collective_cost(CollectiveKind::AllReduce, 1024 * MIB)
            .time
            .as_secs_f64();
        let ratio = ar / ag;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bandwidth_bound_sizes_run_in_milliseconds() {
        // Sanity: a 1 GB all-gather over 7x64 GB/s links lands in the
        // low-millisecond range, matching training-scale collectives.
        let f = fabric();
        let t = f
            .collective_cost(CollectiveKind::AllGather, 1024 * MIB)
            .time
            .as_millis_f64();
        assert!(t > 0.5 && t < 20.0, "time {t} ms");
    }

    #[test]
    fn latency_bound_sizes_run_in_tens_of_microseconds() {
        let f = fabric();
        let t = f
            .collective_cost(CollectiveKind::AllGather, 64 * KIB)
            .time
            .as_micros_f64();
        assert!(t > 5.0 && t < 100.0, "time {t} us");
    }

    #[test]
    fn alpha_fraction_tracks_boundedness() {
        let f = fabric();
        let small = f.collective_cost(CollectiveKind::AllGather, 64 * KIB);
        let large = f.collective_cost(CollectiveKind::AllGather, 1024 * MIB);
        assert!(small.alpha_fraction > 0.9, "{}", small.alpha_fraction);
        assert!(large.alpha_fraction < 0.1, "{}", large.alpha_fraction);
    }

    #[test]
    fn traffic_accounting_is_symmetric() {
        let f = fabric();
        for kind in [CollectiveKind::AllGather, CollectiveKind::AllReduce] {
            let c = f.collective_cost(kind, 256 * MIB);
            assert!((c.bytes_sent - c.bytes_received).abs() < 1.0);
            assert!(c.local_hbm_bytes > 0.0);
        }
    }

    #[test]
    fn ring_is_slower_than_direct_on_full_connectivity() {
        // On an all-to-all topology the direct algorithm wins at every
        // size: the ring serializes what direct does in parallel.
        let f = fabric();
        for bytes in [64 * KIB, MIB, 256 * MIB, 1024 * MIB] {
            for kind in [CollectiveKind::AllGather, CollectiveKind::AllReduce] {
                let direct = f.collective_cost_with(CollectiveAlgorithm::Direct, kind, bytes);
                let ring = f.collective_cost_with(CollectiveAlgorithm::Ring, kind, bytes);
                assert!(
                    ring.time > direct.time,
                    "{kind:?} {bytes}B: ring {} <= direct {}",
                    ring.time,
                    direct.time
                );
            }
        }
    }

    #[test]
    fn ring_latency_scales_with_step_count() {
        let f = fabric();
        let ag = f.collective_cost_with(
            CollectiveAlgorithm::Ring,
            CollectiveKind::AllGather,
            64 * KIB,
        );
        // 7 steps x 9 us alpha plus overhead dominates at small sizes.
        let floor_us = 7.0 * 9.0;
        assert!(
            ag.time.as_micros_f64() > floor_us,
            "ring AG latency {} us below the alpha floor",
            ag.time.as_micros_f64()
        );
    }

    #[test]
    fn phase_counts() {
        assert_eq!(CollectiveKind::AllGather.phases(), 1);
        assert_eq!(CollectiveKind::AllReduce.phases(), 2);
        assert_eq!(CollectiveKind::AllGather.short_name(), "all-gather");
        assert_eq!(CollectiveKind::AllReduce.short_name(), "all-reduce");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_gpu() {
        let _ = Fabric::new(FabricConfig {
            n_gpus: 1,
            ..FabricConfig::default()
        });
    }
}
