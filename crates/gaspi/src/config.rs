//! World configuration.

use ft_cluster::{LatencyModel, Topology};

/// Configuration for a [`crate::GaspiWorld`].
#[derive(Debug, Clone)]
pub struct GaspiConfig {
    /// Number of GASPI processes (ranks) in the job.
    pub num_ranks: u32,
    /// Ranks per simulated node (the paper uses 1).
    pub ranks_per_node: u32,
    /// Interconnect latency model.
    pub model: LatencyModel,
    /// Seed for transport jitter and anything else stochastic.
    pub seed: u64,
}

/// Number of application communication queues (the GPI-2 default).
/// Service traffic (pings, kills, collectives, passive) uses internal
/// queues above this range.
pub const APP_QUEUES: u16 = 8;
/// Notification slots per segment.
pub(crate) const NOTIFICATION_SLOTS: u32 = 1024;
/// First internal queue id (service traffic).
pub(crate) const SERVICE_QUEUE: u16 = APP_QUEUES;
/// Internal queue for collective tokens.
pub(crate) const COLL_QUEUE: u16 = APP_QUEUES + 1;
/// Internal queue for passive messages.
pub(crate) const PASSIVE_QUEUE: u16 = APP_QUEUES + 2;

impl GaspiConfig {
    /// A world with `num_ranks` ranks, one per node, default everything.
    pub fn new(num_ranks: u32) -> Self {
        Self {
            num_ranks,
            ranks_per_node: 1,
            model: LatencyModel::default_sim(),
            seed: 0x5EED_CA5C_ADE5,
        }
    }

    /// Deterministic latencies (no jitter) — for tests.
    pub fn deterministic(num_ranks: u32) -> Self {
        Self { model: LatencyModel::deterministic_fast(), ..Self::new(num_ranks) }
    }

    /// Set ranks per node.
    pub fn with_ranks_per_node(mut self, rpn: u32) -> Self {
        self.ranks_per_node = rpn;
        self
    }

    /// Set the latency model.
    pub fn with_model(mut self, model: LatencyModel) -> Self {
        self.model = model;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The rank→node placement implied by this config.
    pub fn topology(&self) -> Topology {
        Topology::new(self.num_ranks, self.ranks_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = GaspiConfig::new(8).with_ranks_per_node(2).with_seed(7);
        assert_eq!(c.num_ranks, 8);
        assert_eq!(c.ranks_per_node, 2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.topology().num_nodes(), 4);
    }

    #[test]
    fn internal_queues_above_app_queues() {
        let internal = [SERVICE_QUEUE, COLL_QUEUE, PASSIVE_QUEUE];
        for (i, q) in internal.iter().enumerate() {
            assert!(*q >= APP_QUEUES, "internal queue {q} is an application queue");
            assert!(!internal[..i].contains(q), "internal queue {q} is used twice");
        }
    }
}
