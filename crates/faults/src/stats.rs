//! Counters for every fault injected or absorbed during a run.

/// Per-layer fault accounting, merged upward into core, NoC and chip
/// statistics.
///
/// Structural counters (`cores_dropped`, `neurons_dead`, …) count *sites*
/// disabled at apply time; event counters (`spikes_suppressed`,
/// `packets_dropped`, …) count per-tick occurrences.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Cores disabled outright by the plan.
    pub cores_dropped: u64,
    /// Neurons configured to never fire.
    pub neurons_dead: u64,
    /// Neurons configured to fire every tick.
    pub neurons_stuck_firing: u64,
    /// Crossbar cells forced to 0.
    pub synapses_stuck_zero: u64,
    /// Crossbar cells forced to 1.
    pub synapses_stuck_one: u64,
    /// Spikes a dead neuron (or dropped core) would have fired.
    pub spikes_suppressed: u64,
    /// Spikes forced by stuck-firing neurons.
    pub spikes_forced: u64,
    /// Spike deliveries / packets dropped in transit.
    pub packets_dropped: u64,
    /// Deliveries whose destination was corrupted en route.
    pub packets_corrupted: u64,
    /// Deliveries delayed by the plan's delay fault.
    pub packets_delayed: u64,
    /// Flits discarded because a fault-delayed queue overflowed.
    pub flits_dropped_overflow: u64,
    /// Deliveries that failed at the destination and were absorbed
    /// (counted, not panicked) under degraded operation.
    pub deliveries_failed: u64,
}

impl FaultStats {
    /// Accumulates another statistics block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.cores_dropped += other.cores_dropped;
        self.neurons_dead += other.neurons_dead;
        self.neurons_stuck_firing += other.neurons_stuck_firing;
        self.synapses_stuck_zero += other.synapses_stuck_zero;
        self.synapses_stuck_one += other.synapses_stuck_one;
        self.spikes_suppressed += other.spikes_suppressed;
        self.spikes_forced += other.spikes_forced;
        self.packets_dropped += other.packets_dropped;
        self.packets_corrupted += other.packets_corrupted;
        self.packets_delayed += other.packets_delayed;
        self.flits_dropped_overflow += other.flits_dropped_overflow;
        self.deliveries_failed += other.deliveries_failed;
    }

    /// Total number of fault events recorded (structural sites plus
    /// per-event occurrences).
    pub fn total(&self) -> u64 {
        self.cores_dropped
            + self.neurons_dead
            + self.neurons_stuck_firing
            + self.synapses_stuck_zero
            + self.synapses_stuck_one
            + self.spikes_suppressed
            + self.spikes_forced
            + self.packets_dropped
            + self.packets_corrupted
            + self.packets_delayed
            + self.flits_dropped_overflow
            + self.deliveries_failed
    }

    /// True when no fault of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Field-wise saturating difference `self − other`: each counter clamps
    /// at zero instead of wrapping.
    ///
    /// This is the inverse of [`FaultStats::merge`] for well-formed inputs
    /// and the tool the recovery engine uses to re-base a migrated core's
    /// cumulative fault accounting: subtract the structural burn of the
    /// condemned cell, then merge the structural burn of the replacement
    /// cell. Saturation (rather than a panic or wrap) keeps the operation
    /// total even over inconsistent snapshots.
    pub fn saturating_sub(&self, other: &FaultStats) -> FaultStats {
        FaultStats {
            cores_dropped: self.cores_dropped.saturating_sub(other.cores_dropped),
            neurons_dead: self.neurons_dead.saturating_sub(other.neurons_dead),
            neurons_stuck_firing: self
                .neurons_stuck_firing
                .saturating_sub(other.neurons_stuck_firing),
            synapses_stuck_zero: self
                .synapses_stuck_zero
                .saturating_sub(other.synapses_stuck_zero),
            synapses_stuck_one: self
                .synapses_stuck_one
                .saturating_sub(other.synapses_stuck_one),
            spikes_suppressed: self
                .spikes_suppressed
                .saturating_sub(other.spikes_suppressed),
            spikes_forced: self.spikes_forced.saturating_sub(other.spikes_forced),
            packets_dropped: self.packets_dropped.saturating_sub(other.packets_dropped),
            packets_corrupted: self
                .packets_corrupted
                .saturating_sub(other.packets_corrupted),
            packets_delayed: self.packets_delayed.saturating_sub(other.packets_delayed),
            flits_dropped_overflow: self
                .flits_dropped_overflow
                .saturating_sub(other.flits_dropped_overflow),
            deliveries_failed: self
                .deliveries_failed
                .saturating_sub(other.deliveries_failed),
        }
    }

    /// Folds a batch of per-shard statistics blocks into one.
    ///
    /// Every counter is a plain sum, so the merge is order-independent —
    /// the property the chip's parallel routing pipeline relies on when it
    /// combines the `FaultStats` produced by concurrently routed spike
    /// shards into a deterministic per-tick total.
    pub fn merge_all<'a, I>(blocks: I) -> FaultStats
    where
        I: IntoIterator<Item = &'a FaultStats>,
    {
        let mut total = FaultStats::default();
        for block in blocks {
            total.merge(block);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_empty() {
        assert!(FaultStats::default().is_empty());
        assert_eq!(FaultStats::default().total(), 0);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let mut a = FaultStats {
            neurons_dead: 2,
            packets_dropped: 5,
            ..FaultStats::default()
        };
        let b = FaultStats {
            neurons_dead: 1,
            spikes_forced: 7,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.neurons_dead, 3);
        assert_eq!(a.packets_dropped, 5);
        assert_eq!(a.spikes_forced, 7);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn saturating_sub_inverts_merge_and_clamps() {
        let base = FaultStats {
            neurons_dead: 4,
            synapses_stuck_one: 2,
            ..FaultStats::default()
        };
        let mut merged = base;
        let delta = FaultStats {
            neurons_dead: 1,
            packets_dropped: 3,
            ..FaultStats::default()
        };
        merged.merge(&delta);
        assert_eq!(merged.saturating_sub(&delta), base);
        // Over-subtraction clamps at zero instead of wrapping.
        let over = FaultStats {
            neurons_dead: 100,
            ..FaultStats::default()
        };
        assert_eq!(base.saturating_sub(&over).neurons_dead, 0);
        assert_eq!(base.saturating_sub(&over).synapses_stuck_one, 2);
    }

    #[test]
    fn merge_all_is_order_independent() {
        let blocks = [
            FaultStats {
                packets_dropped: 1,
                ..FaultStats::default()
            },
            FaultStats {
                packets_corrupted: 2,
                deliveries_failed: 1,
                ..FaultStats::default()
            },
            FaultStats {
                packets_delayed: 4,
                ..FaultStats::default()
            },
        ];
        let forward = FaultStats::merge_all(&blocks);
        let reverse = FaultStats::merge_all(blocks.iter().rev());
        assert_eq!(forward, reverse);
        assert_eq!(forward.total(), 8);
        assert_eq!(
            FaultStats::merge_all(std::iter::empty()),
            FaultStats::default()
        );
    }
}
