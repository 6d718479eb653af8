//! Fault-plan description: which defect classes, at what rates.

/// What a router does when a delayed flit would overflow its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Discard the newly arriving flit (the default; matches a full FIFO
    /// refusing writes).
    #[default]
    DropNewest,
    /// Discard the oldest queued flit to make room for the new one.
    DropOldest,
}

/// A seeded, declarative description of the defects to inject.
///
/// All rates are probabilities in `[0, 1]`; values outside that range are
/// clamped at injector-build time. A plan is inert data — build a
/// [`crate::FaultInjector`] from it to make decisions.
///
/// Structural rates (`core_dropout`, `dead_neuron`, `stuck_neuron`,
/// `synapse_stuck_zero`, `synapse_stuck_one`) are per-*site*: each core /
/// neuron / crossbar cell is faulty or healthy for the whole run.
/// Transport rates (`link_drop`, `link_corrupt`, `link_delay`) are
/// per-*event*: each spike delivery or flit hop rolls independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// Fraction of cores that are entirely dead (never evaluate, never
    /// emit or accept spikes).
    pub core_dropout: f64,
    /// Fraction of neurons that never fire.
    pub dead_neuron: f64,
    /// Fraction of neurons that fire every tick regardless of input.
    pub stuck_neuron: f64,
    /// Fraction of crossbar cells stuck at 0 (connection severed).
    pub synapse_stuck_zero: f64,
    /// Fraction of crossbar cells stuck at 1 (connection shorted).
    pub synapse_stuck_one: f64,
    /// Probability a spike/flit is silently dropped in transit.
    pub link_drop: f64,
    /// Probability a spike/flit has its destination corrupted to a
    /// deterministic pseudo-random on-chip core.
    pub link_corrupt: f64,
    /// Probability a spike/flit is delayed by [`FaultPlan::link_delay_ticks`].
    pub link_delay: f64,
    /// How many ticks (chip) or cycles (NoC) a delayed delivery loses.
    pub link_delay_ticks: u8,
    /// What routers do when fault-delayed flits overflow their buffers.
    pub overflow_policy: OverflowPolicy,
}

impl FaultPlan {
    /// A benign plan (all rates zero) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            core_dropout: 0.0,
            dead_neuron: 0.0,
            stuck_neuron: 0.0,
            synapse_stuck_zero: 0.0,
            synapse_stuck_one: 0.0,
            link_drop: 0.0,
            link_corrupt: 0.0,
            link_delay: 0.0,
            link_delay_ticks: 1,
            overflow_policy: OverflowPolicy::default(),
        }
    }

    /// A plan applying one uniform `rate` to the classic yield-defect
    /// knobs: dead neurons, stuck-at-0 synapses, and link drops.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_dead_neuron(rate)
            .with_synapse_stuck_zero(rate)
            .with_link_drop(rate)
    }

    /// Sets the whole-core dropout rate.
    pub fn with_core_dropout(mut self, rate: f64) -> FaultPlan {
        self.core_dropout = rate;
        self
    }

    /// Sets the dead-neuron rate.
    pub fn with_dead_neuron(mut self, rate: f64) -> FaultPlan {
        self.dead_neuron = rate;
        self
    }

    /// Sets the stuck-firing-neuron rate.
    pub fn with_stuck_neuron(mut self, rate: f64) -> FaultPlan {
        self.stuck_neuron = rate;
        self
    }

    /// Sets the stuck-at-0 synapse rate.
    pub fn with_synapse_stuck_zero(mut self, rate: f64) -> FaultPlan {
        self.synapse_stuck_zero = rate;
        self
    }

    /// Sets the stuck-at-1 synapse rate.
    pub fn with_synapse_stuck_one(mut self, rate: f64) -> FaultPlan {
        self.synapse_stuck_one = rate;
        self
    }

    /// Sets the in-transit drop rate.
    pub fn with_link_drop(mut self, rate: f64) -> FaultPlan {
        self.link_drop = rate;
        self
    }

    /// Sets the destination-corruption rate.
    pub fn with_link_corrupt(mut self, rate: f64) -> FaultPlan {
        self.link_corrupt = rate;
        self
    }

    /// Sets the delay rate and magnitude.
    pub fn with_link_delay(mut self, rate: f64, ticks: u8) -> FaultPlan {
        self.link_delay = rate;
        self.link_delay_ticks = ticks;
        self
    }

    /// Sets the router buffer-overflow policy.
    pub fn with_overflow_policy(mut self, policy: OverflowPolicy) -> FaultPlan {
        self.overflow_policy = policy;
        self
    }

    /// True when every rate is zero: the plan can inject nothing.
    pub fn is_benign(&self) -> bool {
        self.core_dropout <= 0.0
            && self.dead_neuron <= 0.0
            && self.stuck_neuron <= 0.0
            && self.synapse_stuck_zero <= 0.0
            && self.synapse_stuck_one <= 0.0
            && self.link_drop <= 0.0
            && self.link_corrupt <= 0.0
            && self.link_delay <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_plan_is_benign() {
        assert!(FaultPlan::new(123).is_benign());
    }

    #[test]
    fn any_rate_breaks_benignity() {
        assert!(!FaultPlan::new(0).with_link_drop(0.01).is_benign());
        assert!(!FaultPlan::new(0).with_core_dropout(1.0).is_benign());
        assert!(!FaultPlan::uniform(0, 0.1).is_benign());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::new(9)
            .with_dead_neuron(0.1)
            .with_link_delay(0.2, 3)
            .with_overflow_policy(OverflowPolicy::DropOldest);
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.dead_neuron, 0.1);
        assert_eq!(plan.link_delay, 0.2);
        assert_eq!(plan.link_delay_ticks, 3);
        assert_eq!(plan.overflow_policy, OverflowPolicy::DropOldest);
    }
}
