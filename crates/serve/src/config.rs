//! Fleet sizing, per-round tick plans, deadline policy, recovery ladder,
//! and checkpoint cadence.

use brainsim_chip::{BackoffLadder, RetryPolicy};

/// The per-tick execution budget a session is held to.
///
/// Two meters are offered because deadline enforcement has two masters:
/// production wants wall time, tests and capacity planning want
/// reproducibility. The cost-unit meter charges
/// `cores_evaluated + spikes` per tick — both deterministic functions of
/// the workload (invariant across thread counts) — so a
/// fleet metered in cost units makes bit-identical demotion, quarantine
/// and shed decisions on every host, which is how `tests/serve.rs` pins
/// the policy differentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetMeter {
    /// No deadline: a tick can never miss.
    Unlimited,
    /// Wall-clock nanoseconds per tick (production meter; host-dependent,
    /// so decisions driven by it are not reproducible across machines).
    WallNanosPerTick(u64),
    /// Deterministic work units per tick: a tick costs
    /// `cores_evaluated + spikes` from its
    /// [`brainsim_chip::TickSummary`].
    CostUnitsPerTick(u64),
}

impl BudgetMeter {
    /// Did a tick that cost `cost_units` / `wall_nanos` blow the budget?
    pub fn exceeded(&self, cost_units: u64, wall_nanos: u64) -> bool {
        match *self {
            BudgetMeter::Unlimited => false,
            BudgetMeter::WallNanosPerTick(limit) => wall_nanos > limit,
            BudgetMeter::CostUnitsPerTick(limit) => cost_units > limit,
        }
    }
}

/// How deadline misses demote, promote, and quarantine a session.
///
/// All thresholds count *consecutive* rounds (hysteresis): one slow round
/// never demotes, one fast round never promotes, so lane assignments don't
/// flap on transient load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// The per-tick budget every driven tick is checked against.
    pub budget: BudgetMeter,
    /// Consecutive missed rounds before a healthy session is demoted to
    /// the degraded lane.
    pub demote_after: u32,
    /// Consecutive clean rounds before a degraded session is promoted
    /// back to the healthy lane.
    pub promote_after: u32,
    /// Consecutive missed rounds, *while already degraded*, before the
    /// session is quarantined (not ticked at all).
    pub quarantine_after: u32,
    /// Rounds a quarantined session sits out before re-entering the
    /// degraded lane on probation.
    pub quarantine_rounds: u64,
}

impl Default for DeadlinePolicy {
    /// No budget (never misses); demote after 2, promote after 4,
    /// quarantine after 3 further misses for 16 rounds.
    fn default() -> Self {
        DeadlinePolicy {
            budget: BudgetMeter::Unlimited,
            demote_after: 2,
            promote_after: 4,
            quarantine_after: 3,
            quarantine_rounds: 16,
        }
    }
}

/// Complete serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads driving sessions each round (clamped to ≥ 1; also
    /// clamped to the number of driveable sessions). Scheduling decisions
    /// are bit-identical at any worker count.
    pub workers: usize,
    /// Admission cap: concurrent tenants the fleet will hold.
    pub max_tenants: usize,
    /// Bounded depth of each tenant's inject queue; a submit beyond it is
    /// refused with `SubmitError::QueueFull`.
    pub queue_capacity: usize,
    /// Ticks a healthy-lane session is driven per round.
    pub ticks_per_round: u64,
    /// Ticks a degraded-lane session is driven per round (the demoted
    /// service rate; must be < `ticks_per_round` to mean anything).
    pub degraded_ticks_per_round: u64,
    /// Fleet-wide queued-injection count at which shedding starts: all
    /// further submits are refused with `SubmitError::Overloaded`.
    pub shed_high_watermark: usize,
    /// Backlog at or below which shedding stops (hysteresis: strictly
    /// less than the high watermark, or shedding flaps per submit).
    pub shed_low_watermark: usize,
    /// Deadline enforcement policy.
    pub deadline: DeadlinePolicy,
    /// Crash-recovery retry ladder, measured in rounds.
    pub recovery: BackoffLadder,
    /// Ticks between per-tenant checkpoints.
    pub checkpoint_every: u64,
    /// Checkpoint files retained per tenant (≥ 2 buys corruption
    /// fallback).
    pub checkpoint_keep: usize,
    /// Retry budget for each checkpoint write.
    pub checkpoint_retry: RetryPolicy,
}

impl Default for ServeConfig {
    /// 2 workers, 64 tenants, 256-deep queues, 8 ticks per round (1 when
    /// degraded), shed at 1024 / resume at 512 queued injections, default
    /// deadline policy, 4 recovery attempts backing off 2→16 rounds,
    /// checkpoint every 50 ticks keeping 3.
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_tenants: 64,
            queue_capacity: 256,
            ticks_per_round: 8,
            degraded_ticks_per_round: 1,
            shed_high_watermark: 1024,
            shed_low_watermark: 512,
            deadline: DeadlinePolicy::default(),
            recovery: BackoffLadder::new(2, 16, 4),
            checkpoint_every: 50,
            checkpoint_keep: 3,
            checkpoint_retry: RetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_meters() {
        assert!(!BudgetMeter::Unlimited.exceeded(u64::MAX, u64::MAX));
        let wall = BudgetMeter::WallNanosPerTick(100);
        assert!(!wall.exceeded(u64::MAX, 100));
        assert!(wall.exceeded(0, 101));
        let cost = BudgetMeter::CostUnitsPerTick(60);
        assert!(!cost.exceeded(60, u64::MAX));
        assert!(cost.exceeded(61, 0));
    }
}
