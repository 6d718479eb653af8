//! # brainsim-serve
//!
//! A supervised multi-tenant serving runtime for the simulator: N tenant
//! sessions — each an independently owned [`brainsim_chip::Chip`] —
//! multiplexed over M worker threads in discrete scheduling rounds, under
//! one supervisor enforcing admission control, deadline budgets,
//! fleet-wide backpressure, and crash-isolated recovery.
//!
//! The paper's chip multiplexes thousands of neurons onto shared
//! silicon under a hard real-time tick; this crate reproduces that
//! discipline one level up, where the *simulator* is the shared silicon
//! and tenants are the workloads:
//!
//! * **Admission** — [`Fleet::admit`] caps live tenants, validates names
//!   (they become on-disk state directories), and writes a genesis
//!   checkpoint so every session has a recovery floor from tick 0.
//! * **Backpressure** — each tenant submits [`InjectCmd`]s into a
//!   bounded queue ([`SubmitError::QueueFull`]); a fleet-wide backlog
//!   watermark sheds load with hysteresis
//!   ([`SubmitError::Overloaded`]). Refusal is always typed — clients
//!   are told *why* and what to wait for.
//! * **Deadlines** — every driven tick is metered against a
//!   [`BudgetMeter`]. The deterministic cost meter
//!   (`cores_evaluated + spikes`, both invariant across thread counts)
//!   makes demotion → quarantine decisions bit-identical on every host;
//!   the wall-clock meter serves production. Hysteresis streaks guard
//!   every lane move.
//! * **Crash isolation** — a core panic inside one tenant's chip is
//!   contained by [`brainsim_chip::Chip::try_tick`], journaled, and
//!   healed by restoring the newest verifying BSNP checkpoint (walking
//!   past corrupt files) and replaying the session's logged injections,
//!   under a capped-exponential [`BackoffLadder`].
//!   Other tenants never miss a tick and stay bit-identical to solo
//!   runs; a ladder that exhausts yields a typed, terminal
//!   [`SessionState::Failed`].
//! * **Metering** — per-tenant [`SessionMetrics`] plus the chip's own
//!   [`brainsim_telemetry::RunSummary`] are exported in a
//!   [`TenantReport`] on eviction and shutdown.
//!
//! Determinism is the load-bearing property, inherited from the chip and
//! preserved by construction: the coordinator plans each round in slot
//! order, workers drive disjoint sessions, and outcomes are re-sorted by
//! slot before any supervision decision is applied — so the full event
//! journal is invariant across `workers ∈ {1, 2, 8, …}`.
//! `tests/serve.rs` proves it differentially, under chaos.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod error;
mod fleet;
mod session;

pub use config::{BudgetMeter, DeadlinePolicy, ServeConfig};
pub use error::{AdmitError, SubmitError};
pub use fleet::{Fleet, FleetEvent, RoundReport, SessionView, TenantReport};
pub use session::{InjectCmd, Lane, SessionFailure, SessionMetrics, SessionState};

// The ladder vocabulary the config speaks, re-exported so serving
// callers need only this crate.
pub use brainsim_chip::BackoffLadder;
