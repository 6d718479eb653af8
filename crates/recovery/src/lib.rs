//! # brainsim-recovery
//!
//! The self-healing runtime: closes the defect-tolerance loop at run
//! time. The TrueNorth paper treats defective cores as a compile-time
//! yield problem (place around a defect map); this crate turns the same
//! machinery into graceful *recovery* — detect a core going bad from
//! telemetry alone, re-place the logical network around it, and hot-
//! migrate the running chip's state onto the repaired layout without
//! losing a tick.
//!
//! ## The loop
//!
//! 1. **Detect** — [`HealthMonitor`] consumes the chip's per-tick
//!    [`brainsim_telemetry::TickRecord`] stream (no oracle access to the
//!    fault plan) and condemns cells via four symptomatic detectors —
//!    silent-core, stuck-firing, backlog-growth and chip-level link-loss
//!    — each with hysteresis so transient blips don't trigger remaps.
//! 2. **Replan** — [`brainsim_compiler::repair`] re-enters placement with
//!    the condemned cells appended to the defective set, keeps every
//!    healthy core where it is, and diffs old-vs-new into a minimal
//!    migration set.
//! 3. **Migrate** — [`hot_migrate`] checkpoints the chip, grafts each
//!    migrated core's dynamic state (potentials, scheduler ring, LFSR,
//!    statistics) onto its new cell, re-arms the retained fault plan, and
//!    resumes via the validating [`brainsim_chip::Chip::restore`] path.
//!
//! [`SelfHealingRunner`] drives the loop per tick with a typed
//! [`RecoveryError`] ladder and a last-resort degrade-in-place fallback:
//! recovery can never crash the run. Its retry schedule is a
//! [`brainsim_snapshot::RecoveryEpisode`] on the policy's
//! [`BackoffLadder`], bounded and capped-exponential, measured in ticks so
//! behaviour is deterministic. The serving fleet drives the same episode
//! type in rounds, so both supervisors share one ladder. On a healthy chip
//! the whole loop is a proven no-op.
//!
//! Determinism carries through recovery: given the same fault schedule
//! and stimulus, the detect → replan → migrate sequence is bit-identical
//! across thread counts (`tests/recovery.rs` proves it
//! differentially).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;
mod migrate;
mod monitor;
mod runner;

pub use error::RecoveryError;
pub use migrate::hot_migrate;
pub use monitor::{DetectorConfig, HealthMonitor, HealthReport};
pub use runner::{RecoveryEvent, RecoveryPolicy, RecoveryStats, SelfHealingRunner};

// The ladder `RecoveryPolicy` is built from, re-exported so recovering
// callers need only this crate.
pub use brainsim_snapshot::BackoffLadder;
