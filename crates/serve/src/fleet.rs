//! The fleet supervisor: admission, round scheduling over a worker pool,
//! deadline enforcement, shed-load, and crash-isolated recovery.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use brainsim_chip::{run_shards, CheckpointPolicy, Chip, SaveError, Snapshot, TelemetryConfig};
use brainsim_telemetry::RunSummary;

use crate::config::{BudgetMeter, ServeConfig};
use crate::error::{AdmitError, SubmitError};
use crate::session::{
    DriveOutcome, InjectCmd, Lane, Mode, RoundPlan, Session, SessionFailure, SessionMetrics,
    SessionState,
};

/// One supervision decision, in the order the fleet made it. Events are
/// a deterministic function of the workload under a deterministic
/// [`BudgetMeter`]: the same admits + submits produce the same event
/// stream at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// A tenant was admitted (`resumed_from` carries the checkpoint tick
    /// when the session was restored from disk).
    Admitted {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// Checkpoint tick the session resumed from, if any.
        resumed_from: Option<u64>,
    },
    /// A tenant was evicted and its report exported.
    Evicted {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
    },
    /// Healthy → degraded lane after consecutive deadline misses.
    Demoted {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
    },
    /// Degraded → healthy lane after consecutive clean rounds.
    Promoted {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
    },
    /// Degraded and still missing: the session sits out.
    Quarantined {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// First round at which the session re-enters service.
        until_round: u64,
    },
    /// Quarantine expired; back to the degraded lane on probation.
    Unquarantined {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
    },
    /// A core panic was contained; the session enters recovery.
    SessionPanicked {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// Chip tick at which the panic surfaced.
        tick: u64,
        /// Rendered panic message.
        message: String,
    },
    /// A corrupt or unreadable checkpoint was skipped during a restore.
    CorruptCheckpointSkipped {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// Tick encoded in the skipped file's name.
        tick: u64,
        /// Rendered [`brainsim_chip::SnapshotIoError`].
        error: String,
    },
    /// One recovery attempt failed; the ladder scheduled another.
    RecoveryAttemptFailed {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Rendered reason.
        reason: String,
        /// Round of the next attempt.
        retry_round: u64,
    },
    /// The session was restored from a checkpoint and its logged
    /// injections replayed.
    Recovered {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// Checkpoint tick restored from.
        from_tick: u64,
        /// Logged injections re-queued for replay.
        replayed: u64,
        /// Corrupt checkpoints skipped on the way to the winner.
        corrupt_skipped: u64,
    },
    /// The recovery ladder is exhausted: the session is terminally dead.
    SessionFailed {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// The terminal failure record.
        failure: SessionFailure,
    },
    /// A checkpoint write exhausted its retry budget (the session lives
    /// on; its recovery floor just didn't advance).
    CheckpointFailed {
        /// Round of the decision.
        round: u64,
        /// The tenant.
        tenant: String,
        /// Chip tick of the attempted checkpoint.
        tick: u64,
        /// Rendered [`SaveError`].
        error: String,
    },
    /// The fleet backlog crossed the high watermark: submits are refused
    /// until it drains.
    SheddingStarted {
        /// Round of the decision.
        round: u64,
        /// Fleet-wide queued injections at the crossing.
        backlog: usize,
    },
    /// The backlog drained to the low watermark: submits resume.
    SheddingStopped {
        /// Round of the decision.
        round: u64,
        /// Fleet-wide queued injections at the crossing.
        backlog: usize,
    },
}

/// A read-only view of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionView {
    /// The tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: SessionState,
    /// Chip ticks completed.
    pub ticks: u64,
    /// Running FNV-1a checksum over `(tick, outputs)`.
    pub checksum: u64,
    /// Currently queued injections.
    pub queue_len: usize,
    /// Cumulative counters.
    pub metrics: SessionMetrics,
}

/// The exported record of a tenant leaving the fleet (eviction or
/// shutdown): final state, observable checksum, metering, and — when the
/// chip carried telemetry — its [`RunSummary`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: String,
    /// Lifecycle state at export.
    pub state: SessionState,
    /// Chip ticks completed.
    pub ticks: u64,
    /// Final FNV-1a checksum over `(tick, outputs)`.
    pub checksum: u64,
    /// Cumulative counters.
    pub metrics: SessionMetrics,
    /// The chip's run-level telemetry summary, if telemetry was enabled.
    pub summary: Option<RunSummary>,
}

/// What one [`Fleet::run_round`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// The round that ran (pre-increment).
    pub round: u64,
    /// Sessions driven this round.
    pub driven: usize,
    /// Ticks completed across all driven sessions.
    pub ticks: u64,
    /// Core panics contained this round.
    pub panics: usize,
    /// Fleet-wide queued injections after the round.
    pub backlog: usize,
    /// Whether shed-load is active after the round.
    pub shedding: bool,
}

/// The multi-tenant serving runtime: N tenant sessions multiplexed over
/// M worker threads in discrete rounds, under one supervisor enforcing
/// admission, deadlines, backpressure, and crash isolation. See the
/// crate docs for the full model.
pub struct Fleet {
    config: ServeConfig,
    state_dir: PathBuf,
    /// Slot-indexed sessions; slots are never reused, so a slot index
    /// identifies one tenant for the fleet's whole life.
    sessions: Vec<Option<Session>>,
    index: HashMap<String, usize>,
    round: u64,
    queued_total: usize,
    shedding: bool,
    shutting_down: bool,
    events: Vec<FleetEvent>,
}

/// `true` when `name` is usable as a tenant id and an on-disk directory
/// name: 1..=64 chars from `[A-Za-z0-9_-]`.
fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Decodes the checksum a checkpoint's application section carries;
/// a missing/foreign section reads as the FNV offset basis (fresh).
fn checksum_from_app(app: &[u8]) -> u64 {
    <[u8; 8]>::try_from(app)
        .map(u64::from_le_bytes)
        .unwrap_or(0xCBF2_9CE4_8422_2325)
}

impl Fleet {
    /// An empty fleet persisting per-tenant checkpoints under
    /// `state_dir/<tenant>/`.
    pub fn new(config: ServeConfig, state_dir: impl Into<PathBuf>) -> Fleet {
        Fleet {
            config,
            state_dir: state_dir.into(),
            sessions: Vec::new(),
            index: HashMap::new(),
            round: 0,
            queued_total: 0,
            shedding: false,
            shutting_down: false,
            events: Vec::new(),
        }
    }

    /// The scheduling round counter (rounds completed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Live tenant names, in admission (slot) order.
    pub fn tenants(&self) -> Vec<String> {
        self.sessions
            .iter()
            .flatten()
            .map(|s| s.tenant.clone())
            .collect()
    }

    /// Fleet-wide queued injections.
    pub fn backlog(&self) -> usize {
        self.queued_total
    }

    /// Whether shed-load is currently refusing submits.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// Drains and returns the supervision journal accumulated since the
    /// last call, oldest first.
    pub fn drain_events(&mut self) -> Vec<FleetEvent> {
        std::mem::take(&mut self.events)
    }

    fn tenant_dir(&self, tenant: &str) -> PathBuf {
        self.state_dir.join(tenant)
    }

    /// Admits `tenant` running `chip`. Enables run-level telemetry on the
    /// chip (counters only) if none is configured, and writes the genesis
    /// checkpoint — the floor every later recovery can fall back to.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] — invalid/duplicate name, fleet full, shutting
    /// down, or an unwritable genesis checkpoint.
    pub fn admit(&mut self, tenant: &str, chip: Chip) -> Result<(), AdmitError> {
        self.admit_inner(tenant, chip, None)
    }

    /// [`Fleet::admit`], but first tries to restore the tenant's newest
    /// verifying checkpoint from its state directory; `fallback_chip` is
    /// used only when no checkpoint verifies. Corrupt checkpoints skipped
    /// on the way are metered and journaled exactly as during crash
    /// recovery.
    ///
    /// # Errors
    ///
    /// As for [`Fleet::admit`].
    pub fn resume(&mut self, tenant: &str, fallback_chip: Chip) -> Result<(), AdmitError> {
        if !valid_tenant(tenant) {
            return Err(AdmitError::InvalidTenant(tenant.to_string()));
        }
        let dir = self.tenant_dir(tenant);
        let (skips, restored) = restore_from_dir(&dir);
        let round = self.round;
        let mut skip_events = Vec::new();
        let mut skipped = 0u64;
        for skip in &skips {
            skipped += 1;
            skip_events.push(FleetEvent::CorruptCheckpointSkipped {
                round,
                tenant: tenant.to_string(),
                tick: skip.tick,
                error: skip.error.to_string(),
            });
        }
        let (chip, checksum, resumed_from) = match restored {
            Ok((tick, chip, checksum)) => (chip, Some(checksum), Some(tick)),
            Err(_) => (fallback_chip, None, None),
        };
        let result = self.admit_inner(tenant, chip, resumed_from);
        if result.is_ok() {
            self.events.extend(skip_events);
            if let Some(slot) = self.index.get(tenant).copied() {
                if let Some(session) = self.sessions[slot].as_mut() {
                    session.metrics.corrupt_checkpoints_skipped += skipped;
                    if let Some(checksum) = checksum {
                        session.checksum = checksum;
                    }
                    if let Some(tick) = resumed_from {
                        session.last_checkpoint_tick = tick;
                        // Resuming re-enters service on probation.
                        session.lane = Lane::Degraded;
                    }
                }
            }
        }
        result
    }

    fn admit_inner(
        &mut self,
        tenant: &str,
        mut chip: Chip,
        resumed_from: Option<u64>,
    ) -> Result<(), AdmitError> {
        if self.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        if !valid_tenant(tenant) {
            return Err(AdmitError::InvalidTenant(tenant.to_string()));
        }
        if self.index.contains_key(tenant) {
            return Err(AdmitError::DuplicateTenant(tenant.to_string()));
        }
        if self.index.len() >= self.config.max_tenants {
            return Err(AdmitError::FleetFull {
                max_tenants: self.config.max_tenants,
            });
        }
        if chip.telemetry().is_none() {
            chip.enable_telemetry(TelemetryConfig::counters_only(1));
        }
        let mut session = Session::new(tenant.to_string(), chip);
        if resumed_from.is_none() {
            // The genesis checkpoint: without it a crash before the first
            // cadence checkpoint would have nothing to restore.
            write_checkpoint(&self.config, &self.tenant_dir(tenant), &mut session)?;
        }
        let slot = self.sessions.len();
        self.sessions.push(Some(session));
        self.index.insert(tenant.to_string(), slot);
        self.events.push(FleetEvent::Admitted {
            round: self.round,
            tenant: tenant.to_string(),
            resumed_from,
        });
        Ok(())
    }

    /// Queues one word injection for `tenant`, subject to backpressure.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — unknown tenant, quarantined or failed session,
    /// fleet-wide shed-load, or a full per-tenant queue.
    pub fn submit(&mut self, tenant: &str, cmd: InjectCmd) -> Result<(), SubmitError> {
        if self.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        let Some(&slot) = self.index.get(tenant) else {
            return Err(SubmitError::TenantUnknown(tenant.to_string()));
        };
        if self.shedding {
            return Err(SubmitError::Overloaded {
                backlog: self.queued_total,
                watermark: self.config.shed_low_watermark,
            });
        }
        let capacity = self.config.queue_capacity;
        let high = self.config.shed_high_watermark;
        let Some(session) = self.sessions[slot].as_mut() else {
            return Err(SubmitError::TenantUnknown(tenant.to_string()));
        };
        match &session.mode {
            Mode::Failed(_) => return Err(SubmitError::SessionFailed),
            Mode::Quarantined { until_round } => {
                return Err(SubmitError::Quarantined {
                    until_round: *until_round,
                })
            }
            Mode::Live | Mode::Recovering { .. } => {}
        }
        if session.queue.len() >= capacity {
            return Err(SubmitError::QueueFull { capacity });
        }
        session.enqueue(cmd);
        self.queued_total += 1;
        if !self.shedding && self.queued_total >= high {
            self.shedding = true;
            self.events.push(FleetEvent::SheddingStarted {
                round: self.round,
                backlog: self.queued_total,
            });
        }
        Ok(())
    }

    /// A read-only view of `tenant`'s session.
    pub fn session(&self, tenant: &str) -> Option<SessionView> {
        let slot = *self.index.get(tenant)?;
        let session = self.sessions[slot].as_ref()?;
        Some(SessionView {
            tenant: session.tenant.clone(),
            state: session.state(),
            ticks: session.chip.now(),
            checksum: session.checksum,
            queue_len: session.queue.len(),
            metrics: session.metrics,
        })
    }

    /// Runs one scheduling round: expires quarantines, retries due
    /// recoveries, drives every live session for its lane's tick quota on
    /// the worker pool, applies deadline/panic transitions in slot order,
    /// and takes due checkpoints. Scheduling decisions are bit-identical
    /// at any worker count.
    pub fn run_round(&mut self) -> RoundReport {
        let round = self.round;

        // Phase 1 — lifecycle transitions due this round, in slot order.
        for slot in 0..self.sessions.len() {
            let Some(session) = self.sessions[slot].as_mut() else {
                continue;
            };
            match session.mode.clone() {
                Mode::Quarantined { until_round } if round >= until_round => {
                    session.mode = Mode::Live;
                    session.lane = Lane::Degraded;
                    session.miss_streak = 0;
                    session.clean_streak = 0;
                    let tenant = session.tenant.clone();
                    self.events
                        .push(FleetEvent::Unquarantined { round, tenant });
                }
                Mode::Recovering { next_attempt_round } if round >= next_attempt_round => {
                    self.try_recover(slot);
                }
                _ => {}
            }
        }

        // Phase 2 — plan: which slots tick, and for how long.
        let budget = self.config.deadline.budget;
        let mut work: Vec<(usize, RoundPlan, &mut Session)> = Vec::new();
        for (slot, entry) in self.sessions.iter_mut().enumerate() {
            let Some(session) = entry.as_mut() else {
                continue;
            };
            if !matches!(session.mode, Mode::Live) {
                continue;
            }
            let ticks = match session.lane {
                Lane::Healthy => self.config.ticks_per_round,
                Lane::Degraded => self.config.degraded_ticks_per_round,
            };
            if ticks == 0 {
                continue;
            }
            work.push((slot, RoundPlan { ticks, budget }, session));
        }
        let scheduled: Vec<usize> = work.iter().map(|(slot, _, _)| *slot).collect();

        // Phase 3 — drive: round-robin buckets of disjoint `&mut Session`s
        // through `run_shards` (one bucket runs inline); outcomes are
        // re-sorted by slot so everything downstream is order-independent
        // of worker interleaving.
        let workers = self.config.workers.max(1).min(work.len().max(1));
        let mut buckets: Vec<Vec<(usize, RoundPlan, &mut Session)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in work.into_iter().enumerate() {
            buckets[i % workers].push(item);
        }
        let results = run_shards(buckets, |bucket| {
            bucket
                .into_iter()
                .map(|(slot, plan, session)| (slot, session.drive(&plan)))
                .collect::<Vec<_>>()
        });
        let mut outcomes: Vec<(usize, DriveOutcome)> = Vec::with_capacity(scheduled.len());
        for (b, result) in results.into_iter().enumerate() {
            match result {
                Ok(driven) => outcomes.extend(driven),
                // A panic escaping `Session::drive` took its whole
                // bucket's outcomes with it; every slot of that bucket is
                // treated as panicked so supervision still reaches it.
                Err(_) => outcomes.extend(scheduled.iter().skip(b).step_by(workers).map(|&slot| {
                    let crashed = DriveOutcome {
                        panic: Some("worker thread crashed".to_string()),
                        ..DriveOutcome::default()
                    };
                    (slot, crashed)
                })),
            }
        }
        outcomes.sort_by_key(|(slot, _)| *slot);

        // Phase 4 — apply outcomes in slot order.
        let mut driven = 0usize;
        let mut ticks_total = 0u64;
        let mut panics = 0usize;
        for (slot, outcome) in outcomes {
            driven += 1;
            ticks_total += outcome.ticks_done;
            if let Some(message) = outcome.panic {
                panics += 1;
                let Some(session) = self.sessions[slot].as_mut() else {
                    continue;
                };
                session.metrics.panics += 1;
                session.recovery_attempts = 0;
                session.mode = Mode::Recovering {
                    next_attempt_round: round,
                };
                let tenant = session.tenant.clone();
                let tick = session.chip.now();
                self.events.push(FleetEvent::SessionPanicked {
                    round,
                    tenant,
                    tick,
                    message,
                });
                self.try_recover(slot);
                continue;
            }
            self.apply_deadline(slot, &outcome);
            self.checkpoint_if_due(slot);
        }

        // Phase 5 — recompute backlog; shed-load hysteresis.
        self.queued_total = self
            .sessions
            .iter()
            .flatten()
            .filter(|s| !matches!(s.mode, Mode::Failed(_)))
            .map(|s| s.queue.len())
            .sum();
        if self.shedding && self.queued_total <= self.config.shed_low_watermark {
            self.shedding = false;
            self.events.push(FleetEvent::SheddingStopped {
                round,
                backlog: self.queued_total,
            });
        }
        self.round += 1;
        RoundReport {
            round,
            driven,
            ticks: ticks_total,
            panics,
            backlog: self.queued_total,
            shedding: self.shedding,
        }
    }

    /// Deadline bookkeeping for one driven session: streaks, lane moves,
    /// quarantine.
    fn apply_deadline(&mut self, slot: usize, outcome: &DriveOutcome) {
        let round = self.round;
        let policy = self.config.deadline;
        if matches!(policy.budget, BudgetMeter::Unlimited) || outcome.ticks_done == 0 {
            return;
        }
        let Some(session) = self.sessions[slot].as_mut() else {
            return;
        };
        session.metrics.deadline_misses += outcome.over_budget_ticks;
        let missed = outcome.over_budget_ticks > 0;
        if missed {
            session.miss_streak += 1;
            session.clean_streak = 0;
        } else {
            session.clean_streak += 1;
            session.miss_streak = 0;
        }
        let tenant = session.tenant.clone();
        match session.lane {
            Lane::Healthy if session.miss_streak >= policy.demote_after => {
                session.lane = Lane::Degraded;
                session.miss_streak = 0;
                session.clean_streak = 0;
                session.metrics.demotions += 1;
                self.events.push(FleetEvent::Demoted { round, tenant });
            }
            Lane::Degraded if session.miss_streak >= policy.quarantine_after => {
                let until_round = round + policy.quarantine_rounds.max(1);
                session.mode = Mode::Quarantined { until_round };
                session.miss_streak = 0;
                session.clean_streak = 0;
                session.metrics.quarantines += 1;
                self.events.push(FleetEvent::Quarantined {
                    round,
                    tenant,
                    until_round,
                });
            }
            Lane::Degraded if session.clean_streak >= policy.promote_after => {
                session.lane = Lane::Healthy;
                session.miss_streak = 0;
                session.clean_streak = 0;
                session.metrics.promotions += 1;
                self.events.push(FleetEvent::Promoted { round, tenant });
            }
            _ => {}
        }
    }

    /// Writes a cadence checkpoint when one is due. A failed write is
    /// metered and journaled, not fatal: the session runs on and the next
    /// due tick tries again.
    fn checkpoint_if_due(&mut self, slot: usize) {
        let round = self.round;
        let every = self.config.checkpoint_every.max(1);
        let dir;
        let due;
        {
            let Some(session) = self.sessions[slot].as_ref() else {
                return;
            };
            if !matches!(session.mode, Mode::Live) {
                return;
            }
            due = session
                .chip
                .now()
                .saturating_sub(session.last_checkpoint_tick)
                >= every;
            dir = self.tenant_dir(&session.tenant);
        }
        if !due {
            return;
        }
        let config = self.config.clone();
        let Some(session) = self.sessions[slot].as_mut() else {
            return;
        };
        if let Err(e) = write_checkpoint(&config, &dir, session) {
            session.metrics.checkpoint_failures += 1;
            let tenant = session.tenant.clone();
            let tick = session.chip.now();
            self.events.push(FleetEvent::CheckpointFailed {
                round,
                tenant,
                tick,
                error: e.to_string(),
            });
        }
    }

    /// One recovery attempt for a crashed session: restore the newest
    /// verifying checkpoint, replay logged injections past its tick, and
    /// return to service on probation — or climb the backoff ladder, or
    /// declare the session terminally failed.
    fn try_recover(&mut self, slot: usize) {
        let round = self.round;
        let ladder = self.config.recovery;
        let (dir, tenant) = {
            let Some(session) = self.sessions[slot].as_ref() else {
                return;
            };
            (self.tenant_dir(&session.tenant), session.tenant.clone())
        };
        let (skips, restored) = restore_from_dir(&dir);
        let Some(session) = self.sessions[slot].as_mut() else {
            return;
        };
        session.recovery_attempts += 1;
        let attempts = session.recovery_attempts;
        session.metrics.corrupt_checkpoints_skipped += skips.len() as u64;
        for skip in &skips {
            self.events.push(FleetEvent::CorruptCheckpointSkipped {
                round,
                tenant: tenant.clone(),
                tick: skip.tick,
                error: skip.error.to_string(),
            });
        }
        let Some(session) = self.sessions[slot].as_mut() else {
            return;
        };
        match restored {
            Ok((tick, chip, checksum)) => {
                session.chip = chip;
                session.checksum = checksum;
                session.last_checkpoint_tick = tick;
                // Entries applied after the checkpoint must be re-applied
                // at their original ticks: they go back to the queue
                // *front* (their targets precede everything still queued)
                // and drop out of the log (re-logged on application). A
                // checkpoint taken at tick `t` precedes the injections
                // *targeting* `t` (they apply at the start of the next
                // driven tick), so the replay window is `target ≥ t`.
                let mut replayed = 0u64;
                for cmd in session
                    .inject_log
                    .iter()
                    .filter(|cmd| cmd.target_tick >= tick)
                    .rev()
                {
                    session.queue.push_front(*cmd);
                    replayed += 1;
                }
                session.inject_log.retain(|cmd| cmd.target_tick < tick);
                session.metrics.replayed_injections += replayed;
                session.metrics.recoveries += 1;
                session.mode = Mode::Live;
                session.lane = Lane::Degraded;
                session.miss_streak = 0;
                session.clean_streak = 0;
                session.recovery_attempts = 0;
                self.events.push(FleetEvent::Recovered {
                    round,
                    tenant,
                    from_tick: tick,
                    replayed,
                    corrupt_skipped: skips.len() as u64,
                });
            }
            Err(reason) => match ladder.delay_after(attempts) {
                Some(delay) => {
                    let retry_round = round + delay;
                    session.mode = Mode::Recovering {
                        next_attempt_round: retry_round,
                    };
                    self.events.push(FleetEvent::RecoveryAttemptFailed {
                        round,
                        tenant,
                        attempt: attempts,
                        reason,
                        retry_round,
                    });
                }
                None => {
                    let failure = SessionFailure {
                        tick: session.chip.now(),
                        attempts,
                        reason,
                    };
                    session.mode = Mode::Failed(failure.clone());
                    session.queue.clear();
                    self.events.push(FleetEvent::SessionFailed {
                        round,
                        tenant,
                        failure,
                    });
                }
            },
        }
    }

    /// Evicts `tenant`, exporting its final report (with the chip's
    /// [`RunSummary`] when telemetry was enabled). Returns `None` for an
    /// unknown tenant.
    pub fn evict(&mut self, tenant: &str) -> Option<TenantReport> {
        let slot = self.index.remove(tenant)?;
        let mut session = self.sessions[slot].take()?;
        self.queued_total = self.queued_total.saturating_sub(session.queue.len());
        let summary = session
            .chip
            .take_telemetry()
            .map(|log| log.summary().clone());
        self.events.push(FleetEvent::Evicted {
            round: self.round,
            tenant: tenant.to_string(),
        });
        Some(TenantReport {
            tenant: session.tenant.clone(),
            state: session.state(),
            ticks: session.chip.now(),
            checksum: session.checksum,
            metrics: session.metrics,
            summary,
        })
    }

    /// Stops admissions and submissions; rounds may still run to drain
    /// queues before [`Fleet::shutdown`].
    pub fn begin_shutdown(&mut self) {
        self.shutting_down = true;
    }

    /// Final checkpoint for every live session (best effort), then evicts
    /// everything, returning the reports in admission order.
    pub fn shutdown(mut self) -> Vec<TenantReport> {
        self.shutting_down = true;
        let config = self.config.clone();
        for slot in 0..self.sessions.len() {
            let dir = match self.sessions[slot].as_ref() {
                Some(session) if matches!(session.mode, Mode::Live) => {
                    self.tenant_dir(&session.tenant)
                }
                _ => continue,
            };
            if let Some(session) = self.sessions[slot].as_mut() {
                if session.chip.now() > session.last_checkpoint_tick {
                    if let Err(e) = write_checkpoint(&config, &dir, session) {
                        session.metrics.checkpoint_failures += 1;
                        let tenant = session.tenant.clone();
                        let tick = session.chip.now();
                        self.events.push(FleetEvent::CheckpointFailed {
                            round: self.round,
                            tenant,
                            tick,
                            error: e.to_string(),
                        });
                    }
                }
            }
        }
        let tenants = self.tenants();
        tenants
            .iter()
            .filter_map(|tenant| self.evict(tenant))
            .collect()
    }

    /// Chaos hook: desynchronises one core of `tenant`'s chip so its next
    /// evaluated tick panics (contained by the supervisor). Returns
    /// `false` for an unknown tenant or out-of-range core. Test-fleet
    /// only — this is the serving-level twin of
    /// [`Chip::chaos_desync_core`].
    pub fn chaos_poison_core(&mut self, tenant: &str, core: usize) -> bool {
        let Some(&slot) = self.index.get(tenant) else {
            return false;
        };
        let Some(session) = self.sessions[slot].as_mut() else {
            return false;
        };
        session.chip.chaos_desync_core(core)
    }

    /// The on-disk checkpoint directory for `tenant` (exists after the
    /// genesis checkpoint).
    pub fn tenant_state_dir(&self, tenant: &str) -> PathBuf {
        self.tenant_dir(tenant)
    }
}

/// Writes a checkpoint carrying the session's running checksum in the
/// application section, then prunes the inject log to the oldest retained
/// checkpoint — entries older than every restore floor can never replay.
fn write_checkpoint(
    config: &ServeConfig,
    dir: &Path,
    session: &mut Session,
) -> Result<(), SaveError> {
    let mut snapshot = session.chip.checkpoint();
    snapshot.app = session.checksum.to_le_bytes().to_vec();
    let policy = CheckpointPolicy::new(config.checkpoint_every, config.checkpoint_keep);
    policy.save_with_retry(
        dir,
        session.chip.now(),
        &snapshot.to_bytes(),
        &config.checkpoint_retry,
    )?;
    session.last_checkpoint_tick = session.chip.now();
    session.metrics.checkpoints_written += 1;
    if let Ok(list) = CheckpointPolicy::list(dir) {
        if let Some(&(oldest, _)) = list.first() {
            // Entries targeting the oldest retained tick itself are kept:
            // a checkpoint at tick `t` is taken before tick `t`'s
            // injections apply, so restoring it replays `target ≥ t`.
            session.inject_log.retain(|cmd| cmd.target_tick >= oldest);
        }
    }
    Ok(())
}

/// Restores the newest verifying checkpoint in `dir`: the audit trail of
/// skipped files plus either `(tick, chip, checksum)` or a rendered
/// reason nothing was restorable.
#[allow(clippy::type_complexity)]
fn restore_from_dir(
    dir: &Path,
) -> (
    Vec<brainsim_chip::SkippedCheckpoint>,
    Result<(u64, Chip, u64), String>,
) {
    let (found, skips) = match CheckpointPolicy::load_newest_verifying(dir) {
        Ok(v) => v,
        Err(e) => return (Vec::new(), Err(format!("checkpoint scan failed: {e}"))),
    };
    let Some((tick, bytes)) = found else {
        return (skips, Err("no verifying checkpoint on disk".to_string()));
    };
    let snapshot = match Snapshot::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => return (skips, Err(format!("snapshot decode failed: {e}"))),
    };
    let checksum = checksum_from_app(&snapshot.app);
    match Chip::restore(snapshot) {
        Ok(chip) => (skips, Ok((tick, chip, checksum))),
        Err(e) => (skips, Err(format!("chip restore failed: {e}"))),
    }
}
