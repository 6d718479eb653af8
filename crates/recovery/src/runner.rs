//! The closed loop: tick → observe → condemn → replan → migrate → resume.

use std::path::PathBuf;

use brainsim_chip::{CheckpointStore, Chip};
use brainsim_compiler::{compile, repair, CompileError, CompileOptions, CompiledNetwork, CoreMove};
use brainsim_corelet::LogicalNetwork;
use brainsim_faults::FaultPlan;
use brainsim_snapshot::{BackoffLadder, FailedAttempt, RecoveryEpisode};
use brainsim_telemetry::TelemetryConfig;

use crate::error::RecoveryError;
use crate::migrate::hot_migrate;
use crate::monitor::{DetectorConfig, HealthMonitor};

/// How aggressively the runner recovers and when it gives up.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Detector thresholds for the health monitor.
    pub detectors: DetectorConfig,
    /// Failed recovery attempts tolerated before degrading in place, and
    /// the capped-exponential wait, in ticks, between them.
    pub ladder: BackoffLadder,
    /// When set, every migration first persists the pre-migration
    /// checkpoint here (each write retried up `checkpoint_retry`), so a crash
    /// mid-migration can resume from the last consistent state. The runner
    /// owns the directory's checkpoints: [`SelfHealingRunner::new`] clears
    /// an earlier run's, and the newest two are kept.
    pub checkpoint_dir: Option<PathBuf>,
    /// Retry ladder for the persisted checkpoint write, counted in
    /// milliseconds: the attempts it may make and the wait after each
    /// failure.
    pub checkpoint_retry: BackoffLadder,
}

impl Default for RecoveryPolicy {
    /// Default detectors, the default ladder, no checkpoint directory, and
    /// writes retried after 10 ms and 20 ms.
    fn default() -> Self {
        RecoveryPolicy {
            detectors: DetectorConfig::default(),
            ladder: BackoffLadder::default(),
            checkpoint_dir: None,
            checkpoint_retry: BackoffLadder::CHECKPOINT_WRITES,
        }
    }
}

/// One entry of the runner's recovery journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// The monitor condemned cells at `tick`.
    Condemned {
        /// Tick of the observation.
        tick: u64,
        /// The newly condemned cells.
        cells: Vec<(usize, usize)>,
    },
    /// A replan + hot migration succeeded.
    Migrated {
        /// Tick the migration completed at.
        tick: u64,
        /// The cores that moved.
        moves: Vec<CoreMove>,
    },
    /// One recovery attempt failed; another is scheduled.
    AttemptFailed {
        /// Tick of the failure.
        tick: u64,
        /// Rendered [`RecoveryError`].
        error: String,
        /// Tick at which the next attempt may run.
        retry_at: u64,
    },
    /// The retry budget is exhausted: the run continues on the damaged
    /// layout and no further migrations are attempted.
    DegradedInPlace {
        /// Tick recovery was abandoned at.
        tick: u64,
        /// Rendered final [`RecoveryError`].
        error: String,
    },
}

/// Cumulative recovery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Cells condemned by the monitor.
    pub cells_condemned: u64,
    /// Successful hot migrations.
    pub migrations: u64,
    /// Cores physically moved across all migrations.
    pub cores_moved: u64,
    /// Failed recovery attempts.
    pub failed_attempts: u64,
    /// Link-loss alarms raised.
    pub link_alarms: u64,
}

/// A compiled network wrapped in the self-healing loop.
///
/// Each [`SelfHealingRunner::step`] ticks the chip, feeds the tick's
/// telemetry record to the [`HealthMonitor`], and — when cells stand
/// condemned — re-places the retained logical network around them and
/// hot-migrates. Failed attempts climb a [`RecoveryEpisode`] on the
/// policy's ladder, backing off exponentially (in ticks, so the behaviour
/// is deterministic) and, once the ladder is exhausted, the runner degrades
/// in place: the run continues on the damaged layout and recovery never
/// crashes it.
///
/// On a healthy chip the loop is a proven no-op: the monitor sees nothing,
/// no replan ever runs, and the tick stream is bit-identical to an
/// unwrapped [`CompiledNetwork`] with telemetry enabled.
#[derive(Debug)]
pub struct SelfHealingRunner {
    net: LogicalNetwork,
    options: CompileOptions,
    compiled: CompiledNetwork,
    monitor: HealthMonitor,
    /// Where pre-migration checkpoints go, when the policy names a
    /// directory.
    store: Option<CheckpointStore>,
    /// Condemned cells awaiting a successful migration.
    pending: Vec<(usize, usize)>,
    episode: RecoveryEpisode,
    stats: RecoveryStats,
    events: Vec<RecoveryEvent>,
}

impl SelfHealingRunner {
    /// Compiles `net` and wraps it in the recovery loop. Telemetry with
    /// per-core detail is enabled on the chip — the monitor needs it.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] the initial compilation raises.
    pub fn new(
        net: LogicalNetwork,
        options: CompileOptions,
        policy: RecoveryPolicy,
    ) -> Result<SelfHealingRunner, CompileError> {
        let mut compiled = compile(&net, &options)?;
        compiled.chip_mut().enable_telemetry(TelemetryConfig {
            capacity: Some(64),
            core_detail: true,
        });
        let (w, h) = compiled.network_map().grid;
        let monitor = HealthMonitor::new(policy.detectors, w, h);
        let store = policy.checkpoint_dir.as_ref().map(|dir| {
            let mut store = CheckpointStore::open(dir, 2, policy.checkpoint_retry);
            // A file the clear cannot remove is left to the first write to
            // trip on, where the recovery ladder meters it.
            let _ = store.clear();
            store
        });
        Ok(SelfHealingRunner {
            net,
            options,
            compiled,
            monitor,
            episode: RecoveryEpisode::new(policy.ladder),
            store,
            pending: Vec::new(),
            stats: RecoveryStats::default(),
            events: Vec::new(),
        })
    }

    /// The wrapped network.
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// The underlying chip.
    pub fn chip(&self) -> &Chip {
        self.compiled.chip()
    }

    /// The health monitor (for inspecting condemned cells / thresholds).
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Cumulative recovery accounting.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// The recovery journal, oldest first.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// True once the runner has given up migrating and runs degraded.
    pub fn degraded(&self) -> bool {
        self.episode.exhausted()
    }

    /// Arms a fault plan on the running chip and retains it so migrated
    /// cells inherit their correct structural damage. Legal at any tick
    /// boundary; apply any given plan at most once (see
    /// [`Chip::set_fault_plan`]).
    pub fn arm_fault_plan(&mut self, plan: &FaultPlan) {
        self.compiled.set_fault_plan(plan);
    }

    /// Advances one tick with `stimulus` input ports spiking, runs the
    /// detectors on the tick's telemetry, and — if cells stand condemned
    /// and no backoff is pending — attempts a recovery. Returns which
    /// output ports fired.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` names a non-existent input port (matching
    /// [`CompiledNetwork::run`]).
    pub fn step(&mut self, stimulus: &[usize]) -> Vec<bool> {
        let t = self.compiled.chip().now();
        for &port in stimulus {
            self.compiled
                .inject(port, t)
                .expect("stimulus named a bad port");
        }
        let fired = self.compiled.tick();

        let report = self
            .compiled
            .chip()
            .telemetry()
            .and_then(|log| log.latest())
            .map(|record| self.monitor.observe(record))
            .unwrap_or_default();
        let now = self.compiled.chip().now();
        if report.link_alarm {
            self.stats.link_alarms += 1;
        }
        if !report.condemned.is_empty() {
            self.stats.cells_condemned += report.condemned.len() as u64;
            self.events.push(RecoveryEvent::Condemned {
                tick: now,
                cells: report.condemned.clone(),
            });
            self.pending.extend(report.condemned);
        }

        if !self.pending.is_empty() && self.episode.due(now) {
            self.attempt_recovery(now);
        }
        fired
    }

    /// Runs `ticks` steps; `stimulus(t)` lists the input ports spiking at
    /// tick `t`. Returns the output raster, one `Vec<bool>` per tick
    /// (matching [`CompiledNetwork::run`]).
    pub fn run<F>(&mut self, ticks: u64, mut stimulus: F) -> Vec<Vec<bool>>
    where
        F: FnMut(u64) -> Vec<usize>,
    {
        let mut raster = Vec::with_capacity(ticks as usize);
        for _ in 0..ticks {
            let t = self.compiled.chip().now();
            raster.push(self.step(&stimulus(t)));
        }
        raster
    }

    fn attempt_recovery(&mut self, now: u64) {
        match self.try_recover() {
            Ok(moves) => {
                self.stats.migrations += 1;
                self.stats.cores_moved += moves.len() as u64;
                self.events
                    .push(RecoveryEvent::Migrated { tick: now, moves });
                self.pending.clear();
                self.episode.recovered();
                // The layout changed discontinuously: stale streaks must
                // not condemn the repaired placement.
                self.monitor.reset_strikes();
            }
            Err(e) => {
                self.stats.failed_attempts += 1;
                let event = match self.episode.failed(now) {
                    FailedAttempt::Retry { at } => RecoveryEvent::AttemptFailed {
                        tick: now,
                        error: e.to_string(),
                        retry_at: at,
                    },
                    FailedAttempt::Exhausted { attempts } => RecoveryEvent::DegradedInPlace {
                        tick: now,
                        error: format!(
                            "{}: last error: {e}",
                            RecoveryError::Exhausted { attempts }
                        ),
                    },
                };
                self.events.push(event);
            }
        }
    }

    fn try_recover(&mut self) -> Result<Vec<CoreMove>, RecoveryError> {
        let map = self.compiled.network_map().clone();
        let mut repaired = repair(&self.net, &self.options, &map, &self.pending)?;

        if let Some(store) = &mut self.store {
            store.write(self.compiled.chip(), &[])?;
        }

        hot_migrate(self.compiled.chip(), &mut repaired)?;
        self.compiled = repaired.compiled;
        Ok(repaired.moves)
    }
}
