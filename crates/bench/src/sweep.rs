//! The sweep harness: runs the workload corpus across the full
//! {eval strategy × scheduler × thread count} matrix, proves bit-identity
//! (the differential conformance layer), and only then emits timing
//! records — plus the ops workloads (checkpoint, recovery) and the
//! per-(workload, variant) regression gate.

use std::time::Instant;

use brainsim_chip::{Chip, ChipBatch, CoreScheduling, Snapshot, TelemetryConfig};
use brainsim_core::EvalStrategy;
use brainsim_energy::EventCensus;
use brainsim_neuron::Lfsr;

use crate::corpus::{build_workload, Fnv1a, WorkloadDef};
use crate::record::{Host, Record};

/// One simulator configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Core evaluation strategy.
    pub strategy: EvalStrategy,
    /// Core scheduling mode.
    pub scheduling: CoreScheduling,
    /// Worker threads.
    pub threads: usize,
    /// Whether telemetry instrumentation is enabled (overhead probe).
    pub telemetry: bool,
}

impl Variant {
    /// Stable record label, e.g. `sweep_swar_t1` or `active_sparse_t8`.
    pub fn label(&self) -> String {
        let sched = match self.scheduling {
            CoreScheduling::Sweep => "sweep",
            CoreScheduling::Active => "active",
        };
        let strat = match self.strategy {
            EvalStrategy::Swar => "swar",
            EvalStrategy::Sparse => "sparse",
        };
        let tel = if self.telemetry { "_telemetry" } else { "" };
        format!("{sched}_{strat}_t{}{tel}", self.threads)
    }
}

/// The full conformance matrix every corpus entry must pass before any of
/// its timings are trusted: {Swar, Sparse scalar oracle} ×
/// {Sweep, Active} × threads {1, 8}, plus the telemetry-instrumented
/// probe. 9 runs per entry, all required to be bit-identical.
pub fn conformance_matrix() -> Vec<Variant> {
    let mut m = Vec::with_capacity(9);
    for strategy in [EvalStrategy::Swar, EvalStrategy::Sparse] {
        for scheduling in [CoreScheduling::Sweep, CoreScheduling::Active] {
            for threads in [1, 8] {
                m.push(Variant {
                    strategy,
                    scheduling,
                    threads,
                    telemetry: false,
                });
            }
        }
    }
    m.push(Variant {
        strategy: EvalStrategy::Swar,
        scheduling: CoreScheduling::Sweep,
        threads: 1,
        telemetry: true,
    });
    m
}

/// The subset of the matrix whose timings become committed records: the
/// scalar reference, the SWAR path serial and threaded under both
/// schedulers, and the instrumentation-overhead probe.
pub fn timed_variants() -> Vec<Variant> {
    let sweep = CoreScheduling::Sweep;
    let active = CoreScheduling::Active;
    vec![
        Variant {
            strategy: EvalStrategy::Sparse,
            scheduling: sweep,
            threads: 1,
            telemetry: false,
        },
        Variant {
            strategy: EvalStrategy::Swar,
            scheduling: sweep,
            threads: 1,
            telemetry: false,
        },
        Variant {
            strategy: EvalStrategy::Swar,
            scheduling: sweep,
            threads: 8,
            telemetry: false,
        },
        Variant {
            strategy: EvalStrategy::Swar,
            scheduling: active,
            threads: 1,
            telemetry: false,
        },
        Variant {
            strategy: EvalStrategy::Swar,
            scheduling: active,
            threads: 8,
            telemetry: false,
        },
        Variant {
            strategy: EvalStrategy::Swar,
            scheduling: sweep,
            threads: 1,
            telemetry: true,
        },
    ]
}

/// Outcome of one variant run over one corpus entry.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock nanoseconds per measured tick (warm-up excluded).
    pub ns_per_tick: f64,
    /// Final event census.
    pub census: EventCensus,
    /// FNV-1a digest over every tick's raster (tick, spike count, output
    /// ports in deterministic order) and the final census.
    pub checksum: u64,
}

/// Runs one corpus entry under one variant: builds the network, arms the
/// overlay, drives the seeded stimulus, folds the per-tick raster into the
/// checksum, and times the measured window.
pub fn run_variant(def: &WorkloadDef, variant: &Variant) -> RunResult {
    run_variant_with_drive(def, variant, lane_drive_seed(def, 0))
}

/// The drive-stream seed of one batch lane. Lane 0 is the canonical solo
/// stream itself — a batch's lane 0 therefore reproduces the entry's
/// pinned checksum bit for bit — and every further lane salts the seed so
/// the replicas diverge in stimulus while sharing the network.
pub fn lane_drive_seed(def: &WorkloadDef, lane: usize) -> u32 {
    (def.seed ^ 0x0D21_5EED) ^ (lane as u32).wrapping_mul(0x9E37_79B9)
}

/// [`run_variant`] with an explicit drive-stream seed — the solo twin
/// runner the batch differential check compares each lane against.
pub fn run_variant_with_drive(def: &WorkloadDef, variant: &Variant, drive_seed: u32) -> RunResult {
    let (mut chip, _) = build_workload(def, variant.strategy, variant.scheduling, variant.threads);
    if let Some(plan) = def.fault_plan() {
        chip.set_fault_plan(&plan);
    }
    if variant.telemetry {
        chip.enable_telemetry(TelemetryConfig::default());
    }
    let mut noise = Lfsr::new(drive_seed);
    let mut hash = Fnv1a::new();
    let structured = def.structured();
    let width = def.width;
    let mut drive_and_tick = |chip: &mut Chip, hash: &mut Fnv1a| {
        let t = chip.now();
        for index in 0..structured {
            crate::drive_core(
                chip,
                &mut noise,
                index % width,
                index / width,
                def.drive_rate,
                t,
            );
        }
        let summary = chip.tick();
        hash.write(summary.tick);
        hash.write(summary.spikes);
        hash.write(summary.outputs.len() as u64);
        for port in &summary.outputs {
            hash.write(u64::from(*port));
        }
    };
    for _ in 0..def.warmup {
        drive_and_tick(&mut chip, &mut hash);
    }
    let start = Instant::now();
    for _ in 0..def.measure {
        drive_and_tick(&mut chip, &mut hash);
    }
    let elapsed = start.elapsed();
    let census = chip.census();
    hash.write_census(&census);
    RunResult {
        ns_per_tick: elapsed.as_nanos() as f64 / def.measure as f64,
        census,
        checksum: hash.finish(),
    }
}

/// Why a corpus entry failed conformance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// A variant's checksum or census diverged from the first run.
    Diverged {
        /// Workload name.
        workload: String,
        /// The diverging variant's label.
        variant: String,
        /// The reference (first-run) checksum.
        reference: u64,
        /// The diverging checksum.
        got: u64,
    },
    /// The computed checksum does not match the def's pinned checksum.
    Pin {
        /// Workload name.
        workload: String,
        /// The pinned value from the corpus definition.
        pinned: Option<u64>,
        /// The checksum every variant computed.
        computed: u64,
    },
    /// The workload produced no spikes — a degenerate entry that would
    /// "conform" trivially.
    Silent {
        /// Workload name.
        workload: String,
    },
}

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceError::Diverged { workload, variant, reference, got } => write!(
                f,
                "{workload}: variant {variant} diverged (checksum {got:#018x}, reference {reference:#018x})"
            ),
            ConformanceError::Pin { workload, pinned: Some(p), computed } => write!(
                f,
                "{workload}: checksum {computed:#018x} does not match pinned {p:#018x}"
            ),
            ConformanceError::Pin { workload, pinned: None, computed } => write!(
                f,
                "{workload}: unpinned entry — set `checksum: Some({computed:#018x})` in the corpus def"
            ),
            ConformanceError::Silent { workload } => {
                write!(f, "{workload}: workload produced no spikes")
            }
        }
    }
}

/// A conformance-verified sweep of one corpus entry: every matrix run,
/// proven bit-identical and matching the pinned checksum.
#[derive(Debug, Clone)]
pub struct VerifiedSweep {
    /// The checksum all variants agreed on (== the pinned value).
    pub checksum: u64,
    /// The census all variants agreed on.
    pub census: EventCensus,
    /// Every matrix run, in [`conformance_matrix`] order.
    pub runs: Vec<(Variant, RunResult)>,
}

/// Runs the full conformance matrix over one entry and verifies
/// bit-identity + the pinned checksum. Timings inside the result are only
/// meaningful if this returns `Ok` — which is the point.
pub fn verify_workload(def: &WorkloadDef) -> Result<VerifiedSweep, ConformanceError> {
    verify_workload_inner(def, true)
}

/// [`verify_workload`] with the pin comparison optional: a `--ticks`
/// override runs a different tick count than the pinned checksum covers,
/// so only cross-variant bit-identity and non-silence are enforceable.
fn verify_workload_inner(
    def: &WorkloadDef,
    require_pin: bool,
) -> Result<VerifiedSweep, ConformanceError> {
    let mut runs = Vec::new();
    for variant in conformance_matrix() {
        let result = run_variant(def, &variant);
        runs.push((variant, result));
    }
    let reference = &runs[0].1;
    if reference.census.spikes == 0 {
        return Err(ConformanceError::Silent {
            workload: def.name.to_string(),
        });
    }
    for (variant, result) in &runs {
        if result.checksum != reference.checksum || result.census != reference.census {
            return Err(ConformanceError::Diverged {
                workload: def.name.to_string(),
                variant: variant.label(),
                reference: reference.checksum,
                got: result.checksum,
            });
        }
    }
    if require_pin && def.checksum != Some(reference.checksum) {
        return Err(ConformanceError::Pin {
            workload: def.name.to_string(),
            pinned: def.checksum,
            computed: reference.checksum,
        });
    }
    Ok(VerifiedSweep {
        checksum: reference.checksum,
        census: reference.census,
        runs,
    })
}

/// Knobs for one sweep pass, settable from the barometer CLI
/// (`measure --reps N --ticks N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Timed passes per variant ("best of N"). Pass 1 comes from the
    /// conformance matrix; at least one fresh re-run always happens so
    /// the peak-RSS window covers a full build + run of the variant.
    pub reps: u32,
    /// Overrides the def's measured tick count. A different tick count
    /// computes a different checksum than the pinned one, so the pin
    /// comparison is skipped (cross-variant bit-identity still gates) and
    /// the resulting records are for local iteration, not for committing.
    pub ticks: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            reps: 3,
            ticks: None,
        }
    }
}

impl SweepOptions {
    /// The def actually run: `--ticks` replaces the measured window (and
    /// unpins the checksum, which covers warmup + measure of the original
    /// window).
    pub fn effective_def(&self, def: &WorkloadDef) -> WorkloadDef {
        match self.ticks {
            Some(measure) => WorkloadDef {
                measure,
                checksum: None,
                ..def.clone()
            },
            None => def.clone(),
        }
    }
}

/// Sweeps one corpus entry and emits its timing records — after, and only
/// after, [`verify_workload`] proves every variant bit-identical.
pub fn sweep_workload(def: &WorkloadDef, host: Host) -> Result<Vec<Record>, ConformanceError> {
    sweep_workload_opts(def, host, SweepOptions::default())
}

/// [`sweep_workload`] with explicit rep/tick overrides.
pub fn sweep_workload_opts(
    def: &WorkloadDef,
    host: Host,
    opts: SweepOptions,
) -> Result<Vec<Record>, ConformanceError> {
    let def = opts.effective_def(def);
    let verified = verify_workload_inner(&def, opts.ticks.is_none())?;
    let timed = timed_variants();
    let mut records = Vec::new();
    for (variant, result) in &verified.runs {
        if !timed.contains(variant) {
            continue;
        }
        // Best-of-N timing (default 3): re-run the timed variant and keep
        // the fastest pass. The minimum is the noise-robust estimator on a
        // shared host — interference only ever slows a run down. Every
        // re-run must still reproduce the verified checksum. The peak-RSS
        // counter is reset first, so the reported peak bounds exactly the
        // re-runs' build + run working set.
        crate::mem::reset_peak_rss();
        let mut best = result.ns_per_tick;
        for _ in 0..opts.reps.saturating_sub(1).max(1) {
            let rerun = run_variant(&def, variant);
            if rerun.checksum != verified.checksum {
                return Err(ConformanceError::Diverged {
                    workload: def.name.to_string(),
                    variant: variant.label(),
                    reference: verified.checksum,
                    got: rerun.checksum,
                });
            }
            best = best.min(rerun.ns_per_tick);
        }
        let peak_rss_bytes = crate::mem::peak_rss_bytes();
        records.push(Record {
            workload: def.name.to_string(),
            variant: variant.label(),
            unit: "ns_per_tick",
            value: best,
            census_checksum: result.checksum,
            ticks: def.measure,
            cores: def.cores(),
            threads: variant.threads,
            host_cpus: host.cpus,
            os: host.os.to_string(),
            oversubscribed: variant.threads > host.cpus,
            check_factor: def.check_factor,
            peak_rss_bytes,
            bytes_per_core: peak_rss_bytes.map(|b| b / def.cores() as u64),
        });
    }
    Ok(records)
}

/// Lane counts the harness measures through the batched backend for every
/// `batch`-flagged corpus entry.
pub const BATCH_LANES: &[usize] = &[2, 8];

/// Stable record label for a batched run, e.g. `batch8`.
pub fn batch_label(lanes: usize) -> String {
    format!("batch{lanes}")
}

/// Outcome of one batched run over one corpus entry: per-lane observables
/// plus the amortised per-chip timing.
#[derive(Debug, Clone)]
pub struct BatchRunResult {
    /// Wall-clock nanoseconds per measured tick **per chip** (total
    /// elapsed / (measured ticks × lanes)) — directly comparable to a
    /// solo variant's `ns_per_tick`.
    pub ns_per_tick_per_chip: f64,
    /// Each lane's FNV-1a digest over its per-tick rasters and final
    /// census, in lane order. Lane 0's equals the entry's pinned checksum.
    pub lane_checksums: Vec<u64>,
    /// Each lane's final event census, in lane order.
    pub lane_censuses: Vec<EventCensus>,
}

/// Runs one corpus entry through the batched backend with `lanes`
/// replicas: lane 0 consumes the canonical drive stream, every further
/// lane a salted one ([`lane_drive_seed`]), and the entry's fault overlay
/// is armed on the prototype so all lanes share it (and stay on the fused
/// path). Timing covers the same measured window as a solo run.
///
/// # Panics
///
/// Panics if `lanes` is outside `1..=64` or a lane's tick fails.
pub fn run_batch_variant(def: &WorkloadDef, lanes: usize) -> BatchRunResult {
    run_batch_variant_threads(def, lanes, 1)
}

/// [`run_batch_variant`] with an explicit Phase B worker-thread count for
/// every lane — the differential suite sweeps this to prove lane routing
/// is thread-count invariant exactly like solo routing.
///
/// # Panics
///
/// As for [`run_batch_variant`].
pub fn run_batch_variant_threads(
    def: &WorkloadDef,
    lanes: usize,
    threads: usize,
) -> BatchRunResult {
    let (mut proto, _) = build_workload(def, EvalStrategy::Swar, CoreScheduling::Sweep, threads);
    if let Some(plan) = def.fault_plan() {
        proto.set_fault_plan(&plan);
    }
    let mut batch = ChipBatch::new_replicas(&proto, lanes).expect("lane count in 1..=64");
    let mut noises: Vec<Lfsr> = (0..lanes)
        .map(|lane| Lfsr::new(lane_drive_seed(def, lane)))
        .collect();
    let mut hashes: Vec<Fnv1a> = vec![Fnv1a::new(); lanes];
    let structured = def.structured();
    let width = def.width;
    let mut drive_and_tick = |batch: &mut ChipBatch, hashes: &mut [Fnv1a]| {
        let t = batch.now();
        for (lane, noise) in noises.iter_mut().enumerate() {
            let chip = batch.lane_mut(lane);
            for index in 0..structured {
                crate::drive_core(chip, noise, index % width, index / width, def.drive_rate, t);
            }
        }
        let summaries = batch.try_tick().expect("batch tick succeeds");
        for (hash, summary) in hashes.iter_mut().zip(&summaries) {
            hash.write(summary.tick);
            hash.write(summary.spikes);
            hash.write(summary.outputs.len() as u64);
            for port in &summary.outputs {
                hash.write(u64::from(*port));
            }
        }
    };
    for _ in 0..def.warmup {
        drive_and_tick(&mut batch, &mut hashes);
    }
    let start = Instant::now();
    for _ in 0..def.measure {
        drive_and_tick(&mut batch, &mut hashes);
    }
    let elapsed = start.elapsed();
    let lane_censuses: Vec<EventCensus> =
        (0..lanes).map(|lane| batch.lane(lane).census()).collect();
    for (hash, census) in hashes.iter_mut().zip(&lane_censuses) {
        hash.write_census(census);
    }
    BatchRunResult {
        ns_per_tick_per_chip: elapsed.as_nanos() as f64 / (def.measure * lanes as u64) as f64,
        lane_checksums: hashes.iter().map(Fnv1a::finish).collect(),
        lane_censuses,
    }
}

/// The batch conformance gate: runs the entry through the batched backend
/// and proves **every lane** bit-identical (checksum and census) to a solo
/// chip consuming the same drive stream, and lane 0 equal to the entry's
/// pinned checksum. Only a result that passed this is worth timing.
pub fn verify_batch_workload(
    def: &WorkloadDef,
    lanes: usize,
) -> Result<BatchRunResult, ConformanceError> {
    verify_batch_workload_threads(def, lanes, 1)
}

/// [`verify_batch_workload`] at an explicit worker-thread count (both the
/// batch lanes and their solo twins run Phase B with `threads` workers).
pub fn verify_batch_workload_threads(
    def: &WorkloadDef,
    lanes: usize,
    threads: usize,
) -> Result<BatchRunResult, ConformanceError> {
    verify_batch_workload_inner(def, lanes, threads, true)
}

/// [`verify_batch_workload_threads`] with the lane-0 pin comparison
/// optional (tick-count overrides unpin the checksum; the lane-vs-solo
/// differential still gates).
fn verify_batch_workload_inner(
    def: &WorkloadDef,
    lanes: usize,
    threads: usize,
    require_pin: bool,
) -> Result<BatchRunResult, ConformanceError> {
    let result = run_batch_variant_threads(def, lanes, threads);
    let solo = Variant {
        strategy: EvalStrategy::Swar,
        scheduling: CoreScheduling::Sweep,
        threads,
        telemetry: false,
    };
    for lane in 0..lanes {
        let twin = run_variant_with_drive(def, &solo, lane_drive_seed(def, lane));
        if result.lane_checksums[lane] != twin.checksum || result.lane_censuses[lane] != twin.census
        {
            return Err(ConformanceError::Diverged {
                workload: def.name.to_string(),
                variant: format!("{}_lane{lane}", batch_label(lanes)),
                reference: twin.checksum,
                got: result.lane_checksums[lane],
            });
        }
        if twin.census.spikes == 0 {
            return Err(ConformanceError::Silent {
                workload: def.name.to_string(),
            });
        }
    }
    if require_pin && def.checksum != Some(result.lane_checksums[0]) {
        return Err(ConformanceError::Pin {
            workload: def.name.to_string(),
            pinned: def.checksum,
            computed: result.lane_checksums[0],
        });
    }
    Ok(result)
}

/// Emits the `batchN` timing records for one `batch`-flagged corpus entry
/// — after, and only after, [`verify_batch_workload`] proves every lane's
/// bit-identity at every measured lane count. Timing is best-of-three;
/// every re-run must reproduce the verified lane checksums.
pub fn batch_records(def: &WorkloadDef, host: Host) -> Result<Vec<Record>, ConformanceError> {
    batch_records_opts(def, host, SweepOptions::default())
}

/// [`batch_records`] with explicit rep/tick overrides.
pub fn batch_records_opts(
    def: &WorkloadDef,
    host: Host,
    opts: SweepOptions,
) -> Result<Vec<Record>, ConformanceError> {
    let def = opts.effective_def(def);
    let mut records = Vec::new();
    for &lanes in BATCH_LANES {
        let verified = verify_batch_workload_inner(&def, lanes, 1, opts.ticks.is_none())?;
        crate::mem::reset_peak_rss();
        let mut best = verified.ns_per_tick_per_chip;
        for _ in 0..opts.reps.saturating_sub(1).max(1) {
            let rerun = run_batch_variant(&def, lanes);
            if rerun.lane_checksums != verified.lane_checksums {
                return Err(ConformanceError::Diverged {
                    workload: def.name.to_string(),
                    variant: batch_label(lanes),
                    reference: verified.lane_checksums[0],
                    got: rerun.lane_checksums[0],
                });
            }
            best = best.min(rerun.ns_per_tick_per_chip);
        }
        let peak_rss_bytes = crate::mem::peak_rss_bytes();
        records.push(Record {
            workload: def.name.to_string(),
            variant: batch_label(lanes),
            unit: "ns_per_tick",
            value: best,
            census_checksum: verified.lane_checksums[0],
            ticks: def.measure,
            cores: def.cores(),
            threads: 1,
            host_cpus: host.cpus,
            os: host.os.to_string(),
            oversubscribed: false,
            check_factor: def.check_factor,
            peak_rss_bytes,
            // A batch holds `lanes` replicas: amortise the peak over the
            // simulated cores actually resident.
            bytes_per_core: peak_rss_bytes.map(|b| b / (def.cores() * lanes) as u64),
        });
    }
    Ok(records)
}

/// Regression threshold for the ops workloads (checkpoint, recovery):
/// single-shot operations — some in the sub-microsecond range — jitter
/// far more than steady-state tick loops, so the gate is looser than the
/// corpus default.
const OPS_CHECK_FACTOR: f64 = 2.0;

/// Extra tolerance multiplier applied when the record under test (or its
/// baseline counterpart) ran oversubscribed (`threads > host_cpus`).
/// Oversubscribed runs time-share one CPU across the worker pool, so the
/// OS scheduler — not the simulator — dominates run-to-run variance;
/// judging them at the quiet-run threshold turns jitter into false gate
/// failures. Census checks are unaffected: correctness is never advisory.
const OVERSUBSCRIBED_SLACK: f64 = 1.5;

fn ops_record(
    workload: &str,
    variant: &str,
    ns_per_op: f64,
    reps: u64,
    cores: usize,
    census: &EventCensus,
    host: Host,
) -> Record {
    let mut hash = Fnv1a::new();
    hash.write_census(census);
    Record {
        workload: workload.to_string(),
        variant: variant.to_string(),
        unit: "ns_per_op",
        value: ns_per_op,
        census_checksum: hash.finish(),
        ticks: reps,
        cores,
        threads: 1,
        host_cpus: host.cpus,
        os: host.os.to_string(),
        oversubscribed: false,
        check_factor: OPS_CHECK_FACTOR,
        // Single-shot ops (sub-µs saves, µs restores) churn no meaningful
        // residency of their own; memory is gated on the corpus sweeps.
        peak_rss_bytes: None,
        bytes_per_core: None,
    }
}

/// Measures checkpoint serialisation and restore latency on a warmed-up
/// corpus chip (mid-activity, so scheduler rings and potentials are
/// non-trivial). The restored chip's census must equal the original's —
/// the records also certify save/restore fidelity.
pub fn checkpoint_records(def: &WorkloadDef, host: Host) -> Vec<Record> {
    const REPS: u32 = 50;
    let variant = Variant {
        strategy: EvalStrategy::Swar,
        scheduling: CoreScheduling::Sweep,
        threads: 1,
        telemetry: false,
    };
    let (mut chip, _) = build_workload(def, variant.strategy, variant.scheduling, variant.threads);
    let mut noise = Lfsr::new(def.seed ^ 0x0D21_5EED);
    for _ in 0..def.warmup + 25 {
        let t = chip.now();
        for index in 0..def.structured() {
            crate::drive_core(
                &mut chip,
                &mut noise,
                index % def.width,
                index / def.width,
                def.drive_rate,
                t,
            );
        }
        chip.tick();
    }

    // Best-of-two passes, same as the corpus sweep: interference only
    // slows a pass down, so the minimum is the honest estimate.
    let mut save_ns = f64::INFINITY;
    let mut restore_ns = f64::INFINITY;
    let mut bytes = Vec::new();
    let mut restored = None;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..REPS {
            bytes = chip.checkpoint().to_bytes();
        }
        save_ns = save_ns.min(start.elapsed().as_nanos() as f64 / f64::from(REPS));

        let start = Instant::now();
        for _ in 0..REPS {
            let snapshot = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
            restored = Some(Chip::restore(snapshot).expect("snapshot restores"));
        }
        restore_ns = restore_ns.min(start.elapsed().as_nanos() as f64 / f64::from(REPS));
    }
    let census = chip.census();
    assert_eq!(
        restored.expect("measured at least once").census(),
        census,
        "restored chip census diverged from the checkpointed chip"
    );
    vec![
        ops_record(
            "chip_checkpoint",
            "checkpoint_save",
            save_ns,
            u64::from(REPS),
            def.cores(),
            &census,
            host,
        ),
        ops_record(
            "chip_checkpoint",
            "checkpoint_restore",
            restore_ns,
            u64::from(REPS),
            def.cores(),
            &census,
            host,
        ),
    ]
}

/// Measures the self-healing pipeline's three stages — telemetry-driven
/// detection, re-placement around a condemned cell, and checkpointed hot
/// migration — on a dense 8×8 relay-chain network (56 of 64 cells used,
/// so the repair has real spares to choose from). The migrated chip must
/// resume at the source chip's exact tick with an identical census, so the
/// records also certify migration fidelity.
pub fn recovery_records(host: Host) -> Vec<Record> {
    const REPS: u32 = 20;
    const CHAIN: usize = 56;
    const WARMUP: u64 = 50;

    let mut corelet = brainsim_corelet::Corelet::new("recovery-bench", 1);
    let template = brainsim_neuron::NeuronConfig::builder()
        .threshold(1)
        .build()
        .expect("neuron config");
    let pop = corelet.add_population(template, CHAIN);
    corelet
        .connect(brainsim_corelet::NodeRef::Input(0), pop[0], 1, 1)
        .expect("connect");
    for w in pop.windows(2) {
        corelet
            .connect(brainsim_corelet::NodeRef::Neuron(w[0]), w[1], 1, 2)
            .expect("connect");
    }
    corelet.mark_output(pop[CHAIN - 1]).expect("output");
    let net = corelet.into_network();
    let options = brainsim_compiler::CompileOptions {
        core_axons: 4,
        core_neurons: 2,
        relay_reserve: 1,
        grid: Some((8, 8)),
        seed: 7,
        ..brainsim_compiler::CompileOptions::default()
    };
    let mut compiled = brainsim_compiler::compile(&net, &options).expect("compile");
    compiled.chip_mut().enable_telemetry(TelemetryConfig {
        capacity: None,
        core_detail: true,
    });
    for t in 0..WARMUP {
        compiled.inject(0, t).expect("inject");
        compiled.tick();
    }
    let records: Vec<_> = compiled
        .chip()
        .telemetry()
        .expect("telemetry enabled")
        .records()
        .cloned()
        .collect();
    let map = compiled.network_map().clone();
    let condemned = vec![map.positions[map.positions.len() / 2]];

    // Each stage is timed best-of-two (minimum of two independent passes)
    // for the same reason as the corpus sweep: host interference only ever
    // inflates a pass.

    // Detection: a full four-detector observe pass per telemetry record.
    let mut detect_ns = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..REPS {
            let mut monitor = brainsim_recovery::HealthMonitor::new(
                brainsim_recovery::DetectorConfig::default(),
                8,
                8,
            );
            for r in &records {
                monitor.observe(r);
            }
        }
        detect_ns =
            detect_ns.min(start.elapsed().as_nanos() as f64 / (u64::from(REPS) * WARMUP) as f64);
    }

    // Re-placement: diff-minimising repair around the condemned cell.
    // Both passes keep their plans: the second pass's batch feeds the
    // second migration pass below.
    let mut replan_ns = f64::INFINITY;
    let mut batches = Vec::new();
    for _ in 0..2 {
        let start = Instant::now();
        let mut repaired = Vec::with_capacity(REPS as usize);
        for _ in 0..REPS {
            repaired
                .push(brainsim_compiler::repair(&net, &options, &map, &condemned).expect("repair"));
        }
        replan_ns = replan_ns.min(start.elapsed().as_nanos() as f64 / f64::from(REPS));
        batches.push(repaired);
    }

    // Hot migration: checkpoint, graft, validate, swap — one pass per
    // freshly planned batch (a plan is consumed by its migration).
    let mut migrate_ns = f64::INFINITY;
    for batch in &mut batches {
        let start = Instant::now();
        for r in batch.iter_mut() {
            brainsim_recovery::hot_migrate(compiled.chip(), r).expect("migrate");
        }
        migrate_ns = migrate_ns.min(start.elapsed().as_nanos() as f64 / f64::from(REPS));
    }
    let repaired = batches.pop().expect("two batches planned");

    let census = compiled.chip().census();
    let migrated = repaired.last().expect("measured at least once");
    assert_eq!(
        migrated.compiled.chip().now(),
        compiled.chip().now(),
        "migrated chip must resume at the source tick"
    );
    assert_eq!(
        migrated.compiled.chip().census(),
        census,
        "migrated chip census diverged from the source chip"
    );
    vec![
        ops_record(
            "chip_recovery",
            "detect_tick",
            detect_ns,
            u64::from(REPS),
            64,
            &census,
            host,
        ),
        ops_record(
            "chip_recovery",
            "replan",
            replan_ns,
            u64::from(REPS),
            64,
            &census,
            host,
        ),
        ops_record(
            "chip_recovery",
            "hot_migrate",
            migrate_ns,
            u64::from(REPS),
            64,
            &census,
            host,
        ),
    ]
}

/// The gate's judgement on one `(workload, variant)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Workload name.
    pub workload: String,
    /// Variant label.
    pub variant: String,
    /// What happened.
    pub status: VerdictStatus,
    /// Fresh value / baseline value, where both exist.
    pub ratio: Option<f64>,
    /// Fresh `peak_rss_bytes` / baseline `peak_rss_bytes`, where both
    /// records carry the memory fields (schema-1 baselines don't yet).
    pub mem_ratio: Option<f64>,
    /// The baseline was measured on a host with a different CPU count —
    /// carried as a field on the verdict (not a stderr warning) so timing
    /// judgements against a foreign-shaped baseline are visibly advisory.
    pub cpus_mismatch: bool,
}

/// Gate statuses, ordered from benign to fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictStatus {
    /// Within threshold, census identical.
    Ok,
    /// Fresh record with no baseline counterpart (informational).
    New,
    /// Timing exceeded `check_factor × baseline`.
    Regressed,
    /// Peak RSS exceeded `check_factor × baseline` — the memory-residency
    /// gate. Unlike timing, RSS barely depends on host shape, so this
    /// fails even against a foreign-CPU-count baseline.
    MemoryRegressed,
    /// Census checksum differs from the baseline — a correctness failure,
    /// never advisory.
    CensusDiverged,
    /// Baseline entry with no fresh counterpart — coverage loss.
    Missing,
}

impl Verdict {
    /// Whether this verdict fails the gate. Timing regressions against a
    /// baseline from a different host shape are advisory (the ratio is not
    /// comparable); census divergence and lost coverage always fail.
    pub fn failing(&self) -> bool {
        match self.status {
            VerdictStatus::Ok | VerdictStatus::New => false,
            VerdictStatus::Regressed => !self.cpus_mismatch,
            VerdictStatus::MemoryRegressed
            | VerdictStatus::CensusDiverged
            | VerdictStatus::Missing => true,
        }
    }

    /// One-line machine-readable rendering (the gate's stdout format).
    pub fn to_line(&self) -> String {
        let status = match self.status {
            VerdictStatus::Ok => "ok",
            VerdictStatus::New => "new",
            VerdictStatus::Regressed => "regressed",
            VerdictStatus::MemoryRegressed => "memory_regressed",
            VerdictStatus::CensusDiverged => "census_diverged",
            VerdictStatus::Missing => "missing",
        };
        let ratio = self.ratio.map_or("null".to_string(), |r| format!("{r:.3}"));
        let mem = self
            .mem_ratio
            .map_or("null".to_string(), |r| format!("{r:.3}"));
        format!(
            "{{\"workload\":\"{}\",\"variant\":\"{}\",\"status\":\"{status}\",\"ratio\":{ratio},\"mem_ratio\":{mem},\"cpus_mismatch\":{},\"failing\":{}}}",
            self.workload,
            self.variant,
            self.cpus_mismatch,
            self.failing(),
        )
    }
}

/// Compares fresh records against a committed baseline, per
/// `(workload, variant)`, applying each baseline record's own
/// `check_factor`. Returns every verdict; the gate fails if any verdict
/// is [`Verdict::failing`].
pub fn check(baseline: &[Record], fresh: &[Record], host: Host) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for base in baseline {
        let cpus_mismatch = base.host_cpus != host.cpus;
        let Some(new) = fresh
            .iter()
            .find(|r| r.workload == base.workload && r.variant == base.variant)
        else {
            verdicts.push(Verdict {
                workload: base.workload.clone(),
                variant: base.variant.clone(),
                status: VerdictStatus::Missing,
                ratio: None,
                mem_ratio: None,
                cpus_mismatch,
            });
            continue;
        };
        let ratio = new.value / base.value;
        let mem_ratio = match (base.peak_rss_bytes, new.peak_rss_bytes) {
            (Some(b), Some(n)) if b > 0 => Some(n as f64 / b as f64),
            _ => None,
        };
        let factor = if base.oversubscribed || new.oversubscribed {
            base.check_factor * OVERSUBSCRIBED_SLACK
        } else {
            base.check_factor
        };
        let status = if new.census_checksum != base.census_checksum {
            VerdictStatus::CensusDiverged
        } else if mem_ratio.is_some_and(|m| m > base.check_factor) {
            // Residency regression: judged at the raw check_factor (RSS
            // doesn't jitter with oversubscription the way timing does).
            VerdictStatus::MemoryRegressed
        } else if ratio > factor {
            VerdictStatus::Regressed
        } else {
            VerdictStatus::Ok
        };
        verdicts.push(Verdict {
            workload: base.workload.clone(),
            variant: base.variant.clone(),
            status,
            ratio: Some(ratio),
            mem_ratio,
            cpus_mismatch,
        });
    }
    for new in fresh {
        let known = baseline
            .iter()
            .any(|b| b.workload == new.workload && b.variant == new.variant);
        if !known {
            verdicts.push(Verdict {
                workload: new.workload.clone(),
                variant: new.variant.clone(),
                status: VerdictStatus::New,
                ratio: None,
                mem_ratio: None,
                cpus_mismatch: false,
            });
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, variant: &str, value: f64, checksum: u64, cpus: usize) -> Record {
        Record {
            workload: workload.to_string(),
            variant: variant.to_string(),
            unit: "ns_per_tick",
            value,
            census_checksum: checksum,
            ticks: 100,
            cores: 64,
            threads: 1,
            host_cpus: cpus,
            os: "linux".to_string(),
            oversubscribed: false,
            check_factor: 1.25,
            peak_rss_bytes: None,
            bytes_per_core: None,
        }
    }

    #[test]
    fn matrix_covers_required_space() {
        let m = conformance_matrix();
        assert_eq!(m.len(), 9);
        for strategy in [EvalStrategy::Swar, EvalStrategy::Sparse] {
            for scheduling in [CoreScheduling::Sweep, CoreScheduling::Active] {
                for threads in [1, 8] {
                    assert!(
                        m.iter().any(|v| v.strategy == strategy
                            && v.scheduling == scheduling
                            && v.threads == threads),
                        "matrix misses {strategy:?}/{scheduling:?}/t{threads}"
                    );
                }
            }
        }
        assert!(m.iter().any(|v| v.telemetry));
        // Every timed variant is drawn from the verified matrix.
        let timed = timed_variants();
        assert!(timed.iter().all(|t| m.contains(t)));
    }

    #[test]
    fn variant_labels_are_stable() {
        let v = Variant {
            strategy: EvalStrategy::Swar,
            scheduling: CoreScheduling::Active,
            threads: 8,
            telemetry: false,
        };
        assert_eq!(v.label(), "active_swar_t8");
        let t = Variant {
            strategy: EvalStrategy::Swar,
            scheduling: CoreScheduling::Sweep,
            threads: 1,
            telemetry: true,
        };
        assert_eq!(t.label(), "sweep_swar_t1_telemetry");
    }

    #[test]
    fn check_flags_regression_divergence_and_loss() {
        let host = Host {
            cpus: 1,
            os: "linux",
        };
        let baseline = vec![
            record("w", "a", 100.0, 1, 1),
            record("w", "b", 100.0, 2, 1),
            record("w", "c", 100.0, 3, 1),
        ];
        let fresh = vec![
            record("w", "a", 200.0, 1, 1), // regressed (2.0 > 1.25)
            record("w", "b", 100.0, 9, 1), // census diverged
            // "c" missing
            record("w", "d", 50.0, 4, 1), // new, informational
        ];
        let verdicts = check(&baseline, &fresh, host);
        let by = |v: &str| verdicts.iter().find(|x| x.variant == v).unwrap().clone();
        assert_eq!(by("a").status, VerdictStatus::Regressed);
        assert!(by("a").failing());
        assert_eq!(by("b").status, VerdictStatus::CensusDiverged);
        assert_eq!(by("c").status, VerdictStatus::Missing);
        assert_eq!(by("d").status, VerdictStatus::New);
        assert!(!by("d").failing());
    }

    #[test]
    fn oversubscribed_records_get_wider_timing_slack() {
        let host = Host {
            cpus: 1,
            os: "linux",
        };
        let mut base = record("w", "t8", 100.0, 1, 1);
        base.oversubscribed = true;
        let mut fresh = record("w", "t8", 170.0, 1, 1);
        fresh.oversubscribed = true;
        // 1.7 > check_factor 1.25, but within 1.25 × OVERSUBSCRIBED_SLACK.
        let verdicts = check(&[base.clone()], &[fresh.clone()], host);
        assert_eq!(verdicts[0].status, VerdictStatus::Ok);
        // Beyond the widened threshold it still regresses.
        fresh.value = 100.0 * base.check_factor * OVERSUBSCRIBED_SLACK + 1.0;
        let verdicts = check(&[base.clone()], &[fresh.clone()], host);
        assert_eq!(verdicts[0].status, VerdictStatus::Regressed);
        // Census divergence is never excused by oversubscription.
        fresh.value = 100.0;
        fresh.census_checksum = 2;
        let verdicts = check(&[base], &[fresh], host);
        assert_eq!(verdicts[0].status, VerdictStatus::CensusDiverged);
        assert!(verdicts[0].failing());
    }

    #[test]
    fn timing_regression_on_foreign_host_is_advisory_but_divergence_is_not() {
        let host = Host {
            cpus: 8,
            os: "linux",
        };
        let baseline = vec![record("w", "a", 100.0, 1, 1), record("w", "b", 100.0, 2, 1)];
        let fresh = vec![record("w", "a", 500.0, 1, 8), record("w", "b", 100.0, 7, 8)];
        let verdicts = check(&baseline, &fresh, host);
        assert_eq!(verdicts[0].status, VerdictStatus::Regressed);
        assert!(verdicts[0].cpus_mismatch);
        assert!(!verdicts[0].failing(), "foreign-host timing is advisory");
        assert!(verdicts[0].to_line().contains("\"cpus_mismatch\":true"));
        assert!(verdicts[1].failing(), "census divergence always gates");
    }

    #[test]
    fn memory_regression_gates_even_on_foreign_hosts() {
        let host = Host {
            cpus: 8,
            os: "linux",
        };
        let mut base = record("w", "a", 100.0, 1, 1); // baseline from a 1-cpu box
        base.peak_rss_bytes = Some(100 << 20);
        base.bytes_per_core = Some((100 << 20) / 64);
        // Timing fine, residency blown past check_factor 1.25.
        let mut fresh = record("w", "a", 100.0, 1, 8);
        fresh.peak_rss_bytes = Some(200 << 20);
        fresh.bytes_per_core = Some((200 << 20) / 64);
        let verdicts = check(&[base.clone()], &[fresh.clone()], host);
        assert_eq!(verdicts[0].status, VerdictStatus::MemoryRegressed);
        assert_eq!(verdicts[0].mem_ratio, Some(2.0));
        assert!(verdicts[0].cpus_mismatch);
        assert!(verdicts[0].failing(), "memory regression is never advisory");
        assert!(verdicts[0].to_line().contains("\"mem_ratio\":2.000"));
        // Within threshold: ok, ratio still reported.
        fresh.peak_rss_bytes = Some(110 << 20);
        let verdicts = check(&[base.clone()], &[fresh.clone()], host);
        assert_eq!(verdicts[0].status, VerdictStatus::Ok);
        assert!(verdicts[0].mem_ratio.is_some());
        // A schema-1 baseline (no memory fields) yields no memory verdict.
        base.peak_rss_bytes = None;
        fresh.peak_rss_bytes = Some(1 << 40);
        let verdicts = check(&[base], &[fresh], host);
        assert_eq!(verdicts[0].status, VerdictStatus::Ok);
        assert_eq!(verdicts[0].mem_ratio, None);
    }

    #[test]
    fn tick_override_unpins_the_checksum() {
        let def = crate::corpus::find("nemo_8x8_lo").expect("corpus entry");
        let opts = SweepOptions {
            reps: 3,
            ticks: Some(7),
        };
        let eff = opts.effective_def(&def);
        assert_eq!(eff.measure, 7);
        assert_eq!(eff.checksum, None);
        assert_eq!(eff.warmup, def.warmup);
        let default = SweepOptions::default().effective_def(&def);
        assert_eq!(default.measure, def.measure);
        assert_eq!(default.checksum, def.checksum);
    }
}
