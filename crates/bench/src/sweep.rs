//! The differential conformance layer: runs a corpus entry across the full
//! {eval strategy × scheduler × thread count} matrix and proves every run
//! bit-identical to the others and to the entry's pinned checksum.

use brainsim_chip::{CoreScheduling, TelemetryConfig};
use brainsim_core::EvalStrategy;
use brainsim_energy::EventCensus;
use brainsim_neuron::Lfsr;

use crate::corpus::{build_workload, Fnv1a, WorkloadDef};

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
    /// Stable label, e.g. `sweep_swar_t1` or `active_sparse_t8`.
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

/// The full conformance matrix every corpus entry must pass: {Swar, Sparse
/// scalar oracle} × {Sweep, Active} × threads {1, 8}, plus the
/// telemetry-instrumented probe. 9 runs per entry, all required to be
/// bit-identical.
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

/// Outcome of one variant run over one corpus entry.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final event census.
    pub census: EventCensus,
    /// FNV-1a digest over every tick's raster (tick, spike count, output
    /// ports in deterministic order) and the final census.
    pub checksum: u64,
}

/// Runs one corpus entry under one variant: builds the network, arms the
/// overlay, drives the seeded stimulus for `def.ticks` ticks and folds the
/// per-tick raster into the checksum.
pub fn run_variant(def: &WorkloadDef, variant: &Variant) -> RunResult {
    let (mut chip, _) = build_workload(def, variant.strategy, variant.scheduling, variant.threads);
    if let Some(plan) = def.fault_plan() {
        chip.set_fault_plan(&plan);
    }
    if variant.telemetry {
        chip.enable_telemetry(TelemetryConfig::default());
    }
    let mut noise = Lfsr::new(lane_drive_seed(def, 0));
    let mut hash = Fnv1a::new();
    let structured = def.structured();
    let width = def.width;
    for _ in 0..def.ticks {
        let t = chip.now();
        for index in 0..structured {
            crate::drive_core(
                &mut chip,
                &mut noise,
                index % width,
                index / width,
                def.drive_rate,
                t,
            );
        }
        hash.write_summary(&chip.tick());
    }
    let census = chip.census();
    hash.write_census(&census);
    RunResult {
        census,
        checksum: hash.finish(),
    }
}

/// The drive-stream seed of one replica of an entry. Lane 0 is the
/// canonical stream the pinned checksum was taken under; every further
/// lane salts the seed, so `ChipBatch` lanes (and their solo twins in the
/// differential suites) diverge in stimulus while sharing the network.
pub fn lane_drive_seed(def: &WorkloadDef, lane: usize) -> u32 {
    (def.seed ^ 0x0D21_5EED) ^ (lane as u32).wrapping_mul(0x9E37_79B9)
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
/// bit-identity + the pinned checksum.
pub fn verify_workload(def: &WorkloadDef) -> Result<VerifiedSweep, ConformanceError> {
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
    if def.checksum != Some(reference.checksum) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
