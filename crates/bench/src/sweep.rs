//! The differential conformance layer: runs a corpus entry on the production
//! configuration and on each single-axis departure from it — thread count,
//! kernel oracle, scheduler oracle, telemetry — and proves every run
//! bit-identical to the others and to the entry's pinned checksum.

use brainsim_chip::TelemetryConfig;
use brainsim_core::EvalStrategy;
use brainsim_energy::EventCensus;
use brainsim_neuron::Lfsr;

use crate::corpus::{workload_builder, Fnv1a, WorkloadDef};

/// One simulator configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Core evaluation strategy.
    pub strategy: EvalStrategy,
    /// Scheduler oracle: evaluate every core every tick
    /// (`ChipBuilder::sweep_reference`) instead of the active set.
    pub sweep: bool,
    /// Worker threads.
    pub threads: usize,
    /// Whether telemetry instrumentation is enabled.
    pub telemetry: bool,
}

impl Variant {
    /// What a default-configured chip runs: the SWAR kernel under
    /// active-core scheduling, one thread, telemetry off.
    pub const PRODUCTION: Variant = Variant {
        strategy: EvalStrategy::Swar,
        sweep: false,
        threads: 1,
        telemetry: false,
    };

    /// Stable label, e.g. `sweep_swar_t1` or `active_sparse_t8`.
    pub fn label(&self) -> String {
        let sched = if self.sweep { "sweep" } else { "active" };
        let strat = match self.strategy {
            EvalStrategy::Swar => "swar",
            EvalStrategy::Sparse => "sparse",
        };
        let tel = if self.telemetry { "_telemetry" } else { "" };
        format!("{sched}_{strat}_t{}{tel}", self.threads)
    }
}

/// The conformance matrix every corpus entry must pass: production plus
/// one axis at a time — 8 threads, the scalar kernel oracle, the sweep
/// scheduler oracle, telemetry on. 5 runs per entry, all required to be
/// bit-identical.
pub fn conformance_matrix() -> Vec<Variant> {
    let production = Variant::PRODUCTION;
    vec![
        production,
        Variant {
            threads: 8,
            ..production
        },
        Variant {
            strategy: EvalStrategy::Sparse,
            ..production
        },
        Variant {
            sweep: true,
            ..production
        },
        Variant {
            telemetry: true,
            ..production
        },
    ]
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
    let (mut builder, _) = workload_builder(def, variant.strategy, variant.threads, false);
    if variant.sweep {
        builder.sweep_reference();
    }
    let mut chip = builder.build().expect("corpus workload builds");
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
        let labels: Vec<String> = m.iter().map(Variant::label).collect();
        assert_eq!(
            labels,
            [
                "active_swar_t1",
                "active_swar_t8",
                "active_sparse_t1",
                "sweep_swar_t1",
                "active_swar_t1_telemetry",
            ]
        );
        // Production plus one axis at a time: a divergence names its axis.
        let p = Variant::PRODUCTION;
        assert_eq!(m[0], p);
        for v in &m[1..] {
            let departures = [
                v.strategy != p.strategy,
                v.sweep != p.sweep,
                v.threads != p.threads,
                v.telemetry != p.telemetry,
            ];
            assert_eq!(
                departures.iter().filter(|&&d| d).count(),
                1,
                "{} must differ from production on exactly one field",
                v.label()
            );
        }
    }

    #[test]
    fn variant_labels_are_stable() {
        let v = Variant {
            threads: 8,
            ..Variant::PRODUCTION
        };
        assert_eq!(v.label(), "active_swar_t8");
        let t = Variant {
            sweep: true,
            telemetry: true,
            ..Variant::PRODUCTION
        };
        assert_eq!(t.label(), "sweep_swar_t1_telemetry");
    }
}
