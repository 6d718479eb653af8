//! Differential proof that the batched many-chip backend is unobservable:
//! for every `batch` corpus entry, every lane of a `ChipBatch` — each lane
//! consuming its own salted drive stream — produces the bit-identical
//! per-tick raster checksum and final event census of a solo `Chip` run
//! with the same seed, drive, and fault plan, at every Phase B worker
//! count, and lane 0 (the canonical stream) reproduces the entry's pinned
//! checksum. The per-lane fault-plan case also runs with scalar-oracle
//! lanes, whose cores are never fusible, proving the solo-degraded batch
//! walk is equally faithful.
//!
//! Set `BRAINSIM_TEST_THREADS` to add an extra thread count to the matrix
//! (the CI `test` job runs the suite with 1, 8 and 2).

use brainsim::chip::{ChipBatch, TelemetryConfig};
use brainsim::core::EvalStrategy;
use brainsim::faults::FaultPlan;
use brainsim_bench::corpus::{self, WorkloadDef};
use brainsim_bench::sweep;

/// The lane-differential subset of `corpus::test_defs`: in release every
/// entry but `nemo_64x64_full`, in debug the two 8×8 smoke shapes.
fn batch_defs() -> Vec<WorkloadDef> {
    let mut defs = corpus::test_defs();
    defs.retain(|d| d.batch);
    defs
}

/// Thread counts under test: serial and a small pool, plus whatever the
/// CI matrix injects via `BRAINSIM_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2];
    if let Some(n) = std::env::var("BRAINSIM_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

#[test]
fn every_lane_matches_its_solo_twin_at_eight_lanes() {
    for def in batch_defs() {
        let verified = sweep::verify_batch_workload(&def, 8)
            .unwrap_or_else(|e| panic!("batch conformance failure: {e}"));
        assert_eq!(
            Some(verified.lane_checksums[0]),
            def.checksum,
            "{}: lane 0 drifted from the pinned checksum",
            def.name
        );
        assert_eq!(verified.lane_checksums.len(), 8);
        // Salted drive streams must actually differ — identical lanes
        // would make the differential vacuous.
        assert!(
            verified.lane_checksums.windows(2).any(|w| w[0] != w[1]),
            "{}: all lanes produced identical runs",
            def.name
        );
    }
}

#[test]
fn lane_identity_is_thread_count_invariant() {
    // One representative entry per thread count keeps the suite
    // tier-1-sized; the 8-lane sweep above covers every `batch` entry.
    let def = batch_defs().remove(0);
    for threads in thread_counts() {
        sweep::verify_batch_workload_threads(&def, 2, threads)
            .unwrap_or_else(|e| panic!("batch conformance failure at t{threads}: {e}"));
    }
}

#[test]
fn per_lane_fault_plans_diverge_without_breaking_identity() {
    // Distinct fault plans per lane: lane 0 clean, lane 1 crossbar-burning
    // synapse faults, lane 2 dead/stuck neurons + link drops. Every lane
    // must still equal a solo chip carrying the same plan and drive — on
    // the fused SWAR path and with `Sparse` lanes, where no core is fusible
    // and the whole batch walk degrades to solo ticks.
    for strategy in [EvalStrategy::Swar, EvalStrategy::Sparse] {
        per_lane_fault_plans_stay_bit_identical(strategy);
    }
}

fn per_lane_fault_plans_stay_bit_identical(strategy: EvalStrategy) {
    let def = batch_defs().remove(0);
    let plans: [Option<FaultPlan>; 3] = [
        None,
        Some(
            FaultPlan::new(u64::from(def.seed) ^ 0xD1F0)
                .with_synapse_stuck_one(0.03)
                .with_synapse_stuck_zero(0.03),
        ),
        Some(
            FaultPlan::new(u64::from(def.seed) ^ 0xD1F1)
                .with_dead_neuron(0.05)
                .with_stuck_neuron(0.01)
                .with_link_drop(0.05),
        ),
    ];

    let build = || {
        brainsim_bench::corpus::build_workload(
            &def,
            strategy,
            brainsim::chip::CoreScheduling::Sweep,
            1,
        )
        .0
    };
    let proto = build();
    let mut batch = ChipBatch::new_replicas(&proto, plans.len()).expect("batch");
    let mut twins: Vec<brainsim::chip::Chip> = (0..plans.len()).map(|_| build()).collect();
    for (lane, plan) in plans.iter().enumerate() {
        if let Some(plan) = plan {
            batch.set_fault_plan_lane(lane, plan);
            twins[lane].set_fault_plan(plan);
        }
    }
    // Telemetry on one lane and its twin: projections must match too.
    batch
        .lane_mut(1)
        .enable_telemetry(TelemetryConfig::default());
    twins[1].enable_telemetry(TelemetryConfig::default());

    let mut noises: Vec<brainsim::neuron::Lfsr> = (0..plans.len())
        .map(|lane| brainsim::neuron::Lfsr::new(sweep::lane_drive_seed(&def, lane)))
        .collect();
    let mut twin_noises = noises.clone();
    let words = def.axons.div_ceil(64);
    let word_drive = |noise: &mut brainsim::neuron::Lfsr| -> Vec<u64> {
        (0..words)
            .map(|w| {
                let lanes = (def.axons - w * 64).min(64);
                let mut bits = 0u64;
                for b in 0..lanes {
                    bits |= u64::from(noise.bernoulli_256(def.drive_rate)) << b;
                }
                bits
            })
            .collect()
    };
    for _ in 0..def.ticks {
        let t = batch.now();
        for lane in 0..plans.len() {
            for index in 0..def.structured() {
                let (x, y) = (index % def.width, index / def.width);
                for (w, bits) in word_drive(&mut noises[lane]).into_iter().enumerate() {
                    if bits != 0 {
                        batch.inject_word(lane, x, y, w, bits, t).expect("inject");
                    }
                }
                for (w, bits) in word_drive(&mut twin_noises[lane]).into_iter().enumerate() {
                    if bits != 0 {
                        twins[lane].inject_word(x, y, w, bits, t).expect("inject");
                    }
                }
            }
        }
        let summaries = batch.try_tick().expect("batch tick");
        for (lane, twin) in twins.iter_mut().enumerate() {
            assert_eq!(
                summaries[lane],
                twin.try_tick().expect("twin tick"),
                "lane {lane} at tick {t}"
            );
        }
    }
    assert!(batch.lane_diverged(1), "synapse faults must diverge lane 1");
    for (lane, twin) in twins.iter().enumerate() {
        assert_eq!(batch.lane(lane).census(), twin.census(), "lane {lane}");
        assert_eq!(
            batch.lane(lane).fault_stats(),
            twin.fault_stats(),
            "lane {lane}"
        );
        let (batch_tel, twin_tel) = (batch.lane(lane).telemetry(), twin.telemetry());
        assert_eq!(batch_tel.is_some(), twin_tel.is_some(), "lane {lane}");
        if let (Some(a), Some(b)) = (batch_tel, twin_tel) {
            let a: Vec<_> = a.records().cloned().collect();
            let b: Vec<_> = b.records().cloned().collect();
            assert_eq!(a, b, "lane {lane} telemetry records diverged");
        }
        assert_eq!(
            batch.checkpoint_lane(lane).to_bytes(),
            twin.checkpoint().to_bytes(),
            "lane {lane} full state diverged"
        );
    }
}
