//! `ChipBatch` lanes are independent chips that share immutable crossbar
//! storage: a lane carrying its own fault plan — including one that burns
//! synapse faults and so must copy-on-write its arena slice — stays
//! bit-identical to a solo `Chip` with the same seed, drive and plan, and
//! leaves its sibling clones bit-identical to theirs: per-tick summaries,
//! final census, fault statistics, telemetry records and checkpoint bytes,
//! under both the `Swar` kernel and the `Sparse` scalar oracle.

use brainsim::chip::{ChipBatch, TelemetryConfig};
use brainsim::core::EvalStrategy;
use brainsim::faults::FaultPlan;
use brainsim_bench::corpus;
use brainsim_bench::sweep;

#[test]
fn per_lane_fault_plans_diverge_without_breaking_identity() {
    // Distinct fault plans per lane: lane 0 clean, lane 1 crossbar-burning
    // synapse faults, lane 2 dead/stuck neurons + link drops. Every lane
    // must still equal a solo chip carrying the same plan and drive.
    for strategy in [EvalStrategy::Swar, EvalStrategy::Sparse] {
        per_lane_fault_plans_stay_bit_identical(strategy);
    }
}

fn per_lane_fault_plans_stay_bit_identical(strategy: EvalStrategy) {
    let def = corpus::test_defs().remove(0);
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

    let build = || corpus::build_workload(&def, strategy, 1).0;
    let proto = build();
    let mut batch = ChipBatch::new_replicas(&proto, plans.len()).expect("batch");
    let mut twins: Vec<brainsim::chip::Chip> = (0..plans.len()).map(|_| build()).collect();
    for (lane, plan) in plans.iter().enumerate() {
        if let Some(plan) = plan {
            batch.lane_mut(lane).set_fault_plan(plan);
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
            batch.lane(lane).checkpoint().to_bytes(),
            twin.checkpoint().to_bytes(),
            "lane {lane} full state diverged"
        );
    }
}
