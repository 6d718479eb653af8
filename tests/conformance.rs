//! Corpus-driven differential conformance.
//!
//! Every corpus entry pins an FNV-1a checksum over its full run (per-tick
//! spike rasters + final event census). These tests run the corpus through
//! the conformance matrix — production (`active_t1`) plus one axis at a
//! time: `active_t8`, `sweep_t1` (scheduler oracle), `active_t1_telemetry`
//! — and require every variant to be bit-identical AND to match the pinned
//! value, so a regression in the kernel, the scheduler, the thread pipeline
//! or telemetry fails here, naming its axis or, where every variant moves
//! alike, the pin.
//!
//! Release builds run all ten entries, both 64×64 / 4096-core shapes and
//! the two route-bound `nemo_route_8x4` entries included; debug builds run the two 8×8 `smoke` entries
//! (`corpus::test_defs`). To pin a new entry, add it with `checksum: None`
//! and run `cargo test --release --test conformance`: the failure prints
//! the value to paste.

use brainsim::chip::Chip;
use brainsim_bench::corpus::{self, build_workload};
use brainsim_bench::sweep;

#[test]
fn every_corpus_entry_is_bit_identical_across_the_matrix() {
    for def in corpus::test_defs() {
        let verified =
            sweep::verify_workload(&def).unwrap_or_else(|e| panic!("conformance failure: {e}"));
        assert!(
            verified.census.spikes > 0,
            "{}: workload must actually spike",
            def.name
        );
        assert_eq!(
            Some(verified.checksum),
            def.checksum,
            "{}: checksum drifted from pin",
            def.name
        );
        assert_eq!(
            verified.runs.len(),
            sweep::conformance_matrix().len(),
            "{}: matrix not fully swept",
            def.name
        );
    }
}

#[test]
fn corpus_is_fully_pinned_and_reaches_full_silicon_scale() {
    let defs = corpus::corpus();
    for def in &defs {
        assert!(
            def.checksum.is_some(),
            "{}: corpus entries must carry a pinned checksum",
            def.name
        );
    }
    assert!(
        defs.iter()
            .any(|d| d.cores() == 4096 && d.checksum.is_some()),
        "corpus must include a pinned 64×64 (4096-core) workload"
    );
}

/// Sparse residency as an exact count: on `nemo_64x64_edge` every core
/// outside the 205-core island is a dormant header when built and still is
/// after the entry's full driven run.
#[test]
fn edge_bulk_cores_stay_dormant_through_the_run() {
    // Release only: the entry is not in the debug set.
    let Some(def) = corpus::test_defs()
        .into_iter()
        .find(|d| d.name == "nemo_64x64_edge")
    else {
        return;
    };
    let island = def.structured();
    assert_eq!((island, def.cores() - island), (205, 3891));
    let expected: Vec<bool> = (0..def.cores()).map(|i| i >= island).collect();
    let dormant = |chip: &Chip| -> Vec<bool> {
        (0..def.cores())
            .map(|i| {
                chip.core(i % def.width, i / def.width)
                    .expect("core on the grid")
                    .is_dormant()
            })
            .collect()
    };
    let (mut chip, _) = build_workload(&def, 1);
    assert_eq!(dormant(&chip), expected, "at build");
    brainsim_bench::drive_random_cores(
        &mut chip,
        def.ticks,
        def.drive_rate,
        sweep::lane_drive_seed(&def, 0),
        island,
    );
    assert!(chip.census().spikes > 0, "the island must be active");
    assert_eq!(dormant(&chip), expected, "after the run");
}
