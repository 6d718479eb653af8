//! Corpus-driven differential conformance: the `cargo test` smoke mode of
//! the benchmark barometer (ROADMAP item 3).
//!
//! Every corpus entry pins an FNV-1a checksum over its full run (per-tick
//! spike rasters + final event census). These tests run the smoke subset
//! of the corpus through the complete conformance matrix — {Swar, Sparse
//! scalar oracle} × {Sweep, Active} × threads {1, 8} + the telemetry
//! probe — and require every variant to be bit-identical AND to match the
//! pinned value, so a regression in either strategy, scheduler, or the
//! thread pipeline fails here before any benchmark number is trusted.
//!
//! The full (non-smoke) corpus — including both 64×64 / 4096-core
//! entries — is verified by `barometer measure`/`check` in the bench CI
//! job, which refuses to emit timing records until the same matrix
//! agrees.

use brainsim_bench::corpus::{self, WorkloadDef};
use brainsim_bench::record::Host;
use brainsim_bench::sweep;

/// The smoke subset: every corpus entry cheap enough for `cargo test`.
/// Debug builds trim to the 8×8 entries so the default tier-1 suite stays
/// fast; release runs (CI's `test` job) cover all smoke entries up to
/// 32×32.
fn smoke_defs() -> Vec<WorkloadDef> {
    corpus::corpus()
        .into_iter()
        .filter(|d| d.smoke && (!cfg!(debug_assertions) || d.cores() <= 64))
        .collect()
}

#[test]
fn every_smoke_entry_is_bit_identical_across_the_matrix() {
    for def in smoke_defs() {
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

#[test]
fn sweep_records_carry_honest_host_parallelism() {
    let def = corpus::find("nemo_8x8_lo").expect("corpus entry exists");
    // A deliberately tiny host: every multi-threaded variant must be
    // flagged as oversubscribed instead of masquerading as speedup.
    let host = Host {
        cpus: 1,
        os: "linux",
    };
    let records = sweep::sweep_workload(&def, host).expect("entry conforms");
    assert!(!records.is_empty());
    for r in &records {
        assert_eq!(r.host_cpus, 1);
        assert_eq!(r.oversubscribed, r.threads > 1, "{}", r.variant);
        assert_eq!(Some(r.census_checksum), def.checksum, "{}", r.variant);
        assert_eq!(r.workload, def.name);
    }
    assert!(
        records.iter().any(|r| r.threads == 8 && r.oversubscribed),
        "the threaded variants must carry the oversubscription flag"
    );
}
