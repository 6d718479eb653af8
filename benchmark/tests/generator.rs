//! The copied generator against the corpus it was copied from: equal
//! generators produce equal checksums, and the corpus pins its own.

use brainsim_benchmark::gen::{
    build, Fnv1a, NetDef, Stimulus, DENSE_8X8, NEMO_32X32_SPARSE, NEMO_64X64_EDGE, NEMO_64X64_FULL,
    NEMO_8X8_HI,
};

/// The corpus's conformance protocol: drive, tick, fold, then the census.
fn corpus_checksum(def: &NetDef) -> u64 {
    let mut chip = build(def, 1);
    let mut stim = Stimulus::new(def, 0);
    let mut hash = Fnv1a::default();
    for _ in 0..def.pin_ticks {
        stim.generate();
        let now = chip.now();
        for (x, y, word, bits) in stim.words() {
            chip.inject_word(x, y, word, bits, now).unwrap();
        }
        hash.write_tick(&chip.tick());
    }
    hash.with_census(&chip.census())
}

#[test]
fn reproduces_the_pins_of_the_four_chip_workloads() {
    for def in [
        DENSE_8X8,
        NEMO_64X64_EDGE,
        NEMO_64X64_FULL,
        NEMO_32X32_SPARSE,
    ] {
        assert_eq!(corpus_checksum(&def), def.pin, "{}", def.name);
    }
}

#[test]
fn reproduces_the_pin_of_the_tenant_shape() {
    assert_eq!(corpus_checksum(&NEMO_8X8_HI), NEMO_8X8_HI.pin);
}

#[test]
fn is_byte_deterministic() {
    for def in [NEMO_8X8_HI, NEMO_32X32_SPARSE, NEMO_64X64_EDGE.salted(7)] {
        let (a, b) = (build(&def, 1), build(&def, 1));
        assert_eq!(
            a.checkpoint().to_bytes(),
            b.checkpoint().to_bytes(),
            "{}",
            def.name
        );
    }
}

#[test]
fn a_salt_changes_the_network_and_unpins_it() {
    let salted = NEMO_8X8_HI.salted(1);
    assert_eq!(salted.expected(1), None);
    assert_eq!(NEMO_8X8_HI.expected(0), Some(NEMO_8X8_HI.pin));
    assert_ne!(corpus_checksum(&salted), NEMO_8X8_HI.pin);
}

#[test]
fn stimulus_repeats_and_lanes_differ() {
    let draw = |lane: usize| {
        let mut stim = Stimulus::new(&NEMO_8X8_HI, lane);
        stim.generate();
        stim.words().collect::<Vec<_>>()
    };
    assert_eq!(draw(0), draw(0));
    assert_ne!(draw(0), draw(1));
    assert!(draw(0)
        .iter()
        .all(|&(x, y, word, bits)| x < 8 && y < 8 && word == 0 && bits != 0));
}
