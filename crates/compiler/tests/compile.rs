//! End-to-end compiler tests: logical network → chip, checked against the
//! direct interpreter.

use brainsim_compiler::{
    compile, interp::Interpreter, repair, CompileError, CompileOptions, CompileReport, NetworkMap,
};
use brainsim_corelet::{connectors, Corelet, NeuronId, NodeRef};
use brainsim_neuron::NeuronConfig;

fn threshold(t: u32) -> NeuronConfig {
    NeuronConfig::builder().threshold(t).build().unwrap()
}

fn small_options() -> CompileOptions {
    CompileOptions {
        core_axons: 16,
        core_neurons: 16,
        relay_reserve: 4,
        anneal_iters: 500,
        ..CompileOptions::default()
    }
}

/// Raster equality helper against the interpreter oracle.
fn assert_matches_interpreter(
    corelet: &Corelet,
    options: &CompileOptions,
    ticks: u64,
    stimulus: impl Fn(u64) -> Vec<usize> + Copy,
) {
    let mut compiled = compile(corelet.network(), options).expect("compiles");
    let chip_raster = compiled.run(ticks, stimulus);
    let mut oracle = Interpreter::new(corelet.network(), 1);
    let oracle_raster = oracle.run(ticks, stimulus);
    assert_eq!(chip_raster, oracle_raster, "corelet '{}'", corelet.name());
}

#[test]
fn single_relay_round_trip() {
    let mut c = Corelet::new("relay", 1);
    let n = c.add_neuron(threshold(1));
    c.connect(NodeRef::Input(0), n, 1, 1).unwrap();
    c.mark_output(n).unwrap();
    assert_matches_interpreter(&c, &small_options(), 6, |t| {
        if t == 0 {
            vec![0]
        } else {
            vec![]
        }
    });
}

#[test]
fn chain_with_mixed_delays_round_trip() {
    let mut c = Corelet::new("chain", 1);
    let a = c.add_neuron(threshold(2));
    let b = c.add_neuron(threshold(3));
    let d = c.add_neuron(threshold(1));
    c.connect(NodeRef::Input(0), a, 2, 1).unwrap();
    c.connect(NodeRef::Neuron(a), b, 3, 4).unwrap();
    c.connect(NodeRef::Neuron(b), d, 1, 2).unwrap();
    c.mark_output(d).unwrap();
    assert_matches_interpreter(&c, &small_options(), 20, |t| {
        if t % 5 == 0 {
            vec![0]
        } else {
            vec![]
        }
    });
}

#[test]
fn network_spanning_many_cores_round_trip() {
    // 40 neurons with core capacity 16 → at least 4 cores (with reserve 4,
    // 12 usable per core). Feed-forward layers with delay-2 links so the
    // splitter constraint is satisfied.
    let mut c = Corelet::new("layers", 4);
    let layer1 = c.add_population(threshold(1), 20);
    let layer2 = c.add_population(threshold(2), 20);
    for (i, &n) in layer1.iter().enumerate() {
        c.connect(NodeRef::Input(i % 4), n, 1, 1).unwrap();
    }
    for (i, &n2) in layer2.iter().enumerate() {
        let pre = layer1[i % layer1.len()];
        c.connect(NodeRef::Neuron(pre), n2, 2, 2).unwrap();
        c.connect(NodeRef::Neuron(layer1[(i + 7) % layer1.len()]), n2, 2, 3)
            .unwrap();
    }
    for &n2 in &layer2 {
        c.mark_output(n2).unwrap();
    }
    let compiled = compile(c.network(), &small_options()).expect("compiles");
    assert!(
        compiled.report().cores >= 3,
        "cores = {}",
        compiled.report().cores
    );
    assert_matches_interpreter(&c, &small_options(), 25, |t| {
        if t % 3 == 0 {
            vec![0, 2]
        } else if t % 3 == 1 {
            vec![1]
        } else {
            vec![3]
        }
    });
}

#[test]
fn splitter_preserves_end_to_end_delays() {
    // One source fanning out to many targets with distinct delays — forces
    // hub + relay insertion; delays must still be exact.
    let mut c = Corelet::new("fanout", 1);
    let src = c.add_neuron(threshold(1));
    c.connect(NodeRef::Input(0), src, 1, 1).unwrap();
    let targets = c.add_population(threshold(1), 30);
    for (i, &t) in targets.iter().enumerate() {
        let delay = 2 + (i % 8) as u8;
        c.connect(NodeRef::Neuron(src), t, 1, delay).unwrap();
        c.mark_output(t).unwrap();
    }
    let compiled = compile(c.network(), &small_options()).expect("compiles");
    assert!(compiled.report().relays > 0, "fan-out must insert relays");
    assert_matches_interpreter(&c, &small_options(), 16, |t| {
        if t == 0 {
            vec![0]
        } else {
            vec![]
        }
    });
}

#[test]
fn output_tap_adds_one_tick_for_tapped_ports() {
    // An output neuron that also drives an internal synapse gets a tap
    // relay: its port fires one tick after the neuron itself.
    let mut c = Corelet::new("tap", 1);
    let a = c.add_neuron(threshold(1));
    let b = c.add_neuron(threshold(1));
    c.connect(NodeRef::Input(0), a, 1, 1).unwrap();
    c.connect(NodeRef::Neuron(a), b, 1, 1).unwrap();
    c.mark_output(a).unwrap(); // tapped (has fan-out)
    c.mark_output(b).unwrap(); // direct
    let mut compiled = compile(c.network(), &small_options()).unwrap();
    compiled.inject(0, 0).unwrap();
    let raster = compiled.run(5, |_| vec![]);
    // a fires at t=1; the tapped port reports with the fixed 2-tick tap
    // latency at t=3. b fires (and reports directly) at t=2.
    let port_a: Vec<usize> = raster
        .iter()
        .enumerate()
        .filter_map(|(t, r)| r[0].then_some(t))
        .collect();
    let port_b: Vec<usize> = raster
        .iter()
        .enumerate()
        .filter_map(|(t, r)| r[1].then_some(t))
        .collect();
    assert_eq!(port_a, vec![3]);
    assert_eq!(port_b, vec![2]);
}

#[test]
fn four_distinct_weights_map_to_types() {
    let mut c = Corelet::new("weights", 4);
    let n = c.add_neuron(threshold(10));
    c.connect(NodeRef::Input(0), n, 1, 1).unwrap();
    c.connect(NodeRef::Input(1), n, 2, 1).unwrap();
    c.connect(NodeRef::Input(2), n, 3, 1).unwrap();
    c.connect(NodeRef::Input(3), n, 4, 1).unwrap();
    c.mark_output(n).unwrap();
    assert_matches_interpreter(&c, &small_options(), 8, |t| {
        if t == 0 {
            vec![0, 1, 2, 3]
        } else if t == 3 {
            vec![2, 3]
        } else {
            vec![]
        }
    });
}

#[test]
fn five_distinct_weights_rejected() {
    let mut c = Corelet::new("too-many", 5);
    let n = c.add_neuron(threshold(10));
    for (i, w) in [1, 2, 3, 4, 5].into_iter().enumerate() {
        c.connect(NodeRef::Input(i), n, w, 1).unwrap();
    }
    let err = compile(c.network(), &small_options()).unwrap_err();
    assert_eq!(
        err,
        CompileError::TooManyWeights {
            neuron: 0,
            distinct: 5
        }
    );
}

#[test]
fn delay_one_multicore_fanout_rejected() {
    // Force the source's targets into different cores (capacity 4 neurons
    // with reserve 2 → 2 usable per core) with delay-1 links.
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        anneal_iters: 0,
        ..CompileOptions::default()
    };
    let mut c = Corelet::new("d1", 1);
    let src = c.add_neuron(threshold(1));
    c.connect(NodeRef::Input(0), src, 1, 1).unwrap();
    let targets = c.add_population(threshold(1), 6);
    for &t in &targets {
        c.connect(NodeRef::Neuron(src), t, 1, 1).unwrap();
    }
    let err = compile(c.network(), &options).unwrap_err();
    assert!(
        matches!(err, CompileError::DelayTooSmallForFanout { .. }),
        "got {err:?}"
    );
}

#[test]
fn parallel_synapses_merge_additively() {
    let mut c = Corelet::new("parallel", 1);
    let n = c.add_neuron(threshold(6));
    // Three parallel weight-2 synapses, same delay → merged weight 6.
    for _ in 0..3 {
        c.connect(NodeRef::Input(0), n, 2, 1).unwrap();
    }
    c.mark_output(n).unwrap();
    let mut compiled = compile(c.network(), &small_options()).unwrap();
    compiled.inject(0, 0).unwrap();
    let raster = compiled.run(3, |_| vec![]);
    assert!(
        raster[1][0],
        "merged weight must reach threshold in one event"
    );
}

#[test]
fn random_network_matches_interpreter() {
    let mut c = Corelet::new("random", 3);
    let pop = c.add_population(threshold(3), 24);
    let pres: Vec<NodeRef> = pop.iter().map(|&p| NodeRef::Neuron(p)).collect();
    // Random recurrent wiring with delay 2 (splitter-safe) and weight 2.
    connectors::random(&mut c, &pres, &pop, 2, 2, 40, 99).unwrap();
    for i in 0..3 {
        c.connect(NodeRef::Input(i), pop[i * 5], 3, 1).unwrap();
    }
    for &p in pop.iter().take(6) {
        c.mark_output(p).unwrap();
    }
    // Mark-output on neurons with fan-out inserts taps (+1 tick); the
    // interpreter reports fire ticks. Compare with shifted expectation by
    // checking spike COUNTS per port instead of exact ticks when tapped.
    let mut compiled = compile(c.network(), &small_options()).unwrap();
    let stim = |t: u64| {
        if t.is_multiple_of(4) {
            vec![0, 1, 2]
        } else {
            vec![]
        }
    };
    let chip_raster = compiled.run(40, stim);
    let mut oracle = Interpreter::new(c.network(), 1);
    let oracle_raster = oracle.run(40, stim);
    for port in 0..6 {
        let chip_count: usize = chip_raster.iter().filter(|r| r[port]).count();
        let oracle_count: usize = oracle_raster.iter().filter(|r| r[port]).count();
        // Tap latency can defer the last spike past the horizon by 1.
        assert!(
            (chip_count as i64 - oracle_count as i64).abs() <= 1,
            "port {port}: chip {chip_count} vs oracle {oracle_count}"
        );
    }
}

#[test]
fn annealing_does_not_worsen_placement() {
    let mut c = Corelet::new("placement", 2);
    let pop = c.add_population(threshold(2), 60);
    for (i, &n) in pop.iter().enumerate() {
        c.connect(NodeRef::Input(i % 2), n, 2, 1).unwrap();
        if i > 0 {
            c.connect(NodeRef::Neuron(pop[i - 1]), n, 2, 2).unwrap();
        }
    }
    let compiled = compile(c.network(), &small_options()).unwrap();
    let report = compiled.report();
    assert!(report.annealed_cost <= report.greedy_cost);
    assert!(report.cores > 1);
}

#[test]
fn grid_too_small_rejected() {
    let options = CompileOptions {
        grid: Some((1, 1)),
        core_neurons: 4,
        relay_reserve: 0,
        ..small_options()
    };
    let mut c = Corelet::new("big", 1);
    let pop = c.add_population(threshold(1), 20);
    for &n in &pop {
        c.connect(NodeRef::Input(0), n, 1, 1).unwrap();
    }
    let err = compile(c.network(), &options).unwrap_err();
    assert!(matches!(err, CompileError::GridTooSmall { .. }));
}

#[test]
fn faulty_cells_are_avoided_and_behaviour_is_preserved() {
    // A multi-core network placed on a grid with defective cells: no core
    // may land on a fault, the grid grows to compensate, and the observable
    // behaviour still matches the oracle.
    let mut c = Corelet::new("yield", 2);
    let pop = c.add_population(threshold(2), 40);
    for (i, &n) in pop.iter().enumerate() {
        c.connect(NodeRef::Input(i % 2), n, 2, 1).unwrap();
        if i >= 1 {
            c.connect(NodeRef::Neuron(pop[i - 1]), n, 2, 2).unwrap();
        }
    }
    let r1 = c.add_neuron(threshold(1));
    c.connect(NodeRef::Neuron(pop[39]), r1, 1, 2).unwrap();
    c.mark_output(r1).unwrap();

    let faulty = vec![(0, 0), (1, 1), (0, 1)];
    let options = CompileOptions {
        faulty_cells: faulty.clone(),
        ..small_options()
    };
    let mut compiled = compile(c.network(), &options).expect("compiles around faults");
    // No core placed on a faulty cell: run and check census cores > 0 while
    // injecting; the placement itself is validated via the chip config and
    // the fact that each faulty cell hosts no neurons.
    for &(x, y) in &faulty {
        let core = compiled.chip().core(x, y).expect("cell on grid");
        assert!(
            (0..core.neurons())
                .all(|n| matches!(core.destination(n), brainsim_core::Destination::Disabled)),
            "faulty cell ({x},{y}) hosts logic"
        );
    }
    let stim = |t: u64| {
        if t.is_multiple_of(2) {
            vec![0, 1]
        } else {
            vec![]
        }
    };
    let chip_raster = compiled.run(60, stim);
    let mut oracle = Interpreter::new(c.network(), 1);
    assert_eq!(chip_raster, oracle.run(60, stim));
}

#[test]
fn compilation_is_deterministic() {
    let build = || {
        let mut c = Corelet::new("det", 2);
        let pop = c.add_population(threshold(2), 30);
        for (i, &n) in pop.iter().enumerate() {
            c.connect(NodeRef::Input(i % 2), n, 2, 1).unwrap();
        }
        for &n in pop.iter().take(4) {
            c.mark_output(n).unwrap();
        }
        let mut compiled = compile(c.network(), &small_options()).unwrap();
        compiled.run(20, |t| if t % 2 == 0 { vec![0] } else { vec![1] })
    };
    assert_eq!(build(), build());
}

#[test]
fn report_counts_are_consistent() {
    let mut c = Corelet::new("report", 1);
    let NeuronId(_) = {
        let src = c.add_neuron(threshold(1));
        c.connect(NodeRef::Input(0), src, 1, 1).unwrap();
        let targets = c.add_population(threshold(1), 10);
        for &t in &targets {
            c.connect(NodeRef::Neuron(src), t, 1, 2).unwrap();
        }
        src
    };
    let compiled = compile(c.network(), &small_options()).unwrap();
    let r = compiled.report();
    assert_eq!(r.physical_neurons, 11 + r.relays);
    assert!(r.axons_used >= 2);
    assert!(r.grid.0 * r.grid.1 >= r.cores);
}

/// A relay chain that maps to several cores: `n` neurons, threshold 1,
/// chained with delay 1, head driven by input 0, tail marked output.
fn chain(n: usize) -> Corelet {
    let mut c = Corelet::new("chain", 1);
    let pop = c.add_population(threshold(1), n);
    c.connect(NodeRef::Input(0), pop[0], 1, 1).unwrap();
    for w in pop.windows(2) {
        c.connect(NodeRef::Neuron(w[0]), w[1], 1, 2).unwrap();
    }
    c.mark_output(pop[n - 1]).unwrap();
    c
}

#[test]
fn duplicate_faulty_cells_do_not_double_count_capacity() {
    // 6 neurons at 2 logical slots per core -> 3 cores; a 2x2 grid with
    // two *distinct* defects has exactly enough healthy cells. Before the
    // normalisation fix the duplicated entry was double-counted and this
    // rejected with GridTooSmall.
    let c = chain(6);
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((2, 2)),
        faulty_cells: vec![(0, 0), (0, 0), (0, 0)],
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("duplicates must collapse");
    assert_eq!(
        compiled.network_map().faulty_cells,
        vec![(0, 0)],
        "retained map holds the normalised set"
    );
    assert!(compiled
        .network_map()
        .positions
        .iter()
        .all(|&p| p != (0, 0)));
}

#[test]
fn out_of_grid_faulty_cell_is_a_typed_error() {
    let c = chain(2);
    let options = CompileOptions {
        grid: Some((2, 2)),
        faulty_cells: vec![(5, 1)],
        ..small_options()
    };
    let err = compile(c.network(), &options).unwrap_err();
    assert_eq!(
        err,
        CompileError::FaultyCellOffGrid {
            cell: (5, 1),
            grid: (2, 2)
        }
    );
}

#[test]
fn repair_moves_only_the_condemned_cores() {
    let c = chain(12); // 6 cores at 2 logical slots per core
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((3, 3)),
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("compiles");
    let map = compiled.network_map().clone();
    let condemned = vec![map.positions[2]];

    let repaired = repair(c.network(), &options, &map, &condemned).expect("repairs");
    assert_eq!(repaired.moves.len(), 1, "exactly the condemned core moves");
    assert_eq!(repaired.moves[0].from, condemned[0]);
    assert!(!map.positions.contains(&repaired.moves[0].to));

    let new_map = repaired.compiled.network_map();
    assert!(new_map.faulty_cells.contains(&condemned[0]));
    for (core, (&old, &new)) in map
        .positions
        .iter()
        .zip(new_map.positions.iter())
        .enumerate()
    {
        if core == repaired.moves[0].core {
            assert_ne!(old, new);
        } else {
            assert_eq!(old, new, "healthy core {core} must not move");
        }
    }

    // The repaired network still computes the same function.
    let mut fixed = repaired.compiled;
    let stim = |t: u64| if t.is_multiple_of(3) { vec![0] } else { vec![] };
    let raster = fixed.run(60, stim);
    let mut oracle = Interpreter::new(c.network(), 1);
    assert_eq!(raster, oracle.run(60, stim));
}

#[test]
fn repair_is_deterministic_and_identity_without_condemnations() {
    let c = chain(12);
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((3, 3)),
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("compiles");
    let map = compiled.network_map().clone();

    let identity = repair(c.network(), &options, &map, &[]).expect("repairs");
    assert!(identity.moves.is_empty());
    assert_eq!(identity.compiled.network_map().positions, map.positions);

    let condemned = vec![map.positions[0], map.positions[3]];
    let a = repair(c.network(), &options, &map, &condemned).expect("repair a");
    let b = repair(c.network(), &options, &map, &condemned).expect("repair b");
    assert_eq!(a.moves, b.moves);
    assert_eq!(
        a.compiled.network_map().positions,
        b.compiled.network_map().positions
    );
}

#[test]
fn repair_without_spare_cells_reports_grid_too_small() {
    let c = chain(8); // 4 cores exactly fill a 2x2 grid
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((2, 2)),
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("compiles");
    let map = compiled.network_map().clone();
    let err = repair(c.network(), &options, &map, &[map.positions[1]]).unwrap_err();
    assert!(matches!(err, CompileError::GridTooSmall { .. }));
}

#[test]
fn repair_rejects_off_grid_condemnations() {
    let c = chain(4);
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((2, 2)),
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("compiles");
    let map = compiled.network_map().clone();
    let err = repair(c.network(), &options, &map, &[(9, 9)]).unwrap_err();
    assert!(matches!(err, CompileError::FaultyCellOffGrid { .. }));
}

#[test]
fn overflowing_grid_is_a_typed_error() {
    let c = chain(4);
    for grid in [(usize::MAX, 2), (2, usize::MAX)] {
        let options = CompileOptions {
            core_axons: 8,
            core_neurons: 4,
            relay_reserve: 2,
            grid: Some(grid),
            ..small_options()
        };
        assert_eq!(
            compile(c.network(), &options).unwrap_err(),
            CompileError::GridTooLarge { grid }
        );
    }
}

#[test]
fn repair_on_an_overflowing_retained_grid_is_a_typed_error() {
    let c = chain(4);
    let options = CompileOptions {
        core_axons: 8,
        core_neurons: 4,
        relay_reserve: 2,
        grid: Some((2, 2)),
        ..small_options()
    };
    let compiled = compile(c.network(), &options).expect("compiles");
    for grid in [(usize::MAX, 2), (2, usize::MAX)] {
        let map = NetworkMap {
            grid,
            ..compiled.network_map().clone()
        };
        assert_eq!(
            repair(c.network(), &options, &map, &[]).unwrap_err(),
            CompileError::GridTooLarge { grid }
        );
    }
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the grid, every core's cell and the faulty cells, each
/// coordinate as a little-endian `u64`.
fn map_hash(map: &NetworkMap) -> u64 {
    std::iter::once(&map.grid)
        .chain(&map.positions)
        .chain(&map.faulty_cells)
        .fold(FNV_OFFSET, |h, &(x, y)| {
            let h = fnv1a(h, &(x as u64).to_le_bytes());
            fnv1a(h, &(y as u64).to_le_bytes())
        })
}

/// The benchmark's `lifecycle_compile` corelet, with both random-wiring
/// seeds shifted by `shift`.
fn lifecycle(shift: u32) -> Corelet {
    let mut c = Corelet::new("lifecycle", 4);
    let template = NeuronConfig::builder()
        .threshold(4)
        .leak(-1)
        .build()
        .unwrap();
    let pop = c.add_population(template, 120);
    let pres: Vec<NodeRef> = pop.iter().map(|&p| NodeRef::Neuron(p)).collect();
    connectors::random(&mut c, &pres, &pop, 2, 3, 24, 5 + shift).unwrap();
    connectors::random(&mut c, &pres, &pop, -2, 3, 20, 9 + shift).unwrap();
    for i in 0..4 {
        c.connect(NodeRef::Input(i), pop[i * 17], 4, 1).unwrap();
    }
    for &n in pop.iter().step_by(8) {
        c.mark_output(n).unwrap();
    }
    c
}

/// `(checkpoint FNV-1a, report, network-map FNV-1a)` of one compile.
type Pin = Result<(u64, CompileReport, u64), CompileError>;

/// A successful lifecycle compile on (64, 24, 8) cores; every field but
/// the annealed and random costs is shared by both seed salts.
fn pinned(
    checkpoint: u64,
    shape: (usize, usize, usize, usize, u64, u64),
    annealed_cost: u64,
    random_cost: u64,
    map: u64,
) -> Pin {
    let (cores, side, relays, axons_used, greedy_cost, total_traffic) = shape;
    let report = CompileReport {
        cores,
        grid: (side, side),
        physical_neurons: 120 + relays,
        relays,
        axons_used,
        greedy_cost,
        annealed_cost,
        random_cost,
        total_traffic,
    };
    Ok((checkpoint, report, map))
}

#[test]
fn compiled_networks_are_pinned() {
    // Every constant was recorded before the compiler's typing and
    // placement passes were rewritten for speed (cached per-core colourings,
    // array constraint maps, a one-walk annealer); the rewrite must leave
    // every checkpoint byte, report field, placement and error unchanged.
    let fanout = |neuron| Err(CompileError::DelayTooSmallForFanout { neuron });
    let s0 = (102, 11, 1884, 1993, 27733, 5863);
    let s1 = (91, 10, 1690, 1799, 23783, 5180);
    let s2 = (116, 11, 2304, 2413, 37777, 6865);
    // Indexed [shift][shape][salt]; shapes (64, 24, 8), (256, 256, 32),
    // (32, 16, 4); seed salts 0 and 7.
    let expected: [[[Pin; 2]; 3]; 3] = [
        [
            [
                pinned(
                    0x56ee_6c9f_ba30_8337,
                    s0,
                    27266,
                    43080,
                    0x2cfc_9744_b692_4905,
                ),
                pinned(
                    0x2233_09db_10d6_c2c2,
                    s0,
                    27733,
                    44375,
                    0x7d6e_2011_baed_9422,
                ),
            ],
            [fanout(1208), fanout(1208)],
            [fanout(0), fanout(0)],
        ],
        [
            [
                pinned(
                    0xc26a_b302_f223_6dab,
                    s1,
                    23409,
                    34655,
                    0x4236_ab11_cdbb_3347,
                ),
                pinned(
                    0xad37_9439_9e63_e2fd,
                    s1,
                    23467,
                    33998,
                    0x5d4a_5153_0fb1_ab44,
                ),
            ],
            [fanout(1162), fanout(1162)],
            [fanout(76), fanout(76)],
        ],
        [
            [
                pinned(
                    0xe87e_6367_889c_6ab9,
                    s2,
                    36087,
                    50784,
                    0xe326_2c80_0b6e_6f09,
                ),
                pinned(
                    0xd4bf_1b40_f49f_aa65,
                    s2,
                    36175,
                    50035,
                    0x0358_0ded_c74b_b648,
                ),
            ],
            [fanout(1218), fanout(1218)],
            [fanout(0), fanout(0)],
        ],
    ];
    let shapes = [(64, 24, 8), (256, 256, 32), (32, 16, 4)];
    for (shift, by_shape) in expected.iter().enumerate() {
        let corelet = lifecycle(shift as u32);
        for (&(core_axons, core_neurons, relay_reserve), by_salt) in shapes.iter().zip(by_shape) {
            for (salt, want) in [0u32, 7].into_iter().zip(by_salt) {
                let options = CompileOptions {
                    core_axons,
                    core_neurons,
                    relay_reserve,
                    seed: CompileOptions::default().seed ^ salt,
                    ..CompileOptions::default()
                };
                let got = compile(corelet.network(), &options).map(|c| {
                    (
                        fnv1a(FNV_OFFSET, &c.chip().checkpoint().to_bytes()),
                        *c.report(),
                        map_hash(c.network_map()),
                    )
                });
                assert_eq!(
                    &got, want,
                    "shift {shift}, cores ({core_axons}, {core_neurons}, {relay_reserve}), salt {salt}"
                );
            }
        }
    }
}
