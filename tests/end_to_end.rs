//! Cross-crate integration tests: the full stack from corelet description
//! through compilation to chip execution, checked against the interpreter
//! oracle and the encoding layer.

use brainsim::compiler::{compile, interp::Interpreter, CompileOptions};
use brainsim::corelet::{connectors, Corelet, NodeRef};
use brainsim::encoding::{PopulationCode, RateCode};
use brainsim::energy::EnergyModel;
use brainsim::neuron::{NeuronConfig, ResetMode};

fn threshold(t: u32) -> NeuronConfig {
    NeuronConfig::builder().threshold(t).build().unwrap()
}

#[test]
fn rate_division_through_the_whole_stack() {
    // A rate divider (threshold 4, linear reset) compiled to the chip must
    // produce exactly in/4 output spikes for a deterministic rate input.
    let mut corelet = Corelet::new("divider", 1);
    let divider = NeuronConfig::builder()
        .threshold(4)
        .reset_mode(ResetMode::Linear)
        .build()
        .unwrap();
    let n = corelet.add_neuron(divider);
    corelet.connect(NodeRef::Input(0), n, 1, 1).unwrap();
    corelet.mark_output(n).unwrap();

    let mut compiled = compile(corelet.network(), &CompileOptions::default()).unwrap();
    let code = RateCode::new(64);
    let train = code.encode(1.0); // spike every tick
    let raster = compiled.run(70, |t| {
        if (t as usize) < train.len() && train[t as usize] {
            vec![0]
        } else {
            Vec::new()
        }
    });
    let outputs = raster.iter().filter(|r| r[0]).count();
    assert_eq!(outputs, 16, "64 input spikes / threshold 4");
}

#[test]
fn population_code_round_trip_through_chip() {
    // Encode a value with a population code, pass each channel through a
    // relay on the chip, decode from the output rasters.
    let channels = 5;
    let window = 32;
    let mut corelet = Corelet::new("pop-relay", channels);
    for c in 0..channels {
        let n = corelet.add_neuron(threshold(1));
        corelet.connect(NodeRef::Input(c), n, 1, 1).unwrap();
        corelet.mark_output(n).unwrap();
    }
    let mut compiled = compile(corelet.network(), &CompileOptions::default()).unwrap();

    let code = PopulationCode::new(channels, window);
    for value in [0.0, 0.25, 0.5, 0.8, 1.0] {
        compiled.reset();
        let trains = code.encode(value);
        let raster = compiled.run(window as u64 + 2, |t| {
            (0..channels)
                .filter(|&c| (t as usize) < window && trains[c][t as usize])
                .collect()
        });
        // Re-assemble per-channel output trains (shifted by 1 tick of relay
        // latency; drop the first tick and take `window` ticks).
        let decoded_trains: Vec<Vec<bool>> = (0..channels)
            .map(|c| (1..=window).map(|t| raster[t][c]).collect())
            .collect();
        let decoded = code.decode(&decoded_trains);
        assert!(
            (decoded - value).abs() < 0.08,
            "value {value} decoded as {decoded}"
        );
    }
}

#[test]
fn recurrent_network_matches_interpreter_for_long_runs() {
    let mut corelet = Corelet::new("recurrent", 2);
    let pop = corelet.add_population(threshold(4), 18);
    let pres: Vec<NodeRef> = pop.iter().map(|&p| NodeRef::Neuron(p)).collect();
    connectors::random(&mut corelet, &pres, &pop, 3, 2, 48, 1234).unwrap();
    corelet.connect(NodeRef::Input(0), pop[0], 4, 1).unwrap();
    corelet.connect(NodeRef::Input(1), pop[9], 4, 1).unwrap();
    // Only output neurons without fan-out report at exact ticks; find two
    // sinks by adding dedicated readout neurons.
    let r1 = corelet.add_neuron(threshold(1));
    let r2 = corelet.add_neuron(threshold(1));
    corelet.connect(NodeRef::Neuron(pop[3]), r1, 1, 2).unwrap();
    corelet.connect(NodeRef::Neuron(pop[14]), r2, 1, 2).unwrap();
    corelet.mark_output(r1).unwrap();
    corelet.mark_output(r2).unwrap();

    let options = CompileOptions {
        core_axons: 32,
        core_neurons: 12,
        relay_reserve: 4,
        anneal_iters: 300,
        ..CompileOptions::default()
    };
    let stim = |t: u64| match t % 7 {
        0 => vec![0],
        3 => vec![1],
        5 => vec![0, 1],
        _ => Vec::new(),
    };
    let mut compiled = compile(corelet.network(), &options).unwrap();
    let chip_raster = compiled.run(200, stim);
    let mut oracle = Interpreter::new(corelet.network(), 1);
    let oracle_raster = oracle.run(200, stim);
    assert_eq!(chip_raster, oracle_raster);
    assert!(
        chip_raster.iter().any(|r| r[0] || r[1]),
        "network should produce some output"
    );
}

#[test]
fn aer_record_and_replay_round_trip() {
    use brainsim::encoding::aer;

    // Record a run's outputs as AER, encode to the wire format, decode,
    // and replay the stream as stimulus into a second network — the
    // recorded and replayed rasters must line up exactly (shifted by the
    // relay latency).
    let mut producer = Corelet::new("producer", 1);
    let n = producer.add_neuron(threshold(2));
    producer.connect(NodeRef::Input(0), n, 1, 1).unwrap();
    producer.mark_output(n).unwrap();
    let mut compiled = compile(producer.network(), &CompileOptions::default()).unwrap();

    let mut events: Vec<aer::AerEvent> = Vec::new();
    for t in 0..40u64 {
        if t % 3 != 2 {
            compiled.inject(0, t).unwrap();
        }
        let fired = compiled.tick();
        if fired[0] {
            events.push(aer::AerEvent { tick: t, port: 0 });
        }
    }
    assert!(
        events.len() >= 8,
        "producer must spike: {} events",
        events.len()
    );

    // Wire round trip.
    let wire = aer::encode(&events).unwrap();
    let decoded = aer::decode(&wire).unwrap();
    assert_eq!(decoded, events);

    // Replay into a relay; its output must reproduce the stream 1 tick late.
    let mut relay = Corelet::new("replay", 1);
    let r = relay.add_neuron(threshold(1));
    relay.connect(NodeRef::Input(0), r, 1, 1).unwrap();
    relay.mark_output(r).unwrap();
    let mut replayed = compile(relay.network(), &CompileOptions::default()).unwrap();
    let raster = replayed.run(45, |t| {
        if decoded.iter().any(|e| e.tick == t) {
            vec![0]
        } else {
            Vec::new()
        }
    });
    let replay_ticks: Vec<u64> = raster
        .iter()
        .enumerate()
        .filter_map(|(t, out)| out[0].then_some(t as u64))
        .collect();
    let expected: Vec<u64> = decoded.iter().map(|e| e.tick + 1).collect();
    assert_eq!(replay_ticks, expected);
}

#[test]
fn energy_census_scales_with_activity() {
    let build = || {
        let mut corelet = Corelet::new("act", 1);
        let pop = corelet.add_population(threshold(1), 16);
        for &n in &pop {
            corelet.connect(NodeRef::Input(0), n, 1, 1).unwrap();
        }
        compile(corelet.network(), &CompileOptions::default()).unwrap()
    };
    let mut quiet = build();
    quiet.run(100, |_| Vec::new());
    let mut busy = build();
    busy.run(100, |t| if t % 2 == 0 { vec![0] } else { Vec::new() });

    let model = EnergyModel::default();
    let quiet_report = model.report(&quiet.chip().census());
    let busy_report = model.report(&busy.chip().census());
    // A quiet chip still pays the per-tick neuron (leak/threshold) sweep,
    // but no synaptic energy; activity adds the event-linear part.
    assert_eq!(quiet.chip().census().synaptic_events, 0);
    assert!(busy_report.active_energy_j > 1.5 * quiet_report.active_energy_j);
    assert_eq!(quiet_report.static_mw, busy_report.static_mw);
    // 50 input spikes × 16 synapses.
    assert_eq!(busy.chip().census().synaptic_events, 800);
}

#[test]
fn library_corelets_compile_and_run_on_chip() {
    use brainsim::corelet::library;
    // Compose: split the input two ways, delay one branch by 5, AND the
    // branches — the composite only fires when the delayed and direct
    // copies coincide, which a single pulse cannot achieve, but a pulse
    // pair spaced 5 apart can (delay-tuned coincidence).
    let mut top = Corelet::new("compose-on-chip", 1);
    let split = library::splitter(2);
    let outs = top.embed(&split, &[NodeRef::Input(0)]).unwrap();
    let delayed = library::delay_line(5).unwrap();
    let d = top.embed(&delayed, &[NodeRef::Neuron(outs[0])]).unwrap();
    let gate = library::coincidence(2);
    let g = top
        .embed(&gate, &[NodeRef::Neuron(d[0]), NodeRef::Neuron(outs[1])])
        .unwrap();
    top.mark_output(g[0]).unwrap();

    let mut compiled = compile(top.network(), &CompileOptions::default()).unwrap();
    // Single pulse: no output. Pulse pair spaced 5: the delayed copy of the
    // first pulse coincides with the direct copy of the second.
    let raster = compiled.run(40, |t| {
        if t == 3 || t == 8 || t == 25 {
            vec![0]
        } else {
            vec![]
        }
    });
    let fired: Vec<usize> = raster
        .iter()
        .enumerate()
        .filter_map(|(t, r)| r[0].then_some(t))
        .collect();
    // Chain: input@8 → split@9 (direct copy), input@3 → split@4 → delay@9
    // → gate sees both at 10, fires @10.
    assert_eq!(fired, vec![10]);

    // Compare against the interpreter oracle too.
    let mut oracle = Interpreter::new(top.network(), 1);
    let oracle_raster = oracle.run(40, |t| {
        if t == 3 || t == 8 || t == 25 {
            vec![0]
        } else {
            vec![]
        }
    });
    assert_eq!(raster, oracle_raster);
}

#[test]
fn winner_take_all_on_chip() {
    use brainsim::corelet::library;
    let wta = library::winner_take_all(4, 4, 8);
    let mut compiled = compile(wta.network(), &CompileOptions::default()).unwrap();
    // Channel 2 gets the strongest drive.
    let raster = compiled.run(80, |t| {
        let mut active = vec![2];
        if t % 3 == 0 {
            active.extend([0, 1, 3]);
        }
        active
    });
    let counts: Vec<usize> = (0..4)
        .map(|p| raster.iter().filter(|r| r[p]).count())
        .collect();
    let winner = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    assert_eq!(winner, 2, "counts {counts:?}");
    assert!(counts[2] >= 2 * counts[0].max(counts[1]).max(counts[3]).max(1));
}

#[test]
fn multi_chip_scale_compilation() {
    // A network large enough to need a grid of cores: 400 neurons on
    // 64-neuron cores.
    let mut corelet = Corelet::new("large", 8);
    let pop = corelet.add_population(threshold(2), 400);
    for (i, &n) in pop.iter().enumerate() {
        corelet.connect(NodeRef::Input(i % 8), n, 2, 1).unwrap();
        if i >= 1 {
            corelet
                .connect(NodeRef::Neuron(pop[i - 1]), n, 2, 2)
                .unwrap();
        }
    }
    corelet.mark_output(pop[399]).unwrap();
    let options = CompileOptions {
        core_axons: 64,
        core_neurons: 64,
        relay_reserve: 8,
        anneal_iters: 2000,
        ..CompileOptions::default()
    };
    let compiled = compile(corelet.network(), &options).unwrap();
    let report = compiled.report();
    assert!(report.cores >= 7, "cores = {}", report.cores);
    assert!(report.grid.0 * report.grid.1 >= report.cores);
    assert!(report.annealed_cost <= report.greedy_cost);
}
