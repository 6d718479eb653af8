//! Cross-model validation: the integer neuron's behaviour catalogue against
//! the Izhikevich floating-point reference — both models must exhibit the
//! same qualitative firing-pattern classes.

use brainsim::apps::behavior;
use brainsim::snn::{IzhikevichNeuron, IzhikevichParams};

fn isis(raster: &[bool]) -> Vec<usize> {
    let times: Vec<usize> = raster
        .iter()
        .enumerate()
        .filter_map(|(t, &s)| s.then_some(t))
        .collect();
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

#[test]
fn both_models_show_tonic_regularity() {
    // Integer model: the catalogue's tonic entry is CV ≈ 0 by its own check.
    let integer = behavior::tonic_spiking();
    assert!(integer.achieved);

    // Izhikevich RS under DC, discarding the adaptation transient, settles
    // to a near-constant ISI.
    let mut izh = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
    let raster = izh.run_dc(10.0, 800);
    let isis = isis(&raster);
    let tail = &isis[isis.len().saturating_sub(5)..];
    let mean = tail.iter().sum::<usize>() as f64 / tail.len() as f64;
    let spread = (tail.iter().max().unwrap() - tail.iter().min().unwrap()) as f64;
    assert!(
        spread / mean < 0.15,
        "settled ISIs should be near-constant: {tail:?}"
    );
}

#[test]
fn both_models_show_spike_frequency_adaptation() {
    let integer = behavior::spike_frequency_adaptation();
    assert!(integer.achieved, "{}", integer.metric);

    let mut izh = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
    let raster = izh.run_dc(10.0, 600);
    let isis = isis(&raster);
    assert!(
        isis.last().unwrap() > &isis[0],
        "Izhikevich RS must adapt: {isis:?}"
    );
}

#[test]
fn both_models_show_bursting() {
    let integer = behavior::tonic_bursting();
    assert!(integer.achieved, "{}", integer.metric);

    // Izhikevich chattering: short intra-burst ISIs and long inter-burst
    // gaps must coexist.
    let mut izh = IzhikevichNeuron::new(IzhikevichParams::chattering());
    let raster = izh.run_dc(10.0, 600);
    let isis = isis(&raster);
    let short = isis.iter().filter(|&&i| i <= 6).count();
    let long = isis.iter().filter(|&&i| i > 12).count();
    assert!(short >= 4 && long >= 2, "ISIs {isis:?}");
}

#[test]
fn both_models_show_class_one_rate_coding() {
    let integer = behavior::class_1_excitable();
    assert!(integer.achieved, "{}", integer.metric);

    // Izhikevich RS: firing rate strictly increases with drive.
    let rates: Vec<usize> = [4.0, 8.0, 14.0]
        .iter()
        .map(|&i| {
            let mut izh = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
            izh.run_dc(i, 500).iter().filter(|&&s| s).count()
        })
        .collect();
    assert!(rates[0] < rates[1] && rates[1] < rates[2], "{rates:?}");
}
