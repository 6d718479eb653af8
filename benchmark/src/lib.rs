//! The repository benchmark: seven workloads over the simulator's public
//! facade, five end-to-end metrics from an untraced run, and per-layer
//! metrics from a second run that records a span around every call into a
//! layer. See `README.md` for the workloads and the layer → end-to-end map,
//! and `/BENCHMARK.json` for the contract with the driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chips;
pub mod fleets;
pub mod gen;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use chips::{Batch8, Dense8x8, Edge64x64, Full64x64, Solo, Telemetry32x32};
use fleets::{Lifecycle, ServeFleet8};
use report::{Report, Table};
use run::Workload;
use trace::Tracer;

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dense_8x8",
        "64 full cores at half density under near-saturating drive: synaptic integration in corelib does nearly all the work",
    ),
    (
        "nemo_64x64_edge",
        "4096 cores, 205 structured: chip's active-core scheduling and sparse residency dominate; a kernel speed-up barely moves it",
    ),
    (
        "nemo_64x64_full",
        "one million neurons, all driven: neuron scan and memory bandwidth; the only workload where inject and build are visible",
    ),
    (
        "telemetry_32x32_sparse",
        "the sparse 32x32 chip with default telemetry on: the same tick path used differently; a telemetry fix shows only here",
    ),
    (
        "batch8_64x64_edge",
        "eight ChipBatch lanes of the edge chip: the regime where batching loses to solo; dense_8x8 beside it guards the solo path",
    ),
    (
        "lifecycle_compile",
        "corelet, compile, admit, eight rounds, evict per step: corelet, compiler and admission do the work, ticking almost none",
    ),
    (
        "serve_fleet8",
        "eight tenants served round after round with checkpoints every 50 ticks: snapshot writes and serve bookkeeping beside the ticks",
    ),
];

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// XORed into every network and stimulus seed; 0 reproduces the
    /// corpus entries and their pinned checksums.
    pub salt: u32,
    /// How long the closed loop measures.
    pub budget: Duration,
    /// Record spans and report the per-layer table instead of the
    /// end-to-end one.
    pub trace: bool,
    /// Where fleet state and `trace.jsonl` go.
    pub out_dir: PathBuf,
}

/// Runs the workload called `name`, or returns `None` for an unknown name.
pub fn run_workload(name: &str, options: &Options) -> Option<Report> {
    Some(match name {
        "dense_8x8" => run_one::<Solo<Dense8x8>>(options),
        "nemo_64x64_edge" => run_one::<Solo<Edge64x64>>(options),
        "nemo_64x64_full" => run_one::<Solo<Full64x64>>(options),
        "telemetry_32x32_sparse" => run_one::<Solo<Telemetry32x32>>(options),
        "batch8_64x64_edge" => run_one::<Batch8>(options),
        "lifecycle_compile" => run_one::<Lifecycle>(options),
        "serve_fleet8" => run_one::<ServeFleet8>(options),
        _ => return None,
    })
}

fn run_one<W: Workload>(options: &Options) -> Report {
    if options.trace {
        layers::traced::<W>(options)
    } else {
        end_to_end::<W>(options)
    }
}

/// The untraced run: rounds of set-up and closed loop, `options.budget` of
/// stepping in all.
fn end_to_end<W: Workload>(options: &Options) -> Report {
    let mut tr = Tracer::new(false);
    let rounds = run::rounds::<W>(options.budget, options.salt, &options.out_dir, &mut tr);
    let m = &rounds.measured;

    let p50 = run::repetition_p50_us(m);
    let rate = run::repetition_ticks_per_s(m);
    let mut table = Table::new(report::END_TO_END);
    // Interference only ever adds, to a construction as to a repetition,
    // and the first construction also pays for cold caches: the quickest
    // of a whole run's is the repeatable one.
    let least = |values: &[f64]| values.iter().copied().fold(f64::MAX, f64::min);
    table.set("setup_s", least(&rounds.setup_s));
    table.set("ticks_per_s", rate.iter().copied().fold(f64::MIN, f64::max));
    table.set("step_p50_us", least(&p50));
    table.set("time_to_first_tick_ms", least(&rounds.first_tick_ms));
    // Outside Linux there is no VmHWM; the driver's host has one.
    let peak = run::proc_status_bytes("VmHWM:").unwrap_or(0.0);
    table.set("peak_rss_mib", peak / (1024.0 * 1024.0));

    let correct = rounds.correct && m.failed == 0;
    Report {
        correct,
        attempted: m.attempted,
        // A wrong checksum means no step of the run can be trusted.
        failed: if rounds.correct {
            m.failed
        } else {
            m.attempted
        },
        metrics: table.finish(),
        notes: vec![
            ("checksum", format!("{:#018x}", rounds.checksum)),
            ("steps", m.step_nanos.len().to_string()),
            ("rounds_took_turns_on_cpus", format!("{:?}", rounds.cpus)),
            ("measured_s", format!("{:.3}", m.wall.as_secs_f64())),
            ("window_counts", format!("{:?}", m.window)),
            ("setup_s_each", format!("{:.4?}", rounds.setup_s)),
            (
                "first_tick_ms_each",
                format!("{:.3?}", rounds.first_tick_ms),
            ),
            ("step_p50_us_each", format!("{p50:.2?}")),
            ("ticks_per_s_each", format!("{rate:.1?}")),
        ],
    }
}

/// Seconds one run measures, as `/BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 14;

/// `/BENCHMARK.json`, rendered from the tables above so that the file and
/// the program cannot name different workloads or metrics.
pub fn contract_json() -> String {
    let better = |spec: &report::Spec| match spec.better {
        report::Better::Lower => "lower",
        report::Better::Higher => "higher",
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = report::END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name,
                s.unit,
                better(s),
                s.bound.expect("end-to-end metrics have bounds")
            )
        })
        .collect();
    let per_layer: Vec<String> = report::PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                better(s)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
