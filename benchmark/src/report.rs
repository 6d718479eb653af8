//! What a run prints: every metric by name with its unit, then one JSON
//! object on the last line of standard output.

use std::fmt::Write as _;

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric the benchmark reports: its row in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have no bound.
    pub bound: Option<f64>,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: what a user of the simulator sees. Every
/// workload reports all of them, from the untraced run.
pub const END_TO_END: &[Spec] = &[
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("ticks_per_s", "1/s", Higher, 0.25),
    end_to_end("step_p50_us", "us", Lower, 0.25),
    end_to_end("time_to_first_tick_ms", "ms", Lower, 0.25),
    end_to_end("peak_rss_mib", "MiB", Lower, 0.1),
];

/// The per-layer metrics, from the traced run. README.md maps each to the
/// end-to-end metric it should move, and on which workload.
pub const PER_LAYER: &[Spec] = &[
    // The workload's own step, split by the layer each span calls into.
    layer("step.traced_p50_us", "us", Lower),
    layer("step.p99_us", "us", Lower),
    layer("share.stimulus.generate", "%", Lower),
    layer("share.chip.inject", "%", Lower),
    layer("share.chip.tick", "%", Lower),
    layer("share.batch.inject", "%", Lower),
    layer("share.batch.tick", "%", Lower),
    layer("share.corelet.build", "%", Lower),
    layer("share.compiler.compile", "%", Lower),
    layer("share.serve.admit", "%", Lower),
    layer("share.serve.submit", "%", Lower),
    layer("share.serve.run_round", "%", Lower),
    layer("share.serve.evict", "%", Lower),
    layer("share.harness", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Simulated counts over the workload's fixed window: exact.
    layer("sim.ticks_per_step", "count", Higher),
    layer("sim.spikes_per_tick", "count", Higher),
    layer("sim.cores_evaluated_per_tick", "count", Lower),
    layer("sim.checkpoints_written", "count", Lower),
    // chip, on the workload's twin.
    layer("chip.build_ms", "ms", Lower),
    layer("chip.inject_us", "us", Lower),
    layer("chip.tick_us", "us", Lower),
    layer("chip.tick_p99_us", "us", Lower),
    layer("chip.tick_t2_us", "us", Lower),
    layer("chip.census_us", "us", Lower),
    layer("chip.active_core_share", "%", Lower),
    layer("chip.ns_per_core_evaluated", "ns", Lower),
    layer("chip.ns_per_synaptic_event", "ns", Lower),
    layer("chip.spikes_per_tick", "count", Higher),
    layer("chip.synaptic_events_per_tick", "count", Higher),
    layer("chip.hops_per_tick", "count", Lower),
    layer("mem.bytes_per_core", "B", Lower),
    // telemetry, snapshot and energy, on the same twin.
    layer("telemetry.tick_overhead_pct", "%", Lower),
    layer("telemetry.take_us", "us", Lower),
    layer("telemetry.export_us_per_record", "us", Lower),
    layer("snapshot.capture_ms", "ms", Lower),
    layer("snapshot.encode_ms", "ms", Lower),
    layer("snapshot.write_ms", "ms", Lower),
    layer("snapshot.read_verify_ms", "ms", Lower),
    layer("snapshot.decode_ms", "ms", Lower),
    layer("snapshot.restore_ms", "ms", Lower),
    layer("snapshot.bytes", "B", Lower),
    layer("energy.report_us", "us", Lower),
    layer("energy.mw", "mW", Lower),
    layer("energy.gsops_per_w", "GSOPS/W", Higher),
    // corelib and noc, standalone.
    layer("corelib.core_tick_ns", "ns", Lower),
    layer("corelib.core_idle_tick_ns", "ns", Lower),
    layer("noc.cycle_ns", "ns", Lower),
    layer("noc.delivered_per_cycle", "count", Higher),
    layer("noc.mean_latency_cycles", "count", Lower),
    layer("noc.rejected_share", "%", Lower),
    // batch: eight lanes of the edge chip against one.
    layer("batch.build_ms", "ms", Lower),
    layer("batch.tick_ms", "ms", Lower),
    layer("batch.per_chip_vs_solo", "x", Lower),
    layer("batch.rss_vs_solo", "x", Lower),
    // corelet, compiler and admission: a short run of lifecycles.
    layer("corelet.build_ms", "ms", Lower),
    layer("compiler.compile_ms", "ms", Lower),
    layer("compiler.cores_used", "count", Lower),
    layer("compiler.mean_hops_annealed", "count", Lower),
    layer("serve.admit_ms", "ms", Lower),
    layer("serve.evict_ms", "ms", Lower),
    // serve: a short run of the eight-tenant fleet.
    layer("serve.submit_us", "us", Lower),
    layer("serve.plain_round_us", "us", Lower),
    layer("serve.ckpt_round_us", "us", Lower),
    layer("serve.round_p99_us", "us", Lower),
    layer("serve.round_default_workers_us", "us", Lower),
    layer("serve.tick_share", "%", Higher),
    layer("serve.bookkeeping_ns_per_tick", "ns", Lower),
    layer("serve.checkpoints_written", "count", Lower),
    layer("serve.checkpoint_failures", "count", Lower),
    layer("serve.stale_dropped", "count", Lower),
    layer("serve.inject_rejected", "count", Lower),
    layer("serve.deadline_misses", "count", Lower),
    layer("serve.panics", "count", Lower),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Which metric.
    pub spec: &'static Spec,
    /// Its value as measured, in the spec's unit.
    pub value: f64,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every checksum matched and no operation failed.
    pub correct: bool,
    /// Operations issued in the measured part.
    pub attempted: u64,
    /// Operations that failed; all of them if a checksum did not match.
    pub failed: u64,
    /// Every metric of the run's table, in table order.
    pub metrics: Vec<Metric>,
    /// Anything else worth a line: checksums, sample counts, repetitions.
    pub notes: Vec<(&'static str, String)>,
}

/// Collects the metrics of one table by name.
#[derive(Debug)]
pub struct Table {
    specs: &'static [Spec],
    values: Vec<Option<f64>>,
}

impl Table {
    /// An empty table over `specs`.
    pub fn new(specs: &'static [Spec]) -> Table {
        Table {
            specs,
            values: vec![None; specs.len()],
        }
    }

    /// Records `name`'s value.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not have, on a value recorded
    /// twice, and on one that is not finite: all bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("no metric called {name}"));
        assert!(value.is_finite(), "{name} is {value}");
        assert!(
            self.values[index].replace(value).is_none(),
            "{name} set twice"
        );
    }

    /// Every metric, in table order.
    ///
    /// # Panics
    ///
    /// Panics if one was never set.
    pub fn finish(self) -> Vec<Metric> {
        self.specs
            .iter()
            .zip(self.values)
            .map(|(spec, value)| Metric {
                spec,
                value: value.unwrap_or_else(|| panic!("{} was never measured", spec.name)),
            })
            .collect()
    }
}

impl Report {
    /// `name value unit` for every metric and note, one per line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            let _ = writeln!(out, "# {key} {value}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.spec.name, m.value, m.spec.unit);
        }
        out
    }

    /// The run as one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.spec.name, m.value, m.spec.unit
            );
        }
        out.push_str("}}");
        out
    }
}
