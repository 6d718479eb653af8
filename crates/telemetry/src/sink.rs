//! The probe trait and the ring-buffered collection sink.

use std::collections::VecDeque;

use crate::record::TickRecord;
use crate::report::RunSummary;

/// What the chip's instrumentation layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring capacity in ticks: the log keeps the most recent `capacity`
    /// records and evicts the oldest beyond that (evictions are counted in
    /// [`TelemetryLog::evicted`]). `None` keeps every record — fine for
    /// tests and short runs, unbounded memory on soak runs.
    pub capacity: Option<usize>,
    /// Record per-core [`crate::CoreActivity`] detail for every evaluated
    /// core. Costs one small struct per evaluated core per tick; the
    /// run-level per-core heatmaps in [`RunSummary`] need it.
    pub core_detail: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            capacity: Some(4096),
            core_detail: true,
        }
    }
}

impl TelemetryConfig {
    /// A config that keeps every record (unbounded ring) with core detail.
    pub fn unbounded() -> TelemetryConfig {
        TelemetryConfig {
            capacity: None,
            core_detail: true,
        }
    }

    /// A config that keeps run-level counters only: bounded ring, no
    /// per-core detail — the cheapest enabled mode.
    pub fn counters_only(capacity: usize) -> TelemetryConfig {
        TelemetryConfig {
            capacity: Some(capacity),
            core_detail: false,
        }
    }
}

/// A consumer of the per-tick record stream.
///
/// Implementors receive records in tick order. The chip records into a
/// [`TelemetryLog`]; probes are driven from it afterwards (or fed records
/// live by custom harnesses). [`RunSummary`] and the exporters implement
/// this trait.
pub trait Probe {
    /// Observes one tick's record.
    fn on_tick(&mut self, record: &TickRecord);

    /// Called once after the last record of a replay (flush point for
    /// buffered sinks). Default: nothing.
    fn on_finish(&mut self) {}
}

/// The ring-buffered telemetry sink the chip records into.
///
/// Holds the last [`TelemetryConfig::capacity`] records and a cumulative
/// [`RunSummary`] fed by *every* record (so run-level aggregates survive
/// ring eviction).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryLog {
    config: TelemetryConfig,
    records: VecDeque<TickRecord>,
    evicted: u64,
    summary: RunSummary,
}

impl TelemetryLog {
    /// An empty log for a chip with `cores` cores.
    pub fn new(config: TelemetryConfig, cores: usize) -> TelemetryLog {
        TelemetryLog {
            config,
            records: VecDeque::new(),
            evicted: 0,
            summary: RunSummary::new(cores),
        }
    }

    /// The configuration the log was created with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Reassembles a log from snapshot parts: the original configuration,
    /// the eviction count, and the cumulative summary (which carries the
    /// [`RunSummary::resumed_from_tick`] marker on restored runs). The
    /// record ring restarts empty — per-tick records are deliberately not
    /// checkpointed, so a resumed log cannot double-count: the summary
    /// continues from its saved aggregates and only genuinely new ticks are
    /// pushed on top.
    pub fn from_parts(config: TelemetryConfig, evicted: u64, summary: RunSummary) -> TelemetryLog {
        TelemetryLog {
            config,
            records: VecDeque::new(),
            evicted,
            summary,
        }
    }

    /// Appends one tick's record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TickRecord) {
        self.summary.on_tick(&record);
        if let Some(capacity) = self.config.capacity {
            if capacity == 0 {
                self.evicted += 1;
                return;
            }
            while self.records.len() >= capacity {
                self.records.pop_front();
                self.evicted += 1;
            }
        }
        self.records.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TickRecord> {
        self.records.iter()
    }

    /// The most recent retained record, or `None` while the ring is empty.
    /// O(1); live consumers of the stream (e.g. a runtime health monitor)
    /// read each tick's record here right after the tick completes.
    pub fn latest(&self) -> Option<&TickRecord> {
        self.records.back()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted from the ring so far (0 until the ring wraps).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The cumulative run summary over *all* records ever pushed,
    /// including evicted ones.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Drives a probe over every retained record, oldest first, then calls
    /// [`Probe::on_finish`].
    pub fn replay<P: Probe>(&self, probe: &mut P) {
        for record in &self.records {
            probe.on_tick(record);
        }
        probe.on_finish();
    }

    /// Clears records, eviction count and the summary; keeps the config.
    pub fn clear(&mut self) {
        let cores = self.summary.core_spikes.len();
        self.records.clear();
        self.evicted = 0;
        self.summary = RunSummary::new(cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tick: u64, spikes: u64) -> TickRecord {
        TickRecord {
            tick,
            spikes,
            cores_evaluated: 1,
            ..TickRecord::default()
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut log = TelemetryLog::new(
            TelemetryConfig {
                capacity: Some(3),
                core_detail: false,
            },
            4,
        );
        for t in 0..5 {
            log.push(record(t, t));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let ticks: Vec<u64> = log.records().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
        // The summary still covers all five records.
        assert_eq!(log.summary().ticks, 5);
        assert_eq!(log.summary().spikes, 10); // 0+1+2+3+4
    }

    #[test]
    fn latest_tracks_the_newest_record() {
        let mut log = TelemetryLog::new(TelemetryConfig::counters_only(2), 1);
        assert!(log.latest().is_none());
        for t in 0..4 {
            log.push(record(t, t));
            assert_eq!(log.latest().map(|r| r.tick), Some(t));
        }
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut log = TelemetryLog::new(TelemetryConfig::unbounded(), 1);
        for t in 0..100 {
            log.push(record(t, 1));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.evicted(), 0);
    }

    #[test]
    fn zero_capacity_retains_nothing_but_summarises() {
        let mut log = TelemetryLog::new(
            TelemetryConfig {
                capacity: Some(0),
                core_detail: false,
            },
            1,
        );
        log.push(record(0, 7));
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 1);
        assert_eq!(log.summary().spikes, 7);
    }

    #[test]
    fn clear_resets_but_keeps_config_and_core_count() {
        let mut log = TelemetryLog::new(TelemetryConfig::default(), 9);
        log.push(record(0, 1));
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 0);
        assert_eq!(log.summary().ticks, 0);
        assert_eq!(log.summary().core_spikes.len(), 9);
    }

    #[test]
    fn replay_visits_in_order_and_finishes() {
        struct Collect {
            ticks: Vec<u64>,
            finished: bool,
        }
        impl Probe for Collect {
            fn on_tick(&mut self, r: &TickRecord) {
                self.ticks.push(r.tick);
            }
            fn on_finish(&mut self) {
                self.finished = true;
            }
        }
        let mut log = TelemetryLog::new(TelemetryConfig::unbounded(), 1);
        for t in 0..4 {
            log.push(record(t, 0));
        }
        let mut probe = Collect {
            ticks: Vec::new(),
            finished: false,
        };
        log.replay(&mut probe);
        assert_eq!(probe.ticks, vec![0, 1, 2, 3]);
        assert!(probe.finished);
    }
}
