//! # brainsim-telemetry
//!
//! Zero-cost-when-disabled instrumentation for the chip tick pipeline.
//!
//! The TrueNorth lineage's headline numbers — picojoules per synaptic
//! event, milliwatts per chip, one-to-one tick equivalence — are all
//! *measured* quantities: the published evaluations lean on per-core
//! activity maps and per-link traffic counters. This crate is the
//! simulator's equivalent of those on-chip probes: a typed, per-tick
//! observability layer that the chip runtime fills while it ticks.
//!
//! ## Model
//!
//! * [`TickRecord`] — one tick's typed observation: evaluated/skipped core
//!   counts (scheduler quiescence), spike/output/delivery totals, routing
//!   hop and link-crossing counters, a log₂ [`Histogram`] of per-spike hop
//!   distances, the tick's fault-event annotations ([`FaultStats`]) and its
//!   energy-census delta ([`EventCensus`]), plus optional per-core
//!   [`CoreActivity`] detail in canonical row-major core order.
//! * [`TelemetryLog`] — the ring-buffered sink the chip records into. It
//!   keeps the last `capacity` records (evicting oldest, counting the
//!   evictions) and folds **every** record into a cumulative
//!   [`RunSummary`], so run-level aggregates — including the per-core
//!   spike heatmap — survive ring eviction on arbitrarily long soak runs.
//! * [`Probe`] — the consumer trait. Anything that wants the record stream
//!   (exporters, custom aggregators) implements it and is driven by
//!   [`TelemetryLog::replay`] or fed records directly.
//! * [`JsonlExporter`] — the textual sink implementing [`Probe`]: one JSON
//!   object per tick, hand-rendered with a stable field order so output
//!   is byte-identical for identical runs.
//!
//! ## Determinism contract
//!
//! Telemetry is collected *inside* the deterministic tick pipeline: per-core
//! records are concatenated in canonical core order from the Phase-A shard
//! results, and every Phase-B counter (hops, crossings, histograms, fault
//! tallies) merges by order-independent sums. The record stream is therefore
//! bit-identical at any thread count — the differential suite in
//! `tests/parallel_equivalence.rs` asserts it.
//!
//! ## Overhead contract
//!
//! Disabled telemetry costs one `Option` branch per tick on the chip's
//! hot path. Enabled telemetry pays for what it records: per-tick counter
//! snapshots, plus one [`CoreActivity`] per evaluated core when core detail
//! is on. The measured cost is `telemetry.tick_overhead_pct` on the
//! repository benchmark's `telemetry_32x32_sparse` workload (default config
//! on against off on the same chip): about +15 % of the tick there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod export;
mod record;
mod report;
mod sink;

pub use export::{render_jsonl, render_summary_jsonl, JsonlExporter};
pub use record::{CoreActivity, Histogram, SchedulerMeta, TickRecord, HISTOGRAM_BUCKETS};
pub use report::{render_heatmap, RunSummary};
pub use sink::{Probe, TelemetryConfig, TelemetryLog};

// Re-export the census/fault vocabulary embedded in the records.
pub use brainsim_energy::EventCensus;
pub use brainsim_faults::FaultStats;
