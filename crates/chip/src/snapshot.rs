//! The chip-level snapshot: assembly of the `brainsim-snapshot` container
//! from complete chip state, and the wire codec for the chip's own
//! configuration section.
//!
//! A [`Snapshot`] is the typed, in-memory image [`crate::Chip::checkpoint`]
//! produces and [`crate::Chip::restore`] consumes. [`Snapshot::to_bytes`] /
//! [`Snapshot::from_bytes`] map it onto the versioned, CRC-checksummed
//! section container; [`Snapshot::save`] / [`Snapshot::load`] add
//! crash-consistent file IO (write-temp → fsync → rename).
//!
//! Section layout (tags from [`SectionId`]):
//!
//! | section     | contents                                               |
//! |-------------|--------------------------------------------------------|
//! | `config`    | [`ChipConfig`]: grid, core dims, seed, threads, tiling |
//! | `chip`      | tick cursor, hop/crossing/output counters, fault stats |
//! | `cores`     | one [`brainsim_core::CoreState`] per core, row-major   |
//! | `faults`    | the retained [`FaultPlan`] (optional)                  |
//! | `telemetry` | [`TelemetrySnapshot`]: config, evictions, run summary  |
//! | `app`       | opaque harness payload, e.g. a running checksum        |

use std::path::Path;

use brainsim_core::CoreState;
use brainsim_faults::{FaultPlan, FaultStats};
use brainsim_snapshot::codec;
use brainsim_snapshot::wire::{Reader, WireError, Writer};
use brainsim_snapshot::{
    decode_container, encode_container, load_verified, save_atomic, RestoreError, SectionId,
    SnapshotIoError,
};
use brainsim_telemetry::{RunSummary, TelemetryConfig};

use crate::config::{ChipConfig, TileConfig};

/// The telemetry image a snapshot carries: enough to resume collection
/// without double-counting. The record ring is deliberately *not*
/// checkpointed — the cumulative [`RunSummary`] (which covers every record
/// ever pushed) travels instead, and the restored log restarts with an
/// empty ring, so pre-checkpoint ticks can never be folded in twice.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The collection configuration in effect.
    pub config: TelemetryConfig,
    /// Records evicted from the ring before the checkpoint.
    pub evicted: u64,
    /// The cumulative run summary at the checkpoint.
    pub summary: RunSummary,
}

/// A complete, typed image of chip state at a tick boundary.
///
/// Produced by [`crate::Chip::checkpoint`]; consumed by
/// [`crate::Chip::restore`]. Restoring and continuing yields the
/// bit-identical event stream an uninterrupted run produces, at any thread
/// count, on the SWAR kernel or the scalar oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The chip configuration (restored verbatim, including thread count).
    pub config: ChipConfig,
    /// The next tick to evaluate.
    pub now: u64,
    /// Total mesh hops charged so far.
    pub hops: u64,
    /// Total tile-boundary link crossings so far.
    pub link_crossings: u64,
    /// Total external output events so far.
    pub outputs_total: u64,
    /// Chip-level (routing) fault accounting.
    pub fault_stats: FaultStats,
    /// Per-core state images in row-major order.
    pub cores: Vec<CoreState>,
    /// The fault plan applied to the chip, if any. Restore re-arms the
    /// link-fault injector from it; structural faults are *not* re-applied
    /// (the burned crossbars and core fault images already carry them).
    pub plan: Option<FaultPlan>,
    /// Telemetry image, when telemetry was enabled.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Opaque application payload (e.g. a harness's running output
    /// checksum); empty when unused.
    pub app: Vec<u8>,
}

fn write_chip_config(w: &mut Writer, c: &ChipConfig) {
    w.usize(c.width);
    w.usize(c.height);
    w.usize(c.core_axons);
    w.usize(c.core_neurons);
    w.u32(c.seed);
    // Reserved: the tick-semantics tag of the BSNP layout. The barriered
    // tick is tag 0 and the only contract; the byte stays so existing
    // checkpoints remain readable, and the reader refuses any other value.
    w.u8(0);
    w.usize(c.threads);
    // Reserved: the scheduling tag. Active-core scheduling is tag 0 and
    // the only scheduler a chip is configured with; the byte stays so the
    // layout and existing checkpoints do not move.
    w.u8(0);
    match c.tile {
        None => w.bool(false),
        Some(t) => {
            w.bool(true);
            w.usize(t.width);
            w.usize(t.height);
            w.u8(t.link_latency);
        }
    }
}

fn read_chip_config(r: &mut Reader) -> Result<ChipConfig, WireError> {
    let (width, height, core_axons, core_neurons) =
        (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
    let seed = r.u32()?;
    if r.u8()? != 0 {
        return Err(WireError::Malformed("semantics tag"));
    }
    let threads = r.usize()?;
    // Tag 1 is the full sweep an older writer could be configured with. Its
    // checkpoints carry eager per-core clocks — exactly what the production
    // scheduler's checkpoints virtualise — so they restore onto it as is.
    if r.u8()? > 1 {
        return Err(WireError::Malformed("scheduling tag"));
    }
    Ok(ChipConfig {
        width,
        height,
        core_axons,
        core_neurons,
        seed,
        threads,
        tile: if r.bool()? {
            Some(TileConfig {
                width: r.usize()?,
                height: r.usize()?,
                link_latency: r.u8()?,
            })
        } else {
            None
        },
    })
}

/// Runs a section decoder over `payload`, requiring full consumption and
/// attributing any wire error to `section`.
fn decode_section<T>(
    section: SectionId,
    payload: &[u8],
    f: impl FnOnce(&mut Reader) -> Result<T, WireError>,
) -> Result<T, RestoreError> {
    let mut r = Reader::new(payload);
    let value = f(&mut r).map_err(|e| RestoreError::from_wire(section, e))?;
    r.finish()
        .map_err(|e| RestoreError::from_wire(section, e))?;
    Ok(value)
}

impl Snapshot {
    /// Encodes the snapshot into the versioned, checksummed container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<(SectionId, Vec<u8>)> = Vec::with_capacity(6);

        let mut w = Writer::new();
        write_chip_config(&mut w, &self.config);
        sections.push((SectionId::Config, w.into_bytes()));

        let mut w = Writer::new();
        w.u64(self.now);
        w.u64(self.hops);
        w.u64(self.link_crossings);
        w.u64(self.outputs_total);
        codec::write_fault_stats(&mut w, &self.fault_stats);
        sections.push((SectionId::Chip, w.into_bytes()));

        let mut w = Writer::new();
        w.usize(self.cores.len());
        for core in &self.cores {
            codec::write_core_state(&mut w, core);
        }
        sections.push((SectionId::Cores, w.into_bytes()));

        if let Some(plan) = &self.plan {
            let mut w = Writer::new();
            codec::write_fault_plan(&mut w, plan);
            sections.push((SectionId::Faults, w.into_bytes()));
        }
        if let Some(t) = &self.telemetry {
            let mut w = Writer::new();
            codec::write_telemetry_config(&mut w, &t.config);
            w.u64(t.evicted);
            codec::write_run_summary(&mut w, &t.summary);
            sections.push((SectionId::Telemetry, w.into_bytes()));
        }
        if !self.app.is_empty() {
            sections.push((SectionId::App, self.app.clone()));
        }
        encode_container(&sections)
    }

    /// Decodes a snapshot from container bytes. Total over arbitrary
    /// input: every malformation returns a typed [`RestoreError`]; no byte
    /// sequence panics.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] — bad magic, version mismatch, truncation, section
    /// CRC failure, missing/duplicate/unknown sections, or a field that
    /// fails its own validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, RestoreError> {
        let sections = decode_container(bytes)?;
        let find = |id: SectionId| sections.iter().find(|(s, _)| *s == id).map(|(_, p)| *p);
        let require = |id: SectionId| find(id).ok_or(RestoreError::MissingSection { section: id });

        let config = decode_section(SectionId::Config, require(SectionId::Config)?, |r| {
            read_chip_config(r)
        })?;
        let (now, hops, link_crossings, outputs_total, fault_stats) =
            decode_section(SectionId::Chip, require(SectionId::Chip)?, |r| {
                Ok((
                    r.u64()?,
                    r.u64()?,
                    r.u64()?,
                    r.u64()?,
                    codec::read_fault_stats(r)?,
                ))
            })?;
        let cores = decode_section(SectionId::Cores, require(SectionId::Cores)?, |r| {
            // A serialised core is far larger than 16 bytes; the bound
            // keeps a corrupted count from over-allocating.
            let count = r.len(16)?;
            let mut cores = Vec::with_capacity(count);
            for _ in 0..count {
                cores.push(codec::read_core_state(r)?);
            }
            Ok(cores)
        })?;
        let plan = find(SectionId::Faults)
            .map(|p| decode_section(SectionId::Faults, p, codec::read_fault_plan))
            .transpose()?;
        let telemetry = find(SectionId::Telemetry)
            .map(|p| {
                decode_section(SectionId::Telemetry, p, |r| {
                    Ok(TelemetrySnapshot {
                        config: codec::read_telemetry_config(r)?,
                        evicted: r.u64()?,
                        summary: codec::read_run_summary(r)?,
                    })
                })
            })
            .transpose()?;
        let app = find(SectionId::App).map(<[u8]>::to_vec).unwrap_or_default();

        Ok(Snapshot {
            config,
            now,
            hops,
            link_crossings,
            outputs_total,
            fault_stats,
            cores,
            plan,
            telemetry,
            app,
        })
    }

    /// Writes the snapshot to `path` crash-consistently (write-temp →
    /// fsync → rename): a crash at any instant leaves `path` either absent
    /// or holding its complete previous content.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] when the filesystem fails.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotIoError> {
        save_atomic(path, &self.to_bytes()).map_err(SnapshotIoError::Io)
    }

    /// Reads and decodes the snapshot at `path`, verifying every section
    /// CRC along the way.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] when the file cannot be read,
    /// [`SnapshotIoError::Restore`] when its bytes are not a valid
    /// snapshot.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotIoError> {
        let bytes = load_verified(path)?;
        Ok(Snapshot::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainsim_core::EvalStrategy;

    /// Re-encodes `bytes` with `patch` applied to one section's payload
    /// and the CRC recomputed, so only the semantic layer can object.
    fn with_patched_section(
        bytes: &[u8],
        id: SectionId,
        patch: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut sections: Vec<(SectionId, Vec<u8>)> = decode_container(bytes)
            .expect("container")
            .into_iter()
            .map(|(s, p)| (s, p.to_vec()))
            .collect();
        let section = sections.iter_mut().find(|(s, _)| *s == id);
        patch(&mut section.expect("section present").1);
        encode_container(&sections)
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            config: ChipConfig {
                width: 2,
                height: 1,
                core_axons: 4,
                core_neurons: 4,
                ..ChipConfig::default()
            },
            now: 7,
            hops: 11,
            link_crossings: 0,
            outputs_total: 3,
            fault_stats: FaultStats::default(),
            cores: Vec::new(),
            plan: Some(FaultPlan::new(9).with_link_drop(0.25)),
            telemetry: None,
            app: b"checksum".to_vec(),
        }
    }

    #[test]
    fn container_round_trip_without_cores() {
        // Core-image round-trips are covered in brainsim-snapshot's codec
        // tests and the chip-level checkpoint tests; this exercises the
        // section assembly itself.
        let snap = sample_snapshot();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn missing_required_section_is_typed() {
        // An App-only container parses at the container level but is not a
        // chip snapshot.
        let bytes = encode_container(&[(SectionId::App, vec![1, 2, 3])]);
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(RestoreError::MissingSection {
                section: SectionId::Config
            })
        );
    }

    #[test]
    fn trailing_garbage_inside_a_section_is_typed() {
        let bytes = with_patched_section(&sample_snapshot().to_bytes(), SectionId::Config, |p| {
            p.push(0xEE)
        });
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(RestoreError::Malformed {
                section: SectionId::Config,
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn sweep_written_scheduling_tag_restores_onto_the_production_scheduler() {
        // A relay chain with idle gaps, once on the production scheduler
        // and once on the sweep oracle — whose checkpoint, with the tag
        // patched to 1, is byte for byte what a writer configured with the
        // full sweep emitted.
        let mut b = crate::chip::tests::relay_builder(6, 1);
        let mut production = b.build().expect("builds");
        let mut sweep = b.sweep_reference().build().expect("builds");
        for chip in [&mut production, &mut sweep] {
            chip.inject(0, 0, 0, 0).expect("inject");
            chip.inject(0, 0, 0, 4).expect("inject");
            chip.run(5);
        }
        let good = sweep.checkpoint().to_bytes();
        assert_eq!(good, production.checkpoint().to_bytes());

        // The scheduling byte follows four u64 dimensions, the u32 seed,
        // the semantics byte and the u64 thread count.
        let swept = with_patched_section(&good, SectionId::Config, |p| {
            assert_eq!(p[45], 0, "the writer always emits tag 0");
            p[45] = 1;
        });
        let snapshot = Snapshot::from_bytes(&swept).expect("tag 1 still decodes");
        let mut resumed = crate::Chip::restore(snapshot).expect("restore");
        for _ in 0..12 {
            assert_eq!(resumed.tick(), production.tick());
        }
        assert_eq!(resumed.census(), production.census());

        let unknown = with_patched_section(&good, SectionId::Config, |p| p[45] = 2);
        assert_eq!(
            Snapshot::from_bytes(&unknown),
            Err(RestoreError::Malformed {
                section: SectionId::Config,
                what: "scheduling tag"
            })
        );
    }

    #[test]
    fn retired_wire_tags_are_typed_errors() {
        // Tags an older writer could have emitted — relaxed tick semantics
        // (1) and the dense evaluation strategy (0) — are refused as
        // malformed, never mapped onto a surviving value.
        let chip = crate::ChipBuilder::new(ChipConfig {
            width: 1,
            height: 1,
            core_axons: 4,
            core_neurons: 4,
            ..ChipConfig::default()
        })
        .build()
        .expect("empty chip builds");
        let snap = chip.checkpoint();
        let good = snap.to_bytes();

        // The semantics byte follows four u64 dimensions and the u32 seed.
        let relaxed = with_patched_section(&good, SectionId::Config, |p| p[36] = 1);
        assert_eq!(
            Snapshot::from_bytes(&relaxed),
            Err(RestoreError::Malformed {
                section: SectionId::Config,
                what: "semantics tag"
            })
        );

        // The strategy byte is wherever the Swar and Sparse images differ.
        let cores_payload = |strategy| {
            let mut w = Writer::new();
            w.usize(1);
            codec::write_core_state(
                &mut w,
                &CoreState {
                    strategy,
                    ..snap.cores[0].clone()
                },
            );
            w.into_bytes()
        };
        let (swar, sparse) = (
            cores_payload(EvalStrategy::Swar),
            cores_payload(EvalStrategy::Sparse),
        );
        let at = (0..swar.len())
            .find(|&i| swar[i] != sparse[i])
            .expect("strategy byte");
        let dense = with_patched_section(&good, SectionId::Cores, |p| p[at] = 0);
        assert_eq!(
            Snapshot::from_bytes(&dense),
            Err(RestoreError::Malformed {
                section: SectionId::Cores,
                what: "strategy tag"
            })
        );
    }
}
