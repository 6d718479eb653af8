//! # brainsim-snapshot
//!
//! Crash-consistent checkpoint/restore for the simulator: a versioned,
//! checksummed binary container for complete chip state, atomic snapshot
//! files, and a retention policy with corruption fallback.
//!
//! The architecture's determinism contract makes checkpointing exact: chip
//! state is a finite set of words (membrane potentials, LFSR states,
//! crossbar words, scheduler rings, counters), and a run restored from a
//! snapshot taken after tick `t` produces the *bit-identical* event stream
//! a never-interrupted run produces — at any thread count, on the SWAR or
//! scalar kernels. `tests/checkpoint.rs` proves it differentially.
//!
//! ## Layers
//!
//! * [`wire`] — bounds-checked little-endian primitives ([`wire::Writer`] /
//!   [`wire::Reader`]); every length prefix is validated before allocation.
//! * [`codec`] — explicit field-ordered codecs for the state images
//!   ([`brainsim_core::CoreState`], [`brainsim_faults::FaultPlan`],
//!   [`brainsim_telemetry::RunSummary`]).
//! * container — [`MAGIC`]`+`[`VERSION`] header and CRC-32-framed sections
//!   ([`SectionId`]); [`decode_container`] is total over arbitrary bytes,
//!   returning typed [`RestoreError`]s, never panicking.
//! * file — [`save_atomic`] (write-temp → fsync → rename: a crash leaves
//!   the previous snapshot intact) and [`load_verified`].
//! * policy — [`CheckpointPolicy`]: every-N cadence, keep-last-K retention,
//!   and [`CheckpointPolicy::load_newest_verifying`] fallback past a
//!   corrupt latest snapshot.
//!
//! The chip-level assembly — `Chip::checkpoint()` / `Chip::restore()` and
//! the `Snapshot` type — lives in `brainsim-chip`, which composes these
//! layers with its own configuration section.
//!
//! ## Crash-injection hook
//!
//! For the CI kill tests, `BRAINSIM_SNAPSHOT_HOLD_WRITE=n` makes the
//! process's `n`-th atomic write sleep `BRAINSIM_SNAPSHOT_HOLD_MS`
//! milliseconds between the temp-file fsync and the rename — the widest
//! mid-write window. A SIGKILL landing there must (and does) leave the
//! newest committed snapshot loadable.
//!
//! For the retry path, `BRAINSIM_SNAPSHOT_FAIL_WRITES=n` makes the first
//! `n` atomic writes of the process fail with a synthetic `io::Error`
//! ([`inject_write_failures`] is the per-thread in-process equivalent);
//! [`CheckpointPolicy::save_with_retry`] with a [`RetryPolicy`] rides out
//! such transients and surfaces exhaustion as a typed [`SaveError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod codec;
mod container;
mod crc;
mod file;
mod policy;
pub mod wire;

pub use container::{
    decode_container, encode_container, verify, RestoreError, SectionId, MAGIC, VERSION,
};
pub use crc::crc32;
pub use file::{inject_write_failures, load_verified, save_atomic, SnapshotIoError};
pub use policy::{
    BackoffLadder, CheckpointPolicy, NewestVerifying, RetryPolicy, SaveError, SkippedCheckpoint,
};
