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
//!   ([`SectionId`]), encoded in one pass by [`ContainerWriter`];
//!   [`decode_container`] is total over arbitrary bytes, returning typed
//!   [`RestoreError`]s, never panicking. A container is full, or a delta
//!   naming its full base by [`BaseRef`].
//! * file — [`save_atomic`] (write-temp → fsync → rename → directory
//!   fsync: a crash leaves the previous snapshot intact), [`load_verified`]
//!   and the write hooks a [`WriteClaim`] carries.
//! * policy — [`CheckpointPolicy`]: keep-last-K retention that keeps the
//!   bases retained deltas name, the one retried write
//!   [`CheckpointPolicy::save_with_retry`], and
//!   [`CheckpointPolicy::load_newest_verifying`], which resolves deltas
//!   through the [`Checkpoint`] trait and falls back past a corrupt latest
//!   snapshot or a lost base. Beside it, the one retry vocabulary: the
//!   capped-exponential [`BackoffLadder`], counted in milliseconds for a
//!   write's retries and in ticks or rounds for the [`RecoveryEpisode`]
//!   the self-healing runner and the serving fleet both drive.
//!
//! The chip-level assembly — `Chip::checkpoint()` / `Chip::restore()` and
//! the `Snapshot` type — lives in `brainsim-chip`, which composes these
//! layers with its own configuration section. So does `CheckpointStore`,
//! the one writer and restore path over a checkpoint directory: it picks
//! full or delta, writes through [`CheckpointPolicy::save_with_retry`] and
//! restores through [`CheckpointPolicy::load_newest_verifying`].
//!
//! ## Crash-injection hook
//!
//! For the CI kill tests, `BRAINSIM_SNAPSHOT_HOLD_WRITE=n` makes the
//! process's `n`-th checkpoint write sleep `BRAINSIM_SNAPSHOT_HOLD_MS`
//! milliseconds between the temp-file fsync and the rename — the widest
//! mid-write window. A SIGKILL landing there must (and does) leave the
//! newest committed snapshot loadable.
//!
//! For the retry path, `BRAINSIM_SNAPSHOT_FAIL_WRITES=n` makes the first
//! `n` checkpoint write attempts of the process fail with a synthetic
//! `io::Error` ([`inject_write_failures`] is the per-thread in-process
//! equivalent); [`CheckpointPolicy::save_with_retry`] rides out such
//! transients and surfaces exhaustion as a typed [`SaveError`].
//!
//! Both hooks are read from the environment once per process, and only a
//! [`WriteClaim`] takes from them: the writer claims each write's hooks in
//! its own order and passes the claim to `save_with_retry` by value, so
//! failures and hold ordinals land on the same writes whether they commit
//! one at a time or side by side. [`save_atomic`] itself meets no hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
mod container;
mod crc;
mod file;
mod policy;
pub mod wire;

pub use container::{
    decode_container, encode_container, verify, BaseRef, ContainerWriter, RestoreError, SectionId,
    MAGIC, VERSION,
};
pub use crc::crc32;
pub use file::{inject_write_failures, load_verified, save_atomic, SnapshotIoError, WriteClaim};
pub use policy::{
    BackoffLadder, Checkpoint, CheckpointPolicy, FailedAttempt, NewestVerifying, RecoveryEpisode,
    SaveError, SkippedCheckpoint,
};
