//! The checkpoint store: one chip's checkpoint directory, written by one
//! writer and read back by one restore path.
//!
//! [`CheckpointStore::write`] makes the one full-or-delta decision: a
//! delta against the store's base while the chip's
//! [`Chip::structure_generation`] is the base's, and otherwise a full
//! checkpoint that becomes the new base. That covers every case where a
//! full checkpoint is needed. The first write has no base. A restored or
//! rebuilt chip, such as one a hot migration produced, has a new
//! generation. So does a chip after [`Chip::set_fault_plan`].
//! [`CheckpointStore::restore`] is the way back: the newest checkpoint
//! that verifies, resolved against its base and validated by
//! [`Chip::restore`].

use std::io;
use std::path::PathBuf;

use brainsim_snapshot::{
    BaseRef, CheckpointPolicy, RestoreError, RetryPolicy, SaveError, SkippedCheckpoint,
};

use crate::chip::Chip;
use crate::snapshot::Snapshot;

/// One chip's checkpoint directory: cadence and retention from a
/// [`CheckpointPolicy`], writes retried under a [`RetryPolicy`], and the
/// base that deltas are taken against.
///
/// The serving fleet keeps one per tenant, the self-healing runner one for
/// its pre-migration checkpoints, and the quickstart one for its run.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    policy: CheckpointPolicy,
    retry: RetryPolicy,
    /// The newest full checkpoint written, and the structure generation of
    /// the chip it captured.
    base: Option<(BaseRef, u64)>,
    /// The tick of the newest checkpoint written or restored; 0 before any.
    latest: u64,
}

/// A chip brought back by [`CheckpointStore::restore`].
#[derive(Debug)]
pub struct Restored {
    /// The tick of the checkpoint it came from.
    pub tick: u64,
    /// The validated chip, at that tick.
    pub chip: Chip,
    /// The checkpoint's application payload; empty when it had none.
    pub app: Vec<u8>,
}

/// Why [`CheckpointStore::restore`] brought no chip back.
#[derive(Debug)]
pub enum ResumeError {
    /// The directory could not be listed.
    Scan(io::Error),
    /// No checkpoint in the directory verifies.
    Empty,
    /// The newest checkpoint that verifies is older than the floor.
    BelowFloor {
        /// The oldest tick the caller could resume from.
        floor: u64,
    },
    /// The newest checkpoint verifies but describes no valid chip.
    Chip(RestoreError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Scan(e) => write!(f, "checkpoint scan failed: {e}"),
            ResumeError::Empty => write!(f, "no verifying checkpoint on disk"),
            ResumeError::BelowFloor { floor } => {
                write!(f, "no verifying checkpoint since tick {floor}")
            }
            ResumeError::Chip(e) => write!(f, "chip restore failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl CheckpointStore {
    /// A store over `dir`. Opening touches no file: checkpoints already
    /// there are what [`CheckpointStore::restore`] resumes from, and
    /// [`CheckpointStore::clear`] starts a new history instead.
    pub fn open(dir: impl Into<PathBuf>, policy: CheckpointPolicy, retry: RetryPolicy) -> Self {
        CheckpointStore {
            dir: dir.into(),
            policy,
            retry,
            base: None,
            latest: 0,
        }
    }

    /// The tick of the newest checkpoint this store wrote or restored; 0
    /// before any.
    pub fn latest(&self) -> u64 {
        self.latest
    }

    /// Starts a new history: removes every checkpoint and base in the
    /// directory (see [`CheckpointPolicy::clear`]) and forgets the base.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointPolicy::clear`].
    pub fn clear(&mut self) -> io::Result<()> {
        self.base = None;
        self.latest = 0;
        CheckpointPolicy::clear(&self.dir)
    }

    /// Checkpoints `chip` with `app` as its application payload, retrying
    /// under the store's [`RetryPolicy`]. The checkpoint is a delta against
    /// the base when the chip's structure generation is the base's, and
    /// otherwise full. A full checkpoint becomes the base once its rename
    /// has committed, so no delta can name a base that is not on disk.
    /// Returns the oldest tick still on disk as a checkpoint, the floor of
    /// every later restore (see [`CheckpointPolicy::save`]).
    ///
    /// # Errors
    ///
    /// [`SaveError`] once the retry budget is spent; the store is then as
    /// it was before the call.
    pub fn write(&mut self, chip: &Chip, app: &[u8]) -> Result<u64, SaveError> {
        let tick = chip.now();
        let generation = chip.structure_generation();
        let base = self
            .base
            .filter(|&(_, g)| g == generation)
            .map(|(id, _)| id);
        let bytes = match base {
            Some(base) => {
                let mut delta = chip.checkpoint_delta(base);
                delta.app = app.to_vec();
                delta.to_bytes()
            }
            None => {
                let mut snapshot = chip.checkpoint();
                snapshot.app = app.to_vec();
                snapshot.to_bytes()
            }
        };
        let oldest = self
            .policy
            .save_with_retry(&self.dir, tick, &bytes, &self.retry)?;
        if base.is_none() {
            self.base = Some((BaseRef::of(tick, &bytes), generation));
        }
        self.latest = tick;
        Ok(oldest)
    }

    /// Restores the newest checkpoint in the directory that verifies and
    /// decodes (a delta over its base), walking back past damaged files. If
    /// that checkpoint is older than `floor`, it is refused as
    /// [`ResumeError::BelowFloor`]. Alongside the outcome come the newer
    /// checkpoints the walk skipped, newest first, for the caller to log.
    /// The restored chip has a new structure generation, so the next
    /// [`CheckpointStore::write`] is full.
    ///
    /// A checkpoint that verifies but fails [`Chip::restore`] ends the
    /// walk as [`ResumeError::Chip`]: it is not skipped like a corrupt one.
    pub fn restore(
        &mut self,
        floor: u64,
    ) -> (Result<Restored, ResumeError>, Vec<SkippedCheckpoint>) {
        let (found, skipped) = match CheckpointPolicy::load_newest_verifying::<Snapshot>(&self.dir)
        {
            Ok(walk) => walk,
            Err(e) => return (Err(ResumeError::Scan(e)), Vec::new()),
        };
        let restored = match found {
            None => Err(ResumeError::Empty),
            Some((tick, _)) if tick < floor => Err(ResumeError::BelowFloor { floor }),
            Some((tick, mut snapshot)) => {
                let app = std::mem::take(&mut snapshot.app);
                Chip::restore(snapshot)
                    .map(|chip| Restored { tick, chip, app })
                    .map_err(ResumeError::Chip)
            }
        };
        if let Ok(r) = &restored {
            self.latest = r.tick;
        }
        (restored, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::tests::relay_builder;
    use crate::snapshot::SnapshotDelta;
    use brainsim_faults::FaultPlan;
    use std::path::Path;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("brainsim-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(dir: &Path) -> CheckpointStore {
        let once = RetryPolicy::new(1, Duration::ZERO, Duration::ZERO);
        CheckpointStore::open(dir, CheckpointPolicy::new(1, 8), once)
    }

    fn is_delta(dir: &Path, tick: u64) -> bool {
        let bytes = std::fs::read(CheckpointPolicy::path_for(dir, tick)).expect("checkpoint");
        SnapshotDelta::from_bytes(&bytes).is_ok()
    }

    /// A relay chain with events in flight, `ticks` further on.
    fn advance(chip: &mut Chip, ticks: u64) {
        let now = chip.now();
        for t in now..now + ticks {
            chip.inject(0, 0, 0, t).expect("inject");
        }
        chip.run(ticks);
    }

    #[test]
    fn full_when_the_tables_are_new_and_a_delta_otherwise() {
        let dir = tmpdir("rule");
        let mut chip = relay_builder(4, 1).build().expect("builds");
        let mut s = store(&dir);
        let write = |s: &mut CheckpointStore, chip: &Chip| {
            s.write(chip, b"app").expect("write");
            is_delta(&dir, chip.now())
        };

        // The first write has no base; the next ones are deltas over it.
        assert!(!write(&mut s, &chip));
        advance(&mut chip, 3);
        assert!(write(&mut s, &chip));
        advance(&mut chip, 3);
        assert!(write(&mut s, &chip));

        // A fault plan moves the structure: a new base, then deltas again.
        chip.set_fault_plan(&FaultPlan::new(3).with_dead_neuron(0.3));
        advance(&mut chip, 3);
        assert!(!write(&mut s, &chip));
        advance(&mut chip, 3);
        assert!(write(&mut s, &chip));
        assert_eq!(s.latest(), 12);

        // A restored chip has new tables: full, then deltas over it. The
        // restore resolves the tick-12 delta over its tick-9 base.
        let restored = s.restore(0).0.expect("restores");
        assert_eq!((restored.tick, restored.app.as_slice()), (12, &b"app"[..]));
        let mut chip = restored.chip;
        advance(&mut chip, 3);
        assert!(!write(&mut s, &chip));
        advance(&mut chip, 3);
        assert!(write(&mut s, &chip));

        // A clone shares the tables, so it may write against the base.
        let twin = chip.clone();
        assert!(write(&mut s, &twin));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_base_write_is_never_named() {
        let dir = tmpdir("failed-base");
        let mut chip = relay_builder(4, 1).build().expect("builds");
        let mut s = store(&dir);
        brainsim_snapshot::inject_write_failures(1);
        assert!(s.write(&chip, &[]).is_err());
        assert_eq!(s.latest(), 0);
        advance(&mut chip, 2);
        s.write(&chip, &[]).expect("write");
        assert!(!is_delta(&dir, 2), "the base never landed: full again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_walks_back_and_honours_the_floor() {
        let dir = tmpdir("walk");
        let mut chip = relay_builder(4, 1).build().expect("builds");
        let mut s = store(&dir);
        assert!(matches!(s.restore(0).0, Err(ResumeError::Empty)));
        for _ in 0..3 {
            advance(&mut chip, 2);
            s.write(&chip, &[]).expect("write");
        }

        // Damage the newest: the walk skips it and lands on tick 4.
        let newest = CheckpointPolicy::path_for(&dir, 6);
        let mut bytes = std::fs::read(&newest).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, bytes).expect("damage");
        let (restored, skipped) = s.restore(0);
        assert_eq!(restored.expect("restores").tick, 4);
        assert_eq!(skipped.iter().map(|k| k.tick).collect::<Vec<_>>(), [6]);
        assert_eq!(s.latest(), 4);

        let (restored, skipped) = s.restore(5);
        let err = restored.expect_err("below the floor");
        assert_eq!(err.to_string(), "no verifying checkpoint since tick 5");
        assert_eq!(skipped.len(), 1);

        // Newer files from outside: noise is skipped like damage, but an
        // image that verifies and decodes yet describes no valid chip (its
        // cores' clocks disagree with the chip's) ends the walk, typed.
        let policy = CheckpointPolicy::new(1, 8);
        policy.save(&dir, 8, b"noise").expect("save noise");
        let mut skewed = chip.checkpoint();
        skewed.now += 1;
        policy
            .save(&dir, 7, &skewed.to_bytes())
            .expect("save skewed");
        let (restored, skipped) = s.restore(0);
        assert!(matches!(
            restored,
            Err(ResumeError::Chip(RestoreError::Invalid(_)))
        ));
        assert_eq!(skipped.iter().map(|k| k.tick).collect::<Vec<_>>(), [8]);
        assert_eq!(s.latest(), 4, "a failed restore moves nothing");

        // Clearing starts a new history: nothing is left to restore.
        s.clear().expect("clear");
        assert!(matches!(s.restore(0).0, Err(ResumeError::Empty)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
