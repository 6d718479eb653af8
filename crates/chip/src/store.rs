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
    BaseRef, CheckpointPolicy, RestoreError, RetryPolicy, SaveError, SkippedCheckpoint, WriteClaim,
};

use crate::chip::Chip;
use crate::shards::run_shards;
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

/// The most checkpoint writes [`CheckpointStore::write_all`] commits side
/// by side. The writes wait on the device's flushes rather than the CPU,
/// and a filesystem batches the flushes that wait at the same time, so this
/// does not follow a worker count. Eight gives each tenant of an
/// eight-tenant round its own thread, so a slow write delays no sibling;
/// past four the gain is small (EXPERIMENTS.md, *Where a checkpoint round's
/// disk time goes*).
const FAN_OUT: usize = 8;

/// One checkpoint encoded for a [`CheckpointStore::write_all`] batch.
#[derive(Debug)]
struct Encoded {
    tick: u64,
    bytes: Vec<u8>,
    /// The chip's structure generation when this is a full checkpoint,
    /// which becomes the base once it commits; `None` for a delta.
    base_generation: Option<u64>,
    claim: WriteClaim,
}

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
    /// This is [`CheckpointStore::write_all`] with one item, which runs on
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// [`SaveError`] once the retry budget is spent; the store is then as
    /// it was before the call.
    pub fn write(&mut self, chip: &Chip, app: &[u8]) -> Result<u64, SaveError> {
        let mut written = CheckpointStore::write_all([(self, chip, app)]);
        written.pop().expect("one result per item")
    }

    /// [`CheckpointStore::write`] for a batch of stores, each writing its
    /// own chip: one disk wait for all of them instead of one per store.
    ///
    /// Each checkpoint is encoded on the calling thread, in batch order,
    /// under the full-or-delta rule of [`CheckpointStore::write`]. The
    /// encoded images commit side by side through [`run_shards`], in
    /// contiguous runs over at most eight threads (one item runs inline),
    /// and each run starts as soon as it is encoded, while the caller
    /// encodes the next. Each commit is the whole save of
    /// [`CheckpointPolicy::save_with_retry`]: temp file, file `fsync`,
    /// rename, directory `fsync`, prune. The batch returns once every item
    /// has committed or failed, with each item's result in batch order;
    /// every base is recorded only after its own rename committed.
    ///
    /// The test hooks of every write ([`WriteClaim`]) are claimed on the
    /// calling thread in batch order, so injected failures and hold
    /// ordinals land on the items as if they had been written one at a
    /// time.
    pub fn write_all<'a, A: AsRef<[u8]>>(
        batch: impl IntoIterator<Item = (&'a mut CheckpointStore, &'a Chip, A)>,
    ) -> Vec<Result<u64, SaveError>> {
        let mut batch: Vec<_> = batch.into_iter().collect();
        CheckpointStore::write_batch(
            batch
                .iter_mut()
                .map(|(store, chip, app)| (&mut **store, *chip, A::as_ref(app)))
                .collect(),
        )
    }

    /// [`CheckpointStore::write_all`] past its generic argument, so that
    /// each caller does not compile its own copy.
    fn write_batch(
        batch: Vec<(&mut CheckpointStore, &Chip, &[u8])>,
    ) -> Vec<Result<u64, SaveError>> {
        // `run_shards` draws each run as it spawns the one before, so the
        // encoding of later runs overlaps the commits of earlier ones.
        let per_lane = batch.len().div_ceil(FAN_OUT);
        let mut images = batch
            .iter()
            .map(|(store, chip, app)| (&**store, store.encode(chip, app)));
        let lanes = std::iter::from_fn(|| {
            let lane: Vec<_> = images.by_ref().take(per_lane).collect();
            (!lane.is_empty()).then_some(lane)
        });
        let mut committed = Vec::with_capacity(batch.len());
        for lane in run_shards(lanes, |lane| {
            lane.into_iter()
                .map(|(store, image)| {
                    let saved = store.commit(&image);
                    (image, saved)
                })
                .collect::<Vec<_>>()
        }) {
            match lane {
                Ok(done) => committed.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }

        batch
            .into_iter()
            .zip(committed)
            .map(|((store, _, _), (image, saved))| {
                let oldest = saved?;
                if let Some(generation) = image.base_generation {
                    store.base = Some((BaseRef::of(image.tick, &image.bytes), generation));
                }
                store.latest = image.tick;
                Ok(oldest)
            })
            .collect()
    }

    /// Encodes `chip`'s checkpoint under the full-or-delta rule and claims
    /// its write's test hooks.
    fn encode(&self, chip: &Chip, app: &[u8]) -> Encoded {
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
        Encoded {
            tick: chip.now(),
            bytes,
            base_generation: base.is_none().then_some(generation),
            claim: WriteClaim::claim(self.retry.attempts()),
        }
    }

    /// Saves an encoded checkpoint into the directory under the store's
    /// policies, with its claimed hooks armed.
    fn commit(&self, image: &Encoded) -> Result<u64, SaveError> {
        image.claim.run(|| {
            self.policy
                .save_with_retry(&self.dir, image.tick, &image.bytes, &self.retry)
        })
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
    fn a_batch_fails_and_records_bases_item_by_item() {
        let dirs: Vec<PathBuf> = (0..3).map(|i| tmpdir(&format!("batch-{i}"))).collect();
        let mut chips: Vec<Chip> = (0..3)
            .map(|_| relay_builder(4, 1).build().expect("builds"))
            .collect();
        let mut stores: Vec<CheckpointStore> = dirs.iter().map(|d| store(d)).collect();

        // One injected failure lands on the first item: it fails alone, and
        // only the two that committed record a base.
        brainsim_snapshot::inject_write_failures(1);
        let written =
            CheckpointStore::write_all(stores.iter_mut().zip(&chips).map(|(s, c)| (s, c, b"x")));
        assert!(written[0].is_err());
        assert_eq!(
            written[1..]
                .iter()
                .map(|r| *r.as_ref().expect("committed"))
                .collect::<Vec<_>>(),
            [0, 0]
        );
        assert_eq!(
            stores
                .iter()
                .map(CheckpointStore::latest)
                .collect::<Vec<_>>(),
            [0, 0, 0]
        );

        for chip in &mut chips {
            advance(chip, 2);
        }
        let written =
            CheckpointStore::write_all(stores.iter_mut().zip(&chips).map(|(s, c)| (s, c, b"x")));
        assert!(written.iter().all(Result::is_ok));
        let deltas: Vec<bool> = dirs.iter().map(|d| is_delta(d, 2)).collect();
        assert_eq!(
            deltas,
            [false, true, true],
            "the failed base is never named"
        );
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
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
