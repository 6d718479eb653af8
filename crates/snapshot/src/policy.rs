//! Checkpoint retention: keep the last K checkpoints, and on restore fall
//! back to the newest snapshot that still verifies.
//!
//! A checkpoint file is full or a delta (see the container docs). A delta
//! is only as good as its base, so retention keeps every base a retained
//! delta names. A base that has left the keep-K window is renamed
//! `base-<tick>.bsnp`: it stops being a restore candidate of its own, but a
//! delta can still resolve against it.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::container::{
    decode_container, verify, BaseRef, RestoreError, SectionId, BASE_PREFIX_LEN,
};
use crate::file::{injected_failure, save_holding, SnapshotIoError, WriteClaim};

/// A bounded capped-exponential retry ladder over an abstract step unit:
/// ticks for the self-healing runner, scheduling rounds for a serving
/// runtime, and milliseconds for a checkpoint write's retries
/// ([`CheckpointPolicy::save_with_retry`]). Measuring recovery backoff in
/// simulation steps instead of wall time keeps those schedules
/// deterministic and replayable.
///
/// The ladder answers one question: after the `k`-th consecutive failure,
/// how long until the next attempt — or is the budget exhausted?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffLadder {
    base: u64,
    cap: u64,
    max_attempts: u32,
}

impl BackoffLadder {
    /// The default checkpoint write retries, in milliseconds: 10 ms after
    /// the first failure, 20 ms after the second, and a [`SaveError`]
    /// after the third.
    pub const CHECKPOINT_WRITES: BackoffLadder = BackoffLadder {
        base: 10,
        cap: 500,
        max_attempts: 3,
    };

    /// A ladder waiting `base × 2^(k−1)` steps after the `k`-th failure
    /// (capped at `cap`), permitting `max_attempts` attempts in total.
    /// Degenerate inputs clamp: `base ≥ 1`, `cap ≥ base`,
    /// `max_attempts ≥ 1`.
    pub fn new(base: u64, cap: u64, max_attempts: u32) -> BackoffLadder {
        let base = base.max(1);
        BackoffLadder {
            base,
            cap: cap.max(base),
            max_attempts: max_attempts.max(1),
        }
    }

    /// Total attempts permitted before the ladder is exhausted.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Steps to wait after the `failed`-th consecutive failure (1-based):
    /// `Some(base × 2^(failed−1))`, saturating and capped — or `None` when
    /// the attempt budget is exhausted and the caller must escalate
    /// (degrade in place, declare the session failed).
    pub fn delay_after(&self, failed: u32) -> Option<u64> {
        if failed >= self.max_attempts {
            return None;
        }
        let shift = failed.saturating_sub(1).min(63);
        Some(self.base.saturating_mul(1u64 << shift).min(self.cap))
    }
}

impl Default for BackoffLadder {
    /// 3 attempts, base 8 steps, cap 64 — the self-healing runner's
    /// historical schedule.
    fn default() -> Self {
        BackoffLadder::new(8, 64, 3)
    }
}

/// One recovery episode on a [`BackoffLadder`]: the attempts that failed
/// since the last recovery, and the step at which the next may run. Pure
/// bookkeeping, with no I/O and no clock; the self-healing runner counts
/// steps in ticks and the serving fleet in rounds.
///
/// A fresh episode is due at once, so a first attempt never waits. Each
/// failure either schedules a retry up the ladder or exhausts it, after
/// which the episode is never due again. [`RecoveryEpisode::recovered`]
/// closes the episode and leaves it fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEpisode {
    ladder: BackoffLadder,
    failed: u32,
    /// Step of the next attempt; `None` once the ladder is exhausted.
    next_at: Option<u64>,
}

/// What [`RecoveryEpisode::failed`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedAttempt {
    /// Try again at step `at`.
    Retry {
        /// The step of the next attempt.
        at: u64,
    },
    /// The ladder is exhausted: escalate (degrade in place, fail the
    /// session).
    Exhausted {
        /// Attempts made in the episode.
        attempts: u32,
    },
}

impl RecoveryEpisode {
    /// A fresh episode on `ladder`.
    pub fn new(ladder: BackoffLadder) -> RecoveryEpisode {
        RecoveryEpisode {
            ladder,
            failed: 0,
            next_at: Some(0),
        }
    }

    /// True when an attempt may run at step `now`.
    pub fn due(&self, now: u64) -> bool {
        self.next_at.is_some_and(|at| now >= at)
    }

    /// Records an attempt that failed at step `now` and climbs the ladder.
    pub fn failed(&mut self, now: u64) -> FailedAttempt {
        self.failed = self.failed.saturating_add(1);
        self.next_at = self
            .ladder
            .delay_after(self.failed)
            .map(|delay| now.saturating_add(delay));
        match self.next_at {
            Some(at) => FailedAttempt::Retry { at },
            None => FailedAttempt::Exhausted {
                attempts: self.failed,
            },
        }
    }

    /// Closes the episode after a successful attempt.
    pub fn recovered(&mut self) {
        *self = RecoveryEpisode::new(self.ladder);
    }

    /// Attempts that failed in this episode.
    pub fn attempts(&self) -> u32 {
        self.failed
    }

    /// True once the ladder is exhausted.
    pub fn exhausted(&self) -> bool {
        self.next_at.is_none()
    }
}

/// A checkpoint write that failed on every permitted attempt.
#[derive(Debug)]
pub struct SaveError {
    /// Attempts made (the retry ladder's `max_attempts`).
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: io::Error,
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint write failed after {} attempt(s): {}",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for SaveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

/// A checkpoint file [`CheckpointPolicy::load_newest_verifying`]
/// passed over on its backwards walk: newer than the winner, but damaged or
/// unreadable. Surfacing these lets a supervisor log and meter
/// corrupt-checkpoint events instead of silently healing past them — a
/// checkpoint that rots on disk is an incident even when an older one
/// saves the restore.
#[derive(Debug)]
pub struct SkippedCheckpoint {
    /// The tick encoded in the skipped file's name.
    pub tick: u64,
    /// The skipped file.
    pub path: PathBuf,
    /// Why it was skipped: unreadable, failed container verification, did
    /// not decode, or is a delta whose base is missing, corrupt or another
    /// shape.
    pub error: SnapshotIoError,
}

/// The audited result of
/// [`CheckpointPolicy::load_newest_verifying`]: the newest restorable
/// `(tick, checkpoint)` — or `None` — plus every newer checkpoint the
/// backwards walk skipped, newest first.
pub type NewestVerifying<T> = (Option<(u64, T)>, Vec<SkippedCheckpoint>);

/// A checkpoint image [`CheckpointPolicy::load_newest_verifying`] can
/// rebuild from a full container, or from a delta over its base. The
/// loader verifies, finds and checks the base; the image decodes.
pub trait Checkpoint: Sized {
    /// Decodes a full checkpoint from its verified sections.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the sections do not describe a checkpoint.
    fn decode_full(sections: &[(SectionId, &[u8])]) -> Result<Self, RestoreError>;

    /// Decodes a delta's verified sections over `base`, the decoded full
    /// checkpoint the delta names.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the sections are not a delta, or the delta
    /// does not fit `base`.
    fn decode_delta(base: Self, sections: &[(SectionId, &[u8])]) -> Result<Self, RestoreError>;
}

/// Reads, verifies and decodes the checkpoint at `path`, resolving a delta
/// against the base it names in `dir`.
fn load_resolved<T: Checkpoint>(dir: &Path, path: &Path) -> Result<T, SnapshotIoError> {
    let bytes = std::fs::read(path)?;
    let sections = decode_container(&bytes)?;
    let Some(base) = BaseRef::from_sections(&sections)? else {
        return Ok(T::decode_full(&sections)?);
    };
    let base_bytes = find_base(dir, base)?;
    let base_sections =
        decode_container(&base_bytes).map_err(|_| RestoreError::CorruptBase { tick: base.tick })?;
    if BaseRef::from_sections(&base_sections)?.is_some() {
        return Err(RestoreError::BaseMismatch {
            what: "the base is itself a delta",
        }
        .into());
    }
    let decoded = T::decode_full(&base_sections)?;
    Ok(T::decode_delta(decoded, &sections)?)
}

/// The bytes of the base `base` names: the file at its tick, in or out of
/// the keep window, whose digest matches.
fn find_base(dir: &Path, base: BaseRef) -> Result<Vec<u8>, RestoreError> {
    let mut corrupt = false;
    for path in [
        CheckpointPolicy::path_for(dir, base.tick),
        CheckpointPolicy::base_path_for(dir, base.tick),
    ] {
        if let Ok(bytes) = std::fs::read(&path) {
            if BaseRef::of(base.tick, &bytes) == base {
                return Ok(bytes);
            }
            corrupt |= verify(&bytes).is_err();
        }
    }
    Err(if corrupt {
        RestoreError::CorruptBase { tick: base.tick }
    } else {
        RestoreError::UnknownBase { tick: base.tick }
    })
}

/// The tick of the base the checkpoint at `path` names, if it is a delta
/// (read from the first bytes of the file alone).
fn base_named_by(path: &Path) -> Option<u64> {
    let mut prefix = [0u8; BASE_PREFIX_LEN];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut prefix))
        .ok()?;
    BaseRef::from_prefix(&prefix).map(|base| base.tick)
}

/// Checkpoints as `(tick, path)`, oldest first.
type Listing = Vec<(u64, PathBuf)>;

/// One scan of `dir`: its checkpoints (`ckpt-<tick>.bsnp`) and its bases
/// out of the keep window (`base-<tick>.bsnp`). Other files, including
/// `.tmp` leftovers from a crashed write, are ignored.
fn scan(dir: &Path) -> io::Result<(Listing, Listing)> {
    let (mut checkpoints, mut bases) = (Vec::new(), Vec::new());
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((checkpoints, bases)),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        let Some((kind, digits)) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".bsnp"))
            .and_then(|stem| stem.split_once('-'))
        else {
            continue;
        };
        let Ok(tick) = digits.parse::<u64>() else {
            continue;
        };
        match kind {
            "ckpt" => checkpoints.push((tick, path)),
            "base" => bases.push((tick, path)),
            _ => {}
        }
    }
    checkpoints.sort();
    bases.sort();
    Ok((checkpoints, bases))
}

/// How many checkpoints to retain, and the layout of a checkpoint
/// directory.
///
/// Retention is the corruption-recovery margin: with `keep ≥ 2`, a latest
/// snapshot damaged on disk (bit rot, torn by an unlucky crash window on a
/// non-atomic filesystem) still leaves an older verified one for
/// [`CheckpointPolicy::load_newest_verifying`] to fall back to. When to
/// checkpoint is the writer's own cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    keep: usize,
}

impl CheckpointPolicy {
    /// Keeps the newest `keep` checkpoint files (min 1).
    pub fn new(keep: usize) -> CheckpointPolicy {
        CheckpointPolicy { keep: keep.max(1) }
    }

    /// The canonical file path for the checkpoint taken at `tick`. The
    /// zero-padded tick makes lexical order equal numeric order.
    pub fn path_for(dir: &Path, tick: u64) -> PathBuf {
        dir.join(format!("ckpt-{tick:020}.bsnp"))
    }

    /// Where the base taken at `tick` lives once it has left the keep
    /// window: beside the checkpoints, but not one of them.
    pub fn base_path_for(dir: &Path, tick: u64) -> PathBuf {
        dir.join(format!("base-{tick:020}.bsnp"))
    }

    /// All checkpoints in `dir`, as `(tick, path)` sorted oldest first.
    /// Non-checkpoint files (including `.tmp` leftovers from a crashed
    /// write, and bases out of the keep window) are ignored.
    pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        Ok(scan(dir)?.0)
    }

    /// Removes every checkpoint and base in `dir` and leaves its other
    /// files alone: how a writer starts a new history in a directory that an
    /// earlier run may have used. Without it, that run's newer checkpoints
    /// would outrank the new ones, and pruning would delete the new ones
    /// first. A missing directory is already clear.
    ///
    /// # Errors
    ///
    /// The error of listing `dir`, or the first error of removing a file;
    /// the rest are still tried.
    pub fn clear(dir: &Path) -> io::Result<()> {
        let (checkpoints, bases) = scan(dir)?;
        let mut result = Ok(());
        for (_, path) in checkpoints.iter().chain(&bases) {
            if let Err(e) = std::fs::remove_file(path) {
                if e.kind() != io::ErrorKind::NotFound && result.is_ok() {
                    result = Err(e);
                }
            }
        }
        result
    }

    /// Atomically writes the checkpoint for `tick`, then prunes the window
    /// to the newest `keep` checkpoints. Returns the oldest tick still on
    /// disk as a checkpoint: the floor of every later restore.
    ///
    /// A failed attempt is retried up `retry`, a ladder counted in
    /// milliseconds; only exhausting it surfaces, as a [`SaveError`]
    /// carrying the attempt count and the final cause. The write meets the
    /// test hooks of `claim` and no other: its first `claim.failures`
    /// attempts fail with a synthetic error, and the first attempt that
    /// reaches the rename pauses there iff the claim's hold ordinal is
    /// `BRAINSIM_SNAPSHOT_HOLD_WRITE`.
    ///
    /// The rename that commits the new file is the success point. Pruning
    /// after it is best effort: a file it cannot remove stays a checkpoint
    /// (and the floor), and the next save tries again. A pruned checkpoint
    /// that a retained delta names is renamed
    /// [`CheckpointPolicy::base_path_for`] instead of removed, and such a
    /// base is removed once no retained delta names it.
    ///
    /// # Errors
    ///
    /// [`SaveError`] after `retry.max_attempts()` consecutive failures to
    /// create `dir` or write the file.
    pub fn save_with_retry(
        &self,
        dir: &Path,
        tick: u64,
        bytes: &[u8],
        retry: &BackoffLadder,
        claim: WriteClaim,
    ) -> Result<u64, SaveError> {
        let path = CheckpointPolicy::path_for(dir, tick);
        let mut hold = claim.ordinal;
        let mut failed = 0;
        loop {
            let attempt = if u64::from(failed) < claim.failures {
                Err(injected_failure())
            } else {
                std::fs::create_dir_all(dir).and_then(|()| save_holding(&path, bytes, &mut hold))
            };
            let Err(last) = attempt else {
                // Without a listing nothing is known to be gone: floor at 0.
                return Ok(self.prune(dir).unwrap_or(0));
            };
            failed += 1;
            match retry.delay_after(failed) {
                Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
                None => {
                    return Err(SaveError {
                        attempts: failed,
                        last,
                    })
                }
            }
        }
    }

    /// The pruning half of [`CheckpointPolicy::save_with_retry`]; returns
    /// the oldest checkpoint left.
    fn prune(&self, dir: &Path) -> io::Result<u64> {
        let (checkpoints, bases) = scan(dir)?;
        let cut = checkpoints.len().saturating_sub(self.keep);
        let (leaving, kept) = checkpoints.split_at(cut);
        let named: Vec<u64> = kept
            .iter()
            .filter_map(|(_, path)| base_named_by(path))
            .collect();
        let mut oldest = kept.first().map_or(0, |(tick, _)| *tick);
        for (tick, path) in leaving {
            let pruned = if named.contains(tick) {
                std::fs::rename(path, CheckpointPolicy::base_path_for(dir, *tick))
            } else {
                std::fs::remove_file(path)
            };
            // A file that vanished meanwhile (a concurrent run, an
            // operator's cleanup) is already pruned.
            if pruned.is_err_and(|e| e.kind() != io::ErrorKind::NotFound) {
                oldest = oldest.min(*tick);
            }
        }
        for (tick, path) in &bases {
            if !named.contains(tick) {
                let _ = std::fs::remove_file(path);
            }
        }
        Ok(oldest)
    }

    /// Loads the newest checkpoint in `dir` that verifies (magic, version,
    /// every section CRC) and decodes, walking backwards past corrupt or
    /// unreadable files. A delta is resolved against the base it names,
    /// in or out of the keep window; a delta whose base is missing or
    /// corrupt is skipped like a corrupt file. The winner is `None` when
    /// no checkpoint loads; IO errors other than per-file read failures
    /// propagate.
    ///
    /// Alongside the winner comes the audit trail: every newer checkpoint
    /// the walk skipped and the [`SnapshotIoError`] that disqualified it,
    /// in newest-first walk order. A damaged or vanished file is exactly
    /// what fallback is for — but the caller gets to log and meter it.
    pub fn load_newest_verifying<T: Checkpoint>(dir: &Path) -> io::Result<NewestVerifying<T>> {
        let mut skipped = Vec::new();
        for (tick, path) in CheckpointPolicy::list(dir)?.into_iter().rev() {
            match load_resolved(dir, &path) {
                Ok(checkpoint) => return Ok((Some((tick, checkpoint)), skipped)),
                Err(error) => skipped.push(SkippedCheckpoint { tick, path, error }),
            }
        }
        Ok((None, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{encode_container, ContainerWriter};
    use crate::file::load_verified;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("brainsim-policy-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A full checkpoint whose only section is an app payload: its tick.
    fn payload(tick: u64) -> Vec<u8> {
        encode_container(&[(SectionId::App, tick.to_le_bytes().to_vec())])
    }

    /// A delta over `base` whose app payload is its tick.
    fn delta(tick: u64, base: BaseRef) -> Vec<u8> {
        let mut c = ContainerWriter::with_capacity(64);
        c.section(SectionId::Base, |w| base.write(w));
        c.section(SectionId::App, |w| w.bytes(&tick.to_le_bytes()));
        c.finish()
    }

    /// The stand-in image: the ticks of the app payloads it was built
    /// from, base first.
    #[derive(Debug, PartialEq)]
    struct Ticks(Vec<u64>);

    fn app_tick(sections: &[(SectionId, &[u8])]) -> Result<u64, RestoreError> {
        let app = sections
            .iter()
            .find(|(id, _)| *id == SectionId::App)
            .ok_or(RestoreError::MissingSection {
                section: SectionId::App,
            })?;
        let bytes = <[u8; 8]>::try_from(app.1).map_err(|_| RestoreError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    impl Checkpoint for Ticks {
        fn decode_full(sections: &[(SectionId, &[u8])]) -> Result<Ticks, RestoreError> {
            Ok(Ticks(vec![app_tick(sections)?]))
        }

        fn decode_delta(
            mut base: Ticks,
            sections: &[(SectionId, &[u8])],
        ) -> Result<Ticks, RestoreError> {
            base.0.push(app_tick(sections)?);
            Ok(base)
        }
    }

    /// One write with no hooks and no retry.
    fn save(p: &CheckpointPolicy, dir: &Path, tick: u64, bytes: &[u8]) -> Result<u64, SaveError> {
        let no_hooks = WriteClaim {
            failures: 0,
            ordinal: None,
        };
        p.save_with_retry(dir, tick, bytes, &BackoffLadder::new(1, 1, 1), no_hooks)
    }

    fn ticks(dir: &Path) -> Vec<u64> {
        CheckpointPolicy::list(dir)
            .expect("list")
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    #[test]
    fn save_rotates_and_keeps_newest_k() {
        let dir = tmpdir("rotate");
        let p = CheckpointPolicy::new(2);
        for (tick, oldest) in [(10, 10), (20, 10), (30, 20), (40, 30)] {
            assert_eq!(save(&p, &dir, tick, &payload(tick)).expect("save"), oldest);
        }
        assert_eq!(ticks(&dir), vec![30, 40]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_checkpoints_and_bases_only() {
        let dir = tmpdir("clear");
        let p = CheckpointPolicy::new(1);
        let base = payload(10);
        save(&p, &dir, 10, &base).expect("save base");
        save(&p, &dir, 20, &delta(20, BaseRef::of(10, &base))).expect("save delta");
        assert!(CheckpointPolicy::base_path_for(&dir, 10).exists());
        let other = dir.join("notes.txt");
        std::fs::write(&other, b"keep me").expect("write other file");

        CheckpointPolicy::clear(&dir).expect("clear");
        assert!(ticks(&dir).is_empty());
        assert!(!CheckpointPolicy::base_path_for(&dir, 10).exists());
        assert!(other.exists(), "a file that is no checkpoint stays");
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointPolicy::clear(&dir).expect("a missing directory is clear");
    }

    #[test]
    fn a_prune_that_fails_after_the_rename_still_saves() {
        // A directory named like the tick-10 checkpoint cannot be removed
        // as a file. The saves around it must still succeed: the rename is
        // the commit point, and the blocker stays the oldest checkpoint.
        let dir = tmpdir("prune-fails");
        let blocker = CheckpointPolicy::path_for(&dir, 10);
        std::fs::create_dir_all(blocker.join("occupied")).expect("create blocker");
        let p = CheckpointPolicy::new(1);
        for tick in [20, 30] {
            assert_eq!(save(&p, &dir, tick, &payload(tick)).expect("save"), 10);
        }
        assert_eq!(ticks(&dir), vec![10, 30]);
        // Once the blocker goes, the next save prunes it.
        std::fs::remove_dir_all(&blocker).expect("remove blocker");
        assert_eq!(save(&p, &dir, 40, &payload(40)).expect("save"), 40);
        assert_eq!(ticks(&dir), vec![40]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_every_base_a_retained_delta_names() {
        let dir = tmpdir("bases");
        let p = CheckpointPolicy::new(2);
        let base = payload(10);
        save(&p, &dir, 10, &base).expect("save base");
        let named = BaseRef::of(10, &base);
        save(&p, &dir, 20, &delta(20, named)).expect("save 20");
        assert_eq!(save(&p, &dir, 30, &delta(30, named)).expect("save 30"), 20);

        // The base left the window: no longer a checkpoint, still a base.
        assert_eq!(ticks(&dir), vec![20, 30]);
        assert!(CheckpointPolicy::base_path_for(&dir, 10).exists());
        let (found, skipped) = CheckpointPolicy::load_newest_verifying::<Ticks>(&dir).expect("io");
        assert_eq!(found, Some((30, Ticks(vec![10, 30]))));
        assert!(skipped.is_empty());

        // A new base and a delta over it: nothing names tick 10 any more.
        let base = payload(40);
        save(&p, &dir, 40, &base).expect("save base");
        let oldest = save(&p, &dir, 50, &delta(50, BaseRef::of(40, &base))).expect("save 50");
        assert_eq!(oldest, 40);
        assert_eq!(ticks(&dir), vec![40, 50]);
        assert!(!CheckpointPolicy::base_path_for(&dir, 10).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delta_without_its_base_is_skipped_and_the_walk_falls_back() {
        let dir = tmpdir("lost-base");
        let p = CheckpointPolicy::new(4);
        save(&p, &dir, 10, &payload(10)).expect("save 10");
        let base = payload(20);
        save(&p, &dir, 20, &base).expect("save 20");
        save(&p, &dir, 30, &delta(30, BaseRef::of(20, &base))).expect("save 30");
        let base_path = CheckpointPolicy::path_for(&dir, 20);
        let walk = |dir: &Path| {
            let (found, skipped) =
                CheckpointPolicy::load_newest_verifying::<Ticks>(dir).expect("io");
            let errors: Vec<(u64, Option<RestoreError>)> = skipped
                .into_iter()
                .map(|s| match s.error {
                    SnapshotIoError::Restore(e) => (s.tick, Some(e)),
                    SnapshotIoError::Io(_) => (s.tick, None),
                })
                .collect();
            (found.map(|(tick, _)| tick), errors)
        };
        let unknown = (30, Some(RestoreError::UnknownBase { tick: 20 }));

        // Another checkpoint now holds tick 20: the delta's base is gone.
        std::fs::write(&base_path, payload(21)).expect("replace base");
        assert_eq!(walk(&dir), (Some(20), vec![unknown.clone()]));

        // The base rots on disk: both it and the delta are skipped.
        let mut rotten = base.clone();
        *rotten.last_mut().expect("non-empty") ^= 0xFF;
        std::fs::write(&base_path, rotten).expect("damage base");
        let (winner, errors) = walk(&dir);
        assert_eq!(winner, Some(10));
        assert_eq!(
            errors[0],
            (30, Some(RestoreError::CorruptBase { tick: 20 }))
        );
        assert_eq!(errors.len(), 2);

        // And a missing base is unknown.
        std::fs::remove_file(&base_path).expect("remove base");
        assert_eq!(walk(&dir), (Some(10), vec![unknown]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_verifying_falls_back_past_corruption() {
        let dir = tmpdir("fallback");
        let p = CheckpointPolicy::new(3);
        save(&p, &dir, 10, &payload(10)).expect("save 10");
        save(&p, &dir, 20, &payload(20)).expect("save 20");
        // Damage the newest file on disk.
        let newest = CheckpointPolicy::path_for(&dir, 20);
        let mut bytes = std::fs::read(&newest).expect("read newest");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("damage newest");

        // The winner is tick 10, and the audit says *why* tick 20 was
        // passed over.
        let (found, skipped) = CheckpointPolicy::load_newest_verifying::<Ticks>(&dir).expect("io");
        assert_eq!(found, Some((10, Ticks(vec![10]))));
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].tick, 20);
        assert_eq!(skipped[0].path, newest);
        assert!(matches!(skipped[0].error, SnapshotIoError::Restore(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_reports_every_skip_and_no_winner() {
        let dir = tmpdir("all-corrupt");
        let p = CheckpointPolicy::new(3);
        for tick in [10, 20] {
            save(&p, &dir, tick, &payload(tick)).expect("save");
            let path = CheckpointPolicy::path_for(&dir, tick);
            let mut bytes = std::fs::read(&path).expect("read");
            let n = bytes.len();
            bytes[n - 1] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("damage");
        }
        let (found, skipped) = CheckpointPolicy::load_newest_verifying::<Ticks>(&dir).expect("io");
        assert!(found.is_none());
        // Newest-first walk order.
        assert_eq!(
            skipped.iter().map(|s| s.tick).collect::<Vec<_>>(),
            vec![20, 10]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_rides_out_injected_transient_failures() {
        let dir = tmpdir("retry-ok");
        let p = CheckpointPolicy::new(2);
        let retry = BackoffLadder::new(1, 1, 3);
        crate::file::inject_write_failures(2);
        let oldest = p
            .save_with_retry(&dir, 10, &payload(10), &retry, WriteClaim::claim(3))
            .expect("third attempt succeeds");
        assert_eq!(oldest, 10);
        let path = CheckpointPolicy::path_for(&dir, 10);
        assert_eq!(load_verified(&path).expect("verifies"), payload(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_exhaustion_surfaces_attempts_and_cause() {
        let dir = tmpdir("retry-exhaust");
        let p = CheckpointPolicy::new(2);
        let retry = BackoffLadder::new(1, 1, 3);
        crate::file::inject_write_failures(5);
        let err = p
            .save_with_retry(&dir, 10, &payload(10), &retry, WriteClaim::claim(3))
            .expect_err("budget exhausted");
        assert_eq!(err.attempts, 3);
        assert!(err.last.to_string().contains("injected"));
        assert!(CheckpointPolicy::list(&dir).expect("list").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_checkpoint_write_ladder_waits_10_then_20_ms_then_gives_up() {
        let l = BackoffLadder::CHECKPOINT_WRITES;
        assert_eq!(l, BackoffLadder::new(10, 500, 3));
        assert_eq!(
            (l.delay_after(1), l.delay_after(2), l.delay_after(3)),
            (Some(10), Some(20), None)
        );
    }

    #[test]
    fn ladder_delays_double_up_to_the_cap() {
        let l = BackoffLadder::new(8, 20, 5);
        assert_eq!(l.delay_after(1), Some(8));
        assert_eq!(l.delay_after(2), Some(16));
        assert_eq!(l.delay_after(3), Some(20)); // capped
        assert_eq!(l.delay_after(4), Some(20));
        assert_eq!(l.delay_after(5), None); // budget exhausted
        assert_eq!(l.delay_after(99), None);
    }

    #[test]
    fn ladder_degenerate_inputs_clamp() {
        let l = BackoffLadder::new(0, 0, 0);
        assert_eq!(l.max_attempts(), 1);
        assert_eq!(l.delay_after(1), None); // one attempt, no retry

        // Huge failure counts must not overflow the shift.
        let l = BackoffLadder::new(u64::MAX, u64::MAX, u32::MAX);
        assert_eq!(l.delay_after(70), Some(u64::MAX));

        // Past 32 doublings a long ladder stays at its cap.
        let l = BackoffLadder::new(10, 500, u32::MAX);
        for failed in [33, 64, u32::MAX - 1] {
            assert_eq!(l.delay_after(failed), Some(500), "after failure {failed}");
        }
    }

    #[test]
    fn an_episode_attempts_at_once_then_backs_off_until_exhausted() {
        let mut episode = RecoveryEpisode::new(BackoffLadder::new(8, 20, 4));
        // The first attempt never waits.
        assert!(episode.due(0) && episode.due(100));
        assert_eq!(episode.failed(100), FailedAttempt::Retry { at: 108 });
        assert!(!episode.due(107) && episode.due(108));
        assert_eq!(episode.failed(108), FailedAttempt::Retry { at: 124 });
        assert_eq!(episode.failed(124), FailedAttempt::Retry { at: 144 }); // capped
        assert_eq!(episode.attempts(), 3);
        assert!(!episode.exhausted());
        assert_eq!(
            episode.failed(144),
            FailedAttempt::Exhausted { attempts: 4 }
        );
        assert!(episode.exhausted());
        assert!(!episode.due(u64::MAX), "an exhausted episode is never due");
    }

    #[test]
    fn a_recovered_episode_starts_over() {
        let ladder = BackoffLadder::new(2, 16, 3);
        let mut episode = RecoveryEpisode::new(ladder);
        assert_eq!(episode.failed(5), FailedAttempt::Retry { at: 7 });
        episode.recovered();
        assert_eq!(episode, RecoveryEpisode::new(ladder));
        assert!(episode.due(0));
        // The next episode climbs from the bottom rung again.
        assert_eq!(episode.failed(9), FailedAttempt::Retry { at: 11 });

        // Exhaustion is reset too; a one-attempt ladder exhausts at once.
        let mut once = RecoveryEpisode::new(BackoffLadder::new(1, 1, 1));
        assert_eq!(once.failed(3), FailedAttempt::Exhausted { attempts: 1 });
        once.recovered();
        assert!(once.due(3) && !once.exhausted() && once.attempts() == 0);
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = tmpdir("empty");
        assert!(CheckpointPolicy::load_newest_verifying::<Ticks>(&dir)
            .expect("io")
            .0
            .is_none());
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(CheckpointPolicy::load_newest_verifying::<Ticks>(&dir)
            .expect("io")
            .0
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
