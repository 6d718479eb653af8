//! Checkpoint cadence and retention: save every N ticks, keep the last K,
//! and on restore fall back to the newest snapshot that still verifies.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::file::{load_verified, save_atomic, SnapshotIoError};

/// Bounded retry with capped exponential backoff for checkpoint writes.
///
/// A transient `io::Error` on a checkpoint write (disk-full blip, NFS
/// hiccup, injected failure) should not abort an otherwise healthy run:
/// [`CheckpointPolicy::save_with_retry`] re-attempts up to `attempts`
/// times, sleeping `base × 2^(k−1)` (capped at `cap`) after the `k`-th
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    base: Duration,
    cap: Duration,
}

impl RetryPolicy {
    /// Up to `attempts` total attempts (min 1), exponential backoff from
    /// `base`, capped at `cap`.
    pub fn new(attempts: u32, base: Duration, cap: Duration) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            base,
            cap: cap.max(base),
        }
    }

    /// Total attempts permitted.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The backoff slept after the `failed` -th failed attempt (1-based):
    /// `base × 2^(failed−1)`, saturating, capped at `cap`.
    pub fn backoff_after(&self, failed: u32) -> Duration {
        let doublings = failed.saturating_sub(1).min(32);
        let delay = self.base.saturating_mul(1u32 << doublings);
        delay.min(self.cap)
    }
}

impl Default for RetryPolicy {
    /// 3 attempts, 10 ms base, 500 ms cap.
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_millis(10), Duration::from_millis(500))
    }
}

/// [`RetryPolicy`]'s deterministic twin: a bounded capped-exponential
/// retry ladder over an abstract step unit — ticks for the self-healing
/// runner, scheduling rounds for a serving runtime. Measuring backoff in
/// simulation steps instead of wall time keeps every retry schedule
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

/// A checkpoint write that failed on every permitted attempt.
#[derive(Debug)]
pub struct SaveError {
    /// Attempts made (equals the policy's budget).
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
    /// Why it was skipped: unreadable, or failed container verification.
    pub error: SnapshotIoError,
}

/// The audited result of
/// [`CheckpointPolicy::load_newest_verifying`]: the newest
/// verifying `(tick, bytes)` — or `None` — plus every newer checkpoint
/// the backwards walk skipped, newest first.
pub type NewestVerifying = (Option<(u64, Vec<u8>)>, Vec<SkippedCheckpoint>);

/// When to checkpoint and how many checkpoints to retain.
///
/// Retention is the corruption-recovery margin: with `keep ≥ 2`, a latest
/// snapshot damaged on disk (bit rot, torn by an unlucky crash window on a
/// non-atomic filesystem) still leaves an older verified one for
/// [`CheckpointPolicy::load_newest_verifying`] to fall back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    every: u64,
    keep: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `every` ticks (min 1), keeping the newest `keep`
    /// files (min 1).
    pub fn new(every: u64, keep: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            every: every.max(1),
            keep: keep.max(1),
        }
    }

    /// The checkpoint interval in ticks.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// How many checkpoint files are retained.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// True when a checkpoint is due after completing tick `tick − 1`,
    /// i.e. when `tick` (the number of ticks completed) is a positive
    /// multiple of the interval.
    pub fn due(&self, tick: u64) -> bool {
        tick > 0 && tick.is_multiple_of(self.every)
    }

    /// The canonical file path for the checkpoint taken at `tick`. The
    /// zero-padded tick makes lexical order equal numeric order.
    pub fn path_for(dir: &Path, tick: u64) -> PathBuf {
        dir.join(format!("ckpt-{tick:020}.bsnp"))
    }

    /// All checkpoints in `dir`, as `(tick, path)` sorted oldest first.
    /// Non-checkpoint files (including `.tmp` leftovers from a crashed
    /// write) are ignored.
    pub fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(tick) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".bsnp"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((tick, path));
        }
        out.sort();
        Ok(out)
    }

    /// Atomically writes the checkpoint for `tick` and prunes the oldest
    /// files beyond the retention count. Returns the written path.
    pub fn save(&self, dir: &Path, tick: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = CheckpointPolicy::path_for(dir, tick);
        save_atomic(&path, bytes)?;
        let existing = CheckpointPolicy::list(dir)?;
        if existing.len() > self.keep {
            for (_, old) in &existing[..existing.len() - self.keep] {
                // A file that vanished between list and prune (a concurrent
                // run, an operator's cleanup) is already pruned.
                match std::fs::remove_file(old) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(path)
    }

    /// [`CheckpointPolicy::save`] wrapped in a [`RetryPolicy`]: transient
    /// write failures are retried with capped exponential backoff; only
    /// exhausting the attempt budget surfaces, as a [`SaveError`] carrying
    /// the attempt count and the final cause.
    ///
    /// # Errors
    ///
    /// [`SaveError`] after `retry.attempts()` consecutive failures.
    pub fn save_with_retry(
        &self,
        dir: &Path,
        tick: u64,
        bytes: &[u8],
        retry: &RetryPolicy,
    ) -> Result<PathBuf, SaveError> {
        let mut failed = 0;
        loop {
            match self.save(dir, tick, bytes) {
                Ok(path) => return Ok(path),
                Err(last) => {
                    failed += 1;
                    if failed >= retry.attempts() {
                        return Err(SaveError {
                            attempts: failed,
                            last,
                        });
                    }
                    let backoff = retry.backoff_after(failed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// Loads the newest checkpoint in `dir` that passes container
    /// verification (magic, version, every section CRC), walking backwards
    /// past corrupt or unreadable files. The winner is `None` when no
    /// checkpoint verifies; IO errors other than per-file read failures
    /// propagate.
    ///
    /// Alongside the winner comes the audit trail: every newer checkpoint
    /// the walk skipped and the [`SnapshotIoError`] that disqualified it,
    /// in newest-first walk order. A damaged or vanished file is exactly
    /// what fallback is for — but the caller gets to log and meter it.
    pub fn load_newest_verifying(dir: &Path) -> io::Result<NewestVerifying> {
        let mut skipped = Vec::new();
        for (tick, path) in CheckpointPolicy::list(dir)?.into_iter().rev() {
            match load_verified(&path) {
                Ok(bytes) => return Ok((Some((tick, bytes)), skipped)),
                Err(error) => skipped.push(SkippedCheckpoint { tick, path, error }),
            }
        }
        Ok((None, skipped))
    }
}

impl Default for CheckpointPolicy {
    /// Every 100 ticks, keep the last 3.
    fn default() -> Self {
        CheckpointPolicy::new(100, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{encode_container, SectionId};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("brainsim-policy-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(tick: u64) -> Vec<u8> {
        encode_container(&[(SectionId::App, tick.to_le_bytes().to_vec())])
    }

    #[test]
    fn cadence() {
        let p = CheckpointPolicy::new(25, 2);
        assert!(!p.due(0));
        assert!(!p.due(24));
        assert!(p.due(25));
        assert!(p.due(50));
        assert!(!p.due(51));
        // Degenerate intervals clamp instead of dividing by zero.
        assert!(CheckpointPolicy::new(0, 0).due(1));
    }

    #[test]
    fn save_rotates_and_keeps_newest_k() {
        let dir = tmpdir("rotate");
        let p = CheckpointPolicy::new(10, 2);
        for tick in [10, 20, 30, 40] {
            p.save(&dir, tick, &payload(tick)).expect("save");
        }
        let ticks: Vec<u64> = CheckpointPolicy::list(&dir)
            .expect("list")
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(ticks, vec![30, 40]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_verifying_falls_back_past_corruption() {
        let dir = tmpdir("fallback");
        let p = CheckpointPolicy::new(10, 3);
        p.save(&dir, 10, &payload(10)).expect("save 10");
        p.save(&dir, 20, &payload(20)).expect("save 20");
        // Damage the newest file on disk.
        let newest = CheckpointPolicy::path_for(&dir, 20);
        let mut bytes = std::fs::read(&newest).expect("read newest");
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("damage newest");

        // The winner is tick 10, and the audit says *why* tick 20 was
        // passed over.
        let (found, skipped) = CheckpointPolicy::load_newest_verifying(&dir).expect("io");
        let (tick, loaded) = found.expect("fallback found");
        assert_eq!(tick, 10);
        assert_eq!(loaded, payload(10));
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].tick, 20);
        assert_eq!(skipped[0].path, newest);
        assert!(matches!(skipped[0].error, SnapshotIoError::Restore(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_reports_every_skip_and_no_winner() {
        let dir = tmpdir("all-corrupt");
        let p = CheckpointPolicy::new(10, 3);
        for tick in [10, 20] {
            p.save(&dir, tick, &payload(tick)).expect("save");
            let path = CheckpointPolicy::path_for(&dir, tick);
            let mut bytes = std::fs::read(&path).expect("read");
            let n = bytes.len();
            bytes[n - 1] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("damage");
        }
        let (found, skipped) = CheckpointPolicy::load_newest_verifying(&dir).expect("io");
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
        let p = CheckpointPolicy::new(10, 2);
        let retry = RetryPolicy::new(3, Duration::ZERO, Duration::ZERO);
        crate::file::inject_write_failures(2);
        let path = p
            .save_with_retry(&dir, 10, &payload(10), &retry)
            .expect("third attempt succeeds");
        assert_eq!(path, CheckpointPolicy::path_for(&dir, 10));
        assert_eq!(load_verified(&path).expect("verifies"), payload(10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_exhaustion_surfaces_attempts_and_cause() {
        let dir = tmpdir("retry-exhaust");
        let p = CheckpointPolicy::new(10, 2);
        let retry = RetryPolicy::new(3, Duration::ZERO, Duration::ZERO);
        crate::file::inject_write_failures(5);
        let err = p
            .save_with_retry(&dir, 10, &payload(10), &retry)
            .expect_err("budget exhausted");
        assert_eq!(err.attempts, 3);
        assert!(err.last.to_string().contains("injected"));
        // Drain the leftover budget so later saves on this thread succeed.
        crate::file::inject_write_failures(0);
        assert!(CheckpointPolicy::list(&dir).expect("list").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy::new(6, Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(r.backoff_after(1), Duration::from_millis(10));
        assert_eq!(r.backoff_after(2), Duration::from_millis(20));
        assert_eq!(r.backoff_after(3), Duration::from_millis(35)); // capped
        assert_eq!(r.backoff_after(6), Duration::from_millis(35));
        // Degenerate budgets clamp to one attempt; cap never undercuts base.
        assert_eq!(
            RetryPolicy::new(0, Duration::ZERO, Duration::ZERO).attempts(),
            1
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
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = tmpdir("empty");
        assert!(CheckpointPolicy::load_newest_verifying(&dir)
            .expect("io")
            .0
            .is_none());
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(CheckpointPolicy::load_newest_verifying(&dir)
            .expect("io")
            .0
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
