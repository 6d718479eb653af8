//! Crash-consistent snapshot files: write-temp → fsync → rename.
//!
//! A snapshot on disk is either the complete, fsynced previous content or
//! the complete new content — never a torn mix. The rename is the commit
//! point; a crash at any earlier instant leaves at worst a stale `.tmp`
//! file beside an intact previous snapshot (the restore path ignores
//! temporaries).

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::container::{verify, RestoreError};

/// Error from snapshot file IO: the filesystem failed, or the bytes on
/// disk failed verification.
#[derive(Debug)]
pub enum SnapshotIoError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file was read but is not a valid snapshot.
    Restore(RestoreError),
}

impl std::fmt::Display for SnapshotIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotIoError::Io(e) => write!(f, "snapshot io failed: {e}"),
            SnapshotIoError::Restore(e) => write!(f, "snapshot invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotIoError {}

impl From<io::Error> for SnapshotIoError {
    fn from(e: io::Error) -> Self {
        SnapshotIoError::Io(e)
    }
}

impl From<RestoreError> for SnapshotIoError {
    fn from(e: RestoreError) -> Self {
        SnapshotIoError::Restore(e)
    }
}

/// Hold ordinals claimed so far in this process: one per write whose claim
/// lets an attempt reach the rename.
static WRITES: AtomicU64 = AtomicU64::new(0);

/// The hold hook, read once from the environment: the ordinal of the write
/// to park and for how long.
fn hold_hook() -> Option<(u64, Duration)> {
    static HOLD: OnceLock<Option<(u64, Duration)>> = OnceLock::new();
    *HOLD.get_or_init(|| {
        let read = |name| std::env::var(name).ok()?.parse::<u64>().ok();
        let nth = read("BRAINSIM_SNAPSHOT_HOLD_WRITE")?;
        let ms = read("BRAINSIM_SNAPSHOT_HOLD_MS").unwrap_or(30_000);
        Some((nth, Duration::from_millis(ms)))
    })
}

/// Remaining process-wide injected write failures, seeded once from
/// `BRAINSIM_SNAPSHOT_FAIL_WRITES` (the retry soak hook).
static FAIL_BUDGET: OnceLock<AtomicU64> = OnceLock::new();

thread_local! {
    /// Remaining injected failures armed by [`inject_write_failures`] on
    /// this thread — thread-local so parallel unit tests stay hermetic.
    static LOCAL_FAIL_BUDGET: Cell<u64> = const { Cell::new(0) };
}

fn fail_budget() -> &'static AtomicU64 {
    FAIL_BUDGET.get_or_init(|| {
        AtomicU64::new(
            std::env::var("BRAINSIM_SNAPSHOT_FAIL_WRITES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        )
    })
}

/// Takes up to `n` from `budget` and returns how many it took.
fn take_up_to(budget: &AtomicU64, n: u64) -> u64 {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur - cur.min(n))
        })
        .map_or(0, |before| before.min(n))
}

/// Arms the transient-failure injector for the calling thread: the next
/// `n` checkpoint write attempts it claims ([`WriteClaim::claim`]) fail
/// with a synthetic [`io::Error`] before touching the filesystem, then
/// attempts succeed again. The environment variable
/// `BRAINSIM_SNAPSHOT_FAIL_WRITES=n` arms the same injector process-wide at
/// startup — that is the CI soak hook; this function is the in-process
/// equivalent for tests exercising the retry path. [`save_atomic`] meets
/// neither.
pub fn inject_write_failures(n: u64) {
    LOCAL_FAIL_BUDGET.with(|b| b.set(n));
}

/// The test hooks one retried checkpoint write will meet, claimed on the
/// calling thread and handed to the write by value.
///
/// Writes that commit side by side reach the disk in no fixed order, so
/// the hooks cannot be handed out as each write reaches them. A caller
/// claims them instead, one write after another in its own order, and
/// passes each claim to its write
/// ([`CheckpointPolicy::save_with_retry`](crate::CheckpointPolicy::save_with_retry)).
/// Injected failures ([`inject_write_failures`],
/// `BRAINSIM_SNAPSHOT_FAIL_WRITES`) and hold ordinals
/// (`BRAINSIM_SNAPSHOT_HOLD_WRITE`) then land on writes in claim order, as
/// if the writes had run one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteClaim {
    /// Injected failures this write's first attempts meet.
    pub(crate) failures: u64,
    /// The hold ordinal of the attempt that reaches the rename; `None`
    /// when every attempt is claimed to fail.
    pub(crate) ordinal: Option<u64>,
}

impl WriteClaim {
    /// Claims the hooks of one write of up to `attempts` attempts: up to
    /// `attempts` injected failures, taken from this thread's budget and
    /// then the process's, and, when fewer than that, so that an attempt
    /// reaches the rename, the next hold ordinal.
    pub fn claim(attempts: u32) -> WriteClaim {
        let cap = u64::from(attempts.max(1));
        let local = LOCAL_FAIL_BUDGET.with(|b| {
            let take = b.get().min(cap);
            b.set(b.get() - take);
            take
        });
        let failures = local + take_up_to(fail_budget(), cap - local);
        let ordinal = (failures < cap).then(|| WRITES.fetch_add(1, Ordering::Relaxed) + 1);
        WriteClaim { failures, ordinal }
    }
}

/// The error of an attempt a [`WriteClaim`] claimed to fail.
pub(crate) fn injected_failure() -> io::Error {
    io::Error::other("injected snapshot write failure (BRAINSIM_SNAPSHOT_FAIL_WRITES)")
}

/// Writes `bytes` to `path` crash-consistently: the content goes to
/// `<path>.tmp` first, is fsynced, and only then renamed over `path`; the
/// directory is fsynced last. A crash at any point leaves `path` either
/// absent or holding its complete previous content; an error leaves no
/// temp file behind. No test hook reaches it.
pub fn save_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    save_holding(path, bytes, &mut None)
}

/// [`save_atomic`] with the crash-injection hook for the CI kill tests:
/// when `hold` is `Some(n)` and `BRAINSIM_SNAPSHOT_HOLD_WRITE=n` is set,
/// the write sleeps `BRAINSIM_SNAPSHOT_HOLD_MS` milliseconds (default
/// 30000) *after* the temp file is written and fsynced but *before* the
/// rename — the widest possible mid-write window. A SIGKILL landing in
/// that window leaves the previous snapshot untouched. Reaching that point
/// takes `hold`, so a retry of the same write does not pause again.
pub(crate) fn save_holding(path: &Path, bytes: &[u8], hold: &mut Option<u64>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let f = std::fs::File::create(&tmp)?;
    if let Err(e) = write_and_rename(f, &tmp, path, bytes, hold) {
        // Best effort: the original error is the one worth reporting.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself (the directory entry). Failure to fsync a
    // directory is non-fatal on filesystems that don't support it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The steps of [`save_holding`] after the temp file exists: write and
/// fsync it, then rename it over `path` (the commit point).
fn write_and_rename(
    mut f: std::fs::File,
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
    hold: &mut Option<u64>,
) -> io::Result<()> {
    io::Write::write_all(&mut f, bytes)?;
    f.sync_all()?;
    drop(f);
    if let (Some(nth), Some((held, pause))) = (hold.take(), hold_hook()) {
        if nth == held {
            std::thread::sleep(pause);
        }
    }
    std::fs::rename(tmp, path)
}

/// Reads `path` and verifies container integrity (magic, version, every
/// section CRC), returning the raw bytes on success.
pub fn load_verified(path: &Path) -> Result<Vec<u8>, SnapshotIoError> {
    let bytes = std::fs::read(path)?;
    verify(&bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{encode_container, SectionId};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("brainsim-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn atomic_save_round_trips_and_leaves_no_temp() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.bsnp");
        let bytes = encode_container(&[(SectionId::App, vec![1, 2, 3])]);
        save_atomic(&path, &bytes).expect("save");
        assert_eq!(load_verified(&path).expect("load"), bytes);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file must not survive a save");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_save_removes_its_temp_file() {
        // A non-empty directory at the target path makes the rename fail
        // after the temp file has been written and fsynced.
        let dir = tmpdir("failed");
        let path = dir.join("state.bsnp");
        std::fs::create_dir_all(path.join("occupied")).expect("create blocker");
        let bytes = encode_container(&[(SectionId::App, vec![1, 2, 3])]);
        assert!(save_atomic(&path, &bytes).is_err());
        assert!(
            !dir.join("state.bsnp.tmp").exists(),
            "a failed save must not leave its temp file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_content_completely() {
        let dir = tmpdir("overwrite");
        let path = dir.join("state.bsnp");
        let first = encode_container(&[(SectionId::App, vec![0; 4096])]);
        let second = encode_container(&[(SectionId::App, vec![7; 8])]);
        save_atomic(&path, &first).expect("save first");
        save_atomic(&path, &second).expect("save second");
        assert_eq!(load_verified(&path).expect("load"), second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_fails_verification_not_panics() {
        let dir = tmpdir("corrupt");
        let path = dir.join("state.bsnp");
        let bytes = encode_container(&[(SectionId::App, vec![5; 64])]);
        save_atomic(&path, &bytes).expect("save");
        let mut damaged = bytes.clone();
        let n = damaged.len();
        damaged[n - 1] ^= 1;
        std::fs::write(&path, &damaged).expect("overwrite with damage");
        assert!(matches!(
            load_verified(&path),
            Err(SnapshotIoError::Restore(RestoreError::SectionCrc { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_take_failures_in_order_up_to_the_attempts() {
        inject_write_failures(4);
        let first = WriteClaim::claim(3);
        let second = WriteClaim::claim(3);
        let third = WriteClaim::claim(3);
        assert_eq!((first.failures, first.ordinal), (3, None));
        assert_eq!(second.failures, 1);
        assert_eq!(third.failures, 0);
        let (Some(a), Some(b)) = (second.ordinal, third.ordinal) else {
            panic!("writes that reach their rename hold ordinals");
        };
        assert!(a < b, "ordinals follow claim order");
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = tmpdir("missing");
        assert!(matches!(
            load_verified(&dir.join("nope.bsnp")),
            Err(SnapshotIoError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
