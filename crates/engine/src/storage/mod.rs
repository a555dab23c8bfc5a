//! Durable storage: write-ahead log, snapshot compaction, crash recovery,
//! and the persisted cache warm-start file.
//!
//! The paper's constraint databases are *databases* — this module is what
//! lets one survive a crash. The design splits state by what it costs to
//! lose:
//!
//! * **History must never be lost.** A durable database's canonical state
//!   is its accumulated analyzer-accepted `.cqa` source; every `LOAD`
//!   merge is WAL-appended and fsync'd *before* the session mutates
//!   ([`wal`]), and every `snapshot_every` records the accumulated
//!   sources are compacted into an atomic snapshot ([`snapshot`]) and the
//!   log truncated behind it. Boot recovery is `snapshot ∘ WAL-replay`.
//! * **The cache is merely expensive to lose.** Quantifier elimination
//!   dominates query cost (Giusti–Heintz), so the prepared-query/subplan
//!   cache is persisted too ([`warm`]) under its session-independent
//!   canonical-hash keys — but strictly best-effort: a damaged warm file
//!   degrades to a cold cache, never a failed boot.
//!
//! Recovery state machine, in order, before any connection is accepted:
//!
//! ```text
//! open data-dir ──► read snapshot ──► replay WAL onto it ──► truncate
//!      │               │                  │                  torn tail
//!      │           Corrupt ⇒ typed    torn tail ⇒ drop,
//!      │           error, refuse      count, continue
//!      └──► load warm file (best-effort; corrupt ⇒ cold cache)
//! ```

pub mod snapshot;
pub mod wal;
pub mod warm;

use crate::cache::QueryCache;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wal::{Wal, WalRecord};

/// File names inside the data directory.
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.cqadb";
const WARM_FILE: &str = "cache.warm";

/// A typed storage failure. Recovery code returns these instead of
/// panicking: an unreadable WAL or a corrupt snapshot must surface as a
/// refusal to boot (or a counted, skipped warm start), never a worker
/// panic.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O operation failed on one of the storage files.
    Io {
        /// Which file kind (`"wal"`, `"snapshot"`, `"warm"`, `"data-dir"`).
        file: String,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A file exists but fails its checksum or framing — for the snapshot
    /// this is fatal (history may be missing); for the warm file it just
    /// means a cold cache.
    Corrupt {
        /// The path involved.
        file: String,
        /// What check failed.
        detail: String,
    },
}

impl StorageError {
    pub(crate) fn io(file: &str, path: &Path, err: std::io::Error) -> StorageError {
        StorageError::Io {
            file: file.to_string(),
            path: path.to_path_buf(),
            err,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { file, path, err } => {
                write!(f, "{file} io error at {}: {err}", path.display())
            }
            StorageError::Corrupt { file, detail } => {
                write!(f, "{file} corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Monotone storage counters, rendered by `STATS` so the wire surface can
/// see durability at work (and CI can grep for it).
#[derive(Debug, Default)]
pub struct StorageStats {
    /// WAL records appended (fsync'd commits) since boot.
    pub wal_records: AtomicU64,
    /// WAL bytes appended since boot.
    pub wal_bytes: AtomicU64,
    /// Intact records replayed at boot.
    pub replayed_records: AtomicU64,
    /// Torn-tail bytes truncated at boot.
    pub torn_bytes: AtomicU64,
    /// Snapshots written (compactions).
    pub snapshots: AtomicU64,
    /// Compaction attempts that failed (WAL kept, retried later).
    pub snapshot_errors: AtomicU64,
    /// Cache entries reconstructed from the warm file at boot.
    pub warm_loaded: AtomicU64,
    /// Warm-file entries that no longer reconstruct (skipped).
    pub warm_skipped: AtomicU64,
    /// Warm-file flushes written.
    pub warm_flushes: AtomicU64,
    /// Warm-file flushes or loads that failed (best-effort, counted).
    pub warm_errors: AtomicU64,
}

struct StoreInner {
    wal: Wal,
    /// name → accumulated analyzer-accepted source (newline-terminated
    /// chunks, concatenated verbatim in commit order).
    dbs: BTreeMap<String, String>,
    /// Records appended since the last compaction (replayed records
    /// count: they are exactly the log the next snapshot would fold in).
    since_snapshot: u64,
}

/// The open data directory: WAL + snapshot + warm file, shared by every
/// session of one engine. All mutation goes through [`Storage::append_load`],
/// which enforces the log-before-apply commit discipline.
pub struct Storage {
    dir: PathBuf,
    snapshot_every: u64,
    inner: Mutex<StoreInner>,
    stats: StorageStats,
}

impl Storage {
    /// Opens (creating if needed) the data directory and runs recovery:
    /// snapshot first, then WAL replay on top, truncating any torn tail.
    /// A corrupt snapshot or unreadable WAL is a typed error — the caller
    /// must refuse to serve rather than silently lose history.
    pub fn open(dir: &Path, snapshot_every: u64) -> Result<Storage, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("data-dir", dir, e))?;
        let mut dbs = snapshot::read_snapshot(&dir.join(SNAPSHOT_FILE))?.unwrap_or_default();
        let (wal, records, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let since_snapshot = records.len() as u64;
        for rec in records {
            match rec {
                WalRecord::Load { db, src } => dbs.entry(db).or_default().push_str(&src),
            }
        }
        let stats = StorageStats::default();
        stats
            .replayed_records
            .store(replay.records, Ordering::Relaxed);
        stats.torn_bytes.store(replay.torn_bytes, Ordering::Relaxed);
        Ok(Storage {
            dir: dir.to_path_buf(),
            snapshot_every: snapshot_every.max(1),
            inner: Mutex::new(StoreInner {
                wal,
                dbs,
                since_snapshot,
            }),
            stats,
        })
    }

    /// The data directory this storage lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live counters.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// The accumulated source of durable database `name` (empty string if
    /// it has never been written). This is the complete recovery artifact:
    /// re-running it through the ordinary `LOAD` path rebuilds the
    /// `Database` bit-identically, because the `Database` is a pure
    /// function of its accepted source.
    pub fn database(&self, name: &str) -> String {
        let inner = self.lock();
        inner.dbs.get(name).cloned().unwrap_or_default()
    }

    /// Names of every durable database currently known.
    pub fn database_names(&self) -> Vec<String> {
        self.lock().dbs.keys().cloned().collect()
    }

    /// Commits one `LOAD` merge into durable database `name`. `src_chunk`
    /// must be the text the session is about to accept, newline-terminated
    /// — storage concatenates chunks verbatim on replay.
    ///
    /// The record is appended and fsync'd *before* this returns, so the
    /// caller may only mutate in-memory state on `Ok`: an `Err` means the
    /// mutation never happened anywhere. Every `snapshot_every` records
    /// the sources are compacted into a fresh snapshot and the log
    /// truncated; compaction failure is counted and retried later — the
    /// WAL still holds the history, so durability is unaffected.
    pub fn append_load(&self, name: &str, src_chunk: &str) -> Result<(), StorageError> {
        let mut inner = self.lock();
        let bytes = inner.wal.append(&WalRecord::Load {
            db: name.to_string(),
            src: src_chunk.to_string(),
        })?;
        self.stats.wal_records.fetch_add(1, Ordering::Relaxed);
        self.stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        inner
            .dbs
            .entry(name.to_string())
            .or_default()
            .push_str(src_chunk);
        inner.since_snapshot += 1;
        if inner.since_snapshot >= self.snapshot_every {
            match snapshot::write_snapshot(&self.dir.join(SNAPSHOT_FILE), &inner.dbs) {
                Ok(()) => {
                    // Only once the snapshot is durably in place may the
                    // log behind it be dropped.
                    inner.wal.truncate()?;
                    inner.since_snapshot = 0;
                    self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.stats.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Loads the warm-start file into `cache`, best-effort: an absent file
    /// is a cold start, a damaged one is a counted cold start, and neither
    /// is an error — the warm file is an optimization, not history.
    pub fn load_warm(&self, cache: &QueryCache) {
        let path = self.dir.join(WARM_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(_) => {
                self.stats.warm_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        match warm::decode_into(&text, &path, cache) {
            Ok((loaded, skipped)) => {
                self.stats.warm_loaded.fetch_add(loaded, Ordering::Relaxed);
                self.stats
                    .warm_skipped
                    .fetch_add(skipped, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.warm_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Writes the current cache contents to the warm-start file via
    /// tmp+rename, best-effort: flush failures are counted, never fatal —
    /// a stale (or missing) warm file only costs the next boot some QE.
    pub fn flush_warm(&self, cache: &QueryCache) {
        let path = self.dir.join(WARM_FILE);
        let tmp = path.with_extension("warm.tmp");
        let text = warm::encode(&cache.export());
        let ok = std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        if ok {
            self.stats.warm_flushes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.warm_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Storage shares the cache's poison-recovery posture: a worker that
    /// panicked while holding this lock left plain data behind, and
    /// refusing to serve durable databases forever would turn one bad
    /// request into a permanent outage.
    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A directory of a unit test's own under the temp dir, removed when the
/// guard drops, so a test leaves nothing behind whether it passes or not.
#[cfg(test)]
pub(crate) struct TmpDir(PathBuf);

#[cfg(test)]
impl TmpDir {
    /// `<prefix>-<pid>-<name>`, emptied of whatever an earlier run left.
    pub(crate) fn new(prefix: &str, name: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    pub(crate) fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

#[cfg(test)]
impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqa-storage-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn log_with_no_snapshot_recovers() {
        let dir = tmpdir("log-only");
        let s = Storage::open(&dir, 1000).unwrap();
        s.append_load("main", "rel R(x) := x >= 0\n").unwrap();
        s.append_load("main", "rel S(y) := y <= 1\n").unwrap();
        drop(s);
        let s = Storage::open(&dir, 1000).unwrap();
        assert_eq!(
            s.database("main"),
            "rel R(x) := x >= 0\nrel S(y) := y <= 1\n"
        );
        assert_eq!(s.stats().replayed_records.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_with_no_log_recovers() {
        let dir = tmpdir("snap-only");
        let s = Storage::open(&dir, 2).unwrap();
        s.append_load("main", "rel R(x) := x >= 0\n").unwrap();
        s.append_load("main", "rel S(y) := y <= 1\n").unwrap();
        // snapshot_every = 2 ⇒ compaction ran, log is empty.
        assert_eq!(s.stats().snapshots.load(Ordering::Relaxed), 1);
        drop(s);
        // The WAL is empty; state comes wholly from the snapshot.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        let s = Storage::open(&dir, 2).unwrap();
        assert_eq!(
            s.database("main"),
            "rel R(x) := x >= 0\nrel S(y) := y <= 1\n"
        );
        assert_eq!(s.stats().replayed_records.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_log_compose_in_order() {
        let dir = tmpdir("snap-plus-log");
        let s = Storage::open(&dir, 2).unwrap();
        s.append_load("main", "rel R(x) := x >= 0\n").unwrap();
        s.append_load("main", "rel S(y) := y <= 1\n").unwrap();
        s.append_load("main", "rel T(z) := z = 0\n").unwrap(); // in WAL only
        drop(s);
        let s = Storage::open(&dir, 100).unwrap();
        assert_eq!(
            s.database("main"),
            "rel R(x) := x >= 0\nrel S(y) := y <= 1\nrel T(z) := z = 0\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_data_dir_is_a_clean_cold_start() {
        let dir = tmpdir("empty");
        let s = Storage::open(&dir, 64).unwrap();
        assert_eq!(s.database("main"), "");
        assert!(s.database_names().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_refuses_to_open() {
        let dir = tmpdir("corrupt-snap");
        let s = Storage::open(&dir, 1).unwrap();
        s.append_load("main", "rel R(x) := x >= 0\n").unwrap();
        drop(s);
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        match Storage::open(&dir, 1) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
