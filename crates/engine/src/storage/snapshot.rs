//! Snapshot compaction: a consistent on-disk image of every durable
//! database, written atomically so the log behind it can be truncated.
//!
//! A durable database's canonical state is its accumulated,
//! analyzer-accepted `.cqa` source — the `Database` object is a pure
//! function of that source (re-built by the same `LOAD` path every
//! session uses), so snapshotting the source *is* snapshotting the
//! database, with bit-identical rebuild guaranteed by construction rather
//! than by a parallel serializer that could drift.
//!
//! ### On-disk format
//!
//! ```text
//! file  := magic:"CQASNAP1"  body  checksum:u64le
//! body  := n:u32le  { name:lp-string  src:lp-string } * n
//! ```
//!
//! with the same FNV-1a/64 checksum and length-prefixed strings as the
//! WAL. Writes go to a temp file in the same directory, fsync, then
//! rename over the live snapshot: a crash at any point leaves either the
//! old snapshot or the new one, never a hybrid. A checksum or format
//! mismatch on read is a typed [`StorageError`] — unlike a torn WAL tail,
//! a damaged snapshot means history may be missing and recovery must not
//! silently proceed.

use super::wal::checksum64;
use super::StorageError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CQASNAP1";

/// Serializes `dbs` (name → accumulated source) and atomically replaces
/// the snapshot at `path`.
pub fn write_snapshot(path: &Path, dbs: &BTreeMap<String, String>) -> Result<(), StorageError> {
    let mut body = Vec::new();
    body.extend_from_slice(&(dbs.len() as u32).to_le_bytes());
    for (name, src) in dbs {
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&(src.len() as u32).to_le_bytes());
        body.extend_from_slice(src.as_bytes());
    }
    let sum = checksum64(&body);
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| StorageError::io("snapshot", &tmp, e))?;
        f.write_all(MAGIC)
            .and_then(|()| f.write_all(&body))
            .and_then(|()| f.write_all(&sum.to_le_bytes()))
            .and_then(|()| f.sync_all())
            .map_err(|e| StorageError::io("snapshot", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| StorageError::io("snapshot", path, e))?;
    // Persist the rename itself: fsync the containing directory.
    if let Some(dir) = path.parent() {
        if let Ok(d) = OpenOptions::new().read(true).open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads the snapshot at `path`. `Ok(None)` when no snapshot exists yet;
/// a typed [`StorageError::Corrupt`] when one exists but fails its
/// checksum or framing.
pub fn read_snapshot(path: &Path) -> Result<Option<BTreeMap<String, String>>, StorageError> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::io("snapshot", path, e)),
    };
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)
        .map_err(|e| StorageError::io("snapshot", path, e))?;
    let corrupt = |detail: &str| StorageError::Corrupt {
        file: path.display().to_string(),
        detail: detail.to_string(),
    };
    if buf.len() < MAGIC.len() + 8 || &buf[..MAGIC.len()] != MAGIC {
        return Err(corrupt("missing CQASNAP1 magic"));
    }
    let body = &buf[MAGIC.len()..buf.len() - 8];
    let sum = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    if checksum64(body) != sum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StorageError> {
        let out = body
            .get(*pos..*pos + n)
            .ok_or_else(|| corrupt("short body"))?;
        *pos += n;
        Ok(out)
    };
    let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    let mut dbs = BTreeMap::new();
    for _ in 0..n {
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| corrupt("non-UTF-8 database name"))?;
        let src_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let src = String::from_utf8(take(&mut pos, src_len)?.to_vec())
            .map_err(|_| corrupt("non-UTF-8 database source"))?;
        dbs.insert(name, src);
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes after last database"));
    }
    Ok(Some(dbs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TmpDir;
    use std::path::PathBuf;

    /// `name` in a directory of its own, removed with the returned guard.
    fn tmp(name: &str) -> (TmpDir, PathBuf) {
        let dir = TmpDir::new("cqa-snap-unit", name);
        let path = dir.join(name);
        (dir, path)
    }

    #[test]
    fn roundtrip() {
        let (_dir, path) = tmp("roundtrip.snap");
        let mut dbs = BTreeMap::new();
        dbs.insert("main".to_string(), "rel S(y) := y >= 0\n".to_string());
        dbs.insert("other".to_string(), String::new());
        write_snapshot(&path, &dbs).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(dbs));
    }

    #[test]
    fn absent_snapshot_is_none() {
        let (_dir, path) = tmp("never-written.snap");
        assert_eq!(read_snapshot(&path).unwrap(), None);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let (_dir, path) = tmp("corrupt.snap");
        let mut dbs = BTreeMap::new();
        dbs.insert("main".to_string(), "rel S(y) := y >= 0\n".to_string());
        write_snapshot(&path, &dbs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
