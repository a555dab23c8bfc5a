//! The append-only write-ahead log.
//!
//! Every durable mutation (today: `LOAD` merges into a named durable
//! database) is appended as one length-prefixed, checksummed record and
//! fsync'd before the mutation is applied anywhere — the classic
//! log-before-apply discipline, so a crash at *any* instruction boundary
//! leaves the log a prefix of the committed history.
//!
//! ### On-disk record format
//!
//! ```text
//! record  := len:u32le  checksum:u64le  payload[len]
//! payload := tag:u8 (1 = Load)  db:lp-string  src:lp-string
//! lp-string := len:u32le bytes[len]   ; UTF-8
//! ```
//!
//! The checksum is FNV-1a/64 over the payload bytes. Replay walks records
//! from the start of the file and stops at the first incomplete header,
//! short payload, checksum mismatch, or undecodable payload: everything
//! before that point is the recovered history, everything after is a *torn
//! tail* — the residue of a crash mid-append — and is truncated away so the
//! next append starts on a clean record boundary. A torn tail is therefore
//! never an error; a record that is well-formed but semantically
//! undecodable (unknown tag, non-UTF-8 string) is treated the same way,
//! because a half-written record can contain any bytes at all.

use super::StorageError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of the per-record header: `u32` length + `u64` checksum.
pub const RECORD_HEADER_BYTES: usize = 4 + 8;

/// FNV-1a/64 over `bytes` — the record and snapshot checksum. Not
/// cryptographic; it detects the torn and bit-rotted writes a WAL cares
/// about, with no tables and no dependencies.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One durable mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A `LOAD` merged into the durable database `db`: `src` is the raw
    /// program text the analyzer accepted, newline-terminated.
    Load {
        /// Durable database name.
        db: String,
        /// Accepted `.cqa` program text.
        src: String,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
    *pos += 4;
    let bytes = buf.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

impl WalRecord {
    /// Serializes the payload (header excluded).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Load { db, src } => {
                let mut out = vec![1u8];
                put_str(&mut out, db);
                put_str(&mut out, src);
                out
            }
        }
    }

    /// Decodes one payload; `None` on any malformed byte (the caller
    /// treats that as a torn tail, not an error).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut pos = 1usize;
        match payload.first()? {
            1 => {
                let db = take_str(payload, &mut pos)?;
                let src = take_str(payload, &mut pos)?;
                if pos != payload.len() {
                    return None;
                }
                Some(WalRecord::Load { db, src })
            }
            _ => None,
        }
    }
}

/// What replay found in an existing log file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Intact records recovered.
    pub records: u64,
    /// Bytes of torn tail dropped (0 on a clean log).
    pub torn_bytes: u64,
}

/// The open write-ahead log: an append handle plus the replay bookkeeping.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Records appended since open (not counting replayed ones).
    pub appended: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays every intact
    /// record into `records`, and truncates any torn tail so the file ends
    /// on a record boundary.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>, WalReplay), StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io("wal", path, e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| StorageError::io("wal", path, e))?;
        let mut records = Vec::new();
        let mut good = 0usize;
        loop {
            let rest = &buf[good..];
            if rest.len() < RECORD_HEADER_BYTES {
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let Some(payload) = rest.get(RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + len) else {
                break; // short payload: torn mid-append
            };
            let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
            if checksum64(payload) != sum {
                break; // torn or corrupted: drop from here on
            }
            let Some(rec) = WalRecord::decode(payload) else {
                break;
            };
            records.push(rec);
            good += RECORD_HEADER_BYTES + len;
        }
        let torn = (buf.len() - good) as u64;
        if torn > 0 {
            file.set_len(good as u64)
                .map_err(|e| StorageError::io("wal", path, e))?;
            file.sync_data()
                .map_err(|e| StorageError::io("wal", path, e))?;
        }
        file.seek(SeekFrom::Start(good as u64))
            .map_err(|e| StorageError::io("wal", path, e))?;
        let replay = WalReplay {
            records: records.len() as u64,
            torn_bytes: torn,
        };
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                appended: 0,
            },
            records,
            replay,
        ))
    }

    /// Appends one record and fsyncs — the commit point of a durable
    /// mutation. Returns the encoded size (header + payload).
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, StorageError> {
        let payload = rec.encode();
        let mut framed = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&checksum64(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        self.file
            .write_all(&framed)
            .map_err(|e| StorageError::io("wal", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("wal", &self.path, e))?;
        self.appended += 1;
        Ok(framed.len() as u64)
    }

    /// Truncates the log to empty — called only *after* a snapshot holding
    /// every logged mutation has been durably written and renamed into
    /// place, so no history is ever dropped before it exists elsewhere.
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        self.file
            .set_len(0)
            .map_err(|e| StorageError::io("wal", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StorageError::io("wal", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("wal", &self.path, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TmpDir;

    /// `name` in a directory of its own, removed with the returned guard.
    fn tmp(name: &str) -> (TmpDir, PathBuf) {
        let dir = TmpDir::new("cqa-wal-unit", name);
        let path = dir.join(name);
        (dir, path)
    }

    fn rec(i: usize) -> WalRecord {
        WalRecord::Load {
            db: format!("db{i}"),
            src: format!("rel R{i}(x) := x >= {i}\n"),
        }
    }

    #[test]
    fn roundtrip_and_reopen() {
        let (_dir, path) = tmp("roundtrip.wal");
        let (mut wal, recs, replay) = Wal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(replay, WalReplay::default());
        for i in 0..3 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let (_, recs, replay) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![rec(0), rec(1), rec(2)]);
        assert_eq!(replay.records, 3);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_continue() {
        let (_dir, path) = tmp("torn.wal");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop 5 bytes off the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut wal, recs, replay) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![rec(0)]);
        assert!(replay.torn_bytes > 0);
        // The file ends on a record boundary again: appends are readable.
        wal.append(&rec(9)).unwrap();
        drop(wal);
        let (_, recs, _) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![rec(0), rec(9)]);
    }

    #[test]
    fn corrupted_checksum_drops_the_tail() {
        let (_dir, path) = tmp("corrupt.wal");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        let first = wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        drop(wal);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = first as usize + RECORD_HEADER_BYTES + 2;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs, replay) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![rec(0)]);
        assert!(replay.torn_bytes > 0, "{replay:?}");
    }

    #[test]
    fn truncate_empties_the_log() {
        let (_dir, path) = tmp("trunc.wal");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.truncate().unwrap();
        wal.append(&rec(7)).unwrap();
        drop(wal);
        let (_, recs, _) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![rec(7)]);
    }
}
