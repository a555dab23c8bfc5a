//! End-to-end durability: kill-and-replay recovery, warm-start answers,
//! the `PERSIST` wire surface, and random-crash-point WAL recovery.

use cqa_engine::{Engine, EngineConfig, Storage, StorageError};
use cqa_testkit::wire::{dispatch, strip, tmpdir};
use proptest::prelude::*;

fn durable_engine(dir: &std::path::Path) -> Engine {
    Engine::with_storage(EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
    .expect("storage opens")
}

const PROGRAM: &str = "rel S(y) := (0 <= y & y <= 1/2) | (3/4 <= y & y <= 2)";

#[test]
fn kill_and_replay_returns_bit_identical_answers_from_a_warm_cache() {
    let dir = tmpdir("kill-replay");
    // Life before the crash: attach, load, prepare, run cold.
    let cold_answer;
    {
        let e = durable_engine(&dir);
        let mut s = e.open_session();
        assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
        assert!(e.load(&mut s, PROGRAM).is_ok());
        assert!(dispatch(&e, &mut s, "PREPARE band S(x) & x <= 1").is_ok());
        let r = dispatch(&e, &mut s, "EXEC band");
        assert!(r.header.contains("cache=miss"), "{r:?}");
        assert!(r.header.contains("status=exact value=3/4"), "{r:?}");
        cold_answer = strip(&r.header);
        // SIGKILL: the engine is dropped with no SHUTDOWN, no flush call,
        // nothing — durability must already be on disk.
    }
    // The crash also tore a record mid-append: garbage after the last
    // intact frame, exactly what a power cut during a write leaves.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }
    // Reboot. Recovery replays snapshot+WAL (dropping the torn tail) and
    // loads the warm file before any session exists.
    let e = durable_engine(&dir);
    let mut s = e.open_session();
    let r = dispatch(&e, &mut s, "PERSIST main");
    assert!(r.is_ok(), "{r:?}");
    assert!(r.header.contains("statements=1"), "{r:?}");
    assert!(dispatch(&e, &mut s, "PREPARE band S(x) & x <= 1").is_ok());
    let r = dispatch(&e, &mut s, "EXEC band");
    assert!(
        r.header.contains("cache=hit"),
        "recovered boot must serve from the warm-started cache: {r:?}"
    );
    assert_eq!(
        strip(&r.header),
        cold_answer,
        "bit-identical across the crash"
    );
    // The torn bytes were counted and visible in STATS.
    let stats = dispatch(&e, &mut s, "STATS");
    let body = stats.body.join("\n");
    assert!(body.contains("torn_bytes=3"), "{body}");
    assert!(body.contains("warm loaded="), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_loads_survive_without_any_shutdown() {
    let dir = tmpdir("no-shutdown");
    {
        let e = durable_engine(&dir);
        let mut s = e.open_session();
        assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
        assert!(e.load(&mut s, PROGRAM).is_ok());
        assert!(e.load(&mut s, "rel T(z) := 0 <= z & z <= 1/4").is_ok());
        // A comment line is source text but not a statement.
        let r = e.load(&mut s, "# a comment line\nrel U(w) := 0 <= w & w <= 1\n");
        assert!(r.header.contains("statements=3"), "{r:?}");
    }
    let e = durable_engine(&dir);
    let mut s = e.open_session();
    let r = dispatch(&e, &mut s, "PERSIST main");
    assert!(r.header.contains("statements=3"), "{r:?}");
    // Both relations answer queries.
    let r = dispatch(&e, &mut s, "VOLUME S(x) & T(x)");
    assert!(r.header.contains("value=1/4"), "{r:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_surface_rejects_misuse() {
    // No storage configured: PERSIST is a typed wire error, not a panic.
    let e = Engine::new(EngineConfig::default());
    let mut s = e.open_session();
    let r = dispatch(&e, &mut s, "PERSIST main");
    assert!(r.header.starts_with("ERR storage"), "{r:?}");

    let dir = tmpdir("misuse");
    let e = durable_engine(&dir);
    let mut s = e.open_session();
    assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
    // Double attach.
    let r = dispatch(&e, &mut s, "PERSIST other");
    assert!(r.header.starts_with("ERR storage"), "{r:?}");
    // Attach after LOAD.
    let mut s2 = e.open_session();
    assert!(e.load(&mut s2, PROGRAM).is_ok());
    let r = dispatch(&e, &mut s2, "PERSIST main");
    assert!(r.header.starts_with("ERR storage"), "{r:?}");
    // A rejected LOAD on a durable session logs nothing.
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let r = e.load(&mut s, "rel Bad(x) := x = zz + 1");
    assert!(!r.is_ok(), "{r:?}");
    assert_eq!(
        std::fs::metadata(dir.join("wal.log")).unwrap().len(),
        wal_len,
        "rejected LOADs must not reach the WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_warm_file_degrades_to_a_cold_cache_not_a_failed_boot() {
    let dir = tmpdir("bad-warm");
    {
        let e = durable_engine(&dir);
        let mut s = e.open_session();
        assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
        assert!(e.load(&mut s, PROGRAM).is_ok());
        assert!(dispatch(&e, &mut s, "PREPARE band S(x) & x <= 1").is_ok());
        assert!(dispatch(&e, &mut s, "EXEC band").is_ok());
    }
    std::fs::write(dir.join("cache.warm"), b"CQAWARM1\ngarbage\n").unwrap();
    let e = durable_engine(&dir);
    assert_eq!(e.cache.snapshot().entries, 0, "cold cache after corruption");
    let mut s = e.open_session();
    assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
    assert!(dispatch(&e, &mut s, "PREPARE band S(x) & x <= 1").is_ok());
    let r = dispatch(&e, &mut s, "EXEC band");
    assert!(r.header.contains("cache=miss"), "{r:?}");
    assert!(r.header.contains("value=3/4"), "{r:?}");
    let stats = dispatch(&e, &mut s, "STATS");
    let body = stats.body.join("\n");
    assert!(
        body.contains("errors=1"),
        "warm corruption is counted: {body}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_is_transparent_to_recovery() {
    let dir = tmpdir("compaction");
    {
        let e = Engine::with_storage(EngineConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let mut s = e.open_session();
        assert!(dispatch(&e, &mut s, "PERSIST main").is_ok());
        for i in 0..5 {
            let r = e.load(&mut s, &format!("rel R{i}(x) := 0 <= x & x <= 1/{}", i + 2));
            assert!(r.is_ok(), "{r:?}");
        }
        let st = e.storage.as_ref().unwrap().stats();
        assert!(
            cqa_engine::EngineStats::get(&st.snapshots) >= 2,
            "snapshot_every=2 over 5 loads must compact"
        );
    }
    let e = durable_engine(&dir);
    let mut s = e.open_session();
    let r = dispatch(&e, &mut s, "PERSIST main");
    assert!(r.header.contains("statements=5"), "{r:?}");
    let r = dispatch(&e, &mut s, "VOLUME R4(x)");
    assert!(r.header.contains("value=1/6"), "{r:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-point sweep: write N records, cut the log at an arbitrary
    /// byte, and recovery must yield exactly the records whose frames lie
    /// wholly before the cut — never a panic, never a half-applied record,
    /// and the truncated log must accept appends again.
    #[test]
    fn recovery_at_every_crash_point_keeps_the_intact_prefix(
        n_records in 1usize..6,
        cut_back in 0u64..200,
    ) {
        let dir = tmpdir(&format!("prop-{n_records}-{cut_back}"));
        let mut ends = Vec::new(); // byte offset where each record's frame ends
        {
            let s = Storage::open(&dir, u64::MAX).unwrap();
            for i in 0..n_records {
                s.append_load("main", &format!("rel P{i}(x) := 0 <= x & x <= 1\n")).unwrap();
                ends.push(std::fs::metadata(dir.join("wal.log")).unwrap().len());
            }
        }
        let total = *ends.last().unwrap();
        let cut = total.saturating_sub(cut_back % (total + 1));
        // The crash: the file ends mid-whatever.
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap()
            .set_len(cut)
            .unwrap();
        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let s = Storage::open(&dir, u64::MAX).unwrap();
        let expected: String = (0..survivors)
            .map(|i| format!("rel P{i}(x) := 0 <= x & x <= 1\n"))
            .collect();
        prop_assert_eq!(s.database("main"), expected);
        // The log is clean again: a post-recovery append round-trips.
        s.append_load("main", "rel Q(x) := x = 0\n").unwrap();
        drop(s);
        let s = Storage::open(&dir, u64::MAX).unwrap();
        prop_assert!(s.database("main").ends_with("rel Q(x) := x = 0\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn storage_error_is_typed_and_displayable() {
    let dir = tmpdir("typed-error");
    {
        let s = Storage::open(&dir, 1).unwrap();
        s.append_load("main", "rel R(x) := x >= 0\n").unwrap();
    }
    let snap = dir.join("snapshot.cqadb");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    match Storage::open(&dir, 1) {
        Err(e @ StorageError::Corrupt { .. }) => {
            assert!(e.to_string().contains("corrupt"), "{e}");
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    // Engine boot surfaces the same refusal instead of serving bad data.
    assert!(Engine::with_storage(EngineConfig {
        data_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
