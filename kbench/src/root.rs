//! The seeded durable root every run starts from: a snapshot of
//! [`ROOT_SNAPSHOT_ENTRIES`] entries plus a WAL tail of
//! [`ROOT_WAL_ENTRIES`] acknowledged ingests past it, so the daemon's
//! start-up loads a snapshot *and* replays records. Written once per seed
//! through the index crate's own formats, then copied fresh for every
//! start.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use kastio_index::{decode_trace_inline, WalManager};
use kastio_trace::wal::{snapshot_dir, WalRecord};
use kastio_trace::{write_corpus, Trace};

use crate::gen::{Labelled, ROOT_SNAPSHOT_ENTRIES, ROOT_WAL_ENTRIES};

/// Shards (and so WAL files) of a default `kastio serve`.
pub const DAEMON_SHARDS: usize = 4;

/// The default `--wal-sync-micros` group-commit interval.
pub const WAL_SYNC: Duration = Duration::from_micros(2000);

/// The root for `seed` under `work`, written on first use.
pub fn ensure(work: &Path, seed: u64, entries: &[Labelled]) -> Result<PathBuf, String> {
    let root = work.join("roots").join(format!("seed-{seed}"));
    if root.is_dir() {
        return Ok(root);
    }
    let partial = root.with_extension("partial");
    crate::daemon::remove(&partial);
    write(&partial, entries).map_err(|e| format!("cannot write the seeded root: {e}"))?;
    fs::rename(&partial, &root)
        .map_err(|e| format!("cannot move the seeded root into place: {e}"))?;
    Ok(root)
}

fn write(dir: &Path, entries: &[Labelled]) -> Result<(), String> {
    assert_eq!(entries.len(), ROOT_SNAPSHOT_ENTRIES + ROOT_WAL_ENTRIES);
    let parsed: Vec<(String, &str, Trace)> = entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            Ok((format!("e{i}"), entry.label.as_str(), decode_trace_inline(&entry.wire)?))
        })
        .collect::<Result<_, String>>()?;
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (snapshot, tail) = parsed.split_at(ROOT_SNAPSHOT_ENTRIES);
    write_corpus(
        &snapshot_dir(dir),
        snapshot.iter().map(|(name, label, trace)| (name.as_str(), *label, trace)),
    )
    .map_err(|e| e.to_string())?;
    let wal = WalManager::open(dir, DAEMON_SHARDS, WAL_SYNC).map_err(|e| e.to_string())?;
    let mut last = 0;
    for (i, (name, label, trace)) in tail.iter().enumerate() {
        let id = u32::try_from(ROOT_SNAPSHOT_ENTRIES + i).expect("ids fit u32");
        let record =
            WalRecord { id, name: name.clone(), label: label.to_string(), trace: trace.clone() };
        last = wal.append(&record).map_err(|e| e.to_string())?;
    }
    wal.wait_durable(last).map_err(|e| e.to_string())
}
