//! Per-shard write-ahead logging with group-commit fsync.
//!
//! [`WalManager`] closes the durability hole the atomic snapshots leave
//! open: the window *between* saves. Every acknowledged `INGEST` /
//! `BATCH INGEST` is appended (as a [`kastio_trace::wal`] record) to
//! `<dir>/wal/shard<i>.log` — shard `i = id % shards`, mirroring the
//! index's placement rule — and the server only writes the ack after
//! [`WalManager::wait_durable`] confirms an fsync covering the record.
//!
//! # Group commit
//!
//! Fsync per record would put a disk flush on every ingest's latency.
//! Instead appends are acknowledged in batches: [`WalManager::append`]
//! writes the record under its shard's lock and takes a global commit
//! sequence number; a background thread wakes every `sync_interval`
//! (`--wal-sync-micros`, default 2 ms), reads the highest appended
//! sequence, fsyncs every dirty shard file, and only then advances the
//! durable watermark and wakes waiters. Because a sequence number is
//! taken *after* its `write_all` returns, an fsync issued at watermark
//! `t` provably covers every record with sequence ≤ `t`. Waiters also
//! fsync inline if the watermark stalls, so a wedged sync thread delays
//! acks rather than losing them.
//!
//! An fsync failure is **sticky**: after the kernel has failed a flush,
//! previously-written dirty pages may already have been dropped, so no
//! later fsync can retroactively make earlier acks safe. Every ack
//! waiting on or after a failed flush gets an error (the client sees
//! `ERR`, which means *not acked* — exactly the guarantee recovery
//! makes).
//!
//! # Compaction, not truncation
//!
//! A snapshot at generation `g` makes records with `id < g` redundant —
//! but ingests running *concurrently with the snapshot* have already
//! appended records with `id ≥ g` that a blind truncate would destroy.
//! [`WalManager::compact`] therefore rewrites each shard log keeping
//! only `id ≥ g`, under the shard lock so no append interleaves. It and
//! the snapshot writer share one durable-replace routine: temp file,
//! write, fsync, rename, fsync of the directory. The temp file is opened
//! in append mode and becomes the shard's new append handle the moment
//! the rename lands, so no append can go to the unlinked old log.
//! [`WalManager::truncate_all`] is the blunt form, safe only while no
//! ingest can be in flight (the daemon uses it once at startup, after
//! its establishing snapshot, to neutralise stale or foreign logs).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use kastio_trace::wal::{encode_wal_record, scan_wal, wal_dir, wal_shard_path, WalRecord};

use crate::fault::{crash_point, crash_point_armed, CRASH_MID_RECORD};
use crate::index::SnapshotStatus;

/// How long a durability waiter sleeps before concluding the sync
/// thread has stalled and fsyncing inline.
const STALL_TIMEOUT: Duration = Duration::from_millis(20);

/// One shard's log file. `dirty` marks bytes written since the last
/// fsync, so an idle shard costs a group commit nothing.
struct WalShard {
    file: File,
    path: PathBuf,
    dirty: bool,
}

/// The group-commit watermark pair: `appended` is the highest sequence
/// whose record bytes are fully written; `durable` the highest covered
/// by an fsync. `appended ≥ durable` always.
struct CommitState {
    appended: u64,
    durable: u64,
    /// First fsync failure, sticky (see the module docs).
    failed: Option<String>,
}

/// The per-shard write-ahead log of one durable corpus directory.
///
/// Shared behind an `Arc`: the server's connection handlers append, a
/// background thread group-commits, snapshots compact.
pub struct WalManager {
    shards: Vec<Mutex<WalShard>>,
    commit: Mutex<CommitState>,
    committed: Condvar,
    sync_interval: Duration,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl std::fmt::Debug for WalManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalManager")
            .field("shards", &self.shards.len())
            .field("sync_interval", &self.sync_interval)
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
thread_local! {
    /// The calling thread's durability events (`fsync <path>`,
    /// `rename <from> -> <to>`), so tests can assert their order.
    pub(crate) static EVENTS: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Logs a durability event in test builds; a no-op otherwise.
fn log_event(_event: impl FnOnce() -> String) {
    #[cfg(test)]
    EVENTS.with_borrow_mut(|log| log.push(_event()));
}

/// Fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()?;
    log_event(|| format!("fsync {}", dir.display()));
    Ok(())
}

/// Durably replaces the file at `path`: `write` fills `<path>.tmp`
/// (opened in append mode, emptied first), which is fsync'd and renamed
/// over `path`, and then the parent directory is fsync'd. `install`
/// receives the new file's handle right after the rename, before anything
/// else can fail. An error before the rename leaves `path` untouched.
pub(crate) fn replace_durably(
    path: &Path,
    write: impl FnOnce(&File) -> io::Result<()>,
    install: impl FnOnce(File),
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = OpenOptions::new().create(true).append(true).open(&tmp)?;
    file.set_len(0)?;
    write(&file)?;
    file.sync_all()?;
    log_event(|| format!("fsync {}", tmp.display()));
    fs::rename(&tmp, path)?;
    log_event(|| format!("rename {} -> {}", tmp.display(), path.display()));
    install(file);
    sync_dir(path.parent().expect("a file path has a parent directory"))
}

impl WalManager {
    /// Opens (creating as needed) the shard logs under `<dir>/wal`, fsyncs
    /// `wal/` and then `<dir>` so the files' directory entries survive a
    /// power cut, and starts the group-commit thread. The thread holds
    /// only a `Weak` reference, so dropping the last `Arc` retires it
    /// within one interval.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating or syncing a directory or opening a
    /// log.
    pub fn open(dir: &Path, shards: usize, sync_interval: Duration) -> io::Result<Arc<WalManager>> {
        fs::create_dir_all(wal_dir(dir))?;
        let shards = (0..shards.max(1))
            .map(|i| {
                let path = wal_shard_path(dir, i);
                let file = OpenOptions::new().create(true).append(true).open(&path)?;
                Ok(Mutex::new(WalShard { file, path, dirty: false }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        sync_dir(&wal_dir(dir))?;
        sync_dir(dir)?;
        let manager = Arc::new(WalManager {
            shards,
            commit: Mutex::new(CommitState { appended: 0, durable: 0, failed: None }),
            committed: Condvar::new(),
            sync_interval,
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&manager);
        std::thread::Builder::new().name("kastio-wal-sync".to_string()).spawn(move || loop {
            std::thread::sleep(weak.upgrade().map_or(Duration::ZERO, |m| m.sync_interval));
            let Some(manager) = weak.upgrade() else { return };
            manager.sync_once();
        })?;
        Ok(manager)
    }

    /// Appends one record to its shard's log and returns the commit
    /// sequence number to pass to [`Self::wait_durable`] before acking.
    ///
    /// # Errors
    ///
    /// The write error if the record could not be fully appended. A
    /// partial append leaves a torn tail, which recovery truncates —
    /// safe precisely because the ack never happened.
    pub fn append(&self, record: &WalRecord) -> io::Result<u64> {
        let encoded = encode_wal_record(record);
        let shard_index = record.id as usize % self.shards.len();
        let written: io::Result<()> = (|| {
            let mut shard = lock(&self.shards[shard_index]);
            if crash_point_armed(CRASH_MID_RECORD) {
                // Make the torn half *durable* before aborting: a crash
                // that loses the whole buffered record is the easy case;
                // the hard case recovery must survive is half a record
                // physically on disk.
                shard.file.write_all(&encoded[..encoded.len() / 2])?;
                shard.file.sync_data()?;
                crash_point(CRASH_MID_RECORD);
                shard.file.write_all(&encoded[encoded.len() / 2..])?;
            } else {
                shard.file.write_all(&encoded)?;
            }
            shard.dirty = true;
            Ok(())
        })();
        if let Err(e) = written {
            // A failed append leaves this entry in memory with no log
            // record; a later acked record would then sit past an id gap
            // and be dropped at replay. Poison the commit state so every
            // later ack fails too (the client sees `ERR` = not acked).
            let mut state = lock(&self.commit);
            if state.failed.is_none() {
                state.failed = Some(format!("wal append failed: {e}"));
            }
            self.committed.notify_all();
            return Err(e);
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(encoded.len() as u64, Ordering::Relaxed);
        let mut state = lock(&self.commit);
        state.appended += 1;
        Ok(state.appended)
    }

    /// Blocks until an fsync covers commit sequence `seq`.
    ///
    /// # Errors
    ///
    /// The sticky fsync failure, if one occurred before `seq` became
    /// durable. Callers must not ack in that case.
    pub fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut state = lock(&self.commit);
        loop {
            if state.durable >= seq {
                return Ok(());
            }
            if let Some(failed) = &state.failed {
                return Err(io::Error::other(failed.clone()));
            }
            let (guard, timeout) = self
                .committed
                .wait_timeout(state, STALL_TIMEOUT)
                .unwrap_or_else(|p| p.into_inner());
            state = guard;
            if timeout.timed_out() && state.durable < seq && state.failed.is_none() {
                // The sync thread missed its window (descheduled, or the
                // manager is mid-teardown): commit inline rather than
                // holding the ack hostage.
                drop(state);
                self.sync_once();
                state = lock(&self.commit);
            }
        }
    }

    /// One group commit: fsync every dirty shard, then advance the
    /// durable watermark to what had been appended when the pass began.
    fn sync_once(&self) {
        let target = {
            let state = lock(&self.commit);
            if state.appended <= state.durable || state.failed.is_some() {
                return;
            }
            state.appended
        };
        let mut error = None;
        for shard in &self.shards {
            let mut shard = lock(shard);
            if !shard.dirty {
                continue;
            }
            match shard.file.sync_data() {
                Ok(()) => {
                    shard.dirty = false;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => error = Some(format!("fsync {} failed: {e}", shard.path.display())),
            }
        }
        let mut state = lock(&self.commit);
        match error {
            None if state.durable < target => state.durable = target,
            None => {}
            Some(e) => state.failed = Some(e),
        }
        self.committed.notify_all();
    }

    /// Rewrites every shard log keeping only records with
    /// `id ≥ keep_from` — the compaction a snapshot at generation
    /// `keep_from` licenses. Runs per shard under the shard lock (temp
    /// file, fsync, rename, directory fsync; the temp file's handle
    /// becomes the append handle), so concurrent appends to other shards
    /// proceed and no append interleaves a rewrite.
    ///
    /// # Errors
    ///
    /// The first filesystem error. Shards already compacted stay
    /// compacted; the failing shard keeps its full log or, if only the
    /// final directory fsync failed, the compacted one (both are safe);
    /// and every shard's append handle stays on the file at its path.
    pub fn compact(&self, keep_from: u64) -> io::Result<()> {
        for shard in &self.shards {
            let mut guard = lock(shard);
            let shard = &mut *guard;
            let bytes = fs::read(&shard.path)?;
            let scan = scan_wal(&bytes);
            let mut kept = Vec::new();
            for record in &scan.records {
                if u64::from(record.id) >= keep_from {
                    kept.extend_from_slice(&encode_wal_record(record));
                }
            }
            if kept.len() as u64 == scan.durable_bytes && !scan.truncated {
                continue; // nothing to drop: skip the rewrite
            }
            // The new file is fsync'd whole, which also covers any
            // appended-but-unsynced records it kept.
            replace_durably(
                &shard.path,
                |mut file| file.write_all(&kept),
                |file| shard.file = file,
            )?;
            shard.dirty = false;
        }
        Ok(())
    }

    /// Empties every shard log. Only safe while no ingest can be in
    /// flight; the daemon calls it once at startup, right after the
    /// establishing snapshot, to neutralise stale or foreign logs.
    ///
    /// # Errors
    ///
    /// The first truncation error.
    pub fn truncate_all(&self) -> io::Result<()> {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.file.set_len(0)?;
            shard.file.sync_data()?;
            shard.dirty = false;
        }
        Ok(())
    }

    /// Copies the live WAL counters into a [`SnapshotStatus`] (the form
    /// `STATS` / `METRICS` report them in).
    pub fn overlay(&self, status: &mut SnapshotStatus) {
        status.wal_records = self.records.load(Ordering::Relaxed);
        status.wal_bytes = self.bytes.load(Ordering::Relaxed);
        status.wal_fsyncs = self.fsyncs.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_trace::parse_trace;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kastio-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(id: u32) -> WalRecord {
        WalRecord {
            id,
            name: format!("e{id}"),
            label: "ckpt".to_string(),
            trace: parse_trace("h0 write 4096\nh0 write 4096").unwrap(),
        }
    }

    #[test]
    fn append_wait_then_rescan_recovers_every_record() {
        let dir = tmpdir("roundtrip");
        let wal = WalManager::open(&dir, 2, Duration::from_micros(500)).unwrap();
        let mut last = 0;
        for id in 0..6 {
            last = wal.append(&record(id)).unwrap();
        }
        wal.wait_durable(last).unwrap();

        // Shard placement mirrors the index: id % shards.
        let even = scan_wal(&fs::read(wal_shard_path(&dir, 0)).unwrap());
        let odd = scan_wal(&fs::read(wal_shard_path(&dir, 1)).unwrap());
        assert_eq!(even.records.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(odd.records.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(!even.truncated && !odd.truncated);

        let mut status = SnapshotStatus::default();
        wal.overlay(&mut status);
        assert_eq!(status.wal_records, 6);
        assert_eq!(status.wal_bytes, even.durable_bytes + odd.durable_bytes);
        assert!(status.wal_fsyncs >= 1, "at least one group commit ran");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_only_records_at_or_past_the_generation() {
        let dir = tmpdir("compact");
        let wal = WalManager::open(&dir, 2, Duration::from_micros(500)).unwrap();
        let mut last = 0;
        for id in 0..8 {
            last = wal.append(&record(id)).unwrap();
        }
        wal.wait_durable(last).unwrap();

        // A snapshot at generation 5 licenses dropping ids 0..5 only.
        wal.compact(5).unwrap();
        let even = scan_wal(&fs::read(wal_shard_path(&dir, 0)).unwrap());
        let odd = scan_wal(&fs::read(wal_shard_path(&dir, 1)).unwrap());
        assert_eq!(even.records.iter().map(|r| r.id).collect::<Vec<_>>(), vec![6]);
        assert_eq!(odd.records.iter().map(|r| r.id).collect::<Vec<_>>(), vec![5, 7]);

        // Appends keep working on the swapped-in handles.
        let seq = wal.append(&record(8)).unwrap();
        wal.wait_durable(seq).unwrap();
        let even = scan_wal(&fs::read(wal_shard_path(&dir, 0)).unwrap());
        assert_eq!(even.records.iter().map(|r| r.id).collect::<Vec<_>>(), vec![6, 8]);

        // The handles are O_APPEND: after truncate_all's set_len(0), a
        // positioned handle would write past a hole the scan stops at.
        wal.truncate_all().unwrap();
        let seq = wal.append(&record(10)).unwrap();
        wal.wait_durable(seq).unwrap();
        let bytes = fs::read(wal_shard_path(&dir, 0)).unwrap();
        assert_eq!(bytes, encode_wal_record(&record(10)), "exactly the new record");
        assert!(!scan_wal(&bytes).truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_all_empties_every_shard() {
        let dir = tmpdir("truncate");
        let wal = WalManager::open(&dir, 3, Duration::from_micros(500)).unwrap();
        let mut last = 0;
        for id in 0..5 {
            last = wal.append(&record(id)).unwrap();
        }
        wal.wait_durable(last).unwrap();
        wal.truncate_all().unwrap();
        for shard in 0..3 {
            assert_eq!(fs::read(wal_shard_path(&dir, shard)).unwrap(), b"");
        }
        // And the log is usable again afterwards.
        let seq = wal.append(&record(9)).unwrap();
        wal.wait_durable(seq).unwrap();
        assert_eq!(scan_wal(&fs::read(wal_shard_path(&dir, 0)).unwrap()).records[0].id, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_all_become_durable() {
        let dir = tmpdir("concurrent");
        let wal = WalManager::open(&dir, 4, Duration::from_micros(200)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..16 {
                        let seq = wal.append(&record(t * 16 + i)).unwrap();
                        wal.wait_durable(seq).unwrap();
                    }
                });
            }
        });
        let mut ids: Vec<u32> = (0..4)
            .flat_map(|s| scan_wal(&fs::read(wal_shard_path(&dir, s)).unwrap()).records)
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }
}
