//! The write-ahead log: one file, with leader/follower group commit.
//!
//! [`WalManager`] closes the durability hole the atomic snapshots leave
//! open: the window *between* saves. Every acknowledged `INGEST` /
//! `BATCH INGEST` is appended (as a [`kastio_trace::wal`] record) to
//! `<dir>/wal/shard0.log` ([`wal_log_path`]), and the server only writes
//! the ack after [`WalManager::wait_durable`] confirms an fsync covering
//! the record. The daemon appends inside [`crate::PatternIndex::commit`],
//! under the mutex that gives out ids, so the log holds its records in id
//! order and any durable prefix of it is a prefix of the ids.
//!
//! # Group commit
//!
//! [`WalManager::append`] writes the record under the log lock and takes
//! a commit sequence number. The first waiter whose record is not yet
//! durable while no fsync is in flight becomes the *leader*: it reads the
//! highest appended sequence, fsyncs the log at once, and only then
//! advances the durable watermark and wakes the other waiters. Waiters
//! that arrive during that fsync park; on waking, those it covered
//! return, and the first one still uncovered leads the next group. This is
//! the leader/follower flush of PostgreSQL's `XLogFlush`: there is no
//! sync thread and no timer, a lone ack waits for exactly one fsync, and
//! a burst of acks shares one. The leader holds the log lock only to
//! clone the append handle and fsyncs the clone, so an append never waits
//! out an fsync. Because a sequence number is taken *after* its
//! `write_all` returns, an fsync issued at watermark `t` provably covers
//! every record with sequence ≤ `t` — also when a compaction swaps the
//! handle in between, because compaction fsyncs the file it installs.
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
//! [`WalManager::compact`] therefore rewrites the log keeping only
//! `id ≥ g`, under the log lock so no append interleaves. It and the
//! snapshot writer share one durable-replace routine: temp file, write,
//! fsync, rename, fsync of the directory. The temp file is opened in
//! append mode and becomes the append handle the moment the rename lands,
//! so no append can go to the unlinked old log.
//! [`WalManager::truncate_all`] is the blunt form, safe only while no
//! ingest can be in flight (the daemon uses it once at startup, after
//! its establishing snapshot, to neutralise stale or foreign logs).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use kastio_trace::wal::{
    encode_wal_fields, encode_wal_record, scan_wal, wal_dir, wal_log_path, WalRecord,
};

use crate::entry::IndexEntry;
use crate::fault::{crash_point, crash_point_armed, CRASH_MID_RECORD};
use crate::index::SnapshotStatus;

/// The group-commit watermark pair: `appended` is the highest sequence
/// whose record bytes are fully written; `durable` the highest covered
/// by an fsync. `appended ≥ durable` always.
#[derive(Default)]
struct CommitState {
    appended: u64,
    durable: u64,
    /// A leader's fsync is in flight; other waiters park until it ends.
    syncing: bool,
    /// First fsync or append failure, sticky (see the module docs).
    failed: Option<String>,
}

/// The write-ahead log of one durable corpus directory.
///
/// Shared behind an `Arc`: the server's ingest commits append, their
/// durability waits fsync, snapshots compact.
pub struct WalManager {
    /// The append handle of `path`. Appends, compaction and truncation
    /// hold the lock; a commit leader only clones the handle under it.
    log: Mutex<File>,
    path: PathBuf,
    commit: Mutex<CommitState>,
    committed: Condvar,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl std::fmt::Debug for WalManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalManager").field("path", &self.path).finish_non_exhaustive()
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

/// Fsyncs directory `dir` (the empty path is the current directory),
/// making the entries created, renamed or removed in it durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    let open = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    File::open(open)?.sync_all()?;
    log_event(|| format!("fsync {}", dir.display()));
    Ok(())
}

/// Creates directory `dir` and any missing ancestors, runs `fill` (which
/// makes durable whatever it puts in `dir`), and then fsyncs the parent
/// of each directory it created, deepest first, so none of them can
/// vanish in a power cut. A `dir` that already existed costs no fsync
/// beyond `fill`'s own.
pub(crate) fn create_dir_durably<T>(
    dir: &Path,
    fill: impl FnOnce() -> io::Result<T>,
) -> io::Result<T> {
    let created: Vec<PathBuf> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.is_dir())
        .map(Path::to_path_buf)
        .collect();
    fs::create_dir_all(dir)?;
    let filled = fill()?;
    for new in &created {
        sync_dir(new.parent().expect("a created directory has a parent"))?;
    }
    Ok(filled)
}

/// Every `shard*.log` in the WAL directory `wal`: the one log and, in a
/// root written before the log was one file, the per-shard logs beside
/// it.
pub(crate) fn log_files(wal: &Path) -> io::Result<Vec<PathBuf>> {
    let mut logs = Vec::new();
    for entry in fs::read_dir(wal)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if name.starts_with("shard") && name.ends_with(".log") {
            logs.push(path);
        }
    }
    Ok(logs)
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
    /// Opens (creating as needed) the log `<dir>/wal/shard0.log` and
    /// fsyncs `wal/` and the parent of every directory it had to create,
    /// so the log's directory entry survives a power cut even on a fresh
    /// root. No thread starts: the waiters fsync the log themselves (see
    /// [`Self::wait_durable`]).
    ///
    /// `_shards` and `_sync_interval` are ignored: the log is one file,
    /// and commits run on demand, not on a timer. Both stay for the
    /// callers that still pass them; workspace callers pass `1`.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating or syncing a directory or opening
    /// the log.
    pub fn open(
        dir: &Path,
        _shards: usize,
        _sync_interval: Duration,
    ) -> io::Result<Arc<WalManager>> {
        let wal = wal_dir(dir);
        let path = wal_log_path(dir);
        let file = create_dir_durably(&wal, || {
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            sync_dir(&wal)?; // the log's entry
            Ok(file)
        })?;
        Ok(Arc::new(WalManager {
            log: Mutex::new(file),
            path,
            commit: Mutex::new(CommitState::default()),
            committed: Condvar::new(),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }))
    }

    /// Appends one record to the log and returns the commit sequence
    /// number to pass to [`Self::wait_durable`] before acking.
    ///
    /// # Errors
    ///
    /// The write error if the record could not be fully appended. A
    /// partial append leaves a torn tail, which recovery truncates —
    /// safe precisely because the ack never happened.
    pub fn append(&self, record: &WalRecord) -> io::Result<u64> {
        self.append_encoded(&encode_wal_record(record))
    }

    /// [`Self::append`] for an index entry, encoded straight from the
    /// entry: the serve daemon's log step inside
    /// [`crate::PatternIndex::commit`].
    ///
    /// # Errors
    ///
    /// As [`Self::append`].
    pub fn append_entry(&self, entry: &IndexEntry) -> io::Result<u64> {
        self.append_encoded(&encode_wal_fields(entry.id.0, &entry.name, &entry.label, &entry.trace))
    }

    fn append_encoded(&self, encoded: &[u8]) -> io::Result<u64> {
        let written: io::Result<()> = (|| {
            let mut file = lock(&self.log);
            if crash_point_armed(CRASH_MID_RECORD) {
                // Make the torn half *durable* before aborting: a crash
                // that loses the whole buffered record is the easy case;
                // the hard case recovery must survive is half a record
                // physically on disk.
                file.write_all(&encoded[..encoded.len() / 2])?;
                file.sync_data()?;
                crash_point(CRASH_MID_RECORD);
                file.write_all(&encoded[encoded.len() / 2..])?;
            } else {
                file.write_all(encoded)?;
            }
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

    /// Blocks until an fsync covers commit sequence `seq`. If no fsync
    /// is in flight, the caller leads: it fsyncs everything appended so
    /// far itself. Otherwise it waits for the leader, and leads the next
    /// group if that fsync did not cover `seq`.
    ///
    /// # Errors
    ///
    /// The sticky fsync or append failure, if one occurred before `seq`
    /// became durable. Callers must not ack in that case.
    pub fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut state = lock(&self.commit);
        loop {
            if state.durable >= seq {
                return Ok(());
            }
            if let Some(failed) = &state.failed {
                return Err(io::Error::other(failed.clone()));
            }
            if state.syncing {
                state = self.committed.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            // Lead. Nothing may return between setting `syncing` and
            // clearing it, or every later ack would wait forever. The log
            // lock is held only to clone the handle, never across the
            // fsync.
            state.syncing = true;
            let target = state.appended;
            drop(state);
            let synced = lock(&self.log).try_clone().and_then(|file| file.sync_data());
            state = lock(&self.commit);
            state.syncing = false;
            match synced {
                Ok(()) => {
                    log_event(|| format!("fsync {}", self.path.display()));
                    self.fsyncs.fetch_add(1, Ordering::Release);
                    state.durable = target;
                }
                Err(e) => state.failed = Some(format!("fsync {} failed: {e}", self.path.display())),
            }
            self.committed.notify_all();
        }
    }

    /// Rewrites the log keeping only records with `id ≥ keep_from` — the
    /// compaction a snapshot at generation `keep_from` licenses. Runs
    /// under the log lock (temp file, fsync, rename, directory fsync; the
    /// temp file's handle becomes the append handle), so no append
    /// interleaves the rewrite.
    ///
    /// # Errors
    ///
    /// The first filesystem error. The log is then either the full old
    /// one or, if only the final directory fsync failed, the compacted
    /// one (both are safe), and the append handle stays on the file at
    /// its path.
    pub fn compact(&self, keep_from: u64) -> io::Result<()> {
        let mut file = lock(&self.log);
        let scan = scan_wal(&fs::read(&self.path)?);
        let mut kept = Vec::new();
        for record in &scan.records {
            if u64::from(record.id) >= keep_from {
                kept.extend_from_slice(&encode_wal_record(record));
            }
        }
        if kept.len() as u64 == scan.durable_bytes && !scan.truncated {
            return Ok(()); // nothing to drop: skip the rewrite
        }
        // The new file is fsync'd whole, which also covers any
        // appended-but-unsynced records it kept.
        replace_durably(&self.path, |mut out| out.write_all(&kept), |new| *file = new)
    }

    /// Empties the log and deletes every other `shard<i>.log` beside it
    /// (a root written before the log was one file holds one per shard),
    /// then fsyncs `wal/`. Only safe while no ingest can be in flight; the
    /// daemon calls it once at startup, right after the establishing
    /// snapshot, to neutralise stale or foreign logs.
    ///
    /// # Errors
    ///
    /// The first truncation, deletion or sync error.
    pub fn truncate_all(&self) -> io::Result<()> {
        let file = lock(&self.log);
        file.set_len(0)?;
        file.sync_data()?;
        let wal = self.path.parent().expect("the log lives in wal/");
        for log in log_files(wal)? {
            if log != self.path {
                fs::remove_file(log)?;
            }
        }
        sync_dir(wal)
    }

    /// Copies the live WAL counters into a [`SnapshotStatus`], the copy
    /// the metric table ([`crate::metrics`]) reads for `STATS` and
    /// `METRICS`. Every fsync covers at least
    /// one record counted before it, and the fsync count is read first,
    /// so every copy has `wal_fsyncs ≤ wal_records`.
    pub fn overlay(&self, status: &mut SnapshotStatus) {
        status.wal_fsyncs = self.fsyncs.load(Ordering::Acquire);
        status.wal_records = self.records.load(Ordering::Relaxed);
        status.wal_bytes = self.bytes.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexOptions, PatternIndex};
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

    fn logged_ids(dir: &Path) -> Vec<u32> {
        scan_wal(&fs::read(wal_log_path(dir)).unwrap()).records.iter().map(|r| r.id).collect()
    }

    fn fsyncs(wal: &WalManager) -> u64 {
        let mut status = SnapshotStatus::default();
        wal.overlay(&mut status);
        status.wal_fsyncs
    }

    #[test]
    fn a_lone_waiter_fsyncs_the_log_itself() {
        let dir = tmpdir("lone");
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        EVENTS.take();
        let seq = wal.append(&record(0)).unwrap();
        assert_eq!(EVENTS.take(), Vec::<String>::new(), "an append fsyncs nothing");

        // No thread and no timer: the waiter's own call runs the fsync.
        wal.wait_durable(seq).unwrap();
        assert_eq!(EVENTS.take(), [format!("fsync {}", wal_log_path(&dir).display())]);
        assert_eq!(fsyncs(&wal), 1);

        // A record already durable costs no further fsync.
        wal.wait_durable(seq).unwrap();
        assert_eq!(EVENTS.take(), Vec::<String>::new());
        assert_eq!(fsyncs(&wal), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_waiter_covered_by_the_fsync_in_flight_issues_none() {
        let dir = tmpdir("follower");
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        let first = wal.append(&record(0)).unwrap();
        let second = wal.append(&record(1)).unwrap();
        std::thread::scope(|scope| {
            // Holding the log lock parks the leader before its fsync.
            let held = lock(&wal.log);
            let leader = scope.spawn(|| wal.wait_durable(first));
            while !lock(&wal.commit).syncing {
                std::thread::yield_now();
            }
            let follower = scope.spawn(|| wal.wait_durable(second));
            // Let the follower park behind the fsync in flight. If it
            // arrives only after that fsync, it finds its record covered,
            // so the count below holds either way.
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            leader.join().unwrap().unwrap();
            follower.join().unwrap().unwrap();
        });
        // The leader's fsync covered both records; the follower, which
        // arrived while it was in flight, found its own covered.
        assert_eq!(fsyncs(&wal), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_wait_then_rescan_recovers_every_record() {
        let dir = tmpdir("roundtrip");
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        let mut last = 0;
        for id in 0..6 {
            last = wal.append(&record(id)).unwrap();
        }
        wal.wait_durable(last).unwrap();

        // One log, in append order.
        let scan = scan_wal(&fs::read(wal_log_path(&dir)).unwrap());
        assert_eq!(scan.records, (0..6).map(record).collect::<Vec<_>>());
        assert!(!scan.truncated);
        assert_eq!(log_files(&wal_dir(&dir)).unwrap(), [wal_log_path(&dir)]);

        let mut status = SnapshotStatus::default();
        wal.overlay(&mut status);
        assert_eq!(status.wal_records, 6);
        assert_eq!(status.wal_bytes, scan.durable_bytes);
        assert_eq!(status.wal_fsyncs, 1, "one wait, one fsync for all six records");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_only_records_at_or_past_the_generation() {
        let dir = tmpdir("compact");
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        let mut last = 0;
        for id in 0..8 {
            last = wal.append(&record(id)).unwrap();
        }
        wal.wait_durable(last).unwrap();

        // A snapshot at generation 5 licenses dropping ids 0..5 only.
        wal.compact(5).unwrap();
        assert_eq!(logged_ids(&dir), [5, 6, 7]);

        // Appends keep working on the swapped-in handle.
        let seq = wal.append(&record(8)).unwrap();
        wal.wait_durable(seq).unwrap();
        assert_eq!(logged_ids(&dir), [5, 6, 7, 8]);

        // The handle is O_APPEND: after truncate_all's set_len(0), a
        // positioned handle would write past a hole the scan stops at.
        wal.truncate_all().unwrap();
        let seq = wal.append(&record(10)).unwrap();
        wal.wait_durable(seq).unwrap();
        let bytes = fs::read(wal_log_path(&dir)).unwrap();
        assert_eq!(bytes, encode_wal_record(&record(10)), "exactly the new record");
        assert!(!scan_wal(&bytes).truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_all_empties_the_log_and_deletes_legacy_shard_logs() {
        let dir = tmpdir("truncate");
        // A root written with one log per shard: shards 1 and 2 beside
        // the log this layout keeps.
        fs::create_dir_all(wal_dir(&dir)).unwrap();
        for shard in 1..3u32 {
            let path = wal_dir(&dir).join(format!("shard{shard}.log"));
            fs::write(path, encode_wal_record(&record(shard))).unwrap();
        }
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        let last = wal.append(&record(0)).unwrap();
        wal.wait_durable(last).unwrap();
        EVENTS.take();
        wal.truncate_all().unwrap();
        assert_eq!(log_files(&wal_dir(&dir)).unwrap(), [wal_log_path(&dir)]);
        assert_eq!(fs::read(wal_log_path(&dir)).unwrap(), b"");
        assert_eq!(EVENTS.take(), [format!("fsync {}", wal_dir(&dir).display())]);
        // And the log is usable again afterwards.
        let seq = wal.append(&record(9)).unwrap();
        wal.wait_durable(seq).unwrap();
        assert_eq!(logged_ids(&dir), [9]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_log_every_record_in_id_order() {
        let dir = tmpdir("concurrent");
        let wal = WalManager::open(&dir, 1, Duration::ZERO).unwrap();
        let index = PatternIndex::new(IndexOptions::default());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (wal, index) = (&wal, &index);
                scope.spawn(move || {
                    for i in 0..16u32 {
                        let text = format!("h0 write {}\n", 64 + t * 16 + i).repeat(1 + i as usize);
                        let trace = parse_trace(&text).unwrap();
                        let prepared = index.prepare_auto(vec![(format!("t{t}"), trace)]).unwrap();
                        let (_, seq) = index.commit(prepared, |entries| {
                            entries.iter().try_fold(0, |_, entry| wal.append_entry(entry))
                        });
                        wal.wait_durable(seq.unwrap()).unwrap();
                    }
                });
            }
        });
        let logged = scan_wal(&fs::read(wal_log_path(&dir)).unwrap()).records;
        assert_eq!(
            logged.iter().map(|r| r.id).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>(),
            "file order is id order"
        );
        // Each record is the entry the index holds under its id.
        for (record, entry) in logged.iter().zip(index.entries()) {
            assert_eq!(
                (record.id, &record.name, &record.label),
                (entry.id.0, &entry.name, &entry.label)
            );
            assert_eq!(record.trace, entry.trace);
        }
        // Each commit pass covers at least one waiter, and waiters that
        // overlap share a pass.
        let fsyncs = fsyncs(&wal);
        assert!((1..=64).contains(&fsyncs), "{fsyncs} fsyncs for 64 acks");
        fs::remove_dir_all(&dir).unwrap();
    }
}
