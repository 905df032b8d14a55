//! Durable snapshots: the corpus as one fsync'd file of WAL records.
//!
//! A save writes `<dir>/snapshot.log`
//! ([`kastio_trace::wal::snapshot_path`]): one [`kastio_trace::wal`]
//! record per entry (id, name, label, trace) in id order, with no header
//! — the generation is the record count. It is the write-ahead log's own
//! framing, so one reader, [`scan_wal`], recovers both.
//!
//! ```text
//! 1. stream the records into   <dir>/snapshot.log.tmp
//! 2. fsync it, rename it over  <dir>/snapshot.log
//! 3. fsync <dir>               (the rename is now durable)
//! 4. compact <dir>/wal/        (with a WAL, and only after step 3)
//! ```
//!
//! An error in steps 1–3 fails the save and skips step 4. The previous
//! snapshot is untouched until the rename, and a leftover temp file is
//! never read (the next save overwrites it). The log records a snapshot
//! covers are discarded only once it is durable, so a power cut at any
//! point loses no acknowledged ingest. [`load_index`] recovers the
//! snapshot plus a WAL replay; corpus directories (the `kastio generate`
//! layout) are a read-only import format.
//!
//! Shard placement round-trips without being written down: entries are
//! saved in id order and placement is the pure function `id % shards`,
//! so a reload under any shard count answers queries identically.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use kastio_trace::wal::{
    encode_wal_fields, scan_wal, snapshot_dir, snapshot_path, wal_dir, MAX_WAL_RECORD_BYTES,
    WAL_HEADER_BYTES,
};
use kastio_trace::{read_corpus, CorpusIoError, Trace};

use crate::entry::IndexEntry;
use crate::fault::{crash_point, CRASH_AFTER_SNAPSHOT_RENAME};
use crate::index::{IndexOptions, PatternIndex};
use crate::wal::{log_files, replace_durably, WalManager};

/// What a successful [`save_index_wal`] wrote: the entry count and the
/// corpus generation the snapshot covers (the `SAVE` verb reports both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Entries written to the snapshot.
    pub entries: usize,
    /// The corpus generation the snapshot equals: the snapshot is
    /// exactly the corpus as it stood after this many completed ingests
    /// (a contiguous id prefix — see [`save_index_wal`] on id gaps).
    pub generation: u64,
}

/// Writes every entry of `index` to `<dir>/snapshot.log` as a durable
/// snapshot, creating `dir` if needed (see the [module docs](self) for
/// the protocol), and then, with a WAL, compacts the log to the records
/// the snapshot does not cover (`id ≥ generation`).
///
/// Compaction failure is deliberately *not* a save failure: the snapshot
/// is durable and the uncompacted records are redundant but harmless
/// (replay skips ids below the snapshot's generation), so the daemon
/// reports success and retries compaction at the next save.
///
/// The entry scan takes shard *read* locks only, so queries keep flowing
/// while a save runs. Success and failure both update the index's
/// [`crate::index::SnapshotStatus`].
///
/// # Errors
///
/// [`CorpusIoError::Io`] on any filesystem failure, and for an entry
/// whose record payload would exceed [`MAX_WAL_RECORD_BYTES`] (no save
/// writes a snapshot that would not load). The previous snapshot is
/// untouched in that case and the logs are not compacted.
pub fn save_index_wal(
    index: &PatternIndex,
    dir: &Path,
    wal: Option<&WalManager>,
) -> Result<SnapshotInfo, CorpusIoError> {
    // Serialises whole saves. Shard read locks nest inside it and no
    // ingest or query path takes it, so no cycle. The status has its own
    // mutex, locked only briefly below, so STATS never waits on the disk.
    let _save_guard = index.lock_save();
    // Persist only the contiguous id prefix of the scan. Concurrent
    // ingests can leave an id *gap* (id 5 allocated but not yet inserted
    // while id 6 already is); saving the gapped set would renumber
    // entries on reload and let a later `ingest_auto` reuse an existing
    // `e<id>` name, silently aliasing two entries. The prefix `0..k` is
    // exactly the corpus as of generation `k` (ids are dense and entries
    // immutable once ingested), so recording `last_generation = k` keeps
    // the skip test sound — and any entry beyond a gap was ingested after
    // generation `k`, so a later save (the exit-path one runs with all
    // handlers joined, hence gap-free) necessarily picks it up.
    let mut entries = index.entries();
    entries.truncate(contiguous_prefix(&entries));
    let generation = entries.len() as u64;
    let started = std::time::Instant::now();
    let result = fs::create_dir_all(dir).and_then(|()| write_snapshot_file(dir, entries));
    if let (Ok(_), Some(wal)) = (&result, wal) {
        crash_point(CRASH_AFTER_SNAPSHOT_RENAME);
        // Non-fatal (see above): the snapshot is already durable; stale
        // records merely wait for the next pass.
        if let Err(e) = wal.compact(generation) {
            eprintln!("kastio snapshot: WAL compaction in {} failed: {e}", dir.display());
        }
    }
    let duration_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut status = index.lock_snapshot();
    match result {
        Ok(bytes) => {
            let entries = generation as usize;
            status.snapshots += 1;
            status.last_ok = Some(true);
            status.last_generation = generation;
            status.last_entries = entries;
            status.last_dir = Some(dir.to_path_buf());
            status.last_duration_micros = duration_micros;
            status.last_bytes = bytes;
            Ok(SnapshotInfo { entries, generation })
        }
        Err(e) => {
            status.errors += 1;
            status.last_ok = Some(false);
            Err(e.into())
        }
    }
}

/// Length of the leading run of entries whose ids are exactly
/// `0, 1, 2, …` — the longest prefix that is guaranteed to reload with
/// identical ids (and therefore identical shard placement and no
/// `e<id>` name collisions for future auto-named ingests).
fn contiguous_prefix(entries: &[IndexEntry]) -> usize {
    entries.iter().enumerate().take_while(|(i, e)| e.id.0 as usize == *i).count()
}

/// Steps 1–3 of the save protocol: streams one record per entry into the
/// snapshot file of `dir` and makes it durable. Returns the file's length.
fn write_snapshot_file(dir: &Path, entries: Vec<IndexEntry>) -> io::Result<u64> {
    let mut bytes = 0u64;
    let write = |file: &fs::File| {
        let mut out = BufWriter::new(file);
        for entry in &entries {
            let encoded = encode_wal_fields(entry.id.0, &entry.name, &entry.label, &entry.trace);
            let payload = encoded.len() - WAL_HEADER_BYTES;
            if payload > MAX_WAL_RECORD_BYTES as usize {
                let name = &entry.name;
                let detail = format!("entry {name} needs a {payload}-byte record, over the cap");
                return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
            }
            out.write_all(&encoded)?;
            bytes += encoded.len() as u64;
        }
        out.flush()
    };
    replace_durably(&snapshot_path(dir), write, drop)?;
    Ok(bytes)
}

/// [`save_index_wal`], skipped when the on-disk snapshot is already
/// current: the last save succeeded, it went to this same `dir` (a save
/// to one directory never suppresses a needed save to another), the
/// corpus generation has not moved since, and `<dir>/snapshot.log` still
/// exists. Returns `Ok(None)` on a skip. This is the idle-cycle test the
/// periodic [`Snapshotter`], the signal monitor and the daemon's exit
/// path use.
///
/// # Errors
///
/// Whatever [`save_index_wal`] reports.
pub fn save_index_if_changed_wal(
    index: &PatternIndex,
    dir: &Path,
    wal: Option<&WalManager>,
) -> Result<Option<SnapshotInfo>, CorpusIoError> {
    let status = index.snapshot_status();
    if status.last_ok == Some(true)
        && status.last_dir.as_deref() == Some(dir)
        && status.last_generation == index.generation()
        && snapshot_path(dir).exists()
    {
        return Ok(None);
    }
    save_index_wal(index, dir, wal).map(Some)
}

/// Loads the corpus under `dir` into a fresh index with the given
/// options, in id order, then replays `<dir>/wal/`.
///
/// The base is `<dir>/snapshot.log` when that file exists. A torn or
/// corrupt record in it, or ids that do not run `0..n` in order, fail
/// the load: a snapshot is never truncated, because the log records it
/// covered are gone. Without the file the base is a corpus-directory
/// import ([`read_corpus`]) of `<dir>/snapshot/` if that is a directory
/// (a root written before the snapshot file existed), else of `<dir>`
/// itself (a `kastio generate` dataset or an older `--save` directory) —
/// unless `<dir>/wal/` exists, in which case the base is empty (a root
/// whose first snapshot never landed).
///
/// Replay scans every `<dir>/wal/shard*.log` for its longest valid
/// record prefix (a torn tail is truncated in place, never an error):
/// the one log, plus the per-shard logs of a root written before the log
/// was one file. It merges the records by id and applies them from the
/// base's length up to the first id gap. An ingest takes its id when its
/// record is appended, so the log is in id order: an fsync that covers a
/// record covers every lower id too, and a failed append poisons every
/// later ack. Nothing past a gap was therefore acked. The count of
/// replayed records lands in
/// [`crate::index::SnapshotStatus::last_replay_records`].
///
/// # Errors
///
/// [`CorpusIoError::Io`] for a corrupt snapshot file or a filesystem
/// failure; the errors of [`read_corpus`] (a path with nothing in it is
/// one); and [`CorpusIoError::BadEntry`] for names or labels the index
/// rejects at ingestion (for example path-traversing names) — rejecting
/// them here keeps the loaded corpus saveable.
pub fn load_index(dir: &Path, opts: IndexOptions) -> Result<PatternIndex, CorpusIoError> {
    let index = PatternIndex::new(opts);
    let snapshot = snapshot_path(dir);
    match fs::read(&snapshot) {
        Ok(bytes) => {
            let scan = scan_wal(&bytes);
            if scan.truncated || scan.records.iter().enumerate().any(|(i, r)| r.id as usize != i) {
                let detail = format!("snapshot {} is corrupt", snapshot.display());
                return Err(io::Error::new(io::ErrorKind::InvalidData, detail).into());
            }
            for record in scan.records {
                ingest_loaded(&index, record.name, record.label, record.trace)?;
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let legacy = snapshot_dir(dir);
            if legacy.is_dir() {
                for entry in read_corpus(&legacy)? {
                    ingest_loaded(&index, entry.name, entry.tag, entry.trace)?;
                }
            } else if !wal_dir(dir).is_dir() {
                for entry in read_corpus(dir)? {
                    ingest_loaded(&index, entry.name, entry.tag, entry.trace)?;
                }
            }
        }
        Err(e) => return Err(e.into()),
    }
    let replayed = replay_wal(&index, dir)?;
    index.lock_snapshot().last_replay_records = replayed;
    Ok(index)
}

/// Ingests one loaded entry, mapping a rejection to
/// [`CorpusIoError::BadEntry`].
fn ingest_loaded(
    index: &PatternIndex,
    name: String,
    label: String,
    trace: Trace,
) -> Result<(), CorpusIoError> {
    index
        .ingest(name, label, trace)
        .map(drop)
        .map_err(|e| CorpusIoError::BadEntry { field: e.to_string() })
}

/// Scans every log under `<dir>/wal`, truncates torn tails, and applies
/// the durable records the base does not already contain. Returns how
/// many records were applied.
fn replay_wal(index: &PatternIndex, dir: &Path) -> Result<u64, CorpusIoError> {
    let logs = match log_files(&wal_dir(dir)) {
        Ok(logs) => logs,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    for path in logs {
        let scan = scan_wal(&fs::read(&path)?);
        if scan.truncated {
            // Cut the torn tail so the next daemon appends after the
            // durable prefix, not after garbage. Best effort: recovery
            // itself must succeed even on a read-only filesystem.
            if let Ok(file) = fs::OpenOptions::new().write(true).open(&path) {
                let _ = file.set_len(scan.durable_bytes);
            }
        }
        records.extend(scan.records);
    }
    // A legacy root spreads one id sequence over several files.
    records.sort_by_key(|r| r.id);
    let mut expected = u32::try_from(index.len()).unwrap_or(u32::MAX);
    let mut replayed = 0u64;
    for record in records {
        if record.id < expected {
            continue; // already covered by the base
        }
        if record.id > expected {
            break; // id gap: nothing past it was ever acked
        }
        ingest_loaded(index, record.name, record.label, record.trace)?;
        expected += 1;
        replayed += 1;
    }
    Ok(replayed)
}

/// A background thread that snapshots an index every `interval`, skipping
/// cycles where the corpus generation has not moved (via
/// [`save_index_if_changed_wal`]). Snapshots run from shard *read* locks,
/// so queries keep flowing while one is written; failures are reported
/// on stderr and counted in the index's
/// [`crate::index::SnapshotStatus`] (visible over the wire in `STATS`).
///
/// Dropping the handle stops the thread promptly (it does not wait out
/// the interval) and joins it; an in-flight snapshot completes first.
#[derive(Debug)]
pub struct Snapshotter {
    /// Dropped to stop the thread: its wait then disconnects at once.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Snapshotter {
    /// Starts the snapshot thread for `index`, saving to `dir` every
    /// `interval` when the corpus changed; with a WAL each save also
    /// compacts the log.
    pub fn start_with_wal(
        index: Arc<PatternIndex>,
        dir: PathBuf,
        interval: Duration,
        wal: Option<Arc<WalManager>>,
    ) -> Snapshotter {
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("kastio-snapshot".to_string())
            .spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    if let Err(e) = save_index_if_changed_wal(&index, &dir, wal.as_deref()) {
                        eprintln!("kastio snapshot: save to {} failed: {e}", dir.display());
                    }
                }
            })
            .expect("snapshot thread spawns");
        Snapshotter { stop: Some(stop), handle: Some(handle) }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_trace::parse_trace;
    use kastio_trace::wal::{encode_wal_record, wal_log_path, WalRecord};
    use std::collections::BTreeMap;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kastio-index-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_index(opts: IndexOptions) -> PatternIndex {
        let index = PatternIndex::new(opts);
        index
            .ingest("ckpt", "flash", parse_trace(&"h0 write 1048576\n".repeat(8)).unwrap())
            .unwrap();
        index.ingest("scan", "posix", parse_trace(&"h0 read 4096\n".repeat(8)).unwrap()).unwrap();
        index
    }

    /// Every regular file in `dir` with its exact bytes, for bit-for-bit
    /// before/after comparisons.
    fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_type().unwrap().is_file())
            .map(|e| (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap()))
            .collect()
    }

    /// `(id, name, label, trace text)` of every entry, in id order.
    fn entry_rows(index: &PatternIndex) -> Vec<(u32, String, String, String)> {
        index
            .entries()
            .into_iter()
            .map(|e| (e.id.0, e.name, e.label, kastio_trace::write_trace(&e.trace)))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_entries_and_results() {
        let dir = tmpdir("roundtrip");
        let original = sample_index(IndexOptions::default());
        let info = save_index_wal(&original, &dir, None).unwrap();
        assert_eq!(info, SnapshotInfo { entries: 2, generation: 2 });
        let status = original.snapshot_status();
        let on_disk: u64 =
            fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();
        assert_eq!(status.last_bytes, on_disk, "snapshot bytes are what landed on disk");
        assert_eq!(dir_bytes(&dir).keys().collect::<Vec<_>>(), ["snapshot.log"], "one file");
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(restored.generation(), 2, "reload replays every ingest");
        assert_eq!(entry_rows(&restored), entry_rows(&original));
        let q = parse_trace(&"h0 write 1048576\n".repeat(6)).unwrap();
        let a = original.query(&q, 2);
        let b = restored.query(&q, 2);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.label, b.label);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_reproduces_shard_placement() {
        let dir = tmpdir("shards");
        let opts = IndexOptions { shards: 3, ..IndexOptions::default() };
        let original = sample_index(opts);
        original.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        save_index_wal(&original, &dir, None).unwrap();

        // Same shard count → identical placement, entry for entry.
        let restored = load_index(&dir, opts).unwrap();
        assert_eq!(restored.shard_sizes(), original.shard_sizes());
        assert_eq!(entry_rows(&restored), entry_rows(&original));

        // Different shard count → same corpus, same query answers.
        let reshaped =
            load_index(&dir, IndexOptions { shards: 2, ..IndexOptions::default() }).unwrap();
        let q = parse_trace(&"h0 write 1048576\n".repeat(6)).unwrap();
        let want = original.query(&q, 3);
        let got = reshaped.query(&q, 3);
        assert_eq!(want.neighbors, got.neighbors);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loads_generated_dataset_layout() {
        // The dataset MANIFEST (`<name> <category-tag>`) is a valid index
        // manifest: tags become labels.
        let dir = tmpdir("dataset");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "A00 A\nB00 B\n").unwrap();
        fs::write(dir.join("A00.trace"), "h0 write 64\n").unwrap();
        fs::write(dir.join("B00.trace"), "h0 lseek 0\nh0 read 8\n").unwrap();
        let index = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index.entries()[0].label, "A");
        assert_eq!(index.entries()[1].name, "B00");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_errors_propagate() {
        let dir = tmpdir("badline");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "only-one-field\n").unwrap();
        let err = load_index(&dir, IndexOptions::default()).unwrap_err();
        assert!(matches!(err, CorpusIoError::BadManifest { line: 1 }), "{err}");

        fs::write(dir.join("MANIFEST"), "ghost X\n").unwrap();
        let err = load_index(&dir, IndexOptions::default()).unwrap_err();
        assert!(matches!(err, CorpusIoError::MissingTrace { .. }), "{err}");
        assert!(err.to_string().contains("ghost"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsafe_manifest_names_are_rejected_at_load() {
        // A hand-edited (or malicious) manifest can smuggle names the
        // wire protocol never could — path traversal here. Loading must
        // reject them, not ingest an entry that poisons every later save.
        let dir = tmpdir("evil-manifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "../escape A\n").unwrap();
        fs::write(dir.join("../escape.trace"), "h0 write 64\n").unwrap();
        let err = load_index(&dir, IndexOptions::default()).unwrap_err();
        assert!(matches!(&err, CorpusIoError::BadEntry { field } if field.contains("escape")));
        let _ = fs::remove_file(dir.join("../escape.trace"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_save_leaves_previous_snapshot_bit_for_bit() {
        let dir = tmpdir("fault");
        let index = sample_index(IndexOptions::default());
        let wal = WalManager::open(&dir, 1, Duration::from_micros(500)).unwrap();
        save_index_wal(&index, &dir, Some(&wal)).unwrap();
        let before = dir_bytes(&dir);

        // One more acked ingest, then a directory where the temp file
        // must go: the next save fails with a real IO error.
        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        append_acked(&wal, 2, "extra", "flash", "h0 write 64\n");
        let log = fs::read(wal_log_path(&dir)).unwrap();
        fs::create_dir(dir.join("snapshot.log.tmp")).unwrap();
        let err = save_index_wal(&index, &dir, Some(&wal)).unwrap_err();
        assert!(matches!(err, CorpusIoError::Io(_)), "{err}");

        // The previous snapshot is untouched, bit for bit, the log was
        // not compacted, and together they still hold every entry.
        assert_eq!(dir_bytes(&dir), before);
        assert_eq!(fs::read(wal_log_path(&dir)).unwrap(), log, "compaction skipped");
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(entry_rows(&restored), entry_rows(&index));

        // The failure is visible in the status counters.
        let status = index.snapshot_status();
        assert_eq!(status.errors, 1);
        assert_eq!(status.last_ok, Some(false));
        assert_eq!(status.snapshots, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_temp_file_is_ignored_and_overwritten_by_the_next_save() {
        let dir = tmpdir("stray-tmp");
        let index = sample_index(IndexOptions::default());
        let wal = WalManager::open(&dir, 1, Duration::from_micros(500)).unwrap();
        save_index_wal(&index, &dir, Some(&wal)).unwrap();
        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        append_acked(&wal, 2, "extra", "flash", "h0 write 64\n");

        // A crash mid-save leaves half a temp file beside the good one.
        let tmp = dir.join("snapshot.log.tmp");
        let half = encode_wal_record(&record(0, "torn", "flash", "h0 write 1\n"));
        fs::write(&tmp, &half[..half.len() / 2]).unwrap();
        let recovered = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(entry_rows(&recovered), entry_rows(&index), "good snapshot + replay");

        // The next save writes over the temp file and lands normally.
        save_index_wal(&index, &dir, Some(&wal)).unwrap();
        assert!(!tmp.exists(), "the temp file became the new snapshot");
        assert_eq!(load_index(&dir, IndexOptions::default()).unwrap().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_misnumbered_snapshot_fails_the_load() {
        let dir = tmpdir("corrupt");
        let index = sample_index(IndexOptions::default());
        save_index_wal(&index, &dir, None).unwrap();
        let path = snapshot_path(&dir);
        let good = fs::read(&path).unwrap();

        // A flipped byte in the second record.
        let mut flipped = good.clone();
        let at = good.len() - 3;
        flipped[at] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        let err = load_index(&dir, IndexOptions::default()).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(fs::read(&path).unwrap(), flipped, "a snapshot is never truncated");

        // Cut short.
        fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(load_index(&dir, IndexOptions::default()).is_err());

        // Framed cleanly, but the ids do not run 0..n in order.
        let encoded = |id| encode_wal_record(&record(id, &format!("e{id}"), "A", "h0 write 64\n"));
        for ids in [[1, 0], [0, 2], [0, 0]] {
            fs::write(&path, ids.map(encoded).concat()).unwrap();
            let err = load_index(&dir, IndexOptions::default()).unwrap_err();
            assert!(err.to_string().contains("corrupt"), "{ids:?}: {err}");
        }
        fs::write(&path, [0, 1].map(encoded).concat()).unwrap();
        assert_eq!(load_index(&dir, IndexOptions::default()).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_persist_only_the_contiguous_id_prefix() {
        // A concurrent-ingest id gap (id 2 allocated but not yet
        // inserted while id 3 already is) must not be persisted: on
        // reload the entries would renumber and a later auto-named
        // ingest would reuse an existing `e<id>` name, aliasing two
        // entries.
        let index = sample_index(IndexOptions::default());
        index.ingest("third", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        index.ingest("fourth", "flash", parse_trace("h0 write 32\n").unwrap()).unwrap();
        let mut entries = index.entries();
        assert_eq!(contiguous_prefix(&entries), 4, "dense ids: whole corpus");
        entries.remove(2); // simulate the in-flight gap at id 2
        assert_eq!(contiguous_prefix(&entries), 2, "stop at the first gap");
        assert_eq!(contiguous_prefix(&entries[..0]), 0, "empty corpus");

        // End to end: a gap-free save reports generation == entries and
        // reloads with identical ids (the identity renumbering).
        let dir = tmpdir("prefix");
        let info = save_index_wal(&index, &dir, None).unwrap();
        assert_eq!(info, SnapshotInfo { entries: 4, generation: 4 });
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(entry_rows(&restored), entry_rows(&index));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unswappable_directory_falls_back_to_in_place_saves() {
        // A target whose final component is `..` cannot be renamed — the
        // same failure mode as a mount point or `.`. A snapshot is a file
        // inside the target, so such a directory saves like any other.
        let base = tmpdir("fallback");
        fs::create_dir_all(base.join("sub")).unwrap();
        let target = base.join("sub").join("..");
        let index = sample_index(IndexOptions::default());
        let info = save_index_wal(&index, &target, None).expect("save succeeds");
        assert_eq!(info.entries, 2);
        assert_eq!(index.snapshot_status().last_ok, Some(true));
        // The snapshot landed in `base` and no temp file is left behind.
        assert_eq!(load_index(&base, IndexOptions::default()).unwrap().len(), 2);
        assert!(!base.join("snapshot.log.tmp").exists(), "no temp file left behind");

        // Repeat saves keep working.
        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        save_index_wal(&index, &target, None).expect("second save succeeds");
        assert_eq!(load_index(&base, IndexOptions::default()).unwrap().len(), 3);
        assert!(!base.join("snapshot.log.tmp").exists(), "no temp file left behind");
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn save_to_one_directory_never_masks_a_save_to_another() {
        let dir_a = tmpdir("skip-a");
        let dir_b = tmpdir("skip-b");
        let index = sample_index(IndexOptions::default());
        save_index_wal(&index, &dir_a, None).unwrap();
        // dir_b holds a stale corpus from some earlier run.
        fs::create_dir_all(&dir_b).unwrap();
        fs::write(dir_b.join("MANIFEST"), "stale X\n").unwrap();
        fs::write(dir_b.join("stale.trace"), "h0 write 1\n").unwrap();
        // Same generation, last save ok — but to a *different* directory,
        // so this must save, not skip.
        let info = save_index_if_changed_wal(&index, &dir_b, None).unwrap();
        assert!(info.is_some(), "a save to dir_a must not suppress the save to dir_b");
        assert_eq!(load_index(&dir_b, IndexOptions::default()).unwrap().len(), 2);
        // And now dir_b *is* current, so the skip applies to it.
        assert!(save_index_if_changed_wal(&index, &dir_b, None).unwrap().is_none());
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn save_if_changed_skips_when_generation_is_stable() {
        let dir = tmpdir("skip");
        let index = sample_index(IndexOptions::default());
        let save = |index: &PatternIndex| save_index_if_changed_wal(index, &dir, None).unwrap();
        assert!(save(&index).is_some(), "first save runs");
        assert!(save(&index).is_none(), "unchanged → skipped");
        assert_eq!(index.snapshot_status().snapshots, 1);

        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        let info = save(&index).expect("changed → saved");
        assert_eq!(info.entries, 3);
        assert_eq!(index.snapshot_status().snapshots, 2);

        // A vanished snapshot (operator deleted the dir) is re-created
        // even though the generation is unchanged.
        fs::remove_dir_all(&dir).unwrap();
        assert!(save(&index).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshotter_saves_periodically_and_skips_idle_cycles() {
        let dir = tmpdir("daemon");
        let index = Arc::new(sample_index(IndexOptions::default()));
        let snapshotter = Snapshotter::start_with_wal(
            Arc::clone(&index),
            dir.clone(),
            Duration::from_millis(5),
            None,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while index.snapshot_status().snapshots == 0 {
            assert!(std::time::Instant::now() < deadline, "first periodic snapshot never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Idle: the generation is unchanged, so further cycles skip.
        let after_first = index.snapshot_status().snapshots;
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(index.snapshot_status().snapshots, after_first, "idle cycles are skipped");
        assert_eq!(index.snapshot_status().last_generation, index.generation());

        // New ingest → next cycle saves again.
        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        while index.snapshot_status().snapshots == after_first {
            assert!(std::time::Instant::now() < deadline, "change was never re-snapshotted");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(snapshotter); // stops promptly and joins
        assert_eq!(load_index(&dir, IndexOptions::default()).unwrap().len(), 3);
        assert_eq!(index.snapshot_status().errors, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn record(id: u32, name: &str, label: &str, trace_text: &str) -> WalRecord {
        let (name, label) = (name.to_string(), label.to_string());
        WalRecord { id, name, label, trace: parse_trace(trace_text).unwrap() }
    }

    /// Appends a WAL record exactly as the server would and waits for
    /// the covering group commit.
    fn append_acked(wal: &WalManager, id: u32, name: &str, label: &str, trace_text: &str) {
        let seq = wal.append(&record(id, name, label, trace_text)).unwrap();
        wal.wait_durable(seq).unwrap();
    }

    #[test]
    fn durable_root_recovers_snapshot_plus_wal_replay() {
        let dir = tmpdir("walroot");
        let index = sample_index(IndexOptions::default());
        let wal = WalManager::open(&dir, 2, Duration::from_micros(500)).unwrap();
        append_acked(&wal, 0, "ckpt", "flash", &"h0 write 1048576\n".repeat(8));
        append_acked(&wal, 1, "scan", "posix", &"h0 read 4096\n".repeat(8));

        // Snapshot at generation 2: lands in <dir>/snapshot.log and
        // compacts both records away.
        let info = save_index_wal(&index, &dir, Some(&wal)).unwrap();
        assert_eq!(info, SnapshotInfo { entries: 2, generation: 2 });
        assert_eq!(scan_wal(&fs::read(snapshot_path(&dir)).unwrap()).records.len(), 2);
        assert!(!snapshot_dir(&dir).exists(), "no snapshot directory");
        assert_eq!(fs::read(wal_log_path(&dir)).unwrap(), b"");

        // One more acked ingest after the snapshot — WAL only.
        index.ingest("extra", "flash", parse_trace("h0 write 64\n").unwrap()).unwrap();
        append_acked(&wal, 2, "extra", "flash", "h0 write 64\n");
        drop(wal);

        // Recovery = snapshot + replay; bit-for-bit entry identity.
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(restored.snapshot_status().last_replay_records, 1);
        assert_eq!(entry_rows(&restored), entry_rows(&index));

        // Replay is idempotent: loading again changes nothing.
        let again = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(again.snapshot_status().last_replay_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A root in the layout written before the snapshot file existed: a
    /// corpus directory at `<dir>/snapshot/` plus four shard logs.
    #[test]
    fn legacy_snapshot_directory_root_loads_as_corpus_plus_replay() {
        let dir = tmpdir("legacy-root");
        let texts = ["h0 write 64\n", "h0 read 8\nh0 read 8\n", "h0 lseek 0\nh0 write 4096\n"];
        let legacy = snapshot_dir(&dir);
        fs::create_dir_all(&legacy).unwrap();
        let mut manifest = String::new();
        for (i, text) in texts.iter().enumerate() {
            fs::write(legacy.join(format!("e{i}.trace")), text).unwrap();
            manifest.push_str(&format!("e{i} L{i}\n"));
        }
        fs::write(legacy.join("MANIFEST"), manifest).unwrap();
        // One log per shard, record `id` in shard `id % 4`.
        fs::create_dir_all(wal_dir(&dir)).unwrap();
        for id in 3..7u32 {
            let record = record(id, &format!("e{id}"), "tail", &format!("h0 write {id}\n"));
            let path = wal_dir(&dir).join(format!("shard{}.log", id % 4));
            fs::write(path, encode_wal_record(&record)).unwrap();
        }

        let loaded = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(loaded.len(), 7);
        assert_eq!(loaded.snapshot_status().last_replay_records, 4);
        let rows = entry_rows(&loaded);

        // The daemon's start-up: open the log, establish a snapshot,
        // empty the log and delete the per-shard ones.
        let wal = WalManager::open(&dir, 4, Duration::from_micros(500)).unwrap();
        save_index_wal(&loaded, &dir, Some(&wal)).unwrap();
        wal.truncate_all().unwrap();
        drop(wal);
        let logs: Vec<_> =
            fs::read_dir(wal_dir(&dir)).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(logs, [wal_log_path(&dir)], "only the one log remains");

        // The legacy directory stays but is never read again.
        fs::write(legacy.join("MANIFEST"), "garbage\n").unwrap();
        let reloaded = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(entry_rows(&reloaded), rows);
        assert_eq!(reloaded.snapshot_status().last_replay_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_save_makes_the_snapshot_durable_before_compacting() {
        let dir = tmpdir("order");
        crate::wal::EVENTS.take();
        let wal = WalManager::open(&dir, 2, Duration::from_micros(500)).unwrap();
        // The log's entry, wal/'s, and that of the save root `open`
        // created.
        let fsync = |path: &Path| format!("fsync {}", path.display());
        let parent = dir.parent().unwrap();
        assert_eq!(crate::wal::EVENTS.take(), [fsync(&wal_dir(&dir)), fsync(&dir), fsync(parent)]);

        let index = sample_index(IndexOptions::default());
        append_acked(&wal, 0, "ckpt", "flash", &"h0 write 1048576\n".repeat(8));
        append_acked(&wal, 1, "scan", "posix", &"h0 read 4096\n".repeat(8));
        crate::wal::EVENTS.take();
        save_index_wal(&index, &dir, Some(&wal)).unwrap();

        // Every save path (SAVE, SHUTDOWN, the Snapshotter, the signal
        // monitor, the establishing and exit-path saves) runs this
        // function, so this order holds for all of them.
        let replaced = |path: PathBuf| {
            let tmp = PathBuf::from(format!("{}.tmp", path.display()));
            let dir = path.parent().unwrap().to_path_buf();
            [fsync(&tmp), format!("rename {} -> {}", tmp.display(), path.display()), fsync(&dir)]
        };
        let expected: Vec<String> =
            [replaced(snapshot_path(&dir)), replaced(wal_log_path(&dir))].concat();
        assert_eq!(crate::wal::EVENTS.take(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        use std::io::Write as _;
        let dir = tmpdir("waltear");
        let index = sample_index(IndexOptions::default());
        let wal = WalManager::open(&dir, 1, Duration::from_micros(500)).unwrap();
        save_index_wal(&index, &dir, Some(&wal)).unwrap();
        append_acked(&wal, 2, "extra", "flash", "h0 write 64\n");
        drop(wal);

        // Tear the tail: half of a record the crash interrupted.
        let torn = encode_wal_record(&record(3, "torn", "flash", "h0 write 32\n"));
        let path = wal_log_path(&dir);
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(file);

        // Recovery applies exactly the durable prefix and repairs the file.
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(restored.len(), 3, "acked entry survives, torn one is dropped");
        assert_eq!(restored.snapshot_status().last_replay_records, 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len, "tail truncated in place");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_stops_at_an_id_gap() {
        let dir = tmpdir("walgap");
        let index = sample_index(IndexOptions::default());
        let wal = WalManager::open(&dir, 1, Duration::from_micros(500)).unwrap();
        save_index_wal(&index, &dir, Some(&wal)).unwrap();
        // Record id 2 never made it to disk; id 3 did (possible only in
        // a root whose log is cut short by a failed append, or one written
        // with a log per shard). Nothing at or past the gap was ever
        // acked, so replay must stop.
        append_acked(&wal, 3, "orphan", "flash", "h0 write 64\n");
        drop(wal);
        let restored = load_index(&dir, IndexOptions::default()).unwrap();
        assert_eq!(restored.len(), 2, "the post-gap record is not applied");
        assert_eq!(restored.snapshot_status().last_replay_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
