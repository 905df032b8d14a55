//! The durability contract, proven against the real `kastio serve`
//! binary: **no acked `INGEST` is ever lost**. A `--save` daemon fsyncs
//! every acknowledged ingest to its log before the `OK` reply, so these tests
//! kill the daemon — `kill -9` mid-stream, right after a small ingest is
//! acked while a large one is still being prepared, or `abort()` at
//! injected crash points (`KASTIO_CRASH_POINT`, see `kastio_index::fault`)
//! — and assert that reload (= last good snapshot + WAL replay) recovers
//! every acked entry bit-for-bit, that a torn WAL tail truncates cleanly,
//! and that replay is idempotent across double reloads.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use kastio::index::protocol::{decode_trace_inline, read_reply};
use kastio::trace::wal::{scan_wal, wal_dir, wal_log_path};
use kastio::{load_index, write_trace, IndexOptions, PatternIndex};

/// Kills the serve daemon if a test panics before its planned death.
struct ServerGuard {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `kastio serve --port 0 <extra_args>` with the given extra
/// environment (the crash-point injection variables) and waits for its
/// `listening on` announcement.
fn start_server(extra_args: &[&str], envs: &[(&str, &str)]) -> ServerGuard {
    let mut command = Command::new(env!("CARGO_BIN_EXE_kastio"));
    command
        .args(["serve", "--port", "0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (key, value) in envs {
        command.env(key, value);
    }
    let mut child = command.spawn().expect("serve starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("serve announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_string();
    ServerGuard { child, addr, _stdout: stdout }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Connection {
        let stream = TcpStream::connect(addr).expect("client connects");
        Connection { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    /// Sends a request and collects the framed reply; `None` once the
    /// server has gone away mid-exchange.
    fn try_roundtrip(&mut self, request: &str) -> Option<Vec<String>> {
        self.writer.write_all(request.as_bytes()).ok()?;
        self.writer.flush().ok()?;
        let reply = read_reply(&mut self.reader).ok()?;
        Some(reply.lines().map(str::to_string).collect())
    }

    fn roundtrip(&mut self, request: &str) -> Vec<String> {
        self.try_roundtrip(request).expect("server replied")
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kastio-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

/// A distinct inline trace per id, so recovered entries are provably the
/// ones that were acked (not merely the right count).
fn wire_trace(i: usize) -> String {
    format!("h0 write {};h0 read {};h0 write {}", 64 << (i % 8), 32 + i, 7 + i * 3)
}

/// Asserts entry `e<i>` of the reloaded index is bit-for-bit the ingest
/// that was acked: same name, same label, same serialized trace text.
fn assert_recovered(index: &PatternIndex, i: usize, label: &str) {
    let entries = index.entries();
    let entry = entries
        .iter()
        .find(|e| e.name == format!("e{i}"))
        .unwrap_or_else(|| panic!("acked e{i} missing after reload"));
    assert_eq!(entry.label, label, "e{i} label survives");
    let expected = decode_trace_inline(&wire_trace(i)).expect("test trace decodes");
    assert_eq!(
        write_trace(&entry.trace),
        write_trace(&expected),
        "e{i} trace bytes survive exactly"
    );
}

/// Total WAL bytes on disk under the durable root.
fn wal_bytes_on_disk(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(wal_dir(dir)) else { return 0 };
    entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
}

#[cfg(unix)]
fn send_signal(child: &Child, signal: &str) {
    let status =
        Command::new("kill").args([signal, &child.id().to_string()]).status().expect("kill runs");
    assert!(status.success(), "kill {signal} delivered");
}

/// `kill -9` a live server mid-ingest-stream: every entry whose `OK` the
/// client read must survive reload — there is no snapshot at all here
/// (no `--snapshot-every`, no SAVE), so recovery is pure WAL replay over
/// the empty establishing snapshot.
#[cfg(unix)]
#[test]
fn sigkill_mid_ingest_stream_loses_no_acked_entry() {
    let dir = tmpdir("sigkill");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap()], &[]);

    let addr = server.addr.clone();
    let (min_acked_tx, min_acked_rx) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        let mut conn = Connection::open(&addr);
        let mut acked = 0usize;
        loop {
            let request = format!("INGEST flash {}\n", wire_trace(acked));
            match conn.try_roundtrip(&request) {
                Some(reply) if reply[0].starts_with("OK id=") => {
                    assert_eq!(
                        reply[0],
                        format!("OK id={acked} name=e{acked} entries={}", acked + 1)
                    );
                    acked += 1;
                    if acked == 16 {
                        min_acked_tx.send(()).expect("signal main thread");
                    }
                }
                _ => return acked, // daemon died under us: stop counting
            }
        }
    });
    min_acked_rx.recv_timeout(Duration::from_secs(120)).expect("16 ingests acknowledged");
    // SIGKILL: no handler, no final save, no flush — only the
    // ack-after-fsync ordering stands between the daemon and data loss.
    send_signal(&server.child, "-KILL");
    let acked = writer.join().expect("writer joins");
    let _ = server.child.wait();
    assert!(acked >= 16);

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert!(
        restored.len() >= acked,
        "reload holds every acked ingest ({} < {acked})",
        restored.len()
    );
    for i in 0..acked {
        assert_recovered(&restored, i, "flash");
    }
    assert_eq!(
        restored.snapshot_status().last_replay_records,
        restored.len() as u64,
        "with no snapshot since the (empty) establishing one, every entry came from WAL replay"
    );

    // Reload is idempotent: a second recovery sees the same corpus.
    let again = load_index(&save, IndexOptions::default()).expect("second reload");
    assert_eq!(again.len(), restored.len());

    // And a restarted daemon picks the corpus up and keeps serving.
    let mut reborn =
        start_server(&["--corpus", save.to_str().unwrap(), "--save", save.to_str().unwrap()], &[]);
    let mut conn = Connection::open(&reborn.addr);
    let next = restored.len();
    let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(next)));
    assert_eq!(reply[0], format!("OK id={next} name=e{next} entries={}", next + 1));
    conn.roundtrip("SHUTDOWN\n");
    reborn.child.wait().expect("restarted daemon exits");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A restart with `--save R` alone resumes R: the daemon loads the
/// durable root before its establishing snapshot, rather than saving an
/// empty corpus over it and emptying the log. `--corpus` is only needed
/// to import from another directory.
#[cfg(unix)]
#[test]
fn restart_with_save_alone_resumes_the_durable_root() {
    let dir = tmpdir("resume");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap()], &[]);
    let mut conn = Connection::open(&server.addr);
    for i in 0..3 {
        let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(i)));
        assert_eq!(reply[0], format!("OK id={i} name=e{i} entries={}", i + 1));
    }
    send_signal(&server.child, "-KILL");
    let _ = server.child.wait();

    let mut reborn = start_server(&["--save", save.to_str().unwrap()], &[]);
    let mut conn = Connection::open(&reborn.addr);
    let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(3)));
    assert_eq!(reply[0], "OK id=3 name=e3 entries=4", "the restart resumed e0..e2");
    conn.roundtrip("SHUTDOWN\n");
    assert!(reborn.child.wait().expect("restarted daemon exits").success());

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert_eq!(restored.len(), 4);
    for i in 0..4 {
        assert_recovered(&restored, i, "flash");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An `INGEST` of `ops` pseudo-random operations, about 15 bytes each on
/// the wire. Its self-kernel is quadratic in the trace, so preparing it
/// keeps one worker busy for a long time: at 8,000 ops, about 0.8 s in
/// the debug build these tests run (on a 2-vCPU x86-64 VM).
fn slow_ingest_line(ops: usize) -> String {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let kinds = ["read", "write", "lseek"];
    let body: Vec<String> = (0..ops)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            format!("h{} {} {}", state % 4, kinds[(state >> 8) as usize % 3], (state >> 16) % 65536)
        })
        .collect();
    format!("INGEST slow {}\n", body.join(";"))
}

/// Whether a reply has arrived on `conn`, without consuming it.
fn has_replied(conn: &Connection) -> bool {
    conn.writer.set_nonblocking(true).expect("nonblocking");
    let replied = match conn.writer.peek(&mut [0u8; 1]) {
        Ok(_) => true,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(e) => panic!("peek failed: {e}"),
    };
    conn.writer.set_nonblocking(false).expect("blocking");
    replied
}

/// The lost-ack race. Connection A sends a slow 8,000-op `INGEST`; about
/// 50 ms later connection B sends `small_request`, whose items are the
/// `(label, inline trace)` pairs in `small_items`. B is acked while A is
/// still being prepared; the daemon is then killed. Every acked item of
/// B must reload with its exact trace, which holds only if an ingest
/// takes its id when its record is logged: replay stops at the first id
/// gap, so an ack at an id past an unlogged one is lost. The log must be
/// the one file `wal/shard0.log`, its records in id order.
#[cfg(unix)]
fn small_ack_during_a_slow_ingest_survives_sigkill(
    tag: &str,
    small_request: &str,
    small_items: &[(&str, &str)],
) {
    let dir = tmpdir(tag);
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap()], &[]);
    let mut slow = Connection::open(&server.addr);
    slow.writer.write_all(slow_ingest_line(8_000).as_bytes()).expect("slow INGEST sent");
    slow.writer.flush().expect("slow INGEST flushed");
    std::thread::sleep(Duration::from_millis(50));

    let mut fast = Connection::open(&server.addr);
    let reply = fast.roundtrip(small_request);
    assert!(reply[0].starts_with("OK "), "the small request is acked: {reply:?}");
    assert!(!has_replied(&slow), "the slow INGEST was still pending when {reply:?} arrived");
    send_signal(&server.child, "-KILL");
    let _ = server.child.wait();

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    let entries = restored.entries();
    for (label, wire) in small_items {
        let expected = write_trace(&decode_trace_inline(wire).expect("test trace decodes"));
        assert!(
            entries.iter().any(|e| e.label == *label && write_trace(&e.trace) == expected),
            "acked item {label} (reply {reply:?}) lost after SIGKILL: the reload has {} entries",
            entries.len()
        );
    }
    let logs: Vec<PathBuf> =
        std::fs::read_dir(wal_dir(&save)).expect("wal dir").map(|e| e.unwrap().path()).collect();
    assert_eq!(logs, [wal_log_path(&save)], "one log file");
    let log = scan_wal(&std::fs::read(wal_log_path(&save)).unwrap());
    let ids: Vec<u32> = log.records.iter().map(|r| r.id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "log order is id order: {ids:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
#[test]
fn small_ingest_acked_during_a_slow_one_survives_sigkill() {
    let wire = "h0 write 4096;h0 read 512;h0 write 8";
    small_ack_during_a_slow_ingest_survives_sigkill(
        "race-ingest",
        &format!("INGEST quick {wire}\n"),
        &[("quick", wire)],
    );
}

#[cfg(unix)]
#[test]
fn small_batch_acked_during_a_slow_ingest_survives_sigkill() {
    let (first, second) = ("h0 write 64;h0 read 32", "h0 lseek 0;h0 write 1024;h0 write 7");
    small_ack_during_a_slow_ingest_survives_sigkill(
        "race-batch",
        &format!("BATCH INGEST 2\nquick0 {first}\nquick1 {second}\n"),
        &[("quick0", first), ("quick1", second)],
    );
}

/// Crash point `after-ack-before-fsync`: the server aborts the instant
/// an ingest `OK` has left the socket. The name is a misnomer the test
/// exists to prove: the fsync happened *before* the
/// ack, so the acked entry must already be durable.
#[test]
fn abort_right_after_the_ack_finds_the_record_already_durable() {
    let dir = tmpdir("after-ack");
    let save = dir.join("corpus");
    let mut server = start_server(
        &["--save", save.to_str().unwrap()],
        &[("KASTIO_CRASH_POINT", "after-ack-before-fsync")],
    );
    let mut conn = Connection::open(&server.addr);
    let reply = conn.roundtrip(&format!("INGEST burst {}\n", wire_trace(0)));
    assert_eq!(reply[0], "OK id=0 name=e0 entries=1");

    let status = server.child.wait().expect("daemon aborts at the crash point");
    assert!(!status.success(), "the injected abort() is not a clean exit");

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert_eq!(restored.len(), 1, "the acked ingest survived the post-ack abort");
    assert_recovered(&restored, 0, "burst");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash point `mid-record`: the appender aborts with *half a record
/// physically fsync'd* to the log. The acked prefix must reload
/// exactly; the torn tail must be truncated, not parsed and not fatal.
#[test]
fn abort_mid_record_leaves_a_torn_tail_that_recovery_truncates() {
    let dir = tmpdir("mid-record");
    let save = dir.join("corpus");
    // Skip the first 3 hits: ingests 1-3 complete (and are acked), the
    // 4th append aborts halfway through its own record.
    let mut server = start_server(
        &["--save", save.to_str().unwrap()],
        &[("KASTIO_CRASH_POINT", "mid-record"), ("KASTIO_CRASH_SKIP", "3")],
    );
    let mut conn = Connection::open(&server.addr);
    for i in 0..3 {
        let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(i)));
        assert_eq!(reply[0], format!("OK id={i} name=e{i} entries={}", i + 1));
    }
    let fourth = conn.try_roundtrip(&format!("INGEST flash {}\n", wire_trace(3)));
    assert!(fourth.is_none(), "the 4th ingest dies mid-append, unacked: {fourth:?}");
    let status = server.child.wait().expect("daemon aborts at the crash point");
    assert!(!status.success());

    let torn_bytes = wal_bytes_on_disk(&save);
    let restored = load_index(&save, IndexOptions::default()).expect("torn tail is not fatal");
    assert_eq!(restored.len(), 3, "exactly the acked prefix reloads");
    for i in 0..3 {
        assert_recovered(&restored, i, "flash");
    }
    assert!(restored.entries().iter().all(|e| e.name != "e3"), "no partial record is ever applied");

    // Recovery truncated the torn tail in place: the log shrank, and
    // what remains scans clean.
    let clean_bytes = wal_bytes_on_disk(&save);
    assert!(clean_bytes < torn_bytes, "torn tail truncated ({clean_bytes} !< {torn_bytes})");
    for entry in std::fs::read_dir(wal_dir(&save)).expect("wal dir") {
        let scan = scan_wal(&std::fs::read(entry.unwrap().path()).unwrap());
        assert!(!scan.truncated, "post-recovery logs have no torn tail");
    }
    assert_eq!(load_index(&save, IndexOptions::default()).unwrap().len(), 3, "reload idempotent");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash point `after-snapshot-rename-before-truncate`: the daemon dies
/// after the snapshot became the truth but before the WAL was compacted
/// — the one window where snapshot and log both hold the same entries.
/// Replay must be idempotent: apply nothing, lose nothing, double count
/// nothing.
#[test]
fn abort_between_snapshot_rename_and_wal_truncate_replays_idempotently() {
    let dir = tmpdir("post-rename");
    let save = dir.join("corpus");
    // Skip hit 0: the establishing snapshot at startup crosses the same
    // crash point. Hit 1 is the SAVE this test provokes.
    let mut server = start_server(
        &["--save", save.to_str().unwrap()],
        &[
            ("KASTIO_CRASH_POINT", "after-snapshot-rename-before-truncate"),
            ("KASTIO_CRASH_SKIP", "1"),
        ],
    );
    let mut conn = Connection::open(&server.addr);
    for i in 0..5 {
        let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(i)));
        assert_eq!(reply[0], format!("OK id={i} name=e{i} entries={}", i + 1));
    }
    let save_reply = conn.try_roundtrip("SAVE\n");
    assert!(save_reply.is_none(), "SAVE dies after the rename, unacked: {save_reply:?}");
    let status = server.child.wait().expect("daemon aborts at the crash point");
    assert!(!status.success());

    // Both the snapshot and the uncompacted WAL now hold e0..e4.
    assert!(wal_bytes_on_disk(&save) > 0, "the WAL was not compacted before the abort");
    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert_eq!(restored.len(), 5, "snapshot + overlapping WAL never double-applies");
    for i in 0..5 {
        assert_recovered(&restored, i, "flash");
    }
    assert_eq!(
        restored.snapshot_status().last_replay_records,
        0,
        "every WAL record was already in the snapshot: replay applies none"
    );
    assert_eq!(load_index(&save, IndexOptions::default()).unwrap().len(), 5, "reload idempotent");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The establish sequence: starting a `--save` daemon folds a `--corpus`
/// preload into a fresh snapshot and empties the logs before serving, so
/// stale records from a previous incarnation can never alias the ids the
/// new run assigns.
#[test]
fn startup_establishes_a_snapshot_and_resets_the_wal() {
    let dir = tmpdir("establish");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap(), "--wal"], &[]);
    let mut conn = Connection::open(&server.addr);
    for i in 0..4 {
        conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(i)));
    }
    conn.roundtrip("SHUTDOWN\n");
    assert!(server.child.wait().expect("daemon exits").success());

    // Restart over the same durable root. The shutdown snapshot holds
    // e0..e3; the establishing save + truncate must leave the WAL empty.
    let mut reborn = start_server(
        &["--corpus", save.to_str().unwrap(), "--save", save.to_str().unwrap(), "--wal"],
        &[],
    );
    assert_eq!(wal_bytes_on_disk(&save), 0, "startup neutralised the old logs");
    let mut conn = Connection::open(&reborn.addr);
    let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(4)));
    assert_eq!(reply[0], "OK id=4 name=e4 entries=5", "ids continue past the recovered corpus");
    let stats = conn.roundtrip("STATS\n");
    let wal_records: u64 = stats
        .iter()
        .find_map(|l| l.strip_prefix("STAT wal_records "))
        .expect("STATS exposes wal_records")
        .parse()
        .unwrap();
    assert_eq!(wal_records, 1, "exactly the post-establish ingest is in the new log");
    conn.roundtrip("SHUTDOWN\n");
    reborn.child.wait().expect("daemon exits");

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert_eq!(restored.len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Memory pressure and durability compose: drive a `--max-memory-bytes`
/// daemon until it sheds, then `kill -9` it. Every `OK`-acked ingest
/// must reload; every `ERR busy` shed must have left no entry and no id
/// gap (a gap would make WAL replay drop the records past it).
#[cfg(unix)]
#[test]
fn sigkill_under_memory_pressure_loses_no_acked_entry() {
    let dir = tmpdir("sigkill-pressure");
    let save = dir.join("corpus");
    let mut server =
        start_server(&["--save", save.to_str().unwrap(), "--max-memory-bytes", "8192"], &[]);
    let mut conn = Connection::open(&server.addr);
    let (mut acked, mut sheds) = (0usize, 0usize);
    while sheds < 4 {
        let reply = conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(acked)));
        if reply[0].starts_with("OK id=") {
            assert_eq!(
                reply[0],
                format!("OK id={acked} name=e{acked} entries={}", acked + 1),
                "sheds leave no id gap"
            );
            acked += 1;
        } else {
            assert_eq!(reply[0], "ERR busy reason=memory", "the only failure mode is the shed");
            sheds += 1;
        }
        assert!(acked + sheds < 1000, "an 8 KiB budget never filled");
    }
    assert!(acked > 0, "some ingests fit the budget before it filled");
    send_signal(&server.child, "-KILL");
    let _ = server.child.wait();

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    assert_eq!(restored.len(), acked, "exactly the acked ingests reload — no shed leaked in");
    for i in 0..acked {
        assert_recovered(&restored, i, "flash");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--wal` without `--save` has no durable root to log under.
#[test]
fn wal_without_save_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0", "--wal"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--wal needs --save"), "{stderr}");
}
