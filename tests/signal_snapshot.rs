//! Crash-tolerant persistence, end to end against the real `kastio serve`
//! binary: signal-triggered snapshots (`SIGTERM`/`SIGINT`), the `SAVE`
//! verb (including via `kastio query --snapshot`), periodic
//! `--snapshot-every` snapshots surviving a `SIGKILL`, save-failure
//! surfacing (wire `ERR`, STATS counters, non-zero exit), and reloads
//! under a different `--shards` count answering queries identically.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kastio::index::protocol::read_reply;
use kastio::{load_index, IndexOptions};

/// Kills the serve daemon if a test panics before SHUTDOWN. Keeps the
/// stdout pipe open so the daemon's own prints never hit EPIPE.
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

fn start_server(extra_args: &[&str], capture_stderr: bool) -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(if capture_stderr { Stdio::piped() } else { Stdio::null() })
        .spawn()
        .expect("serve starts");
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

fn stat_value(stats: &[String], key: &str) -> u64 {
    stats
        .iter()
        .find_map(|line| line.strip_prefix(&format!("STAT {key} ")))
        .unwrap_or_else(|| panic!("stats reply has {key}: {stats:?}"))
        .parse()
        .expect("stat value is integral")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kastio-sigsnap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

/// A distinct inline trace per id, so entries are distinguishable.
fn wire_trace(i: usize) -> String {
    format!("h0 write {};h0 write {0};h0 read {}", 64 << (i % 8), 32 + i)
}

#[cfg(unix)]
fn send_signal(child: &Child, signal: &str) {
    let status =
        Command::new("kill").args([signal, &child.id().to_string()]).status().expect("kill runs");
    assert!(status.success(), "kill {signal} delivered");
}

#[cfg(unix)]
#[test]
fn sigterm_mid_traffic_snapshots_every_acknowledged_ingest() {
    let dir = tmpdir("sigterm");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap()], false);

    // A writer streams INGESTs; after enough are acknowledged the daemon
    // is SIGTERMed under it. Every *acknowledged* ingest must survive in
    // the snapshot; the writer keeps going until the daemon cuts it off,
    // so the kill genuinely lands mid-traffic.
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
                    if acked == 12 {
                        min_acked_tx.send(()).expect("signal main thread");
                    }
                }
                _ => return acked, // daemon shut the connection: stop counting
            }
        }
    });
    min_acked_rx.recv_timeout(Duration::from_secs(120)).expect("12 ingests acknowledged");
    send_signal(&server.child, "-TERM");
    let acked = writer.join().expect("writer joins");
    let status = server.child.wait().expect("daemon exits");
    assert!(status.success(), "SIGTERM is a clean, successful exit: {status:?}");

    let restored = load_index(&save, IndexOptions::default()).expect("snapshot loads");
    assert!(
        restored.len() >= acked,
        "snapshot holds every acknowledged ingest ({} < {acked})",
        restored.len()
    );
    let names: Vec<String> = restored.entries().iter().map(|e| e.name.clone()).collect();
    for i in 0..acked {
        assert!(names.contains(&format!("e{i}")), "acknowledged e{i} missing from the snapshot");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `SIGKILL` in the middle of a `BATCH INGEST` burst under `--wal`,
/// with exact acked-vs-lost accounting: the client records which batch
/// replies it actually read, and after reload every entry of every
/// *acked* batch must be present while nothing asserts about the batch
/// in flight (it may have partially committed — it was never acked).
#[cfg(unix)]
#[test]
fn sigkill_mid_batch_ingest_burst_keeps_every_acked_batch() {
    let dir = tmpdir("wal-batch-kill");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap(), "--wal"], false);

    const BATCH: usize = 4;
    let addr = server.addr.clone();
    let (min_acked_tx, min_acked_rx) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        let mut conn = Connection::open(&addr);
        let mut acked_batches = 0usize;
        loop {
            let base = acked_batches * BATCH;
            let items: Vec<String> =
                (base..base + BATCH).map(|i| format!("flash {}", wire_trace(i))).collect();
            let request = format!("BATCH INGEST {BATCH}\n{}\n", items.join("\n"));
            match conn.try_roundtrip(&request) {
                Some(reply) if reply[0].starts_with("OK batch=") => {
                    assert_eq!(
                        reply[0],
                        format!("OK batch={BATCH} entries={}", base + BATCH),
                        "batches land in order, so the entry count is exact"
                    );
                    acked_batches += 1;
                    if acked_batches == 6 {
                        min_acked_tx.send(()).expect("signal main thread");
                    }
                }
                _ => return acked_batches, // daemon died under us
            }
        }
    });
    min_acked_rx.recv_timeout(Duration::from_secs(120)).expect("6 batches acknowledged");
    send_signal(&server.child, "-KILL");
    let acked_batches = writer.join().expect("writer joins");
    let _ = server.child.wait();
    assert!(acked_batches >= 6);

    let restored = load_index(&save, IndexOptions::default()).expect("durable root loads");
    let acked_entries = acked_batches * BATCH;
    assert!(
        restored.len() >= acked_entries,
        "every entry of every acked batch survives ({} < {acked_entries})",
        restored.len()
    );
    // The in-flight batch was never acked: anything beyond the acked
    // count is a permitted partial tail, bounded by one batch.
    assert!(
        restored.len() <= acked_entries + BATCH,
        "at most the one unacked batch may appear ({} > {acked_entries} + {BATCH})",
        restored.len()
    );
    let names: Vec<String> = restored.entries().iter().map(|e| e.name.clone()).collect();
    for i in 0..acked_entries {
        assert!(names.contains(&format!("e{i}")), "acked e{i} missing after reload");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
#[test]
fn sigint_without_save_still_shuts_down_cleanly() {
    let mut server = start_server(&[], false);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(0)));
    send_signal(&server.child, "-INT");
    let status = server.child.wait().expect("daemon exits");
    assert!(status.success(), "SIGINT without --save exits cleanly: {status:?}");
}

#[cfg(unix)]
#[test]
fn periodic_snapshots_survive_sigkill() {
    let dir = tmpdir("sigkill");
    let save = dir.join("corpus");
    let mut server =
        start_server(&["--save", save.to_str().unwrap(), "--snapshot-every", "1"], false);
    let mut conn = Connection::open(&server.addr);
    for i in 0..4 {
        conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(i)));
    }
    // Wait until a background snapshot has captured all four entries.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(index) = load_index(&save, IndexOptions::default()) {
            if index.len() == 4 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "periodic snapshot never captured the corpus");
        std::thread::sleep(Duration::from_millis(100));
    }
    // SIGKILL: no handler runs, no final save — only the periodic
    // snapshot stands between the daemon and data loss.
    send_signal(&server.child, "-KILL");
    let _ = server.child.wait();
    let restored = load_index(&save, IndexOptions::default()).expect("snapshot loads");
    assert_eq!(restored.len(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_verb_and_snapshot_client_reload_reproduces_stats() {
    let dir = tmpdir("save-verb");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap(), "--shards", "2"], false);
    let mut conn = Connection::open(&server.addr);
    let items: Vec<String> = (0..5).map(|i| format!("flash {}", wire_trace(i))).collect();
    let reply = conn.roundtrip(&format!("BATCH INGEST 5\n{}\n", items.join("\n")));
    assert_eq!(reply, vec!["OK batch=5 entries=5"]);

    // Snapshot through the CLI client (`kastio query <addr> --snapshot`).
    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["query", &server.addr, "--snapshot"])
        .output()
        .expect("query client runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "OK saved entries=5 generation=5\n",
        "SAVE reports what it wrote"
    );
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "snapshots"), 1);
    assert_eq!(stat_value(&stats, "last_snapshot_ok"), 1);
    assert_eq!(stat_value(&stats, "last_snapshot_generation"), 5);

    // Reload under a *different* shard count: STATS entry counts match
    // and queries answer identically, MATCH line for MATCH line.
    let mut reloaded = start_server(&["--corpus", save.to_str().unwrap(), "--shards", "3"], false);
    let mut conn2 = Connection::open(&reloaded.addr);
    let stats2 = conn2.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats2, "entries"), 5, "reload reproduces the entry count");
    assert_eq!(stat_value(&stats2, "shards"), 3);
    let shard_sum: u64 = (0..3).map(|i| stat_value(&stats2, &format!("shard{i}_entries"))).sum();
    assert_eq!(shard_sum, 5);
    for probe in 0..3 {
        let request = format!("QUERY k=3 {}\n", wire_trace(probe));
        let a = conn.roundtrip(&request);
        let b = conn2.roundtrip(&request);
        assert_eq!(a, b, "probe {probe}: shard count must not change query results");
    }

    conn.roundtrip("SHUTDOWN\n");
    conn2.roundtrip("SHUTDOWN\n");
    // Wait for both daemons to fully exit before removing the corpus:
    // the --save daemon's exit path touches the snapshot directory.
    server.child.wait().expect("first daemon exits");
    reloaded.child.wait().expect("second daemon exits");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_saves_are_loud_wire_err_stats_counters_nonzero_exit() {
    // /dev/null is a file, so creating the snapshot directory under it
    // fails with a real IO error even when the tests run as root.
    let mut server = start_server(&["--save", "/dev/null/corpus"], true);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip(&format!("INGEST flash {}\n", wire_trace(0)));

    let reply = conn.roundtrip("SAVE\n");
    assert!(reply[0].starts_with("ERR save failed:"), "{reply:?}");

    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "snapshot_errors"), 1);
    assert_eq!(stat_value(&stats, "last_snapshot_ok"), 0);
    assert_eq!(stat_value(&stats, "snapshots"), 0);

    // The client that requests the shutdown sees the failure too…
    let bye = conn.roundtrip("SHUTDOWN\n");
    assert!(bye[0].starts_with("ERR save failed:"), "{bye:?}");
    assert!(bye[0].contains("shutting down anyway"), "{bye:?}");

    // …and the daemon's exit path makes it unmissable: non-zero exit
    // with the save error on stderr.
    let status = server.child.wait().expect("daemon exits");
    assert!(!status.success(), "a failed final save must not exit 0");
    let mut stderr = String::new();
    use std::io::Read;
    server
        .child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    assert!(stderr.contains("failed to save"), "stderr names the save failure:\n{stderr}");
}

#[test]
fn snapshot_client_against_a_saveless_daemon_is_a_clean_error() {
    let server = start_server(&[], false);
    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["query", &server.addr, "--snapshot"])
        .output()
        .expect("query client runs");
    assert!(!out.status.success(), "ERR reply makes the client exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("ERR no save directory"), "{stdout}");
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("SHUTDOWN\n");
}

#[test]
fn snapshot_every_without_save_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0", "--snapshot-every", "5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--snapshot-every needs --save"), "{stderr}");
}

/// The library-level regression for ingest validation, exercised through
/// the same public API the daemon uses (wire labels are structurally
/// whitespace-free, so the daemon itself can no longer produce an
/// unsaveable corpus — this pins the library hole shut too).
#[test]
fn unpersistable_ingests_are_rejected_up_front() {
    use kastio::{parse_trace, IngestError, PatternIndex};
    let index = PatternIndex::new(IndexOptions::default());
    let trace = parse_trace("h0 write 64\n").unwrap();
    let err = index.ingest("bad name", "flash", trace.clone()).unwrap_err();
    assert!(matches!(err, IngestError::InvalidName(_)), "{err}");
    let err = index.ingest("ok", "two words", trace.clone()).unwrap_err();
    assert!(matches!(err, IngestError::InvalidLabel(_)), "{err}");
    let err = index.ingest("ok", "line\nbreak", trace.clone()).unwrap_err();
    assert!(matches!(err, IngestError::InvalidLabel(_)), "{err}");
    assert_eq!(index.len(), 0, "nothing was ingested");
    assert_eq!(index.generation(), 0, "rejected ingests do not bump the generation");

    // A valid corpus built afterwards still saves fine — one earlier
    // rejection never poisons the save path.
    index.ingest("ok", "flash", trace).unwrap();
    let dir = tmpdir("validate");
    let save = dir.join("corpus");
    kastio::save_index_wal(&index, &save, None).expect("corpus with only valid entries saves");
    assert_eq!(load_index(&save, IndexOptions::default()).unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Belt-and-braces for the wire: labels reach the daemon through
/// whitespace splitting, so even adversarial byte sequences around the
/// label position either parse into a (valid, whitespace-free) label or
/// fail cleanly — and a subsequent SAVE always succeeds.
#[test]
fn wire_ingests_can_never_poison_the_snapshot() {
    let dir = tmpdir("wire-labels");
    let save = dir.join("corpus");
    let mut server = start_server(&["--save", save.to_str().unwrap()], false);
    let mut conn = Connection::open(&server.addr);
    // Odd-but-legal labels (path-y, dotted, unicode) and malformed lines.
    for request in [
        "INGEST a/b.c h0 write 64\n",
        "INGEST ..dots h0 write 64\n",
        "INGEST héllo-wörld h0 write 64\n",
        "INGEST \u{a0}nbsp-separated h0 write 64\n", // NBSP *is* whitespace: splits there
    ] {
        let reply = conn.roundtrip(request);
        assert!(
            reply[0].starts_with("OK id=") || reply[0].starts_with("ERR"),
            "{request:?} → {reply:?}"
        );
    }
    let reply = conn.roundtrip("SAVE\n");
    assert!(reply[0].starts_with("OK saved entries="), "every accepted label saves: {reply:?}");
    let restored = load_index(&save, IndexOptions::default()).expect("snapshot loads");
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(restored.len() as u64, stat_value(&stats, "entries"), "lossless round trip");
    conn.roundtrip("SHUTDOWN\n");
    server.child.wait().expect("daemon exits before the corpus is removed");
    std::fs::remove_dir_all(&dir).unwrap();
}
