//! End-to-end test of the `kastio serve` daemon and `kastio query` client:
//! a server on an ephemeral port, an IOR/FLASH-style corpus ingested over
//! the wire, and the acceptance contract that indexed k-NN answers are
//! bit-identical to direct `KastKernel::normalized` evaluations while the
//! prefilter keeps the kernel off most of the corpus.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use kastio::index::protocol::{encode_trace_inline, read_reply};
use kastio::workloads::generators::{flash_io, random_posix, FlashIoParams, RandomPosixParams};
use kastio::{
    pattern_string, ByteMode, KastKernel, KastOptions, StringKernel, TokenInterner, Trace,
};

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

fn start_server(extra_args: &[&str]) -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
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

/// The labelled corpus: FLASH-IO checkpoint writers of growing size and
/// random-POSIX readers of growing length, so every entry is distinct and
/// the two families have clearly different scalar signatures.
fn corpus() -> Vec<(String, Trace)> {
    let mut entries = Vec::new();
    for i in 0..6 {
        let trace = flash_io(&FlashIoParams {
            files: 2 + i % 3,
            blocks: 10 + 4 * i,
            ..FlashIoParams::default()
        });
        entries.push(("flash".to_string(), trace));
    }
    for i in 0..6 {
        let trace = random_posix(
            &RandomPosixParams {
                write_iterations: 8 + 4 * i,
                read_iterations: 8 + 4 * i,
                ..RandomPosixParams::default()
            },
            41 + i as u64,
        );
        entries.push(("posix".to_string(), trace));
    }
    entries
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

    fn send(&mut self, request: &str) {
        self.writer.write_all(request.as_bytes()).expect("request sent");
        self.writer.flush().expect("request flushed");
    }

    /// Sends a request and collects the (single- or multi-line) reply.
    fn roundtrip(&mut self, request: &str) -> Vec<String> {
        self.send(request);
        let reply = read_reply(&mut self.reader).expect("reply read");
        reply.lines().map(str::to_string).collect()
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

#[test]
fn serve_query_roundtrip_is_bit_identical_and_prefiltered() {
    // Budget: max(--candidates 4, k·4) with k=2 → 8 of 12 entries scored.
    let server = start_server(&["--candidates", "4"]);
    let corpus = corpus();
    let mut conn = Connection::open(&server.addr);

    for (i, (label, trace)) in corpus.iter().enumerate() {
        let reply = conn.roundtrip(&format!("INGEST {label} {}\n", encode_trace_inline(trace)));
        assert_eq!(reply, vec![format!("OK id={i} name=e{i} entries={}", i + 1)]);
    }

    // Query with an exact copy of corpus entry e2 (a flash writer). Its
    // signature distance to e2 is exactly 0, so the flash family tops the
    // prefilter ranking. Note the *kernel* argmax need not be e2 itself:
    // the Kast feature space is pair-dependent, so cosine-normalised
    // similarity of a repetitive sibling can legitimately exceed 1 (see
    // the `StringKernel::normalized` docs) — the ground truth below is
    // the direct evaluation, not the identity pair.
    let query_trace = corpus[2].1.clone();
    let reply = conn.roundtrip(&format!("QUERY k=2 {}\n", encode_trace_inline(&query_trace)));
    assert_eq!(reply[0], "OK matches=2 label=flash", "reply: {reply:?}");
    assert_eq!(reply.len(), 4, "two MATCH lines plus END: {reply:?}");

    // Direct evaluation: one shared interner over corpus + query, the same
    // kernel configuration the server defaults to.
    let mut interner = TokenInterner::new();
    let strings: Vec<_> = corpus
        .iter()
        .map(|(_, trace)| interner.intern_string(&pattern_string(trace, ByteMode::Preserve)))
        .collect();
    let query = interner.intern_string(&pattern_string(&query_trace, ByteMode::Preserve));
    let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
    let direct: Vec<f64> = strings.iter().map(|s| kernel.normalized(&query, s)).collect();
    let direct_best =
        (0..direct.len()).max_by(|&a, &b| direct[a].partial_cmp(&direct[b]).unwrap()).unwrap();

    for (rank, line) in reply[1..reply.len() - 1].iter().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[0], "MATCH");
        assert_eq!(fields[1], (rank + 1).to_string());
        let entry: usize = fields[2].strip_prefix('e').expect("server names").parse().unwrap();
        let similarity: f64 = fields[4].parse().expect("similarity parses");
        assert_eq!(
            similarity.to_bits(),
            direct[entry].to_bits(),
            "e{entry}: served similarity must be bit-identical to direct evaluation \
             ({similarity} vs {})",
            direct[entry]
        );
    }
    let top: Vec<&str> = reply[1].split_whitespace().collect();
    assert_eq!(
        top[2],
        format!("e{direct_best}"),
        "served nearest neighbour is the direct-evaluation argmax"
    );
    assert_eq!(top[3], "flash");

    // The prefilter kept the kernel off a third of the corpus.
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "entries"), 12);
    assert_eq!(stat_value(&stats, "queries"), 1);
    assert_eq!(stat_value(&stats, "kernel_evals"), 8, "budget of 8 candidates evaluated");
    assert_eq!(stat_value(&stats, "prefilter_pruned"), 4, "4 of 12 never reached the kernel");
    assert_eq!(stat_value(&stats, "ingest_evals"), 12);

    // Same query again: answered entirely from the query memo.
    let cached = conn.roundtrip(&format!("QUERY k=2 {}\n", encode_trace_inline(&query_trace)));
    assert_eq!(cached, reply, "cached reply is identical");
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "kernel_evals"), 8, "no new kernel work");
    assert_eq!(stat_value(&stats, "cache_hits"), 8);

    let bye = conn.roundtrip("SHUTDOWN\n");
    assert_eq!(bye, vec!["OK bye"]);
}

#[test]
fn query_client_subcommand_roundtrips() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);
    let corpus = corpus();
    for (label, trace) in &corpus {
        conn.roundtrip(&format!("INGEST {label} {}\n", encode_trace_inline(trace)));
    }

    let dir = std::env::temp_dir().join(format!("kastio-query-client-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_file = dir.join("q.trace");
    std::fs::write(&trace_file, kastio::write_trace(&corpus[0].1)).unwrap();

    // No --candidates flag: the default budget covers the whole corpus,
    // so the client's top match is the global direct-evaluation argmax.
    let mut interner = TokenInterner::new();
    let strings: Vec<_> = corpus
        .iter()
        .map(|(_, trace)| interner.intern_string(&pattern_string(trace, ByteMode::Preserve)))
        .collect();
    let query = interner.intern_string(&pattern_string(&corpus[0].1, ByteMode::Preserve));
    let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
    let direct_best = (0..strings.len())
        .max_by(|&a, &b| {
            kernel
                .normalized(&query, &strings[a])
                .partial_cmp(&kernel.normalized(&query, &strings[b]))
                .unwrap()
        })
        .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["query", &server.addr, trace_file.to_str().unwrap(), "--k", "3"])
        .output()
        .expect("query client runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("OK matches=3 label=flash"), "{stdout}");
    assert!(stdout.contains(&format!("MATCH 1 e{direct_best} flash ")), "{stdout}");
    assert!(stdout.trim_end().ends_with("END"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["query", &server.addr, "--stats"])
        .output()
        .expect("stats client runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("STAT entries 12"), "{stdout}");

    conn.roundtrip("SHUTDOWN\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_persists_corpus_on_shutdown_and_reloads_it() {
    let dir = std::env::temp_dir().join(format!("kastio-serve-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let save_dir = dir.join("corpus");

    let mut server = start_server(&["--save", save_dir.to_str().unwrap()]);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("INGEST flash h0 open 0;h0 write 64;h0 write 64;h0 close 0\n");
    conn.roundtrip("INGEST posix h0 lseek 0;h0 read 8;h0 lseek 0;h0 read 8\n");
    // The save happens *before* the reply, and the reply reports it.
    let bye = conn.roundtrip("SHUTDOWN\n");
    assert_eq!(bye, vec!["OK bye saved=2 generation=2"]);
    let status = server.child.wait().expect("server exits");
    assert!(status.success());

    assert!(save_dir.join("snapshot.log").exists());

    // A second server preloads the saved corpus.
    let server = start_server(&["--corpus", save_dir.to_str().unwrap()]);
    let mut conn = Connection::open(&server.addr);
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "entries"), 2);
    assert_eq!(stat_value(&stats, "generation"), 2, "the reload replays both ingests");
    let reply = conn.roundtrip("QUERY k=1 h0 open 0;h0 write 64;h0 write 64;h0 close 0\n");
    assert_eq!(reply[0], "OK matches=1 label=flash");
    conn.roundtrip("SHUTDOWN\n");
    std::fs::remove_dir_all(&dir).unwrap();
}
