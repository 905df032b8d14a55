//! Concurrent serving: one writer client keeps ingesting while several
//! reader clients query the daemon. Every reply must stay well-formed,
//! every similarity bit-identical to a direct `KastKernel::normalized`
//! evaluation of the same (query, entry) pair, and STATS must count the
//! whole corpus.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use kastio::index::protocol::{encode_trace_inline, read_reply};
use kastio::workloads::generators::{flash_io, random_posix, FlashIoParams, RandomPosixParams};
use kastio::{
    pattern_string, ByteMode, IdString, KastKernel, KastOptions, StringKernel, TokenInterner, Trace,
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

fn start_server() -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0"])
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

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Connection {
        let stream = TcpStream::connect(addr).expect("client connects");
        Connection { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    /// Sends a request (newline-terminated by the caller) and collects
    /// the single framed reply.
    fn roundtrip(&mut self, request: &str) -> Vec<String> {
        self.writer.write_all(request.as_bytes()).expect("request sent");
        self.writer.flush().expect("request flushed");
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

/// The 12 preloaded entries (`e0`…`e11`): two workload families so the
/// prefilter and the majority vote both have structure to find.
fn initial_corpus() -> Vec<(String, Trace)> {
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

/// The 8 entries the writer ingests during the concurrent phase
/// (`e12`…`e19`, in order — the writer is the only ingesting client).
fn writer_corpus() -> Vec<(String, Trace)> {
    (0..8)
        .map(|i| {
            let trace = flash_io(&FlashIoParams {
                files: 4,
                blocks: 40 + 2 * i,
                ..FlashIoParams::default()
            });
            ("flash".to_string(), trace)
        })
        .collect()
}

#[test]
fn sharded_daemon_serves_concurrent_readers_under_writer_load() {
    let server = start_server();

    // Preload via BATCH INGEST: one header, 12 item lines, one reply.
    let initial = initial_corpus();
    let mut conn = Connection::open(&server.addr);
    let items: Vec<String> = initial
        .iter()
        .map(|(label, trace)| format!("{label} {}", encode_trace_inline(trace)))
        .collect();
    let reply = conn.roundtrip(&format!("BATCH INGEST {}\n{}\n", items.len(), items.join("\n")));
    assert_eq!(reply, vec!["OK batch=12 entries=12".to_string()]);

    // Ground truth: every trace the server will ever hold, in id order
    // (e0…e11 preloaded, e12…e19 from the writer), evaluated directly
    // with one shared interner — the exactness oracle for every MATCH
    // line any reader sees, including matches against writer entries.
    let writer_entries = writer_corpus();
    let all_traces: Vec<&Trace> =
        initial.iter().map(|(_, t)| t).chain(writer_entries.iter().map(|(_, t)| t)).collect();
    let mut interner = TokenInterner::new();
    let strings: Vec<IdString> = all_traces
        .iter()
        .map(|t| interner.intern_string(&pattern_string(t, ByteMode::Preserve)))
        .collect();
    let probes: Vec<Trace> = vec![initial[1].1.clone(), initial[7].1.clone()];
    let probe_strings: Vec<IdString> = probes
        .iter()
        .map(|t| interner.intern_string(&pattern_string(t, ByteMode::Preserve)))
        .collect();
    let kernel = KastKernel::new(KastOptions::with_cut_weight(2));

    // Concurrent phase: one writer ingesting e12…e19, three readers each
    // querying both probes several times.
    let addr = server.addr.clone();
    let reader_replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let writer_addr = addr.clone();
        let writer_items = &writer_entries;
        let writer = scope.spawn(move || {
            let mut conn = Connection::open(&writer_addr);
            for (i, (label, trace)) in writer_items.iter().enumerate() {
                let reply =
                    conn.roundtrip(&format!("INGEST {label} {}\n", encode_trace_inline(trace)));
                assert_eq!(reply.len(), 1, "ingest reply is a single line: {reply:?}");
                assert!(
                    reply[0].starts_with(&format!("OK id={} name=e{}", 12 + i, 12 + i)),
                    "writer is the only ingester, so ids are sequential: {reply:?}"
                );
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let probes = &probes;
                scope.spawn(move || {
                    let mut conn = Connection::open(&addr);
                    let mut replies = Vec::new();
                    for _ in 0..4 {
                        for probe in probes {
                            let reply = conn
                                .roundtrip(&format!("QUERY k=3 {}\n", encode_trace_inline(probe)));
                            replies.push(reply);
                        }
                    }
                    replies
                })
            })
            .collect();
        writer.join().expect("writer succeeds");
        readers.into_iter().flat_map(|r| r.join().expect("reader succeeds")).collect()
    });

    // Every reader reply is well-formed and bit-identical to the oracle.
    assert_eq!(reader_replies.len(), 3 * 4 * 2);
    for (i, reply) in reader_replies.iter().enumerate() {
        let probe = &probe_strings[i % 2];
        assert!(reply[0].starts_with("OK matches=3 label="), "reply head: {reply:?}");
        assert_eq!(*reply.last().unwrap(), "END", "reply tail: {reply:?}");
        assert_eq!(reply.len(), 5, "OK + 3 MATCH + END: {reply:?}");
        for (rank, line) in reply[1..4].iter().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 5, "MATCH line shape: {line}");
            assert_eq!(fields[0], "MATCH");
            assert_eq!(fields[1], (rank + 1).to_string());
            let entry: usize = fields[2].strip_prefix('e').expect("server names").parse().unwrap();
            assert!(entry < strings.len(), "matched entry e{entry} is a known ingest");
            let similarity: f64 = fields[4].parse().expect("similarity parses");
            let direct = kernel.normalized(probe, &strings[entry]);
            assert_eq!(
                similarity.to_bits(),
                direct.to_bits(),
                "e{entry}: similarity under concurrency must stay bit-identical \
                 ({similarity} vs {direct})"
            );
        }
    }

    // MQUERY over the settled corpus: one framed reply, one RESULT block
    // per probe, every MATCH still exact.
    let reply = conn.roundtrip(&format!(
        "MQUERY k=2 2\n{}\n{}\n",
        encode_trace_inline(&probes[0]),
        encode_trace_inline(&probes[1])
    ));
    assert_eq!(reply[0], "OK queries=2", "{reply:?}");
    assert_eq!(*reply.last().unwrap(), "END");
    let result_lines: Vec<usize> = reply
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("RESULT "))
        .map(|(at, _)| at)
        .collect();
    assert_eq!(result_lines.len(), 2, "{reply:?}");
    for (which, &at) in result_lines.iter().enumerate() {
        assert!(reply[at].starts_with(&format!("RESULT {} matches=2", which + 1)), "{reply:?}");
        for line in &reply[at + 1..at + 3] {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let entry: usize = fields[2].strip_prefix('e').unwrap().parse().unwrap();
            let similarity: f64 = fields[4].parse().unwrap();
            let direct = kernel.normalized(&probe_strings[which], &strings[entry]);
            assert_eq!(similarity.to_bits(), direct.to_bits());
        }
    }

    // STATS: the whole corpus, and every generation it went through.
    let stats = conn.roundtrip("STATS\n");
    assert_eq!(stat_value(&stats, "entries"), 20);
    assert_eq!(stat_value(&stats, "generation"), 20);
    assert_eq!(
        stat_value(&stats, "queries"),
        3 * 4 * 2 + 2,
        "24 reader queries plus the 2-trace MQUERY"
    );

    assert_eq!(conn.roundtrip("SHUTDOWN\n"), vec!["OK bye".to_string()]);
}

/// The query memo warms once per (query, entry) pair: a repeated hot
/// query is answered entirely from the memo — and the similarities stay
/// bit-identical between the cold and warm passes (the memo changes where
/// values come from, never what they are).
#[test]
fn memo_warms_a_repeated_query_once() {
    let server = start_server();
    let mut conn = Connection::open(&server.addr);

    let initial = initial_corpus();
    let items: Vec<String> = initial
        .iter()
        .map(|(label, trace)| format!("{label} {}", encode_trace_inline(trace)))
        .collect();
    let reply = conn.roundtrip(&format!("BATCH INGEST {}\n{}\n", items.len(), items.join("\n")));
    assert_eq!(reply, vec!["OK batch=12 entries=12".to_string()]);

    let probe = encode_trace_inline(&initial[3].1);
    let cold = conn.roundtrip(&format!("QUERY k=3 {probe}\n"));
    let after_cold = conn.roundtrip("STATS\n");
    let cold_evals = stat_value(&after_cold, "kernel_evals");
    let cold_hits = stat_value(&after_cold, "cache_hits");
    assert!(cold_evals > 0, "a cold query pays for kernel evaluations: {after_cold:?}");

    // One warm-up is enough: the warm pass evaluates nothing.
    let warm = conn.roundtrip(&format!("QUERY k=3 {probe}\n"));
    let after_warm = conn.roundtrip("STATS\n");
    assert_eq!(
        stat_value(&after_warm, "kernel_evals"),
        cold_evals,
        "the warm pass re-evaluated nothing: {after_warm:?}"
    );
    assert_eq!(
        stat_value(&after_warm, "cache_hits") - cold_hits,
        cold_evals,
        "every pair the cold pass evaluated was served from the query memo: {after_warm:?}"
    );
    assert_eq!(cold, warm, "cache hits change nothing about the reply bytes");

    assert_eq!(conn.roundtrip("SHUTDOWN\n"), vec!["OK bye".to_string()]);
}
