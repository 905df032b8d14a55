//! Protocol conformance suite: every verb in docs/PROTOCOL.md exercised
//! against a live `kastio serve` process, asserting the exact reply
//! bytes — happy paths, the documented error catalogue, size caps,
//! trailing garbage, blank lines and the HELLO handshake (including the
//! guarantee that every verb keeps working *without* one).
//!
//! The table entries are wire bytes, not parser calls: a rewording of an
//! error message or a reframed reply is a protocol change and must show
//! up here (and in docs/PROTOCOL.md) to land.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use kastio::index::protocol::{read_reply, MAX_BATCH_ITEMS, PROTOCOL_VERBS, PROTOCOL_VERSION};

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

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Connection {
        let stream = TcpStream::connect(addr).expect("client connects");
        Connection { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    fn send(&mut self, wire: &str) {
        self.writer.write_all(wire.as_bytes()).expect("request sent");
        self.writer.flush().expect("request flushed");
    }

    /// One request (possibly multi-line), one framed reply, exact bytes.
    fn roundtrip(&mut self, wire: &str) -> String {
        self.send(wire);
        read_reply(&mut self.reader).expect("reply read")
    }
}

/// The single-request table: each entry is sent on a fresh exchange of
/// one shared connection and must produce exactly the listed reply
/// bytes. The server has no --save directory and an empty corpus.
#[test]
fn request_reply_table_matches_the_spec_bytes() {
    let hello_ok = format!("OK kastio proto={PROTOCOL_VERSION} verbs={PROTOCOL_VERBS}\n");
    let over_cap = MAX_BATCH_ITEMS + 1;
    let table: Vec<(String, String)> = vec![
        // HELLO: negotiation, rejection, malformed forms.
        ("HELLO 1\n".into(), hello_ok.clone()),
        ("HELLO 1 kastio-conformance/0.1\n".into(), hello_ok.clone()),
        ("HELLO 7\n".into(), "ERR unsupported proto 7 (server speaks 1)\n".into()),
        ("HELLO\n".into(), "ERR HELLO needs `<proto-version> [client]`\n".into()),
        ("HELLO 0\n".into(), "ERR bad proto version `0` (expected a positive int)\n".into()),
        ("HELLO x\n".into(), "ERR bad proto version `x` (expected a positive int)\n".into()),
        (
            "HELLO 1 two tokens\n".into(),
            "ERR HELLO takes at most `<proto-version> [client]`\n".into(),
        ),
        // A repeated HELLO is fine: the handshake is stateless.
        ("HELLO 1\n".into(), hello_ok.clone()),
        // Unknown verbs and trailing garbage on the bare verbs. A bare
        // verb followed by tokens fails the `rest.is_empty()` guard and
        // is reported as an unknown verb — pinned here on purpose.
        ("FROB x\n".into(), "ERR unknown verb `FROB`\n".into()),
        ("STATS extra\n".into(), "ERR unknown verb `STATS`\n".into()),
        ("METRICS extra\n".into(), "ERR unknown verb `METRICS`\n".into()),
        ("SAVE now\n".into(), "ERR unknown verb `SAVE`\n".into()),
        ("SHUTDOWN please\n".into(), "ERR unknown verb `SHUTDOWN`\n".into()),
        ("hello 1\n".into(), "ERR unknown verb `hello`\n".into()),
        // INGEST / QUERY argument errors.
        ("INGEST onlylabel\n".into(), "ERR INGEST needs `<label> <trace>`\n".into()),
        ("QUERY k=2\n".into(), "ERR QUERY needs `k=<k> <trace>`\n".into()),
        (
            "QUERY k=0 h0 read 8\n".into(),
            "ERR bad k spec `k=0` (expected k=<positive int>)\n".into(),
        ),
        (
            "QUERY k=x h0 read 8\n".into(),
            "ERR bad k spec `k=x` (expected k=<positive int>)\n".into(),
        ),
        ("QUERY 3 h0 read 8\n".into(), "ERR bad k spec `3` (expected k=<positive int>)\n".into()),
        // Batch headers: malformed counts and the documented 4096 cap.
        ("BATCH\n".into(), "ERR BATCH needs `INGEST <count>`\n".into()),
        ("BATCH INGEST\n".into(), "ERR BATCH needs `INGEST <count>`\n".into()),
        ("BATCH QUERY 2\n".into(), "ERR BATCH needs `INGEST <count>`\n".into()),
        ("BATCH INGEST 0\n".into(), "ERR bad count `0` (expected a positive int)\n".into()),
        ("BATCH INGEST x\n".into(), "ERR bad count `x` (expected a positive int)\n".into()),
        (
            format!("BATCH INGEST {over_cap}\n"),
            format!("ERR count {over_cap} exceeds the batch cap of {MAX_BATCH_ITEMS}\n"),
        ),
        ("MQUERY k=2\n".into(), "ERR MQUERY needs `k=<k> <count>`\n".into()),
        ("MQUERY k=0 2\n".into(), "ERR bad k spec `k=0` (expected k=<positive int>)\n".into()),
        (
            format!("MQUERY k=1 {over_cap}\n"),
            format!("ERR count {over_cap} exceeds the batch cap of {MAX_BATCH_ITEMS}\n"),
        ),
        // SAVE without a configured save directory.
        ("SAVE\n".into(), "ERR no save directory (start the server with --save)\n".into()),
        // SLOWLOG: subcommand catalogue, exact empty-state replies. The
        // verb answers even without --slow-query-micros (the log is just
        // permanently empty then), so clients can always introspect.
        ("SLOWLOG\n".into(), "ERR SLOWLOG needs `GET|RESET|LEN`\n".into()),
        ("SLOWLOG FLUSH\n".into(), "ERR SLOWLOG needs `GET|RESET|LEN`\n".into()),
        ("SLOWLOG get\n".into(), "ERR SLOWLOG needs `GET|RESET|LEN`\n".into()),
        ("SLOWLOG LEN\n".into(), "OK slowlog len=0\n".into()),
        ("SLOWLOG GET\n".into(), "OK slowlog entries=0\nEND\n".into()),
        ("SLOWLOG RESET\n".into(), "OK slowlog reset\n".into()),
        // MQUERY against the empty corpus: zero matches, not an error.
        (
            "MQUERY k=1 1\nh0 read 8\n".into(),
            "OK queries=1\nRESULT 1 matches=0 label=-\nEND\n".into(),
        ),
    ];

    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);
    for (request, expected) in &table {
        let reply = conn.roundtrip(request);
        assert_eq!(&reply, expected, "request {request:?}");
    }
    // One connection survived the whole table: errors never hang up.
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

/// The malformed-trace errors come from the trace parser; the table pins
/// the framing (`ERR ` + message + newline), deriving the message from
/// the same library call the server makes.
#[test]
fn malformed_trace_errors_carry_the_parser_message() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);

    let trace_err = kastio::index::protocol::decode_trace_inline("h0 read").unwrap_err();
    assert_eq!(conn.roundtrip("QUERY k=2 h0 read\n"), format!("ERR {trace_err}\n"));
    assert_eq!(conn.roundtrip("INGEST flash h0 read\n"), format!("ERR {trace_err}\n"));

    let bad_bytes = kastio::index::protocol::decode_trace_inline("h0 read lots").unwrap_err();
    assert_eq!(conn.roundtrip("QUERY k=1 h0 read lots\n"), format!("ERR {bad_bytes}\n"));
    conn.roundtrip("SHUTDOWN\n");
}

#[test]
fn ingest_query_and_batches_round_trip_without_hello() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);

    // Old-client compatibility: no HELLO anywhere on this connection.
    assert_eq!(
        conn.roundtrip("INGEST flash h0 open 0;h0 write 64;h0 write 64;h0 close 0\n"),
        "OK id=0 name=e0 entries=1\n"
    );
    assert_eq!(
        conn.roundtrip(
            "BATCH INGEST 2\nflash h0 write 64;h0 write 64\nposix h0 read 8;h0 read 8\n"
        ),
        "OK batch=2 entries=3\n"
    );

    // Querying an exact copy of e0: the self-match normalises to 1.
    let query = conn.roundtrip("QUERY k=1 h0 open 0;h0 write 64;h0 write 64;h0 close 0\n");
    assert_eq!(query, "OK matches=1 label=flash\nMATCH 1 e0 flash 1\nEND\n");

    let mquery = conn.roundtrip("MQUERY k=1 2\nh0 write 64;h0 write 64\nh0 read 8;h0 read 8\n");
    let lines: Vec<&str> = mquery.lines().collect();
    assert_eq!(lines[0], "OK queries=2");
    assert!(lines[1].starts_with("RESULT 1 matches=1 label="), "{mquery}");
    assert_eq!(*lines.last().unwrap(), "END");

    let stats = conn.roundtrip("STATS\n");
    assert!(stats.starts_with("STAT entries 3\n"), "{stats}");
    assert!(stats.ends_with("END\n"), "{stats}");
    // The whole exchange ran without a handshake — and the server's
    // verb counters saw none.
    assert!(stats.contains("STAT verb_hello 0\n"), "{stats}");

    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

#[test]
fn bad_batch_items_consume_the_frame_and_report_position() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);

    // Item 1 is malformed; item 2 is valid but must NOT be ingested (the
    // batch already failed) — and both announced lines are consumed, so
    // the connection stays framed for the next request.
    assert_eq!(
        conn.roundtrip("BATCH INGEST 2\nonlylabel\nposix h0 read 8\n"),
        "ERR item 1/2: batch item needs `<label> <trace>`\n"
    );
    let stats = conn.roundtrip("STATS\n");
    assert!(stats.starts_with("STAT entries 0\n"), "nothing ingested: {stats}");

    // Same for MQUERY: a bad trace line mid-batch.
    assert_eq!(
        conn.roundtrip("MQUERY k=1 2\nh0 read 8\nh0 read\n"),
        format!(
            "ERR item 2/2: {}\n",
            kastio::index::protocol::decode_trace_inline("h0 read").unwrap_err()
        )
    );
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

#[test]
fn blank_lines_are_skipped_not_answered() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);

    // Empty and whitespace-only lines produce no reply at all: the next
    // reply on the connection belongs to the next real request.
    conn.send("\n\n   \n\t\nSTATS\n");
    let reply = read_reply(&mut conn.reader).expect("one reply");
    assert!(reply.starts_with("STAT entries 0\n"), "{reply}");

    // And requests keep their own replies afterwards (no desync).
    assert!(conn.roundtrip("HELLO 1\n").contains("proto=1"));
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

/// A `--save` daemon answers HELLO, INGEST and SHUTDOWN with the
/// in-memory daemon's bytes; its SAVE reply ends in ` wal=truncated` (a
/// snapshot compacts the log), and the STATS / METRICS WAL counters go
/// live.
#[test]
fn wal_mode_counters_and_save_reply_match_the_spec_bytes() {
    let dir = std::env::temp_dir().join(format!("kastio-conformance-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let save_dir = dir.join("corpus");
    let mut server = start_server(&["--save", save_dir.to_str().unwrap()]);
    let mut conn = Connection::open(&server.addr);

    assert!(conn.roundtrip("HELLO 1 conformance\n").starts_with("OK kastio proto=1 "));
    // Only the ingest reply's timing moves: the OK is written after the
    // covering fsync.
    assert_eq!(
        conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n"),
        "OK id=0 name=e0 entries=1\n"
    );

    // The acked record is on the log and fsync'd; STATS says so.
    let stats = conn.roundtrip("STATS\n");
    assert!(stats.contains("STAT wal_records 1\n"), "{stats}");
    assert!(
        stats.contains("STAT last_replay_records 0\n"),
        "fresh start replayed nothing: {stats}"
    );
    let stat_value = |reply: &str, key: &str| -> u64 {
        reply
            .lines()
            .find_map(|l| l.strip_prefix(&format!("STAT {key} ")))
            .unwrap_or_else(|| panic!("no {key} in {reply}"))
            .parse()
            .expect("integer stat")
    };
    assert!(stat_value(&stats, "wal_bytes") > 0, "{stats}");
    assert!(stat_value(&stats, "wal_fsyncs") >= 1, "the ack waited for a covering fsync: {stats}");

    // SAVE is a compaction point and the reply says so — exact bytes.
    // The generation is the corpus size the snapshot covers.
    assert_eq!(conn.roundtrip("SAVE\n"), "OK saved entries=1 generation=1 wal=truncated\n");

    // METRICS exposes the same counters as Prometheus families.
    let metrics = conn.roundtrip("METRICS\n");
    assert!(metrics.contains("kastio_wal_records_total 1\n"), "{metrics}");
    assert!(metrics.contains("kastio_wal_replay_records 0\n"), "{metrics}");

    // SHUTDOWN's own save re-covers the same corpus.
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye saved=1 generation=1\n");
    assert!(server.child.wait().expect("server exits").success());
    assert!(save_dir.join("snapshot.log").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The metric table of docs/PROTOCOL.md, as `(STATS key, METRICS family
/// without labels, kind)` triples in row order. The histogram rows have
/// no STATS key (`—`).
fn documented_metric_table() -> Vec<(String, String, String)> {
    let doc = include_str!("../docs/PROTOCOL.md");
    let header = "| STATS key | METRICS family | kind | meaning |\n";
    let start = doc.find(header).expect("PROTOCOL.md has the metric table") + header.len();
    doc[start..]
        .lines()
        .skip(1) // the |---| separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let family = cells[1].trim_matches('`');
            let family = family.split('{').next().unwrap();
            (cells[0].trim_matches('`').to_string(), family.to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn stats_reports_metrics_counters_in_documented_order() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("HELLO 1\n");
    conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n");
    conn.roundtrip("FROB\n");
    let stats = conn.roundtrip("STATS\n");
    let metrics = conn.roundtrip("METRICS\n");

    // STATS renders every counter and gauge row of the documented table,
    // in row order, then the latency digests. The corpus is one vector,
    // so no key names a shard.
    let table = documented_metric_table();
    let rows: Vec<&str> = table
        .iter()
        .filter(|(key, _, kind)| kind != "histogram" && !key.starts_with("latency_"))
        .map(|(key, _, _)| key.as_str())
        .collect();
    assert_eq!(rows.first(), Some(&"entries"), "the table parsed: {table:?}");
    let keys: Vec<&str> = stats
        .lines()
        .filter_map(|l| l.strip_prefix("STAT "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(&keys[..rows.len()], &rows[..], "{stats}");
    assert!(keys[rows.len()..].iter().all(|key| key.starts_with("latency_")), "{stats}");
    assert!(!keys.iter().any(|key| key.starts_with("shard")), "{stats}");

    // METRICS declares exactly the documented families, each once, with
    // the documented kind.
    let mut documented: Vec<(&str, &str)> =
        table.iter().map(|(_, family, kind)| (family.as_str(), kind.as_str())).collect();
    documented.dedup();
    documented.sort_unstable();
    let mut declared: Vec<(&str, &str)> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_once(' ').unwrap())
        .collect();
    declared.sort_unstable();
    assert_eq!(declared, documented, "{metrics}");

    // The WAL and memory rows render as zeros without --save and
    // --max-memory-bytes.
    for key in [
        "wal_records",
        "wal_bytes",
        "wal_fsyncs",
        "last_replay_records",
        "mem_used_bytes",
        "mem_limit_bytes",
        "mem_unreclaimable_bytes",
        "shed_memory",
        "shed_connections",
        "timeouts",
    ] {
        assert!(stats.contains(&format!("STAT {key} 0\n")), "{key} is zero: {stats}");
    }

    // And the counters reflect this connection's traffic exactly:
    // HELLO + INGEST + FROB + STATS = 4 requests, 1 error.
    assert!(stats.contains("STAT connections 1\n"), "{stats}");
    assert!(stats.contains("STAT requests_total 4\n"), "{stats}");
    assert!(stats.contains("STAT request_errors 1\n"), "{stats}");
    assert!(stats.contains("STAT verb_hello 1\n"), "{stats}");
    assert!(stats.contains("STAT verb_ingest 1\n"), "{stats}");
    assert!(stats.contains("STAT verb_stats 1\n"), "{stats}");
    conn.roundtrip("SHUTDOWN\n");
}

/// METRICS: framed Prometheus-style text exposition whose counters match
/// the connection's traffic and whose latency buckets are cumulative.
#[test]
fn metrics_exposition_is_framed_and_internally_consistent() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("HELLO 1\n");
    conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n");
    conn.roundtrip("QUERY k=1 h0 write 64;h0 write 64\n");
    conn.roundtrip("QUERY k=1 h0 write 64\n");
    let reply = conn.roundtrip("METRICS\n");

    // Framing: header line, END terminator, and no interior line that
    // could be mistaken for the terminator.
    assert!(reply.starts_with("OK metrics\n"), "{reply}");
    assert!(reply.ends_with("END\n"), "{reply}");
    let body: Vec<&str> = reply.lines().collect();
    assert_eq!(*body.last().unwrap(), "END");
    assert!(!body[1..body.len() - 1].contains(&"END"), "END only terminates");

    // Counters reflect this connection: HELLO + INGEST + 2x QUERY, plus
    // METRICS itself (counted at dispatch, before its reply renders).
    assert!(reply.contains("kastio_connections_total 1\n"), "{reply}");
    assert!(reply.contains("kastio_requests_total 5\n"), "{reply}");
    assert!(reply.contains("kastio_verb_requests_total{verb=\"metrics\"} 1\n"), "{reply}");
    assert!(reply.contains("kastio_verb_requests_total{verb=\"query\"} 2\n"), "{reply}");
    assert!(reply.contains("kastio_verb_requests_total{verb=\"ingest\"} 1\n"), "{reply}");
    assert!(reply.contains("# TYPE kastio_request_latency_ns histogram"), "{reply}");
    assert!(reply.contains("# TYPE kastio_stage_latency_ns histogram"), "{reply}");
    assert!(reply.contains("kastio_slowlog_entries 0\n"), "{reply}");

    // The memory-governance families are exposed (as zeros) even
    // without --max-memory-bytes.
    assert!(reply.contains("# TYPE kastio_mem_used_bytes gauge\n"), "{reply}");
    assert!(reply.contains("kastio_mem_used_bytes 0\n"), "{reply}");
    assert!(reply.contains("# TYPE kastio_mem_limit_bytes gauge\n"), "{reply}");
    assert!(reply.contains("kastio_mem_limit_bytes 0\n"), "{reply}");
    assert!(reply.contains("# TYPE kastio_mem_unreclaimable_bytes gauge\n"), "{reply}");
    assert!(reply.contains("kastio_mem_unreclaimable_bytes 0\n"), "{reply}");
    assert!(reply.contains("kastio_mem_reclaims_total 0\n"), "{reply}");
    assert!(reply.contains("# TYPE kastio_shed_total counter\n"), "{reply}");
    assert!(reply.contains("kastio_shed_total{reason=\"memory\"} 0\n"), "{reply}");
    assert!(reply.contains("kastio_shed_total{reason=\"connections\"} 0\n"), "{reply}");
    assert!(reply.contains("kastio_timeouts_total 0\n"), "{reply}");

    // The WAL families are exposed (as zeros) even without --save.
    assert!(reply.contains("# TYPE kastio_wal_records_total counter\n"), "{reply}");
    assert!(reply.contains("kastio_wal_records_total 0\n"), "{reply}");
    assert!(reply.contains("kastio_wal_bytes_total 0\n"), "{reply}");
    assert!(reply.contains("kastio_wal_fsyncs_total 0\n"), "{reply}");
    assert!(reply.contains("# TYPE kastio_wal_replay_records gauge\n"), "{reply}");
    assert!(reply.contains("kastio_wal_replay_records 0\n"), "{reply}");

    // The QUERY latency series: cumulative buckets ending in `+Inf`,
    // whose final count equals the _count sample and the verb counter.
    let query_buckets: Vec<u64> = body
        .iter()
        .filter_map(|l| l.strip_prefix("kastio_request_latency_ns_bucket{verb=\"query\",le=\""))
        .map(|rest| {
            let (_, count) = rest.split_once("\"} ").expect("bucket sample shape");
            count.parse().expect("bucket count")
        })
        .collect();
    assert!(!query_buckets.is_empty(), "QUERY histogram exposed: {reply}");
    assert!(query_buckets.windows(2).all(|w| w[0] <= w[1]), "cumulative: {query_buckets:?}");
    assert_eq!(*query_buckets.last().unwrap(), 2, "both queries counted");
    assert!(
        reply.contains("kastio_request_latency_ns_bucket{verb=\"query\",le=\"+Inf\"} 2\n"),
        "{reply}"
    );
    assert!(reply.contains("kastio_request_latency_ns_count{verb=\"query\"} 2\n"), "{reply}");
    assert!(
        reply.contains("kastio_request_latency_us{verb=\"query\",quantile=\"0.99\"}"),
        "{reply}"
    );
    conn.roundtrip("SHUTDOWN\n");
}

/// `trace=1`: the reply gains exactly one TRACE line before END whose
/// stage sum never exceeds its total — and the flag changes nothing else.
#[test]
fn traced_queries_report_a_consistent_stage_breakdown() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n");

    let plain = conn.roundtrip("QUERY k=1 h0 write 64;h0 write 64\n");
    assert!(!plain.contains("TRACE"), "untraced replies are unchanged: {plain}");

    let traced = conn.roundtrip("QUERY k=1 trace=1 h0 write 64;h0 write 64\n");
    let trace_line = traced
        .lines()
        .find(|l| l.starts_with("TRACE "))
        .unwrap_or_else(|| panic!("no TRACE line in {traced:?}"));
    // Same reply minus the TRACE line — the flag only adds the line.
    assert_eq!(traced.replace(&format!("{trace_line}\n"), ""), plain);
    assert!(traced.ends_with(&format!("{trace_line}\nEND\n")), "TRACE sits before END");

    let mut total = None;
    let mut stage_sum = 0u64;
    for field in trace_line.trim_start_matches("TRACE ").split(' ') {
        let (key, value) = field.split_once('=').expect("key=value fields");
        let value: u64 = value.parse().expect("integer microseconds");
        match key {
            "total_us" => total = Some(value),
            "parse_us" | "prefilter_us" | "cache_us" | "kernel_us" => stage_sum += value,
            other => panic!("unexpected TRACE field {other}"),
        }
    }
    assert!(stage_sum <= total.expect("total_us present"), "{trace_line}");

    // MQUERY takes the same flag.
    let mtraced = conn.roundtrip("MQUERY k=1 trace=1 2\nh0 write 64\nh0 read 8\n");
    assert_eq!(mtraced.lines().filter(|l| l.starts_with("TRACE ")).count(), 1, "{mtraced}");
    conn.roundtrip("SHUTDOWN\n");
}

/// The slow-query log over the wire, enabled via --slow-query-micros.
/// Threshold 0 logs every request — deterministic for a conformance run.
#[test]
fn slowlog_records_and_resets_over_the_wire() {
    let server = start_server(&["--slow-query-micros", "0"]);
    let mut conn = Connection::open(&server.addr);
    conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n");
    conn.roundtrip("QUERY k=3 h0 write 64\n");

    assert_eq!(conn.roundtrip("SLOWLOG LEN\n"), "OK slowlog len=2\n");
    let log = conn.roundtrip("SLOWLOG GET\n");
    let lines: Vec<&str> = log.lines().collect();
    // Newest first: the LEN request itself, then QUERY, then INGEST.
    assert_eq!(lines[0], "OK slowlog entries=3");
    assert!(lines[1].contains(" verb=SLOWLOG ") && lines[1].contains(" args=LEN"), "{log}");
    assert!(lines[2].contains(" verb=QUERY ") && lines[2].contains(" args=k=3"), "{log}");
    assert!(lines[3].contains(" verb=INGEST ") && lines[3].contains(" args=label=flash"), "{log}");
    assert_eq!(*lines.last().unwrap(), "END");
    // Every entry carries id, timestamp, duration and a stage breakdown.
    for entry in &lines[1..4] {
        assert!(entry.starts_with("SLOW "), "{entry}");
        assert!(entry.contains(" at_us=") && entry.contains(" total_us="), "{entry}");
        assert!(entry.contains(" stages=parse:"), "{entry}");
    }

    assert_eq!(conn.roundtrip("SLOWLOG RESET\n"), "OK slowlog reset\n");
    // Only the RESET itself (logged after it answered) remains.
    assert_eq!(conn.roundtrip("SLOWLOG LEN\n"), "OK slowlog len=1\n");
    conn.roundtrip("SHUTDOWN\n");
}

/// The request-line size cap: a line over 1 MiB is answered with the
/// exact documented error, the oversized line is drained, and the
/// connection stays framed — the next request gets its own reply.
#[test]
fn oversized_lines_get_the_documented_error_and_a_drained_connection() {
    let server = start_server(&[]);
    let mut conn = Connection::open(&server.addr);

    let mut line = "QUERY k=1 ".to_string();
    line.push_str(&"h0 read 8;".repeat(120_000)); // ~1.2 MiB, over the 1 MiB cap
    line.push('\n');
    assert_eq!(conn.roundtrip(&line), "ERR line too long\n");

    // Framing intact: the very next request works on the same connection.
    assert_eq!(
        conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n"),
        "OK id=0 name=e0 entries=1\n"
    );
    // An oversized *item line* inside a batch reports the same error and
    // also keeps the frame (remaining announced lines are consumed).
    let fat_item = format!("flash {}\n", "h0 read 8;".repeat(120_000));
    assert_eq!(
        conn.roundtrip(&format!("BATCH INGEST 2\n{fat_item}posix h0 read 8\n")),
        "ERR line too long\n"
    );
    let stats = conn.roundtrip("STATS\n");
    assert!(stats.contains("STAT entries 1\n"), "failed batch ingested nothing: {stats}");
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

/// Memory governance over the wire: with a tiny --max-memory-bytes the
/// daemon sheds ingests with the exact documented busy error, keeps the
/// connection open, keeps answering reads, and counts each shed.
#[test]
fn memory_governed_server_sheds_with_the_documented_busy_error() {
    let server = start_server(&["--max-memory-bytes", "4096"]);
    let mut conn = Connection::open(&server.addr);

    assert_eq!(
        conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n"),
        "OK id=0 name=e0 entries=1\n"
    );
    // ~100 ops ≈ 5 KiB of corpus footprint: over the 4 KiB budget.
    let fat = format!("INGEST flash {}\n", "h0 write 64;".repeat(100));
    assert_eq!(conn.roundtrip(&fat), "ERR busy reason=memory\n");

    // Reads still work, the corpus did not grow, and the shed is counted.
    assert!(conn.roundtrip("QUERY k=1 h0 write 64;h0 write 64\n").starts_with("OK matches=1"));
    let stats = conn.roundtrip("STATS\n");
    assert!(stats.contains("STAT entries 1\n"), "{stats}");
    assert!(stats.contains("STAT shed_memory 1\n"), "{stats}");
    assert!(stats.contains("STAT mem_limit_bytes 4096\n"), "{stats}");
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

/// `BATCH INGEST` is all-or-nothing under the memory budget: a batch
/// whose items fit one at a time but not together is refused whole, with
/// the plain busy error. No item is ingested and no id is consumed.
#[test]
fn batch_over_the_memory_budget_is_refused_whole() {
    let server = start_server(&["--max-memory-bytes", "4096"]);
    let mut conn = Connection::open(&server.addr);

    assert_eq!(
        conn.roundtrip("INGEST flash h0 write 64;h0 write 64\n"),
        "OK id=0 name=e0 entries=1\n"
    );
    // 30 ops ≈ 1.6 KiB of corpus footprint per item: one fits the 4 KiB
    // budget beside the first entry, three do not.
    let item = format!("flash {}\n", "h0 write 64;".repeat(30));
    let batch = format!("BATCH INGEST 3\n{item}{item}{item}");
    assert_eq!(conn.roundtrip(&batch), "ERR busy reason=memory\n");

    let stats = conn.roundtrip("STATS\n");
    assert!(stats.contains("STAT entries 1\n"), "no item was ingested: {stats}");
    assert!(stats.contains("STAT shed_memory 1\n"), "{stats}");
    assert_eq!(conn.roundtrip(&format!("INGEST {item}")), "OK id=1 name=e1 entries=2\n");
    assert_eq!(conn.roundtrip("SHUTDOWN\n"), "OK bye\n");
}

/// Connection admission control: --max-connections 1 sheds the second
/// concurrent connection with the documented busy error before reading
/// anything from it, then hangs up.
#[test]
fn connection_cap_sheds_with_the_documented_busy_error() {
    let server = start_server(&["--max-connections", "1"]);
    let mut first = Connection::open(&server.addr);
    assert!(first.roundtrip("HELLO 1\n").starts_with("OK kastio proto="));

    let mut second = Connection::open(&server.addr);
    let mut reply = String::new();
    second.reader.read_line(&mut reply).expect("shed notice");
    assert_eq!(reply, "ERR busy reason=connections\n");
    reply.clear();
    assert_eq!(second.reader.read_line(&mut reply).expect("EOF"), 0, "server hung up");

    let stats = first.roundtrip("STATS\n");
    assert!(stats.contains("STAT shed_connections 1\n"), "{stats}");
    assert!(stats.contains("STAT request_errors 0\n"), "sheds are not request errors: {stats}");
    assert_eq!(first.roundtrip("SHUTDOWN\n"), "OK bye\n");
}
