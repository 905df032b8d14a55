//! Reactor edge cases (the suite is Linux-only, like the daemon): maximal
//! TCP fragmentation, pipelined bursts, half-close with a trailing
//! partial line, idle-connection reaping, and a slow reader whose
//! backed-up replies must not stall anyone else. The conformance and
//! concurrent-serve suites cover the protocol; this file holds the cases
//! that specifically stress the reactor's state machine (`LineFramer`
//! reassembly, write buffering with paused reads, timer-tick reaping).
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use kastio::index::protocol::read_reply;

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

fn start_epoll_server(extra_args: &[&str]) -> ServerGuard {
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

fn stat_value(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("STAT {key} ")))
        .unwrap_or_else(|| panic!("no STAT {key} in {stats}"))
        .parse()
        .unwrap_or_else(|e| panic!("non-numeric STAT {key}: {e}"))
}

/// Writes the request one byte per syscall, with TCP_NODELAY so each
/// byte really goes out as its own segment — the `LineFramer` sees the
/// worst case: every `epoll_wait` wakeup delivers one byte.
fn send_byte_at_a_time(writer: &mut TcpStream, wire: &str) {
    for byte in wire.as_bytes() {
        writer.write_all(std::slice::from_ref(byte)).expect("byte sent");
        writer.flush().expect("byte flushed");
    }
}

#[test]
fn reactor_reassembles_requests_split_to_single_bytes() {
    let server = start_epoll_server(&[]);
    let stream = TcpStream::connect(&server.addr).expect("client connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    send_byte_at_a_time(&mut writer, "HELLO 1 epoll-split\n");
    assert!(read_reply(&mut reader).unwrap().starts_with("OK kastio proto=1 "));

    // Batched forms arrive fragmented too: the header commits the
    // reactor to collecting item lines across many partial reads.
    send_byte_at_a_time(
        &mut writer,
        "BATCH INGEST 2\nflash h0 write 64;h0 write 64\nposix h0 read 8;h0 read 8\n",
    );
    assert_eq!(read_reply(&mut reader).unwrap(), "OK batch=2 entries=2\n");

    send_byte_at_a_time(&mut writer, "MQUERY k=1 2\nh0 write 64;h0 write 64\nh0 read 8\n");
    let mquery = read_reply(&mut reader).unwrap();
    assert!(mquery.starts_with("OK queries=2\n"), "{mquery}");
    assert!(mquery.ends_with("END\n"), "{mquery}");

    // A trailing request *without* its newline, then half-close:
    // read_line semantics say the partial line is still served — the
    // reactor's framer must honour that via finish().
    send_byte_at_a_time(&mut writer, "STATS");
    writer.shutdown(Shutdown::Write).expect("half-close");
    let stats = read_reply(&mut reader).unwrap();
    assert!(stats.starts_with("STAT entries 2\n"), "{stats}");
    // After answering the EOF tail the reactor hangs up.
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).expect("clean hangup"), 0, "{line}");

    // The server is still healthy for the next connection.
    let shutdown = TcpStream::connect(&server.addr).expect("second client");
    let mut shutdown_writer = shutdown.try_clone().expect("clone");
    let mut shutdown_reader = BufReader::new(shutdown);
    shutdown_writer.write_all(b"SHUTDOWN\n").expect("shutdown sent");
    assert_eq!(read_reply(&mut shutdown_reader).unwrap(), "OK bye\n");
}

#[test]
fn reactor_answers_pipelined_requests_in_order() {
    let server = start_epoll_server(&[]);
    let stream = TcpStream::connect(&server.addr).expect("client connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Everything in one segment, including a batch whose item lines ride
    // in the same write as later requests — one reply each, in order.
    // The reactor reads the whole burst into its framer at once, then
    // must hold the one-request-at-a-time discipline while draining it.
    writer
        .write_all(
            "HELLO 1 pipelined\n\
             INGEST flash h0 write 64;h0 write 64\n\
             BATCH INGEST 2\nflash h0 write 64\nposix h0 read 8\n\
             QUERY k=1 h0 write 64;h0 write 64\n\
             STATS\n\
             SHUTDOWN\n"
                .as_bytes(),
        )
        .expect("pipelined write");
    writer.flush().expect("flush");

    assert!(read_reply(&mut reader).unwrap().starts_with("OK kastio proto=1 "));
    assert_eq!(read_reply(&mut reader).unwrap(), "OK id=0 name=e0 entries=1\n");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK batch=2 entries=3\n");
    let query = read_reply(&mut reader).unwrap();
    assert!(query.starts_with("OK matches=1"), "{query}");
    let stats = read_reply(&mut reader).unwrap();
    assert!(stats.starts_with("STAT entries 3\n"), "{stats}");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK bye\n");
}

#[test]
fn reactor_reaps_idle_connections_on_its_timer_tick() {
    let server = start_epoll_server(&["--idle-timeout-secs", "1"]);

    // Two silent connections: the reactor (which has no per-socket read
    // deadline — reaping rides the epoll_wait timeout tick) must hang up
    // on both. The client-side read timeout turns a reaping failure into
    // a fast test failure instead of a hang.
    let idle_a = TcpStream::connect(&server.addr).expect("idle a");
    let idle_b = TcpStream::connect(&server.addr).expect("idle b");
    for idle in [idle_a, idle_b] {
        idle.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        // The server closes us: clean EOF, not an error or a stray reply.
        assert_eq!(reader.read_line(&mut line).expect("server hangs up"), 0, "{line}");
    }

    // An active connection arriving after the reaping is served, and the
    // reaps were counted as timeouts.
    let fresh = TcpStream::connect(&server.addr).expect("fresh client");
    let mut writer = fresh.try_clone().expect("clone");
    let mut reader = BufReader::new(fresh);
    writer.write_all(b"STATS\n").expect("stats sent");
    let stats = read_reply(&mut reader).expect("stats reply");
    assert_eq!(stat_value(&stats, "timeouts"), 2, "{stats}");

    writer.write_all(b"SHUTDOWN\n").expect("shutdown sent");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK bye\n");
}

#[test]
fn slow_reader_backpressure_does_not_stall_other_connections() {
    let server = start_epoll_server(&[]);

    // Seed a few entries so QUERY replies carry MATCH lines (bulkier
    // replies fill the slow reader's socket buffer sooner).
    let seed = TcpStream::connect(&server.addr).expect("seeder connects");
    let mut seed_writer = seed.try_clone().expect("clone");
    let mut seed_reader = BufReader::new(seed);
    seed_writer
        .write_all(b"BATCH INGEST 3\nflash h0 write 64;h0 write 64\nposix h0 read 8;h0 read 8\nckpt h0 write 4096;h0 fsync 0\n")
        .expect("seed batch");
    assert_eq!(read_reply(&mut seed_reader).unwrap(), "OK batch=3 entries=3\n");

    // The slow reader: pipelines a large burst of queries and then does
    // NOT read a single reply byte. Its replies pile into its socket
    // send buffer and then the reactor's per-connection write buffer;
    // the reactor parks the connection on EPOLLOUT and owes it the rest.
    const BURST: usize = 1000;
    let slow = TcpStream::connect(&server.addr).expect("slow client connects");
    let mut slow_writer = slow.try_clone().expect("clone");
    let mut burst = String::with_capacity(BURST * 36);
    for _ in 0..BURST {
        burst.push_str("QUERY k=3 h0 write 64;h0 write 64\n");
    }
    slow_writer.write_all(burst.as_bytes()).expect("burst written");
    slow_writer.flush().expect("burst flushed");

    // Meanwhile every *other* connection must be served promptly. The
    // read timeout is the stall detector: if the reactor thread were
    // blocked writing to (or working exclusively for) the slow reader,
    // these roundtrips would time out.
    let fast = TcpStream::connect(&server.addr).expect("fast client connects");
    fast.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    let mut fast_writer = fast.try_clone().expect("clone");
    let mut fast_reader = BufReader::new(fast);
    for _ in 0..20 {
        fast_writer.write_all(b"QUERY k=1 h0 read 8;h0 read 8\n").expect("fast query");
        let reply = read_reply(&mut fast_reader).expect("fast reply while slow reader lags");
        assert!(reply.starts_with("OK matches="), "{reply}");
    }

    // The slow reader finally drains: every one of its replies arrives,
    // correctly framed and in order — backpressure deferred them, lost
    // none.
    let mut slow_reader = BufReader::new(slow);
    for i in 0..BURST {
        let reply = read_reply(&mut slow_reader)
            .unwrap_or_else(|e| panic!("slow reply {i}/{BURST} failed: {e}"));
        assert!(reply.starts_with("OK matches=3"), "reply {i}: {reply}");
    }

    fast_writer.write_all(b"SHUTDOWN\n").expect("shutdown sent");
    assert_eq!(read_reply(&mut fast_reader).unwrap(), "OK bye\n");
}
