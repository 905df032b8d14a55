//! The `serve` daemon: a [`TcpListener`] bound around a [`PatternIndex`],
//! served by a hand-rolled epoll reactor (Linux only).
//!
//! Deliberately dependency-free (no async runtime — the build environment
//! is offline). This module owns the daemon's *configuration* surface:
//! the [`Server`] builder, the shared [`ServerMetrics`] counters, and the
//! [`ShutdownHandle`]. The socket loop lives in the crate-private
//! `runtime` module: one reactor thread owns every socket, and a bounded
//! worker pool executes the requests.
//!
//! There is **no server-side lock**: the index is internally
//! synchronised (see [`crate::index`]), so the workers share it behind a
//! plain [`Arc`]. `QUERY`/`MQUERY` read-lock the corpus only for their
//! signature scan and run concurrently with each other;
//! `INGEST`/`BATCH INGEST` write-lock it only to append, so a writer
//! waits for the scans in flight, never for a query's scoring. Each
//! request runs inline on its worker — a query never spawns threads — so
//! concurrent requests are the daemon's only parallelism.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kastio_obs::{SlowLog, StripedHistogram};
use kastio_quota::MemoryQuota;

use crate::index::PatternIndex;
use crate::protocol::Request;
use crate::runtime::{self, ServeState};
use crate::wal::WalManager;

/// Per-verb counter and histogram slots, in `STATS` order (the
/// `verb_*` rows of [`crate::metrics`]).
pub(crate) const VERB_NAMES: [&str; 10] = [
    "hello",
    "ingest",
    "batch_ingest",
    "query",
    "mquery",
    "stats",
    "save",
    "shutdown",
    "metrics",
    "slowlog",
];

/// Pipeline stage histogram slots, in request order. `parse` covers
/// request-line parsing (plus item-line reads for the batched forms);
/// `prefilter`/`cache`/`kernel` come from the index's [`QueryTimings`];
/// `reply` is the reply write + flush.
pub(crate) const STAGE_NAMES: [&str; 5] = ["parse", "prefilter", "cache", "kernel", "reply"];

pub(crate) const STAGE_PARSE: usize = 0;
pub(crate) const STAGE_PREFILTER: usize = 1;
pub(crate) const STAGE_CACHE: usize = 2;
pub(crate) const STAGE_KERNEL: usize = 3;
pub(crate) const STAGE_REPLY: usize = 4;

/// The histogram slot a parsed request records into.
pub(crate) fn verb_slot(request: &Request) -> usize {
    match request {
        Request::Hello { .. } => 0,
        Request::Ingest { .. } => 1,
        Request::BatchIngest { .. } => 2,
        Request::Query { .. } => 3,
        Request::MultiQuery { .. } => 4,
        Request::Stats => 5,
        Request::Save => 6,
        Request::Shutdown => 7,
        Request::Metrics => 8,
        Request::Slowlog(_) => 9,
    }
}

/// Live connection/request counters of a running daemon, shared by the
/// reactor and its workers. The metric table in [`crate::metrics`] reads
/// the fields directly to render `STATS` and `METRICS`; nothing else
/// reads them.
///
/// Counters are plain relaxed atomics: they are observability data with
/// no ordering relationship to the index's own synchronisation, so the
/// cheapest increment is the right one. Semantics: `requests` counts
/// every non-blank request line received (parsed or not); the per-verb
/// counters count *successfully parsed* requests (a batched form counts
/// once, on its header); `errors` counts `ERR` replies sent, whatever
/// their cause (parse failure, bad batch item, unsupported `HELLO`,
/// failed save, over-long line, memory shed). The governance counters
/// count load deliberately refused: `shed_memory` is `ERR busy
/// reason=memory` replies (each one a client-visible shed, so the two
/// tallies match exactly), `shed_connections` is connections refused at
/// the accept loop with `ERR busy reason=connections`, and `timeouts` is
/// connections closed by the `--idle-timeout-secs` reaper.
///
/// Latency is recorded into [`StripedHistogram`]s — one per verb for
/// total request latency, one per pipeline stage — so concurrent threads
/// rarely contend; a `STATS` or `METRICS` reply merges the stripes into
/// point-in-time histograms.
#[derive(Debug)]
pub struct ServerMetrics {
    pub(crate) started: Instant,
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// `ERR busy reason=memory` replies sent (ingest admission or
    /// request-buffer admission refused).
    pub(crate) shed_memory: AtomicU64,
    /// Connections refused at the accept loop (`--max-connections`).
    pub(crate) shed_connections: AtomicU64,
    /// Connections closed by the idle reaper.
    pub(crate) timeouts: AtomicU64,
    pub(crate) verbs: [AtomicU64; VERB_NAMES.len()],
    /// Per-verb request latency (read → reply flushed), nanoseconds.
    pub(crate) verb_latency: [StripedHistogram; VERB_NAMES.len()],
    /// Per-stage latency across all requests, nanoseconds.
    pub(crate) stage_latency: [StripedHistogram; STAGE_NAMES.len()],
}

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed_memory: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            verbs: std::array::from_fn(|_| AtomicU64::new(0)),
            verb_latency: std::array::from_fn(|_| StripedHistogram::new()),
            stage_latency: std::array::from_fn(|_| StripedHistogram::new()),
        }
    }

    pub(crate) fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one received request line; `parsed` selects the per-verb
    /// counter (`None` for a line that failed to parse).
    pub(crate) fn record_request(&self, parsed: Option<&Request>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(request) = parsed {
            self.verbs[verb_slot(request)].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_memory(&self) {
        self.shed_memory.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request's total latency into its verb's
    /// histogram.
    pub(crate) fn record_latency(&self, slot: usize, total_ns: u64) {
        self.verb_latency[slot].record(total_ns);
    }

    /// Records one pipeline stage span.
    pub(crate) fn record_stage(&self, stage: usize, ns: u64) {
        self.stage_latency[stage].record(ns);
    }

    /// Microseconds since the listener was bound — the slow log's
    /// timestamp base.
    pub(crate) fn uptime_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A running (not yet serving) daemon: a bound listener plus the index it
/// will serve.
///
/// Binding is separated from serving so callers can learn the actual
/// address before the serving loop starts — essential with an
/// ephemeral port (`:0`), which is how the integration tests and the
/// in-process example run.
///
/// # Examples
///
/// ```no_run
/// use kastio_index::{IndexOptions, PatternIndex, Server};
///
/// # fn main() -> std::io::Result<()> {
/// let index = PatternIndex::new(IndexOptions::default());
/// let server = Server::bind("127.0.0.1:0", index)?;
/// println!("listening on {}", server.local_addr()?);
/// let _index_back = server.serve()?; // blocks until SHUTDOWN
/// # Ok(())
/// # }
/// ```
pub struct Server {
    listener: TcpListener,
    index: Arc<PatternIndex>,
    stop: Arc<AtomicBool>,
    save_dir: Option<PathBuf>,
    wal: Option<Arc<WalManager>>,
    metrics: Arc<ServerMetrics>,
    slow_log: Arc<SlowLog>,
    /// The daemon's memory budget (unlimited by default). Shared with
    /// the index once [`Server::with_memory_limit`] attaches a limit.
    quota: MemoryQuota,
    max_connections: usize,
    idle_timeout: Option<Duration>,
}

/// Default `--max-connections`: generous enough that only a runaway
/// client fleet (or a fd leak) ever hits it, small enough that a default
/// daemon stays within the common 1024-descriptor `ulimit -n` soft limit
/// instead of failing accepts with `EMFILE`. Idle connections are cheap
/// for the reactor, so raising the cap is a file-descriptor question,
/// not a memory one.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// A clonable handle that stops a running [`Server::serve`] loop from
/// another thread — the signal monitor uses one to turn `SIGTERM` into
/// the same clean shutdown a `SHUTDOWN` request performs (workers
/// joined, corpus intact and saveable).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Requests shutdown: raises the stop flag and nudges the accept loop
    /// awake with a throwaway connection so it observes the flag.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds a listener on `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port) around the given index.
    ///
    /// # Errors
    ///
    /// Propagates the [`TcpListener::bind`] failure.
    pub fn bind(addr: &str, index: PatternIndex) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            index: Arc::new(index),
            stop: Arc::new(AtomicBool::new(false)),
            save_dir: None,
            wal: None,
            metrics: Arc::new(ServerMetrics::new()),
            slow_log: Arc::new(SlowLog::disabled()),
            quota: MemoryQuota::unlimited(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: None,
        })
    }

    /// Attaches a memory budget of `limit` bytes (`None`: unlimited, the
    /// default). With a limit, the corpus and the kernel cache are
    /// charged against it (the cache doubles as the reclaim target), and
    /// requests that would grow past it are shed with
    /// `ERR busy reason=memory` — the connection stays open, the daemon
    /// stays up, and the shed is counted in `STATS` / `METRICS`.
    #[must_use]
    pub fn with_memory_limit(mut self, limit: Option<u64>) -> Server {
        self.quota = MemoryQuota::new(limit);
        if limit.is_some() {
            self.index.attach_quota(&self.quota);
        }
        self
    }

    /// Caps concurrently served connections (default
    /// [`DEFAULT_MAX_CONNECTIONS`]). Past the cap the accept loop sheds:
    /// it replies `ERR busy reason=connections` and closes the socket
    /// *without* registering it with the reactor, so overload cannot
    /// exhaust file descriptors or memory. Clamped to at least 1.
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> Server {
        self.max_connections = max.max(1);
        self
    }

    /// Arms the idle reaper (`None`, the default, waits forever). A
    /// connection silent past the deadline with no request in flight and
    /// no reply to write — even one that stopped mid-line or mid-batch —
    /// is closed and counted in the `timeouts` counter, so abandoned
    /// sockets release their connection slots and buffered bytes.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Server {
        self.idle_timeout = timeout;
        self
    }

    /// The daemon's memory quota (shared, clonable handle) — lets tests
    /// and embedding processes observe `used()` while serving.
    pub fn quota(&self) -> MemoryQuota {
        self.quota.clone()
    }

    /// Configures the slow-query log threshold: requests whose total
    /// latency reaches `threshold_micros` are recorded (newest
    /// [`SlowLog::DEFAULT_CAPACITY`] kept) and exposed through the
    /// `SLOWLOG` verb. `None` (the default) disables recording — the
    /// verb still answers, with an empty log. Threshold 0 logs every
    /// request, mirroring Redis's `slowlog-log-slower-than 0` test hook.
    #[must_use]
    pub fn with_slow_log(mut self, threshold_micros: Option<u64>) -> Server {
        self.slow_log = Arc::new(SlowLog::new(SlowLog::DEFAULT_CAPACITY, threshold_micros));
        self
    }

    /// Configures the snapshot directory: `SAVE` requests write there,
    /// and `SHUTDOWN` snapshots there *before* replying, so the
    /// requesting client sees the save outcome (`OK bye saved=…` or
    /// `ERR save failed: …`) instead of a silent post-reply failure.
    #[must_use]
    pub fn with_save_dir(mut self, dir: Option<PathBuf>) -> Server {
        self.save_dir = dir;
        self
    }

    /// Attaches a write-ahead log: every `INGEST` / `BATCH INGEST` is
    /// appended and group-commit-fsync'd *before* its `OK` reply is
    /// written (ack-after-fsync), `SAVE` compacts the log against the
    /// snapshot generation (and says so: `… wal=truncated`), and the
    /// `STATS` / `METRICS` wal counters go live. `None` (the default)
    /// keeps the snapshot-only durability story and every reply byte
    /// unchanged.
    #[must_use]
    pub fn with_wal(mut self, wal: Option<Arc<WalManager>>) -> Server {
        self.wal = wal;
        self
    }

    /// The served index, shared. Lets a periodic
    /// [`crate::persist::Snapshotter`] or a signal monitor observe and
    /// snapshot the corpus while [`Server::serve`] blocks.
    pub fn index(&self) -> Arc<PatternIndex> {
        Arc::clone(&self.index)
    }

    /// A handle that stops the serve loop from another thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure (the handle needs the
    /// bound address for its wake-up nudge).
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle { stop: Arc::clone(&self.stop), addr: self.local_addr()? })
    }

    /// The address the listener actually bound.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections on the epoll reactor until a client sends
    /// `SHUTDOWN` (or a [`ShutdownHandle`] fires), then returns the
    /// shared index (so the caller can persist it or inspect its
    /// [`crate::index::SnapshotStatus`]).
    ///
    /// Accept errors are treated as transient (EMFILE under fd pressure,
    /// ECONNABORTED, …): the reactor backs off briefly and retries, so
    /// the in-memory corpus is never lost to a hiccup.
    ///
    /// # Errors
    ///
    /// Reactor setup failures only (`epoll_create1`, `eventfd`,
    /// registering the listener). Off Linux, always
    /// [`io::ErrorKind::Unsupported`]: the daemon is Linux-only.
    pub fn serve(self) -> io::Result<Arc<PatternIndex>> {
        // One account for every connection's in-flight request buffers:
        // admission is against the *root* budget anyway, and a shared
        // account keeps the STATS story simple.
        let buffers = self.quota.account("buffers");
        let state = ServeState {
            listener: self.listener,
            index: self.index,
            stop: self.stop,
            save_dir: self.save_dir,
            wal: self.wal,
            metrics: self.metrics,
            slow_log: self.slow_log,
            quota: self.quota,
            buffers,
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
        };
        runtime::serve(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexOptions;
    use std::io::{BufRead, BufReader, Write};

    fn start() -> (SocketAddr, std::thread::JoinHandle<Arc<PatternIndex>>) {
        start_configured(|server| server)
    }

    /// Like [`start`] but lets the test apply governance builders
    /// (`with_memory_limit`, `with_max_connections`, ...) before serving.
    fn start_configured(
        configure: impl FnOnce(Server) -> Server,
    ) -> (SocketAddr, std::thread::JoinHandle<Arc<PatternIndex>>) {
        let index = PatternIndex::new(IndexOptions::default());
        let server = configure(Server::bind("127.0.0.1:0", index).unwrap());
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("server runs"));
        (addr, handle)
    }

    /// Extract `STAT <key> <value>` from a STATS reply.
    fn stat_value(stats: &str, key: &str) -> u64 {
        let prefix = format!("STAT {key} ");
        stats
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("missing {key} in {stats}"))
            .parse()
            .unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
        stream.write_all(request.as_bytes()).unwrap();
        stream.flush().unwrap();
        // One outstanding request at a time, so a throwaway BufReader
        // cannot buffer past the reply it is framing.
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        crate::protocol::read_reply(&mut reader).expect("server replied")
    }

    #[test]
    fn ingest_query_stats_shutdown_lifecycle() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();

        let reply = roundtrip(&mut stream, "INGEST w h0 write 64;h0 write 64\n");
        assert_eq!(reply, "OK id=0 name=e0 entries=1\n");
        let reply = roundtrip(&mut stream, "INGEST r h0 read 8;h0 read 8\n");
        assert_eq!(reply, "OK id=1 name=e1 entries=2\n");

        let reply = roundtrip(&mut stream, "QUERY k=1 h0 write 64;h0 write 64\n");
        assert!(reply.starts_with("OK matches=1 label=w\n"), "{reply}");
        assert!(reply.contains("MATCH 1 e0 w "), "{reply}");
        assert!(reply.ends_with("END\n"));

        let reply = roundtrip(&mut stream, "STATS\n");
        assert!(reply.contains("STAT entries 2\n"), "{reply}");
        assert!(reply.contains("STAT generation 2\n"), "{reply}");
        assert!(reply.contains("STAT queries 1\n"), "{reply}");

        let reply = roundtrip(&mut stream, "BOGUS\n");
        assert!(reply.starts_with("ERR unknown verb"), "{reply}");

        let reply = roundtrip(&mut stream, "SHUTDOWN\n");
        assert_eq!(reply, "OK bye\n");
        let index = handle.join().unwrap();
        assert_eq!(index.len(), 2, "server hands the corpus back on shutdown");
    }

    #[test]
    fn batch_ingest_and_mquery_lifecycle() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();

        let reply = roundtrip(
            &mut stream,
            "BATCH INGEST 3\nw h0 write 64;h0 write 64\nr h0 read 8;h0 read 8\nw h0 write 64\n",
        );
        assert_eq!(reply, "OK batch=3 entries=3\n");

        let reply = roundtrip(&mut stream, "MQUERY k=1 2\nh0 write 64;h0 write 64\nh0 read 8\n");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK queries=2");
        assert_eq!(lines[1], "RESULT 1 matches=1 label=w");
        assert!(lines[2].starts_with("MATCH 1 e0 w "), "{reply}");
        assert_eq!(lines[3], "RESULT 2 matches=1 label=r");
        assert!(lines[4].starts_with("MATCH 1 e1 r "), "{reply}");
        assert_eq!(*lines.last().unwrap(), "END");

        let reply = roundtrip(&mut stream, "STATS\n");
        assert!(reply.contains("STAT entries 3\n"), "{reply}");
        assert!(reply.contains("STAT generation 3\n"), "{reply}");

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        let index = handle.join().unwrap();
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn bad_batch_item_keeps_the_connection_framed() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();

        // Item 2 is malformed; the server must consume item 3 anyway and
        // reject the whole batch without ingesting anything.
        let reply = roundtrip(
            &mut stream,
            "BATCH INGEST 3\nw h0 write 64\nbroken-no-trace\nw h0 write 32\n",
        );
        assert!(reply.starts_with("ERR item 2/3:"), "{reply}");

        // The connection is still usable and nothing was ingested.
        let reply = roundtrip(&mut stream, "STATS\n");
        assert!(reply.contains("STAT entries 0\n"), "{reply}");
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn batch_cumulative_bytes_are_capped() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Twenty individually legal ~0.9 MiB items (each under the 1 MiB
        // per-line cap) that together cross the 16 MiB cumulative cap, so
        // the batch is rejected as a whole and nothing is ingested — but
        // the connection stays framed.
        let item = format!("w {}", "h0 write 64;".repeat(75_000));
        assert!(item.len() < 1 << 20, "item must stay under the line cap");
        let mut batch = String::from("BATCH INGEST 20\n");
        for _ in 0..20 {
            batch.push_str(&item);
            batch.push('\n');
        }
        let reply = roundtrip(&mut stream, &batch);
        assert!(reply.starts_with("ERR batch exceeds"), "{reply}");
        let reply = roundtrip(&mut stream, "STATS\n");
        assert!(reply.contains("STAT entries 0\n"), "{reply}");
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_queries_share_the_index_without_a_global_lock() {
        let (addr, handle) = start();
        let mut seed = TcpStream::connect(addr).unwrap();
        for i in 0..8 {
            let reply =
                roundtrip(&mut seed, &format!("INGEST w{i} h0 write {};h0 write {0}\n", 64 << i));
            assert!(reply.starts_with("OK id="), "{reply}");
        }
        let readers: Vec<_> = (0..4)
            .map(|r| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for i in 0..5 {
                        let bytes = 64 << ((r + i) % 8);
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        stream
                            .write_all(
                                format!("QUERY k=2 h0 write {bytes};h0 write {bytes}\n").as_bytes(),
                            )
                            .unwrap();
                        let reply = crate::protocol::read_reply(&mut reader).unwrap();
                        assert!(reply.starts_with("OK matches=2"), "{reply}");
                        assert!(reply.ends_with("END\n"), "{reply}");
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(roundtrip(&mut seed, "SHUTDOWN\n"), "OK bye\n");
        let index = handle.join().unwrap();
        assert_eq!(index.stats().queries, 20);
    }

    #[test]
    fn idle_connection_does_not_block_other_clients() {
        let (addr, handle) = start();
        // An idle client holds its connection open the whole time.
        let idle = TcpStream::connect(addr).unwrap();
        let mut active = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut active, "INGEST w h0 write 64\n");
        assert_eq!(reply, "OK id=0 name=e0 entries=1\n");
        let reply = roundtrip(&mut active, "SHUTDOWN\n");
        assert_eq!(reply, "OK bye\n");
        // Shutdown must complete even though `idle` never disconnected.
        let index = handle.join().unwrap();
        assert_eq!(index.len(), 1);
        drop(idle);
    }

    #[test]
    fn oversized_request_line_is_rejected_and_drained() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        // Stream 2 MiB — double the cap — before the newline. The server
        // must answer with a bounded error, drain the rest of the line,
        // and keep the connection framed for the next request.
        let mut line = vec![b'a'; 2 << 20];
        line.push(b'\n');
        stream.write_all(&line).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR line too long\n");
        // Same connection, next request: fully usable.
        let reply = roundtrip(&mut stream, "INGEST w h0 write 64\n");
        assert_eq!(reply, "OK id=0 name=e0 entries=1\n");
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn memory_pressure_sheds_ingests_but_keeps_serving() {
        let (addr, handle) = start_configured(|s| s.with_memory_limit(Some(4096)));
        let mut stream = TcpStream::connect(addr).unwrap();

        // A small ingest fits the 4 KiB budget.
        let reply = roundtrip(&mut stream, "INGEST small h0 write 64;h0 write 64\n");
        assert!(reply.starts_with("OK id=0"), "{reply}");

        // Each of these would add ~5 KiB of corpus; all three must be
        // shed with the busy error, and the connection must stay open.
        let fat = format!("INGEST fat{{}} {}\n", "h0 write 64;".repeat(100));
        let mut busy_seen = 0u64;
        for i in 0..3 {
            let reply = roundtrip(&mut stream, &fat.replace("{}", &i.to_string()));
            assert_eq!(reply, "ERR busy reason=memory\n");
            busy_seen += 1;
        }

        // An over-budget batch sheds with the same reply (and counts
        // once, like the single busy reply the client saw).
        let batch = format!("BATCH INGEST 1\nw {}\n", "h0 write 64;".repeat(100));
        assert_eq!(roundtrip(&mut stream, &batch), "ERR busy reason=memory\n");
        busy_seen += 1;

        // Reads still work under pressure and the books balance: the shed
        // tally equals the busy replies the client observed, and usage
        // never exceeds the configured limit.
        let reply = roundtrip(&mut stream, "QUERY k=1 h0 write 64;h0 write 64\n");
        assert!(reply.starts_with("OK matches=1"), "{reply}");
        let stats = roundtrip(&mut stream, "STATS\n");
        assert_eq!(stat_value(&stats, "shed_memory"), busy_seen);
        assert_eq!(stat_value(&stats, "mem_limit_bytes"), 4096);
        assert!(stat_value(&stats, "mem_used_bytes") <= 4096, "{stats}");
        // The interner held tokens before STATS ran, so the report-only
        // accounts must show up — and they are a subset of mem_used_bytes.
        let unreclaimable = stat_value(&stats, "mem_unreclaimable_bytes");
        assert!(unreclaimable > 0, "interned tokens are charged: {stats}");
        assert!(unreclaimable <= stat_value(&stats, "mem_used_bytes"), "{stats}");
        assert_eq!(stat_value(&stats, "entries"), 1);

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn connection_admission_sheds_with_busy_reply() {
        let (addr, handle) = start_configured(|s| s.with_max_connections(1));
        let mut first = TcpStream::connect(addr).unwrap();
        // Roundtrip guarantees the first connection is registered before
        // the second one races the accept loop.
        let reply = roundtrip(&mut first, "INGEST w h0 write 64\n");
        assert!(reply.starts_with("OK id=0"), "{reply}");

        let second = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(second);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR busy reason=connections\n");
        // The shed connection is closed immediately after the error.
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0);

        let stats = roundtrip(&mut first, "STATS\n");
        assert_eq!(stat_value(&stats, "shed_connections"), 1);
        // No request was ever read from the shed connection.
        assert_eq!(stat_value(&stats, "request_errors"), 0);

        assert_eq!(roundtrip(&mut first, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn idle_timeout_closes_silent_connections() {
        let (addr, handle) =
            start_configured(|s| s.with_idle_timeout(Some(Duration::from_millis(50))));
        // Three clients go quiet: one says nothing, one stops mid-line,
        // one stops mid-batch (the header and one of three items). The
        // server must hang up on each of them, not the reverse; the
        // client read timeout turns a missed reap into a failure instead
        // of a hang.
        for wire in ["", "QUERY k=1 h0 write 64", "BATCH INGEST 3\nw h0 write 64\n"] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            stream.write_all(wire.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0, "after {wire:?}: {line}");
        }

        let mut fresh = TcpStream::connect(addr).unwrap();
        let stats = roundtrip(&mut fresh, "STATS\n");
        assert_eq!(stat_value(&stats, "timeouts"), 3);
        assert_eq!(roundtrip(&mut fresh, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn ungoverned_stats_report_zeroed_governance_keys() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        let stats = roundtrip(&mut stream, "STATS\n");
        for key in [
            "mem_used_bytes",
            "mem_limit_bytes",
            "mem_unreclaimable_bytes",
            "mem_reclaims",
            "shed_memory",
            "timeouts",
        ] {
            assert_eq!(stat_value(&stats, key), 0, "{key}");
        }
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn survives_client_disconnect() {
        let (addr, handle) = start();
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"INGEST w h0 write 64\n").unwrap();
            // Drop without reading the reply: the server must accept the
            // next connection regardless.
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut stream, "SHUTDOWN\n");
        assert_eq!(reply, "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn save_without_save_dir_is_a_clean_error() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut stream, "SAVE\n");
        assert!(reply.starts_with("ERR no save directory"), "{reply}");
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn save_verb_snapshots_and_shutdown_reports_the_save() {
        let dir = std::env::temp_dir().join(format!("kastio-server-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default()))
            .unwrap()
            .with_save_dir(Some(dir.clone()));
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("server runs"));
        let mut stream = TcpStream::connect(addr).unwrap();

        roundtrip(&mut stream, "INGEST w h0 write 64;h0 write 64\n");
        let reply = roundtrip(&mut stream, "SAVE\n");
        assert_eq!(reply, "OK saved entries=1 generation=1\n");
        assert!(kastio_trace::wal::snapshot_path(&dir).exists());

        let stats = roundtrip(&mut stream, "STATS\n");
        assert!(stats.contains("STAT snapshots 1\n"), "{stats}");
        assert!(stats.contains("STAT snapshot_errors 0\n"), "{stats}");
        assert!(stats.contains("STAT last_snapshot_ok 1\n"), "{stats}");
        assert!(stats.contains("STAT last_snapshot_generation 1\n"), "{stats}");

        roundtrip(&mut stream, "INGEST r h0 read 8\n");
        let reply = roundtrip(&mut stream, "SHUTDOWN\n");
        assert_eq!(reply, "OK bye saved=2 generation=2\n", "shutdown reports its save");
        let index = handle.join().unwrap();
        assert_eq!(index.snapshot_status().snapshots, 2);

        let restored =
            crate::persist::load_index(&dir, IndexOptions::default()).expect("snapshot loads");
        assert_eq!(restored.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_shutdown_save_is_reported_to_the_requesting_client() {
        // /dev/null is a file, so creating a snapshot directory under it
        // fails with a real IO error even when running as root.
        let server = Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default()))
            .unwrap()
            .with_save_dir(Some(std::path::PathBuf::from("/dev/null/corpus")));
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("server runs"));
        let mut stream = TcpStream::connect(addr).unwrap();
        roundtrip(&mut stream, "INGEST w h0 write 64\n");
        let reply = roundtrip(&mut stream, "SAVE\n");
        assert!(reply.starts_with("ERR save failed:"), "{reply}");
        let reply = roundtrip(&mut stream, "SHUTDOWN\n");
        assert!(reply.starts_with("ERR save failed:"), "{reply}");
        assert!(reply.contains("shutting down anyway"), "{reply}");
        let index = handle.join().unwrap();
        let status = index.snapshot_status();
        assert_eq!(status.errors, 2);
        assert_eq!(status.last_ok, Some(false));
        assert_eq!(index.len(), 1, "the corpus itself is intact in memory");
    }

    #[test]
    fn shutdown_handle_stops_the_server_without_a_client() {
        let (addr, handle, shutdown) = {
            let server =
                Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default())).unwrap();
            let addr = server.local_addr().unwrap();
            let shutdown = server.shutdown_handle().unwrap();
            let handle = std::thread::spawn(move || server.serve().expect("server runs"));
            (addr, handle, shutdown)
        };
        // An idle client is connected; the handle must still stop serve().
        let idle = TcpStream::connect(addr).unwrap();
        shutdown.shutdown();
        let index = handle.join().unwrap();
        assert_eq!(index.len(), 0);
        drop(idle);
    }

    #[test]
    fn hello_negotiates_and_other_verbs_work_without_it() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();

        // A client that never sends HELLO keeps working (back-compat)…
        let reply = roundtrip(&mut stream, "INGEST w h0 write 64\n");
        assert_eq!(reply, "OK id=0 name=e0 entries=1\n");

        // …and the handshake itself round-trips, with and without the
        // optional client token.
        let reply = roundtrip(&mut stream, "HELLO 1\n");
        assert_eq!(reply, crate::protocol::render_hello_reply());
        let reply = roundtrip(&mut stream, "HELLO 1 test-suite\n");
        assert!(reply.starts_with("OK kastio proto=1 "), "{reply}");

        // Unknown versions get the structured rejection, and the
        // connection stays usable.
        let reply = roundtrip(&mut stream, "HELLO 7\n");
        assert_eq!(reply, "ERR unsupported proto 7 (server speaks 1)\n");
        let reply = roundtrip(&mut stream, "QUERY k=1 h0 write 64\n");
        assert!(reply.starts_with("OK matches=1"), "{reply}");

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn stats_reports_connection_and_verb_counters() {
        let server =
            Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default())).unwrap();
        let addr = server.local_addr().unwrap();
        let metrics = Arc::clone(&server.metrics);
        let handle = std::thread::spawn(move || server.serve().expect("server runs"));

        let mut first = TcpStream::connect(addr).unwrap();
        roundtrip(&mut first, "HELLO 1 counter-test\n");
        roundtrip(&mut first, "INGEST w h0 write 64\n");
        roundtrip(&mut first, "BOGUS\n"); // parse error → requests+1, errors+1
        drop(first);

        let mut second = TcpStream::connect(addr).unwrap();
        roundtrip(&mut second, "QUERY k=1 h0 write 64\n");
        let stats = roundtrip(&mut second, "STATS\n");
        assert!(stats.contains("STAT connections 2\n"), "{stats}");
        assert!(stats.contains("STAT requests_total 5\n"), "{stats}");
        assert!(stats.contains("STAT request_errors 1\n"), "{stats}");
        assert!(stats.contains("STAT verb_hello 1\n"), "{stats}");
        assert!(stats.contains("STAT verb_ingest 1\n"), "{stats}");
        assert!(stats.contains("STAT verb_query 1\n"), "{stats}");
        assert!(stats.contains("STAT verb_stats 1\n"), "{stats}");
        assert!(stats.contains("STAT uptime_secs "), "{stats}");

        assert_eq!(roundtrip(&mut second, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
        assert_eq!(metrics.connections.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.verbs[7].load(Ordering::Relaxed), 1, "one SHUTDOWN");
        assert_eq!(metrics.requests.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn metrics_verb_exposes_latency_histograms() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        roundtrip(&mut stream, "INGEST w h0 write 64;h0 write 64\n");
        for _ in 0..3 {
            roundtrip(&mut stream, "QUERY k=1 h0 write 64\n");
        }
        let reply = roundtrip(&mut stream, "METRICS\n");
        assert!(reply.starts_with("OK metrics\n"), "{reply}");
        assert!(reply.ends_with("END\n"), "{reply}");
        assert!(reply.contains("# TYPE kastio_request_latency_ns histogram\n"), "{reply}");
        assert!(reply.contains("kastio_verb_requests_total{verb=\"query\"} 3\n"), "{reply}");
        assert!(
            reply.contains("kastio_request_latency_ns_count{verb=\"query\"} 3\n"),
            "every query lands in the histogram: {reply}"
        );
        assert!(
            reply.contains("kastio_request_latency_ns_bucket{verb=\"query\",le=\"+Inf\"} 3\n"),
            "{reply}"
        );
        assert!(reply.contains("kastio_stage_latency_ns_count{stage=\"kernel\"} 3\n"), "{reply}");
        assert!(reply.contains("kastio_stage_latency_ns_count{stage=\"parse\"} "), "{reply}");
        assert!(reply.contains("kastio_slowlog_entries 0\n"), "{reply}");

        // The quantiles surface in STATS too, now that query has samples.
        let stats = roundtrip(&mut stream, "STATS\n");
        assert!(stats.contains("STAT latency_query_p50_us "), "{stats}");
        assert!(stats.contains("STAT latency_query_p99_us "), "{stats}");
        assert!(stats.contains("STAT verb_metrics 1\n"), "{stats}");

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn traced_query_carries_a_stage_breakdown_line() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        roundtrip(&mut stream, "INGEST w h0 write 64;h0 write 64\n");

        let reply = roundtrip(&mut stream, "QUERY k=1 trace=1 h0 write 64\n");
        assert!(reply.starts_with("OK matches=1 label=w\n"), "{reply}");
        let lines: Vec<&str> = reply.lines().collect();
        let trace = lines[lines.len() - 2];
        assert!(trace.starts_with("TRACE total_us="), "{reply}");
        assert_eq!(*lines.last().unwrap(), "END");
        let fields: std::collections::HashMap<&str, u64> = trace
            .split_whitespace()
            .skip(1)
            .map(|kv| kv.split_once('=').unwrap())
            .map(|(k, v)| (k, v.parse().unwrap()))
            .collect();
        let total = fields["total_us"];
        let stage_sum =
            fields["parse_us"] + fields["prefilter_us"] + fields["cache_us"] + fields["kernel_us"];
        assert!(stage_sum <= total, "stages {stage_sum}µs exceed total {total}µs: {trace}");

        // An untraced query on the same connection stays byte-compatible.
        let reply = roundtrip(&mut stream, "QUERY k=1 h0 write 64\n");
        assert!(!reply.contains("TRACE"), "{reply}");

        // MQUERY gets one TRACE line for the whole batch.
        let reply = roundtrip(&mut stream, "MQUERY k=1 trace=1 2\nh0 write 64\nh0 write 64\n");
        assert!(reply.contains("\nTRACE total_us="), "{reply}");
        assert!(reply.ends_with("END\n"), "{reply}");

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn slow_log_records_and_serves_over_threshold_requests() {
        // Threshold 0 logs everything — the deterministic test hook.
        let server = Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default()))
            .unwrap()
            .with_slow_log(Some(0));
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("server runs"));
        let mut stream = TcpStream::connect(addr).unwrap();

        roundtrip(&mut stream, "INGEST w h0 write 64;h0 write 64\n");
        roundtrip(&mut stream, "QUERY k=1 h0 write 64\n");
        let reply = roundtrip(&mut stream, "SLOWLOG LEN\n");
        assert_eq!(reply, "OK slowlog len=2\n");

        let reply = roundtrip(&mut stream, "SLOWLOG GET\n");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK slowlog entries=3", "LEN itself was logged too: {reply}");
        // Newest first: the LEN request, then the query, then the ingest.
        assert!(lines[1].contains("verb=SLOWLOG") && lines[1].contains("args=LEN"), "{reply}");
        assert!(lines[2].contains("verb=QUERY"), "{reply}");
        assert!(lines[2].contains("args=k=1,ops=1"), "{reply}");
        assert!(lines[2].contains("kernel:"), "query entries carry stage spans: {reply}");
        assert!(lines[3].contains("verb=INGEST") && lines[3].contains("label=w"), "{reply}");
        assert!(*lines.last().unwrap() == "END", "{reply}");

        let reply = roundtrip(&mut stream, "SLOWLOG RESET\n");
        assert_eq!(reply, "OK slowlog reset\n");
        let reply = roundtrip(&mut stream, "SLOWLOG GET\n");
        assert!(reply.starts_with("OK slowlog entries=1\n"), "only the RESET itself: {reply}");

        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn slow_log_is_disabled_by_default() {
        let (addr, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        roundtrip(&mut stream, "INGEST w h0 write 64\n");
        roundtrip(&mut stream, "QUERY k=1 h0 write 64\n");
        assert_eq!(roundtrip(&mut stream, "SLOWLOG LEN\n"), "OK slowlog len=0\n");
        assert_eq!(roundtrip(&mut stream, "SLOWLOG GET\n"), "OK slowlog entries=0\nEND\n");
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        handle.join().unwrap();
    }

    #[test]
    fn batch_header_eof_before_items_closes_cleanly() {
        let (addr, handle) = start();
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Announce 2 items but hang up after the header.
            stream.write_all(b"BATCH INGEST 2\n").unwrap();
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut stream, "SHUTDOWN\n"), "OK bye\n");
        let index = handle.join().unwrap();
        assert_eq!(index.len(), 0, "a truncated batch ingests nothing");
    }
}
