//! The hand-rolled epoll reactor: the serve daemon's only runtime
//! (Linux only).
//!
//! One reactor thread owns every socket and an `epoll` instance; request
//! execution — kernel scoring, WAL fsync waits, snapshot writes — runs
//! inline on a small bounded worker pool, one request per worker at a
//! time. The contract that keeps tens of thousands of connections
//! responsive is simple: **the reactor thread never blocks**. Not on
//! `wait_durable`, not on `score_batch`, not on a slow peer's send
//! buffer. Anything that can take real time is a job for the pool; the
//! pool posts a completion and rings the [`EventFd`] wakeup, and the
//! reactor — woken by epoll like for any other readiness — writes the
//! reply out and re-arms the connection.
//!
//! Each connection is a small state machine:
//!
//! ```text
//!        read chunk            header line           items done
//! idle ──────────────▶ framing ──────────▶ collecting ─────────┐
//!   ▲                     │ unbatched verb                     ▼
//!   │                     └────────────────────────────▶ inflight (worker)
//!   │                                                          │ completion
//!   │                 write buffer flushed                     ▼
//!   └───────────────────────────────────────────────────── writing
//! ```
//!
//! * **framing** — bytes accumulate in a [`LineFramer`]; complete lines
//!   come out with the 1 MiB cap, UTF-8 validation and over-long-line
//!   draining of `read_line`.
//! * **collecting** — a batched header's announced item lines feed the
//!   [`ItemCollector`].
//! * **inflight** — the parsed request rides a [`Job`] to the worker
//!   pool. While a request is in flight the reactor stops *consuming*
//!   buffered bytes for this connection (one request at a time) but
//!   keeps the already-read bytes for pipelining.
//! * **writing** — the rendered reply sits in a per-connection write
//!   buffer, drained as `EPOLLOUT` allows. A slow reader only fills its
//!   own buffer (backpressure: reads stay paused until the reply is
//!   out); other connections are unaffected.
//!
//! Governance lives reactor-side: `--max-connections` sheds at accept
//! with `ERR busy reason=connections`, `--idle-timeout-secs` reaps
//! connections silent past the deadline with no request in flight and
//! no reply to write — including ones that went quiet mid-line or
//! mid-batch (counted in `timeouts`) — and over-long lines get `ERR line
//! too long` with the remainder drained.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_void};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::fault::{crash_point, CRASH_AFTER_ACK};
use crate::index::PatternIndex;
use crate::protocol::{parse_batch_ingest_item, parse_request, FramedLine, LineFramer, Request};

use super::dispatch::{
    execute_parsed, finish_after_write, parse_mquery_item, span_ns, CollectedItems, Executed,
    ItemCollector, RequestContext,
};
use super::{sys, ServeState};

/// Token 0 is the listener, 1 the eventfd wakeup; connections count up
/// from 2 and tokens are never reused, so a stale kernel event for a
/// closed connection simply misses the map.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Serves the daemon on the reactor until `SHUTDOWN` / the stop flag.
pub(crate) fn serve(state: ServeState) -> io::Result<Arc<PatternIndex>> {
    let mut reactor = Reactor::new(state)?;
    reactor.run()?;
    let index = Arc::clone(&reactor.index);
    reactor.shutdown();
    Ok(index)
}

/// An owned epoll instance.
struct EpollFd(RawFd);

impl EpollFd {
    fn new() -> io::Result<EpollFd> {
        // SAFETY: no pointers involved; a failed call returns -1.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollFd(fd))
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = sys::EpollEvent { events, data: token };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.0, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) {
        // Deregistration is best-effort: close() removes the fd from the
        // interest list anyway.
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        let _ = unsafe { sys::epoll_ctl(self.0, sys::EPOLL_CTL_DEL, fd, &mut event) };
    }

    /// Blocks up to `timeout_ms` (-1: forever) for readiness, retrying
    /// on `EINTR` (a signal is not an event).
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        loop {
            let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            // SAFETY: `events` is a valid, writable buffer of `capacity`
            // records for the duration of the call.
            let n = unsafe { sys::epoll_wait(self.0, events.as_mut_ptr(), capacity, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let error = io::Error::last_os_error();
            if error.kind() != io::ErrorKind::Interrupted {
                return Err(error);
            }
        }
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { sys::close(self.0) };
    }
}

/// The worker → reactor wakeup channel: an 8-byte counter fd the pool
/// writes after posting a completion, registered with epoll like any
/// socket. Non-blocking on both ends — a full counter (never in
/// practice) only means the reactor is already awake.
struct EventFd(RawFd);

impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers involved; a failed call returns -1.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd(fd))
    }

    /// Rings the wakeup (adds 1 to the counter).
    fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a live stack value.
        unsafe { sys::write(self.0, std::ptr::addr_of!(one).cast::<c_void>(), 8) };
    }

    /// Drains the counter so the next signal raises a fresh `EPOLLIN`.
    fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reading 8 bytes into a live stack value.
        unsafe { sys::read(self.0, std::ptr::addr_of_mut!(count).cast::<c_void>(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { sys::close(self.0) };
    }
}

/// Per-socket setup at accept. Non-blocking, because the reactor must
/// never block in `read`/`write`. `TCP_NODELAY`, because a reply written
/// while the previous one is still unacked would otherwise sit in Nagle's
/// buffer until the client's delayed ACK arrives.
fn configure_accepted(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// One parsed request on its way to the worker pool.
struct Job {
    token: u64,
    request: Result<Request, String>,
    started: Instant,
    parse_ns: u64,
    items: CollectedItems,
}

/// One executed request on its way back to the reactor.
struct Completion {
    token: u64,
    executed: Executed,
}

/// The queue the reactor and the worker pool share.
struct WorkerShared {
    /// Pending jobs + the shutdown flag, under one lock so a worker
    /// never misses the final notify.
    jobs: Mutex<(VecDeque<Job>, bool)>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    wake: Arc<EventFd>,
}

fn worker_loop(ctx: RequestContext, shared: Arc<WorkerShared>) {
    loop {
        let job = {
            let mut guard = shared.jobs.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                if let Some(job) = guard.0.pop_front() {
                    break job;
                }
                if guard.1 {
                    return; // shutdown, queue drained
                }
                guard =
                    shared.available.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Job { token, request, started, parse_ns, items } = job;
        let executed = execute_parsed(&ctx, request, started, parse_ns, items);
        shared
            .completions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Completion { token, executed });
        shared.wake.signal();
    }
}

/// Why a connection is being closed — only the idle reap is counted.
enum Close {
    /// Peer gone, protocol hangup, or write failure.
    Gone,
    /// The idle deadline fired (counts into `timeouts`).
    Idle,
}

/// What the collector half of a pending batched request holds.
enum PendingItems {
    Batch(ItemCollector<(String, kastio_trace::Trace)>),
    Queries(ItemCollector<kastio_trace::Trace>),
}

impl PendingItems {
    fn push(&mut self, line: FramedLine) {
        match self {
            PendingItems::Batch(collector) => collector.push(line),
            PendingItems::Queries(collector) => collector.push(line),
        }
    }

    fn done(&self) -> bool {
        match self {
            PendingItems::Batch(collector) => collector.done(),
            PendingItems::Queries(collector) => collector.done(),
        }
    }

    fn finish(self) -> CollectedItems {
        match self {
            PendingItems::Batch(collector) => {
                let (items, charge) = collector.finish();
                CollectedItems::Batch(items, charge)
            }
            PendingItems::Queries(collector) => {
                let (items, charge) = collector.finish();
                CollectedItems::Queries(items, charge)
            }
        }
    }
}

/// A batched header waiting for its announced item lines.
struct PendingBatch {
    request: Request,
    started: Instant,
    items: PendingItems,
}

/// Bookkeeping that rides a reply into the write buffer and fires once
/// the last byte is flushed.
struct AfterWrite {
    executed: Executed,
    write_started: Instant,
}

/// One connection's reactor-side state machine.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    /// A batched header collecting its item lines.
    pending: Option<PendingBatch>,
    /// Reply bytes not yet accepted by the kernel.
    write_buf: Vec<u8>,
    written: usize,
    /// A request is executing on the worker pool; reads are paused
    /// (bytes still buffer in the kernel and the framer — pipelining
    /// resumes when the completion lands).
    inflight: bool,
    after_write: Option<AfterWrite>,
    last_activity: Instant,
    /// The epoll interest mask currently registered for this fd.
    interest: u32,
    /// The peer half-closed its send direction; process what is
    /// buffered, then finish the trailing partial line and close.
    peer_eof: bool,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Reapable once silent past the idle deadline: no request in flight
    /// and no reply to write. A partial line in the framer or a batch
    /// still collecting its items does not protect a silent peer.
    fn is_idle(&self) -> bool {
        !self.inflight && !self.wants_write()
    }
}

pub(crate) struct Reactor {
    epoll: EpollFd,
    wake: Arc<EventFd>,
    listener: TcpListener,
    index: Arc<PatternIndex>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    ctx: RequestContext,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: Arc<WorkerShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    max_connections: usize,
    idle_timeout: Option<Duration>,
}

impl Reactor {
    fn new(state: ServeState) -> io::Result<Reactor> {
        let epoll = EpollFd::new()?;
        let wake = Arc::new(EventFd::new()?);
        epoll.add(wake.0, sys::EPOLLIN, TOKEN_WAKE)?;
        state.listener.set_nonblocking(true)?;
        epoll.add(state.listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        let ctx = RequestContext::of(&state);
        let shared = Arc::new(WorkerShared {
            jobs: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            wake: Arc::clone(&wake),
        });
        // Every request runs inline on its worker, so the pool is the
        // daemon's only parallelism: about one worker per core, at least
        // two so that one slow save or fsync wait cannot starve queries,
        // at most eight.
        let pool = std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(2, 8);
        let workers = (0..pool)
            .map(|_| {
                let (ctx, shared) = (ctx.clone(), Arc::clone(&shared));
                std::thread::spawn(move || worker_loop(ctx, shared))
            })
            .collect();
        Ok(Reactor {
            epoll,
            wake,
            listener: state.listener,
            index: Arc::clone(&state.index),
            stop: Arc::clone(&state.stop),
            ctx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            shared,
            workers,
            max_connections: state.max_connections,
            idle_timeout: state.idle_timeout,
        })
    }

    /// The event loop: runs until the stop flag (raised by a `SHUTDOWN`
    /// completion, a [`crate::ShutdownHandle`], or the signal monitor).
    fn run(&mut self) -> io::Result<()> {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        while !self.stop.load(Ordering::SeqCst) {
            // With an idle deadline armed the loop must tick even when
            // no fd fires, to reap silent connections; 500 ms bounds the
            // reap latency for long deadlines, 10 ms the spin for very
            // short (test-sized) ones.
            let timeout_ms = self.idle_timeout.map_or(-1, |timeout| {
                c_int::try_from(timeout.as_millis().clamp(10, 500)).unwrap_or(500)
            });
            let n = self.epoll.wait(&mut events, timeout_ms)?;
            for event in &events[..n] {
                // Copy out of the (possibly packed) record before use.
                let (bits, token) = (event.events, event.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_completions(),
                    token => self.conn_event(token, bits),
                }
                if self.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            self.reap_idle();
        }
        Ok(())
    }

    /// Joins the pool and drops every connection (sockets close on
    /// drop). Called after the event loop exits, so no reply in flight
    /// is silently abandoned before its write completed — `SHUTDOWN`
    /// stops the loop only once its `OK bye` left the socket.
    fn shutdown(&mut self) {
        {
            let mut guard =
                self.shared.jobs.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.1 = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Level-triggered accept: take everything the backlog holds.
    fn accept_ready(&mut self) {
        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) if self.stop.load(Ordering::SeqCst) => return,
                Err(_) => {
                    // Transient accept failure (EMFILE, ECONNABORTED…):
                    // back off briefly instead of spinning on the
                    // level-triggered readiness.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            // Connection admission: past the cap, shed loudly — one
            // readable reply line, then close. The socket is fresh, so
            // the blocking best-effort write cannot stall the reactor
            // (the send buffer is empty).
            if self.conns.len() >= self.max_connections {
                self.ctx.metrics.record_shed_connection();
                let mut stream = stream;
                let _ = stream.write_all(b"ERR busy reason=connections\n");
                let _ = stream.flush();
                continue;
            }
            if configure_accepted(&stream).is_err() {
                continue; // cannot serve a socket that might block us
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.epoll.add(stream.as_raw_fd(), sys::EPOLLIN, token).is_err() {
                continue;
            }
            self.ctx.metrics.record_connection();
            self.conns.insert(
                token,
                Conn {
                    stream,
                    framer: LineFramer::new(),
                    pending: None,
                    write_buf: Vec::new(),
                    written: 0,
                    inflight: false,
                    after_write: None,
                    last_activity: Instant::now(),
                    interest: sys::EPOLLIN,
                    peer_eof: false,
                },
            );
        }
    }

    /// Applies every completion the worker pool posted.
    fn drain_completions(&mut self) {
        self.wake.drain();
        let completions = std::mem::take(
            &mut *self.shared.completions.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for Completion { token, executed } in completions {
            if !self.conns.contains_key(&token) {
                continue; // connection died while its request executed
            }
            {
                let conn = self.conns.get_mut(&token).expect("checked above");
                conn.inflight = false;
                conn.write_buf.extend_from_slice(executed.reply.as_bytes());
                conn.after_write = Some(AfterWrite { executed, write_started: Instant::now() });
            }
            if !self.try_flush(token) {
                continue;
            }
            // The reply is out (or queued); with the one-at-a-time slot
            // free again, pipelined bytes already buffered can proceed.
            if !self.process_buffered(token) {
                continue;
            }
            self.update_interest(token);
        }
    }

    /// Socket readiness for one connection.
    fn conn_event(&mut self, token: u64, bits: u32) {
        if !self.conns.contains_key(&token) {
            return; // stale event for an already-closed connection
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(token, Close::Gone);
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            if !self.try_flush(token) {
                return;
            }
            if !self.process_buffered(token) {
                return;
            }
        }
        if bits & sys::EPOLLIN != 0 && !self.readable(token) {
            return;
        }
        self.update_interest(token);
    }

    /// Reads everything the socket has, frames it, and advances the
    /// state machine. Returns `false` when the connection was closed.
    fn readable(&mut self, token: u64) -> bool {
        let mut chunk = [0_u8; 64 * 1024];
        loop {
            // While a request is in flight or a reply is still being
            // written, stop *consuming* from the kernel: the socket
            // buffer is the backpressure (and the peer's TCP window
            // after that). What is already framed stays for later.
            {
                let conn = self.conns.get_mut(&token).expect("caller checked token");
                if conn.inflight || conn.wants_write() {
                    return true;
                }
            }
            let read = {
                let conn = self.conns.get_mut(&token).expect("caller checked token");
                match conn.stream.read(&mut chunk) {
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        n
                    }
                    Err(error) if error.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token, Close::Gone);
                        return false;
                    }
                }
            };
            if read == 0 {
                // Half-close: the client may still be reading (a
                // pipelined burst then shutdown(SHUT_WR) is legal), so
                // process what is buffered before hanging up.
                self.conns.get_mut(&token).expect("caller checked token").peer_eof = true;
                if !self.process_buffered(token) {
                    return false;
                }
                return self.finish_eof_if_due(token);
            }
            {
                let conn = self.conns.get_mut(&token).expect("caller checked token");
                conn.framer.push_bytes(&chunk[..read]);
            }
            if !self.process_buffered(token) {
                return false;
            }
        }
    }

    /// Consumes framed lines until the connection blocks on a request in
    /// flight, a pending write, or runs out of lines. Returns `false`
    /// when the connection was closed.
    fn process_buffered(&mut self, token: u64) -> bool {
        loop {
            enum Step {
                Line(FramedLine),
                Blocked,
                Empty,
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else { return false };
                if conn.inflight || conn.wants_write() {
                    Step::Blocked
                } else {
                    match conn.framer.next_line() {
                        Ok(Some(line)) => Step::Line(line),
                        Ok(None) => Step::Empty,
                        Err(_) => {
                            // Invalid UTF-8 is connection-fatal.
                            self.close(token, Close::Gone);
                            return false;
                        }
                    }
                }
            };
            match step {
                Step::Blocked => return true,
                Step::Empty => return self.finish_eof_if_due(token),
                Step::Line(line) => {
                    if !self.advance_line(token, line) {
                        return false;
                    }
                }
            }
        }
    }

    /// Feeds one framed line into the connection's state machine.
    /// Returns `false` when the connection was closed.
    fn advance_line(&mut self, token: u64, line: FramedLine) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        conn.last_activity = Instant::now();
        if let Some(mut pending) = conn.pending.take() {
            // Collecting a batched request's item lines.
            pending.items.push(line);
            if pending.items.done() {
                return self.dispatch_pending(token, pending);
            }
            conn.pending = Some(pending);
            return true;
        }
        let line = match line {
            FramedLine::TooLong => {
                // A readable error, the remainder drained (the framer is
                // draining already), the connection stays framed.
                self.ctx.metrics.record_error();
                conn.write_buf.extend_from_slice(b"ERR line too long\n");
                return self.try_flush(token);
            }
            FramedLine::Full(line) => line,
        };
        if line.trim().is_empty() {
            return true;
        }
        let started = Instant::now();
        let request = parse_request(&line);
        self.ctx.metrics.record_request(request.as_ref().ok());
        match request {
            Ok(Request::BatchIngest { count }) => {
                let items = PendingItems::Batch(ItemCollector::new(
                    count,
                    &self.ctx.buffers,
                    parse_batch_ingest_item,
                ));
                let pending =
                    PendingBatch { request: Request::BatchIngest { count }, started, items };
                if pending.items.done() {
                    return self.dispatch_pending(token, pending);
                }
                self.conns.get_mut(&token).expect("checked above").pending = Some(pending);
                true
            }
            Ok(Request::MultiQuery { k, count, timed }) => {
                let items = PendingItems::Queries(ItemCollector::new(
                    count,
                    &self.ctx.buffers,
                    parse_mquery_item,
                ));
                let pending = PendingBatch {
                    request: Request::MultiQuery { k, count, timed },
                    started,
                    items,
                };
                if pending.items.done() {
                    return self.dispatch_pending(token, pending);
                }
                self.conns.get_mut(&token).expect("checked above").pending = Some(pending);
                true
            }
            request => {
                let parse_ns = span_ns(started);
                self.dispatch(token, request, started, parse_ns, CollectedItems::None);
                true
            }
        }
    }

    /// A batched request has all its item lines: hand it to the pool.
    /// `parse_ns` covers header parse + item collection (the `parse`
    /// stage span).
    fn dispatch_pending(&mut self, token: u64, pending: PendingBatch) -> bool {
        let PendingBatch { request, started, items } = pending;
        let parse_ns = span_ns(started);
        self.dispatch(token, Ok(request), started, parse_ns, items.finish());
        true
    }

    /// Marks the connection in flight and queues the job.
    fn dispatch(
        &mut self,
        token: u64,
        request: Result<Request, String>,
        started: Instant,
        parse_ns: u64,
        items: CollectedItems,
    ) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight = true;
        }
        {
            let mut guard =
                self.shared.jobs.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.0.push_back(Job { token, request, started, parse_ns, items });
        }
        self.shared.available.notify_one();
    }

    /// Pushes buffered reply bytes into the socket until done or
    /// `WouldBlock`. On completion fires the after-write bookkeeping
    /// (crash point, histograms, slow log, shutdown). Returns `false`
    /// when the connection was closed.
    fn try_flush(&mut self, token: u64) -> bool {
        enum Flush {
            Done,
            Partial,
            Failed,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            loop {
                if !conn.wants_write() {
                    break Flush::Done;
                }
                match conn.stream.write(&conn.write_buf[conn.written..]) {
                    Ok(0) => break Flush::Failed,
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                        break Flush::Partial;
                    }
                    Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break Flush::Failed,
                }
            }
        };
        match outcome {
            Flush::Failed => {
                self.close(token, Close::Gone);
                false
            }
            Flush::Partial => {
                self.update_interest(token);
                true
            }
            Flush::Done => {
                let finished = {
                    let conn = self.conns.get_mut(&token).expect("flushed above");
                    conn.write_buf.clear();
                    conn.written = 0;
                    conn.after_write.take()
                };
                if let Some(AfterWrite { executed, write_started }) = finished {
                    if executed.ack_ingest {
                        // Fault injection: with ack-after-fsync ordering,
                        // a crash *after* the ack has left the socket
                        // must already find the record durable.
                        crash_point(CRASH_AFTER_ACK);
                    }
                    let reply_ns = span_ns(write_started);
                    finish_after_write(&self.ctx, &executed, reply_ns);
                    if executed.shutting_down {
                        self.stop.store(true, Ordering::SeqCst);
                    }
                }
                true
            }
        }
    }

    /// At peer EOF with everything quiet, the framer's trailing partial
    /// line (no newline) is still a request — `read_line` semantics —
    /// including as the final item line of a batch. Returns `false` when
    /// the connection was closed.
    fn finish_eof_if_due(&mut self, token: u64) -> bool {
        let tail = {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            if !conn.peer_eof || conn.inflight || conn.wants_write() {
                return true;
            }
            match conn.framer.finish() {
                Err(_) | Ok(None) => None,
                Ok(Some(line)) => Some(line),
            }
        };
        match tail {
            None => {
                // Clean EOF (or invalid UTF-8 / drain cut short —
                // connection-fatal either way, and there is nothing
                // left to reply to).
                self.close(token, Close::Gone);
                false
            }
            Some(line) => {
                if !self.advance_line(token, line) {
                    return false;
                }
                // A header that started a batch at EOF can never get its
                // items — hang up. A dispatched request still answers
                // (its completion path re-enters here with an empty
                // framer and closes then); a blank tail left the
                // connection quiet, so close now.
                let (hangup, quiet) = {
                    let Some(conn) = self.conns.get_mut(&token) else { return false };
                    (conn.pending.is_some(), !conn.inflight && !conn.wants_write())
                };
                if hangup || quiet {
                    self.close(token, Close::Gone);
                    return false;
                }
                true
            }
        }
    }

    /// Re-registers the fd's epoll interest to match the state machine:
    /// writes wanted → `EPOLLOUT`; otherwise reads, but only while no
    /// request is in flight (one at a time — backpressure all the way to
    /// the client's TCP window).
    fn update_interest(&mut self, token: u64) {
        let failed = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let want = if conn.wants_write() {
                sys::EPOLLOUT
            } else if !conn.inflight && !conn.peer_eof {
                sys::EPOLLIN
            } else {
                0
            };
            if want == conn.interest {
                return;
            }
            conn.interest = want;
            self.epoll.modify(conn.stream.as_raw_fd(), want, token).is_err()
        };
        if failed {
            self.close(token, Close::Gone);
        }
    }

    /// Closes connections silent past the deadline (counted as
    /// timeouts).
    fn reap_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else { return };
        let reap: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_idle() && conn.last_activity.elapsed() >= timeout)
            .map(|(&token, _)| token)
            .collect();
        for token in reap {
            self.close(token, Close::Idle);
        }
    }

    fn close(&mut self, token: u64, reason: Close) {
        if let Some(conn) = self.conns.remove(&token) {
            if matches!(reason, Close::Idle) {
                self.ctx.metrics.record_timeout();
            }
            self.epoll.delete(conn.stream.as_raw_fd());
            // Socket closes on drop; the buffer charge of a pending
            // batch (if any) releases on drop with it.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_are_nonblocking_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "sockets start with Nagle on");
        configure_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        // Non-blocking: an empty receive buffer reads as WouldBlock.
        let error = (&accepted).read(&mut [0_u8; 1]).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::WouldBlock);
    }
}
