//! The client side of the daemon's line protocol: a connection that waits
//! for replies with a precise deadline, and typed `STATS` handling.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use kastio_index::read_reply;

/// A connection (or a daemon start) that shows no progress for this long
/// is declared dead, so a hung daemon fails the run instead of hanging it.
pub const STALL_LIMIT: Duration = Duration::from_secs(60);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Lets timed waits of this thread, and of every thread it starts later,
/// end within 1 ns of their deadline instead of the default 50 µs timer
/// slack, which an open-loop sender would otherwise add to every request
/// it times from the due send time.
pub fn tight_timers() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes the slack in ns by value and reads
    // no memory; the unused arguments are zero.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Acknowledges the next segment at once instead of delaying the ACK.
/// The daemon does not disable Nagle's algorithm, so a reply written
/// while an earlier one is still unacknowledged waits for that ACK; a
/// pipelining client that delays its ACKs would then see each reply only
/// when it sends its next request. Linux clears the mode again on its
/// own, so it is re-armed after every read.
fn quick_ack(fd: i32) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: `on` is a live 4-byte int and the length passed says so;
    // the kernel only reads it.
    let done = unsafe { setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, (&on as *const i32).cast(), 4) };
    if done == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Waits until `fd` is readable or `until` passes; `false` on timeout.
/// `ppoll` sleeps on a high-resolution timer, so an open-loop sender
/// wakes within microseconds of its next due time; a socket read timeout
/// would round to the scheduler tick.
pub fn wait_readable(fd: i32, until: Instant) -> io::Result<bool> {
    let mut pollfd = PollFd { fd, events: POLLIN, revents: 0 };
    let timeout = until.saturating_duration_since(Instant::now());
    let limit = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pollfd` is one valid, initialised `struct pollfd` and nfds
    // is 1; `limit` is a `struct timespec` that lives until the call
    // returns; a null sigmask leaves the signal mask alone. The layouts
    // match the Linux 64-bit ABI (int, short, short; two 64-bit longs).
    let ready = unsafe { ppoll(&mut pollfd, 1, &limit, std::ptr::null()) };
    match ready {
        -1 => {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(error)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// One client connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        quick_ack(stream.as_raw_fd())?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Waits until a reply starts to arrive or `until` passes, then
    /// appends every complete reply already received, each with the time
    /// it was read.
    pub fn receive(&mut self, until: Instant, out: &mut Vec<(Instant, String)>) -> io::Result<()> {
        let fd = self.writer.as_raw_fd();
        if self.reader.buffer().is_empty() && !wait_readable(fd, until)? {
            return Ok(());
        }
        loop {
            let reply = read_reply(&mut self.reader)?;
            out.push((Instant::now(), reply));
            quick_ack(fd)?;
            if self.reader.buffer().is_empty() {
                return Ok(());
            }
        }
    }

    /// Sends one request and waits for its reply.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<String> {
        self.send(request)?;
        let until = Instant::now() + STALL_LIMIT;
        let mut replies = Vec::new();
        while replies.is_empty() {
            if Instant::now() >= until {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            self.receive(until, &mut replies)?;
        }
        if replies.len() > 1 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "unrequested reply"));
        }
        Ok(replies.pop().expect("one reply").1)
    }

    /// The protocol handshake; returns its round-trip time.
    pub fn hello(&mut self) -> Result<Duration, String> {
        let started = Instant::now();
        let reply = self.round_trip(b"HELLO 1 kbench\n").map_err(|e| format!("HELLO: {e}"))?;
        let rtt = started.elapsed();
        if !reply.starts_with("OK kastio proto=1") {
            return Err(format!("the daemon rejected the handshake: {}", reply.trim_end()));
        }
        Ok(rtt)
    }

    pub fn stats(&mut self) -> Result<Stats, String> {
        let reply = self.round_trip(b"STATS\n").map_err(|e| format!("STATS: {e}"))?;
        Ok(Stats::parse(&reply))
    }
}

/// `STATS` keys that are monotonic counters: the only ones a delta is
/// ever taken of. Everything else — sizes, the snapshot block, uptime,
/// memory gauges and the `latency_*` percentiles — is a gauge, reported
/// as its after-value and never subtracted.
const COUNTERS: [&str; 18] = [
    "queries",
    "kernel_evals",
    "cache_hits",
    "prefilter_pruned",
    "ingest_evals",
    "query_self_evals",
    "snapshots",
    "snapshot_errors",
    "wal_records",
    "wal_bytes",
    "wal_fsyncs",
    "connections",
    "requests_total",
    "request_errors",
    "mem_reclaims",
    "shed_memory",
    "shed_connections",
    "timeouts",
];

fn is_counter(key: &str) -> bool {
    COUNTERS.contains(&key) || key.starts_with("verb_")
}

/// One parsed `STATS` reply.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    values: BTreeMap<String, u64>,
}

impl Stats {
    /// Keeps every `STAT <key> <integer>` line; `-` values are skipped.
    pub fn parse(reply: &str) -> Stats {
        let values = reply
            .lines()
            .filter_map(|line| {
                let mut fields = line.strip_prefix("STAT ")?.split_whitespace();
                let key = fields.next()?;
                let value = fields.next()?.parse().ok()?;
                Some((key.to_string(), value))
            })
            .collect();
        Stats { values }
    }

    /// How much counter `key` grew since `before`.
    ///
    /// # Panics
    ///
    /// When `key` is a gauge: a difference of gauges — of percentiles
    /// especially — is not a measurement.
    pub fn delta(&self, before: &Stats, key: &str) -> u64 {
        assert!(is_counter(key), "`{key}` is a gauge; take its after-value instead");
        let value = |stats: &Stats| stats.values.get(key).copied().unwrap_or(0);
        value(self).saturating_sub(value(before))
    }

    /// Every counter's delta and every gauge's after-value, one
    /// `key=value` per entry, for the report.
    pub fn describe_since(&self, before: &Stats) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for (key, value) in &self.values {
            if is_counter(key) {
                counters.push(format!("{key}=+{}", self.delta(before, key)));
            } else {
                gauges.push(format!("{key}={value}"));
            }
        }
        format!("counters(delta): {}\n  gauges(after): {}", counters.join(" "), gauges.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_subtract_counters_only() {
        let before = Stats::parse("STAT entries 4\nSTAT cache_hits 10\nSTAT verb_query 1\nEND\n");
        let after = Stats::parse(
            "STAT entries 9\nSTAT cache_hits 25\nSTAT verb_query 4\nSTAT latency_query_p50_us 80\n\
             STAT last_snapshot_ok -\nEND\n",
        );
        assert_eq!(after.delta(&before, "cache_hits"), 15);
        assert_eq!(after.delta(&before, "verb_query"), 3);
        let text = after.describe_since(&before);
        assert!(text.contains("cache_hits=+15") && text.contains("latency_query_p50_us=80"));
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn percentiles_are_never_subtracted() {
        let stats = Stats::parse("STAT latency_query_p50_us 80\n");
        stats.delta(&stats, "latency_query_p50_us");
    }
}
