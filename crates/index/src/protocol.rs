//! The line-oriented text protocol spoken by `kastio serve`.
//!
//! One request per line, one reply per request — except for the batched
//! forms, whose *items* follow the header line, one per line. Traces
//! travel inline with operations separated by `;` (each operation is the
//! plain-text trace line format, `<handle> <op> <bytes>`):
//!
//! ```text
//! HELLO <proto-version> [client]       → OK kastio proto=1 verbs=…
//! INGEST <label> <op>;<op>;…           → OK id=<id> name=<name> entries=<n>
//! BATCH INGEST <count>                 → OK batch=<count> entries=<n>
//! <label> <op>;<op>;…   (count lines)
//! QUERY k=<k> <op>;<op>;…              → OK matches=<m> label=<label|->
//!                                        MATCH <rank> <name> <label> <similarity>
//!                                        … (m lines) …
//!                                        END
//! MQUERY k=<k> <count>                 → OK queries=<count>
//! <op>;<op>;…           (count lines)    RESULT <i> matches=<m> label=<label|->
//!                                        MATCH … (m lines per result) …
//!                                        END
//! STATS                                → STAT <key> <value> … END
//! METRICS                              → OK metrics
//!                                        <Prometheus-style exposition>
//!                                        END
//! SLOWLOG GET|RESET|LEN                → OK slowlog entries=<n> … END /
//!                                        OK slowlog reset /
//!                                        OK slowlog len=<n>
//! SAVE                                 → OK saved entries=<n> generation=<g>
//! SHUTDOWN                             → OK bye (server stops accepting;
//!                                        `OK bye saved=<n> generation=<g>`
//!                                        when a save directory is set)
//! ```
//!
//! `QUERY` and `MQUERY` accept an optional `trace=1` token between the
//! `k=` spec and the payload (`QUERY k=3 trace=1 <trace>`); when present
//! the reply carries one `TRACE total_us=… <stage>_us=…` line before
//! `END` with the server-side per-stage breakdown. The flag is off by
//! default, so untraced replies are byte-identical to protocol v1.
//!
//! Errors are a single `ERR <message>` line; the connection stays open
//! (for the batched forms, all `<count>` item lines are consumed before
//! the `ERR` reply, so the stream stays framed). Similarities are
//! rendered with Rust's shortest-round-trip float formatting, so parsing
//! the decimal text back with `f64::from_str` reconstructs the
//! bit-identical kernel value.
//!
//! The full specification — framing, size caps, error catalogue and a
//! worked transcript — lives in `docs/PROTOCOL.md`.

use kastio_obs::SlowEntry;
use kastio_trace::{parse_trace, write_trace, Trace};

use crate::index::QueryResult;

/// Upper bound on the item count a `BATCH INGEST`/`MQUERY` header may
/// announce; clients with more items issue several batches. Memory is
/// bounded separately: the server also caps a batch's *cumulative* item
/// bytes at the single-request limit (16 MiB), so a maximal item count
/// cannot multiply the per-line cap.
pub const MAX_BATCH_ITEMS: usize = 4096;

/// The protocol version this implementation speaks, negotiated by the
/// `HELLO` verb. Additive changes (new verbs, new `STAT` keys) do not
/// bump it; a breaking change (renamed verb, reshaped reply) must.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one request (or batch item) line: 1 MiB. A client
/// streaming data with no newline would otherwise grow the line buffer
/// without limit and OOM the daemon; 1 MiB comfortably fits any
/// realistic inline trace (a trace line of `n` operations is well under
/// 16 bytes per op). An over-long line is answered with
/// `ERR line too long` and *drained to its newline* — the connection
/// stays framed and usable. The epoll reactor enforces it through
/// [`LineFramer`].
pub const MAX_REQUEST_LINE_BYTES: u64 = 1 << 20;

/// One framed line as [`LineFramer`] emits them.
#[derive(Debug, PartialEq, Eq)]
pub enum FramedLine {
    /// A complete line, **including** its trailing newline (matching
    /// `read_line` output byte for byte, so the batched verbs'
    /// cumulative byte cap counts the newline).
    Full(String),
    /// The line hit [`MAX_REQUEST_LINE_BYTES`] without a newline. The
    /// capped prefix has been discarded and the framer is now *draining*:
    /// it silently swallows bytes until the newline, then resumes
    /// framing. Emitted once per over-long line.
    TooLong,
}

/// Incremental, non-blocking line framing for the epoll reactor: bytes
/// arrive in arbitrary chunks ([`LineFramer::push_bytes`]) and complete
/// protocol lines come out ([`LineFramer::next_line`]), with the same
/// 1 MiB cap, UTF-8 validation and over-long-line drain semantics as a
/// blocking `take(MAX).read_line()` loop — pinned by the conformance and
/// split-framing suites.
///
/// Invalid UTF-8 is connection-fatal (an `InvalidData` error), exactly
/// as `read_line` treats it; validation happens *before* the over-long
/// check so a binary blast cannot be laundered into a polite
/// `ERR line too long`.
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline — re-scanning from 0
    /// on every small chunk would make framing O(n²) per line.
    scanned: usize,
    /// Swallowing the remainder of an over-long line (everything up to
    /// and including the next newline).
    draining: bool,
}

impl LineFramer {
    pub fn new() -> LineFramer {
        LineFramer::default()
    }

    /// Appends freshly read bytes to the frame buffer.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether nothing is buffered and no drain is in progress (the
    /// connection is between requests — safe to reap as idle).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && !self.draining
    }

    /// The next complete line, if one is buffered.
    ///
    /// # Errors
    ///
    /// `InvalidData` when a completed line (or the capped prefix of an
    /// over-long one) is not valid UTF-8 — connection-fatal, as under
    /// `read_line`.
    pub fn next_line(&mut self) -> std::io::Result<Option<FramedLine>> {
        let max = usize::try_from(MAX_REQUEST_LINE_BYTES).unwrap_or(usize::MAX);
        if self.draining {
            match self.buf.iter().position(|&byte| byte == b'\n') {
                Some(at) => {
                    self.buf.drain(..=at);
                    self.scanned = 0;
                    self.draining = false;
                }
                None => {
                    self.buf.clear();
                    self.scanned = 0;
                    return Ok(None);
                }
            }
        }
        let scan_end = self.buf.len().min(max);
        match self.buf[self.scanned..scan_end].iter().position(|&byte| byte == b'\n') {
            Some(at) => {
                let end = self.scanned + at;
                let line: Vec<u8> = self.buf.drain(..=end).collect();
                self.scanned = 0;
                Ok(Some(FramedLine::Full(utf8(line)?)))
            }
            // `>=` with a newline *at* the cap boundary still frames: a
            // line whose newline is byte `max` (1-indexed) is exactly
            // what `take(max).read_line` accepts, found above because
            // `scan_end` includes index `max - 1`.
            None if self.buf.len() >= max => {
                // The capped prefix must be UTF-8 even though it is
                // discarded — read_line validates before the server can
                // notice the length.
                let prefix: Vec<u8> = self.buf.drain(..max).collect();
                utf8(prefix)?;
                self.scanned = 0;
                self.draining = true;
                Ok(Some(FramedLine::TooLong))
            }
            None => {
                self.scanned = scan_end;
                Ok(None)
            }
        }
    }

    /// The peer sent EOF: the final, newline-less partial line — which
    /// `read_line` *does* return and the server *does* process — or
    /// `None` when the connection ended cleanly (empty buffer, or EOF in
    /// the middle of draining an over-long line: hangup, no reply).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the trailing bytes are not valid UTF-8.
    pub fn finish(&mut self) -> std::io::Result<Option<FramedLine>> {
        if self.draining {
            self.buf.clear();
            self.scanned = 0;
            return Ok(None);
        }
        if self.buf.is_empty() {
            return Ok(None);
        }
        let tail: Vec<u8> = std::mem::take(&mut self.buf);
        self.scanned = 0;
        Ok(Some(FramedLine::Full(utf8(tail)?)))
    }
}

fn utf8(bytes: Vec<u8>) -> std::io::Result<String> {
    String::from_utf8(bytes).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// The verb list advertised in the `HELLO` reply, in documentation order.
pub const PROTOCOL_VERBS: &str =
    "HELLO,INGEST,BATCH,QUERY,MQUERY,STATS,METRICS,SLOWLOG,SAVE,SHUTDOWN";

/// A parsed protocol request.
///
/// The batched forms ([`Request::BatchIngest`], [`Request::MultiQuery`])
/// are *headers*: they announce how many item lines follow on the
/// connection. [`parse_request`] parses only the header; the server reads
/// and parses the item lines (via [`parse_batch_ingest_item`] /
/// [`decode_trace_inline`]) before acting.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake. Optional — every other verb works without it
    /// (the protocol is still additive) — but new clients send it first
    /// so a future breaking change can be negotiated instead of
    /// discovered via garbled replies.
    Hello {
        /// The protocol version the client speaks. Parsing accepts any
        /// positive version; the *server* decides whether it is
        /// supported (so the rejection is a structured `ERR`, not a
        /// parse error).
        version: u32,
        /// Optional client identifier (a single token, e.g.
        /// `kastio-loadgen/0.1.0`), for server-side logging only.
        client: Option<String>,
    },
    /// Add one labelled trace to the corpus.
    Ingest {
        /// Label recorded for the new entry.
        label: String,
        /// The decoded trace.
        trace: Trace,
    },
    /// Header: `count` ingest item lines (`<label> <trace>`) follow.
    BatchIngest {
        /// Number of item lines the client will send next.
        count: usize,
    },
    /// k-NN query over the corpus.
    Query {
        /// Number of neighbours requested.
        k: usize,
        /// The decoded query trace.
        trace: Trace,
        /// Whether the client sent `trace=1`: the reply carries a
        /// `TRACE` stage-breakdown line before `END`.
        timed: bool,
    },
    /// Header: `count` query trace lines follow; each is answered with a
    /// `RESULT` block inside one framed reply.
    MultiQuery {
        /// Number of neighbours requested per query.
        k: usize,
        /// Number of query trace lines the client will send next.
        count: usize,
        /// Whether the client sent `trace=1` (one `TRACE` line for the
        /// whole batch, before `END`).
        timed: bool,
    },
    /// Report index counters.
    Stats,
    /// Render the observability state as a Prometheus-style text
    /// exposition.
    Metrics,
    /// Inspect or clear the slow-query log.
    Slowlog(SlowlogCmd),
    /// Snapshot the corpus to the server's save directory now.
    Save,
    /// Stop the server after replying (saving first when a save directory
    /// is configured).
    Shutdown,
}

/// The `SLOWLOG` sub-commands, mirroring Redis's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowlogCmd {
    /// List the held entries, newest first.
    Get,
    /// Clear the entries (ids keep counting).
    Reset,
    /// Report how many entries are held.
    Len,
}

/// Renders a trace in the single-line wire form (`;`-separated ops).
///
/// # Examples
///
/// ```
/// use kastio_index::protocol::{decode_trace_inline, encode_trace_inline};
/// use kastio_trace::parse_trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = parse_trace("h0 open 0\nh0 write 64\nh0 close 0\n")?;
/// let wire = encode_trace_inline(&trace);
/// assert_eq!(wire, "h0 open 0;h0 write 64;h0 close 0");
/// assert_eq!(decode_trace_inline(&wire)?, trace);
/// # Ok(())
/// # }
/// ```
pub fn encode_trace_inline(trace: &Trace) -> String {
    write_trace(trace).trim_end().replace('\n', ";")
}

/// Decodes the single-line wire form back into a trace.
///
/// # Errors
///
/// Returns a human-readable message naming the offending operation if any
/// `;`-separated segment is not a valid trace line.
pub fn decode_trace_inline(wire: &str) -> Result<Trace, String> {
    let text: String = wire.split(';').map(str::trim).collect::<Vec<_>>().join("\n");
    parse_trace(&text).map_err(|e| format!("bad inline trace: {e}"))
}

/// Parses one `BATCH INGEST` item line: `<label> <trace>`.
///
/// # Errors
///
/// Returns a human-readable message when the label or trace is missing or
/// the trace is malformed.
pub fn parse_batch_ingest_item(line: &str) -> Result<(String, Trace), String> {
    let (label, wire) = line
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(|| "batch item needs `<label> <trace>`".to_string())?;
    Ok((label.to_string(), decode_trace_inline(wire)?))
}

fn parse_count(spec: &str) -> Result<usize, String> {
    let count: usize = spec
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("bad count `{spec}` (expected a positive int)"))?;
    if count > MAX_BATCH_ITEMS {
        return Err(format!("count {count} exceeds the batch cap of {MAX_BATCH_ITEMS}"));
    }
    Ok(count)
}

fn parse_k(spec: &str) -> Result<usize, String> {
    spec.strip_prefix("k=")
        .and_then(|v| v.parse().ok())
        .filter(|&k| k > 0)
        .ok_or_else(|| format!("bad k spec `{spec}` (expected k=<positive int>)"))
}

/// Strips an optional leading `trace=1` token, returning whether it was
/// present and the remainder. Only the exact token (followed by
/// whitespace) is recognised; anything else is left for the payload
/// parser to reject with its own message.
fn parse_trace_flag(rest: &str) -> (bool, &str) {
    match rest.strip_prefix("trace=1") {
        Some(after) if after.starts_with(char::is_whitespace) => (true, after.trim_start()),
        _ => (false, rest),
    }
}

/// Parses one request line. For the batched forms this parses only the
/// header; the announced item lines follow on the connection.
///
/// # Errors
///
/// Returns a human-readable message (sent back as `ERR …`) when the line
/// is not a well-formed request.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (line, ""),
    };
    match verb {
        "HELLO" => {
            let (version_spec, client) = match rest.split_once(char::is_whitespace) {
                Some((version, client)) => (version, client.trim()),
                None => (rest, ""),
            };
            let version: u32 =
                version_spec.parse().ok().filter(|&v| v > 0).ok_or_else(|| match version_spec {
                    "" => "HELLO needs `<proto-version> [client]`".to_string(),
                    spec => format!("bad proto version `{spec}` (expected a positive int)"),
                })?;
            if client.contains(char::is_whitespace) {
                return Err("HELLO takes at most `<proto-version> [client]`".to_string());
            }
            let client = (!client.is_empty()).then(|| client.to_string());
            Ok(Request::Hello { version, client })
        }
        "INGEST" => {
            let (label, wire) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "INGEST needs `<label> <trace>`".to_string())?;
            Ok(Request::Ingest { label: label.to_string(), trace: decode_trace_inline(wire)? })
        }
        "BATCH" => {
            let count_spec = rest
                .strip_prefix("INGEST")
                .map(str::trim)
                .filter(|spec| !spec.is_empty())
                .ok_or_else(|| "BATCH needs `INGEST <count>`".to_string())?;
            Ok(Request::BatchIngest { count: parse_count(count_spec)? })
        }
        "QUERY" => {
            let (kspec, wire) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "QUERY needs `k=<k> <trace>`".to_string())?;
            let (timed, wire) = parse_trace_flag(wire.trim_start());
            Ok(Request::Query { k: parse_k(kspec)?, trace: decode_trace_inline(wire)?, timed })
        }
        "MQUERY" => {
            let (kspec, count_spec) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "MQUERY needs `k=<k> <count>`".to_string())?;
            let (timed, count_spec) = parse_trace_flag(count_spec.trim());
            Ok(Request::MultiQuery {
                k: parse_k(kspec)?,
                count: parse_count(count_spec.trim())?,
                timed,
            })
        }
        "STATS" if rest.is_empty() => Ok(Request::Stats),
        "METRICS" if rest.is_empty() => Ok(Request::Metrics),
        "SLOWLOG" => match rest {
            "GET" => Ok(Request::Slowlog(SlowlogCmd::Get)),
            "RESET" => Ok(Request::Slowlog(SlowlogCmd::Reset)),
            "LEN" => Ok(Request::Slowlog(SlowlogCmd::Len)),
            _ => Err("SLOWLOG needs `GET|RESET|LEN`".to_string()),
        },
        "SAVE" if rest.is_empty() => Ok(Request::Save),
        "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
        "" => Err("empty request".to_string()),
        other => Err(format!("unknown verb `{other}`")),
    }
}

/// Renders a query result as the multi-line `OK … MATCH … END` reply.
pub fn render_query_reply(result: &QueryResult) -> String {
    let mut out = format!(
        "OK matches={} label={}\n",
        result.neighbors.len(),
        result.label.as_deref().unwrap_or("-")
    );
    render_match_lines(&mut out, result);
    out.push_str("END\n");
    out
}

/// Renders the replies to an `MQUERY` batch: one framed `OK queries=…`
/// block holding a `RESULT` sub-block (1-based, in request order) per
/// query, terminated by a single `END`.
pub fn render_mquery_reply(results: &[QueryResult]) -> String {
    let mut out = format!("OK queries={}\n", results.len());
    for (i, result) in results.iter().enumerate() {
        out.push_str(&format!(
            "RESULT {} matches={} label={}\n",
            i + 1,
            result.neighbors.len(),
            result.label.as_deref().unwrap_or("-")
        ));
        render_match_lines(&mut out, result);
    }
    out.push_str("END\n");
    out
}

fn render_match_lines(out: &mut String, result: &QueryResult) {
    for (rank, n) in result.neighbors.iter().enumerate() {
        // `{}` on f64 prints the shortest string that round-trips, so the
        // client recovers the exact bits.
        out.push_str(&format!("MATCH {} {} {} {}\n", rank + 1, n.name, n.label, n.similarity));
    }
}

/// Renders the reply to a supported `HELLO`: the server identity, the
/// negotiated protocol version and the verb list, on one `OK` line.
pub fn render_hello_reply() -> String {
    format!("OK kastio proto={PROTOCOL_VERSION} verbs={PROTOCOL_VERBS}\n")
}

/// Renders the structured rejection of a `HELLO` whose version the server
/// does not speak. The reply names the supported version so the client
/// can downgrade (or give up) without guessing.
pub fn render_hello_unsupported(version: u32) -> String {
    format!("ERR unsupported proto {version} (server speaks {PROTOCOL_VERSION})\n")
}

/// Renders the `SLOWLOG GET` reply: one `SLOW` line per entry (newest
/// first), each carrying the stage breakdown as comma-joined
/// `<stage>:<us>` pairs and the compact argument summary. Empty stage
/// lists and argument summaries render as `-` so every line has the same
/// token count.
pub fn render_slowlog_get(entries: &[SlowEntry]) -> String {
    let mut out = format!("OK slowlog entries={}\n", entries.len());
    for entry in entries {
        let stages = if entry.stages.is_empty() {
            "-".to_string()
        } else {
            let pairs: Vec<String> =
                entry.stages.iter().map(|(stage, us)| format!("{stage}:{us}")).collect();
            pairs.join(",")
        };
        let args = if entry.args.is_empty() { "-" } else { entry.args.as_str() };
        out.push_str(&format!(
            "SLOW {} at_us={} verb={} total_us={} stages={stages} args={args}\n",
            entry.id, entry.at_micros, entry.verb, entry.total_micros
        ));
    }
    out.push_str("END\n");
    out
}

/// Renders the `SLOWLOG LEN` reply.
pub fn render_slowlog_len(len: usize) -> String {
    format!("OK slowlog len={len}\n")
}

/// Renders the `SLOWLOG RESET` acknowledgement.
pub fn render_slowlog_reset() -> String {
    "OK slowlog reset\n".to_string()
}

/// Renders the `TRACE` line appended (before `END`) to a `trace=1` query
/// reply. Nanosecond inputs are floored to microseconds per field, so
/// the rendered stage values always sum to at most the rendered total
/// (`⌊a⌋ + ⌊b⌋ ≤ ⌊a + b⌋`).
pub fn render_trace_line(total_ns: u64, stages: &[(&str, u64)]) -> String {
    let mut line = format!("TRACE total_us={}", total_ns / 1_000);
    for (stage, ns) in stages {
        line.push_str(&format!(" {stage}_us={}", ns / 1_000));
    }
    line.push('\n');
    line
}

/// Reads one complete server reply — a single `OK …`/`ERR …` line, or a
/// multi-line `OK matches=…`/`OK queries=…`/`STAT …` block terminated by
/// `END` — so every client (the `kastio query` subcommand, tests,
/// examples) shares one definition of the reply framing.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::UnexpectedEof`] if the connection closes
/// mid-reply, or the underlying read error.
pub fn read_reply<R: std::io::BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut read_line = |reply: &mut String| -> std::io::Result<usize> {
        let start = reply.len();
        if reader.read_line(reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        // read_line also returns at EOF without a terminator: a reply
        // line cut mid-byte-stream must be an error, never silently
        // returned as if complete.
        if !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-line",
            ));
        }
        Ok(start)
    };
    let mut reply = String::new();
    read_line(&mut reply)?;
    if reply.starts_with("OK matches=")
        || reply.starts_with("OK queries=")
        || reply.starts_with("OK metrics")
        || reply.starts_with("OK slowlog entries=")
        || reply.starts_with("STAT")
    {
        loop {
            let start = read_line(&mut reply)?;
            if &reply[start..] == "END\n" {
                break;
            }
        }
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryId;
    use crate::index::Neighbor;

    fn full(framer: &mut LineFramer) -> String {
        match framer.next_line().unwrap() {
            Some(FramedLine::Full(line)) => line,
            other => panic!("expected a full line, got {other:?}"),
        }
    }

    #[test]
    fn framer_reassembles_lines_from_arbitrary_chunks() {
        let mut framer = LineFramer::new();
        for byte in b"QUERY k=1 h0 read 8\nSTATS\n" {
            framer.push_bytes(&[*byte]);
        }
        assert_eq!(full(&mut framer), "QUERY k=1 h0 read 8\n");
        assert_eq!(full(&mut framer), "STATS\n");
        assert!(framer.next_line().unwrap().is_none());
        assert!(framer.is_empty());
    }

    #[test]
    fn framer_caps_lines_and_drains_like_read_line() {
        let max = usize::try_from(MAX_REQUEST_LINE_BYTES).unwrap();
        let mut framer = LineFramer::new();
        framer.push_bytes(&vec![b'a'; max + 10]);
        assert!(matches!(framer.next_line().unwrap(), Some(FramedLine::TooLong)));
        assert!(framer.next_line().unwrap().is_none(), "still draining");
        assert!(!framer.is_empty(), "a drain in progress is not idle");
        framer.push_bytes(b"tail\nSTATS\n");
        assert_eq!(full(&mut framer), "STATS\n", "drain swallows through the newline");

        // A newline exactly at the cap boundary still frames — the same
        // line take(max).read_line() accepts.
        let mut framer = LineFramer::new();
        let mut at_cap = vec![b'b'; max - 1];
        at_cap.push(b'\n');
        framer.push_bytes(&at_cap);
        assert_eq!(full(&mut framer).len(), max);
    }

    #[test]
    fn framer_finish_returns_the_newlineless_tail() {
        let mut framer = LineFramer::new();
        framer.push_bytes(b"STATS");
        assert!(framer.next_line().unwrap().is_none());
        assert_eq!(
            framer.finish().unwrap(),
            Some(FramedLine::Full("STATS".to_string())),
            "read_line returns the trailing partial line, so finish must too"
        );
        assert!(framer.finish().unwrap().is_none(), "clean EOF after the tail");

        // EOF mid-drain is a hangup: the over-long line was already
        // answered, its unterminated remainder earns nothing.
        let mut framer = LineFramer::new();
        framer.push_bytes(&vec![b'c'; usize::try_from(MAX_REQUEST_LINE_BYTES).unwrap() + 1]);
        assert!(matches!(framer.next_line().unwrap(), Some(FramedLine::TooLong)));
        assert!(framer.finish().unwrap().is_none());
    }

    #[test]
    fn framer_rejects_invalid_utf8_as_connection_fatal() {
        let mut framer = LineFramer::new();
        framer.push_bytes(&[0xff, 0xfe, b'\n']);
        let err = framer.next_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Validation happens on the capped prefix of an over-long line
        // too, before TooLong can be reported.
        let mut framer = LineFramer::new();
        let mut blast = vec![0xff_u8; usize::try_from(MAX_REQUEST_LINE_BYTES).unwrap()];
        blast.extend_from_slice(b"more");
        framer.push_bytes(&blast);
        assert_eq!(framer.next_line().unwrap_err().kind(), std::io::ErrorKind::InvalidData);

        // And on the EOF tail.
        let mut framer = LineFramer::new();
        framer.push_bytes(&[0xff, 0xfe]);
        assert!(framer.next_line().unwrap().is_none());
        assert_eq!(framer.finish().unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trace_inline_roundtrip() {
        let trace = parse_trace("h0 open 0\nh1 write 8\nh0 close 0\n").unwrap();
        let wire = encode_trace_inline(&trace);
        assert!(!wire.contains('\n'));
        assert_eq!(decode_trace_inline(&wire).unwrap(), trace);
    }

    #[test]
    fn parses_ingest() {
        let req = parse_request("INGEST flash h0 write 64;h0 write 64").unwrap();
        match req {
            Request::Ingest { label, trace } => {
                assert_eq!(label, "flash");
                assert_eq!(trace.len(), 2);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn parses_query_with_k() {
        let req = parse_request("QUERY k=3 h0 read 8").unwrap();
        assert!(matches!(req, Request::Query { k: 3, .. }));
    }

    #[test]
    fn parses_batch_headers() {
        assert_eq!(parse_request("BATCH INGEST 3").unwrap(), Request::BatchIngest { count: 3 });
        assert_eq!(
            parse_request("MQUERY k=2 4").unwrap(),
            Request::MultiQuery { k: 2, count: 4, timed: false }
        );
    }

    #[test]
    fn parses_the_optional_trace_flag() {
        assert!(matches!(
            parse_request("QUERY k=3 h0 read 8").unwrap(),
            Request::Query { timed: false, .. }
        ));
        assert!(matches!(
            parse_request("QUERY k=3 trace=1 h0 read 8").unwrap(),
            Request::Query { k: 3, timed: true, .. }
        ));
        assert_eq!(
            parse_request("MQUERY k=2 trace=1 4").unwrap(),
            Request::MultiQuery { k: 2, count: 4, timed: true }
        );
        // Only the exact token is the flag; near-misses fall through to
        // the payload parser's own error.
        assert!(parse_request("QUERY k=3 trace=2 h0 read 8")
            .unwrap_err()
            .contains("bad inline trace"));
        assert!(parse_request("MQUERY k=2 trace=1").unwrap_err().contains("bad count"));
    }

    #[test]
    fn parses_metrics_and_slowlog() {
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("  METRICS  ").unwrap(), Request::Metrics);
        assert_eq!(parse_request("SLOWLOG GET").unwrap(), Request::Slowlog(SlowlogCmd::Get));
        assert_eq!(parse_request("SLOWLOG RESET").unwrap(), Request::Slowlog(SlowlogCmd::Reset));
        assert_eq!(parse_request("SLOWLOG LEN").unwrap(), Request::Slowlog(SlowlogCmd::Len));
        assert!(parse_request("SLOWLOG").unwrap_err().contains("GET|RESET|LEN"));
        assert!(parse_request("SLOWLOG TRIM").unwrap_err().contains("GET|RESET|LEN"));
    }

    #[test]
    fn parses_hello() {
        assert_eq!(parse_request("HELLO 1").unwrap(), Request::Hello { version: 1, client: None });
        assert_eq!(
            parse_request("HELLO 2 kastio-loadgen/0.1.0").unwrap(),
            Request::Hello { version: 2, client: Some("kastio-loadgen/0.1.0".to_string()) }
        );
        assert!(parse_request("HELLO").unwrap_err().contains("HELLO needs"));
        assert!(parse_request("HELLO 0").unwrap_err().contains("bad proto version"));
        assert!(parse_request("HELLO x").unwrap_err().contains("bad proto version"));
        assert!(parse_request("HELLO 1 two tokens").unwrap_err().contains("at most"));
    }

    #[test]
    fn hello_replies_name_the_version() {
        let ok = render_hello_reply();
        assert_eq!(ok, format!("OK kastio proto=1 verbs={PROTOCOL_VERBS}\n"));
        let err = render_hello_unsupported(9);
        assert_eq!(err, "ERR unsupported proto 9 (server speaks 1)\n");
    }

    #[test]
    fn parses_bare_verbs() {
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("SAVE").unwrap(), Request::Save);
        assert_eq!(parse_request("  SAVE  ").unwrap(), Request::Save);
        assert_eq!(parse_request("  SHUTDOWN  ").unwrap(), Request::Shutdown);
        // SAVE takes no arguments — trailing tokens are a verb error.
        assert!(parse_request("SAVE now").unwrap_err().contains("SAVE"));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("FROB x").unwrap_err().contains("FROB"));
        assert!(parse_request("INGEST onlylabel").unwrap_err().contains("INGEST"));
        assert!(parse_request("QUERY k=0 h0 read 8").unwrap_err().contains("k spec"));
        assert!(parse_request("QUERY k=x h0 read 8").unwrap_err().contains("k spec"));
        assert!(parse_request("QUERY k=2 h0 read").unwrap_err().contains("bad inline trace"));
        assert!(parse_request("BATCH").unwrap_err().contains("BATCH"));
        assert!(parse_request("BATCH INGEST").unwrap_err().contains("BATCH"));
        assert!(parse_request("BATCH INGEST 0").unwrap_err().contains("count"));
        assert!(parse_request("BATCH INGEST x").unwrap_err().contains("count"));
        assert!(parse_request("BATCH QUERY 2").unwrap_err().contains("BATCH"));
        assert!(parse_request("MQUERY k=2").unwrap_err().contains("MQUERY"));
        assert!(parse_request("MQUERY k=0 2").unwrap_err().contains("k spec"));
        assert!(parse_request(&format!("MQUERY k=1 {}", MAX_BATCH_ITEMS + 1))
            .unwrap_err()
            .contains("cap"));
    }

    #[test]
    fn parses_batch_ingest_items() {
        let (label, trace) = parse_batch_ingest_item("flash h0 write 64;h0 write 64").unwrap();
        assert_eq!(label, "flash");
        assert_eq!(trace.len(), 2);
        assert!(parse_batch_ingest_item("onlylabel").unwrap_err().contains("batch item"));
        assert!(parse_batch_ingest_item("flash h0 write").unwrap_err().contains("bad inline"));
    }

    fn sample_result(sim: f64) -> QueryResult {
        QueryResult {
            neighbors: vec![Neighbor {
                id: EntryId(0),
                name: "A00".to_string(),
                label: "A".to_string(),
                similarity: sim,
            }],
            label: Some("A".to_string()),
            candidates: 1,
            evaluated: 1,
            cache_hits: 0,
            timings: crate::index::QueryTimings::default(),
        }
    }

    #[test]
    fn query_reply_roundtrips_similarity_bits() {
        // A value whose decimal form needs all 17 significant digits.
        let sim = std::f64::consts::PI / 3.0;
        let reply = render_query_reply(&sample_result(sim));
        let match_line = reply.lines().nth(1).unwrap();
        let rendered = match_line.split_whitespace().last().unwrap();
        let parsed: f64 = rendered.parse().unwrap();
        assert_eq!(parsed.to_bits(), sim.to_bits());
        assert!(reply.starts_with("OK matches=1 label=A\n"));
        assert!(reply.ends_with("END\n"));
    }

    #[test]
    fn mquery_reply_frames_every_result() {
        let reply = render_mquery_reply(&[sample_result(1.0), sample_result(0.5)]);
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK queries=2");
        assert_eq!(lines[1], "RESULT 1 matches=1 label=A");
        assert_eq!(lines[2], "MATCH 1 A00 A 1");
        assert_eq!(lines[3], "RESULT 2 matches=1 label=A");
        assert_eq!(lines[4], "MATCH 1 A00 A 0.5");
        assert_eq!(lines[5], "END");
        assert_eq!(lines.len(), 6, "one END for the whole block");
    }

    #[test]
    fn slowlog_replies_render_entries_and_acks() {
        let entries = vec![
            SlowEntry {
                id: 7,
                at_micros: 900,
                verb: "QUERY",
                args: "k=3,ops=12".to_string(),
                total_micros: 450,
                stages: vec![("parse", 10), ("kernel", 400)],
            },
            SlowEntry {
                id: 6,
                at_micros: 800,
                verb: "SAVE",
                args: String::new(),
                total_micros: 300,
                stages: vec![],
            },
        ];
        let reply = render_slowlog_get(&entries);
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines[0], "OK slowlog entries=2");
        assert_eq!(
            lines[1],
            "SLOW 7 at_us=900 verb=QUERY total_us=450 stages=parse:10,kernel:400 args=k=3,ops=12"
        );
        assert_eq!(lines[2], "SLOW 6 at_us=800 verb=SAVE total_us=300 stages=- args=-");
        assert_eq!(lines[3], "END");
        assert_eq!(render_slowlog_get(&[]), "OK slowlog entries=0\nEND\n");
        assert_eq!(render_slowlog_len(5), "OK slowlog len=5\n");
        assert_eq!(render_slowlog_reset(), "OK slowlog reset\n");
    }

    #[test]
    fn trace_line_floors_stage_sums_under_the_total() {
        let line = render_trace_line(10_999, &[("parse", 1_999), ("kernel", 8_999)]);
        assert_eq!(line, "TRACE total_us=10 parse_us=1 kernel_us=8\n");
    }

    #[test]
    fn read_reply_frames_single_and_multi_line_replies() {
        use std::io::BufReader;
        let wire = "OK id=0 name=e0 entries=1\nOK matches=1 label=x\nMATCH 1 e0 x 1\nEND\n\
                    STAT entries 1\nEND\n\
                    OK queries=1\nRESULT 1 matches=0 label=-\nEND\nERR nope\n";
        let mut reader = BufReader::new(wire.as_bytes());
        assert_eq!(read_reply(&mut reader).unwrap(), "OK id=0 name=e0 entries=1\n");
        assert_eq!(read_reply(&mut reader).unwrap(), "OK matches=1 label=x\nMATCH 1 e0 x 1\nEND\n");
        assert_eq!(read_reply(&mut reader).unwrap(), "STAT entries 1\nEND\n");
        assert_eq!(
            read_reply(&mut reader).unwrap(),
            "OK queries=1\nRESULT 1 matches=0 label=-\nEND\n"
        );
        assert_eq!(read_reply(&mut reader).unwrap(), "ERR nope\n");
        let err = read_reply(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_reply_frames_metrics_and_slowlog_blocks() {
        use std::io::BufReader;
        let wire = "OK metrics\n# TYPE kastio_requests_total counter\nkastio_requests_total 1\nEND\n\
                    OK slowlog entries=1\nSLOW 0 at_us=1 verb=QUERY total_us=9 stages=- args=-\nEND\n\
                    OK slowlog len=0\nOK slowlog reset\n";
        let mut reader = BufReader::new(wire.as_bytes());
        assert!(read_reply(&mut reader).unwrap().ends_with("kastio_requests_total 1\nEND\n"));
        assert!(read_reply(&mut reader).unwrap().starts_with("OK slowlog entries=1\nSLOW 0 "));
        assert_eq!(read_reply(&mut reader).unwrap(), "OK slowlog len=0\n");
        assert_eq!(read_reply(&mut reader).unwrap(), "OK slowlog reset\n");
    }
}
