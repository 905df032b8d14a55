//! The request core: everything between "a framed request arrived" and
//! "these reply bytes leave, then record latency" lives here, apart from
//! the reactor's socket handling.
//!
//! The split with the reactor:
//!
//! * [`ItemCollector`] is the incremental item-line state machine for the
//!   batched verbs: the reactor feeds it the announced item lines as they
//!   are framed, with a fixed error priority (over-long line ≻ cumulative
//!   cap ≻ memory admission ≻ parse error), byte-counted and
//!   budget-charged line by line.
//! * [`execute_parsed`] runs one parsed request (plus its collected item
//!   lines) inline on a worker and turns it into an [`Executed`] reply
//!   with all the bookkeeping the reactor needs afterwards.
//! * [`finish_after_write`] records the stage/latency histograms and the
//!   slow-log entry once the reactor has written and flushed the reply.

use std::time::Instant;

use kastio_quota::Account;
use kastio_trace::Trace;

use crate::entry::EntryId;
use crate::index::{PatternIndex, QueryTimings};
use crate::metrics::{render_metrics, render_stats, Sources};
use crate::persist::save_index_wal;
use crate::protocol::{
    decode_trace_inline, render_hello_reply, render_hello_unsupported, render_mquery_reply,
    render_query_reply, render_slowlog_get, render_slowlog_len, render_slowlog_reset,
    render_trace_line, FramedLine, Request, SlowlogCmd, PROTOCOL_VERSION,
};
use crate::server::{
    verb_slot, ServerMetrics, STAGE_CACHE, STAGE_KERNEL, STAGE_PARSE, STAGE_PREFILTER, STAGE_REPLY,
    VERB_NAMES,
};
use crate::wal::WalManager;

use super::ServeState;

/// The shared daemon state one request executes against. The reactor
/// keeps one and hands each worker a clone, built from the
/// [`ServeState`]; cloning is cheap (all `Arc`s and handles).
#[derive(Clone)]
pub(crate) struct RequestContext {
    pub index: std::sync::Arc<PatternIndex>,
    pub wal: Option<std::sync::Arc<WalManager>>,
    pub metrics: std::sync::Arc<ServerMetrics>,
    pub slow_log: std::sync::Arc<kastio_obs::SlowLog>,
    pub quota: kastio_quota::MemoryQuota,
    pub buffers: Account,
}

impl RequestContext {
    /// The context shared by every request of a [`ServeState`].
    pub fn of(state: &ServeState) -> RequestContext {
        RequestContext {
            index: std::sync::Arc::clone(&state.index),
            wal: state.wal.clone(),
            metrics: std::sync::Arc::clone(&state.metrics),
            slow_log: std::sync::Arc::clone(&state.slow_log),
            quota: state.quota.clone(),
            buffers: state.buffers.clone(),
        }
    }
}

/// The slow-log presentation of a request: its wire verb (space-free, so
/// `SLOW` lines stay token-aligned) and a compact argument summary.
pub(crate) fn request_summary(request: &Request) -> (&'static str, String) {
    match request {
        Request::Hello { version, .. } => ("HELLO", format!("proto={version}")),
        Request::Ingest { label, trace } => {
            ("INGEST", format!("label={label},ops={}", trace.len()))
        }
        Request::BatchIngest { count } => ("BATCH_INGEST", format!("count={count}")),
        Request::Query { k, trace, .. } => ("QUERY", format!("k={k},ops={}", trace.len())),
        Request::MultiQuery { k, count, .. } => ("MQUERY", format!("k={k},count={count}")),
        Request::Stats => ("STATS", String::new()),
        Request::Metrics => ("METRICS", String::new()),
        Request::Slowlog(SlowlogCmd::Get) => ("SLOWLOG", "GET".to_string()),
        Request::Slowlog(SlowlogCmd::Reset) => ("SLOWLOG", "RESET".to_string()),
        Request::Slowlog(SlowlogCmd::Len) => ("SLOWLOG", "LEN".to_string()),
        Request::Save => ("SAVE", String::new()),
        Request::Shutdown => ("SHUTDOWN", String::new()),
    }
}

/// Nanoseconds elapsed since `start`, saturating.
pub(crate) fn span_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Bytes of one in-flight batched request charged against the buffers
/// account, released when the request's reply has been rendered (drop).
/// Admission is all-or-nothing per line: a line that no longer fits
/// sheds the whole request. Owns a handle to the account (rather than
/// borrowing) so the reactor can keep a charge alive across the
/// collect → dispatch → execute handoff.
pub(crate) struct BufferCharge {
    account: Account,
    bytes: u64,
}

impl BufferCharge {
    pub fn new(account: &Account) -> BufferCharge {
        BufferCharge { account: account.clone(), bytes: 0 }
    }

    /// Tries to admit `bytes` more buffered request bytes; on refusal
    /// (budget exhausted even after reclaim) nothing is charged.
    #[must_use]
    pub fn add(&mut self, bytes: u64) -> bool {
        if self.account.try_charge(bytes) {
            self.bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Releases everything charged so far (the request was shed).
    pub fn release_all(&mut self) {
        self.account.release(self.bytes);
        self.bytes = 0;
    }
}

impl Drop for BufferCharge {
    fn drop(&mut self) {
        self.account.release(self.bytes);
    }
}

/// Upper bound on the *cumulative* item bytes of one batched request.
/// The per-line cap alone would let a 4096-item batch buffer gigabytes of
/// parsed items before replying; this keeps a whole `BATCH INGEST` /
/// `MQUERY` within a 16 MiB envelope even without a `--max-memory-bytes`
/// budget (the remaining announced lines are still consumed — without
/// being stored — so the connection stays framed).
pub(crate) const MAX_BATCH_TOTAL_BYTES: u64 = 16 << 20;

/// Outcome of collecting a batch's item lines.
pub(crate) enum Items<T> {
    /// All items read and parsed.
    Parsed(Vec<T>),
    /// An item failed to parse, ran over a size cap or was shed by memory
    /// admission; the `ERR` reply to send (every announced line was still
    /// consumed or drained, so the connection stays framed).
    Bad(String),
}

/// The incremental state machine that gathers the `count` announced item
/// lines of a batched request — one [`ItemCollector::push`] per framed
/// line. Every accepted line's bytes are first admitted against the
/// memory budget through the owned [`BufferCharge`]; the first line that
/// no longer fits sheds the whole request with `ERR busy reason=memory`
/// (buffered items and their charges are dropped), while the remaining
/// announced lines are still consumed so the connection stays framed.
pub(crate) struct ItemCollector<T> {
    count: usize,
    seen: usize,
    items: Vec<T>,
    first_error: Option<String>,
    total_bytes: u64,
    charge: BufferCharge,
    parse: fn(&str) -> Result<T, String>,
}

impl<T> ItemCollector<T> {
    pub fn new(count: usize, buffers: &Account, parse: fn(&str) -> Result<T, String>) -> Self {
        ItemCollector {
            count,
            seen: 0,
            items: Vec::new(),
            first_error: None,
            total_bytes: 0,
            charge: BufferCharge::new(buffers),
            parse,
        }
    }

    /// Whether all announced lines have been consumed.
    pub fn done(&self) -> bool {
        self.seen >= self.count
    }

    /// Feeds the next announced line. A full line's bytes include its
    /// newline, which the cumulative byte cap counts. The first failure
    /// wins; later lines are still counted (consumed) but neither stored
    /// nor charged.
    pub fn push(&mut self, line: FramedLine) {
        self.seen += 1;
        let line = match line {
            FramedLine::TooLong => {
                if self.first_error.is_none() {
                    self.items = Vec::new();
                    self.charge.release_all();
                    self.first_error = Some("ERR line too long\n".to_string());
                }
                return;
            }
            FramedLine::Full(line) => line,
        };
        if self.first_error.is_some() {
            return; // keep consuming announced lines to stay framed
        }
        self.total_bytes += line.len() as u64;
        if self.total_bytes > MAX_BATCH_TOTAL_BYTES {
            self.items = Vec::new(); // release what was buffered
            self.charge.release_all();
            self.first_error =
                Some(format!("ERR batch exceeds {MAX_BATCH_TOTAL_BYTES} total bytes\n"));
            return;
        }
        if !self.charge.add(line.len() as u64) {
            self.items = Vec::new();
            self.charge.release_all();
            self.first_error = Some("ERR busy reason=memory\n".to_string());
            return;
        }
        match (self.parse)(&line) {
            Ok(item) => self.items.push(item),
            Err(message) => {
                self.first_error =
                    Some(format!("ERR item {}/{}: {message}\n", self.seen, self.count));
            }
        }
    }

    /// The collected outcome plus the still-held buffer charge (released
    /// by the caller once the reply has been rendered).
    pub fn finish(self) -> (Items<T>, BufferCharge) {
        let ItemCollector { items, first_error, charge, .. } = self;
        let outcome = match first_error {
            Some(message) => Items::Bad(message),
            None => Items::Parsed(items),
        };
        (outcome, charge)
    }
}

/// Parses one `MQUERY` item line (a bare inline trace).
pub(crate) fn parse_mquery_item(item: &str) -> Result<Trace, String> {
    decode_trace_inline(item.trim())
}

/// The collected item lines of a batched request (the reactor gathers
/// them through [`ItemCollector`] before dispatching to a worker), or
/// nothing for the unbatched verbs.
pub(crate) enum CollectedItems {
    None,
    Batch(Items<(String, Trace)>, BufferCharge),
    Queries(Items<Trace>, BufferCharge),
}

/// One executed request, ready for the reactor to write out: the reply
/// bytes (TRACE line already inserted when requested) plus everything
/// [`finish_after_write`] needs afterwards.
pub(crate) struct Executed {
    pub reply: String,
    /// The verb's histogram slot (`None` for a parse failure).
    pub slot: Option<usize>,
    /// When the request line was framed — the latency clock's zero.
    pub started: Instant,
    pub parse_ns: u64,
    pub timings: QueryTimings,
    pub ran_query: bool,
    /// Slow-log verb + argument summary, built only when the log could
    /// actually keep it.
    pub summary: Option<(&'static str, String)>,
    /// A `SHUTDOWN` was honoured: stop the daemon once the reply is out.
    pub shutting_down: bool,
    /// An acked ingest: the reactor fires the `CRASH_AFTER_ACK` fault
    /// injection point right after the reply bytes leave the socket.
    pub ack_ingest: bool,
}

/// Executes one parsed request against the daemon state, inline on the
/// calling worker. The reactor has already framed the request line (and
/// collected a batched request's `items`), counted it
/// ([`ServerMetrics::record_request`]) and measured `parse_ns`; this
/// renders the reply and the post-write bookkeeping packet.
pub(crate) fn execute_parsed(
    ctx: &RequestContext,
    request: Result<Request, String>,
    started: Instant,
    parse_ns: u64,
    items: CollectedItems,
) -> Executed {
    let index = &*ctx.index;
    let wal = ctx.wal.as_deref();
    let metrics = &*ctx.metrics;
    let slot = request.as_ref().ok().map(verb_slot);
    // The argument summary allocates, so it is only built when the slow
    // log could actually keep it.
    let summary =
        ctx.slow_log.threshold_micros().and_then(|_| request.as_ref().ok().map(request_summary));
    let mut query_timings = QueryTimings::default();
    let mut ran_query = false;
    let mut timed = false;
    let mut shutting_down = false;
    let mut reply = match request {
        Err(message) => format!("ERR {message}\n"),
        Ok(Request::Hello { version, client: _ }) => {
            // Version negotiation: the handshake succeeds only on an
            // exact match today (there is one version). Every other
            // verb keeps working without a HELLO, so old clients are
            // unaffected.
            if version == PROTOCOL_VERSION {
                render_hello_reply()
            } else {
                render_hello_unsupported(version)
            }
        }
        Ok(Request::Ingest { label, trace }) => {
            match ingest_durably(index, vec![(label, trace)], wal) {
                Ok(id) => format!("OK id={} name={id} entries={}\n", id.0, index.len()),
                Err(e) => e,
            }
        }
        Ok(Request::BatchIngest { count }) => {
            let CollectedItems::Batch(items, charge) = items else {
                unreachable!("the reactor collects per parsed verb")
            };
            let reply = match items {
                Items::Bad(message) => message,
                Items::Parsed(items) => match ingest_durably(index, items, wal) {
                    Ok(_) => format!("OK batch={count} entries={}\n", index.len()),
                    Err(e) => e,
                },
            };
            drop(charge); // buffered bytes released once the reply exists
            reply
        }
        Ok(Request::Query { k, trace, timed: t }) => {
            let result = index.query(&trace, k);
            query_timings = result.timings;
            ran_query = true;
            timed = t;
            render_query_reply(&result)
        }
        Ok(Request::MultiQuery { k, count: _, timed: t }) => {
            let CollectedItems::Queries(items, charge) = items else {
                unreachable!("the reactor collects per parsed verb")
            };
            let reply = match items {
                Items::Bad(message) => message,
                Items::Parsed(traces) => {
                    let results = index.query_batch(&traces, k);
                    for result in &results {
                        query_timings.merge(&result.timings);
                    }
                    ran_query = true;
                    timed = t;
                    render_mquery_reply(&results)
                }
            };
            drop(charge);
            reply
        }
        Ok(Request::Stats) => {
            render_stats(&Sources::read(index, wal, metrics, &ctx.quota, ctx.slow_log.len()))
        }
        Ok(Request::Metrics) => {
            render_metrics(&Sources::read(index, wal, metrics, &ctx.quota, ctx.slow_log.len()))
        }
        Ok(Request::Slowlog(SlowlogCmd::Get)) => render_slowlog_get(&ctx.slow_log.entries()),
        Ok(Request::Slowlog(SlowlogCmd::Len)) => render_slowlog_len(ctx.slow_log.len()),
        Ok(Request::Slowlog(SlowlogCmd::Reset)) => {
            ctx.slow_log.reset();
            render_slowlog_reset()
        }
        Ok(Request::Save) => match wal {
            None => "ERR no save directory (start the server with --save)\n".to_string(),
            // A snapshot is a compaction point, and the reply says so.
            Some(wal) => match save_index_wal(index, wal.dir(), Some(wal)) {
                Ok(info) => format!(
                    "OK saved entries={} generation={} wal=truncated\n",
                    info.entries, info.generation
                ),
                Err(e) => format!("ERR save failed: {e}\n"),
            },
        },
        Ok(Request::Shutdown) => {
            // Save *before* replying, so the client that requested
            // the shutdown learns whether the corpus actually made it
            // to disk. The server shuts down either way — the caller
            // of serve() re-checks the snapshot status and surfaces
            // the failure in its exit code.
            shutting_down = true;
            match wal {
                None => "OK bye\n".to_string(),
                Some(wal) => match save_index_wal(index, wal.dir(), Some(wal)) {
                    Ok(info) => {
                        format!("OK bye saved={} generation={}\n", info.entries, info.generation)
                    }
                    Err(e) => format!("ERR save failed: {e} (shutting down anyway)\n"),
                },
            }
        }
    };
    if reply.starts_with("ERR") {
        metrics.record_error();
    }
    // Every memory shed reply — whatever path produced it (ingest
    // admission, batch item, request buffers) — is counted here, so
    // the STATS tally equals the ERR busy replies clients observed.
    if reply.starts_with("ERR busy reason=memory") {
        metrics.record_shed_memory();
    }
    if timed && reply.ends_with("END\n") {
        // The reply-write span cannot be known before the reply is
        // written, so the inline TRACE total covers read → render;
        // `reply` still shows up in the stage histograms and the
        // slow log. Per-field flooring to µs keeps the rendered
        // stage sum at or under the rendered total.
        let trace_line = render_trace_line(
            span_ns(started),
            &[
                ("parse", parse_ns),
                ("prefilter", query_timings.prefilter_ns),
                ("cache", query_timings.cache_ns),
                ("kernel", query_timings.kernel_ns),
            ],
        );
        reply.insert_str(reply.len() - "END\n".len(), &trace_line);
    }
    let ack_ingest = reply.starts_with("OK")
        && matches!(slot.map(|s| VERB_NAMES[s]), Some("ingest" | "batch_ingest"));
    Executed {
        reply,
        slot,
        started,
        parse_ns,
        timings: query_timings,
        ran_query,
        summary,
        shutting_down,
        ack_ingest,
    }
}

/// Post-write bookkeeping: stage spans, the verb's total-latency
/// histogram, and the slow-log entry. `reply_ns` is the measured
/// write+flush span.
pub(crate) fn finish_after_write(ctx: &RequestContext, done: &Executed, reply_ns: u64) {
    let metrics = &*ctx.metrics;
    let total_ns = span_ns(done.started);
    metrics.record_stage(STAGE_PARSE, done.parse_ns);
    if done.ran_query {
        metrics.record_stage(STAGE_PREFILTER, done.timings.prefilter_ns);
        metrics.record_stage(STAGE_CACHE, done.timings.cache_ns);
        metrics.record_stage(STAGE_KERNEL, done.timings.kernel_ns);
    }
    metrics.record_stage(STAGE_REPLY, reply_ns);
    if let Some(slot) = done.slot {
        metrics.record_latency(slot, total_ns);
    }
    if let Some((verb, args)) = &done.summary {
        let mut stages = vec![("parse", done.parse_ns / 1_000)];
        if done.ran_query {
            stages.push(("prefilter", done.timings.prefilter_ns / 1_000));
            stages.push(("cache", done.timings.cache_ns / 1_000));
            stages.push(("kernel", done.timings.kernel_ns / 1_000));
        }
        stages.push(("reply", reply_ns / 1_000));
        ctx.slow_log.record(metrics.uptime_micros(), verb, args.clone(), total_ns / 1_000, stages);
    }
}

/// Ingests `items` as one unit and, with a WAL, makes them durable: one
/// prepare (a refusal ingests nothing), then one commit whose log step
/// appends a record per entry, so the records land in id order, then a
/// wait for the group commit covering the last one. Returns the first id,
/// or the `ERR` reply. After a failed append the entries are still in the
/// corpus, but the reply must not ack them.
fn ingest_durably(
    index: &PatternIndex,
    items: Vec<(String, Trace)>,
    wal: Option<&WalManager>,
) -> Result<EntryId, String> {
    let prepared = index.prepare_auto(items).map_err(|e| format!("ERR {e}\n"))?;
    let Some(wal) = wal else { return Ok(index.commit(prepared, |_| ()).0) };
    let (first, last) = index
        .commit(prepared, |entries| entries.iter().try_fold(0, |_, entry| wal.append_entry(entry)));
    last.and_then(|seq| wal.wait_durable(seq)).map_err(|e| format!("ERR wal: {e}\n"))?;
    Ok(first)
}
