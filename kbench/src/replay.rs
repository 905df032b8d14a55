//! The in-process replay: the same request streams, executed through the
//! public functions the daemon's dispatch calls, in the same order, with
//! a span around every call.
//!
//! * `QUERY`: `parse_request`, `PatternIndex::intern_trace`,
//!   `PatternSignature::of`, `PatternIndex::query_interned` (whose
//!   `QueryResult::timings` give its prefilter, lru and eval children),
//!   `render_query_reply`.
//! * `INGEST`: `parse_request`, `ingest_auto`, `WalManager::append`,
//!   `WalManager::wait_durable`.
//! * `BATCH INGEST`: `parse_request` for the header, then
//!   `parse_batch_ingest_item` per item, `ingest_auto` per item, `append`
//!   per record and one `wait_durable`.
//!
//! The `OK` lines the daemon formats inline for ingests get no span of
//! their own: they fall in the request's unaccounted remainder.
//!
//! Paced, it follows the phase's arrival schedule on the same two
//! threads; unpaced, it only computes the replies a run's output is
//! checked against.

use std::time::{Duration, Instant};

use kastio_core::IdString;
use kastio_index::index::QueryTimings;
use kastio_index::protocol::render_query_reply;
use kastio_index::{parse_batch_ingest_item, parse_request, PatternIndex, Request, WalManager};
use kastio_trace::wal::WalRecord;
use kastio_trace::PatternSignature;

use crate::drive::START_SLACK;
use crate::gen::{Phase, CONNECTIONS};
use crate::spans::{Tracer, ROOT};

/// What one replayed `QUERY` did, beyond its spans.
#[derive(Debug, Clone)]
pub struct QueryFacts {
    pub string: IdString,
    pub neighbours: Vec<u32>,
    pub candidates: usize,
    pub evaluated: usize,
    pub cache_hits: usize,
    pub timings: QueryTimings,
    /// Corpus size right after the query.
    pub corpus: usize,
}

/// One replayed request.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub reply: String,
    pub query: Option<QueryFacts>,
}

/// One thread's share of a replayed phase.
#[derive(Debug)]
pub struct ConnReplay {
    pub ops: Vec<Replayed>,
    pub tracer: Tracer,
}

/// The index (and, for writes, the WAL) a replay runs against.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub index: &'a PatternIndex,
    pub wal: Option<&'a WalManager>,
}

/// Replays `phase`. Request ids start at `first_request`; request `i` of
/// connection `c` gets `first_request + i * CONNECTIONS + c`.
pub fn replay_phase(
    target: Target<'_>,
    phase: &Phase,
    paced: bool,
    epoch: Instant,
    first_request: u32,
) -> Result<[ConnReplay; CONNECTIONS], String> {
    let wires: Vec<Vec<String>> =
        phase.ops.iter().map(|ops| ops.iter().map(|op| op.render()).collect()).collect();
    let t0 = Instant::now() + START_SLACK;
    let conn = |c: usize| -> Result<ConnReplay, String> {
        let mut tracer = Tracer::new(epoch);
        let mut ops = Vec::with_capacity(wires[c].len());
        for (i, wire) in wires[c].iter().enumerate() {
            if let (true, Some(offset)) = (paced, phase.arrival.due_ns(c, i)) {
                let due = t0 + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let request = first_request + u32::try_from(i * CONNECTIONS + c).expect("ids fit u32");
            ops.push(execute(target, &mut tracer, request, wire)?);
        }
        Ok(ConnReplay { ops, tracer })
    };
    let (first, second) = std::thread::scope(|scope| {
        let other = scope.spawn(|| conn(1));
        (conn(0), other.join().expect("replay thread panicked"))
    });
    Ok([first?, second?])
}

/// Runs one request the way the daemon's dispatch does.
fn execute(
    target: Target<'_>,
    tracer: &mut Tracer,
    request: u32,
    wire: &str,
) -> Result<Replayed, String> {
    let index = target.index;
    let (header, items) = wire.split_once('\n').expect("rendered requests end in a newline");
    let verb = if header.starts_with("QUERY") {
        "request.query"
    } else if header.starts_with("INGEST") {
        "request.ingest"
    } else {
        "request.batch_ingest"
    };
    let root = tracer.open(request, verb, ROOT);
    let parsed = tracer.within(request, "protocol.parse", root, || parse_request(header));
    let replayed =
        match parsed? {
            Request::Query { k, trace, .. } => {
                let string =
                    tracer.within(request, "pipeline.intern", root, || index.intern_trace(&trace));
                let signature = tracer.within(request, "signature", root, || {
                    PatternSignature::of(&trace, index.options().signature)
                });
                let span = tracer.open(request, "index.query", root);
                let result = index.query_interned(&string, &signature, k);
                tracer.close(span);
                let t = result.timings;
                tracer.measured_children(
                    span,
                    &[("prefilter", t.prefilter_ns), ("lru", t.cache_ns), ("eval", t.kernel_ns)],
                );
                let reply =
                    tracer.within(request, "protocol.render", root, || render_query_reply(&result));
                Replayed {
                    reply,
                    query: Some(QueryFacts {
                        string,
                        neighbours: result.neighbors.iter().map(|n| n.id.0).collect(),
                        candidates: result.candidates,
                        evaluated: result.evaluated,
                        cache_hits: result.cache_hits,
                        timings: result.timings,
                        corpus: 0,
                    }),
                }
            }
            Request::Ingest { label, trace } => {
                let wal = target.wal.ok_or("a write needs the WAL")?;
                // As the daemon does: the record needs the label and trace
                // that `ingest_auto` consumes.
                let journal = (label.clone(), trace.clone());
                let id = tracer
                    .within(request, "index.ingest", root, || index.ingest_auto(label, trace));
                let id = id.map_err(|e| e.to_string())?.0;
                let record =
                    WalRecord { id, name: format!("e{id}"), label: journal.0, trace: journal.1 };
                let seq = tracer.within(request, "wal.append", root, || wal.append(&record));
                let seq = seq.map_err(|e| e.to_string())?;
                let durable = tracer.within(request, "wal.wait", root, || wal.wait_durable(seq));
                durable.map_err(|e| e.to_string())?;
                let reply = format!("OK id={id} name=e{id} entries={}\n", index.len());
                Replayed { reply, query: None }
            }
            Request::BatchIngest { count } => {
                let wal = target.wal.ok_or("a write needs the WAL")?;
                let mut parsed = Vec::with_capacity(count);
                for line in items.lines() {
                    parsed.push(tracer.within(request, "protocol.parse", root, || {
                        parse_batch_ingest_item(line)
                    })?);
                }
                let mut records = Vec::with_capacity(count);
                for (label, trace) in parsed {
                    let journal = (label.clone(), trace.clone());
                    let id = tracer
                        .within(request, "index.ingest", root, || index.ingest_auto(label, trace));
                    let id = id.map_err(|e| e.to_string())?.0;
                    records.push(WalRecord {
                        id,
                        name: format!("e{id}"),
                        label: journal.0,
                        trace: journal.1,
                    });
                }
                let mut last = 0;
                for record in &records {
                    last = tracer
                        .within(request, "wal.append", root, || wal.append(record))
                        .map_err(|e| e.to_string())?;
                }
                let durable = tracer.within(request, "wal.wait", root, || wal.wait_durable(last));
                durable.map_err(|e| e.to_string())?;
                let reply = format!("OK batch={count} entries={}\n", index.len());
                Replayed { reply, query: None }
            }
            other => return Err(format!("the load never sends {other:?}")),
        };
    tracer.close(root);
    let mut replayed = replayed;
    if let Some(query) = replayed.query.as_mut() {
        query.corpus = index.len();
    }
    Ok(replayed)
}
