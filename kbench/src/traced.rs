//! The traced run (`--trace 1`), separate from the end-to-end runs:
//!
//! 1. on a fresh copy of the root, time what `kastio serve --wal` does
//!    before it listens — `load_index`, `WalManager::open`,
//!    `save_index_wal`, `WalManager::truncate_all` — for `persist.*`;
//! 2. replay the same seeded streams on that index and WAL, on the same
//!    two threads with the same arrival schedule, a span around every
//!    layer call (see [`crate::replay`]);
//! 3. start the daemon on another fresh copy, time HELLO round trips on
//!    both connections, and run the plan over the wire, for the
//!    `runtime.*` gaps and for the output check against the replay;
//! 4. state what recording one empty span costs, and per verb the part
//!    of the request span no layer accounts for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use kastio_core::StringKernel;
use kastio_index::{
    load_index, save_index_wal, IndexStats, PatternIndex, SnapshotStatus, WalManager,
};

use crate::daemon;
use crate::drive::{duration_ns, PhaseRun};
use crate::e2e;
use crate::gen::{Op, Phase, Plan, CONNECTIONS};
use crate::live::{self, daemon_options, LiveRun};
use crate::replay::{replay_phase, ConnReplay, QueryFacts, Target};
use crate::report::{Check, Metrics};
use crate::root::{DAEMON_SHARDS, WAL_SYNC};
use crate::spans::{self, Span};
use crate::stats::{ratio, Summary};
use crate::{Outcome, Workload};

/// HELLO round trips timed per connection.
const HELLOS: usize = 500;

/// The replay of one phase, kept with the phase it replayed.
struct Replayed<'a> {
    phase: &'a Phase,
    conns: [ConnReplay; CONNECTIONS],
}

/// Everything the in-process half of the run measured.
struct Traced<'a> {
    replays: Vec<Replayed<'a>>,
    /// Index counters before and after the replay.
    index: (IndexStats, IndexStats),
    /// WAL counters before and after the replay.
    wal: (SnapshotStatus, SnapshotStatus),
    /// `KastKernel::raw` on each replayed query's neighbour pairs.
    inline_ns: Vec<u64>,
}

impl Traced<'_> {
    fn tracers(&self) -> Vec<&[Span]> {
        self.replays
            .iter()
            .flat_map(|r| r.conns.iter().map(|c| c.tracer.spans.as_slice()))
            .collect()
    }

    fn facts(&self) -> Vec<&QueryFacts> {
        self.replays
            .iter()
            .flat_map(|r| {
                r.conns.iter().flat_map(|c| c.ops.iter().filter_map(|o| o.query.as_ref()))
            })
            .collect()
    }

    fn of(&self, phase: &Phase) -> &Replayed<'_> {
        self.replays.iter().find(|r| std::ptr::eq(r.phase, phase)).expect("every phase is replayed")
    }
}

pub fn run(
    workload: Workload,
    bin: &Path,
    root: &Path,
    work: &Path,
    inputs: &crate::gen::Inputs,
) -> Result<Outcome, String> {
    let plan = &inputs.plan;
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let replay_dir = work.join("replay");
    let traced = trace_in_process(root, &replay_dir, plan, &mut m, &mut lines);
    daemon::remove(&replay_dir);
    let traced = traced?;

    crate::progress("starting the live run");
    let live_dir = work.join("run");
    let live = live::run(bin, root, &live_dir, plan, HELLOS)?;
    let mut checks = vec![live::recovery_check(&live_dir, plan, &live)];
    daemon::remove(&live_dir);
    if workload != Workload::DurableIngest {
        let warmup = plan.warmup.iter().zip(live.warmup.iter()).map(|(p, r)| ("warm-up", p, r));
        for (what, phase, run) in warmup.chain([("window", &plan.window, &live.window.run)]) {
            checks.push(live::output_check(what, phase, run, &traced.of(phase).conns));
        }
    }
    checks.extend(e2e::path_checks(workload, inputs, &live));

    crate::progress("done");
    layer_metrics(&traced, plan, &live, &mut m, &mut lines)?;
    checks.extend(balance_checks(&traced, &mut m)?);
    let span_cost = spans::empty_span_cost_ns();
    m.set("trace.span_cost_ns", span_cost);
    lines.push(format!("trace: one empty span costs {span_cost:.1} ns to record"));
    lines.push(write_spans(&traced, &work.join(format!("spans-{}.tsv", workload.name())))?);

    let (attempted, failed) = e2e::tally(plan, &live);
    Ok(Outcome { metrics: m, attempted, failed, checks, lines })
}

/// Steps 1 and 2: the daemon's start-up sequence one call at a time, then
/// the paced, traced replay on the index and WAL it leaves.
fn trace_in_process<'a>(
    root: &Path,
    dir: &Path,
    plan: &'a Plan,
    m: &mut Metrics,
    lines: &mut Vec<String>,
) -> Result<Traced<'a>, String> {
    crate::progress("timing the start-up sequence in-process");
    daemon::fresh_copy(root, dir)?;
    let started = Instant::now();
    let index = load_index(dir, daemon_options()).map_err(|e| format!("load_index: {e}"))?;
    let load_s = started.elapsed().as_secs_f64();
    let wal =
        WalManager::open(dir, DAEMON_SHARDS, WAL_SYNC).map_err(|e| format!("WAL open: {e}"))?;
    let started = Instant::now();
    save_index_wal(&index, dir, Some(&wal)).map_err(|e| format!("save_index_wal: {e}"))?;
    let save_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    wal.truncate_all().map_err(|e| format!("truncate_all: {e}"))?;
    let truncate_s = started.elapsed().as_secs_f64();
    let status = index.snapshot_status();
    m.set("persist.load_s", load_s);
    m.set("persist.replay_records", status.last_replay_records as f64);
    m.set("persist.save_s", save_s);
    m.set("persist.snapshot_bytes", status.last_bytes as f64);
    m.set("persist.truncate_s", truncate_s);
    lines.push(format!(
        "persist: load_index {load_s:.4} s ({} entries, {} WAL records replayed), \
         save_index_wal {save_s:.4} s ({} bytes), truncate_all {truncate_s:.4} s",
        index.len(),
        status.last_replay_records,
        status.last_bytes
    ));

    crate::progress("traced replay");
    let target = Target { index: &index, wal: Some(&wal) };
    let (index_before, wal_before) = (index.stats(), wal_counters(&wal));
    let epoch = Instant::now();
    let mut replays = Vec::new();
    let mut first_request = 0u32;
    for phase in plan.warmup.iter().chain([&plan.window]).chain(plan.probe.iter()) {
        let conns = replay_phase(target, phase, true, epoch, first_request)?;
        first_request += u32::try_from(phase.len()).expect("ids fit u32");
        replays.push(Replayed { phase, conns });
    }
    let inline_ns = inline_pair_ns(&index, &replays);
    Ok(Traced {
        replays,
        index: (index_before, index.stats()),
        wal: (wal_before, wal_counters(&wal)),
        inline_ns,
    })
}

/// The per-layer metrics of the replay, with their bases.
fn layer_metrics(
    traced: &Traced<'_>,
    plan: &Plan,
    live: &LiveRun,
    m: &mut Metrics,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let tracers = traced.tracers();
    let facts = traced.facts();
    let durations = |name: &str| -> Vec<u64> {
        tracers
            .iter()
            .flat_map(|spans| spans.iter().filter(|s| s.name == name).map(Span::duration))
            .collect()
    };
    let mut timing = |metric: &str, mut samples: Vec<u64>, div: f64| -> Result<(), String> {
        let s = Summary::of(&mut samples).ok_or_else(|| format!("no samples for {metric}"))?;
        m.set(format!("{metric}.p50"), s.p50 as f64 / div);
        m.set(format!("{metric}.p99"), s.tail as f64 / div);
        lines.push(format!("{metric}: {}", s.describe(div)));
        Ok(())
    };
    timing("eval.batch_ns", durations("eval"), 1.0)?;
    timing("eval.ns_per_pair_inline", traced.inline_ns.clone(), 1.0)?;
    timing("prefilter.ns", durations("prefilter"), 1.0)?;
    timing("lru.ns", durations("lru"), 1.0)?;
    timing("index.query_self_ns", self_times(&tracers, "index.query"), 1.0)?;
    timing("index.ingest_ns", durations("index.ingest"), 1.0)?;
    timing("pipeline.intern_ns", durations("pipeline.intern"), 1.0)?;
    timing("signature.ns", durations("signature"), 1.0)?;
    timing("protocol.parse_ns", durations("protocol.parse"), 1.0)?;
    timing("protocol.render_ns", durations("protocol.render"), 1.0)?;
    timing("wal.append_ns", durations("wal.append"), 1.0)?;
    timing("wal.durable_wait_us", durations("wal.wait"), 1e3)?;
    timing("runtime.hello_rtt_us", live.hello_ns.clone(), 1e3)?;
    timing("request.query_ns", durations("request.query"), 1.0)?;
    timing("request.ingest_ns", durations("request.ingest"), 1.0)?;
    timing("request.batch_ingest_ns", durations("request.batch_ingest"), 1.0)?;

    let queries = facts.len() as f64;
    let pairs: usize = facts.iter().map(|f| f.evaluated).sum();
    let batched_ns: u64 =
        facts.iter().filter(|f| f.evaluated > 0).map(|f| f.timings.kernel_ns).sum();
    m.set("eval.ns_per_pair_batched", ratio(batched_ns as f64, pairs as f64));
    m.set("eval.evals_per_query", ratio(pairs as f64, queries));
    m.set("eval.pairs", pairs as f64);
    m.set("eval.inline_pairs", traced.inline_ns.len() as f64);
    lines.push(format!(
        "eval: {pairs} pairs scored in {} queries; {batched_ns} ns in the kernel stage of the \
         queries that scored any",
        facts.len()
    ));

    let candidates: usize = facts.iter().map(|f| f.candidates).sum();
    let neighbours: usize = facts.iter().map(|f| f.neighbours.len()).sum();
    let scanned: usize = facts.iter().map(|f| f.corpus).sum();
    let prefilter_ns: u64 = facts.iter().map(|f| f.timings.prefilter_ns).sum();
    m.set("prefilter.ns_per_entry", ratio(prefilter_ns as f64, scanned as f64));
    m.set("prefilter.candidates_per_query", ratio(candidates as f64, queries));
    m.set("prefilter.useful_ratio", ratio(neighbours as f64, candidates as f64));
    m.set("prefilter.candidates", candidates as f64);
    m.set("prefilter.neighbours", neighbours as f64);
    lines.push(format!(
        "prefilter: {prefilter_ns} ns over {scanned} entries scanned; {neighbours} neighbours \
         returned of {candidates} candidates"
    ));

    let hits: usize = facts.iter().map(|f| f.cache_hits).sum();
    m.set("lru.hit_ratio", ratio(hits as f64, (hits + pairs) as f64));
    m.set("lru.hits", hits as f64);
    m.set("lru.lookups", (hits + pairs) as f64);
    lines.push(format!("lru: {hits} hits of {} lookups", hits + pairs));

    let (before, after) = &traced.index;
    let self_evals = after.query_self_evals - before.query_self_evals;
    let index_queries = after.queries - before.queries;
    m.set("index.self_evals_per_query", ratio(self_evals as f64, index_queries as f64));
    m.set("index.self_evals", self_evals as f64);
    lines.push(format!("index: {self_evals} query self-kernels in {index_queries} queries"));

    let tokens: usize = facts.iter().map(|f| f.string.len()).sum();
    m.set("pipeline.tokens_per_trace", ratio(tokens as f64, queries));
    let reply_bytes: usize = traced
        .replays
        .iter()
        .flat_map(|r| r.conns.iter().flat_map(|c| c.ops.iter()))
        .filter(|o| o.query.is_some())
        .map(|o| o.reply.len())
        .sum();
    m.set("protocol.reply_bytes", ratio(reply_bytes as f64, queries));

    let (before, after) = &traced.wal;
    let records = after.wal_records - before.wal_records;
    let fsyncs = after.wal_fsyncs - before.wal_fsyncs;
    let bytes = after.wal_bytes - before.wal_bytes;
    m.set("wal.fsyncs_per_record", ratio(fsyncs as f64, records as f64));
    m.set("wal.bytes_per_record", ratio(bytes as f64, records as f64));
    m.set("wal.records", records as f64);
    m.set("wal.fsyncs", fsyncs as f64);
    lines.push(format!("wal: {records} records, {fsyncs} fsyncs, {bytes} bytes"));

    m.set("runtime.hellos", live.hello_ns.len() as f64);
    let (ingest_phase, ingest_live) = e2e::ingest_phase(plan, live);
    let mut gap =
        |metric: &str, root: &str, phase: &Phase, run: &PhaseRun, pick: fn(&Op) -> bool| {
            let wire: Vec<u64> = live::answered(phase, run)
                .filter(|(_, op, _)| pick(op))
                .map(|(_, _, d)| duration_ns(d.service()))
                .collect();
            let spans: Vec<u64> = traced
                .of(phase)
                .conns
                .iter()
                .flat_map(|c| c.tracer.spans.iter().filter(|s| s.name == root).map(Span::duration))
                .collect();
            let (wire_mean, span_mean) = (mean(&wire), mean(&spans));
            m.set(metric, (wire_mean - span_mean) / 1e3);
            lines.push(format!(
                "{metric}: mean send-to-reply latency {:.1} µs (n={}) - mean {root} span {:.1} µs \
             (n={})",
                wire_mean / 1e3,
                wire.len(),
                span_mean / 1e3,
                spans.len()
            ));
        };
    gap("runtime.query_gap_us", "request.query", &plan.window, &live.window.run, is_query);
    gap("runtime.ingest_gap_us", "request.ingest", ingest_phase, &ingest_live.run, is_ingest);
    Ok(())
}

/// Per verb, the layers' self times plus the unaccounted remainder must
/// equal the request spans.
fn balance_checks(traced: &Traced<'_>, m: &mut Metrics) -> Result<Vec<Check>, String> {
    let accounts = spans::account(traced.tracers());
    let mut checks = Vec::new();
    for (verb, metric, count) in [
        ("request.query", "request.query_unaccounted_ns", "request.queries"),
        ("request.ingest", "request.ingest_unaccounted_ns", "request.ingests"),
        ("request.batch_ingest", "request.batch_ingest_unaccounted_ns", "request.batch_ingests"),
    ] {
        let account = accounts.get(verb).ok_or_else(|| format!("no {verb} was replayed"))?;
        let per_request = account.requests as f64;
        let unaccounted = account.unaccounted_ns(verb) as f64 / per_request;
        m.set(metric, unaccounted);
        m.set(count, per_request);
        let layers: Vec<String> = account
            .self_ns
            .iter()
            .filter(|(name, _)| **name != verb)
            .map(|(name, ns)| format!("{name} {:.0}", *ns as f64 / per_request))
            .collect();
        checks.push(Check::new(
            "layers-balance",
            account.balances(),
            format!(
                "{verb}: mean span {:.0} ns = self times [{}] + unaccounted {unaccounted:.0} ns, \
                 over {} requests",
                account.total_ns as f64 / per_request,
                layers.join(", "),
                account.requests
            ),
        ));
    }
    Ok(checks)
}

/// The spans stayed in memory during the run; they are written out now.
fn write_spans(traced: &Traced<'_>, file: &Path) -> Result<String, String> {
    let tracers = traced.tracers();
    let mut out = String::from("# thread\trequest\tname\tparent\tstart_ns\tend_ns\n");
    for (thread, spans) in tracers.iter().enumerate() {
        for s in spans.iter() {
            let parent =
                if s.parent == spans::ROOT { "-".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "{thread}\t{}\t{}\t{parent}\t{}\t{}\n",
                s.request, s.name, s.start, s.end
            ));
        }
    }
    std::fs::write(file, out).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    let count: usize = tracers.iter().map(|t| t.len()).sum();
    Ok(format!("trace: {count} spans written to {}", file.display()))
}

fn is_query(op: &Op) -> bool {
    matches!(op, Op::Query(_))
}

fn is_ingest(op: &Op) -> bool {
    matches!(op, Op::Ingest(_))
}

fn mean(values: &[u64]) -> f64 {
    ratio(values.iter().map(|&v| v as f64).sum(), values.len() as f64)
}

fn wal_counters(wal: &WalManager) -> SnapshotStatus {
    let mut status = SnapshotStatus::default();
    wal.overlay(&mut status);
    status
}

/// Self times of every span named `name`.
fn self_times(tracers: &[&[Span]], name: &str) -> Vec<u64> {
    tracers
        .iter()
        .flat_map(|spans| {
            spans::self_times(spans)
                .into_iter()
                .zip(spans.iter())
                .filter(|(_, s)| s.name == name)
                .map(|(t, _)| t)
        })
        .collect()
}

/// `KastKernel::raw` timed by the benchmark on each replayed query's
/// returned neighbour pairs, one call per sample: the kernel without the
/// batch fan-out around it.
fn inline_pair_ns(index: &PatternIndex, replays: &[Replayed<'_>]) -> Vec<u64> {
    let strings: BTreeMap<u32, kastio_core::IdString> =
        index.entries().into_iter().map(|e| (e.id.0, e.string)).collect();
    let kernel = index.kernel();
    let mut samples = Vec::new();
    let facts = replays
        .iter()
        .flat_map(|r| r.conns.iter().flat_map(|c| c.ops.iter().filter_map(|o| o.query.as_ref())));
    for facts in facts {
        for id in &facts.neighbours {
            let started = Instant::now();
            black_box(kernel.raw(black_box(&facts.string), black_box(&strings[id])));
            samples.push(duration_ns(started.elapsed()));
        }
    }
    samples
}
