//! One live run: the daemon started on a fresh copy of the root, every
//! phase of the plan sent over the wire, `/proc` and `STATS` read around
//! the timed window, and the daemon `SIGKILL`ed at the end. Both modes
//! use it; the checks on its output live here too.

use std::collections::HashSet;
use std::path::Path;

use kastio_index::{decode_trace_inline, encode_trace_inline, load_index, IndexOptions};
use kastio_trace::write_trace;

use crate::daemon::{self, Daemon};
use crate::drive::{run_phase, Done, PhaseRun};
use crate::gen::{Op, Phase, Plan, CONNECTIONS};
use crate::replay::ConnReplay;
use crate::report::Check;
use crate::root::DAEMON_SHARDS;
use crate::wire::{Conn, Stats};

/// The options a default `kastio serve` builds its index with.
pub fn daemon_options() -> IndexOptions {
    IndexOptions { shards: DAEMON_SHARDS, ..IndexOptions::default() }
}

/// Idle time between a read workload's window and its write probe. Right
/// after the CPU-heavy cold-query window, the probe's first second ran up
/// to 40% slower than its last, and the probe's median moved with it from
/// run to run (IQR 17% of the median over ten seeds, against 7% after
/// hot-query's lighter window).
const PROBE_PAUSE: std::time::Duration = std::time::Duration::from_secs(3);

/// `STATS` and the daemon's write counter, before and after a phase.
#[derive(Debug)]
pub struct Observed {
    pub run: PhaseRun,
    pub before: Stats,
    pub after: Stats,
    pub write_bytes: u64,
    /// Share of the machine's CPU time the hypervisor took away during
    /// the phase (`steal` in `/proc/stat`).
    pub steal: f64,
}

/// Everything a live run saw.
#[derive(Debug)]
pub struct LiveRun {
    pub setup: std::time::Duration,
    /// HELLO round trips, both connections.
    pub hello_ns: Vec<u64>,
    pub warmup: Option<PhaseRun>,
    pub window: Observed,
    pub peak_rss_kib: u64,
    /// Bytes allocated under the root right after the window.
    pub space_bytes: u64,
    pub probe: Option<Observed>,
}

/// Starts the daemon on a fresh copy of `root` at `run_dir` and runs
/// `plan`; `hellos` HELLO round trips per connection are timed first.
/// The daemon is killed with `SIGKILL` before this returns.
pub fn run(
    bin: &Path,
    root: &Path,
    run_dir: &Path,
    plan: &Plan,
    hellos: usize,
) -> Result<LiveRun, String> {
    daemon::fresh_copy(root, run_dir)?;
    let daemon = Daemon::start(bin, run_dir, &run_dir.with_extension("log"))?;
    let connect = || Conn::connect(&daemon.addr).map_err(|e| format!("cannot connect: {e}"));
    let mut conns = [connect()?, connect()?];
    let mut hello_ns = Vec::with_capacity(hellos * CONNECTIONS);
    for conn in &mut conns {
        for _ in 0..hellos.max(1) {
            hello_ns.push(crate::drive::duration_ns(conn.hello()?));
        }
    }
    let warmup = plan.warmup.as_ref().map(|phase| run_phase(&mut conns, phase));
    crate::progress("timed window");
    let window = observe(&daemon, &mut conns, &plan.window)?;
    let peak_rss_kib = daemon.peak_rss_kib()?;
    let space_bytes =
        daemon::allocated_bytes(run_dir).map_err(|e| format!("cannot measure the root: {e}"))?;
    let probe = match &plan.probe {
        Some(phase) => {
            std::thread::sleep(PROBE_PAUSE);
            crate::progress("write probe");
            Some(observe(&daemon, &mut conns, phase)?)
        }
        None => None,
    };
    let setup = daemon.setup;
    daemon.kill()?;
    Ok(LiveRun { setup, hello_ns, warmup, window, peak_rss_kib, space_bytes, probe })
}

fn observe(
    daemon: &Daemon,
    conns: &mut [Conn; CONNECTIONS],
    phase: &Phase,
) -> Result<Observed, String> {
    let before = conns[0].stats()?;
    let written = daemon.write_bytes()?;
    let cpu = cpu_times();
    let run = run_phase(conns, phase);
    let (steal, total) =
        cpu_times().zip(cpu).map_or((0, 0), |((s1, t1), (s0, t0))| (s1 - s0, t1 - t0));
    let write_bytes = daemon.write_bytes()?.saturating_sub(written);
    let after = conns[0].stats()?;
    Ok(Observed {
        run,
        before,
        after,
        write_bytes,
        steal: crate::stats::ratio(steal as f64, total as f64),
    })
}

/// (steal, total) CPU time of the whole machine, in clock ticks.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Every answered request of a phase with the op it answered.
pub fn answered<'a>(
    phase: &'a Phase,
    run: &'a PhaseRun,
) -> impl Iterator<Item = (usize, &'a Op, &'a Done)> {
    run.conns
        .iter()
        .enumerate()
        .flat_map(move |(c, conn)| conn.done.iter().map(move |d| (c, &phase.ops[c][d.op], d)))
}

/// Bytes of plain-text trace (the snapshot's format) of an inline trace.
pub fn text_bytes(wire: &str) -> u64 {
    decode_trace_inline(wire).map_or(0, |trace| write_trace(&trace).len() as u64)
}

/// Trace text an `OK`-acknowledged op added to the corpus.
pub fn acked_text_bytes(op: &Op, reply: &str) -> u64 {
    if !reply.starts_with("OK") {
        return 0;
    }
    match op {
        Op::Query(_) => 0,
        Op::Ingest(item) => text_bytes(&item.wire),
        Op::Batch(items) => items.iter().map(|item| text_bytes(&item.wire)).sum(),
    }
}

/// Entries an `OK`-acknowledged op added.
pub fn acked_entries(op: &Op, reply: &str) -> usize {
    if reply.starts_with("OK") {
        op.entries()
    } else {
        0
    }
}

/// After the `SIGKILL`: recovering the root must find every acknowledged
/// entry.
pub fn recovery_check(run_dir: &Path, plan: &Plan, live: &LiveRun) -> Check {
    let index = match load_index(run_dir, daemon_options()) {
        Ok(index) => index,
        Err(e) => return Check::new("recovery", false, format!("load_index failed: {e}")),
    };
    let present: HashSet<String> =
        index.entries().iter().map(|e| encode_trace_inline(&e.trace)).collect();
    let mut acked = 0;
    let mut missing = 0;
    let phases = [(&plan.window, &live.window.run)]
        .into_iter()
        .chain(plan.probe.iter().zip(live.probe.iter().map(|p| &p.run)));
    for (phase, run) in phases {
        for (_, op, done) in answered(phase, run) {
            if !done.reply.starts_with("OK") {
                continue;
            }
            let items: Vec<&str> = match op {
                Op::Query(_) => continue,
                Op::Ingest(item) => vec![&item.wire],
                Op::Batch(items) => items.iter().map(|item| item.wire.as_str()).collect(),
            };
            for wire in items {
                acked += 1;
                let canonical = decode_trace_inline(wire).map(|t| encode_trace_inline(&t));
                if !canonical.is_ok_and(|c| present.contains(&c)) {
                    missing += 1;
                }
            }
        }
    }
    Check::new(
        "recovery",
        missing == 0,
        format!(
            "SIGKILL, then load_index: {} entries, {acked} acked this run, {missing} missing",
            index.len()
        ),
    )
}

/// Every live `QUERY` reply of `phase` must equal the replay's rendering
/// of the same connection's same op, byte for byte.
pub fn output_check(
    what: &str,
    phase: &Phase,
    run: &PhaseRun,
    expected: &[ConnReplay; CONNECTIONS],
) -> Check {
    let queries = phase.ops.iter().flatten().filter(|op| matches!(op, Op::Query(_))).count();
    let mut compared = 0;
    let mut mismatched = 0;
    let mut first = String::new();
    for (c, op, done) in answered(phase, run) {
        if !matches!(op, Op::Query(_)) {
            continue;
        }
        compared += 1;
        let want = &expected[c].ops[done.op].reply;
        if *want != done.reply {
            mismatched += 1;
            if first.is_empty() {
                first = format!(
                    "; first: conn {c} op {}: got {:?}, want {want:?}",
                    done.op, done.reply
                );
            }
        }
    }
    Check::new(
        "output",
        mismatched == 0 && compared == queries,
        format!(
            "{what}: {compared} of {queries} QUERY replies equal render_query_reply of the \
             replay, {mismatched} differ{first}"
        ),
    )
}

/// No connection failed: a transport error loses the rest of its ops.
pub fn transport_check(live: &LiveRun) -> Check {
    let phases =
        live.warmup.iter().chain([&live.window.run]).chain(live.probe.iter().map(|p| &p.run));
    let errors: Vec<&str> =
        phases.flat_map(|run| run.conns.iter().filter_map(|c| c.error.as_deref())).collect();
    Check::new(
        "transport",
        errors.is_empty(),
        format!("{} connection errors {errors:?}", errors.len()),
    )
}
