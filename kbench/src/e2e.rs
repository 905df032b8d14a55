//! The end-to-end run (`--trace 0`): repeated starts for `setup_s`, then
//! one live run with tracing off, the daemon observed only through the
//! wire, its `listening on` line and `/proc`.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use kastio_index::{decode_trace_inline, PatternIndex};

use crate::daemon::{self, Daemon};
use crate::drive::{duration_ns, PhaseRun};
use crate::gen::{Arrival, Inputs, Op, Phase, Plan, CONNECTIONS};
use crate::live::{self, answered, daemon_options, LiveRun, Observed};
use crate::replay::{replay_phase, Target};
use crate::report::{Check, Metrics};
use crate::stats::{median, median_of_medians, ratio, Summary};
use crate::{Outcome, Workload};

/// Daemon starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;

/// The open-loop generator must send within this of the due time at its
/// tail percentile. Far above the ~0.1 ms it usually runs at, so a burst
/// of steal time on a shared host does not fail the run, while a
/// generator that cannot keep up (seconds behind) does.
const LATENESS_LIMIT: Duration = Duration::from_millis(50);

/// `cold-query` must miss the kernel cache: hits ÷ (hits + evals) at most.
const COLD_HIT_RATIO_MAX: f64 = 0.02;

/// `hot-query` must hit it: hits ÷ (hits + evals) at least.
const HOT_HIT_RATIO_MIN: f64 = 0.98;

/// A live run during which the hypervisor took more than this share of
/// the machine's CPU time is measured again. On the shared VM this was
/// built on, undisturbed windows ran at 0.5–1.5% steal; a window at 25%
/// had four times the usual median latency.
const STEAL_LIMIT: f64 = 0.05;

/// Live runs at most; the least disturbed one is kept.
const ATTEMPTS: usize = 3;

/// Pause before measuring again, so a burst of steal can pass.
const RETRY_PAUSE: Duration = Duration::from_secs(10);

pub fn run(
    workload: Workload,
    bin: &Path,
    root: &Path,
    work: &Path,
    inputs: &Inputs,
) -> Result<Outcome, String> {
    let plan = &inputs.plan;
    let run_dir = work.join("run");
    let mut setups = Vec::with_capacity(SETUP_STARTS);
    // Each start gets its own copy and the copies are removed only at the
    // end: deleting thousands of files right before a start slowed that
    // start by up to 4x on a shared VM disk.
    let mut spent = Vec::new();
    for i in 1..SETUP_STARTS {
        crate::progress("timing a start");
        let dir = work.join(format!("start-{i}"));
        daemon::fresh_copy(root, &dir)?;
        let daemon = Daemon::start(bin, &dir, &dir.with_extension("log"))?;
        setups.push(daemon.setup);
        daemon.kill()?;
        spent.push(dir);
    }
    let mut attempts: Vec<(LiveRun, Check)> = Vec::new();
    for attempt in 1..=ATTEMPTS {
        if attempt > 1 {
            std::thread::sleep(RETRY_PAUSE);
        }
        crate::progress("starting the live run");
        let live = live::run(bin, root, &run_dir, plan, 1)?;
        crate::progress("recovering the killed daemon's root");
        let recovery = live::recovery_check(&run_dir, plan, &live);
        let quiet = steal(&live) <= STEAL_LIMIT;
        attempts.push((live, recovery));
        if quiet {
            break;
        }
    }
    daemon::remove(&run_dir);
    for dir in spent {
        daemon::remove(&dir);
    }
    let steals: Vec<String> =
        attempts.iter().map(|(live, _)| format!("{:.2}%", steal(live) * 100.0)).collect();
    let kept = (0..attempts.len())
        .min_by(|&a, &b| steal(&attempts[a].0).total_cmp(&steal(&attempts[b].0)))
        .expect("at least one attempt");
    let (live, recovery) = attempts.swap_remove(kept);
    setups.push(live.setup);
    let mut checks = vec![recovery];

    if workload != Workload::DurableIngest {
        // The corpus is fixed during the read window, so every reply is
        // deterministic: compute them in-process on the same entries.
        crate::progress("computing the expected replies");
        let index = expected_index(inputs)?;
        let target = Target { index: &index, wal: None };
        let epoch = Instant::now();
        if let (Some(phase), Some(run)) = (&plan.warmup, &live.warmup) {
            let expected = replay_phase(target, phase, false, epoch, 0)?;
            checks.push(live::output_check("warm-up", phase, run, &expected));
        }
        let expected = replay_phase(target, &plan.window, false, epoch, 0)?;
        checks.push(live::output_check("window", &plan.window, &live.window.run, &expected));
    }
    checks.extend(path_checks(workload, inputs, &live));
    crate::progress("done");

    let mut lines = vec![
        format!("window STATS {}", live.window.after.describe_since(&live.window.before)),
        format!(
            "host steal (share of CPU time) per live run: {}; kept run {} (runs above {}% are \
             measured again, {ATTEMPTS} at most)",
            steals.join(", "),
            kept + 1,
            STEAL_LIMIT * 100.0
        ),
    ];
    let metrics = metrics(inputs, &live, &setups, &mut lines)?;
    let (attempted, failed) = tally(plan, &live);
    Ok(Outcome { metrics, attempted, failed, checks, lines })
}

/// The larger steal share of a live run's window and probe.
fn steal(live: &LiveRun) -> f64 {
    live.probe.as_ref().map_or(live.window.steal, |probe| probe.steal.max(live.window.steal))
}

/// The seeded root's corpus, ingested in the order the daemon's recovery
/// ingests it (snapshot, then WAL tail), so ids and interned strings —
/// and with them every similarity — are bit-identical to the daemon's.
fn expected_index(inputs: &Inputs) -> Result<PatternIndex, String> {
    let index = PatternIndex::new(daemon_options());
    for (i, entry) in inputs.root.iter().enumerate() {
        let trace = decode_trace_inline(&entry.wire)?;
        index.ingest(format!("e{i}"), entry.label.as_str(), trace).map_err(|e| e.to_string())?;
    }
    Ok(index)
}

/// Whether the workload still exercises the path it is named for, judged
/// from `STATS` counter deltas and from the generator's own timing.
pub fn path_checks(workload: Workload, inputs: &Inputs, live: &LiveRun) -> Vec<Check> {
    let plan = &inputs.plan;
    let window = &live.window;
    let delta = |key: &str| window.after.delta(&window.before, key);
    let (hits, evals) = (delta("cache_hits"), delta("kernel_evals"));
    let hit_ratio = ratio(hits as f64, (hits + evals) as f64);
    let cache =
        format!("window cache_hits=+{hits} kernel_evals=+{evals}, hit ratio {hit_ratio:.4}");
    let mut checks = vec![live::transport_check(live)];
    match workload {
        Workload::ColdQuery => {
            checks.push(Check::new("cache-bypassed", hit_ratio <= COLD_HIT_RATIO_MAX, cache));
            let root: HashSet<&str> = inputs.root.iter().map(|e| e.wire.as_str()).collect();
            let mut seen = HashSet::new();
            let repeats = plan
                .window
                .ops
                .iter()
                .flatten()
                .filter(|op| match op {
                    Op::Query(wire) => root.contains(wire.as_str()) || !seen.insert(wire.as_str()),
                    _ => true,
                })
                .count();
            checks.push(Check::new(
                "queries-distinct",
                repeats == 0,
                format!("{repeats} repeated query traces"),
            ));
        }
        Workload::HotQuery => {
            checks.push(Check::new("cache-hit", hit_ratio >= HOT_HIT_RATIO_MIN, cache))
        }
        Workload::DurableIngest => {}
    }
    match (&plan.probe, &live.probe) {
        (Some(phase), Some(probe)) => {
            let records = delta("wal_records");
            checks.push(Check::new(
                "wal-idle",
                records == 0,
                format!("window wal_records=+{records}"),
            ));
            checks.push(wal_check("probe", phase, probe));
        }
        _ => checks.push(wal_check("window", &plan.window, window)),
    }
    if let Arrival::Open { .. } = plan.window.arrival {
        let mut lateness: Vec<u64> =
            window.run.conns.iter().flat_map(|c| c.lateness_ns.iter().copied()).collect();
        if let Some(late) = Summary::of(&mut lateness) {
            let worst = lateness.last().copied().unwrap_or(0);
            checks.push(Check::new(
                "generator-on-time",
                late.tail <= duration_ns(LATENESS_LIMIT),
                format!(
                    "send lateness µs {}, max {:.1}; tail limit {} µs",
                    late.describe(1e3),
                    worst as f64 / 1e3,
                    LATENESS_LIMIT.as_micros()
                ),
            ));
        }
    }
    checks
}

/// Every acknowledged entry became exactly one WAL record, and the log
/// was fsynced.
fn wal_check(what: &str, phase: &Phase, observed: &Observed) -> Check {
    let acked: usize =
        answered(phase, &observed.run).map(|(_, op, d)| live::acked_entries(op, &d.reply)).sum();
    let records = observed.after.delta(&observed.before, "wal_records");
    let fsyncs = observed.after.delta(&observed.before, "wal_fsyncs");
    Check::new(
        "wal-records",
        records == acked as u64 && fsyncs > 0,
        format!("{what}: {acked} entries acked, wal_records=+{records}, wal_fsyncs=+{fsyncs}"),
    )
}

/// The phase the ingest metrics describe: the probe of a read workload,
/// the window of `durable-ingest`.
pub fn ingest_phase<'a>(plan: &'a Plan, live: &'a LiveRun) -> (&'a Phase, &'a Observed) {
    match (&plan.probe, &live.probe) {
        (Some(phase), Some(observed)) => (phase, observed),
        _ => (&plan.window, &live.window),
    }
}

/// Slices a timed phase's schedule is cut into for its latency medians;
/// odd, so their median is one slice's.
const SLICES: usize = 11;

/// The gated median, in µs, of the latencies of the answered ops `pick`
/// selects: the median of the medians of [`SLICES`] equal slices of the
/// phase's schedule. Also the report line with every slice's median and
/// the whole phase's median, tail and sample count.
fn sliced_p50(
    what: &str,
    phase: &Phase,
    run: &PhaseRun,
    pick: fn(&Op) -> bool,
) -> Result<(f64, String), String> {
    let mut slices = vec![Vec::new(); SLICES];
    for (c, _, d) in answered(phase, run).filter(|(_, op, _)| pick(op)) {
        // Ops are dealt out round-robin: op `i` of connection `c` is
        // number `i * CONNECTIONS + c` of the phase's schedule.
        let place = d.op * CONNECTIONS + c;
        slices[place * SLICES / phase.len()].push(duration_ns(d.latency()));
    }
    let whole =
        Summary::of(&mut slices.concat()).ok_or_else(|| format!("no {what} was answered"))?;
    let (p50, medians) = median_of_medians(&mut slices).expect("a slice holds the samples");
    let medians: Vec<String> = medians.iter().map(|&m| format!("{:.0}", m as f64 / 1e3)).collect();
    let detail = format!(
        "median of {SLICES} slice medians {:.1} (slices: {}); whole phase {}",
        p50 / 1e3,
        medians.join(" "),
        whole.describe(1e3)
    );
    Ok((p50 / 1e3, detail))
}

fn metrics(
    inputs: &Inputs,
    live: &LiveRun,
    setups: &[Duration],
    lines: &mut Vec<String>,
) -> Result<Metrics, String> {
    let plan = &inputs.plan;
    let mut m = Metrics::default();
    let window = &live.window.run;

    let (p50, detail) = sliced_p50("QUERY", &plan.window, window, |op| matches!(op, Op::Query(_)))?;
    m.set("query_p50_us", p50);
    let zero = if plan.window.arrival == Arrival::Closed { "send" } else { "due time" };
    lines.push(format!(
        "query_p50_us (and the ungated tail): QUERY latency µs from {zero}: {detail}"
    ));

    let (phase, observed) = ingest_phase(plan, live);
    let (p50, detail) =
        sliced_p50("INGEST", phase, &observed.run, |op| matches!(op, Op::Ingest(_)))?;
    m.set("ingest_p50_us", p50);
    let which = if plan.probe.is_some() { "write probe after the window" } else { "window" };
    lines.push(format!(
        "ingest_p50_us (and the ungated tail): INGEST latency µs ({which}): {detail}"
    ));

    let acked = answered(phase, &observed.run);
    let (entries, text) = acked.fold((0, 0), |(n, bytes), (_, op, d)| {
        (n + live::acked_entries(op, &d.reply), bytes + live::acked_text_bytes(op, &d.reply))
    });
    let seconds = observed.run.seconds();
    m.set("ingest_entries_per_s", entries as f64 / seconds);
    lines
        .push(format!("ingest_entries_per_s: {entries} entries acked in {seconds:.3} s ({which})"));
    m.set("write_amp", ratio(observed.write_bytes as f64, text as f64));
    lines.push(format!(
        "write_amp: {} bytes written by the daemon / {text} bytes of acked trace text",
        observed.write_bytes
    ));

    let seconds = window.seconds();
    m.set("ops_per_s", window.answered() as f64 / seconds);
    let offered = match plan.window.arrival {
        Arrival::Open { interval_ns } => format!(", offered {:.0}/s", 1e9 / interval_ns as f64),
        Arrival::Closed => String::new(),
    };
    lines.push(format!("ops_per_s: {} ops answered in {seconds:.3} s{offered}", window.answered()));

    let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    m.set("setup_s", median(&setup));
    lines.push(format!(
        "setup_s: median of {} starts (spawn to `listening on`): {setup:.3?}",
        setup.len()
    ));

    m.set("peak_rss_mib", live.peak_rss_kib as f64 / 1024.0);
    lines.push(format!("peak_rss_mib: VmHWM {} KiB after the window", live.peak_rss_kib));

    let root_text: u64 = inputs.root.iter().map(|e| live::text_bytes(&e.wire)).sum();
    let window_text: u64 =
        answered(&plan.window, window).map(|(_, op, d)| live::acked_text_bytes(op, &d.reply)).sum();
    m.set("space_amp", ratio(live.space_bytes as f64, (root_text + window_text) as f64));
    lines.push(format!(
        "space_amp: {} bytes allocated under the root / {} bytes of trace text it holds",
        live.space_bytes,
        root_text + window_text
    ));
    Ok(m)
}

/// Operations attempted, and those that failed: `ERR` replies plus ops
/// lost to a transport failure.
pub fn tally(plan: &Plan, live: &LiveRun) -> (usize, usize) {
    let phases =
        plan.warmup.iter().zip(live.warmup.iter()).chain([(&plan.window, &live.window.run)]);
    let phases = phases.chain(plan.probe.iter().zip(live.probe.iter().map(|p| &p.run)));
    phases.fold((0, 0), |(attempted, failed), (phase, run)| {
        let errors = answered(phase, run).filter(|(_, _, d)| !d.reply.starts_with("OK")).count();
        let lost: usize = run.conns.iter().map(|c| c.lost).sum();
        (attempted + phase.len(), failed + errors + lost)
    })
}
