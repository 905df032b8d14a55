//! `kbench`: the kastio benchmark. Drives the release `kastio serve`
//! daemon over TCP with seeded workloads (`--trace 0`: end-to-end
//! metrics), or replays the same request streams in-process through the
//! layers' public functions with a span around each call (`--trace 1`:
//! per-layer metrics). See `kbench/README.md`.
//!
//! ```text
//! kbench --workload cold-query|hot-query|durable-ingest --seed N
//!        --seconds S --trace 0|1 [--calibrate]
//! ```
//!
//! Run it from the root of a kastio checkout; it builds the daemon there.
//! The last line of standard output is the result as one JSON object.

mod daemon;
mod drive;
mod e2e;
mod gen;
mod live;
mod replay;
mod report;
mod root;
mod spans;
mod stats;
mod traced;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use report::{Check, Metrics};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop `QUERY`s whose every trace is new: the kernel cache is
    /// bypassed and the prefilter and kernel stages do the work.
    ColdQuery,
    /// Open-loop `QUERY`s drawn from 64 warmed-up traces: the kernel
    /// stage is bypassed and the fixed per-request cost dominates.
    HotQuery,
    /// Open-loop writes and cold queries: every ack waits for a WAL
    /// fsync.
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ColdQuery, Workload::HotQuery, Workload::DurableIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdQuery => "cold-query",
            Workload::HotQuery => "hot-query",
            Workload::DurableIngest => "durable-ingest",
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    /// Human-readable detail: sample counts, bases, breakdowns.
    pub lines: Vec<String>,
}

/// Notes on stderr that a stage of the run is done, with the time since
/// the run began.
pub fn progress(stage: &str) {
    static STARTED: OnceLock<Instant> = OnceLock::new();
    let started = STARTED.get_or_init(Instant::now);
    eprintln!("kbench: [{:6.1}s] {stage}", started.elapsed().as_secs_f64());
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
}

const USAGE: &str =
    "usage: kbench --workload cold-query|hot-query|durable-ingest --seed N --seconds S \
                     --trace 0|1 [--calibrate]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut calibrate) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} needs an integer, got `{value}`"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                seconds = Some(number()?).filter(|s| (1..=60).contains(s));
                if seconds.is_none() {
                    return Err(format!("--seconds is 1 to 60, got `{value}`"));
                }
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace is 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        calibrate,
    })
}

fn run(args: &Args) -> Result<(Outcome, PathBuf), String> {
    wire::tight_timers().map_err(|e| format!("cannot set the timer slack: {e}"))?;
    progress("building the daemon");
    let bin = daemon::build()?;
    let work = daemon::target_dir().join("kbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut inputs = gen::inputs(args.workload, args.seed, args.seconds);
    if args.calibrate {
        // Capacity, not latency: the window's requests back to back.
        inputs.plan.window.arrival = gen::Arrival::Closed;
    }
    progress("seeding the root");
    let root = root::ensure(&work, args.seed, &inputs.root)?;
    let outcome = if args.trace {
        traced::run(args.workload, &bin, &root, &work, &inputs)?
    } else {
        e2e::run(args.workload, &bin, &root, &work, &inputs)?
    };
    Ok((outcome, work))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, work) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] =
        if args.trace { &report::PER_LAYER } else { &report::END_TO_END };
    let metrics = match outcome.metrics.in_order(declared) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let mut text = format!(
        "kbench {} seed={} seconds={} trace={}{}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.calibrate { " calibrate" } else { "" }
    );
    for (key, value) in report::provenance(args.seed, &work) {
        text.push_str(&format!("  {key}: {value}\n"));
    }
    for line in &outcome.lines {
        text.push_str(&format!("  {line}\n"));
    }
    text.push_str(&format!(
        "  error_ratio: {} failed / {} attempted = {}\n",
        outcome.failed,
        outcome.attempted,
        stats::ratio(outcome.failed as f64, outcome.attempted as f64)
    ));
    for check in &outcome.checks {
        text.push_str(&format!(
            "  check {}: {} ({})\n",
            check.name,
            if check.ok { "PASS" } else { "FAIL" },
            check.detail
        ));
    }
    for (name, unit, value) in &metrics {
        text.push_str(&format!("  {name} = {value} {unit}\n"));
    }
    let line = report::result_line(correct, outcome.attempted, outcome.failed, &metrics);
    let results = work.join("results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&file, format!("{text}{line}\n")))
    {
        eprintln!("kbench: cannot record the result in {}: {e}", file.display());
    }
    if !correct {
        eprintln!("kbench: a check failed; see above");
    }
    print!("{text}");
    println!("{line}");
    ExitCode::SUCCESS
}
