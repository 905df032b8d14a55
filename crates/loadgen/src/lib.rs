//! # kastio-loadgen
//!
//! An end-to-end load harness for the `kastio serve` daemon. It drives N
//! concurrent TCP clients through seeded, reproducible scenario mixes —
//! [`ScenarioKind::ReadHeavy`], [`ScenarioKind::WriteHeavy`], the
//! zipf-skewed [`ScenarioKind::HotKey`] and the snapshot-punctuated
//! [`ScenarioKind::SaveStorm`] — measuring per-verb throughput
//! and p50/p95/p99 latency with a constant-memory log-bucketed
//! [`Histogram`], and bracketing every scenario with `STATS` snapshots so
//! the report correlates client-side latency with server-side cache,
//! kernel and snapshot counters. Three scenarios are opt-in
//! (`--scenario <name>`) because they measure things a baseline should
//! not contain: [`ScenarioKind::Overload`] (load shedding under a tiny
//! memory budget), [`ScenarioKind::SnapshotStall`] (aggressive `SAVE`
//! pressure inside hot reads) and [`ScenarioKind::Churn`] (one fresh
//! connect → `HELLO` → `QUERY` → close connection per operation, timing
//! the accept path itself).
//!
//! The harness either targets a running daemon (`addr`) or self-spawns an
//! in-process [`kastio_index::Server`] on an ephemeral port — with a
//! scratch save directory and a write-ahead log attached, so `SAVE` is a
//! servable verb and every ingest pays the real ack-after-fsync price
//! (the report's `wal_records`/`wal_fsyncs` STATS deltas come from
//! there). Every client
//! opens with the `HELLO` handshake and refuses to run against a server
//! speaking a different protocol version. `kastio loadgen` fronts [`run`]
//! on the command line and writes the [`Report`] to `--out` (default
//! `loadgen.json`).
//!
//! Reproducibility: client `c`'s request stream is the pure function
//! `ScenarioGen::new(kind, seed, c)` of the configuration — wall-clock
//! time only decides how much of the stream is consumed. [`dry_run_trace`]
//! renders those streams as text without touching the network.

pub mod client;
pub mod histogram;
pub mod json;
pub mod report;
pub mod scenario;
pub mod scrape;
pub mod stats;

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kastio_index::protocol::read_reply;
use kastio_index::{IndexOptions, PatternIndex, Server, WalManager};

pub use client::{run_scenario, ScenarioRun, VerbStats};
pub use histogram::Histogram;
pub use json::{parse_json, Json};
pub use report::{Report, ScenarioReport, ServerLatency, VerbReport};
pub use scenario::{dry_run_trace, Op, ScenarioGen, ScenarioKind, TracePool};
pub use scrape::{latency_delta, parse_latency_buckets, LatencyBuckets};
pub use stats::{parse_stats, stats_delta, stats_gauges};

/// Everything a load run needs; `kastio loadgen` builds one from flags.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Scenarios to run, in order.
    pub scenarios: Vec<ScenarioKind>,
    /// Concurrent client connections per scenario.
    pub clients: usize,
    /// Wall-clock duration of each scenario.
    pub duration: Duration,
    /// RNG seed: same seed, same request streams.
    pub seed: u64,
    /// Target an already-running daemon instead of self-spawning one.
    pub addr: Option<String>,
    /// Memory budget of the self-spawned server (ignored with `addr`) —
    /// the overload scenario pairs a small budget with its write flood
    /// to measure load shedding. `None` (the default) means unlimited.
    pub max_memory_bytes: Option<u64>,
    /// Traces ingested up-front so read-heavy scenarios query a
    /// non-trivial corpus from the first request.
    pub seed_corpus: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            scenarios: ScenarioKind::ALL.to_vec(),
            clients: 4,
            duration: Duration::from_secs(2),
            seed: 20170904,
            addr: None,
            max_memory_bytes: None,
            seed_corpus: 48,
        }
    }
}

/// A control-plane connection: handshakes on connect, then runs one
/// framed request/reply exchange at a time (corpus seeding, STATS
/// fences, final SHUTDOWN).
struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn connect(addr: &str) -> Result<Control, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone failed: {e}"))?;
        let mut control = Control { writer, reader: BufReader::new(stream) };
        let hello = control.exchange("HELLO 1 kastio-loadgen\n")?;
        if !hello.starts_with("OK kastio proto=") {
            return Err(format!("server rejected the handshake: {}", hello.trim_end()));
        }
        Ok(control)
    }

    fn exchange(&mut self, wire: &str) -> Result<String, String> {
        self.writer
            .write_all(wire.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("control write failed: {e}"))?;
        read_reply(&mut self.reader).map_err(|e| format!("control read failed: {e}"))
    }

    fn fetch_stats(&mut self) -> Result<BTreeMap<String, u64>, String> {
        parse_stats(&self.exchange("STATS\n")?)
    }
}

/// Ingests `count` pool traces over `control` so every scenario starts
/// against the same seeded corpus. Uses `BATCH INGEST` — the bulk path a
/// real loader would use.
fn seed_corpus(control: &mut Control, seed: u64, count: usize) -> Result<(), String> {
    if count == 0 {
        return Ok(());
    }
    let pool = TracePool::new(seed);
    let mut wire = format!("BATCH INGEST {count}\n");
    for i in 0..count {
        let (label, trace) = pool.entry(i);
        wire.push_str(&format!("{label} {trace}\n"));
    }
    let reply = control.exchange(&wire)?;
    if reply.starts_with("ERR") {
        return Err(format!("corpus seeding failed: {}", reply.trim_end()));
    }
    Ok(())
}

/// Runs the configured scenarios and assembles the report.
///
/// With `addr` unset, an in-process [`Server`] is bound to an ephemeral
/// `127.0.0.1` port, served on a background thread, and shut down (via
/// its own `SHUTDOWN` verb) when the run completes. With `addr` set, the
/// target daemon is left running — the harness only sends requests.
///
/// # Errors
///
/// Returns the first failure: bind/connect errors, handshake rejection
/// (version-mismatched or pre-`HELLO` server), corpus-seeding `ERR`, or
/// a client IO error mid-run. Protocol `ERR` replies during a scenario
/// are measurements, not errors.
pub fn run(config: &LoadConfig) -> Result<Report, String> {
    if config.scenarios.is_empty() {
        return Err("no scenarios selected".to_string());
    }
    if config.clients == 0 {
        return Err("need at least one client".to_string());
    }

    // Self-spawn unless pointed at a live daemon.
    let (addr, server_label, server_thread, scratch) = match &config.addr {
        Some(addr) => (addr.clone(), addr.clone(), None, None),
        None => {
            let index = PatternIndex::new(IndexOptions::default());
            // A durable scratch root: SAVE is a first-class verb in the
            // op mixes (save-storm), so the self-spawned server is durable
            // like a `--save` daemon, and its ingests pay the same
            // ack-after-fsync price.
            static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);
            let scratch = std::env::temp_dir().join(format!(
                "kastio-loadgen-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            ));
            let wal = WalManager::open(&scratch, 1, Duration::ZERO)
                .map_err(|e| format!("cannot open the load server's WAL: {e}"))?;
            let server = Server::bind("127.0.0.1:0", index)
                .map_err(|e| format!("cannot bind load server: {e}"))?
                .with_wal(Some(wal))
                .with_memory_limit(config.max_memory_bytes);
            let addr = server.local_addr().map_err(|e| format!("no local addr: {e}"))?.to_string();
            let thread = std::thread::spawn(move || server.serve());
            (addr, "self-spawned".to_string(), Some(thread), Some(scratch))
        }
    };

    let result = drive(config, &addr, &server_label);

    // Stop a self-spawned server even when the run failed; a SHUTDOWN on
    // a fresh connection is the daemon's own clean-exit path.
    if let Some(thread) = server_thread {
        if let Ok(mut control) = Control::connect(&addr) {
            let _ = control.exchange("SHUTDOWN\n");
        }
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))?;
    }
    if let Some(scratch) = scratch {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    result
}

fn drive(config: &LoadConfig, addr: &str, server_label: &str) -> Result<Report, String> {
    let mut control = Control::connect(addr)?;
    seed_corpus(&mut control, config.seed, config.seed_corpus)?;

    let mut scenarios = Vec::with_capacity(config.scenarios.len());
    for &kind in &config.scenarios {
        let before = control.fetch_stats()?;
        // METRICS fences bracket the scenario so the report can carry the
        // server-side latency distribution of exactly this run. An `ERR`
        // from a pre-METRICS daemon parses to an empty map — the report
        // simply omits `server_latency` entries in that case.
        let metrics_before = parse_latency_buckets(&control.exchange("METRICS\n")?);
        let run = run_scenario(addr, kind, config.seed, config.clients, config.duration)?;
        let after = control.fetch_stats()?;
        let metrics_after = parse_latency_buckets(&control.exchange("METRICS\n")?);
        scenarios.push(
            ScenarioReport::new(kind.name(), &run, &before, &after)
                .with_server_latency(&latency_delta(&metrics_before, &metrics_after)),
        );
    }

    Ok(Report {
        seed: config.seed,
        clients: config.clients,
        duration_secs: config.duration.as_secs_f64(),
        server: server_label.to_string(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole self-spawned run, kept tiny so the suite stays fast: the
    /// full path (bind, handshake, corpus, four scenarios, STATS
    /// fences, shutdown) in around a second.
    #[test]
    fn self_spawned_run_produces_a_complete_report() {
        let config = LoadConfig {
            clients: 2,
            duration: Duration::from_millis(60),
            seed_corpus: 8,
            ..LoadConfig::default()
        };
        let report = run(&config).expect("load run succeeds");
        assert_eq!(report.server, "self-spawned");
        assert_eq!(report.scenarios.len(), 4);
        for scenario in &report.scenarios {
            assert!(scenario.requests > 0, "{} sent requests", scenario.name);
            assert_eq!(scenario.errors, 0, "{} had ERR replies", scenario.name);
            assert!(scenario.throughput_rps > 0.0);
            let delta_requests = scenario.stats_delta.get("requests_total").copied().unwrap_or(0);
            // Server-side counter moved by at least the client-side count
            // (the fences themselves add a couple of STATS requests).
            assert!(
                delta_requests >= scenario.requests,
                "{}: server saw {} requests, clients sent {}",
                scenario.name,
                delta_requests,
                scenario.requests
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"serve_load\""));
        assert!(json.contains("\"hot-key\""));
        assert!(json.contains("\"save-storm\""));

        // Server-side observability: the METRICS fences must have caught
        // the scenario's queries, and the server's view of QUERY latency
        // must be consistent with the clients'. The server times a subset
        // of each request's life (no connect, no client-side read), so
        // server quantiles sit at or under client quantiles — but the
        // server's clock stops after `flush()`, so a deschedule at that
        // exact point inflates individual samples, which on a contended
        // one-core CI box makes the *tail* noisy. The median is robust
        // (only rare samples are inflated); assert tightly there and only
        // loosely at p99. Scrape reconstruction adds ≤ one bucket (~6%).
        for scenario in &report.scenarios {
            let server = scenario
                .server_latency
                .get("query")
                .unwrap_or_else(|| panic!("{}: no server-side QUERY latency", scenario.name));
            let client = scenario
                .per_verb
                .iter()
                .find(|verb| verb.verb == "QUERY")
                .expect("clients sent QUERYs");
            // Every client QUERY lands between the fences, modulo at most
            // one in-flight request per client at each fence boundary.
            assert!(
                server.count.abs_diff(client.count) <= config.clients as u64,
                "{}: server timed {} QUERYs, clients sent {}",
                scenario.name,
                server.count,
                client.count
            );
            assert!(
                server.p50_us <= client.p50_us * 2.0,
                "{}: server QUERY p50 {}us vs client p50 {}us",
                scenario.name,
                server.p50_us,
                client.p50_us
            );
            assert!(
                server.p99_us <= client.p99_us * 5.0,
                "{}: server QUERY p99 {}us wildly exceeds client p99 {}us",
                scenario.name,
                server.p99_us,
                client.p99_us
            );
        }
    }

    /// The save-storm contract: snapshots (with WAL compaction) land in
    /// the middle of hot QUERY traffic, and the per-verb histograms let
    /// us assert they do not stall readers — a snapshot holds the corpus
    /// read lock only to clone entry handles, so QUERY p99 stays bounded
    /// even while SAVE rewrites the snapshot file and compacts the log.
    #[test]
    fn save_storm_snapshots_do_not_stall_queries() {
        let config = LoadConfig {
            scenarios: vec![ScenarioKind::SaveStorm],
            clients: 2,
            duration: Duration::from_millis(150),
            seed_corpus: 24,
            ..LoadConfig::default()
        };
        let report = run(&config).expect("save-storm run succeeds");
        let scenario = &report.scenarios[0];
        assert_eq!(scenario.errors, 0, "every SAVE (and everything else) was served");

        let verb = |name: &str| {
            scenario
                .per_verb
                .iter()
                .find(|v| v.verb == name)
                .unwrap_or_else(|| panic!("save-storm recorded no {name} ops"))
        };
        let (save, query) = (verb("SAVE"), verb("QUERY"));
        assert!(save.count >= 1, "the storm actually snapshotted");
        assert!(query.count > save.count, "queries dominate the mix");
        // Bounded tail: a QUERY that waited behind a snapshot would cost
        // ~a SAVE; allow generous CI noise but not serialization.
        assert!(
            query.p99_us <= (3.0 * save.p99_us).max(50_000.0),
            "QUERY p99 {}us vs SAVE p99 {}us — snapshots are stalling readers",
            query.p99_us,
            save.p99_us
        );

        // The WAL counters moved: ingests were logged and group-commits
        // ran, and each SAVE compacted (visible as a non-negative delta
        // computed against a log that keeps shrinking back).
        let delta = |key: &str| scenario.stats_delta.get(key).copied().unwrap_or(0);
        assert!(delta("wal_records") > 0, "ingests were journalled: {:?}", scenario.stats_delta);
        assert!(delta("wal_fsyncs") > 0, "group commits ran: {:?}", scenario.stats_delta);
    }

    /// The snapshot-stall contract: SAVEs land five times as often as in
    /// save-storm, right in the middle of hot QUERY traffic, and the
    /// per-verb histograms prove the point of the scenario — the SAVE
    /// histogram prices a snapshot, the QUERY histogram shows readers
    /// kept flowing past it (a snapshot holds the corpus read lock only
    /// to clone entry handles).
    #[test]
    fn snapshot_stall_keeps_queries_flowing_past_saves() {
        let config = LoadConfig {
            scenarios: vec![ScenarioKind::SnapshotStall],
            clients: 2,
            duration: Duration::from_millis(150),
            seed_corpus: 24,
            ..LoadConfig::default()
        };
        let report = run(&config).expect("snapshot-stall run succeeds");
        let scenario = &report.scenarios[0];
        assert_eq!(scenario.errors, 0, "every SAVE (and everything else) was served");

        let verb = |name: &str| {
            scenario
                .per_verb
                .iter()
                .find(|v| v.verb == name)
                .unwrap_or_else(|| panic!("snapshot-stall recorded no {name} ops"))
        };
        let (save, query) = (verb("SAVE"), verb("QUERY"));
        assert!(save.count >= 2, "a ~10% SAVE mix must snapshot repeatedly ({})", save.count);
        assert!(query.count > save.count, "queries dominate the mix");
        assert!(save.p99_us > 0.0, "the SAVE histogram actually recorded samples");
        // The stall assertion itself: a QUERY that serialised behind a
        // snapshot would cost ~a SAVE; allow generous CI noise but not
        // serialization.
        assert!(
            query.p99_us <= (3.0 * save.p99_us).max(50_000.0),
            "QUERY p99 {}us vs SAVE p99 {}us — snapshots are stalling readers",
            query.p99_us,
            save.p99_us
        );
        // Each effective SAVE bumped the snapshot counter.
        let delta = |key: &str| scenario.stats_delta.get(key).copied().unwrap_or(0);
        assert!(delta("snapshots") >= 1, "snapshots ran: {:?}", scenario.stats_delta);
    }

    /// The churn contract: every op is a fresh connect → HELLO → QUERY →
    /// close, so the server's connection counter advances once per
    /// operation — the accept path is the thing under test.
    #[test]
    fn churn_opens_one_connection_per_operation() {
        let config = LoadConfig {
            scenarios: vec![ScenarioKind::Churn],
            clients: 2,
            duration: Duration::from_millis(120),
            seed_corpus: 8,
            ..LoadConfig::default()
        };
        let report = run(&config).expect("churn run succeeds");
        let scenario = &report.scenarios[0];
        assert_eq!(scenario.errors, 0, "short-lived connections were all served");
        let query = scenario
            .per_verb
            .iter()
            .find(|v| v.verb == "QUERY")
            .expect("churn sends one QUERY per connection");
        assert_eq!(query.count, scenario.requests, "churn is all queries");
        assert!(query.count >= 2, "the run had time for a few connections");
        // One connection per op, exactly: the STATS fences bracket the
        // scenario and the control connection predates the `before`
        // fence, so the connections delta is the scenario's own churn.
        let delta = |key: &str| scenario.stats_delta.get(key).copied().unwrap_or(0);
        assert_eq!(
            delta("connections"),
            query.count,
            "server accepted a different number of connections than ops: {:?}",
            scenario.stats_delta
        );
        // And each of those connections said HELLO before its QUERY.
        assert_eq!(delta("verb_hello"), query.count, "{:?}", scenario.stats_delta);
    }

    /// The overload contract: against a deliberately tiny memory budget
    /// the server sheds loudly (`ERR busy`) instead of growing, stays up
    /// for the whole storm, keeps answering reads — and its shed
    /// counters agree, one for one, with the busy replies the clients
    /// actually saw.
    #[test]
    fn overload_run_sheds_loudly_and_counts_every_shed() {
        let config = LoadConfig {
            scenarios: vec![ScenarioKind::Overload],
            clients: 2,
            duration: Duration::from_millis(250),
            seed_corpus: 8,
            // 256 KiB: a fat batch is ~90 KB of corpus, so the first few
            // fill it, even on a loaded host that completes only a
            // handful of requests in the 250 ms window.
            max_memory_bytes: Some(256 << 10),
            ..LoadConfig::default()
        };
        let report = run(&config).expect("overload run completes cleanly");
        let scenario = &report.scenarios[0];
        assert!(scenario.requests > 0, "the storm sent traffic");
        assert!(scenario.busy > 0, "a 256 KiB budget must shed under this mix");
        // Every ERR the clients saw was a deliberate shed, not a broken
        // request or a panic.
        assert_eq!(
            scenario.errors, scenario.busy,
            "non-busy errors under overload: {:?}",
            scenario.per_verb
        );
        // One-for-one accounting: the server's shed counter moved by
        // exactly the number of busy replies the clients received (the
        // control fences bracket the scenario and nothing else runs).
        let delta = |key: &str| scenario.stats_delta.get(key).copied().unwrap_or(0);
        assert_eq!(
            delta("shed_memory"),
            scenario.busy,
            "server-side sheds vs client-observed busy replies: {:?}",
            scenario.stats_delta
        );
        // Reads kept working under pressure: queries ran and none errored.
        let query = scenario
            .per_verb
            .iter()
            .find(|v| v.verb == "QUERY")
            .expect("overload mixes in queries");
        assert!(query.count > 0);
        assert_eq!(query.errors, query.busy, "queries failed for a non-memory reason");
        let json = report.to_json();
        assert!(json.contains("\"overload\""), "{json}");
    }

    #[test]
    fn run_against_an_external_server_leaves_it_up() {
        let index = PatternIndex::new(IndexOptions::default());
        let server = Server::bind("127.0.0.1:0", index).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let thread = std::thread::spawn(move || server.serve());

        let config = LoadConfig {
            scenarios: vec![ScenarioKind::ReadHeavy],
            clients: 2,
            duration: Duration::from_millis(40),
            addr: Some(addr.clone()),
            seed_corpus: 4,
            ..LoadConfig::default()
        };
        let report = run(&config).expect("external run succeeds");
        assert_eq!(report.server, addr);

        // The server must still answer after the harness detaches.
        let mut control = Control::connect(&addr).expect("server still up");
        assert!(control.fetch_stats().is_ok());
        drop(control);
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn empty_configs_are_rejected() {
        let no_scenarios = LoadConfig { scenarios: vec![], ..LoadConfig::default() };
        assert!(run(&no_scenarios).unwrap_err().contains("no scenarios"));
        let no_clients = LoadConfig { clients: 0, ..LoadConfig::default() };
        assert!(run(&no_clients).unwrap_err().contains("at least one client"));
    }
}
