//! `kastio` — command-line front end for the trace → string → kernel →
//! clustering pipeline, plus the online index daemon.
//!
//! ```text
//! kastio convert  <trace-file> [--ignore-bytes]
//! kastio compare  <a.trace> <b.trace> [--cut N] [--ignore-bytes] [--explain]
//! kastio generate <dir> [--seed N]
//! kastio cluster  <dir> [--cut N] [--ignore-bytes] [--groups K]
//! kastio serve    [--port N] [--corpus <dir>] [--save <dir>]
//!                 [--wal] [--snapshot-every <secs>]
//!                 [--cut N] [--ignore-bytes] [--candidates N]
//!                 [--slow-query-micros N] [--max-memory-bytes N]
//!                 [--max-connections N] [--idle-timeout-secs N]
//! kastio query    <addr> <trace-file> [--k N]
//! kastio query    <addr> --stats
//! kastio query    <addr> --snapshot
//! kastio loadgen  [--scenario NAME] [--clients N] [--duration 2s]
//!                 [--seed N] [--addr HOST:PORT] [--out FILE]
//!                 [--dry-run] [--ops N] [--max-memory-bytes N]
//! kastio bench-diff <new.json> <baseline.json> [--band PCT]
//! kastio help     [command]
//! kastio --version
//! ```
//!
//! `generate` writes the paper's 110-example dataset as plain trace files
//! (plus a MANIFEST); `cluster` reads any directory in that layout,
//! builds the Kast similarity matrix, repairs it and prints the flat
//! clustering with purity/ARI against the manifest categories. `serve`
//! (Linux only) keeps a corpus in memory behind a TCP line protocol and
//! `query` is its client — see the `kastio_index` crate. `loadgen`
//! drives seeded, reproducible request mixes against the daemon (self-spawned unless
//! `--addr` points at one) and writes per-verb throughput/latency —
//! client-side and, via `METRICS` scrapes, server-side — plus STATS
//! counter deltas and gauge after-values to `BENCH_serve.json`; `bench-diff` compares two such
//! artifacts and fails beyond a noise band — see `kastio_loadgen`.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use kastio::index::protocol::{encode_trace_inline, read_reply, PROTOCOL_VERSION};
use kastio::loadgen::{dry_run_trace, LoadConfig, ScenarioKind};
use kastio::pattern::explain::explain_similarity;
use kastio::workloads::{export_dataset, import_dataset};
use kastio::{
    adjusted_rand_index, gram_matrix, hierarchical, load_index, parse_trace, pattern_string,
    psd_repair, purity, watch_termination, ByteMode, Dataset, DistanceMatrix, GramMode,
    IndexOptions, KastKernel, KastOptions, Linkage, PatternIndex, PrefilterConfig, Server,
    Snapshotter, SquareMatrix, StringKernel, TokenInterner,
};

const USAGE: &str = "\
usage:
  kastio convert  <trace-file> [--ignore-bytes]
  kastio compare  <a.trace> <b.trace> [--cut N] [--ignore-bytes] [--explain]
  kastio generate <dir> [--seed N]
  kastio cluster  <dir> [--cut N] [--ignore-bytes] [--groups K]
  kastio serve    [--port N] [--corpus <dir>] [--save <dir>]
                  [--wal] [--snapshot-every <secs>]
                  [--cut N] [--ignore-bytes] [--candidates N]
                  [--slow-query-micros N] [--max-memory-bytes N]
                  [--max-connections N] [--idle-timeout-secs N]
  kastio query    <addr> <trace-file> [--k N]
  kastio query    <addr> --stats
  kastio query    <addr> --snapshot
  kastio loadgen  [--scenario NAME] [--clients N] [--duration 2s]
                  [--seed N] [--addr HOST:PORT] [--out FILE]
                  [--dry-run] [--ops N] [--max-memory-bytes N]
  kastio bench-diff <new.json> <baseline.json> [--band PCT]
  kastio help     [command]
  kastio --version
";

/// Per-command help texts for `kastio help <command>`.
const HELP_TOPICS: &[(&str, &str)] = &[
    (
        "convert",
        "kastio convert <trace-file> [--ignore-bytes]\n\n\
         Converts one plain-text trace to its weighted pattern string and\n\
         prints it. --ignore-bytes zeroes byte values before tokenisation\n\
         (the paper's no-byte-information variant).\n",
    ),
    (
        "compare",
        "kastio compare <a.trace> <b.trace> [--cut N] [--ignore-bytes] [--explain]\n\n\
         Compares two traces with the Kast Spectrum Kernel at cut weight N\n\
         (default 2) and prints the raw and normalised similarity. Both\n\
         traces are interned by a single shared TokenInterner, so the token\n\
         ids in --explain output are directly comparable across the pair.\n",
    ),
    (
        "generate",
        "kastio generate <dir> [--seed N]\n\n\
         Writes the paper's 110-example IOR/FLASH-IO dataset (deterministic\n\
         in the seed) into <dir> as <name>.trace files plus a MANIFEST.\n",
    ),
    (
        "cluster",
        "kastio cluster <dir> [--cut N] [--ignore-bytes] [--groups K]\n\n\
         Loads a dataset directory, builds the normalised Kast similarity\n\
         matrix, repairs it to PSD, runs single-linkage clustering and\n\
         prints the K-group cut with purity/ARI against the manifest.\n",
    ),
    (
        "serve",
        "kastio serve [--port N] [--corpus <dir>] [--save <dir>]\n\
         \u{20}            [--wal] [--snapshot-every <secs>]\n\
         \u{20}            [--cut N] [--ignore-bytes] [--candidates N]\n\
         \u{20}            [--slow-query-micros N] [--max-memory-bytes N]\n\
         \u{20}            [--max-connections N] [--idle-timeout-secs N]\n\n\
         Starts the online index daemon on 127.0.0.1:<port> (default 7878;\n\
         0 picks an ephemeral port). Linux only. Prints `listening on\n\
         <addr>` once bound. One epoll reactor thread owns every\n\
         connection, and a bounded pool of workers (one per core, 2 to\n\
         8) runs each request inline: concurrent requests are the\n\
         daemon's only parallelism. The corpus is one vector under one\n\
         lock: a query holds it only for its signature scan, so queries\n\
         run in parallel, and an ingest holds it only to append, so it\n\
         never waits for a query's scoring. --corpus preloads a save\n\
         directory or a dataset directory (the `generate` layout).\n\
         --save makes the daemon durable: the corpus is snapshotted to\n\
         <save-dir>/snapshot.log (one file, fsync'd, then renamed into\n\
         place) on SHUTDOWN, on SAVE requests, on SIGTERM/SIGINT, and\n\
         (with --snapshot-every N) every N seconds in the background\n\
         while queries keep flowing (idle cycles are skipped). A failed\n\
         final save exits non-zero.\n\
         --wal (requires --save) adds a write-ahead log,\n\
         <save-dir>/wal/shard0.log: every INGEST/BATCH INGEST is logged\n\
         as its ids are allocated, so the log is in id order, and\n\
         fsync'd (concurrent acks share one) before its OK reply, so an\n\
         acked ingest survives kill -9 and power loss; a BATCH INGEST\n\
         is all-or-nothing. A snapshot compacts the log only once it is\n\
         durable, and restarts recover as last snapshot + WAL replay\n\
         (point --corpus at the save dir). --candidates floors the\n\
         signature-prefilter budget. --slow-query-micros enables the\n\
         slow-query log: requests slower than N microseconds end-to-end\n\
         are kept in a bounded in-memory ring (newest 128) readable over\n\
         SLOWLOG. The daemon always records per-verb and per-stage\n\
         latency histograms, exposed by METRICS (Prometheus text format)\n\
         and summarised as p50/p95/p99 in STATS. --max-memory-bytes puts\n\
         the corpus, kernel cache and in-flight request buffers under\n\
         one byte budget: the cache is reclaimed under pressure and\n\
         ingests that would exceed the budget are shed with `ERR busy\n\
         reason=memory` (the connection stays open; reads keep working).\n\
         Default: unlimited. --max-connections (default 1024) sheds\n\
         connections beyond the cap at accept with `ERR busy\n\
         reason=connections`. --idle-timeout-secs closes connections\n\
         silent for N seconds with no request in flight, even mid-line\n\
         or mid-batch (default: never). Every shed, reclaim and timeout\n\
         is counted in STATS and METRICS. The protocol is line based\n\
         (full spec in docs/PROTOCOL.md):\n\n\
         \u{20} HELLO <proto-version> [client]\n\
         \u{20} INGEST <label> <op>;<op>;...\n\
         \u{20} BATCH INGEST <count>   (then <count> `<label> <trace>` lines)\n\
         \u{20} QUERY k=<k> [trace=1] <op>;<op>;...\n\
         \u{20} MQUERY k=<k> [trace=1] <count>   (then <count> trace lines)\n\
         \u{20} STATS\n\
         \u{20} METRICS\n\
         \u{20} SLOWLOG GET|RESET|LEN\n\
         \u{20} SAVE\n\
         \u{20} SHUTDOWN\n",
    ),
    (
        "query",
        "kastio query <addr> <trace-file> [--k N]\n\
         kastio query <addr> --stats\n\
         kastio query <addr> --snapshot\n\n\
         Client for `kastio serve`. Sends the trace file as a k-NN QUERY\n\
         (default k=5) — or, with --stats, asks for the server's counters;\n\
         with --snapshot, asks the server to SAVE its corpus now — and\n\
         prints the server's reply. Opens with a HELLO handshake; servers\n\
         predating HELLO answer `ERR unknown verb`, which is tolerated\n\
         (the request still runs), but a version mismatch is fatal.\n",
    ),
    (
        "loadgen",
        "kastio loadgen [--scenario NAME] [--clients N] [--duration 2s]\n\
         \u{20}              [--seed N] [--addr HOST:PORT] [--out FILE]\n\
         \u{20}              [--dry-run] [--ops N] [--max-memory-bytes N]\n\n\
         End-to-end load harness for the daemon. Runs the named scenario\n\
         (read-heavy | write-heavy | hot-key | save-storm; default: all\n\
         four in that order) with N concurrent clients. Three scenarios\n\
         are opt-in: `overload` pairs an aggressive BATCH INGEST /\n\
         MQUERY mix with a small --max-memory-bytes budget on the\n\
         self-spawned server and verifies the daemon sheds with\n\
         `ERR busy` instead of growing; `snapshot-stall` mixes ~10%\n\
         SAVE into hot QUERY traffic and reports what snapshots cost\n\
         (per-verb SAVE histogram) and whether they stall readers;\n\
         `churn` opens a fresh connection per operation\n\
         (connect, HELLO, one QUERY, close), timing the accept path.\n\
         Clients default to 4, running for the\n\
         duration each (default 2s; accepts `500ms`, `2s` or plain\n\
         seconds), then writes per-verb throughput, p50/p95/p99 latency\n\
         (client-side and, scraped from METRICS fences around each\n\
         scenario, server-side) and the server-side STATS counter deltas\n\
         and gauge after-values to --out (default BENCH_serve.json).\n\
         Without --addr a server is spawned in-process\n\
         on an ephemeral port and shut down afterwards; with --addr the\n\
         target daemon is left running.\n\
         The request streams are a pure function of --seed and the client\n\
         id — identical runs send identical requests. --dry-run prints\n\
         the first --ops operations (default 20) of every client's stream\n\
         instead of touching the network.\n",
    ),
    (
        "bench-diff",
        "kastio bench-diff <new.json> <baseline.json> [--band PCT]\n\n\
         Compares two `kastio loadgen` artifacts. For every (scenario,\n\
         verb) pair present in both, throughput must not drop — and\n\
         client-observed p99 latency must not grow — by more than the\n\
         noise band (default 25%, i.e. --band 25). Prints one line per\n\
         compared metric and exits non-zero when anything regressed\n\
         beyond the band, so CI can gate on it. Pairs present in only\n\
         one artifact are ignored; artifacts with no overlap at all are\n\
         an error.\n",
    ),
];

struct Flags {
    positional: Vec<String>,
    cut: u64,
    seed: u64,
    groups: usize,
    k: usize,
    port: u16,
    candidates: usize,
    snapshot_every: u64,
    clients: usize,
    ops: usize,
    band: u64,
    slow_query_micros: Option<u64>,
    max_memory_bytes: Option<u64>,
    max_connections: Option<usize>,
    idle_timeout_secs: Option<u64>,
    duration: Duration,
    scenario: Option<String>,
    addr: Option<String>,
    out: Option<String>,
    corpus: Option<String>,
    save: Option<String>,
    wal: bool,
    ignore_bytes: bool,
    explain: bool,
    stats: bool,
    snapshot: bool,
    dry_run: bool,
}

/// Parses `2s`, `500ms` or a plain number of seconds.
fn parse_duration(value: &str) -> Result<Duration, String> {
    let (digits, unit): (&str, fn(u64) -> Duration) = match value {
        v if v.ends_with("ms") => (&v[..v.len() - 2], Duration::from_millis),
        v if v.ends_with('s') => (&v[..v.len() - 1], Duration::from_secs),
        v => (v, Duration::from_secs),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad duration `{value}` (expected e.g. `2s`, `500ms`)"))?;
    if n == 0 {
        return Err(format!("duration `{value}` must be positive"));
    }
    Ok(unit(n))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        positional: Vec::new(),
        cut: 2,
        seed: 20170904,
        groups: 3,
        k: 5,
        port: 7878,
        candidates: PrefilterConfig::default().min_candidates,
        snapshot_every: 0,
        clients: 4,
        ops: 20,
        band: 25,
        slow_query_micros: None,
        max_memory_bytes: None,
        max_connections: None,
        idle_timeout_secs: None,
        duration: Duration::from_secs(2),
        scenario: None,
        addr: None,
        out: None,
        corpus: None,
        save: None,
        wal: false,
        ignore_bytes: false,
        explain: false,
        stats: false,
        snapshot: false,
        dry_run: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ignore-bytes" => flags.ignore_bytes = true,
            "--wal" => flags.wal = true,
            "--explain" => flags.explain = true,
            "--stats" => flags.stats = true,
            "--snapshot" => flags.snapshot = true,
            "--dry-run" => flags.dry_run = true,
            "--duration" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.duration = parse_duration(value)?;
            }
            "--corpus" | "--save" | "--scenario" | "--addr" | "--out" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                match arg.as_str() {
                    "--corpus" => flags.corpus = Some(value.clone()),
                    "--scenario" => flags.scenario = Some(value.clone()),
                    "--addr" => flags.addr = Some(value.clone()),
                    "--out" => flags.out = Some(value.clone()),
                    _ => flags.save = Some(value.clone()),
                }
            }
            "--cut"
            | "--seed"
            | "--groups"
            | "--k"
            | "--port"
            | "--candidates"
            | "--snapshot-every"
            | "--clients"
            | "--ops"
            | "--band"
            | "--slow-query-micros"
            | "--max-memory-bytes"
            | "--max-connections"
            | "--idle-timeout-secs" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                let parsed: u64 =
                    value.parse().map_err(|_| format!("{arg} needs an integer, got `{value}`"))?;
                match arg.as_str() {
                    "--cut" => flags.cut = parsed.max(1),
                    "--seed" => flags.seed = parsed,
                    "--groups" => flags.groups = (parsed as usize).max(1),
                    "--k" => flags.k = (parsed as usize).max(1),
                    "--candidates" => flags.candidates = (parsed as usize).max(1),
                    "--snapshot-every" => flags.snapshot_every = parsed,
                    "--clients" => flags.clients = (parsed as usize).max(1),
                    "--ops" => flags.ops = (parsed as usize).max(1),
                    "--band" => flags.band = parsed,
                    // 0 is meaningful: log every request.
                    "--slow-query-micros" => flags.slow_query_micros = Some(parsed),
                    "--max-memory-bytes" => flags.max_memory_bytes = Some(parsed.max(1)),
                    "--max-connections" => flags.max_connections = Some((parsed as usize).max(1)),
                    // 0 would time every read out instantly; treat it
                    // as "disabled", same as not passing the flag.
                    "--idle-timeout-secs" => {
                        flags.idle_timeout_secs = (parsed > 0).then_some(parsed)
                    }
                    _ => {
                        flags.port = u16::try_from(parsed).map_err(|_| {
                            format!("--port needs a value in 0..=65535, got `{value}`")
                        })?
                    }
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn byte_mode(flags: &Flags) -> ByteMode {
    if flags.ignore_bytes {
        ByteMode::Ignore
    } else {
        ByteMode::Preserve
    }
}

fn load_trace(path: &str) -> Result<kastio::Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_convert(flags: &Flags) -> Result<(), String> {
    let [path] = flags.positional.as_slice() else {
        return Err("convert needs exactly one trace file".to_string());
    };
    let trace = load_trace(path)?;
    let s = pattern_string(&trace, byte_mode(flags));
    println!("{s}");
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let [pa, pb] = flags.positional.as_slice() else {
        return Err("compare needs exactly two trace files".to_string());
    };
    let (ta, tb) = (load_trace(pa)?, load_trace(pb)?);
    let mode = byte_mode(flags);
    // One interner across both inputs: token ids in diagnostic output are
    // only comparable when minted by the same TokenInterner.
    let mut interner = TokenInterner::new();
    let a = interner.intern_string(&pattern_string(&ta, mode));
    let b = interner.intern_string(&pattern_string(&tb, mode));
    let kernel = KastKernel::new(KastOptions::with_cut_weight(flags.cut));
    if flags.explain {
        print!("{}", explain_similarity(&kernel, &a, &b, &interner));
    } else {
        println!("raw        {}", kernel.raw(&a, &b));
        println!("normalised {:.6}", kernel.normalized(&a, &b));
    }
    Ok(())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let [dir] = flags.positional.as_slice() else {
        return Err("generate needs exactly one output directory".to_string());
    };
    let dataset = Dataset::paper(flags.seed);
    export_dataset(&dataset, Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} traces (A/B/C/D = {:?}) and MANIFEST to {dir}",
        dataset.len(),
        dataset.counts()
    );
    Ok(())
}

fn cmd_cluster(flags: &Flags) -> Result<(), String> {
    let [dir] = flags.positional.as_slice() else {
        return Err("cluster needs exactly one dataset directory".to_string());
    };
    let dataset = import_dataset(Path::new(dir)).map_err(|e| e.to_string())?;
    let mode = byte_mode(flags);
    let mut interner = TokenInterner::new();
    let strings: Vec<_> =
        dataset.iter().map(|e| interner.intern_string(&pattern_string(&e.trace, mode))).collect();
    let kernel = KastKernel::new(KastOptions::with_cut_weight(flags.cut));
    let gram = gram_matrix(&kernel, &strings, GramMode::Normalized, 0);
    let square = SquareMatrix::from_row_major(gram.n(), gram.as_slice().to_vec());
    let repair = psd_repair(&square).map_err(|e| e.to_string())?;
    let distance = DistanceMatrix::from_gram(repair.matrix.n(), repair.matrix.as_slice());
    let labels = hierarchical(&distance, Linkage::Single).cut(flags.groups.min(dataset.len()));

    println!(
        "{} examples, cut weight {}, {:?}, {} clusters, {} eigenvalues clamped",
        dataset.len(),
        flags.cut,
        mode,
        flags.groups,
        repair.clamped
    );
    for cluster in 0..flags.groups {
        let members: Vec<&str> = dataset
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == cluster)
            .map(|(e, _)| e.name.as_str())
            .collect();
        if !members.is_empty() {
            println!("cluster {cluster} ({} members): {}", members.len(), members.join(" "));
        }
    }
    let truth = dataset.labels();
    println!("purity vs categories: {:.3}", purity(&labels, &truth));
    println!("ARI vs categories   : {:.3}", adjusted_rand_index(&labels, &truth));
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    if !flags.positional.is_empty() {
        return Err("serve takes no positional arguments".to_string());
    }
    if flags.snapshot_every > 0 && flags.save.is_none() {
        return Err("--snapshot-every needs --save <dir> (the snapshot target)".to_string());
    }
    if flags.wal && flags.save.is_none() {
        return Err(
            "--wal needs --save <dir> (the durable root for snapshot.log and wal/)".to_string()
        );
    }
    let opts = IndexOptions {
        kast: KastOptions::with_cut_weight(flags.cut),
        byte_mode: byte_mode(flags),
        prefilter: PrefilterConfig {
            min_candidates: flags.candidates,
            ..PrefilterConfig::default()
        },
        ..IndexOptions::default()
    };
    let index = match &flags.corpus {
        Some(dir) => {
            let index = load_index(Path::new(dir), opts).map_err(|e| e.to_string())?;
            eprintln!("loaded {} entries from {dir}", index.len());
            index
        }
        None => PatternIndex::new(opts),
    };
    let save_dir = flags.save.as_ref().map(PathBuf::from);

    // The establish sequence for --wal: open the logs, fold whatever is
    // already in memory (a --corpus preload — possibly itself recovered
    // via WAL replay — or nothing) into a fresh establishing snapshot,
    // then empty the logs. Blunt truncation is safe here and only here:
    // the listener is not up yet, so no ingest can be in flight — and it
    // neutralises stale or foreign records that would otherwise alias
    // the ids this run is about to assign.
    let wal = match (&save_dir, flags.wal) {
        (Some(dir), true) => {
            let wal = kastio::WalManager::open(dir, 1, Duration::ZERO)
                .map_err(|e| format!("cannot open the WAL under {}: {e}", dir.display()))?;
            kastio::save_index_wal(&index, dir, Some(&wal))
                .map_err(|e| format!("establishing snapshot in {} failed: {e}", dir.display()))?;
            wal.truncate_all()
                .map_err(|e| format!("cannot reset the WAL under {}: {e}", dir.display()))?;
            Some(wal)
        }
        _ => None,
    };

    let mut server = Server::bind(&format!("127.0.0.1:{}", flags.port), index)
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", flags.port))?
        .with_save_dir(save_dir.clone())
        .with_wal(wal.clone())
        .with_slow_log(flags.slow_query_micros)
        .with_memory_limit(flags.max_memory_bytes)
        .with_idle_timeout(flags.idle_timeout_secs.map(Duration::from_secs));
    if let Some(max) = flags.max_connections {
        server = server.with_max_connections(max);
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;

    // Signal-triggered shutdown: SIGTERM/SIGINT snapshot the corpus (when
    // --save is set) and then stop the listener exactly like a SHUTDOWN
    // request would — the daemon is crash-tolerant under orchestrators
    // that only ever send signals.
    let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
    let signal_index = server.index();
    let signal_save = save_dir.clone();
    let signal_wal = wal.clone();
    match watch_termination() {
        Ok(watcher) => {
            std::thread::Builder::new()
                .name("kastio-signal".to_string())
                .spawn(move || {
                    let Ok(signal) = watcher.wait() else { return };
                    eprintln!("received {signal}, snapshotting and shutting down");
                    if let Some(dir) = &signal_save {
                        if let Err(e) = kastio::save_index_if_changed_wal(
                            &signal_index,
                            dir,
                            signal_wal.as_deref(),
                        ) {
                            eprintln!("snapshot on {signal} failed: {e}");
                        }
                    }
                    shutdown.shutdown();
                })
                .map_err(|e| format!("cannot spawn the signal monitor: {e}"))?;
        }
        Err(e) => eprintln!("warning: signal handling unavailable ({e}); use SHUTDOWN"),
    }

    // Periodic background snapshots, skipped while the generation counter
    // is unchanged. Dropped (stopped and joined) before the final save.
    let snapshotter = match (&save_dir, flags.snapshot_every) {
        (Some(dir), secs) if secs > 0 => Some(Snapshotter::start_with_wal(
            server.index(),
            dir.clone(),
            std::time::Duration::from_secs(secs),
            wal.clone(),
        )),
        _ => None,
    };

    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let index = server.serve().map_err(|e| format!("serve failed: {e}"))?;
    drop(snapshotter);

    // Final save. Usually a no-op: SHUTDOWN and the signal path have
    // already snapshotted, so this only runs when the corpus changed
    // after that snapshot (or when every earlier save failed) — and a
    // failure here must be loud: stderr + non-zero exit.
    if let Some(dir) = &save_dir {
        match kastio::save_index_if_changed_wal(&index, dir, wal.as_deref()) {
            Ok(Some(info)) => println!(
                "saved {} entries to {} (generation {})",
                info.entries,
                dir.display(),
                info.generation
            ),
            Ok(None) => {
                let status = index.snapshot_status();
                println!(
                    "corpus already saved to {} ({} entries, generation {})",
                    dir.display(),
                    status.last_entries,
                    status.last_generation
                );
            }
            Err(e) => {
                return Err(format!(
                    "failed to save {} entries to {}: {e}",
                    index.len(),
                    dir.display()
                ));
            }
        }
    }
    Ok(())
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    if flags.stats && flags.snapshot {
        return Err("--stats and --snapshot are mutually exclusive".to_string());
    }
    let (addr, request) = match flags.positional.as_slice() {
        [addr] if flags.stats => (addr, "STATS\n".to_string()),
        [addr] if flags.snapshot => (addr, "SAVE\n".to_string()),
        [addr, trace_file] if !flags.stats && !flags.snapshot => {
            let trace = load_trace(trace_file)?;
            if trace.is_empty() {
                return Err(format!("{trace_file} contains no operations"));
            }
            (addr, format!("QUERY k={} {}\n", flags.k, encode_trace_inline(&trace)))
        }
        _ => {
            return Err(
                "query needs `<addr> <trace-file>`, `<addr> --stats` or `<addr> --snapshot`"
                    .to_string(),
            )
        }
    };
    let stream =
        TcpStream::connect(addr.as_str()).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);

    // Version handshake first. Servers predating HELLO answer `ERR
    // unknown verb` — tolerated, the connection stays usable. An explicit
    // version rejection is fatal: the reply framing may differ.
    writer
        .write_all(format!("HELLO {PROTOCOL_VERSION} kastio-query\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let hello = read_reply(&mut reader).map_err(|e| e.to_string())?;
    if hello.starts_with("ERR unsupported proto") {
        return Err(format!("protocol version mismatch: {}", hello.trim_end()));
    }

    writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let reply = read_reply(&mut reader).map_err(|e| e.to_string())?;
    print!("{reply}");
    if reply.starts_with("ERR ") {
        return Err("server rejected the request".to_string());
    }
    Ok(())
}

fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    if !flags.positional.is_empty() {
        return Err("loadgen takes no positional arguments".to_string());
    }
    let scenarios = match flags.scenario.as_deref() {
        None | Some("all") => ScenarioKind::ALL.to_vec(),
        Some(name) => vec![ScenarioKind::parse(name).ok_or_else(|| {
            format!(
                "unknown scenario `{name}` (read-heavy | write-heavy | hot-key | save-storm | \
                 overload | snapshot-stall | churn | all)"
            )
        })?],
    };

    if flags.dry_run {
        for &kind in &scenarios {
            print!("{}", dry_run_trace(kind, flags.seed, flags.clients, flags.ops));
        }
        return Ok(());
    }

    let config = LoadConfig {
        scenarios,
        clients: flags.clients,
        duration: flags.duration,
        seed: flags.seed,
        addr: flags.addr.clone(),
        max_memory_bytes: flags.max_memory_bytes,
        ..LoadConfig::default()
    };
    let report = kastio::loadgen::run(&config)?;

    for scenario in &report.scenarios {
        println!(
            "{}: {} requests in {:.2}s ({:.0} req/s, {} ERR)",
            scenario.name,
            scenario.requests,
            scenario.elapsed_secs,
            scenario.throughput_rps,
            scenario.errors
        );
        for verb in &scenario.per_verb {
            println!(
                "  {:<7} n={:<6} {:>7.0} req/s  p50={:.0}us p95={:.0}us p99={:.0}us",
                verb.verb, verb.count, verb.throughput_rps, verb.p50_us, verb.p95_us, verb.p99_us
            );
        }
    }
    let out = flags.out.as_deref().unwrap_or("BENCH_serve.json");
    std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_bench_diff(flags: &Flags) -> Result<(), String> {
    let [new_path, baseline_path] = flags.positional.as_slice() else {
        return Err("bench-diff needs exactly `<new.json> <baseline.json>`".to_string());
    };
    let read = |path: &str| -> Result<kastio::loadgen::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        kastio::loadgen::parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let diff = kastio::loadgen::diff_reports(
        &read(new_path)?,
        &read(baseline_path)?,
        flags.band as f64 / 100.0,
    )?;
    print!("{}", diff.render());
    let regressions = diff.regressions();
    if regressions.is_empty() {
        println!("ok: {} metrics within ±{}% of {baseline_path}", diff.rows.len(), flags.band);
        Ok(())
    } else {
        Err(format!(
            "{} of {} metrics regressed beyond ±{}% (new: {new_path}, baseline: {baseline_path})",
            regressions.len(),
            diff.rows.len(),
            flags.band
        ))
    }
}

fn cmd_help(flags: &Flags) -> Result<(), String> {
    match flags.positional.as_slice() {
        [] => {
            print!("{USAGE}");
            Ok(())
        }
        [topic] => match HELP_TOPICS.iter().find(|(name, _)| name == topic) {
            Some((_, text)) => {
                print!("{text}");
                Ok(())
            }
            None => Err(format!(
                "no help for `{topic}` (topics: convert compare generate cluster serve query \
                 loadgen bench-diff)"
            )),
        },
        _ => Err("help takes at most one command name".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--version" | "-V" | "version") {
        println!("kastio {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "convert" => cmd_convert(&flags),
        "compare" => cmd_compare(&flags),
        "generate" => cmd_generate(&flags),
        "cluster" => cmd_cluster(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "bench-diff" => cmd_bench_diff(&flags),
        "help" => cmd_help(&flags),
        "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
