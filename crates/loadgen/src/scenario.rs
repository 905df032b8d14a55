//! Seeded, reproducible load scenarios.
//!
//! A scenario is a *deterministic* stream of protocol operations per
//! client: the stream is a pure function of `(kind, seed, client id)`,
//! independent of thread scheduling, so the same `--seed` always sends
//! the same request sequence — a timed run just consumes a prefix of it.
//! [`dry_run_trace`] renders that sequence as text, which is both the
//! `--dry-run` output and the determinism contract the test suite pins.
//!
//! All clients share one [`TracePool`] (derived from the seed alone), so
//! the hot-key scenario's skewed picks actually collide across clients
//! and exercise the server's query memo (pairs and self-kernels).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The built-in scenario mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// ~70% `QUERY`, ~15% `MQUERY`, ~10% `INGEST`, ~5% `STATS`: the
    /// classifier-serving steady state. Queries pick pool traces
    /// uniformly.
    ReadHeavy,
    /// ~45% `INGEST`, ~20% `BATCH INGEST`, ~25% `QUERY`, ~10% `STATS`:
    /// corpus build-up under concurrent reads.
    WriteHeavy,
    /// Read-heavy with zipf-skewed trace choice (exponent ~1.1): a few
    /// hot queries dominate, so cache hit rates and memoised
    /// self-kernels should climb — visible in the STATS delta.
    HotKey,
    /// ~88% `QUERY`, ~10% `INGEST`, ~2% `SAVE`: hot read traffic with
    /// snapshots (and their log compactions) landing in the middle of
    /// it. The per-verb SAVE histogram shows what a snapshot
    /// costs; the QUERY histogram shows whether it stalls readers.
    SaveStorm,
    /// ~45% fat `BATCH INGEST` (big items), ~25% `MQUERY`, ~20% `QUERY`,
    /// ~5% `INGEST`, ~5% `STATS`: a memory-pressure storm, meant to run
    /// against a server with a small `--max-memory-bytes` budget. The
    /// interesting measurement is the shed counters — the server must
    /// answer `ERR busy` instead of growing. **Not** part of
    /// [`ScenarioKind::ALL`]: against an ungoverned server it is just a
    /// write flood, and bench baselines should not contain it.
    Overload,
    /// ~80% `QUERY`, ~10% `INGEST`, ~10% `SAVE`: save-storm's aggressive
    /// sibling. Snapshots land five times as often, each preceded by
    /// enough ingests that each one writes a changed corpus to the
    /// snapshot file — so the per-verb SAVE histogram measures real snapshot
    /// cost and the QUERY histogram shows whether those snapshots stall
    /// hot read traffic. Opt-in (`--scenario snapshot-stall`): it spends
    /// most of its wall clock on disk I/O, so baselines stay lean
    /// without it.
    SnapshotStall,
    /// Connection churn: every operation is a *fresh* short-lived
    /// connection — connect → `HELLO` → one `QUERY` → close — so the
    /// measured latency includes TCP setup and the handshake, and the
    /// server's accept path (thread spawn or reactor registration,
    /// connection accounting, idle bookkeeping) is exercised thousands
    /// of times instead of once per client. Opt-in
    /// (`--scenario churn`): its histogram measures connection setup,
    /// not steady-state request service, so it would skew baselines.
    Churn,
}

impl ScenarioKind {
    /// Every *default* scenario, in the order `kastio loadgen` runs
    /// them. [`ScenarioKind::Overload`], [`ScenarioKind::SnapshotStall`]
    /// and [`ScenarioKind::Churn`] are opt-in (`--scenario <name>`)
    /// because each measures something a default baseline should not
    /// contain: sheds, snapshot disk I/O, connection-setup cost.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::ReadHeavy,
        ScenarioKind::WriteHeavy,
        ScenarioKind::HotKey,
        ScenarioKind::SaveStorm,
    ];

    /// The opt-in scenarios, for tests and docs that want to cover every
    /// kind: [`ScenarioKind::ALL`] plus these is the full set.
    pub const OPT_IN: [ScenarioKind; 3] =
        [ScenarioKind::Overload, ScenarioKind::SnapshotStall, ScenarioKind::Churn];

    /// The scenario's CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::ReadHeavy => "read-heavy",
            ScenarioKind::WriteHeavy => "write-heavy",
            ScenarioKind::HotKey => "hot-key",
            ScenarioKind::SaveStorm => "save-storm",
            ScenarioKind::Overload => "overload",
            ScenarioKind::SnapshotStall => "snapshot-stall",
            ScenarioKind::Churn => "churn",
        }
    }

    /// Parses a CLI name (`skewed-hot-key` is accepted as an alias).
    pub fn parse(name: &str) -> Option<ScenarioKind> {
        match name {
            "read-heavy" => Some(ScenarioKind::ReadHeavy),
            "write-heavy" => Some(ScenarioKind::WriteHeavy),
            "hot-key" | "skewed-hot-key" => Some(ScenarioKind::HotKey),
            "save-storm" => Some(ScenarioKind::SaveStorm),
            "overload" => Some(ScenarioKind::Overload),
            "snapshot-stall" => Some(ScenarioKind::SnapshotStall),
            "churn" => Some(ScenarioKind::Churn),
            _ => None,
        }
    }

    /// Whether each operation runs on its own fresh connection
    /// (connect → `HELLO` → op → close) instead of a persistent one.
    /// Only [`ScenarioKind::Churn`] — the scenario *is* the reconnect.
    pub fn reconnects_per_op(self) -> bool {
        matches!(self, ScenarioKind::Churn)
    }
}

/// The four synthetic trace families, loosely after the paper's
/// IOR/FLASH-IO workloads. Labels double as classification targets.
const FAMILIES: [&str; 4] = ["ckpt", "scan", "mixed", "stride"];

fn build_trace(family: usize, rng: &mut StdRng) -> String {
    let mut ops: Vec<String> = vec!["h0 open 0".to_string()];
    match FAMILIES[family % FAMILIES.len()] {
        "ckpt" => {
            let size = 1u64 << rng.gen_range(12..=20u32);
            for _ in 0..rng.gen_range(8..=24usize) {
                ops.push(format!("h0 write {size}"));
            }
            ops.push("h0 fsync 0".to_string());
        }
        "scan" => {
            let size = 4096 * rng.gen_range(1..=8u64);
            for _ in 0..rng.gen_range(8..=32usize) {
                ops.push(format!("h0 read {size}"));
            }
        }
        "mixed" => {
            let (rd, wr) = (4096 * rng.gen_range(1..=4u64), 1u64 << rng.gen_range(12..=16u32));
            for _ in 0..rng.gen_range(6..=16usize) {
                ops.push(format!("h0 read {rd}"));
                ops.push(format!("h0 write {wr}"));
            }
        }
        _ => {
            // stride: seek/read pairs at a growing offset.
            let (stride, size) = (1u64 << rng.gen_range(16..=22u32), 4096u64);
            for i in 0..rng.gen_range(6..=20u64) {
                ops.push(format!("h0 lseek {}", i * stride));
                ops.push(format!("h0 read {size}"));
            }
        }
    }
    ops.push("h0 close 0".to_string());
    ops.join(";")
}

/// A deterministic pool of labelled wire-format traces, shared by every
/// client of a run (it depends on the seed only).
#[derive(Debug, Clone)]
pub struct TracePool {
    entries: Vec<(String, String)>,
}

/// Pool size: 16 variants of each of the 4 families.
const POOL_SIZE: usize = 64;

/// Salt separating the pool's RNG stream from the per-client op streams.
const POOL_SALT: u64 = 0x706f_6f6c; // "pool"

impl TracePool {
    /// Builds the pool for `seed`: [`POOL_SIZE`][`TracePool::len`]
    /// labelled traces, families interleaved.
    pub fn new(seed: u64) -> TracePool {
        let mut rng = StdRng::seed_from_u64(seed ^ POOL_SALT);
        let entries = (0..POOL_SIZE)
            .map(|i| (FAMILIES[i % FAMILIES.len()].to_string(), build_trace(i, &mut rng)))
            .collect();
        TracePool { entries }
    }

    /// Number of pooled traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(label, wire-trace)` pair at `idx` (modulo the pool size).
    pub fn entry(&self, idx: usize) -> (&str, &str) {
        let (label, wire) = &self.entries[idx % self.entries.len()];
        (label, wire)
    }
}

/// One protocol operation a load client performs, with everything needed
/// to put it on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `INGEST <label> <trace>`.
    Ingest {
        /// Label of the new entry.
        label: String,
        /// Wire-format trace.
        trace: String,
    },
    /// `BATCH INGEST <n>` plus its item lines.
    BatchIngest {
        /// The `(label, trace)` item lines.
        items: Vec<(String, String)>,
    },
    /// `QUERY k=<k> <trace>`.
    Query {
        /// Neighbour count.
        k: usize,
        /// Wire-format query trace.
        trace: String,
    },
    /// `MQUERY k=<k> <n>` plus its trace lines.
    MQuery {
        /// Neighbour count per query.
        k: usize,
        /// The query trace lines.
        traces: Vec<String>,
    },
    /// `STATS`.
    Stats,
    /// `SAVE`.
    Save,
}

impl Op {
    /// The verb this op is accounted under in the report.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Ingest { .. } => "INGEST",
            Op::BatchIngest { .. } => "BATCH",
            Op::Query { .. } => "QUERY",
            Op::MQuery { .. } => "MQUERY",
            Op::Stats => "STATS",
            Op::Save => "SAVE",
        }
    }

    /// Renders the complete wire text: header line plus any item lines,
    /// every line newline-terminated, ready for one `write_all`.
    pub fn render(&self) -> String {
        match self {
            Op::Ingest { label, trace } => format!("INGEST {label} {trace}\n"),
            Op::BatchIngest { items } => {
                let mut out = format!("BATCH INGEST {}\n", items.len());
                for (label, trace) in items {
                    out.push_str(&format!("{label} {trace}\n"));
                }
                out
            }
            Op::Query { k, trace } => format!("QUERY k={k} {trace}\n"),
            Op::MQuery { k, traces } => {
                let mut out = format!("MQUERY k={k} {}\n", traces.len());
                for trace in traces {
                    out.push_str(trace);
                    out.push('\n');
                }
                out
            }
            Op::Stats => "STATS\n".to_string(),
            Op::Save => "SAVE\n".to_string(),
        }
    }
}

/// Zipf exponent of the hot-key scenario. ~1.1 gives the classic
/// "few keys dominate, long tail exists" shape without degenerating to
/// a single key.
const ZIPF_EXPONENT: f64 = 1.1;

/// The deterministic per-client operation stream.
#[derive(Debug, Clone)]
pub struct ScenarioGen {
    kind: ScenarioKind,
    rng: StdRng,
    pool: TracePool,
    /// Normalised zipf CDF over pool indices (hot-key scenario only).
    zipf_cdf: Vec<f64>,
}

impl ScenarioGen {
    /// Creates the op stream for one client. Streams for different
    /// `client` ids are decorrelated by a golden-ratio seed spread; the
    /// pool is shared (seed-only) so clients contend on the same keys.
    pub fn new(kind: ScenarioKind, seed: u64, client: u64) -> ScenarioGen {
        let pool = TracePool::new(seed);
        let zipf_cdf = match kind {
            ScenarioKind::HotKey => {
                let weights: Vec<f64> =
                    (0..pool.len()).map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_EXPONENT)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        ScenarioGen {
            kind,
            rng: StdRng::seed_from_u64(
                seed.wrapping_add((client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            pool,
            zipf_cdf,
        }
    }

    fn uniform_pick(&mut self) -> usize {
        self.rng.gen_range(0..self.pool.len())
    }

    fn zipf_pick(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.zipf_cdf.partition_point(|&cdf| cdf < u).min(self.pool.len() - 1)
    }

    fn fresh_ingest(&mut self) -> (String, String) {
        let family = self.rng.gen_range(0..FAMILIES.len());
        let trace = build_trace(family, &mut self.rng);
        (FAMILIES[family].to_string(), trace)
    }

    /// A deliberately heavy checkpoint-like ingest (~200 operations,
    /// ~10 KiB of corpus footprint) — the overload scenario's pressure
    /// source. Big enough that a small budget fills within a few
    /// batches, small enough to stay far under the per-line cap.
    fn fat_ingest(&mut self) -> (String, String) {
        let size = 1u64 << self.rng.gen_range(12..=20u32);
        let ops: Vec<String> =
            (0..self.rng.gen_range(192..=256usize)).map(|_| format!("h0 write {size}")).collect();
        ("ckpt".to_string(), ops.join(";"))
    }

    /// The next operation in this client's stream.
    pub fn next_op(&mut self) -> Op {
        let draw = self.rng.gen_range(0..100u32);
        match self.kind {
            ScenarioKind::ReadHeavy => match draw {
                0..=69 => {
                    let idx = self.uniform_pick();
                    Op::Query { k: 3, trace: self.pool.entry(idx).1.to_string() }
                }
                70..=84 => {
                    let traces = (0..4)
                        .map(|_| {
                            let idx = self.uniform_pick();
                            self.pool.entry(idx).1.to_string()
                        })
                        .collect();
                    Op::MQuery { k: 2, traces }
                }
                85..=94 => {
                    let (label, trace) = self.fresh_ingest();
                    Op::Ingest { label, trace }
                }
                _ => Op::Stats,
            },
            ScenarioKind::WriteHeavy => match draw {
                0..=44 => {
                    let (label, trace) = self.fresh_ingest();
                    Op::Ingest { label, trace }
                }
                45..=64 => Op::BatchIngest { items: (0..4).map(|_| self.fresh_ingest()).collect() },
                65..=89 => {
                    let idx = self.uniform_pick();
                    Op::Query { k: 3, trace: self.pool.entry(idx).1.to_string() }
                }
                _ => Op::Stats,
            },
            ScenarioKind::SaveStorm => match draw {
                0..=87 => {
                    let idx = self.uniform_pick();
                    Op::Query { k: 3, trace: self.pool.entry(idx).1.to_string() }
                }
                88..=97 => {
                    let (label, trace) = self.fresh_ingest();
                    Op::Ingest { label, trace }
                }
                _ => Op::Save,
            },
            ScenarioKind::Overload => match draw {
                0..=44 => Op::BatchIngest { items: (0..8).map(|_| self.fat_ingest()).collect() },
                45..=69 => {
                    let traces = (0..6)
                        .map(|_| {
                            let idx = self.uniform_pick();
                            self.pool.entry(idx).1.to_string()
                        })
                        .collect();
                    Op::MQuery { k: 2, traces }
                }
                70..=89 => {
                    let idx = self.uniform_pick();
                    Op::Query { k: 2, trace: self.pool.entry(idx).1.to_string() }
                }
                90..=94 => {
                    let (label, trace) = self.fat_ingest();
                    Op::Ingest { label, trace }
                }
                _ => Op::Stats,
            },
            ScenarioKind::SnapshotStall => match draw {
                0..=79 => {
                    let idx = self.uniform_pick();
                    Op::Query { k: 3, trace: self.pool.entry(idx).1.to_string() }
                }
                80..=89 => {
                    let (label, trace) = self.fresh_ingest();
                    Op::Ingest { label, trace }
                }
                _ => Op::Save,
            },
            ScenarioKind::Churn => {
                // Every op is one whole connection; a single uniform
                // QUERY keeps the scenario about connection setup, not
                // request mix.
                let idx = self.uniform_pick();
                Op::Query { k: 2, trace: self.pool.entry(idx).1.to_string() }
            }
            ScenarioKind::HotKey => match draw {
                0..=79 => {
                    let idx = self.zipf_pick();
                    Op::Query { k: 3, trace: self.pool.entry(idx).1.to_string() }
                }
                80..=91 => {
                    let traces = (0..4)
                        .map(|_| {
                            let idx = self.zipf_pick();
                            self.pool.entry(idx).1.to_string()
                        })
                        .collect();
                    Op::MQuery { k: 2, traces }
                }
                92..=97 => {
                    let (label, trace) = self.fresh_ingest();
                    Op::Ingest { label, trace }
                }
                _ => Op::Stats,
            },
        }
    }
}

/// Renders the first `ops_per_client` operations of every client's
/// stream, verbatim wire text under per-client headers. Two calls with
/// equal `(kind, seed, clients, ops_per_client)` return identical
/// strings — the reproducibility contract that makes two load reports
/// comparable, pinned by `tests/loadgen_determinism.rs`.
pub fn dry_run_trace(
    kind: ScenarioKind,
    seed: u64,
    clients: usize,
    ops_per_client: usize,
) -> String {
    let mut out = format!(
        "# scenario={} seed={seed} clients={clients} ops-per-client={ops_per_client}\n",
        kind.name()
    );
    for client in 0..clients {
        out.push_str(&format!("--- client {client} ---\n"));
        let mut gen = ScenarioGen::new(kind, seed, client as u64);
        for _ in 0..ops_per_client {
            out.push_str(&gen.next_op().render());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_in_the_seed() {
        let a = TracePool::new(7);
        let b = TracePool::new(7);
        let c = TracePool::new(8);
        assert_eq!(a.entries, b.entries);
        assert_ne!(a.entries, c.entries);
        assert_eq!(a.len(), POOL_SIZE);
    }

    #[test]
    fn every_rendered_op_is_valid_protocol() {
        use kastio_index::protocol::{decode_trace_inline, parse_batch_ingest_item, parse_request};
        for kind in ScenarioKind::ALL.into_iter().chain(ScenarioKind::OPT_IN) {
            let mut gen = ScenarioGen::new(kind, 42, 0);
            for _ in 0..200 {
                let op = gen.next_op();
                let wire = op.render();
                let mut lines = wire.lines();
                let header = lines.next().expect("op renders at least one line");
                let request =
                    parse_request(header).unwrap_or_else(|e| panic!("bad header `{header}`: {e}"));
                match op {
                    Op::BatchIngest { ref items } => {
                        assert_eq!(lines.clone().count(), items.len());
                        for line in lines {
                            parse_batch_ingest_item(line)
                                .unwrap_or_else(|e| panic!("bad item `{line}`: {e}"));
                        }
                    }
                    Op::MQuery { ref traces, .. } => {
                        assert_eq!(lines.clone().count(), traces.len());
                        for line in lines {
                            decode_trace_inline(line)
                                .unwrap_or_else(|e| panic!("bad trace `{line}`: {e}"));
                        }
                    }
                    _ => assert_eq!(lines.count(), 0, "single-line op {request:?}"),
                }
            }
        }
    }

    #[test]
    fn client_streams_are_deterministic_and_decorrelated() {
        for kind in ScenarioKind::ALL {
            let ops = |client: u64| -> Vec<String> {
                let mut gen = ScenarioGen::new(kind, 99, client);
                (0..50).map(|_| gen.next_op().render()).collect()
            };
            assert_eq!(ops(0), ops(0), "{kind:?} stream is deterministic");
            assert_ne!(ops(0), ops(1), "{kind:?} clients are decorrelated");
        }
    }

    #[test]
    fn hot_key_skews_toward_low_pool_indices() {
        let mut gen = ScenarioGen::new(ScenarioKind::HotKey, 5, 0);
        let hottest = gen.pool.entry(0).1.to_string();
        let (mut hot, mut queries) = (0u32, 0u32);
        for _ in 0..2000 {
            if let Op::Query { trace, .. } = gen.next_op() {
                queries += 1;
                if trace == hottest {
                    hot += 1;
                }
            }
        }
        // Under zipf(1.1) over 64 keys the first key carries ~21% of the
        // mass; uniform would give ~1.6%. Assert well above uniform.
        assert!(queries > 1000, "scenario is query-dominated ({queries})");
        assert!(
            hot as f64 / queries as f64 > 0.10,
            "hottest key drew {hot}/{queries} queries — not skewed"
        );
    }

    #[test]
    fn scenario_names_round_trip() {
        for kind in ScenarioKind::ALL.into_iter().chain(ScenarioKind::OPT_IN) {
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::parse("skewed-hot-key"), Some(ScenarioKind::HotKey));
        assert_eq!(ScenarioKind::parse("nope"), None);
        for kind in ScenarioKind::OPT_IN {
            assert!(
                !ScenarioKind::ALL.contains(&kind),
                "{} is opt-in, never part of a default (baseline) run",
                kind.name()
            );
        }
        assert!(ScenarioKind::Churn.reconnects_per_op(), "churn is the reconnecting scenario");
        assert!(
            ScenarioKind::ALL.iter().all(|kind| !kind.reconnects_per_op()),
            "default scenarios keep persistent connections"
        );
    }

    #[test]
    fn churn_streams_are_all_queries() {
        let mut gen = ScenarioGen::new(ScenarioKind::Churn, 11, 0);
        for _ in 0..100 {
            assert!(matches!(gen.next_op(), Op::Query { .. }));
        }
    }

    #[test]
    fn snapshot_stall_saves_far_more_often_than_save_storm() {
        let saves = |kind: ScenarioKind| {
            let mut gen = ScenarioGen::new(kind, 11, 0);
            (0..1000).filter(|_| matches!(gen.next_op(), Op::Save)).count()
        };
        let (storm, stall) = (saves(ScenarioKind::SaveStorm), saves(ScenarioKind::SnapshotStall));
        assert!(stall >= 3 * storm, "snapshot-stall saved {stall}x vs save-storm {storm}x");
        assert!(stall >= 50, "~10% of 1000 draws should SAVE, got {stall}");
    }
}
