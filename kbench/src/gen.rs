//! Seeded inputs. The durable root's entries and every workload's request
//! streams are a pure function of the seed and the run length; the daemon
//! only ever sees these generated inputs.
//!
//! Traces are composed from `kastio-loadgen`'s pool of the four trace
//! families (ckpt, scan, mixed, stride): each one is a sequence of two or
//! three pool traces run one after the other, a multi-phase access
//! pattern. Every pool trace opens with `h0 open 0` and closes with
//! `h0 close 0`, so a composed trace splits back into its phases in
//! exactly one way: distinct phase sequences give distinct traces. The
//! [`TraceFactory`] never hands out the same sequence twice, so no trace
//! repeats across the root, the queries and the ingests of one seed.
//!
//! The pool is the same for every seed ([`PHASE_POOL_SEED`]); the seed
//! picks which phases are composed, and in what order. A pool drawn per
//! seed set the mean trace length, and with it the kernel's cost per
//! pair, anew for every seed, and `cold-query`'s median latency moved
//! with it from seed to seed.

use std::collections::HashSet;

use kastio_loadgen::TracePool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Workload;

/// The seed of the `kastio-loadgen` pool every trace is composed from,
/// whatever the run's own seed (see the module docs).
pub const PHASE_POOL_SEED: u64 = 0;
/// Entries in the root's snapshot.
pub const ROOT_SNAPSHOT_ENTRIES: usize = 1_500;
/// Acknowledged ingests in the root's WAL tail, past the snapshot.
pub const ROOT_WAL_ENTRIES: usize = 500;
/// Neighbours asked for by every `QUERY`.
pub const K: usize = 5;
/// Items per `BATCH INGEST`.
pub const BATCH_ITEMS: usize = 8;
/// Distinct traces `hot-query` draws from: 64 queries × 32 candidates
/// = 2,048 pairs, inside the daemon's 4,096-pair kernel cache.
pub const HOT_POOL: usize = 64;
/// Skew of `hot-query`'s draws over its pool.
pub const ZIPF_EXPONENT: f64 = 1.1;

// Every phase but the hot-query warm-up is an open loop at about a third
// of what the seed code sustains closed-loop on two connections on a
// 2-vCPU Xeon VM (`--calibrate` measures it). At half, a burst of steal
// time on a shared host pushed the daemon past its capacity for seconds
// and the window's median turned into a queue; closed loops turned the
// same bursts into throughput swings of 30%.

/// Offered `QUERY` rate of `cold-query` (capacity 1,620/s).
pub const COLD_RATE: u64 = 600;
/// Offered `QUERY` rate of `hot-query` (capacity 3,690/s).
pub const HOT_RATE: u64 = 1_200;
/// Offered op rate of `durable-ingest` (capacity about 800 ops/s).
pub const DURABLE_RATE: u64 = 300;
/// Offered op rate of the write probe that ends the read workloads
/// (untimed, so it may run closer to capacity: about half).
pub const PROBE_RATE: u64 = 400;
/// Single `INGEST`s in the write probe that ends the read workloads, per
/// second of the window.
pub const PROBE_INGESTS_PER_S: usize = 100;
/// `BATCH INGEST`s in the same probe, per second of the window.
pub const PROBE_BATCHES_PER_S: usize = 10;

/// Connections the load uses, each driven by its own thread.
pub const CONNECTIONS: usize = 2;

/// One labelled trace, in the wire's inline form (`;`-separated ops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labelled {
    pub label: String,
    pub wire: String,
}

/// Hands out composed traces, never the same phase sequence twice.
pub struct TraceFactory {
    /// Distinct pool traces, with the family each belongs to.
    phases: Vec<Labelled>,
    rng: StdRng,
    seen: HashSet<Vec<u8>>,
}

impl TraceFactory {
    pub fn new(seed: u64) -> TraceFactory {
        let pool = TracePool::new(PHASE_POOL_SEED);
        let mut phases: Vec<Labelled> = Vec::new();
        for i in 0..pool.len() {
            let (label, wire) = pool.entry(i);
            if !phases.iter().any(|phase| phase.wire == wire) {
                phases.push(Labelled { label: label.to_string(), wire: wire.to_string() });
            }
        }
        TraceFactory {
            phases,
            rng: StdRng::seed_from_u64(seed ^ 0x6b62_656e_6368), // "kbench"
            seen: HashSet::new(),
        }
    }

    /// The next unused trace, labelled with its first phase's family.
    pub fn next_trace(&mut self) -> Labelled {
        loop {
            let len = self.rng.gen_range(2..=3usize);
            let sequence: Vec<u8> = (0..len)
                .map(|_| {
                    u8::try_from(self.rng.gen_range(0..self.phases.len())).expect("pool < 256")
                })
                .collect();
            if !self.seen.insert(sequence.clone()) {
                continue;
            }
            let wire: Vec<&str> =
                sequence.iter().map(|&p| self.phases[usize::from(p)].wire.as_str()).collect();
            let label = self.phases[usize::from(sequence[0])].label.clone();
            return Labelled { label, wire: wire.join(";") };
        }
    }
}

/// One request the load sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query(String),
    Ingest(Labelled),
    Batch(Vec<Labelled>),
}

impl Op {
    /// The complete wire text: header plus any item lines.
    pub fn render(&self) -> String {
        match self {
            Op::Query(wire) => format!("QUERY k={K} {wire}\n"),
            Op::Ingest(item) => format!("INGEST {} {}\n", item.label, item.wire),
            Op::Batch(items) => {
                let mut out = format!("BATCH INGEST {}\n", items.len());
                for item in items {
                    out.push_str(&format!("{} {}\n", item.label, item.wire));
                }
                out
            }
        }
    }

    /// Entries an `OK` reply to this op acknowledges.
    pub fn entries(&self) -> usize {
        match self {
            Op::Query(_) => 0,
            Op::Ingest(_) => 1,
            Op::Batch(items) => items.len(),
        }
    }
}

/// How a phase's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Each connection waits for a reply before sending its next request.
    Closed,
    /// Requests are due on a fixed schedule: globally, one every
    /// `interval_ns`, alternating between the connections.
    Open { interval_ns: u64 },
}

impl Arrival {
    /// When request `i` of connection `conn` is due, in nanoseconds after
    /// the phase starts (open loop only).
    pub fn due_ns(self, conn: usize, i: usize) -> Option<u64> {
        match self {
            Arrival::Closed => None,
            Arrival::Open { interval_ns } => Some((i * CONNECTIONS + conn) as u64 * interval_ns),
        }
    }
}

/// One phase of a workload: per-connection op lists and their arrival.
#[derive(Debug, Clone)]
pub struct Phase {
    pub arrival: Arrival,
    pub ops: [Vec<Op>; CONNECTIONS],
}

impl Phase {
    fn closed(ops: Vec<Op>) -> Phase {
        Phase { arrival: Arrival::Closed, ops: split(ops) }
    }

    pub fn len(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }
}

/// Deals `ops` out to the connections round-robin.
fn split(ops: Vec<Op>) -> [Vec<Op>; CONNECTIONS] {
    let mut out: [Vec<Op>; CONNECTIONS] = Default::default();
    for (i, op) in ops.into_iter().enumerate() {
        out[i % CONNECTIONS].push(op);
    }
    out
}

/// Everything one run sends, in order: an untimed warm-up, the timed
/// window, and an untimed write probe.
#[derive(Debug, Clone)]
pub struct Plan {
    pub warmup: Option<Phase>,
    pub window: Phase,
    pub probe: Option<Phase>,
}

/// The root's entries plus one workload's plan, for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Snapshot entries first, then the WAL tail; entry `i` is `e<i>`.
    pub root: Vec<Labelled>,
    pub plan: Plan,
}

/// The entries of the seeded durable root (the same for every workload).
pub fn root_entries(factory: &mut TraceFactory) -> Vec<Labelled> {
    (0..ROOT_SNAPSHOT_ENTRIES + ROOT_WAL_ENTRIES).map(|_| factory.next_trace()).collect()
}

/// The inputs of `workload` for `seed`, sized for a `seconds`-long window.
pub fn inputs(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut factory = TraceFactory::new(seed);
    let root = root_entries(&mut factory);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ workload as u64);
    let seconds = usize::try_from(seconds).expect("seconds fit usize");
    let plan = match workload {
        Workload::ColdQuery => {
            let n = COLD_RATE as usize * seconds;
            let ops = (0..n).map(|_| Op::Query(factory.next_trace().wire)).collect();
            Plan {
                warmup: None,
                window: open_phase(ops, COLD_RATE),
                probe: Some(write_probe(&mut factory, seconds)),
            }
        }
        Workload::HotQuery => {
            let pool: Vec<String> = (0..HOT_POOL).map(|_| factory.next_trace().wire).collect();
            let cdf = zipf_cdf(HOT_POOL, ZIPF_EXPONENT);
            let n = HOT_RATE as usize * seconds;
            let ops = (0..n)
                .map(|_| {
                    let u: f64 = rng.gen();
                    let pick = cdf.partition_point(|&c| c < u).min(HOT_POOL - 1);
                    Op::Query(pool[pick].clone())
                })
                .collect();
            Plan {
                warmup: Some(Phase::closed(pool.into_iter().map(Op::Query).collect())),
                window: open_phase(ops, HOT_RATE),
                probe: Some(write_probe(&mut factory, seconds)),
            }
        }
        Workload::DurableIngest => {
            // Exact 55/20/25 proportions, shuffled, on a fixed schedule:
            // the corpus, RSS and disk use a run ends with do not depend
            // on how fast the daemon commits.
            let total = DURABLE_RATE as usize * seconds;
            let (ingests, batches) = (total * 55 / 100, total * 20 / 100);
            let mut kinds: Vec<u8> = [(0u8, ingests), (1, batches), (2, total - ingests - batches)]
                .into_iter()
                .flat_map(|(kind, count)| std::iter::repeat_n(kind, count))
                .collect();
            shuffle(&mut kinds, &mut rng);
            let ops = kinds
                .into_iter()
                .map(|kind| match kind {
                    0 => Op::Ingest(factory.next_trace()),
                    1 => Op::Batch((0..BATCH_ITEMS).map(|_| factory.next_trace()).collect()),
                    _ => Op::Query(factory.next_trace().wire),
                })
                .collect();
            Plan { warmup: None, window: open_phase(ops, DURABLE_RATE), probe: None }
        }
    };
    Inputs { root, plan }
}

fn open_phase(ops: Vec<Op>, rate: u64) -> Phase {
    Phase { arrival: Arrival::Open { interval_ns: 1_000_000_000 / rate }, ops: split(ops) }
}

/// The write probe that ends each read workload, after its timed window:
/// single `INGEST`s with a `BATCH INGEST` every eleventh op. It gives the
/// ingest metrics a value on every workload while leaving the window
/// itself free of writes.
fn write_probe(factory: &mut TraceFactory, seconds: usize) -> Phase {
    let ops = (0..(PROBE_INGESTS_PER_S + PROBE_BATCHES_PER_S) * seconds)
        .map(|i| {
            if i % 11 == 10 {
                Op::Batch((0..BATCH_ITEMS).map(|_| factory.next_trace()).collect())
            } else {
                Op::Ingest(factory.next_trace())
            }
        })
        .collect();
    open_phase(ops, PROBE_RATE)
}

/// Cumulative zipf(`exponent`) weights over `n` ranks.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(exponent)).collect();
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

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_core::{pattern_string, ByteMode};
    use kastio_index::decode_trace_inline;

    fn traces<'a>(phases: impl Iterator<Item = &'a Phase>) -> Vec<String> {
        phases
            .flat_map(|phase| phase.ops.iter().flatten())
            .flat_map(|op| match op {
                Op::Query(wire) => vec![wire.clone()],
                Op::Ingest(item) => vec![item.wire.clone()],
                Op::Batch(items) => items.iter().map(|item| item.wire.clone()).collect(),
            })
            .collect()
    }

    fn all_traces(inputs: &Inputs) -> Vec<String> {
        let plan = &inputs.plan;
        traces(plan.warmup.iter().chain([&plan.window]).chain(plan.probe.iter()))
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = inputs(workload, 7, 1);
            let b = inputs(workload, 7, 1);
            let c = inputs(workload, 8, 1);
            assert_eq!(a.root, b.root);
            assert_eq!(all_traces(&a), all_traces(&b), "{workload:?}");
            assert_ne!(a.root, c.root);
            assert_ne!(all_traces(&a), all_traces(&c), "{workload:?}");
        }
    }

    #[test]
    fn every_seed_composes_from_the_same_phases() {
        assert_eq!(TraceFactory::new(1).phases, TraceFactory::new(2).phases);
    }

    #[test]
    fn the_root_does_not_depend_on_the_workload_or_run_length() {
        let cold = inputs(Workload::ColdQuery, 3, 1);
        assert_eq!(cold.root, inputs(Workload::DurableIngest, 3, 2).root);
        assert_eq!(cold.root.len(), ROOT_SNAPSHOT_ENTRIES + ROOT_WAL_ENTRIES);
    }

    #[test]
    fn cold_queries_are_distinct_from_each_other_and_from_the_root() {
        let inputs = inputs(Workload::ColdQuery, 11, 2);
        let queries: Vec<&String> = inputs
            .plan
            .window
            .ops
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Query(wire) => wire,
                other => panic!("cold-query sends only queries, got {other:?}"),
            })
            .collect();
        assert_eq!(queries.len(), COLD_RATE as usize * 2);
        let root: HashSet<&String> = inputs.root.iter().map(|entry| &entry.wire).collect();
        let mut wires = HashSet::new();
        let mut strings = HashSet::new();
        for wire in queries {
            assert!(!root.contains(wire), "a query repeats a root entry");
            assert!(wires.insert(wire), "a query trace repeats");
            // Distinct pattern strings, not just distinct text: the
            // daemon's query registry and kernel cache key on the string.
            let trace = decode_trace_inline(wire).expect("generated traces parse");
            assert!(
                strings.insert(pattern_string(&trace, ByteMode::Preserve).to_string()),
                "two query traces share a pattern string"
            );
        }
    }

    #[test]
    fn every_generated_trace_is_unique_within_a_seed() {
        for workload in Workload::ALL {
            let inputs = inputs(workload, 5, 1);
            let plan = &inputs.plan;
            // hot-query's window repeats its warm-up pool by design;
            // every other trace is fresh.
            let window = (workload != Workload::HotQuery).then_some(&plan.window);
            let fresh = traces(plan.warmup.iter().chain(window).chain(plan.probe.iter()));
            let mut seen: HashSet<String> = inputs.root.iter().map(|e| e.wire.clone()).collect();
            for wire in fresh {
                assert!(seen.insert(wire), "{workload:?} repeats a trace");
            }
        }
    }

    #[test]
    fn durable_ingest_has_exact_proportions() {
        let plan = inputs(Workload::DurableIngest, 1, 2).plan;
        let ops: Vec<&Op> = plan.window.ops.iter().flatten().collect();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
        let total = DURABLE_RATE as usize * 2;
        assert_eq!(ops.len(), total);
        assert_eq!(count(|op| matches!(op, Op::Ingest(_))), total * 55 / 100);
        assert_eq!(count(|op| matches!(op, Op::Batch(_))), total * 20 / 100);
        assert!(plan.warmup.is_none() && plan.probe.is_none());
    }

    #[test]
    fn open_loop_schedule_alternates_connections() {
        let arrival = Arrival::Open { interval_ns: 100 };
        assert_eq!(arrival.due_ns(0, 0), Some(0));
        assert_eq!(arrival.due_ns(1, 0), Some(100));
        assert_eq!(arrival.due_ns(0, 1), Some(200));
        assert_eq!(Arrival::Closed.due_ns(0, 3), None);
    }
}
