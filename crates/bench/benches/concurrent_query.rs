//! Read-side concurrency: what the `&self`-querying index buys a
//! multi-client daemon over the old single-`Mutex` scheme.
//!
//! Both regimes answer the same workload — `CLIENTS` threads, each
//! issuing `QUERIES_PER_CLIENT` distinct k-NN queries against the same
//! corpus — and differ only in how the index is shared:
//!
//! * `single_lock` — the first daemon design: one
//!   `Mutex<PatternIndex>` locked for the duration of each query, so
//!   clients are strictly serialised no matter how many cores exist;
//! * `read_concurrent` — the current design: a plain `&PatternIndex`,
//!   every client querying concurrently, each holding the corpus *read*
//!   lock only for its signature scan.
//!
//! The query memo is disabled so the benchmark isolates *lock*
//! behaviour: with caching on, repeat queries collapse to hash lookups
//! and both regimes finish instantly. Every query scores on its calling
//! thread, so the clients are the only parallelism.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Mutex;

use kastio_index::{IndexOptions, PatternIndex, PrefilterConfig};
use kastio_trace::Trace;
use kastio_workloads::{Dataset, DatasetShape};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 8;

fn corpus() -> Vec<(String, String, Trace)> {
    let shape = DatasetShape { bases_a: 4, bases_b: 2, bases_c: 2, bases_d: 2, copies: 3 };
    Dataset::generate(shape, 20170904)
        .iter()
        .map(|e| (e.name.clone(), e.category.tag().to_string(), e.trace.clone()))
        .collect()
}

/// Per-client probe sets, distinct across clients and iterations so no
/// regime benefits from one probe being hot.
fn probes() -> Vec<Vec<Trace>> {
    (0..CLIENTS)
        .map(|client| {
            Dataset::generate(DatasetShape::small(), 100 + client as u64)
                .iter()
                .map(|e| e.trace.clone())
                .cycle()
                .take(QUERIES_PER_CLIENT)
                .collect()
        })
        .collect()
}

fn build_index() -> PatternIndex {
    let index = PatternIndex::new(IndexOptions {
        cache_capacity: 0, // isolate locking, not caching
        prefilter: PrefilterConfig { min_candidates: 8, per_k: 2, ..PrefilterConfig::default() },
        ..IndexOptions::default()
    });
    for (name, label, trace) in corpus() {
        index.ingest(name, label, trace).unwrap();
    }
    index
}

fn bench_concurrent_query(c: &mut Criterion) {
    // Read concurrency buys wall-clock only where hardware threads exist:
    // on a single-core host the two regimes tie (which still demonstrates
    // that the corpus lock adds no overhead); with H threads the
    // read-concurrent regime approaches min(CLIENTS, H)× the single-lock
    // throughput.
    let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "concurrent_query: {CLIENTS} clients x {QUERIES_PER_CLIENT} queries, \
         {hardware} hardware thread(s){}",
        if hardware == 1 { " - expect a tie on one core" } else { "" }
    );
    let mut group = c.benchmark_group("concurrent_query");
    group.sample_size(10);
    let probes = probes();

    // Baseline: every query takes the one global lock (PR 2's daemon).
    let locked = Mutex::new(build_index());
    group.bench_function("single_lock", |bencher| {
        bencher.iter(|| {
            std::thread::scope(|scope| {
                for client_probes in &probes {
                    let locked = &locked;
                    scope.spawn(move || {
                        for probe in client_probes {
                            let index = locked.lock().unwrap();
                            black_box(index.query(black_box(probe), 3));
                        }
                    });
                }
            });
        });
    });

    // Read-concurrent: the same traffic against `&PatternIndex`, no outer
    // lock.
    let shared = build_index();
    group.bench_function("read_concurrent", |bencher| {
        bencher.iter(|| {
            std::thread::scope(|scope| {
                for client_probes in &probes {
                    let shared = &shared;
                    scope.spawn(move || {
                        for probe in client_probes {
                            black_box(shared.query(black_box(probe), 3));
                        }
                    });
                }
            });
        });
    });

    group.finish();
}

criterion_group!(benches, bench_concurrent_query);
fn main() {
    kastio_bench::print_parallelism_banner("concurrent_query");
    benches();
}
