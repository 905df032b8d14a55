//! Index-vs-naive query cost: what the `kastio-index` subsystem buys over
//! re-scanning the corpus with the batch pipeline.
//!
//! Three regimes over the same generated corpus:
//!
//! * `naive_full_scan` — the batch baseline: one Kast evaluation per
//!   corpus entry per query (pipeline work already amortised, so this
//!   isolates the kernel cost the index avoids);
//! * `index_cold` — prefiltered index with the cache disabled: the
//!   signature prefilter alone;
//! * `index_warm` — default index answering a repeated query: prefilter
//!   plus the query memo.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use kastio_core::{pattern_string, ByteMode, KastKernel, KastOptions, StringKernel, TokenInterner};
use kastio_index::{IndexOptions, PatternIndex, PrefilterConfig};
use kastio_trace::Trace;
use kastio_workloads::{Dataset, DatasetShape};

/// A 40-example corpus: paper-style categories at a size where a full
/// scan is clearly measurable but the bench still runs quickly.
fn corpus() -> Vec<(String, String, Trace)> {
    let shape = DatasetShape { bases_a: 4, bases_b: 2, bases_c: 2, bases_d: 2, copies: 3 };
    Dataset::generate(shape, 20170904)
        .iter()
        .map(|e| (e.name.clone(), e.category.tag().to_string(), e.trace.clone()))
        .collect()
}

fn query_trace() -> Trace {
    // A mutant-free category-A base: a realistic "is this workload known?"
    // probe.
    Dataset::generate(DatasetShape::small(), 7).iter().next().unwrap().trace.clone()
}

fn build_index(opts: IndexOptions) -> PatternIndex {
    let index = PatternIndex::new(opts);
    for (name, label, trace) in corpus() {
        index.ingest(name, label, trace).unwrap();
    }
    index
}

fn bench_index_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_vs_naive");
    group.sample_size(10);

    // Naive: kernel against every corpus entry (strings pre-interned, as
    // the batch Gram-matrix path would have them).
    let mut interner = TokenInterner::new();
    let strings: Vec<_> = corpus()
        .iter()
        .map(|(_, _, trace)| interner.intern_string(&pattern_string(trace, ByteMode::Preserve)))
        .collect();
    let query = interner.intern_string(&pattern_string(&query_trace(), ByteMode::Preserve));
    let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
    group.bench_function("naive_full_scan", |bencher| {
        bencher.iter(|| {
            let best = strings
                .iter()
                .map(|s| kernel.normalized(black_box(&query), black_box(s)))
                .fold(f64::NEG_INFINITY, f64::max);
            black_box(best)
        });
    });

    // Cold index: prefilter only (cache off), fresh trace each time.
    let cold = build_index(IndexOptions {
        cache_capacity: 0,
        prefilter: PrefilterConfig { min_candidates: 8, per_k: 2, ..PrefilterConfig::default() },
        ..IndexOptions::default()
    });
    let probe = query_trace();
    group.bench_function("index_cold", |bencher| {
        bencher.iter(|| black_box(cold.query(black_box(&probe), 3)));
    });

    // Warm index: defaults, repeated query → memo hits.
    let warm = build_index(IndexOptions {
        prefilter: PrefilterConfig { min_candidates: 8, per_k: 2, ..PrefilterConfig::default() },
        ..IndexOptions::default()
    });
    warm.query(&probe, 3); // populate the cache
    group.bench_function("index_warm", |bencher| {
        bencher.iter(|| black_box(warm.query(black_box(&probe), 3)));
    });

    group.finish();
}

criterion_group!(benches, bench_index_vs_naive);
fn main() {
    kastio_bench::print_parallelism_banner("index_query");
    benches();
}
