//! k-NN classification over an indexed corpus — the library API behind
//! `kastio serve`.
//!
//! Builds a labelled corpus from the paper-style workload generators,
//! ingests it once, then classifies unseen probe workloads and prints
//! what the prefilter and cache saved.
//!
//! ```sh
//! cargo run --example index_knn
//! ```

use kastio::workloads::generators::{flash_io, random_posix, FlashIoParams, RandomPosixParams};
use kastio::{IndexOptions, PatternIndex, PrefilterConfig};

fn main() {
    // `query`/`ingest` take `&self` (the index is internally
    // synchronised), so no `mut` binding is needed even single-threaded.
    let index = PatternIndex::new(IndexOptions {
        prefilter: PrefilterConfig { min_candidates: 4, per_k: 2, ..PrefilterConfig::default() },
        ..IndexOptions::default()
    });

    // Ingest once: 8 FLASH-style checkpoint writers, 8 random-POSIX mixes.
    for i in 0..8 {
        let trace = flash_io(&FlashIoParams {
            files: 2 + i % 4,
            blocks: 12 + 3 * i,
            ..FlashIoParams::default()
        });
        index.ingest(format!("flash-{i}"), "flash-io", trace).unwrap();
    }
    for i in 0..8 {
        let params = RandomPosixParams {
            write_iterations: 10 + 2 * i,
            read_iterations: 10 + 2 * i,
            ..RandomPosixParams::default()
        };
        index
            .ingest(format!("posix-{i}"), "random-posix", random_posix(&params, 97 + i as u64))
            .unwrap();
    }
    println!("corpus: {} entries, {} ingest evals", index.len(), index.stats().ingest_evals);

    // Classify two probes the index has never seen.
    let probes = [
        (
            "checkpoint-like",
            flash_io(&FlashIoParams { files: 3, blocks: 26, ..Default::default() }),
        ),
        (
            "seek-read-like",
            random_posix(
                &RandomPosixParams {
                    write_iterations: 17,
                    read_iterations: 17,
                    ..Default::default()
                },
                2024,
            ),
        ),
    ];
    for (what, trace) in &probes {
        let result = index.query(trace, 3);
        println!(
            "\nprobe {what}: label={} ({} candidates, {} kernel evals, {} cache hits)",
            result.label.as_deref().unwrap_or("-"),
            result.candidates,
            result.evaluated,
            result.cache_hits
        );
        for (rank, n) in result.neighbors.iter().enumerate() {
            println!("  #{} {:10} {:13} similarity {:.4}", rank + 1, n.name, n.label, n.similarity);
        }
    }

    // The same probe again is answered from the query memo.
    let again = index.query(&probes[0].1, 3);
    println!("\nrepeat probe: {} kernel evals, {} cache hits", again.evaluated, again.cache_hits);
    let stats = index.stats();
    println!(
        "totals: {} queries, {} kernel evals, {} cache hits, {} pruned by prefilter",
        stats.queries, stats.kernel_evals, stats.cache_hits, stats.prefilter_pruned
    );
}
