//! `kastio-bench` — the kernel microbenchmark suite as a binary.
//!
//! Runs the hot-path measurements of `benches/kernel_eval.rs` (cold raw,
//! warm raw, normalised Gram n=64) against the retained naive pipeline
//! (`KastKernel::{raw,normalized}_reference`, via the `reference`
//! feature) and writes the medians to `BENCH_kernel.json` in the current
//! directory, seeding the repo's performance trajectory: re-run it after
//! a kernel change and diff the JSON. The file records the hardware it
//! was measured on (`available_parallelism`, `cpu`, `kernel`); compare
//! only files from the same hardware.
//!
//! Usage: `cargo run --release --bin kastio-bench [-- <output-path>]`

use std::hint::black_box;
use std::time::Instant;

use kastio_bench::microbench::{corpus_strings, example_pair};
use kastio_core::{KastEvaluator, KastKernel, KastOptions};
use kastio_kernels::{gram_matrix, GramMode, KernelMatrix};

const GRAM_N: usize = 64;

/// Median ns per call of `f`, over `samples` batches of `per_batch`
/// calls each (one warm-up batch discarded).
fn median_ns(samples: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut run_batch = |n: usize| -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        start.elapsed().as_secs_f64() * 1e9 / n as f64
    };
    run_batch(per_batch); // warm-up (also warms scratch buffers)
    let mut per_call: Vec<f64> = (0..samples).map(|_| run_batch(per_batch)).collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[per_call.len() / 2]
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The running kernel's release (`/proc/sys/kernel/osrelease`), or
/// `unknown`.
fn host_kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// `text` as a JSON string, minus the characters JSON would need
/// escaped (none occur in a CPU model name or a kernel release).
fn json_string(text: &str) -> String {
    let kept: String = text.chars().filter(|&c| !c.is_control() && c != '"' && c != '\\').collect();
    format!("\"{kept}\"")
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| String::from("BENCH_kernel.json"));
    let parallelism = kastio_bench::print_parallelism_banner("kastio-bench");

    let (a, b) = example_pair();
    let opts = KastOptions::with_cut_weight(2);
    let kernel = KastKernel::new(opts);

    // Pairwise raw: naive baseline, cold evaluator, warm evaluator.
    let raw_naive = median_ns(21, 200, || {
        black_box(kernel.raw_reference(black_box(&a), black_box(&b)));
    });
    let raw_cold = median_ns(21, 200, || {
        let mut evaluator = KastEvaluator::new(opts);
        black_box(evaluator.raw(black_box(&a), black_box(&b)));
    });
    let mut warm = KastEvaluator::new(opts);
    let raw_warm = median_ns(21, 200, || {
        black_box(warm.raw(black_box(&a), black_box(&b)));
    });

    // Normalised Gram, n = 64: naive per-pair vs memoised diagonal.
    let strings = corpus_strings(GRAM_N);
    let evals = (GRAM_N * (GRAM_N + 1) / 2) as f64;
    let gram_naive = median_ns(7, 1, || {
        black_box(KernelMatrix::from_fn(strings.len(), |i, j| {
            kernel.normalized_reference(&strings[i], &strings[j])
        }));
    }) / evals;
    let gram_opt = median_ns(7, 1, || {
        black_box(gram_matrix(&kernel, &strings, GramMode::Normalized, 1));
    }) / evals;

    let speedup_raw = raw_naive / raw_warm;
    let speedup_gram = gram_naive / gram_opt;
    let json = format!(
        "{{\n  \
         \"suite\": \"kernel_eval\",\n  \
         \"available_parallelism\": {parallelism},\n  \
         \"cpu\": {},\n  \
         \"kernel\": {},\n  \
         \"pair_tokens\": [{}, {}],\n  \
         \"gram_n\": {GRAM_N},\n  \
         \"units\": \"ns_per_eval\",\n  \
         \"raw_naive_reference\": {raw_naive:.1},\n  \
         \"raw_optimized_cold\": {raw_cold:.1},\n  \
         \"raw_optimized_warm\": {raw_warm:.1},\n  \
         \"gram_normalized_naive_per_pair\": {gram_naive:.1},\n  \
         \"gram_normalized_memoized_diagonal\": {gram_opt:.1},\n  \
         \"speedup_warm_raw\": {speedup_raw:.2},\n  \
         \"speedup_gram_normalized\": {speedup_gram:.2}\n}}\n",
        json_string(&host_cpu()),
        json_string(&host_kernel()),
        a.len(),
        b.len(),
    );
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
}
