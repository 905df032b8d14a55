//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artefact of §4 (the README's
//! "Reproducing the paper's figures and tables" lists them); the
//! Criterion benches in `benches/` cover the performance claims. The
//! shared pipeline lives in [`experiment`] and the text rendering in
//! [`report`].

pub mod experiment;
pub mod microbench;
pub mod report;

/// Prints (and returns) the machine's available parallelism, so every
/// bench's output records the hardware it ran on — a single-CPU container
/// ties the concurrency benches, and the embedded count makes such ties
/// self-explaining instead of looking like regressions.
pub fn print_parallelism_banner(bench: &str) -> usize {
    let parallelism = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!("{bench}: available_parallelism={parallelism}");
    parallelism
}

pub use experiment::{
    analyze, analyze_with_linkage, category_tags, matches_reference, prepare, score_against,
    Analysis, ClusterScore, PreparedDataset, ReferencePartition, PAPER_SEED,
};
