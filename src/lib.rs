//! # kastio
//!
//! A from-scratch Rust reproduction of Torres, Kunkel, Dolz, Ludwig —
//! *"A Novel String Representation and Kernel Function for the Comparison
//! of I/O Access Patterns"* (PaCT 2017, LNCS 10421,
//! DOI 10.1007/978-3-319-62932-2_48).
//!
//! The paper converts POSIX-level I/O traces into *weighted token strings*
//! via a containment tree (`ROOT → HANDLE → BLOCK → operations`) with a
//! four-rule compression step, then compares those strings with a new
//! string kernel — the **Kast Spectrum Kernel** — whose features are the
//! independent shared substrings reaching a *cut weight*. Similarity
//! matrices over a 110-example dataset (IOR + FLASH-IO access patterns)
//! are analysed with Kernel PCA and single-linkage hierarchical
//! clustering.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`trace`] | `kastio-trace` | trace model, text format, simulated POSIX layer |
//! | [`pattern`] | `kastio-core` | tree construction, compression, weighted strings, **Kast kernel** |
//! | [`kernels`] | `kastio-kernels` | spectrum/blended/bag baselines, Gram matrices |
//! | [`linalg`] | `kastio-linalg` | Jacobi eigensolver, PSD repair, Kernel PCA |
//! | [`cluster`] | `kastio-cluster` | hierarchical clustering, dendrograms, metrics |
//! | [`workloads`] | `kastio-workloads` | IOR/FLASH-IO-style generators, the 110-example dataset |
//! | [`obs`] | `kastio-obs` | observability primitives: log-bucketed latency histograms, striped concurrent recording, slow-query log, metrics exposition |
//! | [`index`] | `kastio-index` | read-concurrent corpus index: k-NN queries, signature prefilter, a byte-bounded query memo, serve/query daemon |
//! | [`loadgen`] | `kastio-loadgen` | end-to-end load harness: seeded scenario mixes, concurrent client pool, latency histograms, METRICS scrapes, STATS-delta reports |
//!
//! The most common items are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use kastio::{pattern_string, ByteMode, KastKernel, KastOptions, SimFs, StringKernel,
//!              TokenInterner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Record two tiny applications on the simulated POSIX layer.
//! let mut fs = SimFs::new();
//! let fd = fs.open("checkpoint.dat")?;
//! for _ in 0..32 {
//!     fs.write(fd, 1 << 20)?;
//! }
//! fs.close(fd)?;
//! let trace_a = fs.into_trace();
//!
//! let mut fs = SimFs::new();
//! let fd = fs.open("checkpoint.dat")?;
//! for _ in 0..40 {
//!     fs.write(fd, 1 << 20)?;
//! }
//! fs.close(fd)?;
//! let trace_b = fs.into_trace();
//!
//! // Convert to weighted strings and compare with the Kast kernel.
//! let mut interner = TokenInterner::new();
//! let a = interner.intern_string(&pattern_string(&trace_a, ByteMode::Preserve));
//! let b = interner.intern_string(&pattern_string(&trace_b, ByteMode::Preserve));
//! let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
//! let similarity = kernel.normalized(&a, &b);
//! assert!(similarity > 0.9, "same pattern, different loop count");
//! # Ok(())
//! # }
//! ```

pub use kastio_cluster as cluster;
pub use kastio_core as pattern;
pub use kastio_index as index;
pub use kastio_kernels as kernels;
pub use kastio_linalg as linalg;
pub use kastio_loadgen as loadgen;
pub use kastio_obs as obs;
pub use kastio_trace as trace;
pub use kastio_workloads as workloads;

pub use kastio_cluster::{
    adjusted_rand_index, hierarchical, purity, silhouette, Dendrogram, DistanceMatrix, Linkage,
};
pub use kastio_core::{
    build_tree, compress_tree, flatten_tree, pattern_string, ByteMode, CompressOptions, CutRule,
    IdString, KastKernel, KastOptions, Normalization, PatternPipeline, PatternTree, StringKernel,
    TokenInterner, WeightedString,
};
pub use kastio_index::{
    load_index, save_index_if_changed_wal, save_index_wal, watch_termination, IndexOptions,
    IndexStats, IngestError, Neighbor, PatternIndex, PrefilterConfig, QueryResult, Server,
    ShutdownHandle, SignalWatcher, SnapshotInfo, SnapshotStatus, Snapshotter, TermSignal,
    WalManager,
};
pub use kastio_kernels::{
    gram_matrix, BagOfTokensKernel, BagOfWordsKernel, BlendedSpectrumKernel, GramMode,
    KSpectrumKernel, KernelMatrix, WeightingMode,
};
pub use kastio_linalg::{center_gram, eigh, psd_repair, KernelPca, SquareMatrix};
pub use kastio_trace::{parse_trace, write_trace, OpKind, Operation, SimFs, Trace};
pub use kastio_workloads::{Category, Dataset, DatasetShape, MutationConfig};
