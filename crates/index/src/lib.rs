//! # kastio-index
//!
//! An **online pattern-corpus index** over the paper's pipeline, turning
//! the batch tool into a long-running service. The batch flow re-parses,
//! re-interns and re-evaluates everything per invocation; the index
//! ingests each labelled trace once — precomputing its interned
//! [`kastio_core::IdString`] (shared [`kastio_core::TokenInterner`]), its
//! raw self-kernel, its cut-weight mass and its scalar
//! [`kastio_trace::PatternSignature`] — and then answers k-NN similarity
//! and majority-vote classification queries with three accelerations:
//!
//! 1. a **signature prefilter** ([`prefilter`]) that ranks the corpus by
//!    cheap scalar distance and hands only a budgeted candidate subset to
//!    the kernel stage;
//! 2. a **shared, byte-accounted LRU cache** ([`lru`]) of pairwise raw
//!    kernel values — one striped pool, so repeated or neighbouring
//!    queries stop paying for the quadratic string comparison;
//! 3. **inline batch scoring** — the surviving candidates are scored on
//!    the calling thread, reusing its warm kernel scratch buffers. A
//!    query never spawns threads: the serve daemon's parallelism comes
//!    from concurrent requests on its bounded worker pool.
//!
//! The corpus is **one** id-ordered vector of shared entry handles
//! under one `RwLock`, and every other mutable accelerator sits behind
//! interior mutability, so [`PatternIndex::query`] /
//! [`PatternIndex::ingest`] take `&self` — a server shares one index
//! across threads behind a plain `Arc`. A query read-locks the corpus
//! only for its signature scan, so queries run concurrently and scoring
//! holds no corpus lock; an ingest write-locks it only to append. See
//! `docs/ARCHITECTURE.md` for the full locking model.
//!
//! Accuracy contract: the similarity reported for every returned
//! neighbour is bit-identical to a direct [`kastio_core::KastKernel`]
//! evaluation of the same pair; prefilter and cache change which pairs
//! are evaluated and how often, never the arithmetic.
//!
//! [`persist`] saves a corpus as **one durable snapshot file**,
//! `<dir>/snapshot.log`: every entry as a CRC-framed WAL record, in id
//! order, so a reload reproduces every id. A save clones the entry
//! handles under the corpus read lock, then streams the records into a
//! temp file, fsyncs it, renames it into place and fsyncs the directory
//! with no corpus lock held; a [`Snapshotter`] thread can save
//! periodically, and [`signal`] turns `SIGTERM`/`SIGINT` into a final
//! snapshot plus clean listener shutdown. Corpus directories (plain-text
//! trace files + `MANIFEST`, the layout `kastio generate` emits) still
//! load directly, as an import. With `--wal`, [`wal`] closes the window
//! *between* snapshots too: every acked ingest is appended to one
//! write-ahead log as its id is allocated, so the log is in id order,
//! and fsync'd (group commit) before the ack goes out; a `BATCH INGEST`
//! is one all-or-nothing commit. A save compacts the log only once its
//! snapshot is durable, recovery replays the log over the last snapshot,
//! and [`fault`] provides the crash-point injection the durability suite
//! (`tests/wal_recovery.rs`) uses to prove no acked `INGEST` is ever
//! lost — even to `kill -9` mid-write. (The kill suite cannot see a
//! power cut; a test-build log of fsyncs and renames pins the order
//! that guarantee rests on instead.) [`server`] wraps the index in a
//! `TcpListener` daemon (Linux only: one epoll reactor plus a bounded
//! worker pool) speaking the line protocol of [`protocol`]
//! (`HELLO` / `INGEST` / `BATCH INGEST` / `QUERY` / `MQUERY` / `STATS` /
//! `SAVE` / `SHUTDOWN` — specified in `docs/PROTOCOL.md`), and the
//! `kastio serve` / `kastio query` subcommands front it on the command
//! line. The daemon keeps live [`ServerMetrics`] (uptime, connections,
//! per-verb request counters, latency histograms). The [`metrics`]
//! module declares every `STATS` key and `METRICS` family once, typed
//! as a counter or a gauge, and renders both replies from that one
//! table, so a load harness like `kastio loadgen` can difference the
//! counters ([`metrics::is_counter`]) and correlate client-side latency
//! with server-side cache and snapshot behaviour.
//!
//! # Quickstart
//!
//! ```
//! use kastio_index::{IndexOptions, PatternIndex};
//! use kastio_trace::parse_trace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let index = PatternIndex::new(IndexOptions::default());
//! index.ingest("ckpt", "checkpoint", parse_trace(&"h0 write 1048576\n".repeat(32))?);
//! index.ingest("scan", "analysis", parse_trace(&"h0 read 4096\n".repeat(32))?);
//!
//! let result = index.query(&parse_trace(&"h0 write 1048576\n".repeat(24))?, 1);
//! assert_eq!(result.label.as_deref(), Some("checkpoint"));
//! # Ok(())
//! # }
//! ```

pub mod entry;
pub mod fault;
pub mod index;
pub mod lru;
pub mod metrics;
pub mod persist;
pub mod prefilter;
pub mod protocol;
mod runtime;
pub mod server;
pub mod signal;
pub mod wal;

pub use entry::{EntryId, IndexEntry};
pub use index::{
    IndexOptions, IndexStats, IngestError, Neighbor, PatternIndex, PreparedEntry, QueryResult,
    SnapshotStatus,
};
pub use kastio_trace::CorpusIoError;
pub use lru::{KernelCache, SharedKernelCache};
pub use persist::{
    load_index, save_index_if_changed_wal, save_index_wal, SnapshotInfo, Snapshotter,
};
pub use prefilter::PrefilterConfig;
pub use protocol::{
    decode_trace_inline, encode_trace_inline, parse_batch_ingest_item, parse_request, read_reply,
    Request, MAX_BATCH_ITEMS, PROTOCOL_VERBS, PROTOCOL_VERSION,
};
pub use server::{Server, ServerMetrics, ShutdownHandle};
pub use signal::{watch_termination, SignalWatcher, TermSignal};
pub use wal::WalManager;
