//! I/O trace model, plain-text trace format and a simulated POSIX I/O layer.
//!
//! This crate is the *substrate* of the kastio reproduction of Torres et al.,
//! "A Novel String Representation and Kernel Function for the Comparison of
//! I/O Access Patterns" (PaCT 2017). The paper consumes traces captured from
//! real parallel applications; everything downstream (tree construction,
//! weighted strings, kernels) only ever sees what this crate models — a
//! chronological sequence of operations, each carrying a file handle, an
//! operation name and a byte count.
//!
//! Three pieces live here:
//!
//! * [`Operation`] / [`Trace`] — the in-memory trace model ([`op`], [`trace`]).
//! * A plain-text trace format mirroring the paper's "plain text files where
//!   each line corresponds to an operation" ([`text`]).
//! * [`SimFs`] — a simulated POSIX file layer with open/read/write/lseek/close
//!   calls that records the trace of everything executed against it
//!   ([`simfs`]). The workload generators in `kastio-workloads` run their
//!   synthetic applications on top of it.
//! * [`ParallelTrace`] — per-rank traces of a parallel run and their merge
//!   into the single chronological stream the pipeline consumes
//!   ([`parallel`]).
//!
//! # Examples
//!
//! Recording a tiny application run and round-tripping it through the text
//! format:
//!
//! ```
//! use kastio_trace::{SimFs, text};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut fs = SimFs::new();
//! let fd = fs.open("data.bin")?;
//! fs.write(fd, 4096)?;
//! fs.write(fd, 4096)?;
//! fs.close(fd)?;
//!
//! let trace = fs.into_trace();
//! let rendered = text::write_trace(&trace);
//! let parsed = text::parse_trace(&rendered)?;
//! assert_eq!(trace, parsed);
//! # Ok(())
//! # }
//! ```

pub mod corpus;
pub mod op;
pub mod parallel;
pub mod signature;
pub mod simfs;
pub mod stats;
pub mod text;
pub mod trace;
pub mod wal;

pub use corpus::{
    load_manifest_trace, read_corpus, read_manifest, valid_entry_name, valid_entry_tag,
    write_corpus, CorpusEntry, CorpusIoError, ManifestEntry,
};
pub use op::{HandleId, OpKind, Operation};
pub use parallel::{HandleMerge, ParallelTrace};
pub use signature::{PatternSignature, SignatureConfig};
pub use simfs::{Fd, SeekWhence, SimFs, SimFsError};
pub use stats::TraceStats;
pub use text::{parse_trace, write_trace, ParseTraceError};
pub use trace::Trace;
pub use wal::{
    crc32, encode_wal_fields, encode_wal_record, scan_wal, snapshot_dir, snapshot_path, wal_dir,
    wal_log_path, WalRecord, WalScan, MAX_WAL_RECORD_BYTES, WAL_HEADER_BYTES,
};
