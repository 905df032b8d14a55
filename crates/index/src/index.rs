//! The in-memory pattern corpus index.
//!
//! [`PatternIndex`] amortises the batch pipeline (trace → pattern tree →
//! weighted string → interning → self-kernel) across queries: every
//! ingested trace is preprocessed exactly once, and a k-NN query against a
//! corpus of `n` entries costs one pipeline run for the query trace plus
//! full Kast kernel evaluations for only the prefiltered candidate subset
//! (minus whatever the LRU cache already knows).
//!
//! # One corpus, locked only to scan or append
//!
//! The corpus is one id-ordered vector of [`Arc`] entry handles plus a
//! signature column, under one `RwLock`: the entry with [`EntryId`] `i`
//! sits at position `i`. Every other mutable accelerator — the shared
//! [`TokenInterner`], the striped pairwise-kernel cache
//! ([`crate::lru::SharedKernelCache`]), the per-query self-kernel memo
//! and the work counters — sits behind interior mutability of its own,
//! so both [`PatternIndex::query`] and [`PatternIndex::ingest`] take
//! `&self`: any number of threads can share one index behind a plain
//! `Arc` with no external lock.
//!
//! A query read-locks the corpus only for the signature scan and leaves
//! with at most `budget` entry handles; cache lookups, scoring,
//! normalisation and ranking then run with no corpus lock held. An
//! ingest write-locks it only to push its finished entries, so it waits
//! for the scans in flight, never for whole queries.
//!
//! # Ingestion: prepare, then commit
//!
//! An ingest runs in two halves. [`PatternIndex::prepare_auto`]
//! validates, admits against the memory budget, interns, and computes
//! the self-kernel and signature. It takes no id and no corpus lock, so
//! the quadratic self-kernel of a large trace delays no other ingest.
//! [`PatternIndex::commit`] then allocates a contiguous id range, runs
//! the caller's log step on the finished entries and appends them to the
//! corpus, all under one mutex. Ids are thus given out in the order
//! entries are logged and appended: the write-ahead log is one file in
//! id order, the corpus is always the id prefix `0..len`, and a
//! `BATCH INGEST` is one prepare and one commit.
//!
//! # Exactness contract
//!
//! For every neighbour the index returns, the reported similarity is
//! **bit-identical** to calling [`KastKernel::normalized`] directly on the
//! same pair of interned strings — the index changes *which* pairs are
//! evaluated (prefilter) and *how often* (cache), never the arithmetic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use kastio_core::{
    ByteMode, IdString, KastKernel, KastOptions, Normalization, PatternPipeline, StringKernel,
    TokenId, TokenInterner,
};
use kastio_quota::{Account, MemoryQuota};
use kastio_trace::{valid_entry_name, valid_entry_tag, PatternSignature, SignatureConfig, Trace};

use crate::entry::{entry_footprint_bytes, EntryId, IndexEntry};
use crate::lru::SharedKernelCache;
use crate::prefilter::{select_candidates, PrefilterConfig};

/// Configuration of a [`PatternIndex`].
///
/// # Examples
///
/// ```
/// use kastio_index::IndexOptions;
///
/// let opts = IndexOptions::default();
/// assert_eq!(opts.kast.cut_weight, 2);
/// assert!(opts.prefilter.enabled);
/// assert_eq!(opts.cache_capacity, 4096);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// Kast kernel options (cut weight, cut rule, normalisation) applied to
    /// every pair the index evaluates.
    pub kast: KastOptions,
    /// Byte mode of the trace → string conversion.
    pub byte_mode: ByteMode,
    /// Windowing of the scalar signature used by the prefilter.
    pub signature: SignatureConfig,
    /// Candidate prefilter configuration.
    pub prefilter: PrefilterConfig,
    /// Total capacity of the index-wide pairwise kernel cache, in pairs
    /// (0 disables caching). The cache gets one lock stripe per 1,024
    /// pairs, up to 16.
    pub cache_capacity: usize,
    /// Ignored: the corpus is one vector under one lock. The field stays
    /// for callers that still set it.
    pub shards: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            kast: KastOptions::default(),
            byte_mode: ByteMode::Preserve,
            signature: SignatureConfig::default(),
            prefilter: PrefilterConfig::default(),
            cache_capacity: 4096,
            shards: 1,
        }
    }
}

/// Monotonic counters describing the work an index has done.
///
/// `kernel_evals` counts *query-time* pairwise Kast evaluations (cache
/// misses); self-kernels are reported separately — one per ingested trace
/// in `ingest_evals`, and one per *distinct* cosine query in
/// `query_self_evals` (repeats of a known query reuse the memoised
/// value). `kernel_evals + cache_hits` is the total number of
/// (query, entry) pairs scored, and `prefilter_pruned` the pairs never
/// scored at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Queries answered.
    pub queries: u64,
    /// Pairwise kernel evaluations performed while answering queries.
    pub kernel_evals: u64,
    /// Query pairs answered from the LRU cache.
    pub cache_hits: u64,
    /// Entries skipped by the signature prefilter, summed over queries.
    pub prefilter_pruned: u64,
    /// Self-kernel evaluations performed at ingestion.
    pub ingest_evals: u64,
    /// Self-kernel evaluations performed for (distinct) queries.
    pub query_self_evals: u64,
}

/// [`IndexStats`] as atomics, so concurrent queries can count work
/// without a lock.
#[derive(Debug, Default)]
struct SharedStats {
    queries: AtomicU64,
    kernel_evals: AtomicU64,
    cache_hits: AtomicU64,
    prefilter_pruned: AtomicU64,
    ingest_evals: AtomicU64,
    query_self_evals: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> IndexStats {
        IndexStats {
            queries: self.queries.load(Ordering::Relaxed),
            kernel_evals: self.kernel_evals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            prefilter_pruned: self.prefilter_pruned.load(Ordering::Relaxed),
            ingest_evals: self.ingest_evals.load(Ordering::Relaxed),
            query_self_evals: self.query_self_evals.load(Ordering::Relaxed),
        }
    }
}

/// Why an entry was rejected at ingestion: its name or label cannot
/// survive the persistence round trip (the whitespace-delimited
/// `<id> <name> <label>` header of a snapshot record, and `<name>.trace`
/// files plus a `<name> <label>` manifest line in a corpus directory), so
/// accepting it would poison every later [`crate::save_index_wal`] of the
/// whole corpus.
///
/// Validation happens *at ingest* — not at save time — so a `--save`
/// daemon can never accumulate an entry whose *format* makes its final
/// snapshot fail and lose everything else with it. The guarantee is
/// format-level: environmental limits (disk space, permissions, a trace
/// too large for one snapshot record) still surface at save time — loudly (wire `ERR`, `STATS` counters,
/// non-zero daemon exit) and with the previous snapshot left intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The entry name is empty, contains whitespace or a path separator,
    /// or starts with a dot (names become file names in a corpus
    /// directory).
    InvalidName(String),
    /// The label is empty or contains whitespace (snapshot record headers
    /// and manifest lines are whitespace-delimited).
    InvalidLabel(String),
    /// Admitting the entry would push the corpus past the attached memory
    /// budget (see [`PatternIndex::attach_quota`]). Transient, not a
    /// validation failure: the entry itself is fine, the index is full.
    /// The `Display` form is the wire shed message, so the serve daemon's
    /// generic `ERR {error}` rendering produces exactly
    /// `ERR busy reason=memory`.
    OverMemoryBudget,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::InvalidName(name) => write!(
                f,
                "entry name `{}` cannot be persisted \
                 (empty, whitespace, path separator or leading dot)",
                name.escape_debug()
            ),
            IngestError::InvalidLabel(label) => write!(
                f,
                "label `{}` cannot be persisted (empty or whitespace)",
                label.escape_debug()
            ),
            IngestError::OverMemoryBudget => write!(f, "busy reason=memory"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Health of the index's persistence, maintained by [`crate::save_index_wal`]
/// and read by the metric table ([`crate::metrics`]) for `STATS` and
/// `METRICS`.
///
/// `last_ok == None` means no snapshot has been attempted yet.
/// `last_generation`/`last_entries` describe the most recent *successful*
/// snapshot; comparing `last_generation` with [`PatternIndex::generation`]
/// tells whether the on-disk snapshot is current (the skip test
/// [`crate::save_index_if_changed_wal`] performs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotStatus {
    /// Successful snapshots so far.
    pub snapshots: u64,
    /// Failed snapshot attempts so far.
    pub errors: u64,
    /// Whether the most recent attempt succeeded (`None`: never tried).
    pub last_ok: Option<bool>,
    /// Corpus generation captured by the last successful snapshot.
    pub last_generation: u64,
    /// Entry count written by the last successful snapshot.
    pub last_entries: usize,
    /// Directory the last successful snapshot went to — the skip test
    /// compares it so a save to one directory never masks a needed save
    /// to another.
    pub last_dir: Option<std::path::PathBuf>,
    /// Wall-clock duration of the last *successful* snapshot write, in
    /// microseconds (0 until one succeeds) — makes `--snapshot-every`
    /// stalls visible through `STATS`/`METRICS`.
    pub last_duration_micros: u64,
    /// Bytes written by the last successful snapshot: the length of its
    /// snapshot file.
    pub last_bytes: u64,
    /// WAL records appended since startup. The live value sits on
    /// [`crate::WalManager`]; the metric table ([`crate::metrics`])
    /// overlays it into the copy it reads with
    /// [`crate::WalManager::overlay`]. 0 when the daemon runs without
    /// `--wal`.
    pub wal_records: u64,
    /// WAL bytes appended since startup (frames included). Overlaid like
    /// `wal_records`.
    pub wal_bytes: u64,
    /// WAL group-commit fsyncs since startup (one per group a leader
    /// fsyncs). Overlaid like `wal_records`.
    pub wal_fsyncs: u64,
    /// WAL records the last [`crate::load_index`] replayed on top of its
    /// base (the snapshot file, a legacy snapshot directory or a corpus
    /// directory); 0 when the root's logs held nothing past the base.
    /// Set at load time, not overlaid.
    pub last_replay_records: u64,
}

/// One returned neighbour of a k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The entry's id.
    pub id: EntryId,
    /// The entry's name.
    pub name: String,
    /// The entry's label.
    pub label: String,
    /// Normalised Kast similarity to the query — bit-identical to a direct
    /// [`KastKernel::normalized`] evaluation of the pair.
    pub similarity: f64,
}

/// Monotonic-clock spans measured inside one query, nanoseconds per
/// pipeline stage. Returned on every [`QueryResult`] so the serve
/// daemon can aggregate per-stage histograms and answer
/// `QUERY … trace=1` without a second timing pass; [`merge`] folds the
/// per-item timings of an `MQUERY` batch into one breakdown.
///
/// The stages are disjoint sub-intervals of the query's total wall
/// time, so their sum never exceeds it.
///
/// [`merge`]: QueryTimings::merge
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTimings {
    /// Signature prefilter: the scan under the corpus read lock, lock
    /// acquisition included, and the clone of the chosen entry handles.
    pub prefilter_ns: u64,
    /// Shared kernel-cache lookups plus the post-scoring cache fills.
    pub cache_ns: u64,
    /// Kernel scoring of the cache misses.
    pub kernel_ns: u64,
}

impl QueryTimings {
    /// Accumulates another query's spans into this one.
    pub fn merge(&mut self, other: &QueryTimings) {
        self.prefilter_ns += other.prefilter_ns;
        self.cache_ns += other.cache_ns;
        self.kernel_ns += other.kernel_ns;
    }
}

/// The result of one k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Up to `k` nearest entries, descending by similarity (ties broken by
    /// ingestion order, so results are deterministic).
    pub neighbors: Vec<Neighbor>,
    /// Majority-vote label over the returned neighbours; ties are broken
    /// by summed similarity, then lexicographically. `None` on an empty
    /// corpus.
    pub label: Option<String>,
    /// Candidates that survived the prefilter for this query.
    pub candidates: usize,
    /// Full kernel evaluations this query performed (cache misses).
    pub evaluated: usize,
    /// Pairs this query answered from the cache.
    pub cache_hits: usize,
    /// Per-stage monotonic-clock spans measured while answering.
    pub timings: QueryTimings,
}

/// The corpus: the entry with id `i` sits at position `i` of both
/// columns. Only [`PatternIndex::commit`] mutates it, by appending.
#[derive(Debug, Default)]
struct Corpus {
    entries: Vec<Arc<IndexEntry>>,
    signatures: Vec<PatternSignature>,
}

/// An ingest that is validated, admitted and preprocessed but has no id
/// yet: the output of [`PatternIndex::prepare_auto`], which
/// [`PatternIndex::commit`] turns into a corpus entry. Its footprint is
/// already charged to the memory budget, so it is meant to be committed.
///
/// The commit sets the entry's id and, for an auto-named entry, its name,
/// which is empty until then (no valid name is empty).
#[derive(Debug)]
pub struct PreparedEntry(IndexEntry);

/// The online pattern corpus index.
///
/// All methods take `&self`: the index is internally synchronised (see the
/// [module docs](crate::index) for the locking model), so a
/// multi-threaded server shares it behind a plain `Arc` with no external
/// lock, queries running concurrently with each other and with ingests.
///
/// # Examples
///
/// ```
/// use kastio_index::{IndexOptions, PatternIndex};
/// use kastio_trace::parse_trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let index = PatternIndex::new(IndexOptions::default());
/// let writes = parse_trace(&"h0 write 1048576\n".repeat(32))?;
/// let reads = parse_trace(&"h0 read 4096\n".repeat(32))?;
/// index.ingest("ckpt", "checkpoint", writes.clone())?;
/// index.ingest("scan", "analysis", reads)?;
///
/// let result = index.query(&writes, 1);
/// assert_eq!(result.neighbors[0].name, "ckpt");
/// assert_eq!(result.label.as_deref(), Some("checkpoint"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PatternIndex {
    opts: IndexOptions,
    pipeline: PatternPipeline,
    kernel: KastKernel,
    interner: Mutex<TokenInterner>,
    /// Read-locked by a query's scan, write-locked by a commit's append.
    corpus: RwLock<Corpus>,
    /// The index-wide pairwise kernel cache.
    cache: Arc<SharedKernelCache>,
    /// Byte account the resident corpus is charged against. Unset until
    /// [`PatternIndex::attach_quota`] — an unattached index does no
    /// memory admission at all.
    corpus_account: OnceLock<Account>,
    /// Report-only account carrying the interner's heap footprint —
    /// interned tokens are never evicted, so the bytes are visible to
    /// the quota (and to `STATS`) but are not a reclaim source.
    /// `interner_charged` remembers the bytes charged so far, so each
    /// intern batch charges only its growth.
    interner_account: OnceLock<Account>,
    interner_charged: AtomicU64,
    /// Report-only account carrying the query registry's memoised
    /// entries; released wholesale when the registry resets.
    registry_account: OnceLock<Account>,
    /// The next id to give out. Held by [`PatternIndex::commit`] while it
    /// allocates ids, logs the entries and appends them, so log order and
    /// corpus order are both id order.
    next_id: Mutex<u32>,
    queries: Mutex<QueryRegistry>,
    stats: SharedStats,
    /// Snapshot health. Locked only for brief reads/updates, so `STATS`
    /// never waits on a save's disk I/O.
    snapshot: Mutex<SnapshotStatus>,
    /// Serialises whole saves (periodic snapshotter vs `SAVE` vs
    /// shutdown) so their writes and compactions cannot interleave. Separate
    /// from the status mutex above on purpose.
    save_lock: Mutex<()>,
}

/// Full-content identity of a query string: its exact id and weight
/// vectors. Used instead of a content *hash* so two distinct queries can
/// never alias a cache entry — a collision would silently serve the wrong
/// kernel value and break the bit-identical contract.
type QueryKey = (Vec<TokenId>, Vec<u64>);

/// What the index remembers about a distinct query: its dense id (the
/// query half of pair-cache keys) and its memoised self-kernel.
#[derive(Debug, Clone, Copy)]
struct QueryInfo {
    id: u64,
    self_kernel: Option<f64>,
}

/// Maps distinct query strings to [`QueryInfo`]. Bounded: when it
/// outgrows its capacity it resets together with the shared pair cache
/// (the dense ids keep increasing, so even a racy mix of old and new
/// entries could not alias — the reset just keeps memory flat).
#[derive(Debug, Default)]
struct QueryRegistry {
    map: HashMap<QueryKey, QueryInfo>,
    next_id: u64,
}

/// Approximate bytes one memoised registry entry keeps alive: the cloned
/// key vectors plus the map entry itself. Charged to the report-only
/// `query-registry` account on insert and released in bulk on reset.
fn registry_entry_bytes(key: &QueryKey) -> u64 {
    (std::mem::size_of::<(QueryKey, QueryInfo)>()
        + key.0.len() * std::mem::size_of::<TokenId>()
        + key.1.len() * std::mem::size_of::<u64>()) as u64
}

impl PatternIndex {
    /// Creates an empty index.
    pub fn new(opts: IndexOptions) -> Self {
        PatternIndex {
            opts,
            pipeline: PatternPipeline::new(opts.byte_mode),
            kernel: KastKernel::new(opts.kast),
            interner: Mutex::new(TokenInterner::new()),
            corpus: RwLock::new(Corpus::default()),
            cache: Arc::new(SharedKernelCache::new(opts.cache_capacity)),
            corpus_account: OnceLock::new(),
            interner_account: OnceLock::new(),
            interner_charged: AtomicU64::new(0),
            registry_account: OnceLock::new(),
            next_id: Mutex::new(0),
            queries: Mutex::new(QueryRegistry::default()),
            stats: SharedStats::default(),
            snapshot: Mutex::new(SnapshotStatus::default()),
            save_lock: Mutex::new(()),
        }
    }

    /// The index configuration.
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    /// Number of ingested entries.
    pub fn len(&self) -> usize {
        self.read_corpus().entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the ingested entries in ingestion (id) order.
    ///
    /// The handles are cloned under the corpus lock and the entries
    /// copied outside it, so the snapshot is self-contained: it stays
    /// valid while other threads keep ingesting.
    pub fn entries(&self) -> Vec<IndexEntry> {
        self.handles().iter().map(|entry| IndexEntry::clone(entry)).collect()
    }

    /// The corpus as shared handles in id order: the ids `0..len`, with
    /// no entry copied.
    pub(crate) fn handles(&self) -> Vec<Arc<IndexEntry>> {
        self.read_corpus().entries.clone()
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> IndexStats {
        self.stats.snapshot()
    }

    /// The corpus generation: the number of committed entries, which is
    /// [`PatternIndex::len`]. The corpus only grows, so an unchanged
    /// generation means an unchanged corpus: the skip test periodic
    /// snapshots use ("unchanged since the last save?") compares it with
    /// [`SnapshotStatus::last_generation`].
    pub fn generation(&self) -> u64 {
        self.len() as u64
    }

    /// Snapshot health: attempt counters and what the last successful
    /// snapshot covered. Maintained by [`crate::save_index_wal`]. Never
    /// blocks on an in-flight save (the status has its own short-lived
    /// lock), so `STATS` stays responsive while a snapshot writes.
    pub fn snapshot_status(&self) -> SnapshotStatus {
        self.lock_snapshot().clone()
    }

    /// The snapshot-status lock. Held only for brief reads and updates —
    /// never across disk I/O.
    pub(crate) fn lock_snapshot(&self) -> MutexGuard<'_, SnapshotStatus> {
        self.snapshot.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The save serialisation lock: [`crate::save_index_wal`] holds it
    /// for the whole write, rename and compaction, so two concurrent
    /// saves cannot interleave.
    pub(crate) fn lock_save(&self) -> MutexGuard<'_, ()> {
        self.save_lock.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of pairs currently held by the shared kernel cache.
    pub fn cached_pairs(&self) -> usize {
        self.cache.len()
    }

    /// Wires the index into a memory budget: charges the resident corpus
    /// to a `corpus` account, the kernel cache to a `cache` account, and
    /// registers the cache as the budget's reclaim target (under
    /// pressure the quota clears it, the cheapest memory the index can
    /// give back). After attachment every ingest is *admission
    /// controlled*: an entry whose footprint no longer fits is refused
    /// with [`IngestError::OverMemoryBudget`] instead of growing past
    /// the budget.
    ///
    /// Entries already resident (a corpus preloaded before attachment)
    /// are charged unconditionally — a corpus bigger than the budget
    /// still loads, it just sheds all further ingests.
    ///
    /// At most one attachment sticks; later calls are ignored.
    pub fn attach_quota(&self, quota: &MemoryQuota) {
        let corpus = quota.account("corpus");
        let preloaded: u64 = self
            .read_corpus()
            .entries
            .iter()
            .map(|e| entry_footprint_bytes(&e.name, &e.label, &e.trace))
            .sum();
        if self.corpus_account.set(corpus).is_err() {
            return;
        }
        if preloaded > 0 {
            if let Some(account) = self.corpus_account.get() {
                account.charge(preloaded);
            }
        }
        self.cache.attach_account(quota.account("cache"));
        let cache = Arc::downgrade(&self.cache);
        quota.set_reclaimer("cache", move |_wanted| {
            cache.upgrade().map_or(0, |cache| cache.clear())
        });
        // Unreclaimable side: the interner and the query registry hold
        // memory the index can never give back, so they are charged to
        // report-only accounts — counted in the root total (and the
        // `mem_unreclaimable_bytes` gauge) but never a reclaim source.
        let interner = quota.report_account("interner");
        let preinterned = self.lock_interner().approx_bytes() as u64;
        if preinterned > 0 {
            interner.charge(preinterned);
        }
        self.interner_charged.store(preinterned, Ordering::Relaxed);
        let _ = self.interner_account.set(interner);
        let _ = self.registry_account.set(quota.report_account("query-registry"));
    }

    /// Runs the trace → weighted string pipeline and interns the result
    /// with the index's shared interner, making the returned string
    /// comparable with every indexed entry (see the [`TokenInterner`]
    /// same-interner invariant).
    pub fn intern_trace(&self, trace: &Trace) -> IdString {
        let string = self.pipeline.string_of_trace(trace);
        let mut interner = self.lock_interner();
        let ids = interner.intern_string(&string);
        if let Some(account) = self.interner_account.get() {
            // Charge the growth while still holding the interner lock, so
            // concurrent interns each account exactly their own delta.
            let now = interner.approx_bytes() as u64;
            let before = self.interner_charged.swap(now, Ordering::Relaxed);
            account.charge(now.saturating_sub(before));
        }
        ids
    }

    fn lock_interner(&self) -> MutexGuard<'_, TokenInterner> {
        self.interner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The kernel the index evaluates (for direct cross-checks).
    pub fn kernel(&self) -> &KastKernel {
        &self.kernel
    }

    /// Ingests one labelled trace, running the full preprocessing pipeline
    /// once: pattern string, interning, self-kernel, cut mass, signature.
    /// The corpus is write-locked only for the final append, which waits
    /// for the signature scans in flight, not for whole queries.
    ///
    /// Names should be unique within an index — a corpus-directory
    /// export writes one file per name, and later duplicates overwrite
    /// earlier ones there.
    ///
    /// # Errors
    ///
    /// [`IngestError`] when the name or label could not survive the
    /// persistence round trip (whitespace, path separators, …); rejecting
    /// such entries *here* keeps every later [`crate::save_index_wal`] of the
    /// corpus saveable. With a quota attached,
    /// [`IngestError::OverMemoryBudget`] when the entry's footprint no
    /// longer fits the budget. Validation and admission both happen
    /// before any id is allocated, so a rejected ingest leaves no gap in
    /// the id sequence.
    ///
    /// # Examples
    ///
    /// ```
    /// use kastio_index::{IndexOptions, PatternIndex};
    /// use kastio_trace::parse_trace;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let index = PatternIndex::new(IndexOptions::default());
    /// let id = index.ingest("ckpt", "checkpoint", parse_trace("h0 write 64\n")?)?;
    /// assert_eq!(id.0, 0);
    /// assert_eq!(index.len(), 1);
    /// assert!(index.ingest("bad name", "checkpoint", parse_trace("h0 write 64\n")?).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn ingest(
        &self,
        name: impl Into<String>,
        label: impl Into<String>,
        trace: Trace,
    ) -> Result<EntryId, IngestError> {
        let prepared = self.prepare(vec![(Some(name.into()), label.into(), trace)])?;
        Ok(self.commit(prepared, |_| ()).0)
    }

    /// [`PatternIndex::ingest`] with the name derived from the allocated
    /// id (`e<id>`), for callers — like the serve daemon — that do not
    /// name entries themselves. Unlike naming by [`PatternIndex::len`],
    /// this is race-free under concurrent ingestion: the id is unique by
    /// construction (and always persistence-safe, so only the label is
    /// validated).
    ///
    /// # Errors
    ///
    /// As [`PatternIndex::prepare_auto`].
    pub fn ingest_auto(
        &self,
        label: impl Into<String>,
        trace: Trace,
    ) -> Result<EntryId, IngestError> {
        let prepared = self.prepare_auto(vec![(label.into(), trace)])?;
        Ok(self.commit(prepared, |_| ()).0)
    }

    /// The first half of an ingest, for items that are named `e<id>` once
    /// [`PatternIndex::commit`] gives them ids: validates every label,
    /// admits the items' summed footprint against the memory budget in
    /// one charge, then runs the preprocessing pipeline on each. It takes
    /// no id and no corpus lock, so any number of prepares run in
    /// parallel with each other, with queries and with commits.
    ///
    /// # Errors
    ///
    /// [`IngestError::InvalidLabel`] for the first label that could not
    /// survive the persistence round trip, and, with a quota attached,
    /// [`IngestError::OverMemoryBudget`] when the items do not all fit.
    /// Either way nothing is charged, prepared or ingested.
    pub fn prepare_auto(
        &self,
        items: Vec<(String, Trace)>,
    ) -> Result<Vec<PreparedEntry>, IngestError> {
        self.prepare(items.into_iter().map(|(label, trace)| (None, label, trace)).collect())
    }

    /// [`PatternIndex::prepare_auto`] for items that may carry a name.
    fn prepare(
        &self,
        items: Vec<(Option<String>, String, Trace)>,
    ) -> Result<Vec<PreparedEntry>, IngestError> {
        for (name, label, _) in &items {
            if let Some(name) = name.as_ref().filter(|name| !valid_entry_name(name)) {
                return Err(IngestError::InvalidName(name.clone()));
            }
            if !valid_entry_tag(label) {
                return Err(IngestError::InvalidLabel(label.clone()));
            }
        }
        if let Some(account) = self.corpus_account.get() {
            // An auto-named entry is estimated with the widest name an id
            // can render to ("e" + u32), so the charge never depends on
            // the id. `try_charge` reclaims (clears the kernel cache)
            // before refusing, so a refusal means the corpus truly cannot
            // grow.
            let footprint = items
                .iter()
                .map(|(name, label, trace)| {
                    entry_footprint_bytes(name.as_deref().unwrap_or("e4294967295"), label, trace)
                })
                .sum();
            if !account.try_charge(footprint) {
                return Err(IngestError::OverMemoryBudget);
            }
        }
        Ok(items
            .into_iter()
            .map(|(name, label, trace)| {
                let string = self.intern_trace(&trace);
                let self_kernel = self.kernel.raw(&string, &string);
                self.stats.ingest_evals.fetch_add(1, Ordering::Relaxed);
                PreparedEntry(IndexEntry {
                    id: EntryId(0),
                    name: name.unwrap_or_default(),
                    label,
                    signature: PatternSignature::of(&trace, self.opts.signature),
                    cut_mass: string.weight_at_least(self.opts.kast.cut_weight),
                    trace,
                    string,
                    self_kernel,
                })
            })
            .collect())
    }

    /// The second half of an ingest: gives `prepared` the next
    /// contiguous id range and appends the entries to the corpus. Returns
    /// the first id and what `log` returned.
    ///
    /// The ids are allocated, `log` runs on the finished entries and the
    /// entries are appended, all under one mutex, so whatever `log`
    /// records is recorded in id order and the corpus stays the id prefix
    /// `0..len`: the serve daemon appends one WAL record per entry there.
    /// Lock order: this mutex, then whatever `log` locks, then the corpus
    /// write lock, which waits only for the signature scans in flight. No
    /// code path takes this mutex while holding the corpus lock.
    ///
    /// The append happens whatever `log` returned: an entry left out
    /// would be an id gap in the corpus.
    pub fn commit<T>(
        &self,
        prepared: Vec<PreparedEntry>,
        log: impl FnOnce(&[IndexEntry]) -> T,
    ) -> (EntryId, T) {
        let mut next_id = self.next_id.lock().unwrap_or_else(|p| p.into_inner());
        let first = *next_id;
        let entries: Vec<IndexEntry> = prepared
            .into_iter()
            .zip(first..)
            .map(|(PreparedEntry(mut entry), id)| {
                entry.id = EntryId(id);
                if entry.name.is_empty() {
                    entry.name = entry.id.to_string();
                }
                entry
            })
            .collect();
        *next_id += u32::try_from(entries.len()).expect("a commit holds fewer than 2^32 entries");
        let logged = log(&entries);
        let handles: Vec<Arc<IndexEntry>> = entries.into_iter().map(Arc::new).collect();
        let mut corpus = self.write_corpus();
        corpus.signatures.extend(handles.iter().map(|entry| entry.signature));
        corpus.entries.extend(handles);
        (EntryId(first), logged)
    }

    /// Answers a k-NN query: the up-to-`k` most similar corpus entries and
    /// the majority-vote label.
    ///
    /// Pipeline: convert + intern the query once, prefilter the corpus by
    /// signature distance, serve cached pairs from the shared kernel
    /// cache, score the remaining candidates and rank — all on the calling
    /// thread. Only the prefilter scan holds the corpus *read* lock, so
    /// any number of queries run concurrently, and an ingest waits for
    /// scans, never for scoring.
    ///
    /// # Examples
    ///
    /// ```
    /// use kastio_index::{IndexOptions, PatternIndex};
    /// use kastio_trace::parse_trace;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let index = PatternIndex::new(IndexOptions::default());
    /// index.ingest("ckpt", "checkpoint", parse_trace(&"h0 write 1048576\n".repeat(16))?);
    /// index.ingest("scan", "analysis", parse_trace(&"h0 read 4096\n".repeat(16))?);
    ///
    /// let result = index.query(&parse_trace(&"h0 read 4096\n".repeat(12))?, 1);
    /// assert_eq!(result.neighbors.len(), 1);
    /// assert_eq!(result.label.as_deref(), Some("analysis"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn query(&self, trace: &Trace, k: usize) -> QueryResult {
        let query_string = self.intern_trace(trace);
        let query_signature = PatternSignature::of(trace, self.opts.signature);
        self.query_interned(&query_string, &query_signature, k)
    }

    /// Answers one query per trace, in order, on the calling thread; this
    /// is the library half of the wire protocol's `MQUERY` batching,
    /// which amortises framing and round-trips rather than computation.
    pub fn query_batch(&self, traces: &[Trace], k: usize) -> Vec<QueryResult> {
        traces.iter().map(|trace| self.query(trace, k)).collect()
    }

    /// [`PatternIndex::query`] for a query that is already converted and
    /// interned (by [`PatternIndex::intern_trace`]) with its signature.
    pub fn query_interned(
        &self,
        query: &IdString,
        signature: &PatternSignature,
        k: usize,
    ) -> QueryResult {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);

        // Resolve the query's exact identity (and memoised self-kernel)
        // before taking the corpus lock. Lock order: the registry mutex
        // may be acquired *before* the corpus lock and cache stripe locks
        // (its reset path clears the shared cache while holding it),
        // never after — no code path may take the registry while holding
        // the corpus lock or a cache stripe, or the order would cycle.
        let (query_key, query_self) = self.query_identity(query);

        let mut timings = QueryTimings::default();

        // The only corpus lock a query takes: the scan, then a clone of
        // the handles it chose. Position equals id, so the prefilter's
        // tie-break by position is a tie-break by id.
        let stage = Instant::now();
        let (total, candidates) = {
            let corpus = self.read_corpus();
            let total = corpus.entries.len();
            let budget = self.opts.prefilter.budget_for(k, total);
            let candidates: Vec<Arc<IndexEntry>> = if budget >= total {
                corpus.entries.clone()
            } else {
                select_candidates(signature, &corpus.signatures, budget)
                    .into_iter()
                    .map(|pos| Arc::clone(&corpus.entries[pos]))
                    .collect()
            };
            (total, candidates)
        };
        timings.prefilter_ns = span_ns(stage);
        #[cfg(test)]
        tests::park_after_scan();
        self.stats.prefilter_pruned.fetch_add((total - candidates.len()) as u64, Ordering::Relaxed);

        // Serve what the shared kernel cache already knows; collect the
        // rest. The cache is keyed by (query, entry id).
        let stage = Instant::now();
        let mut raw_values: Vec<(&IndexEntry, f64)> = Vec::with_capacity(candidates.len());
        let mut misses: Vec<&IndexEntry> = Vec::new();
        for entry in &candidates {
            match self.cache.get((query_key, entry.id.0)) {
                Some(value) => raw_values.push((entry, value)),
                None => misses.push(entry),
            }
        }
        timings.cache_ns += span_ns(stage);
        let cache_hits = raw_values.len();
        let evaluated = misses.len();
        self.stats.cache_hits.fetch_add(cache_hits as u64, Ordering::Relaxed);
        self.stats.kernel_evals.fetch_add(evaluated as u64, Ordering::Relaxed);

        // Score the misses on the calling thread. `KastKernel::raw` keeps
        // per-*thread* scratch buffers, which stay warm across queries on
        // the serve daemon's persistent workers.
        let stage = Instant::now();
        let scored: Vec<(&IndexEntry, f64)> = misses
            .into_iter()
            .map(|entry| (entry, self.kernel.raw(query, &entry.string)))
            .collect();
        timings.kernel_ns = span_ns(stage);
        let stage = Instant::now();
        for &(entry, value) in &scored {
            self.cache.insert((query_key, entry.id.0), value);
        }
        timings.cache_ns += span_ns(stage);
        raw_values.extend(scored);

        // Normalise with the precomputed denominators, replicating
        // `KastKernel::normalized(query, entry)` bit for bit.
        let query_mass = query.weight_at_least(self.opts.kast.cut_weight);
        let mut neighbors: Vec<Neighbor> = raw_values
            .into_iter()
            .map(|(entry, kab)| {
                let similarity = match self.opts.kast.normalization {
                    Normalization::Cosine => {
                        if kab == 0.0 || query_self <= 0.0 || entry.self_kernel <= 0.0 {
                            0.0
                        } else {
                            kab / (query_self * entry.self_kernel).sqrt()
                        }
                    }
                    Normalization::WeightProduct => {
                        let denom = query_mass as f64 * entry.cut_mass as f64;
                        if denom <= 0.0 {
                            0.0
                        } else {
                            kab / denom
                        }
                    }
                };
                Neighbor {
                    id: entry.id,
                    name: entry.name.clone(),
                    label: entry.label.clone(),
                    similarity,
                }
            })
            .collect();
        neighbors.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        neighbors.truncate(k);
        let label = majority_label(&neighbors);
        QueryResult {
            neighbors,
            label,
            candidates: candidates.len(),
            evaluated,
            cache_hits,
            timings,
        }
    }

    /// Resolves the query half of pair-cache keys (a dense id assigned to
    /// the exact string content — never a hash, so distinct queries can
    /// never alias) and the query self-kernel, memoised per distinct
    /// query so repeated queries skip the quadratic `raw(q, q)`.
    ///
    /// The registry mutex is *not* held while the self-kernel is computed
    /// — a concurrent identical query may race to compute the same value,
    /// which is benign (the kernel is deterministic, so both arrive at the
    /// same bits) and keeps a slow first-time query from serialising every
    /// other query behind the registry lock.
    ///
    /// With caching disabled (`cache_capacity == 0`) nothing is
    /// remembered: the self-kernel is recomputed per query, matching the
    /// uncached pair path.
    fn query_identity(&self, query: &IdString) -> (u64, f64) {
        let need_self = self.opts.kast.normalization == Normalization::Cosine;
        let compute_self = || {
            self.stats.query_self_evals.fetch_add(1, Ordering::Relaxed);
            self.kernel.raw(query, query)
        };
        if self.opts.cache_capacity == 0 {
            let query_self = if need_self { compute_self() } else { 0.0 };
            return (0, query_self);
        }
        let key: QueryKey = (query.ids().to_vec(), query.weights().to_vec());
        let id = {
            let mut registry = self.lock_registry();
            // Bound the registry by the cache capacity: past it, reset it
            // together with the shared pair cache (the cache is keyed by
            // these ids, so they retire together).
            if registry.map.len() >= self.opts.cache_capacity && !registry.map.contains_key(&key) {
                registry.map.clear();
                self.cache.clear();
                if let Some(account) = self.registry_account.get() {
                    // The reset frees every memoised entry at once; the
                    // account only ever holds registry bytes, so its own
                    // balance is exactly what to give back.
                    account.release(account.used());
                }
            }
            let QueryRegistry { map, next_id } = &mut *registry;
            let fresh_id = *next_id;
            let info =
                map.entry(key.clone()).or_insert(QueryInfo { id: fresh_id, self_kernel: None });
            if info.id == fresh_id {
                *next_id += 1;
                if let Some(account) = self.registry_account.get() {
                    account.charge(registry_entry_bytes(&key));
                }
            }
            if !need_self {
                return (info.id, 0.0);
            }
            if let Some(value) = info.self_kernel {
                return (info.id, value);
            }
            info.id
        };
        // Compute outside the lock, then publish.
        let value = compute_self();
        let mut registry = self.lock_registry();
        if let Some(info) = registry.map.get_mut(&key) {
            info.self_kernel = Some(value);
        }
        (id, value)
    }

    fn lock_registry(&self) -> MutexGuard<'_, QueryRegistry> {
        self.queries.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn read_corpus(&self) -> RwLockReadGuard<'_, Corpus> {
        // Readers only scan and clone handles, and a writer only extends
        // both columns with finished entries, which cannot panic short of
        // an allocation failure (an abort): a poisoned lock still guards
        // equal-length columns and is safe to reuse.
        self.corpus.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_corpus(&self) -> RwLockWriteGuard<'_, Corpus> {
        self.corpus.write().unwrap_or_else(|p| p.into_inner())
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX` (a span that
/// long means the clock is broken anyway).
fn span_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn majority_label(neighbors: &[Neighbor]) -> Option<String> {
    let mut tally: Vec<(&str, usize, f64)> = Vec::new();
    for n in neighbors {
        match tally.iter_mut().find(|(label, _, _)| *label == n.label) {
            Some((_, votes, mass)) => {
                *votes += 1;
                *mass += n.similarity;
            }
            None => tally.push((&n.label, 1, n.similarity)),
        }
    }
    tally
        .into_iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1)
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
                .then(b.0.cmp(a.0))
        })
        .map(|(label, _, _)| label.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_trace::parse_trace;
    use std::cell::RefCell;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A parking spot for one query: reports "parked", then waits for
    /// "release".
    type Park = (mpsc::Sender<()>, mpsc::Receiver<()>);

    thread_local! {
        /// Set on a querying thread to park its next query right after
        /// the signature scan, with the corpus lock released.
        static PARK_AFTER_SCAN: RefCell<Option<Park>> = const { RefCell::new(None) };
    }

    /// The hook `query_interned` calls after its scan: parks the thread
    /// if [`PARK_AFTER_SCAN`] asks for it, and returns at once otherwise.
    pub(super) fn park_after_scan() {
        if let Some((parked, release)) = PARK_AFTER_SCAN.with(RefCell::take) {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
    }

    fn checkpoint(blocks: usize) -> Trace {
        parse_trace(&"h0 write 1048576\n".repeat(blocks)).unwrap()
    }

    fn scan(blocks: usize) -> Trace {
        parse_trace(&"h0 read 4096\nh0 lseek 0\n".repeat(blocks)).unwrap()
    }

    fn small_index() -> PatternIndex {
        let index = PatternIndex::new(IndexOptions::default());
        for i in 0..4 {
            index.ingest(format!("w{i}"), "write-heavy", checkpoint(16 + i)).unwrap();
            index.ingest(format!("r{i}"), "read-heavy", scan(16 + i)).unwrap();
        }
        index
    }

    #[test]
    fn nearest_neighbor_is_exact() {
        let index = small_index();
        let result = index.query(&checkpoint(16), 3);
        assert_eq!(result.neighbors.len(), 3);
        assert_eq!(result.neighbors[0].name, "w0");
        assert!((result.neighbors[0].similarity - 1.0).abs() < 1e-12);
        assert_eq!(result.label.as_deref(), Some("write-heavy"));
    }

    #[test]
    fn similarity_matches_direct_kernel_evaluation_bitwise() {
        let index = small_index();
        let query_trace = checkpoint(40);
        let query = index.intern_trace(&query_trace);
        let direct: Vec<(String, f64)> = index
            .entries()
            .iter()
            .map(|e| (e.name.clone(), index.kernel().normalized(&query, &e.string)))
            .collect();
        let result = index.query(&query_trace, index.len());
        for n in &result.neighbors {
            let (_, expected) =
                direct.iter().find(|(name, _)| *name == n.name).expect("entry known");
            assert_eq!(
                n.similarity.to_bits(),
                expected.to_bits(),
                "{}: index similarity must be bit-identical to direct evaluation",
                n.name
            );
        }
    }

    #[test]
    fn prefilter_reduces_kernel_evaluations() {
        let index = PatternIndex::new(IndexOptions {
            prefilter: PrefilterConfig { enabled: true, min_candidates: 2, per_k: 1 },
            ..IndexOptions::default()
        });
        for i in 0..6 {
            index.ingest(format!("w{i}"), "w", checkpoint(12 + i)).unwrap();
            index.ingest(format!("r{i}"), "r", scan(12 + i)).unwrap();
        }
        let result = index.query(&checkpoint(12), 1);
        assert_eq!(result.candidates, 2);
        assert_eq!(result.evaluated, 2);
        assert_eq!(index.stats().prefilter_pruned, 10);
        // The signature space separates the two families, so the true
        // nearest neighbour survives the aggressive budget.
        assert_eq!(result.neighbors[0].name, "w0");
    }

    #[test]
    fn repeated_query_is_served_from_cache() {
        let index = small_index();
        let first = index.query(&scan(20), 4);
        assert!(first.evaluated > 0);
        assert_eq!(first.cache_hits, 0);
        let second = index.query(&scan(20), 4);
        assert_eq!(second.evaluated, 0, "all pairs cached");
        assert_eq!(second.cache_hits, first.evaluated + first.cache_hits);
        assert_eq!(first.neighbors, second.neighbors);
        let stats = index.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.kernel_evals, first.evaluated as u64);
        assert_eq!(stats.query_self_evals, 1, "repeat query reuses the memoised self-kernel");
    }

    #[test]
    fn cache_capacity_zero_always_reevaluates() {
        let index =
            PatternIndex::new(IndexOptions { cache_capacity: 0, ..IndexOptions::default() });
        index.ingest("w", "w", checkpoint(8)).unwrap();
        let a = index.query(&checkpoint(8), 1);
        let b = index.query(&checkpoint(8), 1);
        assert_eq!(a.evaluated, 1);
        assert_eq!(b.evaluated, 1);
        assert_eq!(b.cache_hits, 0);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(
            index.stats().query_self_evals,
            2,
            "no caching → the self-kernel is recomputed per query"
        );
    }

    #[test]
    fn query_registry_reset_preserves_correctness() {
        // Capacity 2: the third distinct query forces a registry + cache
        // reset; results must stay identical to an unbounded index.
        let bounded =
            PatternIndex::new(IndexOptions { cache_capacity: 2, ..IndexOptions::default() });
        let unbounded = PatternIndex::new(IndexOptions::default());
        for i in 0..3 {
            bounded.ingest(format!("w{i}"), "w", checkpoint(8 + i)).unwrap();
            unbounded.ingest(format!("w{i}"), "w", checkpoint(8 + i)).unwrap();
        }
        let probes =
            [checkpoint(10), scan(10), checkpoint(20), checkpoint(10), scan(10), checkpoint(20)];
        for probe in &probes {
            let a = bounded.query(probe, 3);
            let b = unbounded.query(probe, 3);
            assert_eq!(a.neighbors, b.neighbors);
            assert_eq!(a.label, b.label);
        }
        assert!(
            bounded.stats().query_self_evals > unbounded.stats().query_self_evals,
            "the reset forgot some memoised self-kernels (bounded {} vs unbounded {})",
            bounded.stats().query_self_evals,
            unbounded.stats().query_self_evals
        );
    }

    #[test]
    fn memory_admission_sheds_ingests_once_the_budget_is_full() {
        let quota = MemoryQuota::new(Some(4096));
        let index = PatternIndex::new(IndexOptions::default());
        index.attach_quota(&quota);
        let mut admitted = 0usize;
        let mut shed = false;
        for i in 0..64 {
            match index.ingest(format!("w{i}"), "w", checkpoint(16)) {
                Ok(_) => admitted += 1,
                Err(IngestError::OverMemoryBudget) => {
                    shed = true;
                    break;
                }
                Err(other) => panic!("unexpected ingest error: {other}"),
            }
        }
        assert!(shed, "a 4 KiB budget must fill up");
        assert!(admitted >= 1, "the first entry fits");
        assert_eq!(index.len(), admitted, "a refused ingest leaves no entry and no id gap");
        assert!(quota.used() <= 4096, "admission never exceeds the limit");
        // The index still answers queries after shedding.
        let result = index.query(&checkpoint(16), 1);
        assert_eq!(result.neighbors.len(), 1);
        // The next id is contiguous with the admitted entries.
        assert_eq!(index.entries().last().unwrap().id.0 as usize, admitted - 1);
    }

    #[test]
    fn a_refused_batch_charges_nothing_and_consumes_no_id() {
        let quota = MemoryQuota::new(Some(4096));
        let index = PatternIndex::new(IndexOptions::default());
        index.attach_quota(&quota);
        index.ingest_auto("w", checkpoint(4)).unwrap();
        let used = quota.used();
        // About 1.3 KiB of footprint each: one fits, three together do not.
        let items = vec![("w".to_string(), checkpoint(24)); 3];
        assert!(matches!(index.prepare_auto(items), Err(IngestError::OverMemoryBudget)));
        assert_eq!(quota.used(), used, "nothing is charged");
        assert_eq!(index.len(), 1);
        assert_eq!(index.ingest_auto("w", checkpoint(24)).unwrap(), EntryId(1), "no id consumed");
    }

    #[test]
    fn commit_logs_in_id_order_and_inserts_whatever_the_log_returns() {
        let index = PatternIndex::new(IndexOptions::default());
        index.ingest_auto("w", checkpoint(4)).unwrap();
        let items = vec![("a".to_string(), checkpoint(5)), ("b".to_string(), scan(5))];
        let prepared = index.prepare_auto(items).unwrap();
        assert_eq!(index.len(), 1, "a prepare takes no id and inserts nothing");
        let mut logged = Vec::new();
        let (first, result) = index.commit(prepared, |entries| {
            logged.extend(entries.iter().map(|e| (e.id.0, e.name.clone(), e.label.clone())));
            Err::<(), _>("the log is full")
        });
        assert_eq!((first, result), (EntryId(1), Err("the log is full")));
        let expected =
            [(1, "e1".to_string(), "a".to_string()), (2, "e2".to_string(), "b".to_string())];
        assert_eq!(logged, expected);
        assert_eq!(index.len(), 3, "the entries are inserted even though the log step failed");
        assert_eq!(index.generation(), 3);
        assert!(matches!(index.ingest("", "c", scan(6)), Err(IngestError::InvalidName(_))));
        assert_eq!(index.ingest("named", "c", scan(6)).unwrap(), EntryId(3));
    }

    #[test]
    fn attach_quota_charges_a_preloaded_corpus() {
        let index = PatternIndex::new(IndexOptions::default());
        index.ingest("w0", "w", checkpoint(16)).unwrap();
        index.ingest("w1", "w", checkpoint(17)).unwrap();
        let quota = MemoryQuota::new(Some(1 << 20));
        index.attach_quota(&quota);
        assert!(quota.used() > 0, "the resident corpus is charged at attachment");
        let before = quota.used();
        index.ingest("w2", "w", checkpoint(18)).unwrap();
        assert!(quota.used() > before, "later ingests keep charging");
    }

    #[test]
    fn empty_corpus_yields_empty_result() {
        let index = PatternIndex::new(IndexOptions::default());
        let result = index.query(&checkpoint(4), 3);
        assert!(result.neighbors.is_empty());
        assert_eq!(result.label, None);
        assert_eq!(result.candidates, 0);
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let index = small_index();
        let result = index.query(&checkpoint(16), 100);
        assert_eq!(result.neighbors.len(), index.len());
    }

    #[test]
    fn majority_vote_breaks_ties_by_similarity_mass() {
        let neighbors = vec![
            Neighbor { id: EntryId(0), name: "a".into(), label: "x".into(), similarity: 0.9 },
            Neighbor { id: EntryId(1), name: "b".into(), label: "y".into(), similarity: 0.2 },
            Neighbor { id: EntryId(2), name: "c".into(), label: "y".into(), similarity: 0.3 },
            Neighbor { id: EntryId(3), name: "d".into(), label: "x".into(), similarity: 0.1 },
        ];
        // Two votes each; x has mass 1.0, y has 0.5.
        assert_eq!(majority_label(&neighbors).as_deref(), Some("x"));
        assert_eq!(majority_label(&[]), None);
    }

    #[test]
    fn weight_product_normalisation_matches_direct_evaluation() {
        let index = PatternIndex::new(IndexOptions {
            kast: KastOptions {
                normalization: Normalization::WeightProduct,
                ..KastOptions::with_cut_weight(2)
            },
            ..IndexOptions::default()
        });
        index.ingest("w", "w", checkpoint(16)).unwrap();
        index.ingest("r", "r", scan(16)).unwrap();
        let query_trace = checkpoint(12);
        let query = index.intern_trace(&query_trace);
        let direct: Vec<f64> =
            index.entries().iter().map(|e| index.kernel().normalized(&query, &e.string)).collect();
        let result = index.query(&query_trace, 2);
        for n in &result.neighbors {
            let expected = direct[n.id.0 as usize];
            assert_eq!(n.similarity.to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn an_ingest_completes_while_a_query_is_between_scan_and_scoring() {
        let index = small_index();
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let (ingested_tx, ingested) = mpsc::channel();
        std::thread::scope(|scope| {
            let index = &index;
            let query = scope.spawn(move || {
                PARK_AFTER_SCAN.with(|park| *park.borrow_mut() = Some((parked_tx, release_rx)));
                index.query(&checkpoint(16), 3)
            });
            parked.recv().unwrap();
            scope.spawn(move || ingested_tx.send(index.ingest("late", "w", checkpoint(30))));
            // Release the query before asserting, so a failure cannot
            // leave the scope waiting on a parked thread.
            let outcome = ingested.recv_timeout(Duration::from_secs(5));
            release.send(()).unwrap();
            let result = query.join().unwrap();
            assert_eq!(outcome, Ok(Ok(EntryId(8))), "the ingest waited for a parked query");
            // The query scored the corpus its scan saw, exactly.
            assert_eq!(result.candidates, 8);
            assert_eq!(result.neighbors[0].name, "w0");
            assert_eq!(result.label.as_deref(), Some("write-heavy"));
        });
        assert_eq!(index.len(), 9);
        assert_eq!(index.query(&checkpoint(16), 3).candidates, 9);
    }

    #[test]
    fn ingest_auto_names_by_id() {
        let index = PatternIndex::new(IndexOptions::default());
        index.ingest_auto("w", checkpoint(4)).unwrap();
        index.ingest_auto("r", scan(4)).unwrap();
        let entries = index.entries();
        assert_eq!(entries[0].name, "e0");
        assert_eq!(entries[1].name, "e1");
    }

    #[test]
    fn concurrent_queries_and_ingests_stay_exact() {
        // One writer keeps ingesting new entries while readers hammer the
        // index with queries; every similarity a reader sees must still be
        // the exact kernel value for that (query, entry) pair.
        let index = std::sync::Arc::new(PatternIndex::new(IndexOptions::default()));
        for i in 0..6 {
            index.ingest(format!("w{i}"), "w", checkpoint(8 + i)).unwrap();
            index.ingest(format!("r{i}"), "r", scan(8 + i)).unwrap();
        }
        let expected: Vec<(String, f64)> = {
            let probe = index.intern_trace(&checkpoint(9));
            index
                .entries()
                .iter()
                .map(|e| (e.name.clone(), index.kernel().normalized(&probe, &e.string)))
                .collect()
        };
        std::thread::scope(|scope| {
            let writer_index = std::sync::Arc::clone(&index);
            scope.spawn(move || {
                for i in 0..8 {
                    writer_index.ingest(format!("x{i}"), "x", checkpoint(40 + i)).unwrap();
                }
            });
            for _ in 0..3 {
                let reader_index = std::sync::Arc::clone(&index);
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..10 {
                        let result = reader_index.query(&checkpoint(9), 4);
                        for n in &result.neighbors {
                            if let Some((_, want)) =
                                expected.iter().find(|(name, _)| *name == n.name)
                            {
                                assert_eq!(
                                    n.similarity.to_bits(),
                                    want.to_bits(),
                                    "{}: concurrent query drifted from direct evaluation",
                                    n.name
                                );
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(index.len(), 20);
        let ids: Vec<u32> = index.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>(), "the corpus is the id prefix");
    }
}
