//! Corpus entries: one ingested, fully preprocessed labelled trace.

use kastio_core::IdString;
use kastio_trace::{PatternSignature, Trace};

/// Dense identifier of an entry inside one [`crate::PatternIndex`].
///
/// Ids are assigned in commit order, contiguously from 0, and never
/// reused; they are only meaningful within the index that issued them.
/// The id is also the entry's position in the corpus: entry `i` sits at
/// index `i` of the [`crate::PatternIndex`]'s entry vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(pub u32);

impl std::fmt::Display for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One indexed example: the original trace plus everything the expensive
/// part of the pipeline produces, computed once at ingestion time.
///
/// Queries never re-run trace→tree→string conversion, interning or the
/// self-kernel for corpus members — that is the whole point of the index.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Identifier assigned at ingestion.
    pub id: EntryId,
    /// Human-readable name (unique within the index; used by persistence).
    pub name: String,
    /// Ground-truth / user-supplied label, e.g. a workload category.
    pub label: String,
    /// The original trace, kept so the index can be saved back to disk in
    /// the plain-text trace format.
    pub trace: Trace,
    /// The interned weighted string (interned by the index's shared
    /// [`kastio_core::TokenInterner`], so it is comparable with every other
    /// entry and with interned queries).
    pub string: IdString,
    /// Precomputed raw self-kernel `k(e, e)` under the index's options —
    /// the denominator half of cosine normalisation, memoised here so a
    /// query against `n` entries costs `n` pairwise evaluations plus one
    /// query self-kernel, never `O(n)` *additional* self-kernels (the
    /// same diagonal memoisation `gram_matrix` applies in normalised
    /// mode).
    pub self_kernel: f64,
    /// Precomputed `weight_{w≥cut}(e)` — the denominator half of the
    /// paper's weight-product normalisation.
    pub cut_mass: u64,
    /// Scalar pattern signature used by the candidate prefilter.
    pub signature: PatternSignature,
}

/// Approximate per-operation cost of keeping a trace resident in the
/// corpus: the operation itself plus the interned token/weight pair and
/// the prefix-sum slot derived from it.
const OP_COST_BYTES: usize = 48;

/// Fixed per-entry overhead: the [`IndexEntry`] struct in its `Arc`
/// allocation, string headers, vector headers, and the corpus slots of
/// its handle and signature.
const ENTRY_BASE_BYTES: usize = 192;

/// Approximate resident bytes an entry built from `name`, `label` and
/// `trace` will occupy once ingested.
///
/// Deliberately computable *before* the preprocessing pipeline runs, so
/// memory admission can refuse an ingest before an entry id is allocated
/// (a refused ingest must leave no id gap).
pub fn entry_footprint_bytes(name: &str, label: &str, trace: &Trace) -> u64 {
    (ENTRY_BASE_BYTES + name.len() + label.len() + trace.len() * OP_COST_BYTES) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_id_displays_densely() {
        assert_eq!(EntryId(7).to_string(), "e7");
        assert!(EntryId(1) > EntryId(0));
    }

    #[test]
    fn footprint_grows_with_trace_length_and_names() {
        let short = Trace::new();
        let base = entry_footprint_bytes("a", "b", &short);
        assert!(base >= ENTRY_BASE_BYTES as u64);
        let longer = entry_footprint_bytes("a-much-longer-name", "b", &short);
        assert!(longer > base);
    }
}
