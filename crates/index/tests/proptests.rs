//! Property tests for the corpus index: queries equal a brute-force
//! reference, the cache is semantically invisible, and normalised
//! similarity is a bounded symmetric score.

use proptest::prelude::*;

use kastio_core::{pattern_string, ByteMode, KastKernel, KastOptions, StringKernel, TokenInterner};
use kastio_index::prefilter::signature_distance2;
use kastio_index::{IndexOptions, PatternIndex, PrefilterConfig};
use kastio_trace::{HandleId, OpKind, Operation, PatternSignature, Trace};

/// Small closed vocabulary so random traces share plenty of literals and
/// the kernel actually has features to find.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u32..3, 0usize..5, 0u64..4), 1..48).prop_map(|ops| {
        ops.into_iter()
            .map(|(h, kind, byte_class)| {
                let kind = match kind {
                    0 => OpKind::Open,
                    1 => OpKind::Read,
                    2 => OpKind::Write,
                    3 => OpKind::Lseek,
                    _ => OpKind::Close,
                };
                Operation::new(HandleId::new(h), kind, byte_class * 4096)
            })
            .collect()
    })
}

fn arb_corpus() -> impl Strategy<Value = Vec<Trace>> {
    proptest::collection::vec(arb_trace(), 2..6)
}

/// 8–40 traces drawn from a few distinct ones, so many entries share a
/// signature and a kernel value: every tie-break gets exercised.
fn arb_corpus_with_duplicates() -> impl Strategy<Value = Vec<Trace>> {
    proptest::collection::vec(arb_trace(), 3..10).prop_flat_map(|distinct| {
        let count = distinct.len();
        proptest::collection::vec(0..count, 8..41)
            .prop_map(move |picks| picks.into_iter().map(|i| distinct[i].clone()).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A query answers exactly what a brute-force reference computes from
    /// `entries()`: rank every entry by `(signature distance, id)`, keep
    /// the first `budget_for(k, n)`, score each with
    /// `KastKernel::normalized`, sort by similarity (descending) then id,
    /// and keep `k`. The budget is smaller than the corpus for small `k`.
    #[test]
    fn queries_equal_a_brute_force_reference(
        corpus in arb_corpus_with_duplicates(),
        query in arb_trace(),
    ) {
        let prefilter = PrefilterConfig { min_candidates: 3, per_k: 1, ..PrefilterConfig::default() };
        let index = PatternIndex::new(IndexOptions { prefilter, ..IndexOptions::default() });
        for (i, trace) in corpus.iter().enumerate() {
            index.ingest(format!("t{i}"), format!("l{}", i % 3), trace.clone()).unwrap();
        }
        let entries = index.entries();
        let n = entries.len();
        let query_string = index.intern_trace(&query);
        let signature = PatternSignature::of(&query, index.options().signature);
        let mut ranked: Vec<(f64, u32)> = entries
            .iter()
            .map(|e| (signature_distance2(&signature, &e.signature), e.id.0))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

        for k in [1, 2, 3, 5, 8, 13, 50] {
            let budget = prefilter.budget_for(k, n);
            let mut expected: Vec<(u32, f64)> = ranked[..budget]
                .iter()
                .map(|&(_, id)| {
                    (id, index.kernel().normalized(&query_string, &entries[id as usize].string))
                })
                .collect();
            expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            expected.truncate(k);

            let result = index.query(&query, k);
            prop_assert_eq!(result.candidates, budget, "k={}", k);
            let got: Vec<(u32, u64)> =
                result.neighbors.iter().map(|n| (n.id.0, n.similarity.to_bits())).collect();
            let want: Vec<(u32, u64)> =
                expected.iter().map(|&(id, similarity)| (id, similarity.to_bits())).collect();
            prop_assert_eq!(got, want, "k={}", k);
        }
    }

    /// Cached and uncached kernel lookups are interchangeable: an index
    /// with the query memo disabled, an index answering fresh, and an
    /// index answering from its memo all return bit-identical neighbour
    /// lists.
    #[test]
    fn cached_lookups_equal_uncached(corpus in arb_corpus(), query in arb_trace()) {
        let cached = PatternIndex::new(IndexOptions::default());
        let uncached = PatternIndex::new(IndexOptions {
            cache_capacity: 0,
            ..IndexOptions::default()
        });
        for (i, trace) in corpus.iter().enumerate() {
            cached.ingest(format!("e{i}"), format!("l{}", i % 2), trace.clone()).unwrap();
            uncached.ingest(format!("e{i}"), format!("l{}", i % 2), trace.clone()).unwrap();
        }
        let first = cached.query(&query, corpus.len());
        let second = cached.query(&query, corpus.len());
        let fresh = uncached.query(&query, corpus.len());

        prop_assert_eq!(second.evaluated, 0, "repeat query is fully cached");
        prop_assert_eq!(second.cache_hits, first.evaluated + first.cache_hits);
        prop_assert_eq!(&first.neighbors, &second.neighbors);
        prop_assert_eq!(&first.label, &second.label);

        prop_assert_eq!(first.neighbors.len(), fresh.neighbors.len());
        for (a, b) in first.neighbors.iter().zip(&fresh.neighbors) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.similarity.to_bits(), b.similarity.to_bits(),
                "cache must not change kernel values: {} vs {}", a.similarity, b.similarity);
        }
    }

    /// Normalised similarity is a non-negative, finite, symmetric score
    /// that is exactly 1 on identical patterns and exactly what the index
    /// reports.
    ///
    /// We deliberately do NOT assert a hard `≤ 1` upper bound: the Kast
    /// feature space is pair-dependent, so the cosine form can exceed 1
    /// for strongly repetitive cross-pairs (see the
    /// `StringKernel::normalized` docs — the same reason §4.1 of the
    /// paper clamps negative eigenvalues before analysis). On this
    /// generator's distribution values do stay in [0, 1], but that is a
    /// property of the corpus, not of the kernel.
    #[test]
    fn similarity_is_a_symmetric_score(a in arb_trace(), b in arb_trace()) {
        let mut interner = TokenInterner::new();
        let ia = interner.intern_string(&pattern_string(&a, ByteMode::Preserve));
        let ib = interner.intern_string(&pattern_string(&b, ByteMode::Preserve));
        let kernel = KastKernel::new(KastOptions::with_cut_weight(2));

        let sab = kernel.normalized(&ia, &ib);
        let sba = kernel.normalized(&ib, &ia);
        prop_assert!(sab >= 0.0 && sab.is_finite(), "similarity {sab} not a score");
        prop_assert_eq!(sab.to_bits(), sba.to_bits(), "asymmetric: {} vs {}", sab, sba);

        // Self-similarity normalises to exactly 1: the self-kernel's only
        // independent shared feature is the whole pattern string.
        let saa = kernel.normalized(&ia, &ia);
        prop_assert_eq!(saa.to_bits(), 1.0f64.to_bits(), "self-similarity {} != 1", saa);

        let index = PatternIndex::new(IndexOptions::default());
        index.ingest("b", "label", b.clone()).unwrap();
        let result = index.query(&a, 1);
        prop_assert_eq!(result.neighbors.len(), 1);
        let served = result.neighbors[0].similarity;
        prop_assert!(served >= 0.0 && served.is_finite());
        prop_assert_eq!(served.to_bits(), sab.to_bits(),
            "index must serve the direct kernel value: {} vs {}", served, sab);
    }
}
