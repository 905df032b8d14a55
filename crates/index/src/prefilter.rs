//! Signature-based candidate prefiltering.
//!
//! A Kast kernel evaluation is quadratic in string length; the scalar
//! pattern signature (burstiness, periodicity, repeatability — §2.1 of the
//! paper, after Liu et al.) costs a linear scan at ingestion time and a
//! three-float distance at query time. The prefilter ranks the corpus by
//! signature distance to the query and hands only the closest `budget`
//! entries to the kernel stage.
//!
//! The prefilter is an *approximation*: it never changes the similarity
//! value reported for an entry it keeps (those are full, exact kernel
//! evaluations), but an aggressive budget can drop a true nearest
//! neighbour whose signature is unusually far from the query's. The
//! defaults keep a generous multiple of `k`.
//!
//! [`crate::PatternIndex`] runs [`select_candidates`] over its signature
//! column, whose position `i` holds entry id `i`, so ties break by id.
//! That scan is the only part of a query that holds the corpus lock.

use kastio_trace::PatternSignature;

/// Configuration of the candidate prefilter.
///
/// # Examples
///
/// ```
/// use kastio_index::PrefilterConfig;
///
/// let cfg = PrefilterConfig::default();
/// assert!(cfg.enabled);
/// assert_eq!(cfg.budget_for(5, 100), 32.max(5 * 4));
/// // Disabled → every entry is a candidate.
/// let off = PrefilterConfig { enabled: false, ..cfg };
/// assert_eq!(off.budget_for(5, 100), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefilterConfig {
    /// Whether the prefilter runs at all. When off, every entry goes to
    /// the kernel stage (exact but slow — the naive baseline).
    pub enabled: bool,
    /// Floor on the number of candidates kept, independent of `k`.
    pub min_candidates: usize,
    /// Candidates kept per requested neighbour: the budget is
    /// `max(min_candidates, k * per_k)`.
    pub per_k: usize,
}

impl Default for PrefilterConfig {
    fn default() -> Self {
        PrefilterConfig { enabled: true, min_candidates: 32, per_k: 4 }
    }
}

impl PrefilterConfig {
    /// The number of candidates the kernel stage will see for a `k`-NN
    /// query over `corpus_len` entries.
    pub fn budget_for(&self, k: usize, corpus_len: usize) -> usize {
        if !self.enabled {
            return corpus_len;
        }
        self.min_candidates.max(k.saturating_mul(self.per_k)).min(corpus_len)
    }
}

/// Squared Euclidean distance between two signatures in
/// (burstiness, periodicity, repeatability) space.
///
/// # Examples
///
/// ```
/// use kastio_index::prefilter::signature_distance2;
/// use kastio_trace::PatternSignature;
///
/// let a = PatternSignature { burstiness: 1.0, periodicity: 0.0, repeatability: 0.0 };
/// let b = PatternSignature { burstiness: 0.0, periodicity: 2.0, repeatability: 0.0 };
/// assert_eq!(signature_distance2(&a, &a), 0.0);
/// assert_eq!(signature_distance2(&a, &b), 5.0); // 1² + 2²
/// ```
pub fn signature_distance2(a: &PatternSignature, b: &PatternSignature) -> f64 {
    let db = a.burstiness - b.burstiness;
    let dp = a.periodicity - b.periodicity;
    let dr = a.repeatability - b.repeatability;
    db * db + dp * dp + dr * dr
}

/// Selects the indices of the `budget` entries whose signatures are
/// closest to `query`, ascending by distance (ties broken by index, so the
/// selection is deterministic).
///
/// O(n) partition around the budget boundary plus an O(budget log budget)
/// sort of the kept prefix — the corpus is never fully sorted.
///
/// # Examples
///
/// ```
/// use kastio_index::prefilter::select_candidates;
/// use kastio_trace::PatternSignature;
///
/// let sig = |b: f64| PatternSignature { burstiness: b, periodicity: 0.0, repeatability: 0.0 };
/// let corpus = [sig(0.9), sig(0.1), sig(0.5)];
/// assert_eq!(select_candidates(&sig(0.0), &corpus, 2), vec![1, 2]);
/// ```
pub fn select_candidates(
    query: &PatternSignature,
    signatures: &[PatternSignature],
    budget: usize,
) -> Vec<usize> {
    let mut ranked: Vec<(f64, usize)> = signatures
        .iter()
        .enumerate()
        .map(|(i, sig)| (signature_distance2(query, sig), i))
        .collect();
    let order = |a: &(f64, usize), b: &(f64, usize)| {
        a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    };
    if budget < ranked.len() {
        ranked.select_nth_unstable_by(budget, order);
        ranked.truncate(budget);
    }
    ranked.sort_by(order);
    ranked.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(b: f64, p: f64, r: f64) -> PatternSignature {
        PatternSignature { burstiness: b, periodicity: p, repeatability: r }
    }

    #[test]
    fn distance_is_zero_on_equal_signatures() {
        let s = sig(0.2, -0.4, 0.9);
        assert_eq!(signature_distance2(&s, &s), 0.0);
    }

    #[test]
    fn closest_signatures_are_selected_first() {
        let q = sig(0.0, 0.0, 0.0);
        let corpus = vec![sig(0.9, 0.0, 0.0), sig(0.1, 0.0, 0.0), sig(0.5, 0.0, 0.0)];
        assert_eq!(select_candidates(&q, &corpus, 2), vec![1, 2]);
        assert_eq!(select_candidates(&q, &corpus, 5), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_index() {
        let q = sig(0.0, 0.0, 0.0);
        let corpus = vec![sig(0.5, 0.0, 0.0), sig(-0.5, 0.0, 0.0), sig(0.0, 0.5, 0.0)];
        assert_eq!(select_candidates(&q, &corpus, 3), vec![0, 1, 2]);
    }

    #[test]
    fn budget_formula() {
        let cfg = PrefilterConfig { enabled: true, min_candidates: 8, per_k: 3 };
        assert_eq!(cfg.budget_for(1, 100), 8);
        assert_eq!(cfg.budget_for(4, 100), 12);
        assert_eq!(cfg.budget_for(4, 10), 10, "budget clamps to the corpus");
    }
}
