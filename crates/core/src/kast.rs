//! The Kast Spectrum Kernel (§3.2) — the paper's headline contribution.
//!
//! Given two weighted strings and a *cut weight* `n`, the kernel:
//!
//! 1. finds the substrings *shared* by both strings (matching on token
//!    literals only — "the weight of a target substring might be different
//!    in each string");
//! 2. restricts them to *independent* matches: "a target substring must
//!    not be a substring of another matching substring in at least one of
//!    the original strings";
//! 3. keeps those reaching the cut weight;
//! 4. turns each surviving substring into an embedding feature whose value
//!    in a string is "the summation of the weights of all the substring
//!    appearances" there;
//! 5. returns the inner product of the two feature vectors.
//!
//! The normalised kernel divides by `weight_{w≥n}(A)·weight_{w≥n}(B)`
//! (Eq. 12/13 — the paper equates this with cosine normalisation but its
//! numeric example uses the weight product; we implement both, defaulting
//! to the paper's arithmetic so the §3.2 example reproduces exactly:
//! `k̄ = 1018/3328 = 0.3059`).
//!
//! # Algorithm
//!
//! Shared substrings are enumerated as *maximal matching pairs* (matches
//! that cannot be extended left or right at that occurrence pair) with the
//! classic common-suffix dynamic program, O(|A|·|B|) time and O(|B|) space.
//! The distinct literal sequences of those matches are the candidate
//! features; candidates are then re-scanned to find **all** their
//! appearances (step 4 counts every appearance, not just maximal ones),
//! filtered longest-first by the independence condition, and finally gated
//! by the cut weight.
//!
//! [`KastKernel::features`] materialises that pipeline for inspection;
//! [`KastKernel::raw`] and [`KastKernel::normalized`] run the
//! bit-identical weight-only fast path of [`crate::eval`] (batch callers
//! should hold a [`crate::KastEvaluator`] for explicit scratch reuse and
//! self-kernel memoisation).

use std::collections::HashMap;

use crate::kernel::StringKernel;
use crate::string::{IdString, TokenId};

/// How the cut weight gates a candidate feature.
///
/// The paper's prose ("the aim is to find the substrings … which weight is
/// greater than or equal to the cut weight") does not say which occurrence
/// carries the test when the weights differ per appearance; the variants
/// make the readings explicit. [`CutRule::AllOccurrences`] is the default:
/// it reproduces both the §3.2 worked example and the §4.2 clustering
/// behaviour (including the no-byte-info "increase the cut weight to
/// recover three groups" effect); the `ablation_cut_rule` repro binary
/// compares the readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutRule {
    /// At least one appearance (in either string) weighs ≥ cut — the most
    /// permissive reading.
    AnyOccurrence,
    /// Every appearance (in both strings) weighs ≥ cut.
    #[default]
    AllOccurrences,
    /// The summed appearance weight reaches the cut in *both* strings.
    PerStringSum,
}

/// Which normalisation [`KastKernel::normalized`] applies.
///
/// Eq. (12) of the paper writes the cosine form
/// `k/√(k(A,A)·k(B,B))` and then equates it with the weight product
/// `k/(weight_{w≥n}(A)·weight_{w≥n}(B))`; the two are not the same
/// quantity in general. [`Normalization::Cosine`] (the first form) is the
/// default used throughout the evaluation pipeline — the weight product
/// degenerates whenever a string has no single token reaching the cut
/// weight, which happens routinely at large cuts. The worked example of
/// §3.2 computes the *weight product* (1018/3328 = 0.3059), so the E8
/// reproduction selects [`Normalization::WeightProduct`] explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Divide by `weight_{w≥n}(A)·weight_{w≥n}(B)` — the arithmetic of the
    /// paper's Eq. (13) numeric example.
    WeightProduct,
    /// Divide by `√(k(A,A)·k(B,B))` — the cosine form of Eq. (12).
    #[default]
    Cosine,
}

/// Configuration of the Kast Spectrum Kernel.
///
/// # Examples
///
/// ```
/// use kastio_core::{CutRule, KastOptions, Normalization};
///
/// let opts = KastOptions::with_cut_weight(4);
/// assert_eq!(opts.cut_weight, 4);
/// assert_eq!(opts.cut_rule, CutRule::AllOccurrences);
/// assert_eq!(opts.normalization, Normalization::Cosine);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KastOptions {
    /// The minimum weight a shared substring must reach (§3.2's parameter).
    pub cut_weight: u64,
    /// Which appearances must reach the cut weight.
    pub cut_rule: CutRule,
    /// Normalisation used by [`KastKernel::normalized`].
    pub normalization: Normalization,
}

impl KastOptions {
    /// Paper defaults with the given cut weight.
    pub fn with_cut_weight(cut_weight: u64) -> Self {
        KastOptions {
            cut_weight,
            cut_rule: CutRule::default(),
            normalization: Normalization::default(),
        }
    }
}

impl Default for KastOptions {
    fn default() -> Self {
        KastOptions::with_cut_weight(2)
    }
}

/// One embedding feature shared by a pair of strings.
///
/// Exposed so callers can inspect *why* two patterns are similar
/// (C-INTERMEDIATE); [`KastKernel::raw`] is just the inner product over
/// these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedFeature {
    /// The literal sequence of the substring, as interned token ids.
    pub tokens: Vec<TokenId>,
    /// Start positions of every appearance in the first string.
    pub starts_a: Vec<usize>,
    /// Start positions of every appearance in the second string.
    pub starts_b: Vec<usize>,
    /// Summed appearance weight in the first string.
    pub weight_a: u64,
    /// Summed appearance weight in the second string.
    pub weight_b: u64,
}

impl SharedFeature {
    /// Length of the shared substring in tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the feature is empty (never produced by the kernel).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// The Kast Spectrum Kernel.
///
/// # Examples
///
/// Reproducing the flavour of the paper's worked example (two strings with
/// some shared runs):
///
/// ```
/// use kastio_core::{KastKernel, KastOptions, StringKernel, TokenInterner, WeightedString};
/// use kastio_core::token::{TokenLiteral, WeightedToken};
///
/// fn sym(name: &str, w: u64) -> WeightedToken {
///     WeightedToken::new(TokenLiteral::Sym(name.into()), w)
/// }
///
/// let mut interner = TokenInterner::new();
/// let a: WeightedString = [sym("x", 6), sym("y", 6), sym("z", 7)].into_iter().collect();
/// let b: WeightedString = [sym("x", 5), sym("y", 6), sym("z", 6)].into_iter().collect();
/// let (ia, ib) = (interner.intern_string(&a), interner.intern_string(&b));
///
/// let kernel = KastKernel::new(KastOptions::with_cut_weight(4));
/// assert_eq!(kernel.raw(&ia, &ib), 19.0 * 17.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KastKernel {
    opts: KastOptions,
}

impl KastKernel {
    /// Creates a kernel with the given options.
    pub fn new(opts: KastOptions) -> Self {
        KastKernel { opts }
    }

    /// The kernel's configuration.
    pub fn options(&self) -> &KastOptions {
        &self.opts
    }

    /// Computes the shared features of two strings under the kernel's
    /// options (the embedding of §3.2 made inspectable).
    pub fn features(&self, a: &IdString, b: &IdString) -> Vec<SharedFeature> {
        let candidates = maximal_shared_substrings(a, b);
        let with_occurrences = collect_occurrences(candidates, a, b);
        let independent = independence_filter(with_occurrences);
        self.apply_cut(independent, a, b)
    }

    fn apply_cut(
        &self,
        features: Vec<RawFeature>,
        a: &IdString,
        b: &IdString,
    ) -> Vec<SharedFeature> {
        let cut = self.opts.cut_weight;
        let mut out = Vec::new();
        for f in features {
            let occ_weights_a: Vec<u64> =
                f.starts_a.iter().map(|&s| a.range_weight(s, f.tokens.len())).collect();
            let occ_weights_b: Vec<u64> =
                f.starts_b.iter().map(|&s| b.range_weight(s, f.tokens.len())).collect();
            let weight_a: u64 = occ_weights_a.iter().sum();
            let weight_b: u64 = occ_weights_b.iter().sum();
            let passes = match self.opts.cut_rule {
                CutRule::AnyOccurrence => {
                    occ_weights_a.iter().chain(occ_weights_b.iter()).any(|&w| w >= cut)
                }
                CutRule::AllOccurrences => {
                    occ_weights_a.iter().chain(occ_weights_b.iter()).all(|&w| w >= cut)
                }
                CutRule::PerStringSum => weight_a >= cut && weight_b >= cut,
            };
            if passes {
                out.push(SharedFeature {
                    tokens: f.tokens,
                    starts_a: f.starts_a,
                    starts_b: f.starts_b,
                    weight_a,
                    weight_b,
                });
            }
        }
        out
    }
}

/// Reference implementations of the naive, feature-materialising kernel
/// pipeline, retained as the oracle the optimized evaluator is checked
/// against (see the `kast_evaluator_is_bit_identical_to_reference`
/// property test). Enable the `reference` feature to use them outside
/// tests.
#[cfg(any(test, feature = "reference"))]
impl KastKernel {
    /// [`KastKernel::raw`] computed by the naive pipeline: materialise
    /// every [`SharedFeature`] via [`KastKernel::features`], then take the
    /// inner product.
    pub fn raw_reference(&self, a: &IdString, b: &IdString) -> f64 {
        self.features(a, b).iter().map(|f| f.weight_a as f64 * f.weight_b as f64).sum()
    }

    /// [`KastKernel::normalized`] computed by the naive pipeline,
    /// including naive (rescan) `weight_{w≥n}` sums.
    pub fn normalized_reference(&self, a: &IdString, b: &IdString) -> f64 {
        match self.opts.normalization {
            Normalization::Cosine => {
                let kab = self.raw_reference(a, b);
                if kab == 0.0 {
                    return 0.0;
                }
                let kaa = self.raw_reference(a, a);
                let kbb = self.raw_reference(b, b);
                if kaa <= 0.0 || kbb <= 0.0 {
                    0.0
                } else {
                    kab / (kaa * kbb).sqrt()
                }
            }
            Normalization::WeightProduct => {
                let naive_mass = |s: &IdString| -> u64 {
                    s.weights().iter().filter(|&&w| w >= self.opts.cut_weight).sum()
                };
                let denom = naive_mass(a) as f64 * naive_mass(b) as f64;
                if denom <= 0.0 {
                    0.0
                } else {
                    self.raw_reference(a, b) / denom
                }
            }
        }
    }
}

impl StringKernel for KastKernel {
    fn name(&self) -> &'static str {
        "kast"
    }

    /// The weight-only fast path: evaluated through the zero-allocation
    /// core of [`crate::eval`] (via a per-thread scratch), bit-identical
    /// to the naive [`KastKernel::features`]-based inner product.
    fn raw(&self, a: &IdString, b: &IdString) -> f64 {
        crate::eval::with_thread_scratch(|scratch| {
            crate::eval::raw_with_scratch(&self.opts, scratch, a, b)
        })
    }

    fn normalized(&self, a: &IdString, b: &IdString) -> f64 {
        crate::eval::with_thread_scratch(|scratch| {
            crate::eval::normalized_with_raw(&self.opts, a, b, |x, y| {
                crate::eval::raw_with_scratch(&self.opts, scratch, x, y)
            })
        })
    }

    /// The Kast kernel respects its configured [`Normalization`]: under
    /// [`Normalization::Cosine`] the supplied self-kernels replace the
    /// two `raw(a, a)`/`raw(b, b)` evaluations; under
    /// [`Normalization::WeightProduct`] they are not part of the formula
    /// and are ignored.
    fn normalized_with_self(&self, a: &IdString, b: &IdString, kaa: f64, kbb: f64) -> f64 {
        let kab = self.raw(a, b);
        match self.opts.normalization {
            Normalization::Cosine => crate::eval::normalized_cosine(kab, kaa, kbb),
            Normalization::WeightProduct => {
                crate::eval::normalized_weight_product(&self.opts, a, b, kab)
            }
        }
    }
}

struct RawFeature {
    tokens: Vec<TokenId>,
    starts_a: Vec<usize>,
    starts_b: Vec<usize>,
}

/// Enumerates the distinct literal sequences of all maximal matching pairs
/// between `a` and `b` (MEMs), via the common-suffix DP.
fn maximal_shared_substrings(a: &IdString, b: &IdString) -> Vec<Vec<TokenId>> {
    let (xa, xb) = (a.ids(), b.ids());
    let (n, m) = (xa.len(), xb.len());
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let mut prev = vec![0usize; m];
    let mut curr = vec![0usize; m];
    let mut out: Vec<Vec<TokenId>> = Vec::new();
    for i in 0..n {
        for j in 0..m {
            if xa[i] == xb[j] {
                let l = if i > 0 && j > 0 { prev[j - 1] + 1 } else { 1 };
                curr[j] = l;
                // Right-maximal: the match cannot be extended past (i, j).
                let extendable = i + 1 < n && j + 1 < m && xa[i + 1] == xb[j + 1];
                if !extendable {
                    out.push(xa[i + 1 - l..=i].to_vec());
                }
            } else {
                curr[j] = 0;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    // Deduplicate by literal sequence, keeping first-seen order.
    let mut dedup: HashMap<Vec<TokenId>, ()> = HashMap::new();
    out.retain(|s| dedup.insert(s.clone(), ()).is_none());
    out
}

/// Finds every appearance (overlaps included) of each candidate in both
/// strings.
fn collect_occurrences(
    candidates: Vec<Vec<TokenId>>,
    a: &IdString,
    b: &IdString,
) -> Vec<RawFeature> {
    candidates
        .into_iter()
        .map(|tokens| {
            let starts_a = find_all(a.ids(), &tokens);
            let starts_b = find_all(b.ids(), &tokens);
            RawFeature { tokens, starts_a, starts_b }
        })
        .collect()
}

fn find_all(haystack: &[TokenId], needle: &[TokenId]) -> Vec<usize> {
    let mut out = Vec::new();
    if needle.is_empty() || haystack.len() < needle.len() {
        return out;
    }
    for s in 0..=haystack.len() - needle.len() {
        if &haystack[s..s + needle.len()] == needle {
            out.push(s);
        }
    }
    out
}

/// Applies the paper's independence condition: processing candidates
/// longest-first, keep a candidate only if at least one of its appearances
/// (in either string) is not strictly contained inside an appearance of an
/// already-kept longer candidate.
fn independence_filter(mut features: Vec<RawFeature>) -> Vec<RawFeature> {
    features.sort_by_key(|f| std::cmp::Reverse(f.tokens.len()));
    // (start, end, len) of kept appearances, per string.
    let mut kept_a: Vec<(usize, usize, usize)> = Vec::new();
    let mut kept_b: Vec<(usize, usize, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut staged_a: Vec<(usize, usize, usize)> = Vec::new();
    let mut staged_b: Vec<(usize, usize, usize)> = Vec::new();
    let mut current_len = usize::MAX;

    for f in features {
        let len = f.tokens.len();
        if len < current_len {
            // Entering a shorter length group: commit the staged intervals
            // so equal-length candidates never suppress each other.
            kept_a.append(&mut staged_a);
            kept_b.append(&mut staged_b);
            current_len = len;
        }
        let contained = |intervals: &[(usize, usize, usize)], s: usize| {
            intervals.iter().any(|&(ks, ke, kl)| kl > len && ks <= s && s + len <= ke)
        };
        let independent_a = f.starts_a.iter().any(|&s| !contained(&kept_a, s));
        let independent_b = f.starts_b.iter().any(|&s| !contained(&kept_b, s));
        if independent_a || independent_b {
            for &s in &f.starts_a {
                staged_a.push((s, s + len, len));
            }
            for &s in &f.starts_b {
                staged_b.push((s, s + len, len));
            }
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string::TokenInterner;
    use crate::token::{TokenLiteral, WeightedToken};
    use crate::WeightedString;

    fn sym(name: &str, w: u64) -> WeightedToken {
        WeightedToken::new(TokenLiteral::Sym(name.to_string()), w)
    }

    fn intern_pair(a: &[WeightedToken], b: &[WeightedToken]) -> (IdString, IdString) {
        let mut interner = TokenInterner::new();
        let sa: WeightedString = a.iter().cloned().collect();
        let sb: WeightedString = b.iter().cloned().collect();
        (interner.intern_string(&sa), interner.intern_string(&sb))
    }

    /// The §3.2 worked example, reconstructed so every number of the paper
    /// falls out: features {19,13,15}·{35,11,14} → 1018; weight_{w≥4} 64
    /// and 52 → 1018/3328 = 0.3059.
    fn paper_example() -> (IdString, IdString) {
        let a = vec![
            sym("x", 6),
            sym("y", 6),
            sym("z", 7),
            sym("fa1", 1),
            sym("u", 3),
            sym("v", 4),
            sym("fa2", 1),
            sym("u", 2),
            sym("v", 4),
            sym("fa3", 1),
            sym("w1", 2),
            sym("w2", 4),
            sym("fa4", 1),
            sym("w1", 4),
            sym("w2", 5),
            sym("fa5", 12),
            sym("fa6", 12),
        ];
        let b = vec![
            sym("x", 5),
            sym("y", 6),
            sym("z", 6),
            sym("gb1", 1),
            sym("x", 6),
            sym("y", 6),
            sym("z", 6),
            sym("gb2", 1),
            sym("u", 2),
            sym("v", 4),
            sym("gb3", 1),
            sym("u", 1),
            sym("v", 4),
            sym("gb4", 1),
            sym("w1", 3),
            sym("w2", 5),
            sym("gb5", 1),
            sym("w1", 2),
            sym("w2", 4),
        ];
        intern_pair(&a, &b)
    }

    #[test]
    fn worked_example_feature_vectors() {
        let (a, b) = paper_example();
        let kernel = KastKernel::new(KastOptions::with_cut_weight(4));
        let mut feats = kernel.features(&a, &b);
        feats.sort_by_key(|f| std::cmp::Reverse(f.len()));
        assert_eq!(feats.len(), 3);
        // S1 = x y z
        assert_eq!(feats[0].len(), 3);
        assert_eq!((feats[0].weight_a, feats[0].weight_b), (19, 35));
        assert_eq!(feats[0].starts_a, vec![0]);
        assert_eq!(feats[0].starts_b, vec![0, 4]);
        // S2/S3 both have length 2.
        let s2 = feats.iter().find(|f| f.weight_a == 13).expect("S2 present");
        assert_eq!(s2.weight_b, 11);
        let s3 = feats.iter().find(|f| f.weight_a == 15).expect("S3 present");
        assert_eq!(s3.weight_b, 14);
    }

    #[test]
    fn worked_example_kernel_values() {
        let (a, b) = paper_example();
        // Eq. (13) of the paper normalises by the weight product.
        let kernel = KastKernel::new(KastOptions {
            normalization: Normalization::WeightProduct,
            ..KastOptions::with_cut_weight(4)
        });
        assert_eq!(kernel.raw(&a, &b), 1018.0);
        assert_eq!(a.weight_at_least(4), 64);
        assert_eq!(b.weight_at_least(4), 52);
        let norm = kernel.normalized(&a, &b);
        assert!((norm - 1018.0 / 3328.0).abs() < 1e-12);
        assert!((norm - 0.3059).abs() < 1e-4, "paper quotes 0.3059, got {norm}");
    }

    #[test]
    fn worked_example_survives_any_occurrence_rule() {
        let (a, b) = paper_example();
        let kernel = KastKernel::new(KastOptions {
            cut_weight: 4,
            cut_rule: CutRule::AnyOccurrence,
            normalization: Normalization::WeightProduct,
        });
        assert_eq!(kernel.raw(&a, &b), 1018.0, "the permissive rule agrees here");
    }

    #[test]
    fn high_cut_weight_filters_everything() {
        let (a, b) = paper_example();
        let kernel = KastKernel::new(KastOptions::with_cut_weight(20));
        assert_eq!(kernel.raw(&a, &b), 0.0, "heaviest appearance weighs 19");
    }

    #[test]
    fn kernel_is_symmetric() {
        let (a, b) = paper_example();
        let kernel = KastKernel::new(KastOptions::with_cut_weight(4));
        assert_eq!(kernel.raw(&a, &b), kernel.raw(&b, &a));
        assert_eq!(kernel.normalized(&a, &b), kernel.normalized(&b, &a));
    }

    #[test]
    fn disjoint_strings_have_zero_kernel() {
        let (a, b) = intern_pair(&[sym("p", 5), sym("q", 5)], &[sym("r", 5), sym("s", 5)]);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(1));
        assert_eq!(kernel.raw(&a, &b), 0.0);
        assert_eq!(kernel.normalized(&a, &b), 0.0);
    }

    #[test]
    fn empty_strings_are_handled() {
        let (a, b) = intern_pair(&[], &[sym("p", 3)]);
        let kernel = KastKernel::default();
        assert_eq!(kernel.raw(&a, &b), 0.0);
        assert_eq!(kernel.normalized(&a, &a), 0.0);
    }

    #[test]
    fn identical_strings_weight_product_normalisation() {
        let toks = [sym("p", 4), sym("q", 6), sym("r", 8)];
        let (a, b) = intern_pair(&toks, &toks);
        let kernel = KastKernel::new(KastOptions {
            normalization: Normalization::WeightProduct,
            ..KastOptions::with_cut_weight(2)
        });
        // Single feature: the whole string, weight 18 on both sides.
        assert_eq!(kernel.raw(&a, &b), 18.0 * 18.0);
        assert_eq!(kernel.normalized(&a, &b), 1.0);
    }

    #[test]
    fn cosine_normalisation_is_default_and_one_on_identical_strings() {
        let toks = [sym("p", 4), sym("q", 6)];
        let (a, b) = intern_pair(&toks, &toks);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
        assert_eq!(kernel.options().normalization, Normalization::Cosine);
        assert!((kernel.normalized(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_token_runs_collapse_to_one_feature() {
        // a = t^5, b = t^3 → only t^3 is an independent shared substring.
        let a: Vec<WeightedToken> = (0..5).map(|_| sym("t", 2)).collect();
        let b: Vec<WeightedToken> = (0..3).map(|_| sym("t", 2)).collect();
        let (ia, ib) = intern_pair(&a, &b);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(1));
        let feats = kernel.features(&ia, &ib);
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].len(), 3);
        // Appearances in a: starts 0,1,2 → 3 × weight 6 = 18; in b: 6.
        assert_eq!(feats[0].weight_a, 18);
        assert_eq!(feats[0].weight_b, 6);
    }

    #[test]
    fn independent_shorter_match_is_kept() {
        // "p q r" shared; "q" also appears alone in b — so the candidate
        // [q] has an independent appearance and must be kept.
        let a = [sym("p", 2), sym("q", 2), sym("r", 2)];
        let b = [sym("p", 2), sym("q", 2), sym("r", 2), sym("zz", 1), sym("q", 9)];
        let (ia, ib) = intern_pair(&a, &b);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(1));
        let feats = kernel.features(&ia, &ib);
        let lens: Vec<usize> = feats.iter().map(|f| f.len()).collect();
        assert!(lens.contains(&3));
        assert!(lens.contains(&1), "independent [q] appearance must survive");
        let q = feats.iter().find(|f| f.len() == 1).unwrap();
        // All appearances count once kept: q appears at a[1] (2) and b[1], b[4] (2+9).
        assert_eq!(q.weight_a, 2);
        assert_eq!(q.weight_b, 11);
    }

    #[test]
    fn contained_match_is_dropped() {
        // "p q" shared twice via the longer "p q r"; the [p q] candidate's
        // appearances are all inside "p q r" appearances, so it is dropped.
        let a = [sym("p", 2), sym("q", 2), sym("r", 2)];
        let b = [sym("p", 3), sym("q", 3), sym("r", 3)];
        let (ia, ib) = intern_pair(&a, &b);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(1));
        let feats = kernel.features(&ia, &ib);
        assert_eq!(feats.len(), 1, "only the maximal match survives");
        assert_eq!(feats[0].len(), 3);
    }

    #[test]
    fn per_string_sum_rule() {
        // Feature appears once per string with weight 3 — AnyOccurrence at
        // cut 3 passes, PerStringSum at cut 4 fails, at cut 3 passes.
        let a = [sym("p", 3)];
        let b = [sym("p", 3)];
        let (ia, ib) = intern_pair(&a, &b);
        let mk = |rule, cut| {
            KastKernel::new(KastOptions {
                cut_weight: cut,
                cut_rule: rule,
                normalization: Normalization::WeightProduct,
            })
        };
        assert_eq!(mk(CutRule::AnyOccurrence, 3).raw(&ia, &ib), 9.0);
        assert_eq!(mk(CutRule::PerStringSum, 4).raw(&ia, &ib), 0.0);
        assert_eq!(mk(CutRule::PerStringSum, 3).raw(&ia, &ib), 9.0);
        assert_eq!(mk(CutRule::AllOccurrences, 4).raw(&ia, &ib), 0.0);
    }

    #[test]
    fn weight_differences_do_not_affect_matching() {
        let a = [sym("p", 1), sym("q", 100)];
        let b = [sym("p", 50), sym("q", 2)];
        let (ia, ib) = intern_pair(&a, &b);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(1));
        let feats = kernel.features(&ia, &ib);
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].len(), 2, "matching ignores weights entirely");
        assert_eq!(feats[0].weight_a, 101);
        assert_eq!(feats[0].weight_b, 52);
    }
}
