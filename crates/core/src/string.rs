//! Weighted strings and their interned form.
//!
//! §3.2: "A weighted string is a set of consecutive weighted tokens … The
//! weight of a string is the summation of the weights of its tokens."
//!
//! Kernels never compare [`TokenLiteral`]s directly; they operate on
//! [`IdString`]s, where every distinct literal has been interned to a dense
//! [`TokenId`] by a [`TokenInterner`]. Interning once per string makes the
//! Gram-matrix loops cheap `u32` comparisons.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::token::{TokenLiteral, WeightedToken};

/// A string of weighted tokens — the paper's representation of one I/O
/// access pattern.
///
/// # Examples
///
/// ```
/// use kastio_core::string::WeightedString;
/// use kastio_core::token::{TokenLiteral, WeightedToken};
///
/// let mut s = WeightedString::new();
/// s.push(WeightedToken::structural(TokenLiteral::Root));
/// s.push(WeightedToken::new(TokenLiteral::LevelUp, 2));
/// assert_eq!(s.total_weight(), 3);
/// assert_eq!(s.weight_at_least(2), 2);
/// assert_eq!(s.to_string(), "[ROOT]x1 [LEVEL_UP]x2");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedString {
    tokens: Vec<WeightedToken>,
}

impl WeightedString {
    /// Creates an empty weighted string.
    pub fn new() -> Self {
        WeightedString { tokens: Vec::new() }
    }

    /// Appends a token.
    pub fn push(&mut self, token: WeightedToken) {
        self.tokens.push(token);
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the string has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Iterates over the tokens.
    pub fn iter(&self) -> std::slice::Iter<'_, WeightedToken> {
        self.tokens.iter()
    }

    /// The tokens as a slice.
    pub fn as_slice(&self) -> &[WeightedToken] {
        &self.tokens
    }

    /// The weight of the string: the sum of all token weights.
    pub fn total_weight(&self) -> u64 {
        self.tokens.iter().map(|t| t.weight).sum()
    }

    /// `weight_{w≥n}`: the sum of the weights of the tokens whose weight is
    /// at least `n` — Eq. (1)/(2) of the paper, used by the paper's kernel
    /// normalisation.
    pub fn weight_at_least(&self, n: u64) -> u64 {
        self.tokens.iter().filter(|t| t.weight >= n).map(|t| t.weight).sum()
    }
}

impl FromIterator<WeightedToken> for WeightedString {
    fn from_iter<I: IntoIterator<Item = WeightedToken>>(iter: I) -> Self {
        WeightedString { tokens: iter.into_iter().collect() }
    }
}

impl Extend<WeightedToken> for WeightedString {
    fn extend<I: IntoIterator<Item = WeightedToken>>(&mut self, iter: I) {
        self.tokens.extend(iter);
    }
}

impl<'a> IntoIterator for &'a WeightedString {
    type Item = &'a WeightedToken;
    type IntoIter = std::slice::Iter<'a, WeightedToken>;

    fn into_iter(self) -> Self::IntoIter {
        self.tokens.iter()
    }
}

impl fmt::Display for WeightedString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Dense identifier assigned to a distinct token literal by a
/// [`TokenInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u32);

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Interns token literals to dense ids shared across many strings.
///
/// In theory "the number of different tokens is infinite" (§3.2); in
/// practice a dataset only ever contains a few hundred distinct literals,
/// so a dense `u32` id space makes kernel comparisons cheap.
///
/// # Invariant: one interner per comparison universe
///
/// Ids are assigned in first-seen order, so the same literal receives
/// *different* ids in different interners. Two [`IdString`]s are therefore
/// only comparable (by a kernel, or by eye in diagnostic output) when they
/// were interned by the **same** interner. Everything that compares many
/// strings — `kastio compare`, the Gram-matrix builders, the corpus index
/// — holds exactly one `TokenInterner` and runs every input through it.
/// Kernel *values* are unaffected by id numbering (only id equality
/// matters), but mixing interners silently turns equal literals into
/// unequal ids and vice versa, which corrupts results.
///
/// # Examples
///
/// ```
/// use kastio_core::string::{TokenInterner, WeightedString};
/// use kastio_core::token::{TokenLiteral, WeightedToken};
///
/// let mut interner = TokenInterner::new();
/// let s: WeightedString =
///     [WeightedToken::structural(TokenLiteral::Root)].into_iter().collect();
/// let ids = interner.intern_string(&s);
/// assert_eq!(ids.len(), 1);
/// assert_eq!(interner.resolve(ids.ids()[0]), Some(&TokenLiteral::Root));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: HashMap<TokenLiteral, TokenId>,
    rev: Vec<TokenLiteral>,
    /// Spilled bytes of the `Sym` literals in `rev`, kept as a running
    /// total so [`TokenInterner::approx_bytes`] need not walk `rev`.
    spilled: usize,
}

impl TokenInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        TokenInterner::default()
    }

    /// Interns one literal, returning its id (stable across calls).
    pub fn intern(&mut self, literal: &TokenLiteral) -> TokenId {
        if let Some(&id) = self.map.get(literal) {
            return id;
        }
        let id = TokenId(self.rev.len() as u32);
        self.map.insert(literal.clone(), id);
        let stored = literal.clone();
        if let TokenLiteral::Sym(s) = &stored {
            self.spilled += s.capacity();
        }
        self.rev.push(stored);
        id
    }

    /// Looks up the literal behind an id.
    pub fn resolve(&self, id: TokenId) -> Option<&TokenLiteral> {
        self.rev.get(id.0 as usize)
    }

    /// Number of distinct literals interned so far.
    pub fn len(&self) -> usize {
        self.rev.len()
    }

    /// Whether no literal has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.rev.is_empty()
    }

    /// Approximate heap footprint of the interner, in bytes.
    ///
    /// Counts both directions of the mapping (the hash map and the
    /// reverse vector) plus the spilled bytes of any `Sym` literals.
    /// The estimate is deterministic for a given set of interned
    /// literals, which is what quota accounting needs: the index
    /// charges the *growth* of this number after each intern batch
    /// against a report-only memory account. O(1): the spilled bytes
    /// are a running total kept by [`TokenInterner::intern`].
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(TokenLiteral, TokenId)>();
        // Each literal is stored twice (map key + rev entry); `Sym`
        // strings clone their bytes, so spilled bytes count twice too.
        self.map.capacity() * entry
            + self.rev.capacity() * std::mem::size_of::<TokenLiteral>()
            + 2 * self.spilled
    }

    /// Interns a whole weighted string into an [`IdString`].
    pub fn intern_string(&mut self, string: &WeightedString) -> IdString {
        let mut ids = Vec::with_capacity(string.len());
        let mut weights = Vec::with_capacity(string.len());
        for token in string {
            ids.push(self.intern(&token.literal));
            weights.push(token.weight);
        }
        IdString::from_parts(ids, weights)
    }
}

/// A weighted string after interning: parallel id and weight vectors.
///
/// This is the type every kernel consumes. Two `IdString`s are only
/// comparable when produced by the *same* interner.
///
/// Construction precomputes two weight accelerators so the kernel hot
/// path never rescans the weight vector:
///
/// * a prefix-sum array, making [`IdString::range_weight`] and
///   [`IdString::total_weight`] O(1);
/// * the weights sorted ascending with suffix sums, making
///   [`IdString::weight_at_least`] O(log n).
///
/// Both are integer sums, so the returned values are exactly the naive
/// rescan values (u64 addition is associative) — equality and identity of
/// an `IdString` are defined by `ids` and `weights` alone.
#[derive(Debug, Clone)]
pub struct IdString {
    ids: Vec<TokenId>,
    weights: Vec<u64>,
    /// `prefix[i]` = sum of `weights[..i]`; length `len() + 1`.
    prefix: Vec<u64>,
    /// The weights sorted ascending.
    sorted: Vec<u64>,
    /// `suffix[k]` = sum of `sorted[k..]`; length `len() + 1`.
    suffix: Vec<u64>,
}

impl Default for IdString {
    fn default() -> Self {
        IdString::from_parts(Vec::new(), Vec::new())
    }
}

impl PartialEq for IdString {
    fn eq(&self, other: &Self) -> bool {
        // The accelerator arrays are pure functions of `weights`.
        self.ids == other.ids && self.weights == other.weights
    }
}

impl Eq for IdString {}

impl Hash for IdString {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Consistent with `PartialEq`: the accelerator arrays are pure
        // functions of `weights`.
        self.ids.hash(state);
        self.weights.hash(state);
    }
}

impl IdString {
    /// Builds an id string directly from ids and weights.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn from_parts(ids: Vec<TokenId>, weights: Vec<u64>) -> Self {
        assert_eq!(ids.len(), weights.len(), "ids and weights must align");
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        let mut sorted = weights.clone();
        sorted.sort_unstable();
        let mut suffix = vec![0u64; sorted.len() + 1];
        for k in (0..sorted.len()).rev() {
            suffix[k] = suffix[k + 1] + sorted[k];
        }
        IdString { ids, weights, prefix, sorted, suffix }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the string has no tokens.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The token ids.
    pub fn ids(&self) -> &[TokenId] {
        &self.ids
    }

    /// The token weights (parallel to [`IdString::ids`]).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The weight of the string: the sum of all token weights. O(1).
    pub fn total_weight(&self) -> u64 {
        *self.prefix.last().expect("prefix array is never empty")
    }

    /// `weight_{w≥n}`: sum of the weights of tokens whose weight ≥ `n`.
    ///
    /// O(log n) via the precomputed sorted-weight suffix sums; exactly
    /// equal to the naive filtered sum (integer addition is associative).
    pub fn weight_at_least(&self, n: u64) -> u64 {
        let from = self.sorted.partition_point(|&w| w < n);
        self.suffix[from]
    }

    /// Sum of the weights over the token range `[start, start + len)`.
    ///
    /// O(1) via the precomputed prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the string length.
    pub fn range_weight(&self, start: usize, len: usize) -> u64 {
        self.prefix[start + len] - self.prefix[start]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{ByteSig, OpLiteral};

    fn op(name: &str, bytes: u64, weight: u64) -> WeightedToken {
        WeightedToken::new(TokenLiteral::Op(OpLiteral::new(name, ByteSig::single(bytes))), weight)
    }

    #[test]
    fn weights_sum() {
        let s: WeightedString = [op("read", 8, 3), op("write", 8, 5)].into_iter().collect();
        assert_eq!(s.total_weight(), 8);
        assert_eq!(s.weight_at_least(4), 5);
        assert_eq!(s.weight_at_least(6), 0);
    }

    #[test]
    fn interner_footprint_grows_with_interned_literals() {
        let mut i = TokenInterner::new();
        assert_eq!(i.approx_bytes(), 0, "an empty interner holds nothing");
        i.intern(&TokenLiteral::Root);
        let small = i.approx_bytes();
        assert!(small > 0);
        let sym = "a".repeat(1024);
        i.intern(&TokenLiteral::Sym(sym.clone()));
        let with_sym = i.approx_bytes();
        assert!(
            with_sym >= small + 2 * sym.len(),
            "Sym bytes are stored twice (map key + rev): {small} -> {with_sym}"
        );
        // Deterministic for the same contents: re-interning changes nothing.
        i.intern(&TokenLiteral::Root);
        i.intern(&TokenLiteral::Sym(sym));
        assert_eq!(i.approx_bytes(), with_sym);
    }

    #[test]
    fn interner_footprint_equals_a_walk_of_its_literals() {
        let mut i = TokenInterner::new();
        for n in 0..40u64 {
            i.intern(&op("write", 4096 + n % 7, 1).literal);
            i.intern(&TokenLiteral::Sym(format!("sym-{n}-").repeat(1 + n as usize % 5)));
            i.intern(&TokenLiteral::Root);
        }
        let spilled: usize = i
            .rev
            .iter()
            .map(|literal| match literal {
                TokenLiteral::Sym(s) => s.capacity(),
                _ => 0,
            })
            .sum();
        let walk = i.map.capacity() * std::mem::size_of::<(TokenLiteral, TokenId)>()
            + i.rev.capacity() * std::mem::size_of::<TokenLiteral>()
            + 2 * spilled;
        assert_eq!(i.approx_bytes(), walk);
    }

    #[test]
    fn interner_is_stable_and_dedups() {
        let mut i = TokenInterner::new();
        let a = i.intern(&TokenLiteral::Root);
        let b = i.intern(&TokenLiteral::Handle);
        let a2 = i.intern(&TokenLiteral::Root);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(b), Some(&TokenLiteral::Handle));
        assert_eq!(i.resolve(TokenId(99)), None);
    }

    #[test]
    fn intern_string_preserves_weights_and_order() {
        let mut i = TokenInterner::new();
        let s: WeightedString =
            [op("read", 8, 3), op("read", 8, 7), op("write", 4, 1)].into_iter().collect();
        let ids = i.intern_string(&s);
        assert_eq!(ids.len(), 3);
        assert_eq!(ids.ids()[0], ids.ids()[1]); // same literal, same id
        assert_ne!(ids.ids()[0], ids.ids()[2]);
        assert_eq!(ids.weights(), &[3, 7, 1]);
        assert_eq!(ids.total_weight(), 11);
        assert_eq!(ids.weight_at_least(3), 10);
        assert_eq!(ids.range_weight(1, 2), 8);
    }

    #[test]
    fn same_literal_same_id_across_strings() {
        let mut i = TokenInterner::new();
        let s1: WeightedString = [op("read", 8, 1)].into_iter().collect();
        let s2: WeightedString = [op("read", 8, 9)].into_iter().collect();
        let a = i.intern_string(&s1);
        let b = i.intern_string(&s2);
        assert_eq!(a.ids()[0], b.ids()[0]);
        assert_ne!(a.weights()[0], b.weights()[0]);
    }

    #[test]
    fn weight_accelerators_match_naive_rescan() {
        let mut i = TokenInterner::new();
        let s: WeightedString =
            [op("a", 8, 5), op("b", 4, 1), op("a", 8, 3), op("c", 2, 7)].into_iter().collect();
        let ids = i.intern_string(&s);
        for n in 0..=9u64 {
            let naive: u64 = ids.weights().iter().filter(|&&w| w >= n).sum();
            assert_eq!(ids.weight_at_least(n), naive, "weight_at_least({n})");
        }
        for start in 0..=ids.len() {
            for len in 0..=ids.len() - start {
                let naive: u64 = ids.weights()[start..start + len].iter().sum();
                assert_eq!(ids.range_weight(start, len), naive, "range_weight({start},{len})");
            }
        }
        assert_eq!(IdString::default().total_weight(), 0);
        assert_eq!(IdString::default().weight_at_least(1), 0);
        assert_eq!(IdString::default().range_weight(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn from_parts_validates() {
        let _ = IdString::from_parts(vec![TokenId(0)], vec![]);
    }

    #[test]
    fn display_joins_tokens() {
        let s: WeightedString = [op("read", 8, 3)].into_iter().collect();
        assert_eq!(s.to_string(), "read[8]x3");
    }

    #[test]
    fn empty_string_invariants() {
        let s = WeightedString::new();
        assert!(s.is_empty());
        assert_eq!(s.total_weight(), 0);
        let mut i = TokenInterner::new();
        let ids = i.intern_string(&s);
        assert!(ids.is_empty());
        assert!(i.is_empty());
    }
}
