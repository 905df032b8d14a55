//! The query memo: what a [`crate::PatternIndex`] remembers about the
//! queries it has answered.
//!
//! The Kast kernel is quadratic in string length per pair, and query
//! traffic repeats: monitoring systems re-submit the same workload, and
//! classifiers probe the same neighbourhoods. [`QueryMemo`] maps a
//! query's interned string to the query's self-kernel and the raw kernel
//! value of each of its current candidates, so a repeated query scores
//! nothing it scored before. The key is the string itself, never a hash
//! of it: a collision would serve a wrong kernel value. Entry ids are
//! never reused, so a remembered `(query, entry id)` value stays exact.
//!
//! # Bound: two generations
//!
//! New queries go into a young generation. When storing a query would
//! take the young generation past `capacity` pairs or `capacity`
//! queries, it becomes the old generation first, and the previous old
//! one is dropped. A query recalled from the old generation moves back to
//! the young one with all its pairs, so a query asked again within two
//! generations keeps its pairs, whatever else arrives. The memo thus
//! holds at most `2 × capacity` pairs and `2 × capacity` queries, and
//! capacity 0 remembers nothing.
//!
//! # Locking
//!
//! One mutex guards both generations. A query takes it once, after its
//! corpus scan, to [`recall`](QueryMemo::recall) everything the memo
//! knows about it, and a second time only if it computed something, to
//! [`remember`](QueryMemo::remember) its whole candidate set. Callers
//! hold no other lock when they call in, and the memo takes none under
//! its own. Quota charges and releases happen with the memo lock
//! released, since a charge can run the quota's reclaimer, which
//! [`clear`](QueryMemo::clear)s the memo. A record is charged before it
//! is stored, so whatever frees it later releases bytes that were
//! already charged, and a dropped generation is freed after the lock is
//! released.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use kastio_core::{IdString, TokenId};
use kastio_quota::Account;

use crate::entry::EntryId;

/// Bytes each remembered pair is charged against the memo's account: a
/// round over-estimate of its slot in the record plus its share of the
/// record's map entry.
const PAIR_COST_BYTES: u64 = 64;

/// What the memo knows about one query.
#[derive(Debug)]
struct Record {
    self_kernel: Option<f64>,
    /// Raw kernel values of the query's candidates, sorted by entry id.
    pairs: Vec<(EntryId, f64)>,
    /// Bytes charged for this record; 0 when no account is attached.
    charged: u64,
}

impl Record {
    /// The self-kernel, and the value of each candidate the record holds.
    fn recall(&self, candidates: impl Iterator<Item = EntryId>) -> (Option<f64>, Vec<Option<f64>>) {
        let values = candidates
            .map(|id| {
                let at = self.pairs.binary_search_by_key(&id, |&(entry, _)| entry).ok()?;
                Some(self.pairs[at].1)
            })
            .collect();
        (self.self_kernel, values)
    }
}

/// One generation of records, with the totals the bound and the account
/// need.
#[derive(Debug, Default)]
struct Generation {
    records: HashMap<IdString, Record>,
    pairs: usize,
    charged: u64,
}

impl Generation {
    fn insert(&mut self, query: IdString, record: Record) {
        self.pairs += record.pairs.len();
        self.charged += record.charged;
        self.records.insert(query, record);
    }

    fn remove(&mut self, query: &IdString) -> Option<(IdString, Record)> {
        let (query, record) = self.records.remove_entry(query)?;
        self.pairs -= record.pairs.len();
        self.charged -= record.charged;
        Some((query, record))
    }
}

#[derive(Debug, Default)]
struct Generations {
    young: Generation,
    old: Generation,
}

impl Generations {
    /// Puts a record into the young generation, which first becomes the
    /// old one if the record would take it past `capacity` pairs or
    /// queries. Returns the generation that rotation dropped, for the
    /// caller to free once the lock is released. The record holds at most
    /// `capacity` pairs, so it fits an empty generation.
    fn store(&mut self, query: IdString, record: Record, capacity: usize) -> Option<Generation> {
        let young = &self.young;
        let dropped = (young.records.len() >= capacity
            || young.pairs + record.pairs.len() > capacity)
            .then(|| std::mem::replace(&mut self.old, std::mem::take(&mut self.young)));
        self.young.insert(query, record);
        dropped
    }
}

/// The content-keyed, two-generation memo of a [`crate::PatternIndex`]:
/// see the [module docs](self).
#[derive(Debug)]
pub(crate) struct QueryMemo {
    capacity: usize,
    generations: Mutex<Generations>,
    account: OnceLock<Account>,
}

impl QueryMemo {
    /// A memo whose generations each hold at most `capacity` pairs and
    /// `capacity` queries. Capacity 0 remembers nothing.
    pub(crate) fn new(capacity: usize) -> Self {
        QueryMemo {
            capacity,
            generations: Mutex::new(Generations::default()),
            account: OnceLock::new(),
        }
    }

    /// Attaches the account stored records are charged against. At most
    /// one account sticks; later calls are ignored.
    pub(crate) fn attach_account(&self, account: Account) {
        let _ = self.account.set(account);
    }

    /// Pairs held in both generations.
    pub(crate) fn len(&self) -> usize {
        let generations = self.lock();
        generations.young.pairs + generations.old.pairs
    }

    /// Everything the memo knows about `query`, in one lock: its
    /// self-kernel and the raw value of each of `candidates`. A query
    /// found in the old generation moves to the young one with all its
    /// pairs.
    pub(crate) fn recall(
        &self,
        query: &IdString,
        candidates: impl Iterator<Item = EntryId>,
    ) -> (Option<f64>, Vec<Option<f64>>) {
        if self.capacity == 0 {
            return (None, candidates.map(|_| None).collect());
        }
        let mut generations = self.lock();
        if let Some(record) = generations.young.records.get(query) {
            return record.recall(candidates);
        }
        let Some((query, record)) = generations.old.remove(query) else {
            return (None, candidates.map(|_| None).collect());
        };
        let recalled = record.recall(candidates);
        let dropped = generations.store(query, record, self.capacity);
        drop(generations);
        self.free(0, dropped);
        recalled
    }

    /// Stores `query`'s self-kernel and the raw values of its whole
    /// current candidate set, replacing whatever the query held: pairs of
    /// candidates it no longer has are forgotten. A query with more
    /// candidates than the capacity keeps the lowest `capacity` entry
    /// ids.
    pub(crate) fn remember(
        &self,
        query: &IdString,
        self_kernel: Option<f64>,
        mut pairs: Vec<(EntryId, f64)>,
    ) {
        if self.capacity == 0 {
            return;
        }
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.truncate(self.capacity);
        let charged = self.account.get().map_or(0, |account| {
            let bytes = record_bytes(query, pairs.len());
            account.charge(bytes);
            bytes
        });
        let record = Record { self_kernel, pairs, charged };
        let mut guard = self.lock();
        let generations = &mut *guard;
        let (query, replaced) =
            match generations.young.remove(query).or_else(|| generations.old.remove(query)) {
                Some((query, replaced)) => (query, replaced.charged),
                None => (query.clone(), 0),
            };
        let dropped = generations.store(query, record, self.capacity);
        drop(guard);
        self.free(replaced, dropped);
    }

    /// Forgets everything, releasing what was charged for it. Returns the
    /// bytes released: the shape the quota's reclaimer reports back.
    pub(crate) fn clear(&self) -> u64 {
        let Generations { young, old } = std::mem::take(&mut *self.lock());
        let freed = young.charged + old.charged;
        self.free(freed, None);
        freed
    }

    /// Releases `bytes` plus what `dropped` was charged, then drops it.
    /// Called with the memo lock released.
    fn free(&self, bytes: u64, dropped: Option<Generation>) {
        let bytes = bytes + dropped.map_or(0, |generation| generation.charged);
        if bytes > 0 {
            if let Some(account) = self.account.get() {
                account.release(bytes);
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, Generations> {
        // Every update keeps the totals consistent with the maps (an
        // allocation failure aborts), so a poisoned lock is safe to reuse.
        self.generations.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Approximate bytes a record keeps alive: its map slot, its key's five
/// vectors (the ids, and the weights with their three accelerator
/// columns, see [`IdString`]) and [`PAIR_COST_BYTES`] per pair.
fn record_bytes(query: &IdString, pairs: usize) -> u64 {
    let slot = std::mem::size_of::<(IdString, Record)>();
    let key = query.len() * (std::mem::size_of::<TokenId>() + 4 * std::mem::size_of::<u64>());
    (slot + key) as u64 + pairs as u64 * PAIR_COST_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_quota::MemoryQuota;

    fn query(n: u32) -> IdString {
        IdString::from_parts(vec![TokenId(n), TokenId(n + 1)], vec![1, 2])
    }

    fn pairs(ids: std::ops::Range<u32>) -> Vec<(EntryId, f64)> {
        ids.map(|id| (EntryId(id), f64::from(id) + 0.5)).collect()
    }

    fn ids(ids: std::ops::Range<u32>) -> impl Iterator<Item = EntryId> {
        ids.map(EntryId)
    }

    fn queries(memo: &QueryMemo) -> usize {
        let generations = memo.lock();
        generations.young.records.len() + generations.old.records.len()
    }

    /// Bytes the records in both generations keep alive.
    fn held(memo: &QueryMemo) -> u64 {
        let generations = memo.lock();
        [&generations.young, &generations.old]
            .iter()
            .flat_map(|generation| &generation.records)
            .map(|(query, record)| record_bytes(query, record.pairs.len()))
            .sum()
    }

    #[test]
    fn the_bound_holds_under_churn() {
        let memo = QueryMemo::new(16);
        for n in 0..1000 {
            memo.remember(&query(n), Some(1.0), pairs(0..1 + n % 5));
            assert!(memo.len() <= 2 * 16, "{} pairs after {n} queries", memo.len());
            assert!(queries(&memo) <= 2 * 16, "{} queries after {n}", queries(&memo));
        }
        // The latest query is always held, with all its pairs.
        let (self_kernel, values) = memo.recall(&query(999), ids(0..5));
        assert_eq!(self_kernel, Some(1.0));
        assert_eq!(values, vec![Some(0.5), Some(1.5), Some(2.5), Some(3.5), Some(4.5)]);
        // Too many candidates for the capacity: the lowest ids are kept.
        memo.remember(&query(5000), None, pairs(0..40));
        assert_eq!(memo.recall(&query(5000), ids(15..17)).1, vec![Some(15.5), None]);
        assert!(memo.len() <= 2 * 16);
    }

    #[test]
    fn zero_capacity_remembers_nothing() {
        let memo = QueryMemo::new(0);
        memo.remember(&query(1), Some(2.0), pairs(0..3));
        assert_eq!(memo.recall(&query(1), ids(0..3)), (None, vec![None; 3]));
        assert_eq!(memo.len(), 0);
        assert_eq!(queries(&memo), 0);
    }

    #[test]
    fn zero_capacity_charges_nothing() {
        let quota = MemoryQuota::unlimited();
        let memo = QueryMemo::new(0);
        memo.attach_account(quota.account());
        memo.remember(&query(1), Some(2.0), pairs(0..3));
        assert_eq!(memo.recall(&query(1), ids(0..3)), (None, vec![None; 3]));
        assert_eq!(quota.used(), 0);
        assert_eq!(memo.clear(), 0);
    }

    #[test]
    fn recall_on_an_empty_memo_misses() {
        let memo = QueryMemo::new(4);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.recall(&query(0), ids(0..2)), (None, vec![None; 2]));
        assert_eq!(queries(&memo), 0, "a miss stores nothing");
    }

    #[test]
    fn remember_replaces_what_the_query_held() {
        let memo = QueryMemo::new(64);
        memo.remember(&query(1), Some(2.0), pairs(0..3));
        memo.remember(&query(1), Some(2.0), pairs(2..4));
        let recalled = memo.recall(&query(1), ids(0..4));
        assert_eq!(recalled, (Some(2.0), vec![None, None, Some(2.5), Some(3.5)]));
        assert_eq!(memo.len(), 2, "the pairs of candidates the query lost are forgotten");
        assert_eq!(memo.recall(&query(7), ids(0..2)), (None, vec![None; 2]), "unknown query");
    }

    #[test]
    fn a_query_found_in_the_old_generation_moves_to_the_young_one() {
        // Each query holds 2 pairs, so a generation holds 2 queries.
        let memo = QueryMemo::new(4);
        memo.remember(&query(0), Some(1.0), pairs(0..2));
        memo.remember(&query(10), Some(1.0), pairs(0..2));
        memo.remember(&query(20), Some(1.0), pairs(0..2)); // old {0, 10}, young {20}
        assert_eq!(memo.recall(&query(0), ids(0..2)).1, vec![Some(0.5), Some(1.5)]);
        // Query 0 moved to the young generation, so this rotation keeps
        // it and drops query 10.
        memo.remember(&query(30), Some(1.0), pairs(0..2)); // old {20, 0}, young {30}
        assert_eq!(memo.recall(&query(0), ids(0..2)).1, vec![Some(0.5), Some(1.5)]);
        assert_eq!(memo.recall(&query(10), ids(0..2)), (None, vec![None; 2]));
        assert_eq!(memo.recall(&query(20), ids(0..2)).0, Some(1.0));
    }

    #[test]
    fn the_account_is_charged_and_released() {
        let quota = MemoryQuota::unlimited();
        let memo = QueryMemo::new(16);
        memo.attach_account(quota.account());
        memo.remember(&query(0), Some(1.0), pairs(0..4));
        assert_eq!(quota.used(), record_bytes(&query(0), 4));
        memo.remember(&query(0), Some(1.0), pairs(0..2));
        assert_eq!(quota.used(), record_bytes(&query(0), 2), "a replaced record is released");
        memo.remember(&query(1), None, pairs(0..3));
        let charged = record_bytes(&query(0), 2) + record_bytes(&query(1), 3);
        assert_eq!(quota.used(), charged);
        assert_eq!(memo.clear(), charged, "clear reports the bytes it released");
        assert_eq!(quota.used(), 0);
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn rotation_does_not_leak_charges() {
        let quota = MemoryQuota::unlimited();
        let memo = QueryMemo::new(16);
        memo.attach_account(quota.account());
        for n in 0..200 {
            memo.remember(&query(n), Some(1.0), pairs(0..1 + n % 3));
            memo.recall(&query(n / 2), ids(0..3));
            assert_eq!(quota.used(), held(&memo), "after query {n}");
        }
        assert!(memo.len() <= 2 * 16);
        let freed = memo.clear();
        assert!(freed > 0);
        assert_eq!(quota.used(), 0);
    }

    #[test]
    fn clear_empties_but_keeps_working() {
        let quota = MemoryQuota::unlimited();
        let memo = QueryMemo::new(16);
        memo.attach_account(quota.account());
        memo.remember(&query(0), Some(1.0), pairs(0..2));
        assert!(memo.clear() > 0);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.recall(&query(0), ids(0..2)), (None, vec![None; 2]), "cleared");
        memo.remember(&query(1), Some(1.0), pairs(0..1));
        assert_eq!(memo.recall(&query(1), ids(0..1)).1, vec![Some(0.5)]);
        assert_eq!(quota.used(), record_bytes(&query(1), 1));
    }

    #[test]
    fn a_cleared_memo_keeps_its_capacity() {
        // Each query holds 2 pairs, so a generation holds 2 queries.
        let memo = QueryMemo::new(4);
        for n in 0..3 {
            memo.remember(&query(n * 10), None, pairs(0..2));
        }
        memo.clear();
        for n in 0..4 {
            memo.remember(&query(n * 10), None, pairs(0..2));
        }
        assert_eq!(memo.len(), 8, "two full generations");
        memo.remember(&query(40), None, pairs(0..2));
        assert_eq!(memo.len(), 6, "the next query rotates at the same capacity");
    }

    #[test]
    fn concurrent_use_stays_consistent() {
        let quota = MemoryQuota::unlimited();
        let memo = QueryMemo::new(64);
        memo.attach_account(quota.account());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..300 {
                        let q = query(t * 10_000 + i % 50 * 2);
                        let (_, values) = memo.recall(&q, ids(0..4));
                        // A query either holds all four pairs or has been
                        // rotated out; its values never change.
                        if values.iter().any(Option::is_none) {
                            memo.remember(&q, Some(f64::from(t)), pairs(0..4));
                        } else {
                            assert_eq!(
                                values,
                                pairs(0..4).iter().map(|p| Some(p.1)).collect::<Vec<_>>()
                            );
                        }
                    }
                });
            }
        });
        assert!(memo.len() <= 2 * 64);
        assert!(queries(&memo) <= 2 * 64);
        memo.clear();
        assert_eq!(quota.used(), 0, "no charge outlives the records it paid for");
    }
}
