//! A small fixed-capacity LRU map for pairwise kernel values.
//!
//! The Kast kernel is by far the most expensive operation in the serving
//! path (quadratic in string length per pair). Query traffic is heavily
//! repetitive — monitoring systems re-submit the same workload, batch
//! classifiers probe the same neighbourhoods — so an LRU over
//! `(query, entry) → raw kernel value` turns the second occurrence of a
//! pair into a hash lookup.
//!
//! Implemented as a `HashMap` into a slab of doubly-linked nodes, giving
//! O(1) get/insert/evict without any external dependency.
//!
//! A [`crate::PatternIndex`] owns **one** [`SharedKernelCache`]: a
//! byte-accounted pool of `KernelCache` stripes, sized by
//! [`crate::IndexOptions::cache_capacity`] in total. Keys are
//! `(query id, entry id)`, so which stripe holds a pair is a pure
//! function of the pair. Striping (one stripe per 1,024 pairs of
//! capacity, rounded to a power of two, at most 16) keeps concurrent
//! queries from serialising on one mutex, while a small cache stays one
//! stripe with exact LRU order; the single-threaded `KernelCache`
//! underneath stays free of any synchronisation of its own. Byte usage
//! is charged to an optional [`kastio_quota::Account`], making the cache
//! the natural reclaim target when the daemon's memory budget comes
//! under pressure.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use kastio_quota::Account;

/// Cache key: the query's dense content id (assigned by the index's query
/// registry — deliberately *not* a hash, since a collision would silently
/// serve the wrong kernel value) plus the entry id.
pub type PairKey = (u64, u32);

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: PairKey,
    value: f64,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map `PairKey → f64`.
///
/// Capacity 0 disables caching entirely (every lookup misses, inserts are
/// dropped) — useful for measuring the uncached path.
///
/// # Examples
///
/// ```
/// use kastio_index::lru::KernelCache;
///
/// let mut cache = KernelCache::new(2);
/// cache.insert((1, 0), 0.5);
/// cache.insert((2, 0), 0.25);
/// assert_eq!(cache.get((1, 0)), Some(0.5)); // (1,0) is now most recent
/// cache.insert((3, 0), 0.125);              // evicts (2,0)
/// assert_eq!(cache.get((2, 0)), None);
/// assert_eq!(cache.get((1, 0)), Some(0.5));
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct KernelCache {
    capacity: usize,
    map: HashMap<PairKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

/// Approximate bytes one cached pair occupies: the `HashMap` entry
/// (key + slot index + bucket overhead) plus the slab node. Used to
/// charge cache growth against a [`kastio_quota::Account`] and to bound
/// the up-front `HashMap` pre-allocation.
pub const PAIR_COST_BYTES: usize = 64;

/// Upper bound on bytes [`KernelCache::new`] pre-reserves for its map.
/// Larger configured capacities still work — the map just grows on
/// demand instead of being reserved before a single pair is cached.
const PREALLOC_BUDGET_BYTES: usize = 1 << 20;

impl KernelCache {
    /// Creates a cache holding at most `capacity` pairs.
    pub fn new(capacity: usize) -> Self {
        KernelCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(PREALLOC_BUDGET_BYTES / PAIR_COST_BYTES)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a pair, marking it most-recently used on a hit.
    pub fn get(&mut self, key: PairKey) -> Option<f64> {
        let &slot = self.map.get(&key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.nodes[slot].value)
    }

    /// Inserts (or refreshes) a pair, evicting the least-recently used
    /// pair when full. A no-op at capacity 0.
    pub fn insert(&mut self, key: PairKey, value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.nodes[lru].key);
            self.free.push(lru);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = Node { key, value, prev: NIL, next: NIL };
                slot
            }
            None => {
                self.nodes.push(Node { key, value, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// Drops every cached pair, keeping the allocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use kastio_index::lru::KernelCache;
    ///
    /// let mut cache = KernelCache::new(4);
    /// cache.insert((1, 0), 0.5);
    /// cache.clear();
    /// assert!(cache.is_empty());
    /// assert_eq!(cache.capacity(), 4, "capacity survives a clear");
    /// ```
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// The byte-accounted kernel cache of a [`crate::PatternIndex`], shared
/// by all its queries.
///
/// The total pair capacity is split across a small power-of-two number
/// of mutex-guarded [`KernelCache`] stripes so concurrent queries rarely
/// contend on the same lock. A pair's stripe is a pure function of its
/// `(query id, entry id)` key.
///
/// When an [`Account`] is attached, each newly cached pair charges
/// [`PAIR_COST_BYTES`] against it and [`clear`](SharedKernelCache::clear)
/// releases what it frees — which is exactly what makes the cache a
/// useful reclaim target under memory pressure. Charging happens *after*
/// the stripe lock is released, so a charge that triggers quota reclaim
/// (which clears these very stripes) can never deadlock.
#[derive(Debug)]
pub struct SharedKernelCache {
    stripes: Vec<Mutex<KernelCache>>,
    /// `stripes.len() - 1`; stripe count is always a power of two.
    stripe_mask: usize,
    total_capacity: usize,
    account: OnceLock<Account>,
}

/// Pairs of capacity per stripe: the daemon's default 4,096-pair cache
/// gets four stripes, and a cache under 2,048 pairs one.
const PAIRS_PER_STRIPE: usize = 1024;

/// Most stripes a cache will ever be split into.
const MAX_STRIPES: usize = 16;

impl SharedKernelCache {
    /// Creates a cache holding at most `capacity` pairs in total, in one
    /// stripe per 1,024 pairs, rounded up to a power of two and capped at
    /// 16. Capacity 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        let stripes = (capacity / PAIRS_PER_STRIPE).clamp(1, MAX_STRIPES).next_power_of_two();
        let per_stripe = if capacity == 0 { 0 } else { capacity.div_ceil(stripes) };
        SharedKernelCache {
            stripes: (0..stripes).map(|_| Mutex::new(KernelCache::new(per_stripe))).collect(),
            stripe_mask: stripes - 1,
            total_capacity: capacity,
            account: OnceLock::new(),
        }
    }

    /// Attaches the byte account cache growth is charged against. At most
    /// one account sticks; later calls are ignored.
    pub fn attach_account(&self, account: Account) {
        let _ = self.account.set(account);
    }

    /// Total configured pair capacity across all stripes.
    pub fn capacity(&self) -> usize {
        self.total_capacity
    }

    /// Number of pairs currently cached across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_stripe(s).len()).sum()
    }

    /// Whether no stripe holds anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes the cached pairs occupy.
    pub fn approx_bytes(&self) -> u64 {
        (self.len() * PAIR_COST_BYTES) as u64
    }

    fn stripe_of(&self, (query, entry): PairKey) -> usize {
        // Fibonacci mixing over both halves of the key; the high bits are
        // the well-mixed ones, so take the stripe index from the top.
        let mixed = (query.rotate_left(32) ^ u64::from(entry)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 48) as usize & self.stripe_mask
    }

    /// Looks up a pair, marking it most-recently used within its stripe.
    pub fn get(&self, key: PairKey) -> Option<f64> {
        lock_stripe(&self.stripes[self.stripe_of(key)]).get(key)
    }

    /// Inserts (or refreshes) a pair, evicting within the stripe when
    /// full, and charges any net growth to the attached account.
    pub fn insert(&self, key: PairKey, value: f64) {
        if self.total_capacity == 0 {
            return;
        }
        let grew = {
            let mut stripe = lock_stripe(&self.stripes[self.stripe_of(key)]);
            let before = stripe.len();
            stripe.insert(key, value);
            stripe.len() > before
        };
        // Charged outside the stripe lock: a reclaim triggered here may
        // clear the stripes, and must be able to lock them.
        if grew {
            if let Some(account) = self.account.get() {
                account.charge(PAIR_COST_BYTES as u64);
            }
        }
    }

    /// Drops every cached pair, releasing the freed bytes from the
    /// attached account. Returns the number of bytes freed — the shape
    /// quota reclaimers report back.
    pub fn clear(&self) -> u64 {
        let mut removed = 0usize;
        for stripe in &self.stripes {
            let mut guard = lock_stripe(stripe);
            removed += guard.len();
            guard.clear();
        }
        let bytes = (removed * PAIR_COST_BYTES) as u64;
        if bytes > 0 {
            if let Some(account) = self.account.get() {
                account.release(bytes);
            }
        }
        bytes
    }
}

/// Stripe locks guard a plain cache — a panic mid-operation cannot leave
/// it logically corrupt, so a poisoned lock is safe to keep using.
fn lock_stripe(stripe: &Mutex<KernelCache>) -> MutexGuard<'_, KernelCache> {
    stripe.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_on_empty_misses() {
        let mut c = KernelCache::new(4);
        assert!(c.is_empty());
        assert_eq!(c.get((0, 0)), None);
    }

    #[test]
    fn insert_then_get_hits() {
        let mut c = KernelCache::new(4);
        c.insert((9, 3), 1.25);
        assert_eq!(c.get((9, 3)), Some(1.25));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = KernelCache::new(3);
        for i in 0..3u32 {
            c.insert((i as u64, i), i as f64);
        }
        // Touch (0,0) so (1,1) becomes the LRU.
        assert!(c.get((0, 0)).is_some());
        c.insert((3, 3), 3.0);
        assert_eq!(c.get((1, 1)), None, "the untouched pair is evicted");
        assert!(c.get((0, 0)).is_some());
        assert!(c.get((2, 2)).is_some());
        assert!(c.get((3, 3)).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = KernelCache::new(2);
        c.insert((1, 1), 1.0);
        c.insert((2, 2), 2.0);
        c.insert((1, 1), 10.0); // refresh: (2,2) is now LRU
        c.insert((3, 3), 3.0);
        assert_eq!(c.get((2, 2)), None);
        assert_eq!(c.get((1, 1)), Some(10.0));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = KernelCache::new(0);
        c.insert((1, 1), 1.0);
        assert_eq!(c.get((1, 1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_working() {
        let mut c = KernelCache::new(2);
        c.insert((1, 1), 1.0);
        c.clear();
        assert!(c.is_empty());
        c.insert((2, 2), 2.0);
        assert_eq!(c.get((2, 2)), Some(2.0));
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = KernelCache::new(16);
        for i in 0..1000u32 {
            c.insert((i as u64, i), i as f64);
            assert!(c.len() <= 16);
        }
        // The 16 most recent survive.
        for i in 984..1000u32 {
            assert_eq!(c.get((i as u64, i)), Some(i as f64));
        }
    }

    #[test]
    fn shared_cache_roundtrips_across_stripes() {
        let cache = SharedKernelCache::new(8192);
        assert_eq!(cache.stripes.len(), 8);
        for i in 0..100u32 {
            cache.insert((u64::from(i) * 37, i), f64::from(i));
        }
        assert_eq!(cache.len(), 100);
        for i in 0..100u32 {
            assert_eq!(cache.get((u64::from(i) * 37, i)), Some(f64::from(i)));
        }
    }

    #[test]
    fn shared_cache_single_shard_uses_one_stripe() {
        let cache = SharedKernelCache::new(2);
        assert_eq!(cache.stripes.len(), 1, "a small cache keeps exact LRU order");
        cache.insert((1, 1), 1.0);
        cache.insert((2, 2), 2.0);
        cache.insert((3, 3), 3.0); // evicts (1,1)
        assert_eq!(cache.get((1, 1)), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_zero_capacity_disables_caching() {
        let cache = SharedKernelCache::new(0);
        cache.insert((1, 1), 1.0);
        assert_eq!(cache.get((1, 1)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_charges_and_releases_its_account() {
        let quota = kastio_quota::MemoryQuota::unlimited();
        let cache = SharedKernelCache::new(64);
        cache.attach_account(quota.account("cache"));
        for i in 0..10u32 {
            cache.insert((u64::from(i), i), 0.5);
        }
        assert_eq!(quota.used(), 10 * PAIR_COST_BYTES as u64);
        // Refreshing an existing pair grows nothing.
        cache.insert((0, 0), 0.75);
        assert_eq!(quota.used(), 10 * PAIR_COST_BYTES as u64);
        let freed = cache.clear();
        assert_eq!(freed, 10 * PAIR_COST_BYTES as u64);
        assert_eq!(quota.used(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_eviction_does_not_leak_charges() {
        let quota = kastio_quota::MemoryQuota::unlimited();
        let cache = SharedKernelCache::new(16);
        cache.attach_account(quota.account("cache"));
        for i in 0..1000u32 {
            cache.insert((u64::from(i), i), f64::from(i));
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(quota.used(), 16 * PAIR_COST_BYTES as u64);
    }

    #[test]
    fn shared_cache_is_usable_from_many_threads() {
        use std::sync::Arc;

        let cache = Arc::new(SharedKernelCache::new(4096));
        assert_eq!(cache.stripes.len(), 4, "the daemon's default cache keeps four stripes");
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = (t * 10_000 + u64::from(i), i);
                        cache.insert(key, f64::from(i));
                        assert_eq!(cache.get(key), Some(f64::from(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 4096 + MAX_STRIPES); // per-stripe rounding slack
    }
}
