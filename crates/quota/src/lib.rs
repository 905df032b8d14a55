//! # kastio-quota
//!
//! A hierarchical **byte-account memory quota**, modeled on arti's
//! `tor-memquota`: one root budget (e.g. from `kastio serve
//! --max-memory-bytes`) split into named child [`Account`]s (corpus,
//! kernel cache, in-flight request buffers, …). Subsystems *charge*
//! bytes as they allocate and *release* them as they free; the tracker
//! never allocates on behalf of anyone — it is pure accounting, which is
//! what makes it dependency-free and safe to consult from any thread.
//!
//! Two admission styles:
//!
//! - [`Account::try_charge`] is **strict admission**: it either reserves
//!   the bytes (the root total never exceeds the limit through this
//!   path — it is a compare-and-swap loop, not a blind add) or refuses,
//!   after giving registered reclaimers one chance to make room. Request
//!   buffers and corpus growth use this, so the caller can shed load
//!   (`ERR busy reason=memory`) instead of OOMing.
//! - [`Account::charge`] is **unconditional**: the allocation already
//!   happened (a cache insert, a corpus preload). Crossing the
//!   high-water mark (7/8 of the limit) triggers a reclaim pass that
//!   asks the *greediest* reclaimable account first to free bytes until
//!   usage is back under the low-water mark (3/4) — so unconditional
//!   charges ride on the 1/8 headroom the watermarks keep clear.
//!
//! [`MemoryQuota::report_account`] opens a **report-only** account for
//! memory the process can never give back (interned token tables):
//! its charges count toward the root total and
//! a separate [`MemoryQuota::unreclaimable`] gauge, and it can never
//! have a reclaimer — so operators can see how much of the budget is
//! permanently spoken for.
//!
//! Reclaim callbacks ([`MemoryQuota::set_reclaimer`]) free memory on
//! their own (e.g. clear a cache) and report the bytes they
//! released via their own [`Account::release`] calls; the pass observes
//! progress through the account's usage counter. A quota built without a
//! limit ([`MemoryQuota::unlimited`]) admits everything and never
//! reclaims, so library users pay only a relaxed atomic add.
//!
//! # Examples
//!
//! ```
//! use kastio_quota::MemoryQuota;
//!
//! let quota = MemoryQuota::new(Some(1024));
//! let buffers = quota.account("buffers");
//! assert!(buffers.try_charge(1000), "fits the budget");
//! assert!(!buffers.try_charge(100), "would exceed it");
//! buffers.release(1000);
//! assert_eq!(quota.used(), 0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Approximate heap footprint of a value, in bytes.
///
/// "Approximate" is the contract: implementations estimate the dominant
/// allocation (string bytes, vector backing stores) and may ignore
/// allocator slack and small fixed overheads. Quota accounting needs
/// consistency (the same value charges and releases the same number)
/// more than it needs exactness.
pub trait ApproxSize {
    /// Estimated bytes this value keeps alive, including its own
    /// inline size where that is the dominant term.
    fn approx_size_bytes(&self) -> usize;
}

impl ApproxSize for str {
    fn approx_size_bytes(&self) -> usize {
        self.len()
    }
}

impl ApproxSize for String {
    fn approx_size_bytes(&self) -> usize {
        self.capacity() + std::mem::size_of::<String>()
    }
}

impl ApproxSize for [u8] {
    fn approx_size_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: ApproxSize + ?Sized> ApproxSize for &T {
    fn approx_size_bytes(&self) -> usize {
        (**self).approx_size_bytes()
    }
}

/// Backing-store bytes of a `Vec`, by element size — the building block
/// for `ApproxSize` impls over containers of plain data.
pub fn vec_backing_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

/// A reclaim callback: asked to free roughly `target` bytes, frees what
/// it can (releasing them through its own [`Account`] handle) and
/// returns its best estimate of the bytes actually freed.
type Reclaimer = Box<dyn Fn(u64) -> u64 + Send + Sync>;

struct AccountInner {
    name: &'static str,
    used: AtomicU64,
    /// Report-only accounts track bytes the process cannot give back
    /// (interned tokens, memoised self-kernels). Their usage counts
    /// toward the root total *and* the [`MemoryQuota::unreclaimable`]
    /// gauge, and they can never have a reclaimer.
    report_only: bool,
    quota: Weak<QuotaInner>,
}

struct AccountEntry {
    inner: Weak<AccountInner>,
    reclaimer: Option<Reclaimer>,
}

struct QuotaInner {
    /// `u64::MAX` means unlimited.
    limit: u64,
    /// Crossing this on an unconditional charge triggers a reclaim pass.
    high_water: u64,
    /// A reclaim pass stops once usage is back under this.
    low_water: u64,
    used: AtomicU64,
    /// Bytes charged through report-only accounts: memory that is live
    /// and counted in `used`, but that no reclaim pass can free.
    unreclaimable: AtomicU64,
    reclaims: AtomicU64,
    /// Single-flight guard: one reclaim pass at a time, and a reclaimer
    /// releasing bytes can never recurse into another pass.
    reclaiming: AtomicBool,
    accounts: Mutex<Vec<AccountEntry>>,
}

/// The root byte budget. Cheap to clone (an `Arc` handle); all clones
/// and every [`Account`] spawned from them share one usage total.
#[derive(Clone)]
pub struct MemoryQuota {
    inner: Arc<QuotaInner>,
}

impl std::fmt::Debug for MemoryQuota {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryQuota")
            .field("limit", &self.limit())
            .field("used", &self.used())
            .field("reclaims", &self.reclaims())
            .finish()
    }
}

impl MemoryQuota {
    /// Creates a quota with the given byte limit; `None` is unlimited.
    pub fn new(limit: Option<u64>) -> MemoryQuota {
        let limit = limit.unwrap_or(u64::MAX);
        MemoryQuota {
            inner: Arc::new(QuotaInner {
                limit,
                high_water: limit.saturating_sub(limit / 8),
                low_water: limit.saturating_sub(limit / 4),
                used: AtomicU64::new(0),
                unreclaimable: AtomicU64::new(0),
                reclaims: AtomicU64::new(0),
                reclaiming: AtomicBool::new(false),
                accounts: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A quota that admits everything and never reclaims.
    pub fn unlimited() -> MemoryQuota {
        MemoryQuota::new(None)
    }

    /// Opens a named child account. Names are labels for diagnostics and
    /// [`MemoryQuota::set_reclaimer`]; opening the same name twice makes
    /// two independent accounts.
    pub fn account(&self, name: &'static str) -> Account {
        self.open_account(name, false)
    }

    /// Opens a **report-only** child account for memory the process can
    /// never give back (interned token tables).
    /// Charges count toward [`MemoryQuota::used`] — so admission and the
    /// watermarks see the true footprint — and toward the
    /// [`MemoryQuota::unreclaimable`] gauge. A report-only account can
    /// never have a reclaimer: [`MemoryQuota::set_reclaimer`] ignores it.
    pub fn report_account(&self, name: &'static str) -> Account {
        self.open_account(name, true)
    }

    fn open_account(&self, name: &'static str, report_only: bool) -> Account {
        let inner = Arc::new(AccountInner {
            name,
            used: AtomicU64::new(0),
            report_only,
            quota: Arc::downgrade(&self.inner),
        });
        lock_accounts(&self.inner.accounts)
            .push(AccountEntry { inner: Arc::downgrade(&inner), reclaimer: None });
        Account { inner }
    }

    /// Registers the reclaim callback for the named account (the most
    /// recently opened one, if the name was reused). Under pressure the
    /// pass calls the reclaimers of the greediest accounts first.
    pub fn set_reclaimer(
        &self,
        name: &'static str,
        reclaim: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) {
        let mut accounts = lock_accounts(&self.inner.accounts);
        if let Some(entry) = accounts
            .iter_mut()
            .rev()
            .find(|entry| entry.inner.upgrade().is_some_and(|a| a.name == name && !a.report_only))
        {
            entry.reclaimer = Some(Box::new(reclaim));
        }
    }

    /// Total bytes currently charged across all accounts.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The configured limit, or `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        (self.inner.limit != u64::MAX).then_some(self.inner.limit)
    }

    /// Bytes charged through report-only accounts: live memory that is
    /// included in [`MemoryQuota::used`] but that no reclaim pass can
    /// free. The gap between the limit and this number is the budget
    /// that load shedding can actually defend.
    pub fn unreclaimable(&self) -> u64 {
        self.inner.unreclaimable.load(Ordering::Relaxed)
    }

    /// Number of reclaimer invocations that freed bytes.
    pub fn reclaims(&self) -> u64 {
        self.inner.reclaims.load(Ordering::Relaxed)
    }
}

fn lock_accounts(accounts: &Mutex<Vec<AccountEntry>>) -> MutexGuard<'_, Vec<AccountEntry>> {
    accounts.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl QuotaInner {
    /// Runs one reclaim pass if usage is at/over `trigger` and no pass is
    /// already running: asks reclaimable accounts, greediest first, to
    /// free bytes until the total is back under the low-water mark or no
    /// reclaimer makes progress.
    fn reclaim_down_from(&self, trigger: u64) {
        if self.limit == u64::MAX || self.used.load(Ordering::Relaxed) < trigger {
            return;
        }
        if self.reclaiming.swap(true, Ordering::Acquire) {
            return; // a pass is already running (possibly ours, reentrantly)
        }
        let accounts = lock_accounts(&self.accounts);
        let mut ranked: Vec<(u64, usize)> = accounts
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.reclaimer.is_some())
            .filter_map(|(i, entry)| {
                entry.inner.upgrade().map(|a| (a.used.load(Ordering::Relaxed), i))
            })
            .collect();
        ranked.sort_unstable_by_key(|&(used, _)| std::cmp::Reverse(used));
        for (_, i) in ranked {
            let used = self.used.load(Ordering::Relaxed);
            if used <= self.low_water {
                break;
            }
            if let Some(reclaim) = &accounts[i].reclaimer {
                if reclaim(used - self.low_water) > 0 {
                    self.reclaims.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.reclaiming.store(false, Ordering::Release);
    }
}

/// A named child of a [`MemoryQuota`]. Clones share the same account.
#[derive(Clone)]
pub struct Account {
    inner: Arc<AccountInner>,
}

impl std::fmt::Debug for Account {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Account").field("name", &self.name()).field("used", &self.used()).finish()
    }
}

impl Account {
    /// The label this account was opened under.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Bytes currently charged to this account.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Unconditionally charges `bytes` (the allocation already exists),
    /// then reclaims if the root total crossed the high-water mark.
    pub fn charge(&self, bytes: u64) {
        self.inner.used.fetch_add(bytes, Ordering::Relaxed);
        if let Some(quota) = self.inner.quota.upgrade() {
            quota.used.fetch_add(bytes, Ordering::Relaxed);
            if self.inner.report_only {
                quota.unreclaimable.fetch_add(bytes, Ordering::Relaxed);
            }
            quota.reclaim_down_from(quota.high_water);
        }
    }

    /// Admission: reserves `bytes` if — after at most one reclaim pass —
    /// the root total stays within the limit; returns `false` (charging
    /// nothing) otherwise. Reservations through this path can never push
    /// the total past the limit, even raced from many threads.
    #[must_use]
    pub fn try_charge(&self, bytes: u64) -> bool {
        let Some(quota) = self.inner.quota.upgrade() else {
            // The root is gone; nothing left to bound.
            self.inner.used.fetch_add(bytes, Ordering::Relaxed);
            return true;
        };
        let mut reclaimed = false;
        loop {
            let used = quota.used.load(Ordering::Relaxed);
            if used.saturating_add(bytes) > quota.limit {
                if reclaimed {
                    return false;
                }
                // One chance: ask the reclaimers to make room, then
                // re-evaluate from the top.
                quota.reclaim_down_from(0);
                reclaimed = true;
                continue;
            }
            if quota
                .used
                .compare_exchange_weak(used, used + bytes, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.inner.used.fetch_add(bytes, Ordering::Relaxed);
                if self.inner.report_only {
                    quota.unreclaimable.fetch_add(bytes, Ordering::Relaxed);
                }
                return true;
            }
        }
    }

    /// Releases `bytes` previously charged (saturating, so a conservative
    /// over-release cannot wrap the counters).
    pub fn release(&self, bytes: u64) {
        saturating_sub(&self.inner.used, bytes);
        if let Some(quota) = self.inner.quota.upgrade() {
            saturating_sub(&quota.used, bytes);
            if self.inner.report_only {
                saturating_sub(&quota.unreclaimable, bytes);
            }
        }
    }
}

fn saturating_sub(counter: &AtomicU64, bytes: u64) {
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_sub(bytes);
        match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release_roundtrip_the_totals() {
        let quota = MemoryQuota::new(Some(4096));
        let a = quota.account("a");
        let b = quota.account("b");
        a.charge(100);
        b.charge(200);
        assert_eq!(a.used(), 100);
        assert_eq!(b.used(), 200);
        assert_eq!(quota.used(), 300);
        a.release(100);
        b.release(200);
        assert_eq!(quota.used(), 0);
        assert_eq!(quota.limit(), Some(4096));
    }

    #[test]
    fn try_charge_enforces_the_limit_exactly() {
        let quota = MemoryQuota::new(Some(1000));
        let a = quota.account("a");
        assert!(a.try_charge(600));
        assert!(a.try_charge(400), "exactly at the limit is admitted");
        assert!(!a.try_charge(1), "one past the limit is refused");
        assert_eq!(quota.used(), 1000);
        a.release(1);
        assert!(a.try_charge(1));
    }

    #[test]
    fn release_saturates_instead_of_wrapping() {
        let quota = MemoryQuota::new(Some(1000));
        let a = quota.account("a");
        a.charge(10);
        a.release(10_000);
        assert_eq!(a.used(), 0);
        assert_eq!(quota.used(), 0);
        assert!(a.try_charge(1000), "the full budget is available again");
    }

    #[test]
    fn unlimited_quota_admits_everything_and_never_reclaims() {
        let quota = MemoryQuota::unlimited();
        let a = quota.account("a");
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        quota.set_reclaimer("a", move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            0
        });
        assert!(a.try_charge(u64::MAX / 2));
        a.charge(u64::MAX / 4);
        assert_eq!(quota.limit(), None);
        assert_eq!(quota.reclaims(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "reclaimers never run unlimited");
    }

    /// A reclaimable account backed by a shared "cache size" cell: the
    /// reclaimer empties the cell and releases the bytes, like the kernel
    /// cache clearing its stripes.
    fn cache_account(quota: &MemoryQuota, name: &'static str) -> (Account, Arc<AtomicU64>) {
        let account = quota.account(name);
        let held = Arc::new(AtomicU64::new(0));
        let (reclaim_account, reclaim_held) = (account.clone(), Arc::clone(&held));
        quota.set_reclaimer(name, move |_target| {
            let freed = reclaim_held.swap(0, Ordering::Relaxed);
            reclaim_account.release(freed);
            freed
        });
        (account, held)
    }

    #[test]
    fn admission_pressure_reclaims_and_then_admits() {
        let quota = MemoryQuota::new(Some(1000));
        let (cache, held) = cache_account(&quota, "cache");
        cache.charge(900);
        held.store(900, Ordering::Relaxed);
        let buffers = quota.account("buffers");
        assert!(buffers.try_charge(500), "reclaim made room");
        assert_eq!(quota.used(), 500);
        assert!(quota.reclaims() >= 1);
        assert_eq!(cache.used(), 0, "the cache was emptied to admit the buffers");
    }

    #[test]
    fn reclaim_asks_the_greediest_account_first() {
        let quota = MemoryQuota::new(Some(1000));
        let (small, small_held) = cache_account(&quota, "small");
        let (big, big_held) = cache_account(&quota, "big");
        small.charge(100);
        small_held.store(100, Ordering::Relaxed);
        big.charge(700);
        big_held.store(700, Ordering::Relaxed);
        // 800 used; charging 150 more crosses the 875 high-water mark and
        // triggers a pass. Emptying `big` alone lands usage at 250, under
        // the 750 low-water mark, so `small` must be left untouched.
        let other = quota.account("other");
        other.charge(150);
        assert_eq!(big.used(), 0, "greediest account reclaimed first");
        assert_eq!(small.used(), 100, "pass stopped once under the low-water mark");
        assert_eq!(quota.used(), 250);
    }

    #[test]
    fn concurrent_admission_never_exceeds_the_limit() {
        let quota = MemoryQuota::new(Some(10_000));
        let admitted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let account = quota.account("buffers");
                let admitted = Arc::clone(&admitted);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        if account.try_charge(7) {
                            admitted.fetch_add(7, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(quota.used() <= 10_000, "admission overshot: {}", quota.used());
        assert_eq!(quota.used(), admitted.load(Ordering::Relaxed));
    }

    #[test]
    fn report_accounts_count_toward_used_and_unreclaimable() {
        let quota = MemoryQuota::new(Some(4096));
        let interner = quota.report_account("interner");
        let buffers = quota.account("buffers");
        interner.charge(300);
        buffers.charge(100);
        assert_eq!(quota.used(), 400, "report-only bytes are real bytes");
        assert_eq!(quota.unreclaimable(), 300, "only report-only bytes are unreclaimable");
        interner.release(200);
        assert_eq!(quota.unreclaimable(), 100);
        assert_eq!(quota.used(), 200);
    }

    #[test]
    fn report_accounts_never_get_a_reclaimer() {
        let quota = MemoryQuota::new(Some(1000));
        let registry = quota.report_account("registry");
        registry.charge(990);
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        quota.set_reclaimer("registry", move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            0
        });
        // Admission pressure runs a pass, but the report-only account is
        // not a reclaim source, so nothing can make room.
        let buffers = quota.account("buffers");
        assert!(!buffers.try_charge(100));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "report-only accounts are unreclaimable");
        assert_eq!(registry.used(), 990);
    }

    #[test]
    fn approx_sizes_are_sane() {
        assert_eq!("abcd".approx_size_bytes(), 4);
        let s = String::from("hello");
        assert!(s.approx_size_bytes() >= 5 + std::mem::size_of::<String>());
        let bytes: &[u8] = &[0, 1, 2];
        assert_eq!(bytes.approx_size_bytes(), 3);
        assert_eq!(vec_backing_bytes(&[0_u64; 4]), 32);
    }
}
