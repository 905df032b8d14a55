//! # kastio-quota
//!
//! A byte-account **memory quota**, modeled on arti's `tor-memquota`:
//! one root budget (e.g. from `kastio serve --max-memory-bytes`) shared
//! by the [`Account`]s of the daemon's subsystems (corpus, query memo,
//! in-flight request buffers, interner). Subsystems *charge* bytes as
//! they allocate and *release* them as they free; the tracker never
//! allocates on behalf of anyone — it is pure accounting, which is what
//! makes it dependency-free and safe to consult from any thread.
//!
//! Two admission styles:
//!
//! - [`Account::try_charge`] is **strict admission**: it either reserves
//!   the bytes (the root total never exceeds the limit through this
//!   path — it is a compare-and-swap loop, not a blind add) or refuses,
//!   after giving the reclaimer one chance to make room. Request
//!   buffers and corpus growth use this, so the caller can shed load
//!   (`ERR busy reason=memory`) instead of OOMing.
//! - [`Account::charge`] is **unconditional**: the allocation already
//!   happened (a memo record, a corpus preload). Crossing the
//!   high-water mark (7/8 of the limit) triggers a reclaim pass, which
//!   runs the reclaimer if usage is above the low-water mark (3/4) — so
//!   unconditional charges ride on the 1/8 headroom the watermarks keep
//!   clear.
//!
//! [`MemoryQuota::report_account`] opens a **report-only** account for
//! memory the process can never give back (interned token tables):
//! its charges count toward the root total and
//! a separate [`MemoryQuota::unreclaimable`] gauge, and no reclaim pass
//! can shrink them — so operators can see how much of the budget is
//! permanently spoken for.
//!
//! The reclaim callback ([`MemoryQuota::set_reclaimer`]; the index
//! registers its query memo's `clear`) frees memory on its own and
//! reports the bytes it released via its own [`Account::release`]
//! calls. A quota built without a limit ([`MemoryQuota::unlimited`])
//! admits everything and never reclaims, so library users pay only a
//! relaxed atomic add.
//!
//! # Examples
//!
//! ```
//! use kastio_quota::MemoryQuota;
//!
//! let quota = MemoryQuota::new(Some(1024));
//! let buffers = quota.account();
//! assert!(buffers.try_charge(1000), "fits the budget");
//! assert!(!buffers.try_charge(100), "would exceed it");
//! buffers.release(1000);
//! assert_eq!(quota.used(), 0);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The reclaim callback: frees what it can (releasing the bytes through
/// its own [`Account`] handle) and returns its best estimate of the
/// bytes actually freed.
type Reclaimer = Box<dyn Fn() -> u64 + Send + Sync>;

struct AccountInner {
    used: AtomicU64,
    /// Report-only accounts track bytes the process cannot give back
    /// (interned tokens). Their usage counts toward the root total *and*
    /// the [`MemoryQuota::unreclaimable`] gauge.
    report_only: bool,
    quota: Arc<QuotaInner>,
}

struct QuotaInner {
    /// `u64::MAX` means unlimited.
    limit: u64,
    /// Crossing this on an unconditional charge triggers a reclaim pass.
    high_water: u64,
    /// A reclaim pass runs the reclaimer only while usage is above this.
    low_water: u64,
    used: AtomicU64,
    /// Bytes charged through report-only accounts: memory that is live
    /// and counted in `used`, but that no reclaim pass can free.
    unreclaimable: AtomicU64,
    reclaims: AtomicU64,
    /// Single-flight guard: one reclaim pass at a time, and a reclaimer
    /// releasing bytes can never recurse into another pass.
    reclaiming: AtomicBool,
    reclaimer: OnceLock<Reclaimer>,
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
                reclaimer: OnceLock::new(),
            }),
        }
    }

    /// A quota that admits everything and never reclaims.
    pub fn unlimited() -> MemoryQuota {
        MemoryQuota::new(None)
    }

    /// Opens an account. Every call makes a new, independent account.
    pub fn account(&self) -> Account {
        self.open_account(false)
    }

    /// Opens a **report-only** account for memory the process can never
    /// give back (interned token tables). Charges count toward
    /// [`MemoryQuota::used`] — so admission and the watermarks see the
    /// true footprint — and toward the [`MemoryQuota::unreclaimable`]
    /// gauge.
    pub fn report_account(&self) -> Account {
        self.open_account(true)
    }

    fn open_account(&self, report_only: bool) -> Account {
        Account {
            inner: Arc::new(AccountInner {
                used: AtomicU64::new(0),
                report_only,
                quota: Arc::clone(&self.inner),
            }),
        }
    }

    /// Registers the reclaim callback that runs under pressure. The
    /// first registration sticks; later calls are ignored.
    pub fn set_reclaimer(&self, reclaim: impl Fn() -> u64 + Send + Sync + 'static) {
        let _ = self.inner.reclaimer.set(Box::new(reclaim));
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

impl QuotaInner {
    /// Runs one reclaim pass if usage is at/over `trigger` and no pass is
    /// already running: calls the reclaimer if usage is above the
    /// low-water mark.
    fn reclaim_down_from(&self, trigger: u64) {
        if self.limit == u64::MAX || self.used.load(Ordering::Relaxed) < trigger {
            return;
        }
        if self.reclaiming.swap(true, Ordering::Acquire) {
            return; // a pass is already running (possibly ours, reentrantly)
        }
        if let Some(reclaim) = self.reclaimer.get() {
            if self.used.load(Ordering::Relaxed) > self.low_water && reclaim() > 0 {
                self.reclaims.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.reclaiming.store(false, Ordering::Release);
    }
}

/// An account of a [`MemoryQuota`]. Clones share the same account.
#[derive(Clone)]
pub struct Account {
    inner: Arc<AccountInner>,
}

impl std::fmt::Debug for Account {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Account").field("used", &self.used()).finish()
    }
}

impl Account {
    /// Bytes currently charged to this account.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Unconditionally charges `bytes` (the allocation already exists),
    /// then reclaims if the root total crossed the high-water mark.
    pub fn charge(&self, bytes: u64) {
        let quota = &self.inner.quota;
        self.inner.used.fetch_add(bytes, Ordering::Relaxed);
        quota.used.fetch_add(bytes, Ordering::Relaxed);
        if self.inner.report_only {
            quota.unreclaimable.fetch_add(bytes, Ordering::Relaxed);
        }
        quota.reclaim_down_from(quota.high_water);
    }

    /// Admission: reserves `bytes` if — after at most one reclaim pass —
    /// the root total stays within the limit; returns `false` (charging
    /// nothing) otherwise. Reservations through this path can never push
    /// the total past the limit, even raced from many threads.
    #[must_use]
    pub fn try_charge(&self, bytes: u64) -> bool {
        let quota = &self.inner.quota;
        let mut reclaimed = false;
        loop {
            let used = quota.used.load(Ordering::Relaxed);
            if used.saturating_add(bytes) > quota.limit {
                if reclaimed {
                    return false;
                }
                // One chance: ask the reclaimer to make room, then
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
        let quota = &self.inner.quota;
        saturating_sub(&self.inner.used, bytes);
        saturating_sub(&quota.used, bytes);
        if self.inner.report_only {
            saturating_sub(&quota.unreclaimable, bytes);
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
        let a = quota.account();
        let b = quota.account();
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
        let a = quota.account();
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
        let a = quota.account();
        a.charge(10);
        a.release(10_000);
        assert_eq!(a.used(), 0);
        assert_eq!(quota.used(), 0);
        assert!(a.try_charge(1000), "the full budget is available again");
    }

    #[test]
    fn unlimited_quota_admits_everything_and_never_reclaims() {
        let quota = MemoryQuota::unlimited();
        let a = quota.account();
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        quota.set_reclaimer(move || {
            seen.fetch_add(1, Ordering::Relaxed);
            0
        });
        assert!(a.try_charge(u64::MAX / 2));
        a.charge(u64::MAX / 4);
        assert_eq!(quota.limit(), None);
        assert_eq!(quota.reclaims(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "the reclaimer never runs unlimited");
    }

    /// A reclaimable account backed by a shared "cache size" cell: the
    /// reclaimer empties the cell and releases the bytes, like the query
    /// memo clearing its generations.
    fn cache_account(quota: &MemoryQuota) -> (Account, Arc<AtomicU64>) {
        let account = quota.account();
        let held = Arc::new(AtomicU64::new(0));
        let (reclaim_account, reclaim_held) = (account.clone(), Arc::clone(&held));
        quota.set_reclaimer(move || {
            let freed = reclaim_held.swap(0, Ordering::Relaxed);
            reclaim_account.release(freed);
            freed
        });
        (account, held)
    }

    #[test]
    fn admission_pressure_reclaims_and_then_admits() {
        let quota = MemoryQuota::new(Some(1000));
        let (cache, held) = cache_account(&quota);
        cache.charge(900);
        held.store(900, Ordering::Relaxed);
        let buffers = quota.account();
        assert!(buffers.try_charge(500), "reclaim made room");
        assert_eq!(quota.used(), 500);
        assert!(quota.reclaims() >= 1);
        assert_eq!(cache.used(), 0, "the cache was emptied to admit the buffers");
    }

    #[test]
    fn an_unconditional_charge_over_the_high_water_mark_reclaims() {
        let quota = MemoryQuota::new(Some(1000));
        let (cache, held) = cache_account(&quota);
        quota.set_reclaimer(|| unreachable!("the first registration sticks"));
        cache.charge(800);
        held.store(800, Ordering::Relaxed);
        assert_eq!(quota.reclaims(), 0, "800 is under the 875 high-water mark");
        // 900 crosses it: the pass empties the cache, which lands usage
        // under the 750 low-water mark.
        let other = quota.account();
        other.charge(100);
        assert_eq!(cache.used(), 0, "the reclaimer ran");
        assert_eq!(quota.used(), 100);
        assert_eq!(quota.reclaims(), 1);
    }

    #[test]
    fn concurrent_admission_never_exceeds_the_limit() {
        let quota = MemoryQuota::new(Some(10_000));
        let admitted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let account = quota.account();
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
        let interner = quota.report_account();
        let buffers = quota.account();
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
        let (cache, _held) = cache_account(&quota);
        let interner = quota.report_account();
        interner.charge(990);
        // Admission pressure runs a pass, but the reclaimer frees only
        // what it holds, and the report-only bytes are not its to free.
        assert!(!cache.try_charge(100));
        assert_eq!(quota.reclaims(), 0, "nothing was reclaimed");
        assert_eq!(interner.used(), 990);
    }
}
