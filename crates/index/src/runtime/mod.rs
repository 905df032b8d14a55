//! The serve daemon's one execution model: a hand-rolled epoll reactor
//! (Linux only) that owns every socket, plus a bounded worker pool that
//! executes the requests.
//!
//! * `epoll` — the reactor: non-blocking sockets driven through
//!   per-connection state machines, with request execution handed to the
//!   worker pool. It holds tens of thousands of idle connections in one
//!   process, and its thread never blocks.
//! * `dispatch` — the request core: everything between "a framed request
//!   and its batched item lines arrived" and "these reply bytes leave,
//!   then record latency".
//! * `sys` — the raw `epoll`/`eventfd` prototypes the reactor calls (no
//!   crates.io, so no `libc`).
//!
//! Every index method a request calls runs inline on the worker that
//! executes it — a query never spawns threads — so the worker pool is the
//! daemon's only source of parallelism.

pub(crate) mod dispatch;
#[cfg(target_os = "linux")]
mod epoll;
#[cfg(target_os = "linux")]
mod sys;

use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use kastio_obs::SlowLog;
use kastio_quota::{Account, MemoryQuota};

use crate::index::PatternIndex;
use crate::server::ServerMetrics;
use crate::wal::WalManager;

/// Everything the reactor needs to serve: the bound listener plus the
/// shared daemon state ([`crate::Server`] hands its fields over when
/// `serve()` starts).
pub(crate) struct ServeState {
    pub(crate) listener: TcpListener,
    pub(crate) index: Arc<PatternIndex>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) wal: Option<Arc<WalManager>>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) slow_log: Arc<SlowLog>,
    pub(crate) quota: MemoryQuota,
    /// One shared account for every connection's in-flight request
    /// buffers: admission is against the *root* budget anyway, and a
    /// shared account keeps the STATS story simple.
    pub(crate) buffers: Account,
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Option<Duration>,
}

/// Serves connections on the reactor until a `SHUTDOWN` request (or the
/// stop flag) fires, then returns the shared index so the caller can
/// persist it.
///
/// # Errors
///
/// Reactor setup failures (`epoll_create1`, `eventfd`, registering the
/// listener); after a successful start, per-connection errors are that
/// connection's problem, never the daemon's.
#[cfg(target_os = "linux")]
pub(crate) fn serve(state: ServeState) -> io::Result<Arc<PatternIndex>> {
    epoll::serve(state)
}

/// Off Linux there is no reactor: `kastio serve` is Linux-only.
///
/// # Errors
///
/// Always [`io::ErrorKind::Unsupported`].
#[cfg(not(target_os = "linux"))]
pub(crate) fn serve(_state: ServeState) -> io::Result<Arc<PatternIndex>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "kastio serve requires Linux (it runs on an epoll reactor)",
    ))
}
