//! Raw epoll/eventfd prototypes for the reactor, dependency-free.
//!
//! The build environment has no crates.io access, so there is no `libc`
//! or `mio` to lean on. Following the pattern proven in
//! [`crate::signal`], this module declares the handful of C symbols the
//! reactor needs — `epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, plus the `read`/`write`/`close` trio for the wakeup fd —
//! all already linked into every std binary on Linux. (Sockets go
//! non-blocking through std's `set_nonblocking`.)
//!
//! The only layout-sensitive piece is [`EpollEvent`]: the kernel ABI
//! packs `struct epoll_event` on x86-64 (glibc's `__EPOLL_PACKED`) and
//! uses natural alignment everywhere else, which the `cfg_attr` pair
//! below reproduces. Everything here is `pub(crate)` plumbing for
//! [`crate::runtime::epoll`]; the safe wrappers live there.

use std::os::raw::{c_int, c_void};

pub const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x1;
pub const EPOLLOUT: u32 = 0x4;
pub const EPOLLERR: u32 = 0x8;
pub const EPOLLHUP: u32 = 0x10;

pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

/// One readiness record, as `epoll_wait(2)` fills them in. `data` is the
/// opaque token registered with `epoll_ctl(2)` — the reactor stores a
/// connection id there and never a pointer, so no lifetime rides on the
/// kernel round-trip.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout_ms: c_int,
    ) -> c_int;
    pub fn eventfd(initval: u32, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    pub fn close(fd: c_int) -> c_int;
}
