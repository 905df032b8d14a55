//! Termination-signal watching for the serve daemon, dependency-free.
//!
//! The build environment has no crates.io access, so there is no `libc`
//! or `signal-hook` to lean on. Instead this module declares the four C
//! symbols it needs (`signal`, `pipe`, `read`, `close` — all already
//! linked into every std binary on unix) and uses the classic **self-pipe
//! trick**: the signal handler's only action is an async-signal-safe
//! `write(2)` of the signal number into a pipe, and an ordinary thread
//! blocks on the read end, turning the asynchronous signal into a plain
//! synchronous event the daemon can act on (stop the listener; its exit
//! path then saves).
//!
//! Design constraints honoured here:
//!
//! * **Handler minimalism.** The handler performs one `write` and
//!   re-arms `SIG_DFL` — both async-signal-safe — so a second `SIGTERM`/
//!   `SIGINT` (an impatient operator) kills the process immediately
//!   instead of queueing behind a slow exit-path save.
//! * **`signal(2)` over `sigaction(2)`.** Calling glibc/musl `sigaction`
//!   from Rust without the `libc` crate means hand-declaring a
//!   platform-specific struct layout; `signal` has the BSD semantics we
//!   want on both glibc and musl (handler stays installed, syscalls
//!   restart) with a layout-free prototype.
//! * **Install-once.** Process-global signal dispositions cannot be
//!   handed out twice; a second [`watch_termination`] call errors.
//!
//! On non-unix targets [`watch_termination`] reports
//! [`std::io::ErrorKind::Unsupported`] and the daemon simply runs without
//! signal-triggered shutdown.

use std::fmt;
use std::io;

/// Which termination signal arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermSignal {
    /// `SIGINT` (Ctrl-C).
    Interrupt,
    /// `SIGTERM` (the polite kill, e.g. from an orchestrator).
    Terminate,
}

impl fmt::Display for TermSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermSignal::Interrupt => write!(f, "SIGINT"),
            TermSignal::Terminate => write!(f, "SIGTERM"),
        }
    }
}

#[cfg(unix)]
mod imp {
    use super::TermSignal;
    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    /// Raw C prototypes. All four symbols are provided by the C library
    /// std already links against on every unix target; `signal` takes and
    /// returns handler addresses as pointer-sized integers so no
    /// platform-specific struct layout is involved.
    mod sys {
        use std::os::raw::{c_int, c_void};

        pub const SIGINT: c_int = 2;
        pub const SIGTERM: c_int = 15;
        /// `SIG_DFL` is the null handler address.
        pub const SIG_DFL: usize = 0;
        /// `SIG_ERR` is `(void (*)(int)) -1`.
        pub const SIG_ERR: usize = usize::MAX;

        extern "C" {
            pub fn signal(signum: c_int, handler: usize) -> usize;
            pub fn pipe(fds: *mut c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
            pub fn close(fd: c_int) -> c_int;
        }
    }

    /// Write end of the self-pipe, published before handlers install.
    static PIPE_WRITE_FD: AtomicI32 = AtomicI32::new(-1);
    /// Process-global install-once latch.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    /// The signal handler: one async-signal-safe `write` of the signal
    /// number, then re-arm the default disposition — for **both** watched
    /// signals, so a second termination signal of either type (an
    /// impatient operator's Ctrl-C after an orchestrator's SIGTERM)
    /// kills the process immediately instead of writing into a pipe
    /// nobody reads any more.
    extern "C" fn on_signal(signo: std::os::raw::c_int) {
        let fd = PIPE_WRITE_FD.load(Ordering::Relaxed);
        if fd >= 0 {
            let byte = signo as u8;
            // A full pipe or racing close is fine: dropping the byte only
            // loses signal *coalescing*, and SIG_DFL is re-armed anyway.
            // SAFETY: writing 1 byte from a live stack value; `write` is
            // async-signal-safe.
            let _ = unsafe { sys::write(fd, (&byte as *const u8).cast(), 1) };
        }
        // SAFETY: `signal` with SIG_DFL takes no pointers and is
        // async-signal-safe when re-arming a disposition this same
        // handler was installed for.
        unsafe {
            sys::signal(sys::SIGTERM, sys::SIG_DFL);
            sys::signal(sys::SIGINT, sys::SIG_DFL);
        }
    }

    /// See [`super::watch_termination`].
    pub struct SignalWatcher {
        read_fd: std::os::raw::c_int,
    }

    // The watcher only owns the pipe's read end; reading from a distinct
    // thread than the installer is the whole point.
    // SAFETY: the wrapped value is a plain file descriptor (an integer);
    // `read`/`close` on it are thread-safe kernel calls.
    unsafe impl Send for SignalWatcher {}

    pub fn watch_termination() -> io::Result<SignalWatcher> {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "termination signals are already being watched",
            ));
        }
        let mut fds: [std::os::raw::c_int; 2] = [-1, -1];
        // SAFETY: `fds` is a live 2-element array the kernel fills.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } != 0 {
            INSTALLED.store(false, Ordering::SeqCst);
            return Err(io::Error::last_os_error());
        }
        PIPE_WRITE_FD.store(fds[1], Ordering::SeqCst);
        let handler: extern "C" fn(std::os::raw::c_int) = on_signal;
        for signo in [sys::SIGTERM, sys::SIGINT] {
            // SAFETY: `handler` is a live `extern "C" fn(c_int)` whose
            // address fits the pointer-sized integer `signal` expects.
            if unsafe { sys::signal(signo, handler as *const () as usize) } == sys::SIG_ERR {
                let err = io::Error::last_os_error();
                PIPE_WRITE_FD.store(-1, Ordering::SeqCst);
                // SAFETY: both fds came from the successful `pipe` above
                // and are closed exactly once, on this error path.
                unsafe {
                    sys::close(fds[0]);
                    sys::close(fds[1]);
                }
                INSTALLED.store(false, Ordering::SeqCst);
                return Err(err);
            }
        }
        Ok(SignalWatcher { read_fd: fds[0] })
    }

    impl SignalWatcher {
        /// Blocks until a watched signal arrives and reports which one.
        /// Intended to be called from a dedicated monitor thread.
        ///
        /// # Errors
        ///
        /// An [`io::Error`] if the self-pipe fails (closed or unreadable)
        /// — callers should treat that as "no signal will ever be
        /// observed".
        pub fn wait(&self) -> io::Result<TermSignal> {
            loop {
                let mut byte = 0u8;
                // SAFETY: reading 1 byte into a live stack value.
                let n = unsafe { sys::read(self.read_fd, (&mut byte as *mut u8).cast(), 1) };
                match n {
                    1 => {
                        return Ok(match i32::from(byte) {
                            sys::SIGINT => TermSignal::Interrupt,
                            _ => TermSignal::Terminate,
                        });
                    }
                    0 => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "signal pipe closed",
                        ));
                    }
                    _ => {
                        let err = io::Error::last_os_error();
                        if err.kind() != io::ErrorKind::Interrupted {
                            return Err(err);
                        }
                    }
                }
            }
        }
    }

    impl Drop for SignalWatcher {
        fn drop(&mut self) {
            // Leave the write fd and the handlers armed (they are
            // process-global anyway); just release the read end.
            // SAFETY: we own the fd and drop it exactly once.
            unsafe { sys::close(self.read_fd) };
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::TermSignal;
    use std::io;

    /// See [`super::watch_termination`].
    pub struct SignalWatcher {
        never: std::convert::Infallible,
    }

    pub fn watch_termination() -> io::Result<SignalWatcher> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "signal watching is only implemented on unix",
        ))
    }

    impl SignalWatcher {
        /// Unreachable on non-unix targets ([`super::watch_termination`]
        /// never constructs a watcher there).
        pub fn wait(&self) -> io::Result<TermSignal> {
            match self.never {}
        }
    }
}

pub use imp::SignalWatcher;

/// Installs process-wide `SIGTERM`/`SIGINT` handlers (self-pipe trick)
/// and returns the watcher whose [`SignalWatcher::wait`] blocks until one
/// arrives. After the first caught signal the default disposition is
/// restored, so a second signal terminates the process immediately.
///
/// # Errors
///
/// * [`io::ErrorKind::AlreadyExists`] if a watcher was already installed
///   (signal dispositions are process-global);
/// * [`io::ErrorKind::Unsupported`] on non-unix targets;
/// * the underlying OS error if the pipe or handler installation fails.
pub fn watch_termination() -> io::Result<SignalWatcher> {
    imp::watch_termination()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_signal_displays_conventionally() {
        assert_eq!(TermSignal::Interrupt.to_string(), "SIGINT");
        assert_eq!(TermSignal::Terminate.to_string(), "SIGTERM");
    }

    // The handler/self-pipe path itself is exercised end-to-end by
    // `tests/signal_snapshot.rs`, which SIGTERMs a real `kastio serve`
    // child process — installing process-global handlers inside the
    // unit-test harness would race other tests.
}
