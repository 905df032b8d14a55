//! Crash-point fault injection for the durability test suite.
//!
//! The WAL's correctness claims are *ordering* claims — the covering
//! fsync precedes the ack, the snapshot rename precedes the log
//! compaction — and ordering bugs only show up when the process dies at
//! exactly the wrong instant. This module lets the recovery tests
//! (`tests/wal_recovery.rs`) place that instant: when the environment
//! variable `KASTIO_CRASH_POINT` names a crash point, the process calls
//! [`std::process::abort`] the moment execution reaches it (optionally
//! after skipping the first `KASTIO_CRASH_SKIP` hits, so a test can let
//! the server establish itself before arming the crash).
//!
//! Named points:
//!
//! * `after-ack-before-fsync` — immediately after an ingest reply is
//!   flushed to the client. Recovery must still contain the acked entry,
//!   which proves the covering fsync happened *before* the ack.
//! * `mid-record` — halfway through appending a WAL record (the torn
//!   half is fsync'd first so the tail really is torn on disk).
//! * `after-snapshot-rename-before-truncate` — between the snapshot
//!   file's durable rename and the WAL compaction, leaving a full stale
//!   WAL over a fresh snapshot. Recovery must replay idempotently.
//!
//! In production (no env var) every check is a single lazily-initialised
//! `Option` test — no syscalls, no branches on the hot path beyond one
//! comparison.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Crash after an ingest ack has been flushed, before anything else.
pub const CRASH_AFTER_ACK: &str = "after-ack-before-fsync";
/// Crash halfway through appending a WAL record.
pub const CRASH_MID_RECORD: &str = "mid-record";
/// Crash between the snapshot rename and the WAL compaction.
pub const CRASH_AFTER_SNAPSHOT_RENAME: &str = "after-snapshot-rename-before-truncate";

struct Armed {
    point: String,
    skip: u64,
}

static ARMED: OnceLock<Option<Armed>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);

fn armed() -> &'static Option<Armed> {
    ARMED.get_or_init(|| {
        let point = std::env::var("KASTIO_CRASH_POINT").ok()?;
        if point.is_empty() {
            return None;
        }
        let skip =
            std::env::var("KASTIO_CRASH_SKIP").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
        Some(Armed { point, skip })
    })
}

/// Aborts the process if the named crash point is armed via
/// `KASTIO_CRASH_POINT` (after `KASTIO_CRASH_SKIP` skipped hits).
///
/// Aborting — not panicking, not exiting — is the point: no destructors,
/// no atexit handlers, no buffered writes get a chance to run, exactly
/// like a `kill -9` or a power cut at that instruction.
pub fn crash_point(name: &str) {
    let Some(armed) = armed() else { return };
    if armed.point != name {
        return;
    }
    let hit = HITS.fetch_add(1, Ordering::SeqCst);
    if hit < armed.skip {
        return;
    }
    eprintln!("KASTIO_CRASH_POINT {name}: aborting (hit {hit})");
    std::process::abort();
}

/// Whether the named crash point is armed (without tripping it). Used to
/// fsync a deliberately torn prefix before `mid-record` aborts.
#[must_use]
pub fn crash_point_armed(name: &str) -> bool {
    matches!(armed(), Some(armed) if armed.point == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_crash_points_are_inert() {
        // The test runner never sets KASTIO_CRASH_POINT, so every check
        // must fall through without side effects.
        crash_point(CRASH_AFTER_ACK);
        crash_point(CRASH_MID_RECORD);
        crash_point(CRASH_AFTER_SNAPSHOT_RENAME);
        assert!(!crash_point_armed(CRASH_AFTER_ACK));
    }
}
