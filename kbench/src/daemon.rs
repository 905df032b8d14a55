//! The daemon under test: built from the checkout's sources, started the
//! way an operator starts it on a fresh copy of the seeded durable root,
//! observed through `/proc`, and stopped with `SIGKILL`.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::os::fd::AsRawFd;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::{wait_readable, STALL_LIMIT};

/// Where cargo puts build output: `$CARGO_TARGET_DIR`, else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `kastio` binary from the checkout in the current
/// directory (a no-op when it is up to date) and returns its path.
pub fn build() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/index").is_dir() {
        return Err("run from the root of a kastio checkout".to_string());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline", "--bin", "kastio"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed ({status})"));
    }
    let bin = target_dir().join("release").join("kastio");
    if !bin.is_file() {
        return Err(format!("the build left no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Copies a directory tree (regular files and directories only).
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// A fresh copy of `root` at `to`, flushed to disk with `sync` so the
/// daemon's start-up does not pay for the copy's write-back.
pub fn fresh_copy(root: &Path, to: &Path) -> Result<(), String> {
    remove(to);
    copy_tree(root, to).map_err(|e| format!("cannot copy the root to {}: {e}", to.display()))?;
    let status = Command::new("sync").status().map_err(|e| format!("cannot run sync: {e}"))?;
    if !status.success() {
        return Err(format!("sync failed ({status})"));
    }
    Ok(())
}

/// Removes a run's directory, if present.
pub fn remove(dir: &Path) {
    if dir.exists() {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Bytes allocated on disk under `dir` (what `du` counts).
pub fn allocated_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = fs::metadata(dir)?.blocks() * 512;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            allocated_bytes(&entry.path())?
        } else {
            entry.metadata()?.blocks() * 512
        };
    }
    Ok(total)
}

/// A running `kastio serve`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// From spawn to the `listening on` line.
    pub setup: Duration,
}

impl Daemon {
    /// Starts the daemon on `root` with default flags plus the durable
    /// ones, and waits until it listens. Its stderr goes to `log`.
    pub fn start(bin: &Path, root: &Path, log: &Path) -> Result<Daemon, String> {
        let log =
            fs::File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let root_arg = root.to_str().ok_or("the run directory is not UTF-8")?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0", "--save", root_arg, "--wal", "--corpus", root_arg])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let fd = stdout.get_ref().as_raw_fd();
        let deadline = started + STALL_LIMIT;
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.buffer().is_empty() && !wait_readable(fd, deadline).unwrap_or(false) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("the daemon did not listen within {}s", STALL_LIMIT.as_secs()));
            }
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let status = child.wait().map_err(|e| e.to_string())?;
                    return Err(format!("the daemon exited before listening ({status})"));
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim_end().strip_prefix("listening on ") {
                let addr = addr.to_string();
                return Ok(Daemon { child, _stdout: stdout, addr, setup: started.elapsed() });
            }
        }
    }

    fn proc_field(&self, file: &str, key: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/{file}", self.child.id());
        let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("{path} has no {key}"))
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        self.proc_field("status", "VmHWM:")
    }

    /// Bytes the daemon has caused to be written to storage so far.
    pub fn write_bytes(&self) -> Result<u64, String> {
        self.proc_field("io", "write_bytes:")
    }

    /// `SIGKILL`s the daemon and waits until it is gone.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("cannot kill the daemon: {e}"))?;
        self.child.wait().map_err(|e| format!("cannot reap the daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
