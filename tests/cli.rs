//! End-to-end tests of the `kastio` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kastio"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kastio-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

fn write(path: &PathBuf, content: &str) {
    std::fs::write(path, content).expect("test file writes");
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn convert_renders_the_weighted_string() {
    let dir = tmpdir("convert");
    let trace = dir.join("t.trace");
    write(&trace, "h0 open 0\nh0 write 8\nh0 write 8\nh0 close 0\n");
    let out = bin().arg("convert").arg(&trace).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "[ROOT]x1 [HANDLE]x1 [BLOCK]x1 write[8]x2");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn convert_ignore_bytes_zeroes_values() {
    let dir = tmpdir("convert-nb");
    let trace = dir.join("t.trace");
    write(&trace, "h0 open 0\nh0 write 8\nh0 close 0\n");
    let out = bin()
        .args(["convert", trace.to_str().unwrap(), "--ignore-bytes"])
        .output()
        .expect("binary runs");
    assert!(String::from_utf8_lossy(&out.stdout).contains("write[0]"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compare_reports_similarity_and_explains() {
    let dir = tmpdir("compare");
    let a = dir.join("a.trace");
    let b = dir.join("b.trace");
    write(&a, "h0 open 0\nh0 write 8\nh0 write 8\nh0 close 0\n");
    write(&b, "h0 open 0\nh0 write 8\nh0 write 8\nh0 write 8\nh0 close 0\n");
    let out = bin()
        .args(["compare", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("normalised"));

    let out = bin()
        .args(["compare", a.to_str().unwrap(), b.to_str().unwrap(), "--explain"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shared feature"));
    assert!(stdout.contains("write[8]"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn generate_then_cluster_roundtrip() {
    let dir = tmpdir("gen");
    let out = bin()
        .args(["generate", dir.to_str().unwrap(), "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("MANIFEST").exists());
    assert!(dir.join("A00.trace").exists());

    let out = bin()
        .args(["cluster", dir.to_str().unwrap(), "--groups", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("purity vs categories"));
    // The paper grouping: 3 clusters, A and B pure, C∪D merged → purity
    // counts C∪D majority = 20/110 + … ⇒ exactly 90/110.
    assert!(stdout.contains("purity vs categories: 0.818"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_command_fails_cleanly() {
    for command in ["frobnicate", "bench-diff"] {
        let out = bin().arg(command).output().expect("binary runs");
        assert!(!out.status.success(), "{command} is not a command");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"), "{command}");
    }
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin().args(["convert", "/definitely/not/there.trace"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn bad_flag_value_is_reported() {
    let out = bin().args(["cluster", "x", "--cut", "abc"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs an integer"));
}

#[test]
fn version_flag_prints_version() {
    for arg in ["--version", "-V", "version"] {
        let out = bin().arg(arg).output().expect("binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.trim(), format!("kastio {}", env!("CARGO_PKG_VERSION")));
    }
}

#[test]
fn help_subcommand_covers_all_commands() {
    let out = bin().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let commands =
        ["convert", "compare", "generate", "cluster", "serve", "query", "loadgen", "help"];
    for command in commands {
        assert!(stdout.contains(command), "usage mentions {command}:\n{stdout}");
        let topic = bin().args(["help", command]).output().expect("binary runs");
        assert!(topic.status.success(), "`kastio help {command}` succeeds");
        assert!(String::from_utf8_lossy(&topic.stdout).contains(&format!("kastio {command}")));
    }
}

#[test]
fn help_topic_is_detailed() {
    let out = bin().args(["help", "serve"]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INGEST"), "serve help documents the protocol:\n{stdout}");
    assert!(stdout.contains("SHUTDOWN"));

    let out = bin().args(["help", "frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frobnicate"));
    assert!(stderr.contains("loadgen"), "the error lists every topic:\n{stderr}");
}

#[test]
fn unknown_flag_error_names_the_flag() {
    let out = bin().args(["convert", "x.trace", "--frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--frobnicate"), "error names the offending flag:\n{stderr}");
}

#[test]
fn query_with_unreachable_server_fails_cleanly() {
    let dir = tmpdir("query-unreachable");
    let trace = dir.join("q.trace");
    write(&trace, "h0 write 8\n");
    // Port 1 on loopback refuses immediately (nothing listens there).
    let out = bin()
        .args(["query", "127.0.0.1:1", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot connect"));
    std::fs::remove_dir_all(&dir).unwrap();
}
