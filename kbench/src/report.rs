//! Metric names and units (the same lists as `BENCHMARK.json`), the
//! result line, checks and provenance.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// End-to-end metrics, printed with `--trace 0`. The p99 latencies are
/// printed in the report but not gated: on a shared 2-vCPU VM they swing
/// by half their value from run to run (see the README).
pub const END_TO_END: [(&str, &str); 8] = [
    ("query_p50_us", "us"),
    ("ingest_p50_us", "us"),
    ("ingest_entries_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A timing has a `.p50`
/// and a `.p99` (the tail rule of [`crate::stats`]); a ratio comes with
/// its base counts.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("eval.batch_ns.p50", "ns"),
    ("eval.batch_ns.p99", "ns"),
    ("eval.ns_per_pair_batched", "ns"),
    ("eval.ns_per_pair_inline.p50", "ns"),
    ("eval.ns_per_pair_inline.p99", "ns"),
    ("eval.evals_per_query", "count"),
    ("eval.pairs", "count"),
    ("eval.inline_pairs", "count"),
    ("prefilter.ns.p50", "ns"),
    ("prefilter.ns.p99", "ns"),
    ("prefilter.ns_per_entry", "ns"),
    ("prefilter.candidates_per_query", "count"),
    ("prefilter.useful_ratio", "ratio"),
    ("prefilter.candidates", "count"),
    ("prefilter.neighbours", "count"),
    ("lru.ns.p50", "ns"),
    ("lru.ns.p99", "ns"),
    ("lru.hit_ratio", "ratio"),
    ("lru.hits", "count"),
    ("lru.lookups", "count"),
    ("index.query_self_ns.p50", "ns"),
    ("index.query_self_ns.p99", "ns"),
    ("index.self_evals_per_query", "count"),
    ("index.self_evals", "count"),
    ("index.ingest_ns.p50", "ns"),
    ("index.ingest_ns.p99", "ns"),
    ("pipeline.intern_ns.p50", "ns"),
    ("pipeline.intern_ns.p99", "ns"),
    ("pipeline.tokens_per_trace", "count"),
    ("signature.ns.p50", "ns"),
    ("signature.ns.p99", "ns"),
    ("protocol.parse_ns.p50", "ns"),
    ("protocol.parse_ns.p99", "ns"),
    ("protocol.render_ns.p50", "ns"),
    ("protocol.render_ns.p99", "ns"),
    ("protocol.reply_bytes", "bytes"),
    ("wal.append_ns.p50", "ns"),
    ("wal.append_ns.p99", "ns"),
    ("wal.durable_wait_us.p50", "us"),
    ("wal.durable_wait_us.p99", "us"),
    ("wal.fsyncs_per_record", "ratio"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.records", "count"),
    ("wal.fsyncs", "count"),
    ("persist.load_s", "s"),
    ("persist.replay_records", "count"),
    ("persist.save_s", "s"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.truncate_s", "s"),
    ("runtime.hello_rtt_us.p50", "us"),
    ("runtime.hello_rtt_us.p99", "us"),
    ("runtime.hellos", "count"),
    ("runtime.query_gap_us", "us"),
    ("runtime.ingest_gap_us", "us"),
    ("request.query_ns.p50", "ns"),
    ("request.query_ns.p99", "ns"),
    ("request.queries", "count"),
    ("request.ingest_ns.p50", "ns"),
    ("request.ingest_ns.p99", "ns"),
    ("request.ingests", "count"),
    ("request.batch_ingest_ns.p50", "ns"),
    ("request.batch_ingest_ns.p99", "ns"),
    ("request.batch_ingests", "count"),
    ("request.query_unaccounted_ns", "ns"),
    ("request.ingest_unaccounted_ns", "ns"),
    ("request.batch_ingest_unaccounted_ns", "ns"),
    ("trace.span_cost_ns", "ns"),
];

/// Measured values, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(!self.values.iter().any(|(n, _)| *n == name), "metric `{name}` set twice");
        self.values.push((name, value));
    }

    /// The values of exactly `declared`, in its order.
    ///
    /// # Errors
    ///
    /// When a declared metric was not measured or an undeclared one was.
    pub fn in_order(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if let Some((name, _)) =
            self.values.iter().find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric `{name}` is not declared"));
        }
        declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                value
                    .map(|v| (name, unit, v))
                    .ok_or_else(|| format!("metric `{name}` was not measured"))
            })
            .collect()
    }
}

/// One named pass/fail judgement of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check { name, ok, detail: detail.into() }
    }
}

/// The last line of a run's output.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Finite by construction; `{:?}` keeps every digit of an f64.
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// Where and on what a run was measured.
pub fn provenance(seed: u64, run_dir: &Path) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|line| {
            line.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = cpuinfo.lines().filter(|line| line.starts_with("processor")).count();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", format!("{parallelism} (cpuinfo processors: {cpus})")),
        ("cpu", cpu),
        ("kernel", kernel),
        ("fs", filesystem_of(run_dir)),
        ("commit", git_commit()),
        ("seed", seed.to_string()),
    ]
}

/// The type of the filesystem holding `dir`: the longest mount point in
/// `/proc/mounts` that contains it.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".to_string() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kastio_loadgen::{parse_json, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::Workload::ALL.map(crate::Workload::name));
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let line = result_line(true, 3, 0, &[("setup_s", "s", 2.5), ("ops_per_s", "1/s", 100.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 2.5, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 100.0, \"unit\": \"1/s\"}}}"
        );
        let doc = parse_json(&line).expect("valid JSON");
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(2.5)
        );
    }

    #[test]
    fn metrics_must_match_the_declared_list() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 1.0);
        assert!(metrics.in_order(&[("setup_s", "s")]).is_ok());
        assert!(metrics.in_order(&[("setup_s", "s"), ("ops_per_s", "1/s")]).is_err());
        metrics.set("stray", 1.0);
        assert!(metrics.in_order(&[("setup_s", "s")]).is_err());
    }
}
