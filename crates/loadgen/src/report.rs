//! The `BENCH_serve.json` document: per-scenario, per-verb throughput
//! and latency quantiles plus the server-side STATS counter deltas and
//! gauge after-values, rendered with a hand-rolled JSON writer (the
//! build environment has no serde).

use std::collections::BTreeMap;

use crate::client::ScenarioRun;
use crate::stats::{stats_delta, stats_gauges};

/// Latency/throughput summary for one verb within one scenario.
#[derive(Debug, Clone)]
pub struct VerbReport {
    /// Wire verb (`QUERY`, `INGEST`, …).
    pub verb: String,
    /// Requests sent.
    pub count: u64,
    /// `ERR` replies received.
    pub errors: u64,
    /// The subset of `errors` that were `ERR busy …` load sheds.
    pub busy: u64,
    /// Requests per second over the scenario's wall clock.
    pub throughput_rps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
}

/// Server-side latency for one verb over one scenario, rebuilt from the
/// `METRICS` bucket series scraped before and after the run.
#[derive(Debug, Clone)]
pub struct ServerLatency {
    /// Requests the server timed during the scenario.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

impl ServerLatency {
    /// Digests one scraped histogram (nanoseconds) into the report row.
    pub fn from_histogram(histogram: &crate::histogram::Histogram) -> ServerLatency {
        ServerLatency {
            count: histogram.count(),
            p50_us: histogram.percentile(50.0) as f64 / 1e3,
            p95_us: histogram.percentile(95.0) as f64 / 1e3,
            p99_us: histogram.percentile(99.0) as f64 / 1e3,
        }
    }
}

/// One scenario's results: client-side measurements and the server-side
/// STATS movement attributable to the run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (`read-heavy`, …).
    pub name: String,
    /// Wall-clock seconds from first request to last reply.
    pub elapsed_secs: f64,
    /// Total requests across verbs and clients.
    pub requests: u64,
    /// Total `ERR` replies.
    pub errors: u64,
    /// Total `ERR busy …` sheds (a subset of `errors`) — what an
    /// overload run compares against the server's `shed_*` counters.
    pub busy: u64,
    /// Aggregate requests per second.
    pub throughput_rps: f64,
    /// Per-verb breakdown, in verb order.
    pub per_verb: Vec<VerbReport>,
    /// `STATS` after − before, per counter key (cache hits, kernel
    /// evals, snapshot counters, connection/verb counters, …).
    pub stats_delta: BTreeMap<String, u64>,
    /// `STATS` after-values of the gauge keys (entries, uptime, memory
    /// gauges, latency digests, …), which are never differenced.
    pub stats_gauges: BTreeMap<String, u64>,
    /// Server-side latency per verb (lowercase server names), scraped
    /// from the `METRICS` fences. Empty against a server without the
    /// `METRICS` verb.
    pub server_latency: BTreeMap<String, ServerLatency>,
}

impl ScenarioReport {
    /// Builds a report from the measured run and its two STATS fences.
    pub fn new(
        name: &str,
        run: &ScenarioRun,
        before: &BTreeMap<String, u64>,
        after: &BTreeMap<String, u64>,
    ) -> ScenarioReport {
        let secs = run.elapsed.as_secs_f64();
        let per_verb = run
            .per_verb
            .iter()
            .map(|(verb, stats)| VerbReport {
                verb: (*verb).to_string(),
                count: stats.count,
                errors: stats.errors,
                busy: stats.busy,
                throughput_rps: stats.count as f64 / secs,
                p50_us: stats.histogram.percentile(50.0) as f64 / 1e3,
                p95_us: stats.histogram.percentile(95.0) as f64 / 1e3,
                p99_us: stats.histogram.percentile(99.0) as f64 / 1e3,
                mean_us: stats.histogram.mean() / 1e3,
                max_us: stats.histogram.max() as f64 / 1e3,
            })
            .collect();
        ScenarioReport {
            name: name.to_string(),
            elapsed_secs: secs,
            requests: run.requests,
            errors: run.errors,
            busy: run.busy,
            throughput_rps: run.requests as f64 / secs,
            per_verb,
            stats_delta: stats_delta(before, after),
            stats_gauges: stats_gauges(after),
            server_latency: BTreeMap::new(),
        }
    }

    /// Attaches the server-side latency scraped around this scenario.
    #[must_use]
    pub fn with_server_latency(
        mut self,
        latency: &BTreeMap<String, crate::histogram::Histogram>,
    ) -> ScenarioReport {
        self.server_latency = latency
            .iter()
            .map(|(verb, histogram)| (verb.clone(), ServerLatency::from_histogram(histogram)))
            .collect();
        self
    }
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario RNG seed (rerun with the same seed for comparable runs).
    pub seed: u64,
    /// Concurrent clients per scenario.
    pub clients: usize,
    /// Configured duration per scenario, seconds.
    pub duration_secs: f64,
    /// `self-spawned` or the external server address.
    pub server: String,
    /// Threads the container advertises (1 on the CI box — quote
    /// latency numbers with that in mind).
    pub available_parallelism: usize,
    /// One entry per scenario, in run order.
    pub scenarios: Vec<ScenarioReport>,
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `f64` with enough (but not absurd) precision for a bench artifact.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

/// Renders `"<name>": { "<key>": <value>, … }` at scenario depth.
fn push_map(out: &mut String, name: &str, map: &BTreeMap<String, u64>, trailer: &str) {
    out.push_str(&format!("      \"{name}\": {{\n"));
    for (j, (key, value)) in map.iter().enumerate() {
        let comma = if j + 1 < map.len() { "," } else { "" };
        out.push_str(&format!("        \"{}\": {value}{comma}\n", escape(key)));
    }
    out.push_str(&format!("      }}{trailer}\n"));
}

impl Report {
    /// Renders the document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"suite\": \"serve_load\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"duration_secs\": {},\n", num(self.duration_secs)));
        out.push_str(&format!("  \"server\": \"{}\",\n", escape(&self.server)));
        out.push_str(&format!("  \"available_parallelism\": {},\n", self.available_parallelism));
        out.push_str("  \"scenarios\": [\n");
        for (i, scenario) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", escape(&scenario.name)));
            out.push_str(&format!("      \"elapsed_secs\": {},\n", num(scenario.elapsed_secs)));
            out.push_str(&format!("      \"requests\": {},\n", scenario.requests));
            out.push_str(&format!("      \"errors\": {},\n", scenario.errors));
            out.push_str(&format!("      \"busy\": {},\n", scenario.busy));
            out.push_str(&format!("      \"throughput_rps\": {},\n", num(scenario.throughput_rps)));
            out.push_str("      \"per_verb\": {\n");
            for (j, verb) in scenario.per_verb.iter().enumerate() {
                out.push_str(&format!(
                    "        \"{}\": {{\"count\": {}, \"errors\": {}, \"busy\": {}, \
                     \"throughput_rps\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                     \"p99_us\": {}, \"mean_us\": {}, \"max_us\": {}}}{}\n",
                    escape(&verb.verb),
                    verb.count,
                    verb.errors,
                    verb.busy,
                    num(verb.throughput_rps),
                    num(verb.p50_us),
                    num(verb.p95_us),
                    num(verb.p99_us),
                    num(verb.mean_us),
                    num(verb.max_us),
                    if j + 1 < scenario.per_verb.len() { "," } else { "" },
                ));
            }
            out.push_str("      },\n");
            out.push_str("      \"server_latency\": {\n");
            let server: Vec<_> = scenario.server_latency.iter().collect();
            for (j, (verb, latency)) in server.iter().enumerate() {
                out.push_str(&format!(
                    "        \"{}\": {{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                     \"p99_us\": {}}}{}\n",
                    escape(verb),
                    latency.count,
                    num(latency.p50_us),
                    num(latency.p95_us),
                    num(latency.p99_us),
                    if j + 1 < server.len() { "," } else { "" },
                ));
            }
            out.push_str("      },\n");
            push_map(&mut out, "stats_delta", &scenario.stats_delta, ",");
            push_map(&mut out, "stats_gauges", &scenario.stats_gauges, "");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.scenarios.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VerbStats;
    use crate::histogram::Histogram;
    use std::time::Duration;

    fn sample_report() -> Report {
        let mut histogram = Histogram::new();
        for v in 1..=100u64 {
            histogram.record(v * 10_000);
        }
        let mut per_verb = BTreeMap::new();
        per_verb.insert("QUERY", VerbStats { count: 100, errors: 2, busy: 1, histogram });
        let run = ScenarioRun {
            per_verb,
            elapsed: Duration::from_secs(2),
            requests: 100,
            errors: 2,
            busy: 1,
        };
        let before = crate::stats::parse_stats("STAT entries 3\nSTAT cache_hits 5\nEND\n").unwrap();
        let after = crate::stats::parse_stats("STAT entries 4\nSTAT cache_hits 25\nEND\n").unwrap();
        let mut server_hist = Histogram::new();
        server_hist.record_n(500_000, 50);
        let server_latency = BTreeMap::from([("query".to_string(), server_hist)]);
        Report {
            seed: 42,
            clients: 4,
            duration_secs: 2.0,
            server: "self-spawned".to_string(),
            available_parallelism: 1,
            scenarios: vec![ScenarioReport::new("read-heavy", &run, &before, &after)
                .with_server_latency(&server_latency)],
        }
    }

    #[test]
    fn json_contains_the_documented_fields() {
        let json = sample_report().to_json();
        for needle in [
            "\"suite\": \"serve_load\"",
            "\"seed\": 42",
            "\"name\": \"read-heavy\"",
            "\"requests\": 100",
            "\"QUERY\": {\"count\": 100, \"errors\": 2, \"busy\": 1",
            "\"busy\": 1,",
            "\"p50_us\":",
            "\"p95_us\":",
            "\"p99_us\":",
            "\"stats_delta\": {\n        \"cache_hits\": 20\n      },",
            "\"stats_gauges\": {\n        \"entries\": 4\n      }\n",
            "\"server_latency\": {",
            "\"query\": {\"count\": 50,",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = sample_report().to_json();
        // A serde-less sanity check: every brace/bracket closes, and no
        // trailing comma precedes a closer (the classic hand-writer bug).
        let (mut braces, mut brackets) = (0i64, 0i64);
        for c in json.chars() {
            match c {
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
            assert!(braces >= 0 && brackets >= 0);
        }
        assert_eq!((braces, brackets), (0, 0));
        let squashed: String = json.split_whitespace().collect();
        assert!(!squashed.contains(",}"), "trailing comma before }}");
        assert!(!squashed.contains(",]"), "trailing comma before ]");
    }
}
