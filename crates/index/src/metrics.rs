//! The daemon's one metric table: every `STATS` key and `METRICS`
//! family is declared once, typed, and both replies render from it.
//!
//! Each row names one counter or gauge: its `STATS` key, its `METRICS`
//! family and labels, its kind, and a function that reads its value from
//! one point-in-time `Sources`. `STATS` renders the rows in table order,
//! then the per-verb latency digests. `METRICS` renders the same rows
//! under one `# TYPE` line per family (a family's rows are adjacent),
//! then the latency histograms and the quantile gauges. The two replies
//! therefore cannot drift.
//!
//! The values stay where they are recorded: the index's work counters
//! and snapshot status, the `ServerMetrics` atomics and histograms, the
//! WAL counters and the memory quota. Nothing on the request path knows
//! about the table. `docs/PROTOCOL.md` documents the same rows, and the
//! conformance suite reads them from there.

use std::sync::atomic::{AtomicU64, Ordering};

use kastio_obs::{Exposition, Histogram, StripedHistogram};
use kastio_quota::MemoryQuota;

use crate::index::{IndexStats, PatternIndex, SnapshotStatus};
use crate::server::{ServerMetrics, STAGE_NAMES, VERB_NAMES};
use crate::wal::WalManager;

/// How a value moves over the daemon's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Only rises, so two readings can be differenced into a rate.
    Counter,
    /// A level, reported as read and never differenced.
    Gauge,
}

/// One row of the table.
struct Metric {
    key: &'static str,
    family: &'static str,
    /// The inner label list (`verb="hello"`), empty for none.
    labels: &'static str,
    kind: Kind,
    /// `None` renders as `-` in `STATS` and as no sample in `METRICS`.
    read: fn(&Sources<'_>) -> Option<u64>,
}

const fn counter(
    key: &'static str,
    family: &'static str,
    labels: &'static str,
    read: fn(&Sources<'_>) -> Option<u64>,
) -> Metric {
    Metric { key, family, labels, kind: Kind::Counter, read }
}

const fn gauge(
    key: &'static str,
    family: &'static str,
    labels: &'static str,
    read: fn(&Sources<'_>) -> Option<u64>,
) -> Metric {
    Metric { key, family, labels, kind: Kind::Gauge, read }
}

const VERB_FAMILY: &str = "kastio_verb_requests_total";

/// Every counter and gauge, in `STATS` order. New rows append: existing
/// positions are part of the wire contract. The `verb_*` rows follow
/// `VERB_NAMES`.
static TABLE: &[Metric] = &[
    gauge("entries", "kastio_entries", "", |s| Some(s.entries)),
    gauge("generation", "kastio_generation", "", |s| Some(s.entries)),
    counter("queries", "kastio_queries_total", "", |s| Some(s.index.queries)),
    counter("kernel_evals", "kastio_kernel_evals_total", "", |s| Some(s.index.kernel_evals)),
    counter("cache_hits", "kastio_cache_hits_total", "", |s| Some(s.index.cache_hits)),
    gauge("cached_pairs", "kastio_cached_pairs", "", |s| Some(s.cached_pairs)),
    counter("prefilter_pruned", "kastio_prefilter_pruned_total", "", |s| {
        Some(s.index.prefilter_pruned)
    }),
    counter("ingest_evals", "kastio_ingest_evals_total", "", |s| Some(s.index.ingest_evals)),
    counter("query_self_evals", "kastio_query_self_evals_total", "", |s| {
        Some(s.index.query_self_evals)
    }),
    counter("snapshots", "kastio_snapshots_total", "", |s| Some(s.snapshot.snapshots)),
    counter("snapshot_errors", "kastio_snapshot_errors_total", "", |s| Some(s.snapshot.errors)),
    gauge("last_snapshot_ok", "kastio_last_snapshot_ok", "", |s| s.snapshot.last_ok.map(u64::from)),
    gauge("last_snapshot_generation", "kastio_last_snapshot_generation", "", |s| {
        Some(s.snapshot.last_generation)
    }),
    gauge("last_snapshot_duration_us", "kastio_last_snapshot_duration_us", "", |s| {
        Some(s.snapshot.last_duration_micros)
    }),
    gauge("last_snapshot_bytes", "kastio_last_snapshot_bytes", "", |s| Some(s.snapshot.last_bytes)),
    counter("wal_records", "kastio_wal_records_total", "", |s| Some(s.snapshot.wal_records)),
    counter("wal_bytes", "kastio_wal_bytes_total", "", |s| Some(s.snapshot.wal_bytes)),
    counter("wal_fsyncs", "kastio_wal_fsyncs_total", "", |s| Some(s.snapshot.wal_fsyncs)),
    gauge("last_replay_records", "kastio_wal_replay_records", "", |s| {
        Some(s.snapshot.last_replay_records)
    }),
    gauge("uptime_secs", "kastio_uptime_seconds", "", |s| {
        Some(s.server.started.elapsed().as_secs())
    }),
    counter("connections", "kastio_connections_total", "", |s| load(&s.server.connections)),
    counter("requests_total", "kastio_requests_total", "", |s| load(&s.server.requests)),
    counter("request_errors", "kastio_request_errors_total", "", |s| load(&s.server.errors)),
    counter("verb_hello", VERB_FAMILY, "verb=\"hello\"", |s| load(&s.server.verbs[0])),
    counter("verb_ingest", VERB_FAMILY, "verb=\"ingest\"", |s| load(&s.server.verbs[1])),
    counter("verb_batch_ingest", VERB_FAMILY, "verb=\"batch_ingest\"", |s| {
        load(&s.server.verbs[2])
    }),
    counter("verb_query", VERB_FAMILY, "verb=\"query\"", |s| load(&s.server.verbs[3])),
    counter("verb_mquery", VERB_FAMILY, "verb=\"mquery\"", |s| load(&s.server.verbs[4])),
    counter("verb_stats", VERB_FAMILY, "verb=\"stats\"", |s| load(&s.server.verbs[5])),
    counter("verb_save", VERB_FAMILY, "verb=\"save\"", |s| load(&s.server.verbs[6])),
    counter("verb_shutdown", VERB_FAMILY, "verb=\"shutdown\"", |s| load(&s.server.verbs[7])),
    counter("verb_metrics", VERB_FAMILY, "verb=\"metrics\"", |s| load(&s.server.verbs[8])),
    counter("verb_slowlog", VERB_FAMILY, "verb=\"slowlog\"", |s| load(&s.server.verbs[9])),
    gauge("mem_used_bytes", "kastio_mem_used_bytes", "", |s| Some(s.quota.used())),
    gauge("mem_limit_bytes", "kastio_mem_limit_bytes", "", |s| Some(s.quota.limit().unwrap_or(0))),
    gauge("mem_unreclaimable_bytes", "kastio_mem_unreclaimable_bytes", "", |s| {
        Some(s.quota.unreclaimable())
    }),
    counter("mem_reclaims", "kastio_mem_reclaims_total", "", |s| Some(s.quota.reclaims())),
    counter("shed_memory", "kastio_shed_total", "reason=\"memory\"", |s| {
        load(&s.server.shed_memory)
    }),
    counter("shed_connections", "kastio_shed_total", "reason=\"connections\"", |s| {
        load(&s.server.shed_connections)
    }),
    counter("timeouts", "kastio_timeouts_total", "", |s| load(&s.server.timeouts)),
    gauge("slowlog_entries", "kastio_slowlog_entries", "", |s| Some(s.slowlog_entries)),
];

fn load(counter: &AtomicU64) -> Option<u64> {
    Some(counter.load(Ordering::Relaxed))
}

/// Whether `key` is a `STATS` counter: a value that only rises over the
/// daemon's lifetime, so a harness may difference two readings. Gauges,
/// the `latency_*` digests and unknown keys are not counters.
pub fn is_counter(key: &str) -> bool {
    TABLE.iter().any(|metric| metric.key == key && metric.kind == Kind::Counter)
}

/// Everything the rows read, gathered once per reply.
pub(crate) struct Sources<'a> {
    /// `index.len()`, read once: `entries` and `generation` are the same
    /// number, and two reads could straddle an ingest.
    entries: u64,
    cached_pairs: u64,
    index: IndexStats,
    /// With the live WAL counters overlaid when a WAL is attached.
    snapshot: SnapshotStatus,
    server: &'a ServerMetrics,
    quota: &'a MemoryQuota,
    slowlog_entries: u64,
    /// Merged histograms of the verbs with samples, in `VERB_NAMES` order.
    verb_latency: Vec<(&'static str, Histogram)>,
    /// Merged histograms of the stages with samples, in pipeline order.
    stage_latency: Vec<(&'static str, Histogram)>,
}

impl<'a> Sources<'a> {
    pub(crate) fn read(
        index: &PatternIndex,
        wal: Option<&WalManager>,
        server: &'a ServerMetrics,
        quota: &'a MemoryQuota,
        slowlog_entries: usize,
    ) -> Sources<'a> {
        let mut snapshot = index.snapshot_status();
        if let Some(wal) = wal {
            wal.overlay(&mut snapshot);
        }
        Sources {
            entries: index.len() as u64,
            cached_pairs: index.cached_pairs() as u64,
            index: index.stats(),
            snapshot,
            server,
            quota,
            slowlog_entries: slowlog_entries as u64,
            verb_latency: merged(&VERB_NAMES, &server.verb_latency),
            stage_latency: merged(&STAGE_NAMES, &server.stage_latency),
        }
    }
}

fn merged(
    names: &[&'static str],
    histograms: &[StripedHistogram],
) -> Vec<(&'static str, Histogram)> {
    names
        .iter()
        .zip(histograms)
        .filter(|(_, striped)| striped.count() > 0)
        .map(|(name, striped)| (*name, striped.snapshot()))
        .collect()
}

/// The p50/p95/p99 digests of a nanosecond histogram in whole
/// microseconds, each with its `STATS` key suffix and `METRICS`
/// quantile label.
fn digests(histogram: &Histogram) -> [(&'static str, &'static str, u64); 3] {
    [("p50", "0.5", 50.0), ("p95", "0.95", 95.0), ("p99", "0.99", 99.0)]
        .map(|(suffix, quantile, p)| (suffix, quantile, histogram.percentile(p) / 1_000))
}

/// Renders the `STAT <key> <value> … END` reply: every row in table
/// order, then one `latency_<verb>_{p50,p95,p99}_us` triple per verb
/// with samples.
pub(crate) fn render_stats(sources: &Sources<'_>) -> String {
    let mut out = String::new();
    for metric in TABLE {
        let value = (metric.read)(sources).map_or_else(|| "-".to_string(), |v| v.to_string());
        out.push_str(&format!("STAT {} {value}\n", metric.key));
    }
    for (verb, histogram) in &sources.verb_latency {
        for (suffix, _, us) in digests(histogram) {
            out.push_str(&format!("STAT latency_{verb}_{suffix}_us {us}\n"));
        }
    }
    out.push_str("END\n");
    out
}

/// Renders the `METRICS` reply: an `OK metrics` header, the rows under
/// one `# TYPE` line per family, the request and stage latency
/// histograms (exact nanosecond bucket bounds, so a scraper rebuilds
/// them loss-free), the request-latency quantile gauges in
/// microseconds, and the framing `END`.
pub(crate) fn render_metrics(sources: &Sources<'_>) -> String {
    let mut exp = Exposition::new();
    let mut family = "";
    for metric in TABLE {
        if metric.family != family {
            family = metric.family;
            exp.type_line(family, if metric.kind == Kind::Counter { "counter" } else { "gauge" });
        }
        if let Some(value) = (metric.read)(sources) {
            exp.sample(family, metric.labels, value);
        }
    }
    exp.type_line("kastio_request_latency_ns", "histogram");
    for (verb, histogram) in &sources.verb_latency {
        exp.histogram("kastio_request_latency_ns", &format!("verb=\"{verb}\""), histogram);
    }
    exp.type_line("kastio_stage_latency_ns", "histogram");
    for (stage, histogram) in &sources.stage_latency {
        exp.histogram("kastio_stage_latency_ns", &format!("stage=\"{stage}\""), histogram);
    }
    exp.type_line("kastio_request_latency_us", "gauge");
    for (verb, histogram) in &sources.verb_latency {
        for (_, quantile, us) in digests(histogram) {
            let labels = format!("verb=\"{verb}\",quantile=\"{quantile}\"");
            exp.sample("kastio_request_latency_us", &labels, us);
        }
    }
    format!("OK metrics\n{}END\n", exp.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexOptions;
    use crate::server::{STAGE_KERNEL, STAGE_PARSE};
    use kastio_trace::parse_trace;

    /// A daemon's sources after one ingest and one query, with four
    /// 2 ms QUERY samples, one kernel-stage sample, three slow-log
    /// entries and a snapshot status whose values all differ.
    fn rendered(last_ok: Option<bool>) -> (String, String) {
        let index = PatternIndex::new(IndexOptions::default());
        index.ingest("e0", "w", parse_trace("h0 write 64\nh0 write 64\n").unwrap()).unwrap();
        index.query(&parse_trace("h0 write 64\n").unwrap(), 1);
        *index.lock_snapshot() = SnapshotStatus {
            snapshots: 3,
            errors: 1,
            last_ok,
            last_generation: 9,
            last_duration_micros: 1234,
            last_bytes: 4096,
            wal_records: 17,
            wal_bytes: 2048,
            wal_fsyncs: 5,
            last_replay_records: 6,
            ..SnapshotStatus::default()
        };
        let server = ServerMetrics::new();
        server.record_connection();
        for _ in 0..4 {
            server.record_latency(3, 2_000_000);
        }
        server.record_stage(STAGE_KERNEL, 1_500);
        let quota = MemoryQuota::unlimited();
        let sources = Sources::read(&index, None, &server, &quota, 3);
        (render_stats(&sources), render_metrics(&sources))
    }

    fn stat_pairs(reply: &str) -> Vec<(&str, &str)> {
        reply
            .lines()
            .filter_map(|line| line.strip_prefix("STAT "))
            .map(|line| line.split_once(' ').expect("STAT <key> <value>"))
            .collect()
    }

    #[test]
    fn stats_lists_every_row_in_order_then_the_digests() {
        let (stats, _) = rendered(None);
        assert!(stats.ends_with("\nEND\n"), "{stats}");
        let pairs = stat_pairs(&stats);
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| *key).collect();
        let rows: Vec<&str> = TABLE.iter().map(|metric| metric.key).collect();
        assert_eq!(&keys[..rows.len()], &rows[..]);
        assert_eq!(
            &pairs[rows.len()..],
            [
                ("latency_query_p50_us", "2000"),
                ("latency_query_p95_us", "2000"),
                ("latency_query_p99_us", "2000")
            ],
            "digests only for verbs with samples"
        );
        assert!(stats.starts_with("STAT entries 1\nSTAT generation 1\nSTAT queries 1\n"));
        assert!(stats.contains("STAT last_snapshot_ok -\n"), "never attempted renders `-`");
        assert!(stats.contains("STAT connections 1\n"));
        assert!(stats.contains("STAT slowlog_entries 3\n"));
        let verbs: Vec<String> = VERB_NAMES.iter().map(|verb| format!("verb_{verb}")).collect();
        let verb_rows: Vec<&str> =
            rows.iter().copied().filter(|key| key.starts_with("verb_")).collect();
        assert_eq!(verb_rows, verbs, "the verb rows follow VERB_NAMES");
    }

    #[test]
    fn metrics_samples_follow_their_own_family_type_line() {
        let (_, metrics) = rendered(None);
        assert!(metrics.starts_with("OK metrics\n"), "{metrics}");
        let body = metrics.strip_prefix("OK metrics\n").unwrap().strip_suffix("END\n").unwrap();
        assert!(body.lines().all(|line| line != "END"), "no body line aliases the frame end");
        let mut families: Vec<(&str, &str)> = Vec::new();
        for line in body.lines() {
            if let Some(declared) = line.strip_prefix("# TYPE ") {
                let (family, kind) = declared.split_once(' ').unwrap();
                assert!(families.iter().all(|(seen, _)| *seen != family), "{family} twice");
                families.push((family, kind));
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let &(family, kind) = families.last().expect("a sample before any # TYPE line");
            let own = name == family
                || kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| name.strip_suffix(suffix) == Some(family));
            assert!(own, "{line} sits under {family}");
        }
        assert!(body.contains("# TYPE kastio_last_snapshot_ok gauge\n# TYPE "), "no sample");
        assert!(body.contains("kastio_request_latency_ns_count{verb=\"query\"} 4\n"));
        assert!(body.contains("kastio_stage_latency_ns_count{stage=\"kernel\"} 1\n"));
        assert!(!body.contains(&format!("stage=\"{}\"", STAGE_NAMES[STAGE_PARSE])));
        assert!(body.contains("kastio_request_latency_us{verb=\"query\",quantile=\"0.99\"} 2000\n"));
    }

    #[test]
    fn every_stats_value_equals_its_metrics_sample() {
        for last_ok in [None, Some(false), Some(true)] {
            let (stats, metrics) = rendered(last_ok);
            let pairs = stat_pairs(&stats);
            for (metric, (key, value)) in TABLE.iter().zip(&pairs) {
                assert_eq!(metric.key, *key);
                let series = if metric.labels.is_empty() {
                    metric.family.to_string()
                } else {
                    format!("{}{{{}}}", metric.family, metric.labels)
                };
                let sample =
                    metrics.lines().find_map(|line| line.strip_prefix(&format!("{series} ")));
                match *value {
                    "-" => assert_eq!(sample, None, "{key} has no value, so no sample"),
                    value => assert_eq!(sample, Some(value), "{key}"),
                }
            }
            let ok = last_ok.map_or("-", |ok| if ok { "1" } else { "0" });
            assert!(stats.contains(&format!("STAT last_snapshot_ok {ok}\n")), "{stats}");
            assert!(stats.contains("STAT snapshot_errors 1\nSTAT last_snapshot_ok "), "{stats}");
            assert!(stats.contains("STAT last_snapshot_bytes 4096\nSTAT wal_records 17\n"));
            assert!(stats.contains("STAT wal_fsyncs 5\nSTAT last_replay_records 6\n"));
        }
    }

    #[test]
    fn only_counters_and_verb_keys_are_counters() {
        for key in ["queries", "snapshots", "wal_fsyncs", "connections", "mem_reclaims"] {
            assert!(is_counter(key), "{key}");
        }
        for key in ["shed_memory", "shed_connections", "timeouts", "verb_hello", "verb_slowlog"] {
            assert!(is_counter(key), "{key}");
        }
        for key in ["entries", "generation", "cached_pairs", "uptime_secs", "last_snapshot_ok"] {
            assert!(!is_counter(key), "{key}");
        }
        for key in ["last_replay_records", "mem_used_bytes", "mem_limit_bytes", "slowlog_entries"] {
            assert!(!is_counter(key), "{key}");
        }
        for key in ["latency_query_p50_us", "latency_hello_p99_us", "shards", "nope"] {
            assert!(!is_counter(key), "{key}");
        }
    }
}
