//! Parsing the daemon's `STATS` reply and comparing two snapshots, so a
//! load run can attribute cache hits, kernel evaluations and snapshot
//! activity to the scenario that ran between them. Only counters are
//! differenced; the daemon's metric table says which keys those are.

use std::collections::BTreeMap;

use kastio_index::metrics::is_counter;

/// Parses a framed `STAT <key> <value> … END` reply into a key → value
/// map. Non-numeric values (`last_snapshot_ok -` before any snapshot)
/// are skipped — they carry no deltable information.
///
/// # Errors
///
/// Returns a message when the reply is not a `STAT` block (e.g. an
/// `ERR …` line), so callers surface protocol drift instead of reporting
/// an empty delta.
pub fn parse_stats(reply: &str) -> Result<BTreeMap<String, u64>, String> {
    if !reply.starts_with("STAT ") {
        return Err(format!("not a STATS reply: {}", reply.lines().next().unwrap_or("")));
    }
    let mut map = BTreeMap::new();
    for line in reply.lines() {
        if line == "END" {
            return Ok(map);
        }
        let mut fields = line.split_whitespace();
        let (stat, key, value) = (fields.next(), fields.next(), fields.next());
        match (stat, key, value) {
            (Some("STAT"), Some(key), Some(value)) => {
                if let Ok(number) = value.parse::<u64>() {
                    map.insert(key.to_string(), number);
                }
            }
            _ => return Err(format!("malformed STAT line: {line}")),
        }
    }
    Err("STATS reply not terminated by END".to_string())
}

/// `after - before` for every counter key (as
/// [`kastio_index::metrics::is_counter`] types them). A key missing on
/// one side reads as 0 there, and a counter that shrank (the server
/// restarted between the readings) reads as 0.
pub fn stats_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let mut delta = BTreeMap::new();
    for key in before.keys().chain(after.keys()).filter(|key| is_counter(key)) {
        let b = before.get(key).copied().unwrap_or(0);
        let a = after.get(key).copied().unwrap_or(0);
        delta.entry(key.clone()).or_insert(a.saturating_sub(b));
    }
    delta
}

/// The after-value of every gauge key: sizes, the snapshot block,
/// uptime, the memory gauges and the `latency_*` digests. A level is
/// never differenced.
pub fn stats_gauges(after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after.iter().filter(|(key, _)| !is_counter(key)).map(|(k, v)| (k.clone(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "STAT entries 3\nSTAT cache_hits 7\nSTAT last_snapshot_ok -\nEND\n";

    #[test]
    fn parses_a_stats_block_skipping_non_numeric_values() {
        let map = parse_stats(REPLY).unwrap();
        assert_eq!(map.get("entries"), Some(&3));
        assert_eq!(map.get("cache_hits"), Some(&7));
        assert!(!map.contains_key("last_snapshot_ok"), "`-` is skipped");
    }

    #[test]
    fn rejects_non_stats_replies() {
        assert!(parse_stats("ERR nope\n").unwrap_err().contains("not a STATS reply"));
        assert!(parse_stats("STAT entries 3\n").unwrap_err().contains("END"));
        assert!(parse_stats("STAT entries\nEND\n").unwrap_err().contains("malformed"));
    }

    #[test]
    fn only_counters_are_differenced() {
        let before = parse_stats(
            "STAT entries 4\nSTAT cache_hits 5\nSTAT timeouts 3\n\
             STAT latency_query_p50_us 900\nEND\n",
        )
        .unwrap();
        let after = parse_stats(
            "STAT entries 6\nSTAT cache_hits 8\nSTAT timeouts 1\nSTAT verb_query 2\n\
             STAT latency_query_p50_us 700\nEND\n",
        )
        .unwrap();
        let delta = stats_delta(&before, &after);
        assert_eq!(
            delta,
            BTreeMap::from([
                ("cache_hits".to_string(), 3),
                ("timeouts".to_string(), 0),
                ("verb_query".to_string(), 2),
            ]),
            "a shrunk counter (a restart) clamps to 0; gauges and digests are absent"
        );
        let gauges = stats_gauges(&after);
        assert_eq!(
            gauges,
            BTreeMap::from([("entries".to_string(), 6), ("latency_query_p50_us".to_string(), 700)]),
            "gauges report their after-value, a falling percentile included"
        );
    }
}
