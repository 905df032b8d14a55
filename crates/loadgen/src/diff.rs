//! `kastio bench-diff`: regression gating between two `BENCH_serve.json`
//! documents.
//!
//! CI runs the load smoke against the current build, then diffs the fresh
//! artifact against the committed baseline: for every (scenario, verb)
//! pair present in both, throughput must not drop — and client-observed
//! p99 must not grow — beyond a configurable noise band. The comparison
//! is deliberately coarse (load numbers on shared CI hosts are noisy;
//! the default band is ±25% and CI uses a wider one), but it turns a
//! 10× latency regression from a number someone might read into a red
//! build.
//!
//! The JSON reader is a minimal recursive-descent parser (the build
//! environment has no serde); it handles the full JSON grammar, not just
//! the shapes our own writer emits, so hand-edited baselines still load.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // Surrogates only arise for astral chars our
                            // writer never emits; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// One compared metric of one (scenario, verb) pair.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Scenario name.
    pub scenario: String,
    /// Verb within the scenario.
    pub verb: String,
    /// `throughput_rps` or `p99_us`.
    pub metric: &'static str,
    /// The baseline document's value.
    pub baseline: f64,
    /// The new document's value.
    pub new: f64,
    /// Whether the movement left the noise band in the bad direction.
    pub regressed: bool,
}

/// The full comparison of two bench documents.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Fractional noise band the rows were judged against (0.25 = ±25%).
    pub band: f64,
    /// Every compared metric, in scenario/verb order.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// The rows that regressed beyond the band.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|row| row.regressed).collect()
    }

    /// Human-readable table: one line per row, regressions marked.
    pub fn render(&self) -> String {
        let mut out = format!("bench-diff (band ±{:.0}%)\n", self.band * 100.0);
        for row in &self.rows {
            let change = if row.baseline.abs() > f64::EPSILON {
                format!("{:+.1}%", (row.new / row.baseline - 1.0) * 100.0)
            } else {
                "n/a".to_string()
            };
            out.push_str(&format!(
                "  {} {}/{:<7} {:<14} {:>10.1} -> {:>10.1}  ({change})\n",
                if row.regressed { "REGRESSION" } else { "ok        " },
                row.scenario,
                row.verb,
                row.metric,
                row.baseline,
                row.new,
            ));
        }
        out
    }
}

/// A bench document indexed as `(scenario, verb) -> (throughput_rps, p99_us)`.
type VerbMetrics = BTreeMap<(String, String), (f64, f64)>;

fn per_verb_metrics(report: &Json) -> Result<VerbMetrics, String> {
    let scenarios = report
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("document has no `scenarios` array (not a BENCH_serve.json?)")?;
    let mut metrics = BTreeMap::new();
    for scenario in scenarios {
        let name = scenario
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario without a `name`")?
            .to_string();
        let Some(Json::Obj(verbs)) = scenario.get("per_verb") else {
            return Err(format!("scenario `{name}` has no `per_verb` object"));
        };
        for (verb, stats) in verbs {
            let field = |key: &str| {
                stats.get(key).and_then(Json::as_f64).ok_or_else(|| {
                    format!("scenario `{name}` verb `{verb}` has no numeric `{key}`")
                })
            };
            metrics
                .insert((name.clone(), verb.clone()), (field("throughput_rps")?, field("p99_us")?));
        }
    }
    Ok(metrics)
}

/// Compares a fresh bench document against a baseline.
///
/// Regression rules, per (scenario, verb) pair present in both documents:
/// throughput below `baseline × (1 − band)`, or p99 above
/// `baseline × (1 + band)`. Pairs present on only one side are ignored
/// (scenario sets evolve); a baseline with *no* overlapping pairs is an
/// error, because a diff that compared nothing must not pass CI.
///
/// # Errors
///
/// Returns a message when either document is not a bench report or the
/// overlap is empty.
pub fn diff_reports(new: &Json, baseline: &Json, band: f64) -> Result<DiffReport, String> {
    let new_metrics = per_verb_metrics(new)?;
    let base_metrics = per_verb_metrics(baseline)?;
    let mut rows = Vec::new();
    for ((scenario, verb), (base_rps, base_p99)) in &base_metrics {
        let Some((new_rps, new_p99)) = new_metrics.get(&(scenario.clone(), verb.clone())) else {
            continue;
        };
        rows.push(DiffRow {
            scenario: scenario.clone(),
            verb: verb.clone(),
            metric: "throughput_rps",
            baseline: *base_rps,
            new: *new_rps,
            regressed: *new_rps < base_rps * (1.0 - band),
        });
        rows.push(DiffRow {
            scenario: scenario.clone(),
            verb: verb.clone(),
            metric: "p99_us",
            baseline: *base_p99,
            new: *new_p99,
            regressed: *new_p99 > base_p99 * (1.0 + band),
        });
    }
    if rows.is_empty() {
        return Err("no (scenario, verb) pair is present in both documents".to_string());
    }
    Ok(DiffReport { band, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(query_rps: f64, query_p99: f64) -> Json {
        parse_json(&format!(
            r#"{{
              "suite": "serve_load",
              "scenarios": [
                {{
                  "name": "read-heavy",
                  "per_verb": {{
                    "QUERY": {{"count": 100, "throughput_rps": {query_rps}, "p99_us": {query_p99}}},
                    "INGEST": {{"count": 10, "throughput_rps": 50.0, "p99_us": 800.0}}
                  }}
                }}
              ]
            }}"#
        ))
        .expect("test document parses")
    }

    #[test]
    fn parser_handles_the_grammar() {
        let doc =
            parse_json(r#"{"a": [1, -2.5, 1e3], "b": "x\"\nA", "c": null, "d": true, "e": {}}"#)
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x\"\nA");
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e"), Some(&Json::Obj(vec![])));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn parser_round_trips_our_own_writer() {
        use crate::client::{ScenarioRun, VerbStats};
        use crate::histogram::Histogram;
        use std::collections::BTreeMap;
        let mut histogram = Histogram::new();
        histogram.record(1_000_000);
        let mut per_verb = BTreeMap::new();
        per_verb.insert("QUERY", VerbStats { count: 1, errors: 0, busy: 0, histogram });
        let run = ScenarioRun {
            per_verb,
            elapsed: std::time::Duration::from_secs(1),
            requests: 1,
            errors: 0,
            busy: 0,
        };
        let fences = BTreeMap::new();
        let report = crate::report::Report {
            seed: 1,
            clients: 1,
            duration_secs: 1.0,
            server: "self-spawned".to_string(),
            available_parallelism: 1,
            scenarios: vec![crate::report::ScenarioReport::new(
                "read-heavy",
                &run,
                &fences,
                &fences,
            )],
        };
        let doc = parse_json(&report.to_json()).expect("writer output parses");
        let (rps, p99) = per_verb_metrics(&doc).unwrap()[&("read-heavy".into(), "QUERY".into())];
        assert!((rps - 1.0).abs() < 1e-9);
        assert!(p99 >= 1_000.0);
    }

    #[test]
    fn identical_documents_pass() {
        let doc = bench_doc(1000.0, 500.0);
        let diff = diff_reports(&doc, &doc, 0.25).unwrap();
        assert_eq!(diff.rows.len(), 4, "two verbs x two metrics");
        assert!(diff.regressions().is_empty(), "{}", diff.render());
    }

    #[test]
    fn a_10x_p99_regression_is_flagged() {
        let baseline = bench_doc(1000.0, 500.0);
        let slow = bench_doc(1000.0, 5000.0);
        let diff = diff_reports(&slow, &baseline, 0.25).unwrap();
        let regressions = diff.regressions();
        assert_eq!(regressions.len(), 1, "{}", diff.render());
        assert_eq!(regressions[0].metric, "p99_us");
        assert_eq!(regressions[0].verb, "QUERY");
        assert!(diff.render().contains("REGRESSION"));
    }

    #[test]
    fn a_throughput_collapse_is_flagged_and_noise_is_not() {
        let baseline = bench_doc(1000.0, 500.0);
        let noisy = bench_doc(850.0, 590.0); // −15% rps, +18% p99: in band
        assert!(diff_reports(&noisy, &baseline, 0.25).unwrap().regressions().is_empty());
        let collapsed = bench_doc(200.0, 500.0);
        let diff = diff_reports(&collapsed, &baseline, 0.25).unwrap();
        assert_eq!(diff.regressions()[0].metric, "throughput_rps");
    }

    #[test]
    fn disjoint_documents_are_an_error() {
        let a = bench_doc(1000.0, 500.0);
        let mut b_text = r#"{"scenarios": [{"name": "other", "per_verb": {}}]}"#.to_string();
        let b = parse_json(&b_text).unwrap();
        assert!(diff_reports(&a, &b, 0.25).unwrap_err().contains("no (scenario, verb) pair"));
        b_text = r#"{"hello": 1}"#.to_string();
        let not_bench = parse_json(&b_text).unwrap();
        assert!(diff_reports(&a, &not_bench, 0.25).is_err());
    }
}
