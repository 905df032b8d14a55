//! In-memory spans for the traced replay: a name, a start, an end and a
//! parent, with every span of one request sharing that request's id. A
//! span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub parent: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, request: u32, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span { request, name, parent, start, end: start });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    pub fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end = end;
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn within<T>(
        &mut self,
        request: u32,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(request, name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Adds children of `parent` whose durations were measured inside it
    /// by the callee (`QueryResult::timings`). They are disjoint
    /// sub-intervals of the parent; their positions inside it are not
    /// known, so they are laid end to end from its start.
    pub fn measured_children(&mut self, parent: u32, children: &[(&'static str, u64)]) {
        let Span { request, start, .. } = self.spans[parent as usize];
        let mut at = start;
        for &(name, duration) in children {
            self.spans.push(Span { request, name, parent, start: at, end: at + duration });
            at += duration;
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Per root-span name (one per verb): how many requests, their summed
/// duration, and the summed self time of every layer inside them — the
/// root's own self time being the part no layer accounts for.
#[derive(Debug, Default, Clone)]
pub struct VerbAccount {
    pub requests: u64,
    pub total_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl VerbAccount {
    /// The root's own self time: the part of the request span no layer
    /// accounts for.
    pub fn unaccounted_ns(&self, root_name: &str) -> u64 {
        self.self_ns.get(root_name).copied().unwrap_or(0)
    }

    /// Whether the layers' self times plus the remainder add up to the
    /// request spans exactly.
    pub fn balances(&self) -> bool {
        self.self_ns.values().sum::<u64>() == self.total_ns
    }
}

/// Accounts every request by its root span's name, over the spans of
/// several tracers (parent links are indices within one tracer).
pub fn account<'a>(
    tracers: impl IntoIterator<Item = &'a [Span]>,
) -> BTreeMap<&'static str, VerbAccount> {
    let mut accounts: BTreeMap<&'static str, VerbAccount> = BTreeMap::new();
    for spans in tracers {
        let mut roots: BTreeMap<u32, &'static str> = BTreeMap::new();
        for span in spans.iter().filter(|span| span.parent == ROOT) {
            roots.insert(span.request, span.name);
            let account = accounts.entry(span.name).or_default();
            account.requests += 1;
            account.total_ns += span.duration();
        }
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            if let Some(verb) = roots.get(&span.request) {
                let account = accounts.get_mut(verb).expect("root seen");
                *account.self_ns.entry(span.name).or_default() += self_ns;
            }
        }
    }
    accounts
}

/// What recording one empty span costs, in nanoseconds.
pub fn empty_span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut tracer = Tracer::new(Instant::now());
    let started = Instant::now();
    for i in 0..N {
        let span = tracer.open(i, "empty", ROOT);
        tracer.close(span);
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u32, name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span { request, name, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, "request.query", ROOT, 0, 100),
            span(0, "a", 0, 10, 30),
            span(0, "b", 0, 25, 40), // overlaps a: union is 10..40
            span(0, "c", 2, 26, 30),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 11, 4]);
    }

    #[test]
    fn layers_plus_remainder_equal_the_request() {
        // Two tracers (threads): parent links are per tracer.
        let first = [
            span(0, "request.query", ROOT, 0, 100),
            span(0, "index.query", 0, 10, 60),
            span(0, "eval", 1, 10, 50),
        ];
        let second =
            [span(1, "request.query", ROOT, 200, 250), span(1, "index.query", 0, 200, 240)];
        let accounts = account([&first[..], &second[..]]);
        let query = &accounts["request.query"];
        assert_eq!((query.requests, query.total_ns), (2, 150));
        assert_eq!(query.self_ns["eval"], 40);
        assert_eq!(query.self_ns["index.query"], 10 + 40);
        assert_eq!(query.unaccounted_ns("request.query"), 50 + 10);
        assert!(query.balances());
    }

    #[test]
    fn measured_children_fill_their_parent_from_its_start() {
        let mut tracer = Tracer::new(Instant::now());
        let parent = tracer.open(7, "index.query", ROOT);
        tracer.spans[parent as usize].end = tracer.spans[parent as usize].start + 100;
        tracer.measured_children(parent, &[("prefilter", 30), ("lru", 20)]);
        let selfs = self_times(&tracer.spans);
        assert_eq!(selfs, vec![50, 30, 20]);
        assert!(tracer.spans.iter().all(|s| s.request == 7));
    }
}
