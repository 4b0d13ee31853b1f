//! The harness's own span log: one span around every call the traced run
//! makes into a layer. Spans stay in memory and are rendered to JSON once,
//! when the run ends.

use duoquest_service::json::escape_string;
use std::collections::HashMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds from the log's anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request; `None` for set-up spans.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store. Span ids are indexes into it.
pub struct SpanLog {
    anchor: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { anchor: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Start a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    /// End a span now and return its duration in microseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e3
    }

    /// Store a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns its value and the span's microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let value = f();
        (value, self.close(id))
    }

    /// Every span's self time: its duration minus the part of it its child
    /// spans cover. Indexed like `spans`.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, children)| {
                span.duration_ns() - covered_ns(children, span.start_ns, span.end_ns)
            })
            .collect()
    }

    /// Per span name: (calls, total ns, self ns), largest self time first.
    pub fn by_name(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut totals: HashMap<&'static str, (usize, u64, u64)> = HashMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        let mut rows: Vec<_> = totals.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        rows
    }

    /// `{"spans":[{"name":…,"start_us":…,"end_us":…,"parent":…,"request":…}]}`
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let or_null =
                |id: Option<u64>| id.map(|i| i.to_string()).unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "\n{{\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                escape_string(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                or_null(s.parent.map(|p| p as u64)),
                or_null(s.request),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Sorts the
/// intervals in place.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_service::json::Json;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.record("root", None, Some(1), 100, 1100);
        log.record("a", Some(root), Some(1), 200, 500);
        log.record("b", Some(root), Some(1), 400, 700); // overlaps a
        log.record("c", Some(root), Some(1), 1000, 1300); // runs past the parent
        let nested = log.record("a.inner", Some(1), Some(1), 250, 300); // grandchild: not subtracted
        let self_ns = log.self_times_ns();
        assert_eq!(self_ns[root], 1000 - 500 - 100);
        assert_eq!(self_ns[1], 300 - 50);
        assert_eq!(self_ns[nested], 50);
        let by_name = log.by_name();
        assert_eq!(by_name[0], ("root", 1, 1000, 400), "largest self time first");
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn coverage_clips_and_merges() {
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
        assert_eq!(covered_ns(&mut [(5, 8), (0, 3), (2, 6)], 0, 10), 8);
        assert_eq!(covered_ns(&mut [(0, 100)], 10, 20), 10);
        assert_eq!(covered_ns(&mut [(30, 40)], 10, 20), 0);
    }

    #[test]
    fn timed_spans_nest_and_render_as_json() {
        let mut log = SpanLog::new();
        let root = log.open("request", None, Some(9));
        let (value, us) = log.time("layer \"x\"", Some(root), Some(9), || 41 + 1);
        assert_eq!(value, 42);
        assert!(us >= 0.0);
        log.close(root);
        assert!(log.spans[root].end_ns >= log.spans[1].end_ns);

        let json = Json::parse(&log.to_json()).expect("span log renders valid JSON");
        let Some(Json::Array(spans)) = json.get("spans") else { panic!("spans array") };
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").is_some_and(Json::is_null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("layer \"x\""));
        assert_eq!(spans[1].get("request").and_then(Json::as_u64), Some(9));
    }
}
