//! The metrics registry: log-bucketed histograms, the [`Series`] record and
//! its two renderings.
//!
//! There is no global registry object: counters live where the work happens,
//! and each source declares every series it serves **once** and walks those
//! declarations into a [`Surface`] at scrape time — a [`JsonObject`] for
//! `GET /stats`, an [`Exposition`] for `GET /metrics` — so both serve the
//! same series. Only [`Histogram`]s are obs-owned state: percentile
//! structure cannot be rebuilt from plain counters after the fact.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i < BUCKETS-1` counts samples with
/// value ≤ 2^i microseconds; the last bucket is the overflow (`+Inf`).
pub const BUCKETS: usize = 32;

/// A log-bucketed latency histogram over microseconds: lock-free atomic
/// buckets at powers of two, read through a [`HistogramSnapshot`].
///
/// This replaces sampling reservoirs: every sample lands (no loss under
/// load) and recording is two atomic adds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

/// Bucket index of a microsecond value: smallest `i` with `v ≤ 2^i`
/// (overflow lands in the last bucket).
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((u64::BITS - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The upper bound (µs) of bucket `i`; `None` for the overflow bucket.
pub fn bucket_bound_us(i: usize) -> Option<u64> {
    (i < BUCKETS - 1).then(|| 1u64 << i)
}

impl Histogram {
    /// Record one sample, in microseconds.
    pub fn record_us(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(v, Ordering::Relaxed);
    }

    /// Record one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// The bucket counts and sum as of now.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A [`Histogram`] read at one instant: what a stats snapshot carries and
/// both surfaces render. Its count is the sum of its buckets, so the `+Inf`
/// bucket equals `_count` even when samples land during the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Sum of all samples, in microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the upper bound
    /// of the bucket holding the rank — i.e. an upper estimate within one
    /// power of two. `None` when the histogram is empty. The overflow
    /// bucket reports its lower bound (the largest finite bound).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound_us(i).unwrap_or(1u64 << (BUCKETS - 2)));
            }
        }
        None
    }
}

/// What a series reads: its Prometheus type and its value.
#[derive(Debug, Clone, Copy)]
pub enum Reading<'a> {
    /// A monotone count.
    Counter(u64),
    /// A level that can go down.
    Gauge(u64),
    /// A latency distribution: its ladder in `/metrics`, its p50 and p95 in
    /// `/stats`.
    Histogram(&'a HistogramSnapshot),
}

/// One series, declared once by the source that counts it and rendered
/// into both scraping surfaces: under `key` in the `/stats` JSON object,
/// and as a sample of `family` (carrying `label`) in `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    /// Key in the `/stats` JSON object; a histogram writes `<key>_p50_us`
    /// and `<key>_p95_us` (`null` while empty).
    pub key: &'a str,
    /// Prometheus family name.
    pub family: &'static str,
    /// Prometheus HELP text of the family.
    pub help: &'static str,
    /// The label that tells this series from the family's others
    /// (`class`, `route`), if the family has more than one.
    pub label: Option<(&'static str, &'a str)>,
    /// Type and value.
    pub reading: Reading<'a>,
}

impl<'a> Series<'a> {
    /// An unlabelled series.
    pub fn new(
        key: &'a str,
        family: &'static str,
        help: &'static str,
        reading: Reading<'a>,
    ) -> Self {
        Series { key, family, help, label: None, reading }
    }

    /// The same series, labelled `name="value"` in `/metrics`.
    pub fn labelled(self, name: &'static str, value: &'a str) -> Self {
        Series { label: Some((name, value)), ..self }
    }
}

/// Where a walk over declared series goes. A source walks its declarations
/// once per scrape; [`JsonObject`] (`/stats`) and [`Exposition`]
/// (`/metrics`) are the two surfaces, so neither can serve a series the
/// other lacks.
pub trait Surface {
    /// Render one series.
    fn series(&mut self, series: &Series<'_>);

    /// Start a nested `/stats` object under `key`; the exposition is flat
    /// and ignores it.
    fn open(&mut self, _key: &str) {}

    /// End the innermost nested object.
    fn close(&mut self) {}

    /// Render `series` inside a nested object under `key`.
    fn section(&mut self, key: &str, series: &[Series<'_>]) {
        self.open(key);
        for s in series {
            self.series(s);
        }
        self.close();
    }
}

/// The `/stats` surface: one JSON object, nested by [`Surface::open`].
#[derive(Debug, Default)]
pub struct JsonObject(String);

impl JsonObject {
    fn member(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = write!(self.0, "{}:{value},", crate::escape_json(key));
    }

    /// The finished document.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.strip_suffix(',').unwrap_or(&self.0))
    }
}

impl Surface for JsonObject {
    fn series(&mut self, series: &Series<'_>) {
        match series.reading {
            Reading::Counter(value) | Reading::Gauge(value) => self.member(series.key, value),
            Reading::Histogram(snapshot) => {
                for (suffix, q) in [("_p50_us", 0.50), ("_p95_us", 0.95)] {
                    let us = snapshot.quantile_us(q).map_or("null".into(), |us| us.to_string());
                    self.member(&format!("{}{suffix}", series.key), us);
                }
            }
        }
    }

    fn open(&mut self, key: &str) {
        let _ = write!(self.0, "{}:{{", crate::escape_json(key));
    }

    fn close(&mut self) {
        if self.0.ends_with(',') {
            self.0.pop();
        }
        self.0.push_str("},");
    }
}

/// The `/metrics` surface: a Prometheus-text-format scrape under assembly.
/// Each family's `# HELP` / `# TYPE` header and samples are kept together
/// and written as one contiguous group, in the order families are first
/// met, whatever order the series arrive in; histograms render their full
/// cumulative `_bucket` / `_sum` / `_count` series.
#[derive(Debug, Default)]
pub struct Exposition {
    families: Vec<(&'static str, String)>,
}

impl Exposition {
    /// The text of `family`, headed on first use.
    fn family(&mut self, family: &'static str, kind: &str, help: &str) -> &mut String {
        let at = match self.families.iter().position(|(name, _)| *name == family) {
            Some(at) => at,
            None => {
                let header = format!("# HELP {family} {help}\n# TYPE {family} {kind}\n");
                self.families.push((family, header));
                self.families.len() - 1
            }
        };
        &mut self.families[at].1
    }

    /// The assembled scrape body.
    pub fn finish(self) -> String {
        self.families.into_iter().map(|(_, text)| text).collect()
    }
}

/// Append one sample line.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        let labels = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(out, "{{{labels}}}");
    }
    let _ = writeln!(out, " {value}");
}

impl Surface for Exposition {
    fn series(&mut self, series: &Series<'_>) {
        let name = series.family;
        let labels = series.label.as_slice();
        match series.reading {
            Reading::Counter(value) => {
                sample(self.family(name, "counter", series.help), name, labels, value)
            }
            Reading::Gauge(value) => {
                sample(self.family(name, "gauge", series.help), name, labels, value)
            }
            Reading::Histogram(snapshot) => {
                let out = self.family(name, "histogram", series.help);
                let bucket_name = format!("{name}_bucket");
                let mut cumulative = 0u64;
                for (i, c) in snapshot.buckets.iter().enumerate() {
                    cumulative += c;
                    let le = bucket_bound_us(i).map_or("+Inf".into(), |b| b.to_string());
                    let mut with_le = labels.to_vec();
                    with_le.push(("le", &le));
                    sample(out, &bucket_name, &with_le, cumulative);
                }
                sample(out, &format!("{name}_sum"), labels, snapshot.sum_us);
                sample(out, &format!("{name}_count"), labels, cumulative);
            }
        }
    }
}

/// Validate Prometheus text-format well-formedness: header syntax, sample
/// syntax, metric-name lexicon, at most one `# HELP` and one `# TYPE` per
/// name, every sample preceded by a `# TYPE` for its base name, each
/// family's samples one contiguous group, and histogram invariants (every
/// `_bucket` has `le`, buckets are cumulative, the `+Inf` bucket equals
/// `_count`). Used by unit tests and by the CI smoke step that scrapes
/// `GET /metrics` under load.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    // Every (name, kind) with a `# TYPE`, and every (keyword, name) header.
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut headers: Vec<(&str, &str)> = Vec::new();
    // The family whose samples came last, and every family whose group of
    // samples has ended.
    let mut current: Option<String> = None;
    let mut ended: Vec<String> = Vec::new();
    // Per histogram **series** (base name + non-`le` labels — each label set
    // is its own cumulative ladder): (last cumulative bucket value, saw
    // +Inf, +Inf value, count value).
    let mut hist: std::collections::HashMap<String, (u64, bool, u64, Option<u64>)> =
        std::collections::HashMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let human = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            if headers.contains(&(keyword, name)) {
                return Err(format!("line {human}: second {keyword} for {name:?}"));
            }
            headers.push((keyword, name));
            match keyword {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(format!("line {human}: HELP for invalid name {name:?}"));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or_default().trim();
                    if !valid_name(name) {
                        return Err(format!("line {human}: TYPE for invalid name {name:?}"));
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return Err(format!("line {human}: unknown metric type {kind:?}"));
                    }
                    typed.push((name.to_string(), kind.to_string()));
                }
                _ => return Err(format!("line {human}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(format!("line {human}: sample has no value: {line:?}")),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {human}: unparseable sample value {value_part:?}"))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {human}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (name_part, None),
        };
        if !valid_name(name) {
            return Err(format!("line {human}: invalid metric name {name:?}"));
        }
        // Resolve the base name: histogram series append _bucket/_sum/_count.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let stripped = name.strip_suffix(suffix)?;
                typed
                    .iter()
                    .any(|(n, k)| n == stripped && k == "histogram")
                    .then(|| stripped.to_string())
            })
            .unwrap_or_else(|| name.to_string());
        if !typed.iter().any(|(n, _)| *n == base) {
            return Err(format!("line {human}: sample {name:?} has no preceding # TYPE"));
        }
        if current.as_deref() != Some(base.as_str()) {
            if ended.contains(&base) {
                return Err(format!("line {human}: samples of {base:?} are not one group"));
            }
            ended.extend(current.replace(base.clone()));
        }
        if name.ends_with("_bucket") && typed.iter().any(|(n, k)| *n == base && k == "histogram") {
            let labels = labels.unwrap_or_default();
            let mut series: Vec<&str> = Vec::new();
            let mut le = None;
            for label in labels.split(',').filter(|l| !l.is_empty()) {
                match label.split_once('=') {
                    Some(("le", v)) => le = Some(v.trim_matches('"')),
                    _ => series.push(label),
                }
            }
            let Some(le) = le else {
                return Err(format!("line {human}: histogram bucket without an le label"));
            };
            let key = format!("{base}{{{}}}", series.join(","));
            let entry = hist.entry(key).or_insert((0, false, 0, None));
            let bucket_value = value as u64;
            if bucket_value < entry.0 {
                return Err(format!("line {human}: histogram {base:?} buckets not cumulative"));
            }
            entry.0 = bucket_value;
            if le == "+Inf" {
                entry.1 = true;
                entry.2 = bucket_value;
            } else if le.parse::<f64>().is_err() {
                return Err(format!("line {human}: unparseable le bound {le:?}"));
            }
        }
        if name.ends_with("_count") && typed.iter().any(|(n, k)| *n == base && k == "histogram") {
            // `_count` carries exactly the bucket lines' non-`le` labels, in
            // the same order, so the raw label string is the series key.
            let key = format!("{base}{{{}}}", labels.unwrap_or_default());
            hist.entry(key).or_insert((0, false, 0, None)).3 = Some(value as u64);
        }
    }
    for (series, (_, saw_inf, inf_value, count)) in &hist {
        if !saw_inf {
            return Err(format!("histogram series {series:?} has no +Inf bucket"));
        }
        if let Some(count) = count {
            if inf_value != count {
                return Err(format!(
                    "histogram series {series:?}: +Inf bucket {inf_value} != count {count}"
                ));
            }
        } else {
            return Err(format!("histogram series {series:?} has no _count sample"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use Reading::{Counter, Gauge};

    #[test]
    fn bucket_index_is_smallest_covering_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_us(0.5), None);
        for v in [1u64, 2, 3, 100, 100, 100, 5000, 100_000] {
            h.record_us(v);
        }
        let snapshot = h.snapshot();
        assert_eq!(snapshot.count(), 8);
        assert_eq!(snapshot.sum_us, 105_306);
        // p50 lands in the bucket covering 100 (le=128).
        assert_eq!(snapshot.quantile_us(0.5), Some(128));
        // p100 lands in the bucket covering 100_000 (le=131072).
        assert_eq!(snapshot.quantile_us(1.0), Some(131_072));
    }

    #[test]
    fn exposition_renders_and_validates() {
        let h = Histogram::default();
        h.record_us(50);
        h.record_us(700);
        let ttfc = h.snapshot();
        let requests = |class, value| {
            Series::new("requests", "duoquest_requests_total", "Requests.", Counter(value))
                .labelled("class", class)
        };
        let mut expo = Exposition::default();
        expo.series(&requests("interactive", 3));
        expo.series(&Series::new("live", "duoquest_live_sessions", "Live sessions.", Gauge(2)));
        expo.series(&Series::new(
            "ttfc",
            "duoquest_ttfc_us",
            "TTFC in microseconds.",
            Reading::Histogram(&ttfc),
        ));
        // A family met again later still renders as one group.
        expo.series(&requests("batch", 1));
        let text = expo.finish();
        assert!(text.contains("# TYPE duoquest_requests_total counter"), "{text}");
        assert!(
            text.contains(
                "duoquest_requests_total{class=\"interactive\"} 3\n\
             duoquest_requests_total{class=\"batch\"} 1\n"
            ),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("duoquest_ttfc_us_sum 750"), "{text}");
        validate_exposition(&text).expect("well-formed exposition");
        // HELP/TYPE headers are not repeated on the second sample.
        assert_eq!(text.matches("# TYPE duoquest_requests_total").count(), 1);
    }

    #[test]
    fn json_object_nests_sections_and_renders_histograms_as_quantiles() {
        let h = Histogram::default();
        let empty = h.snapshot();
        h.record_us(50);
        let one = h.snapshot();
        let mut json = JsonObject::default();
        json.series(&Series::new("live", "duoquest_live_sessions", "Live.", Gauge(2)));
        json.open("classes");
        json.section(
            "batch",
            &[
                Series::new("shed", "duoquest_shed_total", "Shed.", Counter(1))
                    .labelled("class", "batch"),
                Series::new("ttfc", "duoquest_ttfc_us", "TTFC.", Reading::Histogram(&one)),
            ],
        );
        json.section(
            "background",
            &[Series::new("ttfc", "duoquest_ttfc_us", "TTFC.", Reading::Histogram(&empty))],
        );
        json.close();
        json.section("empty", &[]);
        assert_eq!(
            json.finish(),
            "{\"live\":2,\"classes\":{\"batch\":{\"shed\":1,\"ttfc_p50_us\":64,\"ttfc_p95_us\":64},\
             \"background\":{\"ttfc_p50_us\":null,\"ttfc_p95_us\":null}},\"empty\":{}}"
        );
    }

    #[test]
    fn validator_treats_each_label_set_as_its_own_cumulative_series() {
        // Two class series of one histogram family: the second restarts at
        // zero, which is fine — cumulativeness is per series, not per
        // family. (Regression: the net_load scrape tripped on this.)
        let busy = Histogram::default();
        busy.record_us(50);
        busy.record_us(700);
        let (busy, idle) = (busy.snapshot(), Histogram::default().snapshot());
        let mut expo = Exposition::default();
        expo.series(
            &Series::new("ttfc", "duoquest_ttfc_us", "TTFC.", Reading::Histogram(&busy))
                .labelled("class", "interactive"),
        );
        expo.series(
            &Series::new("ttfc", "duoquest_ttfc_us", "TTFC.", Reading::Histogram(&idle))
                .labelled("class", "batch"),
        );
        validate_exposition(&expo.finish()).expect("per-series cumulative ladders");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("no_type_header 1\n").is_err());
        assert!(validate_exposition("# TYPE m counter\nm notanumber\n").is_err());
        assert!(validate_exposition("# TYPE m counter\n9bad 1\n").is_err());
        assert!(validate_exposition("# TYPE m histogram\nm_bucket{x=\"1\"} 1\n").is_err());
        let no_inf = "# TYPE m histogram\nm_bucket{le=\"1\"} 1\nm_sum 1\nm_count 1\n";
        assert!(validate_exposition(no_inf).is_err());
        let not_cumulative = "# TYPE m histogram\nm_bucket{le=\"1\"} 5\n\
             m_bucket{le=\"+Inf\"} 3\nm_sum 1\nm_count 3\n";
        assert!(validate_exposition(not_cumulative).is_err());
        let inf_mismatch = "# TYPE m histogram\nm_bucket{le=\"+Inf\"} 3\nm_sum 1\nm_count 4\n";
        assert!(validate_exposition(inf_mismatch).is_err());
        // Prometheus text format 0.0.4: a family's samples are one group,
        // and a name has at most one TYPE and one HELP line.
        let split_family = "# TYPE m counter\n# TYPE n counter\nm{a=\"1\"} 1\nn 1\nm{a=\"2\"} 1\n";
        assert!(validate_exposition(split_family).is_err());
        assert!(validate_exposition("# TYPE m counter\n# TYPE m counter\nm 1\n").is_err());
        assert!(validate_exposition("# TYPE m counter\n# TYPE m gauge\nm 1\n").is_err());
        assert!(
            validate_exposition("# HELP m One.\n# HELP m Two.\n# TYPE m counter\nm 1\n").is_err()
        );
        // The same shapes, well-formed, pass.
        let grouped = "# HELP m One.\n# TYPE m counter\n# TYPE n counter\nm{a=\"1\"} 1\n\
             m{a=\"2\"} 1\nn 1\n";
        assert_eq!(validate_exposition(grouped), Ok(()));
    }
}
