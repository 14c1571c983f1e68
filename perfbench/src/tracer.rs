//! In-memory spans recorded by the harness around its calls into the library's layers.
//!
//! Nothing inside the program is instrumented: a span brackets one call the harness makes
//! into a public function. Spans stay in memory and are written out when the run ends.

use experiments::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `flsys.build` or `alg2.solve`.
    pub name: String,
    /// Start, nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell or request this span belongs to.
    pub tag: String,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder. A disabled tracer records nothing, so the same code path runs traced
/// and untraced and the difference in wall time is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &str, parent: SpanId, tag: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            tag: tag.to_string(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span and returns its duration in nanoseconds (0 when tracing is off).
    pub fn end(&mut self, id: SpanId) -> f64 {
        match id {
            Some(i) => {
                self.spans[i].end_ns = self.now_ns();
                self.spans[i].duration_ns() as f64
            }
            None => 0.0,
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Per-name totals: count, total and self milliseconds.
    pub fn summary_json(&self) -> Json {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = by_name.entry(&span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        Json::Arr(
            by_name
                .into_iter()
                .map(|(name, (count, total, own))| {
                    Json::obj([
                        ("name", Json::Str(name.to_string())),
                        ("count", Json::uint(count)),
                        ("total_ms", Json::Num(total as f64 / 1e6)),
                        ("self_ms", Json::Num(own as f64 / 1e6)),
                    ])
                })
                .collect(),
        )
    }

    /// Every span as JSON: name, start, end, parent index and tag.
    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::uint(s.start_ns)),
                        ("end_ns", Json::uint(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::uint(p as u64))),
                        ("tag", Json::Str(s.tag.clone())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, "a");
        let child = t.begin("child", root, "a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let own = t.self_times_ns();
        assert_eq!(own[0], t.spans()[0].duration_ns() - t.spans()[1].duration_ns());
        assert!(own[1] >= 2_000_000);
        let mut off = Tracer::new(false);
        let id = off.begin("root", None, "a");
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
