//! In-memory span recorder for the traced mode.
//!
//! The benchmark wraps every call it makes into a layer of the system
//! in a span (name, start, end, parent, request id). Spans are kept in
//! memory and written out once the run ends; nothing is recorded while
//! tracing is off, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `video.decode`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (iteration or viewer) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part child spans cover), ns.
    pub self_ns: u64,
}

/// Records nested spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time over every closed span.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = table.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(covered);
        }
        table
    }

    /// For each span named `group`, in order, the milliseconds spent in
    /// spans named `name` nested anywhere inside it.
    #[must_use]
    pub fn per_group_ms(&self, group: &str, name: &str) -> Vec<f64> {
        let mut slot = vec![None; self.spans.len()];
        let mut ms = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede their children, so each span's enclosing
            // group is already known when it is reached.
            slot[i] = if s.name == group {
                ms.push(0.0);
                Some(ms.len() - 1)
            } else {
                s.parent.and_then(|p| slot[p])
            };
            if s.name == name {
                if let Some(g) = slot[i] {
                    ms[g] += s.dur_ns() as f64 / 1e6;
                }
            }
        }
        ms
    }

    /// The spans as Chrome trace-event JSON (viewable in Perfetto or
    /// `chrome://tracing`), with the host block as a top-level `host`.
    #[must_use]
    pub fn chrome_json(&self, host_json: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
            ));
        }
        out.push_str(&format!("],\"host\":{host_json}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("root", 0, |t| {
            t.span("a", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 0, |t| t.span("a", 0, |_| ()));
        });
        let table = t.layer_times();
        let root = table["root"];
        let total_self: u64 = table.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, root.total_ns);
        assert_eq!(table["a"].count, 2);
        assert!(root.self_ns < root.total_ns);
    }

    #[test]
    fn groups_collect_nested_spans() {
        let mut t = Tracer::new(true);
        t.span("a", 0, |_| ());
        let nap = || std::thread::sleep(std::time::Duration::from_millis(1));
        for _ in 0..3 {
            t.span("iter", 0, |t| {
                t.span("mid", 0, |t| t.span("a", 0, |_| nap()))
            });
        }
        t.span("iter", 0, |_| nap());
        let ms = t.per_group_ms("iter", "a");
        assert_eq!(ms.len(), 4);
        assert!(ms[..3].iter().all(|&v| v >= 1.0), "{ms:?}");
        assert_eq!(ms[3], 0.0);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |t| t.span("y", 0, |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
