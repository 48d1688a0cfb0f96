//! In-memory span recording around calls into the program's public
//! functions. Spans are kept in a vector and written out when the run
//! ends; a layer's self time is its span's duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::sys::process_cpu_ns;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (`"core.fleet.run_tick"`, …).
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Process CPU ns consumed inside the span, when it was asked for.
    pub cpu_ns: Option<u64>,
}

/// Span recorder. Disabled, it only runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that starts disabled; [`Tracer::set_enabled`] switches it.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the op id later spans are tagged with.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.record(name, false, f)
    }

    /// [`Tracer::span`] that also records the process CPU time spent
    /// inside the span (for pool busy ratios).
    pub fn span_cpu<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(&mut self, name: &'static str, cpu: bool, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            cpu_ns: None,
        });
        self.stack.push(index);
        let cpu_start = cpu.then(process_cpu_ns);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let cpu_ns = cpu_start.map(|s| process_cpu_ns() - s);
        self.stack.pop();
        let span = &mut self.spans[index];
        span.start_ns = start;
        span.end_ns = end;
        span.cpu_ns = cpu_ns;
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every recorded span.
    #[must_use]
    pub fn summary(&self) -> SpanSummary {
        SpanSummary::of(&self.spans)
    }
}

/// Self time of every span: duration minus the part its children cover.
/// Children run inside their parent on the same thread, so they never
/// overlap each other.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child[p] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(span, covered)| (span.end_ns - span.start_ns).saturating_sub(covered))
        .collect()
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed CPU ns of the spans that recorded it.
    pub cpu_ns: u64,
}

/// Per-name span totals plus per-op layer sums.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    /// Totals keyed by span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// For each op, the summed self time of its non-root spans (ns).
    pub layer_ns_per_op: Vec<u64>,
}

impl SpanSummary {
    /// Summarises `spans` (root spans are those without a parent).
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(selfs) {
            let totals = by_name.entry(span.name).or_default();
            totals.count += 1;
            totals.self_ns += self_ns;
            totals.total_ns += span.end_ns - span.start_ns;
            totals.cpu_ns += span.cpu_ns.unwrap_or(0);
            let layer = per_op.entry(span.op).or_default();
            if span.parent.is_some() {
                *layer += self_ns;
            }
        }
        Self {
            by_name,
            layer_ns_per_op: per_op.into_values().collect(),
        }
    }

    /// Totals for `name` (zero when no such span was recorded).
    #[must_use]
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Renders spans as tab-separated lines: op, name, parent, start, end,
/// self, cpu (ns).
#[must_use]
pub fn render_spans(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("op\tname\tparent\tstart_ns\tend_ns\tself_ns\tcpu_ns\n");
    for (span, self_ns) in spans.iter().zip(selfs) {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.op,
            span.name,
            span.parent.map_or(-1, |p| p as i64),
            span.start_ns,
            span.end_ns,
            self_ns,
            span.cpu_ns.map_or(-1, |c| c as i64),
        );
    }
    out
}
