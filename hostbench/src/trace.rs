//! Spans around the benchmark's own calls into the system, kept in
//! memory and written at exit as Chrome trace-event JSON.
//!
//! Nothing inside the program under test is instrumented here: a span
//! covers one facade call (`compile`, `build`, `run`, …) made from
//! `facade.rs`, nested under the repetition that made it.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Facade call or grouping name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Wall-clock length in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; `None` while recording is off.
pub type SpanId = Option<usize>;

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Whether [`Tracer::open`] currently records.
    pub recording: bool,
    /// Repetition stamped on new spans.
    pub rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until `recording` is set.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: false,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.recording {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`]. Spans close innermost
    /// first.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// `(total ns, count)` over all closed spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Mean duration in µs of the spans called `name` (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        crate::stats::ratio(ns as f64 / 1e3, n as f64)
    }

    /// Writes the spans as a Chrome trace-event array (`ph:"X"` complete
    /// events, µs timestamps) that `chrome://tracing` and Perfetto load.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.rep,
                s.start_ns,
                s.end_ns,
                own[i] as f64 / 1e3,
            )?;
            writeln!(out, "{}", if i + 1 == self.spans.len() { "" } else { "," })?;
        }
        writeln!(out, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nothing_while_off() {
        let mut t = Tracer::new();
        let id = t.open("run");
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nests_and_computes_self_time() {
        let mut t = Tracer::new();
        t.recording = true;
        t.rep = 3;
        let rep = t.open("rep");
        let build = t.open("build");
        t.close(build);
        let run = t.open("run");
        t.close(run);
        t.close(rep);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.rep == 3 && x.end_ns >= x.start_ns));
        let own = t.self_ns();
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
        assert_eq!(t.total("run").1, 1);
    }

    #[test]
    fn chrome_output_is_a_json_array_of_complete_events() {
        let mut t = Tracer::new();
        t.recording = true;
        let a = t.open("rep");
        let b = t.open("run");
        t.close(b);
        t.close(a);
        let mut buf = Vec::new();
        t.write_chrome(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_start().starts_with('[') && text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"parent\":0"));
        assert!(!text.contains(",\n]"));
    }
}
