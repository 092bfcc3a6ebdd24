//! Span recording around the harness's own calls into each layer.
//!
//! The same [`Tracer::time`] wraps every call whether or not spans are
//! kept, so a traced round runs exactly the code an untraced round
//! runs plus one `Vec::push` per call; the difference between the two
//! is reported as `trace.overhead_frac`. Spans stay in memory and are
//! written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the owning tracer's span
/// list; `(workload, round, trial)` is the identifier the spans of one
/// trial share.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations the interval covered (rows encoded, hashes computed).
    pub count: u64,
    pub workload: &'static str,
    pub round: u32,
    pub trial: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn secs(&self) -> f64 {
        self.dur_ns() as f64 * 1e-9
    }
}

/// Where spans go. A tracer that is off still times every call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tag: (&'static str, u32, u32),
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), tag: ("", 0, 0) }
    }

    /// An empty tracer on the same clock, for a worker thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { on: self.on, t0: self.t0, spans: Vec::new(), open: Vec::new(), tag: self.tag }
    }

    /// Set the identifier stamped on spans opened from now on.
    pub fn tag(&mut self, workload: &'static str, round: u32, trial: u32) {
        self.tag = (workload, round, trial);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later calls; returns the depth to hand
    /// back to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let depth = self.open.len();
        if self.on {
            let now = self.now_ns();
            self.push(name, now, now, 1);
            self.open.push(self.spans.len() - 1);
        }
        depth
    }

    /// Close the span opened at `depth`, and any left open above it (a
    /// caught panic unwinds past their `close`).
    pub fn close(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let i = self.open.pop().expect("length checked");
            self.spans[i].end_ns = now;
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        let (workload, round, trial) = self.tag;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns, parent, count, workload, round, trial });
    }

    /// Run `f`, returning its result and wall time in seconds; when the
    /// tracer is on, also record the interval as a leaf span covering
    /// `count` operations.
    pub fn time<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        if self.on {
            let start_ns = start.duration_since(self.t0).as_nanos() as u64;
            self.push(name, start_ns, start_ns + dur.as_nanos() as u64, count);
        }
        (r, dur.as_secs_f64())
    }

    /// Merge a forked tracer's spans under the currently open span.
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        for mut s in child.spans {
            s.parent = s.parent.map(|p| p + base).or(under);
            self.spans.push(s);
        }
    }

    /// Write one JSON object per span (`benchmark/out/trace.jsonl`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"count\":{},\"workload\":\"{}\",\"round\":{},\"trial\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count, s.workload, s.round, s.trial
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (clamped at zero — children on worker threads
/// overlap each other inside a fan-out span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

/// The largest share of one of `workload`'s `trial` spans that none of
/// its children accounts for — harness time no layer is charged with. The layer
/// ladder is only as good as this is small.
pub fn max_unattributed_frac(spans: &[Span], workload: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "trial" && s.workload == workload && s.dur_ns() > 0)
        .map(|(s, own)| own as f64 / s.dur_ns() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, count: 1, workload: "w", round: 0, trial: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("trial", 0, 1000, None),
            span("scenario.build", 10, 110, Some(0)),
            span("driver.step", 110, 910, Some(0)),
            span("inner", 200, 300, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100, 100, 700, 100]);
        // Self times telescope: together they cover the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1000);
        assert!((max_unattributed_frac(&spans, "w") - 0.1).abs() < 1e-12);
        assert_eq!(max_unattributed_frac(&spans, "other"), 0.0);
    }

    #[test]
    fn overlapping_children_clamp_at_zero() {
        let spans = vec![
            span("sweep.map", 0, 100, None),
            span("trial", 0, 90, Some(0)),
            span("trial", 5, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_times_and_absorbs() {
        let mut tr = Tracer::new(true);
        tr.tag("w", 3, 7);
        let outer = tr.open("trial");
        let (v, secs) = tr.time("leaf", 5, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let mut child = tr.fork();
        let c = child.open("trial");
        child.time("leaf", 1, || ());
        child.close(c);
        tr.absorb(child);
        tr.close(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].count, s[1].round, s[1].trial), (Some(0), 5, 3, 7));
        assert_eq!(s[2].parent, Some(0), "forked root hangs under the open span");
        assert_eq!(s[3].parent, Some(2), "forked child keeps its parent");
        assert!(s[0].end_ns >= s[3].end_ns);
    }

    #[test]
    fn a_tracer_that_is_off_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let d = tr.open("trial");
        let (_, secs) = tr.time("leaf", 1, || std::hint::black_box(3));
        tr.close(d);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn close_unwinds_spans_left_open() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("trial");
        tr.open("abandoned");
        tr.close(outer);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tr.open("next"), 0);
    }
}
