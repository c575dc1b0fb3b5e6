//! In-memory spans for the traced run.
//!
//! One span per call into a layer: name, start, end, parent and pass id.
//! Spans are recorded by the benchmark around public library calls, kept
//! in memory, and written out once the run ends. A span's self time is
//! its duration minus the part of its interval its children cover; the
//! children of one parent may overlap (shards on different threads), so
//! the covered part is the union of their intervals.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.detail`, e.g. `channel.tick`; the layer is the part before
    /// the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// The pass (or load-generator window) this span belongs to.
    pub pass: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Tracers on different threads share one epoch so
/// their spans can be merged into one tree.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, pass: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span { name, start_ns: t, end_ns: t, parent, pass });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        pass: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, pass);
        let r = f();
        self.close(id);
        r
    }

    /// Appends `other`'s spans; its root spans are re-parented under
    /// `parent`, its internal parent links are re-indexed.
    pub fn merge(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Self time of every span, nanoseconds, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let intervals = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                s.dur_ns().saturating_sub(union_len(intervals))
            })
            .collect()
    }

    /// Self time summed per span name, nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Self time summed per layer, nanoseconds.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
        out
    }

    /// Durations of every span named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Writes the spans as tab-separated lines: index, name, start, end,
    /// parent (`-` for a root), pass, self time.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tpass\tself_ns")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{t}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        Ok(())
    }
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, pass: 0 }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer { epoch: Instant::now(), spans }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // pass [0, 100) ⊃ channel [10, 50) ⊃ channel.tick [20, 45);
        // stream [60, 90).
        let t = tracer(vec![
            span("pass", 0, 100, None),
            span("channel.kernel_build", 10, 50, Some(0)),
            span("channel.tick", 20, 45, Some(1)),
            span("stream", 60, 90, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![100 - 40 - 30, 40 - 25, 25, 30]);
        let layers = t.self_by_layer();
        assert_eq!(layers["pass"], 30);
        assert_eq!(layers["channel"], 40);
        assert_eq!(layers["stream"], 30);
        // Self times partition the root's interval.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two shards on two threads overlap inside one pass.
        let t = tracer(vec![
            span("pass", 0, 100, None),
            span("sweep.shard", 5, 70, Some(0)),
            span("sweep.shard", 30, 95, Some(0)),
        ]);
        assert_eq!(t.self_times()[0], 100 - 90);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = tracer(vec![span("pass", 10, 20, None), span("stream", 0, 15, Some(0))]);
        assert_eq!(t.self_times(), vec![5, 15]);
    }

    #[test]
    fn merge_reparents_roots_and_reindexes_links() {
        let mut main = tracer(vec![span("pass", 0, 100, None)]);
        let shard =
            tracer(vec![span("sweep.shard", 10, 60, None), span("channel.tick", 20, 50, Some(0))]);
        main.merge(shard, Some(0));
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times(), vec![50, 20, 30]);
    }

    #[test]
    fn union_of_disjoint_and_touching_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 5), (5, 10), (20, 25)]), 15);
        assert_eq!(union_len(vec![(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn tsv_has_a_line_per_span() {
        let t = tracer(vec![span("pass", 0, 10, None), span("stream", 2, 4, Some(0))]);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\tstream\t2\t4\t0\t0\t2"));
    }
}
