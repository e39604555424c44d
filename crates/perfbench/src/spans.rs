//! In-memory span recording for the traced run.
//!
//! Each span is one call the benchmark makes into a layer's public
//! function: its name, start, end, parent span, and the cell key or
//! request id it served. Spans stay in memory until the repetition ends
//! and are then written out as JSON lines with their self time.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in its recorder (also its id).
    pub id: usize,
    /// The span that made this call, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `prepare` or `service.submit`.
    pub name: &'static str,
    /// Cell key or request id.
    pub tag: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` under `parent`. `f` receives the
    /// new span's id so it can open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        tag: &str,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                tag: tag.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock poisoned")[id].end_ns = end;
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`: the
/// span's duration minus the part of its interval that its child spans
/// cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let clipped = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| a < b);
            let mut iv: Vec<(u64, u64)> = clipped.collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Writes `spans` as JSON lines (one object per span, with `self_ns`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let tag = s.tag.replace('\\', "\\\\").replace('"', "\\\"");
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{tag}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            tag: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children covering [10, 50) once.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A disjoint child, partly outside its parent: only [90, 100)
            // counts against the parent.
            span(3, Some(0), 90, 120),
            // A grandchild is charged to its own parent, not to span 0.
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);
    }

    #[test]
    fn recorder_nests_spans() {
        let rec = Recorder::new();
        let v = rec.span("outer", None, "k", |id| {
            rec.span("inner", Some(id), "k", |_| std::hint::black_box(7))
        });
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].end_ns - spans[0].start_ns);
    }
}
