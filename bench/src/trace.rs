//! Client-side spans: recorded in memory around the harness's calls
//! into the system, written as JSON lines when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One timed interval. Spans of one request share `request_id`;
/// `parent` is the span that caused this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Identifiers carry the thread's `lane` in
/// their top bits, so lanes never coordinate while measuring.
pub struct Tracer {
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(lane: u64) -> Tracer {
        Tracer {
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Records a root span and returns its id, which doubles as the
    /// request id of everything beneath it.
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: None,
            request_id: id,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn child(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request_id: parent,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once,
/// and a child is clipped to its parent). Parallel to `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let Some(kids) = children.get_mut(&span.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.request_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Tracer::new(3);
        let request = t.root("request", 100, 200);
        t.child(request, "write", 100, 110);
        t.child(request, "wait_first_byte", 110, 180);
        // Overlaps the previous child by 10 and overruns the parent by
        // 20: only 180..200 is newly covered.
        t.child(request, "read_body", 170, 220);
        let lone = t.root("put", 300, 350);
        let selfs = self_times(&t.spans);
        assert_eq!(selfs, vec![0, 10, 70, 50, 50]);
        assert_ne!(request, lone);
        assert_eq!(request >> 40, 3);

        let mut gap = Tracer::new(0);
        let r = gap.root("request", 0, 100);
        gap.child(r, "write", 10, 30);
        gap.child(r, "read_body", 60, 90);
        assert_eq!(self_times(&gap.spans)[0], 50);
    }

    #[test]
    fn jsonl_lines_parse_and_keep_their_links() {
        let mut t = Tracer::new(1);
        let r = t.root("request", 5, 9);
        t.child(r, "write", 5, 6);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test.trace.jsonl");
        write_jsonl(&path, &t.spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(lines[1].get("parent"), lines[0].get("id"));
        assert_eq!(lines[1].get("request_id"), lines[0].get("request_id"));
        assert_eq!(
            lines[1].get("name").and_then(crate::json::Value::as_str),
            Some("write")
        );
    }
}
