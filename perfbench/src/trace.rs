//! The traced mode's span recorder.
//!
//! A span is `(layer, name, start, end, parent, op)`, recorded around one
//! public call the benchmark makes. Spans stay in memory and are written
//! once, as JSON lines, when the run ends. A span's *self time* is its
//! duration minus its children's; a layer's busy time is the self time of
//! its spans. Op spans (layer [`OP`]) only group the calls of one op, so
//! their self time is the benchmark's own glue: the unattributed part.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Layer name of op-grouping spans (self time = unattributed).
pub const OP: &str = "op";

/// The layers spans are attributed to, named after the repository's
/// modules.
pub const PLATFORM: &str = "ft-platform";
pub const ALGOS: &str = "ft-algos";
pub const SCRATCH: &str = "ft-runtime.scratch";
pub const ENGINE: &str = "ft-runtime.engine";
pub const LIFETIME: &str = "ft-runtime.lifetime";
pub const BATCH: &str = "ft-runtime.batch";
pub const SUBDAG: &str = "ft-algos.subdag";
pub const NET: &str = "ft-net";
pub const QUEUE: &str = "ft-serve.queue";
pub const CACHE: &str = "ft-serve.cache";
pub const DAEMON: &str = "ft-serve.daemon";
pub const JSON: &str = "serde_json";

/// Every attributed layer, in report order.
pub const LAYERS: [&str; 12] = [
    PLATFORM, ALGOS, SCRATCH, ENGINE, LIFETIME, BATCH, SUBDAG, NET, QUEUE, CACHE, DAEMON, JSON,
];

const ROOT: u32 = u32::MAX;

/// One recorded span (times in ns since the tracer started).
struct Span {
    layer: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    op: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder with an explicit parent stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: ROOT,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; close it with
    /// [`end`](Tracer::end).
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end = self.now();
    }

    /// Opens the span of op `op`: every span until the matching
    /// [`end_op`](Tracer::end_op) carries that op id.
    pub fn begin_op(&mut self, op: u32, name: &'static str) -> u32 {
        self.op = op;
        self.begin(OP, name)
    }

    /// Closes an op span.
    pub fn end_op(&mut self, id: u32) {
        self.end(id);
        self.op = ROOT;
    }

    /// Records `f` as a leaf span and returns its result.
    pub fn leaf<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let r = f();
        self.end(id);
        r
    }

    /// Duration in µs of span `id`.
    pub fn span_us(&self, id: u32) -> f64 {
        self.spans[id as usize].ns() as f64 / 1e3
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Durations in ns of every op span, in recording order.
    pub fn op_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == OP)
            .map(Span::ns)
            .collect()
    }

    /// Total duration in ns of the top-level spans: the traced wall time.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(Span::ns)
            .sum()
    }

    /// Self time in ns summed per layer.
    pub fn busy_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| s.ns() as i128).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                own[s.parent as usize] -= s.ns() as i128;
            }
        }
        let mut busy = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *busy.entry(s.layer).or_insert(0u64) += t.max(0) as u64;
        }
        busy
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == ROOT {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.layer, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Runs `f` as a leaf span of `tr` when tracing, bare otherwise.
pub fn call<R>(
    tr: Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.leaf(layer, name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let op = t.begin_op(0, "cell");
        t.leaf("a", "x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("b", "y", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end_op(op);
        let busy = t.busy_ns();
        let total: u64 = busy.values().sum();
        assert_eq!(total, t.root_ns());
        assert!(busy["a"] >= 2_000_000 && busy["b"] >= 1_000_000);
        assert!(busy[OP] < busy["b"]);
    }
}
