//! # ft-obs — structured trace export for the online engine
//!
//! `ft-runtime`'s [`Observer`] trait streams every engine event, every
//! materialized operation and the final outcome of a run as they happen.
//! This crate turns that stream into a durable, tool-friendly artifact:
//! [`JsonlSink`], an observer that writes one structured JSON record per
//! observation to any [`io::Write`] (JSON Lines: one object per line,
//! parseable independently, `jq`/pandas-ready). Attach it with
//! [`Simulation::run_observed`](ft_runtime::Simulation::run_observed).
//!
//! ## Record shapes
//!
//! Every line is a JSON object with a `record` discriminant:
//!
//! | `record`   | emitted | payload                                        |
//! |------------|---------|------------------------------------------------|
//! | `event`    | per processed engine event, in processing order | `time`, `kind` (`"completion"` / `"detection"` / `"rejoin"`) |
//! | `op`       | per materialized operation, in creation order   | the full [`OpTrace`] fields |
//! | `run_end`  | once, last                                      | the full [`RunOutcome`] fields |
//!
//! ## Example
//!
//! ```
//! use ft_obs::JsonlSink;
//! use ft_runtime::prelude::*;
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = random_layered(&RandomDagParams::default().with_tasks(20), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 0);
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! let scenario = ft_sim::FaultScenario::timed(&[(ft_platform::ProcId(0), 1.0)]);
//! Simulation::of(&inst, &sched).run_observed(&scenario, &mut sink);
//! let bytes = sink.finish().unwrap();
//! for line in String::from_utf8(bytes).unwrap().lines() {
//!     serde_json::from_str::<serde::Value>(line).unwrap();
//! }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::io;

use ft_runtime::{Observer, OpTrace, RunOutcome, TraceEvent, TraceEventKind};

use serde::{Serialize, Value};

/// Lowercase wire name of an event kind (`"completion"`, `"detection"`,
/// `"rejoin"`) — stable across releases, unlike the Rust variant names.
fn kind_name(kind: TraceEventKind) -> &'static str {
    match kind {
        TraceEventKind::Completion => "completion",
        TraceEventKind::Detection => "detection",
        TraceEventKind::Rejoin => "rejoin",
    }
}

/// Prepends the `record` discriminant to a serialized object. Falls back
/// to wrapping non-object payloads under a `"value"` key (unreachable for
/// the derive-generated [`OpTrace`] / [`RunOutcome`] shapes, but total).
fn tagged(record: &str, payload: Value) -> Value {
    let tag = ("record".to_string(), Value::Str(record.to_string()));
    match payload {
        Value::Map(mut pairs) => {
            pairs.insert(0, tag);
            Value::Map(pairs)
        }
        other => Value::Map(vec![tag, ("value".to_string(), other)]),
    }
}

/// A streaming [`Observer`] that writes one JSON record per observation
/// to a [`io::Write`] — JSON Lines, the de-facto interchange format for
/// trace tooling. See the crate docs for the record shapes.
///
/// Writes are line-buffered into the underlying writer as they happen; a
/// run observed through a `JsonlSink` therefore streams to disk instead
/// of buffering the trace
/// ([`TraceObserver`](ft_runtime::TraceObserver) is the in-memory
/// alternative). I/O errors are sticky: the first failure stops further
/// writes and is surfaced by [`finish`](JsonlSink::finish).
pub struct JsonlSink<W: io::Write> {
    writer: W,
    records: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps `writer`; nothing is written until the sink observes a run.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            records: 0,
            error: None,
        }
    }

    /// Number of records successfully written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Serializes one tagged record as a JSON line.
    fn write_record(&mut self, record: &str, payload: Value) {
        if self.error.is_some() {
            return;
        }
        // The shim's `to_string` is total on `Value`, so only I/O can fail.
        let line = serde_json::to_string(&tagged(record, payload))
            .expect("Value serialization is infallible");
        let res = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"));
        match res {
            Ok(()) => self.records += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes and returns the underlying writer, or the first I/O error
    /// hit while streaming (subsequent records were skipped).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: io::Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        self.write_record(
            "event",
            Value::Map(vec![
                ("time".to_string(), Value::Float(event.time)),
                (
                    "kind".to_string(),
                    Value::Str(kind_name(event.kind).to_string()),
                ),
            ]),
        );
    }

    fn on_op(&mut self, op: &OpTrace) {
        self.write_record("op", op.to_value());
    }

    fn on_run_end(&mut self, outcome: &RunOutcome) {
        self.write_record("run_end", outcome.to_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_algos::{caft, CommModel};
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_platform::{random_instance, PlatformParams, ProcId};
    use ft_runtime::{Simulation, TraceObserver};
    use ft_sim::FaultScenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (ft_platform::Instance, ft_model::FtSchedule) {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        (inst, sched)
    }

    #[test]
    fn jsonl_lines_parse_and_mirror_the_buffered_trace() {
        let (inst, sched) = fixture();
        let sim = Simulation::of(&inst, &sched);
        let scenario = FaultScenario::timed(&[(ProcId(0), sched.latency() / 3.0)]);

        let mut sink = JsonlSink::new(Vec::new());
        let out = sim.run_observed(&scenario, &mut sink);
        assert!(sink.records() > 0);
        let bytes = sink.finish().unwrap();

        let mut tracer = TraceObserver::new();
        let out2 = sim.run_observed(&scenario, &mut tracer);
        let trace = tracer.into_trace();
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&out2).unwrap()
        );

        let text = String::from_utf8(bytes).unwrap();
        let mut events = 0usize;
        let mut ops = 0usize;
        let mut run_ends = 0usize;
        let mut last = String::new();
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).unwrap();
            match v.get("record") {
                Value::Str(s) if s == "event" => {
                    events += 1;
                    let kind = v.get("kind");
                    assert!(
                        matches!(kind, Value::Str(k)
                            if ["completion", "detection", "rejoin"].contains(&k.as_str())),
                        "unexpected kind {kind:?}"
                    );
                }
                Value::Str(s) if s == "op" => ops += 1,
                Value::Str(s) if s == "run_end" => run_ends += 1,
                other => panic!("unexpected record tag {other:?}"),
            }
            last = line.to_string();
        }
        assert_eq!(events, trace.events.len());
        assert_eq!(ops, trace.ops.len());
        assert_eq!(run_ends, 1);
        // run_end is the final record and carries the outcome verbatim.
        let v: Value = serde_json::from_str(&last).unwrap();
        assert_eq!(v.get("record"), &Value::Str("run_end".to_string()));
        assert_eq!(v.get("latency"), &out.to_value().get("latency").clone());
    }

    #[test]
    fn sticky_io_errors_surface_at_finish() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let (inst, sched) = fixture();
        let scenario = FaultScenario::timed(&[(ProcId(0), 1.0)]);
        let mut sink = JsonlSink::new(Failing);
        Simulation::of(&inst, &sched).run_observed(&scenario, &mut sink);
        assert_eq!(sink.records(), 0);
        assert!(sink.finish().is_err());
    }
}
