#![doc = include_str!("../README.md")]

mod mc_sweep;
mod serve_stream;
mod stats;
mod storm_drill;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ft_runtime::RunOutcome;
use serde_json::Value;
use trace::Tracer;

/// The benchmark's contract file: the metrics each mode prints, with
/// their units, are the ones it declares.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The metrics `BENCHMARK.json` declares for a mode, as (name, unit):
/// `end_to_end` for untraced runs, `per_layer` for traced runs.
fn declared_metrics(traced: bool) -> Vec<(String, String)> {
    let bench: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Value::Seq(list) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Value::Str(name), Value::Str(unit)) => (name.clone(), unit.clone()),
            _ => panic!("BENCHMARK.json {key} entry without name and unit"),
        })
        .collect()
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    McSweep,
    StormDrill,
    ServeStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mc-sweep" => Some(Workload::McSweep),
            "storm-drill" => Some(Workload::StormDrill),
            "serve-stream" => Some(Workload::ServeStream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::McSweep => "mc-sweep",
            Workload::StormDrill => "storm-drill",
            Workload::ServeStream => "serve-stream",
        }
    }
}

/// Parsed command line.
pub struct Args {
    workload: Workload,
    pub seed: u64,
    /// `--seconds / 10`: every workload is sized for a 10 s timed phase.
    /// Longer runs repeat its ops more often, shorter runs run fewer ops
    /// (see [`Args::repeats`] and [`Args::ops`]).
    scale: f64,
    pub trace: bool,
    /// Where spans and scratch queue roots go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Args {
    /// How often the timed phase repeats every op: `base` times at
    /// `--seconds 10`, proportionally more in longer runs, at least once.
    pub fn repeats(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    /// How many ops (or runs per cell) a workload has: `base` at
    /// `--seconds 10` and above, proportionally fewer in shorter runs.
    pub fn ops(&self, base: usize) -> usize {
        (base as f64 * self.scale.min(1.0)).round() as usize
    }
}

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Some(Args {
        workload,
        seed,
        scale: seconds / 10.0,
        trace,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    }))
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops attempted and failed (output check failed, errored, or
    /// landed in `failed/`).
    pub attempted: u64,
    pub failed: u64,
    /// Check failures that are not one op's (a traced replay that
    /// drifted from the program's bytes, a wrong cache count, ...).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records the op-latency metrics of `op_ms` (one entry per op).
    pub fn op_latency(&mut self, mut op_ms: Vec<f64>) {
        let p = stats::tail_percentile(op_ms.len());
        self.set("op_ms_p50", stats::median(&mut op_ms));
        self.set("op_ms_tail", stats::percentile(&mut op_ms, p));
        self.note(format!("op_ms_tail is p{p} of {} ops", op_ms.len()));
    }

    /// Busy share per layer, `unattributed_share` and `trace_overhead`
    /// from a traced run whose ops took `untraced_ns` untraced.
    /// `extra_busy` adds busy time attributed outside span self time.
    pub fn layer_shares(
        &mut self,
        tr: &Tracer,
        extra_busy: &BTreeMap<&'static str, i128>,
        untraced_ns: u64,
    ) {
        let root = tr.root_ns() as f64;
        let busy = tr.busy_ns();
        for layer in trace::LAYERS {
            let ns = busy.get(layer).copied().unwrap_or(0) as i128
                + extra_busy.get(layer).copied().unwrap_or(0);
            self.set(&format!("{layer}.busy_share"), ns as f64 / root);
        }
        let unattributed = busy.get(trace::OP).copied().unwrap_or(0) as i128
            + extra_busy.get(trace::OP).copied().unwrap_or(0);
        self.set("unattributed_share", unattributed as f64 / root);
        let traced: u64 = tr.op_ns().iter().sum();
        self.set("ops", tr.op_ns().len() as f64);
        self.set("trace_overhead", traced as f64 / untraced_ns as f64 - 1.0);
        self.note(format!(
            "traced ops {:.3} s vs untraced {:.3} s; {} spans",
            traced as f64 / 1e9,
            untraced_ns as f64 / 1e9,
            tr.span_count()
        ));
    }

    fn print(&self, args: &Args) {
        let mode = if args.trace { "traced" } else { "end-to-end" };
        println!(
            "perfbench {} seed {} ({mode})",
            args.workload.name(),
            args.seed
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let declared = [declared_metrics(false), declared_metrics(true)].concat();
        for name in self.values.keys() {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "metric {name} is not declared in BENCHMARK.json"
            );
        }
        let mut json = Vec::new();
        for (name, unit) in declared_metrics(args.trace) {
            // A layer a workload does not exercise reads 0.
            let value = self.values.get(&name).copied().unwrap_or(0.0);
            assert!(
                args.trace || self.values.contains_key(&name),
                "end-to-end metric {name} was not measured"
            );
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            println!("  {name} = {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "  op_fail_ratio = {} 1 ({} of {} ops failed)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// Per-run engine counters summed over a set of [`RunOutcome`]s.
#[derive(Default)]
pub struct EngineCounts {
    pub runs: u64,
    pub detections: u64,
    pub recovery_replicas: u64,
    pub recovery_messages: u64,
    pub rejoins: u64,
    pub unrecoverable: u64,
    pub tasks_recovered: u64,
    pub reschedules: u64,
    pub net_transfers: u64,
    pub net_contended: u64,
    pub net_delay: f64,
}

impl EngineCounts {
    pub fn add(&mut self, out: &RunOutcome) {
        self.runs += 1;
        self.detections += out.detections as u64;
        self.recovery_replicas += out.recovery_replicas as u64;
        self.recovery_messages += out.recovery_messages as u64;
        self.rejoins += out.rejoins as u64;
        self.unrecoverable += out.unrecoverable as u64;
        self.tasks_recovered += out.tasks_recovered() as u64;
        self.reschedules += out.reschedules as u64;
        self.net_transfers += out.net_transfers as u64;
        self.net_contended += out.net_contended as u64;
        self.net_delay += out.net_delay;
    }

    /// Writes the `ft-runtime.engine.*` counts, replans and `ft-net.*`
    /// counts.
    pub fn report(&self, r: &mut Report) {
        let per_run = |x: u64| x as f64 / self.runs.max(1) as f64;
        r.set("ft-runtime.engine.runs", self.runs as f64);
        r.set("ft-runtime.engine.detections", per_run(self.detections));
        r.set(
            "ft-runtime.engine.recovery_replicas",
            per_run(self.recovery_replicas),
        );
        r.set(
            "ft-runtime.engine.recovery_messages",
            per_run(self.recovery_messages),
        );
        r.set("ft-runtime.engine.rejoins", per_run(self.rejoins));
        r.set(
            "ft-runtime.engine.unrecoverable",
            per_run(self.unrecoverable),
        );
        r.set(
            "ft-runtime.engine.useful_replica_ratio",
            self.tasks_recovered as f64 / self.recovery_replicas.max(1) as f64,
        );
        r.set("ft-algos.subdag.replans", self.reschedules as f64);
        r.set("ft-net.transfers", self.net_transfers as f64);
        r.set("ft-net.contended", self.net_contended as f64);
        r.set(
            "ft-net.contended_ratio",
            self.net_contended as f64 / self.net_transfers.max(1) as f64,
        );
        r.set("ft-net.delay", self.net_delay);
    }
}

/// Runs a deterministic set-up `build` repeatedly, at least `min` times
/// and until two seconds have passed (at most `max` times), and returns
/// the fastest build time in seconds with the last build. The host runs
/// 1.5× slower in bursts of 0.3–1 s that can cover half of a 2 s
/// window, which moved the median of 100 identical builds by 40 %
/// between runs; the fastest build stays put, like the ops' fastest
/// repetitions.
pub fn fastest_setup<T>(min: usize, max: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let mut fastest = f64::INFINITY;
    let mut builds = 0;
    loop {
        let t = std::time::Instant::now();
        let built = build();
        fastest = fastest.min(t.elapsed().as_secs_f64());
        builds += 1;
        let window_done = start.elapsed() >= std::time::Duration::from_secs(2);
        if builds >= max || (builds >= min && window_done) {
            return (fastest, built);
        }
    }
}

/// Median in µs of `f` over `reps` calls (per-call cost of a cheap
/// public function, never from one sub-millisecond timing).
pub fn median_call_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&mut us)
}

/// Median of the durations (µs) of every span named `name`.
pub fn median_us(tr: &Tracer, name: &str) -> f64 {
    stats::median(&mut tr.durations_us(name))
}

fn main() -> ExitCode {
    // Program work runs on one worker: the rayon shim reads this on every
    // parallel call, and no other thread exists yet.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", include_str!("../README.md"));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e} (see --help)");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::McSweep => mc_sweep::run(&args),
        Workload::StormDrill => storm_drill::run(&args),
        Workload::ServeStream => serve_stream::run(&args),
    };
    report.print(&args);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_layer_and_workload() {
        let per_layer = declared_metrics(true);
        for layer in trace::LAYERS {
            let name = format!("{layer}.busy_share");
            assert!(per_layer.iter().any(|(n, _)| *n == name), "{name}");
        }
        assert!(declared_metrics(false).iter().any(|(n, _)| n == "setup_s"));
        let bench: Value = serde_json::from_str(BENCHMARK_JSON).expect("parses");
        let Value::Seq(workloads) = bench.get("workloads") else {
            panic!("no workloads list");
        };
        for w in workloads {
            let Value::Str(name) = w.get("name") else {
                panic!("workload without a name");
            };
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }
}
