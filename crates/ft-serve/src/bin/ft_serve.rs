//! `ft-serve` — the sweep-service CLI: daemon and thin file-protocol
//! clients.
//!
//! `ft-serve help` prints each subcommand's flags (`USAGE`). A command
//! line that [`ft_experiments::cli`] misreads fails before the queue is
//! touched.
//!
//! Every client subcommand speaks the directory protocol (DESIGN.md
//! §14) — no daemon connection needed; `submit` against a root whose
//! daemon starts later just works. `run` and `submit` create the queue
//! tree; `status`, `watch`, `cancel`, `verify` and `stop` only read or
//! signal an existing one, so a root that holds no queue is an error.

use ft_experiments::cli::{Args, Flags};
use ft_serve::{
    read_deltas, read_deltas_from, read_final, request_stop, Daemon, JobQueue, JobSpec, JobState,
};
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

type Outcome = Result<ExitCode, Box<dyn Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "watch" => cmd_watch(rest),
        "cancel" => cmd_cancel(rest),
        "stop" => cmd_stop(rest),
        "verify" => cmd_verify(rest),
        "example-spec" => cmd_example_spec(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ft-serve {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "ft-serve — persistent multi-tenant sweep daemon over a file-based queue

  run          --root DIR [--workers N] [--poll-ms MS] [--once]
  submit       --root DIR (--spec FILE | --example TENANT) [--id ID]
  status       --root DIR [ID]
  watch        --root DIR ID [--timeout-s S]
  cancel       --root DIR ID
  stop         --root DIR
  verify       --root DIR ID [--expect-cache-hit]
  example-spec [--tenant T] [--runs N] [--delta-every N]";

/// The `--root DIR` of every subcommand but `example-spec`.
fn root(args: &Args) -> Result<PathBuf, Box<dyn Error>> {
    Ok(args.value("--root").ok_or("--root DIR is required")?.into())
}

/// The `--root DIR` of a client of an existing queue: an error naming
/// the root unless `<root>/queue` is a directory, so a mistyped root
/// creates nothing.
fn queue_root(args: &Args) -> Result<PathBuf, Box<dyn Error>> {
    let root = root(args)?;
    if !root.join("queue").is_dir() {
        return Err(format!("{} holds no queue (no queue/ directory)", root.display()).into());
    }
    Ok(root)
}

fn cmd_run(args: &[String]) -> Outcome {
    let args = &Flags(&["--once"], &["--root", "--workers", "--poll-ms"], 0).parse(args)?;
    let root = root(args)?;
    let workers = args.number("--workers")?.unwrap_or(2usize);
    let poll_ms = args.number("--poll-ms")?.unwrap_or(50u64);
    let daemon = Daemon::new(&root)?
        .with_workers(workers)
        .with_poll(Duration::from_millis(poll_ms));
    eprintln!(
        "ft-serve: daemon over {} ({workers} workers, poll {poll_ms} ms)",
        root.display()
    );
    if args.has("--once") {
        daemon.run_until_idle()?;
    } else {
        daemon.run()?;
    }
    let stats = daemon.cache().stats();
    eprintln!(
        "ft-serve: daemon exiting (cache: {}i+{}s hits, {}i+{}s misses)",
        stats.instance_hits, stats.schedule_hits, stats.instance_misses, stats.schedule_misses
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--root", "--spec", "--example", "--id"], 0).parse(args)?;
    let spec = match (args.value("--spec"), args.value("--example")) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?
        }
        (None, Some(tenant)) => JobSpec::example(tenant),
        _ => return Err("submit needs exactly one of --spec FILE or --example TENANT".into()),
    };
    let queue = JobQueue::open(root(args)?)?;
    let id = queue.submit(args.value("--id"), &spec)?;
    println!("{id}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--root"], 1).parse(args)?;
    let queue = JobQueue::open(queue_root(args)?)?;
    match args.positional(0) {
        Some(id) => {
            let state = queue.state(id).ok_or(format!("unknown job {id:?}"))?;
            print_job_line(&queue, id, state);
        }
        None => {
            for (id, state) in queue.jobs()? {
                print_job_line(&queue, &id, state);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn print_job_line(queue: &JobQueue, id: &str, state: JobState) {
    let extra = match state {
        JobState::Failed => queue
            .read_error(id)
            .map(|e| format!("  ({})", e.trim()))
            .unwrap_or_default(),
        JobState::Running => match read_deltas(queue.root(), id) {
            Ok(deltas) if !deltas.is_empty() => {
                let last = &deltas[deltas.len() - 1];
                format!(
                    "  (cell {} · {}/{} runs)",
                    last.cell, last.completed_runs, last.total_runs
                )
            }
            _ => String::new(),
        },
        _ => String::new(),
    };
    println!("{id:<24} {:<8}{extra}", format!("{state:?}").to_lowercase());
}

fn cmd_watch(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--root", "--timeout-s"], 1).parse(args)?;
    let root = queue_root(args)?;
    let id = args.positional(0).ok_or("watch needs a job id")?;
    let timeout = Duration::from_secs(args.number("--timeout-s")?.unwrap_or(600));
    let queue = JobQueue::open(&root)?;
    let started = Instant::now();
    // Tail the delta stream by byte offset: each poll seeks past what was
    // already printed and parses only the new lines, instead of
    // re-reading the whole file every 50 ms (O(n²) over a long job).
    let mut offset = 0u64;
    loop {
        let (deltas, next) = read_deltas_from(&root, id, offset)?;
        offset = next;
        for d in &deltas {
            println!(
                "{}  cell {:>3} [{}]  {:>6}/{} runs  completion {:>5.1}%",
                d.job,
                d.cell,
                d.label,
                d.completed_runs,
                d.total_runs,
                d.summary.completion_rate() * 100.0
            );
        }
        match queue.state(id) {
            Some(JobState::Done) => {
                let rec = read_final(&root, id)?;
                let hit = |h| if h { "hit" } else { "miss" };
                println!(
                    "{id}: done — {} cells (cache: instance {}, schedule {})",
                    rec.cells.len(),
                    hit(rec.cache.instance_hit),
                    hit(rec.cache.schedule_hit),
                );
                return Ok(ExitCode::SUCCESS);
            }
            Some(JobState::Failed) => {
                let why = queue.read_error(id).unwrap_or_default();
                eprintln!("{id}: failed — {}", why.trim());
                return Ok(ExitCode::from(2));
            }
            Some(_) => {}
            None => return Err(format!("unknown job {id:?}").into()),
        }
        if started.elapsed() > timeout {
            return Err(format!("timed out after {}s waiting on {id}", timeout.as_secs()).into());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn cmd_cancel(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--root"], 1).parse(args)?;
    let queue = JobQueue::open(queue_root(args)?)?;
    let id = args.positional(0).ok_or("cancel needs a job id")?;
    queue.cancel(id)?;
    eprintln!("{id}: cancellation requested");
    Ok(ExitCode::SUCCESS)
}

fn cmd_stop(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--root"], 0).parse(args)?;
    let root = queue_root(args)?;
    request_stop(&root)?;
    eprintln!("stop sentinel dropped at {}", root.join("stop").display());
    Ok(ExitCode::SUCCESS)
}

/// Recomputes the job's grid directly through `simulate_many` and
/// byte-compares against the daemon's final record — the end-to-end
/// "service adds zero science" check, also used by the CI acceptance
/// drill (with `--expect-cache-hit` for the warm tenant).
fn cmd_verify(args: &[String]) -> Outcome {
    let args = &Flags(&["--expect-cache-hit"], &["--root"], 1).parse(args)?;
    let root = queue_root(args)?;
    let id = args.positional(0).ok_or("verify needs a job id")?;
    let queue = JobQueue::open(&root)?;
    if queue.state(id) != Some(JobState::Done) {
        return Err(format!("job {id:?} is not done").into());
    }
    let spec = queue.read_spec(JobState::Done, id)?;
    let record = read_final(&root, id)?;
    if args.has("--expect-cache-hit") && !record.cache.schedule_hit {
        eprintln!("{id}: FAILED — expected a schedule-cache hit, job resolved cold");
        return Ok(ExitCode::from(2));
    }
    let direct = spec.direct_cell_results();
    let served = serde_json::to_string(&record.cells)?;
    let reference = serde_json::to_string(&direct)?;
    if served == reference {
        println!(
            "{id}: OK — {} cells byte-identical to direct simulate_many",
            direct.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("{id}: FAILED — served summaries differ from direct simulate_many");
        Ok(ExitCode::from(2))
    }
}

/// Prints the example job spec, after the checks `submit` applies.
fn cmd_example_spec(args: &[String]) -> Outcome {
    let args = &Flags(&[], &["--tenant", "--runs", "--delta-every"], 0).parse(args)?;
    let mut spec = JobSpec::example(args.value("--tenant").unwrap_or("example"));
    spec.grid.runs = args.number("--runs")?.unwrap_or(spec.grid.runs);
    spec.delta_every = args.number("--delta-every")?.unwrap_or(spec.delta_every);
    spec.validate()?;
    println!("{}", serde_json::to_string_pretty(&spec)?);
    Ok(ExitCode::SUCCESS)
}
