//! The daemon: a bounded worker pool draining the queue through the
//! artifact cache, streaming deltas as cells execute.
//!
//! Each worker loops claim → execute. Executing a job resolves its
//! workload through the shared [`ArtifactCache`], checks the grid's
//! values scaled against it
//! ([`SweepGrid::check_scaled`](ft_experiments::SweepGrid::check_scaled)),
//! enumerates the grid cells, and opens each cell through one
//! [`GridBatch`] — the grid loop behind
//! [`simulate_grid`](ft_runtime::simulate_grid), so a job's cells share
//! one arena pool and one static plan per distinct checkpoint table,
//! dropped after that table's last cell. Each cell runs in
//! `delta_every`-run chunks: after
//! every chunk a partial-summary [`DeltaRecord`] is appended to
//! `results/<id>/deltas.jsonl` (flushed, so clients tail it live) and
//! the job's cancellation tombstone is checked. The final
//! [`FinalRecord`] is written via temp-file + rename — a `final.json`
//! is always complete.
//!
//! Chunking, worker count, plan sharing and cache hits cannot change the
//! result: the final summaries are byte-identical to direct
//! [`simulate_many`](ft_runtime::simulate_many) calls (the
//! [`ChunkedBatch`](ft_runtime::ChunkedBatch) identity, re-pinned
//! end-to-end through the daemon by `tests/service.rs`).

use crate::cache::ArtifactCache;
use crate::job::{CellResult, DeltaRecord, FinalRecord};
use crate::queue::{ClaimOutcome, JobQueue, JobState, ServeError};
use ft_runtime::GridBatch;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The sweep daemon. Construct with [`new`](Daemon::new), tune with the
/// `with_*` builders, then either [`run`](Daemon::run) (poll until the
/// stop sentinel appears) or [`run_until_idle`](Daemon::run_until_idle)
/// (drain the current queue and return — the in-process/test mode).
pub struct Daemon {
    queue: JobQueue,
    cache: Arc<ArtifactCache>,
    workers: usize,
    poll: Duration,
}

impl Daemon {
    /// A daemon over the queue at `root` with a fresh default cache,
    /// 2 workers, and a 50 ms poll interval.
    pub fn new(root: impl AsRef<Path>) -> Result<Daemon, ServeError> {
        Ok(Daemon {
            queue: JobQueue::open(root)?,
            cache: Arc::new(ArtifactCache::default()),
            workers: 2,
            poll: Duration::from_millis(50),
        })
    }

    /// Sets the worker-pool size (at least 1): how many jobs execute
    /// concurrently. Cells within a job already parallelize via rayon,
    /// so workers buy cross-tenant concurrency, not raw throughput.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the idle poll interval of [`run`](Daemon::run).
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Shares an external artifact cache (e.g. one cache across several
    /// in-process daemon turns, or a bench's pre-warmed cache).
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The daemon's queue handle.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// The daemon's artifact cache.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Takes the root's exclusive daemon lock, runs crash recovery,
    /// then drains the queue with the worker pool and returns once no
    /// pending job is left. The in-process mode: tests and examples
    /// call this instead of spawning a process. Errors without touching
    /// the queue if another daemon already serves this root.
    pub fn run_until_idle(&self) -> Result<(), ServeError> {
        let _lock = self.queue.lock_daemon()?;
        self.queue.recover()?;
        self.worker_pool(false)
    }

    /// Takes the root's exclusive daemon lock, runs crash recovery,
    /// then polls the queue until the stop sentinel (`<root>/stop`)
    /// appears: the long-running service mode behind `ft-serve run`.
    /// Errors without touching the queue if another daemon already
    /// serves this root.
    pub fn run(&self) -> Result<(), ServeError> {
        let _lock = self.queue.lock_daemon()?;
        self.queue.recover()?;
        self.worker_pool(true)
    }

    fn worker_pool(&self, poll_until_stopped: bool) -> Result<(), ServeError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| scope.spawn(move || self.worker_loop(poll_until_stopped)))
                .collect();
            let mut result = Ok(());
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => result = Err(e),
                    Err(_) => result = Err(ServeError::Message("worker panicked".into())),
                }
            }
            result
        })
    }

    fn worker_loop(&self, poll_until_stopped: bool) -> Result<(), ServeError> {
        loop {
            match self.queue.claim()? {
                Some(claim) => self.execute(claim)?,
                None if poll_until_stopped => {
                    if stop_requested(self.queue.root()) {
                        return Ok(());
                    }
                    std::thread::sleep(self.poll);
                }
                None => return Ok(()),
            }
        }
    }

    /// Executes one claimed job to done/failed. Execution panics (an
    /// engine assertion a validated spec still managed to trip) are
    /// caught and routed to `failed/` with a diagnostic — one poisoned
    /// job must not take the worker down.
    fn execute(&self, claim: ClaimOutcome) -> Result<(), ServeError> {
        let id = claim.id.clone();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_job(&claim)));
        match run {
            Ok(Ok(JobEnd::Done)) => self.queue.mark_done(&id),
            Ok(Ok(JobEnd::Cancelled)) => {
                self.queue
                    .fail(&id, JobState::Running, "cancelled by client")
            }
            Ok(Err(e)) => self.queue.fail(&id, JobState::Running, &e.to_string()),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                self.queue.fail(
                    &id,
                    JobState::Running,
                    &format!("execution panicked: {msg}"),
                )
            }
        }
    }

    fn run_job(&self, claim: &ClaimOutcome) -> Result<JobEnd, ServeError> {
        let spec = &claim.spec;
        if self.queue.cancelled(&claim.id) {
            return Ok(JobEnd::Cancelled);
        }
        let resolved = self.cache.resolve(&spec.workload);
        let (cost, nominal) = (resolved.inst.mean_task_cost(), resolved.sched.latency());
        spec.grid
            .check_scaled(cost, nominal)
            .map_err(ServeError::Message)?;
        let cells = spec.grid.cells(cost, nominal);
        let results_dir = self.queue.results_dir(&claim.id);
        fs::create_dir_all(&results_dir)?;
        let mut deltas = if spec.delta_every > 0 {
            Some(fs::File::create(results_dir.join("deltas.jsonl"))?)
        } else {
            None
        };
        let chunk = if spec.delta_every > 0 {
            spec.delta_every
        } else {
            usize::MAX
        };
        let mut finished = Vec::with_capacity(cells.len());
        let configs: Vec<_> = cells
            .iter()
            .map(|cell| cell.monte_carlo_config(&resolved.inst, &resolved.sched))
            .collect();
        let mut grid = GridBatch::new(&resolved.inst, &resolved.sched, &configs);
        for (idx, cell) in cells.iter().enumerate() {
            let mut chunked = grid.cell(idx);
            while !chunked.is_done() {
                if self.queue.cancelled(&claim.id) {
                    return Ok(JobEnd::Cancelled);
                }
                chunked.run_chunk(chunk);
                if let Some(out) = deltas.as_mut() {
                    let record = DeltaRecord {
                        job: claim.id.clone(),
                        cell: idx,
                        label: cell.label(),
                        completed_runs: chunked.completed_runs(),
                        total_runs: configs[idx].runs,
                        summary: chunked.snapshot(),
                    };
                    let line = serde_json::to_string(&record)
                        .map_err(|e| ServeError::Message(e.to_string()))?;
                    writeln!(out, "{line}")?;
                    out.flush()?;
                }
            }
            finished.push(CellResult {
                label: cell.label(),
                summary: chunked.finish(),
            });
        }
        let record = FinalRecord {
            job: claim.id.clone(),
            tenant: spec.tenant.clone(),
            cells: finished,
            cache: resolved.outcome,
        };
        let tmp = results_dir.join("final.json.tmp");
        fs::write(
            &tmp,
            serde_json::to_string_pretty(&record)
                .map_err(|e| ServeError::Message(e.to_string()))?,
        )?;
        fs::rename(&tmp, results_dir.join("final.json"))?;
        Ok(JobEnd::Done)
    }
}

enum JobEnd {
    Done,
    Cancelled,
}

/// Whether the stop sentinel (`<root>/stop`) exists.
pub fn stop_requested(root: &Path) -> bool {
    root.join("stop").exists()
}

/// Drops the stop sentinel: a polling daemon exits once idle.
pub fn request_stop(root: &Path) -> Result<(), ServeError> {
    fs::write(root.join("stop"), "")?;
    Ok(())
}

/// Reads a finished job's final record.
pub fn read_final(root: &Path, id: &str) -> Result<FinalRecord, ServeError> {
    let path = root.join("results").join(id).join("final.json");
    let text = fs::read_to_string(&path)?;
    serde_json::from_str(&text)
        .map_err(|e| ServeError::Message(format!("parsing {}: {e}", path.display())))
}

/// Reads a job's streamed delta records (empty if streaming was off or
/// nothing has landed yet).
pub fn read_deltas(root: &Path, id: &str) -> Result<Vec<DeltaRecord>, ServeError> {
    read_deltas_from(root, id, 0).map(|(records, _)| records)
}

/// Incremental [`read_deltas`]: seeks to byte `offset` in the job's
/// `deltas.jsonl` and parses only the newline-terminated records past it,
/// returning them with the offset to resume from. Polling clients (the
/// `ft-serve watch` tail loop) call this with the previous return value
/// instead of re-reading and re-parsing the whole file every tick —
/// O(new bytes) per poll instead of O(file). A partially-written final
/// line (the daemon flushes whole lines, but a reader can race the
/// write) is left for the next call: the returned offset only ever
/// advances past complete lines.
pub fn read_deltas_from(
    root: &Path,
    id: &str,
    offset: u64,
) -> Result<(Vec<DeltaRecord>, u64), ServeError> {
    use std::io::{Read, Seek, SeekFrom};
    let path = root.join("results").join(id).join("deltas.jsonl");
    let mut file = match fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), offset)),
        Err(e) => return Err(e.into()),
    };
    file.seek(SeekFrom::Start(offset))?;
    // Bytes, not a string: a line cut by a racing write may end inside a
    // multi-byte character, and only the complete lines are decoded.
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let Some(consumed) = bytes.iter().rposition(|&b| b == b'\n').map(|i| i + 1) else {
        return Ok((Vec::new(), offset));
    };
    let text = std::str::from_utf8(&bytes[..consumed])
        .map_err(|e| ServeError::Message(format!("reading {}: {e}", path.display())))?;
    let records = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .map_err(|e| ServeError::Message(format!("parsing delta line: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((records, offset + consumed as u64))
}
