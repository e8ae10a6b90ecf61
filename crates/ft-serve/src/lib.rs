//! # ft-serve — the engine as a persistent multi-tenant sweep service
//!
//! Every experiment in this repo is historically a one-shot CLI
//! invocation that re-draws the workload, re-runs CAFT scheduling and
//! re-builds the platform from scratch. This crate turns the engine into
//! a **long-running daemon** serving many clients from one warm process
//! (DESIGN.md §14):
//!
//! * [`queue`] — a crash-safe **file-based job queue** (no sockets: the
//!   build environment is offline and files are the one IPC every client
//!   has). Jobs are JSON [`JobSpec`]s in `<root>/queue/pending/`,
//!   claimed by atomic rename into `running/`, finished into `done/` or
//!   `failed/`; a daemon killed mid-job leaves the file in `running/`
//!   and a restart re-queues it exactly once. An in-memory claim index
//!   parses each queued spec once on first sight, not on every claim.
//! * [`cache`] — a keyed, LRU-bounded **artifact cache**: instances
//!   (graph + platform, ε-independent) and CAFT schedules are cached
//!   under content-derived keys of the [`WorkloadSpec`](ft_experiments::WorkloadSpec), so a repeat
//!   job skips scheduling entirely — the ε-independent setup cost the
//!   grid runner showed dominates wall-clock.
//! * [`daemon`] — a bounded worker pool executing jobs concurrently with
//!   **per-tenant fairness** (a worker claims from the tenant with the
//!   fewest in-flight jobs), each job's cells opened through one
//!   [`GridBatch`](ft_runtime::GridBatch) and run in chunks so **streaming result
//!   deltas** (partial [`BatchSummary`](ft_runtime::BatchSummary)
//!   snapshots every `delta_every` runs) land in
//!   `<root>/results/<job>/deltas.jsonl` while the job runs, then an
//!   atomically-renamed `final.json`.
//! * [`job`] — the serde job surface: [`JobSpec`] (tenant + workload +
//!   scenario grid, reusing the `ft-experiments` sweep types),
//!   [`DeltaRecord`], [`FinalRecord`].
//!
//! The service layer adds **zero science**: a job's final summaries are
//! byte-identical to running the same grid directly through
//! [`simulate_many`](ft_runtime::simulate_many) — regardless of delta
//! interval, worker count, or cache hits (pinned by
//! `tests/service.rs`). Cancellation is a tombstone file checked
//! between chunks; `ft-serve submit|status|watch|cancel` are thin
//! clients over the same directory protocol.
//!
//! ## Example
//!
//! ```
//! use ft_serve::{ArtifactCache, Daemon, JobQueue, JobSpec};
//!
//! let root = std::env::temp_dir().join(format!("ft-serve-doc-{}", std::process::id()));
//! let queue = JobQueue::open(&root).unwrap();
//! let spec = JobSpec::example("alice");
//! let id = queue.submit(None, &spec).unwrap();
//!
//! // In-process daemon turn: drain the queue, then read the final record.
//! Daemon::new(&root).unwrap().run_until_idle().unwrap();
//! let rec = ft_serve::read_final(&root, &id).unwrap();
//! assert_eq!(rec.cells.len(), spec.cells().len());
//! std::fs::remove_dir_all(&root).ok();
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod daemon;
pub mod job;
pub mod queue;

pub use cache::{ArtifactCache, CacheStats, ResolveOutcome, ResolvedJob};
pub use daemon::{read_deltas, read_deltas_from, read_final, request_stop, stop_requested, Daemon};
pub use job::{CellResult, DeltaRecord, FinalRecord, JobSpec};
pub use queue::{ClaimOutcome, JobQueue, JobState, RootLock, ServeError};
