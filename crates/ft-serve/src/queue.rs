//! The file-based job queue: crash-safe by construction.
//!
//! The whole client↔daemon protocol is a directory tree under one
//! `--root` (no sockets — files are the one IPC an offline build
//! environment always has, and every transition below is a single
//! atomic rename, so any crash leaves the queue in a recoverable
//! state):
//!
//! ```text
//! <root>/queue/pending/<id>.json    submitted JobSpec (tmp-write + rename in)
//! <root>/queue/running/<id>.json    claimed by a worker (rename from pending)
//! <root>/queue/done/<id>.json       finished (rename from running)
//! <root>/queue/failed/<id>.json     failed — <id>.error.txt holds the diagnostic
//! <root>/queue/cancel/<id>          cancellation tombstone (client-created)
//! <root>/queue/attempts/<id>        crash counter (written only by recover)
//! <root>/queue/ids/<id>             id reservation (create_new = uniqueness)
//! <root>/results/<id>/deltas.jsonl  streaming partial summaries
//! <root>/results/<id>/final.json    the final record (tmp-write + rename)
//! <root>/daemon.lock                OS advisory lock: one daemon per root
//! <root>/stop                       daemon stop sentinel
//! ```
//!
//! ## The claim index
//!
//! A claim picks one pending job, so it must know every pending job's
//! tenant and submission time, and every running job's tenant. Reading
//! them from disk on each claim made a claim O(backlog) parses and a
//! drain O(n²). So each [`JobQueue`] (and every clone of it: a daemon's
//! workers share one) keeps a claim index in memory: id → (mtime,
//! tenant) of every spec listed in `pending/` or `running/`. Only these
//! two facts are cached; the spec itself stays on disk.
//!
//! * **First sight.** The first claim that lists an id stats and reads
//!   its spec once. A pending spec must also validate; one that does not
//!   fails into `failed/` with its diagnostic in that same claim.
//! * **Refresh and pruning.** Every claim still lists `pending/` and
//!   `running/` once (one `readdir` each, no `stat`). The listing is the
//!   source of truth: it is how the daemon sees submissions and
//!   cancellations made by other processes, and an id that neither
//!   directory lists any more (done, failed, or taken away) is pruned
//!   from the index.
//! * **Order.** The fairness order is computed from the index: the
//!   tenant with the fewest running jobs first, then the oldest mtime,
//!   then the id.
//! * **After the rename.** The claimed spec is read back from
//!   `running/` and validated once more before it is returned, so a file
//!   edited in place after first sight fails into `failed/` and never
//!   runs unvalidated.
//!
//! A drain of n jobs therefore reads 2n spec files, not ≈ n²/2.
//!
//! A job a killed daemon left in `running/` is re-queued by
//! [`recover`](JobQueue::recover) **at most once** (recover itself
//! records the crash in the attempts counter *before* re-queueing, so
//! no crash window can mint extra retries; a job that already burned
//! its retry fails with a diagnostic instead of crash-looping). A
//! malformed or invalid spec is routed to `failed/` with a diagnostic
//! file at claim time — it cannot wedge the poll loop. Both are pinned
//! by `tests/service.rs`. Recovery assumes it owns `running/`, so a
//! daemon must hold the root's exclusive [`RootLock`] — a second
//! `ft-serve run` on the same root refuses to start instead of
//! double-executing in-flight jobs.

use crate::job::{is_safe_name, JobSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::SystemTime;

/// The largest job spec a claim reads, in bytes: about 2,000× the
/// 496-byte example spec. A larger file fails into `failed/`.
const MAX_SPEC_BYTES: u64 = 1 << 20;

/// Errors of the service layer.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A protocol-level error (duplicate id, malformed spec, unknown
    /// job, …).
    Message(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Message(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

fn err(msg: impl Into<String>) -> ServeError {
    ServeError::Message(msg.into())
}

fn is_not_found(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

/// Exclusive daemon lock on a service root, held for the daemon's
/// lifetime (an OS advisory lock on `<root>/daemon.lock`, so a killed
/// daemon releases it automatically). Recovery and the claim loop
/// assume exactly one daemon owns `running/`; a second daemon on the
/// same root would re-queue jobs that are actively executing and
/// double-run them.
#[derive(Debug)]
pub struct RootLock {
    // Dropping the handle closes the descriptor and releases the lock.
    _file: fs::File,
}

/// Where a job currently is in its lifecycle (= which queue directory
/// holds its spec).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, not yet claimed.
    Pending,
    /// Claimed by a worker.
    Running,
    /// Finished; `results/<id>/final.json` exists.
    Done,
    /// Failed or cancelled; `queue/failed/<id>.error.txt` says why.
    Failed,
}

impl JobState {
    /// The queue subdirectory of this state.
    pub fn dir_name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A successfully claimed job: the worker that holds it owns its
/// `running/` entry until it marks it done or failed.
#[derive(Clone, Debug)]
pub struct ClaimOutcome {
    /// The job id.
    pub id: String,
    /// The parsed, validated spec.
    pub spec: JobSpec,
    /// How many times the job has been claimed including this claim
    /// (`2` = this execution is the post-crash retry).
    pub attempts: u32,
}

/// Handle on the queue tree under one service root. Cheap to clone
/// per worker. Every job's state is on disk; the handle adds only the
/// claim index (see the module docs), which all clones share.
#[derive(Clone, Debug)]
pub struct JobQueue {
    root: PathBuf,
    index: Arc<Mutex<ClaimIndex>>,
}

/// What claims learned of the specs listed in `pending/` and `running/`.
#[derive(Debug, Default)]
struct ClaimIndex {
    entries: HashMap<String, Indexed>,
    /// Bumped by every listing; an entry the last listing did not stamp
    /// is pruned.
    generation: u64,
    /// Spec files read by claims.
    #[cfg(test)]
    spec_reads: usize,
}

impl ClaimIndex {
    /// Counts a spec file read by a claim; tests gate a drain's reads.
    fn count_read(&mut self) {
        #[cfg(test)]
        {
            self.spec_reads += 1;
        }
    }
}

/// One indexed spec.
#[derive(Debug)]
struct Indexed {
    mtime: SystemTime,
    /// `None` for a running spec that did not parse: it counts toward no
    /// tenant's load, as before the index.
    tenant: Option<String>,
    /// The generation of the last listing that showed the id.
    listed: u64,
}

impl JobQueue {
    /// Opens (creating if needed) the queue tree under `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<JobQueue, ServeError> {
        let root = root.as_ref().to_path_buf();
        for dir in [
            "queue/tmp",
            "queue/pending",
            "queue/running",
            "queue/done",
            "queue/failed",
            "queue/cancel",
            "queue/attempts",
            "queue/ids",
            "results",
        ] {
            fs::create_dir_all(root.join(dir))?;
        }
        Ok(JobQueue {
            root,
            index: Arc::default(),
        })
    }

    /// The service root this queue lives under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn queue_dir(&self, name: &str) -> PathBuf {
        self.root.join("queue").join(name)
    }

    fn job_file(&self, state: JobState, id: &str) -> PathBuf {
        self.queue_dir(state.dir_name()).join(format!("{id}.json"))
    }

    /// The results directory of a job.
    pub fn results_dir(&self, id: &str) -> PathBuf {
        self.root.join("results").join(id)
    }

    /// Submits a job: reserves the id (auto-generated `<tenant>-<k>`
    /// when `id` is `None`), writes the spec to a temp file, and renames
    /// it into `pending/` — atomically visible to the daemon. Returns
    /// the job id.
    pub fn submit(&self, id: Option<&str>, spec: &JobSpec) -> Result<String, ServeError> {
        spec.validate().map_err(err)?;
        let id = match id {
            Some(id) => {
                validate_id(id)?;
                self.reserve(id)
                    .map_err(|_| err(format!("job id {id:?} already exists")))?;
                id.to_string()
            }
            None => {
                let mut k = 0u64;
                loop {
                    let candidate = format!("{}-{k}", spec.tenant);
                    match self.reserve(&candidate) {
                        Ok(()) => break candidate,
                        // Only a taken id warrants the next suffix; any
                        // other failure (ids dir gone, EACCES, ENOSPC)
                        // would loop forever.
                        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => k += 1,
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        };
        let tmp = self.queue_dir("tmp").join(format!("{id}.json"));
        fs::write(
            &tmp,
            serde_json::to_string_pretty(spec).map_err(|e| err(e.to_string()))?,
        )?;
        fs::rename(&tmp, self.job_file(JobState::Pending, &id))?;
        Ok(id)
    }

    /// Takes the root's exclusive daemon lock (`<root>/daemon.lock`),
    /// refusing — not blocking — if another live daemon already holds
    /// it. Must be held across [`recover`](JobQueue::recover) and the
    /// whole claim/execute lifetime; released on drop or process death.
    pub fn lock_daemon(&self) -> Result<RootLock, ServeError> {
        let path = self.root.join("daemon.lock");
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => Ok(RootLock { _file: file }),
            Err(std::fs::TryLockError::WouldBlock) => Err(err(format!(
                "another daemon is already serving {} (exclusive lock {} is held)",
                self.root.display(),
                path.display()
            ))),
            Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
        }
    }

    fn reserve(&self, id: &str) -> std::io::Result<()> {
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.queue_dir("ids").join(id))
            .map(|_| ())
    }

    /// Claims the next pending job with **per-tenant fairness**: among
    /// pending jobs, pick one from the tenant with the fewest jobs
    /// currently running, oldest first within a tenant. Claiming renames
    /// the spec into `running/` (atomic — concurrent workers cannot
    /// claim the same job). A pending spec that fails to parse or
    /// validate is routed to `failed/` with a diagnostic and skipped;
    /// a pending file that vanishes mid-scan (claimed or failed by a
    /// concurrent worker) is simply skipped — racing workers can never
    /// error each other out of the loop. Each spec is parsed once on
    /// first sight and once after its rename (the claim index, see the
    /// module docs). Returns `None` when nothing is pending.
    pub fn claim(&self) -> Result<Option<ClaimOutcome>, ServeError> {
        // Every update leaves the index valid: an entry is inserted whole,
        // and the next listing re-stamps every listed id. So the guard of
        // a claim that panicked is taken over, not propagated.
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            index.generation += 1;
            let pending = self.refresh(&mut index, JobState::Pending)?;
            let running = self.refresh(&mut index, JobState::Running)?;
            let generation = index.generation;
            index.entries.retain(|_, e| e.listed == generation);
            if pending.is_empty() {
                return Ok(None);
            }
            let mut in_flight: HashMap<&str, usize> = HashMap::new();
            for id in &running {
                if let Some(tenant) = index.entries[id].tenant.as_deref() {
                    *in_flight.entry(tenant).or_default() += 1;
                }
            }
            let mut candidates: Vec<(usize, SystemTime, &str)> = pending
                .iter()
                .map(|id| {
                    let entry = &index.entries[id];
                    let tenant = entry.tenant.as_deref().unwrap_or_default();
                    let load = in_flight.get(tenant).copied().unwrap_or(0);
                    (load, entry.mtime, id.as_str())
                })
                .collect();
            candidates.sort_unstable();
            for (_, _, id) in candidates {
                match fs::rename(
                    self.job_file(JobState::Pending, id),
                    self.job_file(JobState::Running, id),
                ) {
                    Ok(()) => match self.read_valid(&mut index, JobState::Running, id) {
                        Ok((_, spec)) => {
                            let attempts = self.crash_count(id) + 1;
                            let id = id.to_string();
                            return Ok(Some(ClaimOutcome { id, spec, attempts }));
                        }
                        // Edited in place since first sight: it fails
                        // out as a malformed submission would.
                        Err(e) => self.fail_out(id, JobState::Running, &e)?,
                    },
                    // Raced by another worker (or the client cancelled the
                    // pending file away): try the next candidate, then
                    // rescan.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }

    /// Lists `state`'s directory into the claim index and returns the
    /// listed ids that are indexed. An id listed for the first time is
    /// read once: a running spec for its tenant, a pending spec also
    /// validated. A pending spec that fails either goes to `failed/` with
    /// its diagnostic and is not returned.
    fn refresh(&self, index: &mut ClaimIndex, state: JobState) -> Result<Vec<String>, ServeError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.queue_dir(state.dir_name()))? {
            let name = entry?.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue; // error.txt diagnostics and stray files
            };
            let generation = index.generation;
            if let Some(entry) = index.entries.get_mut(id) {
                entry.listed = generation;
                ids.push(id.to_string());
                continue;
            }
            let read = if state == JobState::Pending {
                self.read_valid(index, state, id)
            } else {
                self.read_counted(index, state, id)
            };
            let (mtime, tenant) = match read {
                Ok((mtime, spec)) => (mtime, Some(spec.tenant)),
                // The listing is a snapshot: a concurrent worker may
                // have claimed (or failed) the file between readdir
                // and read — not an error, just not ours to handle.
                Err(e) if is_not_found(&e) => continue,
                Err(_) if state == JobState::Running => (SystemTime::UNIX_EPOCH, None),
                Err(e) => {
                    self.fail_out(id, state, &e)?;
                    continue;
                }
            };
            let indexed = Indexed {
                mtime,
                tenant,
                listed: generation,
            };
            index.entries.insert(id.to_string(), indexed);
            ids.push(id.to_string());
        }
        Ok(ids)
    }

    /// Reads a spec for a claim, counting the read.
    fn read_counted(
        &self,
        index: &mut ClaimIndex,
        state: JobState,
        id: &str,
    ) -> Result<(SystemTime, JobSpec), ServeError> {
        index.count_read();
        self.read_spec_file(state, id)
    }

    /// [`read_counted`](JobQueue::read_counted), then
    /// [`JobSpec::validate`].
    fn read_valid(
        &self,
        index: &mut ClaimIndex,
        state: JobState,
        id: &str,
    ) -> Result<(SystemTime, JobSpec), ServeError> {
        let (mtime, spec) = self.read_counted(index, state, id)?;
        spec.validate()
            .map_err(|e| err(format!("invalid spec: {e}")))?;
        Ok((mtime, spec))
    }

    /// Moves a spec that failed to read or validate into `failed/` with
    /// its diagnostic: out of the poll loop's way, next to the raw file.
    /// Another worker racing the same broken file may win the rename;
    /// losing that race is fine too.
    fn fail_out(&self, id: &str, from: JobState, e: &ServeError) -> Result<(), ServeError> {
        match self.fail(id, from, &e.to_string()) {
            Err(e) if !is_not_found(&e) => Err(e),
            _ => Ok(()),
        }
    }

    /// How many crashes the job has survived (the attempts file,
    /// written only by [`recover`](JobQueue::recover)). Claiming merely
    /// reads it: `attempts = crashes + 1`, so claim needs no write and
    /// there is no rename↔counter crash window, nor a double-bump when
    /// two workers race the same pending file.
    fn crash_count(&self, id: &str) -> u32 {
        fs::read_to_string(self.queue_dir("attempts").join(id))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Crash recovery, run once at daemon start (under the root's
    /// [`RootLock`]): every job a dead daemon left in `running/` is
    /// re-queued into `pending/` — but only on its **first** recovery.
    /// The crash is recorded *before* the re-queueing rename: dying in
    /// between fails the job on the next recovery rather than granting
    /// it an extra retry. A job that already burned its retry (claimed
    /// twice, crashed twice) moves to `failed/` with a diagnostic
    /// instead of crash-looping the daemon. Returns `(id, requeued)`
    /// per recovered job.
    pub fn recover(&self) -> Result<Vec<(String, bool)>, ServeError> {
        let mut recovered = Vec::new();
        for id in self.sorted_entries(JobState::Running)? {
            let crashes = self.crash_count(&id);
            if crashes == 0 {
                fs::write(self.queue_dir("attempts").join(&id), "1")?;
                fs::rename(
                    self.job_file(JobState::Running, &id),
                    self.job_file(JobState::Pending, &id),
                )?;
                recovered.push((id, true));
            } else {
                self.fail(
                    &id,
                    JobState::Running,
                    &format!(
                        "daemon died while running this job {} times; \
                         not re-queueing again",
                        crashes + 1
                    ),
                )?;
                recovered.push((id, false));
            }
        }
        Ok(recovered)
    }

    /// Marks a running job finished: rename into `done/`.
    pub fn mark_done(&self, id: &str) -> Result<(), ServeError> {
        fs::rename(
            self.job_file(JobState::Running, id),
            self.job_file(JobState::Done, id),
        )?;
        Ok(())
    }

    /// Moves a job from `from` into `failed/` and records the diagnostic
    /// in `failed/<id>.error.txt`.
    pub fn fail(&self, id: &str, from: JobState, diagnostic: &str) -> Result<(), ServeError> {
        fs::rename(self.job_file(from, id), self.job_file(JobState::Failed, id))?;
        let mut f = fs::File::create(self.queue_dir("failed").join(format!("{id}.error.txt")))?;
        writeln!(f, "{diagnostic}")?;
        Ok(())
    }

    /// Drops a cancellation tombstone for the job. The daemon checks it
    /// between execution chunks; a still-pending job is failed at claim
    /// time. Errors if the job id was never submitted.
    pub fn cancel(&self, id: &str) -> Result<(), ServeError> {
        if !self.queue_dir("ids").join(id).exists() {
            return Err(err(format!("unknown job {id:?}")));
        }
        fs::write(self.queue_dir("cancel").join(id), "")?;
        Ok(())
    }

    /// Whether a cancellation tombstone exists for the job.
    pub fn cancelled(&self, id: &str) -> bool {
        self.queue_dir("cancel").join(id).exists()
    }

    /// The job's current state, or `None` for an unknown id.
    pub fn state(&self, id: &str) -> Option<JobState> {
        [
            JobState::Pending,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ]
        .into_iter()
        .find(|&s| self.job_file(s, id).exists())
    }

    /// Every known job and its state, sorted by id.
    pub fn jobs(&self) -> Result<Vec<(String, JobState)>, ServeError> {
        let mut all = Vec::new();
        for state in [
            JobState::Pending,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            for id in self.sorted_entries(state)? {
                all.push((id, state));
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(all)
    }

    /// Reads a job's spec out of the given state directory. A spec file
    /// over 1 MiB is an error, found without reading it whole.
    pub fn read_spec(&self, state: JobState, id: &str) -> Result<JobSpec, ServeError> {
        self.read_spec_file(state, id).map(|(_, spec)| spec)
    }

    /// [`read_spec`](JobQueue::read_spec) and the file's mtime.
    fn read_spec_file(
        &self,
        state: JobState,
        id: &str,
    ) -> Result<(SystemTime, JobSpec), ServeError> {
        let path = self.job_file(state, id);
        let file = fs::File::open(&path)?;
        let mtime = file
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH);
        // The head start reads a typical spec in one call, so the capped
        // read costs no more syscalls than `fs::read_to_string`.
        let mut bytes = Vec::with_capacity(8 << 10);
        file.take(MAX_SPEC_BYTES + 1).read_to_end(&mut bytes)?;
        if bytes.len() as u64 > MAX_SPEC_BYTES {
            return Err(err(format!(
                "{} exceeds the {MAX_SPEC_BYTES}-byte spec size limit",
                path.display()
            )));
        }
        let parse_err = |e: &dyn fmt::Display| err(format!("parsing {}: {e}", path.display()));
        let text = String::from_utf8(bytes).map_err(|e| parse_err(&e))?;
        let spec = serde_json::from_str(&text).map_err(|e| parse_err(&e))?;
        Ok((mtime, spec))
    }

    /// The diagnostic of a failed job, if recorded.
    pub fn read_error(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.queue_dir("failed").join(format!("{id}.error.txt"))).ok()
    }

    /// Job ids in a state directory, oldest submission first (mtime,
    /// then id, so same-instant submissions order deterministically).
    fn sorted_entries(&self, state: JobState) -> Result<Vec<String>, ServeError> {
        let mut entries: Vec<(SystemTime, String)> = Vec::new();
        for entry in fs::read_dir(self.queue_dir(state.dir_name()))? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name.strip_suffix(".json") else {
                continue; // error.txt diagnostics and stray files
            };
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((mtime, id.to_string()));
        }
        entries.sort();
        Ok(entries.into_iter().map(|(_, id)| id).collect())
    }
}

fn validate_id(id: &str) -> Result<(), ServeError> {
    if is_safe_name(id) {
        Ok(())
    } else {
        Err(err(format!(
            "invalid job id {id:?}: use ASCII letters, digits, '-', '_', '.'"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{MAX_CELLS, MAX_PROCS, MAX_RUNS, MAX_TASK_PROCS};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static NEXT: AtomicU32 = AtomicU32::new(0);

    fn temp_root() -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ft-serve-queue-{}-{n}", std::process::id()))
    }

    #[test]
    fn submit_claim_done_walks_the_directories() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let id = q.submit(None, &JobSpec::example("alice")).unwrap();
        assert_eq!(id, "alice-0");
        assert_eq!(q.state(&id), Some(JobState::Pending));
        let claimed = q.claim().unwrap().unwrap();
        assert_eq!(claimed.id, id);
        assert_eq!(claimed.attempts, 1);
        assert_eq!(q.state(&id), Some(JobState::Running));
        q.mark_done(&id).unwrap();
        assert_eq!(q.state(&id), Some(JobState::Done));
        assert!(q.claim().unwrap().is_none());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn duplicate_ids_are_rejected_and_auto_ids_count_up() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let spec = JobSpec::example("t");
        q.submit(Some("job1"), &spec).unwrap();
        assert!(q.submit(Some("job1"), &spec).is_err());
        assert!(q.submit(Some("bad/id"), &spec).is_err());
        assert_eq!(q.submit(None, &spec).unwrap(), "t-0");
        assert_eq!(q.submit(None, &spec).unwrap(), "t-1");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fairness_prefers_the_tenant_with_fewer_running_jobs() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        // alice floods the queue first, bob arrives later.
        q.submit(None, &JobSpec::example("alice")).unwrap();
        q.submit(None, &JobSpec::example("alice")).unwrap();
        q.submit(None, &JobSpec::example("bob")).unwrap();
        let first = q.claim().unwrap().unwrap();
        assert_eq!(first.spec.tenant, "alice", "FIFO while nobody runs");
        // With an alice job in flight, bob's job outranks alice's older one.
        let second = q.claim().unwrap().unwrap();
        assert_eq!(second.spec.tenant, "bob");
        let third = q.claim().unwrap().unwrap();
        assert_eq!(third.spec.tenant, "alice");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn auto_id_submit_surfaces_reserve_errors_instead_of_spinning() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        // A persistent reservation failure (here: the ids dir is gone)
        // must propagate, not busy-loop through candidate suffixes.
        fs::remove_dir_all(root.join("queue/ids")).unwrap();
        assert!(q.submit(None, &JobSpec::example("t")).is_err());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn attempts_counter_is_written_by_recover_not_claim() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let id = q.submit(None, &JobSpec::example("t")).unwrap();
        assert_eq!(q.claim().unwrap().unwrap().attempts, 1);
        assert!(
            !root.join("queue/attempts").join(&id).exists(),
            "claiming must not write the counter: a crash (or lost \
             claim race) between rename and bump could skew it"
        );
        q.recover().unwrap();
        assert_eq!(
            fs::read_to_string(root.join("queue/attempts").join(&id)).unwrap(),
            "1",
            "recover records the crash"
        );
        assert_eq!(q.claim().unwrap().unwrap().attempts, 2);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn daemon_lock_is_exclusive_until_dropped() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let held = q.lock_daemon().unwrap();
        let refused = q.lock_daemon();
        assert!(
            refused
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default()
                .contains("another daemon"),
            "second lock on a held root must be refused"
        );
        drop(held);
        assert!(q.lock_daemon().is_ok(), "dropping the lock releases it");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_spec_fails_at_claim_with_a_diagnostic() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        // Bypass submit-time validation, as a buggy client would.
        fs::write(root.join("queue/pending/broken.json"), "{\"tenant\": \"x\"").unwrap();
        assert!(q.claim().unwrap().is_none(), "nothing claimable");
        assert_eq!(q.state("broken"), Some(JobState::Failed));
        let diag = q.read_error("broken").unwrap();
        assert!(
            diag.contains("broken.json"),
            "diagnostic names the file: {diag}"
        );
        fs::remove_dir_all(&root).ok();
    }

    /// Every path under `dir`, sorted.
    fn tree(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(tree(&path));
            }
            out.push(path);
        }
        out.sort();
        out
    }

    #[test]
    fn tenants_that_escape_the_queue_tree_are_rejected() {
        let outer = temp_root();
        let root = outer.join("svc");
        let q = JobQueue::open(&root).unwrap();
        let before = tree(&outer);
        for tenant in [
            "../../results/evil",
            "../escape",
            "../../../outside",
            "a/b",
            "",
        ] {
            let submitted = q.submit(None, &JobSpec::example(tenant));
            assert!(
                submitted.is_err(),
                "tenant {tenant:?} accepted as {submitted:?}"
            );
        }
        assert_eq!(tree(&outer), before, "a rejected submit wrote files");
        // A spec that bypasses submit fails out at claim instead.
        let json = serde_json::to_string(&JobSpec::example("../escape")).unwrap();
        fs::write(root.join("queue/pending/sneaky.json"), json).unwrap();
        assert!(q.claim().unwrap().is_none(), "nothing claimable");
        assert_eq!(q.state("sneaky"), Some(JobState::Failed));
        assert!(q.read_error("sneaky").unwrap().contains("invalid tenant"));
        fs::remove_dir_all(&outer).ok();
    }

    #[test]
    fn unknown_contention_mode_fails_at_claim_with_a_diagnostic() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        // A structurally valid spec asking for a sharing model this
        // build does not know — must land in failed/, not crash-loop.
        let json = serde_json::to_string(&JobSpec::example("x"))
            .unwrap()
            .replace("\"Ideal\"", "\"warp-speed\"");
        fs::write(root.join("queue/pending/warped.json"), json).unwrap();
        assert!(q.claim().unwrap().is_none(), "nothing claimable");
        assert_eq!(q.state("warped"), Some(JobState::Failed));
        let diag = q.read_error("warped").unwrap();
        assert!(
            diag.contains("warp-speed"),
            "diagnostic names the unknown mode: {diag}"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_drain_reads_each_spec_at_most_twice() {
        // The claim index parses a spec on first sight and once more
        // after its rename; re-reading every queued spec on every claim
        // read ≈ n²/2 files for a drain of n. Half the claimed jobs stay
        // running, so their tenants' load comes from the index too.
        for n in [1, 240] {
            let root = temp_root();
            let q = JobQueue::open(&root).unwrap();
            for k in 0..n {
                q.submit(None, &JobSpec::example(&format!("t{}", k % 3)))
                    .unwrap();
            }
            let mut claimed = 0;
            while let Some(claim) = q.claim().unwrap() {
                if claimed % 2 == 0 {
                    q.mark_done(&claim.id).unwrap();
                }
                claimed += 1;
            }
            assert_eq!(claimed, n);
            let reads = q.index.lock().unwrap().spec_reads;
            assert!(reads <= 2 * n, "a drain of {n} jobs read {reads} specs");
            fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn a_spec_edited_after_first_sight_fails_after_its_rename() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let first = q.submit(Some("a"), &JobSpec::example("t")).unwrap();
        let second = q.submit(Some("b"), &JobSpec::example("t")).unwrap();
        // The first claim indexes both specs and takes the first.
        assert_eq!(q.claim().unwrap().unwrap().id, first);
        let mut invalid = JobSpec::example("t");
        invalid.grid.runs = 0;
        fs::write(
            q.job_file(JobState::Pending, &second),
            serde_json::to_string(&invalid).unwrap(),
        )
        .unwrap();
        assert!(q.claim().unwrap().is_none(), "nothing valid to claim");
        assert_eq!(q.state(&second), Some(JobState::Failed));
        assert!(q.read_error(&second).unwrap().contains("grid.runs"));
        // Failed and done ids leave the index at the next listing.
        q.mark_done(&first).unwrap();
        assert!(q.claim().unwrap().is_none());
        assert!(q.index.lock().unwrap().entries.is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn recover_requeues_exactly_once() {
        let root = temp_root();
        let q = JobQueue::open(&root).unwrap();
        let id = q.submit(None, &JobSpec::example("t")).unwrap();
        // Claim and "die" (never mark done) — twice.
        q.claim().unwrap().unwrap();
        assert_eq!(q.recover().unwrap(), vec![(id.clone(), true)]);
        assert_eq!(
            q.state(&id),
            Some(JobState::Pending),
            "first crash re-queues"
        );
        let second = q.claim().unwrap().unwrap();
        assert_eq!(second.attempts, 2);
        assert_eq!(q.recover().unwrap(), vec![(id.clone(), false)]);
        assert_eq!(
            q.state(&id),
            Some(JobState::Failed),
            "second crash gives up"
        );
        assert!(q.read_error(&id).unwrap().contains("not re-queueing"));
        fs::remove_dir_all(&root).ok();
    }

    /// SplitMix64: the hostile-file draws of one proptest case.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// `json` with the value after the `nth` `"key":` — the first element
    /// if the value is an array — replaced by `value`.
    fn with_value(json: &str, key: &str, nth: usize, value: &str) -> String {
        let pat = format!("\"{key}\":");
        let at = json.match_indices(&pat).nth(nth).unwrap().0 + pat.len();
        let start = at + usize::from(json[at..].starts_with('['));
        let end = start + json[start..].find([',', '}', ']']).unwrap();
        format!("{}{value}{}", &json[..start], &json[end..])
    }

    /// One spec file for `pending/`, and whether a claim must admit it
    /// (`Some(true)`), must reject it (`Some(false)`), or may do either.
    fn spec_file(draws: &mut Draws) -> (Vec<u8>, Option<bool>) {
        let tenant = format!("t{}", draws.below(3));
        let example = JobSpec::example(&tenant);
        let json = serde_json::to_string(&example).unwrap();
        let encode = |spec: &JobSpec| serde_json::to_string(spec).unwrap().into_bytes();
        match draws.below(7) {
            0 => (json.into_bytes(), Some(true)),
            1 => {
                let cut = draws.below(json.len());
                (json.as_bytes()[..cut].to_vec(), Some(false))
            }
            2 => {
                let mut bytes = json.into_bytes();
                for _ in 0..1 + draws.below(4) {
                    let at = draws.below(bytes.len());
                    bytes[at] ^= 1 + draws.below(255) as u8;
                }
                (bytes, None)
            }
            3 => {
                let depth = [129, 200, 5_000, 100_000][draws.below(4)];
                let (open, close) = [("[", "]"), ("{\"a\":", "}")][draws.below(2)];
                let nest = format!("{}1{}", open.repeat(depth), close.repeat(depth));
                let body = with_value(&json, "grid", 0, &nest);
                (body.into_bytes(), Some(false))
            }
            4 => {
                const FIELDS: [(&str, usize); 13] = [
                    ("tasks", 0),
                    ("procs", 0),
                    ("eps", 0),
                    ("granularity", 0),
                    ("seed", 0),
                    ("mttf_factors", 0),
                    ("mttr_factors", 0),
                    ("checkpoint_intervals", 0),
                    ("checkpoint_overhead", 0),
                    ("runs", 0),
                    ("detection_latency", 0),
                    ("seed", 1),
                    ("delta_every", 0),
                ];
                const EXTREMES: [&str; 10] = [
                    "-1",
                    "0",
                    "-0",
                    "1e308",
                    "1e400",
                    "-1e400",
                    "18446744073709551616",
                    "-9223372036854775809",
                    "\"7\"",
                    "\"1e400\"",
                ];
                let (key, nth) = FIELDS[draws.below(FIELDS.len())];
                let value = EXTREMES[draws.below(EXTREMES.len())];
                (with_value(&json, key, nth, value).into_bytes(), None)
            }
            5 => {
                // Each axis at its limit, then just past it.
                let past = draws.below(2) == 1;
                let mut spec = example;
                match draws.below(4) {
                    0 => {
                        spec.grid.only_policy = Some("absorb".into());
                        spec.grid.mttf_factors = vec![2.0; MAX_CELLS + usize::from(past)];
                    }
                    1 => {
                        spec.grid.only_policy = Some("absorb".into());
                        spec.grid.mttf_factors = vec![2.0; MAX_CELLS];
                        spec.grid.runs = MAX_RUNS / MAX_CELLS + usize::from(past);
                    }
                    2 => spec.workload.procs = MAX_PROCS + usize::from(past),
                    _ => {
                        spec.workload.procs = MAX_PROCS;
                        spec.workload.tasks = MAX_TASK_PROCS / MAX_PROCS + usize::from(past);
                    }
                }
                (encode(&spec), Some(!past))
            }
            _ => {
                let bytes = (0..draws.below(512)).map(|_| draws.next() as u8).collect();
                (bytes, None)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile files arrive in `pending/` between claims. Every claim
        /// returns without a panic or an error; every claimed spec
        /// validates; every file a claim rejects is in `failed/` with its
        /// diagnostic.
        #[test]
        fn claims_admit_only_valid_specs(rounds in 1usize..6, seed in any::<u64>()) {
            let root = temp_root();
            let q = JobQueue::open(&root).unwrap();
            let mut draws = Draws(seed);
            let mut dropped = Vec::new();
            let mut claimed = Vec::new();
            for round in 0..=rounds {
                // The last round only drains.
                for k in 0..if round < rounds { 1 + draws.below(4) } else { 0 } {
                    let id = format!("r{round}-{k}");
                    let (body, admit) = spec_file(&mut draws);
                    fs::write(q.job_file(JobState::Pending, &id), body).unwrap();
                    dropped.push((id, admit));
                }
                loop {
                    let claim = q.claim();
                    prop_assert!(claim.is_ok(), "claim failed: {:?}", claim.err());
                    let Some(claim) = claim.unwrap() else { break };
                    prop_assert!(claim.spec.validate().is_ok(), "{} claimed invalid", claim.id);
                    claimed.push(claim.id);
                    if round < rounds {
                        break;
                    }
                }
            }
            for (id, admit) in &dropped {
                let is_claimed = claimed.contains(id);
                match q.state(id) {
                    Some(JobState::Running) => prop_assert!(is_claimed, "{id} running unclaimed"),
                    Some(JobState::Failed) => {
                        let diag = q.read_error(id).unwrap_or_default();
                        prop_assert!(!diag.trim().is_empty(), "{id} failed without a diagnostic");
                    }
                    other => prop_assert!(false, "{id} ended {other:?}"),
                }
                if let Some(admit) = admit {
                    prop_assert_eq!(is_claimed, *admit, "{}", id);
                }
            }
            fs::remove_dir_all(&root).ok();
        }
    }
}
