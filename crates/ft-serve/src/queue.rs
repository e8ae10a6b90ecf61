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
/// per worker; all state is on disk.
#[derive(Clone, Debug)]
pub struct JobQueue {
    root: PathBuf,
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
        Ok(JobQueue { root })
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
    /// error each other out of the loop. Returns `None` when nothing
    /// is pending.
    pub fn claim(&self) -> Result<Option<ClaimOutcome>, ServeError> {
        loop {
            let pending = self.sorted_entries(JobState::Pending)?;
            if pending.is_empty() {
                return Ok(None);
            }
            let mut in_flight: HashMap<String, usize> = HashMap::new();
            for id in self.sorted_entries(JobState::Running)? {
                if let Ok(spec) = self.read_spec(JobState::Running, &id) {
                    *in_flight.entry(spec.tenant).or_default() += 1;
                }
            }
            // Candidates in submission order, annotated with their
            // tenant's in-flight load; unreadable specs fail out here.
            let mut candidates: Vec<(usize, String)> = Vec::new();
            for id in pending {
                match self.read_spec(JobState::Pending, &id).and_then(|spec| {
                    spec.validate()
                        .map_err(|e| err(format!("invalid spec: {e}")))
                        .map(|()| spec)
                }) {
                    Ok(spec) => {
                        let load = in_flight.get(&spec.tenant).copied().unwrap_or(0);
                        candidates.push((load, id));
                    }
                    // The listing is a snapshot: a concurrent worker may
                    // have claimed (or failed) the file between readdir
                    // and read — not an error, just not ours to handle.
                    Err(e) if is_not_found(&e) => continue,
                    Err(e) => {
                        // Malformed submission: out of the poll loop's way,
                        // diagnostic preserved next to the raw file. Another
                        // worker racing the same broken file may win the
                        // rename; losing that race is fine too.
                        match self.fail(&id, JobState::Pending, &e.to_string()) {
                            Ok(()) => {}
                            Err(e) if is_not_found(&e) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
            candidates.sort_by_key(|a| a.0);
            for (_, id) in candidates {
                match fs::rename(
                    self.job_file(JobState::Pending, &id),
                    self.job_file(JobState::Running, &id),
                ) {
                    Ok(()) => {
                        let attempts = self.crash_count(&id) + 1;
                        let spec = self.read_spec(JobState::Running, &id)?;
                        return Ok(Some(ClaimOutcome { id, spec, attempts }));
                    }
                    // Raced by another worker (or the client cancelled the
                    // pending file away): rescan.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(e.into()),
                }
            }
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
        let path = self.job_file(state, id);
        // The head start reads a typical spec in one call, so the capped
        // read costs no more syscalls than `fs::read_to_string`.
        let mut bytes = Vec::with_capacity(8 << 10);
        fs::File::open(&path)?
            .take(MAX_SPEC_BYTES + 1)
            .read_to_end(&mut bytes)?;
        if bytes.len() as u64 > MAX_SPEC_BYTES {
            return Err(err(format!(
                "{} exceeds the {MAX_SPEC_BYTES}-byte spec size limit",
                path.display()
            )));
        }
        let parse_err = |e: &dyn fmt::Display| err(format!("parsing {}: {e}", path.display()));
        let text = String::from_utf8(bytes).map_err(|e| parse_err(&e))?;
        serde_json::from_str(&text).map_err(|e| parse_err(&e))
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
}
