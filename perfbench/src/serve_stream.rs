//! `serve-stream`: a burst campaign drained by an in-process one-worker
//! daemon while a client thread tails `results/`.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft_experiments::{SweepGrid, WorkloadSpec};
use ft_net::NetworkModel;
use ft_runtime::{ChunkedBatch, Contention, ScratchPool};
use ft_serve::{
    read_final, ArtifactCache, CacheStats, CellResult, Daemon, DeltaRecord, FinalRecord, JobQueue,
    JobSpec, JobState,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, mix};
use crate::trace::{self, Tracer};
use crate::{median_call_us, median_us, Args, EngineCounts, Report};

/// Jobs per campaign (fewer only below `--seconds 10`).
const JOBS: usize = 256;
/// Campaigns drained back to back at `--seconds 10`, each on its own
/// queue root by a fresh daemon.
const CAMPAIGNS: usize = 3;
const TENANTS: usize = 4;
const WORKLOADS: usize = 8;
/// The rotating `only_policy` of the jobs: every non-Reschedule policy.
const POLICIES: [&str; 5] = [
    "absorb",
    "re-replicate",
    "warm-spare",
    "checkpoint",
    "adaptive-checkpoint",
];
/// The client's poll interval while tailing `results/`.
const POLL: Duration = Duration::from_micros(100);

/// The campaign: `jobs` jobs from `TENANTS` tenants over `WORKLOADS`
/// distinct workloads. Workload sizes are stratified (25, 30, …, 60
/// tasks on 6–10 processors) and every workload gets the same share of
/// jobs in a seeded order, so a campaign's cost barely depends on the
/// seed.
fn campaign(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 21));
    let sizes = rand::seq::index::sample(&mut rng, WORKLOADS, WORKLOADS).into_vec();
    let workloads: Vec<WorkloadSpec> = (0..WORKLOADS)
        .map(|k| WorkloadSpec {
            tasks: 25 + 5 * sizes[k],
            procs: rng.gen_range(6..11usize),
            eps: 1,
            granularity: 1.0,
            seed: mix(seed, 100 + k as u64),
        })
        .collect();
    rand::seq::index::sample(&mut rng, jobs, jobs)
        .into_iter()
        .enumerate()
        .map(|(j, slot)| JobSpec {
            tenant: format!("tenant{}", j % TENANTS),
            workload: workloads[slot % WORKLOADS].clone(),
            grid: SweepGrid {
                mttf_factors: vec![8.0, 4.0, 2.0],
                mttr_factors: vec![None],
                checkpoint_intervals: vec![0.25],
                checkpoint_overhead: 0.005,
                only_policy: Some(POLICIES[j % POLICIES.len()].to_string()),
                runs: 64,
                seed: mix(seed, 1000 + j as u64),
                contention: Contention::Ideal,
                ..SweepGrid::default()
            },
            delta_every: 16,
        })
        .collect()
}

/// The id of job `j`: zero-padded so that ids sort in submission order.
/// The queue claims by submission time and then by id, and submission
/// times are as coarse as the file system's clock (4 ms here, ~50
/// submits), so these ids make every campaign drain in one fixed order.
fn job_id(j: usize, spec: &JobSpec) -> String {
    format!("{j:04}-{}", spec.tenant)
}

/// Opens a queue root and submits the campaign. Returns the set-up's
/// pieces in seconds: opening the root, then each submit.
fn submit_all(root: &Path, jobs: &[JobSpec]) -> Vec<f64> {
    let t = Instant::now();
    let queue = JobQueue::open(root).expect("open queue root");
    let mut pieces = vec![t.elapsed().as_secs_f64()];
    for (j, spec) in jobs.iter().enumerate() {
        let t = Instant::now();
        queue
            .submit(Some(&job_id(j, spec)), spec)
            .expect("submit a valid job");
        pieces.push(t.elapsed().as_secs_f64());
    }
    pieces
}

/// Tails `results/` until `jobs` final records appeared (or the drain
/// ended): each job's `final.json` appearance time since `t0`, in order.
fn tail(results: &Path, jobs: usize, t0: Instant, drained: &AtomicBool) -> Vec<(String, Duration)> {
    let mut known: HashSet<String> = HashSet::new();
    let mut open: Vec<String> = Vec::new();
    let mut seen = Vec::with_capacity(jobs);
    loop {
        let last = drained.load(Ordering::SeqCst);
        if open.is_empty() || last {
            for entry in fs::read_dir(results).into_iter().flatten().flatten() {
                let id = entry.file_name().to_string_lossy().into_owned();
                if known.insert(id.clone()) {
                    open.push(id);
                }
            }
            // Jobs found in one listing (the client fell behind) are
            // taken in id order, which is their claim order.
            open.sort();
        }
        open.retain(|id| {
            if results.join(id).join("final.json").exists() {
                seen.push((id.clone(), t0.elapsed()));
                false
            } else {
                true
            }
        });
        if last || seen.len() == jobs {
            return seen;
        }
        std::thread::sleep(POLL);
    }
}

/// One campaign's drain as the client saw it.
struct Drain {
    wall: Duration,
    /// Each job's `final.json` appearance since the drain started.
    seen: Vec<(String, Duration)>,
    stats: CacheStats,
}

/// Drains `root` with a fresh one-worker daemon (cold cache) while a
/// client thread tails its `results/`.
fn drain(root: &Path, jobs: usize, report: &mut Report) -> Drain {
    let daemon = Daemon::new(root).expect("open queue root").with_workers(1);
    let drained = AtomicBool::new(false);
    let results = root.join("results");
    let t0 = Instant::now();
    let (result, wall, seen) = std::thread::scope(|s| {
        let client = s.spawn(|| tail(&results, jobs, t0, &drained));
        let result = daemon.run_until_idle();
        let wall = t0.elapsed();
        drained.store(true, Ordering::SeqCst);
        (result, wall, client.join().expect("client thread"))
    });
    if let Err(e) = result {
        report.problem(format!("drain of {} failed: {e}", root.display()));
    }
    if seen.len() != jobs {
        report.problem(format!("client saw {} of {jobs} final records", seen.len()));
    }
    Drain {
        wall,
        seen,
        stats: daemon.cache().stats(),
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let campaigns = args.repeats(CAMPAIGNS);
    let n = args.ops(JOBS).max(2 * WORKLOADS);
    let jobs = campaign(args.seed, n);
    let ids: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(j, spec)| job_id(j, spec))
        .collect();
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos();
    let work = args.out_dir.join(format!("serve-{}-{started}", args.seed));

    // Untimed warm-up: a few jobs of another workload submitted and
    // drained through their own daemon and cache, so the measured
    // daemons' caches stay cold.
    let warm_root = work.join("warmup");
    let mut warm_job = jobs[0].clone();
    warm_job.workload.seed = mix(args.seed, 99);
    submit_all(&warm_root, &vec![warm_job; 4]);
    drain(&warm_root, 4, &mut report);

    // Per campaign, its set-up (a queue root plus the campaign's
    // submits) and then its timed drain. Each starts on flushed file
    // systems, so neither pays for the writeback of the files written
    // before it. The traced run also builds a twin root to replay on.
    let mut builds: Vec<Vec<f64>> = Vec::new();
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut drains: Vec<Drain> = Vec::new();
    for c in 0..campaigns + usize::from(args.trace) {
        settle();
        let root = work.join(format!("root{c}"));
        let pieces = submit_all(&root, &jobs);
        if c < campaigns {
            builds.push(pieces);
            settle();
            let d = drain(&root, n, &mut report);
            if !d.seen.iter().map(|(id, _)| id).eq(&ids) {
                report.problem(format!(
                    "campaign {c} drained in another order than submitted"
                ));
            }
            drains.push(d);
        }
        roots.push(root);
    }
    report.set("peak_rss_mb", stats::peak_rss_mb());
    // The fastest of the campaigns' identical set-ups, as for every op.
    let build_s: Vec<f64> = builds.iter().map(|b| b.iter().sum()).collect();
    let setup_s = build_s.iter().copied().fold(f64::INFINITY, f64::min);
    report.note(format!(
        "set-up builds (ms): {}",
        build_s
            .iter()
            .map(|s| format!("{:.2}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut submit_us: Vec<f64> = builds
        .iter()
        .flat_map(|b| b[1..].iter().map(|s| s * 1e6))
        .collect();
    // A job's service time is the interval before its final record
    // appeared, and its latency the fastest of its campaigns: the host's
    // speed drifts by tens of percent over seconds, the fastest of
    // identical jobs is what stays put. Every campaign drains in the same
    // order (checked above), so a job is the same work in each of them,
    // cache miss included.
    let mut best: BTreeMap<&str, f64> = BTreeMap::new();
    for d in &drains {
        let mut prev = Duration::ZERO;
        for (id, at) in &d.seen {
            let fastest = best.entry(id.as_str()).or_insert(f64::INFINITY);
            *fastest = fastest.min(stats::ms(*at - prev));
            prev = *at;
        }
    }
    let op_ms: Vec<f64> = best.into_values().collect();
    let busy_s = op_ms.iter().sum::<f64>() / 1e3;
    report.op_latency(op_ms);
    report.set("setup_s", setup_s);

    // Checks: every job done with cells ≡ direct simulate_many, one cache
    // miss per distinct workload.
    let direct: Vec<String> = jobs
        .iter()
        .map(|spec| cells_json(&spec.direct_cell_results()))
        .collect();
    let distinct = jobs
        .iter()
        .map(|j| j.workload.seed)
        .collect::<HashSet<u64>>()
        .len() as u64;
    let mut failed_jobs = 0;
    let mut runs = 0;
    for (root, d) in roots.iter().zip(&drains) {
        runs = 0;
        let queue = JobQueue::open(root).expect("open queue root");
        for (id, want) in ids.iter().zip(&direct) {
            report.attempted += 1;
            let ok = queue.state(id) == Some(JobState::Done)
                && read_final(root, id).is_ok_and(|record| {
                    runs += record.cells.iter().map(|c| c.summary.runs).sum::<usize>();
                    cells_json(&record.cells) == *want
                });
            if queue.state(id) == Some(JobState::Failed) {
                failed_jobs += 1;
            }
            if !ok {
                report.failed += 1;
            }
        }
        if d.stats.schedule_misses != distinct || d.stats.instance_misses != distinct {
            report.problem(format!(
                "{} schedule / {} instance cache misses for {distinct} distinct workloads",
                d.stats.schedule_misses, d.stats.instance_misses
            ));
        }
    }
    let wall: Duration = drains.iter().map(|d| d.wall).sum();
    report.note(format!(
        "{campaigns} campaigns x {n} jobs, drain times (s): {}",
        drains
            .iter()
            .map(|d| format!("{:.3}", d.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.set("runs_per_s", runs as f64 / busy_s);

    if args.trace {
        let first = &drains[0];
        report.set("ft-serve.queue.failed_jobs", f64::from(failed_jobs));
        report.set("ft-serve.queue.submit_us", stats::median(&mut submit_us));
        let cache = first.stats;
        report.set("ft-serve.cache.hits", cache.schedule_hits as f64);
        report.set("ft-serve.cache.misses", cache.schedule_misses as f64);
        report.set(
            "ft-serve.cache.hit_ratio",
            cache.schedule_hits as f64 / (cache.schedule_hits + cache.schedule_misses) as f64,
        );
        report.set("ft-algos.caft_calls", cache.schedule_misses as f64);
        // The drain's queue wait: job k is claimed once job k-1's final
        // record landed.
        let mut waits: Vec<f64> = std::iter::once(0.0)
            .chain(first.seen.iter().map(|(_, at)| stats::ms(*at)))
            .take(first.seen.len())
            .collect();
        report.set("ft-serve.queue.wait_ms_p50", stats::median(&mut waits));
        let order: Vec<&str> = first.seen.iter().map(|(id, _)| id.as_str()).collect();
        let (served, twin) = (&roots[0], &roots[campaigns]);
        // On a fresh thread, as the daemon runs its jobs on a worker.
        let untraced = wall / campaigns as u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                traced(
                    args,
                    &mut report,
                    &jobs,
                    &ids,
                    &order,
                    served,
                    twin,
                    untraced,
                )
            })
            .join()
            .expect("traced replay");
        });
    }
    if let Err(e) = empty_files(&work) {
        report.note(format!("could not empty {}: {e}", work.display()));
    }
    settle();
    report
}

/// Truncates every file under `dir` to zero bytes but keeps the files.
/// Deleting a run's ~9k queue files would free their inodes, and a
/// journal-less ext4 (the reference host's) skips inodes freed in the
/// last minute when it allocates new ones: right after a run that
/// removed its tree, the next run's set-up measured 4-20x slower (9 ms
/// vs 40-250 ms) and its drains 5-25 % slower. Emptied files hold no
/// data blocks.
fn empty_files(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            empty_files(&entry.path())?;
        } else {
            fs::OpenOptions::new()
                .write(true)
                .open(entry.path())?
                .set_len(0)?;
        }
    }
    Ok(())
}

/// Flushes the file systems (`sync`), so the writeback of the files
/// written before (the previous drain's results, the queue root just
/// submitted) is not paid inside the next set-up or drain.
fn settle() {
    let _ = std::process::Command::new("sync").status();
}

fn cells_json(cells: &[CellResult]) -> String {
    serde_json::to_string(cells).expect("cells serialize")
}

/// The traced replay: the daemon's loop (claim → resolve → chunked cells
/// with snapshots and delta lines → final record → mark done) through
/// the layers' public entry points, on the twin root, in the order the
/// daemon ran the jobs. Its files must equal the daemon's.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    report: &mut Report,
    jobs: &[JobSpec],
    ids: &[String],
    order: &[&str],
    served: &Path,
    twin_root: &Path,
    untraced: Duration,
) {
    let twin = JobQueue::open(twin_root).expect("open twin root");
    let spec_of: BTreeMap<&str, &JobSpec> = ids.iter().map(String::as_str).zip(jobs).collect();
    let cache = ArtifactCache::default();
    let mut tr = Tracer::default();
    let (mut hit_us, mut miss_ms) = (Vec::new(), Vec::new());
    let mut drift = 0;
    for (k, &id) in order.iter().enumerate() {
        let spec = spec_of[id];
        let op = tr.begin_op(k as u32, "job");
        let claimed = tr
            .leaf(trace::QUEUE, "claim", || twin.claim())
            .expect("claim on the twin root")
            .expect("a pending job on the twin root");
        if claimed.id != id {
            report.problem(format!(
                "the twin root claimed {} where the daemon ran {id}",
                claimed.id
            ));
            return;
        }
        let files = replay_job(&mut tr, &twin, &cache, id, spec, &mut hit_us, &mut miss_ms);
        tr.leaf(trace::QUEUE, "mark_done", || twin.mark_done(&claimed.id))
            .expect("mark done on the twin root");
        tr.end_op(op);
        for (name, bytes) in files {
            if fs::read(served.join("results").join(id).join(name)).ok() != Some(bytes) {
                drift += 1;
            }
        }
    }
    if drift > 0 {
        report.problem(format!(
            "{drift} replayed result files drifted from the daemon's"
        ));
    }
    report.set("ft-serve.queue.claim_us", median_us(&tr, "claim"));
    report.set(
        "ft-serve.queue.claim_ms_total",
        tr.durations_us("claim").iter().sum::<f64>() / 1e3,
    );
    report.set("ft-serve.cache.resolve_us_hit", stats::median(&mut hit_us));
    report.set(
        "ft-serve.cache.resolve_ms_miss",
        stats::median(&mut miss_ms),
    );
    report.set(
        "ft-runtime.scratch.plan_us",
        median_us(&tr, "ChunkedBatch::with_pool"),
    );
    report.set("ft-runtime.batch.snapshot_us", median_us(&tr, "snapshot"));
    report.set(
        "serde_json.delta_us",
        median_us(&tr, "to_string(DeltaRecord)"),
    );
    report.set(
        "serde_json.final_us",
        median_us(&tr, "to_string_pretty(FinalRecord)"),
    );
    let (mut deltas, mut bytes) = (0usize, 0usize);
    for id in ids {
        let text = fs::read_to_string(served.join("results").join(id).join("deltas.jsonl"))
            .unwrap_or_default();
        deltas += text.lines().count();
        bytes += text.len();
    }
    report.set("ft-serve.daemon.deltas", deltas as f64);
    report.set("ft-serve.daemon.delta_bytes", bytes as f64);

    // Inside `run_chunk`: every cell again as scenario draw → warm
    // Executor run → record, for the engine counts and per-call times.
    let mut aux = Tracer::default();
    let mut counts = EngineCounts::default();
    let mut distinct: Vec<&WorkloadSpec> = Vec::new();
    for (id, spec) in ids.iter().zip(jobs) {
        let resolved = cache.resolve(&spec.workload);
        let (inst, sched) = (&resolved.inst, &resolved.sched);
        let cells = spec.grid.cells(inst.mean_task_cost(), sched.latency());
        let record = read_final(served, id).expect("a served final record");
        for (cell, want) in cells.iter().zip(&record.cells) {
            let mc = cell.monte_carlo_config(inst, sched);
            let got = crate::mc_sweep::replay_cell(&mut aux, inst, sched, &mc, &mut counts);
            if serde_json::to_string(&got).ok() != serde_json::to_string(&want.summary).ok() {
                drift += 1;
            }
        }
        if !distinct.contains(&&spec.workload) {
            distinct.push(&spec.workload);
        }
    }
    if drift > 0 {
        report.problem("per-run replay drifted from the served summaries");
    }
    counts.report(report);
    report.set("ft-runtime.engine.run_us", median_us(&aux, "Executor::run"));
    report.set(
        "ft-runtime.lifetime.draw_us",
        median_us(&aux, "scenario_of_run"),
    );
    report.set("ft-runtime.batch.record_us", median_us(&aux, "record"));
    report.set(
        "ft-runtime.batch.finish_us",
        median_us(&aux, "finish_labeled"),
    );
    // What a cache miss builds, per distinct workload.
    let mut builds = Tracer::default();
    for w in &distinct {
        let inst = builds.leaf(trace::PLATFORM, "build_instance", || w.build_instance());
        builds.leaf(trace::ALGOS, "caft", || w.schedule(&inst));
    }
    report.set(
        "ft-platform.instance_ms",
        median_us(&builds, "build_instance") / 1e3,
    );
    report.set("ft-algos.caft_ms", median_us(&builds, "caft") / 1e3);
    let platform = &cache.resolve(distinct[0]).inst.platform;
    report.set(
        "ft-net.model_us",
        median_call_us(200, || NetworkModel::new(platform)),
    );
    report.layer_shares(&tr, &BTreeMap::new(), untraced.as_nanos() as u64);
    let path = args
        .out_dir
        .join(format!("spans-serve-stream-seed{}.jsonl", args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        report.problem(format!("writing {}: {e}", path.display()));
    }
}

/// One job as the daemon runs it, written under the twin root's
/// `results/<id>/`; returns the written files and their bytes.
fn replay_job(
    tr: &mut Tracer,
    queue: &JobQueue,
    cache: &ArtifactCache,
    id: &str,
    spec: &JobSpec,
    hit_us: &mut Vec<f64>,
    miss_ms: &mut Vec<f64>,
) -> Vec<(&'static str, Vec<u8>)> {
    tr.leaf(trace::QUEUE, "cancelled", || queue.cancelled(id));
    let span = tr.begin(trace::CACHE, "resolve");
    let resolved = cache.resolve(&spec.workload);
    tr.end(span);
    if resolved.outcome.schedule_hit {
        hit_us.push(tr.span_us(span));
    } else {
        miss_ms.push(tr.span_us(span) / 1e3);
    }
    let (inst, sched) = (&*resolved.inst, &*resolved.sched);
    let cells = spec.grid.cells(inst.mean_task_cost(), sched.latency());
    let dir: PathBuf = queue.results_dir(id);
    let mut deltas = tr
        .leaf(trace::DAEMON, "create results", || {
            fs::create_dir_all(&dir)?;
            fs::File::create(dir.join("deltas.jsonl"))
        })
        .expect("create the twin results dir");
    let pool = Arc::new(ScratchPool::new());
    let mut finished = Vec::with_capacity(cells.len());
    for (idx, cell) in cells.iter().enumerate() {
        let mc = cell.monte_carlo_config(inst, sched);
        let mut chunked = tr.leaf(trace::SCRATCH, "ChunkedBatch::with_pool", || {
            ChunkedBatch::with_pool(inst, sched, &mc, &mc.engine.policy, Arc::clone(&pool))
        });
        while !chunked.is_done() {
            tr.leaf(trace::QUEUE, "cancelled", || queue.cancelled(id));
            tr.leaf(trace::ENGINE, "run_chunk", || {
                chunked.run_chunk(spec.delta_every)
            });
            let summary = tr.leaf(trace::BATCH, "snapshot", || chunked.snapshot());
            let record = DeltaRecord {
                job: id.to_string(),
                cell: idx,
                label: cell.label(),
                completed_runs: chunked.completed_runs(),
                total_runs: mc.runs,
                summary,
            };
            let line = tr
                .leaf(trace::JSON, "to_string(DeltaRecord)", || {
                    serde_json::to_string(&record)
                })
                .expect("DeltaRecord serializes");
            tr.leaf(trace::DAEMON, "write delta", || {
                writeln!(deltas, "{line}")?;
                deltas.flush()
            })
            .expect("write a delta line");
        }
        let summary = tr.leaf(trace::BATCH, "finish", || chunked.finish());
        finished.push(CellResult {
            label: cell.label(),
            summary,
        });
    }
    let record = FinalRecord {
        job: id.to_string(),
        tenant: spec.tenant.clone(),
        cells: finished,
        cache: resolved.outcome,
    };
    let text = tr
        .leaf(trace::JSON, "to_string_pretty(FinalRecord)", || {
            serde_json::to_string_pretty(&record)
        })
        .expect("FinalRecord serializes");
    tr.leaf(trace::DAEMON, "write final", || {
        let tmp = dir.join("final.json.tmp");
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, dir.join("final.json"))
    })
    .expect("write the final record");
    let deltas_bytes = fs::read(dir.join("deltas.jsonl")).unwrap_or_default();
    vec![
        ("final.json", text.into_bytes()),
        ("deltas.jsonl", deltas_bytes),
    ]
}
