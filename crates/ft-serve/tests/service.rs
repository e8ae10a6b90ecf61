//! End-to-end service tests: the daemon over a real directory tree.
//!
//! The headline pin is the ISSUE-8 acceptance criterion: for a fixed
//! `JobSpec`, the daemon's final merged `BatchSummary` (including
//! `MetricSet`) is **byte-identical** to the same grid executed directly
//! via `simulate_many` — regardless of delta-snapshot interval, worker
//! count, or cache hits.

use ft_experiments::DetectionKind;
use ft_serve::{
    read_deltas, read_deltas_from, read_final, request_stop, ArtifactCache, Daemon, JobQueue,
    JobSpec, JobState,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static NEXT: AtomicU32 = AtomicU32::new(0);

fn temp_root(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ft-serve-it-{tag}-{}-{n}", std::process::id()))
}

fn cells_json(cells: &[ft_serve::CellResult]) -> String {
    serde_json::to_string(cells).unwrap()
}

#[test]
fn daemon_final_record_is_byte_identical_to_direct_simulate_many() {
    // The determinism identity, across the three knobs the service adds:
    // delta interval, worker count, cache temperature.
    let spec = JobSpec::example("alice");
    let reference = cells_json(&spec.direct_cell_results());
    for (delta_every, workers) in [(0usize, 1usize), (1, 2), (7, 3), (1000, 2)] {
        let root = temp_root("identity");
        let queue = JobQueue::open(&root).unwrap();
        let mut job = spec.clone();
        job.delta_every = delta_every;
        let cold = queue.submit(Some("cold"), &job).unwrap();
        let warm = queue.submit(Some("warm"), &job).unwrap();
        Daemon::new(&root)
            .unwrap()
            .with_workers(workers)
            .run_until_idle()
            .unwrap();
        for id in [&cold, &warm] {
            assert_eq!(queue.state(id), Some(JobState::Done), "{id} must finish");
            let rec = read_final(&root, id).unwrap();
            assert_eq!(
                cells_json(&rec.cells),
                reference,
                "job {id} (delta_every={delta_every}, workers={workers}) \
                 diverged from direct simulate_many"
            );
        }
        // One of the two same-workload jobs must have resolved warm —
        // whichever ran second (worker scheduling decides which).
        let hits = [&cold, &warm]
            .iter()
            .filter(|id| read_final(&root, id).unwrap().cache.schedule_hit)
            .count();
        assert!(hits >= 1, "the repeat workload must hit the schedule cache");
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn deltas_stream_well_formed_partial_summaries() {
    let root = temp_root("deltas");
    let queue = JobQueue::open(&root).unwrap();
    let mut spec = JobSpec::example("tail");
    spec.delta_every = 16; // 40 runs/cell -> 3 snapshots per cell
    let id = queue.submit(None, &spec).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    let deltas = read_deltas(&root, &id).unwrap();
    let cells = spec.cells();
    assert_eq!(
        deltas.len(),
        cells.len() * spec.grid.runs.div_ceil(spec.delta_every),
        "every chunk of every cell snapshots once"
    );
    for d in &deltas {
        assert_eq!(d.job, id);
        assert_eq!(d.total_runs, spec.grid.runs);
        assert_eq!(
            d.summary.runs, d.completed_runs,
            "snapshot covers runs so far"
        );
        assert_eq!(d.label, cells[d.cell].label());
    }
    // The last snapshot of each cell is the cell's final summary.
    let rec = read_final(&root, &id).unwrap();
    for (idx, cell) in rec.cells.iter().enumerate() {
        let last = deltas.iter().rfind(|d| d.cell == idx).unwrap();
        assert_eq!(last.completed_runs, spec.grid.runs);
        assert_eq!(
            serde_json::to_string(&last.summary).unwrap(),
            serde_json::to_string(&cell.summary).unwrap(),
            "cell {idx}: final delta must equal the final record"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn incremental_delta_reads_reconstruct_the_full_stream() {
    // The `watch` tail loop reads by byte offset; incremental reads in
    // small steps must reconstruct exactly what a full read returns,
    // with monotone offsets and no record parsed twice.
    let root = temp_root("tail-offset");
    let queue = JobQueue::open(&root).unwrap();
    let mut spec = JobSpec::example("tail-offset");
    spec.delta_every = 1; // many-delta job: one snapshot per run per cell
    let id = queue.submit(None, &spec).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();

    let full = read_deltas(&root, &id).unwrap();
    assert_eq!(
        full.len(),
        spec.cells().len() * spec.grid.runs,
        "delta_every=1 must snapshot every run of every cell"
    );

    let mut incremental = Vec::new();
    let mut offset = 0u64;
    loop {
        let (batch, next) = read_deltas_from(&root, &id, offset).unwrap();
        if batch.is_empty() {
            assert_eq!(next, offset, "no new records must not move the offset");
            break;
        }
        assert!(next > offset, "consuming records must advance the offset");
        offset = next;
        incremental.extend(batch);
    }
    assert_eq!(
        serde_json::to_string(&incremental).unwrap(),
        serde_json::to_string(&full).unwrap(),
        "incremental tail reads must reconstruct the full delta stream"
    );
    // The final offset is the file size: nothing left unconsumed.
    let path = root.join("results").join(&id).join("deltas.jsonl");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(offset, bytes.len() as u64);
    // A mid-file resume (offset = end of the k-th line, as `watch` would
    // hold after k records) returns exactly the remaining records.
    let mid = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(2)
        .map(|(i, _)| i as u64 + 1)
        .unwrap();
    let (rest, end) = read_deltas_from(&root, &id, mid).unwrap();
    assert_eq!(end, bytes.len() as u64);
    assert_eq!(
        serde_json::to_string(&rest).unwrap(),
        serde_json::to_string(&full[3..]).unwrap(),
        "resuming after 3 records must return records 4.."
    );
    // Reading a missing file is a clean empty result at the same offset.
    let (none, same) = read_deltas_from(&root, "no-such-job", 7).unwrap();
    assert!(none.is_empty());
    assert_eq!(same, 7);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn delta_tail_reads_survive_a_line_cut_inside_a_character() {
    // A reader racing the daemon's append can see a line cut at any
    // byte. Cell labels carry `τ`, two bytes in UTF-8, so the cut can
    // fall between them: the complete line before it still parses, and
    // the cut line is returned whole once the rest of it lands.
    let root = temp_root("tail-utf8");
    let queue = JobQueue::open(&root).unwrap();
    let mut spec = JobSpec::example("tail-utf8");
    spec.delta_every = 1;
    let id = queue.submit(None, &spec).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    let full = read_deltas(&root, &id).unwrap();
    let bytes = std::fs::read(root.join("results").join(&id).join("deltas.jsonl")).unwrap();
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let tau = "τ".as_bytes();
    let has_tau = |line: &&[u8]| line.windows(2).any(|w| w == tau);
    let k = 1 + lines[1..]
        .iter()
        .position(has_tau)
        .expect("a checkpoint cell's delta");
    let cut = 1 + lines[k].windows(2).position(|w| w == tau).unwrap();

    let path = root.join("results/cut/deltas.jsonl");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, [lines[0], &lines[k][..cut]].concat()).unwrap();
    let (first, offset) = read_deltas_from(&root, "cut", 0).unwrap();
    assert_eq!(offset, lines[0].len() as u64);
    let json = |records: &[ft_serve::DeltaRecord]| serde_json::to_string(records).unwrap();
    assert_eq!(json(&first), json(&full[..1]));

    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    std::io::Write::write_all(&mut file, &lines[k][cut..]).unwrap();
    let (second, end) = read_deltas_from(&root, "cut", offset).unwrap();
    assert_eq!(end, (lines[0].len() + lines[k].len()) as u64);
    assert_eq!(json(&second), json(&full[k..k + 1]));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_daemon_job_is_recovered_and_completes() {
    let root = temp_root("recover");
    let queue = JobQueue::open(&root).unwrap();
    let spec = JobSpec::example("crashy");
    let id = queue.submit(None, &spec).unwrap();
    // Simulate a daemon dying mid-job: claim it, then never finish.
    let claimed = queue.claim().unwrap().unwrap();
    assert_eq!(claimed.id, id);
    assert_eq!(queue.state(&id), Some(JobState::Running));
    // A restarted daemon re-queues the orphan and completes it.
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state(&id), Some(JobState::Done));
    let rec = read_final(&root, &id).unwrap();
    assert_eq!(
        cells_json(&rec.cells),
        cells_json(&spec.direct_cell_results()),
        "the recovered execution is still byte-identical"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn twice_orphaned_job_fails_instead_of_crash_looping() {
    let root = temp_root("orphan2");
    let queue = JobQueue::open(&root).unwrap();
    let id = queue
        .submit(Some("cursed"), &JobSpec::example("t"))
        .unwrap();
    // Two claim-then-die cycles burn the single retry...
    assert_eq!(queue.claim().unwrap().unwrap().id, id);
    queue.recover().unwrap();
    assert_eq!(queue.claim().unwrap().unwrap().attempts, 2);
    let ok = queue
        .submit(Some("healthy"), &JobSpec::example("t"))
        .unwrap();
    // ...so the next daemon start fails it and still serves other jobs.
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state(&id), Some(JobState::Failed));
    assert!(queue.read_error(&id).unwrap().contains("not re-queueing"));
    assert_eq!(queue.state(&ok), Some(JobState::Done));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_spec_fails_with_diagnostic_and_queue_keeps_draining() {
    let root = temp_root("malformed");
    let queue = JobQueue::open(&root).unwrap();
    let good = queue.submit(None, &JobSpec::example("fine")).unwrap();
    // Two flavors of bad submission, written behind the CLI's back:
    // unparseable JSON and a well-formed spec that fails validation.
    std::fs::write(root.join("queue/pending/garbled.json"), "not json at all").unwrap();
    let mut invalid = JobSpec::example("empty");
    invalid.grid.mttf_factors.clear();
    std::fs::write(
        root.join("queue/pending/hollow.json"),
        serde_json::to_string(&invalid).unwrap(),
    )
    .unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state("garbled"), Some(JobState::Failed));
    assert!(queue
        .read_error("garbled")
        .unwrap()
        .contains("garbled.json"));
    assert_eq!(queue.state("hollow"), Some(JobState::Failed));
    assert!(queue.read_error("hollow").unwrap().contains("grid axes"));
    assert_eq!(
        queue.state(&good),
        Some(JobState::Done),
        "the good job drained"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deeply_nested_spec_fails_out_while_the_queue_keeps_draining() {
    // Hostile input: a spec nested far past the JSON parser's depth
    // limit. Unbounded recursion would overflow the claiming worker's
    // stack and abort the whole daemon; bounded, it is one more
    // malformed spec routed to failed/ with a diagnostic.
    let root = temp_root("deep");
    let queue = JobQueue::open(&root).unwrap();
    let depth = 20_000;
    let deep = format!(
        "{{\"tenant\":\"deep\",\"grid\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(root.join("queue/pending/abyss.json"), deep).unwrap();
    let good = queue.submit(None, &JobSpec::example("fine")).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state("abyss"), Some(JobState::Failed));
    let diag = queue.read_error("abyss").unwrap();
    assert!(diag.contains("nesting deeper than"), "diagnostic: {diag}");
    assert_eq!(
        queue.state(&good),
        Some(JobState::Done),
        "the next job drained"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn oversized_spec_fails_out_while_the_queue_keeps_draining() {
    // Hostile input: a valid spec padded with whitespace past the spec
    // size cap. Read whole, a big enough file would exhaust the daemon's
    // memory; capped, it fails out with a diagnostic naming the limit.
    let root = temp_root("huge");
    let queue = JobQueue::open(&root).unwrap();
    let spec = serde_json::to_string(&JobSpec::example("huge")).unwrap();
    let padded = format!("{spec}{}", " ".repeat(2 << 20));
    std::fs::write(root.join("queue/pending/bloat.json"), padded).unwrap();
    let good = queue.submit(None, &JobSpec::example("fine")).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state("bloat"), Some(JobState::Failed));
    let diag = queue.read_error("bloat").unwrap();
    assert!(diag.contains("spec size limit"), "diagnostic: {diag}");
    assert_eq!(
        queue.state(&good),
        Some(JobState::Done),
        "the next job drained"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unbuildable_workloads_fail_out_while_the_queue_keeps_draining() {
    // Hostile input: workloads whose build panics — fewer than ε + 1
    // processors, a zero granularity — or aborts the process: 2^20
    // processors ask for an 8 TiB delay table, an allocation the OS
    // refuses, and no unwind guard catches the abort. Grids fail the
    // same way: a zero checkpoint overhead panics in the roster's
    // adaptive-checkpoint constructor, three 1,000-entry axes ask for
    // 10⁹ cells, and a misspelt `only_policy` runs nothing. They must
    // fail at claim with a diagnostic; run, the first panic poisoned the
    // artifact cache and every later job failed with it.
    let root = temp_root("unbuildable");
    let queue = JobQueue::open(&root).unwrap();
    let mut few_procs = JobSpec::example("t");
    few_procs.workload.eps = few_procs.workload.procs;
    let mut flat = JobSpec::example("t");
    flat.workload.granularity = 0.0;
    let mut oversized = JobSpec::example("t");
    oversized.workload.procs = 1 << 20;
    let mut free_checkpoints = JobSpec::example("t");
    free_checkpoints.grid.checkpoint_overhead = 0.0;
    let mut huge_grid = JobSpec::example("t");
    huge_grid.grid.mttf_factors = vec![2.0; 1_000];
    huge_grid.grid.mttr_factors = vec![None; 1_000];
    huge_grid.grid.detections = vec![DetectionKind::Uniform; 1_000];
    let mut typo = JobSpec::example("t");
    typo.grid.only_policy = Some("rereplicate".into());
    // Finite factors that validate but overflow once scaled by the
    // workload's mean task cost or nominal latency: they fail after the
    // workload resolves, with a diagnostic, not a panic.
    let mut costly_checkpoints = JobSpec::example("t");
    costly_checkpoints.grid.checkpoint_overhead = 1e308;
    let mut endless_mttf = JobSpec::example("t");
    endless_mttf.grid.mttf_factors = vec![1e308];
    let mut endless_mttr = JobSpec::example("t");
    endless_mttr.grid.mttr_factors = vec![Some(1e308)];
    let mut instant_gossip = JobSpec::example("t");
    instant_gossip.grid.detections = vec![DetectionKind::Gossip];
    instant_gossip.grid.detection_latency = 0.0;
    let bad = [
        ("bad-eps", &few_procs, "workload.eps"),
        ("bad-granularity", &flat, "workload.granularity"),
        ("bad-procs", &oversized, "workload.procs"),
        (
            "bad-overhead",
            &free_checkpoints,
            "grid.checkpoint_overhead",
        ),
        ("bad-cells", &huge_grid, "cells"),
        ("bad-policy", &typo, "grid.only_policy"),
        (
            "bad-overhead-scaled",
            &costly_checkpoints,
            "grid.checkpoint_overhead",
        ),
        ("bad-mttf-scaled", &endless_mttf, "grid.mttf_factors"),
        ("bad-mttr-scaled", &endless_mttr, "grid.mttr_factors"),
        ("bad-gossip", &instant_gossip, "grid.detection_latency"),
    ];
    // Written straight into pending/ (submit would refuse them), ahead of
    // the valid job in claim order.
    for (id, spec, _) in bad {
        let json = serde_json::to_string(spec).unwrap();
        std::fs::write(root.join(format!("queue/pending/{id}.json")), json).unwrap();
    }
    // A workload seed written as an integral float past `u64::MAX` is a
    // parse error, not a seed saturated to `u64::MAX`.
    let mut huge_seed = JobSpec::example("t");
    huge_seed.workload.seed = 987_654_321;
    let json = serde_json::to_string(&huge_seed).unwrap();
    let json = json.replace("987654321", "1e300");
    std::fs::write(root.join("queue/pending/bad-seed.json"), json).unwrap();
    let good = queue
        .submit(Some("good"), &JobSpec::example("fine"))
        .unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(
        queue.state(&good),
        Some(JobState::Done),
        "the next job drained: {:?}",
        queue.read_error(&good)
    );
    for (id, _, field) in bad {
        assert_eq!(queue.state(id), Some(JobState::Failed), "{id}");
        let diag = queue.read_error(id).unwrap();
        assert!(
            diag.contains(field) && !diag.contains("panicked"),
            "{id}: {diag}"
        );
    }
    assert_eq!(queue.state("bad-seed"), Some(JobState::Failed));
    let diag = queue.read_error("bad-seed").unwrap();
    assert!(
        diag.contains("parsing") && diag.contains("1e300") && diag.contains("u64"),
        "bad-seed: {diag}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn racing_workers_over_malformed_specs_never_kill_the_pool() {
    // Regression (REVIEW PR8): several workers scan the same pending
    // snapshot; whoever loses the race to claim — or to fail a broken
    // spec — used to propagate NotFound out of claim() and die,
    // silently shrinking the pool. A pile of malformed files makes the
    // race windows wide; with the fix every outcome is tolerated and
    // run_until_idle stays Ok.
    let root = temp_root("races");
    let queue = JobQueue::open(&root).unwrap();
    let mut good = Vec::new();
    for k in 0..6 {
        std::fs::write(
            root.join(format!("queue/pending/broken-{k}.json")),
            "{ not json",
        )
        .unwrap();
        let mut spec = JobSpec::example("t");
        spec.grid.runs = 10;
        good.push(queue.submit(None, &spec).unwrap());
    }
    Daemon::new(&root)
        .unwrap()
        .with_workers(4)
        .run_until_idle()
        .unwrap();
    for k in 0..6 {
        let id = format!("broken-{k}");
        assert_eq!(queue.state(&id), Some(JobState::Failed), "{id}");
        assert!(queue.read_error(&id).is_some(), "{id} keeps a diagnostic");
    }
    for id in &good {
        assert_eq!(queue.state(id), Some(JobState::Done), "{id}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn second_daemon_on_a_served_root_is_refused() {
    // Regression (REVIEW PR8): without the root lock, a second daemon's
    // unconditional recover() would re-queue jobs the first daemon is
    // actively executing — duplicate execution, then a NotFound on the
    // first daemon's mark_done.
    let root = temp_root("lock");
    let queue = JobQueue::open(&root).unwrap();
    let held = queue.lock_daemon().unwrap();
    let refused = Daemon::new(&root).unwrap().run_until_idle();
    assert!(
        refused
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default()
            .contains("another daemon"),
        "a daemon must refuse a root whose lock is held"
    );
    drop(held);
    let id = queue.submit(None, &JobSpec::example("t")).unwrap();
    Daemon::new(&root).unwrap().run_until_idle().unwrap();
    assert_eq!(queue.state(&id), Some(JobState::Done));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cancellation_tombstone_interrupts_a_running_job() {
    let root = temp_root("cancel");
    let queue = JobQueue::open(&root).unwrap();
    // A long job with per-run snapshots: plenty of between-chunk
    // cancellation points.
    let mut spec = JobSpec::example("slow");
    spec.grid.runs = 5000;
    spec.delta_every = 5;
    let id = queue.submit(None, &spec).unwrap();
    let daemon_root = root.clone();
    let daemon = std::thread::spawn(move || {
        Daemon::new(&daemon_root)
            .unwrap()
            .with_workers(1)
            .with_poll(Duration::from_millis(10))
            .run()
            .unwrap();
    });
    // Wait for the first delta (the job is genuinely mid-flight), then
    // drop the tombstone.
    let deadline = Instant::now() + Duration::from_secs(60);
    while read_deltas(&root, &id).unwrap().is_empty() {
        assert!(Instant::now() < deadline, "no delta before the deadline");
        std::thread::sleep(Duration::from_millis(5));
    }
    queue.cancel(&id).unwrap();
    while queue.state(&id) != Some(JobState::Failed) {
        assert!(Instant::now() < deadline, "cancellation not honored");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(queue.read_error(&id).unwrap().contains("cancelled"));
    assert!(
        !root.join("results").join(&id).join("final.json").exists(),
        "a cancelled job must not publish a final record"
    );
    request_stop(&root).unwrap();
    daemon.join().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn shared_cache_across_daemon_turns_reports_warm_resolution() {
    // Two in-process daemon turns sharing one cache: the second turn's
    // job (same workload, different tenant) must resolve fully warm and
    // still produce identical bytes — cache hits add zero science.
    let cache = Arc::new(ArtifactCache::default());
    let spec_a = JobSpec::example("alice");
    let mut spec_b = JobSpec::example("bob");
    spec_b.grid.runs = 25; // different grid, same workload
    let root_a = temp_root("warm-a");
    let a = JobQueue::open(&root_a)
        .unwrap()
        .submit(None, &spec_a)
        .unwrap();
    Daemon::new(&root_a)
        .unwrap()
        .with_cache(cache.clone())
        .run_until_idle()
        .unwrap();
    assert!(!read_final(&root_a, &a).unwrap().cache.schedule_hit);
    let root_b = temp_root("warm-b");
    let b = JobQueue::open(&root_b)
        .unwrap()
        .submit(None, &spec_b)
        .unwrap();
    Daemon::new(&root_b)
        .unwrap()
        .with_cache(cache.clone())
        .run_until_idle()
        .unwrap();
    let rec = read_final(&root_b, &b).unwrap();
    assert!(rec.cache.instance_hit && rec.cache.schedule_hit);
    assert_eq!(
        cells_json(&rec.cells),
        cells_json(&spec_b.direct_cell_results())
    );
    let stats = cache.stats();
    assert_eq!(stats.schedule_misses, 1, "one cold build served both turns");
    std::fs::remove_dir_all(&root_a).ok();
    std::fs::remove_dir_all(&root_b).ok();
}

#[test]
fn multi_tenant_load_completes_every_job() {
    let root = temp_root("tenants");
    let queue = JobQueue::open(&root).unwrap();
    let mut ids = Vec::new();
    for tenant in ["alice", "bob", "carol"] {
        let mut spec = JobSpec::example(tenant);
        spec.grid.runs = 20;
        ids.push(queue.submit(None, &spec).unwrap());
        ids.push(queue.submit(None, &spec).unwrap());
    }
    Daemon::new(&root)
        .unwrap()
        .with_workers(3)
        .run_until_idle()
        .unwrap();
    for id in &ids {
        assert_eq!(queue.state(id), Some(JobState::Done), "{id}");
        assert!(read_final(&root, id).is_ok());
    }
    std::fs::remove_dir_all(&root).ok();
}
