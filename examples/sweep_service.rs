//! Sweep-service drill: the engine as a multi-tenant daemon, in-process.
//!
//! Two tenants submit jobs over the **same workload** to a file-based
//! queue; one in-process daemon turn drains it through the shared
//! artifact cache. The drill prints the streamed deltas of the first
//! job, the final records, and the cache counters — and asserts the
//! service invariants: the warm job skipped scheduling, and both final
//! records are byte-identical to running the grid directly through
//! `simulate_many` (the service adds zero science).
//!
//! Run with `cargo run --release --example sweep_service`.
//! Pass `--root DIR` to keep (and inspect) the queue tree afterwards.

use ftsched::experiments::cli::{or_exit, Flags};
use ftsched::prelude::*;
use ftsched::serve::{read_deltas, read_final};

const FLAGS: Flags = Flags(&[], &["--root"], 0);

fn main() {
    let args = or_exit("sweep_service", FLAGS.parse(std::env::args().skip(1)));
    let keep_root = args.value("--root").map(std::path::PathBuf::from);
    let root = keep_root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ft-serve-example-{}", std::process::id()))
    });

    // Two tenants, one workload: bob's job should resolve warm.
    let queue = JobQueue::open(&root).expect("open queue");
    let mut alice = JobSpec::example("alice");
    alice.delta_every = 16;
    let mut bob = JobSpec::example("bob");
    bob.grid.runs = 25; // different grid over the same workload
    let a = queue.submit(None, &alice).expect("submit alice");
    let b = queue.submit(None, &bob).expect("submit bob");
    println!("submitted {a} and {b} under {}", root.display());

    // One worker: jobs run in submission order, so bob's resolution is
    // deterministically the warm one (with more workers the *pair* still
    // builds once, but which job pays the build is a race).
    let daemon = Daemon::new(&root).expect("open daemon").with_workers(1);
    daemon.run_until_idle().expect("drain the queue");

    println!("\nstreamed deltas of {a} (first and last 3):");
    let deltas = read_deltas(&root, &a).expect("deltas");
    for d in deltas
        .iter()
        .take(3)
        .chain(deltas.iter().rev().take(3).rev())
    {
        println!(
            "  cell {:>2} [{}]  {:>3}/{} runs  completion {:>5.1}%",
            d.cell,
            d.label,
            d.completed_runs,
            d.total_runs,
            d.summary.completion_rate() * 100.0
        );
    }

    for id in [&a, &b] {
        let rec = read_final(&root, id).expect("final record");
        let warm = |hit| if hit { "warm" } else { "cold" };
        println!(
            "\n{id}: {} cells (instance {}, schedule {})",
            rec.cells.len(),
            warm(rec.cache.instance_hit),
            warm(rec.cache.schedule_hit),
        );
        for cell in rec.cells.iter().take(4) {
            println!(
                "  {:<44} completion {:>5.1}%  mean slowdown {:.3}",
                cell.label,
                cell.summary.completion_rate() * 100.0,
                cell.summary.mean_slowdown
            );
        }
    }

    // The service invariants the CI acceptance drill also checks.
    let warm = read_final(&root, &b).expect("final record");
    assert!(
        warm.cache.instance_hit && warm.cache.schedule_hit,
        "bob's job shares alice's workload and must resolve warm"
    );
    for (id, spec) in [(&a, &alice), (&b, &bob)] {
        let direct = spec.direct_cell_results();
        let served = read_final(&root, id).expect("final record").cells;
        assert_eq!(
            serde_json::to_string(&served).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "{id}: the daemon must add zero science"
        );
    }
    let stats = daemon.cache().stats();
    println!(
        "\ncache: instances {} hit / {} miss, schedules {} hit / {} miss",
        stats.instance_hits, stats.instance_misses, stats.schedule_hits, stats.schedule_misses
    );
    println!("service identity holds: daemon output byte-identical to simulate_many");

    if keep_root.is_none() {
        std::fs::remove_dir_all(&root).ok();
    }
}
