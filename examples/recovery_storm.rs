//! Recovery storms under link contention on a Beneš interconnect.
//!
//! Kills a correlated burst of processors at one instant mid-run and
//! compares the recovery policies on an ideal (contention-free) network
//! against the store-and-forward and fair-share link-sharing models —
//! the experiment behind `validation/VALIDATION_network.json`.
//!
//! ```text
//! cargo run --release --example recovery_storm
//! cargo run --release --example recovery_storm -- --contention fair-share
//! cargo run --release --example recovery_storm -- --runs 60 --granularity 0.2
//! ```
//!
//! With `--contention MODE` only that sharing model (plus the ideal
//! baseline) is swept; the output is deterministic for a given argument
//! list, which CI exploits by diffing two invocations.

use ftsched::experiments::cli::{or_exit, Flags};
use ftsched::experiments::{ranking_flips, render_storm, run_storm, StormConfig};
use ftsched::prelude::Contention;

const FLAGS: Flags = Flags(
    &[],
    &[
        "--runs",
        "--granularity",
        "--burst",
        "--detection-latency",
        "--eps",
        "--tasks",
        "--contention",
    ],
    0,
);

/// The sweep the command line asks for: the default storm with each
/// given knob replaced.
fn read_config() -> Result<StormConfig, String> {
    let args = FLAGS.parse(std::env::args().skip(1))?;
    let d = StormConfig::default();
    let bursts = args.parse_all("--burst", "an integer", |v| v.parse().ok())?;
    let mut cfg = StormConfig {
        runs: args.number("--runs")?.unwrap_or(d.runs),
        granularity: args.number("--granularity")?.unwrap_or(d.granularity),
        detection_latency: args
            .number("--detection-latency")?
            .unwrap_or(d.detection_latency),
        eps: args.number("--eps")?.unwrap_or(d.eps),
        tasks: args.number("--tasks")?.unwrap_or(d.tasks),
        ..d
    };
    if !bursts.is_empty() {
        cfg.burst_sizes = bursts;
    }
    let modes = "ideal, exclusive or fair-share";
    if let Some(mode) = args.parse("--contention", modes, Contention::parse)? {
        cfg.contentions = vec![Contention::Ideal, mode];
        cfg.contentions.dedup();
    }
    Ok(cfg)
}

fn main() {
    let cfg = or_exit("recovery_storm", read_config());
    let rows = run_storm(&cfg);
    print!("{}", render_storm(&cfg, &rows));
    let flips = ranking_flips(&rows);
    println!(
        "{} policy-ranking flip(s) induced by link contention",
        flips.len()
    );
}
