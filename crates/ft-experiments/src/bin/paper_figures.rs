//! `paper-figures` — regenerate the paper's evaluation from the command
//! line.
//!
//! ```text
//! paper-figures all                 # figures 1-6 + messages + resilience
//! paper-figures fig3                # one figure
//! paper-figures messages            # Prop. 5.1 message counts
//! paper-figures resilience          # Prop. 5.2 failure injection
//! paper-figures degradation         # online runtime: completion vs MTTF
//! paper-figures degradation --policy checkpoint   # one policy only
//! paper-figures degradation --policy adaptive-checkpoint  # Young/Daly
//!                                   # per-rate intervals (and warm-spare
//!                                   # via --policy warm-spare)
//! paper-figures degradation --detection gossip    # detection-model axis
//!                                   # (uniform | per-proc | gossip)
//! paper-figures degradation --ck-interval 0.25 --ck-interval 1 \
//!               --ck-overhead 0.005 # checkpoint sweep knobs (× mean task cost)
//! paper-figures degradation --transient            # rebooting processors
//!                                   # (exp repairs, MTTR 0.25 × nominal)
//! paper-figures degradation --mttr 0.5             # …with an explicit MTTR
//!                                   # (× nominal latency; implies --transient)
//! paper-figures storm               # recovery storms under link contention
//!                                   # (Beneš interconnect; the `network`
//!                                   # validation family's experiment)
//! paper-figures fig1 --quick        # thinned sweep, 10 graphs/point
//! paper-figures fig1 --graphs 20    # override graphs per point
//! paper-figures all --json out.json # machine-readable dump
//! paper-figures degradation --metrics-json metrics.json
//!                                   # per-cell mergeable metric histograms
//!                                   # (latency / slowdown / work lost &
//!                                   # saved / detection lag + counters;
//!                                   # `storm` cells add the link counters)
//! paper-figures validate --quick    # evaluate every committed
//!                                   # VALIDATION_<family>.json (exit 1 on
//!                                   # any FAILED claim or missing record)
//! paper-figures validate --family grid --quick     # one family
//! paper-figures validate --quick --bless           # re-target the records
//! paper-figures validate --quick --out dir/        # write refreshed
//!                                   # records elsewhere (CI artifacts)
//! paper-figures validate --records validation/full # full-resolution lane:
//!                                   # load + bless records under a
//!                                   # different directory
//! ```
//!
//! A command line that [`ft_experiments::cli`] misreads exits with code
//! 2 before anything runs.

use ft_experiments::cli::{or_exit, positive, Args, Flags};
use ft_experiments::degradation::{
    render_degradation, run_degradation, DegradationConfig, DetectionKind,
};
use ft_experiments::figures::{by_id, figure_configs};
use ft_experiments::messages::run_messages;
use ft_experiments::resilience_exp::run_resilience;
use ft_experiments::runner::{run_figure, FigureResult};
use ft_experiments::stats::metrics_record;
use ft_experiments::table::{render_figure, render_messages, render_resilience};
use ft_experiments::validate::{
    self, bless, committed_dir, load_family, render, save_family, validate_family, FAMILIES,
};
use ft_experiments::{render_isoclines, render_storm, run_grid, run_storm};
use serde::Value;

const FLAGS: Flags = Flags(
    &["--quick", "--transient", "--bless"],
    &[
        "--graphs",
        "--json",
        "--metrics-json",
        "--policy",
        "--detection",
        "--ck-interval",
        "--ck-overhead",
        "--mttr",
        "--family",
        "--out",
        "--records",
    ],
    1,
);

#[derive(Default, serde::Serialize)]
struct Dump {
    figures: Vec<FigureResult>,
    messages: Vec<ft_experiments::messages::MessageRow>,
    resilience: Vec<ft_experiments::resilience_exp::ResilienceRow>,
    degradation: Vec<ft_experiments::degradation::DegradationRow>,
    storm: Vec<ft_experiments::StormRow>,
}

/// The `validate` subcommand: evaluate each family's committed
/// `VALIDATION_<family>.json`, print the claim tables (plus the
/// completion isoclines for the grid), optionally re-target the records
/// (`--bless`) or write the refreshed records elsewhere (`--out`, the CI
/// artifact path), and exit 1 when any claim FAILED or a family has no
/// committed record (unless `--bless` is creating it).
///
/// `--records DIR` points both loading and blessing at a different
/// record set — the full-resolution lane keeps its records under
/// `validation/full/` so the quick (tier-1) and full (weekly) lanes
/// never overwrite each other's targets.
fn run_validate(args: &Args, quick: bool, family_filter: Option<&str>) {
    let do_bless = args.has("--bless");
    let out_dir = args.value("--out").map(std::path::Path::new);
    let dir = args
        .value("--records")
        .map_or_else(committed_dir, std::path::PathBuf::from);
    let mut all_passed = true;
    for fam in FAMILIES
        .iter()
        .filter(|f| family_filter.is_none_or(|ff| ff == **f))
    {
        let committed = load_family(&dir, fam);
        match &committed {
            None if do_bless => {
                eprintln!("note: no committed record for '{fam}' yet; blessing one")
            }
            None => {
                eprintln!(
                    "error: no committed record for '{fam}' in {} (run with --bless to create one)",
                    dir.display()
                );
                all_passed = false;
            }
            Some(c) if c.quick != quick => eprintln!(
                "warning: committed '{fam}' record holds {} targets but this run uses {} \
                 dimensions — errors reflect the dimension change, not a regression",
                if c.quick { "quick" } else { "full" },
                if quick { "quick" } else { "full" },
            ),
            Some(_) => {}
        }
        let record = if *fam == "grid" {
            let res = run_grid(&validate::grid_config(quick));
            println!("{}", render_isoclines(&res));
            validate::validate_grid_result(&res, quick, committed.as_ref())
        } else {
            validate_family(fam, quick, committed.as_ref())
        };
        let record = if do_bless { bless(record) } else { record };
        println!("{}", render(&record));
        if do_bless {
            save_family(&dir, &record).expect("writable validation directory");
            eprintln!("blessed {}", validate::family_path(&dir, fam).display());
        }
        if let Some(out) = out_dir {
            save_family(out, &record).expect("writable --out directory");
            eprintln!("wrote {}", validate::family_path(out, fam).display());
        }
        all_passed &= record.passed();
    }
    if !all_passed {
        eprintln!("validation FAILED — see the claim tables and errors above");
        std::process::exit(1);
    }
}

fn main() {
    or_exit(
        "paper-figures",
        FLAGS.parse(std::env::args().skip(1)).and_then(|a| run(&a)),
    );
}

fn run(args: &Args) -> Result<(), String> {
    let what = args.positional(0).unwrap_or("all");
    let quick = args.has("--quick");
    let graphs = args.parse("--graphs", "a positive integer", |v| {
        v.parse().ok().filter(|&g: &usize| g > 0)
    })?;
    // A name is known iff it names a policy of the sweep's roster, the
    // rule `JobSpec::validate` applies to `grid.only_policy`.
    let d = DegradationConfig::default();
    let roster = d.grid().roster(1.0, 1.0);
    let mut names: Vec<&str> = roster.iter().map(|r| r.name()).collect();
    names.dedup();
    let only_policy = args.parse("--policy", &format!("one of {}", names.join(", ")), |p| {
        names.contains(&p).then(|| p.to_string())
    })?;
    let models = "uniform, per-proc or gossip";
    let detection = args.parse("--detection", models, DetectionKind::parse)?;
    let ck_intervals = args.parse_all("--ck-interval", "a finite number > 0", positive(false))?;
    let ck_overhead = args.parse("--ck-overhead", "a finite number ≥ 0", positive(true))?;
    let mttr = args.parse("--mttr", "a finite number > 0", positive(false))?;
    let family = args.parse(
        "--family",
        &format!("one of {}", FAMILIES.join(", ")),
        |f| FAMILIES.iter().copied().find(|&fam| fam == f),
    )?;
    let figures = match what {
        "all" => figure_configs(),
        "messages" | "resilience" | "degradation" | "storm" | "validate" => Vec::new(),
        id => vec![by_id(id).ok_or_else(|| {
            format!(
                "unknown experiment '{id}' — expected fig1..fig6, messages, \
                 resilience, degradation, storm, validate or all"
            )
        })?],
    };

    let deg_cfg = DegradationConfig {
        runs: if quick { 60 } else { 400 },
        only_policy,
        detection: detection.unwrap_or(d.detection),
        checkpoint_overhead: ck_overhead.unwrap_or(d.checkpoint_overhead),
        mttr_factor: mttr.or(args.has("--transient").then_some(0.25)),
        checkpoint_intervals: if ck_intervals.is_empty() {
            d.checkpoint_intervals
        } else {
            ck_intervals
        },
        ..d
    };
    let all = what == "all";
    let mut dump = Dump::default();
    for cfg in figures {
        let mut cfg = if quick { cfg.quick(10) } else { cfg };
        cfg.graphs_per_point = graphs.unwrap_or(cfg.graphs_per_point);
        let res = run_figure(&cfg);
        println!("{}", render_figure(&res));
        dump.figures.push(res);
    }
    if all || what == "messages" {
        dump.messages = run_messages(if quick { 5 } else { 20 }, 0x5EED);
        println!("{}", render_messages(&dump.messages));
    }
    if all || what == "resilience" {
        dump.resilience = run_resilience(if quick { 2 } else { 10 }, 0x5EED);
        println!("{}", render_resilience(&dump.resilience));
    }
    if all || what == "degradation" {
        dump.degradation = run_degradation(&deg_cfg);
        println!("{}", render_degradation(&deg_cfg, &dump.degradation));
    }
    if what == "storm" {
        let storm_cfg = ft_experiments::validate::storm_config(quick);
        dump.storm = run_storm(&storm_cfg);
        println!("{}", render_storm(&storm_cfg, &dump.storm));
    }
    if what == "validate" {
        run_validate(args, quick, family);
    }

    if let Some(path) = args.value("--json") {
        let txt = serde_json::to_string_pretty(&dump).expect("serializable results");
        std::fs::write(path, txt).expect("writable json path");
        eprintln!("wrote {path}");
    }

    // The observability dump: one record per Monte-Carlo cell with the
    // mergeable metric histograms (byte-identical at any thread count).
    if let Some(path) = args.value("--metrics-json") {
        if dump.degradation.is_empty() && dump.storm.is_empty() {
            eprintln!(
                "--metrics-json: no Monte-Carlo cells were run (use `degradation`, `storm` or `all`)"
            );
        }
        let records: Vec<Value> = dump
            .degradation
            .iter()
            .map(|row| {
                metrics_record(
                    &row.summary,
                    vec![("mttf_factor", Value::Float(row.mttf_factor))],
                )
            })
            .chain(dump.storm.iter().map(|row| {
                let burst = Value::UInt(row.burst as u64);
                let contention = Value::Str(row.contention.name().to_string());
                metrics_record(
                    &row.summary,
                    vec![("burst", burst), ("contention", contention)],
                )
            }))
            .collect();
        let txt = serde_json::to_string_pretty(&Value::Seq(records)).expect("serializable metrics");
        std::fs::write(path, txt).expect("writable metrics path");
        eprintln!("wrote {path}");
    }
    Ok(())
}
