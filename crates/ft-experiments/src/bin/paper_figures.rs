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
//!                                   # saved / detection lag + counters)
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

use ft_experiments::degradation::{
    render_degradation, run_degradation, DegradationConfig, DetectionKind,
};
use ft_experiments::figures::{by_id, figure_configs};
use ft_experiments::messages::run_messages;
use ft_experiments::resilience_exp::run_resilience;
use ft_experiments::runner::{run_figure, FigureResult};
use ft_experiments::table::{render_figure, render_messages, render_resilience};
use ft_experiments::validate::{
    self, bless, committed_dir, load_family, render, save_family, validate_family, FAMILIES,
};
use ft_experiments::{render_isoclines, render_storm, run_grid, run_storm};

#[derive(serde::Serialize)]
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
fn run_validate(args: &[String], quick: bool) {
    let family_filter: Option<String> = args
        .iter()
        .position(|a| a == "--family")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(f) = &family_filter {
        if !FAMILIES.contains(&f.as_str()) {
            eprintln!(
                "unknown validation family '{f}' — expected one of {}",
                FAMILIES.join(", ")
            );
            std::process::exit(2);
        }
    }
    let do_bless = args.iter().any(|a| a == "--bless");
    let out_dir: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let dir = args
        .iter()
        .position(|a| a == "--records")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(committed_dir);
    let mut all_passed = true;
    for fam in FAMILIES
        .iter()
        .filter(|f| family_filter.as_deref().is_none_or(|ff| ff == **f))
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
        if let Some(out) = &out_dir {
            let out = std::path::Path::new(out);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().cloned().unwrap_or_else(|| "all".to_string());
    let quick = args.iter().any(|a| a == "--quick");
    let graphs: Option<usize> = args
        .iter()
        .position(|a| a == "--graphs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let json_path: Option<String> = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics_path: Option<String> = args
        .iter()
        .position(|a| a == "--metrics-json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let only_policy: Option<String> = args
        .iter()
        .position(|a| a == "--policy")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(p) = &only_policy {
        // A name is known iff it keeps a cell of the sweep's roster, the
        // rule `JobSpec::validate` applies to `grid.only_policy`.
        let sweep = |only_policy| DegradationConfig {
            only_policy,
            ..DegradationConfig::default()
        };
        if sweep(Some(p.clone())).grid().cell_count() == 0 {
            let roster = sweep(None).grid().roster(1.0, 1.0);
            let mut names: Vec<&str> = roster.iter().map(|r| r.name()).collect();
            names.dedup();
            eprintln!(
                "unknown policy '{p}' — expected one of {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
    let detection: Option<DetectionKind> = args.iter().position(|a| a == "--detection").map(|i| {
        let raw = args.get(i + 1).map(String::as_str).unwrap_or("");
        DetectionKind::parse(raw).unwrap_or_else(|| {
            eprintln!("unknown detection model '{raw}' — expected uniform, per-proc or gossip");
            std::process::exit(2);
        })
    });
    let parse_positive = |flag: &str, s: Option<&String>, allow_zero: bool| -> f64 {
        let raw = s.unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        });
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && (v > 0.0 || (allow_zero && v == 0.0)) => v,
            _ => {
                let bound = if allow_zero { "≥ 0" } else { "> 0" };
                eprintln!("bad {flag} value '{raw}' — expected a finite number {bound}");
                std::process::exit(2);
            }
        }
    };
    let ck_intervals: Vec<f64> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--ck-interval")
        .map(|(i, _)| parse_positive("--ck-interval", args.get(i + 1), false))
        .collect();
    let ck_overhead: Option<f64> = args
        .iter()
        .position(|a| a == "--ck-overhead")
        .map(|i| parse_positive("--ck-overhead", args.get(i + 1), true));
    let mttr: Option<f64> = args
        .iter()
        .position(|a| a == "--mttr")
        .map(|i| parse_positive("--mttr", args.get(i + 1), false));
    let transient = mttr.is_some() || args.iter().any(|a| a == "--transient");

    let tune = |mut cfg: ft_experiments::FigureConfig| {
        if quick {
            cfg = cfg.quick(10);
        }
        if let Some(g) = graphs {
            cfg.graphs_per_point = g;
        }
        cfg
    };

    let mut dump = Dump {
        figures: Vec::new(),
        messages: Vec::new(),
        resilience: Vec::new(),
        degradation: Vec::new(),
        storm: Vec::new(),
    };
    let msg_graphs = if quick { 5 } else { 20 };
    let res_graphs = if quick { 2 } else { 10 };
    let mut deg_cfg = DegradationConfig {
        runs: if quick { 60 } else { 400 },
        only_policy,
        ..DegradationConfig::default()
    };
    if !ck_intervals.is_empty() {
        deg_cfg.checkpoint_intervals = ck_intervals;
    }
    if let Some(ov) = ck_overhead {
        deg_cfg.checkpoint_overhead = ov;
    }
    if let Some(kind) = detection {
        deg_cfg.detection = kind;
    }
    if transient {
        deg_cfg.mttr_factor = Some(mttr.unwrap_or(0.25));
    }

    match what.as_str() {
        "all" => {
            for cfg in figure_configs() {
                let res = run_figure(&tune(cfg));
                println!("{}", render_figure(&res));
                dump.figures.push(res);
            }
            dump.messages = run_messages(msg_graphs, 0x5EED);
            println!("{}", render_messages(&dump.messages));
            dump.resilience = run_resilience(res_graphs, 0x5EED);
            println!("{}", render_resilience(&dump.resilience));
            dump.degradation = run_degradation(&deg_cfg);
            println!("{}", render_degradation(&deg_cfg, &dump.degradation));
        }
        "messages" => {
            dump.messages = run_messages(msg_graphs, 0x5EED);
            println!("{}", render_messages(&dump.messages));
        }
        "resilience" => {
            dump.resilience = run_resilience(res_graphs, 0x5EED);
            println!("{}", render_resilience(&dump.resilience));
        }
        "degradation" => {
            dump.degradation = run_degradation(&deg_cfg);
            println!("{}", render_degradation(&deg_cfg, &dump.degradation));
        }
        "storm" => {
            let storm_cfg = ft_experiments::validate::storm_config(quick);
            dump.storm = run_storm(&storm_cfg);
            println!("{}", render_storm(&storm_cfg, &dump.storm));
        }
        "validate" => {
            run_validate(&args, quick);
        }
        id => match by_id(id) {
            Some(cfg) => {
                let res = run_figure(&tune(cfg));
                println!("{}", render_figure(&res));
                dump.figures.push(res);
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}' — expected fig1..fig6, messages, \
                     resilience, degradation, storm, validate or all"
                );
                std::process::exit(2);
            }
        },
    }

    if let Some(path) = json_path {
        let txt = serde_json::to_string_pretty(&dump).expect("serializable results");
        std::fs::write(&path, txt).expect("writable json path");
        eprintln!("wrote {path}");
    }

    // The observability dump: one record per Monte-Carlo cell with the
    // mergeable metric histograms (byte-identical at any thread count).
    if let Some(path) = metrics_path {
        use serde::{Serialize, Value};
        if dump.degradation.is_empty() {
            eprintln!("--metrics-json: no Monte-Carlo cells were run (use `degradation` or `all`)");
        }
        let records: Vec<Value> = dump
            .degradation
            .iter()
            .map(|row| {
                Value::Map(vec![
                    (
                        "policy".to_string(),
                        Value::Str(row.summary.policy_label.clone()),
                    ),
                    ("mttf_factor".to_string(), Value::Float(row.mttf_factor)),
                    ("runs".to_string(), Value::UInt(row.summary.runs as u64)),
                    ("metrics".to_string(), row.summary.metrics.to_value()),
                ])
            })
            .collect();
        let txt = serde_json::to_string_pretty(&Value::Seq(records)).expect("serializable metrics");
        std::fs::write(&path, txt).expect("writable metrics path");
        eprintln!("wrote {path}");
    }
}
