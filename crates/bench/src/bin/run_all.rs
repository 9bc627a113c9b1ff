//! Regenerates every table and figure, printing both text and the markdown
//! blocks recorded in EXPERIMENTS.md. Pass `--quick` for a fast pass, or
//! `--only <figures>` with a comma-separated list (e.g. `--only
//! fig11,fig12`) to run a subset: each selected figure then writes its own
//! `BENCH_results.<figure>.json`, so a partial run never clobbers the
//! committed full baseline.

use elsm_bench::figures::*;
use elsm_bench::{opts_from_args, results, telemetry, FigOpts, Scale};
use ycsb::Table;

type FigureFn = fn(&Scale, FigOpts) -> Table;

/// Every figure, in sweep order.
const FIGURES: &[(&str, FigureFn)] = &[
    ("table1", table1),
    ("fig2", fig2),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig6c", fig6c),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig7", fig7),
    ("fig8", fig8),
    ("ablation_proofs", ablation_proofs),
    ("ablation_bloom", ablation_bloom),
    ("ablation_update_in_place", ablation_update_in_place),
    ("ablation_rollback", ablation_rollback),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig14", fig14),
];

fn main() {
    let scale = Scale::default();
    let opts = opts_from_args();
    let markdown = std::env::args().any(|a| a == "--markdown");
    let usage_and_exit = |problem: &str| -> ! {
        eprintln!("{problem}; available figures:");
        for (n, _) in FIGURES {
            eprintln!("  {n}");
        }
        std::process::exit(2);
    };
    // `--only <list>` or `--only=<list>` with a comma-separated figure
    // list. Parsing is strict: a valueless flag, an empty element
    // (`fig11,,fig12`, a trailing comma) or an unknown name is an error —
    // never a silent fall-through to the full sweep.
    let mut only_arg: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--only" {
            match args.next() {
                Some(value) if !value.starts_with('-') => only_arg = Some(value),
                _ => usage_and_exit("--only requires a figure list"),
            }
        } else if let Some(value) = arg.strip_prefix("--only=") {
            only_arg = Some(value.to_string());
        }
    }
    let only: Option<Vec<&str>> = only_arg.as_deref().map(|list| {
        for name in list.split(',') {
            if name.is_empty() {
                usage_and_exit(&format!("empty figure name in `--only {list}`"));
            }
            if !FIGURES.iter().any(|(n, _)| *n == name) {
                usage_and_exit(&format!("unknown figure `{name}`"));
            }
        }
        list.split(',').collect()
    });
    let mode = if opts.quick { "smoke" } else { "full" };
    // Telemetry rotates per figure: each gets its own registry and its own
    // TELEMETRY.<figure>.json snapshot and TRACES.<figure>.json dump.
    for (name, figure) in FIGURES {
        if only.as_ref().is_some_and(|names| !names.contains(name)) {
            continue;
        }
        let start = results::len();
        telemetry::begin_figure();
        let table = figure(&scale, opts);
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
            println!();
        }
        // A subset: one output file per selected figure, holding exactly
        // that figure's entries.
        if only.is_some() {
            results::write_results(&format!("BENCH_results.{name}.json"), mode, start);
        }
        telemetry::write_snapshot(name);
        telemetry::write_traces(name);
    }
    // Only the full sweep owns the committed baseline.
    if only.is_none() {
        results::write_results("BENCH_results.json", mode, 0);
    }
}
