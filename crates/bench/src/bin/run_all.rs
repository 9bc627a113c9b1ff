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

/// The figures `--only <list>` / `--only=<list>` selects (a
/// comma-separated list), `None` without the flag. Parsing is strict: a
/// valueless flag, an empty element (`fig11,,fig12`, a trailing comma) or
/// an unknown name is an error — never a silent fall-through to the full
/// sweep.
fn parse_only(args: &[String]) -> Result<Option<Vec<&str>>, String> {
    let mut list: Option<&str> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--only" {
            match args.next() {
                Some(value) if !value.starts_with('-') => list = Some(value),
                _ => return Err("--only requires a figure list".into()),
            }
        } else if let Some(value) = arg.strip_prefix("--only=") {
            list = Some(value);
        }
    }
    let Some(list) = list else { return Ok(None) };
    for name in list.split(',') {
        if name.is_empty() {
            return Err(format!("empty figure name in `--only {list}`"));
        }
        if !FIGURES.iter().any(|(n, _)| *n == name) {
            return Err(format!("unknown figure `{name}`"));
        }
    }
    Ok(Some(list.split(',').collect()))
}

fn main() {
    let scale = Scale::default();
    let opts = opts_from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let only = parse_only(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}; available figures:");
        for (n, _) in FIGURES {
            eprintln!("  {n}");
        }
        std::process::exit(2);
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
        telemetry::write_dumps(name);
    }
    // Only the full sweep owns the committed baseline.
    if only.is_none() {
        results::write_results("BENCH_results.json", mode, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_only;

    fn parse(args: &[&str]) -> Result<Option<Vec<String>>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_only(&args)
            .map(|only| only.map(|names| names.iter().map(|n| n.to_string()).collect()))
    }

    #[test]
    fn only_selects_a_strict_figure_list() {
        assert_eq!(parse(&["--smoke", "--markdown"]), Ok(None));
        let two = Ok(Some(vec!["fig11".to_string(), "fig12".to_string()]));
        assert_eq!(parse(&["--smoke", "--only", "fig11,fig12"]), two);
        assert_eq!(parse(&["--only=fig11,fig12", "--quick"]), two);
        for bad in [
            &["--only"][..],
            &["--only", "--smoke"],
            &["--only", "fig11,,fig12"],
            &["--only=fig11,"],
            &["--only", "fig99"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
