//! Regenerates every table and figure, printing both text and the markdown
//! blocks recorded in EXPERIMENTS.md. Pass `--quick` for a fast pass, or
//! `--only <figures>` with a comma-separated list (e.g. `--only
//! fig11,fig12`) to run a subset: each selected figure then writes its own
//! `BENCH_results.<figure>.json`, so a partial run never clobbers the
//! committed full baseline. Any other argument is refused with the usage
//! and exit code 2.

use elsm_bench::figures::*;
use elsm_bench::{results, telemetry, FigOpts, Scale};
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

const USAGE: &str = "usage: run_all [--quick | --smoke | --full] [--markdown] [--only <figures>]";

/// What `run_all`'s command line asks for.
struct Args<'a> {
    /// `--quick` (or its alias `--smoke`) selects the reduced sweep CI
    /// runs; `--full`, the default, regenerates the recorded figures. The
    /// last of them wins.
    quick: bool,
    /// `--markdown` prints each table as markdown instead of aligned text.
    markdown: bool,
    /// The figures `--only <list>` / `--only=<list>` selects (a
    /// comma-separated list), `None` without the flag.
    only: Option<Vec<&'a str>>,
}

/// Parses `run_all`'s flags. Parsing is strict: an unknown flag or
/// argument, a valueless `--only`, an empty element (`fig11,,fig12`, a
/// trailing comma) or an unknown figure name is an error — never a silent
/// fall-through to the full sweep.
fn parse_args(args: &[String]) -> Result<Args<'_>, String> {
    let mut parsed = Args { quick: false, markdown: false, only: None };
    let mut list: Option<&str> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--smoke" => parsed.quick = true,
            "--full" => parsed.quick = false,
            "--markdown" => parsed.markdown = true,
            "--only" => match args.next() {
                Some(value) if !value.starts_with('-') => list = Some(value),
                _ => return Err("--only requires a figure list".into()),
            },
            _ => match arg.strip_prefix("--only=") {
                Some(value) => list = Some(value),
                None => return Err(format!("unknown argument `{arg}`")),
            },
        }
    }
    if let Some(list) = list {
        for name in list.split(',') {
            if name.is_empty() {
                return Err(format!("empty figure name in `--only {list}`"));
            }
            if !FIGURES.iter().any(|(n, _)| *n == name) {
                return Err(format!("unknown figure `{name}`"));
            }
        }
        parsed.only = Some(list.split(',').collect());
    }
    Ok(parsed)
}

fn main() {
    let scale = Scale::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { quick, markdown, only } = parse_args(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}\n{USAGE}\navailable figures:");
        for (n, _) in FIGURES {
            eprintln!("  {n}");
        }
        std::process::exit(2);
    });
    let opts = FigOpts { quick };
    let mode = if quick { "smoke" } else { "full" };
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
    use super::parse_args;

    /// `(quick, markdown, only)` as `parse_args` reads `args`.
    type Parsed = (bool, bool, Option<Vec<String>>);

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|a| {
            (a.quick, a.markdown, a.only.map(|names| names.iter().map(|n| n.to_string()).collect()))
        })
    }

    #[test]
    fn only_selects_a_strict_figure_list() {
        assert_eq!(parse(&["--smoke", "--markdown"]), Ok((true, true, None)));
        let two = Some(vec!["fig11".to_string(), "fig12".to_string()]);
        assert_eq!(parse(&["--smoke", "--only", "fig11,fig12"]), Ok((true, false, two.clone())));
        assert_eq!(parse(&["--only=fig11,fig12", "--quick"]), Ok((true, false, two)));
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

    #[test]
    fn the_last_sweep_size_flag_wins() {
        assert_eq!(parse(&[]), Ok((false, false, None)));
        assert_eq!(parse(&["--quick"]), Ok((true, false, None)));
        assert_eq!(parse(&["--smoke", "--full"]), Ok((false, false, None)));
        assert_eq!(parse(&["--full", "--smoke"]), Ok((true, false, None)));
    }

    /// A typo must not start the full sweep.
    #[test]
    fn unknown_flags_are_refused() {
        for bad in [&["--smoek"][..], &["--quick", "--markdwn"], &["fig6b"], &["-q"]] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
