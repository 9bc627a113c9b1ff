//! Two-clock YCSB benchmark of the eLSM stack (see README.md).
//!
//! ```text
//! elsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! elsm-benchmark run <workload> [--seed S] | trace <workload> | all | describe
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…, "attempted":…, "failed":…, "metrics":{…}}`.

mod alloc;
mod deploy;
mod endtoend;
mod estimator;
mod run;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use endtoend::Metric;
use telemetry::Telemetry;
use workloads::{Plan, Spec};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Repetitions of a full run; the repeat-min estimator needs several
/// chances to meet every segment outside a slow regime. Fixed: a run with
/// fewer repetitions would be measured by a different estimator.
const REPS: usize = 5;
/// Repetitions of a `--quick` smoke run.
const QUICK_REPS: usize = 2;
/// Default time budget of one invocation, seconds (BENCHMARK.json's
/// `run_seconds`). The work of a run is fixed and sized to fit it; a run
/// that does not fit says so.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::all().iter().map(|s| s.name).collect();
    format!(
        "usage: elsm-benchmark --workload <{0}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      elsm-benchmark run <workload> | trace <workload> | all | describe",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let workload = |name: &str| {
        workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value\n{}", usage()));
        match arg.as_str() {
            "--workload" | "run" => args.workloads = vec![workload(value()?)?],
            "trace" => {
                args.workloads = vec![workload(value()?)?];
                args.trace = true;
            }
            "all" => args.workloads = workloads::all(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workloads.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// The contents of the repository's `BENCHMARK.json`, generated from the
/// tables the program itself reports by (`describe` prints it; a test
/// keeps the committed file equal to it).
fn benchmark_json() -> String {
    let workloads: Vec<String> = workloads::all()
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end: Vec<String> = endtoend::END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = trace::PER_LAYER
        .iter()
        .map(|(name, unit, better, _)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// What one workload run, traced or not, produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub identical: bool,
}

/// Runs the repetitions of one untraced run and the restart check.
fn repetitions(
    spec: &Spec,
    plan: &Plan,
    count: usize,
    epoch: Instant,
) -> Result<(Vec<run::RepData>, run::Restart), elsm::ElsmError> {
    let mut reps = Vec::with_capacity(count);
    loop {
        let (rep, dep) = run::repetition(spec, plan, Telemetry::default(), false, epoch)?;
        reps.push(rep);
        if reps.len() == count {
            return Ok((reps, run::restart_check(dep, plan)));
        }
    }
}

fn run_workload(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let sizes = if args.quick { spec.quick } else { spec.full };
    let plan = workloads::plan(spec, sizes, args.seed);
    let pregen_ms = epoch.elapsed().as_secs_f64() * 1e3;
    if args.trace {
        println!("{}: traced run, seed {}", spec.name, args.seed);
        let traced = trace::run(spec, &plan, args.seed, pregen_ms, epoch)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        for m in &traced.metrics {
            println!("  {}/{:<34} {:>16.4} {}", spec.name, m.name, m.value, m.unit);
        }
        return Ok(traced);
    }
    let count = if args.quick { QUICK_REPS } else { REPS };
    let (reps, restart) =
        repetitions(spec, &plan, count, epoch).map_err(|e| format!("{}: {e}", spec.name))?;
    let identical = run::reps_identical(&reps);
    let metrics = endtoend::metrics(&plan, &reps).map_err(|e| {
        format!(
            "{}: {} read samples leave {} beyond the percentile",
            spec.name, e.samples, e.beyond
        )
    })?;
    let attempted = reps.iter().map(|r| r.attempted).sum::<u64>() + restart.attempted;
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + restart.failed;
    let (reads, beyond) = endtoend::read_sample_counts(&plan);
    println!(
        "{}: {} repetitions x ({} load + {} warm-up + {} measured ops), seed {}, pregen {:.0} ms",
        spec.name,
        reps.len(),
        plan.load.len(),
        plan.warm.len(),
        plan.ops.len(),
        args.seed,
        pregen_ms
    );
    println!("  read-class samples: {reads} ({beyond} beyond p99)");
    println!(
        "  failed_op_share: {failed} / {attempted} (restart check {} / {}, recovery {:.1} ms)",
        restart.failed,
        restart.attempted,
        restart.recover_ns as f64 / 1e6
    );
    let raw: Vec<String> =
        reps.iter().map(|r| format!("{:.3}", r.op_ns.iter().sum::<u64>() as f64 / 1e9)).collect();
    println!("  measured phase per repetition, raw: {} s", raw.join(" "));
    for m in &metrics {
        println!("  {}/{:<18} {:>14.4} {}", spec.name, m.name, m.value, m.unit);
    }
    Ok(Outcome { metrics, attempted, failed, identical })
}

fn json_line(outcomes: &[(&Spec, Outcome)]) -> String {
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for (spec, outcome) in outcomes {
        for m in &outcome.metrics {
            let name =
                if single { m.name.to_string() } else { format!("{}/{}", spec.name, m.name) };
            metrics
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit));
        }
    }
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let correct = failed == 0 && outcomes.iter().all(|(_, o)| o.identical);
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["describe"] {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for spec in &args.workloads {
        let started = Instant::now();
        match run_workload(spec, &args) {
            Ok(outcome) => {
                // The work of a run is fixed, so a slow host or a slow
                // change shows as a longer run, never as fewer
                // repetitions; the budget is only checked.
                let took = started.elapsed().as_secs_f64();
                if took > args.seconds as f64 {
                    println!(
                        "  {}: took {took:.1} s, over the --seconds budget of {} s",
                        spec.name, args.seconds
                    );
                }
                outcomes.push((spec, outcome))
            }
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::from(1);
            }
        }
    }
    let correct = outcomes.iter().all(|(_, o)| o.failed == 0 && o.identical);
    println!("{}", json_line(&outcomes));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, super::benchmark_json(), "regenerate with `elsm-benchmark describe`");
    }

    #[test]
    fn contract_flags_and_subcommands_parse_alike() {
        let parse = |args: &[&str]| {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            super::parse_args(&argv)
                .map(|a| (a.workloads[0].name, a.seed, a.seconds, a.trace, a.quick))
        };
        let flags =
            parse(&["--workload", "e_scan", "--seed", "9", "--seconds", "12", "--trace", "1"]);
        assert_eq!(flags, Ok(("e_scan", 9, 12, true, false)));
        assert_eq!(parse(&["trace", "e_scan", "--seed", "9", "--seconds", "12"]), flags);
        assert_eq!(
            parse(&["run", "c_read"]),
            Ok(("c_read", 42, super::DEFAULT_SECONDS, false, false))
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2", "--workload", "c_read"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
