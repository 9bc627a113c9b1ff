//! CI perf-regression gate: diffs a freshly regenerated
//! `BENCH_results.json` against the committed baseline and fails (exit
//! code 1) when any configuration got slower beyond the tolerance band.
//! Because every figure is measured on the deterministic virtual clock,
//! any move is a real code-path change, not noise — the tolerance only
//! absorbs intentional small shifts (e.g. a few extra charged bytes on a
//! wire format). It lists every row that moved, worst throughput first,
//! and ends with the counts of rows up, down, unchanged, added and missing
//! — the declaration a change that moves rows owes.
//!
//! A closed-loop (multi-client) row's throughput is ops over the last
//! client's finish, so it can move with no change in the work: an inline
//! flush charged to another client shifts the makespan. Such rows carry
//! `charged_us_per_op` and `mean_finish_us`, and one that carries them in
//! both documents is judged by the work: it fails when its charged time
//! per op rose by more than the tolerance, whatever its throughput did
//! (which is printed beside the verdict, with which of the two measures
//! the throughput followed). Every other row fails when its throughput
//! fell by more than the tolerance ([`verdict`]).
//!
//! Usage:
//! `perf_gate --baseline BENCH_baseline.json --fresh BENCH_results.json
//! [--tolerance 0.05]`

use std::collections::BTreeMap;

/// One measured row, keyed by (figure, config, workload).
type Key = (String, String, String);

/// What the gate reads of one row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    /// Throughput, operations per simulated second.
    ops: f64,
    /// A closed-loop row's charged time per op and mean client finish
    /// (µs).
    closed_loop: Option<(f64, f64)>,
}

/// The rows of one results document.
type Rows = BTreeMap<Key, Row>;

fn usage_and_exit(problem: &str) -> ! {
    eprintln!("{problem}\nusage: perf_gate --baseline <path> --fresh <path> [--tolerance 0.05]");
    std::process::exit(2);
}

/// Pulls the string value of `"field": "..."` out of a results row line.
fn str_field(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\": \"");
    let start = line.find(&needle)? + needle.len();
    // The value ends at the first quote no backslash escapes.
    let mut escaped = false;
    let end = line[start..].char_indices().find_map(|(i, c)| {
        let closes = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        closes.then_some(i)
    })?;
    Some(line[start..start + end].to_string())
}

/// Pulls the numeric value of `"field": 123.4` out of a results row line.
fn num_field(line: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Line-oriented parse of the results JSON `elsm-bench` writes: one row
/// object per line, known field order. Duplicated keys keep the last row
/// (the writer never emits duplicates; a hand-edited file is on its own).
fn parse_rows(text: &str) -> Rows {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let (Some(figure), Some(config), Some(workload), Some(ops)) = (
            str_field(line, "figure"),
            str_field(line, "config"),
            str_field(line, "workload"),
            num_field(line, "ops_per_sec"),
        ) else {
            continue;
        };
        let closed_loop =
            num_field(line, "charged_us_per_op").zip(num_field(line, "mean_finish_us"));
        rows.insert((figure, config, workload), Row { ops, closed_loop });
    }
    rows
}

fn parse_results(path: &str) -> Rows {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_and_exit(&format!("could not read {path}: {e}")));
    let rows = parse_rows(&text);
    if rows.is_empty() {
        usage_and_exit(&format!("{path} contains no result rows"));
    }
    rows
}

/// What moved between two result documents.
#[derive(Debug, Default, PartialEq)]
struct Diff {
    /// Rows in both whose throughput or closed-loop measures changed, as
    /// (relative throughput change, row, baseline, fresh), worst first.
    moved: Vec<(f64, Key, Row, Row)>,
    /// Rows in both where nothing changed.
    unchanged: usize,
    /// Rows only the fresh document has (not gated).
    added: Vec<Key>,
    /// Baseline rows the fresh document lost.
    missing: Vec<Key>,
}

impl Diff {
    fn new(baseline: &Rows, fresh: &Rows) -> Diff {
        let mut diff = Diff::default();
        for (key, &base) in baseline {
            match fresh.get(key) {
                None => diff.missing.push(key.clone()),
                Some(&now) if now == base => diff.unchanged += 1,
                Some(&now) => {
                    diff.moved.push((relative(base.ops, now.ops), key.clone(), base, now))
                }
            }
        }
        diff.moved.sort_by(|a, b| a.0.total_cmp(&b.0));
        diff.added = fresh.keys().filter(|key| !baseline.contains_key(*key)).cloned().collect();
        diff
    }

    /// The closing line: rows whose throughput went up, down or stayed,
    /// rows added and rows missing.
    fn counts(&self) -> String {
        let down = self.moved.iter().filter(|(rel, ..)| *rel < 0.0).count();
        let up = self.moved.iter().filter(|(rel, ..)| *rel > 0.0).count();
        let unchanged = self.unchanged + self.moved.len() - up - down;
        let (added, missing) = (self.added.len(), self.missing.len());
        format!("up {up} / down {down} / unchanged {unchanged} / added {added} / missing {missing}")
    }
}

/// `now` relative to `base`: `now / base - 1`.
fn relative(base: f64, now: f64) -> f64 {
    if base > 0.0 {
        now / base - 1.0
    } else {
        f64::INFINITY
    }
}

/// What the gate says of a row both documents hold.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// Judged by throughput: it fell by no more than the tolerance.
    ThroughputHeld,
    /// Judged by throughput: it fell by more than the tolerance (fails).
    ThroughputFell,
    /// A closed-loop row judged by its charged time per op, which rose by
    /// no more than the tolerance. Carries that time's relative change.
    ChargeHeld(f64),
    /// A closed-loop row whose charged time per op rose by more than the
    /// tolerance (fails). Carries that relative change.
    ChargeRose(f64),
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::ThroughputFell | Verdict::ChargeRose(_))
    }
}

/// The one rule: a row whose charged time per op both documents carry (a
/// closed-loop row) fails when that time rose by more than `tolerance`;
/// any other row fails when its throughput fell by more than `tolerance`.
fn verdict(base: &Row, fresh: &Row, tolerance: f64) -> Verdict {
    match base.closed_loop.zip(fresh.closed_loop) {
        Some(((charged0, _), (charged1, _))) => {
            let change = if charged1 == charged0 { 0.0 } else { relative(charged0, charged1) };
            if change > tolerance {
                Verdict::ChargeRose(change)
            } else {
                Verdict::ChargeHeld(change)
            }
        }
        None if relative(base.ops, fresh.ops) < -tolerance => Verdict::ThroughputFell,
        None => Verdict::ThroughputHeld,
    }
}

/// For a closed-loop row whose throughput moved by `rel`: how its charged
/// time per op and mean client finish moved, and which one the throughput
/// followed. `None` unless both documents carry the two measures.
fn closed_loop_note(rel: f64, base: &Row, fresh: &Row) -> Option<String> {
    let ((charged0, finish0), (charged1, finish1)) = (base.closed_loop?, fresh.closed_loop?);
    let charged = relative(charged0, charged1);
    let finish = relative(finish0, finish1);
    // Less charged time per op is more throughput: the work moved when
    // the two changes have opposite signs.
    let verdict = if charged == 0.0 {
        "the schedule moved, not the work"
    } else if (charged < 0.0) == (rel > 0.0) {
        "the work moved"
    } else {
        "the schedule moved against the work"
    };
    Some(format!(
        "charged/op {:+.2}%, mean client finish {:+.2}%: {verdict}",
        charged * 100.0,
        finish * 100.0
    ))
}

fn main() {
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut tolerance = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| usage_and_exit(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--fresh" => fresh_path = Some(value("--fresh")),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--tolerance must be a number"));
            }
            other => usage_and_exit(&format!("unknown flag `{other}`")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| usage_and_exit("--baseline is required"));
    let fresh_path = fresh_path.unwrap_or_else(|| usage_and_exit("--fresh is required"));
    if !(0.0..1.0).contains(&tolerance) {
        usage_and_exit("--tolerance must be in [0, 1)");
    }

    let diff = Diff::new(&parse_results(&baseline_path), &parse_results(&fresh_path));
    // Every baseline row must still exist and hold its throughput. A row
    // vanishing is a failure too: a silently dropped measurement would
    // let a regression hide by deleting its own evidence.
    let mut failed = !diff.missing.is_empty();
    for key in &diff.missing {
        println!("MISSING  {}/{} [{}]: row absent from {fresh_path}", key.0, key.1, key.2);
    }
    let band = tolerance * 100.0;
    println!(
        "perf gate: tolerance -{band:.1}% throughput, or +{band:.1}% charged time per op for a \
         closed-loop row; every row that moved, worst throughput first:"
    );
    for (rel, key, base_row, fresh_row) in &diff.moved {
        let verdict = verdict(base_row, fresh_row, tolerance);
        failed |= verdict.fails();
        let label = if verdict.fails() { "FAIL" } else { "ok  " };
        let ((figure, config, workload), change) = (key, rel * 100.0);
        let row = format!("{figure}/{config} [{workload}]");
        let (base, fresh) = (base_row.ops, fresh_row.ops);
        let throughput = format!("{base:.1} -> {fresh:.1} ops/s");
        match verdict {
            Verdict::ChargeHeld(charged) | Verdict::ChargeRose(charged) => println!(
                "{label} {:+7.2}% charged/op  {row}: throughput {change:+.2}% ({throughput})",
                charged * 100.0
            ),
            Verdict::ThroughputHeld | Verdict::ThroughputFell => {
                println!("{label} {change:+7.2}%  {row}: {throughput}")
            }
        }
        if let Some(note) = closed_loop_note(*rel, base_row, fresh_row) {
            println!("              {note}");
        }
    }
    for (figure, config, workload) in &diff.added {
        println!("ADDED    {figure}/{config} [{workload}]: not in the baseline, not gated");
    }
    println!("{}", diff.counts());
    if failed {
        println!("perf gate FAILED: a row regressed beyond tolerance (or rows vanished)");
        std::process::exit(1);
    }
    println!("perf gate passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "results": [
    {"figure": "fig2", "config": "fig2#0", "workload": "read100", "ops_per_sec": 100.0},
    {"figure": "fig2", "config": "fig2#1", "workload": "read100", "ops_per_sec": 200.0},
    {"figure": "fig5a", "config": "fig5a#0", "workload": "read70", "ops_per_sec": 300.0},
    {"figure": "fig5a", "config": "fig5a#1", "workload": "read70", "ops_per_sec": 400.0},
    {"figure": "fig7", "config": "fig7#0", "workload": "scan", "ops_per_sec": 500.0}
  ]
}"#;

    const FRESH: &str = r#"{
  "results": [
    {"figure": "fig2", "config": "fig2#0", "workload": "read100", "ops_per_sec": 100.0},
    {"figure": "fig2", "config": "fig2#1", "workload": "read100", "ops_per_sec": 190.0},
    {"figure": "fig5a", "config": "fig5a#0", "workload": "read70", "ops_per_sec": 303.0},
    {"figure": "fig7", "config": "fig7#0", "workload": "scan", "ops_per_sec": 499.0},
    {"figure": "fig9", "config": "fig9#0", "workload": "mixed", "ops_per_sec": 7.0}
  ]
}"#;

    fn key(figure: &str, config: &str, workload: &str) -> Key {
        (figure.into(), config.into(), workload.into())
    }

    #[test]
    fn every_moved_row_is_listed_worst_first_and_counted() {
        let diff = Diff::new(&parse_rows(BASELINE), &parse_rows(FRESH));
        let moved: Vec<(&Key, f64, f64)> =
            diff.moved.iter().map(|(_, key, base, fresh)| (key, base.ops, fresh.ops)).collect();
        assert_eq!(
            moved,
            [
                (&key("fig2", "fig2#1", "read100"), 200.0, 190.0),
                (&key("fig7", "fig7#0", "scan"), 500.0, 499.0),
                (&key("fig5a", "fig5a#0", "read70"), 300.0, 303.0),
            ]
        );
        assert!((diff.moved[0].0 + 0.05).abs() < 1e-12, "{:?}", diff.moved[0]);
        assert_eq!(diff.added, [key("fig9", "fig9#0", "mixed")]);
        assert_eq!(diff.missing, [key("fig5a", "fig5a#1", "read70")]);
        assert_eq!(diff.counts(), "up 1 / down 2 / unchanged 1 / added 1 / missing 1");
    }

    #[test]
    fn labels_differing_after_an_escaped_quote_stay_two_rows() {
        let doc = r#"{
  "results": [
    {"figure": "fig2", "config": "a\"b", "workload": "read100", "ops_per_sec": 1.0},
    {"figure": "fig2", "config": "a\"c", "workload": "read100", "ops_per_sec": 2.0}
  ]
}"#;
        let rows = parse_rows(doc);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert_eq!(rows[&key("fig2", r#"a\"b"#, "read100")].ops, 1.0);
        assert_eq!(rows[&key("fig2", r#"a\"c"#, "read100")].ops, 2.0);
    }

    #[test]
    fn a_closed_loop_row_says_which_measure_moved() {
        let row = |ops: f64, gauges: &str| {
            format!(
                "{{\"figure\": \"fig7\", \"config\": \"p1@8threads\", \"workload\": \"E\", \
                 \"ops_per_sec\": {ops}, \"p50_us\": 1.000, \"debt_bytes\": 7{gauges}}}"
            )
        };
        let rows = |ops, gauges| parse_rows(&row(ops, gauges));
        let base = rows(1000.0, ", \"charged_us_per_op\": 8.0000, \"mean_finish_us\": 900.000");
        let k = key("fig7", "p1@8threads", "E");
        assert_eq!(base[&k], Row { ops: 1000.0, closed_loop: Some((8.0, 900.0)) });
        let note = |ops, gauges| {
            let diff = Diff::new(&base, &rows(ops, gauges));
            let (rel, _, b, f) = &diff.moved[0];
            closed_loop_note(*rel, b, f)
        };
        // Down on throughput while each op was charged less: the schedule.
        assert_eq!(
            note(999.0, ", \"charged_us_per_op\": 7.6000, \"mean_finish_us\": 909.000").unwrap(),
            "charged/op -5.00%, mean client finish +1.00%: the schedule moved against the work"
        );
        assert_eq!(
            note(1010.0, ", \"charged_us_per_op\": 7.6000, \"mean_finish_us\": 891.000").unwrap(),
            "charged/op -5.00%, mean client finish -1.00%: the work moved"
        );
        assert_eq!(
            note(990.0, ", \"charged_us_per_op\": 8.0000, \"mean_finish_us\": 909.000").unwrap(),
            "charged/op +0.00%, mean client finish +1.00%: the schedule moved, not the work"
        );
        // A single-client row (or an older baseline) carries neither.
        assert_eq!(note(990.0, ""), None);
    }

    /// A closed-loop row of `ops` ops/s charged `charged` µs per op.
    fn closed(ops: f64, charged: f64) -> Row {
        Row { ops, closed_loop: Some((charged, 900.0)) }
    }

    fn open(ops: f64) -> Row {
        Row { ops, closed_loop: None }
    }

    #[test]
    fn an_open_loop_row_within_tolerance_holds() {
        assert_eq!(verdict(&open(200.0), &open(191.0), 0.05), Verdict::ThroughputHeld);
        assert_eq!(verdict(&open(200.0), &open(260.0), 0.05), Verdict::ThroughputHeld);
        assert!(!Verdict::ThroughputHeld.fails());
    }

    #[test]
    fn an_open_loop_row_that_fell_beyond_tolerance_fails() {
        assert_eq!(verdict(&open(200.0), &open(189.0), 0.05), Verdict::ThroughputFell);
        assert!(Verdict::ThroughputFell.fails());
    }

    /// Throughput −10.0 % with charged time per op −0.74 % (a closed-loop
    /// row whose schedule moved, not its work): ok.
    #[test]
    fn a_closed_loop_row_whose_charge_held_is_ok_whatever_its_throughput() {
        let v = verdict(&closed(1000.0, 10.0), &closed(900.0, 9.926), 0.05);
        let Verdict::ChargeHeld(change) = v else { panic!("{v:?}") };
        assert!((change + 0.0074).abs() < 1e-9, "{change}");
        assert!(!v.fails());
    }

    #[test]
    fn a_closed_loop_row_whose_charge_rose_beyond_tolerance_fails() {
        // Throughput up, yet every op was charged 6 % more: the work grew.
        let v = verdict(&closed(1000.0, 10.0), &closed(1010.0, 10.6), 0.05);
        let Verdict::ChargeRose(change) = v else { panic!("{v:?}") };
        assert!((change - 0.06).abs() < 1e-9, "{change}");
        assert!(v.fails());
    }

    /// A row that carries the charged time in one document only is judged
    /// by throughput, as an open-loop row.
    #[test]
    fn a_row_without_charged_time_on_both_sides_is_judged_by_throughput() {
        assert_eq!(verdict(&open(1000.0), &closed(900.0, 9.0), 0.05), Verdict::ThroughputFell);
        assert_eq!(verdict(&closed(1000.0, 9.0), &open(990.0), 0.05), Verdict::ThroughputHeld);
    }

    #[test]
    fn a_charge_only_move_is_listed_and_counted_unchanged() {
        let base: Rows = [(key("fig9", "p2@8threads", "A"), closed(1000.0, 10.0))].into();
        let fresh: Rows = [(key("fig9", "p2@8threads", "A"), closed(1000.0, 11.0))].into();
        let diff = Diff::new(&base, &fresh);
        assert_eq!(diff.moved.len(), 1);
        assert!(verdict(&diff.moved[0].2, &diff.moved[0].3, 0.05).fails());
        assert_eq!(diff.counts(), "up 0 / down 0 / unchanged 1 / added 0 / missing 0");
    }

    #[test]
    fn identical_documents_move_nothing() {
        let rows = parse_rows(BASELINE);
        assert_eq!(rows.len(), 5);
        let diff = Diff::new(&rows, &rows);
        assert_eq!(diff, Diff { unchanged: 5, ..Diff::default() });
        assert_eq!(diff.counts(), "up 0 / down 0 / unchanged 5 / added 0 / missing 0");
    }
}
