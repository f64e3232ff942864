//! `compare <a.json> <b.json>`: is results file `b` (the change) worse than
//! `a` (the parent) on any end-to-end metric of any workload, by that
//! metric's own bound?

use crate::json::Json;
use crate::measure::Summary;
use crate::report::{Better, END_TO_END};

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The repetitions' spread exceeds the bound and the two ranges overlap:
    /// the runs cannot tell "unchanged" from "changed".
    Unresolved,
}

/// Reads back one metric's order statistics from a results file.
fn summary(metric: &Json) -> Option<Summary> {
    let f = |k| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    // Positive `worse_by`: b is worse than a by that share of a's median.
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the medians alone: decide only when every
        // repetition of one side beats every repetition of the other.
        let (b_all_better, b_all_worse) = match better {
            Better::Lower => (b.max < a.min, b.min > a.max),
            Better::Higher => (b.min > a.max, b.max < a.min),
        };
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two results documents. Returns the printed rows and whether `b`
/// passes (no `worse` verdict, no changed `sim_digest`, no failed op).
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut pass = true;
    let workloads_b = b.get("workloads");
    for (name, wa) in a.get("workloads").map_or(&[][..], Json::members) {
        let Some(wb) = workloads_b.and_then(|w| w.get(name)) else {
            lines.push(format!("{name}: missing from the second file"));
            pass = false;
            continue;
        };
        for (metric, _unit, better, bound) in END_TO_END {
            let stats = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(summary)
            };
            let (Some(sa), Some(sb)) = (stats(wa), stats(wb)) else {
                lines.push(format!("{name} {metric}: missing from one file"));
                pass = false;
                continue;
            };
            let v = verdict(&sa, &sb, better, bound);
            pass &= v != Verdict::Worse;
            lines.push(format!(
                "{name:<13} {metric:<16} a {:>14.4} [{:.4}, {:.4}]  b {:>14.4} [{:.4}, {:.4}]  bound {:>4.0}%  {v:?}",
                sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, bound * 100.0,
            ));
        }
        let (da, db) = (wa.get("sim_digest"), wb.get("sim_digest"));
        if da != db {
            lines.push(format!(
                "{name} sim_digest changed:\n  a {da:?}\n  b {db:?}"
            ));
            pass = false;
        }
        let failed = wb.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed != 0.0 {
            lines.push(format!(
                "{name}: {failed} operations or output checks failed in b"
            ));
            pass = false;
        }
    }
    (lines, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(median: f64, rel_spread: f64) -> Json {
        let half = median * rel_spread / 2.0;
        Json::obj([
            ("median", Json::Num(median)),
            ("q1", Json::Num(median - half)),
            ("q3", Json::Num(median + half)),
            ("min", Json::Num(median - 2.0 * half)),
            ("max", Json::Num(median + 2.0 * half)),
            ("n", Json::Num(9.0)),
        ])
    }

    fn results(ops_per_s: f64, spread: f64, digest: &str) -> Json {
        let e2e = END_TO_END.iter().map(|(name, ..)| {
            let m = if *name == "ops_per_s" {
                metric(ops_per_s, spread)
            } else {
                metric(100.0, 0.01)
            };
            (*name, m)
        });
        Json::obj([(
            "workloads",
            Json::obj([(
                "sim_tenants",
                Json::obj([
                    ("end_to_end", Json::obj(e2e)),
                    ("sim_digest", Json::str(digest)),
                    ("failed", Json::Num(0.0)),
                ]),
            )]),
        )])
    }

    #[test]
    fn identical_files_pass_with_every_row_same() {
        let a = results(1e6, 0.02, "d");
        let (lines, pass) = compare(&a, &a);
        assert!(pass);
        assert_eq!(lines.len(), END_TO_END.len());
        assert!(lines.iter().all(|l| l.ends_with("Same")), "{lines:#?}");
    }

    #[test]
    fn a_two_times_slowdown_fails() {
        let (lines, pass) = compare(&results(1e6, 0.02, "d"), &results(0.5e6, 0.02, "d"));
        assert!(!pass);
        assert!(lines
            .iter()
            .any(|l| l.contains("ops_per_s") && l.ends_with("Worse")));
        // The other direction is a gain, not a failure.
        let (lines, pass) = compare(&results(0.5e6, 0.02, "d"), &results(1e6, 0.02, "d"));
        assert!(pass);
        assert!(lines
            .iter()
            .any(|l| l.contains("ops_per_s") && l.ends_with("Better")));
    }

    #[test]
    fn a_changed_digest_fails_even_at_equal_speed() {
        let (lines, pass) = compare(
            &results(1e6, 0.02, "events=1"),
            &results(1e6, 0.02, "events=2"),
        );
        assert!(!pass);
        assert!(lines.iter().any(|l| l.contains("sim_digest changed")));
    }

    #[test]
    fn overlapping_noisy_runs_are_unresolved_not_same() {
        // 40 % spread against a 15 % bound, medians 10 % apart.
        let (lines, pass) = compare(&results(1e6, 0.4, "d"), &results(0.9e6, 0.4, "d"));
        assert!(pass, "unresolved is reported, not failed");
        assert!(lines
            .iter()
            .any(|l| l.contains("ops_per_s") && l.ends_with("Unresolved")));
    }
}
