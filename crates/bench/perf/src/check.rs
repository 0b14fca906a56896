//! `perf check a.json b.json`: compares two result files against the
//! bounds — the tool behind the A/A criterion and every later
//! parent-vs-change comparison.

use crate::spec::{bound, higher_is_better, END_TO_END, WORKLOADS};
use sensorsafe_core::Value;

/// What a comparison of one (workload, metric) pair concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The within-run spread of either side exceeds the bound, so the
    /// pair cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, higher_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_better {
        -change
    } else {
        change
    }
}

/// The verdict for one pair: `spreads` are both sides' slice spreads
/// as shares (not percent).
pub fn judge(a: f64, b: f64, higher_better: bool, bound: f64, spreads: (f64, f64)) -> Verdict {
    if spreads.0 > bound || spreads.1 > bound {
        Verdict::Unresolved
    } else if worsening(a, b, higher_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub change: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The `workloads` object of a result file; a ledger entry keeps its
/// untraced set under `untraced`.
fn workloads(file: &Value) -> &Value {
    file.get("untraced")
        .and_then(|set| set.get("workloads"))
        .or_else(|| file.get("workloads"))
        .unwrap_or(&Value::Null)
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.path(&format!("metrics.{name}.value"))
        .and_then(Value::as_f64)
}

fn failure_rate(run: &Value) -> f64 {
    let failed = run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    let attempted = run.get("attempted").and_then(Value::as_f64).unwrap_or(1.0);
    failed / attempted.max(1.0)
}

/// Compares two result files. Returns the rows plus problems that fail
/// the comparison outright (a missing pair, a higher failure rate).
pub fn compare(a: &Value, b: &Value) -> (Vec<Row>, Vec<String>) {
    let (mut rows, mut problems) = (Vec::new(), Vec::new());
    for spec in &WORKLOADS {
        let (Some(run_a), Some(run_b)) = (workloads(a).get(spec.name), workloads(b).get(spec.name))
        else {
            problems.push(format!("{}: missing from one side", spec.name));
            continue;
        };
        if failure_rate(run_b) > failure_rate(run_a) {
            problems.push(format!(
                "{}: failed/attempted rose from {:.6} to {:.6}",
                spec.name,
                failure_rate(run_a),
                failure_rate(run_b)
            ));
        }
        if run_b.get("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!("{}: outputs incorrect", spec.name));
        }
        let spread = |run: &Value| {
            run.path("aux.slice_spread_pct")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                / 100.0
        };
        for (name, _, _, _) in END_TO_END {
            let (Some(va), Some(vb)) = (metric(run_a, name), metric(run_b, name)) else {
                problems.push(format!("{}/{name}: missing from one side", spec.name));
                continue;
            };
            let higher = higher_is_better(name);
            let limit = bound(name).expect("end-to-end metric has a bound");
            // Slice spread describes the timed phase; set-up time,
            // bytes and memory do not come from slices.
            let timed = matches!(name, "norm_ops_per_s" | "norm_op_p50_ms" | "norm_op_p75_ms");
            let spreads = if timed {
                (spread(run_a), spread(run_b))
            } else {
                (0.0, 0.0)
            };
            rows.push(Row {
                workload: spec.name,
                metric: name,
                a: va,
                b: vb,
                change: worsening(va, vb, higher),
                bound: limit,
                verdict: judge(va, vb, higher, limit, spreads),
            });
        }
    }
    (rows, problems)
}

/// Prints the table; returns the process exit code.
pub fn report(rows: &[Row], problems: &[String]) -> i32 {
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for row in rows {
        println!(
            "{:<14} {:<18} {:>12.4} {:>12.4} {:>8.2}% {:>6.1}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.change * 100.0,
            row.bound * 100.0,
            row.verdict.as_str()
        );
    }
    for problem in problems {
        println!("problem: {problem}");
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved, {} problems",
        rows.len(),
        problems.len()
    );
    i32::from(worse > 0 || !problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_core::json;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn judge_applies_bound_and_spread() {
        let quiet = (0.01, 0.02);
        assert_eq!(judge(1.0, 1.07, false, 0.08, quiet), Verdict::Ok);
        assert_eq!(judge(1.0, 1.09, false, 0.08, quiet), Verdict::Worse);
        // Getting better never fails, however large the change.
        assert_eq!(judge(1.0, 0.5, false, 0.08, quiet), Verdict::Ok);
        assert_eq!(judge(100.0, 91.0, true, 0.08, quiet), Verdict::Worse);
        assert_eq!(judge(100.0, 93.0, true, 0.08, quiet), Verdict::Ok);
        // A noisy side cannot resolve the bound, whichever side it is.
        assert_eq!(
            judge(1.0, 1.5, false, 0.08, (0.09, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(1.0, 1.0, false, 0.08, (0.01, 0.09)),
            Verdict::Unresolved
        );
    }

    fn set(ops: f64, failed: u64, spread_pct: f64) -> Value {
        let run = json!({
            "correct": true,
            "attempted": 1000,
            "failed": failed,
            "aux": {"slice_spread_pct": spread_pct},
            "metrics": {
                "setup_s": {"value": 2.0, "unit": "s"},
                "norm_ops_per_s": {"value": ops, "unit": "1/s"},
                "norm_op_p50_ms": {"value": 1.0, "unit": "ms"},
                "norm_op_p75_ms": {"value": 1.2, "unit": "ms"},
                "wire_bytes_per_op": {"value": 1500.0, "unit": "bytes"},
                "rss_peak_mb": {"value": 80.0, "unit": "MB"},
            },
        });
        json!({"workloads": {
            "ingest_1hz": (run.clone()),
            "query_day": (run.clone()),
            "search_mirror": (run.clone()),
            "mixed_rw": (run),
        }})
    }

    #[test]
    fn compare_flags_regressions_failures_and_noise() {
        let base = set(1000.0, 0, 1.0);
        let (rows, problems) = compare(&base, &base);
        assert_eq!(rows.len(), 24);
        assert!(problems.is_empty());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

        let (rows, _) = compare(&base, &set(700.0, 0, 1.0));
        let worse: Vec<_> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .collect();
        assert_eq!(worse.len(), 4);
        assert!(worse.iter().all(|r| r.metric == "norm_ops_per_s"));

        let (_, problems) = compare(&base, &set(1000.0, 3, 1.0));
        assert_eq!(problems.len(), 4, "{problems:?}");

        let (rows, _) = compare(&base, &set(700.0, 0, 30.0));
        assert!(rows
            .iter()
            .filter(|r| r.metric == "norm_ops_per_s")
            .all(|r| r.verdict == Verdict::Unresolved));
        // A ledger entry nests its untraced set.
        let ledger = json!({"untraced": (base.clone())});
        assert!(compare(&ledger, &base).1.is_empty());
    }
}
