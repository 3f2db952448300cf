//! Benchmark regression gate: compares a freshly produced `BENCH_EVAL.json`
//! against the committed `BENCH_BASELINE.json` and fails (exit code 1) when
//! any metric's throughput regressed by more than the allowed fraction.
//!
//! Prints a per-metric delta table in GitHub-flavored markdown so CI can
//! append it to the job summary:
//!
//! ```text
//! cargo run --release -p adc-bench --bin bench_check \
//!     [BENCH_BASELINE.json [BENCH_EVAL.json]]
//! ```
//!
//! Metrics present in only one of the two files are reported but never
//! gate (so adding a new benchmark row doesn't require regenerating the
//! baseline on the spot). The baseline is regenerated deliberately — run
//! `bench_eval` on a quiet machine and commit the refreshed numbers
//! whenever a PR moves throughput on purpose.

use adc_topopt::wire::JsonValue;
use std::process::ExitCode;

/// Largest tolerated fractional throughput drop per metric (CI runners are
/// noisy; the trajectory in EXPERIMENTS.md tracks the finer grain). The
/// baseline records absolute evals/s, so a slower runner *class* than the
/// one that produced it needs a refreshed baseline.
const MAX_REGRESSION: f64 = 0.30;

/// Metrics that are **deterministic measurements**, not throughput: they
/// gate two-sided with [`EXACT_TOLERANCE`] — a chain whose verified gain,
/// MNA dimension or adaptive step-savings ratio moves in *either*
/// direction is a behavioural change, not runner noise.
const EXACT_METRICS: [&str; 3] = [
    "full_pipeline_gain",
    "full_pipeline_mna_dim",
    "tran_adaptive_vs_fixed_steps",
];

/// Allowed symmetric fractional deviation for [`EXACT_METRICS`].
const EXACT_TOLERANCE: f64 = 0.02;

/// Metrics where **lower is better** (latencies): they gate one-sided in
/// the opposite direction — a *rise* past the gate fails, a drop never
/// does. The value still lives in the `evals_per_sec` slot of the report
/// format; the name says what the number means.
const INVERTED_METRICS: [&str; 2] = ["serve_p50_ms", "serve_p99_ms"];

/// One `"name": { "evals_per_sec": X, "evals": N }` row of the report.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    evals_per_sec: f64,
}

/// Parses a report written by `bench_eval` or `bench_serve`: one JSON
/// object whose members are the rows.
fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let JsonValue::Obj(members) = JsonValue::parse(text).map_err(|e| e.to_string())? else {
        return Err("report is not a JSON object".into());
    };
    if members.is_empty() {
        return Err("no metrics found".into());
    }
    members
        .iter()
        .map(|(name, row)| match row.get("evals_per_sec") {
            Some(JsonValue::Num(evals_per_sec)) => Ok(Row {
                name: name.clone(),
                evals_per_sec: *evals_per_sec,
            }),
            _ => Err(format!("row {name} has no numeric evals_per_sec")),
        })
        .collect()
}

/// Outcome of comparing one metric across the two reports.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Present in both; within the gate.
    Ok { delta: f64 },
    /// Present in both; dropped more than the gate allows.
    Fail { delta: f64 },
    /// In the baseline but not the current report — informational only.
    MissingFromCurrent,
    /// In the current report but not the baseline (a metric that landed
    /// before a baseline refresh) — informational only, **never** gates.
    NewInCurrent,
}

/// Pure gate evaluation: every metric of either report gets a verdict;
/// only `Fail` verdicts carry gate force. Separated from `main` so the
/// report/ignore semantics are unit-tested.
fn evaluate_gate(baseline: &[Row], current: &[Row], max_regression: f64) -> Vec<(String, Verdict)> {
    let mut out: Vec<(String, Verdict)> = Vec::new();
    for b in baseline {
        let verdict = match current.iter().find(|c| c.name == b.name) {
            None => Verdict::MissingFromCurrent,
            Some(c) => {
                let delta = c.evals_per_sec / b.evals_per_sec - 1.0;
                let ok = if EXACT_METRICS.contains(&b.name.as_str()) {
                    delta.abs() <= EXACT_TOLERANCE
                } else if INVERTED_METRICS.contains(&b.name.as_str()) {
                    delta <= max_regression
                } else {
                    delta >= -max_regression
                };
                if ok {
                    Verdict::Ok { delta }
                } else {
                    Verdict::Fail { delta }
                }
            }
        };
        out.push((b.name.clone(), verdict));
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            out.push((c.name.clone(), Verdict::NewInCurrent));
        }
    }
    out
}

/// Names of the metrics that fail the gate.
fn failures(verdicts: &[(String, Verdict)]) -> Vec<String> {
    verdicts
        .iter()
        .filter(|(_, v)| matches!(v, Verdict::Fail { .. }))
        .map(|(n, _)| n.clone())
        .collect()
}

/// Loads and parses one report file, mapping every failure mode — file
/// missing, unreadable, truncated, or empty — to a single-line diagnostic
/// that names the offending path (never a panic: a half-written
/// `BENCH_EVAL.json` from an interrupted bench run must fail the gate
/// with a readable message, not a backtrace).
fn load_report(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_report(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_BASELINE.json".into());
    let current_path = args.next().unwrap_or_else(|| "BENCH_EVAL.json".into());

    let (baseline, current) = match (load_report(&baseline_path), load_report(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b, c] {
                if let Err(e) = r {
                    eprintln!("bench_check: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "### Evaluator-throughput regression gate (≤ {:.0} % drop allowed)",
        MAX_REGRESSION * 100.0
    );
    println!();
    println!("| metric | baseline (evals/s) | current (evals/s) | delta | gate |");
    println!("|---|---:|---:|---:|---|");
    let verdicts = evaluate_gate(&baseline, &current, MAX_REGRESSION);
    for (name, verdict) in &verdicts {
        let base = baseline.iter().find(|b| &b.name == name);
        let cur = current.iter().find(|c| &c.name == name);
        let fmt = |r: Option<&Row>| {
            r.map(|r| format!("{:.0}", r.evals_per_sec))
                .unwrap_or_else(|| "—".into())
        };
        let (delta_col, gate_col) = match verdict {
            Verdict::Ok { delta } => (format!("{:+.1} %", delta * 100.0), "ok".to_string()),
            Verdict::Fail { delta } => (format!("{:+.1} %", delta * 100.0), "**FAIL**".to_string()),
            Verdict::MissingFromCurrent => ("—".into(), "missing (ignored)".into()),
            Verdict::NewInCurrent => ("—".into(), "new (ignored)".into()),
        };
        println!(
            "| `{name}` | {} | {} | {delta_col} | {gate_col} |",
            fmt(base),
            fmt(cur)
        );
    }
    println!();
    let failed = failures(&verdicts);
    if failed.is_empty() {
        println!(
            "All gated metrics within {:.0} % of baseline.",
            MAX_REGRESSION * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "**Regression gate failed** for: {} (refresh `BENCH_BASELINE.json` only for intentional changes).",
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "dc_solve": { "evals_per_sec": 3706.63, "evals": 5560 },
  "hybrid_eval": { "evals_per_sec": 5085.74, "evals": 10172 }
}
"#;

    #[test]
    fn parses_bench_eval_format() {
        let rows = parse_report(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "dc_solve");
        assert!((rows[0].evals_per_sec - 3706.63).abs() < 1e-9);
        assert_eq!(rows[1].name, "hybrid_eval");
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("\"x\": { \"evals_per_sec\": nope }").is_err());
    }

    /// A missing report file is a one-line diagnostic naming the path,
    /// never a panic.
    #[test]
    fn missing_report_file_is_a_named_diagnostic() {
        let err = load_report("/nonexistent/BENCH_EVAL.json").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        assert!(err.contains("/nonexistent/BENCH_EVAL.json"), "{err}");
    }

    /// A truncated report (interrupted bench run) fails cleanly: a document
    /// cut off mid-row does not parse, an empty object yields no metrics,
    /// and the diagnostic names the file.
    #[test]
    fn truncated_report_fails_cleanly() {
        let dir = std::env::temp_dir().join("bench_check_truncated_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_EVAL.json");
        // Cut mid-row: the evals_per_sec line exists but the value is gone.
        std::fs::write(&path, "{\n  \"dc_solve\": { \"evals_per_sec\": ").unwrap();
        let err = load_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("BENCH_EVAL.json"), "{err}");
        // An empty report: parses to zero metrics.
        std::fs::write(&path, "{}\n").unwrap();
        let err = load_report(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no metrics found"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn row(name: &str, rate: f64) -> Row {
        Row {
            name: name.into(),
            evals_per_sec: rate,
        }
    }

    /// A metric present in the current report but missing from the
    /// baseline is informational: it must never fail the gate, so new
    /// benchmark rows can land before the baseline refresh.
    #[test]
    fn new_metrics_report_but_never_gate() {
        let baseline = vec![row("dc_solve", 1000.0)];
        let current = vec![
            row("dc_solve", 990.0),
            row("multi_res_flow_cached", 123.0), // brand new
        ];
        let verdicts = evaluate_gate(&baseline, &current, 0.30);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
        assert!(verdicts
            .iter()
            .any(|(n, v)| n == "multi_res_flow_cached" && *v == Verdict::NewInCurrent));
    }

    /// The reverse direction — baseline metric missing from the current
    /// report — is also informational (a renamed/retired bench must not
    /// hard-fail CI either).
    #[test]
    fn missing_metrics_report_but_never_gate() {
        let baseline = vec![row("old_bench", 1000.0), row("dc_solve", 1000.0)];
        let current = vec![row("dc_solve", 1000.0)];
        let verdicts = evaluate_gate(&baseline, &current, 0.30);
        assert!(failures(&verdicts).is_empty(), "{verdicts:?}");
        assert!(verdicts
            .iter()
            .any(|(n, v)| n == "old_bench" && *v == Verdict::MissingFromCurrent));
    }

    /// Deterministic verify metrics gate two-sided: an *increase* in the
    /// chain's measured gain fails just like a drop, while ordinary
    /// throughput metrics stay one-sided.
    #[test]
    fn exact_metrics_gate_both_directions() {
        let baseline = vec![
            row("full_pipeline_gain", 62.9),
            row("full_pipeline_mna_dim", 124.0),
            row("hybrid_eval", 1000.0),
        ];
        let improved = vec![
            row("full_pipeline_gain", 125.8), // 2x "better" — still a change
            row("full_pipeline_mna_dim", 124.0),
            row("hybrid_eval", 2000.0), // throughput gains never gate
        ];
        let verdicts = evaluate_gate(&baseline, &improved, 0.30);
        assert_eq!(failures(&verdicts), vec!["full_pipeline_gain".to_string()]);
        // Within the symmetric tolerance passes.
        let close = vec![
            row("full_pipeline_gain", 63.5),
            row("full_pipeline_mna_dim", 124.0),
            row("hybrid_eval", 900.0),
        ];
        assert!(failures(&evaluate_gate(&baseline, &close, 0.30)).is_empty());
    }

    /// Inverted metrics (latencies) gate in the opposite direction: a p99
    /// that *rises* past the gate fails, while a drop — which would fail a
    /// throughput row of the same magnitude — is an improvement and passes.
    #[test]
    fn inverted_metrics_gate_on_rises_not_drops() {
        let baseline = vec![row("serve_p99_ms", 100.0), row("hybrid_eval", 1000.0)];
        let slower = vec![
            row("serve_p99_ms", 140.0), // +40 % latency: fails at 30 % gate
            row("hybrid_eval", 1000.0),
        ];
        let verdicts = evaluate_gate(&baseline, &slower, 0.30);
        assert_eq!(failures(&verdicts), vec!["serve_p99_ms".to_string()]);
        let faster = vec![
            row("serve_p99_ms", 50.0), // −50 %: a win, never gates
            row("hybrid_eval", 1000.0),
        ];
        assert!(failures(&evaluate_gate(&baseline, &faster, 0.30)).is_empty());
        let slightly_slower = vec![
            row("serve_p99_ms", 120.0), // +20 %: within the gate
            row("hybrid_eval", 1000.0),
        ];
        assert!(failures(&evaluate_gate(&baseline, &slightly_slower, 0.30)).is_empty());
    }

    /// Real regressions on shared metrics still gate.
    #[test]
    fn regressions_on_shared_metrics_fail() {
        let baseline = vec![row("dc_solve", 1000.0), row("hybrid_eval", 1000.0)];
        let current = vec![
            row("dc_solve", 650.0),    // −35 %: fails at 30 % gate
            row("hybrid_eval", 750.0), // −25 %: within gate
        ];
        let verdicts = evaluate_gate(&baseline, &current, 0.30);
        assert_eq!(failures(&verdicts), vec!["dc_solve".to_string()]);
    }
}
