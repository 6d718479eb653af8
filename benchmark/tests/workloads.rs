//! One short library call per workload: every one is correct, reports
//! every metric of its table, and repeats its simulated counts exactly.

use std::path::PathBuf;
use std::time::Duration;

use brainsim_benchmark::report::{Report, END_TO_END, PER_LAYER};
use brainsim_benchmark::{run_workload, Options, WORKLOADS};

fn short(name: &str, salt: u32, trace: bool) -> Report {
    let options = Options {
        salt,
        // The fixed count window sets the length; the clock adds nothing.
        budget: Duration::from_millis(1),
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    run_workload(name, &options).expect("a workload of the table")
}

fn note<'a>(report: &'a Report, key: &str) -> &'a str {
    let (_, value) = report.notes.iter().find(|(k, _)| *k == key).unwrap();
    value
}

#[test]
fn every_workload_is_correct_and_reports_every_end_to_end_metric() {
    for (name, _) in WORKLOADS {
        let report = short(name, 0, false);
        assert!(report.correct, "{name}");
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted >= 1, "{name}");
        let (lines, json) = (report.lines(), report.json());
        for spec in END_TO_END {
            let m = report.metrics.iter().find(|m| m.spec.name == spec.name);
            let m = m.unwrap_or_else(|| panic!("{name} lacks {}", spec.name));
            assert!(m.value > 0.0, "{name}: {} is {}", spec.name, m.value);
            assert!(lines.contains(&format!("\n{} ", spec.name)), "{name}");
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", spec.name)));
        }
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!json.contains('\n'));
    }
}

#[test]
fn simulated_counts_repeat_exactly_and_follow_the_seed() {
    for name in [
        "telemetry_32x32_sparse",
        "lifecycle_compile",
        "serve_fleet8",
    ] {
        let (a, b, other) = (
            short(name, 3, false),
            short(name, 3, false),
            short(name, 4, false),
        );
        assert!(a.correct && b.correct && other.correct, "{name}");
        for key in ["checksum", "window_counts"] {
            assert_eq!(note(&a, key), note(&b, key), "{name}: {key}");
        }
        assert_ne!(note(&a, "checksum"), note(&other, "checksum"), "{name}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_workload(
        "no_such_workload",
        &Options {
            salt: 0,
            budget: Duration::from_millis(1),
            trace: false,
            out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        }
    )
    .is_none());
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    let report = short("telemetry_32x32_sparse", 0, true);
    assert!(report.correct);
    let json = report.json();
    for spec in PER_LAYER {
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", spec.name)),
            "{}",
            spec.name
        );
    }
    for spec in END_TO_END {
        assert!(
            !json.contains(&format!("\"{}\"", spec.name)),
            "{}",
            spec.name
        );
    }
    let share: f64 = report
        .metrics
        .iter()
        .filter(|m| m.spec.name.starts_with("share."))
        .map(|m| m.value)
        .sum();
    assert!((share - 100.0).abs() < 1e-6, "shares add up to {share}");
    let trace =
        std::fs::read_to_string(concat!(env!("CARGO_TARGET_TMPDIR"), "/trace.jsonl")).unwrap();
    assert!(trace.lines().count() > 1000);
    assert!(trace
        .lines()
        .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
}
