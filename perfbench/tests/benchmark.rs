//! The benchmark at reduced size: every metric is emitted with its unit,
//! every correctness check passes, and in the traced run the span self
//! times plus `other` add up to each iteration's wall time.

use std::path::PathBuf;
use std::process::Command;

use iotrace_perfbench::{
    parse_result, run, Options, Outcome, Size, WorkloadName, END_TO_END, PER_LAYER,
};

fn small(workload: WorkloadName, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Small,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-{}-{trace}", workload.as_str())),
    };
    let outcome = run(&opts).expect("benchmark runs");
    assert!(
        outcome.correct(),
        "{}: checks failed: {:?}",
        workload.as_str(),
        outcome.tally.failures
    );
    assert!(outcome.tally.attempted > 0);
    outcome
}

fn assert_metrics(outcome: &Outcome, expected: &[(&str, &str)]) {
    let got: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(got, expected);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in WorkloadName::ALL {
        let outcome = small(w, false);
        assert_metrics(&outcome, &END_TO_END);
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.as_str(), m.name, m.value);
        }
        let line = outcome.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"records_per_s\": {\"value\": "), "{line}");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_account_for_wall_time() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    for w in WorkloadName::ALL {
        let outcome = small(w, true);
        assert_metrics(&outcome, &expected);
        assert!(!outcome.breakdowns.is_empty());
        for b in &outcome.breakdowns {
            assert!(b.wall_ns > 0);
            assert_eq!(b.self_ns.values().sum::<u64>(), b.wall_ns);
            assert_eq!(b.by_layer().values().sum::<u64>(), b.wall_ns);
        }
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        // Each workload drives its own layers.
        let busy = match w {
            WorkloadName::Capture => ["lanl.run_s", "tracefs.encode_s", "replay.run_s"],
            WorkloadName::Analyze => ["lint.run_s", "provenance.build_s", "analysis.merge_s"],
            WorkloadName::Ingest => [
                "collector.drain_s",
                "collector.recover_s",
                "collector.snapshot_s",
            ],
        };
        for name in busy {
            assert!(value(name) > 0.0, "{}: {name} is zero", w.as_str());
        }
    }
}

#[test]
fn all_reports_every_workload_from_a_process_of_its_own() {
    let out = Command::new(env!("CARGO_BIN_EXE_iotrace-perfbench"))
        .args(["--workload", "all", "--seed", "7", "--seconds", "0"])
        .args(["--trace", "0", "--size", "small"])
        .output()
        .expect("the benchmark starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    let all = parse_result(line).expect("a result line");
    assert!(all.correct(), "{line}");
    assert!(all.tally.attempted > 0);
    let expected: Vec<(String, &str)> = WorkloadName::ALL
        .iter()
        .flat_map(|w| {
            END_TO_END
                .iter()
                .map(move |&(n, u)| (format!("{}.{n}", w.as_str()), u))
        })
        .collect();
    let got: Vec<(String, &str)> = all
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(got, expected);
    for m in &all.metrics {
        assert!(m.value > 0.0, "{} = {}", m.name, m.value);
    }
}
