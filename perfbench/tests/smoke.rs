//! Smoke-sized runs of every workload, untraced and traced, so the
//! benchmark cannot rot: each must verify its outputs and report exactly
//! the metrics `BENCHMARK.json` declares.

use atomio_perfbench::{nproc, run, Args, RunReport, Sizes, Workload};
use serde::Value;

/// A few ops per trial, one trial (two when traced).
fn smoke(workload: Workload) -> Sizes {
    let full = workload.sizes();
    Sizes {
        rounds: full.rounds.min(2),
        reads_per_client: full.reads_per_client.min(1),
        blobs_per_tenant: full.blobs_per_tenant.min(16),
        min_trials: 1,
    }
}

fn contract() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(contract: &Value, key: &str) -> Vec<String> {
    match contract.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item.get("name") {
                Some(Value::Str(name)) => name.clone(),
                other => panic!("{key} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
    }
}

fn check(report: &RunReport, expected: &[String], what: &str) {
    assert!(
        report.correct,
        "{what} failed: {:?}\n{}",
        report.problems, report.text
    );
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.attempted > 0, "{what}");
    let got: Vec<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
    assert_eq!(
        got, expected,
        "{what}: metric names differ from BENCHMARK.json"
    );
    assert!(
        report.metrics.iter().all(|(_, v, _)| v.is_finite()),
        "{what}: {:?}",
        report.metrics
    );

    // The result line is one JSON object with exactly the contract keys.
    let line: Value = serde_json::from_str(&report.json()).expect("result line parses");
    let Value::Object(fields) = &line else {
        panic!("result line is not an object: {line:?}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{what}");
}

#[test]
fn every_workload_verifies_and_reports_the_declared_metrics() {
    let contract = contract();
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");
    assert_eq!(
        names(&contract, "workloads"),
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json lists every workload"
    );
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                host_cpus: nproc(),
                pinned_cpu: None,
            };
            let report = run(&args, smoke(workload));
            let what = format!("{} trace={trace}", workload.name());
            check(&report, if trace { &per_layer } else { &end_to_end }, &what);
        }
    }
}

#[test]
fn traced_spans_reconcile_with_their_ops() {
    let args = Args {
        workload: Workload::TileAtomic,
        seed: 3,
        seconds: 0.0,
        trace: true,
        host_cpus: nproc(),
        pinned_cpu: None,
    };
    let report = run(&args, smoke(Workload::TileAtomic));
    assert!(report.correct, "{:?}", report.problems);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("no metric {name}"))
    };
    // Every tile write puts its 128 rows and publishes one version.
    assert!(value("provider.puts_per_write") >= 128.0);
    assert_eq!(value("meta.put_batch_calls_per_write"), 1.0);
    // Self times plus the remainder account for every op exactly.
    assert_eq!(value("trace.unattributed_share"), 0.0);
    let shares =
        value("core.write_self_share") + value("provider.write_share") + value("meta.write_share");
    assert!(
        shares <= 1.0 + 1e-9,
        "children cover more than the op: {shares}"
    );
}
