//! The benchmark's self-tests, at a tiny size: every workload emits every
//! metric `BENCHMARK.json` names, with its unit; comparing reports refuses
//! runs that did different work; the command line fails cleanly.

use std::process::Command;

use regbench::{report, run, Config, Workload};
use regpipe_exec::json::{parse, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric of a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    let list = bench.get(section).and_then(Value::as_array).expect("metric list");
    list.iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric of a summary line, checking each value
/// is a finite number.
fn emitted(summary: &str) -> Vec<(String, String)> {
    let doc = parse(summary).expect("the summary line is JSON");
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics in {summary}")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_names_every_workload() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&Config::tiny(workload, 3), 0.05, traced, None)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                report.correct(),
                "{} traced={traced}: {:?}",
                workload.name(),
                report.failures
            );
            let summary = report.summary();
            assert_eq!(
                emitted(&summary),
                declared(section),
                "{} traced={traced}",
                workload.name()
            );
            let doc = parse(&summary).expect("JSON");
            let Value::Object(pairs) = &doc else { panic!("not an object") };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn deterministic_metrics_and_call_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let once =
            || run(&Config::tiny(workload, 5), 0.02, false, None).expect("tiny run").to_json();
        let (a, b) = (once(), once());
        assert_eq!(a.get("work"), b.get("work"), "{}", workload.name());
        for name in ["ii_cycles", "mem_refs", "fit_share", "ok_share"] {
            let value = |r: &Value| {
                r.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")).cloned()
            };
            assert_eq!(value(&a), value(&b), "{} {name}", workload.name());
        }
    }
}

#[test]
fn comparison_refuses_runs_that_did_different_work() {
    let tiny = |cfg: &Config| run(cfg, 0.02, false, None).expect("tiny run").to_json();
    let base = Config::tiny(Workload::PaperSuite, 3);
    let a = tiny(&base);
    assert!(report::compare(&a, &tiny(&base)).is_ok());

    let other_seed = tiny(&Config::tiny(Workload::PaperSuite, 4));
    let refusal = report::compare(&a, &other_seed).expect_err("seeds differ");
    assert!(refusal.contains("config.seed"), "{refusal}");

    let fewer_budgets = tiny(&Config { budgets: vec![64], ..base.clone() });
    let refusal = report::compare(&a, &fewer_budgets).expect_err("budgets differ");
    assert!(refusal.contains("config.budgets") && refusal.contains("work.ops"), "{refusal}");

    // Same configuration, different work: a counter that moved refuses too.
    let mut doctored = a.clone();
    if let Value::Object(top) = &mut doctored {
        let work = top.iter_mut().find(|(k, _)| k == "work").map(|(_, v)| v).expect("work");
        if let Value::Object(counters) = work {
            counters[0].1 = Value::Int(1);
        }
    }
    let refusal = report::compare(&a, &doctored).expect_err("work differs");
    assert!(refusal.contains("work.ops"), "{refusal}");
}

#[test]
fn compare_reads_saved_standard_output() {
    let stdout = |seed: u64| {
        let report = run(&Config::tiny(Workload::PaperSuite, seed), 0.02, false, None)
            .expect("tiny run");
        let path = format!("{}/stdout-{seed}.txt", env!("CARGO_TARGET_TMPDIR"));
        let text = format!("{}\n{}\n", report.to_json().render(), report.summary());
        std::fs::write(&path, text).expect("writable target dir");
        path
    };
    let (a, b, other) = (stdout(3), stdout(3), stdout(4));
    let compare = |x: &str, y: &str| {
        Command::new(env!("CARGO_BIN_EXE_regbench"))
            .args(["compare", x, y])
            .output()
            .expect("runs")
    };
    let same = compare(&a, &b);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stderr));
    assert!(String::from_utf8_lossy(&same.stdout).contains("ops_per_s"));
    let refused = compare(&a, &other);
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("config.seed"));
}

#[test]
fn traced_spans_are_written_with_valid_parents() {
    let mut spans = String::new();
    let report = run(&Config::tiny(Workload::SpillHeavy, 3), 0.02, true, Some(&mut spans))
        .expect("tiny run");
    assert!(report.correct(), "{:?}", report.failures);
    let lines: Vec<Value> =
        spans.lines().map(|l| parse(l).expect("span line is JSON")).collect();
    assert!(!lines.is_empty());
    for (i, span) in lines.iter().enumerate() {
        let field = |k: &str| span.get(k).and_then(Value::as_i64);
        assert_eq!(field("id"), Some(i as i64));
        assert!(field("end_ns") >= field("start_ns"));
        if let Some(parent) = field("parent") {
            assert!((parent as usize) < i, "a parent precedes its children");
        } else {
            assert_eq!(span.get("name").and_then(Value::as_str), Some("core.compile"));
        }
    }
}

#[test]
fn the_command_fails_cleanly_on_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_regbench");
    for args in [
        &["--seed", "1"][..],
        &["--workload", "nope", "--seconds", "1", "--trace", "0"],
        &["--trace", "2"],
    ] {
        let out = Command::new(bin).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
