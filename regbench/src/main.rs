//! Command line of the regpipe benchmark.
//!
//! ```text
//! regbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! regbench compare <before-stdout> <after-stdout>
//! ```
//!
//! A run prints its full report (fingerprint included) as one JSON line,
//! then the one-line result `{"correct","attempted","failed","metrics"}`
//! last. It exits 0 when every output check passed, 1 when one failed,
//! and 2 on a usage or set-up error, without a result. `compare` reads
//! two runs' saved standard output and compares their reports.

use std::process::ExitCode;

use regbench::{report, run, Config, Workload, DEFAULT_SEED};
use regpipe_exec::json::{parse, Value};

const USAGE: &str = "usage: regbench --workload <paper-suite|spill-heavy|serve-repeat> \
--seed <n> --seconds <s> --trace <0|1> [--spans <file>]
       regbench compare <before-stdout> <after-stdout>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("regbench: {e}");
        ExitCode::from(2)
    })
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut spans_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--spans" => spans_path = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seconds = seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?;
    let mut spans = spans_path.as_ref().map(|_| String::new());
    let report = run(&Config::new(workload, seed), seconds, traced, spans.as_mut())?;
    let full = report.to_json().render();
    if let (Some(path), Some(spans)) = (&spans_path, &spans) {
        std::fs::write(path, spans).map_err(|e| format!("{path}: {e}"))?;
    }
    for failure in report.failures.iter().take(20) {
        eprintln!("regbench: check failed: {failure}");
    }
    println!("{full}");
    println!("{}", report.summary());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [before, after] = args else { return Err(USAGE.into()) };
    // The report is the next-to-last line of a run's standard output.
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let report = lines
            .len()
            .checked_sub(2)
            .map(|i| lines[i])
            .ok_or_else(|| format!("{path}: not the standard output of a run"))?;
        parse(report).map_err(|e| format!("{path}: {e}"))
    };
    match report::compare(&load(before)?, &load(after)?) {
        Ok(table) => {
            print!("{table}");
            Ok(ExitCode::SUCCESS)
        }
        Err(refusal) => {
            eprintln!("regbench: {refusal}");
            Ok(ExitCode::FAILURE)
        }
    }
}
