//! Golden-output test for the `regpipe` binary: drives `info`, `compile
//! --strategy best`, and `suite` on the paper's running example and asserts
//! byte-stable output. Because the whole pipeline is deterministic (see
//! `tests/determinism.rs`), any drift here is a behavior change, not noise.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use regpipe::ddg::textfmt;
use regpipe::loops::paper;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regpipe"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regpipe-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Write the paper's running example (`x(i) = y(i)*a + y(i-3)`, Fig. 2) in
/// the text format and return the path.
fn example_ddg(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("fig2.ddg");
    fs::write(&path, textfmt::format(&paper::example_loop())).expect("write ddg");
    path
}

fn run_ok(mut cmd: Command) -> Output {
    let out = cmd.output().expect("spawn regpipe");
    assert!(
        out.status.success(),
        "regpipe failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

#[test]
fn info_reports_the_paper_example_facts() {
    let dir = scratch_dir("info");
    let ddg = example_ddg(&dir);
    let out = run_ok({
        let mut c = bin();
        c.arg("info").arg(&ddg);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "loop 'fig2': 4 ops, 4 edges, 1 invariants\n\
         op mix: 1 load, 1 store, 1 add, 1 mul\n\
         machine P2L4: ResMII-bound MII = 1, RecMII = 1\n\
         recurrences: 0\n\
         unconstrained schedule: II = 1, SC = 11, registers = 18 (MaxLive 18)\n"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compile_best_meets_an_8_register_budget_on_the_example() {
    let dir = scratch_dir("compile");
    let ddg = example_ddg(&dir);
    let out = run_ok({
        let mut c = bin();
        c.arg("compile").arg(&ddg).args(["--strategy", "best", "--regs", "8"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "fig2: II = 2 (MII 1), registers = 8/8, spilled = 2, strategy = Spill\n\
         \n\
         kernel: II=2, SC=6\n\
         \x20\x20\x20\x200: Ld[0] Ld.l0[0] *[1]\n\
         \x20\x20\x20\x201: Ld.l1[2] +[3] St[5]\n\
         \n"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn suite_emits_a_parseable_deterministic_corpus() {
    let dir = scratch_dir("suite");
    let corpus_a = dir.join("a");
    let corpus_b = dir.join("b");
    for corpus in [&corpus_a, &corpus_b] {
        let out = run_ok({
            let mut c = bin();
            c.args(["suite", "--size", "3", "--seed", "7", "--dir"]).arg(corpus);
            c
        });
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, format!("wrote 3 loops to {}/\n", corpus.display()));
    }
    for i in 0..3 {
        let name = format!("stream_{i:04}.ddg");
        let a = fs::read_to_string(corpus_a.join(&name)).expect("corpus file");
        let b = fs::read_to_string(corpus_b.join(&name)).expect("corpus file");
        // Same seed, same bytes — and the body after the weight header must
        // parse back into a well-formed graph.
        assert_eq!(a, b, "{name} differs between identical-seed runs");
        let body = a.split_once('\n').expect("weight header").1;
        let g = textfmt::parse(body).expect("corpus file parses");
        assert!(g.validate().is_ok());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_and_bad_inputs_fail_cleanly() {
    let out = bin().arg("frobnicate").output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin().args(["compile", "/nonexistent/no.ddg"]).output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Regression: `help`/`--help` used to print a one-line usage to stderr.
/// The full per-subcommand usage (including `--jobs`) must go to stdout
/// with exit 0, and nothing to stderr.
#[test]
fn help_prints_full_usage_to_stdout() {
    for invocation in [&["help"][..], &["--help"], &["-h"]] {
        let out = bin().args(invocation).output().expect("spawn regpipe");
        assert!(out.status.success(), "{invocation:?} must exit 0");
        assert!(out.stderr.is_empty(), "{invocation:?} must not write to stderr");
        let stdout = String::from_utf8(out.stdout).unwrap();
        for needle in ["regpipe info", "regpipe compile", "regpipe suite", "--jobs"] {
            assert!(stdout.contains(needle), "{invocation:?} output missing '{needle}'");
        }
    }
    // No arguments behaves like help.
    let out = bin().output().expect("spawn regpipe");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--jobs"));
    // Per-subcommand narrowing.
    let out = bin().args(["help", "compile"]).output().expect("spawn regpipe");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--strategy"));
    assert!(!stdout.contains("regpipe info"), "narrowed help shows one subcommand");
}

/// The scheduler axis: `help suite` / `help bench` document `--scheduler`,
/// and unknown scheduler names are a hard error on stderr with exit 1 on
/// every verb that accepts the flag.
#[test]
fn scheduler_flag_is_documented_and_strictly_validated() {
    for topic in ["suite", "bench", "compile", "info"] {
        let out = bin().args(["help", topic]).output().expect("spawn regpipe");
        assert!(out.status.success(), "help {topic} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("--scheduler"), "help {topic} must document --scheduler");
        assert!(stdout.contains("hrms|sms|asap|exact"), "help {topic} must list the registry");
    }
    let dir = scratch_dir("sched-flag");
    let ddg = example_ddg(&dir);
    let ddg_str = ddg.to_str().unwrap();
    for args in [
        &["suite", "--size", "3", "--scheduler", "warp"][..],
        &["bench", "--sizes", "4", "--count", "1", "--scheduler", "warp"],
        &["compile", ddg_str, "--scheduler", "warp"],
        &["info", ddg_str, "--scheduler", "warp"],
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("==="));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown scheduler 'warp'"), "{args:?}: {stderr}");
        assert!(stderr.contains("hrms"), "{args:?} must name the registry: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The spill-policy axis (ISSUE 10): `help` documents `--spill-policy`
/// with the full registry on every verb that accepts it, and unknown
/// policy names are a hard error on stderr with exit 1.
#[test]
fn spill_policy_flag_is_documented_and_strictly_validated() {
    for topic in ["suite", "bench", "compile", "info", "gap"] {
        let out = bin().args(["help", topic]).output().expect("spawn regpipe");
        assert!(out.status.success(), "help {topic} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("--spill-policy"), "help {topic} must document --spill-policy");
        assert!(stdout.contains("min-next-use"), "help {topic} must list the registry");
    }
    let dir = scratch_dir("policy-flag");
    let ddg = example_ddg(&dir);
    let ddg_str = ddg.to_str().unwrap();
    for args in [
        &["suite", "--size", "3", "--spill-policy", "warp"][..],
        &["bench", "--sizes", "4", "--count", "1", "--spill-policy", "warp"],
        &["compile", ddg_str, "--spill-policy", "warp"],
        &["info", ddg_str, "--spill-policy", "warp"],
        &["gap", "--count", "2", "--spill-policy", "warp"],
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown spill policy 'warp'"), "{args:?}: {stderr}");
        assert!(stderr.contains("min-next-use"), "{args:?} must name the registry: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every registered spill policy drives `suite` end-to-end; the report
/// records the policy (v3 schema) and stays byte-identical across
/// `--jobs` for every policy — the CLI half of the ISSUE acceptance.
#[test]
fn suite_records_every_policy_and_is_jobs_invariant_per_policy() {
    let dir = scratch_dir("policy-suite");
    for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
        let mut reports = Vec::new();
        for jobs in ["1", "4"] {
            let json_path = dir.join(format!("{policy}-{jobs}.json"));
            run_ok({
                let mut c = bin();
                c.args(["suite", "--size", "4", "--seed", "11", "--jobs", jobs])
                    .args(["--spill-policy", policy, "--out"])
                    .arg(&json_path)
                    .stdout(std::process::Stdio::null());
                c
            });
            reports.push(fs::read_to_string(&json_path).expect("report emitted"));
        }
        assert_eq!(reports[0], reports[1], "{policy}: BENCH_suite.json differs across --jobs");
        assert!(
            reports[0].contains(&format!("\"spill_policy\":\"{policy}\"")),
            "{policy} not recorded:\n{}",
            reports[0]
        );
        assert!(reports[0].contains("\"schema\":\"regpipe-bench-suite/v3\""), "{}", reports[0]);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every registered scheduler drives `info` end-to-end on the paper
/// example; the register-insensitive baseline needs at least as many
/// registers as the register-sensitive schedulers.
#[test]
fn info_reports_every_scheduler_on_the_example() {
    let dir = scratch_dir("info-sched");
    let ddg = example_ddg(&dir);
    let mut regs = Vec::new();
    for scheduler in ["hrms", "sms", "asap", "exact"] {
        let out = run_ok({
            let mut c = bin();
            c.arg("info").arg(&ddg).args(["--scheduler", scheduler]);
            c
        });
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = stdout
            .lines()
            .find(|l| l.starts_with("unconstrained schedule"))
            .unwrap_or_else(|| panic!("{scheduler}: no schedule line in {stdout}"));
        assert!(line.contains("II = 1,"), "{scheduler}: {line}");
        let n: u32 = line
            .split("registers = ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| panic!("{scheduler}: unparsable {line}"));
        regs.push(n);
    }
    let (hrms, sms, asap) = (regs[0], regs[1], regs[2]);
    assert!(hrms <= asap, "hrms {hrms} regs must not exceed asap {asap}");
    assert!(sms <= asap, "sms {sms} regs must not exceed asap {asap}");
    let _ = fs::remove_dir_all(&dir);
}

/// The `gap` verb end-to-end: documented in help, knobs validated, and
/// the report carries its schema with a nonzero proven count on a small
/// default-budget corpus.
#[test]
fn gap_verb_is_documented_validated_and_proves_small_kernels() {
    let out = run_ok({
        let mut c = bin();
        c.args(["help", "gap"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["--node-budget", "--corpus", "regpipe-bench-gap/v2", "--spill-budget"] {
        assert!(stdout.contains(needle), "help gap missing '{needle}'");
    }
    for (args, needle) in [
        (&["gap", "--node-budget", "nope"][..], "--node-budget"),
        (&["gap", "--count", "0"], "--count"),
        (&["gap", "--max-ops", "1"], "--max-ops"),
        (&["gap", "--corpus", "d", "--seed", "9"], "--seed does not apply"),
        (&["gap", "--corpus"], "--corpus needs a directory"),
        (&["gap", "--spill-budget", "0"], "--spill-budget"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let dir = scratch_dir("gap-run");
    let json_path = dir.join("gap.json");
    let out = run_ok({
        let mut c = bin();
        c.args(["gap", "--count", "10", "--jobs", "2", "--out"]).arg(&json_path);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("proven optimal:"), "{stdout}");
    assert!(stdout.contains("spill policies (budget"), "{stdout}");
    let report = fs::read_to_string(&json_path).expect("report written");
    let doc = regpipe::exec::json::parse(&report).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(regpipe::exec::json::Value::as_str),
        Some("regpipe-bench-gap/v2")
    );
    for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
        assert!(
            report.contains(&format!("\"policy\":\"{policy}\"")),
            "gap report must cover every registered policy:\n{report}"
        );
    }
    let proven = doc.get("proven").and_then(regpipe::exec::json::Value::as_i64).unwrap();
    assert!(proven > 0, "default budget must prove small kernels:\n{report}");
    let _ = fs::remove_dir_all(&dir);
}

/// `suite` without `--dir` runs the batch engine: stdout and the emitted
/// `BENCH_suite.json` must be byte-identical for any `--jobs` value, and
/// the JSON must parse.
#[test]
fn suite_run_is_byte_identical_across_job_counts() {
    let dir = scratch_dir("suite-run");
    let mut outputs = Vec::new();
    for jobs in ["1", "3"] {
        let json_path = dir.join(format!("report-{jobs}.json"));
        let out = run_ok({
            let mut c = bin();
            c.args(["suite", "--size", "5", "--seed", "11", "--jobs", jobs, "--out"])
                .arg(&json_path);
            c
        });
        let report = fs::read_to_string(&json_path).expect("report emitted");
        regpipe::exec::json::parse(&report).expect("report parses");
        outputs.push((String::from_utf8(out.stdout).unwrap(), report));
    }
    let stdout_1 = &outputs[0].0;
    let stdout_3 = &outputs[1].0;
    // The report path differs between the two runs; compare stdout modulo
    // that one line.
    let strip =
        |s: &str| s.lines().filter(|l| !l.starts_with("wrote ")).collect::<Vec<_>>().join("\n");
    assert_eq!(strip(stdout_1), strip(stdout_3), "stdout differs across --jobs");
    assert_eq!(outputs[0].1, outputs[1].1, "BENCH_suite.json differs across --jobs");
    assert!(stdout_1.contains("suite evaluation"));
    let _ = fs::remove_dir_all(&dir);
}

/// The new workload funnel end-to-end: `gen` materializes a corpus
/// byte-reproducibly, `check` validates it, and `suite --corpus` compiles
/// it with worker-count-independent results (ISSUE 3 acceptance).
#[test]
fn gen_check_and_suite_corpus_are_deterministic() {
    let dir = scratch_dir("gen-corpus");
    let corpus_a = dir.join("a");
    let corpus_b = dir.join("b");
    for corpus in [&corpus_a, &corpus_b] {
        let out = run_ok({
            let mut c = bin();
            c.args(["gen", "--seed", "7", "--count", "20", "--out"]).arg(corpus);
            c
        });
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("wrote 20 kernels to {}/ (seed 7)\n", corpus.display())
        );
    }
    // Same seed, same bytes, for every file of the corpus.
    for i in 0..20 {
        let name = format!("gen_{i:05}.ddg");
        let a = fs::read_to_string(corpus_a.join(&name)).expect("corpus file");
        let b = fs::read_to_string(corpus_b.join(&name)).expect("corpus file");
        assert_eq!(a, b, "{name} differs between identical-seed runs");
        assert!(a.starts_with("# weight "), "{name} carries a weight header");
    }
    // `check` accepts the generated corpus.
    let out = run_ok({
        let mut c = bin();
        c.arg("check").arg(&corpus_a);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OK"), "{stdout}");
    assert!(stdout.contains("loops:   20"), "{stdout}");
    // `suite --corpus` is byte-identical across worker counts.
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let json_path = dir.join(format!("report-{jobs}.json"));
        run_ok({
            let mut c = bin();
            c.args(["suite", "--jobs", jobs, "--corpus"])
                .arg(&corpus_a)
                .arg("--out")
                .arg(&json_path);
            c
        });
        let report = fs::read_to_string(&json_path).expect("report emitted");
        regpipe::exec::json::parse(&report).expect("report parses");
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "corpus BENCH_suite.json differs across --jobs");
    let _ = fs::remove_dir_all(&dir);
}

/// A corpus's `.mach` file selects the machine; an explicit `--machine`
/// flag still wins.
#[test]
fn corpus_machine_description_is_honoured() {
    let dir = scratch_dir("corpus-mach");
    let corpus = dir.join("c");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "3", "--count", "2", "--out"]).arg(&corpus);
        c
    });
    fs::write(corpus.join("machine.mach"), "machine M9\nunits mem 2\nlatency add 9\n")
        .expect("write mach");
    let out = run_ok({
        let mut c = bin();
        c.args(["suite", "--jobs", "1", "--corpus"])
            .arg(&corpus)
            .arg("--out")
            .arg(dir.join("r.json"));
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("machine M9"), "corpus machine used:\n{stdout}");
    let out = run_ok({
        let mut c = bin();
        c.args(["suite", "--jobs", "1", "--machine", "p1l4", "--corpus"])
            .arg(&corpus)
            .arg("--out")
            .arg(dir.join("r2.json"));
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("machine P1L4"), "--machine overrides corpus:\n{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// `check` on a broken corpus lists every problem as file:line: message
/// and fails.
#[test]
fn check_reports_file_and_line_for_every_problem() {
    let dir = scratch_dir("check-bad");
    let corpus = dir.join("c");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "3", "--count", "2", "--out"]).arg(&corpus);
        c
    });
    fs::write(corpus.join("broken.ddg"), "loop b\nop x add\nedge x -> y reg 0\n")
        .expect("write bad ddg");
    fs::write(corpus.join("m.mach"), "units warp 9\n").expect("write bad mach");
    let out = bin().arg("check").arg(&corpus).output().expect("spawn regpipe");
    assert!(!out.status.success(), "broken corpus must fail check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.ddg:3: unknown op 'y'"), "{stderr}");
    assert!(stderr.contains("m.mach:1: unknown class 'warp'"), "{stderr}");
    assert!(stderr.contains("has 2 errors"), "{stderr}");
    // `suite --corpus` on the same directory fails with the same detail.
    let out = bin().args(["suite", "--corpus"]).arg(&corpus).output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("broken.ddg:3"), "suite names files");
    let _ = fs::remove_dir_all(&dir);
}

/// Generator knobs are validated eagerly with actionable messages.
#[test]
fn gen_rejects_bad_knobs() {
    let dir = scratch_dir("gen-bad");
    for (args, needle) in [
        (&["gen"][..], "missing --out"),
        (&["gen", "--out", "x", "--count", "0"], "--count"),
        (&["gen", "--out", "x", "--min-ops", "9", "--max-ops", "4"], "max_ops"),
        (&["gen", "--out", "x", "--rec-density", "1.5"], "recurrence_density"),
        (&["gen", "--out", "x", "--weights", "zipf:3"], "unknown weight distribution"),
    ] {
        let mut c = bin();
        c.args(args).current_dir(&dir);
        let out = c.output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: `suite --corpus` with no directory value (or with
/// synthetic-suite-only flags) used to fall through to the built-in
/// suite silently; it must be a hard error instead.
#[test]
fn suite_corpus_flag_misuse_is_an_error() {
    for (args, needle) in [
        (&["suite", "--corpus"][..], "--corpus needs a directory"),
        (&["suite", "--corpus", "d", "--size", "5"], "--size does not apply"),
        (&["suite", "--corpus", "d", "--seed", "9"], "--seed does not apply"),
        (&["suite", "--corpus", "d", "--dir", "e"], "cannot be combined with --corpus"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// Strict flag validation: a bad `--jobs` or `--size` is a clean error.
#[test]
fn suite_rejects_bad_jobs_and_size() {
    for args in [&["suite", "--size", "5", "--jobs", "0"][..], &["suite", "--size", "nope"]] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must be a positive integer"), "{args:?}: {stderr}");
    }
}

/// Regression: the fallback II ceiling ignored bond staggers, so II relief
/// on a long staggered bond hit the ceiling long before the stage count
/// reached 1 and `compile` failed with the internal message
/// `requested II range [7, 6] is empty`. A `reg!+5` bond always compiled;
/// a `reg!+500` bond must compile too.
#[test]
fn compile_handles_long_staggered_bonds() {
    let dir = scratch_dir("stagger");
    for (stagger, summary) in [
        (5, "anonymous: II = 1 (MII 1), registers = 9/32, spilled = 0, strategy = Spill\n"),
        (500, "anonymous: II = 16 (MII 1), registers = 32/32, spilled = 0, strategy = Spill\n"),
    ] {
        let ddg = dir.join(format!("bond{stagger}.ddg"));
        fs::write(&ddg, format!("op a add\nop b store\nedge a -> b reg!+{stagger}\n"))
            .expect("write ddg");
        let out = run_ok({
            let mut c = bin();
            c.arg("compile").arg(&ddg);
            c
        });
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with(summary), "reg!+{stagger}: {stdout}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The strict flag parser: on every verb, a misspelled flag, a value-taking
/// flag with no value, a repeated flag and an extra positional are errors
/// that name the offending token and run nothing.
#[test]
fn every_verb_rejects_malformed_flags_before_running() {
    let dir = scratch_dir("strict");
    let ddg = example_ddg(&dir);
    let ddg = ddg.to_str().unwrap();
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "3", "--count", "2", "--out", "corpus"]).current_dir(&dir);
        c
    });
    // A cheap valid invocation per verb and one value flag it accepts.
    let verbs: [(&[&str], &[&str]); 11] = [
        (&["info", ddg], &["--machine", "p2l4"]),
        (&["compile", ddg], &["--regs", "8"]),
        (&["suite", "--size", "2", "--jobs", "1", "--out", "r.json"], &["--budgets", "32"]),
        (&["gen", "--count", "2", "--out", "g"], &["--seed", "3"]),
        (&["check", "corpus"], &[]),
        (&["bench", "--sizes", "4", "--count", "1", "--out", "b.json"], &["--seed", "3"]),
        (&["gap", "--count", "2", "--jobs", "1", "--out", "g.json"], &["--seed", "3"]),
        (&["serve"], &["--shards", "2"]),
        (&["replay", "--count", "2", "--jobs", "1"], &["--seed", "3"]),
        (&["chaos", "--cycles", "1", "--count", "4", "--jobs", "1"], &["--seed", "3"]),
        (
            &["bench-serve", "--count", "2", "--repeat", "1", "--out", "s.json"],
            &["--seed", "3"],
        ),
    ];
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for (base, flag) in verbs {
        cases.push(([base, &["--cuont", "3"]].concat(), "--cuont"));
        cases.push(([base, &["extra-arg"]].concat(), "extra-arg"));
        if let [name, _] = flag {
            cases.push(([base, &[name]].concat(), name));
            cases.push(([base, flag, flag].concat(), name));
        }
    }
    cases.push((vec!["suite", "--size", "2", "--out", "--jobs", "1"], "--out"));
    for (args, needle) in cases {
        let out =
            bin().args(&args).current_dir(&dir).stdin(std::process::Stdio::null()).output();
        let out = out.expect("spawn regpipe");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {stderr}");
        assert!(stderr.contains(needle), "{args:?} must name {needle}: {stderr}");
        assert!(stderr.contains(&format!("regpipe help {}", args[0])), "{args:?}: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("==="), "{args:?} ran");
    }
    assert!(!dir.join("--jobs").exists(), "`--out --jobs` wrote a file named --jobs");
    let _ = fs::remove_dir_all(&dir);
}

/// The positional may come anywhere, and list entries are trimmed alike on
/// every list flag: equivalent spellings give byte-equal output.
#[test]
fn equivalent_spellings_give_identical_output() {
    let dir = scratch_dir("spellings");
    let ddg = example_ddg(&dir);
    let ddg = ddg.to_str().unwrap();
    for (a, b) in [
        (&["compile", "--regs", "4", ddg][..], &["compile", ddg, "--regs", "4"][..]),
        (
            &["suite", "--size", "2", "--jobs", "1", "--budgets", "64, 32", "--out", "a.json"],
            &["suite", "--size", "2", "--jobs", "1", "--budgets", "64,32", "--out", "a.json"],
        ),
    ] {
        let run = |args: &[&str]| {
            let out = run_ok({
                let mut c = bin();
                c.args(args).current_dir(&dir);
                c
            });
            (out.stdout, fs::read(dir.join("a.json")).ok())
        };
        assert_eq!(run(a), run(b), "{a:?} vs {b:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// `help <verb>` names an unknown verb as an error, and `help replay`
/// lists the daemon flags an in-process replay reads.
#[test]
fn help_rejects_unknown_verbs_and_documents_replay_daemon_flags() {
    let out = bin().args(["help", "bogus"]).output().expect("spawn regpipe");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'bogus'") && stderr.contains("bench-serve"), "{stderr}");
    let out = run_ok({
        let mut c = bin();
        c.args(["help", "replay"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--cache-bytes",
        "--shards",
        "--max-request-bytes",
        "--deadline-ms",
        "--compact-appends",
        "--drain-ms",
    ] {
        assert!(stdout.contains(flag), "help replay must list {flag}:\n{stdout}");
    }
}

/// The defaults `help` shows are the values a verb runs with, so they must
/// match the library defaults the table restates.
#[test]
fn help_defaults_match_the_library_defaults() {
    let default_of = |verb: &str, flag: &str| {
        let out = run_ok({
            let mut c = bin();
            c.args(["help", verb]);
            c
        });
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // A long flag head wraps its help onto the next line.
        let help = (0..lines.len())
            .filter(|&i| lines[i].starts_with(&format!("  {flag} ")))
            .map(|i| match lines.get(i + 1) {
                Some(next) if next.starts_with("   ") => format!("{} {next}", lines[i]),
                _ => lines[i].to_string(),
            })
            .find(|help| help.contains("(default "))
            .unwrap_or_else(|| panic!("help {verb} shows no default for {flag}"));
        let rest = &help[help.find("(default ").unwrap() + 9..];
        rest[..rest.find(')').unwrap()].to_string()
    };
    let serve = regpipe::serve::ServeOptions::default();
    assert_eq!(default_of("serve", "--cache-bytes"), serve.capacity_bytes.to_string());
    assert_eq!(default_of("serve", "--shards"), serve.shards.to_string());
    assert_eq!(default_of("serve", "--max-request-bytes"), serve.max_request_bytes.to_string());
    assert_eq!(default_of("serve", "--compact-appends"), serve.compact_appends.to_string());
    assert_eq!(default_of("serve", "--drain-ms"), serve.drain_ms.to_string());
    let gen = regpipe::loops::GenParams::default();
    assert_eq!(default_of("gen", "--min-ops"), gen.min_ops.to_string());
    assert_eq!(default_of("gen", "--max-ops"), gen.max_ops.to_string());
    assert_eq!(default_of("gen", "--rec-density"), gen.recurrence_density.to_string());
    assert_eq!(default_of("gen", "--invariants"), gen.max_invariants.to_string());
    assert_eq!(default_of("gen", "--weights").parse(), Ok(gen.weights));
    let bench = regpipe::bench::CompileBenchConfig::default();
    let sizes: Vec<String> = bench.sizes.iter().map(usize::to_string).collect();
    assert_eq!(default_of("bench", "--sizes"), sizes.join(","));
    assert_eq!(default_of("bench", "--count"), bench.count.to_string());
    let serve_bench = regpipe::serve::ServeBenchConfig::default();
    assert_eq!(default_of("bench-serve", "--count"), serve_bench.count.to_string());
    assert_eq!(default_of("bench-serve", "--repeat"), serve_bench.repeat.to_string());
    assert_eq!(
        default_of("gap", "--node-budget"),
        regpipe::sched::DEFAULT_NODE_BUDGET.to_string()
    );
    assert_eq!(
        default_of("gap", "--spill-budget"),
        regpipe::bench::DEFAULT_SPILL_BUDGET.to_string()
    );
    let retry = regpipe::serve::RetryPolicy::default();
    assert_eq!(default_of("replay", "--retry"), retry.attempts.to_string());
    assert_eq!(default_of("replay", "--backoff-ms"), retry.backoff_ms.to_string());
}

/// Scheduler and spill-policy names are declared once, by their registries:
/// the CLI source never spells one out.
#[test]
fn cli_source_spells_no_registry_slug() {
    let source = include_str!("../src/bin/regpipe.rs");
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
    let slugs = regpipe::sched::SchedulerKind::ALL
        .map(|k| k.slug())
        .into_iter()
        .chain(regpipe::spill::SpillPolicyKind::ALL.map(|k| k.slug()));
    for slug in slugs {
        for (at, _) in source.match_indices(slug) {
            let before = source[..at].chars().next_back().is_some_and(is_word);
            let after = source[at + slug.len()..].chars().next().is_some_and(is_word);
            assert!(before || after, "regpipe.rs spells the slug '{slug}' at byte {at}");
        }
    }
}
