//! The `regpipe` command-line tool: compile loop dependence graphs under a
//! register budget from the terminal, run the batch evaluation suite over
//! the built-in synthetic loops or an on-disk corpus, and generate or
//! validate such corpora.
//!
//! Every verb, its positional argument and its flags are declared once, in
//! [`VERBS`]. One parser ([`parse`]) checks argv against that table and one
//! renderer ([`section`]) prints `regpipe help [command]` from it. Registry
//! flags check, parse and render through the registries themselves, so a
//! new scheduler, spill policy or strategy needs no edit here. The input
//! formats are specified in `docs/formats.md` (`regpipe_ddg::textfmt` for
//! loops, `regpipe_machine::textfmt` for machine descriptions).

use std::collections::BTreeMap;
use std::fs;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

use regpipe::core::{compile, CompileOptions, SpillPolicyKind, Strategy};
use regpipe::ddg::{textfmt, to_dot, Ddg};
use regpipe::exec::{parse_strategy, resolve_jobs, run_batch, strategy_slug, BatchRequest};
use regpipe::loops::{
    generate, load_corpus, suite, suite_size_from_env, write_corpus, BenchLoop, GenParams,
    WeightDist,
};
use regpipe::machine::MachineConfig;
use regpipe::regalloc::allocate;
use regpipe::sched::{mii, rec_mii, PipelinedLoop, SchedRequest, Scheduler, SchedulerKind};
use regpipe::serve::{
    base_requests, replay_in_process, run_serve_bench, serve_stdin, IdPolicy, ReplayConfig,
    ReplaySource, RetryPolicy, ServeBenchConfig, ServeOptions, Server,
};
#[cfg(unix)]
use regpipe::serve::{replay_socket, request_once, run_chaos, write_responses, ChaosConfig};
use regpipe::spill::SelectHeuristic;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        None => help(&[]),
        Some((first, rest)) => match first.as_str() {
            // Help goes to stdout and succeeds; `regpipe help <command>`
            // narrows to one command.
            "--help" | "-h" | "help" => help(rest),
            name => match find_verb(name) {
                Some(verb) => parse(verb, rest).and_then(|args| (verb.run)(&args)),
                None => Err(format!("unknown command '{name}' (see `regpipe help`)")),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("regpipe: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One command: its name and positional metavar as help shows them
/// (`compile <file.ddg>`), what it does, its flags in help order (shared
/// groups spliced in as whole slices) and its body.
struct Verb {
    spec: &'static str,
    about: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), String>,
}

impl Verb {
    fn name(&self) -> &'static str {
        self.spec.split_once(' ').map_or(self.spec, |(name, _)| name)
    }

    fn positional(&self) -> Option<&'static str> {
        self.spec.split_once(' ').map(|(_, metavar)| metavar)
    }

    fn flags(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, name: &str) -> Option<&Flag> {
        self.flags().find(|f| f.name() == name)
    }
}

/// One flag: its spelling and metavar as help shows them (`--regs <n>`),
/// the value kind, the value used when it is absent (`""` for none,
/// checked like a given one) and one line of help.
struct Flag {
    spec: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
}

const fn flag(
    spec: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag { spec, kind, default, help }
}

impl Flag {
    fn name(&self) -> &'static str {
        self.spec.split_once(' ').map_or(self.spec, |(name, _)| name)
    }

    /// The default; registry flags take the registry's own.
    fn default(&self) -> Option<&'static str> {
        match self.kind {
            Kind::Scheduler => Some(SchedulerKind::default().slug()),
            Kind::SpillPolicy => Some(SpillPolicyKind::default().slug()),
            _ => Some(self.default).filter(|d| !d.is_empty()),
        }
    }

    /// The spec, with registry and choice kinds listing their values.
    fn head(&self) -> String {
        let values = match self.kind {
            Kind::Strategy => Strategy::ALL.map(strategy_slug).join("|"),
            Kind::Scheduler => SchedulerKind::ALL.map(SchedulerKind::slug).join("|"),
            Kind::SpillPolicy => SpillPolicyKind::ALL.map(SpillPolicyKind::slug).join("|"),
            Kind::Choice(words) => words.join("|"),
            _ => return self.spec.to_string(),
        };
        format!("{} {values}", self.spec)
    }
}

/// What a flag's value must be; [`Kind::check`] validates a raw value.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    Float,
    /// Comma-separated integers, each in `min..=max`.
    Ints(u64, u64),
    Strategy,
    Strategies,
    Scheduler,
    SpillPolicy,
    Machine,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// A file-system path, named by the noun in errors.
    Path(&'static str),
    /// A generator weight distribution (`WeightDist`'s text form).
    Weights,
}

const USIZE: u64 = usize::MAX as u64;
const U32: u64 = u32::MAX as u64;
const POSITIVE: Kind = Kind::Int(1, USIZE);
const POSITIVE_U64: Kind = Kind::Int(1, u64::MAX);
const U64: Kind = Kind::Int(0, u64::MAX);
const DIR: Kind = Kind::Path("directory");
const FILE: Kind = Kind::Path("file");
const EMIT: Kind = Kind::Choice(&["kernel", "pipeline", "dot", "text"]);

impl Kind {
    fn check(self, flag: &str, raw: &str) -> Result<(), String> {
        match self {
            Kind::Switch | Kind::Path(_) => Ok(()),
            Kind::Int(min, max) => check_int(flag, raw, min, max),
            Kind::Float => raw
                .parse::<f64>()
                .map(drop)
                .map_err(|_| format!("{flag} must be a number, got '{raw}'")),
            Kind::Ints(min, max) => list(raw, |n| check_int(flag, n, min, max)).map(drop),
            Kind::Strategy => parse_strategy(raw).map(drop),
            Kind::Strategies => list(raw, parse_strategy).map(drop),
            Kind::Scheduler => SchedulerKind::parse(raw).map(drop),
            Kind::SpillPolicy => SpillPolicyKind::parse(raw).map(drop),
            Kind::Machine => MachineConfig::parse_spec(raw).map(drop),
            Kind::Weights => raw.parse::<WeightDist>().map(drop),
            Kind::Choice(words) if words.contains(&raw) => Ok(()),
            Kind::Choice(words) => {
                Err(format!("unknown {flag} '{raw}' (expected {})", words.join("|")))
            }
        }
    }
}

fn check_int(flag: &str, raw: &str, min: u64, max: u64) -> Result<(), String> {
    if raw.parse().is_ok_and(|n: u64| (min..=max).contains(&n)) {
        return Ok(());
    }
    let what = match min {
        _ if max < USIZE => format!("an integer from {min} to {max}"),
        0 => "a non-negative integer".into(),
        1 => "a positive integer".into(),
        _ => format!("an integer >= {min}"),
    };
    Err(format!("{flag} must be {what}, got '{raw}'"))
}

/// Parses a comma-separated list; every flag's entries are trimmed alike.
fn list<T, E>(raw: &str, item: impl Fn(&str) -> Result<T, E>) -> Result<Vec<T>, E> {
    raw.split(',').map(|entry| item(entry.trim())).collect()
}

// Flags shared by several verbs, declared once with a default per verb.

const MACHINE: Flag =
    flag("--machine <m>", Kind::Machine, "p2l4", "p1l4|p2l4|p2l6|uniform:<units>,<latency>");
const SCHEDULER: Flag = flag("--scheduler", Kind::Scheduler, "", "core modulo scheduler");
const STRATEGY: Flag = flag("--strategy", Kind::Strategy, "best", "reduction strategy");
const STRATEGIES: Flag =
    flag("--strategies <list>", Kind::Strategies, "best,spill,increase-ii", "strategies");
const JOBS: Flag =
    flag("--jobs <n>", POSITIVE, "", "worker threads (default: REGPIPE_JOBS, then all cores)");
const NO_CACHE: Flag = flag("--no-cache", Kind::Switch, "", "disable the result cache");

const fn spill_policy(help: &'static str) -> Flag {
    flag("--spill-policy", Kind::SpillPolicy, "", help)
}

const fn budgets(default: &'static str) -> Flag {
    flag("--budgets <list>", Kind::Ints(0, U32), default, "register budgets")
}

/// The daemon configuration, read through [`serve_options`] by `serve`
/// and by in-process `replay`.
const DAEMON: &[Flag] = &[
    NO_CACHE,
    flag("--cache-bytes <n>", POSITIVE, "67108864", "total cache budget in bytes"),
    flag("--shards <n>", POSITIVE, "8", "cache shards"),
    flag("--max-request-bytes <n>", POSITIVE, "1048576", "per-line request bound"),
    flag("--cache-dir <dir>", DIR, "", "persist the cache to a crash-safe append log"),
    flag("--compact-appends <n>", POSITIVE_U64, "8192", "appends between compactions"),
    flag("--deadline-ms <n>", POSITIVE_U64, "", "per-compile cooperative deadline"),
    flag("--drain-ms <n>", POSITIVE_U64, "2000", "shutdown drain bound"),
];

/// Every verb, in help order.
static VERBS: &[Verb] = &[
    Verb {
        spec: "info <file.ddg>",
        about: "  Facts about a loop: op mix, MII/RecMII, recurrences, and the
  unconstrained schedule's II and register requirement.
",
        flags: &[&[MACHINE, SCHEDULER, spill_policy("checked; the schedule never spills")]],
        run: cmd_info,
    },
    Verb {
        spec: "compile <file.ddg>",
        about: "  Schedule a loop under a register budget.
",
        flags: &[&[
            MACHINE,
            flag("--regs <n>", Kind::Int(0, U32), "32", "register budget"),
            STRATEGY,
            SCHEDULER,
            flag("--heuristic", Kind::Choice(&["lt", "lt-traf"]), "lt-traf", "Max(LT)[/Traf]"),
            spill_policy("victim-ranking policy for spilling"),
            flag("--emit", EMIT, "kernel", "what to print after the summary"),
        ]],
        run: cmd_compile,
    },
    Verb {
        spec: "suite",
        about: "  Run the evaluation suite: every loop x budget x strategy cell is an
  independent compile call, fanned out across worker threads with deterministic
  results, and the report is written as JSON (BENCH_suite.json schema v3). With
  --corpus, run an on-disk corpus (see `regpipe gen`/`check`); its .mach file
  sets the machine unless --machine is given. With --dir, emit the archetype-mix
  suite as .ddg files instead (default size 100).
",
        flags: &[&[
            flag("--corpus <dir>", DIR, "", "run an on-disk corpus"),
            flag("--dir <dir>", DIR, "", "emit the suite as .ddg files"),
            flag("--size <n>", POSITIVE, "", "suite size (default: REGPIPE_SUITE_SIZE, 1258)"),
            flag("--seed <s>", U64, "49626", "suite seed"),
            JOBS,
            MACHINE,
            budgets("64,32"),
            STRATEGIES,
            SCHEDULER,
            spill_policy("victim-ranking policy, recorded in the report"),
            flag("--out <file>", FILE, "BENCH_suite.json", "report path"),
        ]],
        run: cmd_suite,
    },
    Verb {
        spec: "gen",
        about: "  Materialize a synthetic-kernel corpus as .ddg files (with # weight
  headers). Deterministic: the same seed and knobs reproduce the corpus
  byte-for-byte, and a larger --count extends a smaller one in place. The
  --weights forms are const:<w>, uniform:<lo>,<hi> and log:<lo>,<hi> (10^U(lo,hi)).
",
        flags: &[&[
            flag("--out <dir>", DIR, "", "output directory (required)"),
            flag("--seed <s>", U64, "49626", "generator seed"),
            flag("--count <k>", POSITIVE, "100", "number of kernels"),
            flag("--min-ops <n>", POSITIVE, "4", "fewest ops per kernel"),
            flag("--max-ops <n>", POSITIVE, "24", "most ops per kernel"),
            flag("--rec-density <f>", Kind::Float, "0.25", "recurrence probability per op"),
            flag("--invariants <n>", Kind::Int(0, USIZE), "4", "most invariants per kernel"),
            flag("--weights <d>", Kind::Weights, "log:2,4.2", "weight distribution"),
        ]],
        run: cmd_gen,
    },
    Verb {
        spec: "check <dir>",
        about: "  Validate a corpus directory without compiling: parse every .ddg and
  .mach file, reporting every problem as file:line: message. Exits 0
  only if the whole corpus is well-formed.
",
        flags: &[],
        run: cmd_check,
    },
    Verb {
        spec: "bench",
        about: "  Wall-time the full compile path (schedule/allocate/spill/reschedule) over
  seeded `gen` corpora at several kernel sizes and write the result as JSON
  (schema regpipe-bench-compile/v3). By default only deterministic work counters
  are emitted so runs byte-compare; REGPIPE_BENCH_TIMING=1 runs the sampling loop
  and adds mean_wall_us per size (see docs/performance.md). --before records a
  previous timed report's mean_wall_us per size plus the speedup.
",
        flags: &[&[
            flag("--sizes <list>", Kind::Ints(2, USIZE), "16,48,96,160,256", "op counts"),
            flag("--count <k>", POSITIVE, "12", "kernels per size"),
            flag("--seed <s>", U64, "49626", "generator seed"),
            MACHINE,
            budgets("64,32"),
            STRATEGIES,
            SCHEDULER,
            spill_policy("victim-ranking policy for spilling"),
            flag("--before <file>", FILE, "", "a previous timed BENCH_compile.json"),
            flag("--out <file>", FILE, "BENCH_compile.json", "report path"),
        ]],
        run: cmd_bench,
    },
    Verb {
        spec: "gap",
        about: "  Measure heuristic optimality gaps: schedule a corpus with the
  branch-and-bound oracle and every registered heuristic, and write BENCH_gap.json
  (schema regpipe-bench-gap/v2) with per-loop and aggregate II/SC/MaxLive gaps plus
  proven/unproven counts. Gaps count only loops whose optimum the oracle proved
  within its node budget. Every loop is also compiled under --spill-budget once per
  registered spill policy; the spill_policies section totals spills and IIs with
  deltas against the --spill-policy baseline (over the loops every policy fitted).
  The report has no timing fields, so runs byte-compare at any --jobs value. With
  --corpus, gap an on-disk corpus; its .mach file sets the machine unless
  --machine is given.
",
        flags: &[&[
            flag("--corpus <dir>", DIR, "", "gap an on-disk corpus"),
            flag("--seed <s>", U64, "7", "generator seed"),
            flag("--count <k>", POSITIVE, "100", "kernels"),
            flag("--max-ops <n>", Kind::Int(2, USIZE), "12", "most ops per kernel"),
            MACHINE,
            flag("--node-budget <n>", U64, "200000", "oracle search nodes per loop"),
            spill_policy("baseline of the per-policy deltas"),
            flag("--spill-budget <n>", Kind::Int(1, U32), "16", "per-policy register budget"),
            JOBS,
            flag("--out <file>", FILE, "BENCH_gap.json", "report path"),
        ]],
        run: cmd_gap,
    },
    Verb {
        spec: "serve",
        about: "  Run the persistent compile daemon: JSON-lines requests on stdin, or a unix
  socket with --socket, answered from a sharded content-addressed LRU result
  cache, falling through to the compile engine on miss. Responses are
  byte-identical with the cache on or off. A blown --deadline-ms answers with
  error.kind \"deadline\". Protocol spec: docs/serve.md.
",
        flags: &[
            &[flag("--socket <path>", Kind::Path("path"), "", "listen on a unix socket")],
            DAEMON,
            &[spill_policy("for requests that omit the spill_policy field")],
        ],
        run: cmd_serve,
    },
    Verb {
        spec: "replay",
        about: "  Drive a deterministic request stream at a compile daemon and print the
  response stream (in request order) to stdout. --jobs counts client
  connections with --socket; without it an in-process daemon, configured
  by the `serve` flags at the end, serves the run on --jobs workers.
  --file lines are sent verbatim (their ids are yours to manage).
",
        flags: &[
            &[
                flag("--socket <path>", Kind::Path("path"), "", "a running `serve --socket`"),
                flag("--source", Kind::Choice(&["gen", "suite"]), "gen", "workload source"),
                flag("--seed <s>", U64, "49626", "workload seed"),
                flag("--count <k>", POSITIVE, "100", "kernels (gen) / loops (suite)"),
                flag("--file <path>", FILE, "", "replay raw request lines from a file"),
                flag("--repeat <n>", POSITIVE, "1", "passes; pass 2+ exercise the cache"),
                JOBS,
                budgets("32"),
                STRATEGY,
                SCHEDULER,
                spill_policy("sent with every request"),
                MACHINE,
                flag("--retry <n>", Kind::Int(1, U32), "1", "attempts per request (socket)"),
                flag("--backoff-ms <n>", U64, "50", "base retry backoff, seeded jitter"),
                flag("--stats-out <file>", FILE, "", "write the daemon's final stats JSON"),
                flag("--shutdown", Kind::Switch, "", "stop the daemon after the run (socket)"),
            ],
            DAEMON,
        ],
        run: cmd_replay,
    },
    Verb {
        spec: "chaos",
        about: "  The deterministic crash-recovery gate: spawn real daemons on a shared
  --cache-dir, inject seeded faults (a compile panic, a flipped bit, a torn
  append, a mid-write crash) across --cycles inject-crash-restart cycles, and
  verify after every recovery that the workload replays byte-identically to a
  never-crashed baseline over --jobs connections. Prints a summary JSON (schema
  regpipe-chaos/v1) on success; any deviation fails the run.
",
        flags: &[&[
            flag("--socket <path>", Kind::Path("path"), "", "daemon socket (default: temp)"),
            flag("--cache-dir <dir>", DIR, "", "persistent cache (default: temp)"),
            flag("--cycles <n>", Kind::Int(1, U32), "3", "inject-crash-restart cycles"),
            flag("--seed <s>", U64, "7", "workload and fault-schedule seed"),
            flag("--count <k>", Kind::Int(4, USIZE), "12", "workload kernels"),
            JOBS,
            budgets("32"),
            STRATEGY,
            SCHEDULER,
            spill_policy("sent with every request"),
            MACHINE,
            flag("--out <file>", FILE, "", "write the final replay's response lines"),
        ]],
        run: cmd_chaos,
    },
    Verb {
        spec: "bench-serve",
        about: "  Benchmark the daemon: drive a generated corpus through an in-process server
  for --repeat passes and write BENCH_serve.json (schema regpipe-bench-serve/v2)
  with request totals, cache hit/miss/eviction counters and the hit rate. Only
  deterministic fields by default, so runs byte-compare; REGPIPE_BENCH_TIMING=1
  adds throughput (compiles/sec) and p50/p99 request latencies.
",
        flags: &[&[
            flag("--seed <s>", U64, "49626", "generator seed"),
            flag("--count <k>", POSITIVE, "100", "kernels"),
            flag("--repeat <n>", POSITIVE, "2", "passes"),
            budgets("64,32"),
            STRATEGY,
            SCHEDULER,
            spill_policy("sent with every request"),
            MACHINE,
            JOBS,
            NO_CACHE,
            flag("--out <file>", FILE, "BENCH_serve.json", "report path"),
        ]],
        run: cmd_bench_serve,
    },
];

fn find_verb(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|v| v.name() == name)
}

/// `regpipe help [command]`: the full usage, or one verb's section.
fn help(topics: &[String]) -> Result<(), String> {
    let names: Vec<&str> = VERBS.iter().map(Verb::name).collect();
    let text = match topics {
        [] => format!(
            "usage: regpipe <{}|help> ...\n\n{}\n\
             Unknown, repeated or value-less flags and extra arguments are errors.\n\
             The on-disk formats (.ddg loops, .mach machine descriptions, corpus\n\
             directory layout) are specified in docs/formats.md; the serve wire\n\
             protocol in docs/serve.md.\n",
            names.join("|"),
            VERBS.iter().map(section).collect::<Vec<_>>().join("\n")
        ),
        [topic] => section(find_verb(topic).ok_or_else(|| {
            format!("help: unknown command '{topic}' (commands: {})", names.join(", "))
        })?),
        _ => return Err("help: takes at most one command".into()),
    };
    print!("{text}");
    Ok(())
}

/// One verb's help, rendered from its table entry.
fn section(verb: &Verb) -> String {
    const COLUMN: usize = 26;
    let options = if verb.flags().next().is_some() { " [options]" } else { "" };
    let mut text = format!("regpipe {}{options}\n{}", verb.spec, verb.about);
    for flag in verb.flags() {
        let head = format!("  {}", flag.head());
        let mut line = flag.help.to_string();
        if let Some(default) = flag.default() {
            line += &format!(" (default {default})");
        }
        if head.len() < COLUMN {
            text += &format!("{head:<COLUMN$}{line}\n");
        } else {
            text += &format!("{head}\n{:COLUMN$}{line}\n", "");
        }
    }
    text
}

/// One verb's command line, checked against its [`Verb`] entry.
struct Args {
    verb: &'static Verb,
    positional: Option<String>,
    /// The raw value of every flag given (`""` for a switch).
    given: BTreeMap<&'static str, String>,
}

/// Checks `argv` against `verb`'s table entry. Unknown and repeated flags,
/// value-taking flags without a value and extra positionals are errors
/// naming the verb; the positional may appear anywhere.
fn parse(verb: &'static Verb, argv: &[String]) -> Result<Args, String> {
    let name = verb.name();
    let misuse = |what: String| format!("{name}: {what} (see `regpipe help {name}`)");
    let mut args = Args { verb, positional: None, given: BTreeMap::new() };
    let mut tokens = argv.iter().peekable();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            if verb.positional().is_none() || args.positional.is_some() {
                return Err(misuse(format!("unexpected argument '{token}'")));
            }
            args.positional = Some(token.clone());
            continue;
        }
        let flag = verb.flag(token).ok_or_else(|| misuse(format!("unknown flag {token}")))?;
        let value = match flag.kind {
            Kind::Switch => String::new(),
            kind => {
                let noun = if let Kind::Path(noun) = kind { noun } else { "value" };
                let raw = tokens.next_if(|raw| !raw.starts_with("--"));
                let raw = raw.ok_or_else(|| misuse(format!("{token} needs a {noun}")))?;
                kind.check(token, raw)?;
                raw.clone()
            }
        };
        if args.given.insert(flag.name(), value).is_some() {
            return Err(misuse(format!("{token} is given twice")));
        }
    }
    Ok(args)
}

impl Args {
    fn positional(&self) -> Result<&str, String> {
        let (name, metavar) = (self.verb.name(), self.verb.positional().unwrap_or_default());
        self.positional.as_deref().ok_or_else(|| format!("{name}: missing {metavar}"))
    }

    /// Whether the flag was given on the command line.
    fn has(&self, name: &str) -> bool {
        match self.verb.flag(name) {
            Some(_) => self.given.contains_key(name),
            None => unchecked(name),
        }
    }

    /// The flag's raw value, given or defaulted; `None` when it is absent
    /// and has no default.
    fn opt_text(&self, name: &str) -> Option<&str> {
        let flag = self.verb.flag(name).unwrap_or_else(|| unchecked(name));
        self.given.get(name).map(String::as_str).or_else(|| flag.default())
    }

    fn text(&self, name: &str) -> &str {
        self.opt_text(name).unwrap_or_else(|| unchecked(name))
    }

    /// Parses a value [`parse`] has already checked.
    fn read<T, E>(&self, name: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        parse(self.text(name)).unwrap_or_else(|_| unchecked(name))
    }

    fn get<T: FromStr>(&self, name: &str) -> T {
        self.read(name, str::parse)
    }

    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.opt_text(name).map(|_| self.get(name))
    }

    fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        self.read(name, |raw| list(raw, str::parse))
    }

    /// `--jobs`, else `REGPIPE_JOBS`, else every core.
    fn jobs(&self) -> Result<NonZeroUsize, String> {
        self.opt("--jobs").map_or_else(|| resolve_jobs(None), Ok)
    }
}

/// A verb read a flag its table entry does not declare, or as a type its
/// kind does not check: a defect in this file, never a user error.
fn unchecked(name: &str) -> ! {
    panic!("{name} is read in a way its table entry does not check")
}

fn read_file(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load(path: &str) -> Result<Ddg, String> {
    textfmt::parse_named(&read_file(path)?, path).map_err(|e| e.to_string())
}

/// Whether `REGPIPE_BENCH_TIMING=1` opts into wall-clock report fields.
fn timing_enabled() -> bool {
    std::env::var("REGPIPE_BENCH_TIMING").is_ok_and(|v| v == "1")
}

fn write_report(path: &str, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let g = load(args.positional()?)?;
    let machine = args.read("--machine", MachineConfig::parse_spec);
    println!(
        "loop '{}': {} ops, {} edges, {} invariants",
        g.name(),
        g.num_ops(),
        g.num_edges(),
        g.num_invariants()
    );
    let hist = g.kind_histogram();
    let labels = ["load", "store", "add", "mul", "div", "sqrt", "copy"];
    let mix: Vec<String> = labels
        .iter()
        .zip(hist.iter())
        .filter(|(_, &c)| c > 0)
        .map(|(l, c)| format!("{c} {l}"))
        .collect();
    println!("op mix: {}", mix.join(", "));
    println!(
        "machine {}: ResMII-bound MII = {}, RecMII = {}",
        machine.name(),
        mii(&g, &machine),
        rec_mii(&g, &machine)
    );
    let recs = regpipe::ddg::algo::recurrences(&g);
    println!("recurrences: {}", recs.len());
    let s = args
        .read("--scheduler", SchedulerKind::parse)
        .schedule(&g, &machine, &SchedRequest::default())
        .map_err(|e| e.to_string())?;
    let a = allocate(&g, &s);
    println!(
        "unconstrained schedule: II = {}, SC = {}, registers = {} (MaxLive {})",
        s.ii(),
        s.stage_count(),
        a.total(),
        a.max_live()
    );
    Ok(())
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let g = load(args.positional()?)?;
    let machine = args.read("--machine", MachineConfig::parse_spec);
    let regs: u32 = args.get("--regs");
    let mut options = CompileOptions {
        strategy: args.read("--strategy", parse_strategy),
        scheduler: args.read("--scheduler", SchedulerKind::parse),
        ..CompileOptions::default()
    };
    options.spill.heuristic = match args.text("--heuristic") {
        "lt" => SelectHeuristic::MaxLt,
        _ => SelectHeuristic::MaxLtOverTraffic,
    };
    options.spill.policy = args.read("--spill-policy", SpillPolicyKind::parse);

    let compiled = compile(&g, &machine, regs, &options).map_err(|e| e.to_string())?;
    println!(
        "{}: II = {} (MII {}), registers = {}/{}, spilled = {}, strategy = {:?}",
        g.name(),
        compiled.ii(),
        mii(&g, &machine),
        compiled.registers_used(),
        regs,
        compiled.spilled(),
        compiled.strategy_used()
    );
    match args.text("--emit") {
        "kernel" => println!("\n{}", compiled.kernel()),
        "pipeline" => {
            println!("\n{}", PipelinedLoop::new(compiled.ddg(), compiled.schedule()));
        }
        "dot" => println!("{}", to_dot(compiled.ddg())),
        _ => println!("{}", textfmt::format(compiled.ddg())),
    }
    Ok(())
}

/// An on-disk corpus and its machine; an explicit `--machine` wins over
/// the corpus's `.mach` file. The `synthetic` flags shape a generated
/// workload only, so accepting them here would silently run a different
/// workload than the user asked for.
fn corpus(
    args: &Args,
    dir: &str,
    synthetic: &[&str],
) -> Result<(Vec<BenchLoop>, MachineConfig), String> {
    if let Some(flag) = synthetic.iter().find(|flag| args.has(flag)) {
        return Err(format!("{flag} does not apply to --corpus (the directory decides)"));
    }
    let corpus = load_corpus(dir).map_err(|e| format!("corpus {dir} is invalid:\n{e}"))?;
    let machine = match corpus.machine {
        Some(machine) if !args.has("--machine") => machine,
        _ => args.read("--machine", MachineConfig::parse_spec),
    };
    Ok((corpus.loops, machine))
}

fn cmd_suite(args: &Args) -> Result<(), String> {
    if let Some(dir) = args.opt_text("--corpus") {
        if args.has("--dir") {
            return Err("--dir (corpus emission) cannot be combined with --corpus".into());
        }
        let (loops, machine) = corpus(args, dir, &["--size", "--seed"])?;
        return run_suite(args, machine, loops, &format!("corpus {dir}"));
    }
    let (seed, size) = (args.get("--seed"), args.opt("--size"));
    match args.opt_text("--dir") {
        // Corpus emission keeps its historical default of 100 files.
        Some(dir) => {
            let loops = suite(seed, size.unwrap_or(100));
            write_corpus(dir, &loops)?;
            println!("wrote {} loops to {dir}/", loops.len());
            Ok(())
        }
        None => {
            // Run mode shares the harness's REGPIPE_SUITE_SIZE default so
            // the CI smoke path sizes the run with one env variable.
            let loops = suite(seed, size.map_or_else(suite_size_from_env, Ok)?);
            let machine = args.read("--machine", MachineConfig::parse_spec);
            run_suite(args, machine, loops, &format!("seed {seed}"))
        }
    }
}

/// `suite` run mode: every cell through the batch engine.
fn run_suite(
    args: &Args,
    machine: MachineConfig,
    loops: Vec<BenchLoop>,
    label: &str,
) -> Result<(), String> {
    let scheduler = args.read("--scheduler", SchedulerKind::parse);
    let mut options = CompileOptions { scheduler, ..CompileOptions::default() };
    options.spill.policy = args.read("--spill-policy", SpillPolicyKind::parse);
    let req = BatchRequest {
        machine,
        budgets: args.list("--budgets"),
        strategies: args.read("--strategies", |raw| list(raw, parse_strategy)),
        options,
        jobs: args.jobs()?,
    };
    let report = run_batch(&loops, &req);

    println!(
        "=== suite evaluation: {} loops ({label}), machine {}, scheduler {} ===",
        report.suite_size, report.machine, report.scheduler
    );
    println!(
        "{:<8} {:<12} {:>7} {:>7} {:>12} {:>12} {:>9} {:>9}",
        "budget", "strategy", "fitted", "failed", "Mcycles", "Mmem-refs", "spilled", "resched"
    );
    for agg in report.aggregates() {
        println!(
            "{:<8} {:<12} {:>7} {:>7} {:>12.1} {:>12.1} {:>9} {:>9}",
            agg.budget,
            agg.strategy.map_or("?", strategy_slug),
            agg.fitted,
            agg.failures,
            agg.cycles as f64 / 1e6,
            agg.memory_refs as f64 / 1e6,
            agg.spilled,
            agg.reschedules
        );
    }
    // The JSON report keeps only deterministic fields by default so runs
    // byte-compare across --jobs values; REGPIPE_BENCH_TIMING=1 opts into
    // per-cell wall times. Timing for humans goes to stderr, off the
    // byte-comparable stream.
    write_report(args.text("--out"), &report.to_json(timing_enabled()))?;
    eprintln!(
        "compiled {} cells with {} jobs in {:.2}s",
        report.cells.len(),
        report.jobs,
        report.total_wall.as_secs_f64()
    );
    Ok(())
}

/// `regpipe gen`: materialize a knob-controlled synthetic corpus on disk.
fn cmd_gen(args: &Args) -> Result<(), String> {
    let dir = args.opt_text("--out").ok_or("gen: missing --out directory")?;
    let seed: u64 = args.get("--seed");
    let params = GenParams {
        min_ops: args.get("--min-ops"),
        max_ops: args.get("--max-ops"),
        recurrence_density: args.get("--rec-density"),
        max_invariants: args.get("--invariants"),
        weights: args.get("--weights"),
    };
    let loops = generate(seed, args.get("--count"), &params)?;
    write_corpus(dir, &loops)?;
    println!("wrote {} kernels to {dir}/ (seed {seed})", loops.len());
    Ok(())
}

/// `regpipe bench`: wall-time the compile path over generated corpora.
fn cmd_bench(args: &Args) -> Result<(), String> {
    let config = regpipe::bench::CompileBenchConfig {
        seed: args.get("--seed"),
        count: args.get("--count"),
        sizes: args.list("--sizes"),
        budgets: args.list("--budgets"),
        strategies: args.read("--strategies", |raw| list(raw, parse_strategy)),
        scheduler: args.read("--scheduler", SchedulerKind::parse),
        spill_policy: args.read("--spill-policy", SpillPolicyKind::parse),
        machine: args.read("--machine", MachineConfig::parse_spec),
        timed: timing_enabled(),
    };
    let before = match args.opt_text("--before") {
        Some(path) => Some(
            regpipe::exec::json::parse(&read_file(path)?)
                .map_err(|e| format!("{path} is not valid JSON: {e}"))?,
        ),
        None => None,
    };

    let report =
        regpipe::bench::run_compile_bench(&config).map_err(|e| format!("bench: {e}"))?;
    println!(
        "=== compile-path bench: machine {}, scheduler {}, {} kernels/size, budgets {:?} ===",
        config.machine.name(),
        config.scheduler,
        config.count,
        config.budgets
    );
    println!(
        "{:<6} {:>6} {:>7} {:>7} {:>12} {:>9} {:>9}  mean wall",
        "ops", "cells", "fitted", "failed", "cycles", "spilled", "resched"
    );
    for p in &report.points {
        let wall = p.measurement.map_or_else(
            || "(untimed)".to_string(),
            |m| format!("{:.2} ms x{}", m.mean_nanos() as f64 / 1e6, m.iters),
        );
        println!(
            "{:<6} {:>6} {:>7} {:>7} {:>12} {:>9} {:>9}  {wall}",
            p.ops, p.cells, p.fitted, p.failures, p.cycles, p.spilled, p.reschedules
        );
    }
    write_report(args.text("--out"), &report.to_json(before.as_ref()))
}

/// `regpipe gap`: heuristic optimality gaps against the branch-and-bound
/// oracle.
fn cmd_gap(args: &Args) -> Result<(), String> {
    let (loops, machine, source) = if let Some(dir) = args.opt_text("--corpus") {
        let (loops, machine) = corpus(args, dir, &["--seed", "--count", "--max-ops"])?;
        (loops, machine, format!("corpus:{dir}"))
    } else {
        // Small kernels by default: the oracle's search space grows fast
        // with op count, and the gap corpus is about proof coverage, not
        // stress volume.
        let (seed, count, max_ops): (u64, usize, usize) =
            (args.get("--seed"), args.get("--count"), args.get("--max-ops"));
        let defaults = GenParams::default();
        let params = GenParams { min_ops: defaults.min_ops.min(max_ops), max_ops, ..defaults };
        let loops = generate(seed, count, &params)?;
        let machine = args.read("--machine", MachineConfig::parse_spec);
        (loops, machine, format!("gen:seed={seed},count={count},max_ops={max_ops}"))
    };

    let config = regpipe::bench::GapConfig {
        machine,
        node_budget: args.get("--node-budget"),
        jobs: args.jobs()?,
        source,
        spill_policy: args.read("--spill-policy", SpillPolicyKind::parse),
        spill_budget: args.get("--spill-budget"),
    };
    let report = regpipe::bench::run_gap(&loops, &config);
    let proven = report.proven();
    println!(
        "=== optimality gaps: {} loops ({}), machine {}, node budget {} ===",
        report.loops.len(),
        config.source,
        config.machine.name(),
        config.node_budget
    );
    println!(
        "proven optimal: {proven}/{} loops ({} search nodes)",
        report.loops.len(),
        report.nodes_total()
    );
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>16}",
        "sched", "II-optimal", "sum II gap", "sum SC gap", "sum MaxLive gap"
    );
    for a in report.aggregates() {
        println!(
            "{:<8} {:>7}/{proven} {:>12} {:>12} {:>16}",
            a.scheduler.slug(),
            a.ii_optimal,
            a.ii_gap_total,
            a.sc_gap_total,
            a.max_live_gap_total
        );
    }
    println!(
        "spill policies (budget {}, {} comparable loops, deltas vs {}):",
        config.spill_budget,
        report.spill_comparable(),
        config.spill_policy
    );
    println!(
        "{:<18} {:>7} {:>12} {:>9} {:>10} {:>7}",
        "policy", "fitted", "sum spilled", "d-spill", "sum II", "d-II"
    );
    for a in report.spill_aggregates() {
        println!(
            "{:<18} {:>7} {:>12} {:>+9} {:>10} {:>+7}",
            a.policy.slug(),
            a.fitted,
            a.spilled_total,
            a.spilled_delta,
            a.ii_total,
            a.ii_delta
        );
    }
    write_report(args.text("--out"), &report.to_json())
}

/// `regpipe check`: validate a corpus directory without compiling.
fn cmd_check(args: &Args) -> Result<(), String> {
    let dir = args.positional()?;
    let corpus = match load_corpus(dir) {
        Ok(corpus) => corpus,
        Err(e) => {
            for file_error in &e.errors {
                eprintln!("{file_error}");
            }
            let n = e.errors.len();
            return Err(format!("corpus {dir} has {n} error{}", if n == 1 { "" } else { "s" }));
        }
    };
    let ops: usize = corpus.loops.iter().map(|l| l.ddg.num_ops()).sum();
    let machine = corpus
        .machine
        .as_ref()
        .map_or_else(|| "none (default applies)".to_string(), |m| m.to_string());
    println!("corpus {dir}: OK");
    println!("  loops:   {} ({ops} ops total)", corpus.loops.len());
    println!("  machine: {machine}");
    Ok(())
}

/// The daemon configuration from the [`DAEMON`] flags.
fn serve_options(args: &Args) -> ServeOptions {
    ServeOptions {
        cache: !args.has("--no-cache"),
        capacity_bytes: args.get("--cache-bytes"),
        shards: args.get("--shards"),
        max_request_bytes: args.get("--max-request-bytes"),
        cache_dir: args.opt_text("--cache-dir").map(std::path::PathBuf::from),
        deadline_ms: args.opt("--deadline-ms"),
        compact_appends: args.get("--compact-appends"),
        drain_ms: args.get("--drain-ms"),
        default_spill_policy: args.read("--spill-policy", SpillPolicyKind::parse),
    }
}

/// `regpipe serve`: the persistent compile daemon.
fn cmd_serve(args: &Args) -> Result<(), String> {
    // A malformed fault plan is a configuration error, not "no faults".
    regpipe::serve::fault::validate_env()?;
    let server = Server::open(serve_options(args))?;
    match args.opt_text("--socket") {
        None => serve_stdin(&server).map_err(|e| format!("serve: {e}")),
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!("regpipe serve: listening on {path}");
                regpipe::serve::serve_socket(&server, std::path::Path::new(path))
                    .map_err(|e| format!("serve: cannot listen on {path}: {e}"))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("serve: --socket requires a unix platform".into())
            }
        }
    }
}

/// The per-request options `replay` and `chaos` send with every line.
fn replay_config(args: &Args) -> ReplayConfig {
    ReplayConfig {
        budgets: args.list("--budgets"),
        strategy: args.read("--strategy", parse_strategy),
        scheduler: args.read("--scheduler", SchedulerKind::parse),
        spill_policy: args.read("--spill-policy", SpillPolicyKind::parse),
        machine_spec: Some(args.text("--machine").to_string()),
    }
}

/// `regpipe replay`: drive a request stream at a daemon.
fn cmd_replay(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("--seed");
    let count: usize = args.get("--count");
    let repeat: usize = args.get("--repeat");
    let jobs = args.jobs()?;
    let config = replay_config(args);
    let (source, ids) = match (args.opt_text("--file"), args.text("--source")) {
        (Some(path), _) => (ReplaySource::File(path.to_string()), IdPolicy::Verbatim),
        (None, "gen") => (ReplaySource::Gen { seed, count }, IdPolicy::Stream),
        (None, _) => (ReplaySource::Suite { seed, size: count }, IdPolicy::Stream),
    };
    let base = base_requests(&source, &config)?;
    if base.is_empty() {
        return Err("replay: empty request stream".into());
    }
    let retry = RetryPolicy {
        attempts: args.get("--retry"),
        backoff_ms: args.get("--backoff-ms"),
        seed,
    };

    let (outcome, stats) = match args.opt_text("--socket") {
        None => {
            let server = Server::open(serve_options(args))?;
            let outcome = replay_in_process(&server, &base, repeat, jobs, ids);
            (outcome, server.stats_payload())
        }
        Some(path) => {
            #[cfg(unix)]
            {
                let path = std::path::Path::new(path);
                let outcome = replay_socket(path, &base, repeat, jobs, ids, retry)
                    .map_err(|e| format!("replay: {e}"))?;
                let stats = request_once(path, "{\"op\":\"stats\"}")
                    .map_err(|e| format!("replay: stats request failed: {e}"))?;
                if args.has("--shutdown") {
                    request_once(path, "{\"op\":\"shutdown\"}")
                        .map_err(|e| format!("replay: shutdown request failed: {e}"))?;
                }
                (outcome, stats)
            }
            #[cfg(not(unix))]
            {
                let _ = (path, retry);
                return Err("replay: --socket requires a unix platform".into());
            }
        }
    };

    // Responses in request order: the byte-comparable stream.
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    for line in &outcome.responses {
        writeln!(out, "{line}").map_err(|e| format!("replay: {e}"))?;
    }
    out.flush().map_err(|e| format!("replay: {e}"))?;
    if let Some(path) = args.opt_text("--stats-out") {
        fs::write(path, format!("{stats}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "replayed {} requests ({} x {repeat} passes) in {:.2}s",
        outcome.responses.len(),
        base.len(),
        outcome.wall_us as f64 / 1e6
    );
    Ok(())
}

/// `regpipe chaos`: the deterministic crash-recovery gate.
#[cfg(unix)]
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let pid = std::process::id();
    let path_or_temp = |flag, temp: String| {
        args.opt_text(flag).map_or_else(|| std::env::temp_dir().join(temp), Into::into)
    };
    let socket = path_or_temp("--socket", format!("regpipe-chaos-{pid}.sock"));
    let scratch_cache = !args.has("--cache-dir");
    let cache_dir = path_or_temp("--cache-dir", format!("regpipe-chaos-cache-{pid}"));
    let config = ChaosConfig {
        exe: std::env::current_exe()
            .map_err(|e| format!("chaos: cannot locate the regpipe binary: {e}"))?,
        socket,
        cache_dir,
        cycles: args.get("--cycles"),
        seed: args.get("--seed"),
        count: args.get("--count"),
        jobs: args.jobs()?,
        replay: replay_config(args),
    };
    let result = run_chaos(&config);
    if scratch_cache {
        let _ = fs::remove_dir_all(&config.cache_dir);
    }
    let report = result?;
    if let Some(path) = args.opt_text("--out") {
        write_responses(std::path::Path::new(path), &report.final_responses)?;
    }
    println!("{}", report.render_json());
    Ok(())
}

/// `regpipe chaos` spawns daemons over unix sockets.
#[cfg(not(unix))]
fn cmd_chaos(_args: &Args) -> Result<(), String> {
    Err("chaos: requires a unix platform".into())
}

/// `regpipe bench-serve`: benchmark the daemon and write `BENCH_serve.json`.
fn cmd_bench_serve(args: &Args) -> Result<(), String> {
    let config = ServeBenchConfig {
        seed: args.get("--seed"),
        count: args.get("--count"),
        repeat: args.get("--repeat"),
        budgets: args.list("--budgets"),
        strategy: args.read("--strategy", parse_strategy),
        scheduler: args.read("--scheduler", SchedulerKind::parse),
        spill_policy: args.read("--spill-policy", SpillPolicyKind::parse),
        machine_spec: args.text("--machine").to_string(),
        jobs: args.jobs()?,
        cache: !args.has("--no-cache"),
        timed: timing_enabled(),
    };
    let report = run_serve_bench(&config).map_err(|e| format!("bench-serve: {e}"))?;
    println!(
        "=== serve bench: {} kernels x {:?} budgets x {} passes, machine {}, scheduler {} ===",
        config.count, config.budgets, config.repeat, config.machine_spec, config.scheduler
    );
    println!(
        "requests {}  fitted {}  failed {}  hits {}  misses {}  evictions {}  hit rate {:.2}%",
        report.requests,
        report.fitted,
        report.failed,
        report.hits,
        report.misses,
        report.evictions,
        report.hit_rate * 100.0
    );
    if let Some(t) = &report.timing {
        eprintln!(
            "wall {:.2}s, {:.0} compiles/sec, p50 {} us, p99 {} us ({} jobs)",
            t.total_wall_us as f64 / 1e6,
            t.compiles_per_sec,
            t.p50_us,
            t.p99_us,
            config.jobs
        );
    }
    write_report(args.text("--out"), &format!("{}\n", report.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every verb's flags are distinct and every declared default checks.
    #[test]
    fn the_table_is_well_formed() {
        for verb in VERBS {
            let mut names: Vec<&str> = verb.flags().map(Flag::name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), verb.flags().count(), "{}: duplicate flag", verb.name());
            for flag in verb.flags() {
                if let Some(default) = flag.default() {
                    assert!(flag.kind.check(flag.name(), default).is_ok(), "{}", flag.spec);
                }
            }
        }
    }
}
