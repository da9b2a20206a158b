//! The `serve-repeat` workload: an in-process `regpipe_serve::Server` with
//! its result cache on, driven by closed-loop clients.
//!
//! One round builds a fresh server with an empty cache (untimed), then
//! times one cold pass over the request stream and `warm_passes` warm
//! passes, with a barrier between passes, so every round has exactly one
//! miss and `warm_passes` hits per request. Each client sends its next
//! request only after the previous reply.
//!
//! The cache is memory-only. With a persistent store every miss waits for
//! an fsync, and on a shared disk that wait swings from run to run: over
//! seeds 11-15 at 30 s the store put the interquartile range of
//! `lat_tail_ms` at 21% of its median (2.7% without it), and at 84% in a
//! busier period.
//!
//! The traced phase replays the same rounds through a replica of
//! `Server::handle_line`'s compile path, assembled from the serve crate's
//! public parts (JSON and `.ddg` parsing, `CacheKey`, `ShardedCache`) and
//! the instrumented drivers; its responses must equal the server's byte
//! for byte.

use std::num::NonZeroUsize;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use regpipe_core::{CompileOptions, SchedulerKind, SpillPolicyKind, Strategy};
use regpipe_ddg::{content_hash, textfmt, Ddg};
use regpipe_exec::json::{parse as parse_json, Value};
use regpipe_exec::{parallel_map, parse_strategy, strategy_slug, CellStatus};
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;
use regpipe_serve::{attach_id, machine_key, CacheKey, ServeOptions, Server, ShardedCache};

use crate::batch::summarize;
use crate::check::{self, Checked, Verdict};
use crate::host;
use crate::report::{median, ratio, Report};
use crate::trace::{write_spans, Layer, Totals, Tracer, COMPILE_LAYERS};
use crate::{
    inputs, same_loops, work_counters, Config, Layers, Measured, Setup, Setups, Timed,
};

/// Runs the serve workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(
    cfg: &Config,
    seconds: f64,
    traced: bool,
    spans: Option<&mut String>,
) -> Result<Report, String> {
    run_with(cfg, seconds, traced, spans, |_| ())
}

/// [`run`], with `doctor` applied to every timed round before it is
/// checked (the self-tests corrupt one to see it caught).
fn run_with(
    cfg: &Config,
    seconds: f64,
    traced: bool,
    spans: Option<&mut String>,
    doctor: impl Fn(&mut Round),
) -> Result<Report, String> {
    let mut setup = Setup::new(
        cfg,
        |s: &mut Setups| {
            let (loops, generate_ms, parse_ms) = inputs(cfg)?;
            s.generate_ms.push(generate_ms);
            s.parse_ms.push(parse_ms);
            let requests = requests(&loops, cfg);
            // Building a server is part of set-up; every round builds its
            // own again, outside the timed passes.
            drop(Server::new(ServeOptions::default()));
            Ok((loops, requests))
        },
        |a, b| same_loops(&a.0, &b.0) && a.1 == b.1,
    );
    let inputs = setup.first()?;
    let (loops, requests) = (&inputs.0, &inputs.1);
    let machine = MachineConfig::p2l4();
    let jobs = NonZeroUsize::new(cfg.jobs).ok_or("jobs must be positive")?;
    let cells: Vec<(usize, u32, Strategy)> = loops
        .iter()
        .enumerate()
        .flat_map(|(i, _)| cfg.budgets.iter().map(move |&b| (i, b, Strategy::BestOfAll)))
        .collect();

    // Untimed: compile every distinct request both ways, then serve one
    // reference round and check every response against those compiles.
    let checked: Vec<Checked> = parallel_map(&cells, jobs, |_, &(i, budget, strategy)| {
        check::op(&loops[i].ddg, &machine, budget, &cfg.options(strategy))
    });
    let mut checks = summarize(loops, &cells, &checked);
    let passes = 1 + cfg.warm_passes;
    let rounds = Rounds { requests, jobs: cfg.jobs, passes };
    let reference = rounds.real();
    // Each failed request, and each kind of failed round check, is
    // recorded once; requests that already failed their check are not
    // counted again.
    let mut failures = Vec::new();
    let mut bad: Vec<bool> =
        checked.iter().map(|c| matches!(c.verdict, Verdict::Error(_))).collect();
    for (k, response) in reference.responses[0].iter().enumerate() {
        if let Err(e) = response_matches(response, k, &checked[k].status) {
            if !std::mem::replace(&mut bad[k], true) {
                failures.push(format!("{} @ {} regs: {e}", loops[cells[k].0].name, cells[k].1));
            }
        }
    }
    let mut miscounted = false;
    let mut verify = |round: &Round, failures: &mut Vec<String>| {
        let (differing, count_error) =
            check_round(round, &reference.responses[0], cfg.warm_passes);
        for k in differing {
            if !std::mem::replace(&mut bad[k], true) {
                failures.push(format!("request {k}: a response differs from its first miss"));
            }
        }
        if let Some(e) = count_error {
            if !std::mem::replace(&mut miscounted, true) {
                failures.push(e);
            }
        }
    };
    verify(&reference, &mut failures);
    let hit_rate = reference.counts.map_or(0.0, |(h, m)| ratio(h as f64, (h + m) as f64));

    let untraced_seconds = if traced { seconds / 2.0 } else { seconds };
    let mut timed = Timed::default();
    let started = Instant::now();
    let mut reference_ms = host::reference_ms(cfg.jobs);
    while timed.passes == 0 || started.elapsed().as_secs_f64() < untraced_seconds {
        let mut round = rounds.real();
        let before = std::mem::replace(&mut reference_ms, host::reference_ms(cfg.jobs));
        doctor(&mut round);
        verify(&round, &mut failures);
        let lat_ms: Vec<f64> = round.lat_ms.iter().flatten().copied().collect();
        timed.record(&lat_ms, round.wall_s, round.cpu_ms, host::speed(before, reference_ms));
        drop(round);
        setup.pace(&inputs, started.elapsed().as_secs_f64() / untraced_seconds);
    }
    let measured = if traced {
        let mut layers = Layers { hit_rate, ..Layers::default() };
        let epoch = Instant::now();
        let mut traced_ops_per_s = Vec::new();
        let mut spans = spans;
        let mut span_base = 0u64;
        let mut miscalled = false;
        while layers.passes.is_empty() || epoch.elapsed().as_secs_f64() < seconds / 2.0 {
            let op_base = layers.passes.len() * requests.len() * passes;
            let (round, tracers) = rounds.traced(epoch, op_base);
            verify(&round, &mut failures);
            traced_ops_per_s.push(ratio((requests.len() * passes) as f64, round.wall_s));
            let mut totals = Totals::default();
            for t in &tracers {
                totals.absorb(t);
                if let Some(out) = spans.as_deref_mut() {
                    write_spans(out, &t.spans, span_base);
                    span_base += t.spans.len() as u64;
                }
            }
            if COMPILE_LAYERS.iter().any(|&l| totals.calls(l) != checks.counts.calls(l)) {
                miscalled = true;
            }
            layers.miss_ms.push(round.lat_ms[0].iter().sum());
            layers.hit_ms.push(round.lat_ms[1..].iter().flatten().sum());
            layers.passes.push(totals);
        }
        if miscalled {
            failures.push(
                "a traced round made other compile calls than the checked compiles".into(),
            );
        }
        layers.overhead_share = ratio(median(&traced_ops_per_s), timed.ops_per_s()) - 1.0;
        let samples = vec![
            ("untraced_rounds", Value::uint(timed.passes)),
            ("traced_rounds", Value::uint(layers.passes.len() as u64)),
        ];
        Measured::Traced(layers, samples)
    } else {
        Measured::Untraced(timed)
    };
    let setups = setup.finish(&inputs)?;
    checks.failures.extend(failures);
    let (metrics, samples) = measured.metrics(&setups, &checks, cfg.jobs);
    let n = requests.len() as u64;
    let mut work = work_counters(&checks);
    work.extend([
        ("requests_per_round", n * passes as u64),
        ("misses_per_round", n),
        ("hits_per_round", n * cfg.warm_passes as u64),
    ]);
    Ok(Report {
        config: cfg.fingerprint(),
        work,
        host: Vec::new(),
        samples,
        metrics,
        attempted: n,
        failures: checks.failures,
    })
}

/// The request stream: every loop at every budget, ids in stream order.
fn requests(loops: &[BenchLoop], cfg: &Config) -> Vec<String> {
    let options = cfg.options(Strategy::BestOfAll);
    let mut out = Vec::with_capacity(loops.len() * cfg.budgets.len());
    for l in loops {
        let text = textfmt::format(&l.ddg);
        for &budget in &cfg.budgets {
            out.push(
                Value::Object(vec![
                    ("id".into(), Value::uint(out.len() as u64)),
                    ("op".into(), Value::Str("compile".into())),
                    ("ddg".into(), Value::Str(text.clone())),
                    ("budget".into(), Value::uint(u64::from(budget))),
                    ("strategy".into(), Value::Str(strategy_slug(options.strategy).into())),
                    ("scheduler".into(), Value::Str(options.scheduler.slug().into())),
                    ("spill_policy".into(), Value::Str(options.spill_policy().slug().into())),
                ])
                .render(),
            );
        }
    }
    out
}

/// Checks a miss response against the direct compile of its request.
fn response_matches(response: &str, id: usize, expected: &CellStatus) -> Result<(), String> {
    let doc = parse_json(response).map_err(|e| format!("response is not JSON: {e}"))?;
    let field = |k: &str| doc.get(k).and_then(Value::as_i64);
    if doc.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error response: {response}"));
    }
    if field("id") != Some(id as i64) {
        return Err("response carries another id".into());
    }
    let status = doc.get("status").and_then(Value::as_str);
    let ok = match expected {
        CellStatus::Fitted { ii, regs, spilled, reschedules, memory_ops, strategy_used } => {
            status == Some("fitted")
                && field("ii") == Some(i64::from(*ii))
                && field("regs") == Some(i64::from(*regs))
                && field("spilled") == Some(i64::from(*spilled))
                && field("reschedules") == Some(i64::from(*reschedules))
                && field("memory_ops") == Some(i64::from(*memory_ops))
                && doc.get("strategy_used").and_then(Value::as_str)
                    == Some(strategy_slug(*strategy_used))
        }
        CellStatus::Failed { error } => {
            status == Some("failed")
                && doc.get("error").and_then(Value::as_str) == Some(error.as_str())
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("response differs from a direct compile: {response}"))
    }
}

/// Checks a round: every pass must repeat the reference misses byte for
/// byte, and a real server must count exactly one miss and `warm_passes`
/// hits per request. Returns the requests whose responses differ and the
/// count error, if any.
fn check_round(
    round: &Round,
    reference: &[String],
    warm_passes: usize,
) -> (Vec<usize>, Option<String>) {
    let mut differing: Vec<usize> = round
        .responses
        .iter()
        .flat_map(|pass| {
            pass.iter().zip(reference).enumerate().filter(|(_, (a, b))| a != b).map(|(k, _)| k)
        })
        .collect();
    differing.sort_unstable();
    differing.dedup();
    let n = reference.len() as u64;
    let expected = (n * warm_passes as u64, n);
    let count_error = round.counts.filter(|&c| c != expected).map(|(hits, misses)| {
        format!(
            "a server counted {hits} hits and {misses} misses, expected {} and {n}",
            expected.0
        )
    });
    (differing, count_error)
}

/// The outcome of one server round.
struct Round {
    /// Responses by pass, then request.
    responses: Vec<Vec<String>>,
    /// Request latency by pass, then request, ms.
    lat_ms: Vec<Vec<f64>>,
    /// Wall time of the passes, s.
    wall_s: f64,
    /// Process CPU time of the passes, ms.
    cpu_ms: f64,
    /// The real server's cache hits and misses (none for the replica).
    counts: Option<(u64, u64)>,
}

/// Runs rounds of `passes` passes over `requests` with `jobs` clients.
struct Rounds<'a> {
    requests: &'a [String],
    jobs: usize,
    passes: usize,
}

impl Rounds<'_> {
    /// One round against a fresh real server.
    fn real(&self) -> Round {
        let server = Server::new(ServeOptions::default());
        let mut round = self.drive(|_| |_, line: &str| server.handle_line(line).line);
        let totals = server.cache_totals();
        round.counts = Some((totals.hits, totals.misses));
        round
    }

    /// One round through the instrumented replica; returns each client's
    /// tracer too. Span op ids start at `op_base`.
    fn traced(&self, epoch: Instant, op_base: usize) -> (Round, Vec<Tracer>) {
        let defaults = ServeOptions::default();
        let replica =
            Replica { cache: ShardedCache::new(defaults.shards, defaults.capacity_bytes) };
        let tracers: Vec<Mutex<Tracer>> =
            (0..self.jobs).map(|_| Mutex::new(Tracer::timed(epoch))).collect();
        let round = self.drive(|client| {
            let tracers = &tracers;
            let replica = &replica;
            move |op: usize, line: &str| {
                let mut t = tracers[client].lock().expect("one client per tracer");
                t.set_op((op_base + op) as u32);
                replica.handle(&mut t, line)
            }
        });
        (round, tracers.into_iter().map(|t| t.into_inner().expect("clients joined")).collect())
    }

    /// Runs the clients: client `c` sends requests `c, c + jobs, …` in
    /// order, waiting for each reply, and all clients meet at a barrier
    /// after each pass. `handler(c)` makes client `c`'s request handler, which is called
    /// with the op id (`pass × requests + request`) and the request line.
    fn drive<H: FnMut(usize, &str) -> String>(
        &self,
        handler: impl Fn(usize) -> H + Sync,
    ) -> Round {
        let n = self.requests.len();
        let barrier = Barrier::new(self.jobs);
        let cpu = crate::host::process_cpu_ms();
        let started = Instant::now();
        let per_client: Vec<Vec<(usize, usize, f64, String)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.jobs)
                .map(|c| {
                    let barrier = &barrier;
                    let handler = &handler;
                    s.spawn(move || {
                        let mut handle = handler(c);
                        let mut out =
                            Vec::with_capacity(n * self.passes / self.jobs + self.passes);
                        for pass in 0..self.passes {
                            for k in (c..n).step_by(self.jobs) {
                                let sent = Instant::now();
                                let line = handle(pass * n + k, &self.requests[k]);
                                out.push((pass, k, sent.elapsed().as_secs_f64() * 1e3, line));
                            }
                            barrier.wait();
                        }
                        out
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a client panicked")).collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_ms = crate::host::process_cpu_ms() - cpu;
        let mut responses = vec![vec![String::new(); n]; self.passes];
        let mut lat_ms = vec![vec![0.0; n]; self.passes];
        for (pass, k, lat, line) in per_client.into_iter().flatten() {
            responses[pass][k] = line;
            lat_ms[pass][k] = lat;
        }
        Round { responses, lat_ms, wall_s, cpu_ms, counts: None }
    }
}

/// `Server::handle_line`'s compile path, rebuilt from public parts.
struct Replica {
    cache: ShardedCache,
}

impl Replica {
    fn handle(&self, t: &mut Tracer, line: &str) -> String {
        t.span(Layer::Handle, |t| {
            let (doc, ddg) = t.span(Layer::Parse, |_| {
                let doc = parse_json(line).expect("benchmark requests are JSON");
                let text =
                    doc.get("ddg").and_then(Value::as_str).expect("requests carry a ddg");
                let ddg = textfmt::parse(text).expect("requests carry a valid ddg");
                (doc, ddg)
            });
            assert_eq!(doc.get("op").and_then(Value::as_str), Some("compile"));
            // Per request, as the server does: requests without a machine
            // get P2L4, and the cache key carries its canonical identity.
            let machine = MachineConfig::p2l4();
            let text =
                |k: &str| doc.get(k).and_then(Value::as_str).expect("requests name every axis");
            let strategy = parse_strategy(text("strategy")).expect("known strategy");
            let scheduler = SchedulerKind::parse(text("scheduler")).expect("known scheduler");
            let spill_policy =
                SpillPolicyKind::parse(text("spill_policy")).expect("known policy");
            let budget =
                doc.get("budget").and_then(Value::as_i64).expect("requests carry a budget")
                    as u32;
            let id = doc.get("id").and_then(Value::as_i64);
            let ddg_hash = content_hash(&ddg);
            let key = CacheKey {
                ddg_hash,
                machine: machine_key(&machine),
                scheduler: scheduler.slug().into(),
                strategy: strategy_slug(strategy).into(),
                spill_policy: spill_policy.slug().into(),
                budget,
            };
            if let Some(hit) = t.span(Layer::CacheGet, |_| self.cache.get(&key)) {
                return attach_id(id, &hit);
            }
            let mut options =
                CompileOptions { strategy, scheduler, ..CompileOptions::default() };
            options.spill.policy = spill_policy;
            let payload = self.payload(t, &ddg, ddg_hash, &machine, budget, &options);
            t.span(Layer::CacheInsert, |_| self.cache.insert(key, payload.clone()));
            attach_id(id, &payload)
        })
    }

    /// The server's id-free response payload.
    fn payload(
        &self,
        t: &mut Tracer,
        ddg: &Ddg,
        ddg_hash: u64,
        machine: &MachineConfig,
        budget: u32,
        options: &CompileOptions,
    ) -> String {
        let mut pairs = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("ddg_hash".to_string(), Value::Str(format!("{ddg_hash:016x}"))),
        ];
        match crate::drivers::compile(t, ddg, machine, budget, options) {
            Ok(f) => {
                pairs.push(("status".into(), Value::Str("fitted".into())));
                pairs.push(("ii".into(), Value::uint(u64::from(f.schedule.ii()))));
                pairs.push(("regs".into(), Value::uint(u64::from(f.regs()))));
                pairs.push(("spilled".into(), Value::uint(u64::from(f.spilled))));
                pairs.push(("reschedules".into(), Value::uint(u64::from(f.reschedules))));
                pairs.push(("memory_ops".into(), Value::uint(f.ddg.memory_ops() as u64)));
                pairs.push((
                    "strategy_used".into(),
                    Value::Str(strategy_slug(f.strategy_used).into()),
                ));
            }
            Err(_) => {
                // The replica knows that the compile failed, not the
                // wording of the error: ask `compile` for it.
                let e = regpipe_core::compile(ddg, machine, budget, options)
                    .expect_err("compile and the replica agree (checked)");
                pairs.push(("status".into(), Value::Str("failed".into())));
                pairs.push(("error".into(), Value::Str(e.to_string())));
            }
        }
        Value::Object(pairs).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(responses: Vec<Vec<String>>, counts: Option<(u64, u64)>) -> Round {
        Round {
            lat_ms: vec![Vec::new(); responses.len()],
            responses,
            wall_s: 1.0,
            cpu_ms: 1.0,
            counts,
        }
    }

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_hit_that_differs_from_its_miss_is_caught() {
        let miss = lines(&["a", "b", "c"]);
        let good = round(vec![miss.clone(), miss.clone(), miss.clone()], Some((6, 3)));
        assert_eq!(check_round(&good, &miss, 2), (vec![], None));
        let bad =
            round(vec![miss.clone(), lines(&["a", "x", "c"]), miss.clone()], Some((6, 3)));
        assert_eq!(check_round(&bad, &miss, 2).0, vec![1]);
    }

    #[test]
    fn wrong_hit_and_miss_counts_are_caught() {
        let miss = lines(&["a", "b"]);
        let r = round(vec![miss.clone(), miss.clone()], Some((1, 3)));
        assert!(check_round(&r, &miss, 1).1.is_some());
    }

    fn ok_share(report: &Report) -> f64 {
        report.metrics.iter().find(|m| m.name == "ok_share").expect("ok_share").value
    }

    #[test]
    fn a_doctored_hit_lowers_ok_share() {
        let cfg = Config::tiny(crate::Workload::ServeRepeat, 3);
        let clean = run(&cfg, 0.01, false, None).expect("tiny run");
        assert!(clean.correct());
        assert_eq!(ok_share(&clean), 1.0);
        let doctored = run_with(&cfg, 0.01, false, None, |round| {
            round.responses[1][2].push(' ');
        })
        .expect("tiny run");
        assert!(!doctored.correct());
        assert_eq!(doctored.failed(), 1);
        let requests = cfg.loops * cfg.budgets.len();
        assert_eq!(ok_share(&doctored), 1.0 - 1.0 / requests as f64);
        assert_eq!(doctored.work.iter().find(|(k, _)| *k == "errors"), Some(&("errors", 1)));
    }

    #[test]
    fn a_response_that_differs_from_a_direct_compile_is_caught() {
        let expected = CellStatus::Fitted {
            ii: 2,
            regs: 5,
            spilled: 0,
            reschedules: 1,
            memory_ops: 2,
            strategy_used: Strategy::Spill,
        };
        let good = "{\"id\":3,\"ok\":true,\"ddg_hash\":\"0\",\"status\":\"fitted\",\"ii\":2,\"regs\":5,\
                    \"spilled\":0,\"reschedules\":1,\"memory_ops\":2,\"strategy_used\":\"spill\"}";
        assert_eq!(response_matches(good, 3, &expected), Ok(()));
        assert!(response_matches(&good.replace("\"ii\":2", "\"ii\":3"), 3, &expected).is_err());
        assert!(response_matches(good, 4, &expected).is_err());
        assert!(response_matches("{\"ok\":false}", 3, &expected).is_err());
    }
}
