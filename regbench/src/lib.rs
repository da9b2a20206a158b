//! The regpipe benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! See `README.md` in this package for the workloads, the metrics, and
//! what each per-layer metric should move.

mod batch;
mod check;
mod drivers;
mod host;
pub mod report;
mod serve;
mod trace;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use regpipe_core::{CompileOptions, Strategy};
use regpipe_ddg::textfmt;
use regpipe_exec::json::Value;
use regpipe_exec::strategy_slug;
use regpipe_loops::gen::generate_one;
use regpipe_loops::{generate, suite, BenchLoop, GenParams};

use report::{median, metric, percentile, ratio, Metric, Report};
use trace::{Layer, Totals, COMPILE_LAYERS};

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper's evaluation traffic: the 1258-loop suite.
    PaperSuite,
    /// Large kernels under tight budgets: many spill rounds per op.
    SpillHeavy,
    /// A compile server with its memory cache on, under two closed-loop
    /// clients.
    ServeRepeat,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::PaperSuite, Workload::SpillHeavy, Workload::ServeRepeat];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::SpillHeavy => "spill-heavy",
            Workload::ServeRepeat => "serve-repeat",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Names the known workloads.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })
    }
}

/// Everything that defines the work a run does.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Loops in the corpus.
    pub loops: usize,
    /// Smallest and largest kernel, in ops (generated corpora only).
    pub ops: (usize, usize),
    /// Register budgets per loop.
    pub budgets: Vec<u32>,
    /// Strategies per loop and budget.
    pub strategies: Vec<Strategy>,
    /// Worker threads (batch) or closed-loop clients (serve).
    pub jobs: usize,
    /// Set-ups per run, spread over the timed phase; `setup_s` is their
    /// median.
    pub setups: usize,
    /// Warm passes after the cold pass of each server (serve only).
    pub warm_passes: usize,
}

impl Config {
    /// The full-size configuration of `workload`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        match workload {
            Workload::PaperSuite => Config {
                workload,
                seed,
                loops: 1258,
                ops: (0, 0),
                budgets: vec![64, 32],
                strategies: vec![Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi],
                jobs: 2,
                setups: 21,
                warm_passes: 0,
            },
            Workload::SpillHeavy => Config {
                workload,
                seed,
                loops: 64,
                ops: (96, 256),
                budgets: vec![32, 24],
                strategies: vec![Strategy::BestOfAll, Strategy::Spill],
                jobs: 2,
                setups: 21,
                warm_passes: 0,
            },
            Workload::ServeRepeat => Config {
                workload,
                seed,
                loops: 800,
                ops: (4, 24),
                budgets: vec![64, 32],
                strategies: vec![Strategy::BestOfAll],
                jobs: 2,
                setups: 21,
                warm_passes: 2,
            },
        }
    }

    /// A configuration small enough for the self-tests.
    pub fn tiny(workload: Workload, seed: u64) -> Config {
        let full = Config::new(workload, seed);
        let loops = match workload {
            Workload::PaperSuite => 24,
            Workload::SpillHeavy => 3,
            Workload::ServeRepeat => 12,
        };
        let ops = if workload == Workload::SpillHeavy { (48, 64) } else { full.ops };
        Config { loops, ops, setups: 2, ..full }
    }

    /// Compile options of one cell: the defaults (HRMS, `paper` spill
    /// policy) with the cell's strategy.
    pub fn options(&self, strategy: Strategy) -> CompileOptions {
        CompileOptions { strategy, ..CompileOptions::default() }
    }

    /// The configuration part of the run fingerprint.
    pub fn fingerprint(&self) -> Vec<(String, Value)> {
        let options = CompileOptions::default();
        let list = |v: Vec<Value>| Value::Array(v);
        vec![
            ("workload".into(), Value::Str(self.workload.name().into())),
            ("seed".into(), Value::uint(self.seed)),
            ("loops".into(), Value::uint(self.loops as u64)),
            ("min_ops".into(), Value::uint(self.ops.0 as u64)),
            ("max_ops".into(), Value::uint(self.ops.1 as u64)),
            (
                "budgets".into(),
                list(self.budgets.iter().map(|&b| Value::uint(u64::from(b))).collect()),
            ),
            (
                "strategies".into(),
                list(
                    self.strategies
                        .iter()
                        .map(|&s| Value::Str(strategy_slug(s).into()))
                        .collect(),
                ),
            ),
            ("jobs".into(), Value::uint(self.jobs as u64)),
            ("setups".into(), Value::uint(self.setups as u64)),
            ("warm_passes".into(), Value::uint(self.warm_passes as u64)),
            ("machine".into(), Value::Str("P2L4".into())),
            ("scheduler".into(), Value::Str(options.scheduler.slug().into())),
            ("spill_policy".into(), Value::Str(options.spill_policy().slug().into())),
        ]
    }
}

/// Timings of the repeated set-up.
#[derive(Clone, Default, Debug)]
pub(crate) struct Setups {
    /// Whole set-up, seconds.
    pub total_s: Vec<f64>,
    /// How many times faster than the reference host each set-up ran
    /// ([`host::speed`]).
    pub speed: Vec<f64>,
    /// `regpipe_loops` generation, ms.
    pub generate_ms: Vec<f64>,
    /// `textfmt::parse` of the generated loops, ms.
    pub parse_ms: Vec<f64>,
}

/// Generates the workload's loops from its seed and reads them back
/// through the `.ddg` text format, as a corpus or request would arrive.
/// Returns the loops with the generation and parse times in ms.
///
/// # Errors
///
/// A generator or parse failure.
pub(crate) fn inputs(cfg: &Config) -> Result<(Vec<BenchLoop>, f64, f64), String> {
    let started = Instant::now();
    let generated = match cfg.workload {
        Workload::PaperSuite => paper_suite(cfg),
        Workload::SpillHeavy => spill_heavy_corpus(cfg),
        Workload::ServeRepeat => generate(
            cfg.seed,
            cfg.loops,
            &GenParams { min_ops: cfg.ops.0, max_ops: cfg.ops.1, ..GenParams::default() },
        )?,
    };
    let generate_ms = started.elapsed().as_secs_f64() * 1e3;
    let texts: Vec<String> = generated.iter().map(|l| textfmt::format(&l.ddg)).collect();
    let started = Instant::now();
    let mut loops = Vec::with_capacity(generated.len());
    for (l, text) in generated.into_iter().zip(&texts) {
        let ddg = textfmt::parse(text).map_err(|e| format!("{}: {e}", l.name))?;
        loops.push(BenchLoop { ddg, ..l });
    }
    Ok((loops, generate_ms, started.elapsed().as_secs_f64() * 1e3))
}

/// The suite's archetype mix, in hundredths, as `regpipe_loops::suite`
/// draws it (the name prefix of each loop is its archetype).
const ARCHETYPE_MIX: [(&str, usize); 7] = [
    ("stream", 28),
    ("stencil", 18),
    ("reduce", 14),
    ("wide", 18),
    ("divsqrt", 6),
    ("chain", 14),
    ("monster", 2),
];

/// The `paper-suite` corpus: `cfg.loops` loops of `regpipe_loops::suite`
/// drawn from `cfg.seed`, with each archetype's count fixed at its share
/// of the mix instead of left to the draw. The 2% of many-tap "monster"
/// loops take about 60% of a pass, so a seed that draws 17 of them
/// instead of 37 would halve the pass time on its own (measured: 540 and
/// 1051 ms); fixing the count leaves the seed to vary the loops only.
/// Loops are taken in the suite's order, archetype by archetype until
/// each count is filled, from a suite grown until every count fills.
fn paper_suite(cfg: &Config) -> Vec<BenchLoop> {
    // Largest-remainder apportionment of `cfg.loops` over the mix.
    let mut quota: Vec<usize> =
        ARCHETYPE_MIX.iter().map(|(_, pct)| cfg.loops * pct / 100).collect();
    let mut by_remainder: Vec<usize> = (0..quota.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(cfg.loops * ARCHETYPE_MIX[i].1 % 100));
    for &i in by_remainder.iter().take(cfg.loops - quota.iter().sum::<usize>()) {
        quota[i] += 1;
    }
    let mut pool_size = 2 * cfg.loops;
    loop {
        let mut left = quota.clone();
        let picked: Vec<BenchLoop> = suite(cfg.seed, pool_size)
            .into_iter()
            .filter(|l| {
                let archetype = l.name.split('_').next().unwrap_or("");
                match ARCHETYPE_MIX.iter().position(|(a, _)| *a == archetype) {
                    Some(i) if left[i] > 0 => {
                        left[i] -= 1;
                        true
                    }
                    _ => false,
                }
            })
            .collect();
        if picked.len() == cfg.loops {
            return picked;
        }
        pool_size *= 2;
    }
}

/// The `spill-heavy` corpus: kernels drawn by `regpipe_loops`' generator
/// from one seeded stream, with sizes fixed by a golden-ratio sequence
/// over the op range. Every seed therefore brings the same mix of sizes
/// in the same order, and the seed varies the graphs only: the cost of a
/// spill-bound compile grows steeply with size, so leaving sizes to the
/// seed would make the seed, not the program, set the run's cost.
fn spill_heavy_corpus(cfg: &Config) -> Vec<BenchLoop> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (lo, hi) = cfg.ops;
    (0..cfg.loops)
        .map(|i| {
            let golden = (i as f64 * 0.618_033_988_749_895).fract();
            let size = lo + (golden * (hi - lo) as f64).round() as usize;
            let params = GenParams { min_ops: size, max_ops: size, ..GenParams::default() };
            generate_one(&mut rng, format!("heavy_{i:04}"), &params)
        })
        .collect()
}

/// Runs `cfg` for about `seconds`, traced or not.
///
/// # Errors
///
/// A set-up failure. Failed output checks are not errors: they are
/// reported in the returned report.
pub fn run(
    cfg: &Config,
    seconds: f64,
    traced: bool,
    spans: Option<&mut String>,
) -> Result<Report, String> {
    let mut report = match cfg.workload {
        Workload::PaperSuite | Workload::SpillHeavy => batch::run(cfg, seconds, traced, spans)?,
        Workload::ServeRepeat => serve::run(cfg, seconds, traced, spans)?,
    };
    report.host = vec![
        ("nproc", host::nproc().to_string()),
        ("cpu", host::cpu_model()),
        ("rustc", host::rustc().to_string()),
        ("git_rev", host::git_rev()),
    ];
    Ok(report)
}

/// Deterministic outcome of one pass over the workload's distinct ops.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct Quality {
    /// Ops in one pass.
    pub ops: u64,
    /// Ops that fitted their budget.
    pub fitted: u64,
    /// Ops that legitimately did not fit.
    pub unfit: u64,
    /// Σ II over fitted ops: cycles for one iteration of each.
    pub ii_cycles: u64,
    /// Σ memory ops per iteration over fitted ops.
    pub mem_refs: u64,
    /// Σ II × loop weight over fitted ops (the paper's Table 1 form).
    pub weighted_ii_cycles: u64,
    /// Σ memory ops × loop weight over fitted ops.
    pub weighted_mem_refs: u64,
    /// Σ lifetimes spilled over fitted ops.
    pub spilled: u64,
}

/// What the untimed check pass established.
pub(crate) struct Checks {
    /// Quality of one pass.
    pub quality: Quality,
    /// Calls and work the replica counted over one pass.
    pub counts: Totals,
    /// Failure messages: one per failed op, and one per failed check of
    /// a whole round or pass.
    pub failures: Vec<String>,
}

impl Checks {
    /// Failed ops, counting a failure of a whole round as one op and
    /// never more than the ops of a pass.
    pub fn failed_ops(&self) -> u64 {
        (self.failures.len() as u64).min(self.quality.ops)
    }
}

/// The untraced timed phase, pass by pass. Every metric is the median
/// over passes of the pass's own figure at the reference host's speed,
/// so that a burst of load from elsewhere on the host moves it less than
/// it would move a pooled value.
#[derive(Clone, Default, Debug)]
pub(crate) struct Timed {
    /// Ops completed.
    pub ops: u64,
    /// Passes (batch) or server rounds (serve) timed.
    pub passes: u64,
    /// How many times faster than the reference host each pass ran
    /// ([`host::speed`]).
    pub pass_speed: Vec<f64>,
    /// Ops per wall second of each pass.
    pub pass_ops_per_s: Vec<f64>,
    /// CPU ms per op of each pass.
    pub pass_cpu_ms_per_op: Vec<f64>,
    /// Median op latency of each pass, ms.
    pub pass_p50_ms: Vec<f64>,
    /// Tail op latency of each pass, ms, at [`Timed::tail_percentile`].
    pub pass_tail_ms: Vec<f64>,
    /// The highest percentile with at least ten ops of a pass beyond it:
    /// 99 from 1000 ops a pass, else 90.
    pub tail_percentile: f64,
}

impl Timed {
    /// Records one timed pass: its ops' latencies in ms, its wall time in
    /// s, the process CPU time it took in ms and the host's speed.
    pub fn record(&mut self, lat_ms: &[f64], wall_s: f64, cpu_ms: f64, speed: f64) {
        let ops = lat_ms.len() as f64;
        self.tail_percentile = if lat_ms.len() >= 1000 { 99.0 } else { 90.0 };
        self.ops += lat_ms.len() as u64;
        self.passes += 1;
        self.pass_speed.push(speed);
        self.pass_ops_per_s.push(ratio(ops, wall_s));
        self.pass_cpu_ms_per_op.push(ratio(cpu_ms, ops));
        self.pass_p50_ms.push(median(lat_ms));
        self.pass_tail_ms.push(percentile(lat_ms, self.tail_percentile));
    }

    /// The median over passes of a per-pass time (ms, or ms per op),
    /// taken at the reference host's speed.
    fn time_at_reference(&self, per_pass: &[f64]) -> f64 {
        median(&per_pass.iter().zip(&self.pass_speed).map(|(t, s)| t * s).collect::<Vec<_>>())
    }

    /// Ops per wall second, the median over passes, as measured.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.pass_ops_per_s)
    }
}

/// The exact work counters of the fingerprint.
pub(crate) fn work_counters(checks: &Checks) -> Vec<(&'static str, u64)> {
    let q = &checks.quality;
    let c = &checks.counts;
    let mut work = vec![
        ("ops", q.ops),
        ("fitted", q.fitted),
        ("unfit", q.unfit),
        ("errors", checks.failed_ops()),
        ("spilled", q.spilled),
        ("rounds", c.work.rounds),
        ("probes", c.work.probes),
        ("probe_fits", c.work.probe_fits),
        ("iis_tried", c.work.iis_tried),
        ("victims", c.work.victims),
    ];
    work.extend(COMPILE_LAYERS.iter().map(|&l| (l.name(), c.calls(l))));
    work
}

/// What a run's timed phase measured, before it becomes metrics.
pub(crate) enum Measured {
    /// The untraced phase.
    Untraced(Timed),
    /// The traced phase, with the sample sizes behind it.
    Traced(Layers, Vec<(&'static str, Value)>),
}

impl Measured {
    /// The metrics and samples of the run. Call it once every check has
    /// recorded its failures, so that `ok_share` counts them all.
    pub fn metrics(
        &self,
        setups: &Setups,
        checks: &Checks,
        jobs: usize,
    ) -> (Vec<Metric>, Vec<(&'static str, Value)>) {
        match self {
            Measured::Untraced(timed) => end_to_end(setups, timed, checks),
            Measured::Traced(layers, samples) => {
                (per_layer(setups, checks, layers, jobs), samples.clone())
            }
        }
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    setups: &Setups,
    timed: &Timed,
    checks: &Checks,
) -> (Vec<Metric>, Vec<(&'static str, Value)>) {
    let q = &checks.quality;
    let ops = q.ops as f64;
    let failed = checks.failed_ops() as f64;
    let ops_per_s_at_reference: Vec<f64> =
        timed.pass_ops_per_s.iter().zip(&timed.pass_speed).map(|(r, s)| r / s).collect();
    let setup_s_at_reference: Vec<f64> =
        setups.total_s.iter().zip(&setups.speed).map(|(t, s)| t * s).collect();
    let metrics = vec![
        metric("setup_s", "s", median(&setup_s_at_reference)),
        metric("ops_per_s", "op/s", median(&ops_per_s_at_reference)),
        metric("cpu_ms_per_op", "ms", timed.time_at_reference(&timed.pass_cpu_ms_per_op)),
        metric("lat_p50_ms", "ms", timed.time_at_reference(&timed.pass_p50_ms)),
        metric("lat_tail_ms", "ms", timed.time_at_reference(&timed.pass_tail_ms)),
        metric("peak_rss_mb", "MiB", host::peak_rss_mb()),
        metric("ii_cycles", "cycles", q.ii_cycles as f64),
        metric("mem_refs", "refs", q.mem_refs as f64),
        metric("fit_share", "ratio", ratio(q.fitted as f64, ops)),
        metric("ok_share", "ratio", 1.0 - ratio(failed, ops)),
    ];
    let array =
        |v: &[f64]| Value::Array(v.iter().filter_map(|&x| Value::finite(x).ok()).collect());
    let number = |x: f64| Value::finite(x).unwrap_or(Value::Null);
    let samples = vec![
        ("timed_passes", Value::uint(timed.passes)),
        ("pass_ops_per_s", array(&timed.pass_ops_per_s)),
        ("pass_speed", array(&timed.pass_speed)),
        ("timed_ops", Value::uint(timed.ops)),
        ("setup_s", array(&setups.total_s)),
        ("setup_speed", array(&setups.speed)),
        ("measured_setup_s", number(median(&setups.total_s))),
        ("measured_ops_per_s", number(timed.ops_per_s())),
        ("measured_cpu_ms_per_op", number(median(&timed.pass_cpu_ms_per_op))),
        ("measured_lat_p50_ms", number(median(&timed.pass_p50_ms))),
        ("measured_lat_tail_ms", number(median(&timed.pass_tail_ms))),
        ("lat_tail_percentile", Value::finite(timed.tail_percentile).unwrap_or(Value::Null)),
        ("weighted_ii_cycles", Value::uint(q.weighted_ii_cycles)),
        ("weighted_mem_refs", Value::uint(q.weighted_mem_refs)),
        ("unfit_share", Value::finite(ratio(q.unfit as f64, ops)).unwrap_or(Value::Null)),
        ("error_share", Value::finite(ratio(failed, ops)).unwrap_or(Value::Null)),
    ];
    (metrics, samples)
}

/// Per-pass layer measurements of a traced run.
#[derive(Default)]
pub(crate) struct Layers {
    /// Span totals of each traced pass.
    pub passes: Vec<Totals>,
    /// `run_batch` wall per untraced pass, ms (batch only).
    pub exec_wall_ms: Vec<f64>,
    /// Σ cell wall per untraced pass, ms (batch only).
    pub exec_busy_ms: Vec<f64>,
    /// Inclusive handle time of the hit requests per traced round, ms.
    pub hit_ms: Vec<f64>,
    /// Inclusive handle time of the miss requests per traced round, ms.
    pub miss_ms: Vec<f64>,
    /// Cache hits ÷ requests per round (serve only).
    pub hit_rate: f64,
    /// Traced ÷ untraced ops per second, minus one.
    pub overhead_share: f64,
}

/// The per-layer metrics of a traced run: calls per pass (exact), self
/// time per pass (median over the traced passes), and ratios.
fn per_layer(setups: &Setups, checks: &Checks, layers: &Layers, jobs: usize) -> Vec<Metric> {
    let c = &checks.counts;
    let self_ms = |layer: Layer| {
        median(&layers.passes.iter().map(|t| t.self_ms(layer)).collect::<Vec<_>>())
    };
    let calls = |layer: Layer| c.calls(layer) as f64;
    let ops = checks.quality.ops as f64;
    let util: Vec<f64> = layers
        .exec_busy_ms
        .iter()
        .zip(&layers.exec_wall_ms)
        .map(|(busy, wall)| ratio(*busy, wall * jobs as f64))
        .collect();
    vec![
        metric("sched.loop_analysis.calls", "count", calls(Layer::LoopAnalysis)),
        metric("sched.loop_analysis.ms", "ms", self_ms(Layer::LoopAnalysis)),
        metric("sched.schedule_in.calls", "count", calls(Layer::ScheduleIn)),
        metric("sched.schedule_in.ms", "ms", self_ms(Layer::ScheduleIn)),
        metric(
            "sched.iis_per_call",
            "ratio",
            ratio(c.work.iis_tried as f64, calls(Layer::ScheduleIn)),
        ),
        metric("regalloc.allocate.calls", "count", calls(Layer::Allocate)),
        metric("regalloc.allocate.ms", "ms", self_ms(Layer::Allocate)),
        metric("regalloc.lifetimes.calls", "count", calls(Layer::Lifetimes)),
        metric("regalloc.lifetimes.ms", "ms", self_ms(Layer::Lifetimes)),
        metric("spill.rank.calls", "count", calls(Layer::Rank)),
        metric("spill.rank.ms", "ms", self_ms(Layer::Rank)),
        metric("spill.rewrite.calls", "count", calls(Layer::Rewrite)),
        metric("spill.rewrite.ms", "ms", self_ms(Layer::Rewrite)),
        metric(
            "spill.victims_per_round",
            "ratio",
            ratio(c.work.victims as f64, calls(Layer::Rewrite)),
        ),
        metric("core.compile.calls", "count", calls(Layer::Compile)),
        metric("core.compile.ms", "ms", self_ms(Layer::Compile)),
        metric("core.rounds_per_op", "ratio", ratio(c.work.rounds as f64, ops)),
        metric("core.probes_per_op", "ratio", ratio(c.work.probes as f64, ops)),
        metric(
            "core.probe_fit_ratio",
            "ratio",
            ratio(c.work.probe_fits as f64, c.work.probes as f64),
        ),
        metric("exec.run_batch.ms", "ms", median(&layers.exec_wall_ms)),
        metric("exec.busy.ms", "ms", median(&layers.exec_busy_ms)),
        metric("exec.worker_util", "ratio", median(&util)),
        metric("serve.hit.ms", "ms", median(&layers.hit_ms)),
        metric("serve.miss.ms", "ms", median(&layers.miss_ms)),
        metric("serve.parse.ms", "ms", self_ms(Layer::Parse)),
        metric("serve.cache_get.ms", "ms", self_ms(Layer::CacheGet)),
        metric("serve.cache_insert.ms", "ms", self_ms(Layer::CacheInsert)),
        metric("serve.hit_rate", "ratio", layers.hit_rate),
        metric("loops.generate.ms", "ms", median(&setups.generate_ms)),
        metric("ddg.textfmt_parse.ms", "ms", median(&setups.parse_ms)),
        metric("trace.overhead_share", "ratio", layers.overhead_share),
    ]
}

/// The workload's set-up, run `cfg.setups` times to time it: once
/// before the checks, and the rest spread over the timed phase, between
/// its passes. `setup_s` thus samples the host over the whole run, as the
/// per-pass timings do, instead of over the fraction of a second the
/// set-ups would take back to back. The reference work runs just before
/// and just after each set-up, to take it at the reference host's speed.
/// Every set-up must give the same inputs.
pub(crate) struct Setup<T, F> {
    once: F,
    same: fn(&T, &T) -> bool,
    count: usize,
    threads: usize,
    timings: Setups,
    error: Option<String>,
}

impl<T, F: FnMut(&mut Setups) -> Result<T, String>> Setup<T, F> {
    /// `once` makes the inputs and records its parts' timings; `same`
    /// tells whether two set-ups gave the same inputs.
    pub fn new(cfg: &Config, once: F, same: fn(&T, &T) -> bool) -> Self {
        Setup {
            once,
            same,
            count: cfg.setups.max(1),
            threads: cfg.jobs,
            timings: Setups::default(),
            error: None,
        }
    }

    /// Runs the first set-up and returns the inputs.
    ///
    /// # Errors
    ///
    /// A set-up failure.
    pub fn first(&mut self) -> Result<T, String> {
        self.once_timed()
    }

    /// Runs the set-ups due once `share` of the timed phase has passed,
    /// checking each against `inputs`. By the end of the phase every
    /// set-up has run.
    pub fn pace(&mut self, inputs: &T, share: f64) {
        let due = 1 + ((self.count - 1) as f64 * share.clamp(0.0, 1.0)).floor() as usize;
        while self.error.is_none() && self.timings.total_s.len() < due {
            match self.once_timed() {
                Ok(value) if (self.same)(inputs, &value) => {}
                Ok(_) => {
                    self.error =
                        Some("two set-ups from one seed produced different inputs".into())
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Runs any set-up not yet run and returns the timings of all.
    ///
    /// # Errors
    ///
    /// A failure of a set-up, or one that gave other inputs.
    pub fn finish(mut self, inputs: &T) -> Result<Setups, String> {
        self.pace(inputs, 1.0);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.timings),
        }
    }

    fn once_timed(&mut self) -> Result<T, String> {
        let before = host::reference_ms(self.threads);
        let started = Instant::now();
        let value = (self.once)(&mut self.timings)?;
        self.timings.total_s.push(started.elapsed().as_secs_f64());
        self.timings.speed.push(host::speed(before, host::reference_ms(self.threads)));
        Ok(value)
    }
}

/// Whether two corpora are the same loops.
pub(crate) fn same_loops(a: &[BenchLoop], b: &[BenchLoop]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.weight == y.weight
                && regpipe_ddg::content_hash(&x.ddg) == regpipe_ddg::content_hash(&y.ddg)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_taken_at_the_reference_hosts_speed() {
        assert_eq!(host::speed(host::REFERENCE_MS, host::REFERENCE_MS), 1.0);
        // A pass of 4 ops in 0.5 s and a 0.1 s set-up, on a host that ran
        // twice as fast as the reference host.
        let mut timed = Timed::default();
        let lat_ms = [1.0, 2.0, 3.0, 4.0];
        timed.record(&lat_ms, 0.5, 8.0, 2.0);
        let setups = Setups { total_s: vec![0.1], speed: vec![2.0], ..Setups::default() };
        let checks = Checks {
            quality: Quality { ops: 4, fitted: 4, ..Quality::default() },
            counts: Totals::default(),
            failures: Vec::new(),
        };
        let (metrics, samples) = end_to_end(&setups, &timed, &checks);
        let value = |name| metrics.iter().find(|m| m.name == name).expect(name).value;
        assert_eq!(value("setup_s"), 0.2);
        assert_eq!(value("ops_per_s"), 4.0);
        assert_eq!(value("cpu_ms_per_op"), 4.0);
        assert_eq!(value("lat_p50_ms"), 2.0 * median(&lat_ms));
        let sample = |name| samples.iter().find(|(k, _)| *k == name).map(|(_, v)| v.clone());
        assert_eq!(sample("measured_ops_per_s"), Value::finite(8.0).ok());
        assert_eq!(sample("measured_setup_s"), Value::finite(0.1).ok());
    }
}
