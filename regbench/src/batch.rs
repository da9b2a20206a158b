//! The batch workloads (`paper-suite`, `spill-heavy`): every
//! `loop × budget × strategy` cell through `regpipe_exec::run_batch`.
//!
//! One pass compiles every cell once. The untraced phase repeats passes
//! through `run_batch` itself; the traced phase repeats them through the
//! instrumented drivers on `regpipe_exec::parallel_map`, the same worker
//! pool `run_batch` is built on.

use std::num::NonZeroUsize;
use std::time::Instant;

use regpipe_core::{CompileOptions, Strategy};
use regpipe_exec::json::Value;
use regpipe_exec::{parallel_map, run_batch, BatchReport, BatchRequest, CellStatus};
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;

use crate::check::{self, Checked, Verdict};
use crate::host;
use crate::report::{median, ratio, Report};
use crate::trace::{write_spans, Totals, Tracer};
use crate::{
    inputs, same_loops, work_counters, Checks, Config, Layers, Measured, Quality, Setup,
    Setups, Timed,
};

/// One cell: loop index, budget, strategy — `run_batch`'s order.
type Cell = (usize, u32, Strategy);

/// Runs a batch workload.
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

/// [`run`], with `doctor` applied to every timed `run_batch` report
/// before it is checked (the self-tests corrupt one to see it caught).
fn run_with(
    cfg: &Config,
    seconds: f64,
    traced: bool,
    spans: Option<&mut String>,
    doctor: impl Fn(&mut BatchReport),
) -> Result<Report, String> {
    let mut setup = Setup::new(
        cfg,
        |s: &mut Setups| {
            let (loops, generate_ms, parse_ms) = inputs(cfg)?;
            s.generate_ms.push(generate_ms);
            s.parse_ms.push(parse_ms);
            Ok(loops)
        },
        |a, b| same_loops(a, b),
    );
    let loops = setup.first()?;
    let machine = MachineConfig::p2l4();
    let jobs = NonZeroUsize::new(cfg.jobs).ok_or("jobs must be positive")?;
    let cells: Vec<Cell> = loops
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            cfg.budgets
                .iter()
                .flat_map(move |&b| cfg.strategies.iter().map(move |&s| (i, b, s)))
        })
        .collect();

    // Untimed: compile every cell both ways and check it.
    let checked: Vec<Checked> = parallel_map(&cells, jobs, |_, &(i, budget, strategy)| {
        check::op(&loops[i].ddg, &machine, budget, &cfg.options(strategy))
    });
    let mut checks = summarize(&loops, &cells, &checked);
    let request = BatchRequest {
        machine: machine.clone(),
        budgets: cfg.budgets.clone(),
        strategies: cfg.strategies.clone(),
        options: CompileOptions::default(),
        jobs,
    };

    let mut mismatched = vec![false; cells.len()];
    let measured = if traced {
        let mut layers = Layers::default();
        let untraced = timed_passes(
            &loops,
            &request,
            &checked,
            seconds / 2.0,
            &mut mismatched,
            &doctor,
            &mut |share| setup.pace(&loops, share),
            |r, wall_ms| {
                layers.exec_wall_ms.push(wall_ms);
                layers
                    .exec_busy_ms
                    .push(r.cells.iter().map(|c| c.wall.as_secs_f64() * 1e3).sum());
            },
        );
        let traced_ops_per_s = traced_passes(
            cfg,
            &loops,
            &cells,
            &machine,
            &checked,
            seconds / 2.0,
            &mut mismatched,
            &mut layers,
            spans,
        );
        layers.overhead_share = ratio(traced_ops_per_s, untraced.ops_per_s()) - 1.0;
        if layers.passes.iter().any(|t| t.calls != checks.counts.calls) {
            checks.failures.push("a traced pass made other calls than the checked pass".into());
        }
        let samples = vec![
            ("untraced_passes", Value::uint(untraced.passes)),
            ("traced_passes", Value::uint(layers.passes.len() as u64)),
        ];
        Measured::Traced(layers, samples)
    } else {
        Measured::Untraced(timed_passes(
            &loops,
            &request,
            &checked,
            seconds,
            &mut mismatched,
            &doctor,
            &mut |share| setup.pace(&loops, share),
            |_, _| (),
        ))
    };
    let setups = setup.finish(&loops)?;
    for (k, bad) in mismatched.iter().enumerate() {
        if *bad && !matches!(checked[k].verdict, Verdict::Error(_)) {
            checks.failures.push(format!(
                "{}: a timed pass disagreed with the checked result",
                describe(&loops, cells[k])
            ));
        }
    }
    let (metrics, samples) = measured.metrics(&setups, &checks, cfg.jobs);
    Ok(Report {
        config: cfg.fingerprint(),
        work: work_counters(&checks),
        host: Vec::new(),
        samples,
        metrics,
        attempted: cells.len() as u64,
        failures: checks.failures,
    })
}

fn describe(loops: &[BenchLoop], (i, budget, strategy): Cell) -> String {
    format!("{} @ {budget} regs, {}", loops[i].name, regpipe_exec::strategy_slug(strategy))
}

/// Folds the checked cells into quality, counts and failures.
pub(crate) fn summarize(loops: &[BenchLoop], cells: &[Cell], checked: &[Checked]) -> Checks {
    let mut quality = Quality { ops: cells.len() as u64, ..Quality::default() };
    let mut counts = Totals::default();
    let mut failures = Vec::new();
    for (&cell, c) in cells.iter().zip(checked) {
        counts.absorb(&c.tracer);
        let weight = loops[cell.0].weight;
        match (&c.verdict, &c.status) {
            (Verdict::Fitted, CellStatus::Fitted { ii, memory_ops, spilled, .. }) => {
                quality.fitted += 1;
                quality.ii_cycles += u64::from(*ii);
                quality.mem_refs += u64::from(*memory_ops);
                quality.weighted_ii_cycles += u64::from(*ii) * weight;
                quality.weighted_mem_refs += u64::from(*memory_ops) * weight;
                quality.spilled += u64::from(*spilled);
            }
            (Verdict::Unfit, _) => quality.unfit += 1,
            (Verdict::Error(e), _) => failures.push(format!("{}: {e}", describe(loops, cell))),
            (Verdict::Fitted, CellStatus::Failed { .. }) => {
                unreachable!("a fitted verdict has a fitted status")
            }
        }
    }
    Checks { quality, counts, failures }
}

/// Repeats `run_batch` passes for `seconds`, comparing every cell with
/// its checked status after each pass. `pace` is told, after each pass,
/// the share of `seconds` gone.
#[allow(clippy::too_many_arguments)]
fn timed_passes(
    loops: &[BenchLoop],
    request: &BatchRequest,
    checked: &[Checked],
    seconds: f64,
    mismatched: &mut [bool],
    doctor: impl Fn(&mut BatchReport),
    pace: &mut dyn FnMut(f64),
    mut per_pass: impl FnMut(&BatchReport, f64),
) -> Timed {
    let mut timed = Timed::default();
    let started = Instant::now();
    let mut reference_ms = host::reference_ms(request.jobs.get());
    while timed.passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let cpu = host::process_cpu_ms();
        let pass = Instant::now();
        let mut report = run_batch(loops, request);
        let wall = pass.elapsed().as_secs_f64();
        let cpu = host::process_cpu_ms() - cpu;
        let before =
            std::mem::replace(&mut reference_ms, host::reference_ms(request.jobs.get()));
        doctor(&mut report);
        let lat_ms: Vec<f64> =
            report.cells.iter().map(|c| c.wall.as_secs_f64() * 1e3).collect();
        timed.record(&lat_ms, wall, cpu, host::speed(before, reference_ms));
        for ((cell, reference), bad) in
            report.cells.iter().zip(checked).zip(mismatched.iter_mut())
        {
            *bad |= cell.status != reference.status;
        }
        per_pass(&report, wall * 1e3);
        drop(report);
        pace(started.elapsed().as_secs_f64() / seconds);
    }
    timed
}

/// Repeats instrumented passes for `seconds`; returns their median ops
/// per second.
#[allow(clippy::too_many_arguments)]
fn traced_passes(
    cfg: &Config,
    loops: &[BenchLoop],
    cells: &[Cell],
    machine: &MachineConfig,
    checked: &[Checked],
    seconds: f64,
    mismatched: &mut [bool],
    layers: &mut Layers,
    mut spans: Option<&mut String>,
) -> f64 {
    let jobs = NonZeroUsize::new(cfg.jobs).expect("jobs checked positive");
    let epoch = Instant::now();
    let mut ops_per_s = Vec::new();
    let mut span_base = 0u64;
    while layers.passes.is_empty() || epoch.elapsed().as_secs_f64() < seconds {
        let op_base = (layers.passes.len() * cells.len()) as u32;
        let pass = Instant::now();
        let results = parallel_map(cells, jobs, |k, &(i, budget, strategy)| {
            let mut tracer = Tracer::timed(epoch);
            tracer.set_op(op_base + k as u32);
            let result = crate::drivers::compile(
                &mut tracer,
                &loops[i].ddg,
                machine,
                budget,
                &cfg.options(strategy),
            );
            (result, tracer)
        });
        ops_per_s.push(ratio(cells.len() as f64, pass.elapsed().as_secs_f64()));
        let mut totals = Totals::default();
        for ((result, tracer), (reference, bad)) in
            results.iter().zip(checked.iter().zip(mismatched.iter_mut()))
        {
            *bad |= !check::same_as_reference(result, reference);
            totals.absorb(tracer);
            if let Some(out) = spans.as_deref_mut() {
                write_spans(out, &tracer.spans, span_base);
                span_base += tracer.spans.len() as u64;
            }
        }
        layers.passes.push(totals);
    }
    median(&ops_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn ok_share(report: &Report) -> f64 {
        report.metrics.iter().find(|m| m.name == "ok_share").expect("ok_share").value
    }

    #[test]
    fn a_timed_pass_that_disagrees_lowers_ok_share() {
        let cfg = Config::tiny(Workload::PaperSuite, 3);
        let clean = run(&cfg, 0.01, false, None).expect("tiny run");
        assert!(clean.correct());
        assert_eq!(ok_share(&clean), 1.0);
        let doctored = run_with(&cfg, 0.01, false, None, |r| {
            r.cells[0].status = CellStatus::Failed { error: "doctored".into() };
        })
        .expect("tiny run");
        assert!(!doctored.correct());
        assert_eq!(doctored.failed(), 1);
        assert!(ok_share(&doctored) < 1.0);
        assert_eq!(doctored.work.iter().find(|(k, _)| *k == "errors"), Some(&("errors", 1)));
    }
}
