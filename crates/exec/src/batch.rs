//! The batch-compilation engine: `BatchRequest` → `BatchReport`.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use regpipe_core::{compile, CompileOptions, Strategy};
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;

use crate::json::Value;
use crate::pmap::parallel_map;

/// One batch run: every loop of a suite, at every register budget, under
/// every strategy — each cell an independent `compile` call.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The machine model all cells compile for.
    pub machine: MachineConfig,
    /// Register budgets (the paper's evaluation uses `[64, 32]`).
    pub budgets: Vec<u32>,
    /// Strategies to compare; each cell overrides
    /// [`CompileOptions::strategy`] with its own.
    pub strategies: Vec<Strategy>,
    /// Base compile options (heuristic, accelerations).
    pub options: CompileOptions,
    /// Worker threads (see [`crate::resolve_jobs`]).
    pub jobs: NonZeroUsize,
}

/// What happened in one cell.
#[derive(Clone, PartialEq, Debug)]
pub enum CellStatus {
    /// The loop fits the budget.
    Fitted {
        /// Achieved initiation interval.
        ii: u32,
        /// Registers used (≤ the cell's budget).
        regs: u32,
        /// Lifetimes spilled.
        spilled: u32,
        /// Scheduling rounds consumed.
        reschedules: u32,
        /// Memory operations per iteration of the final body.
        memory_ops: u32,
        /// Which strategy actually produced the schedule (for
        /// [`Strategy::BestOfAll`], the winning arm).
        strategy_used: Strategy,
    },
    /// The strategy could not reach the budget.
    Failed {
        /// The driver's error message (deterministic).
        error: String,
    },
}

/// Outcome of one `loop × budget × strategy` cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Index of the loop in the request's suite (report order).
    pub loop_index: usize,
    /// The loop's name.
    pub loop_name: String,
    /// The loop's dynamic execution weight.
    pub weight: u64,
    /// Register budget of this cell.
    pub budget: u32,
    /// Strategy requested for this cell.
    pub strategy: Strategy,
    /// Result of the compile call.
    pub status: CellStatus,
    /// Wall-clock time of the compile call. The only non-deterministic
    /// field; excluded from [`BatchReport::to_json`] unless asked for.
    pub wall: Duration,
}

impl CellOutcome {
    /// Execution cycles this cell contributes (`II · weight`; 0 on failure).
    pub fn cycles(&self) -> u64 {
        match self.status {
            CellStatus::Fitted { ii, .. } => u64::from(ii) * self.weight,
            CellStatus::Failed { .. } => 0,
        }
    }

    /// Dynamic memory references (`memory-ops · weight`; 0 on failure).
    pub fn memory_refs(&self) -> u64 {
        match self.status {
            CellStatus::Fitted { memory_ops, .. } => u64::from(memory_ops) * self.weight,
            CellStatus::Failed { .. } => 0,
        }
    }
}

/// Per-`(budget, strategy)` aggregate of a report.
#[derive(Clone, Debug, Default)]
pub struct BatchAggregate {
    /// Register budget.
    pub budget: u32,
    /// Strategy (as requested).
    pub strategy: Option<Strategy>,
    /// Cells that fit the budget.
    pub fitted: u32,
    /// Cells that failed (excluded from the sums).
    pub failures: u32,
    /// Σ II·weight over fitted cells.
    pub cycles: u64,
    /// Σ memory-ops·weight over fitted cells.
    pub memory_refs: u64,
    /// Σ lifetimes spilled.
    pub spilled: u64,
    /// Σ scheduling rounds.
    pub reschedules: u64,
    /// Σ wall-clock compile time (non-deterministic).
    pub wall: Duration,
}

/// The collected outcomes of a batch run, in deterministic cell order:
/// loop-major, then budget, then strategy, exactly as requested.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Machine name (e.g. `P2L4`).
    pub machine: String,
    /// Canonical slug of the core scheduler every cell ran
    /// (`hrms`/`sms`/`asap`, from [`CompileOptions::scheduler`]).
    pub scheduler: String,
    /// Canonical slug of the spill policy every cell ranked victims with
    /// (from `CompileOptions::spill.policy`).
    pub spill_policy: String,
    /// Number of loops in the suite.
    pub suite_size: usize,
    /// Worker threads the run used (metadata only; results are identical
    /// for every value).
    pub jobs: usize,
    /// One outcome per cell.
    pub cells: Vec<CellOutcome>,
    /// End-to-end wall time of the batch (non-deterministic).
    pub total_wall: Duration,
}

impl BatchReport {
    /// Aggregates grouped by `(budget, strategy)`, in request order.
    pub fn aggregates(&self) -> Vec<BatchAggregate> {
        let mut groups: Vec<BatchAggregate> = Vec::new();
        for cell in &self.cells {
            let agg = match groups
                .iter_mut()
                .find(|a| a.budget == cell.budget && a.strategy == Some(cell.strategy))
            {
                Some(a) => a,
                None => {
                    groups.push(BatchAggregate {
                        budget: cell.budget,
                        strategy: Some(cell.strategy),
                        ..BatchAggregate::default()
                    });
                    groups.last_mut().unwrap()
                }
            };
            agg.wall += cell.wall;
            match cell.status {
                CellStatus::Fitted { spilled, reschedules, .. } => {
                    agg.fitted += 1;
                    agg.cycles += cell.cycles();
                    agg.memory_refs += cell.memory_refs();
                    agg.spilled += u64::from(spilled);
                    agg.reschedules += u64::from(reschedules);
                }
                CellStatus::Failed { .. } => agg.failures += 1,
            }
        }
        groups
    }

    /// Renders the report as `BENCH_suite.json` (schema
    /// `regpipe-bench-suite/v3`; v2 added the top-level `scheduler` field
    /// recording the scheduler axis of the run, v3 the `spill_policy`
    /// field recording the spill-policy axis).
    ///
    /// With `include_timing = false` (the default for emitted files) the
    /// rendering contains only deterministic fields and is byte-identical
    /// for any job count; `include_timing = true` adds `wall_us` per cell
    /// and aggregate plus `total_wall_us` and `jobs` at the top level.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut top = vec![
            ("schema".to_string(), Value::Str("regpipe-bench-suite/v3".into())),
            ("machine".to_string(), Value::Str(self.machine.clone())),
            ("scheduler".to_string(), Value::Str(self.scheduler.clone())),
            ("spill_policy".to_string(), Value::Str(self.spill_policy.clone())),
            ("suite_size".to_string(), Value::uint(self.suite_size as u64)),
        ];
        if include_timing {
            top.push(("jobs".into(), Value::uint(self.jobs as u64)));
            top.push(("total_wall_us".into(), Value::uint(self.total_wall.as_micros() as u64)));
        }
        let aggregates = self
            .aggregates()
            .iter()
            .map(|a| {
                let mut pairs = vec![
                    ("budget".to_string(), Value::uint(u64::from(a.budget))),
                    (
                        "strategy".to_string(),
                        Value::Str(a.strategy.map_or("?", strategy_slug).into()),
                    ),
                    ("fitted".to_string(), Value::uint(u64::from(a.fitted))),
                    ("failures".to_string(), Value::uint(u64::from(a.failures))),
                    ("cycles".to_string(), Value::uint(a.cycles)),
                    ("memory_refs".to_string(), Value::uint(a.memory_refs)),
                    ("spilled".to_string(), Value::uint(a.spilled)),
                    ("reschedules".to_string(), Value::uint(a.reschedules)),
                ];
                if include_timing {
                    pairs.push(("wall_us".into(), Value::uint(a.wall.as_micros() as u64)));
                }
                Value::Object(pairs)
            })
            .collect();
        top.push(("aggregates".into(), Value::Array(aggregates)));
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    ("loop".to_string(), Value::Str(c.loop_name.clone())),
                    ("index".to_string(), Value::uint(c.loop_index as u64)),
                    ("weight".to_string(), Value::uint(c.weight)),
                    ("budget".to_string(), Value::uint(u64::from(c.budget))),
                    ("strategy".to_string(), Value::Str(strategy_slug(c.strategy).into())),
                ];
                match &c.status {
                    CellStatus::Fitted {
                        ii,
                        regs,
                        spilled,
                        reschedules,
                        memory_ops,
                        strategy_used,
                    } => {
                        pairs.push(("status".into(), Value::Str("fitted".into())));
                        pairs.push(("ii".into(), Value::uint(u64::from(*ii))));
                        pairs.push(("regs".into(), Value::uint(u64::from(*regs))));
                        pairs.push(("spilled".into(), Value::uint(u64::from(*spilled))));
                        pairs
                            .push(("reschedules".into(), Value::uint(u64::from(*reschedules))));
                        pairs.push(("memory_ops".into(), Value::uint(u64::from(*memory_ops))));
                        pairs.push(("cycles".into(), Value::uint(c.cycles())));
                        pairs.push(("memory_refs".into(), Value::uint(c.memory_refs())));
                        pairs.push((
                            "strategy_used".into(),
                            Value::Str(strategy_slug(*strategy_used).into()),
                        ));
                    }
                    CellStatus::Failed { error } => {
                        pairs.push(("status".into(), Value::Str("failed".into())));
                        pairs.push(("error".into(), Value::Str(error.clone())));
                    }
                }
                if include_timing {
                    pairs.push(("wall_us".into(), Value::uint(c.wall.as_micros() as u64)));
                }
                Value::Object(pairs)
            })
            .collect();
        top.push(("cells".into(), Value::Array(cells)));
        let mut text = Value::Object(top).render();
        text.push('\n');
        text
    }
}

/// The canonical CLI spelling of a strategy.
pub fn strategy_slug(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::BestOfAll => "best",
        Strategy::Spill => "spill",
        Strategy::IncreaseIi => "increase-ii",
    }
}

/// Parses a CLI strategy spelling (the inverse of [`strategy_slug`]).
///
/// # Errors
///
/// Names the unknown value and lists the strategies.
pub fn parse_strategy(raw: &str) -> Result<Strategy, String> {
    Strategy::ALL.into_iter().find(|&s| strategy_slug(s) == raw).ok_or_else(|| {
        let [rest @ .., last] = Strategy::ALL.map(strategy_slug);
        format!("unknown strategy '{raw}' (expected {} or {last})", rest.join(", "))
    })
}

/// Runs every `loop × budget × strategy` cell of `req` over `loops`,
/// fanning out across `req.jobs` workers.
///
/// Cell results are deterministic and ordered (loop-major, then budget,
/// then strategy) regardless of the worker count; only the `wall` fields
/// differ between runs.
pub fn run_batch(loops: &[BenchLoop], req: &BatchRequest) -> BatchReport {
    let started = Instant::now();
    let mut keys: Vec<(usize, u32, Strategy)> =
        Vec::with_capacity(loops.len() * req.budgets.len() * req.strategies.len());
    for index in 0..loops.len() {
        for &budget in &req.budgets {
            for &strategy in &req.strategies {
                keys.push((index, budget, strategy));
            }
        }
    }
    let cells = parallel_map(&keys, req.jobs, |_, &(index, budget, strategy)| {
        let l = &loops[index];
        let options = CompileOptions { strategy, ..req.options };
        let cell_started = Instant::now();
        let status = match compile(&l.ddg, &req.machine, budget, &options) {
            Ok(c) => CellStatus::Fitted {
                ii: c.ii(),
                regs: c.registers_used(),
                spilled: c.spilled(),
                reschedules: c.reschedules(),
                memory_ops: c.memory_ops(),
                strategy_used: c.strategy_used(),
            },
            Err(e) => CellStatus::Failed { error: e.to_string() },
        };
        CellOutcome {
            loop_index: index,
            loop_name: l.name.clone(),
            weight: l.weight,
            budget,
            strategy,
            status,
            wall: cell_started.elapsed(),
        }
    });
    BatchReport {
        machine: req.machine.name().to_string(),
        scheduler: req.options.scheduler.slug().to_string(),
        spill_policy: req.options.spill_policy().slug().to_string(),
        suite_size: loops.len(),
        jobs: req.jobs.get(),
        cells,
        total_wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_loops::suite;

    fn request(jobs: usize) -> BatchRequest {
        BatchRequest {
            machine: MachineConfig::p2l4(),
            budgets: vec![64, 32],
            strategies: vec![Strategy::BestOfAll, Strategy::IncreaseIi],
            options: CompileOptions::default(),
            jobs: NonZeroUsize::new(jobs).unwrap(),
        }
    }

    #[test]
    fn cell_order_is_loop_major() {
        let loops = suite(3, 3);
        let report = run_batch(&loops, &request(2));
        assert_eq!(report.cells.len(), 3 * 2 * 2);
        let head: Vec<(usize, u32)> =
            report.cells.iter().take(5).map(|c| (c.loop_index, c.budget)).collect();
        assert_eq!(head, [(0, 64), (0, 64), (0, 32), (0, 32), (1, 64)]);
    }

    #[test]
    fn aggregates_group_in_request_order() {
        let loops = suite(3, 4);
        let report = run_batch(&loops, &request(1));
        let aggs = report.aggregates();
        assert_eq!(aggs.len(), 4);
        assert_eq!(aggs[0].budget, 64);
        assert_eq!(aggs[0].strategy, Some(Strategy::BestOfAll));
        assert_eq!(aggs[3].budget, 32);
        assert_eq!(aggs[3].strategy, Some(Strategy::IncreaseIi));
        for a in &aggs {
            assert_eq!(a.fitted + a.failures, 4);
        }
    }

    #[test]
    fn json_parses_and_omits_timing_by_default() {
        let loops = suite(3, 2);
        let report = run_batch(&loops, &request(2));
        let text = report.to_json(false);
        let doc = crate::json::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("schema"), Some(&Value::Str("regpipe-bench-suite/v3".into())));
        assert_eq!(doc.get("scheduler"), Some(&Value::Str("hrms".into())));
        assert_eq!(doc.get("spill_policy"), Some(&Value::Str("paper".into())));
        assert!(!text.contains("wall_us"));
        let timed = report.to_json(true);
        assert!(timed.contains("wall_us"));
        crate::json::parse(&timed).expect("timed report JSON parses");
    }

    /// The scheduler axis flows from the request into the report: the
    /// top-level field records the slug, and a non-default scheduler
    /// produces its own deterministic results.
    #[test]
    fn scheduler_axis_is_recorded_and_deterministic() {
        use regpipe_core::SchedulerKind;
        let loops = suite(3, 4);
        for kind in SchedulerKind::ALL {
            let mut req = request(2);
            req.options.scheduler = kind;
            let parallel = run_batch(&loops, &req).to_json(false);
            req.jobs = NonZeroUsize::new(1).unwrap();
            let sequential = run_batch(&loops, &req).to_json(false);
            assert_eq!(parallel, sequential, "{kind}: jobs must not matter");
            let doc = crate::json::parse(&parallel).unwrap();
            assert_eq!(doc.get("scheduler"), Some(&Value::Str(kind.slug().into())));
        }
    }

    /// The spill-policy axis flows from the request into the report: the
    /// top-level field records the slug, and every registered policy
    /// produces byte-identical results at any job count.
    #[test]
    fn spill_policy_axis_is_recorded_and_deterministic() {
        use regpipe_core::SpillPolicyKind;
        let loops = suite(3, 4);
        for kind in SpillPolicyKind::ALL {
            let mut req = request(2);
            req.options.spill.policy = kind;
            let parallel = run_batch(&loops, &req).to_json(false);
            req.jobs = NonZeroUsize::new(1).unwrap();
            let sequential = run_batch(&loops, &req).to_json(false);
            assert_eq!(parallel, sequential, "{kind}: jobs must not matter");
            let doc = crate::json::parse(&parallel).unwrap();
            assert_eq!(doc.get("spill_policy"), Some(&Value::Str(kind.slug().into())));
        }
    }

    #[test]
    fn strategy_slugs_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(parse_strategy(strategy_slug(s)).unwrap(), s);
        }
        assert_eq!(
            parse_strategy("bogus").unwrap_err(),
            "unknown strategy 'bogus' (expected best, spill or increase-ii)"
        );
    }
}
