//! `regpipe_core::compile` re-driven from outside the crate, one public
//! call at a time, so each call can be timed as a span.
//!
//! The loops below follow the order of the three drivers in
//! `crates/core` (spill, increase-II, best-of-all) and call the same
//! public functions. [`crate::check`] asserts, cell by cell, that the
//! result equals `compile`'s — II, registers, spills, reschedules and the
//! schedule itself — so the spans measure the program, not a look-alike.
//! They also do the drivers' own bookkeeping, which the equality check
//! cannot see: the deadline check-points, the spill trace point of every
//! round (with the memory-unit utilization of an `Mrt`), the increase-II
//! sweep trace, the outcome structs and the best-of-all clones. That work
//! is the self time of `core.compile`.
//! The one departure: a best-of-all probe calls `schedule_in` and
//! `allocate` itself, which is the whole body of
//! `IncreaseIiDriver::probe_in`, so that its time lands on the `sched`
//! and `regalloc` layers instead of on an opaque `core` call.

use std::time::Instant;

use regpipe_core::{
    BestOfAllOutcome, CompileOptions, IiSweepPoint, IncreaseIiOutcome, SchedulerKind,
    SpillDriverOptions, SpillOutcome, SpillTracePoint, Strategy, Winner,
};
use regpipe_ddg::Ddg;
use regpipe_machine::{MachineConfig, Mrt};
use regpipe_regalloc::{allocate, AllocationResult, LifetimeAnalysis};
use regpipe_sched::{deadline, LoopAnalysis, SchedRequest, Schedule, Scheduler};
use regpipe_spill::{candidates, spill_batch, RankContext, SpillCandidate, SpillPolicy};

use crate::trace::{Layer, Tracer};

/// `IncreaseIiDriver`'s default plateau window (consecutive IIs without
/// improvement before the sweep gives up).
const PLATEAU_WINDOW: u32 = 12;

/// A fitted compile: the fields of `CompiledLoop` that the equality
/// check compares.
#[derive(Clone, Debug)]
pub struct Fitted {
    /// Final loop body.
    pub ddg: Ddg,
    /// Final schedule.
    pub schedule: Schedule,
    /// Its allocation.
    pub allocation: AllocationResult,
    /// Lifetimes spilled.
    pub spilled: u32,
    /// Scheduling rounds, as `CompiledLoop::reschedules` counts them.
    pub reschedules: u32,
    /// The strategy that produced the schedule.
    pub strategy_used: Strategy,
}

impl Fitted {
    /// Registers used.
    pub fn regs(&self) -> u32 {
        self.allocation.total()
    }
}

/// Why a compile did not fit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Unfit {
    /// The loop legitimately cannot meet the budget with this strategy
    /// (increase-II never converges or plateaus; nothing left to spill).
    Budget,
    /// An outcome a correct compile never produces: a scheduler error or
    /// the spill driver's round cap.
    Error(String),
}

/// Compiles `ddg` under `regs` registers exactly as `regpipe_core::compile`
/// does, recording every call into `tracer`. The driver outcomes are
/// built, traces and clones included, and turned into the result as
/// `compile` turns them into a `CompiledLoop`.
pub fn compile(
    tracer: &mut Tracer,
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
    options: &CompileOptions,
) -> Result<Fitted, Unfit> {
    tracer.span(Layer::Compile, |t| match options.strategy {
        Strategy::IncreaseIi => {
            let out = increase_ii(t, options.scheduler, ddg, machine, regs)?;
            Ok(Fitted {
                ddg: ddg.clone(),
                schedule: out.schedule,
                allocation: out.allocation,
                spilled: 0,
                reschedules: out.trace.len() as u32,
                strategy_used: Strategy::IncreaseIi,
            })
        }
        Strategy::Spill => {
            let out = spill(t, options.scheduler, &options.spill, ddg, machine, regs)?;
            Ok(Fitted {
                ddg: out.ddg,
                schedule: out.schedule,
                allocation: out.allocation,
                spilled: out.spilled,
                reschedules: out.reschedules,
                strategy_used: Strategy::Spill,
            })
        }
        Strategy::BestOfAll => {
            let out = best_of_all(t, options, ddg, machine, regs)?;
            let (strategy_used, spilled) = match out.winner {
                Winner::Spill => (Strategy::Spill, out.spill.spilled),
                Winner::IncreaseIi => (Strategy::IncreaseIi, 0),
            };
            Ok(Fitted {
                ddg: out.ddg,
                schedule: out.schedule,
                allocation: out.allocation,
                spilled,
                reschedules: out.spill.reschedules + out.probes,
                strategy_used,
            })
        }
    })
}

fn increase_ii(
    t: &mut Tracer,
    scheduler: SchedulerKind,
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
) -> Result<IncreaseIiOutcome, Unfit> {
    let ctx = t.span(Layer::LoopAnalysis, |_| LoopAnalysis::new(ddg, machine));
    let lower = ctx.mii();
    let cap = ctx.fallback_max_ii().max(lower);
    let mut trace = Vec::new();
    let mut best = u32::MAX;
    let mut since_improvement = 0u32;
    let mut ii = lower;
    loop {
        deadline::check();
        let sched = t
            .span(Layer::ScheduleIn, |_| {
                scheduler.schedule_in(&ctx, &SchedRequest { min_ii: Some(ii), max_ii: None })
            })
            .map_err(|e| Unfit::Error(format!("scheduling failed: {e}")))?;
        t.work.iis_tried += u64::from(sched.iis_tried());
        t.work.rounds += 1;
        let found_ii = sched.ii();
        let allocation = t.span(Layer::Allocate, |_| allocate(ddg, &sched));
        trace.push(IiSweepPoint {
            ii: found_ii,
            regs: allocation.total(),
            stage_count: sched.stage_count(),
        });
        if allocation.total() <= regs {
            return Ok(IncreaseIiOutcome { schedule: sched, allocation, mii: lower, trace });
        }
        if allocation.total() < best {
            best = allocation.total();
            since_improvement = 0;
        } else {
            since_improvement += 1;
        }
        if sched.stage_count() == 1 || since_improvement >= PLATEAU_WINDOW || found_ii >= cap {
            return Err(Unfit::Budget);
        }
        ii = found_ii + 1;
    }
}

/// The spill driver's trace point of one round, memory-unit utilization
/// included.
fn trace_point(
    g: &Ddg,
    machine: &MachineConfig,
    sched: &Schedule,
    spilled: u32,
    mii: u32,
    regs: u32,
) -> SpillTracePoint {
    let mut mrt = Mrt::new(machine, sched.ii());
    for (id, node) in g.ops() {
        if node.kind().is_memory() {
            mrt.place(node.kind(), sched.start(id));
        }
    }
    SpillTracePoint {
        spilled,
        mii,
        ii: sched.ii(),
        regs,
        memory_ops: g.memory_ops() as u32,
        memory_utilization: mrt.memory_utilization(),
    }
}

fn spill(
    t: &mut Tracer,
    scheduler: SchedulerKind,
    options: &SpillDriverOptions,
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
) -> Result<SpillOutcome, Unfit> {
    let started = Instant::now();
    let mut g = ddg.clone();
    let mut trace = Vec::new();
    let mut spilled = 0u32;
    let mut reschedules = 0u32;
    let mut iis_explored = 0u32;
    let mut prev_ii: Option<u32> = None;
    loop {
        deadline::check();
        if reschedules >= options.max_rounds {
            return Err(Unfit::Error("spill driver hit its round cap".into()));
        }
        let (sched, current_mii) = {
            let ctx = t.span(Layer::LoopAnalysis, |_| LoopAnalysis::new(&g, machine));
            let current_mii = ctx.mii();
            let min_ii = if options.last_ii_pruning {
                prev_ii.map(|p| p.max(current_mii))
            } else {
                None
            };
            let sched = t
                .span(Layer::ScheduleIn, |_| {
                    scheduler.schedule_in(&ctx, &SchedRequest { min_ii, max_ii: None })
                })
                .map_err(|e| Unfit::Error(format!("scheduling failed: {e}")))?;
            (sched, current_mii)
        };
        reschedules += 1;
        iis_explored += sched.iis_tried();
        t.work.rounds += 1;
        t.work.iis_tried += u64::from(sched.iis_tried());
        let allocation = t.span(Layer::Allocate, |_| allocate(&g, &sched));
        trace.push(trace_point(&g, machine, &sched, spilled, current_mii, allocation.total()));
        if allocation.total() <= regs {
            return Ok(SpillOutcome {
                ddg: g,
                schedule: sched,
                allocation,
                spilled,
                reschedules,
                iis_explored,
                elapsed: started.elapsed(),
                trace,
            });
        }
        let analysis = t.span(Layer::Lifetimes, |_| LifetimeAnalysis::new(&g, &sched));
        let victims: Vec<SpillCandidate> = t.span(Layer::Rank, |_| {
            let pool = candidates(&g, &analysis);
            let rank_ctx = RankContext {
                analysis: &analysis,
                heuristic: options.heuristic,
                round: reschedules as usize,
            };
            let policy = options.policy;
            let batch: Vec<SpillCandidate> = if options.multi_spill {
                policy.select_batch(&pool, &rank_ctx, regs).into_iter().cloned().collect()
            } else {
                Vec::new()
            };
            if batch.is_empty() {
                policy.select(&pool, &rank_ctx).into_iter().cloned().collect()
            } else {
                batch
            }
        });
        if victims.is_empty() {
            if options.ii_relief {
                let round = Round { spilled, reschedules, iis_explored, trace, started };
                return ii_relief(t, scheduler, options, g, machine, regs, sched.ii(), round);
            }
            return Err(Unfit::Budget);
        }
        t.span(Layer::Rewrite, |_| spill_batch(&mut g, &victims));
        t.work.victims += victims.len() as u64;
        spilled += victims.len() as u32;
        prev_ii = Some(sched.ii());
    }
}

/// The spill driver's state when it hands over to the II-relief sweep.
struct Round {
    spilled: u32,
    reschedules: u32,
    iis_explored: u32,
    trace: Vec<SpillTracePoint>,
    started: Instant,
}

#[allow(clippy::too_many_arguments)]
fn ii_relief(
    t: &mut Tracer,
    scheduler: SchedulerKind,
    options: &SpillDriverOptions,
    g: Ddg,
    machine: &MachineConfig,
    regs: u32,
    from_ii: u32,
    round: Round,
) -> Result<SpillOutcome, Unfit> {
    let Round { spilled, mut reschedules, mut iis_explored, mut trace, started } = round;
    let (schedule, allocation) = {
        let ctx = t.span(Layer::LoopAnalysis, |_| LoopAnalysis::new(&g, machine));
        let mut ii = from_ii + 1;
        loop {
            deadline::check();
            if reschedules >= options.max_rounds {
                return Err(Unfit::Error("spill driver hit its round cap".into()));
            }
            let sched = t
                .span(Layer::ScheduleIn, |_| {
                    scheduler
                        .schedule_in(&ctx, &SchedRequest { min_ii: Some(ii), max_ii: None })
                })
                .map_err(|e| Unfit::Error(format!("scheduling failed: {e}")))?;
            reschedules += 1;
            iis_explored += sched.iis_tried();
            t.work.rounds += 1;
            t.work.iis_tried += u64::from(sched.iis_tried());
            let allocation = t.span(Layer::Allocate, |_| allocate(&g, &sched));
            trace.push(trace_point(
                &g,
                machine,
                &sched,
                spilled,
                ctx.mii(),
                allocation.total(),
            ));
            if allocation.total() <= regs {
                break (sched, allocation);
            }
            if sched.stage_count() == 1 {
                return Err(Unfit::Budget);
            }
            ii = sched.ii() + 1;
        }
    };
    Ok(SpillOutcome {
        ddg: g,
        schedule,
        allocation,
        spilled,
        reschedules,
        iis_explored,
        elapsed: started.elapsed(),
        trace,
    })
}

fn best_of_all(
    t: &mut Tracer,
    options: &CompileOptions,
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
) -> Result<BestOfAllOutcome, Unfit> {
    let spill_outcome = spill(t, options.scheduler, &options.spill, ddg, machine, regs)?;
    let spill_won = |spill: SpillOutcome, probes: u32| BestOfAllOutcome {
        ddg: spill.ddg.clone(),
        schedule: spill.schedule.clone(),
        allocation: spill.allocation.clone(),
        winner: Winner::Spill,
        spill,
        probes,
    };
    if spill_outcome.spilled == 0 {
        return Ok(spill_won(spill_outcome, 0));
    }
    let ctx = t.span(Layer::LoopAnalysis, |_| LoopAnalysis::new(ddg, machine));
    let mut lo = ctx.mii();
    let mut hi = spill_outcome.schedule.ii();
    let mut probes = 0u32;
    let mut best: Option<(Schedule, AllocationResult)> = None;
    while lo <= hi {
        deadline::check();
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        let probe = t
            .span(Layer::ScheduleIn, |_| {
                options.scheduler.schedule_in(&ctx, &SchedRequest::exactly(mid))
            })
            .map(|s| {
                t.work.iis_tried += u64::from(s.iis_tried());
                let a = t.span(Layer::Allocate, |_| allocate(ctx.ddg(), &s));
                (s, a)
            });
        match probe {
            Ok((s, a)) if a.total() <= regs => {
                t.work.probe_fits += 1;
                hi = s.ii().saturating_sub(1);
                best = Some((s, a));
            }
            _ => lo = mid + 1,
        }
        if hi == 0 {
            break;
        }
    }
    t.work.probes += u64::from(probes);
    Ok(match best {
        Some((schedule, allocation)) if schedule.ii() <= spill_outcome.schedule.ii() => {
            BestOfAllOutcome {
                ddg: ddg.clone(),
                schedule,
                allocation,
                winner: Winner::IncreaseIi,
                spill: spill_outcome,
                probes,
            }
        }
        _ => spill_won(spill_outcome, probes),
    })
}
