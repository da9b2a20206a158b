//! Equivalence gate for the `LoopAnalysis` caching layer.
//!
//! The per-loop analysis context must be a pure optimization: every
//! schedule, allocation, spill decision and provenance counter has to be
//! byte-identical whether the drivers share one context across probes and
//! rounds (the production path) or rebuild everything from scratch on every
//! scheduler call (the reference path, obtained by hiding the
//! `schedule_in` override behind a wrapper scheduler). A second family of
//! properties checks cache *invalidation*: after each spill rewrite, a
//! context rebuilt on the mutated graph agrees with the standalone
//! computations (groups, MII, RecMII, ordering, schedules) on that graph.

use proptest::prelude::*;

use regpipe::core::{BestOfAllDriver, IncreaseIiDriver, SpillDriver, SpillDriverOptions};
use regpipe::ddg::Ddg;
use regpipe::loops::{generate, GenParams};
use regpipe::machine::MachineConfig;
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::{
    mii, rec_mii, ComplexGroups, LoopAnalysis, SchedError, SchedRequest, Schedule,
};
use regpipe::spill::{candidates, spill_batch, RankContext, SelectHeuristic};

/// Reference scheduler: delegates to HRMS but deliberately does *not*
/// forward `schedule_in`, so every call through the `Scheduler` trait takes
/// the default fresh-context path. Drivers built over this wrapper redo all
/// II-independent analysis per scheduler call — the pre-cache behaviour.
#[derive(Clone, Copy, Debug, Default)]
struct UncachedHrms(HrmsScheduler);

impl Scheduler for UncachedHrms {
    fn name(&self) -> &'static str {
        "hrms-uncached"
    }

    fn schedule(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError> {
        self.0.schedule(ddg, machine, request)
    }
}

fn paper_machines() -> [MachineConfig; 3] {
    [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()]
}

/// One generated kernel per (seed, size) point; generation is deterministic
/// and always yields valid, finitely schedulable kernels.
fn kernel(seed: u64, ops: usize) -> Ddg {
    let params = GenParams { min_ops: ops, max_ops: ops, ..GenParams::default() };
    generate(seed, 1, &params).expect("valid knobs").remove(0).ddg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached and uncached compiles are identical across all three
    /// strategies and all paper machines: same DDG text, same schedule
    /// (II + starts + iis_tried), same allocation, same spill/reschedule
    /// provenance, and same error on failure.
    #[test]
    fn cached_and_uncached_compiles_are_identical(
        seed in 0u64..10_000,
        ops in 4usize..28,
        budget in prop::sample::select(vec![8u32, 16, 32, 64]),
    ) {
        let g = kernel(seed, ops);
        let options = SpillDriverOptions::default();
        for machine in &paper_machines() {
            // Strategy::Spill arm.
            let cached = SpillDriver::new(options).run(&g, machine, budget);
            let reference = SpillDriver::with_scheduler(UncachedHrms::default(), options)
                .run(&g, machine, budget);
            match (cached, reference) {
                (Ok(c), Ok(r)) => {
                    prop_assert_eq!(c.schedule, r.schedule);
                    prop_assert_eq!(c.allocation, r.allocation);
                    prop_assert_eq!(c.spilled, r.spilled);
                    prop_assert_eq!(c.reschedules, r.reschedules);
                    prop_assert_eq!(c.iis_explored, r.iis_explored);
                    prop_assert_eq!(
                        regpipe::ddg::textfmt::format(&c.ddg),
                        regpipe::ddg::textfmt::format(&r.ddg)
                    );
                    prop_assert_eq!(c.trace, r.trace);
                }
                (Err(c), Err(r)) => {
                    prop_assert_eq!(c.kind, r.kind);
                    prop_assert_eq!(c.best_regs, r.best_regs);
                    prop_assert_eq!(c.trace, r.trace);
                }
                (c, r) => prop_assert!(
                    false,
                    "spill outcomes diverged: cached ok={} reference ok={}",
                    c.is_ok(),
                    r.is_ok()
                ),
            }

            // Strategy::IncreaseIi arm.
            let cached = IncreaseIiDriver::new().run(&g, machine, budget);
            let reference = IncreaseIiDriver::with_scheduler(UncachedHrms::default())
                .run(&g, machine, budget);
            match (cached, reference) {
                (Ok(c), Ok(r)) => {
                    prop_assert_eq!(c.schedule, r.schedule);
                    prop_assert_eq!(c.allocation, r.allocation);
                    prop_assert_eq!(c.mii, r.mii);
                    prop_assert_eq!(c.trace, r.trace);
                }
                (Err(c), Err(r)) => {
                    prop_assert_eq!(c.kind, r.kind);
                    prop_assert_eq!(c.best_regs, r.best_regs);
                    prop_assert_eq!(c.trace, r.trace);
                }
                (c, r) => prop_assert!(
                    false,
                    "increase-II outcomes diverged: cached ok={} reference ok={}",
                    c.is_ok(),
                    r.is_ok()
                ),
            }

            // Strategy::BestOfAll arm.
            let cached = BestOfAllDriver::new(options).run(&g, machine, budget);
            let reference = BestOfAllDriver::with_scheduler(UncachedHrms::default(), options)
                .run(&g, machine, budget);
            match (cached, reference) {
                (Ok(c), Ok(r)) => {
                    prop_assert_eq!(c.schedule, r.schedule);
                    prop_assert_eq!(c.allocation, r.allocation);
                    prop_assert_eq!(c.winner, r.winner);
                    prop_assert_eq!(c.probes, r.probes);
                    prop_assert_eq!(
                        regpipe::ddg::textfmt::format(&c.ddg),
                        regpipe::ddg::textfmt::format(&r.ddg)
                    );
                }
                (Err(c), Err(r)) => prop_assert_eq!(c.kind, r.kind),
                (c, r) => prop_assert!(
                    false,
                    "best-of-all outcomes diverged: cached ok={} reference ok={}",
                    c.is_ok(),
                    r.is_ok()
                ),
            }
        }
    }

    /// Invalidation: running the spill pipeline by hand, the context
    /// rebuilt after every rewrite agrees with from-scratch computations on
    /// the mutated graph — cached bounds, groups, and the schedules (with
    /// provenance) produced through the context.
    #[test]
    fn rebuilt_context_matches_from_scratch_after_each_spill_round(
        seed in 0u64..10_000,
        ops in 4usize..20,
        machine_idx in 0usize..3,
        budget in prop::sample::select(vec![6u32, 12, 24]),
    ) {
        let machine = paper_machines()[machine_idx].clone();
        let mut g = kernel(seed, ops);
        let scheduler = HrmsScheduler::new();
        for _round in 0..4 {
            let ctx = LoopAnalysis::new(&g, &machine);
            // Cached bounds match the standalone functions.
            prop_assert_eq!(ctx.mii(), mii(&g, &machine));
            prop_assert_eq!(ctx.rec_mii(), rec_mii(&g, &machine));
            prop_assert!(ctx.matches(&g));
            // Groups match a from-scratch derivation.
            let fresh = ComplexGroups::new(&g, &machine);
            for (op, _) in g.ops() {
                prop_assert_eq!(ctx.groups().group_of(op), fresh.group_of(op));
                prop_assert_eq!(ctx.groups().offset(op), fresh.offset(op));
                prop_assert_eq!(ctx.groups().members_of(op), fresh.members_of(op));
            }
            // Scheduling through the context equals the fresh-context path,
            // provenance included.
            let via_ctx = scheduler.schedule_in(&ctx, &SchedRequest::default());
            let fresh = scheduler.schedule(&g, &machine, &SchedRequest::default());
            match (via_ctx, fresh) {
                (Ok(c), Ok(f)) => {
                    prop_assert_eq!(c.iis_tried(), f.iis_tried());
                    prop_assert_eq!(&c, &f);
                    // Advance the pipeline: allocate, pick victims, rewrite.
                    let analysis = LifetimeAnalysis::new(&g, &c);
                    if analysis.max_live() == 0 {
                        break;
                    }
                    let pool = candidates(&g, &analysis);
                    let heuristic = SelectHeuristic::MaxLtOverTraffic;
                    let rank = RankContext { analysis: &analysis, heuristic, round: 0 };
                    let victims: Vec<_> = SpillPolicyKind::Paper
                        .select(&pool, &rank)
                        .into_iter()
                        .cloned()
                        .collect();
                    if victims.is_empty() || allocate(&g, &c).total() <= budget {
                        break;
                    }
                    drop(ctx);
                    spill_batch(&mut g, &victims);
                }
                (c, f) => prop_assert!(
                    false,
                    "schedules diverged: ctx ok={} fresh ok={}",
                    c.is_ok(),
                    f.is_ok()
                ),
            }
        }
    }
}
