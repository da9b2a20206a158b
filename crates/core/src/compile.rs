//! One-call compilation of a loop under a register budget.

use std::error::Error;
use std::fmt;

use regpipe_ddg::Ddg;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::AllocationResult;
use regpipe_sched::{Kernel, Schedule, SchedulerKind};
use regpipe_spill::{SelectHeuristic, SpillPolicyKind};

use crate::best_of_all::{BestOfAllDriver, Winner};
use crate::increase_ii::{IncreaseIiDriver, IncreaseIiFailure};
use crate::spill_driver::{SpillDriver, SpillDriverOptions, SpillFailure};

/// Which register-reduction strategy [`compile`] should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Reschedule with increased IIs only (Figure 1a). May never converge.
    IncreaseIi,
    /// Iterative spilling (Figure 1b).
    Spill,
    /// Spill, then probe the unspilled loop up to the spill II and keep the
    /// better schedule (Section 5). The paper's recommended combination.
    BestOfAll,
}

impl Strategy {
    /// Every strategy, in the order reports and CLI defaults list them.
    pub const ALL: [Strategy; 3] = [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi];
}

/// Options for [`compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// The strategy; defaults to [`Strategy::BestOfAll`].
    pub strategy: Strategy,
    /// The core modulo scheduler every driver round runs; defaults to the
    /// paper's [`SchedulerKind::Hrms`]. The strategies are
    /// scheduler-agnostic, so `strategy × scheduler` is a full matrix.
    pub scheduler: SchedulerKind,
    /// Spill-driver tuning (heuristic + accelerations).
    pub spill: SpillDriverOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: Strategy::BestOfAll,
            scheduler: SchedulerKind::default(),
            spill: SpillDriverOptions::default(),
        }
    }
}

impl CompileOptions {
    /// Convenience: default options with a different selection heuristic.
    pub fn with_heuristic(heuristic: SelectHeuristic) -> Self {
        let mut o = CompileOptions::default();
        o.spill.heuristic = heuristic;
        o
    }

    /// Convenience: default options with a different spill policy.
    pub fn with_spill_policy(policy: SpillPolicyKind) -> Self {
        let mut o = CompileOptions::default();
        o.spill.policy = policy;
        o
    }

    /// The spill policy the spill-capable strategies will rank victims
    /// with (a shorthand for `options.spill.policy`). The increase-II
    /// strategy never spills, so the policy is inert there.
    pub fn spill_policy(&self) -> SpillPolicyKind {
        self.spill.policy
    }
}

/// A loop compiled under a register budget.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    ddg: Ddg,
    schedule: Schedule,
    allocation: AllocationResult,
    strategy_used: Strategy,
    spilled: u32,
    reschedules: u32,
}

impl CompiledLoop {
    /// The final loop body (with spill code if any was added).
    pub fn ddg(&self) -> &Ddg {
        &self.ddg
    }

    /// The final schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The final register allocation.
    pub fn allocation(&self) -> &AllocationResult {
        &self.allocation
    }

    /// Total registers used (rotating + invariants).
    pub fn registers_used(&self) -> u32 {
        self.allocation.total()
    }

    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Which strategy produced the schedule.
    pub fn strategy_used(&self) -> Strategy {
        self.strategy_used
    }

    /// Lifetimes spilled along the way (0 when no reduction was needed).
    pub fn spilled(&self) -> u32 {
        self.spilled
    }

    /// Scheduling rounds consumed.
    pub fn reschedules(&self) -> u32 {
        self.reschedules
    }

    /// Memory operations per iteration of the final body.
    pub fn memory_ops(&self) -> u32 {
        self.ddg.memory_ops() as u32
    }

    /// Extracts the kernel (stage-annotated, Figure 2e style).
    pub fn kernel(&self) -> Kernel {
        Kernel::new(&self.ddg, &self.schedule)
    }
}

impl fmt::Display for CompiledLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}': II={}, {} regs, {} spills, strategy {:?}",
            self.ddg.name(),
            self.ii(),
            self.registers_used(),
            self.spilled,
            self.strategy_used
        )
    }
}

/// Compilation failure.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The increase-II strategy never converges for this loop/budget.
    IncreaseIi(IncreaseIiFailure),
    /// The spilling strategy failed (nothing spillable / scheduler error).
    Spill(SpillFailure),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::IncreaseIi(e) => write!(f, "increase-II strategy failed: {e}"),
            CompileError::Spill(e) => write!(f, "spill strategy failed: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::IncreaseIi(e) => Some(e),
            CompileError::Spill(e) => Some(e),
        }
    }
}

/// Compiles `ddg` for `machine` so the schedule fits in `regs` registers.
///
/// Schedules at the best II the core scheduler finds; if the allocation
/// exceeds the budget, applies the selected register-reduction strategy.
///
/// # Errors
///
/// Returns [`CompileError`] when the chosen strategy cannot reach the
/// budget; the error carries the driver's trace for diagnostics.
pub fn compile(
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
    options: &CompileOptions,
) -> Result<CompiledLoop, CompileError> {
    match options.strategy {
        Strategy::IncreaseIi => {
            let out = IncreaseIiDriver::with_scheduler(options.scheduler)
                .run(ddg, machine, regs)
                .map_err(CompileError::IncreaseIi)?;
            Ok(CompiledLoop {
                ddg: ddg.clone(),
                schedule: out.schedule,
                allocation: out.allocation,
                strategy_used: Strategy::IncreaseIi,
                spilled: 0,
                reschedules: out.trace.len() as u32,
            })
        }
        Strategy::Spill => {
            let out = SpillDriver::with_scheduler(options.scheduler, options.spill)
                .run(ddg, machine, regs)
                .map_err(CompileError::Spill)?;
            Ok(CompiledLoop {
                ddg: out.ddg,
                schedule: out.schedule,
                allocation: out.allocation,
                strategy_used: Strategy::Spill,
                spilled: out.spilled,
                reschedules: out.reschedules,
            })
        }
        Strategy::BestOfAll => {
            let out = BestOfAllDriver::with_scheduler(options.scheduler, options.spill)
                .run(ddg, machine, regs)
                .map_err(CompileError::Spill)?;
            let strategy_used = match out.winner {
                Winner::Spill => Strategy::Spill,
                Winner::IncreaseIi => Strategy::IncreaseIi,
            };
            let spilled = match out.winner {
                Winner::Spill => out.spill.spilled,
                Winner::IncreaseIi => 0,
            };
            Ok(CompiledLoop {
                ddg: out.ddg,
                schedule: out.schedule,
                allocation: out.allocation,
                strategy_used,
                spilled,
                reschedules: out.spill.reschedules + out.probes,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    fn stencil() -> Ddg {
        let mut b = DdgBuilder::new("stencil");
        let ld = b.add_op(OpKind::Load, "ld");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, add);
        b.reg_dist(ld, add, 5);
        b.reg(add, st);
        b.build().unwrap()
    }

    #[test]
    fn default_compile_meets_budget() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        assert!(c.registers_used() <= 4);
        c.schedule().verify(c.ddg(), &m).unwrap();
    }

    #[test]
    fn all_strategies_agree_under_generous_budget() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
            let c =
                compile(&g, &m, 64, &CompileOptions { strategy, ..CompileOptions::default() })
                    .unwrap();
            assert_eq!(c.ii(), 1, "{strategy:?} should keep the optimal II");
            assert_eq!(c.spilled(), 0);
        }
    }

    #[test]
    fn increase_ii_error_carries_trace() {
        // 7 wide pinned taps cannot fit 16 regs by increasing the II.
        let mut b = DdgBuilder::new("taps");
        for i in 0..7 {
            let ld = b.add_op(OpKind::Load, format!("ld{i}"));
            let add = b.add_op(OpKind::Add, format!("a{i}"));
            b.reg(ld, add);
            b.reg_dist(ld, add, 5);
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let err = compile(
            &g,
            &m,
            16,
            &CompileOptions { strategy: Strategy::IncreaseIi, ..CompileOptions::default() },
        )
        .unwrap_err();
        match err {
            CompileError::IncreaseIi(f) => assert!(!f.trace.is_empty()),
            other => panic!("expected increase-II failure, got {other}"),
        }
    }

    #[test]
    fn best_of_all_beats_or_ties_spill() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let spill = compile(
            &g,
            &m,
            4,
            &CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() },
        )
        .unwrap();
        let both = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        assert!(both.ii() <= spill.ii());
    }

    /// Every cell of the scheduler × strategy matrix compiles, meets its
    /// budget, and verifies; the scheduler flows through every driver.
    #[test]
    fn scheduler_strategy_matrix_compiles_and_verifies() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for scheduler in SchedulerKind::ALL {
            for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
                let options =
                    CompileOptions { strategy, scheduler, ..CompileOptions::default() };
                let c = compile(&g, &m, 6, &options)
                    .unwrap_or_else(|e| panic!("{scheduler}/{strategy:?}: {e}"));
                assert!(c.registers_used() <= 6, "{scheduler}/{strategy:?}");
                c.schedule().verify(c.ddg(), &m).unwrap();
                assert_eq!(c.schedule().scheduler(), scheduler.slug());
            }
        }
    }

    /// Every cell of the policy × strategy matrix compiles, meets its
    /// budget, and verifies; the policy flows through every spill-capable
    /// driver (and is inert for increase-II).
    #[test]
    fn spill_policy_strategy_matrix_compiles_and_verifies() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for policy in SpillPolicyKind::ALL {
            for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
                let mut options = CompileOptions::with_spill_policy(policy);
                options.strategy = strategy;
                assert_eq!(options.spill_policy(), policy);
                let c = compile(&g, &m, 6, &options)
                    .unwrap_or_else(|e| panic!("{policy}/{strategy:?}: {e}"));
                assert!(c.registers_used() <= 6, "{policy}/{strategy:?}");
                c.schedule().verify(c.ddg(), &m).unwrap();
            }
        }
    }

    /// The `paper` policy is the default and reproduces the pre-registry
    /// driver result exactly on the reference loop.
    #[test]
    fn default_policy_is_paper_and_matches_explicit_selection() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        assert_eq!(CompileOptions::default().spill_policy(), SpillPolicyKind::Paper);
        let implicit = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        let explicit =
            compile(&g, &m, 4, &CompileOptions::with_spill_policy(SpillPolicyKind::Paper))
                .unwrap();
        assert_eq!(implicit.ii(), explicit.ii());
        assert_eq!(implicit.registers_used(), explicit.registers_used());
        assert_eq!(implicit.spilled(), explicit.spilled());
        assert_eq!(implicit.schedule(), explicit.schedule());
    }

    #[test]
    fn kernel_extraction_works_on_compiled_loops() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        let k = c.kernel();
        assert_eq!(k.ii(), c.ii());
        assert_eq!(k.slots().count(), c.ddg().num_ops());
    }

    #[test]
    fn display_summarizes() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 64, &CompileOptions::default()).unwrap();
        let s = c.to_string();
        assert!(s.contains("II=1"));
        assert!(s.contains("stencil"));
    }
}
