//! Output checks, run outside the timed region.
//!
//! Every op is compiled once by `regpipe_core::compile` and once by the
//! benchmark's instrumented replica ([`crate::drivers`]); the two must
//! agree exactly. A fitted result must verify on its returned DDG, fit its
//! budget, and sit at or above the original loop's MII. Anything else is
//! an error and counts in `error_share`.

use regpipe_core::{compile, CompileError, CompileOptions, CompiledLoop};
use regpipe_ddg::{content_hash, Ddg};
use regpipe_exec::CellStatus;
use regpipe_machine::MachineConfig;
use regpipe_sched::{mii, Schedule};

use crate::drivers::{self, Fitted, Unfit};
use crate::trace::Tracer;

/// How one op ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Fitted its budget and passed every check.
    Fitted,
    /// Legitimately did not fit its budget.
    Unfit,
    /// Failed a check or returned an error a correct compile never returns.
    Error(String),
}

/// The checked outcome of one op, the reference later runs compare with.
pub struct Checked {
    /// What `run_batch` must report for this op.
    pub status: CellStatus,
    /// The fitted schedule, when there is one.
    pub schedule: Option<Schedule>,
    /// The verdict.
    pub verdict: Verdict,
    /// Calls and work the replica counted.
    pub tracer: Tracer,
}

/// Compiles one op both ways, compares, and checks the result.
pub fn op(
    ddg: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    options: &CompileOptions,
) -> Checked {
    let expected = compile(ddg, machine, budget, options);
    let mut tracer = Tracer::counting();
    let replica = drivers::compile(&mut tracer, ddg, machine, budget, options);
    let status = status_of(&expected);
    let (schedule, verdict) = match (&expected, &replica) {
        (Ok(c), Ok(r)) => {
            let verdict = match same_fit(c, r) {
                Some(diff) => Verdict::Error(format!("instrumented compile differs: {diff}")),
                None => {
                    validate(c.ddg(), c.schedule(), c.registers_used(), ddg, machine, budget)
                }
            };
            (Some(c.schedule().clone()), verdict)
        }
        (Err(e), Err(u)) => (None, verdict_of_failure(e, u)),
        (Ok(_), Err(u)) => {
            (None, Verdict::Error(format!("compile fitted, instrumented {u:?}")))
        }
        (Err(e), Ok(_)) => {
            (None, Verdict::Error(format!("compile failed ({e}), instrumented fitted")))
        }
    };
    Checked { status, schedule, verdict, tracer }
}

/// The cell status `run_batch` derives from a compile result.
fn status_of(result: &Result<CompiledLoop, CompileError>) -> CellStatus {
    match result {
        Ok(c) => CellStatus::Fitted {
            ii: c.ii(),
            regs: c.registers_used(),
            spilled: c.spilled(),
            reschedules: c.reschedules(),
            memory_ops: c.memory_ops(),
            strategy_used: c.strategy_used(),
        },
        Err(e) => CellStatus::Failed { error: e.to_string() },
    }
}

/// The first field on which the replica's fit differs from `compile`'s.
fn same_fit(c: &CompiledLoop, r: &Fitted) -> Option<&'static str> {
    if c.ii() != r.schedule.ii() {
        Some("ii")
    } else if c.registers_used() != r.regs() {
        Some("regs")
    } else if c.spilled() != r.spilled {
        Some("spilled")
    } else if c.reschedules() != r.reschedules {
        Some("reschedules")
    } else if c.strategy_used() != r.strategy_used {
        Some("strategy_used")
    } else if c.schedule() != &r.schedule {
        Some("schedule")
    } else if content_hash(c.ddg()) != content_hash(&r.ddg) {
        Some("ddg")
    } else {
        None
    }
}

/// The checks every fitted op must pass: its schedule verifies on the
/// DDG it returned, its registers fit the budget, and its II is at least
/// the original loop's MII.
pub fn validate(
    ddg: &Ddg,
    schedule: &Schedule,
    regs: u32,
    original: &Ddg,
    machine: &MachineConfig,
    budget: u32,
) -> Verdict {
    if let Err(e) = schedule.verify(ddg, machine) {
        return Verdict::Error(format!("schedule does not verify: {e}"));
    }
    if regs > budget {
        return Verdict::Error(format!("{regs} registers over a budget of {budget}"));
    }
    let floor = mii(original, machine);
    if schedule.ii() < floor {
        return Verdict::Error(format!("II {} below the loop's MII {floor}", schedule.ii()));
    }
    Verdict::Fitted
}

/// Sorts a failed compile into a legitimate miss of the budget or an error.
fn verdict_of_failure(e: &CompileError, u: &Unfit) -> Verdict {
    // The failure kinds are not exported; their Debug names are stable.
    let kind = match e {
        CompileError::IncreaseIi(f) => format!("{:?}", f.kind),
        CompileError::Spill(f) => format!("{:?}", f.kind),
    };
    let legit = ["NeverConverges", "Plateau", "Unspillable"].iter().any(|k| kind == *k);
    match (legit, u) {
        (true, Unfit::Budget) => Verdict::Unfit,
        (false, Unfit::Error(_)) => Verdict::Error(e.to_string()),
        _ => Verdict::Error(format!(
            "instrumented compile disagrees on the failure: {e} vs {u:?}"
        )),
    }
}

/// Compares a replica result from a traced pass with the checked reference.
pub fn same_as_reference(result: &Result<Fitted, Unfit>, reference: &Checked) -> bool {
    match (result, &reference.status) {
        (Ok(r), CellStatus::Fitted { ii, regs, spilled, reschedules, strategy_used, .. }) => {
            r.schedule.ii() == *ii
                && r.regs() == *regs
                && r.spilled == *spilled
                && r.reschedules == *reschedules
                && r.strategy_used == *strategy_used
                && reference.schedule.as_ref() == Some(&r.schedule)
        }
        (Err(Unfit::Budget), CellStatus::Failed { .. }) => reference.verdict == Verdict::Unfit,
        (Err(Unfit::Error(_)), CellStatus::Failed { .. }) => {
            matches!(reference.verdict, Verdict::Error(_))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_core::Strategy;
    use regpipe_loops::paper::example_loop;

    fn fitted() -> (Ddg, MachineConfig, CompiledLoop) {
        let ddg = example_loop();
        let machine = MachineConfig::p2l4();
        let c = compile(&ddg, &machine, 64, &CompileOptions::default())
            .expect("the paper example fits 64 registers");
        (ddg, machine, c)
    }

    #[test]
    fn a_correct_compile_passes() {
        let (ddg, machine, c) = fitted();
        let checked = op(&ddg, &machine, 64, &CompileOptions::default());
        assert_eq!(checked.verdict, Verdict::Fitted);
        assert_eq!(
            validate(c.ddg(), c.schedule(), c.registers_used(), &ddg, &machine, 64),
            Verdict::Fitted
        );
    }

    #[test]
    fn a_cell_over_budget_is_caught() {
        let (ddg, machine, c) = fitted();
        let budget = c.registers_used() - 1;
        let verdict =
            validate(c.ddg(), c.schedule(), c.registers_used(), &ddg, &machine, budget);
        assert!(
            matches!(verdict, Verdict::Error(ref e) if e.contains("over a budget")),
            "{verdict:?}"
        );
    }

    #[test]
    fn a_broken_schedule_is_caught() {
        let (ddg, machine, c) = fitted();
        // Every op in cycle 0 breaks the dependences.
        let broken = Schedule::new(c.ii(), vec![0; c.ddg().num_ops()]);
        let verdict = validate(c.ddg(), &broken, c.registers_used(), &ddg, &machine, 64);
        assert!(
            matches!(verdict, Verdict::Error(ref e) if e.contains("does not verify")),
            "{verdict:?}"
        );
    }

    #[test]
    fn an_ii_below_the_mii_is_caught() {
        let (_, machine, c) = fitted();
        // Judged against a loop whose MII is higher than the II achieved.
        let mut heavier = regpipe_ddg::DdgBuilder::new("heavier");
        for i in 0..12 {
            heavier.add_op(regpipe_ddg::OpKind::Load, format!("ld{i}"));
        }
        let heavier = heavier.build().expect("valid loop");
        let verdict =
            validate(c.ddg(), c.schedule(), c.registers_used(), &heavier, &machine, 64);
        assert!(
            matches!(verdict, Verdict::Error(ref e) if e.contains("below the loop's MII")),
            "{verdict:?}"
        );
    }

    #[test]
    fn a_replica_result_that_differs_from_compile_is_caught() {
        let (ddg, machine, _) = fitted();
        let options = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
        let checked = op(&ddg, &machine, 64, &options);
        let mut tracer = Tracer::counting();
        let mut result = drivers::compile(&mut tracer, &ddg, &machine, 64, &options);
        assert!(same_as_reference(&result, &checked));
        if let Ok(f) = &mut result {
            f.reschedules += 1;
        }
        assert!(!same_as_reference(&result, &checked));
        assert!(!same_as_reference(&Err(Unfit::Budget), &checked));
    }
}
