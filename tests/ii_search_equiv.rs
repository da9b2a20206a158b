//! Equivalence gate for the shared HRMS/SMS II search.
//!
//! The search reuses the previous II's group order whenever the group
//! priorities did not change, on the grounds that both orderings are pure
//! functions of those priorities. The reference here rebuilds everything at
//! every II: it asks the scheduler for one II at a time (`min_ii = max_ii =
//! II`, a fresh context, a cold timing analysis and a fresh order) and
//! stops at the first II that schedules. Across the generator's knob space,
//! on the original kernels and on their spilled rewrites (bonded groups
//! with staggers), with and without a raised lower bound, both schedulers
//! must return the reference's schedule and count the same IIs tried.

use regpipe::core::{SpillDriver, SpillDriverOptions};
use regpipe::ddg::{Ddg, OpId};
use regpipe::loops::{generate, GenParams};
use regpipe::machine::MachineConfig;
use regpipe::sched::{
    fallback_max_ii, mii, HrmsScheduler, SchedError, SchedRequest, Schedule, Scheduler,
    SmsScheduler,
};

/// The first II from the request's lower bound at which a single-II
/// schedule call succeeds, with the number of IIs it took to get there.
fn per_ii_reference(
    scheduler: &dyn Scheduler,
    g: &Ddg,
    machine: &MachineConfig,
    min_ii: Option<u32>,
) -> Option<(Schedule, u32)> {
    let lower = mii(g, machine).max(min_ii.unwrap_or(1));
    for ii in lower..=fallback_max_ii(g, machine) {
        let request = SchedRequest { min_ii: Some(ii), max_ii: Some(ii) };
        match scheduler.schedule(g, machine, &request) {
            Ok(s) => return Some((s, ii - lower + 1)),
            Err(SchedError::NoScheduleUpTo { .. }) => continue,
            Err(e) => panic!("single-II request failed: {e}"),
        }
    }
    None
}

/// The scheduler's own order at `ii`, built from scratch.
fn ordering_at(name: &str, g: &Ddg, machine: &MachineConfig, ii: u32) -> Option<Vec<OpId>> {
    match name {
        "hrms" => HrmsScheduler::new().ordering(g, machine, ii),
        _ => SmsScheduler::new().ordering(g, machine, ii),
    }
}

#[test]
fn order_reuse_matches_a_per_ii_rebuild() {
    let schedulers: [&dyn Scheduler; 2] = [&HrmsScheduler::new(), &SmsScheduler::new()];
    let (mut searches, mut multi_ii, mut reordered) = (0u32, 0u32, 0u32);
    // A fixed spread over the knobs: 273 kernels of 2–77 ops, recurrence
    // densities 0–1, 0–4 invariants, all three paper machines, spilled at
    // budgets 6, 12 and 24. Larger kernels add run time, not coverage.
    for case in (0..1500usize).filter(|case| case % 11 < 2) {
        let min_ops = if case % 11 == 0 { 2 } else { 17 };
        let params = GenParams {
            min_ops,
            max_ops: min_ops + case * 7 % 61,
            recurrence_density: (case * 37 % 101) as f64 / 100.0,
            max_invariants: case % 5,
            ..GenParams::default()
        };
        let machine = &MachineConfig::paper_configs()[case % 3];
        let original = generate(case as u64, 1, &params).expect("valid knobs").remove(0).ddg;
        let budget = [6, 12, 24][case % 7 % 3];
        let mut graphs = vec![original.clone()];
        if let Ok(out) =
            SpillDriver::new(SpillDriverOptions::default()).run(&original, machine, budget)
        {
            graphs.push(out.ddg);
        }
        for g in &graphs {
            let floor = mii(g, machine);
            for min_ii in [None, Some(floor + 1 + case as u32 % 3)] {
                for scheduler in schedulers {
                    let request = SchedRequest { min_ii, max_ii: None };
                    let got = scheduler.schedule(g, machine, &request).expect("schedulable");
                    let (want, tried) = per_ii_reference(scheduler, g, machine, min_ii)
                        .expect("the reference schedules too");
                    let name = scheduler.name();
                    assert_eq!(got.ii(), want.ii(), "case {case} {name}\n{g}");
                    assert_eq!(got.starts(), want.starts(), "case {case} {name}\n{g}");
                    assert_eq!(got.scheduler(), want.scheduler());
                    assert_eq!(got.iis_tried(), tried, "case {case} {name}\n{g}");
                    searches += 1;
                    if tried > 1 {
                        multi_ii += 1;
                        let first = got.ii() + 1 - tried;
                        reordered += u32::from(
                            ordering_at(name, g, machine, first)
                                != ordering_at(name, g, machine, got.ii()),
                        );
                    }
                }
            }
        }
    }
    // The reuse decision is only exercised where a search tries several
    // IIs, and only tested where the order changes along the way.
    assert!(multi_ii * 10 > searches, "{multi_ii} of {searches} searches tried several IIs");
    assert!(reordered >= 20, "the order changed within only {reordered} searches");
}
