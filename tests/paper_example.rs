//! Golden tests replaying the paper's worked example (Figures 2, 3, 5, 6)
//! end to end across the whole crate stack.

use regpipe::core::{SpillDriver, SpillDriverOptions};
use regpipe::loops::paper::example_loop;
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::{Kernel, SchedRequest, Schedule};
use regpipe::spill::SelectHeuristic;

/// The didactic machine of the example: 4 universal units, latency 2.
fn machine() -> MachineConfig {
    MachineConfig::uniform(4, 2)
}

/// The paper's hand schedule of Figure 2c: Ld@0, *@2, +@4, St@6.
fn hand_schedule(ii: u32) -> Schedule {
    Schedule::new(ii, vec![0, 2, 4, 6])
}

#[test]
fn figure2_hand_schedule_is_valid_and_needs_11_registers() {
    let g = example_loop();
    let s = hand_schedule(1);
    s.verify(&g, &machine()).expect("the paper's schedule is valid");
    let lt = LifetimeAnalysis::new(&g, &s);
    assert_eq!(lt.max_live_variants(), 11, "Figure 2f");
    // V1 decomposes into LTSch = 4 and LTDist = 3 (Section 2.4).
    let v1 = lt.lifetime(OpId::new(0)).unwrap();
    assert_eq!((v1.sched_component(), v1.dist_component()), (4, 3));
}

#[test]
fn figure2_kernel_has_seven_stages() {
    let g = example_loop();
    let k = Kernel::new(&g, &hand_schedule(1));
    assert_eq!(k.stage_count(), 7, "Figure 2e shows stages 0..6");
    let stages: Vec<u32> = k.row(0).iter().map(|s| s.stage).collect();
    assert_eq!(stages, vec![0, 2, 4, 6]);
}

#[test]
fn figure3_increasing_ii_to_2_needs_7_registers() {
    let g = example_loop();
    let s = hand_schedule(2);
    s.verify(&g, &machine()).expect("still valid at II 2");
    let lt = LifetimeAnalysis::new(&g, &s);
    assert_eq!(lt.max_live_variants(), 7, "Figure 3d");
    // The scheduling component is unchanged, the distance component doubled.
    let v1 = lt.lifetime(OpId::new(0)).unwrap();
    assert_eq!((v1.sched_component(), v1.dist_component()), (4, 6));
}

#[test]
fn hrms_matches_or_beats_the_hand_schedules() {
    let g = example_loop();
    let m = machine();
    let s1 = HrmsScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
    assert_eq!(s1.ii(), 1, "resource bound 4 ops / 4 units");
    let lt = LifetimeAnalysis::new(&g, &s1);
    assert!(lt.max_live_variants() <= 11, "register-sensitive placement");
}

#[test]
fn figure6_spilling_v1_reaches_5_variant_registers_at_ii_2() {
    let g = example_loop();
    let m = machine();
    let driver = SpillDriver::new(SpillDriverOptions {
        heuristic: SelectHeuristic::MaxLt,
        multi_spill: false,
        last_ii_pruning: false,
        ii_relief: true,
        max_rounds: 16,
        ..SpillDriverOptions::default()
    });
    // Budget 6 = the paper's 5 variant registers + the invariant `a`.
    let out = driver.run(&g, &m, 6).expect("Figure 6 is reachable");
    out.schedule.verify(&out.ddg, &m).expect("valid");
    assert_eq!(out.spilled, 1, "only V1 is spilled");
    assert_eq!(out.schedule.ii(), 2, "the paper's spilled loop also runs at II 2");
    assert_eq!(out.allocation.variant_regs(), 5, "Figure 6d");
    // Producer-is-load optimization: no store added, two reloads.
    assert_eq!(out.ddg.memory_ops(), 4, "Ld + St + two reloads");
}

#[test]
fn figure5_spill_graph_structure() {
    use regpipe::spill::{candidates, spill, RankContext};
    let g = example_loop();
    let analysis = LifetimeAnalysis::new(&g, &hand_schedule(1));
    let pool = candidates(&g, &analysis);
    let ctx = RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round: 0 };
    let v1 = SpillPolicyKind::Paper.select(&pool, &ctx).unwrap().clone();
    let mut rewritten = g.clone();
    let report = spill(&mut rewritten, &v1);
    rewritten.validate().unwrap();
    // Figure 5c: no store (the producer is a load), one reload per use,
    // and the original register edges are gone.
    assert_eq!(report.stores_added, 0);
    assert_eq!(report.loads_added, 2);
    assert_eq!(rewritten.reg_consumers(OpId::new(0)).count(), 0);
    // Figure 5d: both reloads are bonded to their consumers.
    for &op in &report.new_ops {
        assert!(rewritten.out_edges(op).any(|e| e.is_fixed()));
        assert!(rewritten.is_value_marked_non_spillable(op));
    }
}

#[test]
fn compile_api_handles_the_example_at_every_budget() {
    let g = example_loop();
    let m = machine();
    let mut iis = Vec::new();
    for budget in (4..=12).rev() {
        let c = compile(&g, &m, budget, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("budget {budget}: {e}"));
        assert!(c.registers_used() <= budget);
        c.schedule().verify(c.ddg(), &m).unwrap();
        iis.push(c.ii());
    }
    // Tightening the budget costs throughput overall (heuristics allow
    // local non-monotonicity, but the ends must order correctly).
    assert!(iis.last().unwrap() >= iis.first().unwrap());
}
