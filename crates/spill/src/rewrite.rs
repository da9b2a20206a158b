//! The spill graph rewrite of Section 4.2.

use std::fmt;

use regpipe_ddg::{Ddg, Edge, EdgeKind, OpId, OpKind};

use crate::candidate::SpillCandidate;

/// Which redundancy optimization the rewrite applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpillOptimization {
    /// Full transformation: new store after the producer, one reload per
    /// use, memory edges carrying the original distances.
    General,
    /// The producer is a load: the value already lives in memory, so no
    /// store is added and the reloads read the original location
    /// (Figure 5c).
    ProducerIsLoad,
    /// One of the consumers is a store of this value: it doubles as the
    /// spill store.
    ReuseStoreConsumer,
    /// A loop invariant: stored before the loop, reloaded at each use.
    Invariant,
}

impl fmt::Display for SpillOptimization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpillOptimization::General => "general",
            SpillOptimization::ProducerIsLoad => "producer-is-load",
            SpillOptimization::ReuseStoreConsumer => "reuse-store",
            SpillOptimization::Invariant => "invariant",
        };
        f.write_str(s)
    }
}

/// What a spill rewrite did to the graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpillReport {
    /// Stores added to the loop body.
    pub stores_added: u32,
    /// Loads added to the loop body.
    pub loads_added: u32,
    /// The operations created by the rewrite.
    pub new_ops: Vec<OpId>,
    /// Which special case fired.
    pub optimization: SpillOptimization,
}

impl SpillReport {
    /// Total memory operations added to the loop body.
    pub fn memory_ops_added(&self) -> u32 {
        self.stores_added + self.loads_added
    }
}

/// Spills `candidate` by rewriting the dependence graph in place.
///
/// The rewrite follows Section 4.2: the value's register edges are removed;
/// a store (unless redundant) is **bonded** to the producer; one reload per
/// use is added, bonded to its consumer, with a memory edge from the store
/// carrying the original dependence distance. All values created by the
/// rewrite are marked non-spillable (the Section 4.3 convergence rule).
///
/// Every reload is bonded to its consumer. When an operation has several
/// spilled operands, later reloads are bonded with a one-cycle *stagger*
/// each: bonding them all at the same offset would demand as many memory
/// units in one cycle as there are reloads, which a machine with fewer
/// units could never schedule at any II.
///
/// # Panics
///
/// Panics if the candidate is stale: the variant is no longer spillable or
/// the invariant is no longer live (candidates must be re-enumerated after
/// every rewrite).
pub fn spill(ddg: &mut Ddg, candidate: &SpillCandidate) -> SpillReport {
    match *candidate {
        SpillCandidate::Variant { producer, .. } => spill_variant(ddg, producer),
        SpillCandidate::Invariant { id, .. } => spill_invariant(ddg, id),
    }
}

/// Applies a whole round of victims in order, returning one report per
/// rewrite.
///
/// This is the drivers' single graph-mutation point — and therefore the
/// *invalidation point* for every cached per-loop analysis: any
/// `regpipe_sched::LoopAnalysis` built from `ddg` is stale once this
/// returns and must be rebuilt before the next schedule call. (The borrow
/// checker enforces this for contexts that borrow `ddg`; the rule matters
/// for code holding clones or derived data.)
///
/// # Panics
///
/// As for [`spill`]: panics on stale candidates. All victims of a round
/// must come from one [`candidates`](crate::candidates) enumeration of the
/// *current* graph, and a multi-victim batch is sound because selection
/// never returns two candidates for the same value.
pub fn spill_batch(ddg: &mut Ddg, victims: &[SpillCandidate]) -> Vec<SpillReport> {
    victims.iter().map(|victim| spill(ddg, victim)).collect()
}

fn spill_variant(ddg: &mut Ddg, producer: OpId) -> SpillReport {
    assert!(ddg.is_value_spillable(producer), "stale candidate: {producer} is not spillable");
    let producer_name = ddg.op(producer).name().to_string();
    let uses: Vec<(OpId, u32)> = ddg.reg_consumers(producer).collect();
    debug_assert!(!uses.is_empty(), "spillable implies live");

    // Decide the shape before mutating. Reusing a store consumer as the
    // spill store is only safe when it covers *every* use: bonding the
    // producer to a pre-existing store while other consumers reload would
    // let pre-existing memory orderings (consumer before that store) close
    // contradictory zero-distance constraint cycles through the bonds.
    let producer_is_load = ddg.op(producer).kind() == OpKind::Load;
    let reusable_store = if producer_is_load {
        None
    } else {
        uses.iter()
            .find(|&&(c, dist)| {
                dist == 0
                    && ddg.op(c).kind() == OpKind::Store
                    && !ddg.in_edges(c).any(Edge::is_fixed)
            })
            .map(|&(c, _)| c)
            .filter(|&st| uses.iter().all(|&(c, d)| c == st && d == 0))
    };

    // 1. Remove the spilled value's register edges.
    ddg.remove_edges_where(|e| e.kind() == EdgeKind::RegFlow && e.from() == producer);
    ddg.mark_value_non_spillable(producer);

    let mut report = SpillReport {
        stores_added: 0,
        loads_added: 0,
        new_ops: Vec::new(),
        optimization: SpillOptimization::General,
    };

    // 2. Establish the store feeding the reloads (if any).
    let mut skip = vec![false; uses.len()];
    let store: Option<OpId> = if producer_is_load {
        report.optimization = SpillOptimization::ProducerIsLoad;
        None
    } else if let Some(st) = reusable_store {
        // All uses are this store's zero-distance consumptions: bond it to
        // the producer and no reload is needed at all.
        report.optimization = SpillOptimization::ReuseStoreConsumer;
        ddg.add_edge(Edge::fixed(producer, st));
        skip.iter_mut().for_each(|s| *s = true);
        None
    } else {
        let st = ddg.add_op(OpKind::Store, format!("{producer_name}.s"));
        ddg.add_edge(Edge::fixed(producer, st));
        report.stores_added += 1;
        report.new_ops.push(st);
        Some(st)
    };

    // 3. One reload per remaining use.
    for (i, &(consumer, dist)) in uses.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let load = ddg.add_op(OpKind::Load, format!("{producer_name}.l{i}"));
        report.loads_added += 1;
        report.new_ops.push(load);
        match store {
            Some(st) => {
                // True memory flow: the reload sees the stored value.
                ddg.add_edge(Edge::new(st, load, EdgeKind::Mem, dist));
            }
            None => {
                // Producer is a load: the datum pre-exists in memory; keep
                // the graph connected with a zero-latency ordering edge.
                ddg.add_edge(Edge::new(producer, load, EdgeKind::Order, dist));
            }
        }
        attach_reload(ddg, load, consumer);
    }
    report
}

fn spill_invariant(ddg: &mut Ddg, id: regpipe_ddg::InvariantId) -> SpillReport {
    assert!(ddg.invariant(id).is_spillable(), "stale candidate: {id} is not spillable");
    let name = ddg.invariant(id).name().to_string();
    let uses: Vec<OpId> = ddg.invariant(id).uses().to_vec();
    let mut report = SpillReport {
        stores_added: 0,
        loads_added: 0,
        new_ops: Vec::new(),
        optimization: SpillOptimization::Invariant,
    };
    for (i, &consumer) in uses.iter().enumerate() {
        let load = ddg.add_op(OpKind::Load, format!("{name}.l{i}"));
        report.loads_added += 1;
        report.new_ops.push(load);
        attach_reload(ddg, load, consumer);
    }
    ddg.invariant_mut(id).mark_spilled();
    report
}

/// Bonds a reload to its consumer so the pair is scheduled as a complex
/// operation (Section 4.3). The k-th reload bonded to the same consumer is
/// staggered k cycles earlier so reloads never pile onto one memory-unit
/// slot. The reload's value is non-spillable.
fn attach_reload(ddg: &mut Ddg, load: OpId, consumer: OpId) {
    let existing_bonds = ddg.in_edges(consumer).filter(|e| e.is_fixed()).count() as u32;
    ddg.add_edge(Edge::fixed_staggered(load, consumer, existing_bonds));
    ddg.mark_value_non_spillable(load);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{candidates, SelectHeuristic};
    use crate::{RankContext, SpillPolicy, SpillPolicyKind};
    use regpipe_ddg::DdgBuilder;
    use regpipe_regalloc::LifetimeAnalysis;
    use regpipe_sched::Schedule;

    fn fig2() -> Ddg {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        b.invariant("a", &[mul]);
        b.build().unwrap()
    }

    fn candidate_for(g: &Ddg, producer: OpId) -> SpillCandidate {
        let s = Schedule::new(1, (0..g.num_ops() as i64).map(|i| 2 * i).collect());
        let analysis = LifetimeAnalysis::new(g, &s);
        candidates(g, &analysis)
            .into_iter()
            .find(
                |c| matches!(c, SpillCandidate::Variant { producer: p, .. } if *p == producer),
            )
            .expect("candidate exists")
    }

    #[test]
    fn producer_is_load_spares_the_store() {
        // Spilling V1 of the paper's example (Figure 5c).
        let mut g = fig2();
        let v1 = candidate_for(&g, OpId::new(0));
        let report = spill(&mut g, &v1);
        assert_eq!(report.optimization, SpillOptimization::ProducerIsLoad);
        assert_eq!(report.stores_added, 0);
        assert_eq!(report.loads_added, 2);
        g.validate().unwrap();
        // The original load no longer feeds registers.
        assert_eq!(g.reg_consumers(OpId::new(0)).count(), 0);
        // Both reloads are bonded to their consumers and non-spillable.
        for &l in &report.new_ops {
            assert!(g.is_value_marked_non_spillable(l));
            assert!(g.out_edges(l).any(Edge::is_fixed));
        }
        // The ordering edges keep the original distances.
        let dists: Vec<u32> = g
            .out_edges(OpId::new(0))
            .filter(|e| e.kind() == EdgeKind::Order)
            .map(Edge::distance)
            .collect();
        assert_eq!(dists.len(), 2);
        assert!(dists.contains(&0) && dists.contains(&3));
    }

    #[test]
    fn general_case_adds_store_and_loads() {
        // Spilling V2 (the multiply's value): store + one load.
        let mut g = fig2();
        let v2 = candidate_for(&g, OpId::new(1));
        let report = spill(&mut g, &v2);
        assert_eq!(report.optimization, SpillOptimization::General);
        assert_eq!(report.stores_added, 1);
        assert_eq!(report.loads_added, 1);
        g.validate().unwrap();
        // Producer bonded to the new store.
        let store = report.new_ops[0];
        assert_eq!(g.op(store).kind(), OpKind::Store);
        assert!(g.out_edges(OpId::new(1)).any(|e| e.is_fixed() && e.to() == store));
        // Memory edge store -> load with the original distance (0).
        let load = report.new_ops[1];
        assert!(g
            .out_edges(store)
            .any(|e| e.kind() == EdgeKind::Mem && e.to() == load && e.distance() == 0));
    }

    #[test]
    fn store_consumer_is_reused() {
        // Spilling V3 (the add feeding only the store).
        let mut g = fig2();
        let v3 = candidate_for(&g, OpId::new(2));
        let report = spill(&mut g, &v3);
        assert_eq!(report.optimization, SpillOptimization::ReuseStoreConsumer);
        assert_eq!(report.memory_ops_added(), 0);
        g.validate().unwrap();
        // The producer is now bonded to the pre-existing store.
        assert!(g.out_edges(OpId::new(2)).any(|e| e.is_fixed() && e.to() == OpId::new(3)));
    }

    #[test]
    fn invariant_spill_adds_loads_only() {
        let mut g = fig2();
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        let inv = candidates(&g, &analysis)
            .into_iter()
            .find(|c| matches!(c, SpillCandidate::Invariant { .. }))
            .unwrap();
        let report = spill(&mut g, &inv);
        assert_eq!(report.optimization, SpillOptimization::Invariant);
        assert_eq!(report.stores_added, 0);
        assert_eq!(report.loads_added, 1);
        assert_eq!(g.num_live_invariants(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn spilled_values_never_reselected() {
        let mut g = fig2();
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        let all = candidates(&g, &analysis);
        let n_before = all.len();
        let ctx =
            RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round: 0 };
        let best = SpillPolicyKind::Paper.select(&all, &ctx).unwrap().clone();
        spill(&mut g, &best);
        // Re-analyse: the fresh spill lifetimes are non-spillable, so the
        // candidate pool can only shrink (deadlock avoidance, Section 4.3).
        let s2 = Schedule::new(1, (0..g.num_ops() as i64).collect());
        let analysis2 = LifetimeAnalysis::new(&g, &s2);
        let after = candidates(&g, &analysis2);
        assert!(after.len() < n_before);
    }

    #[test]
    fn exhaustive_spilling_terminates() {
        // Keep spilling until nothing is left; the non-spillable marking
        // guarantees termination.
        let mut g = fig2();
        let mut rounds = 0;
        loop {
            let s = Schedule::new(1, (0..g.num_ops() as i64).map(|i| 2 * i).collect());
            let analysis = LifetimeAnalysis::new(&g, &s);
            let cands = candidates(&g, &analysis);
            let heuristic = SelectHeuristic::MaxLtOverTraffic;
            let ctx = RankContext { analysis: &analysis, heuristic, round: 0 };
            let Some(best) = SpillPolicyKind::Paper.select(&cands, &ctx) else {
                break;
            };
            let best = best.clone();
            spill(&mut g, &best);
            g.validate().unwrap();
            rounds += 1;
            assert!(rounds < 20, "spilling must terminate");
        }
        assert!(rounds >= 3, "the example has at least V1..V3 plus an invariant");
    }

    #[test]
    fn second_spilled_operand_gets_a_staggered_bond() {
        // c consumes two values; spilling both bonds both reloads, the
        // second one staggered a cycle earlier.
        let mut b = DdgBuilder::new("two-ops");
        let p1 = b.add_op(OpKind::Add, "p1");
        let p2 = b.add_op(OpKind::Mul, "p2");
        let c = b.add_op(OpKind::Add, "c");
        let sink = b.add_op(OpKind::Store, "sink");
        b.reg(p1, c);
        b.reg(p2, c);
        b.reg(c, sink);
        let mut g = b.build().unwrap();
        let v1 = candidate_for(&g, p1);
        spill(&mut g, &v1);
        let v2 = candidate_for(&g, p2);
        spill(&mut g, &v2);
        g.validate().unwrap();
        let staggers: Vec<u32> =
            g.in_edges(c).filter(|e| e.is_fixed()).map(Edge::stagger).collect();
        assert_eq!(staggers.len(), 2, "both reloads bonded");
        assert!(staggers.contains(&0) && staggers.contains(&1));
    }

    #[test]
    fn store_consumed_at_two_distances_takes_the_general_path() {
        // The store consumes the value both directly (d0) and loop-carried
        // (d1): bonding the pre-existing store while other uses reload can
        // close contradictory constraint cycles, so the rewrite falls back
        // to a fresh spill store with a reload per use.
        let mut b = DdgBuilder::new("mixed");
        let p = b.add_op(OpKind::Add, "p");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(p, st);
        b.reg_dist(p, st, 1);
        let mut g = b.build().unwrap();
        let v = candidate_for(&g, p);
        assert_eq!(v.cost(), 3, "1 fresh store + 2 reloads");
        let report = spill(&mut g, &v);
        assert_eq!(report.optimization, SpillOptimization::General);
        assert_eq!(report.stores_added, 1);
        assert_eq!(report.loads_added, 2);
        g.validate().expect("no zero-distance cycle");
    }

    #[test]
    fn consumer_ordered_before_the_store_cannot_wedge_the_bonds() {
        // Regression (found by proptest): another consumer of the value is
        // ordered *before* the candidate store by a memory edge. Reusing
        // the store would pin it to the producer while the reload chain
        // pushes the other consumer after it — an unsatisfiable constraint
        // cycle. The general path must be taken and stay schedulable.
        use regpipe_machine::MachineConfig;
        use regpipe_sched::{HrmsScheduler, SchedRequest, Scheduler};
        let mut b = DdgBuilder::new("wedge");
        let p = b.add_op(OpKind::Add, "p");
        let st_other = b.add_op(OpKind::Store, "st_other");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(p, st_other);
        b.reg(p, st);
        b.mem(st_other, st, 0); // st_other must precede st
        let mut g = b.build().unwrap();
        let v = candidate_for(&g, p);
        let report = spill(&mut g, &v);
        assert_eq!(report.optimization, SpillOptimization::General);
        g.validate().unwrap();
        let m = MachineConfig::p1l4();
        let s = HrmsScheduler::new()
            .schedule(&g, &m, &SchedRequest::default())
            .expect("no contradictory bonds");
        s.verify(&g, &m).unwrap();
    }

    #[test]
    #[should_panic(expected = "stale candidate")]
    fn stale_candidate_panics() {
        let mut g = fig2();
        let v1 = candidate_for(&g, OpId::new(0));
        spill(&mut g, &v1);
        spill(&mut g, &v1); // already spilled
    }

    #[test]
    fn self_recurrence_spill_keeps_graph_valid() {
        // acc(i) = acc(i-1) + x : spilling the accumulator bounces it
        // through memory, stretching the recurrence (higher RecMII) but
        // keeping the graph well-formed.
        let mut b = DdgBuilder::new("acc");
        let acc = b.add_op(OpKind::Add, "acc");
        b.reg_dist(acc, acc, 1);
        let mut g = b.build().unwrap();
        let s = Schedule::new(4, vec![0]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        let cands = candidates(&g, &analysis);
        assert_eq!(cands.len(), 1);
        let c = cands[0].clone();
        let report = spill(&mut g, &c);
        assert_eq!(report.stores_added, 1);
        assert_eq!(report.loads_added, 1);
        g.validate().unwrap();
        // The recurrence now runs acc -> store -> load -> acc.
        assert_eq!(regpipe_ddg::algo::recurrences(&g).len(), 1);
    }
}
