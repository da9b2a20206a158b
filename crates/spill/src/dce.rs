//! Dead-code elimination after spilling (an extension over the paper).
//!
//! The producer-is-load optimization of Section 4.2 leaves the original
//! load in the body even when *all* of its uses were redirected to reloads
//! (the paper's Figure 5c keeps `Ld`). The dead load still occupies a
//! memory-unit slot and issues a real memory access every iteration. This
//! module rebuilds the graph without dead value-producing operations so the
//! effect can be measured (see the `expt_ablation` binary).

use regpipe_ddg::{Ddg, Edge, EdgeKind, OpId};

/// Result of dead-code elimination.
#[derive(Clone, Debug)]
pub struct DceReport {
    /// The cleaned graph (node ids are re-densified).
    pub ddg: Ddg,
    /// Names of the removed operations.
    pub removed: Vec<String>,
}

/// Removes operations whose values are never consumed.
///
/// An operation is dead when it defines a value (i.e. it is not a store)
/// and has no outgoing register edges; removal cascades (an operation kept
/// alive only by a dead consumer dies too). Stores always stay (they have
/// memory side effects). Ordering and memory edges adjacent to removed
/// operations are dropped: they existed to time the dead value.
///
/// Invariant uses pointing at removed operations are dropped as well.
pub fn eliminate_dead_ops(ddg: &Ddg) -> DceReport {
    let n = ddg.num_ops();
    let mut dead = vec![false; n];
    // Fixpoint: a value-producing op with no live register consumer dies.
    let mut changed = true;
    while changed {
        changed = false;
        for (id, node) in ddg.ops() {
            if dead[id.index()] || !node.kind().defines_value() {
                continue;
            }
            let has_live_use = ddg
                .out_edges(id)
                .any(|e| e.kind() == EdgeKind::RegFlow && !dead[e.to().index()]);
            if !has_live_use {
                dead[id.index()] = true;
                changed = true;
            }
        }
    }

    // Rebuild with dense ids.
    let mut remap = vec![usize::MAX; n];
    let mut out = Ddg::new(ddg.name());
    let mut removed = Vec::new();
    for (id, node) in ddg.ops() {
        if dead[id.index()] {
            removed.push(node.name().to_string());
        } else {
            let new_id = out.add_op(node.kind(), node.name());
            remap[id.index()] = new_id.index();
            if ddg.is_value_marked_non_spillable(id) {
                out.mark_value_non_spillable(new_id);
            }
        }
    }
    for e in ddg.edges() {
        let (f, t) = (remap[e.from().index()], remap[e.to().index()]);
        if f == usize::MAX || t == usize::MAX {
            continue;
        }
        let (f, t) = (OpId::new(f), OpId::new(t));
        let edge = if e.is_fixed() {
            Edge::fixed_staggered(f, t, e.stagger())
        } else {
            Edge::new(f, t, e.kind(), e.distance())
        };
        out.add_edge(edge);
    }
    for (_, inv) in ddg.invariants() {
        let uses: Vec<OpId> = inv
            .uses()
            .iter()
            .filter(|u| remap[u.index()] != usize::MAX)
            .map(|u| OpId::new(remap[u.index()]))
            .collect();
        let new_id = out.add_invariant(inv.name(), &uses);
        if inv.is_spilled() {
            out.invariant_mut(new_id).mark_spilled();
        } else if !inv.is_spillable() && !inv.uses().is_empty() {
            out.invariant_mut(new_id).mark_non_spillable();
        }
    }
    DceReport { ddg: out, removed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{candidates, SelectHeuristic};
    use crate::rewrite::spill;
    use crate::{RankContext, SpillPolicy, SpillPolicyKind};
    use regpipe_ddg::{DdgBuilder, OpKind};
    use regpipe_regalloc::LifetimeAnalysis;
    use regpipe_sched::Schedule;

    #[test]
    fn live_graph_is_untouched() {
        let mut b = DdgBuilder::new("live");
        let l = b.add_op(OpKind::Load, "l");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, s);
        let g = b.build().unwrap();
        let r = eliminate_dead_ops(&g);
        assert!(r.removed.is_empty());
        assert_eq!(r.ddg.num_ops(), 2);
    }

    #[test]
    fn dead_load_after_full_spill_is_removed() {
        // Spill the load's value: the producer-is-load path leaves it dead.
        let mut b = DdgBuilder::new("fig5");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg(mul, st);
        let mut g = b.build().unwrap();
        let sched = Schedule::new(1, vec![0, 2, 6]);
        let analysis = LifetimeAnalysis::new(&g, &sched);
        let pool = candidates(&g, &analysis);
        let v_ld = pool
            .iter()
            .find(|c| matches!(c, crate::SpillCandidate::Variant { producer, .. } if *producer == ld))
            .unwrap()
            .clone();
        spill(&mut g, &v_ld);
        assert_eq!(g.reg_consumers(ld).count(), 0, "the load is now dead");

        let before_mem = g.memory_ops();
        let r = eliminate_dead_ops(&g);
        assert_eq!(r.removed, vec!["Ld".to_string()]);
        assert_eq!(r.ddg.memory_ops(), before_mem - 1, "one memory slot freed");
        r.ddg.validate().unwrap();
    }

    #[test]
    fn removal_cascades_through_chains() {
        // a -> b -> c where c is an Add with no consumers: all three die.
        let mut b = DdgBuilder::new("cascade");
        let x = b.add_op(OpKind::Load, "x");
        let y = b.add_op(OpKind::Mul, "y");
        let z = b.add_op(OpKind::Add, "z");
        b.reg(x, y);
        b.reg(y, z);
        let live = b.add_op(OpKind::Load, "live");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(live, st);
        let g = b.build().unwrap();
        let r = eliminate_dead_ops(&g);
        assert_eq!(r.removed.len(), 3);
        assert_eq!(r.ddg.num_ops(), 2);
        r.ddg.validate().unwrap();
    }

    #[test]
    fn invariant_uses_are_remapped() {
        let mut b = DdgBuilder::new("inv");
        let deadmul = b.add_op(OpKind::Mul, "dead");
        let l = b.add_op(OpKind::Load, "l");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, s);
        b.invariant("k", &[deadmul, s]);
        let g = b.build().unwrap();
        let r = eliminate_dead_ops(&g);
        assert_eq!(r.removed, vec!["dead".to_string()]);
        let (_, inv) = r.ddg.invariants().next().unwrap();
        assert_eq!(inv.uses().len(), 1, "use of the dead op dropped");
        r.ddg.validate().unwrap();
    }

    #[test]
    fn spill_then_dce_preserves_schedulability() {
        use regpipe_machine::MachineConfig;
        use regpipe_sched::{HrmsScheduler, SchedRequest, Scheduler};
        let mut b = DdgBuilder::new("pipeline");
        let ld = b.add_op(OpKind::Load, "ld");
        let a1 = b.add_op(OpKind::Add, "a1");
        let a2 = b.add_op(OpKind::Add, "a2");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, a1);
        b.reg_dist(ld, a2, 3);
        b.reg(a1, a2);
        b.reg(a2, st);
        let mut g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let sched = HrmsScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
        let analysis = LifetimeAnalysis::new(&g, &sched);
        let pool = candidates(&g, &analysis);
        let ctx =
            RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round: 0 };
        let victim = SpillPolicyKind::Paper.select(&pool, &ctx).unwrap().clone();
        spill(&mut g, &victim);
        let r = eliminate_dead_ops(&g);
        let post = HrmsScheduler::new()
            .schedule(&r.ddg, &m, &SchedRequest::default())
            .expect("cleaned graph schedules");
        post.verify(&r.ddg, &m).unwrap();
    }
}
