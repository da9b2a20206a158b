//! Spill candidates and the selection heuristics of Section 4.1.

use std::fmt;

use regpipe_ddg::{Ddg, InvariantId, OpId, OpKind};
use regpipe_regalloc::LifetimeAnalysis;

/// A value eligible for spilling, with its heuristic inputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpillCandidate {
    /// A loop-variant value.
    Variant {
        /// The producing operation.
        producer: OpId,
        /// Lifetime length in cycles under the current schedule.
        lifetime: i64,
        /// Memory operations the spill would add per iteration.
        cost: u32,
    },
    /// A loop-invariant value.
    Invariant {
        /// The invariant's id.
        id: InvariantId,
        /// An invariant is live for a full II (paper Section 3.1).
        lifetime: i64,
        /// One reload per use (the pre-loop store is free).
        cost: u32,
    },
}

impl SpillCandidate {
    /// Lifetime length in cycles.
    pub fn lifetime(&self) -> i64 {
        match *self {
            SpillCandidate::Variant { lifetime, .. }
            | SpillCandidate::Invariant { lifetime, .. } => lifetime,
        }
    }

    /// Number of memory operations the spill adds to the loop body.
    pub fn cost(&self) -> u32 {
        match *self {
            SpillCandidate::Variant { cost, .. } | SpillCandidate::Invariant { cost, .. } => {
                cost
            }
        }
    }

    /// The `lifetime / cost` ratio used by [`SelectHeuristic::MaxLtOverTraffic`].
    ///
    /// A zero-cost spill (possible when the only consumer is a store) is
    /// infinitely profitable; it is ranked by lifetime among its peers.
    pub fn ratio(&self) -> f64 {
        if self.cost() == 0 {
            f64::INFINITY
        } else {
            self.lifetime() as f64 / f64::from(self.cost())
        }
    }
}

impl fmt::Display for SpillCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillCandidate::Variant { producer, lifetime, cost } => {
                write!(f, "variant {producer} (LT {lifetime}, cost {cost})")
            }
            SpillCandidate::Invariant { id, lifetime, cost } => {
                write!(f, "invariant {id} (LT {lifetime}, cost {cost})")
            }
        }
    }
}

/// The lifetime-selection heuristics of Section 4.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SelectHeuristic {
    /// `Max(LT)`: spill the longest lifetime, ignoring the cost of the
    /// added memory operations.
    MaxLt,
    /// `Max(LT/Traf)`: spill the lifetime with the best ratio of freed
    /// cycles to added memory traffic — the variant the paper found to
    /// produce better schedules *and* less traffic.
    MaxLtOverTraffic,
}

impl fmt::Display for SelectHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectHeuristic::MaxLt => write!(f, "Max(LT)"),
            SelectHeuristic::MaxLtOverTraffic => write!(f, "Max(LT/Traf)"),
        }
    }
}

/// Enumerates everything spillable under the current schedule, with the
/// lifetimes and costs the heuristics need.
///
/// Excluded: values the paper's convergence rule marks non-spillable,
/// bonded values (parts of complex operations), dead values, and invariants
/// already spilled.
pub fn candidates(ddg: &Ddg, analysis: &LifetimeAnalysis) -> Vec<SpillCandidate> {
    let mut out = Vec::new();
    for lt in analysis.lifetimes() {
        let producer = lt.producer();
        if !ddg.is_value_spillable(producer) {
            continue;
        }
        let uses = ddg.reg_consumers(producer).count() as u32;
        let cost = spill_cost(ddg, producer, uses);
        out.push(SpillCandidate::Variant { producer, lifetime: lt.length(), cost });
    }
    for (id, inv) in ddg.invariants() {
        if inv.is_spillable() {
            out.push(SpillCandidate::Invariant {
                id,
                lifetime: i64::from(analysis.ii()),
                cost: inv.uses().len() as u32,
            });
        }
    }
    out
}

/// The number of memory operations added by spilling `producer`'s value,
/// accounting for the Section 4.2 redundancy optimizations.
fn spill_cost(ddg: &Ddg, producer: OpId, uses: u32) -> u32 {
    if ddg.op(producer).kind() == OpKind::Load {
        // Reload from the original location: no store.
        return uses;
    }
    // The reuse-store optimization applies only when one store's
    // zero-distance consumptions cover every use (see `spill` for why);
    // it then costs nothing. Everything else takes the general path.
    let fully_covered_by_store = ddg
        .reg_consumers(producer)
        .find(|&(c, dist)| {
            dist == 0
                && ddg.op(c).kind() == OpKind::Store
                && !ddg.in_edges(c).any(regpipe_ddg::Edge::is_fixed)
        })
        .map(|(st, _)| ddg.reg_consumers(producer).all(|(c, d)| c == st && d == 0))
        .unwrap_or(false);
    if fully_covered_by_store {
        0
    } else {
        uses + 1
    }
}

pub(crate) fn rank(c: &SpillCandidate, heuristic: SelectHeuristic) -> f64 {
    match heuristic {
        SelectHeuristic::MaxLt => c.lifetime() as f64,
        SelectHeuristic::MaxLtOverTraffic => c.ratio(),
    }
}

/// Stable identity for deterministic tie-breaking.
pub(crate) fn key(c: &SpillCandidate) -> (u8, usize) {
    match *c {
        SpillCandidate::Variant { producer, .. } => (0, producer.index()),
        SpillCandidate::Invariant { id, .. } => (1, id.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankContext, SpillPolicy, SpillPolicyKind};
    use regpipe_ddg::DdgBuilder;
    use regpipe_sched::Schedule;

    /// Figure 2 with its hand schedule.
    fn fig2() -> (Ddg, LifetimeAnalysis) {
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
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        (g, analysis)
    }

    #[test]
    fn enumerates_variants_and_invariants() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        // V1, V2, V3 and the invariant `a`.
        assert_eq!(cands.len(), 4);
        assert!(cands.iter().any(|c| matches!(c, SpillCandidate::Invariant { .. })));
    }

    #[test]
    fn costs_reflect_optimizations() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        let by_producer = |idx: usize| {
            cands
                .iter()
                .find(|c| matches!(c, SpillCandidate::Variant { producer, .. } if producer.index() == idx))
                .unwrap()
        };
        // V1: producer is a load, two uses -> 2 loads, no store.
        assert_eq!(by_producer(0).cost(), 2);
        // V2 (the multiply): one use, no store consumer -> 1 store + 1 load.
        assert_eq!(by_producer(1).cost(), 2);
        // V3 (the add): its only consumer is the store -> reuse it, cost 0.
        assert_eq!(by_producer(2).cost(), 0);
    }

    fn paper(analysis: &LifetimeAnalysis, heuristic: SelectHeuristic) -> RankContext<'_> {
        RankContext { analysis, heuristic, round: 0 }
    }

    #[test]
    fn max_lt_picks_v1() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        let best = SpillPolicyKind::Paper
            .select(&cands, &paper(&analysis, SelectHeuristic::MaxLt))
            .unwrap();
        assert!(
            matches!(best, SpillCandidate::Variant { producer, .. } if producer.index() == 0),
            "V1 has the longest lifetime (7)"
        );
    }

    #[test]
    fn ratio_prefers_cheap_spills() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        let ctx = paper(&analysis, SelectHeuristic::MaxLtOverTraffic);
        let best = SpillPolicyKind::Paper.select(&cands, &ctx).unwrap();
        // V3 costs nothing (its consumer is the store): infinite ratio.
        assert!(
            matches!(best, SpillCandidate::Variant { producer, .. } if producer.index() == 2)
        );
    }

    #[test]
    fn non_spillable_values_are_skipped() {
        let (mut g, analysis) = fig2();
        g.mark_value_non_spillable(OpId::new(0));
        let cands = candidates(&g, &analysis);
        assert!(cands.iter().all(
            |c| !matches!(c, SpillCandidate::Variant { producer, .. } if producer.index() == 0)
        ));
    }

    #[test]
    fn batch_selection_stops_at_budget() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        let ctx = paper(&analysis, SelectHeuristic::MaxLt);
        // MaxLive (with invariant) is 12; budget 9 -> estimate must drop
        // below 9: V1 alone frees 7.
        let batch = SpillPolicyKind::Paper.select_batch(&cands, &ctx, 9);
        assert_eq!(batch.len(), 1);
        // Budget 2 needs more victims.
        let batch = SpillPolicyKind::Paper.select_batch(&cands, &ctx, 2);
        assert!(batch.len() >= 3, "got {}", batch.len());
    }

    #[test]
    fn batch_selection_empty_when_under_budget() {
        let (g, analysis) = fig2();
        let cands = candidates(&g, &analysis);
        let ctx = paper(&analysis, SelectHeuristic::MaxLt);
        assert!(SpillPolicyKind::Paper.select_batch(&cands, &ctx, 32).is_empty());
    }

    #[test]
    fn select_on_empty_is_none() {
        let (_, analysis) = fig2();
        let ctx = paper(&analysis, SelectHeuristic::MaxLt);
        assert!(SpillPolicyKind::Paper.select(&[], &ctx).is_none());
    }
}
