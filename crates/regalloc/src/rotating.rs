//! Register allocation on a rotating register file.

use std::fmt;

use regpipe_ddg::OpId;

use crate::lifetime::LifetimeAnalysis;

/// The outcome of register allocation for one schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AllocationResult {
    variant_regs: u32,
    invariant_regs: u32,
    max_live: u32,
    /// Rotating register index per operation (None for ops without a
    /// lifetime).
    assignment: Vec<Option<u32>>,
}

impl AllocationResult {
    /// Rotating registers needed by the loop variants.
    pub fn variant_regs(&self) -> u32 {
        self.variant_regs
    }

    /// Static registers needed by the live loop invariants (one each).
    pub fn invariant_regs(&self) -> u32 {
        self.invariant_regs
    }

    /// Total register requirement of the schedule.
    pub fn total(&self) -> u32 {
        self.variant_regs + self.invariant_regs
    }

    /// The `MaxLive` lower bound the allocator was working against
    /// (variants + invariants).
    pub fn max_live(&self) -> u32 {
        self.max_live
    }

    /// How far the allocation landed above `MaxLive` (0 means optimal).
    pub fn excess(&self) -> u32 {
        self.total() - self.max_live
    }

    /// The rotating register assigned to the value defined by `op`.
    pub fn register(&self, op: OpId) -> Option<u32> {
        self.assignment.get(op.index()).copied().flatten()
    }
}

impl fmt::Display for AllocationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} regs ({} rotating + {} invariant; MaxLive {})",
            self.total(),
            self.variant_regs,
            self.invariant_regs,
            self.max_live
        )
    }
}

/// Allocator for rotating register files (the hardware model the paper
/// assumes, Section 2.3).
///
/// A rotating file renames registers every II cycles, so a lifetime longer
/// than the II occupies several consecutive rotating registers — one per
/// concurrently live instance. The allocator places lifetimes on the
/// `R`-register cylinder in *adjacency order* (sorted by start cycle) with
/// first-fit, growing `R` from `MaxLive` until every lifetime fits. This is
/// the family of heuristics from Rau et al.'s "Register allocation for
/// software pipelined loops" that the paper leans on; like theirs, it lands
/// on `MaxLive` or `MaxLive + 1` almost always.
#[derive(Clone, Copy, Default, Debug)]
pub struct RotatingAllocator {
    _private: (),
}

impl RotatingAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        RotatingAllocator { _private: () }
    }

    /// Allocates registers for all lifetimes in `analysis`.
    pub fn allocate(&self, analysis: &LifetimeAnalysis) -> AllocationResult {
        let (variant_regs, assignment) = if analysis.lifetimes().next().is_none() {
            (0, Vec::new())
        } else {
            let cylinder = Cylinder::new(analysis);
            // Every register count below the cylinder's floor fails, so the
            // search starts at whichever of the two bounds is higher.
            let mut r = analysis.max_live_variants().max(cylinder.min_regs);
            loop {
                match cylinder.try_allocate(r) {
                    Some(assignment) => break (r, assignment),
                    None => r += 1,
                }
            }
        };
        AllocationResult {
            variant_regs,
            invariant_regs: analysis.live_invariants(),
            max_live: analysis.max_live(),
            assignment,
        }
    }
}

/// One pair of lifetimes that can overlap: the lifetime placed earlier in
/// adjacency order and the range of iteration offsets `d` at which
/// instance `k + d` of the later one overlaps instance `k` of it.
#[derive(Clone, Copy, Debug)]
struct Overlap {
    earlier: usize,
    dmin: i64,
    dmax: i64,
}

/// The lifetimes of one schedule in adjacency order, with every pair's
/// overlap range. None of it depends on the register count, so it is
/// built once per allocation and shared by every first-fit attempt.
struct Cylinder {
    /// Producer per lifetime, in adjacency order.
    producers: Vec<OpId>,
    /// Overlaps with earlier lifetimes, grouped by the later lifetime:
    /// lifetime `j`'s are `overlaps[first[j]..first[j + 1]]`.
    overlaps: Vec<Overlap>,
    first: Vec<usize>,
    /// Register count below which first-fit provably fails: a lifetime
    /// needs `⌈len / II⌉` registers for its own instances, and an overlap
    /// range of `w` offsets forbids `w` distinct registers (all of them
    /// when `w ≥ R`).
    min_regs: u32,
    /// Length of the per-op assignment vector.
    n_ops: usize,
}

impl Cylinder {
    fn new(analysis: &LifetimeAnalysis) -> Self {
        let ii = i64::from(analysis.ii());
        // Adjacency ordering: by start cycle, longest first on ties so the
        // big lifetimes grab compact runs early.
        let mut lifetimes: Vec<(i64, i64, OpId)> =
            analysis.lifetimes().map(|lt| (lt.start(), lt.end(), lt.producer())).collect();
        lifetimes.sort_by_key(|&(s, e, p)| (s, -(e - s), p));

        // Each pair's overlap range needs ⌊(s_i − e_j)/II⌋ and
        // ⌊(e_i − 1 − s_j)/II⌋. With every endpoint split once into
        // quotient and remainder, a difference's floor is the quotients'
        // difference, minus one when the remainders borrow.
        let split = |t: i64| (t.div_euclid(ii), t.rem_euclid(ii));
        let starts: Vec<(i64, i64)> = lifetimes.iter().map(|&(s, _, _)| split(s)).collect();
        let ends: Vec<(i64, i64)> = lifetimes.iter().map(|&(_, e, _)| split(e)).collect();
        let lasts: Vec<(i64, i64)> = lifetimes.iter().map(|&(_, e, _)| split(e - 1)).collect();
        let floor_diff =
            |(qa, ra): (i64, i64), (qb, rb): (i64, i64)| qa - qb - i64::from(ra < rb);

        let mut min_regs = 1i64;
        let mut overlaps = Vec::new();
        let mut first = Vec::with_capacity(lifetimes.len() + 1);
        for (j, &(s_j, e_j, _)) in lifetimes.iter().enumerate() {
            // Self-overlap: instances k and k+d share a register iff
            // d ≡ 0 (mod R) and overlap in time iff |d|·II < len.
            min_regs = min_regs.max((e_j - s_j + ii - 1).div_euclid(ii));
            first.push(overlaps.len());
            for i in 0..j {
                // [s_i, e_i) and [s_j + d·II, e_j + d·II) overlap iff
                // s_i − e_j < d·II < e_i − s_j, i.e. for d in
                // [⌊(s_i − e_j)/II⌋ + 1, ⌊(e_i − s_j − 1)/II⌋].
                let dmin = floor_diff(starts[i], ends[j]) + 1;
                let dmax = floor_diff(lasts[i], starts[j]);
                if dmin <= dmax {
                    min_regs = min_regs.max(dmax - dmin + 2);
                    overlaps.push(Overlap { earlier: i, dmin, dmax });
                }
            }
        }
        first.push(overlaps.len());
        Cylinder {
            n_ops: lifetimes.iter().map(|&(_, _, p)| p.index() + 1).max().unwrap_or(0),
            producers: lifetimes.into_iter().map(|(_, _, p)| p).collect(),
            overlaps,
            first,
            min_regs: u32::try_from(min_regs).unwrap_or(u32::MAX),
        }
    }

    /// First-fit on an `r`-register cylinder (`r ≥ min_regs`): each
    /// lifetime in adjacency order takes the lowest register no
    /// overlapping earlier lifetime forbids. Returns the per-op register
    /// assignment, or `None` when some lifetime finds every register
    /// forbidden.
    fn try_allocate(&self, r: u32) -> Option<Vec<Option<u32>>> {
        debug_assert!(r >= self.min_regs);
        let r64 = i64::from(r);
        let r = r as usize;
        let mut rho: Vec<i64> = Vec::with_capacity(self.producers.len());
        let mut forbidden = vec![false; r];
        for j in 0..self.producers.len() {
            forbidden.fill(false);
            for o in &self.overlaps[self.first[j]..self.first[j + 1]] {
                // Conflict if rho_i ≡ rho_j + d (mod R): the residues
                // rho_i − d for d in [dmin, dmax], fewer than R of them.
                let mut c = (rho[o.earlier] - o.dmax).rem_euclid(r64) as usize;
                for _ in o.dmin..=o.dmax {
                    forbidden[c] = true;
                    c = if c + 1 == r { 0 } else { c + 1 };
                }
            }
            rho.push(forbidden.iter().position(|&f| !f)? as i64);
        }
        let mut assignment = vec![None; self.n_ops];
        for (&op, &reg) in self.producers.iter().zip(&rho) {
            assignment[op.index()] = Some(reg as u32);
        }
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeAnalysis;
    use regpipe_ddg::{Ddg, DdgBuilder, OpKind};
    use regpipe_sched::Schedule;

    fn analyse(g: &Ddg, s: &Schedule) -> LifetimeAnalysis {
        LifetimeAnalysis::new(g, s)
    }

    /// Brute-force validity check: simulate the steady state over enough
    /// iterations and assert no two live instances share a register.
    fn assert_valid(analysis: &LifetimeAnalysis, result: &AllocationResult) {
        let ii = i64::from(analysis.ii());
        let r = i64::from(result.variant_regs());
        if r == 0 {
            return;
        }
        let lts: Vec<_> = analysis.lifetimes().collect();
        let horizon = lts.iter().map(|lt| lt.end()).max().unwrap_or(0) + 4 * ii;
        let span = 8; // iterations around steady state
        for t in -span * ii..horizon + span * ii {
            let mut used: Vec<(i64, OpId)> = Vec::new();
            for lt in &lts {
                let rho = i64::from(result.register(lt.producer()).unwrap());
                // Instance k live at t iff start + k·II <= t < end + k·II.
                let k_hi = (t - lt.start()).div_euclid(ii);
                let k_lo = (t - lt.end()).div_euclid(ii) + 1;
                for k in k_lo..=k_hi {
                    if lt.start() + k * ii <= t && t < lt.end() + k * ii {
                        let phys = (rho + k).rem_euclid(r);
                        assert!(
                            !used.iter().any(|&(p, o)| p == phys && o != lt.producer()),
                            "register clash at t={t} phys={phys} for {}",
                            lt.producer()
                        );
                        used.push((phys, lt.producer()));
                    }
                }
            }
        }
    }

    /// The allocator as first written, kept as the oracle for
    /// [`Cylinder`]: every first-fit attempt rescans each earlier lifetime
    /// over a superset of its overlapping offsets, testing each `d`.
    fn reference_allocate(analysis: &LifetimeAnalysis) -> AllocationResult {
        let ii = i64::from(analysis.ii());
        let mut lifetimes: Vec<(i64, i64, OpId)> =
            analysis.lifetimes().map(|lt| (lt.start(), lt.end(), lt.producer())).collect();
        lifetimes.sort_by_key(|&(s, e, p)| (s, -(e - s), p));
        let n_ops = analysis.lifetimes().map(|lt| lt.producer().index() + 1).max().unwrap_or(0);
        let mut r = analysis.max_live_variants().max(u32::from(!lifetimes.is_empty()));
        let (variant_regs, assignment) = loop {
            match reference_try_allocate(&lifetimes, ii, r, n_ops) {
                Some(assignment) => {
                    break (if lifetimes.is_empty() { 0 } else { r }, assignment)
                }
                None => r += 1,
            }
        };
        AllocationResult {
            variant_regs,
            invariant_regs: analysis.live_invariants(),
            max_live: analysis.max_live(),
            assignment,
        }
    }

    fn reference_try_allocate(
        lifetimes: &[(i64, i64, OpId)],
        ii: i64,
        r: u32,
        n_ops: usize,
    ) -> Option<Vec<Option<u32>>> {
        if lifetimes.is_empty() {
            return Some(vec![None; n_ops]);
        }
        let r = i64::from(r);
        let mut assignment: Vec<Option<u32>> = vec![None; n_ops];
        let mut placed: Vec<(i64, i64, i64)> = Vec::new(); // (start, end, rho)
        for &(s_j, e_j, op) in lifetimes {
            let needed = (e_j - s_j + ii - 1).div_euclid(ii);
            if needed > r {
                return None;
            }
            let mut forbidden = vec![false; r as usize];
            for &(s_i, e_i, rho_i) in &placed {
                let d_lo = (s_i - e_j).div_euclid(ii);
                let d_hi = (e_i - s_j).div_euclid(ii) + 1;
                for d in d_lo..=d_hi {
                    if s_i < e_j + d * ii && s_j + d * ii < e_i {
                        forbidden[(rho_i - d).rem_euclid(r) as usize] = true;
                    }
                }
            }
            let rho = (0..r).find(|&c| !forbidden[c as usize])?;
            placed.push((s_j, e_j, rho));
            assignment[op.index()] = Some(rho as u32);
        }
        Some(assignment)
    }

    /// The precomputed overlap ranges change nothing: on random schedules
    /// — II 1 included, and lifetimes many IIs long through large
    /// dependence distances and spread-out starts — the allocation,
    /// register assignment included, equals the per-offset oracle's.
    #[test]
    fn allocation_matches_the_per_offset_oracle() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let mut long_lifetimes = 0;
        for case in 0..400 {
            let n = rng.random_range(1..24usize);
            let ii = if case % 4 == 0 { 1 } else { rng.random_range(1..9u32) };
            let mut b = DdgBuilder::new(format!("o{case}"));
            let ops: Vec<OpId> = (0..n)
                .map(|i| {
                    let kind = [OpKind::Load, OpKind::Add, OpKind::Mul, OpKind::Store][i % 4];
                    b.add_op(kind, format!("n{i}"))
                })
                .collect();
            for i in 0..n {
                for j in 0..n {
                    if i != j && ops[i].index() % 4 != 3 && rng.random_range(0..5u32) == 0 {
                        let min = u32::from(j <= i);
                        b.reg_dist(ops[i], ops[j], rng.random_range(min..min + 12));
                    }
                }
            }
            if rng.random_range(0..3u32) == 0 {
                b.invariant("a", &[ops[0]]);
            }
            let Ok(g) = b.build() else { continue };
            let spread = rng.random_range(1..80i64);
            let starts: Vec<i64> = (0..n).map(|_| rng.random_range(-spread..spread)).collect();
            let analysis = analyse(&g, &Schedule::new(ii, starts));
            long_lifetimes +=
                analysis.lifetimes().filter(|lt| lt.length() > 4 * i64::from(ii)).count();
            let res = RotatingAllocator::new().allocate(&analysis);
            assert_eq!(res, reference_allocate(&analysis), "case {case}\n{g}");
            assert_valid(&analysis, &res);
        }
        assert!(long_lifetimes > 100, "only {long_lifetimes} lifetimes over 4 IIs long");
    }

    #[test]
    fn fig2_allocation_achieves_maxlive() {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.max_live(), 11);
        assert!(res.total() <= 12, "MaxLive + 1 at worst, got {}", res.total());
        assert_valid(&analysis, &res);
    }

    #[test]
    fn empty_loop_needs_no_registers() {
        let mut b = DdgBuilder::new("stores");
        b.add_op(OpKind::Store, "s1");
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0]);
        let res = RotatingAllocator::new().allocate(&analyse(&g, &s));
        assert_eq!(res.total(), 0);
        assert_eq!(res.excess(), 0);
    }

    #[test]
    fn long_self_overlapping_lifetime_needs_multiple_registers() {
        let mut b = DdgBuilder::new("long");
        let p = b.add_op(OpKind::Load, "p");
        let c = b.add_op(OpKind::Copy, "c");
        b.reg_dist(p, c, 4);
        let g = b.build().unwrap();
        // p@0, c@1, distance 4, II=2: lifetime [0, 9) -> 5 instances.
        let s = Schedule::from_fixed(2, &[(p, 0), (c, 1)]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.variant_regs(), 5);
        assert_valid(&analysis, &res);
    }

    #[test]
    fn disjoint_lifetimes_share_a_register() {
        let mut b = DdgBuilder::new("disjoint");
        let p1 = b.add_op(OpKind::Add, "p1");
        let c1 = b.add_op(OpKind::Copy, "c1");
        let p2 = b.add_op(OpKind::Add, "p2");
        let c2 = b.add_op(OpKind::Copy, "c2");
        b.reg(p1, c1);
        b.reg(p2, c2);
        let g = b.build().unwrap();
        // [0,2) and [2,4) at II=4: no overlap anywhere, ever — one rotating
        // register carries both values back to back.
        let s = Schedule::from_fixed(4, &[(p1, 0), (c1, 2), (p2, 2), (c2, 4)]);
        let analysis = analyse(&g, &s);
        assert_eq!(analysis.max_live_variants(), 1);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.variant_regs(), 1);
        assert_valid(&analysis, &res);
    }

    #[test]
    fn allocation_is_never_below_maxlive() {
        let mut b = DdgBuilder::new("x");
        let p1 = b.add_op(OpKind::Add, "p1");
        let p2 = b.add_op(OpKind::Mul, "p2");
        let c = b.add_op(OpKind::Store, "c");
        b.reg(p1, c);
        b.reg(p2, c);
        let g = b.build().unwrap();
        let s = Schedule::from_fixed(2, &[(p1, 0), (p2, 1), (c, 5)]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert!(res.variant_regs() >= analysis.max_live_variants());
        assert_valid(&analysis, &res);
    }

    #[test]
    fn random_schedules_allocate_close_to_maxlive() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60 {
            let n = rng.random_range(2..16usize);
            let ii = rng.random_range(1..6u32);
            let mut b = DdgBuilder::new(format!("r{case}"));
            let ops: Vec<OpId> = (0..n)
                .map(|i| {
                    let kind = if i % 3 == 0 { OpKind::Load } else { OpKind::Add };
                    b.add_op(kind, format!("n{i}"))
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.random_range(0..4u32) == 0 {
                        b.reg_dist(ops[i], ops[j], rng.random_range(0..3u32));
                    }
                }
            }
            let g = b.build().unwrap();
            let starts: Vec<i64> = (0..n).map(|_| rng.random_range(0..30i64)).collect();
            let s = Schedule::new(ii, starts);
            let analysis = analyse(&g, &s);
            let res = RotatingAllocator::new().allocate(&analysis);
            assert!(res.variant_regs() >= analysis.max_live_variants());
            assert!(
                res.variant_regs() <= analysis.max_live_variants().max(1) + 2,
                "case {case}: {} vs MaxLive {}",
                res.variant_regs(),
                analysis.max_live_variants()
            );
            assert_valid(&analysis, &res);
        }
    }
}
