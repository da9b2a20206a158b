//! Seeded synthetic-kernel generator for stress corpora.
//!
//! [`suite`](crate::suite) reproduces the paper's archetype mix; this
//! module is the open-ended counterpart: [`generate`] materializes any
//! number of random-but-valid kernels from a seed and a [`GenParams`]
//! knob set (op count, recurrence density, invariant count, weight
//! distribution), for corpora that go **on disk** (`regpipe gen`) and
//! replay byte-identically.
//!
//! Two determinism guarantees, both enforced by `tests/gen_corpus.rs`:
//!
//! * **Byte stability** — the same `(seed, params)` produce the same
//!   kernels (down to [`regpipe_ddg::textfmt::format`] bytes) on every
//!   platform and every run; the generator draws exclusively from the
//!   vendored deterministic [`rand`] stand-in.
//! * **Prefix stability** — kernels are drawn from one sequential stream,
//!   so `generate(seed, 100, p)` is exactly the first hundred kernels of
//!   `generate(seed, 1000, p)`: growing a corpus never rewrites the part
//!   already published.
//!
//! Every generated kernel is structurally valid by construction (the
//! builder's validation runs on each one): zero-distance edges only go
//! forward in creation order, and deliberate recurrences close cycles
//! with distance ≥ 1, so RecMII is finite and every kernel schedules.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regpipe_ddg::{DdgBuilder, OpId, OpKind};

use crate::BenchLoop;

/// The dynamic-weight distribution of generated kernels.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum WeightDist {
    /// Every kernel weighs the same.
    Constant(u64),
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Smallest weight (inclusive).
        lo: u64,
        /// Largest weight (inclusive).
        hi: u64,
    },
    /// Heavy-tailed `10^U(lo_exp, hi_exp)` — the shape of the suite's
    /// iteration counts (see [`crate::suite`]).
    LogUniform {
        /// Smallest exponent.
        lo_exp: f64,
        /// Largest exponent.
        hi_exp: f64,
    },
}

/// The `regpipe gen --weights` spelling: `const:<w>`, `uniform:<lo>,<hi>`
/// or `log:<lo>,<hi>`.
impl std::str::FromStr for WeightDist {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        fn pair<'a>(rest: &'a str, kind: &str) -> Result<(&'a str, &'a str), String> {
            rest.split_once(',')
                .map(|(a, b)| (a.trim(), b.trim()))
                .ok_or_else(|| format!("weight spec {kind}: expected '{kind}:<lo>,<hi>'"))
        }
        let (kind, rest) =
            spec.split_once(':').ok_or_else(|| format!("bad weight spec '{spec}'"))?;
        match kind {
            "const" => {
                let w: u64 =
                    rest.parse().map_err(|_| format!("bad constant weight '{rest}'"))?;
                Ok(WeightDist::Constant(w))
            }
            "uniform" => {
                let (lo, hi) = pair(rest, kind)?;
                let lo: u64 = lo.parse().map_err(|_| format!("bad weight bound '{lo}'"))?;
                let hi: u64 = hi.parse().map_err(|_| format!("bad weight bound '{hi}'"))?;
                Ok(WeightDist::Uniform { lo, hi })
            }
            "log" => {
                let (lo, hi) = pair(rest, kind)?;
                let lo_exp: f64 = lo.parse().map_err(|_| format!("bad exponent '{lo}'"))?;
                let hi_exp: f64 = hi.parse().map_err(|_| format!("bad exponent '{hi}'"))?;
                Ok(WeightDist::LogUniform { lo_exp, hi_exp })
            }
            other => Err(format!("unknown weight distribution '{other}'")),
        }
    }
}

/// Knobs of the synthetic-kernel generator.
///
/// The defaults produce mid-size kernels with the suite's heavy-tailed
/// weights; `regpipe gen` exposes every field as a flag.
#[derive(Clone, PartialEq, Debug)]
pub struct GenParams {
    /// Fewest operations per kernel (inclusive; at least 2).
    pub min_ops: usize,
    /// Most operations per kernel (inclusive).
    pub max_ops: usize,
    /// Probability, per arithmetic operation, of closing a loop-carried
    /// recurrence back through one of its operands (in `[0, 1]`).
    pub recurrence_density: f64,
    /// Most loop-invariant values per kernel (each kernel draws a count
    /// uniformly from `0..=max_invariants`).
    pub max_invariants: usize,
    /// How dynamic execution weights are drawn.
    pub weights: WeightDist,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            min_ops: 4,
            max_ops: 24,
            recurrence_density: 0.25,
            max_invariants: 4,
            weights: WeightDist::LogUniform { lo_exp: 2.0, hi_exp: 4.2 },
        }
    }
}

impl GenParams {
    /// Checks the knob ranges; [`generate`] calls this up front.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_ops < 2 {
            return Err(format!("min_ops must be at least 2, got {}", self.min_ops));
        }
        if self.max_ops < self.min_ops {
            return Err(format!(
                "max_ops ({}) must be at least min_ops ({})",
                self.max_ops, self.min_ops
            ));
        }
        if !(0.0..=1.0).contains(&self.recurrence_density) {
            return Err(format!(
                "recurrence_density must be in [0, 1], got {}",
                self.recurrence_density
            ));
        }
        match self.weights {
            WeightDist::Constant(0) => Err("constant weight must be positive".to_string()),
            WeightDist::Uniform { lo, hi } if lo == 0 || hi < lo => {
                Err(format!("uniform weights need 0 < lo <= hi, got {lo}..={hi}"))
            }
            WeightDist::LogUniform { lo_exp, hi_exp } if hi_exp < lo_exp => Err(format!(
                "log-uniform weights need lo_exp <= hi_exp, got {lo_exp}..{hi_exp}"
            )),
            _ => Ok(()),
        }
    }
}

/// Generates `count` kernels named `gen_00000`, `gen_00001`, … from one
/// deterministic stream seeded with `seed`.
///
/// # Errors
///
/// [`GenParams::validate`]'s message if the knobs are out of range.
pub fn generate(seed: u64, count: usize, params: &GenParams) -> Result<Vec<BenchLoop>, String> {
    params.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..count).map(|i| generate_one(&mut rng, format!("gen_{i:05}"), params)).collect())
}

/// Draws one kernel from `rng`. Callers wanting a single kernel mid-stream
/// can use this directly; [`generate`] is the batch form.
pub fn generate_one(rng: &mut StdRng, name: String, params: &GenParams) -> BenchLoop {
    let target_ops = rng.random_range(params.min_ops..=params.max_ops);
    let mut b = DdgBuilder::new(name);

    // Value-producing ops so far, in creation order (zero-distance edges
    // only ever point from earlier entries to later ops, which is what
    // rules zero-distance cycles out by construction).
    let mut producers: Vec<OpId> = vec![b.add_op(OpKind::Load, "ld00000")];
    let mut stores = 0usize;
    while producers.len() + stores + 1 < target_ops {
        let serial = producers.len() + stores + 1;
        let roll = rng.random_range(0..100u32);
        match roll {
            // More memory traffic: a fresh stream of input values.
            0..=24 => {
                producers.push(b.add_op(OpKind::Load, format!("ld{serial:05}")));
            }
            // A store sinking one existing value.
            25..=39 => {
                let st = b.add_op(OpKind::Store, format!("st{serial:05}"));
                let src = producers[rng.random_range(0..producers.len())];
                b.reg(src, st);
                stores += 1;
            }
            // Arithmetic consuming one or two existing values.
            _ => {
                let kind = match rng.random_range(0..20u32) {
                    0 => OpKind::Div,
                    1 => OpKind::Sqrt,
                    n if n < 11 => OpKind::Add,
                    _ => OpKind::Mul,
                };
                let op = b.add_op(kind, format!("t{serial:05}"));
                let first = producers[rng.random_range(0..producers.len())];
                // A slice of operand uses is loop-carried (stencil taps).
                if rng.random_range(0..100u32) < 12 {
                    b.reg_dist(first, op, rng.random_range(1..5u32));
                } else {
                    b.reg(first, op);
                }
                if rng.random_range(0..2u32) == 1 {
                    let second = producers[rng.random_range(0..producers.len())];
                    b.reg(second, op);
                }
                // Close a recurrence through the zero-distance operand:
                // `first -> op` plus `op -> first` (distance >= 1) is a
                // genuine loop-carried cycle, so RecMII stays finite.
                if rng.random_range(0.0..1.0f64) < params.recurrence_density {
                    b.reg_dist(op, first, rng.random_range(1..4u32));
                }
                producers.push(op);
            }
        }
    }
    // Always sink the most recent value so every kernel has a live output.
    let st = b.add_op(OpKind::Store, format!("st{target_ops:05}"));
    b.reg(*producers.last().expect("at least the seed load"), st);

    let invariants = rng.random_range(0..=params.max_invariants);
    for j in 0..invariants {
        let user = producers[rng.random_range(0..producers.len())];
        b.invariant(format!("inv{j:02}"), &[user]);
    }

    let weight = match params.weights {
        WeightDist::Constant(w) => w,
        WeightDist::Uniform { lo, hi } => rng.random_range(lo..=hi),
        WeightDist::LogUniform { lo_exp, hi_exp } => {
            let exponent =
                if lo_exp == hi_exp { lo_exp } else { rng.random_range(lo_exp..hi_exp) };
            (10f64.powf(exponent).round() as u64).max(1)
        }
    };

    let ddg = b.build().expect("generated kernel is valid by construction");
    BenchLoop { name: ddg.name().to_string(), ddg, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::textfmt;

    #[test]
    fn weight_specs_parse_and_name_bad_input() {
        assert_eq!("log:2,4.2".parse(), Ok(GenParams::default().weights));
        assert_eq!("const:7".parse(), Ok(WeightDist::Constant(7)));
        assert_eq!("uniform:1, 9".parse(), Ok(WeightDist::Uniform { lo: 1, hi: 9 }));
        let err = "zipf:3".parse::<WeightDist>().unwrap_err();
        assert_eq!(err, "unknown weight distribution 'zipf'");
        assert!("log:2".parse::<WeightDist>().is_err());
    }

    #[test]
    fn generation_is_byte_stable_and_prefix_stable() {
        let p = GenParams::default();
        let a = generate(11, 40, &p).unwrap();
        let b = generate(11, 40, &p).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(textfmt::format(&x.ddg), textfmt::format(&y.ddg));
            assert_eq!(x.weight, y.weight);
        }
        let prefix = generate(11, 10, &p).unwrap();
        for (x, y) in prefix.iter().zip(&a) {
            assert_eq!(textfmt::format(&x.ddg), textfmt::format(&y.ddg), "prefix property");
            assert_eq!(x.weight, y.weight);
        }
        let other = generate(12, 10, &p).unwrap();
        assert!(
            prefix
                .iter()
                .zip(&other)
                .any(|(x, y)| textfmt::format(&x.ddg) != textfmt::format(&y.ddg)),
            "different seeds diverge"
        );
    }

    #[test]
    fn op_counts_respect_bounds() {
        let p = GenParams { min_ops: 5, max_ops: 9, ..GenParams::default() };
        for l in generate(3, 60, &p).unwrap() {
            let n = l.ddg.num_ops();
            assert!((5..=9).contains(&n), "{}: {n} ops", l.name);
            l.ddg.validate().unwrap();
            assert!(l.weight >= 1);
        }
    }

    #[test]
    fn recurrence_density_moves_the_recurrence_rate() {
        let none = GenParams { recurrence_density: 0.0, ..GenParams::default() };
        let lots = GenParams { recurrence_density: 0.9, ..GenParams::default() };
        let count_recs = |loops: &[BenchLoop]| {
            loops.iter().filter(|l| !regpipe_ddg::algo::recurrences(&l.ddg).is_empty()).count()
        };
        let quiet = count_recs(&generate(5, 80, &none).unwrap());
        let busy = count_recs(&generate(5, 80, &lots).unwrap());
        assert_eq!(quiet, 0, "density 0 means acyclic kernels");
        assert!(busy > 40, "density 0.9 saturates ({busy}/80)");
    }

    #[test]
    fn invariant_and_weight_knobs_apply() {
        let p = GenParams {
            max_invariants: 0,
            weights: WeightDist::Constant(7),
            ..GenParams::default()
        };
        for l in generate(9, 30, &p).unwrap() {
            assert_eq!(l.ddg.num_invariants(), 0);
            assert_eq!(l.weight, 7);
        }
        let p = GenParams {
            max_invariants: 3,
            weights: WeightDist::Uniform { lo: 10, hi: 20 },
            ..GenParams::default()
        };
        let loops = generate(9, 30, &p).unwrap();
        assert!(loops.iter().any(|l| l.ddg.num_invariants() > 0));
        assert!(loops.iter().all(|l| (10..=20).contains(&l.weight)));
    }

    #[test]
    fn bad_params_are_rejected_with_field_names() {
        for (p, needle) in [
            (GenParams { min_ops: 1, ..GenParams::default() }, "min_ops"),
            (GenParams { min_ops: 9, max_ops: 4, ..GenParams::default() }, "max_ops"),
            (
                GenParams { recurrence_density: 1.5, ..GenParams::default() },
                "recurrence_density",
            ),
            (
                GenParams { weights: WeightDist::Constant(0), ..GenParams::default() },
                "constant",
            ),
            (
                GenParams {
                    weights: WeightDist::Uniform { lo: 5, hi: 2 },
                    ..GenParams::default()
                },
                "uniform",
            ),
        ] {
            let err = generate(1, 1, &p).unwrap_err();
            assert!(err.contains(needle), "{p:?}: {err}");
        }
    }
}
