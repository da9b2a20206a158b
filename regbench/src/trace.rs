//! In-memory spans and call counters recorded around calls into the
//! workspace crates' public APIs.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::span`], which always counts the call and, when the tracer is
//! timed, records a span (layer, start, end, parent, op id). Spans stay in
//! memory until the run ends; [`Totals`] folds them into per-layer self
//! and inclusive time, where a span's self time is its duration minus the
//! part covered by its child spans.

use std::fmt::Write as _;
use std::time::Instant;

/// The instrumented call sites, named `<crate>.<function>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `regpipe_core::compile`, re-driven by the benchmark's own loop.
    Compile,
    /// `regpipe_sched::LoopAnalysis::new`.
    LoopAnalysis,
    /// `SchedulerKind::schedule_in` (includes `machine`'s MRT).
    ScheduleIn,
    /// `regpipe_regalloc::allocate`.
    Allocate,
    /// `regpipe_regalloc::LifetimeAnalysis::new`.
    Lifetimes,
    /// `regpipe_spill::candidates` plus the policy's `select_batch`/`select`.
    Rank,
    /// `regpipe_spill::spill_batch`.
    Rewrite,
    /// One request through the replicated `Server::handle_line` path.
    Handle,
    /// `regpipe_exec::json::parse` + `regpipe_ddg::textfmt::parse` of a request.
    Parse,
    /// `ShardedCache::get`.
    CacheGet,
    /// `ShardedCache::insert`.
    CacheInsert,
}

/// Number of [`Layer`] variants.
pub const NUM_LAYERS: usize = 11;

impl Layer {
    /// The metric-name stem of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Compile => "core.compile",
            Layer::LoopAnalysis => "sched.loop_analysis",
            Layer::ScheduleIn => "sched.schedule_in",
            Layer::Allocate => "regalloc.allocate",
            Layer::Lifetimes => "regalloc.lifetimes",
            Layer::Rank => "spill.rank",
            Layer::Rewrite => "spill.rewrite",
            Layer::Handle => "serve.handle",
            Layer::Parse => "serve.parse",
            Layer::CacheGet => "serve.cache_get",
            Layer::CacheInsert => "serve.cache_insert",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The layers a compile calls, as opposed to the serve path around it.
pub const COMPILE_LAYERS: [Layer; 7] = [
    Layer::Compile,
    Layer::LoopAnalysis,
    Layer::ScheduleIn,
    Layer::Allocate,
    Layer::Lifetimes,
    Layer::Rank,
    Layer::Rewrite,
];

/// One recorded call: nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The op (cell or request) the call served.
    pub op: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Work counters that are not plain call counts.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Work {
    /// Schedule rounds of the spill and increase-II loops (best-of-all
    /// probes are counted apart).
    pub rounds: u64,
    /// Candidate IIs tried across all `schedule_in` calls.
    pub iis_tried: u64,
    /// Lifetimes handed to `spill_batch`.
    pub victims: u64,
    /// Best-of-all binary-search probes.
    pub probes: u64,
    /// Probes whose allocation fit the budget.
    pub probe_fits: u64,
}

impl Work {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Work) {
        self.rounds += other.rounds;
        self.iis_tried += other.iis_tried;
        self.victims += other.victims;
        self.probes += other.probes;
        self.probe_fits += other.probe_fits;
    }
}

/// Records spans and counts calls for one worker at a time.
pub struct Tracer {
    epoch: Instant,
    timed: bool,
    op: u32,
    open: Vec<u32>,
    /// Spans recorded so far (empty when untimed).
    pub spans: Vec<Span>,
    /// Calls per layer.
    pub calls: [u64; NUM_LAYERS],
    /// Work counters.
    pub work: Work,
}

impl Tracer {
    /// A tracer that only counts calls and work.
    pub fn counting() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    /// A tracer that also records timed spans relative to `epoch`.
    pub fn timed(epoch: Instant) -> Tracer {
        Tracer::new(epoch, true)
    }

    fn new(epoch: Instant, timed: bool) -> Tracer {
        Tracer {
            epoch,
            timed,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            calls: [0; NUM_LAYERS],
            work: Work::default(),
        }
    }

    /// Sets the op id carried by the spans that follow.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one call into `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.calls[layer.index()] += 1;
        if !self.timed {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            layer,
            parent,
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }
}

/// Per-layer totals folded from one or more tracers.
#[derive(Clone, Default, Debug)]
pub struct Totals {
    /// Calls per layer.
    pub calls: [u64; NUM_LAYERS],
    /// Self time per layer, ns.
    pub self_ns: [u64; NUM_LAYERS],
    /// Inclusive time per layer, ns.
    pub incl_ns: [u64; NUM_LAYERS],
    /// Work counters.
    pub work: Work,
}

impl Totals {
    /// Folds one tracer's calls, work and spans in.
    pub fn absorb(&mut self, tracer: &Tracer) {
        for i in 0..NUM_LAYERS {
            self.calls[i] += tracer.calls[i];
        }
        self.work.add(&tracer.work);
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in tracer.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let i = span.layer.index();
            self.incl_ns[i] += duration;
            self.self_ns[i] += duration.saturating_sub(children);
        }
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6
    }
}

/// Appends `spans` to `out` as JSON lines, one span per line, with span
/// ids offset by `base` so ids stay unique across tracers.
pub fn write_spans(out: &mut String, spans: &[Span], base: u64) {
    for (i, s) in spans.iter().enumerate() {
        let parent =
            s.parent.map_or_else(|| "null".to_string(), |p| (base + u64::from(p)).to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            base + i as u64,
            s.layer.name(),
            s.op,
            s.start_ns,
            s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::timed(Instant::now());
        t.span(Layer::Compile, |t| {
            t.span(Layer::ScheduleIn, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span(Layer::Allocate, |_| ());
        });
        let mut totals = Totals::default();
        totals.absorb(&t);
        assert_eq!(totals.calls(Layer::Compile), 1);
        assert_eq!(totals.calls(Layer::ScheduleIn), 1);
        let compile = totals.incl_ns[Layer::Compile.index()];
        let sched = totals.incl_ns[Layer::ScheduleIn.index()];
        assert!(sched >= 2_000_000);
        assert!(totals.self_ns[Layer::Compile.index()] < compile - sched + 1);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn counting_tracer_records_no_spans() {
        let mut t = Tracer::counting();
        t.span(Layer::Rank, |t| t.span(Layer::Rewrite, |_| ()));
        assert!(t.spans.is_empty());
        assert_eq!(t.calls[Layer::Rank.index()], 1);
        assert_eq!(t.calls[Layer::Rewrite.index()], 1);
    }
}
