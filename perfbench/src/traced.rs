//! The traced execution path: the same machines the library builds,
//! assembled here around the [`probe`](crate::probe) wrappers and
//! stepped one cycle at a time so every layer boundary can be timed
//! from outside.
//!
//! [`derive`] is a copy of the configuration derivation inside
//! `chainiq::run_one_ckpt`, and [`run_traced`] of its checkpoint
//! protocol. The equivalence tests pin both: a traced run must report
//! the same `SimStats` and `SegmentedStats` as the library's own run of
//! the same spec, for every queue design, cold and warm.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use chainiq::ckpt::{
    self, CkptError, CkptHeader, FpHasher, ImageReader, ImageWriter, Snapshot, FORMAT_VERSION,
};
use chainiq::{
    AddressSpace, Bench, CkptOutcome, DistanceIq, IdealIq, IqKind, IssueQueue, Pipeline,
    PrescheduledIq, RunResult, SegmentedIq, SegmentedIqConfig, SimConfig, SimStats, SmtPipeline,
    SyntheticWorkload,
};
use chainiq_bench::RunSpec;

use crate::probe::{Acc, IqProbe, IqTimes, WorkloadProbe};
use crate::spans::Spans;

/// The queue designs the trace reports separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// The segmented dependence-chain queue.
    Seg,
    /// The ideal monolithic queue.
    Ideal,
    /// The prescheduling queue.
    Presched,
    /// The distance queue (traced for equivalence, not reported).
    Dist,
}

impl Design {
    /// The three reported designs, in metric order.
    pub const REPORTED: [Design; 3] = [Design::Seg, Design::Ideal, Design::Presched];

    /// The design of a queue kind.
    #[must_use]
    pub fn of(kind: &IqKind) -> Design {
        match kind {
            IqKind::Segmented(_) => Design::Seg,
            IqKind::Ideal(_) => Design::Ideal,
            IqKind::Prescheduled(_) => Design::Presched,
            IqKind::Distance(_) => Design::Dist,
        }
    }

    /// Metric-name prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Design::Seg => "seg",
            Design::Ideal => "ideal",
            Design::Presched => "presched",
            Design::Dist => "dist",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-design totals: queue method times plus the step time of the runs
/// that used the design (the base of its share of step time).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignTrace {
    /// Queue method totals.
    pub iq: IqTimes,
    /// `step` totals of the runs on this design.
    pub step: Acc,
}

/// Everything the traced path measured, summed over runs. One value is
/// one span per run folded into running totals.
#[derive(Debug, Default)]
pub struct Trace {
    /// `Pipeline::step` / `SmtPipeline::step`; `calls` is cycles stepped.
    pub step: Acc,
    /// Per design, indexed by [`Design`].
    pub designs: [DesignTrace; 4],
    /// `Iterator::next` on the synthetic workload.
    pub workload: Acc,
    /// Image read, parse and `Snapshot::restore`.
    pub restore: Acc,
    /// `Snapshot::save`, image framing and the atomic write.
    pub save: Acc,
    /// Bytes of every image saved or restored.
    pub image_bytes: u64,
    /// Checkpoint outcomes of the traced runs.
    pub hits: u64,
    /// Runs that simulated cold and saved an image.
    pub misses: u64,
    /// Runs whose image was rejected.
    pub rejected: u64,
    /// Summed memory and LSQ counters of the finished runs.
    pub counts: Counts,
    /// One span per traced run or request.
    pub spans: Spans,
}

/// Memory-hierarchy and LSQ counters summed from `SimStats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// L1D hits plus misses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 hits plus misses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Accesses refused for MSHR exhaustion.
    pub mshr_rejections: u64,
    /// Loads the LSQ issued.
    pub loads_issued: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
}

impl Counts {
    fn add(&mut self, s: &SimStats) {
        self.l1d_accesses += s.mem.l1d.accesses();
        self.l1d_misses += s.mem.l1d.misses;
        self.l2_accesses += s.mem.l2.accesses();
        self.l2_misses += s.mem.l2.misses;
        self.mshr_rejections += s.mem.mshr_rejections;
        self.loads_issued += s.loads_issued;
        self.store_forwards += s.store_forwards;
    }
}

impl Trace {
    /// The totals of one design.
    #[must_use]
    pub fn design(&self, d: Design) -> &DesignTrace {
        &self.designs[d.index()]
    }

    /// Busy time inside every queue, all designs.
    #[must_use]
    pub fn iq_secs(&self) -> f64 {
        self.designs.iter().map(|d| d.iq.busy().as_secs_f64()).sum()
    }

    /// Running busy totals per layer, in [`Trace::LAYERS`] order; the
    /// difference across one run is that run's span fields.
    #[must_use]
    pub fn layer_secs(&self) -> [f64; 5] {
        [
            self.step.secs(),
            self.iq_secs(),
            self.workload.secs(),
            self.restore.secs(),
            self.save.secs(),
        ]
    }

    /// Span field names of [`Trace::layer_secs`].
    pub const LAYERS: [&'static str; 5] = ["step_s", "iq_s", "workload_s", "restore_s", "save_s"];

    /// Runs `f` (one traced run) as a span named `label` under `parent`,
    /// with the layer time it added as fields.
    pub fn span<R>(&mut self, parent: u64, label: &str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let open = self.spans.begin();
        let before = self.layer_secs();
        let r = f(self);
        let after = self.layer_secs();
        let fields: Vec<(&str, f64)> = Trace::LAYERS
            .iter()
            .zip(after.iter().zip(before))
            .map(|(k, (a, b))| (*k, a - b))
            .collect();
        self.spans.end(open, parent, "run", label, &fields);
        r
    }
}

/// The machine a spec runs on, as `chainiq::run_one_ckpt` derives it.
#[derive(Debug, Clone)]
pub struct Derived {
    /// The core configuration.
    pub config: SimConfig,
    /// The queue, with its predictor-dependent knobs applied.
    pub kind: IqKind,
    /// Checkpoint key: workload fingerprint.
    pub workload_fp: u64,
    /// Checkpoint key: configuration hash.
    pub config_hash: u64,
}

/// Copies `run_one_ckpt`'s derivation: ROB sized to three times the
/// queue, the extra dispatch cycle for dependence-based designs, the
/// predictor switches, two-chain tracking off under the left/right
/// predictor, and the two halves of the checkpoint key.
#[must_use]
pub fn derive(spec: &RunSpec) -> Derived {
    let kind = spec.iq;
    let mut config = SimConfig::default().rob_for_iq(kind.capacity());
    config.extra_dispatch_cycle = kind.pays_extra_dispatch_cycle();
    config.use_hmp = spec.pred.hmp();
    config.use_lrp = spec.pred.lrp();
    let kind = match kind {
        IqKind::Segmented(mut qc) => {
            qc.two_chain_tracking = !spec.pred.lrp();
            IqKind::Segmented(qc)
        }
        other => other,
    };
    let workload_fp = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{:?}", spec.bench.profile()));
        h.write_u64(spec.seed);
        h.finish()
    };
    let config_hash = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{config:?}"));
        h.write_str(&format!("{kind:?}"));
        h.write_u64(u64::from(FORMAT_VERSION));
        h.finish()
    };
    Derived { config, kind, workload_fp, config_hash }
}

/// What the step loop needs from a machine.
trait Machine {
    fn step(&mut self);
    fn stats(&self) -> SimStats;
}

impl<Q: IssueQueue, W: Iterator<Item = chainiq::Inst>> Machine for Pipeline<Q, W> {
    fn step(&mut self) {
        Pipeline::step(self);
    }
    fn stats(&self) -> SimStats {
        self.snapshot_stats()
    }
}

impl<Q: IssueQueue, W: Iterator<Item = chainiq::Inst>> Machine for SmtPipeline<Q, W> {
    fn step(&mut self) {
        SmtPipeline::step(self);
    }
    fn stats(&self) -> SimStats {
        self.snapshot_stats()
    }
}

/// `run` rebuilt around a timed `step`: the same loop bounds and the
/// same no-progress guard, so the machine takes exactly the steps the
/// library's `run` would.
fn drive(m: &mut impl Machine, max_insts: u64, max_cycles: u64, step: &mut Acc) -> SimStats {
    let s = m.stats();
    let (mut now, mut committed) = (s.cycles, s.committed);
    let mut last = (now, committed);
    let mut hung = false;
    while committed < max_insts && now < max_cycles {
        let t = Instant::now();
        m.step();
        step.add(t);
        let s = m.stats();
        (now, committed) = (s.cycles, s.committed);
        if committed != last.1 {
            last = (now, committed);
        } else if now - last.0 > 500_000 {
            hung = true;
            break;
        }
    }
    let mut s = m.stats();
    s.hung |= hung;
    s
}

type Traced<Q> = Pipeline<IqProbe<Q>, WorkloadProbe<SyntheticWorkload>>;

/// Runs `spec` on the probed machine, through the checkpoint cache at
/// `cache` when given (warmup: half the sample, as
/// `RunSpec::execute_cached` plans it), adding its span to `trace`.
pub fn run_traced(
    spec: &RunSpec,
    cache: Option<&Path>,
    trace: &mut Trace,
) -> (RunResult, CkptOutcome) {
    let d = derive(spec);
    let plan = cache.map(|dir| (dir, spec.sample / 2));
    let design = Design::of(&d.kind);
    let (result, outcome) = match d.kind {
        IqKind::Ideal(n) => run_kind(&d, spec, plan, design, trace, || IdealIq::new(n), |_| None),
        IqKind::Segmented(qc) => run_kind(
            &d,
            spec,
            plan,
            design,
            trace,
            || SegmentedIq::new(qc),
            |q| Some(q.full_stats()),
        ),
        IqKind::Prescheduled(pc) => {
            run_kind(&d, spec, plan, design, trace, || PrescheduledIq::new(pc), |_| None)
        }
        IqKind::Distance(dc) => {
            run_kind(&d, spec, plan, design, trace, || DistanceIq::new(dc), |_| None)
        }
    };
    match outcome {
        CkptOutcome::Hit => trace.hits += 1,
        CkptOutcome::MissSaved | CkptOutcome::MissSaveFailed => trace.misses += 1,
        CkptOutcome::Rejected => trace.rejected += 1,
        CkptOutcome::Disabled => {}
    }
    trace.counts.add(&result.stats);
    (result, outcome)
}

#[allow(clippy::too_many_arguments)]
fn run_kind<Q: IssueQueue + Snapshot>(
    d: &Derived,
    spec: &RunSpec,
    plan: Option<(&Path, u64)>,
    design: Design,
    trace: &mut Trace,
    make_iq: impl Fn() -> Q,
    seg_stats: impl Fn(&Q) -> Option<chainiq::SegmentedStats>,
) -> (RunResult, CkptOutcome) {
    let next = Rc::new(Cell::new(Acc::default()));
    let fresh = || -> Traced<Q> {
        let workload = SyntheticWorkload::from_profile(spec.bench.profile(), spec.seed);
        Pipeline::new(
            d.config,
            IqProbe::new(make_iq()),
            WorkloadProbe::new(workload, Rc::clone(&next)),
        )
    };
    let max_cycles = d.config.max_cycles;
    let mut step = Acc::default();
    let mut sim = fresh();
    let (stats, outcome) = match plan.filter(|&(_, w)| w > 0 && w < spec.sample) {
        None => (drive(&mut sim, spec.sample, max_cycles, &mut step), CkptOutcome::Disabled),
        Some((dir, warmup)) => {
            let header =
                CkptHeader { workload_fp: d.workload_fp, config_hash: d.config_hash, warmup };
            let path = dir
                .join(format!("ckpt-{:016x}-{:016x}-{warmup}.bin", d.workload_fp, d.config_hash));
            let t = Instant::now();
            let attempt = (|| -> Result<usize, CkptError> {
                let bytes = ckpt::read_image(&path)?;
                let mut img = ImageReader::parse(&bytes)?;
                img.expect_key(header)?;
                img.section(&mut sim)?;
                img.finish()?;
                Ok(bytes.len())
            })();
            trace.restore.add(t);
            match attempt {
                Ok(len) => {
                    trace.image_bytes += len as u64;
                    (drive(&mut sim, spec.sample, max_cycles, &mut step), CkptOutcome::Hit)
                }
                Err(err) => {
                    let rejected = !matches!(&err, CkptError::Io(e) if e.kind() == std::io::ErrorKind::NotFound);
                    if rejected {
                        eprintln!("warning: rejecting checkpoint {}: {err}", path.display());
                        sim = fresh();
                    }
                    let _ = drive(&mut sim, warmup, max_cycles, &mut step);
                    let t = Instant::now();
                    let mut image = ImageWriter::new(header);
                    image.section(&sim);
                    let bytes = image.finish();
                    let written = ckpt::write_image_atomic(&path, &bytes);
                    trace.save.add(t);
                    trace.image_bytes += bytes.len() as u64;
                    let outcome = match written {
                        Ok(()) if rejected => CkptOutcome::Rejected,
                        Ok(()) => CkptOutcome::MissSaved,
                        Err(werr) => {
                            eprintln!(
                                "warning: could not save checkpoint {}: {werr}",
                                path.display()
                            );
                            CkptOutcome::MissSaveFailed
                        }
                    };
                    (drive(&mut sim, spec.sample, max_cycles, &mut step), outcome)
                }
            }
        }
    };
    let dt = &mut trace.designs[design.index()];
    dt.iq.merge(&sim.iq().times());
    dt.step.merge(step);
    trace.step.merge(step);
    trace.workload.merge(next.get());
    let segmented = seg_stats(sim.iq().inner());
    (RunResult { stats, segmented }, outcome)
}

/// The SMT point: two threads over a shared 512-entry segmented queue
/// with both predictors and 128 chains, as the repository's `smt` and
/// `perf` binaries build it.
#[derive(Debug, Clone)]
pub struct SmtSpec {
    /// One benchmark per hardware thread.
    pub mix: Vec<Bench>,
    /// Total committed instructions across threads.
    pub sample: u64,
    /// Seed of thread 0; thread `t` uses `seed + t`.
    pub seed: u64,
}

// Not a multiple of any predictor-table size, so thread contexts do not
// alias onto the same predictor slots (the layout of the `smt` binary).
const STRIDE: u64 = (1 << 40) | 0x94_530;

impl SmtSpec {
    fn config() -> (SimConfig, SegmentedIqConfig) {
        let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
        cfg.use_hmp = true;
        cfg.use_lrp = true;
        let mut qc = SegmentedIqConfig::paper(512, Some(128));
        qc.two_chain_tracking = false;
        (cfg, qc)
    }

    fn threads<W>(&self, wrap: impl Fn(SyntheticWorkload) -> W) -> Vec<AddressSpace<W>> {
        self.mix
            .iter()
            .enumerate()
            .map(|(t, b)| {
                let w = SyntheticWorkload::from_profile(b.profile(), self.seed + t as u64);
                AddressSpace::new(wrap(w), t as u64 * STRIDE, t as u64 * STRIDE)
            })
            .collect()
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.mix.iter().map(|b| b.name()).collect();
        format!("smt{}:{}/seg512c128/comb", self.mix.len(), names.join("+"))
    }

    /// Runs the point with the library's own `SmtPipeline::run`.
    #[must_use]
    pub fn run(&self) -> RunResult {
        let (cfg, qc) = Self::config();
        let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), self.threads(|w| w));
        let stats = smt.run(self.sample);
        RunResult { stats, segmented: Some(smt.iq().full_stats()) }
    }

    /// Runs the point on the probed machine, adding its span to `trace`.
    pub fn run_traced(&self, trace: &mut Trace) -> RunResult {
        let (cfg, qc) = Self::config();
        let next = Rc::new(Cell::new(Acc::default()));
        let threads = self.threads(|w| WorkloadProbe::new(w, Rc::clone(&next)));
        let mut smt = SmtPipeline::new(cfg, IqProbe::new(SegmentedIq::new(qc)), threads);
        let mut step = Acc::default();
        let stats = drive(&mut smt, self.sample, cfg.max_cycles, &mut step);
        let dt = &mut trace.designs[Design::Seg.index()];
        dt.iq.merge(&smt.iq().times());
        dt.step.merge(step);
        trace.step.merge(step);
        trace.workload.merge(next.get());
        trace.counts.add(&stats);
        RunResult { stats, segmented: Some(smt.iq().inner().full_stats()) }
    }
}
