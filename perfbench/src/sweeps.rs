//! The two sweep workloads: `seg-sweep` (cold, segmented queue) and
//! `baseline-sweep-warm` (ideal and prescheduled queues restored from
//! the checkpoint cache).
//!
//! Both run as passes over a fixed grid on one worker. The untraced pass
//! goes through `Sweep::run_with_jobs_cached_sink`, timing each job from
//! outside by the instant its progress line arrives; the traced pass runs
//! the same specs on the probed machines of [`crate::traced`].

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use chainiq::{Bench, RunResult};
use chainiq_bench::{
    ideal, prescheduled, segmented, CkptTally, PredictorConfig, ProgressSink, RunSpec, Sweep,
    DEFAULT_SEED,
};

use crate::gate::{result_fp, run_problems, same_result, Gate, Golden};
use crate::report::{self, Metrics};
use crate::summary;
use crate::traced::{run_traced, SmtSpec, Trace};
use crate::{setup_due, Opts, SETUP_REPEATS};

/// Fewest timed passes, however long they take: each point's fastest
/// time is taken over at least this many repeats.
pub const MIN_PASSES: usize = 5;

/// A fixed grid plus how it is run.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// Workload name (also the golden-file key).
    pub name: &'static str,
    /// The grid, in submission order.
    pub specs: Vec<RunSpec>,
    /// The SMT point run after the grid, if any.
    pub smt: Option<SmtSpec>,
    /// Whether passes go through the checkpoint cache.
    pub cached: bool,
}

/// Committed instructions per `seg-sweep` point.
pub const SEG_SAMPLE: u64 = 2_000;
/// Committed instructions per `baseline-sweep-warm` point; the cached
/// warmup prefix is half of it.
pub const BASELINE_SAMPLE: u64 = 10_000;
/// Sample of the default-seed golden grids.
pub const GOLDEN_SAMPLE: u64 = 1_500;

/// `seg-sweep`: every benchmark on the Figure 2 grid (512 entries,
/// unlimited/128/64 chains, all four predictor settings) plus the
/// Figure 3 comb curves at 128 and 256 entries, then one two-thread SMT
/// point.
#[must_use]
pub fn seg_sweep(seed: u64, sample: u64) -> SweepWorkload {
    let mut specs = Vec::new();
    for bench in Bench::ALL {
        for chains in [None, Some(128), Some(64)] {
            for pred in PredictorConfig::ALL {
                specs.push(
                    RunSpec::new(bench, segmented(512, chains), pred, sample).with_seed(seed),
                );
            }
        }
        for entries in [128, 256] {
            for chains in [128, 64] {
                let kind = segmented(entries, Some(chains));
                specs
                    .push(RunSpec::new(bench, kind, PredictorConfig::Comb, sample).with_seed(seed));
            }
        }
    }
    let smt = SmtSpec { mix: vec![Bench::Swim, Bench::Gcc], sample, seed };
    SweepWorkload { name: "seg-sweep", specs, smt: Some(smt), cached: false }
}

/// `baseline-sweep-warm`: ideal-512 and prescheduled-320 on the
/// memory-heavy benchmarks, through the checkpoint cache.
#[must_use]
pub fn baseline_sweep(seed: u64, sample: u64) -> SweepWorkload {
    let mut specs = Vec::new();
    for bench in [Bench::Applu, Bench::Swim, Bench::Equake, Bench::Ammp] {
        for kind in [ideal(512), prescheduled(24)] {
            specs.push(RunSpec::new(bench, kind, PredictorConfig::Base, sample).with_seed(seed));
        }
    }
    SweepWorkload { name: "baseline-sweep-warm", specs, smt: None, cached: true }
}

/// One pass over a grid.
#[derive(Debug)]
pub struct Pass {
    /// Results in submission order (the SMT point last).
    pub results: Vec<RunResult>,
    /// Seconds per job, in submission order.
    pub job_secs: Vec<f64>,
    /// Seconds for the whole pass.
    pub wall: f64,
    /// Seconds inside the `Sweep` call (untraced passes).
    pub sweep_wall: f64,
    /// Checkpoint accounting of the `Sweep` call (untraced passes).
    pub tally: CkptTally,
}

/// Stamps the arrival of every per-job progress line.
#[derive(Default)]
struct StampSink {
    stamps: RefCell<Vec<Instant>>,
}

impl ProgressSink for StampSink {
    fn line(&self, line: &str) {
        if line.starts_with("  [") {
            self.stamps.borrow_mut().push(Instant::now());
        } else if line.starts_with("warning") {
            eprintln!("{line}");
        }
    }
}

impl SweepWorkload {
    /// Jobs per pass.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.specs.len() + usize::from(self.smt.is_some())
    }

    /// Labels of the jobs, in submission order.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        let mut v: Vec<String> = self.specs.iter().map(spec_label).collect();
        v.extend(self.smt.iter().map(SmtSpec::label));
        v
    }

    /// A pass through the library's own entry points.
    #[must_use]
    pub fn untraced_pass(&self, cache: Option<&Path>) -> Pass {
        let sink = StampSink::default();
        let mut sweep = Sweep::new();
        for s in &self.specs {
            sweep.push(*s);
        }
        let t0 = Instant::now();
        let (mut results, tally) = sweep.run_with_jobs_cached_sink(1, cache, &sink);
        let sweep_wall = t0.elapsed().as_secs_f64();
        let mut prev = t0;
        let mut job_secs: Vec<f64> = sink
            .stamps
            .borrow()
            .iter()
            .map(|&t| {
                let d = t.duration_since(prev).as_secs_f64();
                prev = t;
                d
            })
            .collect();
        if let Some(smt) = &self.smt {
            let t = Instant::now();
            results.push(smt.run());
            job_secs.push(t.elapsed().as_secs_f64());
        }
        Pass { results, job_secs, wall: t0.elapsed().as_secs_f64(), sweep_wall, tally }
    }

    /// A pass on the probed machines, adding its spans to `trace`.
    pub fn traced_pass(&self, cache: Option<&Path>, trace: &mut Trace) -> Pass {
        let pass = trace.spans.begin();
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(self.jobs());
        let mut job_secs = Vec::with_capacity(self.jobs());
        for s in &self.specs {
            let t = Instant::now();
            results.push(trace.span(pass.id, &spec_label(s), |t| run_traced(s, cache, t).0));
            job_secs.push(t.elapsed().as_secs_f64());
        }
        if let Some(smt) = &self.smt {
            let t = Instant::now();
            results.push(trace.span(pass.id, &smt.label(), |t| smt.run_traced(t)));
            job_secs.push(t.elapsed().as_secs_f64());
        }
        let wall = t0.elapsed().as_secs_f64();
        trace.spans.end(pass, 0, "pass", self.name, &[]);
        Pass { results, job_secs, wall, sweep_wall: wall, tally: CkptTally::default() }
    }

    /// A pass in the run's mode.
    fn pass(&self, traced: bool, cache: Option<&Path>, trace: &mut Trace) -> Pass {
        if traced {
            self.traced_pass(cache, trace)
        } else {
            self.untraced_pass(cache)
        }
    }

    /// Checks a pass job by job: sane, and equal to `reference` when
    /// given.
    pub fn check(
        &self,
        gate: &mut Gate,
        stage: &str,
        pass: &Pass,
        reference: Option<&[RunResult]>,
    ) {
        let samples = self.specs.iter().map(|s| s.sample).chain(self.smt.iter().map(|s| s.sample));
        for (i, (r, sample)) in pass.results.iter().zip(samples).enumerate() {
            let mut problems = run_problems(r, sample);
            if let Some(want) = reference.and_then(|rs| rs.get(i)) {
                problems.extend(same_result(r, want));
            }
            gate.op(|| format!("{} {stage} {}", self.name, self.labels()[i]), &problems);
        }
        if pass.results.len() != self.jobs() {
            gate.op(
                || format!("{} {stage}", self.name),
                &[format!("{} results for {} jobs", pass.results.len(), self.jobs())],
            );
        }
    }
}

/// Short label of a grid point: benchmark, queue with its chain budget,
/// predictors.
#[must_use]
pub fn spec_label(s: &RunSpec) -> String {
    let iq = match s.iq {
        chainiq::IqKind::Segmented(c) => {
            let chains = c.max_chains.map_or_else(|| "inf".to_string(), |n| n.to_string());
            format!("seg{}c{chains}", c.capacity())
        }
        chainiq::IqKind::Ideal(n) => format!("ideal{n}"),
        chainiq::IqKind::Prescheduled(c) => format!("presched{}", c.capacity()),
        chainiq::IqKind::Distance(c) => format!("dist{}", c.capacity()),
    };
    format!("{}/{iq}/{}", s.bench.name(), s.pred.label())
}

/// The default-seed golden results of a workload shape: the same grid at
/// [`GOLDEN_SAMPLE`], cold, then warm through a fresh cache for a cached
/// workload (the warm results must match the cold ones too).
pub fn golden_results(
    w: &SweepWorkload,
    traced: bool,
    dir: &Path,
    gate: &mut Gate,
) -> Vec<(String, RunResult)> {
    let mut trace = Trace::default();
    let cache = w.cached.then_some(dir);
    let cold = w.pass(traced, cache, &mut trace);
    if w.cached {
        let warm = w.pass(traced, cache, &mut trace);
        w.check(gate, "golden-warm", &warm, Some(&cold.results));
    }
    w.labels().into_iter().zip(cold.results).collect()
}

/// The golden grid of `name` (same shape, default seed, small sample).
#[must_use]
pub fn golden_workload(name: &str) -> Option<SweepWorkload> {
    match name {
        "seg-sweep" => Some(seg_sweep(DEFAULT_SEED, GOLDEN_SAMPLE)),
        "baseline-sweep-warm" => Some(baseline_sweep(DEFAULT_SEED, GOLDEN_SAMPLE * 2)),
        _ => None,
    }
}

/// Lowers each job's fastest time to its time in `pass_secs`.
fn keep_fastest(fastest: &mut [f64], pass_secs: &[f64]) {
    for (f, s) in fastest.iter_mut().zip(pass_secs) {
        *f = f.min(*s);
    }
}

/// One set-up: a cold pass over the grid into the fresh directory
/// `ckpt-<k>` (which, for the cached workload, it fills), checked
/// against `reference` when given. Returns the pass and its seconds.
fn setup_pass(
    w: &SweepWorkload,
    opts: &Opts,
    k: usize,
    reference: Option<&[RunResult]>,
    gate: &mut Gate,
    trace: &mut Trace,
) -> (Pass, f64) {
    let dir = opts.work.join(format!("ckpt-{k}"));
    let t = Instant::now();
    let pass = w.pass(opts.trace, w.cached.then_some(dir.as_path()), trace);
    let secs = t.elapsed().as_secs_f64();
    w.check(gate, "setup", &pass, reference);
    if w.cached && !opts.trace && pass.tally.misses != w.specs.len() {
        gate.op(
            || w.name.to_string(),
            &[format!("setup saved {} of {} images", pass.tally.misses, w.specs.len())],
        );
    }
    (pass, secs)
}

/// Runs a sweep workload: set-ups, a warm-up pass, the timed passes with
/// the remaining set-ups spread among them, then the golden check.
pub fn run(
    w: &SweepWorkload,
    opts: &Opts,
    golden: &Golden,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Result<(), String> {
    // Set-up 0 yields the reference results and, for the cached
    // workload, the checkpoint cache the timed passes restore from. The
    // other set-ups run into directories of their own during the timed
    // phase, so `setup_s` sees the same host as the timed passes.
    let mut setup_trace = Trace::default();
    let (first, secs) = setup_pass(w, opts, 0, None, gate, &mut setup_trace);
    let mut setup_secs = vec![secs];
    let mut setup_fastest = first.job_secs.clone();
    let reference = first.results;
    let cache_dir = opts.work.join("ckpt-0");
    let cache = w.cached.then_some(cache_dir.as_path());
    let more_setups = |setup_secs: &mut Vec<f64>, fastest: &mut Vec<f64>, gate: &mut Gate| {
        let k = setup_secs.len();
        let (pass, secs) = setup_pass(w, opts, k, Some(&reference), gate, &mut Trace::default());
        std::fs::remove_dir_all(opts.work.join(format!("ckpt-{k}"))).ok();
        setup_secs.push(secs);
        keep_fastest(fastest, &pass.job_secs);
    };

    // Untimed warm-up.
    let warm = w.untraced_pass(cache);
    w.check(gate, "warm-up", &warm, Some(&reference));

    // Timed phase: passes until the time is up. Each job keeps its
    // fastest untraced time: the host's speed wanders by tens of percent
    // from second to second, and the fastest of many repeats of the same
    // job is what a quieter host would give.
    let mut trace = Trace::default();
    let mut fastest = vec![f64::INFINITY; w.jobs()];
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut sweep_run, mut sweep_over) = (0.0, 0.0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || walls.len() < MIN_PASSES {
        let pass = w.untraced_pass(cache);
        w.check(gate, "timed", &pass, Some(&reference));
        if w.cached && pass.tally.hits != w.specs.len() {
            gate.op(
                || w.name.to_string(),
                &[format!("{} of {} runs restored", pass.tally.hits, w.specs.len())],
            );
        }
        keep_fastest(&mut fastest, &pass.job_secs);
        let runs: f64 = pass.job_secs.iter().take(w.specs.len()).sum();
        sweep_run += runs;
        sweep_over += pass.sweep_wall - runs;
        walls.push(pass.wall);
        eprintln!("{} pass {}: {:.3} s", w.name, walls.len(), pass.wall);
        if opts.trace {
            let tp = w.traced_pass(cache, &mut trace);
            w.check(gate, "traced", &tp, Some(&reference));
            traced_walls.push(tp.wall);
        }
        if setup_due(setup_secs.len(), start.elapsed().as_secs_f64(), opts.seconds) {
            more_setups(&mut setup_secs, &mut setup_fastest, gate);
        }
    }
    while setup_secs.len() < SETUP_REPEATS {
        more_setups(&mut setup_secs, &mut setup_fastest, gate);
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Golden check: the default-seed grid against the committed values.
    let g = golden_workload(w.name).ok_or("no golden grid")?;
    let golden_dir = opts.work.join("golden");
    for (i, (label, r)) in golden_results(&g, opts.trace, &golden_dir, gate).iter().enumerate() {
        let problems: Vec<String> =
            golden.check(w.name, i, label, result_fp(r)).into_iter().collect();
        gate.op(|| format!("{} golden {label}", w.name), &problems);
    }

    // The whole run's peak, before the report allocates anything.
    report::put_peak_rss(m)?;

    if opts.trace {
        let passes = traced_walls.len() as f64;
        crate::write_spans(&trace.spans, opts);
        report::put_trace(m, &trace, passes);
        m.set("ckpt.save_s", setup_trace.save.secs());
        m.set("ckpt.misses", setup_trace.misses as f64);
        m.set("ckpt.rejected", (setup_trace.rejected + trace.rejected) as f64);
        m.set("ckpt.image_bytes", setup_trace.image_bytes as f64);
        let n = walls.len() as f64;
        m.set("sweep.run_s", sweep_run / n);
        m.set("sweep.overhead_s", sweep_over / n);
        let tw = summary::median(&traced_walls).unwrap_or(0.0);
        let uw = summary::median(&walls).unwrap_or(1.0);
        m.set("trace.overhead_frac", tw / uw - 1.0);
        m.set("trace.passes", passes);
    } else {
        // One pass at each point's fastest time.
        let wall: f64 = fastest.iter().sum();
        let cycles: u64 = reference.iter().map(|r| r.stats.cycles).sum();
        m.set("wall_s", wall);
        m.set("jobs_per_s", w.jobs() as f64 / wall);
        m.set("sim_kcycles_per_s", cycles as f64 / wall / 1e3);
        let ms: Vec<f64> = fastest.iter().map(|s| s * 1e3).collect();
        m.set("latency_p50_ms", summary::median(&ms).ok_or("no jobs")?);
        m.set("latency_tail_ms", ms.iter().copied().fold(0.0, f64::max));
        // The set-up at each point's fastest time over the set-ups.
        m.set("setup_s", setup_fastest.iter().sum());
    }
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    eprintln!(
        "{}: {} timed passes in {elapsed:.2} s (mean {mean:.3} s, fastest points sum to {:.3} s); \
         set-ups {:?} s (median {:.3} s)",
        w.name,
        walls.len(),
        fastest.iter().sum::<f64>(),
        setup_secs.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        summary::median(&setup_secs).unwrap_or(f64::NAN)
    );
    Ok(())
}
