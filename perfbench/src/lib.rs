//! The chainiq benchmark: three workloads that each stress different
//! layers of the simulator, measured end to end untraced and layer by
//! layer traced, with every output checked.
//!
//! * `seg-sweep` — a cold sweep of the paper's segmented geometries.
//! * `baseline-sweep-warm` — the ideal and prescheduled baselines on the
//!   memory-heavy benchmarks, restored from the checkpoint cache.
//! * `serve-mixed` — a closed-loop client against an in-process
//!   `chainiq-serve` daemon, mostly cache hits with a fixed miss share.
//!
//! The layers are probed from outside: the runner wraps or times calls
//! into the public API and changes no crate. See `README.md`.

#![forbid(unsafe_code)]

pub mod gate;
pub mod probe;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod summary;
pub mod sweeps;
pub mod traced;

use std::path::PathBuf;

use gate::{Gate, Golden};
use report::Metrics;

/// Set-ups per run; `setup_s` is taken at their fastest. The first runs
/// before the timed phase, the others are spread evenly over it.
pub const SETUP_REPEATS: usize = 7;

/// Whether the next spread set-up is due: `done` set-ups have run and
/// `elapsed` of the timed phase's `seconds` have passed.
#[must_use]
pub fn setup_due(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < SETUP_REPEATS && elapsed / seconds * SETUP_REPEATS as f64 >= done as f64
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["seg-sweep", "baseline-sweep-warm", serve_mix::NAME];

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Scratch directory for caches; removed by the caller.
    pub work: PathBuf,
    /// Where a traced run writes its spans (JSON lines).
    pub spans: PathBuf,
}

/// Writes a traced run's spans to `opts.spans`, reporting on stderr. A
/// failed write loses only the span file, not the run.
pub fn write_spans(spans: &spans::Spans, opts: &Opts) {
    match spans.write(&opts.spans) {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), opts.spans.display()),
        Err(e) => eprintln!("warning: cannot write spans to {}: {e}", opts.spans.display()),
    }
}

/// SplitMix64 of `a` and `b`: the benchmark's only source of derived
/// seeds, so one `--seed` fixes every input.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x6a09_e667_f3bc_c909);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workload seed a run seed maps to (the simulator's own seeds are
/// 64-bit, so small run seeds are spread out first).
#[must_use]
pub fn workload_seed(seed: u64) -> u64 {
    mix(seed, 0x00c4_a1f1_0000_0001)
}

/// Runs one workload, returning the gate and the metrics.
///
/// # Errors
/// An unknown workload, or a run that could not measure what it must.
pub fn run(opts: &Opts) -> Result<(Gate, Metrics), String> {
    let golden = Golden::parse(gate::GOLDEN_TEXT)?;
    let mut gate = Gate::default();
    let mut m = Metrics::default();
    let seed = workload_seed(opts.seed);
    match opts.workload.as_str() {
        "seg-sweep" => {
            let w = sweeps::seg_sweep(seed, sweeps::SEG_SAMPLE);
            sweeps::run(&w, opts, &golden, &mut gate, &mut m)?;
        }
        "baseline-sweep-warm" => {
            let w = sweeps::baseline_sweep(seed, sweeps::BASELINE_SAMPLE);
            sweeps::run(&w, opts, &golden, &mut gate, &mut m)?;
        }
        serve_mix::NAME => {
            let o = Opts { seed, ..opts.clone() };
            serve_mix::run(&o, &golden, &mut gate, &mut m)?;
        }
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
    if opts.trace {
        report::zero_unset_layers(&mut m);
    }
    Ok((gate, m))
}

/// Recomputes every golden grid (untraced) into the file format.
///
/// # Errors
/// A golden grid could not run.
pub fn golden_file(work: &std::path::Path) -> Result<String, String> {
    let mut g = Golden::default();
    let mut gate = Gate::default();
    for name in ["seg-sweep", "baseline-sweep-warm"] {
        let w = sweeps::golden_workload(name).ok_or("no golden grid")?;
        let results = sweeps::golden_results(&w, false, &work.join(name), &mut gate);
        for (i, (label, r)) in results.iter().enumerate() {
            g.insert(name, i, label, gate::result_fp(r));
        }
    }
    for (i, (label, r)) in serve_mix::golden_results(&work.join("serve"))?.iter().enumerate() {
        g.insert(serve_mix::NAME, i, label, gate::result_fp(r));
    }
    if gate.failed > 0 {
        return Err(format!("{} golden checks failed while regenerating", gate.failed));
    }
    Ok(g.render())
}
