//! The traced path must simulate exactly what the library simulates:
//! identical `SimStats` and `SegmentedStats` for every queue design and
//! for the SMT point, cold and through the checkpoint cache. The cache
//! tests also guard the runner's copy of `run_one_ckpt`'s configuration
//! derivation: an image the library saved must be a hit for the traced
//! path and the other way round, which only holds if both derive the
//! same checkpoint key and the same machine.

use std::path::PathBuf;

use chainiq::{Bench, CkptOutcome, DistanceConfig, IqKind};
use chainiq_bench::{ideal, prescheduled, segmented, PredictorConfig, RunSpec};
use chainiq_perfbench::gate::result_fp;
use chainiq_perfbench::traced::{run_traced, Design, SmtSpec, Trace};

/// A scratch directory under the package's target area, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("equivalence-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Every queue design, with every predictor setting on the segmented
/// queue (the left/right predictor changes its derived configuration).
fn specs() -> Vec<RunSpec> {
    let mut v = vec![
        RunSpec::new(Bench::Swim, ideal(128), PredictorConfig::Base, 2_000),
        RunSpec::new(Bench::Applu, prescheduled(8), PredictorConfig::Hmp, 2_000),
        RunSpec::new(
            Bench::Gcc,
            IqKind::Distance(DistanceConfig::paper_sized(8)),
            PredictorConfig::Base,
            2_000,
        ),
    ];
    for pred in PredictorConfig::ALL {
        v.push(RunSpec::new(Bench::Equake, segmented(128, Some(64)), pred, 2_000).with_seed(9));
    }
    v.push(RunSpec::new(Bench::Twolf, segmented(256, None), PredictorConfig::Comb, 2_000));
    v
}

#[test]
fn traced_runs_match_library_runs_for_every_design() {
    let mut trace = Trace::default();
    for spec in specs() {
        let want = spec.execute();
        let (got, outcome) = run_traced(&spec, None, &mut trace);
        assert_eq!(outcome, CkptOutcome::Disabled);
        assert_eq!(
            format!("{:?} {:?}", got.stats, got.segmented),
            format!("{:?} {:?}", want.stats, want.segmented),
            "{spec:?}"
        );
        assert_eq!(got.segmented.is_some(), matches!(spec.iq, IqKind::Segmented(_)));
    }
    // Every design's probe saw calls, and the step loop counted cycles.
    for d in [Design::Seg, Design::Ideal, Design::Presched, Design::Dist] {
        assert!(trace.design(d).iq.calls() > 0, "{d:?} probe saw no calls");
        assert!(trace.design(d).step.calls > 0);
    }
    assert!(trace.workload.calls > 0);
}

#[test]
fn traced_smt_point_matches_library_run() {
    let smt = SmtSpec { mix: vec![Bench::Swim, Bench::Gcc], sample: 3_000, seed: 5 };
    let want = smt.run();
    let mut trace = Trace::default();
    let got = smt.run_traced(&mut trace);
    assert_eq!(result_fp(&got), result_fp(&want));
    assert!(trace.design(Design::Seg).iq.calls() > 0);
}

#[test]
fn checkpoint_images_are_shared_between_library_and_traced_paths() {
    for spec in specs() {
        let spec = RunSpec { sample: 3_000, ..spec };
        let cold = spec.execute();

        // Library saves, traced restores.
        let a = Scratch::new("lib-saves");
        let (r1, o1) = spec.execute_cached(Some(&a.0));
        assert_eq!(o1, CkptOutcome::MissSaved, "{spec:?}");
        let mut trace = Trace::default();
        let (r2, o2) = run_traced(&spec, Some(&a.0), &mut trace);
        assert_eq!(o2, CkptOutcome::Hit, "traced path derived another key for {spec:?}");
        assert_eq!(trace.hits, 1);
        assert!(trace.restore.calls == 1 && trace.image_bytes > 0);

        // Traced saves, library restores.
        let b = Scratch::new("traced-saves");
        let (r3, o3) = run_traced(&spec, Some(&b.0), &mut trace);
        assert_eq!(o3, CkptOutcome::MissSaved);
        assert_eq!(trace.save.calls, 1);
        let (r4, o4) = spec.execute_cached(Some(&b.0));
        assert_eq!(o4, CkptOutcome::Hit, "library rejected the traced image for {spec:?}");

        for r in [&r1, &r2, &r3, &r4] {
            assert_eq!(result_fp(r), result_fp(&cold), "{spec:?}");
        }
    }
}
