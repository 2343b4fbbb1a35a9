//! Golden fingerprints of the baseline queues on the memory-bound
//! benchmarks.
//!
//! The ideal and prescheduled queues run with windows of hundreds of
//! in-flight loads, so these points exercise the LSQ's disambiguation
//! walk, store forwarding and the MSHR-full retry path far harder than
//! the segmented fig2/fig3 grid does. Every value below is the FNV
//! fingerprint of the full `Debug` rendering of the run's statistics —
//! every counter including `mem.mshr_rejections`, the per-level cache
//! counts and the LSQ totals — recorded on the full-walk LSQ that
//! re-presents every rejected load to the hierarchy each cycle. They are
//! an oracle independent of the current LSQ/MSHR code: a change to how
//! retries are scheduled or counted moves a fingerprint here even where
//! the headline IPC does not move.

use chainiq::ckpt::fingerprint;
use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{
    run_one, run_one_ckpt, AddressSpace, Bench, CkptOutcome, CkptPlan, IdealIq, IqKind,
    PrescheduleConfig, RunResult, SimConfig, SmtPipeline, SyntheticWorkload,
};

const SAMPLE: u64 = 3_000;
const SEED: u64 = 20020525;

fn fp(r: &RunResult) -> u64 {
    fingerprint(format!("{:?} {:?}", r.stats, r.segmented).as_bytes())
}

fn kinds() -> [(&'static str, IqKind); 2] {
    [
        ("ideal512", IqKind::Ideal(512)),
        ("presched24", IqKind::Prescheduled(PrescheduleConfig::paper(24))),
    ]
}

const BENCHES: [Bench; 4] = [Bench::Applu, Bench::Swim, Bench::Equake, Bench::Ammp];

/// `(bench/kind, fingerprint)` pinned on the full-walk LSQ.
const GRID: [(&str, u64); 8] = [
    ("applu/ideal512", 0x8f2250fa26f1cb13),
    ("applu/presched24", 0x19fc337e65414a5a),
    ("swim/ideal512", 0xf153dbc624060bea),
    ("swim/presched24", 0x4d40a25fbab70fa1),
    ("equake/ideal512", 0x9e2986c5b8ef885a),
    ("equake/presched24", 0x7795f4c0f074c50a),
    ("ammp/ideal512", 0x02070f9415efa5fe),
    ("ammp/presched24", 0x4db2456b0bf0b08a),
];

/// Renders a table the way the constants above are written, so a
/// mismatch prints the values to compare side by side.
fn table(rows: &[(String, u64)]) -> String {
    rows.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect()
}

#[test]
fn baseline_grid_matches_golden() {
    let mut got = Vec::new();
    let mut rejections = 0;
    for bench in BENCHES {
        for (name, kind) in kinds() {
            let r = run_one(bench.profile(), kind, false, false, SAMPLE, SEED);
            assert!(!r.stats.hung, "{}/{name} hung", bench.name());
            rejections += r.stats.mem.mshr_rejections;
            got.push((format!("{}/{name}", bench.name()), fp(&r)));
        }
    }
    // The grid must actually exercise the MSHR-full retry path.
    assert!(rejections > 10_000, "only {rejections} MSHR rejections on the grid");
    let want: Vec<(String, u64)> = GRID.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(table(&got), table(&want));
}

/// A run restored from a checkpoint taken halfway reports the golden
/// result: the LSQ and ROB rebuild their derived indexes on unpack.
#[test]
fn checkpoint_restored_run_matches_golden() {
    // The same spec as the grid's swim/ideal512 point, so the same
    // result; swim fills the MSHR file well before the restore point.
    const RESTORED: u64 = GRID[2].1;
    let dir = std::env::temp_dir().join(format!("chainiq-baseline-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = CkptPlan { dir: dir.clone(), warmup: 1_500 };
    let run = || {
        run_one_ckpt(
            Bench::Swim.profile(),
            IqKind::Ideal(512),
            false,
            false,
            SAMPLE,
            SEED,
            Some(&plan),
        )
    };
    let (cold, miss) = run();
    let (warm, hit) = run();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(miss, CkptOutcome::MissSaved);
    assert_eq!(hit, CkptOutcome::Hit);
    assert_eq!(format!("{:#018x}", fp(&cold)), format!("{RESTORED:#018x}"));
    assert_eq!(format!("{:#018x}", fp(&warm)), format!("{RESTORED:#018x}"));
}

/// Two threads share one hierarchy, so one thread's misses fill the
/// MSHR file the other's loads are rejected from. Long enough for the
/// file to fill: at 3k instructions neither point is rejected yet.
#[test]
fn smt_swim_gcc_matches_golden() {
    const SMT_SAMPLE: u64 = 8_000;
    const SEG: u64 = 0xfd50479f57bf7756;
    const IDEAL: u64 = 0x3e672e87380c9f33;
    const STRIDE: u64 = (1 << 40) | 0x94_530;
    let threads = || -> Vec<AddressSpace<SyntheticWorkload>> {
        [Bench::Swim, Bench::Gcc]
            .iter()
            .enumerate()
            .map(|(t, b)| {
                let w = SyntheticWorkload::from_profile(b.profile(), SEED + t as u64);
                AddressSpace::new(w, t as u64 * STRIDE, t as u64 * STRIDE)
            })
            .collect()
    };
    // The benchmark's SMT point: seg512c128 with both predictors.
    let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    cfg.use_lrp = true;
    let mut qc = SegmentedIqConfig::paper(512, Some(128));
    qc.two_chain_tracking = false;
    let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads());
    let stats = smt.run(SMT_SAMPLE);
    let seg = RunResult { stats, segmented: Some(smt.iq().full_stats()) };

    let cfg = SimConfig::default().rob_for_iq(512);
    let mut smt = SmtPipeline::new(cfg, IdealIq::new(512), threads());
    let stats = smt.run(SMT_SAMPLE);
    let ideal = RunResult { stats, segmented: None };

    assert_eq!(
        format!("seg {:#018x} ideal {:#018x}", fp(&seg), fp(&ideal)),
        format!("seg {SEG:#018x} ideal {IDEAL:#018x}")
    );
}
