//! Fault injection: each correctness check of the benchmark must fire on
//! a deliberately broken output, and count it as a failed operation.

use std::path::PathBuf;

use chainiq::Bench;
use chainiq_bench::{ideal, PredictorConfig, RunSpec};
use chainiq_perfbench::gate::{result_fp, same_bytes, Gate, Golden, GOLDEN_TEXT};
use chainiq_perfbench::serve_mix::{self, Stream, BLOCK, CYCLE, MISSES_PER_BLOCK};
use chainiq_perfbench::sweeps::{golden_results, golden_workload, Pass};
use chainiq_perfbench::{report, WORKLOADS};

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("faults-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn golden_gate_passes_clean_results_and_fires_on_a_changed_stat() {
    let golden = Golden::parse(GOLDEN_TEXT).expect("committed golden file parses");
    let w = golden_workload("baseline-sweep-warm").expect("golden grid");
    let dir = Scratch::new("golden");
    let mut gate = Gate::default();
    let results = golden_results(&w, false, &dir.0, &mut gate);
    assert_eq!(gate.failed, 0, "warm golden results must equal the cold ones");
    for (i, (label, r)) in results.iter().enumerate() {
        assert_eq!(golden.check(w.name, i, label, result_fp(r)), None, "{label}");
    }

    let (label, r) = &results[3];
    let mut broken = r.clone();
    broken.stats.cycles += 1;
    let problem = golden.check(w.name, 3, label, result_fp(&broken));
    assert!(problem.is_some());
    let mut gate = Gate::default();
    gate.op(|| "injected".to_string(), &problem.into_iter().collect::<Vec<_>>());
    assert_eq!((gate.attempted, gate.failed), (1, 1));
    assert!(!gate.correct());

    // A relabelled point is caught too.
    assert!(golden.check(w.name, 3, "swim/ideal512/base", result_fp(r)).is_some());
}

#[test]
fn restored_results_that_differ_from_setup_fail_the_pass() {
    let w = golden_workload("baseline-sweep-warm").expect("golden grid");
    let dir = Scratch::new("restore");
    let cold = w.untraced_pass(Some(&dir.0));
    assert_eq!(cold.tally.misses, w.specs.len());
    let warm = w.untraced_pass(Some(&dir.0));
    assert_eq!(warm.tally.hits, w.specs.len());

    let mut gate = Gate::default();
    w.check(&mut gate, "warm", &warm, Some(&cold.results));
    assert_eq!((gate.attempted, gate.failed), (w.specs.len() as u64, 0));

    let mut results = warm.results.clone();
    results[1].stats.committed -= 1;
    let tampered = Pass { results, ..warm };
    let mut gate = Gate::default();
    w.check(&mut gate, "warm", &tampered, Some(&cold.results));
    assert_eq!(gate.failed, 1, "exactly the tampered run fails");

    // A hung run fails even with nothing to compare against.
    let mut results = cold.results.clone();
    results[0].stats.hung = true;
    let hung = Pass { results, ..cold };
    let mut gate = Gate::default();
    w.check(&mut gate, "cold", &hung, None);
    assert_eq!(gate.failed, 1);
}

#[test]
fn served_bytes_are_checked_against_a_local_encode() {
    let spec = RunSpec::new(Bench::Vortex, ideal(64), PredictorConfig::Base, 800).with_seed(3);
    let local = chainiq_serve::proto::encode_result(
        chainiq_serve::spec_key(&spec),
        spec.sample,
        &spec.execute(),
    );
    let dir = Scratch::new("serve");
    let served = serve_mix::serve_once(&dir.0, &spec).expect("daemon answers");
    assert_eq!(same_bytes(&served, &local), None, "served bytes equal the local encode");

    let mut flipped = served.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(same_bytes(&flipped, &local).is_some());
    assert!(same_bytes(&served[..served.len() - 1], &local).is_some());
}

#[test]
fn request_stream_is_seeded_with_a_fixed_miss_share() {
    let popular = serve_mix::popular(11);
    let (mut a, mut b) = (Stream::new(11), Stream::new(11));
    let mut novel = Vec::new();
    for k in 0..4 {
        let (class, x) = a.next_block(&popular);
        assert_eq!(class, k);
        assert_eq!((class, x.clone()), b.next_block(&popular), "same seed, same inputs");
        assert_eq!(x.len(), BLOCK);
        let n: Vec<RunSpec> = x.into_iter().filter(|s| !popular.contains(s)).collect();
        assert_eq!(n.len(), MISSES_PER_BLOCK);
        novel.extend(n);
    }
    let keys: std::collections::BTreeSet<u64> =
        novel.iter().chain(&popular).map(chainiq_serve::spec_key).collect();
    assert_eq!(keys.len(), novel.len() + popular.len(), "novel specs are never repeated");
    assert_ne!(Stream::new(12).next_block(&popular), Stream::new(11).next_block(&popular));
}

#[test]
fn request_stream_repeats_the_same_work_every_cycle() {
    let popular = serve_mix::popular(5);
    let mut s = Stream::new(5);
    let first: Vec<_> = (0..CYCLE).map(|_| s.next_block(&popular)).collect();
    let second: Vec<_> = (0..CYCLE).map(|_| s.next_block(&popular)).collect();
    for ((c1, x), (c2, y)) in first.iter().zip(&second) {
        assert_eq!(c1, c2, "the cycle restarts");
        for (p, q) in x.iter().zip(y) {
            if popular.contains(p) {
                assert_eq!(p, q, "a popular slot asks for the same spec every cycle");
            } else {
                // A miss slot: same template, fresh seed.
                assert_ne!(p, q);
                assert_eq!((p.bench, p.iq, p.pred, p.sample), (q.bench, q.iq, q.pred, q.sample));
            }
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_runner_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_string()).collect();
    names.extend(report::END_TO_END.iter().map(|(n, _)| (*n).to_string()));
    names.extend(report::per_layer_names().into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing from BENCHMARK.json");
    }
    assert_eq!(text.matches("\"name\":").count(), names.len(), "BENCHMARK.json lists extra names");
    for (n, u) in report::END_TO_END {
        assert!(text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")), "{n} unit");
    }
}
