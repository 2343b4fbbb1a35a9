//! The correctness gate. Every checked operation counts as attempted;
//! an operation with any mismatch counts as failed, and the run reports
//! `correct: false` if anything failed.

use std::collections::BTreeMap;

use chainiq::ckpt::fingerprint;
use chainiq::RunResult;

/// The committed default-seed fingerprints (see [`Golden`]).
pub const GOLDEN_TEXT: &str = include_str!("../golden.txt");

/// Failures printed on stderr before the rest are only counted.
const MAX_REPORTED: u64 = 20;

/// Attempted/failed accounting for one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one mismatch.
    pub failed: u64,
}

impl Gate {
    /// Records one operation; `problems` lists its mismatches (empty
    /// when it passed) and `what` names it, built only on failure.
    /// Returns whether it passed.
    pub fn op(&mut self, what: impl FnOnce() -> String, problems: &[String]) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.failed <= MAX_REPORTED {
            eprintln!("FAILED {}: {}", what(), problems.join("; "));
        }
        false
    }

    /// Whether every operation passed (and at least one ran).
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Fingerprint of everything a run reports: the full `SimStats` and the
/// segmented-queue stats.
#[must_use]
pub fn result_fp(r: &RunResult) -> u64 {
    fingerprint(format!("{:?} {:?}", r.stats, r.segmented).as_bytes())
}

/// Sanity problems of a finished run that was asked for `sample`
/// committed instructions.
#[must_use]
pub fn run_problems(r: &RunResult, sample: u64) -> Vec<String> {
    let mut p = Vec::new();
    if r.stats.hung {
        p.push("simulation hit the no-progress guard".to_string());
    }
    if r.stats.committed < sample {
        p.push(format!("committed {} of {sample} instructions", r.stats.committed));
    }
    p
}

/// A mismatch between a result and the reference it must equal.
#[must_use]
pub fn same_result(got: &RunResult, want: &RunResult) -> Option<String> {
    let (g, w) = (result_fp(got), result_fp(want));
    (g != w).then(|| format!("stats fingerprint {g:016x}, reference {w:016x}"))
}

/// A mismatch between served and locally encoded result bytes.
#[must_use]
pub fn same_bytes(served: &[u8], local: &[u8]) -> Option<String> {
    if served == local {
        return None;
    }
    let at =
        served.iter().zip(local).position(|(a, b)| a != b).unwrap_or(served.len().min(local.len()));
    Some(format!(
        "served {} bytes differ from local encode_result ({} bytes) at byte {at}",
        served.len(),
        local.len()
    ))
}

/// Default-seed fingerprints, one line per grid point:
/// `<workload> <index> <label> <fingerprint-hex>`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<(String, usize), (String, u64)>,
}

impl Golden {
    /// Parses the committed file format; `#` starts a comment line.
    ///
    /// # Errors
    /// A line that is not four fields with a decimal index and a hex
    /// fingerprint.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("golden line {}: {line:?}", n + 1);
            let [w, i, label, fp] = f[..] else {
                return Err(bad());
            };
            let i: usize = i.parse().map_err(|_| bad())?;
            let fp = u64::from_str_radix(fp, 16).map_err(|_| bad())?;
            g.entries.insert((w.to_string(), i), (label.to_string(), fp));
        }
        Ok(g)
    }

    /// Records one point.
    pub fn insert(&mut self, workload: &str, index: usize, label: &str, fp: u64) {
        self.entries.insert((workload.to_string(), index), (label.to_string(), fp));
    }

    /// The mismatch of one point against the stored value, if any.
    #[must_use]
    pub fn check(&self, workload: &str, index: usize, label: &str, fp: u64) -> Option<String> {
        match self.entries.get(&(workload.to_string(), index)) {
            None => Some(format!("no golden fingerprint for {workload} #{index} {label}")),
            Some((l, _)) if l != label => {
                Some(format!("golden point {workload} #{index} is {l}, ran {label}"))
            }
            Some((_, want)) if *want != fp => {
                Some(format!("{label}: fingerprint {fp:016x}, golden {want:016x}"))
            }
            Some(_) => None,
        }
    }

    /// The file format [`Golden::parse`] reads.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Default-seed stats fingerprints of the benchmark's golden grids.\n\
             # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- \
             --write-golden perfbench/golden.txt\n",
        );
        for ((w, i), (label, fp)) in &self.entries {
            s.push_str(&format!("{w} {i} {label} {fp:016x}\n"));
        }
        s
    }
}
