//! Metric names, units and the result line.
//!
//! Every run prints the same metric set whatever the workload: the
//! end-to-end set untraced, the per-layer set traced. A layer a workload
//! never enters reads zero, which is itself the claim that it never ran.

use crate::probe::IqTimes;
use crate::summary;
use crate::traced::{Design, Trace};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metric suffixes of each reported queue design.
pub const DESIGN_SUFFIXES: [(&str, &str); 8] = [
    ("tick_s", "s"),
    ("dispatch_s", "s"),
    ("select_issue_s", "s"),
    ("announce_ready_s", "s"),
    ("notify_s", "s"),
    ("calls", "count"),
    ("dispatch_stall_frac", "ratio"),
    ("share_of_step", "ratio"),
];

/// Per-layer metrics other than the per-design ones: `(name, unit)`.
pub const LAYER_FIXED: [(&str, &str); 31] = [
    ("cpu.step_s", "s"),
    ("cpu.cycles", "count"),
    ("cpu.ns_per_cycle", "ns"),
    ("cpu.outside_iq_s", "s"),
    ("mem.l1d_accesses", "count"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.mshr_rejections", "count"),
    ("lsq.loads_issued", "count"),
    ("lsq.store_forwards", "count"),
    ("workload.next_s", "s"),
    ("workload.insts", "count"),
    ("ckpt.restore_s", "s"),
    ("ckpt.save_s", "s"),
    ("ckpt.image_bytes", "bytes"),
    ("ckpt.hits", "count"),
    ("ckpt.misses", "count"),
    ("ckpt.rejected", "count"),
    ("sweep.run_s", "s"),
    ("sweep.overhead_s", "s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.decode_s", "s"),
    ("serve.hit_frac", "ratio"),
    ("serve.hits", "count"),
    ("serve.simulated", "count"),
    ("serve.joined", "count"),
    ("serve.busy", "count"),
    ("serve.store_failures", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.passes", "count"),
];

/// Every per-layer metric name with its unit, in output order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for d in Design::REPORTED {
        for (s, u) in DESIGN_SUFFIXES {
            v.push((format!("{}.{s}", d.name()), u));
        }
    }
    v
}

/// Named values collected by a run, checked against the fixed name set
/// when printed.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The metric set of the mode: per-layer when traced, else end to end.
fn mode_names(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }
}

/// `num / den`, or zero for a zero denominator (a pass count or a
/// layer the workload never entered).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills every simulator layer metric from a trace summed over `passes`
/// traced passes: times and counts are per pass, ratios are over the
/// whole trace.
pub fn put_trace(m: &mut Metrics, t: &Trace, passes: f64) {
    let step = t.step.secs();
    m.set("cpu.step_s", ratio(step, passes));
    m.set("cpu.cycles", ratio(t.step.calls as f64, passes));
    m.set("cpu.ns_per_cycle", ratio(step * 1e9, t.step.calls as f64));
    let outside = (step - t.iq_secs() - t.workload.secs()).max(0.0);
    m.set("cpu.outside_iq_s", ratio(outside, passes));
    let c = &t.counts;
    m.set("mem.l1d_accesses", ratio(c.l1d_accesses as f64, passes));
    m.set("mem.l1d_miss_ratio", ratio(c.l1d_misses as f64, c.l1d_accesses as f64));
    m.set("mem.l2_miss_ratio", ratio(c.l2_misses as f64, c.l2_accesses as f64));
    m.set("mem.mshr_rejections", ratio(c.mshr_rejections as f64, passes));
    m.set("lsq.loads_issued", ratio(c.loads_issued as f64, passes));
    m.set("lsq.store_forwards", ratio(c.store_forwards as f64, passes));
    m.set("workload.next_s", ratio(t.workload.secs(), passes));
    m.set("workload.insts", ratio(t.workload.calls as f64, passes));
    m.set("ckpt.restore_s", ratio(t.restore.secs(), passes));
    m.set("ckpt.hits", ratio(t.hits as f64, passes));
    for d in Design::REPORTED {
        let dt = t.design(d);
        put_design(m, d.name(), &dt.iq, dt.step.secs(), passes);
    }
}

fn put_design(m: &mut Metrics, p: &str, iq: &IqTimes, step_secs: f64, passes: f64) {
    m.set(&format!("{p}.tick_s"), ratio(iq.tick.secs(), passes));
    m.set(&format!("{p}.dispatch_s"), ratio(iq.dispatch.secs(), passes));
    m.set(&format!("{p}.select_issue_s"), ratio(iq.select_issue.secs(), passes));
    m.set(&format!("{p}.announce_ready_s"), ratio(iq.announce_ready.secs(), passes));
    m.set(&format!("{p}.notify_s"), ratio(iq.notify.secs(), passes));
    m.set(&format!("{p}.calls"), ratio(iq.calls() as f64, passes));
    m.set(
        &format!("{p}.dispatch_stall_frac"),
        ratio(iq.dispatch_stalls as f64, iq.dispatch.calls as f64),
    );
    m.set(&format!("{p}.share_of_step"), ratio(iq.busy().as_secs_f64(), step_secs));
}

/// Sets every per-layer name not yet set to zero: the workload never
/// entered that layer.
pub fn zero_unset_layers(m: &mut Metrics) {
    for (name, _) in per_layer_names() {
        if m.get(&name).is_none() {
            m.set(&name, 0.0);
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and exactly the
/// metric set of the mode, in its fixed order.
///
/// # Errors
/// A metric of the set is missing or not finite.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &Metrics,
    traced: bool,
) -> Result<String, String> {
    let names = mode_names(traced);
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let v = m.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Sets `peak_rss_mb`: the peak resident set so far, in MiB (`VmHWM`
/// of `/proc/self/status`). Read after set-up and warm-up, so it covers
/// the program's steady footprint and not the timed phase's sample
/// buffers, which grow with throughput.
///
/// # Errors
/// The status file has no readable `VmHWM` line.
pub fn put_peak_rss(m: &mut Metrics) -> Result<(), String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    m.set("peak_rss_mb", kb / 1024.0);
    Ok(())
}

/// Prints the mode's metrics, one `name value unit` line each.
pub fn print_table(m: &Metrics, traced: bool) {
    for (name, unit) in mode_names(traced) {
        if let Some(v) = m.get(&name) {
            println!("{name:<28} {v:>16.6} {unit}");
        }
    }
}

/// Sets `latency_p50_ms` and `latency_tail_ms` (the `tail_pct`-th
/// percentile) from per-job or per-request seconds, reporting the sample
/// support on stderr.
///
/// # Errors
/// Too few samples beyond the tail percentile.
pub fn put_latency(m: &mut Metrics, secs: &[f64], tail_pct: f64) -> Result<(), String> {
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let p50 = summary::median(&ms).ok_or("no latency samples")?;
    let tail = summary::percentile(&ms, tail_pct).ok_or_else(|| {
        format!(
            "{} latency samples leave fewer than {} beyond p{tail_pct}",
            ms.len(),
            summary::MIN_BEYOND
        )
    })?;
    m.set("latency_p50_ms", p50);
    m.set("latency_tail_ms", tail);
    eprintln!(
        "latency: p50 {p50:.3} ms, p{tail_pct} {tail:.3} ms over {} samples ({} beyond); {}",
        ms.len(),
        summary::beyond(ms.len(), tail_pct),
        summary::summarize(&ms).map_or_else(String::new, |s| s.to_string())
    );
    Ok(())
}
