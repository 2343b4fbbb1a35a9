//! The `serve-mixed` workload: an in-process `chainiq-serve` daemon on
//! loopback, driven by one closed-loop client connection.
//!
//! Set-up fills the daemon's result cache with a popular set of specs.
//! The timed phase then sends single-spec grids in blocks: most ask for a
//! popular spec (the cache-hit read path), and a fixed number per block
//! ask for a spec nobody has sent before, which the daemon simulates and
//! stores (the write path). Every reply is checked byte for byte against
//! a local `encode_result` of the same spec.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use chainiq::Bench;
use chainiq_bench::{ideal, segmented, PredictorConfig, RunSpec, DEFAULT_SEED};
use chainiq_serve::proto::encode_result;
use chainiq_serve::{spec_key, Client, GridReply, ServeStats, Server, ServerConfig, Submission};

use crate::gate::{result_fp, same_bytes, Gate, Golden};
use crate::report::{self, Metrics};
use crate::spans::Spans;
use crate::summary;
use crate::sweeps::{spec_label, GOLDEN_SAMPLE};
use crate::traced::{run_traced, Trace};
use crate::{mix, Opts, SETUP_REPEATS};

/// Committed instructions per spec, popular or never seen: the storm
/// client's default sample (`crates/serve/src/bin/storm.rs`), so a miss
/// costs what a submitted sweep point costs.
pub const SAMPLE: u64 = 2_000;
/// Specs in the popular set the cache is filled with: the storm's
/// default distinct-spec count.
pub const POPULAR: usize = 16;
/// Requests per block (the unit `wall_s` times).
pub const BLOCK: usize = 100;
/// Never-seen specs per block: the storm's 95% hit ratio, held fixed
/// per block instead of drawn per request.
pub const MISSES_PER_BLOCK: usize = 5;
/// Blocks in the stream's cycle: with 5 misses per block, each of the
/// 16 templates is a miss 5 times per cycle.
pub const CYCLE: usize = POPULAR;
/// Reported tail percentile: above the hit share, so it times the misses.
/// The cycle's 1 600 request slots leave 16 beyond it.
pub const TAIL_PCT: f64 = 99.0;
/// Fewest times the timed phase goes round the cycle.
pub const MIN_CYCLES: usize = 5;
/// Workload name.
pub const NAME: &str = "serve-mixed";

/// The latency recorded for a refused or failed request: it misses any
/// latency limit.
const MISSED: f64 = f64::MAX;

/// Seed domain of the never-seen specs, apart from the popular ones.
const NOVEL_DOMAIN: u64 = 0x6e6f_7665_6c00_0000;
/// Seed domain of the sets the first set-ups fill.
const FILL_DOMAIN: u64 = 0x6669_6c6c_0000_0000;

/// The `k`-th spec shape, as the storm client's spec pool builds it:
/// benchmark, queue geometry and predictors cycle with `k`.
fn spec(k: u64, sample: u64, seed: u64) -> RunSpec {
    let bench = Bench::ALL[(k % 8) as usize];
    let iq = match k % 4 {
        0 => segmented(512, Some(128)),
        1 => segmented(256, Some(64)),
        2 => ideal(256),
        _ => segmented(128, None),
    };
    let pred = PredictorConfig::ALL[(k % 4) as usize];
    RunSpec::new(bench, iq, pred, sample).with_seed(seed)
}

/// The popular set of a run seed: [`POPULAR`] specs, one per shape.
#[must_use]
pub fn popular(seed: u64) -> Vec<RunSpec> {
    (0..POPULAR as u64).map(|k| spec(k, SAMPLE, mix(seed, k))).collect()
}

/// The default-seed golden grid.
#[must_use]
pub fn golden_specs() -> Vec<RunSpec> {
    (0..8u64).map(|k| spec(k * 3, GOLDEN_SAMPLE, mix(DEFAULT_SEED, k))).collect()
}

/// The seeded request stream: blocks of [`BLOCK`] requests with exactly
/// [`MISSES_PER_BLOCK`] never-seen specs at seeded positions. The blocks
/// repeat a cycle of [`CYCLE`] shapes: blocks `b` and `b + CYCLE` ask
/// for the same popular specs at the same positions, and for never-seen
/// specs of the same templates at fresh seeds. So each request slot of
/// the cycle is the same work every time it comes round.
#[derive(Debug)]
pub struct Stream {
    seed: u64,
    block: u64,
    novel: u64,
}

impl Stream {
    /// The stream of a run seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Stream { seed, block: 0, novel: 0 }
    }

    /// The next block of request specs, with its place in the cycle.
    pub fn next_block(&mut self, popular: &[RunSpec]) -> (usize, Vec<RunSpec>) {
        let class = (self.block % CYCLE as u64) as usize;
        self.block += 1;
        let c = class as u64;
        let mut order: Vec<usize> = (0..BLOCK).collect();
        for i in 0..MISSES_PER_BLOCK {
            let j =
                i + (mix(self.seed ^ 0x5eed, c * BLOCK as u64 + i as u64) as usize) % (BLOCK - i);
            order.swap(i, j);
        }
        let mut novel_at = [false; BLOCK];
        for &p in &order[..MISSES_PER_BLOCK] {
            novel_at[p] = true;
        }
        let mut template = c * MISSES_PER_BLOCK as u64;
        let specs = (0..BLOCK)
            .map(|i| {
                if novel_at[i] {
                    // A popular template at a seed nobody has used.
                    let n = self.novel;
                    self.novel += 1;
                    template += 1;
                    spec((template - 1) % POPULAR as u64, SAMPLE, mix(self.seed ^ NOVEL_DOMAIN, n))
                } else {
                    let r = mix(self.seed, (c << 20) | i as u64);
                    popular[(r % popular.len() as u64) as usize]
                }
            })
            .collect();
        (class, specs)
    }
}

/// A daemon and its one client connection.
struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".parse().map_err(|e| format!("{e}"))?,
            workers: 1,
            queue_depth: 2 * POPULAR,
            cache_dir: dir.to_path_buf(),
            cache_max_bytes: None,
            warmup_cache: None,
        })
        .map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { server, client })
    }

    fn submit(&mut self, specs: &[RunSpec]) -> Result<GridReply, String> {
        match self.client.submit(specs) {
            Ok(Submission::Done(reply)) => Ok(reply),
            Ok(Submission::Busy { queued, cap }) => {
                Err(format!("Busy ({queued} queued, cap {cap})"))
            }
            Err(e) => Err(format!("submit: {e}")),
        }
    }

    fn stop(self) -> ServeStats {
        drop(self.client);
        self.server.stop()
    }
}

/// The reply's first note for job 0: `hit`, `queued` or `joined`.
fn note(reply: &GridReply) -> &str {
    reply.notes.iter().find(|(i, n)| *i == 0 && n != "done").map_or("", |(_, n)| n.as_str())
}

/// The local reference bytes of a spec.
fn local_image(spec: &RunSpec, trace: Option<&mut Trace>) -> Vec<u8> {
    let result = match trace {
        Some(t) => t.span(0, &spec_label(spec), |t| run_traced(spec, None, t).0),
        None => spec.execute(),
    };
    encode_result(spec_key(spec), spec.sample, &result)
}

/// One request slot of the stream's cycle.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Fastest latency over the run's repeats.
    fastest: f64,
    /// For a miss slot, the cycles simulated in that fastest repeat.
    cycles: Option<u64>,
    /// Whether any repeat failed: the slot then misses any latency limit.
    failed: bool,
}

/// What one block of requests produced.
#[derive(Default)]
struct BlockOut {
    wall: f64,
    /// Requests answered with a decodable result.
    completed: usize,
    hit_lat: Vec<f64>,
    miss_lat: Vec<f64>,
    decode_secs: f64,
    /// Per request: its latency ([`MISSED`] for a failed or refused
    /// one) and, for a miss, its simulated cycles.
    reqs: Vec<(f64, Option<u64>)>,
    misses: Vec<(RunSpec, Vec<u8>)>,
}

/// Sends one block, checking hits on the spot and keeping misses for
/// the local re-simulation. A traced block records one span per
/// request, named by the reply's note.
fn run_block(
    d: &mut Daemon,
    reqs: &[RunSpec],
    refs: &BTreeMap<u64, Vec<u8>>,
    gate: &mut Gate,
    mut spans: Option<&mut Spans>,
) -> BlockOut {
    let mut out = BlockOut::default();
    let block = spans.as_deref_mut().map(Spans::begin);
    let t0 = Instant::now();
    for spec in reqs {
        let request = spans.as_deref_mut().map(Spans::begin);
        let t = Instant::now();
        let reply = d.submit(std::slice::from_ref(spec));
        let secs = t.elapsed().as_secs_f64();
        let what = || format!("{NAME} request {}", spec_label(spec));
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.reqs.push((MISSED, None));
                gate.op(what, &[e]);
                continue;
            }
        };
        let t = Instant::now();
        let decoded = reply.decode(std::slice::from_ref(spec));
        let decode = t.elapsed().as_secs_f64();
        out.decode_secs += decode;
        let result = match decoded.map(|mut v| v.pop()) {
            Ok(Some(r)) => r,
            Ok(None) => {
                out.reqs.push((MISSED, None));
                gate.op(what, &["reply decoded to no result".to_string()]);
                continue;
            }
            Err(e) => {
                out.reqs.push((MISSED, None));
                gate.op(what, &[format!("undecodable reply: {e}")]);
                continue;
            }
        };
        out.completed += 1;
        let kind = note(&reply).to_string();
        if let (Some(sp), Some(open), Some(b)) = (spans.as_deref_mut(), request, block) {
            let fields = [("latency_ms", secs * 1e3), ("decode_s", decode)];
            sp.end(open, b.id, &kind, &spec_label(spec), &fields);
        }
        let image = reply.images.into_iter().next().unwrap_or_default();
        match kind.as_str() {
            "hit" => {
                out.reqs.push((secs, None));
                out.hit_lat.push(secs);
                let problems = match refs.get(&spec_key(spec)) {
                    Some(local) => same_bytes(&image, local).into_iter().collect(),
                    None => vec!["cache hit on a spec outside the popular set".to_string()],
                };
                gate.op(what, &problems);
            }
            "queued" | "joined" => {
                out.reqs.push((secs, Some(result.stats.cycles)));
                out.miss_lat.push(secs);
                out.misses.push((*spec, image));
            }
            other => {
                out.reqs.push((MISSED, None));
                gate.op(what, &[format!("unexpected progress note {other:?}")]);
            }
        }
    }
    out.wall = t0.elapsed().as_secs_f64();
    if let (Some(sp), Some(b)) = (spans, block) {
        sp.end(b, 0, "block", NAME, &[]);
    }
    out
}

/// One set-up: fills the daemon's cache with `set` (all misses) and
/// checks every filled image against a local `encode_result`, adding
/// the local images to `refs`. Returns the fill's seconds.
fn fill(
    d: &mut Daemon,
    set: &[RunSpec],
    refs: &mut BTreeMap<u64, Vec<u8>>,
    gate: &mut Gate,
) -> Result<f64, String> {
    let t = Instant::now();
    let images = d.submit(set)?.images;
    let secs = t.elapsed().as_secs_f64();
    for (s, image) in set.iter().zip(&images) {
        let local = local_image(s, None);
        let p: Vec<String> = same_bytes(image, &local).into_iter().collect();
        gate.op(|| format!("{NAME} fill {}", spec_label(s)), &p);
        refs.insert(spec_key(s), local);
    }
    if images.len() != set.len() {
        gate.op(|| format!("{NAME} fill"), &[format!("{} images for {}", images.len(), set.len())]);
    }
    Ok(secs)
}

/// Set-up `k` (`k > 0`) during the timed phase: fills the cache with a
/// fresh set of the popular set's size, adding the fill's daemon
/// counters to `fills`. Returns the fill's seconds.
fn spread_fill(
    d: &mut Daemon,
    seed: u64,
    k: usize,
    fills: &mut ServeStats,
    gate: &mut Gate,
) -> Result<f64, String> {
    let set = popular(mix(seed, FILL_DOMAIN + k as u64));
    let before = d.server.stats();
    let secs = fill(d, &set, &mut BTreeMap::new(), gate)?;
    let after = d.server.stats();
    fills.submitted += after.submitted - before.submitted;
    fills.simulated += after.simulated - before.simulated;
    Ok(secs)
}

/// Runs `serve-mixed`.
pub fn run(opts: &Opts, golden: &Golden, gate: &mut Gate, m: &mut Metrics) -> Result<(), String> {
    let hot = popular(opts.seed);

    // Set-up 0 fills the daemon's cache with the popular set. The other
    // set-ups fill it with sets of the same size during the timed phase,
    // so `setup_s` sees the same host as the timed blocks. One daemon
    // serves the whole run.
    let mut d = Daemon::start(&opts.work.join("serve"))?;
    let mut refs = BTreeMap::new();
    let mut setup_secs = vec![fill(&mut d, &hot, &mut refs, gate)?];

    let mut stream = Stream::new(opts.seed);
    // Untimed warm-up block.
    let warm = run_block(&mut d, &stream.next_block(&hot).1, &refs, gate, None);
    verify_misses(&warm.misses, None, gate);
    let mut trace = Trace::default();

    // Timed phase: blocks until the time is up and the untraced blocks
    // have gone round the cycle often enough. Misses are re-simulated
    // locally between blocks, outside the block's time. Each request
    // slot of the cycle keeps its fastest latency: the host's speed
    // wanders by tens of percent from second to second, and the fastest
    // of many repeats of the same work is what a quieter host would give.
    let mut slots =
        vec![Slot { fastest: f64::INFINITY, cycles: None, failed: false }; CYCLE * BLOCK];
    let mut walls = Vec::new();
    let before = d.server.stats();
    let mut traced_walls = Vec::new();
    let (mut hit_lat, mut miss_lat) = (Vec::new(), Vec::new());
    let mut decode_traced = 0.0;
    let mut completed = 0usize;
    let mut fills = ServeStats::default();
    let min_blocks = if opts.trace { 0 } else { MIN_CYCLES * CYCLE };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || walls.len() < min_blocks {
        let (class, reqs) = stream.next_block(&hot);
        let b = run_block(&mut d, &reqs, &refs, gate, None);
        walls.push(b.wall);
        completed += b.completed;
        for (slot, &(secs, cycles)) in slots[class * BLOCK..].iter_mut().zip(&b.reqs) {
            if secs == MISSED {
                slot.failed = true;
            } else if secs < slot.fastest {
                *slot = Slot { fastest: secs, cycles, failed: slot.failed };
            }
        }
        verify_misses(&b.misses, None, gate);
        if opts.trace {
            hit_lat.extend(&b.hit_lat);
            miss_lat.extend(&b.miss_lat);
            let tb =
                run_block(&mut d, &stream.next_block(&hot).1, &refs, gate, Some(&mut trace.spans));
            traced_walls.push(tb.wall);
            decode_traced += tb.decode_secs;
            hit_lat.extend(&tb.hit_lat);
            miss_lat.extend(&tb.miss_lat);
            verify_misses(&tb.misses, Some(&mut trace), gate);
        }
        if crate::setup_due(setup_secs.len(), start.elapsed().as_secs_f64(), opts.seconds) {
            setup_secs.push(spread_fill(&mut d, opts.seed, setup_secs.len(), &mut fills, gate)?);
        }
    }
    while setup_secs.len() < SETUP_REPEATS {
        setup_secs.push(spread_fill(&mut d, opts.seed, setup_secs.len(), &mut fills, gate)?);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // The timed blocks' counters, without the spread set-ups' fills.
    let mut after = d.server.stats();
    after.submitted -= fills.submitted;
    after.simulated -= fills.simulated;
    // Golden check through the daemon.
    let gspecs = golden_specs();
    match d.submit(&gspecs).and_then(|r| r.decode(&gspecs).map_err(|e| e.to_string())) {
        Ok(results) => {
            for (i, (s, r)) in gspecs.iter().zip(&results).enumerate() {
                let label = spec_label(s);
                let p: Vec<String> =
                    golden.check(NAME, i, &label, result_fp(r)).into_iter().collect();
                gate.op(|| format!("{NAME} golden {label}"), &p);
            }
        }
        Err(e) => {
            gate.op(|| format!("{NAME} golden"), &[e]);
        }
    }
    d.stop();
    // The whole run's peak, before the report allocates anything.
    report::put_peak_rss(m)?;

    if opts.trace {
        let passes = traced_walls.len() as f64;
        crate::write_spans(&trace.spans, opts);
        report::put_trace(m, &trace, passes);
        let ms = |v: &[f64]| summary::median(v).map_or(0.0, |s| s * 1e3);
        m.set("serve.hit_ms_p50", ms(&hit_lat));
        m.set("serve.miss_ms_p50", ms(&miss_lat));
        m.set("serve.decode_s", decode_traced / passes);
        let blocks = (walls.len() + traced_walls.len()) as f64;
        let sub = (after.submitted - before.submitted) as f64;
        m.set("serve.hit_frac", (after.hits - before.hits) as f64 / sub.max(1.0));
        m.set("serve.hits", (after.hits - before.hits) as f64 / blocks);
        m.set("serve.simulated", (after.simulated - before.simulated) as f64 / blocks);
        m.set("serve.joined", (after.joined - before.joined) as f64 / blocks);
        m.set("serve.busy", (after.busy - before.busy) as f64 / blocks);
        m.set(
            "serve.store_failures",
            (after.store_failures - before.store_failures) as f64 / blocks,
        );
        let tw = summary::median(&traced_walls).unwrap_or(0.0);
        let uw = summary::median(&walls).unwrap_or(1.0);
        m.set("trace.overhead_frac", tw / uw - 1.0);
        m.set("trace.passes", passes);
    } else {
        // One go round the cycle at each slot's fastest latency, per block.
        let wall = slots.iter().map(|s| s.fastest).sum::<f64>() / CYCLE as f64;
        m.set("wall_s", wall);
        m.set("jobs_per_s", BLOCK as f64 / wall);
        // The miss path's own rate: simulated cycles over the time the
        // client waited for the misses.
        let (cycles, miss_secs) = slots
            .iter()
            .filter_map(|s| s.cycles.map(|c| (c, s.fastest)))
            .fold((0u64, 0.0), |(c, t), (sc, st)| (c + sc, t + st));
        if miss_secs <= 0.0 {
            return Err("no miss was timed".to_string());
        }
        m.set("sim_kcycles_per_s", cycles as f64 / miss_secs / 1e3);
        let values: Vec<f64> =
            slots.iter().map(|s| if s.failed { MISSED } else { s.fastest }).collect();
        report::put_latency(m, &values, TAIL_PCT)?;
        // The fastest fill: every fill is the same 16 shapes at fresh seeds.
        m.set("setup_s", setup_secs.iter().copied().fold(f64::INFINITY, f64::min));
    }
    eprintln!(
        "{NAME}: {} timed blocks ({completed} requests completed) in {elapsed:.2} s; untraced \
         block mean {:.5} s, median {:.5} s; set-ups {:?} s (median {:.4} s); daemon {}",
        walls.len() + traced_walls.len(),
        walls.iter().sum::<f64>() / walls.len() as f64,
        summary::median(&walls).unwrap_or(f64::NAN),
        setup_secs.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        summary::median(&setup_secs).unwrap_or(f64::NAN),
        ServeDelta(before, after)
    );
    Ok(())
}

/// Re-simulates every miss locally and compares the served bytes.
fn verify_misses(misses: &[(RunSpec, Vec<u8>)], mut trace: Option<&mut Trace>, gate: &mut Gate) {
    for (spec, image) in misses {
        let local = local_image(spec, trace.as_deref_mut());
        let p: Vec<String> = same_bytes(image, &local).into_iter().collect();
        gate.op(|| format!("{NAME} request {}", spec_label(spec)), &p);
    }
}

/// Daemon counters over the timed phase.
struct ServeDelta(ServeStats, ServeStats);

impl std::fmt::Display for ServeDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = (self.0, self.1);
        write!(
            f,
            "{} submitted, {} hits, {} simulated, {} joined, {} busy, {} store failures",
            b.submitted - a.submitted,
            b.hits - a.hits,
            b.simulated - a.simulated,
            b.joined - a.joined,
            b.busy - a.busy,
            b.store_failures - a.store_failures
        )
    }
}

/// Serves one spec from a fresh daemon caching at `dir` and returns
/// the reply's image bytes.
///
/// # Errors
/// The daemon could not start or answer.
pub fn serve_once(dir: &Path, spec: &RunSpec) -> Result<Vec<u8>, String> {
    let mut d = Daemon::start(dir)?;
    let reply = d.submit(std::slice::from_ref(spec));
    d.stop();
    reply?.images.pop().ok_or_else(|| "reply without an image".to_string())
}

/// The default-seed golden results, served by a fresh daemon at `dir`.
///
/// # Errors
/// The daemon could not start or answer.
pub fn golden_results(dir: &Path) -> Result<Vec<(String, chainiq::RunResult)>, String> {
    let mut d = Daemon::start(dir)?;
    let specs = golden_specs();
    let reply = d.submit(&specs);
    d.stop();
    let results = reply?.decode(&specs).map_err(|e| e.to_string())?;
    Ok(specs.iter().map(spec_label).zip(results).collect())
}
